"""One measured process: import costwalk, run CLI calls in-process, report.

Usage: python3 worker.py SPEC_JSON SRC_DIR

The process imports ``costwalk.cli`` from SRC_DIR before anything else and
notes the monotonic clock when that import is done, so the parent can time
set-up from the moment it started the interpreter. SPEC_JSON names the CLI
calls to run (none for a set-up sample), whether to trace them, and where to
write the result and, when traced, the spans.
"""

import sys
import time


def peak_rss_mb():
    """Peak resident set size of this process image, in MiB.

    ``getrusage`` keeps the high-water mark across ``exec``, so a child
    started from a larger parent would report the parent's peak; the
    kernel's per-image ``VmHWM`` does not, and is used where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(ready):
    # Imported after the set-up clock stops, so that only costwalk is timed.
    import io
    import json
    import traceback
    from contextlib import redirect_stderr, redirect_stdout
    from dataclasses import asdict
    from pathlib import Path

    import costwalk.cli
    import tracing

    def run_op(argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            span = tracer.open("cli.main") if tracer else None
            try:
                code = costwalk.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the flags
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is reported as a failed call
                code = -1
                err.write(traceback.format_exc())
            finally:
                if tracer:
                    tracer.close(span)
        seconds = time.perf_counter() - start
        return {"argv": argv, "code": code, "seconds": seconds, "stdout": out.getvalue(),
                "stderr": err.getvalue()[-4000:]}

    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = tracing.Tracer() if spec["trace"] else None
    first = time.perf_counter()
    first_cpu = time.process_time()
    if tracer:
        ops = []
        with tracing.install(tracer):
            for run, argv in enumerate(spec["ops"]):
                tracer.run = run
                ops.append(run_op(argv, tracer))
    else:
        ops = [run_op(argv, None) for argv in spec["ops"]]
    wall_s = time.perf_counter() - first
    cpu_s = time.process_time() - first_cpu
    result = {
        "ready": ready,
        "backend": costwalk.kernel_backend(),
        "ops": ops,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "maxrss_mb": peak_rss_mb(),
    }
    if tracer:
        commands = {run: argv[0] for run, argv in enumerate(spec["ops"])}
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters, commands, wall_s)
        result["layers"]["trace.span_cost_us"] = tracing.span_cost_us()
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[2])
    import costwalk.cli  # noqa: F401  (set-up ends when the CLI module is loaded)

    main(time.monotonic())
