#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the costwalk CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc-band --seed 1 --seconds 30 --trace 0
    python3 -m pytest perfbench/tests        # the benchmark's own tests

The benchmark writes the workload's input corpora for the seed (see
``workloads.py``), then measures for ``--seconds``. Each sample is a fresh
Python process (``worker.py``) that imports costwalk from ``src/`` and calls
``costwalk.cli.main`` in-process for each of the workload's CLI calls, with
the default ``--threads 1``. Each call's outputs are checked (``checks.py``),
and every sample's named outputs must be byte-identical to the first
sample's, since all samples use the same seed. Import-only processes spread
over the run give the set-up time.

With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json`` as medians over the samples, with times rescaled by the
host speed probed while each sample ran (see PROBE_REFERENCE_S). With
``--trace 1`` it
alternates untraced samples with samples whose layer entry points are
wrapped in spans (``tracing.py``), and reports the per-layer metrics and the
tracing overhead. Sample counts, figures specific to the workload and the
environment are printed too, and written with the per-sample values to
``.perfbench/results/``, next to the spans of the last traced sample. The
last line of the output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RESULTS = WORK / "results"

# Import-only processes per run, besides the measured ones: some at the start
# and some after each measured sample, so that set-up is sampled across the
# whole run rather than in one burst.
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_BETWEEN = 2
RUN_LIMIT_S = 165  # no process starts later than this; a run must end within 180 s

# How fast the host runs this code changes by up to 40% from one ten-second
# stretch to the next on a shared machine, far more than a benchmark run can
# average away. So while a worker runs, this process times a fixed loop of
# small numpy calls (the kind of work the program does) every PROBE_EVERY_S
# on the same CPU, and the gated times are divided by the worker's mean probe
# time over PROBE_REFERENCE_S: they read as seconds on a host that runs the
# probe in PROBE_REFERENCE_S. Raw times are reported beside them.
PROBE_EVERY_S = 0.2
PROBE_REFERENCE_S = 0.00075


def probe() -> float:
    """CPU time this thread needs, right now, for a fixed piece of work."""
    import numpy as np

    y = np.linspace(0.0, 1.0, 32)
    start = time.thread_time()
    for _ in range(100):
        d = np.diff(y)
        c = np.cumsum(d)
        float(np.sqrt((c * c).sum()))
    return time.thread_time() - start


class WorkerFailed(Exception):
    """A measured process crashed, was killed or timed out."""


class Run:
    """Inputs, samples and checks of one benchmark invocation."""

    def __init__(self, workload, seed: int, work: Path, started: float) -> None:
        import workloads

        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = started
        self.inputs = workloads.build_inputs(work, seed, {op.corpus for op in workload.ops})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict[str, dict[str, str]] = {}
        self.samples: list[dict] = []  # untraced
        self.traced: list[dict] = []
        self.setup_s: list[float] = []
        self.slowness: list[float] = []  # of every worker, as setup_s
        self.backends: set[str] = set()
        self._spawned = 0

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, argvs: list[list[str]], traced: bool = False) -> dict:
        """Run one worker process to completion; returns its result."""
        self._spawned += 1
        spec_path = self.work / f"spec{self._spawned}.json"
        result_path = self.work / f"result{self._spawned}.json"
        spans_path = RESULTS / f"{self.workload.name}-seed{self.seed}-spans.jsonl"
        spec_path.write_text(json.dumps(
            {"ops": argvs, "trace": traced, "result": str(result_path), "spans": str(spans_path)}
        ))
        err_path = self.work / f"stderr{self._spawned}.txt"
        probes = []
        limit = time.monotonic() + max(self.time_left(), 0.0) + 10.0
        with open(err_path, "w", encoding="utf-8") as err:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(SRC)],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                while True:
                    probes.append(probe())
                    try:
                        proc.wait(timeout=PROBE_EVERY_S)
                        break
                    except subprocess.TimeoutExpired:
                        if time.monotonic() > limit:
                            raise WorkerFailed("worker process timed out") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            detail = err_path.read_text(encoding="utf-8").strip()[-2000:]
            raise WorkerFailed(f"worker process exited with {proc.returncode}: {detail}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - started
        result["slowness"] = statistics.mean(probes) / PROBE_REFERENCE_S
        self.setup_s.append(result["setup_s"])
        self.slowness.append(result["slowness"])
        self.backends.add(result["backend"])
        return result

    def sample(self, traced: bool) -> None:
        """One measured process running every CLI call of the workload."""
        import checks

        out_root = self.work / f"sample{self._spawned + 1}"
        outs = [out_root / op.command for op in self.workload.ops]
        argvs = [op.argv(self.inputs, out, self.seed) for op, out in zip(self.workload.ops, outs)]
        self.attempted += len(argvs)
        try:
            result = self.spawn(argvs, traced)
        except WorkerFailed as exc:
            self.failed += len(argvs)
            self.problems.append(str(exc))
            return
        failed_here = 0
        for op, out, done in zip(self.workload.ops, outs, result["ops"]):
            found = checks.check_op(op.command, out, done["code"], done["stdout"])
            if done["code"] != 0:
                found.append(done["stderr"].strip()[-500:])
            if not found:
                digests = checks.output_digests(out)
                first = self.first_digests.setdefault(op.command, digests)
                changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
                if changed:
                    found.append(f"{op.command}: outputs differ between same-seed runs: {changed}")
            if found:
                failed_here += 1
                self.problems.extend(found)
        self.failed += failed_here
        shutil.rmtree(out_root, ignore_errors=True)
        if not failed_here:
            (self.traced if traced else self.samples).append(result)


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Take samples until ``seconds`` have passed and enough were taken."""
    # Workers inherit this CPU, so that the probe sees the speed they get.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run.spawn([])  # warm-up: writes bytecode caches, which users do not pay per run
    run.setup_s.clear()
    run.slowness.clear()
    for _ in range(SETUP_SAMPLES_FIRST):
        run.spawn([])
    deadline = time.monotonic() + seconds
    last = 0.0  # duration of the last sample and the set-up samples after it
    while run.time_left() > 0 and not run.failed:
        # Two untraced samples at least, for the same-seed comparison. No
        # sample starts that would end more than half a sample past the
        # deadline, so that a run lasts about ``seconds`` on any host.
        enough = len(run.samples) >= 2 and (len(run.traced) >= 1 or not trace)
        if enough and time.monotonic() + last / 2 >= deadline:
            break
        begun = time.monotonic()
        run.sample(traced=trace and len(run.traced) < len(run.samples))
        for _ in range(SETUP_SAMPLES_BETWEEN):
            if run.time_left() > 0:
                run.spawn([])
        last = time.monotonic() - begun


def environment(args) -> dict:
    """What the numbers depend on; results from different backends never mix."""
    import numpy

    import costwalk

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".csv"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = done.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": costwalk.kernel_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Gated end-to-end metrics, and figures for this workload reported beside them."""
    walls = [s["wall_s"] for s in run.samples]
    metrics = {
        "wall_s": statistics.median(s["wall_s"] / s["slowness"] for s in run.samples),
        "setup_s": statistics.median(t / k for t, k in zip(run.setup_s, run.slowness)),
        "peak_rss_mb": statistics.median(s["maxrss_mb"] for s in run.samples),
    }
    extra = {
        "samples": len(walls),
        "setup_samples": len(run.setup_s),
        "ops_failed_share": run.failed / run.attempted,
        "host_slowness": statistics.median(s["slowness"] for s in run.samples),
        "raw_wall_s": statistics.median(walls),
        "raw_setup_s": statistics.median(run.setup_s),
        "raw_cpu_s": statistics.median(s["cpu_s"] for s in run.samples),
    }
    if run.workload.replications:
        extra["raw_mc_reps_per_s"] = statistics.median(run.workload.replications / w for w in walls)
    for i, op in enumerate(run.workload.ops):
        extra[f"raw_{op.command}_s"] = statistics.median(s["ops"][i]["seconds"] for s in run.samples)
    return metrics, extra


def per_layer(run: Run) -> dict:
    import tracing

    metrics = tracing.median_metrics([s["layers"] for s in run.traced])
    metrics["cli.ops"] = float(run.attempted)
    metrics["cli.ops_failed"] = float(run.failed)
    metrics["trace.overhead_s"] = (
        statistics.median(s["wall_s"] / s["slowness"] for s in run.traced)
        - statistics.median(s["wall_s"] / s["slowness"] for s in run.samples)
    )
    return metrics


def main(argv=None) -> int:
    started = time.monotonic()
    # On SIGTERM, unwind normally so that the running worker is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="costwalk end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "costwalk" / "__init__.py").is_file():
        print(f"error: no costwalk sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(parents=True, exist_ok=True)
    work = WORK / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Input generation happens here, before any clock that feeds a metric.
        run = Run(workloads.WORKLOADS[args.workload], args.seed, work, started)
        env = environment(args)  # before measure() pins this process to one CPU
        measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if run.backends != {env["kernel_backend"]}:
        run.problems.append(f"kernel backend differs between processes: {sorted(run.backends)}")
    if not run.failed and (not run.samples or (args.trace and not run.traced)):
        run.problems.append("no complete sample before the run time limit")
    correct = not run.problems
    values, extra = ({}, {})
    if correct:
        values, extra = end_to_end(run)
        if args.trace:
            values = per_layer(run)

    for line in run.problems:
        print(f"check failed: {line}")
    print("env: " + json.dumps(env, sort_keys=True))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in wanted if e["name"] in values}
    for name, entry in metrics.items():
        print(f"{name:<48} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in extra.items():
        print(f"{name:<48} {value:>16.6g}  (reported, not gated)")
    if correct and len(metrics) != len(wanted):
        correct = False
        print(f"check failed: metrics not measured: {[e['name'] for e in wanted if e['name'] not in metrics]}")

    result = {"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
              "metrics": metrics}
    record = {
        "env": env, **result, "extra": extra, "problems": run.problems,
        "samples": {"wall_s": [s["wall_s"] for s in run.samples],
                    "traced_wall_s": [s["wall_s"] for s in run.traced],
                    "slowness": [s["slowness"] for s in run.samples],
                    "setup_s": run.setup_s,
                    "setup_slowness": run.slowness},
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
