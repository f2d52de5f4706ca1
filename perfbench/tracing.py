"""Spans and counters recorded around costwalk's layer entry points.

The tracer lives in the benchmark, not in the program: ``install`` replaces
each entry point listed in ``ENTRY_POINTS`` with a wrapper that opens a span
(name, start, end, parent, run id) for the duration of the call and, for some
layers, adds counters derived from the call's arguments or result. Names
imported with ``from x import y`` are patched in the module that calls them.

The tracer keeps one stack of open spans, so it assumes that the traced
program runs on one thread; the benchmark runs the CLI with ``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    """One call into a layer; ``run`` numbers the CLI call it belongs to."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = 0
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0

    def open(self, name: str) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, name, perf_counter()))
        return span_id

    def close(self, span_id: int) -> None:
        end = perf_counter()
        top, name, start = self._stack.pop()
        if top != span_id:
            raise RuntimeError(f"span {name!r} closed out of order")
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span_id)
            if on_result is not None:
                on_result(self, result, args)
            return result

        return traced


# Counter hooks: each receives (tracer, result, positional args) of one call.


def _count_ingested(tr, corpus, args):
    tr.count("dataset.series_ingested", len(corpus))


def _count_excluded_selection(tr, result, args):
    tr.count("dataset.series_excluded", len(result[1]))


def _count_excluded_summaries(tr, summaries, args):
    # describe classifies through summarize_corpus and never calls
    # select_improving; validate summarizes the improving series only, so
    # this adds nothing there and nothing is counted twice.
    tr.count("dataset.series_excluded", sum(not s.improving for s in summaries))


def _count_corpus_hindcast(tr, result, args):
    tr.count("hindcast.records", len(result.records))
    tr.count("hindcast.too_short", len(result.too_short))
    tr.count("hindcast.skipped_zero_volatility", result.skipped_zero_volatility)


def _count_series_kernel(tr, result, args):
    tr.count("_kernels.hindcast_errors.records", result[1].size)


def _count_corpus_kernel(tr, result, args):
    series_idx, tau, norm, n_skipped = result
    lengths, drifts, _, innovations = args[:4]
    tr.count("_kernels.corpus_norm_errors.records", norm.size)
    tr.count("_kernels.corpus_norm_errors.skipped", n_skipped)
    # Computed from array sizes (inputs read plus outputs written), not
    # measured: cache traffic and temporaries are not included.
    tr.count(
        "_kernels.corpus_norm_errors.bytes_computed",
        8 * (len(lengths) + len(drifts) + len(innovations)) + series_idx.nbytes + tau.nbytes + norm.nbytes,
    )


def _count_records_csv(tr, result, args):
    tr.count("hindcast.records_csv_bytes", os.path.getsize(args[0]))


def _count_band_reps(tr, result, args):
    tr.count("surrogate.replications", args[0].replications)


def _count_deviation_reps(tr, result, args):
    tr.count("surrogate.replications", args[2].replications)


def _count_matched_reps(tr, result, args):
    tr.count("surrogate.replications", args[1].replications * len(result.theta_grid))


# (module, attribute, span name, counter hook)
ENTRY_POINTS = [
    ("costwalk.cli", "cmd_describe", "cli.describe", None),
    ("costwalk.cli", "cmd_hindcast", "cli.hindcast", None),
    ("costwalk.cli", "cmd_validate", "cli.validate", None),
    ("costwalk.cli", "ingest_csv", "dataset.ingest_csv", _count_ingested),
    ("costwalk.cli", "select_improving", "dataset.select_improving", _count_excluded_selection),
    ("costwalk.cli", "summarize_corpus", "dataset.summarize_corpus", _count_excluded_summaries),
    ("costwalk.cli", "write_summary_csv", "dataset.write_summary_csv", None),
    ("costwalk.models", "fit_ima_mle", "models.fit_ima_mle", None),
    ("costwalk.cli", "hindcast_corpus", "hindcast.hindcast_corpus", _count_corpus_hindcast),
    ("costwalk._kernels", "hindcast_errors", "_kernels.hindcast_errors", _count_series_kernel),
    ("costwalk.cli", "error_growth", "hindcast.error_growth", None),
    ("costwalk.cli", "write_records_csv", "hindcast.write_records_csv", _count_records_csv),
    ("costwalk.cli", "write_error_growth_csv", "hindcast.write_error_growth_csv", None),
    ("costwalk.cli", "null_xi_band", "surrogate.null_xi_band", _count_band_reps),
    ("costwalk.cli", "distribution_deviation_test", "surrogate.distribution_deviation_test",
     _count_deviation_reps),
    ("costwalk.cli", "estimate_theta_matched", "surrogate.estimate_theta_matched", _count_matched_reps),
    ("costwalk._kernels", "corpus_norm_errors", "_kernels.corpus_norm_errors", _count_corpus_kernel),
    ("costwalk.surrogate", "derive_rng", "stats.derive_rng", None),
    ("costwalk.surrogate", "variance_factors", "forecast.variance_factors", None),
    ("costwalk.hindcast", "variance_factors", "forecast.variance_factors", None),
]


@contextmanager
def install(tracer: Tracer, entry_points=ENTRY_POINTS):
    """Wrap every entry point for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, span_name, hook in entry_points:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def covered_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - covered_length([(a, b) for a, b in clipped if b > a])
    return out


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


_SURROGATE = tuple(
    f"surrogate.{fn}" for fn in ("null_xi_band", "distribution_deviation_test", "estimate_theta_matched")
)
_CLI = ("cli.main", "cli.describe", "cli.hindcast", "cli.validate")
CALLS = ("_kernels.corpus_norm_errors", "_kernels.hindcast_errors", "stats.derive_rng",
         "forecast.variance_factors", "models.fit_ima_mle")
BUSY = CALLS + _SURROGATE + _CLI[1:] + (
    "dataset.ingest_csv", "dataset.select_improving", "dataset.write_summary_csv",
    "hindcast.hindcast_corpus", "hindcast.error_growth", "hindcast.write_records_csv",
    "hindcast.write_error_growth_csv",
)
SELF = _SURROGATE + ("dataset.summarize_corpus", "hindcast.hindcast_corpus")
COUNTERS = (
    "_kernels.corpus_norm_errors.records",
    "_kernels.corpus_norm_errors.skipped",
    "_kernels.corpus_norm_errors.bytes_computed",
    "_kernels.hindcast_errors.records",
    "surrogate.replications",
    "dataset.series_ingested",
    "dataset.series_excluded",
    "hindcast.records",
    "hindcast.too_short",
    "hindcast.skipped_zero_volatility",
    "hindcast.records_csv_bytes",
)


def layer_metrics(spans, counters, op_commands: dict[int, str], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    Layers absent from the process report 0. ``op_commands`` maps each run
    id (one CLI call) to its subcommand; ``wall_s`` is the traced process's
    wall time over all its CLI calls.
    """
    groups = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)
    selfs = self_times(spans)

    def busy(name, keep=lambda s: True):
        return covered_length([(s.start, s.end) for s in groups[name] if keep(s)])

    def self_s(names):
        return sum((selfs[s.id] for name in names for s in groups[name]), 0.0)

    m = {f"{name}.calls": float(len(groups[name])) for name in CALLS}
    m.update({f"{name}.busy_s": busy(name) for name in BUSY})
    m.update({f"{name}.self_s": self_s([name]) for name in SELF})
    m.update({name: float(counters.get(name, 0.0)) for name in COUNTERS})

    kernel_us = [(s.end - s.start) * 1e6 for s in groups["_kernels.corpus_norm_errors"]]
    m["_kernels.corpus_norm_errors.p50_us"] = _percentile(kernel_us, 50)
    m["_kernels.corpus_norm_errors.p99_us"] = _percentile(kernel_us, 99)
    m["_kernels.corpus_norm_errors.wall_share"] = (
        m["_kernels.corpus_norm_errors.busy_s"] / wall_s if wall_s > 0 else 0.0
    )
    fits = m["models.fit_ima_mle.calls"]
    m["models.fit_ima_mle.ms_per_fit"] = m["models.fit_ima_mle.busy_s"] / fits * 1e3 if fits else 0.0
    describe_runs = {run for run, cmd in op_commands.items() if cmd == "describe"}
    describe_fit_s = busy("models.fit_ima_mle", lambda s: s.run in describe_runs)
    describe_s = m["cli.describe.busy_s"]
    m["models.fit_ima_mle.describe_share"] = describe_fit_s / describe_s if describe_s > 0 else 0.0
    reps = m["surrogate.replications"]
    m["surrogate.self_us_per_rep"] = self_s(_SURROGATE) / reps * 1e6 if reps else 0.0
    m["cli.self_s"] = self_s(_CLI)
    m["trace.spans"] = float(len(spans))
    return m


def span_cost_us(calls: int = 20000) -> float:
    """Time one traced call adds: a wrapped no-op against a plain one, in us."""

    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    start = perf_counter()
    for _ in range(calls):
        noop()
    plain = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        traced()
    wrapped = perf_counter() - start
    return max(wrapped - plain, 0.0) / calls * 1e6


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced processes."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
