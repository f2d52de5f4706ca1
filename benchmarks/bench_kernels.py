#!/usr/bin/env python3
"""Benchmark the numpy kernels and the batched surrogate engine.

Times the hot paths on representative workloads:

* per-series exhaustive hindcast, ``hindcast_errors`` (one long series, many
  origins);
* surrogate replication (simulate the unit, drift-free walks of a 53-series
  corpus profile and hindcast them) through ``corpus_norm_errors``, one
  replication per call, which builds the corpus's index plan on every call;
* the same replication through the batched surrogate engine that every
  Monte Carlo experiment at one theta runs on: the same plan and window
  helper, the plan built once per experiment and several replications per
  array pass, plus each replication's error-growth curve;
* validate's joint pass, per replication: the engine with both the
  error-growth curve and the three ECDF-deviation measures of every
  replication, the two nulls that ``validation_nulls`` reads from one draw;
* theta matching, per grid: the exact null mean of Xi at horizons 1..20
  (``null_xi_mean``) on the grids 0, 0.05, ..., 0.9 (19 theta, perfbench's)
  and 0, 0.01, ..., 0.9 (91 theta, the CLI default), and the whole
  ``estimate_theta_matched`` call on each, which adds the bisection for the
  root of Z - 1; no replication is drawn;
* the error-growth aggregation of one such pass on its own, under pooled and
  equal-technology weighting (the cell sums and the reduction that the
  observed curve shares);
* the observed-data path on a corpus drawn from the template repeated 10
  times (530 series): the IMA maximum likelihood fit of the whole corpus
  in one lockstep call and of one series alone, the whole summary of the
  corpus (moments, trend p-values and that fit, as ``describe`` runs it),
  the improving-technology filter (``select_improving``: the moments and
  trend p-values alone, as ``validate`` runs it), reading the corpus from
  its long CSV (``ingest_csv``), building the
  hindcast records, writing them to ``records.csv``, and their error-growth
  curve under both weightings;
* fixed costs that every fresh process pays once, timed in a new Python
  process: the first ``NullEnsemble.quantiles`` call on a (1000, 20)
  ensemble (and a second one, for comparison), the t(m-1) CDF on the
  deviation grid, and ``import numpy.random``, which ``derive_rng`` needs.

Usage: python benchmarks/bench_kernels.py [--reps 200]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

import costwalk
from costwalk import (
    SurrogateConfig,
    corpus_template,
    error_growth,
    estimate_theta_matched,
    fit_ima_mle,
    fit_ima_mle_corpus,
    hindcast_corpus,
    ingest_csv,
    load_reference_params,
    make_rng,
    select_improving,
    summarize_corpus,
    surrogate_corpus,
    write_corpus_csv,
)
from costwalk import _kernels
from costwalk.hindcast import _cells, write_records_csv
from costwalk.stats import derive_rng
from costwalk.surrogate import (
    _deviation_statistic,
    _engine_plan,
    _innovations,
    _run,
    _simulate,
    _xi_ensemble,
    _xi_rows,
    _xi_statistic,
    null_xi_mean,
)


def _time(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_hindcast(y, m, tau_max, loops=200):
    def run():
        for _ in range(loops):
            _kernels.hindcast_errors(y, m, tau_max)

    return _time(run) / loops


def bench_surrogate(lengths, theta, m, tau_max, reps):
    def run():
        for rep in range(reps):
            w = derive_rng(42, rep).standard_normal(int(lengths.sum()))
            _kernels.corpus_norm_errors(lengths, theta, w, m, tau_max)

    return _time(run, repeat=3) / reps


def bench_engine(template, theta, m, tau_max, reps):
    config = SurrogateConfig(
        replications=reps, theta=theta, m=m, tau_max=tau_max, seed=42, template=template
    )
    return _time(lambda: _xi_ensemble(config, 1), repeat=3) / reps


def bench_joint(template, theta, m, tau_max, reps):
    """Time per replication of the engine with Xi and the deviation measures,
    each taken from every replication of the pass, as ``validation_nulls`` runs it."""
    config = SurrogateConfig(
        replications=reps, theta=theta, m=m, tau_max=tau_max, seed=42, template=template
    )
    plan = _engine_plan(config)
    records = hindcast_corpus(surrogate_corpus(config, make_rng(7)), m, tau_max=tau_max).records
    _, deviation = _deviation_statistic(records, config, plan)
    statistics = [_xi_statistic(config, plan), deviation]
    return _time(lambda: _run(config, plan, 1, statistics), repeat=3) / reps


def bench_matching(template, m, tau_max, grid):
    """Times of the exact null mean on ``grid`` and of matching theta over it;
    the observed corpus is drawn at theta = 0.63, so the bisection runs too."""
    config = SurrogateConfig(
        replications=1, theta=0.63, m=m, tau_max=tau_max, seed=42, template=template
    )
    corpus = surrogate_corpus(config, make_rng(7))
    curve = error_growth(hindcast_corpus(corpus, m, tau_max=tau_max).records)
    t_mean = _time(lambda: null_xi_mean(m, tau_max, grid), repeat=20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # Z - 1 need not change sign
        t_match = _time(lambda: estimate_theta_matched(curve, config, grid), repeat=20)
    return t_mean, t_match


def bench_xi_pass(template, theta, m, tau_max, loops=200):
    """Time of reducing one engine pass's errors to Xi curves, per weighting."""
    times = {}
    for weighting in ("pooled", "equal-technology"):
        config = SurrogateConfig(
            replications=1, theta=theta, m=m, tau_max=tau_max, seed=42, template=template,
            weighting=weighting,
        )
        plan = _kernels._build_plan(config.lengths, m, tau_max)
        rngs = [derive_rng(42, 1, rep) for rep in range(plan.chunk)]
        norm = _simulate(config, plan, np.array([_innovations(config, r) for r in rngs]))
        cell = _cells(plan.origin_series[plan.record_origin], plan.tau, tau_max)
        xi_rows = _xi_rows(config, cell, plan.chunk)

        def run():
            for _ in range(loops):
                xi_rows(norm)

        times[weighting] = _time(run) / loops
    return plan.chunk, times


def bench_observed(template, theta, m, tau_max):
    config = SurrogateConfig(
        replications=1, theta=theta, m=m, tau_max=tau_max, seed=42, template=template * 10
    )
    corpus = surrogate_corpus(config, make_rng(42))
    t_fit = {
        "fit_ima_mle_corpus, per series": _time(lambda: fit_ima_mle_corpus(corpus), repeat=3)
        / len(corpus),
        f"fit_ima_mle, one series (T={corpus[0].n_obs})": _time(
            lambda: fit_ima_mle(corpus[0]), repeat=3
        ),
        "summarize_corpus, per series": _time(lambda: summarize_corpus(corpus), repeat=3)
        / len(corpus),
    }
    t_stage = {
        "select_improving": _time(lambda: select_improving(corpus)),
        "hindcast_corpus": _time(lambda: hindcast_corpus(corpus, m, tau_max=tau_max)),
    }
    records = hindcast_corpus(corpus, m, tau_max=tau_max).records
    with tempfile.TemporaryDirectory() as directory:
        corpus_path = Path(directory) / "corpus.csv"
        write_corpus_csv(corpus_path, corpus)
        t_stage["ingest_csv"] = _time(lambda: ingest_csv(corpus_path))
        path = Path(directory) / "records.csv"
        t_stage["write_records_csv"] = _time(lambda: write_records_csv(path, records))
    for w in ("pooled", "equal-technology"):
        t_stage[f"error_growth {w}"] = _time(lambda: error_growth(records, weighting=w))
    return len(corpus), len(records), t_fit, t_stage


# Run in a fresh process, so that each first call pays what a CLI run pays.
_FIXED_COSTS = """
import json, time
t0 = time.perf_counter()
from costwalk.surrogate import NullEnsemble, _t_cdf_grid
t1 = time.perf_counter()
import numpy.random
t2 = time.perf_counter()
band = NullEnsemble(statistic="xi", values=numpy.random.default_rng(1).gamma(2.0, (1000, 20)))
t3 = time.perf_counter()
band.quantiles
t4 = time.perf_counter()
band.quantiles
t5 = time.perf_counter()
_t_cdf_grid(4)
t6 = time.perf_counter()
print(json.dumps({
    "import costwalk.surrogate, numpy": t1 - t0,
    "import numpy.random": t2 - t1,
    "first NullEnsemble.quantiles (1000, 20)": t4 - t3,
    "second NullEnsemble.quantiles": t5 - t4,
    "deviation t(4) grid": t6 - t5,
}))
"""


def bench_fixed_costs():
    """Seconds of each per-process fixed cost, measured in a new process."""
    src = str(Path(costwalk.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _FIXED_COSTS], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=200, help="surrogate replications per timing")
    args = parser.parse_args()

    rng = derive_rng(7, 0)
    y = np.concatenate(([0.0], np.cumsum(-0.05 + 0.1 * rng.standard_normal(99))))

    template = corpus_template(load_reference_params(improving_only=True))
    lengths = np.array([t[0] for t in template], dtype=np.int64)

    t_hind = bench_hindcast(y, 5, 20)
    t_surr = bench_surrogate(lengths, 0.63, 5, 20, args.reps)
    t_engine = bench_engine(template, 0.63, 5, 20, args.reps)
    t_joint = bench_joint(template, 0.63, 5, 20, args.reps)

    print(f"{'':<19} {'hindcast T=100,m=5':>22} {'surrogate 53-series rep':>26}")
    print(f"{'hindcast_errors':<19} {t_hind * 1e6:>18.1f} us")
    print(f"{'corpus_norm_errors':<19} {'':>22} {t_surr * 1e6:>23.1f} us  (plan per call)")
    print(f"{'engine':<19} {'':>22} {t_engine * 1e6:>23.1f} us  (with Xi)")
    print(f"{'validate pass':<19} {'':>22} {t_joint * 1e6:>23.1f} us  (Xi + deviation)")

    print("\ntheta matching, no replication (m=5, tau 1..20)")
    for n_theta in (19, 91):
        t_mean, t_match = bench_matching(template, 5, 20, np.linspace(0.0, 0.9, n_theta))
        print(f"{f'null_xi_mean, {n_theta} theta':<34} {t_mean * 1e3:>8.2f} ms per grid")
        print(f"{f'estimate_theta_matched, {n_theta} theta':<34} {t_match * 1e3:>8.2f} ms per grid")

    chunk, t_xi = bench_xi_pass(template, 0.63, 5, 20)
    print(f"\nXi aggregation of one engine pass ({chunk} replications)")
    for weighting, t in t_xi.items():
        print(f"{weighting:<34} {t * 1e6:>8.1f} us per pass")

    n_series, n_records, t_fit, t_stage = bench_observed(template, 0.63, 5, 20)
    print(f"\nobserved path, {n_series} series, {n_records} hindcast records")
    for stage, t in t_fit.items():
        print(f"{stage:<34} {t * 1e3:>8.3f} ms")
    for stage, t in t_stage.items():
        print(f"{stage:<34} {t * 1e3:>8.2f} ms")

    print("\nfixed costs of a fresh process")
    for stage, t in bench_fixed_costs().items():
        print(f"{stage:<40} {t * 1e3:>8.2f} ms")


if __name__ == "__main__":
    main()
