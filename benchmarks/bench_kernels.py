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
  error-growth curve and the three ECDF-deviation measures of each
  replication, the two nulls that ``validation_nulls`` reads from one draw;
* theta matching's common-random-numbers pass, per replication: one draw
  gives the error-growth curve at all 19 theta of the grid 0, 0.05, ..., 0.9
  (the engine would simulate 19 corpora for it);
* the error-growth aggregation of one such pass on its own, under pooled and
  equal-technology weighting (the cell sums and the reduction that the
  observed curve shares);
* the observed-data path on a corpus drawn from the template repeated 10
  times (530 series): the IMA maximum likelihood fit per series, building
  its hindcast records, writing them to ``records.csv``, and their
  error-growth curve under both weightings.

Usage: python benchmarks/bench_kernels.py [--reps 200]
"""

import argparse
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from costwalk import (
    SurrogateConfig,
    corpus_template,
    error_growth,
    estimate_theta_matched,
    fit_ima_mle,
    hindcast_corpus,
    load_reference_params,
    make_rng,
    surrogate_corpus,
)
from costwalk import _kernels
from costwalk.hindcast import _cells, write_records_csv
from costwalk.stats import derive_rng, student_t_cdf
from costwalk.surrogate import (
    DEVIATION_GRID,
    _deviation_statistic,
    _engine_plan,
    _innovations,
    _run,
    _simulate,
    _xi_ensemble,
    _xi_rows,
    _xi_statistic,
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
    """Time per replication of the engine with Xi and the deviation measures."""
    config = SurrogateConfig(
        replications=reps, theta=theta, m=m, tau_max=tau_max, seed=42, template=template
    )
    plan = _engine_plan(config)
    t_cdf_grid = np.array([student_t_cdf(x, m - 1) for x in DEVIATION_GRID])
    statistics = [
        _xi_statistic(config, plan, reps),
        _deviation_statistic(config, plan, reps, theta, t_cdf_grid),
    ]
    return _time(lambda: _run(config, plan, 1, statistics), repeat=3) / reps


def bench_matching(template, m, tau_max, reps, grid=np.linspace(0.0, 0.9, 19)):
    """Time per replication of matching theta over ``grid``, observed curve given."""
    config = SurrogateConfig(
        replications=reps, theta=0.0, m=m, tau_max=tau_max, seed=42, template=template
    )
    corpus = surrogate_corpus(config, make_rng(7))
    curve = error_growth(hindcast_corpus(corpus, m, tau_max=tau_max).records)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # Z - 1 need not change sign
        t = _time(lambda: estimate_theta_matched(curve, config, grid), repeat=3)
    return grid.size, t / reps


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

        def run():
            for _ in range(loops):
                _xi_rows(norm, cell, config)

        times[weighting] = _time(run) / loops
    return plan.chunk, times


def bench_observed(template, theta, m, tau_max):
    config = SurrogateConfig(
        replications=1, theta=theta, m=m, tau_max=tau_max, seed=42, template=template * 10
    )
    corpus = surrogate_corpus(config, make_rng(42))
    t_fit = _time(lambda: [fit_ima_mle(s) for s in corpus], repeat=3) / len(corpus)
    t_stage = {"hindcast_corpus": _time(lambda: hindcast_corpus(corpus, m, tau_max=tau_max))}
    records = hindcast_corpus(corpus, m, tau_max=tau_max).records
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "records.csv"
        t_stage["write_records_csv"] = _time(lambda: write_records_csv(path, records))
    for w in ("pooled", "equal-technology"):
        t_stage[f"error_growth {w}"] = _time(lambda: error_growth(records, weighting=w))
    return len(corpus), len(records), t_fit, t_stage


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
    n_theta, t_match = bench_matching(template, 5, 20, args.reps)
    print(f"{'theta matching':<19} {'':>22} {t_match * 1e6:>23.1f} us  (Xi at {n_theta} theta)")

    chunk, t_xi = bench_xi_pass(template, 0.63, 5, 20)
    print(f"\nXi aggregation of one engine pass ({chunk} replications)")
    for weighting, t in t_xi.items():
        print(f"{weighting:<34} {t * 1e6:>8.1f} us per pass")

    n_series, n_records, t_fit, t_stage = bench_observed(template, 0.63, 5, 20)
    print(f"\nobserved path, {n_series} series, {n_records} hindcast records")
    print(f"{'fit_ima_mle':<34} {t_fit * 1e3:>8.3f} ms per fit")
    for stage, t in t_stage.items():
        print(f"{stage:<34} {t * 1e3:>8.2f} ms")


if __name__ == "__main__":
    main()
