"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one printed PASS/FAIL
line per criterion. Criterion 10 needs the historical cost corpus (a long
CSV, see README) supplied through the COSTWALK_CORPUS environment variable
and is skipped otherwise; criteria 1-9 are self-contained.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.stats as st

import costwalk as cw
from costwalk import variance_factors
from costwalk.hindcast import error_growth, hindcast_corpus
from costwalk.stats import derive_rng, make_rng

from reference import a_star_expanded, replication_errors, xi_from_errors


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {detail}")


def _ensemble_errors(n_series, n_obs, mu, k, theta, m, tau_max, seed):
    """(tau, norm, series_idx) for one simulated ensemble, via the hot kernel."""
    template = tuple((n_obs, mu, k) for _ in range(n_series))
    config = cw.SurrogateConfig(
        replications=1, theta=theta, m=m, tau_max=tau_max, seed=seed, template=template
    )
    sidx, tau, norm = replication_errors(config, derive_rng(seed, 0))
    return sidx, tau, norm


def _pooled_xi(tau, norm, tau_max):
    sums = np.bincount(tau - 1, weights=norm**2, minlength=tau_max)
    counts = np.bincount(tau - 1, minlength=tau_max)
    return sums / counts


def test_acceptance_01_variance_factor_identity():
    start = time.time()
    rng = make_rng(101)
    worst = 0.0
    for _ in range(1000):
        tau = float(rng.uniform(1, 73))
        m = int(rng.integers(4, 101))
        theta = float(rng.uniform(-0.99, 0.99))
        simplified = variance_factors(tau, m, theta).a_star
        expanded = a_star_expanded(tau, m, theta)
        worst = max(worst, abs(simplified - expanded) / abs(expanded))
    exact = all(
        variance_factors(tau, m, 0.0).a_star == tau + tau * tau / m
        for tau in (1.0, 7.0, 73.0)
        for m in (4, 10, 100)
    )
    elapsed = time.time() - start
    ok = worst <= 1e-10 and exact and elapsed < 1.0
    _report(1, ok, f"max rel dev {worst:.2e}, theta=0 exact: {exact}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert exact
    assert elapsed < 1.0


def test_acceptance_02_random_walk_error_growth():
    start = time.time()
    m, tau_max = 5, 20
    _, tau, norm = _ensemble_errors(5000, 100, 0.04, 0.05, 0.0, m, tau_max, seed=202)
    xi = _pooled_xi(tau, norm, tau_max)
    worst = 0.0
    for t in (1, 5, 10, 20):
        predicted = (m - 1) / (m - 3) * (t + t * t / m)
        worst = max(worst, abs(xi[t - 1] / predicted - 1.0))
    elapsed = time.time() - start
    ok = worst <= 0.05 and elapsed < 60
    _report(2, ok, f"max |rel dev| {worst:.3%} over tau in (1,5,10,20), {elapsed:.1f}s")
    assert worst <= 0.05
    assert elapsed < 60


def test_acceptance_03_correlated_ensemble_distribution():
    # 5000 IMA(1,1) series (theta = 0.6, K = 0.05): at m = 40 the pooled
    # rescaled errors pass a KS test against t(39) on an independent
    # one-record-per-series subsample, and the approximate error-growth
    # formula tracks the simulated curve within 10%.
    start = time.time()
    theta, k, tau_max = 0.6, 0.05, 20
    m = 40
    sidx, tau, norm = _ensemble_errors(5000, 100, 0.04, k, theta, m, tau_max, seed=303)

    xi = _pooled_xi(tau, norm, tau_max)
    worst = 0.0
    for t in (1, 5, 10, 20):
        worst = max(worst, abs(xi[t - 1] / variance_factors(t, m, theta).xi - 1.0))

    scale = np.array(
        [math.sqrt(variance_factors(t, m, theta).a_star / (1 + theta**2)) for t in range(1, tau_max + 1)]
    )
    counts = np.bincount(sidx)
    starts_idx = np.concatenate(([0], np.cumsum(counts)))[:-1]
    rng = make_rng(404)
    pick = starts_idx + rng.integers(0, counts)
    eps = norm[pick] / scale[tau[pick] - 1]
    ks_p = st.kstest(eps, st.t(df=m - 1).cdf).pvalue

    elapsed = time.time() - start
    ok = ks_p > 0.01 and worst <= 0.10 and elapsed < 300
    _report(
        3, ok,
        f"KS p={ks_p:.3f} (n={eps.size}) vs t({m - 1}); "
        f"max |rel dev| of analytic curve {worst:.3%} at m={m}; {elapsed:.1f}s",
    )
    assert ks_p > 0.01
    assert worst <= 0.10
    assert elapsed < 300


def test_acceptance_04_student_collapse_universality():
    # two corpora with very different (mu, K); T = m + 2 gives exactly one
    # independent record per series, so the pooled eps* samples are IID
    m = 5
    n_series = 50_000
    samples = []
    for seed, (mu, k) in [(505, (-0.5, 0.24)), (606, (-0.02, 0.02))]:
        _, tau, norm = _ensemble_errors(n_series, m + 2, mu, k, 0.0, m, 5, seed=seed)
        assert tau.size == n_series
        samples.append(norm / math.sqrt(variance_factors(1, m, 0.0).a))
    p = st.ks_2samp(samples[0], samples[1]).pvalue
    ok = p > 0.01
    _report(4, ok, f"two-sample KS p={p:.3f} on {n_series} records per corpus")
    assert p > 0.01


def test_acceptance_05_theta_recovery_by_matching():
    # recover theta = 0.4 from a surrogate corpus with the bundled corpus
    # length/parameter profile; the template is replicated tenfold so the
    # observed curve's own sampling noise does not dominate the estimate
    start = time.time()
    template = cw.corpus_template(cw.load_reference_params(improving_only=True)) * 10
    config = cw.SurrogateConfig(
        replications=300, theta=0.0, m=5, tau_max=20, seed=707, template=template
    )
    truth_cfg = cw.SurrogateConfig(
        replications=1, theta=0.4, m=5, tau_max=20, seed=810, template=template
    )
    sidx, tau, norm = replication_errors(truth_cfg, derive_rng(810, 0))
    observed = xi_from_errors(sidx, tau, norm, truth_cfg)
    curve = cw.ErrorGrowthCurve(
        taus=np.arange(1, 21),
        xi=observed,
        n_forecasts=np.bincount(tau - 1, minlength=20),
        n_technologies=np.ones(20, dtype=np.int64),
        weighting="pooled",
    )
    result = cw.estimate_theta_matched(curve, config, np.arange(0.0, 0.801, 0.05))
    elapsed = time.time() - start
    ok = 0.3 <= result.theta_m <= 0.5 and elapsed < 600
    _report(5, ok, f"theta_m={result.theta_m:.2f} from true 0.4, {elapsed:.0f}s")
    assert 0.3 <= result.theta_m <= 0.5
    assert elapsed < 600


def test_acceptance_06_solar_exceedance_probability():
    est = cw.RwdEstimate(mu_hat=-0.10, k_hat=0.15, m=33, origin_index=33)
    forecast = cw.distributional_forecast(est, math.log(0.82), 17, 0.63)
    p = forecast.prob_exceeds(math.log(0.82))
    ok = abs(p - 0.05) <= 0.01
    _report(6, ok, f"P(2030 cost >= 2013 cost) = {p:.4f} (target 0.05 +- 0.01)")
    assert abs(p - 0.05) <= 0.01


def test_acceptance_07_crossing_point():
    solar = cw.TechState(math.log(0.82), -0.10, 0.15, 33)
    roots = []
    for k_b in (0.05, 0.15, 0.30):
        competitor = cw.TechState(math.log(0.82 / 3.0), 0.0, k_b, 33)
        spec = cw.CrossingSpec(solar, competitor, theta=0.63)
        roots.append(cw.even_odds_horizon(spec, 1.0, 40.0))
    spread = max(roots) - min(roots)
    ok = all(abs(r - 11.0) <= 0.5 for r in roots) and spread < 1e-6
    _report(7, ok, f"even-odds horizons {[f'{r:.3f}' for r in roots]}, spread {spread:.1e}")
    assert all(abs(r - 11.0) <= 0.5 for r in roots)
    assert spread < 1e-6


def test_acceptance_08_deterministic_trend_crossing():
    years = cw.deterministic_trend_crossing(0.0022, 1.425, 0.2, 1.026)
    ok = abs(years - 13.7) <= 0.1
    _report(8, ok, f"crossing in {years:.2f} years (target 13.7 +- 0.1)")
    assert abs(years - 13.7) <= 0.1


def test_acceptance_09_crossing_probability_monte_carlo():
    start = time.time()
    rng = make_rng(909)
    n = 1_000_000
    failures = []
    for i in range(20):
        m = int(rng.integers(4, 40))
        theta = float(rng.uniform(0.0, 0.9))
        a = cw.TechState(
            float(rng.normal(0, 1)), float(rng.uniform(-0.3, 0.05)), float(rng.uniform(0.01, 0.3)), m
        )
        b = cw.TechState(
            float(rng.normal(0, 1)), float(rng.uniform(-0.3, 0.05)), float(rng.uniform(0.01, 0.3)), m
        )
        spec = cw.CrossingSpec(a, b, theta=theta)
        tau = int(rng.integers(1, 20))
        analytic = cw.crossing_probability(spec, tau)
        scale = math.sqrt(variance_factors(tau, m, theta).a_star / (1 + theta**2))
        ya = a.current_log_cost + a.mu * tau + a.k * scale * rng.standard_normal(n)
        yb = b.current_log_cost + b.mu * tau + b.k * scale * rng.standard_normal(n)
        mc = float(np.mean(ya < yb))
        se = math.sqrt(max(analytic * (1 - analytic), 0.0) / n)
        if abs(mc - analytic) > 3 * se + 2.0 / n:
            failures.append((i, analytic, mc))
    elapsed = time.time() - start
    ok = not failures and elapsed < 60
    _report(9, ok, f"20 random specs vs {n}-draw Monte Carlo, failures: {failures}, {elapsed:.0f}s")
    assert not failures
    assert elapsed < 60


CORPUS_ENV = "COSTWALK_CORPUS"


@pytest.mark.skipif(CORPUS_ENV not in os.environ, reason="historical cost corpus not supplied")
def test_acceptance_10_historical_corpus():
    corpus = cw.ingest_csv(os.environ[CORPUS_ENV])
    improving, excluded = cw.select_improving(corpus, alpha=0.10)
    checks = {}
    checks["split"] = (len(improving), len(excluded)) == (53, 13)

    unrestricted = hindcast_corpus(improving, 5).records
    capped = hindcast_corpus(improving, 5, tau_max=20).records
    checks["counts"] = (len(unrestricted), len(capped)) == (8212, 6391)

    summaries = cw.summarize_corpus(improving)
    reg = cw.mu_k_regression(summaries)
    checks["mu_k"] = (
        abs(reg.linear.intercept - 0.02) <= 0.008
        and abs(reg.linear.slope + 0.76) <= 0.04
        and abs(reg.linear.r_squared - 0.87) <= 0.02
    )

    tw = cw.estimate_theta_weighted(summaries, capped, tau_max=20)
    checks["theta_w"] = abs(tw.theta_w - 0.25) <= 0.02

    template = cw.corpus_template(summaries)
    curve = error_growth(capped)
    match_cfg = cw.SurrogateConfig(
        replications=300, theta=0.0, m=5, tau_max=20, seed=1010, template=template
    )
    tm = cw.estimate_theta_matched(curve, match_cfg, np.arange(0.0, 0.901, 0.01))
    checks["theta_m"] = abs(tm.theta_m - 0.63) <= 0.05

    dev_cfg = cw.SurrogateConfig(
        replications=2000, theta=tm.theta_m, m=5, tau_max=20, seed=1111, template=template
    )
    accept = cw.distribution_deviation_test(capped, dev_cfg)
    dev_cfg_w = cw.SurrogateConfig(
        replications=2000, theta=tw.theta_w, m=5, tau_max=20, seed=1212, template=template
    )
    reject = cw.distribution_deviation_test(capped, dev_cfg_w)
    checks["deviation"] = bool(np.all(accept.p_raw > 0.05) and np.all(reject.p_raw < 0.05))

    ok = all(checks.values())
    _report(10, ok, f"historical corpus checks: {checks}")
    assert all(checks.values()), checks
