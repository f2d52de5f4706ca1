"""Variance factors, error rescaling, and distributional forecasts."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.stats as st

from costwalk import (
    RwdEstimate,
    distributional_forecast,
    make_rng,
    variance_factors,
)
from costwalk import forecast
from costwalk._kernels import corpus_norm_errors
from costwalk.forecast import rescale_scale
from costwalk.stats import student_t_quantile
from reference import a_star_expanded


def _est(mu=-0.1, k=0.15, m=5):
    return RwdEstimate(mu_hat=mu, k_hat=k, m=m, origin_index=m)


class TestPointForecast:
    def test_linear_in_horizon(self):
        got = distributional_forecast(_est(mu=-0.1), 0.0, 10, theta=0.0).mean_log
        assert got == pytest.approx(-1.0, abs=1e-15)

    def test_solar_parameters(self):
        got = distributional_forecast(_est(mu=-0.10, m=33), math.log(0.82), 17, theta=0.0).mean_log
        assert got == pytest.approx(math.log(0.82) - 1.7, abs=1e-12)


class TestVarianceFactors:
    def test_basic_arithmetic(self):
        vf = variance_factors(1, 5, 0.0)
        assert vf.a == pytest.approx(1.2, abs=1e-15)
        assert vf.a_star == vf.a
        assert vf.xi == pytest.approx(2.4, abs=1e-12)

    def test_long_horizon(self):
        vf = variance_factors(20, 5, 0.0)
        assert vf.a == pytest.approx(100.0, abs=1e-12)
        assert vf.xi == pytest.approx(200.0, abs=1e-12)

    def test_expanded_value(self):
        # hand expansion: 0.01 + 0.36 + 0.09 + 0 + 1 = 1.46
        assert a_star_expanded(1, 5, 0.5) == pytest.approx(1.46, abs=1e-12)
        assert variance_factors(1, 5, 0.5).a_star == pytest.approx(1.46, abs=1e-12)

    def test_theta_zero_reduces_exactly(self):
        for tau in (1, 7, 73):
            for m in (4, 12, 100):
                vf = variance_factors(tau, m, 0.0)
                assert vf.a_star == vf.a == tau + tau**2 / m

    def test_identity_on_random_grid(self):
        rng = make_rng(314)
        for _ in range(1000):
            tau = float(rng.uniform(1, 73))
            m = int(rng.integers(4, 101))
            theta = float(rng.uniform(-0.99, 0.99))
            simplified = variance_factors(tau, m, theta).a_star
            expanded = a_star_expanded(tau, m, theta)
            assert abs(simplified - expanded) <= 1e-10 * abs(expanded)

    def test_small_window_rejected(self):
        with pytest.raises(ValueError, match="prefactor"):
            variance_factors(5, 3, 0.0)

    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            variance_factors(5, 10, 1.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.5])
    def test_horizon_must_be_finite_and_at_least_one(self, tau):
        with pytest.raises(ValueError, match="horizon must be >= 1 and finite"):
            variance_factors(tau, 5, 0.0)
        with pytest.raises(ValueError, match="horizon must be >= 1 and finite"):
            distributional_forecast(_est(), 0.0, tau, 0.0)

    def test_a_star_increasing_in_tau(self):
        for theta in (0.0, 0.3, 0.63):
            values = [variance_factors(t, 8, theta).a_star for t in range(1, 40)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_xi_decreasing_in_m(self):
        for theta in (0.0, 0.63):
            for tau in (1, 5, 20):
                values = [variance_factors(tau, m, theta).xi for m in range(4, 60)]
                assert all(b < a for a, b in zip(values, values[1:]))

    def test_a_star_increasing_in_theta_beyond_horizon_one(self):
        # underpins the ECDF contraction of pooled rescaled errors; holds for
        # tau >= 2 only (see the companion test for the tau = 1 exception)
        for tau in (2, 5, 20):
            for m in (4, 10, 33):
                values = [variance_factors(tau, m, th).a_star for th in np.linspace(0, 0.99, 34)]
                assert all(b > a for a, b in zip(values, values[1:]))

    def test_a_star_dips_in_theta_at_horizon_one(self):
        # at tau = 1, dA*/dtheta(0) = -2/m^2 < 0: positive correlation makes a
        # slice of the next shock predictable, so A* is NOT monotone in theta
        for m in (4, 5, 33):
            assert variance_factors(1, m, 1e-3).a_star < variance_factors(1, m, 0.0).a_star


class TestErrorRescaling:
    def test_theta_zero_divides_by_sqrt_a(self):
        vf = variance_factors(4, 7, 0.0)
        assert rescale_scale(vf) == math.sqrt(vf.a)

    def test_student_collapse_iid_design(self):
        # one record per series (T = m + 2) makes the pooled eps* sample IID;
        # for the pure random walk the collapse to t(m-1) is exact
        m, n_series = 5, 50_000
        lengths = np.full(n_series, m + 2, dtype=np.int64)
        rng = make_rng(777)
        # at theta = 0 the increments are v[1:], so a drift of -0.1 rides in v
        v = -0.1 + 0.15 * rng.standard_normal(int(lengths.sum()))
        _, tau, norm, _ = corpus_norm_errors(lengths, 0.0, v, m, 50)
        assert np.all(tau == 1)
        eps = norm / math.sqrt(variance_factors(1, m, 0.0).a)
        assert st.kstest(eps, st.t(df=m - 1).cdf).pvalue > 0.01

    @pytest.mark.parametrize("tau", [1, 5, 20])
    def test_collapse_universality_across_parameters(self, tau):
        # same design, two very different (mu, K) pairs: eps* samples at a
        # fixed horizon must be indistinguishable
        m, n_series = 5, 20_000
        samples = []
        for seed, (mu, k) in enumerate([(-0.5, 0.24), (-0.02, 0.02)]):
            T = m + 1 + tau  # exactly one record at this horizon per series
            lengths = np.full(n_series, T, dtype=np.int64)
            rng = make_rng(1000 + seed)
            v = mu + k * rng.standard_normal(int(lengths.sum()))  # the drift rides in v
            _, taus, norm, _ = corpus_norm_errors(lengths, 0.0, v, m, tau)
            eps = norm[taus == tau] / math.sqrt(variance_factors(tau, m, 0.0).a)
            assert eps.size == n_series
            samples.append(eps)
        assert st.ks_2samp(samples[0], samples[1]).pvalue > 0.01

    def test_error_variance_decomposition(self):
        # known mu: error is the accumulated noise, variance tau*K^2;
        # estimated mu adds tau^2/m of estimation noise: variance K^2*(tau+tau^2/m)
        mu, k, m, tau, reps = 0.02, 0.1, 30, 5, 200_000
        rng = make_rng(2718)
        window = mu + k * rng.standard_normal((reps, m))
        future = mu + k * rng.standard_normal((reps, tau))
        known_mu_error = future.sum(axis=1) - mu * tau
        mu_hat = window.mean(axis=1)
        estimated_mu_error = future.sum(axis=1) - mu_hat * tau
        se = math.sqrt(2.0 / (reps - 1))  # relative sampling error of a variance
        assert known_mu_error.var(ddof=1) == pytest.approx(tau * k**2, rel=3 * se)
        target = k**2 * (tau + tau**2 / m)
        assert estimated_mu_error.var(ddof=1) == pytest.approx(target, rel=3 * se)


class TestDistributionalForecast:
    def _solar(self):
        est = RwdEstimate(mu_hat=-0.10, k_hat=0.15, m=33, origin_index=33)
        return distributional_forecast(est, math.log(0.82), 17, 0.63)

    def test_solar_exceedance_probability(self):
        # probability the 2030 cost is at least the 2013 cost: about 5%
        fc = self._solar()
        p = fc.prob_exceeds(math.log(0.82))
        assert p == pytest.approx(0.0498, abs=5e-4)

    def test_median_is_point_forecast(self):
        fc = self._solar()
        assert fc.quantile(0.5) == fc.mean_log
        assert fc.median_cost == math.exp(fc.mean_log)

    def test_quantiles_symmetric(self):
        fc = self._solar()
        for p in (0.05, 0.16, 0.25):
            lo, hi = fc.quantile(p), fc.quantile(1 - p)
            assert lo + hi == pytest.approx(2 * fc.mean_log, abs=1e-7)

    def test_memoized_quantiles_keep_their_bits(self):
        forecast._standard_t_quantile.cache_clear()
        est = RwdEstimate(mu_hat=-0.1, k_hat=0.15, m=9, origin_index=9)
        for df in (8, 8.0, np.int64(8)):  # equal keys share one entry, and so one value
            fc = dataclasses.replace(distributional_forecast(est, 0.0, 7, 0.3), df=df)
            for p in (0.05, 0.16, 0.5, 0.84, 0.95, 0.3):
                assert fc.quantile(p) == fc.mean_log + fc.sd_log * student_t_quantile(p, df)
        assert forecast._standard_t_quantile.cache_info().misses == 6

    def test_zero_volatility_point_mass(self):
        est = RwdEstimate(mu_hat=-0.1, k_hat=0.0, m=10, origin_index=10)
        fc = distributional_forecast(est, 0.0, 5, 0.0)
        assert fc.sd_log == 0.0
        for p in (0.01, 0.5, 0.99):
            assert fc.quantile(p) == fc.mean_log
        assert fc.prob_exceeds(fc.mean_log - 1.0) == 1.0
        assert fc.prob_exceeds(fc.mean_log + 1.0) == 0.0
        assert fc.prob_exceeds(fc.mean_log) == 0.5

    def test_record_serializes_to_json(self):
        rec = self._solar().as_record("Photovoltaics", 2013)
        payload = json.loads(json.dumps(rec))
        assert payload["technology"] == "Photovoltaics"
        assert payload["origin_year"] == 2013
        assert set(payload["quantiles"]) == {"p05", "p16", "p50", "p84", "p95"}
        assert payload["median_cost"] == pytest.approx(math.exp(rec["mean_log"]))
