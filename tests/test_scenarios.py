"""Crossing probabilities, technology forecasts, deterministic trend races."""

import math

import numpy as np
import pytest

from costwalk import (
    CrossingSpec,
    NoCrossingError,
    TechState,
    crossing_probability,
    deterministic_trend_crossing,
    even_odds_horizon,
    forecast_technology,
    make_rng,
    simulate_rwd,
    variance_factors,
)
from costwalk.series import TechnologySeries


def _solar_vs_flat(k_b=0.15, theta=0.63, m=33):
    solar = TechState(math.log(0.82), -0.10, 0.15, m)
    flat = TechState(math.log(0.82 / 3.0), 0.0, k_b, m)
    return CrossingSpec(tech_a=solar, tech_b=flat, theta=theta)


class TestCrossingProbability:
    def test_equal_processes_give_half(self):
        a = TechState(0.0, -0.1, 0.2, 10)
        spec = CrossingSpec(a, a, theta=0.0)
        for tau in (1, 5, 20):
            assert crossing_probability(spec, tau) == 0.5

    def test_zero_noise_degenerates_to_indicator(self):
        a = TechState(0.0, -0.1, 0.0, 10)
        b = TechState(0.5, 0.0, 0.0, 10)
        spec = CrossingSpec(a, b, theta=0.0)
        assert crossing_probability(spec, 1) == 1.0  # b costs more: a is cheaper
        flipped = CrossingSpec(b, a, theta=0.0)
        assert crossing_probability(flipped, 1) == 0.0
        same = CrossingSpec(a, TechState(0.0 - 0.1, -0.0, 0.0, 10), theta=0.0)
        # drift closes the gap exactly at tau = 1
        assert crossing_probability(same, 1) == 0.5

    def test_even_odds_horizon_matches_drift_root(self):
        # ln(3)/0.1 ~ 10.99: the cheaper-but-flat competitor is overtaken there
        for k_b in (0.05, 0.15, 0.30):
            spec = _solar_vs_flat(k_b=k_b)
            assert even_odds_horizon(spec, 1, 40) == pytest.approx(math.log(3) / 0.1, abs=1e-6)

    def test_even_odds_horizon_ignores_noise_and_theta_and_m(self):
        roots = [
            even_odds_horizon(_solar_vs_flat(k_b=k, theta=th, m=m), 1, 40)
            for k in (0.01, 0.3)
            for th in (0.0, 0.63)
            for m in (5, 33)
        ]
        assert np.ptp(roots) < 1e-6

    def test_probability_rises_with_horizon(self):
        spec = _solar_vs_flat()
        values = [crossing_probability(spec, t) for t in range(1, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_shift_invariance(self):
        spec = _solar_vs_flat()
        shifted = CrossingSpec(
            TechState(spec.tech_a.current_log_cost + 3.0, -0.10, 0.15, 33),
            TechState(spec.tech_b.current_log_cost + 3.0, 0.0, 0.15, 33),
            theta=0.63,
        )
        for tau in (1, 7, 19):
            assert crossing_probability(spec, tau) == pytest.approx(
                crossing_probability(shifted, tau), abs=1e-12
            )

    def test_monte_carlo_oracle(self):
        rng = make_rng(99)
        for _ in range(3):
            m = int(rng.integers(5, 40))
            theta = float(rng.uniform(0.0, 0.9))
            a = TechState(float(rng.normal()), float(rng.uniform(-0.3, 0.0)), float(rng.uniform(0.01, 0.3)), m)
            b = TechState(float(rng.normal()), float(rng.uniform(-0.3, 0.0)), float(rng.uniform(0.01, 0.3)), m)
            spec = CrossingSpec(a, b, theta=theta)
            tau = int(rng.integers(1, 15))
            analytic = crossing_probability(spec, tau)
            factors = variance_factors(tau, m, theta)
            scale = math.sqrt(factors.a_star / (1 + theta**2))
            n = 200_000
            ya = a.current_log_cost + a.mu * tau + a.k * scale * rng.standard_normal(n)
            yb = b.current_log_cost + b.mu * tau + b.k * scale * rng.standard_normal(n)
            mc = float(np.mean(ya < yb))
            se = math.sqrt(max(analytic * (1 - analytic), 1e-12) / n)
            assert abs(mc - analytic) <= 4 * se + 1e-9

    def test_window_mismatch_rejected(self):
        with pytest.raises(ValueError, match="window"):
            CrossingSpec(TechState(0, -0.1, 0.1, 5), TechState(0, 0.0, 0.1, 6), theta=0.0)

    def test_no_crossing_raises(self):
        a = TechState(0.0, 0.0, 0.1, 10)
        b = TechState(1.0, 0.0, 0.1, 10)  # B stays dearer: p > 0.5 everywhere
        with pytest.raises(NoCrossingError):
            even_odds_horizon(CrossingSpec(a, b, 0.0), 1, 50)

    def test_even_odds_horizon_range_edges(self):
        a = TechState(2.0, -0.5, 0.1, 10)
        b = TechState(0.0, 0.0, 0.2, 10)
        spec = CrossingSpec(a, b, 0.3)  # mu_Z = -2 + 0.5*tau, zero at tau = 4 exactly
        assert even_odds_horizon(spec, 1, 4) == 4.0
        assert even_odds_horizon(spec, 4, 9) == 4.0
        assert crossing_probability(spec, 4.0) == 0.5
        # equal costs and drifts: even odds at every horizon, so the range's start
        assert even_odds_horizon(CrossingSpec(a, a, 0.3), 2.5, 9) == 2.5
        for tau_lo, tau_hi in ((1, 3.99), (4.01, 9)):  # the root outside the range
            with pytest.raises(NoCrossingError):
                even_odds_horizon(spec, tau_lo, tau_hi)
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            even_odds_horizon(spec, 0.5, 9)


class TestForecastTechnology:
    def test_full_window_estimates(self):
        rng = make_rng(5)
        series = simulate_rwd(-0.1, 0.15, 34, rng, name="pv")
        forecasts = forecast_technology(series, tau_max=17, theta=0.63)
        assert len(forecasts) == 17
        mu_hat = (series.log_costs[-1] - series.log_costs[0]) / 33
        assert forecasts[0].mean_log == pytest.approx(series.log_costs[-1] + mu_hat, rel=1e-12)
        assert forecasts[16].df == 32
        widths = [f.quantile(0.95) - f.quantile(0.05) for f in forecasts]
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_integer_window(self):
        rng = make_rng(6)
        series = simulate_rwd(-0.1, 0.15, 34, rng)
        forecasts = forecast_technology(series, tau_max=5, theta=0.0, m=10)
        mu_hat = (series.log_costs[-1] - series.log_costs[-11]) / 10
        assert forecasts[0].mean_log == pytest.approx(series.log_costs[-1] + mu_hat, rel=1e-12)

    def test_window_too_large(self):
        series = simulate_rwd(-0.1, 0.15, 10, make_rng(7))
        with pytest.raises(ValueError):
            forecast_technology(series, tau_max=5, theta=0.0, m=10)

    def test_zero_volatility_bands_collapse(self):
        y = -0.125 * np.arange(12.0)
        series = TechnologySeries("line", np.arange(12) + 2000, y)
        forecasts = forecast_technology(series, tau_max=4, theta=0.0)
        for tau, f in enumerate(forecasts, start=1):
            assert f.sd_log == 0.0
            assert f.quantile(0.05) == f.quantile(0.95) == f.mean_log
            assert f.mean_log == pytest.approx(y[-1] - 0.125 * tau, abs=1e-12)


class TestDeterministicTrendCrossing:
    def test_reference_numbers(self):
        years = deterministic_trend_crossing(0.0022, 1.425, 0.2, 1.026)
        assert years == pytest.approx(13.7, abs=0.1)

    def test_equal_levels_cross_now(self):
        assert deterministic_trend_crossing(0.2, 1.4, 0.2, 1.0) == 0.0

    def test_static_leader_reduction(self):
        got = deterministic_trend_crossing(0.01, 1.5, 0.3, 1.0)
        assert got == pytest.approx(math.log(30.0) / math.log(1.5), rel=1e-12)

    def test_no_crossing(self):
        with pytest.raises(NoCrossingError):
            deterministic_trend_crossing(0.01, 1.02, 0.3, 1.05)

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            deterministic_trend_crossing(-0.01, 1.4, 0.3, 1.0)
        with pytest.raises(ValueError):
            deterministic_trend_crossing(0.4, 1.4, 0.3, 1.02)
