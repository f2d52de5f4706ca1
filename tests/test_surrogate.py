"""Surrogate Monte Carlo machinery: bands, deviation tests, theta estimation."""

import dataclasses
import hashlib
import inspect
import math
import warnings

import numpy as np
import pytest

from costwalk import (
    SeriesSummary,
    SurrogateConfig,
    corpus_template,
    distribution_deviation_test,
    error_growth,
    estimate_theta_matched,
    estimate_theta_weighted,
    hindcast_corpus,
    load_reference_params,
    null_xi_band,
    robustness_suite,
    surrogate_corpus,
    theta_forecast_sweep,
    validation_nulls,
    variance_factors,
)
from costwalk import _kernels, surrogate
from costwalk.hindcast import ErrorGrowthCurve, _rescale_divisors
from costwalk.models import ImaParams
from costwalk.stats import derive_rng, make_rng, student_t_cdf

from reference import replication_errors, simulate_ima, xi_from_errors

REFERENCE_TEMPLATE = corpus_template(load_reference_params(improving_only=True))
SMALL_TEMPLATE = tuple((int(T), -0.08, 0.06) for T in (12, 14, 16, 18, 20, 15, 13, 17))


def _analytic_curve(m, theta, tau_max):
    taus = np.arange(1, tau_max + 1)
    xi = np.array([variance_factors(int(t), m, theta).xi for t in taus])
    return ErrorGrowthCurve(
        taus=taus,
        xi=xi,
        n_forecasts=np.ones(tau_max, dtype=np.int64),
        n_technologies=np.ones(tau_max, dtype=np.int64),
        weighting="pooled",
        m=m,
    )


class TestSurrogateConfig:
    def test_validation(self):
        ok = dict(replications=10, theta=0.0, m=5, tau_max=20, seed=1, template=SMALL_TEMPLATE)
        SurrogateConfig(**ok)
        with pytest.raises(ValueError):
            SurrogateConfig(**{**ok, "replications": 0})
        with pytest.raises(ValueError):
            SurrogateConfig(**{**ok, "template": ()})
        with pytest.raises(ValueError):
            SurrogateConfig(**{**ok, "m": 3})
        with pytest.raises(ValueError):
            SurrogateConfig(**{**ok, "student_df": 2.0})
        with pytest.raises(ValueError):
            SurrogateConfig(**{**ok, "student_df": 3, "theta": 0.5})
        with pytest.raises(ValueError):
            SurrogateConfig(**{**ok, "weighting": "mean"})
        with pytest.raises(ValueError, match="tau_max must be >= 1"):
            SurrogateConfig(**{**ok, "tau_max": 0})

    @pytest.mark.parametrize("df", [math.nan, math.inf, -math.inf, 2.0, 1.5])
    def test_student_df_must_be_finite_and_above_two(self, df):
        ok = dict(replications=10, theta=0.0, m=5, tau_max=20, seed=1, template=SMALL_TEMPLATE)
        with pytest.raises(ValueError, match="student_df"):
            SurrogateConfig(**ok, student_df=df)
        corpus = surrogate_corpus(SurrogateConfig(**ok), derive_rng(1, 0))
        with pytest.raises(ValueError, match="student_df"):
            robustness_suite(corpus, replications=2, fat_tail_dfs=[df], template=SMALL_TEMPLATE)

    def test_counts_must_be_whole_numbers(self):
        ok = dict(replications=10, theta=0.0, m=5, tau_max=20, seed=1, template=SMALL_TEMPLATE)
        for field, value in (("m", 5.5), ("tau_max", 20.5), ("replications", 10.5)):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SurrogateConfig(**{**ok, field: value})
        whole = SurrogateConfig(**{**ok, "m": 5.0, "tau_max": np.int64(20), "replications": 10.0})
        assert [type(v) for v in (whole.replications, whole.m, whole.tau_max)] == [int] * 3

    def test_seed_must_be_a_whole_number_of_at_least_zero(self):
        # a bad seed used to build a config whose first draw failed in SeedSequence
        ok = dict(replications=10, theta=0.0, m=5, tau_max=20, template=SMALL_TEMPLATE)
        for seed in (1.5, "3", None):
            with pytest.raises(ValueError, match="seed must be an integer"):
                SurrogateConfig(**ok, seed=seed)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            SurrogateConfig(**ok, seed=-1)
        for seed in (np.int64(3), 3.0):
            whole = SurrogateConfig(**ok, seed=seed)
            assert type(whole.seed) is int and whole == SurrogateConfig(**ok, seed=3)

    def test_template_lengths_must_be_whole_numbers_of_at_least_two(self):
        # the engine and surrogate_corpus must accept the same templates
        ok = dict(replications=1, theta=0.0, m=5, tau_max=20, seed=1)
        with pytest.raises(ValueError, match="template length must be an integer"):
            SurrogateConfig(**ok, template=((20.7, -0.1, 0.2), (12, -0.1, 0.2)))
        for short in (0, 1):
            with pytest.raises(ValueError, match="at least 2 points"):
                SurrogateConfig(**ok, template=((20, -0.1, 0.2), (short, -0.1, 0.2)))
        cfg = SurrogateConfig(**ok, template=((20.0, -0.1, 0.2), (np.int64(2), -0.1, 0.2)))
        assert [type(t[0]) for t in cfg.template] == [int, int]
        assert [s.n_obs for s in surrogate_corpus(cfg, derive_rng(1, 0))] == [20, 2]

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(theta=math.nan), "theta"),
            (dict(theta=1.0), "theta"),
            (dict(theta=-1.5), "theta"),
            (dict(template=((20, math.nan, 0.2), (12, -0.1, 0.2))), "finite mu"),
            (dict(template=((20, -math.inf, 0.2), (12, -0.1, 0.2))), "finite mu"),
            (dict(template=((20, -0.1, math.nan), (12, -0.1, 0.2))), "K >= 0"),
            (dict(template=((20, -0.1, math.inf), (12, -0.1, 0.2))), "K >= 0"),
            (dict(template=((20, -0.1, -0.2), (12, -0.1, 0.2))), "K >= 0"),
        ],
    )
    def test_theta_and_template_parameters_must_be_finite(self, change, message):
        # a NaN theta banded all-NaN and a NaN K dropped that series' records
        ok = dict(replications=1, theta=0.0, m=5, tau_max=20, seed=1, template=SMALL_TEMPLATE)
        with pytest.raises(ValueError, match=message):
            SurrogateConfig(**{**ok, **change})
        SurrogateConfig(**{**ok, "template": ((20, -0.1, 0.0), (12, -0.1, 0.2))})  # K = 0 is legal

    def test_template_must_allow_one_hindcast(self):
        # with no series of m + 2 points, the band would be all NaN and the
        # deviation test would reduce an empty array
        ok = dict(replications=10, theta=0.0, m=5, tau_max=20, seed=1)
        SurrogateConfig(**ok, template=((7, -0.1, 0.1), (3, -0.1, 0.1)))
        with pytest.raises(ValueError, match="m \\+ 2 = 7"):
            SurrogateConfig(**ok, template=((6, -0.1, 0.1), (3, -0.1, 0.1)))


class TestSurrogateCorpus:
    def test_lengths_and_parameters_match_template(self):
        cfg = SurrogateConfig(
            replications=1, theta=0.3, m=5, tau_max=20, seed=2, template=SMALL_TEMPLATE
        )
        corpus = surrogate_corpus(cfg, derive_rng(2, 0))
        assert [s.n_obs for s in corpus] == [t[0] for t in SMALL_TEMPLATE]

    def test_student_df_draws_student_noise(self):
        # the degrees of freedom alone pick the Student family, rescaled to sd K
        base = dict(replications=1, theta=0.0, m=5, tau_max=20, seed=2, template=SMALL_TEMPLATE)
        normal = surrogate_corpus(SurrogateConfig(**base), derive_rng(2, 0))
        student = surrogate_corpus(SurrogateConfig(**base, student_df=3.0), derive_rng(2, 0))
        assert not any(a.equals(b) for a, b in zip(normal, student))
        n_obs, mu, k = SMALL_TEMPLATE[0]
        t = derive_rng(2, 0).standard_t(3.0, n_obs)
        expected = mu + k * math.sqrt(1 / 3) * t[1:]
        np.testing.assert_allclose(student[0].diffs(), expected, rtol=1e-12, atol=1e-12)

    def test_theta_zero_nests_plain_random_walk(self):
        cfg = SurrogateConfig(
            replications=1, theta=0.0, m=5, tau_max=20, seed=3, template=((5000, -0.1, 0.2),)
        )
        (series,) = surrogate_corpus(cfg, derive_rng(3, 0))
        d = series.diffs()
        assert d.mean() == pytest.approx(-0.1, abs=4 * 0.2 / math.sqrt(d.size))
        assert d.std(ddof=1) == pytest.approx(0.2, rel=0.05)

    def test_reproducible_from_derived_stream(self):
        cfg = SurrogateConfig(
            replications=1, theta=0.3, m=5, tau_max=20, seed=2, template=SMALL_TEMPLATE
        )
        first = surrogate_corpus(cfg, derive_rng(2, 0))
        second = surrogate_corpus(cfg, derive_rng(2, 0))
        assert all(a.equals(b) for a, b in zip(first, second))

    @pytest.mark.parametrize(
        "copies, digest",
        [
            (1, "862aea2321f06fc8c9aa07cf739fa86e57f67e6db71d074016a5459acc0fdaf1"),
            (10, "fa7ba67730034a3e746c27568450829b41360754b141aae8f949b5e055789b9f"),
        ],
    )
    def test_benchmark_corpora_are_pinned(self, copies, digest):
        # perfbench/workloads.py's build_inputs makes the benchmark's x1 and
        # x10 corpora this way, so these bytes must not move
        cfg = SurrogateConfig(
            replications=1, theta=0.63, m=5, tau_max=20, seed=4242,
            template=REFERENCE_TEMPLATE * copies,
        )
        corpus = surrogate_corpus(cfg, make_rng(4242))
        log_costs = b"".join(s.log_costs.astype(np.float64).tobytes() for s in corpus)
        assert hashlib.sha256(log_costs).hexdigest() == digest

    def test_pooled_drift_estimates_unbiased(self):
        cfg = SurrogateConfig(
            replications=1, theta=0.6, m=5, tau_max=20, seed=4,
            template=tuple((40, -0.05, 0.1) for _ in range(200)),
        )
        corpus = surrogate_corpus(cfg, derive_rng(4, 0))
        drifts = [float(np.mean(s.diffs())) for s in corpus]
        assert np.mean(drifts) == pytest.approx(-0.05, abs=3 * np.std(drifts) / math.sqrt(200))


class TestDeterminism:
    def _ensemble(self):
        cfg = SurrogateConfig(
            replications=60, theta=0.4, m=5, tau_max=15, seed=11, template=SMALL_TEMPLATE
        )
        return null_xi_band(cfg).values

    def test_identical_reruns(self):
        assert np.array_equal(self._ensemble(), self._ensemble(), equal_nan=True)

    def test_pass_size_does_not_change_results(self, monkeypatch):
        default = self._ensemble()
        build = surrogate._build_plan
        for chunk in (1, 7, 60):

            def plan(*key, chunk=chunk):
                return dataclasses.replace(build(*key), chunk=chunk)

            monkeypatch.setattr(surrogate, "_build_plan", plan)
            assert np.array_equal(self._ensemble(), default, equal_nan=True)


class TestNullXiBand:
    def test_nesting_against_analytic_curve(self):
        # at theta = 0 the analytic expectation is exact; the ensemble mean
        # must sit within Monte Carlo noise of it at every horizon
        cfg = SurrogateConfig(
            replications=400, theta=0.0, m=5, tau_max=20, seed=1, template=REFERENCE_TEMPLATE
        )
        values = null_xi_band(cfg).values
        analytic = np.array([variance_factors(t, 5, 0.0).xi for t in range(1, 21)])
        mean = values.mean(axis=0)
        se = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
        assert np.all(np.abs(mean - analytic) <= 4 * se)

    def test_analytic_curve_inside_interquartile_range(self):
        cfg = SurrogateConfig(
            replications=400, theta=0.0, m=5, tau_max=20, seed=1, template=REFERENCE_TEMPLATE
        )
        band = null_xi_band(cfg)
        analytic = np.array([variance_factors(t, 5, 0.0).xi for t in range(1, 21)])
        assert np.all(analytic >= band.quantile(0.25))
        assert np.all(analytic <= band.quantile(0.75))

    def test_null_draws_mostly_inside_95_band(self):
        cfg = SurrogateConfig(
            replications=400, theta=0.0, m=5, tau_max=20, seed=1, template=REFERENCE_TEMPLATE
        )
        band = null_xi_band(cfg)
        lo, hi = band.quantile(0.025), band.quantile(0.975)
        inside = []
        for s in range(10):
            obs = xi_from_errors(*replication_errors(cfg, derive_rng(777, s)), cfg)
            inside.append(np.mean((obs >= lo) & (obs <= hi)))
        # curve draws are correlated across horizons, so individual draws can
        # leave the band wholesale; the average coverage is what must be ~95%
        assert np.mean(inside) >= 0.85

    def test_correlated_corpus_rejected_against_theta_zero_null(self):
        cfg = SurrogateConfig(
            replications=300, theta=0.0, m=5, tau_max=15, seed=21, template=REFERENCE_TEMPLATE
        )
        ima_cfg = SurrogateConfig(
            replications=1, theta=0.63, m=5, tau_max=15, seed=22, template=REFERENCE_TEMPLATE
        )
        observed_records = hindcast_corpus(
            surrogate_corpus(ima_cfg, derive_rng(22, 0)), 5, tau_max=15
        ).records
        band = null_xi_band(cfg, error_growth(observed_records))
        assert np.sum(band.observed > band.quantile(0.975)) >= 12  # most of 15 horizons
        assert np.median(band.p_raw) < 0.03

    def test_p_value_conventions(self):
        cfg = SurrogateConfig(
            replications=99, theta=0.0, m=5, tau_max=10, seed=31, template=SMALL_TEMPLATE
        )
        observed = _analytic_curve(5, 0.0, 10)
        band = null_xi_band(cfg, observed)
        assert np.all(band.p_raw >= 0.0) and np.all(band.p_raw <= 1.0)
        assert np.all(band.p_smoothed > 0.0) and np.all(band.p_smoothed <= 1.0)
        np.testing.assert_allclose(
            band.p_smoothed, (band.p_raw * 99 + 1) / 100, rtol=1e-12
        )

    def test_unobserved_horizons_have_no_p_value(self):
        cfg = SurrogateConfig(
            replications=100, theta=0.0, m=5, tau_max=20, seed=41,
            template=((12, -0.08, 0.06), (14, -0.08, 0.06)),
        )
        records = hindcast_corpus(surrogate_corpus(cfg, derive_rng(42, 0)), 5, tau_max=20).records
        band = null_xi_band(cfg, error_growth(records))
        # the 14-point series reaches tau = 8 at most
        assert np.all(np.isfinite(band.observed[:8])) and np.all(np.isnan(band.observed[8:]))
        for p in (band.p_raw, band.p_smoothed):
            assert np.all((p[:8] >= 0.0) & (p[:8] <= 1.0))
            assert np.all(np.isnan(p[8:]))

    @pytest.mark.parametrize("weighting", ["pooled", "equal-technology"])
    def test_unreachable_horizons_are_nan_without_warnings(self, weighting):
        cfg = SurrogateConfig(
            replications=100, theta=0.0, m=5, tau_max=20, seed=41, weighting=weighting,
            template=((12, -0.08, 0.06), (14, -0.08, 0.06)),
        )
        records = hindcast_corpus(surrogate_corpus(cfg, derive_rng(42, 0)), 5, tau_max=20).records
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            band = null_xi_band(cfg, error_growth(records, weighting=weighting))
            reached = [*band.quantiles.values(), band.p_raw, band.p_smoothed]
        # the 14-point series reaches tau = 8 at most
        for values in reached:
            assert np.all(np.isfinite(values[:8])) and np.all(np.isnan(values[8:]))

    @pytest.mark.parametrize(
        "mismatch, message",
        [(dict(weighting="equal-technology"), "weighting"), (dict(m=6), "window")],
    )
    def test_curve_must_match_config(self, mismatch, message):
        cfg = SurrogateConfig(
            replications=100, theta=0.0, m=5, tau_max=10, seed=1, template=SMALL_TEMPLATE
        )
        curve = dataclasses.replace(_analytic_curve(5, 0.0, 10), **mismatch)
        with pytest.raises(ValueError, match=message):
            null_xi_band(cfg, curve)
        with pytest.raises(ValueError, match=message):
            estimate_theta_matched(curve, cfg, [0.0, 0.2])

    def test_few_replications_warn(self):
        cfg = SurrogateConfig(
            replications=5, theta=0.0, m=5, tau_max=5, seed=1, template=SMALL_TEMPLATE
        )
        with pytest.warns(UserWarning, match="replications"):
            null_xi_band(cfg)

    def test_few_replications_warning_points_at_the_caller(self):
        cfg = SurrogateConfig(
            replications=5, theta=0.0, m=5, tau_max=5, seed=1, template=SMALL_TEMPLATE
        )
        records = hindcast_corpus(surrogate_corpus(cfg, derive_rng(1, 0)), 5, tau_max=5).records
        with pytest.warns(UserWarning, match="replications") as band:
            band_line = inspect.currentframe().f_lineno + 1
            null_xi_band(cfg)
        with pytest.warns(UserWarning, match="replications") as joint:
            joint_line = inspect.currentframe().f_lineno + 1
            validation_nulls(cfg, error_growth(records), records)
        assert [(w.filename, w.lineno) for w in band] == [(__file__, band_line)]
        assert [(w.filename, w.lineno) for w in joint] == [(__file__, joint_line)]


def _ensembles(seed, count=150):
    """Seeded (replications, horizons) ensembles shaped like a Xi band: ties,
    scattered NaN, all-NaN columns and single rows."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        rows, columns = (1 if k % 10 == 0 else int(rng.integers(2, 61))), int(rng.integers(1, 8))
        values = rng.gamma(2.0, size=(rows, columns))
        if rng.random() < 0.5:
            values = np.round(values, 1)  # ties
        values[rng.random((rows, columns)) < 0.3] = np.nan  # a horizon some trials miss
        if rng.random() < 0.3:
            values[:, rng.integers(columns)] = np.nan  # a horizon no trial reaches
        yield values


class TestNullEnsembleQuantile:
    @pytest.mark.parametrize("seed", [170, 171, 172])
    @pytest.mark.parametrize("q", [0.0, 0.025, 0.5, 0.975, 1.0])
    def test_equals_nanquantile(self, seed, q):
        for values in _ensembles(seed):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "All-NaN slice", RuntimeWarning)
                expected = np.nanquantile(values, q, axis=0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = surrogate.NullEnsemble(statistic="xi", values=values).quantile(q)
            np.testing.assert_array_equal(got, expected)  # NaN in the same places
            assert got.tobytes() == expected.tobytes()  # non-negative: no zero of either sign
            signed = surrogate.NullEnsemble(statistic="xi", values=values - 2.0).quantile(q)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "All-NaN slice", RuntimeWarning)
                np.testing.assert_array_equal(signed, np.nanquantile(values - 2.0, q, axis=0))

    @pytest.mark.parametrize("q", [-0.1, 1.1, math.nan])
    def test_outside_unit_interval_rejected(self, q):
        band = surrogate.NullEnsemble(statistic="xi", values=np.ones((3, 2)))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            band.quantile(q)


class TestDeviationTest:
    def test_null_calibration(self):
        # p-values on data drawn from the null should stay away from 0 and 1
        inside = 0
        total = 0
        for meta in range(15):
            cfg = SurrogateConfig(
                replications=120, theta=0.0, m=5, tau_max=15, seed=5000 + meta,
                template=SMALL_TEMPLATE,
            )
            corpus = surrogate_corpus(cfg, derive_rng(12345, meta))
            records = hindcast_corpus(corpus, 5, tau_max=15).records
            dev = distribution_deviation_test(records, cfg)
            inside += int(np.sum((dev.p_raw >= 0.01) & (dev.p_raw <= 0.99)))
            total += 3
        assert inside >= int(0.95 * total)

    def test_wrong_theta_detected(self):
        # errors generated with strong correlation but rescaled as if theta=0
        # must look far from Student relative to the theta=0 null
        cfg = SurrogateConfig(
            replications=200, theta=0.0, m=5, tau_max=15, seed=61, template=REFERENCE_TEMPLATE
        )
        ima_cfg = SurrogateConfig(
            replications=1, theta=0.7, m=5, tau_max=15, seed=62, template=REFERENCE_TEMPLATE
        )
        records = hindcast_corpus(
            surrogate_corpus(ima_cfg, derive_rng(62, 0)), 5, tau_max=15
        ).records
        dev = distribution_deviation_test(records, cfg)
        assert np.all(dev.p_raw[:2] <= 0.02)  # sum|d| and sum d^2 measures

    def test_pass_rows_equal_one_row_measures(self):
        # a pass reduces its rows in whole-pass array calls; each row must keep
        # the bits of the measures taken on that row alone
        cfg = SurrogateConfig(
            replications=3, theta=0.63, m=5, tau_max=20, seed=17, template=REFERENCE_TEMPLATE
        )
        plan = surrogate._engine_plan(cfg)
        innovations = np.array([surrogate._innovations(cfg, derive_rng(17, 1, r)) for r in range(3)])
        work = _kernels._Workspace(plan, 3)
        norm, _ = _kernels._walk_errors(plan, cfg.theta, cfg.m, innovations, work)
        eps = norm / _rescale_divisors(plan.tau, 5, 0.63)
        grid = surrogate._t_cdf_grid(4)
        rows = surrogate._deviation_stats(eps, grid)
        assert rows.shape == (3, len(surrogate.DEVIATION_STATISTICS))
        for row, e in zip(rows, eps):
            ecdf = np.searchsorted(np.sort(e), surrogate.DEVIATION_GRID, side="right") / e.size
            delta = ecdf - grid
            one_row = np.array([np.abs(delta).sum(), (delta**2).sum(), delta.max()])
            assert row.tobytes() == one_row.tobytes()
            assert row.tobytes() == surrogate._deviation_stats(e[None], grid)[0].tobytes()

    @pytest.mark.parametrize("df", [3, 4, 8, 11])
    def test_t_cdf_grid_equals_scalar_cdf(self, df):
        # one student_t_cdf call per distinct x * x serves the whole grid
        scalar = np.array([student_t_cdf(x, df) for x in surrogate.DEVIATION_GRID])
        assert surrogate._t_cdf_grid(df).tobytes() == scalar.tobytes()

    def test_window_mismatch_rejected(self):
        cfg = SurrogateConfig(
            replications=10, theta=0.0, m=6, tau_max=10, seed=1, template=SMALL_TEMPLATE
        )
        corpus = surrogate_corpus(cfg, derive_rng(1, 0))
        records = hindcast_corpus(corpus, 5, tau_max=10).records
        with pytest.raises(ValueError, match="config.m"):
            distribution_deviation_test(records, cfg)

    def test_checks_run_in_order(self):
        # the observed curve first, then the surrogate plan, then the records
        template = ((20, -0.08, 0.0), (5, -0.1, 0.1))  # no surrogate records
        ok = dict(replications=100, theta=0.3, m=5, tau_max=10, seed=1)
        cfg = SurrogateConfig(**ok, template=template)
        corpus = surrogate_corpus(SurrogateConfig(**ok, template=SMALL_TEMPLATE), derive_rng(1, 0))
        records = hindcast_corpus(corpus, 6, tau_max=10).records  # the wrong window
        curve = dataclasses.replace(error_growth(records), m=5)
        with pytest.raises(ValueError, match="no surrogate records"):
            distribution_deviation_test(records, cfg)
        with pytest.raises(ValueError, match="no surrogate records"):
            validation_nulls(cfg, curve, records)
        with pytest.raises(ValueError, match="weighting"):
            validation_nulls(cfg, dataclasses.replace(curve, weighting="equal-technology"), records)

    def test_no_records_rejected(self):
        # an empty sample would give a 0/0 ECDF and NaN statistics
        cfg = SurrogateConfig(
            replications=10, theta=0.0, m=5, tau_max=3, seed=1, template=SMALL_TEMPLATE
        )
        records = hindcast_corpus(surrogate_corpus(cfg, derive_rng(1, 0)), 5, tau_max=10).records
        beyond_tau_max = records[records.tau > cfg.tau_max]
        for no_records in (hindcast_corpus([], 5).records, beyond_tau_max):
            with pytest.raises(ValueError, match="no records"):
                distribution_deviation_test(no_records, cfg)


def _reference_summaries():
    # named as surrogate_corpus names the series of a template
    return [
        dataclasses.replace(r, name=f"surrogate-{j:03d}")
        for j, r in enumerate(load_reference_params(improving_only=True))
    ]


class TestThetaWeighted:
    def _records_for_reference(self):
        cfg = SurrogateConfig(
            replications=1, theta=0.0, m=5, tau_max=20, seed=8, template=REFERENCE_TEMPLATE
        )
        corpus = surrogate_corpus(cfg, derive_rng(8, 0))
        return hindcast_corpus(corpus, 5, tau_max=20).records

    def test_equal_thetas_pass_through(self):
        summaries = [
            SeriesSummary(f"surrogate-{j:03d}", "", 20, -0.1, 0.1, 0.37, False, 0.0, True)
            for j in range(3)
        ]
        cfg = SurrogateConfig(
            replications=1, theta=0.0, m=5, tau_max=20, seed=9,
            template=tuple((20, -0.1, 0.1) for _ in range(3)),
        )
        records = hindcast_corpus(surrogate_corpus(cfg, derive_rng(9, 0)), 5, tau_max=20).records
        result = estimate_theta_weighted(summaries, records)
        assert result.theta_w == pytest.approx(0.37, abs=1e-12)

    def test_boundary_technologies_excluded(self):
        summaries = [
            SeriesSummary("surrogate-000", "", 20, -0.1, 0.1, 0.0, False, 0.0, True),
            SeriesSummary("surrogate-001", "", 20, -0.1, 0.1, 1.0, True, 0.0, True),
        ]
        cfg = SurrogateConfig(
            replications=1, theta=0.0, m=5, tau_max=20, seed=10,
            template=tuple((20, -0.1, 0.1) for _ in range(2)),
        )
        records = hindcast_corpus(surrogate_corpus(cfg, derive_rng(10, 0)), 5, tau_max=20).records
        result = estimate_theta_weighted(summaries, records)
        assert result.theta_w == 0.0
        assert result.excluded == ("surrogate-001",)

    def test_whole_number_tau_max(self):
        # tau_max=2.5 used to raise a numpy casting TypeError
        summaries = _reference_summaries()
        records = self._records_for_reference()
        whole = estimate_theta_weighted(summaries, records, tau_max=20)
        for tau_max in (20.0, np.int64(20)):
            result = estimate_theta_weighted(summaries, records, tau_max=tau_max)
            assert result.theta_w == whole.theta_w
            np.testing.assert_array_equal(result.taus, whole.taus)
        for tau_max, message in ((2.5, "integer"), (0, ">= 1")):
            with pytest.raises(ValueError, match=message):
                estimate_theta_weighted(summaries, records, tau_max=tau_max)

    def test_no_cap_takes_every_horizon_the_records_reach(self):
        # tau_max=None used to raise a TypeError from np.arange(1, None + 1)
        summaries = _reference_summaries()
        cfg = SurrogateConfig(
            replications=1, theta=0.0, m=5, tau_max=20, seed=8, template=REFERENCE_TEMPLATE
        )
        records = hindcast_corpus(surrogate_corpus(cfg, derive_rng(8, 0)), 5).records
        reach = int(records.tau.max())
        assert reach > 20
        result = estimate_theta_weighted(summaries, records, tau_max=None)
        capped = estimate_theta_weighted(summaries, records, tau_max=reach)
        assert result.theta_w == capped.theta_w
        np.testing.assert_array_equal(result.per_horizon, capped.per_horizon)
        np.testing.assert_array_equal(result.taus, np.arange(1, reach + 1))
        with pytest.raises(ValueError, match="no records"):
            estimate_theta_weighted(summaries, records[records.tau < 0], tau_max=None)

    def test_all_boundary_rejected(self):
        summaries = [
            SeriesSummary("surrogate-000", "", 20, -0.1, 0.1, 1.0, True, 0.0, True)
        ]
        with pytest.raises(ValueError, match="boundary"):
            estimate_theta_weighted(summaries, [])

    def test_reference_corpus_value(self):
        # Under per-horizon forecast-count weights the published per-technology
        # MA estimates average to ~0.198 over horizons 1..20 (8 boundary rows
        # excluded). The count weights equal max(0, T - m - tau) exactly since
        # continuous surrogate data produce no zero-volatility skips.
        result = estimate_theta_weighted(_reference_summaries(), self._records_for_reference())
        params = load_reference_params(improving_only=True)
        expected_by_tau = []
        for tau in range(1, 21):
            num = den = 0.0
            for r in params:
                if not r.theta_boundary:
                    c = max(0, r.n_obs - 5 - tau)
                    num += c * r.theta_full
                    den += c
            expected_by_tau.append(num / den)
        assert result.theta_w == pytest.approx(float(np.mean(expected_by_tau)), abs=1e-12)
        assert result.theta_w == pytest.approx(0.198, abs=0.002)
        assert len(result.excluded) == 8


class TestThetaMatched:
    def test_exact_theta_zero_curve_recovers_zero(self):
        cfg = SurrogateConfig(
            replications=250, theta=0.0, m=5, tau_max=15, seed=7, template=SMALL_TEMPLATE
        )
        result = estimate_theta_matched(_analytic_curve(5, 0.0, 15), cfg, [0.0, 0.2, 0.4])
        assert result.theta_m == 0.0

    def test_z_strictly_decreasing(self):
        cfg = SurrogateConfig(
            replications=400, theta=0.0, m=5, tau_max=20, seed=7, template=REFERENCE_TEMPLATE
        )
        with pytest.warns(UserWarning, match="sign"):
            result = estimate_theta_matched(
                _analytic_curve(5, 0.0, 20), cfg, np.arange(0.0, 0.91, 0.1)
            )
        assert np.all(np.diff(result.z_values) < 0)
        assert not result.bracketed

    @pytest.mark.parametrize("grid", [[0.0, 0.2, 0.4, 0.6], [0.5, 0.7]])
    def test_bracketed_agrees_with_z(self, grid):
        cfg = SurrogateConfig(
            replications=200, theta=0.0, m=5, tau_max=15, seed=7, template=SMALL_TEMPLATE
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = estimate_theta_matched(_analytic_curve(5, 0.3, 15), cfg, grid)
        z = result.z_values
        assert result.bracketed == (bool(np.any(z > 1.0)) and bool(np.any(z < 1.0)))
        assert result.bracketed == (grid[0] == 0.0)  # the curve's theta, 0.3, lies inside
        assert any("sign" in str(w.message) for w in caught) != result.bracketed
        assert result.theta_m == grid[int(np.argmin(np.abs(z - 1.0)))]

    @pytest.mark.parametrize("weighting", ["pooled", "equal-technology"])
    def test_unreachable_horizons_are_left_out_without_warnings(self, weighting):
        # SMALL_TEMPLATE reaches tau = 14 at most; Z compares horizons 1..14
        cfg = SurrogateConfig(
            replications=50, theta=0.0, m=5, tau_max=20, seed=7, template=SMALL_TEMPLATE,
            weighting=weighting,
        )
        curve = dataclasses.replace(_analytic_curve(5, 0.3, 20), weighting=weighting)
        short = dataclasses.replace(_analytic_curve(5, 0.3, 14), weighting=weighting)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)
            result = estimate_theta_matched(curve, cfg, [0.0, 0.3, 0.6])
            expected = estimate_theta_matched(short, cfg, [0.0, 0.3, 0.6])
        assert np.all(np.isfinite(result.z_values))
        np.testing.assert_array_equal(result.z_values, expected.z_values)

    @pytest.mark.parametrize("weighting", ["pooled", "equal-technology"])
    def test_zero_volatility_series_adds_no_records(self, weighting):
        # appended last, a K = 0 series leaves the other series' draws as they were
        ok = dict(replications=50, theta=0.0, m=5, tau_max=14, seed=7, weighting=weighting)
        curve = dataclasses.replace(_analytic_curve(5, 0.3, 14), weighting=weighting)
        z = [
            estimate_theta_matched(
                curve, SurrogateConfig(**ok, template=template), [0.0, 0.3, 0.6]
            ).z_values
            for template in (SMALL_TEMPLATE, SMALL_TEMPLATE + ((20, -0.08, 0.0),))
        ]
        np.testing.assert_allclose(z[1], z[0], rtol=1e-12)

    def test_horizons_only_zero_volatility_series_reach_raise(self):
        cfg = SurrogateConfig(
            replications=10, theta=0.0, m=5, tau_max=10, seed=7,
            template=((12, -0.08, 0.06), (30, -0.08, 0.0)),
        )
        with pytest.raises(ValueError, match=r"horizons \[7, 8, 9, 10\].*zero-volatility"):
            estimate_theta_matched(_analytic_curve(5, 0.3, 10), cfg, [0.0, 0.3])

    def test_no_surrogate_records_rejected(self):
        # the 20-point series has K = 0 and the 5-point one is too short for a
        # window, so no null has a record; the band used to average the
        # rounding noise of the first series' drift
        template = ((20, -0.08, 0.0), (5, -0.1, 0.1))
        ok = dict(replications=100, theta=0.3, m=5, tau_max=10, seed=1)
        cfg = SurrogateConfig(**ok, template=template)
        corpus = surrogate_corpus(SurrogateConfig(**ok, template=SMALL_TEMPLATE), derive_rng(1, 0))
        records = hindcast_corpus(corpus, 5, tau_max=10).records
        message = "no surrogate records.*K = 0"
        with pytest.raises(ValueError, match=message):
            null_xi_band(cfg, error_growth(records))
        with pytest.raises(ValueError, match=message):
            distribution_deviation_test(records, cfg)
        with pytest.raises(ValueError, match=message):
            estimate_theta_matched(error_growth(records), cfg, [0.0, 0.3])
        with pytest.raises(ValueError, match=message):
            robustness_suite(
                [], m=5, tau_max=10, replications=10, fat_tail_dfs=[3.0], template=template
            )

    def test_student_innovations_rejected(self):
        cfg = SurrogateConfig(
            replications=10, theta=0.0, m=5, tau_max=10, seed=1, template=SMALL_TEMPLATE,
            student_df=3.0,
        )
        with pytest.raises(ValueError, match="normal innovations"):
            estimate_theta_matched(_analytic_curve(5, 0.0, 10), cfg, [0.0, 0.2])

    def test_grid_validation(self):
        cfg = SurrogateConfig(
            replications=10, theta=0.0, m=5, tau_max=10, seed=1, template=SMALL_TEMPLATE
        )
        with pytest.raises(ValueError):
            estimate_theta_matched(_analytic_curve(5, 0.0, 10), cfg, [])
        with pytest.raises(ValueError):
            estimate_theta_matched(_analytic_curve(5, 0.0, 10), cfg, [0.0, 1.0])


class TestThetaForecastSweep:
    def test_grid_of_zero_gives_unit_ratio(self):
        rng = make_rng(31)
        corpus = [simulate_ima(ImaParams(-0.05, 0.06, 0.5), 20, rng, name=f"c{j}") for j in range(20)]
        sweep = theta_forecast_sweep(corpus, 5, [0.0], [1, 3])
        np.testing.assert_array_equal(sweep.ratios, np.ones((1, 2)))

    def test_recovers_generating_theta_at_short_horizon(self):
        rng = make_rng(31)
        corpus = [simulate_ima(ImaParams(-0.05, 0.06, 0.5), 30, rng, name=f"c{j}") for j in range(400)]
        sweep = theta_forecast_sweep(corpus, 5, np.arange(0.0, 0.91, 0.1), [1])
        best = sweep.best_theta[0]
        assert 0.3 <= best <= 0.7
        assert sweep.ratios[:, 0].min() > 0.8  # MA adjustment helps, but modestly

    @pytest.mark.parametrize(
        "args, message",
        [
            (dict(theta_grid=[]), "grid is empty"),
            (dict(theta_grid=[0.0, 1.5]), r"inside \(-1, 1\)"),
            (dict(m=1), "at least 2"),
            (dict(m=0), "at least 2"),
            (dict(horizons=[1.7]), "positive integers"),
        ],
    )
    def test_bad_arguments_rejected(self, args, message):
        rng = make_rng(33)
        corpus = [simulate_ima(ImaParams(-0.05, 0.06, 0.5), 20, rng, name=f"c{j}") for j in range(5)]
        call = dict(corpus=corpus, m=5, theta_grid=[0.0, 0.5], horizons=[1, 3]) | args
        with pytest.raises(ValueError, match=message):
            theta_forecast_sweep(**call)

    def test_infeasible_horizon_rejected(self):
        rng = make_rng(32)
        corpus = [simulate_ima(ImaParams(-0.05, 0.06, 0.5), 10, rng) for _ in range(3)]
        with pytest.raises(ValueError, match="horizons"):
            theta_forecast_sweep(corpus, 5, [0.0], [1, 9])


class TestErrorGrowthApproximation:
    """Quality of the analytic Xi(tau) under correlated increments.

    The closed form assumes the window volatility estimate is independent of
    the forecast error, which fails for MA(1) increments. Simulation shows
    the formula undershoots by ~10-11% at m = 16 and tracks within ~6% at
    m = 40 (theta = 0.6); both regimes are pinned here so the gap stays
    visible instead of hidden behind a loose tolerance.
    """

    def _simulated_xi(self, m, seed):
        theta, tau_max = 0.6, 20
        cfg = SurrogateConfig(
            replications=1, theta=theta, m=m, tau_max=tau_max, seed=seed,
            template=tuple((100, 0.04, 0.05) for _ in range(3000)),
        )
        sidx, tau, norm = replication_errors(cfg, derive_rng(seed, 0))
        return xi_from_errors(sidx, tau, norm, cfg)

    def test_formula_tracks_within_ten_percent_at_m40(self):
        xi = self._simulated_xi(40, seed=71)
        for t in (1, 5, 10, 20):
            predicted = variance_factors(t, 40, 0.6).xi
            assert abs(xi[t - 1] / predicted - 1.0) <= 0.10

    def test_formula_undershoots_at_m16(self):
        xi = self._simulated_xi(16, seed=72)
        deviations = [xi[t - 1] / variance_factors(t, 16, 0.6).xi - 1.0 for t in (1, 5, 10, 20)]
        assert all(0.0 < d < 0.20 for d in deviations)
        assert max(deviations) > 0.08  # the gap is real, not noise


def _small_corpus():
    config = SurrogateConfig(replications=1, theta=0.0, m=5, tau_max=10, seed=8, template=SMALL_TEMPLATE)
    return surrogate_corpus(config, derive_rng(60, 0))


class TestRobustness:
    @pytest.fixture
    def hindcasts(self, monkeypatch):
        """The arguments of every hindcast that robustness_suite runs."""
        hindcast, counted = surrogate.hindcast_corpus, []

        def counting(*args, **kwargs):
            counted.append(args)
            return hindcast(*args, **kwargs)

        monkeypatch.setattr(surrogate, "hindcast_corpus", counting)
        return counted

    def test_vary_m_orders_curves(self):
        cfg = SurrogateConfig(
            replications=1, theta=0.63, m=5, tau_max=20, seed=3,
            template=tuple((30, -0.08, 0.06) for _ in range(300)),
        )
        corpus = surrogate_corpus(cfg, derive_rng(55, 0))
        report = robustness_suite(corpus, m=5, tau_max=15, theta=0.63, vary_m=[4, 8, 12, 16])
        curves = {e["m"]: np.array(e["curve"]["xi_empirical"]) for e in report["vary_m"]}
        for small, large in [(4, 8), (8, 12), (12, 16)]:
            assert np.all(curves[small][:12] > curves[large][:12])

    @pytest.mark.parametrize(
        "experiments, calls",
        [
            (dict(vary_m=[4, 8]), 2),
            (dict(vary_m=[], fat_tail_dfs=[3.0]), 0),
            (dict(extended_tau_max=12), 1),
            (dict(half_dataset_trials=5), 1),
        ],
    )
    def test_hindcasts_only_for_experiments_that_read_it(self, hindcasts, experiments, calls):
        robustness_suite(_small_corpus(), m=5, tau_max=10, replications=10, **experiments)
        assert len(hindcasts) == calls

    @pytest.mark.parametrize(
        "arguments, message",
        [
            (dict(vary_m=[8, 3]), "m=3"),
            (dict(vary_m=[5, 8], extended_tau_max=0), "extended_tau_max must be >= 1, got 0"),
            (dict(vary_m=[5, 8], extended_tau_max=2.5), "extended_tau_max must be an integer, got 2.5"),
            (dict(vary_m=[5], half_dataset_trials=3, fat_tail_dfs=[2.0]), "student_df"),
            (dict(vary_m=[5], fat_tail_dfs=[3.0], replications=0), "replications"),
            (dict(vary_m=[5], fat_tail_dfs=[3.0], template=((20, -0.08, 0.0), (5, -0.1, 0.1))), "K = 0"),
        ],
    )
    def test_every_argument_checked_before_the_first_hindcast(self, hindcasts, arguments, message):
        # each case used to run one to three hindcasts before its ValueError
        with pytest.raises(ValueError, match=message):
            robustness_suite(_small_corpus(), m=5, tau_max=10, **{"replications": 10, **arguments})
        assert hindcasts == []

    @pytest.mark.parametrize("window, message", [(dict(m=1), "m=1"), (dict(tau_max=0), "tau_max")])
    def test_window_checked_without_a_hindcast(self, window, message):
        with pytest.raises(ValueError, match=message):
            robustness_suite([], **window)

    def test_vary_m_skips_too_large_windows(self):
        cfg = SurrogateConfig(
            replications=1, theta=0.0, m=5, tau_max=10, seed=4,
            template=tuple((12, -0.08, 0.06) for _ in range(4)),
        )
        corpus = surrogate_corpus(cfg, derive_rng(56, 0))
        report = robustness_suite(corpus, m=5, tau_max=10, vary_m=[5, 25])
        big = [e for e in report["vary_m"] if e["m"] == 25][0]
        assert big["n_series_used"] == 0 and "note" in big

    def test_half_dataset_band_contains_full_curve(self):
        cfg = SurrogateConfig(
            replications=1, theta=0.0, m=5, tau_max=20, seed=5, template=REFERENCE_TEMPLATE
        )
        corpus = surrogate_corpus(cfg, derive_rng(99, 0))
        report = robustness_suite(corpus, m=5, tau_max=20, seed=5, half_dataset_trials=500)
        assert report["half_dataset"]["subset_size"] == 26
        assert report["half_dataset"]["share_inside_band"] >= 0.9

    def test_half_dataset_unreachable_horizons_are_nan_without_warnings(self):
        cfg = SurrogateConfig(
            replications=1, theta=0.0, m=5, tau_max=20, seed=7,
            template=((40, -0.08, 0.06),) + ((12, -0.08, 0.06),) * 3,
        )
        corpus = surrogate_corpus(cfg, derive_rng(58, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = robustness_suite(corpus, m=5, tau_max=40, half_dataset_trials=20)
        half = report["half_dataset"]
        # the 40-point series reaches tau = 34 at most
        for values in (half["q025"], half["q975"], half["full_corpus_xi"]):
            values = np.array(values)
            assert np.all(np.isfinite(values[:34])) and np.all(np.isnan(values[34:]))

    @pytest.mark.parametrize(
        "arguments, name",
        [
            (dict(half_dataset_trials=3, seed=-1), "seed"),  # numpy's "expected non-negative integer"
            (dict(seed=1.5), "seed"),  # a TypeError
            (dict(half_dataset_trials=2.5), "half_dataset_trials"),  # a TypeError from range()
        ],
    )
    def test_seed_and_trials_are_whole_numbers_checked_up_front(self, monkeypatch, arguments, name):
        monkeypatch.setattr(surrogate, "hindcast_corpus", None)  # no experiment runs
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            robustness_suite([], m=5, tau_max=10, **arguments)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_half_dataset_needs_a_trial(self, trials):
        # 0 trials used to give "Mean of empty slice" and a NaN share
        corpus = surrogate_corpus(
            SurrogateConfig(replications=1, theta=0.0, m=5, tau_max=10, seed=8, template=SMALL_TEMPLATE),
            derive_rng(59, 0),
        )
        with pytest.raises(ValueError, match="half_dataset_trials"):
            robustness_suite(corpus, m=5, tau_max=10, half_dataset_trials=trials)

    def test_extended_tau(self):
        cfg = SurrogateConfig(
            replications=1, theta=0.0, m=5, tau_max=20, seed=6,
            template=tuple((80, -0.08, 0.06) for _ in range(10)),
        )
        corpus = surrogate_corpus(cfg, derive_rng(57, 0))
        report = robustness_suite(corpus, m=5, tau_max=20, extended_tau_max=73)
        assert max(report["extended_tau"]["curve"]["tau"]) == 73

    def test_fat_tails_unreachable_horizons_are_nan_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = robustness_suite(
                [], m=5, tau_max=20, theta=0.3, seed=1, replications=20,
                fat_tail_dfs=[3.0], template=((12, -0.08, 0.06), (14, -0.08, 0.06)),
            )
        curves = report["fat_tails"]
        # the 14-point series reaches tau = 8 at most
        for values in (curves["normal_rwd"], curves["ima"], curves["student"]["df=3"]):
            values = np.array(values)
            assert np.all(np.isfinite(values[:8])) and np.all(np.isnan(values[8:]))

    def test_fat_tails_inflate_short_horizons_only(self):
        report = robustness_suite(
            [], m=5, tau_max=20, theta=0.63, seed=9, replications=400,
            fat_tail_dfs=[3], template=REFERENCE_TEMPLATE,
        )
        normal = np.array(report["fat_tails"]["normal_rwd"])
        heavy = np.array(report["fat_tails"]["student"]["df=3"])
        ratio = heavy / normal
        assert ratio[0] > 1.3
        assert ratio[-1] < 1.15
        assert ratio[0] > ratio[-1]
