"""Statistical kernel tests against independent high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest
import scipy.stats as st

from costwalk.stats import (
    SingularDesignError,
    derive_rng,
    make_rng,
    normal_cdf,
    ols_fit,
    one_sided_t_test,
    student_t_cdf,
    student_t_quantile,
)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_tail_limit(self):
        assert abs(normal_cdf(8.0) - 1.0) <= 1e-12

    def test_upper_tail_against_mpmath(self):
        # the tail that drives the solar exceedance probability (~5%)
        oracle = float(0.5 * mpmath.erfc(1.646 / mpmath.sqrt(2)))
        assert abs((1.0 - normal_cdf(1.646)) - oracle) < 1e-14
        assert abs((1.0 - normal_cdf(1.646)) - 0.05) < 1e-3

    def test_high_precision_grid(self):
        for x in np.linspace(-8, 8, 65):
            oracle = float(0.5 * mpmath.erfc(-mpmath.mpf(float(x)) / mpmath.sqrt(2)))
            assert abs(normal_cdf(float(x)) - oracle) <= 1e-12

    def test_monotone_and_reflection(self):
        grid = np.linspace(-8, 8, 201)
        values = [normal_cdf(float(x)) for x in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        for x in grid:
            assert abs(normal_cdf(float(x)) + normal_cdf(float(-x)) - 1.0) <= 1e-12


class TestStudentTCdf:
    def test_median(self):
        for df in (0.5, 1, 4, 7, 100):
            assert student_t_cdf(0.0, df) == 0.5

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0.0)
        with pytest.raises(ValueError):
            student_t_cdf(1.0, -3)

    def test_nan_df_is_rejected_and_nan_x_gives_nan(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_cdf(1.0, math.nan)
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_quantile(0.3, math.nan)
        assert math.isnan(student_t_cdf(math.nan, 4.0))

    @pytest.mark.parametrize("df", [math.inf, -math.inf])
    def test_infinite_df_is_rejected(self, df):
        # +inf used to raise FloatingPointError from the incomplete beta fraction
        with pytest.raises(ValueError, match=r"\bdf\b"):
            student_t_cdf(1.0, df)
        with pytest.raises(ValueError, match=r"\bdf\b"):
            student_t_quantile(0.3, df)

    def test_against_scipy_grid(self):
        for df in (0.5, 1.0, 2.0, 4.0, 9.0, 32.0, 200.0):
            for x in np.linspace(-12, 12, 97):
                assert abs(student_t_cdf(float(x), df) - st.t.cdf(x, df)) <= 1e-10

    def test_monte_carlo_ecdf(self):
        # sampling oracle: ECDF of this many draws should match within 3e-3
        rng = make_rng(20240817)
        draws = np.sort(rng.standard_t(4, 1_000_000))
        for x in (-3.0, -1.0, -0.5, 0.3, 1.5, 4.0):
            ecdf = np.searchsorted(draws, x, side="right") / draws.size
            assert abs(student_t_cdf(x, 4) - ecdf) < 3e-3

    def test_normal_limit(self):
        assert abs(student_t_cdf(1.96, 1e6) - normal_cdf(1.96)) < 1e-5

    def test_symmetry(self):
        for df in (1, 4, 25):
            for x in np.linspace(0.1, 10, 25):
                total = student_t_cdf(float(x), df) + student_t_cdf(float(-x), df)
                assert abs(total - 1.0) <= 1e-10


class TestStudentTQuantile:
    def test_median(self):
        assert student_t_quantile(0.5, 7) == 0.0

    def test_round_trip(self):
        p = student_t_cdf(1.3, 5)
        assert abs(student_t_quantile(p, 5) - 1.3) <= 1e-7

    def test_normal_limit(self):
        assert abs(student_t_quantile(0.975, 1e6) - 1.96) < 1e-3

    def test_inverse_tolerance(self):
        rng = make_rng(5)
        for _ in range(50):
            p = float(rng.uniform(0.001, 0.999))
            df = float(rng.uniform(1.0, 60.0))
            assert abs(student_t_cdf(student_t_quantile(p, df), df) - p) <= 1e-9

    def test_rejects_bad_p(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                student_t_quantile(p, 5)


class TestOlsFit:
    def test_exact_line(self):
        x = np.arange(10.0)
        fit = ols_fit(x, 2.0 * x)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.se_slope == pytest.approx(0.0, abs=1e-12)

    def test_against_scipy(self):
        rng = make_rng(17)
        x = rng.normal(size=40)
        y = 1.5 - 0.3 * x + rng.normal(scale=0.2, size=40)
        fit = ols_fit(x, y)
        ref = st.linregress(x, y)
        assert fit.slope == pytest.approx(ref.slope, abs=1e-9)
        assert fit.intercept == pytest.approx(ref.intercept, abs=1e-9)
        assert fit.se_slope == pytest.approx(ref.stderr, abs=1e-9)
        assert fit.se_intercept == pytest.approx(ref.intercept_stderr, abs=1e-9)
        assert fit.r_squared == pytest.approx(ref.rvalue**2, abs=1e-9)

    def test_permutation_invariance(self):
        rng = make_rng(3)
        x = rng.normal(size=25)
        y = 0.7 * x + rng.normal(size=25)
        fit1 = ols_fit(x, y)
        perm = rng.permutation(25)
        fit2 = ols_fit(x[perm], y[perm])
        for attr in ("slope", "intercept", "r_squared", "se_slope", "se_intercept"):
            assert getattr(fit1, attr) == pytest.approx(getattr(fit2, attr), rel=1e-12)

    def test_residual_orthogonality(self):
        rng = make_rng(9)
        x = rng.normal(size=30)
        y = -0.2 + 0.5 * x + rng.normal(size=30)
        fit = ols_fit(x, y)
        residuals = y - (fit.intercept + fit.slope * x)
        assert abs(float(residuals @ x)) <= 1e-9 * max(1.0, float(np.abs(y).sum()))

    def test_rejects_constant_x(self):
        with pytest.raises(SingularDesignError):
            ols_fit(np.ones(5), np.arange(5.0))

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            ols_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_rejects_non_finite_input(self, bad, column):
        xy = [np.arange(5.0), np.array([1.0, 3.0, 2.0, 5.0, 4.0])]
        xy[column][2] = bad
        with pytest.raises(ValueError, match="finite"):
            ols_fit(*xy)


class TestOneSidedTTest:
    def test_degenerate_negative(self):
        assert one_sided_t_test(np.full(10, -0.1)) == 0.0

    def test_degenerate_positive(self):
        assert one_sided_t_test(np.full(10, 0.1)) == 1.0

    def test_degenerate_zero(self):
        assert one_sided_t_test(np.zeros(6)) == 0.5

    def test_exact_zero_mean(self):
        assert one_sided_t_test(np.array([-1.0, 1.0, -2.0, 2.0])) == 0.5

    def test_against_scipy(self):
        rng = make_rng(30)
        sample = rng.normal(-0.05, 0.05, size=30)
        ref = st.ttest_1samp(sample, 0.0, alternative="less").pvalue
        assert one_sided_t_test(sample) == pytest.approx(ref, abs=1e-9)

    def test_rejects_single_observation(self):
        with pytest.raises(ValueError):
            one_sided_t_test(np.array([1.0]))


class TestRng:
    def test_same_seed_bit_identical(self):
        a = make_rng(99).standard_normal(1000)
        b = make_rng(99).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_derived_streams_differ(self):
        a = derive_rng(99, 0).standard_normal(100)
        b = derive_rng(99, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_derivation_is_order_free(self):
        first = [derive_rng(7, i).standard_normal(10) for i in range(5)]
        second = [derive_rng(7, i).standard_normal(10) for i in reversed(range(5))]
        for i in range(5):
            assert np.array_equal(first[i], second[4 - i])

    def test_multi_level_paths(self):
        assert not np.array_equal(
            derive_rng(1, 2, 3).standard_normal(8), derive_rng(1, 3, 2).standard_normal(8)
        )
