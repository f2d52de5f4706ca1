"""Self-contained statistical kernel used by every other module.

Provides the distribution functions (normal and Student t CDFs, a Student t
quantile), ordinary least squares with conventional standard errors, the
one-sided location t-test used for improving-technology selection, and the
reproducible random-number contract.

The numerical kernel deliberately has no dependency beyond numpy (used only
for array arithmetic): the regularized incomplete beta function behind the
Student t CDF is implemented here with a continued fraction. Tests check it
against independent high-precision oracles.

Randomness contract
-------------------
``make_rng(seed)`` returns a counter-based (Philox) generator: identical
seeds give bit-identical draw sequences on any platform.
``derive_rng(seed, *path)`` derives an independent stream from a root seed
and an integer task path (e.g. a replication index), so Monte Carlo runs
are reproducible however their replications are batched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularDesignError",
    "OlsFit",
    "normal_cdf",
    "student_t_cdf",
    "student_t_quantile",
    "ols_fit",
    "one_sided_t_test",
    "one_sided_t_p_value",
    "make_rng",
    "derive_rng",
]

_SQRT2 = math.sqrt(2.0)


class SingularDesignError(ValueError):
    """Raised when a regression design matrix is singular (constant x)."""


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well below 1e-12 absolute.

    Uses the complementary error function for tail accuracy:
    Phi(x) = erfc(-x / sqrt(2)) / 2.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    max_iter = 400
    eps = 3e-16
    tiny = 1e-300

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for i in range(1, max_iter + 1):
        m2 = 2 * i
        # even step
        num = i * (b - i) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # odd step
        num = -(a + i) * (qab + i) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise FloatingPointError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def _regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )
    front = math.exp(log_front)
    # The continued fraction converges fast only below the distribution mode.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(x: float, df: float) -> float:
    """CDF of the Student t distribution with ``df`` degrees of freedom.

    Computed through the regularized incomplete beta function; absolute
    error is below 1e-10 over the tested range. A NaN x gives NaN.
    """
    if not 0 < df < math.inf:
        raise ValueError(f"degrees of freedom df must be finite and positive, got {df}")
    if math.isnan(x):
        return math.nan
    if x == 0.0:
        return 0.5
    if math.isinf(x):
        return 0.0 if x < 0 else 1.0
    z = df / (df + x * x)
    tail = 0.5 * _regularized_incomplete_beta(z, 0.5 * df, 0.5)
    return tail if x < 0 else 1.0 - tail


def student_t_quantile(p: float, df: float) -> float:
    """Inverse Student t CDF by bisection; |cdf(result) - p| <= 1e-9."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly inside (0, 1), got {p}")
    if not 0 < df < math.inf:
        raise ValueError(f"degrees of freedom df must be finite and positive, got {df}")
    if p == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while student_t_cdf(lo, df) > p:
        lo *= 2.0
    while student_t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c = student_t_cdf(mid, df)
        if abs(c - p) <= 1e-9 and (hi - lo) <= 1e-7 * max(1.0, abs(mid)):
            return mid
        if c < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class OlsFit:
    """Simple linear regression y = intercept + slope * x.

    Standard errors are the conventional ones from the residual variance
    with n - 2 degrees of freedom.
    """

    intercept: float
    slope: float
    r_squared: float
    se_intercept: float
    se_slope: float
    n: int


def ols_fit(x: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least-squares line fit with R^2 and coefficient standard errors.

    Raises
    ------
    ValueError
        If lengths differ, a value is not finite or fewer than 3 points are supplied.
    SingularDesignError
        If x is constant (the normal equations are singular).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional arrays of equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 points for a line fit, got {n}")
    x_bar = x.mean()
    y_bar = y.mean()
    sxx = float(((x - x_bar) ** 2).sum())
    if sxx == 0.0:
        raise SingularDesignError("x is constant; slope is not identified")
    sxy = float(((x - x_bar) * (y - y_bar)).sum())
    syy = float(((y - y_bar) ** 2).sum())
    slope = sxy / sxx
    intercept = y_bar - slope * x_bar
    residuals = y - (intercept + slope * x)
    rss = float((residuals**2).sum())
    r_squared = 1.0 if syy == 0.0 else max(0.0, min(1.0, 1.0 - rss / syy))
    s2 = rss / (n - 2)
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + x_bar * x_bar / sxx))
    return OlsFit(
        intercept=float(intercept),
        slope=float(slope),
        r_squared=float(r_squared),
        se_intercept=se_intercept,
        se_slope=se_slope,
        n=n,
    )


def one_sided_t_test(diffs: np.ndarray) -> float:
    """One-sample t-test p-value for H0: mean = 0 against H1: mean < 0.

    Degenerate samples (zero standard deviation) use a fixed convention:
    all-negative values give p = 0, all-positive give p = 1, all-zero 0.5.
    """
    diffs = np.asarray(diffs, dtype=float)
    n = diffs.size
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    return one_sided_t_p_value(float(diffs.mean()), float(diffs.std(ddof=1)), n)


def one_sided_t_p_value(mean: float, sd: float, n: int) -> float:
    """``one_sided_t_test`` of n >= 2 values with this mean and Bessel-corrected sd."""
    if sd == 0.0:
        if mean < 0.0:
            return 0.0
        if mean > 0.0:
            return 1.0
        return 0.5
    t_stat = mean / (sd / math.sqrt(n))
    return student_t_cdf(t_stat, n - 1)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator with a reproducible stream for ``seed``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent child stream identified by (seed, path).

    The same (seed, path) always yields the same stream, and distinct paths
    yield statistically independent streams, so per-task generators can be
    created in any order (or concurrently) without changing results.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))
