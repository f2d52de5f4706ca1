"""Generative models for annual log-cost series.

Two processes are estimated and simulated:

* random walk with drift (RWD): y_t = y_{t-1} + mu + n_t with IID noise of
  standard deviation K;
* IMA(1,1): y_t - y_{t-1} = mu + v_t + theta*v_{t-1} with v_t ~ N(0, sigma^2),
  an RWD whose increments carry lag-one correlation. The increment variance
  is K^2 = (1 + theta^2) * sigma^2.

A trend-stationary simulator (y_t = y0 + mu*t + e_t, purely transitory
shocks) is included only so users can contrast shock persistence; it is not
a forecaster.

Rolling-window estimation uses the telescopic drift estimator
mu_hat = (y_t - y_{t-m}) / m and the Bessel-corrected variance of the m
window differences. The IMA maximum likelihood fit uses the Gaussian
conditional likelihood of the differenced series (innovation recursion
started at zero), with mu and sigma profiled out analytically for each theta
and theta found by a coarse grid plus golden-section refinement on [-1, 1].
The 201 grid points are evaluated together, one vectorized pass over the
series; the golden-section steps run the scalar recursion one theta at a
time. Both give the same residual sum of squares, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import TechnologySeries

__all__ = [
    "EstimationError",
    "RwdEstimate",
    "ImaParams",
    "estimate_rwd",
    "fit_ima_mle",
    "simulate_rwd",
    "simulate_ima",
    "simulate_trend_stationary",
]

THETA_BOUNDARY_TOL = 1e-6


class EstimationError(RuntimeError):
    """Raised when a likelihood is degenerate or an optimizer cannot proceed."""


@dataclass(frozen=True)
class RwdEstimate:
    """Rolling-window drift/volatility estimate anchored at a forecast origin.

    ``origin_index`` is the 0-based position of the forecast origin within
    the source series; the estimate uses the m first differences ending
    there. ``mu_hat`` equals (y[origin] - y[origin-m]) / m exactly.
    """

    mu_hat: float
    k_hat: float
    m: int
    origin_index: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"window must contain at least 2 differences, got m={self.m}")
        if self.k_hat < 0:
            raise ValueError("volatility estimate cannot be negative")


@dataclass(frozen=True)
class ImaParams:
    """Parameters of the IMA(1,1) process y_t - y_{t-1} = mu + v_t + theta*v_{t-1}."""

    mu: float
    sigma: float
    theta: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("innovation standard deviation cannot be negative")
        if abs(self.theta) > 1.0:
            raise ValueError(f"theta must lie in [-1, 1], got {self.theta}")

    @property
    def k(self) -> float:
        """Increment standard deviation: K = sigma * sqrt(1 + theta^2)."""
        return self.sigma * math.sqrt(1.0 + self.theta * self.theta)

    @property
    def boundary(self) -> bool:
        """True when the MA coefficient sits on the +-1 boundary."""
        return abs(abs(self.theta) - 1.0) < THETA_BOUNDARY_TOL


def estimate_rwd(series: TechnologySeries, origin_index: int, m: int) -> RwdEstimate:
    """Window estimate of (mu, K) from the m differences ending at the origin."""
    if m < 2:
        raise ValueError(f"window must contain at least 2 differences, got m={m}")
    T = series.n_obs
    if origin_index < m or origin_index > T - 1:
        raise ValueError(
            f"{series.name}: origin {origin_index} does not fit a window of {m} "
            f"differences in a series of {T} points"
        )
    y = series.log_costs
    mu_hat = (y[origin_index] - y[origin_index - m]) / m
    window = np.diff(y[origin_index - m : origin_index + 1])
    k2 = float(((window - mu_hat) ** 2).sum()) / (m - 1)
    return RwdEstimate(mu_hat=float(mu_hat), k_hat=math.sqrt(k2), m=m, origin_index=origin_index)


def _profile_mu_rss(d: np.ndarray, theta: float) -> tuple[float, float]:
    """Profile the drift out of the conditional MA(1) likelihood.

    With the innovation recursion v_t = (d_t - mu) - theta*v_{t-1}, v_0 = 0,
    the innovations are linear in mu: v_t = a_t - mu*b_t with
    a_t = d_t - theta*a_{t-1} and b_t = 1 - theta*b_{t-1}. Returns the
    minimizing mu and the residual sum of squares.
    """
    theta = float(theta)
    a_prev = b_prev = s_ab = s_bb = 0.0
    a: list[float] = []
    b: list[float] = []
    for d_t in d.tolist():
        a_prev = d_t - theta * a_prev
        b_prev = 1.0 - theta * b_prev
        a.append(a_prev)
        b.append(b_prev)
        s_ab += a_prev * b_prev
        s_bb += b_prev * b_prev
    mu = s_ab / s_bb
    v = np.array(a) - mu * np.array(b)
    return mu, float((v * v).sum())


def _profile_rss_grid(d: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Residual sum of squares of ``_profile_mu_rss`` at every theta at once.

    One pass over t updates the recursion for all thetas together, with the
    same floating-point operations per theta as the scalar routine, and each
    row of ``(v*v)`` is summed on its own, so every entry equals the scalar
    RSS bit for bit.
    """
    a = np.empty((thetas.size, d.size))
    b = np.empty((thetas.size, d.size))
    a_prev = np.zeros(thetas.size)
    b_prev = np.zeros(thetas.size)
    s_ab = np.zeros(thetas.size)
    s_bb = np.zeros(thetas.size)
    for t, d_t in enumerate(d.tolist()):
        a_prev = d_t - thetas * a_prev
        b_prev = 1.0 - thetas * b_prev
        a[:, t] = a_prev
        b[:, t] = b_prev
        s_ab += a_prev * b_prev
        s_bb += b_prev * b_prev
    v = a - (s_ab / s_bb)[:, None] * b
    return (v * v).sum(axis=1)


def fit_ima_mle(series: TechnologySeries) -> ImaParams:
    """Maximum likelihood IMA(1,1) fit of the differenced series.

    Maximizes the Gaussian conditional likelihood (innovations started at
    zero) over theta in [-1, 1] with mu and sigma profiled analytically:
    a 0.01-step grid locates the optimum, golden-section refines it. A fit
    on the boundary is returned as-is; check ``ImaParams.boundary``.
    """
    if series.n_obs < 4:
        raise ValueError(f"{series.name}: need at least 4 observations, got {series.n_obs}")
    d = series.diffs()
    n = d.size
    if np.ptp(d) == 0.0:
        # constant increments: sigma -> 0 makes the likelihood unbounded
        raise EstimationError(
            f"{series.name}: increments are constant, IMA likelihood is degenerate"
        )

    def nll_of_rss(rss: float) -> float:
        if rss <= 0.0 or not math.isfinite(rss):
            return math.inf
        # math.log, not np.log: the two can differ by one ulp and flip a near-tie
        return 0.5 * n * math.log(rss / n)

    def concentrated_nll(theta: float) -> float:
        return nll_of_rss(_profile_mu_rss(d, theta)[1])

    grid = np.linspace(-1.0, 1.0, 201)
    values = np.array([nll_of_rss(rss) for rss in _profile_rss_grid(d, grid).tolist()])
    if not np.any(np.isfinite(values)):
        raise EstimationError(
            f"{series.name}: degenerate innovation variance, IMA likelihood is unbounded"
        )
    best = int(np.argmin(values))

    lo = max(-1.0, grid[best] - 0.01)
    hi = min(1.0, grid[best] + 0.01)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = concentrated_nll(x1), concentrated_nll(x2)
    for _ in range(60):
        if hi - lo < 1e-8:
            break
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = concentrated_nll(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = concentrated_nll(x2)
    theta = min(1.0, max(-1.0, 0.5 * (lo + hi)))
    if concentrated_nll(theta) > values[best]:
        theta = float(grid[best])

    mu, rss = _profile_mu_rss(d, theta)
    if not (math.isfinite(mu) and math.isfinite(rss)):
        raise EstimationError(f"{series.name}: non-finite IMA likelihood at theta={theta}")
    return ImaParams(mu=float(mu), sigma=math.sqrt(rss / n), theta=float(theta))


def _simulated_years(n_obs: int, start_year: int) -> np.ndarray:
    return np.arange(start_year, start_year + n_obs, dtype=np.int64)


def _draw_increments(
    rng: np.random.Generator, n: int, sd: float, student_df: float | None
) -> np.ndarray:
    if student_df is None:
        return sd * rng.standard_normal(n)
    if student_df <= 2:
        raise ValueError("student innovations need df > 2 so increments can be scaled to sd K")
    # standard t has variance df/(df-2); rescale so the sd equals K
    return sd * math.sqrt((student_df - 2.0) / student_df) * rng.standard_t(student_df, n)


def simulate_rwd(
    mu: float,
    k: float,
    n_obs: int,
    rng: np.random.Generator,
    student_df: float | None = None,
    name: str = "rwd-sim",
    start_year: int = 1,
) -> TechnologySeries:
    """Random walk with drift starting at y_0 = 0.

    Increments are IID with mean ``mu`` and standard deviation ``k``: normal
    when ``student_df`` is None, otherwise Student t with ``student_df``
    degrees of freedom, rescaled to standard deviation ``k``.
    """
    if k < 0:
        raise ValueError("increment standard deviation cannot be negative")
    if n_obs < 2:
        raise ValueError(f"need at least 2 observations, got {n_obs}")
    noise = _draw_increments(rng, n_obs - 1, k, student_df)
    y = np.concatenate(([0.0], np.cumsum(mu + noise)))
    return TechnologySeries(name=name, years=_simulated_years(n_obs, start_year), log_costs=y)


def simulate_ima(
    params: ImaParams,
    n_obs: int,
    rng: np.random.Generator,
    name: str = "ima-sim",
    start_year: int = 1,
) -> TechnologySeries:
    """IMA(1,1) sample path starting at y_0 = 0.

    The MA recursion is initialized from its stationary law (v_0 drawn from
    N(0, sigma^2)), unlike the MLE fit which conditions on v_0 = 0; the
    asymmetry avoids a startup transient in simulations while keeping the
    likelihood simple on short series.
    """
    if n_obs < 2:
        raise ValueError(f"need at least 2 observations, got {n_obs}")
    v = params.sigma * rng.standard_normal(n_obs)
    increments = (params.mu + v[1:]) + params.theta * v[:-1]
    y = np.concatenate(([0.0], np.cumsum(increments)))
    return TechnologySeries(name=name, years=_simulated_years(n_obs, start_year), log_costs=y)


def simulate_trend_stationary(
    y0: float,
    mu: float,
    sd: float,
    n_obs: int,
    rng: np.random.Generator,
    name: str = "trend-sim",
    start_year: int = 1,
) -> TechnologySeries:
    """Deterministic exponential trend plus purely transitory noise.

    y_t = y0 + mu*t + e_t with e_t IID N(0, sd^2). Shocks do not accumulate,
    so increments have variance 2*sd^2 rather than sd^2.
    """
    if n_obs < 2:
        raise ValueError(f"need at least 2 observations, got {n_obs}")
    if sd < 0:
        raise ValueError("noise standard deviation cannot be negative")
    t = np.arange(n_obs, dtype=np.float64)
    y = y0 + mu * t + sd * rng.standard_normal(n_obs)
    return TechnologySeries(name=name, years=_simulated_years(n_obs, start_year), log_costs=y)
