"""Applied questions: technology forecasts, crossing odds, trend crossings.

``crossing_probability`` answers "how likely is technology A to be cheaper
than technology B at horizon tau": both log costs carry the same forecast
law, their difference Z = y_B - y_A is normal under the (explicit) modeling
assumption that the two processes are independent, and

    P(y_A < y_B) = 1/2 * [1 + erf(mu_Z / (sqrt(2) * sigma_Z))]

with mu_Z = (y_B - y_A) + tau*(mu_B - mu_A) and
sigma_Z^2 = A*/(1+theta^2) * (K_A^2 + K_B^2). The horizon where the odds
reach one half depends only on the drift difference, never on the noise
levels.

``deterministic_trend_crossing`` solves the noise-free exponential race
f*g_f^t = s*g_s^t for the time a fast-growing follower overtakes a slowly
growing leader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._kernels import _check_window, _integer
from .forecast import DistributionalForecast, distributional_forecast, variance_factors
from .models import RwdEstimate, estimate_rwd
from .series import TechnologySeries
from .stats import normal_cdf

__all__ = [
    "TechState",
    "CrossingSpec",
    "NoCrossingError",
    "crossing_probability",
    "even_odds_horizon",
    "forecast_technology",
    "deterministic_trend_crossing",
]


class NoCrossingError(ValueError):
    """No crossing: the follower never catches up, or the odds never reach one half."""


@dataclass(frozen=True)
class TechState:
    """Current state of one technology's cost process."""

    current_log_cost: float
    mu: float
    k: float
    m: int

    def __post_init__(self) -> None:
        for name in ("current_log_cost", "mu", "k"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.k < 0:
            raise ValueError("volatility cannot be negative")
        object.__setattr__(self, "m", _integer("m", self.m))
        if self.m <= 3:
            raise ValueError(f"m={self.m} too small; the variance factor needs m > 3")


@dataclass(frozen=True)
class CrossingSpec:
    """Two technologies compared under a shared window and autocorrelation.

    Both processes must use the same estimation window m (mixing windows
    would silently average incompatible variance factors) and are assumed
    independent.
    """

    tech_a: TechState
    tech_b: TechState
    theta: float

    def __post_init__(self) -> None:
        if self.tech_a.m != self.tech_b.m:
            raise ValueError(
                f"both technologies must share the window: {self.tech_a.m} != {self.tech_b.m}"
            )
        if not -1.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie strictly inside (-1, 1), got {self.theta}")


def crossing_probability(spec: CrossingSpec, tau: float) -> float:
    """P(technology A is cheaper than technology B at horizon tau), for a finite tau >= 1."""
    if not 1 <= tau < math.inf:
        raise ValueError(f"horizon must be >= 1 and finite, got {tau}")
    a, b = spec.tech_a, spec.tech_b
    mu_z = (b.current_log_cost - a.current_log_cost) + tau * (b.mu - a.mu)
    factors = variance_factors(tau, a.m, spec.theta)
    var_z = factors.a_star / (1.0 + spec.theta**2) * (a.k**2 + b.k**2)
    if var_z == 0.0:
        if mu_z == 0.0:
            return 0.5
        return 1.0 if mu_z > 0 else 0.0
    return normal_cdf(mu_z / math.sqrt(var_z))


def even_odds_horizon(spec: CrossingSpec, tau_lo: float = 1.0, tau_hi: float = 100.0) -> float:
    """Continuous horizon where the crossing probability reaches one half.

    Since sigma_Z > 0, this is the root of mu_Z, tau = (y_A - y_B)/(mu_B - mu_A),
    and it must lie in [tau_lo, tau_hi], with tau_lo >= 1. Equal costs and
    drifts give even odds at every horizon, hence tau_lo. Any other case
    raises ``NoCrossingError``. tau_lo must be finite; tau_hi may be infinite.
    """
    if not 1 <= tau_lo < math.inf:
        raise ValueError(f"horizon must be >= 1 and finite, got {tau_lo}")
    if math.isnan(tau_hi):
        raise ValueError("the upper horizon bound cannot be NaN")
    a, b = spec.tech_a, spec.tech_b
    cost_gap, drift_gap = a.current_log_cost - b.current_log_cost, b.mu - a.mu
    if cost_gap == 0.0 and drift_gap == 0.0:
        return tau_lo
    tau = cost_gap / drift_gap if drift_gap != 0.0 else math.nan
    if not tau_lo <= tau <= tau_hi:
        raise NoCrossingError(f"probability does not pass through 0.5 on [{tau_lo}, {tau_hi}]")
    return tau


def forecast_technology(
    series: TechnologySeries,
    tau_max: int,
    theta: float,
    m: int | str = "all",
) -> list[DistributionalForecast]:
    """Distributional forecasts for horizons 1..tau_max from the last observation.

    ``m='all'`` estimates drift and volatility from every available first
    difference (m = T - 1); an integer m uses the trailing window of that
    size. ``tau_max`` must be a whole number >= 1.
    """
    T = series.n_obs
    window, tau_max = _check_window(T - 1 if m == "all" else m, tau_max)
    if window > T - 1:
        raise ValueError(
            f"{series.name}: window of {window} differences needs {window + 1} points, have {T}"
        )
    est: RwdEstimate = estimate_rwd(series, origin_index=T - 1, m=window)
    y_t = float(series.log_costs[-1])
    return [distributional_forecast(est, y_t, tau, theta) for tau in range(1, tau_max + 1)]


def deterministic_trend_crossing(
    follower_level: float,
    follower_growth: float,
    leader_level: float,
    leader_growth: float,
) -> float:
    """Years until f*g_f^t catches s*g_s^t: t = ln(s/f) / ln(g_f/g_s).

    Requires finite growth rates g_f > g_s > 0 and finite levels s >= f > 0;
    equal levels cross immediately (t = 0).
    """
    arguments = (follower_level, follower_growth, leader_level, leader_growth)
    if not all(math.isfinite(a) for a in arguments):
        raise ValueError(f"levels and growth factors must be finite, got {arguments}")
    if follower_level <= 0 or leader_level <= 0:
        raise ValueError("levels must be positive")
    if leader_growth <= 0:
        raise ValueError("growth factors must be positive")
    if follower_growth <= leader_growth:
        raise NoCrossingError(
            f"follower growth {follower_growth} does not exceed leader growth {leader_growth}"
        )
    if leader_level < follower_level:
        raise ValueError("leader level is already below the follower; nothing to cross")
    return math.log(leader_level / follower_level) / math.log(follower_growth / leader_growth)
