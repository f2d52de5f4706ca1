"""Point and distributional forecasts with their analytic error theory.

For a random walk with drift whose parameters are estimated from a trailing
window of m differences, the forecast error at horizon tau decomposes into
estimation error and accumulated shocks. Its variance grows like

    A = tau + tau^2/m

and, when the increments carry MA(1) correlation theta, like

    A* = -2*theta + (1 + 2*(m-1)*theta/m + theta^2) * (tau + tau^2/m),

which reduces to A at theta = 0. With the window-estimated volatility K_hat
in the denominator, the expected mean squared normalized error is

    Xi(tau) = (m-1)/(m-3) * A*/(1 + theta^2)   (m > 3),

and the rescaled normalized error

    eps* = (E / K_hat) / sqrt(A*/(1 + theta^2))

follows a Student t(m-1) distribution: exactly for theta = 0, approximately
otherwise (the approximation assumes the estimated volatility is independent
of the error; it is accurate for windows larger than ~15 differences and
degrades below that, see the surrogate machinery for the exact comparison).

The distributional forecast for log cost at horizon tau is centered on the
point forecast y_t + mu_hat*tau with variance K_hat^2 * A*/(1 + theta^2).
Point forecasts always use the plain drift estimate even when theta != 0;
the MA correction is available only inside the theta sweep experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._kernels import _integer
from .models import RwdEstimate
from .stats import normal_cdf, student_t_quantile

__all__ = [
    "VarianceFactors",
    "variance_factors",
    "rescale_scale",
    "DistributionalForecast",
    "distributional_forecast",
]


@dataclass(frozen=True)
class VarianceFactors:
    """The analytic variance-growth quantities at one (tau, m, theta).

    ``a`` ignores autocorrelation, ``a_star`` includes it, ``xi`` is the
    expected mean squared normalized forecast error (needs m > 3).
    """

    tau: float
    m: int
    theta: float
    a: float
    a_star: float
    xi: float


def variance_factors(tau: float, m: int, theta: float) -> VarianceFactors:
    """Compute A, A* and Xi; rejects m <= 3 where the Xi prefactor diverges."""
    if tau < 1:
        raise ValueError(f"horizon must be >= 1, got {tau}")
    m = _integer("m", m)
    if m <= 3:
        raise ValueError(
            f"window m={m} is too small: the (m-1)/(m-3) variance prefactor diverges for m <= 3"
        )
    if not -1.0 < theta < 1.0:
        raise ValueError(f"theta must lie strictly inside (-1, 1), got {theta}")
    a = tau + tau * tau / m
    a_star = -2.0 * theta + (1.0 + 2.0 * (m - 1) * theta / m + theta * theta) * a
    xi = (m - 1) / (m - 3) * a_star / (1.0 + theta * theta)
    return VarianceFactors(tau=tau, m=m, theta=theta, a=a, a_star=a_star, xi=xi)


def rescale_scale(factors: VarianceFactors) -> float:
    """sqrt(A*/(1+theta^2)), the divisor turning normalized errors into eps*."""
    return math.sqrt(factors.a_star / (1.0 + factors.theta * factors.theta))


@dataclass(frozen=True)
class DistributionalForecast:
    """Forecast distribution for log cost at one horizon.

    The analytic forecast law is normal in log space (mean ``mean_log``,
    standard deviation ``sd_log``); exceedance probabilities use it
    directly. Interval endpoints from ``quantile`` substitute Student
    t(m-1) quantiles for the normal ones, which is strictly more
    conservative for small windows and indistinguishable for large ones.
    The implied cost distribution is log-normal, so ``median_cost`` (not
    the mean, which is not robust to variance uncertainty) is the reported
    central cost.
    """

    origin_log_cost: float
    horizon: float
    mean_log: float
    sd_log: float
    df: int

    @property
    def median_cost(self) -> float:
        return math.exp(self.mean_log)

    def quantile(self, p: float) -> float:
        """Log-cost quantile with Student t(df) tails (point mass if sd = 0)."""
        if self.sd_log == 0.0:
            if not 0.0 < p < 1.0:
                raise ValueError(f"probability must lie in (0, 1), got {p}")
            return self.mean_log
        return self.mean_log + self.sd_log * student_t_quantile(p, self.df)

    def prob_exceeds(self, log_level: float) -> float:
        """P(log cost at the horizon >= log_level) under the normal forecast law."""
        if self.sd_log == 0.0:
            if log_level == self.mean_log:
                return 0.5
            return 1.0 if log_level < self.mean_log else 0.0
        return 1.0 - normal_cdf((log_level - self.mean_log) / self.sd_log)

    def as_record(self, technology: str, origin_year: int) -> dict:
        """Serializable payload for the CLI emitters (quantiles in log space)."""
        return {
            "technology": technology,
            "origin_year": int(origin_year),
            "horizon": self.horizon,
            "mean_log": self.mean_log,
            "sd_log": self.sd_log,
            "quantiles": {
                "p05": self.quantile(0.05),
                "p16": self.quantile(0.16),
                "p50": self.quantile(0.50),
                "p84": self.quantile(0.84),
                "p95": self.quantile(0.95),
            },
            "median_cost": self.median_cost,
        }


def distributional_forecast(
    est: RwdEstimate, y_t: float, tau: float, theta: float
) -> DistributionalForecast:
    """Distributional log-cost forecast at horizon tau.

    Mean is the point forecast y_t + mu_hat * tau; the variance is
    K_hat^2 * A*/(1+theta^2).
    """
    factors = variance_factors(tau, est.m, theta)
    sd = est.k_hat * rescale_scale(factors)
    return DistributionalForecast(
        origin_log_cost=y_t,
        horizon=tau,
        mean_log=y_t + est.mu_hat * tau,
        sd_log=sd,
        df=est.m - 1,
    )
