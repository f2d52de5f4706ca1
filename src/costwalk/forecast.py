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
otherwise (it takes K_hat to be independent of the error; accurate above ~15
differences, it degrades below). ``null_xi_mean`` gives the exact mean of
eps^2 at any theta; no exact law of eps at theta != 0 is computed yet.

The distributional forecast for log cost at horizon tau is centered on the
point forecast y_t + mu_hat*tau with variance K_hat^2 * A*/(1 + theta^2).
Point forecasts always use the plain drift estimate even when theta != 0;
the MA correction is available only inside the theta sweep experiment.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import _check_window, _integer
from .models import RwdEstimate
from .stats import normal_cdf, student_t_quantile

__all__ = [
    "VarianceFactors",
    "variance_factors",
    "rescale_scale",
    "null_xi_mean",
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


def _check_m(m) -> int:
    """The theory's window as an int, if ``m`` is a whole number > 3: Xi's (m-1)/(m-3) is finite."""
    m = _integer("m", m)
    if m <= 3:
        raise ValueError(f"window m={m} is too small: Xi needs m > 3; its prefactor diverges for m <= 3")
    return m


def _check_theta(theta) -> float:
    """``theta`` as a float, if it is a real number strictly inside (-1, 1)."""
    if not (isinstance(theta, numbers.Real) and -1.0 < theta < 1.0):
        raise ValueError(f"theta must lie strictly inside (-1, 1) as a real number, got {theta!r}")
    return float(theta)


def _check_theta_grid(grid) -> np.ndarray:
    """A non-empty 1-d sequence of thetas, each checked by ``_check_theta``, as floats."""
    grid = np.asarray(grid, dtype=object)  # as objects, a ragged grid is 1-d and its lists fail below
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"theta grid is empty or not 1-d: got one of shape {grid.shape}")
    return np.array([_check_theta(theta) for theta in grid])


def variance_factors(tau: float, m: int, theta: float) -> VarianceFactors:
    """Compute A, A* and Xi at a finite tau >= 1 and an m and theta that the theory admits."""
    if not 1 <= tau < math.inf:
        raise ValueError(f"horizon must be >= 1 and finite, got {tau}")
    m, theta = _check_m(m), _check_theta(theta)
    a = tau + tau * tau / m
    a_star = -2.0 * theta + (1.0 + 2.0 * (m - 1) * theta / m + theta * theta) * a
    xi = (m - 1) / (m - 3) * a_star / (1.0 + theta * theta)
    return VarianceFactors(tau=tau, m=m, theta=theta, a=a, a_star=a_star, xi=xi)


def rescale_scale(factors: VarianceFactors) -> float:
    """sqrt(A*/(1+theta^2)), the divisor turning normalized errors into eps*."""
    return math.sqrt(factors.a_star / (1.0 + factors.theta * factors.theta))


def _record_form(m: int, theta: np.ndarray) -> tuple[np.ndarray, ...]:
    """The quadratic forms of one record of the unit walk, per theta of a checked grid.

    A record of y[t] = y[t-1] + w[t] + theta*w[t-1] at origin i reads the unit
    normals w[i-m..i+tau], whatever its series, length or origin, and its
    eps = c'w / sqrt(w'Bw), where w'Bw is K_hat^2 on m - 1 degrees of freedom.
    B touches only the m + 1 window innovations w[i-m..i]. Returns B's
    eigenvalues lam and eigenvectors q, and in that eigenbasis the window
    directions e (w[i]) and u (minus the drift estimate's coefficients): c's
    window part is q(theta*e + tau*u). Its tau future innovations, outside B,
    have variance (tau-1)(1+theta)^2 + 1.
    """
    j = np.arange(m)
    diffs = np.zeros((theta.size, m, m + 1))  # window difference j is w[j+1] + theta*w[j]
    diffs[:, j, j] = theta[:, None]
    diffs[:, j, j + 1] = 1.0
    drift = diffs.mean(axis=1)
    centered = diffs - drift[:, None, :]
    lam, q = np.linalg.eigh(np.swapaxes(centered, 1, 2) @ centered / (m - 1))
    lam[:, :2] = 0.0  # B has rank m - 1, so rounding must not bend its null directions
    return lam, q, q[:, m, :], -np.einsum("gik,gi->gk", q, drift)


def null_xi_mean(m: int, tau_max: int, theta_grid: Sequence[float]) -> np.ndarray:
    """(grid, tau_max) exact mean of the null Xi at horizons 1..tau_max, per theta.

    Every record of the unit walk has the same E[eps^2] = g(m, tau, theta)
    (``_record_form``), the mean of Xi under both weightings. By J. R. Magnus
    (Ann. d'Econ. et de Stat. 4, 1986),

        g = int_0^inf det(I + 2tB)^(-1/2) c'(I + 2tB)^(-1) c dt,

    so one eigensystem of B per theta serves every tau. The integral is a
    trapezoid rule in s = log t with step 1/4 on [-40, 160/(m-3)], which
    converges exponentially: the integrand decays like e^s below and like
    e^(-(m-3)s/2) above. At theta = 0 the rows are the paper's closed form,
    ``variance_factors(tau, m, 0).xi``, as bits. ``m`` must be a whole number
    > 3 and ``tau_max`` one >= 1: no series sets a reach, so None is an error.
    """
    theta = _check_theta_grid(theta_grid)
    m, tau_max = _check_window(_check_m(m), tau_max)
    lam, _, e, u = _record_form(m, theta)
    step = 0.25
    t = np.exp(np.arange(-40.0, 160.0 / (m - 3), step))
    x = 2.0 * t[:, None] * lam[:, None, :]  # (grid, nodes, m + 1)
    weight = step * t * np.exp(-0.5 * np.log1p(x).sum(axis=-1))  # dt = t ds
    i0 = weight.sum(axis=-1)
    w_k = np.einsum("gn,gnk->gk", weight, 1.0 / (1.0 + x))  # each eigendirection's integral
    i_ee, i_eu, i_uu = ((w_k * a * b).sum(axis=-1)[:, None] for a, b in ((e, e), (e, u), (u, u)))
    tau = np.arange(1.0, tau_max + 1.0)
    th = theta[:, None]
    future = (tau - 1.0) * (1.0 + th) ** 2 + 1.0
    g = th * th * i_ee + 2.0 * th * tau * i_eu + tau * tau * i_uu + future * i0[:, None]
    if np.any(theta == 0.0):
        g[theta == 0.0] = [variance_factors(k, m, 0.0).xi for k in range(1, tau_max + 1)]
    return g


# Every horizon of one forecast shares df, so each level is bisected once per df.
_standard_t_quantile = functools.lru_cache(maxsize=64)(student_t_quantile)
_LEVELS = {"p05": 0.05, "p16": 0.16, "p50": 0.50, "p84": 0.84, "p95": 0.95}


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
        return self.mean_log + self.sd_log * _standard_t_quantile(p, self.df)

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
            "quantiles": {name: self.quantile(p) for name, p in _LEVELS.items()},
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
