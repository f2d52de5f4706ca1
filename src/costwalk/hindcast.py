"""Exhaustive rolling-origin hindcasting over a corpus.

For a series of T annual observations and a window of m differences, every
feasible (origin, horizon) pair is forecast: origins run over positions
m..T-2 (0-based) and horizons over 1..min(T-1-origin, tau_max). With no
horizon cap a series contributes (T-m-1)(T-m)/2 forecasts. The engine is
deterministic, independent of corpus order, and skips (with a counter)
windows whose volatility estimate is exactly zero, which real data produce
through repeated list prices.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .forecast import rescale_scale, variance_factors
from .series import TechnologySeries
from .stats import student_t_cdf

__all__ = [
    "HindcastRecord",
    "SeriesHindcast",
    "CorpusHindcast",
    "ErrorGrowthCurve",
    "Ecdf",
    "hindcast_series",
    "hindcast_corpus",
    "error_growth",
    "pooled_rescaled_distribution",
    "bias_test",
    "write_records_csv",
    "write_error_growth_csv",
]


@dataclass(frozen=True)
class HindcastRecord:
    """One (technology, origin, horizon) forecast error.

    ``raw_error`` is realized log cost minus the point forecast;
    ``norm_error`` divides by the window volatility estimate.
    """

    technology: str
    origin_index: int
    origin_year: int
    tau: int
    raw_error: float
    norm_error: float
    mu_hat: float
    k_hat: float
    m: int


@dataclass(frozen=True)
class SeriesHindcast:
    """All feasible forecasts for one series, plus bookkeeping."""

    technology: str
    records: tuple[HindcastRecord, ...]
    skipped_zero_volatility: int
    reason: str | None = None


@dataclass(frozen=True)
class CorpusHindcast:
    """Corpus-wide records, sorted by (technology, origin, horizon)."""

    records: tuple[HindcastRecord, ...]
    skipped_zero_volatility: int
    too_short: tuple[str, ...]


def hindcast_series(
    series: TechnologySeries,
    m: int,
    tau_max: int | None = None,
    on_zero_volatility: str = "skip",
) -> SeriesHindcast:
    """Generate every feasible forecast error for one series.

    ``tau_max=None`` leaves horizons unrestricted. ``on_zero_volatility``
    chooses between skipping degenerate windows with a counter (default)
    and raising.
    """
    if on_zero_volatility not in ("skip", "error"):
        raise ValueError(f"on_zero_volatility must be 'skip' or 'error', got {on_zero_volatility!r}")
    T = series.n_obs
    if tau_max is None:
        tau_max = T
    if T < m + 2:
        return SeriesHindcast(
            technology=series.name,
            records=(),
            skipped_zero_volatility=0,
            reason=f"series has {T} points; a window of {m} differences needs at least {m + 2}",
        )
    origin, tau, raw, norm, mu_hat, k_hat, skipped = _kernels.hindcast_errors(
        series.log_costs, m, tau_max
    )
    if skipped and on_zero_volatility == "error":
        raise ValueError(f"{series.name}: {skipped} windows with zero volatility")
    years = series.years
    records = tuple(
        HindcastRecord(
            technology=series.name,
            origin_index=int(origin[i]),
            origin_year=int(years[origin[i]]),
            tau=int(tau[i]),
            raw_error=float(raw[i]),
            norm_error=float(norm[i]),
            mu_hat=float(mu_hat[i]),
            k_hat=float(k_hat[i]),
            m=m,
        )
        for i in range(tau.size)
    )
    return SeriesHindcast(
        technology=series.name,
        records=records,
        skipped_zero_volatility=int(skipped),
    )


def hindcast_corpus(
    corpus: Sequence[TechnologySeries],
    m: int,
    tau_max: int | None = None,
    on_zero_volatility: str = "skip",
) -> CorpusHindcast:
    """Hindcast every series; output is independent of corpus ordering."""
    per_series = [
        hindcast_series(s, m, tau_max=tau_max, on_zero_volatility=on_zero_volatility)
        for s in corpus
    ]
    per_series.sort(key=lambda h: h.technology)
    records: list[HindcastRecord] = []
    for h in per_series:
        records.extend(h.records)  # already ordered by (origin, tau) within a series
    return CorpusHindcast(
        records=tuple(records),
        skipped_zero_volatility=sum(h.skipped_zero_volatility for h in per_series),
        too_short=tuple(h.technology for h in per_series if h.reason is not None),
    )


@dataclass(frozen=True)
class ErrorGrowthCurve:
    """Empirical mean squared normalized error per horizon.

    ``weighting='pooled'`` averages over all records at each horizon;
    ``'equal-technology'`` first averages within each technology. Horizons
    with no records are omitted.
    """

    taus: np.ndarray
    xi: np.ndarray
    n_forecasts: np.ndarray
    n_technologies: np.ndarray
    weighting: str

    def xi_at(self, tau: int) -> float:
        idx = np.flatnonzero(self.taus == tau)
        if idx.size == 0:
            raise KeyError(f"no records at horizon {tau}")
        return float(self.xi[idx[0]])


def _sums_by_technology(
    records: Sequence[HindcastRecord], tau_max: int | None = None
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Sorted technology names, and per-(technology, horizon) sums and counts.

    ``sums[k, t-1]`` adds the squared normalized errors of technology
    ``names[k]`` at horizon t in record order, and ``counts[k, t-1]`` counts
    them, for t = 1..tau_max; ``tau_max=None`` takes the largest horizon in
    the records.
    """
    n = len(records)
    technologies = [r.technology for r in records]
    names = sorted(set(technologies))
    index = {name: k for k, name in enumerate(names)}
    tech = np.fromiter(map(index.__getitem__, technologies), np.int64, n)
    tau = np.fromiter(map(attrgetter("tau"), records), np.int64, n)
    norm = np.fromiter(map(attrgetter("norm_error"), records), float, n)
    if n and tau.min() < 1:
        # a horizon below 1 would land in another technology's cell
        raise ValueError(f"horizons must be at least 1, got {int(tau.min())}")
    if tau_max is None:
        tau_max = int(tau.max())
    keep = tau <= tau_max
    key = tech[keep] * tau_max + (tau[keep] - 1)
    size = len(names) * tau_max
    sums = np.bincount(key, weights=norm[keep] ** 2, minlength=size)
    counts = np.bincount(key, minlength=size)
    return names, sums.reshape(len(names), tau_max), counts.reshape(len(names), tau_max)


def error_growth(
    records: Sequence[HindcastRecord],
    tau_max: int | None = None,
    weighting: str = "pooled",
) -> ErrorGrowthCurve:
    """Empirical error-growth curve Xi(tau) from hindcast records.

    Squared errors are summed per (technology, horizon) in record order.
    ``'pooled'`` adds those sums over technologies; ``'equal-technology'``
    averages the per-technology means of the technologies present at each
    horizon, in sorted-name order, so the result does not depend on how
    Python orders a set of names.
    """
    if weighting not in ("pooled", "equal-technology"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if not records:
        raise ValueError("no records to aggregate")
    _, sums, counts = _sums_by_technology(records)
    if tau_max is not None:
        sums, counts = sums[:, : max(tau_max, 0)], counts[:, : max(tau_max, 0)]
    observed = np.flatnonzero(counts.sum(axis=0))
    sums, counts = sums[:, observed], counts[:, observed]
    n_forecasts = counts.sum(axis=0)
    n_technologies = np.count_nonzero(counts, axis=0)
    if weighting == "pooled":
        xi = sums.sum(axis=0) / n_forecasts
    else:
        means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
        xi = means.sum(axis=0) / n_technologies
    return ErrorGrowthCurve(
        taus=observed + 1,
        xi=xi,
        n_forecasts=n_forecasts,
        n_technologies=n_technologies,
        weighting=weighting,
    )


class Ecdf:
    """Empirical CDF supporting grid evaluation and tail plots."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("empty sample")
        self.values = np.sort(values)
        self.n = values.size

    def __call__(self, x) -> np.ndarray:
        """P(sample <= x), vectorized over x."""
        return np.searchsorted(self.values, np.asarray(x, dtype=float), side="right") / self.n

    def tail_curves(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Semi-log tail representation: exceedance fractions of all errors.

        'positive' maps X to #(err > X)/n over the positive errors;
        'negative' maps X to #(err < -X)/n over magnitudes of the negative
        errors.
        """
        pos = self.values[self.values > 0]
        neg = -self.values[self.values < 0][::-1]
        pos_frac = (np.arange(pos.size)[::-1] + 1) / self.n
        neg_frac = (np.arange(neg.size)[::-1] + 1) / self.n
        return {"positive": (pos, pos_frac), "negative": (neg, neg_frac)}


def pooled_rescaled_distribution(
    records: Sequence[HindcastRecord],
    theta: float,
    split: str = "all",
) -> Ecdf | dict[int, Ecdf]:
    """ECDF of rescaled normalized errors eps*, pooled or split by horizon.

    All records must share one window size m > 3; each record's normalized
    error is divided by sqrt(A*(tau, m, theta)/(1+theta^2)).
    """
    if split not in ("all", "by-horizon"):
        raise ValueError(f"split must be 'all' or 'by-horizon', got {split!r}")
    if not records:
        raise ValueError("no records to pool")
    window_sizes = {r.m for r in records}
    if len(window_sizes) != 1:
        raise ValueError(f"records mix window sizes {sorted(window_sizes)}")
    m = window_sizes.pop()
    tau = np.array([r.tau for r in records], dtype=np.int64)
    norm = np.array([r.norm_error for r in records])
    scales = {int(t): rescale_scale(variance_factors(int(t), m, theta)) for t in np.unique(tau)}
    eps = norm / np.array([scales[int(t)] for t in tau])
    if split == "all":
        return Ecdf(eps)
    return {int(t): Ecdf(eps[tau == t]) for t in np.unique(tau)}


def bias_test(records: Sequence[HindcastRecord], tau: int) -> float:
    """Nominal two-sided t-test that rescaled errors at one horizon have mean 0.

    Rescaling by the (constant) variance factor does not change the t
    statistic, so it runs on the normalized errors directly. Records at one
    horizon overlap in time and are correlated; the p-value is therefore
    nominal and suited to description, not strict inference.
    """
    values = np.array([r.norm_error for r in records if r.tau == tau])
    if values.size < 2:
        raise ValueError(f"need at least 2 records at horizon {tau}, got {values.size}")
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    if sd == 0.0:
        return 1.0 if mean == 0.0 else 0.0
    t_stat = mean / (sd / math.sqrt(values.size))
    lower = student_t_cdf(t_stat, values.size - 1)
    return 2.0 * min(lower, 1.0 - lower)


def write_records_csv(path: str | Path, records: Iterable[HindcastRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["technology", "t0_year", "tau", "raw_error", "norm_error", "mu_hat", "K_hat"])
        for r in records:
            writer.writerow(
                [
                    r.technology,
                    r.origin_year,
                    r.tau,
                    f"{r.raw_error:.10g}",
                    f"{r.norm_error:.10g}",
                    f"{r.mu_hat:.10g}",
                    f"{r.k_hat:.10g}",
                ]
            )


def write_error_growth_csv(
    path: str | Path,
    curve: ErrorGrowthCurve,
    m: int,
    theta: float,
) -> None:
    """Curve CSV with the analytic predictions at theta = 0 and the given theta."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["tau", "n_forecasts", "n_technologies", "xi_empirical", "xi_pred_theta0", "xi_pred_theta"]
        )
        for i, t in enumerate(curve.taus):
            pred0 = variance_factors(int(t), m, 0.0).xi
            pred = variance_factors(int(t), m, theta).xi
            writer.writerow(
                [
                    int(t),
                    int(curve.n_forecasts[i]),
                    int(curve.n_technologies[i]),
                    f"{curve.xi[i]:.10g}",
                    f"{pred0:.10g}",
                    f"{pred:.10g}",
                ]
            )
