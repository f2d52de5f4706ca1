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
import io
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _kernels
from .forecast import rescale_scale, variance_factors
from .series import TechnologySeries, _columns
from .stats import one_sided_t_test

__all__ = [
    "HindcastRecords",
    "CorpusHindcast",
    "ErrorGrowthCurve",
    "Ecdf",
    "hindcast_corpus",
    "error_growth",
    "pooled_rescaled_distribution",
    "bias_test",
    "write_records_csv",
    "write_error_growth_csv",
]


_COLUMNS = (
    "tech", "origin_index", "origin_year", "tau", "raw_error", "norm_error", "mu_hat", "k_hat"
)


@dataclass(frozen=True, eq=False)
class HindcastRecords:
    """Forecast errors of one hindcast as aligned columns, one entry per record.

    ``names`` holds the sorted names of the technologies that have records,
    and ``tech`` codes each record's technology as an index into it. Every
    record uses the window of ``m`` differences. ``raw_error`` is realized
    log cost minus the point forecast and ``norm_error`` divides it by the
    window volatility estimate ``k_hat``. Indexing with a boolean mask
    or an index array gives the selected records; a single record is read
    from the columns, so an integer index raises ``TypeError``.
    """

    names: tuple[str, ...]
    tech: np.ndarray
    origin_index: np.ndarray
    origin_year: np.ndarray
    tau: np.ndarray
    raw_error: np.ndarray
    norm_error: np.ndarray
    mu_hat: np.ndarray
    k_hat: np.ndarray
    m: int

    def __len__(self) -> int:
        return self.tau.size

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            raise TypeError("select records with a mask or an index array, not an integer")
        # keep only the names that still have records, so codes stay dense
        present, tech = np.unique(self.tech[index], return_inverse=True)
        names = tuple(self.names[k] for k in present.tolist())
        columns = (getattr(self, c)[index] for c in _COLUMNS[1:])
        return HindcastRecords(names, tech.astype(np.int64, copy=False), *columns, self.m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HindcastRecords):
            return NotImplemented
        same = (self.names, self.m) == (other.names, other.m)
        return same and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)


@dataclass(frozen=True)
class CorpusHindcast:
    """Corpus-wide records, sorted by (technology, origin, horizon)."""

    records: HindcastRecords
    skipped_zero_volatility: int
    too_short: tuple[str, ...]


def hindcast_corpus(
    corpus: Sequence[TechnologySeries],
    m: int,
    tau_max: int | None = None,
) -> CorpusHindcast:
    """Hindcast every series; output is independent of corpus ordering.

    ``m`` is a whole number >= 2 and ``tau_max`` one >= 1, or None for every
    horizon the corpus reaches. Windows with zero volatility are skipped and
    counted in ``skipped_zero_volatility``; ``too_short`` names the series
    with fewer than m + 2 points. Technology names must be unique, since
    records are grouped and ordered by name. Each record is held once: every
    series' records are copied into columns allocated up front.
    """
    corpus = _columns(corpus)
    m, tau_max = _kernels._check_window(m, tau_max, corpus.lengths)
    repeated = sorted(name for name, n in Counter(corpus.names).items() if n > 1)
    if repeated:
        raise ValueError(f"technology names must be unique; repeated: {repeated}")
    # room for every record if no window is skipped: the h origins of a series reach
    # h, h - 1, ..., 1 horizons, capped, so it has c(c + 1)/2 + (h - c) cap records
    h = _kernels._reach(corpus.lengths, m)
    cap = min(tau_max, h.max(initial=0))
    c = np.minimum(h, cap)
    size = int((c * (c + 1) // 2 + (h - c) * cap).sum())
    # the kernel's columns: origin_index, tau, raw_error, norm_error, mu_hat, k_hat
    columns = [np.empty(size, dtype=t) for t in 2 * [np.int64] + 4 * [np.float64]]
    names, starts, sizes, too_short, skipped, end = [], [], [], [], 0, 0
    series = zip(corpus.names, corpus.starts.tolist(), corpus.lengths.tolist(), h.tolist())
    for name, start, n, reach in sorted(series):
        if not reach:
            too_short.append(name)
            continue
        y = corpus.log_costs[start : start + n]
        *parts, n_skipped = _kernels.hindcast_errors(y, m, tau_max)
        skipped += n_skipped
        if count := parts[0].size:
            for column, part in zip(columns, parts):
                column[end : end + count] = part
            names.append(name)
            starts.append(start)
            sizes.append(count)
            end += count
    origin, *columns = (column[:end] for column in columns)  # cut if windows were skipped
    tech = np.repeat(np.arange(len(names), dtype=np.int64), sizes)
    year = np.repeat(corpus.years[starts], sizes)  # years run consecutively within a series
    year += origin
    return CorpusHindcast(
        records=HindcastRecords(tuple(names), tech, origin, year, *columns, m),
        skipped_zero_volatility=skipped,
        too_short=tuple(too_short),
    )


@dataclass(frozen=True)
class ErrorGrowthCurve:
    """Empirical mean squared normalized error per horizon.

    ``weighting='pooled'`` averages over all records at each horizon;
    ``'equal-technology'`` first averages within each technology. Horizons
    with no records are omitted. ``m`` is the window of the hindcast the
    curve came from, or None for a curve not computed from records.
    """

    taus: np.ndarray
    xi: np.ndarray
    n_forecasts: np.ndarray
    n_technologies: np.ndarray
    weighting: str
    m: int | None = None


def _cells(
    tech: np.ndarray, tau: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Each record's flat index in a (technologies, tau_max) grid ``shape`` of
    cells, and the grid's counts of records."""
    cell = tech * shape[1]
    np.add(cell, tau - 1, out=cell)  # one record-sized temporary, not two
    return cell, np.bincount(cell, minlength=shape[0] * shape[1]).reshape(shape)


def _cell_sums(
    errors: np.ndarray, cell: np.ndarray, shape: tuple[int, int], out: np.ndarray | None = None
) -> np.ndarray:
    """Per-(row, technology, horizon) sums of squared errors.

    ``errors`` is (rows, records), and ``cell`` is the records' ``_cells``
    index in the grid ``shape``. Each row is summed on its own, each cell
    adding its squares in record order, so a row's sums do not depend on the
    other rows. The squares go to ``out``, errors-shaped, if given.
    """
    squares = np.multiply(errors, errors, out=out)
    size = shape[0] * shape[1]
    sums = [np.bincount(cell, weights=row, minlength=size) for row in squares]
    del squares  # a record-sized temporary unless ``out`` is given: freed before the stack
    return np.stack(sums).reshape(len(sums), *shape)


def _xi(sums: np.ndarray, counts: np.ndarray, weighting: str) -> np.ndarray:
    """Xi per horizon (see ``error_growth``) of (..., technologies, horizons) cell
    sums and their counts, which may be one grid for every row of sums.

    Technologies are added one at a time in axis order (a cumulative sum never
    regroups terms), so one without records adds an exact zero. NaN where a
    horizon has no records.
    """
    if weighting == "pooled":
        terms, n = sums, counts.sum(axis=-2)
    else:
        terms = np.divide(sums, counts, out=np.zeros(sums.shape), where=counts > 0)
        n = np.count_nonzero(counts, axis=-2)
    with np.errstate(invalid="ignore"):  # 0 / 0 at a horizon without records
        return np.cumsum(terms, axis=-2)[..., -1, :] / n


def _sums_by_technology(
    records: HindcastRecords, tau_max: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(technology, horizon) sums and counts of squared normalized errors.

    ``sums[k, t-1]`` adds the squared normalized errors of technology
    ``records.names[k]`` at horizon t in record order, and ``counts[k, t-1]``
    counts them, for t = 1..tau_max; ``tau_max=None`` takes the largest
    horizon in the records (none without records).
    """
    tech, tau, norm = records.tech, records.tau, records.norm_error
    if tau.size and tau.min() < 1:
        # a horizon below 1 would land in another technology's cell
        raise ValueError(f"horizons must be at least 1, got {int(tau.min())}")
    if tau_max is None:
        tau_max = int(tau.max(initial=0))
    elif tau.max(initial=0) > tau_max:  # copy masked columns only if a record lies past the cap
        inside = tau <= tau_max
        tech, tau, norm = tech[inside], tau[inside], norm[inside]
    shape = (len(records.names), tau_max)
    cell, counts = _cells(tech, tau, shape)
    return _cell_sums(norm[None], cell, shape)[0], counts


def error_growth(records: HindcastRecords, weighting: str = "pooled") -> ErrorGrowthCurve:
    """Empirical error-growth curve Xi(tau) from hindcast records.

    Squared errors are summed per (technology, horizon) in record order.
    ``'pooled'`` adds those sums over technologies; ``'equal-technology'``
    averages the per-technology means of the technologies present at each
    horizon. Technologies are added one at a time in sorted-name order, and
    the surrogate nulls (``surrogate._ensemble``) reduce through the same code.
    Pass ``records[records.tau <= k]`` for the curve up to horizon k.
    """
    if weighting not in ("pooled", "equal-technology"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if not records:
        raise ValueError("no records to aggregate")
    sums, counts = _sums_by_technology(records)
    n_forecasts = counts.sum(axis=0)
    observed = np.flatnonzero(n_forecasts)
    return ErrorGrowthCurve(
        taus=observed + 1,
        xi=_xi(sums, counts, weighting)[observed],
        n_forecasts=n_forecasts[observed],
        n_technologies=np.count_nonzero(counts, axis=0)[observed],
        weighting=weighting,
        m=records.m,
    )


class Ecdf:
    """Empirical CDF, evaluated on a grid."""

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("empty sample")
        self.values = np.sort(values)
        self.n = values.size

    def __call__(self, x) -> np.ndarray:
        """P(sample <= x), vectorized over x."""
        return np.searchsorted(self.values, np.asarray(x, dtype=float), side="right") / self.n


def _rescale_divisors(tau: np.ndarray, m: int, theta: float) -> np.ndarray:
    """Each record's normalized error / eps*: sqrt(A*(tau, m, theta)/(1+theta^2)) at its tau."""
    taus, horizon = np.unique(tau, return_inverse=True)
    return np.array([rescale_scale(variance_factors(int(t), m, theta)) for t in taus])[horizon]


def pooled_rescaled_distribution(records: HindcastRecords, theta: float) -> Ecdf:
    """ECDF of the rescaled normalized errors eps* of all records.

    The records' window size m must exceed 3; each record's normalized
    error is divided by sqrt(A*(tau, m, theta)/(1+theta^2)). Pass
    ``records[records.tau == t]`` for the ECDF of one horizon.
    """
    if not records:
        raise ValueError("no records to pool")
    return Ecdf(records.norm_error / _rescale_divisors(records.tau, records.m, theta))


def bias_test(records: HindcastRecords, tau: int) -> float:
    """Nominal two-sided t-test that rescaled errors at one horizon have mean 0.

    Rescaling by the (constant) variance factor does not change the t
    statistic, so it runs on the normalized errors directly. Records at one
    horizon overlap in time and are correlated; the p-value is therefore
    nominal and suited to description, not strict inference.
    """
    values = records.norm_error[records.tau == tau]
    if values.size < 2:
        raise ValueError(f"need at least 2 records at horizon {tau}, got {values.size}")
    lower = one_sided_t_test(values)  # zero variance: p = 1 at mean 0, else 0
    return 2.0 * min(lower, 1.0 - lower)


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes it as one field of a row."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])  # a second field: a lone "" would be quoted
    return buffer.getvalue()[: -len(",\r\n")]


_RUNS_PER_WRITE = 256  # origins written together; x10's records: 0.9 MB traced, 2.6 MB at 1,024


def write_records_csv(path: str | Path, records: HindcastRecords) -> None:
    """One row per record, as the csv module writes it.

    The records of one forecast origin share its technology, ``t0_year``,
    ``mu_hat`` and ``K_hat``, so the rows come in runs: consecutive records
    equal in those four columns, the two floats compared as bits (``0.0`` and
    ``-0.0``, or two NaN payloads, start a new run). Each name is quoted once;
    each run's ``name,t0_year,`` head and ``,mu_hat,K_hat`` tail are formatted
    once, into a row template that leaves ``tau`` and the two errors open (a
    ``%`` in a name is doubled there), and the run's rows are then filled in
    with one ``%`` call. Runs are converted and written ``_RUNS_PER_WRITE`` at
    a time, so the memory held does not grow with the number of records.
    """
    n = len(records)
    mu_hat = np.asarray(records.mu_hat, dtype=np.float64)
    k_hat = np.asarray(records.k_hat, dtype=np.float64)
    starts_run = np.zeros(n, dtype=bool)
    starts_run[:1] = True
    for key in (records.tech, records.origin_year, mu_hat.view(np.int64), k_hat.view(np.int64)):
        starts_run[1:] |= key[1:] != key[:-1]
    bounds = np.append(np.flatnonzero(starts_run), n)
    names = [_csv_field(name).replace("%", "%%") for name in records.names]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("technology,t0_year,tau,raw_error,norm_error,mu_hat,K_hat\r\n")
        for first in range(0, bounds.size - 1, _RUNS_PER_WRITE):
            runs = bounds[first : first + _RUNS_PER_WRITE + 1]
            a, z = int(runs[0]), int(runs[-1])
            values = [None] * (3 * (z - a))  # tau, raw_error, norm_error of each record in turn
            for j, column in enumerate((records.tau, records.raw_error, records.norm_error)):
                values[j::3] = column[a:z].tolist()
            heads = zip(*(c[runs[:-1]].tolist() for c in (records.tech, records.origin_year, mu_hat, k_hat)))
            lines = (runs - a).tolist()
            handle.write("".join(
                f"{names[t]},{y},%s,%.10g,%.10g,{mu:.10g},{k:.10g}\r\n" * (q - p) % tuple(values[3 * p : 3 * q])
                for (t, y, mu, k), p, q in zip(heads, lines, lines[1:])
            ))


def _curve_table(curve: ErrorGrowthCurve, m: int, theta: float) -> dict[str, list]:
    """The curve's columns with the analytic Xi predictions at theta = 0 and the given theta."""
    taus = curve.taus.tolist()
    return {
        "tau": taus,
        "n_forecasts": curve.n_forecasts.tolist(),
        "n_technologies": curve.n_technologies.tolist(),
        "xi_empirical": curve.xi.tolist(),
        "xi_pred_theta0": [variance_factors(t, m, 0.0).xi for t in taus],
        "xi_pred_theta": [variance_factors(t, m, theta).xi for t in taus],
    }


def write_error_growth_csv(
    path: str | Path,
    curve: ErrorGrowthCurve,
    m: int,
    theta: float,
) -> None:
    """Curve CSV with the analytic predictions at theta = 0 and the given theta."""
    table = _curve_table(curve, m, theta)
    tau, n_forecasts, n_technologies, *xi = table.values()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.keys())
        writer.writerows(zip(tau, n_forecasts, n_technologies, *(map("{:.10g}".format, c) for c in xi)))
