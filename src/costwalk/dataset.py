"""Corpus ingestion, improving-technology selection and descriptive statistics.

The input format is a long CSV with header ``technology,year,cost`` (an
optional fourth ``sector`` column is accepted as free-form metadata, never
used in computation). Costs must be strictly positive; they are transformed
to natural-log space on ingestion. If a technology's years contain gaps,
the longest contiguous run is kept (the later run on ties) with a warning,
because every formula downstream assumes unit time steps and interpolation
would fabricate data.

A technology is classified as improving when a one-sided t-test on its
first-difference log series rejects "mean change >= 0" at the chosen level
(default 10%).

``ingest_csv`` checks each field of a row once, in one loop, and returns the
corpus as flat columns (``series._Corpus``), which build a
``TechnologySeries`` only when an item is read. The functions below read
those columns (a list of series is copied into them once): the drift,
volatility and equal-change test of every series come from one
length-grouped array pass (``series._change_moments``), whose values equal
numpy's per-series ones as bits, and ``summarize_corpus`` fits the MA models
of a subset of the same columns.

The package also bundles full-sample summary parameters (drift, volatility,
MA coefficient, sample length) for a 66-technology historical corpus drawn
from the Santa Fe Institute Performance Curve DataBase and supplements; see
``load_reference_params``. These summaries parameterize surrogate corpora
and desk-scale experiments when the underlying cost series are not at hand.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import models
from .series import TechnologySeries, _change_moments, _columns, _Corpus
from .stats import OlsFit, ols_fit, one_sided_t_p_value

__all__ = [
    "DataFormatError",
    "DataWarning",
    "SeriesSummary",
    "MuKRegression",
    "ingest_csv",
    "write_corpus_csv",
    "select_improving",
    "summarize_corpus",
    "mu_k_regression",
    "write_summary_csv",
    "load_reference_params",
    "corpus_template",
]

DEFAULT_ALPHA = 0.10


class DataFormatError(ValueError):
    """Malformed or inconsistent input data."""


class DataWarning(UserWarning):
    """Non-fatal data issue (gaps dropped, degenerate rows excluded...)."""


@dataclass(frozen=True)
class SeriesSummary:
    """Full-sample descriptive statistics for one technology.

    ``mu_full`` and ``k_full`` are the mean and Bessel-corrected standard
    deviation of the annual log-cost changes; ``theta_full`` is the MA(1)
    coefficient from the IMA maximum likelihood fit (NaN when the series is
    too short to fit); ``p_value`` is the one-sided improving-trend test.
    """

    name: str
    sector: str
    n_obs: int
    mu_full: float
    k_full: float
    theta_full: float
    theta_boundary: bool
    p_value: float
    improving: bool


@dataclass(frozen=True)
class MuKRegression:
    """Volatility-vs-drift fits over the improving technologies.

    ``linear`` regresses K on mu; ``log_log`` regresses ln K on ln(-mu)
    (technologies with mu >= 0 or K = 0 are excluded from the latter).
    """

    linear: OlsFit
    log_log: OlsFit
    n_linear: int
    n_log_log: int


def _longest_run(years: np.ndarray) -> tuple[int, int]:
    """Bounds (start, stop) of the longest consecutive run; later run wins ties."""
    breaks = np.flatnonzero(np.diff(years) != 1)
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks + 1, [years.size]))
    lengths = stops - starts
    best = int(np.flatnonzero(lengths == lengths.max())[-1])
    return int(starts[best]), int(stops[best])


def ingest_csv(path: str | Path) -> Sequence[TechnologySeries]:
    """Read a long-format cost CSV into one series per technology, in name
    order, as a read-only sequence that builds each series on access.

    Hard errors (``DataFormatError``): missing/invalid header, unparseable
    rows (out-of-int64 years and oversized fields too), nonpositive costs,
    duplicate (technology, year) pairs. Gap years reduce a technology to its
    longest contiguous run with a ``DataWarning`` naming the dropped span;
    technologies left with fewer than 2 points are dropped with a warning.
    An error names the physical line its row starts on.
    """
    path = Path(path)
    by_tech: dict[str, dict[int, float]] = {}
    sectors: dict[str, str] = {}
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: file is empty")
            header = [cell.strip().lower() for cell in header]
            if header[:3] != ["technology", "year", "cost"]:
                raise DataFormatError(
                    f"{path}: expected header 'technology,year,cost', got {','.join(header)}"
                )
            has_sector = len(header) > 3 and header[3] == "sector"
            end = reader.line_num  # a row starts on the line after the previous one ends
            for row in reader:  # a quoted cell can span lines
                line_no, end = end + 1, reader.line_num
                if len(row) < 3 or not (tech := row[0].strip()):
                    if not "".join(row).strip():  # no cells, or only blank ones
                        continue
                    if len(row) < 3:
                        raise DataFormatError(
                            f"line {line_no}: expected at least 3 columns, got {len(row)}"
                        )
                    raise DataFormatError(f"line {line_no}: empty technology name")
                try:
                    year = int(row[1].strip())
                except ValueError:
                    raise DataFormatError(f"line {line_no}: year {row[1]!r} is not an integer") from None
                if not -(2**63) <= year < 2**63:
                    raise DataFormatError(f"line {line_no}: year {row[1]!r} is outside the int64 range")
                text = row[2].strip()
                try:
                    cost = float(text)
                except ValueError:
                    raise DataFormatError(f"line {line_no}: cost {text!r} is not a number") from None
                if not 0.0 < cost < math.inf:  # NaN fails too
                    raise DataFormatError(
                        f"line {line_no}: cost must be a finite positive number, got {text}"
                    )
                obs = by_tech.setdefault(tech, {})
                if year in obs:
                    raise DataFormatError(f"line {line_no}: duplicate observation for ({tech}, {year})")
                obs[year] = cost
                if has_sector and len(row) > 3 and (sector := row[3].strip()):
                    sectors[tech] = sector
        except csv.Error as exc:
            raise DataFormatError(f"line {reader.line_num}: {exc}") from None

    names, lengths, kept_years, costs = [], [], [], []
    for tech, obs in sorted(by_tech.items()):
        years = sorted(obs)
        if years[-1] - years[0] != len(years) - 1:  # distinct sorted years with a gap
            start, stop = _longest_run(np.array(years, dtype=np.int64))
            kept = f"{years[start]}-{years[stop - 1]}"
            dropped = years[:start] + years[stop:]
            warnings.warn(
                f"{tech}: years are not contiguous; keeping {kept} and dropping {dropped}",
                DataWarning,
                stacklevel=2,
            )
            years = years[start:stop]
        if len(years) < 2:
            warnings.warn(
                f"{tech}: fewer than 2 contiguous observations, series dropped",
                DataWarning,
                stacklevel=2,
            )
            continue
        names.append(tech)
        lengths.append(len(years))
        kept_years += years
        costs += map(obs.__getitem__, years)
    log_costs = np.array(list(map(math.log, costs)), dtype=np.float64)
    kept_sectors = [sectors.get(tech, "") for tech in names]
    return _Corpus(names, kept_sectors, lengths, np.array(kept_years, dtype=np.int64), log_costs)


def write_corpus_csv(path: str | Path, corpus: Iterable[TechnologySeries]) -> None:
    """Serialize series back to the long input format (costs with full precision)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["technology", "year", "cost", "sector"])
        for series in corpus:
            for year, log_cost in zip(series.years, series.log_costs):
                writer.writerow([series.name, int(year), repr(math.exp(log_cost)), series.sector])


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def _moments(corpus: _Corpus, why: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_change_moments`` of every series; the first series with fewer than
    3 points raises, ``why`` formatted with its length ending the message."""
    short = np.flatnonzero(corpus.lengths < 3)
    if short.size:
        i = int(short[0])
        raise ValueError(f"{corpus.names[i]}: need at least 3 observations{why.format(corpus.lengths[i])}")
    return _change_moments(corpus)[1:]


def select_improving(
    corpus: Sequence[TechnologySeries], alpha: float = DEFAULT_ALPHA
) -> tuple[Sequence[TechnologySeries], Sequence[TechnologySeries]]:
    """Partition a corpus into (improving, excluded) at significance ``alpha``,
    which must lie in [0, 1].

    A corpus read by ``ingest_csv`` gives two such corpora, any other
    sequence two lists of its own series. The drift and volatility of every
    series come from one length-grouped pass (``_change_moments``); each trend
    p-value is ``one_sided_t_test`` of the series' log changes, as bits.
    """
    _check_alpha(alpha)
    columns = _columns(corpus)
    mu, k, _ = _moments(columns, " to test the trend")
    moments = zip(mu.tolist(), k.tolist(), columns.lengths.tolist())
    p = [one_sided_t_p_value(mean, sd, n - 1) for mean, sd, n in moments]
    improving = [i for i, q in enumerate(p) if q < alpha]
    excluded = [i for i, q in enumerate(p) if not q < alpha]
    if isinstance(corpus, _Corpus):
        return corpus.take(improving), corpus.take(excluded)
    return [corpus[i] for i in improving], [corpus[i] for i in excluded]


def summarize_corpus(
    corpus: Sequence[TechnologySeries], alpha: float = DEFAULT_ALPHA
) -> list[SeriesSummary]:
    """Full-sample summary of every series: drift, volatility, MA coefficient,
    trend p-value.

    The drift, volatility and equal-change test of every series come from
    one length-grouped pass over the corpus (``_change_moments``). The MA
    coefficient comes from the IMA maximum likelihood fit with its own free
    mean; the series with at least 4 points, unequal log changes and K > 0
    are fitted together, by ``fit_ima_mle_corpus`` of their columns. Equal
    log changes (K = 0, or K rounded just above 0) give theta = 0
    by convention since the coefficient is unidentified; other series with
    fewer than 4 points report NaN. ``alpha`` must lie in [0, 1].
    """
    _check_alpha(alpha)
    corpus = _columns(corpus)
    mu, k, flat = _moments(corpus, ", got {}")
    flat |= k == 0.0  # K = 0 can also come from squares that underflow
    fitted = np.flatnonzero((corpus.lengths >= 4) & ~flat).tolist()  # none to reject before the fit
    fits = dict(zip(fitted, models.fit_ima_mle_corpus(corpus.take(fitted))))
    summaries = []
    columns = zip(corpus.names, corpus.sectors, corpus.lengths.tolist(), mu.tolist(), k.tolist())
    for i, (name, sector, n_obs, mu_full, k_full) in enumerate(columns):
        if i in fits:
            theta, boundary = fits[i].theta, fits[i].boundary
        else:
            theta, boundary = 0.0 if flat[i] else math.nan, False
        p_value = one_sided_t_p_value(mu_full, k_full, n_obs - 1)
        summaries.append(
            SeriesSummary(
                name=name,
                sector=sector,
                n_obs=n_obs,
                mu_full=mu_full,
                k_full=k_full,
                theta_full=theta,
                theta_boundary=boundary,
                p_value=p_value,
                improving=p_value < alpha,
            )
        )
    return summaries


def mu_k_regression(summaries: Sequence[SeriesSummary]) -> MuKRegression:
    """Fit K on mu (linear) and ln K on ln(-mu) over improving technologies."""
    used = [s for s in summaries if s.improving]
    if len(used) < 3:
        raise ValueError(f"need at least 3 improving technologies, got {len(used)}")
    mu = np.array([s.mu_full for s in used])
    k = np.array([s.k_full for s in used])
    linear = ols_fit(mu, k)

    ok = (mu < 0) & (k > 0)
    if np.count_nonzero(~ok):
        bad = [s.name for s, good in zip(used, ok) if not good]
        warnings.warn(
            f"log-log fit excludes {len(bad)} technologies with mu >= 0 or K = 0: {bad}",
            DataWarning,
            stacklevel=2,
        )
    if np.count_nonzero(ok) < 3:
        raise ValueError("need at least 3 technologies with mu < 0 and K > 0 for the log-log fit")
    log_log = ols_fit(np.log(-mu[ok]), np.log(k[ok]))
    return MuKRegression(
        linear=linear,
        log_log=log_log,
        n_linear=len(used),
        n_log_log=int(np.count_nonzero(ok)),
    )


def write_summary_csv(path: str | Path, summaries: Iterable[SeriesSummary]) -> None:
    """Emit the descriptive-statistics table, one row per technology."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["technology", "sector", "T", "mu", "p_value", "K", "theta", "improving"])
        for s in summaries:
            writer.writerow(
                [
                    s.name,
                    s.sector,
                    s.n_obs,
                    f"{s.mu_full:.6g}",
                    f"{s.p_value:.6g}",
                    f"{s.k_full:.6g}",
                    f"{s.theta_full:.6g}",
                    int(s.improving),
                ]
            )


def load_reference_params(improving_only: bool = False) -> list[SeriesSummary]:
    """Bundled 66-technology summary table (53 improving, 13 excluded).

    Each row is the ``SeriesSummary`` of one technology: a fit is flagged at
    the boundary when |theta| is within ``models.THETA_BOUNDARY_TOL`` of 1, and
    a technology is improving when its p-value is below ``DEFAULT_ALPHA``.
    """
    text = resources.files("costwalk._data").joinpath("reference_params.csv").read_text("utf-8")
    out = []
    for r in csv.DictReader(text.splitlines()):
        theta, p_value = float(r["theta"]), float(r["p_value"])
        out.append(
            SeriesSummary(
                name=r["technology"],
                sector=r["sector"],
                n_obs=int(r["T"]),
                mu_full=float(r["mu"]),
                k_full=float(r["K"]),
                theta_full=theta,
                theta_boundary=abs(abs(theta) - 1.0) < models.THETA_BOUNDARY_TOL,
                p_value=p_value,
                improving=p_value < DEFAULT_ALPHA,
            )
        )
    if improving_only:
        out = [r for r in out if r.improving]
    return out


def corpus_template(
    entries: Sequence[SeriesSummary] | Sequence[TechnologySeries],
) -> tuple[tuple[int, float, float], ...]:
    """(n_obs, mu, K) triples for surrogate-corpus generation; a series gives the
    drift and volatility that ``summarize_corpus`` reports, without fitting its MA model,
    and needs the 3 points that a volatility estimate needs."""
    series = _columns(
        entries if isinstance(entries, _Corpus) else [e for e in entries if isinstance(e, TechnologySeries)]
    )
    mu, k, _ = _moments(series, ", got {}")
    moments = zip(series.lengths.tolist(), mu.tolist(), k.tolist())
    if isinstance(entries, _Corpus):
        return tuple(moments)
    return tuple(
        next(moments) if isinstance(e, TechnologySeries) else (e.n_obs, e.mu_full, e.k_full)
        for e in entries
    )
