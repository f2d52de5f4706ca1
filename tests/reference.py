"""Reference computations and simulators that only the tests use.

``replication_errors`` and ``xi_from_errors`` run a single replication or
corpus through the library's own steps, so a test can hold the batched
engine to it bit for bit. ``hindcast_errors`` forecasts one series record by
record, the oracle of the per-series kernel. ``a_star_expanded`` is the
unsimplified form of A* that ``variance_factors`` is held to.

The simulators draw test series starting at y_0 = 0:

* ``simulate_rwd``: a random walk with drift, with normal or rescaled
  Student t increments;
* ``simulate_ima``: an IMA(1,1) path, y_t - y_{t-1} = mu + v_t + theta*v_{t-1};
* ``simulate_trend_stationary``: y_t = y0 + mu*t + e_t, purely transitory
  shocks, which contrasts shock persistence with the random walks; it is not
  a forecaster.

The library's own simulator is ``costwalk.surrogate_corpus``.

``ingest_csv`` reads the long CSV row by row, through a generator that
numbers each row's first physical line; it tests every row for blankness
and takes each cost's logarithm as its row is read. It is the oracle the
parity tests hold ``costwalk.ingest_csv``'s single loop to.
"""

import csv
import math
import warnings
from pathlib import Path

import numpy as np

from costwalk import _kernels
from costwalk.dataset import DataFormatError, DataWarning, _longest_run
from costwalk.hindcast import _cell_sums, _cells, _xi
from costwalk.models import ImaParams
from costwalk.series import TechnologySeries
from costwalk.surrogate import SurrogateConfig, _engine_plan, _innovations


def replication_errors(
    config: SurrogateConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(series_idx, tau, norm_error) of one replication, in plan order."""
    plan = _engine_plan(config)
    work = _kernels._Workspace(plan, 1)
    norm, _ = _kernels._walk_errors(plan, config.theta, config.m, _innovations(config, rng)[None], work)
    return plan.origin_series[plan.record_origin], plan.tau, norm[0]


def xi_from_errors(
    series_idx: np.ndarray, tau: np.ndarray, norm: np.ndarray, config: SurrogateConfig
) -> np.ndarray:
    """Per-horizon Xi of one replication (length tau_max, NaN where no records)."""
    shape = (len(config.template), config.tau_max)
    cell, counts = _cells(series_idx, tau, shape)
    return _xi(_cell_sums(norm[None, :], cell, shape), counts, config.weighting)[0]


def hindcast_errors(y, m: int, tau_max: int | None):
    """``costwalk._kernels.hindcast_errors`` one origin at a time.

    Each origin i = m..T-2 takes its window of m differences as a 1-D array,
    skips (and counts) a window with zero variance, and appends one record
    per horizon tau = 1..min(T-1-i, tau_max); ``tau_max=None`` caps nothing.
    Returns the same columns, dtypes and skip count as the kernel.
    """
    y = np.asarray(y, dtype=np.float64)
    T = y.size
    columns = ([], [], [], [], [], [])  # origin, tau, raw, norm, mu_hat, k_hat
    skipped = 0
    for i in range(m, T - 1):
        mu = (y[i] - y[i - m]) / m
        window = np.diff(y[i - m : i + 1])
        k2 = ((window - mu) ** 2).sum() / (m - 1)
        if not k2 > 0.0:
            skipped += 1
            continue
        k = np.sqrt(k2)
        for tau in range(1, min(T - 1 - i, T if tau_max is None else tau_max) + 1):
            raw = y[i + tau] - y[i] - mu * tau
            for column, value in zip(columns, (i, tau, raw, raw / k, mu, k)):
                column.append(value)
    ints = [np.array(c, dtype=np.int64) for c in columns[:2]]
    return (*ints, *(np.array(c, dtype=np.float64) for c in columns[2:]), skipped)


def a_star_expanded(tau: float, m: int, theta: float) -> float:
    """Unsimplified sum-of-squares form of A*; the oracle for variance_factors.

    Each term is the squared coefficient of one independent innovation in
    the forecast-error decomposition.
    """
    return (
        (tau * theta / m) ** 2
        + (m - 1) * (tau * (1.0 + theta) / m) ** 2
        + (theta - tau / m) ** 2
        + (tau - 1.0) * (1.0 + theta) ** 2
        + 1.0
    )


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


def _parse_positive_cost(text: str, line_no: int) -> float:
    try:
        cost = float(text)
    except ValueError:
        raise DataFormatError(f"line {line_no}: cost {text!r} is not a number") from None
    if not math.isfinite(cost) or cost <= 0.0:
        raise DataFormatError(f"line {line_no}: cost must be a finite positive number, got {text}")
    return cost


def _rows(reader):
    """(line, row) for each row of a ``csv.reader``, line being the physical line the row
    starts on; a csv error becomes a ``DataFormatError`` naming the line."""
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1  # a quoted cell can span lines
    except csv.Error as exc:
        raise DataFormatError(f"line {reader.line_num}: {exc}") from None


def ingest_csv(path: str | Path) -> list[TechnologySeries]:
    """``costwalk.ingest_csv`` row by row: the oracle its one-pass loop is held to.

    Hard errors (``DataFormatError``): missing/invalid header, unparseable
    rows (out-of-int64 years and oversized fields too), nonpositive costs,
    duplicate (technology, year) pairs. Gap years reduce a technology to its
    longest contiguous run with a ``DataWarning`` naming the dropped span;
    technologies left with fewer than 2 points are dropped with a warning.
    """
    path = Path(path)
    by_tech: dict[str, dict[int, float]] = {}
    sectors: dict[str, str] = {}
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = _rows(csv.reader(handle))
        try:
            _, header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: file is empty") from None
        header = [cell.strip().lower() for cell in header]
        if header[:3] != ["technology", "year", "cost"]:
            raise DataFormatError(
                f"{path}: expected header 'technology,year,cost', got {','.join(header)}"
            )
        has_sector = len(header) > 3 and header[3] == "sector"
        for line_no, row in reader:
            if not "".join(row).strip():  # no cells, or only blank ones
                continue
            if len(row) < 3:
                raise DataFormatError(f"line {line_no}: expected at least 3 columns, got {len(row)}")
            tech = row[0].strip()
            if not tech:
                raise DataFormatError(f"line {line_no}: empty technology name")
            try:
                year = int(row[1].strip())
            except ValueError:
                raise DataFormatError(f"line {line_no}: year {row[1]!r} is not an integer") from None
            if not -(2**63) <= year < 2**63:
                raise DataFormatError(f"line {line_no}: year {row[1]!r} is outside the int64 range")
            cost = _parse_positive_cost(row[2].strip(), line_no)
            obs = by_tech.setdefault(tech, {})
            if year in obs:
                raise DataFormatError(f"line {line_no}: duplicate observation for ({tech}, {year})")
            obs[year] = math.log(cost)
            if has_sector and len(row) > 3 and row[3].strip():
                sectors[tech] = row[3].strip()

    out: list[TechnologySeries] = []
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
        out.append(
            TechnologySeries(
                name=tech,
                years=np.array(years, dtype=np.int64),
                log_costs=np.array([obs[y] for y in years]),
                sector=sectors.get(tech, ""),
            )
        )
    return out
