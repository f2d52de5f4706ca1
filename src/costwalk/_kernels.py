"""The numpy hindcast kernels.

``hindcast_errors`` is the observed-data path, one series per call; it
gathers each origin's window of differences with one take, and selects
origins only when a window has zero variance. Every surrogate-side hindcast
takes the other path: an index plan (``_build_plan``) lays all series of a
corpus out in one flat row, in bands of series of like length (see
``_Plan``), ``_levels`` builds the walks band by band, and one window helper
(``_window_errors``) computes every record's normalized error from the laid
out levels. A ``_Workspace`` holds every array that this path writes, so
that many passes allocate them once. ``corpus_norm_errors`` runs the path on
one corpus, the surrogate engine on many.
Both paths, and ``models.estimate_rwd``, take mu_hat and K_hat^2 from
``_window_estimates``. Tests hold both paths to ``hindcast_errors`` bit for
bit, and it to a record-by-record oracle, so all must keep the same order of
operations.

Conventions, for a log-cost series y[0..T-1] and a window of m first
differences:

* feasible forecast origins are i = m, ..., T-2 (0-based);
* drift estimate at origin i is the telescopic mean
  mu_hat = (y[i] - y[i-m]) / m;
* volatility estimate is the Bessel-corrected standard deviation of the m
  window differences around mu_hat;
* horizons run tau = 1, ..., min(T-1-i, tau_max);
* raw error is y[i+tau] - y[i] - mu_hat*tau, normalized error divides by
  k_hat;
* origins whose window has zero variance are skipped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Replications per array pass times the size of the largest per-replication
# array (records, window differences or laid-out cells). Every pass of an
# ensemble runs in one workspace, so a larger pass costs memory and saves
# per-call overhead. The bundled 53-series template (6,391 records at m = 5,
# tau_max = 20; 1,203 cells in 5 bands for 1,002 points) runs 8 replications
# per pass. On a 2-core Xeon, 1,000 `validate` replications at theta = 0.63
# took 428, 368, 271, 248, 237 and 242 ms at 1, 2, 4, 6, 8 and 12 per pass
# (medians of 7-12 alternating runs), and each replication added to a pass
# added about 0.21 MB to the peak RSS of `validate --reps 1000`, 1.3 MB at 8
# against 2.
_CHUNK_ELEMENTS = 56_000


def backend() -> str:
    """Name of the kernel implementation, recorded in run manifests."""
    return "fallback"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int, if it is a whole number such as 5, 5.0 or np.int64(5), and >= ``low``."""
    whole = isinstance(value, (float, np.floating)) and value.is_integer()
    if not (whole or isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {int(value)}")
    return int(value)


def _check_window(m, tau_max, lengths=None) -> tuple[int, int]:
    """m and tau_max as ints, if m >= 2 and tau_max >= 1. A None cap is every horizon
    that series of these ``lengths`` reach (at least 1), and an error without them."""
    m = _integer("m", m)
    if m < 2:
        raise ValueError(f"window must contain at least 2 differences, got m={m}")
    if tau_max is None and lengths is not None:
        tau_max = max(int(np.max(lengths, initial=0)) - 1 - m, 1)
    return m, _integer("tau_max", tau_max, 1)


def _ranges(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)


def _window_estimates(
    y_origin, y_start, windows, m: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """mu_hat and K_hat^2 of windows of m differences (the last axis of
    ``windows``) from the levels at their origins and where they start. The
    squared deviations go to ``out``, windows-shaped, which may be ``windows``."""
    mu = (y_origin - y_start) / m
    deviations = np.subtract(windows, mu[..., None], out=out)
    k2 = np.multiply(deviations, deviations, out=deviations).sum(axis=-1) / (m - 1)
    return mu, k2


def hindcast_errors(y, m, tau_max):
    """Exhaustive rolling-origin forecast errors for one series.

    Returns (origin_idx, tau, raw, norm, mu_hat, k_hat, n_skipped); the
    first six are aligned per-record arrays, n_skipped counts zero-variance
    windows whose records were dropped. ``tau_max=None`` takes every horizon.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    m, tau_max = _check_window(m, tau_max, (y.size,))
    T = y.size  # below m + 2 points there is no origin, and every column is empty
    d = y[1:] - y[:-1]
    origins = np.arange(m, T - 1, dtype=np.int64)
    windows = d[origins[:, None] - np.arange(m, 0, -1)]  # d[i - m .. i - 1] of origin i
    mu, k2 = _window_estimates(y[m : T - 1], y[: origins.size], windows, m)

    keep = k2 > 0.0
    n_skipped = origins.size - int(np.count_nonzero(keep))
    if n_skipped:
        origins, mu, k2 = origins[keep], mu[keep], k2[keep]
    k_hat = np.sqrt(k2)

    # record (r, tau) of each kept origin r and horizon tau <= min(T - 1 - origin, tau_max)
    rec, col = np.nonzero(np.arange(1, min(tau_max, T - 1 - m) + 1) <= T - 1 - origins[:, None])
    o, tau = origins[rec], col + 1
    mu, k_hat = mu[rec], k_hat[rec]
    raw = y[o + tau] - y[o] - mu * tau
    return (o, tau, raw, raw / k_hat, mu, k_hat, n_skipped)


@dataclass(frozen=True)
class _Plan:
    """Static index plan for hindcasting every series of one corpus at once.

    A pass lays the series out in one flat row of ``cells`` per corpus, for
    the levels y and the first differences d alike. Series of one octave
    ceil(log2 T) form a band: ``bands`` holds each band's (first cell,
    series, width), and a band lays its series out side by side, each padded
    to the band's longest series, so that a series takes fewer than twice
    its T cells. ``series_start`` is the first cell of each series, and
    every index is a flat position in that layout. Origins are the feasible
    forecast origins i = m..T-2 of every series with T >= m + 2, or only of
    the series that ``_build_plan``'s optional ``hindcast`` mask marks;
    records are ordered by series, origin and horizon, as in
    ``hindcast_errors``, whatever the bands. ``window`` holds the positions
    of each origin's m window differences, so a pass gathers every window
    with one take instead of building the index.
    """

    cells: int
    bands: tuple[tuple[int, int, int], ...]  # (first cell, series, width) of each band
    series_start: np.ndarray  # first cell of each series
    draws: np.ndarray  # cell of each point of each series, series after series
    origin: np.ndarray  # y[i] of each origin
    window_start: np.ndarray  # y[i - m] and d[i - m], where the window starts
    window: np.ndarray  # d[i - m + k], k = 0..m-1: each origin's window, (origins, m)
    origin_series: np.ndarray  # series of each origin
    record_origin: np.ndarray  # origin of each record
    target: np.ndarray  # y[i + tau] of each record
    tau: np.ndarray  # horizon of each record
    horizon: np.ndarray  # tau as float64: mu * horizon equals mu * tau, without a cast
    chunk: int  # replications per array pass


def _build_plan(lengths, m: int, tau_max: int, hindcast=None) -> _Plan:
    lengths = np.asarray(lengths, dtype=np.int64)
    # ceil(log2 T) is the bit length of T - 1; an empty series has a band of its own
    octave = np.where(lengths > 0, np.frexp(lengths - 1)[1], -1)
    series_start = np.empty(lengths.size, dtype=np.int64)
    bands, cells = [], 0
    for k in sorted(set(octave.tolist())):
        members = np.flatnonzero(octave == k)
        width = int(lengths[members].max())
        series_start[members] = cells + width * np.arange(members.size)
        bands.append((cells, members.size, width))
        cells += members.size * width
    draws = np.repeat(series_start, lengths) + _ranges(lengths)
    n_origins = np.maximum(lengths - 1 - m, 0)
    if hindcast is not None:
        n_origins[~np.asarray(hindcast, dtype=bool)] = 0
    origin_series = np.repeat(np.arange(lengths.size, dtype=np.int64), n_origins)
    origin_at = _ranges(n_origins) + m
    origin = series_start[origin_series] + origin_at
    n_tau = np.minimum(lengths[origin_series] - 1 - origin_at, tau_max)
    record_origin = np.repeat(np.arange(origin.size, dtype=np.int64), n_tau)
    tau = _ranges(n_tau) + 1
    chunk = max(1, _CHUNK_ELEMENTS // max(1, tau.size, origin.size * m, cells))
    return _Plan(
        cells=cells,
        bands=tuple(bands),
        series_start=_read_only(series_start),
        draws=_read_only(draws),
        origin=_read_only(origin),
        window_start=_read_only(origin - m),
        window=_read_only(origin[:, None] + np.arange(-m, 0)),
        origin_series=_read_only(origin_series),
        record_origin=_read_only(record_origin),
        target=_read_only(origin[record_origin] + tau),
        tau=_read_only(tau),
        horizon=_read_only(tau.astype(np.float64)),
        chunk=chunk,
    )


class _Workspace:
    """Every array that a pass of up to ``rows`` corpora writes, allocated
    once, so that a pass allocates nothing of a layout's or a record set's size.

    ``v``, ``y`` and ``d`` are the flat layouts of the innovations, levels
    and differences; a pass writes every cell it reads, and the padding cells
    of ``v`` stay 0. ``windows`` receives each origin's window and then its
    squared deviations, ``norm`` the normalized errors, and ``scratch`` is
    one more record-sized array, free once a pass has returned its errors.
    """

    def __init__(self, plan: _Plan, rows: int):
        self.v, self.y, self.d = np.zeros((3, rows, plan.cells))
        self.windows = np.empty((rows, *plan.window.shape))
        self.norm, self.scratch = np.empty((2, rows, plan.tau.size))


def _bands(plan: _Plan, a: np.ndarray) -> list[np.ndarray]:
    """(rows, series, width) views of each band of the flat (rows, cells) layout a."""
    return [a[:, s : s + n * w].reshape(a.shape[0], n, w) for s, n, w in plan.bands]


def _layout(plan: _Plan, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(rows, points) values, series after series, written into the flat
    (rows, cells) layout ``out``, whose padding cells keep what they hold."""
    out[:, plan.draws] = values
    return out


def _flat_with_differences(plan: _Plan, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The first differences of the flat levels y, series by series, written
    into ``d``; the last cell of each padded series keeps what it holds."""
    for yb, db in zip(_bands(plan, y), _bands(plan, d)):
        np.subtract(yb[..., 1:], yb[..., :-1], out=db[..., :-1])
    return d


def _levels(plan: _Plan, theta: float, v: np.ndarray, y: np.ndarray, d: np.ndarray) -> None:
    """Flat levels y and differences d of the drift-free walks
    y[t] = y[t-1] + v[t] + theta*v[t-1], y[0] = 0, from laid-out innovations
    v, one corpus per row; the first cell of each series in y must hold 0."""
    for vb, yb, db in zip(_bands(plan, v), _bands(plan, y), _bands(plan, d)):
        steps = db[..., :-1]  # d holds the increments until the differences replace them
        np.multiply(vb[..., :-1], theta, out=steps)
        np.add(vb[..., 1:], steps, out=steps)
        np.cumsum(steps, axis=-1, out=yb[..., 1:])
    _flat_with_differences(plan, y, d)


def _at(a: np.ndarray, index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # mode="clip" writes straight into out, where the default mode buffers it
    return np.take(a, index, axis=1, out=out, mode="clip")


def _window_moments(
    plan: _Plan, y: np.ndarray, d: np.ndarray, m: int, windows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of the flat layouts y and d, and per origin: y[i], mu_hat and
    K_hat^2. The (rows, origins, m) ``windows``, allocated if None, receives
    the m window differences of each origin and then their squared deviations."""
    y_origin = _at(y, plan.origin)
    windows = _at(d, plan.window, windows)
    mu, k2 = _window_estimates(y_origin, _at(y, plan.window_start), windows, m, out=windows)
    return y_origin, mu, k2


def _window_errors(
    plan: _Plan, y: np.ndarray, d: np.ndarray, m: int, work: _Workspace
) -> tuple[np.ndarray, np.ndarray | None]:
    """(rows, records) normalized errors of the flat layouts y and d, in plan
    order, in the head of ``work.norm``, and the mask of records to keep, or
    None if no window has zero variance."""
    rows = y.shape[0]
    y_origin, mu, k2 = _window_moments(plan, y, d, m, work.windows[:rows])
    k_hat = np.sqrt(k2)
    o = plan.record_origin
    scratch = work.scratch[:rows]
    # the raw errors y[i + tau] - y[i] - mu_hat * tau, in place
    norm = _at(y, plan.target, work.norm[:rows])
    norm -= _at(y_origin, o, scratch)
    norm -= np.multiply(_at(mu, o, scratch), plan.horizon, out=scratch)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm /= _at(k_hat, o, scratch)  # zero-variance origins are masked out below
    keep = k2 > 0.0
    return norm, (None if keep.all() else keep[:, o])


def _walk_errors(
    plan: _Plan, theta: float, m: int, innovations: np.ndarray, work: _Workspace
) -> tuple[np.ndarray, np.ndarray | None]:
    """``_window_errors`` of the drift-free walks built from each row of
    (rows, points) innovations, as ``corpus_norm_errors`` builds them."""
    rows = innovations.shape[0]
    v, y, d = work.v[:rows], work.y[:rows], work.d[:rows]
    _levels(plan, theta, _layout(plan, innovations, v), y, d)
    return _window_errors(plan, y, d, m, work)


def corpus_norm_errors(lengths, theta, innovations, m, tau_max):
    """Simulate one corpus of drift-free correlated random walks and hindcast it.

    ``innovations`` holds one block of T_j noise values v per series,
    concatenated in template order. Series j is built as y[0] = 0,
    y[t] = y[t-1] + v[t] + theta*v[t-1].

    Returns (series_idx, tau, norm, n_skipped), records ordered by series,
    origin and horizon; n_skipped counts zero-variance windows.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    innovations = np.ascontiguousarray(innovations, dtype=np.float64)
    if int(lengths.sum()) != innovations.size:
        raise ValueError("innovations length must equal sum(lengths)")
    m, tau_max = _check_window(m, tau_max, lengths)

    plan = _build_plan(lengths, m, tau_max)
    norm, keep = _walk_errors(plan, theta, m, innovations[None], _Workspace(plan, 1))
    keep = np.ones(plan.tau.size, dtype=bool) if keep is None else keep[0]
    n_skipped = int(np.count_nonzero(~keep[plan.tau == 1]))  # one horizon-1 record per origin
    series_idx = plan.origin_series[plan.record_origin]
    return series_idx[keep], plan.tau[keep], norm[0, keep], n_skipped
