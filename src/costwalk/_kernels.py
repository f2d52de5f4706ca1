"""The numpy hindcast kernels.

``hindcast_errors`` is the observed-data path, one series per call; it
gathers each origin's window of differences with one take, and selects
origins only when a window has zero variance. Every surrogate-side hindcast
takes the other path: an index plan (``_build_plan``) lays all series of a
corpus out side by side, and one window helper (``_window_errors``) computes
every record's normalized error from the laid out levels.
``corpus_norm_errors`` runs it on one corpus, the surrogate engine on many.
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
# array. The bundled 53-series template (6,391 records at m = 5, tau_max = 20)
# then runs 2 replications per pass. Larger passes were slower per
# replication on a 2-core Xeon with 2 MB of L2 cache per core (5 per pass
# took about 1.5x as long), because record-sized temporaries leave the cache.
# Speed also depends on the order in which a pass allocates and frees its
# arrays, because glibc can return freed heap to the system and the next
# pass then faults it back in: freeing the laid-out innovations before the
# window step made `validate` 10-20% slower there. Time pass changes end to
# end.
_CHUNK_ELEMENTS = 1 << 14


def backend() -> str:
    """Name of the kernel implementation, recorded in run manifests."""
    return "fallback"


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _integer(name: str, value) -> int:
    """``value`` as an int, if it is a whole number such as 5, 5.0 or np.int64(5)."""
    whole = isinstance(value, (float, np.floating)) and value.is_integer()
    if not (whole or isinstance(value, (int, np.integer))):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_window(m, tau_max) -> tuple[int, int | None]:
    """m and tau_max as ints (a None cap stays None), if m >= 2 and tau_max >= 1."""
    m = _integer("m", m)
    if m < 2:
        raise ValueError(f"window must contain at least 2 differences, got m={m}")
    if tau_max is not None:
        tau_max = _integer("tau_max", tau_max)
        if tau_max < 1:
            raise ValueError(f"tau_max must be >= 1, got {tau_max}")
    return m, tau_max


def _ranges(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    starts = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)


def _window_estimates(y_origin, y_start, windows, m: int) -> tuple[np.ndarray, np.ndarray]:
    """mu_hat and K_hat^2 of windows of m differences (the last axis of
    ``windows``) from the levels at their origins and where they start."""
    mu = (y_origin - y_start) / m
    k2 = ((windows - mu[..., None]) ** 2).sum(axis=-1) / (m - 1)
    return mu, k2


def hindcast_errors(y, m, tau_max):
    """Exhaustive rolling-origin forecast errors for one series.

    Returns (origin_idx, tau, raw, norm, mu_hat, k_hat, n_skipped); the
    first six are aligned per-record arrays, n_skipped counts zero-variance
    windows whose records were dropped.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    m, tau_max = _check_window(m, tau_max)
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

    A pass lays series j out in row j of a (series, width) array padded to
    the longest series, for the levels y and the first differences d alike;
    every index is a flat position in that layout. Origins are the feasible
    forecast origins i = m..T-2 of every series with T >= m + 2, or only of
    the series that ``_build_plan``'s optional ``hindcast`` mask marks; records
    are ordered by series, origin and horizon, as in ``hindcast_errors``.
    ``window`` holds the positions of each origin's m window differences, so a
    pass gathers every window with one take instead of building the index.
    """

    n_series: int
    width: int
    draws: np.ndarray  # position of each point of each series, series after series
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
    width = int(lengths.max(initial=0))
    series = np.arange(lengths.size, dtype=np.int64)
    draws = np.repeat(series * width, lengths) + _ranges(lengths)
    n_origins = np.maximum(lengths - 1 - m, 0)
    if hindcast is not None:
        n_origins[~np.asarray(hindcast, dtype=bool)] = 0
    origin_series = np.repeat(series, n_origins)
    origin_at = _ranges(n_origins) + m
    origin = origin_series * width + origin_at
    n_tau = np.minimum(lengths[origin_series] - 1 - origin_at, tau_max)
    record_origin = np.repeat(np.arange(origin.size, dtype=np.int64), n_tau)
    tau = _ranges(n_tau) + 1
    chunk = max(1, _CHUNK_ELEMENTS // max(1, tau.size, origin.size * m, lengths.size * width))
    return _Plan(
        n_series=lengths.size,
        width=width,
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


def _layout(plan: _Plan, values: np.ndarray) -> np.ndarray:
    """(rows, series, width) array of (rows, points) values, zero-padded."""
    rows = values.shape[0]
    out = np.zeros((rows, plan.n_series, plan.width))
    flat = out.reshape(rows, -1)
    for b in range(rows):
        flat[b, plan.draws] = values[b]
    return out


def _flat_with_differences(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Laid-out levels y and their first differences d, each flat per row."""
    d = np.zeros_like(y)
    np.subtract(y[:, :, 1:], y[:, :, :-1], out=d[:, :, :-1])
    rows = y.shape[0]
    return y.reshape(rows, -1), d.reshape(rows, -1)


def _levels(theta: float, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat levels and differences of the drift-free walks
    y[t] = y[t-1] + v[t] + theta*v[t-1], y[0] = 0, from laid-out innovations
    v, one corpus per row."""
    y = np.zeros_like(v)
    y[:, :, 1:] = np.cumsum(v[:, :, 1:] + theta * v[:, :, :-1], axis=-1)
    return _flat_with_differences(y)


def _at(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    return np.take(a, index, axis=1)


def _window_moments(
    plan: _Plan, y: np.ndarray, d: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per row of the flat layouts y and d, and per origin: y[i], mu_hat, the
    m window differences (origins x m), and K_hat^2."""
    y_origin = _at(y, plan.origin)
    windows = _at(d, plan.window)
    mu, k2 = _window_estimates(y_origin, _at(y, plan.window_start), windows, m)
    return y_origin, mu, windows, k2


def _window_errors(
    plan: _Plan, y: np.ndarray, d: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """(rows, records) normalized errors of the flat layouts y and d, in plan
    order, and the mask of records to keep, or None if no window has zero variance."""
    y_origin, mu, windows, k2 = _window_moments(plan, y, d, m)
    del windows
    k_hat = np.sqrt(k2)
    o = plan.record_origin
    # the raw errors y[i + tau] - y[i] - mu_hat * tau, in place, so that a large
    # template needs few record-sized temporaries
    norm = _at(y, plan.target)
    norm -= _at(y_origin, o)
    norm -= _at(mu, o) * plan.horizon
    with np.errstate(divide="ignore", invalid="ignore"):
        norm /= _at(k_hat, o)  # zero-variance origins are masked out below
    keep = k2 > 0.0
    return norm, (None if keep.all() else keep[:, o])


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
    m, tau_max = _check_window(m, tau_max)

    plan = _build_plan(lengths, m, tau_max)
    v = _layout(plan, innovations[None])
    norm, keep = _window_errors(plan, *_levels(theta, v), m)
    keep = np.ones(plan.tau.size, dtype=bool) if keep is None else keep[0]
    n_skipped = int(np.count_nonzero(~keep[plan.tau == 1]))  # one horizon-1 record per origin
    series_idx = plan.origin_series[plan.record_origin]
    return series_idx[keep], plan.tau[keep], norm[0, keep], n_skipped
