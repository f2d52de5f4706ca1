"""The numpy hindcast kernels.

``hindcast_errors`` is the observed-data path; ``corpus_norm_errors`` is the
per-series reference for the surrogate engine. The batched engine in
``surrogate.py`` repeats the arithmetic of ``corpus_norm_errors`` operation
for operation and is tested to match it bit for bit, so a change to the
order of operations here must be made there too.

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

import numpy as np

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def backend() -> str:
    """Name of the kernel implementation, recorded in run manifests."""
    return "fallback"


def hindcast_errors(y, m, tau_max):
    """Exhaustive rolling-origin forecast errors for one series.

    Returns (origin_idx, tau, raw, norm, mu_hat, k_hat, n_skipped); the
    first six are aligned per-record arrays, n_skipped counts zero-variance
    windows whose records were dropped.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    m = int(m)
    tau_max = int(tau_max)
    if m < 2:
        raise ValueError(f"window must contain at least 2 differences, got m={m}")
    if tau_max < 1:
        raise ValueError(f"tau_max must be >= 1, got {tau_max}")
    T = y.size
    if T < m + 2:
        return (_EMPTY_I, _EMPTY_I, _EMPTY_F, _EMPTY_F, _EMPTY_F, _EMPTY_F, 0)

    d = np.diff(y)
    origins = np.arange(m, T - 1, dtype=np.int64)
    mu = (y[origins] - y[origins - m]) / m
    windows = np.lib.stride_tricks.sliding_window_view(d, m)[: origins.size]
    k2 = ((windows - mu[:, None]) ** 2).sum(axis=1) / (m - 1)

    keep = k2 > 0.0
    n_skipped = int(np.count_nonzero(~keep))
    origins = origins[keep]
    mu = mu[keep]
    k_hat = np.sqrt(k2[keep])

    n_tau = np.minimum(T - 1 - origins, tau_max)
    total = int(n_tau.sum())
    rec = np.repeat(np.arange(origins.size), n_tau)
    starts = np.concatenate(([0], np.cumsum(n_tau)))[:-1]
    tau = (np.arange(total, dtype=np.int64) - starts[rec]) + 1

    o = origins[rec]
    raw = y[o + tau] - y[o] - mu[rec] * tau
    norm = raw / k_hat[rec]
    return (o, tau, raw, norm, mu[rec], k_hat[rec], n_skipped)


def corpus_norm_errors(lengths, drifts, theta, innovations, m, tau_max):
    """Simulate one corpus of correlated random walks and hindcast it.

    ``innovations`` holds one block of T_j pre-scaled noise values v per
    series, concatenated in template order. Series j is built as y[0] = 0,
    y[t] = y[t-1] + drifts[j] + v[t] + theta*v[t-1].

    Returns (series_idx, tau, norm, n_skipped).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    drifts = np.asarray(drifts, dtype=np.float64)
    innovations = np.ascontiguousarray(innovations, dtype=np.float64)
    if lengths.size != drifts.size:
        raise ValueError("lengths and drifts must have the same size")
    if int(lengths.sum()) != innovations.size:
        raise ValueError("innovations length must equal sum(lengths)")

    series_idx = []
    taus = []
    norms = []
    n_skipped = 0
    offset = 0
    for j in range(lengths.size):
        T = int(lengths[j])
        v = innovations[offset : offset + T]
        offset += T
        inc = (drifts[j] + v[1:]) + theta * v[:-1]
        y = np.concatenate(([0.0], np.cumsum(inc)))
        _, tau, _, norm, _, _, skipped = hindcast_errors(y, m, tau_max)
        n_skipped += skipped
        if tau.size:
            series_idx.append(np.full(tau.size, j, dtype=np.int64))
            taus.append(tau)
            norms.append(norm)
    if not taus:
        return (_EMPTY_I, _EMPTY_I, _EMPTY_F, n_skipped)
    return (
        np.concatenate(series_idx),
        np.concatenate(taus),
        np.concatenate(norms),
        n_skipped,
    )
