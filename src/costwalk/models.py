"""Generative models for annual log-cost series.

Two processes are estimated:

* random walk with drift (RWD): y_t = y_{t-1} + mu + n_t with IID noise of
  standard deviation K;
* IMA(1,1): y_t - y_{t-1} = mu + v_t + theta*v_{t-1} with v_t ~ N(0, sigma^2),
  an RWD whose increments carry lag-one correlation. The increment variance
  is K^2 = (1 + theta^2) * sigma^2.

Rolling-window estimation uses the telescopic drift estimator
mu_hat = (y_t - y_{t-m}) / m and the Bessel-corrected variance of the m
window differences. The IMA maximum likelihood fit uses the Gaussian
conditional likelihood of the differenced series (innovation recursion
started at zero), with mu and sigma profiled out analytically for each theta
and theta found by a coarse grid plus golden-section refinement on [-1, 1].
A corpus is fitted in lockstep: its series, sorted by length, run through
one vectorized recursion, which evaluates the 201 grid points of every
series together and then one golden-section step of every series at a
time. Each row of that recursion performs the floating-point operations of
a scalar recursion over its own series, so a series' fit is the same, bit
for bit, alone or in any corpus.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .series import TechnologySeries

__all__ = [
    "EstimationError",
    "RwdEstimate",
    "ImaParams",
    "estimate_rwd",
    "fit_ima_mle",
    "fit_ima_mle_corpus",
]

THETA_BOUNDARY_TOL = 1e-6

_THETA_GRID = np.linspace(-1.0, 1.0, 201)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# (row, step) cells per lockstep block: bounds the fit's working memory
_BLOCK_ELEMENTS = 1 << 15


class EstimationError(RuntimeError):
    """Raised when a likelihood is degenerate or an optimizer cannot proceed."""


@dataclass(frozen=True)
class RwdEstimate:
    """Rolling-window drift/volatility estimate anchored at a forecast origin.

    ``origin_index`` is the 0-based position of the forecast origin within
    the source series; the estimate uses the m first differences ending
    there. ``mu_hat`` equals (y[origin] - y[origin-m]) / m exactly.
    """

    mu_hat: float
    k_hat: float
    m: int
    origin_index: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"window must contain at least 2 differences, got m={self.m}")
        if self.k_hat < 0:
            raise ValueError("volatility estimate cannot be negative")


@dataclass(frozen=True)
class ImaParams:
    """Parameters of the IMA(1,1) process y_t - y_{t-1} = mu + v_t + theta*v_{t-1}."""

    mu: float
    sigma: float
    theta: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("innovation standard deviation cannot be negative")
        if abs(self.theta) > 1.0:
            raise ValueError(f"theta must lie in [-1, 1], got {self.theta}")

    @property
    def k(self) -> float:
        """Increment standard deviation: K = sigma * sqrt(1 + theta^2)."""
        return self.sigma * math.sqrt(1.0 + self.theta * self.theta)

    @property
    def boundary(self) -> bool:
        """True when the MA coefficient sits on the +-1 boundary."""
        return abs(abs(self.theta) - 1.0) < THETA_BOUNDARY_TOL


def estimate_rwd(series: TechnologySeries, origin_index: int, m: int) -> RwdEstimate:
    """Window estimate of (mu, K) from the m differences ending at the origin."""
    if m < 2:
        raise ValueError(f"window must contain at least 2 differences, got m={m}")
    T = series.n_obs
    if origin_index < m or origin_index > T - 1:
        raise ValueError(
            f"{series.name}: origin {origin_index} does not fit a window of {m} "
            f"differences in a series of {T} points"
        )
    y = series.log_costs
    mu_hat = (y[origin_index] - y[origin_index - m]) / m
    window = np.diff(y[origin_index - m : origin_index + 1])
    k2 = float(((window - mu_hat) ** 2).sum()) / (m - 1)
    return RwdEstimate(mu_hat=float(mu_hat), k_hat=math.sqrt(k2), m=m, origin_index=origin_index)


def _blocks(lengths: np.ndarray, rows_per_series: int):
    """Split length-sorted series into runs of at most ``_BLOCK_ELEMENTS``
    (row, step) cells, each run at least one series."""
    start = 0
    while start < lengths.size:
        stop = start + max(1, _BLOCK_ELEMENTS // (rows_per_series * int(lengths[start])))
        yield start, min(stop, lengths.size)
        start = stop


class _Lockstep:
    """The conditional MA(1) likelihood of many (series, theta) rows at once.

    Holds the increments of a corpus, sorted by length (longest first), in
    one zero-padded, time-major block, and evaluates rows in blocks of at
    most ``_BLOCK_ELEMENTS`` cells, all in the same buffers: the memory does
    not grow with the number of rows, and no block allocates (and faults
    in) large arrays of its own.
    """

    def __init__(self, diffs: Sequence[np.ndarray]) -> None:
        self.n = np.array([d.size for d in diffs], dtype=np.int64)
        width = int(self.n.max(initial=0))
        self.d = np.zeros((width, self.n.size))
        for j, d in enumerate(diffs):
            self.d[: d.size, j] = d
        cells = max(_BLOCK_ELEMENTS, width)
        rows = _BLOCK_ELEMENTS // max(1, int(self.n.min(initial=width)))  # rows in a block
        self._c = np.empty(2 * cells)
        self._ab = np.empty(2 * (cells + rows))
        self._v = np.empty(cells)
        self._s = np.empty(2 * rows)
        self._tmp = np.empty(2 * rows)

    def profile(self, rows: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimizing mu and residual sum of squares of series ``rows[i]`` at
        ``theta[i]``; ``rows`` must be ordered longest series first."""
        mu, rss = np.empty(rows.size), np.empty(rows.size)
        for start, stop in _blocks(self.n[rows], 1):
            self._block(rows[start:stop], theta[start:stop], mu[start:stop], rss[start:stop])
        return mu, rss

    def _block(self, rows: np.ndarray, theta: np.ndarray, mu: np.ndarray, rss: np.ndarray) -> None:
        """Profile the drift out of the conditional MA(1) likelihood.

        With the innovation recursion v_t = (d_t - mu) - theta*v_{t-1},
        v_0 = 0, the innovations are linear in mu: v_t = a_t - mu*b_t with
        a_t = d_t - theta*a_{t-1} and b_t = 1 - theta*b_{t-1}. Step t updates
        (a, b) of the leading rows that are longer than t, and each row's
        ``v*v`` is summed on its own, over its own length: every row goes
        through the floating-point operations of a scalar recursion over its
        series alone, in the same order, whatever the other rows are.
        """
        k_rows = rows.size
        n = self.n[rows]
        width = int(n[0])
        # time-major, so that each step reads and writes contiguous rows
        c = self._c[: 2 * width * k_rows].reshape(width, 2, k_rows)
        # every index is valid; "clip" writes into the strided view unbuffered
        np.take(self.d[:width], rows, axis=1, out=c[:, 0], mode="clip")
        c[:, 1] = 1.0
        ab = self._ab[: 2 * (width + 1) * k_rows].reshape(width + 1, 2, k_rows)
        ab[0] = 0.0  # ab[t + 1] = (a_t, b_t)
        s = self._s[: 2 * k_rows].reshape(2, k_rows)  # (sum of a*b, sum of b*b)
        s[:] = 0.0
        tmp = self._tmp[: 2 * k_rows].reshape(2, k_rows)
        longer = np.searchsorted(-n, -np.arange(width), side="left")  # rows with n > t
        runs = [0, *(np.flatnonzero(np.diff(longer)) + 1).tolist(), width]
        for first, stop in zip(runs[:-1], runs[1:]):  # steps that update the same rows
            k = int(longer[first])
            ab_k, b_k, c_k = ab[:, :, :k], ab[:, 1:, :k], c[:, :, :k]
            theta_k, s_k, tmp_k = theta[:k], s[:, :k], tmp[:, :k]
            for t in range(first, stop):
                np.multiply(theta_k, ab_k[t], out=tmp_k)
                np.subtract(c_k[t], tmp_k, out=ab_k[t + 1])
                np.multiply(ab_k[t + 1], b_k[t + 1], out=tmp_k)
                np.add(s_k, tmp_k, out=s_k)
        np.divide(s[0], s[1], out=mu)
        # v = a - mu*b in row-major rows, so that each row's sum of squares is
        # numpy's pairwise sum of a contiguous vector, as for a single series;
        # a row's steps past its length hold stale values and are never read
        a, b = ab[1:, 0].T, ab[1:, 1].T
        v = self._v[: width * k_rows].reshape(k_rows, width)
        edges = [0, *(np.flatnonzero(n[1:] != n[:-1]) + 1).tolist(), k_rows]
        for start, stop in zip(edges[:-1], edges[1:]):  # rows of one length
            m = int(n[start])
            v_run = v[start:stop, :m]
            np.multiply(mu[start:stop, None], b[start:stop, :m], out=v_run)
            np.subtract(a[start:stop, :m], v_run, out=v_run)
            np.multiply(v_run, v_run, out=v_run)
            rss[start:stop] = v_run.sum(axis=1)


def _nll(rss: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Concentrated negative log-likelihood of each residual sum of squares
    of ``n`` increments."""
    # math.log, not np.log: the two can differ by one ulp and flip a near-tie
    return np.array([
        0.5 * k * math.log(r / k) if 0.0 < r < math.inf else math.inf
        for r, k in zip(rss.tolist(), n.tolist())
    ])


def fit_ima_mle(series: TechnologySeries) -> ImaParams:
    """Maximum likelihood IMA(1,1) fit of the differenced series.

    Maximizes the Gaussian conditional likelihood (innovations started at
    zero) over theta in [-1, 1] with mu and sigma profiled analytically:
    a 0.01-step grid locates the optimum, golden-section refines it. A fit
    on the boundary is returned as-is; check ``ImaParams.boundary``.
    """
    return fit_ima_mle_corpus([series])[0]


def fit_ima_mle_corpus(corpus: Sequence[TechnologySeries]) -> list[ImaParams]:
    """``fit_ima_mle`` of every series, all fitted together.

    The series run in lockstep, sorted by length: the grid, then each
    golden-section step, evaluates every series at once (``_Lockstep``).
    Each fit equals the series' own ``fit_ima_mle`` as bytes. If any series
    cannot be fitted, raises the error of the first such series in corpus
    order.
    """
    return _fit_increments([s.name for s in corpus], [s.diffs() for s in corpus])


def _fit_increments(names: Sequence[str], diffs: Sequence[np.ndarray]) -> list[ImaParams]:
    """IMA(1,1) fits of the increment vectors ``diffs`` of the series ``names``,
    in lockstep; raises the error of the first vector that cannot be fitted.

    A vector shorter than 3 or whose values are all equal is rejected before
    the fit and kept out of the lockstep.
    """
    failures: dict[int, Exception] = {}
    for i, d in enumerate(diffs):
        if d.size < 3:
            failures[i] = ValueError(f"{names[i]}: need at least 4 observations, got {d.size + 1}")
        elif np.ptp(d) == 0.0:
            # equal increments leave theta unidentified and, as sigma -> 0, the likelihood unbounded
            failures[i] = EstimationError(
                f"{names[i]}: increments are constant, IMA likelihood is degenerate"
            )
    order = sorted(
        (i for i in range(len(diffs)) if i not in failures), key=lambda i: -diffs[i].size
    )
    lockstep = _Lockstep([diffs[i] for i in order])
    n = lockstep.n

    # Grid. A theta whose RSS exceeds the series' smallest positive RSS by
    # more than a relative 1e-9 has a log-likelihood larger by far more than
    # the error of math.log (under one ulp, so under 2e-13 relative for any
    # double) and of the rounding around it: it can neither beat nor tie the
    # minimum, and keeps an infinite placeholder instead of its math.log.
    grid_size = _THETA_GRID.size
    best = np.empty(n.size, dtype=np.int64)
    best_value = np.empty(n.size)
    for start, stop in _blocks(n, grid_size):
        _, rss = lockstep.profile(
            np.repeat(np.arange(start, stop), grid_size), np.tile(_THETA_GRID, stop - start)
        )
        rss = rss.reshape(stop - start, grid_size)
        usable = np.where((rss > 0.0) & np.isfinite(rss), rss, math.inf)
        row, col = np.nonzero(usable <= usable.min(axis=1, keepdims=True) * (1.0 + 1e-9))
        values = np.full(rss.shape, math.inf)
        values[row, col] = _nll(rss[row, col], n[start + row])
        best[start:stop] = np.argmin(values, axis=1)
        best_value[start:stop] = values[np.arange(stop - start), best[start:stop]]
    for row in np.flatnonzero(~np.isfinite(best_value)).tolist():
        failures[order[row]] = EstimationError(
            f"{names[order[row]]}: degenerate innovation variance, "
            "IMA likelihood is unbounded"
        )
    live = np.flatnonzero(np.isfinite(best_value))

    # golden section, one step of every series at a time until its bracket closes
    start_theta = _THETA_GRID[best[live]]
    lo = np.maximum(-1.0, start_theta - 0.01)
    hi = np.minimum(1.0, start_theta + 0.01)
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1 = _nll(lockstep.profile(live, x1)[1], n[live])
    f2 = _nll(lockstep.profile(live, x2)[1], n[live])
    for _ in range(60):
        open_ = np.flatnonzero(hi - lo >= 1e-8)
        if open_.size == 0:
            break
        left = f1[open_] < f2[open_]
        a, b = x1[open_], x2[open_]
        new_lo = np.where(left, lo[open_], a)
        new_hi = np.where(left, b, hi[open_])
        x = np.where(
            left,
            new_hi - _INV_PHI * (new_hi - new_lo),
            new_lo + _INV_PHI * (new_hi - new_lo),
        )
        f = _nll(lockstep.profile(live[open_], x)[1], n[live[open_]])
        lo[open_], hi[open_] = new_lo, new_hi
        x1[open_], x2[open_] = np.where(left, x, b), np.where(left, a, x)
        f1[open_], f2[open_] = np.where(left, f, f2[open_]), np.where(left, f1[open_], f)
    theta = np.minimum(1.0, np.maximum(-1.0, 0.5 * (lo + hi)))
    mu, rss = lockstep.profile(live, theta)
    worse = np.flatnonzero(_nll(rss, n[live]) > best_value[live])
    if worse.size:
        theta[worse] = _THETA_GRID[best[live[worse]]]
        mu[worse], rss[worse] = lockstep.profile(live[worse], theta[worse])

    fits: dict[int, ImaParams] = {}
    for row, m, r, th in zip(live.tolist(), mu.tolist(), rss.tolist(), theta.tolist()):
        i = order[row]
        if not (math.isfinite(m) and math.isfinite(r)):
            failures[i] = EstimationError(f"{names[i]}: non-finite IMA likelihood at theta={th}")
        else:
            fits[i] = ImaParams(mu=m, sigma=math.sqrt(r / int(n[row])), theta=th)
    if failures:
        raise failures[min(failures)]
    return [fits[i] for i in range(len(diffs))]
