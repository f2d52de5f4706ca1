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
A corpus is fitted in lockstep from its flat columns (``series._Corpus``),
whose one moments pass (``series._change_moments``) gives the log changes
and the equal-increment test: its series, sorted by length, run through one
vectorized recursion. The grid evaluates each block of series at the 201
shared theta values, computing the terms that depend on theta alone once
per block; the golden section then takes one step of every series at a
time. Each (series, theta) pair performs the floating-point operations of
a scalar recursion over its own series, so a series' fit is the same, bit
for bit, alone or in any corpus.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import _check_window, _integer, _window_estimates
from .series import TechnologySeries, _change_moments, _columns

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
        object.__setattr__(self, "m", _check_window(self.m, 1)[0])  # any cap: only m is checked
        if not (math.isfinite(self.mu_hat) and 0.0 <= self.k_hat < math.inf):
            raise ValueError(f"need a finite mu_hat and a finite k_hat >= 0, got {self.mu_hat}, {self.k_hat}")


@dataclass(frozen=True)
class ImaParams:
    """Parameters of the IMA(1,1) process y_t - y_{t-1} = mu + v_t + theta*v_{t-1}."""

    mu: float
    sigma: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and 0.0 <= self.sigma < math.inf):
            raise ValueError(f"need a finite mu and a finite sigma >= 0, got {self.mu}, {self.sigma}")
        if not -1.0 <= self.theta <= 1.0:
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
    T = series.n_obs
    m, _ = _check_window(m, None, (T,))
    origin_index = _integer("origin_index", origin_index)
    if origin_index < m or origin_index > T - 1:
        raise ValueError(
            f"{series.name}: origin {origin_index} does not fit a window of {m} "
            f"differences in a series of {T} points"
        )
    y = series.log_costs
    window = np.diff(y[origin_index - m : origin_index + 1])
    mu_hat, k2 = _window_estimates(y[origin_index], y[origin_index - m], window, m)
    return RwdEstimate(mu_hat=float(mu_hat), k_hat=math.sqrt(k2), m=m, origin_index=origin_index)


def _blocks(lengths: np.ndarray, rows_per_series: int):
    """Split length-sorted series into runs of at most ``_BLOCK_ELEMENTS``
    (row, step) cells, each run at least one series."""
    start = 0
    while start < lengths.size:
        stop = start + max(1, _BLOCK_ELEMENTS // (rows_per_series * int(lengths[start])))
        yield start, min(stop, lengths.size)
        start = stop


def _runs(values: np.ndarray) -> list[tuple[int, int, int]]:
    """``(start, stop, value)`` of each run of equal ``values`` (none if empty)."""
    edges = [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist(), values.size]
    return [(start, stop, int(values[start])) for start, stop in zip(edges[:-1], edges[1:]) if start < stop]


def _steps(n: np.ndarray) -> list[tuple[int, int, int]]:
    """``(first, stop, k)``: runs of steps at which the same leading ``k``
    rows of the length-sorted lengths ``n`` are longer than the step."""
    return _runs(np.searchsorted(-n, -np.arange(int(n[0])), side="left"))


class _Lockstep:
    """The conditional MA(1) likelihood of many (series, theta) pairs at once.

    With the innovation recursion v_t = (d_t - mu) - theta*v_{t-1}, v_0 = 0,
    the innovations are linear in mu: v_t = a_t - mu*b_t with
    a_t = d_t - theta*a_{t-1} and b_t = 1 - theta*b_{t-1}, so the minimizing
    mu is sum(a*b) / sum(b*b). Holds the vectors ``d[starts[j]:][:sizes[j]]``,
    longest first, in one zero-padded, time-major block, filled per run of
    one length. ``grid`` evaluates a run of series at shared theta values,
    ``profile`` each series at its own theta; both work in blocks of at most
    ``_BLOCK_ELEMENTS`` cells, all in the same buffers, so the memory does
    not grow with the number of pairs. Every pair goes through the
    floating-point operations of a scalar recursion over its series alone,
    in the same order (see ``_stage``), whatever the other pairs are.
    """

    def __init__(self, d: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> None:
        self.n = sizes
        width = int(sizes.max(initial=0))
        self.d = np.zeros((width, sizes.size))
        for first, last, m in _runs(sizes):  # every index is valid; "clip" writes unbuffered
            np.take(d, starts[first:last] + np.arange(m)[:, None], out=self.d[:m, first:last], mode="clip")
        self._cells = cells = max(_BLOCK_ELEMENTS, 2 * width)  # a theta chunk holds 2 values
        rows = max(2, _BLOCK_ELEMENTS // max(1, int(self.n.min(initial=width))))  # in a block
        self._c = np.empty(2 * cells)
        self._ab = np.empty(2 * (cells + rows))
        self._v = np.empty(cells)

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite RSS is the caller's to judge
    def grid(self, start: int, stop: int, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimizing mu and residual sum of squares of the series
        ``start:stop``, a block of ``_blocks(self.n, theta.size)``, at each of
        ``theta`` (two values or more), as (series, theta) arrays. b_t depends
        on theta alone: it is recursed once, in a row beside the a_t of the
        series, whose increments broadcast over theta. A series too long for
        one block takes theta a chunk at a time."""
        n = self.n[start:stop]
        k_rows, width = n.size, int(n[0])
        mu, rss = np.empty((k_rows, theta.size)), np.empty((k_rows, theta.size))
        c = self._c[: width * (k_rows + 1)].reshape(width, k_rows + 1, 1)
        c[:, 0], c[:, 1:, 0] = 1.0, self.d[:width, start:stop]
        size = min(theta.size, max(2, _BLOCK_ELEMENTS // (k_rows * width)))  # theta per chunk
        s = np.empty((2, k_rows, size))  # (sum of a*b, sum of b*b)
        for lo in range(0, theta.size, size):
            lo = min(lo, theta.size - size)  # the last chunk overlaps, rather than fall short
            ab = self._ab[: (width + 1) * (k_rows + 1) * size].reshape(width + 1, k_rows + 1, size)
            ab[0] = 0.0  # ab[t + 1] = (b_t, a_t of each series)
            chunk = theta[lo : lo + size]
            for first, last, k in _steps(n):
                ab_k, c_k = ab[:, : k + 1], c[:, : k + 1]
                for t in range(first, last):
                    np.multiply(chunk, ab_k[t], out=ab_k[t + 1])
                    np.subtract(c_k[t], ab_k[t + 1], out=ab_k[t + 1])
            b, a = ab[1:, :1], ab[1:, 1:]
            bb = self._c[self._cells : self._cells + width * size].reshape(width, size)
            np.multiply(b[:, 0], b[:, 0], out=bb)
            for first, last, m in _runs(n):  # rows of one length m
                ab_m = self._v[: m * (last - first) * size].reshape(m, last - first, size)
                np.multiply(a[:m, first:last], b[:m], out=ab_m)
                np.add.reduce(ab_m, axis=0, out=s[0, first:last])
                s[1, first:last] = np.add.reduce(bb[:m], axis=0)
            cols = slice(lo, lo + size)
            self._stage(a.transpose(1, 2, 0), b.transpose(1, 2, 0), s, n, mu[:, cols], rss[:, cols])
        return mu, rss

    @np.errstate(over="ignore", invalid="ignore")
    def profile(self, rows: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimizing mu and residual sum of squares of series ``rows[i]`` at
        ``theta[i]``; ``rows`` must be ordered longest series first."""
        mu, rss = np.empty(rows.size), np.empty(rows.size)
        for start, stop in _blocks(self.n[rows], 1):
            self._block(rows[start:stop], theta[start:stop], mu[start:stop], rss[start:stop])
        return mu, rss

    def _block(self, rows: np.ndarray, theta: np.ndarray, mu: np.ndarray, rss: np.ndarray) -> None:
        """``profile`` of one block: step t updates (a, b) of the leading rows
        that are longer than t, and zeroes them in the other rows."""
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
        for first, last, k in _steps(n):
            ab_k, c_k, theta_k = ab[:, :, :k], c[:, :, :k], theta[:k]
            for t in range(first, last):
                np.multiply(theta_k, ab_k[t], out=ab_k[t + 1])
                np.subtract(c_k[t], ab_k[t + 1], out=ab_k[t + 1])
            ab[first + 1 : last + 1, :, k:] = 0.0
        np.multiply(ab[1:], ab[1:, 1:], out=c)  # (a*b, b*b), zero past each row's end
        self._stage(ab[1:, 0].T, ab[1:, 1].T, np.add.reduce(c, axis=0), n, mu, rss)

    def _stage(self, a, b, s: np.ndarray, n: np.ndarray, mu: np.ndarray, rss: np.ndarray) -> None:
        """What ``grid`` and ``profile`` share: ``mu = s[0] / s[1]`` from the
        sums of a*b and b*b, and ``rss`` the sum of (a - mu*b)**2 over each
        series' own ``n`` steps, with ``a`` and ``b`` laid out (series, ...,
        step). The callers add the sums in step order: numpy reduces a
        step-major array one step at a time while its other axes hold two
        values or more (one vector it sums pairwise), and the zero products
        past a series' end change no sum. Each row of v*v is summed over its
        own length as numpy sums a contiguous vector: pairwise, as for a
        single series."""
        np.divide(s[0], s[1], out=mu)
        v = self._v[: a.size].reshape(a.shape)
        np.multiply(mu[..., None], b, out=v)
        np.subtract(a, v, out=v)
        np.multiply(v, v, out=v)
        for first, last, m in _runs(n):  # rows of one length m
            np.add.reduce(v[first:last, ..., :m], axis=-1, out=rss[first:last])


def _nll(rss: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Concentrated negative log-likelihood of each residual sum of squares
    of ``n`` increments."""
    usable = (rss > 0.0) & (rss < math.inf)
    k = n[usable]
    out = np.full(rss.shape, math.inf)
    # math.log, not np.log: the two can differ by one ulp and flip a near-tie
    out[usable] = 0.5 * k * np.fromiter(map(math.log, (rss[usable] / k).tolist()), np.float64)
    return out


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

    The series run in lockstep, sorted by length: the grid evaluates blocks
    of series at shared theta, then each golden-section step evaluates every
    series at its own theta (``_Lockstep``). A corpus read by ``ingest_csv``
    is fitted from its columns, a list of series from a copy into columns.
    Each fit equals the series' own ``fit_ima_mle`` as bytes. If any series
    cannot be fitted, raises the error of the first such series in corpus
    order; log changes that are not finite raise a ValueError before any fit.
    """
    columns = _columns(corpus)
    names, sizes = columns.names, columns.lengths - 1
    d, _, _, flat = _change_moments(columns)
    failures: dict[int, Exception] = {}
    for i in np.flatnonzero(sizes < 3).tolist():
        failures[i] = ValueError(f"{names[i]}: need at least 4 observations, got {sizes[i] + 1}")
    for i in np.flatnonzero(flat & (sizes >= 3)).tolist():
        # equal increments leave theta unidentified and, as sigma -> 0, the likelihood unbounded
        failures[i] = EstimationError(f"{names[i]}: increments are constant, IMA likelihood is degenerate")
    rows = np.flatnonzero(~flat & (sizes >= 3))
    order = rows[np.argsort(-sizes[rows], kind="stable")]  # lockstep row j is series order[j]
    starts = columns.starts[order]
    del columns  # a list's copy into columns, freed before the lockstep's buffers
    lockstep = _Lockstep(d, starts, sizes[order])
    del d  # the lockstep holds the increments it reads
    n, order = lockstep.n, order.tolist()

    # Grid. A theta whose RSS exceeds the series' smallest positive RSS by
    # more than a relative 1e-9 has a log-likelihood larger by far more than
    # the error of math.log (under one ulp, so under 2e-13 relative for any
    # double) and of the rounding around it: it can neither beat nor tie the
    # minimum, and keeps an infinite placeholder instead of its math.log.
    best = np.empty(n.size, dtype=np.int64)
    best_value = np.empty(n.size)
    for start, stop in _blocks(n, _THETA_GRID.size):
        rss = lockstep.grid(start, stop, _THETA_GRID)[1]
        usable = np.where((rss > 0.0) & np.isfinite(rss), rss, math.inf)
        row, col = np.nonzero(usable <= usable.min(axis=1, keepdims=True) * (1.0 + 1e-9))
        values = np.full(rss.shape, math.inf)
        values[row, col] = _nll(rss[row, col], n[start + row])
        best[start:stop] = np.argmin(values, axis=1)
        best_value[start:stop] = values[np.arange(stop - start), best[start:stop]]
    for row in np.flatnonzero(~np.isfinite(best_value)).tolist():
        i = order[row]
        failures[i] = EstimationError(f"{names[i]}: degenerate innovation variance, IMA likelihood is unbounded")
    live = np.flatnonzero(np.isfinite(best_value))

    # golden section, one step of every series at a time until its bracket closes
    start_theta = _THETA_GRID[best[live]]
    lo = np.maximum(-1.0, start_theta - 0.01)
    hi = np.minimum(1.0, start_theta + 0.01)
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    pairs = np.repeat(live, 2)  # the first (x1, x2) of every series in one pass
    rss = lockstep.profile(pairs, np.stack((x1, x2), axis=1).ravel())[1]
    f1, f2 = _nll(rss, n[pairs]).reshape(-1, 2).T
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
    return [fits[i] for i in range(len(names))]
