"""One technology's annual log-cost trajectory, and ``_Corpus``: the one
corpus layout, flat columns, that ``dataset``, ``hindcast`` and the IMA fit
read, with the one pass over them that gives each series' moments."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import _read_only


@dataclass(frozen=True, eq=False)
class TechnologySeries:
    """Annual log unit-cost observations for a single technology.

    Years must be consecutive (annual step, no gaps); every formula in this
    package assumes unit time steps. ``log_costs[t]`` is the natural log of
    a strictly positive cost.
    """

    name: str
    years: np.ndarray
    log_costs: np.ndarray
    sector: str = ""

    def __post_init__(self) -> None:
        years = np.asarray(self.years, dtype=np.int64)
        log_costs = np.asarray(self.log_costs, dtype=np.float64)
        if years.ndim != 1 or log_costs.ndim != 1 or years.size != log_costs.size:
            raise ValueError(f"{self.name}: years and log_costs must be 1-d and equal length")
        if years.size < 2:
            raise ValueError(f"{self.name}: need at least 2 observations, got {years.size}")
        if (years[1:] - years[:-1] != 1).any():
            raise ValueError(f"{self.name}: years must be consecutive with step 1")
        if not np.isfinite(log_costs).all():
            raise ValueError(f"{self.name}: log costs must be finite")
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "log_costs", log_costs)

    @property
    def n_obs(self) -> int:
        """Number of annual observations (T)."""
        return int(self.years.size)

    def diffs(self) -> np.ndarray:
        """First differences of log cost (annual log changes)."""
        return np.diff(self.log_costs)

    def equals(self, other: "TechnologySeries") -> bool:
        """Exact equality of name, years and log costs."""
        return (
            self.name == other.name
            and np.array_equal(self.years, other.years)
            and np.array_equal(self.log_costs, other.log_costs)
        )


class _Corpus(Sequence):
    """A read-only sequence of series held as flat columns: series i is
    ``names[i]`` and ``sectors[i]``, and the span ``starts[i]:starts[i] + lengths[i]``
    of ``years`` and ``log_costs`` (back to back unless ``starts`` is given).
    Item i is built on its first read; a slice or ``take`` shares the columns.
    """

    def __init__(self, names, sectors, lengths, years, log_costs, starts=None) -> None:
        self.names, self.sectors = tuple(names), tuple(sectors)
        self.lengths = _read_only(np.array(lengths, dtype=np.int64))
        self.starts = _read_only(np.cumsum(self.lengths) - self.lengths if starts is None else starts)
        self.years, self.log_costs = _read_only(years), _read_only(log_costs)
        self._items: list = [None] * len(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        i = range(len(self))[index]  # a list's IndexError and TypeError
        if self._items[i] is None:
            span = slice(self.starts[i], self.starts[i] + self.lengths[i])
            self._items[i] = TechnologySeries(self.names[i], self.years[span], self.log_costs[span], self.sectors[i])
        return self._items[i]

    def take(self, rows) -> "_Corpus":
        rows = list(rows)
        names, sectors = [self.names[i] for i in rows], [self.sectors[i] for i in rows]
        return _Corpus(names, sectors, self.lengths[rows], self.years, self.log_costs, self.starts[rows])


def _columns(corpus: Sequence[TechnologySeries]) -> _Corpus:
    """``corpus`` if it is a ``_Corpus``, else its series copied into flat columns."""
    if isinstance(corpus, _Corpus):
        return corpus
    return _Corpus(
        [s.name for s in corpus], [s.sector for s in corpus], [s.n_obs for s in corpus],
        np.concatenate([np.empty(0, dtype=np.int64), *(s.years for s in corpus)]),
        np.concatenate([np.empty(0), *(s.log_costs for s in corpus)]),
    )


@np.errstate(over="ignore", invalid="ignore")  # huge finite changes give an infinite or NaN k
def _corpus_moments(d: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """(mu, k, flat) of each increment vector ``d[starts[j]:starts[j] + sizes[j]]``:
    its mean, its Bessel-corrected standard deviation, and whether all its values are equal.

    The vectors of one length are gathered into one (rows, n) block, and each
    statistic is one reduction along the block's rows. A row goes through the
    operations that ``ndarray.mean``, ``ndarray.std(ddof=1)`` and ``np.ptp``
    perform on that vector alone (numpy's pairwise sum of a contiguous row),
    so every value equals the vector's own, bit for bit.
    """
    mu, k, flat = np.empty(sizes.size), np.empty(sizes.size), np.empty(sizes.size, dtype=bool)
    order = np.argsort(sizes, kind="stable")  # no np.unique: it imports numpy.ma
    # the rows of each length; the slice drops the one empty group of an empty corpus
    for rows in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1)[: sizes.size]:
        size = int(sizes[rows[0]])
        block = d[starts[rows][:, None] + np.arange(size)]
        mean = np.add.reduce(block, axis=1) / size
        dev = block - mean[:, None]
        np.multiply(dev, dev, out=dev)
        mu[rows] = mean
        k[rows] = np.sqrt(np.add.reduce(dev, axis=1) / (size - 1))
        flat[rows] = block.max(axis=1) - block.min(axis=1) == 0.0
    return mu, k, flat


def _change_moments(corpus: _Corpus) -> tuple[np.ndarray, ...]:
    """(d, mu, k, flat): ``d = np.diff(corpus.log_costs)`` and the ``_corpus_moments``
    of every series' log changes; the first series whose log changes are not
    finite raises a ValueError."""
    with np.errstate(over="ignore"):  # finite log costs can lie further apart than the largest double
        d = np.diff(corpus.log_costs)
    sizes = corpus.lengths - 1
    if not np.isfinite(d).all():  # a change across two series' boundary belongs to neither
        for name, start, size in zip(corpus.names, corpus.starts.tolist(), sizes.tolist()):
            if not np.isfinite(d[start : start + size]).all():
                raise ValueError(f"{name}: log changes are not finite")
    return (d, *_corpus_moments(d, corpus.starts, sizes))
