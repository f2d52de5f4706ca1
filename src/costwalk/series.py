"""The core data type: one technology's annual log-cost trajectory."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
