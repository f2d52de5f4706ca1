"""Shared fixtures and helpers for the test suite."""

import csv
from pathlib import Path

import numpy as np
import pytest

from costwalk import make_rng

from reference import simulate_rwd


def synthetic_corpus_csv(path: Path, n_tech: int = 6, seed: int = 42) -> Path:
    """Write a small improving-technology corpus in the long CSV format."""
    rng = make_rng(seed)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["technology", "year", "cost", "sector"])
        for j in range(n_tech):
            n_obs = int(rng.integers(14, 30))
            series = simulate_rwd(-0.08, 0.05, n_obs, rng, name=f"tech{j:02d}", start_year=1980)
            for year, log_cost in zip(series.years, series.log_costs):
                writer.writerow([series.name, int(year), f"{100 * np.exp(log_cost):.8f}", "Synthetic"])
    return path


@pytest.fixture
def corpus_csv(tmp_path) -> Path:
    return synthetic_corpus_csv(tmp_path / "corpus.csv")
