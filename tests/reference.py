"""Reference computations that only the tests use.

Each one runs a single replication or corpus through the library's own
steps, so a test can hold the batched engine to it bit for bit.
"""

import numpy as np

from costwalk.hindcast import _cells
from costwalk.surrogate import SurrogateConfig, _engine_plan, _innovations, _simulate, _xi_rows


def replication_errors(
    config: SurrogateConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(series_idx, tau, norm_error) of one replication, in plan order."""
    plan = _engine_plan(config)
    norm = _simulate(config, plan, _innovations(config, rng)[None])
    return plan.origin_series[plan.record_origin], plan.tau, norm[0]


def xi_from_errors(
    series_idx: np.ndarray, tau: np.ndarray, norm: np.ndarray, config: SurrogateConfig
) -> np.ndarray:
    """Per-horizon Xi of one replication (length tau_max, NaN where no records)."""
    return _xi_rows(config, _cells(series_idx, tau, config.tau_max), 1)(norm[None, :])[0]
