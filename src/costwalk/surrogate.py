"""Surrogate-data Monte Carlo: null distributions, theta estimation, robustness.

The surrogate procedure builds a parametric replica of a corpus: for each
technology it simulates a correlated-random-walk series of the same length
with the technology's own full-sample drift and volatility and a global MA
coefficient theta, then runs the identical rolling-window hindcast on the
replica. Repeating this over many noise realizations yields null
distributions for any statistic of the hindcast (error-growth curves, ECDF
deviation measures), which is the only honest way to test them: hindcast
errors overlap in time, so their correlation structure defeats textbook
sampling theory.

A normalized error depends on neither drift nor volatility, so the nulls
simulate, from one vector w of unit innovations per replication, the
drift-free walks y[t] = y[t-1] + w[t] + theta*w[t-1] of the template lengths.
A K = 0 series, whose windows all have zero variance, draws its block of w
but gets no forecast origins. ``surrogate_corpus`` keeps drifts and scales.

Every experiment at one theta runs on one numpy engine, ``_ensemble``, which
simulates a chunk of replications and hindcasts them as (replications,
records) arrays through the static index plan and the window helper of
``_kernels``, the same path ``_kernels.corpus_norm_errors`` takes on one
corpus. Once per experiment it builds the plan (each origin's window among
its index arrays) and the Xi cell keys and counts; given observed records,
it checks them and builds the t(m-1) CDF on the deviation grid (one call
per distinct |x|), the plan's eps* divisors and the observed deviation
measures. A plan costs far less than one pass, so none is cached. One loop
over the passes then turns each replication's errors into its Xi row and,
given records, its deviation row. Each replication's errors are
bit-identical to the per-series kernel ``_kernels.hindcast_errors`` run on
that replication's walks, and its rows come from the code of the observed
statistics: the Xi cell sums and their reduction, and the eps* divisor, are
``hindcast``'s, so the observed corpus and its nulls share one
implementation of each statistic.

``validate`` needs two nulls at its theta, the Xi band and the ECDF deviation
test, and reads both from one ensemble of config.replications replications
(``validation_nulls``): replication r draws once, from the "xi-band" stream,
and its normalized errors give band row r and, divided by each record's eps*
divisor, deviation row r. ``null_xi_band`` and ``distribution_deviation_test``
draw the same replications, so each returns the same rows on its own. Each
p-value is valid on its own, but the band and the deviation test are not
independent.

Theta matching needs only the mean of the null Xi at every theta of a grid,
and that mean has an exact form, so it draws no replication. The unit walk's
increments w[t] + theta*w[t-1] are a stationary MA(1), so every record of
every series has the same E[eps^2] = g(m, tau, theta), which is then the
null mean of Xi under both weightings. ``null_xi_mean`` computes g as the
expectation of a ratio of quadratic forms in normal variables. Z(theta)
therefore carries no Monte Carlo error and does not depend on the template,
which only decides the horizons Z can compare.

Everything here is deterministic given the configuration: replication r of
an experiment draws from an independent stream derived from (seed, tag, r),
so results are bit-identical however many replications share an array pass.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _kernels
from ._kernels import _build_plan, _integer, _Plan, _read_only
from .dataset import SeriesSummary, corpus_template
from .forecast import variance_factors
from .hindcast import (
    ErrorGrowthCurve,
    HindcastRecords,
    _cell_keys,
    _cell_sums,
    _cells,
    _curve_table,
    _rescale_divisors,
    _sums_by_technology,
    _xi,
    error_growth,
    hindcast_corpus,
)
from .series import TechnologySeries
from .stats import derive_rng, student_t_cdf

__all__ = [
    "SurrogateConfig",
    "NullEnsemble",
    "surrogate_corpus",
    "null_xi_band",
    "DEVIATION_STATISTICS",
    "distribution_deviation_test",
    "validation_nulls",
    "ThetaWeighted",
    "estimate_theta_weighted",
    "null_xi_mean",
    "ThetaMatched",
    "estimate_theta_matched",
    "ThetaSweep",
    "theta_forecast_sweep",
    "robustness_suite",
]

DEVIATION_GRID = np.linspace(-15.0, 15.0, 1000)
DEVIATION_STATISTICS = ("sum_abs", "sum_sq", "max_signed")  # _deviation_stats' columns

# Replication r of an experiment draws from derive_rng(seed, tag, r). Each
# experiment owns a block of tags, (first tag, number of tags), so no two
# experiments share a stream.
_STREAM_TAGS: dict[str, tuple[int, int]] = {
    "xi-band": (1, 1),  # the Xi band and the deviation test read the same draws
    # 2 stays unused: earlier deviation nulls drew from it, and reusing it would repeat their draws
    "half-corpus": (3, 1),
    # 4 and 5 stay unused too: the normal fat-tail baselines drew from them before they were exact
    "fat-tails-student": (6, 94),  # one per degrees-of-freedom value
    # 100 stays unused too: theta matching drew from it before it used the exact null mean
}


def _stream_tag(experiment: str, index: int = 0) -> int:
    first, size = _STREAM_TAGS[experiment]
    if not 0 <= index < size:
        raise ValueError(f"{experiment!r} has {size} stream tags; index {index} is out of range")
    return first + index


@dataclass(frozen=True)
class SurrogateConfig:
    """Recipe for one surrogate experiment.

    ``template`` holds one (n_obs, mu, K) triple per technology. Innovations
    are normal when ``student_df`` is None; otherwise they are Student t with
    that many degrees of freedom (more than 2), which models fat-tailed
    shocks for the robustness check and is defined only for theta = 0 (plain
    random walk). ``surrogate_corpus`` matches the lengths and parameters,
    with innovation standard deviation sigma = K/sqrt(1+theta^2) so the
    increment variance equals K^2 (Student draws rescaled to the same
    variance). Of the template, the nulls read only the lengths and which K
    are 0 (see the module docstring). At least one template series must have the m + 2
    points a hindcast needs.
    ``replications``, ``m``, ``tau_max`` and the template lengths must be
    whole numbers and are stored as ints; every length must be at least 2.
    theta must lie strictly inside (-1, 1), and every mu and K must be finite
    with K >= 0 (a K = 0 series has zero-variance windows only).
    """

    replications: int
    theta: float
    m: int
    tau_max: int
    seed: int
    template: tuple[tuple[int, float, float], ...]
    student_df: float | None = None
    weighting: str = "pooled"

    def __post_init__(self) -> None:
        object.__setattr__(self, "replications", _integer("replications", self.replications))
        m, tau_max = _kernels._check_window(self.m, self.tau_max)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "tau_max", tau_max)
        if self.replications < 1:
            raise ValueError(f"need at least 1 replication, got {self.replications}")
        if not (math.isfinite(self.theta) and abs(self.theta) < 1.0):
            raise ValueError(f"theta must lie strictly inside (-1, 1), got {self.theta!r}")
        if not self.template:
            raise ValueError("corpus template is empty")
        template = tuple((_integer("template length", n), mu, k) for n, mu, k in self.template)
        if min(t[0] for t in template) < 2:
            raise ValueError("every template series needs at least 2 points")
        for n, mu, k in template:
            if not (math.isfinite(mu) and math.isfinite(k) and k >= 0.0):
                raise ValueError(f"template series ({n}, {mu}, {k}) needs a finite mu and K >= 0")
        object.__setattr__(self, "template", template)
        if self.m < 4:
            raise ValueError(f"window m={self.m} too small; error rescaling needs m > 3")
        if max(t[0] for t in self.template) < self.m + 2:
            raise ValueError(
                f"no template series has the m + 2 = {self.m + 2} points a window-{self.m} "
                "hindcast needs"
            )
        if self.student_df is not None:
            if self.student_df <= 2:
                raise ValueError("student innovations need df > 2")
            if self.theta != 0.0:
                raise ValueError("student innovations are defined for the theta = 0 random walk")
        if self.weighting not in ("pooled", "equal-technology"):
            raise ValueError(f"unknown weighting {self.weighting!r}")

    @functools.cached_property
    def lengths(self) -> np.ndarray:
        return _read_only(np.array([t[0] for t in self.template], dtype=np.int64))

    @functools.cached_property
    def volatilities(self) -> np.ndarray:
        return _read_only(np.array([t[2] for t in self.template], dtype=np.float64))


@dataclass
class NullEnsemble:
    """Monte Carlo sample of a statistic under the surrogate null.

    ``values`` has one row per replication (columns index horizons when the
    statistic is a curve). Two p-value conventions are exposed: the raw
    share of replications at or above the observed value, and an add-one
    smoothed version (count+1)/(reps+1) that can never return 0. Both are
    NaN where the observed statistic is NaN, e.g. at a horizon the observed
    corpus never reaches. ``quantile`` is the Hyndman-Fan type 7 rule (numpy's
    "linear") over each column's non-NaN values, NaN where it has none: one
    sort, then ``np.nanquantile``'s interpolation steps, so the bits are numpy's.
    """

    statistic: str
    values: np.ndarray
    observed: np.ndarray | None = None
    taus: np.ndarray | None = None

    def quantile(self, q: float) -> np.ndarray:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q!r}")
        ordered = np.sort(self.values, axis=0)  # NaN sorts last
        last = np.count_nonzero(~np.isnan(ordered), axis=0) - 1
        virtual = last * q
        below = np.floor(virtual)
        gamma = virtual - below
        index = np.minimum(np.stack([below, below + 1.0]), last).astype(np.intp)
        a, b = np.take_along_axis(ordered, index, axis=0)
        diff = b - a
        return np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma)

    @property
    def quantiles(self) -> dict[str, np.ndarray]:
        return {
            "q025": self.quantile(0.025),
            "q500": self.quantile(0.5),
            "q975": self.quantile(0.975),
        }

    def _exceed_counts(self) -> np.ndarray:
        if self.observed is None:
            raise ValueError("no observed statistic attached")
        observed = np.asarray(self.observed, dtype=float)
        with np.errstate(invalid="ignore"):
            counts = np.nansum(self.values >= observed, axis=0)
        return np.where(np.isnan(observed), np.nan, counts)

    @property
    def p_raw(self) -> np.ndarray:
        return self._exceed_counts() / self.values.shape[0]

    @property
    def p_smoothed(self) -> np.ndarray:
        return (self._exceed_counts() + 1.0) / (self.values.shape[0] + 1.0)


def _innovations(config: SurrogateConfig, rng: np.random.Generator) -> np.ndarray:
    """Unit innovations of one corpus, series after series: standard normal,
    or Student t with ``student_df`` degrees of freedom, unscaled.

    One draw call per corpus gives the same bits as one call per series,
    because the generator consumes its stream value by value.
    """
    n = int(config.lengths.sum())
    if config.student_df is None:
        return rng.standard_normal(n)
    return rng.standard_t(float(config.student_df), n)


def surrogate_corpus(config: SurrogateConfig, rng: np.random.Generator) -> list[TechnologySeries]:
    """One simulated corpus matching the template lengths and parameters."""
    if config.student_df is None:
        scale = 1.0 / math.sqrt(1.0 + config.theta * config.theta)
    else:
        df = float(config.student_df)
        scale = math.sqrt((df - 2.0) / df)
    sigma = np.repeat(config.volatilities * scale, config.lengths)
    blocks = np.split(sigma * _innovations(config, rng), np.cumsum(config.lengths)[:-1])
    width = max(3, len(str(len(blocks) - 1)))  # names sort in template order
    corpus = []
    for j, ((n_obs, mu, _), v) in enumerate(zip(config.template, blocks)):
        increments = (mu + v[1:]) + config.theta * v[:-1]
        y = np.concatenate(([0.0], np.cumsum(increments)))
        corpus.append(
            TechnologySeries(
                name=f"surrogate-{j:0{width}d}",
                years=np.arange(1, n_obs + 1, dtype=np.int64),
                log_costs=y,
            )
        )
    return corpus


def _engine_plan(config: SurrogateConfig) -> _Plan:
    """The plan of the config's walks, where K = 0 series get no origins."""
    plan = _build_plan(config.lengths, config.m, config.tau_max, config.volatilities > 0.0)
    if plan.tau.size == 0:
        raise ValueError("no surrogate records: every series long enough for a window has K = 0")
    return plan


def _simulate(config: SurrogateConfig, plan: _Plan, innovations: np.ndarray) -> np.ndarray:
    """(rows, records) normalized hindcast errors of one corpus of walks per
    row of unit innovations.

    Row b is bit-identical to ``_kernels.hindcast_errors`` on each walk built
    from the innovations in row b. No window of a walk of continuous draws
    has zero variance, so every record of the plan is kept.
    """
    # v is held until the errors exist (see _kernels._CHUNK_ELEMENTS)
    v = _kernels._layout(plan, innovations)
    y, d = _kernels._levels(config.theta, v)
    return _kernels._window_errors(plan, y, d, config.m)[0]


def _draws(config: SurrogateConfig, plan: _Plan, tag: int) -> Iterator[tuple[slice, np.ndarray]]:
    """The replications of each array pass and their unit innovations, one row each.

    Replication r draws from stream (seed, tag, r), so what a replication
    draws does not depend on how many replications share a pass.
    """
    for start in range(0, config.replications, plan.chunk):
        stop = min(start + plan.chunk, config.replications)
        rngs = [derive_rng(config.seed, tag, rep) for rep in range(start, stop)]
        yield slice(start, stop), np.array([_innovations(config, rng) for rng in rngs])


def _ensemble(
    config: SurrogateConfig, tag: int, records: HindcastRecords | None = None
) -> tuple[np.ndarray, NullEnsemble | None]:
    """The (replications, tau_max) Xi curves of the surrogate null and, given
    records, the deviation test of the records' pooled eps* (else None).

    Replication r's walks give Xi row r and deviation row r, each through the
    code of its observed statistic, so a row is bit-identical to that
    statistic of replication r's corpus. The plan is checked before the records.
    """
    plan = _engine_plan(config)
    if records is not None:
        if records.m != config.m:
            raise ValueError(f"records use window {records.m}, config.m={config.m}")
        inside = records.tau <= config.tau_max
        if not inside.any():
            raise ValueError("no records to pool")
        t_cdf_grid = _t_cdf_grid(config.m - 1)
        eps = records.norm_error[inside] / _rescale_divisors(records.tau[inside], config.m, config.theta)
        observed = _deviation_stats(eps[None], t_cdf_grid)[0]
        del eps, inside  # the record-sized observed side is freed before the keys exist
        divisors = _rescale_divisors(plan.tau, config.m, config.theta)
        deviation = np.empty((config.replications, len(DEVIATION_STATISTICS)))
    cell = _cells(plan.origin_series[plan.record_origin], plan.tau, config.tau_max)
    key, counts = _cell_keys(cell, (len(config.template), config.tau_max), plan.chunk)
    del cell  # the passes read the keys alone
    xi = np.empty((config.replications, config.tau_max))
    for rows, innovations in _draws(config, plan, tag):
        norm = _simulate(config, plan, innovations)
        xi[rows] = _xi(*_cell_sums(norm, key, counts), config.weighting)
        if records is not None:
            deviation[rows] = _deviation_stats(norm / divisors, t_cdf_grid)
    if records is None:
        return xi, None
    return xi, NullEnsemble(statistic="ecdf-deviation", values=deviation, observed=observed)


def _check_curve(curve: ErrorGrowthCurve, config: SurrogateConfig) -> None:
    """An observed curve is compared only with nulls aggregated the same way."""
    if curve.weighting != config.weighting:
        raise ValueError(
            f"observed curve uses {curve.weighting!r} weighting, "
            f"config.weighting={config.weighting!r}"
        )
    if curve.m is not None and curve.m != config.m:
        raise ValueError(f"observed curve uses window {curve.m}, config.m={config.m}")


def _check_theta_grid(theta_grid: Sequence[float]) -> np.ndarray:
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size == 0:
        raise ValueError("theta grid is empty")
    if not np.all(np.abs(theta_grid) < 1.0):
        raise ValueError("theta grid must lie strictly inside (-1, 1)")
    return theta_grid


def _band(
    config: SurrogateConfig,
    observed_curve: ErrorGrowthCurve | None,
    records: HindcastRecords | None = None,
) -> tuple[NullEnsemble, NullEnsemble | None]:
    """The Xi band, with the observed Xi at horizons 1..tau_max (NaN where the
    curve has none), and ``_ensemble``'s deviation test from the same draws.

    The curve is checked before the ensemble, and fewer than 100 replications
    warn at the line that called the public function.
    """
    observed = None
    if observed_curve is not None:
        _check_curve(observed_curve, config)
        observed = np.full(config.tau_max, np.nan)
        for t, x in zip(observed_curve.taus, observed_curve.xi):
            if 1 <= t <= config.tau_max:
                observed[int(t) - 1] = x
    if config.replications < 100:
        warnings.warn(
            f"{config.replications} replications give unstable quantile bands; "
            "100 or more are recommended",
            stacklevel=3,
        )
    xi, deviation = _ensemble(config, _stream_tag("xi-band"), records)
    taus = np.arange(1, config.tau_max + 1, dtype=np.int64)
    return NullEnsemble(statistic="xi", values=xi, observed=observed, taus=taus), deviation


def null_xi_band(
    config: SurrogateConfig, observed_curve: ErrorGrowthCurve | None = None
) -> NullEnsemble:
    """Null ensemble of error-growth curves, with per-horizon bands.

    When an observed curve is supplied, per-horizon p-values report the
    share of replications whose Xi is at least the observed one. The curve's
    weighting and window must match the config's. Replication r draws from
    the "xi-band" stream, as in ``validation_nulls``.
    """
    return _band(config, observed_curve)[0]


def _t_cdf_grid(df: int) -> np.ndarray:
    """``student_t_cdf`` at each point of DEVIATION_GRID, as bits, from one call
    per distinct x*x, on which the CDF's tail alone depends."""
    squares = DEVIATION_GRID * DEVIATION_GRID  # return_index keeps np.unique off numpy.ma
    _, first, inverse = np.unique(squares, return_index=True, return_inverse=True)
    tail = np.array([student_t_cdf(-abs(x), df) for x in DEVIATION_GRID[first]])[inverse]
    return np.where(DEVIATION_GRID < 0.0, tail, 1.0 - tail)


def _deviation_stats(eps: np.ndarray, t_cdf_grid: np.ndarray) -> np.ndarray:
    """Three ECDF-deviation measures on the fixed grid, sum|d|, sum d^2 and
    max d, of each row of eps, (rows, records) -> (rows, 3)."""
    ordered = np.sort(eps, axis=-1)
    counts = np.array([np.searchsorted(e, DEVIATION_GRID, side="right") for e in ordered])
    delta = counts / eps.shape[-1] - t_cdf_grid
    return np.stack([np.abs(delta).sum(axis=-1), (delta**2).sum(axis=-1), delta.max(axis=-1)], -1)


def distribution_deviation_test(records: HindcastRecords, config: SurrogateConfig) -> NullEnsemble:
    """Test whether pooled rescaled errors are as close to t(m-1) as the null.

    The pooled eps* ECDF at config.theta is measured on 1000 equally spaced
    points of [-15, 15] against the Student t(m-1) CDF under three deviation
    measures (sum of |differences|, sum of squares, signed maximum); the null
    distribution of each measure comes from the full surrogate pipeline.
    The ensemble's columns, in ``observed`` and ``values``, are the measures
    named in ``DEVIATION_STATISTICS``. Replication r draws from the
    "xi-band" stream, so its row comes from the same walks as row r of
    ``null_xi_band``'s ensemble at the same config.
    """
    return _ensemble(config, _stream_tag("xi-band"), records)[1]


def validation_nulls(
    config: SurrogateConfig,
    observed_curve: ErrorGrowthCurve,
    records: HindcastRecords,
) -> tuple[NullEnsemble, NullEnsemble]:
    """``null_xi_band(config, observed_curve)`` and
    ``distribution_deviation_test(records, config)`` from one ensemble.

    Replication r's walks give band row r and deviation row r, so each
    ensemble equals the single-statistic call's as bytes. Each p-value is
    valid on its own, but the band and the deviation test are not
    independent.
    """
    return _band(config, observed_curve, records)


@dataclass(frozen=True)
class ThetaWeighted:
    """Forecast-count-weighted average of per-technology MA coefficients."""

    theta_w: float
    per_horizon: np.ndarray
    taus: np.ndarray
    excluded: tuple[str, ...]


def estimate_theta_weighted(
    summaries: Sequence[SeriesSummary],
    records: HindcastRecords,
    tau_max: int | None = 20,
) -> ThetaWeighted:
    """Average the full-sample theta estimates, weighted by forecast counts.

    Technologies whose MA fit hit the +-1 boundary (or could not be fit) are
    excluded. At each horizon the weights are each technology's share of the
    forecast errors available at that horizon; theta_w averages the
    per-horizon means over horizons 1..tau_max (``None``: every horizon the
    records reach).
    """
    usable = {
        s.name: s.theta_full
        for s in summaries
        if not s.theta_boundary and math.isfinite(s.theta_full)
    }
    excluded = tuple(sorted(s.name for s in summaries if s.name not in usable))
    if not usable:
        raise ValueError("every technology is boundary-flagged; theta_w is undefined")

    if tau_max is not None:  # None: _sums_by_technology takes every horizon the records reach
        _, tau_max = _kernels._check_window(records.m, tau_max)
    _, counts = _sums_by_technology(records, tau_max)
    rows = [k for k, name in enumerate(records.names) if name in usable]
    counts = counts[rows]
    if not counts.any():
        raise ValueError("no records at any horizon <= tau_max")
    # the pooled reduction of counts * theta gives sum(c * theta) / sum(c) per horizon
    thetas = np.array([usable[records.names[k]] for k in rows])
    per_horizon = _xi(counts * thetas[:, None], counts, "pooled")
    theta_w = float(np.nanmean(per_horizon))
    return ThetaWeighted(
        theta_w=theta_w,
        per_horizon=per_horizon,
        taus=np.arange(1, counts.shape[1] + 1, dtype=np.int64),
        excluded=excluded,
    )


def null_xi_mean(m: int, tau_max: int, theta_grid: Sequence[float]) -> np.ndarray:
    """(grid, tau_max) exact mean of the null Xi at horizons 1..tau_max, per theta.

    A record of the unit walk y[t] = y[t-1] + w[t] + theta*w[t-1] at origin
    i reads the unit normals w[i-m..i+tau], whatever its series, length or
    origin, so its E[eps^2] is one number g(m, tau, theta), the mean of Xi
    under both weightings. With eps = c'w / sqrt(w'Bw), where w'Bw is K_hat^2
    on m - 1 degrees of freedom (J. R. Magnus, Ann. d'Econ. et de Stat. 4,
    1986),

        g = int_0^inf det(I + 2tB)^(-1/2) c'(I + 2tB)^(-1) c dt.

    B touches only the m + 1 window innovations, where c is theta on w[i]
    minus tau times the drift estimate's coefficients, so one eigensystem of
    B per theta serves every tau; the tau future innovations add the
    constant (tau-1)(1+theta)^2 + 1 to c'(I + 2tB)^(-1) c. The integral is a
    trapezoid rule in s = log t with step 1/4 on [-40, 160/(m-3)], which
    converges exponentially: the integrand decays like e^s below and like
    e^(-(m-3)s/2) above. At theta = 0 the rows are the paper's closed form,
    ``variance_factors(tau, m, 0).xi``, as bits. ``m`` must be a whole number
    > 3 and ``tau_max`` one >= 1: no series sets a reach, so None is an error.
    """
    theta = _check_theta_grid(theta_grid)
    m, tau_max = _kernels._check_window(m, tau_max)
    if m < 4:
        raise ValueError(f"window m={m} too small; the null mean of Xi needs m > 3")
    j = np.arange(m)
    diffs = np.zeros((theta.size, m, m + 1))  # window difference j is w[j+1] + theta*w[j]
    diffs[:, j, j] = theta[:, None]
    diffs[:, j, j + 1] = 1.0
    drift = diffs.mean(axis=1)
    centered = diffs - drift[:, None, :]
    lam, q = np.linalg.eigh(np.swapaxes(centered, 1, 2) @ centered / (m - 1))
    lam[:, :2] = 0.0  # B has rank m - 1, so rounding must not bend its null directions
    step = 0.25
    t = np.exp(np.arange(-40.0, 160.0 / (m - 3), step))
    x = 2.0 * t[:, None] * lam[:, None, :]  # (grid, nodes, m + 1)
    weight = step * t * np.exp(-0.5 * np.log1p(x).sum(axis=-1))  # dt = t ds
    i0 = weight.sum(axis=-1)
    w_k = np.einsum("gn,gnk->gk", weight, 1.0 / (1.0 + x))  # each eigendirection's integral
    e = q[:, m, :]  # w[i], the last window innovation, in the eigenbasis
    u = -np.einsum("gik,gi->gk", q, drift)
    i_ee, i_eu, i_uu = ((w_k * a * b).sum(axis=-1)[:, None] for a, b in ((e, e), (e, u), (u, u)))
    tau = np.arange(1.0, tau_max + 1.0)
    th = theta[:, None]
    future = (tau - 1.0) * (1.0 + th) ** 2 + 1.0
    g = th * th * i_ee + 2.0 * th * tau * i_eu + tau * tau * i_uu + future * i0[:, None]
    if np.any(theta == 0.0):
        g[theta == 0.0] = [variance_factors(k, m, 0.0).xi for k in range(1, tau_max + 1)]
    return g


def _bisect_root(
    z: Callable[[np.ndarray], np.ndarray], grid: np.ndarray, z_values: np.ndarray, theta_m: float
) -> float:
    """The root of z - 1, to 1e-12, by bisection of the grid interval nearest
    theta_m over which z - 1 changes sign (theta_m where z is exactly 1 there)."""
    if 1.0 in z_values:
        return theta_m
    order = np.argsort(grid)
    grid, above = grid[order], z_values[order] > 1.0
    ends = np.flatnonzero(above[:-1] != above[1:])
    i = ends[np.argmin(np.minimum(abs(grid[ends] - theta_m), abs(grid[ends + 1] - theta_m)))]
    lo, hi = grid[i], grid[i + 1]
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (z(np.array([mid]))[0] > 1.0) == above[i] else (lo, mid)
    return float(0.5 * (lo + hi))


@dataclass(frozen=True)
class ThetaMatched:
    """Global theta matched to the observed error growth.

    ``z_values[i]`` is the mean over horizons of observed Xi divided by the
    exact null mean of Xi at theta_grid[i] (``null_xi_mean``), so Z carries
    no Monte Carlo error. The estimate minimizes |Z - 1| over the grid,
    ``bracketed`` says whether Z - 1 changes sign over the grid, and if it
    does ``theta_root`` is the root of Z - 1 by bisection (else None).
    """

    theta_m: float
    theta_grid: np.ndarray
    z_values: np.ndarray
    bracketed: bool
    theta_root: float | None


def estimate_theta_matched(
    observed_curve: ErrorGrowthCurve,
    config: SurrogateConfig,
    theta_grid: Sequence[float],
) -> ThetaMatched:
    """Pick theta so the null mean of the error growth matches the observed curve.

    The curve's weighting and window must match the config's, and the
    innovations must be normal, as ``null_xi_mean`` assumes. Nothing is
    drawn: the config's theta, seed and replications are not used. Z
    compares the horizons up to tau_max that the longest template series
    reaches; a ValueError names any of them that only zero-volatility series
    reach.
    """
    _check_curve(observed_curve, config)
    if config.student_df is not None:
        raise ValueError("theta matching needs normal innovations; config.student_df must be None")
    theta_grid = _check_theta_grid(theta_grid)
    max_simulable_tau = int(config.lengths.max()) - config.m - 1
    keep = (observed_curve.taus <= config.tau_max) & (observed_curve.taus <= max_simulable_tau)
    taus = observed_curve.taus[keep]
    xi_obs = observed_curve.xi[keep]
    if taus.size == 0:
        raise ValueError(
            "observed curve has no horizons that are both within tau_max and "
            "reachable by the template series"
        )

    unreached = taus[~np.isin(taus, _engine_plan(config).tau)]
    if unreached.size:
        raise ValueError(
            f"no surrogate records at horizons {unreached.tolist()}: only "
            "zero-volatility template series reach them"
        )

    def z(thetas: np.ndarray) -> np.ndarray:
        null_mean = null_xi_mean(config.m, config.tau_max, thetas)[:, taus - 1]
        return np.mean(xi_obs / null_mean, axis=-1)

    z_values = z(theta_grid)
    signs = np.sign(z_values - 1.0)
    bracketed = bool(np.any(signs > 0) and np.any(signs < 0))
    if not bracketed:
        warnings.warn(
            "Z(theta) - 1 does not change sign over the grid; "
            "returning the boundary argmin",
            stacklevel=2,
        )
    theta_m = float(theta_grid[int(np.argmin(np.abs(z_values - 1.0)))])
    return ThetaMatched(
        theta_m=theta_m,
        theta_grid=theta_grid,
        z_values=z_values,
        bracketed=bracketed,
        theta_root=_bisect_root(z, theta_grid, z_values, theta_m) if bracketed else None,
    )


@dataclass(frozen=True)
class ThetaSweep:
    """Forecast quality of the MA-adjusted point forecast across theta values.

    ``ratios[g, h]`` is the mean squared normalized error using
    theta_grid[g] at horizons[h], divided by the plain random-walk
    (theta = 0) value.
    """

    theta_grid: np.ndarray
    horizons: np.ndarray
    ratios: np.ndarray
    best_theta: np.ndarray


def theta_forecast_sweep(
    corpus: Sequence[TechnologySeries],
    m: int,
    theta_grid: Sequence[float],
    horizons: Sequence[int],
) -> ThetaSweep:
    """Sweep the MA coefficient used in point forecasts.

    Forecasts keep the rolling-window drift estimate and add the MA
    correction theta*v_hat(t0), where the innovation recursion is started at
    zero at the beginning of each window (the window is too short to infer
    the pre-window innovation). Errors are normalized per window and pooled
    per horizon. The grid must lie inside (-1, 1), the window must hold at
    least 2 differences, and horizons must be positive integers.
    """
    theta_grid = _check_theta_grid(theta_grid)
    lengths = np.array([s.log_costs.size for s in corpus], dtype=np.int64)
    m, _ = _kernels._check_window(m, None, lengths)
    requested = np.asarray(horizons, dtype=float).ravel()
    if requested.size == 0 or not np.all(
        np.isfinite(requested) & (requested >= 1) & (requested == np.round(requested))
    ):
        raise ValueError("horizons must be positive integers")
    horizons = np.unique(requested.astype(np.int64))
    if not np.any(lengths >= m + 2):
        raise ValueError(f"no feasible forecasts at horizons {horizons.tolist()}")

    plan = _build_plan(lengths, m, 1)
    levels = _kernels._layout(plan, np.concatenate([s.log_costs for s in corpus])[None])
    y, d = _kernels._flat_with_differences(levels)
    y_origin, mu, windows, k2 = (a[0] for a in _kernels._window_moments(plan, y, d, m))
    all_thetas = np.append(theta_grid, 0.0)  # last column is the baseline
    v_hat = np.zeros((plan.origin.size, all_thetas.size))
    for k in range(m):
        v_hat = (windows[:, k] - mu)[:, None] - all_thetas * v_hat
    last = plan.origin_series * plan.width + lengths[plan.origin_series] - 1  # series' last point
    acc = np.zeros((all_thetas.size, horizons.size))
    cnt = np.zeros(horizons.size, dtype=np.int64)
    for hi, h in enumerate(horizons):
        use = (k2 > 0.0) & (plan.origin + h <= last)
        e = (y[0, plan.origin[use] + h] - y_origin[use] - mu[use] * h)[:, None]
        e = e - all_thetas * v_hat[use]
        acc[:, hi] = (e * e / k2[use, None]).sum(axis=0)  # row by row, in corpus order
        cnt[hi] = np.count_nonzero(use)
    if np.any(cnt == 0):
        missing = horizons[cnt == 0].tolist()
        raise ValueError(f"no feasible forecasts at horizons {missing}")
    mse = acc / cnt
    baseline = mse[-1]
    ratios = mse[:-1] / baseline
    best_theta = theta_grid[np.argmin(mse[:-1], axis=0)]
    return ThetaSweep(
        theta_grid=theta_grid, horizons=horizons, ratios=ratios, best_theta=best_theta
    )


def _vary_window(
    corpus: Sequence[TechnologySeries], ms: Sequence[int], theta: float, tau_max: int
) -> list[dict]:
    out = []
    for m in ms:
        result = hindcast_corpus(corpus, m, tau_max=tau_max)
        entry: dict = {"m": int(m), "n_series_used": len(corpus) - len(result.too_short)}
        if entry["n_series_used"]:
            entry["curve"] = _curve_table(error_growth(result.records), m, theta)
            entry["skipped_zero_volatility"] = result.skipped_zero_volatility
        else:
            entry["note"] = f"no series has the m + 2 = {m + 2} points needed"
        out.append(entry)
    return out


def _half_corpus(records: HindcastRecords, trials: int, tau_max: int, seed: int) -> dict:
    """Subsample half the technologies many times; band the resulting curves."""
    if trials < 1:
        raise ValueError(f"half_dataset_trials must be >= 1, got {trials}")
    sums, counts = _sums_by_technology(records, tau_max)
    n_half = len(records.names) // 2
    if n_half < 1:
        raise ValueError("need at least 2 technologies to subsample")

    rngs = (derive_rng(seed, _stream_tag("half-corpus"), trial) for trial in range(trials))
    chosen = np.array([rng.choice(len(records.names), size=n_half, replace=False) for rng in rngs])
    band = NullEnsemble(statistic="xi", values=_xi(sums[chosen], counts[chosen], "pooled"))
    full = _xi(sums, counts, "pooled")
    lo, hi = band.quantile(0.025), band.quantile(0.975)
    valid = ~np.isnan(full)
    inside = np.mean((full[valid] >= lo[valid]) & (full[valid] <= hi[valid]))
    return {
        "trials": trials,
        "subset_size": n_half,
        "tau": list(range(1, tau_max + 1)),
        "q025": lo.tolist(),
        "q975": hi.tolist(),
        "full_corpus_xi": full.tolist(),
        "share_inside_band": float(inside),
    }


def _fat_tails(
    template: tuple[tuple[int, float, float], ...],
    dfs: Sequence[float],
    m: int,
    tau_max: int,
    replications: int,
    seed: int,
    theta: float,
) -> dict:
    """Mean error growth for fat-tailed random walks (Monte Carlo) vs normal
    RWD and IMA (exact, ``null_xi_mean``), NaN where no template series reaches."""
    base = dict(replications=replications, m=m, tau_max=tau_max, seed=seed, template=template)
    exact = null_xi_mean(m, tau_max, [0.0, theta])
    exact[:, _engine_plan(SurrogateConfig(theta=theta, **base)).tau.max() :] = math.nan
    normal_rwd, ima = exact.tolist()
    report: dict = {"tau": list(range(1, tau_max + 1)), "normal_rwd": normal_rwd, "ima": ima, "student": {}}
    for df_i, df in enumerate(dfs):
        cfg = SurrogateConfig(theta=0.0, student_df=float(df), **base)
        xi, _ = _ensemble(cfg, _stream_tag("fat-tails-student", df_i))
        report["student"][f"df={df:g}"] = np.mean(xi, axis=0).tolist()
    return report


def robustness_suite(
    corpus: Sequence[TechnologySeries],
    *,
    m: int = 5,
    tau_max: int | None = 20,
    theta: float = 0.0,
    seed: int = 0,
    replications: int = 200,
    vary_m: Sequence[int] | None = None,
    half_dataset_trials: int | None = None,
    extended_tau_max: int | None = None,
    fat_tail_dfs: Sequence[float] | None = None,
    template: tuple[tuple[int, float, float], ...] | None = None,
) -> dict:
    """Run the requested robustness experiments and return a JSON-ready report.

    ``vary_m`` reruns the hindcast at each window size with the analytic
    overlay; ``half_dataset_trials`` resamples half the technologies and
    bands the error growth; ``extended_tau_max`` lifts the horizon cap;
    ``fat_tail_dfs`` compares Student-increment random walks against the
    normal and correlated baselines (needs a template, built from the corpus
    differences when not supplied). ``tau_max=None`` caps every experiment at
    the horizons that windows of m reach in the corpus and the template, and
    the report's ``tau_max`` holds that number.
    """
    lengths = [s.n_obs for s in corpus] + [n for n, _, _ in template or ()]
    m, tau_max = _kernels._check_window(m, tau_max, lengths)
    report: dict = {"m": m, "tau_max": tau_max, "theta": theta, "seed": seed}
    if vary_m is not None:
        report["vary_m"] = _vary_window(corpus, vary_m, theta, tau_max)
    if half_dataset_trials is not None:
        records = hindcast_corpus(corpus, m, tau_max=tau_max).records
        report["half_dataset"] = _half_corpus(records, half_dataset_trials, tau_max, seed)
    if extended_tau_max is not None:
        ext = hindcast_corpus(corpus, m, tau_max=extended_tau_max)
        report["extended_tau"] = {
            "tau_max": extended_tau_max,
            "curve": _curve_table(error_growth(ext.records), m, theta),
        }
    if fat_tail_dfs is not None:
        if template is None:
            template = corpus_template(corpus)
        report["fat_tails"] = _fat_tails(
            template, fat_tail_dfs, m, tau_max, replications, seed, theta
        )
    return report
