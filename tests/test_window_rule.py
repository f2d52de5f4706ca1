"""The window and horizon-cap rule that ``_kernels._check_window`` owns,
and the error theory's domain that ``forecast`` owns.

``m`` is a whole number >= 2 and ``tau_max`` a whole number >= 1, or None.
Where an entry point has series lengths, None means every horizon those
series reach; where it needs a number and has no data, None is an error.
Wherever the error theory applies, m must also exceed 3, theta must be a
real number strictly inside (-1, 1), and a theta grid a non-empty 1-d
sequence of such numbers.
"""

import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costwalk import (
    CrossingSpec,
    RwdEstimate,
    SurrogateConfig,
    TechState,
    _kernels,
    distributional_forecast,
    error_growth,
    estimate_rwd,
    estimate_theta_matched,
    estimate_theta_weighted,
    forecast_technology,
    hindcast_corpus,
    make_rng,
    null_xi_mean,
    robustness_suite,
    summarize_corpus,
    theta_forecast_sweep,
    variance_factors,
)

from reference import simulate_rwd


def _corpus(lengths, seed):
    rng = make_rng(seed)
    return [simulate_rwd(-0.05, 0.1, n, rng, name=f"t{j}") for j, n in enumerate(lengths)]


@st.composite
def capped_corpora(draw):
    """(corpus, m, reach): a few random walks, the longest reaching
    ``reach`` >= 1 horizons from its first origin of a window of m."""
    m = draw(st.sampled_from([2, 5, 9]))
    lengths = draw(st.lists(st.integers(2, 30), min_size=0, max_size=4))
    lengths.insert(draw(st.integers(0, len(lengths))), draw(st.integers(m + 2, 40)))
    corpus = _corpus(lengths, draw(st.integers(0, 2**16)))
    return corpus, m, max(lengths) - 1 - m


def _bytes(columns):
    return [(np.asarray(c).dtype, np.asarray(c).tobytes()) for c in columns]


@settings(max_examples=60, deadline=None)
@given(capped_corpora())
def test_no_cap_equals_the_reach_and_beyond(case):
    corpus, m, reach = case
    caps = (None, reach, reach + 7)
    results = [hindcast_corpus(corpus, m, tau_max=t) for t in caps]
    assert results[0].records == results[1].records == results[2].records
    assert len({(r.skipped_zero_volatility, r.too_short) for r in results}) == 1
    for series in corpus:
        kernel = [_bytes(_kernels.hindcast_errors(series.log_costs, m, t)) for t in caps]
        assert kernel[0] == kernel[1] == kernel[2]
    lengths = np.array([s.n_obs for s in corpus], dtype=np.int64)
    v = make_rng(reach).standard_normal(int(lengths.sum()))
    engine = [_bytes(_kernels.corpus_norm_errors(lengths, 0.4, v, m, t)) for t in caps]
    assert engine[0] == engine[1] == engine[2]


def _report(corpus, tau_max):
    return robustness_suite(
        corpus, m=5, tau_max=tau_max, theta=0.3, seed=3, replications=6,
        half_dataset_trials=5, fat_tail_dfs=[3.0],
    )


def _cut(value, reach, beyond):
    """``value`` with every list cut to ``reach`` entries; ``beyond`` gets the rest."""
    if isinstance(value, dict):
        return {k: _cut(v, reach, [] if k == "tau" else beyond) for k, v in value.items()}
    if isinstance(value, list):
        beyond.extend(value[reach:])
        return value[:reach]
    return value


@settings(max_examples=6, deadline=None)
@given(st.lists(st.integers(8, 30), min_size=2, max_size=5), st.integers(0, 2**16))
def test_robustness_suite_without_a_cap_takes_the_reach(lengths, seed):
    # tau_max=None used to raise a TypeError from both experiments
    corpus = _corpus(lengths, seed)
    reach = max(lengths) - 1 - 5
    uncapped = _report(corpus, None)
    assert uncapped["tau_max"] == reach
    assert json.dumps(uncapped) == json.dumps(_report(corpus, reach))
    # a larger cap adds only horizons that no series reaches
    wider, beyond = _report(corpus, reach + 7), []
    experiments = ("half_dataset", "fat_tails")
    cut = _cut({k: wider[k] for k in experiments}, reach, beyond)
    assert json.dumps(cut) == json.dumps({k: uncapped[k] for k in experiments})
    assert len(beyond) == 7 * 6 and all(math.isnan(x) for x in beyond)


def _series(n=30, seed=4):
    return _corpus([n], seed)[0]


def test_kernels_without_a_cap_take_every_horizon():
    # both used to raise a TypeError comparing an int with None
    y = _series().log_costs
    assert _bytes(_kernels.hindcast_errors(y, 5, None)) == _bytes(_kernels.hindcast_errors(y, 5, 24))
    lengths = np.array([30, 12], dtype=np.int64)
    v = make_rng(2).standard_normal(42)
    assert _bytes(_kernels.corpus_norm_errors(lengths, 0.0, v, 5, None)) == _bytes(
        _kernels.corpus_norm_errors(lengths, 0.0, v, 5, 24)
    )


def test_null_xi_mean_needs_a_cap():
    # it used to raise a TypeError adding None and a float
    with pytest.raises(ValueError, match="tau_max must be an integer"):
        null_xi_mean(5, None, [0.0])


def test_forecast_technology_takes_whole_numbers_only():
    series = _series()
    assert len(forecast_technology(series, 5.0, 0.0)) == 5  # a TypeError from range()
    with pytest.raises(ValueError, match="tau_max"):
        forecast_technology(series, None, 0.0)
    with pytest.raises(ValueError, match="m must be an integer"):  # was truncated to m = 5
        forecast_technology(series, 3, 0.0, m=5.7)
    assert forecast_technology(series, 3, 0.0, m=5.0) == forecast_technology(series, 3, 0.0, m=5)


def test_estimate_rwd_takes_a_whole_window():
    series = _series()
    with pytest.raises(ValueError, match="m must be an integer"):  # slicing raised a TypeError
        estimate_rwd(series, 10, 2.5)
    assert estimate_rwd(series, 10, 5.0) == estimate_rwd(series, 10, 5)
    assert type(estimate_rwd(series, 10, np.int64(5)).m) is int


def test_estimate_rwd_takes_a_whole_origin():
    series = _series()
    for origin in (10.5, "10", None):  # slicing or comparing raised a TypeError
        with pytest.raises(ValueError, match="origin_index must be an integer"):
            estimate_rwd(series, origin, 5)
    whole = estimate_rwd(series, np.float64(10.0), 5)
    assert whole == estimate_rwd(series, 10, 5) and type(whole.origin_index) is int


def test_error_growth_takes_no_cap():
    assert "tau_max" not in inspect.signature(error_growth).parameters


class TestAnalyticWindows:
    """A window of 5.5 differences used to give an answer."""

    def test_variance_factors(self):
        with pytest.raises(ValueError, match="m must be an integer"):
            variance_factors(1, 5.5, 0.0)
        assert variance_factors(7, 33.0, 0.4) == variance_factors(7, 33, 0.4)
        with pytest.raises(ValueError, match="diverges for m <= 3"):
            variance_factors(1, 3.0, 0.0)

    def test_tech_state(self):
        with pytest.raises(ValueError, match="m must be an integer"):
            TechState(0.0, -0.05, 0.1, 5.5)
        assert TechState(0.0, -0.05, 0.1, 33.0) == TechState(0.0, -0.05, 0.1, 33)
        with pytest.raises(ValueError, match="needs m > 3"):
            TechState(0.0, -0.05, 0.1, 3)

    def test_rwd_estimate(self):
        with pytest.raises(ValueError, match="m must be an integer"):
            RwdEstimate(mu_hat=-0.05, k_hat=0.1, m=5.5, origin_index=10)
        whole = RwdEstimate(mu_hat=-0.05, k_hat=0.1, m=33.0, origin_index=40)
        assert whole == RwdEstimate(mu_hat=-0.05, k_hat=0.1, m=33, origin_index=40)
        assert type(whole.m) is int
        with pytest.raises(ValueError, match="at least 2 differences"):
            RwdEstimate(mu_hat=-0.05, k_hat=0.1, m=1, origin_index=10)


_CORPUS = _corpus([30, 22, 16], seed=8)
_LENGTHS = np.array([s.n_obs for s in _CORPUS], dtype=np.int64)
_V = make_rng(8).standard_normal(int(_LENGTHS.sum()))
_TEMPLATE = tuple((s.n_obs, -0.05, 0.1) for s in _CORPUS)
_RECORDS = hindcast_corpus(_CORPUS, 5, tau_max=20).records

# every entry point that takes m or tau_max, as call(m, tau_max); each ignores what it does not take
_ENTRY_POINTS = {
    "hindcast_corpus": lambda m, t: hindcast_corpus(_CORPUS, m, tau_max=t),
    "hindcast_errors": lambda m, t: _kernels.hindcast_errors(_CORPUS[0].log_costs, m, t),
    "corpus_norm_errors": lambda m, t: _kernels.corpus_norm_errors(_LENGTHS, 0.4, _V, m, t),
    "null_xi_mean": lambda m, t: null_xi_mean(m, t, [0.0, 0.3]),
    "SurrogateConfig": lambda m, t: SurrogateConfig(
        replications=1, theta=0.0, m=m, tau_max=t, seed=1, template=_TEMPLATE
    ),
    "robustness_suite": lambda m, t: robustness_suite(_CORPUS, m=m, tau_max=t),
    "forecast_technology": lambda m, t: forecast_technology(_CORPUS[0], t, 0.0, m=m),
    "estimate_theta_weighted": lambda m, t: estimate_theta_weighted(
        summarize_corpus(_CORPUS), _RECORDS, tau_max=t
    ),
    "estimate_rwd": lambda m, t: estimate_rwd(_CORPUS[0], 20, m),
    "theta_forecast_sweep": lambda m, t: theta_forecast_sweep(_CORPUS, m, [0.0, 0.3], [1, 2]),
    "variance_factors": lambda m, t: variance_factors(1, m, 0.0),
    "TechState": lambda m, t: TechState(0.0, -0.05, 0.1, m),
    "RwdEstimate": lambda m, t: RwdEstimate(mu_hat=-0.05, k_hat=0.1, m=m, origin_index=20),
}
_TAKE_A_CAP = (
    "hindcast_corpus", "hindcast_errors", "corpus_norm_errors", "null_xi_mean", "SurrogateConfig",
    "robustness_suite", "forecast_technology", "estimate_theta_weighted",
)
_NEED_A_CAP = ("null_xi_mean", "SurrogateConfig", "forecast_technology")  # no series set a reach
_BAD = (0, -1, 2.5, "5")
_CASES = [
    (name, "m", v) for name in _ENTRY_POINTS if name != "estimate_theta_weighted" for v in (None, *_BAD)
] + [
    (name, "tau_max", v) for name in _TAKE_A_CAP for v in ((None,) if name in _NEED_A_CAP else ()) + _BAD
]


@pytest.mark.parametrize("name, argument, value", _CASES)
def test_bad_window_or_cap_names_the_argument(name, argument, value):
    m, tau_max = (value, 5) if argument == "m" else (5, value)
    with pytest.raises(ValueError, match=rf"\b{argument}\b"):
        _ENTRY_POINTS[name](m, tau_max)


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_valid_window_and_cap_run(name):
    _ENTRY_POINTS[name](5, 5)


def _surrogate_config(theta, m):
    return SurrogateConfig(replications=1, theta=theta, m=m, tau_max=5, seed=1, template=_TEMPLATE)


_CURVE = error_growth(_RECORDS)
_CONFIG = _surrogate_config(0.0, 5)


def _tech(m=5):
    return TechState(0.0, -0.05, 0.1, m)


# every entry point that takes theta, the error theory's m or a theta grid, as call(value)
_THEORY = {
    "theta": {
        "variance_factors": lambda v: variance_factors(1, 5, v),
        "distributional_forecast": lambda v: distributional_forecast(
            RwdEstimate(-0.05, 0.1, 5, 20), 0.0, 1, v
        ),
        "CrossingSpec": lambda v: CrossingSpec(_tech(), _tech(), v),
        "SurrogateConfig": lambda v: _surrogate_config(v, 5),
        "robustness_suite": lambda v: robustness_suite(_CORPUS, theta=v),
        "forecast_technology": lambda v: forecast_technology(_CORPUS[0], 5, v, m=5),
    },
    "m": {
        "variance_factors": lambda v: variance_factors(1, v, 0.3),
        "distributional_forecast": lambda v: distributional_forecast(
            RwdEstimate(-0.05, 0.1, v, 20), 0.0, 1, 0.3
        ),
        "TechState": _tech,
        "SurrogateConfig": lambda v: _surrogate_config(0.3, v),
        "null_xi_mean": lambda v: null_xi_mean(v, 5, [0.0, 0.3]),
        "robustness_suite": lambda v: robustness_suite(_CORPUS, m=v),
        "forecast_technology": lambda v: forecast_technology(_CORPUS[0], 5, 0.3, m=v),
    },
    "grid": {
        "null_xi_mean": lambda v: null_xi_mean(5, 5, v),
        "estimate_theta_matched": lambda v: estimate_theta_matched(_CURVE, _CONFIG, v),
        "theta_forecast_sweep": lambda v: theta_forecast_sweep(_CORPUS, 5, v, [1, 2]),
    },
}
_OUTSIDE = {
    "theta": (math.nan, 1.0, -1.0, 1.5, "0.3", None),
    "m": (3, 3.5, "5"),
    "grid": (0.3, [[0.1, 0.2]], []),
}
_NAMED = {"theta": r"\btheta\b", "m": r"\bm\b", "grid": r"\btheta grid\b"}


@pytest.mark.parametrize(
    "argument, name, value",
    [(argument, name, v) for argument, calls in _THEORY.items() for name in calls for v in _OUTSIDE[argument]],
)
def test_outside_the_theory_names_the_argument(argument, name, value):
    # a 0-d or 2-d grid raised an IndexError or numpy's broadcast error, a string
    # or None theta a TypeError, and robustness_suite returned a bad theta unchecked
    with pytest.raises(ValueError, match=_NAMED[argument]):
        _THEORY[argument][name](value)


@pytest.mark.parametrize("argument, name", [(a, name) for a, calls in _THEORY.items() for name in calls])
def test_inside_the_theory_runs(argument, name):
    _THEORY[argument][name]({"theta": 0.3, "m": 5, "grid": [-0.5, 0.3]}[argument])  # brackets Z = 1


@pytest.mark.parametrize("name", sorted(_THEORY["grid"]))
def test_a_ragged_grid_names_its_first_bad_theta(name):
    # numpy's "inhomogeneous shape" error used to escape
    with pytest.raises(ValueError, match=r"^theta must lie .*got \[0\.1\]$"):
        _THEORY["grid"][name]([[0.1], [0.2, 0.3]])


# a window past int64, which numpy's integer arrays cannot hold
_PAST_INT64 = 2**63
# what each entry point of the table gives for that window: None for a result,
# else the ValueError it raises. The private kernels, which index arrays of m
# entries, and null_xi_mean, which builds an (m + 1)-dimensional form, are left out.
_PAST_INT64_RAISES = {
    "hindcast_corpus": None,
    "SurrogateConfig": r"m \+ 2 = 9223372036854775810 points",
    "robustness_suite": None,
    "forecast_technology": "window of 9223372036854775808 differences needs",
    "estimate_theta_weighted": None,
    "estimate_rwd": "does not fit a window of 9223372036854775808 differences",
    "theta_forecast_sweep": r"no feasible forecasts at horizons \[1, 2\]",
    "variance_factors": None,
    "TechState": None,
    "RwdEstimate": None,
}


@pytest.mark.parametrize("name, message", sorted(_PAST_INT64_RAISES.items()))
def test_a_window_past_int64_gives_a_result_or_a_clear_error(name, message):
    # hindcast_corpus raised an OverflowError converting it to a C long
    if message is None:
        _ENTRY_POINTS[name](_PAST_INT64, 5)
    else:
        with pytest.raises(ValueError, match=message):
            _ENTRY_POINTS[name](_PAST_INT64, 5)


@pytest.mark.parametrize("m", [_PAST_INT64, 10**20])
def test_every_series_is_too_short_for_a_window_past_int64(m):
    result = hindcast_corpus(_CORPUS, m)
    assert result.too_short == tuple(sorted(s.name for s in _CORPUS))
    assert len(result.records) == 0 and result.skipped_zero_volatility == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 40), max_size=6),
    st.one_of(st.integers(2, 45), st.integers(2**62, 2**70)),
    st.data(),
)
def test_the_reach_is_the_number_of_origins(lengths, m, data):
    # origins i = m..T-2 of each series; the first reaches T-1-m horizons, one per origin
    live = data.draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths)))
    origins = [len(range(m, T - 1)) for T in lengths]
    assert _kernels._reach(lengths, m).tolist() == origins
    assert _kernels._reach(lengths, m, live).tolist() == [n if k else 0 for n, k in zip(origins, live)]


@pytest.mark.parametrize("horizons", [[2**63], [1e300], [1, 2**63], [1, 25]])
def test_sweep_horizons_past_the_reach_are_named(horizons):
    # past int64 they warned of an invalid cast and raised an IndexError; the
    # longest series (30 points) reaches 24 horizons at m = 5
    past = [int(h) for h in horizons if h > 24]
    with pytest.raises(ValueError, match=rf"^no feasible forecasts at horizons \[{past[0]}\]$"):
        theta_forecast_sweep(_CORPUS, 5, [0.0, 0.3], horizons)
