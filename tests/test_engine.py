"""The batched surrogate engine against the per-series reference, as properties.

The engine simulates and hindcasts several replications per array pass: the
unit, drift-free walks of the template lengths, with no origins in a K = 0
series. Its arithmetic follows the per-series kernel
``_kernels.hindcast_errors`` step for step, so every property here is
bit-exact: normalized errors compare as bytes, not within a tolerance.
"""

import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from costwalk import (
    SurrogateConfig,
    corpus_template,
    distribution_deviation_test,
    error_growth,
    estimate_theta_matched,
    hindcast_corpus,
    load_reference_params,
    null_xi_band,
    null_xi_mean,
    robustness_suite,
    surrogate_corpus,
    validation_nulls,
)
from costwalk import _kernels, surrogate
from costwalk.hindcast import _cell_sums, _cells, _xi
from costwalk.series import TechnologySeries
from costwalk.stats import derive_rng
from costwalk.surrogate import (
    _STREAM_TAGS,
    _build_plan,
    _engine_plan,
    _ensemble,
    _innovations,
    _stream_tag,
)

import reference
from reference import replication_errors, xi_from_errors

PROPERTY = settings(max_examples=60, deadline=None)
REFERENCE_TEMPLATE = corpus_template(load_reference_params(improving_only=True))
DRIFTS = (min(t[1] for t in REFERENCE_TEMPLATE), max(t[1] for t in REFERENCE_TEMPLATE))
VOLATILITIES = (min(t[2] for t in REFERENCE_TEMPLATE), max(t[2] for t in REFERENCE_TEMPLATE))


@st.composite
def configs(draw):
    """Small random templates, including series too short for one window and
    mu = K = 0 series, which the engine does not hindcast."""
    m = draw(st.integers(4, 10))
    n_series = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.integers(2, 3 * m + 6), min_size=n_series, max_size=n_series))
    longest = draw(st.integers(0, n_series - 1))
    lengths[longest] = max(lengths[longest], m + 2)  # one series can be hindcast
    template = []
    for j, T in enumerate(lengths):
        if j != longest and draw(st.integers(0, 4)) == 0:
            template.append((T, 0.0, 0.0))
        else:
            template.append((T, draw(st.floats(-0.5, 0.5)), draw(st.floats(0.001, 0.5))))
    student = draw(st.booleans())
    return SurrogateConfig(
        replications=draw(st.integers(1, 7)),
        theta=0.0 if student else draw(st.floats(-0.95, 0.95)),
        m=m,
        tau_max=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**32)),
        template=tuple(template),
        student_df=draw(st.floats(2.5, 30.0)) if student else None,
        weighting=draw(st.sampled_from(["pooled", "equal-technology"])),
    )


def _per_series_innovations(config, rng):
    """One draw call per series: the reference for the engine's single draw."""
    if config.student_df is None:
        blocks = [rng.standard_normal(n) for n in config.lengths]
    else:
        blocks = [rng.standard_t(float(config.student_df), n) for n in config.lengths]
    return np.concatenate(blocks)


def _unit_walks(config, innovations):
    """Each series' drift-free walk y[t] = y[t-1] + w[t] + theta*w[t-1] from
    its block of unit innovations, built as the engine builds it."""
    blocks = np.split(innovations, np.cumsum(config.lengths)[:-1])
    return [np.concatenate(([0.0], np.cumsum(w[1:] + config.theta * w[:-1]))) for w in blocks]


def _name(config, j):
    """The name ``surrogate_corpus`` gives series j."""
    return f"surrogate-{j:0{max(3, len(str(len(config.template) - 1)))}d}"


def _unit_corpus(config, innovations):
    """The walks of the series with K > 0, named as ``surrogate_corpus`` names them."""
    walks = _unit_walks(config, innovations)
    return [
        TechnologySeries(_name(config, j), np.arange(1, y.size + 1), y)
        for j, y in enumerate(walks)
        if config.volatilities[j] > 0.0
    ]


def _per_series_reference(config, innovations):
    """(series_idx, tau, norm, n_skipped) from one ``hindcast_errors`` call per
    walk of ``_unit_walks``, K = 0 series included."""
    series_idx, taus, norms, n_skipped = [], [], [], 0
    for j, y in enumerate(_unit_walks(config, innovations)):
        _, tau, _, norm, _, _, skipped = _kernels.hindcast_errors(y, config.m, config.tau_max)
        series_idx.append(np.full(tau.size, j, dtype=np.int64))
        taus.append(tau)
        norms.append(norm)
        n_skipped += skipped
    return np.concatenate(series_idx), np.concatenate(taus), np.concatenate(norms), n_skipped


def _assert_bytes_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@PROPERTY
@given(configs(), st.integers(0, 10**6))
@example(  # the mu = K = 0 series get no records; the 5-point series is too short
    SurrogateConfig(
        replications=1,
        theta=0.3,
        m=4,
        tau_max=3,
        seed=1,
        template=((9, 0.0, 0.0), (5, -0.1, 0.2), (12, 0.0, 0.0), (10, -0.1, 0.2)),
    ),
    0,
)
def test_engine_matches_per_series_kernel(config, rep):
    innovations = _per_series_innovations(config, derive_rng(config.seed, rep))
    reference = _per_series_reference(config, innovations)
    engine = replication_errors(config, derive_rng(config.seed, rep))
    corpus = _kernels.corpus_norm_errors(
        config.lengths, config.theta, innovations, config.m, config.tau_max
    )
    volatile = config.volatilities[reference[0]] > 0.0
    for actual, expected in zip(engine, reference[:3]):
        _assert_bytes_equal(actual, expected[volatile])
    for actual, expected in zip(corpus[:3], reference[:3]):
        _assert_bytes_equal(actual, expected)
    assert corpus[3] == reference[3]


@PROPERTY
@given(configs(), st.integers(0, 10**6))
# At one horizon numpy's sum would pair the terms of eight technologies, and
# the too-short series, which has no records, would shift the pairing.
@example(
    SurrogateConfig(
        replications=1, theta=0.5, m=4, tau_max=1, seed=0,
        template=((5, -0.1, 0.2),) + ((12, -0.1, 0.2),) * 8,
    ),
    0,
)
@example(
    SurrogateConfig(
        replications=1, theta=0.5, m=4, tau_max=1, seed=0, weighting="equal-technology",
        template=((5, -0.1, 0.2),) + ((12, -0.1, 0.2),) * 8,
    ),
    0,
)
# Past 999 series the names need a fourth digit to sort in template order,
# which is the order the engine adds the series in.
@example(
    SurrogateConfig(
        replications=1, theta=0.5, m=4, tau_max=5, seed=0, template=((10, -0.1, 0.2),) * 1001
    ),
    0,
)
def test_engine_matches_simulated_corpus_hindcast(config, rep):
    corpus = _unit_corpus(config, _per_series_innovations(config, derive_rng(config.seed, rep)))
    records = hindcast_corpus(corpus, config.m, tau_max=config.tau_max).records
    series_idx, tau, norm = replication_errors(config, derive_rng(config.seed, rep))
    _assert_bytes_equal(norm, records.norm_error)
    _assert_bytes_equal(tau, records.tau)
    names = [records.names[k] for k in records.tech.tolist()]
    assert [_name(config, j) for j in series_idx.tolist()] == names
    if records:
        curve = error_growth(records, weighting=config.weighting)
        xi = xi_from_errors(series_idx, tau, norm, config)
        _assert_bytes_equal(xi[curve.taus - 1], curve.xi)
        assert np.all(np.isnan(np.delete(xi, curve.taus - 1)))


@PROPERTY
@given(configs(), st.data())
def test_deviation_statistics_equal_their_null_row(config, data):
    # the walks that replication r of the null simulates give row r as their
    # observed statistics: the observed and the null path share the hindcast
    # and the eps* divisor
    r = data.draw(st.integers(0, config.replications - 1))
    rng = derive_rng(config.seed, _stream_tag("xi-band"), r)
    corpus = _unit_corpus(config, _per_series_innovations(config, rng))
    records = hindcast_corpus(corpus, config.m, tau_max=config.tau_max).records
    assume(len(records) > 0)
    test = distribution_deviation_test(records, config)
    _assert_bytes_equal(test.observed, test.values[r])


@PROPERTY
@given(configs(), st.data())
def test_one_corpus_gives_its_band_and_deviation_rows(config, data):
    # one draw serves both nulls: the walks of replication r give band row r
    # and deviation row r as their observed statistics
    r = data.draw(st.integers(0, config.replications - 1))
    rng = derive_rng(config.seed, _stream_tag("xi-band"), r)
    corpus = _unit_corpus(config, _per_series_innovations(config, rng))
    records = hindcast_corpus(corpus, config.m, tau_max=config.tau_max).records
    assume(len(records) > 0)
    curve = error_growth(records, weighting=config.weighting)
    with pytest.warns(UserWarning, match="replications"):
        band, deviation = validation_nulls(config, curve, records)
    _assert_bytes_equal(band.values[r, curve.taus - 1], curve.xi)
    assert np.all(np.isnan(np.delete(band.values[r], curve.taus - 1)))
    _assert_bytes_equal(deviation.values[r], deviation.observed)


def _validation_inputs(replications):
    config = SurrogateConfig(
        replications=replications, theta=0.63, m=5, tau_max=20, seed=9, template=REFERENCE_TEMPLATE
    )
    assert 5 % _engine_plan(config).chunk  # a pass straddles replication 5
    records = hindcast_corpus(surrogate_corpus(config, derive_rng(10, 0)), 5, tau_max=20).records
    return config, error_growth(records), records


def _validation_nulls(config, curve, records):
    with pytest.warns(UserWarning, match="replications"):
        return validation_nulls(config, curve, records)


@pytest.mark.parametrize("reps", [5, 8, 6])
def test_validation_nulls_equal_the_single_null_calls(reps):
    config, curve, records = _validation_inputs(reps)
    band, deviation = _validation_nulls(config, curve, records)
    with pytest.warns(UserWarning, match="replications"):
        single_band = null_xi_band(config, curve)
    single_deviation = distribution_deviation_test(records, config)
    for actual, expected in ((band, single_band), (deviation, single_deviation)):
        assert actual.statistic == expected.statistic
        _assert_bytes_equal(actual.values, expected.values)
        _assert_bytes_equal(actual.observed, expected.observed)
    _assert_bytes_equal(band.taus, single_band.taus)


def test_each_null_is_the_prefix_of_a_longer_one():
    # replication r's rows of both statistics do not depend on how many
    # replications the ensemble takes, though a pass straddles replication 5
    config, curve, records = _validation_inputs(8)
    band, deviation = _validation_nulls(config, curve, records)
    fewer = dataclasses.replace(config, replications=5)
    short_band, short_deviation = _validation_nulls(fewer, curve, records)
    _assert_bytes_equal(short_band.values, band.values[:5])
    _assert_bytes_equal(short_deviation.values, deviation.values[:5])


def test_validation_nulls_keep_the_single_call_checks():
    config, curve, records = _validation_inputs(100)
    other_weighting = dataclasses.replace(curve, weighting="equal-technology")
    with pytest.raises(ValueError, match="weighting"):
        validation_nulls(config, other_weighting, records)
    window_6 = dataclasses.replace(config, m=6)
    with pytest.raises(ValueError, match="config.m"):  # the records' window
        validation_nulls(window_6, dataclasses.replace(curve, m=6), records)


@PROPERTY
@given(st.data())
def test_norm_errors_do_not_depend_on_drift_or_scale(data):
    # Drift cancels in the raw error and the window deviations, and the scale
    # in their ratio, so the engine simulates the unit, drift-free walk
    # whatever the template's (mu, K) > 0: the same lengths at (0, 1) give
    # the same bytes.
    m = data.draw(st.integers(4, 10))
    lengths = data.draw(st.lists(st.integers(2, 80), min_size=1, max_size=6))
    lengths[0] = max(lengths[0], m + 2)
    student = data.draw(st.booleans())
    config = SurrogateConfig(
        replications=1,
        theta=0.0 if student else data.draw(st.floats(-0.95, 0.95)),
        m=m,
        tau_max=data.draw(st.integers(1, 25)),
        seed=data.draw(st.integers(0, 2**32)),
        template=tuple(
            (T, data.draw(st.floats(*DRIFTS)), data.draw(st.floats(*VOLATILITIES))) for T in lengths
        ),
        student_df=data.draw(st.floats(2.5, 30.0)) if student else None,
    )
    unit = dataclasses.replace(config, template=tuple((T, 0.0, 1.0) for T in lengths))
    rep = data.draw(st.integers(0, 10**6))
    series_idx, tau, norm = replication_errors(config, derive_rng(config.seed, rep))
    unit_idx, unit_tau, unit_norm = replication_errors(unit, derive_rng(config.seed, rep))
    _assert_bytes_equal(series_idx, unit_idx)  # the same records are kept
    _assert_bytes_equal(tau, unit_tau)
    _assert_bytes_equal(norm, unit_norm)


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_nulls_do_not_depend_on_drift_or_scale(scale):
    # Scaling every K and changing every mu leaves the band, the deviation
    # null and Z(theta) equal as bytes. When the walks carried mu and K, this
    # template gave a band of rounding noise at K = 1e-160 and of zeros at
    # K = 1e160.
    base = dict(replications=100, theta=0.3, m=5, tau_max=4, seed=3)
    template = ((30, -0.05, 0.1), (25, -0.1, 0.1), (12, -0.2, 0.0))
    moved = tuple((T, 1.0 - 7.0 * mu, k * scale) for T, mu, k in template)
    observed = SurrogateConfig(**base, template=template)
    corpus = surrogate_corpus(observed, derive_rng(8, 0))
    records = hindcast_corpus(corpus, 5, tau_max=4).records
    nulls = []
    for t in (template, moved):
        config = SurrogateConfig(**base, template=t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # Z - 1 need not change sign
            z = estimate_theta_matched(error_growth(records), config, [0.0, 0.3, 0.6]).z_values
        deviation = distribution_deviation_test(records, config).values
        nulls.append((null_xi_band(config).values, deviation, z))
    for actual, expected in zip(*nulls):
        _assert_bytes_equal(actual, expected)


def test_zero_volatility_series_has_no_null_records():
    # Series 0 has K = 0, so its windows have zero variance: each null row is
    # the statistic of series 1's walk alone, drawn after series 0's 20 draws.
    template = ((20, -0.08, 0.0), (20, -0.08, 0.06))
    config = SurrogateConfig(replications=3, theta=0.3, m=5, tau_max=6, seed=4, template=template)
    assert np.all(_engine_plan(config).origin_series == 1)

    def observed(config, *stream):
        corpus = _unit_corpus(config, _per_series_innovations(config, derive_rng(*stream)))
        records = hindcast_corpus(corpus, config.m, tau_max=config.tau_max).records
        assert records.names == ("surrogate-001",)
        return records

    with pytest.warns(UserWarning, match="replications"):
        band = null_xi_band(config).values
    for r in range(config.replications):
        records = observed(config, config.seed, _stream_tag("xi-band"), r)
        _assert_bytes_equal(band[r], error_growth(records).xi)
        test = distribution_deviation_test(records, config)
        _assert_bytes_equal(test.values[r], test.observed)

    curves = robustness_suite(
        [], m=5, tau_max=6, theta=0.3, seed=4, replications=1, fat_tail_dfs=[3.0], template=template
    )["fat_tails"]
    student = dataclasses.replace(config, replications=1, theta=0.0, student_df=3.0)
    student_xi = error_growth(observed(student, 4, _stream_tag("fat-tails-student"), 0)).xi
    assert curves["student"]["df=3"] == student_xi.tolist()
    # the normal baselines are the exact null means
    assert [curves["normal_rwd"], curves["ima"]] == null_xi_mean(5, 6, [0.0, 0.3]).tolist()


@PROPERTY
@given(configs())
def test_rows_do_not_depend_on_pass_size(config):
    plan = _engine_plan(config)
    shape = (len(config.template), config.tau_max)
    cell, counts = _cells(plan.origin_series[plan.record_origin], plan.tau, shape)
    reps = config.replications

    def xi_in_passes_of(size):
        rngs = [derive_rng(config.seed, 7, r) for r in range(reps)]
        innovations = np.array([_innovations(config, rng) for rng in rngs])
        work = _kernels._Workspace(plan, size)
        xi = []
        for i in range(0, reps, size):
            norm, _ = _kernels._walk_errors(plan, config.theta, config.m, innovations[i : i + size], work)
            xi.append(_xi(_cell_sums(norm, cell, shape), counts, config.weighting))
        return np.vstack(xi)

    one_at_a_time = np.vstack(
        [
            xi_from_errors(*replication_errors(config, derive_rng(config.seed, 7, r)), config)
            for r in range(reps)
        ]
    )
    for size in (1, 3, reps):
        _assert_bytes_equal(xi_in_passes_of(size), one_at_a_time)


@pytest.mark.parametrize(
    "family",
    [
        dict(theta=0.63),
        dict(theta=0.63, weighting="equal-technology"),
        dict(theta=0.0, student_df=3.0),
    ],
)
def test_ensemble_rows_equal_one_replication_rows(family):
    config = SurrogateConfig(
        replications=9, m=5, tau_max=20, seed=5, template=REFERENCE_TEMPLATE, **family
    )
    assert _build_plan(config.lengths, config.m, config.tau_max).chunk < config.replications  # several passes
    one_at_a_time = np.vstack(
        [
            xi_from_errors(*replication_errors(config, derive_rng(config.seed, 1, r)), config)
            for r in range(config.replications)
        ]
    )
    _assert_bytes_equal(_ensemble(config, 1)[0], one_at_a_time)


@st.composite
def banded_lengths(draw, m):
    """Series lengths that put the plan's bands to the test: lengths too
    short for a window of m, lengths at 2^k and 2^k + 1 on either side of a
    band's edge, and maybe one series far longer than the rest."""
    octave = st.integers(1, 6)
    length = st.one_of(
        st.integers(2, m + 1),
        octave.map(lambda k: 2**k),
        octave.map(lambda k: 2**k + 1),
        st.integers(2, 70),
    )
    lengths = draw(st.lists(length, min_size=1, max_size=8))
    if draw(st.booleans()):
        lengths.insert(draw(st.integers(0, len(lengths))), draw(st.integers(150, 300)))
    return lengths


@PROPERTY
@given(st.data())
def test_corpus_norm_errors_equal_the_record_by_record_oracle(data):
    # whatever band each series lands in; a series whose innovations are all
    # 0 is flat, as a K = 0 series, so each of its windows is skipped
    m = data.draw(st.sampled_from([2, 4, 5, 9]))
    lengths = np.array(data.draw(banded_lengths(m)), dtype=np.int64)
    flat = np.array(data.draw(st.lists(st.booleans(), min_size=lengths.size, max_size=lengths.size)))
    theta = data.draw(st.floats(-0.95, 0.95))
    tau_max = data.draw(st.sampled_from([1, 3, 20, None]))
    w = derive_rng(data.draw(st.integers(0, 2**32)), 0).standard_normal(int(lengths.sum()))
    w[np.repeat(flat, lengths)] = 0.0
    series_idx, taus, norms, skipped = [], [], [], 0
    for j, w_j in enumerate(np.split(w, np.cumsum(lengths)[:-1])):
        y = np.concatenate(([0.0], np.cumsum(w_j[1:] + theta * w_j[:-1])))
        _, tau, _, norm, _, _, n_skipped = reference.hindcast_errors(y, m, tau_max)
        series_idx.append(np.full(tau.size, j, dtype=np.int64))
        taus.append(tau)
        norms.append(norm)
        skipped += n_skipped
    got = _kernels.corpus_norm_errors(lengths, theta, w, m, tau_max)
    for actual, expected in zip(got[:3], (series_idx, taus, norms)):
        _assert_bytes_equal(actual, np.concatenate(expected))
    assert got[3] == skipped


@PROPERTY
@given(st.sampled_from([2, 5, 9]).flatmap(lambda m: st.tuples(st.just(m), banded_lengths(m))))
def test_a_band_pads_each_series_to_less_than_twice_its_length(case):
    m, lengths = case
    plan = _build_plan(lengths, m, 20)
    assert plan.cells == sum(n * width for _, n, width in plan.bands)
    for first, n, width in plan.bands:
        members = (plan.series_start >= first) & (plan.series_start < first + n * width)
        points = int(np.sum(np.asarray(lengths)[members]))
        assert np.count_nonzero(members) == n and n * width < 2 * points
    # each series' points sit in cells of their own, in order
    assert np.unique(plan.draws).size == plan.draws.size == sum(lengths)
    assert np.array_equal(plan.draws[np.cumsum(lengths) - lengths], plan.series_start)


def test_the_bundled_template_lays_out_in_five_bands():
    plan = _build_plan([t[0] for t in REFERENCE_TEMPLATE], 5, 20)
    assert len(plan.bands) == 5 and plan.cells == 1203  # 4,187 cells when padded to T = 79
    assert plan.chunk in (2, 3, 4, 6, 7, 8)  # the tests of several passes assume it


@st.composite
def banded_configs(draw):
    """Configs of ``banded_lengths`` with mu = K = 0 series, normal or Student t."""
    m = draw(st.integers(4, 9))
    lengths = draw(banded_lengths(m))
    longest = int(np.argmax(lengths))
    lengths[longest] = max(lengths[longest], m + 2)
    zero = [j != longest and draw(st.integers(0, 3)) == 0 for j in range(len(lengths))]
    student = draw(st.booleans())
    return SurrogateConfig(
        replications=draw(st.integers(1, 7)),
        theta=0.0 if student else draw(st.floats(-0.95, 0.95)),
        m=m,
        tau_max=draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 2**32)),
        template=tuple((T, 0.0, 0.0) if z else (T, -0.1, 0.2) for T, z in zip(lengths, zero)),
        student_df=draw(st.floats(2.5, 30.0)) if student else None,
        weighting=draw(st.sampled_from(["pooled", "equal-technology"])),
    )


@PROPERTY
@given(banded_configs())
def test_ensemble_rows_do_not_depend_on_the_chunk(config):
    # one workspace serves every pass, the last one shorter when the chunk
    # does not divide the replications
    records = hindcast_corpus(surrogate_corpus(config, derive_rng(3, 0)), config.m, tau_max=config.tau_max).records
    if not (records.tau <= config.tau_max).any():
        records = None
    one_at_a_time = np.vstack(
        [
            xi_from_errors(*replication_errors(config, derive_rng(config.seed, 1, r)), config)
            for r in range(config.replications)
        ]
    )
    build = _build_plan
    rows = []
    for chunk in (1, 3, None):

        def plan(*key, chunk=chunk):
            default = build(*key)
            return default if chunk is None else dataclasses.replace(default, chunk=chunk)

        with mock.patch.object(surrogate, "_build_plan", plan):
            xi, deviation = _ensemble(config, 1, records)
        _assert_bytes_equal(xi, one_at_a_time)
        rows.append(None if deviation is None else deviation.values)
    if records is not None:
        _assert_bytes_equal(rows[0], rows[1])
        _assert_bytes_equal(rows[0], rows[2])


def _traced_peak(fn):
    fn()  # lazy imports and first-call caches are not the call's own
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_passes_allocate_nothing_that_grows_with_their_number():
    config, _, records = _validation_inputs(8)
    chunk = _engine_plan(config).chunk

    def ensemble(passes):
        return lambda: _ensemble(dataclasses.replace(config, replications=passes * chunk), 1, records)

    # the (R, tau_max) and (R, 3) outputs grow, and the peak moves by a few
    # hundred bytes of Python objects from run to run; one record row is 51 kB
    outputs = (50 - 2) * chunk * (config.tau_max + len(surrogate.DEVIATION_STATISTICS)) * 8
    assert _traced_peak(ensemble(50)) - _traced_peak(ensemble(2)) <= outputs + 4096


def test_a_pass_allocates_less_than_one_record_array_in_its_workspace():
    # the layouts, windows and errors live in the workspace, so what a pass
    # allocates is of the origins' size, a ninth of the records' here
    config, _, _ = _validation_inputs(8)
    plan = _engine_plan(config)
    work = _kernels._Workspace(plan, plan.chunk)
    innovations = np.array([_innovations(config, derive_rng(5, r)) for r in range(plan.chunk)])
    peak = _traced_peak(lambda: _kernels._walk_errors(plan, config.theta, config.m, innovations, work))
    assert peak < plan.chunk * plan.tau.size * 8


def test_an_ensemble_holds_one_cell_index_for_all_its_rows():
    # past its workspace, plan, innovations and Xi rows, an ensemble holds the
    # records' one Xi cell index and per-pass arrays of the cells' size; a key
    # per row of a pass would take one (chunk, records) int64 array
    config, _, _ = _validation_inputs(8)
    config = dataclasses.replace(config, replications=40)
    plan = _engine_plan(config)
    work = _kernels._Workspace(plan, plan.chunk)
    held = sum(a.nbytes for a in vars(work).values())
    held += sum(a.nbytes for a in vars(plan).values() if isinstance(a, np.ndarray))
    held += plan.chunk * int(config.lengths.sum()) * 8  # the innovations of a pass
    held += config.replications * config.tau_max * 8  # the Xi rows
    peak = _traced_peak(lambda: _ensemble(config, 1))
    assert peak - held < plan.chunk * plan.tau.size * 8


class TestStreamTags:
    def test_experiments_own_disjoint_tag_blocks(self):
        blocks = sorted(_STREAM_TAGS.values())
        assert all(isinstance(size, int) and size >= 1 for _, size in blocks)  # each has a size
        for (first, size), (next_first, _) in zip(blocks, blocks[1:]):
            assert first + size <= next_first
        assert all(first >= 1 for first, _ in blocks)

    def test_index_outside_the_block_rejected(self):
        first, size = _STREAM_TAGS["fat-tails-student"]
        assert _stream_tag("fat-tails-student", size - 1) == first + size - 1
        with pytest.raises(ValueError, match="fat-tails-student"):
            _stream_tag("fat-tails-student", size)
        with pytest.raises(ValueError):
            _stream_tag("xi-band", -1)
        with pytest.raises(ValueError, match="xi-band"):
            _stream_tag("xi-band", 1)  # one stream serves the band and the deviation test

    def test_retired_tags_stay_unused(self):
        # 2 gave the old deviation nulls, 4 and 5 the old normal fat-tail
        # baselines and 100 the old theta matching draws; reusing any would
        # repeat their draws
        for tag in (2, 4, 5, 100):
            assert not any(first <= tag < first + size for first, size in _STREAM_TAGS.values())


def test_an_ensemble_past_its_reach_holds_only_its_padded_rows():
    # the Xi cells and their sums stop at the template's reach, 73 horizons at
    # m = 5: a cap far past it adds the NaN columns of the rows and nothing
    # per pass, where the cells of a pass used to take about 14 MB at 2,000
    config = SurrogateConfig(
        replications=16, theta=0.63, m=5, tau_max=73, seed=9, template=REFERENCE_TEMPLATE
    )
    assert int(_engine_plan(config).tau.max()) == config.tau_max
    far = dataclasses.replace(config, tau_max=2000)
    padded = config.replications * (far.tau_max - config.tau_max) * 8
    assert _traced_peak(lambda: _ensemble(far, 1)) - _traced_peak(lambda: _ensemble(config, 1)) <= padded + 4096
    # past the reach, each row holds the 0/0 of the reference's full grid, as bits
    expected = np.vstack(
        [xi_from_errors(*replication_errors(far, derive_rng(9, 1, r)), far) for r in range(16)]
    )
    xi, _ = _ensemble(far, 1)
    _assert_bytes_equal(xi, expected)
    assert np.isnan(xi[:, config.tau_max :]).all()
