"""Exhaustive hindcast engine: record enumeration, curves, pooled ECDFs."""

import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import costwalk
from costwalk import (
    Ecdf,
    HindcastRecords,
    TechnologySeries,
    bias_test,
    error_growth,
    hindcast_corpus,
    make_rng,
    pooled_rescaled_distribution,
    variance_factors,
)
from costwalk.hindcast import _COLUMNS, _RUNS_PER_WRITE, write_error_growth_csv, write_records_csv

from reference import hindcast_errors as record_by_record
from reference import simulate_rwd


def _series(values, name="s", start_year=2000):
    values = np.asarray(values, dtype=float)
    return TechnologySeries(name, np.arange(values.size) + start_year, values)


def _random_series(n_obs, seed, name="s", mu=-0.1, k=0.1):
    return simulate_rwd(mu, k, n_obs, make_rng(seed), name=name, start_year=2000)


def _columns(rows, m=5):
    """HindcastRecords holding hand-built rows, in their order. A row is the tuple
    (technology, origin_index, origin_year, tau, raw_error, norm_error, mu_hat, k_hat)."""
    technology, *columns = zip(*rows)
    names = sorted(set(technology))
    return HindcastRecords(
        tuple(names),
        np.array([names.index(t) for t in technology], dtype=np.int64),
        *(np.array(c, dtype=np.int64) for c in columns[:3]),
        *(np.array(c, dtype=np.float64) for c in columns[3:]),
        m,
    )


def _technologies(records):
    """Each record's technology name."""
    return [records.names[k] for k in records.tech.tolist()]


class TestEnumeration:
    def test_three_records_for_t8_m5(self):
        series = _random_series(8, seed=1)
        records = hindcast_corpus([series], m=5).records
        assert records.origin_index.tolist() == [5, 5, 6]
        assert records.tau.tolist() == [1, 2, 1]
        assert records.origin_year.tolist() == [2005, 2005, 2006]

    def test_no_feasible_origin(self):
        series = _random_series(7, seed=2)
        result = hindcast_corpus([series], m=6)
        assert len(result.records) == 0
        assert result.too_short == ("s",)

    def test_window_and_cap_must_be_whole_numbers(self):
        corpus = [_random_series(7, seed=5)]
        with pytest.raises(ValueError, match="m must be an integer"):
            hindcast_corpus(corpus, 5.7)  # not "too short", and not labelled m = 5.7
        with pytest.raises(ValueError, match="tau_max must be an integer"):
            hindcast_corpus(corpus, 5, tau_max=20.5)
        with pytest.raises(ValueError, match="tau_max must be >= 1"):
            hindcast_corpus(corpus, 5, tau_max=0)
        records = hindcast_corpus(corpus, np.float64(5.0), tau_max=np.int64(20)).records
        assert type(records.m) is int
        assert records == hindcast_corpus(corpus, 5, tau_max=20).records

    @pytest.mark.parametrize("n_obs,m", [(10, 4), (15, 5), (30, 7), (12, 9)])
    def test_unrestricted_count_formula(self, n_obs, m):
        series = _random_series(n_obs, seed=n_obs * m)
        result = hindcast_corpus([series], m=m)
        assert len(result.records) == (n_obs - m - 1) * (n_obs - m) // 2

    def test_tau_max_caps_horizons(self):
        series = _random_series(20, seed=3)
        result = hindcast_corpus([series], m=5, tau_max=4)
        assert result.records.tau.max() == 4

    def test_raw_error_recomputes(self):
        series = _random_series(25, seed=4)
        y = series.log_costs
        r = hindcast_corpus([series], m=5).records
        recomputed = y[r.origin_index + r.tau] - (y[r.origin_index] + r.mu_hat * r.tau)
        assert np.all(np.abs(recomputed - r.raw_error) <= 1e-12)
        np.testing.assert_allclose(r.norm_error, r.raw_error / r.k_hat, rtol=1e-12)

    def test_corpus_order_independent(self):
        corpus = [_random_series(15 + j, seed=j, name=f"t{j}") for j in range(5)]
        a = hindcast_corpus(corpus, m=5)
        b = hindcast_corpus(list(reversed(corpus)), m=5)
        assert a.records == b.records

    def test_duplicate_names_rejected(self):
        # records are grouped and ordered by name, so two series with one
        # name would interleave by corpus order and count as one technology
        a = _random_series(12, seed=1, name="same")
        b = _random_series(15, seed=2, name="same")
        for corpus in ([a, b], [b, a]):
            with pytest.raises(ValueError, match="same"):
                hindcast_corpus(corpus, 5)

    def test_selection_keeps_names_dense(self):
        corpus = [_random_series(12 + j, seed=j, name=f"t{j}") for j in range(3)]
        records = hindcast_corpus(corpus + [_random_series(6, seed=9, name="short")], m=5).records
        assert records.names == ("t0", "t1", "t2")  # "short" has no records
        keep = records.tech > 0
        later = records[keep]
        assert later.names == ("t1", "t2")
        assert later.tech.min() == 0
        assert _technologies(later) == [t for t in _technologies(records) if t != "t0"]
        assert later.norm_error.tolist() == records.norm_error[keep].tolist()
        assert later == records[np.flatnonzero(keep)]

    def test_integer_index_raises(self):
        records = hindcast_corpus([_random_series(12, seed=1)], m=5).records
        for index in (0, -1, np.int64(2)):
            with pytest.raises(TypeError, match="mask"):
                records[index]
        with pytest.raises(TypeError):
            list(records)

    def test_zero_volatility_window_skipped_and_counted(self):
        # first six steps are exactly constant, so the first window has K = 0
        y = np.concatenate((-0.125 * np.arange(6.0), [-0.625 - 0.3, -0.625 - 0.5, -0.625 - 0.6]))
        result = hindcast_corpus([_series(y)], m=5)
        assert result.skipped_zero_volatility == 1
        assert np.all(result.records.origin_index != 5)


@hst.composite
def permuted_corpora(draw):
    """(m, tau_max, corpus, the corpus permuted): random walks with unique names,
    some too short for one window and some with only zero-variance windows."""
    m = draw(hst.integers(2, 6))
    lengths = draw(hst.lists(hst.integers(2, 3 * m + 8), min_size=1, max_size=8))
    lengths[0] = max(lengths[0], m + 2)  # at least one series can be hindcast
    seed = draw(hst.integers(0, 2**32 - 1))
    corpus = []
    for j, T in enumerate(lengths):
        if draw(hst.integers(0, 4)) == 0:
            corpus.append(_series(-0.125 * np.arange(T), name=f"t{j}"))
        else:
            corpus.append(_random_series(T, seed=seed + j, name=f"t{j}"))
    order = draw(hst.permutations(range(len(corpus))))
    tau_max = draw(hst.none() | hst.integers(1, 10))
    return m, tau_max, corpus, [corpus[i] for i in order]


@settings(max_examples=60, deadline=None)
@given(permuted_corpora())
def test_corpus_order_invariance(case):
    m, tau_max, corpus, permuted = case
    a = hindcast_corpus(corpus, m, tau_max=tau_max)
    b = hindcast_corpus(permuted, m, tau_max=tau_max)

    def keys(records):
        columns = (records.origin_index.tolist(), records.tau.tolist(), records.norm_error.tolist())
        return sorted(zip(_technologies(records), *columns))

    assert keys(a.records) == keys(b.records)
    assert a.skipped_zero_volatility == b.skipped_zero_volatility
    assert sorted(a.too_short) == sorted(b.too_short)
    if a.records:
        for weighting in ("pooled", "equal-technology"):
            curve_a = error_growth(a.records, weighting=weighting)
            curve_b = error_growth(b.records, weighting=weighting)
            np.testing.assert_array_equal(curve_b.taus, curve_a.taus)
            np.testing.assert_array_equal(curve_b.n_forecasts, curve_a.n_forecasts)
            np.testing.assert_allclose(curve_b.xi, curve_a.xi, rtol=1e-12)


def _oracle_hindcast(corpus, m, tau_max):
    """(names, columns, skipped, too_short) of the record-by-record oracle run
    on each series in name order, its columns concatenated."""
    names, parts, skipped, too_short = [], [], 0, []
    for series in sorted(corpus, key=lambda s: s.name):
        if series.n_obs < m + 2:
            too_short.append(series.name)
            continue
        origin, *columns, n_skipped = record_by_record(series.log_costs, m, tau_max)
        skipped += n_skipped
        if origin.size:
            tech = np.full(origin.size, len(names), dtype=np.int64)
            parts.append((tech, origin, series.years[origin], *columns))
            names.append(series.name)
    i, f = np.empty(0, dtype=np.int64), np.empty(0)
    columns = [np.concatenate(c) for c in zip((i, i, i, i, f, f, f, f), *parts)]
    return tuple(names), columns, skipped, tuple(too_short)


def _flat_prices(n_obs, name, start_year=2000):
    return TechnologySeries(name, np.arange(n_obs) + start_year, np.full(n_obs, 0.5))


@hst.composite
def repeated_price_corpora(draw):
    """(corpus, m, tau_max): up to six series with distinct names and start
    years, whose log changes are drawn from a few values, zero most often, so
    that runs of repeated prices give windows of zero volatility."""
    m = draw(hst.integers(2, 5))
    names = draw(hst.permutations(["a", "b", "c", "d", "e", "f"]))[: draw(hst.integers(1, 6))]
    changes = hst.sampled_from([0.0, 0.0, 0.0, -0.125, 0.25]) | hst.floats(-1.0, 1.0)
    corpus = []
    for name in names:
        steps = draw(hst.lists(changes, min_size=1, max_size=30))
        y = np.concatenate(([draw(hst.floats(-3.0, 3.0))], steps)).cumsum()
        corpus.append(TechnologySeries(name, np.arange(y.size) + draw(hst.integers(1900, 2000)), y))
    return corpus, m, draw(hst.sampled_from([None, 1, 20]))


@settings(max_examples=80, deadline=None)
@example(([], 5, None))
@example(([_series([0.0, -0.1, -0.2], "a"), _series([0.0, 0.1], "b")], 2, 20))  # all too short
@example(([_flat_prices(12, "a"), _flat_prices(9, "b", 1950)], 5, 1))  # every window skipped
@example(([_flat_prices(12, "a"), _random_series(14, seed=3, name="b")], 5, None))
@given(repeated_price_corpora())
def test_hindcast_corpus_equals_the_oracle_series_by_series(case):
    corpus, m, tau_max = case
    result = hindcast_corpus(corpus, m, tau_max=tau_max)
    names, expected, skipped, too_short = _oracle_hindcast(corpus, m, tau_max)
    records = result.records
    assert (records.names, records.m) == (names, m)
    assert (result.skipped_zero_volatility, result.too_short) == (skipped, too_short)
    for name, want in zip(_COLUMNS, expected):
        got = getattr(records, name)
        assert got.dtype == want.dtype and got.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name
        # each column holds its records once: exactly when no window was
        # skipped, else in a prefix of the room for every window's records
        room = got if got.base is None else got.base
        assert room.size == got.size if not skipped else room.size >= got.size, name


@pytest.fixture(scope="module")
def x10_records():
    """The corpus drawn from the 53-technology template repeated 10 times
    (530 series), as a list of series, and its records at m = 5, tau_max = 20."""
    template = costwalk.corpus_template(costwalk.load_reference_params(improving_only=True)) * 10
    config = costwalk.SurrogateConfig(
        replications=1, theta=0.63, m=5, tau_max=20, seed=5, template=template
    )
    corpus = costwalk.surrogate_corpus(config, make_rng(5))
    records = hindcast_corpus(corpus, 5, tau_max=20).records
    assert len(records) > 60_000
    return corpus, records


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _nbytes(records):
    return sum(getattr(records, c).nbytes for c in _COLUMNS)


def test_hindcast_corpus_memory_holds_each_record_once(x10_records):
    """Gathering per-series parts and joining them took 2.0x the bytes of the
    returned columns; copied into preallocated columns, 1.06x (numpy 2.4,
    CPython 3.11)."""
    corpus, records = x10_records
    assert _traced_peak(lambda: hindcast_corpus(corpus, 5, tau_max=20)) < 1.15 * _nbytes(records)


def test_error_growth_memory_makes_no_masked_copies(x10_records):
    """With masked copies of three columns and a cell index built from two
    temporaries and copied as its key, error_growth took 0.56x the bytes of
    the records; with none of them, 0.29x (numpy 2.4, CPython 3.11)."""
    _, records = x10_records
    for weighting in ("pooled", "equal-technology"):
        assert _traced_peak(lambda: error_growth(records, weighting=weighting)) < 0.35 * _nbytes(records)


class TestErrorGrowth:
    def _constant_rows(self, c=1.5, taus=(1, 1, 2, 2, 3)):
        return [("x", 5, 2005, t, c * 0.1, c, -0.1, 0.1) for t in taus]

    def _constant_records(self, c=1.5, taus=(1, 1, 2, 2, 3)):
        return _columns(self._constant_rows(c, taus))

    def test_constant_errors_square(self):
        curve = error_growth(self._constant_records(c=1.5))
        assert np.allclose(curve.xi, 1.5**2)
        assert curve.taus.tolist() == [1, 2, 3]
        assert curve.n_forecasts.tolist() == [2, 2, 1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_growth([])

    @pytest.mark.parametrize("weighting", ["pooled", "equal-technology"])
    def test_empty_rejected_with_tau_max(self, weighting):
        with pytest.raises(ValueError, match="no records"):
            error_growth([], tau_max=5, weighting=weighting)

    def test_whole_number_tau_max(self):
        # tau_max=3.0 used to raise "slice indices must be integers"
        records = self._constant_records(taus=(1, 2, 3, 4))
        whole = error_growth(records, tau_max=3)
        for tau_max in (3.0, np.int64(3)):
            curve = error_growth(records, tau_max=tau_max)
            assert curve.taus.tolist() == whole.taus.tolist() == [1, 2, 3]
            np.testing.assert_array_equal(curve.xi, whole.xi)
        with pytest.raises(ValueError, match="tau_max must be an integer"):
            error_growth(records, tau_max=2.5)

    @pytest.mark.parametrize("weighting", ["pooled", "equal-technology"])
    @pytest.mark.parametrize("tau_max", [0, -3])
    def test_tau_max_below_every_record_gives_empty_curve(self, weighting, tau_max):
        records = self._constant_records(taus=(1, 2, 3))
        curve = error_growth(records, tau_max=tau_max, weighting=weighting)
        assert curve.taus.size == curve.xi.size == 0
        assert curve.n_forecasts.size == curve.n_technologies.size == 0
        assert curve.xi.dtype == np.float64
        assert curve.n_forecasts.dtype == curve.n_technologies.dtype == np.int64
        assert curve.weighting == weighting

    @pytest.mark.parametrize("weighting", ["pooled", "equal-technology"])
    def test_horizon_below_one_rejected(self, weighting):
        below_one = ("y", 5, 2005, 0, 0.1, 1.0, -0.1, 0.1)
        records = _columns(self._constant_rows(taus=(1, 2)) + [below_one])
        with pytest.raises(ValueError, match="at least 1"):
            error_growth(records, weighting=weighting)
        with pytest.raises(ValueError, match="horizon must be >= 1"):  # the eps* divisor's check
            pooled_rescaled_distribution(records, theta=0.0)

    def test_tau_max_keeps_lower_horizons(self):
        curve = error_growth(self._constant_records(c=2.0, taus=(1, 1, 3, 4)), tau_max=3)
        assert curve.taus.tolist() == [1, 3]
        assert curve.n_forecasts.tolist() == [2, 1]
        assert curve.xi.tolist() == [4.0, 4.0]

    def test_equal_technology_does_not_depend_on_hash_seed(self):
        # The per-technology means must be averaged in an order that does not
        # come from iterating a set of names, whose order follows the string
        # hash seed.
        script = (
            "import numpy as np\n"
            "from costwalk import error_growth, hindcast_corpus, make_rng\n"
            "from reference import simulate_rwd\n"
            "rng = make_rng(5)\n"
            "corpus = [simulate_rwd(-0.05, 0.1, int(rng.integers(8, 30)), rng, name=f'tech-{j}')\n"
            "          for j in range(60)]\n"
            "records = hindcast_corpus(corpus, 5, tau_max=20).records\n"
            "print(error_growth(records, weighting='equal-technology').xi.tobytes().hex())\n"
        )
        src = str(Path(costwalk.__file__).resolve().parents[1])
        path = os.pathsep.join((src, str(Path(__file__).resolve().parent)))
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=120, check=True,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1

    def test_weightings_coincide_for_balanced_corpus(self):
        corpus = [_random_series(16, seed=j, name=f"t{j}") for j in range(4)]
        records = hindcast_corpus(corpus, m=5).records
        pooled = error_growth(records, weighting="pooled")
        equal = error_growth(records, weighting="equal-technology")
        np.testing.assert_allclose(pooled.xi, equal.xi, rtol=1e-10)

    def test_weightings_differ_for_unbalanced_corpus(self):
        corpus = [_random_series(30, seed=1, name="long"), _random_series(10, seed=2, name="short")]
        records = hindcast_corpus(corpus, m=5).records
        pooled = error_growth(records, weighting="pooled")
        equal = error_growth(records, weighting="equal-technology")
        common = np.isin(pooled.taus, equal.taus[equal.n_technologies > 1])
        assert not np.allclose(pooled.xi[common], equal.xi[common])


@hst.composite
def sparse_records(draw):
    """(records, tau_max): a few technologies at scattered horizons, so some
    horizons are missing altogether and some technologies skip some horizons."""
    names = draw(hst.lists(hst.sampled_from("abcdefgh"), min_size=1, max_size=6, unique=True))
    taus = draw(hst.lists(hst.integers(1, 40), min_size=1, max_size=8, unique=True))
    cells = draw(
        hst.lists(
            hst.tuples(
                hst.sampled_from(names),
                hst.sampled_from(taus),
                hst.floats(-20.0, 20.0, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    records = _columns([(name, 5, 2005, tau, 0.1, e, -0.1, 0.1) for name, tau, e in cells])
    tau_max = draw(hst.none() | hst.integers(1, 40))
    return records, tau_max


def _naive_error_growth(records, tau_max, weighting):
    """Per-horizon, per-technology loop over the records."""
    by_tau: dict[int, dict[str, list[float]]] = {}
    columns = (_technologies(records), records.tau.tolist(), records.norm_error.tolist())
    for name, tau, e in zip(*columns):
        if tau_max is None or tau <= tau_max:
            by_tau.setdefault(tau, {}).setdefault(name, []).append(e**2)
    taus = sorted(by_tau)
    n_forecasts = [sum(len(v) for v in by_tau[t].values()) for t in taus]
    n_technologies = [len(by_tau[t]) for t in taus]
    if weighting == "pooled":
        xi = [sum(sum(v) for v in by_tau[t].values()) / c for t, c in zip(taus, n_forecasts)]
    else:
        xi = [sum(sum(v) / len(v) for v in by_tau[t].values()) / len(by_tau[t]) for t in taus]
    return taus, xi, n_forecasts, n_technologies


@settings(max_examples=100, deadline=None)
@given(sparse_records(), hst.sampled_from(["pooled", "equal-technology"]))
def test_error_growth_equals_naive_loop(case, weighting):
    records, tau_max = case
    curve = error_growth(records, tau_max=tau_max, weighting=weighting)
    taus, xi, n_forecasts, n_technologies = _naive_error_growth(records, tau_max, weighting)
    assert curve.taus.tolist() == taus
    assert curve.n_forecasts.tolist() == n_forecasts
    assert curve.n_technologies.tolist() == n_technologies
    np.testing.assert_allclose(curve.xi, xi, rtol=1e-12, atol=0.0)


class TestPooledRescaledDistribution:
    def _records(self, n_series=400, n_obs=16, theta_sim=0.0, seed=10):
        rng = make_rng(seed)
        corpus = [
            simulate_rwd(-0.05, 0.08, n_obs, rng, name=f"t{j}") for j in range(n_series)
        ]
        return hindcast_corpus(corpus, m=5, tau_max=20).records

    def test_pooled_matches_student_iid_design(self):
        # T = m+2 gives one independent record per series; exact t(4) law
        rng = make_rng(123)
        corpus = [simulate_rwd(-0.1, 0.1, 7, rng, name=f"t{j}") for j in range(20_000)]
        records = hindcast_corpus(corpus, m=5).records
        ecdf = pooled_rescaled_distribution(records, theta=0.0)
        assert st.kstest(ecdf.values, st.t(df=4).cdf).pvalue > 0.01

    def test_larger_theta_contracts_beyond_horizon_one(self):
        records = self._records()
        records = records[records.tau >= 2]
        base = pooled_rescaled_distribution(records, theta=0.0)
        contracted = pooled_rescaled_distribution(records, theta=0.6)
        assert np.all(np.abs(np.sort(contracted.values)) <= np.abs(np.sort(base.values)) + 1e-15)
        assert np.abs(contracted.values).max() < np.abs(base.values).max()

    def test_split_by_horizon(self):
        # one call per horizon mask splits the pooled sample without changing it
        records = self._records(n_series=50)
        taus = np.unique(records.tau).tolist()
        split = [pooled_rescaled_distribution(records[records.tau == t], theta=0.3) for t in taus]
        assert sum(e.n for e in split) == len(records)
        pooled = pooled_rescaled_distribution(records, theta=0.3)
        values = np.sort(np.concatenate([e.values for e in split]))
        np.testing.assert_array_equal(values, pooled.values)

    def test_ecdf_evaluation_and_tails(self):
        ecdf = Ecdf(np.array([-2.0, -1.0, 1.0, 3.0]))
        assert ecdf(0.0) == 0.5
        assert ecdf(3.0) == 1.0
        assert ecdf(-2.5) == 0.0


class TestBiasTest:
    def test_symmetric_errors_give_high_p(self):
        records = _columns([
            ("x", 5 + i, 2005 + i, 1, e * 0.1, e, -0.1, 0.1)
            for i, e in enumerate([1.0, -1.0, 0.5, -0.5, 2.0, -2.0])
        ])
        assert bias_test(records, tau=1) == pytest.approx(1.0)

    def test_one_sided_errors_give_low_p(self):
        rng = make_rng(6)
        records = _columns([
            ("x", 5 + i, 2005 + i, 1, 0.1, float(e), -0.1, 0.1)
            for i, e in enumerate(rng.uniform(0.5, 1.5, size=30))
        ])
        assert bias_test(records, tau=1) < 1e-6

    def test_needs_two_records(self):
        records = _columns([("x", 5, 2005, 3, 0.1, 1.0, -0.1, 0.1)])
        with pytest.raises(ValueError):
            bias_test(records, tau=3)

    def test_null_corpus_median_p_reasonable(self):
        # overlapping windows overdisperse the nominal p-value; only its
        # median over replications is asserted
        ps = []
        for seed in range(40):
            rng = make_rng(900 + seed)
            corpus = [simulate_rwd(-0.05, 0.08, 20, rng, name=f"t{j}") for j in range(8)]
            records = hindcast_corpus(corpus, m=5, tau_max=10).records
            ps.append(bias_test(records, tau=3))
        assert float(np.median(ps)) > 0.1


def _assert_records_csv_is_csv_module(directory, records):
    """write_records_csv writes, byte for byte, what csv.writer writes for the records."""
    path = directory / "records.csv"
    write_records_csv(path, records)
    expected = directory / "expected.csv"
    with open(expected, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["technology", "t0_year", "tau", "raw_error", "norm_error", "mu_hat", "K_hat"])
        for tech, year, tau, *errors in zip(
            _technologies(records), records.origin_year.tolist(), records.tau.tolist(),
            records.raw_error, records.norm_error, records.mu_hat, records.k_hat,
        ):
            writer.writerow([tech, year, tau, *(f"{float(e):.10g}" for e in errors)])
    assert path.read_bytes() == expected.read_bytes()


# a NaN whose payload differs from np.nan's; both print as "nan"
_OTHER_NAN = float(np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0])
_FLOATS = hst.sampled_from([0.0, -0.0, np.nan, _OTHER_NAN, np.inf, -np.inf, -0.05]) | hst.floats()
_NO_RECORDS = HindcastRecords(
    (), *(np.empty(0, dtype=np.int64) for _ in range(4)), *(np.empty(0) for _ in range(4)), 5
)


@hst.composite
def origin_runs(draw):
    """Records in runs of one (technology, year, mu_hat, k_hat) each, in no
    particular order, drawn from few values so that neighbouring runs often
    share the technology and year but not mu_hat or k_hat, or the reverse."""
    names = draw(
        hst.lists(
            hst.sampled_from(["a", "b, c", 'say "x"', "100%", "%s", "%(k)d", "two\nlines", "Größe"]),
            min_size=1, max_size=3, unique=True,
        )
    )
    origins = hst.tuples(
        hst.sampled_from(names), hst.sampled_from([1990, 1991]), _FLOATS, _FLOATS, hst.integers(1, 4)
    )
    rows = [
        (name, 0, year, draw(hst.integers(1, 30)), draw(_FLOATS), draw(_FLOATS), mu, k)
        for name, year, mu, k, size in draw(hst.lists(origins, min_size=1, max_size=12))
        for _ in range(size)
    ]
    return _columns(rows)


@settings(max_examples=100, deadline=None)
@example(_NO_RECORDS)
@given(origin_runs())
def test_records_csv_runs_bytes_equal_csv_module(tmp_path_factory, records):
    _assert_records_csv_is_csv_module(tmp_path_factory.mktemp("runs"), records)


@pytest.mark.parametrize("n_origins", [0, _RUNS_PER_WRITE, _RUNS_PER_WRITE + 1])
def test_records_csv_bytes_equal_csv_module_at_block_edges(tmp_path, n_origins):
    # origins are written in blocks of _RUNS_PER_WRITE: none, exactly one
    # block, and one block and one origin more
    rows = [
        (f"t{j % 3}", j, 1990 + j // 3, tau, 0.1 * tau, tau / 3, -0.05 * j, 0.25)
        for j in range(n_origins)
        for tau in range(1, 2 + j % 3)
    ]
    records = _columns(rows) if rows else _NO_RECORDS
    _assert_records_csv_is_csv_module(tmp_path, records)


def test_records_csv_memory_is_bounded_by_blocks(tmp_path):
    """The records of a corpus drawn from the 53-technology template repeated
    10 times (530 series, about 64,000 records). Held as Python values at
    once, their three varying columns took 6.6 MB of traced allocations;
    written a block of origins at a time, 2.5 MB (numpy 2.4, CPython 3.11)."""
    template = costwalk.corpus_template(costwalk.load_reference_params(improving_only=True)) * 10
    config = costwalk.SurrogateConfig(
        replications=1, theta=0.63, m=5, tau_max=20, seed=5, template=template
    )
    corpus = costwalk.surrogate_corpus(config, make_rng(5))
    records = hindcast_corpus(corpus, 5, tau_max=20).records
    assert len(records) > 60_000
    tracemalloc.start()
    try:
        write_records_csv(tmp_path / "records.csv", records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.3e6


class TestCsvEmitters:
    def test_records_csv(self, tmp_path):
        records = hindcast_corpus([_random_series(12, seed=8, name="abc")], m=5).records
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["technology", "t0_year", "tau", "raw_error", "norm_error", "mu_hat", "K_hat"]
        assert len(rows) == len(records) + 1
        assert rows[1][0] == "abc"
        assert float(rows[1][3]) == pytest.approx(records.raw_error[0], rel=1e-9)

    def test_records_csv_bytes_equal_csv_module(self, tmp_path):
        # each name is quoted once and each origin's head and tail formatted
        # once; the file must stay what csv.writer writes, names that need
        # quoting included
        names = ["", " pad ", "a, b", 'say "hi"', '"', "two\nlines", "cr\r", "Größe — 太阳能", "plain"]
        raw = [0.1, -2.5e-12, 1e300, -0.0, np.inf, np.nan, 1 / 3, 123456789012.0, 7.0]
        rows = [
            (name, j, 1990 + j, 1 + j % 3, e, e / 0.3, -0.05, 0.3)
            for j, (name, e) in enumerate(zip(names, raw))
        ]
        _assert_records_csv_is_csv_module(tmp_path, _columns(rows))

    def test_error_growth_csv(self, tmp_path):
        records = hindcast_corpus([_random_series(20, seed=9)], m=5, tau_max=6).records
        curve = error_growth(records)
        path = tmp_path / "growth.csv"
        write_error_growth_csv(path, curve, m=5, theta=0.63)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "tau", "n_forecasts", "n_technologies", "xi_empirical", "xi_pred_theta0", "xi_pred_theta",
        ]
        first = rows[1]
        assert float(first[4]) == pytest.approx(variance_factors(1, 5, 0.0).xi, rel=1e-9)
        assert float(first[5]) == pytest.approx(variance_factors(1, 5, 0.63).xi, rel=1e-9)
