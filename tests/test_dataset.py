"""Ingestion, selection filter, summaries, and the volatility-drift relation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costwalk import (
    DataFormatError,
    DataWarning,
    SeriesSummary,
    TechnologySeries,
    corpus_template,
    ingest_csv,
    load_reference_params,
    make_rng,
    mu_k_regression,
    select_improving,
    fit_ima_mle,
    one_sided_t_test,
    summarize_corpus,
    write_corpus_csv,
)

from reference import simulate_rwd, simulate_trend_stationary


# log costs with exactly equal steps whose Bessel K rounds to 1.7e-17, not 0
ROUNDED_FLAT = np.array([0.2, 0.1, 0.0, -0.1])


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngestion:
    def test_log_transform(self, tmp_path):
        path = _write(
            tmp_path,
            "technology,year,cost\nX,2000,100\nX,2001,90\nX,2002,81\n",
        )
        (series,) = ingest_csv(path)
        assert series.name == "X"
        assert np.array_equal(series.years, [2000, 2001, 2002])
        np.testing.assert_allclose(series.log_costs, np.log([100.0, 90.0, 81.0]), rtol=0, atol=0)

    def test_longest_run_kept(self, tmp_path):
        rows = [f"X,{y},{50 - (y - 2000)}" for y in range(2000, 2006)]
        rows += [f"X,{y},{40 - (y - 2008)}" for y in range(2008, 2021)]
        path = _write(tmp_path, "technology,year,cost\n" + "\n".join(rows) + "\n")
        with pytest.warns(DataWarning, match="X"):
            (series,) = ingest_csv(path)
        assert series.n_obs == 13
        assert series.years[0] == 2008 and series.years[-1] == 2020

    def test_zero_cost_rejected(self, tmp_path):
        path = _write(tmp_path, "technology,year,cost\nX,2000,10\nX,2001,0\nX,2002,9\n")
        with pytest.raises(DataFormatError, match="line 3"):
            ingest_csv(path)

    def test_negative_cost_rejected(self, tmp_path):
        path = _write(tmp_path, "technology,year,cost\nX,2000,-5\nX,2001,2\n")
        with pytest.raises(DataFormatError, match="line 2"):
            ingest_csv(path)

    def test_duplicate_rejected(self, tmp_path):
        path = _write(tmp_path, "technology,year,cost\nX,2000,10\nX,2000,11\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            ingest_csv(path)

    def test_unparseable_row_names_line(self, tmp_path):
        path = _write(tmp_path, "technology,year,cost\nX,2000,10\nX,abc,11\n")
        with pytest.raises(DataFormatError, match="line 3"):
            ingest_csv(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "tech,year,price\nX,2000,10\n")
        with pytest.raises(DataFormatError, match="header"):
            ingest_csv(path)

    def test_sector_column(self, tmp_path):
        path = _write(
            tmp_path, "technology,year,cost,sector\nX,2000,10,Energy\nX,2001,9,Energy\n"
        )
        (series,) = ingest_csv(path)
        assert series.sector == "Energy"

    def test_blank_rows_skipped(self, tmp_path):
        path = _write(
            tmp_path,
            "technology,year,cost\nX,2000,10\n\n , ,\n,,\nX,2001,9\n\t\nX,2002,8, \n \x0b,\n",
        )
        (series,) = ingest_csv(path)
        assert np.array_equal(series.years, [2000, 2001, 2002])

    def test_interleaved_technologies_and_unsorted_years(self, tmp_path):
        rows = ["B,2003,5", "A,2001,9", "B,2001,7", "A,2000,10", "B,2002,6", "A,2002,8"]
        path = _write(tmp_path, "technology,year,cost\n" + "\n".join(rows) + "\n")
        a, b = ingest_csv(path)
        assert (a.name, b.name) == ("A", "B")
        assert np.array_equal(a.years, [2000, 2001, 2002])
        assert np.array_equal(b.years, [2001, 2002, 2003])
        np.testing.assert_array_equal(a.log_costs, [math.log(10.0), math.log(9.0), math.log(8.0)])
        np.testing.assert_array_equal(b.log_costs, [math.log(7.0), math.log(6.0), math.log(5.0)])

    def test_gap_tie_keeps_later_run(self, tmp_path):
        years = [2000, 2001, 2002, 2005, 2006, 2007]
        rows = [f"X,{y},{100 - y % 100}" for y in years]
        path = _write(tmp_path, "technology,year,cost\n" + "\n".join(rows) + "\n")
        with pytest.warns(DataWarning) as caught:
            (series,) = ingest_csv(path)
        assert [str(w.message) for w in caught] == [
            "X: years are not contiguous; keeping 2005-2007 and dropping [2000, 2001, 2002]"
        ]
        assert np.array_equal(series.years, [2005, 2006, 2007])
        np.testing.assert_array_equal(series.log_costs, [math.log(95.0), math.log(94.0), math.log(93.0)])

    def test_technology_below_two_points_dropped(self, tmp_path):
        rows = ["A,2000,5", "A,2002,4", "A,2004,3", "B,1990,2", "C,2000,10", "C,2001,9"]
        path = _write(tmp_path, "technology,year,cost\n" + "\n".join(rows) + "\n")
        with pytest.warns(DataWarning) as caught:
            corpus = ingest_csv(path)
        assert [s.name for s in corpus] == ["C"]
        assert [str(w.message) for w in caught] == [
            "A: years are not contiguous; keeping 2004-2004 and dropping [2000, 2002]",
            "A: fewer than 2 contiguous observations, series dropped",
            "B: fewer than 2 contiguous observations, series dropped",
        ]

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("X,abc,11", "X,2003,-1", "line 3: year 'abc' is not an integer"),
            ("X,2003,-1", "X,abc,11", "line 3: cost must be a finite positive number, got -1"),
            ("X,2000,12", "X,2004", "line 3: duplicate observation for (X, 2000)"),
            (",2003,5", "X,2000,12", "line 3: empty technology name"),
            ("X,2003", ",2004,5", "line 3: expected at least 3 columns, got 2"),
            (  # a year beyond int64 used to raise OverflowError after the whole file was read
                "X,99999999999999999999,5",
                "X,abc,11",
                "line 3: year '99999999999999999999' is outside the int64 range",
            ),
            pytest.param(  # the csv module's error used to escape as _csv.Error
                f"X,2003,{'1' * 200_000}",
                "X,abc,11",
                "line 3: field larger than field limit (131072)",
                id="field-over-csv-limit",
            ),
        ],
    )
    def test_first_bad_line_named(self, tmp_path, first, second, message):
        text = f"technology,year,cost\nX,2000,10\n{first}\nX,2001,9\n{second}\n"
        with pytest.raises(DataFormatError) as caught:
            ingest_csv(_write(tmp_path, text))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("X,2000,-1", "line 6: cost must be a finite positive number, got -1"),
            # the csv module's own error names the physical line too
            (f"X,2000,{'1' * 200_000}", "line 6: field larger than field limit (131072)"),
        ],
    )
    def test_lines_after_a_multiline_cell_are_physical_lines(self, tmp_path, bad, message):
        # rows were numbered as records, so the cost on line 6 was "line 4"
        text = f'technology,year,cost\n"Multi\nline",2000,1\n"Multi\nline",2001,2\n{bad}\n'
        with pytest.raises(DataFormatError) as caught:
            ingest_csv(_write(tmp_path, text))
        assert str(caught.value) == message

    def test_round_trip_idempotent(self, tmp_path, corpus_csv):
        first = ingest_csv(corpus_csv)
        out = tmp_path / "round.csv"
        write_corpus_csv(out, first)
        second = ingest_csv(out)
        assert [s.name for s in first] == [s.name for s in second]
        for a, b in zip(first, second):
            assert np.array_equal(a.years, b.years)
            np.testing.assert_array_almost_equal_nulp(a.log_costs, b.log_costs, nulp=4)


# printable text with the characters the CSV writer must quote; ingestion
# strips cells, so generated names and sectors carry no outer whitespace
_CELL = st.text(st.characters(codec="utf-8", exclude_categories=("C", "Z")) | st.sampled_from(' ,"'),
                max_size=12).map(str.strip)


@st.composite
def corpora(draw):
    names = draw(st.lists(_CELL.filter(bool), min_size=1, max_size=6, unique=True))
    corpus = []
    for name in names:
        n_obs = draw(st.integers(2, 15))
        log_costs = draw(st.lists(st.floats(-50.0, 50.0), min_size=n_obs, max_size=n_obs))
        corpus.append(
            TechnologySeries(
                name,
                np.arange(n_obs) + draw(st.integers(1000, 2100)),
                np.array(log_costs),
                sector=draw(_CELL),
            )
        )
    return corpus


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_write_then_ingest_round_trip(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("round") / "corpus.csv"
    write_corpus_csv(path, corpus)
    back = ingest_csv(path)
    expected = sorted(corpus, key=lambda s: s.name)  # ingest_csv orders by name
    assert [s.name for s in back] == [s.name for s in expected]
    assert [s.sector for s in back] == [s.sector for s in expected]
    for a, b in zip(expected, back):
        assert np.array_equal(a.years, b.years)
        # costs are stored, so exp then log round both ways: 4 ulp of max(|y|, 1)
        tolerance = 4 * np.spacing(np.maximum(np.abs(a.log_costs), 1.0))
        assert np.all(np.abs(b.log_costs - a.log_costs) <= tolerance)


@st.composite
def gapped_rows(draw):
    """(rows, expected): the shuffled CSV rows of a few technologies whose years
    have gaps, and the series ingestion must build from them."""
    names = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=4, unique=True))
    rows, expected = [], []
    for name in names:
        years = sorted(draw(st.sets(st.integers(1990, 2010), min_size=1, max_size=15)))
        costs = {y: draw(st.floats(1e-3, 1e3)) for y in years}
        rows += [f"{name},{y},{costs[y]!r}" for y in years]
        runs = [[years[0]]]  # maximal runs of consecutive years, in order
        for y in years[1:]:
            if y == runs[-1][-1] + 1:
                runs[-1].append(y)
            else:
                runs.append([y])
        kept = max(reversed(runs), key=len)  # the later run wins a tie
        if len(kept) >= 2:
            expected.append(TechnologySeries(name, np.array(kept), np.array([math.log(costs[y]) for y in kept])))
    return draw(st.permutations(rows)), sorted(expected, key=lambda s: s.name)


@settings(max_examples=60, deadline=None)
@given(gapped_rows())
def test_shuffled_gapped_rows_give_the_series_built_directly(tmp_path_factory, case):
    rows, expected = case
    path = tmp_path_factory.mktemp("gapped") / "corpus.csv"
    path.write_text("technology,year,cost\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)
        corpus = ingest_csv(path)
    assert [s.name for s in corpus] == [s.name for s in expected]
    assert all(a.equals(b) for a, b in zip(corpus, expected))


class TestSeriesValidation:
    def test_gap_years_rejected_in_constructor(self):
        with pytest.raises(ValueError, match="consecutive"):
            TechnologySeries("X", np.array([2000, 2002]), np.array([0.0, -0.1]))

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            TechnologySeries("X", np.array([2000]), np.array([0.0]))


class TestSelection:
    def _random_corpus(self, n=8, seed=4):
        rng = make_rng(seed)
        return [
            simulate_rwd(-0.05, 0.05, int(rng.integers(10, 25)), rng, name=f"t{j}")
            for j in range(n)
        ]

    def test_alpha_one_takes_all(self):
        corpus = self._random_corpus()
        improving, excluded = select_improving(corpus, alpha=1.0)
        assert len(improving) == len(corpus) and not excluded

    def test_alpha_zero_takes_none(self):
        corpus = self._random_corpus()
        improving, excluded = select_improving(corpus, alpha=0.0)
        assert not improving and len(excluded) == len(corpus)

    @pytest.mark.parametrize("alpha", [-1.0, 1.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # alpha = -1 used to exclude every series, alpha = 2 to keep every one
        corpus = self._random_corpus()
        with pytest.raises(ValueError, match="alpha"):
            select_improving(corpus, alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            summarize_corpus([corpus[0]], alpha=alpha)[0]

    def test_strongly_improving_kept_and_rising_excluded(self):
        rng = make_rng(11)
        down = simulate_rwd(-0.50, 0.24, 38, rng, name="down")
        up = simulate_rwd(+0.13, 0.05, 20, rng, name="up")
        improving, excluded = select_improving([down, up], alpha=0.10)
        assert [s.name for s in improving] == ["down"]
        assert [s.name for s in excluded] == ["up"]

    def test_sign_consistency(self):
        for series in self._random_corpus(n=20, seed=99):
            s = summarize_corpus([series])[0]
            if s.p_value < 0.5:
                assert s.mu_full < 0


class TestSummarize:
    def test_constant_differences(self):
        y = -0.125 * np.arange(8.0)  # exactly representable steps
        s = summarize_corpus([TechnologySeries("flat", np.arange(8) + 2000, y)])[0]
        assert s.mu_full == -0.125
        assert s.k_full == 0.0
        assert s.theta_full == 0.0 and not s.theta_boundary
        # equal steps whose K rounds above 0 used to reach the fit, which rejects them
        rounded_flat = TechnologySeries("rounded", np.arange(4) + 2000, ROUNDED_FLAT)
        rounded = summarize_corpus([rounded_flat])[0]
        assert rounded.k_full > 0.0
        assert rounded.theta_full == 0.0 and not rounded.theta_boundary

    def test_rwd_parameter_recovery(self):
        rng = make_rng(123)
        series = simulate_rwd(-0.05, 0.03, 200, rng)
        s = summarize_corpus([series])[0]
        assert abs(s.mu_full + 0.05) <= 3 * 0.03 / math.sqrt(200)
        assert s.k_full == pytest.approx(0.03, rel=0.25)

    def test_too_short(self):
        with pytest.raises(ValueError):
            summarize_corpus([TechnologySeries("x", np.array([1, 2]), np.array([0.0, -0.1]))])

    def test_template_from_series_equals_template_from_summaries(self):
        # validate builds its surrogate template from the series, fitting no MA model
        rng = make_rng(90101)
        corpus = [simulate_rwd(-0.05, 0.1, n, rng, name=f"s{n}") for n in (5, 12, 40)]
        assert corpus_template(corpus) == corpus_template([summarize_corpus([s])[0] for s in corpus])

    def test_template_of_a_two_point_series_names_it(self):
        # one difference has no Bessel volatility: K used to be NaN, with a RuntimeWarning
        rng = make_rng(90102)
        corpus = [
            simulate_rwd(-0.05, 0.1, 12, rng, name="long"),
            TechnologySeries("two", np.array([2000, 2001]), np.array([0.0, -0.1])),
        ]
        with pytest.raises(ValueError, match="two: need at least 3 observations, got 2"):
            corpus_template(corpus)

    def test_corpus_mixing_every_kind_of_row_equals_one_at_a_time(self):
        rng = make_rng(4711)

        def sine(name, n_obs, period):
            # strongly positive lag-one correlation: the MA root sits at +1
            d = np.sin(np.arange(n_obs - 1) / period) - 0.2
            return TechnologySeries(name, np.arange(n_obs) + 2000, np.r_[0.0, np.cumsum(d)])

        corpus = [
            simulate_rwd(-0.05, 0.1, 25, rng, name="ordinary-25"),
            TechnologySeries("flat", np.arange(8) + 2000, -0.125 * np.arange(8.0)),
            TechnologySeries("rounded-flat", np.arange(4) + 2000, ROUNDED_FLAT),
            sine("plus-one", 15, 3.0),
            TechnologySeries("three", np.arange(3) + 2000, np.array([0.0, -0.1, -0.3])),
            simulate_trend_stationary(0.0, -0.05, 0.2, 40, make_rng(1000), name="minus-one"),
            simulate_rwd(-0.05, 0.1, 25, rng, name="ordinary-25b"),
            simulate_rwd(-0.05, 0.1, 9, rng, name="ordinary-9"),
        ]
        rows = summarize_corpus(corpus)
        assert [repr(r) for r in rows] == [repr(summarize_corpus([s])[0]) for s in corpus]
        assert [r.p_value for r in rows] == [one_sided_t_test(s.diffs()) for s in corpus]
        by_name = {r.name: r for r in rows}
        assert by_name["flat"].theta_full == 0.0 and not by_name["flat"].theta_boundary
        assert math.isnan(by_name["three"].theta_full) and not by_name["three"].theta_boundary
        assert by_name["plus-one"].theta_full == 1.0 and by_name["plus-one"].theta_boundary
        assert by_name["minus-one"].theta_full == -1.0 and by_name["minus-one"].theta_boundary
        for series in corpus:
            if series.name.startswith("ordinary"):
                fit = fit_ima_mle(series)
                assert by_name[series.name].theta_full == fit.theta
                assert by_name[series.name].theta_boundary == fit.boundary


class TestReferenceTable:
    def test_shape(self):
        rows = load_reference_params()
        assert len(rows) == 66
        assert sum(r.improving for r in rows) == 53

    def test_boundary_flags(self):
        improving = load_reference_params(improving_only=True)
        assert sum(r.theta_boundary for r in improving) == 8
        usable = [r.theta_full for r in improving if not r.theta_boundary]
        # equal-weight mean of the remaining MA coefficients, and their sign balance
        assert np.mean(usable) == pytest.approx(0.27, abs=0.01)
        assert np.std(usable, ddof=1) == pytest.approx(0.35, abs=0.01)
        assert sum(t > 0 for t in usable) == 35


class TestMuKRegression:
    def test_exact_line(self):
        summaries = [
            SeriesSummary(
                name=f"s{i}",
                sector="",
                n_obs=20,
                mu_full=mu,
                k_full=0.01 - 0.5 * mu,
                theta_full=0.0,
                theta_boundary=False,
                p_value=0.0,
                improving=True,
            )
            for i, mu in enumerate(np.linspace(-0.5, -0.01, 10))
        ]
        reg = mu_k_regression(summaries)
        assert reg.linear.slope == pytest.approx(-0.5, abs=1e-12)
        assert reg.linear.intercept == pytest.approx(0.01, abs=1e-12)
        assert reg.linear.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_reference_corpus_linear(self):
        # published fit: K = 0.02 - 0.76*mu with R^2 0.87, se (0.008, 0.04)
        reg = mu_k_regression(load_reference_params(improving_only=True))
        assert reg.linear.intercept == pytest.approx(0.02, abs=0.008)
        assert reg.linear.slope == pytest.approx(-0.76, abs=0.04)
        assert reg.linear.r_squared == pytest.approx(0.87, abs=0.02)
        assert reg.linear.se_intercept == pytest.approx(0.008, abs=0.002)
        assert reg.linear.se_slope == pytest.approx(0.04, abs=0.005)

    def test_reference_corpus_log_log(self):
        # published fit: K = e^-0.68 * (-mu)^0.72 with R^2 0.73
        reg = mu_k_regression(load_reference_params(improving_only=True))
        assert reg.log_log.intercept == pytest.approx(-0.68, abs=0.05)
        assert reg.log_log.slope == pytest.approx(0.72, abs=0.02)
        assert reg.log_log.r_squared == pytest.approx(0.73, abs=0.02)

    def test_nonnegative_mu_excluded_with_warning(self):
        summaries = load_reference_params(improving_only=True)
        summaries.append(
            SeriesSummary(
                name="weird",
                sector="",
                n_obs=20,
                mu_full=0.01,
                k_full=0.05,
                theta_full=0.0,
                theta_boundary=False,
                p_value=0.01,
                improving=True,
            )
        )
        with pytest.warns(DataWarning, match="weird"):
            reg = mu_k_regression(summaries)
        assert reg.n_log_log == reg.n_linear - 1

    def test_needs_three_improving(self):
        with pytest.raises(ValueError):
            mu_k_regression(load_reference_params(improving_only=True)[:2])
