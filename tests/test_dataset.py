"""Ingestion, selection filter, summaries, and the volatility-drift relation."""

import math

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
    simulate_rwd,
    summarize,
    write_corpus_csv,
)


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
            summarize(corpus[0], alpha=alpha)

    def test_strongly_improving_kept_and_rising_excluded(self):
        rng = make_rng(11)
        down = simulate_rwd(-0.50, 0.24, 38, rng, name="down")
        up = simulate_rwd(+0.13, 0.05, 20, rng, name="up")
        improving, excluded = select_improving([down, up], alpha=0.10)
        assert [s.name for s in improving] == ["down"]
        assert [s.name for s in excluded] == ["up"]

    def test_sign_consistency(self):
        for series in self._random_corpus(n=20, seed=99):
            s = summarize(series)
            if s.p_value < 0.5:
                assert s.mu_full < 0


class TestSummarize:
    def test_constant_differences(self):
        y = -0.125 * np.arange(8.0)  # exactly representable steps
        s = summarize(TechnologySeries("flat", np.arange(8) + 2000, y))
        assert s.mu_full == -0.125
        assert s.k_full == 0.0
        assert s.theta_full == 0.0 and not s.theta_boundary

    def test_rwd_parameter_recovery(self):
        rng = make_rng(123)
        series = simulate_rwd(-0.05, 0.03, 200, rng)
        s = summarize(series)
        assert abs(s.mu_full + 0.05) <= 3 * 0.03 / math.sqrt(200)
        assert s.k_full == pytest.approx(0.03, rel=0.25)

    def test_too_short(self):
        with pytest.raises(ValueError):
            summarize(TechnologySeries("x", np.array([1, 2]), np.array([0.0, -0.1])))

    def test_template_from_series_equals_template_from_summaries(self):
        # validate builds its surrogate template from the series, fitting no MA model
        rng = make_rng(90101)
        corpus = [simulate_rwd(-0.05, 0.1, n, rng, name=f"s{n}") for n in (5, 12, 40)]
        assert corpus_template(corpus) == corpus_template([summarize(s) for s in corpus])


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
