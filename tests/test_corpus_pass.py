"""One pass per corpus: the length-grouped moments behind ``select_improving``,
``summarize_corpus`` and ``corpus_template``, and ``ingest_csv``'s single
loop, each held to its per-series or row-by-row oracle; and the columns
``ingest_csv`` returns, held to the same series passed as a list."""

import csv
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costwalk import (
    DataFormatError,
    DataWarning,
    SeriesSummary,
    SurrogateConfig,
    TechnologySeries,
    corpus_template,
    fit_ima_mle,
    hindcast_corpus,
    ingest_csv,
    one_sided_t_test,
    select_improving,
    summarize_corpus,
)
from costwalk.series import _Corpus, _corpus_moments
from costwalk.models import EstimationError, fit_ima_mle_corpus

import reference

# numpy's pairwise sum unrolls blocks of 8 and splits vectors longer than 128
LENGTHS = st.one_of(
    st.integers(2, 20),
    st.sampled_from([7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 1023, 1024, 1025]),
    st.integers(2, 600),
)
KINDS = ("ordinary", "constant", "signed-zero", "mixed-sign")
SCALES = (1e-300, 1e-160, 1e-8, 1.0, 1e5)


def _row(kind: str, scale: float, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "ordinary":
        return scale * (rng.standard_normal(n) - 0.3)
    if kind == "constant":
        return np.full(n, scale * rng.choice([-0.125, 0.1, 3.0]))
    if kind == "signed-zero":
        return rng.choice([0.0, -0.0], n)
    # both signs, magnitudes spread over ten decades
    return scale * rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-5.0, 5.0, n)


@st.composite
def increment_rows(draw, max_groups=6, group_sizes=(1, 1, 2, 5, 17)):
    """Increment vectors in groups of one length, a group of one row or of
    many, every row of its own kind and scale, the rows shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, max_groups))):
        n = draw(LENGTHS)
        for _ in range(draw(st.sampled_from(group_sizes))):
            rows.append(_row(draw(st.sampled_from(KINDS)), draw(st.sampled_from(SCALES)), n, rng))
    return draw(st.permutations(rows))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@settings(max_examples=150, deadline=None)
@given(increment_rows())
def test_corpus_moments_are_each_vectors_own_as_bits(rows):
    # each vector after a NaN, as a series' log changes follow the change
    # across the boundary from the previous series in a flat column
    sizes = np.array([d.size for d in rows])
    starts = np.cumsum(sizes + 1) - sizes
    mu, k, flat = _corpus_moments(np.concatenate([np.r_[np.nan, d] for d in rows]), starts, sizes)
    assert [_bits(m) for m in mu] == [_bits(d.mean()) for d in rows]
    assert [_bits(s) for s in k] == [_bits(d.std(ddof=1)) for d in rows]
    assert flat.tolist() == [bool(np.ptp(d) == 0.0) for d in rows]


def _corpus(rows) -> list[TechnologySeries]:
    return [
        TechnologySeries(f"s{j:02d}", np.arange(d.size + 1) + 1950, np.r_[0.0, np.cumsum(d)])
        for j, d in enumerate(rows)
    ]


def _summary_oracle(series: TechnologySeries, alpha: float) -> SeriesSummary:
    """``summarize_corpus`` of one series from numpy's per-vector moments and
    ``fit_ima_mle``."""
    d = series.diffs()
    mu, k = float(d.mean()), float(d.std(ddof=1))
    flat = k == 0.0 or np.ptp(d) == 0.0
    if series.n_obs >= 4 and not flat:
        fit = fit_ima_mle(series)
        theta, boundary = fit.theta, fit.boundary
    else:
        theta, boundary = 0.0 if flat else math.nan, False
    p = one_sided_t_test(d)
    return SeriesSummary(
        series.name, series.sector, series.n_obs, mu, k, theta, boundary, p, p < alpha
    )


@settings(max_examples=40, deadline=None)
@given(
    increment_rows(max_groups=4, group_sizes=(1, 2, 4)),
    st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0]),
)
def test_selection_summaries_and_template_equal_the_per_series_oracles(rows, alpha):
    corpus = _corpus([d[:80] for d in rows])  # the fits, not the moments, grow with length
    p = [one_sided_t_test(s.diffs()) for s in corpus]
    improving, excluded = select_improving(corpus, alpha)
    assert improving == [s for s, q in zip(corpus, p) if q < alpha]
    assert excluded == [s for s, q in zip(corpus, p) if not q < alpha]

    expected, failure = [], None
    for series in corpus:
        try:
            expected.append(_summary_oracle(series, alpha))
        except EstimationError as exc:  # the fit of the first such series raises for the corpus
            failure = failure or exc
    if failure is not None:
        with pytest.raises(type(failure), match=f"^{re.escape(str(failure))}$"):
            summarize_corpus(corpus, alpha)
    else:
        assert [repr(s) for s in summarize_corpus(corpus, alpha)] == [repr(s) for s in expected]
    template = corpus_template(corpus)
    assert [(n, _bits(m), _bits(s)) for n, m, s in template] == [
        (s.n_obs, _bits(s.diffs().mean()), _bits(s.diffs().std(ddof=1))) for s in corpus
    ]


# --- ingest_csv against the row-by-row reader it replaced --------------------

NAMES = ("A", "B", " B ", "C", '"Multi\nline"', '"q,uoted"')
GOOD_COSTS = ("10", "0.5", " 3.25 ", "1e-3", "2E2", "5e-324", '"7"', "1e300")
SECTORS = ("", ",", ",Energy", ", Chem ", ',"multi\nsector"', ",Energy,extra")
HEADERS = (
    "technology,year,cost",
    "technology,year,cost,sector",
    " Technology , YEAR ,Cost,Sector",
    '"technology",year,cost,notes',
    "tech,year,cost",
    "",
)
ODD_ROWS = (
    "", "   ", ",,", " , ,  ", "A,1990", "A", ",1991,5", " ,1991,5", "A,abc,5",
    "A,1990.5,5", "A,,5", "A,99999999999999999999,5", "A,-99999999999999999999,5",
    "A,9223372036854775807,5", "A,-9223372036854775808,5", "A,9223372036854775808,5",
    "A,1_992,5", "A,\u0661\u0669\u0669\u0663,5", "A,1991,0", "A,1991,-2", "A,1991,-0.0",
    "A,1991,nan", "A,1991,inf", "A,1991,-inf", "A,1991,1e400", "A,1991,abc", "A,1991,",
    "C,2010,4", "D,1990,4", '"Multi\nline",1992,5', '"unterminated,1993,5',
    "A," + "1" * 140_000 + ",5",
)


@st.composite
def csv_texts(draw):
    """A long-format CSV text: a header, rows with good costs for a run of
    years of each technology plus a few stray years (gaps), and a few odd
    rows (blank, short, unparseable, out of range, nonpositive,
    duplicate-making, multi-line, oversized) anywhere among them."""
    rows = []
    for name in draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True)):
        start, length = draw(st.integers(1990, 1995)), draw(st.integers(1, 8))
        stray = draw(st.sets(st.integers(1985, 2005), max_size=3))
        for y in sorted(set(range(start, start + length)) | stray):
            year = draw(st.sampled_from([str(y), f" {y} ", f"+{y}"]))
            rows.append(
                f"{name},{year},{draw(st.sampled_from(GOOD_COSTS))}{draw(st.sampled_from(SECTORS))}"
            )
    rows += draw(st.lists(st.sampled_from(ODD_ROWS), max_size=2))
    header = draw(st.sampled_from(HEADERS[:3]) | st.sampled_from(HEADERS))
    lines = [header, *draw(st.permutations(rows))]
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _outcome(read, path):
    """(series or error message, warnings) of one reader on ``path``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [
                (s.name, s.years.tobytes(), s.log_costs.tobytes(), s.sector) for s in read(path)
            ]
        except DataFormatError as exc:
            result = f"DataFormatError: {exc}"
    return result, [(w.category.__name__, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None)
@given(csv_texts())
@example("technology,year,cost\n")
@example("")
@example('technology,year,cost\n"Multi\nline",2000,1\n"Multi\nline",2001,2\nX,2000,-1\n')
@example("technology,year,cost,sector\nA,1990,1,E\nA,1992,2,\nA,1993,3,F\nB,1990,1\n")
def test_ingest_matches_the_row_by_row_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ingest") / "corpus.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(ingest_csv, path) == _outcome(reference.ingest_csv, path)


# --- the columns ingest_csv returns, against the same series as a list -------

QUOTED_NAMES = ("a", "b, c", 'say "x"', "two\nlines", "100%", "Größe", "z")


@st.composite
def corpus_rows(draw):
    """CSV rows of a few technologies, in no order: names that need quoting,
    2- to 30-point series, some with a gap after their run of years, and
    prices that repeat, in some series for most years."""
    rows = []
    for name in draw(st.lists(st.sampled_from(QUOTED_NAMES), min_size=1, max_size=6, unique=True)):
        start, n = draw(st.integers(1950, 1960)), draw(st.sampled_from([3, 4, 8, 15, 30]))
        n = 2 if draw(st.integers(0, 9)) == 9 else n  # rare: it fails the corpus's selection
        years = list(range(start, start + n))
        if draw(st.booleans()):  # a later run of years after a gap
            later = start + n + draw(st.integers(1, 3))
            years += range(later, later + draw(st.integers(1, 4)))
        price, sector = 100.0, draw(st.sampled_from(["", "Energy", "x, y"]))
        stuck = draw(st.sampled_from([0, 2, 6]))  # odds against a price change
        for year in years:
            if not draw(st.integers(0, stuck)):  # else the price repeats
                price *= math.exp(draw(st.floats(-0.2, 0.1)))
            rows.append([name, year, repr(price), sector])
    return draw(st.permutations(rows))


def _result(fn, corpus):
    """fn(corpus), or the type and message of the error it raises."""
    try:
        return fn(corpus)
    except (ValueError, EstimationError) as exc:
        return type(exc).__name__, str(exc)


def _names(part):
    return [s.name for s in part]


@settings(max_examples=80, deadline=None)
@given(corpus_rows(), st.sampled_from([(5, 20), (4, None), (2, 3), (9, None)]))
def test_corpus_read_by_ingest_equals_the_list_of_its_series(tmp_path_factory, rows, window):
    path = tmp_path_factory.mktemp("parity") / "corpus.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows([["technology", "year", "cost", "sector"], *rows])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataWarning)  # the gaps
        corpus, as_list = ingest_csv(path), reference.ingest_csv(path)

    # the sequence contract
    assert isinstance(corpus, _Corpus) and len(corpus) == len(as_list)
    assert all(a.equals(b) and a.sector == b.sector for a, b in zip(corpus, as_list))
    assert corpus[0] is corpus[0] and corpus[-1] is corpus[len(corpus) - 1]
    for index in (len(corpus), -len(corpus) - 1):
        with pytest.raises(IndexError):
            corpus[index]
    for k in (slice(1, None, 2), slice(None, None, -1), slice(5, None)):
        part = corpus[k]
        assert isinstance(part, _Corpus) and len(part) == len(as_list[k])
        assert all(a.equals(b) for a, b in zip(part, as_list[k]))
    for column in (corpus.starts, corpus.lengths, corpus.years, corpus.log_costs, corpus[0].log_costs):
        with pytest.raises(ValueError, match="read-only"):
            column[...] = 0
    with pytest.raises(TypeError):
        corpus.names[0] = "renamed"

    # the functions that read the columns
    m, tau_max = window

    def hindcast(c):
        result = hindcast_corpus(c, m, tau_max=tau_max)
        return result.records, result.skipped_zero_volatility, result.too_short

    improving, excluded = _result(lambda c: select_improving(c, alpha=0.5), corpus)
    expected = _result(lambda c: select_improving(c, alpha=0.5), as_list)
    if isinstance(improving, str):  # an error's type and message
        assert (improving, excluded) == expected
    else:
        assert (_names(improving), _names(excluded)) == tuple(map(_names, expected))
        assert isinstance(improving, _Corpus) and isinstance(excluded, _Corpus)
        # a list's parts hold the list's own series
        assert {id(s) for part in expected for s in part} <= {id(s) for s in as_list}
        assert _result(hindcast, improving) == _result(hindcast, expected[0])
    reprs = lambda c: [repr(s) for s in summarize_corpus(c)]  # noqa: E731
    assert _result(reprs, corpus) == _result(reprs, as_list)
    bits = lambda c: [(n, _bits(mu), _bits(k)) for n, mu, k in corpus_template(c)]  # noqa: E731
    assert _result(bits, corpus) == _result(bits, as_list)
    assert hindcast(corpus) == hindcast(as_list)


def _scaled(name: str, scale: float, n_obs: int = 6) -> TechnologySeries:
    shape = np.array([0.0, 1.0, -1.0, 1.5, 0.5, -1.2, 0.2, -0.7])[:n_obs]
    return TechnologySeries(name, np.arange(n_obs) + 2000, scale * shape)


_ORDINARY = TechnologySeries("ok", np.arange(8) + 2000, np.cumsum(np.sin(np.arange(8.0))))
CORPUS_CALLS = {
    "fit_ima_mle_corpus": fit_ima_mle_corpus,
    "summarize_corpus": summarize_corpus,
    "corpus_template": corpus_template,
    "select_improving": select_improving,
}


@pytest.mark.parametrize("call", CORPUS_CALLS.values(), ids=list(CORPUS_CALLS))
def test_log_changes_that_overflow_name_their_series(call):
    # finite log costs of 1e308 whose changes (up to 2.5e308) pass the largest double
    corpus = [_ORDINARY, _scaled("huge", 1e308), _scaled("huge-2", 1e308, 8)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^huge: log changes are not finite$"):
            call(corpus)


@pytest.mark.parametrize("call", CORPUS_CALLS.values(), ids=list(CORPUS_CALLS))
def test_a_mean_of_log_changes_that_overflows_names_its_series(call):
    # log costs alternating 0 and 1.7e308: every change is finite, but the
    # pairwise sum of the 17 changes meets +inf and -inf, so the mean is NaN
    alternating = TechnologySeries("alternating", np.arange(18) + 2000, np.tile([0.0, 1.7e308], 9))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^alternating: the mean of its log changes is not finite$"):
            call([_ORDINARY, alternating, _scaled("huge", 1e154)])


def test_finite_log_changes_with_an_infinite_volatility():
    # log changes of 1e154 are finite, but their squares are not: K is infinite
    corpus = [_ORDINARY, _scaled("huge", 1e154)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        template = corpus_template(corpus)
        assert template[1][0] == 6 and template[1][2] == math.inf
        with pytest.raises(ValueError, match="needs a finite mu and K"):
            SurrogateConfig(replications=1, theta=0.0, m=4, tau_max=2, seed=1, template=template)
        # a t statistic of 0: p = 0.5
        assert select_improving(corpus, 0.5)[1][1] is corpus[1]
        assert select_improving(corpus, np.nextafter(0.5, 1.0))[0][-1] is corpus[1]
        with pytest.raises(EstimationError, match="^huge: degenerate innovation variance"):
            summarize_corpus(corpus)


def test_a_change_across_two_series_belongs_to_neither():
    # each series holds one price; from one to the next the log cost falls by 2e308
    corpus = [_scaled(name, 0.0, 5) for name in ("high", "low")]
    corpus = [TechnologySeries(s.name, s.years, s.log_costs + c) for s, c in zip(corpus, (1e308, -1e308))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert corpus_template(corpus) == ((5, 0.0, 0.0), (5, 0.0, 0.0))
        with pytest.raises(EstimationError, match="^high: increments are constant"):
            fit_ima_mle_corpus(corpus)
