"""Estimation and simulation of the RWD and IMA processes."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from costwalk import (
    EstimationError,
    ImaParams,
    RwdEstimate,
    SurrogateConfig,
    TechnologySeries,
    corpus_template,
    estimate_rwd,
    fit_ima_mle,
    ingest_csv,
    load_reference_params,
    make_rng,
    surrogate_corpus,
)
from costwalk import _kernels
from costwalk.models import _BLOCK_ELEMENTS, _blocks, _Lockstep, fit_ima_mle_corpus

from reference import simulate_ima, simulate_rwd, simulate_trend_stationary


def _series(values, name="s"):
    values = np.asarray(values, dtype=float)
    return TechnologySeries(name, np.arange(values.size) + 2000, values)


class TestEstimateRwd:
    def test_telescopic_drift(self):
        series = _series([0.0, -0.1, -0.25, -0.3, -0.45, -0.5])
        est = estimate_rwd(series, origin_index=5, m=5)
        assert est.mu_hat == (-0.5 - 0.0) / 5
        assert est.k_hat > 0

    def test_constant_increments_zero_volatility(self):
        series = _series(-0.125 * np.arange(7.0))  # exactly representable steps
        est = estimate_rwd(series, origin_index=6, m=6)
        assert est.k_hat == 0.0
        assert est.mu_hat == -0.125

    @pytest.mark.parametrize(
        "mu_hat, k_hat", [(math.nan, 0.1), (math.inf, 0.1), (0.0, math.nan), (0.0, math.inf)]
    )
    def test_non_finite_estimate_rejected(self, mu_hat, k_hat):
        # a NaN k_hat used to build, and its forecast had NaN quantiles
        with pytest.raises(ValueError, match="mu_hat|k_hat"):
            RwdEstimate(mu_hat=mu_hat, k_hat=k_hat, m=5, origin_index=10)

    def test_window_bounds_checked(self):
        series = _series(np.linspace(0, -1, 10))
        with pytest.raises(ValueError):
            estimate_rwd(series, origin_index=3, m=5)
        with pytest.raises(ValueError):
            estimate_rwd(series, origin_index=5, m=1)

    @pytest.mark.parametrize("n_obs, m, seed", [(12, 4, 1), (40, 5, 2), (100, 13, 3), (95, 88, 4)])
    def test_equals_the_hindcast_kernel_as_bits(self, n_obs, m, seed):
        # one window estimator serves both: mu_hat and K_hat at every origin
        series = simulate_rwd(-0.05, 0.1, n_obs, make_rng(seed))
        origin, _, _, _, mu, k_hat, _ = _kernels.hindcast_errors(series.log_costs, m, 1)
        assert origin.tolist() == list(range(m, n_obs - 1))
        for i, mu_i, k_i in zip(origin.tolist(), mu, k_hat):
            est = estimate_rwd(series, origin_index=i, m=m)
            assert np.float64(est.mu_hat).tobytes() == mu_i.tobytes()
            assert np.float64(est.k_hat).tobytes() == k_i.tobytes()

    def test_variance_estimator_chi_squared(self):
        # (m-1) K_hat^2 / K^2 should follow chi2(m-1) for normal increments
        m, k = 99, 0.05
        rng = make_rng(2024)
        stats = np.empty(3000)
        for i in range(stats.size):
            series = simulate_rwd(0.04, k, m + 1, rng)
            est = estimate_rwd(series, origin_index=m, m=m)
            stats[i] = (m - 1) * est.k_hat**2 / k**2
        assert st.kstest(stats, st.chi2(m - 1).cdf).pvalue > 0.01

    def test_unbiasedness(self):
        mu, k, m = -0.03, 0.08, 30
        rng = make_rng(555)
        mu_hats = np.empty(10_000)
        k2_hats = np.empty(10_000)
        for i in range(mu_hats.size):
            series = simulate_rwd(mu, k, m + 1, rng)
            est = estimate_rwd(series, origin_index=m, m=m)
            mu_hats[i] = est.mu_hat
            k2_hats[i] = est.k_hat**2
        assert abs(mu_hats.mean() - mu) <= 3 * mu_hats.std(ddof=1) / math.sqrt(mu_hats.size)
        assert abs(k2_hats.mean() - k * k) <= 3 * k2_hats.std(ddof=1) / math.sqrt(k2_hats.size)


class TestFitImaMle:
    def test_recovers_positive_theta(self):
        rng = make_rng(7)
        series = simulate_ima(ImaParams(mu=0.04, sigma=0.05, theta=0.6), 1000, rng)
        fit = fit_ima_mle(series)
        assert fit.theta == pytest.approx(0.6, abs=0.05)
        assert fit.sigma == pytest.approx(0.05, rel=0.1)
        assert fit.mu == pytest.approx(0.04, abs=0.01)

    def test_recovers_zero_theta(self):
        rng = make_rng(8)
        series = simulate_rwd(0.04, 0.05, 1000, rng)
        fit = fit_ima_mle(series)
        assert fit.theta == pytest.approx(0.0, abs=0.05)

    def test_negative_autocovariance_gives_negative_theta(self):
        # MA(1) lag-1 autocorrelation is theta/(1+theta^2); feed a clearly negative one
        rng = make_rng(9)
        series = simulate_ima(ImaParams(mu=0.0, sigma=0.05, theta=-0.5), 600, rng)
        fit = fit_ima_mle(series)
        assert fit.theta < 0

    def test_scale_equivariance(self):
        rng = make_rng(10)
        series = simulate_ima(ImaParams(mu=-0.05, sigma=0.04, theta=0.3), 60, rng)
        scaled = TechnologySeries(
            series.name, series.years, series.log_costs + math.log(7.5)
        )
        a, b = fit_ima_mle(series), fit_ima_mle(scaled)
        assert a.theta == b.theta
        assert a.sigma == b.sigma
        assert a.mu == b.mu

    @pytest.mark.parametrize(
        "params", [(math.nan, 0.1, 0.0), (0.0, math.nan, 0.1), (0.0, math.inf, 0.1), (0.0, 1.0, math.nan)]
    )
    def test_non_finite_params_rejected(self, params):
        # each used to build, and a NaN theta passed the [-1, 1] check
        with pytest.raises(ValueError, match="mu|sigma|theta"):
            ImaParams(*params)

    def test_k_identity(self):
        params = ImaParams(mu=0.0, sigma=0.05, theta=0.6)
        assert params.k**2 == pytest.approx((1 + 0.6**2) * 0.05**2, rel=1e-12)

    def test_boundary_flag(self):
        assert ImaParams(mu=0.0, sigma=1.0, theta=1.0).boundary
        assert ImaParams(mu=0.0, sigma=1.0, theta=-1.0).boundary
        assert not ImaParams(mu=0.0, sigma=1.0, theta=0.93).boundary
        # over-differenced trend-stationary data drives the MA root to -1
        series = simulate_trend_stationary(0.0, -0.05, 0.2, 40, make_rng(1000))
        assert fit_ima_mle(series).boundary

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_ima_mle(_series([0.0, -0.1, -0.2]))

    def test_degenerate_variance(self):
        # increments of exactly -0.125 (representable) make the likelihood degenerate
        with pytest.raises(EstimationError):
            fit_ima_mle(_series(-0.125 * np.arange(8.0)))

    def test_overflowing_likelihood_fails_without_a_numpy_warning(self):
        # log changes of 1e154 square past the largest double: every RSS is infinite
        series = _series(1e154 * np.array([0.0, 1.0, -1.0, 2.0, 0.5, 3.0]), "huge")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EstimationError, match="^huge: degenerate innovation variance"):
                fit_ima_mle(series)


THETA_GRID = np.linspace(-1.0, 1.0, 201)


@hst.composite
def increment_vectors(draw):
    """Increments of length 3-80: a level plus noise scaled from 1 down to
    exactly 0, so near-constant and constant vectors are drawn too."""
    n = draw(hst.integers(3, 80))
    level = draw(hst.floats(-1.0, 1.0))
    scale = draw(hst.sampled_from([1.0, 0.1, 1e-6, 1e-12, 1e-15, 0.0]))
    noise = draw(hst.lists(hst.floats(-1.0, 1.0), min_size=n, max_size=n))
    return level + scale * np.array(noise)


def _profile_mu_rss(d, theta):
    """The drift-profiled conditional MA(1) likelihood of one series at one
    theta, by a scalar recursion over Python floats: the minimizing mu and
    the residual sum of squares."""
    theta = float(theta)
    a_prev = b_prev = s_ab = s_bb = 0.0
    a: list[float] = []
    b: list[float] = []
    for d_t in d.tolist():
        a_prev = d_t - theta * a_prev
        b_prev = 1.0 - theta * b_prev
        a.append(a_prev)
        b.append(b_prev)
        s_ab += a_prev * b_prev
        s_bb += b_prev * b_prev
    mu = s_ab / s_bb
    v = np.array(a) - mu * np.array(b)
    return mu, float((v * v).sum())


def _lockstep(vectors):
    """``_Lockstep`` of increment vectors, longest first, laid back to back
    in one flat array."""
    sizes = np.array([d.size for d in vectors])
    return _Lockstep(np.concatenate(vectors), np.cumsum(sizes) - sizes, sizes)


@settings(max_examples=80, deadline=None)
@given(increment_vectors())
def test_grid_rss_equals_scalar_rss(d):
    mu, rss = _lockstep([d]).profile(np.zeros(THETA_GRID.size, dtype=np.int64), THETA_GRID)
    expected = np.array([_profile_mu_rss(d, theta) for theta in THETA_GRID])
    assert mu.tobytes() == expected[:, 0].copy().tobytes()
    assert rss.tobytes() == expected[:, 1].copy().tobytes()


@hst.composite
def grid_corpora(draw):
    """1-5 increment vectors, longest first, as ``increment_vectors`` draws
    them but with lengths from a pool of at most two values in 3-40, so that
    lengths repeat and one-vector lengths occur beside them; the first
    vector may instead hold 164-300 values, too many for the 201 grid
    points in one block, so that the grid takes theta in chunks."""
    pool = draw(hst.lists(hst.integers(3, 40), min_size=1, max_size=2))
    lengths = draw(hst.lists(hst.sampled_from(pool), min_size=1, max_size=5))
    if draw(hst.booleans()):
        lengths[0] = draw(hst.integers(164, 300))
    vectors = []
    for n in sorted(lengths, reverse=True):
        level = draw(hst.floats(-1.0, 1.0))
        scale = draw(hst.sampled_from([1.0, 0.1, 1e-6, 1e-12, 1e-15, 0.0]))
        noise = draw(hst.lists(hst.floats(-1.0, 1.0), min_size=n, max_size=n))
        vectors.append(level + scale * np.array(noise))
    return vectors


def _grid_bytes(vectors, theta):
    """mu and RSS of every vector at every theta, from ``_Lockstep.grid`` run
    over the fit's blocks, as bytes."""
    lockstep = _lockstep(vectors)
    out = [lockstep.grid(start, stop, theta) for start, stop in _blocks(lockstep.n, theta.size)]
    mu, rss = (np.concatenate(arrays) for arrays in zip(*out))
    return mu.tobytes(), rss.tobytes()


def _waves(*lengths):
    return [np.sin(np.arange(n) * (0.5 + 0.1 * j)) for j, n in enumerate(lengths)]


@settings(max_examples=40, deadline=None)
@given(grid_corpora())
@example(_waves(20, 13, 13, 11, 8, 8))  # 11 increments once, beside repeated lengths
@example(_waves(300, 20, 20))  # theta in chunks, then a block of two series
def test_grid_equals_scalar_rss(vectors):
    expected = np.array([[_profile_mu_rss(d, theta) for theta in THETA_GRID] for d in vectors])
    mu, rss = _grid_bytes(vectors, THETA_GRID)
    assert mu == expected[..., 0].copy().tobytes()
    assert rss == expected[..., 1].copy().tobytes()


def test_grid_takes_theta_in_chunks_of_at_least_two():
    """A series so long that a block holds two theta values: 5 values make
    chunks of 2, 2 and 2, the last one overlapping, never a chunk of one."""
    n = _BLOCK_ELEMENTS // 2 + 1
    d = np.sin(np.arange(n) * 0.7) + 0.01 * np.cos(np.arange(n) * 1.3)
    theta = np.array([-0.9, -0.3, 0.0, 0.4, 0.8])
    expected = np.array([[_profile_mu_rss(d, t) for t in theta]])
    assert _grid_bytes([d], theta) == (
        expected[..., 0].copy().tobytes(), expected[..., 1].copy().tobytes()
    )


def _reference_fit(series):
    """The IMA fit with every likelihood evaluated by a scalar recursion that
    writes numpy elements one at a time, as fit_ima_mle did before its grid
    was vectorized; same grid, refinement and fallbacks."""
    d = series.diffs()
    n = d.size

    def nll(theta):
        a_prev = b_prev = s_ab = s_bb = 0.0
        a, b = np.empty(n), np.empty(n)
        for t in range(n):
            a_prev = d[t] - theta * a_prev
            b_prev = 1.0 - theta * b_prev
            a[t], b[t] = a_prev, b_prev
            s_ab += a_prev * b_prev
            s_bb += b_prev * b_prev
        mu = s_ab / s_bb
        v = a - mu * b
        rss = float((v * v).sum())
        value = 0.5 * n * math.log(rss / n) if rss > 0.0 and math.isfinite(rss) else math.inf
        return value, mu, rss

    values = np.array([nll(t)[0] for t in THETA_GRID])
    if not np.isfinite(values).any():
        raise EstimationError(
            f"{series.name}: degenerate innovation variance, IMA likelihood is unbounded"
        )
    best = int(np.argmin(values))
    lo = max(-1.0, THETA_GRID[best] - 0.01)
    hi = min(1.0, THETA_GRID[best] + 0.01)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    f1, f2 = nll(x1)[0], nll(x2)[0]
    for _ in range(60):
        if hi - lo < 1e-8:
            break
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = nll(x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = nll(x2)[0]
    theta = min(1.0, max(-1.0, 0.5 * (lo + hi)))
    if nll(theta)[0] > values[best]:
        theta = float(THETA_GRID[best])
    _, mu, rss = nll(theta)
    return np.array([mu, math.sqrt(rss / n), theta])


def test_fit_equals_scalar_reference_on_bench_corpus():
    template = corpus_template(load_reference_params(improving_only=True))
    for copies in (1, 10):  # the 53-series template and the 530-series x10 corpus
        config = SurrogateConfig(
            replications=1, theta=0.63, m=5, tau_max=20, seed=2718, template=template * copies
        )
        corpus = surrogate_corpus(config, make_rng(2718))
        assert len(corpus) == 53 * copies
        for series, fit in zip(corpus, fit_ima_mle_corpus(corpus)):
            got = np.array([fit.mu, fit.sigma, fit.theta])
            assert got.tobytes() == _reference_fit(series).tobytes(), series.name


def _fit_bytes(fit):
    return np.array([fit.mu, fit.sigma, fit.theta]).tobytes()


def _noisy(name, n_obs, seed):
    rng = make_rng(seed)
    return _series(np.cumsum(-0.05 + 0.1 * rng.standard_normal(n_obs)), name)


@pytest.mark.parametrize(
    "lengths",
    [
        (14, 14, 12, 9, 9),  # 13 increments once, between repeated lengths
        (30, 12, 12, 10),  # the longest length once, 9 increments once
        (300,),  # the grid takes theta in chunks
        (300, 20, 20),
    ],
)
def test_fit_equals_scalar_reference_at_length_edges(lengths):
    """Lengths that occur once in a corpus of repeated ones, and a series too
    long for the 201 grid points in one block."""
    corpus = [_noisy(f"s{j}", n, 100 + j) for j, n in enumerate(lengths)]
    for series, fit in zip(corpus, fit_ima_mle_corpus(corpus)):
        assert _fit_bytes(fit) == _reference_fit(series).tobytes(), series.name


@hst.composite
def fit_corpora(draw):
    """Corpora of 1-6 series with 4-80 points, lengths drawn from a pool of
    at most three so that lengths repeat, each series a level plus noise
    scaled from 1 down to 1e-15; every series has non-constant increments."""
    pool = draw(hst.lists(hst.integers(4, 80), min_size=1, max_size=3))
    corpus = []
    for j, n_obs in enumerate(draw(hst.lists(hst.sampled_from(pool), min_size=1, max_size=6))):
        level = draw(hst.floats(-1.0, 1.0))
        scale = draw(hst.sampled_from([1.0, 0.1, 1e-6, 1e-12, 1e-15]))
        noise = draw(hst.lists(hst.floats(-1.0, 1.0), min_size=n_obs - 1, max_size=n_obs - 1))
        y = np.concatenate(([0.0], np.cumsum(level + scale * np.array(noise))))
        series = _series(y, name=f"s{j}")
        assume(np.ptp(series.diffs()) > 0.0)
        corpus.append(series)
    return corpus


# increments that differ only by 1e-300: the RSS underflows to 0 at every theta
_UNDERFLOWING = [_series(np.r_[np.zeros(37), 1e-300], name="s0")]


@settings(max_examples=25, deadline=None)
@given(fit_corpora())
@example(_UNDERFLOWING)
def test_corpus_fit_equals_scalar_reference(corpus):
    try:
        expected = [_reference_fit(series) for series in corpus]
    except EstimationError as err:  # the first degenerate series in corpus order
        with pytest.raises(EstimationError, match=f"^{re.escape(str(err))}$"):
            fit_ima_mle_corpus(corpus)
        return
    for series, fit, reference in zip(corpus, fit_ima_mle_corpus(corpus), expected):
        assert _fit_bytes(fit) == reference.tobytes(), series.name


def _fit_or_error(series):
    try:
        return _fit_bytes(fit_ima_mle(series))
    except EstimationError as err:
        return str(err)


@settings(max_examples=25, deadline=None)
@given(fit_corpora())
@example(_UNDERFLOWING + [_series(np.arange(6.0) ** 2, name="s1")])
def test_fit_does_not_depend_on_the_rest_of_the_corpus(corpus):
    errors = [e for e in map(_fit_or_error, corpus) if isinstance(e, str)]
    if errors:  # a series that fails alone fails the corpus, named first in corpus order
        for order, first in ((corpus, errors[0]), (corpus[::-1], errors[-1])):
            with pytest.raises(EstimationError, match=f"^{re.escape(first)}$"):
                fit_ima_mle_corpus(order)
        return
    together = fit_ima_mle_corpus(corpus)
    reversed_ = fit_ima_mle_corpus(corpus[::-1])[::-1]
    for series, a, b in zip(corpus, together, reversed_):
        alone = _fit_bytes(fit_ima_mle(series))
        assert _fit_bytes(a) == alone == _fit_bytes(b), series.name


class TestCorpusFitErrors:
    def _ordinary(self, name, n_obs, seed):
        y = simulate_ima(ImaParams(mu=-0.05, sigma=0.1, theta=0.4), n_obs, make_rng(seed)).log_costs
        return _series(y, name)

    def test_first_failing_series_in_corpus_order_is_named(self):
        # flat-long sorts first by length, but flat-short comes first in the corpus
        corpus = [
            self._ordinary("ok-1", 30, 1),
            _series(-0.125 * np.arange(8.0), "flat-short"),
            self._ordinary("ok-2", 12, 2),
            _series(-0.125 * np.arange(40.0), "flat-long"),
            _series([0.0, -0.1, -0.3], "too-short"),
        ]
        with pytest.raises(EstimationError, match="^flat-short: increments are constant"):
            fit_ima_mle_corpus(corpus)
        with pytest.raises(ValueError, match="^too-short: need at least 4"):
            fit_ima_mle_corpus(corpus[-1:] + corpus[:-1])

    def test_one_failing_series_fails_the_corpus_fit(self):
        good = [self._ordinary(f"ok-{j}", n, j) for j, n in enumerate((30, 12, 12, 57))]
        alone = [_fit_bytes(fit_ima_mle(s)) for s in good]
        assert [_fit_bytes(f) for f in fit_ima_mle_corpus(good)] == alone
        with pytest.raises(EstimationError, match="^flat:"):
            fit_ima_mle_corpus(good[:2] + [_series(-0.125 * np.arange(20.0), "flat")] + good[2:])

    def test_failure_inside_the_fit_before_a_rejected_series_is_named(self):
        # s0 fails only once fitted, flat is rejected before any fit
        flat = _series(-0.125 * np.arange(8.0), "flat")
        corpus = [self._ordinary("ok-1", 30, 1), *_UNDERFLOWING, flat]
        with pytest.raises(EstimationError, match="^s0: degenerate innovation variance"):
            fit_ima_mle_corpus(corpus)
        with pytest.raises(EstimationError, match="^flat: increments are constant"):
            fit_ima_mle_corpus(corpus[::-1])

    def test_empty_corpus(self):
        assert fit_ima_mle_corpus([]) == []


@hst.composite
def cost_tables(draw):
    """(rows, order): 1-6 technologies as (points, seed, kind) and a
    permutation of them. Lengths come from a pool of at most three in 4-30,
    so that lengths repeat; a "walk" is a random walk of log costs. Up to
    two technologies cannot be fitted: a "short" walk of 2-3 points, or a
    "repeated" price, whose log changes are all equal."""
    pool = draw(hst.lists(hst.integers(4, 30), min_size=1, max_size=3))
    lengths = draw(hst.lists(hst.sampled_from(pool), min_size=1, max_size=6))
    rows = [(n, draw(hst.integers(0, 2**16)), "walk") for n in lengths]
    for _ in range(draw(hst.integers(0, 2))):
        kind = draw(hst.sampled_from(["short", "repeated"]))
        n = draw(hst.integers(2, 3)) if kind == "short" else draw(hst.sampled_from(pool))
        rows.insert(draw(hst.integers(0, len(rows))), (n, 0, kind))
    return rows, draw(hst.permutations(range(len(rows))))


def _fit_outcome(corpus):
    """The fits of ``corpus`` as bytes, or the type and message of its error."""
    try:
        return [_fit_bytes(fit) for fit in fit_ima_mle_corpus(corpus)]
    except (ValueError, EstimationError) as err:
        return type(err), str(err)


@settings(max_examples=30, deadline=None)
@given(cost_tables())
@example(([(12, 1, "walk"), (9, 2, "walk"), (12, 3, "walk"), (9, 4, "walk"), (20, 5, "walk")], [4, 2, 0, 3, 1]))
@example(([(12, 1, "walk"), (3, 0, "short"), (8, 0, "repeated"), (12, 4, "walk")], [3, 2, 1, 0]))
def test_fit_of_the_columns_equals_the_fit_of_the_list(tmp_path_factory, table):
    """A corpus read by ``ingest_csv``, a permuted ``take`` of it (its series'
    starts out of order) and the lists of their series give the same fits,
    and each fit is the scalar reference's; or the same first error."""
    rows, order = table
    lines = ["technology,year,cost"]
    for j, (n, seed, kind) in enumerate(rows):
        y = np.zeros(n) if kind == "repeated" else np.cumsum(-0.05 + 0.1 * make_rng(seed).standard_normal(n))
        lines += [f"t{j},{2000 + t},{math.exp(v)!r}" for t, v in enumerate(y.tolist())]
    path = tmp_path_factory.mktemp("fit") / "corpus.csv"
    path.write_text("\n".join(lines) + "\n")
    corpus = ingest_csv(path)
    taken = corpus.take(order)
    outcome = _fit_outcome(corpus)
    assert _fit_outcome(list(corpus)) == outcome
    assert _fit_outcome(list(taken)) == _fit_outcome(taken)
    unfit = sum(kind != "walk" for _, _, kind in rows)
    if unfit == 0:
        assert outcome == [_reference_fit(series).tobytes() for series in corpus]
        assert _fit_outcome(taken) == [outcome[i] for i in order]
    elif unfit == 1:  # the first error whatever the order
        assert _fit_outcome(taken) == outcome


def test_fit_memory_is_bounded_by_blocks():
    """4,000 series of 20 points. Evaluated in one piece, the grid alone
    would hold 4000 x 201 rows of 19 steps (over 120 MB per array); in
    blocks the whole fit stays under 6 MB of traced allocations (4.1 MB
    measured with numpy 2.4 on CPython 3.11, of which 1.7 MB are the
    corpus's increments, once as arrays and once in the padded block)."""
    rng = make_rng(5)
    y = np.cumsum(rng.standard_normal((4000, 20)), axis=1)
    corpus = [_series(row, f"s{j}") for j, row in enumerate(y)]
    tracemalloc.start()
    try:
        fit_ima_mle_corpus(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_long_series_fit_memory_is_bounded_by_blocks():
    """One series of 600 points: its grid takes theta a chunk at a time, so
    the fit stays under 3 MB of traced allocations (1.4 MB measured with
    numpy 2.4 on CPython 3.11; all 201 grid points at once would hold
    about 1 MB per array)."""
    series = _noisy("long", 600, 6)
    tracemalloc.start()
    try:
        fit_ima_mle(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


class TestSimulateRwd:
    def test_zero_volatility_is_exact_line(self):
        series = simulate_rwd(-0.1, 0.0, 20, make_rng(0))
        np.testing.assert_allclose(series.log_costs, -0.1 * np.arange(20), atol=1e-12)

    def test_law_of_large_numbers(self):
        n = 1_000_000
        series = simulate_rwd(0.01, 0.05, n, make_rng(1))
        increments = series.diffs()
        assert abs(increments.mean() - 0.01) <= 4 * 0.05 / math.sqrt(n)

    def test_student_increments_scaled_to_k(self):
        n = 1_000_000
        series = simulate_rwd(0.0, 0.05, n, make_rng(2), student_df=7)
        assert series.diffs().std(ddof=1) == pytest.approx(0.05, rel=0.01)

    def test_student_kurtosis_exceeds_normal(self):
        n = 1_000_000
        heavy = simulate_rwd(0.0, 0.05, n, make_rng(3), student_df=3)
        normal = simulate_rwd(0.0, 0.05, n, make_rng(3))
        k_heavy = st.kurtosis(heavy.diffs())
        k_normal = st.kurtosis(normal.diffs())
        assert abs(k_normal) < 0.5
        assert k_heavy > 5.0

    def test_rejects_low_df(self):
        with pytest.raises(ValueError):
            simulate_rwd(0.0, 0.05, 10, make_rng(4), student_df=2.0)


class TestSimulateIma:
    def test_nests_rwd_at_theta_zero(self):
        n = 100_001
        a = simulate_ima(ImaParams(mu=0.0, sigma=0.05, theta=0.0), n, make_rng(5))
        b = simulate_rwd(0.0, 0.05, n, make_rng(6))
        assert st.ks_2samp(a.diffs(), b.diffs()).pvalue > 0.01

    def test_increment_variance(self):
        n = 1_000_000
        theta, sigma = 0.6, 0.05
        series = simulate_ima(ImaParams(mu=0.0, sigma=sigma, theta=theta), n, make_rng(7))
        assert series.diffs().var(ddof=1) == pytest.approx((1 + theta**2) * sigma**2, rel=0.01)

    def test_lag_one_autocovariance(self):
        n = 1_000_000
        theta, sigma = 0.6, 0.05
        d = simulate_ima(ImaParams(mu=0.0, sigma=sigma, theta=theta), n, make_rng(8)).diffs()
        autocov = float(np.mean((d[1:] - d.mean()) * (d[:-1] - d.mean())))
        assert autocov == pytest.approx(theta * sigma**2, rel=0.01)


class TestSimulateTrendStationary:
    def test_zero_noise_is_exact_line(self):
        series = simulate_trend_stationary(1.0, -0.1, 0.0, 15, make_rng(9))
        np.testing.assert_allclose(series.log_costs, 1.0 - 0.1 * np.arange(15), atol=1e-12)

    def test_detrended_variance(self):
        n = 1_000_000
        series = simulate_trend_stationary(0.0, -0.01, 0.2, n, make_rng(10))
        detrended = series.log_costs - (-0.01) * np.arange(n)
        assert detrended.var(ddof=1) == pytest.approx(0.04, rel=0.01)

    def test_increment_variance_doubles(self):
        # transitory shocks: diff variance is 2*sd^2, unlike the random walk
        n = 1_000_000
        series = simulate_trend_stationary(0.0, 0.0, 0.2, n, make_rng(11))
        assert series.diffs().var(ddof=1) == pytest.approx(2 * 0.04, rel=0.01)
