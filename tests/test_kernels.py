"""The numpy kernels: edge cases, and the kernel path against the slow pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costwalk import SurrogateConfig, _kernels, hindcast_corpus, make_rng, surrogate_corpus
from costwalk.stats import derive_rng

import reference
from reference import replication_errors


def _random_walk(T, seed):
    rng = make_rng(seed)
    return np.concatenate(([0.0], np.cumsum(-0.05 + 0.1 * rng.standard_normal(T - 1))))


class TestKernelInputs:
    def test_too_short_series(self):
        out = _kernels.hindcast_errors(_random_walk(6, seed=3), 5, 20)
        assert all(a.size == 0 for a in out[:6]) and out[6] == 0
        lengths = np.array([6, 2, 3], dtype=np.int64)
        v = make_rng(3).standard_normal(int(lengths.sum()))
        out = _kernels.corpus_norm_errors(lengths, 0.4, v, 5, 20)
        assert all(a.size == 0 for a in out[:3]) and out[3] == 0

    @pytest.mark.parametrize("m, tau_max", [(5.7, 20), (5, 20.5)])
    def test_hindcast_errors_rejects_fractional_window(self, m, tau_max):
        # int() would truncate 5.7 to a window of 5
        with pytest.raises(ValueError, match="must be an integer"):
            _kernels.hindcast_errors(_random_walk(30, seed=4), m, tau_max)

    @pytest.mark.parametrize("m, tau_max", [(5.7, 20), (5, 20.5)])
    def test_corpus_norm_errors_rejects_fractional_window(self, m, tau_max):
        lengths = np.array([30], dtype=np.int64)
        v = make_rng(4).standard_normal(30)
        with pytest.raises(ValueError, match="must be an integer"):
            _kernels.corpus_norm_errors(lengths, 0.4, v, m, tau_max)

    def test_corpus_validates_input_sizes(self):
        lengths = np.array([10], dtype=np.int64)
        with pytest.raises(ValueError, match="innovations"):
            _kernels.corpus_norm_errors(lengths, 0.0, np.zeros(5), 5, 20)


@st.composite
def repeated_price_series(draw):
    """Log costs in up to 40 runs of one to six equal prices, each drawn
    from a few, so that some windows have zero variance."""
    prices = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(prices) - 1), min_size=1, max_size=40))
    runs = draw(st.lists(st.integers(1, 6), min_size=len(picks), max_size=len(picks)))
    return np.log([prices[p] for p, n in zip(picks, runs) for _ in range(n)])


@settings(max_examples=150, deadline=None)
@given(repeated_price_series(), st.sampled_from([2, 5, 9]), st.sampled_from([1, 3, 20, None]))
def test_hindcast_errors_equal_the_record_by_record_oracle(y, m, tau_max):
    # the kernel runs uncapped when given the series length, as hindcast_corpus passes it
    got = _kernels.hindcast_errors(y, m, y.size if tau_max is None else tau_max)
    expected = reference.hindcast_errors(y, m, tau_max)
    assert got[6] == expected[6]
    for a, b in zip(got[:6], expected[:6]):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


class TestPlan:
    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_window_holds_each_origins_differences(self, m):
        lengths = np.array([3, 12, 30, 11, 2], dtype=np.int64)
        for hindcast in (None, [True, True, False, True, True]):
            plan = _kernels._build_plan(lengths, m, 20, hindcast)
            expected = plan.window_start[:, None] + np.arange(m)
            assert plan.window.dtype == expected.dtype
            np.testing.assert_array_equal(plan.window, expected)
            assert not plan.window.flags.writeable


class TestHotPathConsistency:
    def test_kernel_equals_slow_surrogate_pipeline(self):
        # the kernel path and surrogate_corpus + hindcast_corpus must produce
        # the same normalized errors for the same derived stream
        template = ((20, -0.1, 0.15), (15, -0.05, 0.08), (30, -0.02, 0.03))
        config = SurrogateConfig(
            replications=1, theta=0.6, m=5, tau_max=20, seed=42, template=template
        )
        sidx_fast, tau_fast, norm_fast = replication_errors(config, derive_rng(42, 0))
        corpus = surrogate_corpus(config, derive_rng(42, 0))
        records = hindcast_corpus(corpus, 5, tau_max=20).records
        # both paths order records by (series, origin, tau) already
        np.testing.assert_allclose(norm_fast, records.norm_error, rtol=1e-10)
        np.testing.assert_array_equal(tau_fast, records.tau)
