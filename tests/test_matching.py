"""The exact null mean of Xi and the theta matching built on it.

``null_xi_mean`` gives E[eps^2] of a record of the unit walk as an integral
over the eigensystem of the window's variance form, which ``_record_form``
builds. The tests hold the builder to the dense form written from the walk's
definition, and the mean to the paper's closed form at theta = 0 (as bits),
to an independent quadrature over the dense form, and to the engine's
Monte Carlo mean; ``estimate_theta_matched`` builds Z from it and draws
nothing.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from costwalk import (
    SurrogateConfig,
    corpus_template,
    error_growth,
    estimate_theta_matched,
    hindcast_corpus,
    load_reference_params,
    surrogate_corpus,
    variance_factors,
)
from costwalk import surrogate
from costwalk.forecast import _record_form, null_xi_mean
from costwalk.stats import derive_rng
from costwalk.surrogate import _ensemble, _stream_tag

REFERENCE_TEMPLATE = corpus_template(load_reference_params(improving_only=True))


def _dense_form(m, tau, theta):
    """c and B of one record, eps = c'w / sqrt(w'Bw), from the walk's
    definition: innovations w[0..m+tau], levels y[t] = sum of w[s] +
    theta*w[s-1] over s = 1..t, the window the first m differences and the
    origin at t = m."""
    n = m + tau + 1
    steps = np.eye(n)[1:] + theta * np.eye(n)[:-1]
    y = np.vstack((np.zeros(n), np.cumsum(steps, axis=0)))  # y[t] = y[t] @ w
    d = y[1 : m + 1] - y[:m]
    c = y[m + tau] - y[m] - tau * d.mean(axis=0)  # the raw error
    centered = d - d.mean(axis=0)
    return c, centered.T @ centered / (m - 1)  # w'Bw = K_hat^2


def _quadrature(m, tau, theta):
    """E[eps^2] of one record by scipy's quad over ``_dense_form``."""
    n = m + tau + 1
    c, b = _dense_form(m, tau, theta)

    def f(t):
        a = np.eye(n) + 2.0 * t * b
        return np.linalg.det(a) ** -0.5 * (c @ np.linalg.solve(a, c))

    # t = v^-2 on [1, inf) turns the t^(-(m-1)/2) tail into a bounded integrand
    head = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
    tail = integrate.quad(lambda v: 2.0 * f(v**-2.0) / v**3, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
    return head + tail


@pytest.mark.parametrize("m", [4, 5, 40])
def test_record_form_is_the_dense_form(m):
    # the contract of _record_form: B on the m + 1 window innovations, c's
    # window part in its eigenbasis, and the variance of c's future part
    thetas = [-0.5, 0.0, 0.63]
    window = slice(0, m + 1)
    for lam, q, e, u, theta in zip(*_record_form(m, np.array(thetas)), thetas):
        for tau in (1, 7, 20):
            c, b = _dense_form(m, tau, theta)
            np.testing.assert_allclose((q * lam) @ q.T, b[window, window], rtol=0.0, atol=1e-12)
            assert not b[m + 1 :].any()  # B touches no future innovation
            np.testing.assert_allclose(q @ (theta * e + tau * u), c[window], rtol=0.0, atol=1e-12)
            future = (tau - 1) * (1 + theta) ** 2 + 1
            assert c[m + 1 :] @ c[m + 1 :] == pytest.approx(future, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("m", [4, 5, 40])
def test_theta_zero_is_the_closed_form_as_bits(m):
    expected = np.array([variance_factors(t, m, 0.0).xi for t in range(1, 21)])
    g = null_xi_mean(m, 20, [0.4, 0.0, -0.0])
    assert g[1].tobytes() == expected.tobytes()
    assert g[2].tobytes() == expected.tobytes()
    assert np.all(g[0] > expected)  # correlated increments add error


@pytest.mark.parametrize("m", [4, 5, 40])
@pytest.mark.parametrize("theta", [-0.5, 0.4, 0.8])
def test_agrees_with_quadrature(m, theta):
    g = null_xi_mean(m, 20, [theta])[0]
    for tau in (1, 7, 20):
        assert g[tau - 1] == pytest.approx(_quadrature(m, tau, theta), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("weighting", ["pooled", "equal-technology"])
@pytest.mark.parametrize("theta", [-0.5, 0.4, 0.8])
def test_agrees_with_engine_mean(theta, weighting):
    # m = 7: eps^2 has a finite variance from m = 6 on (K_hat^-4 on m - 1
    # degrees of freedom), so the standard error bounds the mean
    config = SurrogateConfig(
        replications=400, theta=theta, m=7, tau_max=12, seed=16, template=REFERENCE_TEMPLATE,
        weighting=weighting,
    )
    values, _ = _ensemble(config, _stream_tag("xi-band"))
    se = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    exact = null_xi_mean(7, 12, [theta])[0]
    assert np.all(np.abs(values.mean(axis=0) - exact) <= 4.0 * se)


def test_rejects_a_window_without_a_finite_mean():
    with pytest.raises(ValueError, match="m=3"):
        null_xi_mean(3, 5, [0.4])
    with pytest.raises(ValueError, match="inside"):
        null_xi_mean(5, 5, [0.4, 1.0])


def test_whole_number_arguments():
    # tau_max=2.5 used to give 3 columns and m=5.5 to raise a TypeError
    np.testing.assert_array_equal(null_xi_mean(5.0, 3.0, [0.1]), null_xi_mean(5, 3, [0.1]))
    for m, tau_max in ((5, 2.5), (5.5, 3)):
        with pytest.raises(ValueError, match="must be an integer"):
            null_xi_mean(m, tau_max, [0.1])


def _observed(weighting, theta=0.5, seed=99):
    truth = SurrogateConfig(
        replications=1, theta=theta, m=5, tau_max=20, seed=seed, template=REFERENCE_TEMPLATE,
        weighting=weighting,
    )
    corpus = surrogate_corpus(truth, derive_rng(seed, 0))
    return error_growth(hindcast_corpus(corpus, 5, tau_max=20).records, weighting=weighting)


@pytest.mark.parametrize("weighting", ["pooled", "equal-technology"])
def test_z_is_observed_over_exact_null_mean_and_draws_nothing(weighting, monkeypatch):
    def no_draws(*args):
        raise AssertionError("theta matching drew a replication")

    monkeypatch.setattr(surrogate, "_draws", no_draws)
    curve = _observed(weighting)
    config = SurrogateConfig(
        replications=30, theta=0.0, m=5, tau_max=20, seed=3, template=REFERENCE_TEMPLATE,
        weighting=weighting,
    )
    grid = np.array([0.3, 0.1, 0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # Z - 1 may not change sign
        z = estimate_theta_matched(curve, config, grid).z_values
    expected = np.mean(curve.xi / null_xi_mean(5, 20, grid)[:, curve.taus - 1], axis=-1)
    np.testing.assert_array_equal(z, expected)


def test_z_does_not_depend_on_template_seed_or_replications():
    # the template decides only which horizons Z compares
    curve = _observed("pooled")
    grid = [0.0, 0.3, 0.6, 0.9]
    other = tuple((T + 7, 1.0, 3.0) for T, _, _ in REFERENCE_TEMPLATE[::2])
    configs = [
        SurrogateConfig(replications=30, theta=0.0, m=5, tau_max=20, seed=3,
                        template=REFERENCE_TEMPLATE),
        SurrogateConfig(replications=1, theta=0.7, m=5, tau_max=20, seed=8, template=other),
    ]
    z = [estimate_theta_matched(curve, c, grid).z_values for c in configs]
    assert z[0].tobytes() == z[1].tobytes()


@pytest.mark.parametrize("weighting", ["pooled", "equal-technology"])
@pytest.mark.parametrize("grid", [np.arange(0.0, 0.901, 0.05), np.array([0.9, 0.2, 0.45, 0.0])])
def test_theta_root_solves_z_equal_one_next_to_theta_m(weighting, grid):
    curve = _observed(weighting)
    config = SurrogateConfig(
        replications=30, theta=0.0, m=5, tau_max=20, seed=3, template=REFERENCE_TEMPLATE,
        weighting=weighting,
    )
    result = estimate_theta_matched(curve, config, grid)
    assert result.bracketed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # one point does not bracket
        z_root = estimate_theta_matched(curve, config, [result.theta_root]).z_values[0]
    assert abs(z_root - 1.0) < 1e-9
    step = np.diff(np.sort(grid)).max()
    assert abs(result.theta_root - result.theta_m) <= step


def test_theta_root_is_none_unless_bracketed():
    config = SurrogateConfig(
        replications=30, theta=0.0, m=5, tau_max=20, seed=3, template=REFERENCE_TEMPLATE
    )
    curve = _observed("pooled")
    with pytest.warns(UserWarning, match="sign"):
        result = estimate_theta_matched(curve, config, [0.7, 0.8, 0.9])
    assert result.theta_root is None and not result.bracketed


def test_grid_point_where_z_is_exactly_one_is_the_root():
    config = SurrogateConfig(
        replications=30, theta=0.0, m=5, tau_max=20, seed=3, template=REFERENCE_TEMPLATE
    )
    curve = _observed("pooled")
    exact = dataclasses.replace(curve, xi=null_xi_mean(5, 20, [0.0])[0][curve.taus - 1])
    result = estimate_theta_matched(exact, config, [0.3, -0.3, 0.0])
    assert result.bracketed
    assert result.theta_m == 0.0 and result.theta_root == 0.0
