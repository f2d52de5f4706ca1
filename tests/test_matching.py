"""Theta matching with common random numbers, against the single-theta engine.

``estimate_theta_matched`` draws each replication once and gets the
normalized errors of every theta of its grid in closed form from that draw
(``surrogate._matching_terms``), then Xi at every theta from one matrix
product (``surrogate._matching_xi``). The engine simulates the same draw at
one theta directly, so the two paths agree to rounding rather than bit for
bit. The tolerances are relative, 1e-12 (of 1 + |value| where a value can be
near zero). Over 10,000 random templates of the strategy below the largest
difference was 4.3e-13 * (1 + |error|) in a normalized error and
1.5e-14 * (1 + |Xi|) in Xi.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from costwalk import (
    SurrogateConfig,
    corpus_template,
    error_growth,
    estimate_theta_matched,
    hindcast_corpus,
    load_reference_params,
    surrogate_corpus,
)
from costwalk.hindcast import _cells
from costwalk.stats import derive_rng
from costwalk.surrogate import (
    _engine_plan,
    _innovations,
    _matching_terms,
    _matching_xi,
    _simulate,
    _stream_tag,
    _xi_ensemble,
    _xi_rows,
)

PROPERTY = settings(max_examples=60, deadline=None)
REFERENCE_TEMPLATE = corpus_template(load_reference_params(improving_only=True))
DRIFTS = (min(t[1] for t in REFERENCE_TEMPLATE), max(t[1] for t in REFERENCE_TEMPLATE))
VOLATILITIES = (min(t[2] for t in REFERENCE_TEMPLATE), max(t[2] for t in REFERENCE_TEMPLATE))
# a mu = K = 0 series, which gets no records, and a 5-point series, too short
# for one window
EDGE_TEMPLATE = ((9, 0.0, 0.0), (5, -0.1, 0.2), (12, -0.3, 0.05), (10, -0.1, 0.2))


@st.composite
def configs(draw):
    """Small random templates with normal innovations, drifts and volatilities
    in the bundled corpus's ranges, series too short for one window and
    mu = K = 0 series."""
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
            template.append((T, draw(st.floats(*DRIFTS)), draw(st.floats(*VOLATILITIES))))
    return SurrogateConfig(
        replications=draw(st.integers(1, 4)),
        theta=draw(st.floats(-0.95, 0.95)),
        m=m,
        tau_max=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**32)),
        template=tuple(template),
        weighting=draw(st.sampled_from(["pooled", "equal-technology"])),
    )


def _crn_norm(terms, theta, plan):
    """Each record's normalized error at theta from the theta-free terms."""
    r0, r1, k = terms
    q = k[:, 0] + theta * k[:, 1] + theta * theta * k[:, 2]
    return (r0 + theta * r1) / np.sqrt(q)[:, plan.record_origin]


@PROPERTY
@given(configs(), st.integers(0, 10**6))
@example(
    SurrogateConfig(replications=2, theta=0.3, m=4, tau_max=3, seed=1, template=EDGE_TEMPLATE),
    0,
)
@example(
    SurrogateConfig(
        replications=2, theta=-0.6, m=4, tau_max=3, seed=1, template=EDGE_TEMPLATE,
        weighting="equal-technology",
    ),
    0,
)
def test_matching_equals_engine_on_the_same_draws(config, rep):
    plan = _engine_plan(config)
    streams = [(config.seed, rep, r) for r in range(config.replications)]
    innovations = np.array([_innovations(config, derive_rng(*s)) for s in streams])
    terms = _matching_terms(plan, innovations, config.m)
    engine_norm = _simulate(config, plan, innovations)
    norm = _crn_norm(terms, config.theta, plan)
    assert np.all(np.abs(norm - engine_norm) <= 1e-12 * (1.0 + np.abs(engine_norm)))

    # Xi at every theta of a grid equals the engine's Xi at that theta
    grid = np.array([config.theta, 0.0, 0.9])
    cell = _cells(plan.origin_series[plan.record_origin], plan.tau, config.tau_max)
    xi = _matching_xi(plan, cell, terms, grid, config)
    for g, theta in enumerate(grid):
        at_theta = dataclasses.replace(config, theta=theta)
        expected = _xi_rows(_simulate(at_theta, plan, innovations), cell, at_theta)
        np.testing.assert_allclose(xi[:, g], expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("weighting", ["pooled", "equal-technology"])
def test_z_at_first_grid_point_equals_engine_z(weighting):
    # the engine at grid[0] draws from the same "theta-match" streams
    config = SurrogateConfig(
        replications=30, theta=0.0, m=5, tau_max=20, seed=3, template=REFERENCE_TEMPLATE,
        weighting=weighting,
    )
    truth = dataclasses.replace(config, theta=0.5)
    corpus = surrogate_corpus(truth, derive_rng(99, 0))
    curve = error_growth(hindcast_corpus(corpus, 5, tau_max=20).records, weighting=weighting)
    grid = np.array([0.3, 0.1, 0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # Z - 1 may not change sign
        z = estimate_theta_matched(curve, config, grid).z_values
    values = _xi_ensemble(dataclasses.replace(config, theta=grid[0]), _stream_tag("theta-match"))
    expected = np.mean(curve.xi / values[:, curve.taus - 1].mean(axis=0))
    assert z[0] == pytest.approx(expected, rel=1e-12, abs=0.0)
