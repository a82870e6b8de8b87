import dataclasses
import math

import numpy as np
import pytest

import indefbc.experiments
from indefbc.continuation import continue_branch
from indefbc.domain import build_domain
from indefbc.errors import InsufficientSamples, ShapeMismatch, UnsupportedExponent
from indefbc.experiments import (
    asymptotics_fit,
    delta_sweep,
    logistic_scenarios,
    oracle_1d,
)
from indefbc.problem import LOGISTIC, W_FORM, ProblemSpec


# ---------------------------------------------------------------------------
# exact 1D enumeration
# ---------------------------------------------------------------------------

def test_oracle_contains_known_closed_form_roots():
    report = oracle_1d(W_FORM, (1.0, -4.0), 0.0)
    # the trivial state (degenerate at lambda = 0, located to sqrt(tol))
    assert "zero" in report.classifications
    # the positive linear state 0.5 - 0.25 x is nondegenerate, hence sharp
    idx = [i for i, pr in enumerate(report.pairs)
           if np.max(np.abs(pr - [0.5, -0.25])) < 1e-10]
    assert len(idx) == 1
    assert report.classifications[idx[0]] == "positive-below-one"


def test_grid_and_resultant_enumerations_agree():
    rng = np.random.default_rng(21)
    for _ in range(25):
        g0 = rng.uniform(0.2, 3.0)
        g1 = -rng.uniform(0.2, 3.0)
        lam = rng.uniform(0.05, 2.0)
        a = oracle_1d(W_FORM, (g0, g1), lam, method="grid")
        b = oracle_1d(W_FORM, (g0, g1), lam, method="resultant")
        assert a.pairs.shape == b.pairs.shape
        assert np.max(np.abs(a.pairs - b.pairs)) < 1e-8


def test_logistic_oracle_finds_unique_state_above_one():
    r = (-1.0, 4.0)
    for lam in (0.05, 0.2, 0.5):
        report = oracle_1d(LOGISTIC, r, lam)
        above = [i for i, c in enumerate(report.classifications)
                 if c == "positive-above-one"]
        assert len(above) == 1
        assert "constant-one" in report.classifications
    # lam * u approaches the closed-form limit profile as lam -> 0
    report = oracle_1d(LOGISTIC, r, 1e-3)
    d, c = report.pairs[[i for i, cl in enumerate(report.classifications)
                         if cl == "positive-above-one"][0]]
    assert abs(1e-3 * d - 0.5) < 5e-3
    assert abs(1e-3 * (d + c) - 0.25) < 5e-3


def test_oracle_validates_inputs():
    with pytest.raises(ShapeMismatch):
        oracle_1d("sppr-form", (1.0, -1.0), 0.5)
    with pytest.raises(UnsupportedExponent):
        oracle_1d(LOGISTIC, (-1.0, 4.0), 0.5, p=3.0)
    with pytest.raises(UnsupportedExponent):
        oracle_1d(W_FORM, (1.0, -1.0), 0.5, p=3.0, method="resultant")
    with pytest.raises(ShapeMismatch):
        oracle_1d(LOGISTIC, (-1.0, 4.0), 0.0)


# ---------------------------------------------------------------------------
# delta sweeps
# ---------------------------------------------------------------------------

def test_interval_sweep_is_monotone_and_unique(interval):
    results = delta_sweep(interval, np.array([1.0, -1.0]), [4.0, 2.5, 1.6], 2.0,
                          n_lam_samples=3, n_inits=8)
    assert all(res.error is None for res in results)
    lam1s = [res.lam1 for res in results]
    assert all(a > b for a, b in zip(lam1s, lam1s[1:]))
    assert all(res.m_delta == math.inf for res in results)
    assert all(res.uniqueness_count == 1 for res in results)
    assert all(res.c_delta > 0.0 for res in results)


def test_sweep_records_errors_and_continues(interval):
    results = delta_sweep(interval, np.array([1.0, -1.0]), [4.0, 0.5], 2.0,
                          n_lam_samples=2, n_inits=4)
    assert results[0].error is None
    assert results[1].error is not None and "Delta" in results[1].error


def test_disk_sweep_monotonicity():
    dom = build_domain("unit-disk", 32)
    g = np.cos(dom.nodes)
    results = delta_sweep(dom, g, [3.0, 1.8, 1.2], 2.0,
                          n_lam_samples=2, n_inits=6)
    assert all(res.error is None for res in results)
    assert all(a.lam1 > b.lam1 for a, b in zip(results, results[1:]))
    assert all(a.c_delta > b.c_delta for a, b in zip(results, results[1:]))
    assert all(a.m_delta <= b.m_delta + 1e-8 for a, b in zip(results, results[1:]))
    assert all(res.uniqueness_count == 1 for res in results)


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_rescaled_branch_blows_up_at_rate_one_over_p_minus_one(interval):
    for p in (2.0, 3.0):
        branch = continue_branch(ProblemSpec(interval, p, np.array([1.0, -4.0])))
        fit = asymptotics_fit(branch, (1e-3, 1e-1), "sppr-v")
        assert abs(fit.slope + 1.0 / (p - 1.0)) < 0.05


def test_asymptotics_fit_validates_window_and_target(interval):
    branch = continue_branch(ProblemSpec(interval, 2.0, np.array([1.0, -4.0])))
    with pytest.raises(ShapeMismatch):
        asymptotics_fit(branch, (1e-3, 1e-1), "sup-w")
    with pytest.raises(InsufficientSamples):
        asymptotics_fit(branch, (1e-2, 2e-2), "sppr-v")  # under a decade
    with pytest.raises(InsufficientSamples):
        asymptotics_fit(branch, (0.0, 1e-1), "sppr-v")


# ---------------------------------------------------------------------------
# logistic scenarios
# ---------------------------------------------------------------------------

def test_logistic_positive_average_scenario(interval):
    report = logistic_scenarios(interval, np.array([-1.0, 4.0]),
                                [0.1, 0.3, 0.5], n_inits=8, seed=0)
    assert report.scenario == "positive-average"
    assert report.lam1 == pytest.approx(0.75)
    assert report.checks["all_above_one"]
    assert report.checks["all_unstable"]
    assert report.checks["oracle_agreement"]
    assert report.checks["endpoint_flattening"] < 1e-2
    assert abs(report.checks["blowup_slope"] + 1.0) < 0.05


def test_logistic_nonpositive_average_scenario(interval):
    r = np.array([4.0, -8.0])  # integral -4 < 0; lambda_1(r) = 0.125
    report = logistic_scenarios(interval, r, [0.05, 0.125, 0.2, 0.4],
                                n_inits=8, seed=0)
    assert report.scenario == "nonpositive-average"
    assert report.checks["probes_empty"]
    assert report.checks["oracle_no_above_one"]
    counts = report.checks["oracle_below_one_counts"]
    assert counts["at_or_below_lam1"] == [0, 0]
    assert counts["above_lam1"] == [1, 1]


@pytest.mark.parametrize("direction", [-math.inf, math.inf])
def test_logistic_counts_ignore_lambda1_rounding(interval, monkeypatch, direction):
    """The grid point 0.125 = lambda_1(r) of r = (4, -8) counts as at lambda_1 when
    the computed lambda_1 is one ulp low or high."""
    principal = indefbc.experiments.principal_eigenvalue

    def nudged(domain, g):  # one ulp off the closed form (g0 + g1) / (g0 g1), exact here
        exact = (g[0] + g[1]) / (g[0] * g[1])
        return dataclasses.replace(principal(domain, g),
                                   value=float(np.nextafter(exact, direction)))

    monkeypatch.setattr(indefbc.experiments, "principal_eigenvalue", nudged)
    report = logistic_scenarios(interval, np.array([4.0, -8.0]), [0.05, 0.125, 0.2, 0.4],
                                n_inits=8, seed=0)
    counts = report.checks["oracle_below_one_counts"]
    assert counts["at_or_below_lam1"] == [0, 0]
    assert counts["above_lam1"] == [1, 1]
