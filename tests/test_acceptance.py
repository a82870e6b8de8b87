"""Acceptance gate: closed-form and property-based checks, one line each."""

import math

import numpy as np
import pytest

from indefbc.continuation import continue_branch
from indefbc.domain import build_domain
from indefbc.experiments import (
    asymptotics_fit,
    delta_sweep,
    logistic_scenarios,
    oracle_1d,
)
from indefbc.problem import (
    LOGISTIC,
    W_FORM,
    ProblemSpec,
    conservation_defect,
    functionals,
    logistic_spec,
    residual_vector,
)
from indefbc.solve import multi_start_solutions, nonexistence_probe
from indefbc.spectral import principal_eigenvalue, sigma1, weighted_steklov_spectrum
from indefbc.weights import trig_weight
from conftest import random_interval_weight, sign_changing_disk_weight


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [{num:2d}] {label}")
    assert ok


def _five_weights(interval, disk16):
    rng = np.random.default_rng(100)
    cases = [(interval, random_interval_weight(rng)) for _ in range(3)]
    cases.append((disk16, np.cos(disk16.nodes) - 0.3))
    cases.append((disk16, np.cos(disk16.nodes) + 0.4 * np.sin(2 * disk16.nodes) - 0.35))
    return cases


@pytest.fixture(scope="module")
def disk64_sweep():
    dom = build_domain("unit-disk", 64)
    g = trig_weight(dom, [(1, 1.0, 0.0)],
                    plateaus=[(-0.4, 0.4), (np.pi - 0.4, np.pi + 0.4)])
    return delta_sweep(dom, g, [3.28, 2.46, 1.97, 1.81, 1.72], 2.0,
                       n_lam_samples=5, n_inits=32, seed=0)


def test_01_interval_principal_eigenvalue_closed_form(interval):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        g = random_interval_weight(rng)
        lam1 = principal_eigenvalue(interval, g).value
        worst = max(worst, abs(lam1 - (g[0] + g[1]) / (g[0] * g[1])))
    _verdict(1, f"interval lambda_1 matches closed form (max err {worst:.2e})",
             worst < 1e-10)


def test_02_sigma1_sign_law(interval, disk16):
    rng = np.random.default_rng(2)
    cases = [(interval, random_interval_weight(rng)) for _ in range(8)]
    cases += [(disk16, np.cos(disk16.nodes) - 0.3),
              (disk16, np.cos(disk16.nodes) + 0.3 * np.sin(3 * disk16.nodes) - 0.4)]
    ok = True
    for dom, g in cases:
        lam1 = principal_eigenvalue(dom, g).value
        ok = ok and abs(sigma1(dom, g, 0.0).value) < 1e-8
        ok = ok and abs(sigma1(dom, g, lam1).value) < 1e-8
        for lam in np.linspace(0.1 * lam1, 0.9 * lam1, 5):
            ok = ok and sigma1(dom, g, float(lam)).value > 0.0
        ok = ok and sigma1(dom, g, 1.5 * lam1).value < 0.0
    _verdict(2, "sigma_1 vanishes at 0 and lambda_1, positive between, "
                "negative beyond (10 weights)", ok)


def test_03_logistic_closed_form_limit(interval):
    spec = logistic_spec(interval, np.array([-1.0, 4.0]))
    branch = continue_branch(spec)
    errs = []
    for lam in (1e-1, 1e-2, 1e-3):
        point = branch.at_lambda(lam)
        lam_u = lam * (1.0 + point.w / lam)
        errs.append(float(np.max(np.abs(lam_u - [0.5, 0.25]))))
    ok = errs[-1] <= 5e-3 and errs[0] > errs[1] > errs[2]
    _verdict(3, f"lambda*u approaches 0.5 - 0.25x (errors {errs[0]:.1e} > "
                f"{errs[1]:.1e} > {errs[2]:.1e} <= 5e-3)", ok)


def test_04_asymptotic_slope(interval):
    ok = True
    slopes = []
    for p in (2.0, 3.0):
        branch = continue_branch(ProblemSpec(interval, p, np.array([1.0, -4.0])))
        fit = asymptotics_fit(branch, (1e-3, 1e-1), "sppr-v")
        slopes.append(fit.slope)
        ok = ok and abs(fit.slope + 1.0 / (p - 1.0)) <= 0.05
    _verdict(4, f"rescaled sup-norm slope is -1/(p-1) +- 0.05 "
                f"(got {slopes[0]:.3f}, {slopes[1]:.3f})", ok)


def test_05_instability_along_branches(interval, disk16):
    ok = True
    for dom, g in _five_weights(interval, disk16):
        branch = continue_branch(ProblemSpec(dom, 2.0, g))
        ok = ok and all(pt.gamma1 < -1e-10 for pt in branch.points)
    _verdict(5, "gamma_1 < -1e-10 at every branch point (5 weights)", ok)


def test_06_mu_structure(interval, disk16):
    ok = True
    points = []
    for dom, g in ((interval, np.array([1.0, -4.0])),
                   (disk16, np.cos(disk16.nodes) - 0.3)):
        branch = continue_branch(ProblemSpec(dom, 2.0, g))
        lam1 = branch.bifurcation_lambda
        for frac in (0.0, 0.2, 0.4, 0.6, 0.8):
            points.append((dom, g, branch.at_lambda(frac * lam1)))
    for dom, g, pt in points:
        spec = weighted_steklov_spectrum(dom, g, pt.lam, pt.w, 2.0)
        ok = ok and abs(spec.mu1_plus - 1.0) < 1e-8
        idx = int(np.argmin(np.abs(spec.mu_values - 1.0)))
        f = spec.eigenfunctions[:, idx]
        cos = abs(float(f @ pt.w)) / (np.linalg.norm(f) * np.linalg.norm(pt.w))
        ok = ok and cos >= 1.0 - 1e-8
        if pt.lam == 0.0:
            ok = ok and abs(spec.mu1_minus) < 1e-8
    _verdict(6, "mu_1^+ = 1 with eigenfunction w at 10 branch points; "
                "mu_1^- = 0 at lambda = 0", ok)


def test_07_nonexistence_probes(interval, disk16):
    ok = True
    for dom, g in _five_weights(interval, disk16):
        lam1 = principal_eigenvalue(dom, g).value
        for lam in (lam1, 1.1 * lam1, 2.0 * lam1):
            report = nonexistence_probe(ProblemSpec(dom, 2.0, g), lam, 64, seed=7)
            ok = ok and not report.findings
    _verdict(7, "64 multi-start probes find nothing at lambda_1, 1.1*lambda_1, "
                "2*lambda_1 (5 weights)", ok)


def test_08_oracle_equivalence(interval):
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(100):
        g = random_interval_weight(rng)
        lam1 = (g[0] + g[1]) / (g[0] * g[1])
        lam = float(rng.uniform(0.05, 0.95)) * lam1
        spec = ProblemSpec(interval, 2.0, g)
        found = multi_start_solutions(spec, lam, 32, seed=8)
        report = oracle_1d(W_FORM, g, lam)
        positive = [pr for pr, cls in zip(report.pairs, report.classifications)
                    if cls.startswith("positive")]
        ok = ok and len(found) == len(positive)
        for pt in found:
            d, c = float(pt.w[0]), float(pt.w[1] - pt.w[0])
            ok = ok and any(np.max(np.abs(np.array([d, c]) - pr)) < 1e-8
                            for pr in positive)
    _verdict(8, "solver solution set equals exact 1D enumeration "
                "(100 random triples)", ok)


def test_09_uniqueness_under_delta_sweep(disk64_sweep):
    results = disk64_sweep
    ok = all(res.error is None for res in results)
    two_smallest = sorted(results, key=lambda r: r.delta)[:2]
    ok = ok and all(res.uniqueness_count == 1 for res in two_smallest)
    ok = ok and all(res.m_delta > 2.0 for res in two_smallest)
    ok = ok and all(a.m_delta <= b.m_delta + 1e-8
                    for a, b in zip(results, results[1:]))
    _verdict(9, "delta sweep: unique solution at the two smallest delta, "
                "m_delta > 2 and nondecreasing", ok)


def test_10_vanishing_family(disk64_sweep):
    results = disk64_sweep
    ok = all(res.error is None for res in results)
    ok = ok and all(a.lam1 > b.lam1 for a, b in zip(results, results[1:]))
    ok = ok and all(a.c_delta > b.c_delta for a, b in zip(results, results[1:]))
    _verdict(10, "delta sweep: lambda_1 and the branch sup-norm bound both "
                 "decrease monotonically", ok)


def test_11_conservation_and_gradients(interval, disk16):
    ok = True
    for dom, g in ((interval, np.array([1.0, -4.0])),
                   (disk16, np.cos(disk16.nodes) - 0.3)):
        spec = ProblemSpec(dom, 2.0, g)
        branch = continue_branch(spec)
        ok = ok and all(abs(conservation_defect(spec, pt.lam, pt.w)) < 1e-8
                        for pt in branch.points)
    spec = ProblemSpec(disk16, 2.0, np.cos(disk16.nodes) - 0.3)
    rng = np.random.default_rng(11)
    w = 0.4 + 0.2 * np.cos(disk16.nodes)
    lam = 0.2
    grad = residual_vector(spec, lam, w)
    eps = 1e-6
    for _ in range(20):
        v = rng.normal(size=disk16.m)
        fd = (functionals(spec, lam, w + eps * v).J
              - functionals(spec, lam, w - eps * v).J) / (2.0 * eps)
        ok = ok and abs(fd - float(grad @ v)) <= 1e-6 * (1.0 + abs(fd))
    _verdict(11, "divergence identity at 1e-8 on all branch points; J-gradient "
                 "matches finite differences in 20 directions", ok)


def test_12_logistic_scenario_matrix(interval):
    neg = logistic_scenarios(interval, np.array([4.0, -8.0]),
                             [0.05, 0.125, 0.2, 0.4], n_inits=32, seed=12)
    ok = neg.checks["probes_empty"] and neg.checks["oracle_no_above_one"]
    pos = logistic_scenarios(interval, np.array([-1.0, 4.0]),
                             [0.1, 0.3, 0.5], n_inits=32, seed=12)
    ok = ok and pos.checks["all_above_one"] and pos.checks["oracle_agreement"]
    # ||u - 1|| shrinks to zero approaching the right endpoint lambda_1
    lam1 = pos.lam1
    gaps = [pos.branch.at_lambda(f * lam1).sup_norm / (f * lam1) for f in (0.9, 0.99, 0.999)]
    ok = ok and gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-2
    rng = np.random.default_rng(12)
    for _ in range(100):
        r0 = -float(rng.uniform(0.2, 3.0))
        r1 = float(rng.uniform(0.2, 3.0))
        lam = float(rng.uniform(0.02, 2.0))
        report = oracle_1d(LOGISTIC, (r0, r1), lam)
        ok = ok and "positive-crossing-one" not in report.classifications
    _verdict(12, "logistic matrix: none above one when int r < 0; branch "
                 "above one flattening to 1 when int r > 0; no state "
                 "crossing 1 (100 triples)", ok)
