import math

import numpy as np
import pytest
import scipy.linalg

import indefbc.solve
from indefbc.domain import build_domain
from indefbc.dtn import dtn_matrix
from indefbc.errors import LeftPositiveCone, MaxIterations, NonpositiveEOrG, SingularJacobian
from indefbc.problem import (
    ProblemSpec,
    conservation_defect,
    functionals,
    jacobian_diagonal,
    logistic_spec,
    nehari_project,
    residual_jacobian,
    residual_vector,
)
from indefbc.solve import (
    NEWTON_TOL,
    make_point,
    minimize_nehari,
    multi_start_solutions,
    newton_solve,
    nonexistence_probe,
)
from indefbc.spectral import principal_eigenvalue
from conftest import sign_changing_disk_weight

# Closed-form positive solution of the two-point problem at lambda = 0,
# p = 2, g = (1, -4): the linear extension 0.5 - 0.25 x.
G_1D = np.array([1.0, -4.0])
W0 = np.array([0.5, 0.25])


# ---------------------------------------------------------------------------
# functionals and the Nehari manifold
# ---------------------------------------------------------------------------

def test_functionals_closed_form_at_known_state(interval):
    spec = ProblemSpec(interval, 2.0, G_1D)
    diag = functionals(spec, 0.0, W0)
    # E = slope^2, G = g0 w0^3 + g1 w1^3; the state sits on the manifold
    assert abs(diag.E - 0.0625) < 1e-15
    assert abs(diag.G_val - 0.0625) < 1e-15
    assert abs(diag.J - 0.0625 / 6.0) < 1e-15
    assert diag.membership == "N-minus"


def test_projection_lands_on_manifold(interval, disk16):
    cases = [(interval, G_1D, np.array([1.0, 0.2])),
             (disk16, sign_changing_disk_weight(disk16),
              np.exp(np.cos(disk16.nodes)))]
    for dom, g, w in cases:
        spec = ProblemSpec(dom, 2.0, g)
        lam1 = principal_eigenvalue(dom, g).value
        proj = nehari_project(spec, 0.5 * lam1, w)
        diag = functionals(spec, 0.5 * lam1, proj)
        assert abs(diag.E - diag.G_val) < 1e-10 * (1.0 + abs(diag.E))
        assert diag.membership == "N-minus"
        # projection is a pure scaling
        assert np.allclose(proj / w, proj[0] / w[0])


def test_projection_rejects_nonpositive_energy(interval):
    spec = ProblemSpec(interval, 2.0, G_1D)
    lam1 = principal_eigenvalue(interval, G_1D).value
    phi1 = principal_eigenvalue(interval, G_1D).eigenfunction.values
    with pytest.raises(NonpositiveEOrG):
        nehari_project(spec, 2.0 * lam1, phi1)  # E(phi1) < 0 past lambda_1


def test_free_gradient_is_derivative_of_j(disk16):
    spec = ProblemSpec(disk16, 2.0, sign_changing_disk_weight(disk16))
    rng = np.random.default_rng(7)
    w = 0.5 + 0.3 * np.cos(disk16.nodes)
    lam = 0.2
    grad = residual_vector(spec, lam, w)
    eps = 1e-6
    for _ in range(5):
        v = rng.normal(size=disk16.m)
        fd = (functionals(spec, lam, w + eps * v).J
              - functionals(spec, lam, w - eps * v).J) / (2.0 * eps)
        assert abs(fd - float(grad @ v)) < 1e-7 * (1.0 + abs(fd))


def test_conservation_identity_at_solutions(interval, disk16):
    spec = ProblemSpec(interval, 2.0, G_1D)
    point = newton_solve(spec, 0.0, np.array([0.6, 0.3]), with_gamma1=False)
    assert abs(conservation_defect(spec, 0.0, point.w)) < 1e-10
    g = sign_changing_disk_weight(disk16)
    spec = ProblemSpec(disk16, 2.0, g)
    lam = 0.4 * principal_eigenvalue(disk16, g).value
    point = minimize_nehari(spec, lam)
    assert abs(conservation_defect(spec, lam, point.w)) < 1e-8


# ---------------------------------------------------------------------------
# Newton solver
# ---------------------------------------------------------------------------

def test_newton_recovers_closed_form_solution(interval):
    spec = ProblemSpec(interval, 2.0, G_1D)
    point = newton_solve(spec, 0.0, np.array([0.6, 0.3]))
    assert np.max(np.abs(point.w - W0)) < 1e-12
    assert point.residual < 1e-11
    assert point.positive
    assert point.gamma1 < 0.0
    assert point.nehari.membership == "N-minus"


def test_newton_rejects_nonpositive_init(interval):
    spec = ProblemSpec(interval, 2.0, G_1D)
    with pytest.raises(LeftPositiveCone):
        newton_solve(spec, 0.0, np.array([0.5, -0.1]))


def test_newton_logistic_spec_solution_maps_above_one(interval):
    r = np.array([-1.0, 4.0])
    spec = logistic_spec(interval, r)
    lam = 0.3
    point = newton_solve(spec, lam, np.array([0.4, 0.2]))
    u = 1.0 + point.w / lam
    # u solves the logistic flux condition and stays above one
    assert np.min(u) > 1.0
    assert abs(-(u[1] - u[0]) - lam * r[0] * u[0] * (1.0 - u[0])) < 1e-10


# ---------------------------------------------------------------------------
# Nehari minimization and probes
# ---------------------------------------------------------------------------

def test_minimize_nehari_matches_newton(interval, disk16):
    for dom, g in ((interval, G_1D),
                   (disk16, sign_changing_disk_weight(disk16))):
        spec = ProblemSpec(dom, 2.0, g)
        lam = 0.4 * principal_eigenvalue(dom, g).value
        found = minimize_nehari(spec, lam)
        assert found.positive
        assert found.nehari.membership == "N-minus"
        refined = newton_solve(spec, lam, found.w)
        assert np.max(np.abs(found.w - refined.w)) < 1e-8 * (1.0 + found.sup_norm)


def test_probe_is_empty_at_and_beyond_lambda1(interval, disk16):
    for dom, g in ((interval, G_1D),
                   (disk16, sign_changing_disk_weight(disk16))):
        spec = ProblemSpec(dom, 2.0, g)
        lam1 = principal_eigenvalue(dom, g).value
        for lam in (lam1, 1.3 * lam1):
            report = nonexistence_probe(spec, lam, 16, seed=1)
            assert not report.findings


def test_multistart_finds_exactly_one_solution(interval):
    spec = ProblemSpec(interval, 2.0, G_1D)
    lam1 = principal_eigenvalue(interval, G_1D).value
    found = multi_start_solutions(spec, 0.5 * lam1, 24, seed=2)
    assert len(found) == 1
    assert found[0].positive


def test_probe_report_is_seed_deterministic(interval):
    spec = ProblemSpec(interval, 2.0, G_1D)
    a = nonexistence_probe(spec, 1.5, 16, seed=3)
    b = nonexistence_probe(spec, 1.5, 16, seed=3)
    assert a.failures == b.failures
    assert len(a.findings) == len(b.findings)


def _plain_newton(spec, lam, init, *, tol=NEWTON_TOL, with_gamma1=True, known=()):
    """Damped Newton with a fresh dense solve every iteration, no factor reuse;
    it stops in a ``known`` ball as newton_solve does."""
    w = np.asarray(init, dtype=float).copy()
    if np.min(w) <= 0.0:
        raise LeftPositiveCone("initial trace must be strictly positive")
    res = residual_vector(spec, lam, w)
    res_norm = float(np.linalg.norm(res))
    for _ in range(200):
        for point, radius in known:
            if np.max(np.abs(w - point.w)) <= radius:
                return point
        if res_norm < tol * (1.0 + float(np.max(np.abs(w))) ** spec.p):
            return make_point(spec, lam, w, with_gamma1)
        try:
            step = np.linalg.solve(residual_jacobian(spec, lam, w), res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        alpha = 1.0
        for _ in range(30):
            trial = w - alpha * step
            if np.min(trial) > 0.0:
                trial_res = residual_vector(spec, lam, trial)
                trial_norm = float(np.linalg.norm(trial_res))
                if trial_norm < res_norm:
                    w, res, res_norm = trial, trial_res, trial_norm
                    break
            alpha *= 0.5
        else:
            raise LeftPositiveCone("damping could not keep the iterate positive")
    raise MaxIterations(f"Newton stalled at residual {res_norm}")


def _same_probe(spec, lam, monkeypatch):
    """The 32-init probe's failures and findings, with newton_solve and with
    plain damped Newton in its place, agree."""
    got = nonexistence_probe(spec, lam, 32, seed=4)
    with monkeypatch.context() as patch:
        patch.setattr(indefbc.solve, "newton_solve", _plain_newton)
        want = nonexistence_probe(spec, lam, 32, seed=4)
    assert got.failures == want.failures
    assert len(got.findings) == len(want.findings)
    for a, b in zip(got.findings, want.findings):
        assert np.max(np.abs(a.w - b.w)) <= 1e-12 * (1.0 + b.sup_norm)


def test_probe_matches_plain_newton_reference(interval, monkeypatch):
    """Reusing factors after damped steps and over-relaxing steps on the kernel
    ray change no probe outcome: 32-init probes at 0.5, 1 and 1.5 lambda_1, and
    on the m = 16 disk at (1 - delta) lambda_1 next to the degenerate zero, give
    the failure counts and findings of plain damped Newton stopped in the same
    one-solution balls."""
    cases = [(interval, G_1D)]
    for m in (64, 128):
        dom = build_domain("unit-disk", m)
        cases.append((dom, sign_changing_disk_weight(dom)))
    for dom, g in cases:
        spec = ProblemSpec(dom, 2.0, g)
        lam1 = principal_eigenvalue(dom, g).value
        for factor in (0.5, 1.0, 1.5):
            _same_probe(spec, factor * lam1, monkeypatch)
    disk = build_domain("unit-disk", 16)
    g = sign_changing_disk_weight(disk)
    lam1 = principal_eigenvalue(disk, g).value
    for p in (1.5, 2.0, 3.0):
        for delta in (1e-2, 1e-4, 0.0, -1e-3):
            _same_probe(ProblemSpec(disk, p, g), (1.0 - delta) * lam1, monkeypatch)
    # g = (1, 1), lambda = 0 at w = (1, 1): the Jacobian [[-1, -1], [-1, -1]]
    flat = ProblemSpec(interval, 2.0, np.array([1.0, 1.0]))
    assert np.array_equal(residual_jacobian(flat, 0.0, np.ones(2)), -np.ones((2, 2)))
    for solver in (newton_solve, _plain_newton):
        with pytest.raises(SingularJacobian):
            solver(flat, 0.0, np.ones(2))


def test_probe_reports_no_collapsing_iterate(disk16):
    """At lambda_1 Newton's absolute test passes iterates collapsing onto the
    degenerate zero once sup^p is small (10 and 9 "solutions" of sup about 5e-5
    and 3e-3 at p = 3 and 5 without the candidate polish); none is reported.
    At (1 - 1e-4) lambda_1 the one small solution (sup 5.4e-5) still is, and
    polished: its Newton step is below 1e-8 |w|."""
    g = sign_changing_disk_weight(disk16)
    lam1 = principal_eigenvalue(disk16, g).value
    for p in (3.0, 5.0):
        report = nonexistence_probe(ProblemSpec(disk16, p, g), lam1, 32, seed=4)
        assert not report.findings
    spec = ProblemSpec(disk16, 2.0, g)
    lam = (1.0 - 1e-4) * lam1
    report = nonexistence_probe(spec, lam, 32, seed=4)
    assert len(report.findings) == 1
    w = report.findings[0].w
    step = np.linalg.solve(residual_jacobian(spec, lam, w), residual_vector(spec, lam, w))
    assert 1e-5 < np.max(w) < 1e-4
    assert np.linalg.norm(step) <= 1e-8 * np.linalg.norm(w)


def test_newton_collapses_fast_at_the_degenerate_zero(monkeypatch):
    """From w = 1e-2 phi_1 at lambda_1 on the m = 64 disk, where plain Newton
    removes 1/p of w per step, newton_solve reaches the trivial zero with at
    most half of plain Newton's Jacobians."""
    dom = build_domain("unit-disk", 64)
    g = sign_changing_disk_weight(dom)
    pair = principal_eigenvalue(dom, g)
    spec = ProblemSpec(dom, 2.0, g)
    init = 1e-2 * np.abs(pair.eigenfunction.values)
    calls = []
    jacobian = residual_jacobian

    def counted(*args, **kwargs):
        calls.append(1)
        return jacobian(*args, **kwargs)

    monkeypatch.setattr(indefbc.solve, "residual_jacobian", counted)
    point = newton_solve(spec, pair.value, init, tol=1e-13, with_gamma1=False)
    fast = len(calls)
    monkeypatch.setitem(_plain_newton.__globals__, "residual_jacobian", counted)
    calls.clear()
    plain = _plain_newton(spec, pair.value, init, tol=1e-13, with_gamma1=False)
    assert point.sup_norm < 1e-6 and plain.sup_norm < 1e-6
    assert 1 <= fast <= 0.5 * len(calls)


def test_newton_collapses_fast_at_the_nondegenerate_zero(monkeypatch):
    """From w = 1e-2 phi_1 at 0.5 and 1.5 lambda_1 on the m = 64 disk, where
    the full step overshoots the trivial zero and plain Newton only halves w
    per step, newton_solve given the one-solution ball about w = 0 returns
    that ball's point within 2 Jacobians."""
    dom = build_domain("unit-disk", 64)
    g = sign_changing_disk_weight(dom)
    pair = principal_eigenvalue(dom, g)
    spec = ProblemSpec(dom, 2.0, g)
    init = 1e-2 * np.abs(pair.eigenfunction.values)
    calls = []
    jacobian = residual_jacobian

    def counted(*args, **kwargs):
        calls.append(1)
        return jacobian(*args, **kwargs)

    for factor in (0.5, 1.5):
        lam = factor * pair.value
        zero = make_point(spec, lam, np.zeros(dom.m), with_gamma1=False)
        radius = indefbc.solve._unique_solution_radius(spec, lam, zero.w)
        assert radius > 0.0
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(indefbc.solve, "residual_jacobian", counted)
            point = newton_solve(spec, lam, init, tol=1e-13, with_gamma1=False,
                                 known=[(zero, radius)])
        assert point is zero
        assert 1 <= len(calls) <= 2


def test_kernel_ray_scale_signatures():
    """The over-relaxation factor of a step d: none off the ray, for a true
    solution's tiny step along w, or for d near w (the nondegenerate zero,
    which the ball about w = 0 handles); p (1 - 1e-3) for d = w/p (the
    degenerate zero at lambda_1, where r = 0)."""
    scale = indefbc.solve._kernel_ray_scale
    w = np.linspace(0.5, 1.5, 64)
    tilt = np.cos(np.linspace(0.0, math.pi, 64))
    assert scale(2.0, w, w + 1e-1 * tilt) is None
    assert scale(2.0, w, 1e-3 * w) is None
    assert scale(2.0, w, (1.0 + 1e-5) * w) is None
    for p in (1.5, 2.0, 3.0):
        assert scale(p, w, w / p) == pytest.approx(p * (1.0 - 1e-3), rel=1e-15)


def test_probe_reuses_factorizations(monkeypatch):
    """Jacobians and residuals per init of a 32-init probe on the m = 128 disk,
    counted through indefbc.solve's residual_jacobian and residual_vector.

    Jacobians: at most 6 and 5.5 at 0.5 and 1.5 lambda_1 (5.69 and 4.94; 8.28
    and 8.03 without the one-solution balls, 14.1 and 17.2 without reuse), and
    at most 11 at lambda_1, where the steps are over-relaxed on the kernel ray
    (9.88; 21.9 by plain Newton).  Residuals: at most 8, 14 and 7 at 0.5, 1
    and 1.5 lambda_1 (7.50, 12.97 and 6.47; 11.44, 12.94 and 13.72 without
    the balls).  Each init assembles at least one Jacobian, and each is
    counted once, as a finding, a run that joined one, or a failure."""
    dom = build_domain("unit-disk", 128)
    g = sign_changing_disk_weight(dom)
    spec = ProblemSpec(dom, 2.0, g)
    lam1 = principal_eigenvalue(dom, g).value
    jacobians, residuals = [], []

    def counted_jacobian(*args, **kwargs):
        jacobians.append(1)
        return residual_jacobian(*args, **kwargs)

    def counted_residual(*args, **kwargs):
        residuals.append(1)
        return residual_vector(*args, **kwargs)

    monkeypatch.setattr(indefbc.solve, "residual_jacobian", counted_jacobian)
    monkeypatch.setattr(indefbc.solve, "residual_vector", counted_residual)
    for factor, most_jac, most_res in ((0.5, 6.0, 8.0), (1.0, 11.0, 14.0),
                                       (1.5, 5.5, 7.0)):
        jacobians.clear()
        residuals.clear()
        report = nonexistence_probe(spec, factor * lam1, 32, seed=4)
        assert 1.0 <= len(jacobians) / 32 <= most_jac
        assert len(residuals) / 32 <= most_res
        assert len(report.findings) + report.joined + sum(report.failures.values()) == 32


def test_one_solution_ball_contracts(interval):
    """In the ball of _unique_solution_radius about w = 0 (0.5 and 1.5 lambda_1)
    and about the probe's finding (0.5 lambda_1) on the m = 64 disk, p = 1.5,
    2 and 3, the simplified Newton map T(v) = v - F'(c)^-1 F(v) contracts by
    1/4 on 200 seeded pairs, and moves the centre by at most 3/4 of the
    radius.  At lambda_1 the radius about w = 0 is 0: on
    the interval, where Lambda - lambda M_g is exactly singular, and on the
    disk, where it is singular to working precision."""
    dom = build_domain("unit-disk", 64)
    g = sign_changing_disk_weight(dom)
    lam1 = principal_eigenvalue(dom, g).value
    radius_of = indefbc.solve._unique_solution_radius
    rng = np.random.default_rng(11)
    for p in (1.5, 2.0, 3.0):
        spec = ProblemSpec(dom, p, g)
        assert radius_of(spec, lam1, np.zeros(dom.m)) == 0.0
        centres = [(0.5, np.zeros(dom.m)), (1.5, np.zeros(dom.m))]
        found = nonexistence_probe(spec, 0.5 * lam1, 8, seed=1).findings
        assert len(found) == 1
        centres.append((0.5, found[0].w))
        for factor, c in centres:
            lam = factor * lam1
            r = radius_of(spec, lam, c)
            assert r > 0.0
            inverse = np.linalg.inv(residual_jacobian(spec, lam, c))

            def simplified(v):
                return v - inverse @ residual_vector(spec, lam, v)

            assert np.max(np.abs(simplified(c) - c)) <= 0.75 * r
            for _ in range(200):
                u, v = c + r * rng.uniform(-1.0, 1.0, (2, dom.m))
                gap = np.max(np.abs(u - v))
                moved = np.max(np.abs(simplified(u) - simplified(v)))
                assert moved <= 0.25 * gap * (1.0 + 1e-12)
    lam1 = (G_1D[0] + G_1D[1]) / (G_1D[0] * G_1D[1])
    spec = ProblemSpec(interval, 2.0, G_1D)
    assert radius_of(spec, lam1, np.zeros(2)) == 0.0


def test_jacobian_is_fortran_ordered_dtn_minus_diagonal(interval):
    """The Jacobian is Lambda - diag(d) to the bit, laid out in Fortran order."""
    disk = build_domain("unit-disk", 128)
    rng = np.random.default_rng(3)
    for dom, g in ((interval, G_1D), (disk, sign_changing_disk_weight(disk))):
        spec = ProblemSpec(dom, 2.0, g)
        w = rng.uniform(0.05, 2.0, dom.m)
        jac = residual_jacobian(spec, 0.7, w)
        assert jac.flags.f_contiguous
        want = dtn_matrix(dom) - np.diag(jacobian_diagonal(spec, 0.7, w))
        assert np.array_equal(jac, want)


def test_newton_raises_on_a_non_finite_lifted_step(monkeypatch):
    """A non-finite step from the lifted factorization (a singular Jacobian, k = +-inf)
    raises SingularJacobian, as a zero LU pivot does."""
    dom = build_domain("unit-disk", 64)
    spec = ProblemSpec(dom, 2.0, sign_changing_disk_weight(dom))

    def singular_lift(jac, u, c):
        return lambda r: np.full(len(r), math.nan)

    monkeypatch.setattr(indefbc.solve, "lifted_cholesky", singular_lift)
    with pytest.raises(SingularJacobian, match="non-finite Newton step"):
        newton_solve(spec, 0.5, np.ones(dom.m), with_gamma1=False)


def test_lu_factor_works_in_place(interval):
    """getrf overwrites the Jacobian with its factors, which match scipy's lu_factor
    of a copy to the bit."""
    disk = build_domain("unit-disk", 128)
    for dom, g in ((interval, G_1D), (disk, sign_changing_disk_weight(disk))):
        spec = ProblemSpec(dom, 2.0, g)
        jac = residual_jacobian(spec, 0.7, np.linspace(0.5, 1.5, dom.m))
        want_lu, want_piv = scipy.linalg.lu_factor(jac)
        lu, piv = indefbc.solve._lu_factor(jac)
        assert np.shares_memory(lu, jac)
        assert np.array_equal(lu, want_lu) and np.array_equal(piv, want_piv)
