"""Positive-solution solvers: Nehari minimization and damped Newton."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .domain import as_values
from .dtn import dtn_matrix
from .errors import InitNotProjectable, LeftPositiveCone, MaxIterations, SingularJacobian
from .problem import (
    ProblemSpec,
    SolutionPoint,
    functionals,
    jacobian_diagonal,
    nehari_project,
    residual_jacobian,
    residual_vector,
)
from .spectral import gamma1 as _gamma1
from .spectral import lifted_cholesky, principal_eigenvalue

NEWTON_TOL = 1e-11
GRAD_TOL = 1e-10
_MAX_DAMPING = 30
_MAX_NEWTON = 200
_MAX_DESCENT = 50_000
# Forcing term of the inexact Newton step taken on kept factors: the step is
# used when its linear residual is at most this fraction of |F|.
_REUSE_ETA = 1e-4
# The kernel-ray signature of a Newton step and the least fraction of w that
# its over-relaxed step keeps (newton_solve).
_RAY_RATIO_TOL = 1e-3
_RAY_COS_TOL = 1e-6
_RAY_KAPPA_MIN = 1e-3


def make_point(spec: ProblemSpec, lam: float, w, with_gamma1: bool = True,
               warm: SolutionPoint | None = None) -> SolutionPoint:
    """Package a converged trace with its diagnostics; gamma_1's root search
    starts from the gamma_1 and eigenfunction of ``warm``, a nearby point, when
    that point has them."""
    lam = float(lam)
    wv = as_values(spec.domain, w)
    res = float(np.linalg.norm(residual_vector(spec, lam, wv)))
    positive = bool(np.min(wv) > 0.0)
    gam, eigenfunction = math.nan, None
    if with_gamma1:
        start = None
        if warm is not None and warm.gamma1_eigenfunction is not None:
            start = (warm.gamma1, warm.gamma1_eigenfunction)
        pair = _gamma1(spec.domain, spec.g, lam, wv, spec.p,
                       h=spec.superlinear_weight, warm=start)
        gam, eigenfunction = pair.value, pair.eigenfunction.values
    diag = functionals(spec, lam, wv)
    return SolutionPoint(lam, wv, res, gam, diag, float(np.max(np.abs(wv))), positive,
                         eigenfunction)


def newton_solve(spec: ProblemSpec, lam: float, init, *,
                 tol: float = NEWTON_TOL, with_gamma1: bool = True,
                 known=()) -> SolutionPoint:
    """Damped Newton on the boundary-reduced residual from a positive init.

    ``known`` holds (point, r) balls, r from ``_unique_solution_radius``: at
    the init and after each accepted step, an iterate w with
    |w - point.w|_inf <= r returns that point as given, with no further
    Jacobian, since the ball holds no solution but that point's (there the
    simplified Newton map contracts by 1/4).

    Steps are halved (up to 30 times) until the iterate stays in the positive
    cone and the residual falls; LeftPositiveCone when no halving does.  Each
    fresh Jacobian is factored in place by ``_jacobian_solver``: one Cholesky
    factorization lifted along w, or LU where that lift is not positive
    definite; a non-finite step raises SingularJacobian.  After a damped step
    the factors are kept: the step s they give at the new iterate w is taken
    as an inexact Newton step (Dembo, Eisenstat & Steihaug 1982) when
    |F(w) - F'(w) s| <= eta |F(w)|, eta = _REUSE_ETA = 1e-4, with
    F'(w) s = Lambda s - d s (d from jacobian_diagonal, no Jacobian
    assembled).  The Jacobian is factored afresh after every plain full step
    (alpha = 1 on the unscaled step), when that test fails, and when the
    reused step is non-finite or cannot be damped; only a fresh step raises.

    A step d (fresh or on kept factors) along the kernel ray toward the
    degenerate zero at lambda_1 is over-relaxed by ``_kernel_ray_scale``.
    With L = Lambda - lambda M_g, F(w) = L w - N(w), N(w) = Q h |w|^(p-1) w,
    and F'(w) w = L w - p N(w) for the p-homogeneous N, so exactly
    p d - w = (p - 1) F'(w)^-1 L w.  Where L w is negligible (w near the
    degenerate zero along phi_1, where each plain step removes only 1/p of w)
    the signature |p |d|/|w| - 1| < 1e-3, cos(d, w) > 1 - 1e-6 holds, and
    p (1 - kappa) d is damped in place of d, which lands at kappa w along the
    ray.  kappa = max(1e-3, 2 (p r+ / (p - 1))^(1/(p-1))),
    r = 1 - p (w.d)/(w.w), is twice the ratio of the small positive solution
    that the one-dimensional reduction predicts to |w| (r+ = 0 above
    lambda_1), so the step never jumps below that solution; the step stays
    plain when kappa >= 1 - 1/p.  Near a nondegenerate zero no step is
    over-relaxed: the ball about w = 0 in ``known`` stops that collapse.
    The plain step is damped when the over-relaxed one cannot be.  Factors
    are kept after an over-relaxed step as after a damped one.  The
    convergence test alone decides.
    """
    w = as_values(spec.domain, init).copy()
    if w.min() <= 0.0:
        raise LeftPositiveCone("initial trace must be strictly positive")
    lap = dtn_matrix(spec.domain)
    res = residual_vector(spec, lam, w)
    res_norm = math.sqrt(res @ res)
    solve = None  # an earlier iterate's Jacobian solver, kept after a damped step
    for _ in range(_MAX_NEWTON):
        for point, radius in known:
            if np.abs(w - point.w).max() <= radius:
                return point
        if res_norm < tol * (1.0 + float(abs(w).max()) ** spec.p):
            return make_point(spec, lam, w, with_gamma1)
        moved = None
        if solve is not None:
            step = solve(res)
            if np.isfinite(step).all():
                linear = res - (lap @ step - jacobian_diagonal(spec, lam, w) * step)
                if math.sqrt(linear @ linear) <= _REUSE_ETA * res_norm:
                    moved = _relaxed_step(spec, lam, w, step, res_norm)
        if moved is None:
            solve, step = _fresh_step(spec, lam, w, res)
            moved = _fresh_damped_step(spec, lam, w, step, res_norm)
        w, res, res_norm, plain_full = moved
        if plain_full:
            solve = None
    raise MaxIterations(f"Newton stalled at residual {res_norm}")


def _unique_solution_radius(spec: ProblemSpec, lam: float, centre: np.ndarray) -> float:
    """Radius r of the sup-norm ball about ``centre`` that holds exactly one
    solution of F = 0, by the contraction-mapping form of Newton-Kantorovich
    (Ortega & Rheinboldt 1970, 12.4; radii polynomials as in Day, Lessard &
    Mischaikow 2007); 0 when the Jacobian J at the centre is singular to
    working precision, K |J|_inf >= 1/eps or no finite inverse, since K then
    has no correct digit (about w = 0 on disks of m = 64 to 256, K |J|_inf eps
    measured 15 to 1.7e3 at lambda_1 and below 1e-4 at (1 - 1e-8) lambda_1).

    With J = F'(c), K = |J^-1|_inf, hq = max|q h| and N(w) = q h |w|^(p-1) w,
    T(v) = v - J^-1 F(v) has T(u) - T(v) = J^-1 (N(u) - N(v) - N'(c)(u - v)),
    whose i-th entry inside the ball is at most
    p hq omega(r) |u - v|_inf, omega(r) bounding ||c_i + t|^(p-1) - |c_i|^(p-1)|
    for |t| <= r: r^(p-1) at c = 0 or for p <= 2, (p - 1)(|c|_inf + r)^(p-2) r
    for p > 2.  r is the largest radius with p hq K omega(r) <= 1/4, so T
    contracts by 1/4 there, and |J^-1 F(c)|_inf <= 3r/4 (else r = 0) makes T
    map the ball into itself.
    """
    jac = residual_jacobian(spec, lam, centre)
    try:
        inverse = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        return 0.0
    k = np.abs(inverse).sum(axis=1).max()
    if not k * np.abs(jac).sum(axis=1).max() < 1.0 / np.finfo(float).eps:
        return 0.0
    p = spec.p
    hq = np.abs(spec.domain.weights * spec.superlinear_weight).max()
    beta = 0.25 / (p * hq * k)
    sup = float(np.abs(centre).max())
    if sup == 0.0 or p <= 2.0:
        radius = float(beta ** (1.0 / (p - 1.0)))
    else:
        # (p - 1)(sup + r)^(p - 2) r rises from 0 and reaches beta below hi
        lo, hi = 0.0, float(beta / ((p - 1.0) * sup ** (p - 2.0)))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (p - 1.0) * (sup + mid) ** (p - 2.0) * mid <= beta:
                lo = mid
            else:
                hi = mid
        radius = lo
    step = float(np.abs(inverse @ residual_vector(spec, lam, centre)).max())
    return radius if step <= 0.75 * radius else 0.0


def _fresh_step(spec: ProblemSpec, lam: float, w: np.ndarray, res: np.ndarray):
    """(solver, step) from a freshly factored Jacobian at w; SingularJacobian
    when the step is not finite."""
    solve = _jacobian_solver(residual_jacobian(spec, lam, w), w)
    step = solve(res)
    if not np.isfinite(step).all():
        raise SingularJacobian("non-finite Newton step")
    return solve, step


def _fresh_damped_step(spec: ProblemSpec, lam: float, w: np.ndarray, step: np.ndarray,
                       res_norm: float):
    """``_relaxed_step`` of a fresh step; LeftPositiveCone when it finds none."""
    moved = _relaxed_step(spec, lam, w, step, res_norm)
    if moved is None:
        raise LeftPositiveCone("no damped step stays positive and lowers the residual")
    return moved


def _relaxed_step(spec: ProblemSpec, lam: float, w: np.ndarray, step: np.ndarray,
                  res_norm: float):
    """(w, F, |F|, plain_full): ``_damped_step`` of the over-relaxed step where
    ``_kernel_ray_scale`` gives one, else (or when that cannot be damped) of the
    plain step, with plain_full true only for the undamped plain step; None
    when neither can be damped."""
    scale = _kernel_ray_scale(spec.p, w, step)
    if scale is not None:
        moved = _damped_step(spec, lam, w, scale * step, res_norm)
        if moved is not None:
            return *moved[:3], False
    moved = _damped_step(spec, lam, w, step, res_norm)
    return None if moved is None else (*moved[:3], moved[3] == 1.0)


def _kernel_ray_scale(p: float, w: np.ndarray, step: np.ndarray) -> float | None:
    """The factor p (1 - kappa) that over-relaxes a Newton step with the
    kernel-ray signature of ``newton_solve`` when kappa < 1 - 1/p, else None."""
    ww, dd, wd = float(w @ w), float(step @ step), float(w @ step)
    if not (wd > (1.0 - _RAY_COS_TOL) * math.sqrt(ww * dd)
            and abs(p * math.sqrt(dd / ww) - 1.0) < _RAY_RATIO_TOL):
        return None
    r = max(1.0 - p * wd / ww, 0.0)
    kappa = max(_RAY_KAPPA_MIN, 2.0 * (p * r / (p - 1.0)) ** (1.0 / (p - 1.0)))
    return p * (1.0 - kappa) if kappa < 1.0 - 1.0 / p else None


def _jacobian_solver(jac: np.ndarray, w: np.ndarray):
    """Solver r -> jac^-1 r, factoring the Fortran-ordered Jacobian in place.

    At a positive solution w, w^T F'(w) w = -(p - 1) G(w) < 0, and for lambda
    in (0, lambda_1) F'(w) has exactly one negative eigenvalue where
    mu_2^+ > p, so ``lifted_cholesky``
    along w / |w|, c = max|diag jac|, factors it there and nearby.  Where the
    lifted matrix is not positive definite (a Morse index of 2 or more),
    LAPACK getrf factors the Jacobian instead.
    """
    solve = lifted_cholesky(jac, w / math.sqrt(w @ w), float(np.abs(jac.diagonal()).max()))
    if solve is None:
        lu, piv = _lu_factor(jac)

        def solve(r):
            return dgetrs(lu, piv, r)[0]

    return solve


def _lu_factor(jac: np.ndarray):
    """LAPACK getrf factors of the Jacobian, overwriting jac (Fortran-ordered, so
    no copy is made); a zero pivot raises SingularJacobian."""
    lu, piv, info = dgetrf(jac, overwrite_a=True)
    if info > 0:
        raise SingularJacobian(f"singular Jacobian: zero pivot in column {info - 1}")
    return lu, piv


def _damped_step(spec: ProblemSpec, lam: float, w: np.ndarray, step: np.ndarray,
                 res_norm: float):
    """(w, F, |F|, alpha) at w - alpha step for the first alpha = 2^-k,
    k < _MAX_DAMPING, that keeps the iterate positive and lowers |F|; None if none does."""
    alpha = 1.0
    for _ in range(_MAX_DAMPING):
        trial = w - alpha * step
        if trial.min() > 0.0:
            trial_res = residual_vector(spec, lam, trial)
            trial_norm = math.sqrt(trial_res @ trial_res)
            if trial_norm < res_norm:
                return trial, trial_res, trial_norm, alpha
        alpha *= 0.5
    return None


def minimize_nehari(spec: ProblemSpec, lam: float) -> SolutionPoint:
    """Local minimizer of J over the N^- part of the Nehari manifold.

    Starts from phi_1(g) and alternates a Barzilai-Borwein step on the free
    gradient of J with the nodewise absolute value and the fibering-map
    projection; terminates when the manifold-tangent gradient norm drops
    below GRAD_TOL.
    """
    w = np.abs(principal_eigenvalue(spec.domain, spec.g).eigenfunction.values)
    try:
        w = nehari_project(spec, lam, w)
    except Exception as exc:
        raise InitNotProjectable(str(exc)) from exc

    grad = residual_vector(spec, lam, w)
    j_val = functionals(spec, lam, w).J
    step = 1.0 / (1.0 + float(np.linalg.norm(grad)))
    # Descent alone stalls in rounding noise near the minimizer, so once the
    # tangent gradient is small a Newton polish on F = grad J finishes the job.
    polish_at = max(GRAD_TOL, 1e-5 * (1.0 + float(np.max(w))) ** spec.p)
    prev_w, prev_grad = None, None
    for _ in range(_MAX_DESCENT):
        tangent = _tangent_gradient(spec, lam, w, grad)
        tangent_norm = float(np.linalg.norm(tangent))
        if tangent_norm < GRAD_TOL:
            return make_point(spec, lam, w)
        if tangent_norm < polish_at and np.min(w) > 0.0:
            try:
                point = newton_solve(spec, lam, w)
            except (LeftPositiveCone, SingularJacobian, MaxIterations):
                polish_at = 0.0  # polish unusable; keep descending
            else:
                if point.positive and point.nehari.membership == "N-minus":
                    return point
                polish_at = 0.0
        if prev_w is not None:
            dw = w - prev_w
            dg = grad - prev_grad
            denom = float(dw @ dg)
            if denom > 0.0:
                step = float(dw @ dw) / denom
            step = min(max(step, 1e-10), 1e4)
        trial_step = step
        for _ in range(60):
            cand = np.abs(w - trial_step * grad)
            diag = functionals(spec, lam, cand)
            if diag.E > 0.0 and diag.G_val > 0.0:
                cand = diag.t_projection * cand
                cand_j = functionals(spec, lam, cand).J
                if cand_j <= j_val + 1e-13 * (1.0 + abs(j_val)):
                    break
            trial_step *= 0.5
        else:
            raise MaxIterations("Nehari backtracking stalled")
        prev_w, prev_grad = w, grad
        w, j_val = cand, cand_j
        grad = residual_vector(spec, lam, w)
    raise MaxIterations("Nehari descent did not reach the gradient tolerance")


def _tangent_gradient(spec: ProblemSpec, lam: float, w: np.ndarray,
                      grad: np.ndarray) -> np.ndarray:
    """Project the free gradient onto the tangent space of the Nehari set."""
    # Constraint c(w) = E(w) - G(w); its gradient is 2*grad + (p-1)-weighted
    # superlinear part, computed directly for robustness.
    q = spec.domain.weights
    h = spec.superlinear_weight
    a = dtn_matrix(spec.domain)
    c_grad = 2.0 * (a @ w - q * lam * spec.g * w) \
        - (spec.p + 1.0) * q * h * np.abs(w) ** (spec.p - 1.0) * w
    denom = float(c_grad @ c_grad)
    if denom == 0.0:
        return grad
    return grad - (float(grad @ c_grad) / denom) * c_grad


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a multi-start nonexistence probe."""

    lam: float
    n_inits: int
    seed: int
    findings: list = field(default_factory=list)  # converged positive SolutionPoints
    failures: dict = field(default_factory=dict)  # failure-mode -> count
    joined: int = 0  # runs that ended on an earlier finding


# Probe runs solve deeper than the default so that iterates collapsing onto
# the trivial solution (degenerate exactly at lambda_1) keep shrinking instead
# of stalling just above the detection threshold.
_PROBE_TOL = 1e-13
_PROBE_MIN_AMPLITUDE = 1e-6
# A new candidate is polished until its Newton step is at most this fraction
# of |w|, in at most _POLISH_STEPS fresh steps.
_POLISH_STEP_TOL = 1e-8
_POLISH_STEPS = 20


def nonexistence_probe(spec: ProblemSpec, lam: float, n_inits: int, seed: int, *,
                       amplitude: float = 2.0) -> ProbeReport:
    """Run Newton from seeded random positive traces; expected empty findings.

    The absolute residual test passes iterates that collapse onto the
    trivial zero once sup^p is small, so each converged trace that is not
    within 1e-6 (1 + sup) of an earlier finding is polished by
    ``_polish_candidate`` and counted as ``collapsed-to-zero`` when the
    polish takes it to ``_PROBE_MIN_AMPLITUDE`` or below.

    Each run is passed the one-solution balls of ``_unique_solution_radius``
    (the simplified Newton map contracts by 1/4 in each) around w = 0 and
    around each finding, and stops on entering one: in the ball about w = 0
    it counts as ``collapsed-to-zero``, in a finding's ball it is ``joined``.
    At lambda_1, where L = Lambda - lambda M_g is singular, the radius about
    w = 0 is 0 and no ball is passed, so that degenerate zero is left to
    the polish.
    Every init is counted once:
    len(findings) + joined + sum(failures.values()) == n_inits.
    """
    rng = np.random.default_rng(seed)
    findings: list[SolutionPoint] = []
    failures: dict[str, int] = {}
    joined = 0
    zero = make_point(spec, lam, np.zeros(spec.domain.m), with_gamma1=False)
    radius = _unique_solution_radius(spec, lam, zero.w)
    balls = [(zero, radius)] if radius > 0.0 else []

    def count(mode: str):
        failures[mode] = failures.get(mode, 0) + 1

    def known(point: SolutionPoint) -> bool:
        radius = 1e-6 * (1.0 + point.sup_norm)
        return any(np.max(np.abs(point.w - f.w)) < radius for f in findings)

    for _ in range(n_inits):
        init = amplitude * rng.uniform(0.05, 1.0, spec.domain.m)
        try:
            point = newton_solve(spec, lam, init, tol=_PROBE_TOL, with_gamma1=False,
                                 known=balls)
            if point.positive and point.sup_norm > _PROBE_MIN_AMPLITUDE:
                if known(point):
                    joined += 1
                    continue
                point = _polish_candidate(spec, lam, point.w)
        except (LeftPositiveCone, SingularJacobian, MaxIterations) as exc:
            count(type(exc).__name__)
            continue
        if not (point.positive and point.sup_norm > _PROBE_MIN_AMPLITUDE):
            count("collapsed-to-zero")
        elif known(point):
            joined += 1
        else:
            findings.append(point)
            balls.append((point, _unique_solution_radius(spec, lam, point.w)))
    return ProbeReport(lam, n_inits, seed, findings, failures, joined)


def _polish_candidate(spec: ProblemSpec, lam: float, w: np.ndarray) -> SolutionPoint:
    """Fresh Newton steps (over-relaxed on the kernel ray, as in ``newton_solve``)
    from a converged trace until the step is at most _POLISH_STEP_TOL |w|.

    At a true solution that takes one or two steps.  An iterate collapsing
    onto the degenerate zero at lambda_1 has the step w/p however small its
    residual, so it shrinks until its sup is at most _PROBE_MIN_AMPLITUDE,
    and that trace is returned.  MaxIterations after _POLISH_STEPS steps;
    the step's own exceptions as in ``newton_solve``, which also end a
    collapse whose residual and Jacobian reach rounding level first (at
    p = 5 near sup 1e-4, where p h w^(p-1) is below eps |Lambda|).
    """
    res = residual_vector(spec, lam, w)
    res_norm = math.sqrt(res @ res)
    for _ in range(_POLISH_STEPS):
        if float(w.max()) <= _PROBE_MIN_AMPLITUDE:
            break
        _, step = _fresh_step(spec, lam, w, res)
        if math.sqrt(step @ step) <= _POLISH_STEP_TOL * math.sqrt(w @ w):
            break
        w, res, res_norm, _ = _fresh_damped_step(spec, lam, w, step, res_norm)
    else:
        if float(w.max()) > _PROBE_MIN_AMPLITUDE:
            raise MaxIterations(f"candidate polish stalled at residual {res_norm}")
    return make_point(spec, lam, w, with_gamma1=False)


def multi_start_solutions(spec: ProblemSpec, lam: float, n_inits: int, seed: int, *,
                          amplitude: float = 2.0) -> list[SolutionPoint]:
    """Distinct positive solutions found by seeded multi-start Newton."""
    return nonexistence_probe(spec, lam, n_inits, seed, amplitude=amplitude).findings
