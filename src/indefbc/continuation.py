"""Pseudo-arclength continuation of positive-solution branches.

Branches bifurcate from the trivial line at (lambda_1(g), 0) with tangent
phi_1(g), run subcritically toward lambda = 0, and are extended slightly
past it.  Each accepted point carries stability (gamma_1) and Nehari
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import as_values, boundary_integral
from .dtn import dtn_matrix
from .errors import (
    CorrectorDivergence,
    EmptyBranch,
    LeftPositiveCone,
    MaxIterations,
    NonpositiveLambdaPoint,
    RootNotBracketed,
    SingularJacobian,
    UNotAboveOne,
)
from .problem import (
    ProblemSpec,
    SolutionPoint,
    residual_jacobian,
    residual_vector,
)
from .solve import NEWTON_TOL, _jacobian_solver, make_point, newton_solve
from .spectral import principal_eigenvalue


# Step controls: the first seed's amplitude gives lambda_1 - lambda = EPS_FACTOR *
# lambda_1; seeding switches to arclength once sup reaches SEED_TARGET; the
# arclength step starts at DS_INIT and stays in [DS_MIN, DS_MAX]; the trace stops below LAM_FLOOR_FACTOR * lambda_1, past SUP_CEILING or at
# MAX_POINTS points.
EPS_FACTOR = 1e-4
SEED_TARGET = 1e-2
DS_INIT = 0.02
DS_MIN = 1e-10
DS_MAX = 0.2
LAM_FLOOR_FACTOR = -0.05
SUP_CEILING = 1e6
MAX_POINTS = 400


@dataclass(frozen=True)
class Branch:
    """Ordered solution points along arclength from the bifurcation point."""

    spec: ProblemSpec
    points: list
    bifurcation_lambda: float
    tangent: np.ndarray = field(repr=False)  # phi_1(g), H1-normalized
    # why continue_branch stopped: "lam-floor" (past LAM_FLOOR_FACTOR * lambda_1),
    # "blow-up" (past SUP_CEILING), "step-underflow" (no step of at least DS_MIN
    # accepted) or "max-points"; None for a Branch built by hand
    termination: str | None = None

    @property
    def lam_range(self) -> tuple[float, float]:
        lams = [p.lam for p in self.points]
        return (min(lams), max(lams))

    def at_lambda(self, lam: float, *, with_gamma1: bool = True) -> SolutionPoint:
        """Solution at a prescribed lambda, corrected from the nearest point."""
        if not self.points:
            raise EmptyBranch("branch has no points")
        nearest = min(self.points, key=lambda p: abs(p.lam - lam))
        return newton_solve(self.spec, lam, nearest.w, with_gamma1=with_gamma1)


def _weighted_dot(m: int, dw1, dl1, dw2, dl2) -> float:
    return float(dw1 @ dw2) / m + dl1 * dl2


def _bordered_step(spec: ProblemSpec, lam: float, w: np.ndarray, f: np.ndarray, n: float,
                   t_w: np.ndarray, t_lam: float):
    """(dw, dl) solving [J, F_lam; t_w^T / m, t_lam] [dw; dl] = [f; n], with
    J = F'(w) and F_lam = -Q g w, by block elimination (Keller 1977) on the
    factors of J that ``solve._jacobian_solver`` makes: with a = J^-1 f and
    b = J^-1 F_lam, dl = (n - t_w.a / m) / (t_lam - t_w.b / m) and
    dw = a - dl b.  CorrectorDivergence when J is singular or the step is
    not finite.
    """
    m = spec.domain.m
    try:
        solve = _jacobian_solver(residual_jacobian(spec, lam, w), w)
    except SingularJacobian as exc:
        raise CorrectorDivergence(str(exc)) from exc
    a = solve(f)
    b = solve(-spec.domain.weights * spec.g * w)
    dl = (n - t_w @ a / m) / (t_lam - t_w @ b / m)
    dw = a - dl * b
    if not (math.isfinite(dl) and np.isfinite(dw).all()):
        raise CorrectorDivergence("non-finite corrector step")
    return dw, dl


def _corrector(spec: ProblemSpec, w, lam, w_pred, lam_pred, t_w, t_lam):
    """Newton on the residual augmented with the arclength hyperplane: bordered
    steps until |F| passes Newton's tolerance and the hyperplane defect 1e-12 (1 + sup)."""
    m = spec.domain.m
    wv = np.asarray(w, dtype=float).copy()
    lv = float(lam)
    for _ in range(25):
        f = residual_vector(spec, lv, wv)
        n = _weighted_dot(m, wv - w_pred, lv - lam_pred, t_w, t_lam)
        sup = float(np.max(np.abs(wv)))
        if np.linalg.norm(f) < NEWTON_TOL * (1.0 + sup ** spec.p) and abs(n) < 1e-12 * (1.0 + sup):
            return wv, lv
        dw, dl = _bordered_step(spec, lv, wv, f, n, t_w, t_lam)
        wv -= dw
        lv -= dl
    raise CorrectorDivergence("corrector did not converge")


def _seed_points(spec: ProblemSpec, lam1: float, phi1: np.ndarray, with_gamma1: bool):
    """Two corrected points just below the bifurcation, at trial amplitudes.

    The local slope of the bifurcating curve is read off the projection of
    the residual on phi_1: lambda_1 - lambda = eps^(p-1) * slope.
    """
    p = spec.p
    num = boundary_integral(spec.domain, spec.superlinear_weight * phi1 ** (p + 1.0))
    den = boundary_integral(spec.domain, spec.g * phi1 * phi1)
    if num <= 0.0 or den <= 0.0:
        raise RootNotBracketed(
            "bifurcation slope not subcritical: needs G(phi_1) > 0 and int g phi_1^2 > 0"
        )
    slope = num / den
    target_dl = EPS_FACTOR * lam1
    eps = (target_dl / slope) ** (1.0 / (p - 1.0))
    # amplitude ladder: near the bifurcation the arclength corrector can
    # fall back onto the trivial line, so ride the local expansion
    # lambda = lambda_1 - slope * eps^(p-1) at doubling amplitudes until
    # the iterate reaches a macroscopic scale
    seeds = []
    amp = eps
    for _ in range(min(60, MAX_POINTS)):
        dl = slope * amp ** (p - 1.0)
        lam = lam1 - dl
        if lam < 0.5 * lam1:
            break
        try:
            point = newton_solve(spec, lam, amp * phi1, with_gamma1=with_gamma1)
        except (LeftPositiveCone, SingularJacobian, MaxIterations):
            point = None
        if point is None or point.sup_norm < 0.25 * amp * float(np.max(phi1)):
            # collapsed toward the trivial line or diverged; the Newton
            # basin can be too small at the lowest amplitudes, so keep
            # climbing until a rung fails after seeds were found
            if seeds:
                break
            amp *= 2.0
            continue
        seeds.append(point)
        if len(seeds) >= 2 and point.sup_norm >= SEED_TARGET:
            break
        amp *= 2.0
    if len(seeds) < 2:
        raise CorrectorDivergence("could not seed the branch near the bifurcation")
    return seeds


def continue_branch(spec: ProblemSpec, *, with_gamma1: bool = True) -> Branch:
    """Trace the positive-solution branch from (lambda_1(g), 0).

    Secant predictor / Newton corrector with an arclength step in
    [DS_MIN, DS_MAX]; the scalar parameter is weighted 1 and the trace
    1/sqrt(M).  Stops past lambda = LAM_FLOOR_FACTOR * lambda_1, past
    SUP_CEILING, when no step of at least DS_MIN is accepted or at
    MAX_POINTS; ``Branch.termination`` says which.  Points carry gamma_1
    only with ``with_gamma1``.
    """
    domain = spec.domain
    m = domain.m
    pe = principal_eigenvalue(domain, spec.g)
    lam1, phi1 = pe.value, pe.eigenfunction.values
    if lam1 <= 0.0:
        raise RootNotBracketed("no positive principal eigenvalue to bifurcate from")

    seeds = _seed_points(spec, lam1, phi1, with_gamma1)
    points = list(seeds)
    lam_floor = LAM_FLOOR_FACTOR * lam1

    ds = DS_INIT
    termination = "max-points"
    while len(points) < MAX_POINTS:
        prev, cur = points[-2], points[-1]
        dw = cur.w - prev.w
        dl = cur.lam - prev.lam
        norm = math.sqrt(_weighted_dot(m, dw, dl, dw, dl))
        if norm == 0.0:
            termination = "step-underflow"  # no secant direction to step along
            break
        t_w, t_lam = dw / norm, dl / norm
        accepted = None
        while ds >= DS_MIN:
            w_pred = cur.w + ds * t_w
            lam_pred = cur.lam + ds * t_lam
            try:
                wv, lv = _corrector(spec, w_pred, lam_pred, w_pred, lam_pred, t_w, t_lam)
            except CorrectorDivergence:
                ds *= 0.5
                continue
            if np.min(wv) <= 0.0:
                ds *= 0.5
                continue
            if float(np.max(wv)) < 0.3 * cur.sup_norm:
                # corrector fell toward the trivial line; shorten the step
                ds *= 0.5
                continue
            accepted = (wv, lv)
            break
        if accepted is None:
            termination = "step-underflow"
            break
        wv, lv = accepted
        points.append(make_point(spec, lv, wv, with_gamma1=with_gamma1, warm=cur))
        ds = min(ds * 1.3, DS_MAX)
        if lv < lam_floor:
            termination = "lam-floor"
            break
        if points[-1].sup_norm > SUP_CEILING:
            termination = "blow-up"
            break

    return Branch(spec, points, lam1, phi1, termination)


@dataclass(frozen=True)
class TransformedPoint:
    """A branch point mapped to the original (sppr or logistic) variables."""

    lam: float
    trace: np.ndarray = field(repr=False)
    residual: float
    sup_norm: float


def to_sppr(branch: Branch) -> list:
    """Map w-branch points to v = lambda^(-1/(p-1)) w solving the sppr form."""
    spec = branch.spec
    p = spec.p
    out = []
    for point in branch.points:
        if point.lam <= 0.0:
            raise NonpositiveLambdaPoint(f"lambda={point.lam} not positive")
        v = point.lam ** (-1.0 / (p - 1.0)) * point.w
        # sppr residual: Lambda v - Q lambda (g v + h v^p), h the superlinear weight
        density = point.lam * (spec.g * v + spec.superlinear_weight * np.abs(v) ** (p - 1.0) * v)
        res = dtn_matrix(spec.domain) @ v - spec.domain.weights * density
        out.append(TransformedPoint(point.lam, v, float(np.linalg.norm(res)),
                                    float(np.max(np.abs(v)))))
    return out


def to_logistic(branch: Branch, r) -> list:
    """Map w-branch points (g = -r, p = 2) to u = 1 + w / lambda solving the
    logistic problem."""
    spec = branch.spec
    rv = as_values(spec.domain, r)
    if spec.p != 2.0 or np.max(np.abs(spec.g + rv)) > 1e-12:
        raise UNotAboveOne("branch must be solved with g = -r and p = 2")
    out = []
    for point in branch.points:
        if point.lam <= 0.0:
            raise NonpositiveLambdaPoint(f"lambda={point.lam} not positive")
        u = 1.0 + point.w / point.lam
        if np.min(u) <= 1.0:
            raise UNotAboveOne("transformed state not strictly above one")
        density = point.lam * rv * u * (1.0 - u)
        res = dtn_matrix(spec.domain) @ u - spec.domain.weights * density
        out.append(TransformedPoint(point.lam, u, float(np.linalg.norm(res)),
                                    float(np.max(np.abs(u)))))
    return out
