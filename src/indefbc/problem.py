"""Problem descriptions, energy functionals, and Nehari diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .domain import Domain, as_values, boundary_integral
from .dtn import dtn_matrix
from .errors import NonpositiveEOrG, ShapeMismatch

W_FORM = "w-form"
F_FORM = "f-form"
LOGISTIC = "logistic"

FORMS = (W_FORM, F_FORM, LOGISTIC)


@dataclass(frozen=True)
class ProblemSpec:
    """A boundary-reduced problem instance.

    ``g`` is the linear indefinite weight; ``f`` weights the superlinear
    term under the f-form, which needs it, and no other form accepts it.
    The logistic form fixes p = 2 and stores g = -r.
    """

    domain: Domain
    p: float
    g: np.ndarray = field(repr=False)
    f: Optional[np.ndarray] = field(default=None, repr=False)
    form: str = W_FORM

    def __post_init__(self):
        if self.form not in FORMS:
            raise ShapeMismatch(f"unknown problem form {self.form!r}")
        if not self.p > 1.0:
            raise ShapeMismatch(f"exponent p={self.p} must exceed 1")
        if self.form == LOGISTIC and self.p != 2.0:
            raise ShapeMismatch("logistic form fixes p = 2")
        if (self.f is None) == (self.form == F_FORM):
            raise ShapeMismatch(f"{F_FORM} needs the weight f and no other form takes one "
                                f"(form {self.form!r})")
        object.__setattr__(self, "g", as_values(self.domain, self.g))
        if self.f is not None:
            object.__setattr__(self, "f", as_values(self.domain, self.f))

    @property
    def superlinear_weight(self) -> np.ndarray:
        """Weight in front of w^p: f for the f-form, g otherwise."""
        return self.f if self.form == F_FORM else self.g


def logistic_spec(domain: Domain, r) -> ProblemSpec:
    """Logistic problem for u = 1 + v, reduced to the w-form with g = -r."""
    rv = as_values(domain, r)
    return ProblemSpec(domain, 2.0, -rv, None, LOGISTIC)


@dataclass(frozen=True)
class NehariDiagnostics:
    """Functional values and Nehari-manifold classification at (lambda, w)."""

    E: float
    G_val: float
    J: float
    t_projection: float
    membership: str  # "N-minus" | "N-plus" | "N-zero" | "off-manifold"


def functionals(spec: ProblemSpec, lam: float, w) -> NehariDiagnostics:
    """Energy E, superlinear term G, and J = E/2 - G/(p+1) at a trace."""
    wv = as_values(spec.domain, w)
    if not np.any(wv):
        return NehariDiagnostics(0.0, 0.0, 0.0, math.nan, "off-manifold")
    a = dtn_matrix(spec.domain)
    p = spec.p
    e = float(wv @ a @ wv) - lam * boundary_integral(spec.domain, spec.g * wv * wv)
    g_val = boundary_integral(spec.domain, spec.superlinear_weight * np.abs(wv) ** (p + 1.0))
    j = 0.5 * e - g_val / (p + 1.0)
    if e > 0.0 and g_val > 0.0:
        t0 = (e / g_val) ** (1.0 / (p - 1.0))
    else:
        t0 = math.nan
    if abs(e - g_val) <= 1e-8 * (1.0 + abs(e)):
        second = (1.0 - p) * e  # j''(1) sign on the manifold
        if second < 0.0:
            membership = "N-minus"
        elif second > 0.0:
            membership = "N-plus"
        else:
            membership = "N-zero"
    else:
        membership = "off-manifold"
    return NehariDiagnostics(e, g_val, j, t0, membership)


def nehari_project(spec: ProblemSpec, lam: float, w) -> np.ndarray:
    """Scale w onto the Nehari manifold at the fibering-map maximum t0."""
    wv = as_values(spec.domain, w)
    diag = functionals(spec, lam, wv)
    if not (diag.E > 0.0 and diag.G_val > 0.0):
        raise NonpositiveEOrG(
            f"projection needs E > 0 and G > 0, got E={diag.E}, G={diag.G_val}"
        )
    return diag.t_projection * wv


def residual_vector(spec: ProblemSpec, lam: float, w) -> np.ndarray:
    """Boundary-reduced residual F(w) = Lambda w - Q (lambda g w + h |w|^(p-1) w),
    the Euclidean gradient of J."""
    wv = as_values(spec.domain, w)
    a = dtn_matrix(spec.domain)
    h = spec.superlinear_weight
    q = spec.domain.weights
    return a @ wv - q * (lam * spec.g * wv + h * np.abs(wv) ** (spec.p - 1.0) * wv)


def jacobian_diagonal(spec: ProblemSpec, lam: float, w) -> np.ndarray:
    """d with F'(w) = Lambda - diag(d): d = Q (lambda g + p h |w|^(p-1))."""
    wv = as_values(spec.domain, w)
    h = spec.superlinear_weight
    return spec.domain.weights * (lam * spec.g + spec.p * h * np.abs(wv) ** (spec.p - 1.0))


def residual_jacobian(spec: ProblemSpec, lam: float, w) -> np.ndarray:
    """F'(w) = Lambda - diag(d) in Fortran order, so LAPACK factors it in place.

    Lambda is symmetric to the bit, so its transpose view is Lambda in
    Fortran order; one copy of it takes d off the diagonal (every
    (m+1)-th entry of the flat buffer) in place.
    """
    jac = dtn_matrix(spec.domain).T.copy(order="K")
    jac.ravel(order="K")[:: len(jac) + 1] -= jacobian_diagonal(spec, lam, w)
    return jac


def conservation_defect(spec: ProblemSpec, lam: float, w) -> float:
    """Divergence-theorem identity: the boundary integral of the flux density."""
    wv = as_values(spec.domain, w)
    h = spec.superlinear_weight
    density = lam * spec.g * wv + h * np.abs(wv) ** (spec.p - 1.0) * wv
    return boundary_integral(spec.domain, density)


@dataclass(frozen=True)
class SolutionPoint:
    """A solved (lambda, w) pair with stability and manifold diagnostics."""

    lam: float
    w: np.ndarray = field(repr=False)
    residual: float
    gamma1: float
    nehari: NehariDiagnostics
    sup_norm: float
    positive: bool
    # gamma_1's boundary-L2 eigenfunction values, None without gamma_1
    gamma1_eigenfunction: np.ndarray | None = field(default=None, repr=False, compare=False)
