"""Eigenvalue solvers for the boundary-reduced spectral problems.

Covers the principal eigenvalue lambda_1(g) of the linear Steklov-type
problem, the interior-shifted eigenvalue sigma_1(lambda), the stability
eigenvalue gamma_1(lambda, w) at a solution, and the weighted spectrum
{mu} whose second positive member controls the implicit function theorem
along a solution branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .domain import (
    BoundaryFunction,
    Domain,
    as_values,
    boundary_integral,
    volume_l2_norm_sq,
)
from .dtn import DIRICHLET_GUARD, dtn_matrix, dtn_slope_form, first_dirichlet_eigenvalue
from .errors import (
    EmptyBranch,
    PencilNotPositiveDefinite,
    ResidualAboveTolerance,
    RootNotBracketed,
)

_RESIDUAL_TOL = 1e-8
_S_FLOOR = -1e12  # the sigma_1 / gamma_1 root search gives up below this s
_MAX_ROOT_STEPS = 200  # bisection alone narrows the widest bracket to 1e-14 in 87


@dataclass(frozen=True)
class EigenPair:
    """A solved eigenvalue with its boundary eigenfunction; the solvers raise
    rather than return a residual above _RESIDUAL_TOL * (1 + max|weight|)."""

    value: float
    eigenfunction: BoundaryFunction
    normalization: str  # "H1" | "boundary-L2"
    residual: float


@dataclass(frozen=True)
class MuSpectrum:
    """Real spectrum of the weighted problem at a solution (lambda, w).

    The values come from an eigenvalue-only solve; ``eigenfunctions`` and
    ``principal`` are computed on first read and cached, so a caller that
    reads only mu_2^+ never pays for eigenvectors.
    """

    mu_values: np.ndarray  # ascending
    mu1_minus: float
    mu1_plus: float
    mu2_plus: float  # +inf when absent
    _weights: np.ndarray = field(repr=False, compare=False)  # boundary quadrature
    _pencil: tuple = field(repr=False, compare=False)  # (A, b): A phi = mu diag(b) phi
    # the eigh column of each mu_value; None where the values came from QZ
    _columns: np.ndarray | None = field(repr=False, compare=False)

    @cached_property
    def eigenfunctions(self) -> np.ndarray:
        """Columns aligned with mu_values, boundary-L2 normalized, largest entry positive."""
        a, b = self._pencil
        if self._columns is None:
            funcs = _real_pencil_eigs(a, np.diag(b))[1]
        else:
            funcs = scipy.linalg.eigh(np.diag(b), a)[1][:, self._columns]
        funcs = funcs / np.sqrt(self._weights @ funcs ** 2)
        peaks = funcs[np.argmax(np.abs(funcs), axis=0), np.arange(funcs.shape[1])]
        return np.where(peaks < 0.0, -funcs, funcs)

    @cached_property
    def principal(self) -> np.ndarray:
        """Sign-definite eigenfunction flags, aligned with mu_values."""
        return np.all(self.eigenfunctions > 0.0, axis=0)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def _h1_normalize(domain: Domain, v: np.ndarray) -> np.ndarray:
    a = dtn_matrix(domain)
    norm_sq = volume_l2_norm_sq(domain, v) + float(v @ a @ v)
    return _fix_sign(v / math.sqrt(norm_sq))


def _boundary_l2_normalize(domain: Domain, v: np.ndarray) -> np.ndarray:
    norm = math.sqrt(float(domain.weights @ (v * v)))
    return _fix_sign(v / norm)


def _checked_pair(domain: Domain, value: float, func: np.ndarray, defect: np.ndarray,
                  weight: np.ndarray, normalization: str, label: str) -> EigenPair:
    """EigenPair with residual |defect|; raises if it is non-finite or above the bound."""
    res = float(np.linalg.norm(defect))
    bound = _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(weight))))
    if not res <= bound:
        raise ResidualAboveTolerance(f"{label}: residual {res} above {bound}")
    return EigenPair(float(value), BoundaryFunction(domain, func), normalization, res)


def _real_pencil_eigs(a: np.ndarray, b: np.ndarray):
    """Finite real eigenpairs of a v = mu b v via QZ, ascending by mu."""
    vals, vecs = scipy.linalg.eig(a, b)
    scale = max(1.0, float(np.max(np.abs(vals[np.isfinite(vals)]).real, initial=1.0)))
    keep = np.isfinite(vals) & (np.abs(vals.imag) <= 1e-9 * scale)
    mus = vals[keep].real
    funcs = vecs[:, keep].real
    order = np.argsort(mus)
    return mus[order], funcs[:, order]


def nonnegative_integral(domain: Domain, g) -> bool:
    """Whether int g >= 0 up to round-off relative to int |g|."""
    gv = as_values(domain, g)
    return boundary_integral(domain, gv) >= -1e-12 * boundary_integral(domain, np.abs(gv))


def principal_eigenvalue(domain: Domain, g) -> EigenPair:
    """Positive principal eigenvalue lambda_1(g) of Lambda phi = lambda M_g phi.

    (0, constant) when the boundary integral of g is nonnegative.  Otherwise
    the positive root of beta_0(lambda), the smallest eigenvalue of
    (Lambda - lambda M_g)/q: concave, beta_0(0) = 0 < beta_0'(0) = -mean(g).
    Newton (slope -sum g v^2, v the unit eigenvector) descends to it from the
    Rayleigh bound of the indicator of {g > 0}, where beta_0 <= 0.  beta_0 is
    v's Rayleigh quotient, with Lambda's form on v - v_0 where that is exact
    (Lambda annihilates constants): eigh's eigenvalue, or the form of a nearly
    constant v, errs by eps |Lambda|, moving the root by eps |Lambda| / mean(g)^2.
    No positive entry in g, or a root eigenvector that changes sign, raises.
    """
    gv = as_values(domain, g)
    if nonnegative_integral(domain, gv):
        const = np.ones(domain.m)
        func = _h1_normalize(domain, const)
        return EigenPair(0.0, BoundaryFunction(domain, func), "H1", 0.0)
    phi = (gv > 0.0).astype(float)
    if not phi.any():
        raise RootNotBracketed("lambda1: g has no positive entry")
    lap, q = dtn_matrix(domain), domain.weights[0]
    bound = float(phi @ lap @ phi) / (q * float(gv @ phi))

    def evaluate(lam):
        vec = _beta_smallest(domain, 0.0, lam * gv)[1]
        w = vec - vec[0]  # exact (Sterbenz) where v is within a factor 2 of v_0
        if not np.all(np.abs(w) <= 0.5 * abs(vec[0])):
            w = vec
        gvv = float(gv @ vec ** 2)
        return float(w @ lap @ w) / q - lam * gvv, -gvv, vec

    lam, vec = _newton_root(evaluate, bound, 0.0, bound, "lambda1")
    func = _h1_normalize(domain, vec)
    if not np.all(func > 0.0):
        raise RootNotBracketed(f"lambda1: the eigenvector at {lam} changes sign")
    defect = lap @ func - domain.weights * lam * gv * func
    return _checked_pair(domain, lam, func, defect, lam * gv, "H1", "lambda1")


def _beta_smallest(domain: Domain, s: float,
                   boundary_weight: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest generalized eigenvalue of (DtN_s - Q diag(w)) with respect to Q."""
    mat = dtn_matrix(domain, s) - np.diag(domain.weights * boundary_weight)
    # Q = c * I on both domains, so the generalized problem is a plain eigh.
    vals, vecs = scipy.linalg.eigh(mat / domain.weights[0], subset_by_index=[0, 0])
    return float(vals[0]), vecs[:, 0]


def _newton_root(evaluate, x: float, lo: float, hi: float, label: str):
    """Root in [lo, hi] of f, positive below it and negative above, and the
    vector of the last evaluation; ``evaluate(x)`` gives (f(x), f'(x), vector).

    Newton's method from x, kept in a sign-change bracket (rtsafe, Numerical
    Recipes 9.4): an iterate outside it is replaced by its midpoint, and a
    step that fails to halve the one before is doubled, past the predicted
    root (Newton has met f's round-off, about 1.5e-14 in s for beta at
    m = 128, or converges slowly), so the bracket closes in from both sides.
    Until f has been seen positive (negative), an iterate beyond lo (hi)
    evaluates that end; f <= 0 at lo, f > 0 at hi, or a non-finite value or
    slope raises, so no end is returned.
    """
    lo_seen = hi_seen = False  # f(lo) > 0, f(hi) < 0 evaluated
    last_step = math.inf
    for _ in range(_MAX_ROOT_STEPS):
        f, slope, vec = evaluate(x)
        if not (math.isfinite(f) and math.isfinite(slope)):
            raise RootNotBracketed(f"{label}: non-finite value {f} or slope {slope} at {x}")
        if f > 0.0:
            if x == hi:
                raise RootNotBracketed(f"{label}: no sign change below {x}")
            lo, lo_seen = x, True
        else:
            if x == lo:
                raise RootNotBracketed(f"{label}: no sign change above {x}")
            if f == 0.0:
                break
            hi, hi_seen = x, True
        step = f / slope if slope < 0.0 else (x - hi if f > 0.0 else x - lo)
        tol = 1e-14 + 4.0 * np.finfo(float).eps * abs(x)  # brentq's xtol and rtol
        if abs(step) <= tol:
            break
        new = x - step
        if not (lo_seen and hi_seen):
            new = min(max(new, lo), hi)
        elif lo < new < hi and abs(step) > 0.5 * abs(last_step):
            new = x - 2.0 * step
        if lo_seen and hi_seen and not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - x) <= tol:
            break
        x, last_step = new, new - x
    else:
        raise RootNotBracketed(f"{label}: no convergence in {_MAX_ROOT_STEPS} steps")
    return x, vec


def _shifted_root(domain: Domain, weight: np.ndarray, shift: float, label: str) -> EigenPair:
    """Root s of beta(s) - shift * s, beta(s) the smallest eigenvalue of DtN_s - M_weight
    (decreasing in s, slope v.L'_s v / v.v), and its boundary-L2 eigenfunction."""
    def evaluate(s):
        beta, vec = _beta_smallest(domain, s, weight)
        return beta - shift * s, dtn_slope_form(domain, s, vec) / float(vec @ vec) - shift, vec

    s_max = first_dirichlet_eigenvalue(domain) - 2 * DIRICHLET_GUARD
    s, vec = _newton_root(evaluate, 0.0, _S_FLOOR, s_max, label)
    func = _boundary_l2_normalize(domain, vec)
    shifted = weight + shift * s
    defect = dtn_matrix(domain, s) @ func - domain.weights * shifted * func
    return _checked_pair(domain, s, func, defect, shifted, "boundary-L2", label)


def sigma1(domain: Domain, g, lam: float) -> EigenPair:
    """Smallest eigenvalue sigma_1(lambda) of the interior-shifted problem.

    Found as the root of s -> smallest eigenvalue of (DtN_s - lambda M_g),
    which is strictly decreasing in s.
    """
    return _shifted_root(domain, lam * as_values(domain, g), 0.0, "sigma1")


def gamma1(domain: Domain, g, lam: float, w, p: float, h=None) -> EigenPair:
    """Stability eigenvalue gamma_1 of the linearization at a solution w.

    Root of gamma -> smallest eigenvalue of the pencil
    (DtN_gamma - M_{lambda g + p h w^(p-1)} - gamma Q) with respect to Q,
    where h defaults to g (h = f for the f-variant).
    """
    gv = as_values(domain, g)
    wv = as_values(domain, w)
    hv = gv if h is None else as_values(domain, h)
    weight = lam * gv + p * hv * np.abs(wv) ** (p - 1.0)
    return _shifted_root(domain, weight, 1.0, "gamma1")


def weighted_steklov_spectrum(domain: Domain, g, lam: float, w, p: float) -> MuSpectrum:
    """All real eigenvalues mu of (Lambda - lambda M_g) phi = mu M_{g w^(p-1)} phi.

    For lambda in (0, lambda_1(g)) the left side A is positive definite, and
    the values are nu = 1/mu of the symmetric-definite pencil (M_{g w^(p-1)}, A),
    from one eigenvalue-only Cholesky-reduced ``eigh`` (Golub & Van Loan 8.7);
    the eigenfunctions are one more ``eigh``, with vectors, on first read.
    At lambda = 0, A is only semidefinite (kernel = constants) and QZ is used
    instead.  A failed Cholesky factorization of A falls back on A's smallest
    eigenvalue: below -1e-10 * scale raises, within the round-off window
    around 0 QZ is used as well.  mu = 1 is always present at a solution,
    with eigenfunction w.
    """
    gv = as_values(domain, g)
    wv = as_values(domain, w)
    a = dtn_matrix(domain) - np.diag(domain.weights * lam * gv)
    b = domain.weights * gv * np.abs(wv) ** (p - 1.0)  # diagonal of M_{g w^(p-1)}
    nus = None
    if lam != 0.0:
        try:
            nus = scipy.linalg.eigh(np.diag(b), a, eigvals_only=True)
        except np.linalg.LinAlgError:  # A not numerically positive definite
            evals = np.linalg.eigvalsh(a)
            scale = max(abs(evals[0]), abs(evals[-1]), 1.0)
            if evals[0] < -1e-10 * scale:
                raise PencilNotPositiveDefinite(
                    f"Lambda - lambda M_g has eigenvalue {evals[0]}; lambda outside (0, lambda_1)"
                ) from None
    if nus is not None:
        keep = np.flatnonzero(np.abs(nus) > 1e-12)
        order = np.argsort(1.0 / nus[keep])
        columns = keep[order]  # eigh sorts nu alike with or without vectors
        mus = 1.0 / nus[columns]
    else:
        mus, columns = _real_pencil_eigs(a, np.diag(b))[0], None
    positive = mus[mus > 1e-12]
    mu1_plus = float(positive[0]) if len(positive) else math.nan
    mu2_plus = float(positive[1]) if len(positive) >= 2 else math.inf
    nonpos = mus[mus <= 1e-12]
    mu1_minus = float(nonpos[-1]) if len(nonpos) else math.nan
    return MuSpectrum(mus, mu1_minus, mu1_plus, mu2_plus, domain.weights, (a, b), columns)


def m_delta(domain: Domain, g, p: float, branch) -> float:
    """Minimum of mu_2^+ over branch samples with lambda in [0, lambda_1(g)).

    Discrete surrogate of the infimum defining m_delta; +inf when the
    second positive eigenvalue is absent everywhere (e.g. the interval).
    """
    points = getattr(branch, "points", branch)
    if not points:
        raise EmptyBranch("m_delta needs at least one branch sample")
    lam1 = principal_eigenvalue(domain, g).value
    best = math.inf
    seen = False
    for pt in points:
        if not 0.0 <= pt.lam < lam1:
            continue
        seen = True
        spec = weighted_steklov_spectrum(domain, g, pt.lam, pt.w, p)
        best = min(best, spec.mu2_plus)
    if not seen:
        raise EmptyBranch("no branch sample with lambda in [0, lambda_1)")
    return best
