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
from scipy.linalg import blas, lapack

from .domain import (
    BoundaryFunction,
    Domain,
    as_values,
    boundary_integral,
    volume_l2_norm_sq,
)
from .dtn import DIRICHLET_GUARD, dtn_basis, dtn_matrix, dtn_symbol, first_dirichlet_eigenvalue
from .errors import (
    EmptyBranch,
    PencilNotPositiveDefinite,
    ResidualAboveTolerance,
    RootNotBracketed,
)

_RESIDUAL_TOL = 1e-8
_S_FLOOR = -1e12  # the sigma_1 / gamma_1 root search gives up below this s
_MAX_ROOT_STEPS = 200  # bisection alone narrows the widest bracket to 1e-14 in 87
_EPS = float(np.finfo(float).eps)
# (1, w) is deflated from the mu-pencil when |A w - B w| <= _DEFLATE_RTOL |B w|; an
# error e in w moves the deflated mu_2^+ by O(|e|^2) only, as the exact B w is
# orthogonal to the other eigenvectors (branch seed points next to lambda_1 reach
# 1.6e-6, and their mu_2^+ stayed within 1e-15 of a 40-digit reference).
_DEFLATE_RTOL = 1e-5
# The certified eigen-step factors h - tau I with tau = rho + _SHIFT_GAP max|h|, rho
# the warm guess's Rayleigh quotient, and inverse-iterates at most _INVERSE_STEPS times
# (each iteration about a fifth of the lifted factorization's cost at m = 128, an eigh
# fallback about ten factorizations).
_SHIFT_GAP = 1e-8
_INVERSE_STEPS = 8


@dataclass(frozen=True)
class EigenPair:
    """A solved eigenvalue with its boundary eigenfunction; the solvers raise
    rather than return a residual above _RESIDUAL_TOL * (1 + max|weight|)."""

    value: float
    eigenfunction: BoundaryFunction
    residual: float


@dataclass(frozen=True)
class MuSpectrum:
    """Real spectrum of the weighted problem at a solution (lambda, w).

    ``mu2_plus`` comes with the call, and from the deflated root with its
    eigenvector ``mu2_vector``, the next call's ``guess``.  The whole spectrum
    (``mu_values``, ``mu1_minus``, ``mu1_plus``) with its ``eigenfunctions``
    comes from one QZ of the pencil, values and vectors together, run by the
    call where mu_2^+ needs it and otherwise on first read, and cached, so a
    caller that reads only the deflated mu_2^+ never pays for it.
    """

    mu2_plus: float  # +inf when absent
    mu2_vector: np.ndarray | None = field(repr=False, compare=False)  # None when not computed
    _weights: np.ndarray = field(repr=False, compare=False)  # boundary quadrature
    _pencil: tuple = field(repr=False, compare=False)  # (A, b): A phi = mu diag(b) phi
    # the pencil's QZ (mu_values, vector columns) when the call ran it
    _solved: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def _spectrum(self) -> tuple:
        if self._solved is not None:
            return self._solved
        a, b = self._pencil
        return _real_pencil_eigs(a, np.diag(b))

    @property
    def mu_values(self) -> np.ndarray:
        """All real mu, ascending."""
        return self._spectrum[0]

    @cached_property
    def mu1_plus(self) -> float:
        positive = self.mu_values[self.mu_values > 1e-12]
        return float(positive[0]) if len(positive) else math.nan

    @cached_property
    def mu1_minus(self) -> float:
        nonpos = self.mu_values[self.mu_values <= 1e-12]
        return float(nonpos[-1]) if len(nonpos) else math.nan

    @cached_property
    def eigenfunctions(self) -> np.ndarray:
        """Columns aligned with mu_values, boundary-L2 normalized, largest entry positive."""
        funcs = self._spectrum[1]
        funcs = funcs / np.sqrt(self._weights @ funcs ** 2)
        peaks = funcs[np.argmax(np.abs(funcs), axis=0), np.arange(funcs.shape[1])]
        return np.where(peaks < 0.0, -funcs, funcs)


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
                  weight: np.ndarray, label: str) -> EigenPair:
    """EigenPair with residual |defect|; raises if it is non-finite or above the bound."""
    res = float(np.linalg.norm(defect))
    bound = _RESIDUAL_TOL * (1.0 + float(np.max(np.abs(weight))))
    if not res <= bound:
        raise ResidualAboveTolerance(f"{label}: residual {res} above {bound}")
    return EigenPair(float(value), BoundaryFunction(domain, func), res)


def _real_finite(vals: np.ndarray) -> np.ndarray:
    """Mask of the finite, numerically real entries of a QZ spectrum."""
    scale = max(1.0, float(np.max(np.abs(vals[np.isfinite(vals)]).real, initial=1.0)))
    return np.isfinite(vals) & (np.abs(vals.imag) <= 1e-9 * scale)


def _real_pencil_eigs(a: np.ndarray, b: np.ndarray):
    """Finite real eigenpairs of a v = mu b v via QZ, ascending by mu."""
    vals, vecs = scipy.linalg.eig(a, b)
    keep = _real_finite(vals)
    mus = vals[keep].real
    funcs = vecs[:, keep].real
    order = np.argsort(mus)
    return mus[order], funcs[:, order]


def nonnegative_integral(domain: Domain, g) -> bool:
    """Whether int g >= 0 up to round-off relative to int |g|."""
    gv = as_values(domain, g)
    return boundary_integral(domain, gv) >= -1e-12 * boundary_integral(domain, np.abs(gv))


def near_lambda1(lam: float, lam1: float) -> bool:
    """Whether lam is lambda_1 within the root finder's tolerance, so a grid
    point placed at the exact lambda_1 counts as lambda_1 whichever way the
    computed value rounds."""
    return abs(lam - lam1) <= _root_tol(lam1)


def principal_eigenvalue(domain: Domain, g) -> EigenPair:
    """Positive principal eigenvalue lambda_1(g) of Lambda phi = lambda M_g phi.

    (0, constant) when the boundary integral of g is nonnegative.  Otherwise,
    on the interval as on the disk, the positive root of beta_0(lambda), the
    smallest eigenvalue of (Lambda - lambda M_g)/q: concave,
    beta_0(0) = 0 < beta_0'(0) = -mean(g).  Newton (slope -sum g v^2,
    v the unit eigenvector) descends to it from the Rayleigh bound of the
    indicator of {g > 0}, where beta_0 <= 0; the first evaluation is an
    ``eigh``, each later one a certified eigen-step warm from the last v
    (7 evaluations per root on the benchmark's disk weights at m = 128, the
    second of them 7 or 8 inverse iterations).  beta_0 is v's Rayleigh quotient,
    with Lambda's form on v - v_0 where that is exact (Lambda annihilates
    constants): the eigen-step's eigenvalue, or the form of a nearly constant
    v, errs by eps |Lambda|, moving the root by eps |Lambda| / mean(g)^2.
    No positive entry in g, or a root eigenvector that changes sign, raises.
    """
    gv = as_values(domain, g)
    if nonnegative_integral(domain, gv):
        const = np.ones(domain.m)
        func = _h1_normalize(domain, const)
        return EigenPair(0.0, BoundaryFunction(domain, func), 0.0)
    phi = (gv > 0.0).astype(float)
    if not phi.any():
        raise RootNotBracketed("lambda1: g has no positive entry")
    lap, q = dtn_matrix(domain), domain.weights[0]
    bound = float(phi @ lap @ phi) / (q * float(gv @ phi))
    vec = None

    def evaluate(lam):
        nonlocal vec
        vec = _smallest_eigenpair((lap - np.diag(domain.weights * lam * gv)) / q, vec)[1]
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
    return _checked_pair(domain, lam, func, defect, lam * gv, "lambda1")


def lifted_cholesky(a: np.ndarray, u: np.ndarray, c: float):
    """Solver r -> a^-1 r from one Cholesky factorization of a + c u u^T, or None.

    ``a`` is symmetric and Fortran-ordered, ``u`` a unit vector and c >= 0.
    BLAS dsyr lifts a's lower triangle by c u u^T in place, and dpotrf factors
    it there, a + c u u^T = L L^T, leaving the strict upper triangle, which
    neither reads, as it was.  A success certifies that a has at most one
    eigenvalue <= 0, since by Cauchy interlacing lambda_2(a) >= lambda_1(L L^T)
    > 0 (Parlett, The Symmetric Eigenvalue Problem); a failure (the lifted
    matrix not numerically positive definite) rebuilds a from that triangle
    and returns None.  With v = L^-1 u, a = L (I - c v v^T) L^T, and
    Sherman-Morrison (Golub & Van Loan 2.1.4) gives
    a^-1 r = L^-T (y + k (v^T y) v), y = L^-1 r, k = c / (1 - c v^T v): two
    triangular solves (dtrsv) per solve.  Where 1 - c v^T v is 0 (a singular),
    every solve is NaN.
    """
    diagonal = a.diagonal().copy()
    lower, info = lapack.dpotrf(blas.dsyr(c, u, lower=1, a=a, overwrite_a=1),
                                lower=1, clean=0, overwrite_a=1)
    if info != 0:
        upper = np.triu(a, 1)
        a[...] = upper + upper.T
        a.ravel(order="K")[:: len(a) + 1] = diagonal
        return None
    v = blas.dtrsv(lower, u, lower=1)
    denominator = 1.0 - c * float(v @ v)
    if denominator == 0.0:  # k = +-inf: a is singular, and no solve is finite
        return lambda r: np.full(len(r), math.nan)
    k = c / denominator

    def solve(r):
        y = blas.dtrsv(lower, r, lower=1)
        y += (k * float(v @ y)) * v
        return blas.dtrsv(lower, y, lower=1, trans=1, overwrite_x=1)

    return solve


def _smallest_eigenpair(h: np.ndarray, guess: np.ndarray | None) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of the symmetric h and a unit eigenvector.

    From a warm unit guess u with Rayleigh quotient rho, one Cholesky
    factorization of h - tau I lifted along u (``lifted_cholesky``, c = max|h|),
    tau just above rho, drives inverse iteration.  An iterate y with Rayleigh
    quotient beta and residual r = |h y - beta y| is accepted when
    - the lifted factorization succeeded: h - tau I has at most one eigenvalue
      <= 0, so every eigenvalue of h but the smallest lies above tau;
    - beta + r < tau: [beta - r, beta + r] holds an eigenvalue of h, which
      lies below tau, so it is that smallest one, within r of beta;
    - r^2 <= eps max|h| (tau - beta): the other eigenvalues lie above tau, so
      by Kato-Temple beta is within eps max|h| of it, as good as ``eigh``
    (Parlett, The Symmetric Eigenvalue Problem).  Otherwise, with no guess
    (None, zero or non-finite), or at once on a non-finite iterate (tau on an
    eigenvalue of h), the pair comes from ``eigh``.
    """
    norm = 0.0 if guess is None else float(np.linalg.norm(guess))
    if 0.0 < norm < math.inf:
        y = guess / norm
        scale = float(np.max(np.abs(h)))
        tau = float(y @ h @ y) + _SHIFT_GAP * scale
        shifted = h.T.copy(order="K")  # h (symmetric) in Fortran order, factored in place
        shifted.ravel(order="K")[:: len(h) + 1] -= tau
        solve = lifted_cholesky(shifted, y, scale)
        if solve is not None:
            for _ in range(_INVERSE_STEPS):
                x = solve(y)
                if not np.isfinite(x).all():
                    break
                y = x / np.linalg.norm(x)
                hy = h @ y
                beta = float(y @ hy)
                res = float(np.linalg.norm(hy - beta * y))
                if beta + res < tau and res * res <= _EPS * scale * (tau - beta):
                    return beta, y
    vals, vecs = scipy.linalg.eigh(h, subset_by_index=[0, 0])
    return float(vals[0]), vecs[:, 0]


def _root_tol(x: float) -> float:
    """_newton_root's step tolerance at x: brentq's xtol and rtol."""
    return 1e-14 + 4.0 * _EPS * abs(x)


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
        tol = _root_tol(x)
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


def _shifted_root(domain: Domain, weight: np.ndarray, shift: float, guess: np.ndarray,
                  label: str, start: float = 0.0) -> EigenPair:
    """Root s of beta(s) - shift * s, beta(s) the smallest eigenvalue of L_s - diag(weight),
    and its boundary-L2 eigenfunction.

    In the basis U that diagonalizes every L_s, beta(s) is the smallest
    eigenvalue of diag(sigma_s) - U^T diag(weight) U, decreasing in s with
    slope sum(sigma'_s y^2) for its unit eigenvector y.  Newton starts at
    ``start`` and each evaluation warm from the last y (the first from
    U^T guess); the returned pair is checked against the assembled nodal matrix.
    """
    basis = dtn_basis(domain)
    form = basis.T @ (weight[:, None] * basis)
    form = 0.5 * (form + form.T)  # symmetric to the bit, as the factorization assumes
    diagonal = np.diag_indices_from(form)
    y = basis.T @ guess

    def evaluate(s):
        nonlocal y
        sym, slope = dtn_symbol(domain, s)
        h = -form
        h[diagonal] += sym
        beta, y = _smallest_eigenpair(h, y)
        return beta - shift * s, float(slope @ (y * y)) - shift, y

    s_max = first_dirichlet_eigenvalue(domain) - 2 * DIRICHLET_GUARD
    s, y = _newton_root(evaluate, start, _S_FLOOR, s_max, label)
    func = _boundary_l2_normalize(domain, basis @ y)
    shifted = weight + shift * s
    defect = dtn_matrix(domain, s) @ func - domain.weights * shifted * func
    return _checked_pair(domain, s, func, defect, shifted, label)


def sigma1(domain: Domain, g, lam: float) -> EigenPair:
    """Smallest eigenvalue sigma_1(lambda) of the interior-shifted problem.

    Found as the root of s -> smallest eigenvalue of (DtN_s - lambda M_g),
    which is strictly decreasing in s.
    """
    return _shifted_root(domain, lam * as_values(domain, g), 0.0, np.ones(domain.m), "sigma1")


def gamma1(domain: Domain, g, lam: float, w, p: float, h=None, warm=None) -> EigenPair:
    """Stability eigenvalue gamma_1 of the linearization at a solution w.

    Root of gamma -> smallest eigenvalue of the pencil
    (DtN_gamma - M_{lambda g + p h w^(p-1)} - gamma Q) with respect to Q,
    where h defaults to g (h = f for the f-variant).  The root search starts
    at gamma = 0 from w, or, given ``warm`` = (gamma_1, eigenfunction values)
    of a nearby solution, at min(gamma_1, 0) from that eigenfunction.
    """
    gv = as_values(domain, g)
    wv = as_values(domain, w)
    hv = gv if h is None else as_values(domain, h)
    weight = lam * gv + p * hv * np.abs(wv) ** (p - 1.0)
    if warm is None:
        return _shifted_root(domain, weight, 1.0, wv, "gamma1")
    value, eigenfunction = warm
    return _shifted_root(domain, weight, 1.0, eigenfunction, "gamma1", min(value, 0.0))


def _require_semidefinite(a: np.ndarray) -> None:
    """Raise PencilNotPositiveDefinite if A = Lambda - lambda M_g, which dpotrf did not
    factor, has an eigenvalue below -1e-10 * scale; within that round-off window
    around lambda = 0 the mu-pencil still has a spectrum."""
    evals = np.linalg.eigvalsh(a)
    scale = max(abs(evals[0]), abs(evals[-1]), 1.0)
    if evals[0] < -1e-10 * scale:
        raise PencilNotPositiveDefinite(
            f"Lambda - lambda M_g has eigenvalue {evals[0]}; lambda outside (0, lambda_1)")


def _deflated_mu2(a: np.ndarray, b: np.ndarray, w: np.ndarray, guess) -> tuple[float, np.ndarray]:
    """mu_2^+ of A phi = mu diag(b) phi, A positive definite, at a solution w (A w = B w,
    B = diag(b) with at least two positive entries), and its unit eigenvector.

    B' = B - (Bw)(Bw)^T / (w^T B w) annihilates w and leaves every other pair
    (B-orthogonal to w) as it was (Wielandt/Hotelling deflation, Parlett, The
    Symmetric Eigenvalue Problem), so mu_2^+ is the least positive mu of
    (A, B').  It is the one positive root of beta(mu), the smallest eigenvalue
    of A - mu B': concave, with beta(0) > 0 and slope -y^T B' y, y the unit
    eigenvector; each evaluation is a certified eigen-step warm from the last
    y.  Newton descends from the Rayleigh bound v^T A v / v^T B' v >= mu_2^+
    of the guess v, or, with no guess of positive v^T B' v, of the top
    eigenvector of (B', A) from one ``eigh``.
    """
    scaled = b * w / math.sqrt(float(w @ (b * w)))  # B w / sqrt(w^T B w)
    deflated = np.diag(b) - np.outer(scaled, scaled)  # symmetric to the bit

    def curvature(v):  # v^T B' v
        return float(b @ (v * v)) - float(scaled @ v) ** 2

    y = None if guess is None else np.asarray(guess, dtype=float)
    if y is None or not curvature(y) > 0.0:
        m = len(b)
        y = scipy.linalg.eigh(deflated, a, subset_by_index=[m - 1, m - 1])[1][:, 0]
    bound = float(y @ a @ y) / curvature(y)
    if not 0.0 < bound < math.inf:
        raise RootNotBracketed(f"mu2+: no Rayleigh bound from the guess ({bound})")

    def evaluate(mu):
        nonlocal y
        beta, y = _smallest_eigenpair(a - mu * deflated, y)
        return beta, -curvature(y), y

    # beta(bound) <= 0, but may round to just above 0: 2 bound is a safe upper end
    return _newton_root(evaluate, bound, 0.0, 2.0 * bound, "mu2+")


def weighted_steklov_spectrum(domain: Domain, g, lam: float, w, p: float, h=None,
                              guess=None) -> MuSpectrum:
    """All real eigenvalues mu of (Lambda - lambda M_g) phi = mu M_{h w^(p-1)} phi,
    where h defaults to g (h = f for the f-variant).

    At a solution w with lambda in (0, lambda_1(g)) -- where (1, w) is an
    eigenpair to _DEFLATE_RTOL relative and dpotrf factors A = Lambda - lambda M_g
    -- mu_2^+ is the deflated root of ``_deflated_mu2``, started from ``guess``
    (the ``mu2_vector`` of a nearby solution's spectrum; None costs one
    ``eigh``), and +inf when M_{h w^(p-1)} has at most one positive entry, since
    the pencil has as many positive mu as it has positive entries.  Everything
    else comes from one QZ of (A, M_{h w^(p-1)}) with vectors: the rest of the
    spectrum on first read, and mu_2^+ itself at lambda = 0 (A only
    semidefinite, kernel = constants), off a solution, or where the root fails.
    Where dpotrf fails at lambda != 0, an eigenvalue of A below -1e-10 * scale
    raises PencilNotPositiveDefinite.  mu = 1 is always present at a solution,
    with eigenfunction w.
    """
    gv = as_values(domain, g)
    wv = as_values(domain, w)
    hv = gv if h is None else as_values(domain, h)
    a = dtn_matrix(domain) - np.diag(domain.weights * lam * gv)
    b = domain.weights * hv * np.abs(wv) ** (p - 1.0)  # diagonal of M_{h w^(p-1)}
    if lam != 0.0:
        bw = b * wv
        if lapack.dpotrf(a.T, lower=1, clean=0)[1] != 0:  # A^T = A, Fortran order
            _require_semidefinite(a)
        elif np.linalg.norm(a @ wv - bw) <= _DEFLATE_RTOL * np.linalg.norm(bw):
            if np.count_nonzero(b > 0.0) <= 1:
                return MuSpectrum(math.inf, None, domain.weights, (a, b))
            try:
                mu2, vec = _deflated_mu2(a, b, wv, guess)
            except RootNotBracketed:
                pass
            else:
                return MuSpectrum(mu2, vec, domain.weights, (a, b))
    solved = _real_pencil_eigs(a, np.diag(b))
    positive = solved[0][solved[0] > 1e-12]
    mu2_plus = float(positive[1]) if len(positive) >= 2 else math.inf
    return MuSpectrum(mu2_plus, None, domain.weights, (a, b), solved)


def m_delta(branch) -> float:
    """Minimum of mu_2^+ over the points of a ``continuation.Branch`` with lambda
    in [0, lambda_1), lambda_1 its bifurcation value, each from the pencil of
    its spec with weight h |w|^(p-1), h the spec's superlinear weight, and
    each root warm from the last sample's eigenvector.

    Discrete surrogate of the infimum defining m_delta; +inf when the
    second positive eigenvalue is absent everywhere (e.g. the interval).
    """
    if not branch.points:
        raise EmptyBranch("m_delta needs at least one branch sample")
    spec = branch.spec
    best = math.inf
    seen = False
    guess = None
    for pt in branch.points:
        if not 0.0 <= pt.lam < branch.bifurcation_lambda:
            continue
        seen = True
        mu = weighted_steklov_spectrum(spec.domain, spec.g, pt.lam, pt.w, spec.p,
                                       spec.superlinear_weight, guess)
        best = min(best, mu.mu2_plus)
        guess = mu.mu2_vector
    if not seen:
        raise EmptyBranch("no branch sample with lambda in [0, lambda_1)")
    return best
