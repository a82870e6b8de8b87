import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

import indefbc.solve
import indefbc.spectral
from indefbc.continuation import StepOptions, continue_branch
from indefbc.dtn import (
    DIRICHLET_GUARD,
    assemble_dtn,
    dirichlet_energy,
    dtn_matrix,
    first_dirichlet_eigenvalue,
)
from indefbc.domain import build_domain, harmonic_extension_eval, volume_l2_norm_sq
from indefbc.errors import PencilNotPositiveDefinite, ResidualAboveTolerance, RootNotBracketed
from indefbc.problem import ProblemSpec, residual_jacobian
from indefbc.solve import newton_solve
from indefbc.spectral import (
    gamma1,
    m_delta,
    principal_eigenvalue,
    sigma1,
    weighted_steklov_spectrum,
)
from indefbc.weights import trig_weight
from conftest import random_interval_weight, sign_changing_disk_weight


# ---------------------------------------------------------------------------
# principal eigenvalue
# ---------------------------------------------------------------------------

def test_interval_principal_eigenvalue_closed_form(interval):
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_interval_weight(rng)
        pair = principal_eigenvalue(interval, g)
        expected = (g[0] + g[1]) / (g[0] * g[1])
        assert abs(pair.value - expected) < 1e-12
        assert np.all(pair.eigenfunction.values > 0)


def test_nonnegative_average_gives_zero_with_constant(interval, disk16):
    disk64 = build_domain("unit-disk", 64)
    # README plateau weight: its integral vanishes, -2.6e-16 after round-off
    plateau = trig_weight(disk64, [(1, 1.0, 0.0)], [(-0.4, 0.4), (2.74, 3.54)], 0.05)
    for dom, g in ((interval, np.array([2.0, -1.0])),
                   (disk16, np.cos(disk16.nodes) + 0.5),
                   (disk64, plateau)):
        pair = principal_eigenvalue(dom, g)
        assert pair.value == 0.0
        v = pair.eigenfunction.values
        assert np.allclose(v, v[0])


def test_principal_eigenfunction_h1_normalized(disk16):
    g = sign_changing_disk_weight(disk16)
    pair = principal_eigenvalue(disk16, g)
    v = pair.eigenfunction.values
    norm_sq = volume_l2_norm_sq(disk16, v) + dirichlet_energy(assemble_dtn(disk16), v)
    assert abs(norm_sq - 1.0) < 1e-10
    assert pair.residual < 1e-8 * (1.0 + abs(pair.value))


def _qz_positive_eigenvalues(domain, g):
    """Positive eigenvalues of Lambda phi = lambda M_g phi by a full QZ, ascending,
    and whether each eigenvector is one-signed (the first such one is lambda_1).

    The reference for the bracketed Newton root.  The constants' lambda = 0 is
    moved off 0 by round-off that grows with m (2e-12 at m = 512), so the
    least |lambda| is dropped.
    """
    mus, funcs = indefbc.spectral._real_pencil_eigs(dtn_matrix(domain),
                                                     np.diag(domain.weights * g))
    keep = (mus > 0.0) & (np.abs(mus) > np.min(np.abs(mus)))
    return mus[keep], np.all(funcs[:, keep] > 0, axis=0) | np.all(funcs[:, keep] < 0, axis=0)


def _qz_second_positive(domain, g):
    positive = _qz_positive_eigenvalues(domain, g)[0]
    return float(positive[1]) if len(positive) >= 2 else math.inf


def test_principal_eigenvalue_is_simple(interval, disk16):
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = random_interval_weight(rng)
        lam1 = principal_eigenvalue(interval, g).value
        assert _qz_second_positive(interval, g) - lam1 > 1e-6
    g = sign_changing_disk_weight(disk16)
    lam1 = principal_eigenvalue(disk16, g).value
    assert _qz_second_positive(disk16, g) - lam1 > 1e-6


def _two_bump_weight(domain):
    """cos 2 theta where it is positive, 20 cos 2 theta where it is negative."""
    c2 = np.cos(2.0 * domain.nodes)
    return np.where(c2 > 0.0, c2, 20.0 * c2)


def test_principal_eigenvalue_matches_qz_reference(disk16):
    for dom in (disk16, build_domain("unit-disk", 128), build_domain("unit-disk", 256)):
        for g in (sign_changing_disk_weight(dom), _two_bump_weight(dom)):
            lam1 = principal_eigenvalue(dom, g).value
            mus, one_signed = _qz_positive_eigenvalues(dom, g)
            assert abs(lam1 - mus[one_signed][0]) <= 1e-12 * (1.0 + lam1)


def _mp_disk_lambda1(domain, g):
    """lambda_1 of the disk pencil at 40 digits: the least positive eigenvalue of
    M_g^-1 L, with L the circulant of the symbol |n| (n = m/2 for the Nyquist
    mode) built in mpmath, and g the given floats taken exactly."""
    m = domain.m
    with mpmath.workdps(40):
        col = [(2 * mpmath.fsum(n * mpmath.cospi(mpmath.mpf(2 * n * k) / m)
                                for n in range(1, m // 2)) + (m // 2) * mpmath.cospi(k)) / m
               for k in range(m)]
        a = mpmath.matrix(m, m)
        for j in range(m):
            for k in range(m):
                a[j, k] = col[(j - k) % m] / mpmath.mpf(float(g[j]))
        vals = mpmath.eig(a, left=False, right=False)
        tiny = mpmath.mpf(10) ** -20
        return min(v.real for v in vals if abs(v.imag) < tiny and v.real > tiny)


def test_principal_eigenvalue_matches_exact_references(interval):
    """Relative error against the interval closed form in exact rationals and a
    40-digit disk reference for g = cos theta - eps, whose mean -eps sends the
    root's sensitivity to round-off in beta_0 up like 1/eps^2."""
    for g0, g1, tol in ((1.0, -4.0, 1e-12), (3.0, -100.0, 1e-12), (-0.7, 0.3, 1e-12),
                        (1e-6, -1.0, 1e-12), (2.0, -2.001, 1e-12), (2.0, -2.000001, 1e-9)):
        exact = (Fraction(g0) + Fraction(g1)) / (Fraction(g0) * Fraction(g1))
        lam1 = principal_eigenvalue(interval, np.array([g0, g1])).value
        assert abs(Fraction(lam1) - exact) <= tol * exact
    for m in (16, 32):
        dom = build_domain("unit-disk", m)
        for eps, tol in ((0.3, 1e-13), (1e-3, 1e-10), (1e-5, 1e-6)):
            g = np.cos(dom.nodes) - eps
            exact = _mp_disk_lambda1(dom, g)
            assert abs(principal_eigenvalue(dom, g).value - exact) < tol * exact


def test_principal_eigenvalue_raises_without_positive_root(interval, disk16, monkeypatch):
    """No positive entry in g, or a sign-changing eigenvector at the root, raises."""
    for dom, g in ((disk16, np.full(16, -1.0)), (disk16, np.minimum(np.cos(disk16.nodes), 0.0)),
                   (interval, np.array([-1.0, -2.0])), (interval, np.array([0.0, -1.0]))):
        with pytest.raises(RootNotBracketed):
            principal_eigenvalue(dom, g)
    normalize = indefbc.spectral._h1_normalize

    def flip_one_entry(domain, v):
        out = normalize(domain, v).copy()
        out[0] = -out[0]
        return out

    monkeypatch.setattr(indefbc.spectral, "_h1_normalize", flip_one_entry)
    with pytest.raises(RootNotBracketed):
        principal_eigenvalue(disk16, sign_changing_disk_weight(disk16))


def test_principal_eigenvalue_needs_few_beta_evaluations(monkeypatch):
    """At most 10 beta_0 evaluations per lambda_1 on six draws of the disk family
    g = cos(t - a1) + b2 cos 2(t - a2) + b3 cos 3(t - a3) - c at m = 128."""
    calls = []
    beta = indefbc.spectral._beta_smallest

    def counted_beta(*args):
        calls.append(args[1])
        return beta(*args)

    monkeypatch.setattr(indefbc.spectral, "_beta_smallest", counted_beta)
    dom = build_domain("unit-disk", 128)
    t = dom.nodes
    rng = np.random.default_rng(13)
    for _ in range(6):
        a1, a2, a3 = rng.uniform(0.0, 2.0 * math.pi, 3)
        b2, b3, c = rng.uniform(0.0, 0.2), rng.uniform(0.0, 0.1), rng.uniform(0.34, 0.38)
        g = np.cos(t - a1) + b2 * np.cos(2 * (t - a2)) + b3 * np.cos(3 * (t - a3)) - c
        calls.clear()
        assert principal_eigenvalue(dom, g).value > 0.0
        assert 1 <= len(calls) <= 10 and all(s == 0.0 for s in calls)


# ---------------------------------------------------------------------------
# sigma_1
# ---------------------------------------------------------------------------

def _sigma1_interval_oracle_defect(g, lam, sigma):
    """Transcendental characteristic equation for the interval eigenvalue.

    For sigma > 0 the eigenfunction is a trigonometric combination; the
    boundary conditions admit a nonzero one iff this determinant vanishes.
    The hyperbolic analogue covers sigma < 0.
    """
    g0, g1 = float(g[0]), float(g[1])
    if sigma > 0:
        t = math.sqrt(sigma)
        return (lam * g0 * (lam * g1 * math.sin(t) - t * math.cos(t))
                - t * (lam * g1 * math.cos(t) + t * math.sin(t)))
    t = math.sqrt(-sigma)
    return (lam * g0 * (lam * g1 * math.sinh(t) - t * math.cosh(t))
            - t * (lam * g1 * math.cosh(t) - t * math.sinh(t)))


def test_sigma1_matches_transcendental_oracle(interval):
    g = np.array([1.0, -4.0])
    lam1 = principal_eigenvalue(interval, g).value
    for lam in (0.2 * lam1, 0.6 * lam1, 0.95 * lam1, 1.4 * lam1):
        sig = sigma1(interval, g, lam).value
        defect = _sigma1_interval_oracle_defect(g, lam, sig)
        # scale-aware: the determinant has O(1 + lam^2) coefficients
        assert abs(defect) < 1e-7 * (1.0 + lam) ** 2


def test_sigma1_sign_law(interval, disk16):
    cases = [(interval, np.array([1.0, -4.0]))]
    for dom in (disk16, build_domain("unit-disk", 128), build_domain("unit-disk", 256)):
        cases.append((dom, sign_changing_disk_weight(dom)))
    for dom, g in cases:
        lam1 = principal_eigenvalue(dom, g).value
        assert abs(sigma1(dom, g, 0.0).value) < 1e-10
        assert abs(sigma1(dom, g, lam1).value) < 1e-8
        for lam in np.linspace(0.15 * lam1, 0.85 * lam1, 4):
            assert sigma1(dom, g, float(lam)).value > 0.0
        assert sigma1(dom, g, 1.5 * lam1).value < 0.0


def test_sigma1_raises_on_non_finite_beta(disk16, monkeypatch):
    """A NaN beta inside the bracket raises instead of ending the search."""
    g = sign_changing_disk_weight(disk16)
    lam = 0.5 * principal_eigenvalue(disk16, g).value
    root = sigma1(disk16, g, lam).value
    finite_beta = indefbc.spectral._beta_smallest

    def nan_near_root(domain, s, weight):
        if abs(s - root) < 0.25 * root:
            return math.nan, np.full(domain.m, math.nan)
        return finite_beta(domain, s, weight)

    monkeypatch.setattr(indefbc.spectral, "_beta_smallest", nan_near_root)
    with pytest.raises(RootNotBracketed):
        sigma1(disk16, g, lam)


def test_sigma1_raises_on_wrong_eigenvector(disk16, monkeypatch):
    """A root whose eigenvector does not solve the pencil raises."""
    g = sign_changing_disk_weight(disk16)
    lam = 0.5 * principal_eigenvalue(disk16, g).value
    true_beta = indefbc.spectral._beta_smallest

    def wrong_vector(domain, s, weight):  # the root is right, the vector is not
        return true_beta(domain, s, weight)[0], np.cos(domain.nodes) + 2.0

    monkeypatch.setattr(indefbc.spectral, "_beta_smallest", wrong_vector)
    with pytest.raises(ResidualAboveTolerance):
        sigma1(disk16, g, lam)


def test_root_search_guards_raise(interval, disk16):
    """No sign change below the Dirichlet guard (weight -1e9) or above the
    floor -1e12 (weight 1e13, root near -1e26) raises RootNotBracketed."""
    for dom in (interval, disk16):
        g = np.full(dom.m, -1.0)
        for lam in (1e9, -1e13):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RootNotBracketed):
                    sigma1(dom, g, lam)


def _brentq_root(domain, weight, shift):
    """Reference root of beta(s) - shift * s: scipy's brentq on a doubling bracket."""
    from scipy.optimize import brentq

    def f(s):
        return indefbc.spectral._beta_smallest(domain, s, weight)[0] - shift * s

    s_max = first_dirichlet_eigenvalue(domain) - 2 * DIRICHLET_GUARD
    lo, hi = -1e-3, 1e-3
    while f(lo) < 0.0:
        lo *= 2.0
    while f(hi) > 0.0:
        hi = min(2.0 * hi, s_max)
    return brentq(f, lo, hi, xtol=1e-14)


def _disk_branch_states(ms):
    """(domain, g, lambda, w) at lambda = 0.3 lambda_1 on the positive disk
    branch, for each m: the m = 16 branch point, interpolated to m and
    corrected there by Newton."""
    dom16 = build_domain("unit-disk", 16)
    branch = continue_branch(ProblemSpec(dom16, 2.0, sign_changing_disk_weight(dom16)),
                             options=StepOptions(with_gamma1=False))
    lam = 0.3 * branch.bifurcation_lambda
    coeffs = np.fft.rfft(branch.at_lambda(lam, with_gamma1=False).w)[:8]
    states = []
    for m in ms:
        dom = build_domain("unit-disk", m)
        spec = ProblemSpec(dom, 2.0, sign_changing_disk_weight(dom))
        init = np.fft.irfft(coeffs, n=m) * (m / 16)
        states.append((dom, spec.g, lam, newton_solve(spec, lam, init, with_gamma1=False).w))
    return states


def test_shifted_roots_match_brentq_reference(interval):
    """sigma_1 at lambda_1/2 (root > 0) and 1.5 lambda_1 (root < 0), and gamma_1
    at a branch point (root < 0), against brentq on the same beta(s)."""
    g1 = np.array([1.0, -4.0])
    states = [(interval, g1, 0.0, _interval_solution(interval, g1, 0.0).w)]
    states += _disk_branch_states((16, 128, 256))
    for dom, g, lam, w in states:
        lam1 = principal_eigenvalue(dom, g).value
        for factor in (0.5, 1.5):
            expected = _brentq_root(dom, factor * lam1 * g, 0.0)
            assert abs(sigma1(dom, g, factor * lam1).value - expected) <= 1e-13
        expected = _brentq_root(dom, lam * g + 2.0 * g * w, 1.0)
        assert expected < 0.0
        assert abs(gamma1(dom, g, lam, w, 2.0).value - expected) <= 1e-13


def test_disk_branch_needs_few_beta_evaluations_per_gamma1(monkeypatch):
    counts = {"beta": 0, "gamma1": 0}
    beta, gam = indefbc.spectral._beta_smallest, indefbc.solve._gamma1

    def counted_beta(*args):
        counts["beta"] += 1
        return beta(*args)

    def counted_gamma1(*args, **kwargs):
        counts["gamma1"] += 1
        return gam(*args, **kwargs)

    monkeypatch.setattr(indefbc.spectral, "_beta_smallest", counted_beta)
    monkeypatch.setattr(indefbc.solve, "_gamma1", counted_gamma1)
    dom = build_domain("unit-disk", 128)
    continue_branch(ProblemSpec(dom, 2.0, sign_changing_disk_weight(dom)))
    assert counts["gamma1"] >= 10
    assert counts["beta"] <= 6 * counts["gamma1"]


def test_disk_eigenvalues_converge_in_m():
    """lambda_1, sigma_1(lambda_1/2), and gamma_1, mu_1^+ and mu_2^+ at a fixed
    trace do not drift with m.

    The weight and the trace hold only modes 0 and 1, so every m >= 16
    resolves them exactly and the values agree to round-off.
    """
    def values(m):
        dom = build_domain("unit-disk", m)
        g = sign_changing_disk_weight(dom)
        lam1 = principal_eigenvalue(dom, g).value
        w = 0.2 + 0.1 * np.cos(dom.nodes)
        sig = sigma1(dom, g, 0.5 * lam1)
        gam = gamma1(dom, g, 0.3 * lam1, w, 2.0)
        assert sig.residual < 1e-8 and gam.residual < 1e-8
        mu = weighted_steklov_spectrum(dom, g, 0.3 * lam1, w, 2.0)
        return np.array([lam1, sig.value, gam.value, mu.mu1_plus, mu.mu2_plus])

    reference = values(64)
    for m in (256, 512):
        assert np.max(np.abs(values(m) - reference)) < 1e-10


def test_import_defers_scipy_optimize_and_special():
    """``import indefbc`` stays cheap: the package imports neither scipy.optimize
    (the sigma_1/gamma_1 root finder is its own Newton iteration) nor scipy.special."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(indefbc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, indefbc; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# gamma_1
# ---------------------------------------------------------------------------

def test_gamma1_negative_at_closed_form_state(interval):
    g = np.array([1.0, -4.0])
    pair = gamma1(interval, g, 0.0, np.array([0.5, 0.25]), 2.0)
    assert pair.value < 0.0
    assert pair.residual < 1e-8


def test_gamma1_matches_interior_quadrature_identity(interval):
    """Oracle: the eigenvalue equals a ratio of interior/boundary integrals.

    With h(t) = lam*t + t^p, a positive state w (harmonic extension) and
    the eigenfunction phi_1 (extension with interior eigenvalue gamma_1),
    integrating by parts gives
      gamma_1 = -int_O h''(w)|grad w|^2 phi_1
                 / (int_O h(w) phi_1 + int_dO h(w) phi_1).
    """
    g = np.array([1.0, -4.0])
    p = 2.0
    for lam, w in ((0.0, np.array([0.5, 0.25])),):
        spec = ProblemSpec(interval, p, g)
        point = newton_solve(spec, lam, w, with_gamma1=False)
        w = point.w
        pair = gamma1(interval, g, lam, w, p)
        gam, phi = pair.value, pair.eigenfunction.values
        # interior profiles on (0, 1): w is linear, phi_1 solves -phi'' = gam*phi
        x = np.linspace(0.0, 1.0, 20001)
        wx = w[0] + (w[1] - w[0]) * x
        slope = w[1] - w[0]
        t = math.sqrt(-gam)  # instability: gam < 0, hyperbolic profile
        a = phi[0]
        b = (phi[1] - phi[0] * math.cosh(t)) / math.sinh(t)
        phix = a * np.cosh(t * x) + b * np.sinh(t * x)
        h = lam * wx + wx ** p
        hpp = p * (p - 1.0) * wx ** (p - 2.0)
        num = -np.trapezoid(hpp * slope ** 2 * phix, x)
        den = np.trapezoid(h * phix, x) + float(
            (lam * w + w ** p) @ phi)  # boundary sum of h(w) phi_1
        assert abs(gam - num / den) < 1e-4 * abs(gam)


def test_gamma1_negative_along_disk_branch_point(disk16):
    g = sign_changing_disk_weight(disk16)
    spec = ProblemSpec(disk16, 2.0, g)
    from indefbc.continuation import continue_branch

    branch = continue_branch(spec)
    point = branch.at_lambda(0.3 * branch.bifurcation_lambda)
    assert point.gamma1 < 0.0


# ---------------------------------------------------------------------------
# mu spectrum
# ---------------------------------------------------------------------------

def _interval_solution(interval, g, lam):
    spec = ProblemSpec(interval, 2.0, g)
    from indefbc.continuation import continue_branch

    return continue_branch(spec).at_lambda(lam, with_gamma1=False)


def test_mu_one_is_eigenvalue_with_eigenfunction_w(interval, disk16):
    g = np.array([1.0, -4.0])
    lam1 = principal_eigenvalue(interval, g).value
    for lam in (0.0, 0.4 * lam1, 0.8 * lam1):
        point = _interval_solution(interval, g, float(lam))
        spec = weighted_steklov_spectrum(interval, g, float(lam), point.w, 2.0)
        assert abs(spec.mu1_plus - 1.0) < 1e-8
        idx = int(np.argmin(np.abs(spec.mu_values - 1.0)))
        f = spec.eigenfunctions[:, idx]
        cos = abs(float(f @ point.w)) / (np.linalg.norm(f) * np.linalg.norm(point.w))
        assert cos >= 1.0 - 1e-8
        assert spec.mu2_plus == math.inf  # 2x2 pencil has at most 2 eigenvalues


def test_mu_minus_zero_at_lambda_zero(interval):
    g = np.array([1.0, -4.0])
    point = _interval_solution(interval, g, 0.0)
    spec = weighted_steklov_spectrum(interval, g, 0.0, point.w, 2.0)
    assert abs(spec.mu1_minus) < 1e-8


def test_mu_pencil_requires_coercive_range():
    """Outside [0, lambda_1] the pencil raises; within the round-off window
    around lambda = 0, on either side, it still gives a spectrum."""
    for m in (16, 128):
        dom = build_domain("unit-disk", m)
        g = sign_changing_disk_weight(dom)
        lam1 = principal_eigenvalue(dom, g).value
        w = np.full(m, 0.1)
        for frac in (-0.05, 1.000001, 1.5):
            with pytest.raises(PencilNotPositiveDefinite):
                weighted_steklov_spectrum(dom, g, frac * lam1, w, 2.0)
        for frac in (-1e-9, 1e-9):
            spec = weighted_steklov_spectrum(dom, g, frac * lam1, w, 2.0)
            assert np.all(np.isfinite(spec.mu_values)) and math.isfinite(spec.mu2_plus)


def test_mu_gap_at_p_matches_jacobian_regularity(disk16):
    """If p stays away from the mu spectrum, the Newton Jacobian is regular."""
    g = sign_changing_disk_weight(disk16)
    spec = ProblemSpec(disk16, 2.0, g)
    from indefbc.continuation import continue_branch

    branch = continue_branch(spec)
    lam1 = branch.bifurcation_lambda
    for frac in (0.1, 0.4, 0.7):
        point = branch.at_lambda(frac * lam1, with_gamma1=False)
        mus = weighted_steklov_spectrum(disk16, g, point.lam, point.w, 2.0).mu_values
        gap = float(np.min(np.abs(mus - spec.p)))
        smallest_sv = float(np.linalg.svd(
            residual_jacobian(spec, point.lam, point.w), compute_uv=False)[-1])
        assert (gap > 1e-6) == (smallest_sv > 1e-8)


def _mu_spectrum_reference(domain, g, lam, w, p):
    """The mu-spectrum through A^(-1/2), normalized, sign-fixed and flagged column by column."""
    a = dtn_matrix(domain) - np.diag(domain.weights * lam * g)
    b = np.diag(domain.weights * g * np.abs(w) ** (p - 1.0))
    evals, evecs = np.linalg.eigh(a)
    isqrt = evecs @ np.diag(evals ** -0.5) @ evecs.T
    nus, psis = np.linalg.eigh(isqrt @ b @ isqrt)
    keep = np.abs(nus) > 1e-12
    mus, funcs = 1.0 / nus[keep], isqrt @ psis[:, keep]
    order = np.argsort(mus)
    cols, flags = [], []
    for f in funcs[:, order].T:
        f = f / math.sqrt(float(domain.weights @ (f * f)))
        i = int(np.argmax(np.abs(f)))
        f = -f if f[i] < 0 else f
        cols.append(f)
        flags.append(bool(np.all(f > 0) or np.all(f < 0)))
    return mus[order], np.column_stack(cols), np.array(flags), a, b


def test_mu_spectrum_matches_per_column_reference():
    """Against the per-column reference at disk m = 64 branch points.

    The reduction differs, so values agree to round-off: mu to 1e-10
    relative, and columns of eigenvalues 1e-3 apart (relative) to 1e-9 up
    to sign, since antisymmetric columns tie for the largest |entry| and
    round-off picks their sign in either code.  Each column must solve its
    pencil and carry the reference's one-signed flag.
    """
    dom = build_domain("unit-disk", 64)
    g = sign_changing_disk_weight(dom)
    branch = continue_branch(ProblemSpec(dom, 2.0, g), options=StepOptions(with_gamma1=False))
    for frac in (0.05, 0.3, 0.6, 0.9):
        point = branch.at_lambda(frac * branch.bifurcation_lambda, with_gamma1=False)
        spec = weighted_steklov_spectrum(dom, g, point.lam, point.w, 2.0)
        mus, funcs, flags, a, b = _mu_spectrum_reference(dom, g, point.lam, point.w, 2.0)
        assert np.allclose(spec.mu_values, mus, rtol=1e-10, atol=0.0)
        assert np.array_equal(spec.principal, flags) and flags.sum() >= 1
        near = np.abs(np.diff(mus)) <= 1e-3 * np.abs(mus[1:])
        apart = ~(np.append(near, False) | np.insert(near, 0, False))
        got = spec.eigenfunctions
        off = np.minimum(np.abs(got - funcs).max(axis=0), np.abs(got + funcs).max(axis=0))
        assert apart.sum() >= 40 and np.all(off[apart] <= 1e-9)
        assert np.allclose(dom.weights @ got ** 2, 1.0, rtol=1e-12)
        assert np.all(got.max(axis=0) >= -got.min(axis=0) - 1e-12)  # largest |entry| positive
        defect = a @ got - (b @ got) * spec.mu_values
        scale = np.linalg.norm(a, 2) + np.abs(spec.mu_values) * np.linalg.norm(b, 2)
        assert np.all(np.linalg.norm(defect, axis=0) <= 1e-11 * scale * np.linalg.norm(got, axis=0))


def test_mu2_plus_needs_one_eigenvalue_only_solve(monkeypatch):
    """mu_2^+ costs one eigenvalue-only eigh; the eigenfunctions one more, once."""
    dom = build_domain("unit-disk", 64)
    g = sign_changing_disk_weight(dom)
    branch = continue_branch(ProblemSpec(dom, 2.0, g), options=StepOptions(with_gamma1=False))
    point = branch.at_lambda(0.3 * branch.bifurcation_lambda, with_gamma1=False)
    calls = []
    eigh = scipy.linalg.eigh

    def counted_eigh(*args, **kwargs):
        calls.append(kwargs.get("eigvals_only", False))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
    spec = weighted_steklov_spectrum(dom, g, point.lam, point.w, 2.0)
    assert math.isfinite(spec.mu2_plus)
    assert calls == [True]
    funcs = spec.eigenfunctions
    assert spec.principal.sum() >= 1
    assert calls == [True, False]
    assert spec.eigenfunctions is funcs and spec.principal.sum() >= 1
    assert calls == [True, False]


def test_m_delta_infinite_on_interval(interval):
    g = np.array([1.0, -4.0])
    spec = ProblemSpec(interval, 2.0, g)
    from indefbc.continuation import continue_branch

    branch = continue_branch(spec)
    assert m_delta(interval, g, 2.0, branch) == math.inf
