"""Dirichlet-to-Neumann operators for the interval and the unit disk.

All boundary bilinear forms use the convention <a, Q b> with Q the
diagonal quadrature matrix.  A DtN operator is stored quadrature-absorbed,
``matrix = Q @ L`` with L the trace -> outward-normal-derivative map, so
the stored matrix is symmetric and ``w @ matrix @ w`` is the Dirichlet
energy of the extension for s = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .domain import INTERVAL, Domain
from .errors import SpectralParameterOutOfRange

# First interior Dirichlet eigenvalue: pi^2 on the interval, j_{0,1}^2 on
# the disk.  Helmholtz parameters must stay below it (multiplier pole).
_J01 = 2.404825557695773
DIRICHLET_GUARD = 1e-6


def first_dirichlet_eigenvalue(domain: Domain) -> float:
    return np.pi ** 2 if domain.kind == INTERVAL else _J01 ** 2


@dataclass(frozen=True)
class DtnOperator:
    """Quadrature-absorbed (possibly Helmholtz-parametric) DtN matrix."""

    domain: Domain
    s: float
    matrix: np.ndarray = field(repr=False)


def _disk_multipliers(m: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode symbol of the disk DtN for modes n = 0 .. m/2, and its slope in s.

    Mode n has symbol n - eta_n, eta_n = t J_{n+1}(t)/J_n(t) for s = t^2
    (-t I_{n+1}/I_n for s = -t^2), and eta_{n-1} = s / (2n - eta_n) for
    either sign.  Run backward from eta = 0 (Miller), this is stable where
    Bessel ratios underflow; the start error decays like exp(-k^2/t) over
    k modes, hence the padding.  Differentiating the recurrence gives
    eta'_{n-1} = (1 + eta_{n-1} eta'_n) / (2n - eta_n), and the symbol's
    slope is -eta'_n.  The Nyquist entry n = m/2 is the symbol of
    cos(m theta / 2), the one mode of that frequency the nodes carry.
    """
    half = m // 2
    start = half + 40 + int(6.0 * abs(s) ** 0.25)
    eta = np.zeros(half + 1)
    deta = np.zeros(half + 1)
    e = de = 0.0
    for n in range(start, 0, -1):
        denom = 2.0 * n - e
        e = s / denom
        de = (1.0 + e * de) / denom
        if n <= half + 1:
            eta[n - 1] = e
            deta[n - 1] = de
    return np.arange(half + 1) - eta, -deta


def _interval_entries(s: float) -> tuple[float, float, float, float]:
    """Entries a, b of the interval DtN [[a, b], [b, a]] and their slopes a', b' in s.

    a = t cot t and b = -t / sin t for s = t^2; a = t / tanh t and
    b = -t csch t for s = -t^2, with csch t = -2 e^-t / expm1(-2t), which
    does not overflow for large t.  Near s = 0 the closed-form slopes
    cancel, and the series a' = -1/3 - 2s/45, b' = -1/6 - 7s/180 is used.
    """
    if s > 0.0:
        t = np.sqrt(s)
        cot, csc = np.cos(t) / np.sin(t), 1.0 / np.sin(t)
        a, b = t * cot, -t * csc
        da, db = (cot - t * csc * csc) / (2.0 * t), csc * (t * cot - 1.0) / (2.0 * t)
    elif s < 0.0:
        t = np.sqrt(-s)
        coth, csch = 1.0 / np.tanh(t), -2.0 * np.exp(-t) / np.expm1(-2.0 * t)
        a, b = t * coth, -t * csch
        da, db = (t * csch * csch - coth) / (2.0 * t), csch * (1.0 - t * coth) / (2.0 * t)
    else:
        a, b = 1.0, -1.0
    if abs(s) < 1e-5:
        da, db = -1.0 / 3.0 - 2.0 * s / 45.0, -1.0 / 6.0 - 7.0 * s / 180.0
    return a, b, da, db


def _check_guard(domain: Domain, s: float) -> None:
    limit = first_dirichlet_eigenvalue(domain)
    if s > limit - DIRICHLET_GUARD:
        raise SpectralParameterOutOfRange(
            f"s={s} within guard of the Dirichlet eigenvalue {limit}"
        )


def assemble_helmholtz_dtn(domain: Domain, s: float) -> DtnOperator:
    """DtN operator of the Helmholtz extension -Delta u = s u.

    ``s`` must lie below the first interior Dirichlet eigenvalue by at
    least the pole guard; negative s (modified-Bessel regime) is allowed.
    """
    _check_guard(domain, s)
    if domain.kind == INTERVAL:
        a, b, _, _ = _interval_entries(s)
        raw = np.array([[a, b], [b, a]])
    else:
        # collocation matrix of the symbol: the circulant with first column
        # irfft(symbol); that column is even, so toeplitz() gives it, symmetric.
        # The FFT's round-off grows with the symbol's size, so it sums only the
        # symbol's remainder after |n|, whose column has a closed form.
        m = domain.m
        remainder = _disk_multipliers(m, s)[0] - np.arange(m // 2 + 1)
        raw = scipy.linalg.toeplitz(np.fft.irfft(remainder, n=m) + _harmonic_column(m))
    return DtnOperator(domain, s, domain.weights[:, None] * raw)


def _harmonic_column(m: int) -> np.ndarray:
    """irfft of the symbol |n| (n = m/2 for the Nyquist mode) in closed form:
    m/4 at 0, 0 at even k, -1 / (m sin^2(pi k/m)) at odd k (argument folded to <= pi/2)."""
    k = np.arange(1, m, 2)
    col = np.zeros(m)
    col[0] = m / 4.0
    col[1::2] = -1.0 / (m * np.sin(np.pi * np.minimum(k, m - k) / m) ** 2)
    return col


def dtn_symbol(domain: Domain, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the trace -> normal-derivative map L_s = dtn_matrix(domain, s) / q,
    one per column of ``dtn_basis(domain)``, and their slopes in s.

    By Hellmann-Feynman, sum(slope * y**2) is the slope in s of an eigenvalue
    of L_s - W whose eigenvector has the unit basis coordinates y.
    """
    _check_guard(domain, s)
    if domain.kind == INTERVAL:
        a, b, da, db = _interval_entries(s)
        return np.array([a + b, a - b]), np.array([da + db, da - db])
    sym, slope = _disk_multipliers(domain.m, s)
    half = domain.m // 2
    return np.concatenate([sym, sym[1:half]]), np.concatenate([slope, slope[1:half]])


_HARMONIC_CACHE: dict[tuple[str, int], np.ndarray] = {}
_BASIS_CACHE: dict[tuple[str, int], np.ndarray] = {}


def dtn_basis(domain: Domain) -> np.ndarray:
    """Orthonormal columns U that diagonalize every Helmholtz DtN of the domain:
    dtn_matrix(domain, s) / q = U diag(dtn_symbol(domain, s)[0]) U^T.

    Disk: cos(n theta) for n = 0 .. m/2 (the last is the Nyquist mode), then
    sin(n theta) for n = 1 .. m/2 - 1, with n k reduced mod m before the angle
    is formed.  Interval: (1, 1) / sqrt 2 and (1, -1) / sqrt 2.  Cached
    read-only per (kind, m).
    """
    key = (domain.kind, domain.m)
    if key not in _BASIS_CACHE:
        if domain.kind == INTERVAL:
            basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        else:
            m, half = domain.m, domain.m // 2
            angles = (2.0 * np.pi / m) * (np.outer(np.arange(m), np.arange(half + 1)) % m)
            basis = np.hstack([np.cos(angles), np.sin(angles[:, 1:half])])
            norm_sq = np.full(m, m / 2.0)
            norm_sq[[0, half]] = m
            basis /= np.sqrt(norm_sq)
        basis.flags.writeable = False
        _BASIS_CACHE[key] = basis
    return _BASIS_CACHE[key]


def dtn_matrix(domain: Domain, s: float = 0.0) -> np.ndarray:
    """Quadrature-absorbed DtN matrix (assembly helper for solvers).

    The harmonic (s = 0) matrix is cached per (kind, m); Helmholtz
    matrices are assembled on every call, because root finds probe a new
    s each time and would never read them back.
    """
    if s != 0.0:
        return assemble_helmholtz_dtn(domain, s).matrix
    key = (domain.kind, domain.m)
    if key not in _HARMONIC_CACHE:
        _HARMONIC_CACHE[key] = assemble_helmholtz_dtn(domain, 0.0).matrix
    return _HARMONIC_CACHE[key]
