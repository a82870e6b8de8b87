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

from .domain import INTERVAL, Domain, as_values
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

    def apply_normal_derivative(self, trace) -> np.ndarray:
        """Outward normal derivative values of the extension (Q removed)."""
        values = as_values(self.domain, trace)
        return (self.matrix @ values) / self.domain.weights


def _disk_multipliers(m: int, s: float) -> np.ndarray:
    """Per-mode symbol of the disk DtN for modes n = 0 .. m/2.

    Mode n has symbol n - eta_n, eta_n = t J_{n+1}(t)/J_n(t) for s = t^2
    (-t I_{n+1}/I_n for s = -t^2), and eta_{n-1} = s / (2n - eta_n) for
    either sign.  Run backward from eta = 0 (Miller), this is stable where
    Bessel ratios underflow; the start error decays like exp(-k^2/t) over
    k modes, hence the padding.  The Nyquist entry n = m/2 is the symbol of
    cos(m theta / 2), the one mode of that frequency the nodes carry.
    """
    half = m // 2
    start = half + 40 + int(6.0 * abs(s) ** 0.25)
    eta = np.zeros(half + 1)
    e = 0.0
    for n in range(start, 0, -1):
        e = s / (2.0 * n - e)
        if n <= half + 1:
            eta[n - 1] = e
    return np.arange(half + 1) - eta


def _interval_matrix(s: float) -> np.ndarray:
    if s == 0.0:
        a, b = 1.0, -1.0
    elif s > 0.0:
        t = np.sqrt(s)
        a = t * np.cos(t) / np.sin(t)
        b = -t / np.sin(t)
    else:
        t = np.sqrt(-s)
        a = t * np.cosh(t) / np.sinh(t)
        b = -t / np.sinh(t)
    return np.array([[a, b], [b, a]])


def assemble_dtn(domain: Domain) -> DtnOperator:
    """Harmonic (s = 0) DtN operator."""
    return assemble_helmholtz_dtn(domain, 0.0)


def assemble_helmholtz_dtn(domain: Domain, s: float) -> DtnOperator:
    """DtN operator of the Helmholtz extension -Delta u = s u.

    ``s`` must lie below the first interior Dirichlet eigenvalue by at
    least the pole guard; negative s (modified-Bessel regime) is allowed.
    """
    limit = first_dirichlet_eigenvalue(domain)
    if s > limit - DIRICHLET_GUARD:
        raise SpectralParameterOutOfRange(
            f"s={s} within guard of the Dirichlet eigenvalue {limit}"
        )
    if domain.kind == INTERVAL:
        raw = _interval_matrix(s)
    else:
        # collocation matrix of the symbol: the circulant with first column
        # irfft(symbol); that column is even, so toeplitz() gives it, symmetric
        raw = scipy.linalg.toeplitz(np.fft.irfft(_disk_multipliers(domain.m, s), n=domain.m))
    return DtnOperator(domain, s, domain.weights[:, None] * raw)


def dirichlet_energy(dtn: DtnOperator, trace) -> float:
    """Interior Dirichlet energy of the harmonic extension, <w, Q L w>."""
    if dtn.s != 0.0:
        raise SpectralParameterOutOfRange("Dirichlet energy requires the s=0 operator")
    values = as_values(dtn.domain, trace)
    return float(values @ dtn.matrix @ values)


_HARMONIC_CACHE: dict[tuple[str, int], np.ndarray] = {}


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
