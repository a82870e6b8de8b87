"""Boundary geometry, quadrature, and trace containers.

Two desk-scale domains are supported: the unit interval (0, 1), whose
boundary is the two points {0, 1}, and the unit disk, whose boundary is
discretized by M equispaced angular collocation nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResolutionTooSmall, ShapeMismatch

INTERVAL = "interval"
DISK = "unit-disk"

_DISK_ALIASES = {"disk", "unit-disk", "unit_disk"}


@dataclass(frozen=True)
class Domain:
    """Boundary discretization of the interval or the unit disk.

    ``nodes`` are boundary coordinates: {0, 1} for the interval, angles
    2*pi*k/M for the disk.  ``weights`` carry the arc-length quadrature:
    (1, 1) for the interval, 2*pi/M each for the disk.
    """

    kind: str
    m: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def build_domain(kind: str, m: int) -> Domain:
    """Build a boundary discretization with its quadrature weights.

    The interval requires m == 2; the disk requires m >= 8 and even.  The
    disk's volume norm drops the Nyquist mode n = m/2:
    its sine part vanishes at every node, so the nodal values do not fix
    its extension.
    """
    if kind == INTERVAL:
        if m != 2:
            raise ResolutionTooSmall(f"interval boundary needs m == 2, got {m}")
        nodes = np.array([0.0, 1.0])
        weights = np.array([1.0, 1.0])
        return Domain(INTERVAL, 2, nodes, weights)
    if kind in _DISK_ALIASES:
        if m < 8:
            raise ResolutionTooSmall(f"disk boundary needs m >= 8, got {m}")
        if m % 2 != 0:
            raise ResolutionTooSmall(f"disk boundary needs even m, got {m}")
        nodes = 2.0 * np.pi * np.arange(m) / m
        weights = np.full(m, 2.0 * np.pi / m)
        return Domain(DISK, m, nodes, weights)
    raise ResolutionTooSmall(f"unknown domain kind {kind!r}")


def as_values(domain: Domain, bf) -> np.ndarray:
    """Coerce a trace (array-like or BoundaryFunction) to a validated vector."""
    values = np.asarray(getattr(bf, "values", bf), dtype=float)
    if values.shape != (domain.m,):
        raise ShapeMismatch(
            f"trace of shape {values.shape} on domain with {domain.m} boundary nodes"
        )
    return values


@dataclass(frozen=True)
class BoundaryFunction:
    """Real-valued trace on the boundary nodes of a domain."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_values(self.domain, self.values))


def boundary_integral(domain: Domain, bf) -> float:
    """Quadrature value of the boundary integral of a trace.

    Exact for disk trigonometric polynomials of degree < M/2.
    """
    values = as_values(domain, bf)
    return float(domain.weights @ values)


def volume_l2_norm_sq(domain: Domain, trace) -> float:
    """Interior L2 norm squared of the harmonic extension, per-mode analytic.

    Interval: exact integral of the linear interpolant squared.  Disk: the
    mode-n coefficient pair contributes through int_0^1 r^(2|n|+1) dr.
    """
    values = as_values(domain, trace)
    if domain.kind == INTERVAL:
        c = values[0]
        d = values[1] - values[0]
        return float(c * c + c * d + d * d / 3.0)
    m = domain.m
    coeffs = np.fft.rfft(values) / m
    total = np.pi * abs(coeffs[0]) ** 2  # 2*pi * |c0|^2 * int r dr
    for n in range(1, m // 2):
        total += 2.0 * np.pi * 2.0 * abs(coeffs[n]) ** 2 / (2 * n + 2)
    return float(total)
