"""Indefinite weight constructions: g_delta families and plateau weights."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import DISK, Domain, as_values, boundary_integral
from .errors import DeltaBelowThreshold, ShapeMismatch


@dataclass(frozen=True)
class WeightFamily:
    """The family g_delta = g_plus - delta * g_minus of a sign-changing g.

    delta0 = (integral of g_plus) / (integral of g_minus) is the critical
    ratio below which the family loses its negative-average character;
    instances require delta > delta0, which makes the integral of g_delta
    negative.
    """

    domain: Domain
    g: np.ndarray = field(repr=False)
    g_plus: np.ndarray = field(repr=False)
    g_minus: np.ndarray = field(repr=False)
    delta0: float
    delta: float
    g_delta: np.ndarray = field(repr=False)


def build_family(domain: Domain, g, delta: float) -> WeightFamily:
    """Instantiate g_delta = g_plus - delta * g_minus for delta > delta0."""
    gv = as_values(domain, g)
    g_plus = np.maximum(gv, 0.0)
    g_minus = np.maximum(-gv, 0.0)
    int_plus = boundary_integral(domain, g_plus)
    int_minus = boundary_integral(domain, g_minus)
    if int_plus <= 0.0 or int_minus <= 0.0:
        raise ShapeMismatch("the base weight must change sign")
    delta0 = int_plus / int_minus
    if delta <= delta0:
        raise DeltaBelowThreshold(f"delta={delta} must exceed delta0={delta0}")
    g_delta = g_plus - delta * g_minus
    return WeightFamily(domain, gv, g_plus, g_minus, delta0, delta, g_delta)


def _smoothstep(x: np.ndarray) -> np.ndarray:
    t = np.clip(x, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def trig_weight(domain: Domain, terms, plateaus=None,
                transition_width: float = 0.05) -> np.ndarray:
    """Disk weight from trigonometric-polynomial terms with zero plateaus.

    ``terms`` is a list of (mode, cosine-coeff, sine-coeff) triples and
    ``plateaus`` a list of angle intervals (lo, hi) where the weight is
    forced to zero, blended cubically over ``transition_width`` radians
    on each side.  Intervals are taken on the circle (lo < hi allows any
    real representatives; the arc runs counterclockwise from lo to hi).
    """
    if domain.kind != DISK:
        raise ShapeMismatch("trigonometric weights are defined on the disk")
    theta = domain.nodes
    values = np.zeros_like(theta)
    for mode, a, b in terms:
        values += a * np.cos(mode * theta) + b * np.sin(mode * theta)
    for lo, hi in (plateaus or ()):
        arc = (hi - lo) % (2.0 * np.pi)
        pos = (theta - lo) % (2.0 * np.pi)
        inside = pos <= arc
        # circular distance from theta to the plateau arc, zero inside
        dist = np.where(inside, 0.0, np.minimum((pos - arc) % (2.0 * np.pi),
                                                (-pos) % (2.0 * np.pi)))
        values *= _smoothstep(dist / transition_width)
    return values

