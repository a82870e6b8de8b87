import numpy as np
import pytest

from indefbc.domain import (
    BoundaryFunction,
    boundary_integral,
    build_domain,
    volume_l2_norm_sq,
)
from indefbc.errors import ResolutionTooSmall, ShapeMismatch


def test_interval_nodes_and_weights():
    dom = build_domain("interval", 2)
    assert dom.m == 2
    assert np.array_equal(dom.nodes, [0.0, 1.0])
    assert np.array_equal(dom.weights, [1.0, 1.0])


def test_disk_nodes_and_weights():
    dom = build_domain("unit-disk", 8)
    assert np.allclose(dom.nodes, 2.0 * np.pi * np.arange(8) / 8)
    assert np.allclose(dom.weights, np.pi / 4.0)
    assert np.isclose(dom.weights.sum(), 2.0 * np.pi)


@pytest.mark.parametrize("kind,m", [
    ("interval", 3), ("interval", 1),
    ("unit-disk", 6), ("unit-disk", 9), ("triangle", 8),
])
def test_bad_resolutions_rejected(kind, m):
    with pytest.raises(ResolutionTooSmall):
        build_domain(kind, m)


def test_trace_shape_validated(disk16):
    with pytest.raises(ShapeMismatch):
        BoundaryFunction(disk16, np.ones(7))


def test_boundary_integral_exact_for_low_trig(disk16):
    theta = disk16.nodes
    # integral of cos^2 over the circle is pi; degree 2 < M/2 so exact
    assert np.isclose(boundary_integral(disk16, np.cos(theta) ** 2), np.pi,
                      atol=1e-13)
    assert np.isclose(boundary_integral(disk16, np.sin(3 * theta)), 0.0,
                      atol=1e-13)


def test_volume_l2_closed_forms(interval, disk16):
    # disk: extension of cos is x, whose squared integral over the disk is pi/4
    assert np.isclose(volume_l2_norm_sq(disk16, np.cos(disk16.nodes)),
                      np.pi / 4.0, atol=1e-12)
    assert np.isclose(volume_l2_norm_sq(disk16, np.ones(16)), np.pi, atol=1e-12)
    # interval: exact integral of (c + d x)^2 over (0, 1)
    c, d = 0.5, -0.25
    assert np.isclose(volume_l2_norm_sq(interval, np.array([c, c + d])),
                      c * c + c * d + d * d / 3.0, atol=1e-14)


def test_volume_l2_matches_dense_quadrature(disk32):
    """Oracle: integrate the synthesized extension on a fine polar grid."""
    rng = np.random.default_rng(3)
    trace = rng.normal(size=32)
    nr, nt = 400, 720
    r = (np.arange(nr) + 0.5) / nr
    t = 2.0 * np.pi * np.arange(nt) / nt
    coeffs = np.fft.rfft(trace) / 32
    vals = np.full((nr, nt), coeffs[0].real)
    for n in range(1, 16):
        vals += 2.0 * np.outer(r ** n,
                               coeffs[n].real * np.cos(n * t)
                               - coeffs[n].imag * np.sin(n * t))
    quad = float(np.sum(vals ** 2 * r[:, None]) * (1.0 / nr) * (2.0 * np.pi / nt))
    assert np.isclose(volume_l2_norm_sq(disk32, trace), quad, rtol=1e-4)
