import numpy as np
import pytest

from indefbc.domain import boundary_integral, build_domain
from indefbc.errors import DeltaBelowThreshold, ShapeMismatch
from indefbc.weights import build_family, trig_weight


def test_delta0_closed_form_on_interval(interval):
    family = build_family(interval, np.array([1.0, -2.0]), delta=0.9)
    assert family.delta0 == pytest.approx(0.5)
    assert np.array_equal(family.g_plus, [1.0, 0.0])
    assert np.array_equal(family.g_minus, [0.0, 2.0])
    assert np.array_equal(family.g_delta, [1.0, -1.8])
    assert list(family.gamma_plus) == [0]
    assert list(family.gamma_minus) == [1]
    assert list(family.gamma_zero) == []


def test_family_integral_negative_and_increasing_to_zero(disk16):
    g = np.cos(disk16.nodes) - 0.3
    delta0 = build_family(disk16, g, 10.0).delta0
    integrals = []
    for delta in (3.0, 2.0, 1.3 * delta0, 1.01 * delta0):
        family = build_family(disk16, g, delta)
        integrals.append(boundary_integral(disk16, family.g_delta))
    assert all(v < 0.0 for v in integrals)
    assert all(a < b for a, b in zip(integrals, integrals[1:]))
    assert integrals[-1] > -1e-1  # approaches zero from below at delta0


def test_family_requires_sign_change_and_supercritical_delta(interval):
    with pytest.raises(ShapeMismatch):
        build_family(interval, np.array([1.0, 2.0]), delta=2.0)
    with pytest.raises(DeltaBelowThreshold):
        build_family(interval, np.array([1.0, -2.0]), delta=0.5)  # delta0 itself


def test_index_sets_partition_the_nodes(disk16):
    g = np.cos(disk16.nodes)  # vanishes (to rounding) at theta = pi/2, 3pi/2
    family = build_family(disk16, g, delta=2.0)
    merged = np.sort(np.concatenate([family.gamma_plus, family.gamma_minus,
                                     family.gamma_zero]))
    assert np.array_equal(merged, np.arange(16))
    assert len(family.gamma_zero) == 2


# ---------------------------------------------------------------------------
# trigonometric plateau weights
# ---------------------------------------------------------------------------

def test_trig_weight_matches_polynomial_without_plateaus(disk16):
    vals = trig_weight(disk16, [(1, 1.0, 0.0), (2, 0.0, -0.5)])
    theta = disk16.nodes
    assert np.allclose(vals, np.cos(theta) - 0.5 * np.sin(2 * theta), atol=1e-15)


def test_trig_weight_zero_on_plateau_and_smooth_nearby():
    dom = build_domain("unit-disk", 256)
    width = 0.1
    vals = trig_weight(dom, [(1, 1.0, 0.0)], plateaus=[(1.0, 1.5)],
                       transition_width=width)
    theta = dom.nodes
    on_plateau = (theta >= 1.0) & (theta <= 1.5)
    assert np.all(vals[on_plateau] == 0.0)
    far = (theta < 1.0 - width - 1e-9) | (theta > 1.5 + width + 1e-9)
    assert np.allclose(vals[far], np.cos(theta[far]), atol=1e-15)
    # blended region interpolates between zero and the polynomial
    blend = ~on_plateau & ~far
    ratios = vals[blend] / np.cos(theta[blend])
    assert np.all((ratios >= 0.0) & (ratios <= 1.0))


def test_trig_weight_plateau_wraps_around_zero_angle():
    dom = build_domain("unit-disk", 64)
    vals = trig_weight(dom, [(1, 0.0, 1.0)], plateaus=[(-0.3, 0.3)],
                       transition_width=0.05)
    near_zero = np.abs(np.angle(np.exp(1j * dom.nodes))) <= 0.3
    assert np.all(vals[near_zero] == 0.0)


def test_trig_weight_rejects_interval(interval):
    with pytest.raises(ShapeMismatch):
        trig_weight(interval, [(1, 1.0, 0.0)])

