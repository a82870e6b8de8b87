import tracemalloc
import warnings

import numpy as np
import pytest

from indefbc.domain import build_domain
from indefbc.dtn import (
    DIRICHLET_GUARD,
    _disk_multipliers,
    _interval_entries,
    assemble_helmholtz_dtn,
    dtn_basis,
    dtn_matrix,
    dtn_symbol,
    first_dirichlet_eigenvalue,
)
from indefbc.errors import SpectralParameterOutOfRange


def test_interval_harmonic_matrix_is_exact(interval):
    """The disk's circulant assembly at m = 2 gives the interval's closed form
    [[1, -1], [-1, 1]] to the bit, and its basis (1, 1) / sqrt 2, (1, -1) / sqrt 2."""
    assert np.array_equal(dtn_matrix(interval), [[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(dtn_basis(interval), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))


def test_interval_helmholtz_closed_form(interval):
    # at s = (pi/2)^2 the matrix is (pi/2) * [[0, -1], [-1, 0]]
    s = np.pi ** 2 / 4.0
    assert np.allclose(dtn_matrix(interval, s),
                       (np.pi / 2.0) * np.array([[0.0, -1.0], [-1.0, 0.0]]),
                       atol=1e-13)
    # hyperbolic regime closed form at s = -1
    t = 1.0
    expect = (t / np.sinh(t)) * np.array([[np.cosh(t), -1.0],
                                          [-1.0, np.cosh(t)]])
    assert np.allclose(dtn_matrix(interval, -1.0), expect, atol=1e-13)


def test_interval_matrix_finite_far_below_zero(interval):
    """t cosh t / sinh t overflows to inf/inf for t > 710; the matrix must not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mat = dtn_matrix(interval, -1e7)
    assert np.all(np.isfinite(mat))
    assert np.isclose(mat[0, 0], np.sqrt(1e7), rtol=1e-14) and mat[0, 1] == 0.0


_SLOPE_POINTS = (-5.0, -1e-6, 0.0, 1e-6, 0.7, 5.0)


def test_symbol_slope_matches_central_differences():
    """The recurrence's slope (disk, per mode) and the closed-form or series
    slopes (interval entries) against central differences of the symbol."""
    h = 1e-5
    for m in (16, 128):
        for s in _SLOPE_POINTS:
            slope = _disk_multipliers(m, s)[1]
            diff = (_disk_multipliers(m, s + h)[0] - _disk_multipliers(m, s - h)[0]) / (2 * h)
            assert np.allclose(slope, diff, rtol=1e-7, atol=1e-8)
    for s in _SLOPE_POINTS:
        slope = np.array(_interval_entries(s)[2:])
        diff = (np.array(_interval_entries(s + h)[:2])
                - np.array(_interval_entries(s - h)[:2])) / (2 * h)
        assert np.allclose(slope, diff, rtol=1e-7, atol=1e-8)


def test_basis_diagonalizes_helmholtz_dtn(interval):
    """U is orthonormal and U diag(sigma_s) U^T is the assembled L_s =
    dtn_matrix(domain, s) / q for s from -1e7 up to the guard; sum(sigma'_s
    (U^T v)^2) is d/ds of v.L_s v by central differences of the assembled
    matrices up to 1e-3 below the pole, where the closed forms' round-off
    still leaves the differences 1e-7 accurate."""
    rng = np.random.default_rng(3)
    for dom in (interval,) + tuple(build_domain("unit-disk", m) for m in (8, 16, 128, 512)):
        basis = dtn_basis(dom)
        assert np.abs(basis.T @ basis - np.eye(dom.m)).max() <= 1e-13
        limit = first_dirichlet_eigenvalue(dom)
        points = (-1e7, -5.0, -1e-6, 0.0, 1e-6, 0.7, 5.0, limit - 1e-3)
        for s in points + (limit - DIRICHLET_GUARD,):
            sym = dtn_symbol(dom, s)[0]
            mat = dtn_matrix(dom, s) / dom.weights[:, None]
            assert np.abs(basis @ np.diag(sym) @ basis.T - mat).max() <= 1e-13 * np.abs(sym).max()
        v = rng.normal(size=dom.m)
        for s in points:
            h = 1e-4 * min(max(1.0, abs(s)), limit - s)
            plus = dtn_matrix(dom, s + h) / dom.weights[:, None]
            minus = dtn_matrix(dom, s - h) / dom.weights[:, None]
            diff = float(v @ (plus - minus) @ v) / (2 * h)
            slope = float(dtn_symbol(dom, s)[1] @ (basis.T @ v) ** 2)
            assert abs(slope - diff) < 1e-7 * (1.0 + abs(diff))


def test_disk_normal_derivative_is_mode_multiplier(disk16):
    mat = dtn_matrix(disk16)
    for n in (1, 3, 5, 8):  # n = 8 is the Nyquist mode, alternating +-1
        trace = np.cos(n * disk16.nodes)
        out = (mat @ trace) / disk16.weights
        assert np.allclose(out, n * trace, atol=1e-12)
    # constants are harmonic with zero normal derivative
    assert np.allclose((mat @ np.ones(16)) / disk16.weights, 0.0, atol=1e-13)


def test_matrix_is_symmetric_and_conserves_flux(disk16, interval):
    for dom in (disk16, interval):
        for s in (0.0, 1.5, -2.0):
            mat = dtn_matrix(dom, s)
            assert np.array_equal(mat, mat.T)
    # harmonic extensions have zero total boundary flux
    assert np.allclose(dtn_matrix(disk16) @ np.ones(16), 0.0, atol=1e-13)


def test_harmonic_matrix_is_exactly_symmetric(interval):
    """The cached s = 0 matrix equals its transpose to the bit, so its transpose
    view is the same matrix in Fortran order (the Jacobian copy relies on it)."""
    for dom in (interval, *(build_domain("unit-disk", m) for m in (16, 128, 512))):
        mat = dtn_matrix(dom)
        assert np.array_equal(mat, mat.T)


def test_dirichlet_energy_closed_forms(interval, disk16):
    # extension of cos is x; its Dirichlet integral over the disk is pi
    v = np.cos(disk16.nodes)
    assert np.isclose(v @ dtn_matrix(disk16) @ v, np.pi, atol=1e-12)
    # linear extension with slope d has energy d^2
    v = np.array([0.5, 0.25])
    assert np.isclose(v @ dtn_matrix(interval) @ v, 0.25 ** 2, atol=1e-14)


def test_dirichlet_energy_matches_gradient_quadrature(disk32):
    """Oracle: finite-difference gradient of the extension on a polar grid."""
    rng = np.random.default_rng(5)
    coeffs = np.zeros(17, dtype=complex)
    coeffs[0] = rng.normal()
    coeffs[1:7] = rng.normal(size=6) + 1j * rng.normal(size=6)
    trace = np.fft.irfft(coeffs * 32, n=32)
    nr, nt = 3000, 1024
    r = (np.arange(nr) + 0.5) / nr
    t = 2.0 * np.pi * np.arange(nt) / nt
    dvr = np.zeros((nr, nt))
    dvt = np.zeros((nr, nt))
    for n in range(1, 16):
        ang = coeffs[n].real * np.cos(n * t) - coeffs[n].imag * np.sin(n * t)
        dang = -n * (coeffs[n].real * np.sin(n * t) + coeffs[n].imag * np.cos(n * t))
        dvr += 2.0 * n * np.outer(r ** (n - 1), ang)
        dvt += 2.0 * np.outer(r ** n, dang)
    grad_sq = dvr ** 2 + (dvt / r[:, None]) ** 2
    quad = float(np.sum(grad_sq * r[:, None]) * (1.0 / nr) * (2.0 * np.pi / nt))
    energy = trace @ dtn_matrix(disk32) @ trace
    assert np.isclose(energy, quad, rtol=1e-4)


def test_quadratic_form_decreasing_in_s(interval, disk16):
    # d/ds <w, A_s w> = -int u_s^2 < 0: the form strictly decreases in s
    for dom, trace in ((interval, np.array([1.0, 0.3])),
                       (disk16, np.cos(disk16.nodes) + 0.5)):
        values = []
        for s in (-4.0, -1.0, 0.0, 1.0, 2.0):
            mat = dtn_matrix(dom, s)
            values.append(float(trace @ mat @ trace))
        assert all(a > b for a, b in zip(values, values[1:]))


def test_parameter_pole_guard(interval, disk16):
    assert np.isclose(first_dirichlet_eigenvalue(interval), np.pi ** 2)
    assert np.isclose(first_dirichlet_eigenvalue(disk16), 2.404825557695773 ** 2)
    for dom in (interval, disk16):
        with pytest.raises(SpectralParameterOutOfRange):
            dtn_matrix(dom, first_dirichlet_eigenvalue(dom))


def test_matrix_cache_consistency(disk16):
    direct = assemble_helmholtz_dtn(disk16, 0.7).matrix
    assert np.array_equal(dtn_matrix(disk16, 0.7), direct)
    assert np.array_equal(dtn_matrix(disk16, 0.7), dtn_matrix(disk16, 0.7))


def test_matrix_cache_keeps_only_the_harmonic_matrix(disk32):
    harmonic = dtn_matrix(disk32)
    assert dtn_matrix(disk32, 0.0) is harmonic
    points = [float(s) for s in np.linspace(-3.0, 3.0, 64)]
    for s in points:  # untraced: scipy's first toeplitz calls leave temporaries
        dtn_matrix(disk32, s)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in points:
            dtn_matrix(disk32, s)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < harmonic.nbytes  # no Helmholtz matrix stays cached
    assert dtn_matrix(disk32) is harmonic
