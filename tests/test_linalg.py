import numpy as np
import pytest

from cptsim.linalg import (
    commutator,
    dissipator,
    frobenius_distance,
    frobenius_norm,
    hermiticity_error,
    hermitian_part,
    random_density,
    random_hermitian,
    spectral_norm_hermitian,
    validate_density,
)


def test_commutator_traceless():
    rng = np.random.default_rng(0)
    h = random_hermitian(5, rng)
    rho = random_density(5, rng)
    c = commutator(h, rho)
    assert abs(np.trace(c)) < 1e-13
    # i[H, rho] is Hermitian
    assert hermiticity_error(1j * c) < 1e-14


def test_dissipator_traceless_and_hermitian():
    rng = np.random.default_rng(1)
    rho = random_density(4, rng)
    q = np.zeros((4, 4), dtype=np.complex128)
    q[2, 0] = 1.0
    d = dissipator(q, rho)
    assert abs(np.trace(d)) < 1e-14
    assert hermiticity_error(d) < 1e-14


def test_hermitian_part():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = hermitian_part(m)
    assert hermiticity_error(h) < 1e-15


def test_validate_density_accepts_valid_states():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 5, 8):
        report = validate_density(random_density(dim, rng))
        assert report.ok, report


def test_validate_density_rejects_bad_trace():
    rho = np.eye(3, dtype=np.complex128)
    report = validate_density(rho)
    assert not report.ok
    assert report.trace_deviation > 1.0


def test_validate_density_rejects_non_hermitian():
    rho = np.eye(2, dtype=np.complex128) / 2
    rho[0, 1] = 0.1
    report = validate_density(rho)
    assert not report.ok


def test_validate_density_rejects_negative_eigenvalue():
    rho = np.diag([1.5, -0.5]).astype(np.complex128)
    report = validate_density(rho)
    assert not report.ok
    assert report.min_eigenvalue < -0.4


def test_frobenius_norms():
    a = np.array([[3.0, 0.0], [0.0, 4.0]], dtype=np.complex128)
    assert frobenius_norm(a) == 5.0
    assert frobenius_distance(a, a) == 0.0
    b = np.zeros_like(a)
    assert frobenius_distance(a, b) == 5.0


def test_spectral_norm_hermitian():
    rng = np.random.default_rng(4)
    h = random_hermitian(6, rng)
    expected = np.abs(np.linalg.eigvalsh(h)).max()
    assert spectral_norm_hermitian(h) == pytest.approx(expected, rel=1e-12)


def test_random_density_properties():
    rng = np.random.default_rng(6)
    rho = random_density(7, rng)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-14
