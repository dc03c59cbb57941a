import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cptsim.kernels import (
    diag_indices_vec,
    rk4_superop,
    sample_indices,
    transpose_indices,
)
from cptsim.linalg import random_density
from cptsim.models import (
    DriveSpec,
    LambdaParams,
    LindbladModel,
    build_two_scale,
    commutator_superop,
    liouvillian,
)
from cptsim.sim import TRACE_DRIFT_TOL, dt_max


def test_transpose_indices():
    d = 3
    idx = transpose_indices(d)
    m = np.arange(d * d, dtype=np.complex128).reshape(d, d)
    np.testing.assert_array_equal(m.ravel()[idx].reshape(d, d), m.T)


def test_diag_indices_vec():
    d = 4
    idx = diag_indices_vec(d)
    m = np.zeros((d, d))
    m.ravel()[idx] = 1.0
    np.testing.assert_array_equal(m, np.eye(d))


def test_sample_indices_include_endpoints():
    idx = sample_indices(10, 3)
    np.testing.assert_array_equal(idx, [0, 3, 6, 9, 10])
    idx = sample_indices(9, 3)
    np.testing.assert_array_equal(idx, [0, 3, 6, 9])
    idx = sample_indices(5, 100)
    np.testing.assert_array_equal(idx, [0, 5])


def test_rk4_decay_kernel_matches_exponential():
    # plain contraction generator: v' = -a v with known solution
    d = 2
    a = 0.7
    lmat = -a * np.eye(d * d, dtype=np.complex128)
    v0 = (np.eye(d, dtype=np.complex128) / d).ravel()
    # disable renormalization so the raw scheme is visible
    samples, n_renorm, drift = rk4_superop(lmat, v0, 0.01, 100, sample_indices(100, 100), np.inf)
    expected = v0 * np.exp(-a * 1.0)
    np.testing.assert_allclose(samples[-1], expected, atol=1e-9)
    assert n_renorm == 0


def test_rk4_renormalization_counter():
    # trace-shrinking generator trips the drift guard every step
    d = 2
    lmat = -0.5 * np.eye(d * d, dtype=np.complex128)
    v0 = (np.eye(d, dtype=np.complex128) / d).ravel()
    samples, n_renorm, drift = rk4_superop(lmat, v0, 0.01, 50, sample_indices(50, 10), 1e-12)
    assert n_renorm > 0
    traces = samples[:, diag_indices_vec(d)].sum(axis=1).real
    np.testing.assert_allclose(traces, 1.0, atol=1e-12)


def reference_static(lmat, v0, dt, n_steps, sample_idx, trans_idx, diag_idx, renorm_tol):
    """The static RK4 loop as it was before the drive was folded in."""
    d2 = v0.shape[0]
    n_out = sample_idx.shape[0]
    out = np.empty((n_out, d2), dtype=np.complex128)
    v = v0.astype(np.complex128).copy()
    ptr = 0
    if sample_idx[0] == 0:
        out[0] = v
        ptr = 1
    n_renorm = 0
    max_drift = 0.0
    sixth = dt / 6.0
    half = dt / 2.0
    for step in range(1, n_steps + 1):
        k1 = np.dot(lmat, v)
        k2 = np.dot(lmat, v + half * k1)
        k3 = np.dot(lmat, v + half * k2)
        k4 = np.dot(lmat, v + dt * k3)
        v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = 0.5 * (v + np.conj(v[trans_idx]))
        tr = 0.0
        for i in diag_idx:
            tr += v[i].real
        drift = abs(tr - 1.0)
        if drift > max_drift:
            max_drift = drift
        if drift > renorm_tol and tr > 0.5:
            v = v / tr
            n_renorm += 1
        if ptr < n_out and sample_idx[ptr] == step:
            out[ptr] = v
            ptr += 1
    return out, n_renorm, max_drift


def reference_driven(
    l0, l1, u_re, u_im, nu, v0, dt, n_steps, sample_idx, trans_idx, diag_idx, renorm_tol
):
    """The driven RK4 loop as it was, with the drive waveform written inline."""
    d2 = v0.shape[0]
    n_out = sample_idx.shape[0]
    n_tones = u_re.shape[0]
    out = np.empty((n_out, d2), dtype=np.complex128)
    v = v0.astype(np.complex128).copy()
    ptr = 0
    if sample_idx[0] == 0:
        out[0] = v
        ptr = 1
    n_renorm = 0
    max_drift = 0.0
    sixth = dt / 6.0
    half = dt / 2.0
    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        u_a = 0.0
        u_b = 0.0
        u_c = 0.0
        for k in range(n_tones):
            u_a += 2.0 * (u_re[k] * np.cos(nu[k] * t) - u_im[k] * np.sin(nu[k] * t))
            u_b += 2.0 * (u_re[k] * np.cos(nu[k] * (t + half)) - u_im[k] * np.sin(nu[k] * (t + half)))
            u_c += 2.0 * (u_re[k] * np.cos(nu[k] * (t + dt)) - u_im[k] * np.sin(nu[k] * (t + dt)))
        k1 = np.dot(l0, v) + u_a * np.dot(l1, v)
        w = v + half * k1
        k2 = np.dot(l0, w) + u_b * np.dot(l1, w)
        w = v + half * k2
        k3 = np.dot(l0, w) + u_b * np.dot(l1, w)
        w = v + dt * k3
        k4 = np.dot(l0, w) + u_c * np.dot(l1, w)
        v = v + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = 0.5 * (v + np.conj(v[trans_idx]))
        tr = 0.0
        for i in diag_idx:
            tr += v[i].real
        drift = abs(tr - 1.0)
        if drift > max_drift:
            max_drift = drift
        if drift > renorm_tol and tr > 0.5:
            v = v / tr
            n_renorm += 1
        if ptr < n_out and sample_idx[ptr] == step:
            out[ptr] = v
            ptr += 1
    return out, n_renorm, max_drift


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def driven_models(draw):
    n = draw(st.integers(1, 3))
    n_tones = draw(st.integers(1, 2))
    p = LambdaParams(
        detuning=draw(st.lists(st.floats(-2.0, 2.0, **finite), min_size=n, max_size=n)),
        rabi=draw(st.lists(st.complex_numbers(max_magnitude=2.0, **finite), min_size=n, max_size=n)),
        gamma=draw(st.lists(st.floats(0.5, 10.0, **finite), min_size=n, max_size=n)),
    )
    static = build_two_scale(p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h1 = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    drive = DriveSpec(
        h1=h1 + h1.conj().T,
        amplitudes=tuple(
            draw(st.lists(st.complex_numbers(max_magnitude=1.0, **finite), min_size=n_tones, max_size=n_tones))
        ),
        frequencies=tuple(draw(st.lists(st.floats(-100.0, 100.0, **finite), min_size=n_tones, max_size=n_tones))),
    )
    m = LindbladModel(static.hamiltonian, static.jumps, static.output_weights, drive=drive)
    return m, random_density(n + 1, rng)


@settings(deadline=None, max_examples=40)
@given(driven_models(), st.integers(1, 200), st.integers(1, 50), st.floats(0.1, 1.0))
def test_merged_loop_matches_reference_loops(model_and_state, n_steps, sample_every, dt_frac):
    m, rho0 = model_and_state
    dim = m.dim
    dt = dt_frac * dt_max(m)
    v0 = rho0.ravel()
    idx = sample_indices(n_steps, sample_every)
    l0 = liouvillian(m)
    l1 = commutator_superop(m.drive.h1)
    amps = np.asarray(m.drive.amplitudes, dtype=np.complex128)
    got = rk4_superop(l0, v0, dt, n_steps, idx, TRACE_DRIFT_TOL, l1=l1, u=m.drive.u)
    want = reference_driven(
        l0, l1, np.ascontiguousarray(amps.real), np.ascontiguousarray(amps.imag),
        np.asarray(m.drive.frequencies, dtype=np.float64), v0, dt, n_steps, idx,
        transpose_indices(dim), diag_indices_vec(dim), TRACE_DRIFT_TOL,
    )
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    got = rk4_superop(l0, v0, dt, n_steps, idx, TRACE_DRIFT_TOL)
    want = reference_static(
        l0, v0, dt, n_steps, idx, transpose_indices(dim), diag_indices_vec(dim), TRACE_DRIFT_TOL
    )
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


def test_package_exports_resolve():
    import cptsim

    missing = [name for name in cptsim.__all__ if not hasattr(cptsim, name)]
    assert missing == []
    assert cptsim.backend_name() == "numpy"
