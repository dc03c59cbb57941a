import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptsim.kernels import STAGE_CHUNK_BYTES, rk4_increment, rk4_superop, sample_indices
from cptsim.linalg import herm_to_vec, random_density, real_superop, vec_to_herm
from cptsim.models import (
    DriveSpec,
    LambdaParams,
    LindbladModel,
    ThreeScaleParams,
    build_three_scale,
    build_two_scale,
    commutator_superop,
    liouvillian,
)
from cptsim.reduction import embed_ground
from cptsim.sim import TRACE_DRIFT_TOL, dt_max, integrate
from lindblad_reference import generator_apply


def transpose_indices(dim: int) -> np.ndarray:
    """Index map sending row-major vec(rho) to vec(rho^T), for the complex reference loops."""
    return np.arange(dim * dim, dtype=np.int64).reshape(dim, dim).T.ravel()


def diag_indices_vec(dim: int) -> np.ndarray:
    """Positions of the matrix diagonal inside row-major vec(rho)."""
    return np.arange(dim, dtype=np.int64) * (dim + 1)


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


def test_rk4_superop_requires_samples_from_start_to_end():
    lmat = -np.eye(4)
    v0 = herm_to_vec(np.eye(2) / 2)
    for idx in ([1, 5, 10], [0, 5], [0, 5, 10, 12]):
        with pytest.raises(ValueError, match="sample_idx"):
            rk4_superop(lmat, v0, 0.01, 10, np.array(idx), 1e-12)


def test_rk4_decay_kernel_matches_exponential():
    # plain contraction generator: v' = -a v with known solution
    d = 2
    a = 0.7
    lmat = -a * np.eye(d * d)
    v0 = herm_to_vec(np.eye(d) / d)
    # disable renormalization so the raw scheme is visible
    samples, n_renorm, drift = rk4_superop(lmat, v0, 0.01, 100, sample_indices(100, 100), np.inf)
    expected = v0 * np.exp(-a * 1.0)
    np.testing.assert_allclose(samples[-1], expected, atol=1e-9)
    assert n_renorm == 0


def test_rk4_renormalization_counter():
    # trace-shrinking generator trips the drift guard every step
    d = 2
    lmat = -0.5 * np.eye(d * d)
    v0 = herm_to_vec(np.eye(d) / d)
    samples, n_renorm, drift = rk4_superop(lmat, v0, 0.01, 50, sample_indices(50, 10), 1e-12)
    assert n_renorm > 0
    traces = samples[:, :d].sum(axis=1)
    np.testing.assert_allclose(traces, 1.0, atol=1e-12)


def reference_static(lmat, v0, dt, n_steps, sample_idx, trans_idx, diag_idx, renorm_tol):
    """The per-step static RK4 loop, projecting and checking the trace after every step."""
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
def lambda_params(draw):
    n = draw(st.integers(1, 3))
    return LambdaParams(
        detuning=draw(st.lists(st.floats(-2.0, 2.0, **finite), min_size=n, max_size=n)),
        rabi=draw(st.lists(st.complex_numbers(max_magnitude=2.0, **finite), min_size=n, max_size=n)),
        gamma=draw(st.lists(st.floats(0.5, 10.0, **finite), min_size=n, max_size=n)),
    )


@st.composite
def driven_models(draw):
    static = build_two_scale(draw(lambda_params()))
    n_tones = draw(st.integers(1, 2))
    dim = static.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h1 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    drive = DriveSpec(
        h1=h1 + h1.conj().T,
        amplitudes=tuple(
            draw(st.lists(st.complex_numbers(max_magnitude=1.0, **finite), min_size=n_tones, max_size=n_tones))
        ),
        frequencies=tuple(draw(st.lists(st.floats(-100.0, 100.0, **finite), min_size=n_tones, max_size=n_tones))),
    )
    m = LindbladModel(static.hamiltonian, static.jumps, drive=drive)
    return m, random_density(dim, rng)


@settings(deadline=None, max_examples=40)
@given(driven_models(), st.integers(1, 800), st.integers(1, 400), st.floats(0.1, 1.0))
def test_driven_loop_matches_reference_loop(model_and_state, n_steps, sample_every, dt_frac):
    m, rho0 = model_and_state
    dim = m.dim
    dt = dt_frac * dt_max(m)
    rho0 = vec_to_herm(herm_to_vec(rho0), dim)
    idx = sample_indices(n_steps, sample_every)
    l0 = liouvillian(m)
    l1 = commutator_superop(m.drive.h1)
    amps = np.asarray(m.drive.amplitudes, dtype=np.complex128)
    got = rk4_superop(
        real_superop(l0), herm_to_vec(rho0), dt, n_steps, idx, TRACE_DRIFT_TOL,
        l1=real_superop(l1), u=m.drive.u,
    )
    want = reference_driven(
        l0, l1, np.ascontiguousarray(amps.real), np.ascontiguousarray(amps.imag),
        np.asarray(m.drive.frequencies, dtype=np.float64), rho0.ravel(), dt, n_steps, idx,
        transpose_indices(dim), diag_indices_vec(dim), TRACE_DRIFT_TOL,
    )
    # chunks of 682 steps at dim 2 and 42 at dim 4, so runs cross chunk boundaries
    np.testing.assert_allclose(vec_to_herm(got[0], dim), want[0].reshape(-1, dim, dim), rtol=0.0, atol=1e-12)
    assert got[1] == want[1]
    assert got[2] <= TRACE_DRIFT_TOL and want[2] <= TRACE_DRIFT_TOL


@settings(deadline=None, max_examples=100)
@given(driven_models())
def test_real_generators_match_generator_apply(model_and_state):
    # the kernel's generators: the Lindblad part and the drive term [H1, .] in real coordinates
    m, rho = model_and_state
    rho = vec_to_herm(herm_to_vec(rho), m.dim)
    static = LindbladModel(m.hamiltonian, m.jumps)
    drive = LindbladModel(m.drive.h1, ())
    for model, lmat in ((static, liouvillian(static)), (drive, commutator_superop(m.drive.h1))):
        got = vec_to_herm(real_superop(lmat) @ herm_to_vec(rho), m.dim)
        want = generator_apply(model, rho)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(deadline=None, max_examples=60)
@given(lambda_params(), st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(1, 60),
       st.floats(0.1, 1.0))
def test_static_propagator_matches_reference_loop(p, seed, n_steps, sample_every, dt_frac):
    m = build_two_scale(p)
    dim = m.dim
    dt = dt_frac * dt_max(m)
    v0 = herm_to_vec(random_density(dim, np.random.default_rng(seed)))
    idx = sample_indices(n_steps, sample_every)
    l0 = liouvillian(m)
    got, _, _ = rk4_superop(real_superop(l0), v0, dt, n_steps, idx, TRACE_DRIFT_TOL)
    want, _, _ = reference_static(
        l0, vec_to_herm(v0, dim).ravel(), dt, n_steps, idx, transpose_indices(dim),
        diag_indices_vec(dim), TRACE_DRIFT_TOL,
    )
    np.testing.assert_allclose(vec_to_herm(got, dim), want.reshape(-1, dim, dim), rtol=0.0, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(lambda_params(), st.floats(0.1, 1.0))
def test_rk4_increment_preserves_trace_and_hermiticity(p, dt_frac):
    m = build_two_scale(p)
    dim = m.dim
    l0 = liouvillian(m)
    dt = dt_frac * dt_max(m)
    a = dt * l0
    eye = np.eye(dim * dim)
    step = eye + a + a @ a / 2.0 + a @ a @ a / 6.0 + a @ a @ a @ a / 24.0
    transposed = transpose_indices(dim)
    for k in (1, 2, 7, 48, 4000):
        q = rk4_increment(l0, dt, k)
        # vec(I)^T Q_k = 0: the trace of v + Q_k v is the trace of v
        np.testing.assert_allclose(q[diag_indices_vec(dim)].sum(axis=0), 0.0, atol=1e-12)
        # Q_k vec(rho^dag) = (Q_k vec(rho))^dag
        np.testing.assert_allclose(q[np.ix_(transposed, transposed)], q.conj(), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(eye + q, np.linalg.matrix_power(step, k), rtol=0.0, atol=1e-12)


def test_driven_run_memory_is_bounded_by_the_chunk():
    # four ground states: dim 5, so a chunk holds 17 steps of stage generators
    p3 = ThreeScaleParams(
        lambda_e=200.0,
        lambda_g=(0.0, 0.1, 0.2, 0.3),
        mu=(1.0, 0.9, 0.8, 0.7),
        u_amp=(0.5, 0.4, 0.3, 0.2),
        detuning=(0.0, 0.1, -0.1, 0.2),
        gamma=(5.0, 4.0, 3.0, 2.0),
    )
    m = build_three_scale(p3)
    rho0 = embed_ground(np.eye(4, dtype=np.complex128) / 4)
    dt = dt_max(m)
    peaks = []
    for n_steps in (2_000, 20_000):
        tracemalloc.start()
        try:
            traj = integrate(m, rho0, n_steps * dt, dt, sample_every=n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.meta["n_steps"] == n_steps
        assert peak < 4 * STAGE_CHUNK_BYTES
        peaks.append(peak)
    # ten times the steps, the same peak: nothing is held for the whole run
    assert peaks[1] <= 1.1 * peaks[0]


def test_non_finite_state_is_recorded_as_nan_drift():
    d = 2
    lmat = np.full((d * d, d * d), np.nan)
    v0 = herm_to_vec(np.eye(d) / d)
    idx = sample_indices(10, 5)
    static = rk4_superop(lmat, v0, 0.01, 10, idx, 1e-12)
    driven = rk4_superop(lmat, v0, 0.01, 10, idx, 1e-12, l1=np.zeros_like(lmat), u=lambda t: 0.0 * t)
    for samples, n_renorm, drift in (static, driven):
        assert np.isnan(drift)
        assert n_renorm == 0
        assert np.isnan(samples[-1]).all()


def test_package_exports_resolve():
    import cptsim

    missing = [name for name in cptsim.__all__ if not hasattr(cptsim, name)]
    assert missing == []
    assert cptsim.backend_name() == "numpy"
