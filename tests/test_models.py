import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptsim.linalg import hermiticity_error, random_density
from cptsim.models import (
    DriveSpec,
    LambdaParams,
    LindbladModel,
    ThreeScaleParams,
    build_three_scale,
    build_two_scale,
    effective_hamiltonian,
    liouvillian,
    rwa_effective,
    slow_timescale,
)
from cptsim.sim import integrate
from lindblad_reference import generator_apply, hamiltonian_at

FOUR_LEVEL = LambdaParams(
    detuning=(0.5, 1.2, 0.7, 1.0),
    rabi=(1.0, 1.2, 1.1, 1.3),
    gamma=(5.0, 4.0, 7.0, 5.0),
)


def test_lambda_params_basic():
    assert FOUR_LEVEL.n_ground == 4
    assert FOUR_LEVEL.total_gamma == 21.0
    assert FOUR_LEVEL.rabi_power == pytest.approx(5.34)


def test_lambda_params_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        LambdaParams(detuning=(0.0,), rabi=(1.0,), gamma=(0.0,))
    with pytest.raises(ValueError):
        LambdaParams(detuning=(0.0,), rabi=(1.0,), gamma=(-1.0,))


def test_lambda_params_rejects_length_mismatch():
    with pytest.raises(ValueError):
        LambdaParams(detuning=(0.0, 1.0), rabi=(1.0,), gamma=(1.0, 1.0))


def test_slow_timescale_value():
    # total decay 21 over drive power 5.34
    assert slow_timescale(FOUR_LEVEL) == pytest.approx(21.0 / 5.34, rel=1e-14)


def test_effective_hamiltonian_layout():
    h = effective_hamiltonian(FOUR_LEVEL)
    assert h.shape == (5, 5)
    assert hermiticity_error(h) < 1e-15
    np.testing.assert_allclose(np.diag(h), [0.0, 0.5, 1.2, 0.7, 1.0])
    np.testing.assert_allclose(h[1:, 0], [1.0, 1.2, 1.1, 1.3])
    # ground block is diagonal, couplings only to the excited state
    assert np.abs(h[1:, 1:] - np.diag([0.5, 1.2, 0.7, 1.0])).max() == 0.0


def test_build_two_scale_jump_structure():
    m = build_two_scale(FOUR_LEVEL)
    assert m.dim == 5
    assert len(m.jumps) == 4
    p_excited = np.zeros((5, 5))
    p_excited[0, 0] = 1.0
    for k, (rate, q) in enumerate(m.jumps):
        assert rate == FOUR_LEVEL.gamma[k]
        # each collapse moves |e> to one ground state
        np.testing.assert_allclose(q.conj().T @ q, p_excited)
        assert q[k + 1, 0] == 1.0
        assert np.count_nonzero(q) == 1


def test_lindblad_model_rejects_non_hermitian_hamiltonian():
    h = np.zeros((2, 2), dtype=np.complex128)
    h[0, 1] = 1.0
    with pytest.raises(ValueError):
        LindbladModel(hamiltonian=h, jumps=())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["hamiltonian", "jumps", "rate"])
def test_lindblad_model_rejects_non_finite_entries(where, bad):
    m = build_two_scale(FOUR_LEVEL)
    h = m.hamiltonian.copy()
    jumps = list(m.jumps)
    if where == "hamiltonian":
        # a NaN fails no Hermiticity test (NaN > tol is False)
        h[1, 1] = bad
        match = "hamiltonian contains non-finite"
    elif where == "rate":
        jumps[2] = (bad, jumps[2][1])
        match = r"jumps\[2\] contains non-finite"
    else:
        q = jumps[2][1].copy()
        q[0, 3] = bad
        jumps[2] = (jumps[2][0], q)
        match = r"jumps\[2\] contains non-finite"
    with pytest.raises(ValueError, match=match):
        LindbladModel(hamiltonian=h, jumps=tuple(jumps))


def test_generator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    m = build_two_scale(FOUR_LEVEL)
    rho = random_density(5, rng)
    drho = generator_apply(m, rho)
    assert abs(np.trace(drho)) < 1e-12
    assert hermiticity_error(drho) < 1e-13


def test_liouvillian_matches_generator():
    rng = np.random.default_rng(8)
    m = build_two_scale(FOUR_LEVEL)
    lmat = liouvillian(m)
    rho = random_density(5, rng)
    via_matrix = (lmat @ rho.reshape(-1)).reshape(5, 5)
    np.testing.assert_allclose(via_matrix, generator_apply(m, rho), atol=1e-12)


def test_output_full_nonnegative():
    # the photon count rate starts at sum(Gamma) from |e> and at 0 from a ground state
    m = build_two_scale(FOUR_LEVEL)
    rho = np.zeros((5, 5), dtype=np.complex128)
    rho[0, 0] = 1.0
    excited = integrate(m, rho, t_end=0.1, dt=1e-3, sample_every=10)
    assert excited.outputs[0] == pytest.approx(21.0)
    rho_ground = np.zeros((5, 5), dtype=np.complex128)
    rho_ground[1, 1] = 1.0
    ground = integrate(m, rho_ground, t_end=0.1, dt=1e-3, sample_every=10)
    assert ground.outputs[0] == 0.0
    assert np.all(excited.outputs >= 0.0) and np.all(ground.outputs >= 0.0)


def test_drive_signal_is_real():
    h1 = np.eye(2)
    drive = DriveSpec(h1=h1, amplitudes=(0.3 + 0.4j,), frequencies=(2.0,))
    for t in (0.0, 0.31, 1.7):
        assert isinstance(drive.u(t), float)
    assert drive.u(0.0) == pytest.approx(0.6)


finite = dict(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(
        st.tuples(st.complex_numbers(max_magnitude=1.0, **finite), st.floats(-1e3, 1e3, **finite)),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.floats(0.0, 1e4, **finite), min_size=1, max_size=40),
)
def test_drive_on_an_array_matches_scalar_calls(tones, times):
    # the kernel evaluates u on arrays of stage times; the scalar form is the waveform as written
    drive = DriveSpec(
        h1=np.eye(2),
        amplitudes=tuple(a for a, _ in tones),
        frequencies=tuple(f for _, f in tones),
    )
    got = drive.u(np.asarray(times, dtype=np.float64))
    want = np.array([drive.u(t) for t in times], dtype=np.float64)
    assert got.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


THREE_SCALE = ThreeScaleParams(
    lambda_e=200.0,
    lambda_g=(2.0, 3.0),
    mu=(1.0, 1.2),
    u_amp=(1.0, 0.9),
    detuning=(0.4, 0.6),
    gamma=(5.0, 6.0),
)


def test_three_scale_frequencies():
    np.testing.assert_allclose(THREE_SCALE.omega, [198.0, 197.0])


def test_three_scale_rejects_excited_below_ground():
    with pytest.raises(ValueError):
        ThreeScaleParams(
            lambda_e=1.0,
            lambda_g=(2.0,),
            mu=(1.0,),
            u_amp=(1.0,),
            detuning=(0.0,),
            gamma=(1.0,),
        )


def test_build_three_scale_hamiltonian_is_hermitian_at_all_times():
    m = build_three_scale(THREE_SCALE)
    assert m.drive is not None
    for t in (0.0, 0.123, 2.5):
        assert hermiticity_error(hamiltonian_at(m, t)) < 1e-12


def test_rwa_effective_mapping():
    p = rwa_effective(THREE_SCALE)
    assert p.detuning == THREE_SCALE.detuning
    assert p.gamma == THREE_SCALE.gamma
    np.testing.assert_allclose(p.rabi, [1.0, 1.08])


def test_weak_separation_warns():
    with pytest.warns(RuntimeWarning):
        build_three_scale(
            ThreeScaleParams(
                lambda_e=4.0,
                lambda_g=(1.0,),
                mu=(1.0,),
                u_amp=(1.0,),
                detuning=(0.0,),
                gamma=(5.0,),
            )
        )
    # two ground states; only their splitting differs
    two_ground = dict(lambda_e=200.0, mu=(1.0, 1.0), u_amp=(0.5, 0.5), detuning=(0.3, -0.2), gamma=(4.0, 6.0))
    # degenerate ground states: the rotating-wave model misses the cross-driven transitions
    with pytest.warns(RuntimeWarning, match=r"time-scale separation weak: .*fast/ground=inf"):
        build_three_scale(ThreeScaleParams(lambda_g=(0.0, 0.0), **two_ground))
    a7 = ThreeScaleParams(lambda_e=200.0, lambda_g=(0.0,), mu=(1.0,), u_amp=(0.5,), detuning=(0.0,), gamma=(5.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a splitting of 40 against Gamma <= 6 is separated; the split is not a slow scale
        build_three_scale(ThreeScaleParams(lambda_g=(0.0, 40.0), **two_ground))
        build_three_scale(a7)
    assert ThreeScaleParams(lambda_g=(0.0, 40.0), **two_ground).separation_ratios() == (0.125, 6.0 / 160.0, 0.15)
    assert a7.separation_ratios()[2] == 0.0
