import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptsim.linalg import frobenius_norm, herm_to_vec, hermiticity_error, random_density, vec_to_herm
from cptsim.models import LambdaParams, build_two_scale, slow_timescale
from cptsim.reduction import (
    SlowFastSplit,
    as_lindblad,
    bright_dark_states,
    embed_ground,
    merge,
    reduce_model,
    rho_f_first_order,
    slow_output,
    split_slow_fast,
    standard_form,
)
from cptsim.tikhonov import manifold_first_order
from lindblad_reference import generator_apply

FOUR_LEVEL = LambdaParams(
    detuning=(0.5, 1.2, 0.7, 1.0),
    rabi=(1.0, 1.2, 1.1, 1.3),
    gamma=(5.0, 4.0, 7.0, 5.0),
)


def test_split_of_ground_supported_state():
    rng = np.random.default_rng(10)
    rho_g = random_density(3, rng)
    rho = embed_ground(rho_g)
    s = split_slow_fast(rho, (1.0, 2.0, 3.0))
    assert np.abs(s.rho_f).max() == 0.0
    np.testing.assert_allclose(s.rho_s, rho)


def test_split_of_excited_state():
    rho = np.zeros((3, 3), dtype=np.complex128)
    rho[0, 0] = 1.0
    s = split_slow_fast(rho, (1.0, 1.0))
    np.testing.assert_allclose(s.rho_f, rho)
    # branching puts half the excited weight on each ground level
    np.testing.assert_allclose(np.diag(s.rho_s), [0.0, 0.5, 0.5])


def test_split_merge_roundtrip():
    rng = np.random.default_rng(11)
    gammas = (5.0, 4.0, 7.0, 5.0)
    for _ in range(20):
        rho = random_density(5, rng)
        s = split_slow_fast(rho, gammas)
        back = merge(s, gammas)
        assert frobenius_norm(back - rho) < 1e-14


def test_split_parts_are_hermitian():
    rng = np.random.default_rng(12)
    rho = random_density(4, rng)
    s = split_slow_fast(rho, (1.0, 2.0, 3.0))
    assert hermiticity_error(s.rho_f) < 1e-15
    assert hermiticity_error(s.rho_s) < 1e-15


def test_ground_block_embed_roundtrip():
    rng = np.random.default_rng(13)
    rho_g = random_density(4, rng)
    np.testing.assert_allclose(embed_ground(rho_g)[1:, 1:], rho_g)


def test_rho_f_first_order_bright_state():
    # resonant two-level ground manifold driven with equal amplitudes
    p = LambdaParams(detuning=(0.0, 0.0), rabi=(1.0, 1.0), gamma=(1.0, 1.0))
    m = build_two_scale(p)
    b = np.array([1.0, 1.0]) / np.sqrt(2)
    rho_s = embed_ground(np.outer(b, b.conj()))
    out = rho_f_first_order(rho_s, m.hamiltonian, p.total_gamma)
    assert hermiticity_error(out) < 1e-15
    assert out[0, 0] == 0.0
    # cross terms carry amplitude sqrt(2) between |e> and the bright state
    expected = np.zeros((3, 3), dtype=np.complex128)
    expected[0, 1:] = -1j * np.sqrt(2) * b
    expected[1:, 0] = 1j * np.sqrt(2) * b
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_rho_f_first_order_rejects_excited_support():
    m = build_two_scale(FOUR_LEVEL)
    rho = np.zeros((5, 5), dtype=np.complex128)
    rho[0, 0] = 1.0
    with pytest.raises(ValueError):
        rho_f_first_order(rho, m.hamiltonian, FOUR_LEVEL.total_gamma)


def test_reduce_model_closed_forms():
    rm = reduce_model(FOUR_LEVEL)
    assert rm.n_ground == 4
    np.testing.assert_allclose(rm.hamiltonian_slow, np.diag([0.5, 1.2, 0.7, 1.0]))
    total = 21.0
    power = 5.34
    for k, (rate, q) in enumerate(rm.jumps_slow):
        assert rate == 4.0 * FOUR_LEVEL.gamma[k]
        expected_row = np.conj(FOUR_LEVEL.rabi) / total
        np.testing.assert_allclose(q[k], expected_row, atol=1e-15)
    np.testing.assert_allclose(
        rm.gamma_slow,
        [4.0 * g * power / total**2 for g in FOUR_LEVEL.gamma],
        rtol=1e-13,
    )
    assert sum(rm.gamma_slow) == pytest.approx(4.0 * power / total, rel=1e-13)


def test_effective_projector_is_branch_independent():
    # every collapse channel sees the same Q^dagger Q
    rm = reduce_model(FOUR_LEVEL)
    mats = [q.conj().T @ q for _, q in rm.jumps_slow]
    for m2 in mats[1:]:
        assert np.abs(m2 - mats[0]).max() == 0.0
    omega = np.asarray(FOUR_LEVEL.rabi)
    p_bar = np.outer(omega, omega.conj()) / FOUR_LEVEL.total_gamma**2
    np.testing.assert_allclose(mats[0], p_bar, atol=1e-16)


def test_bright_dark_states_orthonormal():
    rabi = (1.0 + 0.5j, -0.3, 0.8j)
    bright, darks = bright_dark_states(rabi)
    assert len(darks) == 2
    vecs = [bright] + darks
    for i, v in enumerate(vecs):
        for j, w in enumerate(vecs):
            expected = 1.0 if i == j else 0.0
            assert abs(np.vdot(v, w) - expected) < 1e-12
    # deterministic phase: first nonzero entry is real positive
    for v in vecs:
        first = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        assert abs(first.imag) < 1e-14
        assert first.real > 0.0


def test_bright_dark_states_rejects_zero_drive():
    with pytest.raises(ValueError):
        bright_dark_states((0.0, 0.0))


def test_single_ground_level_has_no_dark_states():
    bright, darks = bright_dark_states((2.0,))
    assert darks == []
    np.testing.assert_allclose(bright, [1.0])


def test_slow_output_forms_agree_and_dark_state_is_exactly_zero():
    p = LambdaParams(detuning=(0.0, 0.0), rabi=(1.0, 1.0), gamma=(5.0, 5.0))
    rm = reduce_model(p)
    _, darks = bright_dark_states(p.rabi)
    d = darks[0]
    assert slow_output(rm, np.outer(d, d.conj())) == 0.0
    b, _ = bright_dark_states(p.rabi)
    rho_b = np.outer(b, b.conj())
    assert slow_output(rm, rho_b) == pytest.approx(sum(rm.gamma_slow), rel=1e-13)


def test_slow_output_mixed_state():
    rm = reduce_model(FOUR_LEVEL)
    y = slow_output(rm, np.eye(4, dtype=np.complex128) / 4)
    assert y == pytest.approx(sum(rm.gamma_slow) / 4, rel=1e-12)


def test_as_lindblad_generator_preserves_trace():
    rng = np.random.default_rng(14)
    rm = reduce_model(FOUR_LEVEL)
    m = as_lindblad(rm)
    rho = random_density(4, rng)
    drho = generator_apply(m, rho)
    assert abs(np.trace(drho)) < 1e-13
    assert hermiticity_error(drho) < 1e-14


def test_slow_timescale_of_reduced_model():
    # T_s = Gamma / sum|Omega|^2 is also 4 / sum(gamma_slow) of the reduction
    rm = reduce_model(FOUR_LEVEL)
    assert slow_timescale(FOUR_LEVEL) == pytest.approx(4.0 / sum(rm.gamma_slow), rel=1e-13)


def test_standard_form_fast_map_spectrum():
    system = standard_form(FOUR_LEVEL)
    eigs = np.sort(np.linalg.eigvals(system.a).real)
    # the fast relaxation map has eigenvalues 1/2 and 1 only
    assert set(np.round(eigs, 12)) == {0.5, 1.0}
    assert system.epsilon == pytest.approx(1.0 / 21.0)


@st.composite
def lambda_params(draw):
    n = draw(st.integers(1, 4))
    finite = {"allow_nan": False, "allow_infinity": False}
    return LambdaParams(
        detuning=draw(st.lists(st.floats(-5.0, 5.0, **finite), min_size=n, max_size=n)),
        rabi=draw(
            st.lists(
                st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, **finite),
                min_size=n,
                max_size=n,
            )
        ),
        gamma=draw(st.lists(st.floats(0.5, 10.0, **finite), min_size=n, max_size=n)),
    )


@settings(deadline=None, max_examples=80)
@given(lambda_params(), st.integers(0, 2**32 - 1))
def test_standard_form_manifold_matches_closed_form(p, seed):
    """standard_form is the master equation in split coordinates.

    Its first-order manifold is the closed-form fast response, and
    C z - (0, A y / eps) merges back to the Lindblad generator.
    """
    rng = np.random.default_rng(seed)
    m = build_two_scale(p)
    system = standard_form(p)
    dim = m.dim
    nvec = dim * dim

    rho_s = embed_ground(random_density(dim - 1, rng))
    via_manifold = vec_to_herm(manifold_first_order(system, herm_to_vec(rho_s)), dim)
    direct = rho_f_first_order(rho_s, m.hamiltonian, p.total_gamma)
    assert np.abs(via_manifold - direct).max() <= 1e-12 * np.abs(direct).max()

    rho = random_density(dim, rng)
    parts = split_slow_fast(rho, p.gamma)
    y = herm_to_vec(parts.rho_f)
    dz = system.c @ np.concatenate([herm_to_vec(parts.rho_s), y])
    dz[nvec:] -= system.a @ y / system.epsilon
    rhs = merge(SlowFastSplit(rho_f=vec_to_herm(dz[nvec:], dim), rho_s=vec_to_herm(dz[:nvec], dim)), p.gamma)
    expected = generator_apply(m, rho)
    assert np.abs(rhs - expected).max() <= 1e-12 * np.abs(expected).max()
