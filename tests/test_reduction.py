import numpy as np
import pytest

from cptsim.linalg import frobenius_norm, hermiticity_error, random_density
from cptsim.models import LambdaParams, build_two_scale, generator_apply, slow_timescale
from cptsim.reduction import (
    as_lindblad,
    bright_dark_states,
    embed_ground,
    ground_block,
    merge,
    reconstruct_full,
    reduce_model,
    rho_f_first_order,
    slow_output,
    split_slow_fast,
    standard_form,
)
from cptsim.tikhonov import herm_to_vec, manifold_first_order, vec_to_herm

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
    np.testing.assert_allclose(ground_block(embed_ground(rho_g)), rho_g)


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
    rm = reduce_model(build_two_scale(FOUR_LEVEL))
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
    rm = reduce_model(build_two_scale(FOUR_LEVEL))
    mats = [q.conj().T @ q for _, q in rm.jumps_slow]
    for m2 in mats[1:]:
        assert np.abs(m2 - mats[0]).max() == 0.0
    np.testing.assert_allclose(mats[0], rm.p_bar, atol=1e-16)


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
    rm = reduce_model(build_two_scale(p))
    _, darks = bright_dark_states(p.rabi)
    d = darks[0]
    assert slow_output(rm, np.outer(d, d.conj())) == 0.0
    b, _ = bright_dark_states(p.rabi)
    rho_b = np.outer(b, b.conj())
    assert slow_output(rm, rho_b) == pytest.approx(sum(rm.gamma_slow), rel=1e-13)


def test_slow_output_mixed_state():
    rm = reduce_model(build_two_scale(FOUR_LEVEL))
    y = slow_output(rm, np.eye(4, dtype=np.complex128) / 4)
    assert y == pytest.approx(sum(rm.gamma_slow) / 4, rel=1e-12)


def test_as_lindblad_generator_preserves_trace():
    rng = np.random.default_rng(14)
    rm = reduce_model(build_two_scale(FOUR_LEVEL))
    m = as_lindblad(rm)
    rho = random_density(4, rng)
    drho = generator_apply(m, rho)
    assert abs(np.trace(drho)) < 1e-13
    assert hermiticity_error(drho) < 1e-14


def test_reconstruct_full_adds_first_order_coherence():
    rng = np.random.default_rng(15)
    m = build_two_scale(FOUR_LEVEL)
    rho_g = random_density(4, rng)
    full = reconstruct_full(rho_g, m)
    assert full.shape == (5, 5)
    np.testing.assert_allclose(ground_block(full), rho_g)
    assert abs(np.trace(full) - 1.0) < 1e-14
    embedded = embed_ground(rho_g)
    expected = embedded + rho_f_first_order(embedded, m.hamiltonian, FOUR_LEVEL.total_gamma)
    np.testing.assert_allclose(full, expected, atol=1e-15)
    assert np.abs(full[0, 1:]).max() > 0.0


def test_slow_timescale_of_reduced_model():
    # T_s = Gamma / sum|Omega|^2 is also 4 / sum(gamma_slow) of the reduction
    rm = reduce_model(build_two_scale(FOUR_LEVEL))
    assert slow_timescale(FOUR_LEVEL) == pytest.approx(4.0 / sum(rm.gamma_slow), rel=1e-13)


def test_standard_form_fast_map_spectrum():
    system = standard_form(build_two_scale(FOUR_LEVEL))
    eigs = np.sort(np.linalg.eigvals(system.a).real)
    # the fast relaxation map has eigenvalues 1/2 and 1 only
    assert set(np.round(eigs, 12)) == {0.5, 1.0}
    assert system.epsilon == pytest.approx(1.0 / 21.0)


def test_standard_form_manifold_matches_closed_form():
    rng = np.random.default_rng(16)
    m = build_two_scale(FOUR_LEVEL)
    system = standard_form(m)
    for _ in range(5):
        rho_s = embed_ground(random_density(4, rng))
        x = herm_to_vec(rho_s)
        via_manifold = vec_to_herm(manifold_first_order(system, x), 5)
        direct = rho_f_first_order(rho_s, m.hamiltonian, FOUR_LEVEL.total_gamma)
        assert np.abs(via_manifold - direct).max() < 1e-12
