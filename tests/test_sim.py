import numpy as np
import pytest

import cptsim.sim
from cptsim.models import (
    DriveSpec,
    LambdaParams,
    LindbladModel,
    ThreeScaleParams,
    build_two_scale,
)
from cptsim.reduction import as_lindblad, bright_dark_states, reduce_model
from cptsim.sim import (
    MAX_SAMPLE_BYTES,
    MAX_STEPS,
    BudgetError,
    IntegrationError,
    auto_dt,
    compare_full_vs_slow,
    convergence_order,
    dt_max,
    epsilon_sweep,
    equilibrium_check,
    integrate,
    rwa_comparison,
)

TWO_LEVEL = LambdaParams(detuning=(0.3, -0.2), rabi=(1.0, 0.8), gamma=(4.0, 6.0))


def uniform_ground(n):
    return np.eye(n, dtype=np.complex128) / n


def embedded_uniform(n):
    rho = np.zeros((n + 1, n + 1), dtype=np.complex128)
    rho[1:, 1:] = uniform_ground(n)
    return rho


def test_dt_policy_positive_and_enforced():
    m = build_two_scale(TWO_LEVEL)
    limit = dt_max(m)
    assert limit > 0.0
    assert auto_dt(m, t_end=1.0) <= limit
    with pytest.raises(ValueError):
        integrate(m, embedded_uniform(2), t_end=1.0, dt=10.0 * limit)


def test_integrate_rejects_bad_inputs():
    m = build_two_scale(TWO_LEVEL)
    with pytest.raises(ValueError):
        integrate(m, np.eye(3, dtype=np.complex128), t_end=1.0, dt=1e-3)  # trace 3
    with pytest.raises(ValueError):
        integrate(m, embedded_uniform(2), t_end=-1.0, dt=1e-3)
    with pytest.raises(ValueError):
        integrate(m, embedded_uniform(2), t_end=1.0, dt=1e-3, sample_every=0)


def test_trajectory_samples_are_physical():
    m = build_two_scale(TWO_LEVEL)
    traj = integrate(m, embedded_uniform(2), t_end=2.0, dt=1e-3, sample_every=50)
    assert traj.meta["max_trace_drift"] <= 1e-12
    assert traj.meta["max_hermiticity_error"] <= 1e-13
    assert traj.meta["min_eigenvalue"] >= -1e-10
    assert traj.meta["n_renorm"] == 0
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0, abs=1e-9)
    assert np.all(traj.outputs >= 0.0)


def test_populations_sum_to_one():
    m = build_two_scale(TWO_LEVEL)
    traj = integrate(m, embedded_uniform(2), t_end=1.0, dt=1e-3, sample_every=100)
    pops = traj.populations()
    assert pops.shape[1] == 3
    np.testing.assert_allclose(pops.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(traj.excited_population, pops[:, 0], atol=1e-15)


def test_step_halving_agreement():
    m = build_two_scale(TWO_LEVEL)
    rho0 = embedded_uniform(2)
    a = integrate(m, rho0, t_end=1.0, dt=2e-3, sample_every=500)
    b = integrate(m, rho0, t_end=1.0, dt=1e-3, sample_every=1000)
    # samples land on the same times; fourth-order scheme, halving is ~16x
    np.testing.assert_allclose(a.times, b.times, atol=1e-12)
    assert np.linalg.norm(a.states[-1] - b.states[-1]) < 1e-9


def test_global_energy_shift_is_invariant():
    # H -> H + c*I changes nothing observable
    m = build_two_scale(TWO_LEVEL)
    shifted = LindbladModel(
        hamiltonian=m.hamiltonian + 2.7 * np.eye(3),
        jumps=m.jumps,
    )
    rho0 = embedded_uniform(2)
    a = integrate(m, rho0, t_end=1.0, dt=1e-3, sample_every=200)
    b = integrate(shifted, rho0, t_end=1.0, dt=1e-3, sample_every=200)
    assert max(np.linalg.norm(x - y) for x, y in zip(a.states, b.states)) < 1e-12


def test_driven_with_zero_amplitude_matches_static():
    h0 = np.diag([5.0, 1.0, 2.0]).astype(np.complex128)
    h0[0, 1] = h0[1, 0] = 0.5
    jumps = build_two_scale(TWO_LEVEL).jumps
    static = LindbladModel(hamiltonian=h0, jumps=jumps)
    driven = LindbladModel(
        hamiltonian=h0,
        jumps=jumps,
        drive=DriveSpec(h1=np.eye(3), amplitudes=(0.0,), frequencies=(50.0,)),
    )
    rho0 = embedded_uniform(2)
    a = integrate(static, rho0, t_end=0.5, dt=5e-4, sample_every=100)
    b = integrate(driven, rho0, t_end=0.5, dt=5e-4, sample_every=100)
    # the static model jumps between samples with a powered step matrix,
    # the driven one steps; both apply the same RK4 polynomial
    np.testing.assert_allclose(a.states, b.states, rtol=0.0, atol=1e-12)


def test_invariant_breach_names_the_step():
    # negative rates run the decay backwards and break positivity
    m = build_two_scale(TWO_LEVEL)
    anti = LindbladModel(m.hamiltonian, tuple((-r, q) for r, q in m.jumps))
    with pytest.raises(IntegrationError, match=r"at step 40, t=0\.04 "):
        integrate(anti, embedded_uniform(2), t_end=1.0, dt=1e-3, sample_every=10)


def test_integrate_refuses_runs_over_budget(monkeypatch):
    def allocated(*args):
        raise AssertionError("the run got past its budget check")

    # every refusal below comes before the sample indices, the first thing a run allocates;
    # a regressed guard fails here instead of running millions of samples
    monkeypatch.setattr(cptsim.sim, "sample_indices", allocated)
    m = build_two_scale(TWO_LEVEL)
    dt = auto_dt(m, t_end=1e12)
    with pytest.raises(BudgetError, match="steps at dt=") as info:
        integrate(m, embedded_uniform(2), t_end=1e12, dt=dt)
    assert not isinstance(info.value, ValueError)
    # within the step budget, but one sample per step overflows the sample budget
    n_steps = MAX_SAMPLE_BYTES // (m.dim**2 * 16) + 1
    assert n_steps <= MAX_STEPS
    with pytest.raises(BudgetError, match="samples of dim 3"):
        integrate(m, embedded_uniform(2), t_end=n_steps * dt, dt=dt, sample_every=1)
    # the sweep's per-scale error handling must not swallow it, and a window
    # whose step count overflows to infinity is refused before it is counted
    for t_end_slow in (1e12, 1e306):
        with pytest.raises(BudgetError, match="dt_max="):
            epsilon_sweep(TWO_LEVEL, (1.0, 2.0, 4.0, 8.0), t_end_slow=t_end_slow)


def test_sample_budget_counts_real_samples_and_decoded_states(monkeypatch):
    # 16 bytes per entry of the decoded states alone fit; with the 8-byte real samples they do not
    m = build_two_scale(TWO_LEVEL)
    dt = auto_dt(m, t_end=1e12)
    n_steps = MAX_SAMPLE_BYTES // (m.dim**2 * 24) + 1
    assert (n_steps + 1) * m.dim**2 * 16 <= MAX_SAMPLE_BYTES

    def allocated(*args):
        raise AssertionError("the run got past its budget check")

    # the sample indices are the first thing a run allocates
    monkeypatch.setattr(cptsim.sim, "sample_indices", allocated)
    with pytest.raises(BudgetError, match="with their decoded states"):
        integrate(m, embedded_uniform(2), t_end=n_steps * dt, dt=dt, sample_every=1)


def two_level_pair():
    m_full = build_two_scale(TWO_LEVEL)
    return m_full, as_lindblad(reduce_model(m_full))


def test_compare_full_vs_slow_grids_align():
    result = compare_full_vs_slow(*two_level_pair(), uniform_ground(2), t_end=2.0, dt=1e-3)
    np.testing.assert_allclose(result.full.times, result.slow.times, atol=1e-12)
    assert result.distances[0] == 0.0
    assert np.all(result.distances >= 0.0)
    assert result.distances.max() < 0.5


def test_compare_full_vs_slow_rejects_mis_sized_start():
    # three ground states against a two-ground-state pair: both sizes are named
    with pytest.raises(ValueError, match="rho0 is 3-dim, model is 2-dim"):
        compare_full_vs_slow(*two_level_pair(), uniform_ground(3), t_end=1.0, dt=1e-3)


def test_epsilon_sweep_errors_shrink():
    result = epsilon_sweep(TWO_LEVEL, (1.0, 2.0, 4.0, 8.0), t_end_slow=4.0)
    assert len(result.epsilons) == 4
    assert np.all(np.diff(result.epsilons) < 0.0)
    # stronger separation gives a smaller windowed error
    assert result.sup_distances[-1] < result.sup_distances[0]
    assert result.fitted_slope > 0.0
    assert result.n_fitted >= 3


def test_epsilon_sweep_validates_factors():
    with pytest.raises(ValueError):
        epsilon_sweep(TWO_LEVEL, (1.0, 2.0, 4.0), t_end_slow=1.0)
    with pytest.raises(ValueError):
        epsilon_sweep(TWO_LEVEL, (1.0, 1.0, 2.0, 4.0), t_end_slow=1.0)
    with pytest.raises(ValueError):
        epsilon_sweep(TWO_LEVEL, (0.5, 1.0, 2.0, 4.0), t_end_slow=1.0)


def test_equilibrium_check_dark_state():
    p = LambdaParams(detuning=(0.0, 0.0), rabi=(0.8, 0.6j), gamma=(5.0, 5.0))
    rm = reduce_model(build_two_scale(p))
    _, darks = bright_dark_states(p.rabi)
    d = darks[0]
    assert equilibrium_check(rm, np.outer(d, d.conj())) < 1e-13


def test_equilibrium_check_bright_state_decays():
    p = LambdaParams(detuning=(0.0, 0.0), rabi=(1.0, 1.0), gamma=(5.0, 5.0))
    rm = reduce_model(build_two_scale(p))
    b, _ = bright_dark_states(p.rabi)
    assert equilibrium_check(rm, np.outer(b, b.conj())) > 1e-3


def test_rwa_comparison_shapes():
    p3 = ThreeScaleParams(
        lambda_e=300.0,
        lambda_g=(0.0,),
        mu=(1.0,),
        u_amp=(0.25,),
        detuning=(0.0,),
        gamma=(5.0,),
    )
    result = rwa_comparison(p3, t_end=1.0)
    assert len(result.driven.times) == len(result.rwa.times)
    diffs = np.abs(result.driven.excited_population - result.rwa.excited_population)
    assert result.max_pop_diff == pytest.approx(diffs.max())


def test_convergence_order_is_fourth_order():
    m = as_lindblad(reduce_model(build_two_scale(TWO_LEVEL)))
    order = convergence_order(m, uniform_ground(2), t_end=2.0, dt0=0.02)
    assert 3.6 <= order <= 4.4
