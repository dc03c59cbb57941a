"""Acceptance gate: go/no-go criteria A1-A8 and A11 for the release.

Each test records one verdict through the `acceptance` fixture; the
conftest reporter prints a PASS/FAIL line per criterion after the run.
Thresholds are frozen against reference runs of this implementation
and are asserted, not tuned, here.
"""

import numpy as np
import pytest

from cptsim.linalg import herm_to_vec, random_density, vec_to_herm
from cptsim.models import (
    LambdaParams,
    ThreeScaleParams,
    build_two_scale,
    slow_timescale,
)
from cptsim.reduction import (
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
from cptsim.sim import (
    auto_dt,
    compare_full_vs_slow,
    convergence_order,
    epsilon_sweep,
    equilibrium_check,
    integrate,
    rwa_comparison,
)
from cptsim.tikhonov import (
    TikhonovSystem,
    expansion_residuals,
    fit_loglog_slope,
    manifold_first_order,
)

FOUR_LEVEL = LambdaParams(
    detuning=(0.5, 1.2, 0.7, 1.0),
    rabi=(1.0, 1.2, 1.1, 1.3),
    gamma=(5.0, 4.0, 7.0, 5.0),
)

DARK_PARAMS = LambdaParams(detuning=(0.0, 0.0), rabi=(1.0, 1.0), gamma=(5.0, 5.0))


@pytest.fixture(scope="module")
def four_level_compare():
    t_end = 2.5 * slow_timescale(FOUR_LEVEL)
    rho0 = np.eye(4, dtype=np.complex128) / 4
    m_full = build_two_scale(FOUR_LEVEL)
    return compare_full_vs_slow(m_full, as_lindblad(reduce_model(FOUR_LEVEL)), rho0, t_end, dt=1e-3)


@pytest.fixture(scope="module")
def dark_full_run():
    _, darks = bright_dark_states(DARK_PARAMS.rabi)
    d = darks[0]
    rho0 = embed_ground(np.outer(d, d.conj()))
    m = build_two_scale(DARK_PARAMS)
    t_end = 5.0 * slow_timescale(DARK_PARAMS)
    return integrate(m, rho0, t_end, dt=2e-3)


def test_a1_four_level_comparison(acceptance, four_level_compare):
    r = four_level_compare
    t = r.full.times
    y_full = r.full.outputs
    y_slow = r.slow.outputs
    start_ok = y_full[0] == 0.0
    expected_y0 = sum(reduce_model(FOUR_LEVEL).gamma_slow) / 4
    slow_start_ok = abs(y_slow[0] - expected_y0) <= 1e-12
    transient = y_full[t <= 0.25]
    rises_ok = transient[-1] > 0.02 and transient[-1] > 5.0 * transient[1]
    window = t >= 1.0
    rel_err = np.abs(y_full[window] - y_slow[window]).max() / y_full[window].max()
    ok = start_ok and slow_start_ok and rises_ok and rel_err <= 0.2
    acceptance(
        "A1 four-level output comparison",
        ok,
        f"windowed relative output error {rel_err:.4f} (gate 0.2), "
        f"y_full(0)={y_full[0]}, y_slow(0) matches {expected_y0:.6f}",
    )


def test_a2_error_scaling_exponent(acceptance):
    t_end_slow = 2.5 * slow_timescale(FOUR_LEVEL)
    result = epsilon_sweep(FOUR_LEVEL, (1.0, 2.0, 4.0, 8.0, 16.0), t_end_slow)
    slope_ok = 0.8 <= result.fitted_slope <= 1.2
    resid_ok = result.fit_residual <= 0.15
    acceptance(
        "A2 error scaling in the separation parameter",
        slope_ok and resid_ok,
        f"slope {result.fitted_slope:.4f} in [0.8, 1.2], residual "
        f"{result.fit_residual:.4f} <= 0.15 ({result.n_fitted} points fitted; "
        f"all-point slope {result.fitted_slope_all:.4f})",
    )


def test_a3_dark_state_equilibrium(acceptance, dark_full_run):
    rm = reduce_model(DARK_PARAMS)
    _, darks = bright_dark_states(DARK_PARAMS.rabi)
    rho_dark = np.outer(darks[0], darks[0].conj())
    gen_norm = equilibrium_check(rm, rho_dark)
    y_dark = slow_output(rm, rho_dark)

    complex_params = LambdaParams(
        detuning=(0.0, 0.0), rabi=(0.8, 0.6j), gamma=(3.0, 7.0)
    )
    rm_c = reduce_model(complex_params)
    _, darks_c = bright_dark_states(complex_params.rabi)
    y_dark_c = slow_output(rm_c, np.outer(darks_c[0], darks_c[0].conj()))

    y_max_full = float(dark_full_run.outputs.max())
    ok = (
        gen_norm <= 1e-13
        and y_dark == 0.0
        and y_dark_c == 0.0
        and y_max_full <= 1e-6
    )
    acceptance(
        "A3 dark state is a zero-output equilibrium",
        ok,
        f"generator norm {gen_norm:.2e} <= 1e-13, slow output exactly "
        f"{y_dark}, full-model max output {y_max_full:.2e} <= 1e-6",
    )


def test_a4_reduction_closed_forms(acceptance):
    rng = np.random.default_rng(42)
    worst_h = worst_q = worst_gamma = worst_y = 0.0
    for draw in range(100):
        n = 2 + draw % 4
        detuning = tuple(rng.uniform(-2.0, 2.0, n))
        rabi = tuple(rng.normal(size=n) + 1j * rng.normal(size=n))
        gamma = tuple(rng.uniform(0.5, 10.0, n))
        p = LambdaParams(detuning=detuning, rabi=rabi, gamma=gamma)
        rm = reduce_model(p)
        total = p.total_gamma
        power = p.rabi_power

        worst_h = max(
            worst_h, np.abs(rm.hamiltonian_slow - np.diag(detuning)).max()
        )
        bright = np.asarray(rabi) / np.sqrt(power)
        for k, (rate, q) in enumerate(rm.jumps_slow):
            expected = np.zeros((n, n), dtype=np.complex128)
            expected[k] = (np.sqrt(power) / total) * bright.conj()
            worst_q = max(worst_q, np.abs(q - expected).max())
            expected_gamma = 4.0 * gamma[k] * power / total**2
            worst_gamma = max(
                worst_gamma, abs(rm.gamma_slow[k] - expected_gamma) / expected_gamma
            )
        rho_s = random_density(n, rng)
        y = slow_output(rm, rho_s)
        y_trace = sum(
            rate * np.trace(q @ rho_s @ q.conj().T).real for rate, q in rm.jumps_slow
        )
        worst_y = max(worst_y, abs(y - y_trace))
    ok = (
        worst_h <= 1e-14
        and worst_q <= 1e-13
        and worst_gamma <= 1e-13
        and worst_y <= 1e-12
    )
    acceptance(
        "A4 closed-form reduced model on random draws",
        ok,
        f"worst deviations over 100 draws: hamiltonian {worst_h:.2e}, "
        f"jumps {worst_q:.2e}, rates {worst_gamma:.2e} rel, outputs {worst_y:.2e}",
    )


def test_a5_conservation_and_convergence(acceptance, four_level_compare, dark_full_run):
    metas = [four_level_compare.full.meta, four_level_compare.slow.meta, dark_full_run.meta]
    worst_drift = max(meta["max_trace_drift"] for meta in metas)
    worst_herm = max(meta["max_hermiticity_error"] for meta in metas)
    worst_eig = min(meta["min_eigenvalue"] for meta in metas)

    m = build_two_scale(FOUR_LEVEL)
    rho0 = embed_ground(np.eye(4, dtype=np.complex128) / 4)
    order = convergence_order(m, rho0, t_end=1.0, dt0=2e-3)

    ok = (
        worst_drift <= 1e-9
        and worst_herm <= 1e-10
        and worst_eig >= -1e-7
        and 3.6 <= order <= 4.4
    )
    acceptance(
        "A5 conservation and integrator order",
        ok,
        f"trace drift {worst_drift:.2e} <= 1e-9, hermiticity {worst_herm:.2e} "
        f"<= 1e-10, min eigenvalue {worst_eig:.2e} >= -1e-7, "
        f"empirical order {order:.2f} in [3.6, 4.4]",
    )


def scalar_family(c):
    """Systems dx/dt = c00 x + c01 y, dy/dt = -y/eps + c10 x + c11 y."""

    def make(eps):
        return TikhonovSystem(a=np.array([[1.0]]), c=np.array(c, dtype=float), epsilon=eps)

    return make


def test_a6_manifold_expansion_orders(acceptance):
    x0 = np.array([1.0])
    y0 = np.array([0.0])
    epsilons = np.geomspace(1e-3, 1e-1, 7)

    # family with no slow feedback: the order-1 remainder is O(eps^3)
    # because the eps^2 coefficient of the exact slope vanishes
    fam_a = scalar_family([[0, 1], [1, 0]])  # f = y, g = x
    r1_a, _ = expansion_residuals(fam_a, x0, y0, 1.0, epsilons)
    slope_a1, _ = fit_loglog_slope(epsilons, r1_a)

    # fast self-coupling: order-1 remainder O(eps^2); the exact slope
    # eps + eps^2 - 2 eps^4 has no eps^3 term, so the order-2 remainder
    # is O(eps^4), one order better than generic
    fam_b = scalar_family([[0, 1], [1, 1]])  # f = y, g = x + y
    r1_b, r2_b = expansion_residuals(fam_b, x0, y0, 1.0, epsilons)
    slope_b1, _ = fit_loglog_slope(epsilons, r1_b)
    slope_b2, _ = fit_loglog_slope(epsilons, r2_b)

    # coupled family with a generic O(eps^3) order-2 remainder
    fam_c = scalar_family([[-1, 1], [1, 1]])  # f = -x + y, g = x + y
    _, r2_c = expansion_residuals(fam_c, x0, y0, 1.0, epsilons)
    slope_c2, _ = fit_loglog_slope(epsilons, r2_c)

    slopes_ok = (
        2.6 <= slope_a1 <= 3.4
        and 1.6 <= slope_b1 <= 2.4
        and 3.5 <= slope_b2 <= 4.5
        and 2.6 <= slope_c2 <= 3.4
    )

    rng = np.random.default_rng(7)
    m = build_two_scale(FOUR_LEVEL)
    system = standard_form(FOUR_LEVEL)
    worst = 0.0
    for _ in range(20):
        rho_s = embed_ground(random_density(4, rng))
        direct = rho_f_first_order(rho_s, m.hamiltonian, FOUR_LEVEL.total_gamma)
        lifted = vec_to_herm(manifold_first_order(system, herm_to_vec(rho_s)), 5)
        worst = max(worst, float(np.abs(lifted - direct).max()))
    manifold_ok = worst <= 1e-10

    acceptance(
        "A6 slow-manifold expansion cross-checks",
        slopes_ok and manifold_ok,
        f"remainder slopes {slope_a1:.2f}|{slope_b1:.2f}|{slope_b2:.2f}|"
        f"{slope_c2:.2f} vs brackets [2.6,3.4]|[1.6,2.4]|[3.5,4.5]|[2.6,3.4]; "
        f"manifold vs closed form {worst:.2e} <= 1e-10",
    )


def test_a7_fast_drive_averaging(acceptance):
    p3 = ThreeScaleParams(
        lambda_e=200.0,
        lambda_g=(0.0,),
        mu=(1.0,),
        u_amp=(0.5,),
        detuning=(0.0,),
        gamma=(5.0,),
    )
    result = rwa_comparison(p3, t_end=5.0)
    ok = result.max_pop_diff <= 0.05
    acceptance(
        "A7 averaged model tracks the driven model",
        ok,
        f"max excited-population difference {result.max_pop_diff:.2e} <= 0.05",
    )


def test_a8_split_merge_bijection(acceptance):
    rng = np.random.default_rng(11)
    worst = 0.0
    for draw in range(500):
        n = 2 + draw % 7
        gammas = tuple(rng.uniform(0.5, 10.0, n))
        rho = random_density(n + 1, rng)
        back = merge(split_slow_fast(rho, gammas), gammas)
        worst = max(worst, float(np.abs(back - rho).max()))
    ok = worst <= 1e-13
    acceptance(
        "A8 slow/fast split is lossless",
        ok,
        f"worst round-trip deviation over 500 draws {worst:.2e} <= 1e-13",
    )


def test_a11_dark_subspace_is_decoherence_free(acceptance):
    # three dark states: every mixture on their span stays put and emits nothing
    # at two-photon resonance, and stops being dark once the detunings differ
    rabi = (1.0, 1.2j, 1.1, 1.3)
    _, darks = bright_dark_states(rabi)
    iso = np.column_stack(darks)
    rng = np.random.default_rng(2024)
    states = [iso @ random_density(3, rng) @ iso.conj().T for _ in range(20)]
    results = {}
    for name, detuning in (("resonant", (0.7,) * 4), ("detuned", FOUR_LEVEL.detuning)):
        p = LambdaParams(detuning=detuning, rabi=rabi, gamma=FOUR_LEVEL.gamma)
        m = build_two_scale(p)
        rm = reduce_model(p)
        worst_norm = max(equilibrium_check(rm, rho) for rho in states)
        t_end = 5.0 * slow_timescale(p)
        traj = integrate(m, embed_ground(states[0]), t_end, auto_dt(m, t_end))
        results[name] = (worst_norm, float(traj.outputs.max()))
    norm_res, y_res = results["resonant"]
    norm_det, y_det = results["detuned"]
    # the detuned bound is frozen from a reference run, which reached 1.18e-1
    ok = norm_res <= 1e-13 and y_res <= 1e-6 and y_det > 5e-2
    acceptance(
        "A11 dark subspace is decoherence-free",
        ok,
        f"equal detunings: worst slow-generator norm over 20 dark mixtures {norm_res:.2e} "
        f"<= 1e-13, full-model max output {y_res:.2e} <= 1e-6; FOUR_LEVEL detunings: "
        f"norm {norm_det:.2e}, full-model max output {y_det:.2e} > 5e-2",
    )
