"""Deterministic integration of master equations and verification runs.

Fixed-step RK4 over the vectorized generator, with a stability policy
dt <= 0.05 / L where L bounds the generator norm.  Experiments: full
versus reduced comparison, error scaling against the time-scale ratio,
rotating-wave cross-check, and step-halving convergence order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    as_complex,
    frobenius_norm,
    herm_to_vec,
    real_superop,
    spectral_norm_hermitian,
    validate_density,
    vec_to_herm,
    _check_square,
)
from .models import (
    LambdaParams,
    LindbladModel,
    ThreeScaleParams,
    build_three_scale,
    build_two_scale,
    commutator_superop,
    liouvillian,
    rwa_effective,
)
from .reduction import ReducedModel, as_lindblad, embed_ground, reduce_model
from .kernels import rk4_superop, sample_indices
from .tikhonov import fit_loglog_slope

TRACE_DRIFT_TOL = 1e-12
SAMPLE_TRACE_TOL = 1e-8
SAMPLE_HERM_TOL = 1e-8
SAMPLE_POS_TOL = 1e-7

# Run budget, checked before anything is allocated.  The largest tier-1
# run (the A2 full model at s = 16) takes about 1.07e6 steps.
MAX_STEPS = 100_000_000
MAX_SAMPLE_BYTES = 1 << 30


class IntegrationError(RuntimeError):
    """Integration aborted: state left the density-matrix manifold."""


class BudgetError(Exception):
    """Run refused before allocation: too many steps or too many sample bytes."""


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times, density matrices, photon count rates."""

    times: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    meta: dict

    def __post_init__(self):
        if not (len(self.times) == len(self.states) == len(self.outputs)):
            raise ValueError("times, states and outputs must have equal length")

    def populations(self) -> np.ndarray:
        """Diagonal occupations, shape (n_samples, dim)."""
        return np.einsum("nii->ni", self.states).real


def generator_norm_bound(m: LindbladModel) -> float:
    """Conservative bound on the generator norm: |H| + sum rate |Q|^2.

    For unit jump operators this is |H| + sum(Gamma).  A drive adds its
    peak amplitude times |H1|.
    """
    bound = spectral_norm_hermitian(m.hamiltonian)
    for rate, q in m.jumps:
        bound += rate * float(np.linalg.norm(q, 2)) ** 2
    if m.drive is not None:
        peak = 2.0 * sum(abs(a) for a in m.drive.amplitudes)
        bound += peak * float(np.linalg.norm(m.drive.h1, 2))
    return float(bound)


def dt_max(m: LindbladModel) -> float:
    """Largest step admitted by the stability policy dt <= 0.05/L.

    ValueError when L is not finite: against a NaN bound every step passes.
    """
    bound = generator_norm_bound(m)
    if not math.isfinite(bound):
        raise ValueError(f"generator norm bound {bound} is not finite; the model exceeds the float range")
    if bound <= 0.0:
        return math.inf
    dt = 0.05 / bound
    if m.drive is not None:
        nu_max = max((abs(f) for f in m.drive.frequencies), default=0.0)
        if nu_max > 0.0:
            # resolve the optical oscillation: >= 40 steps per period
            dt = min(dt, 2.0 * math.pi / (40.0 * nu_max))
    return dt


def auto_dt(m: LindbladModel, t_end: float) -> float:
    """Default step: the policy bound, at least 1e4 steps over the run."""
    return min(dt_max(m), t_end / 1e4)


def _shared_auto_dt(t_end: float, *models: LindbladModel) -> float:
    """Default step for models sampled on one grid: the smallest of their auto steps."""
    return min(auto_dt(m, t_end) for m in models)


def _step_count(m: LindbladModel, t_end: float, dt: float) -> int:
    """Steps of a run; BudgetError above MAX_STEPS, before the count is formed."""
    steps = t_end / dt
    if steps > MAX_STEPS:
        raise BudgetError(
            f"run needs {steps:.3g} steps at dt={dt:.3e} (dt_max={dt_max(m):.3e}), "
            f"above the budget of {MAX_STEPS:.0e} steps"
        )
    return max(1, int(math.ceil(steps - 1e-12)))


def _check_run_args(m: LindbladModel, rho0: np.ndarray, t_end: float, dt: float, sample_every: int):
    rho0 = as_complex(_check_square(rho0, "rho0"))
    if rho0.shape[0] != m.dim:
        raise ValueError(f"rho0 is {rho0.shape[0]}-dim, model is {m.dim}-dim")
    report = validate_density(rho0)
    if not report.ok:
        raise ValueError(f"rho0 is not a density matrix: {report}")
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    limit = dt_max(m)
    if dt > limit * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:.3e} exceeds the stability policy dt_max={limit:.3e}")
    n_steps = _step_count(m, t_end, dt)
    n_samples = -(-n_steps // sample_every) + 1
    # each entry is 8 bytes as a real sample plus 16 as a decoded state
    sample_bytes = n_samples * m.dim**2 * (8 + 16)
    if sample_bytes > MAX_SAMPLE_BYTES:
        raise BudgetError(
            f"run records {n_samples} samples of dim {m.dim} ({sample_bytes / 2**30:.3g} GiB with their "
            f"decoded states), above the budget of {MAX_SAMPLE_BYTES / 2**30:.0f} GiB; raise sample_every"
        )
    return rho0, n_steps


def integrate(m: LindbladModel, rho0: np.ndarray, t_end: float, dt: float,
              sample_every: int = 10) -> Trajectory:
    """Evolve a model with fixed-step RK4.

    The state is the real vector herm_to_vec(rho), stepped against real
    generators built once per run (linalg.real_superop), so every sample
    is Hermitian by construction.  A static model jumps from sample to
    sample with a cached power of the RK4 step matrix; a driven model
    adds u(t) [H1, .] to the static generator at each RK4 stage, with u
    evaluated on arrays of stage times a chunk of steps at a time, and
    takes every step.  dt is trimmed so an integer number of steps lands
    exactly on t_end.  The trace is renormalized after a sample when it
    drifts beyond 1e-12, and the decoded samples are validated one by
    one.  Runs beyond MAX_STEPS steps or MAX_SAMPLE_BYTES of samples
    (with their decoded states) raise BudgetError before anything is
    allocated.

    meta holds dt (the trimmed step), n_steps (RK4 steps), n_renorm
    (trace renormalizations), max_trace_drift (the largest |trace - 1|
    before renormalization), and the worst validation margins over the
    samples: max_hermiticity_error and min_eigenvalue.
    """
    rho0, n_steps = _check_run_args(m, rho0, t_end, dt, sample_every)
    dt = t_end / n_steps
    l1 = u = None
    if m.drive is not None:
        l1, u = real_superop(commutator_superop(m.drive.h1)), m.drive.u
    sample_idx = sample_indices(n_steps, sample_every)
    samples, n_renorm, max_drift = rk4_superop(
        real_superop(liouvillian(m)), herm_to_vec(rho0), dt, sample_idx, TRACE_DRIFT_TOL, l1=l1, u=u
    )
    states = vec_to_herm(samples, m.dim)
    times = sample_idx * dt
    max_herm = 0.0
    min_eig = math.inf
    for step, t, rho in zip(sample_idx, times, states):
        report = validate_density(
            rho, tol_trace=SAMPLE_TRACE_TOL, tol_pos=SAMPLE_POS_TOL, tol_herm=SAMPLE_HERM_TOL
        )
        if not report.ok:
            raise IntegrationError(f"state invariant breach at step {step}, t={t:.6g} ({m.label}): {report}")
        max_herm = max(max_herm, report.herm_deviation)
        min_eig = min(min_eig, report.min_eigenvalue)
    weight = np.zeros((m.dim, m.dim), dtype=np.complex128)
    for rate, q in m.jumps:
        weight += rate * (q.conj().T @ q)
    outputs = np.einsum("ij,nji->n", weight, states).real
    outputs[(outputs < 0.0) & (outputs >= -1e-12)] = 0.0
    meta = {
        "dt": dt,
        "n_steps": n_steps,
        "n_renorm": n_renorm,
        "max_trace_drift": float(max_drift),
        "max_hermiticity_error": max_herm,
        "min_eigenvalue": min_eig,
    }
    return Trajectory(times=times, states=states, outputs=outputs, meta=meta)


class CompareResult(NamedTuple):
    full: Trajectory
    slow: Trajectory
    distances: np.ndarray


def compare_full_vs_slow(m_full: LindbladModel, m_slow: LindbladModel, rho0_ground: np.ndarray,
                         t_end: float, dt: float | None = None,
                         sample_every: int = 10) -> CompareResult:
    """Run a full model and its reduction side by side on one grid.

    rho0_ground lives on the N-dim ground block of m_slow and is embedded
    with an empty excited row/column for m_full, so both start at the
    same state.  distances[i] is the Frobenius distance between the full
    state and the embedded slow state at sample i.  dt=None takes the
    smaller of the two models' auto steps.
    """
    if dt is None:
        dt = _shared_auto_dt(t_end, m_full, m_slow)
    # the slow run goes first, so a mis-sized rho0_ground is named as given
    traj_slow = integrate(m_slow, rho0_ground, t_end, dt, sample_every)
    traj_full = integrate(m_full, embed_ground(rho0_ground), t_end, dt, sample_every)
    embedded = np.zeros_like(traj_full.states)
    embedded[:, 1:, 1:] = traj_slow.states
    diff = traj_full.states - embedded
    distances = np.sqrt(np.sum(np.abs(diff) ** 2, axis=(1, 2)))
    return CompareResult(full=traj_full, slow=traj_slow, distances=distances)


@dataclass(frozen=True)
class SweepResult:
    """Error scaling against the time-scale ratio epsilon.

    sup_distances excludes the initial fast layer t < 5/(s Gamma_min);
    sup_distances_all keeps every sample and is reported unfitted.
    fitted_slope comes from the points with epsilon <= the fit cutoff;
    fitted_slope_all uses every point and is informational.
    """

    epsilons: np.ndarray
    sup_distances: np.ndarray
    fitted_slope: float
    fit_residual: float
    sup_distances_all: np.ndarray
    scale_factors: np.ndarray
    fitted_slope_all: float
    n_fitted: int


# Above this ratio the first neglected order is > 25% of the leading one
# and sup distances visibly saturate, so such points are recorded but
# kept out of the slope fit.
EPSILON_FIT_MAX = 0.25

# Each sweep run records about this many samples.
SWEEP_SAMPLES = 2000


def epsilon_sweep(p_base: LambdaParams, scale_factors, t_end_slow: float,
                  dt_policy: float | None = None) -> SweepResult:
    """Scale the decay rates up and measure how fast the reduction error shrinks.

    For each factor s the rates become s*Gamma_k, making the time-scale
    ratio epsilon = (sum|Omega| + sum|delta|) / (s sum Gamma) smaller; the
    run window grows with s so it covers the same multiple of the slow
    time.  dt_policy is the step at s = 1, divided by s for each factor;
    None takes the shared auto step of the full and slow models.  Fits log(sup
    distance) against log(epsilon) over the points inside the asymptotic
    regime epsilon <= EPSILON_FIT_MAX (all points if fewer than 3
    qualify).  Each run records about SWEEP_SAMPLES samples.
    """
    factors = [float(s) for s in scale_factors]
    if len(factors) < 4:
        raise ValueError(f"need at least 4 scale factors, got {len(factors)}")
    if len(set(factors)) != len(factors):
        raise ValueError("scale factors must be distinct")
    if any(s < 1.0 for s in factors):
        raise ValueError("scale factors must be >= 1")
    factors = sorted(factors)
    numerator = sum(abs(om) for om in p_base.rabi) + sum(abs(d) for d in p_base.detuning)
    gamma_min = min(p_base.gamma)
    rho0 = np.eye(p_base.n_ground, dtype=np.complex128) / p_base.n_ground
    eps_list, sup_list, sup_all_list, used = [], [], [], []
    failures = []
    for s in factors:
        p_s = LambdaParams(
            detuning=p_base.detuning,
            rabi=p_base.rabi,
            gamma=tuple(g * s for g in p_base.gamma),
        )
        t_end = t_end_slow * s
        m_full = build_two_scale(p_s)
        m_slow = as_lindblad(reduce_model(p_s))
        if dt_policy is None:
            dt = _shared_auto_dt(t_end, m_full, m_slow)
        else:
            dt = float(dt_policy) / s
        sample_every = max(1, _step_count(m_full, t_end, dt) // SWEEP_SAMPLES)
        try:
            result = compare_full_vs_slow(m_full, m_slow, rho0, t_end, dt, sample_every)
        except (IntegrationError, ValueError) as exc:
            failures.append(f"s={s}: {exc}")
            continue
        layer_end = 5.0 / (s * gamma_min)
        mask = result.full.times >= layer_end
        if not mask.any():
            failures.append(f"s={s}: window empty (layer end {layer_end} past t_end {t_end})")
            continue
        eps_list.append(numerator / (s * p_base.total_gamma))
        sup_list.append(float(result.distances[mask].max()))
        sup_all_list.append(float(result.distances.max()))
        used.append(s)
    if len(used) < 3:
        raise IntegrationError("fewer than 3 successful sweep runs: " + "; ".join(failures))
    eps_arr = np.asarray(eps_list)
    sup_arr = np.asarray(sup_list)
    slope_all, residual_all = fit_loglog_slope(eps_arr, sup_arr)
    in_regime = eps_arr <= EPSILON_FIT_MAX
    if in_regime.sum() >= 3:
        slope, residual = fit_loglog_slope(eps_arr[in_regime], sup_arr[in_regime])
        n_fitted = int(in_regime.sum())
    else:
        slope, residual = slope_all, residual_all
        n_fitted = eps_arr.size
    return SweepResult(
        epsilons=eps_arr,
        sup_distances=sup_arr,
        fitted_slope=slope,
        fit_residual=residual,
        sup_distances_all=np.asarray(sup_all_list),
        scale_factors=np.asarray(used),
        fitted_slope_all=slope_all,
        n_fitted=n_fitted,
    )


def equilibrium_check(rm: ReducedModel, rho_s: np.ndarray) -> float:
    """Frobenius norm of the reduced generator at rho_s (0 = stationary).

    The generator is applied as the integrator applies it: the real
    matrix of the reduced Liouvillian (linalg.real_superop) times
    herm_to_vec(rho_s), decoded back to a matrix.
    """
    rho_s = as_complex(_check_square(rho_s, "rho_s"))
    if rho_s.shape[0] != rm.n_ground:
        raise ValueError(f"rho_s is {rho_s.shape[0]}-dim, model has {rm.n_ground} ground states")
    lmat = real_superop(liouvillian(as_lindblad(rm)))
    # a norm past the float range reads inf, which fails any bound
    with np.errstate(over="ignore"):
        return frobenius_norm(vec_to_herm(lmat @ herm_to_vec(rho_s), rm.n_ground))


class RwaResult(NamedTuple):
    driven: Trajectory
    rwa: Trajectory
    max_pop_diff: float


def rwa_comparison(p3: ThreeScaleParams, t_end: float, dt: float | None = None,
                   sample_every: int = 10) -> RwaResult:
    """Laboratory-frame model against its rotating-wave reduction.

    Both start from the uniform ground mixture and share one grid; the
    figure of merit is the largest gap between excited populations.
    """
    m_driven = build_three_scale(p3)
    m_rwa = build_two_scale(rwa_effective(p3))
    if dt is None:
        dt = _shared_auto_dt(t_end, m_driven, m_rwa)
    n = p3.n_ground
    rho0 = embed_ground(np.eye(n, dtype=np.complex128) / n)
    traj_driven = integrate(m_driven, rho0, t_end, dt, sample_every)
    traj_rwa = integrate(m_rwa, rho0, t_end, dt, sample_every)
    diff = float(np.max(np.abs(traj_driven.populations()[:, 0] - traj_rwa.populations()[:, 0])))
    return RwaResult(driven=traj_driven, rwa=traj_rwa, max_pop_diff=diff)


def convergence_order(m: LindbladModel, rho0: np.ndarray, t_end: float, dt0: float) -> float:
    """Empirical RK4 order from runs at dt0 and dt0/2 against a dt0/8 reference."""
    n0 = _step_count(m, t_end, dt0)
    finals = []
    for divisor in (1, 2, 8):
        n = n0 * divisor
        traj = integrate(m, rho0, t_end, t_end / n, sample_every=n)
        finals.append(traj.states[-1])
    e1 = frobenius_norm(finals[0] - finals[2])
    e2 = frobenius_norm(finals[1] - finals[2])
    if e1 <= 0.0 or e2 <= 0.0:
        raise ValueError("step-halving errors vanished; increase dt0 or t_end")
    return float(np.log2(e1 / e2))
