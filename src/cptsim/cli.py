"""Config-driven command line front end.

Parses a strict JSON schema, dispatches one experiment per run, and
writes deterministic artifacts: <experiment>.csv plus summary.txt in
the output directory.  Floats are rendered with repr (shortest
round-trip), line endings are LF, and writes are atomic, so repeated
runs of the same config produce byte-identical files.

Exit codes: 0 success, 2 configuration error (including non-finite
values and runs over the step or sample budget), 3 computation error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .linalg import random_density, validate_density
from .models import (
    LambdaParams,
    ThreeScaleParams,
    build_three_scale,
    build_two_scale,
    rwa_effective,
    slow_timescale,
)
from .reduction import (
    as_lindblad,
    bright_dark_states,
    embed_ground,
    reduce_model,
    rho_f_first_order,
    slow_output,
    split_slow_fast,
    standard_form,
)
from .sim import (
    BudgetError,
    IntegrationError,
    auto_dt,
    compare_full_vs_slow,
    epsilon_sweep,
    equilibrium_check,
    integrate,
    rwa_comparison,
)
from .tikhonov import (
    TikhonovSystem,
    expansion_residuals,
    fit_loglog_slope,
    manifold_first_order,
    vec_to_herm,
    herm_to_vec,
)
from .kernels import backend_name

EXPERIMENTS = (
    "simulate-full",
    "simulate-slow",
    "compare",
    "reduce",
    "sweep-eps",
    "rwa-check",
    "dark-state-check",
    "verify-appendix",
)

_STATE_NAMES = ("uniform_ground", "excited", "bright", "dark")

_TIMED_EXPERIMENTS = frozenset(
    ("simulate-full", "simulate-slow", "compare", "sweep-eps", "rwa-check", "dark-state-check")
)


class ConfigError(Exception):
    """Configuration file is syntactically or semantically invalid."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; equality round-trips through render_config."""

    model: LambdaParams | ThreeScaleParams
    experiment: str
    initial_state: str | tuple = "uniform_ground"
    t_end: float | None = None
    t_end_units: str = "absolute"
    dt: float | str = "auto"
    sample_every: int = 10
    sweep_scales: tuple[float, ...] | None = None
    output_path: str | None = None


def _reject_unknown(obj: dict, allowed: set[str], where: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key: {where}{key}")


def _require(obj: dict, key: str, where: str = ""):
    if key not in obj:
        raise ConfigError(f"missing key: {where}{key}")
    return obj[key]


def _positive_finite(x: float) -> bool:
    return x > 0.0 and math.isfinite(x)


def _float_list(obj, name: str) -> list[float]:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{name} must be a nonempty array of numbers")
    out = []
    for i, x in enumerate(obj):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ConfigError(f"{name}[{i}] must be a number")
        if not math.isfinite(x):
            raise ConfigError(f"{name}[{i}] must be finite, got {x}")
        out.append(float(x))
    return out


_MODEL_ARRAYS = {
    "lambda": ("detuning", "rabi_re", "rabi_im", "gamma"),
    "three_scale": ("lambda_g", "mu", "u_re", "u_im", "detuning", "gamma"),
}


def _model_from(obj) -> LambdaParams | ThreeScaleParams:
    if not isinstance(obj, dict):
        raise ConfigError("model must be an object")
    kind = _require(obj, "type", "model.")
    if not isinstance(kind, str) or kind not in _MODEL_ARRAYS:
        raise ConfigError(f"model.type must be 'lambda' or 'three_scale', got {kind!r}")
    scalars = ("lambda_e",) if kind == "three_scale" else ()
    _reject_unknown(obj, {"type", *scalars, *_MODEL_ARRAYS[kind]}, "model.")
    if scalars:
        lambda_e = _require(obj, "lambda_e", "model.")
        if isinstance(lambda_e, bool) or not isinstance(lambda_e, (int, float)):
            raise ConfigError("model.lambda_e must be a number")
    arrays = {
        key: _float_list(_require(obj, key, "model."), f"model.{key}")
        for key in _MODEL_ARRAYS[kind]
    }
    if len({len(vals) for vals in arrays.values()}) != 1:
        raise ConfigError("model arrays must share one length")
    try:
        if kind == "lambda":
            return LambdaParams(
                detuning=arrays["detuning"],
                rabi=tuple(map(complex, arrays["rabi_re"], arrays["rabi_im"])),
                gamma=arrays["gamma"],
            )
        return ThreeScaleParams(
            lambda_e=lambda_e,
            lambda_g=arrays["lambda_g"],
            mu=arrays["mu"],
            u_amp=tuple(map(complex, arrays["u_re"], arrays["u_im"])),
            detuning=arrays["detuning"],
            gamma=arrays["gamma"],
        )
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from exc


def _initial_state_from(obj) -> str | tuple:
    if isinstance(obj, str):
        if obj not in _STATE_NAMES:
            raise ConfigError(
                f"initial_state must be one of {', '.join(_STATE_NAMES)} or an re/im matrix"
            )
        return obj
    if isinstance(obj, dict):
        _reject_unknown(obj, {"re", "im"}, "initial_state.")
        re = _require(obj, "re", "initial_state.")
        im = _require(obj, "im", "initial_state.")
        if not (isinstance(re, list) and isinstance(im, list)):
            raise ConfigError("initial_state.re and .im must be arrays of arrays")
        rows = []
        if len(re) != len(im):
            raise ConfigError("initial_state.re and .im must have the same shape")
        for r, (re_row, im_row) in enumerate(zip(re, im)):
            re_vals = _float_list(re_row, f"initial_state.re[{r}]")
            im_vals = _float_list(im_row, f"initial_state.im[{r}]")
            if len(re_vals) != len(im_vals) or len(re_vals) != len(re):
                raise ConfigError("initial_state matrix must be square")
            rows.append(tuple(complex(a, b) for a, b in zip(re_vals, im_vals)))
        return tuple(rows)
    raise ConfigError("initial_state must be a name or an object with re/im arrays")


_TOP_KEYS = {
    "model",
    "initial_state",
    "t_end",
    "t_end_units",
    "dt",
    "sample_every",
    "experiment",
    "sweep",
    "output_path",
}


def parse_config(text: str, experiment: str | None = None) -> RunConfig:
    """Parse and validate a JSON config; unknown keys are rejected.

    experiment, when given, is the subcommand name and takes precedence
    over the file's experiment field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    _reject_unknown(doc, _TOP_KEYS, "")
    model = _model_from(_require(doc, "model"))
    file_exp = doc.get("experiment")
    if file_exp is not None and file_exp not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {', '.join(EXPERIMENTS)}, got {file_exp!r}")
    if experiment is None:
        if file_exp is None:
            raise ConfigError("missing key: experiment")
        chosen = file_exp
    else:
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment: {experiment}")
        chosen = experiment
    initial_state = _initial_state_from(doc.get("initial_state", "uniform_ground"))
    t_end = doc.get("t_end")
    if t_end is not None:
        if isinstance(t_end, bool) or not isinstance(t_end, (int, float)):
            raise ConfigError("t_end must be a number")
        t_end = float(t_end)
        if not _positive_finite(t_end):
            raise ConfigError(f"t_end must be positive and finite, got {t_end}")
    elif chosen in _TIMED_EXPERIMENTS:
        raise ConfigError("missing key: t_end")
    t_end_units = doc.get("t_end_units", "absolute")
    if t_end_units not in ("absolute", "slow_timescale"):
        raise ConfigError(
            f"t_end_units must be 'absolute' or 'slow_timescale', got {t_end_units!r}"
        )
    dt = doc.get("dt", "auto")
    if isinstance(dt, str):
        if dt != "auto":
            raise ConfigError(f"dt must be a positive number or 'auto', got {dt!r}")
    elif isinstance(dt, bool) or not isinstance(dt, (int, float)) or not _positive_finite(dt):
        raise ConfigError(f"dt must be a positive finite number or 'auto', got {dt!r}")
    else:
        dt = float(dt)
    sample_every = doc.get("sample_every", 10)
    if isinstance(sample_every, bool) or not isinstance(sample_every, int) or sample_every < 1:
        raise ConfigError(f"sample_every must be a positive integer, got {sample_every!r}")
    sweep_scales = None
    if "sweep" in doc:
        sweep = doc["sweep"]
        if not isinstance(sweep, dict):
            raise ConfigError("sweep must be an object")
        _reject_unknown(sweep, {"scales"}, "sweep.")
        sweep_scales = tuple(_float_list(_require(sweep, "scales", "sweep."), "sweep.scales"))
    elif chosen == "sweep-eps":
        raise ConfigError("missing key: sweep")
    output_path = doc.get("output_path")
    if output_path is not None and (not isinstance(output_path, str) or not output_path):
        raise ConfigError("output_path must be a nonempty string")
    return RunConfig(
        model=model,
        experiment=chosen,
        initial_state=initial_state,
        t_end=t_end,
        t_end_units=t_end_units,
        dt=dt,
        sample_every=sample_every,
        sweep_scales=sweep_scales,
        output_path=output_path,
    )


def render_config(config: RunConfig) -> str:
    """Canonical JSON for a RunConfig; parse_config inverts it exactly."""
    if isinstance(config.model, LambdaParams):
        model = {
            "type": "lambda",
            "detuning": list(config.model.detuning),
            "rabi_re": [z.real for z in config.model.rabi],
            "rabi_im": [z.imag for z in config.model.rabi],
            "gamma": list(config.model.gamma),
        }
    else:
        model = {
            "type": "three_scale",
            "lambda_e": config.model.lambda_e,
            "lambda_g": list(config.model.lambda_g),
            "mu": list(config.model.mu),
            "u_re": [z.real for z in config.model.u_amp],
            "u_im": [z.imag for z in config.model.u_amp],
            "detuning": list(config.model.detuning),
            "gamma": list(config.model.gamma),
        }
    doc: dict = {"model": model, "experiment": config.experiment}
    if isinstance(config.initial_state, str):
        doc["initial_state"] = config.initial_state
    else:
        doc["initial_state"] = {
            "re": [[z.real for z in row] for row in config.initial_state],
            "im": [[z.imag for z in row] for row in config.initial_state],
        }
    if config.t_end is not None:
        doc["t_end"] = config.t_end
        doc["t_end_units"] = config.t_end_units
    doc["dt"] = config.dt
    doc["sample_every"] = config.sample_every
    if config.sweep_scales is not None:
        doc["sweep"] = {"scales": list(config.sweep_scales)}
    if config.output_path is not None:
        doc["output_path"] = config.output_path
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _fmt(x) -> str:
    return repr(float(x))


def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}j"


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _lambda_params(config: RunConfig) -> LambdaParams:
    if not isinstance(config.model, LambdaParams):
        raise ConfigError(f"experiment {config.experiment} needs model.type 'lambda'")
    return config.model


def _three_scale_params(config: RunConfig) -> ThreeScaleParams:
    if not isinstance(config.model, ThreeScaleParams):
        raise ConfigError(f"experiment {config.experiment} needs model.type 'three_scale'")
    return config.model


def _rabi_of(config: RunConfig) -> tuple[complex, ...]:
    if isinstance(config.model, LambdaParams):
        return config.model.rabi
    return tuple(m * u for m, u in zip(config.model.mu, config.model.u_amp))


def _resolve_t_end(config: RunConfig, p: LambdaParams) -> float:
    if config.t_end_units == "slow_timescale":
        return config.t_end * slow_timescale(p)
    return config.t_end


def _fixed_dt(config: RunConfig) -> float | None:
    """The configured step (always positive), or None when dt is 'auto'."""
    return config.dt if isinstance(config.dt, float) else None


def _full_initial_state(config: RunConfig, n_ground: int) -> np.ndarray:
    """Initial state in the (N+1)-dim space."""
    state = config.initial_state
    dim = n_ground + 1
    if state == "uniform_ground":
        return embed_ground(np.eye(n_ground, dtype=np.complex128) / n_ground)
    if state == "excited":
        rho = np.zeros((dim, dim), dtype=np.complex128)
        rho[0, 0] = 1.0
        return rho
    if state in ("bright", "dark"):
        try:
            bright, darks = bright_dark_states(_rabi_of(config))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if state == "bright":
            vec = bright
        else:
            if not darks:
                raise ConfigError("dark state needs at least 2 ground states")
            vec = darks[0]
        return embed_ground(np.outer(vec, vec.conj()))
    rho = np.array(state, dtype=np.complex128)
    if rho.shape != (dim, dim):
        raise ConfigError(f"initial_state matrix must be {dim} x {dim}, got {rho.shape}")
    report = validate_density(rho)
    if not report.ok:
        raise ConfigError(f"initial_state is not a density matrix: {report}")
    return rho


def _ground_initial_state(config: RunConfig, p: LambdaParams) -> np.ndarray:
    """Initial state on the N-dim ground block (for compare/dark runs)."""
    if config.initial_state == "excited":
        raise ConfigError("initial_state 'excited' is not ground-supported; pick a ground state")
    rho_full = _full_initial_state(config, p.n_ground)
    split = split_slow_fast(rho_full, p.gamma)
    if np.abs(split.rho_f).max() > 1e-12:
        raise ConfigError("initial_state must be supported on the ground block")
    return split.rho_s[1:, 1:]


def _meta_lines(config: RunConfig, config_sha: str, extra: list[tuple[str, str]]) -> list[str]:
    lines = [
        f"tool_version: {__version__}",
        f"config_sha256: {config_sha}",
        f"experiment: {config.experiment}",
        f"backend: {backend_name()}",
    ]
    lines.extend(f"{k}: {v}" for k, v in extra)
    return lines


def _traj_meta(prefix: str, traj) -> list[tuple[str, str]]:
    m = traj.meta
    return [
        (f"{prefix}dt", _fmt(m["dt"])),
        (f"{prefix}n_steps", str(m["n_steps"])),
        (f"{prefix}n_renorm", str(m["n_renorm"])),
        (f"{prefix}max_trace_drift", _fmt(m["max_trace_drift"])),
    ]


def _simulate_output(traj, pops: np.ndarray):
    """Artifacts of simulate-full and simulate-slow; pops has the excited column first."""
    n = pops.shape[1] - 1
    header = "t,y,pop_e," + ",".join(f"pop_g{k}" for k in range(1, n + 1))
    rows = [[traj.times[i], traj.outputs[i]] + list(pops[i]) for i in range(len(traj.times))]
    summary = [f"y_final: {_fmt(traj.outputs[-1])}", f"y_max: {_fmt(traj.outputs.max())}"]
    return header, rows, _traj_meta("", traj), summary


def _run_simulate(config: RunConfig):
    model = config.model
    if isinstance(model, ThreeScaleParams):
        m, p = build_three_scale(model), rwa_effective(model)
    else:
        m, p = build_two_scale(model), model
    t_end = _resolve_t_end(config, p)
    rho0 = _full_initial_state(config, p.n_ground)
    dt = _fixed_dt(config) or auto_dt(m, t_end)
    traj = integrate(m, rho0, t_end, dt, config.sample_every)
    return _simulate_output(traj, traj.populations())


def _run_simulate_slow(config: RunConfig):
    p = _lambda_params(config)
    m = as_lindblad(reduce_model(build_two_scale(p)))
    t_end = _resolve_t_end(config, p)
    rho0_full = _full_initial_state(config, p.n_ground)
    # project onto the slow variable; ground-supported states pass through
    rho0 = split_slow_fast(rho0_full, p.gamma).rho_s[1:, 1:]
    dt = _fixed_dt(config) or auto_dt(m, t_end)
    traj = integrate(m, rho0, t_end, dt, config.sample_every)
    pops = traj.populations()
    return _simulate_output(traj, np.column_stack([np.zeros(len(pops)), pops]))


def _compare_output(config: RunConfig, p: LambdaParams, rho0_ground: np.ndarray):
    """Full and reduced runs on the config's clock, with their CSV table and meta."""
    result = compare_full_vs_slow(
        p, rho0_ground, _resolve_t_end(config, p), _fixed_dt(config), config.sample_every
    )
    header = "t,y_full,y_slow,dist_frobenius"
    rows = [
        [result.full.times[i], result.full.outputs[i], result.slow.outputs[i], result.distances[i]]
        for i in range(len(result.full.times))
    ]
    meta = _traj_meta("full_", result.full) + _traj_meta("slow_", result.slow)
    return result, header, rows, meta


def _run_compare(config: RunConfig):
    p = _lambda_params(config)
    result, header, rows, meta = _compare_output(config, p, _ground_initial_state(config, p))
    summary = [
        f"T_s: {_fmt(slow_timescale(p))}",
        f"dist_max: {_fmt(result.distances.max())}",
        f"dist_final: {_fmt(result.distances[-1])}",
    ]
    return header, rows, meta, summary


def _run_reduce(config: RunConfig):
    p = _lambda_params(config)
    rm = reduce_model(build_two_scale(p))
    header = "k,rate_slow,gamma_slow,bright_re,bright_im"
    rows = [
        [k + 1, rm.jumps_slow[k][0], rm.gamma_slow[k], rm.bright_state[k].real, rm.bright_state[k].imag]
        for k in range(rm.n_ground)
    ]
    summary = [
        f"n_ground: {rm.n_ground}",
        f"total_gamma: {_fmt(rm.total_gamma)}",
        f"T_s: {_fmt(slow_timescale(p))}",
        "H_s diagonal: " + " ".join(_fmt(x) for x in np.diag(rm.hamiltonian_slow).real),
    ]
    for i, row in enumerate(rm.hamiltonian_slow):
        summary.append(f"H_s[{i}]: " + " ".join(_fmt_complex(z) for z in row))
    for k, (rate, q) in enumerate(rm.jumps_slow):
        summary.append(f"Q_s[{k + 1}] rate: {_fmt(rate)}")
        for i, row in enumerate(q):
            summary.append(f"Q_s[{k + 1}][{i}]: " + " ".join(_fmt_complex(z) for z in row))
    summary.append("gamma_slow: " + " ".join(_fmt(g) for g in rm.gamma_slow))
    summary.append("bright_state: " + " ".join(_fmt_complex(z) for z in rm.bright_state))
    summary.append(f"sum_gamma_slow: {_fmt(sum(rm.gamma_slow))}")
    return header, rows, [], summary


def _run_sweep(config: RunConfig):
    p = _lambda_params(config)
    t_end_slow = _resolve_t_end(config, p)
    result = epsilon_sweep(p, config.sweep_scales, t_end_slow, _fixed_dt(config))
    header = "epsilon,sup_distance"
    rows = [[result.epsilons[i], result.sup_distances[i]] for i in range(len(result.epsilons))]
    meta = [("scale_factors", " ".join(_fmt(s) for s in result.scale_factors))]
    summary = [
        f"fitted_slope: {_fmt(result.fitted_slope)}",
        f"fit_residual_log10: {_fmt(result.fit_residual)}",
        f"n_fitted: {result.n_fitted}",
        f"fitted_slope_all_points: {_fmt(result.fitted_slope_all)}",
        "sup_distance_all_t: " + " ".join(_fmt(d) for d in result.sup_distances_all),
    ]
    return header, rows, meta, summary


def _run_rwa_check(config: RunConfig):
    p3 = _three_scale_params(config)
    t_end = _resolve_t_end(config, rwa_effective(p3))
    result = rwa_comparison(p3, t_end, _fixed_dt(config), config.sample_every)
    header = "t,pop_e_driven,pop_e_rwa,abs_diff"
    pe_d = result.driven.excited_population
    pe_r = result.rwa.excited_population
    rows = [
        [result.driven.times[i], pe_d[i], pe_r[i], abs(pe_d[i] - pe_r[i])]
        for i in range(len(pe_d))
    ]
    meta = _traj_meta("driven_", result.driven) + _traj_meta("rwa_", result.rwa)
    summary = [f"max_pop_diff: {_fmt(result.max_pop_diff)}"]
    return header, rows, meta, summary


def _run_dark_state_check(config: RunConfig):
    p = _lambda_params(config)
    if p.n_ground < 2:
        raise ConfigError("dark-state-check needs at least 2 ground states")
    rm = reduce_model(build_two_scale(p))
    try:
        _, darks = bright_dark_states(p.rabi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    dark = darks[0]
    rho_dark = np.outer(dark, dark.conj())
    gen_norm = equilibrium_check(rm, rho_dark)
    y_dark = slow_output(rm, rho_dark)
    result, header, rows, meta = _compare_output(config, p, rho_dark)
    y_slow_max = max(slow_output(rm, rho) for rho in result.slow.states)
    y_full_max = float(result.full.outputs.max())
    summary = [
        f"generator_norm: {_fmt(gen_norm)}",
        f"generator_norm<=1e-13: {'PASS' if gen_norm <= 1e-13 else 'FAIL'}",
        f"y_slow_at_dark: {_fmt(y_dark)}",
        f"y_slow_max: {_fmt(y_slow_max)}",
        f"y_full_max: {_fmt(y_full_max)}",
        f"y_full_max<=1e-6: {'PASS' if y_full_max <= 1e-6 else 'FAIL'}",
    ]
    return header, rows, meta, summary


def _scalar_family(eps: float) -> TikhonovSystem:
    # exact slow slope k = eps + 2 eps^2 + 3 eps^3 + O(eps^4): both
    # correction terms of the second-order expansion are active
    return TikhonovSystem(
        dim_slow=1,
        dim_fast=1,
        a=np.array([[1.0]]),
        f=lambda x, y: -x + y,
        g=lambda x, y: x + y,
        epsilon=eps,
    )


def _run_verify_appendix(config: RunConfig):
    epsilons = np.geomspace(1e-3, 1e-1, 7)
    r1, r2 = expansion_residuals(
        _scalar_family, np.array([1.0]), np.array([0.0]), 1.0, epsilons
    )
    slope1, resid1 = fit_loglog_slope(epsilons, r1)
    slope2, resid2 = fit_loglog_slope(epsilons, r2)
    header = "epsilon,residual_order1,residual_order2"
    rows = [[epsilons[i], r1[i], r2[i]] for i in range(len(epsilons))]
    summary = [
        f"order1_slope: {_fmt(slope1)}",
        f"order1_slope_in_[1.6,2.4]: {'PASS' if 1.6 <= slope1 <= 2.4 else 'FAIL'}",
        f"order2_slope: {_fmt(slope2)}",
        f"order2_slope_in_[2.6,3.4]: {'PASS' if 2.6 <= slope2 <= 3.4 else 'FAIL'}",
        f"order1_fit_residual_log10: {_fmt(resid1)}",
        f"order2_fit_residual_log10: {_fmt(resid2)}",
    ]
    if isinstance(config.model, LambdaParams):
        m = build_two_scale(config.model)
        system = standard_form(m)
        dim = m.dim
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(5):
            rho_g = random_density(dim - 1, rng)
            rho_s = embed_ground(rho_g)
            direct = rho_f_first_order(rho_s, m.hamiltonian, 1.0 / system.epsilon)
            via_manifold = vec_to_herm(
                manifold_first_order(system, herm_to_vec(rho_s)), dim
            )
            worst = max(worst, float(np.abs(via_manifold - direct).max()))
        summary.append(f"manifold_vs_closed_form_max_err: {_fmt(worst)}")
        summary.append(
            f"manifold_vs_closed_form<=1e-10: {'PASS' if worst <= 1e-10 else 'FAIL'}"
        )
    return header, rows, [], summary


_RUNNERS = {
    "simulate-full": _run_simulate,
    "simulate-slow": _run_simulate_slow,
    "compare": _run_compare,
    "reduce": _run_reduce,
    "sweep-eps": _run_sweep,
    "rwa-check": _run_rwa_check,
    "dark-state-check": _run_dark_state_check,
    "verify-appendix": _run_verify_appendix,
}


def run(config: RunConfig, config_bytes: bytes | None = None) -> dict:
    """Execute the configured experiment and write its artifacts.

    Returns {"csv": path, "summary": path}.  Raises ConfigError for
    invalid configurations and lets computation errors propagate.
    """
    if config.output_path is None:
        raise ConfigError("missing key: output_path")
    if config_bytes is None:
        config_bytes = render_config(config).encode("utf-8")
    config_sha = hashlib.sha256(config_bytes).hexdigest()
    header, rows, meta_extra, summary_lines = _RUNNERS[config.experiment](config)
    outdir = config.output_path
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, f"{config.experiment}.csv")
    summary_path = os.path.join(outdir, "summary.txt")
    _atomic_write(csv_path, _csv_text(header, rows))
    lines = _meta_lines(config, config_sha, meta_extra) + summary_lines
    _atomic_write(summary_path, "\n".join(lines) + "\n")
    return {"csv": csv_path, "summary": summary_path}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cptsim",
        description="Simulate laser-driven (N+1)-level systems and their slow reduction.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", help="output directory (overrides output_path)")
        p.add_argument("--dt", type=float, help="integration step (overrides dt)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    try:
        config = parse_config(raw.decode("utf-8"), experiment=args.experiment)
        if args.dt is not None:
            if not _positive_finite(args.dt):
                raise ConfigError(f"dt must be positive and finite, got {args.dt}")
            config = dataclasses.replace(config, dt=float(args.dt))
        if args.out is not None:
            config = dataclasses.replace(config, output_path=args.out)
        paths = run(config, config_bytes=raw)
    except (ConfigError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, ValueError, OverflowError, FloatingPointError) as exc:
        # np.linalg.LinAlgError is a ValueError
        print(f"error: computation failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4
    if config.experiment == "reduce":
        with open(paths["summary"], "r", encoding="utf-8") as fh:
            print(fh.read(), end="")
    print(f"wrote {paths['csv']} and {paths['summary']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
