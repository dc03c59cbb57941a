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
from .linalg import herm_to_vec, random_density, validate_density, vec_to_herm
from .models import (
    LambdaParams,
    LindbladModel,
    ThreeScaleParams,
    build_three_scale,
    build_two_scale,
    effective_hamiltonian,
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
    """Validated run description."""

    model: LambdaParams | ThreeScaleParams
    experiment: str
    initial_state: str | tuple = "uniform_ground"
    t_end: float | None = None
    t_end_units: str = "absolute"
    dt: float | None = None  # None: "auto"
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


def _number(x, key: str) -> float:
    """A config value as a finite float; anything else is a ConfigError naming key."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{key} must be a number")
    try:
        x = float(x)
    except OverflowError:
        raise ConfigError(f"{key} must be finite, got an integer too large for a double") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be finite, got {x}")
    return x


def _dt_from(x) -> float | None:
    """dt from the config file or --dt: a positive finite number, or None for 'auto'."""
    if x == "auto":
        return None
    if isinstance(x, str) or _number(x, "dt") <= 0.0:
        raise ConfigError(f"dt must be a positive number or 'auto', got {x!r}")
    return float(x)


def _float_list(obj, name: str) -> list[float]:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{name} must be a nonempty array of numbers")
    return [_number(x, f"{name}[{i}]") for i, x in enumerate(obj)]


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
        lambda_e = _number(_require(obj, "lambda_e", "model."), "model.lambda_e")
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
        t_end = _number(t_end, "t_end")
        if t_end <= 0.0:
            raise ConfigError(f"t_end must be positive, got {t_end}")
    elif chosen in _TIMED_EXPERIMENTS:
        raise ConfigError("missing key: t_end")
    t_end_units = doc.get("t_end_units", "absolute")
    if t_end_units not in ("absolute", "slow_timescale"):
        raise ConfigError(
            f"t_end_units must be 'absolute' or 'slow_timescale', got {t_end_units!r}"
        )
    dt = _dt_from(doc.get("dt", "auto"))
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


def _csv_text(header: str, columns) -> str:
    lines = [header] + [",".join(_fmt(x) for x in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def _model_of(config: RunConfig, kind: type):
    """config.model if it is a kind, else the ConfigError naming the model.type needed."""
    if not isinstance(config.model, kind):
        name = "lambda" if kind is LambdaParams else "three_scale"
        raise ConfigError(f"experiment {config.experiment} needs model.type '{name}'")
    return config.model


def _resolve_t_end(config: RunConfig, p: LambdaParams) -> float:
    if config.t_end_units == "slow_timescale":
        return config.t_end * slow_timescale(p)
    return config.t_end


def _projector(p: LambdaParams, state: str) -> np.ndarray:
    """|b><b| for state 'bright', else |d><d| for the first dark state d, on the ground block."""
    try:
        bright, darks = bright_dark_states(p.rabi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if state == "bright":
        vec = bright
    else:
        if not darks:
            raise ConfigError("dark state needs at least 2 ground states")
        vec = darks[0]
    return np.outer(vec, vec.conj())


def _full_initial_state(config: RunConfig, p: LambdaParams) -> np.ndarray:
    """Initial state in the (N+1)-dim space; p is the run's (rotating-wave) Lambda model."""
    state = config.initial_state
    dim = p.n_ground + 1
    if state == "uniform_ground":
        return embed_ground(np.eye(p.n_ground, dtype=np.complex128) / p.n_ground)
    if state == "excited":
        rho = np.zeros((dim, dim), dtype=np.complex128)
        rho[0, 0] = 1.0
        return rho
    if state in ("bright", "dark"):
        return embed_ground(_projector(p, state))
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
    rho_full = _full_initial_state(config, p)
    if max(np.abs(rho_full[0, :]).max(), np.abs(rho_full[:, 0]).max()) > 1e-12:
        raise ConfigError("initial_state must be supported on the ground block")
    return rho_full[1:, 1:]


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


def _simulate_output(traj, pops):
    """Artifacts of simulate-full and simulate-slow; pops are columns, the excited one first."""
    header = "t,y,pop_e," + ",".join(f"pop_g{k}" for k in range(1, len(pops)))
    summary = [f"y_final: {_fmt(traj.outputs[-1])}", f"y_max: {_fmt(traj.outputs.max())}"]
    return header, [traj.times, traj.outputs, *pops], _traj_meta("", traj), summary


def _run_simulate(config: RunConfig):
    model = config.model
    if isinstance(model, ThreeScaleParams):
        m, p = build_three_scale(model), rwa_effective(model)
    else:
        m, p = build_two_scale(model), model
    t_end = _resolve_t_end(config, p)
    rho0 = _full_initial_state(config, p)
    traj = integrate(m, rho0, t_end, config.dt or auto_dt(m, t_end), config.sample_every)
    return _simulate_output(traj, traj.populations().T)


def _run_simulate_slow(config: RunConfig):
    p = _model_of(config, LambdaParams)
    m = as_lindblad(reduce_model(p))
    t_end = _resolve_t_end(config, p)
    rho0_full = _full_initial_state(config, p)
    # project onto the slow variable; ground-supported states pass through
    rho0 = split_slow_fast(rho0_full, p.gamma).rho_s[1:, 1:]
    traj = integrate(m, rho0, t_end, config.dt or auto_dt(m, t_end), config.sample_every)
    return _simulate_output(traj, [np.zeros(len(traj.times)), *traj.populations().T])


def _compare_output(config: RunConfig, p: LambdaParams, m_full: LindbladModel,
                    m_slow: LindbladModel, rho0_ground: np.ndarray):
    """Full and reduced runs on the config's clock, with their CSV table and meta."""
    result = compare_full_vs_slow(
        m_full, m_slow, rho0_ground, _resolve_t_end(config, p), config.dt, config.sample_every
    )
    header = "t,y_full,y_slow,dist_frobenius"
    columns = [result.full.times, result.full.outputs, result.slow.outputs, result.distances]
    meta = _traj_meta("full_", result.full) + _traj_meta("slow_", result.slow)
    return result, header, columns, meta


def _run_compare(config: RunConfig):
    p = _model_of(config, LambdaParams)
    rho0_ground = _ground_initial_state(config, p)
    m_full = build_two_scale(p)
    m_slow = as_lindblad(reduce_model(p))
    result, header, columns, meta = _compare_output(config, p, m_full, m_slow, rho0_ground)
    summary = [
        f"T_s: {_fmt(slow_timescale(p))}",
        f"dist_max: {_fmt(result.distances.max())}",
        f"dist_final: {_fmt(result.distances[-1])}",
    ]
    return header, columns, meta, summary


def _run_reduce(config: RunConfig):
    p = _model_of(config, LambdaParams)
    rm = reduce_model(p)
    header = "k,rate_slow,gamma_slow,bright_re,bright_im"
    columns = [
        range(1, rm.n_ground + 1),
        [rate for rate, _ in rm.jumps_slow],
        rm.gamma_slow,
        rm.bright_state.real,
        rm.bright_state.imag,
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
    return header, columns, [], summary


def _run_sweep(config: RunConfig):
    p = _model_of(config, LambdaParams)
    result = epsilon_sweep(p, config.sweep_scales, _resolve_t_end(config, p), config.dt)
    header = "epsilon,sup_distance"
    meta = [("scale_factors", " ".join(_fmt(s) for s in result.scale_factors))]
    summary = [
        f"fitted_slope: {_fmt(result.fitted_slope)}",
        f"fit_residual_log10: {_fmt(result.fit_residual)}",
        f"n_fitted: {result.n_fitted}",
        f"fitted_slope_all_points: {_fmt(result.fitted_slope_all)}",
        "sup_distance_all_t: " + " ".join(_fmt(d) for d in result.sup_distances_all),
    ]
    return header, [result.epsilons, result.sup_distances], meta, summary


def _run_rwa_check(config: RunConfig):
    p3 = _model_of(config, ThreeScaleParams)
    t_end = _resolve_t_end(config, rwa_effective(p3))
    result = rwa_comparison(p3, t_end, config.dt, config.sample_every)
    header = "t,pop_e_driven,pop_e_rwa,abs_diff"
    pe_d = result.driven.populations()[:, 0]
    pe_r = result.rwa.populations()[:, 0]
    meta = _traj_meta("driven_", result.driven) + _traj_meta("rwa_", result.rwa)
    summary = [f"max_pop_diff: {_fmt(result.max_pop_diff)}"]
    return header, [result.driven.times, pe_d, pe_r, np.abs(pe_d - pe_r)], meta, summary


def _run_dark_state_check(config: RunConfig):
    p = _model_of(config, LambdaParams)
    if p.n_ground < 2:
        raise ConfigError("dark-state-check needs at least 2 ground states")
    m_full = build_two_scale(p)
    rm = reduce_model(p)
    rho_dark = _projector(p, "dark")
    gen_norm = equilibrium_check(rm, rho_dark)
    y_dark = slow_output(rm, rho_dark)
    result, header, columns, meta = _compare_output(config, p, m_full, as_lindblad(rm), rho_dark)
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
    return header, columns, meta, summary


def _scalar_family(eps: float) -> TikhonovSystem:
    # dx/dt = -x + y, dy/dt = -y/eps + x + y; exact slow slope
    # k = eps + 2 eps^2 + 3 eps^3 + O(eps^4): both correction terms of
    # the second-order expansion are active
    return TikhonovSystem(a=np.array([[1.0]]), c=np.array([[-1.0, 1.0], [1.0, 1.0]]), epsilon=eps)


def _run_verify_appendix(config: RunConfig):
    epsilons = np.geomspace(1e-3, 1e-1, 7)
    r1, r2 = expansion_residuals(
        _scalar_family, np.array([1.0]), np.array([0.0]), 1.0, epsilons
    )
    slope1, resid1 = fit_loglog_slope(epsilons, r1)
    slope2, resid2 = fit_loglog_slope(epsilons, r2)
    header = "epsilon,residual_order1,residual_order2"
    summary = [
        f"order1_slope: {_fmt(slope1)}",
        f"order1_slope_in_[1.6,2.4]: {'PASS' if 1.6 <= slope1 <= 2.4 else 'FAIL'}",
        f"order2_slope: {_fmt(slope2)}",
        f"order2_slope_in_[2.6,3.4]: {'PASS' if 2.6 <= slope2 <= 3.4 else 'FAIL'}",
        f"order1_fit_residual_log10: {_fmt(resid1)}",
        f"order2_fit_residual_log10: {_fmt(resid2)}",
    ]
    p = config.model
    if isinstance(p, LambdaParams):
        system = standard_form(p)
        h = effective_hamiltonian(p)
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(5):
            rho_s = embed_ground(random_density(p.n_ground, rng))
            direct = rho_f_first_order(rho_s, h, 1.0 / system.epsilon)
            via_manifold = vec_to_herm(
                manifold_first_order(system, herm_to_vec(rho_s)), p.n_ground + 1
            )
            worst = max(worst, float(np.abs(via_manifold - direct).max()))
        summary.append(f"manifold_vs_closed_form_max_err: {_fmt(worst)}")
        summary.append(
            f"manifold_vs_closed_form<=1e-10: {'PASS' if worst <= 1e-10 else 'FAIL'}"
        )
    return header, [epsilons, r1, r2], [], summary


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


def run(config: RunConfig, config_bytes: bytes) -> dict:
    """Execute the configured experiment and write its artifacts.

    config_bytes is the config file as read; summary.txt records its
    sha256.  Returns {"csv": path, "summary": path}.  Raises ConfigError
    for invalid configurations and lets computation errors propagate.
    """
    if config.output_path is None:
        raise ConfigError("missing key: output_path")
    config_sha = hashlib.sha256(config_bytes).hexdigest()
    header, columns, meta_extra, summary_lines = _RUNNERS[config.experiment](config)
    outdir = config.output_path
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, f"{config.experiment}.csv")
    summary_path = os.path.join(outdir, "summary.txt")
    _atomic_write(csv_path, _csv_text(header, columns))
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
            config = dataclasses.replace(config, dt=_dt_from(args.dt))
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
