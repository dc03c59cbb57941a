"""The benchmark's workloads: seeded configs, CLI jobs and output checks.

Every workload is a list of CLI experiments run in-process through
``cptsim.cli.main``.  Seed 0 uses the shipped configs unchanged (``cli``)
or the tier-1 parameters (``sweep``, ``driven``).  Any other seed scales
each detuning and each drive amplitude (Rabi frequency or ``u``) by its own
factor drawn from [0.9, 1.1] and leaves the decay rates alone.  The run
window is then held at its seed-0 length in absolute time, so every seed
integrates the same number of steps and only the physics differs.

Why these workloads:

- ``sweep``: the A2 error-scaling sweep.  Kernel-bound, sparse sampling.
  Scale factor 16 alone is 75% of the steps of the tier-1 sweep, about 60 s
  of its 80 s on a 2-vCPU x86-64 host, more than one run can hold, so the
  sweep stops at 8.  It takes 3 in place of 2, which keeps the three fitted
  points at epsilon <= 0.13 where the error is still linear: with 2 the
  fitted slope came within 0.02 of the gate on some seeds, with 3 it stays
  above 0.88.
- ``cli``: every experiment the shipped configs support.  Dense sampling,
  so config parsing, validation and artifact writing carry weight, and
  ``verify-appendix`` runs the Tikhonov integrator.
- ``driven``: ``rwa-check`` on the A7 three-scale model, the only user of
  the per-step driven kernel.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FOUR_LEVEL_CONFIG = "configs/four_level_compare.json"
DARK_STATE_CONFIG = "configs/dark_state.json"

SWEEP_SCALES = [1.0, 3.0, 4.0, 8.0]

# A7: averaged model against the laboratory-frame drive.
DRIVEN_DOC = {
    "model": {
        "type": "three_scale",
        "lambda_e": 200.0,
        "lambda_g": [0.0],
        "mu": [1.0],
        "u_re": [0.5],
        "u_im": [0.0],
        "detuning": [0.0],
        "gamma": [5.0],
    },
    "t_end": 5.0,
    "t_end_units": "absolute",
    "dt": "auto",
    "sample_every": 10,
    "experiment": "rwa-check",
}

SCALE_LOW, SCALE_HIGH = 0.9, 1.1


@dataclass
class Workload:
    name: str
    jobs: list[tuple[str, Path]]  # (experiment, config path)
    setup_model: dict  # model block of the first model the workload assembles
    checks: list[Callable[[Path], list[str]]]

    def check(self, outdir: Path) -> list[str]:
        """Problems found in one pass's artifacts; empty when all hold."""
        problems = []
        for check in self.checks:
            problems.extend(check(outdir))
        return problems


def _amplitude_keys(model: dict) -> tuple[str, str]:
    return ("rabi_re", "rabi_im") if model["type"] == "lambda" else ("u_re", "u_im")


def seeded_doc(doc: dict, seed: int) -> dict:
    """The config for a seed: seed 0 returns doc unchanged."""
    if seed == 0:
        return doc
    rng = random.Random(seed)
    out = json.loads(json.dumps(doc))
    model = out["model"]
    re_key, im_key = _amplitude_keys(model)
    for k in range(len(model["detuning"])):
        model["detuning"][k] *= rng.uniform(SCALE_LOW, SCALE_HIGH)
        factor = rng.uniform(SCALE_LOW, SCALE_HIGH)
        model[re_key][k] *= factor
        model[im_key][k] *= factor
    if out.get("t_end_units") == "slow_timescale":
        out["t_end"] = doc["t_end"] * _slow_timescale(doc["model"])
        out["t_end_units"] = "absolute"
    return out


def _rabi_power(model: dict) -> float:
    re_key, im_key = _amplitude_keys(model)
    return sum(re * re + im * im for re, im in zip(model[re_key], model[im_key]))


def _slow_timescale(model: dict) -> float:
    return sum(model["gamma"]) / _rabi_power(model)


def _summary(outdir: Path, experiment: str) -> dict[str, str]:
    text = (outdir / experiment / "summary.txt").read_text(encoding="utf-8")
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _check_sweep(outdir: Path) -> list[str]:
    summary = _summary(outdir, "sweep-eps")
    slope = float(summary["fitted_slope"])
    residual = float(summary["fit_residual_log10"])
    problems = []
    if not 0.8 <= slope <= 1.2:
        problems.append(f"sweep: fitted_slope {slope} outside [0.8, 1.2]")
    if not residual <= 0.15:
        problems.append(f"sweep: fit_residual {residual} above 0.15")
    return problems


def _check_verdicts(outdir: Path) -> list[str]:
    problems = []
    for experiment_dir in sorted(p for p in outdir.iterdir() if p.is_dir()):
        for key, value in _summary(outdir, experiment_dir.name).items():
            if value in ("PASS", "FAIL") and value != "PASS":
                problems.append(f"{experiment_dir.name}: {key} reads {value}")
    return problems


def _check_compare(outdir: Path) -> list[str]:
    lines = (outdir / "compare" / "compare.csv").read_text(encoding="utf-8").splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    window = [(y_full, y_slow) for t, y_full, y_slow, _ in rows if t >= 1.0]
    rel_err = max(abs(a - b) for a, b in window) / max(a for a, _ in window)
    if not rel_err <= 0.2:
        return [f"compare: windowed relative output error {rel_err} above 0.2"]
    return []


def _reduce_check(model: dict) -> Callable[[Path], list[str]]:
    power = _rabi_power(model)
    total = sum(model["gamma"])
    expected = sum(4.0 * g * power / total**2 for g in model["gamma"])

    def check(outdir: Path) -> list[str]:
        got = float(_summary(outdir, "reduce")["sum_gamma_slow"])
        if not abs(got - expected) <= 1e-12 * abs(expected):
            return [f"reduce: sum_gamma_slow {got} differs from closed form {expected}"]
        return []

    return check


def _check_driven(outdir: Path) -> list[str]:
    diff = float(_summary(outdir, "rwa-check")["max_pop_diff"])
    if not diff <= 0.05:
        return [f"driven: max_pop_diff {diff} above 0.05"]
    return []


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def _config(root: Path, workdir: Path, shipped: str, seed: int) -> tuple[Path, dict]:
    """Path and parsed model of a shipped config for this seed."""
    source = root / shipped
    doc = json.loads(source.read_text(encoding="utf-8"))
    if seed == 0:
        return source, doc["model"]
    doc = seeded_doc(doc, seed)
    return _write(workdir / Path(shipped).name, doc), doc["model"]


def build(name: str, root: Path, workdir: Path, seed: int) -> Workload:
    """Write the workload's configs under workdir and return its jobs."""
    if name == "sweep":
        doc = json.loads((root / FOUR_LEVEL_CONFIG).read_text(encoding="utf-8"))
        doc.update(experiment="sweep-eps", dt="auto", sweep={"scales": SWEEP_SCALES})
        doc = seeded_doc(doc, seed)
        path = _write(workdir / "sweep.json", doc)
        return Workload(name, [("sweep-eps", path)], doc["model"], [_check_sweep])
    if name == "cli":
        four_level, model = _config(root, workdir, FOUR_LEVEL_CONFIG, seed)
        dark, _ = _config(root, workdir, DARK_STATE_CONFIG, seed)
        jobs = [
            (experiment, four_level)
            for experiment in ("compare", "simulate-full", "simulate-slow", "reduce", "verify-appendix")
        ]
        jobs.append(("dark-state-check", dark))
        checks = [_check_verdicts, _check_compare, _reduce_check(model)]
        return Workload(name, jobs, model, checks)
    if name == "driven":
        doc = seeded_doc(DRIVEN_DOC, seed)
        path = _write(workdir / "driven.json", doc)
        return Workload(name, [("rwa-check", path)], doc["model"], [_check_driven])
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep", "cli", "driven")


def setup_code(model: dict) -> str:
    """Source of a child process that times import plus first model assembly."""
    if model["type"] == "lambda":
        params = (
            f"LambdaParams(detuning={tuple(model['detuning'])!r}, "
            f"rabi={tuple(complex(a, b) for a, b in zip(model['rabi_re'], model['rabi_im']))!r}, "
            f"gamma={tuple(model['gamma'])!r})"
        )
        build_call = "build_two_scale"
    else:
        params = (
            f"ThreeScaleParams(lambda_e={model['lambda_e']!r}, "
            f"lambda_g={tuple(model['lambda_g'])!r}, mu={tuple(model['mu'])!r}, "
            f"u_amp={tuple(complex(a, b) for a, b in zip(model['u_re'], model['u_im']))!r}, "
            f"detuning={tuple(model['detuning'])!r}, gamma={tuple(model['gamma'])!r})"
        )
        build_call = "build_three_scale"
    return (
        "import time\n"
        "start = time.perf_counter()\n"
        "import cptsim\n"
        "from cptsim.models import (\n"
        "    LambdaParams, ThreeScaleParams, build_three_scale, build_two_scale, liouvillian,\n"
        ")\n"
        f"liouvillian({build_call}({params}))\n"
        "print(repr(time.perf_counter() - start))\n"
    )

