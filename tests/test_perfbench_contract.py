"""The library surface that the benchmark in perfbench/ relies on.

perfbench runs every workload in-process through cptsim.cli.main, checks
each pass's artifacts with the workload's own checks, times set-up with
workloads.setup_code, records cptsim.backend_name(), wraps the integrator
where cptsim.sim and cptsim.cli bind it, and reads step and renormalization
counts from Trajectory.meta.  A library change that breaks any of these
fails the benchmark run, so these tests pin them.  Nothing under perfbench/
is modified; workloads.py is loaded from its file.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import cptsim
import cptsim.cli
import cptsim.sim
from cptsim.models import LambdaParams, build_two_scale

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves annotations through sys.modules
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_pass_succeeds_and_passes_its_checks(tmp_path, name):
    workload = workloads.build(name, ROOT, tmp_path, 0)
    outdir = tmp_path / "out"
    for experiment, config in workload.jobs:
        code = cptsim.cli.main([experiment, "--config", str(config), "--out", str(outdir / experiment)])
        assert code == 0, experiment
    assert workload.check(outdir) == []
    exec(workloads.setup_code(workload.setup_model), {})


def test_bindings_and_meta_the_benchmark_reads():
    assert isinstance(cptsim.backend_name(), str)
    # the integrator hook wraps both bindings; they must be one function
    assert cptsim.cli.integrate is cptsim.sim.integrate
    m = build_two_scale(LambdaParams(detuning=(0.0,), rabi=(1.0,), gamma=(5.0,)))
    rho0 = np.diag([0.0, 1.0]).astype(np.complex128)
    traj = cptsim.sim.integrate(m, rho0, t_end=0.1, dt=1e-3)
    assert traj.meta["n_steps"] == 100
    assert isinstance(traj.meta["n_renorm"], int)
