import hashlib
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cptsim.cli import (
    ConfigError,
    EXPERIMENTS,
    RunConfig,
    main,
    parse_config,
    run,
)
from cptsim.models import LambdaParams, ThreeScaleParams
from cptsim.reduction import bright_dark_states

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

LAMBDA_DOC = {
    "model": {
        "type": "lambda",
        "detuning": [0.3, -0.2],
        "rabi_re": [1.0, 0.8],
        "rabi_im": [0.0, 0.0],
        "gamma": [4.0, 6.0],
    },
    "t_end": 1.0,
    "experiment": "compare",
    "output_path": "out",
}


LAMBDA_PARAMS = LambdaParams(detuning=(0.3, -0.2), rabi=(1.0, 0.8), gamma=(4.0, 6.0))


def doc(**overrides):
    merged = json.loads(json.dumps(LAMBDA_DOC))
    merged.update(overrides)
    return json.dumps(merged)


def test_parse_defaults():
    config = parse_config(doc())
    assert config.dt is None
    assert config.sample_every == 10
    assert config.initial_state == "uniform_ground"
    assert config.t_end_units == "absolute"
    assert isinstance(config.model, LambdaParams)


def test_parse_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown key: bogus"):
        parse_config(doc(bogus=1))


def test_parse_rejects_unknown_model_key():
    bad = json.loads(doc())
    bad["model"]["extra"] = 1
    with pytest.raises(ConfigError, match="unknown key: model.extra"):
        parse_config(json.dumps(bad))


def test_parse_rejects_negative_rate_with_index():
    bad = json.loads(doc())
    bad["model"]["gamma"] = [4.0, -6.0]
    with pytest.raises(ConfigError, match=r"model\.gamma\[1\] must be positive"):
        parse_config(json.dumps(bad))


def test_parse_reports_syntax_position():
    with pytest.raises(ConfigError, match="line 2, column"):
        parse_config('{\n  "model": oops\n}')


def test_parse_requires_model():
    with pytest.raises(ConfigError, match="missing key: model"):
        parse_config("{}")


def test_parse_requires_t_end_for_timed_experiments():
    bad = json.loads(doc())
    del bad["t_end"]
    with pytest.raises(ConfigError, match="missing key: t_end"):
        parse_config(json.dumps(bad))
    # reduce needs no clock
    bad["experiment"] = "reduce"
    assert parse_config(json.dumps(bad)).t_end is None


def test_parse_requires_sweep_block_for_sweep():
    with pytest.raises(ConfigError, match="missing key: sweep"):
        parse_config(doc(experiment="sweep-eps"))


def test_parse_rejects_bad_dt():
    with pytest.raises(ConfigError, match="dt must be"):
        parse_config(doc(dt="fast"))
    with pytest.raises(ConfigError, match="dt must be"):
        parse_config(doc(dt=-0.1))


def test_parse_rejects_bad_initial_state_name():
    with pytest.raises(ConfigError, match="initial_state"):
        parse_config(doc(initial_state="vacuum"))


def test_subcommand_overrides_file_experiment():
    config = parse_config(doc(), experiment="reduce")
    assert config.experiment == "reduce"


def test_parse_render_round_trip_lambda():
    config = parse_config(doc(dt=0.001, sample_every=7, t_end_units="slow_timescale"))
    assert config == RunConfig(
        model=LAMBDA_PARAMS,
        experiment="compare",
        t_end=1.0,
        t_end_units="slow_timescale",
        dt=0.001,
        sample_every=7,
        output_path="out",
    )


def test_parse_render_round_trip_three_scale():
    document = json.dumps(
        {
            "model": {
                "type": "three_scale",
                "lambda_e": 200.0,
                "lambda_g": [0.0],
                "mu": [1.0],
                "u_re": [0.5],
                "u_im": [0.1],
                "detuning": [0.0],
                "gamma": [5.0],
            },
            "t_end": 2.0,
            "experiment": "rwa-check",
            "output_path": "out",
        }
    )
    assert parse_config(document) == RunConfig(
        model=ThreeScaleParams(
            lambda_e=200.0,
            lambda_g=(0.0,),
            mu=(1.0,),
            u_amp=(0.5 + 0.1j,),
            detuning=(0.0,),
            gamma=(5.0,),
        ),
        experiment="rwa-check",
        t_end=2.0,
        output_path="out",
    )


def test_parse_render_round_trip_explicit_matrix():
    document = doc(
        initial_state={
            "re": [[0.5, 0.0, 0.0], [0.0, 0.25, 0.1], [0.0, 0.1, 0.25]],
            "im": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.05], [0.0, -0.05, 0.0]],
        }
    )
    config = parse_config(document)
    assert config.initial_state == (
        (0.5, 0.0, 0.0),
        (0.0, 0.25, 0.1 + 0.05j),
        (0.0, 0.1 - 0.05j, 0.25),
    )
    assert all(isinstance(z, complex) for row in config.initial_state for z in row)
    assert config == RunConfig(
        model=LAMBDA_PARAMS,
        experiment="compare",
        initial_state=config.initial_state,
        t_end=1.0,
        output_path="out",
    )


def test_bundled_configs_parse():
    for name in ("four_level_compare.json", "dark_state.json"):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            config = parse_config(fh.read())
        assert config.experiment in EXPERIMENTS


def test_run_compare_writes_expected_artifacts(tmp_path):
    text = doc(dt=0.001, output_path=str(tmp_path / "a"))
    paths = run(parse_config(text), text.encode())
    with open(paths["csv"]) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip()
    assert header == "t,y_full,y_slow,dist_frobenius"
    assert first.startswith("0.0,")
    with open(paths["summary"]) as fh:
        summary = fh.read()
    assert "tool_version:" in summary
    assert f"config_sha256: {hashlib.sha256(text.encode()).hexdigest()}" in summary
    assert "backend:" in summary
    assert "np.float64" not in summary


def test_run_is_byte_deterministic(tmp_path):
    text = doc(dt=0.001, output_path=str(tmp_path / "x"))
    blobs = []
    for _ in range(2):
        paths = run(parse_config(text), text.encode())
        with open(paths["csv"], "rb") as fh:
            csv = fh.read()
        with open(paths["summary"], "rb") as fh:
            summary = fh.read()
        blobs.append((csv, summary))
    assert blobs[0] == blobs[1]


def test_run_requires_output_path():
    text = doc()
    config = RunConfig(**{**parse_config(text).__dict__, "output_path": None})
    with pytest.raises(ConfigError, match="output_path"):
        run(config, text.encode())


def test_run_simulate_full_header(tmp_path):
    text = doc(experiment="simulate-full", dt=0.001, output_path=str(tmp_path))
    paths = run(parse_config(text), text.encode())
    with open(paths["csv"]) as fh:
        assert fh.readline().strip() == "t,y,pop_e,pop_g1,pop_g2"


def test_run_reduce_layout(tmp_path):
    text = doc(experiment="reduce", output_path=str(tmp_path))
    paths = run(parse_config(text), text.encode())
    with open(paths["csv"]) as fh:
        assert fh.readline().strip() == "k,rate_slow,gamma_slow,bright_re,bright_im"
    with open(paths["summary"]) as fh:
        summary = fh.read()
    assert "H_s diagonal: 0.3 -0.2" in summary
    assert "T_s:" in summary
    assert "np.float64" not in summary


def test_run_dark_state_check_reports_exact_zero(tmp_path):
    with open(os.path.join(CONFIG_DIR, "dark_state.json"), "rb") as fh:
        raw = fh.read()
    config = RunConfig(**{**parse_config(raw.decode()).__dict__, "output_path": str(tmp_path)})
    paths = run(config, raw)
    with open(paths["summary"]) as fh:
        summary = fh.read()
    assert "generator_norm<=1e-13: PASS" in summary
    assert "y_slow_max: 0.0" in summary
    assert "y_full_max<=1e-6: PASS" in summary


def test_compare_rejects_excited_start():
    text = doc(initial_state="excited", output_path="unused")
    with pytest.raises(ConfigError, match="ground"):
        run(parse_config(text), text.encode())


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(doc(dt=0.001, output_path=str(tmp_path / "out")))
    assert main(["compare", "--config", str(good)]) == 0

    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(doc(bogus=1))
    assert main(["compare", "--config", str(bad_schema)]) == 2

    bad_dt = tmp_path / "bad_dt.json"
    bad_dt.write_text(doc(dt=0.5, output_path=str(tmp_path / "out2")))
    assert main(["compare", "--config", str(bad_dt)]) == 3

    assert main(["compare", "--config", str(tmp_path / "missing.json")]) == 4


def test_main_out_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc(dt=0.001))
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["compare", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["compare", "--config", str(cfg), "--out", str(out2)]) == 0
    with open(out1 / "compare.csv", "rb") as fh:
        a = fh.read()
    with open(out2 / "compare.csv", "rb") as fh:
        b = fh.read()
    assert a == b


def test_main_dt_override_rejects_negative(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc())
    assert main(["compare", "--config", str(cfg), "--dt", "-0.1"]) == 2


THREE_SCALE_MODEL = {
    "type": "three_scale",
    "lambda_e": 200.0,
    "lambda_g": [0.0, 0.0],
    "mu": [1.0, 1.0],
    "u_re": [0.5, 0.5],
    "u_im": [0.0, 0.0],
    "detuning": [0.3, -0.2],
    "gamma": [4.0, 6.0],
}


def test_main_rejects_non_finite_model_values(tmp_path, capsys):
    bad_models = {
        "lambda_detuning": {**LAMBDA_DOC["model"], "detuning": [float("nan"), -0.2]},
        "three_scale_detuning": {**THREE_SCALE_MODEL, "detuning": [float("nan"), -0.2]},
        "three_scale_lambda_e": {**THREE_SCALE_MODEL, "lambda_e": float("inf")},
        # integers too large for a double
        "lambda_gamma_401_digits": {**LAMBDA_DOC["model"], "gamma": [10**400, 6.0]},
        "three_scale_lambda_e_401_digits": {**THREE_SCALE_MODEL, "lambda_e": 10**400},
    }
    for name, model in bad_models.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(doc(model=model, experiment="simulate-full", output_path=str(tmp_path / name)))
        assert main(["simulate-full", "--config", str(cfg)]) == 2, name
        assert "error: model." in capsys.readouterr().err


def _lambda(**fields):
    return {**LAMBDA_DOC["model"], **fields}


# entries past half the float range, where 0.5 * (a + a^H) overflows
THREE_SCALE_SPLIT = {**THREE_SCALE_MODEL, "lambda_g": [0.0, 100.0]}
HUGE_LAMBDA_E = {**THREE_SCALE_SPLIT, "lambda_e": 8.98846567431158e307}
HUGE_DETUNING = _lambda(detuning=[1e308, -0.2])
SMALL_STEP = {"dt": 1e-4, "t_end": 1e-2}

OVERFLOW_RUNS = [
    ("reduce", _lambda(gamma=[1e300, 6.0]), {}, "decay rates too large"),
    # 4 (sum Gamma)^2 overflows in every experiment that reduces the model
    *[(e, _lambda(gamma=[4.6e307, 6.0]), {}, "decay rates too large")
      for e in ("reduce", "compare", "simulate-slow", "dark-state-check")],
    # sum Gamma overflows, also in the split of the initial state and in the standard form
    *[(e, _lambda(gamma=[1e308, 1e308]), {}, "decay rates too large") for e in ("compare", "verify-appendix")],
    # (sum Gamma)^2 underflows to 0, and the slow rates divide by it
    ("reduce", _lambda(gamma=[1e-200, 1e-200]), {}, "decay rates too small"),
    # 4 (sum Gamma)^2 is finite but 4 Gamma_k sum|Omega_k|^2 is not
    ("reduce", _lambda(gamma=[1e100, 6.0], rabi_re=[1e150, 0.8]), {}, "slow rate gamma_slow[0]"),
    # the slow generator's norm at the dark state overflows
    ("dark-state-check", _lambda(detuning=[1e200, -0.2]), SMALL_STEP, "exceeds the stability policy"),
    # the step bound is finite, so the step is refused by the stability policy
    ("simulate-full", HUGE_LAMBDA_E, SMALL_STEP, "exceeds the stability policy"),
    *[(e, HUGE_DETUNING, SMALL_STEP, "exceeds the stability policy") for e in ("simulate-full", "simulate-slow")],
    # an infinite drive peak times a zero coupling leaves a NaN step bound
    ("simulate-full", {**THREE_SCALE_SPLIT, "mu": [0.0, 0.0], "u_re": [1e308, 1e308]}, SMALL_STEP,
     "generator norm bound nan is not finite"),
]


def test_main_maps_overflow_to_exit_3(tmp_path, capsys):
    # a numpy overflow warning would print ahead of the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i, (experiment, model, run_values, message) in enumerate(OVERFLOW_RUNS):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(
                doc(model=model, experiment=experiment, output_path=str(tmp_path / "out"), **run_values)
            )
            assert main([experiment, "--config", str(cfg)]) == 3, (experiment, model)
            err = capsys.readouterr().err
            assert err.startswith("error: computation failed:")
            assert len(err.strip().splitlines()) == 1
            assert message in err


def _first_csv_row(path) -> list[float]:
    with open(path) as fh:
        fh.readline()
        return [float(x) for x in fh.readline().split(",")]


@pytest.mark.filterwarnings("ignore:time-scale separation weak:RuntimeWarning")
@pytest.mark.parametrize(
    "model, rabi",
    [
        (LAMBDA_DOC["model"], LAMBDA_PARAMS.rabi),
        # Omega_k = mu_k u_k: u alone would put 0.42, not 0.155, on the first bright population
        ({**THREE_SCALE_MODEL, "mu": [1.0, 2.0], "u_im": [0.0, 0.3]}, (0.5, 2.0 * (0.5 + 0.3j))),
    ],
    ids=["lambda", "three_scale"],
)
def test_bright_and_dark_starts_follow_the_rabi_amplitudes(tmp_path, model, rabi):
    bright, darks = bright_dark_states(rabi)
    for state, vec in (("bright", bright), ("dark", darks[0])):
        cfg = tmp_path / f"{state}.json"
        cfg.write_text(doc(model=model, experiment="simulate-full", initial_state=state, t_end=1e-3))
        assert main(["simulate-full", "--config", str(cfg), "--out", str(tmp_path / state)]) == 0
        row = _first_csv_row(tmp_path / state / "simulate-full.csv")
        np.testing.assert_allclose(row[2:], [0.0, *np.abs(vec) ** 2], rtol=0.0, atol=1e-14)


def test_simulate_slow_from_excited_starts_at_the_branching_ratios(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc(experiment="simulate-slow", initial_state="excited", t_end=1e-3))
    assert main(["simulate-slow", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    gamma = LAMBDA_DOC["model"]["gamma"]
    expected = [0.0] + [g / sum(gamma) for g in gamma]
    row = _first_csv_row(tmp_path / "out" / "simulate-slow.csv")
    np.testing.assert_allclose(row[2:], expected, rtol=0.0, atol=1e-15)


def test_main_three_scale_simulate_full(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc(model=THREE_SCALE_MODEL, experiment="simulate-full", t_end=0.2))
    assert main(["simulate-full", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "simulate-full.csv") as fh:
        assert fh.readline().strip() == "t,y,pop_e,pop_g1,pop_g2"


def test_main_three_scale_rwa_check_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc(model=THREE_SCALE_MODEL, experiment="rwa-check", t_end=0.2))
    blobs = []
    for name in ("r1", "r2"):
        assert main(["rwa-check", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        with open(tmp_path / name / "rwa-check.csv", "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def _four_level_doc(**overrides) -> str:
    with open(os.path.join(CONFIG_DIR, "four_level_compare.json")) as fh:
        document = json.load(fh)
    document.update(overrides)
    return json.dumps(document)


@pytest.mark.parametrize(
    "overrides, flags, key",
    [
        ({"t_end": float("nan")}, [], "t_end"),
        ({"t_end": float("inf")}, [], "t_end"),
        ({"dt": float("nan")}, [], "dt"),
        ({"dt": float("inf")}, [], "dt"),
        ({}, ["--dt", "nan"], "dt"),
        ({"experiment": "sweep-eps", "sweep": {"scales": [1.0, float("nan"), 4.0, 8.0]}}, [], "sweep.scales[1]"),
        ({"experiment": "sweep-eps", "sweep": {"scales": [1.0, 2.0, float("inf"), 8.0]}}, [], "sweep.scales[2]"),
        # integers too large for a double
        ({"t_end": 10**400}, [], "t_end"),
        ({"dt": 10**400}, [], "dt"),
    ],
)
def test_main_rejects_non_finite_run_values(tmp_path, capsys, overrides, flags, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_four_level_doc(**overrides, output_path=str(tmp_path / "out")))
    experiment = overrides.get("experiment", "compare")
    assert main([experiment, "--config", str(cfg), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be")
    assert len(err.strip().splitlines()) == 1


def test_main_refuses_run_over_step_budget(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        _four_level_doc(
            experiment="simulate-slow", t_end=1e12, t_end_units="absolute", dt="auto",
            output_path=str(tmp_path / "out"),
        )
    )
    assert main(["simulate-slow", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: run needs")
    assert "dt_max=" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "experiment", ["simulate-full", "simulate-slow", "compare", "reduce", "dark-state-check", "rwa-check"]
)
@pytest.mark.parametrize("value", [1e200, -1e300])
@pytest.mark.parametrize("key", ["rabi_re", "rabi_im", "u_re", "u_im"])
def test_main_refuses_rabi_amplitudes_whose_power_overflows(tmp_path, capsys, key, value, experiment):
    # sum |Omega_k|^2 overflows; the bright state and slow timescale would be undefined.
    # A three-scale config's Rabi amplitudes are mu_k u_k.  Either is refused while
    # the config is parsed, whatever the experiment.
    if key.startswith("u_"):
        document = {"model": dict(THREE_SCALE_MODEL), "t_end": 0.2}
        message = "error: model.drive amplitudes too large"
    else:
        document = json.loads(_four_level_doc())
        message = "error: model.rabi amplitudes too large"
    document["model"][key] = [value] * len(document["model"][key])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert len(err.strip().splitlines()) == 1


_magnitudes = st.floats(1e-300, 1e-100) | st.floats(1e100, 1e308)
EXTREMES = st.builds(lambda x, sign: sign * x, _magnitudes, st.sampled_from([1.0, -1.0]))


@st.composite
def extreme_runs(draw):
    """An experiment and its config, with extreme finite values in some model fields and run values.

    The step count stays at 100, or at 1 for an extreme t_end, unless the
    run is refused: an extreme t_end and an extreme dt are never drawn
    together, since their ratio could ask for up to 1e8 steps.
    """
    three_scale = draw(st.booleans())
    model = json.loads(json.dumps(THREE_SCALE_MODEL if three_scale else LAMBDA_DOC["model"]))
    for key in draw(st.sets(st.sampled_from(sorted(set(model) - {"type"})), max_size=3)):
        if key == "lambda_e":
            model[key] = draw(EXTREMES)
        else:
            model[key] = [draw(st.just(x) | EXTREMES) for x in model[key]]
    dt = 1e-4
    t_end = draw(st.just(None) | EXTREMES)
    if t_end is None:
        dt = draw(st.just(dt) | EXTREMES)
        t_end = 100 * dt
    if three_scale:
        experiment = draw(st.sampled_from(["simulate-full", "rwa-check"]))
    else:
        experiment = draw(
            st.sampled_from(["simulate-full", "simulate-slow", "compare", "reduce", "dark-state-check"])
        )
    document = {"model": model, "t_end": t_end, "dt": dt, "sample_every": 10, "experiment": experiment}
    return experiment, document


def _extreme_run(experiment, model, dt=1e-4):
    document = {"model": model, "t_end": 100 * dt, "dt": dt, "sample_every": 10, "experiment": experiment}
    return experiment, document


def _extreme_drive(experiment, u, dt):
    return _extreme_run(experiment, {**THREE_SCALE_MODEL, "u_re": [u, u]}, dt)


@pytest.mark.filterwarnings("ignore:time-scale separation weak:RuntimeWarning")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(deadline=None, max_examples=150)
@given(extreme_runs())
# drives that clear the Rabi power check, at steps that clear dt_max: the chunked driven kernel
@example(_extreme_drive("simulate-full", 1e150, 1e-300))
@example(_extreme_drive("rwa-check", -1e120, 1e-200))
# numpy overflow warnings, and a NaN step bound that passed the stability policy
@example(_extreme_run("reduce", _lambda(gamma=[1e100, 6.0], rabi_re=[1e150, 0.8])))
@example(_extreme_run("compare", _lambda(gamma=[1e308, 1e308])))
@example(_extreme_run("reduce", _lambda(gamma=[1e-200, 1e-200])))
@example(_extreme_run("simulate-full", HUGE_LAMBDA_E))
@example(_extreme_run("simulate-slow", HUGE_DETUNING))
def test_main_exits_cleanly_on_extreme_finite_values(run):
    experiment, document = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(document, fh)
        code = main([experiment, "--config", cfg, "--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3)
