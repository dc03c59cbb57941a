import json
import os

import numpy as np
import pytest

from cptsim.cli import (
    ConfigError,
    EXPERIMENTS,
    RunConfig,
    main,
    parse_config,
    render_config,
    run,
)
from cptsim.models import LambdaParams, ThreeScaleParams

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


def doc(**overrides):
    merged = json.loads(json.dumps(LAMBDA_DOC))
    merged.update(overrides)
    return json.dumps(merged)


def test_parse_defaults():
    config = parse_config(doc())
    assert config.dt == "auto"
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
    assert parse_config(render_config(config)) == config


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
    config = parse_config(document)
    assert isinstance(config.model, ThreeScaleParams)
    assert parse_config(render_config(config)) == config


def test_parse_render_round_trip_explicit_matrix():
    document = doc(
        initial_state={
            "re": [[0.5, 0.0, 0.0], [0.0, 0.25, 0.1], [0.0, 0.1, 0.25]],
            "im": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.05], [0.0, -0.05, 0.0]],
        }
    )
    config = parse_config(document)
    assert parse_config(render_config(config)) == config


def test_bundled_configs_parse():
    for name in ("four_level_compare.json", "dark_state.json"):
        with open(os.path.join(CONFIG_DIR, name)) as fh:
            config = parse_config(fh.read())
        assert config.experiment in EXPERIMENTS


def test_run_compare_writes_expected_artifacts(tmp_path):
    config = parse_config(doc(dt=0.001, output_path=str(tmp_path / "a")))
    paths = run(config)
    with open(paths["csv"]) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip()
    assert header == "t,y_full,y_slow,dist_frobenius"
    assert first.startswith("0.0,")
    with open(paths["summary"]) as fh:
        summary = fh.read()
    assert "tool_version:" in summary
    assert "config_sha256:" in summary
    assert "backend:" in summary
    assert "np.float64" not in summary


def test_run_is_byte_deterministic(tmp_path):
    config = parse_config(doc(dt=0.001, output_path=str(tmp_path / "x")))
    blobs = []
    for _ in range(2):
        paths = run(config)
        with open(paths["csv"], "rb") as fh:
            csv = fh.read()
        with open(paths["summary"], "rb") as fh:
            summary = fh.read()
        blobs.append((csv, summary))
    assert blobs[0] == blobs[1]


def test_run_requires_output_path():
    config = parse_config(doc())
    config = RunConfig(**{**config.__dict__, "output_path": None})
    with pytest.raises(ConfigError, match="output_path"):
        run(config)


def test_run_simulate_full_header(tmp_path):
    config = parse_config(
        doc(experiment="simulate-full", dt=0.001, output_path=str(tmp_path))
    )
    paths = run(config)
    with open(paths["csv"]) as fh:
        assert fh.readline().strip() == "t,y,pop_e,pop_g1,pop_g2"


def test_run_reduce_layout(tmp_path):
    config = parse_config(doc(experiment="reduce", output_path=str(tmp_path)))
    paths = run(config)
    with open(paths["csv"]) as fh:
        assert fh.readline().strip() == "k,rate_slow,gamma_slow,bright_re,bright_im"
    with open(paths["summary"]) as fh:
        summary = fh.read()
    assert "H_s diagonal: 0.3 -0.2" in summary
    assert "T_s:" in summary
    assert "np.float64" not in summary


def test_run_dark_state_check_reports_exact_zero(tmp_path):
    with open(os.path.join(CONFIG_DIR, "dark_state.json")) as fh:
        config = parse_config(fh.read())
    config = RunConfig(**{**config.__dict__, "output_path": str(tmp_path)})
    paths = run(config)
    with open(paths["summary"]) as fh:
        summary = fh.read()
    assert "generator_norm<=1e-13: PASS" in summary
    assert "y_slow_max: 0.0" in summary
    assert "y_full_max<=1e-6: PASS" in summary


def test_compare_rejects_excited_start():
    config = parse_config(doc(initial_state="excited", output_path="unused"))
    with pytest.raises(ConfigError, match="ground"):
        run(config)


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
    }
    for name, model in bad_models.items():
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(doc(model=model, experiment="simulate-full", output_path=str(tmp_path / name)))
        assert main(["simulate-full", "--config", str(cfg)]) == 2, name
        assert "error: model." in capsys.readouterr().err


def test_main_maps_overflow_to_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    model = {**LAMBDA_DOC["model"], "gamma": [1e300, 6.0]}
    cfg.write_text(doc(model=model, experiment="reduce", output_path=str(tmp_path / "out")))
    assert main(["reduce", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: computation failed:")
    assert len(err.strip().splitlines()) == 1


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
