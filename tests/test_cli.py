import json

import pytest

from conftest import write_external_forecasts
from mpcfolio.harness.cli import main

BASE_CONFIG = {
    "data": {"kind": "synthetic",
             "spec": {"n_assets": 2, "length": 300, "signal_strength": 0.004,
                      "volatility": 0.008, "drift": 0.0, "seed": 11}},
    "policy": {"hidden": [8, 8], "mode": "deterministic"},
    "pretrain": {"algo": "deterministic-ac", "epochs": 2},
    "forecast": {"kind": "zero"},
    "cheat": {"enabled": True, "target_r2": 0.8},
    "mpc": {"horizon": 3, "epochs": 2, "step_size": 0.02, "variant": "vanilla"},
    "seeds": [0],
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    return path


def test_missing_config_names_path(capsys):
    code = main(["run", "--config", "missing.toml"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "missing.toml" in err
    assert err.count("\n") == 1  # single-line machine-parsable error


def test_run_subcommand(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "results.json").exists()
    results = json.loads((out / "results.json").read_text())
    assert results["cells"][0]["error"] is None
    assert "1/1 cells ok" in capsys.readouterr().out


def test_sweep_axis_override(tmp_path, config_path):
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--axis", "r2=0.5,1.0"])
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert sorted(c["r2"] for c in results["cells"]) == [0.5, 1.0]


def test_bad_axis_rejected(tmp_path, config_path, capsys):
    code = main(["sweep", "--config", str(config_path), "--out", str(tmp_path / "x"),
                 "--axis", "nope=1"])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_report_regenerates_without_recompute(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    table = (out / "table.txt").read_bytes()
    (out / "table.txt").unlink()
    (out / "cache").rename(tmp_path / "cache_moved")  # recompute would need this
    assert main(["report", "--in", str(out)]) == 0
    assert (out / "table.txt").read_bytes() == table


def test_pretrain_subcommand(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["pretrain", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "policy_seed0.json").exists()
    payload = json.loads((out / "pretrain.json").read_text())
    assert payload["policies"][0]["seed"] == 0


def test_forecast_fit_subcommand(tmp_path):
    cfg = dict(BASE_CONFIG, forecast={"kind": "ridge", "lambda_reg": 10.0},
               mpc=dict(BASE_CONFIG["mpc"], horizon=1))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["forecast-fit", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "forecast_fit.json").read_text())
    assert set(report["r2"]) == {"train", "valid", "test"}
    assert (out / "forecaster.json").exists()


def test_forecast_calibrate_subcommand(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    assert main(["forecast-calibrate", "--config", str(config_path),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "calibration.json").read_text())
    entry = payload["targets"][0]
    assert entry["target_r2"] == 0.8
    assert abs(entry["achieved_r2"] - 0.8) < 1e-9
    assert set(entry["achieved_per_split"]) == {"train", "valid", "test"}


def test_seed_override(tmp_path, config_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--seed", "7"]) == 0
    results = json.loads((out / "results.json").read_text())
    assert [c["seed"] for c in results["cells"]] == [7]


def test_sweep_with_missing_external_cell_fails_fast(tmp_path, capsys):
    from mpcfolio.harness.config import ExperimentConfig
    from mpcfolio.harness.experiment import build_series

    series = build_series(ExperimentConfig(BASE_CONFIG))
    csv_path = write_external_forecasts(tmp_path / "fc.csv", series, horizons=(1, 2, 3))
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    csv_path.write_text("".join(lines[:-1]), encoding="utf-8")  # drop the last cell
    cfg = dict(BASE_CONFIG, forecast={"kind": "external", "path": str(csv_path)},
               stream_reports=True)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: 1 missing forecast cells")
    assert err.count("\n") == 1
    assert not list(out.rglob("*.jsonl"))
    assert not (out / "results.json").exists()
