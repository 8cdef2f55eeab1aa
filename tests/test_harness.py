import json

import numpy as np
import pytest

from conftest import write_external_forecasts
from mpcfolio.errors import ConfigError, CoverageError, NumericError
from mpcfolio.forecast import RidgeForecaster, collect_forecast_grid, r_squared
from mpcfolio.harness import SyntheticMarketSpec, generate_synthetic
from mpcfolio.harness.config import ExperimentConfig
from mpcfolio.harness.experiment import (
    _cell_sort_key,
    build_series,
    regenerate_reports,
    run_experiment,
    write_artifacts,
)
from mpcfolio.harness.svgplot import render_curves
from mpcfolio.pilot import run_pilots


class TestSyntheticMarket:
    def test_zero_vol_zero_drift_constant(self):
        spec = SyntheticMarketSpec(n_assets=2, length=120, drift=0.0,
                                   volatility=0.0, seed=0)
        series = generate_synthetic(spec)
        assert np.all(series.close == series.close[0])
        assert np.all(series.open == series.close)
        assert np.all(series.high == series.close)
        assert np.all(series.adj_close == series.close)

    def test_pure_drift_is_exponential(self):
        spec = SyntheticMarketSpec(n_assets=1, length=120, drift=0.02,
                                   volatility=0.0, seed=0)
        series = generate_synthetic(spec)
        ratios = series.close[1:, 0] / series.close[:-1, 0]
        assert np.max(np.abs(ratios - np.exp(0.02))) < 1e-12

    def test_deterministic_per_seed(self):
        spec = SyntheticMarketSpec(n_assets=3, length=150, signal_strength=0.002, seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.close, b.close)
        assert np.array_equal(a.high, b.high)

    def test_planted_signal_gives_forecaster_skill(self):
        spec = SyntheticMarketSpec(n_assets=5, length=460, signal_strength=0.004,
                                   volatility=0.005, drift=0.0, seed=3)
        series = generate_synthetic(spec)
        fc = RidgeForecaster.fit(series, horizon=1, lambda_reg=10.0)
        p, r, b = collect_forecast_grid(fc, series, 1, "test", 30)
        assert r_squared(p, r, b) > 0.0

    def test_bars_are_valid(self):
        spec = SyntheticMarketSpec(n_assets=4, length=200, signal_strength=0.003,
                                   volatility=0.02, seed=5)
        series = generate_synthetic(spec)  # constructor validates OHLC ordering
        assert series.n_days == 200

    def test_length_floor(self):
        with pytest.raises(ConfigError):
            SyntheticMarketSpec(length=50)


def _quick_config(seeds, workers=1, sweep_r2=None, stream=False,
                  forecast_kind="perfect"):
    return ExperimentConfig({
        "data": {"kind": "synthetic",
                 "spec": {"n_assets": 2, "length": 300, "signal_strength": 0.004,
                          "volatility": 0.008, "drift": 0.0, "seed": 11}},
        "policy": {"hidden": [8, 8], "mode": "deterministic"},
        "pretrain": {"algo": "deterministic-ac", "epochs": 2},
        "forecast": {"kind": forecast_kind},
        "mpc": {"horizon": 3, "epochs": 2, "step_size": 0.02, "variant": "vanilla"},
        "seeds": seeds,
        "sweep": {"r2": sweep_r2},
        "workers": workers,
        "stream_reports": stream,
    })


class TestExperimentConfig:
    def test_defaults_filled_and_roundtrip(self):
        cfg = _quick_config([0])
        raw = json.loads(cfg.to_json())
        assert raw["env"]["fee_rate"] == 0.001
        again = ExperimentConfig(raw)
        assert again.to_json() == cfg.to_json()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig({"nonsense": 1})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_file(tmp_path / "missing.toml")
        assert "missing.toml" in str(err.value)

    def test_repeated_seeds_rejected(self):
        # repeated seeds would run identical cells into one report path
        with pytest.raises(ConfigError, match="seeds repeats 0"):
            _quick_config([0, 1, 0])

    @pytest.mark.parametrize("axis, values", [("r2", [0.5, 0.5]), ("horizon", [2, 3, 2]),
                                              ("variant", ["vanilla", "vanilla"])])
    def test_repeated_sweep_values_rejected(self, axis, values):
        raw = json.loads(_quick_config([0]).to_json())
        raw["sweep"][axis] = values
        with pytest.raises(ConfigError, match=f"sweep.{axis} repeats"):
            ExperimentConfig(raw)

    def test_vanilla_variant_forced_clean(self):
        cfg = _quick_config([0])
        cfg.raw["mpc"]["particles"] = 4
        cfg.raw["mpc"]["noise_sigma"] = 0.5
        mpc = cfg.mpc_config(variant="vanilla")
        assert mpc.particles == 1 and mpc.noise_sigma == 0.0


class TestRunExperiment:
    def test_single_seed_smoke(self, tmp_path):
        results = run_experiment(_quick_config([0]), tmp_path, use_sweep=False)
        assert len(results["cells"]) == 1
        assert results["cells"][0]["error"] is None
        assert (tmp_path / "results.json").exists()
        assert (tmp_path / "table.txt").exists()
        assert (tmp_path / "curves.svg").exists()
        assert (tmp_path / "config.json").exists()

    def test_std_column_needs_two_seeds(self, tmp_path):
        results = run_experiment(_quick_config([0, 1, 2]), tmp_path, use_sweep=False)
        agg = [a for a in results["aggregates"] if a["variant"] is not None][0]
        assert agg["n_seeds"] == 3
        assert agg["metrics_std"]["total_return"] is not None
        one = run_experiment(_quick_config([0]), tmp_path / "one", use_sweep=False)
        agg1 = [a for a in one["aggregates"] if a["variant"] is not None][0]
        assert agg1["metrics_std"]["total_return"] is None

    def test_byte_identical_across_worker_counts(self, tmp_path):
        run_experiment(_quick_config([0, 1], workers=1, sweep_r2=[0.5, 1.0],
                                     forecast_kind="zero"), tmp_path / "w1")
        run_experiment(_quick_config([0, 1], workers=4, sweep_r2=[0.5, 1.0],
                                     forecast_kind="zero"), tmp_path / "w4")
        a = (tmp_path / "w1" / "results.json").read_bytes()
        b = (tmp_path / "w4" / "results.json").read_bytes()
        # worker count is config, so compare everything except that one field
        assert a.replace(b'"workers": 1', b'"workers": 4') == b
        assert ((tmp_path / "w1" / "table.txt").read_bytes()
                == (tmp_path / "w4" / "table.txt").read_bytes())
        assert ((tmp_path / "w1" / "curves.svg").read_bytes()
                == (tmp_path / "w4" / "curves.svg").read_bytes())

    def test_groups_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        import threading

        def start(self):
            raise AssertionError("run_experiment started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        cfg = _quick_config([0, 1], workers=4, forecast_kind="zero")
        cfg.raw["sweep"]["horizon"] = [2, 3]
        results = run_experiment(cfg, tmp_path)
        assert sorted({(c["variant"], c["horizon"]) for c in results["cells"]}) == [
            ("vanilla", 2), ("vanilla", 3)]
        assert all(c["error"] is None for c in results["cells"])

    def test_rerun_byte_identical(self, tmp_path):
        cfg = _quick_config([0, 1])
        run_experiment(cfg, tmp_path / "a")
        run_experiment(_quick_config([0, 1]), tmp_path / "b")
        assert ((tmp_path / "a" / "results.json").read_bytes()
                == (tmp_path / "b" / "results.json").read_bytes())

    def test_pretrain_cache_reused(self, tmp_path):
        cfg = _quick_config([0])
        run_experiment(cfg, tmp_path)
        cache_files = list((tmp_path / "cache").glob("policy_*.json"))
        assert len(cache_files) == 1
        mtime = cache_files[0].stat().st_mtime_ns
        run_experiment(_quick_config([0]), tmp_path)
        assert cache_files[0].stat().st_mtime_ns == mtime  # loaded, not refit

    def test_baseline_e0_identical_to_pilot_e0(self, tmp_path):
        cfg = _quick_config([3])
        cfg.raw["mpc"]["epochs"] = 0
        results = run_experiment(cfg, tmp_path, use_sweep=False)
        cell = results["cells"][0]
        base = results["baselines"][0]
        assert cell["values"] == base["values"]

    def test_cell_failure_recorded_not_fatal(self, tmp_path, monkeypatch):
        from mpcfolio.harness import experiment

        def failing_at_h2(series, policies, forecasters, cfg, seeds, **kwargs):
            if cfg.horizon == 2:
                raise NumericError("injected failure")
            return run_pilots(series, policies, forecasters, cfg, seeds, **kwargs)

        monkeypatch.setattr(experiment, "run_pilots", failing_at_h2)
        cfg = _quick_config([0])
        cfg.raw["sweep"]["horizon"] = [1, 2]
        results = run_experiment(cfg, tmp_path / "out", use_sweep=True)
        by_h = {c["horizon"]: c for c in results["cells"]}
        assert by_h[1]["error"] is None
        assert by_h[2]["error"] == "NumericError: injected failure"
        agg_h2 = [a for a in results["aggregates"] if a["horizon"] == 2][0]
        assert agg_h2["n_seeds"] == 0

    def test_missing_external_cell_fails_before_any_work(self, tmp_path):
        series = build_series(_quick_config([0]))
        # the file covers horizon 1 only: enough for H=1, not for H=2
        path = write_external_forecasts(tmp_path / "partial.csv", series, horizons=(1,))
        cfg = _quick_config([0], stream=True)
        cfg.raw["forecast"] = {"kind": "external", "path": str(path),
                               "lambda_reg": 1.0, "context_window": 30}
        cfg.raw["sweep"]["horizon"] = [1]
        results = run_experiment(cfg, tmp_path / "h1", use_sweep=True)
        assert results["cells"][0]["error"] is None
        cfg.raw["sweep"]["horizon"] = [1, 2]
        with pytest.raises(CoverageError, match="missing forecast cells"):
            run_experiment(cfg, tmp_path / "out", use_sweep=True)
        assert not any((tmp_path / "out").iterdir())

    def test_one_ridge_fit_serves_every_horizon(self, tmp_path):
        # a sweep over H=2 and H=5 must write the bytes of the two one-horizon
        # sweeps, whose forecasters are ridge fits at H=2 and at H=5
        variants = ["vanilla", "noise_lambda"]

        def config(horizons):
            cfg = _quick_config([0, 1], sweep_r2=[0.6], forecast_kind="ridge")
            cfg.raw["forecast"]["lambda_reg"] = 10.0
            cfg.raw["mpc"].update(particles=2, noise_sigma=0.3, risk_lambda=0.5)
            cfg.raw["sweep"].update(horizon=horizons, variant=variants)
            return cfg

        parts = {h: run_experiment(config([h]), tmp_path / f"h{h}") for h in (2, 5)}
        run_experiment(config([2, 5]), tmp_path / "both")
        groups = {(a["variant"], a["horizon"]): a
                  for part in parts.values() for a in part["aggregates"][1:]}
        expected = dict(
            parts[2], config=config([2, 5]).raw,
            cells=sorted(parts[2]["cells"] + parts[5]["cells"], key=_cell_sort_key),
            aggregates=parts[2]["aggregates"][:1] + [groups[(v, h)] for v in variants
                                                     for h in (2, 5)],
            calibrations=parts[2]["calibrations"] + parts[5]["calibrations"])
        assert all(c["error"] is None for c in expected["cells"])
        write_artifacts(expected, tmp_path / "expected")
        for name in ("results.json", "table.txt", "curves.svg"):
            assert ((tmp_path / "both" / name).read_bytes()
                    == (tmp_path / "expected" / name).read_bytes())

    def test_external_file_parsed_once_per_sweep(self, tmp_path, monkeypatch):
        from mpcfolio.forecast import ExternalForecastSource

        series = build_series(_quick_config([0]))
        path = write_external_forecasts(tmp_path / "fc.csv", series, horizons=(1, 2, 3))
        parsed = []
        from_csv = ExternalForecastSource.from_csv

        def counting(cls, csv_path):
            parsed.append(csv_path)
            return from_csv(csv_path)

        monkeypatch.setattr(ExternalForecastSource, "from_csv", classmethod(counting))
        cfg = _quick_config([0])
        cfg.raw["forecast"] = {"kind": "external", "path": str(path),
                               "lambda_reg": 1.0, "context_window": 30}
        cfg.raw["sweep"]["horizon"] = [1, 2, 3]
        results = run_experiment(cfg, tmp_path / "out", use_sweep=True)
        assert len(results["cells"]) == 3
        assert all(c["error"] is None for c in results["cells"])
        assert parsed == [str(path)]

    def test_one_calibration_grid_per_horizon(self, tmp_path, monkeypatch):
        from mpcfolio.forecast import CheatForecaster
        from mpcfolio.harness import experiment

        grids = []

        def counting(base, series, horizon, *args):
            grids.append(horizon)
            return collect_forecast_grid(base, series, horizon, *args)

        monkeypatch.setattr(experiment, "collect_forecast_grid", counting)
        cfg = _quick_config([0], sweep_r2=[0.3, 0.6, 1.0], forecast_kind="zero")
        cfg.raw["mpc"]["epochs"] = 0
        cfg.raw["sweep"]["horizon"] = [1, 2]
        results = run_experiment(cfg, tmp_path)
        assert grids == [1, 2]
        series = build_series(cfg)
        for cal in results["calibrations"]:
            alone = CheatForecaster.calibrate(experiment.ZeroForecaster(), series, cal["r2"],
                                              cal["horizon"])
            assert cal == {"horizon": cal["horizon"], "r2": cal["r2"],
                           **alone.calibration.to_dict()}

    def test_sweep_axes_and_calibrations(self, tmp_path):
        cfg = _quick_config([0], sweep_r2=[0.5, 1.0], forecast_kind="zero")
        results = run_experiment(cfg, tmp_path, use_sweep=True)
        assert len(results["cells"]) == 2
        assert len(results["calibrations"]) == 2
        for cal in results["calibrations"]:
            assert cal["achieved_r2"] == pytest.approx(cal["target_r2"], abs=1e-9)

    def test_stream_reports_written(self, tmp_path):
        cfg = _quick_config([0], stream=True)
        run_experiment(cfg, tmp_path, use_sweep=False)
        files = list((tmp_path / "reports").glob("*.jsonl"))
        assert len(files) == 1

    def test_base_asked_once_per_planned_date_per_blend(self, tmp_path, monkeypatch):
        # two seeds share each blend's trajectories: the base ridge is asked once per
        # date for the calibration grid and once per blend, not once per cell
        from collections import Counter

        from mpcfolio.harness import experiment

        calls, phase = {"grid": Counter(), "cells": Counter()}, ["cells"]
        real_predict = RidgeForecaster.predict_movements

        def predict(self, series, t, horizon):
            calls[phase[0]][t] += 1
            return real_predict(self, series, t, horizon)

        def grid(*args):
            phase[0] = "grid"
            try:
                return collect_forecast_grid(*args)
            finally:
                phase[0] = "cells"

        monkeypatch.setattr(RidgeForecaster, "predict_movements", predict)
        monkeypatch.setattr(experiment, "collect_forecast_grid", grid)
        cfg = _quick_config([0, 1], sweep_r2=[0.4, 0.8], forecast_kind="ridge")
        results = run_experiment(cfg, tmp_path)
        assert all(c["error"] is None for c in results["cells"])
        start, stop = build_series(cfg).usable_range("test")
        assert calls["cells"] == Counter(dict.fromkeys(range(start, stop - 1), 2))
        assert sum(calls["grid"].values()) > 0

    def test_raising_forecaster_fails_only_its_cells(self, tmp_path, monkeypatch):
        from mpcfolio.forecast import CheatForecaster

        cfg = _quick_config([0, 1], sweep_r2=[0.4, 0.8], stream=True, forecast_kind="ridge")
        clean = run_experiment(cfg, tmp_path / "clean")
        real_predict = CheatForecaster.predict_movements

        def predict(self, series, t, horizon):
            if self.calibration.target_r2 == 0.8:
                raise ValueError("bad forecast")
            return real_predict(self, series, t, horizon)

        monkeypatch.setattr(CheatForecaster, "predict_movements", predict)
        cfg = _quick_config([0, 1], sweep_r2=[0.4, 0.8], stream=True, forecast_kind="ridge")
        results = run_experiment(cfg, tmp_path / "out")
        stored = json.loads((tmp_path / "out" / "results.json").read_text())
        assert stored["cells"] == results["cells"]
        for cell, want in zip(results["cells"], clean["cells"]):
            if cell["r2"] == 0.8:
                assert cell["error"] == "ValueError: bad forecast"
                assert cell["values"] is None
            else:
                assert cell == want
        reports = sorted(p.name for p in (tmp_path / "out" / "reports").glob("*.jsonl"))
        assert reports == ["vanilla_h3_r20.4_s0.jsonl", "vanilla_h3_r20.4_s1.jsonl"]
        for name in reports:
            assert ((tmp_path / "out" / "reports" / name).read_bytes()
                    == (tmp_path / "clean" / "reports" / name).read_bytes())


class TestReport:
    def test_regenerate_is_byte_identical(self, tmp_path):
        run_experiment(_quick_config([0, 1]), tmp_path)
        table = (tmp_path / "table.txt").read_bytes()
        svg = (tmp_path / "curves.svg").read_bytes()
        (tmp_path / "table.txt").unlink()
        (tmp_path / "curves.svg").unlink()
        regenerate_reports(tmp_path)
        assert (tmp_path / "table.txt").read_bytes() == table
        assert (tmp_path / "curves.svg").read_bytes() == svg

    def test_missing_results(self, tmp_path):
        with pytest.raises(ConfigError):
            regenerate_reports(tmp_path)


class TestSvg:
    def test_render_basic(self):
        svg = render_curves([
            {"label": "a", "mean": [1.0, 2.0, 3.0], "std": [0.1, 0.1, 0.1]},
            {"label": "b", "mean": [1.0, 1.5, 2.5], "std": None},
        ], title="demo")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg and "polygon" in svg and "demo" in svg

    def test_deterministic_output(self):
        groups = [{"label": "x", "mean": list(np.linspace(0, 5, 40)),
                   "std": list(np.full(40, 0.2))}]
        assert render_curves(groups) == render_curves(groups)


class TestOutputPins:
    """Every output byte of one small sweep, pinned by sha256.

    The sweep runs a ridge base forecaster blended to two R-squared targets,
    the vanilla planner and a noise_lambda K=2 variant on stochastic 8x8
    policies of two seeds, on two worker threads, with streamed reports. A
    change that moves any byte of `results.json`, `table.txt`, `curves.svg`
    or a JSONL step report must say which bytes moved and why, and re-pin.
    """

    PINS = {
        "results.json":
            "b6a48c644f6679afc31a768aee13f1589bc33f349d3b475082254ee219d81c93",
        "table.txt":
            "fdbabdd7e8c7eaa19aeb73b5880a0be1bf8b9aa2827cab85fb1c40dfcc2abcc0",
        "curves.svg":
            "a6375e1321f0b0ff2d01e12bfc3bbf964674a34f7ad1fa2a0fa78874a75ccdf9",
        "reports/noise_lambda_h3_r20.4_s0.jsonl":
            "6989960957f5afa4281f062335489779a38dc45bf4d52a698028306b4c9ed579",
        "reports/noise_lambda_h3_r20.4_s1.jsonl":
            "415dfd8fcc67cae1c206946807b0e0652a012ae4bc127f8b15f32c294f4e0796",
        "reports/noise_lambda_h3_r20.8_s0.jsonl":
            "97a1894427f5354df5fe3f331bec3bd450b36c4e69a4f2c85b9393ec456aab80",
        "reports/noise_lambda_h3_r20.8_s1.jsonl":
            "769c2cd7525583d25b26d919a0c4c01159c0e3e64a69a2f43c3bd8622f7fb050",
        "reports/vanilla_h3_r20.4_s0.jsonl":
            "9d05f9e4987c79b01279b3191bf29a99867f1741561c956586e1b4aca0a02e4e",
        "reports/vanilla_h3_r20.4_s1.jsonl":
            "a91799926cd1f641f507358db9f6d0a339e44bcfbbd18f8a3c7db410aedcc6b5",
        "reports/vanilla_h3_r20.8_s0.jsonl":
            "bac394cc9c934d2fbb26771853e8f0910b2831da9ebdb017f458e373de9d009a",
        "reports/vanilla_h3_r20.8_s1.jsonl":
            "b71ecbfe6bf60606fd162466cd3a5b875481fd8c3b9ecd6a999eeb5429bd368e",
    }

    def test_sweep_outputs_are_pinned(self, tmp_path):
        import hashlib

        cfg = _quick_config([0, 1], workers=2, sweep_r2=[0.4, 0.8], stream=True,
                            forecast_kind="ridge")
        cfg.raw["forecast"]["lambda_reg"] = 10.0
        cfg.raw["policy"]["mode"] = "stochastic"
        cfg.raw["pretrain"]["algo"] = "stochastic-ac"
        cfg.raw["mpc"].update(particles=2, noise_sigma=0.3, risk_lambda=0.5)
        cfg.raw["sweep"]["variant"] = ["vanilla", "noise_lambda"]
        results = run_experiment(cfg, tmp_path)
        assert all(c["error"] is None for c in results["cells"])
        paths = [tmp_path / name for name in ("results.json", "table.txt", "curves.svg")]
        paths += sorted((tmp_path / "reports").glob("*.jsonl"))
        digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in paths}
        assert digests == self.PINS
