"""Command-line interface.

Subcommands: pretrain, forecast-fit, forecast-calibrate, run, sweep, report.
Success exits 0; failures exit nonzero with one machine-parsable line on
stderr (`error: <message>`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ConfigError, MpcfolioError
from ..forecast import blend_r2_on_split, collect_forecast_grid, r_squared
from ..marketdata import FeatureView
from ..policy import save_checkpoint
from .config import ExperimentConfig
from .experiment import (
    build_base_forecaster,
    build_series,
    pretrained_policy,
    regenerate_reports,
    run_experiment,
)


def _add_common(p, out_required=True):
    p.add_argument("--config", required=True, help="path to a JSON config file")
    p.add_argument("--out", default="out", required=False, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seeds with one seed")
    p.add_argument("--workers", type=int, default=None,
                   help="override config workers; validated and echoed into results.json, "
                        "no effect yet: sweep groups run one after another")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpcfolio",
                                     description="baseline vs inference-time-MPC backtests")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("pretrain", help="pretrain and checkpoint policies"))
    _add_common(sub.add_parser("forecast-fit", help="fit the built-in forecaster"))
    _add_common(sub.add_parser("forecast-calibrate", help="calibrate blend targets"))
    _add_common(sub.add_parser("run", help="baseline vs adapted run (no sweep axes)"))
    p_sweep = sub.add_parser("sweep", help="full grid over seeds and sweep axes")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", action="append", default=[],
                         help="override a sweep axis, e.g. r2=0.001,0.3,0.8")

    p_rep = sub.add_parser("report", help="regenerate table and plot from results.json")
    p_rep.add_argument("--in", dest="in_dir", required=True, help="results directory")
    return parser


def _load_config(args) -> ExperimentConfig:
    """The config file with the CLI overrides applied, validated again."""
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config.raw["seeds"] = [args.seed]
    if getattr(args, "workers", None) is not None:
        config.raw["workers"] = args.workers
    _apply_axes(config, getattr(args, "axis", []))
    config.validate()
    return config


def _apply_axes(config: ExperimentConfig, axis_args) -> None:
    for spec in axis_args:
        if "=" not in spec:
            raise ConfigError(f"bad --axis {spec!r}; expected name=v1,v2,...")
        name, _, values = spec.partition("=")
        if name not in ("r2", "horizon", "variant"):
            raise ConfigError(f"unknown sweep axis {name!r}")
        items = [v.strip() for v in values.split(",") if v.strip()]
        if name == "r2":
            config.raw["sweep"]["r2"] = [float(v) for v in items]
        elif name == "horizon":
            config.raw["sweep"]["horizon"] = [int(v) for v in items]
        else:
            config.raw["sweep"]["variant"] = items


def _cmd_pretrain(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series = build_series(config)
    view = FeatureView(series)
    summary = []
    for seed in config.raw["seeds"]:
        params = pretrained_policy(config, series, seed, cache_dir=out / "cache", view=view)
        path = out / f"policy_seed{seed}.json"
        save_checkpoint(params, path)
        summary.append({"seed": seed, "checkpoint": path.name,
                        "n_params": params.n_params()})
    _write_json(out / "pretrain.json", {"config": config.raw, "policies": summary})
    print(f"pretrained {len(summary)} policies -> {out}")
    return 0


def _cmd_forecast_fit(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series = build_series(config)
    horizon = config.raw["mpc"]["horizon"]
    forecaster = build_base_forecaster(config, series, horizon)
    window = config.raw["forecast"]["context_window"]
    scores = {}
    for split in ("train", "valid", "test"):
        preds, reals, bases = collect_forecast_grid(forecaster, series, horizon,
                                                    split, window)
        scores[split] = r_squared(preds, reals, bases)
    report = {"kind": config.raw["forecast"]["kind"], "horizon": horizon,
              "context_window": window, "r2": scores}
    if hasattr(forecaster, "to_dict"):
        _write_json(out / "forecaster.json", forecaster.to_dict())
        report["forecaster_file"] = "forecaster.json"
    _write_json(out / "forecast_fit.json", report)
    print("fit r2: " + " ".join(f"{k}={v:.4f}" for k, v in scores.items()))
    return 0


def _cmd_forecast_calibrate(args) -> int:
    from ..forecast import CheatForecaster

    config = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series = build_series(config)
    horizon = config.raw["mpc"]["horizon"]
    window = config.raw["forecast"]["context_window"]
    cal_split = config.raw["cheat"]["calibration_split"]
    targets = config.raw["sweep"]["r2"] or [config.raw["cheat"]["target_r2"]]
    if targets == [None]:
        raise ConfigError("no targets: set cheat.target_r2 or sweep.r2")
    base = build_base_forecaster(config, series, horizon)
    entries = []
    for target in targets:
        cheat = CheatForecaster.calibrate(base, series, target, horizon,
                                          split=cal_split, context_window=window)
        achieved = {
            split: blend_r2_on_split(base, series, cheat.c, horizon, split, window)
            for split in ("train", "valid", "test")
        }
        entries.append({**cheat.calibration.to_dict(), "achieved_per_split": achieved})
    _write_json(out / "calibration.json",
                {"calibration_split": cal_split, "horizon": horizon, "targets": entries})
    for e in entries:
        print(f"target={e['target_r2']:g} c={e['c']:.6f} "
              f"achieved({cal_split})={e['achieved_r2']:.9f}")
    return 0


def _cmd_run(args, use_sweep: bool) -> int:
    config = _load_config(args)
    results = run_experiment(config, args.out, use_sweep=use_sweep)
    failed = [c for c in results["cells"] if c["error"]]
    print(f"{len(results['cells']) - len(failed)}/{len(results['cells'])} cells ok -> {args.out}")
    for cell in failed:
        print(f"cell failed: {cell['variant']} H={cell['horizon']} r2={cell['r2']} "
              f"seed={cell['seed']}: {cell['error']}", file=sys.stderr)
    return 0 if not failed else 1


def _cmd_report(args) -> int:
    regenerate_reports(args.in_dir)
    print(f"regenerated table and plot in {args.in_dir}")
    return 0


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "pretrain":
            return _cmd_pretrain(args)
        if args.command == "forecast-fit":
            return _cmd_forecast_fit(args)
        if args.command == "forecast-calibrate":
            return _cmd_forecast_calibrate(args)
        if args.command == "run":
            return _cmd_run(args, use_sweep=False)
        if args.command == "sweep":
            return _cmd_run(args, use_sweep=True)
        if args.command == "report":
            return _cmd_report(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except MpcfolioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single-line contract for tooling
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
