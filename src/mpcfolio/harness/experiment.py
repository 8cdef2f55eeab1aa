"""Experiment engine: pretrain, baseline vs adapted runs, sweeps, artifacts.

A sweep is a grid over seeds x variant x horizon x target-R2. Shared inputs
(the market, normalizers, fitted forecasters, blend calibrations, pretrained
policies) are built sequentially up front; every R-squared target of one
horizon is calibrated from one shared forecast grid. An external forecast
file that lacks a cell the run would read fails the run as soon as it is
loaded, before any pretraining. Grid cells are then pure jobs over read-only
state. The cells of one (variant, horizon) group share a planner config and
trade the same dates, so each group runs as one lockstep job
(`run_pilots`): one batched planner step serves all its cells, and cells
that share a forecaster share its imagined trajectories. Groups run one
after another on the calling thread. The `workers` config key is validated
and echoed into results.json but changes no schedule and no output byte.
Everything lands in one results.json from which the table and the SVG plot
can be regenerated without recomputation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..env import run_episode
from ..errors import ConfigError
from ..forecast import (
    CheatForecaster,
    ContextMeanForecaster,
    ExternalForecastSource,
    PerfectForecaster,
    RidgeForecaster,
    ZeroForecaster,
    collect_forecast_grid,
    fit_noise_calibration,
)
from ..marketdata import FeatureView, load_csv
from ..metrics import METRIC_NAMES, compute_report
from ..pilot import run_pilots
from ..policy import Agent, load_checkpoint, pretrain, save_checkpoint
from .config import ExperimentConfig
from .svgplot import render_curves
from .synthetic import generate_synthetic

RESULTS_SCHEMA_VERSION = 1
RESULTS_FILE = "results.json"
TABLE_FILE = "table.txt"
CURVES_FILE = "curves.svg"
RUN_SPLIT = "test"


def build_series(config: ExperimentConfig):
    data = config.raw["data"]
    if data["kind"] == "synthetic":
        return generate_synthetic(config.synthetic_spec())
    return load_csv(
        data["path"],
        schema=data["schema"],
        split_dates=tuple(data["split_dates"]) if data["split_dates"] else None,
        split_fracs=tuple(data["split_fracs"]),
    )


def build_base_forecaster(config: ExperimentConfig, series, horizon: int):
    fc = config.raw["forecast"]
    kind = fc["kind"]
    if kind == "ridge":
        return RidgeForecaster.fit(series, horizon, lambda_reg=fc["lambda_reg"])
    if kind == "zero":
        return ZeroForecaster()
    if kind == "context":
        return ContextMeanForecaster(window=fc["context_window"])
    if kind == "perfect":
        return PerfectForecaster()
    if kind == "external":
        return ExternalForecastSource.from_csv(fc["path"])
    raise ConfigError(f"unknown forecast kind {kind!r}")


def _check_coverage(source, series, horizon: int) -> None:
    """Fail before any pretraining or cell when an external forecast file lacks a
    cell the run would read: every planned base date of the run split, at
    horizons 1..H."""
    if isinstance(source, ExternalForecastSource):
        start, stop = series.usable_range(RUN_SPLIT)
        source.validate_coverage(series, range(start, stop - 1), horizon)


def _pretrain_cache_key(config: ExperimentConfig, seed: int) -> str:
    raw = config.raw
    ident = {
        "data": raw["data"],
        "env": raw["env"],
        "policy": raw["policy"],
        "pretrain": raw["pretrain"],
        "seed": seed,
    }
    return hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()[:16]


def pretrained_policy(config: ExperimentConfig, series, seed: int,
                      cache_dir=None, view=None):
    """Pretrain (or load from the config-hash cache) the policy for one seed."""
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache_dir / f"policy_{_pretrain_cache_key(config, seed)}.json"
        if path.exists():
            return load_checkpoint(path)
    pt = config.raw["pretrain"]
    params = pretrain(
        series,
        config.env_config(series.n_assets),
        algo=pt["algo"],
        epochs=pt["epochs"],
        seed=seed,
        config=config.policy_config(series.n_assets, seed=seed),
        lr=pt["lr"],
        gamma=pt["gamma"],
        value_coef=pt["value_coef"],
        entropy_coef=pt["entropy_coef"],
        view=view,
    )
    if cache_dir is not None:
        save_checkpoint(params, path)
    return params


def _axes(config: ExperimentConfig, use_sweep: bool):
    raw = config.raw
    variants = [raw["mpc"]["variant"]]
    horizons = [raw["mpc"]["horizon"]]
    r2s = [raw["cheat"]["target_r2"]] if raw["cheat"]["enabled"] else [None]
    if use_sweep:
        variants = raw["sweep"]["variant"] or variants
        horizons = raw["sweep"]["horizon"] or horizons
        r2s = raw["sweep"]["r2"] or r2s
    return variants, horizons, r2s


def _metric_stats(reports: list) -> tuple[dict, dict]:
    means, stds = {}, {}
    for name in METRIC_NAMES:
        vals = [r[name] for r in reports if r[name] is not None]
        if not vals:
            means[name] = None
            stds[name] = None
            continue
        means[name] = float(np.mean(vals))
        stds[name] = float(np.std(vals, ddof=1)) if len(vals) >= 2 else None
    return means, stds


def _cell_sort_key(cell: dict):
    return (str(cell["variant"]), cell["horizon"],
            -1.0 if cell["r2"] is None else float(cell["r2"]), cell["seed"])


def run_experiment(config: ExperimentConfig, out_dir, use_sweep: bool = True) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = build_series(config)
    view = FeatureView(series)
    view.normalizer("train")
    view.normalizer(RUN_SPLIT)
    env_config = config.env_config(series.n_assets)
    variants, horizons, r2s = _axes(config, use_sweep)
    seeds = list(config.raw["seeds"])

    # one base forecaster serves every horizon: a ridge fit at the largest H holds
    # each smaller fit's (asset, h) models, and every reader asks for at most its own H
    base = build_base_forecaster(config, series, max(horizons))
    _check_coverage(base, series, max(horizons))
    forecasters, calibrations = {}, []
    context_window = config.raw["forecast"]["context_window"]
    for h in sorted(set(horizons)):
        grid = None  # one calibration grid per horizon serves every target
        for r2 in r2s:
            if r2 is None:
                forecasters[(h, None)] = base
                continue
            if grid is None:
                grid = collect_forecast_grid(base, series, h,
                                             config.raw["cheat"]["calibration_split"],
                                             context_window)
            cheat = CheatForecaster.from_grid(base, grid, r2, context_window)
            forecasters[(h, r2)] = cheat
            calibrations.append({"horizon": h, "r2": r2, **cheat.calibration.to_dict()})

    policies = {
        seed: pretrained_policy(config, series, seed, cache_dir=out_dir / "cache", view=view)
        for seed in seeds
    }

    baselines = []
    for seed in seeds:
        episode = run_episode(series, Agent(policies[seed]), mode="deterministic",
                              split=RUN_SPLIT, env_config=env_config, view=view)
        baselines.append({
            "seed": seed,
            "metrics": compute_report(episode.values).to_dict(),
            "values": [float(v) for v in episode.values],
        })

    noise_calibs = {}
    for variant in variants:
        for h in set(horizons):
            cfg = config.mpc_config(horizon=h, variant=variant,
                                    value_scale=env_config.initial_value)
            if cfg.noise_sigma > 0 and h not in noise_calibs:
                noise_calibs[h] = fit_noise_calibration(
                    base, series, h,
                    normalizer=view.normalizer("train"), split="train")

    jobs = [
        {"seed": seed, "variant": variant, "horizon": h, "r2": r2}
        for variant in variants for h in horizons for r2 in r2s for seed in seeds
    ]
    reports_dir = out_dir / "reports" if config.raw["stream_reports"] else None
    if reports_dir is not None:
        reports_dir.mkdir(parents=True, exist_ok=True)

    def report_path(job: dict):
        if reports_dir is None:
            return None
        r2_tag = "none" if job["r2"] is None else f"{job['r2']:g}"
        return reports_dir / f"{job['variant']}_h{job['horizon']}_r2{r2_tag}_s{job['seed']}.jsonl"

    def run_group(group: list) -> list:
        try:
            variant, h = group[0]["variant"], group[0]["horizon"]
            cfg = config.mpc_config(horizon=h, variant=variant,
                                    value_scale=env_config.initial_value)
            outcomes = run_pilots(
                series, [policies[job["seed"]] for job in group],
                [forecasters[(h, job["r2"])] for job in group], cfg,
                [job["seed"] for job in group], env_config=env_config, split=RUN_SPLIT,
                noise_calib=noise_calibs.get(h), view=view,
                report_paths=[report_path(job) for job in group])
        except Exception as exc:  # noqa: BLE001 - a group failure must not kill the sweep
            outcomes = [exc] * len(group)
        cells = []
        for job, outcome in zip(group, outcomes):
            cell = dict(job, metrics=None, values=None, error=None)
            try:
                if isinstance(outcome, Exception):
                    raise outcome
                cell["metrics"] = compute_report(outcome.values).to_dict()
                cell["values"] = [float(v) for v in outcome.values]
            except Exception as exc:  # noqa: BLE001 - cell failures must not kill the sweep
                cell["error"] = f"{type(exc).__name__}: {exc}"
            cells.append(cell)
        return cells

    groups = {}
    for job in jobs:
        groups.setdefault((job["variant"], job["horizon"]), []).append(job)
    cells = [cell for group in groups.values() for cell in run_group(group)]
    cells.sort(key=_cell_sort_key)

    aggregates = [_aggregate("baseline", None, None, None, baselines)]
    for variant in variants:
        for h in horizons:
            for r2 in r2s:
                group = [c for c in cells
                         if (c["variant"], c["horizon"], c["r2"]) == (variant, h, r2)
                         and c["error"] is None]
                label = f"{variant} H={h}" + ("" if r2 is None else f" R2={r2:g}")
                aggregates.append(_aggregate(label, variant, h, r2, group))

    results = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "config": config.raw,
        "baselines": baselines,
        "cells": cells,
        "aggregates": aggregates,
        "calibrations": calibrations,
    }
    write_artifacts(results, out_dir)
    return results


def _aggregate(label, variant, horizon, r2, rows: list) -> dict:
    reports = [r["metrics"] for r in rows if r.get("metrics")]
    means, stds = _metric_stats(reports) if reports else ({}, {})
    return {
        "label": label,
        "variant": variant,
        "horizon": horizon,
        "r2": r2,
        "n_seeds": len(reports),
        "metrics_mean": means,
        "metrics_std": stds,
    }


def render_table(results: dict) -> str:
    headers = ["configuration", "seeds", "TR(%)", "Sharpe", "Calmar", "Sortino", "MDD(%)"]
    rows = [headers]
    for agg in results["aggregates"]:
        mean, std = agg["metrics_mean"], agg["metrics_std"]

        def fmt(name, percent=False):
            m = mean.get(name)
            if m is None:
                return "undef"
            scale = 100.0 if percent else 1.0
            s = std.get(name)
            if s is None:
                return f"{scale * m:.2f}"
            return f"{scale * m:.2f} ± {scale * s:.2f}"

        rows.append([
            agg["label"], str(agg["n_seeds"]),
            fmt("total_return", percent=True), fmt("sharpe"), fmt("calmar"),
            fmt("sortino"), fmt("max_drawdown", percent=True),
        ])
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _curve_groups(results: dict) -> list:
    groups = []
    base_curves = [b["values"] for b in results["baselines"] if b.get("values")]
    if base_curves:
        arr = np.asarray(base_curves)
        groups.append({"label": "baseline", "mean": arr.mean(axis=0).tolist(),
                       "std": arr.std(axis=0, ddof=1).tolist() if len(base_curves) > 1 else None})
    for agg in results["aggregates"]:
        if agg["variant"] is None:
            continue
        curves = [c["values"] for c in results["cells"]
                  if (c["variant"], c["horizon"], c["r2"]) ==
                  (agg["variant"], agg["horizon"], agg["r2"]) and c.get("values")]
        if not curves:
            continue
        arr = np.asarray(curves)
        groups.append({"label": agg["label"], "mean": arr.mean(axis=0).tolist(),
                       "std": arr.std(axis=0, ddof=1).tolist() if len(curves) > 1 else None})
    return groups


def write_artifacts(results: dict, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / RESULTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(results, fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(results["config"], sort_keys=True, indent=2) + "\n")
    with open(out_dir / TABLE_FILE, "w", encoding="utf-8") as fh:
        fh.write(render_table(results))
    with open(out_dir / CURVES_FILE, "w", encoding="utf-8") as fh:
        fh.write(render_curves(_curve_groups(results), title="portfolio value, mean ± 1 std"))


def regenerate_reports(results_dir) -> dict:
    """Rebuild table and plot from a stored results.json; no recomputation."""
    results_dir = Path(results_dir)
    path = results_dir / RESULTS_FILE
    if not path.exists():
        raise ConfigError(f"no {RESULTS_FILE} in {results_dir}")
    with open(path, encoding="utf-8") as fh:
        results = json.load(fh)
    with open(results_dir / TABLE_FILE, "w", encoding="utf-8") as fh:
        fh.write(render_table(results))
    with open(results_dir / CURVES_FILE, "w", encoding="utf-8") as fh:
        fh.write(render_curves(_curve_groups(results), title="portfolio value, mean ± 1 std"))
    return results
