"""The benchmark's three workloads: set-up, one timed unit of work, outcome.

Every call into the package goes through a module attribute
(`pilot.run_pilot`, `metrics.compute_report`, `experiment.run_experiment`), so
the tracer's rebinding of those names sees the calls.

All workloads are closed loops: one process, one caller, each `run_pilot`
call or sweep issued after the previous one returns. No two episodes of a run
repeat a (policy, forecaster) pair: pilot episodes jitter a pretrained policy
by a per-episode seeded perturbation, and each sweep blends the forecaster to
its own R-squared targets.
"""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mpcfolio.env as env
import mpcfolio.forecast as forecast
import mpcfolio.metrics as metrics
import mpcfolio.pilot as pilot
import mpcfolio.policy as policy
from mpcfolio.harness import experiment
from mpcfolio.harness.config import ExperimentConfig
from mpcfolio.harness.synthetic import SyntheticMarketSpec, generate_synthetic
from mpcfolio.marketdata import FeatureView

# The README market; the workload seed picks the price paths.
README_MARKET = {"n_assets": 5, "length": 460, "signal_strength": 0.004, "volatility": 0.005}
HORIZON = 5
TEST_SPLIT = "test"
POLICY_SEEDS = (0, 1)
JITTER = 1e-4  # per-episode parameter perturbation, absolute
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass
class Unit:
    """Outcome of one timed call: one `run_pilot` episode or one sweep."""

    index: int
    wall: float = 0.0
    cpu: float = 0.0
    steps: int = 0       # planned steps attempted
    failed: int = 0      # steps with an incident, or every step of a run that raised
    incidents: int = 0
    cells_failed: int = 0
    objective_gains: list = field(default_factory=list)
    curves: dict = field(default_factory=dict)     # label -> adapted value curve
    baselines: dict = field(default_factory=dict)  # label -> un-adapted value curve
    weights: list = field(default_factory=list)    # (steps, N+1) executed weights
    gains_pp: list = field(default_factory=list)   # adapted minus baseline total return
    errors: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.steps - self.failed


def test_steps(series) -> int:
    start, stop = series.usable_range(TEST_SPLIT)
    return stop - 1 - start


def account_episode(unit: Unit, label: str, series, outcome) -> tuple[int, int]:
    """Add one `run_pilot` outcome (a result or the exception it raised)."""
    steps = test_steps(series)
    unit.steps += steps
    if isinstance(outcome, Exception):
        unit.failed += steps
        unit.errors.append(f"{label}: {type(outcome).__name__}: {outcome}")
        return steps, steps
    incidents = sum(r.incident is not None for r in outcome.reports)
    unit.failed += incidents
    unit.incidents += incidents
    unit.objective_gains += [r.objective_after - r.objective_before for r in outcome.reports
                             if r.objective_after is not None and r.objective_before is not None]
    unit.curves[label] = np.asarray(outcome.values)
    unit.weights.append(np.asarray(outcome.weights))
    return steps, incidents


def _timed(parts: dict, key: str, start: float) -> float:
    now = time.perf_counter()
    parts[key] = parts.get(key, 0.0) + now - start
    return now


@dataclass
class PilotContext:
    series: object
    view: FeatureView
    env_config: env.EnvConfig
    policies: list
    forecaster: object
    noise: object
    cfg: pilot.MpcConfig
    seed: int

    def fingerprint(self) -> bytes:
        parts = [p.flat().tobytes() for p in self.policies]
        parts += [m.coef.tobytes() for m in self.forecaster.models.values()]
        if self.noise is not None:
            parts.append(self.noise.sigma2.tobytes())
        return b"".join(parts)


@dataclass
class PilotJob:
    index: int
    params: object


class PilotWorkload:
    """`run_pilot` episodes on the README market with 16x16 deterministic policies."""

    hidden = (16, 16)

    def __init__(self, name: str, mpc: dict, min_units: int):
        self.name = name
        self.mpc = mpc
        self.min_units = min_units

    def setup(self, seed: int, work_dir: Path):
        parts = {}
        t = time.perf_counter()
        series = generate_synthetic(SyntheticMarketSpec(**README_MARKET, seed=seed))
        view = FeatureView(series)
        view.normalizer("train")
        view.normalizer(TEST_SPLIT)
        t = _timed(parts, "market_s", t)
        env_config = env.EnvConfig(n_assets=series.n_assets)
        policies = [
            policy.pretrain(series, env_config, algo="deterministic-ac", epochs=3, seed=s,
                            config=policy.PolicyConfig(n_assets=series.n_assets,
                                                       hidden=self.hidden),
                            view=view)
            for s in POLICY_SEEDS
        ]
        t = _timed(parts, "pretrain_s", t)
        fc = forecast.RidgeForecaster.fit(series, horizon=HORIZON, lambda_reg=10.0)
        noise = None
        if self.mpc.get("noise_sigma", 0.0) > 0:
            noise = forecast.fit_noise_calibration(fc, series, HORIZON,
                                                   normalizer=view.normalizer("train"),
                                                   split="train")
        _timed(parts, "fit_s", t)
        cfg = pilot.MpcConfig(horizon=HORIZON, value_scale=env_config.initial_value, **self.mpc)
        return PilotContext(series, view, env_config, policies, fc, noise, cfg, seed), parts

    def prepare(self, ctx: PilotContext, i: int) -> PilotJob:
        base = ctx.policies[i % len(ctx.policies)]
        rng = np.random.default_rng([ctx.seed, i])
        params = base.copy()
        params.set_flat(base.flat() + JITTER * rng.standard_normal(base.n_params()))
        return PilotJob(i, params)

    def run(self, ctx: PilotContext, job: PilotJob):
        try:
            result = pilot.run_pilot(ctx.series, job.params, ctx.forecaster, ctx.cfg,
                                     env_config=ctx.env_config, split=TEST_SPLIT,
                                     seed=job.index, noise_calib=ctx.noise, view=ctx.view)
            metrics.compute_report(result.values)
            return result
        except Exception as exc:  # noqa: BLE001 - a raising episode is counted as failed
            return exc

    def collect(self, ctx: PilotContext, job: PilotJob, outcome) -> Unit:
        unit = Unit(index=job.index)
        account_episode(unit, f"episode{job.index}", ctx.series, outcome)
        baseline = env.run_episode(ctx.series, policy.Agent(job.params), mode="deterministic",
                                   split=TEST_SPLIT, env_config=ctx.env_config, view=ctx.view)
        unit.baselines[f"baseline{job.index}"] = baseline.values
        if not isinstance(outcome, Exception):
            unit.gains_pp.append(100.0 * (metrics.total_return(outcome.values)
                                          - metrics.total_return(baseline.values)))
        return unit

    def selftest_inputs(self, ctx: PilotContext):
        return ctx.series, ctx.policies[0], ctx.forecaster, ctx.env_config, ctx.view

    def sizes(self, ctx: PilotContext) -> dict:
        return {"assets": ctx.series.n_assets, "test_steps": test_steps(ctx.series),
                "hidden": list(self.hidden), "policy_mode": "deterministic",
                "K": ctx.cfg.particles, "H": ctx.cfg.horizon, "E": ctx.cfg.epochs,
                "step_size": ctx.cfg.step_size, "variant": ctx.cfg.variant,
                "policies": len(ctx.policies), "grid": None}


@dataclass
class SweepContext:
    series: object
    view: FeatureView
    env_config: env.EnvConfig
    policies: list
    base_forecaster: object
    base_r2: float
    out_dir: Path
    seed: int

    def fingerprint(self) -> bytes:
        parts = [p.flat().tobytes() for p in self.policies]
        parts.append(np.float64(self.base_r2).tobytes())
        return b"".join(parts)


@dataclass
class SweepJob:
    index: int
    config: ExperimentConfig


class SweepWorkload:
    """`run_experiment` on the harness defaults: seeds x derived R-squared targets."""

    name = "sweep-w2"
    min_units = 1
    n_targets = 3
    workers = 2

    def raw_config(self, seed: int, targets=None) -> dict:
        return {
            "data": {"kind": "synthetic", "spec": {**README_MARKET, "seed": seed}},
            "seeds": list(POLICY_SEEDS),
            "workers": self.workers,
            "stream_reports": True,
            "sweep": {"r2": targets},
        }

    def setup(self, seed: int, work_dir: Path):
        out_dir = work_dir / "sweep"
        shutil.rmtree(out_dir, ignore_errors=True)
        config = ExperimentConfig(self.raw_config(seed))
        parts = {}
        t = time.perf_counter()
        series = experiment.build_series(config)
        view = FeatureView(series)
        view.normalizer("train")
        view.normalizer(TEST_SPLIT)
        t = _timed(parts, "market_s", t)
        policies = [experiment.pretrained_policy(config, series, s, cache_dir=out_dir / "cache",
                                                 view=view)
                    for s in POLICY_SEEDS]
        t = _timed(parts, "pretrain_s", t)
        base = experiment.build_base_forecaster(config, series, HORIZON)
        grid = forecast.collect_forecast_grid(base, series, HORIZON,
                                              config.raw["cheat"]["calibration_split"],
                                              config.raw["forecast"]["context_window"])
        base_r2 = forecast.r_squared(*grid)
        _timed(parts, "fit_s", t)
        ctx = SweepContext(series, view, config.env_config(series.n_assets), policies, base,
                           base_r2, out_dir, seed)
        return ctx, parts

    def targets(self, ctx: SweepContext, i: int) -> list:
        """R-squared targets of sweep i, at fractions of the gap from the base R-squared to 1.

        The fractions walk a golden-ratio sequence in [0.1, 0.9], so no two
        sweeps of a run share a target and every target is feasible.
        """
        fracs = [0.1 + 0.8 * ((self.n_targets * i + k + 1) * GOLDEN % 1.0)
                 for k in range(self.n_targets)]
        return sorted(ctx.base_r2 + f * (1.0 - ctx.base_r2) for f in fracs)

    def prepare(self, ctx: SweepContext, i: int) -> SweepJob:
        shutil.rmtree(ctx.out_dir / "reports", ignore_errors=True)
        return SweepJob(i, ExperimentConfig(self.raw_config(ctx.seed, self.targets(ctx, i))))

    def run(self, ctx: SweepContext, job: SweepJob):
        try:
            return experiment.run_experiment(job.config, ctx.out_dir)
        except Exception as exc:  # noqa: BLE001 - a raising sweep fails all its cells
            return exc

    def collect(self, ctx: SweepContext, job: SweepJob, outcome) -> Unit:
        unit = Unit(index=job.index)
        steps = test_steps(ctx.series)
        n_cells = len(POLICY_SEEDS) * self.n_targets
        if isinstance(outcome, Exception):
            unit.steps = unit.failed = steps * n_cells
            unit.cells_failed = n_cells
            unit.errors.append(f"sweep {job.index}: {type(outcome).__name__}: {outcome}")
            return unit
        base_tr = {}
        for b in outcome["baselines"]:
            unit.baselines[f"baseline-s{b['seed']}"] = np.asarray(b["values"])
            base_tr[b["seed"]] = b["metrics"]["total_return"]
        for k, cell in enumerate(outcome["cells"]):
            unit.steps += steps
            if cell["error"] is not None:
                unit.failed += steps
                unit.cells_failed += 1
                unit.errors.append(f"sweep {job.index} cell {k}: {cell['error']}")
                continue
            unit.curves[f"cell{k}"] = np.asarray(cell["values"])
            unit.gains_pp.append(100.0 * (cell["metrics"]["total_return"]
                                          - base_tr[cell["seed"]]))
        self._read_reports(ctx, unit)
        return unit

    def _read_reports(self, ctx: SweepContext, unit: Unit) -> None:
        """Incidents, objective gains and executed weights from the JSONL reports."""
        lines = 0
        for path in sorted((ctx.out_dir / "reports").glob("*.jsonl")):
            rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            lines += len(rows)
            incidents = sum(r["incident"] is not None for r in rows)
            unit.failed += incidents
            unit.incidents += incidents
            unit.objective_gains += [r["objective_after"] - r["objective_before"] for r in rows
                                     if r["objective_after"] is not None
                                     and r["objective_before"] is not None]
            unit.weights.append(np.asarray([r["executed_weights"] for r in rows]))
        if lines != unit.steps - unit.cells_failed * test_steps(ctx.series):
            unit.errors.append(f"sweep {unit.index}: {lines} step reports for "
                               f"{unit.steps} planned steps")

    def selftest_inputs(self, ctx: SweepContext):
        return ctx.series, ctx.policies[0], ctx.base_forecaster, ctx.env_config, ctx.view

    def sizes(self, ctx: SweepContext) -> dict:
        config = ExperimentConfig(self.raw_config(ctx.seed))
        mpc = config.mpc_config()
        return {"assets": ctx.series.n_assets, "test_steps": test_steps(ctx.series),
                "hidden": list(config.raw["policy"]["hidden"]),
                "policy_mode": config.raw["policy"]["mode"],
                "K": mpc.particles, "H": mpc.horizon, "E": mpc.epochs,
                "step_size": mpc.step_size, "variant": mpc.variant,
                "policies": len(ctx.policies), "workers": self.workers,
                "grid": {"seeds": len(POLICY_SEEDS), "r2": self.n_targets},
                "base_r2": ctx.base_r2}


WORKLOADS = {
    w.name: w for w in (
        PilotWorkload(
            "vanilla-h5e10",
            {"epochs": 10, "step_size": 1.0, "variant": "vanilla"},
            min_units=4),
        PilotWorkload(
            "particles-k8",
            {"particles": 8, "noise_sigma": 0.5, "risk_lambda": 0.5, "epochs": 10,
             "step_size": 1.0, "variant": "noise_lambda"},
            min_units=1),
        SweepWorkload(),
    )
}
