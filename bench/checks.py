"""Correctness gate of a benchmark run and the failure-accounting self-test."""

from __future__ import annotations

import numpy as np

import mpcfolio.env as env
import mpcfolio.pilot as pilot
from workloads import HORIZON, TEST_SPLIT, Unit, account_episode


class Gate:
    """Collects check outcomes; the run is correct when none failed."""

    def __init__(self):
        self.checks = 0
        self.failures = []

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_units(gate: Gate, units: list) -> None:
    """Value curves finite and positive, executed weights on the simplex, no errors."""
    for unit in units:
        gate.check(not unit.errors, f"unit {unit.index} raised: {unit.errors[:3]}")
        gate.check(unit.cells_failed == 0, f"sweep {unit.index}: {unit.cells_failed} failed cells")
        for label, curve in {**unit.curves, **unit.baselines}.items():
            curve = np.asarray(curve, dtype=np.float64)
            gate.check(curve.size >= 2 and bool(np.all(np.isfinite(curve)))
                       and bool(np.all(curve > 0)),
                       f"unit {unit.index} {label}: value curve not finite and positive")
        for w in unit.weights:
            w = np.asarray(w, dtype=np.float64)
            on_simplex = (w.ndim == 2 and bool(np.all(np.isfinite(w)))
                          and bool(np.all(np.abs(w.sum(axis=1) - 1.0) <= env.WEIGHT_SUM_TOL))
                          and bool(np.all(w >= -env.WEIGHT_NEG_TOL)))
            gate.check(on_simplex, f"unit {unit.index}: executed weights off the simplex")


def check_identical(gate: Gate, reference: list, traced: list) -> None:
    """The traced run's value curves equal the untraced run's byte for byte."""
    gate.check(len(reference) == len(traced),
               f"replay ran {len(reference)} units, traced run {len(traced)}")
    for ref, got in zip(reference, traced):
        a = {**ref.curves, **ref.baselines}
        b = {**got.curves, **got.baselines}
        gate.check(a.keys() == b.keys(), f"unit {ref.index}: curve labels differ under tracing")
        for label in a.keys() & b.keys():
            gate.check(np.asarray(a[label]).tobytes() == np.asarray(b[label]).tobytes(),
                       f"unit {ref.index} {label}: value curve differs under tracing")


class NaNMovement:
    """Delegates to a forecaster but predicts NaN for one asset at one base date."""

    def __init__(self, base, t_bad: int):
        self.base = base
        self.t_bad = t_bad

    def available_horizon(self, series, t):
        return self.base.available_horizon(series, t)

    def predict_movements(self, series, t, horizon):
        out = np.array(self.base.predict_movements(series, t, horizon), dtype=np.float64)
        if t == self.t_bad:
            out[0, 0] = np.nan
        return out


def failure_selftest(gate: Gate, series, params, forecaster, env_config, view) -> dict:
    """One clean and one NaN-injected vanilla E=1 episode through the run's accounting.

    The injected episode's failed steps are all its steps while a non-finite
    forecast kills `run_pilot`, and only the incident steps once it is
    recorded per step; either way the failed ratio must equal them over the
    attempted steps of both episodes, and the NaN must not pass unnoticed.
    """
    cfg = pilot.MpcConfig(horizon=HORIZON, epochs=1, step_size=1.0, variant="vanilla",
                          value_scale=env_config.initial_value)
    start, stop = series.usable_range(TEST_SPLIT)
    t_bad = (start + stop) // 2
    unit = Unit(index=-1)
    outcomes, counts = {}, {}
    for label, fc in (("clean", forecaster), ("injected", NaNMovement(forecaster, t_bad))):
        try:
            outcome = pilot.run_pilot(series, params, fc, cfg, env_config=env_config,
                                      split=TEST_SPLIT, seed=0, view=view)
        except Exception as exc:  # noqa: BLE001 - the accounting under test handles it
            outcome = exc
        outcomes[label] = outcome
        counts[label] = account_episode(unit, label, series, outcome)
    clean_steps, clean_failed = counts["clean"]
    inj_steps, _ = counts["injected"]
    injected = outcomes["injected"]
    raised = isinstance(injected, Exception)
    ratio = unit.failed / unit.steps
    gate.check(not isinstance(outcomes["clean"], Exception) and clean_failed == 0,
               f"self-test: clean episode failed {clean_failed} steps")
    if raised:
        expected = inj_steps
    else:
        incident_ts = {r.t for r in injected.reports if r.incident is not None}
        gate.check(t_bad in incident_ts, "self-test: injected NaN left no incident at its step")
        expected = len(incident_ts)
    gate.check(expected >= 1 and ratio == expected / (clean_steps + inj_steps),
               f"self-test: failed_ratio {ratio} != {expected}/{clean_steps + inj_steps}")
    return {"failed_ratio": ratio, "failed": unit.failed, "attempted": unit.steps,
            "injected_raised": raised,
            "injected_error": f"{type(injected).__name__}: {injected}" if raised else None}
