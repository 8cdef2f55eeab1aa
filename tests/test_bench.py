"""Smoke tests of the benchmark in `bench/`: one unit of each workload passes its gate.

The benchmark reads package names from outside `src/` (module attributes,
`RidgeForecaster.models`, `NoiseCalibration.sigma2`, ...). A rename that breaks
it fails here instead of only in a benchmark run. The pilot tests also check
what a benchmark run relies on next: set-up is deterministic, and one prepared
unit gives the same bytes when run twice, which fails if an episode writes
into the policy it was given.
"""

from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    return checks, workloads


def _curve_bytes(unit) -> dict:
    curves = {**unit.curves, **unit.baselines}
    return {label: np.asarray(c).tobytes() for label, c in curves.items()}


@pytest.mark.parametrize("name", ["vanilla-h5e10", "particles-k8"])
def test_pilot_unit_passes_gate(bench, tmp_path, name):
    checks, workloads = bench
    workload = workloads.WORKLOADS[name]
    ctx, _ = workload.setup(1, tmp_path)
    assert ctx.fingerprint()
    assert workload.setup(1, tmp_path)[0].fingerprint() == ctx.fingerprint()
    job = workload.prepare(ctx, 0)
    unit = workload.collect(ctx, job, workload.run(ctx, job))
    again = workload.collect(ctx, job, workload.run(ctx, job))
    assert _curve_bytes(again) == _curve_bytes(unit)
    assert [w.tobytes() for w in again.weights] == [w.tobytes() for w in unit.weights]
    gate = checks.Gate()
    checks.check_units(gate, [unit])
    selftest = checks.failure_selftest(gate, *workload.selftest_inputs(ctx))
    assert gate.ok, gate.failures
    assert unit.steps > 0 and unit.failed == 0
    assert not selftest["injected_raised"]


def test_sweep_unit_passes_gate(bench, tmp_path):
    checks, workloads = bench
    workload = workloads.WORKLOADS["sweep-w2"]
    ctx, _ = workload.setup(1, tmp_path)
    assert ctx.fingerprint()
    job = workload.prepare(ctx, 0)
    unit = workload.collect(ctx, job, workload.run(ctx, job))
    gate = checks.Gate()
    checks.check_units(gate, [unit])
    assert gate.ok, gate.failures
    assert unit.steps > 0 and unit.failed == 0 and unit.curves
