"""Smoke tests of the benchmark in `bench/`: one unit of each workload passes its gate.

The benchmark reads package names from outside `src/` (module attributes,
`RidgeForecaster.models`, `NoiseCalibration.sigma2`, ...). A rename that breaks
it fails here instead of only in a benchmark run. The pilot tests also check
what a benchmark run relies on next: set-up is deterministic, and one prepared
unit gives the same bytes when run twice, which fails if an episode writes
into the policy it was given. The last tests run the benchmark command
itself, as a benchmark run does, for a fraction of a second.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


# the untraced sweep runs at a second seed, so a fault that shows at one seed only
# has two chances to fail here
SEEDS = {("sweep-w2", 0): 2}


@pytest.mark.parametrize("name, trace", [("vanilla-h5e10", 1), ("particles-k8", 1),
                                         ("sweep-w2", 1), ("vanilla-h5e10", 0),
                                         ("sweep-w2", 0)])
def test_bench_command_passes(name, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name,
         "--seed", str(SEEDS.get((name, trace), 1)), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in spec["per_layer" if trace else "end_to_end"]:
        got = last["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] is not None, metric["name"]
