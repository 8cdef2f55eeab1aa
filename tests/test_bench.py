"""Smoke test of the benchmark in `bench/`: one `vanilla-h5e10` unit passes its gate.

The benchmark reads package names from outside `src/` (module attributes,
`RidgeForecaster.models`, `NoiseCalibration.sigma2`, ...). A rename that breaks
it fails here instead of only in a benchmark run.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_vanilla_unit_passes_gate(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import Gate, check_units, failure_selftest
    from workloads import WORKLOADS

    workload = WORKLOADS["vanilla-h5e10"]
    ctx, _ = workload.setup(1, tmp_path)
    assert ctx.fingerprint()
    job = workload.prepare(ctx, 0)
    unit = workload.collect(ctx, job, workload.run(ctx, job))
    gate = Gate()
    check_units(gate, [unit])
    selftest = failure_selftest(gate, *workload.selftest_inputs(ctx))
    assert gate.ok, gate.failures
    assert unit.steps > 0 and unit.failed == 0
    assert not selftest["injected_raised"]
