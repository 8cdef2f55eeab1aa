"""mpcfolio benchmark: one workload, its end-to-end or per-layer metrics, a correctness gate.

    python3 bench/run.py --workload vanilla-h5e10 --seed 1 --seconds 12 --trace 0

Run from the repository root; the package is imported from `src/`. With
`--trace 0` the run sets up several times (`setup_s` is their median), then
runs timed units (`run_pilot` episodes or sweeps) until `--seconds` have been
measured and prints the end-to-end metrics. With `--trace 1` it sets up once,
runs the timed units with span probes installed, replays the same units
untraced, checks that both give byte-identical value curves, and prints the
per-layer metrics. Every run checks its outputs and a failure-accounting
self-test. The last line of standard output is one JSON object with the
metrics `BENCHMARK.json` declares for the mode. The exit code is 1 when the
correctness gate fails or the package cannot be found under `src/`.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / "bench" / ".work"
SETUP_REPEATS = 3
# run_pilot ms/step on the README market measured with a plain timer before this
# benchmark existed (2-core x86_64, Python 3.11), printed for comparison
REFERENCE_MS_PER_STEP = {"vanilla-h5e10": 13.6, "particles-k8": 108.0}


def _import_package():
    src = ROOT / "src"
    if not (src / "mpcfolio" / "__init__.py").is_file():
        raise SystemExit(f"error: no mpcfolio sources under {src}")
    sys.path.insert(0, str(src))
    import mpcfolio

    if Path(mpcfolio.__file__).resolve().parent != (src / "mpcfolio").resolve():
        raise SystemExit(f"error: imported mpcfolio from {mpcfolio.__file__}, not {src}")


# -- environment record ---------------------------------------------------------


def git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_info() -> dict:
    info = {"env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    # wheels bundle OpenBLAS next to the package; the loaded copy reports its threads
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(seed: int) -> dict:
    return {"git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else None,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "machine": platform.machine(), "workload_seed": seed}


# A process inherits its launcher's RUSAGE_CHILDREN peak (a shell's earlier
# children), so children count only once one of ours has exceeded it.
INHERITED_CHILDREN_RSS = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child, if any."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children <= INHERITED_CHILDREN_RSS:
        children = 0
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# -- phases -----------------------------------------------------------------------


def timed_phase(workload, ctx, seconds: float, count=None, tracer=None) -> list:
    """Run units until `seconds` are measured (and at least `min_units`), or `count` units.

    Only the call into the package is timed; preparing inputs and reading
    outputs happen between the timed calls, with no probes installed.
    """
    units, measured, i = [], 0.0, 0
    while (i < count) if count is not None else (measured < seconds or i < workload.min_units):
        job = workload.prepare(ctx, i)
        if tracer is not None:
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outcome = workload.run(ctx, job)
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.uninstall()
        unit = workload.collect(ctx, job, outcome)
        unit.wall, unit.cpu = t1 - t0, c1 - c0
        units.append(unit)
        measured += unit.wall
        i += 1
    return units


def steps_per_s(units: list) -> float:
    """Completed planned steps per wall second of the timed units."""
    return sum(u.completed for u in units) / sum(u.wall for u in units)


def end_to_end(workload, units: list, setup_times: list) -> dict:
    gains = [g for u in units[:workload.min_units] for g in u.gains_pp]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "steps_per_s": (steps_per_s(units), "steps/s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "cpu_per_wall": (sum(u.cpu for u in units) / sum(u.wall for u in units), "cpu-s/s"),
        "tr_gain_pp": (statistics.fmean(gains) if gains else float("nan"), "pp"),
        "failed_ratio": (sum(u.failed for u in units) / sum(u.steps for u in units), "fraction"),
    }


def per_layer(tracer, traced: list, reference: list, setup_parts: list) -> dict:
    stats = tracer.layer_stats()

    def calls(name):
        return (stats[name]["calls"] if name in stats else 0, "count")

    def secs(name, key="s"):
        return (stats[name][key] if name in stats else 0.0, "s")

    planned = sum(u.steps for u in traced)
    step_ms = tracer.step_durations_ms()
    p50 = statistics.median(step_ms) if step_ms else 0.0
    p99 = statistics.quantiles(step_ms, n=100)[98] if len(step_ms) > 1 else p50
    features = stats.get("marketdata.features", {}).get("calls", 0)
    sweep_s = secs("harness.sweep")[0]
    gains = [g for u in traced for g in u.objective_gains]
    traced_rate, untraced_rate = steps_per_s(traced), steps_per_s(reference)
    return {
        "marketdata.state_calls": calls("marketdata.state"),
        "marketdata.state_s": secs("marketdata.state"),
        "marketdata.features_calls": calls("marketdata.features"),
        "marketdata.features_s": secs("marketdata.features"),
        "marketdata.compute_features_distinct_ratio": (
            len(tracer.distinct_days) / features if features else 0.0, "ratio"),
        "forecast.predict_calls": calls("forecast.predict"),
        "forecast.predict_s": secs("forecast.predict"),
        "forecast.trajectory_calls": calls("forecast.trajectory"),
        "forecast.trajectory_self_s": secs("forecast.trajectory", "self_s"),
        "forecast.perturb_s": secs("forecast.perturb"),
        "forecast.fit_s": (statistics.median(p["fit_s"] for p in setup_parts), "s"),
        "forecast.fit_in_run_s": secs("forecast.fit"),
        "policy.forward_calls": calls("policy.forward"),
        "policy.forward_s": secs("policy.forward"),
        "policy.grad_calls": calls("policy.grad"),
        "policy.grad_s": secs("policy.grad"),
        "policy.value_calls": calls("policy.value"),
        "policy.value_s": secs("policy.value"),
        "policy.act_s": secs("policy.act"),
        "policy.make_leaves_calls": calls("policy.make_leaves"),
        "policy.pretrain_s": (statistics.median(p["pretrain_s"] for p in setup_parts), "s"),
        "autodiff.backward_s": secs("autodiff.backward"),
        "autodiff.nodes_per_step": (tracer.nodes / planned if planned else 0.0, "nodes/step"),
        "pilot.run_pilot_s": secs("pilot.run_pilot"),
        "pilot.self_s": secs("pilot.run_pilot", "self_s"),
        "pilot.particle_return_calls": calls("pilot.particle_return"),
        "pilot.particle_return_self_s": secs("pilot.particle_return", "self_s"),
        "pilot.telemetry_s": secs("pilot.telemetry"),
        "pilot.step_ms_p50": (p50, "ms"),
        "pilot.step_ms_p99": (p99, "ms"),
        "pilot.step_samples": (len(step_ms), "count"),
        "pilot.planned_steps": (planned, "count"),
        "pilot.incident_ratio": (
            sum(u.incidents for u in traced) / planned if planned else 0.0, "fraction"),
        "pilot.objective_gain_mean": (statistics.fmean(gains) if gains else 0.0, "V0-fraction"),
        "env.step_calls": calls("env.step"),
        "env.step_s": secs("env.step"),
        "env.episode_s": secs("env.episode"),
        "metrics.report_s": secs("metrics.report"),
        "harness.sweep_s": (sweep_s, "s"),
        "harness.self_s": secs("harness.sweep", "self_s"),
        "harness.write_s": secs("harness.write"),
        "harness.busy_over_wall": (
            secs("pilot.run_pilot")[0] / sweep_s if sweep_s else 0.0, "ratio"),
        "harness.cells_failed": (sum(u.cells_failed for u in traced), "count"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.traced_steps_per_s": (traced_rate, "steps/s"),
        "trace.untraced_steps_per_s": (untraced_rate, "steps/s"),
        "trace.speed_ratio": (traced_rate / untraced_rate, "ratio"),
    }


# -- main ----------------------------------------------------------------------------


def parse_args(argv, names, run_seconds):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    _import_package()
    from checks import Gate, check_identical, check_units, failure_selftest
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, sorted(WORKLOADS), spec["run_seconds"])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    why = next((w["why"] for w in spec["workloads"] if w["name"] == workload.name), None)
    work_dir = WORK_DIR / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    gate = Gate()

    setup_times, setup_parts, fingerprints = [], [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        ctx, parts = workload.setup(args.seed, work_dir)
        setup_times.append(time.perf_counter() - t0)
        setup_parts.append(parts)
        fingerprints.append(ctx.fingerprint())
    gate.check(len(set(fingerprints)) == 1, "set-up is not deterministic across repeats")

    gc.collect()
    probes_bound = None
    if args.trace:
        tracer = Tracer()
        units = timed_phase(workload, ctx, args.seconds, tracer=tracer)
        reference = timed_phase(workload, ctx, args.seconds, count=len(units))
        check_units(gate, reference)
        check_identical(gate, reference, units)
        metrics = per_layer(tracer, units, reference, setup_parts)
        probes_bound = tracer.installed
        tracer.write(work_dir / "spans.jsonl")
    else:
        units = timed_phase(workload, ctx, args.seconds)
        metrics = end_to_end(workload, units, setup_times)
    check_units(gate, units)
    selftest = failure_selftest(gate, *workload.selftest_inputs(ctx))

    sizes = workload.sizes(ctx)
    env_record = environment(args.seed)
    record = {"workload": workload.name, "why": why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": env_record,
              "inputs": sizes, "setup_times": setup_times, "setup_parts": setup_parts,
              "units": [{"wall": u.wall, "cpu": u.cpu, "steps": u.steps, "failed": u.failed,
                         "gains_pp": u.gains_pp} for u in units],
              "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
              "probes_bound": probes_bound, "selftest": selftest, "correct": gate.ok,
              "gate_failures": gate.failures, "checks": gate.checks}
    (work_dir / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                          encoding="utf-8")

    print(f"mpcfolio benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} units={len(units)}")
    print(f"  why: {why}")
    print("  environment: " + json.dumps(env_record, sort_keys=True))
    print("  inputs: " + json.dumps(sizes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if not args.trace:
        ms = 1000.0 / metrics["steps_per_s"][0]
        ref = REFERENCE_MS_PER_STEP.get(workload.name)
        print(f"  ms/step {ms:.2f}" + (f" (reference: {ref} ms/step)" if ref else ""))
    print(f"  failure self-test: failed_ratio={selftest['failed_ratio']:.6g} "
          f"({selftest['failed']} of {selftest['attempted']} planned steps; "
          f"injected episode raised: {selftest['injected_raised']})")
    print(f"  correctness: {gate.checks - len(gate.failures)}/{gate.checks} checks passed")
    for failure in gate.failures[:20]:
        print(f"  FAILED: {failure}")

    out = {}
    for metric in declared:
        value, unit = metrics.get(metric["name"], (None, None))
        if unit != metric["unit"]:
            raise SystemExit(f"error: BENCHMARK.json declares {metric['name']} in "
                             f"{metric['unit']}, the run measured it in {unit}")
        out[metric["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": gate.ok, "attempted": sum(u.steps for u in units),
                      "failed": sum(u.failed for u in units), "metrics": out}))
    return 0 if gate.ok else 1


if __name__ == "__main__":
    sys.exit(main())
