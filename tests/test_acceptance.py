"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are fixed here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from conftest import make_jittered_series, random_walk_closes
from mpcfolio.env import EnvConfig, PortfolioState, run_episode, softmax_weights, step
from mpcfolio.forecast import (
    CheatForecaster,
    RidgeForecaster,
    ZeroForecaster,
    blend_coefficient,
    calibrate_cheat,
    r_squared,
)
from mpcfolio.harness import SyntheticMarketSpec, generate_synthetic
from mpcfolio.harness.config import ExperimentConfig
from mpcfolio.harness.experiment import run_experiment
from mpcfolio.marketdata import FeatureView, compute_features
from mpcfolio.metrics import calmar, max_drawdown, sharpe, sortino, total_return
from mpcfolio.pilot import MpcConfig, imagined_reward, planner_objective, run_pilot
from mpcfolio.policy import Agent, PolicyConfig, PolicyParams, pretrain
from oracles import (
    calmar_oracle,
    max_drawdown_oracle,
    sharpe_oracle,
    sortino_oracle,
    total_return_oracle,
)


def report(criterion: str, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_c1_oracle_reward_equivalence():
    rng = np.random.default_rng(101)
    tuples = []
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        tuples.append((
            softmax_weights(rng.standard_normal(n + 1)),
            softmax_weights(rng.standard_normal(n + 1)),
            np.exp(0.08 * rng.standard_normal(n)),
            float(rng.uniform(1e3, 1e6)),
            float(rng.uniform(0.0, 0.01)),
        ))
    start = time.time()
    worst = 0.0
    for prev, target, rel, value, fee in tuples:
        _, env_reward = step(PortfolioState(value, prev, 0), target, rel, fee)
        planner_reward = imagined_reward(value, prev, target, rel, fee)
        worst = max(worst, abs(env_reward - planner_reward))
        assert abs(env_reward - planner_reward) < 1e-9
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("1 oracle-reward-equivalence",
           f"(10^4 tuples, max |diff| = {worst:.2e}, {elapsed:.2f}s)")


def test_c2_gradient_correctness():
    rng = np.random.default_rng(202)
    start = time.time()
    worst = 0.0
    for instance in range(20):
        n, horizon, k = 2, 3, 3
        mode = "stochastic" if instance % 2 == 0 else "deterministic"
        params = PolicyParams(PolicyConfig(n_assets=n, hidden=(8, 8), mode=mode,
                                           init_seed=instance))
        params.set_flat(params.flat() + 0.1 * rng.standard_normal(params.n_params()))
        obs = rng.standard_normal(n * 11)
        paths = [(0.3 * rng.standard_normal((horizon, n, 11)),
                  np.exp(0.03 * rng.standard_normal((horizon, n))))
                 for _ in range(k)]
        states = np.stack([p[0] for p in paths])
        relatives = np.stack([p[1] for p in paths])
        prev = softmax_weights(rng.standard_normal(n + 1))
        boots = np.array([float(rng.standard_normal()) for _ in range(k)])
        zs = (np.stack([rng.standard_normal((horizon, n + 1)) for _ in range(k)])
              if mode == "stochastic" else None)
        lam = 2.0 if instance % 3 else 0.0

        def objective(p):
            return planner_objective(p, obs, states, relatives, prev, 1.0, boots,
                                     0.001, 0.99, lam, 1e-8, zs)

        g = objective(params)[3]

        offset, spans = 0, {}
        for name, arr in params.values.items():
            spans[name] = (offset, offset + arr.size)
            offset += arr.size
        for name in params.values:
            if name.startswith("critic."):
                lo, hi = spans[name]
                assert np.all(g[lo:hi] == 0.0)

        actor_idx = np.concatenate([np.arange(*spans[nm]) for nm in params.values
                                    if nm.startswith("actor.")])
        flat0 = params.flat()
        h = 1e-5
        # relative error needs a denominator floor for near-dead coordinates:
        # both sides agree at finite-difference noise level (~1e-12) there, and
        # 1e-6 of the instance's gradient scale is far below live components
        floor = 1e-6 * max(1.0, float(np.max(np.abs(g))))
        for i in actor_idx:
            fp, fm = flat0.copy(), flat0.copy()
            fp[i] += h
            fm[i] -= h
            pp, pm = params.copy(), params.copy()
            pp.set_flat(fp)
            pm.set_flat(fm)
            fd = (objective(pp)[0] - objective(pm)[0]) / (2 * h)
            denom = max(abs(fd), abs(g[i]), floor)
            rel_err = abs(fd - g[i]) / denom
            worst = max(worst, rel_err)
            assert rel_err < 1e-4
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("2 gradient-correctness",
           f"(20 instances, all actor coords, max rel err = {worst:.2e}, {elapsed:.1f}s)")


def test_c3_calibration_exactness():
    rng = np.random.default_rng(303)
    start = time.time()
    realized = rng.standard_normal(600)
    baseline = realized + rng.standard_normal(600)
    for r0 in (-0.1, 0.0, 0.01):
        base = realized + np.sqrt(1.0 - r0) * (baseline - realized)
        assert abs(r_squared(base, realized, baseline) - r0) < 1e-12
        for target in (0.01, 0.1, 0.3, 0.8, 1.0):
            calib, blended = calibrate_cheat(base, realized, baseline, target)
            expected_c = blend_coefficient(r0, target)
            assert abs(calib.c - expected_c) < 1e-9
            achieved = 1.0 if target == 1.0 else r_squared(blended, realized, baseline)
            assert abs(achieved - target) < 1e-9
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("3 calibration-exactness",
           f"(r0 x target grid, achieved == target within 1e-9, {elapsed:.2f}s)")


def test_c4_variant_reduction():
    spec = SyntheticMarketSpec(n_assets=2, length=520, signal_strength=0.003,
                               volatility=0.008, drift=0.0, split_fracs=(0.5, 0.1),
                               seed=404)
    series = generate_synthetic(spec)
    start_t, stop_t = series.usable_range("test")
    assert stop_t - 1 - start_t >= 200
    view = FeatureView(series)
    params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8, 8), mode="stochastic",
                                       init_seed=5))
    env_config = EnvConfig(n_assets=2)
    common = dict(horizon=3, particles=1, epochs=2, step_size=0.5,
                  noise_sigma=0.0, risk_lambda=0.0, value_scale=1e5)
    from mpcfolio.forecast import PerfectForecaster

    runs = {}
    for variant in ("noise_lambda", "vanilla"):
        cfg = MpcConfig(variant=variant, **common)
        runs[variant] = run_pilot(series, params, PerfectForecaster(), cfg,
                                  env_config=env_config, seed=99, view=view)
    a, b = runs["noise_lambda"], runs["vanilla"]
    assert a.weights.shape[0] >= 200
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.values, b.values)
    report("4 variant-reduction",
           f"({a.weights.shape[0]}-step run, executed weights bit-identical)")


def test_c5_metric_oracle_equivalence():
    rng = np.random.default_rng(505)
    pairs = [
        (total_return, total_return_oracle),
        (sharpe, sharpe_oracle),
        (sortino, sortino_oracle),
        (max_drawdown, max_drawdown_oracle),
        (calmar, calmar_oracle),
    ]
    for _ in range(1000):
        t = int(rng.integers(5, 260))
        rets = 0.0005 + 0.02 * rng.standard_normal(t)
        curve = 100.0 * np.cumprod(np.concatenate([[1.0], 1.0 + np.clip(rets, -0.5, 0.5)]))
        for fast, slow in pairs:
            got, want = fast(curve), slow(curve)
            if want is None:
                assert got is None
            else:
                assert np.isclose(got, want, rtol=1e-12, atol=1e-12)
    assert max_drawdown([100.0, 120.0, 90.0, 110.0]) == pytest.approx(0.25, abs=1e-15)
    fixture = np.concatenate([np.linspace(100.0, 125.0, 251), [112.5, 120.0]])
    assert total_return(fixture) == pytest.approx(0.2, rel=1e-12)
    assert max_drawdown(fixture) == pytest.approx(0.1, rel=1e-12)
    assert calmar(fixture) == pytest.approx(2.0, rel=1e-9)
    report("5 metric-oracle-equivalence", "(1000 curves within 1e-12 + hand fixtures)")


@pytest.fixture(scope="module")
def quality_market():
    spec = SyntheticMarketSpec(n_assets=5, length=460, signal_strength=0.004,
                               signal_persistence=0.9, volatility=0.005,
                               drift=0.0, seed=11)
    series = generate_synthetic(spec)
    return series, FeatureView(series)


def test_c6_forecast_quality_curve(quality_market):
    series, view = quality_market
    start = time.time()
    env_config = EnvConfig(n_assets=5)
    targets = [0.001, 0.3, 0.8, 1.0]
    cheats = {
        r2: CheatForecaster.calibrate(ZeroForecaster(), series, r2, horizon=5,
                                      split="test", context_window=10)
        for r2 in targets
    }
    for r2 in targets:
        assert abs(cheats[r2].calibration.achieved_r2 - r2) < 1e-9

    base_trs, cells = [], {r2: [] for r2 in targets}
    for seed in range(5):
        params = pretrain(series, env_config, algo="deterministic-ac", epochs=3,
                          seed=seed,
                          config=PolicyConfig(n_assets=5, hidden=(16, 16),
                                              mode="deterministic"),
                          view=view)
        base = run_episode(series, Agent(params), mode="deterministic",
                           env_config=env_config, view=view)
        base_trs.append(total_return(base.values))
        for r2 in targets:
            cfg = MpcConfig(horizon=5, epochs=10, step_size=1.0, variant="vanilla",
                            value_scale=1e5)
            res = run_pilot(series, params, cheats[r2], cfg, env_config=env_config,
                            seed=seed, view=view)
            cells[r2].append(total_return(res.values))

    means = np.array([np.mean(cells[r2]) for r2 in targets])
    diffs = np.diff(means)
    inversions = [d for d in diffs if d < 0]
    assert len(inversions) <= 1
    assert all(d >= -0.005 for d in inversions)  # any inversion <= 0.5 pp
    margin = means[-1] - np.mean(base_trs)
    assert margin >= 0.05
    elapsed = time.time() - start
    assert elapsed < 600.0
    curve = " -> ".join(f"{m * 100:.1f}%" for m in means)
    report("6 forecast-quality-curve",
           f"(TR {curve}; margin at R2=1.0 = {margin * 100:.1f}pp; {elapsed:.0f}s)")


def test_c7_noop_identity(quality_market):
    series, view = quality_market
    env_config = EnvConfig(n_assets=5)
    params = PolicyParams(PolicyConfig(n_assets=5, hidden=(16, 16), init_seed=3))
    base = run_episode(series, Agent(params), mode="deterministic",
                       env_config=env_config, view=view)
    from mpcfolio.forecast import PerfectForecaster

    for label, cfg in (
        ("E=0", MpcConfig(horizon=5, epochs=0, step_size=1.0, variant="vanilla")),
        ("alpha=0", MpcConfig(horizon=5, epochs=10, step_size=0.0, variant="vanilla")),
    ):
        res = run_pilot(series, params, PerfectForecaster(), cfg,
                        env_config=env_config, seed=7, view=view)
        assert np.array_equal(res.values, base.values), label
        assert np.array_equal(res.weights, base.weights), label
    report("7 noop-identity", "(E=0 and alpha=0 both bitwise equal to baseline)")


def test_c8_determinism_across_worker_pools(tmp_path):
    def config(workers):
        return ExperimentConfig({
            "data": {"kind": "synthetic",
                     "spec": {"n_assets": 2, "length": 300, "signal_strength": 0.004,
                              "volatility": 0.008, "drift": 0.0, "seed": 11}},
            "policy": {"hidden": [8, 8], "mode": "stochastic"},
            "pretrain": {"algo": "stochastic-ac", "epochs": 2},
            "forecast": {"kind": "zero"},
            "mpc": {"horizon": 3, "epochs": 2, "step_size": 0.5, "variant": "vanilla"},
            "seeds": [0, 1],
            "sweep": {"r2": [0.5, 1.0]},
            "workers": workers,
        })

    run_experiment(config(1), tmp_path / "w1")
    run_experiment(config(3), tmp_path / "w3")
    a = (tmp_path / "w1" / "results.json").read_bytes()
    b = (tmp_path / "w3" / "results.json").read_bytes()
    assert a.replace(b'"workers": 1', b'"workers": 3') == b
    rerun = tmp_path / "w1b"
    run_experiment(config(1), rerun)
    assert (rerun / "results.json").read_bytes() == a
    report("8 determinism", "(results.json byte-identical across reruns and pool sizes)")


def test_c9_no_lookahead_audit():
    rng = np.random.default_rng(909)
    closes = random_walk_closes(rng, 300, 2, drift=0.0005, vol=0.01)
    series = make_jittered_series(np.random.default_rng(910), closes)
    view = FeatureView(series)
    view.normalizer("train")
    view.normalizer("test")
    forecaster = RidgeForecaster.fit(series, horizon=3, lambda_reg=1.0)
    env_config = EnvConfig(n_assets=2)
    params = pretrain(series, env_config, algo="deterministic-ac", epochs=2, seed=0,
                      config=PolicyConfig(n_assets=2, hidden=(8, 8),
                                          mode="deterministic"), view=view)
    cfg = MpcConfig(horizon=3, epochs=1, step_size=0.5, variant="vanilla",
                    value_scale=1e5)
    clean = run_pilot(series, params, forecaster, cfg, env_config=env_config,
                      seed=1, view=view)

    start_t, stop_t = series.usable_range("test")
    sampled_ts = sorted(rng.choice(np.arange(start_t, stop_t - 2), size=50,
                                   replace=False))
    mutation_points = sorted({int(t) + 1 + int(rng.integers(0, 3)) for t in
                              np.quantile(sampled_ts, np.linspace(0.1, 1.0, 6))})
    checked = 0
    for m in mutation_points:
        # scale every price field of the bars at and after m; bars before m
        # stay bit-identical to the original series
        scale = np.where(np.arange(series.n_days)[:, None] >= m, 1.7, 1.0)
        from conftest import make_series

        mutated = make_series(series.close * scale, open_=series.open * scale,
                              high=series.high * scale, low=series.low * scale,
                              adj_close=series.adj_close * scale)
        mutated_view = FeatureView(mutated, normalizers=dict(view._normalizers))
        mutated_run = run_pilot(mutated, params, forecaster, cfg,
                                env_config=env_config, seed=1, view=mutated_view)
        for t in [t for t in sampled_ts if t < m]:
            assert np.array_equal(compute_features(series, t),
                                  compute_features(mutated, t))
            assert np.array_equal(view.state(t).values, mutated_view.state(t).values)
            assert np.array_equal(forecaster.predict_movements(series, t, 3),
                                  forecaster.predict_movements(mutated, t, 3))
            idx = t - clean.start_t
            assert np.array_equal(clean.weights[idx], mutated_run.weights[idx])
            checked += 1
    assert checked >= 50
    report("9 no-lookahead-audit",
           f"({checked} (t, mutation) checks over {len(mutation_points)} mutated runs)")
