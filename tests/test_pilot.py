import functools
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcfolio.env import EnvConfig, run_episode, softmax_weights, step
from mpcfolio.env import PortfolioState, all_cash_weights
from mpcfolio.errors import ConfigError, NumericError
from mpcfolio.forecast import (
    CheatForecaster,
    PerfectForecaster,
    RidgeForecaster,
    ZeroForecaster,
    build_trajectories,
    collect_forecast_grid,
    fit_noise_calibration,
    perturb,
)
from mpcfolio.harness import SyntheticMarketSpec, generate_synthetic
from mpcfolio.marketdata import FeatureView
from mpcfolio.pilot import (
    RESET_MODES,
    MpcConfig,
    StepReport,
    _Cell,
    _Rollout,
    _ascend,
    _phase1,
    _planner_pass,
    adapt_step,
    imagined_reward,
    planner_objective,
    run_pilot,
    run_pilots,
)
from mpcfolio.policy import (
    ActorGradient,
    Agent,
    PolicyConfig,
    PolicyParams,
    act,
    actor_forward,
)
from oracles import central_difference, imagined_reward_oracle
from tape import planner_objective_tape


class TestImaginedReward:
    def test_all_cash_is_zero(self):
        w = np.array([1.0, 0.0, 0.0])
        assert imagined_reward(1e5, w, w, np.array([1.2, 0.8]), 0.001) == 0.0

    def test_hand_value_matches_env_example(self):
        r = imagined_reward(100_000.0, np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                            np.array([1.01]), 0.001)
        assert r == pytest.approx(399.5)

    def test_no_fee_full_allocation(self):
        r = imagined_reward(100_000.0, np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                            np.array([1.02]), 0.0)
        assert r == pytest.approx(2000.0)

    def test_matches_env_step_reward(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 6))
            prev = softmax_weights(rng.standard_normal(n + 1))
            target = softmax_weights(rng.standard_normal(n + 1))
            rel = np.exp(0.05 * rng.standard_normal(n))
            value = float(rng.uniform(1e3, 1e6))
            fee = float(rng.uniform(0.0, 0.01))
            state = PortfolioState(value, prev, 0)
            _, env_reward = step(state, target, rel, fee)
            mine = imagined_reward(value, prev, target, rel, fee)
            oracle = imagined_reward_oracle(value, prev, target, rel, fee)
            assert abs(mine - env_reward) < 1e-9
            assert abs(mine - oracle) < 1e-9


def _uniform_policy(n_assets=2, mode="deterministic"):
    params = PolicyParams(PolicyConfig(n_assets=n_assets, hidden=(8,), mode=mode))
    params.set_flat(np.zeros(params.n_params()))
    return params


class TestParticleReturn:
    """One particle's discounted return, read off `planner_objective` at K=1."""

    @staticmethod
    def _return(relatives, value0, bootstrap, discount):
        # uniform allocations and no fee
        horizon = len(relatives)
        obj, returns, _, _ = planner_objective(
            _uniform_policy(), np.zeros(22), np.zeros((1, horizon, 2, 11)),
            np.asarray(relatives, dtype=np.float64)[None], np.full(3, 1.0 / 3.0), value0,
            np.array([bootstrap]), 0.0, discount, 0.0, 1e-8)
        assert obj == returns[0]
        return obj

    def test_hand_discounting(self):
        # uniform allocations, fee 0: rewards 100 then 40, bootstrap 8
        relatives = [[1.15, 1.15], [58.0 / 55.0, 58.0 / 55.0]]
        # r0 = 1000 * (2/3)*0.15 = 100; V1 = 1100; r1 = 1100*(2/3)*(3/55) = 40
        assert self._return(relatives, 1000.0, 8.0, 0.5) == pytest.approx(
            100 + 0.5 * 40 + 0.25 * 8, rel=1e-12)

    def test_no_motion_no_reward(self):
        assert self._return(np.ones((3, 2)), 1.0, 0.0, 0.99) == 0.0

    def test_non_finite_rollout_names_particle_and_step(self):
        relatives = np.full((3, 2, 2), 1.1)
        relatives[2, 1, 1] = np.nan
        with pytest.raises(NumericError, match=r"particle 2, step 1"):
            planner_objective(_uniform_policy(), np.zeros(22), np.zeros((3, 2, 2, 11)),
                              relatives, np.full(3, 1.0 / 3.0), 1.0, np.zeros(3), 0.0,
                              1.0, 0.0, 1e-8)

    def test_h1_zero_critic_is_first_reward(self):
        prev = np.full(3, 1.0 / 3.0)
        want = imagined_reward(1.0, prev, np.full(3, 1 / 3), np.array([1.2, 0.9]), 0.0)
        assert self._return([[1.2, 0.9]], 1.0, 0.0, 0.99) == pytest.approx(want, rel=1e-12)


class TestRiskObjective:
    """The risk objective over K=3 particles whose returns are set by hand.

    With no price motion each return is the discounted bootstrap alone, and
    discount 0.5 with doubled bootstraps gives exactly the wanted returns.
    """

    @staticmethod
    def _objective(returns, risk_lambda, eps_num):
        k = len(returns)
        return planner_objective(
            _uniform_policy(), np.zeros(22), np.zeros((k, 1, 2, 11)),
            np.ones((k, 1, 2)), np.full(3, 1.0 / 3.0), 1.0, 2.0 * np.asarray(returns),
            0.0, 0.5, risk_lambda, eps_num)

    def test_equal_returns_leave_epsilon_floor(self):
        obj = self._objective([5.0, 5.0, 5.0], 2.0, 1e-8)[0]
        assert obj == pytest.approx(5.0 - 2.0 * np.sqrt(1e-8), rel=1e-9)

    def test_lambda_zero_is_mean(self):
        assert self._objective([1.0, 2.0, 3.0], 0.0, 1e-8)[0] == 2.0

    def test_hand_value(self):
        obj, returns, downside_var, _ = self._objective([1.0, 2.0, 3.0], 3.0, 1e-300)
        assert list(returns) == [1.0, 2.0, 3.0]
        assert downside_var == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert obj == pytest.approx(2.0 - np.sqrt(3.0), rel=1e-9)
        assert 2.0 - np.sqrt(3.0) == pytest.approx(0.267949, abs=1e-6)

    def test_monotone_in_lambda(self):
        vals = [1.0, 2.0, 4.0]
        objs = [self._objective(vals, lam, 1e-12)[0] for lam in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(objs, objs[1:]))  # D > 0: strictly decreasing

    def test_gradient_flows_through_all_particles(self, rng):
        # moving any one particle's prices moves the actor gradient
        k, horizon, n = 3, 2, 2
        params = PolicyParams(PolicyConfig(n_assets=n, hidden=(8,), init_seed=4))
        obs = rng.standard_normal(n * 11)
        states = 0.5 * rng.standard_normal((k, horizon, n, 11))
        relatives = np.exp(0.05 * rng.standard_normal((k, horizon, n)))
        prev = softmax_weights(rng.standard_normal(n + 1))

        def grad(rel):
            return planner_objective(params, obs, states, rel, prev, 1.0, np.zeros(k),
                                     0.001, 0.9, 1.5, 1e-10)[3]

        base = grad(relatives)
        for j in range(k):
            moved = relatives.copy()
            moved[j] *= 1.01
            assert not np.allclose(grad(moved), base, rtol=1e-6, atol=0.0)


def _returns_by_steps(params, obs, states, relatives, prev, value0, boots, fee, discount,
                      zs):
    """Each particle's return summed step by step from `imagined_reward`."""
    k, horizon, _ = relatives.shape
    out = []
    for j in range(k):
        value_, weights_prev, total = value0, prev, 0.0
        for h in range(horizon):
            x = obs if h == 0 else states[j, h - 1].ravel()
            z = None if zs is None else zs[j, h][None]
            w = actor_forward(params, x[None], z)[0][0]
            reward = imagined_reward(value_, weights_prev, w, relatives[j, h], fee)
            total += discount ** h * reward
            value_ += reward
            drifted = w * np.concatenate(([1.0], relatives[j, h]))
            weights_prev = drifted / drifted.sum()
        out.append(total + discount ** horizon * boots[j])
    return np.array(out)


def _planner_instances(rng, mode, horizon):
    """(params, risk lambda, planner_objective arguments) over K = 1..8 particles."""
    n = 2
    for k in range(1, 9):
        for lam in (0.0, 0.5, 2.0):
            params = PolicyParams(PolicyConfig(n_assets=n, hidden=(8, 6), mode=mode,
                                               init_seed=k))
            params.set_flat(params.flat() + 0.3 * rng.standard_normal(params.n_params()))
            obs = rng.standard_normal(n * 11)
            states = 0.5 * rng.standard_normal((k, horizon, n, 11))
            relatives = np.exp(0.05 * rng.standard_normal((k, horizon, n)))
            prev = softmax_weights(rng.standard_normal(n + 1))
            boots = rng.standard_normal(k)
            zs = rng.standard_normal((k, horizon, n + 1)) if mode == "stochastic" else None
            fee = float(rng.uniform(0.0, 0.3))
            value0 = float(rng.uniform(0.5, 2.0))
            yield params, lam, (obs, states, relatives, prev, value0, boots, fee, 0.97, lam,
                                1e-8, zs)


class TestPlannerObjective:
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    @pytest.mark.parametrize("horizon", [1, 2, 5])
    def test_matches_tape_reference(self, rng, mode, horizon):
        for params, _, args in _planner_instances(rng, mode, horizon):
            obj, returns, downside_var, g = planner_objective(params, *args)
            ref_obj, ref_returns, ref_g = planner_objective_tape(params, *args)
            assert abs(obj - ref_obj) <= 1e-12 * abs(ref_obj)
            assert np.allclose(returns, ref_returns, rtol=1e-12, atol=0.0)
            down = np.minimum(ref_returns - ref_returns.mean(), 0.0)
            assert downside_var == pytest.approx(np.mean(down ** 2), rel=1e-9, abs=1e-24)
            assert np.max(np.abs(g - ref_g)) <= 1e-10 * np.max(np.abs(ref_g))
            assert not g[params.actor_size:].any()

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    @pytest.mark.parametrize("horizon", [1, 2, 5])
    def test_matches_finite_differences(self, rng, mode, horizon):
        for params, lam, args in _planner_instances(rng, mode, horizon):
            obj, returns, downside_var, g = planner_objective(params, *args)
            ref_returns = _returns_by_steps(params, *args[:8], args[-1])
            assert np.allclose(returns, ref_returns, rtol=1e-12, atol=0.0)
            down = np.minimum(ref_returns - ref_returns.mean(), 0.0)
            assert downside_var == pytest.approx(np.mean(down ** 2), rel=1e-9, abs=1e-24)
            ref_obj = ref_returns.mean() - lam * np.sqrt(np.mean(down ** 2) + 1e-8)
            assert abs(obj - ref_obj) <= 1e-12 * abs(ref_obj)
            assert not g[params.actor_size:].any()

            # central differences on sampled actor coordinates, as in criterion c2
            floor = 1e-6 * max(1.0, float(np.max(np.abs(g))))
            for i in rng.choice(params.actor_size, size=6, replace=False):
                fd = central_difference(lambda p: planner_objective(p, *args)[0], params, i)
                assert abs(fd - g[i]) / max(abs(fd), abs(g[i]), floor) < 1e-4

    def test_non_finite_value_names_particle_and_step(self):
        params = _uniform_policy()
        relatives = np.ones((3, 2, 2))
        relatives[2, 1, 0] = np.inf
        with pytest.raises(NumericError, match=r"particle 2, step 1"):
            planner_objective(params, np.zeros(22), np.zeros((3, 2, 2, 11)), relatives,
                              np.full(3, 1.0 / 3.0), 1.0, np.zeros(3), 0.0, 0.99, 0.5, 1e-8)

    def test_objective_only_pass_scores_the_same(self, rng):
        # the objective_after telemetry skips the reverse pass
        k, horizon, n = 4, 3, 2
        params = PolicyParams(PolicyConfig(n_assets=n, hidden=(8, 6), mode="stochastic",
                                           init_seed=7))
        args = (rng.standard_normal(n * 11), 0.5 * rng.standard_normal((k, horizon, n, 11)),
                np.exp(0.05 * rng.standard_normal((k, horizon, n))),
                softmax_weights(rng.standard_normal(n + 1)), 1.3, rng.standard_normal(k),
                0.01, 0.97, 0.5, 1e-8, rng.standard_normal((k, horizon, n + 1)))
        obj, returns, downside_var, g = planner_objective(params, *args)
        obs, states, relatives, prev, value0, boots, fee, discount, lam, eps, noise = args
        rollout = _Rollout(obs, states[None], relatives[None], prev[None], [value0],
                           boots[None], fee, discount)
        obj_only, returns_only, downside_only, none, failures = _planner_pass(
            PolicyParams.stack([params]), rollout, lam, eps, noise[None], with_grad=False)
        assert (obj_only[0], downside_only[0], none, failures) == (obj, downside_var, None, {})
        assert np.array_equal(returns_only[0], returns)


class TestAscend:
    """`_ascend` on stacked rows, under the `np.errstate` its caller sets."""

    def _params(self, rows=1):
        return PolicyParams.stack([PolicyParams(PolicyConfig(
            n_assets=2, hidden=(8, 6), mode="stochastic", init_seed=3 + i)) for i in range(rows)])

    def test_writes_only_the_actor_prefix_in_place(self, rng):
        params = self._params()
        before, views = params.flat(), dict(params.values)
        actor = params.actor_size
        g = rng.standard_normal((1, actor))
        norms, failures = _ascend(params, g, 0.1, np.ones(1, dtype=bool))
        assert failures == {}
        assert norms[0] == pytest.approx(np.linalg.norm(g), rel=1e-12)
        assert np.array_equal(params.vector[:, :actor], before[:, :actor] + 0.1 * g)
        assert params.vector[:, actor:].tobytes() == before[:, actor:].tobytes()
        assert all(params.values[n] is a for n, a in views.items())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_gradient_changes_nothing(self, bad):
        # 1e200 is finite, but its square overflows the norm
        params = self._params()
        before = params.vector.tobytes()
        names = params.names
        g = np.zeros((1, params.actor_size))
        g[0, sum(params.values[n].size for n in names[:names.index("actor.head_b")]) + 1] = bad
        with np.errstate(all="ignore"):
            _, failures = _ascend(params, g, 0.1, np.ones(1, dtype=bool))
        assert failures == {0: "non-finite gradient"}
        assert params.vector.tobytes() == before

    def test_overflowing_update_changes_nothing(self):
        params = self._params()
        before = params.vector.tobytes()
        with np.errstate(all="ignore"):
            _, failures = _ascend(params, np.full((1, params.actor_size), 10.0), 1e308,
                                  np.ones(1, dtype=bool))
        assert failures == {0: "non-finite parameters after update"}
        assert params.vector.tobytes() == before

    def test_a_failed_or_masked_row_leaves_the_others_updated(self, rng):
        params = self._params(rows=4)
        before = params.flat()
        g = rng.standard_normal((4, params.actor_size))
        g[1, 3] = np.inf
        alive = np.array([True, True, False, True])
        with np.errstate(all="ignore"):
            norms, failures = _ascend(params, g, 0.1, alive)
        assert failures == {1: "non-finite gradient"}
        for row in (1, 2):
            assert params.vector[row].tobytes() == before[row].tobytes()
        for row in (0, 3):
            alone = self._params()
            alone.vector[...] = before[row]
            alone_norms, _ = _ascend(alone, g[row:row + 1].copy(), 0.1, np.ones(1, dtype=bool))
            assert params.vector[row].tobytes() == alone.vector[0].tobytes()
            assert norms[row] == alone_norms[0]


def _planner_market(seed=5, n=2, length=320, signal=0.004):
    return generate_synthetic(SyntheticMarketSpec(
        n_assets=n, length=length, signal_strength=signal, volatility=0.008,
        drift=0.0, seed=seed))


def _step_one(params, obs, t, imagined, cfg, fee_rate=0.001, value=1e5, noise_calib=None,
              rng_action=None, rng_noise=None):
    """`adapt_step` for one cell from an all-cash portfolio: its executed weights,
    report and working vector."""
    work = PolicyParams.stack([params])
    cell = _Cell(PortfolioState(value, all_cash_weights(params.config.n_assets), t),
                 rng_action, rng_noise, imagined)
    weights = adapt_step(work, ActorGradient(work), [cell], obs.flat(), t, cfg, fee_rate,
                         noise_calib=noise_calib)
    return weights[0], cell.report, work.vector[0]


class TestAdaptStep:
    def test_noop_when_epochs_zero(self, two_asset_market):
        series = two_asset_market
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8, 8), init_seed=2))
        cfg = MpcConfig(horizon=3, epochs=0, step_size=1e-2, variant="vanilla")
        t = series.usable_range("test")[0]
        base = act(params, view.state(t), mode="deterministic").weights
        res = run_pilot(series, params, PerfectForecaster(), cfg,
                        env_config=EnvConfig(n_assets=2), seed=0, view=view)
        assert np.array_equal(res.weights[0], base)

    def test_rising_asset_gets_more_weight(self):
        # asset 0 rises ~2 percent per day through the test split; asset 1 flat-ish
        from conftest import make_jittered_series

        t_len = 260
        rng = np.random.default_rng(3)
        closes = np.empty((t_len, 2))
        closes[:, 0] = 100 * np.exp(np.cumsum(0.02 + 0.002 * rng.standard_normal(t_len)))
        closes[:, 1] = 100 * np.exp(np.cumsum(0.001 * rng.standard_normal(t_len)))
        series = make_jittered_series(np.random.default_rng(6), closes)
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8, 8), init_seed=1))
        t = series.usable_range("test")[0] + 2
        obs = view.state(t)
        baseline_w = act(params, obs, mode="deterministic").weights

        cfg = MpcConfig(horizon=5, epochs=10, step_size=0.05, variant="vanilla",
                        value_scale=1e5)
        imagined = build_trajectories(PerfectForecaster(), series, {t: 5},
                                      view.normalizer("test"))
        weights, report, _ = _step_one(params, obs, t, imagined, cfg)
        assert report.incident is None
        assert weights[1] > baseline_w[1]

        # brute-force grid over constant allocations: all-in asset 0 is optimal
        best, best_ret = None, -np.inf
        for w0 in np.linspace(0, 1, 11):
            for w1 in np.linspace(0, 1 - w0, 11):
                w = np.array([1 - w0 - w1, w0, w1])
                value, prev = 1e5, all_cash_weights(2)
                for h in range(5):
                    rel = series.close[t + h + 1] / series.close[t + h]
                    r = imagined_reward(value, prev, w, rel, 0.001)
                    value += r
                    drift = w * np.concatenate(([1.0], rel))
                    prev = drift / drift.sum()
                if value > best_ret:
                    best, best_ret = w, value
        assert best[1] > 0.9  # all-in the rising asset

    def test_failsafe_executes_baseline(self, two_asset_market):
        series = two_asset_market
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), init_seed=0))
        t = series.usable_range("test")[0]
        obs = view.state(t)
        baseline_w = act(params, obs, mode="deterministic").weights
        cfg = MpcConfig(horizon=2, epochs=2, step_size=1e308, variant="vanilla")
        imagined = build_trajectories(PerfectForecaster(), series, {t: 2},
                                      view.normalizer("test"))
        weights, report, work = _step_one(params, obs, t, imagined, cfg)
        assert report.incident is not None
        assert np.array_equal(weights, baseline_w)
        assert np.array_equal(work, params.vector)

    def test_aborted_step_restores_the_entry_vector(self, two_asset_market, monkeypatch):
        # every epoch has written the actor in place before the telemetry pass fails
        def failing_objective(params, rollout, cfg, action_noise, alive):
            return np.zeros(len(alive)), {0: "injected"}

        monkeypatch.setattr("mpcfolio.pilot._objective_value", failing_objective)
        series = two_asset_market
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), mode="stochastic",
                                           init_seed=5))
        t = series.usable_range("test")[0]
        obs = view.state(t)
        cfg = MpcConfig(horizon=3, epochs=3, step_size=0.05, value_scale=1e5)
        imagined = build_trajectories(PerfectForecaster(), series, {t: 3},
                                      view.normalizer("test"))
        weights, report, work = _step_one(params, obs, t, imagined, cfg,
                                          rng_action=np.random.default_rng(0))
        assert report.incident == "adaptation aborted: injected"
        assert len(report.grad_norms) == 3
        assert work.tobytes() == params.vector.tobytes()
        assert np.array_equal(weights, act(params, obs, mode="deterministic").weights)

    def test_reset_each_step_restores_params(self, two_asset_market):
        series = two_asset_market
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), init_seed=4))
        t = series.usable_range("test")[0]
        obs = view.state(t)
        cfg = MpcConfig(horizon=3, epochs=4, step_size=0.05, variant="vanilla",
                        reset_mode="reset_each_step", value_scale=1e5)
        baseline_w = act(params, obs, mode="deterministic").weights
        imagined = build_trajectories(PerfectForecaster(), series, {t: 3},
                                      view.normalizer("test"))
        weights, _, work = _step_one(params, obs, t, imagined, cfg)
        assert np.array_equal(work, params.vector)  # restored after execution
        assert not np.array_equal(weights, baseline_w)  # but adaptation acted


def _phase1_cells(imagined, t, rows, rng_seed=7):
    return [_Cell(None, rng_noise=np.random.default_rng(rng_seed), trajectories=imagined,
                  report=StepReport(t=t)) for _ in range(rows)]


class TestPhase1:
    def test_imagined_states_independent_of_policy(self, two_asset_market):
        # two policies in one stack, with equal noise streams
        series = two_asset_market
        view = FeatureView(series)
        norm = view.normalizer("test")
        calib = fit_noise_calibration(ZeroForecaster(), series, 3,
                                      normalizer=view.normalizer("train"))
        t = series.usable_range("test")[0]
        cfg = MpcConfig(horizon=3, particles=4, epochs=1, noise_sigma=0.5,
                        variant="noise_lambda", risk_lambda=1.0)
        imagined = build_trajectories(ZeroForecaster(), series, {t: 3}, norm)
        params = PolicyParams.stack([PolicyParams(PolicyConfig(n_assets=2, hidden=(8,),
                                                               init_seed=seed))
                                     for seed in (0, 99)])
        ((members, states, relatives, boots),) = _phase1(params, _phase1_cells(imagined, t, 2),
                                                         t, cfg, calib)
        assert members.tolist() == [True, True]
        assert states.shape == (2, 4, 3, 2, 11) and relatives.shape == (2, 4, 3, 2)
        assert np.array_equal(states[0], states[1])
        assert np.array_equal(relatives[0], relatives[1])
        assert not np.array_equal(boots[0], boots[1])  # bootstraps do depend on the critic

    def test_sigma_zero_stacks_the_unperturbed_path(self, two_asset_market):
        series = two_asset_market
        view = FeatureView(series)
        norm = view.normalizer("test")
        t = series.usable_range("test")[0]
        params = PolicyParams.stack([PolicyParams(PolicyConfig(n_assets=2, hidden=(8,),
                                                               init_seed=0))])
        cfg = MpcConfig(horizon=3, variant="vanilla")
        imagined = build_trajectories(PerfectForecaster(), series, {t: 3}, norm)
        cells = _phase1_cells(imagined, t, 1)
        ((_, states, relatives, boots),) = _phase1(params, cells, t, cfg, None)
        traj = build_trajectories(PerfectForecaster(), series, {t: 3}, norm).at(t)
        assert np.array_equal(states[0, 0], traj.states)
        assert np.array_equal(relatives[0, 0], traj.relatives)
        assert boots.shape == (1, 1)
        assert cells[0].rng_noise.standard_normal() == np.random.default_rng(7).standard_normal()

    def test_failed_cell_is_masked_out_of_the_stack(self, two_asset_market):
        series = two_asset_market
        t = series.usable_range("test")[0]
        params = PolicyParams.stack([PolicyParams(PolicyConfig(n_assets=2, hidden=(8,),
                                                               init_seed=seed))
                                     for seed in range(3)])
        imagined = build_trajectories(PerfectForecaster(), series, {t: 3},
                                      FeatureView(series).normalizer("test"))
        cells = _phase1_cells(imagined, t, 3)
        cells[1].error = ValueError("failed at an earlier step")
        ((members, states, relatives, boots),) = _phase1(params, cells, t,
                                                         MpcConfig(horizon=3), None)
        assert members.tolist() == [True, False, True]
        assert np.array_equal(states[0], states[2])
        assert not states[1].any() and np.all(relatives[1] == 1.0)
        assert boots.shape == (3, 1)

    def test_noise_drawn_once_per_step(self, two_asset_market):
        series = two_asset_market
        view = FeatureView(series)
        norm = view.normalizer("test")
        calib = fit_noise_calibration(ZeroForecaster(), series, 2,
                                      normalizer=view.normalizer("train"))
        t = series.usable_range("test")[0]
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), init_seed=1))
        imagined = build_trajectories(ZeroForecaster(), series, {t: 2}, norm)
        for epochs in (1, 5):
            cfg = MpcConfig(horizon=2, particles=3, epochs=epochs, noise_sigma=0.4,
                            step_size=1e-4, variant="noise_only", value_scale=1e5)
            rng_noise = np.random.default_rng(11)
            _step_one(params, view.state(t), t, imagined, cfg, noise_calib=calib,
                      rng_action=np.random.default_rng(0), rng_noise=rng_noise)
            # the noise stream advanced by exactly one phase-1 draw set
            probe = rng_noise.standard_normal()
            if epochs == 1:
                first = probe
            else:
                assert probe == first


class TestVariantReduction:
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_vanilla_equals_full_path_bitwise(self, mode):
        series = _planner_market(seed=9, length=330)
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8, 8), mode=mode,
                                           init_seed=3))
        common = dict(horizon=3, particles=1, epochs=2, step_size=0.01,
                      noise_sigma=0.0, risk_lambda=0.0, value_scale=1e5)
        cfg_vanilla = MpcConfig(variant="vanilla", **common)
        cfg_full = MpcConfig(variant="noise_lambda", **common)
        env_config = EnvConfig(n_assets=2)
        a = run_pilot(series, params, PerfectForecaster(), cfg_vanilla,
                      env_config=env_config, seed=21, view=view)
        b = run_pilot(series, params, PerfectForecaster(), cfg_full,
                      env_config=env_config, seed=21, view=view)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.values, b.values)


class TestRunPilot:
    def test_epochs_zero_equals_baseline_bitwise(self, two_asset_market):
        series = two_asset_market
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8, 8), init_seed=6))
        env_config = EnvConfig(n_assets=2)
        cfg = MpcConfig(horizon=4, epochs=0, variant="vanilla")
        pilot = run_pilot(series, params, PerfectForecaster(), cfg,
                          env_config=env_config, seed=0, view=view)
        base = run_episode(series, Agent(params), mode="deterministic",
                           env_config=env_config, view=view)
        assert np.array_equal(pilot.values, base.values)
        assert np.array_equal(pilot.weights, base.weights)

    def test_step_size_zero_equals_baseline_bitwise(self, two_asset_market):
        series = two_asset_market
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8, 8), init_seed=6))
        env_config = EnvConfig(n_assets=2)
        cfg = MpcConfig(horizon=4, epochs=3, step_size=0.0, variant="vanilla")
        pilot = run_pilot(series, params, PerfectForecaster(), cfg,
                          env_config=env_config, seed=0, view=view)
        base = run_episode(series, Agent(params), mode="deterministic",
                           env_config=env_config, view=view)
        assert np.array_equal(pilot.values, base.values)

    def test_seed_determinism(self):
        series = _planner_market(seed=13)
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,),
                                           mode="stochastic", init_seed=2))
        calib = fit_noise_calibration(ZeroForecaster(), series, 2,
                                      normalizer=view.normalizer("train"))
        cfg = MpcConfig(horizon=2, particles=3, epochs=2, step_size=0.01,
                        noise_sigma=0.3, risk_lambda=1.0, variant="noise_lambda",
                        value_scale=1e5)
        kwargs = dict(env_config=EnvConfig(n_assets=2), seed=5, view=view,
                      noise_calib=calib)
        a = run_pilot(series, params, ZeroForecaster(), cfg, **kwargs)
        b = run_pilot(series, params, ZeroForecaster(), cfg, **kwargs)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.weights, b.weights)

    def test_concurrent_runs_match_serial(self):
        # more threads than cores, sharing one view, with a short switch interval
        series = _planner_market(seed=17, length=300)
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), mode="stochastic",
                                           init_seed=4))
        cfg = MpcConfig(horizon=3, epochs=2, step_size=0.01, value_scale=1e5)
        kwargs = dict(env_config=EnvConfig(n_assets=2), view=view)
        serial = [run_pilot(series, params, PerfectForecaster(), cfg, seed=s, **kwargs)
                  for s in range(4)]
        results = [None] * 4

        def run(s):
            results[s] = run_pilot(series, params, PerfectForecaster(), cfg, seed=s, **kwargs)

        threads = [threading.Thread(target=run, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for got, want in zip(results, serial):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.weights, want.weights)

    def test_caller_params_never_mutated(self, two_asset_market):
        # adaptation writes its working copy in place; the caller's vector keeps its bytes
        series = two_asset_market
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), mode="stochastic",
                                           init_seed=8))
        vector, before = params.vector, params.vector.tobytes()
        for reset_mode in RESET_MODES:
            cfg = MpcConfig(horizon=2, epochs=2, step_size=0.05, reset_mode=reset_mode,
                            value_scale=1e5)
            run_pilot(series, params, PerfectForecaster(), cfg,
                      env_config=EnvConfig(n_assets=2), seed=0, view=view)
            assert params.vector is vector and vector.tobytes() == before

    def test_perfect_foresight_beats_baseline_on_signal_market(self):
        series = _planner_market(seed=17, length=360, signal=0.005)
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8, 8), init_seed=4))
        env_config = EnvConfig(n_assets=2)
        base = run_episode(series, Agent(params), mode="deterministic",
                           env_config=env_config, view=view)
        cfg = MpcConfig(horizon=5, epochs=8, step_size=0.05, variant="vanilla",
                        value_scale=1e5)
        pilot = run_pilot(series, params, PerfectForecaster(), cfg,
                          env_config=env_config, seed=0, view=view)
        assert pilot.values[-1] > base.values[-1]

    def test_report_stream_written(self, tmp_path, two_asset_market):
        import json

        series = two_asset_market
        view = FeatureView(series)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), init_seed=1))
        cfg = MpcConfig(horizon=2, epochs=1, step_size=0.01, variant="vanilla",
                        value_scale=1e5)
        path = tmp_path / "steps.jsonl"
        res = run_pilot(series, params, PerfectForecaster(), cfg,
                        env_config=EnvConfig(n_assets=2), seed=0, view=view,
                        report_path=path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(res.rewards)
        first = json.loads(lines[0])
        assert {"t", "objective_before", "grad_norms", "executed_weights",
                "realized_reward"} <= set(first)

    def test_nan_forecast_is_one_incident(self, two_asset_market):
        series = two_asset_market
        start, stop = series.usable_range("test")
        t_bad = (start + stop) // 2

        class NaNAtOneDate(PerfectForecaster):
            def predict_movements(self, series, t, horizon):
                out = super().predict_movements(series, t, horizon)
                if t == t_bad:
                    out[0, 0] = np.nan
                return out

        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), init_seed=1))
        cfg = MpcConfig(horizon=3, epochs=1, step_size=0.05, variant="vanilla",
                        value_scale=1e5)
        res = run_pilot(series, params, NaNAtOneDate(), cfg,
                        env_config=EnvConfig(n_assets=2), seed=0,
                        view=FeatureView(series))
        incidents = [(r.t, r.incident) for r in res.reports if r.incident is not None]
        assert len(res.reports) == stop - 1 - start
        assert len(incidents) == 1
        assert incidents[0][0] == t_bad
        assert incidents[0][1].startswith("forecast rejected: ")
        assert str(series.dates[t_bad]) in incidents[0][1]
        assert np.all(np.isfinite(res.values))

    def test_raising_forecast_is_one_incident(self, two_asset_market):
        series = two_asset_market
        start, stop = series.usable_range("test")
        t_bad = start + 5

        class RaisesAtOneDate(PerfectForecaster):
            def predict_movements(self, series, t, horizon):
                if t == t_bad:
                    raise NumericError("singular forecast")
                return super().predict_movements(series, t, horizon)

        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), init_seed=1))
        cfg = MpcConfig(horizon=3, epochs=1, step_size=0.05, variant="vanilla",
                        value_scale=1e5)
        res = run_pilot(series, params, RaisesAtOneDate(), cfg,
                        env_config=EnvConfig(n_assets=2), seed=0, view=FeatureView(series))
        incidents = [(r.t, r.incident) for r in res.reports if r.incident is not None]
        assert incidents == [(t_bad, "forecast rejected: singular forecast")]

    def test_missing_external_cell_fails_before_the_first_step(self, tmp_path,
                                                               two_asset_market):
        from conftest import write_external_forecasts
        from mpcfolio.errors import CoverageError
        from mpcfolio.forecast import ExternalForecastSource

        series = two_asset_market
        start, stop = series.usable_range("test")
        path = write_external_forecasts(tmp_path / "fc.csv", series, horizons=(1, 2, 3))
        source = ExternalForecastSource.from_csv(path)
        t_mid = (start + stop) // 2
        del source.cells[(series.dates[t_mid], series.assets[1], 2)]
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), init_seed=1))
        cfg = MpcConfig(horizon=3, epochs=1, step_size=0.05, variant="vanilla",
                        value_scale=1e5)
        message = (f"missing forecast cell (base_date={series.dates[t_mid]}, "
                   f"asset={series.assets[1]}, horizon=2)")
        with pytest.raises(CoverageError) as err:
            run_pilot(series, params, source, cfg, env_config=EnvConfig(n_assets=2),
                      seed=0, view=FeatureView(series), report_path=tmp_path / "steps.jsonl")
        assert str(err.value) == message
        assert not (tmp_path / "steps.jsonl").exists()  # no step was taken

    def test_forecaster_asked_once_per_planned_date_per_run(self, two_asset_market):
        from collections import Counter

        series = two_asset_market
        start, stop = series.usable_range("test")
        calls = Counter()

        class Spy(PerfectForecaster):
            def predict_movements(self, series, t, horizon):
                calls[t] += 1
                return super().predict_movements(series, t, horizon)

        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), init_seed=1))
        cfg = MpcConfig(horizon=3, epochs=2, step_size=0.05, variant="vanilla",
                        value_scale=1e5)
        spy = Spy()
        view = FeatureView(series)
        for runs in (1, 2):
            run_pilot(series, params, spy, cfg, env_config=EnvConfig(n_assets=2),
                      seed=0, view=view)
            assert calls == Counter(dict.fromkeys(range(start, stop - 1), runs))

    def test_noise_requires_calibration(self, two_asset_market):
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,)))
        cfg = MpcConfig(horizon=2, particles=2, noise_sigma=0.5, variant="noise_only")
        with pytest.raises(ConfigError):
            run_pilot(two_asset_market, params, ZeroForecaster(), cfg,
                      env_config=EnvConfig(n_assets=2))


class TestMpcConfig:
    def test_vanilla_constraints(self):
        with pytest.raises(ConfigError):
            MpcConfig(horizon=3, particles=2, variant="vanilla")
        with pytest.raises(ConfigError):
            MpcConfig(horizon=3, noise_sigma=0.1, variant="vanilla")
        with pytest.raises(ConfigError):
            MpcConfig(horizon=3, risk_lambda=1.0, variant="vanilla")

    def test_noise_only_forbids_lambda(self):
        with pytest.raises(ConfigError):
            MpcConfig(horizon=3, particles=2, noise_sigma=0.1, risk_lambda=0.5,
                      variant="noise_only")

    def test_roundtrip(self):
        cfg = MpcConfig(horizon=5, particles=4, epochs=2, noise_sigma=0.5,
                        risk_lambda=2.0, variant="noise_lambda")
        assert MpcConfig.from_dict(cfg.to_dict()) == cfg


class TestGradientCheck:
    def test_objective_gradient_matches_fd_toy(self, rng):
        series = _planner_market(seed=23)
        view = FeatureView(series)
        norm = view.normalizer("test")
        t = series.usable_range("test")[0] + 1
        traj = build_trajectories(PerfectForecaster(), series, {t: 3}, norm).at(t)
        calib = fit_noise_calibration(ZeroForecaster(), series, 3,
                                      normalizer=view.normalizer("train"))
        states, relatives = perturb(traj, calib, 0.3, 3, np.random.default_rng(1))
        obs = view.state(t).flat()
        prev = np.array([0.4, 0.35, 0.25])
        boots = np.array([0.05, -0.1, 0.2])
        zs = np.stack([rng.standard_normal((3, 3)) for _ in range(3)])

        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8, 8),
                                           mode="stochastic", init_seed=12))
        params.set_flat(params.flat() + 0.05 * rng.standard_normal(params.n_params()))

        def objective(p):
            return planner_objective(p, obs, states, relatives, prev, 1.0, boots,
                                     0.001, 0.99, 2.0, 1e-8, zs)

        g = objective(params)[3]
        flat0 = params.flat()
        names, offset, spans = list(params.values), 0, {}
        for n in names:
            spans[n] = (offset, offset + params.values[n].size)
            offset += params.values[n].size
        for n in names:
            lo, hi = spans[n]
            if n.startswith("critic."):
                assert np.all(g[lo:hi] == 0.0)
        actor_idx = np.concatenate([np.arange(*spans[n]) for n in names
                                    if n.startswith("actor.")])
        h = 1e-5
        for i in rng.choice(actor_idx, size=25, replace=False):
            fp, fm = flat0.copy(), flat0.copy()
            fp[i] += h
            fm[i] -= h
            pp, pm = params.copy(), params.copy()
            pp.set_flat(fp)
            pm.set_flat(fm)
            fd = (objective(pp)[0] - objective(pm)[0]) / (2 * h)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            assert abs(fd - g[i]) / denom < 1e-4


@functools.lru_cache(maxsize=None)
def _lockstep_world():
    """A market whose test split runs to its last day, and forecasters whose
    effective horizons differ there: the ridge plans H steps to the end, the
    blend and perfect foresight fewer."""
    series = _planner_market(seed=23, length=260)
    view = FeatureView(series)
    ridge = RidgeForecaster.fit(series, horizon=3, lambda_reg=10.0)
    cheat = CheatForecaster.from_grid(ridge, collect_forecast_grid(ridge, series, 3, "test", 30),
                                      0.6)
    calib = fit_noise_calibration(ridge, series, 3, normalizer=view.normalizer("train"))
    assert series.usable_range("test")[1] == series.n_days
    return series, view, (ridge, cheat, PerfectForecaster(), ZeroForecaster()), calib


def _lockstep_policies(mode, seeds):
    policies = []
    for seed in seeds:
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), mode=mode, init_seed=seed))
        jitter = np.random.default_rng(seed).standard_normal(params.n_params())
        params.set_flat(params.flat() + 0.2 * jitter)
        policies.append(params)
    return policies


def _lockstep_cfg(particles, reset_mode="persist"):
    if particles == 1:
        return MpcConfig(horizon=3, epochs=2, step_size=0.05, variant="vanilla",
                         reset_mode=reset_mode, value_scale=1e5)
    return MpcConfig(horizon=3, particles=particles, epochs=2, step_size=0.05,
                     noise_sigma=0.3, risk_lambda=0.5, variant="noise_lambda",
                     reset_mode=reset_mode, value_scale=1e5)


def _outcome_bytes(outcome):
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return (outcome.values.tobytes(), outcome.rewards.tobytes(), outcome.weights.tobytes(),
            [json.dumps(r.to_dict(), sort_keys=True) for r in outcome.reports])


def _solo(series, view, policy, forecaster, cfg, seed, calib):
    try:
        return run_pilot(series, policy, forecaster, cfg, env_config=EnvConfig(n_assets=2),
                         seed=seed, noise_calib=calib, view=view)
    except Exception as exc:  # noqa: BLE001 - compared with the lockstep cell's exception
        return exc


class NaNAtOneDate:
    def __init__(self, base, t_bad):
        self.base, self.t_bad = base, t_bad

    def available_horizon(self, series, t):
        return self.base.available_horizon(series, t)

    def predict_movements(self, series, t, horizon):
        out = np.array(self.base.predict_movements(series, t, horizon))
        if t == self.t_bad:
            out[0, 0] = np.nan
        return out


class RaisesValueError(ZeroForecaster):
    def predict_movements(self, series, t, horizon):
        raise ValueError("bad forecast")


class TestLockstep:
    """`run_pilots` over B cells gives each cell the bytes of its own one-cell run."""

    def _check(self, policies, forecasters, cfg, seeds, calib=None, tmp_path=None):
        series, view, _, world_calib = _lockstep_world()
        calib = calib or (world_calib if cfg.noise_sigma > 0 else None)
        paths = None if tmp_path is None else [tmp_path / f"cell{b}.jsonl"
                                               for b in range(len(seeds))]
        outcomes = run_pilots(series, policies, forecasters, cfg, seeds,
                              env_config=EnvConfig(n_assets=2), noise_calib=calib, view=view,
                              report_paths=paths)
        for outcome, policy, forecaster, seed in zip(outcomes, policies, forecasters, seeds):
            solo = _solo(series, view, policy, forecaster, cfg, seed, calib)
            assert _outcome_bytes(outcome) == _outcome_bytes(solo)
        return outcomes

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_lockstep_matches_solo_runs(self, data):
        b = data.draw(st.integers(1, 6), label="cells")
        mode = data.draw(st.sampled_from(["deterministic", "stochastic"]), label="mode")
        particles = data.draw(st.sampled_from([1, 3]), label="particles")
        reset_mode = data.draw(st.sampled_from(RESET_MODES), label="reset_mode")
        which = data.draw(st.lists(st.integers(0, 3), min_size=b, max_size=b), label="fc")
        seeds = data.draw(st.lists(st.integers(0, 40), min_size=b, max_size=b), label="seeds")
        forecasters = _lockstep_world()[2]
        self._check(_lockstep_policies(mode, seeds), [forecasters[i] for i in which],
                    _lockstep_cfg(particles, reset_mode), seeds)

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_effective_horizons_differ_at_the_tail(self, mode):
        series, view, (ridge, cheat, _, _), _ = _lockstep_world()
        last = series.usable_range("test")[1] - 2
        assert min(3, cheat.available_horizon(series, last)) < ridge.available_horizon(series, last)
        outcomes = self._check(_lockstep_policies(mode, [1, 2, 3, 4]),
                               [ridge, cheat, cheat, ridge], _lockstep_cfg(3), [5, 6, 7, 8])
        assert all(outcome.reports[-1].objective_after is not None for outcome in outcomes)

    def test_nan_forecast_is_one_incident_in_its_cell_only(self):
        series, _, (ridge, cheat, _, _), _ = _lockstep_world()
        start, stop = series.usable_range("test")
        t_bad = (start + stop) // 2
        outcomes = self._check(_lockstep_policies("stochastic", [1, 2, 3]),
                               [ridge, NaNAtOneDate(cheat, t_bad), cheat], _lockstep_cfg(1),
                               [4, 5, 6])
        incidents = [[(r.t, r.incident) for r in o.reports if r.incident] for o in outcomes]
        assert incidents[0] == incidents[2] == []
        assert len(incidents[1]) == 1 and incidents[1][0][0] == t_bad
        assert incidents[1][0][1].startswith("forecast rejected: non-finite predicted movements")

    def test_non_finite_ascent_is_one_incident_in_its_cell_only(self, monkeypatch):
        from mpcfolio import pilot

        series, view, _, _ = _lockstep_world()
        perfect = PerfectForecaster()
        # stochastic: the failed cell must not draw for the step's second epoch
        policies, seeds = _lockstep_policies("stochastic", [1, 2, 3]), [4, 5, 6]
        cfg = _lockstep_cfg(1)
        clean = [_solo(series, view, p, perfect, cfg, s, None) for p, s in zip(policies, seeds)]
        real_ascend = pilot._ascend

        def inject(row):
            calls = []

            def ascend(params, grad, step_size, alive):
                calls.append(None)
                if len(calls) == 7:  # the first epoch of the fourth step
                    grad = grad.copy()
                    grad[row, 0] = np.nan
                return real_ascend(params, grad, step_size, alive)
            monkeypatch.setattr(pilot, "_ascend", ascend)

        inject(row=1)
        outcomes = run_pilots(series, policies, [perfect] * 3, cfg, seeds,
                              env_config=EnvConfig(n_assets=2), view=view)
        inject(row=0)
        alone = _solo(series, view, policies[1], perfect, cfg, seeds[1], None)
        assert _outcome_bytes(outcomes[1]) == _outcome_bytes(alone)
        incidents = [(r.t, r.incident) for r in outcomes[1].reports if r.incident]
        assert incidents == [(series.usable_range("test")[0] + 3,
                              "adaptation aborted: non-finite gradient")]
        for b in (0, 2):
            assert _outcome_bytes(outcomes[b]) == _outcome_bytes(clean[b])

    @pytest.mark.parametrize("particles", [1, 3])
    def test_cell_failing_mid_run_leaves_the_others_alone(self, tmp_path, monkeypatch,
                                                          particles):
        from mpcfolio import pilot
        from mpcfolio.errors import DataError

        series, view, (ridge, cheat, _, _), calib = _lockstep_world()
        cfg = _lockstep_cfg(particles)
        calib = calib if cfg.noise_sigma > 0 else None
        policies, seeds = _lockstep_policies("stochastic", [1, 2, 3]), [4, 5, 6]
        forecasters = [ridge, cheat, ridge]
        solo = [_solo(series, view, p, f, cfg, s, calib)
                for p, f, s in zip(policies, forecasters, seeds)]
        real_step, calls = pilot.step, []

        def step(*args):
            calls.append(None)
            if len(calls) == 3 * 5 + 2:  # cells step in order, so this is cell 1's sixth
                raise DataError("injected step failure")
            return real_step(*args)

        monkeypatch.setattr(pilot, "step", step)
        paths = [tmp_path / f"cell{b}.jsonl" for b in range(3)]
        outcomes = run_pilots(series, policies, forecasters, cfg, seeds,
                              env_config=EnvConfig(n_assets=2), noise_calib=calib, view=view,
                              report_paths=paths)
        assert isinstance(outcomes[1], DataError)
        assert len(paths[1].read_text().splitlines()) == 5
        for b in (0, 2):
            assert _outcome_bytes(outcomes[b]) == _outcome_bytes(solo[b])
            assert len(paths[b].read_text().splitlines()) == len(solo[b].reports)

    def test_raising_forecaster_fails_only_its_cells(self, tmp_path):
        series, _, (ridge, cheat, _, _), _ = _lockstep_world()
        raising = RaisesValueError()
        outcomes = self._check(_lockstep_policies("deterministic", [1, 2, 3, 4]),
                               [ridge, raising, cheat, raising], _lockstep_cfg(1), [5, 6, 7, 8],
                               tmp_path=tmp_path)
        assert [type(o).__name__ for o in outcomes] == ["PilotResult", "ValueError",
                                                        "PilotResult", "ValueError"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cell0.jsonl", "cell2.jsonl"]

    def test_policies_must_share_an_architecture(self, two_asset_market):
        policies = [PolicyParams(PolicyConfig(n_assets=2, hidden=(8,))),
                    PolicyParams(PolicyConfig(n_assets=2, hidden=(6,)))]
        with pytest.raises(ConfigError, match="architecture"):
            run_pilots(two_asset_market, policies, [ZeroForecaster()] * 2,
                       _lockstep_cfg(1), [0, 1])
