import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_jittered_series
from mpcfolio.env import EnvConfig, PortfolioState, softmax_weights
from mpcfolio.errors import ConfigError, NumericError, ShapeError, TrainingError
from mpcfolio.harness import SyntheticMarketSpec, generate_synthetic
from mpcfolio.pilot import planner_objective
from mpcfolio.policy import (
    PolicyConfig,
    PolicyParams,
    _Adam,
    _deterministic_loss,
    _stochastic_loss,
    act,
    actor_backward,
    actor_forward,
    actor_logits,
    actor_rows,
    load_checkpoint,
    mean_train_reward,
    mlp_backward,
    mlp_forward,
    pretrain,
    save_checkpoint,
    value_rows,
)
from oracles import central_difference


def small_params(mode="deterministic", seed=0, n_assets=2, hidden=(8, 8)):
    return PolicyParams(PolicyConfig(n_assets=n_assets, hidden=hidden,
                                     mode=mode, init_seed=seed))


def zero_params(**kwargs):
    params = small_params(**kwargs)
    params.set_flat(np.zeros(params.n_params()))
    return params


class TestAct:
    def test_zero_network_uniform(self):
        out = act(zero_params(), np.zeros(22))
        assert out.weights == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_only_deterministic_mode(self):
        # a stochastic policy acts on its mean logits too; only pretraining samples
        params = small_params(mode="stochastic", seed=3)
        x = np.random.default_rng(2).standard_normal(22)
        out = act(params, x)
        assert out.logits.tobytes() == actor_logits(params, x).tobytes()
        assert out.weights.tobytes() == softmax_weights(out.logits).tobytes()
        with pytest.raises(ConfigError, match="'stochastic'"):
            act(params, x, mode="stochastic")

    def test_stochastic_policy_ignores_its_log_std(self, rng):
        # acting reads only the mean logits, so the log-std head cannot move an action
        params = small_params(mode="stochastic", seed=9)
        x = rng.standard_normal(22)
        before = act(params, x).weights.tobytes()
        params.values["actor.log_std"][:] = np.log(1e-12)
        assert act(params, x).weights.tobytes() == before
        params.values["actor.log_std"][:] = 3.0
        assert act(params, x).weights.tobytes() == before


class TestValue:
    def test_zero_network_zero_value(self):
        assert value_rows(zero_params(), np.zeros((1, 22)))[0] == 0.0

    def test_finite_on_random_inputs(self, rng):
        params = small_params(seed=4)
        assert np.isfinite(value_rows(params, rng.standard_normal((1, 22)))[0])

    def test_critic_weight_perturbation_moves_output(self, rng):
        params = small_params(seed=4)
        x = rng.standard_normal((1, 22))
        before = value_rows(params, x)[0]
        params.values["critic.head_w"][0, 0] += 0.5
        assert value_rows(params, x)[0] != before

    @pytest.mark.parametrize("hidden", [(8,), (16, 16), (64, 64)])
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    @pytest.mark.parametrize("shared_trunk", [False, True])
    def test_rows_equal_one_call_per_row_bitwise(self, rng, hidden, mode, shared_trunk):
        params = PolicyParams(PolicyConfig(n_assets=5, hidden=hidden, mode=mode,
                                           shared_trunk=shared_trunk, init_seed=3))
        params.set_flat(params.flat() + 0.3 * rng.standard_normal(params.n_params()))
        for k in (1, 8):
            x = rng.standard_normal((k, 55))
            got = value_rows(params, x)
            assert got.shape == (k,)
            assert got.tobytes() == np.array([value_rows(params, row[None])[0]
                                              for row in x]).tobytes()
            head = params.values["critic.head_w"]
            trunk = "actor" if shared_trunk else "critic"
            for row, v in zip(x, got):  # one lone matrix-vector product per layer
                h = row
                for i in range(len(hidden)):
                    h = np.tanh(params.values[f"{trunk}.w{i}"] @ h
                                + params.values[f"{trunk}.b{i}"])
                assert v == (head @ h + params.values["critic.head_b"])[0]

    def test_rows_reject_non_finite_like_one_row(self, rng):
        params = small_params(seed=4)
        x = rng.standard_normal((3, 22))
        x[1, 0] = np.nan
        with pytest.raises(NumericError) as one:
            value_rows(params, x[1:2])
        with pytest.raises(NumericError) as rows:
            value_rows(params, x)
        assert str(rows.value) == str(one.value)


def _planner_args(rng, params, lam=0.0):
    """Random `planner_objective` arguments after params: 3 particles, 2 steps."""
    n, k, horizon = params.config.n_assets, 3, 2
    zs = (rng.standard_normal((k, horizon, n + 1))
          if params.config.mode == "stochastic" else None)
    return (rng.standard_normal(n * 11), 0.5 * rng.standard_normal((k, horizon, n, 11)),
            np.exp(0.05 * rng.standard_normal((k, horizon, n))),
            softmax_weights(rng.standard_normal(n + 1)), 1.0, rng.standard_normal(k),
            0.001, 0.97, lam, 1e-8, zs)


class TestOneRowPass:
    """With one row, the shared pass and its reverse give the bits of plain
    matrix-vector chains, which the pretrainers and their pins were built on."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4),
           st.lists(st.integers(1, 70), min_size=1, max_size=3),
           st.sampled_from(["actor", "critic"]), st.booleans(), st.booleans())
    def test_one_row_equals_plain_chains(self, seed, n_assets, hidden, net, shared_trunk,
                                         add_to_trunk):
        rng = np.random.default_rng(seed)
        params = PolicyParams(PolicyConfig(n_assets=n_assets, hidden=tuple(hidden),
                                           shared_trunk=shared_trunk, init_seed=seed % 97))
        params.set_flat(params.flat() + 0.3 * rng.standard_normal(params.n_params()))
        v = params.values
        trunk = "actor" if shared_trunk else net
        head = f"{net}.head"
        x = rng.standard_normal(params.config.input_dim)

        acts = mlp_forward(params, trunk, head, x[None])
        hs = [x]
        for i in range(len(hidden)):
            hs.append(np.tanh(v[f"{trunk}.w{i}"] @ hs[-1] + v[f"{trunk}.b{i}"]))
        hs.append(v[f"{head}_w"] @ hs[-1] + v[f"{head}_b"])
        assert len(acts) == len(hs)
        for got, want in zip(acts, hs):
            assert got.shape == (1, want.size) and got[0].tobytes() == want.tobytes()

        g = rng.standard_normal(hs[-1].size)
        grads = PolicyParams(params.config, rng.standard_normal(params.n_params()))
        want = {name: arr.copy() for name, arr in grads.values.items()}
        mlp_backward(params, grads.values, trunk, head, acts, g[None], add_to_trunk)
        want[f"{head}_w"], want[f"{head}_b"] = np.outer(g, hs[-2]), g
        g = v[f"{head}_w"].T @ g
        for i in reversed(range(len(hidden))):
            g = g * (1.0 - hs[i + 1] * hs[i + 1])
            w, b = f"{trunk}.w{i}", f"{trunk}.b{i}"
            if add_to_trunk:
                want[w], want[b] = want[w] + np.outer(g, hs[i]), want[b] + g
            else:
                want[w], want[b] = np.outer(g, hs[i]), g
            if i:
                g = v[w].T @ g
        for name, arr in grads.values.items():
            assert arr.tobytes() == want[name].tobytes(), name


class TestGrad:
    def test_logit_sum_matches_fd(self, rng):
        # the shared pass over one row, as the pretrainers run it, with a unit
        # gradient on every logit
        params = small_params(seed=6)
        params.set_flat(params.flat() + 0.1 * rng.standard_normal(params.n_params()))
        x = rng.standard_normal((1, 22))
        grads = PolicyParams(params.config, np.zeros(params.n_params()))
        mlp_backward(params, grads.values, "actor", "actor.head",
                     mlp_forward(params, "actor", "actor.head", x), np.ones((1, 3)))
        g = grads.vector

        def objective(p):
            return float(np.sum(mlp_forward(p, "actor", "actor.head", x)[-1]))

        for i in rng.choice(params.actor_size, size=30, replace=False):
            fd = central_difference(objective, params, i)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            assert abs(fd - g[i]) / denom < 1e-4

    def test_actor_backward_matches_fd(self, rng):
        for mode in ("deterministic", "stochastic"):
            params = small_params(mode=mode, seed=6)
            params.set_flat(params.flat() + 0.1 * rng.standard_normal(params.n_params()))
            x = rng.standard_normal((4, 22))
            z = rng.standard_normal((4, 3)) if mode == "stochastic" else None
            c = rng.standard_normal((4, 3))

            def objective(p):
                return float(np.sum(c * actor_forward(p, x, z)[0]))

            weights, acts = actor_forward(params, x, z)
            g = actor_backward(params, acts, weights, c, z)
            assert g.shape == (params.actor_size,)
            for i in rng.choice(params.actor_size, size=30, replace=False):
                fd = central_difference(objective, params, i)
                denom = max(abs(fd), abs(g[i]), 1e-8)
                assert abs(fd - g[i]) / denom < 1e-4

    def test_detached_objective_has_zero_grad(self, rng):
        # the critic bootstrap enters the planner objective as a constant
        params = small_params(seed=2)
        args = _planner_args(rng, params)
        shifted = args[:5] + (args[5] + 3.0,) + args[6:]
        obj, _, _, g = planner_objective(params, *args)
        obj_shifted, _, _, g_shifted = planner_objective(params, *shifted)
        assert obj_shifted != obj
        assert g_shifted.tobytes() == g.tobytes()

    def test_critic_entries_zero_through_weights(self, rng):
        for mode in ("deterministic", "stochastic"):
            params = small_params(mode=mode, seed=1)
            g = planner_objective(params, *_planner_args(rng, params, lam=0.5))[3]
            assert g.shape == (params.n_params(),)
            assert g[:params.actor_size].any()
            assert not g[params.actor_size:].any()


class TestCheckpoint:
    def test_file_roundtrip_bitwise(self, tmp_path, rng):
        params = small_params(mode="stochastic", seed=11)
        params.set_flat(params.flat() + rng.standard_normal(params.n_params()))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert np.array_equal(loaded.flat(), params.flat())

    def test_flat_view_roundtrip(self):
        params = small_params(mode="stochastic")
        flat = params.flat()
        params.set_flat(flat)
        assert np.array_equal(params.flat(), flat)

    @pytest.mark.parametrize("kwargs, digest", [
        (dict(n_assets=5, hidden=(16, 16)),
         "d7506bd9b2c7b4219d33c555dcf258d538cc0e4207b05ee21b627ab53a6e6f61"),
        (dict(n_assets=3, hidden=(8,), mode="stochastic", init_seed=4),
         "cc5f29b7f8fe62ff25969fcbc47582634f5e44506115b9a87d09a9da8b646df1"),
        (dict(n_assets=2, hidden=(6, 4), mode="stochastic", shared_trunk=True, init_seed=2),
         "941f04addd274c5df70ca2f6e0dbb0c81b5ac8cd743e649594951c169c6f330a"),
    ])
    def test_fresh_checkpoint_file_is_pinned(self, tmp_path, kwargs, digest):
        # the pretrain cache reads these files; layout, order and init draws are fixed
        path = tmp_path / "ckpt.json"
        save_checkpoint(PolicyParams(PolicyConfig(**kwargs)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_load_rejects_data_of_another_architecture(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(small_params(hidden=(8, 8)), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["config"]["hidden"] = [16]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ShapeError, match="548"):
            load_checkpoint(path)


class TestFlatVector:
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_arrays_are_c_contiguous_views_actor_first(self, mode):
        params = small_params(mode=mode, hidden=(16, 16))
        offset = 0
        for name, arr in params.values.items():
            assert arr.flags.c_contiguous and np.shares_memory(arr, params.vector)
            assert arr.ctypes.data == params.vector.ctypes.data + 8 * offset
            assert name.startswith("actor.") == (offset < params.actor_size)
            offset += arr.size
        assert offset == params.n_params()

    def test_copy_shares_no_memory(self):
        params = small_params(mode="stochastic")
        other = params.copy()
        assert not np.shares_memory(other.vector, params.vector)
        other.values["actor.w0"][0, 0] += 1.0
        assert params.values["actor.w0"][0, 0] != other.values["actor.w0"][0, 0]
        flat = params.flat()
        params.set_flat(flat)
        assert not np.shares_memory(params.vector, flat)

    @pytest.mark.parametrize("hidden", [(16, 16), (64, 64)])
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_outputs_independent_of_how_params_were_built(self, tmp_path, rng, mode, hidden):
        fresh = PolicyParams(PolicyConfig(n_assets=5, hidden=hidden, mode=mode, init_seed=3))
        round_trip = fresh.copy()
        round_trip.set_flat(fresh.flat())
        save_checkpoint(fresh, tmp_path / "ckpt.json")
        loaded = load_checkpoint(tmp_path / "ckpt.json")
        x = rng.standard_normal((7, 55))
        z = rng.standard_normal((7, 6)) if mode == "stochastic" else None
        ref = fresh
        for other in (fresh.copy(), round_trip, loaded):
            for row in x:
                assert value_rows(other, row[None])[0] == value_rows(ref, row[None])[0]
                assert act(other, row, mode="deterministic").weights.tobytes() == \
                    act(ref, row, mode="deterministic").weights.tobytes()
            assert actor_forward(other, x, z)[0].tobytes() == actor_forward(ref, x, z)[0].tobytes()


class TestStackedPolicies:
    """B policies as the rows of one (B, P) vector; every stacked pass gives each
    row the bits of its lone pass."""

    @staticmethod
    def _policies(rng, hidden, mode, count=6):
        policies = []
        for seed in range(count):
            params = PolicyParams(PolicyConfig(n_assets=5, hidden=hidden, mode=mode,
                                               init_seed=seed))
            params.set_flat(params.flat() + 0.3 * rng.standard_normal(params.n_params()))
            policies.append(params)
        return policies

    def test_rows_are_views_of_a_private_copy(self, rng):
        policies = self._policies(rng, (16, 16), "stochastic", count=3)
        stack = PolicyParams.stack(policies)
        assert stack.vector.shape == (3, policies[0].n_params())
        assert stack.n_params() == policies[0].n_params()
        for name, arr in stack.values.items():
            assert arr.shape == (3, *policies[0].values[name].shape)
            assert np.shares_memory(arr, stack.vector)
            assert all(row.flags.c_contiguous for row in arr)
            for b, policy in enumerate(policies):
                assert arr[b].tobytes() == policy.values[name].tobytes()
                assert not np.shares_memory(arr, policy.vector)
        stack.values["actor.w0"][1, 0, 0] += 1.0
        assert stack.vector[1, 0] == policies[1].vector[0] + 1.0

    def test_stack_rejects_mixed_architectures_and_bad_shapes(self):
        with pytest.raises(ConfigError, match="architecture"):
            PolicyParams.stack([small_params(), small_params(mode="stochastic")])
        params = small_params()
        with pytest.raises(ShapeError):
            params.set_flat(np.zeros((2, params.n_params() + 1)))
        with pytest.raises(ShapeError):
            params.set_flat(np.zeros((2, 2, params.n_params())))

    @pytest.mark.parametrize("hidden", [(8,), (16, 16), (64, 64), (128, 128)])
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_actor_rows_equal_lone_actions_bitwise(self, rng, hidden, mode):
        policies = self._policies(rng, hidden, mode)
        x = rng.standard_normal(55)
        got = actor_rows(PolicyParams.stack(policies), x[None])
        assert got.shape == (6, 1, 6)
        for logits, params in zip(got[:, 0], policies):
            assert logits.tobytes() == actor_logits(params, x).tobytes()
            h = x  # one lone matrix-vector product per layer
            for i in range(len(hidden)):
                h = np.tanh(params.values[f"actor.w{i}"] @ h + params.values[f"actor.b{i}"])
            lone = params.values["actor.head_w"] @ h + params.values["actor.head_b"]
            assert logits.tobytes() == lone.tobytes()

    def test_stacked_rows_report_their_own_failures(self, rng):
        policies = self._policies(rng, (8,), "deterministic", count=3)
        policies[1].values["actor.head_b"][2] = 1e308
        policies[1].values["actor.head_w"][2] = 1e308
        stack = PolicyParams.stack(policies)
        failures = {}
        with np.errstate(all="ignore"):
            actor_rows(stack, rng.standard_normal((1, 55)), failures=failures)
            assert failures == {1: "non-finite actor head output"}
            with pytest.raises(NumericError, match="non-finite actor head output"):
                actor_rows(stack, rng.standard_normal((1, 55)))

    @pytest.mark.parametrize("hidden", [(8,), (16, 16), (64, 64)])
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_batched_actor_pass_equals_one_pass_per_policy(self, rng, hidden, mode):
        policies = self._policies(rng, hidden, mode, count=4)
        stack = PolicyParams.stack(policies)
        for rows in (1, 5, 40):
            x = rng.standard_normal((4, rows, 55))
            z = rng.standard_normal((4, rows, 6)) if mode == "stochastic" else None
            weights, acts = actor_forward(stack, x, z)
            c = rng.standard_normal(weights.shape)
            grad = actor_backward(stack, acts, weights, c, z)
            for b, params in enumerate(policies):
                zb = None if z is None else z[b]
                lone_weights, lone_acts = actor_forward(params, x[b], zb)
                assert weights[b].tobytes() == lone_weights.tobytes()
                lone = actor_backward(params, lone_acts, lone_weights, c[b], zb)
                assert grad[b].tobytes() == lone.tobytes()


def _rising_market(seed=0, n=1):
    rng = np.random.default_rng(seed)
    t = 260
    closes = 100 * np.exp(np.cumsum(np.full((t, n), 0.004)
                                    + 0.002 * rng.standard_normal((t, n)), axis=0))
    return make_jittered_series(np.random.default_rng(seed + 1), closes)


class TestPretrain:
    @pytest.mark.parametrize("algo", ["stochastic-ac", "deterministic-ac"])
    def test_rising_asset_attracts_weight(self, algo):
        series = _rising_market(seed=3)
        env_config = EnvConfig(n_assets=1)
        mode = "stochastic" if algo == "stochastic-ac" else "deterministic"
        config = PolicyConfig(n_assets=1, hidden=(16,), mode=mode)
        init = PolicyParams(config)
        trained = pretrain(series, env_config, algo=algo, epochs=6, seed=0,
                           config=config, lr=1e-2)

        from mpcfolio.marketdata import FeatureView

        view = FeatureView(series)
        start, stop = series.usable_range("train")

        def mean_asset_weight(params):
            ws = [act(params, view.state(t), mode="deterministic").weights[1]
                  for t in range(start, stop - 1)]
            return float(np.mean(ws))

        assert mean_asset_weight(trained) > mean_asset_weight(init)

    def test_zero_epochs_returns_init(self):
        series = _rising_market(seed=5)
        config = PolicyConfig(n_assets=1, hidden=(8,), mode="stochastic")
        out = pretrain(series, EnvConfig(n_assets=1), epochs=0, seed=2, config=config)
        init = PolicyParams(PolicyConfig(n_assets=1, hidden=(8,), mode="stochastic",
                                         init_seed=2))
        assert np.array_equal(out.flat(), init.flat())

    def test_seed_determinism(self):
        series = _rising_market(seed=6)
        kwargs = dict(algo="stochastic-ac", epochs=2, seed=4,
                      config=PolicyConfig(n_assets=1, hidden=(8,), mode="stochastic"))
        a = pretrain(series, EnvConfig(n_assets=1), **kwargs)
        b = pretrain(series, EnvConfig(n_assets=1), **kwargs)
        assert np.array_equal(a.flat(), b.flat())

    def test_non_degradation(self):
        series = _rising_market(seed=8)
        env_config = EnvConfig(n_assets=1)
        config = PolicyConfig(n_assets=1, hidden=(8,), mode="deterministic")
        init_score = mean_train_reward(series, PolicyParams(
            PolicyConfig(n_assets=1, hidden=(8,), mode="deterministic", init_seed=1)),
            env_config)
        trained = pretrain(series, env_config, algo="deterministic-ac",
                           epochs=3, seed=1, config=config)
        assert mean_train_reward(series, trained, env_config) >= init_score

    def test_never_reads_validation_or_test(self):
        series = _rising_market(seed=9)
        scale = np.where(np.arange(series.n_days)[:, None] >= series.split_bounds["valid"][0],
                         3.0, 1.0)
        from conftest import make_series

        mutated = make_series(series.close * scale, open_=series.open * scale,
                              high=series.high * scale, low=series.low * scale,
                              adj_close=series.adj_close * scale)
        kwargs = dict(algo="stochastic-ac", epochs=2, seed=0,
                      config=PolicyConfig(n_assets=1, hidden=(8,), mode="stochastic"))
        a = pretrain(series, EnvConfig(n_assets=1), **kwargs)
        b = pretrain(mutated, EnvConfig(n_assets=1), **kwargs)
        assert np.array_equal(a.flat(), b.flat())

    @pytest.mark.parametrize("algo", ["stochastic-ac", "deterministic-ac"])
    def test_non_finite_critic_bootstrap_fails_the_step(self, monkeypatch, algo):
        series = _rising_market(seed=5)
        start = series.usable_range("train")[0]
        update = _Adam.update

        def update_then_poison_critic(self, params, g):
            update(self, params, g)
            if self.t == 3:  # the next step's bootstrap V(s_t+1) is NaN
                params.values["critic.head_b"][0] = np.nan

        monkeypatch.setattr(_Adam, "update", update_then_poison_critic)
        mode = algo.split("-")[0]
        with pytest.raises(TrainingError, match=f"non-finite loss at train step t={start + 3}$"):
            pretrain(series, EnvConfig(n_assets=1), algo=algo, epochs=1, seed=0,
                     config=PolicyConfig(n_assets=1, hidden=(8,), mode=mode))

    @pytest.mark.parametrize("algo, kwargs, epochs, digest", [
        ("stochastic-ac", dict(hidden=(64, 64), mode="stochastic"), 10,
         "a05a98c4f11c6604384982246da414ebe5a9f80d5ca0e7591552780212e5bdc0"),
        ("deterministic-ac", dict(hidden=(16, 16), mode="deterministic"), 3,
         "d2ccaeee9731957129e9c257fab695cb35fb678cd41e59cd63959cbcc887090c"),
        ("stochastic-ac", dict(hidden=(16, 16), mode="stochastic", shared_trunk=True), 2,
         "1539d21e6a2e65f36fd1d31c7355b8d4070d045b3b022ba0475c346948772048"),
        ("deterministic-ac", dict(hidden=(8,), mode="deterministic", shared_trunk=True), 2,
         "2df69b2ec697a64a43556b7b993b92199a957ca9913f6cd61992a9841e65bd1e"),
    ])
    def test_pretrained_vector_is_pinned(self, algo, kwargs, epochs, digest):
        # every downstream output starts from these bytes; the README market, data seed 1
        series = generate_synthetic(SyntheticMarketSpec(
            n_assets=5, length=460, signal_strength=0.004, volatility=0.005, seed=1))
        params = pretrain(series, EnvConfig(n_assets=5), algo=algo, epochs=epochs, seed=0,
                          config=PolicyConfig(n_assets=5, **kwargs))
        assert hashlib.sha256(params.vector.tobytes()).hexdigest() == digest


class TestPretrainLosses:
    """The pretrainers' hand-written gradients against central differences."""

    @staticmethod
    def _check(loss, params, rng):
        grads = PolicyParams(params.config, np.zeros(params.n_params()))
        scratch = PolicyParams(params.config, np.zeros(params.n_params()))
        value0 = loss(params, grads)
        assert value0 == loss(params, scratch)
        assert scratch.vector.tobytes() == grads.vector.tobytes()
        g = grads.vector
        floor = 1e-6 * max(1.0, float(np.max(np.abs(g))))
        # every array is checked, the log-std and a shared trunk included
        offset, picks = 0, []
        for arr in params.values.values():
            picks += list(offset + rng.choice(arr.size, size=min(arr.size, 4), replace=False))
            offset += arr.size
        for i in picks:
            fd = central_difference(lambda p: loss(p, scratch), params, i)
            assert abs(fd - g[i]) / max(abs(fd), abs(g[i]), floor) < 1e-4

    @staticmethod
    def _params(rng, mode, shared_trunk):
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8, 6), mode=mode,
                                           shared_trunk=shared_trunk, init_seed=3))
        params.set_flat(params.flat() + 0.2 * rng.standard_normal(params.n_params()))
        return params

    @pytest.mark.parametrize("shared_trunk", [False, True])
    def test_stochastic_loss_gradient(self, rng, shared_trunk):
        params = self._params(rng, "stochastic", shared_trunk)
        x = rng.standard_normal((1, 22))
        sampled = rng.standard_normal(3)

        def loss(p, grads):
            return _stochastic_loss(p, grads, mlp_forward(p, "actor", "actor.head", x), sampled,
                                    adv=0.7, target=0.3, value_coef=0.5, entropy_coef=0.01)

        self._check(loss, params, rng)

    @pytest.mark.parametrize("shared_trunk", [False, True])
    def test_deterministic_loss_gradient(self, rng, shared_trunk):
        params = self._params(rng, "deterministic", shared_trunk)
        x = rng.standard_normal((1, 22))
        state = PortfolioState(1.3e5, softmax_weights(rng.standard_normal(3)), 0)
        rel = np.exp(0.05 * rng.standard_normal(2))

        def loss(p, grads):
            return _deterministic_loss(p, grads, mlp_forward(p, "actor", "actor.head", x), state,
                                       rel, scale=1e5, fee=0.01, target=0.2, value_coef=0.5)

        self._check(loss, params, rng)
