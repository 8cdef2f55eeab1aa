import hashlib

import numpy as np
import pytest

from conftest import make_jittered_series
from mpcfolio import autodiff as ad
from mpcfolio.env import EnvConfig
from mpcfolio.errors import ConfigError, ShapeError
from mpcfolio.policy import (
    PolicyConfig,
    PolicyParams,
    act,
    actor_forward,
    actor_logits_taped,
    actor_weights_taped,
    checkpoint,
    grad,
    load_checkpoint,
    make_leaves,
    mean_train_reward,
    pretrain,
    restore,
    save_checkpoint,
    value,
)


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

    def test_tiny_std_matches_deterministic(self, rng):
        params = small_params(mode="stochastic", seed=3)
        params.values["actor.log_std"][:] = np.log(1e-12)
        x = rng.standard_normal(22)
        det = act(params, x, mode="deterministic")
        sto = act(params, x, mode="stochastic", rng=np.random.default_rng(0))
        assert np.max(np.abs(det.weights - sto.weights)) < 1e-9

    def test_fixed_seed_reproduces_samples(self, rng):
        params = small_params(mode="stochastic")
        x = rng.standard_normal(22)
        a = act(params, x, mode="stochastic", rng=np.random.default_rng(5))
        b = act(params, x, mode="stochastic", rng=np.random.default_rng(5))
        assert np.array_equal(a.logits, b.logits)
        assert a.log_prob == b.log_prob

    def test_stochastic_needs_rng(self):
        params = small_params(mode="stochastic")
        with pytest.raises(ConfigError):
            act(params, np.zeros(22), mode="stochastic")

    def test_deterministic_policy_cannot_sample(self):
        with pytest.raises(ConfigError):
            act(small_params(), np.zeros(22), mode="stochastic",
                rng=np.random.default_rng(0))

    def test_reparameterization_mean(self):
        params = small_params(mode="stochastic", seed=9)
        x = np.random.default_rng(2).standard_normal(22)
        mean = act(params, x, mode="deterministic").logits
        std = np.exp(params.values["actor.log_std"])
        rng = np.random.default_rng(77)
        n = 100_000
        draws = np.stack([act(params, x, mode="stochastic", rng=rng).logits
                          for _ in range(n)])
        se = std / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se)


class TestValue:
    def test_zero_network_zero_value(self):
        assert value(zero_params(), np.zeros(22)) == 0.0

    def test_finite_on_random_inputs(self, rng):
        params = small_params(seed=4)
        assert np.isfinite(value(params, rng.standard_normal(22)))

    def test_critic_weight_perturbation_moves_output(self, rng):
        params = small_params(seed=4)
        x = rng.standard_normal(22)
        before = value(params, x)
        params.values["critic.head_w"][0, 0] += 0.5
        assert value(params, x) != before


class TestGrad:
    def test_logit_sum_matches_fd(self, rng):
        params = small_params(seed=6)
        params.set_flat(params.flat() + 0.1 * rng.standard_normal(params.n_params()))
        x = rng.standard_normal(22)

        def objective(p):
            leaves = make_leaves(p, "actor")
            return ad.vsum(actor_logits_taped(leaves, p, x)), leaves

        node, leaves = objective(params)
        g = grad(node, leaves, params)

        flat0 = params.flat()
        h = 1e-5
        idx = rng.choice(params.n_params(), size=30, replace=False)
        for i in idx:
            fp, fm = flat0.copy(), flat0.copy()
            fp[i] += h
            fm[i] -= h
            pp, pm = params.copy(), params.copy()
            pp.set_flat(fp)
            pm.set_flat(fm)
            fd = (float(objective(pp)[0].value) - float(objective(pm)[0].value)) / (2 * h)
            denom = max(abs(fd), abs(g[i]), 1e-8)
            assert abs(fd - g[i]) / denom < 1e-4

    def test_detached_objective_has_zero_grad(self, rng):
        params = small_params(seed=2)
        leaves = make_leaves(params, "actor")
        bootstrap = value(params, rng.standard_normal(22))  # plain float, detached
        node = ad.add_n([ad.Node(bootstrap)])
        g = grad(node, leaves, params)
        assert np.all(g == 0.0)

    def test_quadratic_probe_exact(self):
        params = small_params(seed=8)
        leaves = make_leaves(params, "actor")
        node = ad.add_n([ad.vsum(ad.mul(leaf, leaf)) for leaf in leaves.values()])
        g = grad(node, leaves, params)
        flat = params.flat()
        names = list(params.values)
        offset = 0
        for name in names:
            size = params.values[name].size
            block = g[offset : offset + size]
            if name.startswith("actor."):
                assert np.array_equal(block, 2.0 * flat[offset : offset + size])
            else:
                assert np.all(block == 0.0)
            offset += size

    def test_critic_entries_zero_through_weights(self, rng):
        params = small_params(seed=1)
        x = rng.standard_normal(22)
        leaves = make_leaves(params, "actor")
        node = ad.dot(actor_weights_taped(leaves, params, x), np.array([1.0, -1.0, 0.5]))
        g = grad(node, leaves, params)
        offset = 0
        for name, arr in params.values.items():
            if name.startswith("critic."):
                assert np.all(g[offset : offset + arr.size] == 0.0)
            offset += arr.size


class TestCheckpoint:
    def test_save_mutate_restore(self, rng):
        params = small_params(seed=5)
        snap = checkpoint(params)
        params.set_flat(params.flat() + rng.standard_normal(params.n_params()))
        restore(params, snap)
        assert np.array_equal(params.flat(), snap.flat)

    def test_restore_shape_mismatch(self):
        params = small_params(hidden=(8, 8))
        other = small_params(hidden=(16,))
        with pytest.raises(ShapeError):
            restore(params, checkpoint(other))

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
                assert value(other, row) == value(ref, row)
                assert act(other, row, mode="deterministic").weights.tobytes() == \
                    act(ref, row, mode="deterministic").weights.tobytes()
            assert actor_forward(other, x, z)[0].tobytes() == actor_forward(ref, x, z)[0].tobytes()


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
