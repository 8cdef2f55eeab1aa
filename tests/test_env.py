import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RawFeatureView, make_series
from oracles import env_step_oracle
from mpcfolio.env import (
    EnvConfig,
    PortfolioState,
    all_cash_weights,
    run_episode,
    softmax_weights,
    step,
    transaction_cost,
)
from mpcfolio.errors import DataError, NumericError
from mpcfolio.policy import Agent, PolicyConfig, PolicyParams


class TestSoftmaxWeights:
    def test_symmetry(self):
        w = softmax_weights(np.zeros(3))
        assert w == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_analytic(self):
        w = softmax_weights(np.array([np.log(2.0), 0.0, 0.0]))
        assert w == pytest.approx([0.5, 0.25, 0.25])

    def test_large_logits_no_overflow(self):
        w = softmax_weights(np.array([1000.0, 0.0]))
        assert np.isfinite(w).all()
        assert abs(w[0] - 1.0) < 1e-12 and w[1] < 1e-12

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            softmax_weights(np.array([np.nan, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_simplex_membership(self, logits):
        w = softmax_weights(np.array(logits))
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-9


class TestTransactionCost:
    def test_zero_turnover(self):
        w = np.array([0.5, 0.5])
        assert transaction_cost(w, w, 1e5, 0.001) == 0.0

    def test_cash_to_half_split(self):
        prev = np.array([1.0, 0.0])
        target = np.array([0.5, 0.5])
        assert transaction_cost(prev, target, 100_000.0, 0.001) == pytest.approx(100.0)

    def test_full_flip_between_assets(self):
        prev = np.array([0.0, 1.0, 0.0])
        target = np.array([0.0, 0.0, 1.0])
        assert transaction_cost(prev, target, 100_000.0, 0.001) == pytest.approx(200.0)


class TestStep:
    def test_all_cash_is_inert(self):
        state = PortfolioState(100_000.0, all_cash_weights(2), 0)
        target = all_cash_weights(2)
        new, reward = step(state, target, np.array([1.3, 0.7]), 0.001)
        assert reward == 0.0
        assert new.value == 100_000.0

    def test_half_allocation_hand_value(self):
        state = PortfolioState(100_000.0, all_cash_weights(1), 0)
        target = np.array([0.5, 0.5])
        new, reward = step(state, target, np.array([1.01]), 0.001)
        assert new.value == pytest.approx(100_399.5)
        assert reward == pytest.approx(399.5)

    def test_drift_renormalization(self):
        state = PortfolioState(100_000.0, np.array([0.5, 0.5]), 0)
        target = np.array([0.5, 0.5])
        new, _ = step(state, target, np.array([2.0]), 0.0)
        assert new.weights == pytest.approx([1 / 3, 2 / 3])

    def test_non_positive_relative_rejected(self):
        state = PortfolioState(100.0, all_cash_weights(1), 0)
        with pytest.raises(DataError):
            step(state, np.array([0.5, 0.5]), np.array([0.0]), 0.0)

    def test_conservation_without_fees(self):
        state = PortfolioState(12345.678, np.array([0.2, 0.3, 0.5]), 0)
        target = np.array([0.1, 0.6, 0.3])
        new, reward = step(state, target, np.array([1.0, 1.0]), 0.0)
        assert new.value == 12345.678
        assert reward == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_simplex_invariant_after_step(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        state = PortfolioState(1e5, softmax_weights(rng.standard_normal(n + 1)), 0)
        target = softmax_weights(rng.standard_normal(n + 1))
        rel = np.exp(0.05 * rng.standard_normal(n))
        new, _ = step(state, target, rel, 0.001)
        assert np.all(new.weights >= 0)
        assert abs(new.weights.sum() - 1.0) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_fee_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        state_w = softmax_weights(rng.standard_normal(3))
        target = softmax_weights(rng.standard_normal(3))
        rel = np.exp(0.05 * rng.standard_normal(2))
        values = []
        for fee in (0.0, 0.001, 0.01, 0.1):
            state = PortfolioState(1e5, state_w.copy(), 0)
            new, _ = step(state, target, rel, fee)
            values.append(new.value)
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))


FAULTS = (None, "nan_target", "negative_target", "off_simplex_target", "nan_prev",
          "negative_prev", "nan_relative", "zero_relative", "ruinous_fee")


@st.composite
def step_inputs(draw):
    """A step's inputs, valid or broken in exactly one named way."""
    n = draw(st.integers(1, 6))
    logits = st.lists(st.floats(-30, 30), min_size=n + 1, max_size=n + 1)
    target = softmax_weights(np.array(draw(logits)))
    prev = softmax_weights(np.array(draw(logits)))
    rel = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=n, max_size=n)))
    value = draw(st.floats(1e-3, 1e9))
    fee = draw(st.floats(0.0, 0.999))
    fault = draw(st.sampled_from(FAULTS))
    j = draw(st.integers(0, n))
    size = draw(st.floats(1e-13, 10.0))
    if fault == "nan_target":
        target[j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif fault == "negative_target":
        target[j] = -size
    elif fault == "off_simplex_target":
        target = target * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * size)
    elif fault == "nan_prev":
        prev[j] = np.nan
    elif fault == "negative_prev":
        prev[j] = -size
    elif fault == "nan_relative":
        rel[j % n] = draw(st.sampled_from([np.nan, np.inf]))
    elif fault == "zero_relative":
        rel[j % n] = draw(st.sampled_from([0.0, -size]))
    elif fault == "ruinous_fee":
        target, prev, fee = all_cash_weights(n), np.eye(n + 1)[-1], 0.999
        rel[-1] = 1e-3
    return PortfolioState(value, prev, 7), target, rel, fee


class TestStepMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(step_inputs())
    def test_same_bytes_and_same_errors(self, inputs):
        state, target, rel, fee = inputs
        try:
            want = env_step_oracle(state, target, rel, fee)
        except Exception as exc:  # noqa: BLE001 - the fast step must raise the same
            with pytest.raises(type(exc)) as got:
                step(state, target, rel, fee)
            assert str(got.value) == str(exc)
            return
        new, reward = step(state, target, rel, fee)
        assert (new.value, new.t, reward) == want[0:1] + want[2:]
        assert new.weights.tobytes() == want[1].tobytes()


class TestRunEpisode:
    def _distinct_closes(self, t, n, seed=3):
        rng = np.random.default_rng(seed)
        base = 100 * np.exp(np.cumsum(0.005 * rng.standard_normal((t, n)), axis=0))
        return base

    def _series(self, closes):
        rng = np.random.default_rng(9)
        opens = closes * (1 + 0.001 * rng.standard_normal(closes.shape))
        high = np.maximum(opens, closes) * 1.001
        low = np.minimum(opens, closes) * 0.999
        adj = closes * (0.98 + 0.001 * rng.random(closes.shape))
        return make_series(closes, open_=opens, high=high, low=low, adj_close=adj)

    def test_deterministic_given_seed(self):
        series = self._series(self._distinct_closes(200, 2))
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,), mode="stochastic"))
        a = run_episode(series, Agent(params), mode="stochastic", seed=11,
                        env_config=EnvConfig(n_assets=2))
        b = run_episode(series, Agent(params), mode="stochastic", seed=11,
                        env_config=EnvConfig(n_assets=2))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.weights, b.weights)

    def test_constant_market_only_fees(self):
        closes = np.full((200, 2), 80.0)
        series = make_series(closes)
        params = PolicyParams(PolicyConfig(n_assets=2, hidden=(8,)))
        res = run_episode(series, Agent(params), env_config=EnvConfig(n_assets=2),
                          view=RawFeatureView(series))
        assert np.all(np.diff(res.values) <= 0)  # fees only ever reduce value

    def test_never_rebalancing_policy_keeps_value_constant(self):
        closes = np.full((200, 1), 80.0)
        series = make_series(closes)

        class AllCash:
            def act(self, obs, mode=None, rng=None):
                from mpcfolio.policy import ActOutput
                return ActOutput(logits=np.zeros(2), weights=all_cash_weights(1))

        res = run_episode(series, AllCash(), env_config=EnvConfig(n_assets=1),
                          view=RawFeatureView(series))
        assert np.all(res.values == res.values[0])

    def test_all_in_doubling_asset(self):
        # single asset, price doubles smoothly over the test split
        growth = np.concatenate([np.full(150, 1.0), np.full(50, 2 ** (1 / 49))])
        closes = (100 * np.cumprod(growth))[:, None]
        series = make_series(closes)

        class AllIn:
            def act(self, obs, mode=None, rng=None):
                from mpcfolio.policy import ActOutput
                return ActOutput(logits=np.zeros(2), weights=np.array([0.0, 1.0]))

        res = run_episode(series, AllIn(), env_config=EnvConfig(n_assets=1),
                          view=RawFeatureView(series))
        start_price = series.close[res.start_t, 0]
        end_price = series.close[-1, 0]
        # one rebalance from all-cash (L1 turnover 2.0), then pure compounding
        expected = 1e5 * (1 - 0.002) * end_price / start_price
        assert res.values[-1] == pytest.approx(expected, rel=1e-9)
