"""Portfolio-management MDP: simplex weights, turnover fees, value dynamics.

Weights are length N+1 with index 0 = cash; cash earns zero return. One step
charges a fee proportional to total weight turnover, grows the remaining value
by the weighted realized relatives, and reports the value change as reward.
Short selling and leverage are excluded by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .marketdata import FeatureView, MarketSeries

WEIGHT_SUM_TOL = 1e-9
WEIGHT_NEG_TOL = 1e-12


@dataclass(frozen=True)
class EnvConfig:
    n_assets: int
    initial_value: float = 100_000.0
    fee_rate: float = 0.001

    def __post_init__(self):
        if self.initial_value <= 0:
            raise ConfigError(f"initial_value must be > 0, got {self.initial_value}")
        if not 0.0 <= self.fee_rate < 1.0:
            raise ConfigError(f"fee_rate must be in [0, 1), got {self.fee_rate}")
        if self.n_assets < 1:
            raise ConfigError(f"n_assets must be >= 1, got {self.n_assets}")


@dataclass
class PortfolioState:
    value: float
    weights: np.ndarray  # length N+1, post-drift, index 0 = cash
    t: int


def all_cash_weights(n_assets: int) -> np.ndarray:
    w = np.zeros(n_assets + 1)
    w[0] = 1.0
    return w


def validate_weights(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if not np.isfinite(w).all():
        raise NumericError("non-finite weight vector")
    if w.min() < -WEIGHT_NEG_TOL:
        raise NumericError(f"negative weight beyond tolerance: min={w.min()}")
    total = w.sum()
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise NumericError(f"weights sum to {total}, not 1")
    return np.maximum(w, 0.0)


def softmax_weights(a: np.ndarray) -> np.ndarray:
    """Numerically stable softmax onto the simplex; NaN input is rejected."""
    a = np.asarray(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise NumericError("non-finite action vector")
    e = np.exp(a - a.max())
    return e / e.sum()


def transaction_cost(prev: np.ndarray, target: np.ndarray, value: float, fee_rate: float) -> float:
    """Fee = rate * value * L1 turnover over all N+1 entries including cash."""
    return fee_rate * value * float(np.abs(target - prev).sum())


def step(state: PortfolioState, target: np.ndarray, price_relatives: np.ndarray,
         fee_rate: float) -> tuple[PortfolioState, float]:
    """Rebalance to `target`, realize `price_relatives`, return (state', reward).

    Fee is charged on turnover against the current (drifted) weights before
    growth; the new weights are the targets drifted by the relatives and
    renormalized to the simplex. Reward is the raw value change.
    """
    rel = np.asarray(price_relatives, dtype=np.float64)
    if not np.isfinite(rel).all() or rel.min() <= 0:
        raise DataError(f"price relatives must be finite and > 0, got {rel}")
    target = validate_weights(target)
    prev = validate_weights(state.weights)

    delta = transaction_cost(prev, target, state.value, fee_rate)
    rho = float(np.dot(target[1:], rel - 1.0))
    new_value = (state.value - delta) * (1.0 + rho)
    if new_value <= 0:
        raise DataError(f"portfolio value would become non-positive ({new_value})")
    reward = new_value - state.value

    rel_full = np.concatenate(([1.0], rel))
    drifted = target * rel_full
    drifted = np.maximum(drifted / drifted.sum(), 0.0)
    return PortfolioState(value=new_value, weights=drifted, t=state.t + 1), reward


@dataclass
class EpisodeResult:
    """Trajectory of one backtest: values has length steps+1 (initial included)."""

    start_t: int
    values: np.ndarray
    rewards: np.ndarray
    weights: np.ndarray  # (steps, N+1) executed targets
    logits: np.ndarray = field(repr=False, default=None)


def run_episode(series: MarketSeries, policy, mode: str = "deterministic",
                seed: int = 0, split: str = "test",
                env_config: EnvConfig | None = None,
                view: FeatureView | None = None) -> EpisodeResult:
    """Roll the policy through one split; deterministic given the seed.

    The policy object must expose act(params-free) as `policy.act(obs, mode,
    rng)` returning an object with `.weights` and `.logits`.
    """
    if env_config is None:
        env_config = EnvConfig(n_assets=series.n_assets)
    if env_config.n_assets != series.n_assets:
        raise ConfigError(
            f"env_config.n_assets={env_config.n_assets} != series assets {series.n_assets}"
        )
    view = view or FeatureView(series)
    rng = np.random.default_rng(seed)
    start, stop = series.usable_range(split)
    last = min(stop, series.n_days) - 1
    if last <= start:
        raise DataError(f"split {split!r} has no tradable steps after warm-up")

    state = PortfolioState(
        value=env_config.initial_value,
        weights=all_cash_weights(series.n_assets),
        t=start,
    )
    values = [state.value]
    rewards, targets, logits = [], [], []
    for t in range(start, last):
        obs = view.state(t)
        act_out = policy.act(obs, mode=mode, rng=rng)
        target = act_out.weights
        state, reward = step(state, target, series.relatives(t), env_config.fee_rate)
        values.append(state.value)
        rewards.append(reward)
        targets.append(target)
        logits.append(act_out.logits)
    return EpisodeResult(
        start_t=start,
        values=np.asarray(values),
        rewards=np.asarray(rewards),
        weights=np.asarray(targets),
        logits=np.asarray(logits),
    )
