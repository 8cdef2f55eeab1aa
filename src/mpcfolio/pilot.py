"""Inference-time MPC adaptation of a pre-trained policy against a forecaster.

Before its first step a run builds the imagined trajectory of every planned
date from the forecaster, in one batched pass over the split (phase 1, no
gradients). At every real environment step the planner perturbs that date's
trajectory into K particles and bootstraps them with the critic, then runs E
epochs of gradient ascent on a discounted imagined return with a detached
terminal critic bootstrap (phase 2, gradients through actor parameters only),
executes the adapted deterministic action, and re-plans at the next step.

One code path serves every variant: K noise-perturbed particles scored by
their mean return minus a downside semi-deviation penalty. The vanilla planner
is the setting particles=1, sigma=0, lambda=0 of that path; `VARIANTS` only
names the allowed combinations for config validation.

Because allocations do not move prices, imagined states never depend on the
actions taken, which is what makes the phase-1 trajectories valid for the
whole run and lets `planner_objective` score all K x H imagined steps as array
ops with a hand-written reverse pass. Its tests check it against central
finite differences and hand-computed returns. A date whose forecast is
rejected becomes an incident at its own step only.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .env import EnvConfig, PortfolioState, all_cash_weights, step
from .errors import ConfigError, NumericError
from .forecast import NoiseCalibration, TrajectorySet, build_trajectories, perturb
from .marketdata import FeatureView, MarketSeries
from .policy import PolicyParams, act, actor_backward, actor_forward, value_rows

VARIANTS = ("vanilla", "noise_only", "noise_lambda")
RESET_MODES = ("persist", "reset_each_step")

# Concurrent `run_pilot` calls in one process, such as a sweep's worker
# threads, take turns one trading step at a time. A step's NumPy calls give
# up the interpreter lock dozens of times over arrays too small to gain from
# it; two threads trading the lock at each of those points left the CPUs
# idle while the other thread woke, so a two-thread sweep ran slower than one
# thread and its speed swung with the host's scheduling latency. The turn
# spans the whole loop body, so the thread that holds it usually takes its
# next step before a waiting thread wakes, rather than handing over per step.
_STEP_TURN = threading.Lock()


@dataclass(frozen=True)
class MpcConfig:
    """Planning hyperparameters for one run."""

    horizon: int
    particles: int = 1
    epochs: int = 1
    step_size: float = 1e-3
    discount: float = 0.99
    risk_lambda: float = 0.0
    noise_sigma: float = 0.0
    eps_num: float = 1e-8
    variant: str = "vanilla"
    reset_mode: str = "persist"
    value_scale: float = 1.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.particles < 1:
            raise ConfigError(f"particles must be >= 1, got {self.particles}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.step_size < 0:
            raise ConfigError(f"step_size must be >= 0, got {self.step_size}")
        if not 0.0 <= self.discount < 1.0:
            raise ConfigError(f"discount must be in [0, 1), got {self.discount}")
        if self.risk_lambda < 0:
            raise ConfigError(f"risk_lambda must be >= 0, got {self.risk_lambda}")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.eps_num <= 0:
            raise ConfigError(f"eps_num must be > 0, got {self.eps_num}")
        if self.value_scale <= 0:
            raise ConfigError(f"value_scale must be > 0, got {self.value_scale}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.reset_mode not in RESET_MODES:
            raise ConfigError(f"reset_mode must be one of {RESET_MODES}")
        if self.variant == "vanilla" and not (
            self.particles == 1 and self.noise_sigma == 0.0 and self.risk_lambda == 0.0
        ):
            raise ConfigError("vanilla variant requires particles=1, sigma=0, lambda=0")
        if self.variant == "noise_only" and self.risk_lambda != 0.0:
            raise ConfigError("noise_only variant requires lambda=0")

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "particles": self.particles,
            "epochs": self.epochs,
            "step_size": self.step_size,
            "discount": self.discount,
            "risk_lambda": self.risk_lambda,
            "noise_sigma": self.noise_sigma,
            "eps_num": self.eps_num,
            "variant": self.variant,
            "reset_mode": self.reset_mode,
            "value_scale": self.value_scale,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MpcConfig":
        return cls(**d)


def imagined_reward(value_, prev_weights, weights, predicted_relatives, fee_rate) -> float:
    """One-step allocation reward under predicted relatives.

    Fee is proportional to L1 turnover over all N+1 entries; growth applies
    the weighted relatives (cash fixed at 1) after the fee.
    """
    prev = np.asarray(prev_weights, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    rel = np.asarray(predicted_relatives, dtype=np.float64)
    delta = fee_rate * value_ * float(np.abs(w - prev).sum())
    rho = float(np.dot(w[1:], rel - 1.0))
    return (value_ - delta) * (1.0 + rho) - value_


@dataclass
class StepReport:
    """Per-step planning telemetry; nothing here feeds back into decisions."""

    t: int
    objective_before: float | None = None
    objective_after: float | None = None
    mean_return: float | None = None
    downside_variance: float | None = None
    grad_norms: list = field(default_factory=list)
    executed_weights: np.ndarray | None = None
    realized_reward: float | None = None
    incident: str | None = None

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "objective_before": self.objective_before,
            "objective_after": self.objective_after,
            "mean_return": self.mean_return,
            "downside_variance": self.downside_variance,
            "grad_norms": list(self.grad_norms),
            "executed_weights": None if self.executed_weights is None
            else [float(w) for w in self.executed_weights],
            "realized_reward": self.realized_reward,
            "incident": self.incident,
        }


def _draw_action_noise(params, shape, rng):
    """One (K, H, N+1) draw; K draws of (H, N+1) give the same numbers."""
    if params.config.mode != "stochastic":
        return None
    return rng.standard_normal((*shape, params.config.action_dim))


def _phase1(params, trajectories: TrajectorySet, t, cfg, noise_calib, rng_noise):
    """Stacked imagined states, relatives and detached bootstraps for one step.

    Returns None when the forecaster covers no step from t, and raises the
    NumericError that rejected t's forecast. With sigma == 0, `perturb`
    returns the unperturbed path K times and draws nothing.
    """
    traj = trajectories.at(t)
    if traj is None:
        return None
    states, relatives = perturb(traj, noise_calib, cfg.noise_sigma, cfg.particles, rng_noise)
    return states, relatives, value_rows(params, states[:, -1].reshape(len(states), -1))


class _Rollout:
    """The epoch-invariant part of a planner pass, built once per trading step."""

    def __init__(self, obs_flat, states, relatives, prev_weights, value0: float,
                 bootstraps, fee_rate: float, discount: float):
        k, horizon, n = relatives.shape
        self.x = np.concatenate([np.broadcast_to(obs_flat, (k, 1, obs_flat.size)),
                                 states[:, :-1].reshape(k, horizon - 1, obs_flat.size)],
                                axis=1).reshape(k * horizon, obs_flat.size)
        self.rel_full = np.concatenate([np.ones((k, horizon, 1)), relatives], axis=2)
        self.rel_m1 = self.rel_full - 1.0
        self.rel_head = self.rel_full[:, :-1]
        self.prev0 = np.broadcast_to(prev_weights, (k, 1, n + 1))
        self.v0 = np.full((k, 1), value0)
        gammas = discount ** np.arange(horizon + 1)
        self.gammas = gammas[:-1]
        # J = -V_0 + sum_m coef_m V_m + gamma^H B
        self.coef = gammas[:-1] - gammas[1:]
        self.coef[-1] = gammas[-2]
        self.boot = gammas[-1] * bootstraps
        self.fee_rate = fee_rate


def planner_objective(params: PolicyParams, obs_flat, states, relatives, prev_weights,
                      value0: float, bootstraps, fee_rate: float, discount: float,
                      risk_lambda: float, eps_num: float, action_noise=None):
    """Risk objective over K imagined rollouts and its exact gradient in the actor.

    states (K, H, N, 11) and relatives (K, H, N) come from phase 1; step 0 acts
    on the real observation and step h on states[:, h-1]. action_noise is
    (K, H, N+1) for a stochastic policy, else None.

    Returns (objective, per-particle returns (K,), downside variance, flat
    gradient aligned with `PolicyParams.flat`, critic entries 0).
    """
    rollout = _Rollout(obs_flat, states, relatives, prev_weights, value0, bootstraps,
                       fee_rate, discount)
    objective, returns, downside_var, grad = _planner_pass(
        params, rollout, risk_lambda, eps_num, action_noise)
    return (objective, returns, downside_var,
            np.concatenate([grad, np.zeros(params.n_params() - grad.size)]))


def _planner_pass(params: PolicyParams, rollout: _Rollout, risk_lambda: float,
                  eps_num: float, action_noise=None, with_grad=True):
    """`planner_objective` on a prepared rollout, with the actor gradient or without.

    Because the weights never move prices, each step's drifted weights,
    turnover t_h and growth factor c_h = (1 - fee * t_h)(1 + rho_h) are array
    ops over (K, H), and the value path is value0 * cumprod(c). The reverse
    pass is written out by hand. The gradient is the flat actor gradient of
    `actor_backward`, or None when with_grad is False.
    """
    r = rollout
    k, horizon, n1 = r.rel_full.shape
    z = None if action_noise is None else action_noise.reshape(k * horizon, n1)
    w_rows, acts = actor_forward(params, r.x, z)
    w = w_rows.reshape(k, horizon, n1)

    drifted = w[:, :-1] * r.rel_head
    drift_sum = drifted.sum(axis=2, keepdims=True)
    prev = np.concatenate([r.prev0, drifted / drift_sum], axis=1)
    turn = w - prev
    sign = np.sign(turn)
    fee_keep = 1.0 - r.fee_rate * np.abs(turn).sum(axis=2)
    growth = 1.0 + (w * r.rel_m1).sum(axis=2)
    c = fee_keep * growth
    path = r.v0 * np.cumprod(c, axis=1)
    if not np.isfinite(path).all():
        bad = np.argwhere(~np.isfinite(path))[0]
        raise NumericError(f"non-finite imagined value (particle {bad[0]}, step {bad[1]})")
    values = np.concatenate([r.v0, path], axis=1)

    returns = (path - values[:, :-1]) @ r.gammas + r.boot
    # sum() / k is mean() to the bit, without NumPy's Python-level wrapper
    mean = returns.sum() / k
    down = np.minimum(returns - mean, 0.0)
    downside_var = float((down ** 2).sum() / k)
    spread = np.sqrt(downside_var + eps_num)
    objective = float(mean - risk_lambda * spread)
    if not with_grad:
        return objective, returns, downside_var, None

    # dJ/dc_h = V_h T_h with T_{H-1} = coef_H and T_h = coef_{h+1} + c_{h+1} T_{h+1};
    # dividing a suffix sum by c_h instead would fail where a fee zeroes c_h
    tail = np.empty((k, horizon))
    tail[:, -1] = r.coef[-1]
    for h in range(horizon - 2, -1, -1):
        tail[:, h] = r.coef[h] + c[:, h + 1] * tail[:, h + 1]
    g_returns = (1.0 - risk_lambda * (down - down.sum() / k) / spread) / k
    g_c = g_returns[:, None] * values[:, :-1] * tail
    g_turnover = (-r.fee_rate * g_c * growth)[..., None] * sign
    g_w = g_turnover + (g_c * fee_keep)[..., None] * r.rel_m1
    # prev_h = u / sum(u) with u = w_{h-1} * rel_full_{h-1}; prev_0 is fixed
    g_prev = -g_turnover[:, 1:]
    g_u = (g_prev - (g_prev * prev[:, 1:]).sum(axis=2, keepdims=True)) / drift_sum
    g_w[:, :-1] += g_u * r.rel_head
    grad = actor_backward(params, acts, w_rows, g_w.reshape(k * horizon, n1), z)
    return objective, returns, downside_var, grad


def _ascend(params: PolicyParams, grad: np.ndarray, step_size) -> float:
    """One gradient-ascent update of the actor prefix, in place; returns the gradient norm.

    `grad` is a flat actor gradient. The update is written into `params` only
    when the gradient norm and every updated entry are finite, so a failed
    step leaves the vector untouched; a norm that overflows counts as
    non-finite. Callers pass a private copy, never a caller's parameters. The
    norm is a plain sum, not a BLAS dot, which goes multithreaded on long
    vectors and leaves a spinning thread behind.
    """
    actor = params.vector[:params.actor_size]
    with np.errstate(over="ignore", invalid="ignore"):
        sq = float((grad * grad).sum())
        if not math.isfinite(sq):
            raise NumericError("non-finite gradient")
        new = step_size * grad
        new += actor
        if not np.isfinite(new).all():
            raise NumericError("non-finite parameters after update")
    actor[...] = new
    return math.sqrt(sq)


def adapt_step(params: PolicyParams, obs_flat, port_value, port_weights,
               trajectories: TrajectorySet, t, cfg: MpcConfig, fee_rate,
               noise_calib: NoiseCalibration | None = None,
               rng_action=None, rng_noise=None) -> tuple[np.ndarray, StepReport]:
    """Plan step t from its phase-1 trajectory and return the executed deterministic weights.

    Builds the rollout once, then runs E ascent epochs on the risk objective
    over the phase-1 particles, each writing the actor prefix of `params` in
    place. A NumericError in either phase becomes the step's incident: the
    entry vector is written back and the un-adapted action executes. With
    reset_each_step the entry vector is written back after execution too.
    """
    report = StepReport(t=t)
    entry = params.vector.copy()
    stage = "forecast rejected"
    try:
        imagined = _phase1(params, trajectories, t, cfg, noise_calib, rng_noise)
        stage = "adaptation aborted"
        if imagined is not None:
            states, relatives, bootstraps = imagined
            rollout = _Rollout(obs_flat, states, relatives, port_weights,
                               port_value / cfg.value_scale, bootstraps, fee_rate,
                               cfg.discount)
            noise = None
            for _ in range(cfg.epochs):
                noise = _draw_action_noise(params, relatives.shape[:2], rng_action)
                objective, returns, downside_var, grad = _planner_pass(
                    params, rollout, cfg.risk_lambda, cfg.eps_num, noise)
                if report.objective_before is None:
                    report.objective_before = objective
                report.mean_return = float(returns.sum() / returns.size)
                report.downside_variance = downside_var
                report.grad_norms.append(_ascend(params, grad, cfg.step_size))
            report.objective_after = _objective_value(params, rollout, cfg, noise)
    except NumericError as exc:
        params.vector[...] = entry
        report.incident = f"{stage}: {exc}"
    weights = act(params, obs_flat, mode="deterministic").weights
    report.executed_weights = weights
    if cfg.reset_mode == "reset_each_step":
        params.vector[...] = entry
    return weights, report


def _objective_value(params, rollout, cfg, action_noise) -> float:
    """Objective after adaptation, on the last epoch's draws; telemetry only."""
    return _planner_pass(params, rollout, cfg.risk_lambda, cfg.eps_num, action_noise,
                         with_grad=False)[0]


@dataclass
class PilotResult:
    start_t: int
    values: np.ndarray
    rewards: np.ndarray
    weights: np.ndarray
    reports: list


def run_pilot(series: MarketSeries, params: PolicyParams, forecaster,
              cfg: MpcConfig, env_config: EnvConfig | None = None,
              split: str = "test", seed: int = 0,
              noise_calib: NoiseCalibration | None = None,
              view: FeatureView | None = None,
              report_path=None) -> PilotResult:
    """Full-split run with per-step adaptation; deterministic given the seed.

    epochs=0 or step_size=0 skips planning entirely and reproduces the plain
    deterministic baseline episode. The caller's parameters are never mutated;
    adaptation acts on a working copy (persisting across steps unless
    reset_each_step is configured). The forecaster is asked once per planned
    date, before the first step, so an exception other than NumericError
    fails the run before any step is taken or reported.
    """
    if env_config is None:
        env_config = EnvConfig(n_assets=series.n_assets)
    if cfg.noise_sigma > 0 and noise_calib is None:
        raise ConfigError("noise_sigma > 0 requires a fitted NoiseCalibration")
    view = view or FeatureView(series)
    normalizer = view.normalizer(split)
    work = params.copy()
    seq = np.random.SeedSequence([seed, 0x5EED])
    rng_action, rng_noise = (np.random.default_rng(s) for s in seq.spawn(2))

    start, stop = series.usable_range(split)
    last = stop - 1
    planning = cfg.epochs > 0 and cfg.step_size > 0

    if planning:
        # phase 1 for the whole split, taking one turn like a step does
        with _STEP_TURN:
            horizons = {t: h for t in range(start, last)
                        if (h := min(cfg.horizon, forecaster.available_horizon(series, t))) >= 1}
            trajectories = build_trajectories(forecaster, series, horizons, normalizer)

    state = PortfolioState(env_config.initial_value, all_cash_weights(series.n_assets), start)
    values = [state.value]
    rewards, targets, reports = [], [], []
    stream = open(report_path, "w", encoding="utf-8") if report_path else None
    try:
        for t in range(start, last):
            with _STEP_TURN:
                obs = view.state(t)
                if planning:
                    weights, report = adapt_step(
                        work, obs.flat(), state.value, state.weights, trajectories, t,
                        cfg, env_config.fee_rate, noise_calib=noise_calib,
                        rng_action=rng_action, rng_noise=rng_noise)
                else:
                    weights = act(work, obs, mode="deterministic").weights
                    report = StepReport(t=t, executed_weights=weights)
                state, reward = step(state, weights, series.relatives(t), env_config.fee_rate)
                report.realized_reward = reward
                values.append(state.value)
                rewards.append(reward)
                targets.append(weights)
                reports.append(report)
                if stream is not None:
                    stream.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    finally:
        if stream is not None:
            stream.close()
    return PilotResult(start_t=start, values=np.asarray(values),
                       rewards=np.asarray(rewards), weights=np.asarray(targets),
                       reports=reports)
