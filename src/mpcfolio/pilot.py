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

For the same reason every run over one series and split trades on the same
dates, whatever its policy, forecaster or seed. `run_pilots` runs B such
cells in lockstep: their working parameters are the rows of one (B, P)
vector, and at each date the cells that plan at the same effective horizon
share one batched pass for each of the critic bootstraps, the planner's
forward and reverse passes, the ascent, the telemetry re-score and the
executed action. Every stacked operation gives each row the bits of its
lone computation, and each cell keeps its own noise streams, environment
step and report, so a cell's outputs do not depend on B or on the other
cells. `run_pilot` is the one-cell call.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

import numpy as np

from .env import EnvConfig, PortfolioState, all_cash_weights, step
from .errors import ConfigError, NumericError
from .forecast import NoiseCalibration, TrajectorySet, build_trajectories, perturb
from .marketdata import FeatureView, MarketSeries
from .policy import (
    ActorGradient,
    PolicyParams,
    actor_backward,
    actor_forward,
    actor_rows,
    value_rows,
)

VARIANTS = ("vanilla", "noise_only", "noise_lambda")
RESET_MODES = ("persist", "reset_each_step")

# Concurrent lockstep runs in one process, such as a sweep's groups on worker
# threads, take turns one lockstep step at a time, each turn serving every
# cell of its run. A step's NumPy calls give up the interpreter lock dozens
# of times over arrays too small to gain from it; two threads trading the
# lock at each of those points left the CPUs idle while the other thread
# woke, so a two-thread sweep ran slower than one thread and its speed swung
# with the host's scheduling latency. The turn spans the whole loop body, so
# the thread that holds it usually takes its next step before a waiting
# thread wakes, rather than handing over per step.
_STEP_TURN = threading.Lock()

# `json.dumps(..., sort_keys=True)` without building an encoder per report line
_REPORT_JSON = json.JSONEncoder(sort_keys=True)


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


@dataclass
class _Cell:
    """One run of a lockstep group: its parameter row, inputs, streams and outputs."""

    row: int  # of the cell's working parameters in the stacked vector
    state: PortfolioState
    rng_action: np.random.Generator | None = None
    rng_noise: np.random.Generator | None = None
    trajectories: TrajectorySet | None = None
    report: StepReport | None = None  # of the step being taken
    error: Exception | None = None  # that ended the run
    values: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    targets: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    stream: object = None


def _rows_of(params: PolicyParams, cells: list) -> PolicyParams:
    """The stacked parameters of `cells`: `params` itself when they are all its
    rows in order, else a copy of their rows."""
    rows = [cell.row for cell in cells]
    if rows == list(range(len(params.vector))):
        return params
    return PolicyParams(params.config, params.vector[rows])


def _phase1(params: PolicyParams, cells: list, t: int, cfg: "MpcConfig",
            noise_calib: NoiseCalibration | None) -> list:
    """Stacked imagined states, relatives and detached bootstraps for step t.

    Each cell perturbs its own trajectory from t with its own noise stream;
    with sigma == 0, `perturb` returns the unperturbed path K times and draws
    nothing. A cell whose forecaster covers no step from t plans nothing, and
    a cell whose forecast at t was rejected, or whose bootstraps are not
    finite, records the incident. Returns one (cells, states (b, K, H, N, 11),
    relatives (b, K, H, N), bootstraps (b, K)) stack per effective horizon H,
    whose bootstraps are one stacked critic pass.
    """
    by_horizon = {}
    for cell in cells:
        try:
            traj = cell.trajectories.at(t)
            if traj is not None:
                by_horizon.setdefault(traj.horizon, []).append(
                    (cell, *perturb(traj, noise_calib, cfg.noise_sigma, cfg.particles,
                                    cell.rng_noise)))
        except NumericError as exc:
            cell.report.incident = f"forecast rejected: {exc}"
        except Exception as exc:  # noqa: BLE001 - fails this cell, not its group
            cell.error = exc
    stacks = []
    for members in by_horizon.values():
        stack = [cell for cell, _, _ in members]
        states = np.array([s for _, s, _ in members])
        relatives = np.array([r for _, _, r in members])
        failures = {}
        bootstraps = value_rows(_rows_of(params, stack),
                                states[:, :, -1].reshape(len(stack), cfg.particles, -1),
                                failures=failures)
        if failures:
            for i, message in failures.items():
                stack[i].report.incident = f"forecast rejected: {message}"
            keep = [i for i in range(len(stack)) if i not in failures]
            if not keep:
                continue
            stack = [stack[i] for i in keep]
            states, relatives, bootstraps = states[keep], relatives[keep], bootstraps[keep]
        stacks.append((stack, states, relatives, bootstraps))
    return stacks


class _Rollout:
    """The epoch-invariant part of a planner pass over b stacked cells, built once per step.

    It also holds the buffers each pass rewrites (the previous weights, the
    value path and the reverse pass's suffix recurrence), with the entries
    that stay fixed over the step filled in once.
    """

    def __init__(self, obs_flat, states, relatives, prev_weights, value0,
                 bootstraps, fee_rate: float, discount: float):
        b, k, horizon, n = relatives.shape
        x = np.empty((b, k, horizon, obs_flat.size))
        x[:, :, 0] = obs_flat
        x[:, :, 1:] = states[:, :, :-1].reshape(b, k, horizon - 1, obs_flat.size)
        self.x = x.reshape(b, k * horizon, obs_flat.size)
        self.rel_full = np.ones((b, k, horizon, n + 1))
        self.rel_full[..., 1:] = relatives
        self.rel_m1 = self.rel_full - 1.0
        self.rel_head = self.rel_full[:, :, :-1]
        self.prev = np.empty_like(self.rel_full)
        self.prev[:, :, 0] = np.asarray(prev_weights)[:, None]
        self.prev_tail = self.prev[:, :, 1:]
        # V_0 .. V_{H-1}: the fixed V_0, then each pass's path up to V_{H-1}
        self.values_head = np.empty((b, k, horizon))
        self.values_head[..., 0] = np.asarray(value0)[:, None]
        self.v0, self.path_head = self.values_head[..., :1], self.values_head[..., 1:]
        gammas = discount ** np.arange(horizon + 1)
        self.gammas = gammas[:-1]
        # J = -V_0 + sum_m coef_m V_m + gamma^H B
        coef = gammas[:-1] - gammas[1:]
        coef[-1] = gammas[-2]
        self.boot = gammas[-1] * bootstraps
        self.fee_rate = fee_rate
        # the reverse pass's suffix recurrence, as views into buffers each pass rewrites
        self.c = np.empty((b, k, horizon))
        self.tail = np.empty((b, k, horizon))
        self.tail[..., -1] = coef[-1]
        self.recurrence = [(self.tail[..., h], self.c[..., h + 1], self.tail[..., h + 1], coef[h])
                           for h in range(horizon - 2, -1, -1)]


def planner_objective(params: PolicyParams, obs_flat, states, relatives, prev_weights,
                      value0: float, bootstraps, fee_rate: float, discount: float,
                      risk_lambda: float, eps_num: float, action_noise=None):
    """Risk objective over K imagined rollouts and its exact gradient in the actor.

    states (K, H, N, 11) and relatives (K, H, N) come from phase 1; step 0 acts
    on the real observation and step h on states[:, h-1]. action_noise is
    (K, H, N+1) for a stochastic policy, else None.

    Returns (objective, per-particle returns (K,), downside variance, flat
    gradient aligned with `PolicyParams.flat`, critic entries 0). It is the
    one-cell call of the stacked pass.
    """
    rollout = _Rollout(np.asarray(obs_flat, dtype=np.float64), np.asarray(states)[None],
                       np.asarray(relatives)[None], np.asarray(prev_weights)[None], [value0],
                       np.asarray(bootstraps)[None], fee_rate, discount)
    noise = None if action_noise is None else np.asarray(action_noise)[None]
    with np.errstate(all="ignore"):  # a non-finite rollout is raised below
        objective, returns, downside_var, grad, failures = _planner_pass(
            PolicyParams.stack([params]), rollout, risk_lambda, eps_num, noise)
    if failures:
        raise NumericError(failures[0])
    return (float(objective[0]), returns[0], float(downside_var[0]),
            np.concatenate([grad[0], np.zeros(params.n_params() - grad.shape[1])]))


def _planner_pass(params: PolicyParams, rollout: _Rollout, risk_lambda: float,
                  eps_num: float, action_noise=None, with_grad=True, alive=None, out=None):
    """`planner_objective` for b stacked cells on a prepared rollout.

    Because the weights never move prices, each step's drifted weights,
    turnover t_h and growth factor c_h = (1 - fee * t_h)(1 + rho_h) are array
    ops over (b, K, H), and the value path is value0 * cumprod(c). The
    reverse pass is written out by hand. Returns per-cell objectives (b,),
    returns (b, K), downside variances (b,), the (b, actor_size) gradient of
    `actor_backward`, written into `out` when given (None when with_grad is
    False), and a dict from each cell in `alive` (all when None) whose
    imagined values are not finite to its message; such a cell's other
    outputs are meaningless.
    """
    r = rollout
    b, k, horizon, n1 = r.rel_full.shape
    z = None if action_noise is None else action_noise.reshape(b, k * horizon, n1)
    w_rows, acts = actor_forward(params, r.x, z)
    w = w_rows.reshape(b, k, horizon, n1)

    drifted = w[:, :, :-1] * r.rel_head
    drift_sum = drifted.sum(axis=3, keepdims=True)
    np.divide(drifted, drift_sum, out=r.prev_tail)
    turn = w - r.prev
    sign = np.sign(turn)
    fee_keep = 1.0 - r.fee_rate * np.abs(turn).sum(axis=3)
    growth = 1.0 + (w * r.rel_m1).sum(axis=3)
    c = np.multiply(fee_keep, growth, out=r.c)
    path = r.v0 * c.cumprod(axis=2)
    r.path_head[...] = path[..., :-1]
    failures = {}
    if not np.isfinite(path).all():
        for i in range(b) if alive is None else np.flatnonzero(alive):
            bad = np.argwhere(~np.isfinite(path[i]))
            if len(bad):
                failures[int(i)] = (f"non-finite imagined value (particle {bad[0][0]}, "
                                    f"step {bad[0][1]})")

    returns = (path - r.values_head) @ r.gammas + r.boot
    # sum() / k is mean() to the bit, without NumPy's Python-level wrapper
    mean = returns.sum(axis=1, keepdims=True) / k
    down = np.minimum(returns - mean, 0.0)
    downside_var = (down * down).sum(axis=1, keepdims=True) / k
    spread = np.sqrt(downside_var + eps_num)
    objective = mean - risk_lambda * spread
    if not with_grad:
        return objective[:, 0], returns, downside_var[:, 0], None, failures

    # dJ/dc_h = V_h T_h with T_{H-1} = coef_H and T_h = coef_{h+1} + c_{h+1} T_{h+1};
    # dividing a suffix sum by c_h instead would fail where a fee zeroes c_h
    for tail_h, c_next, tail_next, coef_h in r.recurrence:
        np.multiply(c_next, tail_next, out=tail_h)
        tail_h += coef_h
    tail = r.tail
    g_returns = (1.0 - risk_lambda * (down - down.sum(axis=1, keepdims=True) / k)
                 / spread) / k
    g_c = g_returns[..., None] * r.values_head * tail
    g_turnover = (-r.fee_rate * g_c * growth)[..., None] * sign
    g_w = g_turnover + (g_c * fee_keep)[..., None] * r.rel_m1
    # prev_h = u / sum(u) with u = w_{h-1} * rel_full_{h-1}; prev_0 is fixed
    g_prev = -g_turnover[:, :, 1:]
    g_u = (g_prev - (g_prev * r.prev_tail).sum(axis=3, keepdims=True)) / drift_sum
    g_w[:, :, :-1] += g_u * r.rel_head
    grad = actor_backward(params, acts, w_rows, g_w.reshape(b, k * horizon, n1), z, out=out)
    return objective[:, 0], returns, downside_var[:, 0], grad, failures


def _ascend(params: PolicyParams, grad: np.ndarray, step_size, alive) -> tuple[np.ndarray, dict]:
    """One gradient-ascent update of each live row's actor prefix, in place.

    `params` is stacked (b, P) and `grad` (b, actor_size). A row in `alive`
    is written only when its gradient norm and every updated entry are
    finite, so a failed row keeps its bytes; a norm that overflows counts as
    non-finite. Returns the gradient norms (b,) and a dict from each failed
    live row to its message. Callers pass private copies, never a caller's
    parameters, and run it under `np.errstate(all="ignore")`, as `adapt_step`
    does. The norms are plain sums, not BLAS dots, which go multithreaded on
    long vectors and leave a spinning thread behind.
    """
    actor = params.vector[:, :params.actor_size]
    new = grad * grad
    sq = new.sum(axis=1)
    np.multiply(grad, step_size, out=new)
    new += actor
    if alive.all() and np.isfinite(sq).all() and np.isfinite(new).all():
        actor[...] = new
        return np.sqrt(sq), {}
    ok_norm = np.isfinite(sq)
    write = alive & ok_norm & np.isfinite(new).all(axis=1)
    actor[write] = new[write]
    return np.sqrt(sq), {int(i): "non-finite parameters after update" if ok_norm[i]
                         else "non-finite gradient" for i in np.flatnonzero(alive & ~write)}


def _objective_value(params, rollout, cfg, action_noise, alive) -> tuple[np.ndarray, dict]:
    """Objectives after adaptation, on the last epoch's draws; telemetry only."""
    objective, _, _, _, failures = _planner_pass(params, rollout, cfg.risk_lambda, cfg.eps_num,
                                                 action_noise, with_grad=False, alive=alive)
    return objective, failures


def _draw_action_noise(params, cells, alive, shape):
    """Each live cell's (K, H, N+1) draw from its own stream; dead rows are 0."""
    if params.config.mode != "stochastic":
        return None
    noise = np.empty((len(cells), *shape, params.config.action_dim))
    for cell, row, live in zip(cells, noise, alive.tolist()):
        if live:
            cell.rng_action.standard_normal(out=row)
        else:
            row[...] = 0.0
    return noise


def _plan(params: PolicyParams, entry: np.ndarray, out: ActorGradient, cells: list, states,
          relatives, bootstraps, obs_flat, cfg: "MpcConfig", fee_rate: float) -> None:
    """E ascent epochs for one stack of cells, each writing its row of `params` in place.

    `entry` holds the rows' actor prefixes at the start of the step, and
    `out` takes each epoch's gradient. A NumericError of one cell restores
    its row from `entry`, records its incident and masks the cell out of the
    rest of the step: it draws no more noise, its row is not updated and its
    outputs are not read, and the other cells go on unchanged. The reports
    are written once the epochs are done.
    """
    alive = np.ones(len(cells), dtype=bool)

    def fail(failures: dict) -> bool:
        """Record each failed row's incident and restore it; whether any row lives on."""
        for i, message in failures.items():
            alive[i] = False
            params.vector[i, :params.actor_size] = entry[i]
            cells[i].report.incident = f"adaptation aborted: {message}"
        return alive.any()

    rollout = _Rollout(obs_flat, states, relatives, [cell.state.weights for cell in cells],
                       [cell.state.value / cfg.value_scale for cell in cells], bootstraps,
                       fee_rate, cfg.discount)
    scored, ascended = [], []  # per epoch: (pass outputs, rows scored), (norms, rows updated)
    noise, live = None, True
    for _ in range(cfg.epochs):
        noise = _draw_action_noise(params, cells, alive, relatives.shape[1:3])
        objective, returns, downside_var, grad, failures = _planner_pass(
            params, rollout, cfg.risk_lambda, cfg.eps_num, noise, alive=alive, out=out)
        if failures and not fail(failures):
            live = False
            break
        scored.append((objective, returns, downside_var, alive.copy()))
        norms, failures = _ascend(params, grad, cfg.step_size, alive)
        live = not failures or fail(failures)
        ascended.append((norms, alive.copy()))
        if not live:
            break
    after = None
    if live:
        after, failures = _objective_value(params, rollout, cfg, noise, alive)
        fail(failures)
    for i, cell in enumerate(cells):
        report = cell.report
        epochs = [epoch for epoch in scored if epoch[3][i]]
        if epochs:
            objective, _, _, _ = epochs[0]
            _, returns, downside_var, _ = epochs[-1]
            report.objective_before = float(objective[i])
            report.mean_return = float(returns[i].sum() / returns.shape[1])
            report.downside_variance = float(downside_var[i])
        report.grad_norms = [float(norms[i]) for norms, rows in ascended if rows[i]]
        if alive[i]:
            report.objective_after = float(after[i])


def _execute(params: PolicyParams, cells: list, obs_flat) -> np.ndarray:
    """Every cell's deterministic weights (b, N+1) on one observation, from one
    stacked actor pass; a cell whose actor output is not finite fails."""
    failures = {}
    logits = actor_rows(_rows_of(params, cells), obs_flat[None], failures=failures)[:, 0]
    for i, message in failures.items():
        if cells[i].error is None:
            cells[i].error = NumericError(message)
    # `env.softmax_weights` per row, to the bit
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def adapt_step(params: PolicyParams, out: ActorGradient, cells: list, obs_flat, t: int,
               cfg: "MpcConfig", fee_rate: float,
               noise_calib: NoiseCalibration | None = None) -> np.ndarray:
    """Plan step t for every cell in lockstep and return their executed weights (b, N+1).

    `params` holds the cells' working parameters as stacked rows, written in
    place, and `out` is a gradient buffer of its shape, reused every step.
    Sets each cell's `report` and, for a cell that fails outright, its
    `error`; such a cell's weights are not to be executed. Phase 1 gives one
    stack per effective horizon; each stack then runs the E ascent epochs
    together. A NumericError in either phase becomes that cell's incident:
    its entry row is written back and its un-adapted action executes. With
    reset_each_step every entry row is written back after execution too.
    """
    entry = params.vector[:, :params.actor_size].copy()
    for cell in cells:
        cell.report = StepReport(t=t)
    # every non-finite outcome is checked and becomes an incident
    with np.errstate(all="ignore"):
        for stack, states, relatives, bootstraps in _phase1(params, cells, t, cfg, noise_calib):
            rows = [cell.row for cell in stack]
            stacked = _rows_of(params, stack)
            if stacked is params:
                _plan(params, entry, out, stack, states, relatives, bootstraps, obs_flat,
                      cfg, fee_rate)
            else:
                _plan(stacked, entry[rows], ActorGradient(stacked), stack, states, relatives,
                      bootstraps, obs_flat, cfg, fee_rate)
                params.vector[rows] = stacked.vector
    weights = _execute(params, cells, obs_flat)
    if cfg.reset_mode == "reset_each_step":
        params.vector[:, :params.actor_size] = entry
    return weights


@dataclass
class PilotResult:
    start_t: int
    values: np.ndarray
    rewards: np.ndarray
    weights: np.ndarray
    reports: list


def run_pilots(series: MarketSeries, policies: list, forecasters: list, cfg: MpcConfig,
               seeds: list, env_config: EnvConfig | None = None, split: str = "test",
               noise_calib: NoiseCalibration | None = None,
               view: FeatureView | None = None, report_paths: list | None = None) -> list:
    """Full-split runs of B cells in lockstep; each is deterministic given its seed.

    Cell b adapts a working copy of `policies[b]` against `forecasters[b]`
    with the noise streams of `seeds[b]` and streams its step reports to
    `report_paths[b]` when given. Returns one `PilotResult` per cell, or the
    exception that ended that cell's run; a cell's outputs have the bytes of
    its own one-cell run. The policies must share one architecture.

    epochs=0 or step_size=0 skips planning entirely and reproduces the plain
    deterministic baseline episode. The caller's parameters are never mutated;
    adaptation acts on working copies (persisting across steps unless
    reset_each_step is configured). Each distinct forecaster object is asked
    once per planned date, before the first step, and cells that share it
    share its read-only trajectories; an exception other than NumericError
    there fails its cells before any of their steps is taken or reported.
    """
    report_paths = report_paths or [None] * len(seeds)
    if not len(policies) == len(forecasters) == len(seeds) == len(report_paths) >= 1:
        raise ConfigError("run_pilots needs one policy, forecaster, seed and report path "
                          f"per cell, got {len(policies)}, {len(forecasters)}, {len(seeds)} "
                          f"and {len(report_paths)}")
    if env_config is None:
        env_config = EnvConfig(n_assets=series.n_assets)
    if cfg.noise_sigma > 0 and noise_calib is None:
        raise ConfigError("noise_sigma > 0 requires a fitted NoiseCalibration")
    view = view or FeatureView(series)
    normalizer = view.normalizer(split)
    work = PolicyParams.stack(policies)
    start, stop = series.usable_range(split)
    last = stop - 1
    planning = cfg.epochs > 0 and cfg.step_size > 0

    cells = []
    for row, seed in enumerate(seeds):
        seq = np.random.SeedSequence([seed, 0x5EED])
        rng_action, rng_noise = (np.random.default_rng(s) for s in seq.spawn(2))
        state = PortfolioState(env_config.initial_value, all_cash_weights(series.n_assets), start)
        cells.append(_Cell(row, state, rng_action, rng_noise, values=[state.value]))

    if planning:
        # phase 1 for the whole split, once per forecaster, taking one turn like a step does
        with _STEP_TURN:
            built = {}
            for cell, forecaster in zip(cells, forecasters):
                if id(forecaster) not in built:
                    try:
                        horizons = {t: h for t in range(start, last)
                                    if (h := min(cfg.horizon,
                                                 forecaster.available_horizon(series, t))) >= 1}
                        built[id(forecaster)] = build_trajectories(forecaster, series, horizons,
                                                                   normalizer)
                    except Exception as exc:  # noqa: BLE001 - fails this forecaster's cells
                        built[id(forecaster)] = exc
                outcome = built[id(forecaster)]
                if isinstance(outcome, Exception):
                    cell.error = outcome
                else:
                    cell.trajectories = outcome

    out = ActorGradient(work) if planning else None
    try:
        for cell, path in zip(cells, report_paths):
            if path and cell.error is None:
                cell.stream = open(path, "w", encoding="utf-8")
        for t in range(start, last):
            live = [cell for cell in cells if cell.error is None]
            if not live:
                break
            with _STEP_TURN:
                obs = view.state(t).flat()
                if planning:
                    weights = adapt_step(work, out, live, obs, t, cfg, env_config.fee_rate,
                                         noise_calib=noise_calib)
                else:
                    for cell in live:
                        cell.report = StepReport(t=t)
                    weights = _execute(work, live, obs)
                relatives = series.relatives(t)
                for cell, w in zip(live, weights):
                    if cell.error is None:
                        _record(cell, w, relatives, env_config.fee_rate)
    finally:
        for cell in cells:
            if cell.stream is not None:
                cell.stream.close()
    return [cell.error if cell.error is not None else
            PilotResult(start_t=start, values=np.asarray(cell.values),
                        rewards=np.asarray(cell.rewards), weights=np.asarray(cell.targets),
                        reports=cell.reports)
            for cell in cells]


def _record(cell: _Cell, weights: np.ndarray, relatives: np.ndarray, fee_rate: float) -> None:
    """Take the cell's environment step and record it; an exception fails the cell."""
    report = cell.report
    try:
        cell.state, reward = step(cell.state, weights, relatives, fee_rate)
        report.executed_weights = weights
        report.realized_reward = reward
        cell.values.append(cell.state.value)
        cell.rewards.append(reward)
        cell.targets.append(weights)
        cell.reports.append(report)
        if cell.stream is not None:
            cell.stream.write(_REPORT_JSON.encode(report.to_dict()) + "\n")
    except Exception as exc:  # noqa: BLE001 - fails this cell, not its group
        cell.error = exc


def run_pilot(series: MarketSeries, params: PolicyParams, forecaster,
              cfg: MpcConfig, env_config: EnvConfig | None = None,
              split: str = "test", seed: int = 0,
              noise_calib: NoiseCalibration | None = None,
              view: FeatureView | None = None,
              report_path=None) -> PilotResult:
    """One cell of `run_pilots`: its result; the exception that ended its run is raised."""
    (outcome,) = run_pilots(series, [params], [forecaster], cfg, [seed], env_config=env_config,
                            split=split, noise_calib=noise_calib, view=view,
                            report_paths=[report_path])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
