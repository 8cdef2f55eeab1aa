"""Actor-critic policy over flattened observation features.

The actor maps the N x 11 observation to N+1 allocation logits; a softmax
projects them onto the simplex. The critic produces a scalar state value on
its own trunk by default (a shared trunk is available behind a flag). The
stochastic head adds a state-independent learnable log-std; pretraining
samples logits from it by reparameterization, while acting is deterministic.

Parameters live in one contiguous float64 vector, which is also the
checkpoint format; each named array is a C-contiguous view into it, and the
actor's arrays come first, so the actor is one prefix slice. B policies of one
architecture can also be held as the rows of one (B, P) vector
(`PolicyParams.stack`); then every named array has a leading B axis, and the
inference and planner passes run all B policies in one call per layer, each
row with the bits of its own lone pass. Every gradient is written out by
hand, through one network pass and its reverse (`mlp_forward`,
`mlp_backward`) over rows of observations: the planner runs them over its
batched rollout, through the softmax and log-std head of `actor_forward` and
`actor_backward`, and the two pretrainers and their critic bootstrap run them
over one row, through their single-sample loss heads.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .env import (EnvConfig, PortfolioState, all_cash_weights, require_deterministic,
                  run_episode, softmax_weights, step)
from .errors import ConfigError, NumericError, ShapeError, TrainingError
from .marketdata import FeatureView, MarketSeries, StateFeatures

CHECKPOINT_FORMAT = "mpcfolio-policy"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class PolicyConfig:
    n_assets: int
    hidden: tuple = (128, 128)
    mode: str = "deterministic"  # or "stochastic"
    shared_trunk: bool = False
    init_seed: int = 0
    feature_dim: int = 11

    def __post_init__(self):
        if self.mode not in ("deterministic", "stochastic"):
            raise ConfigError(f"unknown policy mode {self.mode!r}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden sizes must be >= 1, got {self.hidden}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))

    @property
    def input_dim(self) -> int:
        return self.n_assets * self.feature_dim

    @property
    def action_dim(self) -> int:
        return self.n_assets + 1

    def to_dict(self) -> dict:
        return {
            "n_assets": self.n_assets,
            "hidden": list(self.hidden),
            "mode": self.mode,
            "shared_trunk": self.shared_trunk,
            "init_seed": self.init_seed,
            "feature_dim": self.feature_dim,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PolicyConfig":
        d = dict(d)
        d["hidden"] = tuple(d["hidden"])
        return cls(**d)


def _orthogonal(rng, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def _layout(config: PolicyConfig) -> tuple:
    """(name, start, stop, shape) of each array in the flat vector; the checkpoint order.

    Actor trunk, head and log-std come first, then the critic.
    """
    dims = [config.input_dim, *config.hidden]
    head = (config.action_dim, dims[-1])

    def trunk(prefix):
        arrays = []
        for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
            arrays += [(f"{prefix}.w{i}", (dout, din)), (f"{prefix}.b{i}", (dout,))]
        return arrays

    shapes = trunk("actor") + [("actor.head_w", head), ("actor.head_b", head[:1])]
    if config.mode == "stochastic":
        shapes.append(("actor.log_std", head[:1]))
    if not config.shared_trunk:
        shapes += trunk("critic")
    shapes += [("critic.head_w", (1, dims[-1])), ("critic.head_b", (1,))]
    layout, start = [], 0
    for name, shape in shapes:
        stop = start + math.prod(shape)
        layout.append((name, start, stop, shape))
        start = stop
    return tuple(layout)


def _views(flat: np.ndarray, layout) -> dict:
    """A view into `flat` (..., size) per (name, start, stop, shape) of `layout`."""
    lead = flat.shape[:-1]
    return {name: flat[..., start:stop].reshape(*lead, *shape)
            for name, start, stop, shape in layout}


class PolicyParams:
    """Named float64 arrays that are views into one contiguous vector.

    `values[name]` is a C-contiguous view into `vector`, laid out by the
    config alone, and the actor is the prefix `vector[..., :actor_size]`.
    A (B, P) vector stacks B policies of the config's architecture as rows;
    each `values[name]` then has a leading B axis and C-contiguous rows.
    `flat`, `set_flat` and `copy` copy the vector, so no two instances share
    memory. Only the copy being adapted or pretrained is written in place.
    """

    TRUNK_GAIN = 1.0
    HEAD_GAIN = 0.01
    LOG_STD_INIT = -1.0

    def __init__(self, config: PolicyConfig, vector: np.ndarray | None = None):
        self.config = config
        self._layout = _layout(config)
        self.actor_size = max(stop for name, _, stop, _ in self._layout
                              if name.startswith("actor."))
        self.set_flat(np.zeros(self._layout[-1][2]) if vector is None else vector)
        if vector is None:
            self._init_values()
        self._check_finite()

    def _init_values(self) -> None:
        # weights are drawn in layout order, actor before critic
        rng = np.random.default_rng(self.config.init_seed)
        for name, arr in self.values.items():
            kind = name.split(".")[1]
            if kind == "log_std":
                arr[...] = self.LOG_STD_INIT
            elif kind.startswith("w") or kind == "head_w":
                gain = self.HEAD_GAIN if kind == "head_w" else self.TRUNK_GAIN
                arr[...] = _orthogonal(rng, *arr.shape, gain)

    def _check_finite(self):
        for name, arr in self.values.items():
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"non-finite parameter {name}")

    @property
    def names(self) -> list:
        return list(self.values)

    def flat(self) -> np.ndarray:
        return self.vector.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.array(flat, dtype=np.float64)
        size = self._layout[-1][2]
        if flat.ndim not in (1, 2) or flat.shape[-1] != size:
            raise ShapeError(f"flat vector has shape {flat.shape}, expected ({size},) "
                             f"or (B, {size})")
        self.vector = flat
        self.values = _views(flat, self._layout)

    @classmethod
    def stack(cls, policies) -> "PolicyParams":
        """Copies of B policies as the rows of one (B, P) vector.

        The policies must share one architecture; they may differ in
        `init_seed`, and the stack keeps the first one's config.
        """
        first = policies[0]
        if any(p._layout != first._layout for p in policies):
            raise ConfigError("stacked policies must share one architecture")
        return cls(first.config, np.stack([p.vector for p in policies]))

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.config, self.vector)

    def n_params(self) -> int:
        return self.vector.shape[-1]


# -- forward passes ----------------------------------------------------------


def _flatten_obs(obs) -> np.ndarray:
    if isinstance(obs, StateFeatures):
        return obs.flat()
    return np.asarray(obs, dtype=np.float64).ravel()


def _rows(params: PolicyParams, trunk: str, head: str, x: np.ndarray, failures) -> np.ndarray:
    """One trunk and head over every row of x (..., rows, in): (..., rows, out).

    Each layer is a stack of matrix-vector products, `np.matmul(W, row)`, so
    every row takes the same BLAS matrix-vector path as a lone `W @ row` and
    gets the same bits for any row count and any number of stacked policies;
    a GEMM `x @ W.T` does not. Stacked parameters (B, P) broadcast against
    x's leading axes. A non-finite output raises NumericError naming the
    first layer it appeared in; when a `failures` dict is given, each
    policy's first such message is recorded in it, keyed by its row in the
    stack (0 when unstacked), and nothing is raised.
    """
    v, found = params.values, {}
    h = x[..., None]
    for i in range(len(params.config.hidden)):
        h = np.tanh(np.matmul(v[f"{trunk}.w{i}"][..., None, :, :], h)
                    + v[f"{trunk}.b{i}"][..., None, :, None])
        if not np.isfinite(h).all():
            _note_rows(found, params, h, f"non-finite activations in {trunk} layer {i}")
    out = np.matmul(v[f"{head}_w"][..., None, :, :], h)[..., 0] + v[f"{head}_b"][..., None, :]
    if not np.isfinite(out).all():
        _note_rows(found, params, out, f"non-finite {head.split('.')[0]} head output")
    if found:
        if failures is None:
            raise NumericError(next(iter(found.values())))
        failures.update(found)
    return out


def _note_rows(found: dict, params: PolicyParams, a: np.ndarray, message: str) -> None:
    """Record `message` for each policy of `params` with a non-finite entry in `a`,
    unless an earlier layer already failed it."""
    n_policies = params.vector.size // params.vector.shape[-1]
    bad = ~np.isfinite(a).reshape(n_policies, -1).all(axis=1)
    for i in np.flatnonzero(bad):
        found.setdefault(int(i), message)


def actor_rows(params: PolicyParams, x: np.ndarray, failures: dict | None = None) -> np.ndarray:
    """The actor's logits for each row of x (..., rows, in), in one stacked pass.

    With (B, P) stacked parameters and x of one row (1, in), the logits are
    (B, 1, N+1): every policy's action on one observation, each with the bits
    of its own `actor_logits`. See `_rows` for `failures`.
    """
    return _rows(params, "actor", "actor.head", x, failures)


def actor_logits(params: PolicyParams, obs) -> np.ndarray:
    return actor_rows(params, _flatten_obs(obs)[None])[0]


def value_rows(params: PolicyParams, x: np.ndarray, failures: dict | None = None) -> np.ndarray:
    """The critic's value of each row of x (..., rows, in), in one stacked pass.

    See `_rows` for the stacking, its bits and `failures`.
    """
    trunk = "actor" if params.config.shared_trunk else "critic"
    return _rows(params, trunk, "critic.head", x, failures)[..., 0]


@dataclass
class ActOutput:
    logits: np.ndarray
    weights: np.ndarray


def act(params: PolicyParams, obs, mode: str = "deterministic") -> ActOutput:
    """Allocation for one observation: the softmax of the mean logits."""
    require_deterministic(mode)
    logits = actor_logits(params, obs)
    return ActOutput(logits=logits, weights=softmax_weights(logits))


class Agent:
    """Thin adapter giving `env.run_episode` a stateless act() surface."""

    def __init__(self, params: PolicyParams):
        self.params = params

    def act(self, obs, mode: str = "deterministic") -> ActOutput:
        return act(self.params, obs, mode=mode)


# -- the network pass and its hand-written reverse -------------------------------
#
# Tests pin the pretrained vectors and the planner's outputs byte for byte, so
# the reverse fixes which floating-point operations run and in what order:
# weight gradients are outer products summed over rows, input gradients
# g @ W, and a parameter reached by several paths sums their terms in one
# fixed order.


def mlp_forward(params: PolicyParams, trunk: str, head: str, x: np.ndarray) -> list:
    """[x, hidden activations..., head output] for the rows of x (..., rows, in).

    `trunk` is the prefix of the hidden layers and `head` that of the output
    layer ("actor.head" or "critic.head"). `x` is (rows, in), or (B, rows, in)
    for (B, P) stacked parameters, whose matmuls are then stacked GEMMs with
    the bits of one GEMM per policy; one row gets the bits of `W @ x`.
    Nothing is checked for finiteness; the caller checks what it computes.
    """
    v = params.values
    acts = [x]
    for i in range(len(params.config.hidden)):
        acts.append(np.tanh(np.matmul(acts[-1], v[f"{trunk}.w{i}"].swapaxes(-1, -2))
                            + v[f"{trunk}.b{i}"][..., None, :]))
    acts.append(np.matmul(acts[-1], v[f"{head}_w"].swapaxes(-1, -2))
                + v[f"{head}_b"][..., None, :])
    return acts


def mlp_backward(params: PolicyParams, grads: dict, trunk: str, head: str, acts: list,
                 g: np.ndarray, add_to_trunk: bool = False) -> None:
    """Reverse of `mlp_forward` for the head-output gradient g (..., rows, out).

    Writes into `grads`, a dict of arrays laid out like `params.values`. The
    head's arrays are overwritten. The trunk's are too, unless `add_to_trunk`:
    then this path's terms are added to those already there, as for the
    actor's pass through a trunk shared with the critic.
    """
    v = params.values
    # a weight gradient sums one outer product per row; for one row,
    # np.multiply gives the k=1 GEMM's bits at a fraction of its per-call cost
    one_row = g.shape[-2] == 1
    outer = np.multiply if one_row else np.matmul
    w, b, add = f"{head}_w", f"{head}_b", False
    for i in range(len(acts) - 2, -1, -1):  # acts[i] is the layer's input
        if add:
            grads[w] += outer(g.swapaxes(-1, -2), acts[i])
            grads[b] += g[..., 0, :] if one_row else g.sum(axis=-2)
        else:
            outer(g.swapaxes(-1, -2), acts[i], out=grads[w])
            if one_row:
                grads[b][...] = g[..., 0, :]
            else:
                g.sum(axis=-2, out=grads[b])
        if i:
            g = np.matmul(g, v[w]) * (1.0 - acts[i] * acts[i])
            w, b, add = f"{trunk}.w{i - 1}", f"{trunk}.b{i - 1}", add_to_trunk


def actor_forward(params: PolicyParams, x: np.ndarray, z: np.ndarray | None = None):
    """Allocations for a batch of flat observations, one per row of `x`.

    `x` is (rows, in), or (B, rows, in) for (B, P) stacked parameters. Pass
    `z` draws, one row per observation, to sample logits by
    reparameterization. Returns the (..., rows, N+1) softmax weights and the
    `mlp_forward` activations that `actor_backward` reuses.
    """
    acts = mlp_forward(params, "actor", "actor.head", x)
    logits = acts[-1]
    if z is not None:
        logits = logits + np.exp(params.values["actor.log_std"])[..., None, :] * z
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True), acts


class ActorGradient:
    """A flat actor gradient per policy of `params`, (..., actor_size), with a
    view per actor array laid out like `PolicyParams.values`, so that one
    buffer can take every pass's `actor_backward` output."""

    def __init__(self, params: PolicyParams):
        self.flat = np.empty((*params.vector.shape[:-1], params.actor_size))
        self.values = _views(self.flat, [entry for entry in params._layout
                                         if entry[2] <= params.actor_size])


def actor_backward(params: PolicyParams, acts: list, weights: np.ndarray,
                   g_weights: np.ndarray, z: np.ndarray | None = None,
                   out: ActorGradient | None = None) -> np.ndarray:
    """Gradient of sum(g_weights * weights) through `actor_forward`.

    One flat vector aligned with the actor prefix `vector[..., :actor_size]`
    per policy, written into `out` (a fresh buffer when None) and returned;
    the log-std entries are 0 when no `z` draws were used.
    """
    if out is None:
        out = ActorGradient(params)
    grads = out.values
    g = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
    if params.config.mode == "stochastic":
        if z is None:
            grads["actor.log_std"][...] = 0.0
        else:
            np.multiply(np.exp(params.values["actor.log_std"]), (g * z).sum(axis=-2),
                        out=grads["actor.log_std"])
    mlp_backward(params, grads, "actor", "actor.head", acts, g)
    return out.flat


# -- checkpointing -------------------------------------------------------------


def save_checkpoint(params: PolicyParams, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "dtype": "<f8",
        "data_b64": base64.b64encode(
            params.flat().astype("<f8").tobytes()
        ).decode("ascii"),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path) -> PolicyParams:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ShapeError(f"not a policy checkpoint: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ShapeError(f"unsupported checkpoint version {payload.get('version')}")
    config = PolicyConfig.from_dict(payload["config"])
    flat = np.frombuffer(base64.b64decode(payload["data_b64"]), dtype="<f8")
    return PolicyParams(config, flat)


# -- pretraining ---------------------------------------------------------------


class _Adam:
    """Adam over the whole flat vector, updated in place.

    Each update repeats the operations of the textbook form, in its order,
    through two preallocated work rows instead of fresh arrays.
    """

    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._work = np.empty((2, size))

    def update(self, params: PolicyParams, g: np.ndarray) -> None:
        self.t += 1
        a, b = self._work
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        np.multiply(g, 1 - self.beta1, out=a)
        self.m *= self.beta1
        self.m += a
        np.multiply(g, 1 - self.beta2, out=a)
        a *= g
        self.v *= self.beta2
        self.v += a
        # vector -= (lr * mhat) / (sqrt(vhat) + eps)
        np.divide(self.v, 1 - self.beta2 ** self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        np.divide(self.m, 1 - self.beta1 ** self.t, out=a)
        a *= self.lr
        a /= b
        params.vector -= a


class _AdvantageNorm:
    """Running standardization of the one-step advantage.

    Early in training the critic baseline lags the bootstrapped targets, so
    raw advantages share one sign and reinforce every sampled action alike;
    centering by running statistics restores a relative signal.
    """

    def __init__(self, beta=0.99):
        self.beta = beta
        self.mean = 0.0
        self.sq = 1e-8

    def update(self, adv: float) -> float:
        self.mean = self.beta * self.mean + (1 - self.beta) * adv
        self.sq = self.beta * self.sq + (1 - self.beta) * adv * adv
        std = max(np.sqrt(max(self.sq - self.mean ** 2, 0.0)), 1e-8)
        return (adv - self.mean) / std


def mean_train_reward(series, params, env_config, view=None) -> float:
    """Deterministic mean step reward on the train split."""
    result = run_episode(series, Agent(params), mode="deterministic",
                         split="train", env_config=env_config, view=view)
    return float(result.rewards.mean())


def pretrain(series: MarketSeries, env_config: EnvConfig,
             algo: str = "stochastic-ac", epochs: int = 10, seed: int = 0,
             config: PolicyConfig | None = None, lr: float = 3e-3,
             gamma: float = 0.99, value_coef: float = 0.5,
             entropy_coef: float = 1e-3, view: FeatureView | None = None) -> PolicyParams:
    """Desk-scale model-free actor-critic pretraining on the train split.

    Stochastic variant samples actions and follows the score-function gradient
    with a one-step advantage; deterministic variant ascends the differentiable
    one-step portfolio reward directly. Both fit the critic by one-step TD.
    Returns the epoch snapshot with the best deterministic mean train reward,
    never worse than the initial parameters. Validation and test data are
    never touched.
    """
    if algo not in ("stochastic-ac", "deterministic-ac"):
        raise ConfigError(f"unknown pretraining algo {algo!r}")
    mode = "stochastic" if algo == "stochastic-ac" else "deterministic"
    if config is None:
        config = PolicyConfig(n_assets=series.n_assets, mode=mode, init_seed=seed)
    else:
        if config.mode != mode:
            raise ConfigError(f"algo {algo!r} needs a {mode!r} policy, got {config.mode!r}")
        config = dataclasses.replace(config, init_seed=seed)
    if config.n_assets != series.n_assets:
        raise ConfigError("policy n_assets does not match series")

    start, stop = series.usable_range("train")
    n_steps = stop - 1 - start
    if n_steps < 100:
        raise ConfigError(f"train split has {n_steps} usable steps, need >= 100")

    view = view or FeatureView(series)
    params = PolicyParams(config)
    if epochs == 0:
        return params

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xAC]))
    opt = _Adam(params.n_params(), lr=lr)
    grads = PolicyParams(config, np.zeros(params.n_params()))  # laid out like params
    scale = env_config.initial_value
    fee = env_config.fee_rate
    adv_norm = _AdvantageNorm()
    critic_trunk = "actor" if config.shared_trunk else "critic"

    best_score = mean_train_reward(series, params, env_config, view=view)
    best_flat = params.flat()

    for _ in range(epochs):
        state = PortfolioState(env_config.initial_value, all_cash_weights(series.n_assets), start)
        for t in range(start, stop - 1):
            rel = series.relatives(t)
            acts = mlp_forward(params, "actor", "actor.head", view.state(t).flat()[None])
            mean = acts[-1][0]
            # a non-finite bootstrap makes the loss non-finite, checked below
            v_next = (float(mlp_forward(params, critic_trunk, "critic.head",
                                        view.state(t + 1).flat()[None])[-1][0, 0])
                      if t + 1 < stop - 1 else 0.0)
            if algo == "stochastic-ac":
                z = rng.standard_normal(config.action_dim)
                sampled = mean + np.exp(params.values["actor.log_std"]) * z
                next_state, reward = step(state, softmax_weights(sampled), rel, fee)
                # transitions are action-independent, so the mean action's reward from
                # the same portfolio state is an exact counterfactual baseline
                _, reward_mean = step(state, softmax_weights(mean), rel, fee)
                adv = adv_norm.update((reward - reward_mean) / scale)
                loss = _stochastic_loss(params, grads, acts, sampled, adv,
                                        reward / scale + gamma * v_next,
                                        value_coef, entropy_coef)
            else:
                next_state, reward = step(state, softmax_weights(mean), rel, fee)
                loss = _deterministic_loss(params, grads, acts, state, rel, scale, fee,
                                           reward / scale + gamma * v_next, value_coef)
            opt.update(params, grads.vector)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at train step t={t}")
            state = next_state
        score = mean_train_reward(series, params, env_config, view=view)
        if score > best_score:
            best_score = score
            best_flat = params.flat()

    params.set_flat(best_flat)
    return params


def _critic_loss(params: PolicyParams, grads: PolicyParams, x: np.ndarray,
                 target: float, value_coef: float) -> float:
    """value_coef * (V(x) - target)^2 for one row x (1, in); writes the critic's
    gradient (and a shared trunk's)."""
    trunk = "actor" if params.config.shared_trunk else "critic"
    acts = mlp_forward(params, trunk, "critic.head", x)
    err = np.sum(acts[-1]) - target
    mlp_backward(params, grads.values, trunk, "critic.head", acts,
                 np.full((1, 1), value_coef * 2 * err))
    return err ** 2 * value_coef


def _stochastic_loss(params: PolicyParams, grads: PolicyParams, acts: list,
                     sampled: np.ndarray, adv: float, target: float,
                     value_coef: float, entropy_coef: float) -> float:
    """Score-function loss of one sampled action, plus the critic and entropy terms.

    `acts` is the actor's `mlp_forward` pass over the observation as one row
    and `sampled` the logits drawn from it. Returns the loss and writes its
    gradient into `grads`.
    """
    log_std = params.values["actor.log_std"]
    std = np.exp(log_std)
    shift = sampled - acts[-1][0]
    diff = shift / std
    log_prob = np.sum(diff * diff) * -0.5 - np.sum(log_std)
    critic = _critic_loss(params, grads, acts[0], target, value_coef)

    # d loss / d log_prob is -adv; d/d diff of sum(diff * diff) is diff + diff
    g_sq = -adv * -0.5 * diff
    g_diff = g_sq + g_sq
    g_std = -g_diff * shift / (std * std)
    # log-std terms in fixed order: through std, then log_prob's -sum(log_std)
    # (which gives +adv), then the entropy bonus
    grads.values["actor.log_std"][...] = g_std * std + adv + -entropy_coef
    mlp_backward(params, grads.values, "actor", "actor.head", acts, -(g_diff / std)[None],
                 add_to_trunk=params.config.shared_trunk)
    return log_prob * -adv + critic + np.sum(log_std) * -entropy_coef


def _deterministic_loss(params: PolicyParams, grads: PolicyParams, acts: list,
                        state: PortfolioState, rel: np.ndarray, scale: float, fee: float,
                        target: float, value_coef: float) -> float:
    """Negative one-step reward of the mean allocation from `state`, plus the critic term.

    The reward is the env step's in units of `scale`, differentiable in the
    allocation. Returns the loss and writes its gradient into `grads`.
    """
    logits = acts[-1][0]
    e = np.exp(logits - logits.max())
    w = e / e.sum()
    relm1_full = np.concatenate(([0.0], rel - 1.0))
    v_norm = state.value / scale
    fee_value = fee * v_norm
    turn = w - state.weights
    kept = v_norm - np.sum(np.abs(turn)) * fee_value
    grown = float(np.dot(w, relm1_full)) + 1.0
    reward = kept * grown - v_norm
    critic = _critic_loss(params, grads, acts[0], target, value_coef)

    # loss = -reward: d/d kept is -grown, d/d grown is -kept
    g_w = (grown * fee_value) * np.sign(turn) + -kept * relm1_full
    g_logits = w * (g_w - np.dot(g_w, w))
    mlp_backward(params, grads.values, "actor", "actor.head", acts, g_logits[None],
                 add_to_trunk=params.config.shared_trunk)
    return critic - reward
