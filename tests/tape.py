"""Minimal reverse-mode differentiation over numpy float64 values, for tests.

The package computes every gradient in closed form; this scalar tape is an
independent reference for those hand-written passes. `planner_objective_tape`
rebuilds the planner objective of `mpcfolio.pilot` on it, step by step.

The operation set is fixed to what the planning objective needs: affine maps,
tanh, fused softmax, exp/log/sqrt/pow, elementwise arithmetic with limited
broadcasting, absolute value (subgradient 0 at 0), clip-above-zero, sums and
dot products. Graphs are built per objective and differentiated once; a second
`backward` on the same root raises. Only `Node` operands receive gradients;
raw floats and arrays are treated as detached constants.
"""

from __future__ import annotations

import numpy as np


class TapeLifecycleError(RuntimeError):
    """A recorded objective was differentiated more than once."""


def _unbroadcast(g, shape):
    if np.shape(g) == shape:
        return g
    if shape == ():
        return np.sum(g)
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


class Node:
    __slots__ = ("value", "grad", "_parents", "_vjp", "_consumed")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.grad = None
        self._parents = parents
        self._vjp = vjp
        self._consumed = False

    # -- graph execution ----------------------------------------------------

    def backward(self):
        """Accumulate gradients of this scalar into every ancestor's `.grad`."""
        if self._consumed:
            raise TapeLifecycleError("objective already differentiated; rebuild the graph")
        self._consumed = True
        order = _toposort(self)
        self.grad = 1.0 if np.shape(self.value) == () else np.ones_like(self.value)
        for node in order:
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return powc(self, p)


def _toposort(root):
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def value_of(x):
    return x.value if isinstance(x, Node) else x


def leaf(value) -> Node:
    """A differentiable input; read its `.grad` after backward."""
    return Node(np.asarray(value, dtype=np.float64))


def _binary(a, b, fwd, da, db):
    av, bv = value_of(a), value_of(b)
    out = fwd(av, bv)
    parents, sides = [], []
    if isinstance(a, Node):
        parents.append(a)
        sides.append((da, np.shape(av)))
    if isinstance(b, Node):
        parents.append(b)
        sides.append((db, np.shape(bv)))
    if not parents:
        return Node(out)

    def vjp(g):
        return [_unbroadcast(d(g, av, bv, out), shape) for d, shape in sides]

    return Node(out, tuple(parents), vjp)


def add(a, b):
    return _binary(a, b, lambda x, y: x + y,
                   lambda g, x, y, o: g, lambda g, x, y, o: g)


def sub(a, b):
    return _binary(a, b, lambda x, y: x - y,
                   lambda g, x, y, o: g, lambda g, x, y, o: -g)


def mul(a, b):
    return _binary(a, b, lambda x, y: x * y,
                   lambda g, x, y, o: g * y, lambda g, x, y, o: g * x)


def div(a, b):
    return _binary(a, b, lambda x, y: x / y,
                   lambda g, x, y, o: g / y, lambda g, x, y, o: -g * x / (y * y))


def _unary(a, fwd, da):
    av = value_of(a)
    out = fwd(av)
    if not isinstance(a, Node):
        return Node(out)
    return Node(out, (a,), lambda g: [da(g, av, out)])


def powc(a, p):
    return _unary(a, lambda x: x ** p, lambda g, x, o: g * p * x ** (p - 1))


def tanh(a):
    return _unary(a, np.tanh, lambda g, x, o: g * (1.0 - o * o))


def exp(a):
    return _unary(a, np.exp, lambda g, x, o: g * o)


def log(a):
    return _unary(a, np.log, lambda g, x, o: g / x)


def sqrt(a):
    return _unary(a, np.sqrt, lambda g, x, o: g * 0.5 / o)


def absolute(a):
    """|x| with subgradient 0 at x == 0."""
    return _unary(a, np.abs, lambda g, x, o: g * np.sign(x))


def clip_above_zero(a):
    """min(x, 0); gradient passes only where x < 0."""
    return _unary(a, lambda x: np.minimum(x, 0.0), lambda g, x, o: g * (x < 0.0))


def vsum(a):
    return _unary(a, np.sum, lambda g, x, o: np.full(np.shape(x), g))


def dot(a, b):
    return _binary(a, b, lambda x, y: float(np.dot(x, y)),
                   lambda g, x, y, o: g * y, lambda g, x, y, o: g * x)


def add_n(items):
    """Sum of scalars in fixed order; deterministic particle reduction."""
    total = 0.0
    parents = []
    for item in items:
        total = total + value_of(item)
        if isinstance(item, Node):
            parents.append(item)
    if not parents:
        return Node(total)
    return Node(total, tuple(parents), lambda g: [g] * len(parents))


def affine(w, b, x):
    """w @ x + b for a weight matrix, bias vector, and input vector."""
    wv, bv, xv = value_of(w), value_of(b), value_of(x)
    out = wv @ xv + bv
    parents, kinds = [], []
    for arg, kind in ((w, "w"), (b, "b"), (x, "x")):
        if isinstance(arg, Node):
            parents.append(arg)
            kinds.append(kind)
    if not parents:
        return Node(out)

    def vjp(g):
        gs = []
        for kind in kinds:
            if kind == "w":
                gs.append(np.outer(g, xv))
            elif kind == "b":
                gs.append(g)
            else:
                gs.append(wv.T @ g)
        return gs

    return Node(out, tuple(parents), vjp)


def softmax(a):
    """Fused stable softmax over a vector."""
    av = value_of(a)
    e = np.exp(av - av.max())
    s = e / e.sum()
    if not isinstance(a, Node):
        return Node(s)
    return Node(s, (a,), lambda g: [s * (g - np.dot(g, s))])


# -- the planner objective on the tape -----------------------------------------


def _actor_weights(leaves, n_hidden, x, z):
    h = x
    for i in range(n_hidden):
        h = tanh(affine(leaves[f"actor.w{i}"], leaves[f"actor.b{i}"], h))
    logits = affine(leaves["actor.head_w"], leaves["actor.head_b"], h)
    if z is not None:
        logits = add(logits, mul(exp(leaves["actor.log_std"]), z))
    return softmax(logits)


def _particle_return(leaves, n_hidden, obs, states, relatives, prev, value0, bootstrap,
                     fee_rate, discount, zs):
    """Discounted imagined return of one particle; the bootstrap is a constant."""
    v = value0
    terms = []
    gamma_pow = 1.0
    for h in range(relatives.shape[0]):
        x = obs if h == 0 else states[h - 1].ravel()
        w = _actor_weights(leaves, n_hidden, x, None if zs is None else zs[h])
        rel = relatives[h]
        turnover = vsum(absolute(sub(w, prev)))
        delta = mul(mul(turnover, v), fee_rate)
        rho = dot(w, np.concatenate(([0.0], rel - 1.0)))
        v_new = mul(sub(v, delta), add(rho, 1.0))
        terms.append(mul(sub(v_new, v), gamma_pow))
        drifted = mul(w, np.concatenate(([1.0], rel)))
        prev = div(drifted, vsum(drifted))
        v = v_new
        gamma_pow *= discount
    return add(add_n(terms), gamma_pow * bootstrap)


def _risk_objective(returns, risk_lambda, eps_num):
    """Particle mean minus lambda times the downside semi-deviation."""
    k = float(len(returns))
    mean = div(add_n(returns), k)
    if risk_lambda == 0.0:
        return mean
    downs = [powc(clip_above_zero(sub(j, mean)), 2) for j in returns]
    penalty = mul(sqrt(add(div(add_n(downs), k), eps_num)), risk_lambda)
    return sub(mean, penalty)


def planner_objective_tape(params, obs, states, relatives, prev_weights, value0, boots,
                           fee_rate, discount, risk_lambda, eps_num, action_noise):
    """(objective, particle returns, gradient over the flat vector) of
    `mpcfolio.pilot.planner_objective`, built on the tape; only actor arrays
    are leaves, so every other gradient entry is 0."""
    leaves = {name: leaf(arr) for name, arr in params.values.items()
              if name.startswith("actor.")}
    n_hidden = len(params.config.hidden)
    prev = np.asarray(prev_weights, dtype=np.float64)
    returns = [_particle_return(leaves, n_hidden, obs, states[k], relatives[k], prev,
                                value0, boots[k], fee_rate, discount,
                                None if action_noise is None else action_noise[k])
               for k in range(len(boots))]
    objective = _risk_objective(returns, risk_lambda, eps_num)
    objective.backward()
    grads = [leaves[name].grad if name in leaves and leaves[name].grad is not None
             else np.zeros(arr.shape) for name, arr in params.values.items()]
    return (float(objective.value), np.array([float(r.value) for r in returns]),
            np.concatenate([np.ravel(g) for g in grads]))
