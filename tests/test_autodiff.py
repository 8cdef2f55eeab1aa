import numpy as np
import pytest

import tape as ad
from tape import TapeLifecycleError


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at vector/matrix x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def check(build, x, rtol=1e-6):
    """Compare the tape gradient of scalar build(leaf) against central FD."""
    lx = ad.leaf(x)
    out = build(lx)
    out.backward()
    got = np.asarray(lx.grad)
    want = fd_grad(lambda v: float(ad.value_of(build(ad.leaf(v)))), x)
    denom = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / denom) < rtol, (got, want)


def test_arithmetic_chain(rng):
    x = rng.standard_normal(5)
    check(lambda v: ad.vsum(ad.mul(ad.add(v, 2.0), ad.sub(v, 0.5))), x)
    check(lambda v: ad.vsum(ad.div(v, 3.0)), x)
    check(lambda v: ad.vsum(ad.div(2.0, ad.add(ad.mul(v, v), 1.0))), x)


def test_unary_ops(rng):
    x = rng.standard_normal(6) * 0.5
    check(lambda v: ad.vsum(ad.tanh(v)), x)
    check(lambda v: ad.vsum(ad.exp(v)), x)
    check(lambda v: ad.vsum(ad.log(ad.add(ad.mul(v, v), 1.5))), x)
    check(lambda v: ad.vsum(ad.sqrt(ad.add(ad.mul(v, v), 1.0))), x)
    check(lambda v: ad.vsum(ad.powc(v, 2)), x)


def test_abs_subgradient_zero_at_zero():
    lx = ad.leaf(np.array([0.0, -2.0, 3.0]))
    out = ad.vsum(ad.absolute(lx))
    out.backward()
    assert np.array_equal(lx.grad, [0.0, -1.0, 1.0])


def test_clip_above_zero(rng):
    x = rng.standard_normal(8)
    check(lambda v: ad.vsum(ad.powc(ad.clip_above_zero(v), 2)), x)
    lx = ad.leaf(np.array([0.0, -1.0, 2.0]))
    out = ad.vsum(ad.clip_above_zero(lx))
    out.backward()
    assert np.array_equal(lx.grad, [0.0, 1.0, 0.0])


def test_dot_and_sum(rng):
    x = rng.standard_normal(4)
    c = rng.standard_normal(4)
    check(lambda v: ad.dot(v, c), x)
    check(lambda v: ad.dot(v, v), x)
    check(lambda v: ad.vsum(v), x)


def test_affine_all_parents(rng):
    w0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal(3)
    x0 = rng.standard_normal(4)

    def run(w, b, x):
        return float(np.sum(np.tanh(w @ x + b)))

    lw, lb, lx = ad.leaf(w0), ad.leaf(b0), ad.leaf(x0)
    out = ad.vsum(ad.tanh(ad.affine(lw, lb, lx)))
    out.backward()
    for leaf_node, arr, f in (
        (lw, w0, lambda v: run(v, b0, x0)),
        (lb, b0, lambda v: run(w0, v, x0)),
        (lx, x0, lambda v: run(w0, b0, v)),
    ):
        want = fd_grad(f, arr)
        assert np.max(np.abs(np.asarray(leaf_node.grad) - want)) < 1e-6


def test_softmax_jacobian(rng):
    x = rng.standard_normal(5)
    c = rng.standard_normal(5)
    check(lambda v: ad.dot(ad.softmax(v), c), x)


def test_softmax_stability():
    out = ad.softmax(ad.leaf(np.array([1000.0, 0.0])))
    assert np.isfinite(out.value).all()
    assert out.value[0] == pytest.approx(1.0, abs=1e-12)


def test_add_n_fan_in(rng):
    x = rng.standard_normal(3)
    lx = ad.leaf(x)
    terms = [ad.dot(lx, np.eye(3)[i]) for i in range(3)]
    out = ad.add_n(terms)
    out.backward()
    assert out.value == pytest.approx(x.sum())
    assert np.allclose(lx.grad, np.ones(3))


def test_reused_subexpression_accumulates(rng):
    x = rng.standard_normal(4)
    check(lambda v: ad.dot(ad.tanh(v), ad.tanh(v)), x)


def test_constants_are_detached(rng):
    x = rng.standard_normal(3)
    lx = ad.leaf(x)
    const = np.array([1.0, 2.0, 3.0])
    out = ad.dot(ad.mul(lx, const), const)
    out.backward()
    assert np.allclose(lx.grad, const * const)


def test_backward_twice_raises(rng):
    lx = ad.leaf(np.ones(2))
    out = ad.vsum(lx)
    out.backward()
    with pytest.raises(TapeLifecycleError):
        out.backward()


def test_scalar_broadcast_gradients(rng):
    x = rng.standard_normal(4)

    def build(v):
        s = ad.vsum(v)          # scalar node
        return ad.vsum(ad.mul(v, s))

    check(build, x)
