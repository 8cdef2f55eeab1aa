"""Brute-force twins used to check the fast implementations.

Everything here is written as plain loops over scalars, independent of the
vectorized code paths under test.
"""

import math


def features_oracle(series, t):
    """11 features per asset at day t, computed bar by bar."""
    out = []
    for j in range(series.n_assets):
        o = float(series.open[t, j])
        h = float(series.high[t, j])
        low = float(series.low[t, j])
        c = float(series.close[t, j])
        a = float(series.adj_close[t, j])
        row = [o / c - 1.0, h / c - 1.0, low / c - 1.0, a / c - 1.0,
               c / float(series.close[t - 1, j]) - 1.0]
        for k in (5, 10, 15, 20, 25, 30):
            acc = 0.0
            for back in range(k):
                acc += float(series.close[t - back, j])
            row.append((acc / k) / c - 1.0)
        out.append(row)
    return out


def context_mean_oracle(series, t, window):
    out = []
    for j in range(series.n_assets):
        acc = 0.0
        for back in range(1, window + 1):
            acc += float(series.close[t - back, j]) - float(series.close[t - back - 1, j])
        out.append(acc / window)
    return out


def returns_oracle(values):
    return [float(values[i]) / float(values[i - 1]) - 1.0 for i in range(1, len(values))]


def total_return_oracle(values):
    return (float(values[-1]) - float(values[0])) / float(values[0])


def sharpe_oracle(values, periods=252):
    r = returns_oracle(values)
    t = len(r)
    if t < 2:
        return None
    mean = math.fsum(r) / t
    var = math.fsum((x - mean) ** 2 for x in r) / (t - 1)
    if var == 0.0:
        return None
    return math.sqrt(periods) * mean / math.sqrt(var)


def sortino_oracle(values, periods=252):
    r = returns_oracle(values)
    t = len(r)
    mean = math.fsum(r) / t
    downside = math.sqrt(math.fsum(min(x, 0.0) ** 2 for x in r) / t)
    if downside == 0.0:
        return None
    return math.sqrt(periods) * mean / downside


def max_drawdown_oracle(values):
    peak = float(values[0])
    worst = 0.0
    for v in values:
        v = float(v)
        if v > peak:
            peak = v
        dd = (peak - v) / peak
        if dd > worst:
            worst = dd
    return worst


def calmar_oracle(values, periods=252):
    mdd = max_drawdown_oracle(values)
    if mdd == 0.0:
        return None
    t = len(values) - 1
    tr = total_return_oracle(values)
    return ((1.0 + tr) ** (periods / t) - 1.0) / mdd


def imagined_reward_oracle(value, prev_weights, weights, relatives, fee):
    turnover = math.fsum(abs(float(w) - float(p)) for w, p in zip(weights, prev_weights))
    delta = fee * value * turnover
    rho = math.fsum(float(w) * (float(r) - 1.0) for w, r in zip(weights[1:], relatives))
    return (value - delta) * (1.0 + rho) - value


def slice_mean_features(close, t, intraday=None):
    """The per-day feature formula, one day at a time, as NumPy slice means.

    `intraday` is (open, high, low, adj_close) or None for flat bars. The
    windowed feature kernel must reproduce these bytes exactly, so this keeps
    NumPy's own summation order rather than the scalar loop above.
    """
    import numpy as np

    close_t = close[t]
    out = np.zeros((close.shape[1], 11))
    for j, price in enumerate(intraday or ()):
        out[:, j] = price[t] / close_t - 1.0
    out[:, 4] = close_t / close[t - 1] - 1.0
    for j, k in enumerate((5, 10, 15, 20, 25, 30)):
        out[:, 5 + j] = close[t - k + 1 : t + 1].mean(axis=0) / close_t - 1.0
    return out


def series_slice_mean_features(series, t):
    return slice_mean_features(series.close, t, (series.open, series.high, series.low,
                                                 series.adj_close))


def central_difference(f, params, i, h=1e-5):
    """(f(params + h e_i) - f(params - h e_i)) / 2h for a scalar function of PolicyParams."""
    plus, minus = params.copy(), params.copy()
    plus.vector[i] += h
    minus.vector[i] -= h
    return (f(plus) - f(minus)) / (2 * h)


def validate_weights_oracle(w):
    """`env.validate_weights` as first written, with NumPy's reduction wrappers."""
    import numpy as np

    from mpcfolio.env import WEIGHT_NEG_TOL, WEIGHT_SUM_TOL
    from mpcfolio.errors import NumericError

    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericError("non-finite weight vector")
    if np.any(w < -WEIGHT_NEG_TOL):
        raise NumericError(f"negative weight beyond tolerance: min={w.min()}")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise NumericError(f"weights sum to {w.sum()}, not 1")
    return np.maximum(w, 0.0)


def env_step_oracle(state, target, price_relatives, fee_rate):
    """`env.step` as first written: (new value, drifted weights, t', reward).

    The fast step must reproduce these bytes and raise the same errors.
    """
    import numpy as np

    from mpcfolio.errors import DataError

    rel = np.asarray(price_relatives, dtype=np.float64)
    if not np.all(np.isfinite(rel)) or np.any(rel <= 0):
        raise DataError(f"price relatives must be finite and > 0, got {rel}")
    target = validate_weights_oracle(target)
    prev = validate_weights_oracle(state.weights)

    delta = fee_rate * state.value * float(np.abs(target - prev).sum())
    rho = float(np.dot(target[1:], rel - 1.0))
    new_value = (state.value - delta) * (1.0 + rho)
    if new_value <= 0:
        raise DataError(f"portfolio value would become non-positive ({new_value})")
    reward = new_value - state.value

    rel_full = np.concatenate(([1.0], rel))
    drifted = target * rel_full
    drifted = np.maximum(drifted / drifted.sum(), 0.0)
    return new_value, drifted, state.t + 1, reward
