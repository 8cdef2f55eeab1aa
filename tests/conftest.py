import datetime as dt

import numpy as np
import pytest

from mpcfolio.harness import SyntheticMarketSpec, generate_synthetic
from mpcfolio.marketdata import series_from_arrays, trading_dates


def make_series(close, open_=None, high=None, low=None, adj_close=None,
                split_fracs=(0.6, 0.2), start="2018-01-01"):
    """Series from a (T, N) close array; other fields default to close."""
    close = np.asarray(close, dtype=np.float64)
    t, n = close.shape
    a = int(round(t * split_fracs[0]))
    b = a + int(round(t * split_fracs[1]))
    return series_from_arrays(
        assets=[f"A{j}" for j in range(n)],
        dates=trading_dates(dt.date.fromisoformat(start), t),
        close=close, open_=open_, high=high, low=low, adj_close=adj_close,
        split_bounds={"train": (0, a), "valid": (a, b), "test": (b, t)},
    )


def random_walk_closes(rng, t, n, drift=0.0003, vol=0.01, start=100.0):
    log_ret = drift + vol * rng.standard_normal((t, n))
    log_ret[0] = 0.0
    return start * np.exp(np.cumsum(log_ret, axis=0))


def make_jittered_series(rng, closes, **kwargs):
    """Series with OHLC/adj jitter around the given closes (no flat columns)."""
    closes = np.asarray(closes, dtype=np.float64)
    opens = closes * (1 + 0.002 * rng.standard_normal(closes.shape))
    high = np.maximum(opens, closes) * (1 + 0.002 * np.abs(rng.standard_normal(closes.shape)))
    low = np.minimum(opens, closes) * (1 - 0.002 * np.abs(rng.standard_normal(closes.shape)))
    adj = closes * (0.97 + 0.01 * rng.random(closes.shape))
    return make_series(closes, open_=opens, high=high, low=low, adj_close=adj, **kwargs)


def write_external_forecasts(path, series, horizons, split="test"):
    """Zero-movement forecast CSV for every planned base date of a split."""
    start, stop = series.usable_range(split)
    lines = ["base_date,asset,horizon,predicted_movement\n"]
    for t in range(start, stop - 1):
        for asset in series.assets:
            lines += [f"{series.dates[t].isoformat()},{asset},{h},0.0\n" for h in horizons]
    path.write_text("".join(lines), encoding="utf-8")
    return path


class RawFeatureView:
    """FeatureView stand-in serving raw (unnormalized) features.

    Lets degenerate fixtures (constant prices, flat bars) run through the
    episode loop without fitting z-score statistics.
    """

    def __init__(self, series):
        self.series = series

    def state(self, t):
        from mpcfolio.marketdata import StateFeatures, compute_features

        return StateFeatures(compute_features(self.series, t), t, self.series.dates[t])

    def normalizer(self, split):
        return None

    def raw(self, t):
        from mpcfolio.marketdata import compute_features

        return compute_features(self.series, t)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_market():
    """3 assets, 300 days, jittered OHLC, planted signal."""
    return generate_synthetic(SyntheticMarketSpec(
        n_assets=3, length=300, signal_strength=0.003, volatility=0.01, seed=42))


@pytest.fixture
def two_asset_market():
    return generate_synthetic(SyntheticMarketSpec(
        n_assets=2, length=300, signal_strength=0.004, volatility=0.008, seed=7))
