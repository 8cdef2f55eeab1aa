"""Daily OHLC ingestion, temporal feature construction, and per-split z-scoring.

Eleven features are computed per asset per day from the open/high/low/close and
adjusted-close series: four intraday ratios, the one-day close return, and six
trailing moving-average ratios (windows 5..30 including the current day).
Features become usable 30 trading days after the series start; earlier days are
treated as warm-up and excluded from every split's usable range.

One kernel featurises a range of days at once over sliding 30-day windows; the
close-only forms and a batch of close paths all call it, and every form gives
the same bytes as featurising each day on its own. Each `MarketSeries`
featurises its whole date index once, lazily, into one read-only raw tensor;
the single-day and range forms are slices of it. `FeatureView` normalises
each split once and serves each day's state as a row of that split's
read-only tensor.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, DegenerateFeatureError, FeatureError

FEATURE_NAMES = (
    "z_open",
    "z_high",
    "z_low",
    "z_adj",
    "z_close",
    "z_d_5",
    "z_d_10",
    "z_d_15",
    "z_d_20",
    "z_d_25",
    "z_d_30",
)
MA_WINDOWS = (5, 10, 15, 20, 25, 30)
N_FEATURES = len(FEATURE_NAMES)
WARMUP_DAYS = 30

SPLIT_NAMES = ("train", "valid", "test")

DEFAULT_SCHEMA = {
    "date": "date",
    "open": "open",
    "high": "high",
    "low": "low",
    "close": "close",
    "adj_close": "adj_close",
    "asset": "asset",
}


@dataclass(frozen=True)
class Bar:
    """One daily price bar; all prices strictly positive."""

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    adj_close: float

    def validate(self) -> None:
        prices = (self.open, self.high, self.low, self.close, self.adj_close)
        if any(not np.isfinite(p) or p <= 0 for p in prices):
            raise DataError(f"non-positive or non-finite price on {self.date}: {prices}")
        body_lo = min(self.open, self.close)
        body_hi = max(self.open, self.close)
        if not (self.low <= body_lo and body_hi <= self.high):
            raise DataError(
                f"OHLC ordering violated on {self.date}: "
                f"low={self.low} open={self.open} close={self.close} high={self.high}"
            )


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class MarketSeries:
    """Date-aligned per-asset bar matrices with contiguous train/valid/test ranges.

    Read-only after construction: the five price arrays are private read-only
    copies, so the raw feature tensor built from them on first use cannot go
    stale. Safe to share across concurrent readers: racing first uses may
    featurise twice, but `dict.setdefault` hands every caller the one stored
    first.
    """

    def __init__(self, assets, dates, open_, high, low, close, adj_close, split_bounds):
        self.assets = list(assets)
        self.dates = list(dates)
        self.open = _read_only(open_)
        self.high = _read_only(high)
        self.low = _read_only(low)
        self.close = _read_only(close)
        self.adj_close = _read_only(adj_close)
        # split_bounds: {"train": (start, stop), ...} as half-open index ranges
        self.split_bounds = dict(split_bounds)
        self._validate()
        self._cache: dict[str, np.ndarray] = {}

    def raw_features(self) -> np.ndarray:
        """Read-only raw features (n_days - 30, N, 11); row i is day 30 + i."""
        raw = self._cache.get("features")
        if raw is None:
            raw = _window_features(self.close, WARMUP_DAYS, self.n_days,
                                   (self.open, self.high, self.low, self.adj_close))
            raw.flags.writeable = False
            raw = self._cache.setdefault("features", raw)
        return raw

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    def _validate(self) -> None:
        t, n = len(self.dates), len(self.assets)
        for name in ("open", "high", "low", "close", "adj_close"):
            arr = getattr(self, name)
            if arr.shape != (t, n):
                raise DataError(f"{name} has shape {arr.shape}, expected {(t, n)}")
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
                bad = np.argwhere(~(np.isfinite(arr) & (arr > 0)))[0]
                raise DataError(
                    f"non-positive price in {name} at row {bad[0]} "
                    f"({self.dates[bad[0]]}, asset {self.assets[bad[1]]})"
                )
        body_lo = np.minimum(self.open, self.close)
        body_hi = np.maximum(self.open, self.close)
        if np.any(self.low > body_lo) or np.any(self.high < body_hi):
            bad = np.argwhere((self.low > body_lo) | (self.high < body_hi))[0]
            raise DataError(
                f"OHLC ordering violated at row {bad[0]} "
                f"({self.dates[bad[0]]}, asset {self.assets[bad[1]]})"
            )
        if any(self.dates[i] >= self.dates[i + 1] for i in range(t - 1)):
            raise DataError("dates are not strictly increasing")
        if set(self.split_bounds) != set(SPLIT_NAMES):
            raise DataError(f"split_bounds must define exactly {SPLIT_NAMES}")
        cursor = 0
        for name in SPLIT_NAMES:
            start, stop = self.split_bounds[name]
            if start != cursor or stop < start:
                raise DataError(f"split ranges must be contiguous and ordered; bad '{name}'")
            cursor = stop
        if cursor != t:
            raise DataError("split ranges must cover the whole date index")

    def split_range(self, split: str) -> tuple[int, int]:
        if split not in self.split_bounds:
            raise DataError(f"unknown split {split!r}")
        return self.split_bounds[split]

    def usable_range(self, split: str) -> tuple[int, int]:
        """Split range with feature warm-up days removed from the front."""
        start, stop = self.split_range(split)
        return max(start, WARMUP_DAYS), stop

    def relatives(self, t: int) -> np.ndarray:
        """Gross close-to-close relatives close[t+1] / close[t], one per asset."""
        if t < 0 or t + 1 >= self.n_days:
            raise FeatureError(f"no next-day prices at t={t}")
        return self.close[t + 1] / self.close[t]

    def movements(self, t: int) -> np.ndarray:
        """Close-price differences close[t] - close[t-1], one per asset."""
        if t < 1 or t >= self.n_days:
            raise FeatureError(f"no movement defined at t={t}")
        return self.close[t] - self.close[t - 1]


@dataclass
class StateFeatures:
    """The N x 11 observation matrix for one day, in fixed feature order."""

    values: np.ndarray
    t: int
    date: dt.date

    def flat(self) -> np.ndarray:
        return self.values.ravel()


def _check_days(t0: int, t1: int, n_days: int) -> None:
    if t0 < WARMUP_DAYS:
        raise FeatureError(f"need t >= {WARMUP_DAYS} for the 30-day window, got t={t0}")
    if t1 > n_days or t1 <= t0:
        raise FeatureError(f"day range {t0}..{t1 - 1} outside 0..{n_days - 1}")


def _window_features(close: np.ndarray, t0: int, t1: int, intraday=()) -> np.ndarray:
    """Raw features (..., t1 - t0, N, 11) of days t0..t1-1 from a (..., T, N) close array.

    Leading axes are a batch of paths, featurised in one pass. `intraday`
    holds the open, high, low and adjusted-close arrays; without them the
    bars are flat and those four ratios are zero. Each windowed mean sums the
    same closes in the same order as `close[t-k+1:t+1].mean(axis=0)`, for
    every batch shape.
    """
    _check_days(t0, t1, close.shape[-2])
    close_t = close[..., t0:t1, :]
    out = np.zeros((*close_t.shape, N_FEATURES), dtype=np.float64)
    for j, price in enumerate(intraday):
        out[..., j] = price[..., t0:t1, :] / close_t - 1.0
    out[..., 4] = close_t / close[..., t0 - 1 : t1 - 1, :] - 1.0
    windows = sliding_window_view(close[..., t0 - WARMUP_DAYS + 1 : t1, :], WARMUP_DAYS,
                                  axis=-2)
    for j, k in enumerate(MA_WINDOWS):
        out[..., 5 + j] = windows[..., WARMUP_DAYS - k :].mean(axis=-1) / close_t - 1.0
    return out


def compute_feature_range(series: MarketSeries, t0: int, t1: int) -> np.ndarray:
    """Raw feature tensor (t1 - t0, N, 11) for the day indices t0..t1-1; read-only."""
    _check_days(t0, t1, series.n_days)
    return series.raw_features()[t0 - WARMUP_DAYS : t1 - WARMUP_DAYS]


def compute_features(series: MarketSeries, t: int) -> np.ndarray:
    """Raw (pre-normalization) feature matrix (N, 11) at day index t; read-only.

    Requires t >= 30 so the longest moving-average window and the one-day
    return are fully inside the series.
    """
    return compute_feature_range(series, t, t + 1)[0]


def feature_range_from_closes(closes: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """Feature tensor (..., t1 - t0, N, 11) from close-only paths (..., T, N): flat
    intraday, adj == close, so the intraday and adjusted-close ratios are zero.

    Used to derive imagined states from a batch of forecast price paths.
    """
    return _window_features(closes, t0, t1)


def features_from_closes(closes: np.ndarray, t: int) -> np.ndarray:
    """Feature matrix (N, 11) at day t of a close-only path."""
    return feature_range_from_closes(closes, t, t + 1)[0]


class Normalizer:
    """Per-(asset, feature) z-score statistics fitted on one split."""

    # std below this (relative to 1 or |mean|) marks a degenerate constant column
    DEGENERATE_TOL = 1e-12

    def __init__(self, mean: np.ndarray, std: np.ndarray, split: str):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)
        self.split = split

    def apply(self, raw: np.ndarray) -> np.ndarray:
        return (raw - self.mean) / self.std

    def invert(self, normalized: np.ndarray) -> np.ndarray:
        return self.mean + self.std * normalized


def fit_normalizer(series: MarketSeries, split: str) -> Normalizer:
    """Fit z-score statistics (sample std, ddof=1) on a split's usable days."""
    start, stop = series.usable_range(split)
    if stop - start < 2:
        raise DataError(f"split {split!r} has {stop - start} usable rows, need >= 2")
    rows = compute_feature_range(series, start, stop)
    mean = rows.mean(axis=0)
    std = rows.std(axis=0, ddof=1)
    scale = np.maximum(1.0, np.abs(mean))
    degenerate = std <= Normalizer.DEGENERATE_TOL * scale
    if np.any(degenerate):
        a, f = np.argwhere(degenerate)[0]
        raise DegenerateFeatureError(
            f"zero-variance feature on split {split!r}: "
            f"asset {series.assets[a]!r}, feature {FEATURE_NAMES[f]!r}"
        )
    return Normalizer(mean, std, split)


class FeatureView:
    """Observation provider: normalized features per day, one normalizer per split.

    Normalizers are fitted lazily on first access and cached, and so is each
    split's normalized feature tensor, normalised from the split's rows of
    the series' raw tensor and read-only; `state(t)` returns a row of it. Pass
    `normalizers` to pin pre-fitted statistics (for example to audit a
    mutated series against the original statistics). Safe to share across
    threads: racing first accesses may compute a value twice, but
    `dict.setdefault` hands every caller the one stored first.
    """

    def __init__(self, series: MarketSeries, normalizers: dict | None = None):
        self.series = series
        self._normalizers: dict[str, Normalizer] = dict(normalizers or {})
        self._states: dict[str, np.ndarray] = {}

    def normalizer(self, split: str) -> Normalizer:
        norm = self._normalizers.get(split)
        if norm is None:
            norm = self._normalizers.setdefault(split, fit_normalizer(self.series, split))
        return norm

    def split_states(self, split: str) -> np.ndarray:
        """Read-only normalized features (rows, N, 11) of the split's usable days."""
        states = self._states.get(split)
        if states is None:
            start, stop = self.series.usable_range(split)
            states = self.normalizer(split).apply(compute_feature_range(self.series, start, stop))
            states.flags.writeable = False
            states = self._states.setdefault(split, states)
        return states

    def split_of(self, t: int) -> str:
        for name in SPLIT_NAMES:
            start, stop = self.series.split_range(name)
            if start <= t < stop:
                return name
        raise FeatureError(f"t={t} outside the date index")

    def state(self, t: int) -> StateFeatures:
        split = self.split_of(t)
        if t < WARMUP_DAYS:
            raise FeatureError(f"need t >= {WARMUP_DAYS} for the 30-day window, got t={t}")
        values = self.split_states(split)[t - self.series.usable_range(split)[0]]
        return StateFeatures(values=values, t=t, date=self.series.dates[t])


def _parse_row(row: dict, schema: dict, path, line_no: int) -> tuple[dt.date, Bar]:
    try:
        date = dt.date.fromisoformat(row[schema["date"]].strip())
        bar = Bar(
            date=date,
            open=float(row[schema["open"]]),
            high=float(row[schema["high"]]),
            low=float(row[schema["low"]]),
            close=float(row[schema["close"]]),
            adj_close=float(row[schema["adj_close"]]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise DataError(f"{path}: malformed row {line_no}: {exc}") from exc
    try:
        bar.validate()
    except DataError as exc:
        raise DataError(f"{path}: row {line_no}: {exc}") from exc
    return date, bar


def _read_csv_bars(path: Path, schema: dict) -> dict[str, dict[dt.date, Bar]]:
    """Read one CSV file; returns {asset: {date: Bar}}.

    Long-format files carry an asset column; otherwise the file stem is the
    asset identifier.
    """
    per_asset: dict[str, dict[dt.date, Bar]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, header row required")
        has_asset_col = schema["asset"] in reader.fieldnames
        for line_no, row in enumerate(reader, start=2):
            date, bar = _parse_row(row, schema, path, line_no)
            asset = row[schema["asset"]].strip() if has_asset_col else path.stem
            bars = per_asset.setdefault(asset, {})
            if date in bars:
                raise DataError(f"{path}: row {line_no}: duplicate date {date} for {asset}")
            bars[date] = bar
    return per_asset


def load_csv(path, schema=None, split_dates=None, split_fracs=(0.8, 0.1)) -> MarketSeries:
    """Load a per-asset CSV directory or a long-format CSV file.

    `schema` maps logical column names (date/open/high/low/close/adj_close and,
    for long format, asset) to the file's actual headers. Splits come either
    from `split_dates=(train_end, valid_end)` (inclusive ISO dates) or from
    `split_fracs=(train_frac, valid_frac)` over the row count.

    All assets must share an identical date index; offenders are reported.
    """
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such path: {path}")
    per_asset: dict[str, dict[dt.date, Bar]] = {}
    files = sorted(path.glob("*.csv")) if path.is_dir() else [path]
    if not files:
        raise DataError(f"no CSV files in directory {path}")
    for f in files:
        for asset, bars in _read_csv_bars(f, schema).items():
            if asset in per_asset:
                raise DataError(f"asset {asset!r} appears in more than one file")
            per_asset[asset] = bars
    assets = sorted(per_asset)
    index = sorted(per_asset[assets[0]])
    index_set = set(index)
    offenders = [a for a in assets if set(per_asset[a]) != index_set]
    if offenders:
        raise DataError(
            "assets not aligned on a shared date index: " + ", ".join(offenders)
        )
    t, n = len(index), len(assets)
    arrays = {k: np.empty((t, n)) for k in ("open", "high", "low", "close", "adj_close")}
    for j, asset in enumerate(assets):
        for i, date in enumerate(index):
            bar = per_asset[asset][date]
            arrays["open"][i, j] = bar.open
            arrays["high"][i, j] = bar.high
            arrays["low"][i, j] = bar.low
            arrays["close"][i, j] = bar.close
            arrays["adj_close"][i, j] = bar.adj_close
    bounds = _split_bounds(index, split_dates, split_fracs)
    return MarketSeries(
        assets, index, arrays["open"], arrays["high"], arrays["low"],
        arrays["close"], arrays["adj_close"], bounds,
    )


def _split_bounds(index, split_dates, split_fracs):
    t = len(index)
    if split_dates is not None:
        train_end, valid_end = (
            d if isinstance(d, dt.date) else dt.date.fromisoformat(d) for d in split_dates
        )
        if train_end >= valid_end:
            raise DataError("split boundary dates must be increasing")
        a = sum(1 for d in index if d <= train_end)
        b = sum(1 for d in index if d <= valid_end)
    else:
        f_train, f_valid = split_fracs
        if f_train <= 0 or f_valid < 0 or f_train + f_valid >= 1:
            raise DataError(f"invalid split fractions {split_fracs}")
        a = int(round(t * f_train))
        b = a + int(round(t * f_valid))
    return {"train": (0, a), "valid": (a, b), "test": (b, t)}


def series_from_arrays(assets, dates, close, open_=None, high=None, low=None,
                       adj_close=None, split_bounds=None) -> MarketSeries:
    """Construct a series from arrays; missing price fields default to close."""
    close = np.asarray(close, dtype=np.float64)
    open_ = close if open_ is None else open_
    high = np.maximum(open_, close) if high is None else high
    low = np.minimum(open_, close) if low is None else low
    adj_close = close if adj_close is None else adj_close
    if split_bounds is None:
        t = close.shape[0]
        a = int(round(t * 0.6))
        b = a + int(round(t * 0.2))
        split_bounds = {"train": (0, a), "valid": (a, b), "test": (b, t)}
    return MarketSeries(assets, dates, open_, high, low, close, adj_close, split_bounds)


def trading_dates(start: dt.date, count: int) -> list[dt.date]:
    """`count` consecutive weekdays starting at or after `start`."""
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out
