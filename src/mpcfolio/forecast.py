"""Forecasting conditions: baselines, ridge models, calibrated blends, noise.

Every source predicts per-asset close-price movements (differences) at the
dates t+1..t+H from information available at the base date t. Trajectories
compose movements into a positive price path, derive imagined observation
states by splicing realized history with the predicted path (flat intraday),
and carry the relatives the planner scores allocations against.

Blend calibration dials forecast quality: blending a base forecast with the
realized movements at coefficient c scales every pointwise error by (1 - c),
so c = 1 - sqrt((1 - target) / (1 - r0)) hits a target R-squared exactly on
the calibration set. Quality is scored against the trailing context-mean
predictor at the target date.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConditioningError,
    ConfigError,
    CoverageError,
    DataError,
    FeatureError,
    InfeasibleTargetError,
    NumericError,
)
from .marketdata import (
    WARMUP_DAYS,
    FeatureView,
    MarketSeries,
    Normalizer,
    compute_features,
    feature_range_from_closes,
)

DEFAULT_CONTEXT_WINDOW = 30
RELATIVE_FLOOR = 1e-6
PRICE_FLOOR_FRAC = 1e-8


def context_mean_baseline(series: MarketSeries, t: int, window: int) -> np.ndarray:
    """Mean of the last `window` realized movements strictly before day t."""
    if window < 1:
        raise ConfigError(f"context window must be >= 1, got {window}")
    if t < window + 1:
        raise FeatureError(f"need t >= {window + 1} for a {window}-day context, got t={t}")
    if t >= series.n_days:
        raise FeatureError(f"t={t} beyond series end")
    diffs = series.close[t - window : t] - series.close[t - window - 1 : t - 1]
    return diffs.mean(axis=0)


def r_squared(predictions, realized, baseline) -> float:
    """1 - SSE(predictions) / SSE(baseline), pooled over all entries."""
    p = np.asarray(predictions, dtype=np.float64).ravel()
    y = np.asarray(realized, dtype=np.float64).ravel()
    b = np.asarray(baseline, dtype=np.float64).ravel()
    if not (p.shape == y.shape == b.shape) or p.size < 2:
        raise ConfigError("predictions, realized, baseline must share length >= 2")
    sse_base = float(np.sum((b - y) ** 2))
    if sse_base == 0.0:
        raise DataError("baseline SSE is zero; R-squared undefined")
    return 1.0 - float(np.sum((p - y) ** 2)) / sse_base


# -- forecast sources ----------------------------------------------------------


class ZeroForecaster:
    """Predicts no movement at any horizon."""

    def available_horizon(self, series: MarketSeries, t: int) -> int:
        return 10 ** 9

    def predict_movements(self, series: MarketSeries, t: int, horizon: int) -> np.ndarray:
        return np.zeros((horizon, series.n_assets))


class ContextMeanForecaster:
    """Repeats the trailing context-mean movement at every horizon."""

    def __init__(self, window: int = DEFAULT_CONTEXT_WINDOW):
        self.window = window

    def available_horizon(self, series, t) -> int:
        return 10 ** 9

    def predict_movements(self, series, t, horizon) -> np.ndarray:
        base = context_mean_baseline(series, t, self.window)
        return np.tile(base, (horizon, 1))


@dataclass
class RidgeModel:
    coef: np.ndarray
    intercept: float

    def predict(self, features_row: np.ndarray) -> float:
        return float(self.intercept + features_row @ self.coef)


def ridge_solve(x: np.ndarray, y: np.ndarray, lambda_reg: float) -> RidgeModel:
    """Centered closed-form ridge; the intercept is not penalized.

    Coefficients shrink to zero and the prediction tends to the target mean
    as lambda_reg grows. lambda_reg = 0 on singular normal equations raises.
    """
    if lambda_reg < 0:
        raise ConfigError(f"lambda_reg must be >= 0, got {lambda_reg}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xbar = x.mean(axis=0)
    ybar = y.mean()
    xc = x - xbar
    yc = y - ybar
    a = xc.T @ xc + lambda_reg * np.eye(x.shape[1])
    if lambda_reg == 0.0 and np.linalg.cond(a) > 1e12:
        raise ConditioningError("normal equations are singular; increase lambda_reg")
    coef = np.linalg.solve(a, xc.T @ yc)
    return RidgeModel(coef=coef, intercept=float(ybar - xbar @ coef))


def fit_ridge(series: MarketSeries, horizon: int, asset: int, lambda_reg: float,
              normalizer: Normalizer | None = None, split: str = "train") -> RidgeModel:
    """Ridge model for one (asset, horizon) over the 11 features.

    Rows are base dates whose target date t+horizon stays inside the split,
    so training targets never cross the split boundary. The target is the
    one-day return at the target date (scale-free on both sides, robust to
    price-level drift between splits).
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {horizon}")
    view = FeatureView(series, None if normalizer is None else {split: normalizer})
    return _fit_ridge_rows(series, view.split_states(split), split, horizon, asset, lambda_reg)


def _fit_ridge_rows(series: MarketSeries, features: np.ndarray, split: str, horizon: int,
                    asset: int, lambda_reg: float) -> RidgeModel:
    """`fit_ridge` on the split's normalized feature rows, computed once by the caller."""
    start, stop = series.usable_range(split)
    n_rows = stop - horizon - start
    if n_rows < 50:
        raise DataError(f"need >= 50 training rows, have {max(n_rows, 0)}")
    close = series.close[start + horizon - 1 : stop, asset]
    returns = (close[1:] - close[:-1]) / close[:-1]
    return ridge_solve(features[:n_rows, asset], returns, lambda_reg)


class RidgeForecaster:
    """Per-(asset, horizon) ridge models over the locally observed features.

    Models regress one-day returns; predicted movements are composed along
    the implied price path. Inputs are normalized with the statistics of the
    split the models were fitted on, so predictions made later never mix in
    newer statistics. The models' coefficients are also held stacked, as
    (H, N, 1, 11) and intercepts (H, N), so one matmul scores every model.
    """

    def __init__(self, models: dict, horizon: int, normalizer: Normalizer):
        self.models = models
        self.horizon = horizon
        self.normalizer = normalizer
        n_assets = len(models) // horizon
        hs, assets = range(1, horizon + 1), range(n_assets)
        self._coef = np.array([[models[(i, h)].coef for i in assets] for h in hs])[:, :, None]
        self._intercept = np.array([[models[(i, h)].intercept for i in assets] for h in hs])

    @classmethod
    def fit(cls, series: MarketSeries, horizon: int, lambda_reg: float = 1.0,
            split: str = "train") -> "RidgeForecaster":
        if horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon}")
        view = FeatureView(series)
        features = view.split_states(split)
        models = {}
        for h in range(1, horizon + 1):
            for i in range(series.n_assets):
                models[(i, h)] = _fit_ridge_rows(series, features, split, h, i, lambda_reg)
        return cls(models, horizon, view.normalizer(split))

    def available_horizon(self, series, t) -> int:
        return self.horizon

    def predict_movements(self, series, t, horizon) -> np.ndarray:
        if horizon > self.horizon:
            raise CoverageError(f"fitted for horizon {self.horizon}, asked for {horizon}")
        feats = self.normalizer.apply(compute_features(series, t))
        # matmul takes the same dot per model as RidgeModel.predict, bit for bit
        rets = self._intercept[:horizon] + np.matmul(self._coef[:horizon],
                                                     feats[:, :, None])[:, :, 0, 0]
        out = np.empty((horizon, series.n_assets))
        price = series.close[t].copy()
        for h in range(1, horizon + 1):
            move = price * rets[h - 1]
            out[h - 1] = move
            price = np.maximum(price + move, PRICE_FLOOR_FRAC * series.close[t])
        return out

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "normalizer": {
                "mean": self.normalizer.mean.tolist(),
                "std": self.normalizer.std.tolist(),
                "split": self.normalizer.split,
            },
            "models": {
                f"{i}:{h}": {"coef": m.coef.tolist(), "intercept": m.intercept}
                for (i, h), m in self.models.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RidgeForecaster":
        norm = Normalizer(np.asarray(d["normalizer"]["mean"]),
                          np.asarray(d["normalizer"]["std"]),
                          d["normalizer"]["split"])
        models = {}
        for key, m in d["models"].items():
            i, h = (int(x) for x in key.split(":"))
            models[(i, h)] = RidgeModel(coef=np.asarray(m["coef"]), intercept=m["intercept"])
        return cls(models, d["horizon"], norm)


class ExternalForecastSource:
    """Forecast grid loaded from CSV: base_date, asset, horizon, predicted_movement."""

    COLUMNS = ("base_date", "asset", "horizon", "predicted_movement")

    def __init__(self, cells: dict):
        self.cells = cells

    @classmethod
    def from_csv(cls, path) -> "ExternalForecastSource":
        path = Path(path)
        if not path.exists():
            raise DataError(f"no such forecast file: {path}")
        cells = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in cls.COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise DataError(f"{path}: missing columns {missing}")
            for line_no, row in enumerate(reader, start=2):
                try:
                    key = (
                        dt.date.fromisoformat(row["base_date"].strip()),
                        row["asset"].strip(),
                        int(row["horizon"]),
                    )
                    movement = float(row["predicted_movement"])
                except (ValueError, TypeError) as exc:
                    raise DataError(f"{path}: malformed row {line_no}: {exc}") from exc
                if not math.isfinite(movement):
                    raise DataError(f"{path}: non-finite predicted_movement in row {line_no}")
                cells[key] = movement
        return cls(cells)

    def validate_coverage(self, series: MarketSeries, ts, horizon: int) -> None:
        missing = []
        for t in ts:
            date = series.dates[t]
            for asset in series.assets:
                for h in range(1, horizon + 1):
                    if (date, asset, h) not in self.cells:
                        missing.append((date, asset, h))
        if missing:
            raise CoverageError(
                f"{len(missing)} missing forecast cells, first: {missing[0]}"
            )

    def available_horizon(self, series, t) -> int:
        return 10 ** 9

    def predict_movements(self, series, t, horizon) -> np.ndarray:
        date = series.dates[t]
        out = np.empty((horizon, series.n_assets))
        for h in range(1, horizon + 1):
            for i, asset in enumerate(series.assets):
                try:
                    out[h - 1, i] = self.cells[(date, asset, h)]
                except KeyError:
                    raise CoverageError(
                        f"missing forecast cell (base_date={date}, asset={asset}, horizon={h})"
                    ) from None
        return out


class PerfectForecaster:
    """Ground-truth movements; the c = 1 endpoint of the blend."""

    def available_horizon(self, series, t) -> int:
        return series.n_days - 1 - t

    def predict_movements(self, series, t, horizon) -> np.ndarray:
        if t + horizon > series.n_days - 1:
            raise CoverageError(f"no realized data for t={t}, horizon={horizon}")
        return series.close[t + 1 : t + horizon + 1] - series.close[t : t + horizon]


# -- calibrated blending ---------------------------------------------------------


@dataclass
class CheatCalibration:
    """Blend coefficient and the quality audit behind it."""

    c: float
    base_r2: float
    target_r2: float
    achieved_r2: float
    context_window: int = DEFAULT_CONTEXT_WINDOW
    n_cells: int = 0

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "base_r2": self.base_r2,
            "target_r2": self.target_r2,
            "achieved_r2": self.achieved_r2,
            "context_window": self.context_window,
            "n_cells": self.n_cells,
        }


def blend_coefficient(base_r2: float, target_r2: float) -> float:
    if not 0.0 <= target_r2 <= 1.0:
        raise ConfigError(f"target R-squared must be in [0, 1], got {target_r2}")
    if target_r2 < base_r2 - 1e-12:
        raise InfeasibleTargetError(
            f"target R-squared {target_r2} below base forecaster's {base_r2}"
        )
    if target_r2 <= base_r2:  # equal up to rounding
        return 0.0
    if target_r2 == 1.0:
        return 1.0
    return 1.0 - np.sqrt((1.0 - target_r2) / (1.0 - base_r2))


def calibrate_cheat(base_predictions, realized, baseline, target_r2: float):
    """Blend coefficient and blended forecasts hitting `target_r2` exactly.

    Returns (calibration, blended); blended = (1-c)*base + c*realized.
    """
    base = np.asarray(base_predictions, dtype=np.float64)
    real = np.asarray(realized, dtype=np.float64)
    r0 = r_squared(base, real, baseline)
    c = blend_coefficient(r0, target_r2)
    blended = (1.0 - c) * base + c * real
    achieved = r_squared(blended, real, baseline) if c < 1.0 else 1.0
    calib = CheatCalibration(c=float(c), base_r2=r0, target_r2=target_r2,
                             achieved_r2=achieved, n_cells=base.size)
    return calib, blended


def collect_forecast_grid(base_source, series: MarketSeries, horizon: int,
                          split: str, context_window: int = DEFAULT_CONTEXT_WINDOW):
    """Pooled (predictions, realized, baseline) arrays over one split's grid.

    One row per (base date, horizon) cell whose target date stays inside the
    split; the baseline is the trailing context mean at the target date.
    """
    start, stop = series.usable_range(split)
    preds, reals, bases = [], [], []
    for t in range(start, stop - 1):
        h_max = min(horizon, stop - 1 - t, base_source.available_horizon(series, t))
        if h_max < 1:
            continue
        pred = base_source.predict_movements(series, t, h_max)
        for h in range(1, h_max + 1):
            tau = t + h
            preds.append(pred[h - 1])
            reals.append(series.movements(tau))
            bases.append(context_mean_baseline(series, tau, context_window))
    if not preds:
        raise DataError(f"no forecast cells on split {split!r}")
    return np.asarray(preds), np.asarray(reals), np.asarray(bases)


def blend_r2_on_split(base_source, series: MarketSeries, c: float, horizon: int,
                      split: str, context_window: int = DEFAULT_CONTEXT_WINDOW) -> float:
    """Achieved quality of a fixed-coefficient blend on another split."""
    preds, reals, bases = collect_forecast_grid(base_source, series, horizon,
                                                split, context_window)
    blended = (1.0 - c) * preds + c * reals
    return r_squared(blended, reals, bases)


class CheatForecaster:
    """Blends a base source with realized movements at a fixed coefficient.

    Reads realized future movements by construction; a diagnostic oracle, not
    a deployable forecaster.
    """

    def __init__(self, base_source, c: float, calibration: CheatCalibration | None = None):
        if not 0.0 <= c <= 1.0:
            raise ConfigError(f"blend coefficient must be in [0, 1], got {c}")
        self.base_source = base_source
        self.c = c
        self.calibration = calibration

    @classmethod
    def calibrate(cls, base_source, series: MarketSeries, target_r2: float,
                  horizon: int, split: str = "test",
                  context_window: int = DEFAULT_CONTEXT_WINDOW):
        """Pick c so the blend hits `target_r2` pooled over the split's grid."""
        grid = collect_forecast_grid(base_source, series, horizon, split, context_window)
        return cls.from_grid(base_source, grid, target_r2, context_window)

    @classmethod
    def from_grid(cls, base_source, grid, target_r2: float,
                  context_window: int = DEFAULT_CONTEXT_WINDOW):
        """`calibrate` on a grid from `collect_forecast_grid`, which any number
        of targets can share."""
        calib, _ = calibrate_cheat(*grid, target_r2)
        calib.context_window = context_window
        return cls(base_source, calib.c, calibration=calib)

    def available_horizon(self, series, t) -> int:
        return min(series.n_days - 1 - t, self.base_source.available_horizon(series, t))

    def predict_movements(self, series, t, horizon) -> np.ndarray:
        base = self.base_source.predict_movements(series, t, horizon)
        real = PerfectForecaster().predict_movements(series, t, horizon)
        return (1.0 - self.c) * base + self.c * real


# -- trajectories ----------------------------------------------------------------


@dataclass
class ForecastTrajectory:
    """Predicted price path, imagined states, and relatives from one base date.

    states[j] is the imagined observation at date t+j+1; relatives[j] is the
    gross relative for the step t+j -> t+j+1. States are normalized when a
    normalizer is attached, raw otherwise.
    """

    base_t: int
    horizon: int
    prices: np.ndarray      # (H, N)
    relatives: np.ndarray   # (H, N)
    states: np.ndarray      # (H, N, 11)
    normalizer: Normalizer | None


class TrajectorySet:
    """Trajectories from a set of base dates, as built by `build_trajectories`."""

    def __init__(self, trajectories: dict, rejected: dict):
        self.trajectories = trajectories  # base date -> ForecastTrajectory
        self.rejected = rejected          # base date -> the NumericError that rejected it

    def at(self, t: int) -> ForecastTrajectory | None:
        """The trajectory from base date t, or None when t was not asked for.

        Raises the NumericError that rejected t's forecast.
        """
        if t in self.rejected:
            raise self.rejected[t]
        return self.trajectories.get(t)


def build_trajectories(source, series: MarketSeries, horizons: dict,
                       normalizer: Normalizer | None = None) -> TrajectorySet:
    """Compose predicted movements into trajectories from many base dates at once.

    `horizons` maps each base date t to its horizon; the source is asked once
    per date. A date whose movements are not finite, or whose source raised
    NumericError, is rejected on its own. Imagined states of the dates that
    share a horizon are featurised as one batch of spliced price paths, with
    the same bytes as one date at a time. The arrays are read-only, so any
    number of runs can share the set.
    """
    movements, rejected, groups = {}, {}, {}
    for t, horizon in horizons.items():
        if horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon}")
        if t < WARMUP_DAYS:
            raise FeatureError(f"need t >= {WARMUP_DAYS} of realized history, got t={t}")
        try:
            moves = source.predict_movements(series, t, horizon)
            if moves.shape != (horizon, series.n_assets):
                raise ConfigError(f"source returned shape {moves.shape}")
            if not np.isfinite(moves).all():
                raise NumericError(f"non-finite predicted movements at base date {series.dates[t]}")
        except NumericError as exc:
            rejected[t] = exc
            continue
        movements[t] = moves
        groups.setdefault(horizon, []).append(t)
    trajectories = {}
    for horizon, ts in groups.items():
        days = np.array(ts)
        p_t = series.close[days][:, None]  # (dates, 1, N)
        prices = p_t + np.cumsum(np.stack([movements[t] for t in ts]), axis=1)
        prices = np.maximum(prices, PRICE_FLOOR_FRAC * p_t)
        relatives = prices / np.concatenate([p_t, prices[:, :-1]], axis=1)
        history = series.close[days[:, None] + np.arange(1 - WARMUP_DAYS, 1)]
        states = feature_range_from_closes(np.concatenate([history, prices], axis=1),
                                           WARMUP_DAYS, WARMUP_DAYS + horizon)
        if normalizer is not None:  # `normalizer.apply` in place, to the same bits
            states -= normalizer.mean
            states /= normalizer.std
        for arr in (prices, relatives, states):  # cells of a lockstep run share them
            arr.flags.writeable = False
        for i, t in enumerate(ts):
            trajectories[t] = ForecastTrajectory(base_t=t, horizon=horizon, prices=prices[i],
                                                 relatives=relatives[i], states=states[i],
                                                 normalizer=normalizer)
    return TrajectorySet(trajectories, rejected)


# -- forecast noise ----------------------------------------------------------------


@dataclass
class NoiseCalibration:
    """Per-horizon variance of predicted state values on the training split."""

    sigma2: np.ndarray  # (H,)

    @property
    def horizon(self) -> int:
        return len(self.sigma2)


def fit_noise_calibration(source, series: MarketSeries, horizon: int,
                          normalizer: Normalizer | None = None,
                          split: str = "train") -> NoiseCalibration:
    """Sample variance of predicted feature values per horizon, pooled over
    (forecast date, ticker, feature) tuples of the given split."""
    start, stop = series.usable_range(split)
    dates = [t for t in range(start, stop)
             if source.available_horizon(series, t) >= horizon]
    built = build_trajectories(source, series, dict.fromkeys(dates, horizon), normalizer)
    states = [built.at(t).states for t in dates]
    if len(states) < 2:
        raise DataError(f"need >= 2 forecast dates on split {split!r} for noise stats")
    stacked = np.stack(states)  # (dates, H, N, 11)
    sigma2 = stacked.var(axis=(0, 2, 3), ddof=1)
    return NoiseCalibration(sigma2=sigma2)


def perturb(traj: ForecastTrajectory, calib: NoiseCalibration | None,
            sigma: float, k: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """K noisy copies of the trajectory: states (K, H, N, 11), relatives (K, H, N).

    sigma == 0 returns K read-only views of the original and draws nothing.
    Noise is added in imagined-feature space with per-horizon scale
    sigma * sqrt(sigma2[h]), in one draw that gives the same numbers as K
    draws of one copy each; relatives are re-derived from the perturbed
    one-day-return channel so reward error tracks observation error.
    """
    if k < 1:
        raise ConfigError(f"particle count must be >= 1, got {k}")
    if sigma < 0:
        raise ConfigError(f"noise scale must be >= 0, got {sigma}")
    if sigma == 0.0:
        return (np.broadcast_to(traj.states, (k, *traj.states.shape)),
                np.broadcast_to(traj.relatives, (k, *traj.relatives.shape)))
    if calib is None:
        raise ConfigError("noise scale > 0 requires a NoiseCalibration")
    h = traj.horizon
    if calib.horizon < h:
        raise ConfigError(f"noise calibration covers {calib.horizon} horizons, need {h}")
    scale = sigma * np.sqrt(calib.sigma2[:h])[:, None, None]
    states = traj.states + rng.standard_normal((k, *traj.states.shape)) * scale
    z_close = states[..., 4]
    if traj.normalizer is not None:
        z_close = traj.normalizer.mean[:, 4] + traj.normalizer.std[:, 4] * z_close
    return states, np.maximum(1.0 + z_close, RELATIVE_FLOOR)
