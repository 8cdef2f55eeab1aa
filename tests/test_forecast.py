import numpy as np
import pytest

from conftest import make_jittered_series, make_series, random_walk_closes
from mpcfolio.errors import (
    ConditioningError,
    ConfigError,
    CoverageError,
    DataError,
    FeatureError,
    InfeasibleTargetError,
    NumericError,
)
from mpcfolio.forecast import (
    PRICE_FLOOR_FRAC,
    CheatForecaster,
    ContextMeanForecaster,
    ExternalForecastSource,
    PerfectForecaster,
    RidgeForecaster,
    ZeroForecaster,
    build_trajectories,
    build_trajectory,
    calibrate_cheat,
    collect_forecast_grid,
    context_mean_baseline,
    fit_noise_calibration,
    fit_ridge,
    perturb,
    r_squared,
    RidgeModel,
    ridge_solve,
)
from mpcfolio.marketdata import (
    WARMUP_DAYS,
    FeatureView,
    compute_features,
    features_from_closes,
    fit_normalizer,
)
from oracles import context_mean_oracle, series_slice_mean_features, slice_mean_features


class TestContextMeanBaseline:
    def test_equal_movements(self):
        closes = (100 + 2.5 * np.arange(60))[:, None]
        series = make_series(closes)
        assert context_mean_baseline(series, 40, 10) == pytest.approx([2.5])

    def test_two_movement_mean(self):
        closes = np.concatenate([np.full(40, 100.0), [101.0, 104.0, 104.0]])[:, None]
        series = make_series(closes)
        # movements before t=42: [1, 3] -> mean 2
        assert context_mean_baseline(series, 42, 2) == pytest.approx([2.0])

    def test_matches_bruteforce(self, rng):
        series = make_series(random_walk_closes(rng, 80, 3))
        for t, window in ((40, 5), (60, 30), (79, 12)):
            got = context_mean_baseline(series, t, window)
            want = np.asarray(context_mean_oracle(series, t, window))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_insufficient_history(self):
        series = make_series(np.full((50, 1), 10.0))
        from mpcfolio.errors import FeatureError

        with pytest.raises(FeatureError):
            context_mean_baseline(series, 10, 10)


class TestRidgeSolve:
    def test_recovers_exact_linear_target(self, rng):
        x = rng.standard_normal((200, 11))
        beta = rng.standard_normal(11)
        y = x @ beta + 0.7
        model = ridge_solve(x, y, 1e-12)
        assert np.max(np.abs(model.coef - beta)) < 1e-6
        assert model.intercept == pytest.approx(0.7, abs=1e-6)

    def test_large_lambda_predicts_mean(self, rng):
        x = rng.standard_normal((100, 11))
        y = rng.standard_normal(100)
        model = ridge_solve(x, y, 1e12)
        assert np.max(np.abs(model.coef)) < 1e-9
        assert model.intercept == pytest.approx(y.mean(), abs=1e-6)

    def test_singular_without_regularization(self):
        x = np.ones((50, 11))  # rank-0 centered design
        y = np.arange(50.0)
        with pytest.raises(ConditioningError):
            ridge_solve(x, y, 0.0)


class TestFitRidge:
    def _linear_series(self, slope=0.6, offset=0.0004, t=260, seed=0):
        # return at t+1 is an exact linear function of the day-t one-day return
        closes = np.empty((t, 1))
        closes[:31, 0] = 100 + 0.1 * np.arange(31)
        for i in range(30, t - 1):
            z_close = closes[i, 0] / closes[i - 1, 0] - 1.0
            closes[i + 1, 0] = closes[i, 0] * (1.0 + slope * z_close + offset)
        return make_jittered_series(np.random.default_rng(seed), closes)

    def test_exact_linear_target_recovered(self):
        series = self._linear_series()
        norm = fit_normalizer(series, "train")
        model = fit_ridge(series, 1, 0, 1e-10, normalizer=norm)
        for split in ("train", "test"):
            start, stop = series.usable_range(split)
            for t in range(start, stop - 1):
                pred = model.predict(norm.apply(compute_features(series, t))[0])
                target = series.close[t + 1, 0] / series.close[t, 0] - 1.0
                assert abs(pred - target) < 1e-6

    def test_huge_lambda_returns_intercept(self):
        series = self._linear_series(seed=2)
        norm = fit_normalizer(series, "train")
        model = fit_ridge(series, 1, 0, 1e12, normalizer=norm)
        start, stop = series.usable_range("train")
        targets = [series.close[t + 1, 0] / series.close[t, 0] - 1.0
                   for t in range(start, stop - 1)]
        assert np.max(np.abs(model.coef)) < 1e-9
        assert model.intercept == pytest.approx(np.mean(targets), abs=1e-9)

    def test_needs_enough_rows(self):
        closes = random_walk_closes(np.random.default_rng(0), 110, 1)
        series = make_jittered_series(np.random.default_rng(1), closes)
        with pytest.raises(DataError):
            fit_ridge(series, 30, 0, 1e-3)  # train rows shrink below 50

    def test_pure_noise_has_no_out_of_sample_skill(self):
        r2s = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            closes = random_walk_closes(rng, 240, 1, drift=0.0, vol=0.01)
            series = make_jittered_series(np.random.default_rng(seed + 100), closes)
            forecaster = RidgeForecaster.fit(series, horizon=1, lambda_reg=1.0)
            preds, reals, bases = collect_forecast_grid(forecaster, series, 1,
                                                        "test", 30)
            r2s.append(r_squared(preds, reals, bases))
        assert np.mean(r2s) <= 0.02

    def test_planted_signal_is_learnable(self):
        from mpcfolio.harness import SyntheticMarketSpec, generate_synthetic

        series = generate_synthetic(SyntheticMarketSpec(
            n_assets=5, length=460, signal_strength=0.004, volatility=0.005,
            drift=0.0, seed=3))
        forecaster = RidgeForecaster.fit(series, horizon=1, lambda_reg=10.0)
        preds, reals, bases = collect_forecast_grid(forecaster, series, 1, "test", 30)
        assert r_squared(preds, reals, bases) > 0.0


class TestTrajectory:
    def test_zero_movement_constant_path(self, small_market):
        t = small_market.usable_range("test")[0]
        traj = build_trajectory(ZeroForecaster(), small_market, t, 4)
        assert np.all(traj.prices == small_market.close[t])
        assert np.all(traj.relatives == 1.0)
        # flat path: intraday, adjusted and one-day-return features all zero
        assert np.all(traj.states[:, :, :5] == 0.0)

    def test_horizon_one(self, small_market):
        t = small_market.usable_range("test")[0]
        traj = build_trajectory(ZeroForecaster(), small_market, t, 1)
        assert traj.states.shape[0] == 1
        assert traj.relatives.shape == (1, small_market.n_assets)

    def test_perfect_foresight_matches_realized_states(self, rng):
        closes = random_walk_closes(rng, 200, 2)
        series = make_series(closes)  # flat intraday bars: open=high=low=adj=close
        t = series.usable_range("test")[0] + 3
        h = 6
        traj = build_trajectory(PerfectForecaster(), series, t, h, normalizer=None)
        for j in range(1, h + 1):
            realized = compute_features(series, t + j)
            assert np.max(np.abs(traj.states[j - 1] - realized)) < 1e-9
        realized_rel = series.close[t + 1 : t + h + 1] / series.close[t : t + h]
        assert np.max(np.abs(traj.relatives - realized_rel)) < 1e-12

    def test_context_mean_source_shape(self, small_market):
        t = small_market.usable_range("test")[0]
        traj = build_trajectory(ContextMeanForecaster(10), small_market, t, 3)
        assert traj.prices.shape == (3, small_market.n_assets)

    def test_forecast_ignores_future_bars(self, rng):
        closes = random_walk_closes(rng, 260, 2)
        series = make_jittered_series(np.random.default_rng(8), closes)
        forecaster = RidgeForecaster.fit(series, horizon=3, lambda_reg=1e-3)
        t = series.usable_range("test")[0] + 5
        before = forecaster.predict_movements(series, t, 3)
        scale = np.where(np.arange(260)[:, None] > t + 3, 2.0, 1.0)
        mutated = make_series(series.close * scale, open_=series.open * scale,
                              high=series.high * scale, low=series.low * scale,
                              adj_close=series.adj_close * scale)
        after = forecaster.predict_movements(mutated, t, 3)
        assert np.array_equal(before, after)


class TestBuildTrajectories:
    """The whole-split builder against one-date references, byte for byte."""

    @pytest.fixture(scope="class")
    def sources(self):
        from mpcfolio.harness import SyntheticMarketSpec, generate_synthetic

        series = generate_synthetic(SyntheticMarketSpec(
            n_assets=3, length=300, signal_strength=0.003, volatility=0.01, seed=42))
        ridge = RidgeForecaster.fit(series, horizon=10, lambda_reg=10.0)
        rng = np.random.default_rng(4)
        start, stop = series.usable_range("test")
        cells = {(series.dates[t], asset, h): float(rng.standard_normal())
                 for t in range(start, stop) for asset in series.assets for h in range(1, 11)}
        return series, {
            "ridge": ridge,
            "cheat": CheatForecaster(ridge, 0.4),
            "perfect": PerfectForecaster(),
            "zero": ZeroForecaster(),
            "context": ContextMeanForecaster(10),
            "external": ExternalForecastSource(cells),
        }

    @staticmethod
    def _reference(source, series, t, horizon):
        """Prices, relatives and raw states of one date, one day at a time."""
        moves = source.predict_movements(series, t, horizon)
        p_t = series.close[t]
        prices = np.maximum(p_t + np.cumsum(moves, axis=0), PRICE_FLOOR_FRAC * p_t)
        relatives = prices / np.vstack([p_t, prices[:-1]])
        spliced = np.vstack([series.close[t - WARMUP_DAYS + 1 : t + 1], prices])
        states = np.stack([slice_mean_features(spliced, WARMUP_DAYS + j)
                           for j in range(horizon)])
        return prices, relatives, states

    @pytest.mark.parametrize("name", ["ridge", "cheat", "perfect", "zero", "context",
                                      "external"])
    @pytest.mark.parametrize("horizon", [1, 5, 10])
    def test_matches_one_date_references(self, sources, name, horizon):
        series, by_name = sources
        source = by_name[name]
        start, stop = series.usable_range("test")
        horizons = {t: min(horizon, source.available_horizon(series, t))
                    for t in range(start, stop - 1)}
        if name in ("cheat", "perfect") and horizon > 1:
            assert min(horizons.values()) < horizon  # the split's tail is short
        norm = FeatureView(series).normalizer("test")
        for normalizer in (None, norm):
            built = build_trajectories(source, series, horizons, normalizer)
            assert not built.rejected
            for t, h in horizons.items():
                got = built.at(t)
                one = build_trajectory(source, series, t, h, normalizer=normalizer)
                prices, relatives, states = self._reference(source, series, t, h)
                if normalizer is not None:
                    states = normalizer.apply(states)
                assert got.base_t == t and got.horizon == h and got.normalizer is normalizer
                for traj in (got, one):
                    assert traj.prices.tobytes() == prices.tobytes()
                    assert traj.relatives.tobytes() == relatives.tobytes()
                    assert traj.states.tobytes() == states.tobytes()
                    assert not any(a.flags.writeable
                                   for a in (traj.prices, traj.relatives, traj.states))

    def test_rejected_dates_stand_alone(self, small_market):
        start, stop = small_market.usable_range("test")
        t_nan, t_raise = start + 3, start + 7

        class FailsAtTwoDates(PerfectForecaster):
            def predict_movements(self, series, t, horizon):
                if t == t_raise:
                    raise NumericError("injected failure")
                out = super().predict_movements(series, t, horizon)
                if t == t_nan:
                    out[1, 0] = np.inf
                return out

        horizons = dict.fromkeys(range(start, start + 10), 3)
        built = build_trajectories(FailsAtTwoDates(), small_market, horizons)
        assert set(built.rejected) == {t_nan, t_raise}
        with pytest.raises(NumericError, match=f"base date {small_market.dates[t_nan]}"):
            built.at(t_nan)
        with pytest.raises(NumericError, match="injected failure"):
            built.at(t_raise)
        clean = build_trajectories(PerfectForecaster(), small_market, horizons)
        for t in set(horizons) - {t_nan, t_raise}:
            assert built.at(t).states.tobytes() == clean.at(t).states.tobytes()
        assert built.at(stop) is None  # not asked for

    def test_other_errors_propagate(self, small_market):
        start, _ = small_market.usable_range("test")
        with pytest.raises(CoverageError):
            build_trajectories(ExternalForecastSource({}), small_market, {start: 2})
        with pytest.raises(FeatureError):
            build_trajectories(ZeroForecaster(), small_market, {WARMUP_DAYS - 1: 2})
        with pytest.raises(ConfigError):
            build_trajectories(ZeroForecaster(), small_market, {start: 0})


class TestRSquared:
    def test_perfect_prediction(self, rng):
        y = rng.standard_normal(50)
        b = y + rng.standard_normal(50)
        assert r_squared(y, y, b) == pytest.approx(1.0)

    def test_baseline_prediction_scores_zero(self, rng):
        y = rng.standard_normal(50)
        b = y + rng.standard_normal(50)
        assert r_squared(b, y, b) == pytest.approx(0.0)

    def test_half_errors_give_three_quarters(self, rng):
        y = rng.standard_normal(50)
        b = y + rng.standard_normal(50)
        pred = y + 0.5 * (b - y)
        assert r_squared(pred, y, b) == pytest.approx(0.75)

    def test_degenerate_baseline(self):
        y = np.array([1.0, 2.0])
        with pytest.raises(DataError):
            r_squared(y, y, y)


class TestCalibrateCheat:
    def _setup(self, rng, r0):
        y = rng.standard_normal(400)
        b = y + rng.standard_normal(400)
        base = y + np.sqrt(1.0 - r0) * (b - y)
        assert r_squared(base, y, b) == pytest.approx(r0, abs=1e-12)
        return base, y, b

    def test_target_equal_to_base_keeps_forecast(self, rng):
        base, y, b = self._setup(rng, 0.01)
        calib, blended = calibrate_cheat(base, y, b, 0.01)
        assert calib.c == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(blended - base)) < 1e-12

    def test_target_one_gives_perfect_foresight(self, rng):
        base, y, b = self._setup(rng, 0.0)
        calib, blended = calibrate_cheat(base, y, b, 1.0)
        assert calib.c == 1.0
        assert np.array_equal(blended, y)

    def test_hand_value_r0_zero_target_three_quarters(self, rng):
        base, y, b = self._setup(rng, 0.0)
        calib, blended = calibrate_cheat(base, y, b, 0.75)
        assert calib.c == pytest.approx(0.5, abs=1e-9)
        assert r_squared(blended, y, b) == pytest.approx(0.75, abs=1e-9)

    def test_infeasible_target(self, rng):
        base, y, b = self._setup(rng, 0.3)
        with pytest.raises(InfeasibleTargetError):
            calibrate_cheat(base, y, b, 0.1)

    def test_achieved_monotone_in_c(self, rng):
        base, y, b = self._setup(rng, -0.2)
        scores = []
        for c in np.linspace(0.0, 1.0 - 1e-9, 8):
            blended = (1 - c) * base + c * y
            scores.append(r_squared(blended, y, b))
        assert all(s2 > s1 for s1, s2 in zip(scores, scores[1:]))

    def test_calibrated_forecaster_on_series(self, small_market):
        cheat = CheatForecaster.calibrate(ZeroForecaster(), small_market, 0.5,
                                          horizon=3, split="test")
        assert cheat.calibration.achieved_r2 == pytest.approx(0.5, abs=1e-9)
        t = small_market.usable_range("test")[0]
        pred = cheat.predict_movements(small_market, t, 3)
        real = PerfectForecaster().predict_movements(small_market, t, 3)
        assert np.max(np.abs(pred - cheat.c * real)) < 1e-12  # zero base

    def test_one_grid_serves_every_target(self, small_market):
        base = RidgeForecaster.fit(small_market, horizon=3, lambda_reg=10.0)
        grid = collect_forecast_grid(base, small_market, 3, "test")
        for target in (0.3, 0.6, 1.0):
            shared = CheatForecaster.from_grid(base, grid, target)
            alone = CheatForecaster.calibrate(base, small_market, target, horizon=3)
            assert shared.c == alone.c
            assert shared.calibration.to_dict() == alone.calibration.to_dict()


class TestNoise:
    def test_sigma_zero_identity(self, small_market):
        t = small_market.usable_range("test")[0]
        traj = build_trajectory(ZeroForecaster(), small_market, t, 2)
        rng = np.random.default_rng(0)
        states, relatives = perturb(traj, None, 0.0, 4, rng)
        assert states.shape == (4, *traj.states.shape)
        assert relatives.shape == (4, *traj.relatives.shape)
        for k in range(4):
            assert states[k].tobytes() == traj.states.tobytes()
            assert relatives[k].tobytes() == traj.relatives.tobytes()
        assert np.shares_memory(states, traj.states) and not states.flags.writeable
        assert rng.standard_normal() == np.random.default_rng(0).standard_normal()

    def test_one_draw_equals_one_draw_per_particle(self, small_market):
        from mpcfolio.marketdata import FeatureView

        view = FeatureView(small_market)
        norm = view.normalizer("test")
        calib = fit_noise_calibration(ZeroForecaster(), small_market, 3,
                                      normalizer=view.normalizer("train"), split="train")
        t = small_market.usable_range("test")[0]
        traj = build_trajectory(ZeroForecaster(), small_market, t, 3, normalizer=norm)
        states, relatives = perturb(traj, calib, 0.5, 4, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        scale = 0.5 * np.sqrt(calib.sigma2)[:, None, None]
        for k in range(4):
            want = traj.states + rng.standard_normal(traj.states.shape) * scale
            z = norm.mean[:, 4] + norm.std[:, 4] * want[:, :, 4]
            assert states[k].tobytes() == want.tobytes()
            assert relatives[k].tobytes() == np.maximum(1.0 + z, 1e-6).tobytes()

    def test_constant_predictions_have_zero_variance(self):
        # constant market + zero-movement forecasts: every imagined state is 0,
        # so the per-horizon variance vanishes and noise stays off at any sigma
        series = make_series(np.full((200, 2), 80.0))
        calib = fit_noise_calibration(ZeroForecaster(), series, 2,
                                      normalizer=None, split="train")
        assert np.all(calib.sigma2 == 0.0)
        t = series.usable_range("test")[0]
        traj = build_trajectory(ZeroForecaster(), series, t, 2, normalizer=None)
        states, relatives = perturb(traj, calib, 0.7, 3, np.random.default_rng(0))
        for k in range(3):
            assert np.array_equal(states[k], traj.states)
            assert np.array_equal(relatives[k], traj.relatives)

    def test_empirical_variance_matches_calibration(self, small_market):
        from mpcfolio.marketdata import FeatureView

        view = FeatureView(small_market)
        norm = view.normalizer("train")
        calib = fit_noise_calibration(ZeroForecaster(), small_market, 2,
                                      normalizer=norm, split="train")
        t = small_market.usable_range("test")[0]
        traj = build_trajectory(ZeroForecaster(), small_market, t,
                                2, normalizer=view.normalizer("test"))
        rng = np.random.default_rng(99)
        sigma = 0.5
        states, _ = perturb(traj, calib, sigma, 10_000, rng)
        eps = states - traj.states
        for h in range(2):
            empirical = eps[:, h].var()
            expected = sigma ** 2 * calib.sigma2[h]
            assert abs(empirical - expected) / expected < 0.05

    def test_noisy_relatives_follow_return_channel(self, small_market):
        from mpcfolio.marketdata import FeatureView

        view = FeatureView(small_market)
        norm = view.normalizer("test")
        calib = fit_noise_calibration(ZeroForecaster(), small_market, 2,
                                      normalizer=view.normalizer("train"), split="train")
        t = small_market.usable_range("test")[0]
        traj = build_trajectory(ZeroForecaster(), small_market, t, 2, normalizer=norm)
        states, relatives = perturb(traj, calib, 0.5, 1, np.random.default_rng(3))
        z = norm.mean[:, 4] + norm.std[:, 4] * states[0, :, :, 4]
        assert np.max(np.abs(relatives[0] - np.maximum(1.0 + z, 1e-6))) == 0.0


class TestExternalSource:
    def _write(self, path, rows):
        lines = ["base_date,asset,horizon,predicted_movement\n"]
        lines += [f"{d},{a},{h},{m}\n" for d, a, h, m in rows]
        path.write_text("".join(lines), encoding="utf-8")

    def test_roundtrip(self, tmp_path, small_market):
        t = small_market.usable_range("test")[0]
        date = small_market.dates[t]
        rows = [(date.isoformat(), asset, h, 0.25 * h)
                for asset in small_market.assets for h in (1, 2)]
        f = tmp_path / "fc.csv"
        self._write(f, rows)
        source = ExternalForecastSource.from_csv(f)
        out = source.predict_movements(small_market, t, 2)
        assert np.all(out[0] == 0.25)
        assert np.all(out[1] == 0.5)
        source.validate_coverage(small_market, [t], 2)

    def test_missing_cell_is_coverage_error(self, tmp_path, small_market):
        t = small_market.usable_range("test")[0]
        date = small_market.dates[t]
        rows = [(date.isoformat(), asset, 1, 0.1) for asset in small_market.assets[:-1]]
        f = tmp_path / "fc.csv"
        self._write(f, rows)
        source = ExternalForecastSource.from_csv(f)
        with pytest.raises(CoverageError):
            source.predict_movements(small_market, t, 1)

    def test_missing_columns(self, tmp_path):
        f = tmp_path / "fc.csv"
        f.write_text("base_date,asset\n2020-01-01,A\n", encoding="utf-8")
        with pytest.raises(DataError):
            ExternalForecastSource.from_csv(f)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row(self, tmp_path, cell):
        f = tmp_path / "fc.csv"
        self._write(f, [("2020-01-02", "A0", 1, 0.5), ("2020-01-02", "A1", 1, cell)])
        with pytest.raises(DataError, match=r"non-finite predicted_movement in row 3"):
            ExternalForecastSource.from_csv(f)


class TestBatchedRidge:
    """The stacked forecaster against per-model, per-day references, byte for byte."""

    @pytest.fixture(scope="class")
    def fitted(self):
        from mpcfolio.harness import SyntheticMarketSpec, generate_synthetic

        series = generate_synthetic(SyntheticMarketSpec(
            n_assets=5, length=460, signal_strength=0.004, volatility=0.005, seed=1))
        return series, RidgeForecaster.fit(series, horizon=5, lambda_reg=10.0)

    @staticmethod
    def _composed(forecaster, series, t, horizon):
        """Predicted movements, one RidgeModel.predict per (asset, horizon)."""
        feats = forecaster.normalizer.apply(series_slice_mean_features(series, t))
        out = np.empty((horizon, series.n_assets))
        price = series.close[t].copy()
        for h in range(1, horizon + 1):
            rets = np.array([forecaster.models[(i, h)].predict(feats[i])
                             for i in range(series.n_assets)])
            out[h - 1] = price * rets
            price = np.maximum(price + out[h - 1], PRICE_FLOOR_FRAC * series.close[t])
        return out

    def test_fit_matches_per_day_rows(self, fitted):
        series, forecaster = fitted
        norm = forecaster.normalizer
        start, stop = series.usable_range("train")
        for (i, h), model in forecaster.models.items():
            ts = range(start, stop - h)
            rows = np.asarray([norm.apply(series_slice_mean_features(series, t))[i]
                               for t in ts])
            targets = np.asarray([(series.close[t + h, i] - series.close[t + h - 1, i])
                                  / series.close[t + h - 1, i] for t in ts])
            want = ridge_solve(rows, targets, 10.0)
            assert model.coef.tobytes() == want.coef.tobytes()
            assert model.intercept == want.intercept

    def test_predict_matches_per_model_composition(self, fitted):
        series, forecaster = fitted
        for t in range(WARMUP_DAYS, series.n_days):
            for horizon in (1, 5):
                got = forecaster.predict_movements(series, t, horizon)
                assert got.tobytes() == self._composed(forecaster, series, t, horizon).tobytes()

    def test_predict_matches_on_random_models(self, fitted):
        series, forecaster = fitted
        rng = np.random.default_rng(0)
        for _ in range(40):
            models = {key: RidgeModel(coef=rng.standard_normal(11) * 10.0 ** rng.integers(-6, 2),
                                      intercept=float(rng.standard_normal() * 1e-3))
                      for key in forecaster.models}
            random = RidgeForecaster(models, 5, forecaster.normalizer)
            t = int(rng.integers(WARMUP_DAYS, series.n_days))
            got = random.predict_movements(series, t, 5)
            assert got.tobytes() == self._composed(random, series, t, 5).tobytes()

    def test_dict_roundtrip_predicts_same_bytes(self, fitted):
        import json

        series, forecaster = fitted
        again = RidgeForecaster.from_dict(json.loads(json.dumps(forecaster.to_dict())))
        for t in range(WARMUP_DAYS, series.n_days, 7):
            assert (again.predict_movements(series, t, 5).tobytes()
                    == forecaster.predict_movements(series, t, 5).tobytes())

    def test_trajectory_states_match_per_day_features(self, fitted):
        series, forecaster = fitted
        norm = FeatureView(series).normalizer("test")
        start, stop = series.usable_range("test")
        for t in range(start, stop - 1):
            traj = build_trajectory(forecaster, series, t, 5, normalizer=norm)
            spliced = np.vstack([series.close[t - WARMUP_DAYS + 1 : t + 1], traj.prices])
            for h in range(1, 6):
                day = WARMUP_DAYS - 1 + h
                raw = features_from_closes(spliced, day)
                assert raw.tobytes() == slice_mean_features(spliced, day).tobytes()
                assert traj.states[h - 1].tobytes() == norm.apply(raw).tobytes()
