import datetime as dt
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_jittered_series, make_series, random_walk_closes
from mpcfolio.errors import DataError, DegenerateFeatureError, FeatureError
from mpcfolio.marketdata import (
    FEATURE_NAMES,
    WARMUP_DAYS,
    FeatureView,
    MarketSeries,
    compute_feature_range,
    compute_features,
    feature_range_from_closes,
    fit_normalizer,
    load_csv,
    trading_dates,
)
from oracles import features_oracle, series_slice_mean_features, slice_mean_features

README_MARKET = dict(n_assets=5, length=460, signal_strength=0.004, volatility=0.005, seed=1)


def test_constant_prices_give_zero_features():
    series = make_series(np.full((80, 2), 50.0))
    feats = compute_features(series, 40)
    assert np.all(feats == 0.0)


def test_z_close_direct_formula():
    closes = np.full((80, 1), 100.0)
    closes[40, 0] = 102.0
    series = make_series(closes)
    feats = compute_features(series, 40)
    assert feats[0, FEATURE_NAMES.index("z_close")] == pytest.approx(0.02, abs=1e-15)


def test_z_d_5_hand_value():
    # last five closes 100,100,100,100,110 -> mean 102, ratio 102/110 - 1
    closes = np.full((80, 1), 100.0)
    closes[40, 0] = 110.0
    series = make_series(closes)
    feats = compute_features(series, 40)
    expected = 102.0 / 110.0 - 1.0
    assert feats[0, FEATURE_NAMES.index("z_d_5")] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.0727272727, abs=1e-9)


def test_features_match_bruteforce_oracle(rng):
    closes = random_walk_closes(rng, 90, 3)
    opens = closes * (1 + 0.002 * rng.standard_normal(closes.shape))
    high = np.maximum(opens, closes) * (1 + 0.003 * np.abs(rng.standard_normal(closes.shape)))
    low = np.minimum(opens, closes) * (1 - 0.003 * np.abs(rng.standard_normal(closes.shape)))
    adj = closes * (0.97 + 0.01 * rng.random(closes.shape))
    series = make_series(closes, open_=opens, high=high, low=low, adj_close=adj)
    for t in (30, 45, 60, 89):
        got = compute_features(series, t)
        want = np.asarray(features_oracle(series, t))
        assert np.max(np.abs(got - want)) < 1e-12


def test_features_require_warmup():
    series = make_series(np.full((80, 1), 10.0))
    with pytest.raises(FeatureError):
        compute_features(series, 29)


def test_no_lookahead_in_raw_features(rng):
    closes = random_walk_closes(rng, 100, 2)
    series = make_series(closes)
    t = 50
    before = compute_features(series, t)
    mutated = closes.copy()
    mutated[60:] *= 3.0
    series2 = make_series(mutated)
    assert np.array_equal(before, compute_features(series2, t))


class TestNormalizer:
    def test_fit_gives_unit_stats(self, small_market):
        norm = fit_normalizer(small_market, "train")
        start, stop = small_market.usable_range("train")
        rows = np.stack([norm.apply(compute_features(small_market, t))
                         for t in range(start, stop)])
        assert np.max(np.abs(rows.mean(axis=0))) < 1e-9
        assert np.max(np.abs(rows.std(axis=0, ddof=1) - 1.0)) < 1e-9

    def test_two_point_column_hand_values(self):
        # column [1, 3]: mean 2, sample std sqrt(2), normalized +/- 0.7071...
        vals = np.array([1.0, 3.0])
        mean, std = vals.mean(), vals.std(ddof=1)
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(np.sqrt(2.0))
        normed = (vals - mean) / std
        assert normed == pytest.approx([-0.7071067811, 0.7071067811], abs=1e-9)

    def test_already_standardized_is_identity(self, small_market):
        norm = fit_normalizer(small_market, "train")
        start, stop = small_market.usable_range("train")
        rows = np.stack([norm.apply(compute_features(small_market, t))
                         for t in range(start, stop)])
        # refit on the standardized rows: mean ~ 0, std ~ 1
        mean = rows.mean(axis=0)
        std = rows.std(axis=0, ddof=1)
        assert np.max(np.abs(mean)) < 1e-9
        assert np.max(np.abs(std - 1.0)) < 1e-9
        twice = (rows[0] - mean) / std
        assert np.max(np.abs(twice - rows[0])) < 1e-9

    def test_constant_column_is_degenerate(self):
        closes = np.full((120, 1), 10.0)
        closes[:, 0] = 10.0 + 0.01 * np.arange(120)  # moving series but flat intraday
        series = make_series(closes)  # open=high=low=close -> z_open constant 0
        with pytest.raises(DegenerateFeatureError) as err:
            fit_normalizer(series, "train")
        assert "z_open" in str(err.value) or "A0" in str(err.value)

    def test_roundtrip_inversion(self, small_market):
        norm = fit_normalizer(small_market, "train")
        raw = compute_features(small_market, 40)
        back = norm.invert(norm.apply(raw))
        assert np.max(np.abs(back - raw)) < 1e-9

    def test_stats_ignore_out_of_split_data(self, rng):
        closes = random_walk_closes(rng, 200, 2)
        series = make_jittered_series(np.random.default_rng(5), closes)
        norm = fit_normalizer(series, "train")
        scale = np.where(np.arange(200)[:, None] >= 150, 10.0, 1.0)  # test split only
        series2 = make_series(series.close * scale, open_=series.open * scale,
                              high=series.high * scale, low=series.low * scale,
                              adj_close=series.adj_close * scale)
        norm2 = fit_normalizer(series2, "train")
        assert np.array_equal(norm.mean, norm2.mean)
        assert np.array_equal(norm.std, norm2.std)


class TestLoadCsv:
    HEADER = "date,open,high,low,close,adj_close\n"

    def _write_asset(self, path, rows):
        path.write_text(self.HEADER + "".join(rows), encoding="utf-8")

    def _rows(self, dates, price=100.0):
        return [f"{d},{price},{price * 1.01},{price * 0.99},{price},{price}\n" for d in dates]

    def test_directory_layout(self, tmp_path):
        dates = [d.isoformat() for d in trading_dates(dt.date(2020, 1, 1), 50)]
        self._write_asset(tmp_path / "AAA.csv", self._rows(dates))
        self._write_asset(tmp_path / "BBB.csv", self._rows(dates, price=20.0))
        series = load_csv(tmp_path, split_fracs=(0.6, 0.2))
        assert series.assets == ["AAA", "BBB"]
        assert series.n_days == 50
        assert series.split_bounds["train"] == (0, 30)

    def test_long_format_single_file(self, tmp_path):
        dates = [d.isoformat() for d in trading_dates(dt.date(2020, 1, 1), 10)]
        lines = ["date,open,high,low,close,adj_close,asset\n"]
        for asset in ("X", "Y"):
            for d in dates:
                lines.append(f"{d},5,5.1,4.9,5,5,{asset}\n")
        f = tmp_path / "all.csv"
        f.write_text("".join(lines), encoding="utf-8")
        series = load_csv(f)
        assert series.assets == ["X", "Y"]
        assert series.n_days == 10

    def test_single_row_single_asset(self, tmp_path):
        self._write_asset(tmp_path / "solo.csv", self._rows(["2020-01-02"]))
        series = load_csv(tmp_path / "solo.csv", split_fracs=(0.5, 0.25))
        assert series.n_assets == 1 and series.n_days == 1

    def test_malformed_row_reports_line_number(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text(self.HEADER + "2020-01-02,1,2,0.5,1,1\nnot-a-date,1,2,0.5,1,1\n",
                     encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_csv(f)
        assert "row 3" in str(err.value)

    def test_high_below_low_names_row(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text(self.HEADER + "2020-01-02,100,90,110,100,100\n", encoding="utf-8")
        with pytest.raises(DataError) as err:
            load_csv(f)
        assert "row 2" in str(err.value)

    def test_non_positive_price_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text(self.HEADER + "2020-01-02,0,1,0,1,1\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_csv(f)

    def test_misaligned_assets_listed(self, tmp_path):
        dates = [d.isoformat() for d in trading_dates(dt.date(2020, 1, 1), 6)]
        self._write_asset(tmp_path / "AAA.csv", self._rows(dates))
        self._write_asset(tmp_path / "BBB.csv", self._rows(dates[:-1]))
        with pytest.raises(DataError) as err:
            load_csv(tmp_path)
        assert "BBB" in str(err.value)

    def test_schema_mapping(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("day,o,h,l,c,ac\n2020-01-02,1,1.1,0.9,1,1\n2020-01-03,1,1.1,0.9,1,1\n",
                     encoding="utf-8")
        schema = {"date": "day", "open": "o", "high": "h", "low": "l",
                  "close": "c", "adj_close": "ac"}
        series = load_csv(f, schema=schema, split_fracs=(0.5, 0.25))
        assert series.n_days == 2

    def test_split_dates(self, tmp_path):
        dates = [d.isoformat() for d in trading_dates(dt.date(2020, 1, 1), 20)]
        self._write_asset(tmp_path / "A.csv", self._rows(dates))
        series = load_csv(tmp_path / "A.csv", split_dates=(dates[9], dates[14]))
        assert series.split_bounds == {"train": (0, 10), "valid": (10, 15), "test": (15, 20)}


class TestMarketSeries:
    def test_split_invariants_enforced(self):
        closes = np.full((50, 1), 3.0)
        with pytest.raises(DataError):
            MarketSeries(["A"], trading_dates(dt.date(2020, 1, 1), 50),
                         closes, closes, closes, closes, closes,
                         {"train": (0, 20), "valid": (25, 40), "test": (40, 50)})

    def test_usable_range_drops_warmup(self, small_market):
        start, _ = small_market.usable_range("train")
        assert start == 30

    def test_relatives(self):
        closes = np.array([[100.0], [110.0], [99.0]])
        series = make_series(np.vstack([np.full((57, 1), 100.0), closes]))
        t = 57
        assert series.relatives(t)[0] == pytest.approx(1.1)

    def test_price_arrays_are_read_only_copies(self, rng):
        closes = random_walk_closes(rng, 80, 2)
        series = make_jittered_series(rng, closes)
        for name in ("open", "high", "low", "close", "adj_close"):
            with pytest.raises(ValueError):
                getattr(series, name)[0, 0] = 1.0
        before = series.close.copy()
        closes[:] = 1.0  # the caller's array, not the series'
        assert np.array_equal(series.close, before)

    def test_raw_feature_tensor_is_built_once(self, small_market):
        raw = small_market.raw_features()
        assert raw is small_market.raw_features()
        assert raw.shape == (small_market.n_days - WARMUP_DAYS, 3, 11)
        assert not raw.flags.writeable
        t = 77
        assert compute_features(small_market, t).tobytes() == raw[t - WARMUP_DAYS].tobytes()
        assert np.shares_memory(compute_feature_range(small_market, 40, 90), raw)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_feature_oracle_property(seed):
    rng = np.random.default_rng(seed)
    closes = random_walk_closes(rng, 60 + int(rng.integers(0, 40)), 2)
    series = make_series(closes)
    t = int(rng.integers(30, series.n_days))
    got = compute_features(series, t)
    want = np.asarray(features_oracle(series, t))
    assert np.max(np.abs(got - want)) < 1e-12


def test_feature_view_uses_split_of_t(small_market):
    view = FeatureView(small_market)
    t_train = 40
    t_test = small_market.usable_range("test")[0]
    assert view.split_of(t_train) == "train"
    assert view.split_of(t_test) == "test"
    st_train = view.state(t_train)
    assert st_train.values.shape == (3, 11)
    assert np.all(np.isfinite(st_train.values))


class TestWindowKernel:
    """The windowed kernel against the per-day slice-mean formula, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_range_matches_per_day_formula(self, seed):
        rng = np.random.default_rng(seed)
        n_days = 31 + int(rng.integers(0, 250))
        closes = random_walk_closes(rng, n_days, 1 + int(rng.integers(0, 5)))
        series = make_jittered_series(rng, closes)
        t0 = int(rng.integers(30, n_days))
        t1 = int(rng.integers(t0 + 1, n_days + 1))
        got = compute_feature_range(series, t0, t1)
        want = np.stack([series_slice_mean_features(series, t) for t in range(t0, t1)])
        assert got.tobytes() == want.tobytes()
        flat = feature_range_from_closes(series.close, t0, t1)
        want = np.stack([slice_mean_features(series.close, t) for t in range(t0, t1)])
        assert flat.tobytes() == want.tobytes()
        one_day = feature_range_from_closes(series.close, t0, t0 + 1)[0]
        assert one_day.tobytes() == want[0].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_batch_matches_one_path_at_a_time(self, seed):
        rng = np.random.default_rng(seed)
        batch = tuple(int(b) for b in rng.integers(1, 6, size=int(rng.integers(1, 3))))
        n_days = 31 + int(rng.integers(0, 40))
        n_assets = 1 + int(rng.integers(0, 5))
        closes = np.stack([random_walk_closes(rng, n_days, n_assets)
                           for _ in range(int(np.prod(batch)))]).reshape(*batch, n_days, n_assets)
        t0 = int(rng.integers(30, n_days))
        t1 = int(rng.integers(t0 + 1, n_days + 1))
        got = feature_range_from_closes(closes, t0, t1)
        assert got.shape == (*batch, t1 - t0, n_assets, 11)
        for idx in np.ndindex(*batch):
            assert got[idx].tobytes() == feature_range_from_closes(closes[idx], t0, t1).tobytes()

    def test_range_bounds(self, small_market):
        with pytest.raises(FeatureError):
            compute_feature_range(small_market, 29, 40)
        with pytest.raises(FeatureError):
            compute_feature_range(small_market, 40, small_market.n_days + 1)
        with pytest.raises(FeatureError):
            compute_features(small_market, small_market.n_days)


class TestFeatureViewTensor:
    def _readme_market(self):
        from mpcfolio.harness import SyntheticMarketSpec, generate_synthetic

        return generate_synthetic(SyntheticMarketSpec(**README_MARKET))

    def test_every_state_matches_per_day_formula(self):
        series = self._readme_market()
        view = FeatureView(series)
        for split in ("train", "valid", "test"):
            start, stop = series.usable_range(split)
            rows = np.stack([series_slice_mean_features(series, t) for t in range(start, stop)])
            norm = view.normalizer(split)
            assert norm.mean.tobytes() == rows.mean(axis=0).tobytes()
            assert norm.std.tobytes() == rows.std(axis=0, ddof=1).tobytes()
            assert norm.mean.tobytes() == fit_normalizer(series, split).mean.tobytes()
            for t in range(start, stop):
                state = view.state(t)
                want = norm.apply(series_slice_mean_features(series, t))
                assert state.values.tobytes() == want.tobytes()
                assert state.t == t and state.date == series.dates[t]
                assert not state.values.flags.writeable
        with pytest.raises(FeatureError):
            view.state(29)
        with pytest.raises(FeatureError):
            view.state(series.n_days)

    def test_concurrent_states_match_serial(self):
        series = self._readme_market()
        ts = list(range(30, series.n_days))
        serial = [FeatureView(series).state(t).values for t in ts]
        view = FeatureView(series)  # nothing fitted yet: the threads race to fill it
        results = [None] * 4

        def read(k):
            order = ts[100 * k:] + ts[:100 * k]  # each thread starts in another split
            got = {t: view.state(t).values for t in order}
            results[k] = [got[t] for t in ts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for got in results:
            assert got is not None
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, serial))
