"""Tests for Holt-Winters, the forecasting pipeline, and error metrics."""

import tracemalloc
from typing import Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ForecastError
from repro.core.types import CallConfig, MediaType, make_slots
from repro.forecasting.evaluation import (
    error_cdf,
    forecast_errors,
    median_of,
    summarize_errors,
)
from repro.forecasting.forecaster import CallCountForecaster
from repro.forecasting import holt_winters
from repro.forecasting.holt_winters import (
    _DEFAULT_ALPHAS,
    _DEFAULT_BETAS,
    _DEFAULT_GAMMAS,
    _DEFAULT_PHIS,
    HoltWintersFit,
    fit_auto,
    fit_fallback,
    fit_holt_winters,
    fit_holt_winters_batch,
)
from repro.workload.arrivals import Demand


def _seasonal_series(n_seasons=6, m=24, level=100.0, trend=0.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n_seasons * m)
    seasonal = 20.0 * np.sin(2 * np.pi * t / m)
    series = level + trend * t + seasonal
    if noise:
        series = series + rng.normal(0, noise, size=len(t))
    return np.maximum(series, 0.0)


class TestHoltWinters:
    def test_recovers_pure_seasonal_signal(self):
        series = _seasonal_series()
        fit = fit_holt_winters(series, season_length=24)
        forecast = fit.forecast(24)
        truth = _seasonal_series(n_seasons=7)[-24:]
        rmse = np.sqrt(((forecast - truth) ** 2).mean())
        assert rmse < 3.0

    def test_recovers_trend(self):
        series = _seasonal_series(trend=0.5)
        fit = fit_holt_winters(series, season_length=24)
        forecast = fit.forecast(24)
        truth = _seasonal_series(n_seasons=7, trend=0.5)[-24:]
        assert np.abs(forecast - truth).mean() < 8.0

    def test_noisy_signal_tracked(self):
        series = _seasonal_series(noise=5.0)
        fit = fit_holt_winters(series, season_length=24)
        forecast = fit.forecast(24)
        truth = _seasonal_series(n_seasons=7)[-24:]
        assert np.abs(forecast - truth).mean() < 10.0

    def test_fitted_length_matches_series(self):
        series = _seasonal_series()
        fit = fit_holt_winters(series, season_length=24)
        assert len(fit.fitted) == len(series)
        assert fit.sse >= 0

    def test_too_short_series_raises(self):
        with pytest.raises(ForecastError):
            fit_holt_winters(np.ones(30), season_length=24)

    def test_bad_season_raises(self):
        with pytest.raises(ForecastError):
            fit_holt_winters(np.ones(100), season_length=1)

    def test_nan_rejected(self):
        series = _seasonal_series()
        series[3] = np.nan
        with pytest.raises(ForecastError):
            fit_holt_winters(series, season_length=24)

    def test_forecast_clipped_at_zero(self):
        series = np.concatenate([np.full(24, 5.0), np.full(24, 1.0)])
        fit = fit_holt_winters(series, season_length=24)
        assert (fit.forecast(48) >= 0).all()

    def test_forecast_horizon_validation(self):
        fit = fit_holt_winters(_seasonal_series(), season_length=24)
        with pytest.raises(ForecastError):
            fit.forecast(0)

    def test_fallback_flat_mean(self):
        fit = fit_fallback([1.0, 2.0, 3.0], season_length=24)
        assert fit.forecast(5).tolist() == [2.0] * 5

    def test_fallback_empty_raises(self):
        with pytest.raises(ForecastError):
            fit_fallback([], season_length=24)

    def test_fit_auto_dispatches(self):
        short = fit_auto([1.0, 2.0], season_length=24)
        assert short.alpha == 0.0  # fallback
        full = fit_auto(_seasonal_series(), season_length=24)
        assert full.alpha > 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4),
                    min_size=48, max_size=120))
    def test_forecast_finite_nonnegative_property(self, values):
        fit = fit_auto(values, season_length=24)
        forecast = fit.forecast(24)
        assert np.isfinite(forecast).all()
        assert (forecast >= 0).all()


class TestForecastErrors:
    def test_perfect_forecast(self):
        errors = forecast_errors([1.0, 2.0], [1.0, 2.0])
        assert errors.rmse == 0.0
        assert errors.normalized_mae == 0.0

    def test_normalization_by_peak(self):
        errors = forecast_errors([0.0, 10.0], [0.0, 5.0])
        assert errors.normalized_rmse == pytest.approx(errors.rmse / 10.0)

    def test_zero_peak_normalizes_by_one(self):
        errors = forecast_errors([0.0, 0.0], [1.0, 1.0])
        assert errors.normalized_mae == pytest.approx(1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ForecastError):
            forecast_errors([1.0], [1.0, 2.0])

    def test_error_cdf_monotone(self):
        cdf = error_cdf([0.3, 0.1, 0.2])
        values = [v for v, _ in cdf]
        fracs = [f for _, f in cdf]
        assert values == sorted(values)
        assert fracs[-1] == 1.0

    def test_median_and_summary(self):
        errors = {
            "a": forecast_errors([10.0, 10.0], [11.0, 9.0]),
            "b": forecast_errors([10.0, 10.0], [10.0, 10.0]),
        }
        summary = summarize_errors(errors)
        assert 0 <= summary["median_normalized_rmse"] <= 1
        with pytest.raises(ForecastError):
            summarize_errors({})
        with pytest.raises(ForecastError):
            median_of([])


class TestCallCountForecaster:
    def _history(self, n_days=6, slots_per_day=24):
        slots = make_slots(n_days * 86400.0, 86400.0 / slots_per_day)
        configs = [
            CallConfig.build({"US": 2}, MediaType.AUDIO),
            CallConfig.build({"JP": 3}, MediaType.VIDEO),
        ]
        t = np.arange(len(slots))
        base = 50 + 30 * np.sin(2 * np.pi * t / slots_per_day)
        counts = np.stack([base, base * 0.5], axis=1)
        return Demand(slots, configs, counts)

    def test_forecast_demand_continues_grid(self):
        history = self._history()
        forecaster = CallCountForecaster(season_length=24)
        forecast = forecaster.forecast_demand(history, 24)
        assert forecast.n_slots == 24
        assert forecast.slots[0].start_s == history.slots[-1].end_s
        assert forecast.configs == history.configs

    def test_cushion_scales_forecast(self):
        history = self._history()
        plain = CallCountForecaster(season_length=24).forecast_demand(history, 24)
        cushioned = CallCountForecaster(
            season_length=24, cushion=1.5
        ).forecast_demand(history, 24)
        assert cushioned.total_calls() == pytest.approx(1.5 * plain.total_calls())

    def test_invalid_cushion_rejected(self):
        with pytest.raises(ForecastError):
            CallCountForecaster(cushion=0.5)

    def test_backtest_accuracy_on_clean_signal(self):
        history = self._history(n_days=8)
        forecaster = CallCountForecaster(season_length=24)
        errors = forecaster.backtest(history, holdout_slots=24)
        assert len(errors) == 2
        for config_errors in errors.values():
            assert config_errors.normalized_rmse < 0.1

    def test_backtest_bounds(self):
        history = self._history()
        forecaster = CallCountForecaster(season_length=24)
        with pytest.raises(ForecastError):
            forecaster.backtest(history, holdout_slots=0)
        with pytest.raises(ForecastError):
            forecaster.backtest(history, holdout_slots=10_000)

    def test_forecast_horizon_validation(self):
        with pytest.raises(ForecastError):
            CallCountForecaster(season_length=24).forecast_demand(
                self._history(), 0
            )


class TestDampedTrend:
    def test_damped_fit_valid_phi(self):
        series = _seasonal_series(trend=0.5)
        fit = fit_holt_winters(series, season_length=24, damped=True)
        assert 0.0 < fit.phi <= 1.0

    def test_undamped_phi_is_one(self):
        fit = fit_holt_winters(_seasonal_series(), season_length=24)
        assert fit.phi == 1.0

    def test_damped_forecast_flattens(self):
        """With phi < 1 the projected trend converges instead of growing
        linearly: far-horizon steps stop adding trend."""
        series = _seasonal_series(trend=1.0)
        fit = fit_holt_winters(series, season_length=24)
        fit_damped = fit_holt_winters(series, season_length=24, damped=True)
        if fit_damped.phi >= 1.0 - 1e-9 or fit_damped.trend <= 0:
            import pytest as _pytest
            _pytest.skip("grid chose no damping for this series")
        far = fit_damped.forecast(240, clip_at_zero=False)
        undamped = fit.forecast(240, clip_at_zero=False)
        # Trend contribution over the last season: damped < undamped.
        damped_growth = far[-1] - far[-25 + 1]
        undamped_growth = undamped[-1] - undamped[-25 + 1]
        assert damped_growth < undamped_growth

    def test_invalid_phi_rejected(self):
        with pytest.raises(ForecastError):
            fit_holt_winters(_seasonal_series(), season_length=24,
                             damped=True, phis=(0.0,))

    def test_damped_still_tracks_seasonal_signal(self):
        series = _seasonal_series()
        fit = fit_holt_winters(series, season_length=24, damped=True)
        forecast = fit.forecast(24)
        truth = _seasonal_series(n_seasons=7)[-24:]
        assert np.abs(forecast - truth).mean() < 6.0


# ----------------------------------------------------------------------
# Scalar oracle: the one-series-at-a-time fit the batched kernel replaced,
# kept as it was.  Every field of the kernel's fits must equal it bit for
# bit: the kernel runs the same floating-point operations in the same
# order, only over [n_configs, n_grid] arrays instead of [n_grid].
# ----------------------------------------------------------------------
def _oracle_initial_state(y: np.ndarray, m: int) -> Tuple[float, float, np.ndarray]:
    """Classical initialization from the first two seasons."""
    first = y[:m]
    level = float(first.mean())
    if len(y) >= 2 * m:
        second = y[m:2 * m]
        trend = float((second.mean() - first.mean()) / m)
        n_seasons = len(y) // m
        seasonal = np.zeros(m)
        for i in range(m):
            samples = [
                y[s * m + i] - y[s * m:(s + 1) * m].mean()
                for s in range(n_seasons)
            ]
            seasonal[i] = float(np.mean(samples))
    else:
        trend = 0.0
        seasonal = first - level
    return level, trend, seasonal


def oracle_fit_holt_winters(series: Sequence[float], season_length: int,
                            alphas: Sequence[float] = _DEFAULT_ALPHAS,
                            betas: Sequence[float] = _DEFAULT_BETAS,
                            gammas: Sequence[float] = _DEFAULT_GAMMAS,
                            damped: bool = False,
                            phis: Sequence[float] = _DEFAULT_PHIS) -> HoltWintersFit:
    """Fit Holt-Winters by vectorized grid search over (alpha, beta, gamma).

    With ``damped=True`` the grid also spans the damping factor ``phi``
    (the damped-trend variant).  Requires at least two full seasons of
    history (the standard identifiability condition); shorter series
    should go through :func:`fit_fallback` instead.
    """
    y = np.asarray(series, dtype=float)
    m = int(season_length)
    if m < 2:
        raise ForecastError(f"season length must be >= 2, got {m}")
    if len(y) < 2 * m:
        raise ForecastError(
            f"need >= 2 seasons ({2 * m} points) to fit, got {len(y)}"
        )
    if not np.isfinite(y).all():
        raise ForecastError("series contains NaN or infinity")

    phi_values = tuple(phis) if damped else (1.0,)
    if any(not 0 < p <= 1 for p in phi_values):
        raise ForecastError("phi values must be in (0, 1]")
    grid = np.array(
        [(a, b, g, p) for a in alphas for b in betas for g in gammas
         for p in phi_values],
        dtype=float,
    )
    n_grid = len(grid)
    alpha, beta, gamma, phi = grid[:, 0], grid[:, 1], grid[:, 2], grid[:, 3]

    level0, trend0, seasonal0 = _oracle_initial_state(y, m)
    level = np.full(n_grid, level0)
    trend = np.full(n_grid, trend0)
    seasonal = np.tile(seasonal0, (n_grid, 1))  # [n_grid, m]

    sse = np.zeros(n_grid)
    fitted_all = np.zeros((n_grid, len(y)))
    for t, value in enumerate(y):
        s_index = t % m
        season_term = seasonal[:, s_index]
        damped_trend = phi * trend
        prediction = level + damped_trend + season_term
        fitted_all[:, t] = prediction
        error = value - prediction
        sse += error * error
        new_level = alpha * (value - season_term) + (1 - alpha) * (
            level + damped_trend
        )
        trend = beta * (new_level - level) + (1 - beta) * damped_trend
        seasonal[:, s_index] = gamma * (value - new_level) + (1 - gamma) * season_term
        level = new_level

    best = int(np.argmin(sse))
    # Roll the seasonal buffer so index 0 is the season term for step t+1.
    next_index = len(y) % m
    seasonals = np.roll(seasonal[best], -next_index)
    return HoltWintersFit(
        alpha=float(alpha[best]),
        beta=float(beta[best]),
        gamma=float(gamma[best]),
        season_length=m,
        level=float(level[best]),
        trend=float(trend[best]),
        seasonals=seasonals,
        fitted=fitted_all[best],
        sse=float(sse[best]),
        phi=float(phi[best]),
    )


def _oracle_fit_auto(series, season_length):
    y = np.asarray(series, dtype=float)
    if len(y) >= 2 * season_length and season_length >= 2:
        return oracle_fit_holt_winters(y, season_length)
    return fit_fallback(y, season_length)


_SCALAR_FIELDS = ("alpha", "beta", "gamma", "season_length", "level",
                  "trend", "sse", "phi")


def _assert_fits_identical(fit: HoltWintersFit, ref: HoltWintersFit):
    for name in _SCALAR_FIELDS:
        assert getattr(fit, name) == getattr(ref, name), name
    assert np.array_equal(fit.seasonals, ref.seasonals)
    assert np.array_equal(fit.fitted, ref.fitted)


def _series_matrix(kinds: Sequence[str], T: int, m: int,
                   seed: int) -> np.ndarray:
    """One row per kind: the shapes call-count series take in practice."""
    rng = np.random.default_rng(seed)
    t = np.arange(T)
    rows = []
    for kind in kinds:
        if kind == "zeros":  # a rare config: mostly empty slots
            row = rng.poisson(0.3, T) * rng.integers(1, 4)
        elif kind == "constant":
            row = np.full(T, float(rng.integers(0, 50)))
        elif kind == "spiky":  # quiet baseline, rare large bursts
            row = rng.poisson(2.0, T) + (rng.random(T) < 0.05) * 1e3
        else:  # diurnal with trend and noise
            row = np.maximum(0.0, 40 + 25 * np.sin(2 * np.pi * t / m)
                             + 0.05 * t + rng.normal(0, 4, T))
        rows.append(np.asarray(row, dtype=float))
    return np.stack(rows)


_KINDS = st.sampled_from(["zeros", "constant", "spiky", "diurnal"])


class TestBatchedKernelMatchesScalarOracle:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), m=st.sampled_from([2, 24, 48]),
           damped=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_rows_equal_scalar_fits(self, data, m, damped, seed):
        T = data.draw(st.integers(2 * m, 5 * m), label="T")
        kinds = data.draw(st.lists(_KINDS, min_size=1, max_size=12),
                          label="kinds")
        Y = _series_matrix(kinds, T, m, seed)
        fits = fit_holt_winters_batch(Y, m, damped=damped)
        assert len(fits) == len(Y)
        for fit, y in zip(fits, Y):
            _assert_fits_identical(
                fit, oracle_fit_holt_winters(y, m, damped=damped))

    @pytest.mark.parametrize("n, T, m", [(6, 432, 48), (3, 2 * 336 + 100, 336)])
    def test_many_seasons_equal_scalar_fits(self, n, T, m):
        """Fig 6 (9 seasons of m=48) and Table 4 (m=336) shapes: with 8+
        seasons the per-phase mean takes numpy's pairwise summation."""
        Y = _series_matrix(["diurnal", "zeros", "spiky"] * n, T, m, seed=n)[:n]
        for fit, y in zip(fit_holt_winters_batch(Y, m), Y):
            _assert_fits_identical(fit, oracle_fit_holt_winters(y, m))

    def test_batch_spanning_chunks_equals_oracle(self, monkeypatch):
        m, damped = 24, True
        n_grid = (len(_DEFAULT_ALPHAS) * len(_DEFAULT_BETAS)
                  * len(_DEFAULT_GAMMAS) * len(_DEFAULT_PHIS))
        two_rows = 2 * 8 * n_grid * (m + holt_winters._STEP_TEMPORARIES)
        monkeypatch.setattr(holt_winters, "_CHUNK_BYTES", two_rows)
        Y = _series_matrix(["diurnal", "zeros", "spiky", "constant",
                            "diurnal"], 4 * m, m, seed=9)
        fits = fit_holt_winters_batch(Y, m, damped=damped)  # chunks 2, 2, 1
        assert len(fits) == 5
        for fit, y in zip(fits, Y):
            _assert_fits_identical(
                fit, oracle_fit_holt_winters(y, m, damped=damped))

    def test_single_series_is_the_one_row_batch(self):
        y = _seasonal_series(noise=3.0)
        _assert_fits_identical(fit_holt_winters(y, 24),
                               oracle_fit_holt_winters(y, 24))

    def test_batch_validation(self):
        with pytest.raises(ForecastError):
            fit_holt_winters_batch(np.ones(100), 24)  # not a matrix
        with pytest.raises(ForecastError):
            fit_holt_winters_batch(np.ones((2, 30)), 24)
        bad = np.ones((3, 100))
        bad[2, 7] = np.inf
        with pytest.raises(ForecastError):
            fit_holt_winters_batch(bad, 24)
        assert fit_holt_winters_batch(np.ones((0, 100)), 24) == []


def _demand(Y: np.ndarray, slot_s: float = 1800.0) -> Demand:
    slots = make_slots(Y.shape[1] * slot_s, slot_s)
    configs = [CallConfig.build({"US": k + 1}, MediaType.AUDIO)
               for k in range(len(Y))]
    return Demand(slots, configs, Y.T.copy())


class TestForecasterMatchesOracleLoop:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), m=st.sampled_from([2, 24, 48]),
           seed=st.integers(0, 2**32 - 1))
    def test_forecast_demand_and_backtest(self, data, m, seed):
        T = data.draw(st.integers(2 * m + 1, 5 * m), label="T")
        kinds = data.draw(st.lists(_KINDS, min_size=1, max_size=12),
                          label="kinds")
        Y = _series_matrix(kinds, T, m, seed)
        history = _demand(Y)
        forecaster = CallCountForecaster(season_length=m, cushion=1.25)
        horizon = data.draw(st.integers(1, 2 * m), label="horizon")

        forecast = forecaster.forecast_demand(history, horizon)
        expected = np.stack([_oracle_fit_auto(y, m).forecast(horizon)
                             for y in Y], axis=1) * 1.25
        assert np.array_equal(forecast.counts, expected)

        holdout = data.draw(st.integers(1, T - 1), label="holdout")
        errors = forecaster.backtest(history, holdout)
        split = T - holdout
        for config, y in zip(history.configs, Y):
            ref = _oracle_fit_auto(y[:split], m).forecast(holdout)
            assert errors[config] == forecast_errors(y[split:], ref)

    def test_short_history_falls_back_for_every_config(self):
        Y = _series_matrix(["diurnal", "zeros", "spiky"], 30, 24, seed=2)
        forecast = CallCountForecaster(season_length=24).forecast_demand(
            _demand(Y), 6)
        assert np.array_equal(forecast.counts,
                              np.repeat(Y.mean(axis=1)[None, :], 6, axis=0))

    def test_forecast_memory_at_fig6_scale(self):
        """One nightly forecast of the Fig 6 loop (131 configs x 9 days of
        half-hour slots) stays within a fixed memory budget: the kernel
        never holds per-grid-point histories of every config."""
        Y = _series_matrix(["diurnal", "zeros", "spiky", "constant"] * 33,
                           432, 48, seed=4)[:131]
        history = _demand(Y)
        forecaster = CallCountForecaster(season_length=48)
        tracemalloc.start()
        try:
            forecaster.forecast_demand(history, 48)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
