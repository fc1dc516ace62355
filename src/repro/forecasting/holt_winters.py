"""Holt-Winters (triple exponential) smoothing, implemented from scratch.

Switchboard forecasts the call count of every top call config with
Holt-Winters exponential smoothing (§5.2, ref [5]).  We implement the
additive-seasonality variant:

.. math::

    l_t &= \\alpha (y_t - s_{t-m}) + (1-\\alpha)(l_{t-1} + b_{t-1}) \\\\
    b_t &= \\beta (l_t - l_{t-1}) + (1-\\beta) b_{t-1} \\\\
    s_t &= \\gamma (y_t - l_t) + (1-\\gamma) s_{t-m} \\\\
    \\hat y_{t+h} &= l_t + h b_t + s_{t+h-m\\lceil h/m \\rceil}

Smoothing parameters are fitted by grid search on one-step-ahead squared
error, separately for every series.  One kernel fits a whole
``[n_configs, T]`` matrix: the recursion runs once per time step over
``[n_configs, n_grid]`` state arrays (the seasonal buffer is
``[m, n_configs, n_grid]``), each row keeps its own SSE argmin, and only
the winners are replayed to recover their in-sample predictions.  So the
nightly forecast of every top-N config (§5.2) costs one pass over the
history, not one per config.  Large batches are fitted in chunks of rows
under a fixed memory budget; a single series is the one-row batch.

Additive (not multiplicative) seasonality is the right choice here because
call-count series routinely touch zero overnight, where multiplicative
seasonals degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ForecastError

_DEFAULT_ALPHAS = (0.05, 0.1, 0.25, 0.5, 0.8)
_DEFAULT_BETAS = (0.0, 0.01, 0.05, 0.2)
_DEFAULT_GAMMAS = (0.05, 0.1, 0.25, 0.5)
_DEFAULT_PHIS = (0.8, 0.9, 0.98)


@dataclass
class HoltWintersFit:
    """A fitted model: parameters, final state, and in-sample predictions.

    ``phi`` is the trend-damping factor: 1.0 is the classic linear trend;
    values below 1 geometrically flatten the extrapolated trend — the
    standard guard against a transient growth spurt being projected
    months ahead (relevant exactly because the paper forecasts 3 months
    out).
    """

    alpha: float
    beta: float
    gamma: float
    season_length: int
    level: float
    trend: float
    seasonals: np.ndarray  # most recent m seasonal terms, oldest first
    fitted: np.ndarray     # one-step-ahead in-sample predictions
    sse: float
    phi: float = 1.0

    def forecast(self, horizon: int, clip_at_zero: bool = True) -> np.ndarray:
        """Out-of-sample forecast for the next ``horizon`` steps."""
        if horizon < 1:
            raise ForecastError("forecast horizon must be >= 1")
        m = self.season_length
        steps = np.arange(1, horizon + 1)
        seasonal = self.seasonals[(steps - 1) % m]
        if self.phi >= 1.0 - 1e-12:
            trend_term = steps * self.trend
        else:
            # phi + phi^2 + ... + phi^h, the damped cumulative trend.
            trend_term = self.trend * self.phi * (
                1.0 - self.phi ** steps
            ) / (1.0 - self.phi)
        values = self.level + trend_term + seasonal
        if clip_at_zero:
            values = np.maximum(values, 0.0)
        return values


# Byte budget for one kernel chunk: the seasonal buffer ``[m, rows, n_grid]``
# plus the ``[rows, n_grid]`` temporaries of one recursion step.  Wider
# batches (long seasons, damped grids) are fitted a chunk of rows at a time.
_CHUNK_BYTES = 8 << 20
_STEP_TEMPORARIES = 16


def _initial_state(Y: np.ndarray, m: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical initialization from whole seasons, one row per series.

    Returns level ``[n]``, trend ``[n]`` and seasonal ``[n, m]``: the mean of
    the first season, the per-step drift from the first to the second
    season, and each phase's mean deviation from its season's mean.
    """
    n = Y.shape[0]
    n_seasons = Y.shape[1] // m
    seasons = Y[:, :n_seasons * m].reshape(n, n_seasons, m)
    means = seasons.mean(axis=2)
    level = means[:, 0]
    trend = (means[:, 1] - means[:, 0]) / m
    deviations = seasons - means[:, :, None]
    # Average over a contiguous seasons axis: each phase's reduction then
    # sums its samples in season order, as a 1-D mean over them would.
    seasonal = np.ascontiguousarray(deviations.transpose(0, 2, 1)).mean(axis=2)
    return level, trend, seasonal


def _smooth(YT: np.ndarray, m: int, alpha: np.ndarray, beta: np.ndarray,
            gamma: np.ndarray, phi: np.ndarray, level: np.ndarray,
            trend: np.ndarray, seasonal: np.ndarray,
            fitted: Optional[np.ndarray] = None
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the smoothing recursion over every step of ``YT`` (``[T, n, 1]``).

    State is ``[n, k]`` (``seasonal``: ``[m, n, k]``, updated in place) and
    the parameters broadcast against it: ``[k]`` for a grid search, ``[n, 1]``
    to replay one parameter set per series.  Writes the one-step-ahead
    predictions into ``fitted`` (``[T, n, k]``) when given.  Returns the final
    level, trend and the sum of squared one-step errors.
    """
    keep_alpha, keep_beta, keep_gamma = 1 - alpha, 1 - beta, 1 - gamma
    sse = np.zeros(level.shape)
    for t, value in enumerate(YT):
        s = t % m
        season_term = seasonal[s]
        damped_trend = phi * trend
        smoothed = level + damped_trend
        prediction = smoothed + season_term
        if fitted is not None:
            fitted[t] = prediction
        error = value - prediction
        sse += error * error
        new_level = alpha * (value - season_term) + keep_alpha * smoothed
        trend = beta * (new_level - level) + keep_beta * damped_trend
        seasonal[s] = gamma * (value - new_level) + keep_gamma * season_term
        level = new_level
    return level, trend, sse


def _fit_chunk(Y: np.ndarray, m: int,
               grid: np.ndarray) -> List[HoltWintersFit]:
    """Grid-search every row of ``Y``, then replay each row's winner."""
    n, T = Y.shape
    n_grid = len(grid)
    alpha, beta, gamma, phi = grid[:, 0], grid[:, 1], grid[:, 2], grid[:, 3]
    YT = np.ascontiguousarray(Y.T)[:, :, None]
    level0, trend0, seasonal0 = _initial_state(Y, m)

    seasonal = np.repeat(seasonal0.T[:, :, None], n_grid, axis=2)
    _, _, sse = _smooth(YT, m, alpha, beta, gamma, phi,
                        np.repeat(level0[:, None], n_grid, axis=1),
                        np.repeat(trend0[:, None], n_grid, axis=1), seasonal)
    best = np.argmin(sse, axis=1)

    # Replaying the winners recomputes their states exactly, so the grid
    # pass never has to keep a [n, n_grid, T] history of predictions.
    won = grid[best][:, :, None]  # [n, 4, 1]
    seasonal = np.ascontiguousarray(seasonal0.T[:, :, None])
    fitted = np.empty((T, n, 1))
    level, trend, _ = _smooth(YT, m, won[:, 0], won[:, 1], won[:, 2],
                              won[:, 3], level0[:, None], trend0[:, None],
                              seasonal, fitted)
    # Roll the seasonal buffer so index 0 is the season term for step t+1.
    seasonals = np.roll(seasonal[:, :, 0].T, -(T % m), axis=1)
    return [
        HoltWintersFit(
            alpha=float(alpha[b]),
            beta=float(beta[b]),
            gamma=float(gamma[b]),
            season_length=m,
            level=float(level[i, 0]),
            trend=float(trend[i, 0]),
            seasonals=seasonals[i],
            fitted=fitted[:, i, 0].copy(),
            sse=float(sse[i, b]),
            phi=float(phi[b]),
        )
        for i, b in enumerate(best)
    ]


def fit_holt_winters_batch(series: np.ndarray, season_length: int,
                           alphas: Sequence[float] = _DEFAULT_ALPHAS,
                           betas: Sequence[float] = _DEFAULT_BETAS,
                           gammas: Sequence[float] = _DEFAULT_GAMMAS,
                           damped: bool = False,
                           phis: Sequence[float] = _DEFAULT_PHIS
                           ) -> List[HoltWintersFit]:
    """Fit every row of an ``[n_series, T]`` matrix, one fit per row.

    Each row gets its own grid-search winner over (alpha, beta, gamma) —
    and ``phi`` with ``damped=True``, the damped-trend variant.  Requires
    at least two full seasons of history (the standard identifiability
    condition); shorter series should go through :func:`fit_fallback`.
    """
    # Row-contiguous, so every per-row mean sums in the order a 1-D mean
    # over that series would (a column-major view sums in another order).
    Y = np.ascontiguousarray(series, dtype=float)
    if Y.ndim != 2:
        raise ForecastError(f"expected an [n_series, T] matrix, got {Y.shape}")
    m = int(season_length)
    if m < 2:
        raise ForecastError(f"season length must be >= 2, got {m}")
    if Y.shape[1] < 2 * m:
        raise ForecastError(
            f"need >= 2 seasons ({2 * m} points) to fit, got {Y.shape[1]}"
        )
    if not np.isfinite(Y).all():
        raise ForecastError("series contains NaN or infinity")

    phi_values = tuple(phis) if damped else (1.0,)
    if any(not 0 < p <= 1 for p in phi_values):
        raise ForecastError("phi values must be in (0, 1]")
    grid = np.array(
        [(a, b, g, p) for a in alphas for b in betas for g in gammas
         for p in phi_values],
        dtype=float,
    )
    row_bytes = 8 * len(grid) * (m + _STEP_TEMPORARIES)
    rows = max(1, _CHUNK_BYTES // row_bytes)
    fits: List[HoltWintersFit] = []
    for lo in range(0, Y.shape[0], rows):
        fits.extend(_fit_chunk(Y[lo:lo + rows], m, grid))
    return fits


def fit_holt_winters(series: Sequence[float], season_length: int,
                     alphas: Sequence[float] = _DEFAULT_ALPHAS,
                     betas: Sequence[float] = _DEFAULT_BETAS,
                     gammas: Sequence[float] = _DEFAULT_GAMMAS,
                     damped: bool = False,
                     phis: Sequence[float] = _DEFAULT_PHIS) -> HoltWintersFit:
    """Fit one series: :func:`fit_holt_winters_batch` on a single row."""
    y = np.asarray(series, dtype=float)
    return fit_holt_winters_batch(y[None, :], season_length, alphas, betas,
                                  gammas, damped, phis)[0]


def fit_fallback(series: Sequence[float], season_length: int) -> HoltWintersFit:
    """Degenerate fit for too-short series: flat level at the mean.

    Mirrors what a production forecaster does for brand-new call configs
    with almost no history — forecast the recent mean and let the cushion
    absorb the error.
    """
    y = np.asarray(series, dtype=float)
    if y.size == 0:
        raise ForecastError("cannot forecast an empty series")
    m = max(2, int(season_length))
    level = float(y.mean())
    fitted = np.full(len(y), level)
    return HoltWintersFit(
        alpha=0.0, beta=0.0, gamma=0.0,
        season_length=m,
        level=level, trend=0.0,
        seasonals=np.zeros(m),
        fitted=fitted,
        sse=float(((y - level) ** 2).sum()),
    )


def fit_auto_batch(series: np.ndarray, season_length: int,
                   damped: bool = False) -> List[HoltWintersFit]:
    """Full fits when history allows, fallbacks otherwise, one per row.

    The rows of an ``[n_series, T]`` matrix share one length, so one
    dispatch decides for all of them.
    """
    Y = np.ascontiguousarray(series, dtype=float)
    if Y.shape[1] >= 2 * season_length and season_length >= 2:
        return fit_holt_winters_batch(Y, season_length, damped=damped)
    return [fit_fallback(y, season_length) for y in Y]


def fit_auto(series: Sequence[float], season_length: int,
             damped: bool = False) -> HoltWintersFit:
    """Full fit when history allows, fallback otherwise."""
    y = np.asarray(series, dtype=float)
    return fit_auto_batch(y[None, :], season_length, damped)[0]
