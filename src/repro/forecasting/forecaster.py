"""Per-config forecasting pipeline (§5.2).

Ties the pieces together: take per-config call-count history (from a
:class:`Demand` matrix or the records database), fit Holt-Winters per
config, and emit a forecast :class:`Demand` over future slots — optionally
inflated by the tail cushion.  This forecast Demand is what feeds the
capacity-provisioning LP in the forecast-driven variant of Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.errors import ForecastError
from repro.core.types import CallConfig, TimeSlot
from repro.forecasting.evaluation import ForecastErrors, forecast_errors
from repro.forecasting.holt_winters import (
    HoltWintersFit,
    fit_auto,
    fit_auto_batch,
)
from repro.workload.arrivals import Demand


@dataclass
class ConfigForecast:
    """The fitted model and point forecast for one call config."""

    config: CallConfig
    fit: HoltWintersFit
    forecast: np.ndarray


class CallCountForecaster:
    """Forecasts per-config call counts over future time slots."""

    def __init__(self, season_length: int = 48, cushion: float = 1.0):
        if season_length < 2:
            raise ForecastError("season length must be >= 2")
        if cushion < 1.0:
            raise ForecastError("cushion must be >= 1 (it inflates, never deflates)")
        self.season_length = season_length
        self.cushion = cushion

    def forecast_config(self, history: Sequence[float], horizon: int,
                        config: Optional[CallConfig] = None) -> ConfigForecast:
        """Fit and forecast one config's series."""
        fit = fit_auto(history, self.season_length)
        values = fit.forecast(horizon)
        return ConfigForecast(config=config, fit=fit, forecast=values)

    def forecast_demand(self, history: Demand, horizon_slots: int) -> Demand:
        """Forecast every config in ``history`` for the next slots.

        The returned Demand's slot grid continues the history grid; counts
        are inflated by the cushion (§5.2), which compensates for the call
        configs excluded from the top-N selection.
        """
        if horizon_slots < 1:
            raise ForecastError("horizon must be >= 1 slot")
        slot_s = history.slots[0].duration_s
        start = history.slots[-1].end_s
        future = [
            TimeSlot(index=len(history.slots) + i,
                     start_s=start + i * slot_s,
                     duration_s=slot_s)
            for i in range(horizon_slots)
        ]
        counts = np.zeros((horizon_slots, history.n_configs))
        fits = fit_auto_batch(history.counts.T, self.season_length)
        for j, fit in enumerate(fits):
            counts[:, j] = fit.forecast(horizon_slots)
        return Demand(future, history.configs, counts * self.cushion)

    def backtest(self, full_history: Demand,
                 holdout_slots: int) -> Dict[CallConfig, ForecastErrors]:
        """Train on all but the last ``holdout_slots``, score the holdout.

        This is the §6.5 experiment: per-config normalized RMSE/MAE of a
        look-ahead forecast against ground truth.
        """
        if not 0 < holdout_slots < full_history.n_slots:
            raise ForecastError(
                f"holdout {holdout_slots} must be inside the history of "
                f"{full_history.n_slots} slots"
            )
        split = full_history.n_slots - holdout_slots
        fits = fit_auto_batch(full_history.counts[:split].T, self.season_length)
        errors: Dict[CallConfig, ForecastErrors] = {}
        for config, fit in zip(full_history.configs, fits):
            truth = full_history.config_series(config)[split:]
            errors[config] = forecast_errors(truth, fit.forecast(holdout_slots))
        return errors
