"""Where the traced run puts its spans, and the per-layer metrics it
derives from them.

Each :class:`~perfbench.tracer.WrapPoint` names the attribute a caller
looks up: a class attribute for methods (every instance sees the
wrapper), or the importing module's own name for functions imported
with ``from ... import`` (``repro.simulation.ingest_trace`` is the name
the simulator calls, not ``repro.records.aggregation.ingest_trace``).

Under the process executor only the parent's spans are recorded; the
workers' share of serving shows up in the engine's own report fields.
"""

from __future__ import annotations

from typing import Dict, List

from perfbench.metrics import SELF_TIME_LAYERS
from perfbench.tracer import SpanView, Tracer, WrapPoint

WRAP_POINTS: List[WrapPoint] = [
    WrapPoint("repro.workload.arrivals", "DemandModel.sample",
              "workload.sample"),
    WrapPoint("repro.workload.arrivals", "DemandModel.expected",
              "workload.sample"),
    WrapPoint("repro.workload.trace", "TraceGenerator.generate",
              "workload.trace"),
    WrapPoint("repro.service.loadgen", "LoadGenerator.generate",
              "workload.load"),
    WrapPoint("repro.workload.trace", "TraceGenerator.generate_columnar",
              "workload.trace"),
    WrapPoint("repro.simulation", "ingest_trace", "records.ingest"),
    WrapPoint("repro.simulation", "demand_from_database", "records.history"),
    WrapPoint("repro.simulation", "cushion_factor", "records.history"),
    WrapPoint("repro.records.database", "CallRecordsDatabase.top_configs",
              "records.history"),
    WrapPoint("repro.forecasting.forecaster",
              "CallCountForecaster.forecast_demand", "forecasting.forecast"),
    WrapPoint("repro.forecasting.forecaster", "fit_auto", "forecasting.fit"),
    WrapPoint("repro.autoscale.controller", "fit_auto", "forecasting.fit"),
    WrapPoint("repro.switchboard", "Switchboard.provision",
              "provisioning.provision", keep=True),
    WrapPoint("repro.switchboard", "Switchboard.allocate",
              "allocation.allocate", keep=True),
    WrapPoint("repro.switchboard", "Switchboard.allocation_plan",
              "allocation.allocate", keep=True),
    WrapPoint("repro.allocation.realtime", "RealTimeSelector.process_trace",
              "allocation.select"),
    # ``build_event_batch`` is imported by name in the load generator;
    # the simulator and this benchmark look it up on its own module.
    WrapPoint("repro.controller.columnar", "build_event_batch",
              "controller.batch_build"),
    WrapPoint("repro.service.loadgen", "build_event_batch",
              "controller.batch_build"),
    WrapPoint("repro.storms.overlays", "StormPlan.realize", "storms.realize"),
    WrapPoint("repro.storms.overlays", "StormPlan.apply_trace",
              "storms.realize"),
    WrapPoint("repro.service.runtime", "ServiceRuntime.run", "service.run",
              keep=True),
    WrapPoint("repro.autoscale.controller", "Autoscaler.on_window",
              "autoscale.window"),
    WrapPoint("repro.migrate.executor", "MigrationExecutor.on_window",
              "migrate.window"),
]

ARMS = ("exact", "warm", "locality", "lagrangean", "dedup")


def layer_metrics(tracer: Tracer, run_ids: List[str], rep) -> Dict[str, float]:
    """Every per-layer metric over the spans of ``run_ids``, plus the
    counters read from the objects the kept boundaries returned and from
    ``rep`` (the :class:`~perfbench.workloads.Rep` of the traced rep)."""
    ids = set(run_ids)
    view = SpanView([s for s in tracer.spans if s.run_id in ids])
    kept = {name: [result for run_id, result in calls if run_id in ids]
            for name, calls in tracer.kept.items()}
    m: Dict[str, float] = {}
    for name in ("workload.sample", "workload.trace", "workload.load",
                 "records.ingest", "records.history", "provisioning.provision",
                 "allocation.allocate", "allocation.select",
                 "controller.batch_build", "storms.realize", "service.run",
                 "autoscale.window", "migrate.window"):
        m[f"{name}_s"] = view.name_time(name)
    m["forecasting.forecast_s"] = view.layer_time("forecasting")
    m["forecasting.configs_fit"] = view.count("forecasting.fit")
    total = view.name_time("bench.setup") + view.name_time("bench.rep")
    m["forecasting.share"] = (m["forecasting.forecast_s"] / total
                              if total else 0.0)

    # Provisioning: counts at the boundary, SolveStats from the plans.
    plans = kept.get("provisioning.provision", [])
    m["provisioning.provisions"] = len(plans)
    stats = [p.aggregate_stats() for p in plans]
    m["provisioning.lp_solves"] = sum(s.n_solves for s in stats)
    m["provisioning.assembly_s"] = sum(s.assembly_seconds for s in stats)
    m["provisioning.solver_s"] = sum(s.solver_seconds for s in stats)
    wins = {arm: 0 for arm in ARMS}
    gap = 0.0
    for plan in plans:
        for result in plan.scenario_results:
            if result.stats.arm is not None:
                wins[result.stats.arm] = wins.get(result.stats.arm, 0) + 1
            gap = max(gap, result.bound_gap or 0.0)
    for arm in ARMS:
        m[f"provisioning.arm_wins.{arm}"] = wins[arm]
    m["provisioning.max_bound_gap"] = gap
    lookups = hits = 0
    for controller in rep.controllers:
        cache = controller.warmstart_stats()
        if cache is not None:
            hits += cache["hits"]
            lookups += cache["hits"] + cache["misses"]
    m["provisioning.warm_hit_frac"] = hits / lookups if lookups else 0.0
    # A heuristic arm wins a race only when a lower bound certifies it
    # within the gap; on these instances that bound is the cached dual.
    raced = sum(wins[arm] for arm in ARMS if arm != "dedup")
    heuristic = wins["locality"] + wins["lagrangean"]
    m["provisioning.dual_hit_frac"] = heuristic / raced if raced else 0.0

    # Serving: the ServiceReport returned at the service.run boundary.
    reports = kept.get("service.run", [])
    m["service.events"] = sum(r.events_processed for r in reports)
    m["kvstore.ops"] = sum(r.kv_op_count for r in reports)
    calls = sum(r.generated_calls for r in reports)
    m["kvstore.ops_per_call"] = m["kvstore.ops"] / calls if calls else 0.0
    last = reports[-1] if reports else None
    m["service.settle_p50_ms"] = _tail(last, "settle_latency_ms", "p50")
    m["service.settle_p99_ms"] = _tail(last, "settle_latency_ms", "p99")
    m["autoscale.rescales"] = sum(r.rescale_events for r in reports)
    m["autoscale.reprovisions"] = view.count_under("provisioning.provision",
                                                   "autoscale.window")
    m["migrate.live_moves"] = sum(r.live_migrated_calls for r in reports)
    m["migrate.batches"] = sum(r.migration_batches for r in reports)
    m["migrate.move_p99_ms"] = _tail(last, "migration_latency_ms", "p99")

    # Resilience: the supervisors' trail on every controller of the rep.
    counters = [c.obs.counters for c in rep.controllers]
    m["resilience.solve_attempts"] = sum(c.get("solve.attempt")
                                         for c in counters)
    m["resilience.solve_retries"] = sum(c.get("solve.retry")
                                        for c in counters)
    m["resilience.degraded"] = sum(c.get("ladder.degraded")
                                   for c in counters)

    self_times = view.layer_self_times()
    for layer in SELF_TIME_LAYERS:
        m[f"self_s.{layer}"] = self_times.get(layer, 0.0)
    return m


def _tail(report, field: str, key: str) -> float:
    if report is None:
        return 0.0
    value = getattr(report, field).get(key)
    return float(value) if value is not None else 0.0
