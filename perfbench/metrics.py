"""Metric definitions: names, units, better direction, bounds, and what
each per-layer metric is expected to move.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``); a self-test keeps the two
identical.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from perfbench.workloads import WORKLOADS

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Seconds one run measures (``--seconds`` default and BENCHMARK.json).
RUN_SECONDS = 18

#: End-to-end metrics every workload reports on its untraced run:
#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    # Times are scaled to the reference machine speed measured next to
    # them (perfbench.calibrate).  What remains over ten seeds is a
    # quartile spread of 0.04-0.14, widest on plan_rolling, whose
    # HiGHS-bound work the interpreter-bound reference tracks loosely,
    # and on drill_day.
    ("wall_s", "s", "lower", 0.25),
    # Plan quality is deterministic per seed; over ten seeds its
    # quartile spread was 0.05 on fig6_loop and under 0.01 elsewhere.
    ("capacity_cost", "cost", "lower", 0.2),
    ("mean_acl_ms", "ms", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: End-to-end metrics that exist only on some workloads.  They are
#: printed with their unit on every run where they apply (n/a
#: elsewhere) but carry no bound: a bounded metric must be non-zero on
#: every workload.  ``fail_frac`` is the JSON ``failed``/``attempted``.
WORKLOAD_SPECIFIC: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("events_per_s", "1/s", "higher", ("serve_day", "drill_day")),
    ("admit_p50_ms", "ms", "lower", ("serve_day", "drill_day")),
    ("admit_p99_ms", "ms", "lower", ("serve_day", "drill_day")),
    ("overflow_frac", "fraction", "lower",
     ("fig6_loop", "serve_day", "drill_day")),
    ("migration_frac", "fraction", "lower",
     ("fig6_loop", "serve_day", "drill_day")),
    ("disrupted_frac", "fraction", "lower", ("drill_day",)),
    ("core_hours", "core-h", "lower", ("drill_day",)),
    ("fail_frac", "fraction", "lower", tuple(WORKLOADS)),
]

_ALL = tuple(WORKLOADS)
_SERVING = ("serve_day", "drill_day")

#: Per-layer metrics of the traced run: (name, unit, better, moves,
#: no_change).  ``moves`` pairs the end-to-end metric with the workloads
#: it should move on; ``no_change`` lists where it should not move.
PER_LAYER: List[Tuple[str, str, str, Dict[str, Tuple[str, ...]],
                      Tuple[str, ...]]] = []


def _layer(names, unit, better, moves, no_change=()):
    for name in names:
        PER_LAYER.append((name, unit, better, moves, tuple(no_change)))


_layer(["workload.sample_s", "workload.trace_s"], "s", "lower",
       {"wall_s": ("fig6_loop",),
        "setup_s": ("plan_rolling", "serve_day", "drill_day")})
_layer(["workload.load_s"], "s", "lower", {"setup_s": ("serve_day",)})
_layer(["records.ingest_s", "records.history_s"], "s", "lower",
       {"wall_s": ("fig6_loop",)}, ("plan_rolling", "serve_day", "drill_day"))
_layer(["forecasting.forecast_s"], "s", "lower",
       {"wall_s": ("fig6_loop",), "events_per_s": ("drill_day",)},
       ("serve_day", "plan_rolling"))
_layer(["forecasting.configs_fit"], "count", "lower",
       {"wall_s": ("fig6_loop",), "events_per_s": ("drill_day",)},
       ("serve_day", "plan_rolling"))
_layer(["forecasting.share"], "fraction", "lower",
       {"wall_s": ("fig6_loop",)}, ("serve_day", "plan_rolling"))
_PROVISION_MOVES = {"wall_s": ("plan_rolling", "fig6_loop"),
                    "capacity_cost": ("plan_rolling",),
                    "events_per_s": ("drill_day",)}
_layer(["provisioning.provision_s", "provisioning.assembly_s",
        "provisioning.solver_s"], "s", "lower", _PROVISION_MOVES)
_layer(["provisioning.provisions", "provisioning.lp_solves"], "count",
       "lower", _PROVISION_MOVES)
_layer(["provisioning.arm_wins.exact"], "count", "lower", _PROVISION_MOVES)
_layer(["provisioning.arm_wins.warm", "provisioning.arm_wins.locality",
        "provisioning.arm_wins.lagrangean", "provisioning.arm_wins.dedup"],
       "count", "higher", _PROVISION_MOVES)
_layer(["provisioning.warm_hit_frac", "provisioning.dual_hit_frac"],
       "fraction", "higher", _PROVISION_MOVES)
_layer(["provisioning.max_bound_gap"], "fraction", "lower",
       {"capacity_cost": ("plan_rolling",)})
_layer(["allocation.allocate_s", "allocation.select_s"], "s", "lower",
       {"wall_s": ("fig6_loop", "plan_rolling")})
_layer(["controller.batch_build_s", "storms.realize_s"], "s", "lower",
       {"setup_s": ("serve_day", "drill_day")})
_SERVE_MOVES = {"events_per_s": _SERVING, "admit_p99_ms": _SERVING}
_layer(["service.run_s"], "s", "lower", _SERVE_MOVES, ("plan_rolling",))
_layer(["service.mp_run_s"], "s", "lower", {}, _ALL)
_layer(["service.settle_p50_ms", "service.settle_p99_ms"], "ms", "lower",
       _SERVE_MOVES, ("plan_rolling",))
_layer(["service.events"], "count", "higher", _SERVE_MOVES, ("plan_rolling",))
_layer(["kvstore.ops"], "count", "lower", _SERVE_MOVES, ("plan_rolling",))
_layer(["kvstore.ops_per_call"], "ops/call", "lower", _SERVE_MOVES,
       ("plan_rolling",))
_DRILL_MOVES = {"events_per_s": ("drill_day",),
                "core_hours": ("drill_day",),
                "disrupted_frac": ("drill_day",)}
_layer(["autoscale.window_s", "migrate.window_s"], "s", "lower",
       _DRILL_MOVES)
_layer(["autoscale.rescales", "autoscale.reprovisions",
        "migrate.batches"], "count", "lower", _DRILL_MOVES)
_layer(["migrate.live_moves"], "count", "higher", _DRILL_MOVES)
_layer(["migrate.move_p99_ms"], "ms", "lower", _DRILL_MOVES)
_layer(["resilience.solve_attempts", "resilience.solve_retries",
        "resilience.degraded"], "count", "lower", {"fail_frac": _ALL})
#: Self time per layer: the ledger that names the layer to optimize.
SELF_TIME_LAYERS = ("workload", "records", "forecasting", "provisioning",
                    "allocation", "controller", "storms", "service",
                    "autoscale", "migrate", "bench")
_layer([f"self_s.{layer}" for layer in SELF_TIME_LAYERS], "s", "lower",
       {"wall_s": _ALL, "setup_s": _ALL})
_layer(["trace.overhead_frac"], "fraction", "lower", {})


#: Why a layer metric reads 0 on a workload: the layer's boundary is
#: never crossed there.  Printed next to the value on traced runs.
NOT_APPLICABLE: Dict[str, Dict[str, str]] = {
    "fig6_loop": {
        "service.mp_run_s": "the process executor serves only drill_day",
        "workload.load_s": "no LoadGenerator: calls come from the "
                           "simulator's own trace generator",
        "controller": "the day replay drives the selector with call objects, "
                      "no event batch is built",
        "storms": "no storm is served",
        "service": "the simulator replays days through RealTimeSelector, "
                   "not the service plane",
        "kvstore": "no service plane, so no kvstore",
        "autoscale": "no autoscaler is bound",
        "migrate": "no live migrator is bound",
        "provisioning.arm_wins": "the simulator's planner runs without a "
                                 "portfolio: no race",
        "provisioning.warm_hit_frac": "no warm-start cache is configured",
        "provisioning.dual_hit_frac": "no warm-start cache is configured",
        "provisioning.max_bound_gap": "no portfolio race, no bound gap",
    },
    "plan_rolling": {
        "service.mp_run_s": "the process executor serves only drill_day",
        "workload.load_s": "no LoadGenerator: plans come from the demand "
                           "days directly",
        "workload.trace_s": "demand days are expected demand times a "
                            "seeded refresh, no call traces",
        "records": "no call records are kept",
        "forecasting": "plans are built from given demand days",
        "allocation.select_s": "no calls are selected in real time",
        "controller": "no events are served",
        "storms": "no storm is served",
        "service": "no events are served",
        "kvstore": "no events are served",
        "autoscale": "no autoscaler is bound",
        "migrate": "no live migrator is bound",
    },
    "serve_day": {
        "service.mp_run_s": "the process executor serves only drill_day",
        "records": "no call records are kept",
        "forecasting": "the plan comes from the model's expected demand",
        "allocation.select_s": "selection runs inside service.run",
        "storms": "no storm is served",
        "autoscale": "no autoscaler is bound",
        "migrate": "no live migrator is bound",
        "provisioning.arm_wins": "one plain provision without backup: no "
                                 "portfolio race",
        "provisioning.warm_hit_frac": "no warm-start cache is configured",
        "provisioning.dual_hit_frac": "no warm-start cache is configured",
        "provisioning.max_bound_gap": "no portfolio race, no bound gap",
    },
    "drill_day": {
        "workload.load_s": "no LoadGenerator: calls come from the "
                           "storm-realized trace",
        "records": "no call records are kept",
        "allocation.select_s": "selection runs inside service.run",
        "provisioning.arm_wins": "plain provisions without backup: no "
                                 "portfolio race",
        "provisioning.warm_hit_frac": "no warm-start cache is configured",
        "provisioning.dual_hit_frac": "no warm-start cache is configured",
        "provisioning.max_bound_gap": "no portfolio race, no bound gap",
    },
}


def not_applicable(workload: str, metric: str) -> Optional[str]:
    """The declared reason ``metric`` reads 0 on ``workload``, if any."""
    table = NOT_APPLICABLE.get(workload, {})
    if metric.startswith("self_s."):
        metric = metric[len("self_s."):]
    parts = metric.split(".")
    for depth in range(len(parts), 0, -1):
        reason = table.get(".".join(parts[:depth]))
        if reason is not None:
            return reason
    return None


def spec() -> Dict[str, object]:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _, _ in PER_LAYER],
    }


def expectations() -> List[Dict[str, object]]:
    """What each per-layer metric should move, and where it should not."""
    return [{"name": n, "moves": {k: list(v) for k, v in moves.items()},
             "no_change": list(no_change)}
            for n, _, _, moves, no_change in PER_LAYER]
