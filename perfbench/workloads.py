"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in :meth:`setup`
(the world — topology and call-config population — is fixed; the seed
drives only the stochastic realization: sampled demand, calls, storm
draws, demand refreshes), then runs one unit of work per rep:
:meth:`prepare` builds the rep's fresh objects untimed, :meth:`run` is
the timed phase, and :meth:`finish` checks the result and returns a
:class:`Rep` — the quality numbers, the sub-metrics only a serving
workload has, the deterministic fingerprint that traced and untraced
reps must agree on, and every violated correctness check.

All loops are closed: one sender replays event time as fast as the
program allows, so serving reports work per second at a stated size.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

from repro.autoscale import Autoscaler
from repro.config import (
    AutoscaleConfig,
    MigrationConfig,
    PlannerConfig,
    PortfolioConfig,
    ServiceConfig,
)
from repro.controller import columnar
from repro.core.types import make_slots
from repro.core.units import DEFAULT_FREEZE_WINDOW_S, DEFAULT_SLOT_S
from repro.migrate import MigrationExecutor
from repro.service import ServiceRuntime
from repro.service.loadgen import LoadGenerator
from repro.simulation import ServiceSimulator
from repro.storms.catalog import get_storm
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand, DemandModel
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import TraceGenerator

#: The storm the drill serves: a 3x flash crowd in the hour a DC is lost.
DRILL_STORM = "viral-megameeting-during-dc-loss"


@dataclass
class Rep:
    """What one rep of a workload produced."""

    #: capacity_cost / mean_acl_ms: the plan quality every workload has.
    quality: Dict[str, float]
    #: Serving-only outcomes (events, fractions, admission tails).
    serving: Dict[str, float] = field(default_factory=dict)
    #: Deterministic outputs; equal across reps and traced/untraced.
    fingerprint: Any = None
    violations: List[str] = field(default_factory=list)
    #: Attempted operations and how many of them failed or degraded.
    attempted: int = 0
    failed: int = 0
    #: Controllers whose obs trail and warm cache the layer view reads.
    controllers: List[Switchboard] = field(default_factory=list)


class Workload:
    """``setup(seed)`` → state; ``prepare(state)`` → the untimed per-rep
    objects; ``run(state, prepared)`` → the timed work; ``finish``
    checks the result and turns it into a :class:`Rep`."""

    name = ""
    why = ""

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke

    def setup(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def prepare(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return {}

    def run(self, state: Dict[str, Any], prepared: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def finish(self, state: Dict[str, Any], prepared: Dict[str, Any],
               result: Any) -> Rep:
        raise NotImplementedError


def _obs_failures(controllers: List[Switchboard]) -> Dict[str, int]:
    counts = {"attempts": 0, "failures": 0, "degraded": 0}
    for controller in controllers:
        c = controller.obs.counters
        counts["attempts"] += c.get("solve.attempt")
        counts["failures"] += c.get("solve.failure")
        counts["degraded"] += c.get("ladder.degraded")
    return counts


def _serving_outcomes(report) -> Dict[str, Any]:
    generated = report.generated_calls
    return {
        "events": report.events_processed,
        "calls": generated,
        "overflow_frac": report.overflowed_calls / generated,
        "migration_frac": report.migrated_calls / generated,
        "admit_p50_ms": report.admission_latency_ms.get("p50"),
        "admit_p99_ms": report.admission_latency_ms.get("p99"),
        "admit_count": report.admission_latency_ms.get("count", 0),
    }


def _serving_checks(report, svc: ServiceConfig) -> List[str]:
    violations = []
    if not report.accounting_exact:
        violations.append(
            f"accounting not exact: generated {report.generated_calls}, "
            f"settled {report.settled_calls}, unsettled "
            f"{report.unsettled_calls}, dropped {report.dropped_events}")
    kv_samples = report.kv_latency_ms.get("count", 0)
    if svc.kv_latency_median_ms is not None or kv_samples:
        violations.append(
            f"kvstore simulated latency is on ({kv_samples} samples); "
            f"serving must measure CPU cost only")
    return violations


def _accounting(report) -> tuple:
    return (report.generated_calls, report.admitted_calls,
            report.migrated_calls, report.overflowed_calls,
            report.unplanned_calls, report.events_processed,
            report.kv_op_count, report.live_migrated_calls,
            report.disrupted_calls, report.migration_batches,
            report.rescale_events)


# ----------------------------------------------------------------------
class _ExampleWeek(DemandModel):
    """The demand model whose sampled week is part of the fixed world.

    ``ServiceSimulator`` draws the week's per-slot call counts from its
    own seed; this model always returns the week
    ``examples/week_of_operations.py`` operates (the simulator's default
    seed), so the workload seed varies only the calls realized from it
    and the records ingested.  Drawing a fresh week per seed moved the
    forecasts, and so capacity cost and forecasting time, by ~15%
    from seed to seed.
    """

    WEEK_SEED = 97

    def sample(self, slots, seed: int = 11) -> Demand:
        return super().sample(slots, seed=self.WEEK_SEED)


class Fig6Loop(Workload):
    """``ServiceSimulator.run`` with ``examples/week_of_operations.py``'s
    settings: the whole forecast → provision → allocate → select loop."""

    name = "fig6_loop"
    why = ("closed loop, 1 sender: the Fig 6 loop of "
           "examples/week_of_operations.py on its week's demand, 10 days "
           "(3 bootstrap, re-provision every 3); forecasting does most work")

    def setup(self, seed: int) -> Dict[str, Any]:
        topology = Topology.default()
        population = generate_population(topology.world, n_configs=50,
                                         seed=17)
        model = _ExampleWeek(topology.world, population,
                             calls_per_slot_at_peak=50.0)
        return {"topology": topology, "model": model, "seed": seed,
                "days": 5 if self.smoke else 10,
                "bootstrap": 2 if self.smoke else 3}

    def prepare(self, state):
        return {"sim": ServiceSimulator(
            state["topology"], state["model"],
            bootstrap_days=state["bootstrap"], reprovision_every=3,
            capacity_cushion=1.25, seed=state["seed"])}

    def run(self, state, prepared):
        return prepared["sim"].run(n_days=state["days"])

    def finish(self, state, prepared, report) -> Rep:
        sim = prepared["sim"]
        days = report.days[state["bootstrap"]:]
        calls = sum(d.n_calls for d in days)
        violations = [f"day {d.day} degraded to level {d.degradation_level}"
                      for d in days if d.degradation_level != 0]
        if calls == 0:
            violations.append("no calls on operational days")
        obs = _obs_failures([sim.controller])
        return Rep(
            quality={
                "capacity_cost": float(np.mean([d.capacity_cost
                                                for d in days])),
                "mean_acl_ms": sum(d.mean_acl_ms * d.n_calls
                                   for d in days) / max(calls, 1),
            },
            serving={
                "calls": calls,
                "overflow_frac": sum(d.overflow_calls for d in days)
                / max(calls, 1),
                "migration_frac": sum(d.migrations for d in days)
                / max(calls, 1),
            },
            fingerprint=[dataclasses.astuple(d) for d in report.days],
            violations=violations,
            attempted=report.total_calls + obs["attempts"],
            failed=obs["failures"] + obs["degraded"],
            controllers=[sim.controller],
        )


# ----------------------------------------------------------------------
class PlanRolling(Workload):
    """Three seeded demand days through one warm-started controller:
    ``provision(with_backup=True)`` then ``allocate`` each day."""

    name = "plan_rolling"
    why = ("closed loop, 1 sender: 3 demand days (+/-8% seeded refresh, "
           "day 3 shifted 1 slot), default topology, 67 configs, 8 "
           "slots/day, 93 DC+link scenarios, one portfolio controller")

    def setup(self, seed: int) -> Dict[str, Any]:
        topology = Topology.small() if self.smoke else Topology.default()
        population = generate_population(topology.world, n_configs=8,
                                         seed=61)
        base = DemandModel(
            topology.world, population, DiurnalModel(),
            calls_per_slot_at_peak=200.0,
        ).expected(make_slots(86400.0, 10800.0))
        # The daily re-provisioning cadence: each day is the expected
        # demand under a seeded +/-8% refresh.  Day 1 solves cold; day
        # 2's heuristic arms are certified by day 1's cached dual floors;
        # day 3's demand arrives one slot later, so those floors no
        # longer certify and every scenario races down to the exact arm.
        # Each rep thus takes all three paths whatever the seed (with the
        # refresh alone, whether a day certifies flips from seed to seed).
        rng = np.random.default_rng(seed)
        counts = [base.counts * rng.uniform(0.92, 1.08, base.counts.shape)
                  for _ in range(3)]
        counts[2] = np.roll(counts[2], 1, axis=0)
        days = [Demand(base.slots, base.configs, c) for c in counts]
        config = PlannerConfig(backup_method="max",
                               portfolio=PortfolioConfig(),
                               max_link_scenarios=None)
        return {"topology": topology, "days": days, "config": config}

    def prepare(self, state):
        # A fresh controller per rep: its warm-start cache carries over
        # from day to day inside the rep, never between reps.
        return {"controller": Switchboard(state["topology"],
                                          config=state["config"])}

    def run(self, state, prepared):
        controller = prepared["controller"]
        out = []
        for demand in state["days"]:
            capacity = controller.provision(demand, with_backup=True)
            out.append((capacity, controller.allocate(demand, capacity)))
        return out

    def finish(self, state, prepared, out) -> Rep:
        topology = state["topology"]
        gap = state["config"].portfolio.gap
        violations = []
        for day, (capacity, outcome) in enumerate(out):
            if capacity.degradation_level or outcome.degradation_level:
                violations.append(
                    f"day {day}: degradation levels {capacity.degradation_level}"
                    f"/{outcome.degradation_level}")
            for result in capacity.scenario_results:
                if (result.bound_gap or 0.0) > gap + 1e-9:
                    violations.append(
                        f"day {day}: scenario {result.scenario.name} gap "
                        f"{result.bound_gap} > {gap}")
        obs = _obs_failures([prepared["controller"]])
        return Rep(
            quality={
                "capacity_cost": float(np.mean(
                    [c.cost(topology) for c, _ in out])),
                "mean_acl_ms": float(np.mean(
                    [o.plan.mean_acl_ms(topology.acl_ms) for _, o in out])),
            },
            fingerprint=[
                (c.cost(topology), [r.cost for r in c.scenario_results],
                 o.objective_acl_sum) for c, o in out],
            violations=violations,
            attempted=2 * len(out) + obs["attempts"],
            failed=obs["failures"] + obs["degraded"],
            controllers=[prepared["controller"]],
        )


# ----------------------------------------------------------------------
class ServeDay(Workload):
    """One large ``LoadGenerator`` day on the thread executor, 1 worker,
    against a plan built from the model's expected demand."""

    name = "serve_day"
    why = ("closed loop, 1 sender: one LoadGenerator day (~15k calls, "
           "~105k events, 40 configs, default topology), thread executor "
           "1 worker, no simulated KV latency")
    service = ServiceConfig(executor="thread", n_workers=1)

    def setup(self, seed: int) -> Dict[str, Any]:
        topology = Topology.small() if self.smoke else Topology.default()
        generator = LoadGenerator(
            topology, n_configs=8 if self.smoke else 40,
            calls_per_slot_at_peak=60.0 if self.smoke else 1000.0, seed=33)
        # The population above is the fixed world; the workload seed
        # drives only the day's sampled demand and calls.
        generator.seed = seed
        load = generator.generate(86400.0)
        expected = generator.demand_model.expected(
            make_slots(86400.0, DEFAULT_SLOT_S))
        controller = Switchboard(topology,
                                 config=PlannerConfig(max_link_scenarios=0))
        capacity = controller.provision(expected, with_backup=False)
        plan = controller.allocate(expected, capacity).plan
        return {"topology": topology, "load": load, "plan": plan,
                "capacity_cost": capacity.cost(topology),
                "controller": controller}

    def run(self, state, prepared):
        runtime = ServiceRuntime.from_config(state["topology"], state["plan"],
                                             self.service)
        return runtime.run(state["load"])

    def finish(self, state, prepared, report) -> Rep:
        obs = _obs_failures([state["controller"]])
        return Rep(
            quality={"capacity_cost": state["capacity_cost"],
                     "mean_acl_ms": report.mean_acl_ms},
            serving=_serving_outcomes(report),
            fingerprint=(_accounting(report), state["capacity_cost"]),
            violations=_serving_checks(report, self.service),
            attempted=report.generated_calls + report.events_total
            + obs["attempts"],
            failed=report.unsettled_calls + report.dropped_events
            + obs["failures"] + obs["degraded"],
            controllers=[state["controller"]],
        )


# ----------------------------------------------------------------------
class DrillDay(Workload):
    """The DC-loss storm day with a live migrator and a closed-loop
    autoscaler bound."""

    name = "drill_day"
    why = ("closed loop, 1 sender: viral-megameeting-during-dc-loss day "
           "(~11k calls, ~66k events, small topology), live migrator + "
           "autoscaler; thread executor, process executor x2 when traced")
    service = ServiceConfig(executor="thread", n_workers=1)
    #: The multiprocess plane at 2 workers.  Traced runs serve each
    #: traced rep's day on it as well: its serving time is a layer metric
    #: and its outputs must equal the thread oracle's.  It is not the
    #: timed phase because its wall time (one pipe round trip per
    #: settle) swings 2-3x with the host's wake-up latency.
    mp_service = ServiceConfig(executor="process", n_workers=2)
    migration = MigrationConfig(interval_s=600.0, max_moves_per_window=256,
                                disruption_ceiling=0.25)

    def setup(self, seed: int) -> Dict[str, Any]:
        topology = Topology.small()
        population = generate_population(topology.world, n_configs=8,
                                         seed=29)
        model = DemandModel(topology.world, population, DiurnalModel(),
                            calls_per_slot_at_peak=60.0 if self.smoke
                            else 600.0)
        base = model.expected(make_slots(86400.0, DEFAULT_SLOT_S))
        storm = get_storm(DRILL_STORM).build()
        actual = storm.realize(base, seed + 1)
        trace = TraceGenerator(seed=seed + 2).generate_columnar(actual)
        trace = storm.apply_trace(trace, seed=seed + 3, demand_applied=True)
        events = columnar.build_event_batch(trace, DEFAULT_FREEZE_WINDOW_S)
        return {"topology": topology, "planning": base.scale(1.25),
                "storm": storm, "events": events}

    def prepare(self, state):
        # The planner's view is a normal cushioned day; the fault plan
        # only reaches the live plane, as drain orders.
        topology = state["topology"]
        controller = Switchboard(topology,
                                 config=PlannerConfig(max_link_scenarios=0))
        capacity = controller.provision(state["planning"], with_backup=False)
        plan = controller.allocate(state["planning"], capacity).plan
        migrator = MigrationExecutor(config=self.migration,
                                     obs=controller.obs)
        orders = migrator.watch(state["storm"].fault_plan(), day=0)
        autoscaler = Autoscaler(controller, state["planning"], plan,
                                config=AutoscaleConfig(), capacity=capacity,
                                obs=controller.obs, migrator=migrator)
        return {"controller": controller, "plan": plan, "orders": orders,
                "migrator": migrator, "autoscaler": autoscaler,
                "capacity_cost": capacity.cost(topology)}

    def run(self, state, prepared, service: ServiceConfig = None):
        runtime = ServiceRuntime.from_config(
            state["topology"], prepared["plan"], service or self.service,
            rescaler=prepared["autoscaler"], migrator=prepared["migrator"],
            obs=prepared["controller"].obs)
        return runtime.run(state["events"])

    def finish(self, state, prepared, report) -> Rep:
        migrator = prepared["migrator"]
        lost = sorted({order.dc for order in prepared["orders"]})
        stranded = sum(len(migrator.registry.live_on(dc)) for dc in lost)
        generated = report.generated_calls
        disrupted_frac = report.disrupted_calls / generated
        violations = _serving_checks(report, self.service)
        if not lost:
            violations.append("storm carries no DC loss to drill")
        if stranded:
            violations.append(f"{stranded} calls stranded on lost DC {lost}")
        if disrupted_frac > self.migration.disruption_ceiling:
            violations.append(f"disruption {disrupted_frac:.4f} over ceiling "
                              f"{self.migration.disruption_ceiling}")
        shortfall = int(report.autoscale.get("drain_shortfall", 0))
        if shortfall:
            violations.append(f"drain shortfall {shortfall}")
        candidates = int(report.migration.get("candidates", 0))
        if candidates != report.live_migrated_calls + report.disrupted_calls:
            violations.append("migration candidates not partitioned into "
                              "moved + disrupted")
        serving = _serving_outcomes(report)
        serving["disrupted_frac"] = disrupted_frac
        serving["core_hours"] = float(
            report.autoscale.get("capacity_core_hours", 0.0))
        obs = _obs_failures([prepared["controller"]])
        return Rep(
            quality={"capacity_cost": prepared["capacity_cost"],
                     "mean_acl_ms": report.mean_acl_ms},
            serving=serving,
            fingerprint=(_accounting(report), prepared["capacity_cost"],
                         serving["core_hours"]),
            violations=violations,
            attempted=generated + report.events_total + obs["attempts"],
            failed=report.unsettled_calls + report.dropped_events
            + obs["failures"] + obs["degraded"],
            controllers=[prepared["controller"]],
        )


WORKLOADS = {w.name: w for w in (Fig6Loop, PlanRolling, ServeDay, DrillDay)}

