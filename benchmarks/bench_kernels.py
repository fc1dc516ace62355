"""Microbenchmarks on the computational kernels.

Conventional multi-round pytest-benchmark measurements of the pieces the
controller's scalability rests on: LP assembly+solve, Holt-Winters grid
fitting (one series, and a nightly batch of configs), WAN path
computation, placement precomputation, kvstore ops, and single-call
real-time selection (the §5.4 critical path).
"""

import numpy as np
import pytest

from repro.allocation.realtime import RealTimeSelector
from repro.core.types import Call, CallConfig, MediaType, Participant, make_slots
from repro.forecasting.holt_winters import (
    fit_holt_winters,
    fit_holt_winters_batch,
)
from repro.kvstore.store import InMemoryKVStore
from repro.provisioning.demand import PlacementData
from repro.provisioning.formulation import ScenarioLP
from repro.allocation.plan import AllocationPlan
from repro.topology.builder import Topology
from repro.workload.arrivals import Demand


def test_scenario_lp_solve(benchmark, small_scenario):
    """Assembling + solving one no-failure provisioning LP."""
    scn = small_scenario
    demand = scn.expected_demand
    placement = PlacementData(scn.topology, demand.configs, scn.load_model)

    def solve():
        return ScenarioLP(placement, demand).solve()

    result = benchmark(solve)
    assert result.cores


def test_holt_winters_grid_fit(benchmark):
    """Grid-fitting one 2-week half-hourly series (the §5.2 unit of work)."""
    t = np.arange(672)
    series = 50 + 30 * np.sin(2 * np.pi * t / 48) + 5 * np.sin(2 * np.pi * t / 336)

    result = benchmark(fit_holt_winters, series, 336)
    assert result.sse >= 0


def test_holt_winters_batch_fit(benchmark):
    """One nightly forecast of the Fig 6 loop: 131 configs x 9 days of
    half-hourly history fitted in one batched kernel call."""
    rng = np.random.default_rng(0)
    t = np.arange(432)
    diurnal = 1 + np.sin(2 * np.pi * t / 48)
    series = rng.poisson(rng.uniform(0.1, 20, (131, 1)) * diurnal).astype(float)

    fits = benchmark(fit_holt_winters_batch, series, 48)
    assert len(fits) == 131
    assert all(fit.sse >= 0 for fit in fits)


def test_wan_path_computation(benchmark):
    """Shortest-path on the default WAN (cold cache per call)."""
    topology = Topology.default()
    pairs = [(dc, c) for dc in topology.fleet.ids[:5]
             for c in topology.world.codes[:5]]

    def paths():
        total = 0
        for dc, country in pairs:
            total += len(topology.wan.path(dc, country))
        return total

    assert benchmark(paths) > 0


def test_placement_precomputation(benchmark, small_scenario):
    """Building PlacementData for the scenario's config set."""
    scn = small_scenario

    def build():
        return PlacementData(scn.topology, scn.expected_demand.configs,
                             scn.load_model)

    placement = benchmark(build)
    assert placement.configs


def test_kvstore_mixed_ops(benchmark):
    """1k mixed store operations without simulated latency."""
    store = InMemoryKVStore()

    def ops():
        for i in range(200):
            store.set(f"k{i % 50}", i)
            store.incr("counter")
            store.hincrby("h", f"f{i % 10}")
            store.hget("h", "f0")
            store.get(f"k{i % 50}")
        return store.op_count

    assert benchmark(ops) > 0


def test_realtime_selection_per_call(benchmark, small_scenario):
    """The §5.4 critical path: assign + settle one call."""
    scn = small_scenario
    config = CallConfig.build({"JP": 2}, MediaType.AUDIO)
    plan = AllocationPlan(
        slots=make_slots(86400.0),
        shares={(t, config): {"dc-tokyo": 1e9} for t in range(48)},
    )
    selector = RealTimeSelector(scn.topology, plan)
    call = Call("c", 10.0, 1800.0, [
        Participant("a", "JP", 0.0), Participant("b", "JP", 5.0),
    ])

    outcome = benchmark(selector.process_call, call)
    assert outcome.final_dc == "dc-tokyo"
