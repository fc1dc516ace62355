"""Benchmark: the columnar data plane, end to end.

Measures events/s for the full generate → sort → serve pipeline:
vectorized ``TraceGenerator.generate_columnar``, ``build_event_batch``'s
lexsort, and the admission kernel.

Also measures the peak traced memory of the *streaming* iterator
(``iter_chunks`` → ``iter_event_batches``) at 1x and 2x the horizon:
because chunks are regenerated and dropped, the peak must stay roughly
flat as the trace grows — sub-linear in trace length — while the
materialized batch grows linearly.

Runnable standalone (CI's serving-smoke job)::

    python benchmarks/bench_datapath.py --smoke --json out.json

or under pytest-benchmark (``pytest benchmarks/bench_datapath.py``).
``--executor process --workers N`` serves through the multiprocess
engine.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

try:
    from benchmarks.svc_cli import service_arg_parser, write_json_artifact
except ImportError:  # standalone: python benchmarks/bench_datapath.py
    from svc_cli import service_arg_parser, write_json_artifact

from repro.core.types import make_slots
from repro.core.units import DEFAULT_FREEZE_WINDOW_S, DEFAULT_SLOT_S
from repro.config import PlannerConfig, ServiceConfig
from repro.controller.columnar import build_event_batch, iter_event_batches
from repro.kvstore import InMemoryKVStore
from repro.service import ServiceRuntime
from repro.switchboard import Switchboard
from repro.topology.builder import Topology
from repro.workload.arrivals import DemandModel
from repro.workload.configs import generate_population
from repro.workload.diurnal import DiurnalModel
from repro.workload.trace import TraceGenerator

SEED = 7


def _build_world(smoke: bool):
    topology = Topology.default()
    n_configs = 40 if smoke else 120
    calls_per_slot = 40.0 if smoke else 900.0
    population = generate_population(topology.world, n_configs=n_configs,
                                     seed=SEED)
    model = DemandModel(topology.world, population, DiurnalModel(),
                        calls_per_slot_at_peak=calls_per_slot)
    horizon_s = 21600.0 if smoke else 86400.0
    demand = model.sample(make_slots(horizon_s, DEFAULT_SLOT_S), seed=SEED)
    return topology, model, demand


def _make_runtime(topology, plan, executor: str = "thread",
                  n_workers: int = 1) -> ServiceRuntime:
    """The serving arm: thread keeps the zero-latency in-memory store;
    process shards call state over per-worker stores."""
    config = ServiceConfig(n_workers=n_workers, executor=executor)
    store = InMemoryKVStore() if executor == "thread" else None
    return ServiceRuntime.from_config(topology, plan, config, store=store)


def _bench_throughput(topology, demand, plan, repeats: int = 3,
                      executor: str = "thread",
                      n_workers: int = 1) -> dict:
    """Time generate → sort → serve, keeping the best of ``repeats`` —
    the minimum is the least-noise estimate of the true cost on a
    machine with background load."""
    columnar_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        columnar = TraceGenerator(seed=SEED + 1).generate_columnar(demand)
        batch = build_event_batch(columnar, DEFAULT_FREEZE_WINDOW_S)
        report = _make_runtime(topology, plan, executor,
                               n_workers).run(batch)
        columnar_s = min(columnar_s, time.perf_counter() - t0)
        report.require_exact_accounting()
    return {
        "n_calls": columnar.n_calls,
        "n_events": len(batch),
        "columnar_s": round(columnar_s, 3),
        "columnar_events_per_s": round(len(batch) / columnar_s),
    }


def _streaming_peak_bytes(model: DemandModel, horizon_s: float) -> dict:
    """Traced peak memory while draining the streaming event iterator."""
    demand = model.sample(make_slots(horizon_s, DEFAULT_SLOT_S), seed=SEED)
    generator = TraceGenerator(seed=SEED + 1)
    tracemalloc.start()
    n_events = 0
    for batch in iter_event_batches(generator.iter_chunks(demand),
                                    DEFAULT_FREEZE_WINDOW_S):
        n_events += len(batch)
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    full = build_event_batch(
        TraceGenerator(seed=SEED + 1).generate_columnar(demand),
        DEFAULT_FREEZE_WINDOW_S)
    _, materialized_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(full) == n_events

    return {
        "horizon_s": horizon_s,
        "n_events": n_events,
        "streaming_peak_bytes": streaming_peak,
        "materialized_peak_bytes": materialized_peak,
    }


def run_datapath_bench(smoke: bool = False, executor: str = "thread",
                       n_workers: int = 1) -> dict:
    topology, model, demand = _build_world(smoke)
    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(demand, with_backup=False)
    plan = controller.allocate(demand, capacity).plan

    throughput = _bench_throughput(topology, demand, plan,
                                   executor=executor, n_workers=n_workers)

    # Whole diurnal days, so 2x means "twice as long", not "twice as
    # busy": the busiest chunk is the same size and only the chunk
    # *count* doubles.
    base_h = 86400.0
    mem_1x = _streaming_peak_bytes(model, base_h)
    mem_2x = _streaming_peak_bytes(model, 2 * base_h)
    growth = mem_2x["streaming_peak_bytes"] / max(1, mem_1x["streaming_peak_bytes"])

    results = {
        "mode": "smoke" if smoke else "full",
        "executor": executor,
        "serve_workers": n_workers,
        "throughput": throughput,
        "memory": {"at_1x": mem_1x, "at_2x": mem_2x,
                   "peak_growth_2x": round(growth, 2)},
    }

    # Doubling the trace must not double the streaming peak (chunks are
    # dropped as they are consumed); the materialized batch does grow.
    assert growth < 1.6, f"streaming peak grew {growth:.2f}x with 2x trace"
    assert (mem_2x["streaming_peak_bytes"]
            < mem_2x["materialized_peak_bytes"]), "streaming should beat full"
    return results


def test_datapath_throughput(benchmark):
    from benchmarks.conftest import run_once
    results = run_once(benchmark, lambda: run_datapath_bench(smoke=True))
    thr = results["throughput"]
    benchmark.extra_info.update({
        "columnar_events_per_s": thr["columnar_events_per_s"],
        "streaming_peak_growth_2x": results["memory"]["peak_growth_2x"],
    })
    print("\n" + render(results))


def render(results: dict) -> str:
    thr = results["throughput"]
    mem = results["memory"]
    return "\n".join([
        f"datapath ({results['mode']}, serve via "
        f"{results['executor']} x{results['serve_workers']}): "
        f"{thr['n_calls']} calls, {thr['n_events']} events",
        f"  columnar path: {thr['columnar_events_per_s']:>9,} events/s "
        f"({thr['columnar_s']}s)",
        f"  streaming peak: {mem['at_1x']['streaming_peak_bytes']:,} B at 1x, "
        f"{mem['at_2x']['streaming_peak_bytes']:,} B at 2x "
        f"(growth {mem['peak_growth_2x']}x; materialized "
        f"{mem['at_2x']['materialized_peak_bytes']:,} B)",
    ])


def main(argv=None) -> int:
    parser = service_arg_parser(
        "The columnar data plane, end to end.", default_workers=1)
    args = parser.parse_args(argv)
    results = run_datapath_bench(smoke=args.smoke, executor=args.executor,
                                 n_workers=args.workers)
    print(render(results))
    if args.json:
        write_json_artifact(results, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
