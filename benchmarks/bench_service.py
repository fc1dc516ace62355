"""Benchmark: online admission service throughput vs worker count.

A LoadGenerator day is replayed through :class:`ServiceRuntime` against
a 4-shard latency-simulating kvstore at 1 and N workers, for either
execution model:

* ``--executor thread`` — worker threads inside one process (per-worker
  KV pipelining hides the simulated per-op latency);
* ``--executor process`` — one OS process per worker over shared-memory
  columnar segments (the multiprocess engine).

The headline numbers — events/s per worker count, the scaling ratio,
and the p50/p95/p99 admission latency — land in ``extra_info`` under
pytest-benchmark and in the JSON artifact standalone.  Every run
asserts exact call accounting; full mode also asserts the >=2x 1->N
scaling, and the process arm is additionally pinned against the
single-threaded oracle (identical accounting + identical KV op count).

Runnable standalone (CI's serving-smoke job)::

    python benchmarks/bench_service.py --executor process --workers 2 \
        --smoke --json out.json

or under pytest-benchmark (``pytest benchmarks/bench_service.py``).
"""

from __future__ import annotations

import sys

try:
    from benchmarks.svc_cli import service_arg_parser, write_json_artifact
except ImportError:  # standalone: python benchmarks/bench_service.py
    from svc_cli import service_arg_parser, write_json_artifact

from repro import PlannerConfig, Switchboard, Topology
from repro.config import ServiceConfig
from repro.service import LoadGenerator, ServiceRuntime

TARGET_EVENTS = 4_000
SMOKE_TARGET_EVENTS = 1_500
N_SHARDS = 4
KV_MEDIAN_MS = 1.0
WORKER_COUNTS = (1, 4)


def _build_scenario(target_events: int = TARGET_EVENTS):
    topology = Topology.default()
    load = LoadGenerator(topology, n_configs=40,
                         calls_per_slot_at_peak=40.0,
                         seed=7).generate(target_events=target_events)
    controller = Switchboard(topology,
                             config=PlannerConfig(max_link_scenarios=0))
    capacity = controller.provision(load.demand, with_backup=False)
    plan = controller.allocate(load.demand, capacity).plan
    return topology, plan, load


def _serve(topology, plan, load, executor: str, n_workers: int):
    config = ServiceConfig(n_shards=N_SHARDS, n_workers=n_workers,
                           kv_latency_median_ms=KV_MEDIAN_MS,
                           kv_latency_seed=5, executor=executor)
    runtime = ServiceRuntime.from_config(topology, plan, config)
    report = runtime.run(load)
    report.require_exact_accounting()
    return report


def run_service_bench(executor: str = "thread",
                      max_workers: int = max(WORKER_COUNTS),
                      smoke: bool = False) -> dict:
    """Serve the same day at 1 and ``max_workers`` workers; if the
    executor is ``process``, also pin outcome parity against the
    single-threaded oracle."""
    target = SMOKE_TARGET_EVENTS if smoke else TARGET_EVENTS
    topology, plan, load = _build_scenario(target)
    worker_counts = sorted({1, max_workers})

    reports = {n: _serve(topology, plan, load, executor, n)
               for n in worker_counts}

    slow = reports[min(worker_counts)]
    fast = reports[max(worker_counts)]
    results = {
        "mode": "smoke" if smoke else "full",
        "executor": executor,
        "n_events": load.n_events,
        "workers": {
            n: {
                "events_per_s": round(report.events_per_s),
                "admission_latency_ms": report.admission_latency_ms,
                "accounting_exact": report.accounting_exact,
            }
            for n, report in reports.items()
        },
        "speedup": round(fast.events_per_s / slow.events_per_s, 2),
        "reports": {n: report.to_dict() for n, report in reports.items()},
    }

    # Workers must never change outcomes, only wall time.
    for attr in ("generated_calls", "admitted_calls", "migrated_calls",
                 "overflowed_calls", "unplanned_calls", "kv_op_count"):
        assert getattr(fast, attr) == getattr(slow, attr), attr

    if executor == "process":
        oracle = _serve(topology, plan, load, "thread", 1)
        for attr in ("generated_calls", "admitted_calls", "migrated_calls",
                     "overflowed_calls", "unplanned_calls", "kv_op_count"):
            assert getattr(fast, attr) == getattr(oracle, attr), (
                f"process executor diverged from the oracle on {attr}")
        results["oracle_parity"] = True

    if not smoke:
        assert results["speedup"] >= 2.0, (
            f"{executor} executor: expected >=2x 1->{max_workers} worker "
            f"scaling, got {results['speedup']}x")
    return results


def render(results: dict) -> str:
    lines = [f"service throughput vs workers — {results['executor']} "
             f"executor ({N_SHARDS} shards, {KV_MEDIAN_MS}ms median KV op, "
             f"{results['n_events']} events):"]
    for n, row in sorted(results["workers"].items()):
        tail = row["admission_latency_ms"]
        lines.append(
            f"  {n} workers: {row['events_per_s']:>9,} events/s  "
            f"admission p50={tail['p50']:.2f} p95={tail['p95']:.2f} "
            f"p99={tail['p99']:.2f} ms")
    lines.append(f"  scaling: {results['speedup']}x")
    if results.get("oracle_parity"):
        lines.append("  oracle parity: byte-identical accounting "
                     "+ KV op count")
    return "\n".join(lines)


def _attach_extra_info(benchmark, results: dict) -> None:
    for n, row in results["workers"].items():
        benchmark.extra_info[f"workers_{n}_events_per_s"] = \
            row["events_per_s"]
    benchmark.extra_info["speedup"] = results["speedup"]
    fast = results["workers"][max(results["workers"])]
    for label, value in fast["admission_latency_ms"].items():
        if value is not None:
            benchmark.extra_info[f"admission_{label}_ms"] = round(value, 3)


def test_service_worker_scaling(benchmark):
    from benchmarks.conftest import run_once
    results = run_once(benchmark, lambda: run_service_bench("thread"))
    _attach_extra_info(benchmark, results)
    print("\n" + render(results))


def test_service_process_scaling(benchmark):
    from benchmarks.conftest import run_once
    results = run_once(benchmark, lambda: run_service_bench("process"))
    _attach_extra_info(benchmark, results)
    print("\n" + render(results))


def main(argv=None) -> int:
    parser = service_arg_parser(
        "Serve one generated day at 1 and N workers; report the scaling.")
    args = parser.parse_args(argv)
    results = run_service_bench(executor=args.executor,
                                max_workers=args.workers,
                                smoke=args.smoke)
    print(render(results))
    if args.json:
        write_json_artifact(results, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
