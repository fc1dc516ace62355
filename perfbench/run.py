#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload fig6_loop --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` records spans around each layer's public functions and
reports the per-layer metrics instead.  Every metric is printed with its
unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any correctness check fails.

``--write-spec`` regenerates ``BENCHMARK.json`` and
``perfbench/expectations.json`` from ``perfbench/metrics.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def write_spec() -> None:
    from perfbench import metrics

    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(metrics.spec(), fh, indent=2)
        fh.write("\n")
    expectations = {
        "workload_specific": [
            {"name": n, "unit": u, "better": b, "workloads": list(ws)}
            for n, u, b, ws in metrics.WORKLOAD_SPECIFIC],
        "per_layer": metrics.expectations(),
        "not_applicable": metrics.NOT_APPLICABLE,
    }
    with open(os.path.join(ROOT, "perfbench", "expectations.json"),
              "w") as fh:
        json.dump(expectations, fh, indent=2)
        fh.write("\n")


def stop_children() -> None:
    """Wait for every process the run started.

    The process executor's workers are joined by the engine, but its
    shared-memory segments start multiprocessing's resource tracker,
    which would otherwise outlive this process.  Stopping it here (it
    exits once its pipe closes) and reaping it leaves nothing behind.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import bench, metrics
    from perfbench.calibrate import REFERENCE_S
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    out = bench.run(args.workload, args.seed, args.seconds,
                    trace=bool(args.trace))
    print(f"workload {out.workload}  seed {out.seed}  "
          f"reps {len(out.walls)} untraced / {len(out.traced_walls)} traced  "
          f"set-ups {len(out.setup_s)}")
    print("  rep walls (s): " + " ".join(_fmt(w) for w in out.walls)
          + (" | traced: " + " ".join(_fmt(w) for w in out.traced_walls)
             if out.traced_walls else ""))
    serving = out.reps[0].serving
    if "events" in serving:
        print(f"  input: {serving['calls']} calls, {serving['events']} events")
    if args.trace:
        metrics_out = out.per_layer()
        for name, (value, unit) in metrics_out.items():
            reason = (metrics.not_applicable(out.workload, name)
                      if value == 0 else None)
            note = f"  (n/a: {reason})" if reason else ""
            print(f"  {name:<36} {_fmt(value):>12} {unit}{note}")
    else:
        metrics_out = out.end_to_end()
        for name, (value, unit) in metrics_out.items():
            print(f"  {name:<36} {_fmt(value):>12} {unit}")
        print(f"  (raw medians: setup {_fmt(statistics.median(out.setup_s))}"
              f" s, wall {_fmt(statistics.median(out.walls))} s; reference "
              f"pass {_fmt(statistics.median(out.rep_refs))} s, nominal "
              f"{REFERENCE_S} s)")
        for name, entry in out.workload_specific().items():
            if entry is None:
                print(f"  {name:<36} {'n/a':>12}")
                continue
            value, unit = entry
            note = ""
            if name.startswith("admit_"):
                note = f"  (n={out.reps[0].serving['admit_count']})"
            print(f"  {name:<36} {_fmt(value):>12} {unit}{note}")
    for violation in out.violations:
        print(f"VIOLATION {violation}")
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics_out.items()},
    }))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
