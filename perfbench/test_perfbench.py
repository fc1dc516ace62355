"""Smoke-size self-tests of the benchmark.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import bench, metrics, run
from perfbench.calibrate import REFERENCE_S, SpeedSampler
from perfbench.layers import WRAP_POINTS
from perfbench.tracer import SpanView, Tracer, WrapPoint
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    """Untraced and traced smoke runs of one workload, seed 1."""
    name = request.param
    return (bench.run(name, seed=1, seconds=0.0, trace=False, smoke=True),
            bench.run(name, seed=1, seconds=0.0, trace=True, smoke=True))


def _check_metric(name, value, unit):
    assert metrics.NAME_RE.match(name), name
    assert metrics.UNIT_RE.match(unit), (name, unit)
    assert isinstance(value, (int, float)), (name, value)


def test_every_metric_is_named_and_has_a_unit(runs):
    untraced, traced = runs
    e2e = untraced.end_to_end()
    assert list(e2e) == [n for n, _, _, _ in metrics.END_TO_END]
    for name, (value, unit) in e2e.items():
        _check_metric(name, value, unit)
        assert value > 0, name
    applies = {n: w for n, _, _, w in metrics.WORKLOAD_SPECIFIC}
    for name, entry in untraced.workload_specific().items():
        assert metrics.NAME_RE.match(name)
        assert (entry is not None) == (untraced.workload in applies[name])
        if entry is not None:
            _check_metric(name, *entry)
    layers = traced.per_layer()
    assert list(layers) == [n for n, _, _, _, _ in metrics.PER_LAYER]
    for name, (value, unit) in layers.items():
        _check_metric(name, value, unit)


def test_traced_and_untraced_outputs_agree(runs):
    untraced, traced = runs
    assert untraced.correct, untraced.violations
    assert traced.correct, traced.violations
    assert traced.traced_walls and traced.walls
    fingerprints = {repr(r.fingerprint)
                    for r in untraced.reps + traced.reps}
    assert len(fingerprints) == 1


def test_zero_span_times_are_explained(runs):
    """Every span time that reads 0 on a workload has a declared reason,
    so "n/a" never hides a boundary the tracer missed."""
    _, traced = runs
    for name, (value, unit) in traced.per_layer().items():
        if unit == "s" and value == 0:
            assert metrics.not_applicable(traced.workload, name), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_passes_every_check(name):
    outcome = bench.run(name, seed=2, seconds=0.0, trace=False, smoke=True)
    assert outcome.correct, outcome.violations


def test_spec_files_match_the_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == metrics.spec()
    with open(os.path.join(ROOT, "perfbench", "expectations.json")) as fh:
        recorded = json.load(fh)
    assert recorded["per_layer"] == metrics.expectations()
    spec = metrics.spec()
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert metrics.UNIT_RE.match(m["unit"]) and m["better"] in (
            "higher", "lower")
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert set(metrics.NOT_APPLICABLE) == set(WORKLOADS)


def test_tracer_self_time_and_uninstall():
    import repro.workload.arrivals as arrivals

    original = vars(arrivals.DemandModel)["sample"]
    tracer = Tracer()
    tracer.install([WrapPoint("repro.workload.arrivals",
                              "DemandModel.sample", "workload.sample")])
    assert vars(arrivals.DemandModel)["sample"] is not original
    tracer.uninstall()
    assert vars(arrivals.DemandModel)["sample"] is original

    tracer.run_id = "r"
    with tracer.span("a.outer"):
        with tracer.span("b.inner"):
            with tracer.span("b.inner"):
                pass
    view = SpanView(tracer.spans)
    # Spans are recorded as they close: innermost first.
    deepest, middle, outer = tracer.spans
    assert all(s.run_id == "r" for s in tracer.spans)
    assert (deepest.parent, middle.parent, outer.parent) == (
        middle.span_id, outer.span_id, None)
    assert view.name_time("b.inner") == pytest.approx(middle.duration)
    selfs = view.layer_self_times()
    assert selfs["a"] + selfs["b"] == pytest.approx(outer.duration)


def test_speed_sampler_takes_its_passes_out():
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    with SpeedSampler(interval_s=0.1) as sampler:
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
    elapsed = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.stretches) >= 3
    assert 0 < sampler.raw_s < elapsed
    ref = sampler.reference_s
    assert min(r for _, r in sampler.stretches) <= ref
    assert ref <= max(r for _, r in sampler.stretches)
    assert sampler.scaled_s == pytest.approx(
        sampler.raw_s * REFERENCE_S / ref)


def test_wrap_points_resolve():
    tracer = Tracer()
    tracer.install(WRAP_POINTS)
    tracer.uninstall()
    assert not tracer.spans


def test_no_process_outlives_the_run():
    """The traced drill serves on worker processes whose shared memory
    starts multiprocessing's resource tracker; stop_children reaps it."""
    from multiprocessing import active_children, resource_tracker

    bench.run("drill_day", seed=1, seconds=0.0, trace=True, smoke=True)
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None
    run.stop_children()
    assert tracker._pid is None and not active_children()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, no result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "drill_day",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [n for n, *_ in metrics.END_TO_END]
