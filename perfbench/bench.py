"""Run one workload: repeated set-up, timed reps, checks, metrics.

Untraced (``trace=False``) runs give the end-to-end metrics: the
workload is set up several times (``setup_s`` is the median), then reps
run until the measuring time is used up, overrunning it by at most half
a rep (``wall_s`` is the median timed phase).  Both times are scaled to
the reference machine speed (:mod:`perfbench.calibrate`): set-ups by
passes before and after each burst of samples, the timed phase of a rep
by passes every half second throughout it.  The raw medians are
reported beside them.
Traced runs trace one set-up, then alternate an untraced and a traced
rep, so ``trace.overhead_frac`` compares the two directly, and report
the median of each per-layer metric over the traced reps.

Every rep is checked, and every rep's deterministic fingerprint must
equal the first rep's — traced or not.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from perfbench.calibrate import REFERENCE_S, SpeedSampler, reference_now
from perfbench.layers import WRAP_POINTS, layer_metrics
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOAD_SPECIFIC
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, Rep, Workload

#: Set-up samples: at least MIN_SETUPS, at most MAX_SETUPS, taken in
#: bursts of about SETUP_MOMENT_S between reps (see _sample_setups).
MIN_SETUPS, MAX_SETUPS, SETUP_MOMENT_S = 3, 40, 0.05


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    setup_s: List[float] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    #: Reference-pass seconds measured around each rep and each set-up
    #: sample (see perfbench.calibrate).
    rep_refs: List[float] = field(default_factory=list)
    traced_refs: List[float] = field(default_factory=list)
    setup_refs: List[float] = field(default_factory=list)
    traced_walls: List[float] = field(default_factory=list)
    reps: List[Rep] = field(default_factory=list)
    layer_runs: List[Dict[str, float]] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.violations

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.reps)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.reps)

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values = {
            "setup_s": _scaled(self.setup_s, self.setup_refs),
            "wall_s": _scaled(self.walls, self.rep_refs),
            "capacity_cost": _median_of(self.reps, "quality",
                                        "capacity_cost"),
            "mean_acl_ms": _median_of(self.reps, "quality", "mean_acl_ms"),
            # Linux reports ru_maxrss in KiB: parent peak + largest worker.
            "peak_rss_mb": (usage + workers) / 1024.0,
        }
        return {name: (values[name], unit) for name, unit, _, _ in END_TO_END}

    def workload_specific(self) -> Dict[str, Optional[Tuple[float, str]]]:
        """The end-to-end metrics that only some workloads have; ``None``
        where the metric does not apply."""
        serving = self.reps[0].serving if self.reps else {}
        values: Dict[str, Optional[float]] = {}
        if "events" in serving:
            values["events_per_s"] = statistics.median(
                r.serving["events"] / w
                for r, w in zip(self.reps, _at_reference(self.walls,
                                                         self.rep_refs)))
        for key in ("admit_p50_ms", "admit_p99_ms"):
            if serving.get(key) is not None:
                values[key] = _median_of(self.reps, "serving", key)
        for key in ("overflow_frac", "migration_frac", "disrupted_frac",
                    "core_hours"):
            if key in serving:
                values[key] = serving[key]
        values["fail_frac"] = self.failed / max(self.attempted, 1)
        return {name: ((values[name], unit) if name in values else None)
                for name, unit, _, _ in WORKLOAD_SPECIFIC}

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        values = {name: statistics.median(run[name]
                                          for run in self.layer_runs)
                  for name, _, _, _, _ in PER_LAYER
                  if name != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (
            _scaled(self.traced_walls, self.traced_refs)
            / _scaled(self.walls, self.rep_refs) - 1.0)
        return {name: (values[name], unit)
                for name, unit, _, _, _ in PER_LAYER}


def _at_reference(times: List[float], refs: List[float]) -> List[float]:
    """Times scaled to the reference speed (see perfbench.calibrate)."""
    return [t * REFERENCE_S / r for t, r in zip(times, refs)]


def _scaled(times: List[float], refs: List[float]) -> float:
    return statistics.median(_at_reference(times, refs))


def _median_of(reps: List[Rep], part: str, key: str) -> float:
    return statistics.median(getattr(r, part)[key] for r in reps)


def _timed(fn) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


class _Runner:
    def __init__(self, workload: Workload, outcome: Outcome) -> None:
        self.workload = workload
        self.outcome = outcome
        self.tracer: Optional[Tracer] = None

    def rep(self, state: Dict[str, Any], traced: bool) -> float:
        """One rep; returns its whole duration (prepare + run + finish)."""
        wl, out = self.workload, self.outcome
        start = time.perf_counter()
        if traced:
            before = reference_now()
            tracer = self.tracer
            tracer.run_id = f"rep{len(out.reps)}"
            tracer.install(WRAP_POINTS)
            try:
                with tracer.span("bench.rep"):
                    prepared = wl.prepare(state)
                    result, wall = _timed(lambda: wl.run(state, prepared))
            finally:
                tracer.uninstall()
            # Spans must not hold reference passes, so a traced rep's
            # speed is sampled at its two ends only.
            ref = (before + reference_now()) / 2
        else:
            prepared = wl.prepare(state)
            with SpeedSampler() as sampler:
                result = wl.run(state, prepared)
            wall, ref = sampler.raw_s, sampler.reference_s
        rep = wl.finish(state, prepared, result)
        if traced:
            out.traced_walls.append(wall)
            out.traced_refs.append(ref)
            layers = layer_metrics(self.tracer,
                                   ["setup", self.tracer.run_id], rep)
            layers["service.mp_run_s"] = self._mp_rep(state, rep)
            out.layer_runs.append(layers)
        else:
            out.walls.append(wall)
            out.rep_refs.append(ref)
        # Drop the controllers (plans, caches, obs trails) so that peak
        # memory does not grow with the number of reps.
        rep.controllers = []
        self._check(rep)
        out.reps.append(rep)
        return time.perf_counter() - start

    def _mp_rep(self, state: Dict[str, Any], oracle: Rep) -> float:
        """Serve the rep again on the workload's multiprocess plane, if
        it has one; returns the serving time (0 without one).  Its
        outputs must equal the thread oracle's."""
        wl = self.workload
        mp = getattr(wl, "mp_service", None)
        if mp is None:
            return 0.0
        prepared = wl.prepare(state)
        result, wall = _timed(lambda: wl.run(state, prepared, mp))
        rep = wl.finish(state, prepared, result)
        tag = f"rep {len(self.outcome.reps)} on the process executor"
        self.outcome.violations.extend(f"{tag}: {v}" for v in rep.violations)
        if rep.fingerprint != oracle.fingerprint:
            self.outcome.violations.append(
                f"{tag}: outputs differ from the thread executor's")
        return wall

    def _check(self, rep: Rep) -> None:
        out = self.outcome
        tag = f"rep {len(out.reps)}"
        out.violations.extend(f"{tag}: {v}" for v in rep.violations)
        if out.reps and rep.fingerprint != out.reps[0].fingerprint:
            out.violations.append(
                f"{tag}: deterministic outputs differ from rep 0")


def _sample_setups(workload: Workload, seed: int, samples: List[float],
                   refs: List[float]):
    """Time set-ups at one moment of the run; returns the last state.

    A set-up that takes longer than SETUP_MOMENT_S is sampled once per
    moment (and only until MIN_SETUPS samples exist); a quicker one is
    repeated for about SETUP_MOMENT_S at every moment, up to MAX_SETUPS
    in all.  Spreading the samples over the run keeps a few seconds of
    machine slowdown from deciding the median.
    """
    state, spent = None, 0.0
    before = reference_now()
    first = len(samples)
    while len(samples) < MAX_SETUPS:
        state, took = _timed(lambda: workload.setup(seed))
        samples.append(took)
        spent += took
        if took > SETUP_MOMENT_S or spent > SETUP_MOMENT_S:
            break
    ref = (before + reference_now()) / 2
    refs.extend([ref] * (len(samples) - first))
    return state


def run(name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> Outcome:
    workload = WORKLOADS[name](smoke=smoke)
    outcome = Outcome(workload=name, seed=seed)
    runner = _Runner(workload, outcome)

    if trace:
        runner.tracer = tracer = Tracer()
        tracer.run_id = "setup"
        tracer.install(WRAP_POINTS)
        try:
            with tracer.span("bench.setup"):
                state = workload.setup(seed)
        finally:
            tracer.uninstall()
    else:
        state = _sample_setups(workload, seed, outcome.setup_s,
                               outcome.setup_refs)

    measured = 0.0
    while True:
        took = runner.rep(state, traced=False)
        if trace:
            took += runner.rep(state, traced=True)
        measured += took
        setups = outcome.setup_s
        if not trace and (len(setups) < MIN_SETUPS
                          or max(setups) <= SETUP_MOMENT_S):
            _sample_setups(workload, seed, setups, outcome.setup_refs)
        # Start another rep only if it would end less than half a rep
        # past ``seconds``.
        if measured + took / 2 > seconds:
            break
    while not trace and len(outcome.setup_s) < MIN_SETUPS:
        _sample_setups(workload, seed, outcome.setup_s,
                               outcome.setup_refs)
    return outcome
