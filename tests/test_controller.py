"""Tests for controller events and one call's trip through the service plane."""

import pytest

from repro.core.errors import SwitchboardError
from repro.core.types import Call, CallConfig, MediaType, Participant, make_slots
from repro.allocation.plan import AllocationPlan
from repro.controller.events import (
    EventType,
    event_stream,
    events_of_call,
    peak_event_rate,
)
from repro.config import PackingConfig, ServiceConfig
from repro.controller.columnar import build_event_batch
from repro.kvstore.client import ControllerStateClient
from repro.mpservers.server import to_microcores
from repro.service import ServiceRuntime
from repro.workload.columnar import ColumnarTrace
from repro.workload.media import MediaLoadModel
from repro.workload.trace import CallTrace


def _call(call_id="c1", start=100.0):
    return Call(call_id, start, 1200.0, participants=[
        Participant(f"{call_id}-a", "JP", 0.0, MediaType.AUDIO),
        Participant(f"{call_id}-b", "JP", 30.0, MediaType.VIDEO),
        Participant(f"{call_id}-c", "IN", 400.0, MediaType.AUDIO),
    ])


class TestEvents:
    def test_event_sequence_of_call(self):
        events = events_of_call(_call())
        types = [e.event_type for e in events]
        assert types[0] is EventType.CALL_START
        assert types.count(EventType.PARTICIPANT_JOIN) == 2
        assert types.count(EventType.MEDIA_CHANGE) == 1  # audio -> video
        assert types.count(EventType.CONFIG_FREEZE) == 1
        assert types[-1] is EventType.CALL_END or (
            EventType.CALL_END in types
        )

    def test_freeze_event_time(self):
        events = events_of_call(_call(), freeze_window_s=300.0)
        freeze = next(e for e in events if e.event_type is EventType.CONFIG_FREEZE)
        assert freeze.t_s == pytest.approx(400.0)  # start 100 + A 300

    def test_stream_is_time_sorted(self):
        trace = CallTrace([_call("a", 0.0), _call("b", 50.0)],
                          make_slots(3600.0))
        events = event_stream(trace)
        times = [e.t_s for e in events]
        assert times == sorted(times)

    def test_peak_event_rate(self):
        trace = CallTrace([_call("a", 0.0), _call("b", 1.0)], make_slots(3600.0))
        rate = peak_event_rate(event_stream(trace), window_s=60.0)
        assert rate > 0

    def test_empty_raises(self):
        with pytest.raises(Exception):
            peak_event_rate([])


def _batch(calls):
    trace = CallTrace(calls, make_slots(3600.0))
    return build_event_batch(ColumnarTrace.from_trace(trace))


def _plan(dc_id, slots=5.0):
    config = CallConfig.build({"JP": 2}, MediaType.VIDEO)
    return AllocationPlan(
        slots=make_slots(3600.0, 1800.0),
        shares={(0, config): {dc_id: slots}},
    )


def _serve(topology, plan, events, n_workers=1, **wiring):
    runtime = ServiceRuntime.from_config(
        topology, plan, ServiceConfig(n_workers=n_workers), **wiring)
    return runtime, runtime.run(events)


class TestControllerService:
    """One call's lifecycle through the service plane."""

    def test_lifecycle_updates_stats_and_store(self, topology):
        call = _call()
        _, report = _serve(topology, _plan("dc-tokyo"), _batch([call]))
        assert report.generated_calls == 1
        assert report.ended_calls == 1
        assert report.joins == 2
        assert report.media_changes == 1
        assert report.events_processed == len(events_of_call(call))

    def test_frozen_config_matches_plan_no_migration(self, topology):
        # Frozen config is (JP-2, video): the late IN joiner is excluded.
        _, report = _serve(topology, _plan("dc-tokyo"), _batch([_call()]))
        assert report.migrated_calls == 0
        assert report.migration_rate == 0.0

    def test_migration_when_plan_disagrees(self, topology):
        _, report = _serve(topology, _plan("dc-seoul"), _batch([_call()]))
        assert report.migrated_calls == 1
        assert report.migration_rate == 1.0

    def test_migration_rate_requires_calls(self, topology):
        runtime = ServiceRuntime.from_config(topology, _plan("dc-tokyo"))
        with pytest.raises(SwitchboardError):
            runtime.run([])

    def test_store_cleaned_up_after_end(self, topology):
        runtime, _ = _serve(topology, _plan("dc-tokyo"), _batch([_call()]))
        assert ControllerStateClient(runtime.store).call_dc("c1") is None
        assert ControllerStateClient(runtime.store).dc_load("dc-tokyo") == 0


class TestReplayEngine:
    """A trace replayed through the service plane at 1..N workers."""

    def _events(self, n_calls=30):
        return _batch([_call(f"c{i}", float(i)) for i in range(n_calls)])

    def test_all_events_processed_single_thread(self, topology):
        events = self._events()
        _, report = _serve(topology, _plan("dc-tokyo", 100.0), events)
        assert report.events_total == len(events)
        assert report.events_processed == len(events)

    def test_multithreaded_processes_everything(self, topology):
        events = self._events()
        _, report = _serve(topology, _plan("dc-tokyo", 100.0), events,
                           n_workers=4)
        assert report.events_processed == len(events)
        assert report.generated_calls == 30
        assert report.ended_calls == 30
        report.require_exact_accounting()

    def test_throughput_positive(self, topology):
        events = self._events(10)
        _, report = _serve(topology, _plan("dc-tokyo", 100.0), events,
                           n_workers=2)
        assert report.events_per_s > 0
        assert report.events_per_s / peak_event_rate(events) > 0

    def test_explicit_peak_rate_used(self, topology):
        from repro.experiments import fig10

        point = fig10.replay(topology, _plan("dc-tokyo", 100.0),
                             self._events(10), n_threads=1, peak_rate=100.0,
                             store_median_latency_ms=0.05)
        assert point.events_per_s > 0
        assert point.throughput_vs_peak == pytest.approx(
            point.events_per_s / 100.0)

    def test_invalid_args(self, topology):
        runtime = ServiceRuntime.from_config(topology, _plan("dc-tokyo"))
        with pytest.raises(SwitchboardError):
            runtime.run([])
        with pytest.raises(SwitchboardError):
            ServiceConfig(n_workers=0)


class TestControllerWithFleet:
    """Calls placed on MP servers through a packing fleet ledger: placed
    at the freeze, grown by later joins, released at call end."""

    def _serve(self, topology, dc_id, rows=None):
        from repro.packing import build_packing

        ledger, _ = build_packing(
            {"dc-tokyo": 64.0, "dc-seoul": 64.0},
            PackingConfig(policy="first_fit", defrag_interval_s=None))
        events = _batch([_call()])
        if rows is not None:
            events = events.slice(0, rows)
        _serve(topology, _plan(dc_id, 100.0), events, ledger=ledger)
        return ledger

    def test_call_lands_on_server_and_releases(self, topology):
        ledger = self._serve(topology, "dc-tokyo")
        # Everything released at call end.
        assert ledger.placements() == {}
        metrics = ledger.fleet_metrics()
        assert metrics["placements"] == metrics["releases"] == 1

    def test_usage_trued_up_at_freeze(self, topology):
        # Serve through the freeze (start, join, media change, freeze).
        ledger = self._serve(topology, "dc-tokyo", rows=4)
        assert ledger.placements()["c1"].startswith("dc-tokyo/")
        # The server holds the frozen (JP-2, video) config's cores, not
        # the single first joiner's.
        frozen = MediaLoadModel().call_cores(_call().config(300.0))
        assert ledger.held_mc_of("c1") == to_microcores(frozen)

    def test_fleet_migration_follows_plan(self, topology):
        # Everything except CALL_END; the plan puts the call in Seoul.
        ledger = self._serve(topology, "dc-seoul", rows=5)
        assert ledger.placements()["c1"].startswith("dc-seoul/")
