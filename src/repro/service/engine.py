"""The online admission engine: event-driven call serving at rate.

This is the serving layer the paper's controller actually is (§5.4,
§6.6): every call reaches the service as a stream of events — start,
joins, media changes, the A-second config freeze, the hangup — and the
engine routes each through the stateless selector core while keeping
**all** call state and slot ledgers in the (sharded) kvstore, exactly
where Azure Redis sits in production.

One kernel, two transports.  :class:`~repro.service.kernel.AdmissionKernel`
serves a worker's rows of a
:class:`~repro.controller.columnar.ColumnarEventBatch` — the only wire
format.  :class:`ServingPlane` is everything around it that both
executors share: construction and wiring, window splitting, the defrag
→ rescaler → migrator barrier, the shared-state side of the kernel's
port (settle, ``note_join``, release, outcome counting, settle
latency), snapshots and the report.  :class:`AdmissionEngine` is the
thread transport; :class:`~repro.service.mp.MultiprocessAdmissionEngine`
the process transport.

Scaling model: calls shard over workers by ``crc32(call_id)`` (per-call
event order is preserved; different calls proceed concurrently), and
every worker's simulated store round-trips overlap — so admission
throughput scales with workers the way Fig 10's controller scales with
Redis writer threads.  With one worker the engine is fully
deterministic and produces exactly the day-replay statistics, which is
what lets :class:`~repro.simulation.ServiceSimulator` substitute it for
the in-process replay path.
"""

from __future__ import annotations

import itertools
import threading
import time
from types import SimpleNamespace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.core.errors import SwitchboardError
from repro.core.units import DEFAULT_FREEZE_WINDOW_S
from repro.allocation.plan import AllocationPlan
from repro.allocation.realtime import (
    KVSlotLedger,
    RealTimeSelector,
    SlotLedger,
)
from repro.autoscale.telemetry import ServiceSnapshot
from repro.controller.columnar import ColumnarEventBatch
from repro.kvstore.sharded import ShardedKVStore
from repro.kvstore.store import InMemoryKVStore
from repro.obs.events import Observability
from repro.obs.histogram import LatencyHistogram
from repro.service.kernel import AdmissionKernel, shard_of_call
from repro.service.report import ServiceReport
from repro.topology.builder import Topology


class ServingPlane:
    """What the thread and process executors share.

    Subclasses provide the transport: :meth:`_start` (bring workers
    up), :meth:`_load` (make a batch visible to them),
    :meth:`_serve_window` (serve rows ``[lo, hi)`` to quiescence),
    :meth:`_worker_counts` (cumulative kernel counters),
    :meth:`_finish` (collect the run's report fields) and
    :meth:`_stop`.
    """

    executor = "thread"

    def __init__(self, topology: Topology, plan: AllocationPlan,
                 store: Optional[Union[ShardedKVStore,
                                       InMemoryKVStore]] = None,
                 n_workers: int = 1,
                 freeze_window_s: float = DEFAULT_FREEZE_WINDOW_S,
                 obs: Optional[Observability] = None,
                 ledger: Optional[SlotLedger] = None,
                 defragmenter=None,
                 defrag_interval_s: Optional[float] = None,
                 rescaler=None,
                 rescale_interval_s: Optional[float] = None,
                 migrator=None,
                 migrate_interval_s: Optional[float] = None):
        if n_workers < 1:
            raise SwitchboardError("need at least one admission worker")
        if defrag_interval_s is not None and defrag_interval_s <= 0:
            raise SwitchboardError("defrag_interval_s must be positive")
        if rescale_interval_s is not None and rescale_interval_s <= 0:
            raise SwitchboardError("rescale_interval_s must be positive")
        if migrate_interval_s is not None and migrate_interval_s <= 0:
            raise SwitchboardError("migrate_interval_s must be positive")
        self.topology = topology
        self.store = store if store is not None else ShardedKVStore()
        self.n_workers = n_workers
        self.freeze_window_s = freeze_window_s
        self.obs = obs
        # An injected ledger (e.g. a repro.packing fleet ledger) replaces
        # the DC-granularity slot ledger: same contract, plus per-server
        # placement.  It must expose load_plan(plan) -> cell count.
        self.ledger = ledger if ledger is not None else KVSlotLedger(self.store)
        self.planned_cells = self.ledger.load_plan(plan)
        self.selector = RealTimeSelector(topology, plan, freeze_window_s,
                                         ledger=self.ledger)
        self.defragmenter = defragmenter
        self.defrag_interval_s = defrag_interval_s
        self.defrag_rounds = 0
        # The autoscaler shares the defragmenter's safe point: serving
        # pauses at window boundaries (workers quiescent), so plan
        # mutations never race the admission path.  With both present
        # the window grid is the finer of the two intervals; each
        # consumer still acts on every boundary it observes.
        self.rescaler = rescaler
        if rescaler is not None and rescale_interval_s is None:
            config = getattr(rescaler, "config", None)
            rescale_interval_s = getattr(config, "interval_s", None)
        self.rescale_interval_s = (rescale_interval_s
                                   if rescaler is not None else None)
        # The live migrator (repro.migrate.MigrationExecutor) runs on
        # the same window barrier, after the rescaler — drain orders a
        # rescale just issued execute in the same window.
        self.migrator = migrator
        if migrator is not None and migrate_interval_s is None:
            migrate_interval_s = getattr(migrator, "interval_s", None)
        self.migrate_interval_s = (migrate_interval_s
                                   if migrator is not None else None)
        intervals = [i for i in (
            defrag_interval_s if defragmenter is not None else None,
            self.rescale_interval_s,
            self.migrate_interval_s,
        ) if i is not None]
        self._window_interval_s = min(intervals) if intervals else None
        self._barriers = (defragmenter is not None or rescaler is not None
                          or migrator is not None)
        if rescaler is not None:
            bind = getattr(rescaler, "bind", None)
            if bind is not None:
                bind(self)
        if migrator is not None:
            migrator.bind(self)
        self.admission_latency = LatencyHistogram()
        self.settle_latency = LatencyHistogram()
        # Fleet-aware ledgers grow/release per-call server reservations;
        # plain slot ledgers have neither hook.  The migrator's live-call
        # registry hears every call end (its settle feed is wired through
        # the selector at bind time).
        self._note_join = getattr(self.ledger, "note_join", None)
        self._release_call = getattr(self.ledger, "release", None)
        self._note_end = (migrator.registry.on_end
                          if migrator is not None else None)
        self._counts_lock = threading.Lock()
        self._batch: Optional[ColumnarEventBatch] = None

    # ------------------------------------------------------------------
    # the shared-state side of the kernel's port
    # ------------------------------------------------------------------
    def _settle_row(self, row: int, call_index: int, initial_dc: str,
                    ended: bool) -> Tuple[str, bool]:
        """Settle one call at its freeze row; count the outcome."""
        call = self._batch.trace.call(call_index)
        t0 = time.perf_counter()
        outcome = self.selector.settle(call, initial_dc)
        with self._counts_lock:
            if outcome.migrated:
                self._migrated += 1
            elif outcome.overflowed:
                self._overflowed += 1
            else:
                self._admitted += 1
            if not outcome.planned:
                self._unplanned += 1
        self.settle_latency.record((time.perf_counter() - t0) * 1e3)
        if ended:
            # An early-ended call closes at its freeze: release its
            # reservation now, before the next row.
            self._end_row(row, call.call_id)
        return outcome.final_dc, outcome.migrated

    def _join_row(self, row: int, call_id: Optional[str]) -> None:
        if call_id is not None and self._note_join is not None:
            self._note_join(call_id)

    def _end_row(self, row: int, call_id: Optional[str]) -> None:
        if call_id is None:
            return
        if self._release_call is not None:
            self._release_call(call_id)
        if self._note_end is not None:
            self._note_end(call_id)

    # ------------------------------------------------------------------
    def run(self, events: Union[ColumnarEventBatch,
                                Iterable[ColumnarEventBatch]]) -> ServiceReport:
        """Serve the stream; returns the run's report.

        Accepts one :class:`~repro.controller.columnar.ColumnarEventBatch`
        or an iterable of batches (e.g.
        :meth:`~repro.service.loadgen.StreamingLoad.batches` — served
        incrementally, so peak memory stays one batch).  With a
        defragmenter, rescaler or migrator bound, batches must not go
        back in time: a batch that starts before the previous window's
        last event raises :class:`SwitchboardError`.
        """
        if isinstance(events, ColumnarEventBatch):
            batches: Iterator = iter([events])
            known_total: Optional[int] = len(events)
        elif isinstance(events, Iterable):
            batches, known_total = iter(events), None
        else:
            raise SwitchboardError(
                f"the service serves columnar input only (a "
                f"ColumnarEventBatch or an iterable of them); got "
                f"{type(events).__name__}")
        if self.obs is not None:
            run_fields: Dict[str, Any] = {"n_workers": self.n_workers,
                                          "executor": self.executor}
            if known_total is not None:
                run_fields["n_events"] = known_total
            self.obs.record("service.run", label="admission", **run_fields)

        self._admitted = self._migrated = 0
        self._overflowed = self._unplanned = 0
        n_events = 0
        anchor: Optional[float] = None
        last_t: Optional[float] = None
        failed = True
        self._start()
        try:
            start = time.perf_counter()
            for batch in batches:
                if not isinstance(batch, ColumnarEventBatch):
                    raise SwitchboardError(
                        f"the service serves columnar input only (a "
                        f"ColumnarEventBatch or an iterable of them); got "
                        f"an iterable of {type(batch).__name__}")
                if len(batch) == 0:
                    continue
                if (self._barriers and last_t is not None
                        and float(batch.t_s[0]) < last_t):
                    raise SwitchboardError(
                        f"batch starts at t={float(batch.t_s[0]):.1f}s, "
                        f"before the previous window's last event at "
                        f"t={last_t:.1f}s: window barriers need "
                        f"time-ordered input")
                self._batch = batch
                self._load(batch)
                ranges, anchor = self._window_ranges(batch, anchor)
                for lo, hi in ranges:
                    self._serve_window(batch, lo, hi)
                    n_events += hi - lo
                    self._barrier(float(batch.t_s[hi - 1]))
                last_t = float(batch.t_s[-1])
            wall = time.perf_counter() - start
            fields = self._finish()
            failed = False
        finally:
            self._batch = None
            self._stop(failed)
        if n_events == 0:
            raise SwitchboardError("no events to serve")

        report = self._report(fields, n_events, wall)
        if self.obs is not None:
            self.obs.record("service.done", label="admission",
                            events_per_s=report.events_per_s,
                            accounting_exact=report.accounting_exact)
        return report

    # ------------------------------------------------------------------
    def _window_ranges(self, batch: ColumnarEventBatch,
                       anchor: Optional[float]
                       ) -> Tuple[List[Tuple[int, int]], Optional[float]]:
        """Split a batch into barrier windows: fixed intervals anchored
        at the stream's first timestamp, empty windows merged forward,
        as one vectorized bucketing per batch.  Without barrier
        consumers the whole batch is one window."""
        interval = self._window_interval_s
        if interval is None:
            return [(0, len(batch))], anchor
        if anchor is None:
            anchor = float(batch.t_s[0])
        window = np.floor_divide(batch.t_s - anchor,
                                 interval).astype(np.int64)
        cuts = np.flatnonzero(np.diff(window)) + 1
        ranges: List[Tuple[int, int]] = []
        last = 0
        for cut in itertools.chain(cuts.tolist(), [len(batch)]):
            if cut > last:
                ranges.append((last, cut))
            last = cut
        return ranges, anchor

    def _barrier(self, t_s: float) -> None:
        """The window boundary: every worker is quiescent."""
        if self.defragmenter is not None:
            # Defrag runs *between* event windows — never while workers
            # are mutating the fleet — plus one tidy-up round after the
            # final window.
            round_result = self.defragmenter.run_round()
            self.defrag_rounds += 1
            if round_result.executed_moves:
                self.selector.stats.record_defrag(round_result.executed_moves)
        if self.rescaler is not None:
            # Same safe point: the autoscaler may mutate the plan
            # through the ledger.
            self.rescaler.on_window(self._snapshot(t_s))
        if self.migrator is not None:
            # After the rescaler: drain orders it just issued (and any
            # due DC failures) execute at this same barrier.
            self.migrator.on_window(self._snapshot(t_s))

    def _snapshot(self, t_s: float) -> ServiceSnapshot:
        """Cumulative accounting at the just-served window's boundary."""
        counts = self._worker_counts()
        return ServiceSnapshot(
            t_s=t_s,
            generated=sum(c["generated"] for c in counts),
            admitted=self._admitted,
            migrated=self._migrated,
            overflowed=self._overflowed,
            unplanned=self._unplanned,
            events_processed=sum(c["processed"] for c in counts),
        )

    def _report(self, fields: Dict[str, Any], n_events: int,
                wall_s: float) -> ServiceReport:
        counts = fields.pop("counts")
        processed = sum(c["processed"] for c in counts)
        stats = self.selector.stats
        packing: Dict[str, object] = {}
        metrics_fn = getattr(self.ledger, "fleet_metrics", None)
        if metrics_fn is not None:
            packing = metrics_fn()
        autoscale: Dict[str, object] = {}
        autoscale_fn = getattr(self.rescaler, "autoscale_metrics", None)
        if autoscale_fn is not None:
            autoscale = autoscale_fn()
        migration: Dict[str, object] = {}
        migration_latency: Dict[str, object] = {}
        migration_fn = getattr(self.migrator, "migration_metrics", None)
        if migration_fn is not None:
            migration = migration_fn()
            migration_latency = self.migrator.latency.percentiles()
        return ServiceReport(
            n_workers=self.n_workers,
            executor=self.executor,
            events_total=n_events,
            events_processed=processed,
            dropped_events=sum(c["dropped"] for c in counts),
            joins=sum(c["joins"] for c in counts),
            media_changes=sum(c["media_changes"] for c in counts),
            generated_calls=sum(c["generated"] for c in counts),
            admitted_calls=self._admitted,
            migrated_calls=self._migrated,
            overflowed_calls=self._overflowed,
            unplanned_calls=self._unplanned,
            early_ended_calls=sum(c["early_ended"] for c in counts),
            ended_calls=sum(c["ended"] for c in counts),
            wall_time_s=wall_s,
            events_per_s=processed / wall_s if wall_s > 0 else 0.0,
            admission_latency_ms=self.admission_latency.percentiles(),
            settle_latency_ms=self.settle_latency.percentiles(),
            migration_rate=stats.migration_rate,
            mean_acl_ms=stats.mean_acl_ms,
            defrag_migrated_calls=stats.defrag_migrations,
            defrag_rounds=self.defrag_rounds,
            frag_slots_lost=int(packing.get("frag_slots_lost", 0)),
            packing=packing,
            rescale_events=int(autoscale.get("rescale_events", 0)),
            autoscale=autoscale,
            live_migrated_calls=int(
                migration.get("live_migrated_calls", 0)),
            disrupted_calls=int(migration.get("disrupted_calls", 0)),
            migration_batches=int(migration.get("batches", 0)),
            migration_latency_ms=migration_latency,
            migration=migration,
            **fields,
        )


class AdmissionEngine(ServingPlane):
    """The thread transport: kernels share the engine's store and call
    the shared side directly.

    One worker serves each window on the calling thread; N workers
    serve their crc32 partitions of the window on N threads.
    """

    def _start(self) -> None:
        port = SimpleNamespace(
            settle=self._settle_row, skip=None,
            join=self._join_row if self._note_join is not None else None,
            end=(self._end_row if (self._release_call is not None
                                   or self._note_end is not None)
                 else None))
        self._kernels = [
            AdmissionKernel(self.topology, self.store, port,
                            self.admission_latency.record)
            for _ in range(self.n_workers)]

    def _load(self, batch: ColumnarEventBatch) -> None:
        if self.n_workers > 1:
            self._owner = shard_of_call(batch.trace, self.n_workers)

    def _serve_window(self, batch: ColumnarEventBatch, lo: int,
                      hi: int) -> None:
        if self.n_workers == 1:
            self._kernels[0].serve(batch, range(lo, hi))
            return
        owners = self._owner[batch.call_idx[lo:hi]]
        errors: List[BaseException] = []

        def serve(kernel: AdmissionKernel, rows: np.ndarray) -> None:
            try:
                kernel.serve(batch, rows)
            except BaseException as exc:  # surface, don't swallow
                errors.append(exc)

        threads = [threading.Thread(
            target=serve, daemon=True,
            args=(kernel, np.flatnonzero(owners == w) + lo))
            for w, kernel in enumerate(self._kernels)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise SwitchboardError(
                f"admission worker failed: {errors[0]!r}") from errors[0]

    def _worker_counts(self) -> List[Dict[str, int]]:
        return [kernel.counts for kernel in self._kernels]

    def _finish(self) -> Dict[str, Any]:
        return {
            "counts": self._worker_counts(),
            "unsettled_calls": sum(k.unsettled() for k in self._kernels),
            "n_shards": getattr(self.store, "n_shards", 1),
            "kv_latency_ms": self.store.latency_percentiles_ms(),
            "kv_op_count": self.store.op_count,
        }

    def _stop(self, failed: bool) -> None:
        pass
