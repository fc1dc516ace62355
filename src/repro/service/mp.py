"""True multi-core admission: process-level shard workers over shared memory.

The thread engine (:class:`~repro.service.engine.AdmissionEngine`)
shards calls over worker *threads*: simulated kvstore round-trips
overlap, but every instruction still serializes on the GIL, so adding
workers cannot add real events/s past one core.  This module moves the
same serving plane across OS processes:

* **Shared-memory wire format** — each
  :class:`~repro.controller.columnar.ColumnarEventBatch` is promoted to
  one ``multiprocessing.shared_memory`` segment holding the five event
  arrays, the eight trace arrays, and the per-call shard map; workers
  attach zero-copy numpy views.  No event or call object is ever
  pickled — only the tiny string-table/override metadata rides the
  control pipe.
* **Call-granularity partitions** — calls shard to workers by
  ``crc32(call_id) % n_workers`` (the thread engine's rule), and each
  worker serves its rows of every window through the same
  :class:`~repro.service.kernel.AdmissionKernel` as the thread engine,
  over a private kvstore.
* **A parent-owned ledger actor** — every outcome-affecting shared
  structure (slot/fleet ledger, selector stats, defragmenter,
  autoscaler, migrator, settle latencies) lives in the parent.  The
  worker's kernel port turns each shared-state call into a pipe
  message; the parent applies them in **global row order** by walking
  a precomputed schedule of which worker owns each such row.  A settle
  is a blocking round-trip (the worker needs the outcome to write
  migrations); joins/ends are fire-and-forget.  This makes ledger
  state, selector statistics, and the accounting partition
  byte-identical to the single-process oracle.
* **Barriers** — windows end with a ``done`` barrier from every worker
  (all quiescent), after which the parent runs the shared
  defrag → rescaler → migrator barrier, then opens the next window.
* **Merge** — per-worker report fragments (counters, latency samples,
  kv op counts, final store state) fold into one
  :class:`~repro.service.report.ServiceReport` that still satisfies
  admitted + migrated + overflowed == generated.

Construction belongs to
:meth:`repro.service.runtime.ServiceRuntime.from_config`, which selects
this engine when ``ServiceConfig.executor == "process"``.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.errors import SwitchboardError
from repro.allocation.plan import AllocationPlan
from repro.controller.columnar import ColumnarEventBatch
from repro.kvstore.sharded import ShardedKVStore
from repro.kvstore.store import InMemoryKVStore, LatencyProfile
from repro.obs.histogram import percentiles_ms
from repro.service.engine import ServingPlane
from repro.service.kernel import (
    COUNTER_FIELDS,
    AdmissionKernel,
    shard_of_call,
    shared_rows,
)
from repro.topology.builder import Topology
from repro.workload.columnar import ColumnarTrace, StringTable

#: Cap on per-worker latency samples shipped back at drain; merging is
#: for percentile reporting, not accounting, so a bounded sample is fine.
_MAX_SHIPPED_SAMPLES = 200_000

#: (attribute, dtype) of the event arrays promoted to shared memory.
_BATCH_ARRAYS: Tuple[Tuple[str, Any], ...] = (
    ("t_s", np.float64), ("call_idx", np.int64), ("type_code", np.int8),
    ("country_code", np.int32), ("media_code", np.int8),
)

#: (attribute, dtype) of the trace arrays promoted to shared memory.
_TRACE_ARRAYS: Tuple[Tuple[str, Any], ...] = (
    ("start_s", np.float64), ("duration_s", np.float64),
    ("call_uid", np.int64), ("part_offsets", np.int64),
    ("join_offset_s", np.float64), ("country_code", np.int32),
    ("media_code", np.int8), ("part_index", np.int32),
)


# ----------------------------------------------------------------------
# worker store recipe (picklable; built inside the worker process)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreSpec:
    """How each worker process builds its private call-state kvstore.

    Workers cannot share a live store object across processes, so they
    receive this recipe instead and construct their own — the same
    shape the thread engine would have used (sharded ring, optional
    simulated latency).  ``memory`` builds a single
    :class:`InMemoryKVStore` instead of a ring.
    """

    kind: str = "sharded"
    n_shards: int = 4
    latency_median_ms: Optional[float] = None
    latency_seed: int = 99
    ring_replicas: int = 64

    @classmethod
    def from_service_config(cls, svc) -> "StoreSpec":
        return cls(kind="sharded", n_shards=svc.n_shards,
                   latency_median_ms=svc.kv_latency_median_ms,
                   latency_seed=svc.kv_latency_seed,
                   ring_replicas=svc.ring_replicas)

    def build(self) -> Union[ShardedKVStore, InMemoryKVStore]:
        if self.kind == "memory":
            profile = (LatencyProfile(median_ms=self.latency_median_ms,
                                      seed=self.latency_seed)
                       if self.latency_median_ms is not None else None)
            return InMemoryKVStore(profile)
        if self.latency_median_ms is not None:
            return ShardedKVStore.with_latency(
                n_shards=self.n_shards, median_ms=self.latency_median_ms,
                seed=self.latency_seed, ring_replicas=self.ring_replicas)
        return ShardedKVStore(n_shards=self.n_shards,
                              ring_replicas=self.ring_replicas)


# ----------------------------------------------------------------------
# store-state dumps (the byte-identical parity surface)
# ----------------------------------------------------------------------
def dump_store_state(store) -> Dict[str, Any]:
    """A canonical ``key -> value`` dump of a kvstore, shards merged.

    Hash values are copied so the dump is a stable snapshot.  Keys are
    disjoint across shards by construction, so the merge is a plain
    union.
    """
    def _copy(value):
        return dict(value) if isinstance(value, dict) else value

    if isinstance(store, ShardedKVStore):
        merged: Dict[str, Any] = {}
        for shard_id in store.shard_ids:
            for key, value in store.shard(shard_id)._data.items():
                merged[key] = _copy(value)
        return merged
    return {key: _copy(value) for key, value in store._data.items()}


def merge_store_states(dumps: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-process store dumps into one canonical state.

    Call-state keys (``call:*``) are disjoint across workers (each call
    lives on exactly one worker) and ledger keys (``slots:*``,
    ``pack:*``) live only in the parent; the single legitimate overlap
    is the ``dcload:{dc}`` counters, whose increments commute — integer
    collisions sum, anything else is a partitioning bug.
    """
    merged: Dict[str, Any] = {}
    for dump in dumps:
        for key, value in dump.items():
            if key not in merged:
                merged[key] = value
            elif isinstance(merged[key], int) and isinstance(value, int):
                merged[key] = merged[key] + value
            else:
                raise SwitchboardError(
                    f"conflicting cross-worker store state for key {key!r}")
    return merged


def _store_latency_samples(store) -> List[float]:
    if isinstance(store, ShardedKVStore):
        samples: List[float] = []
        for shard_id in store.shard_ids:
            samples.extend(store.shard(shard_id).latency_samples_ms())
        return samples
    return store.latency_samples_ms()


# ----------------------------------------------------------------------
# shared-memory segment layout
# ----------------------------------------------------------------------
def _pack_segment(batch: ColumnarEventBatch, shard_of_call: np.ndarray
                  ) -> Tuple[shared_memory.SharedMemory, Dict[str, Any]]:
    """Promote one batch (events + trace + shard map) to a single
    shared-memory segment; returns the segment and its pickled-side
    metadata (segment name, per-array offsets, string tables)."""
    trace = batch.trace
    arrays: Dict[str, np.ndarray] = {
        "shard_of_call": np.ascontiguousarray(shard_of_call, dtype=np.int64),
    }
    for name, dtype in _BATCH_ARRAYS:
        arrays[f"batch.{name}"] = np.ascontiguousarray(
            getattr(batch, name), dtype=dtype)
    for name, dtype in _TRACE_ARRAYS:
        arrays[f"trace.{name}"] = np.ascontiguousarray(
            getattr(trace, name), dtype=dtype)

    layout: Dict[str, Tuple[int, str, int]] = {}
    offset = 0
    for key, arr in arrays.items():
        offset = (offset + 15) & ~15  # 16-byte-align every array
        layout[key] = (offset, arr.dtype.str, int(arr.shape[0]))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for key, arr in arrays.items():
        start = layout[key][0]
        view = np.frombuffer(shm.buf, dtype=arr.dtype,
                             count=arr.shape[0], offset=start)
        view[:] = arr
    meta = {
        "shm": shm.name,
        "layout": layout,
        "countries": trace.countries.values,
        "slots": list(trace.slots),
        "call_id_overrides": dict(trace.call_id_overrides),
        "part_id_overrides": dict(trace.part_id_overrides),
    }
    return shm, meta


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without registering it for cleanup.

    The parent owns every segment's lifetime (it unlinks after the
    workers exit).  A worker's attach must therefore stay invisible to
    the resource tracker: on 3.13+ that is the ``track=False`` keyword;
    on 3.11/3.12 attaching always registers, the registration is never
    dropped by ``close()``, and the tracker reports the segment as
    leaked at shutdown.  There, registration is suppressed for the
    duration of the attach (workers are single-threaded at this point).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *_args, **_kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class _AttachedBatch:
    """A worker's zero-copy view of one promoted batch."""

    def __init__(self, meta: Dict[str, Any]):
        self.shm = _attach_untracked(meta["shm"])
        layout = meta["layout"]

        def view(key: str) -> np.ndarray:
            start, dtype, count = layout[key]
            return np.frombuffer(self.shm.buf, dtype=np.dtype(dtype),
                                 count=count, offset=start)

        self.shard_of_call = view("shard_of_call")
        self.trace = ColumnarTrace(
            start_s=view("trace.start_s"),
            duration_s=view("trace.duration_s"),
            call_uid=view("trace.call_uid"),
            part_offsets=view("trace.part_offsets"),
            join_offset_s=view("trace.join_offset_s"),
            country_code=view("trace.country_code"),
            media_code=view("trace.media_code"),
            part_index=view("trace.part_index"),
            countries=StringTable(meta["countries"]),
            slots=meta["slots"],
            call_id_overrides=meta["call_id_overrides"],
            part_id_overrides=meta["part_id_overrides"],
        )
        self.t_s = view("batch.t_s")
        self.call_idx = view("batch.call_idx")
        self.type_code = view("batch.type_code")
        self.country_code = view("batch.country_code")
        self.media_code = view("batch.media_code")

    def close(self) -> None:
        """Drop the numpy views, then unmap.  Calls never straddle
        batches, so nothing serving-side can reference these arrays
        after the batch's last window."""
        self.trace = None
        self.t_s = self.call_idx = self.type_code = None
        self.country_code = self.media_code = self.shard_of_call = None
        try:
            self.shm.close()
        except BufferError:
            # A stray view still holds the buffer; the OS reclaims the
            # mapping at process exit, and the parent owns the unlink.
            pass


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
class _PipePort:
    """The kernel's port inside a worker: each call is a message to the
    parent's ledger actor.

    Every scheduled row (see :func:`~repro.service.kernel.shared_rows`)
    emits exactly one message; ``settle`` blocks for the ``outcome``
    reply, the rest are fire-and-forget.
    """

    def __init__(self, conn, fleet: bool):
        self.conn = conn
        self.join = self._join if fleet else None
        self.end = self._end if fleet else None

    def settle(self, row: int, call_index: int, initial_dc: str,
               ended: bool) -> Tuple[str, bool]:
        self.conn.send(("settle", row, call_index, initial_dc, ended))
        reply = self.conn.recv()
        if reply[0] != "outcome":
            raise SwitchboardError(
                f"expected settle outcome, got {reply[0]!r}")
        return reply[1], reply[2]

    def skip(self, row: int) -> None:
        self.conn.send(("skip", row))

    def _join(self, row: int, call_id: Optional[str]) -> None:
        self.conn.send(("join", row, call_id))

    def _end(self, row: int, call_id: Optional[str]) -> None:
        self.conn.send(("end", row, call_id))


def _worker_main(worker_index: int, topology: Topology,
                 store_spec: StoreSpec, fleet: bool, conn) -> None:
    """Worker-process entry point: serve my call partition of every
    window through the kernel, its port wired to the parent actor.

    Protocol (worker side):

    * recv ``("batch", meta)`` — attach the shared-memory segment;
    * recv ``("serve", lo, hi)`` — serve my rows of ``[lo, hi)``, then
      send ``("done", counters)``;
    * recv ``("finish",)`` — reply ``("result", fragment)`` and exit.
    """
    admission_ms: List[float] = []
    current: Optional[_AttachedBatch] = None
    try:
        store = store_spec.build()
        kernel = AdmissionKernel(topology, store, _PipePort(conn, fleet),
                                 admission_ms.append)
        conn.send(("ready", worker_index))
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "batch":
                if current is not None:
                    current.close()
                current = _AttachedBatch(msg[1])
            elif kind == "serve":
                lo, hi = msg[1], msg[2]
                owners = current.shard_of_call[current.call_idx[lo:hi]]
                kernel.serve(current,
                             np.flatnonzero(owners == worker_index) + lo)
                conn.send(("done", dict(kernel.counts)))
            elif kind == "finish":
                fragment = {
                    "counts": kernel.counts,
                    "unsettled": kernel.unsettled(),
                    "admission_ms": admission_ms[:_MAX_SHIPPED_SAMPLES],
                    "kv_op_count": store.op_count,
                    "kv_samples_ms":
                        _store_latency_samples(store)[:_MAX_SHIPPED_SAMPLES],
                    "state": dump_store_state(store),
                }
                conn.send(("result", fragment))
                if current is not None:
                    current.close()
                return
            else:
                raise SwitchboardError(f"unknown control message {kind!r}")
    except EOFError:
        return  # parent went away; nothing left to report to
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass


# ----------------------------------------------------------------------
# parent engine
# ----------------------------------------------------------------------
class MultiprocessAdmissionEngine(ServingPlane):
    """The process transport: one OS process per worker.

    Same construction surface as :class:`AdmissionEngine` (plus
    ``worker_store_spec``), same :class:`ServiceReport`, byte-identical
    accounting and store state — pinned against the thread oracle in
    ``tests/test_mpservice.py``.  ``store`` here is the **parent-side**
    store: it holds the slot ledger (and any injected fleet ledger's
    keys) and folds into the merged op count and state dump; per-call
    state lives in the workers' private stores built from
    ``worker_store_spec``.

    Prefer building through
    :meth:`repro.service.runtime.ServiceRuntime.from_config`.
    """

    executor = "process"

    def __init__(self, topology: Topology, plan: AllocationPlan,
                 store: Optional[Union[ShardedKVStore,
                                       InMemoryKVStore]] = None, *,
                 worker_store_spec: Optional[StoreSpec] = None,
                 **kwargs):
        # The parent ledger store deliberately simulates no latency:
        # settles serialize through the parent actor, and their cost
        # must not scale with the workers they coordinate.  Ops are
        # still counted, so op-count parity with the oracle holds.
        super().__init__(topology, plan,
                         store if store is not None else InMemoryKVStore(),
                         **kwargs)
        self.worker_store_spec = (worker_store_spec
                                  if worker_store_spec is not None
                                  else StoreSpec())
        # The migrator's presence forces the fleet schedule (joins/ends
        # routed to the parent) even over a plain slot ledger, so its
        # registry stays exact.
        self._fleet = (self._note_join is not None
                       or self._release_call is not None
                       or self.migrator is not None)
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        self._segments: List[shared_memory.SharedMemory] = []
        self._merged_state: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    def merged_store_state(self) -> Dict[str, Any]:
        """The canonical end-of-run store state (worker stores + parent
        ledger store, merged) — the byte-identical parity surface
        against ``dump_store_state(oracle.store)``."""
        if self._merged_state is None:
            raise SwitchboardError("merged_store_state() requires a "
                                   "completed run()")
        return self._merged_state

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _start(self) -> None:
        # fork inherits the imported world for free; spawn works too but
        # pays re-import, so it is only the fallback (non-POSIX hosts).
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._counts = [dict.fromkeys(COUNTER_FIELDS, 0)
                        for _ in range(self.n_workers)]
        self._procs, self._conns = [], []
        for w in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(w, self.topology, self.worker_store_spec,
                      self._fleet, child_conn),
                name=f"admission-worker-{w}", daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        # Ready barrier: spawn/import cost stays out of the serve timer.
        for w in range(self.n_workers):
            self._expect(w, "ready")

    def _load(self, batch: ColumnarEventBatch) -> None:
        owner = shard_of_call(batch.trace, self.n_workers)
        shm, meta = _pack_segment(batch, owner)
        self._segments.append(shm)
        for conn in self._conns:
            conn.send(("batch", meta))
        # The parent's schedule: exactly the rows whose serving calls
        # the port, in global row order, each tagged with its owner.
        sched = shared_rows(batch.type_code, self._fleet)
        self._sched_rows = sched.tolist()
        self._sched_owner = owner[batch.call_idx[sched]].tolist()
        self._ptr = 0

    def _serve_window(self, batch: ColumnarEventBatch, lo: int,
                      hi: int) -> None:
        for conn in self._conns:
            conn.send(("serve", lo, hi))
        rows, owners = self._sched_rows, self._sched_owner
        ptr = self._ptr
        while ptr < len(rows) and rows[ptr] < hi:
            self._apply(rows[ptr], owners[ptr])
            ptr += 1
        self._ptr = ptr
        # Window barrier: every worker reports done (and is now
        # quiescent, blocked on the next control message).
        for w in range(self.n_workers):
            self._counts[w] = self._expect(w, "done")[1]

    def _apply(self, row: int, owner: int) -> None:
        """One scheduled row's message, applied to the shared side in
        global row order."""
        msg = self._recv(owner)
        if msg[1] != row:
            raise SwitchboardError(
                f"worker {owner} answered row {msg[1]} at scheduled row "
                f"{row}: partition/schedule mismatch")
        kind = msg[0]
        if kind == "settle":
            final_dc, migrated = self._settle_row(*msg[1:])
            self._conns[owner].send(("outcome", final_dc, migrated))
        elif kind == "join":
            self._join_row(row, msg[2])
        elif kind == "end":
            self._end_row(row, msg[2])
        elif kind != "skip":
            raise SwitchboardError(f"unknown worker message {kind!r}")

    def _worker_counts(self) -> List[Dict[str, int]]:
        return self._counts

    def _finish(self) -> Dict[str, Any]:
        for conn in self._conns:
            conn.send(("finish",))
        results = [self._expect(w, "result")[1]
                   for w in range(self.n_workers)]
        kv_samples: List[float] = []
        for r in results:
            self.admission_latency.record_many(r["admission_ms"])
            kv_samples.extend(r["kv_samples_ms"])
        kv_samples.extend(_store_latency_samples(self.store))
        self._merged_state = merge_store_states(
            [r["state"] for r in results] + [dump_store_state(self.store)])
        spec = self.worker_store_spec
        return {
            "counts": [r["counts"] for r in results],
            "unsettled_calls": sum(r["unsettled"] for r in results),
            "n_shards": spec.n_shards if spec.kind == "sharded" else 1,
            "kv_latency_ms": percentiles_ms(kv_samples),
            "kv_op_count": (sum(r["kv_op_count"] for r in results)
                            + self.store.op_count),
        }

    def _stop(self, failed: bool) -> None:
        for proc in self._procs:
            if failed and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=10.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs, self._conns = [], []
        # Segments are unlinked only after every worker has exited: a
        # worker's attach registers with the resource tracker, and
        # unlinking while registrations are still in flight races the
        # tracker into leak warnings at interpreter shutdown.
        for shm in self._segments:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments = []

    # ------------------------------------------------------------------
    def _recv(self, w: int):
        conn, proc = self._conns[w], self._procs[w]
        while not conn.poll(0.05):
            if not proc.is_alive():
                raise SwitchboardError(
                    f"admission worker {w} crashed "
                    f"(exitcode {proc.exitcode}); aborting the run")
        try:
            msg = conn.recv()
        except EOFError:
            raise SwitchboardError(
                f"admission worker {w} closed its pipe mid-run")
        if msg[0] == "error":
            raise SwitchboardError(
                f"admission worker {w} failed:\n{msg[1]}")
        return msg

    def _expect(self, w: int, kind: str):
        msg = self._recv(w)
        if msg[0] != kind:
            raise SwitchboardError(
                f"worker {w}: expected {kind}, got {msg[0]!r}")
        return msg
