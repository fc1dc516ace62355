"""The admission kernel: one worker's serving loop over a columnar batch.

Every event the controller sees (§5.4, benchmarked in §6.6) is served
here and nowhere else: open the call at the DC closest to its first
joiner, settle it against the plan at the config freeze, and keep its
state in the kvstore.  A kernel owns one worker's call table, counters
and per-call join batching; it touches shared state (the selector and
its slot or fleet ledger, the migrator's call registry) only through a
small **port**:

* ``settle(row, call_index, initial_dc, ended) -> (final_dc, migrated)``
  — reconcile the call at its freeze row (and, if it already hung up,
  release its reservation);
* ``join(row, call_id)`` / ``end(row, call_id)`` — a join grew, or a
  hangup closed, a settled call; ``call_id`` is ``None`` when the row
  changed nothing.  ``None`` in place of the callable when the shared
  side has no use for the row;
* ``skip(row)`` — a freeze row that settled nothing (or ``None``).

The thread executor's port is the engine itself (direct calls); the
process executor's port turns each call into a pipe message to the
parent (:mod:`repro.service.mp`).  Either way the shared side sees the
same calls in global row order, which is what keeps the two executors'
accounting and store state byte-identical.
"""

from __future__ import annotations

import time
import zlib
from typing import Callable, Dict, Union

import numpy as np

from repro.core.errors import SwitchboardError
from repro.core.types import MediaType
from repro.controller.events import EVENT_SORT_CODE, EventType
from repro.kvstore.client import PipelinedStateClient
from repro.topology.builder import Topology
from repro.workload.columnar import ColumnarTrace

_START = EVENT_SORT_CODE[EventType.CALL_START]
_JOIN = EVENT_SORT_CODE[EventType.PARTICIPANT_JOIN]
_MEDIA = EVENT_SORT_CODE[EventType.MEDIA_CHANGE]
_FREEZE = EVENT_SORT_CODE[EventType.CONFIG_FREEZE]
_END = EVENT_SORT_CODE[EventType.CALL_END]

#: The counters a kernel keeps (the fragment each worker reports).
COUNTER_FIELDS = ("processed", "dropped", "joins", "media_changes",
                  "generated", "early_ended", "ended")


def shard_of_call(trace: ColumnarTrace, n_workers: int) -> np.ndarray:
    """Each call's owning worker: ``crc32(call_id) % n_workers``.

    A stable hash (not the randomized builtin), so a given trace always
    lands on the same workers under either executor.
    """
    return np.array(
        [zlib.crc32(trace.call_id(i).encode("utf-8")) % n_workers
         for i in range(trace.n_calls)], dtype=np.int64)


def shared_rows(type_code: np.ndarray, fleet: bool) -> np.ndarray:
    """The rows whose serving calls the port, in global row order.

    Freezes always settle; joins and ends reach the shared side only
    when a fleet ledger or the migrator's registry consumes them.
    """
    mask = type_code == _FREEZE
    if fleet:
        mask |= (type_code == _JOIN) | (type_code == _END)
    return np.flatnonzero(mask)


class _CallState:
    """Per-call serving state, owned by exactly one kernel."""

    __slots__ = ("initial_dc", "settled", "ended")

    def __init__(self, initial_dc: str):
        self.initial_dc = initial_dc
        self.settled = False
        self.ended = False


class AdmissionKernel:
    """One worker: its call table, counters, and the serving loop."""

    def __init__(self, topology: Topology, store, port,
                 record_admission: Callable[[float], None]):
        self.closest_dc = topology.closest_dc
        self.client = PipelinedStateClient(store)
        self.port = port
        self.record_admission = record_admission
        self.calls: Dict[str, _CallState] = {}
        self.counts: Dict[str, int] = dict.fromkeys(COUNTER_FIELDS, 0)

    def unsettled(self) -> int:
        return sum(1 for state in self.calls.values() if not state.settled)

    def serve(self, source, rows: Union[range, np.ndarray]) -> None:
        """Serve ``rows`` of ``source`` (a
        :class:`~repro.controller.columnar.ColumnarEventBatch` or any
        object with its five arrays and ``trace``), in order.

        ``rows`` is a contiguous ``range`` (one worker serves a whole
        window) or an index array (this worker's partition of it).  The
        arrays are converted to plain Python scalars up front: per-row
        numpy scalar indexing costs more than the dispatch itself.

        Joins are the bulk of the stream and only ever *write* to the
        call's spread hash, which nothing in the serving loop reads, so
        each call's joins are buffered and ride one pipelined trip,
        flushed no later than the call's freeze or end (before its close
        deletes the key).  Per-op results and final store state equal
        per-event writes because spread increments commute.
        """
        if isinstance(rows, range):
            take = slice(rows.start, rows.stop)
            row_ids = rows
        else:
            take = rows
            row_ids = rows.tolist()
        trace = source.trace
        ids = trace.call_ids()
        country = trace.countries.value
        closest_dc = self.closest_dc
        client = self.client
        record_joins = client.record_joins
        record_admission = self.record_admission
        calls = self.calls
        port = self.port
        settle, join, end, skip = port.settle, port.join, port.end, port.skip
        perf_counter = time.perf_counter
        processed = dropped = joins = media_changes = 0
        generated = early_ended = ended = 0
        pending: Dict[str, list] = {}
        for row, call_index, code, country_code, media_code in zip(
                row_ids, source.call_idx[take].tolist(),
                source.type_code[take].tolist(),
                source.country_code[take].tolist(),
                source.media_code[take].tolist()):
            call_id = ids[call_index]
            if code == _JOIN:
                if country_code < 0:
                    dropped += 1
                    if join is not None:
                        join(row, None)
                    continue
                pending.setdefault(call_id, []).append(country(country_code))
                joins += 1
                if join is not None:
                    # Post-freeze joins grow the call's server reservation
                    # (no-op before the call is settled/placed).
                    join(row, call_id)
            elif code == _START:
                if country_code < 0:
                    dropped += 1
                    continue
                t0 = perf_counter()
                first_country = country(country_code)
                initial = closest_dc(first_country)
                calls[call_id] = _CallState(initial)
                client.open_call(call_id, initial, first_country)
                generated += 1
                record_admission((perf_counter() - t0) * 1e3)
            elif code == _MEDIA:
                if media_code < 0:
                    dropped += 1
                    continue
                client.record_media(call_id, MediaType.from_code(media_code))
                media_changes += 1
            elif code == _FREEZE:
                joined = pending.pop(call_id, None)
                if joined is not None:
                    record_joins(call_id, joined)
                state = calls.get(call_id)
                if state is None or state.settled:
                    dropped += 1
                    if skip is not None:
                        skip(row)
                    continue
                final_dc, migrated = settle(row, call_index,
                                            state.initial_dc, state.ended)
                state.settled = True
                if migrated:
                    client.migrate_call(call_id, final_dc)
                if state.ended:
                    # Hung up before its freeze point: settled against the
                    # plan anyway (the slot was reserved for it); the port
                    # released the reservation, the state goes now.
                    client.close_call(call_id)
                    del calls[call_id]
            elif code == _END:
                joined = pending.pop(call_id, None)
                if joined is not None:
                    record_joins(call_id, joined)
                state = calls.get(call_id)
                if state is None:
                    dropped += 1
                    if end is not None:
                        end(row, None)
                    continue
                ended += 1
                if state.settled:
                    client.close_call(call_id)
                    del calls[call_id]
                    if end is not None:
                        end(row, call_id)
                else:
                    state.ended = True
                    early_ended += 1
                    if end is not None:
                        end(row, None)
            else:
                raise SwitchboardError(f"unknown event code {code}")
            processed += 1
        for call_id, joined in pending.items():
            record_joins(call_id, joined)
        counts = self.counts
        counts["processed"] += processed
        counts["dropped"] += dropped
        counts["joins"] += joins
        counts["media_changes"] += media_changes
        counts["generated"] += generated
        counts["early_ended"] += early_ended
        counts["ended"] += ended
