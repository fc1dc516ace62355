"""The online admission service: load generation, engine, reporting.

``repro.service`` is the serving layer grown on top of the planner: a
:class:`LoadGenerator` turns the workload model into a high-volume
controller event stream, and one admission kernel
(:mod:`repro.service.kernel`) serves it behind a thread transport
(:class:`AdmissionEngine`) or a process transport
(:class:`MultiprocessAdmissionEngine`), both built by
:class:`ServiceRuntime` — stateless selector core, sharded kvstore
state — reporting exact call accounting and p50/p95/p99 admission
latencies in a :class:`ServiceReport`.
"""

from repro.service.engine import AdmissionEngine
from repro.service.loadgen import GeneratedLoad, LoadGenerator, StreamingLoad
from repro.service.mp import MultiprocessAdmissionEngine
from repro.service.report import REPORT_SCHEMA_VERSION, ServiceReport
from repro.service.runtime import ServiceRuntime

__all__ = [
    "AdmissionEngine",
    "GeneratedLoad",
    "LoadGenerator",
    "MultiprocessAdmissionEngine",
    "REPORT_SCHEMA_VERSION",
    "ServiceReport",
    "ServiceRuntime",
    "StreamingLoad",
]
