"""Unified observability: tracing spans, metrics, cost-model calibration.

Zero-dependency (stdlib + NumPy) and **off by default**: with
observability disabled every instrumentation site reduces to one flag
check, a cost gated below 2 % by ``scripts/observe_overhead.py``.

Three sub-facilities, usable independently:

* :mod:`repro.observe.trace` — nested spans recorded into a per-run
  :class:`Trace` (``observe.enable()`` / ``observe.span("search")`` /
  ``observe.disable()``), exportable as JSON or a Chrome ``trace_event``
  file.  Pool workers ship their spans back through the per-chunk
  result channel.
* :mod:`repro.observe.metrics` — a process-local registry of counters,
  gauges and histograms (:data:`REGISTRY`), with JSON and
  Prometheus-text exporters; the engine publishes per-run deltas of the
  kernel/cache/supervisor telemetry into it, and ``repro stats`` dumps
  it from the CLI.
* :mod:`repro.observe.calibration` — opt-in recording of
  (plan, per-model cost estimate, measured seconds) triples with a
  Spearman rank-correlation report per cost model (the Figure-11
  methodology against live data).
* :mod:`repro.observe.ledger` — an append-only JSON-lines **run
  ledger**: with ``enable_ledger()`` active, every ``execute_plan``
  call appends a record (run id, plan/graph fingerprints, frozen
  options/policy, metrics, phase rollup); ``Ledger.runs(...)`` queries
  it and ``repro history`` renders it.
* :mod:`repro.observe.progress` — live heartbeats for supervised
  executions: a :class:`ProgressEvent` per completed chunk (weighted
  work fraction, embeddings, throughput, ETA), surfaced through
  ``EngineOptions(progress=...)``, the ``repro_progress_*`` gauges, and
  the ``repro count --progress`` console bar.

See docs/OBSERVABILITY.md for the span/metric naming scheme.
"""

from repro.observe.calibration import (
    CalibrationRecord,
    CalibrationRecorder,
    CalibrationReport,
    active_recorder,
    calibrate,
    calibrating,
    record_plan_execution,
    spearman,
)
from repro.observe.ledger import (
    Ledger,
    RunRecord,
    active_ledger,
    disable_ledger,
    enable_ledger,
    graph_fingerprint,
)
from repro.observe.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
)
from repro.observe.progress import (
    CollectingProgress,
    ConsoleProgress,
    ProgressEvent,
    ProgressReporter,
)
from repro.observe.trace import (
    Span,
    Trace,
    current_trace,
    disable,
    enable,
    enabled,
    graft_worker_spans,
    span,
)

__all__ = [
    # tracing
    "Span",
    "Trace",
    "span",
    "enable",
    "disable",
    "enabled",
    "current_trace",
    "graft_worker_spans",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    # calibration
    "CalibrationRecord",
    "CalibrationRecorder",
    "CalibrationReport",
    "calibrate",
    "calibrating",
    "active_recorder",
    "record_plan_execution",
    "spearman",
    # ledger
    "Ledger",
    "RunRecord",
    "enable_ledger",
    "disable_ledger",
    "active_ledger",
    "graph_fingerprint",
    # progress
    "ProgressEvent",
    "ProgressReporter",
    "CollectingProgress",
    "ConsoleProgress",
]
