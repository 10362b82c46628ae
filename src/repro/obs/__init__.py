"""Observability: structured trace export, time-series telemetry,
run provenance, and offline reporting.

The paper's conclusions rest on internal, time-resolved quantities —
lock waits, blocking populations, per-processor utilisation — that
end-of-run aggregates cannot explain.  This package turns every run
into an explainable artifact:

* :mod:`repro.obs.sinks` — the pluggable trace-sink protocol, the
  JSONL export backend, and the schema-versioned replay loader;
* :mod:`repro.obs.timeseries` — a sampled recorder of machine and
  population state;
* :mod:`repro.obs.manifest` — run provenance records;
* :mod:`repro.obs.report` — the ``repro report`` analysis;
* :mod:`repro.obs.metrics` — the live metrics registry and
  :class:`~repro.obs.metrics.RunInstruments`, the view that derives
  counters/gauges/histograms from a run's emit stream (plus the sweep
  harness instruments);
* :mod:`repro.obs.exporters` — Prometheus text / JSON snapshot
  exporters and the ``--metrics-port`` HTTP endpoint;
* :mod:`repro.obs.top` — the ``repro-locking top`` live sweep monitor.

Quick tour — one emit stream, many views (a JSONL file and live
instruments here)::

    from repro.core.model import LockingGranularityModel
    from repro.core.parameters import SimulationParameters
    from repro.obs import JsonlTraceSink, MetricsRegistry, load_trace

    with JsonlTraceSink("run.jsonl") as sink:
        LockingGranularityModel(
            SimulationParameters(tmax=200.0),
            trace=sink,
            metrics_registry=MetricsRegistry(),
        ).run()

    replay = load_trace("run.jsonl")
    assert len(replay.records) > 0
"""

from repro.obs.exporters import (
    MetricsServer,
    SnapshotWriter,
    json_snapshot,
    parse_prometheus_text,
    prometheus_text,
    read_snapshot,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    git_sha,
    load_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    MetricsRegistry,
    RunInstruments,
    SweepInstruments,
    summarize_snapshot,
)
from repro.obs.report import (
    contention_diagnosis,
    format_diagnosis,
    format_report,
    format_timeline,
    report_json,
    save_report_chart,
    summarize_trace,
    timeline_chart,
)
from repro.obs.sinks import (
    TRACE_SCHEMA,
    JsonlTraceSink,
    RingBufferSink,
    TraceFile,
    TraceSchemaError,
    TraceSink,
    load_trace,
)
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.top import TopMonitor, render_frame, run_top

__all__ = [
    "MANIFEST_SCHEMA",
    "TRACE_SCHEMA",
    "JsonlTraceSink",
    "MetricsRegistry",
    "MetricsServer",
    "RingBufferSink",
    "RunInstruments",
    "SnapshotWriter",
    "SweepInstruments",
    "TimeSeriesRecorder",
    "TopMonitor",
    "TraceFile",
    "TraceSchemaError",
    "TraceSink",
    "build_manifest",
    "contention_diagnosis",
    "format_diagnosis",
    "format_report",
    "format_timeline",
    "git_sha",
    "json_snapshot",
    "load_manifest",
    "load_trace",
    "parse_prometheus_text",
    "prometheus_text",
    "read_snapshot",
    "render_frame",
    "report_json",
    "run_top",
    "summarize_snapshot",
    "summarize_trace",
    "timeline_chart",
    "write_manifest",
]
