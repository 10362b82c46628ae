"""Exporters: Prometheus text, JSON snapshots, the HTTP endpoint, and
the ``repro-locking top`` renderer.

The exposition format is a public contract (external scrapers parse
it), so the round-trip test goes through :func:`parse_prometheus_text`
— a real, quote-aware parser — rather than substring checks.
"""

import json
import math
import os
import urllib.request

from repro.obs.exporters import (
    MetricsServer,
    SnapshotWriter,
    json_snapshot,
    parse_prometheus_text,
    prometheus_text,
    read_snapshot,
)
from repro.experiments.journal import read_journal
from repro.obs.metrics import MetricsRegistry
from repro.obs.top import (
    TopMonitor,
    default_snapshot_path,
    render_frame,
    run_top,
)


def _sample_registry():
    registry = MetricsRegistry()
    registry.counter(
        "repro_txn_commits_total", "Committed transactions."
    ).labels().inc(42)
    aborts = registry.counter(
        "repro_txn_aborts_total", "Aborts.", labels=("cause",)
    )
    aborts.labels("deadlock").inc(3)
    aborts.labels('we"ird\\cause\n').inc(1)
    hist = registry.histogram(
        "repro_lock_wait_time", "Lock waits.",
        labels=("ltot", "protocol"), buckets=(0.5, 1.0, 2.0),
    )
    series = hist.labels("20", "preclaim")
    for value in (0.1, 0.7, 0.7, 5.0):
        series.observe(value)
    registry.gauge("repro_sweep_occupancy", "Occupancy.").labels().set(0.75)
    return registry


# -- Prometheus text ------------------------------------------------------


def test_prometheus_text_round_trips_through_the_parser():
    text = prometheus_text(_sample_registry())
    parsed = parse_prometheus_text(text)
    samples = parsed["samples"]

    assert samples["repro_txn_commits_total"][frozenset()] == 42
    assert samples["repro_txn_aborts_total"][
        frozenset({("cause", "deadlock")})
    ] == 3
    # Escaped label value survives the round trip.
    assert samples["repro_txn_aborts_total"][
        frozenset({("cause", 'we"ird\\cause\n')})
    ] == 1
    assert parsed["meta"]["repro_txn_commits_total"]["type"] == "counter"
    assert parsed["meta"]["repro_lock_wait_time"]["type"] == "histogram"


def test_prometheus_histogram_buckets_are_cumulative_with_inf_last():
    text = prometheus_text(_sample_registry())
    bucket_lines = [
        line for line in text.splitlines()
        if line.startswith("repro_lock_wait_time_bucket")
    ]
    values = [float(line.rsplit(" ", 1)[1]) for line in bucket_lines]
    assert values == [1, 3, 3, 4]  # cumulative, le=+Inf covers all
    assert 'le="+Inf"' in bucket_lines[-1]
    # le is the last label pair on every bucket line.
    import re

    assert all(
        re.search(r',le="[^"]+"\} ', line) for line in bucket_lines
    )
    samples = parse_prometheus_text(text)["samples"]
    assert samples["repro_lock_wait_time_sum"][
        frozenset({("ltot", "20"), ("protocol", "preclaim")})
    ] == 6.5
    assert samples["repro_lock_wait_time_count"][
        frozenset({("ltot", "20"), ("protocol", "preclaim")})
    ] == 4


def test_prometheus_text_accepts_a_snapshot_dict():
    registry = _sample_registry()
    assert prometheus_text(registry.snapshot()) == prometheus_text(registry)


def test_prometheus_formats_non_finite_values():
    registry = MetricsRegistry()
    registry.gauge("g", "help").labels().set(math.inf)
    text = prometheus_text(registry)
    assert "g +Inf" in text


# -- JSON snapshots -------------------------------------------------------


def test_json_snapshot_shape_and_stability():
    registry = _sample_registry()
    first = json_snapshot(registry, exhibit="fig2")
    second = json_snapshot(registry, exhibit="fig2")
    assert first["schema"] == 1
    assert first["context"] == {"exhibit": "fig2"}
    # Deterministic apart from the generation timestamp.
    first.pop("generated_unixtime")
    second.pop("generated_unixtime")
    assert first == second
    # The metrics payload is exactly the registry snapshot.
    assert first["metrics"] == registry.snapshot()


def test_snapshot_writer_is_atomic_and_rate_limited(tmp_path):
    path = str(tmp_path / "metrics.json")
    registry = _sample_registry()
    writer = SnapshotWriter(path, registry, min_interval=3600.0)
    assert writer.maybe_write() is True
    # Within the interval: skipped...
    assert writer.maybe_write() is False
    # ...unless forced.
    assert writer.maybe_write(force=True) is True
    document = read_snapshot(path)
    assert document["metrics"] == registry.snapshot()
    # No temp files left behind.
    assert os.listdir(str(tmp_path)) == ["metrics.json"]


def test_read_snapshot_tolerates_missing_and_torn_files(tmp_path):
    assert read_snapshot(str(tmp_path / "nope.json")) is None
    torn = tmp_path / "torn.json"
    torn.write_text('{"schema": 1, "metrics": {')
    assert read_snapshot(str(torn)) is None


# -- HTTP endpoint --------------------------------------------------------


def test_metrics_server_serves_text_and_json():
    registry = _sample_registry()
    with MetricsServer(registry, port=0) as server:
        base = "http://{}:{}".format(server.host, server.port)
        with urllib.request.urlopen(base + "/metrics", timeout=5) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
            assert "version=0.0.4" in resp.headers["Content-Type"]
            text = resp.read().decode()
        assert parse_prometheus_text(text)["samples"][
            "repro_txn_commits_total"
        ][frozenset()] == 42
        with urllib.request.urlopen(base + "/metrics.json", timeout=5) as resp:
            document = json.loads(resp.read().decode())
        assert document["metrics"]["repro_txn_commits_total"][
            "series"
        ][0]["value"] == 42


def test_metrics_server_404_for_unknown_paths():
    with MetricsServer(_sample_registry(), port=0) as server:
        url = "http://{}:{}/other".format(server.host, server.port)
        try:
            urllib.request.urlopen(url, timeout=5)
            raise AssertionError("expected HTTP 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404


# -- top: journal parsing and rendering -----------------------------------


def _write_journal(path, done=3, analytic=1, cells=6, finished=False,
                   torn=False):
    lines = [json.dumps({"sweep": "abcd1234ef", "cells": cells,
                         "label": "fig2"})]
    for i in range(done - analytic):
        lines.append(json.dumps({"done": "cell-{}".format(i)}))
    for i in range(analytic):
        lines.append(json.dumps(
            {"done": "acell-{}".format(i), "provenance": "analytic"}
        ))
    if finished:
        lines.append(json.dumps({"finished": True}))
    text = "\n".join(lines) + "\n"
    if torn:
        text += '{"done": "torn-ce'  # mid-append crash
    path.write_text(text)
    return str(path)


def test_read_journal_counts_cells_and_tolerates_torn_tail(tmp_path):
    path = _write_journal(tmp_path / "s.journal", torn=True)
    state = read_journal(path)
    assert state == {
        "sweep": "abcd1234ef", "label": "fig2", "cells": 6,
        "done": {"cell-0": None, "cell-1": None, "acell-0": None},
        "analytic": 1, "finished": False,
    }


def test_read_journal_missing_file_is_empty_state(tmp_path):
    state = read_journal(str(tmp_path / "nope.journal"))
    assert state["cells"] is None
    assert state["done"] == {}


def test_render_frame_shows_progress_and_metrics():
    journal = {"sweep": "abcd1234ef", "label": "fig2", "cells": 10,
               "done": dict.fromkeys("abcd"), "analytic": 1,
               "finished": False}
    metrics = _sample_registry().snapshot()
    frame = render_frame(journal, metrics, rate=2.0,
                         events_per_second=123456.0)
    assert "fig2" in frame
    assert "4/10" in frame
    assert "pruned 1" in frame
    assert "pending 6" in frame
    assert "ETA 3s" in frame  # 6 pending / 2 cells per second
    assert "123,456 ev/s" in frame
    assert "occupancy 75%" in frame
    assert "42 commits" in frame
    assert "deadlock=3" in frame
    assert "4 lock waits" in frame


def test_render_frame_without_metrics_points_at_the_flag():
    frame = render_frame({"label": "fig2", "cells": 4, "done": {},
                          "analytic": 0, "finished": False})
    assert "--metrics" in frame


def test_run_top_once_renders_a_finished_sweep(tmp_path):
    import io

    journal = _write_journal(
        tmp_path / "s.journal", done=6, analytic=2, cells=6, finished=True
    )
    snapshot = default_snapshot_path(journal)
    SnapshotWriter(snapshot, _sample_registry()).maybe_write(force=True)
    stream = io.StringIO()
    state = run_top(journal, once=True, stream=stream)
    assert state["finished"] is True
    out = stream.getvalue()
    assert "FINISHED" in out
    assert "6/6" in out
    assert "42 commits" in out
    assert "\x1b[" not in out  # --once never clears the screen


def test_top_monitor_derives_rates_across_frames(tmp_path):
    journal_path = tmp_path / "s.journal"
    _write_journal(journal_path, done=2, cells=8, analytic=0)
    snapshot = default_snapshot_path(str(journal_path))
    registry = MetricsRegistry()
    events = registry.counter(
        "repro_kernel_events_total", "Events."
    ).labels()
    events.inc(1000)
    SnapshotWriter(snapshot, registry).maybe_write(force=True)

    monitor = TopMonitor(str(journal_path))
    monitor.frame(now=100.0)
    # Four more cells and 9000 more events over 2 wall seconds.
    _write_journal(journal_path, done=6, cells=8, analytic=0)
    events.inc(9000)
    SnapshotWriter(snapshot, registry).maybe_write(force=True)
    frame, state = monitor.frame(now=102.0)
    assert len(state["done"]) == 6
    assert "4,500 ev/s" in frame
    # rate = 4 cells / 2s = 2/s; 2 pending -> ETA 1s.
    assert "ETA 1s" in frame
