"""Unit tests for the telemetry report generator."""

import pytest

from repro.core.model import LockingGranularityModel
from repro.obs.report import (
    format_report,
    format_timeline,
    save_report_chart,
    sparkline,
    summarize_trace,
    timeline_chart,
)
from repro.obs.sinks import JsonlTraceSink, TraceFile, load_trace
from repro.obs.timeseries import TimeSeriesRecorder


@pytest.fixture
def tracefile(fast_params, tmp_path):
    """A real short run exported to JSONL and replayed."""
    path = tmp_path / "run.jsonl"
    sink = JsonlTraceSink(path, params=fast_params.as_dict())
    model = LockingGranularityModel(fast_params, trace=sink)
    recorder = TimeSeriesRecorder(20.0)
    recorder.install(model)
    model.run()
    recorder.export(sink)
    sink.close()
    return load_trace(path)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_is_all_low(self):
        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_monotone_series_ends_high(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁" and line[-1] == "█"

    def test_respects_explicit_bounds(self):
        assert sparkline([5], lo=0, hi=10) != sparkline([5], lo=5, hi=5)


class TestSummarize:
    def test_counts_match_run(self, tracefile):
        summary = summarize_trace(tracefile)
        assert summary["events"] == len(tracefile.records)
        assert summary["completions"] == summary["counts"]["complete"]
        assert summary["completions"] > 0
        assert summary["mean_response"] > 0
        assert summary["max_response"] >= summary["mean_response"]
        assert summary["samples"] == len(tracefile.samples)

    def test_top_blockers_reference_denials(self, tracefile):
        # Uncapped: every preclaim denial contributes one lock_deny and
        # one block record, both naming the blocker.
        summary = summarize_trace(tracefile, top=len(tracefile.records))
        denials = summary["counts"].get("lock_deny", 0)
        blocked = sum(count for _tid, count in summary["top_blockers"])
        assert denials > 0
        assert blocked == 2 * denials

    def test_retries_are_later_attempts(self, tracefile):
        summary = summarize_trace(tracefile)
        requests = summary["counts"]["lock_request"]
        first_attempts = sum(
            1 for r in tracefile.records
            if r.kind == "lock_request" and r.details.get("attempt") == 1
        )
        assert summary["retries"] == requests - first_attempts

    def test_top_limits_list_length(self, tracefile):
        summary = summarize_trace(tracefile, top=2)
        assert len(summary["top_blockers"]) <= 2


class TestFormatting:
    def test_report_mentions_key_quantities(self, tracefile):
        text = format_report(tracefile)
        assert "Telemetry report" in text
        assert "completions" in text
        assert "events by kind" in text
        assert "Utilisation timeline" in text

    def test_timeline_without_samples(self):
        empty = TraceFile(header={"schema": 1}, records=[], samples=[])
        assert "no time-series samples" in format_timeline(empty.samples)

    def test_report_on_sample_free_file(self, fast_params, tmp_path):
        path = tmp_path / "nosamples.jsonl"
        with JsonlTraceSink(path) as sink:
            LockingGranularityModel(fast_params, trace=sink).run()
        text = format_report(load_trace(path))
        assert "no time-series samples" in text


class TestSvg:
    def test_chart_has_all_series(self, tracefile):
        svg = timeline_chart(tracefile).render()
        for label in ("cpu util", "disk util", "blocked", "active"):
            assert label in svg

    def test_save_writes_file(self, tracefile, tmp_path):
        path = tmp_path / "timeline.svg"
        saved = save_report_chart(tracefile, str(path))
        assert saved == str(path)
        assert path.read_text().startswith("<svg")
