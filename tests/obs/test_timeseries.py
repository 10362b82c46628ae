"""Unit tests for the sampled time-series recorder."""

import pytest

from repro.core.model import LockingGranularityModel
from repro.obs.sinks import JsonlTraceSink, load_trace
from repro.obs.timeseries import TimeSeriesRecorder


def _sampled(params, interval, trace=None):
    """Run *params* with a recorder installed; returns (result, recorder)."""
    model = LockingGranularityModel(params, trace=trace)
    recorder = TimeSeriesRecorder(interval)
    recorder.install(model)
    return model.run(), recorder


class TestRecorder:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(0)
        with pytest.raises(ValueError):
            TimeSeriesRecorder(-1.0)

    def test_samples_at_interval(self, fast_params):
        _, recorder = _sampled(fast_params, 10.0)
        rows = recorder.rows
        # tmax=200 at interval 10: samples at t=10, 20, ..., 200.
        assert len(rows) == 20
        assert [row["t"] for row in rows] == [
            pytest.approx(10.0 * (i + 1)) for i in range(20)
        ]

    def test_row_shape(self, fast_params):
        _, recorder = _sampled(fast_params, 25.0)
        row = recorder.rows[0]
        npros = fast_params.npros
        assert len(row["cpu_q"]) == npros
        assert len(row["disk_q"]) == npros
        assert len(row["cpu_util"]) == npros
        assert len(row["disk_util"]) == npros
        for util in row["cpu_util"] + row["disk_util"]:
            assert 0.0 <= util <= 1.0 + 1e-9
        for key in ("pending", "blocked", "active", "locks_held"):
            assert row[key] >= 0

    def test_some_activity_is_visible(self, fast_params):
        """A busy closed system must show non-zero utilisation."""
        _, recorder = _sampled(fast_params, 10.0)
        rows = recorder.rows
        assert any(sum(row["disk_util"]) > 0 for row in rows)
        assert any(row["active"] > 0 for row in rows)


class TestBitIdentity:
    def test_sampling_does_not_change_results(self, fast_params):
        """The recorder reads state only: results stay bit-identical."""
        plain = LockingGranularityModel(fast_params).run()
        sampled, _ = _sampled(fast_params, 5.0)
        for field in (
            "totcom", "throughput", "response_time", "response_p50",
            "response_p95", "totcpus", "totios", "lockcpus", "lockios",
            "lock_requests", "lock_denials", "deadlock_aborts",
            "mean_blocked", "mean_active",
        ):
            assert getattr(plain, field) == getattr(sampled, field), field


class TestExport:
    def test_samples_flushed_into_jsonl(self, fast_params, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        _, recorder = _sampled(fast_params, 20.0, trace=sink)
        recorder.export(sink)
        sink.close(note="done")
        loaded = load_trace(path)
        assert len(loaded.samples) == 10
        assert loaded.footer["samples"] == 10
        assert loaded.footer["note"] == "done"
        assert loaded.samples[0]["t"] == pytest.approx(20.0)
        assert "blocked" in loaded.samples[0]
