"""One emit stream, many views: the views agree, and the stream is pinned.

* Live vs offline parity — the live instruments and ``report``'s
  contention diagnosis pair lock waits through the same helper, so on
  a lock-table run they count the same wait episodes, granule by
  granule (including the zero-length wait of a request that aborts
  itself before parking).
* Trace vocabulary — the sha256 of the JSONL record lines of two
  reference runs is pinned, so the emit stream every view derives from
  cannot drift silently.
"""

import hashlib

import pytest

from repro.core import SimulationParameters
from repro.core.model import LockingGranularityModel
from repro.des.trace import Trace
from repro.obs.metrics import LockWaits, MetricsRegistry, summarize_snapshot
from repro.obs.report import contention_diagnosis
from repro.obs.sinks import JsonlTraceSink, TraceFile
from tests.obs.test_metrics import GOLDEN_PARAMS, LOCK_TABLE_PARAMS

#: sha256 over the ``"type": "record"`` lines of each run's JSONL trace.
TRACE_DIGESTS = {
    "preclaim": (
        "ab4e455d48c0956dade59cf893a1216e70e938b76ffbfc6d9506a789077213bf"
    ),
    "incremental": (
        "865cd366ef9b174c6aa24e5d1a1e9e8103cc30461168655fa6306ad2c0af7969"
    ),
}

TRACE_PARAMS = {"preclaim": GOLDEN_PARAMS, "incremental": LOCK_TABLE_PARAMS}


def test_live_waits_match_the_offline_diagnosis():
    params = SimulationParameters(**LOCK_TABLE_PARAMS)
    trace = Trace()
    registry = MetricsRegistry()
    LockingGranularityModel(
        params, trace=trace, metrics_registry=registry
    ).run()
    diagnosis = contention_diagnosis(
        TraceFile({}, list(trace), []), top=params.ltot
    )
    flat = summarize_snapshot(registry.snapshot())
    live = flat["histograms"][
        "repro_lock_wait_time{ltot=200,protocol=incremental}"
    ]
    assert diagnosis["wait_episodes"] > 0
    assert live["count"] == diagnosis["wait_episodes"]
    live_granules = {
        name.split("=", 1)[1].rstrip("}"): value
        for name, value in flat["counters"].items()
        if name.startswith("repro_granule_waits_total{")
    }
    assert live_granules == {
        str(row["granule"]): row["waits"]
        for row in diagnosis["granule_waits"]
    }


def test_self_abort_before_parking_is_a_zero_length_wait():
    pairing = LockWaits()
    assert pairing.feed(5.0, "block", 7, {"granule": 3}) is None
    assert pairing.feed(5.0, "lock_cancel", 7, {"granule": 3}) is None
    assert pairing.feed(5.0, "abort", 7, {"reason": "deadlock"}) == (0.0, 3)
    # An abort with no open wait closes nothing.
    assert pairing.feed(6.0, "abort", 7, {"reason": "deadlock"}) is None


@pytest.mark.parametrize("run", sorted(TRACE_DIGESTS))
def test_trace_record_lines_are_pinned(run, tmp_path):
    path = tmp_path / "run.jsonl"
    params = SimulationParameters(**TRACE_PARAMS[run])
    with JsonlTraceSink(path) as sink:
        LockingGranularityModel(params, trace=sink).run()
    with open(path) as handle:
        records = [line for line in handle if '"type": "record"' in line]
    digest = hashlib.sha256("".join(records).encode()).hexdigest()
    assert digest == TRACE_DIGESTS[run]
