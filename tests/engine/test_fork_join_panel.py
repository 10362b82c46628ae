"""Pinned panel for the sub-transaction fork/join.

A granted transaction forks one sub-transaction per processor it
touches; each runs disk then CPU work and reports into one join.  The
sub-transactions run as chains of server completion callbacks, each
hop taking the event id the one-process-per-sub form drew at that
point.  Each cell's result digest, dispatched-event count and emit
record stream were recorded with that process form, so any change to
the fork/join's event count or to the order of its same-instant ties
fails here.  Zero lock costs make such ties common (the lock work of a
request completes at the instant it is made).  Crash cells run on the
per-node lock path, where killed jobs report ``ProcessorDown`` through
the same callbacks.
"""

import hashlib
import json

import pytest

from repro.core import SimulationParameters
from repro.core.model import LockingGranularityModel
from repro.core.results import RESULT_FIELDS
from repro.faults.plan import CrashSpec, FaultPlan

CRASH_BASE = dict(dbsize=500, ltot=20, ntrans=10, maxtransize=50)

CELLS = {
    "fig2-npros30": dict(npros=30, ltot=100, tmax=300.0, seed=1),
    "npros10": dict(npros=10, ltot=50, tmax=300.0, seed=2),
    "fig10-random-npros30": dict(
        dbsize=5000, ntrans=10, maxtransize=50, npros=30, placement="random",
        ltot=5000, tmax=100.0, seed=1,
    ),
    "random-partitioning-npros30": dict(
        npros=30, ltot=100, partitioning="random", tmax=300.0, seed=3
    ),
    "heavyload": dict(
        ntrans=200, npros=20, maxtransize=500, ltot=10, placement="best",
        tmax=100.0, seed=4,
    ),
    "sjf-npros4": dict(npros=4, ltot=20, discipline="sjf", tmax=300.0, seed=5),
    "zero-lock-cost-npros4": dict(
        npros=4, ltot=20, lcputime=0.0, liotime=0.0, tmax=300.0, seed=1
    ),
    "crash-npros1": dict(CRASH_BASE, npros=1, tmax=300.0, seed=1),
    "crash-npros4": dict(CRASH_BASE, npros=4, tmax=300.0, seed=2),
    "crash-npros30": dict(CRASH_BASE, npros=30, tmax=60.0, seed=2),
}

#: cell -> (sha256 of the result fields, events dispatched, sha256 of
#: the emit records).
PINNED = {
    "crash-npros1": (
        "2c5b53b8888ca0ef999cdd2983d7a9d81184799bfe1102a8e3b5b8c93f519b46",
        4410,
        "e91002ee944370e50774cf69ce68735eb47053954bfb6d2852bb61e4000f4733",
    ),
    "crash-npros30": (
        "2c614bfc0a4057f8c4aa154e20b342f5e7ece5854846c9247fc377ac7bb9c849",
        84260,
        "d9b03b5b5e8e7fd5a84519302e1b48c1fbbe2c8e5dc745efcdbcaaa85a561128",
    ),
    "crash-npros4": (
        "573f011416fdeb54755ed5c5030b6dca5b8fdf7a4082c0407f9b48a437565d8b",
        14131,
        "48bff41b1d690dff90131a623c007e1ab52a296f1dc0971e773a8c565452fa9b",
    ),
    "fig10-random-npros30": (
        "fc51227385b5a20559dfe294c94373f4a4281225873bffbc76da544e4861d103",
        34992,
        "17b48c179e788c6d07b0e11104891a77cc14c4f9d69afe0effada0170071b960",
    ),
    "fig2-npros30": (
        "7224b90774e7d4e0569f9dddd3a35ca848fda808be5ddf1b01c7e61d94c02bf4",
        35599,
        "5af87f6a94a5e72aac024ea8c1ca9e951d1630a397b1252a2372cb84dc08350b",
    ),
    "heavyload": (
        "0743310cdff14d6bb8a6a86da6fdfbb6c33af50365636206c2be4ffe545c9eae",
        10416,
        "6b9c1b36ad1d6fc206481286fff72d685575e35b487c182dedc99fc36db46d9e",
    ),
    "npros10": (
        "00b4a24e7e60a5f423dddb311f351914387ecea5c925904c3f063be69180d2c8",
        5079,
        "213789402edd75628c013e6204e70f41895a9f107c436c3065fe49c0657fd977",
    ),
    "random-partitioning-npros30": (
        "7b725bce2e808336d4948dd9f79585ca71218e10ad8b33660386edd93b51e249",
        12210,
        "676d1fa25f694341329f15c9007f4d5556674a36675aa2703f7a0bf4a9745f7a",
    ),
    "sjf-npros4": (
        "b8f823dc6c4e13af29adc08e3099e93ac6c480df24c7b8f18529a075f09a8a3f",
        1368,
        "f1fa0b63ddc9e508fba417f30a47aaa4fc1c227215555215ddbc11b9a8d42a56",
    ),
    "zero-lock-cost-npros4": (
        "4fcc07a7e21940692c1eef5397cd993bbeacbe327b830805a4a31d161a1f6b17",
        658,
        "4f583e71355716c99f669d38d0d5c1da69382110bf702b01ae502c35de76fa57",
    ),
}



def _plan(name, seed):
    if not name.startswith("crash-"):
        return None
    return FaultPlan(crashes=(CrashSpec(mttf=40.0, mttr=5.0),), seed=seed)


class _Records:
    """A view that keeps every emit record, in order."""

    def __init__(self):
        self.rows = []

    def emit(self, time, kind, subject, **details):
        self.rows.append((time, kind, subject, sorted(details.items())))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(name):
    fields = CELLS[name]
    records = _Records()
    model = LockingGranularityModel(
        SimulationParameters(**fields),
        trace=records,
        fault_plan=_plan(name, fields["seed"]),
    )
    result = model.run()
    document = {field: getattr(result, field) for field in RESULT_FIELDS}
    pins = (
        _sha256(json.dumps(document, sort_keys=True)),
        model.env.events_dispatched,
        _sha256(repr(records.rows)),
    )
    return result, pins


@pytest.mark.parametrize("name", sorted(CELLS))
def test_fork_join_cell_is_pinned(name):
    result, pins = _run(name)
    assert result.totcom > 0
    if name.startswith("crash-"):
        assert result.failure_aborts > 0
    assert pins == PINNED[name]
