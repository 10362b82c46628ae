"""Shared lock lanes against per-node lock work.

A lane machine serves every lock request as at most one CPU-lane and
one disk-lane job; a per-node machine (``lanes=False``) submits each
up node's share to that node.  Without node-level faults both model
the same thing, so whole runs must agree to the last bit:

* a differential panel runs each cell through both machines and
  compares the digests of every result field;
* the per-node views (time-series rows and the JSONL trace) of a
  preclaim run are pinned to the values the per-node machine produced
  before lanes existed;
* fault plans choose the machine: node crashes and disk slowdowns
  take the per-node path, lock stalls stay on the lanes.
"""

import hashlib
import json

import pytest

import repro.core.model as model_module
from repro.core import SimulationParameters
from repro.core.model import LockingGranularityModel
from repro.core.results import RESULT_FIELDS
from repro.engine.machine import Machine
from repro.faults.plan import CrashSpec, FaultPlan, SlowdownSpec, StallSpec
from repro.obs.sinks import JsonlTraceSink
from repro.obs.timeseries import TimeSeriesRecorder

BASE = dict(dbsize=500, ltot=20, ntrans=10, maxtransize=50, tmax=40.0)

PROTOCOLS = {
    "preclaim": {},
    "no-waiting": dict(protocol="no-waiting"),
    "incremental": dict(
        protocol="incremental", conflict_engine="explicit", dbsize=200, ltot=200
    ),
    "wound-wait": dict(
        protocol="wound-wait", conflict_engine="explicit", dbsize=200, ltot=200
    ),
}

STALLS = FaultPlan(
    lock_stalls=(StallSpec(mtbf=10.0, duration=5.0, factor=4.0),), seed=2
)


def _panel():
    cells = []
    for protocol, fields in sorted(PROTOCOLS.items()):
        for npros in (1, 4, 20, 30):
            for discipline in ("fcfs", "sjf"):
                for seed in (3, 8):
                    cells.append(pytest.param(
                        dict(BASE, npros=npros, discipline=discipline,
                             seed=seed, **fields),
                        None,
                        id="{}-{}-{}-{}".format(protocol, npros, discipline, seed),
                    ))
    cells.append(pytest.param(dict(BASE, npros=8, seed=5), STALLS, id="lock-stalls"))
    for commit in ("2pc", "primary-copy"):
        cells.append(pytest.param(
            dict(BASE, npros=6, nnodes=2, net_latency=0.02,
                 commit_protocol=commit, seed=11),
            None,
            id=commit,
        ))
    cells.append(pytest.param(
        dict(BASE, npros=10, workload="classes",
             txn_classes="oltp:0.8:20,batch:0.2:200", seed=7),
        None,
        id="classes",
    ))
    cells.append(pytest.param(
        dict(dbsize=5000, ntrans=10, maxtransize=50, npros=30,
             placement="random", ltot=5000, tmax=60.0, seed=1),
        None,
        id="fig10-random",
    ))
    return cells


def _digest(result):
    document = {name: getattr(result, name) for name in RESULT_FIELDS}
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def _per_node_machine(env, npros, discipline, lanes):
    return Machine(env, npros, discipline, lanes=False)


@pytest.mark.parametrize("fields, plan", _panel())
def test_lanes_match_per_node_lock_work(fields, plan, monkeypatch):
    params = SimulationParameters(**fields)
    lanes = LockingGranularityModel(params, fault_plan=plan).run()
    monkeypatch.setattr(model_module, "Machine", _per_node_machine)
    per_node = LockingGranularityModel(params, fault_plan=plan).run()
    assert lanes.lock_requests > 0
    assert _digest(lanes) == _digest(per_node)


# -- per-node views --------------------------------------------------------

#: A preclaim run whose lock shares queue on every device.
VIEW_PARAMS = dict(
    dbsize=500, ltot=100, ntrans=20, maxtransize=50, npros=4, tmax=200.0, seed=7
)

#: sha256 of ``repr`` of the (t, cpu_q, disk_q, cpu_util, disk_util)
#: rows of a 1.0-interval TimeSeriesRecorder, and of the JSONL trace's
#: record lines, both taken from the per-node machine before lanes.
TIMESERIES_DIGEST = (
    "b56081cfb56c28fcae9c9742096058d87246410202305cec2dc0f504bdda7877"
)
TRACE_DIGEST = "5f55920ec097e0bf3053cab9653ff16f8209216bcbc5f4b2f1fd5e81ddd3f5e7"


def test_timeseries_rows_are_pinned():
    model = LockingGranularityModel(SimulationParameters(**VIEW_PARAMS))
    recorder = TimeSeriesRecorder(1.0)
    recorder.install(model)
    model.run()
    columns = ("t", "cpu_q", "disk_q", "cpu_util", "disk_util")
    rows = [[row[name] for name in columns] for row in recorder.rows]
    # Lock shares really queue: the lane's waiting jobs show per node.
    assert max(max(row[2]) for row in rows) > 1
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == TIMESERIES_DIGEST


def test_trace_record_lines_are_pinned(tmp_path):
    path = tmp_path / "run.jsonl"
    with JsonlTraceSink(path) as sink:
        LockingGranularityModel(SimulationParameters(**VIEW_PARAMS), trace=sink).run()
    with open(path) as handle:
        records = [line for line in handle if '"type": "record"' in line]
    assert hashlib.sha256("".join(records).encode()).hexdigest() == TRACE_DIGEST


# -- path selection ----------------------------------------------------------


@pytest.mark.parametrize("plan", [
    FaultPlan(crashes=(CrashSpec(mttf=30.0, mttr=5.0),), seed=1),
    FaultPlan(disk_slowdowns=(SlowdownSpec(mtbf=10.0, duration=5.0),), seed=1),
], ids=["crashes", "disk-slowdowns"])
def test_node_faults_take_the_per_node_path(plan):
    model = LockingGranularityModel(
        SimulationParameters(**dict(BASE, npros=4, seed=3)), fault_plan=plan
    )
    model.machine[1].disk.set_scale(2.0)
    assert model.machine.crash(0) >= 0
    model.machine.recover(0)
    model.machine[1].disk.set_scale(1.0)
    assert model.run().totcom > 0


def test_lock_stalls_stay_on_the_lanes():
    model = LockingGranularityModel(
        SimulationParameters(**dict(BASE, npros=4, seed=3)), fault_plan=STALLS
    )
    with pytest.raises(RuntimeError):
        model.machine.crash(0)
