"""Pinned results on the code paths the flat golden run never visits.

The golden configuration exercises preclaim + probabilistic conflicts
only.  These single runs force the hierarchical engine (with real
escalations), the deadlock detector's victim selection, the wound-wait
abort path and multi-class mixes, assert that each path actually
fired, and pin ``totcom`` — so a kernel change that moves dispatch
order on any of these paths fails here, not only in the flat golden
digest.
"""

from repro.core import SimulationParameters, simulate
from tests.test_regression_golden import GOLDEN_PARAMS


class TestCoverageIdentity:
    def test_hierarchical_engine_identity(self):
        result = simulate(
            GOLDEN_PARAMS.replace(
                conflict_engine="hierarchical",
                nfiles=4,
                escalation_threshold=2,
            )
        )
        assert result.lock_escalations == 46
        assert result.totcom == 116

    def test_deadlock_victim_identity(self):
        result = simulate(
            SimulationParameters(
                dbsize=200, ltot=20, ntrans=12, maxtransize=100,
                npros=4, tmax=200.0, seed=1,
                conflict_engine="explicit", protocol="incremental",
            )
        )
        assert result.deadlock_aborts == 47
        assert result.totcom == 48

    def test_wound_wait_identity(self):
        result = simulate(
            SimulationParameters(
                dbsize=200, ltot=20, ntrans=10, maxtransize=50,
                npros=4, tmax=200.0, seed=5,
                conflict_engine="explicit", protocol="wound-wait",
            )
        )
        assert result.deadlock_aborts == 24
        assert result.totcom == 127

    def test_multi_class_identity(self):
        result = simulate(
            GOLDEN_PARAMS.replace(
                workload="classes",
                txn_classes="oltp:0.8:20,batch:0.2:200:gran=file:prio=1",
            )
        )
        assert [row["txn_class"] for row in result.per_class] == [
            "oltp",
            "batch",
        ]
        assert result.totcom == 130

    def test_multi_class_hierarchical_identity(self):
        # Per-class granularity preferences drive the hierarchical
        # planner, so escalations depend on the class mix.
        result = simulate(
            GOLDEN_PARAMS.replace(
                conflict_engine="hierarchical",
                nfiles=4,
                escalation_threshold=3,
                workload="classes",
                txn_classes=(
                    "oltp:0.7:20:gran=block,batch:0.3:200:gran=file"
                ),
            )
        )
        assert result.lock_escalations == 24
        assert result.totcom == 159


def test_seed_sweep_identity():
    """A spread of seeds at a quick horizon, each pinned."""
    for seed, totcom in ((1, 44), (3, 53), (11, 51)):
        params = SimulationParameters(
            dbsize=200,
            ltot=10,
            ntrans=4,
            maxtransize=20,
            npros=2,
            tmax=60.0,
            seed=seed,
        )
        assert simulate(params).totcom == totcom, seed
