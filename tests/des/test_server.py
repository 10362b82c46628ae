"""Unit tests for the preemptive-resume priority server."""

import pytest

from repro.des import Environment, Server
from repro.des.server import Lane


def run_until(env, event):
    return env.run(until=event)


class TestBasicService:
    def test_single_job_completes_after_demand(self, env):
        server = Server(env)
        done = server.submit(5)
        env.run(until=done)
        assert env.now == 5

    def test_fcfs_ordering(self, env):
        server = Server(env)
        finish_times = {}
        for name, demand in (("a", 3), ("b", 2), ("c", 1)):
            done = server.submit(demand)
            done.callbacks.append(
                lambda _e, n=name: finish_times.setdefault(n, env.now)
            )
        env.run()
        assert finish_times == {"a": 3, "b": 5, "c": 6}

    def test_zero_demand_completes_immediately(self, env):
        server = Server(env)
        done = server.submit(0)
        env.run(until=done)
        assert env.now == 0

    def test_negative_demand_rejected(self, env):
        server = Server(env)
        with pytest.raises(ValueError):
            server.submit(-1)

    def test_unknown_discipline_rejected(self, env):
        with pytest.raises(ValueError):
            Server(env, discipline="lifo")

    def test_queue_length_counts_waiting_only(self, env):
        server = Server(env)
        server.submit(10)
        server.submit(10)
        server.submit(10)
        assert server.queue_length == 2
        assert server.busy

    def test_idle_after_all_jobs(self, env):
        server = Server(env)
        server.submit(2)
        env.run()
        assert not server.busy
        assert server.queue_length == 0


class TestPreemption:
    def test_high_priority_preempts_and_victim_resumes(self, env):
        server = Server(env)
        victim_done = server.submit(10, priority=1, tag="txn")

        def intruder(env):
            yield env.timeout(4)
            done = server.submit(2, priority=0, tag="lock")
            yield done
            assert env.now == 6

        env.process(intruder(env))
        env.run(until=victim_done)
        # 4 served + 2 preempted + remaining 6 => finishes at 12.
        assert env.now == 12

    def test_equal_priority_does_not_preempt(self, env):
        server = Server(env)
        first = server.submit(5, priority=1)

        def second_arrival(env):
            yield env.timeout(1)
            done = server.submit(1, priority=1)
            yield done
            assert env.now == 6

        env.process(second_arrival(env))
        env.run(until=first)
        assert env.now == 5

    def test_nested_preemption(self, env):
        server = Server(env)
        low_done = server.submit(10, priority=2)

        def mid(env):
            yield env.timeout(2)
            done = server.submit(4, priority=1)
            yield done
            # mid was itself preempted by high for 1 unit: 2+4+1 = 7
            assert env.now == 7

        def high(env):
            yield env.timeout(3)
            done = server.submit(1, priority=0)
            yield done
            assert env.now == 4

        env.process(mid(env))
        env.process(high(env))
        env.run(until=low_done)
        assert env.now == 15

    def test_preemptor_arriving_at_completion_instant(self, env):
        # A preemption at the exact instant the victim finishes must
        # complete the victim rather than requeue a zero-work job.
        server = Server(env)
        victim_done = server.submit(3, priority=1)

        def intruder(env):
            yield env.timeout(3)
            yield server.submit(1, priority=0)

        env.process(intruder(env))
        env.run(until=victim_done)
        assert env.now <= 4  # victim must not wait behind the intruder


class TestLane:
    def _lane(self, env, n=2):
        members = [Server(env, "m{}".format(i)) for i in range(n)]
        return Lane(env, members, "lane"), members

    def test_busy_period_pauses_every_member(self, env):
        lane, members = self._lane(env)
        txns = [m.submit(10, priority=1, tag="txn") for m in members]

        def intruder(env):
            yield env.timeout(4)
            yield lane.submit(2, 0, "lock")
            assert env.now == 6

        env.process(intruder(env))
        env.run(until=env.all_of(txns))
        # Each member: 4 served, paused 2, remaining 6 => done at 12.
        assert env.now == 12
        for member in members:
            assert member.busy_time("txn") == pytest.approx(10)
            assert member.busy_time("lock") == pytest.approx(2)
            assert member.busy_time() == pytest.approx(12)

    def test_member_reads_fold_in_the_lane(self, env):
        lane, members = self._lane(env)
        member = members[0]
        member.submit(10, priority=1, tag="txn")
        env.run(until=4)
        lane.submit(2, 0, "lock")
        lane.submit(2, 0, "lock")
        member.submit(1, priority=1, tag="txn")
        env.run(until=5)
        assert member.busy
        # Own waiting job + preempted job + one queued lane job.
        assert member.queue_length == 3
        assert members[1].queue_length == 1
        assert member.busy_time("lock") == pytest.approx(1)
        assert member.busy_time("txn") == pytest.approx(4)
        assert member.busy_time() == pytest.approx(5)
        env.run(until=9)
        assert member.busy_time("lock") == pytest.approx(4)
        assert member.busy_time("txn") == pytest.approx(5)
        assert member.queue_length == 1

    def test_hold_finishes_a_job_ending_at_that_instant(self, env):
        lane, members = self._lane(env, n=1)
        victim_done = members[0].submit(3, priority=1)

        def intruder(env):
            yield env.timeout(3)
            yield lane.submit(1, 0, "lock")

        env.process(intruder(env))
        env.run(until=victim_done)
        assert env.now <= 4  # victim must not wait behind the lane job

    def test_lane_jobs_queue_behind_each_other_only(self, env):
        lane, members = self._lane(env)
        first = lane.submit(2, 0, "lock")
        second = lane.submit(3, 0, "lock")
        txn = members[1].submit(1, priority=1, tag="txn")
        env.run(until=first)
        assert env.now == 2
        env.run(until=second)
        assert env.now == 5
        env.run(until=txn)
        assert env.now == 6


class TestAccounting:
    def test_busy_time_split_by_tag(self, env):
        server = Server(env)
        server.submit(10, priority=1, tag="txn")

        def intruder(env):
            yield env.timeout(3)
            yield server.submit(2, priority=0, tag="lock")

        env.process(intruder(env))
        env.run()
        assert server.busy_time("txn") == pytest.approx(10)
        assert server.busy_time("lock") == pytest.approx(2)
        assert server.busy_time() == pytest.approx(12)

    def test_busy_time_includes_in_progress_service(self, env):
        server = Server(env)
        server.submit(10, tag="txn")
        env.timeout(4)
        env.run(until=4)
        assert server.busy_time("txn") == pytest.approx(4)

    def test_jobs_served_counts(self, env):
        server = Server(env)
        for _ in range(3):
            server.submit(1, tag="a")
        server.submit(1, tag="b")
        env.run()
        assert server.jobs_served("a") == 3
        assert server.jobs_served("b") == 1
        assert server.jobs_served() == 4

    def test_demand_submitted_totals(self, env):
        server = Server(env)
        server.submit(2.5, tag="a")
        server.submit(1.5, tag="a")
        env.run()
        assert server.demand_submitted("a") == pytest.approx(4.0)

    def test_busy_never_exceeds_elapsed_time(self, env):
        server = Server(env)
        for i in range(5):
            server.submit(7, priority=i % 2, tag=str(i))
        env.run(until=11)
        assert server.busy_time() <= 11 + 1e-9


class TestSJF:
    def test_sjf_orders_waiting_jobs_by_demand(self, env):
        server = Server(env, discipline="sjf")
        finish = {}
        for name, demand in (("long", 5), ("short", 1), ("mid", 3)):
            done = server.submit(demand)
            done.callbacks.append(
                lambda _e, n=name: finish.setdefault(n, env.now)
            )
        env.run()
        # "long" occupies the server first (it arrived to an idle
        # server); then the queue drains shortest-first.
        assert finish == {"long": 5, "short": 6, "mid": 9}

    def test_sjf_respects_priority_levels(self, env):
        server = Server(env, discipline="sjf")
        server.submit(5, priority=1)
        finish = {}
        for name, demand, priority in (
            ("urgent-long", 4, 0),
            ("normal-short", 1, 1),
        ):
            done = server.submit(demand, priority=priority)
            done.callbacks.append(
                lambda _e, n=name: finish.setdefault(n, env.now)
            )
        env.run()
        assert finish["urgent-long"] < finish["normal-short"]


class TestStress:
    def test_many_jobs_conserve_work(self):
        env = Environment()
        server = Server(env)
        import random

        rng = random.Random(1)
        total = 0.0
        for _ in range(200):
            demand = rng.uniform(0.1, 2.0)
            total += demand
            server.submit(demand, priority=rng.choice([0, 1, 2]))
        env.run()
        assert env.now == pytest.approx(total)
        assert server.busy_time() == pytest.approx(total)
        assert server.jobs_served() == 200
