"""Fault hooks on servers, processors and the machine.

These are the engine-layer primitives the
:class:`~repro.faults.injector.FaultInjector` drives: crash/recover on
nodes (killing in-flight jobs), service-time scaling on devices, and
downtime/degraded-time accounting on the machine.
"""

import pytest

from repro.des.server import Server
from repro.engine.machine import Machine
from repro.engine.processor import Processor, ProcessorDown


class TestServerFaultHooks:
    def test_set_scale_inflates_future_jobs_only(self, env):
        server = Server(env)
        first = server.submit(2.0)
        server.set_scale(3.0)
        second = server.submit(2.0)

        def waiter(env):
            yield first
            first_at = env.now
            yield second
            return first_at, env.now

        process = env.process(waiter(env))
        # First job keeps its 2.0 demand; second costs 2.0 * 3 = 6.0.
        assert env.run(until=process) == (2.0, 8.0)

    def test_set_scale_validation(self, env):
        server = Server(env)
        with pytest.raises(ValueError):
            server.set_scale(0.0)

    def test_fail_all_fails_waiters_and_counts(self, env):
        server = Server(env)
        outcomes = []

        def worker(env, demand):
            try:
                yield server.submit(demand)
                outcomes.append("done")
            except ProcessorDown:
                outcomes.append("down")

        env.process(worker(env, 5.0))
        env.process(worker(env, 5.0))
        env.run(until=1.0)
        killed = server.fail_all(ProcessorDown(0))
        env.run(until=20.0)
        assert killed == 2
        assert outcomes == ["down", "down"]

    def test_fail_all_credits_partial_service(self, env):
        server = Server(env)
        done = server.submit(10.0)
        done.defuse()
        env.run(until=4.0)
        server.fail_all(ProcessorDown(0))
        assert server.busy_time() == pytest.approx(4.0)

    def test_fail_all_on_idle_server_is_a_noop(self, env):
        server = Server(env)
        assert server.fail_all(ProcessorDown(0)) == 0


class TestProcessorFaultHooks:
    def test_crash_marks_down_and_kills_jobs(self, env):
        node = Processor(env, 0)
        node.io(5.0).defuse()
        node.compute(5.0).defuse()
        env.run(until=1.0)
        assert node.crash() == 2
        assert node.up is False

    def test_crash_is_idempotent(self, env):
        node = Processor(env, 0)
        node.crash()
        assert node.crash() == 0

    def test_down_node_fails_new_submissions(self, env):
        node = Processor(env, 0)
        node.crash()
        caught = []

        def worker(env):
            try:
                yield node.io(1.0)
            except ProcessorDown as down:
                caught.append(down.index)

        env.process(worker(env))
        env.run()
        assert caught == [0]

    def test_recover_restores_service(self, env):
        node = Processor(env, 0)
        node.crash()
        node.recover()
        assert node.up is True

        def worker(env):
            yield node.io(2.0)
            return env.now

        process = env.process(worker(env))
        assert env.run(until=process) == 2.0

    def test_exception_names_the_node(self):
        assert "3" in str(ProcessorDown(3))
        assert ProcessorDown(3).index == 3


class TestMachineFaultAccounting:
    def test_crash_recover_cycle_accumulates_downtime(self, env):
        machine = Machine(env, 4, lanes=False)
        env.run(until=10.0)
        machine.crash(1)
        env.run(until=25.0)
        machine.recover(1)
        assert machine.downtime(env.now) == pytest.approx(15.0)
        assert machine.down_count == 0

    def test_open_interval_counts_toward_downtime(self, env):
        machine = Machine(env, 2, lanes=False)
        env.run(until=5.0)
        machine.crash(0)
        env.run(until=12.0)
        assert machine.down_count == 1
        assert machine.downtime(env.now) == pytest.approx(7.0)

    def test_downtime_sums_over_nodes(self, env):
        machine = Machine(env, 4, lanes=False)
        machine.crash(0)
        machine.crash(1)
        env.run(until=10.0)
        assert machine.downtime(env.now) == pytest.approx(20.0)

    def test_degraded_time_is_wall_clock_not_per_node(self, env):
        machine = Machine(env, 4, lanes=False)
        machine.crash(0)
        machine.crash(1)
        env.run(until=10.0)
        machine.recover(0)
        env.run(until=16.0)
        machine.recover(1)
        assert machine.degraded_time(env.now) == pytest.approx(16.0)

    def test_crash_on_down_node_is_a_noop(self, env):
        machine = Machine(env, 2, lanes=False)
        machine.crash(0)
        assert machine.crash(0) == 0
        assert machine.down_count == 1

    def test_lock_overhead_divides_over_up_nodes_only(self, env):
        machine = Machine(env, 4, lanes=False)
        machine.crash(0)
        machine.crash(1)

        def requester(env):
            yield machine.lock_overhead(cpu_total=4.0, io_total=0.0)
            return env.now

        process = env.process(requester(env))
        # 4.0 of CPU over the 2 surviving nodes: 2.0 each, done at 2.0.
        assert env.run(until=process) == 2.0

    def test_lock_overhead_free_when_all_down(self, env):
        machine = Machine(env, 2, lanes=False)
        machine.crash(0)
        machine.crash(1)

        def requester(env):
            yield machine.lock_overhead(4.0, 4.0)
            return env.now

        process = env.process(requester(env))
        assert env.run(until=process) == 0.0

    def test_lock_scale_inflates_overhead(self, env):
        machine = Machine(env, 2)
        machine.set_lock_scale(3.0)

        def requester(env):
            yield machine.lock_overhead(cpu_total=2.0, io_total=0.0)
            return env.now

        process = env.process(requester(env))
        # (2.0 * 3) / 2 nodes = 3.0 per node.
        assert env.run(until=process) == 3.0

    def test_lock_scale_validation(self, env):
        machine = Machine(env, 2)
        with pytest.raises(ValueError):
            machine.set_lock_scale(0.0)


class TestLaneGuard:
    """A lane machine shares every lock job across all nodes, so faults
    that act on one node must not run on it silently."""

    def test_crash_raises_and_leaves_the_node_up(self, env):
        machine = Machine(env, 4)
        with pytest.raises(RuntimeError, match="lanes=False"):
            machine.crash(1)
        assert machine.down_count == 0
        assert machine[1].up

    def test_node_disk_scale_raises(self, env):
        machine = Machine(env, 4)
        with pytest.raises(RuntimeError, match="disk2"):
            machine[2].disk.set_scale(2.0)
        assert machine[2].disk.scale == 1.0

    def test_one_node_machine_needs_no_lane(self, env):
        machine = Machine(env, 1)
        machine[0].disk.set_scale(2.0)
        assert machine.crash(0) == 0
        assert machine.down_count == 1
