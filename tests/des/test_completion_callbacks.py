"""Server completion callbacks (``submit(..., then=fn)``) and :class:`Join`.

A job submitted with ``then`` finishes through a bare callback instead
of a done event.  The callback must take the dispatch slot the done
event's trigger would have taken, so that switching a call site between
the two forms leaves every same-instant tie, and every result, as it
was.
"""

import pytest

from repro.des import Environment, Join, Server
from repro.des.events import NORMAL, URGENT
from repro.engine.processor import Processor, ProcessorDown


def _drive(use_then):
    """One scripted server run; returns its log and dispatch count.

    The script has preemptions, a zero-demand job, same-instant markers
    at both priorities, and a preemptor arriving at the very instant
    the job in service finishes (``_preempt``'s same-instant finish).
    """
    env = Environment()
    server = Server(env)
    log = []

    def note(name):
        log.append((env.now, name))

    def submit(name, demand, priority=1):
        if use_then:
            assert server.submit(demand, priority, "t", lambda: note(name)) is None
        else:
            done = server.submit(demand, priority, "t")
            done.callbacks.append(lambda _event: note(name))

    def marker(name, priority):
        env.schedule_callback(lambda: note(name), 0.0, priority)

    def at(when, *actions):
        def fire():
            for action in actions:
                action()
        env.schedule_callback(fire, when)

    at(0.0, lambda: submit("a", 3), lambda: submit("b", 2),
       lambda: marker("m0-normal", NORMAL))
    at(1.0, lambda: submit("hi", 1, priority=0),
       lambda: marker("m1-urgent", URGENT))
    at(2.0, lambda: submit("zero", 0), lambda: marker("m2-normal", NORMAL),
       lambda: marker("m2-urgent", URGENT))
    # "a" ran 0-1 and resumes 2-4; this preemptor lands at t=4 before
    # a's completion callback, which was scheduled later.
    at(4.0, lambda: submit("intruder", 1, priority=0),
       lambda: marker("m4-normal", NORMAL))
    at(4.0, lambda: submit("late", 0, priority=0))
    env.run()
    return log, env.events_dispatched


def test_callback_and_event_completions_take_the_same_slot():
    events_log, events_dispatched = _drive(use_then=False)
    callbacks_log, callbacks_dispatched = _drive(use_then=True)
    assert callbacks_log == events_log
    assert callbacks_dispatched == events_dispatched
    names = [name for _, name in callbacks_log]
    # The victim finishing at the preemption instant completes once,
    # at t=4, not behind the intruder.
    assert names.count("a") == 1
    assert (4.0, "a") in callbacks_log


def test_fail_all_delivers_the_exception_to_then(env):
    server = Server(env)
    outcomes = []
    for demand in (5, 2, 1):
        server.submit(demand, 1, "t", lambda error=None: outcomes.append(error))
    done = server.submit(1, 1, "t")
    done.defuse()
    env.run(until=1)
    crash = RuntimeError("down")
    assert server.fail_all(crash) == 4
    assert outcomes == []  # delivered by the kernel, not synchronously
    env.run()
    assert outcomes == [crash, crash, crash]
    assert not done.ok and done.value is crash
    assert server.busy_time("t") == pytest.approx(1)


def test_down_node_fails_then_with_processor_down(env):
    node = Processor(env, 2)
    node.crash()
    outcomes = []
    assert node.io(1.0, outcomes.append) is None
    assert node.compute(1.0, outcomes.append) is None
    env.run()
    assert [type(error) for error in outcomes] == [ProcessorDown, ProcessorDown]
    assert outcomes[0].index == 2


class TestJoin:
    def test_succeeds_after_exactly_count_reports(self, env):
        join = Join(env, 3)
        join.child()
        join.child()
        assert not join.triggered
        join.child()
        assert join.triggered
        env.run()
        assert join.ok

    def test_fails_once_on_the_first_error(self, env):
        join = Join(env, 3)
        first, second = ValueError("first"), ValueError("second")
        join.child()
        join.child(first)
        join.child(second)
        join.defuse()
        env.run()
        assert not join.ok
        assert join.value is first

    def test_ignores_reports_after_it_triggered(self, env):
        join = Join(env, 1)
        join.child()
        join.child()
        join.child(ValueError("late"))
        env.run()
        assert join.ok

    def test_wakes_a_waiting_process(self, env):
        join = Join(env, 2)
        env.schedule_callback(join.child, 1.0)
        env.schedule_callback(join.child, 3.0)

        def waiter(env):
            yield join
            return env.now

        assert env.run(until=env.process(waiter(env))) == 3.0

    def test_lock_work_on_both_devices_reports_into_one_join(self, env):
        node = Processor(env, 0)
        work = node.lock_work(cpu_demand=1.0, io_demand=4.0)
        assert isinstance(work, Join)
        env.run(until=work)
        assert env.now == 4.0
