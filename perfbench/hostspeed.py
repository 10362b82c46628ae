"""A fixed pure-Python workload that measures how fast the host runs right now.

It touches no ``repro`` code, so no change to the program can move it:
a toy discrete-event loop (a heap-ordered event queue, generator
processes, small slotted objects, dict bookkeeping and float
arithmetic) with the same kind of work as the simulator's hot path.
On a shared machine the host's speed drifts by tens of percent over
minutes; the benchmark times this loop between its operations and
states its timings relative to it (see README.md).
"""

import gc
import heapq
from itertools import count
from time import perf_counter

_PROCESSES = 200
_EVENTS = 30_000

#: Median :func:`probe` time on the reference host (an idle 2-core
#: x86-64 VM, CPython 3.11).  Timings are reported in seconds of that
#: host: measured seconds x REFERENCE_S / measured probe seconds.
REFERENCE_S = 0.032


class _Job:
    __slots__ = ("demand", "owner", "seq")

    def __init__(self, demand, owner, seq):
        self.demand = demand
        self.owner = owner
        self.seq = seq


def _process(pid, busy):
    demand = 0.5 + (pid % 11) * 0.125
    while True:
        job = _Job(demand, pid, pid)
        busy[pid % 20] = busy.get(pid % 20, 0.0) + job.demand
        demand = (demand * 1.618) % 3.0 + 0.25
        yield job.demand


def probe():
    """Seconds to run the fixed loop once (a few tens of milliseconds).

    The garbage the caller left behind is collected first, untimed, and
    the loop runs with the collector off, so the caller's heap cannot
    move the timing.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        busy = {}
        seq = count()
        procs = [_process(pid, busy) for pid in range(_PROCESSES)]
        heap = [(next(proc), next(seq), pid) for pid, proc in enumerate(procs)]
        heapq.heapify(heap)
        for _ in range(_EVENTS):
            now, _, pid = heapq.heappop(heap)
            heapq.heappush(heap, (now + procs[pid].send(None), next(seq), pid))
        for proc in procs:
            proc.close()
        return perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


class Tracker:
    """Host-speed correction for a sequence of timed intervals.

    The probe runs before the first interval and after each one;
    :meth:`scale` turns the seconds an interval took into seconds on
    the reference host, using the mean of the probes on either side.
    """

    def __init__(self):
        self.probes = [probe()]

    def scale(self, seconds):
        self.probes.append(probe())
        return seconds * REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)
