"""The multiprocessor: processor array plus shared lock work.

Lock management is split evenly over the nodes at preemptive priority
("processors share the work for [the] locking mechanism").  While every
node is up at nominal speed, each node sees the same stream of lock
shares, and a share queues only behind other shares, so one lock
*lane* per device — a CPU :class:`~repro.des.server.Lane` and a disk
lane whose busy periods pause every node's transaction work — is
exact: a lock request costs at most two lane jobs and one join.  Fault
plans that act on single nodes (crashes, disk slowdowns) make the
shares differ; their machine is built with ``lanes=False`` and charges
each up node its own share instead.  A one-node machine needs no lane:
its own servers serve the lock work.
"""

from repro.des.server import Lane
from repro.engine.processor import LOCK_TAG, TXN_TAG, Processor, submit_lock_work


class BusySnapshot:
    """Busy-time totals of the whole machine at one instant.

    Fields follow the paper's output-parameter names: ``totcpus`` /
    ``totios`` are total busy time summed over all CPUs / disks;
    ``lockcpus`` / ``lockios`` are the lock-management shares.
    """

    __slots__ = ("totcpus", "totios", "lockcpus", "lockios")

    def __init__(self, totcpus, totios, lockcpus, lockios):
        self.totcpus = totcpus
        self.totios = totios
        self.lockcpus = lockcpus
        self.lockios = lockios

    def minus(self, other):
        """Componentwise difference (for warmup-window accounting)."""
        return BusySnapshot(
            self.totcpus - other.totcpus,
            self.totios - other.totios,
            self.lockcpus - other.lockcpus,
            self.lockios - other.lockios,
        )


class Machine:
    """``npros`` shared-nothing processor nodes.

    Parameters
    ----------
    env:
        Owning environment.
    npros:
        Number of processor nodes.
    discipline:
        Queueing discipline for every CPU/disk server.
    lanes:
        Serve lock work through one lane per device (the default).
        ``False`` submits every up node's share to that node; crashes
        and per-node slowdowns need it, and raise on a lane machine.
    """

    def __init__(self, env, npros, discipline="fcfs", lanes=True):
        if npros < 1:
            raise ValueError("npros must be >= 1, got {}".format(npros))
        self.env = env
        self.npros = npros
        self.processors = [Processor(env, i, discipline) for i in range(npros)]
        #: (cpu lane, disk lane), or ``None`` for per-node lock work.
        self._lanes = None
        if lanes and npros > 1:
            self._lanes = (
                Lane(env, [p.cpu for p in self.processors], "cpu-lane", discipline),
                Lane(env, [p.disk for p in self.processors], "disk-lane", discipline),
            )
        self._down_count = 0
        self._downtime = 0.0
        self._down_since = {}
        self._degraded_time = 0.0
        self._degraded_since = None
        self._lock_scale = 1.0

    def __len__(self):
        return self.npros

    def __getitem__(self, index):
        return self.processors[index]

    # -- fault injection -------------------------------------------------

    @property
    def down_count(self):
        """Number of nodes currently down."""
        return self._down_count

    def crash(self, index):
        """Crash node *index*; returns the number of jobs killed there."""
        if self._lanes is not None:
            raise RuntimeError(
                "a crash splits lock work unevenly; build the machine with "
                "lanes=False to crash nodes"
            )
        proc = self.processors[index]
        if not proc.up:
            return 0
        killed = proc.crash()
        self._down_since[index] = self.env.now
        if self._down_count == 0:
            self._degraded_since = self.env.now
        self._down_count += 1
        return killed

    def recover(self, index):
        """Bring node *index* back up."""
        proc = self.processors[index]
        if proc.up:
            return
        proc.recover()
        self._downtime += self.env.now - self._down_since.pop(index)
        self._down_count -= 1
        if self._down_count == 0:
            self._degraded_time += self.env.now - self._degraded_since
            self._degraded_since = None

    def downtime(self, now):
        """Total node-downtime accumulated by *now*, open intervals included.

        Summed over nodes: two nodes down for 5 time units each
        contribute 10.
        """
        total = self._downtime
        for since in self._down_since.values():
            total += now - since
        return total

    def degraded_time(self, now):
        """Time with at least one node down, open interval included."""
        total = self._degraded_time
        if self._degraded_since is not None:
            total += now - self._degraded_since
        return total

    @property
    def lock_scale(self):
        """Current lock-manager service-time inflation (1.0 = nominal)."""
        return self._lock_scale

    def set_lock_scale(self, factor):
        """Inflate future lock-management demands by *factor* (a stall)."""
        if factor <= 0:
            raise ValueError("lock scale must be > 0, got {}".format(factor))
        self._lock_scale = float(factor)

    def lock_overhead(self, cpu_total, io_total):
        """Charge one lock request's total processing to the machine.

        The work is divided evenly across every *up* node ("processors
        share the work for [the] locking mechanism") at preemptive
        priority; the returned event fires when the slowest share
        completes.  With all nodes down the request costs nothing — the
        requesting transaction will fail on its own node's servers.
        On a lane machine the shares are one job per device lane.
        """
        if cpu_total <= 0 and io_total <= 0:
            return self.env.timeout(0)
        if self._lock_scale != 1.0:
            cpu_total *= self._lock_scale
            io_total *= self._lock_scale
        if self._lanes is not None:
            cpu, disk = self._lanes
            return submit_lock_work(
                self.env, cpu, disk, cpu_total / self.npros, io_total / self.npros
            )
        if self._down_count:
            nodes = [p for p in self.processors if p.up]
            if not nodes:
                return self.env.timeout(0)
        else:
            nodes = self.processors
        cpu_share = cpu_total / len(nodes)
        io_share = io_total / len(nodes)
        events = [p.lock_work(cpu_share, io_share) for p in nodes]
        if len(events) == 1:
            return events[0]
        return self.env.all_of(events)

    def busy_snapshot(self):
        """Current :class:`BusySnapshot` over all nodes."""
        totcpus = sum(p.cpu.busy_time() for p in self.processors)
        totios = sum(p.disk.busy_time() for p in self.processors)
        lockcpus = sum(p.cpu.busy_time(LOCK_TAG) for p in self.processors)
        lockios = sum(p.disk.busy_time(LOCK_TAG) for p in self.processors)
        return BusySnapshot(totcpus, totios, lockcpus, lockios)

    def txn_busy_totals(self):
        """(cpu, io) busy time spent on transaction work, all nodes."""
        cpu = sum(p.cpu.busy_time(TXN_TAG) for p in self.processors)
        io = sum(p.disk.busy_time(TXN_TAG) for p in self.processors)
        return cpu, io
