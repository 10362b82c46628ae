"""A single service station with preemptive-resume priority service.

The paper's machine model charges lock-management work to the same CPU
and disk that serve transactions, *with preemptive power over running
transactions*, and reports the busy time split into lock overhead and
useful (transaction) work.  :class:`Server` provides exactly that:

* one unit of service capacity;
* jobs submitted with a numeric priority (lower number = more urgent);
* a higher-priority arrival preempts the job in service, which later
  resumes with its remaining demand (preemptive-resume);
* waiting jobs are ordered FCFS within a priority level (or
  shortest-remaining-first with the ``"sjf"`` discipline);
* busy time is accumulated per caller-supplied *tag*, so the model can
  separate ``"lock"`` from ``"txn"`` work on each device.

A :class:`Lane` serves work that a set of member servers would all do
in lockstep at top priority as one queue whose busy periods pause every
member; the members' busy-time and queue-length reads fold it in.
"""

import heapq
from collections import defaultdict
from functools import partial
from itertools import count

from repro.des.events import Event

#: Tolerance when deciding that a preempted job had actually finished.
_EPSILON = 1e-12

#: Supported queueing disciplines for waiting jobs.
DISCIPLINES = ("fcfs", "sjf")


class _Job:
    __slots__ = (
        "demand", "remaining", "priority", "tag", "seq", "done", "arrival",
        "key",
    )

    def __init__(self, demand, priority, tag, seq, done, arrival):
        self.demand = demand
        self.remaining = demand
        self.priority = priority
        self.tag = tag
        self.seq = seq
        self.done = done
        self.arrival = arrival
        # The FCFS ordering key never changes over the job's lifetime,
        # so it is built once here instead of on every heap push (a
        # preempted job re-enters the heap with the same key).  The
        # SJF key orders on the mutable ``remaining`` and must be
        # rebuilt per push.
        self.key = (priority, seq)


#: Stands in for the job in service while a lane holds a server: no
#: arrival outranks it, so every submission queues until the release.
_HELD = _Job(0.0, float("-inf"), None, -1, None, 0.0)


class Server:
    """A preemptive-resume priority queueing station of capacity one.

    Parameters
    ----------
    env:
        Owning environment.
    name:
        Label used in diagnostics.
    discipline:
        ``"fcfs"`` (default) or ``"sjf"`` (shortest remaining demand
        first, within a priority level).
    """

    def __init__(self, env, name="server", discipline="fcfs"):
        if discipline not in DISCIPLINES:
            raise ValueError(
                "unknown discipline {!r}; expected one of {}".format(
                    discipline, DISCIPLINES
                )
            )
        self.env = env
        self.name = name
        self.discipline = discipline
        # The discipline string is resolved to a key function once;
        # comparing it on every enqueue would put a string compare on
        # the submit/preempt hot path.
        self._key = self._sjf_key if discipline == "sjf" else self._fcfs_key
        self._heap = []
        self._seq = count()
        self._current = None
        self._segment_start = 0.0
        self._token = 0
        self._busy = defaultdict(float)
        self._served = defaultdict(int)
        self._demand_total = defaultdict(float)
        self._scale = 1.0
        #: The :class:`Lane` this server is a member of, if any.
        self._lane = None

    def __repr__(self):
        return "<Server {!r} queue={} busy={}>".format(
            self.name, len(self._heap), self._current is not None
        )

    # -- public API ------------------------------------------------------

    def submit(self, demand, priority=0, tag="default", then=None):
        """Request *demand* units of service; returns the done event.

        Parameters
        ----------
        demand:
            Non-negative service requirement in time units.
        priority:
            Lower numbers are served first and preempt higher numbers.
        tag:
            Accounting bucket for the busy time this job consumes.
        then:
            Completion callback used instead of a done event (``None``
            is returned): ``then()`` runs when the job finishes,
            ``then(exception)`` when :meth:`fail_all` kills it.  It
            takes the event id and priority the done event's trigger
            would have drawn, so both forms dispatch identically.
        """
        if demand < 0:
            raise ValueError("negative service demand {}".format(demand))
        if self._scale != 1.0:
            # Transient degradation window (fault injection): inflate
            # the service requirement of jobs submitted inside it.
            demand = demand * self._scale
        done = Event(self.env) if then is None else then
        job = _Job(demand, priority, tag, next(self._seq), done, self.env.now)
        self._demand_total[tag] += demand
        if self._current is None:
            self._start(job)
        elif job.priority < self._current.priority:
            self._preempt()
            self._start(job)
        else:
            heapq.heappush(self._heap, (self._key(job), job))
        return done if then is None else None

    @property
    def busy(self):
        """True while a job is in service."""
        return self._current is not None

    @property
    def queue_length(self):
        """Number of jobs waiting (not counting the one in service)."""
        if self._lane is not None:
            return len(self._heap) + len(self._lane._heap)
        return len(self._heap)

    def busy_time(self, tag=None):
        """Accumulated busy time, for one *tag* or in total.

        Includes the partially-delivered service of the job currently
        on the server, so snapshots taken mid-run are exact.  A lane
        member counts the lane's busy time as its own.
        """
        current = self._current
        start = self._segment_start
        if tag is None:
            total = sum(self._busy.values())
        else:
            total = self._busy.get(tag, 0.0)
        lane = self._lane
        if lane is not None:
            # The float order of a member that served the lane's jobs
            # itself: (own tags + lane tags) + the in-service partial.
            busy = lane._busy
            total += sum(busy.values()) if tag is None else busy.get(tag, 0.0)
            if current is _HELD:
                current, start = lane._current, lane._segment_start
        if current is not None and (tag is None or current.tag == tag):
            total += self.env.now - start
        return total

    def jobs_served(self, tag=None):
        """Number of completed jobs, for one *tag* or in total."""
        if tag is None:
            return sum(self._served.values())
        return self._served.get(tag, 0)

    def demand_submitted(self, tag=None):
        """Total service demand submitted, for one *tag* or in total."""
        if tag is None:
            return sum(self._demand_total.values())
        return self._demand_total.get(tag, 0.0)

    @property
    def scale(self):
        """Current service-time inflation factor (1.0 = nominal)."""
        return self._scale

    def set_scale(self, factor):
        """Set the inflation factor applied to future submissions.

        Only jobs submitted while the factor is in force are inflated;
        jobs already queued or in service keep their original demand.
        """
        if factor <= 0:
            raise ValueError("scale factor must be > 0, got {}".format(factor))
        if self._lane is not None:
            raise RuntimeError(
                "{} shares the lane {}: scaling one member would not scale "
                "its share of the lane's jobs".format(self.name, self._lane.name)
            )
        self._scale = float(factor)

    def hold(self):
        """Pause service for a lane busy period.

        The job in service is preempted exactly as a more urgent arrival
        would preempt it; until :meth:`release`, new submissions queue.
        """
        if self._current is not None:
            self._preempt()
        self._current = _HELD

    def release(self):
        """End a lane busy period: resume the most urgent waiting job."""
        self._current = None
        self._dispatch_next()

    def fail_all(self, exception):
        """Kill the job in service and every queued job (a crash).

        Each killed job's done event fails with *exception*, so waiting
        processes receive it at their yield point (a job submitted with
        ``then`` gets ``then(exception)`` instead).  Busy time already
        delivered to the in-service job stays credited (the device was
        genuinely busy until the instant of the crash).  Returns the
        number of jobs killed.
        """
        killed = 0
        if self._current is not None:
            job = self._current
            self._credit(job.tag, self.env.now - self._segment_start)
            self._token += 1  # invalidate the scheduled completion
            self._current = None
            self._kill(job, exception)
            killed += 1
        while self._heap:
            _, job = heapq.heappop(self._heap)
            self._kill(job, exception)
            killed += 1
        return killed

    # -- internals -------------------------------------------------------

    @staticmethod
    def _fcfs_key(job):
        return job.key

    @staticmethod
    def _sjf_key(job):
        return (job.priority, job.remaining, job.seq)

    def _start(self, job):
        self._current = job
        self._segment_start = self.env.now
        self._token += 1
        # Per-segment completions are the server's hottest allocation
        # site (every preemption reschedules one); a bare callback
        # puts a single closure on the heap instead of an Event and
        # its callback list.  The captured token keeps the
        # stale-completion guard: a preemption or crash bumps
        # self._token, and the out-of-date callback is ignored by
        # _on_complete when it eventually fires.
        self.env.schedule_callback(
            lambda t=self._token: self._on_complete(t), job.remaining
        )

    def _preempt(self):
        job = self._current
        elapsed = self.env.now - self._segment_start
        self._credit(job.tag, elapsed)
        job.remaining -= elapsed
        self._token += 1  # invalidate the scheduled completion
        self._current = None
        if job.remaining <= _EPSILON:
            # The job had in fact finished at this very instant; its
            # completion event lost the same-time race with the
            # preemptor.  Finish it now rather than re-queueing it.
            job.remaining = 0.0
            self._finish(job)
        else:
            heapq.heappush(self._heap, (self._key(job), job))

    def _on_complete(self, token):
        if token != self._token or self._current is None:
            return  # stale completion from before a preemption
        job = self._current
        self._credit(job.tag, self.env.now - self._segment_start)
        self._current = None
        self._finish(job)
        self._dispatch_next()

    def _finish(self, job):
        self._served[job.tag] = self._served.get(job.tag, 0) + 1
        done = job.done
        if done.__class__ is Event:
            done.succeed()
        else:
            self.env.schedule_callback(done)

    def _kill(self, job, exception):
        done = job.done
        if done.__class__ is Event:
            done.fail(exception)
        else:
            self.env.schedule_callback(partial(done, exception))

    def _dispatch_next(self):
        if self._current is None and self._heap:
            _, job = heapq.heappop(self._heap)
            self._start(job)

    def _credit(self, tag, amount):
        if amount > 0:
            self._busy[tag] = self._busy.get(tag, 0.0) + amount


class Lane(Server):
    """A server whose busy periods pause every member server.

    Jobs on the lane stand for work each member does in lockstep at a
    priority above all of its own jobs.  When each member would see the
    same stream of such jobs, and they queue only behind one another,
    one queue reproduces every member's busy periods: a lane busy
    period starts by holding every member (preempting its job in
    service) and ends by releasing them all.

    Parameters
    ----------
    env:
        Owning environment.
    members:
        The servers the lane's work runs on.
    name, discipline:
        As for :class:`Server`.
    """

    def __init__(self, env, members, name="lane", discipline="fcfs"):
        super().__init__(env, name, discipline)
        self.members = tuple(members)
        self._holding = False
        for server in self.members:
            server._lane = self

    def _start(self, job):
        if not self._holding:
            self._holding = True
            for server in self.members:
                server.hold()
        Server._start(self, job)

    def _dispatch_next(self):
        if self._heap:
            Server._dispatch_next(self)
        else:
            self._holding = False
            for server in self.members:
                server.release()
