"""Declarative fault schedules.

A :class:`FaultPlan` is a frozen description of *what can go wrong*
during a run: processor crash/recovery cycles, transient disk
slowdowns, and lock-manager stalls.  It holds distribution parameters
only — actual fault times are drawn by the
:class:`~repro.faults.injector.FaultInjector` from its own named
random streams, so a plan is reusable across runs and two runs with
the same (plan, seed) produce identical fault schedules.

Plans are deliberately **not** part of
:class:`~repro.core.parameters.SimulationParameters`: the parameter
set feeds the content-addressed result cache, and faulted runs bypass
the cache entirely, so the unfaulted cache keys stay bit-identical.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class CrashSpec:
    """Repeated crash/recover cycles on processor nodes.

    Parameters
    ----------
    mttf:
        Mean time to failure — up-time between recovery and the next
        crash is exponential with this mean.
    mttr:
        Mean time to repair — down-time is exponential with this mean.
    processors:
        Node indices the spec applies to, or ``None`` for all nodes.
    first_failure_after:
        No crash from this spec fires before this simulation time
        (lets the run warm up before faults start).
    """

    mttf: float
    mttr: float
    processors: tuple = None
    first_failure_after: float = 0.0

    def __post_init__(self):
        if self.mttf <= 0 or self.mttr <= 0:
            raise ValueError(
                "mttf and mttr must be > 0, got mttf={} mttr={}".format(
                    self.mttf, self.mttr
                )
            )
        if self.processors is not None:
            object.__setattr__(self, "processors", tuple(self.processors))


@dataclass(frozen=True)
class SlowdownSpec:
    """Transient disk service-time inflation windows.

    Parameters
    ----------
    mtbf:
        Mean time between the end of one window and the start of the
        next (exponential).
    duration:
        Mean window length (exponential).
    factor:
        Service-time multiplier applied to disk jobs submitted inside
        a window (``> 1`` slows the disk down).
    processors:
        Node indices affected, or ``None`` for all nodes.
    """

    mtbf: float
    duration: float
    factor: float = 2.0
    processors: tuple = None

    def __post_init__(self):
        if self.mtbf <= 0 or self.duration <= 0:
            raise ValueError(
                "mtbf and duration must be > 0, got mtbf={} duration={}".format(
                    self.mtbf, self.duration
                )
            )
        if self.factor <= 0:
            raise ValueError("factor must be > 0, got {}".format(self.factor))
        if self.processors is not None:
            object.__setattr__(self, "processors", tuple(self.processors))


@dataclass(frozen=True)
class StallSpec:
    """Lock-manager stall windows: lock-overhead demands are inflated.

    Same timing law as :class:`SlowdownSpec` but applied to the
    machine-wide lock-management work instead of one node's disk.
    """

    mtbf: float
    duration: float
    factor: float = 4.0

    def __post_init__(self):
        if self.mtbf <= 0 or self.duration <= 0:
            raise ValueError(
                "mtbf and duration must be > 0, got mtbf={} duration={}".format(
                    self.mtbf, self.duration
                )
            )
        if self.factor <= 0:
            raise ValueError("factor must be > 0, got {}".format(self.factor))


@dataclass(frozen=True)
class PartitionSpec:
    """Repeated network partition windows over the cluster's sites.

    Parameters
    ----------
    mtbf:
        Mean time between the heal of one partition and the start of
        the next (exponential).
    duration:
        Mean partition length (exponential).
    groups:
        Explicit site groups (tuple of tuples of site ids) to split
        into, or ``None`` to draw a random two-way split from the
        partition's seeded stream each time the fault fires.
    first_after:
        No partition from this spec starts before this simulation time.

    Only meaningful for distributed runs (``nnodes > 1``); on a
    single-node model the injector skips the spec.
    """

    mtbf: float
    duration: float
    groups: tuple = None
    first_after: float = 0.0

    def __post_init__(self):
        if self.mtbf <= 0 or self.duration <= 0:
            raise ValueError(
                "mtbf and duration must be > 0, got mtbf={} duration={}".format(
                    self.mtbf, self.duration
                )
            )
        if self.groups is not None:
            groups = tuple(tuple(group) for group in self.groups)
            if len(groups) < 2 or any(not group for group in groups):
                raise ValueError(
                    "groups must be >= 2 non-empty site groups, got {!r}".format(
                        self.groups
                    )
                )
            object.__setattr__(self, "groups", groups)


@dataclass(frozen=True)
class LinkDelaySpec:
    """Transient extra one-way delay on cluster links.

    Parameters
    ----------
    mtbf:
        Mean time between the end of one window and the next
        (exponential).
    duration:
        Mean window length (exponential).
    extra:
        Extra one-way latency added to affected links inside a window.
    links:
        ``(a, b)`` site pairs affected, or ``None`` for every link.
    """

    mtbf: float
    duration: float
    extra: float = 0.5
    links: tuple = None

    def __post_init__(self):
        if self.mtbf <= 0 or self.duration <= 0:
            raise ValueError(
                "mtbf and duration must be > 0, got mtbf={} duration={}".format(
                    self.mtbf, self.duration
                )
            )
        if self.extra < 0:
            raise ValueError("extra must be >= 0, got {}".format(self.extra))
        if self.links is not None:
            object.__setattr__(
                self, "links", tuple(tuple(pair) for pair in self.links)
            )


@dataclass(frozen=True)
class FaultPlan:
    """The full fault schedule for one run.

    An empty plan (the default) is inert: the model never builds an
    injector for it, so results are bit-identical to a run with no
    plan at all.

    Parameters
    ----------
    crashes:
        :class:`CrashSpec` entries.
    disk_slowdowns:
        :class:`SlowdownSpec` entries.
    lock_stalls:
        :class:`StallSpec` entries.
    partitions:
        :class:`PartitionSpec` entries (distributed runs only).
    link_delays:
        :class:`LinkDelaySpec` entries (distributed runs only).
    seed:
        Optional dedicated fault seed; ``None`` derives the fault
        streams from the run's own seed.
    """

    crashes: tuple = field(default_factory=tuple)
    disk_slowdowns: tuple = field(default_factory=tuple)
    lock_stalls: tuple = field(default_factory=tuple)
    partitions: tuple = field(default_factory=tuple)
    link_delays: tuple = field(default_factory=tuple)
    seed: int = None

    def __post_init__(self):
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "disk_slowdowns", tuple(self.disk_slowdowns))
        object.__setattr__(self, "lock_stalls", tuple(self.lock_stalls))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "link_delays", tuple(self.link_delays))

    def acts_per_node(self):
        """True when a fault source hits single nodes (crashes, disk
        slowdowns), so the machine must charge lock work node by node."""
        return bool(self.crashes or self.disk_slowdowns)

    def enabled(self):
        """True when the plan schedules at least one fault source."""
        return bool(
            self.crashes
            or self.disk_slowdowns
            or self.lock_stalls
            or self.partitions
            or self.link_delays
        )

    def digest(self):
        """Stable hex digest of the whole schedule.

        Folded into the sweep id of journalled faulted sweeps, so a
        journal written under one plan can never be resumed under
        another.
        """
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
