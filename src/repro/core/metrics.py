"""Output-parameter accounting (the paper's output list, plus extras)."""

import math

from repro.des.monitor import Tally, TimeWeighted
from repro.engine.machine import BusySnapshot


def _percentiles(samples, fractions):
    """Nearest-rank percentiles (``nan`` when no samples).

    Uses the explicit nearest-rank formula ``rank = ceil(f * n)``
    (1-based, clamped to ``[1, n]``).  The obvious-looking
    ``int(round(f * last))`` is *not* equivalent: Python's ``round``
    is round-half-even (banker's rounding), which picks an
    off-by-one sample whenever ``f * last`` lands on ``.5`` — e.g. the
    median of four samples came out as ``ordered[2]`` instead of
    ``ordered[1]``.
    """
    if not samples:
        return [math.nan for _ in fractions]
    ordered = sorted(samples)
    n = len(ordered)
    return [
        ordered[min(n, max(1, math.ceil(f * n))) - 1] for f in fractions
    ]


class _ClassStats:
    """Per-transaction-class accumulator (multi-class runs only)."""

    __slots__ = ("name", "completions", "response", "attempts", "aborts")

    def __init__(self, name):
        self.name = name
        self.completions = 0
        self.response = Tally("response:" + name)
        self.attempts = Tally("attempts:" + name)
        self.aborts = 0


class MetricsCollector:
    """Collects everything a run reports.

    The paper's output parameters (``totcpus``, ``totios``,
    ``lockcpus``, ``lockios``, ``usefulcpus``, ``usefulios``,
    ``totcom``, ``throughput``, response time) are computed in
    :meth:`finalize`; on top of those the collector tracks lock
    request/denial counts, deadlock aborts, retry counts, and
    time-weighted pending/blocked/active populations.

    With a non-zero warmup the collector snapshots machine busy time at
    the warmup instant and discards completions and response samples
    observed before it.  (Live, unfiltered views of the run — the
    Prometheus instruments, the trace — subscribe to the model's emit
    stream instead; see :meth:`repro.core.model.LockingGranularityModel.emit`.)
    """

    def __init__(
        self,
        env,
        params,
        machine,
        conflicts=None,
        cluster=None,
        network=None,
    ):
        self.env = env
        self.params = params
        self.machine = machine
        self.conflicts = conflicts
        self.cluster = cluster
        self.network = network
        self.pending = TimeWeighted(env, name="pending")
        self.blocked = TimeWeighted(env, name="blocked")
        self.active = TimeWeighted(env, name="active")
        #: Locks concurrently held — the lock table's occupancy, i.e.
        #: the storage requirement the paper's introduction motivates.
        self.locks_held = TimeWeighted(env, name="locks_held")
        # Per-class breakdowns only exist for multi-class runs, so the
        # single-class result payload (and its cache digest) is
        # byte-identical to the historical format.
        mix = params.workload_mix
        self._class_names = mix.names if mix is not None else ()
        self._reset_outputs()
        self._warmup_busy = BusySnapshot(0.0, 0.0, 0.0, 0.0)
        self._warmup_downtime = 0.0
        self._warmup_degraded = 0.0
        self._warmup_partition = 0.0
        self._warmup_isolated = 0.0
        self._warmup_messages = (0, 0)
        self._measuring = params.warmup == 0.0
        if params.warmup > 0.0:
            env.process(self._begin_measurement())

    def _begin_measurement(self):
        yield self.params.warmup  # bare-delay sleep
        self._warmup_busy = self.machine.busy_snapshot()
        self._warmup_downtime = self.machine.downtime(self.env.now)
        self._warmup_degraded = self.machine.degraded_time(self.env.now)
        if self.cluster is not None:
            now = self.env.now
            self._warmup_partition = self.cluster.partition_time(now)
            self._warmup_isolated = self.cluster.isolated_site_time(now)
        if self.network is not None:
            self._warmup_messages = (
                self.network.messages_sent,
                self.network.messages_dropped,
            )
        self._reset_outputs()
        self._measuring = True

    def _reset_outputs(self):
        """Zero the warmup-gated outputs (at start and at the warmup)."""
        self.response = Tally("response")
        self.attempts = Tally("attempts")
        #: Per-completion response times in completion order; feed
        #: these to repro.stats.batch_means_ci for a single-run CI.
        self.response_samples = []
        self.completions = 0
        self.lock_requests = 0
        self.lock_denials = 0
        self.deadlock_aborts = 0
        self.failure_aborts = 0
        self.degraded_completions = 0
        self.commit_aborts = 0
        self.commit_latency = Tally("commit_latency")
        self.class_stats = {
            name: _ClassStats(name) for name in self._class_names
        }

    # -- event hooks -----------------------------------------------------

    def note_population(self):
        """Resample the active-transaction and held-lock populations."""
        conflicts = self.conflicts
        self.active.update(conflicts.active_count)
        self.locks_held.update(conflicts.locks_held)

    def note_request(self):
        """A lock request was issued (first attempt or retry)."""
        if self._measuring:
            self.lock_requests += 1

    def note_denial(self):
        """A lock request was denied."""
        if self._measuring:
            self.lock_denials += 1

    def note_abort(self, txn=None):
        """A transaction attempt was aborted on a conflict.

        The paper's ``deadlock_aborts`` output counts every conflict
        abort, whatever the protocol's reason; *txn* (when given and
        classed) additionally charges the abort to the transaction's
        class breakdown.
        """
        if self._measuring:
            self.deadlock_aborts += 1
            cls = getattr(txn, "class_name", None)
            if cls is not None and cls in self.class_stats:
                self.class_stats[cls].aborts += 1

    def note_failure_abort(self):
        """A transaction was aborted by a processor crash."""
        if self._measuring:
            self.failure_aborts += 1

    def note_commit_abort(self):
        """A distributed commit was presumed aborted (will retry)."""
        if self._measuring:
            self.commit_aborts += 1

    def note_commit_latency(self, latency):
        """A distributed commit decision landed after *latency*."""
        if self._measuring:
            self.commit_latency.observe(latency)

    def note_completion(self, txn):
        """A transaction finished and released its locks."""
        if not self._measuring:
            return
        cls = txn.class_name
        if cls is not None and cls in self.class_stats:
            stats = self.class_stats[cls]
            stats.completions += 1
            stats.response.observe(self.env.now - txn.arrival)
            stats.attempts.observe(txn.attempts)
        self.completions += 1
        if self.machine.down_count or (
            self.cluster is not None and self.cluster.partitioned
        ):
            # Committed while at least one node was down (or the
            # cluster was partitioned): this is the degraded-mode
            # share of the throughput.
            self.degraded_completions += 1
        response = self.env.now - txn.arrival
        self.response.observe(response)
        self.response_samples.append(response)
        self.attempts.observe(txn.attempts)

    # -- finalisation ------------------------------------------------------

    def finalize(self):
        """Compute the :class:`~repro.core.results.SimulationResult`."""
        from repro.core.results import SimulationResult

        params = self.params
        horizon = params.tmax - params.warmup
        busy = self.machine.busy_snapshot().minus(self._warmup_busy)
        percentiles = _percentiles(self.response_samples, (0.5, 0.95))
        npros = params.npros
        usefulcpus = (busy.totcpus - busy.lockcpus) / npros
        usefulios = (busy.totios - busy.lockios) / npros
        denial_rate = (
            self.lock_denials / self.lock_requests if self.lock_requests else 0.0
        )
        escalations = getattr(self.conflicts, "escalations", 0)
        now = self.env.now
        downtime = self.machine.downtime(now) - self._warmup_downtime
        degraded = self.machine.degraded_time(now) - self._warmup_degraded
        availability = 1.0 - downtime / (npros * horizon) if horizon else 1.0
        partition_time = 0.0
        messages_sent = 0
        messages_dropped = 0
        if self.cluster is not None:
            partition_time = (
                self.cluster.partition_time(now) - self._warmup_partition
            )
            isolated = (
                self.cluster.isolated_site_time(now) - self._warmup_isolated
            )
            if isolated > 0.0 and horizon:
                # A site outside the majority is capacity the partition
                # took away; fold it into availability the same way
                # processor downtime is.
                availability *= max(
                    0.0, 1.0 - isolated / (self.cluster.nnodes * horizon)
                )
            # Partitioned time is degraded-mode time even when every
            # processor stayed up.  Overlap between the two windows is
            # not subtracted (plans normally use one fault family).
            degraded += partition_time
        if self.network is not None:
            messages_sent = self.network.messages_sent - self._warmup_messages[0]
            messages_dropped = (
                self.network.messages_dropped - self._warmup_messages[1]
            )
        degraded_throughput = (
            self.degraded_completions / degraded if degraded > 0.0 else 0.0
        )
        per_class = tuple(
            {
                "txn_class": name,
                "totcom": stats.completions,
                "throughput": stats.completions / horizon,
                "response_time": stats.response.mean,
                "aborts": stats.aborts,
                "mean_attempts": stats.attempts.mean,
            }
            for name, stats in self.class_stats.items()
        )
        return SimulationResult(
            per_class=per_class,
            params=params,
            totcpus=busy.totcpus,
            totios=busy.totios,
            lockcpus=busy.lockcpus,
            lockios=busy.lockios,
            usefulcpus=usefulcpus,
            usefulios=usefulios,
            totcom=self.completions,
            throughput=self.completions / horizon,
            response_time=self.response.mean,
            response_p50=percentiles[0],
            response_p95=percentiles[1],
            cpu_utilization=busy.totcpus / (npros * horizon),
            io_utilization=busy.totios / (npros * horizon),
            lock_overhead=busy.lockcpus + busy.lockios,
            lock_requests=self.lock_requests,
            lock_denials=self.lock_denials,
            denial_rate=denial_rate,
            deadlock_aborts=self.deadlock_aborts,
            lock_escalations=escalations,
            mean_locks_held=self.locks_held.mean(),
            max_locks_held=self.locks_held.maximum,
            mean_attempts=self.attempts.mean,
            mean_pending=self.pending.mean(),
            mean_blocked=self.blocked.mean(),
            mean_active=self.active.mean(),
            failure_aborts=self.failure_aborts,
            availability=availability,
            degraded_throughput=degraded_throughput,
            commit_aborts=self.commit_aborts,
            commit_latency=(
                self.commit_latency.mean if self.commit_latency.count else 0.0
            ),
            messages_sent=messages_sent,
            messages_dropped=messages_dropped,
            partition_time=partition_time,
        )
