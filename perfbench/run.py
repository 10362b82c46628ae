"""End-to-end and per-layer benchmark of the locking-granularity simulator.

    python3 perfbench/run.py --workload heavyload --seed 1 --seconds 25 --trace 0

Run from the repository root (or anywhere: paths resolve from this
file).  The load is a closed loop in one process: the next operation
starts when the previous one finished, with no worker pool.

``--trace 0`` times the workload and prints the end-to-end metrics
(``wall_s``, ``commits_per_s``, ``setup_s``, ``peak_rss_mb``).
``--trace 1`` is a separate run that prints the per-layer metrics: it
runs one cycle of the workload plain, one with spans around the layer
boundaries, one under a sampling profiler, and writes the spans to
``.perfbench_out/``.  Both check every simulated cell and end with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gc
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import measure  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    OutputCheck,
    load_reference,
    result_digest,
)

#: Fresh-interpreter set-ups timed per run (after one untimed warm-up
#: that also writes the byte-code caches).
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120

#: A timed run measures at least this many operations, and always whole
#: cycles of the workload's distinct operations, so every run weighs
#: each cell equally however fast the host is.
MIN_OPS = 3

#: The traced run repeats its sampled cycle until it has this many
#: profiler samples (or ran this many cycles).
MIN_SAMPLES = 1000
MAX_SAMPLED_CYCLES = 12


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def metric(value, unit):
    return {"value": value, "unit": unit}


def report(line=""):
    print(line, flush=True)


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self, workload, check):
        self.workload = workload
        self.check = check
        self.attempted = 0
        self.failed = 0
        #: Objects with start()/stop() that observe each operation
        #: (never the collection that precedes it).
        self.instruments = ()

    def run(self, state, index, workdir):
        """Run one operation; returns (wall seconds, OpOutput or None)."""
        gc.collect()
        for instrument in self.instruments:
            instrument.start()
        started = perf_counter()
        try:
            out = self.workload.run_op(state, index, workdir)
        except Exception:  # a raising or stalled operation fails all its cells
            wall = perf_counter() - started
            cells = self.workload.cells_per_op(state)
            self.attempted += cells
            self.failed += cells
            self.check.messages.append(traceback.format_exc(limit=3))
            return wall, None
        finally:
            for instrument in reversed(self.instruments):
                instrument.stop()
        wall = perf_counter() - started
        self.attempted += len(out.cells)
        self.failed += self.check.check(out.cells)
        if out.scratch is not None:
            shutil.rmtree(out.scratch, ignore_errors=True)
        return wall, out

    def result_line(self, metrics):
        for message in self.check.messages[:20]:
            report("FAILED " + message.rstrip())
        report("operations attempted {} failed {}".format(self.attempted, self.failed))
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            }
        )


def measure_setup(name, seed, workdir):
    """Set-up seconds of :data:`SETUP_PROBES` fresh interpreters, host-speed corrected."""
    times = []
    speed = hostspeed.Tracker()
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "setup_probe.py"),
                name,
                str(seed),
                os.path.join(workdir, "setup-{}".format(probe)),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        times.append(speed.scale(float(done.stdout.split()[-1])))
    return times[1:]


def describe(name, values, unit):
    """One report line: median, quartiles, tail and sample count."""
    q1, q2, q3 = measure.quartiles(values)
    line = "{:<14} median {:.4f} {}  q1 {:.4f}  q3 {:.4f}  n={}".format(
        name, q2, unit, q1, q3, len(values)
    )
    tail = measure.tail(values)
    if tail is not None:
        line += "  p{:g} {:.4f} ({} beyond)".format(tail[0], tail[1], tail[2])
    return line


def timed_run(workload, seed, seconds, workdir):
    setup = measure_setup(workload.name, seed, workdir)
    sys.path.insert(0, SRC)
    tally = Tally(workload, OutputCheck(workload, seed, load_reference()))
    state = workload.prepare(seed, workdir)
    raw, walls, rates = [], [], []
    cycle = workload.cycle_length(state)
    speed = hostspeed.Tracker()
    started = perf_counter()
    index = 0
    while index < MIN_OPS or index % cycle or perf_counter() - started < seconds:
        wall, out = tally.run(state, index, workdir)
        raw.append(wall)
        wall = speed.scale(wall)
        walls.append(wall)
        commits = 0 if out is None else sum(r.totcom for _, r in out.cells)
        rates.append(commits / wall)
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report("workload {} seed {}: {} operations in {:.1f} s".format(
        workload.name, seed, index, perf_counter() - started))
    report(describe("wall_s", walls, "s"))
    report(describe("commits_per_s", rates, "1/s"))
    report(describe("setup_s", setup, "s"))
    report(describe("raw wall_s", raw, "s"))
    report(describe("host probe", speed.probes, "s"))
    report("peak_rss_mb    {:.1f} MiB".format(peak_rss_mb))
    return tally.result_line(
        {
            "wall_s": metric(statistics.median(walls), "s"),
            "commits_per_s": metric(statistics.median(rates), "1/s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
        }
    )


def run_cycle(tally, state, first_index, workdir, speed):
    """One full cycle of the workload's distinct operations.

    Returns the cycle's measured seconds, the same corrected for host
    speed, and the operations' outputs.
    """
    outputs, raw, total = [], 0.0, 0.0
    for offset in range(tally.workload.cycle_length(state)):
        wall, out = tally.run(state, first_index + offset, workdir)
        raw += wall
        total += speed.scale(wall)
        if out is not None:
            outputs.append(out)
    return raw, total, outputs


def obs_overhead(seed, tally, speed):
    """Heavyload's first cell with a live MetricsRegistry vs without.

    Best of three corrected runs per side, the sides alternating, so a
    slow spell of the host does not land on one side only.
    """
    from repro.core.model import LockingGranularityModel
    from repro.obs.metrics import MetricsRegistry

    params = WORKLOADS["heavyload"].inputs(seed)[0]
    walls = {False: [], True: []}
    digests = set()
    for live in (False, True, True, False, False, True):
        registry = MetricsRegistry() if live else None
        gc.collect()
        started = perf_counter()
        result = LockingGranularityModel(params, metrics_registry=registry).run()
        walls[live].append(speed.scale(perf_counter() - started))
        digests.add(result_digest(result))
    tally.attempted += 6
    if len(digests) != 1:
        tally.failed += 6
        tally.check.messages.append("obs: results differ with a live MetricsRegistry")
    return min(walls[True]) / min(walls[False]) - 1.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def sim_metrics(cells, check):
    """Simulated-time statistics of one cycle's cells."""
    results = [r for _, r in cells]
    n = len(results)
    busy = sum(r.totcpus + r.totios for r in results)
    lock = sum(r.lockcpus + r.lockios for r in results)
    residuals = [
        abs(r.throughput * r.response_time - r.params.ntrans) / r.params.ntrans
        for r in results
    ]
    return {
        "sim.totcom": metric(sum(r.totcom for r in results), "count"),
        "sim.cpu_util": metric(sum(r.cpu_utilization for r in results) / n, "fraction"),
        "sim.io_util": metric(sum(r.io_utilization for r in results) / n, "fraction"),
        "sim.lock_work_frac": metric(ratio(lock, busy), "fraction"),
        "sim.denial_rate": metric(
            ratio(sum(r.lock_denials for r in results), sum(r.lock_requests for r in results)),
            "fraction",
        ),
        "sim.mean_blocked": metric(sum(r.mean_blocked for r in results) / n, "txns"),
        "sim.little_residual": metric(sum(residuals) / n, "fraction"),
        "sim.identical": metric(check.identical, "flag"),
    }


def traced_run(workload, seed, seconds, workdir):
    """Per-layer metrics; its length is set by the workload's cycle, not *seconds*."""
    from tracing import SHARE_PREFIX, GcMonitor, LayerSampler, SpanRecorder

    sys.path.insert(0, SRC)
    check = OutputCheck(workload, seed, load_reference())
    tally = Tally(workload, check)
    state = workload.prepare(seed, workdir)
    cycle = workload.cycle_length(state)
    # One untimed operation first: the first in a process pays one-off
    # imports and allocations that the cycles below must not see.
    tally.run(state, -1, workdir)
    speed = hostspeed.Tracker()

    gc_monitor = GcMonitor()
    tally.instruments = (gc_monitor,)
    plain_raw_s, plain_s, plain = run_cycle(tally, state, 0, workdir, speed)

    recorder = SpanRecorder()
    tally.instruments = (recorder,)
    _, spanned_s, _ = run_cycle(tally, state, cycle, workdir, speed)

    # Samples inside a collection are recognised by the GcMonitor
    # callback frame, so one runs beside the sampler.
    sampler = LayerSampler(SRC)
    tally.instruments = (GcMonitor(), sampler)
    first = 2 * cycle
    while True:
        run_cycle(tally, state, first, workdir, speed)
        first += cycle
        if sum(sampler.counts.values()) >= MIN_SAMPLES or first >= MAX_SAMPLED_CYCLES * cycle:
            break
    tally.instruments = ()

    obs_frac = obs_overhead(seed, tally, speed)

    cells = [cell for out in plain for cell in out.cells]
    counts = recorder.counts
    spans = recorder.spans()
    by_name = measure.self_time_by_name(spans)
    totcom = sum(r.totcom for _, r in cells)
    events = counts.get("des.events", 0)
    lock_jobs = counts.get("server.lock_jobs", 0)
    lock_calls = counts.get("engine.lock_overhead", 0)
    requests = counts.get("conflict.request", 0)
    acquires = counts.get("lockmgr.acquire", 0)
    cell_seconds = [s for out in plain if out.cell_seconds for s in out.cell_seconds]
    tail = measure.tail(cell_seconds) if cell_seconds else None
    attempts = sum(r.mean_attempts * r.totcom for _, r in cells)

    metrics = {
        "des.events": metric(events, "count"),
        "des.events_per_commit": metric(ratio(events, totcom), "events/commit"),
        "des.events_per_s": metric(ratio(events, plain_s), "1/s"),
        "des.processes": metric(counts.get("des.process", 0), "count"),
        "des.conditions": metric(counts.get("des.all_of", 0), "count"),
        "server.jobs": metric(counts.get("server.submit", 0), "count"),
        "server.lock_jobs": metric(lock_jobs, "count"),
        "server.lock_jobs_per_event": metric(ratio(lock_jobs, events), "fraction"),
        "engine.lock_calls": metric(lock_calls, "count"),
        "engine.jobs_per_lock_call": metric(ratio(lock_jobs, lock_calls), "jobs/call"),
        "conflict.requests": metric(requests, "count"),
        "conflict.grant_ratio": metric(ratio(counts.get("conflict.grants", 0), requests), "fraction"),
        "lockmgr.acquires": metric(acquires, "count"),
        "lockmgr.queued_ratio": metric(ratio(counts.get("lockmgr.queued", 0), acquires), "fraction"),
        "lockmgr.deadlock_scans": metric(counts.get("lockmgr.resolve_once", 0), "count"),
        "cc.attempts_per_commit": metric(ratio(attempts, totcom), "attempts/commit"),
        "gc.s": metric(gc_monitor.seconds, "s"),
        "gc.share": metric(ratio(gc_monitor.seconds, plain_raw_s), "fraction"),
        "gc.gen2_collections": metric(gc_monitor.collections[2], "count"),
        "harness.cells": metric(len(cell_seconds), "count"),
        "harness.cell_s_p50": metric(statistics.median(cell_seconds) if cell_seconds else 0.0, "s"),
        "harness.cell_s_tail": metric(tail[1] if tail else 0.0, "s"),
        "harness.cell_s_tail_pct": metric(tail[0] if tail else 0.0, "percentile"),
        "cache.puts": metric(counts.get("cache.put", 0), "count"),
        "cache.put_s": metric(by_name.get("cache.put", (0, 0.0, 0.0))[1], "s"),
        "obs.overhead_frac": metric(obs_frac, "fraction"),
        "trace.overhead_frac": metric(spanned_s / plain_s - 1.0, "fraction"),
        "trace.spans": metric(len(spans), "count"),
        "trace.samples": metric(sum(sampler.counts.values()), "count"),
    }
    for bucket, share in sampler.shares().items():
        metrics[SHARE_PREFIX[bucket] + ".self_share"] = metric(share, "fraction")
    metrics.update(sim_metrics(cells, check))

    path = write_trace(workload.name, seed, recorder, by_name, sampler, metrics)
    report("workload {} seed {}: traced, {} ops per cycle; spans in {}".format(
        workload.name, seed, cycle, os.path.relpath(path, ROOT)))
    report("{:<26} {:>9} {:>11} {:>11}".format("span", "calls", "total_s", "self_s"))
    for name, (calls, total, own) in sorted(by_name.items()):
        report("{:<26} {:>9} {:>11.4f} {:>11.4f}".format(name, calls, total, own))
    for name, entry in metrics.items():
        report("{:<28} {:.6g} {}".format(name, entry["value"], entry["unit"]))
    return tally.result_line(metrics)


def write_trace(name, seed, recorder, by_name, sampler, metrics):
    """Spans, span self times, samples and metrics, gzipped JSON."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-{}-seed{}.json.gz".format(name, seed))
    document = {
        "span_names": recorder.names,
        "spans": {
            "name": list(recorder.name_ids),
            "parent": list(recorder.parents),
            "start": list(recorder.starts),
            "end": list(recorder.ends),
        },
        "spans_dropped": recorder.dropped,
        "span_self_time": {
            n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in by_name.items()
        },
        "counts": recorder.counts,
        "samples": sampler.counts,
        "metrics": metrics,
    }
    with gzip.open(path, "wt", compresslevel=1) as handle:
        json.dump(document, handle)
    return path


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no program to benchmark: {} is missing".format(
            os.path.join("src", "repro")), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, "work-{}".format(os.getpid()))
    os.makedirs(workdir)
    try:
        run = traced_run if args.trace else timed_run
        line = run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
