"""Offline analysis of telemetry files: the ``repro report`` verb.

Turns a :class:`~repro.obs.sinks.TraceFile` into the quantities a
granularity analyst actually asks about — who blocked whom, which
granules are hot, how utilisation and the blocked population evolved —
as text (with unicode sparkline timelines) and, via
:mod:`repro.experiments.svg`, as SVG charts.
"""

import math
from collections import Counter

from repro.experiments.svg import SvgChart
from repro.obs.metrics import LockWaits

#: Sparkline glyphs, lowest to highest.
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values, lo=None, hi=None):
    """Render *values* as a unicode sparkline string."""
    values = list(values)
    if not values:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = hi - lo
    if span <= 0:
        return _SPARK[0] * len(values)
    top = len(_SPARK) - 1
    return "".join(
        _SPARK[min(top, int((value - lo) / span * top))] for value in values
    )


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def summarize_trace(tracefile, top=10):
    """Aggregate a telemetry file into a report-friendly dict.

    Keys: ``events``, ``counts`` (kind → n), ``completions``,
    ``mean_response``, ``max_response``, ``retries`` (lock requests
    beyond a transaction's first), ``aborts``, ``top_blockers``
    (transactions most often named as the blocker of a denied or
    queued request), ``hot_granules`` (granules most often waited on;
    empty for the probabilistic engine, which has no granule
    identity), ``samples``.
    """
    counts = Counter(record.kind for record in tracefile.records)
    blockers = Counter()
    granules = Counter()
    responses = []
    retries = 0
    for record in tracefile.records:
        details = record.details
        if record.kind in ("lock_deny", "block"):
            blocker = details.get("blocker")
            if blocker is not None:
                blockers[blocker] += 1
            granule = details.get("granule")
            if granule is not None:
                granules[granule] += 1
        elif record.kind == "complete":
            response = details.get("response")
            if response is not None:
                responses.append(response)
        elif record.kind == "lock_request" and details.get("attempt", 1) > 1:
            retries += 1
    return {
        "events": len(tracefile.records),
        "counts": dict(counts),
        "completions": counts.get("complete", 0),
        "mean_response": _mean(responses) if responses else None,
        "max_response": max(responses) if responses else None,
        "retries": retries,
        "aborts": counts.get("abort", 0),
        "top_blockers": blockers.most_common(top),
        "hot_granules": granules.most_common(top),
        "samples": len(tracefile.samples),
    }


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def contention_diagnosis(tracefile, top=5, max_chain=8):
    """Diagnose *why* a run was slow from its lifecycle trace.

    Pairs every ``block`` with the same transaction's next resumption
    (``wake`` for preclaim, ``lock_promote`` for the table-backed
    protocols, ``abort`` when the waiter was killed instead) into wait
    episodes — through :class:`~repro.obs.metrics.LockWaits`, the same
    pairing the live ``repro_lock_wait_time`` family uses — then
    aggregates three views:

    ``granule_waits``
        Per-granule wait-time percentiles (nearest-rank p50/p95),
        sorted hottest-first, at most *top* granules.  Empty for the
        probabilistic engine and for preclaim, whose waits have no
        granule identity — those runs still populate ``wait_times``.
    ``abort_causes``
        ``abort`` events bucketed by their ``reason`` detail
        (``deadlock``, ``wounded``, ``denied``, fault retries...).
    ``chains``
        The longest blocking chains, reconstructed by following each
        transaction's most-frequent named blocker (``block`` /
        ``lock_deny`` details) transitively, cycle-safe and capped at
        *max_chain* hops.  A chain ``[7, 3, 1]`` reads "7 waited on 3,
        which waited on 1".
    """
    pairing = LockWaits()
    episodes = []  # (wait, granule-or-None)
    abort_causes = Counter()
    edges = {}  # waiter tid -> Counter of blocker tids
    for record in tracefile.records:
        kind, tid, details = record.kind, record.subject, record.details
        episode = pairing.feed(record.time, kind, tid, details)
        if episode is not None:
            episodes.append(episode)
        if kind in ("block", "lock_deny"):
            blocker = details.get("blocker")
            if blocker is not None:
                edges.setdefault(tid, Counter())[blocker] += 1
        elif kind == "abort":
            abort_causes[details.get("reason", "unknown")] += 1

    by_granule = {}
    for wait, granule in episodes:
        if granule is not None:
            by_granule.setdefault(granule, []).append(wait)
    granule_waits = []
    for granule, waits in by_granule.items():
        waits.sort()
        granule_waits.append({
            "granule": granule,
            "waits": len(waits),
            "total_wait": sum(waits),
            "p50": _percentile(waits, 0.50),
            "p95": _percentile(waits, 0.95),
            "max": waits[-1],
        })
    granule_waits.sort(key=lambda row: -row["total_wait"])

    # Blocking chains: follow each waiter's dominant blocker edge.
    chains = []
    for start in edges:
        chain = [start]
        seen = {start}
        while chain[-1] in edges and len(chain) < max_chain:
            nxt = edges[chain[-1]].most_common(1)[0][0]
            if nxt in seen:
                break  # cycle (deadlock candidate) — stop, don't loop
            chain.append(nxt)
            seen.add(nxt)
        chains.append(chain)
    chains.sort(key=len, reverse=True)
    # Drop chains that are strict prefixes/suffixes of a longer one.
    kept = []
    for chain in chains:
        if not any(set(chain) <= set(other) for other in kept):
            kept.append(chain)

    all_waits = sorted(wait for wait, _granule in episodes)
    return {
        "wait_episodes": len(all_waits),
        "wait_times": {
            "total": sum(all_waits),
            "p50": _percentile(all_waits, 0.50),
            "p95": _percentile(all_waits, 0.95),
            "max": all_waits[-1] if all_waits else None,
        },
        "granule_waits": granule_waits[:top],
        "abort_causes": dict(abort_causes),
        "chains": kept[:top],
        "longest_chain": len(kept[0]) if kept else 0,
    }


def format_diagnosis(diagnosis):
    """Text rendering of a :func:`contention_diagnosis` dict."""
    lines = ["Contention diagnosis:"]
    episodes = diagnosis["wait_episodes"]
    if not episodes:
        lines.append("  no lock waits recorded — the run was conflict-free")
        return "\n".join(lines)
    times = diagnosis["wait_times"]
    lines.append(
        "  lock waits: {}   total {:.4g}   p50 {:.4g}   p95 {:.4g}   "
        "max {:.4g}".format(
            episodes, times["total"], times["p50"], times["p95"], times["max"]
        )
    )
    if diagnosis["granule_waits"]:
        lines.append("  hottest granules by time spent waiting:")
        for row in diagnosis["granule_waits"]:
            lines.append(
                "    granule {:<6} {:3d} waits  total {:>8.4g}  "
                "p50 {:>8.4g}  p95 {:>8.4g}".format(
                    row["granule"], row["waits"], row["total_wait"],
                    row["p50"], row["p95"],
                )
            )
    if diagnosis["abort_causes"]:
        lines.append(
            "  aborts by cause: "
            + "  ".join(
                "{}={}".format(cause, count)
                for cause, count in sorted(diagnosis["abort_causes"].items())
            )
        )
    if diagnosis["longest_chain"] > 1:
        lines.append("  longest blocking chains (waiter -> ... -> holder):")
        for chain in diagnosis["chains"]:
            if len(chain) < 2:
                continue
            lines.append(
                "    " + " -> ".join("txn#{}".format(tid) for tid in chain)
            )
    return "\n".join(lines)


def report_json(tracefile, top=10):
    """The full report as one JSON-serialisable document.

    This is the machine-readable twin of :func:`format_report` —
    ``repro-locking report --json`` emits it, and the metrics
    exporters reuse the same shape for their snapshot context.
    """
    summary = summarize_trace(tracefile, top=top)
    return {
        "header": dict(tracefile.header),
        "summary": summary,
        "diagnosis": contention_diagnosis(tracefile, top=top),
        "timeline": {
            "samples": len(tracefile.samples),
            "t_first": tracefile.samples[0]["t"] if tracefile.samples else None,
            "t_last": tracefile.samples[-1]["t"] if tracefile.samples else None,
        },
    }


def _timeline_rows(samples):
    """(label, values) pairs for the timeline signals of *samples*."""
    return [
        ("cpu util", [_mean(s.get("cpu_util", ())) for s in samples]),
        ("disk util", [_mean(s.get("disk_util", ())) for s in samples]),
        ("blocked", [s.get("blocked", 0) for s in samples]),
        ("active", [s.get("active", 0) for s in samples]),
        ("locks held", [s.get("locks_held", 0) for s in samples]),
    ]


def format_timeline(samples, width=60):
    """Text sparkline timeline of the sampled signals."""
    if not samples:
        return "(no time-series samples in this telemetry file)"
    # Down-sample to at most *width* points by striding.
    stride = max(1, len(samples) // width)
    windowed = samples[::stride]
    lines = [
        "Utilisation timeline ({} samples, t={:g}..{:g}):".format(
            len(samples), samples[0]["t"], samples[-1]["t"]
        )
    ]
    for label, values in _timeline_rows(windowed):
        lo, hi = min(values), max(values)
        lines.append(
            "  {:<10s} {}  [{:.3g} .. {:.3g}]".format(
                label, sparkline(values), lo, hi
            )
        )
    return "\n".join(lines)


def format_report(tracefile, top=10):
    """The full text report for one telemetry file."""
    summary = summarize_trace(tracefile, top=top)
    header = tracefile.header
    lines = ["Telemetry report"]
    if header.get("params"):
        params = header["params"]
        lines.append(
            "  run: ltot={} npros={} ntrans={} seed={} "
            "engine={} protocol={}".format(
                params.get("ltot"), params.get("npros"),
                params.get("ntrans"), params.get("seed"),
                params.get("conflict_engine"), params.get("protocol"),
            )
        )
    lines.append("  events: {}".format(summary["events"]))
    lines.append(
        "  completions: {}   retries: {}   aborts: {}".format(
            summary["completions"], summary["retries"], summary["aborts"]
        )
    )
    if summary["mean_response"] is not None:
        lines.append(
            "  response: mean {:.4g}, max {:.4g}".format(
                summary["mean_response"], summary["max_response"]
            )
        )
    lines.append("  events by kind:")
    for kind in sorted(summary["counts"]):
        lines.append("    {:<14s} {}".format(kind, summary["counts"][kind]))
    if summary["top_blockers"]:
        lines.append("  top blockers (txn: times blocking others):")
        for tid, count in summary["top_blockers"]:
            lines.append("    txn#{:<8d} {}".format(tid, count))
    if summary["hot_granules"]:
        lines.append("  lock hot-spots (granule: waits):")
        for granule, count in summary["hot_granules"]:
            lines.append("    granule {:<6} {}".format(granule, count))
    lines.append("")
    lines.append(format_diagnosis(contention_diagnosis(tracefile, top=top)))
    lines.append("")
    lines.append(format_timeline(tracefile.samples))
    return "\n".join(lines)


def timeline_chart(tracefile, title=None):
    """An :class:`SvgChart` of the sampled utilisation timeline."""
    chart = SvgChart(
        title or "Utilisation timeline",
        x_label="simulated time",
        y_label="utilisation / population",
        log_x=False,
    )
    samples = tracefile.samples
    times = [s["t"] for s in samples]
    for label, values in _timeline_rows(samples):
        chart.add_series(label, list(zip(times, values)))
    return chart


def save_report_chart(tracefile, path, title=None):
    """Write the utilisation timeline SVG to *path*; returns the path."""
    return timeline_chart(tracefile, title=title).save(path)
