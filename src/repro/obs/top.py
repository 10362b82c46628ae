"""``repro-locking top``: a live terminal dashboard for running sweeps.

The monitor is a pure *reader*: it tails the sweep's crash-safe
journal (cells done / pruned / pending, through the same
:func:`~repro.experiments.journal.read_journal` that resume uses) and,
when present, the periodic metrics snapshot file written next to it
(``<journal>.metrics.json`` by default) for the live counters — events
dispatched, worker occupancy, queue depth, lock-wait quantiles, top
contended granules, abort causes.  It never touches the sweep process,
so attaching or detaching it is always safe.

Rendering is split from looping for testability:
:func:`render_frame` is a pure function of ``(journal state, snapshot
state, derived rates)`` returning the frame string; :func:`run_top`
owns the refresh loop, the ANSI clear-and-home redraw and the
rate/ETA estimation.
"""

import math
from time import sleep
from time import time as wall_time

from repro.obs.exporters import read_snapshot

#: Clear screen + cursor home (ANSI); used when refreshing in place.
_CLEAR = "\x1b[2J\x1b[H"

#: Exponential smoothing factor for the cells/second rate estimate.
_RATE_ALPHA = 0.3


def default_snapshot_path(journal_path):
    """Where a metrics-enabled sweep writes snapshots for this journal."""
    return "{}.metrics.json".format(journal_path)


# -- snapshot accessors --------------------------------------------------


def _series_value(metrics, name, labels=None):
    """A counter/gauge sample from a snapshot dict, or ``None``."""
    doc = (metrics or {}).get(name)
    if doc is None:
        return None
    for entry in doc.get("series", ()):
        if labels is None or entry.get("labels") == list(labels):
            return entry.get("value")
    return None


def _label_totals(metrics, name, label_index=0):
    """Sum a labelled counter family by one label position."""
    doc = (metrics or {}).get(name)
    totals = {}
    if doc is None:
        return totals
    for entry in doc.get("series", ()):
        labels = entry.get("labels", ())
        key = labels[label_index] if len(labels) > label_index else ""
        totals[key] = totals.get(key, 0) + entry.get("value", 0)
    return totals


def _wait_quantiles(metrics):
    """(count, p50, p95) of the merged lock-wait histogram, or None."""
    doc = (metrics or {}).get("repro_lock_wait_time")
    if doc is None:
        return None
    edges = doc.get("buckets", ())
    counts = None
    total_sum = 0.0
    total_count = 0
    for entry in doc.get("series", ()):
        series_counts = entry.get("counts", ())
        if counts is None:
            counts = list(series_counts)
        else:
            for i, c in enumerate(series_counts[: len(counts)]):
                counts[i] += c
        total_sum += entry.get("sum", 0.0)
        total_count += entry.get("count", 0)
    if not total_count or counts is None:
        return None
    from repro.obs.metrics import HistogramSeries

    merged = HistogramSeries(tuple(edges))
    merged.merge(counts, total_sum, total_count)
    return total_count, merged.quantile(0.5), merged.quantile(0.95)


def _bar(fraction, width=30):
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _fmt_eta(seconds):
    if seconds is None or not math.isfinite(seconds):
        return "--"
    seconds = int(seconds)
    if seconds >= 3600:
        return "{}h{:02d}m".format(seconds // 3600, seconds % 3600 // 60)
    if seconds >= 60:
        return "{}m{:02d}s".format(seconds // 60, seconds % 60)
    return "{}s".format(seconds)


def render_frame(
    journal,
    metrics=None,
    rate=None,
    events_per_second=None,
    snapshot_age=None,
    top_granules=5,
):
    """One dashboard frame as a plain string (no ANSI, pure function).

    Parameters
    ----------
    journal:
        A :func:`repro.experiments.journal.read_journal` state.
    metrics:
        The ``metrics`` mapping of a snapshot document (or ``None``
        when the sweep runs without ``--metrics``).
    rate:
        Smoothed cells/second estimate (drives the ETA line).
    events_per_second:
        Kernel event throughput derived from successive snapshots.
    snapshot_age:
        Wall seconds since the snapshot file changed (staleness tag).
    """
    lines = []
    label = journal.get("label") or "sweep"
    sweep = journal.get("sweep")
    title = "repro-locking top — {}".format(label)
    if sweep:
        title += "  (sweep {})".format(sweep[:8])
    lines.append(title)

    cells = journal.get("cells")
    done = len(journal.get("done", ()))
    analytic = journal.get("analytic", 0)
    if cells:
        pending = max(0, cells - done)
        fraction = done / cells
        eta = None
        if journal.get("finished"):
            eta = 0.0
        elif rate:
            eta = pending / rate
        lines.append(
            "cells  {} {:>4d}/{:<4d} ({:.0%})  pruned {}  pending {}  "
            "ETA {}".format(
                _bar(fraction), done, cells, fraction, analytic, pending,
                _fmt_eta(eta),
            )
        )
    else:
        lines.append("cells  (no journal header yet — is the sweep running?)")
    if journal.get("finished"):
        lines.append("state  FINISHED (clean journal footer present)")

    if metrics is None:
        lines.append("metrics  (no snapshot file — run with --metrics)")
        return "\n".join(lines) + "\n"

    stale = ""
    if snapshot_age is not None and snapshot_age > 5.0:
        stale = "  [snapshot {}s old]".format(int(snapshot_age))
    occupancy = _series_value(metrics, "repro_sweep_occupancy", ())
    workers = _series_value(metrics, "repro_sweep_workers", ())
    queue_depth = _series_value(metrics, "repro_sweep_queue_depth", ())
    parts = []
    if events_per_second is not None:
        parts.append("{:,.0f} ev/s".format(events_per_second))
    if workers:
        parts.append("{:.0f} workers".format(workers))
    if occupancy is not None:
        parts.append("occupancy {:.0%}".format(occupancy))
    if queue_depth is not None:
        parts.append("queue {:.0f}".format(queue_depth))
    if parts:
        lines.append("sweep  " + "   ".join(parts) + stale)

    commits = _series_value(metrics, "repro_txn_commits_total", ())
    aborts = _label_totals(metrics, "repro_txn_aborts_total")
    if commits is not None:
        abort_text = (
            "  aborts " + " ".join(
                "{}={:.0f}".format(cause, n)
                for cause, n in sorted(aborts.items())
            )
            if aborts
            else ""
        )
        lines.append("txns   {:,.0f} commits{}".format(commits, abort_text))

    waits = _wait_quantiles(metrics)
    if waits is not None:
        count, p50, p95 = waits
        lines.append(
            "waits  {:,d} lock waits   p50 ~{:g}   p95 ~{:g} "
            "(sim time, bucket upper bounds)".format(count, p50, p95)
        )

    granules = _label_totals(metrics, "repro_granule_waits_total")
    granules.pop("_other", None)
    if granules:
        hottest = sorted(
            granules.items(), key=lambda kv: -kv[1]
        )[:top_granules]
        lines.append(
            "hot    " + "  ".join(
                "g{}:{:.0f}".format(granule, n) for granule, n in hottest
            )
        )
    return "\n".join(lines) + "\n"


class TopMonitor:
    """Stateful rate/ETA estimation across frames of one journal."""

    def __init__(self, journal_path, snapshot_path=None):
        self.journal_path = str(journal_path)
        self.snapshot_path = (
            str(snapshot_path)
            if snapshot_path is not None
            else default_snapshot_path(journal_path)
        )
        self._last_done = None
        self._last_time = None
        self._last_events = None
        self._rate = None
        self._events_per_second = None

    def frame(self, now=None):
        """Read journal + snapshot and render the current frame."""
        # Lazy: importing the experiments package loads the sweep
        # harness, which ``import repro.obs`` must not pull in.
        from repro.experiments.journal import read_journal

        now = wall_time() if now is None else now
        journal = read_journal(self.journal_path)
        document = read_snapshot(self.snapshot_path)
        metrics = document.get("metrics") if document else None

        done = len(journal["done"])
        if self._last_time is not None and now > self._last_time:
            delta = now - self._last_time
            instant = max(0, done - (self._last_done or 0)) / delta
            self._rate = (
                instant
                if self._rate is None
                else _RATE_ALPHA * instant + (1 - _RATE_ALPHA) * self._rate
            )
            events = _series_value(metrics, "repro_kernel_events_total", ())
            if events is not None and self._last_events is not None:
                self._events_per_second = max(
                    0.0, events - self._last_events
                ) / delta
            if events is not None:
                self._last_events = events
        elif metrics is not None:
            self._last_events = _series_value(
                metrics, "repro_kernel_events_total", ()
            )
        self._last_done = done
        self._last_time = now

        snapshot_age = None
        if document is not None:
            generated = document.get("generated_unixtime")
            if generated is not None:
                snapshot_age = max(0.0, now - generated)
        return render_frame(
            journal,
            metrics,
            rate=self._rate,
            events_per_second=self._events_per_second,
            snapshot_age=snapshot_age,
        ), journal


def run_top(
    journal_path,
    snapshot_path=None,
    interval=1.0,
    frames=None,
    once=False,
    follow=False,
    stream=None,
):
    """The ``repro-locking top`` loop.  Returns the last journal state.

    Parameters
    ----------
    journal_path / snapshot_path:
        The sweep journal to tail and its metrics snapshot file
        (default: ``<journal>.metrics.json``).
    interval:
        Refresh period in wall seconds.
    frames:
        Stop after this many frames (``None`` = until finished).
    once:
        Render a single frame and return (no clearing) — the
        scriptable mode CI uses.
    follow:
        Keep refreshing even after the journal records a clean finish
        (default stops on the ``finished`` marker).
    stream:
        Output stream (default ``sys.stdout``); frames are prefixed
        with an ANSI clear only when the stream is a TTY.
    """
    import sys

    stream = sys.stdout if stream is None else stream
    monitor = TopMonitor(journal_path, snapshot_path)
    use_ansi = not once and hasattr(stream, "isatty") and stream.isatty()
    rendered = 0
    journal = {}
    while True:
        text, journal = monitor.frame()
        if use_ansi:
            stream.write(_CLEAR)
        stream.write(text)
        stream.flush()
        rendered += 1
        if once or (frames is not None and rendered >= frames):
            break
        if journal.get("finished") and not follow:
            break
        sleep(interval)
    return journal
