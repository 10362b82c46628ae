"""Pure summary statistics used by the benchmark (no repro imports)."""

import math
import statistics

#: Percentiles tried, highest first, when picking a timing's tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is only reported when at least this many samples
#: lie strictly beyond it.
TAIL_MIN_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, pct):
    """The nearest-rank *pct*-th percentile of *values* (non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1]


def tail(values):
    """(pct, value, beyond) for the highest percentile with enough samples past it.

    ``beyond`` counts the samples strictly greater than the percentile's
    value.  Returns ``None`` when even the median has fewer than
    :data:`TAIL_MIN_BEYOND` samples beyond it.
    """
    for pct in TAIL_PERCENTILES:
        value = percentile(values, pct)
        beyond = sum(1 for v in values if v > value)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, beyond
    return None


def self_times(spans):
    """Self time of every span: its duration minus what its children cover.

    *spans* is a sequence of ``(name, start, end, parent)`` where
    ``parent`` is the index of the enclosing span in *spans* or ``-1``.
    Children that overlap one another are counted once (the union of
    their intervals, clipped to the parent's), so the result never
    goes below zero.  Returns a list aligned with *spans*.
    """
    children = {}
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = [end - start for _, start, end, _ in spans]
    for parent, kids in children.items():
        _, start, end, _ = spans[parent]
        covered = 0.0
        cursor = start
        for k_start, k_end in sorted((spans[k][1], spans[k][2]) for k in kids):
            k_start = max(k_start, cursor)
            k_end = min(k_end, end)
            if k_end > k_start:
                covered += k_end - k_start
                cursor = k_end
        result[parent] = max(0.0, result[parent] - covered)
    return result


def self_time_by_name(spans):
    """{name: (count, total_s, self_s)} over *spans* (see :func:`self_times`)."""
    totals = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        count, total, self_s = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (count + 1, total + (end - start), self_s + own)
    return totals
