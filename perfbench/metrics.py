"""Arithmetic of the campaign benchmark: medians, the tail rule, failure
counting, span self time and tracing overhead.

Kept apart from run.py so test_perfbench.py can check it without building
anything.
"""

import math
from fractions import Fraction

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values):
    """Median; the mean of the middle pair for an even count."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(pct, n):
    """1-based nearest rank of percentile pct in n samples, in exact
    arithmetic (99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least pct% of
    the sample at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[nearest_rank(pct, len(ordered)) - 1]


def tail(values):
    """The highest percentile of TAIL_LADDER that leaves at least
    TAIL_MIN_BEYOND samples above its nearest rank, as (pct, value).
    (0.0, 0.0) when the sample is too small for any of them."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n - nearest_rank(pct, n) >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct)
    return 0.0, 0.0


def campaign_failures(record, journal_ok):
    """Scenarios of one campaign record that count as failed: those that
    failed, timed out or were reassigned, those whose impact is outside
    [0, 1], those missing from the budget, and all of them when the
    campaign aborted, lost or respawned a worker, or wrote a journal that
    differs from its other runs."""
    budget = record["budget"]
    if (not journal_ok or record["aborted"] or record["worker_crashes"]
            or record["respawns"]):
        return budget
    failed = (record["failed"] + record["timed_out"] + record["reassigned"]
              + record["bad_impacts"]
              + max(0, budget - record["executed"]))
    return min(budget, failed)


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover. Children may overlap one another (fleet workers run
    in parallel) and are clipped to the parent. Returns {id: self time}."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        inside = [(max(start, c["start"]), min(end, c["end"]))
                  for c in children.get(span["id"], [])]
        inside = [(a, b) for a, b in inside if b > a]
        result[span["id"]] = (end - start) - covered(inside)
    return result


def overhead_share(traced_rate, untraced_rate):
    """Tracing overhead: 1 - traced / untraced scenarios per second."""
    if untraced_rate <= 0:
        raise ValueError("untraced rate must be positive")
    return 1.0 - traced_rate / untraced_rate
