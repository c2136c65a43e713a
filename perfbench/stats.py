"""Small statistics and bookkeeping helpers shared by the workloads."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

__all__ = ["Tally", "median", "percentile"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``%
    of the samples at or below it.  Every value returned was observed."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


class Tally:
    """Operations attempted and failed, plus run-level check failures.

    An operation is one campaign cell, one request or one plan.  It
    fails when the program raised, refused it, or answered wrongly; one
    operation counts as failed at most once however many of its checks
    miss.  A broken invariant that belongs to no single operation (a
    server that did not drain, store counters that disagree) is a
    *problem*: it makes the run incorrect without changing the rate.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.failures: List[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        """Record one operation; returns ``ok`` for chaining."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what or "operation failed")
        return ok

    def check(self, ok: bool, what: str) -> bool:
        """Record a run-level invariant."""
        if not ok:
            self.problems.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        """Failed operations over attempted operations (0 when none ran)."""
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems
