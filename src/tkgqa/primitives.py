"""Low-level temporal algorithms shared by all question solvers.

The canonical fact order (:func:`tie_break_key`, :func:`sort_facts`),
duration predicates and interval-union merging.  Interval membership tests
live on :class:`tkgqa.graph.Interval`.  All functions are pure over immutable
inputs; duration of a fact is ``t1 - t0``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

from .graph import Fact, Interval

__all__ = [
    "sort_facts",
    "DurationPredicate",
    "merge_intervals",
    "tie_break_key",
]


def tie_break_key(f: Fact) -> tuple:
    """Canonical total order over facts: (t0, t1, s, r, o)."""
    return (f.t0, f.t1, f.s, f.r, f.o)


def sort_facts(facts: Iterable[Fact], endpoint: str = "start", descending: bool = False) -> list[Fact]:
    """Chronological sort by t0 (endpoint="start") or t1 (endpoint="end").

    Ties are broken by the full (t0, t1, s, r, o) order, so the result is a
    deterministic permutation of the input.  ``descending`` reverses the
    entire comparison.
    """
    if endpoint not in ("start", "end"):
        raise ValueError(f"endpoint must be 'start' or 'end', got {endpoint!r}")
    key = tie_break_key if endpoint == "start" else lambda f: (f.t1, *tie_break_key(f))
    return sorted(facts, key=key, reverse=descending)


_COMPARATORS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}

DURATION_COMPARATORS = ("<", "<=", "=", ">=", ">")


@dataclass(frozen=True)
class DurationPredicate:
    """Compare a fact's duration (t1 - t0) against a threshold."""

    comparator: str
    threshold: int

    def __post_init__(self):
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}")

    def matches(self, duration: int) -> bool:
        return _COMPARATORS[self.comparator](duration, self.threshold)


def merge_intervals(intervals: Iterable[Interval | tuple[int, int]]) -> tuple[list[Interval], int]:
    """Merge closed intervals into a disjoint sorted cover of their union.

    Two intervals merge when they overlap or share an endpoint
    (``next.t0 <= prev.t1`` after sorting); [2000, 2005] and [2005, 2009]
    merge, [2006, 2010] and [2012, 2020] do not.  Returns the merged
    intervals and the total length ``sum(t1 - t0)`` over them.
    """
    ivs = sorted(Interval(iv[0], iv[1]) for iv in intervals)
    merged: list[Interval] = []
    for iv in ivs:
        if merged and iv.t0 <= merged[-1].t1:
            if iv.t1 > merged[-1].t1:
                merged[-1] = Interval(merged[-1].t0, iv.t1)
        else:
            merged.append(iv)
    total = sum(iv.t1 - iv.t0 for iv in merged)
    return merged, total
