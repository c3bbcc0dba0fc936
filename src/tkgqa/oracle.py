"""Brute-force reference answers, computed straight from each definition.

This module deliberately re-implements every solver with plain scans,
explicit loops and a sweep-line union, sharing no logic with
:mod:`tkgqa.solvers` or :mod:`tkgqa.primitives`.  It exists to cross-check
generated gold answers and the optimized implementations; keep it dumb.
"""

from __future__ import annotations

import itertools

from .answers import Answer, FunctionCall
from .errors import (
    AmbiguousEpisodeError,
    ArgumentTypeError,
    NoMatchingFactsError,
    OccurrenceOutOfRangeError,
    UnknownFunctionError,
)
from .graph import Fact, TKG

__all__ = ["oracle_answer"]


def _scan(g: TKG, s=None, r=None, o=None) -> list[Fact]:
    out = []
    for f in g.facts:
        if s is not None and f.s != s:
            continue
        if r is not None and f.r != r:
            continue
        if o is not None and f.o != o:
            continue
        out.append(f)
    return out


def _ordered(facts) -> list[Fact]:
    return sorted(facts, key=lambda f: (f.t0, f.t1, f.s, f.r, f.o))


def _wc(s, r, o) -> str:
    unbound = [name for name, v in (("s", s), ("r", r), ("o", o)) if v is None]
    if len(unbound) != 1 or unbound[0] == "r":
        raise ArgumentTypeError("exactly one of s/o must be unbound")
    return unbound[0]


def _ent(f: Fact, pos: str) -> str:
    return f.s if pos == "s" else f.o


def _nonempty(facts, msg: str) -> list[Fact]:
    if not facts:
        raise NoMatchingFactsError(msg)
    return facts


def _covered_spans(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # sweep-line over endpoint events; start events sort before end events at
    # equal coordinates, so touching closed intervals make one span
    events = []
    for a, b in intervals:
        events.append((a, 0))
        events.append((b, 1))
    events.sort()
    spans = []
    depth = 0
    start = None
    for coord, kind in events:
        if kind == 0:
            if depth == 0:
                start = coord
            depth += 1
        else:
            depth -= 1
            if depth == 0:
                spans.append((start, coord))
    return spans


def _pick_episode(episodes: list[Fact], occurrence) -> Fact:
    ordered = _ordered(episodes)
    if occurrence is None:
        if len(ordered) != 1:
            raise AmbiguousEpisodeError(f"{len(ordered)} episodes")
        return ordered[0]
    if not 1 <= occurrence <= len(ordered):
        raise OccurrenceOutOfRangeError(str(occurrence))
    return ordered[occurrence - 1]


def _single_anchor(g: TKG, triple) -> Fact:
    s, r, o = triple
    return _pick_episode(_nonempty(_scan(g, s, r, o), "anchor matches nothing"), None)


def _o_timeline(g, s=None, r=None, o=None):
    pos = _wc(s, r, o)
    facts = _nonempty(_scan(g, s, r, o), "empty")
    return Answer("entity_list", [_ent(f, pos) for f in _ordered(facts)])


def _o_before_after(g, s=None, r=None, o=None, *, pivot, direction):
    pos = _wc(s, r, o)
    ordered = _ordered(_nonempty(_scan(g, s, r, o), "empty"))
    idx = None
    for i, f in enumerate(ordered):
        if _ent(f, pos) == pivot:
            idx = i
            break
    if idx is None:
        raise NoMatchingFactsError("pivot absent")
    j = idx - 1 if direction == "before" else idx + 1
    if j < 0 or j >= len(ordered):
        raise NoMatchingFactsError("no adjacent fact")
    return Answer("entity", _ent(ordered[j], pos))


def _o_event_at_time_t(g, s=None, r=None, o=None, *, t):
    pos = _wc(s, r, o)
    facts = _nonempty(_scan(g, s, r, o), "empty")
    seen = []
    for f in _ordered(facts):
        if f.t0 <= t <= f.t1 and _ent(f, pos) not in seen:
            seen.append(_ent(f, pos))
    return Answer("entity_list", seen)


def _o_event_at_what_time(g, s, r, o, *, endpoint="interval", occurrence=None):
    ep = _pick_episode(_nonempty(_scan(g, s, r, o), "empty"), occurrence)
    if endpoint == "start":
        return Answer("time_point", ep.t0)
    if endpoint == "end":
        return Answer("time_point", ep.t1)
    return Answer("time_interval", (ep.t0, ep.t1))


def _o_first_last(g, s=None, r=None, o=None, *, which):
    pos = _wc(s, r, o)
    ordered = _ordered(_nonempty(_scan(g, s, r, o), "empty"))
    return Answer("entity", _ent(ordered[0] if which == "first" else ordered[-1], pos))


def _o_event_at_the_time_of_another_event(g, *, anchor, anchor_point, s=None, r=None, o=None):
    a = _single_anchor(g, anchor)
    t = a.t0 if anchor_point == "start" else a.t1
    return _o_event_at_time_t(g, s, r, o, t=t)


def _o_number_of_events(g, s=None, r=None, o=None, *, window):
    lo, hi = window
    facts = _nonempty(_scan(g, s, r, o), "empty")
    return Answer("count", sum(1 for f in facts if lo <= f.t0 and f.t1 <= hi))


def _o_relation_duration(g, s, r, o, *, occurrence=None):
    ep = _pick_episode(_nonempty(_scan(g, s, r, o), "empty"), occurrence)
    return Answer("duration", ep.t1 - ep.t0)


def _o_get_entity_by_duration(g, s=None, r=None, o=None, *, mode):
    pos = _wc(s, r, o)
    ordered = _ordered(_nonempty(_scan(g, s, r, o), "empty"))
    best = ordered[0]
    for f in ordered:
        d, bd = f.t1 - f.t0, best.t1 - best.t0
        if (mode == "longest" and d > bd) or (mode == "shortest" and d < bd):
            best = f
    return Answer("entity", _ent(best, pos))


def _o_find_entities_during_triplet(g, *, anchor, s=None, r=None, o=None):
    pos = _wc(s, r, o)
    a = _single_anchor(g, anchor)
    facts = _nonempty(_scan(g, s, r, o), "empty")
    out = []
    for f in _ordered(facts):
        if f == a:
            continue
        if f.t0 <= a.t1 and a.t0 <= f.t1 and _ent(f, pos) not in out:
            out.append(_ent(f, pos))
    return Answer("entity_list", out)


def _o_get_entities_in_between(g, s=None, r=None, o=None, *, from_entity, to_entity):
    pos = _wc(s, r, o)
    ordered = _ordered(_nonempty(_scan(g, s, r, o), "empty"))
    lo = hi = None
    for f in ordered:
        if lo is None and _ent(f, pos) == from_entity:
            lo = f.t0
        if hi is None and _ent(f, pos) == to_entity:
            hi = f.t0
    if lo is None or hi is None:
        raise NoMatchingFactsError("endpoint entity absent")
    return Answer("entity_list", [_ent(f, pos) for f in ordered if lo < f.t0 < hi])


def _o_total_relation_time(g, s=None, r=None, o=None, *, merge_overlaps=True):
    facts = _nonempty(_scan(g, s, r, o), "empty")
    if not merge_overlaps:
        return Answer("duration", sum(f.t1 - f.t0 for f in facts))
    return Answer("duration", sum(b - a for a, b in _covered_spans([(f.t0, f.t1) for f in facts])))


def _o_is_triplet_within_timespan(g, s, r, o, *, window):
    lo, hi = window
    facts = _nonempty(_scan(g, s, r, o), "empty")
    return Answer("boolean", any(lo <= f.t0 and f.t1 <= hi for f in facts))


def _o_check_interval_without_relation(g, s=None, r=None, o=None, *, window, min_gap):
    lo, hi = window
    clamped = [
        (max(f.t0, lo), min(f.t1, hi))
        for f in _scan(g, s, r, o)
        if f.t0 <= hi and f.t1 >= lo
    ]
    covered = _covered_spans(clamped)
    if not covered:
        return Answer("boolean", hi - lo > min_gap)
    gaps = [covered[0][0] - lo, hi - covered[-1][1]]
    gaps.extend(nxt[0] - prev[1] for prev, nxt in zip(covered, covered[1:]))
    return Answer("boolean", any(gap > min_gap for gap in gaps))


def _o_compare_triplet_durations(g, *, first, second, op):
    totals = []
    for triple in (first, second):
        facts = _nonempty(_scan(g, *triple), "empty")
        totals.append(sum(b - a for a, b in _covered_spans([(f.t0, f.t1) for f in facts])))
    return Answer("boolean", totals[0] > totals[1] if op == "longer" else totals[0] < totals[1])


def _o_sequence_of_relations(g, s=None, *, steps, window):
    if not steps:
        return Answer("boolean", True)
    lo, hi = window
    _nonempty(_scan(g, s, None, None), "subject has no facts")
    candidate_times = []
    for rel, endpoint in steps:
        times = sorted(
            {
                (f.t0 if endpoint == "start" else f.t1)
                for f in _scan(g, s, rel, None)
                if lo <= (f.t0 if endpoint == "start" else f.t1) <= hi
            }
        )
        candidate_times.append(times)
    # exhaustive: try every combination of candidate times
    for combo in itertools.product(*candidate_times):
        if all(combo[i] <= combo[i + 1] for i in range(len(combo) - 1)):
            return Answer("boolean", True)
    return Answer("boolean", False)


def _o_count_relations_with_duration(g, s=None, r=None, o=None, *, comparator, threshold, window):
    lo, hi = window
    facts = _nonempty(_scan(g, s, r, o), "empty")
    count = 0
    for f in facts:
        if not (f.t0 <= hi and lo <= f.t1):
            continue
        d = f.t1 - f.t0
        if comparator == "<" and d < threshold:
            count += 1
        elif comparator == "<=" and d <= threshold:
            count += 1
        elif comparator in ("=", "==") and d == threshold:
            count += 1
        elif comparator == ">=" and d >= threshold:
            count += 1
        elif comparator == ">" and d > threshold:
            count += 1
    return Answer("count", count)


_ORACLES = {
    "timeline": _o_timeline,
    "before_after": _o_before_after,
    "event_at_time_t": _o_event_at_time_t,
    "event_at_what_time": _o_event_at_what_time,
    "first_last": _o_first_last,
    "event_at_the_time_of_another_event": _o_event_at_the_time_of_another_event,
    "number_of_events_in_time_interval": _o_number_of_events,
    "relation_duration": _o_relation_duration,
    "get_entity_by_duration": _o_get_entity_by_duration,
    "find_entities_during_triplet": _o_find_entities_during_triplet,
    "get_entities_in_between": _o_get_entities_in_between,
    "calculate_total_relation_time": _o_total_relation_time,
    "is_triplet_within_timespan": _o_is_triplet_within_timespan,
    "check_interval_without_relation": _o_check_interval_without_relation,
    "compare_triplet_durations": _o_compare_triplet_durations,
    "sequence_of_relations_in_interval": _o_sequence_of_relations,
    "count_relations_with_duration": _o_count_relations_with_duration,
}


def _clean(value):
    if isinstance(value, str):
        return None if value == "*" else value
    if isinstance(value, list):
        return [_clean(v) for v in value]
    return value


def oracle_answer(g: TKG, call: FunctionCall) -> Answer:
    """Reference answer for a call, via exhaustive enumeration of the definition."""
    fn = _ORACLES.get(call.name)
    if fn is None:
        raise UnknownFunctionError(call.name)
    kwargs = {}
    for key, raw in call.arguments.items():
        value = _clean(raw)
        if value is None:
            continue
        if key in ("anchor", "first", "second"):
            value = tuple(value)
        elif key == "steps":
            value = [tuple(step) for step in value]
        elif key == "window":
            value = tuple(value)
        kwargs[key] = value
    return fn(g, **kwargs)
