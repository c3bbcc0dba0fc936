"""Deterministic solver functions for temporal questions over a TKG.

Seventeen functions, one per supported question type.  Each is registered
with an LLM-facing schema (description, worked examples and a per-parameter
use guide); the executable logic never ships in the schema.  ``dispatch``
validates a :class:`~tkgqa.answers.FunctionCall` against the schema and runs
the named function, returning a tagged :class:`~tkgqa.answers.Answer`.

``dispatch`` is the only check of a call's arguments, whether the call came
as JSON or as a tqdsl ``call``: it enforces types, required parameters,
choices, intervals, triplets and steps.  The solver functions take arguments
it has already normalised and do not check them again; the one rule the
schema cannot express, a single entity wildcard, is ``_entity_wildcard``'s.

Conventions shared by the whole set:

* Pattern parameters ``s``/``r``/``o`` accept an id or a wildcard
  ("*"/omitted).  Functions answering with entities require exactly one
  wildcard, at an entity position (``s`` or ``o``).
* Ordering ties are always broken by the (t0, t1, s, r, o) total order.
* Containment semantics ([t0, t1] inside the window) apply to
  ``number_of_events_in_time_interval`` and ``is_triplet_within_timespan``;
  overlap semantics apply to ``find_entities_during_triplet`` and
  ``count_relations_with_duration``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .answers import Answer, FunctionCall
from .errors import (
    AmbiguousEpisodeError,
    ArgumentTypeError,
    NoMatchingFactsError,
    OccurrenceOutOfRangeError,
    UnknownFunctionError,
)
from .graph import Fact, Interval, TKG
from .primitives import (
    DURATION_COMPARATORS,
    DurationPredicate,
    merge_intervals,
    sort_facts,
)

__all__ = [
    "Param",
    "FunctionSpec",
    "function_names",
    "function_spec",
    "function_specs",
    "schema_bundle",
    "check_call",
    "dispatch",
    # the seventeen solvers
    "timeline",
    "before_after",
    "event_at_time_t",
    "event_at_what_time",
    "first_last",
    "event_at_the_time_of_another_event",
    "number_of_events_in_time_interval",
    "relation_duration",
    "get_entity_by_duration",
    "find_entities_during_triplet",
    "get_entities_in_between",
    "calculate_total_relation_time",
    "is_triplet_within_timespan",
    "check_interval_without_relation",
    "compare_triplet_durations",
    "sequence_of_relations_in_interval",
    "count_relations_with_duration",
]


# ---------------------------------------------------------------------------
# shared helpers


def _query(g: TKG, s: str | None, r: str | None, o: str | None) -> list[Fact]:
    matches = g.query(s, r, o)
    if not matches:
        raise NoMatchingFactsError(f"no facts match pattern ({s or '*'}, {r or '*'}, {o or '*'})")
    return matches


def _entity_wildcard(s: str | None, r: str | None, o: str | None) -> str:
    """The single unbound entity position, 's' or 'o'."""
    unbound = [name for name, v in (("s", s), ("r", r), ("o", o)) if v is None]
    if len(unbound) != 1 or unbound[0] == "r":
        raise ArgumentTypeError(
            "exactly one of s/o must be a wildcard (and r must be bound); "
            f"unbound positions: {unbound or 'none'}"
        )
    return unbound[0]


def _wildcard_entity(f: Fact, position: str) -> str:
    return f.s if position == "s" else f.o


def _distinct_entities(facts: Iterable[Fact], position: str) -> list[str]:
    """The facts' entities at ``position``, each once, in the order of its first fact."""
    return list(dict.fromkeys(_wildcard_entity(f, position) for f in facts))


def _unique_episode(episodes: list[Fact], occurrence: int | None, what: str) -> Fact:
    """Pick one episode from a t0-sorted list, honouring an optional 1-based index."""
    ordered = sort_facts(episodes)
    if occurrence is None:
        if len(ordered) > 1:
            raise AmbiguousEpisodeError(
                f"{what}: {len(ordered)} episodes match; pass an occurrence index"
            )
        return ordered[0]
    if occurrence < 1 or occurrence > len(ordered):
        raise OccurrenceOutOfRangeError(
            f"{what}: occurrence {occurrence} out of range 1..{len(ordered)}"
        )
    return ordered[occurrence - 1]


def _anchor_fact(g: TKG, triple: tuple[str, str, str], what: str) -> Fact:
    s, r, o = triple
    matches = g.query(s, r, o)
    if not matches:
        raise NoMatchingFactsError(f"{what}: no fact matches triplet ({s}, {r}, {o})")
    return _unique_episode(matches, None, what)


# ---------------------------------------------------------------------------
# the seventeen solvers


def timeline(g: TKG, s: str | None = None, r: str | None = None, o: str | None = None) -> list[str]:
    """Entities at the wildcard position, ordered by episode start; duplicates kept."""
    position = _entity_wildcard(s, r, o)
    matches = _query(g, s, r, o)
    return [_wildcard_entity(f, position) for f in sort_facts(matches)]


def before_after(
    g: TKG,
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
    *,
    pivot: str,
    direction: str,
) -> str:
    """Entity immediately adjacent (in start-time order) to the pivot entity's episode."""
    position = _entity_wildcard(s, r, o)
    ordered = sort_facts(_query(g, s, r, o))
    pivot_index = next(
        (i for i, f in enumerate(ordered) if _wildcard_entity(f, position) == pivot), None
    )
    if pivot_index is None:
        raise NoMatchingFactsError(f"pivot entity {pivot!r} does not appear in the matching facts")
    adjacent = pivot_index - 1 if direction == "before" else pivot_index + 1
    if adjacent < 0 or adjacent >= len(ordered):
        raise NoMatchingFactsError(f"no fact {direction} the {pivot!r} episode")
    return _wildcard_entity(ordered[adjacent], position)


def event_at_time_t(
    g: TKG, s: str | None = None, r: str | None = None, o: str | None = None, *, t: int
) -> list[str]:
    """Entities whose episode covers the time point t (t0 <= t <= t1), deduplicated."""
    position = _entity_wildcard(s, r, o)
    matches = _query(g, s, r, o)
    covered = (f for f in sort_facts(matches) if f.interval.contains_point(t))
    return _distinct_entities(covered, position)


def event_at_what_time(
    g: TKG,
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
    *,
    endpoint: str = "interval",
    occurrence: int | None = None,
) -> int | Interval:
    """Start year, end year, or full interval of one (s, r, o) episode."""
    episode = _unique_episode(_query(g, s, r, o), occurrence, "event_at_what_time")
    if endpoint == "start":
        return episode.t0
    if endpoint == "end":
        return episode.t1
    return episode.interval


def first_last(
    g: TKG, s: str | None = None, r: str | None = None, o: str | None = None, *, which: str
) -> str:
    """Wildcard entity of the earliest- or latest-starting episode."""
    position = _entity_wildcard(s, r, o)
    ordered = sort_facts(_query(g, s, r, o))
    chosen = ordered[0] if which == "first" else ordered[-1]
    return _wildcard_entity(chosen, position)


def event_at_the_time_of_another_event(
    g: TKG,
    *,
    anchor: tuple[str, str, str],
    anchor_point: str,
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
) -> list[str]:
    """Entities matching the query pattern at the start or end of the anchor episode."""
    anchor_fact = _anchor_fact(g, anchor, "event_at_the_time_of_another_event")
    t = anchor_fact.t0 if anchor_point == "start" else anchor_fact.t1
    return event_at_time_t(g, s, r, o, t=t)


def number_of_events_in_time_interval(
    g: TKG,
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
    *,
    window: tuple[int, int],
) -> int:
    """Count of matching episodes fully contained in the window."""
    w = Interval(*window)
    matches = _query(g, s, r, o)
    return sum(1 for f in matches if f.interval.within(w))


def relation_duration(
    g: TKG,
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
    *,
    occurrence: int | None = None,
) -> int:
    """Duration (t1 - t0) of one (s, r, o) episode."""
    episode = _unique_episode(_query(g, s, r, o), occurrence, "relation_duration")
    return episode.duration


def get_entity_by_duration(
    g: TKG, s: str | None = None, r: str | None = None, o: str | None = None, *, mode: str
) -> str:
    """Wildcard entity of the longest or shortest episode; ties go to the earliest."""
    position = _entity_wildcard(s, r, o)
    ordered = sort_facts(_query(g, s, r, o))
    best = ordered[0]
    for f in ordered[1:]:
        if (mode == "longest" and f.duration > best.duration) or (
            mode == "shortest" and f.duration < best.duration
        ):
            best = f
    return _wildcard_entity(best, position)


def find_entities_during_triplet(
    g: TKG,
    *,
    anchor: tuple[str, str, str],
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
) -> list[str]:
    """Entities whose episode overlaps the anchor episode; the anchor fact itself is excluded."""
    position = _entity_wildcard(s, r, o)
    anchor_fact = _anchor_fact(g, anchor, "find_entities_during_triplet")
    matches = _query(g, s, r, o)
    overlapping = (f for f in sort_facts(matches) if f != anchor_fact and f.interval.overlaps(anchor_fact.interval))
    return _distinct_entities(overlapping, position)


def get_entities_in_between(
    g: TKG,
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
    *,
    from_entity: str,
    to_entity: str,
) -> list[str]:
    """Entities whose episode starts strictly between the from- and to-entity episodes.

    When an endpoint entity has several episodes, its earliest one anchors
    the range.  Duplicates are kept, in start-time order.
    """
    position = _entity_wildcard(s, r, o)
    ordered = sort_facts(_query(g, s, r, o))
    lo = next((f.t0 for f in ordered if _wildcard_entity(f, position) == from_entity), None)
    hi = next((f.t0 for f in ordered if _wildcard_entity(f, position) == to_entity), None)
    if lo is None:
        raise NoMatchingFactsError(f"from_entity {from_entity!r} does not appear in the matching facts")
    if hi is None:
        raise NoMatchingFactsError(f"to_entity {to_entity!r} does not appear in the matching facts")
    return [_wildcard_entity(f, position) for f in ordered if lo < f.t0 < hi]


def calculate_total_relation_time(
    g: TKG,
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
    *,
    merge_overlaps: bool = True,
) -> int:
    """Total time covered by the matching episodes.

    Overlapping or touching episodes are merged before summing (elapsed
    time); pass ``merge_overlaps=False`` to sum raw episode durations.
    """
    matches = _query(g, s, r, o)
    if not merge_overlaps:
        return sum(f.duration for f in matches)
    _, total = merge_intervals(f.interval for f in matches)
    return total


def is_triplet_within_timespan(
    g: TKG,
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
    *,
    window: tuple[int, int],
) -> bool:
    """True iff some (s, r, o) episode lies fully inside the window."""
    w = Interval(*window)
    matches = _query(g, s, r, o)
    return any(f.interval.within(w) for f in matches)


def check_interval_without_relation(
    g: TKG,
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
    *,
    window: tuple[int, int],
    min_gap: int,
) -> bool:
    """True iff the window contains a relation-free gap strictly longer than min_gap.

    Matching episodes are clamped to the window and merged; gaps include the
    stretch from the window start to the first episode and from the last
    episode to the window end.  A pattern matching no facts leaves the whole
    window as one gap.
    """
    w = Interval(*window)
    a, b = w
    clamped = [Interval(max(f.t0, a), min(f.t1, b)) for f in g.query(s, r, o) if f.interval.overlaps(w)]
    merged, _ = merge_intervals(clamped)
    if not merged:
        return (b - a) > min_gap
    gaps = [merged[0].t0 - a]
    gaps.extend(nxt.t0 - prev.t1 for prev, nxt in zip(merged, merged[1:]))
    gaps.append(b - merged[-1].t1)
    return any(gap > min_gap for gap in gaps)


def compare_triplet_durations(
    g: TKG,
    *,
    first: tuple[str, str, str],
    second: tuple[str, str, str],
    op: str,
) -> bool:
    """Strict comparison of the total merged durations of two triplets; ties are False."""
    totals = []
    for triple in (first, second):
        matches = _query(g, *triple)
        _, total = merge_intervals(f.interval for f in matches)
        totals.append(total)
    return totals[0] > totals[1] if op == "longer" else totals[0] < totals[1]


def sequence_of_relations_in_interval(
    g: TKG,
    s: str | None = None,
    *,
    steps: Sequence[tuple[str, str]],
    window: tuple[int, int],
) -> bool:
    """True iff the step events can occur in order inside the window.

    Each step is (relation, "start"|"end"); a step's candidate times are the
    chosen endpoints of facts matching (s, relation, *).  The result is true
    iff one candidate per step can be picked in non-decreasing time order,
    all within the window.  An empty step list is vacuously true.
    """
    if not steps:
        return True
    a, b = Interval(*window)
    if not g.query(s=s):
        raise NoMatchingFactsError(f"subject {s or '*'} has no facts")
    current = a
    for rel, endpoint in steps:
        times = sorted(
            {(f.t0 if endpoint == "start" else f.t1) for f in g.query(s=s, r=rel)}
        )
        nxt = next((t for t in times if current <= t <= b), None)
        if nxt is None:
            return False
        current = nxt
    return True


def count_relations_with_duration(
    g: TKG,
    s: str | None = None,
    r: str | None = None,
    o: str | None = None,
    *,
    comparator: str,
    threshold: int,
    window: tuple[int, int],
) -> int:
    """Count of matching episodes overlapping the window whose duration satisfies the predicate."""
    pred = DurationPredicate(comparator, threshold)
    w = Interval(*window)
    matches = _query(g, s, r, o)
    return sum(1 for f in matches if f.interval.overlaps(w) and pred.matches(f.duration))


# ---------------------------------------------------------------------------
# registry: schemas and dispatch


@dataclass(frozen=True)
class Param:
    """One schema parameter: LLM-facing type tag, description and required flag."""

    name: str
    type: str  # entity | relation | integer | interval | triplet | choice | steps | boolean
    description: str
    required: bool = True
    choices: tuple[str, ...] | None = None

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "type": self.type,
            "description": self.description,
            "required": self.required,
        }
        if self.choices:
            out["choices"] = list(self.choices)
        return out


@dataclass(frozen=True)
class FunctionSpec:
    """A registered solver: logic plus the schema shown to LLMs.

    ``schema()`` exposes everything except the logic.  ``answer_kind`` of
    "time" resolves to time_point or time_interval from the returned value.
    """

    name: str
    logic: Callable
    description: str
    use_guide: tuple[Param, ...]
    examples: tuple[str, ...]
    answer_kind: str

    def schema(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "examples": list(self.examples),
            "parameters": [p.to_json() for p in self.use_guide],
        }


_REGISTRY: dict[str, FunctionSpec] = {}


def function_names() -> list[str]:
    return list(_REGISTRY)


def function_spec(name: str) -> FunctionSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownFunctionError(name) from None


def function_specs() -> list[FunctionSpec]:
    return list(_REGISTRY.values())


def schema_bundle() -> list[dict]:
    """All function schemas (description + use guide, never logic), in stable order."""
    return [spec.schema() for spec in _REGISTRY.values()]


def _pattern_params(subject_doc: str, relation_doc: str, object_doc: str, relation_required: bool) -> list[Param]:
    return [
        Param("s", "entity", subject_doc, required=False),
        Param("r", "relation", relation_doc, required=relation_required),
        Param("o", "entity", object_doc, required=False),
    ]


# the pattern of a function that answers at its one entity wildcard
_ENTITY_PATTERN = _pattern_params(
    'subject entity id, or "*"', "relation id (must be bound)", 'object entity id, or "*"', True
)
# the same pattern beside an anchor triplet
_QUERY_PATTERN = _pattern_params(
    'query subject entity id, or "*"', "query relation id (must be bound)", 'query object entity id, or "*"', True
)
# a pattern in which any subset of s/r/o may be bound
_ANY_PATTERN = _pattern_params('subject entity id, or "*"', 'relation id, or "*"', 'object entity id, or "*"', False)
_BOUND_TRIPLE = [
    Param("s", "entity", "subject entity id"),
    Param("r", "relation", "relation id"),
    Param("o", "entity", "object entity id"),
]

_ENTITY_PATTERN_DOC = (
    'Use "*" (or omit) for exactly one of s/o: that wildcard position is answered. '
    "r must be a relation id."
)


def _def(
    name: str,
    logic: Callable,
    answer_kind: str,
    description: str,
    params: list[Param],
    examples: tuple[str, ...],
) -> None:
    if name in _REGISTRY:
        raise ValueError(f"function {name!r} registered twice")
    _REGISTRY[name] = FunctionSpec(name, logic, description, tuple(params), examples, answer_kind)


_def(
    "timeline",
    timeline,
    "entity_list",
    "List every entity at the wildcard position of the pattern, sorted by episode "
    "start year ascending. Duplicate entities are kept, once per episode, because the "
    "ordering itself is the answer. " + _ENTITY_PATTERN_DOC,
    _pattern_params(
        'subject entity id, or "*" to ask for subjects',
        "relation id (must be bound)",
        'object entity id, or "*" to ask for objects',
        True,
    ),
    (
        'timeline(s="E1", r="R1", o="*") -> ["E2", "E3", "E4"] when E1 held R1 with E2 '
        "(2000-2005), E3 (2006-2010) and E4 (2012-2020).",
        'timeline(s="*", r="R1", o="E2") lists the subjects that held R1 with E2, earliest first.',
    ),
)

_def(
    "before_after",
    before_after,
    "entity",
    "Return the entity immediately before or after the pivot entity's episode, in "
    "episode start-time order over the facts matching the pattern. "
    + _ENTITY_PATTERN_DOC,
    _ENTITY_PATTERN
    + [
        Param("pivot", "entity", "entity whose episode anchors the lookup"),
        Param("direction", "choice", "'before' for the predecessor, 'after' for the successor", choices=("before", "after")),
    ],
    (
        'before_after(s="E1", r="R1", o="*", pivot="E3", direction="before") -> "E2" when '
        "E1's R1 episodes start in the order E2, E3, E4.",
    ),
)

_def(
    "event_at_time_t",
    event_at_time_t,
    "entity_list",
    "List the entities at the wildcard position whose episode covers the year t "
    "(t0 <= t <= t1), deduplicated and sorted by episode start. " + _ENTITY_PATTERN_DOC,
    _ENTITY_PATTERN
    + [Param("t", "integer", "the year to inspect")],
    (
        'event_at_time_t(s="*", r="R1", o="E2", t=2002) -> ["E1", "E5"] when E1 and E5 '
        "both held R1 with E2 over intervals covering 2002.",
    ),
)

_def(
    "event_at_what_time",
    event_at_what_time,
    "time",
    "Return when the fully bound triplet (s, r, o) held: its start year, end year, or "
    "the whole [t0, t1] interval. If the triplet has several episodes, pass a 1-based "
    "occurrence index (episodes ordered by start year).",
    _BOUND_TRIPLE
    + [
        Param("endpoint", "choice", "'start', 'end', or 'interval' (default)", required=False, choices=("start", "end", "interval")),
        Param("occurrence", "integer", "1-based episode index when several episodes exist", required=False),
    ],
    (
        'event_at_what_time(s="E1", r="R1", o="E3", endpoint="interval") -> [2006, 2010].',
        'event_at_what_time(s="E1", r="R1", o="E3", endpoint="end") -> 2010.',
    ),
)

_def(
    "first_last",
    first_last,
    "entity",
    "Return the wildcard-position entity of the episode with the earliest ('first') or "
    "latest ('last') start year among the facts matching the pattern. "
    + _ENTITY_PATTERN_DOC,
    _ENTITY_PATTERN
    + [Param("which", "choice", "'first' or 'last'", choices=("first", "last"))],
    ('first_last(s="E1", r="R1", o="*", which="first") -> "E2" when E1\'s earliest R1 episode is with E2.',),
)

_def(
    "event_at_the_time_of_another_event",
    event_at_the_time_of_another_event,
    "entity_list",
    "Anchor on the single episode of the fully bound anchor triplet, take its start or "
    "end year, and list the entities matching the query pattern at that year "
    "(deduplicated, sorted by episode start). " + _ENTITY_PATTERN_DOC,
    [
        Param("anchor", "triplet", "the anchor fact as [s, r, o]; must match exactly one episode"),
        Param("anchor_point", "choice", "'start' or 'end' of the anchor episode", choices=("start", "end")),
    ]
    + _QUERY_PATTERN,
    (
        'event_at_the_time_of_another_event(anchor=["E1", "R1", "E3"], anchor_point="start", '
        's="E1", r="R2", o="*") -> ["E6"] when E1 held R2 with E6 over the anchor start year.',
    ),
)

_def(
    "number_of_events_in_time_interval",
    number_of_events_in_time_interval,
    "count",
    "Count the episodes matching the pattern whose whole interval [t0, t1] is contained "
    "in the window (window.a <= t0 and t1 <= window.b). Any subset of s/r/o may be bound.",
    _ANY_PATTERN
    + [Param("window", "interval", "the containing window as [start_year, end_year]")],
    (
        'number_of_events_in_time_interval(s="E1", r="R1", o="*", window=[2000, 2011]) -> 2 '
        "when two of E1's three R1 episodes fall entirely inside 2000-2011.",
    ),
)

_def(
    "relation_duration",
    relation_duration,
    "duration",
    "Duration in years (t1 - t0) of one episode of the fully bound triplet (s, r, o). "
    "If the triplet has several episodes, pass a 1-based occurrence index (episodes "
    "ordered by start year).",
    _BOUND_TRIPLE
    + [Param("occurrence", "integer", "1-based episode index when several episodes exist", required=False)],
    (
        'relation_duration(s="E1", r="R1", o="E3") -> 4 for the single episode 2006-2010.',
        'relation_duration(s="E1", r="R1", o="E2", occurrence=1) -> 5 for the first episode 2000-2005.',
    ),
)

_def(
    "get_entity_by_duration",
    get_entity_by_duration,
    "entity",
    "Return the wildcard-position entity of the longest or shortest episode among the "
    "facts matching the pattern; duration ties go to the earliest episode. "
    + _ENTITY_PATTERN_DOC,
    _ENTITY_PATTERN
    + [Param("mode", "choice", "'longest' or 'shortest'", choices=("longest", "shortest"))],
    ('get_entity_by_duration(s="E1", r="R1", o="*", mode="longest") -> "E4" when the E4 episode lasts longest.',),
)

_def(
    "find_entities_during_triplet",
    find_entities_during_triplet,
    "entity_list",
    "List the entities at the query pattern's wildcard position whose episode OVERLAPS "
    "the anchor triplet's episode (any shared time counts); the anchor fact itself is "
    "excluded. Deduplicated, sorted by episode start. " + _ENTITY_PATTERN_DOC,
    [Param("anchor", "triplet", "the anchor fact as [s, r, o]; must match exactly one episode")]
    + _QUERY_PATTERN,
    (
        'find_entities_during_triplet(anchor=["E1", "R1", "E2"], s="*", r="R1", o="E2") -> '
        '["E5", "E7"] for the other subjects whose R1 episodes with E2 overlap the anchor years.',
    ),
)

_def(
    "get_entities_in_between",
    get_entities_in_between,
    "entity_list",
    "List the entities whose episode starts strictly after the from-entity's episode "
    "starts and strictly before the to-entity's episode starts, over the facts matching "
    "the pattern. Duplicates kept, sorted by episode start. " + _ENTITY_PATTERN_DOC,
    _ENTITY_PATTERN
    + [
        Param("from_entity", "entity", "entity opening the range (its earliest episode is used)"),
        Param("to_entity", "entity", "entity closing the range (its earliest episode is used)"),
    ],
    (
        'get_entities_in_between(s="E1", r="R1", o="*", from_entity="E2", to_entity="E4") -> '
        '["E3"] when E3 is the only episode starting between those two.',
    ),
)

_def(
    "calculate_total_relation_time",
    calculate_total_relation_time,
    "duration",
    "Total years covered by all episodes matching the pattern. Overlapping or touching "
    "episodes are merged before summing, so the result is elapsed time; set "
    "merge_overlaps=false to sum raw episode durations instead. Any subset of s/r/o may "
    "be bound.",
    _ANY_PATTERN
    + [Param("merge_overlaps", "boolean", "merge overlapping episodes before summing (default true)", required=False)],
    (
        'calculate_total_relation_time(s="E1", r="R1", o="*") -> 17 for disjoint episodes of 5, 4 and 8 years.',
        'calculate_total_relation_time(s="*", r="R1", o="E2") -> 12 when the episodes merge into 2000-2012.',
    ),
)

_def(
    "is_triplet_within_timespan",
    is_triplet_within_timespan,
    "boolean",
    "True iff some episode of the fully bound triplet (s, r, o) is CONTAINED in the "
    "window: window.a <= t0 and t1 <= window.b.",
    _BOUND_TRIPLE
    + [Param("window", "interval", "the containing window as [start_year, end_year]")],
    ('is_triplet_within_timespan(s="E1", r="R1", o="E2", window=[1999, 2006]) -> true for the episode 2000-2005.',),
)

_def(
    "check_interval_without_relation",
    check_interval_without_relation,
    "boolean",
    "True iff, inside the window, there is a stretch strictly longer than min_gap years "
    "with no matching episode in effect. Episodes are clamped to the window and merged; "
    "the stretches before the first episode and after the last one count as gaps. Any "
    "subset of s/r/o may be bound.",
    _ANY_PATTERN
    + [
        Param("window", "interval", "the window to inspect as [start_year, end_year]"),
        Param("min_gap", "integer", "gap threshold in years; a gap must be STRICTLY longer to count"),
    ],
    (
        'check_interval_without_relation(s="E1", r="R1", o="*", window=[2000, 2020], min_gap=1) '
        "-> true when E1 has a 2-year stretch without R1.",
    ),
)

_def(
    "compare_triplet_durations",
    compare_triplet_durations,
    "boolean",
    "Compare the total merged durations of two fully bound triplets. 'longer' asks "
    "whether the first strictly exceeds the second, 'shorter' the reverse; equal totals "
    "give false either way.",
    [
        Param("first", "triplet", "first triplet as [s, r, o]"),
        Param("second", "triplet", "second triplet as [s, r, o]"),
        Param("op", "choice", "'longer' or 'shorter' (strict comparison)", choices=("longer", "shorter")),
    ],
    (
        'compare_triplet_durations(first=["E1", "R1", "E2"], second=["E1", "R1", "E4"], op="shorter") '
        "-> true when the first totals 5 years and the second 8.",
    ),
)

_def(
    "sequence_of_relations_in_interval",
    sequence_of_relations_in_interval,
    "boolean",
    "True iff the listed relation events can occur in the given order inside the "
    "window. Each step is [relation, 'start'|'end']; a step may use any fact of the "
    "subject with that relation, and consecutive steps need non-decreasing years, all "
    "within the window. An empty step list is vacuously true.",
    [
        Param("s", "entity", 'subject entity id, or "*" for any subject', required=False),
        Param("steps", "steps", "ordered list of [relation, 'start'|'end'] events"),
        Param("window", "interval", "the window as [start_year, end_year]"),
    ],
    (
        'sequence_of_relations_in_interval(s="E1", steps=[["R2", "start"], ["R1", "end"]], '
        "window=[2004, 2006]) -> true when an R2 episode starts in 2004 and an R1 episode ends in 2005.",
    ),
)

_def(
    "count_relations_with_duration",
    count_relations_with_duration,
    "count",
    "Count the episodes matching the pattern that OVERLAP the window and whose duration "
    "(t1 - t0) satisfies the comparison against the threshold. Any subset of s/r/o may "
    "be bound.",
    _ANY_PATTERN
    + [
        Param("comparator", "choice", "one of <, <=, =, >=, >", choices=DURATION_COMPARATORS),
        Param("threshold", "integer", "duration threshold in years"),
        Param("window", "interval", "the overlap window as [start_year, end_year]"),
    ],
    (
        'count_relations_with_duration(s="E1", r="R1", o="*", comparator=">=", threshold=4, '
        "window=[2000, 2020]) -> 3 when all three overlapping episodes last at least 4 years.",
    ),
)


# ---------------------------------------------------------------------------
# argument normalization and dispatch


def _norm_token(name: str, value, required: bool) -> str | None:
    if value is None or value == "*":
        if required:
            raise ArgumentTypeError(f"parameter {name!r} is required")
        return None
    if not isinstance(value, str) or not value:
        raise ArgumentTypeError(f"parameter {name!r} must be a non-empty id string, got {value!r}")
    return value


def _norm_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ArgumentTypeError(f"parameter {name!r} must be an integer, got {value!r}")
    return value


def _norm_interval(name: str, value) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ArgumentTypeError(f"parameter {name!r} must be a [start, end] pair, got {value!r}")
    a, b = (_norm_int(name, v) for v in value)
    if a > b:
        raise ArgumentTypeError(f"parameter {name!r} must satisfy start <= end, got [{a}, {b}]")
    return (a, b)


def _norm_triplet(name: str, value) -> tuple[str, str, str]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ArgumentTypeError(f"parameter {name!r} must be an [s, r, o] triplet, got {value!r}")
    return tuple(_norm_token(name, v, required=True) for v in value)  # type: ignore[return-value]


def _norm_steps(name: str, value) -> list[tuple[str, str]]:
    if not isinstance(value, (list, tuple)):
        raise ArgumentTypeError(f"parameter {name!r} must be a list of [relation, start|end] pairs")
    steps = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ArgumentTypeError(f"parameter {name!r}: bad step {item!r}")
        rel = _norm_token(name, item[0], required=True)
        end = item[1]
        if end not in ("start", "end"):
            raise ArgumentTypeError(f"parameter {name!r}: step endpoint must be start/end, got {end!r}")
        steps.append((rel, end))
    return steps


def _normalize_argument(param: Param, value):
    if param.type in ("entity", "relation"):
        return _norm_token(param.name, value, param.required)
    if param.type == "integer":
        return _norm_int(param.name, value)
    if param.type == "interval":
        return _norm_interval(param.name, value)
    if param.type == "triplet":
        return _norm_triplet(param.name, value)
    if param.type == "steps":
        return _norm_steps(param.name, value)
    if param.type == "boolean":
        if not isinstance(value, bool):
            raise ArgumentTypeError(f"parameter {param.name!r} must be a boolean, got {value!r}")
        return value
    if param.type == "choice":
        if value not in (param.choices or ()):
            raise ArgumentTypeError(
                f"parameter {param.name!r} must be one of {list(param.choices or ())}, got {value!r}"
            )
        return value
    raise ArgumentTypeError(f"unhandled parameter type {param.type!r}")


def _answer_from(kind: str, value) -> Answer:
    if kind == "time":
        kind = "time_interval" if isinstance(value, Interval) else "time_point"
    return Answer(kind, value)


def check_call(call: FunctionCall) -> dict:
    """The keyword arguments of ``call``, checked against its function's schema; raises why they do not fit."""
    spec = function_spec(call.name)
    unknown = set(call.arguments) - {p.name for p in spec.use_guide}
    if unknown:
        raise ArgumentTypeError(f"{call.name}: unknown parameters {sorted(unknown)}")
    kwargs = {}
    for param in spec.use_guide:
        if param.name in call.arguments:
            value = _normalize_argument(param, call.arguments[param.name])
            if value is not None:  # an explicit wildcard behaves like an omitted optional
                kwargs[param.name] = value
        elif param.required:
            raise ArgumentTypeError(f"{call.name}: missing required parameter {param.name!r}")
    return kwargs


def dispatch(g: TKG, call: FunctionCall) -> Answer:
    """Validate a call against its schema and run it, returning a tagged answer."""
    spec = function_spec(call.name)
    return _answer_from(spec.answer_kind, spec.logic(g, **check_call(call)))
