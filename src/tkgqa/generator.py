"""Synthetic benchmark generation: random graphs, question templates, gold answers.

Graphs follow a relation-episode model: roughly half the relations are
"chained" (successive non-overlapping episodes around a fixed anchor entity,
the shape behind first/last and before/after questions), the rest emit
independent triples with one or more non-overlapping episodes.  Question
instances are sampled per type from original natural-language templates with
anonymized ids, the gold answer is computed by :func:`tkgqa.solvers.dispatch`
and every instance is re-checked against the independent brute-force oracle.

All randomness flows from a caller-supplied master seed through named
sub-seeds, so datasets are byte-identical across runs and partial reruns
stay reproducible.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

from .answers import Answer, FunctionCall
from .errors import (
    InfeasibleParamsError,
    ParseError,
    TkgqaError,
    UnsatisfiableTypeError,
)
from .graph import Fact, TKG, load_tkg, read_jsonl, render_text, write_jsonl
from .oracle import oracle_answer
from .primitives import sort_facts
from .solvers import check_call, dispatch, function_names

__all__ = [
    "GraphParams",
    "QuestionTemplate",
    "TaskInstance",
    "subseed",
    "generate_graph",
    "generate_instances",
    "verify_instance",
    "export_instances",
    "import_instances",
    "estimate_tokens",
    "sample_call",
    "TEMPLATES",
    "QUESTION_TYPES",
]

QUESTION_TYPES = tuple(function_names())

RETRY_BOUND = 1000  # parameter samples per instance before giving up


def subseed(master: int, name: str) -> int:
    """Stable 64-bit sub-seed derived from the master seed and a purpose name."""
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def estimate_tokens(text: str | int) -> int:
    """Vendor-neutral token estimate: ceil(chars / 4), of a text or of a text's length."""
    return math.ceil((text if isinstance(text, int) else len(text)) / 4)


# ---------------------------------------------------------------------------
# graph generation


@dataclass(frozen=True)
class GraphParams:
    seed: int
    n_entities: int = 60
    n_relations: int = 8
    n_facts: int = 270
    time_range: tuple[int, int] = (1900, 2040)
    max_episodes_per_triple: int = 3

    def validate(self) -> None:
        if self.n_entities < 2 or self.n_relations < 1 or self.n_facts < 1:
            raise InfeasibleParamsError(
                f"need n_entities >= 2, n_relations >= 1, n_facts >= 1; got "
                f"{self.n_entities}/{self.n_relations}/{self.n_facts}"
            )
        if self.time_range[0] >= self.time_range[1]:
            raise InfeasibleParamsError(f"invalid time_range {self.time_range}: the start must be before the end")
        if self.max_episodes_per_triple < 1:
            raise InfeasibleParamsError("max_episodes_per_triple must be >= 1")
        # beyond the DSL's fact limit, cote_s and cotapi_s restate no graph.  dsl is imported here, not at
        # the top: loading it before the modules cli loads first raised each command's peak RSS by 0.3 MB
        from .dsl import Limits

        if self.n_facts > (most := Limits().max_facts):
            raise InfeasibleParamsError(
                f"n_facts must be <= {most:,}, the most a restated graph holds; got {self.n_facts:,}"
            )


def generate_graph(params: GraphParams) -> TKG:
    """Deterministic random TKG with exactly ``n_facts`` distinct facts."""
    params.validate()
    rng = random.Random(subseed(params.seed, "graph"))
    entities = [f"E{i}" for i in range(1, params.n_entities + 1)]
    position = {e: i for i, e in enumerate(entities)}
    relations = [f"R{j}" for j in range(1, params.n_relations + 1)]
    chained = set(relations[::2])  # every other relation gets timeline-style chains
    lo, hi = params.time_range

    facts: list[Fact] = []
    seen: set[Fact] = set()
    year = {}.setdefault  # one int object per year, shared by the facts as in a loaded graph

    def emit(f: Fact) -> bool:
        if f in seen or f.t0 > f.t1 or f.t0 < lo or f.t1 > hi:
            return False
        seen.add(f)
        facts.append(f)
        return True

    budget = 200 * params.n_facts + 1000
    attempts = 0
    stagnant = 0
    while len(facts) < params.n_facts and attempts < budget and stagnant < 5000:
        attempts += 1
        placed_before = len(facts)
        r = rng.choice(relations)
        if r in chained:
            anchor = rng.choice(entities)
            anchor_is_object = rng.random() < 0.5
            i = position[anchor]
            k = min(len(entities) - 1, rng.randint(2, 4))
            # the draws of rng.sample(entities without the anchor, k), without copying the list
            members = [entities[j + (j >= i)] for j in rng.sample(range(len(entities) - 1), k)]
            t = rng.randint(lo, hi - 1)
            for member in members:
                if len(facts) >= params.n_facts or t >= hi:
                    break
                duration = rng.randint(1, 12)
                t1 = min(t + duration, hi)
                pair = (member, r, anchor) if anchor_is_object else (anchor, r, member)
                emit(Fact(pair[0], pair[1], pair[2], year(t, t), year(t1, t1)))
                t = t1 + rng.randint(0, 3)  # gap 0 keeps some touching episodes
        else:
            s, o = rng.sample(entities, 2)
            episodes = rng.randint(1, params.max_episodes_per_triple)
            t = rng.randint(lo, hi - 1)
            for _ in range(episodes):
                if len(facts) >= params.n_facts or t >= hi:
                    break
                duration = rng.randint(0, 15)
                t1 = min(t + duration, hi)
                emit(Fact(s, r, o, year(t, t), year(t1, t1)))
                t = t1 + rng.randint(1, 8)
        stagnant = stagnant + 1 if len(facts) == placed_before else 0
    if len(facts) < params.n_facts:
        raise InfeasibleParamsError(
            f"could not place {params.n_facts} distinct facts (got {len(facts)})"
        )
    seen.clear()  # TKG keeps its own set while it checks the facts again
    return TKG(facts)


# ---------------------------------------------------------------------------
# question templates

# side: which pattern shape the text assumes.
#   "s" binds the subject (objects answer), "o" binds the object (subjects
#   answer), "full" binds the whole triple, "none" binds nothing extra.
# implicit templates phrase the time reference through an anchor fact
# instead of literal years.


@dataclass(frozen=True)
class QuestionTemplate:
    text: str
    side: str = "s"
    implicit: bool = False
    meta: dict = field(default_factory=dict)


T = QuestionTemplate

TEMPLATES: dict[str, tuple[QuestionTemplate, ...]] = {
    "timeline": (
        T("List, in chronological order by start year, every entity with which {s} held relation {r}."),
        T("Sort all entities that {s} was connected to through {r}, from earliest start to latest."),
        T("Give the full timeline of entities {s} had relation {r} with, ordered by when each episode began."),
        T("In order of start time, which entities did {s} hold {r} towards?"),
        T("List, in chronological order by start year, every entity that held relation {r} with {o}.", side="o"),
        T("Sort the entities that were linked to {o} via {r}, from earliest start to latest.", side="o"),
        T("Provide the ordered sequence of entities holding {r} towards {o}, by starting year.", side="o"),
    ),
    "before_after": (
        T("Which entity did {s} hold relation {r} with immediately {direction} the episode with {pivot}?"),
        T("Immediately {direction} its episode with {pivot}, which entity was {s} connected to through {r}?"),
        T("Looking at the episodes of {s} under relation {r} in start order, which entity comes right {direction} {pivot}?"),
        T("Which entity held relation {r} with {o} immediately {direction} {pivot} did?", side="o"),
        T("In the start-time ordering of entities holding {r} with {o}, which one is immediately {direction} {pivot}?", side="o"),
    ),
    "event_at_time_t": (
        T("Which entities did {s} hold relation {r} with in the year {t}?"),
        T("In {t}, which entities was {s} linked to through {r}?"),
        T("Which entities held relation {r} with {o} in {t}?", side="o"),
        T("During the year {t}, which entities had {r} towards {o}?", side="o"),
        T("Which entities did {s} hold relation {r} with at the time {a_s} began holding {a_r} towards {a_o}?", implicit=True, meta={"anchor_point": "start"}),
        T("When {a_s} stopped holding {a_r} towards {a_o}, which entities held {r} with {o}?", side="o", implicit=True, meta={"anchor_point": "end"}),
    ),
    "event_at_what_time": (
        T("In which year did {s} start holding relation {r} towards {o}?", side="full", meta={"endpoint": "start"}),
        T("When did the relation {r} between {s} and {o} end?", side="full", meta={"endpoint": "end"}),
        T("Over which interval did {s} hold {r} towards {o}?", side="full", meta={"endpoint": "interval"}),
        T("From which year until which year did {s} have relation {r} with {o}?", side="full", meta={"endpoint": "interval"}),
        T("In which year did episode {occurrence} (by start order) of {s} holding {r} towards {o} begin?", side="full", meta={"endpoint": "start", "occurrence": True}),
        T("What is the final year of the relation {r} from {s} to {o}?", side="full", meta={"endpoint": "end"}),
    ),
    "first_last": (
        T("Which entity was the {which} to have relation {r} from {s}?"),
        T("Of all entities {s} held {r} towards, which one was the {which} by start year?"),
        T("Identify the {which} entity in the start-time ordering of {s}'s episodes of {r}."),
        T("Which entity was the {which} to hold relation {r} with {o}?", side="o"),
        T("Among the entities linked to {o} through {r}, which was the {which} one to start?", side="o"),
    ),
    "event_at_the_time_of_another_event": (
        T("When {a_s} began holding {a_r} towards {a_o}, which entities did {s} have relation {r} with?", implicit=True, meta={"anchor_point": "start"}),
        T("At the moment {a_s} ceased holding {a_r} towards {a_o}, which entities was {s} linked to through {r}?", implicit=True, meta={"anchor_point": "end"}),
        T("When {a_s} started holding {a_r} towards {a_o}, which entities held {r} with {o}?", side="o", implicit=True, meta={"anchor_point": "start"}),
        T("When the relation {a_r} from {a_s} to {a_o} ended, which entities had {r} towards {o}?", side="o", implicit=True, meta={"anchor_point": "end"}),
        T("Which entities did {s} hold {r} with at the start of the relation {a_r} between {a_s} and {a_o}?", implicit=True, meta={"anchor_point": "start"}),
    ),
    "number_of_events_in_time_interval": (
        T("How many times did {s} hold relation {r} with some entity entirely within {a} to {b}?"),
        T("Count the episodes in which {s} had {r} with some entity, considering only those fully contained in [{a}, {b}]."),
        T("How many episodes of entities holding {r} towards {o} fall completely inside the interval {a} to {b}?", side="o"),
        T("Between {a} and {b}, how many episodes of relation {r} towards {o} both started and ended inside that window?", side="o"),
        T("How many separate episodes of {s} holding {r} towards {o} occurred entirely between {a} and {b}?", side="full"),
        T("While {a_s} held {a_r} towards {a_o}, how many complete episodes of {s} holding {r} took place?", implicit=True),
    ),
    "relation_duration": (
        T("How many years did {s} hold relation {r} towards {o}?", side="full"),
        T("How long did the relation {r} between {s} and {o} last?", side="full"),
        T("For how many years did {s} maintain {r} with {o}?", side="full"),
        T("How long did {s} hold {r} towards {o} the {occurrence_ord} time?", side="full", meta={"occurrence": True}),
        T("What is the duration, in years, of episode {occurrence} (by start order) of {s} holding {r} towards {o}?", side="full", meta={"occurrence": True}),
    ),
    "get_entity_by_duration": (
        T("Which entity did {s} hold relation {r} with for the {mode} time?"),
        T("Among all entities {s} was linked to through {r}, which one had the {mode} episode?"),
        T("Find the entity with the {mode} single episode of {r} from {s}."),
        T("Which entity held {r} towards {o} for the {mode} period?", side="o"),
        T("Of the entities holding {r} with {o}, which had the {mode}-lasting episode?", side="o"),
    ),
    "find_entities_during_triplet": (
        T("While {a_s} held {a_r} towards {a_o}, which other entities did {s} hold relation {r} with at some overlapping time?", implicit=True),
        T("Which entities did {s} have {r} with while the relation {a_r} between {a_s} and {a_o} was in effect?", implicit=True),
        T("Throughout the episode of {a_r} between {a_s} and {a_o}, which entities was {s} linked to via {r} at any point?", implicit=True),
        T("During the period in which {a_s} held {a_r} towards {a_o}, which entities held {r} with {o}?", side="o", implicit=True),
        T("List the entities holding {r} towards {o} whose episodes overlapped the time {a_s} held {a_r} towards {a_o}.", side="o", implicit=True),
    ),
    "get_entities_in_between": (
        T("After {s} began holding relation {r} with {from_entity} and before it began with {to_entity}, which other entities did {s} start holding {r} with?"),
        T("Which entities did {s} hold {r} towards whose episodes started strictly after the {from_entity} episode began and strictly before the {to_entity} episode began?"),
        T("From the start of the episode of {s} with {from_entity} until the start of its episode with {to_entity}, both under {r}, list the entities started in between."),
        T("Between when {from_entity} started holding {r} with {o} and when {to_entity} did, which other entities began holding {r} with {o}?", side="o"),
        T("List the entities whose episodes of {r} towards {o} began after the one of {from_entity} began and before the one of {to_entity} began.", side="o"),
    ),
    "calculate_total_relation_time": (
        T("For how many years in total did {s} hold relation {r} towards any entity, counting overlapping episodes once?"),
        T("What is the total elapsed time covered by the episodes of {s} under relation {r}?"),
        T("How long in total was some entity holding {r} towards {o}, merging overlapping episodes?", side="o"),
        T("Counting each covered year once, for how long was {o} the target of relation {r}?", side="o"),
        T("How many years in total did {s} hold {r} towards {o} across all episodes, counting overlaps once?", side="full"),
    ),
    "is_triplet_within_timespan": (
        T("Did {s} hold relation {r} towards {o} entirely within the interval {a} to {b}?", side="full"),
        T("Was there an episode of {r} from {s} to {o} that both started and ended between {a} and {b}?", side="full"),
        T("Did the relation {r} between {s} and {o} fit completely inside [{a}, {b}]?", side="full"),
        T("Between {a} and {b}, did {s} ever hold {r} towards {o} from start to finish within that window?", side="full"),
        T("Did {s} hold {r} towards {o} entirely while {a_s} held {a_r} towards {a_o}?", side="full", implicit=True),
    ),
    "check_interval_without_relation": (
        T("Between {a} and {b}, was {s} ever without holding relation {r} towards any entity for more than {n} years?"),
        T("Within [{a}, {b}], did {s} go more than {n} consecutive years without any {r} episode?"),
        T("Was there a stretch longer than {n} years between {a} and {b} with no entity holding {r} towards {o}?", side="o"),
        T("From {a} to {b}, did {o} spend over {n} years at a stretch without incoming {r}?", side="o"),
        T("Between {a} and {b}, was the relation {r} from {s} to {o} absent for more than {n} years at a time?", side="full"),
    ),
    "compare_triplet_durations": (
        T("Did {s1} hold relation {r1} towards {o1} for a {op} total time than {s2} held {r2} towards {o2}?", side="none"),
        T("Was the total duration of {r1} from {s1} to {o1} {op} than that of {r2} from {s2} to {o2}?", side="none"),
        T("Comparing total merged time, did ({s1}, {r1}, {o1}) last {op} than ({s2}, {r2}, {o2})?", side="none"),
        T("Did the episodes of {s1} holding {r1} with {o1} add up to a {op} time than those of {s2} holding {r2} with {o2}?", side="none"),
        T("Is ({s1}, {r1}, {o1}) {op} in total duration than ({s2}, {r2}, {o2})?", side="none"),
    ),
    "sequence_of_relations_in_interval": (
        T("Between {a} and {b}, did {s} experience {steps_text}, in that order?", side="none"),
        T("Within the window {a} to {b}, did the following happen in order for {s}: {steps_text}?", side="none"),
        T("In the interval [{a}, {b}], did {s} have {steps_text} occurring in sequence?", side="none"),
        T("Did {steps_text} happen in that order for {s} between {a} and {b}?", side="none"),
        T("Considering only the years {a} to {b}, did {s} go through {steps_text} in that order?", side="none"),
    ),
    "count_relations_with_duration": (
        T("How many episodes of {s} holding relation {r} overlapping {a} to {b} lasted {cmp_text} {n} years?"),
        T("Count the {r} episodes of {s} that touch the interval {a} to {b} and run {cmp_text} {n} years."),
        T("Between {a} and {b}, how many episodes of {r} towards {o} had a duration {cmp_text} {n} years?", side="o"),
        T("Of the episodes of {r} towards {o} overlapping {a} to {b}, how many lasted {cmp_text} {n} years?", side="o"),
        T("How many episodes of {s} holding {r} with {o} overlapped [{a}, {b}] and lasted {cmp_text} {n} years?", side="full"),
    ),
}

_CMP_TEXT = {"<": "less than", "<=": "at most", "=": "exactly", ">=": "at least", ">": "more than"}
_ORDINALS = {1: "1st", 2: "2nd", 3: "3rd"}


def _ordinal(n: int) -> str:
    return _ORDINALS.get(n, f"{n}th")


# ---------------------------------------------------------------------------
# per-type parameter samplers


def _pattern_args(f: Fact, side: str) -> dict:
    if side == "s":
        return {"s": f.s, "r": f.r, "o": "*"}
    if side == "o":
        return {"s": "*", "r": f.r, "o": f.o}
    return {"s": f.s, "r": f.r, "o": f.o}


def _pattern_matches(g: TKG, args: dict) -> list[Fact]:
    return g.query(
        None if args.get("s") in (None, "*") else args["s"],
        None if args.get("r") in (None, "*") else args["r"],
        None if args.get("o") in (None, "*") else args["o"],
    )


def _wildcard_entities(args: dict, facts: Iterable[Fact]) -> list[str]:
    pos = "o" if args.get("o") in (None, "*") else "s"
    return [getattr(f, pos) for f in facts]


def _rand_fact(rng: random.Random, g: TKG) -> Fact:
    return g.facts[rng.randrange(len(g.facts))]


def _rand_window(rng: random.Random, g: TKG, around: Fact | None = None) -> tuple[int, int]:
    if around is not None and rng.random() < 0.7:
        a = around.t0 - rng.randint(0, 6)
        b = around.t1 + rng.randint(0, 6)
    else:
        times = [t for f in g.facts for t in (f.t0, f.t1)]
        a = rng.choice(times) - rng.randint(0, 10)
        b = a + rng.randint(1, 40)
    return (a, b) if a <= b else (b, a)


def _episode_triple(rng: random.Random, g: TKG, multi: bool = False, tries: int = 30) -> Fact | None:
    """A random fact whose triple has exactly one episode, or several with ``multi``."""
    for _ in range(tries):
        f = _rand_fact(rng, g)
        if (len(g.query(f.s, f.r, f.o)) > 1) == multi:
            return f
    return None


def _anchor_hitting(rng: random.Random, g: TKG, targets: list[Fact], point: str, tries: int = 30) -> Fact | None:
    """Unique-episode anchor whose chosen endpoint lands inside some target episode."""
    for _ in range(tries):
        anchor = _episode_triple(rng, g)
        if anchor is None:
            return None
        t = anchor.t0 if point == "start" else anchor.t1
        if any(f.interval.contains_point(t) for f in targets):
            return anchor
    return None


def _anchor_fills(anchor: Fact) -> dict:
    return {"a_s": anchor.s, "a_r": anchor.r, "a_o": anchor.o}


def _anchored(args: dict, anchor: Fact, **extra) -> tuple[dict, dict]:
    """A pattern's ``args`` with the anchor triplet and ``extra``; fills of the pattern and the anchor."""
    fills = {**args, **_anchor_fills(anchor)}
    args["anchor"] = [anchor.s, anchor.r, anchor.o]
    args.update(extra)
    return args, fills


def _sample_ranked(rng, g, tpl, key: str | None = None, choices: tuple[str, ...] = ()):
    """A pattern matching at least two facts, with ``key`` drawn from ``choices`` when given."""
    f = _rand_fact(rng, g)
    args = _pattern_args(f, tpl.side)
    if len(_pattern_matches(g, args)) < 2:
        return None
    if key is not None:
        args[key] = rng.choice(choices)
    return args, dict(args)


def _sample_before_after(rng, g, tpl):
    f = _rand_fact(rng, g)
    args = _pattern_args(f, tpl.side)
    matches = _pattern_matches(g, args)
    if len(matches) < 2:
        return None
    ordered = sort_facts(matches)
    direction = rng.choice(("before", "after"))
    # pick a pivot that has a neighbour in the chosen direction
    idx = rng.randrange(1, len(ordered)) if direction == "before" else rng.randrange(len(ordered) - 1)
    pivot = _wildcard_entities(args, [ordered[idx]])[0]
    args.update(pivot=pivot, direction=direction)
    return args, dict(args)


def _sample_event_at_time_t(rng, g, tpl):
    f = _rand_fact(rng, g)
    args = _pattern_args(f, tpl.side)
    fills = dict(args)
    if tpl.implicit:
        point = tpl.meta.get("anchor_point", "start")
        anchor = _anchor_hitting(rng, g, _pattern_matches(g, args), point)
        if anchor is None:
            return None
        t = anchor.t0 if point == "start" else anchor.t1
        fills.update(_anchor_fills(anchor))
    else:
        t = rng.randint(f.t0, f.t1)
    args["t"] = t
    fills["t"] = t
    return args, fills


def _sample_episode(rng, g, tpl):
    """One triple's episode: its endpoint (when the template names one) or its duration."""
    needs_occurrence = tpl.meta.get("occurrence", False)
    f = _episode_triple(rng, g, multi=needs_occurrence)
    if f is None:
        return None
    episodes = g.query(f.s, f.r, f.o)
    occurrence = rng.randint(1, len(episodes)) if needs_occurrence else None
    args = {"s": f.s, "r": f.r, "o": f.o}
    if "endpoint" in tpl.meta:
        args["endpoint"] = tpl.meta["endpoint"]
    fills = dict(args)
    if occurrence is not None:
        args["occurrence"] = occurrence
        fills["occurrence"] = occurrence
        fills["occurrence_ord"] = _ordinal(occurrence)
    return args, fills


def _sample_event_at_another(rng, g, tpl):
    f = _rand_fact(rng, g)
    args = _pattern_args(f, tpl.side)
    point = tpl.meta["anchor_point"]
    anchor = _anchor_hitting(rng, g, _pattern_matches(g, args), point)
    if anchor is None:
        return None
    return _anchored(args, anchor, anchor_point=point)


def _sample_window(rng, g, tpl):
    """A pattern and a window, given literally or as an anchor episode."""
    f = _rand_fact(rng, g)
    args = _pattern_args(f, tpl.side)
    fills = dict(args)
    if tpl.implicit:
        anchor = _episode_triple(rng, g)
        if anchor is None or (anchor.s, anchor.r, anchor.o) == (f.s, f.r, f.o):
            return None
        window = (anchor.t0, anchor.t1)
        fills.update(_anchor_fills(anchor))
    else:
        window = _rand_window(rng, g, around=f)
        fills.update(a=window[0], b=window[1])
    args["window"] = list(window)
    return args, fills


def _sample_during_triplet(rng, g, tpl):
    f = _rand_fact(rng, g)
    args = _pattern_args(f, tpl.side)
    matches = _pattern_matches(g, args)
    for _ in range(30):
        anchor = _episode_triple(rng, g)
        if anchor is None:
            return None
        if any(x != anchor and x.interval.overlaps(anchor.interval) for x in matches):
            return _anchored(args, anchor)
    return None


def _sample_in_between(rng, g, tpl):
    f = _rand_fact(rng, g)
    args = _pattern_args(f, tpl.side)
    matches = _pattern_matches(g, args)
    if len(matches) < 3:
        return None
    ordered = sort_facts(matches)
    entities = _wildcard_entities(args, ordered)
    i = rng.randrange(len(ordered) - 2)
    j = rng.randrange(i + 2, len(ordered))
    from_entity, to_entity = entities[i], entities[j]
    if from_entity == to_entity:
        return None
    args.update(from_entity=from_entity, to_entity=to_entity)
    return args, dict(args)


def _sample_total_time(rng, g, tpl):
    f = _rand_fact(rng, g)
    args = _pattern_args(f, tpl.side)
    return args, dict(args)


def _sample_without_relation(rng, g, tpl):
    f = _rand_fact(rng, g)
    args = _pattern_args(f, tpl.side)
    window = _rand_window(rng, g, around=f)
    if window[1] - window[0] < 2:
        return None
    n = rng.randint(0, 8)
    args["window"] = list(window)
    args["min_gap"] = n
    fills = dict(args)
    fills.update(a=window[0], b=window[1], n=n)
    return args, fills


def _sample_compare_durations(rng, g, tpl):
    fa, fb = _rand_fact(rng, g), _rand_fact(rng, g)
    if (fa.s, fa.r, fa.o) == (fb.s, fb.r, fb.o):
        return None
    op = rng.choice(("longer", "shorter"))
    args = {
        "first": [fa.s, fa.r, fa.o],
        "second": [fb.s, fb.r, fb.o],
        "op": op,
    }
    fills = {
        "s1": fa.s, "r1": fa.r, "o1": fa.o,
        "s2": fb.s, "r2": fb.r, "o2": fb.o,
        "op": op,
    }
    return args, fills


def _steps_text(steps: Sequence[tuple[str, str]]) -> str:
    parts = [
        f"the {'start' if endpoint == 'start' else 'end'} of a {rel} episode"
        for rel, endpoint in steps
    ]
    if len(parts) == 1:
        return parts[0]
    return ", then ".join(parts)


def _sample_sequence(rng, g, tpl):
    f = _rand_fact(rng, g)
    subject_facts = g.query(s=f.s)
    if not subject_facts:
        return None
    k = rng.choice((2, 2, 3))
    steps = []
    for _ in range(k):
        sf = subject_facts[rng.randrange(len(subject_facts))]
        steps.append([sf.r, rng.choice(("start", "end"))])
    window = _rand_window(rng, g, around=f)
    args = {"s": f.s, "steps": steps, "window": list(window)}
    fills = {
        "s": f.s,
        "steps_text": _steps_text([tuple(st) for st in steps]),
        "a": window[0],
        "b": window[1],
    }
    return args, fills


def _sample_count_with_duration(rng, g, tpl):
    f = _rand_fact(rng, g)
    args = _pattern_args(f, tpl.side)
    window = _rand_window(rng, g, around=f)
    comparator = rng.choice(("<", "<=", "=", ">=", ">"))
    threshold = rng.randint(0, 10)
    args.update(comparator=comparator, threshold=threshold, window=list(window))
    fills = dict(args)
    fills.update(a=window[0], b=window[1], n=threshold, cmp_text=_CMP_TEXT[comparator])
    return args, fills


def sample_call(rng: random.Random, g: TKG, qtype: str, tries: int = 50) -> FunctionCall | None:
    """Sample plausible arguments for one question type over a graph.

    For tests that need valid-ish calls (the generator draws from ``_SAMPLERS``
    itself); returns None when the graph cannot support the type.
    """
    if not g.facts:
        return None
    templates = TEMPLATES[qtype]
    sampler = _SAMPLERS[qtype]
    for attempt in range(tries):
        tpl = templates[attempt % len(templates)]
        sampled = sampler(rng, g, tpl)
        if sampled is not None:
            return FunctionCall(qtype, sampled[0])
    return None


_SAMPLERS = {
    "timeline": _sample_ranked,
    "before_after": _sample_before_after,
    "event_at_time_t": _sample_event_at_time_t,
    "event_at_what_time": _sample_episode,
    "first_last": functools.partial(_sample_ranked, key="which", choices=("first", "last")),
    "event_at_the_time_of_another_event": _sample_event_at_another,
    "number_of_events_in_time_interval": _sample_window,
    "relation_duration": _sample_episode,
    "get_entity_by_duration": functools.partial(_sample_ranked, key="mode", choices=("longest", "shortest")),
    "find_entities_during_triplet": _sample_during_triplet,
    "get_entities_in_between": _sample_in_between,
    "calculate_total_relation_time": _sample_total_time,
    "is_triplet_within_timespan": _sample_window,
    "check_interval_without_relation": _sample_without_relation,
    "compare_triplet_durations": _sample_compare_durations,
    "sequence_of_relations_in_interval": _sample_sequence,
    "count_relations_with_duration": _sample_count_with_duration,
}


# ---------------------------------------------------------------------------
# instances


@dataclass
class TaskInstance:
    id: str
    question_text: str
    gold: Answer
    canonical_call: FunctionCall
    tkg: TKG
    render_seed: int
    tkg_ref: str | None = None  # relative path used on export; inline facts if None
    template_index: int | None = None  # in-memory only, for distribution checks

    @property
    def question_type(self) -> str:
        return self.canonical_call.name

    @property
    def answer_type(self) -> str:
        return self.gold.kind

    @property
    def tkg_text(self) -> str:
        """``render_text(tkg, seed=render_seed)``, rendered on first use and kept by the graph for its instances."""
        return self.tkg.rendered(self.render_seed, render_text)

    @property
    def token_estimate(self) -> int:
        """The estimate of :attr:`tkg_text`'s tokens, from the text's length: the kept text's, or else one
        computed without rendering the text (:meth:`TKG.text_length`)."""
        return estimate_tokens(self.tkg.text_length(self.render_seed))

    def to_json(self) -> dict:
        if self.tkg_ref is not None:
            tkg_field: object = self.tkg_ref
        else:
            tkg_field = [[f.s, f.r, f.o, f.t0, f.t1] for f in self.tkg.facts]
        return {
            "id": self.id,
            "type": self.question_type,
            "question": self.question_text,
            "answer_type": self.answer_type,
            "gold": self.gold.to_json(),
            "canonical_call": self.canonical_call.to_json(),
            "tkg": tkg_field,
            "render_seed": self.render_seed,
        }


def _leaks_gold(gold: Answer, question: str, call: FunctionCall) -> bool:
    """True when a gold entity id appears in the text without being a call argument."""
    if gold.kind == "entity":
        gold_ids = {gold.value}
    elif gold.kind == "entity_list":
        gold_ids = set(gold.value)
    else:
        return False
    allowed: set[str] = set()

    def collect(v):
        if isinstance(v, str):
            allowed.add(v)
        elif isinstance(v, (list, tuple)):
            for item in v:
                collect(item)

    collect(list(call.arguments.values()))
    for gid in gold_ids - allowed:
        if re.search(rf"(?<![A-Za-z0-9_]){re.escape(gid)}(?![A-Za-z0-9_])", question):
            return True
    return False


def generate_instances(
    g: TKG,
    per_type: int,
    types: Sequence[str] | None = None,
    seed: int = 0,
    tkg_ref: str | None = None,
) -> list[TaskInstance]:
    """Sample ``per_type`` verified-ready instances for each requested type.

    Templates rotate deterministically per instance so a 20-instance sample
    exercises every template of a type; parameters come from a per-type
    sub-seeded RNG.  Gold answers are computed by dispatch; sampling retries
    until the answer is a non-error and no gold entity leaks into the text.
    """
    requested = list(types) if types is not None else list(QUESTION_TYPES)
    unknown = set(requested) - set(QUESTION_TYPES)
    if unknown:
        raise ValueError(f"unknown question types: {sorted(unknown)}")
    if not g.facts:
        raise TkgqaError("cannot generate questions over a graph with no facts")
    render_seed = subseed(seed, "render")

    instances = []
    for qtype in requested:
        rng = random.Random(subseed(seed, f"instances:{qtype}"))
        templates = TEMPLATES[qtype]
        sampler = _SAMPLERS[qtype]
        for i in range(per_type):
            instance = None
            for attempt in range(RETRY_BOUND):
                tpl_index = (i + attempt) % len(templates)
                tpl = templates[tpl_index]
                sampled = sampler(rng, g, tpl)
                if sampled is None:
                    continue
                args, fills = sampled
                call = FunctionCall(qtype, args)
                try:
                    gold = dispatch(g, call)
                except TkgqaError:
                    continue
                # prefer questions with substantive answers while retries are cheap
                if gold.kind == "entity_list" and not gold.value and attempt < RETRY_BOUND // 2:
                    continue
                question = tpl.text.format(**fills)
                if _leaks_gold(gold, question, call):
                    continue
                instance = TaskInstance(
                    id=f"{qtype}-{i:04d}",
                    question_text=question,
                    gold=gold,
                    canonical_call=call,
                    tkg=g,
                    render_seed=render_seed,
                    tkg_ref=tkg_ref,
                    template_index=tpl_index,
                )
                break
            if instance is None:
                raise UnsatisfiableTypeError(qtype, RETRY_BOUND)
            instances.append(instance)
    return instances


def verify_instance(instance: TaskInstance) -> bool:
    """True iff the independent brute-force oracle reproduces the gold answer exactly."""
    try:
        recomputed = oracle_answer(instance.tkg, instance.canonical_call)
    except TkgqaError:
        return False
    return recomputed == instance.gold


# ---------------------------------------------------------------------------
# dataset files (JSON Lines)


def export_instances(instances: Iterable[TaskInstance], sink: str | Path | IO[str]) -> None:
    write_jsonl((json.dumps(inst.to_json(), sort_keys=True) for inst in instances), sink)


_DATASET_KEYS = {"id", "type", "question", "answer_type", "gold", "canonical_call", "tkg", "render_seed"}


def _instance_from_json(line_no: int, obj: dict, base_dir: Path, graph_at) -> TaskInstance:
    missing = _DATASET_KEYS - set(obj)
    if missing:
        hint = "; a dataset without render_seed must be regenerated with gen-dataset" if "render_seed" in missing else ""
        raise ParseError(line_no, f"missing keys {sorted(missing)}{hint}")
    seed = obj["render_seed"]
    if type(seed) is not int:  # bool is an int subclass
        raise ParseError(line_no, f"render_seed must be an integer, got {seed!r}")
    for key in ("id", "question"):
        if not isinstance(obj[key], str):
            raise ParseError(line_no, f"{key} must be a string, got {obj[key]!r}")
    tkg_field = obj["tkg"]
    tkg_ref: str | None = None
    if isinstance(tkg_field, str):
        tkg_ref = tkg_field
        try:
            path = (base_dir / tkg_field).resolve()
        except ValueError as exc:  # a NUL or a lone surrogate in the path
            raise ParseError(line_no, f"bad tkg path: {exc}") from None
        graph = graph_at(path)
    elif isinstance(tkg_field, list):
        try:
            graph = TKG(tkg_field)
        except TkgqaError as exc:
            raise ParseError(line_no, f"bad inline tkg: {exc}") from exc
    else:
        raise ParseError(line_no, "tkg must be a path string or an inline fact array")
    try:
        gold = Answer.from_json(obj["gold"])
        call = FunctionCall.from_json(obj["canonical_call"])
        check_call(call)  # the oracle takes the arguments as they are written
    except (ValueError, TypeError, TkgqaError) as exc:
        raise ParseError(line_no, str(exc)) from exc
    # the file keeps a copy of the question and answer types, which the call and the gold decide
    for key, derived, source in (("type", call.name, "canonical_call"), ("answer_type", gold.kind, "gold")):
        if obj[key] != derived:
            raise ParseError(line_no, f"{key} {obj[key]!r} disagrees with the {source}'s {derived!r}")
    return TaskInstance(
        id=obj["id"],
        question_text=obj["question"],
        gold=gold,
        canonical_call=call,
        tkg=graph,
        render_seed=seed,
        tkg_ref=tkg_ref,
    )


def import_instances(source: str | Path, base_dir: str | Path | None = None) -> list[TaskInstance]:
    """Load a dataset file; graph paths resolve relative to the file (or base_dir).

    Each graph file is loaded once, and its instances share that graph, so
    they share its text too, rendered when it is first read (or only its
    length computed, when that is all that is read).  A repeated
    instance id is a :class:`ParseError`: transcripts and rows name an
    instance by its id.
    """
    path = Path(source)
    base = Path(base_dir) if base_dir is not None else path.parent
    graph_at = functools.cache(load_tkg)
    instances, first_line = [], {}
    for line_no, obj in read_jsonl(path):
        instances.append(inst := _instance_from_json(line_no, obj, base, graph_at))
        if (first := first_line.setdefault(inst.id, line_no)) != line_no:
            raise ParseError(line_no, f"instance id {inst.id!r} repeats line {first}")
    return instances
