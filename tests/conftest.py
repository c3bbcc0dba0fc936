import random

import pytest

from tkgqa.answers import FunctionCall
from tkgqa.graph import Fact, TKG
from tkgqa.generator import GraphParams, generate_graph

# Shared six-fact graph used throughout the solver and DSL tests.
F1 = Fact("E1", "R1", "E2", 2000, 2005)
F2 = Fact("E1", "R1", "E3", 2006, 2010)
F3 = Fact("E1", "R1", "E4", 2012, 2020)
F4 = Fact("E5", "R1", "E2", 2001, 2003)
F5 = Fact("E1", "R2", "E6", 2004, 2008)
F6 = Fact("E7", "R1", "E2", 2003, 2012)

FIXTURE_FACTS = (F1, F2, F3, F4, F5, F6)


@pytest.fixture
def fixture_a() -> TKG:
    return TKG(FIXTURE_FACTS)


def random_graph(seed: int, n_facts: int | None = None) -> TKG:
    """Small random graph for property loops."""
    rng = random.Random(seed)
    params = GraphParams(
        seed=seed,
        n_entities=rng.randint(6, 14),
        n_relations=rng.randint(2, 5),
        n_facts=n_facts if n_facts is not None else rng.randint(8, 60),
        time_range=(1950, 2050),
        max_episodes_per_triple=3,
    )
    return generate_graph(params)


def random_fact_list(rng: random.Random, size: int | None = None) -> list[Fact]:
    """Plain random fact list (duplicates allowed) for primitive property tests."""
    n = size if size is not None else rng.randint(0, 30)
    out = []
    for _ in range(n):
        t0 = rng.randint(1900, 2050)
        out.append(
            Fact(
                f"E{rng.randint(1, 9)}",
                f"R{rng.randint(1, 4)}",
                f"E{rng.randint(1, 9)}",
                t0,
                t0 + rng.randint(0, 20),
            )
        )
    return out


def golden_dsl_source(call: FunctionCall) -> str:
    """Hand-written program shape per question type, filled from a call.

    Four types use the pipeline primitives directly; the rest go through the
    `call` form.  Used by the DSL parse corpus and the golden-program
    equivalence runs.
    """
    args = call.arguments

    def pat():
        return f"facts({args.get('s', '*')}, {args.get('r', '*')}, {args.get('o', '*')})"

    def triple(key):
        s, r, o = args[key]
        return f"({s}, {r}, {o})"

    def window():
        a, b = args["window"]
        return f"[{a}, {b}]"

    name = call.name
    if name == "timeline":
        position = "subjects" if args.get("s") in (None, "*") else "objects"
        return f"{pat()} |> sort(start, asc) |> {position}"
    if name == "number_of_events_in_time_interval":
        a, b = args["window"]
        return f"{pat()} |> filter_within({a}, {b}) |> count"
    if name == "calculate_total_relation_time":
        return f"{pat()} |> merge_total"
    if name == "count_relations_with_duration":
        a, b = args["window"]
        return f"{pat()} |> filter_overlap({a}, {b}) |> filter_dur({args['comparator']}, {args['threshold']}) |> count"
    if name == "before_after":
        return f"call before_after({args['s']}, {args['r']}, {args['o']}, {args['pivot']}, {args['direction']})"
    if name == "event_at_time_t":
        return f"call event_at_time_t({args['s']}, {args['r']}, {args['o']}, {args['t']})"
    if name == "event_at_what_time":
        tail = f", {args['occurrence']}" if "occurrence" in args else ""
        return f"call event_at_what_time({args['s']}, {args['r']}, {args['o']}, {args['endpoint']}{tail})"
    if name == "first_last":
        return f"call first_last({args['s']}, {args['r']}, {args['o']}, {args['which']})"
    if name == "event_at_the_time_of_another_event":
        return (
            f"call event_at_the_time_of_another_event({triple('anchor')}, {args['anchor_point']}, "
            f"{args['s']}, {args['r']}, {args['o']})"
        )
    if name == "relation_duration":
        tail = f", {args['occurrence']}" if "occurrence" in args else ""
        return f"call relation_duration({args['s']}, {args['r']}, {args['o']}{tail})"
    if name == "get_entity_by_duration":
        return f"call get_entity_by_duration({args['s']}, {args['r']}, {args['o']}, {args['mode']})"
    if name == "find_entities_during_triplet":
        return f"call find_entities_during_triplet({triple('anchor')}, {args['s']}, {args['r']}, {args['o']})"
    if name == "get_entities_in_between":
        return (
            f"call get_entities_in_between({args['s']}, {args['r']}, {args['o']}, "
            f"{args['from_entity']}, {args['to_entity']})"
        )
    if name == "is_triplet_within_timespan":
        return f"call is_triplet_within_timespan({args['s']}, {args['r']}, {args['o']}, {window()})"
    if name == "check_interval_without_relation":
        return (
            f"call check_interval_without_relation({args['s']}, {args['r']}, {args['o']}, "
            f"{window()}, {args['min_gap']})"
        )
    if name == "compare_triplet_durations":
        return f"call compare_triplet_durations({triple('first')}, {triple('second')}, {args['op']})"
    if name == "sequence_of_relations_in_interval":
        steps = ", ".join(f"({r}, {endpoint})" for r, endpoint in args["steps"])
        return f"call sequence_of_relations_in_interval({args['s']}, [{steps}], {window()})"
    raise AssertionError(name)


def stored_strings(records):
    """``(where, value)`` of each string of transcripts records, in the order it is written and read.

    ``where`` is ``(line, turn)`` for a reply and ``(line, turn, k)`` for a
    prompt's ``k``-th piece; a ``None`` piece stands for the instance's
    rendered text and is no stored string.  ``value`` is the string as
    stored: in full, or as a reference (a list of ints) to where it was first
    held.  Records built from in-memory turns walk the same way, every value
    in full.
    """
    for line, record in enumerate(records):
        for index, turn in enumerate(record["transcript"]):
            yield from (((line, index, k), piece) for k, piece in enumerate(turn["prompt"]) if piece is not None)
            yield (line, index), turn["reply"]
