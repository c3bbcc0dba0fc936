import hashlib
import inspect
import json
import random
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import assume, given, settings, strategies as st

from tkgqa.answers import Answer, FunctionCall
from tkgqa.errors import (
    AmbiguousEpisodeError,
    ArgumentTypeError,
    NoMatchingFactsError,
    OccurrenceOutOfRangeError,
    UnknownFunctionError,
)
from tkgqa.generator import sample_call
from tkgqa.graph import TKG, Fact
from tkgqa.oracle import oracle_answer
from tkgqa import pipelines, solvers
from tkgqa.solvers import dispatch, function_names, function_spec, function_specs, schema_bundle

from conftest import random_graph


def call(name, **arguments):
    return FunctionCall(name, arguments)


# Golden values for the shared fixture.  Each expected answer is first
# recomputed by the brute-force oracle, then asserted against dispatch, so a
# regression in either path fails loudly.
GOLDEN = [
    (call("timeline", s="E1", r="R1", o="*"), Answer("entity_list", ["E2", "E3", "E4"])),
    (call("timeline", s="*", r="R1", o="E2"), Answer("entity_list", ["E1", "E5", "E7"])),
    (call("before_after", s="E1", r="R1", o="*", pivot="E3", direction="before"), Answer("entity", "E2")),
    (call("before_after", s="E1", r="R1", o="*", pivot="E3", direction="after"), Answer("entity", "E4")),
    (call("event_at_time_t", s="*", r="R1", o="E2", t=2002), Answer("entity_list", ["E1", "E5"])),
    (call("event_at_time_t", s="*", r="R1", o="E2", t=2010), Answer("entity_list", ["E7"])),
    (call("event_at_time_t", s="*", r="R1", o="E2", t=1990), Answer("entity_list", [])),
    (call("event_at_what_time", s="E1", r="R1", o="E3", endpoint="interval"), Answer("time_interval", (2006, 2010))),
    (call("event_at_what_time", s="E1", r="R1", o="E3", endpoint="end"), Answer("time_point", 2010)),
    (call("first_last", s="E1", r="R1", o="*", which="first"), Answer("entity", "E2")),
    (call("first_last", s="E1", r="R1", o="*", which="last"), Answer("entity", "E4")),
    (
        call("event_at_the_time_of_another_event", anchor=["E1", "R1", "E3"], anchor_point="start", s="E1", r="R2", o="*"),
        Answer("entity_list", ["E6"]),
    ),
    (
        call("event_at_the_time_of_another_event", anchor=["E1", "R1", "E2"], anchor_point="start", s="E1", r="R2", o="*"),
        Answer("entity_list", []),
    ),
    (call("number_of_events_in_time_interval", s="E1", r="R1", o="*", window=[2000, 2011]), Answer("count", 2)),
    (call("number_of_events_in_time_interval", s="E1", r="R1", o="*", window=[1900, 2100]), Answer("count", 3)),
    (call("number_of_events_in_time_interval", s="E1", r="R1", o="*", window=[1900, 1950]), Answer("count", 0)),
    (call("relation_duration", s="E1", r="R1", o="E3"), Answer("duration", 4)),
    (call("relation_duration", s="E1", r="R1", o="E2", occurrence=1), Answer("duration", 5)),
    (call("get_entity_by_duration", s="E1", r="R1", o="*", mode="longest"), Answer("entity", "E4")),
    (call("get_entity_by_duration", s="E1", r="R1", o="*", mode="shortest"), Answer("entity", "E3")),
    (
        call("find_entities_during_triplet", anchor=["E1", "R1", "E2"], s="*", r="R1", o="E2"),
        Answer("entity_list", ["E5", "E7"]),
    ),
    (
        call("find_entities_during_triplet", anchor=["E1", "R1", "E4"], s="*", r="R1", o="E2"),
        Answer("entity_list", ["E7"]),
    ),
    (
        call("find_entities_during_triplet", anchor=["E1", "R2", "E6"], s="*", r="R1", o="E4"),
        Answer("entity_list", []),  # anchor interval disjoint from every query fact
    ),
    (call("get_entities_in_between", s="E1", r="R1", o="*", from_entity="E2", to_entity="E4"), Answer("entity_list", ["E3"])),
    (call("get_entities_in_between", s="E1", r="R1", o="*", from_entity="E2", to_entity="E3"), Answer("entity_list", [])),
    (call("calculate_total_relation_time", s="E1", r="R1", o="*"), Answer("duration", 17)),
    (call("calculate_total_relation_time", s="*", r="R1", o="E2"), Answer("duration", 12)),
    (call("calculate_total_relation_time", s="E1", r="R2", o="E6"), Answer("duration", 4)),
    (call("is_triplet_within_timespan", s="E1", r="R1", o="E2", window=[1999, 2006]), Answer("boolean", True)),
    (call("is_triplet_within_timespan", s="E1", r="R1", o="E2", window=[2001, 2006]), Answer("boolean", False)),
    (call("is_triplet_within_timespan", s="E1", r="R1", o="E2", window=[2000, 2005]), Answer("boolean", True)),
    (call("check_interval_without_relation", s="E1", r="R1", o="*", window=[2000, 2020], min_gap=2), Answer("boolean", False)),
    (call("check_interval_without_relation", s="E1", r="R1", o="*", window=[2000, 2020], min_gap=1), Answer("boolean", True)),
    (call("compare_triplet_durations", first=["E1", "R1", "E2"], second=["E1", "R1", "E4"], op="longer"), Answer("boolean", False)),
    (call("compare_triplet_durations", first=["E1", "R1", "E2"], second=["E1", "R1", "E4"], op="shorter"), Answer("boolean", True)),
    (call("compare_triplet_durations", first=["E1", "R1", "E2"], second=["E1", "R1", "E2"], op="longer"), Answer("boolean", False)),
    (call("compare_triplet_durations", first=["E1", "R1", "E2"], second=["E1", "R1", "E2"], op="shorter"), Answer("boolean", False)),
    (
        call("sequence_of_relations_in_interval", s="E1", steps=[["R2", "start"], ["R1", "end"]], window=[2004, 2006]),
        Answer("boolean", True),
    ),
    (
        call("sequence_of_relations_in_interval", s="E1", steps=[["R1", "end"], ["R2", "start"]], window=[2004, 2005]),
        Answer("boolean", False),
    ),
    (call("sequence_of_relations_in_interval", s="E1", steps=[], window=[2004, 2005]), Answer("boolean", True)),
    (call("count_relations_with_duration", s="E1", r="R1", o="*", comparator=">=", threshold=4, window=[2000, 2020]), Answer("count", 3)),
    (call("count_relations_with_duration", s="E1", r="R1", o="*", comparator=">", threshold=5, window=[2000, 2020]), Answer("count", 1)),
    (call("count_relations_with_duration", s="E1", r="R1", o="*", comparator=">=", threshold=0, window=[2000, 2020]), Answer("count", 3)),
]


@pytest.mark.parametrize("fn_call,expected", GOLDEN, ids=lambda v: v.name if isinstance(v, FunctionCall) else None)
def test_golden_oracle_first(fixture_a, fn_call, expected):
    assert oracle_answer(fixture_a, fn_call) == expected
    assert dispatch(fixture_a, fn_call) == expected


class TestErrors:
    def test_no_matching_facts(self, fixture_a):
        with pytest.raises(NoMatchingFactsError):
            dispatch(fixture_a, call("timeline", s="E1", r="R9", o="*"))

    def test_before_after_no_predecessor(self, fixture_a):
        with pytest.raises(NoMatchingFactsError):
            dispatch(fixture_a, call("before_after", s="E1", r="R1", o="*", pivot="E2", direction="before"))

    def test_event_at_what_time_missing(self, fixture_a):
        with pytest.raises(NoMatchingFactsError):
            dispatch(fixture_a, call("event_at_what_time", s="E1", r="R1", o="E9"))

    def test_missing_anchor(self, fixture_a):
        with pytest.raises(NoMatchingFactsError):
            dispatch(
                fixture_a,
                call(
                    "event_at_the_time_of_another_event",
                    anchor=["E1", "R9", "E9"],
                    anchor_point="start",
                    s="E1",
                    r="R1",
                    o="*",
                ),
            )

    def test_ambiguous_episode(self):
        g = TKG([("E1", "R1", "E2", 2000, 2005), ("E1", "R1", "E2", 2007, 2009)])
        with pytest.raises(AmbiguousEpisodeError):
            dispatch(g, call("relation_duration", s="E1", r="R1", o="E2"))
        assert dispatch(g, call("relation_duration", s="E1", r="R1", o="E2", occurrence=2)) == Answer("duration", 2)

    def test_occurrence_out_of_range(self, fixture_a):
        with pytest.raises(OccurrenceOutOfRangeError):
            dispatch(fixture_a, call("relation_duration", s="E1", r="R1", o="E2", occurrence=2))

    def test_empty_window_gap_is_true(self, fixture_a):
        got = dispatch(fixture_a, call("check_interval_without_relation", s="E9", r="R1", o="*", window=[2000, 2010], min_gap=3))
        assert got == Answer("boolean", True)

    def test_two_wildcards_rejected(self, fixture_a):
        with pytest.raises(ArgumentTypeError):
            dispatch(fixture_a, call("timeline", s="E1", r="*", o="*"))

    def test_zero_wildcards_rejected(self, fixture_a):
        with pytest.raises(ArgumentTypeError):
            dispatch(fixture_a, call("timeline", s="E1", r="R1", o="E2"))

    def test_unknown_function(self, fixture_a):
        with pytest.raises(UnknownFunctionError):
            dispatch(fixture_a, call("nonexistent_fn"))

    def test_missing_required_arguments(self, fixture_a):
        with pytest.raises(ArgumentTypeError):
            dispatch(fixture_a, call("relation_duration", s="E1"))

    def test_unknown_argument_rejected(self, fixture_a):
        with pytest.raises(ArgumentTypeError):
            dispatch(fixture_a, call("timeline", s="E1", r="R1", o="*", bogus=1))

    def test_bad_interval_argument(self, fixture_a):
        with pytest.raises(ArgumentTypeError):
            dispatch(fixture_a, call("is_triplet_within_timespan", s="E1", r="R1", o="E2", window=[2010, 2000]))

    def test_singleton_first_and_last_agree(self, fixture_a):
        first = dispatch(fixture_a, call("first_last", s="E1", r="R2", o="*", which="first"))
        last = dispatch(fixture_a, call("first_last", s="E1", r="R2", o="*", which="last"))
        assert first == last == Answer("entity", "E6")

    def test_equal_durations_tie_break(self):
        g = TKG([("E1", "R1", "E2", 2000, 2004), ("E1", "R1", "E3", 2006, 2010)])
        got = dispatch(g, call("get_entity_by_duration", s="E1", r="R1", o="*", mode="longest"))
        assert got == Answer("entity", "E2")  # earliest start wins the tie


class TestSchemaBundle:
    def test_seventeen_entries(self):
        assert len(schema_bundle()) == 17

    def test_no_logic_in_schema(self):
        text = json.dumps(schema_bundle())  # must be JSON-serializable: no callables
        assert "lambda" not in text and "def " not in text
        for entry in schema_bundle():
            assert set(entry) == {"name", "description", "examples", "parameters"}

    def test_round_trip_preserves_names_and_parameters(self):
        bundle = json.loads(json.dumps(schema_bundle()))
        assert [e["name"] for e in bundle] == function_names()
        for entry in bundle:
            spec = function_spec(entry["name"])
            assert [p["name"] for p in entry["parameters"]] == [p.name for p in spec.use_guide]

    def test_descriptions_and_guides_non_empty(self):
        for spec in function_specs():
            assert spec.description.strip()
            assert spec.examples
            for param in spec.use_guide:
                assert param.description.strip()

    def test_stable_ordering(self):
        assert [e["name"] for e in schema_bundle()] == [e["name"] for e in schema_bundle()]

    def test_schema_text_is_pinned(self):
        """The exact text cotapi shows the model: a change to any description, example or parameter shows here."""
        text = pipelines._schema_text()
        assert len(text) == 20486
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "2c8ed8c3c07d371b47106ac2bf7ed9396d8c591ef4b4b578e34fc99824589815"
        )


def test_schema_dispatch_closed_world():
    # every schema parameter is a real keyword of the logic, and every
    # required keyword of the logic appears in the schema
    for spec in function_specs():
        signature = inspect.signature(spec.logic)
        kwargs = {
            name: param
            for name, param in signature.parameters.items()
            if name != "g"
        }
        schema_names = {p.name for p in spec.use_guide}
        assert schema_names <= set(kwargs), spec.name
        required = {
            name
            for name, param in kwargs.items()
            if param.default is inspect.Parameter.empty
        }
        assert required <= {p.name for p in spec.use_guide if p.required}, spec.name


class TestMonotonicity:
    def test_window_growth_never_decreases_count(self):
        for seed in range(50):
            g = random_graph(seed)
            rng = random.Random(seed)
            f = g.facts[rng.randrange(len(g.facts))]
            a, b = f.t0 - rng.randint(0, 5), f.t1 + rng.randint(0, 5)
            small = dispatch(g, call("number_of_events_in_time_interval", s=f.s, r=f.r, o="*", window=[a, b]))
            big = dispatch(g, call("number_of_events_in_time_interval", s=f.s, r=f.r, o="*", window=[a - 10, b + 10]))
            assert big.value >= small.value

    def test_adding_fact_never_decreases_total_time(self):
        for seed in range(50):
            g = random_graph(seed)
            rng = random.Random(seed)
            f = g.facts[rng.randrange(len(g.facts))]
            before = dispatch(g, call("calculate_total_relation_time", s=f.s, r=f.r, o="*"))
            extra = ("%s" % f.s, f.r, f"EX{seed}", f.t1 + 30, f.t1 + 35)
            grown = TKG(list(g.facts) + [extra])
            after = dispatch(grown, call("calculate_total_relation_time", s=f.s, r=f.r, o="*"))
            assert after.value >= before.value


def _outcome(fn, g, fn_call):
    try:
        return fn(g, fn_call)
    except Exception as exc:  # compared by exception type
        return type(exc).__name__


class TestOracleEquivalence:
    # quick development version; the full 17 x 1000 run lives in the
    # acceptance suite
    def test_sampled_calls_match_oracle(self):
        for seed in range(60):
            g = random_graph(seed)
            rng = random.Random(seed * 7 + 1)
            for name in function_names():
                fn_call = sample_call(rng, g, name)
                if fn_call is None:
                    continue
                assert _outcome(dispatch, g, fn_call) == _outcome(oracle_answer, g, fn_call), (
                    seed,
                    fn_call,
                )

    def test_error_paths_match_oracle(self, fixture_a):
        bad_calls = [
            call("timeline", s="E99", r="R1", o="*"),
            call("relation_duration", s="E1", r="R1", o="E2", occurrence=5),
            call("event_at_what_time", s="E7", r="R1", o="E2", endpoint="start", occurrence=3),
            call("get_entities_in_between", s="E1", r="R1", o="*", from_entity="E9", to_entity="E4"),
        ]
        for fn_call in bad_calls:
            assert _outcome(dispatch, fixture_a, fn_call) == _outcome(oracle_answer, fixture_a, fn_call)


def _shifted_call(fn_call, k):
    """``fn_call`` with its year arguments, ``t`` and ``window``, moved by ``k``."""
    args = dict(fn_call.arguments)
    if "t" in args:
        args["t"] += k
    if "window" in args:
        args["window"] = [year + k for year in args["window"]]
    return FunctionCall(fn_call.name, args)


def _shifted_outcome(outcome, k):
    """A year or an interval moved by ``k``; any other answer, or an error, as it is."""
    if isinstance(outcome, Answer) and outcome.kind == "time_point":
        return Answer("time_point", outcome.value + k)
    if isinstance(outcome, Answer) and outcome.kind == "time_interval":
        return Answer("time_interval", [year + k for year in outcome.value])
    return outcome


def _sampled_call(seed, name):
    """A small random graph and a call of ``name`` sampled over it; the example is skipped if none fits."""
    g = random_graph(seed)
    fn_call = sample_call(random.Random(seed), g, name)
    assume(fn_call is not None)
    return g, fn_call


@pytest.mark.parametrize("fn", [dispatch, oracle_answer], ids=["dispatch", "oracle"])
class TestMetamorphic:
    """Relations between the answers over a graph and over a transformed copy, for the solvers and the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6), name=st.sampled_from(function_names()), k=st.integers(-1000, 1000),
           endpoint=st.sampled_from(["start", "end", "interval"]))
    def test_shifting_every_year_shifts_only_year_answers(self, fn, seed, name, k, endpoint):
        g, fn_call = _sampled_call(seed, name)
        if "endpoint" in fn_call.arguments:  # sampled calls ask for a year; ask for an interval too
            fn_call = FunctionCall(name, {**fn_call.arguments, "endpoint": endpoint})
        moved = TKG([Fact(f.s, f.r, f.o, f.t0 + k, f.t1 + k) for f in g.facts])
        assert _outcome(fn, moved, _shifted_call(fn_call, k)) == _shifted_outcome(_outcome(fn, g, fn_call), k)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6), name=st.sampled_from(function_names()), order=st.randoms(use_true_random=False))
    def test_fact_order_changes_no_answer(self, fn, seed, name, order):
        g, fn_call = _sampled_call(seed, name)
        facts = list(g.facts)
        order.shuffle(facts)
        assert _outcome(fn, TKG(facts), fn_call) == _outcome(fn, g, fn_call)


class TestDeterminism:
    def test_repeat_dispatch_identical(self, fixture_a):
        for fn_call, _expected in GOLDEN[:10]:
            assert dispatch(fixture_a, fn_call) == dispatch(fixture_a, fn_call)

    def test_concurrent_dispatch_identical(self, fixture_a):
        calls = [fn_call for fn_call, _ in GOLDEN]
        expected = [dispatch(fixture_a, c) for c in calls]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                got = list(pool.map(lambda c: dispatch(fixture_a, c), calls))
                assert got == expected


def test_merge_flag_sums_raw_durations(fixture_a):
    merged = dispatch(fixture_a, call("calculate_total_relation_time", s="*", r="R1", o="E2"))
    raw = dispatch(fixture_a, call("calculate_total_relation_time", s="*", r="R1", o="E2", merge_overlaps=False))
    assert merged == Answer("duration", 12)
    assert raw == Answer("duration", 5 + 2 + 9)


def test_solver_functions_importable_directly(fixture_a):
    assert solvers.timeline(fixture_a, "E1", "R1", None) == ["E2", "E3", "E4"]
    assert solvers.first_last(fixture_a, "E1", "R1", None, which="first") == "E2"
