import json
import random
import re
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tkgqa import dsl
from tkgqa.answers import Answer, FunctionCall
from tkgqa.dsl import (
    MAX_VALUE_DEPTH,
    ErrorValue,
    Limits,
    execute,
    extract_fenced_source,
    parse,
)
from tkgqa.errors import (
    ArgumentTypeError,
    ArityError,
    DslSyntaxError,
    FactLimitExceededError,
    RuntimeTypeError,
    StepLimitExceededError,
    UnknownIdentifierError,
)
from tkgqa.graph import TKG, Fact
from tkgqa.generator import QUESTION_TYPES, GraphParams, generate_graph, sample_call
from tkgqa.pipelines import _structuring_program, call_to_dsl
from tkgqa.solvers import dispatch, function_specs
from conftest import random_graph

GOLDEN_PROGRAMS = [
    "facts(E1, R1, *) |> sort(start, asc) |> objects",
    "facts(*, R1, E2) |> sort(end, desc) |> subjects",
    "facts(E1, *, *) |> count",
    "facts(E1, R1, *) |> filter_at(2002) |> objects",
    "facts(E1, R1, *) |> filter_overlap(2000, 2011) |> count",
    "facts(E1, R1, *) |> filter_within(2000, 2011) |> count",
    "facts(E1, R1, *) |> filter_dur(>=, 5) |> objects",
    "facts(E1, R1, *) |> durations",
    "facts(E1, R1, *) |> merge_total",
    "let xs = facts(E1, R1, *)\nxs |> count",
    "fact(E1, R1, E2, 2000, 2005)\nfact(E1, R1, E3, 2006, 2010)\nfacts(E1, R1, *) |> objects",
    "call timeline(E1, R1, *)",
    "call relation_duration(E1, R1, E3)",
    "call event_at_what_time(E1, R1, E3, interval)",
    "call compare_triplet_durations((E1, R1, E2), (E1, R1, E4), shorter)",
    "call sequence_of_relations_in_interval(E1, [(R2, start), (R1, end)], [2004, 2006])",
    "call check_interval_without_relation(E1, R1, *, [2000, 2020], 1)",
    "call number_of_events_in_time_interval(E1, R1, *, [2000, 2011])",
]


class TestParse:
    def test_single_statement_program(self):
        program = parse("facts(E1, R1, *) |> sort(start, asc) |> objects")
        assert len(program.statements) == 1

    def test_syntax_error_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("facts(E1 R1")
        assert err.value.line == 1
        assert err.value.col > 0

    def test_unknown_stage(self):
        with pytest.raises(UnknownIdentifierError):
            parse("facts(E1, R1, *) |> frobnicate")

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse("call not_a_function(E1)")

    def test_unknown_variable(self):
        with pytest.raises(UnknownIdentifierError):
            parse("ys |> count")

    def test_arity_error(self):
        with pytest.raises(ArityError):
            parse("facts(E1, R1, *) |> sort(start)")

    def test_facts_arity(self):
        with pytest.raises((DslSyntaxError, ArityError)):
            parse("facts(E1, R1)")

    def test_deep_nesting_is_a_syntax_error(self):
        with pytest.raises(DslSyntaxError):
            parse("call timeline(" + "[" * 3000 + "]" * 3000 + ")")
        nested = "[" * MAX_VALUE_DEPTH + "E1" + "]" * MAX_VALUE_DEPTH
        assert parse(f"call timeline({nested})").statements

    def test_empty_program(self):
        with pytest.raises(DslSyntaxError):
            parse("   \n  ")

    def test_must_end_with_expression(self):
        with pytest.raises(DslSyntaxError):
            parse("fact(E1, R1, E2, 2000, 2005)")

    def _corpus(self):
        # static programs plus one golden program per type over two graphs
        from conftest import golden_dsl_source

        sources = list(GOLDEN_PROGRAMS)
        for seed in (41, 42):
            g = random_graph(seed)
            rng = random.Random(seed)
            for qtype in QUESTION_TYPES:
                call = sample_call(rng, g, qtype)
                if call is not None:
                    sources.append(golden_dsl_source(call))
        assert len(sources) >= 50
        return sources

    def test_corpus_parses(self):
        # every call value is a plain JSON value, the form dispatch takes
        for source in self._corpus():
            for st in parse(source).statements:
                head = getattr(getattr(st, "expr", None), "head", None)
                if isinstance(head, dsl.Call):
                    assert json.loads(json.dumps(list(head.args))) == list(head.args)

    def test_call_values_are_json_values(self):
        program = parse("call sequence_of_relations_in_interval(*, [(R2, start), [R1, *]], (2004, 2006))")
        assert program.statements[0].expr.head.args == ("*", [["R2", "start"], ["R1", "*"]], [2004, 2006])
        stage = parse("facts(*, *, *) |> filter_dur(>=, -5)").statements[0].expr.stages[0]
        assert stage.args == (">=", -5)


def _outcome(source: str):
    """What parsing ``source`` gives: the statements and their types, or the error's type, position and message."""
    try:
        program = parse(source)
    except Exception as exc:
        return type(exc), getattr(exc, "line", None), getattr(exc, "col", None), str(exc)
    return program.statements, tuple(type(stmt) for stmt in program.statements)


def _general_outcome(source: str):
    """The same, with the fact-line fast path switched off so every line takes the general parser."""
    with mock.patch.object(dsl, "_FACT_LINE_RE", re.compile(r"(?!)")):
        return _outcome(source)


_FAST_PATH_SAMPLES = (
    "fact(E1, R1, E2, 2000, 2005)",
    " \tfact( E1 ,R1,E2 , -5 , 7 ) ",
    "fact(let, facts, call, 0, 0)",
    "fact\u3000(_a,_b,_c,\u0661,-\u0662)",
)

_WS = st.text(alphabet=" \t\u00a0\u2003\u3000\x1f", max_size=2)
_DIGITS = st.text(alphabet="0123456789\u0661\u0662\u0969\uff13", min_size=1, max_size=5)
_GOOD_IDS = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
    st.sampled_from(["fact", "facts", "let", "call"]),
)
_GOOD_INTS = st.one_of(st.integers(-(10**6), 10**6).map(str), _DIGITS, _DIGITS.map(lambda d: "-" + d))
_BAD_IDS = st.sampled_from(["E\u0661", "\u00c91", "1E", "E-1", "*", ""])
_LONG_INT = "1" * 5000  # more digits than int() converts (4,300 by default)
_BAD_INTS = st.sampled_from(["- 5", "+5", "1_0", "\u00b2", "2.5", "--1", "E1", "", _LONG_INT, "-" + _LONG_INT])
_JUNK = st.sampled_from(["x", ")", "(", ",", "|> count", "#", "*", "1", "=", "fact", "\u200b"])
_OTHER_LINES = st.sampled_from(
    [
        "",
        "  \t",
        "\u3000",
        "let xs = facts(E1, *, *)",
        "let ys = xs |> filter_at(2000)",
        "xs |> count",
        "ys |> objects",
        "facts(*, R1, *) |> sort(start, asc)",
        "call timeline(E1, R1, *)",
        "let fact = facts(*, *, *)",
        "facts(E1, R1) |> count",
        "zs |> count",
        "facts(*, *, *) |> bogus",
        "fact(E1, R1, E2, 2000)",
        "fact(E1, R1, E2, 2000, 2005) |> count",
        "$",
    ]
)


@st.composite
def _fact_shaped_lines(draw) -> str:
    """A fact line with random whitespace, ids and ints; most get one defect."""
    fields = [draw(_GOOD_IDS), draw(_GOOD_IDS), draw(_GOOD_IDS), draw(_GOOD_INTS), draw(_GOOD_INTS)]
    parts = ["fact", "("] + [part for field in fields for part in (field, ",")]
    parts[-1] = ")"  # fact ( s , r , o , t0 , t1 ): the fields are at 2, 4, 6, 8 and 10
    defect = draw(st.sampled_from(["none", "id", "int", "junk", "drop"]))
    if defect == "id":
        parts[draw(st.sampled_from([2, 4, 6]))] = draw(_BAD_IDS)
    elif defect == "int":
        parts[draw(st.sampled_from([8, 10]))] = draw(_BAD_INTS)
    elif defect == "junk":
        parts.insert(draw(st.integers(0, len(parts))), draw(_JUNK))
    elif defect == "drop":
        del parts[draw(st.integers(0, len(parts) - 1))]
    return "".join(draw(_WS) + part for part in parts) + draw(_WS)


class TestFactLineFastPath:
    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    def test_arbitrary_text_parses_as_the_general_parser(self, text):
        for source in (text, text + "\nfacts(*, *, *) |> count"):
            assert _outcome(source) == _general_outcome(source)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_fact_shaped_lines(), min_size=1, max_size=3))
    def test_fact_shaped_lines_parse_as_the_general_parser(self, lines):
        body = "\n".join(lines)
        for source in (body, body + "\nfacts(*, *, *) |> count"):
            assert _outcome(source) == _general_outcome(source)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_fact_shaped_lines(), _OTHER_LINES), min_size=1, max_size=12))
    def test_programs_mixing_fact_runs_with_other_lines(self, lines):
        """Runs of fact lines between let, expression, blank and bad lines: the
        same statements, or the same error at the same line and column."""
        body = "\n".join(lines)
        for source in (body, body + "\nfacts(*, *, *) |> count", body.replace("\n", "\r\n")):
            assert _outcome(source) == _general_outcome(source)

    def test_fact_lines_skip_the_tokenizer(self, monkeypatch):
        real_tokenize = dsl._tokenize

        def tokenize_other_lines(line, line_no):
            assert not re.match(r"\s*fact\s*\(", line), f"line {line_no} went through the tokenizer"
            return real_tokenize(line, line_no)

        monkeypatch.setattr(dsl, "_tokenize", tokenize_other_lines)
        source = _structuring_program(random_graph(9, n_facts=999))
        assert len(source.splitlines()) == 1000
        assert len(parse(source).fact_decls) == 999
        for line in _FAST_PATH_SAMPLES:
            assert len(parse(line + "\nfacts(*, *, *) |> count").fact_decls) == 1

    def test_declaration_is_a_graph_fact(self):
        program = parse(_FAST_PATH_SAMPLES[1] + "\nfact(E1, R1, E3, \u0661, \u0662)\nfacts(*, *, *) |> count")
        assert program.fact_decls == (Fact("E1", "R1", "E2", -5, 7), Fact("E1", "R1", "E3", 1, 2))
        assert all(type(decl) is Fact for decl in program.fact_decls)

    def test_execute_builds_the_graph_from_the_declared_facts(self):
        program = parse(_structuring_program(random_graph(4, n_facts=50)))
        graph = execute(program).graph
        assert all(kept is declared for kept, declared in zip(graph.facts, program.fact_decls, strict=True))

    @pytest.mark.parametrize("outcome", [_outcome, _general_outcome], ids=["fast", "general"])
    def test_declarations_share_each_name_and_year(self, outcome):
        source = _structuring_program(random_graph(3, n_facts=60))
        decls, _ = outcome(source)
        values = [value for decl in decls if isinstance(decl, Fact) for value in decl]
        assert len({id(value) for value in values}) == len(set(values)) < len(values)

    def test_restated_20k_fact_graph_keeps_under_150_bytes_per_fact(self):
        g = generate_graph(GraphParams(seed=7, n_entities=1000, n_relations=20, n_facts=20_000))
        source = _structuring_program(g)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            restated = execute(parse(source)).graph
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert restated == g
        values = [value for f in restated.facts for value in f]
        assert len({id(value) for value in values}) == len(set(values))
        assert kept / len(g) < 150, kept / len(g)

    def test_overlong_time_is_the_general_parsers_syntax_error(self):
        for time in (_LONG_INT, "-" + _LONG_INT):
            source = f"fact(E1, R1, E2, 2000, {time})\nfacts(*, *, *) |> count"
            outcome = _outcome(source)
            assert outcome == _general_outcome(source)
            assert outcome[:3] == (DslSyntaxError, 1, 24)
            assert f"integer literal of {len(time)} characters is too long" in outcome[3]


class TestLongIntegers:
    """An integer literal int() will not convert is a syntax error at its position."""

    @pytest.mark.parametrize(
        "source, col",
        [
            ("facts(*, *, *) |> filter_at(" + _LONG_INT + ")", 29),
            ("fact(E1, R1, E2, " + _LONG_INT + ", 2000)\nfacts(*, *, *) |> count", 18),
            ("call relation_duration(E1, R1, E2, " + _LONG_INT + ")", 36),
        ],
        ids=["stage_argument", "fact_time", "call_value"],
    )
    def test_syntax_error_with_position(self, source, col):
        with pytest.raises(DslSyntaxError) as err:
            parse(source)
        assert (err.value.line, err.value.col) == (1, col)

    def test_longest_convertible_literal_parses(self):
        digits = "9" * sys.get_int_max_str_digits()
        program = parse(f"facts(*, *, *) |> filter_at({digits})")
        assert program.statements[0].expr.stages[0].args[0] == int(digits)


class TestExecute:
    def test_pipeline_matches_timeline(self, fixture_a):
        program = parse("facts(E1, R1, *) |> sort(start, asc) |> objects")
        assert execute(program, fixture_a).value == ["E2", "E3", "E4"]

    def test_structuring_path_equivalence(self, fixture_a):
        decls = "\n".join(
            f"fact({f.s}, {f.r}, {f.o}, {f.t0}, {f.t1})" for f in fixture_a.facts
        )
        program = parse(decls + "\ncall timeline(E1, R1, *)")
        result = execute(program)
        assert result.value == Answer("entity_list", ["E2", "E3", "E4"])
        assert result.graph == fixture_a

    def test_step_limit_zero_always_rejects(self, fixture_a):
        program = parse("facts(E1, R1, *)")
        with pytest.raises(StepLimitExceededError):
            execute(program, fixture_a, Limits(max_steps=0))

    def test_fact_limit(self):
        program = parse("fact(E1, R1, E2, 2000, 2005)\nfacts(*, *, *) |> count")
        with pytest.raises(FactLimitExceededError):
            execute(program, None, Limits(max_facts=0))

    def test_declarations_do_not_count_as_statements(self):
        n = 10_000
        decls = "\n".join(f"fact(E{i}, R1, E{i + 1}, 2000, 2001)" for i in range(n))
        cost = 1 + (1 + n) + (1 + n)  # the unit, its query and its stage; no declaration costs a step
        result = execute(parse(decls + "\nfacts(*, *, *) |> count"), None, Limits(max_steps=cost))
        assert (result.value, result.steps) == (n, cost)

    def test_fact_limit_bounds_declarations(self):
        source = "\n".join(f"fact(E{i}, R1, E{i + 1}, 2000, 2001)" for i in range(4)) + "\nfacts(*, *, *) |> count"
        with pytest.raises(FactLimitExceededError):
            execute(parse(source), None, Limits(max_facts=3))
        assert execute(parse(source), None, Limits(max_facts=4, max_steps=1 + 5 + 5)).value == 4

    def test_declared_fact_fields_use_graph_validation(self):
        from tkgqa.errors import InvalidIntervalError

        with pytest.raises(InvalidIntervalError):
            execute(parse("fact(E1, R1, E2, 2005, 2000)\nfacts(*, *, *) |> count"))

    def test_graph_presence_contract(self, fixture_a):
        declared = parse("fact(E1, R1, E2, 2000, 2005)\nfacts(*, *, *) |> count")
        with pytest.raises(RuntimeTypeError):
            execute(declared, fixture_a)
        plain = parse("facts(*, *, *) |> count")
        with pytest.raises(RuntimeTypeError):
            execute(plain, None)

    def test_stage_type_errors(self, fixture_a):
        with pytest.raises(RuntimeTypeError):
            execute(parse("facts(E1, R1, *) |> count |> objects"), fixture_a)
        with pytest.raises(RuntimeTypeError):
            execute(parse("facts(E1, R1, *) |> objects |> sort(start, asc)"), fixture_a)

    @pytest.mark.parametrize(
        "stage",
        ["sort(1, 2)", "sort(start, 2)", "sort(>=, asc)", "sort(up, asc)",
         "filter_dur(5, 5)", "filter_dur(longer, 5)", "filter_dur(>=, x)", "filter_at(start)",
         "filter_overlap(2000, <)"],
    )
    def test_bad_stage_arguments_are_type_errors(self, fixture_a, stage):
        with pytest.raises(RuntimeTypeError):
            execute(parse(f"facts(*, *, *) |> {stage}"), fixture_a)

    def test_solver_errors_become_values(self, fixture_a):
        result = execute(parse("call timeline(E99, R1, *)"), fixture_a)
        assert isinstance(result.value, ErrorValue)
        assert result.value.error == "NoMatchingFactsError"

    def test_durations_and_merge_total(self, fixture_a):
        assert execute(parse("facts(E1, R1, *) |> durations"), fixture_a).value == [5, 4, 8]
        assert execute(parse("facts(*, R1, E2) |> merge_total"), fixture_a).value == 12

    def test_let_binding(self, fixture_a):
        program = parse("let xs = facts(E1, R1, *)\nxs |> filter_dur(>=, 5) |> count")
        assert execute(program, fixture_a).value == 2

    def test_steps_counted(self, fixture_a):
        result = execute(parse("facts(E1, R1, *) |> sort(start, asc) |> objects"), fixture_a)
        # the source's unit and its query of 6 facts, then two stages of 3 facts each
        assert result.steps == 1 + (1 + 6) + (1 + 3) + (1 + 3)

    def test_declared_duplicate_facts_rejected(self):
        program = parse(
            "fact(E1, R1, E2, 2000, 2005)\nfact(E1, R1, E2, 2000, 2005)\nfacts(*, *, *) |> count"
        )
        from tkgqa.errors import DuplicateFactError

        with pytest.raises(DuplicateFactError):
            execute(program)


def test_extract_fenced_source():
    reply = "Here is the program:\n```tqdsl\nfacts(E1, R1, *) |> count\n```\nDone."
    assert extract_fenced_source(reply) == "facts(E1, R1, *) |> count\n"
    assert extract_fenced_source("no fence here") is None


# The lazy DOTALL search extract_fenced_source replaced; it scanned a whole
# 300 KB structuring reply for the closing fence.
_REFERENCE_FENCE_RE = re.compile(r"```tqdsl\s*\n(.*?)```", re.DOTALL)


def _reference_fenced_source(reply: str) -> str | None:
    m = _REFERENCE_FENCE_RE.search(reply)
    return m.group(1) if m else None


_FENCE_PIECES = st.sampled_from(
    ["```tqdsl", "```", "``", "`", "```json", "\n", "\r\n", "\r", " ", "\t", "\u2003", "\u3000", "\x1c",
     "\x85", "\u2028", "fact(E1, R1, E2, 2000, 2005)", "facts(*, *, *) |> count", "tqdsl", "x"]
)


class TestExtractFencedSource:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(_FENCE_PIECES, st.text(max_size=4)), max_size=14).map("".join))
    def test_equals_the_reference_search(self, reply):
        assert extract_fenced_source(reply) == _reference_fenced_source(reply)

    @pytest.mark.parametrize(
        "reply, block",
        [
            ("```tqdsl\n```", ""),
            ("```tqdsl \u2003\r\nA\n```", "A\n"),
            ("```tqdsl\n\n \nA```", "A"),
            ("```tqdsl\nA\n```\n```tqdsl\nB\n```", "A\n"),
            ("```tqdsl\nA, never closed", None),
            ("```tqdsl\nA\n```tqdsl\nB", "A\n"),
            ("```tqdsl no newline ```tqdsl\nB\n```", "B\n"),
            ("```tqdsl\u3000\x1c\nA``", None),
        ],
    )
    def test_edge_cases(self, reply, block):
        assert extract_fenced_source(reply) == block == _reference_fenced_source(reply)


def test_sandbox_has_no_io_forms():
    # the grammar exposes no identifiers that could reach files or sockets
    from tkgqa.errors import DslError

    for source in ("open(x)", "import os", 'facts("/etc/passwd", R1, *)'):
        with pytest.raises(DslError):
            parse(source)


class TestGoldenEquivalence:
    # every question type; the 17-type x 100-graph run lives in the acceptance suite
    def test_call_forms_match_dispatch(self):
        covered = set()
        for seed in range(20):
            g = random_graph(seed)
            rng = random.Random(seed)
            for qtype in QUESTION_TYPES:
                fn_call = sample_call(rng, g, qtype)
                if fn_call is None:
                    continue
                program = parse(call_to_dsl(fn_call))
                assert execute(program, g).value == _dispatched(g, fn_call), call_to_dsl(fn_call)
                covered.add(qtype)
        assert covered == set(QUESTION_TYPES)


class TestBooleanLiterals:
    """``true`` and ``false`` are call values, so a JSON call's booleans can be written in tqdsl."""

    @pytest.mark.parametrize("merge", [False, True])
    def test_merge_overlaps(self, merge):
        g = TKG([Fact("E1", "R1", "E2", 2000, 2005), Fact("E1", "R1", "E3", 2003, 2008)])
        fn_call = FunctionCall("calculate_total_relation_time", {"s": "E1", "r": "R1", "merge_overlaps": merge})
        assert call_to_dsl(fn_call).endswith(f"(E1, R1, *, {'true' if merge else 'false'})")
        assert execute(parse(call_to_dsl(fn_call)), g).value == dispatch(g, fn_call) == Answer("duration", 8 if merge else 10)

    def test_ids_elsewhere_are_unchanged(self):
        program = parse("fact(true, R1, false, 2000, 2005)\nfacts(true, R1, *) |> objects")
        assert program.statements[0] == Fact("true", "R1", "false", 2000, 2005)
        assert execute(program).value == ["false"]
        assert parse("call timeline(true, R1, [false, x])").statements[0].expr.head.args == (True, "R1", [False, "x"])


def _dispatched(g, fn_call):
    """dispatch's answer, or its solver domain error as the value a program gives."""
    try:
        return dispatch(g, fn_call)
    except dsl._SOLVER_DOMAIN_ERRORS as exc:
        return ErrorValue(type(exc).__name__, str(exc))


def _base_call(spec):
    """A small random graph and a well-formed call of ``spec``'s function over it."""
    for seed in range(50):
        g = random_graph(seed)
        fn_call = sample_call(random.Random(seed), g, spec.name)
        if fn_call is not None:
            return g, fn_call
    raise AssertionError(f"no graph supports {spec.name}")


def _bad_arguments():
    """(function, parameter, bad value) for each check that dispatch alone makes."""
    bad_steps = ([["R1", "middle"]], [["R1"]], [["R1", "start", "end"]], ["R1"])
    cases = []
    for spec in function_specs():
        for param in spec.use_guide:
            if param.type == "choice":
                cases += [(spec, param.name, "sideways"), (spec, param.name, 1)]
            if param.type == "steps":
                cases += [(spec, param.name, bad) for bad in bad_steps]
        if spec.name in ("event_at_what_time", "relation_duration", "is_triplet_within_timespan"):
            cases += [(spec, name, "*") for name in ("s", "r", "o")]
    return cases


class TestSchemaIsTheOneCheck:
    """A call's arguments are checked by dispatch's schema only, for JSON and tqdsl calls alike."""

    @pytest.mark.parametrize(
        "spec, name, bad", _bad_arguments(), ids=lambda x: getattr(x, "name", repr(x))
    )
    def test_rejected_by_dispatch_and_in_tqdsl(self, spec, name, bad):
        g, base = _base_call(spec)
        fn_call = FunctionCall(spec.name, {**base.arguments, name: bad})
        with pytest.raises(ArgumentTypeError, match=repr(name)):
            dispatch(g, fn_call)
        value = execute(parse(call_to_dsl(fn_call)), g).value
        assert isinstance(value, ErrorValue) and value.error == "ArgumentTypeError", value
        assert repr(name) in value.message


_FILTER_STAGES = ("sort(start, asc)", "sort(end, desc)", "filter_at(2000)", "filter_overlap(1990, 2010)",
                  "filter_within(1950, 2030)", "filter_dur(>=, 3)")
_LAST_STAGES = ("count", "objects", "subjects", "durations", "merge_total")


@st.composite
def _graph_and_program(draw):
    """A small random graph and a well-typed program over it: sources, stages, lets and calls."""
    g = random_graph(draw(st.integers(0, 100)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ids = st.sampled_from(sorted(g.entities) + ["E999", "*"])
    relations = sorted(g.relations)
    lines, fact_vars = [], []
    n = draw(st.integers(1, 8))
    for i in range(n):
        kind = draw(st.sampled_from(("pipe", "call", "sequence")))
        if kind == "call":
            fn_call = sample_call(rng, g, draw(st.sampled_from(QUESTION_TYPES)))
            expr = call_to_dsl(fn_call) if fn_call else "call timeline(E999, *, *)"
        elif kind == "sequence":
            steps = draw(st.lists(st.tuples(st.sampled_from(relations), st.sampled_from(("start", "end"))),
                                  min_size=2, max_size=6))
            steps_text = ", ".join(f"({r}, {endpoint})" for r, endpoint in steps)
            expr = f"call sequence_of_relations_in_interval({draw(ids)}, [{steps_text}], [1900, 2100])"
        else:
            if fact_vars and draw(st.booleans()):
                head = draw(st.sampled_from(fact_vars))
            else:
                head = f"facts({draw(ids)}, {draw(st.sampled_from(relations + ['*']))}, {draw(ids)})"
            stages = draw(st.lists(st.sampled_from(_FILTER_STAGES), max_size=3))
            last = draw(st.sampled_from((None,) + _LAST_STAGES))
            expr = " |> ".join([head, *stages, *([last] if last else [])])
        if i < n - 1 and draw(st.booleans()):
            lines.append(f"let x{i} = {expr}")
            if kind == "pipe" and last is None:
                fact_vars.append(f"x{i}")
        else:
            lines.append(expr)
    if lines[-1].startswith("let "):
        lines.append("facts(*, *, *) |> count")
    return g, "\n".join(lines)


class TestWorkBudget:
    """A step is a fact a query or a stage may touch, and every statement costs at least one."""

    @staticmethod
    def _counting(queried: list, staged: list):
        """Patches that record the facts each graph query returns and each stage receives."""
        query, eval_stage = TKG.query, dsl._Interpreter.eval_stage

        def counted_query(self, *args, **kwargs):
            facts = query(self, *args, **kwargs)
            queried.append(len(facts))
            return facts

        def counted_stage(self, stage, value):
            staged.append(len(value))
            return eval_stage(self, stage, value)

        return (mock.patch.object(TKG, "query", counted_query),
                mock.patch.object(dsl._Interpreter, "eval_stage", counted_stage))

    @settings(max_examples=150, deadline=None)
    @given(_graph_and_program())
    def test_steps_cover_every_fact_touched(self, case):
        g, source = case
        program = parse(source)
        queried, staged = [], []
        patch_query, patch_stage = self._counting(queried, staged)
        with patch_query, patch_stage:
            result = execute(program, g)
        # the facts every query returns and every stage receives are paid for, and so is each
        # statement's unit: each costs 1, and each query and stage 1 more than the facts it touches
        assert len(program.statements) + sum(1 + n for n in queried + staged) <= result.steps

    def test_default_budget_fits_the_oracle_at_max_facts(self):
        n = Limits().max_facts
        g = TKG(Fact(f"E{i % 1000}", f"R{i % 20}", f"E{i // 1000}", 1900 + i % 100, 1905 + i % 100)
                for i in range(n))
        assert len(g) == n
        restated = execute(parse(_structuring_program(g)))
        assert restated.graph == g and restated.value == n
        assert restated.steps == 1 + 2 * (1 + n)
        calls = {
            4: FunctionCall("sequence_of_relations_in_interval",
                            {"s": "E0", "steps": [["R0", "start"], ["R0", "end"], ["R0", "end"]], "window": [1900, 2100]}),
            2: FunctionCall("event_at_the_time_of_another_event",
                            {"anchor": ["E0", "R0", "E0"], "anchor_point": "start", "s": "E0", "r": "R0"}),
        }
        for queries, fn_call in calls.items():
            result = execute(parse(call_to_dsl(fn_call)), g)
            assert result.value == dispatch(g, fn_call) and not isinstance(result.value, ErrorValue)
            assert result.steps == 1 + queries * (1 + n)

    ADVERSARIAL = {
        "calls": "\n".join(["call calculate_total_relation_time()"] * 10_000),
        "sorts": "\n".join(
            f"let x{i} = facts(*, *, *) |> sort(start, desc) |> filter_overlap(1900, 2100)" for i in range(300)
        ) + "\nx0 |> count",
        "sequence": "call sequence_of_relations_in_interval(E0, [" + ", ".join(["(R0, start)"] * 1000) + "], [1900, 2100])",
    }

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_adversarial_programs_refused(self, name):
        n = 2_000
        g = TKG(Fact(f"E{i % 100}", f"R{i % 4}", f"E{i // 100}", 1900 + i % 50, 1910 + i % 50) for i in range(n))
        program = parse(self.ADVERSARIAL[name])
        queried, staged = [], []
        patch_query, patch_stage = self._counting(queried, staged)
        with patch_query, patch_stage, pytest.raises(StepLimitExceededError):
            execute(program, g)
        assert 0 < len(queried) <= Limits().max_steps // (1 + n)
