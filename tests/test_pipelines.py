import bisect
import collections
import dataclasses
import itertools
import gc
import json
import logging
import re
import sys
import threading
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import stored_strings
from tkgqa import graph as graph_module, pipelines
from tkgqa.answers import Answer, FunctionCall
from tkgqa.dsl import extract_fenced_source
from tkgqa.errors import (
    AnswerParseError,
    ArgumentTypeError,
    ClientError,
    ScriptExhaustedError,
    TkgqaError,
    UnknownFunctionError,
)
from tkgqa.generator import GraphParams, generate_graph, generate_instances
from tkgqa.graph import TKG, Fact, render_text
from tkgqa.pipelines import (
    LiveChatClient,
    OracleMockClient,
    PipelineConfig,
    RandomFunctionMockClient,
    ScriptedMockClient,
    TECHNIQUES,
    coerce_answer,
    expand_transcripts,
    extract_answer,
    run,
    select_function,
    temporal_confidence,
)
from tkgqa.scoring import score
from tkgqa.solvers import dispatch


@pytest.fixture(scope="module")
def instances():
    g = generate_graph(GraphParams(seed=3, n_facts=80))
    return generate_instances(g, per_type=2, seed=5)


def by_type(instances, qtype):
    return next(i for i in instances if i.question_type == qtype)


def fenced(obj) -> str:
    return "```json\n" + json.dumps(obj) + "\n```"


class RecordingClient:
    """Delegates to ``client`` and records the step and the prompt of every call, as received."""

    def __init__(self, client):
        self.client = client
        self.steps = []
        self.prompts = []

    def complete(self, messages, **kwargs):
        self.steps.append(kwargs["step"])
        self.prompts.append(messages[-1]["content"])
        return self.client.complete(messages, **kwargs)


def received(result, client: RecordingClient) -> list[dict]:
    """``result``'s transcript with each prompt as ``client`` received it."""
    return [{**turn, "prompt": prompt} for turn, prompt in zip(result.transcript, client.prompts, strict=True)]


def assert_stored_once(records, results):
    """Each string of ``results``' turns is stored in ``records`` (read back from JSON) in full,
    or as a reference to its first copy exactly when that is shorter."""
    full = stored_strings([{"transcript": result.transcript} for result in results])
    first = {}  # string -> where its first copy stands
    for (where, value), (same, string) in zip(stored_strings(records), full, strict=True):
        assert where == same
        earlier = first.setdefault(string, where)
        if earlier != where and len(json.dumps(earlier)) < len(string) + 2:
            assert value == list(earlier)  # backward, to the copy held in full
            assert len(json.dumps(value)) < len(json.dumps(string))
        else:
            assert value == string


class TestExtractAnswer:
    def test_fenced_block(self):
        explanation, answer = extract_answer(fenced({"explanation": "x", "answer": ["E2", "E3"]}))
        assert explanation == "x"
        assert answer == ["E2", "E3"]

    def test_bare_json_fallback(self):
        explanation, answer = extract_answer('noise {"explanation": "y", "answer": 5} more noise')
        assert explanation == "y" and answer == 5

    def test_no_json_raises(self):
        with pytest.raises(AnswerParseError):
            extract_answer("I cannot answer this.")

    def test_answer_only_object(self):
        explanation, answer = extract_answer(fenced({"answer": "E2"}))
        assert explanation == "" and answer == "E2"

    def test_overlong_integer_is_no_answer(self, instances):
        reply = '```json\n{"answer": ' + "1" * 5000 + "}\n```"
        with pytest.raises(AnswerParseError):
            extract_answer(reply)
        inst = by_type(instances, "relation_duration")
        result = run(inst, "direct", ScriptedMockClient([reply]))
        assert result.parse_error and not score(result, inst.gold, inst.question_type)


def _reference_first_json_object(text):
    """The scan that tried ``raw_decode`` at every ``{``, kept as the reference."""
    decoder = json.JSONDecoder()
    for m in re.finditer(r"\{", text):
        try:
            obj, _ = decoder.raw_decode(text, m.start())
        except ValueError:
            continue
        if isinstance(obj, dict):
            return obj
    return None


class TestFirstJsonObject:
    """Only a ``{`` that a ``}`` closes is decoded, over spans of the text; the object found is the same."""

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet='{}":,1a\\ \n\t\r', max_size=40))
    @example('{"a\\"": 1}')  # a key holding an escaped quote
    def test_matches_the_scan_at_every_brace(self, text):
        assert pipelines._first_json_object(text) == _reference_first_json_object(text)

    # pieces of JSON and of malformed JSON, so that objects nest, fail deep
    # inside and hold braces and escaped quotes in their strings
    PIECES = ['{', '}', '[', ']', '"a"', '"\\""', '"\\\\"', '\\', '"', ':', ',', '1', '1e', 'true', ' ', '\n',
              '"{"', '"}"', '{"a":', '{"a":1}', 'x']

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
    @example('{"a":{"b":[1,{"c":x}]}} {"d":{}}')  # fails deep inside, then a later object
    @example('{"a":"}{\\"}", "b":{"c":1}}')  # braces and an escaped quote in a string
    @example('{"a":{"b":1}x}')  # fails just after a nested object, which is the answer
    def test_matches_the_scan_on_json_pieces(self, text):
        assert pipelines._first_json_object(text) == _reference_first_json_object(text)

    @pytest.mark.parametrize(
        "family",
        [
            pytest.param(lambda n: '{"a":1,' * n, id="unclosed-keys"),
            pytest.param(lambda n: '{"a":1,\n' * n + "}" * n, id="nested-keys-closed"),
            pytest.param(lambda n: '{"a":' * n + "x" + "}" * n, id="nested-failing-deep"),
            pytest.param(lambda n: '{"a":[' * n + "]}" * n, id="nested-valid"),
            pytest.param(lambda n: '{"a":1,' * n + '{"answer": 1}', id="valid-after-keys"),
        ],
    )
    def test_decoder_work_is_linear(self, family):
        """The characters handed to the decoder stay within a few times the reply's length."""
        for n in (100, 4_000):
            text = family(n)
            with mock.patch.object(
                json.JSONDecoder, "raw_decode", autospec=True, side_effect=json.JSONDecoder.raw_decode
            ) as raw_decode:
                try:
                    pipelines._first_json_object(text)
                except RecursionError:  # nesting too deep for the decoder
                    pass
            handed = sum(len(call.args[1]) for call in raw_decode.call_args_list)
            assert handed <= 4 * len(text), (n, handed, len(text))

    def test_unclosed_braces_are_never_decoded(self):
        with mock.patch.object(
            json.JSONDecoder, "raw_decode", autospec=True, side_effect=json.JSONDecoder.raw_decode
        ) as raw_decode:
            for reply in ("{" * 10_000, '{"' * 10_000):
                with pytest.raises(AnswerParseError):
                    extract_answer(reply)
            assert raw_decode.call_count == 0
            assert extract_answer('{ {"answer": 1}') == ("", 1)
            assert raw_decode.call_count == 1


class TestCoerceAnswer:
    def test_entity(self):
        assert coerce_answer("entity", " E2 ") == Answer("entity", "E2")

    def test_entity_list(self):
        assert coerce_answer("entity_list", ["E2", "E3"]) == Answer("entity_list", ["E2", "E3"])
        assert coerce_answer("entity_list", "E2") == Answer("entity_list", ["E2"])

    def test_boolean_synonyms(self):
        assert coerce_answer("boolean", "Yes") == Answer("boolean", True)
        assert coerce_answer("boolean", "no") == Answer("boolean", False)
        assert coerce_answer("boolean", True) == Answer("boolean", True)

    def test_integers(self):
        assert coerce_answer("count", "4") == Answer("count", 4)
        assert coerce_answer("duration", 7.0) == Answer("duration", 7)
        assert coerce_answer("time_point", 2004) == Answer("time_point", 2004)

    def test_interval(self):
        assert coerce_answer("time_interval", [2000, 2005]) == Answer("time_interval", (2000, 2005))

    def test_uncoercible(self):
        assert coerce_answer("count", "many") is None
        assert coerce_answer("entity", 12) is None


class TestSelectFunction:
    def test_valid_call(self):
        call = select_function(fenced({"name": "timeline", "arguments": {"s": "E1", "r": "R1", "o": "*"}}))
        assert call == FunctionCall("timeline", {"s": "E1", "r": "R1", "o": "*"})

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            select_function(fenced({"name": "foo", "arguments": {}}))

    def test_bad_arguments(self):
        with pytest.raises(ArgumentTypeError):
            select_function(fenced({"name": "timeline", "arguments": [1, 2]}))

    def test_no_json(self):
        with pytest.raises(AnswerParseError):
            select_function("no function here")


class TestScriptedMock:
    def test_ordered_exhaustion(self):
        client = ScriptedMockClient(["a"])
        assert client.complete([{"role": "user", "content": "x"}]) == "a"
        with pytest.raises(ScriptExhaustedError):
            client.complete([{"role": "user", "content": "x"}])

    def test_pattern_mode(self):
        client = ScriptedMockClient({"hello": "hi", "": "fallback"})
        assert client.complete([{"role": "user", "content": "hello there"}]) == "hi"
        assert client.complete([{"role": "user", "content": "other"}]) == "fallback"

    def test_pattern_no_match(self):
        client = ScriptedMockClient({"hello": "hi"})
        with pytest.raises(ScriptExhaustedError):
            client.complete([{"role": "user", "content": "nope"}])

    @pytest.mark.parametrize("script", [["a", 5], [None], {"": 5}, {"x": ["a"]}, {1: "a"}])
    def test_non_string_reply_or_pattern_rejected(self, script):
        with pytest.raises(ClientError, match="must be strings"):
            ScriptedMockClient(script)

    def test_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(["one", "two"]))
        client = ScriptedMockClient.from_file(path)
        assert client.complete([]) == "one"
        assert client.complete([]) == "two"


class TestDirect:
    def test_scripted_entity_answer(self, instances):
        inst = by_type(instances, "before_after")
        reply = fenced({"explanation": "scripted", "answer": inst.gold.value})
        result = run(inst, "direct", ScriptedMockClient([reply]))
        assert result.llm_calls == 1
        assert result.answer == inst.gold
        assert score(result, inst.gold, inst.question_type)

    def test_unparseable_reply_scores_false(self, instances):
        inst = by_type(instances, "timeline")
        result = run(inst, "direct", ScriptedMockClient(["no json at all"]))
        assert result.parse_error
        assert result.raw_answer == "no json at all"
        assert not score(result, inst.gold, inst.question_type)


class TestCot:
    def test_three_calls(self, instances):
        inst = by_type(instances, "timeline")
        reply = fenced({"explanation": "done", "answer": list(inst.gold.value)})
        result = run(inst, "cot", ScriptedMockClient(["analysis", "extraction", reply]))
        assert result.llm_calls == 3
        assert result.answer == inst.gold


class TestCotr:
    def test_reflexion_loop(self, instances):
        inst = by_type(instances, "first_last")
        wrong = fenced({"explanation": "guess", "answer": "E99"})
        right = fenced({"explanation": "fixed", "answer": inst.gold.value})
        script = ["analysis", "extraction", wrong, "repeat_please: the answer looks off", right]
        result = run(inst, "cotr", ScriptedMockClient(script))
        assert result.reflexions == 1
        assert result.llm_calls == 5  # 3 base + 2 reflexion-loop calls
        assert result.answer == inst.gold

    def test_immediate_acceptance(self, instances):
        inst = by_type(instances, "first_last")
        right = fenced({"explanation": "sure", "answer": inst.gold.value})
        result = run(inst, "cotr", ScriptedMockClient(["a", "b", right, right]))
        assert result.reflexions == 0
        assert result.llm_calls == 4
        assert result.answer == inst.gold

    def test_reflexion_bound(self, instances):
        inst = by_type(instances, "first_last")
        right = fenced({"explanation": "orig", "answer": inst.gold.value})
        script = ["a", "b", right] + ["repeat_please"] * 3
        result = run(inst, "cotr", ScriptedMockClient(script))
        assert result.reflexions == 3
        assert result.llm_calls == 6  # bounded: 3 + max_reflexions
        assert result.answer == inst.gold  # falls back to the solve-step answer


class TestTot:
    def test_call_count_within_bound(self, instances):
        inst = by_type(instances, "timeline")
        options = fenced({"Option1": "a", "Option2": "b", "Option3": "c"})
        scores = fenced({"score": 8})
        final = fenced({"answer": list(inst.gold.value)})
        client = ScriptedMockClient(
            {
                'keys "Option1"': options,
                'field "score"': scores,
                "Final reasoning path": final,
                "": "intro",
            }
        )
        result = run(inst, "tot", client)
        # beam 2 / depth 2 / branch 3: 1 + (1 + 3) + (2 + 6) + 1
        assert result.llm_calls == 14
        assert result.answer == inst.gold

    def test_score_parse_failure_defaults(self, instances):
        inst = by_type(instances, "timeline")
        options = fenced({"Option1": "a", "Option2": "b", "Option3": "c"})
        final = fenced({"answer": list(inst.gold.value)})
        client = ScriptedMockClient(
            {
                'keys "Option1"': options,
                'field "score"': "not a score",
                "Final reasoning path": final,
                "": "intro",
            }
        )
        result = run(inst, "tot", client)
        assert result.llm_calls == 14
        assert result.answer == inst.gold

    @pytest.mark.parametrize(
        "score", ["9" * 400, "NaN", "Infinity", "-Infinity", "true"], ids=["huge", "nan", "inf", "-inf", "bool"]
    )
    def test_score_that_is_no_finite_number_defaults(self, instances, score):
        """A score beyond the floats or not finite is no score: the search goes as it does for a
        reply that holds none, where state "a" scores the default 5.0, between "b" and "c"."""
        inst = by_type(instances, "timeline")

        def prompts(reply_a):
            client = RecordingClient(ScriptedMockClient(
                {
                    'keys "Option1"': fenced({"Option1": "a", "Option2": "b", "Option3": "c"}),
                    "Reasoning state: a.": reply_a,
                    "Reasoning state: b.": fenced({"score": 4}),
                    'field "score"': fenced({"score": 6}),
                    "Final reasoning path": fenced({"answer": list(inst.gold.value)}),
                    "": "intro",
                }
            ))
            result = run(inst, "tot", client)
            assert result.llm_calls == 14 and result.answer == inst.gold
            return client.prompts

        assert prompts('```json\n{"score": ' + score + '}\n```') == prompts("not a score")


class TestExcerpt:
    def test_equals_the_splitlines_form(self, instances):
        # ids holding every line break str.splitlines knows besides "\n"
        breaks = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
        facts = [Fact(f"E{i}{brk}x", f"R{brk}", "E0", 2000 + i, 2001 + i) for i, brk in enumerate(breaks)]
        text = render_text(TKG(facts), seed=1)
        excerpt = "\n".join(text.splitlines()[: pipelines.EXCERPT_FACTS])
        assert excerpt != "\n".join(text.split("\n")[: pipelines.EXCERPT_FACTS])
        inst = dataclasses.replace(instances[0], tkg=TKG(facts), render_seed=1)
        full = "".join(pipelines._statement(inst, True, None))
        assert inst.tkg_text == text and text in full
        # the excerpt statement is the full-text statement with the excerpt in place of the text
        assert "".join(pipelines._statement(inst, False, None)) == full.replace(text, excerpt)

    def test_statement_over_200k_facts_renders_no_text(self, instances):
        # the excerpt is cut from the graph's first sentences: rendering the 200,000 would allocate megabytes
        g = TKG(Fact(f"E{i}", "R1", "E0", 2000, 2001) for i in range(200_000))
        inst = dataclasses.replace(instances[0], tkg=g, render_seed=1)
        pipelines.warm_caches()
        tracemalloc.start()
        try:
            statement = pipelines._statement(inst, False, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g._texts == {}
        assert peak < 64_000
        text = render_text(g, seed=1)
        excerpt = "\n".join(text.splitlines()[: pipelines.EXCERPT_FACTS])
        assert "".join(statement) == "".join(pipelines._statement(inst, True, None)).replace(text, excerpt)

    # names holding every line break str.splitlines knows ("\r\n" as "\r" then "\n"), and characters beyond ASCII
    _NAMES = st.text(alphabet="E7é日\U0001f600\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", min_size=1, max_size=4)
    # years of every sign and width the fact file's fast path reads: negative, zero, and 18 digits either way
    _YEARS = st.integers(-50, 3000) | st.sampled_from([0, -1, -9, 10**17, 10**18 - 41, -(10**17), -(10**18 - 1)])
    _FACT = st.tuples(_NAMES, _NAMES, _NAMES, _YEARS, st.integers(0, 40)).map(
        lambda t: Fact(t[0], t[1], t[2], t[3], t[3] + t[4])
    )
    _FACTS = st.lists(_FACT, min_size=1, max_size=12, unique=True)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_FACT, max_size=12, unique=True), st.integers(0, 2**32))
    @example([], 0)
    @example([Fact("E1", "R1", "E2", -(10**17), 0), Fact("E1", "R1", "E2", 0, 10**18 - 1)], 5)
    def test_streamed_length_is_the_texts(self, facts, seed):
        g = TKG(facts)
        assert g.text_length(seed) == len(render_text(g, seed=seed))
        assert g._texts == {seed: g.text_length(seed)}  # the length is kept, and no text

    @settings(max_examples=300, deadline=None)
    @given(_FACTS, st.integers(0, 2**32))
    def test_head_excerpt_is_the_splitlines_form(self, instances, facts, seed):
        inst = dataclasses.replace(instances[0], tkg=TKG(facts), render_seed=seed)
        statement = "".join(pipelines._statement(inst, False, None))
        assert inst.tkg._texts == {}
        text = render_text(inst.tkg, seed=seed)
        excerpt = "\n".join(render_text(inst.tkg, seed=seed).splitlines()[: pipelines.EXCERPT_FACTS])
        assert statement == "".join(pipelines._statement(inst, True, None)).replace(text, excerpt)

    @pytest.mark.parametrize(
        "text",
        ["", "\n", "a", "a\n", "a\r\nb\r", "a\n\nb\n\n\nc\nd", "\n" * 6, "\r\r\n\n\r"]
        + [brk.join("abcdefg") for brk in ("\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")],
    )
    def test_equals_the_splitlines_form_of(self, text):
        assert pipelines._excerpt(text) == "\n".join(text.splitlines()[: pipelines.EXCERPT_FACTS])


class TestCote:
    def test_program_executed(self, instances):
        inst = by_type(instances, "calculate_total_relation_time")
        args = inst.canonical_call.arguments
        src = f"facts({args.get('s', '*')}, {args.get('r', '*')}, {args.get('o', '*')}) |> merge_total"
        script = ["analysis", "```tqdsl\n" + src + "\n```"]
        result = run(inst, "cote", ScriptedMockClient(script))
        assert result.llm_calls == 2
        assert extract_fenced_source(result.transcript[1]["reply"]).strip() == src
        assert result.answer == inst.gold

    def test_overlong_integer_recorded(self, instances):
        inst = by_type(instances, "timeline")
        script = ["analysis", "```tqdsl\nfacts(*, *, *) |> filter_at(" + "1" * 5000 + ")\n```"]
        result = run(inst, "cote", ScriptedMockClient(script))
        assert result.parse_error
        assert result.errors == ["tqdsl parse error: syntax error at line 1, col 29: integer literal of 5000 characters is too long"]

    def test_bad_stage_arguments_recorded(self, instances):
        inst = by_type(instances, "timeline")
        script = ["analysis", "```tqdsl\nfacts(*, *, *) |> sort(1, 2)\n```"]
        result = run(inst, "cote", ScriptedMockClient(script))
        assert result.errors == ["sort arguments must be (start|end, asc|desc)"]
        assert not score(result, inst.gold, inst.question_type)

    def test_bad_program_recorded(self, instances):
        inst = by_type(instances, "timeline")
        script = ["analysis", "```tqdsl\nfacts(E1 R1\n```"]
        result = run(inst, "cote", ScriptedMockClient(script))
        assert result.parse_error
        assert any("parse error" in e for e in result.errors)

    def test_structuring_path(self, instances):
        inst = by_type(instances, "calculate_total_relation_time")
        result = run(inst, "cote_s", OracleMockClient(inst))
        assert result.llm_calls == 3
        assert result.answer == inst.gold


class TestStructuring:
    """cote_s and cotapi_s structure the same way and never fall back to the gold graph."""

    @staticmethod
    def no_structuring_client(inst):
        oracle = OracleMockClient(inst)

        class NoDeclarations:
            def complete(self, messages, **kwargs):
                if kwargs["step"] == "structure_data":
                    return "I would rather not restate the facts."
                return oracle.complete(messages, **kwargs)

        return NoDeclarations()

    def test_both_run_on_an_empty_graph(self, instances):
        for inst in instances:
            try:
                right_on_empty_graph = dispatch(TKG(), inst.canonical_call) == inst.gold
            except TkgqaError:
                right_on_empty_graph = False
            for technique in ("cote_s", "cotapi_s"):
                result = run(inst, technique, self.no_structuring_client(inst))
                assert result.errors[0] == "structuring failed: reply contains no fenced tqdsl block"
                assert score(result, inst.gold, inst.question_type) == right_on_empty_graph, (technique, inst.id)

    def test_structured_graph_is_the_restated_one(self, instances):
        inst = by_type(instances, "calculate_total_relation_time")
        structure = "```tqdsl\nfact(E1, R1, E2, 2000, 2010)\nfacts(*, *, *) |> count\n```"
        script = ["analysis", structure, "```tqdsl\nfacts(*, *, *) |> merge_total\n```"]
        result = run(inst, "cote_s", ScriptedMockClient(script))
        assert result.raw_answer == 10
        assert extract_fenced_source(result.transcript[2]["reply"]).strip() == "facts(*, *, *) |> merge_total"

    def test_bad_stage_arguments_recorded(self, instances):
        inst = by_type(instances, "calculate_total_relation_time")
        structure = "```tqdsl\nfact(E1, R1, E2, 2000, 2010)\nfacts(*, *, *) |> sort(1, 2)\n```"
        script = ["analysis", structure, "```tqdsl\nfacts(*, *, *) |> count\n```"]
        result = run(inst, "cote_s", ScriptedMockClient(script))
        assert result.errors[0] == "structuring failed: sort arguments must be (start|end, asc|desc)"
        assert result.raw_answer == 0  # the solve program ran on the empty graph


class TestRestatementMemo:
    """A structuring reply is parsed and executed once per distinct text, and
    every job given that text gets the same outcome, failures included."""

    SOLVE = "```tqdsl\nfacts(*, *, *) |> count\n```"

    @pytest.fixture
    def structuring_parses(self, monkeypatch):
        """The sources of the structuring programs parsed."""
        sources = []
        real_parse = pipelines.parse

        def counting_parse(source):
            if source.startswith("fact("):
                sources.append(source)
            return real_parse(source)

        monkeypatch.setattr(pipelines, "parse", counting_parse)
        return sources

    def run_jobs(self, instances, structure_replies):
        """One cote_s job per reply, all sharing one memo."""
        inst = by_type(instances, "calculate_total_relation_time")
        memo = pipelines.Memo()
        return [
            run(inst, "cote_s", ScriptedMockClient(["analysis", reply, self.SOLVE]), memo=memo)
            for reply in structure_replies
        ]

    @pytest.mark.parametrize(
        "reply, error",
        [
            ("I would rather not restate the facts.", "reply contains no fenced tqdsl block"),
            ("```tqdsl\nfact(E1 R1\n```", "tqdsl parse error: syntax error at line 1, col 9: expected ',', found 'R1'"),
            (
                "```tqdsl\nfact(E1, R1, E2, 2000, 2010)\nfact(E1, R1, E2, 2000, 2010)\nfacts(*, *, *) |> count\n```",
                "duplicate fact at index 1: Fact(s='E1', r='R1', o='E2', t0=2000, t1=2010)",
            ),
            (
                "```tqdsl\nfact(E1, R1, E2, 2000, 2010)\nfacts(*, *, *) |> sort(1, 2)\n```",
                "sort arguments must be (start|end, asc|desc)",
            ),
        ],
        ids=["no-fence", "parse", "duplicate", "execution"],
    )
    def test_failure_recorded_in_every_job(self, instances, structuring_parses, reply, error):
        results = self.run_jobs(instances, [reply] * 3)
        for result in results:
            assert result.errors[0] == f"structuring failed: {error}"
            assert result.raw_answer == 0  # the solve program ran on an empty graph
        assert len(structuring_parses) == (1 if reply.startswith("```") else 0)

    def test_threads_share_one_memo(self, structuring_parses):
        """Threads racing for the same replies get one graph per reply, parsed once."""
        facts = "\n".join(f"fact(E1, R1, E{i}, 2000, 2010)" for i in range(300))
        replies = [f"```tqdsl\n{facts}\nfacts(*, *, *) |> {stage}\n```" for stage in ("count", "sort(start, asc)")]
        memo = pipelines.Memo()
        got = [[] for _ in range(8)]
        start = threading.Barrier(len(got))

        def work(mine):
            start.wait()
            for i in range(200):
                mine.append(memo.restated(replies[i % 2]))

        threads = [threading.Thread(target=work, args=(mine,)) for mine in got]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(mine) for mine in got] == [200] * 8
        assert len(structuring_parses) == 2
        assert len({id(g) for mine in got for g in mine[0::2]}) == len({id(g) for mine in got for g in mine[1::2]}) == 1

    def test_replies_differing_by_one_fact_build_different_graphs(self, instances, structuring_parses):
        one = "fact(E1, R1, E2, 2000, 2010)"
        two = one + "\nfact(E1, R1, E3, 2011, 2015)"
        replies = [f"```tqdsl\n{facts}\nfacts(*, *, *) |> count\n```" for facts in (one, two, one, two)]
        results = self.run_jobs(instances, replies)
        assert [result.raw_answer for result in results] == [1, 2, 1, 2]
        assert all(not result.errors for result in results)
        assert len(structuring_parses) == 2


class TestDeepNesting:
    """Replies nested thousands deep become recorded failures, not exceptions."""

    DEEP = "[" * 3000 + "]" * 3000

    def test_reply_json(self, instances):
        inst = by_type(instances, "timeline")
        reply = '```json\n{"answer": ' + self.DEEP + "}\n```"
        result = run(inst, "direct", ScriptedMockClient([reply]))
        assert result.parse_error and not score(result, inst.gold, inst.question_type)
        with pytest.raises(AnswerParseError):
            extract_answer(reply)

    def test_function_selection(self, instances):
        inst = by_type(instances, "timeline")
        select = '```json\n{"name": "timeline", "arguments": {"s": ' + self.DEEP + "}}\n```"
        client = ScriptedMockClient({"Available functions:": select, "Function results:": "no json", "": "analysis"})
        result = run(inst, "cotapi", client)
        assert any("selection failed" in e for e in result.errors)
        assert result.parse_error

    def test_tqdsl_program(self, instances):
        inst = by_type(instances, "timeline")
        script = ["analysis", "```tqdsl\ncall timeline(" + self.DEEP + ")\n```"]
        result = run(inst, "cote", ScriptedMockClient(script))
        assert result.parse_error
        assert any("parse error" in e for e in result.errors)


class TestCotapi:
    def test_oracle_mock_hits_gold(self, instances):
        for inst in instances:
            result = run(inst, "cotapi", OracleMockClient(inst))
            assert result.llm_calls == 3
            assert result.function_calls and result.function_calls[0][1] is True
            assert score(result, inst.gold, inst.question_type), inst.id

    def test_structuring_adds_one_call(self, instances):
        inst = by_type(instances, "timeline")
        result = run(inst, "cotapi_s", OracleMockClient(inst))
        assert result.llm_calls == 4
        assert score(result, inst.gold, inst.question_type)

    def test_non_associated_function_still_dispatched(self, instances):
        inst = by_type(instances, "timeline")
        args = inst.canonical_call.arguments
        select = fenced({"name": "first_last", "arguments": {**args, "which": "first"}})
        final = fenced({"explanation": "used first_last", "answer": "E1"})
        client = ScriptedMockClient(
            {"Available functions:": select, "Function results:": final, "": "analysis"}
        )
        result = run(inst, "cotapi", client)
        assert result.function_calls[0][1] is False
        assert result.llm_calls == 3

    def test_unknown_function_proceeds_to_failure_answer(self, instances):
        inst = by_type(instances, "timeline")
        select = fenced({"name": "foo", "arguments": {}})
        client = ScriptedMockClient(
            {"Available functions:": select, "Function results:": "no json", "": "analysis"}
        )
        result = run(inst, "cotapi", client)
        assert result.llm_calls == 3
        assert result.function_calls == []
        assert any("selection failed" in e for e in result.errors)
        assert not score(result, inst.gold, inst.question_type)

    def test_random_mock_below_oracle(self, instances):
        oracle_correct = sum(
            score(run(i, "cotapi", OracleMockClient(i)), i.gold, i.question_type) for i in instances
        )
        random_correct = sum(
            score(run(i, "cotapi", RandomFunctionMockClient(i, seed=1)), i.gold, i.question_type)
            for i in instances
        )
        assert oracle_correct == len(instances)
        assert random_correct < oracle_correct


class TestStructuringWork:
    """Counts, not timings, of the work cote_s and cotapi_s do over one graph's instances."""

    # gc collections (all generations) of one pass over both techniques, counted
    # before the restatement path was trimmed: 74 on CPython 3.11 with the default
    # thresholds; the count repeats exactly from run to run
    PRIOR_GC_COLLECTIONS = 74

    @pytest.fixture(scope="class")
    def instances_2k(self):
        g = generate_graph(GraphParams(seed=7, n_entities=60, n_relations=8, n_facts=2000))
        return generate_instances(g, per_type=1, seed=3)

    @staticmethod
    def run_all(instances):
        """Every job of both techniques, sharing one memo as an eval's jobs do."""
        memo = pipelines.Memo()
        for technique in ("cote_s", "cotapi_s"):
            for inst in instances:
                result = run(inst, technique, OracleMockClient(inst, memo), memo=memo)
                assert score(result, inst.gold, inst.question_type), (technique, inst.id)

    def test_each_piece_of_work_done_once(self, instances_2k, monkeypatch):
        assert len({id(inst.tkg) for inst in instances_2k}) == 1
        programs, checks, builds = [], [], []
        real_program, real_check, real_build = (
            pipelines._structuring_program, graph_module._check_fact, TKG._build_index
        )
        monkeypatch.setattr(pipelines, "_structuring_program", lambda g: programs.append(g) or real_program(g))
        monkeypatch.setattr(
            graph_module, "_check_fact", lambda i, raw, share: checks.append(i) or real_check(i, raw, share)
        )
        monkeypatch.setattr(TKG, "_build_index", lambda g, field: builds.append((g, field)) or real_build(g, field))
        self.run_all(instances_2k)
        n_facts = len(instances_2k[0].tkg)
        assert programs == [instances_2k[0].tkg]
        assert checks == list(range(n_facts))  # one check per declaration, one structuring for all jobs
        per_graph = collections.Counter((id(g), field) for g, field in builds)
        assert per_graph and max(per_graph.values()) == 1

    def test_gc_collections_no_more_than_before(self, instances_2k):
        self.run_all(instances_2k)  # warm every first-use cache
        gc.collect()
        before = sum(stat["collections"] for stat in gc.get_stats())
        self.run_all(instances_2k)
        collections_run = sum(stat["collections"] for stat in gc.get_stats()) - before
        assert collections_run <= self.PRIOR_GC_COLLECTIONS


class TestRandomMockOnEmptyGraph:
    def test_failures_are_recorded(self, instances):
        for inst in instances:
            empty = dataclasses.replace(inst, tkg=TKG())
            for technique in ("cotapi", "cotapi_s"):
                result = run(empty, technique, RandomFunctionMockClient(empty, seed=1))
                assert any(
                    e.startswith(("function selection failed", "dispatch error")) for e in result.errors
                ), (inst.id, technique, result.errors)


class TestDeterminism:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_identical_transcripts(self, instances, technique):
        inst = by_type(instances, "timeline")
        first = run(inst, technique, OracleMockClient(inst))
        second = run(inst, technique, OracleMockClient(inst))
        assert first.transcript == second.transcript
        assert first.answer == second.answer
        assert first.llm_calls == second.llm_calls
        assert json.dumps(first.transcript_record({}, 0), sort_keys=True) == json.dumps(
            second.transcript_record({}, 0), sort_keys=True
        )

    def test_graph_never_mutated(self, instances):
        inst = by_type(instances, "timeline")
        facts_before = inst.tkg.facts
        for technique in TECHNIQUES:
            run(inst, technique, OracleMockClient(inst))
        assert inst.tkg.facts is facts_before


@pytest.fixture(scope="module")
def default_instances():
    """One instance per question type over a graph of the default 270 facts."""
    return generate_instances(generate_graph(GraphParams(seed=7)), per_type=1, seed=3)


@pytest.fixture(scope="module")
def instances_10k():
    """The 10,000-fact instances of the acceptance suite's wiring check."""
    g = generate_graph(GraphParams(seed=7, n_entities=60, n_relations=8, n_facts=10_000))
    types = ["timeline", "relation_duration", "is_triplet_within_timespan"]
    return generate_instances(g, per_type=1, types=types, seed=3)


def parts_of(stored) -> list[str]:
    """The strings between a stored prompt's ``None`` pieces, each joined: ``prompt.split(text)`` when
    every copy of the text was cut out."""
    parts = [""]
    for piece in stored:
        if piece is None:
            parts.append("")
        else:
            parts[-1] += piece
    return parts


class TestTranscriptRecord:
    """A turn keeps each prompt as its pieces, ``None`` for each copy of the instance's text;
    expand_transcripts joins them."""

    @staticmethod
    def stored_and_expanded(result, inst):
        record = json.loads(json.dumps(result.transcript_record({}, 0)))
        assert_stored_once([record], [result])
        return record, next(expand_transcripts([record], [inst]))["transcript"]

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_round_trip(self, default_instances, instances_10k, technique):
        for inst in default_instances + instances_10k:
            client = RecordingClient(OracleMockClient(inst))
            result = run(inst, technique, client)
            record, expanded = self.stored_and_expanded(result, inst)
            assert expanded == received(result, client)
            pieces = [value for where, value in stored_strings([record]) if len(where) > 2 and isinstance(value, str)]
            assert not any(inst.tkg_text in piece for piece in pieces)

    def test_text_echoed_into_later_prompts(self, default_instances):
        inst = by_type(default_instances, "timeline")
        text = inst.tkg_text
        client = RecordingClient(ScriptedMockClient(
            {
                'keys "Option1"': fenced({"Option1": text, "Option2": text[:-1], "Option3": text + text}),
                'field "score"': fenced({"score": 8}),
                "": fenced({"answer": list(inst.gold.value)}),
            }
        ))
        result = run(inst, "tot", client)
        record, expanded = self.stored_and_expanded(result, inst)
        assert expanded == received(result, client)
        # at most four copies: the statement's, and three in a depth-2 state "text -> text + text"
        assert max(turn["prompt"].count(None) for turn in record["transcript"]) == 4

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_empty_text(self, default_instances, technique):
        base = by_type(default_instances, "timeline")
        inst = dataclasses.replace(base, tkg=TKG())
        assert inst.tkg_text == ""
        client = RecordingClient(OracleMockClient(inst))
        result = run(inst, technique, client)
        record, expanded = self.stored_and_expanded(result, inst)
        assert not any(None in turn["prompt"] for turn in record["transcript"])
        assert ["".join(turn["prompt"]) for turn in result.transcript] == client.prompts
        assert expanded == received(result, client)


class TestTurnMemory:
    """A job holds each full prompt only while it is asked; its turns keep the stored pieces."""

    def test_no_stored_piece_holds_the_text(self, instances_10k):
        inst = instances_10k[0]
        result = run(inst, "tot", OracleMockClient(inst))
        assert result.llm_calls == len(result.transcript) == 14
        assert all(turn["prompt"].count(None) == 1 for turn in result.transcript)  # each prompt carried the text once
        pieces = [piece for turn in result.transcript for piece in turn["prompt"] if piece is not None]
        assert not any(inst.tkg_text in piece for piece in pieces)

    def test_peak_stays_near_one_copy_of_the_text(self, instances_10k):
        """The prompt being asked, as the statement is kept as its pieces: 1.04x the text at 10k
        facts, against 2.05x when the statement was joined and 15.3x when every turn kept its full
        prompt until the job ended."""
        inst = instances_10k[0]
        run(inst, "tot", OracleMockClient(inst))  # warm the template and schema caches
        tracemalloc.start()
        try:
            result = run(inst, "tot", OracleMockClient(inst))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.answer == inst.gold
        assert peak < 1.5 * len(inst.tkg_text)


def _piece_cases():
    """(pieces, text) pairs whose pieces are whole, cut and stray copies of the text."""

    def cases(text):
        piece = st.one_of(
            st.just(text),  # the very object, as the fill places it
            st.just(text).map(lambda s: "".join(list(s))),  # an equal string found by search
            st.integers(0, len(text)).map(lambda k: text[:k]),
            st.integers(0, len(text)).map(lambda k: text[k:]),
            st.text(alphabet="ab.", max_size=3),
        )
        return st.tuples(st.lists(piece, max_size=6), st.just(text))

    short = st.text(alphabet="ab", min_size=1, max_size=5)
    # periodic and longer than the pieces most strays make, so near-copies abound
    long = st.builds(
        lambda unit, tail: unit * (64 // len(unit) + 1) + tail,
        st.text(alphabet="ab", min_size=1, max_size=3),
        st.text(alphabet="ab", max_size=3),
    )
    return st.one_of(short, long).flatmap(cases)


def _copies_in_one_piece(pieces, needle):
    """Whether each copy of ``needle`` that ``str.split`` cuts the pieces' join at lies whole in one piece."""
    ends = list(itertools.accumulate(map(len, pieces)))
    at = 0
    for cut in "".join(pieces).split(needle)[:-1]:
        at += len(cut)
        end = ends[bisect.bisect_right(ends, at)]  # the end of the piece the copy starts in
        if at + len(needle) > end:
            return False
        at += len(needle)
    return True


class TestStoredPrompt:
    """A prompt's stored pieces join back to it with the text for each ``None``, and the strings between
    those are ``prompt.split(text)``, unless a copy spans two pieces."""

    @settings(max_examples=1000, deadline=None)
    @given(_piece_cases())
    def test_parts_of_the_pieces(self, case):
        pieces, text = case
        prompt = "".join(pieces)
        stored = pipelines._stored_prompt(pieces, text)
        assert "".join(text if piece is None else piece for piece in stored) == prompt
        if _copies_in_one_piece(pieces, text):
            assert parts_of(stored) == prompt.split(text)

    LONG = "q" * 64 + "rst"

    @pytest.mark.parametrize(
        "prompt, text",
        [
            pytest.param("ab", "abc", id="shorter"),
            pytest.param(LONG[:-1], LONG, id="shorter-long"),
            pytest.param("abc", "abc", id="equal"),
            pytest.param(LONG, LONG, id="equal-long"),
            pytest.param("xabcabcy", "abc", id="back-to-back"),
            pytest.param("x" + LONG + LONG + "y", LONG, id="back-to-back-long"),
            pytest.param("aaab", "aab", id="self-overlapping"),
            pytest.param("aaaa", "aa", id="overlapping-copies"),
            pytest.param("aaa", "aa", id="overlapping-copies-odd"),
            pytest.param(LONG[:-1] + LONG + "z", LONG, id="partial-then-whole"),
            pytest.param("q" + LONG, LONG, id="anchor-then-whole"),
            pytest.param("xy" + LONG, LONG, id="copy-at-end-long"),
            pytest.param("xyab", "ab", id="copy-at-end"),
        ],
    )
    def test_fixed_cases(self, prompt, text):
        """A prompt of one piece is cut as ``str.split`` cuts it, and one with each of those copies placed
        as the text itself keeps its pieces, with ``None`` for each placed copy."""
        parts = prompt.split(text)
        placed = [piece for part in parts for piece in (part, text)][:-1]
        assert parts_of(pipelines._stored_prompt([prompt], text)) == parts
        assert pipelines._stored_prompt(placed, text) == [None if piece is text else piece for piece in placed]

    def test_text_echoed_across_two_pieces(self, default_instances):
        """An option that echoes the text without its final ``.``, placed in a state that the template
        follows with ``.``: that copy spans two pieces and stays in its part, and the line expands exactly."""
        inst = by_type(default_instances, "timeline")
        text = inst.tkg_text
        assert text.endswith(".")
        client = RecordingClient(ScriptedMockClient(
            {
                'keys "Option1"': fenced({"Option1": text[:-1], "Option2": "b", "Option3": "c"}),
                'field "score"': fenced({"score": 8}),
                "": fenced({"answer": list(inst.gold.value)}),
            }
        ))
        result = run(inst, "tot", client)
        record = json.loads(json.dumps(result.transcript_record({}, 0)))
        assert next(expand_transcripts([record], [inst]))["transcript"] == received(result, client)
        straddled = [
            (turn, prompt) for turn, prompt in zip(result.transcript, client.prompts)
            if f"Reasoning state: {text[:-1]}." in prompt
        ]
        assert straddled
        for turn, prompt in straddled:
            assert parts_of(turn["prompt"]) != prompt.split(text)
            # the statement's copy is cut out; the echo's is kept, in the one part that holds the text
            [part] = [part for part in parts_of(turn["prompt"]) if text in part]
            assert f"Reasoning state: {text[:-1]}. Provide" in part


FILL_FIELDS = {
    "a": "xy",
    "b": 42,
    "w": 6,
    "o": types.SimpleNamespace(attr="z"),
    "l": ["p", 7],
    "d": {"k": "v"},
}


def _well_formed_templates():
    """Templates that ``str.format(**FILL_FIELDS)`` fills: escapes, conversions, nested specs, attributes and items."""
    literal = st.text(alphabet="ab {}\n", max_size=4).map(lambda t: t.replace("{", "{{").replace("}", "}}"))
    name = st.sampled_from(["a", "b", "w", "o.attr", "l[0]", "l[1]", "d[k]"])
    conversion = st.sampled_from(["", "!r", "!s", "!a"])
    spec = st.sampled_from(["", ":", ":>8", ":*^{w}", ":{w}", ":<{w}", ":{l[1]}", ":{d[k]}>5"])
    field = st.builds(lambda n, c, f: "{" + n + c + f + "}", name, conversion, spec)
    return st.lists(st.one_of(literal, field), max_size=8).map("".join)


def _any_templates():
    """Strings over the characters of the format syntax, most of which ``str.format`` rejects."""
    return st.lists(
        st.one_of(st.text(alphabet="{}!:.[]0abrsxwlo", max_size=6), _well_formed_templates()), max_size=3
    ).map("".join)


class TestFill:
    """A template filled from its pieces is what ``str.format`` makes of it, or fails as it does."""

    @staticmethod
    def fill(template: str) -> str:
        return "".join(pipelines._fill(pipelines._split_template(template), FILL_FIELDS))

    @settings(max_examples=500, deadline=None)
    @given(_well_formed_templates())
    @example("{{a}}{a:{w}}{b!r:>{w}}{o.attr!a}{l[0]}{d[k]!s:*^{w}}")
    def test_equals_str_format(self, template):
        assert self.fill(template) == template.format(**FILL_FIELDS)

    @settings(max_examples=500, deadline=None)
    @given(_any_templates())
    @example("{}")
    @example("{0}")
    @example("{a:{}}")
    @example("{c} }")
    @example("{a.attr}")
    @example("{l[5]}")
    @example("{a!x}")
    @example("{b:s}")
    def test_rejects_what_str_format_rejects(self, template):
        """Each field raises what ``str.format`` raises for it, so ``{}`` raises ``IndexError``; a
        template that does not parse raises ``ValueError`` when it is split, before its fields are
        looked up, where ``str.format`` may first fail on a field to the left of the fault."""
        try:
            expected = template.format(**FILL_FIELDS)
        except Exception as exc:
            expected = type(exc)
        try:
            pieces = pipelines._split_template(template)
        except ValueError:
            assert isinstance(expected, type)
            return
        try:
            got = "".join(pipelines._fill(pieces, FILL_FIELDS))
        except Exception as exc:
            got = type(exc)
        assert got == expected

    def test_positional_fields_raise_index_error(self):
        for template in ("{}", "{0}", "x{a}{}", "{a:{}}"):
            with pytest.raises(IndexError):
                self.fill(template)

    def test_the_text_is_copied_once(self):
        """A string field formats to itself, and the join allocates only the result: ``str.format``
        peaks at 1.25x the result, as it grows its buffer."""
        text = "fact " * 200_000
        (literal, field), (tail, _) = pieces = pipelines._split_template("a {task} b")
        assert (literal, tail) == ("a ", " b") and field.format(task=text) is text
        tracemalloc.start()
        try:
            filled = "".join(pipelines._fill(pieces, {"task": text}))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert filled == f"a {text} b" and peak < 1.05 * len(text)


class TestTranscriptsFile:
    """Lines written in job order, as ``eval`` writes them, expand back to every run's prompts and replies."""

    @staticmethod
    def write(jobs, client=OracleMockClient):
        """(results, records, the transcripts as received) of ``jobs`` run in order.

        Each record is read back from its JSON line.
        """
        stored, results, records, transcripts = {}, [], [], []
        for line, (inst, technique) in enumerate(jobs):
            recorder = RecordingClient(client(inst))
            results.append(run(inst, technique, recorder))
            records.append(json.loads(json.dumps(results[-1].transcript_record(stored, line))))
            transcripts.append(received(results[-1], recorder))
        return results, records, transcripts

    @pytest.mark.parametrize("size", ["270 facts", "10k facts"])
    def test_every_line_expands_to_its_run(self, default_instances, instances_10k, size):
        insts = default_instances if size == "270 facts" else instances_10k
        results, records, transcripts = self.write([(inst, tech) for tech in TECHNIQUES for inst in insts])
        expanded = list(expand_transcripts(records, insts))
        assert [record["transcript"] for record in expanded] == transcripts
        assert [{**e, "transcript": None} for e in expanded] == [{**r, "transcript": None} for r in records]
        assert_stored_once(records, results)
        restatements = [t["reply"] for r in records for t in r["transcript"] if t["step"] == "structure_data"]
        assert sum(isinstance(reply, str) for reply in restatements) == 1 and len(restatements) == 2 * len(insts)
        texts = {inst.id: inst.tkg_text for inst in insts}
        for record in records:  # each prompt piece is the text (None), a string without it, or a reference
            for piece in (piece for turn in record["transcript"] for piece in turn["prompt"]):
                assert piece is None or (
                    texts[record["instance_id"]] not in piece if isinstance(piece, str)
                    else len(piece) in (2, 3) and all(type(i) is int for i in piece)
                )
        schema = pipelines._schema_text()
        assert sum(schema in value for _, value in stored_strings(records) if isinstance(value, str)) == 1

    def test_distinct_replies_are_stored_in_full(self, default_instances):
        """With no repeated reply, every reply is stored in full, and a line is no longer than its turns
        with every piece in full, and shorter exactly when a piece refers back."""
        counter = iter(range(10**6))

        class DistinctClient:
            def __init__(self, inst):
                pass

            def complete(self, messages, **kwargs):
                return fenced({"answer": f"E{next(counter)}", "name": "timeline", "arguments": {"s": "E1"}})

        jobs = [(inst, tech) for tech in ("direct", "tot", "cotapi", "cotapi_s") for inst in default_instances]
        results, records, _ = self.write(jobs, DistinctClient)
        for record, result in zip(records, results, strict=True):
            assert all(isinstance(turn["reply"], str) for turn in record["transcript"])
            stored, full = len(json.dumps(record)), len(json.dumps({**record, "transcript": result.transcript}))
            referred = any(not isinstance(value, str) for _, value in stored_strings([record]))
            assert stored <= full and (stored < full) == referred

    @pytest.mark.parametrize("reply, stored", [("abcd", ["abcd"] * 3), ("abcde", ["abcde", (0, 0), (0, 0)])])
    def test_reference_only_when_shorter(self, default_instances, reply, stored):
        """A reply repeated within one line; ``[0, 0]`` takes 6 characters, as many as ``"abcd"``."""
        inst = by_type(default_instances, "timeline")
        client = RecordingClient(ScriptedMockClient([reply] * 3))
        result = run(inst, "cot", client)
        record = result.transcript_record({}, 0)
        assert [turn["reply"] for turn in record["transcript"]] == stored
        assert next(expand_transcripts([json.loads(json.dumps(record))], [inst]))["transcript"] == received(result, client)

    @pytest.mark.parametrize("reply, part", [("[0, 0]", "[0, 0, 1]"), ("[0, 0, 1]", "[0, 0]")])
    def test_strings_that_read_as_references(self, default_instances, reply, part):
        """A reply, a prompt piece and an echoed JSON array that read as a reference stay strings."""
        inst = by_type(default_instances, "timeline")
        text = inst.tkg_text
        replies = {
            'keys "Option1"': fenced(
                {"Option1": text + part + text, "Option2": json.loads(part), "Option3": [json.loads(reply), text]}
            ),
            'field "score"': reply,
            "": fenced({"answer": list(inst.gold.value)}),
        }
        results, records, transcripts = self.write([(inst, "tot")] * 2, lambda inst: ScriptedMockClient(replies))
        assert [record["transcript"] for record in expand_transcripts(records, [inst])] == transcripts
        assert_stored_once(records, results)
        stored = dict(stored_strings(records))
        # the first tot_evaluate turn, as strings: its state is cut around the text to leave ``part``
        assert stored[0, 2] == reply and part in [value for where, value in stored.items() if where[:2] == (0, 2)]

    def test_reply_that_echoes_its_prompt(self, default_instances):
        """A turn's pieces come before its reply, so a reply equal to a piece of its own prompt refers to it:
        the cot_2 and cot_3 prompts are one piece each."""
        inst = dataclasses.replace(by_type(default_instances, "timeline"), tkg=TKG())

        class EchoClient:
            def __init__(self, inst):
                pass

            def complete(self, messages, **kwargs):
                return messages[-1]["content"]

        results, records, transcripts = self.write([(inst, "cot")], EchoClient)
        assert [record["transcript"] for record in expand_transcripts(records, [inst])] == transcripts
        assert_stored_once(records, results)
        first, *later = [turn["reply"] for turn in records[0]["transcript"]]
        assert first == transcripts[0][0]["prompt"] and later == [[0, 1, 0], [0, 2, 0]]

    def test_schema_pieces_repeated_across_jobs(self, default_instances):
        """The ``api_select`` prompt, the same in every job, is held in full on line 0 and by reference after."""
        results, records, transcripts = self.write([(inst, "cotapi") for inst in default_instances])
        assert [record["transcript"] for record in expand_transcripts(records, default_instances)] == transcripts
        assert_stored_once(records, results)
        assert {record["transcript"][1]["step"] for record in records} == {"api_select"}
        first, *later = [record["transcript"][1]["prompt"] for record in records]
        assert all(isinstance(piece, str) for piece in first) and pipelines._schema_text() in first
        assert later == [[[0, 1, k] for k in range(len(first))]] * (len(records) - 1)

    def test_expands_to_the_prompts_sent_after_the_schema_text_changes(self, default_instances, monkeypatch):
        """A file holds the schema text its prompts carried, once, so it still expands to the prompts the
        client received when the solvers' descriptions, and so the reading code's schema text, change."""
        jobs = [(inst, tech) for tech in ("cotapi", "cotapi_s") for inst in default_instances]
        _, records, transcripts = self.write(jobs)
        schema = pipelines._schema_text()
        assert sum(schema in value for _, value in stored_strings(records) if isinstance(value, str)) == 1
        monkeypatch.setattr(pipelines, "_schema_text", lambda: "a schema that no prompt carried")
        assert [record["transcript"] for record in expand_transcripts(records, default_instances)] == transcripts


class TestSteps:
    # tot, beam 2 / depth 2 / branch 3: 1 + (1 + 3) + (2 + 6) + 1 = 14 steps
    TOT = ["tot_initial"] + (["tot_expand"] + ["tot_evaluate"] * 3) * 3 + ["tot_final"]
    EXPECTED = {
        "direct": ["direct"],
        "cot": ["cot_1", "cot_2", "cot_3"],
        "tot": TOT,
        "cotr": ["cot_1", "cot_2", "cotr_3", "cotr_reflect"],
        "cote": ["exec_analyze", "exec_solve"],
        "cote_s": ["exec_analyze", "structure_data", "exec_solve"],
        "cotapi": ["exec_analyze", "api_select", "api_final"],
        "cotapi_s": ["exec_analyze", "structure_data", "api_select", "api_final"],
    }

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_step_sequence(self, instances, technique):
        inst = by_type(instances, "timeline")
        client = RecordingClient(OracleMockClient(inst))
        result = run(inst, technique, client)
        assert client.steps == self.EXPECTED[technique]
        assert result.llm_calls == len(client.steps)
        assert [turn["step"] for turn in result.transcript] == client.steps

    def test_every_step_is_a_template_and_a_route(self):
        steps = {step for chain in self.EXPECTED.values() for step in chain} | {"confidence"}
        assert len(steps) == 16
        assert set(OracleMockClient.ROUTES) == steps
        templates = {p.stem for p in (Path(pipelines.__file__).parent / "prompts").glob("*.txt")}
        assert templates == steps | {"statement"}

    def test_confidence_is_a_step(self):
        client = RecordingClient(OracleMockClient(None))
        temporal_confidence("q", "d", client)
        assert client.steps == ["confidence"]

    def test_unknown_step_has_no_fallback(self, instances):
        with pytest.raises(KeyError):
            OracleMockClient(instances[0]).complete([{"role": "user", "content": "x"}], step="chat")


class TestRewordedPrompts:
    """The oracle wiring check holds for any prompt wording, because mocks route on the step."""

    # the prompt substrings the mocks routed on before they routed on the step
    OLD_ROUTES = (
        "Available functions:", "Function results:", "fact(S, R, O, T0, T1)", "tqdsl program",
        'keys "Option1"', 'field "score"', "temporal confidence",
    )
    REWORDING = {
        "Available functions:": "Callable tools:",
        "Function results:": "Tool output:",
        "fact(S, R, O, T0, T1)": "fact(subject, relation, object, start, end)",
        "tqdsl program": "tqdsl script",
        'keys "Option1"': 'entries "Option1"',
        'field "score"': 'entry "score"',
        "temporal confidence": "temporal likelihood",
    }

    @pytest.fixture(scope="class")
    def prompts_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("prompts")
        for path in (Path(pipelines.__file__).parent / "prompts").glob("*.txt"):
            text = "Reworded. " + path.read_text(encoding="utf-8")
            for old, new in self.REWORDING.items():
                text = text.replace(old, new)
            assert not any(route in text for route in self.OLD_ROUTES), path.name
            (out / path.name).write_text(text, encoding="utf-8")
        return out

    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_oracle_full_marks(self, instances, prompts_dir, technique):
        cfg = PipelineConfig(prompts_dir=prompts_dir)
        for inst in instances:
            client = RecordingClient(OracleMockClient(inst))
            result = run(inst, technique, client, cfg)
            assert client.prompts[0].startswith("Reworded. ")
            assert not result.errors, (technique, inst.id)
            assert score(result, inst.gold, inst.question_type), (technique, inst.id)

    def test_confidence(self, prompts_dir, caplog):
        with caplog.at_level(logging.WARNING):
            value = temporal_confidence("q", "d", OracleMockClient(None), PipelineConfig(prompts_dir=prompts_dir))
        assert value == 1.0 and not caplog.records

    def test_task_field_with_a_conversion_or_a_spec(self, instances, tmp_path):
        """Such a field formats the statement as ``str.format`` formats the joined statement."""
        template = "{task!r} | {task:.30} | {task!s:.40} | {task!a} | {task:>9} | {task}"
        (tmp_path / "direct.txt").write_text(template, encoding="utf-8")
        (tmp_path / "statement.txt").write_text(
            (Path(pipelines.__file__).parent / "prompts" / "statement.txt").read_text(encoding="utf-8") + " \u00e9",
            encoding="utf-8",
        )
        inst = by_type(instances, "timeline")
        client = RecordingClient(OracleMockClient(inst))
        result = run(inst, "direct", client, PipelineConfig(prompts_dir=tmp_path))
        statement = "".join(pipelines._statement(inst, True, tmp_path))
        assert client.prompts == [template.format(task=statement)]
        assert next(expand_transcripts([result.transcript_record({}, 0)], [inst]))["transcript"] == received(
            result, client
        )


class TestLiveClient:
    def test_sleeps_only_between_attempts(self, monkeypatch):
        import requests

        class Unavailable:
            status_code = 503
            text = "busy"
            headers = {}

        posts, sleeps = [], []
        monkeypatch.setattr(requests, "post", lambda *args, **kwargs: posts.append(kwargs) or Unavailable())
        monkeypatch.setattr(pipelines.time, "sleep", sleeps.append)
        client = LiveChatClient("http://endpoint.invalid", "key", max_retries=4, requests_per_second=0)
        with pytest.raises(ClientError, match="after 4 attempts"):
            client.complete([{"role": "user", "content": "x"}], model="m", step="direct")
        assert len(posts) == 4
        assert sleeps == [1, 2, 4]

    @pytest.mark.parametrize(
        "status, retry_after, sleeps",
        [
            pytest.param(429, "3", [3, 3, 3], id="429-delta-seconds"),
            pytest.param(503, " 0 ", [0, 0, 0], id="503-zero"),
            pytest.param(503, "3600", [60, 60, 60], id="capped"),
            pytest.param(503, "Wed, 21 Oct 2015 07:28:00 GMT", [1, 2, 4], id="http-date-backs-off"),
            pytest.param(503, "-3", [1, 2, 4], id="negative-backs-off"),
            pytest.param(503, "1.5", [1, 2, 4], id="fraction-backs-off"),
            pytest.param(500, "3", [1, 2, 4], id="500-ignores-it"),
            pytest.param(429, None, [1, 2, 4], id="no-header"),
        ],
    )
    def test_retry_after(self, monkeypatch, status, retry_after, sleeps):
        import requests

        class Refused:
            status_code = status
            text = "slow down"
            headers = requests.structures.CaseInsensitiveDict({} if retry_after is None else {"retry-after": retry_after})

        slept = []
        monkeypatch.setattr(requests, "post", lambda *args, **kwargs: Refused())
        monkeypatch.setattr(pipelines.time, "sleep", slept.append)
        client = LiveChatClient("http://endpoint.invalid", "key", max_retries=4, requests_per_second=0)
        with pytest.raises(ClientError, match="after 4 attempts"):
            client.complete([{"role": "user", "content": "x"}], model="m", step="direct")
        assert slept == sleeps

    def test_retry_after_applies_to_the_next_attempt_only(self, monkeypatch):
        import requests

        class Response:
            def __init__(self, status_code, headers, body=None):
                self.status_code, self.headers, self.text, self._body = status_code, headers, "", body

            def json(self):
                return self._body

        responses = iter([
            Response(429, {"Retry-After": "5"}),
            requests.ConnectionError("reset"),
            Response(503, {}),
            Response(200, {}, {"choices": [{"message": {"content": "done"}}]}),
        ])

        def post(*args, **kwargs):
            response = next(responses)
            if isinstance(response, Exception):
                raise response
            return response

        slept = []
        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr(pipelines.time, "sleep", slept.append)
        client = LiveChatClient("http://endpoint.invalid", "key", max_retries=4, requests_per_second=0)
        assert client.complete([{"role": "user", "content": "x"}], model="m", step="direct") == "done"
        assert slept == [5, 2, 4]

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param({"choices": [{"message": {"content": None}}]}, "content is NoneType", id="null-content"),
            pytest.param({"choices": [{"message": {"content": [{"type": "text"}]}}]}, "content is list", id="list-content"),
            pytest.param(["choices"], "malformed completion response", id="list-body"),
            pytest.param("choices", "malformed completion response", id="string-body"),
            pytest.param({"choices": "x"}, "malformed completion response", id="string-choices"),
        ],
    )
    def test_malformed_completion_is_a_client_error(self, instances, monkeypatch, body, message):
        import requests

        class Completed:
            status_code = 200

            def json(self):
                return body

        monkeypatch.setattr(requests, "post", lambda *args, **kwargs: Completed())
        client = LiveChatClient("http://endpoint.invalid", "key", requests_per_second=0)
        with pytest.raises(ClientError, match=message):
            client.complete([{"role": "user", "content": "x"}], model="m", step="direct")
        with pytest.raises(ClientError, match=message):  # out of run as eval expects, not a TypeError
            run(by_type(instances, "timeline"), "direct", client)


class TestTemporalConfidence:
    def test_oracle_mock_scores_one_without_clamp(self, caplog):
        with caplog.at_level(logging.WARNING):
            value = temporal_confidence("q", "d", OracleMockClient(None))
        assert value == 1.0
        assert not any("clamp" in rec.message for rec in caplog.records)

    def test_random_mock_needs_no_instance(self):
        assert temporal_confidence("q", "d", RandomFunctionMockClient(None, seed=3)) == 1.0

    def test_parsed_score(self):
        client = ScriptedMockClient([fenced({"score": 0.95})])
        assert temporal_confidence("q", "d", client) == 0.95

    def test_clamped_score_warns(self, caplog):
        client = ScriptedMockClient([fenced({"score": 1.7})])
        with caplog.at_level(logging.WARNING):
            value = temporal_confidence("q", "d", client)
        assert value == 1.0
        assert any("clamp" in rec.message for rec in caplog.records)

    def test_missing_score_is_none(self):
        client = ScriptedMockClient(["no score here"])
        assert temporal_confidence("q", "d", client) is None

    @pytest.mark.parametrize(
        "score", ["9" * 400, "-" + "9" * 400, "NaN", "Infinity", "-Infinity", "1e400"],
        ids=["huge", "-huge", "nan", "inf", "-inf", "1e400"],
    )
    def test_score_that_is_no_finite_number_is_none(self, score):
        client = ScriptedMockClient(['```json\n{"score": ' + score + '}\n```'])
        assert temporal_confidence("q", "d", client) is None


def test_unknown_technique_rejected(instances):
    with pytest.raises(ValueError):
        run(instances[0], "bogus", ScriptedMockClient([]))
