"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The live-endpoint check is opt-in via environment variables
and never gates CI.
"""

import json
import os
import random
import time

import pytest

from tkgqa.answers import FunctionCall
from tkgqa.dsl import ErrorValue, Limits, execute, parse
from tkgqa.errors import StepLimitExceededError, TkgqaError
from tkgqa.generator import (
    GraphParams,
    TEMPLATES,
    generate_graph,
    generate_instances,
    sample_call,
    verify_instance,
)
from tkgqa.graph import TKG, Interval, save_tkg
from tkgqa.oracle import oracle_answer
from tkgqa.pipelines import (
    OracleMockClient,
    PipelineConfig,
    RandomFunctionMockClient,
    ScriptedMockClient,
    TECHNIQUES,
    run,
)
from tkgqa.primitives import merge_intervals
from tkgqa.scoring import confidence_report, function_usage, make_row, score
from tkgqa.solvers import dispatch, function_names

from conftest import golden_dsl_source, random_graph
from test_solvers import GOLDEN


def note(line: str) -> None:
    print(f"[PASS] {line}")


def _outcome(fn, g, call):
    try:
        return fn(g, call)
    except TkgqaError as exc:
        return type(exc).__name__


def _degenerate_call(name: str) -> FunctionCall:
    """Schema-shaped call over ids absent from any graph; both paths must
    agree on the resulting domain error."""
    from tkgqa.solvers import function_spec

    arguments = {}
    for param in function_spec(name).use_guide:
        if not param.required:
            continue
        arguments[param.name] = {
            "entity": "E999",
            "relation": "R999",
            "integer": 1,
            "interval": [0, 1],
            "triplet": ["E999", "R999", "E998"],
            "steps": [["R999", "start"]],
            "choice": (param.choices or ("",))[0],
        }[param.type]
    return FunctionCall(name, arguments)


@pytest.fixture(scope="module")
def dataset_170():
    g = generate_graph(GraphParams(seed=3))
    return generate_instances(g, per_type=10, seed=3)


def test_a01_oracle_equivalence_17_functions_1000_graphs():
    # exact match, zero tolerance, under 60 s end to end
    started = time.perf_counter()
    names = function_names()
    assert len(names) == 17
    compared = {name: 0 for name in names}
    for seed in range(1000):
        g = random_graph(seed)
        assert len(g.facts) <= 60
        rng = random.Random(seed * 31 + 7)
        for name in names:
            call = sample_call(rng, g, name)
            if call is None:
                # degenerate fallback still exercises both error paths
                call = _degenerate_call(name)
            lhs = _outcome(dispatch, g, call)
            rhs = _outcome(oracle_answer, g, call)
            assert lhs == rhs, (seed, call, lhs, rhs)
            compared[name] += 1
    elapsed = time.perf_counter() - started
    assert all(count == 1000 for count in compared.values())
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    note(f"oracle equivalence: 17 functions x 1000 graphs, exact match, {elapsed:.1f}s")


def test_a02_fixture_golden_values_oracle_first(fixture_a):
    for call, expected in GOLDEN:
        assert oracle_answer(fixture_a, call) == expected, call
        assert dispatch(fixture_a, call) == expected, call
    note(f"fixture golden values: {len(GOLDEN)} derived examples, oracle recomputed then matched")


def test_a03_double_oracle_dataset(dataset_170, tmp_path):
    from tkgqa.cli import main

    started = time.perf_counter()
    assert len(dataset_170) == 170
    for inst in dataset_170:
        assert dispatch(inst.tkg, inst.canonical_call) == inst.gold
        assert verify_instance(inst), inst.id
    # the same run through the operational surface: gen-dataset verifies
    # every instance itself and refuses to export otherwise
    g = generate_graph(GraphParams(seed=3))
    save_tkg(g, tmp_path / "g.jsonl")
    assert main([
        "gen-dataset", "--graph", str(tmp_path / "g.jsonl"), "--per-type", "10",
        "--seed", "3", "--out", str(tmp_path / "d.jsonl"),
    ]) == 0
    assert len((tmp_path / "d.jsonl").read_text().strip().splitlines()) == 170
    twenty = generate_instances(g, per_type=20, seed=3)
    used: dict[str, set] = {}
    for inst in twenty:
        used.setdefault(inst.question_type, set()).add(inst.template_index)
    for qtype, indexes in used.items():
        assert len(indexes) >= 5, (qtype, indexes)
        assert 5 <= len(TEMPLATES[qtype]) <= 10
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"dataset generation took {elapsed:.1f}s"
    note(f"double-oracle dataset: 170/170 verified (library and CLI), >=5 templates per type, {elapsed:.1f}s")


def test_a04_interval_merge_laws_ten_thousand_lists():
    rng = random.Random(99)
    for _ in range(10_000):
        ivs = []
        for _ in range(rng.randint(0, 10)):
            a = rng.randint(1900, 2050)
            ivs.append(Interval(a, a + rng.randint(0, 30)))
        merged, total = merge_intervals(ivs)
        for prev, nxt in zip(merged, merged[1:]):
            assert prev.t1 < nxt.t0  # disjoint and sorted
        assert total <= sum(iv.length for iv in ivs)
        touching = any(
            x is not y and x.t0 <= y.t1 and y.t0 <= x.t1 for x in ivs for y in ivs
        )
        if not touching:
            assert total == sum(iv.length for iv in ivs)
        assert merge_intervals(merged) == (merged, total)  # fixpoint
    note("interval-merge laws: disjointness, fixpoint and length bounds over 10,000 lists")


def test_a05_dsl_golden_programs_match_dispatch():
    from tkgqa.pipelines import coerce_answer

    names = function_names()
    compared = {name: 0 for name in names}
    for seed in range(100):
        g = random_graph(seed + 5000)
        rng = random.Random(seed * 13 + 3)
        for name in names:
            call = sample_call(rng, g, name)
            if call is None:
                continue
            program = parse(golden_dsl_source(call))
            try:
                expected = dispatch(g, call)
            except TkgqaError as exc:
                result = execute(program, g).value
                assert isinstance(result, ErrorValue) and result.error == type(exc).__name__
                compared[name] += 1
                continue
            value = execute(program, g).value
            got = coerce_answer(expected.kind, value)
            assert got == expected, (seed, call, value)
            compared[name] += 1
    assert all(count >= 100 for count in compared.values()), compared
    # sandbox: a zero-step budget rejects every program
    for source in ("facts(E1, R1, *) |> count", "call timeline(E1, R1, *)"):
        with pytest.raises(StepLimitExceededError):
            execute(parse(source), TKG([("E1", "R1", "E2", 2000, 2001)]), Limits(max_steps=0))
    note("DSL golden programs: 17 types x 100 graphs equal dispatch; zero-step budget always rejects")


def test_a06_end_to_end_oracle_mock_and_random_separation(dataset_170):
    rows = []
    for inst in dataset_170:
        result = run(inst, "cotapi", OracleMockClient(inst))
        ok = score(result, inst.gold, inst.question_type)
        assert ok, inst.id
        rows.append(make_row(inst, result, ok))
    usage = function_usage(rows)
    assert usage == {
        "associated_true": 100.0,
        "associated_false": 0.0,
        "non_associated_true": 0.0,
        "non_associated_false": 0.0,
    }
    random_correct = sum(
        score(run(inst, "cotapi", RandomFunctionMockClient(inst, seed=11)), inst.gold, inst.question_type)
        for inst in dataset_170
    )
    assert random_correct < len(dataset_170)
    note(
        f"end-to-end: oracle-mock cotapi 170/170 with usage 100/0/0/0; "
        f"random-function mock {random_correct}/170 (strictly below)"
    )


def test_a07_technique_call_counts(dataset_170):
    inst = dataset_170[0]
    assert run(inst, "direct", OracleMockClient(inst)).llm_calls == 1
    assert run(inst, "cot", OracleMockClient(inst)).llm_calls == 3
    assert run(inst, "cotapi", OracleMockClient(inst)).llm_calls == 3
    assert run(inst, "cotapi_s", OracleMockClient(inst)).llm_calls == 4

    # cotr: 3 + k with k <= max_reflexions; exercise k = 1 and the bound
    gold_reply = "```json\n" + json.dumps({"explanation": "x", "answer": inst.gold.to_json()["value"]}) + "\n```"
    accept = run(inst, "cotr", ScriptedMockClient(["a", "b", gold_reply, gold_reply]))
    assert accept.llm_calls == 4 and accept.reflexions == 0
    exhaust = run(inst, "cotr", ScriptedMockClient(["a", "b", gold_reply] + ["repeat_please"] * 3))
    assert exhaust.llm_calls == 3 + 3 and exhaust.reflexions == 3

    # tot: 1 + sum(expansions + evaluations) + 1, bounded by the
    # beam-2/depth-2/branch-3 closed form: 1 + (1+3) + (2+6) + 1 = 14
    tot = run(inst, "tot", OracleMockClient(inst))
    assert tot.llm_calls == 14
    note("technique call counts: direct=1 cot=3 cotapi=3 cotapi_s=4 cotr=3+k (k<=3) tot=14")


def test_a08_confidence_arithmetic():
    scores = (
        [("knowledge", 0.1)] * 940
        + [("knowledge", 0.9)] * 60
        + [("temporal", 0.95)] * 1000
    )
    report = confidence_report(scores, threshold=0.8)
    assert (report.knowledge_knowledge, report.knowledge_temporal) == (940, 60)
    assert (report.temporal_knowledge, report.temporal_temporal) == (0, 1000)
    assert report.accuracy == pytest.approx(97.0, abs=1e-9)
    boundary = confidence_report([("temporal", 0.8), ("knowledge", 0.7999999)], threshold=0.8)
    assert boundary.temporal_temporal == 1 and boundary.knowledge_knowledge == 1
    note("confidence arithmetic: 940/60/0/1000 -> 97.0% exactly; 0.8 boundary inclusive")


def test_a09_dispatch_performance_10k_facts():
    g = generate_graph(
        GraphParams(seed=42, n_entities=400, n_relations=12, n_facts=10_000, time_range=(1000, 3000))
    )
    assert len(g.facts) == 10_000
    rng = random.Random(42)
    worst = 0.0
    calls = [sample_call(rng, g, name) for name in function_names()]
    # whole-graph scans: the heaviest shapes each answer type allows
    busiest_relation = max(g.relations, key=lambda r: len(g.query(r=r)))
    busiest_object = max(g.entities, key=lambda e: len(g.query(o=e)))
    calls += [
        FunctionCall("calculate_total_relation_time", {}),
        FunctionCall("number_of_events_in_time_interval", {"window": [1000, 3000]}),
        FunctionCall("check_interval_without_relation", {"window": [1000, 3000], "min_gap": 1}),
        FunctionCall("count_relations_with_duration", {"comparator": ">=", "threshold": 0, "window": [1000, 3000]}),
        FunctionCall("timeline", {"s": "*", "r": busiest_relation, "o": busiest_object}),
        FunctionCall("event_at_time_t", {"s": "*", "r": busiest_relation, "o": busiest_object, "t": 2000}),
    ]
    for call in calls:
        assert call is not None
        best = min(_timed_dispatch(g, call) for _ in range(3))
        worst = max(worst, best)
        assert best < 0.100, f"{call.name} took {best * 1000:.1f} ms"
    note(f"performance: every dispatch on 10,000 facts under 100 ms (worst {worst * 1000:.2f} ms)")


def _timed_dispatch(g, call):
    started = time.perf_counter()
    try:
        dispatch(g, call)
    except TkgqaError:
        pass
    return time.perf_counter() - started


def test_a10_determinism_bytes(tmp_path):
    from tkgqa.cli import main

    for name in ("a", "b"):
        sub = tmp_path / name
        sub.mkdir()
        assert main(["gen-graph", "--seed", "7", "--facts", "150", "--out", str(sub / "g.jsonl")]) == 0
        assert main([
            "gen-dataset", "--graph", str(sub / "g.jsonl"), "--per-type", "3",
            "--seed", "3", "--out", str(sub / "d.jsonl"),
        ]) == 0
        assert main([
            "eval", "--dataset", str(sub / "d.jsonl"), "--technique", "cotapi,direct",
            "--mock", "oracle", "--transcripts", str(sub / "t.jsonl"),
            "--report", str(sub / "r.txt"),
        ]) == 0
    for file_name in ("g.jsonl", "d.jsonl", "t.jsonl", "r.txt"):
        assert (tmp_path / "a" / file_name).read_bytes() == (tmp_path / "b" / file_name).read_bytes(), file_name
    note("determinism: gen-graph, gen-dataset and mock eval transcripts byte-identical across runs")


def test_a12_oracle_mock_every_technique_10k_facts():
    g = generate_graph(GraphParams(seed=7, n_entities=60, n_relations=8, n_facts=10_000))
    instances = generate_instances(
        g, per_type=1, types=["timeline", "relation_duration", "is_triplet_within_timespan"], seed=3
    )
    for technique in TECHNIQUES:
        for inst in instances:
            result = run(inst, technique, OracleMockClient(inst))
            assert score(result, inst.gold, inst.question_type), (technique, inst.id, result.errors)
    note(f"wiring at 10,000 facts: oracle mock 100% on all {len(TECHNIQUES)} techniques")


LIVE_URL = os.environ.get("TKGQA_LIVE_BASE_URL")
LIVE_MODEL = os.environ.get("TKGQA_LIVE_MODEL")


@pytest.mark.skipif(
    not (LIVE_URL and LIVE_MODEL and os.environ.get("TKGQA_API_KEY")),
    reason="live directional check needs TKGQA_LIVE_BASE_URL, TKGQA_LIVE_MODEL and TKGQA_API_KEY",
)
def test_a11_live_directional_check(dataset_170):
    from tkgqa.pipelines import LiveChatClient
    from tkgqa.scoring import aggregate

    client = LiveChatClient(LIVE_URL, os.environ["TKGQA_API_KEY"])
    cfg = PipelineConfig(model=LIVE_MODEL)
    sample = dataset_170[::2][:100]
    rows = []
    for technique in ("direct", "cotapi"):
        for inst in sample:
            result = run(inst, technique, client, cfg)
            rows.append(make_row(inst, result, score(result, inst.gold, inst.question_type)))
    report = aggregate(rows)
    accuracy = {t.technique: t.accuracy for t in report.techniques}
    print(report.to_text())
    assert accuracy["cotapi"] >= accuracy["direct"]
    note(f"live directional check: cotapi {accuracy['cotapi']:.1f}% >= direct {accuracy['direct']:.1f}%")
