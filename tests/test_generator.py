import hashlib
import io
import json
import random
import re
from collections import Counter

import pytest

from tkgqa.dsl import Limits
from tkgqa.errors import InfeasibleParamsError, ParseError, TkgqaError, UnsatisfiableTypeError
from tkgqa.generator import (
    GraphParams,
    QUESTION_TYPES,
    TEMPLATES,
    estimate_tokens,
    export_instances,
    generate_graph,
    generate_instances,
    import_instances,
    sample_call,
    verify_instance,
)
import tkgqa.generator
from tkgqa.graph import TKG, render_text, save_tkg
from tkgqa.oracle import oracle_answer
from tkgqa.answers import Answer


class TestGraphGeneration:
    def test_same_seed_identical_files(self):
        a, b = io.StringIO(), io.StringIO()
        save_tkg(generate_graph(GraphParams(seed=7)), a)
        save_tkg(generate_graph(GraphParams(seed=7)), b)
        assert a.getvalue() == b.getvalue()

    def test_different_seeds_differ(self):
        g1 = generate_graph(GraphParams(seed=1))
        g2 = generate_graph(GraphParams(seed=2))
        assert g1 != g2

    def test_single_fact(self):
        g = generate_graph(GraphParams(seed=5, n_facts=1))
        assert len(g.facts) == 1

    def test_exact_fact_count(self):
        for seed in range(5):
            g = generate_graph(GraphParams(seed=seed, n_facts=137))
            assert len(g.facts) == 137

    def test_ids_and_ranges(self):
        params = GraphParams(seed=11, n_entities=10, n_relations=3, n_facts=40, time_range=(1990, 2030))
        g = generate_graph(params)
        for f in g.facts:
            assert re.fullmatch(r"E([1-9]|10)", f.s) and re.fullmatch(r"E([1-9]|10)", f.o)
            assert re.fullmatch(r"R[1-3]", f.r)
            assert 1990 <= f.t0 <= f.t1 <= 2030

    def test_generated_graph_holds_one_object_per_distinct_value(self):
        g = generate_graph(GraphParams(seed=3, n_entities=50, n_facts=2000))
        values = [value for f in g.facts for value in f]
        assert len({id(value) for value in values}) == len(set(values)) < len(values)

    def test_infeasible_params(self):
        with pytest.raises(InfeasibleParamsError):
            generate_graph(GraphParams(seed=1, n_entities=2, n_relations=1, n_facts=100_000, time_range=(2000, 2001)))

    def test_invalid_params(self):
        with pytest.raises(InfeasibleParamsError):
            GraphParams(seed=1, n_entities=1).validate()
        with pytest.raises(InfeasibleParamsError):
            GraphParams(seed=1, time_range=(2020, 2000)).validate()

    def test_largest_graph_is_the_restatement_limit(self):
        """More facts than a restated graph may declare would leave cote_s and cotapi_s no graph."""
        most = Limits().max_facts
        GraphParams(seed=1, n_entities=1000, n_relations=20, n_facts=most).validate()
        with pytest.raises(InfeasibleParamsError, match=f"n_facts must be <= {most:,}.*; got {most + 1:,}"):
            GraphParams(seed=1, n_entities=1000, n_relations=20, n_facts=most + 1).validate()

    def test_default_token_target(self):
        g = generate_graph(GraphParams(seed=3))
        tokens = estimate_tokens(render_text(g, seed=0))
        assert 3000 <= tokens <= 4500


class TestInstances:
    def test_counts_and_distribution(self):
        g = generate_graph(GraphParams(seed=3, n_facts=120))
        instances = generate_instances(g, per_type=10, seed=3)
        assert len(instances) == 170
        counts = Counter(i.question_type for i in instances)
        assert all(counts[t] == 10 for t in QUESTION_TYPES)

    def test_subset_of_types(self):
        g = generate_graph(GraphParams(seed=3, n_facts=120))
        instances = generate_instances(g, per_type=5, types=["timeline", "before_after"], seed=3)
        assert len(instances) == 10
        assert {i.question_type for i in instances} == {"timeline", "before_after"}

    def test_unknown_type_rejected(self):
        g = generate_graph(GraphParams(seed=3, n_facts=40))
        with pytest.raises(ValueError):
            generate_instances(g, per_type=1, types=["bogus"], seed=3)

    def test_template_coverage_at_twenty(self):
        g = generate_graph(GraphParams(seed=3))
        instances = generate_instances(g, per_type=20, seed=9)
        by_type: dict[str, set] = {}
        for inst in instances:
            by_type.setdefault(inst.question_type, set()).add(inst.template_index)
        for qtype, used in by_type.items():
            assert len(used) >= 5, (qtype, used)
            assert len(TEMPLATES[qtype]) >= 5

    def test_gold_equals_dispatch_and_oracle(self):
        g = generate_graph(GraphParams(seed=4, n_facts=100))
        for inst in generate_instances(g, per_type=3, seed=4):
            assert inst.gold.kind == inst.answer_type
            assert verify_instance(inst)
            assert oracle_answer(inst.tkg, inst.canonical_call) == inst.gold

    def test_corrupted_gold_fails_verification(self):
        g = generate_graph(GraphParams(seed=4, n_facts=100))
        inst = generate_instances(g, per_type=1, types=["relation_duration"], seed=4)[0]
        inst.gold = Answer("duration", inst.gold.value + 1)
        assert not verify_instance(inst)

    def test_verification_deterministic(self):
        g = generate_graph(GraphParams(seed=4, n_facts=100))
        inst = generate_instances(g, per_type=1, types=["timeline"], seed=4)[0]
        assert verify_instance(inst) == verify_instance(inst)

    def test_no_gold_leak_in_question(self):
        g = generate_graph(GraphParams(seed=6, n_facts=150))
        for inst in generate_instances(g, per_type=5, seed=6):
            if inst.gold.kind == "entity":
                gold_ids = {inst.gold.value}
            elif inst.gold.kind == "entity_list":
                gold_ids = set(inst.gold.value)
            else:
                continue
            allowed = set()

            def collect(v):
                if isinstance(v, str):
                    allowed.add(v)
                elif isinstance(v, (list, tuple)):
                    for item in v:
                        collect(item)

            collect(list(inst.canonical_call.arguments.values()))
            for gid in gold_ids - allowed:
                assert not re.search(rf"(?<![A-Za-z0-9_]){gid}(?![A-Za-z0-9_])", inst.question_text), inst.id

    def test_unsatisfiable_type(self):
        g = TKG([("E1", "R1", "E2", 2000, 2005)])
        with pytest.raises(UnsatisfiableTypeError):
            generate_instances(g, per_type=1, types=["before_after"], seed=1)

    def test_deterministic_bytes(self):
        g = generate_graph(GraphParams(seed=8, n_facts=100))
        a, b = io.StringIO(), io.StringIO()
        export_instances(generate_instances(g, per_type=3, seed=8), a)
        export_instances(generate_instances(g, per_type=3, seed=8), b)
        assert a.getvalue() == b.getvalue()

    def test_implicit_and_explicit_time_references(self):
        g = generate_graph(GraphParams(seed=3))
        instances = generate_instances(g, per_type=20, seed=12, types=["event_at_time_t"])
        templates = TEMPLATES["event_at_time_t"]
        used = {inst.template_index for inst in instances}
        assert any(templates[i].implicit for i in used)
        assert any(not templates[i].implicit for i in used)

    def test_extension_scale_nine_types(self):
        # the nine types beyond the externally covered eight, at ~339 each
        extension_types = [
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
        g = generate_graph(GraphParams(seed=21))
        instances = generate_instances(g, per_type=339, types=extension_types, seed=21)
        assert len(instances) == 9 * 339 == 3051
        rng = random.Random(0)
        for inst in rng.sample(instances, 250):
            assert verify_instance(inst), inst.id


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        g = generate_graph(GraphParams(seed=5, n_facts=80))
        instances = generate_instances(g, per_type=2, seed=5)
        path = tmp_path / "d.jsonl"
        export_instances(instances, path)
        loaded = import_instances(path)
        assert len(loaded) == len(instances)
        for mine, theirs in zip(instances, loaded):
            assert mine.id == theirs.id
            assert mine.question_text == theirs.question_text
            assert mine.gold == theirs.gold
            assert mine.canonical_call == theirs.canonical_call
            assert mine.tkg == theirs.tkg

    def test_export_line_count(self, tmp_path):
        g = generate_graph(GraphParams(seed=5, n_facts=80))
        instances = generate_instances(g, per_type=2, seed=5)
        path = tmp_path / "d.jsonl"
        export_instances(instances, path)
        assert len(path.read_text().strip().splitlines()) == 34

    def test_relative_graph_path(self, tmp_path):
        g = generate_graph(GraphParams(seed=5, n_facts=60))
        graph_path = tmp_path / "g.jsonl"
        save_tkg(g, graph_path)
        instances = generate_instances(g, per_type=1, types=["timeline"], seed=5, tkg_ref="g.jsonl")
        path = tmp_path / "d.jsonl"
        export_instances(instances, path)
        loaded = import_instances(path)
        assert loaded[0].tkg == g
        assert json.loads(path.read_text().splitlines()[0])["tkg"] == "g.jsonl"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "x"}\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            import_instances(path)
        assert err.value.line == 1

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ParseError):
            import_instances(path)

    def test_line_stores_render_seed_not_text(self, tmp_path):
        g = generate_graph(GraphParams(seed=5, n_facts=80))
        path = tmp_path / "d.jsonl"
        export_instances(generate_instances(g, per_type=1, seed=5), path)
        line = json.loads(path.read_text().splitlines()[0])
        assert set(line) == {"id", "type", "question", "answer_type", "gold", "canonical_call", "tkg", "render_seed"}

    @pytest.mark.parametrize("tkg_ref", [None, "g.jsonl"])
    def test_round_trip_rederives_text(self, tmp_path, tkg_ref):
        g = generate_graph(GraphParams(seed=5, n_facts=80))
        save_tkg(g, tmp_path / "g.jsonl")
        instances = generate_instances(g, per_type=2, seed=5, tkg_ref=tkg_ref)
        path = tmp_path / "d.jsonl"
        export_instances(instances, path)
        loaded = import_instances(path)
        for mine, theirs in zip(instances, loaded, strict=True):
            assert theirs.render_seed == mine.render_seed
            assert theirs.tkg_text == mine.tkg_text == render_text(g, seed=mine.render_seed)
            assert theirs.token_estimate == mine.token_estimate == estimate_tokens(mine.tkg_text)

    def test_one_render_per_graph(self, tmp_path, monkeypatch):
        g = generate_graph(GraphParams(seed=5, n_facts=80))
        save_tkg(g, tmp_path / "g.jsonl")
        path = tmp_path / "d.jsonl"
        export_instances(generate_instances(g, per_type=2, seed=5, tkg_ref="g.jsonl"), path)
        calls = []

        def counting_render(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return render_text(*args, **kwargs)

        monkeypatch.setattr(tkgqa.generator, "render_text", counting_render)
        loaded = import_instances(path)
        assert len(loaded) == 34 and calls == []  # rendered when first read, not at load
        texts = [inst.tkg_text for inst in loaded]
        assert len(calls) == 1
        assert all(text is texts[0] for text in texts)

    @pytest.mark.parametrize("seed", ["missing", "7", 7.0, True, None, [7]])
    def test_bad_render_seed_is_a_line_error(self, tmp_path, seed):
        g = generate_graph(GraphParams(seed=5, n_facts=80))
        path = tmp_path / "d.jsonl"
        export_instances(generate_instances(g, per_type=1, seed=5), path)
        lines = path.read_text().splitlines()
        second = json.loads(lines[1])
        if seed == "missing":
            del second["render_seed"]
        else:
            second["render_seed"] = seed
        lines[1] = json.dumps(second)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="render_seed") as err:
            import_instances(path)
        assert err.value.line == 2


def test_sampling_output_pinned():
    """Guards the samplers' RNG call order; the digest was recorded before they were merged."""
    g = generate_graph(GraphParams(seed=5, n_facts=80))
    digest = hashlib.sha256()
    for inst in generate_instances(g, per_type=2, seed=5):
        record = [inst.id, inst.question_text, inst.gold.to_json(), inst.canonical_call.to_json()]
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == "538c1c1677a4f212ba5fc4541488385992185ebe733567116f053e4871281feb"


def test_a_graph_with_no_facts_supports_no_question():
    rng = random.Random(0)
    assert all(sample_call(rng, TKG(), qtype) is None for qtype in QUESTION_TYPES)
    with pytest.raises(TkgqaError, match="no facts"):
        generate_instances(TKG(), per_type=1)


def test_sample_call_produces_valid_calls():
    g = generate_graph(GraphParams(seed=2, n_facts=60))
    rng = random.Random(2)
    produced = 0
    for qtype in QUESTION_TYPES:
        fn_call = sample_call(rng, g, qtype)
        if fn_call is not None:
            produced += 1
            assert fn_call.name == qtype
    assert produced == len(QUESTION_TYPES)
