import random

import pytest

from tkgqa.answers import Answer
from tkgqa.generator import GraphParams, generate_graph, generate_instances
from tkgqa.pipelines import OracleMockClient, PipelineResult, run
from tkgqa.scoring import (
    ConfusionReport,
    ScoredRow,
    aggregate,
    classify_confidence,
    confidence_report,
    function_usage,
    load_rows,
    make_row,
    save_rows,
    score,
    token_bins,
)


def row(**overrides) -> ScoredRow:
    base = dict(
        instance_id="x-0000",
        question_type="timeline",
        technique="direct",
        correct=True,
        wall_time=0.5,
        llm_calls=1,
        token_estimate=1200,
    )
    base.update(overrides)
    return ScoredRow(**base)


class TestScore:
    def test_entity_normalization(self):
        assert score(Answer("entity", " e2 "), Answer("entity", "E2"), "first_last")

    def test_ordered_list_types(self):
        pred = Answer("entity_list", ["E3", "E2"])
        gold = Answer("entity_list", ["E2", "E3"])
        assert not score(pred, gold, "timeline")
        assert not score(pred, gold, "get_entities_in_between")
        assert score(pred, gold, "event_at_time_t")  # set comparison elsewhere

    def test_kind_mismatch_false(self):
        assert not score(Answer("count", 3), Answer("duration", 3), "relation_duration")

    def test_interval_pairwise(self):
        assert score(Answer("time_interval", (2000, 2005)), Answer("time_interval", (2000, 2005)), "event_at_what_time")
        assert not score(Answer("time_interval", (2000, 2006)), Answer("time_interval", (2000, 2005)), "event_at_what_time")

    def test_none_false(self):
        assert not score(None, Answer("count", 1), "timeline")

    def test_pipeline_result_raw_fallback(self):
        # the run coerces raw_answer once; a result without an answer scores false
        result = PipelineResult(technique="direct", instance_id="x", raw_answer="4")
        assert not score(result, Answer("count", 4), "number_of_events_in_time_interval")
        result.answer = Answer("count", 4)
        assert score(result, Answer("count", 4), "number_of_events_in_time_interval")

    def test_self_match_over_generated_instances(self):
        g = generate_graph(GraphParams(seed=3, n_facts=80))
        for inst in generate_instances(g, per_type=2, seed=7):
            assert score(inst.gold, inst.gold, inst.question_type)


class TestAggregate:
    def test_permutation_invariant(self):
        rows = [
            row(instance_id=f"t-{i:03d}", correct=i % 3 != 0, wall_time=0.1 * i, technique=tech)
            for i in range(30)
            for tech in ("direct", "cotapi")
        ]
        shuffled = rows[:]
        random.Random(5).shuffle(shuffled)
        assert aggregate(rows).to_json() == aggregate(shuffled).to_json()

    def test_totals_match_recomputation(self):
        rows = [row(instance_id=f"a-{i}", correct=i % 2 == 0) for i in range(10)]
        report = aggregate(rows)
        summary = report.techniques[0]
        assert summary.total == 10
        assert summary.correct == sum(1 for r in rows if r.correct)
        assert summary.accuracy == 50.0

    def test_all_parse_errors_zero(self):
        rows = [row(instance_id=f"a-{i}", correct=False, parse_error=True) for i in range(4)]
        report = aggregate(rows)
        assert report.techniques[0].accuracy == 0.0

    def test_text_render_has_paper_columns(self):
        report = aggregate([row()])
        text = report.to_text()
        for column in ("Method", "Accuracy", "Average Time", "Std Dev"):
            assert column in text

    def test_grid_includes_totals_row(self):
        rows = [row(instance_id=f"i{i}", question_type=q) for i, q in enumerate(("timeline", "first_last"))]
        text = aggregate(rows).to_text()
        assert "Total Accuracy" in text

    def test_grid_counts(self):
        rows = [row(instance_id=f"i{i}", question_type="timeline") for i in range(3)]
        rows += [row(instance_id=f"j{i}", question_type="first_last", correct=False) for i in range(2)]
        report = aggregate(rows)
        assert report.type_counts == {"timeline": 3, "first_last": 2}
        assert report.grid["timeline"]["direct"] == 100.0
        assert report.grid["first_last"]["direct"] == 0.0

    def test_csv_and_json_render(self):
        report = aggregate([row()])
        assert report.to_csv().startswith("technique,accuracy")
        assert "techniques" in report.to_json()


class TestFunctionUsage:
    def test_oracle_shape(self):
        rows = [
            row(instance_id=f"i{i}", technique="cotapi", function_calls=(("timeline", True),))
            for i in range(5)
        ]
        usage = function_usage(rows)
        assert usage == {
            "associated_true": 100.0,
            "associated_false": 0.0,
            "non_associated_true": 0.0,
            "non_associated_false": 0.0,
        }

    def test_workaround_function_counted_non_associated(self):
        rows = [
            row(instance_id=f"i{i}", technique="cotapi", function_calls=(("first_last", False),))
            for i in range(4)
        ]
        usage = function_usage(rows)
        assert usage["non_associated_true"] == 100.0
        assert usage["associated_true"] == 0.0

    def test_empty_is_none(self):
        assert function_usage([row(technique="direct")]) is None

    def test_cells_sum_to_hundred(self):
        rng = random.Random(0)
        rows = [
            row(
                instance_id=f"i{i}",
                technique="cotapi",
                correct=rng.random() < 0.6,
                function_calls=((("timeline", rng.random() < 0.7)),),
            )
            for i in range(40)
        ]
        usage = function_usage(rows)
        assert abs(sum(usage.values()) - 100.0) < 0.5  # rounding only


class TestTokenBins:
    def test_all_correct_zero_rates(self):
        rows = [row(instance_id=f"i{i}", token_estimate=100 * i) for i in range(10)]
        assert all(b["rate"] == 0.0 for b in token_bins(rows, 500))

    def test_single_bin_quarter(self):
        rows = [row(instance_id=f"i{i}", correct=i != 0) for i in range(4)]
        bins = token_bins(rows, 5000)
        assert len(bins) == 1
        assert bins[0]["rate"] == 25.0

    def test_bins_partition(self):
        rng = random.Random(1)
        rows = [row(instance_id=f"i{i}", token_estimate=rng.randint(0, 4000)) for i in range(50)]
        bins = token_bins(rows, 500)
        assert sum(b["total"] for b in bins) == 50

    def test_bad_width(self):
        with pytest.raises(ValueError):
            token_bins([row()], 0)


class TestConfidenceReport:
    def test_perfect_separation(self):
        scores = [("temporal", 1.0)] * 10 + [("knowledge", 0.0)] * 10
        report = confidence_report(scores)
        assert report.accuracy == 100.0
        assert report.knowledge_temporal == 0 and report.temporal_knowledge == 0

    def test_paper_shaped_counts(self):
        # 940 + 60 knowledge tasks, 1000 temporal tasks
        scores = (
            [("knowledge", 0.1)] * 940
            + [("knowledge", 0.9)] * 60
            + [("temporal", 0.95)] * 1000
        )
        report = confidence_report(scores, threshold=0.8)
        assert report.knowledge_knowledge == 940
        assert report.knowledge_temporal == 60
        assert report.temporal_knowledge == 0
        assert report.temporal_temporal == 1000
        assert report.accuracy == pytest.approx(97.0)

    def test_threshold_above_one_predicts_knowledge(self):
        scores = [("temporal", 1.0), ("knowledge", 1.0)]
        report = confidence_report(scores, threshold=1.01)
        assert report.temporal_temporal == 0
        assert report.knowledge_knowledge == 1

    def test_boundary_inclusive(self):
        assert classify_confidence(0.8) == "temporal"
        assert classify_confidence(0.7999) == "knowledge"
        assert classify_confidence(None) == "knowledge"

    def test_missing_scores_flagged(self):
        report = confidence_report([("temporal", None)])
        assert report.flagged == 1
        assert report.temporal_knowledge == 1

    def test_bad_label(self):
        with pytest.raises(ValueError):
            confidence_report([("maybe", 0.5)])

    def test_render(self):
        report = ConfusionReport(940, 60, 0, 1000)
        text = report.to_text()
        assert "940" in text and "97.0%" in text


class TestRowsRoundTrip:
    def test_save_load(self, tmp_path):
        g = generate_graph(GraphParams(seed=2, n_facts=60))
        instances = generate_instances(g, per_type=1, types=["timeline", "first_last"], seed=2)
        rows = []
        for inst in instances:
            result = run(inst, "cotapi", OracleMockClient(inst))
            rows.append(make_row(inst, result, score(result, inst.gold, inst.question_type)))
        path = tmp_path / "rows.jsonl"
        save_rows(rows, path)
        assert load_rows(path) == rows
