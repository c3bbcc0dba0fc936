"""Smoke test of the benchmark itself, on a tiny graph.

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``.
It checks that an untraced and a traced run pass their output checks and emit
exactly the metric names and units that ``BENCHMARK.json`` declares.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = run.Workload("tiny", 150, 60, 8, 1, run.ALL_TECHNIQUES, "smoke test", 2)


@pytest.fixture
def record(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return run.HashRecord(tmp_path / "hashes.json")


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def emitted(result: run.RunResult) -> dict[str, str]:
    return {name: unit for name, (_value, unit) in result.metrics.items()}


def test_declared_workloads_match_the_benchmark():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values() if w.name != "default-270"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_untraced_run_emits_every_end_to_end_metric(record):
    first = run.run_untraced(TINY, 7, 3, 0.0, record)
    assert first.failed == 0, first.problems
    e2e = declared("end_to_end")
    assert {k: v for k, v in emitted(first).items() if k in e2e} == e2e
    assert emitted(first)["eval_fail_pct"] == "%" and emitted(first)["verify_fail_pct"] == "%"
    assert first.metrics["verify_ok_pct"][0] == 100.0
    assert all(first.metrics[name][0] > 0 for name in e2e)
    # a second run of the same seeds is checked against the first run's hashes
    again = run.run_untraced(TINY, 7, 3, 0.0, record)
    assert again.failed == 0, again.problems
    assert [key.split("/", 1)[1] for key in record.data] == ["tiny/7/3"]


def test_changed_output_fails_the_check(record):
    record.expected(TINY, 7, 3)["dataset"] = "0" * 64
    result = run.run_untraced(TINY, 7, 3, 0.0, record)
    assert result.failed > 0
    assert any("dataset sha256" in p for p in result.problems)
    assert result.metrics["eval_fail_pct"][0] == 100.0


def test_traced_run_emits_every_per_layer_metric(record, tmp_path):
    result = run.run_traced(TINY, 7, 3, record)
    assert result.failed == 0, result.problems
    assert emitted(result) == declared("per_layer")
    trace = json.loads(next(tmp_path.glob("trace-tiny-*.json")).read_text(encoding="utf-8"))
    jobs = {span[4] for span in trace["spans"] if span[0] == "pipelines.run"}
    assert len(jobs) == TINY.jobs
    assert result.metrics["pipelines.llm_calls.direct"][0] == TINY.instances
