import contextlib
import gc
import io
import json
import logging
import os
import random
import re
import sys
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import tkgqa.cli
import tkgqa.generator
import tkgqa.graph
import tkgqa.pipelines
import tkgqa.scoring
from tkgqa.cli import build_parser, load_config, main
from tkgqa.errors import ClientError
from tkgqa.generator import import_instances
from tkgqa.pipelines import expand_transcripts
from tkgqa.solvers import function_specs


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def gen_graph(workspace, seed=7, facts=120, name="g.jsonl"):
    assert run_cli(
        "gen-graph", "--seed", str(seed), "--entities", "50", "--relations", "8",
        "--facts", str(facts), "--out", str(workspace / name),
    ) == 0
    return workspace / name


def gen_dataset(workspace, graph, per_type=2, seed=3, name="d.jsonl"):
    assert run_cli(
        "gen-dataset", "--graph", str(graph), "--per-type", str(per_type),
        "--seed", str(seed), "--out", str(workspace / name),
    ) == 0
    return workspace / name


class TestGenGraph:
    def test_deterministic_bytes(self, workspace, capsys):
        a = gen_graph(workspace, name="a.jsonl")
        b = gen_graph(workspace, name="b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_summary_matches_line_count(self, workspace, capsys):
        path = gen_graph(workspace, facts=77)
        out = capsys.readouterr().out
        assert "facts=77" in out
        assert len(path.read_text().strip().splitlines()) == 77

    def test_missing_seed_usage_error(self, workspace):
        with pytest.raises(SystemExit) as err:
            run_cli("gen-graph", "--out", "g.jsonl")
        assert err.value.code == 2

    def test_empty_time_range_is_an_error_line(self, workspace, capsys):
        code = run_cli("gen-graph", "--seed", "1", "--time-start", "2000", "--time-end", "2000", "--out", "g.jsonl")
        assert code == 1
        assert capsys.readouterr().err == "error: invalid time_range (2000, 2000): the start must be before the end\n"
        assert not (workspace / "g.jsonl").exists()

    def test_never_renders_text(self, workspace, monkeypatch, capsys):
        """Only eval reads the rendered text: gen-graph, gen-dataset and verify render nothing."""
        def no_render(*args, **kwargs):
            raise AssertionError("the graph was rendered")

        for module in (tkgqa.cli, tkgqa.generator, tkgqa.graph):
            monkeypatch.setattr(module, "render_text", no_render)
        path = gen_graph(workspace, facts=77)
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(rf"entities=\d+ relations=8 facts=77 out={re.escape(str(path))}", line)
        dataset = gen_dataset(workspace, path, per_type=1)
        assert run_cli("verify", "--dataset", str(dataset)) == 0
        assert "verified 17/17" in capsys.readouterr().out


class TestGenDataset:
    def test_counts(self, workspace, capsys):
        graph = gen_graph(workspace)
        dataset = gen_dataset(workspace, graph, per_type=2)
        assert len(dataset.read_text().strip().splitlines()) == 34
        assert "instances=34" in capsys.readouterr().out

    def test_type_subset_arithmetic(self, workspace):
        graph = gen_graph(workspace)
        assert run_cli(
            "gen-dataset", "--graph", str(graph), "--per-type", "5", "--seed", "3",
            "--types", "timeline,before_after", "--out", str(workspace / "sub.jsonl"),
        ) == 0
        lines = (workspace / "sub.jsonl").read_text().strip().splitlines()
        assert len(lines) == 10

    def test_deterministic_bytes(self, workspace):
        graph = gen_graph(workspace)
        a = gen_dataset(workspace, graph, name="a.jsonl")
        b = gen_dataset(workspace, graph, name="b.jsonl")
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_graph_nonzero(self, workspace, capsys):
        bad = workspace / "bad.jsonl"
        bad.write_text("not json\n")
        code = run_cli("gen-dataset", "--graph", str(bad), "--seed", "1", "--out", str(workspace / "d.jsonl"))
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_empty_graph_is_an_error_line(self, workspace, capsys):
        empty = workspace / "empty.jsonl"
        empty.write_text("")
        assert run_cli("gen-dataset", "--graph", str(empty), "--seed", "1", "--out", str(workspace / "d.jsonl")) == 1
        assert capsys.readouterr().err == "error: cannot generate questions over a graph with no facts\n"
        assert not (workspace / "d.jsonl").exists()

    _FACT = '{"s": "E1", "r": "R1", "o": "E2", "t0": 2000, "t1": 2005}'

    @pytest.mark.parametrize(
        "last, error",
        [
            (_FACT, "error: line 4: duplicate fact: Fact(s='E1', r='R1', o='E2', t0=2000, t1=2005)\n"),
            (_FACT.replace("2000", "2009"), "error: line 4: invalid interval: t0=2009 > t1=2005\n"),
            # the same faults on a line the fast path does not read
            ('{"s":"E1","r":"R1","o":"E2","t0":2000,"t1":2005}',
             "error: line 4: duplicate fact: Fact(s='E1', r='R1', o='E2', t0=2000, t1=2005)\n"),
            ('{"s":"E1","r":"R1","o":"E2","t0":2009,"t1":2005}', "error: line 4: invalid interval: t0=2009 > t1=2005\n"),
            ('{"s":"","r":"R1","o":"E2","t0":2000,"t1":2005}',
             "error: line 4: s, r and o must be non-empty strings, got ('', 'R1', 'E2')\n"),
        ],
        ids=["duplicate", "interval", "duplicate-json", "interval-json", "empty-name-json"],
    )
    def test_fact_error_names_the_file_line(self, workspace, capsys, last, error):
        graph = workspace / "g.jsonl"
        graph.write_text(f"{self._FACT}\n\n\n{last}\n")
        assert run_cli("gen-dataset", "--graph", str(graph), "--seed", "1", "--out", "d.jsonl") == 1
        assert capsys.readouterr().err == error
        assert not (workspace / "d.jsonl").exists()

    @pytest.mark.parametrize(
        "types, error",
        [
            ("nope", "error: unknown question types ['nope']\n"),
            ("timeline,nope,", "error: unknown question types ['', 'nope']\n"),
            ("timeline,before_after,timeline", "error: repeated question types ['timeline']\n"),
        ],
        ids=["unknown", "empty-name", "repeated"],
    )
    def test_bad_types_are_a_usage_error(self, workspace, capsys, types, error):
        graph = gen_graph(workspace)
        capsys.readouterr()
        code = run_cli("gen-dataset", "--graph", str(graph), "--types", types, "--seed", "1", "--out", "d.jsonl")
        assert code == 2
        assert capsys.readouterr().err == error
        assert not (workspace / "d.jsonl").exists()

    @pytest.mark.parametrize("per_type", ["0", "-1"])
    def test_per_type_below_one_is_a_usage_error(self, workspace, capsys, per_type):
        graph = gen_graph(workspace)
        with pytest.raises(SystemExit) as err:
            run_cli("gen-dataset", "--graph", str(graph), "--per-type", per_type, "--seed", "1", "--out", "d.jsonl")
        assert err.value.code == 2
        assert "--per-type" in capsys.readouterr().err
        assert not (workspace / "d.jsonl").exists()


class TestVerify:
    def test_green_dataset(self, workspace, capsys):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        assert run_cli("verify", "--dataset", str(dataset)) == 0
        assert "verified 34/34" in capsys.readouterr().out

    def test_repeated_instance_id_is_a_line_error(self, workspace, capsys):
        dataset, error = joined_with_itself(workspace)
        assert run_cli("verify", "--dataset", str(dataset)) == 1
        captured = capsys.readouterr()
        assert captured.err == error and "verified" not in captured.out

    def test_corrupted_gold_detected(self, workspace, capsys):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        lines = dataset.read_text().strip().splitlines()
        first = json.loads(lines[0])
        first["gold"] = {"type": "entity", "value": "E999"}
        first["answer_type"] = "entity"
        lines[0] = json.dumps(first, sort_keys=True)
        dataset.write_text("\n".join(lines) + "\n")
        assert run_cli("verify", "--dataset", str(dataset)) == 1
        assert "VERIFY FAIL" in capsys.readouterr().out


    @pytest.mark.parametrize("bad", [["", "R1", "E2", 2000, 2005], ["E1", "R1", "E2", True, 2005],
                                     ["E1", "R1", "E2", 2000.5, 2005], ["E1", "R1", "E2", "2000", 2005]])
    def test_bad_inline_fact_is_a_line_error(self, workspace, capsys, bad):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        lines = dataset.read_text().splitlines()
        second = json.loads(lines[1])
        second["tkg"] = [["E1", "R1", "E3", 1990, 1995], bad]
        lines[1] = json.dumps(second, sort_keys=True)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--dataset", str(dataset)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: bad inline tkg: invalid fact at index 1")
        assert "Traceback" not in err

    @pytest.mark.parametrize("path", ["a\x00b", "\ud800"])
    def test_bad_tkg_path_is_a_line_error(self, workspace, capsys, path):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        lines = dataset.read_text().splitlines()
        second = json.loads(lines[1])
        second["tkg"] = path
        lines[1] = json.dumps(second, sort_keys=True)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--dataset", str(dataset)) == 1
        assert capsys.readouterr().err.startswith("error: line 2: bad tkg path: ")

    @pytest.mark.parametrize("seed, reason", [(None, "must be regenerated with gen-dataset"),
                                              ("3", "render_seed must be an integer"),
                                              (True, "render_seed must be an integer")])
    def test_bad_render_seed_is_a_line_error(self, workspace, capsys, seed, reason):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        lines = dataset.read_text().splitlines()
        second = json.loads(lines[1])
        if seed is None:  # a line written before lines carried render_seed
            del second["render_seed"]
            second.update(tkg_text="E1 held R1 with E2 from 2000 to 2005.", token_estimate=10)
        else:
            second["render_seed"] = seed
        lines[1] = json.dumps(second, sort_keys=True)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--dataset", str(dataset)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and "render_seed" in err and reason in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("x", 1), ("window", 5), ("steps", [1]), ("first", 3),
                                            ("window", [1]), ("t", "x")])
    def test_malformed_canonical_call_is_a_line_error(self, workspace, capsys, key, value):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        lines = dataset.read_text().splitlines()
        # the first line whose call takes ``key``; an extra argument goes on the first line
        line_no, obj = next((i, obj) for i, obj in enumerate(map(json.loads, lines), start=1)
                            if key == "x" or key in obj["canonical_call"]["arguments"])
        obj["canonical_call"]["arguments"][key] = value
        lines[line_no - 1] = json.dumps(obj, sort_keys=True)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--dataset", str(dataset)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line_no}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, value, error", [
        ("type", "first_last", "type 'first_last' disagrees with the canonical_call's 'before_after'"),
        ("answer_type", "entity_list", "answer_type 'entity_list' disagrees with the gold's 'entity'"),
        ("type", None, "type None disagrees with the canonical_call's 'before_after'"),
    ])
    @pytest.mark.parametrize("command", ["verify", "eval"])
    def test_type_that_disagrees_with_the_call_or_gold_is_a_line_error(self, workspace, capsys, command, key, value,
                                                                     error):
        """A line's type and answer_type are copies of its call's name and its gold's kind, which decide them."""
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        lines = dataset.read_text().splitlines()
        second = json.loads(lines[1])
        assert (second["type"], second["answer_type"]) == ("before_after", "entity")
        second[key] = value
        lines[1] = json.dumps(second, sort_keys=True)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = ["--technique", "direct", "--mock", "oracle", "--rows", "rows.jsonl"] if command == "eval" else []
        assert run_cli(command, "--dataset", str(dataset), *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: line 2: {error}\n" and captured.out == ""
        assert not (workspace / "rows.jsonl").exists()

    @pytest.mark.parametrize("key, value", [("id", 7), ("id", None), ("question", None), ("question", ["q"])])
    def test_id_or_question_that_is_no_string_is_a_line_error(self, workspace, capsys, key, value):
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        lines = dataset.read_text().splitlines()
        second = json.loads(lines[1])
        second[key] = value
        lines[1] = json.dumps(second, sort_keys=True)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("verify", "--dataset", str(dataset)) == 1
        assert capsys.readouterr().err == f"error: line 2: {key} must be a string, got {value!r}\n"

    @pytest.mark.parametrize("kind, value, reason", [
        ("entity", 5, "entity answer must be a string"),
        ("entity", ["E1"], "entity answer must be a string"),
        ("entity_list", ["E1", 5], "entity_list answer must be a list of strings"),
        ("entity_list", [None], "entity_list answer must be a list of strings"),
        ("entity_list", "E20", "entity_list answer must be a list of strings, got 'E20'"),
        ("entity_list", {"E1": 1}, "entity_list answer must be a list of strings, got {'E1': 1}"),
        ("boolean", "true", "boolean answer must be a bool"),
        ("boolean", 1, "boolean answer must be a bool"),
        ("count", True, "count answer must be an integer"),
        ("duration", 2.0, "duration answer must be an integer"),
        ("time_point", False, "time_point answer must be an integer"),
        ("time_point", 1999.5, "time_point answer must be an integer"),
        ("time_interval", [2000, 2005.0], "time_interval answer must be two integers"),
        ("time_interval", [2000, True], "time_interval answer must be two integers"),
        ("time_interval", ["2000", 2005], "time_interval answer must be two integers"),
        ("time_interval", [2000], "time_interval answer must be two integers, got [2000]"),
        ("time_interval", [2000, 2005, 2010], "time_interval answer must be two integers, got [2000, 2005, 2010]"),
        ("time_interval", 2000, "time_interval answer must be two integers, got 2000"),
        ("time_interval", "ab", "time_interval answer must be two integers, got 'ab'"),
        ("time_interval", {"a": 1, "b": 2}, "time_interval answer must be two integers"),
    ])
    @pytest.mark.parametrize("command", ["verify", "eval"])
    def test_gold_of_the_wrong_value_type_is_a_line_error(self, workspace, capsys, command, kind, value, reason):
        """Each refusal of a gold value's kind check, reached from a dataset line, before any job runs."""
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        lines = dataset.read_text().splitlines()
        third = json.loads(lines[2])
        third.update(gold={"type": kind, "value": value}, answer_type=kind)
        lines[2] = json.dumps(third, sort_keys=True)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = ["--technique", "direct,cotapi", "--mock", "oracle", "--rows", "rows.jsonl"] if command == "eval" else []
        assert run_cli(command, "--dataset", str(dataset), *argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 3: ") and reason in captured.err and captured.err.count("\n") == 1
        assert captured.out == "" and not (workspace / "rows.jsonl").exists()


def joined_with_itself(workspace):
    """A dataset file holding a generated dataset twice; the ``error:`` line its second half gives."""
    dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
    lines = dataset.read_text().splitlines(keepends=True)
    dataset.write_text("".join(lines * 2))
    first = json.loads(lines[0])["id"]
    return dataset, f"error: line {len(lines) + 1}: instance id {first!r} repeats line 1\n"


class TestEval:
    def test_repeated_instance_id_is_a_line_error(self, workspace, capsys):
        dataset, error = joined_with_itself(workspace)
        code = run_cli(
            "eval", "--dataset", str(dataset), "--technique", "direct", "--mock", "oracle",
            "--rows", "rows.jsonl", "--transcripts", "t.jsonl",
        )
        assert code == 1
        assert capsys.readouterr().err == error
        assert not (workspace / "rows.jsonl").exists() and not (workspace / "t.jsonl").exists()

    def test_oracle_mock_full_marks(self, workspace, capsys):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        code = run_cli(
            "eval", "--dataset", str(dataset), "--technique", "cotapi",
            "--mock", "oracle", "--format", "csv",
        )
        assert code == 0
        assert "cotapi,100.0" in capsys.readouterr().out

    def test_two_technique_rows(self, workspace, capsys):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        code = run_cli(
            "eval", "--dataset", str(dataset), "--technique", "direct,cotapi",
            "--mock", "oracle", "--format", "csv",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "direct,100.0" in out and "cotapi,100.0" in out

    def test_transcripts_deterministic(self, workspace):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        for name in ("t1.jsonl", "t2.jsonl"):
            assert run_cli(
                "eval", "--dataset", str(dataset), "--technique", "cotapi",
                "--mock", "oracle", "--transcripts", str(workspace / name),
                "--report", str(workspace / "r.txt"),
            ) == 0
        assert (workspace / "t1.jsonl").read_bytes() == (workspace / "t2.jsonl").read_bytes()

    def test_transcript_lines_hold_no_copy_of_the_text(self, workspace):
        dataset = gen_dataset(workspace, gen_graph(workspace, facts=10_000), per_type=1)
        assert run_cli(
            "eval", "--dataset", str(dataset), "--technique", "direct,tot", "--mock", "oracle",
            "--transcripts", "t.jsonl", "--report", "r.txt",
        ) == 0
        instances = {inst.id: inst for inst in import_instances(dataset)}
        lines = (workspace / "t.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 * len(instances)
        expanded = expand_transcripts([json.loads(line) for line in lines], instances.values())
        for line, record in zip(lines, expanded, strict=True):
            inst = instances[record["instance_id"]]
            assert json.dumps(inst.tkg_text)[1:-1] not in line and len(line) < len(inst.tkg_text)
            assert all(inst.tkg_text in turn["prompt"] for turn in record["transcript"])

    @pytest.mark.parametrize("error, code", [(ClientError("request failed"), 1), (RuntimeError("bug"), None)])
    def test_transcripts_of_finished_jobs_survive_a_failing_job(self, workspace, monkeypatch, error, code):
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        argv = ["eval", "--dataset", str(dataset), "--technique", "direct,cote", "--mock", "oracle"]
        assert run_cli(*argv, "--transcripts", "full.jsonl") == 0
        real_run = tkgqa.cli.run
        finished = []

        def run_six(inst, technique, client, cfg, **kwargs):
            if len(finished) == 6:
                raise error
            finished.append(inst.id)
            return real_run(inst, technique, client, cfg, **kwargs)

        monkeypatch.setattr(tkgqa.cli, "run", run_six)
        argv += ["--transcripts", "partial.jsonl", "--rows", "rows.jsonl"]
        if code is None:
            with pytest.raises(type(error)):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == code
        full = (workspace / "full.jsonl").read_text().splitlines()
        assert (workspace / "partial.jsonl").read_text().splitlines() == full[:6]
        assert not (workspace / "rows.jsonl").exists()

    def test_pooled_live_eval_writes_in_job_order(self, workspace, monkeypatch):
        class SlowClient:  # replies after a random delay, so pooled jobs finish out of order
            def complete(self, messages, *, model, temperature, max_tokens, step):
                time.sleep(random.random() / 200)
                return '{"explanation": "e", "answer": "E1"}'

        monkeypatch.setattr(tkgqa.cli, "_make_live_client", lambda args, config: SlowClient())
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        argv = ["eval", "--dataset", str(dataset), "--technique", "direct,cot", "--base-url", "http://localhost:9"]
        for name, workers in (("serial", "1"), ("pooled", "4")):
            assert run_cli(*argv, "--parallelism", workers, "--transcripts", f"{name}.jsonl", "--rows", f"{name}-rows.jsonl") == 0
        assert (workspace / "pooled.jsonl").read_text() == (workspace / "serial.jsonl").read_text()
        rows = {name: [{**json.loads(line), "wall_time": 0} for line in (workspace / f"{name}-rows.jsonl").read_text().splitlines()] for name in ("serial", "pooled")}
        assert rows["pooled"] == rows["serial"]

    def test_pooled_live_eval_over_a_shared_restated_graph(self, workspace, monkeypatch):
        """Every cote_s/cotapi_s job gets one restatement, so pooled jobs share its
        graph and race to build its indexes; they write what one worker does."""
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        g = import_instances(dataset)[0].tkg
        f = g.facts[0]
        replies = {  # each solve binds every field of the graph's indexes
            "structure_data": tkgqa.pipelines._structure_fence(g),
            "exec_solve": f"```tqdsl\nlet a = facts({f.s}, *, *)\nlet b = facts(*, {f.r}, *)\nfacts(*, *, {f.o}) |> count\n```",
            "api_select": json.dumps({"name": "timeline", "arguments": {"s": f.s, "r": f.r}}),
            "api_final": '{"explanation": "e", "answer": "E1"}',
        }

        class SlowClient:  # replies by step after a random delay, so pooled jobs finish out of order
            def complete(self, messages, *, model, temperature, max_tokens, step):
                time.sleep(random.random() / 200)
                return replies.get(step, "analysis")

        monkeypatch.setattr(tkgqa.cli, "_make_live_client", lambda args, config: SlowClient())
        argv = ["eval", "--dataset", str(dataset), "--technique", "cote_s,cotapi_s", "--base-url", "http://localhost:9"]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for name, workers in (("serial", "1"), ("pooled", "4")):
                assert run_cli(*argv, "--parallelism", workers, "--transcripts", f"{name}.jsonl", "--rows", f"{name}-rows.jsonl") == 0
        finally:
            sys.setswitchinterval(switch_interval)
        assert (workspace / "pooled.jsonl").read_text() == (workspace / "serial.jsonl").read_text()
        rows = {name: [{**json.loads(line), "wall_time": 0} for line in (workspace / f"{name}-rows.jsonl").read_text().splitlines()] for name in ("serial", "pooled")}
        assert rows["pooled"] == rows["serial"]
        records = [json.loads(line) for line in (workspace / "serial.jsonl").read_text().splitlines()]
        assert len(records) == 2 * 17
        assert not any(e.startswith("structuring failed") for record in records for e in record["errors"])
        assert {r["raw_answer"] for r in records if r["technique"] == "cote_s"} == {sum(x.o == f.o for x in g.facts)}

    def test_each_eval_restates_once(self, workspace, monkeypatch):
        """Two evals in one process each parse the restatement and build the
        oracle's structuring reply once, for all their jobs."""
        dataset = gen_dataset(workspace, gen_graph(workspace, facts=2000), per_type=1)
        parses, programs = [], []
        real_parse, real_program = tkgqa.pipelines.parse, tkgqa.pipelines._structuring_program

        def counting_parse(source):
            if source.startswith("fact("):
                parses.append(source)
            return real_parse(source)

        monkeypatch.setattr(tkgqa.pipelines, "parse", counting_parse)
        monkeypatch.setattr(tkgqa.pipelines, "_structuring_program", lambda g: programs.append(g) or real_program(g))
        for _ in range(2):
            del parses[:], programs[:]
            assert run_cli(
                "eval", "--dataset", str(dataset), "--technique", "cote_s,cotapi_s", "--mock", "oracle",
                "--rows", "rows.jsonl", "--report", "r.txt",
            ) == 0
            assert (len(parses), len(programs)) == (1, 1)
            rows = [json.loads(line) for line in (workspace / "rows.jsonl").read_text().splitlines()]
            assert len(rows) == 2 * 17 and all(row["correct"] for row in rows)

    def test_renders_each_graph_once_before_the_first_job(self, workspace, monkeypatch):
        """No job's wall_time includes the render: eval renders before it runs any job."""
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        renders, renders_at_run = [], []
        real_render, real_run = tkgqa.generator.render_text, tkgqa.cli.run

        def recording_run(inst, technique, client, cfg, **kwargs):
            renders_at_run.append(len(renders))
            return real_run(inst, technique, client, cfg, **kwargs)

        monkeypatch.setattr(tkgqa.generator, "render_text", lambda g, **kw: renders.append(g) or real_render(g, **kw))
        monkeypatch.setattr(tkgqa.cli, "run", recording_run)
        assert run_cli("eval", "--dataset", str(dataset), "--technique", "direct,cot", "--mock", "oracle") == 0
        assert len(renders) == 1 and renders_at_run == [1] * 2 * 17

    def test_excerpt_techniques_render_no_text(self, workspace, monkeypatch):
        """cote and cotapi read an excerpt: eval keeps each graph's text length, not its text, and writes
        the rows (but wall_time) and transcripts that it writes when the text was rendered first."""
        dataset = gen_dataset(workspace, gen_graph(workspace, facts=2_000), per_type=1)
        real_import = tkgqa.cli.import_instances
        graphs = []

        def eval_once(name, force_text):
            def importing(path):
                instances = real_import(path)
                for inst in instances:
                    graphs.append(inst.tkg)
                    if force_text:
                        inst.tkg_text
                return instances

            monkeypatch.setattr(tkgqa.cli, "import_instances", importing)
            assert run_cli(
                "eval", "--dataset", str(dataset), "--technique", "cote,cotapi", "--mock", "oracle",
                "--rows", f"{name}.rows.jsonl", "--transcripts", f"{name}.t.jsonl", "--report", "r.txt",
            ) == 0
            rows = [json.loads(line) for line in (workspace / f"{name}.rows.jsonl").read_text().splitlines()]
            assert len(rows) == 2 * 17 and all(row.pop("wall_time") >= 0 and row["correct"] for row in rows)
            return rows, (workspace / f"{name}.t.jsonl").read_bytes()

        lazy = eval_once("lazy", force_text=False)
        assert graphs and all(type(kept) is int for g in graphs for kept in g._texts.values())
        assert {len(g._texts) for g in graphs} == {1}
        assert eval_once("forced", force_text=True) == lazy

    def test_reply_that_echoes_the_text_is_cut_from_a_later_prompt(self, workspace):
        """A one-fact graph's text is one line, and so its excerpt; an api_select reply naming it comes
        back in the api_final prompt, which is stored without it, and expand_transcripts restores it."""
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        line = json.loads(dataset.read_text().splitlines()[0])
        line["tkg"] = [["E1", "R1", "E2", 2000, 2005]]
        dataset.write_text(json.dumps(line) + "\n")
        (inst,) = import_instances(dataset)
        text = inst.tkg_text
        assert "\n" not in text and json.dumps(text)[1:-1] == text
        script = {"use the functions": "```json\n" + json.dumps({"name": text}) + "\n```", "": text}
        (workspace / "s.json").write_text(json.dumps(script))
        assert run_cli(
            "eval", "--dataset", str(dataset), "--technique", "cote,cotapi", "--mock", str(workspace / "s.json"),
            "--transcripts", "t.jsonl", "--report", "r.txt",
        ) == 0
        records = [json.loads(line) for line in (workspace / "t.jsonl").read_text().splitlines()]
        cote, cotapi = (record["transcript"] for record in records)
        assert [turn["step"] for turn in cotapi] == ["exec_analyze", "api_select", "api_final"]
        # the excerpt statement and the api_final prompt hold the text once each, and store None for it
        for turn in (cote[0], cotapi[0], cotapi[2]):
            assert turn["prompt"].count(None) == 1
            assert not any(text in json.dumps(piece) for piece in turn["prompt"])
        expanded = [record["transcript"] for record in expand_transcripts(records, [inst])]
        assert "unknown function: '" + text + "'" in expanded[1][2]["prompt"]
        assert text in expanded[0][0]["prompt"] and text in expanded[1][0]["prompt"]
        assert expanded[0][0]["reply"] == text

    def test_builds_each_loaded_graphs_indexes_before_the_first_job(self, workspace, monkeypatch):
        """No job's wall_time includes a loaded graph's index build; a restated graph still builds its own in a job."""
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        # (graph, field, jobs started so far) per build and (graph, technique) per job; both keep the graphs alive
        builds, runs = [], []
        real_build, real_run = tkgqa.graph.TKG._build_index, tkgqa.cli.run

        def recording_build(g, field):
            builds.append((g, field, len(runs)))
            return real_build(g, field)

        def recording_run(inst, technique, client, cfg, **kwargs):
            runs.append((inst.tkg, technique))
            return real_run(inst, technique, client, cfg, **kwargs)

        monkeypatch.setattr(tkgqa.graph.TKG, "_build_index", recording_build)
        monkeypatch.setattr(tkgqa.cli, "run", recording_run)
        assert run_cli("eval", "--dataset", str(dataset), "--technique", "cote,cote_s", "--mock", "oracle") == 0
        loaded = {id(g) for g, _ in runs}
        assert len(loaded) == 1 and len(runs) == 2 * 17
        before = sorted((id(g), field) for g, field, started in builds if started == 0)
        assert before == [(*loaded, 0), (*loaded, 1), (*loaded, 2)]
        in_jobs = [(g, field, started) for g, field, started in builds if started > 0]
        assert in_jobs and not any(id(g) in loaded for g, _, _ in in_jobs)
        # the restated graph is first queried by the first cote_s job, which gets the reply
        first_structuring = 1 + [technique for _, technique in runs].index("cote_s")
        assert min(started for _, _, started in in_jobs) == first_structuring
        assert len({(id(g), field) for g, field, _ in in_jobs}) == len(in_jobs)

    def test_fills_the_prompt_and_schema_caches_before_the_first_job(self, workspace, monkeypatch):
        """No job's wall_time includes reading a prompt template or building the schema text."""
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        caches = (tkgqa.pipelines._template, tkgqa.pipelines._schema_text)
        for cache in caches:
            cache.cache_clear()
        added = []  # per job, the entries it added to each cache
        real_run = tkgqa.cli.run

        def recording_run(inst, technique, client, cfg, **kwargs):
            before = [cache.cache_info().currsize for cache in caches]
            result = real_run(inst, technique, client, cfg, **kwargs)
            added.append([cache.cache_info().currsize - size for cache, size in zip(caches, before)])
            return result

        monkeypatch.setattr(tkgqa.cli, "run", recording_run)
        techniques = ",".join(tkgqa.pipelines.TECHNIQUES)
        assert run_cli("eval", "--dataset", str(dataset), "--technique", techniques, "--mock", "oracle") == 0
        assert added == [[0, 0]] * 8 * 17
        assert all(cache.cache_info().currsize for cache in caches)

    def test_memo_freed_when_eval_returns(self, workspace, monkeypatch):
        """Reference counting alone frees an eval's memo on return: it is in no reference cycle."""
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        memos = []

        class WatchedMemo(tkgqa.pipelines.Memo):
            def __init__(self):
                super().__init__()
                memos.append(weakref.ref(self))

        monkeypatch.setattr(tkgqa.cli, "Memo", WatchedMemo)
        gc.disable()
        try:
            assert run_cli(
                "eval", "--dataset", str(dataset), "--technique", "cote_s", "--mock", "oracle", "--report", "r.txt",
            ) == 0
            assert len(memos) == 1 and memos[0]() is None
        finally:
            gc.enable()

    def test_random_mock_on_empty_graphs(self, workspace):
        """With no fact to borrow arguments from, every job ends in a recorded failure."""
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        lines = [json.loads(line) for line in dataset.read_text().splitlines()]
        assert len(lines) == 17
        for line in lines:
            line["tkg"] = []
        dataset.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
        assert run_cli(
            "eval", "--dataset", str(dataset), "--technique", "cotapi,cotapi_s", "--mock", "random",
            "--seed", "1", "--rows", "rows.jsonl", "--report", "r.txt",
        ) == 0
        rows = [json.loads(line) for line in (workspace / "rows.jsonl").read_text().splitlines()]
        assert sorted((row["instance_id"], row["technique"]) for row in rows) == sorted(
            (line["id"], technique) for line in lines for technique in ("cotapi", "cotapi_s")
        )

    def test_live_without_api_key_fails_before_requests(self, workspace, capsys, monkeypatch):
        monkeypatch.delenv("TKGQA_API_KEY", raising=False)
        dataset = gen_dataset(workspace, gen_graph(workspace))
        code = run_cli(
            "eval", "--dataset", str(dataset), "--technique", "direct",
            "--base-url", "http://localhost:1", "--model", "m",
        )
        assert code == 1
        assert "TKGQA_API_KEY" in capsys.readouterr().err

    def test_mock_and_endpoint_is_usage_error(self, workspace, capsys):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        code = run_cli(
            "eval", "--dataset", str(dataset), "--technique", "direct",
            "--mock", "oracle", "--base-url", "http://x", "--model", "m",
        )
        assert code == 2

    def test_neither_mock_nor_endpoint_is_usage_error(self, workspace):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        code = run_cli("eval", "--dataset", str(dataset), "--technique", "direct")
        assert code == 2

    def test_unknown_technique_usage_error(self, workspace):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        code = run_cli("eval", "--dataset", str(dataset), "--technique", "bogus", "--mock", "oracle")
        assert code == 2

    def test_repeated_technique_usage_error(self, workspace, capsys):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        capsys.readouterr()
        code = run_cli(
            "eval", "--dataset", str(dataset), "--technique", "cot,direct,cot", "--mock", "oracle", "--rows", "rows.jsonl",
        )
        assert code == 2
        assert capsys.readouterr().err == "error: repeated techniques ['cot']\n"
        assert not (workspace / "rows.jsonl").exists()

    def test_rows_persist_and_report_reaggregates(self, workspace, capsys):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        rows = workspace / "rows.jsonl"
        assert run_cli(
            "eval", "--dataset", str(dataset), "--technique", "cotapi",
            "--mock", "oracle", "--rows", str(rows), "--report", str(workspace / "r.txt"),
        ) == 0
        assert run_cli("report", "--rows", str(rows), "--format", "csv") == 0
        assert "cotapi,100.0" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "confidence"])
    def test_malformed_mock_script_exits_1(self, workspace, capsys, command):
        script = workspace / "bad.json"
        script.write_text("{not json")
        tasks = workspace / "tasks.jsonl"
        tasks.write_text(json.dumps({"question": "q", "actual": "temporal"}) + "\n")
        if command == "eval":
            argv = ["eval", "--dataset", str(gen_dataset(workspace, gen_graph(workspace))), "--technique", "direct"]
        else:
            argv = ["confidence", "--input", str(tasks)]
        capsys.readouterr()
        assert run_cli(*argv, "--mock", str(script)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mock script is not valid JSON") and "bad.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("script", [{"": 5}, ["ok", None], {"": ["a"]}])
    def test_mock_script_of_non_strings_exits_1(self, workspace, capsys, script):
        dataset = gen_dataset(workspace, gen_graph(workspace), per_type=1)
        (workspace / "s.json").write_text(json.dumps(script))
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(dataset), "--technique", "direct", "--mock", str(workspace / "s.json"))
        assert code == 1
        assert capsys.readouterr().err == "error: mock script replies and patterns must be strings\n"


class TestReport:
    ROW = {"instance_id": "q1", "question_type": "timeline", "technique": "direct", "correct": True,
           "wall_time": 0.5, "llm_calls": 1, "token_estimate": 10}

    @pytest.mark.parametrize("wall_times", [["Infinity"], ["NaN"], ["1e308", "1e308"], ["-1"], ["1e9"]])
    def test_bad_wall_time_is_a_line_error(self, workspace, capsys, wall_times):
        rows = workspace / "rows.jsonl"
        good = json.dumps(self.ROW)
        # json.dumps writes the float tokens Infinity and NaN as they are spelled here
        rows.write_text("".join(f"{good}\n" + good.replace('"wall_time": 0.5', f'"wall_time": {w}') + "\n"
                                for w in wall_times))
        assert run_cli("report", "--rows", str(rows)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: bad scored row: wall_time must be") and err.count("\n") == 1

    def test_wall_time_just_below_the_cap_is_read(self, workspace, capsys):
        rows = workspace / "rows.jsonl"
        rows.write_text(json.dumps(dict(self.ROW, wall_time=999_999_999.9)) + "\n" + json.dumps(self.ROW) + "\n")
        assert run_cli("report", "--rows", str(rows), "--format", "csv") == 0
        assert "direct,100.0" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [
        ("correct", "false"), ("correct", 0), ("correct", None), ("parse_error", "no"), ("parse_error", 1),
        ("llm_calls", "2"), ("llm_calls", 3.9), ("llm_calls", 2.0), ("llm_calls", True), ("llm_calls", -1),
        ("token_estimate", "2"), ("token_estimate", 3.9), ("token_estimate", False), ("token_estimate", -1),
        ("instance_id", 5), ("question_type", None), ("technique", ["direct"]),
        ("wall_time", True), ("wall_time", "0.5"), ("wall_time", None),
        ("function_calls", [["timeline", "yes"]]), ("function_calls", [["timeline", 1]]),
        ("function_calls", [[5, True]]), ("function_calls", [["timeline"]]), ("function_calls", ["timeline"]),
        ("function_calls", {"timeline": True}),
    ])
    def test_field_of_another_json_type_is_a_line_error(self, workspace, capsys, key, value):
        """A row's fields are read as written, never converted: "false" is no false, and 3.9 no count."""
        rows = workspace / "rows.jsonl"
        rows.write_text(json.dumps(self.ROW) + "\n" + json.dumps(dict(self.ROW, **{key: value})) + "\n")
        assert run_cli("report", "--rows", str(rows)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: line 2: bad scored row: {key} must be ")
        assert captured.err.endswith(f", got {value!r}\n") and captured.err.count("\n") == 1 and captured.out == ""

    def test_fields_of_their_json_types_are_read(self, workspace, capsys):
        rows = workspace / "rows.jsonl"
        full = dict(self.ROW, wall_time=2, llm_calls=0, token_estimate=0, parse_error=False,
                    function_calls=[["timeline", True], ["first_last", False]])
        rows.write_text(json.dumps(full) + "\n" + json.dumps(dict(self.ROW, correct=False, technique="cotapi")) + "\n")
        row, other = tkgqa.scoring.load_rows(rows)
        assert row.wall_time == 2.0 and type(row.wall_time) is float
        assert row.function_calls == (("timeline", True), ("first_last", False))
        assert (other.correct, other.parse_error, other.function_calls) == (False, False, ())
        assert run_cli("report", "--rows", str(rows), "--format", "csv") == 0
        assert "cotapi,0.0" in capsys.readouterr().out


class TestBinWidth:
    @pytest.mark.parametrize("width", ["-5", "0", "wide"])
    def test_report_rejects_non_positive(self, workspace, capsys, width):
        rows = workspace / "rows.jsonl"
        rows.write_text("")
        with pytest.raises(SystemExit) as err:
            run_cli("report", "--rows", str(rows), "--bin-width", width)
        assert err.value.code == 2
        assert "--bin-width" in capsys.readouterr().err

    def test_eval_rejects_non_positive(self, workspace):
        with pytest.raises(SystemExit) as err:
            run_cli("eval", "--dataset", "d.jsonl", "--technique", "direct", "--mock", "oracle", "--bin-width", "-5")
        assert err.value.code == 2

    @pytest.mark.parametrize("width", ["0", "-5"])
    def test_config_rejects_non_positive(self, workspace, capsys, width):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        config = workspace / "conf.txt"
        config.write_text(f"bin_width = {width}\n")
        code = run_cli("eval", "--dataset", str(dataset), "--technique", "direct", "--mock", "oracle", "--config", str(config))
        assert code == 1
        assert "config line 1: bin_width" in capsys.readouterr().err

    def test_report_width_applies(self, workspace, capsys):
        dataset = gen_dataset(workspace, gen_graph(workspace))
        rows = workspace / "rows.jsonl"
        assert run_cli(
            "eval", "--dataset", str(dataset), "--technique", "direct",
            "--mock", "oracle", "--rows", str(rows), "--report", str(workspace / "r.txt"),
        ) == 0
        capsys.readouterr()
        for argv, width in ((["--bin-width", "100000"], 100000), ([], 500)):
            assert run_cli("report", "--rows", str(rows), "--format", "json", *argv) == 0
            bins = json.loads(capsys.readouterr().out)["bins"]
            assert bins and all(b["hi"] - b["lo"] == width for b in bins)


class TestConfidence:
    def _write_tasks(self, workspace):
        tasks = workspace / "tasks.jsonl"
        rows = [
            {"question": "When did E1 hold R1 with E2?", "data": "facts", "actual": "temporal"},
            {"question": "What is the capital?", "data": "facts", "actual": "knowledge"},
        ]
        tasks.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return tasks

    def test_separable_mock(self, workspace, capsys):
        tasks = self._write_tasks(workspace)
        script = workspace / "mock.json"
        script.write_text(json.dumps({"When did": '```json\n{"score": 0.96}\n```', "": '```json\n{"score": 0.05}\n```'}))
        assert run_cli("confidence", "--input", str(tasks), "--mock", str(script)) == 0
        assert "Accuracy: 100.0%" in capsys.readouterr().out

    def test_default_threshold_honored(self, workspace, capsys):
        tasks = self._write_tasks(workspace)
        script = workspace / "mock.json"
        # exactly 0.8 must classify as temporal under the default threshold
        script.write_text(json.dumps({"When did": '```json\n{"score": 0.8}\n```', "": '```json\n{"score": 0.0}\n```'}))
        assert run_cli("confidence", "--input", str(tasks), "--mock", str(script)) == 0
        assert "Accuracy: 100.0%" in capsys.readouterr().out

    def test_ordered_script_spans_tasks(self, workspace, capsys):
        tasks = self._write_tasks(workspace)
        script = workspace / "mock.json"
        script.write_text(json.dumps(['```json\n{"score": 0.9}\n```', '```json\n{"score": 0.1}\n```']))
        assert run_cli("confidence", "--input", str(tasks), "--mock", str(script)) == 0
        assert "Accuracy: 100.0%" in capsys.readouterr().out

    @pytest.mark.parametrize("mock", ["oracle", "random"])
    def test_step_routed_mocks_need_no_instance(self, workspace, caplog, mock):
        tasks = self._write_tasks(workspace)
        with caplog.at_level(logging.WARNING):
            assert run_cli("confidence", "--input", str(tasks), "--mock", mock, "--format", "json") == 0
        assert not any("clamp" in rec.message for rec in caplog.records)

    @pytest.mark.parametrize("score", ["9" * 400, "NaN", "Infinity"], ids=["huge", "nan", "inf"])
    def test_score_that_is_no_finite_number_is_flagged(self, workspace, capsys, score):
        tasks = self._write_tasks(workspace)
        script = workspace / "mock.json"
        replies = {"When did": '```json\n{"score": ' + score + '}\n```', "": '```json\n{"score": 0.05}\n```'}
        script.write_text(json.dumps(replies))
        assert run_cli("confidence", "--input", str(tasks), "--mock", str(script), "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["flagged"] == 1
        assert report["matrix"]["temporal"] == {"knowledge": 1, "temporal": 0}

    @pytest.mark.parametrize("task, error", [
        ({"question": None, "data": "facts"}, "question must be a string, got None"),
        ({"question": 5}, "question must be a string, got 5"),
        ({"data": "facts"}, "question must be a string, got None"),
        ({"question": "q", "data": 7}, "data must be a string, got 7"),
        ({"question": "q", "data": None}, "data must be a string, got None"),
    ])
    def test_question_or_data_that_is_no_string_is_a_line_error(self, workspace, capsys, task, error):
        """No model is asked about a task whose text is not a string; the first task asks none either."""
        tasks = workspace / "tasks.jsonl"
        good = {"question": "When did E1 hold R1 with E2?", "actual": "temporal"}
        tasks.write_text(json.dumps(good) + "\n" + json.dumps(dict(task, actual="knowledge")) + "\n")
        script = workspace / "mock.json"
        script.write_text(json.dumps([]))  # an ordered script with no reply: any model call fails
        assert run_cli("confidence", "--input", str(tasks), "--mock", str(script)) == 1
        assert capsys.readouterr().err == f"error: line 2: {error}\n"

    def test_data_is_optional(self, workspace, capsys):
        tasks = workspace / "tasks.jsonl"
        tasks.write_text(json.dumps({"question": "When did E1 hold R1 with E2?", "actual": "temporal"}) + "\n")
        script = workspace / "mock.json"
        script.write_text(json.dumps({"Task: When did": '```json\n{"score": 0.9}\n```'}))
        assert run_cli("confidence", "--input", str(tasks), "--mock", str(script)) == 0
        assert "Accuracy: 100.0%" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--mock", "oracle", "--base-url", "http://x", "--model", "m"], []],
                             ids=["mock-and-endpoint", "neither"])
    def test_needs_exactly_one_of_mock_and_endpoint(self, workspace, capsys, argv):
        """As in eval, a usage error before any task is read or any model asked."""
        tasks = self._write_tasks(workspace)
        assert run_cli("confidence", "--input", str(tasks), *argv) == 2
        assert capsys.readouterr().err == "error: provide exactly one of --mock or a live endpoint (--base-url/--model)\n"

    @pytest.mark.parametrize("config, expected", [("", ("mock", 0.0, 1024)),
                                                  ("model = m\ntemperature = 0.7\nmax_tokens = 99\n", ("m", 0.7, 99))])
    def test_model_settings_come_from_the_config(self, workspace, monkeypatch, config, expected):
        """Each call is sent with the config's model, temperature and max_tokens, or the defaults."""
        tasks = self._write_tasks(workspace)
        (workspace / "conf.txt").write_text(config)
        calls = []

        class RecordingClient:
            def complete(self, messages, **kwargs):
                calls.append((kwargs["model"], kwargs["temperature"], kwargs["max_tokens"]))
                return '```json\n{"score": 0.9}\n```'

        monkeypatch.setattr(tkgqa.cli, "make_mock_client", lambda kind: RecordingClient())
        assert run_cli("confidence", "--input", str(tasks), "--mock", "oracle", "--config", "conf.txt") == 0
        assert calls == [expected] * 2

    def test_missing_actual_label(self, workspace, capsys):
        tasks = workspace / "tasks.jsonl"
        tasks.write_text(json.dumps({"question": "x"}) + "\n")
        assert run_cli("confidence", "--input", str(tasks), "--mock", "oracle") == 1
        assert "actual" in capsys.readouterr().err


class TestHelpDocSync:
    EXPECTED = {
        "gen-graph": ["--seed", "--entities", "--relations", "--facts", "--time-start", "--time-end", "--max-episodes", "--out"],
        "gen-dataset": ["--graph", "--per-type", "--types", "--seed", "--out"],
        "verify": ["--dataset"],
        "eval": ["--dataset", "--technique", "--mock", "--base-url", "--model", "--temperature", "--seed", "--parallelism", "--rows", "--transcripts", "--report", "--format", "--bin-width", "--config"],
        "confidence": ["--input", "--mock", "--base-url", "--model", "--threshold", "--format", "--config"],
        "report": ["--rows", "--format", "--bin-width"],
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_flags_documented(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([command, "--help"])
        assert err.value.code == 0
        text = capsys.readouterr().out
        for flag in self.EXPECTED[command]:
            assert flag in text, (command, flag)

    def test_all_subcommands_listed(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for command in self.EXPECTED:
            assert command in text

    def test_confidence_has_no_parallelism(self, capsys):
        # confidence runs its tasks one at a time; eval's pool is the one concurrency bound
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["confidence", "--input", "t.jsonl", "--parallelism", "2"])
        assert err.value.code == 2
        assert "--parallelism" in capsys.readouterr().err


class TestConfig:
    def test_parse_and_precedence(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("model = gpt-test  # comment\nparallelism = 2\n\n# full comment line\n")
        config = load_config(path)
        assert config["model"] == "gpt-test"
        assert config["parallelism"] == 2
        assert config["threshold"] == 0.8  # default survives

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("model = m\nmodle = x\n")
        from tkgqa.errors import TkgqaError

        with pytest.raises(TkgqaError, match="config line 2: unknown key 'modle'"):
            load_config(path)

    def test_unknown_key_exits_1(self, workspace, capsys):
        config = workspace / "conf.txt"
        config.write_text("modle = x\n")
        code = run_cli("eval", "--dataset", "d.jsonl", "--technique", "direct", "--mock", "oracle", "--config", str(config))
        assert code == 1
        assert "unknown key 'modle'" in capsys.readouterr().err

    def test_every_default_key_accepted(self, tmp_path):
        from tkgqa.cli import CONFIG_DEFAULTS

        path = tmp_path / "conf.txt"
        path.write_text("".join(f"{key} = {value}\n" for key, value in CONFIG_DEFAULTS.items()))
        assert load_config(path) == CONFIG_DEFAULTS

    @pytest.mark.parametrize("key, value", [("temperature", "hot"), ("max_tokens", "0"), ("parallelism", "two"),
                                            ("threshold", ""), ("bin_width", "1.5")])
    def test_bad_value_exits_1(self, workspace, capsys, key, value):
        config = workspace / "conf.txt"
        config.write_text(f"model = m\n{key} = {value}\n")
        for command in (["eval", "--dataset", "d.jsonl", "--technique", "direct"], ["confidence", "--input", "t.jsonl"]):
            assert run_cli(*command, "--mock", "oracle", "--config", str(config)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: config line 2: {key}: ")
            assert "Traceback" not in err

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("just a line\n")
        from tkgqa.errors import TkgqaError

        with pytest.raises(TkgqaError):
            load_config(path)


class TestFloatSettings:
    """``--temperature`` and ``--threshold`` share their config key's parser."""

    COMMANDS = {
        "temperature": ["eval", "--dataset", "d.jsonl", "--technique", "direct", "--mock", "oracle"],
        "threshold": ["confidence", "--input", "t.jsonl", "--mock", "oracle"],
    }
    BAD = [("temperature", value) for value in ("nan", "inf", "-inf", "1e400", "-0.5", "warm")] + [
        ("threshold", value) for value in ("nan", "inf", "-inf", "-0.1", "1.5", "5")
    ]

    @pytest.mark.parametrize("key, value", BAD)
    def test_bad_flag_is_a_usage_error(self, workspace, capsys, key, value):
        with pytest.raises(SystemExit) as err:
            run_cli(*self.COMMANDS[key], f"--{key}={value}")
        assert err.value.code == 2
        assert f"argument --{key}: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", BAD)
    def test_bad_config_value_exits_1(self, workspace, capsys, key, value):
        config = workspace / "conf.txt"
        config.write_text(f"{key} = {value}\n")
        assert run_cli(*self.COMMANDS[key], "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith(f"error: config line 1: {key}: ")

    @pytest.mark.parametrize("key, value", [("temperature", "0"), ("temperature", "2.5"), ("threshold", "0"), ("threshold", "1")])
    def test_bounds_accepted(self, workspace, capsys, key, value):
        if key == "temperature":
            dataset = gen_dataset(workspace, gen_graph(workspace))
            command = ["eval", "--dataset", str(dataset), "--technique", "direct", "--mock", "oracle"]
        else:
            tasks = workspace / "tasks.jsonl"
            tasks.write_text(json.dumps({"question": "q", "data": "d", "actual": "temporal"}) + "\n")
            command = ["confidence", "--input", str(tasks), "--mock", "oracle"]
        config = workspace / "conf.txt"
        config.write_text(f"{key} = {value}\n")
        assert run_cli(*command, f"--{key}={value}") == 0
        assert run_cli(*command, "--config", str(config)) == 0
        assert "error" not in capsys.readouterr().err


def _input_commands(path) -> dict:
    """Each command's argv that reads ``path`` as its input file, before any other input."""
    return {
        "verify": ["verify", "--dataset", str(path)],
        "report": ["report", "--rows", str(path)],
        "gen-dataset": ["gen-dataset", "--graph", str(path), "--seed", "1", "--out", str(path.parent / "d.jsonl")],
        "eval --dataset": ["eval", "--dataset", str(path), "--technique", "direct", "--mock", "oracle"],
        "eval --config": ["eval", "--dataset", str(path), "--technique", "direct", "--mock", "oracle",
                          "--config", str(path)],
        "confidence": ["confidence", "--input", str(path), "--mock", "oracle"],
    }


# one line of each question type over an inline 60-fact graph
_DATASET_OBJECTS = [
    inst.to_json() for inst in tkgqa.generator.generate_instances(
        tkgqa.generator.generate_graph(tkgqa.generator.GraphParams(seed=7, n_entities=20, n_relations=4, n_facts=60)),
        per_type=1, seed=3,
    )
]
_PARAM_NAMES = sorted({p.name for spec in function_specs() for p in spec.use_guide})


def _with_arguments(obj: dict, arguments: dict) -> bytes:
    """The dataset line ``obj`` with ``arguments`` set in its canonical call."""
    call = obj["canonical_call"]
    call = dict(call, arguments=dict(call["arguments"], **arguments))
    return json.dumps(dict(obj, canonical_call=call)).encode()


# contents no reader can hold: an integer past int()'s 4,300 digits, nesting past the recursion limit, non-UTF-8
UNREADABLE = {
    "long-integer": b'{"s": ' + b"7" * 4301 + b"}\n",
    "deep-nesting": b"[" * 100_000 + b"\n",
    "not-utf-8": b'{"s": "\xff"}\n',
}


class TestUnreadableInputFiles:
    @pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
    @pytest.mark.parametrize(
        "command", ["verify", "report", "gen-dataset", "eval --dataset", "eval --config", "confidence"]
    )
    def test_is_an_error_line(self, workspace, capsys, command, content):
        path = workspace / "input.jsonl"
        path.write_bytes(content)
        assert run_cli(*_input_commands(path)[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6,
    )
    # lines of arbitrary bytes, integers about int()'s limit, nesting about the recursion limit, and any JSON value
    LINES = st.one_of(
        st.binary(max_size=24),
        st.integers(4295, 4305).map(lambda n: b"[" + b"7" * n + b"]"),
        st.builds(lambda opener, n: opener * n, st.sampled_from([b"[", b'{"a":']), st.sampled_from([10, 5000, 100_000])),
        JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    )
    # a dataset line with any JSON value for any of its call's arguments, known or not
    DATASET_LINES = st.builds(
        _with_arguments,
        st.sampled_from(_DATASET_OBJECTS),
        st.dictionaries(st.sampled_from(_PARAM_NAMES) | st.text(max_size=6), JSON_VALUES, max_size=3),
    )
    # a scored row with any float for its wall_time, inf, nan and huge ones included
    ROW_LINES = st.floats().map(lambda w: json.dumps(dict(TestReport.ROW, wall_time=w)).encode())

    @settings(max_examples=100, deadline=None)
    @given(lines=st.lists(LINES | DATASET_LINES | ROW_LINES, min_size=1, max_size=3)
           | st.lists(DATASET_LINES, min_size=1, max_size=3) | st.lists(ROW_LINES, min_size=1, max_size=3))
    def test_any_content_ends_in_an_exit_code(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("input") / "input.jsonl"
        path.write_bytes(b"\n".join(lines))
        commands = _input_commands(path)
        for command in ("verify", "report", "gen-dataset"):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert run_cli(*commands[command]) in (0, 1)
