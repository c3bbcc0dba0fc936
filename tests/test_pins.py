"""Byte-identity pins: the sha256 of each output of the CLI chain at a small size.

The chain is gen-graph (270 facts, seed 7), gen-dataset (``--per-type 2``,
seed 3) and eval of all 8 techniques under the oracle and the random mock.
A pin changes only in a change that means to change that output; CHANGES.md
then records the old and the new value and why.

Rows are hashed without ``wall_time``, and the text report is rendered by
``report`` from those rows with every ``wall_time`` set to 0, so no pin
depends on the speed of the machine.  The expanded transcripts (each line
with every prompt and reply written out in full) do not depend on how a
transcripts file stores them, so that pin outlives a format change.
"""

import hashlib
import json

import pytest

from conftest import stored_strings
from tkgqa.cli import main
from tkgqa.generator import GraphParams, generate_graph, import_instances
from tkgqa.graph import save_tkg
from tkgqa.pipelines import TECHNIQUES, expand_transcripts

GRAPH = "c00f37f0b7d0a1692a58251bf477c5ec3bcd808d18ac398b8060cabc623003b5"
DATASET = "d5ee7fe97d821eca61e36693b5b540dc515a15689ce17dafe7cd8eaeb99df35b"
PINS = {
    "oracle": {
        "rows": "5ad7075ac084c51da7ba5a7621a01b0f59c1fa99410175b3c8d0931b1f155439",
        "report": "cbc965b7da0b9b72e309958cb8c3403d15ed3a1babd97a18606344d5e9a35f62",
        "transcripts": "5d2873aa7c2930906977c7eb25a32afab045a665c4317db43565b2ffe0fcb1cf",
        "expanded": "44f035b13f9d2488e8779875efaad35783ea103746c07f316bba6fdc2f876672",
    },
    "random": {
        "rows": "e81477875b24a30e126baa11ecee2cb9a108a93397ffb215a8c286c09a4ef565",
        "report": "0cb7181ab88122aa39c2832075fe9f22846e624b5a9a1ffee3d4df7a03567799",
        "transcripts": "f1c31e57e28a27d8566eb45186998ebeee42ddc9a24d040747bce4a6350b03be",
        "expanded": "6cbb12f741dfa201666b8fc1023650a2d985c58e90fa06e6781c552152bde27b",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def jsonl_sha256(records) -> str:
    return sha256("".join(json.dumps(r, sort_keys=True) + "\n" for r in records).encode())


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The directory holding the graph, the dataset and each mock's eval outputs."""
    out = tmp_path_factory.mktemp("chain")
    assert main(["gen-graph", "--seed", "7", "--out", str(out / "graph.jsonl")]) == 0
    assert main([
        "gen-dataset", "--graph", str(out / "graph.jsonl"), "--per-type", "2", "--seed", "3",
        "--out", str(out / "dataset.jsonl"),
    ]) == 0
    for mock in PINS:
        assert main([
            "eval", "--dataset", str(out / "dataset.jsonl"), "--technique", ",".join(TECHNIQUES),
            "--mock", mock, "--rows", str(out / f"{mock}-rows.jsonl"),
            "--transcripts", str(out / f"{mock}-transcripts.jsonl"), "--report", str(out / f"{mock}-eval.txt"),
        ]) == 0
    return out


def test_graph_and_dataset_pinned(chain):
    assert sha256((chain / "graph.jsonl").read_bytes()) == GRAPH
    assert sha256((chain / "dataset.jsonl").read_bytes()) == DATASET


@pytest.mark.parametrize("mock", PINS)
def test_eval_outputs_pinned(chain, mock, capsys):
    rows = [json.loads(line) for line in (chain / f"{mock}-rows.jsonl").read_text(encoding="utf-8").splitlines()]
    timeless = [{k: v for k, v in row.items() if k != "wall_time"} for row in rows]
    (chain / f"{mock}-zeroed.jsonl").write_text(
        "".join(json.dumps({**row, "wall_time": 0.0}, sort_keys=True) + "\n" for row in rows), encoding="utf-8"
    )
    capsys.readouterr()
    assert main(["report", "--rows", str(chain / f"{mock}-zeroed.jsonl")]) == 0
    report = capsys.readouterr().out
    transcripts = (chain / f"{mock}-transcripts.jsonl").read_bytes()
    records = [json.loads(line) for line in transcripts.decode("utf-8").splitlines()]
    expanded = expand_transcripts(records, import_instances(chain / "dataset.jsonl"))
    assert {
        "rows": jsonl_sha256(timeless),
        "report": sha256(report.encode()),
        "transcripts": sha256(transcripts),
        "expanded": jsonl_sha256(expanded),
    } == PINS[mock]
    # only function selection is random, so the random mock pins the failure
    # paths of cotapi/cotapi_s, well below the oracle's 100%
    correct = {tech: sum(row["correct"] for row in rows if row["technique"] == tech) for tech in TECHNIQUES}
    assert correct == {**dict.fromkeys(TECHNIQUES, 34), **({"cotapi": 3, "cotapi_s": 3} if mock == "random" else {})}


@pytest.mark.parametrize("mock", PINS)
def test_a_cut_file_still_expands(chain, mock):
    """References point only backward, so the file cut after any line expands to the same lines."""
    transcripts = (chain / f"{mock}-transcripts.jsonl").read_text(encoding="utf-8")
    records = [json.loads(line) for line in transcripts.splitlines()]
    instances = import_instances(chain / "dataset.jsonl")
    whole = list(expand_transcripts(records, instances))
    for cut in range(len(records) + 1):
        assert list(expand_transcripts(records[:cut], instances)) == whole[:cut]
    held, first = {}, {}  # each string held in full by where it stands, and where its first copy stands
    for where, value in stored_strings(records):
        if isinstance(value, str):
            held[where] = value
            first.setdefault(value, where)
        else:
            string = held[tuple(value)]  # strictly backward, to a string held in full
            assert first[string] == tuple(value) and len(json.dumps(value)) < len(json.dumps(string))


def test_graph_over_1000_entities_pinned(tmp_path):
    """Chained relations sample their members from every entity but the anchor."""
    save_tkg(generate_graph(GraphParams(seed=5, n_entities=1000, n_relations=20, n_facts=2000)), tmp_path / "g.jsonl")
    assert sha256((tmp_path / "g.jsonl").read_bytes()) == "b3d7032bb40f20d331a3049f9f18a3711d637918eac3c81be6013bef9b3ec819"
