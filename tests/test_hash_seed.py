"""The pinned chain of ``test_pins.py`` gives the same bytes under another string hash seed.

Reruns must be byte-identical, so no output may depend on the iteration
order of a set or a dict keyed by strings, which ``PYTHONHASHSEED`` changes
from one process to the next.  The chain therefore runs again in a child
process under a fixed seed, and its graph, dataset, rows (without
``wall_time``) and transcripts are checked against the same pins.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import tkgqa
from test_pins import DATASET, GRAPH, PINS, jsonl_sha256, sha256
from tkgqa.pipelines import TECHNIQUES

HASH_SEED = "12345"

# runs each argv list it is given through the CLI, in order, and fails on the first that does not exit 0
CHILD = """
import json, sys
from tkgqa.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def test_chain_pinned_under_another_hash_seed(tmp_path):
    graph, dataset = tmp_path / "graph.jsonl", tmp_path / "dataset.jsonl"
    commands = [
        ["gen-graph", "--seed", "7", "--out", str(graph)],
        ["gen-dataset", "--graph", str(graph), "--per-type", "2", "--seed", "3", "--out", str(dataset)],
    ]
    for mock in PINS:
        commands.append([
            "eval", "--dataset", str(dataset), "--technique", ",".join(TECHNIQUES), "--mock", mock,
            "--rows", str(tmp_path / f"{mock}-rows.jsonl"),
            "--transcripts", str(tmp_path / f"{mock}-transcripts.jsonl"),
            "--report", str(tmp_path / f"{mock}-eval.txt"),
        ])
    src = str(Path(tkgqa.__file__).resolve().parents[1])  # the tree this package is imported from
    env = {**os.environ, "PYTHONHASHSEED": HASH_SEED,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert sha256(graph.read_bytes()) == GRAPH
    assert sha256(dataset.read_bytes()) == DATASET
    for mock, pins in PINS.items():
        rows = [json.loads(line) for line in (tmp_path / f"{mock}-rows.jsonl").read_text(encoding="utf-8").splitlines()]
        assert jsonl_sha256({k: v for k, v in row.items() if k != "wall_time"} for row in rows) == pins["rows"]
        assert sha256((tmp_path / f"{mock}-transcripts.jsonl").read_bytes()) == pins["transcripts"]
