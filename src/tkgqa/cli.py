"""Command-line interface: dataset generation, verification, evaluation, reporting.

Subcommands: gen-graph, gen-dataset, verify, eval, confidence, report.
Exit codes: 0 ok, 1 domain error, 2 usage error.  Configuration precedence is
CLI flag > config file > built-in default; the API key for live endpoints is
read from the TKGQA_API_KEY environment variable only.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import gc
import json
import os
import sys
from pathlib import Path

from .errors import ClientError, ParseError, TkgqaError
from .generator import (
    GraphParams,
    QUESTION_TYPES,
    export_instances,
    generate_graph,
    generate_instances,
    import_instances,
    verify_instance,
)
# render_text stays importable from here because perfbench/tracer.py patches tkgqa.cli.render_text
from .graph import load_tkg, read_jsonl, render_text, save_tkg  # noqa: F401
from .oracle import oracle_answer
from . import pipelines
from .pipelines import LiveChatClient, Memo, PipelineConfig, make_mock_client, run, temporal_confidence, warm_caches
from .scoring import (
    aggregate,
    confidence_report,
    load_rows,
    make_row,
    save_rows,
    score,
)

API_KEY_ENV = "TKGQA_API_KEY"

CONFIG_DEFAULTS = {
    "base_url": "",
    "model": "",
    "temperature": 0.0,
    "max_tokens": 1024,
    "parallelism": 4,
    "threshold": 0.8,
    "bin_width": 500,
}


def positive_int(text: str) -> int:
    """An integer above 0; as an argparse type, its ValueError is a usage error."""
    value = int(text)
    if value <= 0:
        raise ValueError(f"{text!r} is not above 0")
    return value


def nonnegative_float(text: str) -> float:
    """A finite number at or above 0; nan fails every comparison."""
    value = float(text)
    if not 0 <= value < float("inf"):
        raise ValueError(f"{text!r} is not a finite number at or above 0")
    return value


def unit_float(text: str) -> float:
    """A number in [0, 1]."""
    value = float(text)
    if not 0 <= value <= 1:
        raise ValueError(f"{text!r} is not a number in [0, 1]")
    return value


# how each numeric config value, and the flag of the same name, is read; a ValueError is a bad value
CONFIG_PARSERS = {
    "temperature": nonnegative_float,
    "max_tokens": positive_int,
    "parallelism": positive_int,
    "threshold": unit_float,
    "bin_width": positive_int,
}


class UsageError(Exception):
    """A command's arguments that argparse cannot check; an ``error:`` line and exit code 2."""


def _names(text: str, known, what: str) -> list[str]:
    """The names of a comma list, each known and none repeated."""
    names = text.split(",")
    if unknown := set(names) - set(known):
        raise UsageError(f"unknown {what} {sorted(unknown)}")
    if repeated := {name for name in names if names.count(name) > 1}:
        raise UsageError(f"repeated {what} {sorted(repeated)}")
    return names


def load_config(path: str | Path | None) -> dict:
    """Parse and check a `key = value` config file ('#' starts a comment); keys are those of CONFIG_DEFAULTS.

    Each value is read by its key's parser, so the settings are of the defaults' types.
    """
    config = dict(CONFIG_DEFAULTS)
    if path is None:
        return config
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TkgqaError(f"config line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise TkgqaError(f"config line {line_no}: unknown key {key!r}")
        try:
            config[key] = CONFIG_PARSERS.get(key, str)(value)
        except ValueError as exc:
            raise TkgqaError(f"config line {line_no}: {key}: {exc}") from None
    return config


def _setting(args_value, config: dict, key: str):
    """The CLI value if given, else the config value."""
    return args_value if args_value is not None else config[key]


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_graph(args: argparse.Namespace) -> int:
    params = GraphParams(
        seed=args.seed,
        n_entities=args.entities,
        n_relations=args.relations,
        n_facts=args.facts,
        time_range=(args.time_start, args.time_end),
        max_episodes_per_triple=args.max_episodes,
    )
    g = generate_graph(params)
    save_tkg(g, args.out)
    print(f"entities={len(g.entities)} relations={len(g.relations)} facts={len(g.facts)} out={args.out}")
    return 0


def _report_verify_failures(instances, stream) -> int:
    """Print a VERIFY FAIL line to ``stream`` per instance the oracle disagrees with; their count."""
    failures = 0
    for inst in instances:
        if not verify_instance(inst):
            failures += 1
            try:
                recomputed = oracle_answer(inst.tkg, inst.canonical_call).to_json()
            except TkgqaError as exc:
                recomputed = {"error": str(exc)}
            print(f"VERIFY FAIL {inst.id}: gold={inst.gold.to_json()} oracle={recomputed}", file=stream)
    return failures


def cmd_gen_dataset(args: argparse.Namespace) -> int:
    types = _names(args.types, QUESTION_TYPES, "question types") if args.types else None
    graph_path = Path(args.graph)
    g = load_tkg(graph_path)
    gc.freeze()  # the graph lives for the whole command; keep the cyclic collector from re-walking its facts
    out_path = Path(args.out)
    tkg_ref = os.path.relpath(graph_path, start=out_path.parent)
    instances = generate_instances(
        g, per_type=args.per_type, types=types, seed=args.seed, tkg_ref=tkg_ref
    )
    failures = _report_verify_failures(instances, sys.stderr)
    if failures:
        print(f"{failures} of {len(instances)} instances failed verification", file=sys.stderr)
        return 1
    export_instances(instances, out_path)
    print(f"instances={len(instances)} types={len(set(i.question_type for i in instances))} out={out_path}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    instances = import_instances(args.dataset)
    gc.freeze()  # as in gen-dataset, for the loaded graphs
    failures = _report_verify_failures(instances, sys.stdout)
    print(f"verified {len(instances) - failures}/{len(instances)} instances")
    return 1 if failures else 0


def _make_live_client(args, config) -> LiveChatClient:
    base_url = _setting(args.base_url, config, "base_url")
    model = _setting(args.model, config, "model")
    if not base_url or not model:
        raise ClientError("live evaluation needs --base-url and --model (or config entries)")
    api_key = os.environ.get(API_KEY_ENV, "")
    if not api_key:
        raise ClientError(f"set {API_KEY_ENV} in the environment for live endpoints")
    return LiveChatClient(base_url, api_key)


def _pipeline_config(args, config: dict) -> PipelineConfig:
    """The model settings of a command that asks a model, which needs exactly one of ``--mock`` and a
    live endpoint; a command without a ``--temperature`` flag takes the config's."""
    if (args.mock is None) == (not (args.base_url or config.get("base_url"))):
        raise UsageError("provide exactly one of --mock or a live endpoint (--base-url/--model)")
    return PipelineConfig(
        model=_setting(args.model, config, "model") or "mock",
        temperature=_setting(getattr(args, "temperature", None), config, "temperature"),
        max_tokens=config["max_tokens"],
    )


def cmd_eval(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    cfg = _pipeline_config(args, config)
    instances = import_instances(args.dataset)
    techniques = _names(args.technique, pipelines.TECHNIQUES, "techniques")
    # so that no job's wall_time includes the texts, the indexes or the prompt caches
    warm_caches(instances, techniques)
    # the loaded graphs with their indexes, the instances and the texts live for
    # the whole run; keep the cyclic collector from re-walking them while jobs allocate
    gc.freeze()

    jobs = [(inst, tech) for tech in techniques for inst in instances]
    # one shared live client (its pacing applies across jobs); mocks are
    # confined to a single run each
    live_client = _make_live_client(args, config) if args.mock is None else None
    # the jobs' shared work, freed with this call: it holds no reference cycle
    memo = Memo()

    def run_one(job):
        inst, tech = job
        client = live_client if live_client is not None else make_mock_client(
            args.mock, inst, seed=args.seed or 0, memo=memo
        )
        result = run(inst, tech, client, cfg, memo=memo)
        return inst, result, score(result, inst.gold, inst.question_type)

    workers = _setting(args.parallelism, config, "parallelism")
    rows = []
    stored = {}  # sha256 of each string the transcripts hold in full -> where it stands
    # each transcript is written in job order as its job finishes; only rows are kept
    with contextlib.ExitStack() as stack:
        transcripts = stack.enter_context(open(args.transcripts, "w", encoding="utf-8")) if args.transcripts else None
        mapper = map
        if live_client is not None and workers > 1:
            mapper = stack.enter_context(concurrent.futures.ThreadPoolExecutor(max_workers=workers)).map
        for line, (inst, result, ok) in enumerate(mapper(run_one, jobs)):
            rows.append(make_row(inst, result, ok))
            if transcripts is not None:
                record = result.transcript_record(stored, line)
                transcripts.write(json.dumps(record, sort_keys=True) + "\n")
    if args.rows:
        save_rows(rows, args.rows)
    report = aggregate(rows, bin_width=_setting(args.bin_width, config, "bin_width"))
    rendered = _render_report(report, args.format)
    if args.report:
        Path(args.report).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)
    return 0


def _render_report(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2, sort_keys=True)
    if fmt == "csv":
        return report.to_csv().rstrip("\n")
    return report.to_text()


def cmd_confidence(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    cfg = _pipeline_config(args, config)
    threshold = _setting(args.threshold, config, "threshold")
    pairs = []
    for line_no, obj in read_jsonl(args.input):
        if "actual" not in obj or obj["actual"] not in ("knowledge", "temporal"):
            raise ParseError(line_no, "each task needs an 'actual' label of knowledge|temporal")
        question, data = obj.get("question"), obj.get("data", "")
        for key, value in (("question", question), ("data", data)):
            if not isinstance(value, str):
                raise ParseError(line_no, f"{key} must be a string, got {value!r}")
        pairs.append((obj["actual"], question, data))

    # one client for every task, so an ordered mock script is read in task order
    client = _make_live_client(args, config) if args.mock is None else make_mock_client(args.mock)
    scores = [(actual, temporal_confidence(question, data, client, cfg)) for actual, question, data in pairs]
    print(_render_report(confidence_report(scores, threshold=threshold), args.format))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows = load_rows(args.rows)
    report = aggregate(rows, bin_width=args.bin_width)
    print(_render_report(report, args.format))
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tkgqa",
        description="Temporal knowledge-graph question answering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="generate a random temporal knowledge graph")
    p.add_argument("--seed", type=int, required=True, help="master RNG seed (required)")
    p.add_argument("--entities", type=int, default=60, help="entity vocabulary size")
    p.add_argument("--relations", type=int, default=8, help="relation vocabulary size")
    p.add_argument("--facts", type=int, default=270, help="number of facts to place")
    p.add_argument("--time-start", type=int, default=1900, help="earliest allowed year")
    p.add_argument("--time-end", type=int, default=2040, help="latest allowed year")
    p.add_argument("--max-episodes", type=int, default=3, help="max episodes per triple")
    p.add_argument("--out", required=True, help="output fact file (JSON Lines)")
    p.set_defaults(func=cmd_gen_graph)

    p = sub.add_parser("gen-dataset", help="generate a verified question dataset over a graph")
    p.add_argument("--graph", required=True, help="input fact file")
    p.add_argument("--per-type", type=positive_int, default=10, help="instances per question type")
    p.add_argument("--types", default=None, help=f"comma list of types (default: all {len(QUESTION_TYPES)})")
    p.add_argument("--seed", type=int, required=True, help="master RNG seed (required)")
    p.add_argument("--out", required=True, help="output dataset file (JSON Lines)")
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("verify", help="re-check gold answers against the brute-force oracle")
    p.add_argument("--dataset", required=True, help="dataset file to verify")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="run techniques over a dataset and report accuracy")
    p.add_argument("--dataset", required=True, help="dataset file")
    p.add_argument("--technique", required=True, help="comma list of techniques")
    p.add_argument("--mock", default=None, help="mock client: oracle, random, or a script path")
    p.add_argument("--base-url", default=None, help="chat-completions endpoint base URL")
    p.add_argument("--model", default=None, help="model name for live endpoints")
    p.add_argument("--temperature", type=nonnegative_float, default=None, help="sampling temperature")
    p.add_argument("--seed", type=int, default=None, help="seed for seeded mocks")
    p.add_argument("--parallelism", type=positive_int, default=None, help="live-endpoint worker pool size")
    p.add_argument("--rows", default=None, help="write scored rows JSONL here")
    p.add_argument("--transcripts", default=None, help="write transcript JSONL here")
    p.add_argument("--report", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text", help="report format")
    p.add_argument("--bin-width", type=positive_int, default=None, help="token bin width (default 500)")
    p.add_argument("--config", default=None, help="key = value config file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("confidence", help="classify tasks as temporal vs knowledge")
    p.add_argument("--input", required=True, help="JSONL of {question, data, actual} tasks")
    p.add_argument("--mock", default=None, help="mock client: oracle, random, or a script path")
    p.add_argument("--base-url", default=None, help="chat-completions endpoint base URL")
    p.add_argument("--model", default=None, help="model name for live endpoints")
    p.add_argument("--threshold", type=unit_float, default=None, help="temporal threshold (default 0.8)")
    p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    p.add_argument("--config", default=None, help="key = value config file")
    p.set_defaults(func=cmd_confidence)

    p = sub.add_parser("report", help="re-aggregate persisted scored rows")
    p.add_argument("--rows", required=True, help="scored rows JSONL")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text", help="report format")
    p.add_argument("--bin-width", type=positive_int, default=500, help="token bin width (default 500)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, TkgqaError, OSError, UnicodeDecodeError) as exc:  # a file that is not UTF-8 fails as it is read
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
