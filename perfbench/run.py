"""Benchmark of the tkgqa CLI chain: gen-graph -> gen-dataset -> verify -> eval -> report.

Usage, from the root of a source checkout (nothing needs installing; the
stages run as ``python -m tkgqa.cli`` with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/run.py --workload default-270 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload, each in its own process

``--trace 0`` runs the chain as sequential child processes, the way a user
runs it, two or three times spread over ``--seconds``, re-runs the short stages
in between, and reports the end-to-end metrics as medians over the repetitions.  ``--trace 1`` reports the
per-layer metrics instead, from an in-process run that times every call into
the modules' public functions (see ``tracer.py``).

Every run checks its outputs: each stage's exit code, ``verified N/N``, the
row count, and the sha256 of the graph, dataset, rows and transcripts against
the first run of the same sources, workload and seeds in this checkout.  A failed check counts toward
``eval_fail_pct``/``verify_fail_pct`` and makes the command exit 1.  An
oracle-mock job that scores wrong is not a failed check: it is measured, in
``eval_ok_pct`` and ``eval_fail_pct``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (stage invocations), ``failed`` (stage invocations
whose exit code or output check failed) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

ALL_TECHNIQUES = ("direct", "cot", "tot", "cotr", "cote", "cote_s", "cotapi", "cotapi_s")
STAGES = ("gen-graph", "gen-dataset", "verify", "eval", "report")
# A run starts its workload's chains at even intervals over --seconds and
# fills the gaps with rounds of the short stages, re-run in the last chain's
# directory; at least MIN_ROUNDS rounds run.  The short stages take 0.3-3 s
# each, and the speed of a shared machine drifts within seconds, so their
# medians take many samples spread over the whole run.
MIN_ROUNDS = 2
# short stage -> (its end-to-end metric, the output file it rewrites and is checked again)
REPEATED = {"gen-graph": ("setup_s", "graph"), "gen-dataset": ("gen_dataset_s", "dataset"), "verify": ("verify_s", None)}
IMPORT_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    facts: int
    entities: int
    relations: int
    per_type: int
    techniques: tuple[str, ...]
    why: str
    chains: int  # full chains per untraced run

    @property
    def instances(self) -> int:
        return 17 * self.per_type

    @property
    def jobs(self) -> int:
        return self.instances * len(self.techniques)


# The three sizes of the ROADMAP's operational path.  BENCHMARK.json gates only
# graph-10k and graph-100k: default-270's stages are mostly interpreter
# start-up, and on a shared 2-core machine their medians drift by more than the
# largest bound from one run to the next.  graph-10k keeps 10,000
# facts and the structuring techniques on purpose: its structuring program has
# 10,001 statements against Limits.max_statements = 10,000, so the cote_s and
# cotapi_s collapse shows in eval_ok_pct.  graph-100k runs only the techniques
# that see a 5-line excerpt, so it bypasses DSL structuring and full-text
# prompts and exercises the graph store and the dataset file instead.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("default-270", 270, 60, 8, 10, ALL_TECHNIQUES,
                 "the paper and README default; interpreter start-up dominates the short stages, "
                 "eval is mostly the cote_s/cotapi_s structuring parse and tot transcripts", 3),
        Workload("graph-10k", 10_000, 60, 8, 2, ALL_TECHNIQUES,
                 "data volume on the full-text techniques; shows the cote_s/cotapi_s statement-budget collapse", 2),
        Workload("graph-100k", 100_000, 1_000, 20, 2, ("cote", "cotapi"),
                 "graph store and dataset file in both directions; bypasses DSL structuring and full-text prompts", 3),
    )
}

# (name, unit); eval_ok_pct and verify_ok_pct stand in for the failure shares,
# which are 0 on healthy workloads and so cannot carry a relative bound.
END_TO_END = (
    ("setup_s", "s"),
    ("gen_dataset_s", "s"),
    ("verify_s", "s"),
    ("eval_ok_per_s", "jobs/s"),
    ("chain_s", "s"),
    ("peak_rss_mb", "MB"),
    ("written_mb", "MB"),
    ("eval_ok_pct", "%"),
    ("verify_ok_pct", "%"),
)
FAILURE_SHARES = (("eval_fail_pct", "%"), ("verify_fail_pct", "%"))


@dataclass
class Stage:
    name: str
    wall_s: float
    rss_mb: float
    code: int
    stdout: str


@dataclass
class Chain:
    """One pass of the five stages over one work directory, with its checks."""

    workload: Workload
    work: Path
    stages: dict[str, Stage] = field(default_factory=dict)
    failed_stages: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    verified: int = 0
    jobs_ok: int = 0
    written_bytes: int = 0
    hashes: dict[str, str] = field(default_factory=dict)

    def fail(self, stage: str, message: str) -> None:
        """Record a failed check; it fails every instance and job that depends on the stage."""
        self.failed_stages.add(stage)
        self.problems.append(f"{stage}: {message}")
        if stage in ("gen-graph", "gen-dataset", "verify"):
            self.verified = 0
        if stage in ("gen-graph", "gen-dataset", "eval"):
            self.jobs_ok = 0

    @property
    def total_s(self) -> float:
        return sum(s.wall_s for s in self.stages.values())

    def metrics(self) -> dict[str, float]:
        """The end-to-end metrics of this chain, except the short stages' times."""
        w = self.workload
        eval_s = self.stages["eval"].wall_s if "eval" in self.stages else float("nan")
        return {
            "eval_ok_per_s": self.jobs_ok / eval_s,
            "chain_s": self.total_s,
            "peak_rss_mb": max((s.rss_mb for s in self.stages.values()), default=0.0),
            "written_mb": self.written_bytes / 1e6,
            "eval_ok_pct": 100.0 * self.jobs_ok / w.jobs,
            "verify_ok_pct": 100.0 * self.verified / w.instances,
            "eval_fail_pct": 100.0 * (w.jobs - self.jobs_ok) / w.jobs,
            "verify_fail_pct": 100.0 * (w.instances - self.verified) / w.instances,
        }


# ---------------------------------------------------------------------------
# the chain


def paths(work: Path) -> dict[str, Path]:
    names = ("graph.jsonl", "dataset.jsonl", "rows.jsonl", "transcripts.jsonl", "eval-report.txt", "report.txt")
    return {name.split(".")[0]: work / name for name in names}


def stage_argv(w: Workload, stage: str, graph_seed: int, dataset_seed: int, work: Path) -> list[str]:
    p = paths(work)
    return {
        "gen-graph": ["gen-graph", "--seed", str(graph_seed), "--entities", str(w.entities),
                      "--relations", str(w.relations), "--facts", str(w.facts), "--out", str(p["graph"])],
        "gen-dataset": ["gen-dataset", "--graph", str(p["graph"]), "--per-type", str(w.per_type),
                        "--seed", str(dataset_seed), "--out", str(p["dataset"])],
        "verify": ["verify", "--dataset", str(p["dataset"])],
        "eval": ["eval", "--dataset", str(p["dataset"]), "--technique", ",".join(w.techniques),
                 "--mock", "oracle", "--rows", str(p["rows"]), "--transcripts", str(p["transcripts"]),
                 "--report", str(p["eval-report"])],
        "report": ["report", "--rows", str(p["rows"]), "--format", "text"],
    }[stage]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str], cwd: Path, stdout_path: Path) -> tuple[float, float, int]:
    """Run one child to completion; returns (wall seconds, peak RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.PIPE)
        errors = proc.stderr.read()  # small: error messages only
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode != 0 and errors:
        sys.stderr.write(errors.decode("utf-8", "replace")[-2000:])
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def time_bare_import() -> float:
    """Interpreter start-up plus ``import tkgqa.cli`` in a fresh child."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tkgqa.cli"], env=child_env(), stderr=subprocess.DEVNULL)
    return time.perf_counter() - started


def run_stage_child(chain: Chain, stage: str, graph_seed: int, dataset_seed: int) -> Stage:
    """Run one CLI stage as a child process; the report stage's stdout is its output file."""
    argv = [sys.executable, "-m", "tkgqa.cli", *stage_argv(chain.workload, stage, graph_seed, dataset_seed, chain.work)]
    stdout_path = paths(chain.work)["report"] if stage == "report" else chain.work / f"{stage}.out"
    wall, rss, code = run_child(argv, chain.work, stdout_path)
    return Stage(stage, wall, rss, code, stdout_path.read_text(encoding="utf-8", errors="replace"))


def run_stage_inprocess(chain: Chain, stage: str, graph_seed: int, dataset_seed: int) -> Stage:
    """Run one CLI stage through ``tkgqa.cli.main`` in this process (RSS is not separable here)."""
    from tkgqa import cli

    argv = stage_argv(chain.workload, stage, graph_seed, dataset_seed, chain.work)
    captured = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        try:
            code = cli.main(argv)
        except Exception:  # a crash fails this stage's check instead of the benchmark
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - started
    text = captured.getvalue()
    if stage == "report":
        paths(chain.work)["report"].write_text(text, encoding="utf-8")
    return Stage(stage, wall, 0.0, code, text)


def run_chain(w: Workload, graph_seed: int, dataset_seed: int, work: Path, runner=run_stage_child) -> Chain:
    """Run the five stages in order; a stage that fails its check stops the chain."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    chain = Chain(w, work)
    for stage in STAGES:
        result = runner(chain, stage, graph_seed, dataset_seed)
        chain.stages[stage] = result
        check_stage(chain, result)
        if chain.failed_stages:
            chain.failed_stages.update(STAGES[STAGES.index(stage):])
            break
    check_outputs(chain)
    return chain


# ---------------------------------------------------------------------------
# checks


def check_stage(chain: Chain, stage: Stage) -> None:
    w = chain.workload
    if stage.code != 0:
        chain.fail(stage.name, f"exit code {stage.code}")
        return
    if stage.name == "gen-dataset" and f"instances={w.instances} " not in stage.stdout:
        chain.fail(stage.name, f"expected instances={w.instances}, got {stage.stdout.strip()!r}")
    elif stage.name == "verify":
        expected = f"verified {w.instances}/{w.instances} instances"
        if expected not in stage.stdout:
            chain.fail(stage.name, f"expected {expected!r}, got {stage.stdout.strip()!r}")
        else:
            chain.verified = w.instances
    elif stage.name == "eval":
        rows = [json.loads(line) for line in paths(chain.work)["rows"].read_text(encoding="utf-8").splitlines()]
        if len(rows) != w.jobs:
            chain.fail(stage.name, f"{len(rows)} rows, expected {w.jobs}")
        else:
            chain.jobs_ok = sum(1 for row in rows if row["correct"] is True)


def file_sha256(path: Path, drop_key: str | None = None) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        if drop_key is None:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        else:  # rows carry each job's wall time; hash the rest of each row
            for line in fh:
                obj = json.loads(line)
                obj.pop(drop_key, None)
                digest.update(json.dumps(obj, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


# output file -> the stage that writes it; the two reports show mean times, so
# they are sized but not hashed
WRITER = {"graph": "gen-graph", "dataset": "gen-dataset", "rows": "eval", "transcripts": "eval",
          "eval-report": "eval", "report": "report"}
HASHED = ("graph", "dataset", "rows", "transcripts")


def check_outputs(chain: Chain, keys=WRITER) -> None:
    """Hash and size the output files (``keys``) of the stages that passed."""
    for key in keys:
        path = paths(chain.work)[key]
        if WRITER[key] in chain.failed_stages or not path.exists():
            continue
        chain.written_bytes += path.stat().st_size
        if key in HASHED:
            chain.hashes[key] = file_sha256(path, "wall_time" if key == "rows" else None)


def check_hashes(chain: Chain, expected: dict[str, str]) -> None:
    """Compare with the reference hashes; record the ones not yet known."""
    for key, digest in chain.hashes.items():
        if key not in expected:
            expected[key] = digest
        elif expected[key] != digest:
            chain.fail(WRITER[key], f"{key} sha256 {digest[:12]} differs from the first run's {expected[key][:12]}")


def source_sha256() -> str:
    """One digest over the package sources, which identifies the program measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "tkgqa").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class HashRecord:
    """sha256 of each output per (sources, workload, seeds), from the first run in this checkout."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        self.source = source_sha256()

    def expected(self, w: Workload, graph_seed: int, dataset_seed: int) -> dict[str, str]:
        return self.data.setdefault(f"{self.source[:16]}/{w.name}/{graph_seed}/{dataset_seed}", {})

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)


# ---------------------------------------------------------------------------
# runs


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    attempted: int
    failed: int
    problems: list[str]
    context: dict
    notes: list[str] = field(default_factory=list)


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms.

    The load average of a virtual machine does not show its host's other
    tenants, which slow it by up to a third for seconds to minutes at a time;
    this probe, taken at the start and end of a run, does.
    """
    def loop() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return time.perf_counter() - started

    return 1000.0 * statistics.median(loop() for _ in range(9))


def run_context(graph_seed: int, dataset_seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "cpu_probe_ms_start": cpu_probe_ms(),
        "git_commit": commit,
        "source_sha256": source_sha256(),
        "graph_seed": graph_seed,
        "dataset_seed": dataset_seed,
    }


def run_untraced(w: Workload, graph_seed: int, dataset_seed: int, seconds: float, record: HashRecord) -> RunResult:
    """Run the workload's chains and rounds of the short stages for ``seconds``; report medians."""
    context = run_context(graph_seed, dataset_seed)
    expected = record.expected(w, graph_seed, dataset_seed)
    work = OUT / "work" / w.name
    started = time.perf_counter()
    chains: list[Chain] = []
    samples: dict[str, list[float]] = {stage: [] for stage in REPEATED}
    attempted = failed = 0
    problems: list[str] = []

    def account(chain: Chain, stages: int) -> None:
        nonlocal attempted, failed
        check_hashes(chain, expected)
        attempted += stages
        failed += len(chain.failed_stages)
        problems.extend(chain.problems)
        for stage in REPEATED:
            if stage in chain.stages:
                samples[stage].append(chain.stages[stage].wall_s)

    time_bare_import()  # untimed: fills the page and bytecode caches
    rounds = 0
    while not failed:
        elapsed = time.perf_counter() - started
        if len(chains) < w.chains and elapsed >= len(chains) * seconds / w.chains:
            chain = run_chain(w, graph_seed, dataset_seed, work)
            account(chain, len(STAGES))
            chains.append(chain)
            continue
        if elapsed >= seconds and rounds >= MIN_ROUNDS:
            break
        rounds += 1
        for stage, (_metric, output) in REPEATED.items():
            if failed:
                break
            rerun = Chain(w, work)
            rerun.stages[stage] = run_stage_child(rerun, stage, graph_seed, dataset_seed)
            check_stage(rerun, rerun.stages[stage])
            check_outputs(rerun, (output,) if output else ())
            account(rerun, 1)
            for failed_stage in rerun.failed_stages:  # so that the failure shares count it
                chains[-1].fail(failed_stage, "re-run failed its check")
    shutil.rmtree(work, ignore_errors=True)
    record.save()

    # medians over the chains; after a failed check the loop stopped, so the
    # failing chain is the last one and its failure shares are the run's
    per_chain = [c.metrics() for c in chains]
    metrics = {name: (statistics.median(samples[stage]) if samples[stage] else float("nan"), "s")
               for stage, (name, _output) in REPEATED.items()}
    metrics.update((name, (statistics.median(m[name] for m in per_chain), unit))
                   for name, unit in END_TO_END + FAILURE_SHARES if name in per_chain[0])
    if chains[-1].failed_stages:
        for name, unit in FAILURE_SHARES:
            metrics[name] = (per_chain[-1][name], unit)
    context["loadavg_end"] = os.getloadavg()
    context["cpu_probe_ms_end"] = cpu_probe_ms()
    context["chains"] = len(chains)
    context["rounds"] = rounds
    context["stage_samples"] = {stage: len(values) for stage, values in samples.items()}
    return RunResult(metrics, attempted, failed, problems, context)


def run_traced(w: Workload, graph_seed: int, dataset_seed: int, record: HashRecord) -> RunResult:
    """Per-layer metrics: one untraced chain of children, then the chain in process, untraced and traced."""
    import tracer

    context = run_context(graph_seed, dataset_seed)
    expected = record.expected(w, graph_seed, dataset_seed)
    work = OUT / "work" / w.name
    attempted = failed = 0
    problems: list[str] = []

    def account(chain: Chain) -> None:
        nonlocal attempted, failed
        check_hashes(chain, expected)
        shutil.rmtree(work, ignore_errors=True)
        attempted += len(STAGES)
        failed += len(chain.failed_stages)
        problems.extend(chain.problems)

    children = run_chain(w, graph_seed, dataset_seed, work)
    account(children)
    import_samples = [time_bare_import() for _ in range(IMPORT_SAMPLES)]

    # Imported only now: a child's ru_maxrss starts from this process's peak RSS
    # at spawn, so the children above ran while it was small; and imported
    # before the timed in-process stages, so that none of them pays for it.
    import tkgqa.cli  # noqa: F401
    plain = run_chain(w, graph_seed, dataset_seed, work, run_stage_inprocess)
    account(plain)
    trace = tracer.Tracer()
    with trace.installed():
        traced = run_chain(w, graph_seed, dataset_seed, work, trace.stage_runner(run_stage_inprocess))
    account(traced)
    record.save()

    metrics, tails = tracer.layer_metrics(trace, children, statistics.median(import_samples),
                                          100.0 * (traced.total_s / plain.total_s - 1.0))
    context["loadavg_end"] = os.getloadavg()
    context["cpu_probe_ms_end"] = cpu_probe_ms()
    trace_path = OUT / f"trace-{w.name}-{graph_seed}-{dataset_seed}.json"
    trace.write(trace_path, context, metrics, tails)
    notes = [f"trace written to {trace_path}"] + trace.failure_notes()
    return RunResult(metrics, attempted, failed, problems, context, notes)


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for both the graph and the dataset (default: 7 and 3, as in the README)")
    parser.add_argument("--graph-seed", type=int, default=None, help="gen-graph --seed (overrides --seed)")
    parser.add_argument("--dataset-seed", type=int, default=None, help="gen-dataset --seed (overrides --seed)")
    parser.add_argument("--seconds", type=float, default=0.0, help="spread the chains and short-stage re-runs over this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not (SRC / "tkgqa" / "cli.py").is_file():
        print(f"error: no tkgqa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    graph_seed = args.graph_seed if args.graph_seed is not None else (7 if args.seed is None else args.seed)
    dataset_seed = args.dataset_seed if args.dataset_seed is not None else (3 if args.seed is None else args.seed)
    if args.workload == "all":
        return run_all(graph_seed, dataset_seed, args.seconds, args.trace)

    w = WORKLOADS[args.workload]
    record = HashRecord(OUT / "hashes.json")
    if args.trace:
        result = run_traced(w, graph_seed, dataset_seed, record)
    else:
        result = run_untraced(w, graph_seed, dataset_seed, args.seconds, record)
    print(f"[{w.name}] context {json.dumps(result.context, sort_keys=True)}")
    for note in result.notes:
        print(f"[{w.name}] {note}")
    for problem in result.problems:
        print(f"[{w.name}] CHECK FAILED {problem}")
    for metric, (value, unit) in result.metrics.items():
        print(f"[{w.name}] {metric} = {value:.6g} {unit}")
    reported = result.metrics if args.trace else {m: result.metrics[m] for m, _ in END_TO_END}
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in reported.items()},
    }))
    return 0 if result.failed == 0 else 1


def run_all(graph_seed: int, dataset_seed: int, seconds: float, trace: int) -> int:
    """Run every workload in a fresh process of its own and merge their results.

    A child's ru_maxrss starts from its parent's peak RSS at spawn, so one
    process per workload keeps each workload's memory out of the next one's
    child RSS figures.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--graph-seed", str(graph_seed),
                "--dataset-seed", str(dataset_seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit code {proc.returncode})")
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = code or proc.returncode or (0 if result["correct"] else 1)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
