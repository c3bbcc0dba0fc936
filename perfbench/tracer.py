"""In-process tracing of the tkgqa layers, from outside the package.

``Tracer.installed()`` replaces each traced public function, in every module
namespace that calls it, with a wrapper that records a span: name, start,
end, parent span, the job it belongs to (``<instance id>x<technique>`` inside
``pipelines.run``, ``score`` and ``transcript_record``) and a few attributes
such as the solver function's name.  Spans stay in memory and are written
out once, by ``Tracer.write``.  ``layer_metrics`` turns them into the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# span fields, stored as lists to keep the wrapper cheap
NAME, START, END, PARENT, JOB, ATTRS = range(6)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass(frozen=True)
class Target:
    """One traced function: where callers find it, and what to record about a call."""

    module: str  # module (or "module:Class") whose attribute is replaced
    attr: str
    span: str  # named after the module that defines the function
    before: Callable | None = None  # (args) -> (job or None, attrs)
    after: Callable | None = None  # (args, result, attrs) -> None


def _function(args):
    return None, {"function": args[1].name}


def _parse_before(args):
    return None, {"structuring": args[0].lstrip().startswith("fact(")}


def _parse_after(args, program, attrs):
    attrs["statements"] = len(program.statements)


def _execute_before(args):
    program = args[0]
    return None, {"structuring": bool(program.fact_decls), "statements": len(program.statements)}


def _run_before(args):
    return f"{args[0].id}x{args[1]}", {"technique": args[1]}


def _run_after(args, result, attrs):
    attrs["llm_calls"] = result.llm_calls
    attrs["chars"] = sum(len(turn["prompt"]) + len(turn["reply"]) for turn in result.transcript)


def _result_job(args):
    return f"{args[0].instance_id}x{args[0].technique}", {"technique": args[0].technique}


def _score_after(args, ok, attrs):
    attrs["ok"] = bool(ok)


def _export_after(args, _result, attrs):
    attrs["instances"] = len(args[0])
    attrs["bytes"] = Path(args[1]).stat().st_size


TARGETS = (
    Target("tkgqa.cli", "generate_graph", "generator.generate_graph"),
    Target("tkgqa.cli", "save_tkg", "graph.save_tkg"),
    Target("tkgqa.cli", "render_text", "graph.render_text"),
    Target("tkgqa.generator", "render_text", "graph.render_text"),
    Target("tkgqa.cli", "load_tkg", "graph.load_tkg"),
    Target("tkgqa.generator", "load_tkg", "graph.load_tkg"),
    Target("tkgqa.cli", "generate_instances", "generator.generate_instances"),
    Target("tkgqa.cli", "export_instances", "generator.export_instances", after=_export_after),
    Target("tkgqa.cli", "import_instances", "generator.import_instances"),
    Target("tkgqa.cli", "verify_instance", "generator.verify_instance"),
    Target("tkgqa.cli", "oracle_answer", "oracle.oracle_answer", _function),
    Target("tkgqa.generator", "oracle_answer", "oracle.oracle_answer", _function),
    Target("tkgqa.generator", "dispatch", "solvers.dispatch", _function),
    Target("tkgqa.pipelines", "dispatch", "solvers.dispatch", _function),
    Target("tkgqa.dsl", "dispatch", "solvers.dispatch", _function),
    Target("tkgqa.pipelines", "parse", "dsl.parse", _parse_before, _parse_after),
    Target("tkgqa.pipelines", "execute", "dsl.execute", _execute_before),
    Target("tkgqa.cli", "run", "pipelines.run", _run_before, _run_after),
    Target("tkgqa.pipelines:PipelineResult", "transcript_record", "pipelines.transcript_record", _result_job),
    Target("tkgqa.cli", "score", "scoring.score", _result_job, _score_after),
    Target("tkgqa.cli", "save_rows", "scoring.save_rows"),
    Target("tkgqa.cli", "load_rows", "scoring.load_rows"),
    Target("tkgqa.cli", "aggregate", "scoring.aggregate"),
)


class _TracedJson:
    """Stands in for ``json`` inside ``tkgqa.cli`` so that the transcript encoding is timed."""

    def __init__(self, tracer: "Tracer"):
        self.dumps = tracer.wrap(Target("json", "dumps", "cli.json.dumps"), json.dumps)

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job: str | None = None

    def _open(self, name: str, job: str | None, attrs: dict) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, job or self._job, attrs])
        self._stack.append(index)
        return index

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            job, attrs = target.before(args) if target.before else (None, {})
            index = self._open(target.span, job, attrs)
            outer_job = self._job
            if job is not None:
                self._job = job
            span = spans[index]
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                self._job = outer_job
            if target.after:
                target.after(args, result, attrs)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name, None, {})
        self.spans[index][START] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index][END] = time.perf_counter()
            self._stack.pop()

    def stage_runner(self, runner: Callable) -> Callable:
        def traced_stage(chain, stage, *args):
            with self.span(f"cli.{stage}"):
                return runner(chain, stage, *args)

        return traced_stage

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore the originals."""
        import importlib

        saved = []
        try:
            for target in TARGETS:
                module_name, _, class_name = target.module.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = getattr(owner, target.attr)
                saved.append((owner, target.attr, original))
                setattr(owner, target.attr, self.wrap(target, original))
            cli = importlib.import_module("tkgqa.cli")
            saved.append((cli, "json", cli.json))
            cli.json = _TracedJson(self)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading the spans --------------------------------------------------

    def select(self, name: str, **attrs) -> list[list]:
        return [s for s in self.spans if s[NAME] == name and all(s[ATTRS].get(k) == v for k, v in attrs.items())]

    def durations(self, name: str, **attrs) -> list[float]:
        return [s[END] - s[START] for s in self.select(name, **attrs)]

    def dsl_failures(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.spans:
            if s[NAME] in ("dsl.parse", "dsl.execute") and "error" in s[ATTRS]:
                counts[s[ATTRS]["error"]] = counts.get(s[ATTRS]["error"], 0) + 1
        return counts

    def failure_notes(self) -> list[str]:
        failures = self.dsl_failures()
        return [f"dsl.failures by error type: {json.dumps(failures, sort_keys=True)}"] if failures else []

    def write(self, path: Path, context: dict, metrics: dict, tails: dict) -> None:
        """Write the context, the metrics with their tails, and every span, once."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "context": context,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "tails": tails,
            "dsl_failures": self.dsl_failures(),
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def median(values: list[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it, as (value, percentile, samples).

    Below 40 samples no percentile qualifies and the median stands in.
    """
    n = len(values)
    pct = next((p for p in TAIL_LADDER if n * (1 - p / 100) >= 10), None)
    if pct is None:
        return median(values), 50.0, n
    return sorted(values)[math.ceil(pct / 100 * n) - 1], pct, n


def layer_metrics(trace: Tracer, children, import_s: float, overhead_pct: float) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and, per ``.tail``, its percentile and sample count."""
    from tkgqa.pipelines import TECHNIQUES
    from tkgqa.solvers import function_names

    us, ms = 1e6, 1e3
    m: dict[str, tuple[float, str]] = {}
    tails: dict[str, dict] = {}

    def timing(name: str, values: list[float], scale: float, unit: str) -> None:
        m[f"{name}.p50"] = (median(values, scale), unit)
        value, pct, n = tail(values)
        m[f"{name}.tail"] = (value * scale, unit)
        tails[f"{name}.tail"] = {"percentile": pct, "samples": n}

    m["cli.import_s"] = (import_s, "s")
    for stage in ("gen-graph", "gen-dataset", "verify", "eval", "report"):
        m[f"cli.{stage}.rss_mb"] = (children.stages[stage].rss_mb if stage in children.stages else 0.0, "MB")
    m["cli.report_s"] = (children.stages["report"].wall_s if "report" in children.stages else 0.0, "s")

    for fn in ("save_tkg", "load_tkg", "render_text"):
        m[f"graph.{fn}_s"] = (median(trace.durations(f"graph.{fn}")), "s")
    for fn in ("generate_graph", "generate_instances", "export_instances", "import_instances"):
        m[f"generator.{fn}_s"] = (median(trace.durations(f"generator.{fn}")), "s")
    exports = trace.select("generator.export_instances")
    m["generator.dataset_bytes_per_instance"] = (
        exports[-1][ATTRS]["bytes"] / exports[-1][ATTRS]["instances"] if exports else 0.0, "bytes")

    timing("oracle.verify_instance_us", trace.durations("generator.verify_instance"), us, "us")
    for fn in function_names():
        m[f"oracle.answer_us.{fn}"] = (median(trace.durations("oracle.oracle_answer", function=fn), us), "us")
    timing("solvers.dispatch_us", trace.durations("solvers.dispatch"), us, "us")
    for fn in function_names():
        m[f"solvers.dispatch_us.{fn}"] = (median(trace.durations("solvers.dispatch", function=fn), us), "us")

    m["dsl.parse_s.structuring"] = (median(trace.durations("dsl.parse", structuring=True)), "s")
    parses = [s for s in trace.select("dsl.parse") if "statements" in s[ATTRS]]
    statements = sum(s[ATTRS]["statements"] for s in parses)
    m["dsl.parse_us_per_stmt"] = (sum(s[END] - s[START] for s in parses) * us / statements if statements else 0.0, "us")
    m["dsl.execute_s.structuring"] = (median(trace.durations("dsl.execute", structuring=True)), "s")
    timing("dsl.execute_us.call", trace.durations("dsl.execute", structuring=False), us, "us")
    m["dsl.failures"] = (sum(trace.dsl_failures().values()), "count")

    for tech in TECHNIQUES:
        runs = trace.select("pipelines.run", technique=tech)
        m[f"pipelines.run_ms.{tech}"] = (median([s[END] - s[START] for s in runs], ms), "ms")
        m[f"pipelines.prompt_mb.{tech}"] = (sum(s[ATTRS].get("chars", 0) for s in runs) / 1e6, "MB")
        m[f"pipelines.llm_calls.{tech}"] = (sum(s[ATTRS].get("llm_calls", 0) for s in runs), "count")
        m[f"pipelines.failed.{tech}"] = (sum(1 for s in trace.select("scoring.score", technique=tech)
                                             if not s[ATTRS].get("ok")), "count")
    m["pipelines.transcript_record_s"] = (
        sum(trace.durations("pipelines.transcript_record")) + sum(trace.durations("cli.json.dumps")), "s")

    timing("scoring.score_us", trace.durations("scoring.score"), us, "us")
    for fn in ("save_rows", "load_rows", "aggregate"):
        m[f"scoring.{fn}_s"] = (median(trace.durations(f"scoring.{fn}")), "s")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m, tails
