"""Scoring and reporting: answer matching, accuracy tables, usage and confidence analyses.

Matching rules by answer type: entities compare after trim + case-fold;
entity lists compare ordered for the two types whose ordering is the
question's point (timeline, get_entities_in_between) and as sets otherwise;
booleans accept true/yes and false/no; counts, durations and time points
compare as integers; intervals compare pairwise.  Parse failures always
score false.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

from .answers import Answer
from .errors import ParseError
from .graph import read_jsonl, write_jsonl
from .pipelines import PipelineResult

__all__ = [
    "ORDERED_LIST_TYPES",
    "score",
    "ScoredRow",
    "Report",
    "aggregate",
    "function_usage",
    "token_bins",
    "ConfusionReport",
    "confidence_report",
    "classify_confidence",
    "save_rows",
    "load_rows",
]

ORDERED_LIST_TYPES = ("timeline", "get_entities_in_between")


def _norm_entity(value: str) -> str:
    return value.strip().casefold()


def score(pred: PipelineResult | Answer | None, gold: Answer, question_type: str) -> bool:
    """True iff the prediction matches the gold answer under the type's rule."""
    if isinstance(pred, PipelineResult):
        pred = pred.answer  # already coerced by the run
    if pred is None:
        return False
    if pred.kind != gold.kind:
        return False
    if gold.kind == "entity":
        return _norm_entity(pred.value) == _norm_entity(gold.value)
    if gold.kind == "entity_list":
        mine = [_norm_entity(v) for v in pred.value]
        theirs = [_norm_entity(v) for v in gold.value]
        if question_type in ORDERED_LIST_TYPES:
            return mine == theirs
        return set(mine) == set(theirs)
    if gold.kind == "time_interval":
        return tuple(pred.value) == tuple(gold.value)
    return pred.value == gold.value


# ---------------------------------------------------------------------------
# scored rows (persisted for re-aggregation)


@dataclass(frozen=True)
class ScoredRow:
    instance_id: str
    question_type: str
    technique: str
    correct: bool
    wall_time: float
    llm_calls: int
    token_estimate: int
    parse_error: bool = False
    function_calls: tuple = ()  # (name, associated) pairs
    MAX_WALL_TIME = 1e9  # seconds; a row read from a file takes less, so sums over rows stay finite

    def to_json(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "question_type": self.question_type,
            "technique": self.technique,
            "correct": self.correct,
            "wall_time": self.wall_time,
            "llm_calls": self.llm_calls,
            "token_estimate": self.token_estimate,
            "parse_error": self.parse_error,
            "function_calls": [list(fc) for fc in self.function_calls],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ScoredRow":
        wall_time = float(obj["wall_time"])
        if not 0 <= wall_time < cls.MAX_WALL_TIME:  # also false for nan
            raise ValueError(f"wall_time must be at least 0 and below {cls.MAX_WALL_TIME:g} s, got {wall_time!r}")
        return cls(
            instance_id=str(obj["instance_id"]),
            question_type=str(obj["question_type"]),
            technique=str(obj["technique"]),
            correct=bool(obj["correct"]),
            wall_time=wall_time,
            llm_calls=int(obj["llm_calls"]),
            token_estimate=int(obj["token_estimate"]),
            parse_error=bool(obj.get("parse_error", False)),
            function_calls=tuple((str(n), bool(a)) for n, a in obj.get("function_calls", [])),
        )


def make_row(instance, result: PipelineResult, correct: bool) -> ScoredRow:
    return ScoredRow(
        instance_id=instance.id,
        question_type=instance.question_type,
        technique=result.technique,
        correct=correct,
        wall_time=result.wall_time,
        llm_calls=result.llm_calls,
        token_estimate=instance.token_estimate,
        parse_error=result.parse_error,
        function_calls=tuple((c.name, assoc) for c, assoc in result.function_calls),
    )


def save_rows(rows: Iterable[ScoredRow], sink: str | Path | IO[str]) -> None:
    write_jsonl((json.dumps(r.to_json(), sort_keys=True) for r in rows), sink)


def load_rows(source: str | Path) -> list[ScoredRow]:
    rows = []
    for line_no, obj in read_jsonl(source):
        try:
            rows.append(ScoredRow.from_json(obj))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf), float(10**400)
            raise ParseError(line_no, f"bad scored row: {exc}") from exc
    return rows


# ---------------------------------------------------------------------------
# aggregation


@dataclass
class TechniqueSummary:
    technique: str
    total: int
    correct: int
    avg_time: float
    std_time: float

    @property
    def accuracy(self) -> float:
        return 100.0 * self.correct / self.total if self.total else 0.0


@dataclass
class Report:
    techniques: list[TechniqueSummary] = field(default_factory=list)
    grid: dict = field(default_factory=dict)  # qtype -> {technique: accuracy}
    type_counts: dict = field(default_factory=dict)  # qtype -> instances per technique
    usage: dict | None = None  # function-usage 2x2 percentages
    bins: list = field(default_factory=list)  # token-bin error rates

    def to_json(self) -> dict:
        return {
            "techniques": [
                {
                    "technique": t.technique,
                    "accuracy": round(t.accuracy, 1),
                    "avg_time": t.avg_time,
                    "std_time": t.std_time,
                    "total": t.total,
                }
                for t in self.techniques
            ],
            "grid": self.grid,
            "type_counts": self.type_counts,
            "usage": self.usage,
            "bins": self.bins,
        }

    def to_text(self) -> str:
        lines = []
        header = f"{'Method':>10} {'Accuracy':>9} {'Average Time':>13} {'Std Dev':>9}"
        lines.append(header)
        lines.append("-" * len(header))
        for t in self.techniques:
            lines.append(
                f"{t.technique:>10} {t.accuracy:>8.1f}% {t.avg_time:>13.2f} {t.std_time:>9.2f}"
            )
        if self.grid:
            lines.append("")
            tech_names = [t.technique for t in self.techniques]
            width = max(max(len(q) for q in self.grid), len("Total Accuracy")) + 2
            lines.append("Accuracy per question type")
            lines.append(
                f"{'Task':>{width}} {'Questions':>9} " + " ".join(f"{n:>9}" for n in tech_names)
            )
            for qtype in sorted(self.grid):
                counts = self.type_counts.get(qtype, 0)
                cells = " ".join(
                    f"{self.grid[qtype].get(n, float('nan')):>8.1f}%" if n in self.grid[qtype] else f"{'-':>9}"
                    for n in tech_names
                )
                lines.append(f"{qtype:>{width}} {counts:>9} {cells}")
            by_name = {t.technique: t for t in self.techniques}
            totals = " ".join(f"{by_name[n].accuracy:>8.1f}%" for n in tech_names)
            total_questions = sum(self.type_counts.values())
            lines.append(f"{'Total Accuracy':>{width}} {total_questions:>9} {totals}")
        if self.usage is not None:
            lines.append("")
            lines.append("Function usage (percent of cotapi/cotapi_s runs)")
            lines.append(f"{'':>12} {'Associated':>11} {'Non-Associated':>15}")
            for label, outcome in (("True Pred.", "true"), ("False Pred.", "false")):
                lines.append(
                    f"{label:>12} {self.usage['associated_' + outcome]:>10.1f}% "
                    f"{self.usage['non_associated_' + outcome]:>14.1f}%"
                )
        if self.bins:
            lines.append("")
            lines.append("False predictions by data size (token bins)")
            for entry in self.bins:
                lines.append(
                    f"  [{entry['lo']:>6}, {entry['hi']:>6}) {entry['total']:>5} runs "
                    f"{entry['rate']:>5.1f}% false"
                )
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["technique,accuracy,avg_time,std_time,total"]
        for t in self.techniques:
            lines.append(f"{t.technique},{t.accuracy:.1f},{t.avg_time:.4f},{t.std_time:.4f},{t.total}")
        return "\n".join(lines) + "\n"


def aggregate(rows: Sequence[ScoredRow], bin_width: int = 500) -> Report:
    """Build the full report; input order does not matter."""
    ordered = sorted(rows, key=lambda r: (r.technique, r.question_type, r.instance_id))
    techniques = []
    for tech in sorted({r.technique for r in ordered}):
        mine = [r for r in ordered if r.technique == tech]
        times = [r.wall_time for r in mine]
        techniques.append(
            TechniqueSummary(
                technique=tech,
                total=len(mine),
                correct=sum(r.correct for r in mine),
                avg_time=statistics.fmean(times) if times else 0.0,
                std_time=statistics.pstdev(times) if times else 0.0,
            )
        )
    grid: dict = {}
    type_counts: dict = {}
    for qtype in sorted({r.question_type for r in ordered}):
        cells: dict[str, list[ScoredRow]] = {}  # technique -> its rows of this type
        for r in ordered:
            if r.question_type == qtype:
                cells.setdefault(r.technique, []).append(r)
        type_counts[qtype] = max(len(cell) for cell in cells.values())
        grid[qtype] = {
            tech: round(100.0 * sum(r.correct for r in cell) / len(cell), 1) for tech, cell in sorted(cells.items())
        }
    report = Report(techniques=techniques, grid=grid, type_counts=type_counts)
    report.usage = function_usage(ordered)
    report.bins = token_bins(ordered, bin_width)
    return report


def function_usage(rows: Sequence[ScoredRow]) -> dict | None:
    """2x2 percentages {associated, non-associated} x {true, false} over cotapi runs."""
    relevant = [r for r in rows if r.technique in ("cotapi", "cotapi_s")]
    if not relevant:
        return None
    cells = {"associated_true": 0, "associated_false": 0, "non_associated_true": 0, "non_associated_false": 0}
    for r in relevant:
        associated = bool(r.function_calls) and r.function_calls[0][1]
        key = ("associated" if associated else "non_associated") + ("_true" if r.correct else "_false")
        cells[key] += 1
    total = len(relevant)
    return {k: round(100.0 * v / total, 1) for k, v in cells.items()}


def token_bins(rows: Sequence[ScoredRow], bin_width: int = 500) -> list[dict]:
    """Per-bin false-prediction rates over token estimates; empty bins omitted."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    buckets: dict[int, list[ScoredRow]] = {}
    for r in rows:
        buckets.setdefault(r.token_estimate // bin_width, []).append(r)
    out = []
    for index in sorted(buckets):
        members = buckets[index]
        false = sum(1 for r in members if not r.correct)
        out.append(
            {
                "lo": index * bin_width,
                "hi": (index + 1) * bin_width,
                "total": len(members),
                "false": false,
                "rate": round(100.0 * false / len(members), 1),
            }
        )
    return out


# ---------------------------------------------------------------------------
# temporal-confidence confusion matrix


def classify_confidence(score_value: float | None, threshold: float = 0.8) -> str:
    """'temporal' iff the score clears the threshold; missing scores fall back to 'knowledge'."""
    if score_value is None:
        return "knowledge"
    return "temporal" if score_value >= threshold else "knowledge"


@dataclass
class ConfusionReport:
    knowledge_knowledge: int = 0
    knowledge_temporal: int = 0
    temporal_knowledge: int = 0
    temporal_temporal: int = 0
    flagged: int = 0  # tasks whose score was missing

    @property
    def total(self) -> int:
        return (
            self.knowledge_knowledge
            + self.knowledge_temporal
            + self.temporal_knowledge
            + self.temporal_temporal
        )

    @property
    def accuracy(self) -> float:
        if not self.total:
            return 0.0
        return 100.0 * (self.knowledge_knowledge + self.temporal_temporal) / self.total

    def to_json(self) -> dict:
        return {
            "matrix": {
                "knowledge": {"knowledge": self.knowledge_knowledge, "temporal": self.knowledge_temporal},
                "temporal": {"knowledge": self.temporal_knowledge, "temporal": self.temporal_temporal},
            },
            "accuracy": round(self.accuracy, 1),
            "flagged": self.flagged,
        }

    def to_text(self) -> str:
        lines = [
            f"{'Predicted':>12} {'Knowledge':>10} {'Temporal':>9}",
            f"{'Actual':>12}",
            f"{'Knowledge':>12} {self.knowledge_knowledge:>10} {self.knowledge_temporal:>9}",
            f"{'Temporal':>12} {self.temporal_knowledge:>10} {self.temporal_temporal:>9}",
            f"Accuracy: {self.accuracy:.1f}%",
        ]
        if self.flagged:
            lines.append(f"Flagged (no score): {self.flagged}")
        return "\n".join(lines)


def confidence_report(
    scores: Iterable[tuple[str, float | None]], threshold: float = 0.8
) -> ConfusionReport:
    """Confusion matrix of actual {knowledge, temporal} labels vs thresholded scores."""
    report = ConfusionReport()
    for actual, score_value in scores:
        if actual not in ("knowledge", "temporal"):
            raise ValueError(f"actual label must be 'knowledge' or 'temporal', got {actual!r}")
        if score_value is None:
            report.flagged += 1
        predicted = classify_confidence(score_value, threshold)
        attr = f"{actual}_{predicted}"
        setattr(report, attr, getattr(report, attr) + 1)
    return report
