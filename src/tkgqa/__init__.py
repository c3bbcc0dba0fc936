"""Temporal knowledge-graph question answering toolkit.

Deterministic solver functions over quintuple facts, a synthetic benchmark
generator with oracle-verified gold answers, a sandboxed temporal-query DSL,
and an LLM pipeline harness with scripted mock clients for offline runs.
"""

from .answers import ANSWER_KINDS, Answer, FunctionCall
from .graph import TKG, Fact, Interval, load_tkg, render_text, save_tkg
from .oracle import oracle_answer
from .solvers import dispatch, function_names, function_specs, schema_bundle

__version__ = "0.1.0"

__all__ = [
    "ANSWER_KINDS",
    "Answer",
    "FunctionCall",
    "TKG",
    "Fact",
    "Interval",
    "load_tkg",
    "save_tkg",
    "render_text",
    "dispatch",
    "function_names",
    "function_specs",
    "schema_bundle",
    "oracle_answer",
    "__version__",
]
