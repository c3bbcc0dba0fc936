"""Wire types exchanged between solvers, generator, pipelines and scoring."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .graph import Interval

__all__ = ["ANSWER_KINDS", "Answer", "FunctionCall"]

ANSWER_KINDS = (
    "entity",
    "entity_list",
    "boolean",
    "count",
    "duration",
    "time_point",
    "time_interval",
)


@dataclass(frozen=True)
class Answer:
    """Tagged answer value; ``kind`` is one of :data:`ANSWER_KINDS`."""

    kind: str
    value: Any

    def __post_init__(self):
        if self.kind not in ANSWER_KINDS:
            raise ValueError(f"unknown answer kind {self.kind!r}")
        object.__setattr__(self, "value", _normalize(self.kind, self.value))

    def to_json(self) -> dict:
        value = self.value
        if isinstance(value, tuple):
            value = list(value)
        return {"type": self.kind, "value": value}

    @classmethod
    def from_json(cls, obj: dict) -> "Answer":
        if not isinstance(obj, dict) or set(obj) != {"type", "value"}:
            raise ValueError(f"not a tagged answer object: {obj!r}")
        return cls(obj["type"], obj["value"])


def _normalize(kind: str, value: Any) -> Any:
    if kind == "entity":
        if not isinstance(value, str):
            raise ValueError(f"entity answer must be a string, got {value!r}")
        return value
    if kind == "entity_list":
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"entity_list answer must be a list of strings, got {value!r}")
        return tuple(value)
    if kind == "boolean":
        if not isinstance(value, bool):
            raise ValueError(f"boolean answer must be a bool, got {value!r}")
        return value
    if kind in ("count", "duration", "time_point"):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{kind} answer must be an integer, got {value!r}")
        return value
    if kind == "time_interval":
        if not isinstance(value, (list, tuple)) or len(value) != 2 or any(
            isinstance(x, bool) or not isinstance(x, int) for x in value
        ):
            raise ValueError(f"time_interval answer must be two integers, got {value!r}")
        return Interval(*value)
    raise ValueError(kind)


@dataclass(frozen=True)
class FunctionCall:
    """A named solver invocation with JSON-compatible arguments."""

    name: str
    arguments: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "arguments": _jsonify(self.arguments)}

    @classmethod
    def from_json(cls, obj: dict) -> "FunctionCall":
        if not isinstance(obj, dict) or "name" not in obj:
            raise ValueError(f"not a function call object: {obj!r}")
        args = obj.get("arguments", {})
        if not isinstance(args, dict):
            raise ValueError("call arguments must be an object")
        return cls(str(obj["name"]), dict(args))


def _jsonify(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value
