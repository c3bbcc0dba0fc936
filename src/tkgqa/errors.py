"""Exception types shared across the toolkit."""

from __future__ import annotations


class TkgqaError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------------------
# graph construction / serialization


class InvalidFactError(TkgqaError):
    """A fact field has the wrong type or is empty."""

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"invalid fact at index {index}: {reason}")


class InvalidIntervalError(TkgqaError):
    """A fact interval has t0 > t1."""

    def __init__(self, index: int | None = None, t0: int | None = None, t1: int | None = None):
        self.index = index
        self.t0 = t0
        self.t1 = t1
        where = f" at index {index}" if index is not None else ""
        super().__init__(f"invalid interval{where}: t0={t0} > t1={t1}")


class DuplicateFactError(TkgqaError):
    """The same quintuple appears twice in one graph."""

    def __init__(self, index: int, fact=None):
        self.index = index
        self.fact = fact
        super().__init__(f"duplicate fact at index {index}: {fact}")


class ParseError(TkgqaError):
    """A serialized file could not be parsed."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


# ---------------------------------------------------------------------------
# solver functions


class NoMatchingFactsError(TkgqaError):
    """The query underlying a solver call matched no facts."""


class AmbiguousEpisodeError(TkgqaError):
    """Several episodes match and no occurrence index disambiguates them."""


class OccurrenceOutOfRangeError(TkgqaError):
    """An occurrence index exceeds the number of matching episodes."""


class UnknownFunctionError(TkgqaError):
    """A call names a function outside the registered set."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown function: {name!r}")


class ArgumentTypeError(TkgqaError):
    """A call's arguments do not satisfy the function schema."""


# ---------------------------------------------------------------------------
# dataset generation


class InfeasibleParamsError(TkgqaError):
    """Graph parameters cannot be satisfied (or are invalid)."""


class UnsatisfiableTypeError(TkgqaError):
    """No valid instance of a question type could be sampled within the retry bound."""

    def __init__(self, question_type: str, attempts: int):
        self.question_type = question_type
        self.attempts = attempts
        super().__init__(f"could not sample a valid {question_type!r} instance in {attempts} attempts")


# ---------------------------------------------------------------------------
# query DSL


class DslError(TkgqaError):
    """Base class for DSL parse and runtime errors."""


class DslPositionError(DslError):
    """A parse error at a 1-based source ``line`` and ``col``."""

    def __init__(self, what: str, line: int, col: int, detail: str = ""):
        self.line = line
        self.col = col
        super().__init__(f"{what} at line {line}, col {col}{detail}")


class DslSyntaxError(DslPositionError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("syntax error", line, col, f": {message}")


class UnknownIdentifierError(DslPositionError):
    def __init__(self, name: str, line: int, col: int):
        self.name = name
        super().__init__(f"unknown identifier {name!r}", line, col)


class ArityError(DslPositionError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("arity error", line, col, f": {message}")


class StepLimitExceededError(DslError):
    """Evaluation exceeded the step budget: its units, graph queries and stage inputs, as ``dsl`` prices them."""


class FactLimitExceededError(DslError):
    """A program declares more facts than the configured budget."""


class RuntimeTypeError(DslError):
    """A pipeline stage was applied to a value of the wrong type."""


# ---------------------------------------------------------------------------
# LLM pipelines


class ClientError(TkgqaError):
    """The chat client failed (network, HTTP, or configuration)."""


class ScriptExhaustedError(ClientError):
    """A scripted mock client ran out of replies."""


class AnswerParseError(TkgqaError):
    """No usable JSON answer could be extracted from a reply."""
