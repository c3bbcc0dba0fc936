"""tqdsl: a tiny sandboxed temporal-query language.

Line-oriented programs over a temporal knowledge graph.  A program is a
sequence of statements and must end with an expression, whose value is the
program result:

    fact(E1, R1, E2, 2000, 2005)          # declare a fact (structuring path)
    let xs = facts(E1, R1, *)             # bind a pipeline result
    facts(E1, R1, *) |> sort(start, asc) |> objects

Sources are ``facts(s|*, r|*, o|*)`` selections; stages are ``sort(start|end,
asc|desc)``, ``filter_at(t)``, ``filter_overlap(a, b)``, ``filter_within(a,
b)``, ``filter_dur(op, n)``, ``count``, ``objects``, ``subjects``,
``durations`` and ``merge_total``.  ``call name(args)`` invokes a registered
solver function with positional arguments in schema order.  A call value
parses straight to the JSON value of a function call: an integer, ``true``
or ``false``, an id or comparator string, or a list, written ``(...)`` or
``[...]`` alike (``[a, b]`` for intervals, ``(s, r, o)`` for triplets).  A
top-level ``*`` leaves its parameter unset; a nested one is the string
``"*"``.  ``dispatch`` is the one check of the arguments, the same for a call
written here or as JSON.

There are no loops, no recursion, no I/O and no string operations, so every
accepted program terminates structurally.  A step budget bounds its work: a
unit costs one step, a graph query (a ``facts(...)`` source, or one that a
called solver makes) one plus the graph's size, and a stage one plus the
length of its input.  Solver domain errors (no matching facts, ambiguous
episodes, bad arguments) become :class:`ErrorValue` results rather than
exceptions, so callers can score them as wrong answers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .answers import Answer, FunctionCall
from .errors import (
    AmbiguousEpisodeError,
    ArgumentTypeError,
    ArityError,
    DslSyntaxError,
    FactLimitExceededError,
    NoMatchingFactsError,
    OccurrenceOutOfRangeError,
    RuntimeTypeError,
    StepLimitExceededError,
    UnknownIdentifierError,
)
from .graph import Fact, Interval, TKG
from .primitives import DurationPredicate, merge_intervals, sort_facts
from .solvers import dispatch, function_names, function_spec

__all__ = [
    "Limits",
    "Program",
    "ErrorValue",
    "ExecutionResult",
    "parse",
    "execute",
    "extract_fenced_source",
]


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Source:
    s: str | None
    r: str | None
    o: str | None


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Stage:
    name: str
    args: tuple


@dataclass(frozen=True)
class Pipe:
    head: "Source | Var | Call"
    stages: tuple


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


@dataclass(frozen=True)
class Let:
    name: str
    expr: "Pipe"


@dataclass(frozen=True)
class ExprStmt:
    expr: "Pipe"


@dataclass(frozen=True)
class Program:
    statements: tuple

    @property
    def fact_decls(self) -> tuple:
        return tuple(st for st in self.statements if isinstance(st, Fact))


# ---------------------------------------------------------------------------
# tokenizer

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# the two call values that are not ids
_BOOLEANS = {"true": True, "false": False}
_INT = r"-?\d+"

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<pipe>\|>)
  | (?P<int>{_INT})
  | (?P<ident>{_IDENT})
  | (?P<cmp>(<=|>=|==|<|>|=))
  | (?P<punct>[(),\[\]*])
    """,
    re.VERBOSE,
)

# A whole ``fact(s, r, o, t0, t1)`` line, built from the tokenizer's classes:
# a line it matches parses to the declaration the general parser would give,
# and every other line goes through _tokenize and _LineParser.
_FACT_LINE_RE = re.compile(
    rf"\s*fact\s*\(\s*({_IDENT})\s*,\s*({_IDENT})\s*,\s*({_IDENT})\s*,\s*({_INT})\s*,\s*({_INT})\s*\)\s*"
)


@dataclass
class _Tok:
    kind: str  # pipe | int | ident | cmp | punct | eol
    text: str
    col: int


def _tokenize(line: str, line_no: int) -> list[_Tok]:
    toks = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise DslSyntaxError(f"unexpected character {line[pos]!r}", line_no, pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            toks.append(_Tok(kind, m.group(), pos + 1))
        pos = m.end()
    toks.append(_Tok("eol", "", len(line) + 1))
    return toks


# ---------------------------------------------------------------------------
# parser

STAGE_ARITIES = {
    "sort": 2,
    "filter_at": 1,
    "filter_overlap": 2,
    "filter_within": 2,
    "filter_dur": 2,
    "count": 0,
    "objects": 0,
    "subjects": 0,
    "durations": 0,
    "merge_total": 0,
}

_KEYWORDS = {"fact", "facts", "let", "call"}

MAX_VALUE_DEPTH = 32  # nesting of (...) and [...] in call arguments


class _LineParser:
    def __init__(self, toks: list[_Tok], line_no: int, known_vars: set[str], share):
        self.toks = toks
        self.i = 0
        self.line_no = line_no
        self.vars = known_vars
        self.share = share

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise DslSyntaxError(message, self.line_no, tok.col)

    def at(self, text: str) -> bool:
        """Whether the next token is the punctuation ``text``."""
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            self.fail(f"expected {want!r}, found {tok.text or 'end of line'!r}")
        return self.next()

    def items(self, item, close: str, empty: bool = True) -> list:
        """Comma-separated ``item()`` values up to the punctuation ``close``, which is consumed.

        Unless ``empty``, a first item is read even at ``close``, so an empty
        list fails as that item does.
        """
        items = []
        if not (empty and self.at(close)):
            items.append(item())
            while self.at(","):
                self.next()
                items.append(item())
        self.expect("punct", close)
        return items

    def integer(self) -> int:
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            self.fail(f"integer literal of {len(tok.text)} characters is too long", tok)

    # -- statements --------------------------------------------------------

    def statement(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "fact":
            return self.fact_decl()
        if tok.kind == "ident" and tok.text == "let":
            return self.let_binding()
        return ExprStmt(self.expression())

    def fact_decl(self) -> Fact:
        self.expect("ident", "fact")
        self.expect("punct", "(")
        s = self.expect("ident").text
        self.expect("punct", ",")
        r = self.expect("ident").text
        self.expect("punct", ",")
        o = self.expect("ident").text
        self.expect("punct", ",")
        t0 = self.integer()
        self.expect("punct", ",")
        t1 = self.integer()
        self.expect("punct", ")")
        self.expect("eol")
        return _shared_fact(self.share, s, r, o, t0, t1)

    def let_binding(self) -> Let:
        self.expect("ident", "let")
        name_tok = self.expect("ident")
        if name_tok.text in _KEYWORDS:
            self.fail(f"{name_tok.text!r} is a reserved word", name_tok)
        self.expect("cmp", "=")
        expr = self.expression()
        self.vars.add(name_tok.text)
        return Let(name_tok.text, expr)

    def expression(self) -> Pipe:
        head = self.unit()
        stages = []
        while self.peek().kind == "pipe":
            self.next()
            stages.append(self.stage())
        self.expect("eol")
        return Pipe(head, tuple(stages))

    def unit(self):
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected an expression, found {tok.text or 'end of line'!r}")
        if tok.text == "facts":
            return self.source()
        if tok.text == "call":
            return self.call()
        name = self.next()
        if name.text not in self.vars:
            raise UnknownIdentifierError(name.text, self.line_no, name.col)
        return Var(name.text)

    def source(self) -> Source:
        self.expect("ident", "facts")
        self.expect("punct", "(")
        parts = []
        for i in range(3):
            if self.at("*"):
                self.next()
                parts.append(None)
            elif self.peek().kind == "ident":
                parts.append(self.next().text)
            else:
                self.fail("expected an id or '*'")
            if i < 2:
                self.expect("punct", ",")
        if not self.at(")"):
            raise ArityError("facts takes exactly 3 arguments", self.line_no, self.peek().col)
        self.next()
        return Source(*parts)

    def stage(self) -> Stage:
        name_tok = self.expect("ident")
        name = name_tok.text
        if name not in STAGE_ARITIES:
            raise UnknownIdentifierError(name, self.line_no, name_tok.col)
        args: list = []
        if self.at("("):
            self.next()
            args = self.items(self.stage_arg, ")")
        if len(args) != STAGE_ARITIES[name]:
            raise ArityError(
                f"{name} takes {STAGE_ARITIES[name]} argument(s), got {len(args)}",
                self.line_no,
                name_tok.col,
            )
        return Stage(name, tuple(args))

    def stage_arg(self) -> int | str:
        tok = self.peek()
        if tok.kind == "int":
            return self.integer()
        if tok.kind in ("ident", "cmp"):
            return self.next().text
        self.fail(f"bad stage argument {tok.text!r}")

    def call(self) -> Call:
        self.expect("ident", "call")
        name_tok = self.expect("ident")
        if name_tok.text not in function_names():
            raise UnknownIdentifierError(name_tok.text, self.line_no, name_tok.col)
        self.expect("punct", "(")
        return Call(name_tok.text, tuple(self.items(self.value, ")")))

    def value(self, depth: int = 0) -> bool | int | str | list:
        """A call value as the JSON value it stands for; ``*`` is the string "*"."""
        if depth > MAX_VALUE_DEPTH:
            self.fail(f"values nest deeper than {MAX_VALUE_DEPTH} levels")
        tok = self.peek()
        if tok.kind == "int":
            return self.integer()
        if tok.kind == "ident" and tok.text in _BOOLEANS:
            return _BOOLEANS[self.next().text]
        if tok.kind in ("ident", "cmp") or self.at("*"):
            return self.next().text
        if self.at("(") or self.at("["):
            self.next()
            close = ")" if tok.text == "(" else "]"
            # an empty () fails as a bad value; an empty [] is an empty list
            return self.items(lambda: self.value(depth + 1), close, empty=close == "]")
        self.fail(f"bad value {tok.text or 'end of line'!r}")


def _shared_fact(share, s: str, r: str, o: str, t0: int, t1: int) -> Fact:
    """The declared fact from ``share``'s object for each value; tuple.__new__ skips Fact's Python-level __new__."""
    return tuple.__new__(Fact, (share(s, s), share(r, r), share(o, o), share(t0, t0), share(t1, t1)))


def parse(source: str) -> Program:
    """Parse tqdsl source; raises on the first error with line/column.

    A ``fact(...)`` line takes a one-regex fast path; it gives the same
    declaration, and any line it does not match the same error, as the
    general line parser.  A matched line whose time is too long for int()
    also goes to the general parser, which reports it.  Both paths build each
    declaration from the parse's one object per distinct name and year.
    """
    statements = []
    append = statements.append
    known_vars: set[str] = set()
    share = {}.setdefault
    last_line = 0
    lines = source.splitlines()
    for line_no, (line, m) in enumerate(zip(lines, map(_FACT_LINE_RE.fullmatch, lines)), start=1):
        if m is not None:
            s, r, o, t0, t1 = m.groups()
            try:
                append(_shared_fact(share, s, r, o, int(t0), int(t1)))
            except ValueError:
                pass
            else:
                last_line = line_no
                continue
        if not line.strip():
            continue
        append(_LineParser(_tokenize(line, line_no), line_no, known_vars, share).statement())
        last_line = line_no
    if not statements:
        raise DslSyntaxError("empty program", max(last_line, 1), 1)
    if not isinstance(statements[-1], ExprStmt):
        raise DslSyntaxError("program must end with an expression", last_line, 1)
    return Program(tuple(statements))


# ---------------------------------------------------------------------------
# interpreter


@dataclass(frozen=True)
class Limits:
    max_steps: int = 500_000
    max_facts: int = 100_000


@dataclass(frozen=True)
class ErrorValue:
    """A solver domain error surfaced as a program value."""

    error: str
    message: str


@dataclass
class ExecutionResult:
    value: object
    graph: TKG
    steps: int = 0


class _FactList(list):
    type_name = "fact_list"


class _EntityList(list):
    type_name = "entity_list"


class _IntList(list):
    type_name = "int_list"


_SOLVER_DOMAIN_ERRORS = (
    NoMatchingFactsError,
    AmbiguousEpisodeError,
    OccurrenceOutOfRangeError,
    ArgumentTypeError,
)


class _Interpreter:
    def __init__(self, graph: TKG, limits: Limits):
        self.graph = graph
        self.limits = limits
        self.steps = 0
        self.env: dict[str, object] = {}

    def tick(self, cost: int = 1):
        self.steps += cost
        if self.steps > self.limits.max_steps:
            raise StepLimitExceededError(f"step budget {self.limits.max_steps} exceeded")

    def query(self, s: str | None = None, r: str | None = None, o: str | None = None) -> list[Fact]:
        """The graph's query, charged 1 + the graph's size, the most it can scan, before it runs."""
        self.tick(1 + len(self.graph))
        return self.graph.query(s, r, o)

    def eval_expr(self, expr: Pipe):
        value = self.eval_unit(expr.head)
        for stage in expr.stages:
            if isinstance(value, ErrorValue):
                return value  # short-circuit past remaining stages
            value = self.eval_stage(stage, value)
        return value

    def eval_unit(self, unit):
        self.tick()
        if isinstance(unit, Source):
            return _FactList(self.query(unit.s, unit.r, unit.o))
        if isinstance(unit, Var):
            return self.env[unit.name]
        if isinstance(unit, Call):
            return self.eval_call(unit)
        raise TypeError(unit)

    def eval_call(self, call: Call):
        spec = function_spec(call.func)
        params = spec.use_guide
        if len(call.args) > len(params):
            raise RuntimeTypeError(
                f"{call.func} takes at most {len(params)} arguments, got {len(call.args)}"
            )
        # a top-level * leaves its parameter unset
        arguments = {param.name: value for param, value in zip(params, call.args) if value != "*"}
        try:
            return dispatch(self, FunctionCall(call.func, arguments))  # solvers only call g.query
        except _SOLVER_DOMAIN_ERRORS as exc:
            return ErrorValue(type(exc).__name__, str(exc))

    def eval_stage(self, stage: Stage, value):
        name = stage.name
        if not isinstance(value, _FactList):
            raise RuntimeTypeError(f"{name} expects a fact list, got {_type_name(value)}")
        self.tick(1 + len(value))
        if name == "sort":
            endpoint, order = stage.args
            if endpoint not in ("start", "end") or order not in ("asc", "desc"):
                raise RuntimeTypeError(f"sort arguments must be (start|end, asc|desc)")
            return _FactList(sort_facts(value, endpoint=endpoint, descending=order == "desc"))
        if name == "filter_at":
            t = _int_arg(stage, 0)
            return _FactList(f for f in value if f.interval.contains_point(t))
        if name == "filter_overlap":
            w = Interval(_int_arg(stage, 0), _int_arg(stage, 1))
            return _FactList(f for f in value if f.interval.overlaps(w))
        if name == "filter_within":
            w = Interval(_int_arg(stage, 0), _int_arg(stage, 1))
            return _FactList(f for f in value if f.interval.within(w))
        if name == "filter_dur":
            try:
                pred = DurationPredicate(stage.args[0], _int_arg(stage, 1))
            except ValueError as exc:
                raise RuntimeTypeError(str(exc)) from exc
            return _FactList(f for f in value if pred.matches(f.duration))
        if name == "count":
            return len(value)
        if name == "objects":
            return _EntityList(f.o for f in value)
        if name == "subjects":
            return _EntityList(f.s for f in value)
        if name == "durations":
            return _IntList(f.duration for f in value)
        if name == "merge_total":
            _, total = merge_intervals(f.interval for f in value)
            return total
        raise RuntimeTypeError(f"unknown stage {name!r}")


def _type_name(value) -> str:
    if isinstance(value, Answer):
        return f"answer:{value.kind}"
    if isinstance(value, ErrorValue):
        return f"error:{value.error}"
    return getattr(value, "type_name", type(value).__name__)


def _int_arg(stage: Stage, index: int) -> int:
    arg = stage.args[index]
    if not isinstance(arg, int):
        raise RuntimeTypeError(f"{stage.name} argument {index + 1} must be an integer")
    return arg


def execute(program: Program, g: TKG | None = None, limits: Limits | None = None) -> ExecutionResult:
    """Run a program under resource limits.

    Programs with fact declarations build their own graph and must not be
    given one; all other programs require ``g``.  ``max_facts`` bounds the
    fact declarations and ``max_steps`` the work of every other statement,
    priced as the module docstring says; ``steps`` in the result is that work.
    """
    limits = limits or Limits()
    decls = program.fact_decls
    if decls and g is not None:
        raise RuntimeTypeError("program declares facts; do not pass a graph")
    if not decls and g is None:
        raise RuntimeTypeError("program declares no facts; a graph is required")
    if len(decls) > limits.max_facts:
        raise FactLimitExceededError(f"fact budget {limits.max_facts} exceeded ({len(decls)} declared)")
    if decls:
        g = TKG(decls)
    assert g is not None
    interp = _Interpreter(g, limits)
    result: object = None
    for st in program.statements:
        if isinstance(st, Fact):
            continue
        if isinstance(st, Let):
            interp.env[st.name] = interp.eval_expr(st.expr)
        else:
            result = interp.eval_expr(st.expr)
    return ExecutionResult(value=result, graph=g, steps=interp.steps)


_FENCE_OPEN_RE = re.compile(r"```tqdsl\s*\n")


def extract_fenced_source(reply: str) -> str | None:
    """First fenced block tagged ``tqdsl`` in an LLM reply, or None.

    The block runs from the opening line to the next ```; the whitespace
    after an opening holds no backtick, so when the first opening has no
    closing fence, no later one has either.
    """
    m = _FENCE_OPEN_RE.search(reply)
    if m is None:
        return None
    end = reply.find("```", m.end())
    return reply[m.end():end] if end >= 0 else None
