"""LLM pipeline engine: eight prompting techniques over a pluggable chat client.

Techniques: ``direct`` (single prompt), ``cot`` (three-prompt chain), ``tot``
(tree search with the model scoring its own reasoning states), ``cotr`` (the
chain plus a self-review loop gated on the sentinel ``repeat_please``),
``cote``/``cote_s`` (the model writes a tqdsl program, executed in the
sandbox) and ``cotapi``/``cotapi_s`` (the model picks a registered solver
function from the schema bundle, which is then dispatched).  The ``_s``
variants receive only the semi-structured text and must first restate the
facts as tqdsl declarations; their non-``_s`` counterparts work against the
already structured graph and see only a small fact excerpt.

Prompt templates live in ``prompts/`` next to this module and are plain
``str.format`` text files; each model call is a step named after its template.
Clients only need a ``complete(messages, *, model, temperature, max_tokens,
step) -> str`` method; mocks make every pipeline fully deterministic and
offline, and the oracle and random mocks answer by step, whatever the wording.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import logging
import math
import random
import re
import string
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

from .answers import Answer, FunctionCall
from .dsl import ErrorValue, Program, execute, extract_fenced_source, parse
from .errors import (
    AnswerParseError,
    ArgumentTypeError,
    ClientError,
    DslError,
    ScriptExhaustedError,
    TkgqaError,
    UnknownFunctionError,
)
from .generator import TaskInstance, subseed
from .graph import TKG, sentences
from .solvers import dispatch, function_names, function_spec, schema_bundle

logger = logging.getLogger(__name__)

__all__ = [
    "TECHNIQUES",
    "PipelineConfig",
    "PipelineResult",
    "ChatClient",
    "ScriptedMockClient",
    "OracleMockClient",
    "RandomFunctionMockClient",
    "LiveChatClient",
    "make_mock_client",
    "Memo",
    "warm_caches",
    "run",
    "expand_transcripts",
    "extract_answer",
    "coerce_answer",
    "select_function",
    "temporal_confidence",
]

REFLEXION_SENTINEL = "repeat_please"
EXCERPT_FACTS = 5  # lines of fact text shown to techniques that do not see the full text
MAX_REFLEXIONS = 3
TOT_DEPTH = 2
TOT_BEAM = 2
TOT_BRANCH = 3

_PROMPTS_DIR = Path(__file__).parent / "prompts"


@functools.cache
def _template(name: str, prompts_dir: Path | None = None) -> list[tuple[str, str | None]]:
    """The ``name`` template's pieces (:func:`_split_template`), read and split once."""
    base = Path(prompts_dir) if prompts_dir is not None else _PROMPTS_DIR
    return _split_template((base / f"{name}.txt").read_text(encoding="utf-8").strip())


def _split_template(template: str) -> list[tuple[str, str | None]]:
    """``template`` as (literal text, replacement field) pieces, for :func:`_fill`.

    A field is kept as a format string of that field alone, and the literal
    text with its ``{{`` and ``}}`` unescaped.  A template that does not parse
    raises ``ValueError`` here.
    """
    pieces = []
    for literal, name, spec, conversion in string.Formatter().parse(template):
        if name is not None:
            name = "{" + name + ("" if conversion is None else "!" + conversion) + ":" + spec + "}"
        pieces.append((literal, name))
    return pieces


class _Filled(list):
    """A filled template's pieces: :func:`_fill` splices them into a field that names them alone; others format their join."""

    def __str__(self) -> str:
        return "".join(self)

    def __repr__(self) -> str:
        return repr(str(self))

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)


def _fill(pieces: list[tuple[str, str | None]], fields: dict) -> _Filled:
    """``template.format(**fields)`` of the template split into ``pieces``, as the strings that join to it.

    A string field with no conversion or spec formats to that very string, and a field that names a
    filled template alone adds its pieces, so no field's text is copied.  Each field raises what
    ``str.format`` raises for it, in the same order: ``{}`` and ``{0}`` raise ``IndexError``.
    """
    out = _Filled()
    for literal, field in pieces:
        out.append(literal)
        if field is not None:
            value = fields.get(field[1:-2])  # the value of a field that is a name alone, kept as "{name:}"
            out += value if isinstance(value, _Filled) else [field.format(**fields)]
    return out


_ANSWER_HINTS = {
    "entity": "The 'answer' field must be a single entity id.",
    "entity_list": "The 'answer' field must be a JSON array of entity ids, in the required order.",
    "boolean": "The 'answer' field must be true or false.",
    "count": "The 'answer' field must be an integer count.",
    "duration": "The 'answer' field must be an integer number of years.",
    "time_point": "The 'answer' field must be an integer year.",
    "time_interval": "The 'answer' field must be a JSON array [start_year, end_year].",
}


@dataclass
class PipelineConfig:
    model: str = "mock"
    temperature: float = 0.0
    max_tokens: int = 1024
    prompts_dir: Path | None = None


@dataclass
class PipelineResult:
    technique: str
    instance_id: str
    answer: Answer | None = None
    raw_answer: object = None
    explanation: str = ""
    transcript: list = field(default_factory=list)  # ordered {step, prompt, reply} turns; prompts as _stored_prompt makes them
    wall_time: float = 0.0
    function_calls: list = field(default_factory=list)  # (FunctionCall, associated)
    reflexions: int = 0
    errors: list = field(default_factory=list)

    @property
    def llm_calls(self) -> int:
        """The model calls made, each recorded as one turn as soon as the model replies."""
        return len(self.transcript)

    @property
    def parse_error(self) -> bool:
        """Whether the run ended without an answer: :func:`_finish` sets one only when nothing failed."""
        return self.answer is None

    def transcript_record(self, stored: dict[bytes, tuple[int, ...]], line: int) -> dict:
        """This result's line of a transcripts file (timings deliberately excluded).

        ``line`` is the line's index in the file, and ``stored`` maps the
        sha256 of each string the file already holds in full to where it
        stands; the record adds its own.  Each prompt is written as the turn
        holds it, its pieces with ``None`` for each copy of the rendered text
        (:func:`_stored_prompt`), and each other piece, then the reply,
        becomes a reference to a copy held earlier when that is shorter
        (:func:`_stored`); :func:`expand_transcripts` undoes both.
        """
        return {
            "instance_id": self.instance_id,
            "technique": self.technique,
            "llm_calls": self.llm_calls,
            "transcript": [
                {
                    **turn,
                    "prompt": [piece if piece is None else _stored(piece, stored, (line, index, k))
                               for k, piece in enumerate(turn["prompt"])],
                    "reply": _stored(turn["reply"], stored, (line, index)),
                }
                for index, turn in enumerate(self.transcript)
            ],
            "answer": self.answer.to_json() if self.answer is not None else None,
            "raw_answer": self.raw_answer if isinstance(self.raw_answer, (str, int, float, bool, list, type(None))) else str(self.raw_answer),
            "explanation": self.explanation,
            "function_calls": [[c.to_json(), assoc] for c, assoc in self.function_calls],
            "reflexions": self.reflexions,
            "errors": self.errors,
            "parse_error": self.parse_error,
        }


def _stored_prompt(pieces: list[str], text: str) -> list[str | None]:
    """The ``pieces`` a prompt joins from, with ``None`` for each copy of the instance's ``text`` that is a
    piece or lies in one: a piece that is ``text`` is known by identity, and only another that could hold a
    copy is searched, cut as ``str.split`` cuts it.  A copy that spans two pieces, as an echo in a field can,
    stays where it is."""
    stored = []
    for piece in pieces:
        if not text or len(piece) < len(text):
            stored.append(piece)
        elif piece is text:
            stored.append(None)
        else:
            first, *rest = piece.split(text)
            stored.append(first)
            for cut in rest:
                stored += (None, cut)
    return stored


def _stored(value: str, stored: dict[bytes, tuple[int, ...]], where: tuple[int, ...]) -> str | tuple[int, ...]:
    """``value`` as a transcripts line stores it: the string, or where the file first held it when that is shorter.

    ``where`` is ``(line, turn)`` for a reply and ``(line, turn, k)`` for a
    prompt's ``k``-th piece.  ``len(value) + 2`` is the least a string's JSON
    encoding can take, and a tuple of ints has the length of its JSON array.
    """
    digest = hashlib.sha256(value.encode("utf-8", "surrogatepass")).digest()
    earlier = stored.setdefault(digest, where)
    if earlier != where and len(repr(earlier)) < len(value) + 2:
        return earlier
    return value


class ChatClient(Protocol):
    def complete(self, messages: list[dict], *, model: str, temperature: float, max_tokens: int, step: str) -> str:
        ...


# ---------------------------------------------------------------------------
# clients


class ScriptedMockClient:
    """Deterministic canned replies: an ordered list or a pattern -> reply map.

    Pattern mode matches substrings against the latest user message, in map
    order; an empty-string pattern therefore works as a catch-all when placed
    last.  Raises :class:`ScriptExhaustedError` when nothing is left to say.
    """

    def __init__(self, script: list[str] | dict[str, str]):
        if isinstance(script, dict):
            self._patterns: dict[str, str] | None = dict(script)
            self._replies: list[str] | None = None
            strings = [*self._patterns, *self._patterns.values()]
        else:
            self._patterns = None
            self._replies = strings = list(script)
        if not all(isinstance(x, str) for x in strings):
            raise ClientError("mock script replies and patterns must be strings")
        self._cursor = 0

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedMockClient":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep for the decoder
            raise ClientError(f"mock script is not valid JSON: {path}: {exc}") from None
        if not isinstance(obj, (list, dict)):
            raise ClientError(f"mock script must be a JSON array or object: {path}")
        return cls(obj)

    def complete(self, messages, *, model="mock", temperature=0.0, max_tokens=0, step="") -> str:
        if self._replies is not None:
            if self._cursor >= len(self._replies):
                raise ScriptExhaustedError(f"mock script exhausted after {self._cursor} replies")
            reply = self._replies[self._cursor]
            self._cursor += 1
            return reply
        prompt = messages[-1]["content"] if messages else ""
        assert self._patterns is not None
        for pattern, reply in self._patterns.items():
            if pattern in prompt:
                return reply
        raise ScriptExhaustedError("no mock pattern matches the prompt")


def _json_fence(obj) -> str:
    return "```json\n" + json.dumps(obj) + "\n```"


def _dsl_fence(source: str) -> str:
    return "```tqdsl\n" + source + "\n```"


def _render_dsl_value(value, brackets: str = "[]") -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, (list, tuple)):
        inner = ", ".join(_render_dsl_value(v) for v in value)
        return f"{brackets[0]}{inner}{brackets[1]}"
    raise ValueError(f"cannot render {value!r} in tqdsl")


def call_to_dsl(call: FunctionCall) -> str:
    """Render a function call as a `call name(...)` program line (schema arg order).

    Triplets and steps are written as tuples, other lists in brackets; the
    parser reads both the same.
    """
    params = function_spec(call.name).use_guide
    upto = max((i + 1 for i, p in enumerate(params) if p.name in call.arguments), default=0)
    rendered = []
    for param in params[:upto]:
        value = call.arguments.get(param.name)
        if value is None:
            rendered.append("*")
        elif param.type == "triplet":
            rendered.append(_render_dsl_value(value, "()"))
        elif param.type == "steps":
            rendered.append("[" + ", ".join(_render_dsl_value(step, "()") for step in value) + "]")
        else:
            rendered.append(_render_dsl_value(value))
    return f"call {call.name}({', '.join(rendered)})"


def _structuring_program(g: TKG) -> str:
    lines = [f"fact({f.s}, {f.r}, {f.o}, {f.t0}, {f.t1})" for f in g.facts]
    lines.append("facts(*, *, *) |> count")
    return "\n".join(lines)


def _structure_fence(g: TKG) -> str:
    return _dsl_fence(_structuring_program(g))


class Memo:
    """The work keyed on data that the jobs of one eval share, each piece done once.

    Jobs that get the same structuring reply (every mock run, whose instances
    share one graph) share the graph it builds, which no solve program can
    change: execute refuses a program that declares facts when it is given a
    graph.  The oracle's structure_data reply is built once per graph, and as
    one string object it hashes once as a key of the first kind.  Threads may
    share a memo.
    """

    SIZE = 2  # entries kept of each kind, as each may hold a whole graph

    def __init__(self):
        self._lock = threading.Lock()
        self._restated: dict[str, TKG | str] = {}
        self._fences: dict[TKG, str] = {}

    def restated(self, reply: str) -> TKG | str:
        """The graph a structuring reply's program builds, or why it builds none."""
        return self._recall(self._restated, reply, _restate)

    def structure_fence(self, g: TKG) -> str:
        """The oracle's structure_data reply over ``g``."""
        return self._recall(self._fences, g, _structure_fence)

    def _recall(self, entries: dict, key, make):
        with self._lock:  # the least recently used entry goes first
            value = entries[key] = entries.pop(key) if key in entries else make(key)
            if len(entries) > self.SIZE:
                del entries[next(iter(entries))]
            return value


class OracleMockClient:
    """Per-instance mock that always behaves perfectly.

    Replies by step, through ``ROUTES``: it emits the instance's canonical
    call when asked to select a function, restates the graph when asked to
    structure data, echoes the dispatched function result, and answers with
    the gold value otherwise.  Used to verify end-to-end plumbing: a pipeline
    wired correctly must score 100%, whatever its prompts say.  Confidence
    runs need no instance.
    """

    # step -> reply method; every step the pipelines ask is listed, with no fallback
    ROUTES = {
        **dict.fromkeys(
            ("direct", "cot_1", "cot_2", "cot_3", "cotr_3", "cotr_reflect", "tot_initial", "tot_final", "exec_analyze"),
            "_gold_reply",
        ),
        "tot_expand": "_options_reply",
        "tot_evaluate": "_judge_reply",
        "structure_data": "_structure_reply",
        "exec_solve": "_program_reply",
        "api_select": "_select_reply",
        "api_final": "_result_reply",
        "confidence": "_confidence_reply",
    }

    def __init__(self, instance: TaskInstance | None, memo: Memo | None = None):
        self.instance = instance
        self.memo = memo or Memo()

    def complete(self, messages, *, model="mock", temperature=0.0, max_tokens=0, step: str) -> str:
        return getattr(self, self.ROUTES[step])(messages[-1]["content"])

    def _gold_reply(self, prompt: str) -> str:
        return _json_fence(
            {"explanation": "computed from the data", "answer": self.instance.gold.to_json()["value"]}
        )

    def _options_reply(self, prompt: str) -> str:
        return _json_fence(
            {
                "Option1": "locate the facts matching the question pattern",
                "Option2": "order the matching facts by their start years",
                "Option3": "apply the question's temporal condition to the ordered facts",
            }
        )

    def _judge_reply(self, prompt: str) -> str:
        return _json_fence({"score": 7})

    def _structure_reply(self, prompt: str) -> str:
        return self.memo.structure_fence(self.instance.tkg)

    def _program_reply(self, prompt: str) -> str:
        return _dsl_fence(call_to_dsl(self.instance.canonical_call))

    def _select_reply(self, prompt: str) -> str:
        return _json_fence(self.instance.canonical_call.to_json())

    def _result_reply(self, prompt: str) -> str:
        """Echo the value of the function results, the first JSON object of the prompt."""
        obj = _reply_json(prompt)
        if isinstance(obj, dict) and isinstance(obj.get("result"), dict) and "value" in obj["result"]:
            value = obj["result"]["value"]
        else:
            value = "unknown"  # the call failed; answer from its error would be a guess
        return _json_fence({"explanation": "from the function result", "answer": value})

    def _confidence_reply(self, prompt: str) -> str:
        return _json_fence({"score": 1.0})


_FIRST_FACT_ARGUMENTS = {
    "entity": lambda f: f.s,
    "relation": lambda f: f.r,
    "integer": lambda f: f.t0,
    "interval": lambda f: [f.t0, f.t1],
    "triplet": lambda f: [f.s, f.r, f.o],
    "steps": lambda f: [[f.r, "start"]],
}


class RandomFunctionMockClient(OracleMockClient):
    """Like the oracle mock, but picks a uniformly random function when asked
    to select one.  Deterministic per (seed, instance id)."""

    def __init__(self, instance: TaskInstance | None, seed: int = 0, memo: Memo | None = None):
        super().__init__(instance, memo)
        self._rng = random.Random(subseed(seed, f"mock:{instance.id if instance else ''}"))

    def _select_reply(self, prompt: str) -> str:
        """A random function, with the canonical call's arguments where it shares
        them and the first fact's fields for the other required ones; on an empty
        graph those are left out, and the call fails in selection or dispatch."""
        name = self._rng.choice(function_names())
        spec = function_spec(name)
        canonical = self.instance.canonical_call.arguments
        facts = self.instance.tkg.facts
        arguments = {}
        for param in spec.use_guide:
            if param.name in canonical:
                arguments[param.name] = canonical[param.name]
            elif param.required and param.type == "choice":
                arguments[param.name] = (param.choices or ("",))[0]
            elif param.required and facts and param.type in _FIRST_FACT_ARGUMENTS:
                arguments[param.name] = _FIRST_FACT_ARGUMENTS[param.type](facts[0])
        return _json_fence({"name": name, "arguments": arguments})


RETRY_AFTER_CAP = 60  # seconds: the longest wait a Retry-After header is honoured for


def _retry_after(resp) -> int | None:
    """The wait a 429 or 503 response asks for in delta-seconds, capped; None otherwise."""
    if resp.status_code not in (429, 503):
        return None
    value = resp.headers.get("Retry-After", "").strip()
    return min(int(value), RETRY_AFTER_CAP) if value.isascii() and value.isdigit() else None


class LiveChatClient:
    """Minimal chat-completions HTTP client with retries and pacing.

    The API key comes from the environment only.  Requests are paced by a
    minimum-interval token bucket; how many run at once is the caller's
    worker count (``eval --parallelism``).  Before a retry it waits as long as
    a 429 or 503 response's ``Retry-After`` asks, up to ``RETRY_AFTER_CAP``
    seconds, and otherwise backs off exponentially.
    """

    def __init__(
        self,
        base_url: str,
        api_key: str,
        *,
        timeout: float = 120.0,
        max_retries: int = 4,
        requests_per_second: float = 2.0,
    ):
        if not api_key:
            raise ClientError("API key is empty; set it in the environment before running")
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        self.max_retries = max_retries
        self._min_interval = 1.0 / requests_per_second if requests_per_second > 0 else 0.0
        self._next_allowed = 0.0
        self._pace_lock = threading.Lock()

    def _pace(self) -> None:
        with self._pace_lock:
            now = time.monotonic()
            wait = self._next_allowed - now
            self._next_allowed = max(now, self._next_allowed) + self._min_interval
        if wait > 0:
            time.sleep(wait)

    def complete(self, messages, *, model, temperature=0.0, max_tokens=1024, step="") -> str:
        import requests

        payload = {
            "model": model,
            "messages": messages,
            "temperature": temperature,
            "max_tokens": max_tokens,
        }
        last_error: Exception | None = None
        wait: int | None = None  # what the last response asked for
        for attempt in range(self.max_retries):
            if attempt:  # between attempts only
                time.sleep(min(2 ** (attempt - 1), 8) if wait is None else wait)
                wait = None
            self._pace()
            try:
                resp = requests.post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers={"Authorization": f"Bearer {self.api_key}"},
                    timeout=self.timeout,
                )
            except requests.RequestException as exc:
                last_error = exc
            else:
                if resp.status_code == 200:
                    try:
                        content = resp.json()["choices"][0]["message"]["content"]
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        raise ClientError(f"malformed completion response: {exc!r}") from exc
                    if not isinstance(content, str):  # null for a refusal or a tool call
                        raise ClientError(f"completion content is {type(content).__name__}, not text")
                    return content
                if resp.status_code not in (429, 500, 502, 503, 504):
                    raise ClientError(f"HTTP {resp.status_code}: {resp.text[:500]}")
                wait = _retry_after(resp)
                last_error = ClientError(f"HTTP {resp.status_code}")
        raise ClientError(f"request failed after {self.max_retries} attempts: {last_error}")


def make_mock_client(kind: str, instance: TaskInstance | None = None, seed: int = 0, memo: Memo | None = None):
    """Build the per-run mock named by `kind`: 'oracle', 'random', or a script path (no instance for confidence).

    The oracle and random mocks build their structure_data reply through
    ``memo``, the one their jobs share, or a fresh one.
    """
    if kind == "oracle":
        return OracleMockClient(instance, memo)
    if kind == "random":
        return RandomFunctionMockClient(instance, seed, memo)
    return ScriptedMockClient.from_file(kind)


# ---------------------------------------------------------------------------
# reply parsing

_JSON_FENCE_RE = re.compile(r"```json\s*\n(.*?)```", re.DOTALL)


# A brace, or a quote after an even run of backslashes: the only quotes that
# can open or close a JSON string.
_BRACE_OR_QUOTE_RE = re.compile(r'[{}]|(?<!\\)(?:\\\\)*"')


def _first_json_object(text: str) -> dict | None:
    """What ``raw_decode`` finds at the first ``{`` of ``text`` where it succeeds.

    Within an object, a brace is outside every string exactly when the
    unescaped quotes before it and those before the object's ``{`` are
    equal in number mod 2, so one pass matches the braces of each parity.
    The decoder is then handed spans, not the whole text: a failed decode
    counts lines back to the start of what it is given.  A span ends just
    after a brace of the object's parity, where a decode cut short fails at
    the very end, and only then is a span twice as long tried, up to the
    ``}`` that closes the ``{``.  A ``{`` that nothing closes is never
    decoded, nor one nested in a failed decode and still open where it
    failed, since its own decode fails there too.
    """
    braces: tuple[list[int], list[int]] = ([], [])  # positions, by the parity of the quotes before them
    unclosed: tuple[list[int], list[int]] = ([], [])
    parity, closer = {}, {}
    quotes = 0
    for m in _BRACE_OR_QUOTE_RE.finditer(text):
        if text[m.end() - 1] == '"':
            quotes += 1
            continue
        side, at = quotes % 2, m.start()
        braces[side].append(at)
        if text[at] == "{":
            parity[at] = side
            unclosed[side].append(at)
        elif unclosed[side]:
            closer[unclosed[side].pop()] = at
    decoder = json.JSONDecoder()
    failed_at = [-1, -1]  # by parity, where the last failed decode stopped
    for start, side in parity.items():  # every ``{``, in order
        close = closer.get(start)
        if close is None or start < failed_at[side] <= close:
            continue
        anchors = braces[side]
        last = bisect.bisect_left(anchors, close)
        i = bisect.bisect_right(anchors, start)
        while True:
            end = anchors[i] + 1
            try:
                obj, _ = decoder.raw_decode(text[start:end])
            except ValueError as exc:  # not JSON, or an integer too long for int()
                pos = getattr(exc, "pos", None)
                if pos == end - start and i < last:
                    i = min(bisect.bisect_left(anchors, start + 2 * (end - start), i + 1), last)
                    continue
                if pos is not None:
                    failed_at[side] = start + pos
                break
            return obj
    return None


def _reply_json(reply: str) -> dict | None:
    """The first JSON object of a reply, or None; the one JSON path for replies."""
    try:
        for block in _JSON_FENCE_RE.findall(reply):
            try:
                obj = json.loads(block)
            except ValueError:  # not JSON, or an integer too long for int()
                obj = _first_json_object(block)
            if isinstance(obj, dict):
                return obj
        return _first_json_object(reply)
    except RecursionError:  # nesting too deep for the decoder
        return None


def extract_answer(reply: str) -> tuple[str, object]:
    """(explanation, raw answer) from the first JSON block of a reply.

    Falls back to a bare JSON object when no fenced block parses; raises
    :class:`AnswerParseError` when the reply holds no usable JSON.
    """
    obj = _reply_json(reply)
    if obj is None or "answer" not in obj:
        raise AnswerParseError("reply contains no JSON object with an 'answer' field")
    return str(obj.get("explanation", "")), obj["answer"]


_TRUE_WORDS = {"true", "yes"}
_FALSE_WORDS = {"false", "no"}


def _coerce_int(value) -> int | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            return None
    return None


def coerce_answer(answer_type: str, raw) -> Answer | None:
    """Best-effort coercion of a reply value or tqdsl result to a tagged answer.

    An :class:`Answer` (a solver result) coerces only to its own kind.
    """
    if isinstance(raw, Answer):
        return raw if raw.kind == answer_type else None
    if answer_type == "entity":
        return Answer("entity", raw.strip()) if isinstance(raw, str) else None
    if answer_type == "entity_list":
        if isinstance(raw, str):
            raw = [raw]
        if isinstance(raw, (list, tuple)) and all(isinstance(v, str) for v in raw):
            return Answer("entity_list", [v.strip() for v in raw])
        return None
    if answer_type == "boolean":
        if isinstance(raw, bool):
            return Answer("boolean", raw)
        if isinstance(raw, str):
            word = raw.strip().lower()
            if word in _TRUE_WORDS:
                return Answer("boolean", True)
            if word in _FALSE_WORDS:
                return Answer("boolean", False)
        return None
    if answer_type in ("count", "duration", "time_point"):
        value = _coerce_int(raw)
        return Answer(answer_type, value) if value is not None else None
    if answer_type == "time_interval":
        if isinstance(raw, (list, tuple)) and len(raw) == 2:
            a, b = (_coerce_int(v) for v in raw)
            if a is not None and b is not None:
                return Answer("time_interval", (a, b))
    return None


def select_function(reply: str) -> FunctionCall:
    """Parse the function-call block of a reply into a validated call."""
    obj = _reply_json(reply)
    if obj is None:
        raise AnswerParseError("reply contains no JSON function call")
    name = obj.get("name") or obj.get("function")
    if not isinstance(name, str):
        raise AnswerParseError("function call is missing a 'name' field")
    if name not in function_names():
        raise UnknownFunctionError(name)
    arguments = obj.get("arguments", obj.get("parameters", {}))
    if not isinstance(arguments, dict):
        raise ArgumentTypeError("call 'arguments' must be an object")
    return FunctionCall(name, arguments)


# ---------------------------------------------------------------------------
# the pipeline runner


class _Chain:
    """One conversation, recorded turn by turn: the only caller of ``client.complete``.

    ``instance`` is the job's instance, whose rendered text the recorded
    prompts leave out (None for a chain that has no instance), and ``memo``
    the work the chain shares with other jobs.
    """

    def __init__(self, client, cfg: PipelineConfig, result: PipelineResult, instance: TaskInstance | None, memo: Memo | None = None):
        self.client = client
        self.cfg = cfg
        self.result = result
        self.instance = instance
        self.memo = memo
        self.messages: list[dict] = []

    def ask(self, step: str, *, fresh: bool = False, **fields) -> str:
        """Send the ``step`` template, filled with ``fields``; the reply.  Its pieces are joined once, into
        ``messages``, which a ``fresh`` ask clears first, and the turn records the prompt as the stored
        form of the same pieces (:func:`_stored_prompt`)."""
        if fresh:
            self.messages = []
        pieces = _fill(_template(step, self.cfg.prompts_dir), fields)
        self.messages.append({"role": "user", "content": "".join(pieces)})
        reply = self.client.complete(
            self.messages,
            model=self.cfg.model,
            temperature=self.cfg.temperature,
            max_tokens=self.cfg.max_tokens,
            step=step,
        )
        self.messages.append({"role": "assistant", "content": reply})
        self.result.transcript.append({"step": step, "prompt": _stored_prompt(pieces, self._text(pieces)), "reply": reply})
        return reply

    def _text(self, pieces: list[str]) -> str:
        """The instance's text to cut ``pieces`` around, or "" when none can hold it: only a piece at
        least as long as the text can, so an excerpt technique's text is rendered only for such a piece."""
        inst = self.instance
        if inst is not None and any(len(piece) >= inst.tkg.text_length(inst.render_seed) for piece in pieces):
            return inst.tkg_text
        return ""


def _excerpt(text: str) -> str:
    """The first EXCERPT_FACTS lines of ``text`` as ``str.splitlines`` splits them, joined by newlines."""
    return "\n".join(text.splitlines()[:EXCERPT_FACTS])


def _statement(instance: TaskInstance, full_text: bool, prompts_dir: Path | None) -> _Filled:
    # each sentence is a line or more and ends in ".", so the text's first lines lie in its first sentences
    head = itertools.islice(sentences(instance.tkg, seed=instance.render_seed), EXCERPT_FACTS)
    data = instance.tkg_text if full_text else _excerpt("\n".join(head))
    hint = _ANSWER_HINTS[instance.answer_type]
    fields = {"question": instance.question_text, "answer_hint": hint, "data": data}
    return _fill(_template("statement", prompts_dir), fields)


def _finish(result: PipelineResult, instance: TaskInstance, raw, explanation: str, error: str | None) -> None:
    """Record a run's outcome: the one place that sets its answer fields.

    ``raw`` is the reply value or program result; ``error`` says why there
    is no answer, otherwise ``raw`` is coerced to the instance's answer type.
    """
    result.raw_answer = raw.to_json()["value"] if isinstance(raw, Answer) else raw
    if error is None:
        result.explanation = explanation
        result.answer = coerce_answer(instance.answer_type, raw)
        if result.answer is None:
            error = f"could not coerce {result.raw_answer!r} to {instance.answer_type}"
    if error is not None:
        result.errors.append(error)


def _read_reply(reply: str) -> tuple[object, str, str | None]:
    """(raw answer, explanation, error) of a final reply."""
    try:
        explanation, raw = extract_answer(reply)
    except AnswerParseError as exc:
        return reply, "", str(exc)
    return raw, explanation, None


# Each runner takes (instance, chain, statement) and returns the outcome
# (raw answer, explanation, error) that _finish records.


def _run_direct(instance, chain, statement):
    return _read_reply(chain.ask("direct", task=statement))


def _cot_chain(chain, statement, solve: str) -> str:
    chain.ask("cot_1", task=statement)
    chain.ask("cot_2")
    return chain.ask(solve)


def _run_cot(instance, chain, statement):
    return _read_reply(_cot_chain(chain, statement, "cot_3"))


def _run_cotr(instance, chain, statement):
    final = _cot_chain(chain, statement, "cotr_3")
    for _ in range(MAX_REFLEXIONS):
        verdict = chain.ask("cotr_reflect")
        if REFLEXION_SENTINEL in verdict:
            chain.result.reflexions += 1
            continue
        final = verdict
        break
    return _read_reply(final)


def _parse_options(reply: str) -> list[str]:
    obj = _reply_json(reply)
    if isinstance(obj, dict):
        options = [str(obj[k]) for k in (f"Option{i}" for i in range(1, TOT_BRANCH + 1)) if k in obj]
        if options:
            return options
    return [reply.strip()]


def _reply_score(reply: str) -> float | None:
    """The reply's ``score``: a JSON number, not a bool, that converts to a finite float; None otherwise."""
    obj = _reply_json(reply)
    score = obj.get("score") if isinstance(obj, dict) else None
    try:
        return None if isinstance(score, bool) or not math.isfinite(score) else float(score)
    except (TypeError, OverflowError):  # not a number, or an integer beyond the floats
        return None


def _run_tot(instance, chain, statement):
    chain.ask("tot_initial", max_depth=TOT_DEPTH, task=statement)
    frontier: list[tuple[list[str], float]] = [([], 0.0)]
    for depth in range(1, TOT_DEPTH + 1):
        children: list[tuple[list[str], float]] = []
        for path, _score in frontier:
            reply = chain.ask(
                "tot_expand",
                fresh=True,
                depth=depth,
                max_depth=TOT_DEPTH,
                task=statement,
                question=instance.question_text,
                node_state=" -> ".join(path) if path else "(start)",
            )
            for option in _parse_options(reply):
                new_path = path + [option]
                score = _reply_score(chain.ask("tot_evaluate", fresh=True, task=statement, state=" -> ".join(new_path)))
                children.append((new_path, 5.0 if score is None else score))  # the midpoint when there is no score
        children.sort(key=lambda item: -item[1])  # stable: ties keep generation order
        frontier = children[:TOT_BEAM] or frontier
    best_path = frontier[0][0]
    return _read_reply(
        chain.ask("tot_final", fresh=True, task=statement, reasoning_path=" -> ".join(best_path) or "(empty)")
    )


def _extract_program(reply: str) -> Program:
    """Parse the reply's fenced tqdsl block."""
    source = extract_fenced_source(reply)
    if source is None:
        raise TkgqaError("reply contains no fenced tqdsl block")
    try:
        return parse(source)
    except DslError as exc:
        raise TkgqaError(f"tqdsl parse error: {exc}") from exc


def _restate(reply: str) -> TKG | str:
    """The graph a structuring reply's program builds, or why it builds none."""
    try:
        return execute(_extract_program(reply)).graph
    except TkgqaError as exc:
        return f"structuring failed: {exc}"


def _structure_graph(chain: _Chain) -> TKG:
    """Have the model restate the data as fact declarations; the graph they build.

    The graph is empty when structuring yields nothing usable, so a ``_s``
    technique never falls back to the gold graph.  A graph built from a reply
    is shared with every later job of the same memo whose reply is the same text.
    """
    outcome = chain.memo.restated(chain.ask("structure_data"))
    if isinstance(outcome, str):
        chain.result.errors.append(outcome)
        return TKG()
    return outcome


def _run_cote(instance, chain, statement, structured: bool):
    chain.ask("exec_analyze", task=statement)
    graph = instance.tkg if structured else _structure_graph(chain)
    solve_reply = chain.ask("exec_solve")
    try:
        value = execute(_extract_program(solve_reply), graph).value
    except TkgqaError as exc:
        return solve_reply, "", str(exc)
    if isinstance(value, ErrorValue):
        return value.message, "", f"{value.error}: {value.message}"
    return value, "computed by the executed tqdsl program", None


@functools.cache
def _schema_text() -> str:
    return json.dumps(schema_bundle(), indent=2)


def warm_caches(instances: Sequence[TaskInstance] = (), techniques: Iterable[str] = ()) -> None:
    """Do before the first job what the jobs of ``techniques`` over ``instances`` would otherwise each pay for.

    Each graph's text is rendered, once per graph and seed, when a technique
    reads it, and otherwise only its length computed (:meth:`TKG.text_length`),
    for the rows' token estimate; then each graph's indexes are built, after
    the render so that they are not held beneath its peak.  Last come the
    caches of every default prompt template and of the schema text, each built
    once per process.
    """
    reads_text = any(_TECHNIQUES[tech][1] for tech in techniques)  # its full-text flag
    for inst in instances:
        inst.tkg_text if reads_text else inst.token_estimate
    for inst in instances:
        inst.tkg.build_indexes()
    for path in _PROMPTS_DIR.glob("*.txt"):
        _template(path.stem, None)  # the key that _Chain.ask uses when cfg.prompts_dir is None
    _schema_text()


def _run_cotapi(instance, chain, statement, structured: bool):
    result = chain.result
    chain.ask("exec_analyze", task=statement)
    graph = instance.tkg if structured else _structure_graph(chain)
    select_reply = chain.ask("api_select", schema=_schema_text())
    try:
        call = select_function(select_reply)
    except (AnswerParseError, UnknownFunctionError, ArgumentTypeError) as exc:
        result.errors.append(f"function selection failed: {exc}")
        payload = {"error": str(exc)}
    else:
        associated = call.name == instance.question_type
        result.function_calls.append((call, associated))
        try:
            outcome = dispatch(graph, call)
        except TkgqaError as exc:
            result.errors.append(f"dispatch error: {exc}")
            payload = {"name": call.name, "error": str(exc)}
        else:
            payload = {"name": call.name, "result": outcome.to_json()}
    return _read_reply(chain.ask("api_final", results=json.dumps(payload)))


# technique -> (runner, whether its statement carries the full semi-structured
# text rather than a fact excerpt); the structured cote/cotapi work against the graph
_TECHNIQUES = {
    "direct": (_run_direct, True),
    "cot": (_run_cot, True),
    "tot": (_run_tot, True),
    "cotr": (_run_cotr, True),
    "cote": (functools.partial(_run_cote, structured=True), False),
    "cote_s": (functools.partial(_run_cote, structured=False), True),
    "cotapi": (functools.partial(_run_cotapi, structured=True), False),
    "cotapi_s": (functools.partial(_run_cotapi, structured=False), True),
}
TECHNIQUES = tuple(_TECHNIQUES)


def run(
    instance: TaskInstance, technique: str, client, cfg: PipelineConfig | None = None, memo: Memo | None = None
) -> PipelineResult:
    """Execute one technique on one instance and return its full result.

    Jobs given one ``memo`` (as are their mocks, see :func:`make_mock_client`)
    share a structuring reply's graph; without one, the job works alone.
    """
    if technique not in _TECHNIQUES:
        raise ValueError(f"unknown technique {technique!r}; expected one of {TECHNIQUES}")
    runner, full_text = _TECHNIQUES[technique]
    cfg = cfg or PipelineConfig()
    result = PipelineResult(technique=technique, instance_id=instance.id)
    chain = _Chain(client, cfg, result, instance, memo or Memo())
    instance.tkg_text if full_text else instance.token_estimate  # derived before the clock starts, if not yet
    started = time.perf_counter()
    try:
        statement = _statement(instance, full_text, cfg.prompts_dir)
        _finish(result, instance, *runner(instance, chain, statement))
    finally:
        result.wall_time = time.perf_counter() - started
    return result


def expand_transcripts(records: Iterable[dict], instances: Iterable[TaskInstance]) -> Iterator[dict]:
    """The records of a transcripts file, in file order, each prompt and reply written out in full.

    ``records`` are the file's lines from its first, since a stored string may
    refer to an earlier line, and ``instances`` the dataset it was written from,
    whose rendered texts stand for the ``None`` pieces of the prompts.
    """
    texts = {inst.id: inst.tkg_text for inst in instances}
    held: dict[tuple[int, ...], str] = {}  # each string written in full so far, by where it stands

    def resolve(value, where: tuple[int, ...]) -> str:
        if isinstance(value, str):
            held[where] = value
            return value
        return held[tuple(value)]  # a reference

    for line, record in enumerate(records):
        text = texts[record["instance_id"]]
        turns = []
        for index, turn in enumerate(record["transcript"]):
            prompt = "".join(text if piece is None else resolve(piece, (line, index, k))
                             for k, piece in enumerate(turn["prompt"]))
            turns.append({**turn, "prompt": prompt, "reply": resolve(turn["reply"], (line, index))})
        yield {**record, "transcript": turns}


# ---------------------------------------------------------------------------
# temporal confidence


def temporal_confidence(question: str, data_excerpt: str, client, cfg: PipelineConfig | None = None) -> float | None:
    """Model-estimated confidence in [0, 1] that a task needs temporal reasoning.

    Returns None when the reply holds no score (:func:`_reply_score`), for the caller to flag;
    out-of-range scores are clamped with a warning.
    """
    chain = _Chain(client, cfg or PipelineConfig(), PipelineResult(technique="confidence", instance_id=""), None)
    score = _reply_score(chain.ask("confidence", question=question, data=data_excerpt))
    if score is not None and not 0.0 <= score <= 1.0:
        logger.warning("temporal confidence %s out of range; clamping to [0, 1]", score)
        score = min(max(score, 0.0), 1.0)
    return score
