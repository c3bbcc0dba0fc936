"""Immutable temporal knowledge graph: quintuple facts with pattern queries.

A fact is a quintuple (s, r, o, t0, t1): subject entity ``s`` holds relation
``r`` towards object entity ``o`` over the closed integer interval
``[t0, t1]`` (years by default).  A graph derives its entity and relation
vocabularies from its facts when they are read, keeps facts in insertion
order, and serves wildcard pattern queries from per-field hash indexes, each
built by the first query that binds its field or ahead of time by
:meth:`TKG.build_indexes`.
Graphs are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
import gc
import json
import random
import re
from collections import Counter
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .errors import DuplicateFactError, InvalidFactError, InvalidIntervalError, ParseError

__all__ = [
    "Interval",
    "Fact",
    "TKG",
    "save_tkg",
    "load_tkg",
    "read_jsonl",
    "write_jsonl",
    "render_text",
    "sentences",
    "DEFAULT_FACT_TEMPLATES",
]


class Interval(NamedTuple):
    """Closed integer interval [t0, t1]."""

    t0: int
    t1: int

    @property
    def length(self) -> int:
        return self.t1 - self.t0

    def contains_point(self, t: int) -> bool:
        return self.t0 <= t <= self.t1

    def overlaps(self, other: "Interval") -> bool:
        return self.t0 <= other.t1 and other.t0 <= self.t1

    def within(self, other: "Interval") -> bool:
        return other.t0 <= self.t0 and self.t1 <= other.t1


class Fact(NamedTuple):
    """One temporal fact: ``s`` holds ``r`` towards ``o`` over [t0, t1]."""

    s: str
    r: str
    o: str
    t0: int
    t1: int

    @property
    def interval(self) -> Interval:
        return Interval(self.t0, self.t1)

    @property
    def duration(self) -> int:
        return self.t1 - self.t0


def _check_fact(index: int, raw, share: Callable) -> Fact:
    """``raw`` as a :class:`Fact`, or the error for its first invalid field.

    The one validation of fact fields: ``s``, ``r`` and ``o`` are non-empty
    strings, ``t0`` and ``t1`` are integers (not booleans) with t0 <= t1.  A
    :class:`Fact` is kept as given; a fact given as a sequence is built from
    ``share(value, value)`` for each value, ``share`` being a table's
    ``setdefault``, so a graph holds one object per distinct name and year.
    The lookup comes after the type checks: ``True``, ``1`` and ``1.0`` are
    equal keys, and a list is no key at all.
    """
    try:
        s, r, o, t0, t1 = raw
    except (TypeError, ValueError):
        raise InvalidFactError(index, f"expected the five fields (s, r, o, t0, t1), got {raw!r}") from None
    if not (isinstance(s, str) and isinstance(r, str) and isinstance(o, str) and s and r and o):
        raise InvalidFactError(index, f"s, r and o must be non-empty strings, got {(s, r, o)!r}")
    if type(t0) is not int or type(t1) is not int:  # bool is an int subclass
        raise InvalidFactError(index, f"t0 and t1 must be integers, got {t0!r} and {t1!r}")
    if t0 > t1:
        raise InvalidIntervalError(index=index, t0=t0, t1=t1)
    return raw if isinstance(raw, Fact) else Fact(share(s, s), share(r, r), share(o, o), share(t0, t0), share(t1, t1))


_INDEX_SLOTS = ("_by_s", "_by_r", "_by_o")  # TKG's index attribute by field number


class TKG:
    """Immutable fact store with entity/relation vocabularies.

    Facts are validated (see :func:`_check_fact`) and deduplicated at
    construction; insertion order is the canonical iteration order.  The
    per-field indexes are built on first use: a graph restated by a model is
    queried by one short program, which needs only the indexes of the fields
    it binds.  Its rendered texts are kept the same way, one per seed, or only
    a text's length when no more was asked for.  Two threads that race to
    build the same index, text or length each build an equal one, and the
    store is atomic, so a graph stays safe to share across threads.
    """

    __slots__ = ("facts", "_by_s", "_by_r", "_by_o", "_hash", "_texts")

    def __init__(self, facts: Iterable[Fact | tuple] = ()):
        clean: list[Fact] = []
        seen: set[Fact] = set()
        share = {}.setdefault  # each name and year of a fact given as a sequence, once
        for i, raw in enumerate(facts):
            f = _check_fact(i, raw, share)
            if f in seen:
                raise DuplicateFactError(index=i, fact=f)
            seen.add(f)
            clean.append(f)
        del seen  # freed before the copy below, which would otherwise peak beside it
        self.facts: tuple[Fact, ...] = tuple(clean)
        self._by_s: dict[str, list[Fact]] | None = None
        self._by_r: dict[str, list[Fact]] | None = None
        self._by_o: dict[str, list[Fact]] | None = None
        self._hash: int | None = None
        self._texts: dict[int, str | int] = {}  # by seed, the text or, until it is rendered, its length

    @property
    def entities(self) -> frozenset[str]:
        return frozenset({f.s for f in self.facts} | {f.o for f in self.facts})

    @property
    def relations(self) -> frozenset[str]:
        return frozenset({f.r for f in self.facts})

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TKG):
            return NotImplemented
        return self.facts == other.facts

    def __hash__(self) -> int:
        # a tuple does not keep its hash, and the facts never change: hash them once
        if self._hash is None:
            self._hash = hash(self.facts)
        return self._hash

    def __repr__(self) -> str:
        return f"TKG({len(self.facts)} facts, {len(self.entities)} entities, {len(self.relations)} relations)"

    def _build_index(self, field: int) -> dict[str, list[Fact]]:
        """The facts by their value of field 0 (s), 1 (r) or 2 (o), stored for later queries."""
        index: dict[str, list[Fact]] = {}
        for f in self.facts:
            key = f[field]
            if key in index:
                index[key].append(f)
            else:
                index[key] = [f]
        setattr(self, _INDEX_SLOTS[field], index)
        return index

    def build_indexes(self) -> None:
        """Build each per-field index that no query has built yet."""
        for field, slot in enumerate(_INDEX_SLOTS):
            if getattr(self, slot) is None:
                self._build_index(field)

    def rendered(self, seed: int, render: Callable[..., str]) -> str:
        """``render(self, seed=seed)``, called on the first request for ``seed`` and kept for the later ones."""
        text = self._texts.get(seed)
        if type(text) is not str:
            text = self._texts[seed] = render(self, seed=seed)
        return text

    def text_length(self, seed: int) -> int:
        """``len(render_text(self, seed=seed))``: the kept text's length, or else one computed without a
        sentence, and kept in the text's place.

        Each default template names each field once, so a sentence is its
        template's literal text and its fields' text: the length is the drawn
        templates' literal lengths, each distinct field value's length times its
        count, and the newlines between the sentences.
        """
        kept = self._texts.get(seed)
        if kept is None:
            literals = sum(map(_LITERAL_LENGTH.__getitem__, _template_draws(DEFAULT_FACT_TEMPLATES, seed, self)))
            fields = sum(len(str(v)) * n for v, n in Counter(chain.from_iterable(self.facts)).items())
            kept = self._texts[seed] = literals + fields + max(len(self) - 1, 0)  # and the newlines between sentences
        return kept if type(kept) is int else len(kept)

    def query(self, s: str | None = None, r: str | None = None, o: str | None = None) -> list[Fact]:
        """Facts matching every bound field, in insertion order.

        Unknown ids match nothing; a fully unbound pattern matches all facts.
        Served from the narrowest index of a bound field, then verified field
        by field (equivalent to a brute-force scan).
        """
        candidates: list[Fact] | None = None
        for field, bound in enumerate((s, r, o)):
            if bound is None:
                continue
            index = getattr(self, _INDEX_SLOTS[field])
            if index is None:
                index = self._build_index(field)
            rows = index.get(bound)
            if not rows:
                return []
            if candidates is None or len(rows) < len(candidates):
                candidates = rows
        if candidates is None:
            return list(self.facts)
        return [
            f for f in candidates if (s is None or f.s == s) and (r is None or f.r == r) and (o is None or f.o == o)
        ]


# ---------------------------------------------------------------------------
# JSON Lines framing, shared by fact, dataset, row and confidence files


def read_jsonl(source: str | Path | IO[str]) -> Iterator[tuple[int, dict]]:
    """(1-based line number, object) for each non-blank line.

    Raises :class:`ParseError` on a line that is not a JSON object the decoder can hold.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as lines:
            yield from read_jsonl(lines)
        return
    for line_no, line in enumerate(source, start=1):
        if line.strip():
            yield line_no, _json_object(line_no, line)


def _json_object(line_no: int, line: str) -> dict:
    """The JSON object on file line ``line_no``; :class:`ParseError` if the line holds none."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer too long for int(), or nesting too deep
        raise ParseError(line_no, f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError(line_no, "line is not a JSON object")
    return obj


def write_jsonl(lines: Iterable[str], sink: str | Path | IO[str]) -> None:
    """Write already-encoded lines as they come, each followed by a newline."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8") as out:
            write_jsonl(lines, out)
        return
    sink.writelines(f"{line}\n" for line in lines)


# ---------------------------------------------------------------------------
# fact files: keys exactly s, r, o, t0, t1

_FACT_KEYS = {"s", "r", "o", "t0", "t1"}

# A whole line as save_tkg writes it, with names that need no unescaping and
# years in JSON's integer grammar: json.loads reads such a line to the same fields.
_NAME = r'"([^"\\\x00-\x1f]+)"'
_YEAR = r"(-?(?:0|[1-9][0-9]{0,17}))"  # at most 18 digits, which int() always converts
_FACT_LINE_RE = re.compile(rf'\{{"s": {_NAME}, "r": {_NAME}, "o": {_NAME}, "t0": {_YEAR}, "t1": {_YEAR}\}}\n?')


def save_tkg(g: TKG, sink: str | Path | IO[str]) -> None:
    """Write one JSON object per fact, preserving order.

    Each line is the bytes of ``json.dumps({"s": ..., "r": ..., "o": ..., "t0": ..., "t1": ...})``,
    encoded field by field and written as it is made.
    """
    quote = encode_basestring_ascii
    lines = (
        f'{{"s": {quote(s)}, "r": {quote(r)}, "o": {quote(o)}, "t0": {t0}, "t1": {t1}}}'
        for s, r, o, t0, t1 in g.facts
    )
    write_jsonl(lines, sink)


def load_tkg(source: str | Path | IO[str]) -> TKG:
    """Parse a fact file written by :func:`save_tkg`; order is significant.

    A line as :func:`save_tkg` writes it is read by one regex, straight to a
    :class:`Fact`, with each distinct year's digits converted once; any other
    line is read as JSON and checked by :func:`_check_fact`, to the same fields.
    Both take names and years from one table, so the graph holds one object per
    distinct value.  The cyclic garbage collector is paused while the file is
    read.  Every fact error names its 1-based file line: a field error is a
    :class:`ParseError`, and an :class:`InvalidIntervalError` or a
    :class:`DuplicateFactError` has the line in its ``line``.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as lines:
            return load_tkg(lines)
    line_no = 0
    # one share table for both paths, so that each name and year is one object;
    # year() keeps each year's digits -> its shared int, so int() runs once a
    # year, and a canonical line's Fact skips the NamedTuple keyword constructor
    share, match, new = {}.setdefault, _FACT_LINE_RE.fullmatch, tuple.__new__
    year = functools.cache(lambda digits: share(t := int(digits), t))

    def facts() -> Iterator[Fact]:
        nonlocal line_no
        for line_no, line in enumerate(source, start=1):
            if (m := match(line)) is not None:
                s, r, o, t0, t1 = m.groups()
                yield new(Fact, (share(s, s), share(r, r), share(o, o), year(t0), year(t1)))
            elif line.strip():
                obj = _json_object(line_no, line)
                if obj.keys() != _FACT_KEYS:
                    raise ParseError(line_no, f"fact keys must be exactly {list(Fact._fields)}, got {sorted(obj)}")
                yield _check_fact(line_no, (obj["s"], obj["r"], obj["o"], obj["t0"], obj["t1"]), share)

    # Each fact is a container that the cyclic collector keeps tracking (it
    # untracks plain tuples only), so while the file is read it would walk the
    # growing graph again and again, and the facts hold no cycle to free: it
    # is paused until the graph is built, and resumed only if it was running.
    collecting = gc.isenabled()
    gc.disable()
    # a fact is checked as it is read, so line_no is the line of a rejected fact
    try:
        return TKG(facts())
    except InvalidFactError as exc:
        raise ParseError(line_no, exc.reason) from None
    except InvalidIntervalError as exc:
        raise InvalidIntervalError(t0=exc.t0, t1=exc.t1, line=line_no) from None
    except DuplicateFactError as exc:
        raise DuplicateFactError(fact=exc.fact, line=line_no) from None
    finally:
        if collecting:
            gc.enable()


# ---------------------------------------------------------------------------
# semi-structured natural-language rendering

DEFAULT_FACT_TEMPLATES = (
    "{s} had relation {r} with {o} from {t0} to {t1}.",
    "Between {t0} and {t1}, {s} was linked to {o} through {r}.",
    "{s} held {r} towards {o} during the period {t0} to {t1}.",
    "From {t0} until {t1}, the relation {r} connected {s} to {o}.",
)


# each default template's length without its fields (TKG.text_length)
_LITERAL_LENGTH = {t: len(t.format(s="", r="", o="", t0="", t1="")) for t in DEFAULT_FACT_TEMPLATES}

_RENDER_BLOCK = 4096  # sentences joined into one string before the blocks are joined


def _template_draws(templates: tuple[str, ...], seed: int, g: TKG) -> Iterator[str]:
    """The template of each fact of ``g``, in fact order: the one place that draws a fact's template."""
    return map(random.Random(seed).choice, repeat(templates, len(g)))


def sentences(g: TKG, template_set: Iterable[str] | None = None, seed: int = 0) -> Iterator[str]:
    """One sentence per fact, in fact order, each in the template :func:`_template_draws` gives it.

    Each sentence is made when it is asked for; the draws are seed-deterministic.
    Every field of every fact appears verbatim in its sentence, so the
    rendering is injective on facts for a fixed seed.  :meth:`TKG.text_length`
    takes the same draws and counts, without a sentence, what they would make.
    """
    templates = tuple(template_set) if template_set is not None else DEFAULT_FACT_TEMPLATES
    if not templates:
        raise ValueError("template_set must be non-empty")
    return (t.format(s=f.s, r=f.r, o=f.o, t0=f.t0, t1=f.t1) for t, f in zip(_template_draws(templates, seed, g), g))


def render_text(g: TKG, template_set: Iterable[str] | None = None, seed: int = 0) -> str:
    """The :func:`sentences` of ``g``, one per line."""
    lines = sentences(g, template_set, seed)
    # only one block's sentences are alive at a time beside the joined blocks
    return "\n".join(["\n".join(islice(lines, _RENDER_BLOCK)) for _ in range(0, len(g), _RENDER_BLOCK)])
