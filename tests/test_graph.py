import gc
import io
import json
import random
import string
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import tkgqa.graph
from tkgqa.errors import DuplicateFactError, InvalidFactError, InvalidIntervalError, ParseError
from tkgqa.generator import GraphParams, generate_graph
from tkgqa.graph import (
    _RENDER_BLOCK,
    DEFAULT_FACT_TEMPLATES,
    Fact,
    Interval,
    TKG,
    load_tkg,
    read_jsonl,
    render_text,
    save_tkg,
)

from conftest import F1, F2, F3, F5, FIXTURE_FACTS, random_graph


class TestBuild:
    def test_empty(self):
        g = TKG([])
        assert len(g) == 0
        assert not g.entities and not g.relations

    def test_singleton(self):
        g = TKG([("E1", "R1", "E2", 2000, 2005)])
        assert g.entities == {"E1", "E2"}
        assert g.relations == {"R1"}
        assert len(g.facts) == 1

    def test_hash_is_the_facts_hash_computed_once(self, monkeypatch):
        facts = [("E1", "R1", "E2", 2000, 2005), ("E2", "R2", "E3", 2001, 2003)]
        g, again = TKG(facts), TKG(list(facts))
        assert g is not again and g == again
        assert hash(g) == hash(g.facts) == hash(again) == hash(tuple(Fact(*f) for f in facts))
        assert hash(TKG()) == hash(())
        calls = []
        real = tuple.__hash__
        monkeypatch.setattr(Fact, "__hash__", lambda f: calls.append(f) or real(f))
        fresh = TKG(facts)
        calls.clear()
        assert hash(fresh) == hash(fresh) == hash(g)
        assert len(calls) == len(facts)  # the facts were hashed for the first call only

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateFactError) as err:
            TKG([("E1", "R1", "E2", 2000, 2005), ("E1", "R1", "E2", 2000, 2005)])
        assert err.value.index == 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(InvalidIntervalError) as err:
            TKG([("E1", "R1", "E2", 2005, 2000)])
        assert err.value.index == 0

    @pytest.mark.parametrize(
        "fact",
        [
            ("E1", "R1", "E2", True, 2005),
            ("E1", "R1", "E2", 2000.5, 2005),
            ("E1", "R1", "E2", "2000", 2005),
            ("E1", "R1", "E2", 2000, False),
            ("", "R1", "E2", 2000, 2005),
            ("E1", "", "E2", 2000, 2005),
            ("E1", "R1", 7, 2000, 2005),
            ("E1", "R1", "E2", 2000),
        ],
    )
    def test_bad_field_rejected(self, fact):
        with pytest.raises(InvalidFactError) as err:
            TKG([("E0", "R0", "E9", 1990, 1991), fact])
        assert err.value.index == 1

    def test_same_triple_different_intervals_allowed(self):
        g = TKG([("E1", "R1", "E2", 2000, 2005), ("E1", "R1", "E2", 2007, 2009)])
        assert len(g) == 2

    @pytest.mark.parametrize(
        "facts, error, index",
        [
            # the first bad fact in order decides, whether duplicate or invalid
            ([F1, F2, F1, ("E1", "R1", "E2", 2005, 2000)], DuplicateFactError, 2),
            ([F1, ("E1", "R1", "E2", 2005, 2000), F1], InvalidIntervalError, 1),
            ([F1, F2, ("E1", "", "E2", 2000, 2005), F2], InvalidFactError, 2),
            ([F1, F2, F2, ("E1", "", "E2", 2000, 2005)], DuplicateFactError, 2),
            ([F1, tuple(F1)], DuplicateFactError, 1),
        ],
    )
    def test_first_bad_fact_decides_the_error(self, facts, error, index):
        with pytest.raises(error) as err:
            TKG(facts)
        assert type(err.value) is error and err.value.index == index


class TestQuery:
    def test_bound_subject_relation(self, fixture_a):
        assert fixture_a.query("E1", "R1", None) == [F1, F2, F3]

    def test_full_wildcard(self, fixture_a):
        assert fixture_a.query() == list(FIXTURE_FACTS)

    def test_unknown_id_matches_nothing(self, fixture_a):
        assert fixture_a.query("E99", None, None) == []

    def test_matches_brute_force_filter(self):
        for seed in range(100):
            g = random_graph(seed)
            rng = random.Random(seed + 1)
            f = g.facts[rng.randrange(len(g.facts))]
            for pattern in [
                (f.s, None, None),
                (None, f.r, None),
                (None, None, f.o),
                (f.s, f.r, None),
                (f.s, f.r, f.o),
                (None, None, None),
            ]:
                expected = [
                    x
                    for x in g.facts
                    if (pattern[0] is None or x.s == pattern[0])
                    and (pattern[1] is None or x.r == pattern[1])
                    and (pattern[2] is None or x.o == pattern[2])
                ]
                assert g.query(*pattern) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["E1", "E2", "E3", "E4"]),
                st.sampled_from(["R1", "R2", "R3"]),
                st.sampled_from(["E1", "E2", "E3", "E4"]),
                st.integers(0, 3),
                st.integers(0, 2),
            ),
            max_size=40,
        ),
        st.lists(
            st.tuples(*[st.one_of(st.none(), st.sampled_from(ids)) for ids in (["E1", "E4", "E9"], ["R1", "R3", "R9"], ["E2", "E3", "E9"])]),
            min_size=1,
            max_size=6,
        ),
    )
    def test_query_is_a_brute_force_scan(self, rows, patterns):
        """Equal to a scan of g.facts for every pattern, whichever index the first query builds."""
        facts = list(dict.fromkeys(Fact(s, r, o, t0, t0 + d) for s, r, o, t0, d in rows))
        g = TKG(facts)
        for s, r, o in patterns:
            expected = [f for f in g.facts if s in (None, f.s) and r in (None, f.r) and o in (None, f.o)]
            assert g.query(s, r, o) == expected

    def test_index_built_by_the_first_query_that_binds_its_field(self, monkeypatch):
        built = []
        real_build = TKG._build_index
        monkeypatch.setattr(TKG, "_build_index", lambda g, field: built.append(field) or real_build(g, field))
        g = TKG(FIXTURE_FACTS)
        assert g.query() == list(FIXTURE_FACTS) and built == []
        g.query(None, "R2", None)
        g.query(None, "R1", None)
        assert built == [1]
        g.query("E1", "R1", "E2")
        g.query("E9", None, "E2")
        g.query("E5", None, None)
        assert built == [1, 0, 2]

    def test_unbound_query_returns_a_new_list(self, fixture_a):
        first = fixture_a.query()
        first.clear()
        assert fixture_a.query() == list(FIXTURE_FACTS)
        fixture_a.query("E1", None, None).clear()
        assert fixture_a.query("E1", None, None) == [F1, F2, F3, F5]

    @pytest.mark.parametrize("field", ["s", "r", "o"])
    def test_threads_racing_to_build_an_index(self, field):
        """8 threads query a fresh graph through one index while the interpreter
        switches threads as often as it can; each gets the single-thread answers."""
        facts = random_graph(5, n_facts=3000).facts
        keys = sorted({getattr(f, field) for f in facts}) + ["E_unknown"]
        expected = [TKG(facts).query(**{field: key}) for key in keys]
        for _ in range(3):
            g = TKG(facts)
            barrier = threading.Barrier(8)
            answers: dict[int, list] = {}

            def worker(n):
                barrier.wait(timeout=30)
                answers[n] = [g.query(**{field: key}) for key in keys]

            old_interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(old_interval)
            assert not any(t.is_alive() for t in threads)
            assert answers == {n: expected for n in range(8)}

    def test_fully_bound_returns_distinct_facts(self):
        # dedup invariant: a fully bound (s, r, o) query never repeats a quintuple
        for seed in range(30):
            g = random_graph(seed)
            for f in g.facts:
                result = g.query(f.s, f.r, f.o)
                assert len(result) == len(set(result))


class TestSerialization:
    def test_round_trip_fixture(self, fixture_a, tmp_path):
        path = tmp_path / "g.jsonl"
        save_tkg(fixture_a, path)
        assert load_tkg(path) == fixture_a

    def test_round_trip_random_graphs(self, tmp_path):
        for seed in range(100):
            g = random_graph(seed)
            buf = io.StringIO()
            save_tkg(g, buf)
            assert load_tkg(io.StringIO(buf.getvalue())) == g

    def test_order_preserved(self, fixture_a):
        buf = io.StringIO()
        save_tkg(fixture_a, buf)
        reloaded = load_tkg(io.StringIO(buf.getvalue()))
        assert reloaded.facts == fixture_a.facts

    def test_bad_interval_line(self):
        line = '{"s":"E1","r":"R1","o":"E2","t0":2005,"t1":2000}'
        with pytest.raises(InvalidIntervalError):
            load_tkg(io.StringIO(line))

    @pytest.mark.parametrize("compact", [False, True], ids=["save_tkg-line", "json-line"])
    @pytest.mark.parametrize(
        "last, error",
        [(("E1", "R1", "E2", 2000, 2005), DuplicateFactError), (("E1", "R1", "E2", 2009, 2005), InvalidIntervalError)],
        ids=["duplicate", "interval"],
    )
    def test_fact_error_names_its_file_line(self, last, error, compact):
        separators = (",", ":") if compact else None
        lines = [json.dumps(dict(zip(Fact._fields, f)), separators=separators) for f in (F1, F2, last)]
        with pytest.raises(error) as err:
            load_tkg(io.StringIO(f"{lines[0]}\n\n{lines[1]}\n\n\n{lines[2]}\n"))
        assert type(err.value) is error and err.value.line == 6 and err.value.index is None
        assert str(err.value).startswith("line 6: ")

    def test_empty_file(self):
        assert load_tkg(io.StringIO("")) == TKG([])

    def test_malformed_json_reports_line(self):
        text = '{"s":"E1","r":"R1","o":"E2","t0":2000,"t1":2005}\nnot json\n'
        with pytest.raises(ParseError) as err:
            load_tkg(io.StringIO(text))
        assert err.value.line == 2

    def test_wrong_keys_rejected(self):
        with pytest.raises(ParseError):
            load_tkg(io.StringIO('{"subject":"E1","r":"R1","o":"E2","t0":1,"t1":2}'))

    def test_bool_timestamp_rejected(self):
        with pytest.raises(ParseError):
            load_tkg(io.StringIO('{"s":"E1","r":"R1","o":"E2","t0":true,"t1":2}'))

    @pytest.mark.parametrize(
        "bad",
        [
            '{"s":"E1","r":"R1","o":"E3","t0":2000.5,"t1":2005}',
            '{"s":"E1","r":"R1","o":"E3","t0":"2000","t1":2005}',
            '{"s":"","r":"R1","o":"E3","t0":2000,"t1":2005}',
        ],
    )
    def test_bad_field_reports_file_line(self, bad):
        good = '{"s":"E1","r":"R1","o":"E2","t0":2000,"t1":2005}'
        with pytest.raises(ParseError) as err:
            load_tkg(io.StringIO(good + "\n\n" + bad + "\n"))
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "good, bad",
        [
            # each bad value equals, or cannot even be compared with, a good value read before it
            ('"t0":1,"t1":5', '"t0":true,"t1":5'),
            ('"t0":2000,"t1":2005', '"t0":2000.0,"t1":2005'),
            ('"t0":2000,"t1":2005', '"t0":2000,"t1":2005.0'),
        ],
    )
    def test_a_value_equal_to_a_good_one_is_still_checked(self, good, bad):
        lines = [f'{{"s":"E1","r":"R1","o":"E2",{good}}}', f'{{"s":"E1","r":"R1","o":"E3",{bad}}}']
        with pytest.raises(ParseError) as err:
            load_tkg(io.StringIO("\n".join(lines) + "\n"))
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ['["E1"]', '{"E1":1}', "[]", "{}"])
    def test_unhashable_name_reports_file_line(self, value):
        lines = ['{"s":"E1","r":"R1","o":"E2","t0":2000,"t1":2005}',
                 f'{{"s":{value},"r":"R1","o":"E2","t0":2000,"t1":2005}}']
        with pytest.raises(ParseError) as err:
            load_tkg(io.StringIO("\n".join(lines) + "\n"))
        assert err.value.line == 2

    def test_loaded_graph_holds_one_object_per_distinct_value(self):
        """Also with every other line compact JSON: the regex path and the JSON path share one table."""
        g = random_graph(3, n_facts=60)
        assert any(f.t0 > 256 for f in g.facts)  # years past the ints the interpreter shares anyway
        for field in range(len(Fact._fields)):  # each field has values on odd and on even lines
            assert {f[field] for f in g.facts[::2]} & {f[field] for f in g.facts[1::2]}
        buf = io.StringIO()
        save_tkg(g, buf)
        mixed = buf.getvalue().splitlines()
        mixed[1::2] = [json.dumps(dict(zip(Fact._fields, f)), separators=(",", ":")) for f in g.facts[1::2]]
        for text in (buf.getvalue(), "\n".join(mixed) + "\n"):
            loaded = load_tkg(io.StringIO(text))
            assert loaded == g
            values = [value for f in loaded.facts for value in f]
            assert len({id(value) for value in values}) == len(set(values)) < len(values)

    @given(
        facts=st.lists(
            st.tuples(
                st.text(st.characters(blacklist_categories=()), min_size=1)
                | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800"]),
                st.text(min_size=1),
                st.text(min_size=1),
                st.integers(-(10**20), 10**20),
                st.integers(0, 10**6),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_lines_are_json_dumps_of_the_fact(self, facts):
        g = TKG({(s, r, o, t0, t0 + span): None for s, r, o, t0, span in facts})
        buf = io.StringIO()
        save_tkg(g, buf)
        expected = "".join(
            json.dumps({"s": f.s, "r": f.r, "o": f.o, "t0": f.t0, "t1": f.t1}) + "\n" for f in g.facts
        )
        assert buf.getvalue() == expected
        assert load_tkg(io.StringIO(buf.getvalue())) == g


N_FACTS = 20_000


@pytest.fixture(scope="module")
def fact_file(tmp_path_factory):
    """A 20,000-fact graph as save_tkg writes it."""
    path = tmp_path_factory.mktemp("memory") / "g.jsonl"
    save_tkg(generate_graph(GraphParams(seed=7, n_entities=1000, n_relations=20, n_facts=N_FACTS)), path)
    return path


def _general_load(source) -> TKG:
    """load_tkg as every line is read without the fast path: read_jsonl, the key check and TKG."""
    line_no = 0

    def facts():
        nonlocal line_no
        for line_no, obj in read_jsonl(source):
            if obj.keys() != {"s", "r", "o", "t0", "t1"}:
                raise ParseError(line_no, f"fact keys must be exactly {list(Fact._fields)}, got {sorted(obj)}")
            yield obj["s"], obj["r"], obj["o"], obj["t0"], obj["t1"]

    try:
        return TKG(facts())
    except InvalidFactError as exc:
        raise ParseError(line_no, exc.reason) from None
    except InvalidIntervalError as exc:
        raise InvalidIntervalError(t0=exc.t0, t1=exc.t1, line=line_no) from None
    except DuplicateFactError as exc:
        raise DuplicateFactError(fact=exc.fact, line=line_no) from None


def _load_outcome(load, text: str):
    """The facts ``load`` reads from ``text``, or its error's type, message, line and index."""
    try:
        return load(io.StringIO(text)).facts
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "index", None)


_LONG_YEAR = "7" * 4301  # one digit more than int() converts
# (the save_tkg line, its fields) -> a variant of the line
_VARIANTS = st.sampled_from([
    lambda line, f: line,
    lambda line, f: json.dumps(dict(zip(Fact._fields, f)), separators=(",", ":")),
    lambda line, f: json.dumps(dict(reversed(list(zip(Fact._fields, f))))),
    lambda line, f: line.replace(": ", " : ").replace("{", "{ "),
    lambda line, f: " " + line + "\t",
    lambda line, f: line + "\r",
    lambda line, f: json.dumps(dict(zip(Fact._fields, f)), ensure_ascii=False),
    lambda line, f: line.replace(f'"t0": {f.t0}', '"t0": -0').replace(f'"t1": {f.t1}', '"t1": 0'),
    lambda line, f: line.replace(f'"t1": {f.t1}', f'"t1": 0{f.t1}'),
    lambda line, f: line.replace(f'"t1": {f.t1}', f'"t1": {f.t1}.0'),
    lambda line, f: line.replace(f'"t1": {f.t1}', '"t1": 1e3'),
    lambda line, f: line.replace(f'"t0": {f.t0}', '"t0": true'),
    lambda line, f: line.replace(f'"t1": {f.t1}', f'"t1": {_LONG_YEAR}'),
    lambda line, f: line.replace(f'"t1": {f.t1}', f'"t1": -{_LONG_YEAR}'),
    lambda line, f: line.replace(f'"t1": {f.t1}', f'"t1": {10**18}'),  # past the fast path's 18 digits
    lambda line, f: line[:-1] + ', "x": 1}',
    lambda line, f: line.replace(f', "t1": {f.t1}', ""),
    lambda line, f: line + " x",
    lambda line, f: line + "}",
    lambda line, f: line.replace(f'"t0": {f.t0}, "t1": {f.t1}', f'"t0": {f.t1 + 1}, "t1": {f.t1}'),
    lambda line, f: line + "\n" + line,
    lambda line, f: "",
])
_NAMES = (
    st.text(min_size=1, max_size=4)
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800", "E1"])
)


class TestFactLineFastPath:
    @given(
        facts=st.lists(
            st.tuples(_NAMES, _NAMES, _NAMES, st.integers(-(10**20), 10**20), st.integers(0, 10**6)),
            max_size=5,
        ),
        variants=st.lists(_VARIANTS, min_size=5, max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_reads_as_the_general_path(self, facts, variants):
        """save_tkg's lines and variants of them: the same graph, or the same error at the same line."""
        g = TKG({(s, r, o, t0, t0 + span): None for s, r, o, t0, span in facts})
        buf = io.StringIO()
        save_tkg(g, buf)
        lines = buf.getvalue().splitlines()
        text = "".join(variant(line, f) + "\n" for line, f, variant in zip(lines, g.facts, variants))
        for source in (buf.getvalue(), text, text.replace("\n", "\r\n")):
            assert _load_outcome(load_tkg, source) == _load_outcome(_general_load, source)

    def test_each_distinct_year_is_converted_once(self, fact_file, monkeypatch):
        converted = []

        class CountedInt(int):
            # graph's "int" names this class for the check `type(t0) is int` too, which its own years then pass
            def __new__(cls, digits):
                converted.append(digits)
                return super().__new__(cls, digits)

        monkeypatch.setattr(tkgqa.graph, "int", CountedInt, raising=False)
        g = load_tkg(fact_file)
        monkeypatch.undo()
        years = {t for f in g.facts for t in (f.t0, f.t1)}
        assert len(g) == N_FACTS and 0 < len(converted) <= len(years)
        assert sorted(map(int, converted)) == sorted(years)

    @pytest.mark.parametrize("text", ["", f"{json.dumps(dict(zip(Fact._fields, F1)))}\n", "not json\n",
                                      '{"s": "E1", "r": "R1", "o": "E2", "t0": 2009, "t1": 2005}\n'])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_while_reading_and_then_restored(self, text, enabled, monkeypatch):
        states = []
        real_check = tkgqa.graph._check_fact
        monkeypatch.setattr(tkgqa.graph, "_check_fact", lambda *a: states.append(gc.isenabled()) or real_check(*a))
        gc.enable() if enabled else gc.disable()
        try:
            try:
                load_tkg(io.StringIO(text))
            except (ParseError, InvalidIntervalError):
                pass
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert states == [False] * bool(text.startswith("{"))

    def test_a_save_tkg_file_calls_json_for_no_line(self, fact_file, monkeypatch):
        decoded = []
        real_loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: decoded.append(text) or real_loads(text, **kw))
        g = load_tkg(fact_file)
        assert len(g) == N_FACTS and decoded == []
        assert g == _general_load(fact_file) and len(decoded) == N_FACTS


class TestMemory:
    """tracemalloc's count of what a 20,000-fact graph costs to load and to save."""

    def test_loaded_graph_keeps_under_150_bytes_per_fact(self, fact_file):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = load_tkg(fact_file)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(g) == N_FACTS
        assert kept / len(g) < 150, kept / len(g)

    def test_save_peak_does_not_grow_with_the_graph(self, fact_file, tmp_path):
        g = load_tkg(fact_file)
        out = tmp_path / "again.jsonl"
        tracemalloc.start()
        try:
            save_tkg(g, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == fact_file.read_bytes()
        assert peak < 256 * 1024, peak

    def test_render_peak_is_at_most_two_and_a_half_texts(self, fact_file):
        g = load_tkg(fact_file)
        tracemalloc.start()
        try:
            text = render_text(g, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text.splitlines()) == N_FACTS
        assert peak <= 2.5 * sys.getsizeof(text), peak / sys.getsizeof(text)


class TestRenderText:
    def test_single_fact_single_template(self):
        g = TKG([("E1", "R1", "E2", 2000, 2005)])
        text = render_text(g, template_set=[DEFAULT_FACT_TEMPLATES[0]])
        assert text == "E1 had relation R1 with E2 from 2000 to 2005."

    def test_deterministic(self, fixture_a):
        assert render_text(fixture_a, seed=42) == render_text(fixture_a, seed=42)

    def test_fields_present(self, fixture_a):
        text = render_text(fixture_a, seed=7)
        for token in ("E1", "R2", "2012"):
            assert token in text

    def test_sentence_count_and_injectivity(self):
        for seed in range(20):
            g = random_graph(seed)
            lines = render_text(g, seed=seed).splitlines()
            assert len(lines) == len(g.facts)
            assert len(set(lines)) == len(g.facts)

    def test_empty_template_set_rejected(self, fixture_a):
        with pytest.raises(ValueError):
            render_text(fixture_a, template_set=[])

    @staticmethod
    def one_list_render(g, templates, seed):
        """The rendering as one list of every sentence, joined once."""
        rng = random.Random(seed)
        return "\n".join([rng.choice(templates).format(s=f.s, r=f.r, o=f.o, t0=f.t0, t1=f.t1) for f in g.facts])

    @pytest.mark.parametrize("size", [0, 1, _RENDER_BLOCK - 1, _RENDER_BLOCK, _RENDER_BLOCK + 1])
    def test_blocks_join_to_the_one_list_text(self, size):
        facts = generate_graph(GraphParams(seed=3, n_entities=200, n_facts=_RENDER_BLOCK + 1)).facts
        g = TKG(facts[:size])
        custom = ("{t1}: {o} <- {r} <- {s} since {t0}", "", "{s}|{r}|{o}|{t0}|{t1}")
        for seed in (0, 11):
            assert render_text(g, seed=seed) == self.one_list_render(g, DEFAULT_FACT_TEMPLATES, seed)
            assert render_text(g, template_set=iter(custom), seed=seed) == self.one_list_render(g, custom, seed)


class TestTextLength:
    def test_each_default_template_names_each_field_once(self):
        for template in DEFAULT_FACT_TEMPLATES:
            fields = [(name, conversion, spec) for _, name, spec, conversion in string.Formatter().parse(template)
                      if name is not None]
            assert sorted(fields) == sorted((name, None, "") for name in Fact._fields), template

    def test_computed_without_a_sentence(self, monkeypatch):
        class Unformattable(str):
            def __format__(self, spec):
                raise AssertionError("a field was formatted")

        def no_sentences(*args, **kwargs):
            raise AssertionError("a sentence was asked for")

        facts = [(Unformattable(f"E{i}"), Unformattable("R1"), Unformattable("E0"), -i, 10**17 + i) for i in range(50)]
        g = TKG(facts)
        expected = len(render_text(TKG(tuple(map(str, f[:3])) + f[3:] for f in facts), seed=4))
        for name in ("sentences", "render_text"):
            monkeypatch.setattr(tkgqa.graph, name, no_sentences)
        assert g.text_length(4) == expected
        assert g._texts == {4: expected}


def test_interval_helpers():
    iv = Interval(2000, 2005)
    assert iv.length == 5
    assert iv.contains_point(2000) and iv.contains_point(2005)
    assert not iv.contains_point(2006)
    assert iv.overlaps(Interval(2005, 2009))
    assert not iv.overlaps(Interval(2006, 2009))
    assert iv.within(Interval(1999, 2006))
    assert not iv.within(Interval(2001, 2006))


def test_fact_duration():
    assert Fact("E1", "R1", "E2", 2000, 2005).duration == 5
