import operator
import random

import pytest

from tkgqa.dsl import execute, parse
from tkgqa.graph import TKG, Interval
from tkgqa.primitives import DurationPredicate, merge_intervals, sort_facts

from conftest import F1, F2, F3, F4, F6, FIXTURE_FACTS, random_fact_list

NAIVE_COMPARATORS = {"<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt}


def run_stages(facts, stages: str):
    """Apply tqdsl stages to every fact of a graph built from ``facts`` (duplicates dropped)."""
    return execute(parse(f"facts(*, *, *) |> {stages}"), TKG(dict.fromkeys(facts))).value


def distinct_facts(rng: random.Random, size: int | None = None):
    return list(dict.fromkeys(random_fact_list(rng, size)))


class TestSort:
    def test_start_ascending(self):
        assert sort_facts([F2, F1, F3]) == [F1, F2, F3]

    def test_empty(self):
        assert sort_facts([]) == []

    def test_idempotent_and_permutation(self):
        for seed in range(100):
            facts = random_fact_list(random.Random(seed))
            once = sort_facts(facts)
            assert sort_facts(once) == once
            assert sorted(once) == sorted(facts)

    def test_end_endpoint(self):
        # start order puts F6 (2003) before F2 (2006); end order reverses them
        assert sort_facts([F2, F6], endpoint="start") == [F6, F2]
        assert sort_facts([F2, F6], endpoint="end") == [F2, F6]

    def test_descending_reverses(self):
        facts = list(FIXTURE_FACTS)
        assert sort_facts(facts, descending=True) == list(reversed(sort_facts(facts)))

    def test_bad_endpoint(self):
        with pytest.raises(ValueError):
            sort_facts([], endpoint="middle")


class TestFilterTime:
    """The interval filters are the tqdsl stages over the ``Interval`` tests."""

    def test_at_point(self, fixture_a):
        program = parse("facts(*, R1, E2) |> filter_at(2002)")
        assert execute(program, fixture_a).value == [F1, F4]

    def test_full_cover_overlap_keeps_all(self):
        for seed in range(50):
            facts = distinct_facts(random.Random(seed), size=12)
            lo = min(f.t0 for f in facts)
            hi = max(f.t1 for f in facts)
            assert run_stages(facts, f"filter_overlap({lo}, {hi})") == facts

    def test_containment_implies_overlap(self):
        for seed in range(100):
            rng = random.Random(seed)
            facts = distinct_facts(rng, size=15)
            a = rng.randint(1900, 2050)
            b = a + rng.randint(0, 40)
            contained = run_stages(facts, f"filter_within({a}, {b})")
            overlapping = run_stages(facts, f"filter_overlap({a}, {b})")
            assert set(contained) <= set(overlapping)

    def test_matches_naive_scan(self):
        for seed in range(1000):
            rng = random.Random(seed)
            facts = distinct_facts(rng, size=rng.randint(0, 12))
            t = rng.randint(1900, 2060)
            a, b = sorted((rng.randint(1900, 2060), rng.randint(1900, 2060)))
            window = Interval(a, b)
            assert run_stages(facts, f"filter_at({t})") == [f for f in facts if f.t0 <= t <= f.t1]
            assert run_stages(facts, f"filter_overlap({a}, {b})") == [
                f for f in facts if f.t0 <= b and a <= f.t1
            ]
            assert run_stages(facts, f"filter_within({a}, {b})") == [
                f for f in facts if a <= f.t0 and f.t1 <= b
            ]
            assert [f for f in facts if f.interval.contains_point(t)] == [f for f in facts if f.t0 <= t <= f.t1]
            assert [f for f in facts if f.interval.overlaps(window)] == [
                f for f in facts if f.t0 <= b and a <= f.t1
            ]
            assert [f for f in facts if f.interval.within(window)] == [
                f for f in facts if a <= f.t0 and f.t1 <= b
            ]


class TestCount:
    def test_empty(self):
        assert run_stages([], "count") == 0

    def test_fixture_full(self, fixture_a):
        assert execute(parse("facts(*, *, *) |> count"), fixture_a).value == 6

    def test_filter_never_grows(self):
        for seed in range(50):
            rng = random.Random(seed)
            facts = distinct_facts(rng)
            a, b = rng.randint(1900, 2040), rng.randint(2041, 2080)
            assert run_stages(facts, f"filter_overlap({a}, {b}) |> count") <= run_stages(facts, "count")


class TestFilterDuration:
    def test_at_least_five(self, fixture_a):
        assert execute(parse("facts(E1, R1, *) |> filter_dur(>=, 5)"), fixture_a).value == [F1, F3]

    def test_nonnegative_keeps_all(self, fixture_a):
        assert execute(parse("facts(*, *, *) |> filter_dur(>=, 0)"), fixture_a).value == list(fixture_a.facts)

    def test_above_max_empty(self, fixture_a):
        assert execute(parse("facts(E1, R1, *) |> filter_dur(>, 8)"), fixture_a).value == []

    def test_matches_naive_scan(self):
        for seed in range(1000):
            rng = random.Random(seed)
            facts = distinct_facts(rng, size=rng.randint(0, 12))
            op = rng.choice(tuple(NAIVE_COMPARATORS))
            n = rng.randint(0, 20)
            naive = [f for f in facts if NAIVE_COMPARATORS[op](f.t1 - f.t0, n)]
            assert run_stages(facts, f"filter_dur({op}, {n})") == naive
            assert [f for f in facts if DurationPredicate(op, n).matches(f.duration)] == naive

    def test_unknown_comparator(self):
        with pytest.raises(ValueError):
            DurationPredicate("!=", 3)


class TestMergeIntervals:
    def test_overlapping_chain(self):
        merged, total = merge_intervals([(2000, 2005), (2001, 2003), (2003, 2012)])
        assert merged == [Interval(2000, 2012)]
        assert total == 12

    def test_gap_not_merged(self):
        merged, total = merge_intervals([(2000, 2005), (2006, 2010)])
        assert merged == [Interval(2000, 2005), Interval(2006, 2010)]
        assert total == 9

    def test_empty(self):
        assert merge_intervals([]) == ([], 0)

    def test_shared_endpoint_merges(self):
        merged, total = merge_intervals([(2000, 2005), (2005, 2009)])
        assert merged == [Interval(2000, 2009)]
        assert total == 9

    def test_laws_on_random_lists(self):
        for seed in range(500):
            rng = random.Random(seed)
            ivs = []
            for _ in range(rng.randint(0, 12)):
                a = rng.randint(1900, 2050)
                ivs.append(Interval(a, a + rng.randint(0, 25)))
            merged, total = merge_intervals(ivs)
            # disjoint and sorted
            for prev, nxt in zip(merged, merged[1:]):
                assert prev.t1 < nxt.t0
            # bounded by the simple sum, equal iff nothing touched
            assert total <= sum(iv.length for iv in ivs)
            # fixpoint
            assert merge_intervals(merged) == (merged, total)
