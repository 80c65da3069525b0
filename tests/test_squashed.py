import random
from math import comb

import pytest

from sperner.ground import Family, full_level, parse_set
from sperner.squashed import (EQ, GT, LT, first_segment, last_segment,
                              level_masks, rank, segment, squash_compare,
                              unrank)


def symdiff_compare(a, b):
    """Definitional comparator: the largest element of the symmetric
    difference decides (it lies in the larger set)."""
    if a == b:
        return EQ
    d = a ^ b
    top = 1 << (d.bit_length() - 1)
    return LT if b & top else GT


REFERENCE_ORDER = ["123", "124", "134", "234", "125",
                   "135", "235", "145", "245", "345"]


class TestCompare:
    def test_examples(self):
        assert squash_compare(parse_set("134"), parse_set("234")) == LT
        assert squash_compare(parse_set("234"), parse_set("125")) == LT
        assert squash_compare(parse_set("123"), parse_set("123")) == EQ

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            squash_compare(parse_set("12"), parse_set("123"))

    def test_reference_order_n5_k3(self):
        lv = [parse_set(s) for s in REFERENCE_ORDER]
        assert level_masks(5, 3) == tuple(lv)
        for i, a in enumerate(lv):
            for j, b in enumerate(lv):
                want = LT if i < j else (EQ if i == j else GT)
                assert squash_compare(a, b) == want

    def test_matches_symmetric_difference_definition(self):
        # same-level pairs, exhaustive for n <= 8
        for n in range(1, 9):
            for k in range(n + 1):
                for a in level_masks(n, k):
                    for b in level_masks(n, k):
                        assert squash_compare(a, b) == symdiff_compare(a, b)

    def test_trichotomy_and_antisymmetry(self):
        for n in range(1, 9):
            for k in range(n + 1):
                lv = level_masks(n, k)
                for a in lv:
                    for b in lv:
                        c1, c2 = squash_compare(a, b), squash_compare(b, a)
                        assert c1 == -c2
                        assert (c1 == EQ) == (a == b)

    def test_transitivity_symdiff_definition(self):
        # via the definitional comparator directly, exhaustively for n <= 6
        # (n <= 8 follows from the equivalence test: integer order is
        # transitive)
        for n in range(1, 7):
            for k in range(n + 1):
                lv = level_masks(n, k)
                for a in lv:
                    for b in lv:
                        if symdiff_compare(a, b) != LT:
                            continue
                        for c in lv:
                            if symdiff_compare(b, c) == LT:
                                assert symdiff_compare(a, c) == LT

    def test_complement_reversal(self):
        # x < y iff complement(y) < complement(x), level vs co-level
        for n in range(1, 9):
            full = (1 << n) - 1
            for k in range(n + 1):
                lv = level_masks(n, k)
                for a in lv:
                    for b in lv:
                        assert (squash_compare(a, b)
                                == squash_compare(full ^ b, full ^ a))


class TestRankUnrank:
    def test_examples(self):
        assert rank(parse_set("123")) == 0
        assert rank(parse_set("345")) == 9
        assert rank(parse_set("125")) == 4
        assert unrank(5, 3, 3) == parse_set("234")
        assert unrank(4, 2, 0) == parse_set("12")
        assert unrank(5, 3, 7) == parse_set("145")

    def test_bijection_all_levels(self):
        for n in range(1, 11):
            for k in range(n + 1):
                for idx, mask in enumerate(level_masks(n, k)):
                    assert rank(mask) == idx
                    assert unrank(n, k, idx) == mask
        # beyond the materialized levels: seeded draws at n=60
        rng = random.Random(60)
        for _ in range(500):
            k = rng.randint(0, 60)
            idx = rng.randrange(comb(60, k))
            mask = unrank(60, k, idx)
            assert mask >> 60 == 0 and mask.bit_count() == k
            assert rank(mask) == idx

    def test_empty_set(self):
        assert rank(0) == 0
        assert unrank(4, 0, 0) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            unrank(5, 3, 10)
        with pytest.raises(ValueError):
            unrank(5, 3, -1)


class TestSegments:
    def test_examples(self):
        assert last_segment(4, 2, 1).members == (parse_set("34"),)
        assert last_segment(4, 2, 3) == Family.from_sets(4, [(1, 4), (2, 4), (3, 4)])
        assert first_segment(5, 3, 2).members == (parse_set("123"),
                                                  parse_set("124"))

    def test_first_full_is_level(self):
        for n in range(1, 8):
            for k in range(n + 1):
                assert first_segment(n, k, comb(n, k)) == full_level(n, k)

    def test_last_is_complement_of_first(self):
        for n in range(1, 8):
            for k in range(n + 1):
                size = comb(n, k)
                for m in range(size + 1):
                    last = set(last_segment(n, k, m).members)
                    rest = set(first_segment(n, k, size - m).members)
                    assert last | rest == set(level_masks(n, k))
                    assert not last & rest

    def test_segment_window(self):
        assert segment(5, 3, 2, 3).members == tuple(
            parse_set(s) for s in ["134", "234", "125"])
        with pytest.raises(ValueError):
            segment(5, 3, 8, 3)
        with pytest.raises(ValueError):
            first_segment(5, 3, 11)

    @pytest.mark.parametrize("call,message", [
        (lambda: first_segment(4, 2, 7), "m=7 out of range for C(4,2)=6"),
        (lambda: first_segment(4, 2, -1), "m=-1 out of range for C(4,2)=6"),
        (lambda: last_segment(4, 2, 99), "m=99 out of range for C(4,2)=6"),
        (lambda: last_segment(4, 2, -1), "m=-1 out of range for C(4,2)=6"),
        (lambda: segment(5, 3, 8, 3), "m=3 out of range for C(5,3)=10 from start=8"),
        (lambda: segment(5, 3, 2, -1), "m=-1 out of range for C(5,3)=10 from start=2"),
        (lambda: segment(5, 3, 11, 0), "start=11 out of range for C(5,3)=10"),
        (lambda: segment(5, 3, -1, 2), "start=-1 out of range for C(5,3)=10"),
    ], ids=["first-over", "first-negative", "last-over", "last-negative",
            "segment-past-end", "segment-negative-m", "segment-start-over",
            "segment-start-negative"])
    def test_bad_count_names_the_argument(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_segment_may_end_at_the_level_end(self):
        assert segment(5, 3, 10, 0).members == ()
        assert segment(5, 3, 7, 3).members == level_masks(5, 3)[7:]

    def test_materialization_cap(self):
        with pytest.raises(ValueError):
            first_segment(21, 2, 1)


def test_level_is_sorted_by_colex():
    for n in range(1, 11):
        for k in range(n + 1):
            lv = level_masks(n, k)
            assert list(lv) == sorted(lv)
            assert len(lv) == comb(n, k)
            assert all(m.bit_count() == k for m in lv)
