import random
from fractions import Fraction
from math import comb

import pytest

from conftest import fam
from sperner.cascade import (cascade, kkt_shadow_bound, local_shade_bound,
                             local_shadow_bound, new_shade, new_shadow, shade,
                             shade_of_last_bound, shade_table, shadow)
from sperner.ground import Family, full_level, parse_set
from sperner.squashed import first_segment, last_segment, level_masks


class TestShadow:
    def test_first_segment_example(self):
        sh = shadow(first_segment(5, 3, 5))
        expected = {parse_set(s) for s in
                    ["12", "13", "14", "23", "24", "34", "15", "25"]}
        assert set(sh.members) == expected

    def test_full_level(self):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert shadow(full_level(n, k)) == full_level(n, k - 1)

    def test_single_set(self):
        assert shadow(fam(4, (1, 2, 3))) == fam(4, (1, 2), (1, 3), (2, 3))

    def test_errors(self):
        with pytest.raises(ValueError):
            shadow(fam(4, (1,), (1, 2)))  # not uniform
        with pytest.raises(ValueError):
            shadow(full_level(4, 0))  # rank 0
        assert shadow(Family(4, ())) == Family(4, ())


class TestShade:
    def test_last_segment_examples(self):
        assert shade(last_segment(4, 2, 1)) == fam(4, (1, 3, 4), (2, 3, 4))
        assert len(shade(last_segment(4, 2, 2))) == 3

    def test_full_level(self):
        for n in range(1, 8):
            for k in range(n):
                assert shade(full_level(n, k)) == full_level(n, k + 1)

    def test_rank_n_rejected(self):
        with pytest.raises(ValueError):
            shade(full_level(4, 4))


class TestNewShadowShade:
    def test_new_shade_single_sets(self):
        # fresh shade contributions of the last 2-sets of {1..4}
        assert new_shade(fam(4, (3, 4))) == fam(4, (1, 3, 4), (2, 3, 4))
        assert new_shade(fam(4, (1, 4))) == Family(4, ())

    def test_empty_family(self):
        assert new_shadow(Family(4, ())) == Family(4, ())
        assert new_shade(Family(4, ())) == Family(4, ())

    def test_new_shadow_of_whole_level_is_shadow(self):
        for n in range(2, 7):
            for k in range(1, n + 1):
                lv = full_level(n, k)
                assert new_shadow(lv) == shadow(lv)

    def test_new_shade_of_whole_level_is_shade(self):
        for n in range(2, 7):
            for k in range(n):
                lv = full_level(n, k)
                assert new_shade(lv) == shade(lv)

    def test_new_shadow_brute_force_definition(self):
        # fresh facets == facets not below any earlier k-set
        for n in range(2, 7):
            for k in range(1, n + 1):
                lv = level_masks(n, k)
                for idx, mask in enumerate(lv):
                    single = Family(n, (mask,))
                    prev = (shadow(Family(n, lv[:idx])).members if idx else ())
                    expected = (set(shadow(single).members) - set(prev))
                    assert set(new_shadow(single).members) == expected


class TestCascade:
    def test_examples(self):
        rep = cascade(5, 3)
        assert rep.terms == ((4, 3), (2, 2))
        assert rep.value() == 5
        assert cascade(comb(9, 4), 4).terms == ((9, 4),)
        for k in (1, 3, 6):
            assert cascade(1, k).terms == ((k, k),)

    def test_side_condition_and_reconstruction(self):
        for k in range(1, 8):
            for m in range(1, comb(12, k) + 1):
                rep = cascade(m, k)
                assert rep.value() == m
                a_values = [a for a, _ in rep.terms]
                i_values = [i for _, i in rep.terms]
                assert all(x > y for x, y in zip(a_values, a_values[1:]))
                assert i_values == list(range(k, k - len(i_values), -1))
                assert a_values[-1] >= i_values[-1] >= 1

    def test_uniqueness_against_enumeration(self):
        # the greedy representation is the only decreasing one: check by
        # enumerating all valid term sequences for small m, k
        from itertools import product
        for k in (2, 3):
            for m in range(1, 36):
                reps = []
                max_a = 10
                ranges = [range(i, max_a + 1) for i in range(k, 0, -1)]
                for prefix_len in range(1, k + 1):
                    for choice in product(*ranges[:prefix_len]):
                        if any(x <= y for x, y in zip(choice, choice[1:])):
                            continue
                        value = sum(comb(a, k - pos)
                                    for pos, a in enumerate(choice))
                        if value == m:
                            reps.append(tuple(
                                (a, k - pos) for pos, a in enumerate(choice)))
                greedy = cascade(m, k).terms
                assert greedy in reps
                assert len(reps) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cascade(0, 3)
        with pytest.raises(ValueError):
            cascade(-2, 3)
        with pytest.raises(ValueError):
            cascade(5, 0)
        with pytest.raises(ValueError):
            cascade(comb(60, 30) + 1, 30)

    def test_cap_value_accepted(self):
        rep = cascade(comb(60, 30), 30)
        assert rep.terms == ((60, 30),)


class TestClosedFormBounds:
    def test_kkt_examples(self):
        assert kkt_shadow_bound(5, 3) == 8
        for n in range(2, 9):
            for k in range(1, n + 1):
                assert kkt_shadow_bound(comb(n, k), k) == comb(n, k - 1)
        for k in range(1, 9):
            assert kkt_shadow_bound(1, k) == k
            assert kkt_shadow_bound(0, k) == 0

    def test_shade_of_last_examples(self):
        assert shade_of_last_bound(3, 4, 2) == 3
        assert shade_of_last_bound(6, 4, 2) == 4
        assert shade_of_last_bound(1, 4, 2) == 2
        assert shade_of_last_bound(0, 4, 2) == 0

    def test_local_bound_examples(self):
        assert local_shade_bound(6, 4, 2) == 4
        assert local_shade_bound(0, 4, 2) == 0
        assert local_shade_bound(10, 6, 3) == Fraction(30, 4)
        assert local_shadow_bound(6, 4, 2) == 4

    @pytest.mark.parametrize("bound,m,n,k,message", [
        (shade_of_last_bound, 1, 4, 4, "shade level 4 out of range for n=4"),
        (shade_of_last_bound, 7, 4, 2, "m=7 out of range for C(4,2)=6"),
        (local_shade_bound, 1, 4, -1, "shade level -1 out of range for n=4"),
        (local_shade_bound, -1, 4, 2, "m=-1 out of range for C(4,2)=6"),
        (local_shadow_bound, 1, 4, 0, "shadow level 0 out of range for n=4"),
        (local_shadow_bound, 5, 4, 3, "m=5 out of range for C(4,3)=4"),
        (local_shadow_bound, 1, 0, 1, "ground size must be in 1..60, got 0"),
    ])
    def test_bound_rejects_bad_input(self, bound, m, n, k, message):
        with pytest.raises(ValueError) as info:
            bound(m, n, k)
        assert str(info.value) == message

    def test_kkt_is_lower_bound_random_families(self):
        # 1000 random uniform families per (n, k); the closed forms are
        # true lower bounds, tight only on initial/last segments
        rng = random.Random(20260810)
        for n in range(2, 11):
            for k in range(1, n + 1):
                lv = level_masks(n, k)
                for _ in range(1000):
                    m = rng.randint(1, len(lv))
                    members = rng.sample(lv, m)
                    f = Family(n, tuple(members))
                    assert len(shadow(f)) >= kkt_shadow_bound(m, k)
                    if k <= n - 1:
                        assert len(shade(f)) >= shade_of_last_bound(m, n, k)

    def test_local_bound_equality_iff_trivial(self):
        # equality holds only for the empty family or the full level;
        # strict inequality for every proper nonempty first/last segment
        for n in range(2, 9):
            for k in range(n + 1):
                size = comb(n, k)
                for m in (0, size):
                    if k >= 1:
                        f = first_segment(n, k, m)
                        got = Fraction(len(shadow(f))) if m else Fraction(0)
                        assert got == local_shadow_bound(m, n, k)
                    if k <= n - 1:
                        f = last_segment(n, k, m)
                        got = Fraction(len(shade(f))) if m else Fraction(0)
                        assert got == local_shade_bound(m, n, k)
                for m in range(1, size):
                    if k >= 1:
                        assert len(shadow(first_segment(n, k, m))) \
                            > local_shadow_bound(m, n, k)
                    if k <= n - 1:
                        assert len(shade(last_segment(n, k, m))) \
                            > local_shade_bound(m, n, k)

    def test_equality_search_on_random_families(self):
        # by local LYM, equality holds only for the empty family and the
        # whole level, so no proper nonempty random family attains it
        rng = random.Random(7)
        hits = []
        for n in range(2, 8):
            for k in range(1, n):
                lv = level_masks(n, k)
                for _ in range(50):
                    m = rng.randint(1, len(lv) - 1)
                    f = Family(n, tuple(rng.sample(lv, m)))
                    if Fraction(len(shade(f))) == local_shade_bound(m, n, k):
                        hits.append((n, k, f.sets()))
        assert hits == []


class TestShadeTable:
    def test_shade_size_matches_closed_form(self):
        for n in (4, 6):
            for r in shade_table(n):
                assert r.shade_size == shade_of_last_bound(r.m, n, n // 2)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            shade_table(5)


class TestWindowMinimality:
    def test_window_sums_match_set_union(self):
        # the prefix-sum shortcut must agree with a literal set union
        from sperner.cascade import _level_fresh
        from sperner.squashed import segment
        n, k = 6, 3
        fresh = _level_fresh(n, k, False)
        size = comb(n, k)
        for m in (1, 3, 7):
            for start in range(0, size - m + 1):
                window = segment(n, k, start, m)
                got = len(new_shadow(window))
                assert got == sum(len(fresh[i]) for i in range(start, start + m))

    def test_shade_window_sums_match_set_union(self):
        # the backward walk of the table, against new_shade of each window
        from sperner.cascade import _level_fresh
        from sperner.squashed import segment
        n, k = 6, 3
        fresh = _level_fresh(n, k, True)
        size = comb(n, k)
        for m in (1, 3, 7):
            for start in range(0, size - m + 1):
                window = segment(n, k, start, m)
                got = len(new_shade(window))
                assert got == sum(len(fresh[i]) for i in range(start, start + m))
