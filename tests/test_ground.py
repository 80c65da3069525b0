import pytest
from hypothesis import given, strategies as st

from sperner.ground import (Family, complement, format_family, format_set,
                            full_level, independent, is_antichain,
                            is_cross_intersecting, mask_of, parse_family,
                            parse_set)


def fam(n, *sets):
    return Family.from_sets(n, sets)


def masks(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1)


class TestComplement:
    def test_examples(self):
        assert complement(mask_of([1, 2]), 4) == mask_of([3, 4])
        assert complement(0, 4) == mask_of([1, 2, 3, 4])
        assert complement(mask_of([1, 3, 5]), 5) == mask_of([2, 4])

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), masks(n))))
    def test_involution(self, args):
        n, x = args
        assert complement(complement(x, n), n) == x

    def test_involution_exhaustive_small(self):
        for n in range(1, 7):
            for x in range(1 << n):
                assert complement(complement(x, n), n) == x

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            complement(1 << 4, 4)
        with pytest.raises(ValueError):
            complement(0, 61)


class TestIndependent:
    def test_examples(self):
        assert independent(mask_of([1, 2]), mask_of([1, 3]))
        assert not independent(mask_of([1]), mask_of([1, 2]))
        assert not independent(mask_of([1, 2]), mask_of([1, 2]))

    @given(st.tuples(masks(8), masks(8)))
    def test_containment_reversal(self, xy):
        # A <= B iff complement(B) <= complement(A), so independence is
        # preserved by complementing both sides (in swapped order)
        x, y = xy
        assert independent(x, y) == independent(complement(y, 8), complement(x, 8))


class TestAntichain:
    def test_examples(self):
        assert is_antichain(fam(3, (1, 2), (1, 3), (2, 3)))
        assert not is_antichain(fam(2, (1,), (1, 2)))
        assert is_antichain(Family(3, ()))

    @given(st.integers(1, 8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n),
                            st.sets(st.integers(0, 1 << 16)))))
    def test_subfamily_of_level_is_antichain(self, args):
        n, k, picks = args
        level = full_level(n, k)
        members = [level.members[p % len(level.members)] for p in picks]
        assert is_antichain(Family.from_masks(n, members))


class TestCrossIntersecting:
    def test_examples(self):
        a = fam(4, (1, 2), (1, 3))
        b = fam(4, (1, 4))
        assert is_cross_intersecting(a, b)
        assert not is_cross_intersecting(fam(4, (1, 2)), fam(4, (3, 4)))
        assert is_cross_intersecting(Family(4, ()), b)

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            is_cross_intersecting(fam(4, (1,)), fam(5, (1,)))

    def test_complement_exclusion_exhaustive_n4(self):
        # crossing antichain pairs never contain a member plus its
        # complement on the other side
        from sperner.verifier import enumerate_antichains
        fams = list(enumerate_antichains(4))
        for a in fams:
            for b in fams:
                if not is_cross_intersecting(a, b):
                    continue
                bset = set(b.members)
                assert not any(complement(x, 4) in bset for x in a.members)


class TestFullLevel:
    def test_examples(self):
        assert len(full_level(4, 2)) == 6
        lv = full_level(5, 3)
        assert lv.members[0] == mask_of([1, 2, 3])
        assert lv.members[-1] == mask_of([3, 4, 5])
        assert full_level(3, 0).members == (0,)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            full_level(4, 5)
        with pytest.raises(ValueError):
            full_level(21, 2)


class TestFamily:
    def test_canonical_order_and_equality(self):
        f1 = Family.from_sets(4, [(3, 4), (1, 2), (1,)])
        f2 = Family.from_sets(4, [(1,), (1, 2), (3, 4)])
        assert f1 == f2
        assert [format_set(m) for m in f1.members] == ["{1}", "{1,2}", "{3,4}"]

    def test_membership(self):
        f = fam(4, (1,), (3, 4))
        assert mask_of((3, 4)) in f and mask_of((1,)) in f
        assert mask_of((1, 2)) not in f and 0 not in f
        assert mask_of((3, 4)) not in Family(4, ())

    def test_by_rank_partition(self):
        f = fam(4, (1,), (1, 2), (3, 4), (2, 3, 4))
        assert set(f.by_rank) == {1, 2, 3}
        total = [m for k in sorted(f.by_rank) for m in f.by_rank[k]]
        assert sorted(total) == sorted(f.members)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Family(4, (3, 3))

    def test_ground_cap(self):
        with pytest.raises(ValueError):
            Family(61, ())
        Family(60, (1 << 59,))  # allowed


class TestTextFormats:
    def test_parse_braces_and_compact(self):
        assert parse_set("{1,3,4}") == mask_of([1, 3, 4])
        assert parse_set(" { 2 , 4 } ") == mask_of([2, 4])
        assert parse_set("{}") == 0
        assert parse_set("134", 5) == mask_of([1, 3, 4])
        with pytest.raises(ValueError):
            parse_set("134", 10)  # compact needs single-digit ground
        with pytest.raises(ValueError):
            parse_set("{12}", 4)  # element out of range

    @pytest.mark.parametrize("literal", ["{1,1,2}", "112"])
    def test_set_literal_rejects_repeated_element(self, literal):
        # ORing the elements would read either literal as {1,2}
        with pytest.raises(ValueError, match="repeats an element"):
            parse_set(literal, 4)

    def test_format_round_trip(self):
        for n in (4, 9):
            for x in (0, mask_of([1]), mask_of([2, 3]), (1 << n) - 1):
                assert parse_set(format_set(x), n) == x

    def test_family_file_round_trip(self):
        f = fam(5, (1, 2), (3, 4, 5), (2, 5))
        assert parse_family(format_family(f)) == f

    def test_family_file_comments(self):
        text = "# header comment\nn=4\n{1,2} # trailing\n\n34\n"
        f = parse_family(text)
        assert f == fam(4, (1, 2), (3, 4))

    def test_family_file_requires_header(self):
        with pytest.raises(ValueError):
            parse_family("{1,2}\n")

    def test_family_file_rejects_repeated_set(self):
        # {2,1} is {1,2} again; the file must not be read as a smaller family
        with pytest.raises(ValueError, match="pairwise distinct"):
            parse_family("n=4\n{1,2}\n{2,1}\n")
