import copy
import pickle
import random

import pytest

from conftest import fam, run_python
from sperner.ground import (Family, _bits, format_family, format_set,
                            full_level, independent, is_antichain,
                            is_cross_intersecting, mask_of, parse_family,
                            parse_set)
from sperner.normalize import normalize_pair


def reference_bits(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


class TestBits:
    # with items, each set bit j picks items[j]: objects that are not
    # their own index, so a pick by the wrong position shows
    ITEMS = [f"item {j}" for j in range(1 << 12)]

    def test_every_mask_below_2_12(self):
        assert list(_bits(0)) == []
        assert list(_bits(0, ())) == []
        for m in range(1 << 12):
            assert list(_bits(m)) == reference_bits(m)
            assert list(_bits(m, self.ITEMS)) == [
                self.ITEMS[j] for j in reference_bits(m)]

    def test_seeded_wide_then_narrow(self):
        # up to three times the 7 581 bits of an n=5 audit row
        rng = random.Random(35)
        for width in (3 * 7581, 7581, 7580, 1000, 64, 63, 2, 1):
            masks = [1 << (width - 1), (1 << width) - 1]
            masks += [rng.getrandbits(width) | 1 << (width - 1)
                      for _ in range(10)]
            # items exactly as wide as the widest mask, and wider
            items = [(width, j) for j in range(width + width % 2)]
            for m in masks:
                assert list(_bits(m)) == reference_bits(m)
                assert list(_bits(m, items)) == [
                    items[j] for j in reference_bits(m)]


class TestIndependent:
    def test_examples(self):
        assert independent(mask_of([1, 2]), mask_of([1, 3]))
        assert not independent(mask_of([1]), mask_of([1, 2]))
        assert not independent(mask_of([1, 2]), mask_of([1, 2]))

    def test_containment_reversal(self):
        # A <= B iff complement(B) <= complement(A), so independence is
        # preserved by complementing both sides (in swapped order); 0xFF
        # is {1..8}
        for x in range(1 << 8):
            for y in range(1 << 8):
                assert independent(x, y) == independent(0xFF ^ y, 0xFF ^ x)


class TestAntichain:
    def test_examples(self):
        assert is_antichain(fam(3, (1, 2), (1, 3), (2, 3)))
        assert not is_antichain(fam(2, (1,), (1, 2)))
        assert is_antichain(Family(3, ()))

    def test_subfamily_of_level_is_antichain(self):
        # every subfamily of every level for n <= 5 (at most 2^10 per
        # level), and every whole level for n <= 8
        for n in range(1, 9):
            for k in range(n + 1):
                level = full_level(n, k).members
                whole = (1 << len(level)) - 1
                for pick in range(whole + 1) if n <= 5 else (whole,):
                    members = [m for i, m in enumerate(level) if pick >> i & 1]
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

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Family(4, (3, 3))

    def test_from_sets_rejects_repeated_element(self):
        # ORing the elements would read (1, 1, 2) as {1,2}
        with pytest.raises(ValueError, match="repeats an element"):
            mask_of([1, 1, 2])
        with pytest.raises(ValueError, match="repeats an element"):
            Family.from_sets(4, [(1, 1, 2)])

    def test_from_sets_rejects_repeated_set(self):
        with pytest.raises(ValueError, match="pairwise distinct"):
            Family.from_sets(4, [(1, 2), (2, 1)])

    def test_from_masks_merges_repeats(self):
        assert Family.from_masks(4, [3, 3]) == Family(4, (3,))

    def test_value_contract(self):
        f = Family(4, [3, 1])
        assert f.members == (1, 3) and type(f.members) is tuple
        assert repr(f) == "Family(n=4, members=(1, 3))"
        same = Family(4, (1, 3))
        assert f == same and not f != same and hash(f) == hash(same)
        assert f != (4, (1, 3)) and not f == (4, (1, 3))
        with pytest.raises(TypeError):
            f < (4, (1, 3))

    def test_order_is_ground_then_members(self):
        small, large, wider = Family(4, (1,)), Family(4, (1, 3)), Family(5, ())
        assert small < large < wider and not large < small
        assert small <= large and small <= Family(4, (1,)) and not large <= small
        assert large > small and wider > large and not small > large
        assert large >= small and large >= Family(4, (1, 3)) and not small >= large
        assert sorted([wider, large, small]) == [small, large, wider]

    @pytest.mark.parametrize("change", [
        lambda f: setattr(f, "n", 5),
        lambda f: setattr(f, "members", ()),
        lambda f: setattr(f, "label", "x"),
        lambda f: delattr(f, "n"),
        lambda f: delattr(f, "members"),
    ], ids=["set-n", "set-members", "set-new", "del-n", "del-members"])
    def test_immutable(self, change):
        f = Family(4, (1, 3))
        with pytest.raises(AttributeError):
            change(f)
        assert f == Family(4, (1, 3)) and f.members == (1, 3)

    def test_ground_cap(self):
        with pytest.raises(ValueError):
            Family(61, ())
        Family(60, (1 << 59,))  # allowed

    @pytest.mark.parametrize("pushed", [False, True], ids=["unpushed", "pushed"])
    @pytest.mark.parametrize("clone", [
        lambda f: pickle.loads(pickle.dumps(f)),
        lambda f: pickle.loads(pickle.dumps(f, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-0", "copy", "deepcopy"])
    def test_clone_rebuilds_without_memo(self, clone, pushed):
        f = fam(5, (1, 2), (1, 3))
        if pushed:
            normalize_pair(f, f)
        g = clone(f)
        assert type(g) is Family and g == f and g is not f
        assert not hasattr(g, "_pushed")
        assert hasattr(f, "_pushed") is pushed


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

    @pytest.mark.parametrize("literal", ["{,}", "{1,,2}", "{1,2,}", "{,1}"])
    def test_set_literal_rejects_empty_item(self, literal):
        with pytest.raises(ValueError, match="empty item"):
            parse_set(literal, 4)

    @pytest.mark.parametrize("literal", ["{1 2}", "{1 2,3}"])
    def test_set_literal_rejects_two_numbers_in_one_item(self, literal):
        # a comma separates the elements; whitespace inside an item is not
        # a second separator
        with pytest.raises(ValueError, match="cannot parse set literal"):
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


@pytest.mark.parametrize("call", ["ground.elements_of(-3)",
                                  "ground.format_set(-1)",
                                  "squashed.rank(-1)"])
def test_negative_mask_rejected(call):
    # run in a child interpreter with a timeout: a low-bit loop over a
    # negative mask never reaches 0, and must fail here, not stall the suite
    script = ("from sperner import ground, squashed\n"
              f"try:\n    {call}\nexcept ValueError:\n    print('rejected')\n")
    proc = run_python("-c", script, timeout=10)
    assert proc.stdout == "rejected\n", proc.stderr
