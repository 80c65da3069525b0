"""Input checks across the package: each bad call raises ValueError with
its own message."""

import pytest

from sperner.differences import check_lemma
from sperner.ground import Family, format_set, mask_of, parse_family, parse_set
from sperner.normalize import (normalize_pair, normalize_to_middle,
                               push_down_max_rank, push_up_min_rank)
from sperner.squashed import unrank
from sperner.verifier import (canonical_pair_key, middle_band_antichains,
                              normalization_pair_sweep)

ONE = Family.from_sets(4, [(1,)])
CHAIN_THROUGH_ONE = Family.from_sets(4, [(1,), (1, 2)])


@pytest.mark.parametrize("call,message", [
    (lambda: Family(2, (4,)), "set 4 uses elements outside 1..2"),
    (lambda: mask_of([0]), "elements are 1-indexed, got 0"),
    (lambda: parse_set("{1,2"), "unterminated set literal"),
    (lambda: parse_set("1a"), "cannot parse set literal"),
    (lambda: parse_set("{a}"), "cannot parse set literal: '{a}'"),
    # a Unicode digit passes str.isdigit but not int()
    (lambda: parse_set("1\u00b2"), "cannot parse set literal: '1\u00b2'"),
    (lambda: format_set(1 << 9, compact=True),
     "compact notation needs single-digit elements"),
    (lambda: parse_family("# only a comment\n"),
     "family file has no 'n=<int>' header"),
    (lambda: parse_family("n=4\n{5}\n"), "set {5} uses elements outside 1..4"),
    (lambda: parse_family("n=x\n{1}\n"),
     "family file header must be 'n=<int>', got 'n=x'"),
    (lambda: parse_family("n=4\n{1,2,x}\n"),
     "cannot parse set literal: '{1,2,x}'"),
    (lambda: parse_family("n=4\n1\u00b2\n"),
     "cannot parse set literal: '1\u00b2'"),
    (lambda: unrank(4, 5, 0), "level 5 out of range for n=4"),
    (lambda: check_lemma("3.2", 0), "limit must be positive, got 0"),
    (lambda: normalize_to_middle(ONE, CHAIN_THROUGH_ONE),
     "partner family is not an antichain"),
    (lambda: push_up_min_rank(ONE, CHAIN_THROUGH_ONE),
     "partner family is not an antichain"),
    (lambda: push_down_max_rank(Family.from_sets(4, [(1, 2, 3, 4)]),
                                Family.from_sets(4, [(1, 2), (1, 2, 3)])),
     "partner family is not an antichain"),
    (lambda: normalize_pair(Family(3, ()), Family(4, ())),
     "family and partner live over different ground sizes"),
    (lambda: canonical_pair_key(Family(3, ()), Family(4, ())),
     "pair members live over different ground sizes"),
    (lambda: normalization_pair_sweep(6),
     "the exhaustive pair sweep supports 1 <= n <= 5"),
    (lambda: middle_band_antichains(5, 0),
     "middle band enumeration needs even n"),
], ids=["Family-outside-ground", "mask_of-zero", "parse_set-unterminated",
        "parse_set-not-digits", "parse_set-braced-not-int",
        "parse_set-unicode-digit",
        "format_set-compact-10", "parse_family-no-header",
        "parse_family-member-outside", "parse_family-header-not-int",
        "parse_family-member-not-int", "parse_family-unicode-digit",
        "unrank-level", "check_lemma-limit",
        "normalize_to_middle-partner", "push_up_min_rank-partner",
        "push_down_max_rank-partner",
        "normalize_pair-ground", "canonical_pair_key-ground",
        "normalization_pair_sweep-n6", "middle_band_antichains-odd"])
def test_bad_input_raises(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert message in str(info.value)
