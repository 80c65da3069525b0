"""Input checks across the package: each bad call raises ValueError with
its own message.  Self-checks too: each raises RuntimeError with its own
message once the helper it guards returns a wrong answer."""

import sys

import pytest

from sperner.cascade import cascade, kkt_shadow_bound, new_shade, new_shadow
from sperner.differences import check_lemma
from sperner.ground import (Family, _bits, elements_of, format_set, full_level,
                            mask_of, parse_family, parse_set)
from sperner.normalize import (middle_band, normalize_pair,
                               normalize_to_middle, push_down_max_rank,
                               push_up_min_rank)
from sperner.squashed import rank, unrank
from sperner.verifier import (canonical_family_key, canonical_pair_key,
                              max_cross_sum, middle_band_antichains,
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
    # a braced member is an optional '-' then ASCII digits, which int()
    # alone does not enforce
    (lambda: parse_set("{+1}"), "cannot parse set literal: '{+1}'"),
    (lambda: parse_set("{\u0661}"), "cannot parse set literal: '{\u0661}'"),
    (lambda: parse_set("{1_0}"), "cannot parse set literal: '{1_0}'"),
    (lambda: parse_set("{0}"), "elements are 1-indexed, got 0"),
    (lambda: parse_set("{-1}"), "elements are 1-indexed, got -1"),
    (lambda: format_set(1 << 9, compact=True),
     "compact notation needs single-digit elements"),
    (lambda: parse_family("# only a comment\n"),
     "family file has no 'n=<int>' header"),
    (lambda: parse_family("n=x\n{1}\n"),
     "family file header must be 'n=<int>', got 'n=x'"),
    (lambda: parse_family("n=1_2\n"),
     "family file header must be 'n=<int>', got 'n=1_2'"),
    (lambda: parse_family("n=\u0664\n"),
     "family file header must be 'n=<int>', got 'n=\u0664'"),
    (lambda: parse_family("n=4\n1\u00b2\n"),
     "cannot parse set literal: '1\u00b2'"),
    (lambda: _bits(-1), "a set mask is non-negative, got -1"),
    (lambda: elements_of(-1), "a set mask is non-negative, got -1"),
    (lambda: unrank(4, 5, 0), "level 5 out of range for n=4"),
    (lambda: rank(-1), "a set mask is non-negative, got -1"),
    (lambda: kkt_shadow_bound(-1, 3),
     "cascade representation needs m >= 1, got -1"),
    (lambda: kkt_shadow_bound(0, 0),
     "cascade representation needs k >= 1, got 0"),
    (lambda: new_shade(full_level(4, 4)), "new-shade undefined at rank n=4"),
    (lambda: new_shadow(Family(4, (0,))), "new-shadow undefined at rank 0"),
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
    (lambda: canonical_family_key(Family(7, ())),
     "canonical forms supported for n <= 6"),
    (lambda: canonical_pair_key(Family(7, ()), Family(7, ())),
     "canonical forms supported for n <= 6"),
    (lambda: normalization_pair_sweep(6),
     "the exhaustive pair sweep supports 1 <= n <= 5"),
    (lambda: normalization_pair_sweep(3, workers=0),
     "worker count must be >= 1, got 0"),
    (lambda: normalization_pair_sweep(3, workers=-4),
     "worker count must be >= 1, got -4"),
    (lambda: max_cross_sum(3, budget_seconds=float("nan")),
     "budget must be >= 0 seconds, got nan"),
    (lambda: max_cross_sum(3, budget_seconds=-1),
     "budget must be >= 0 seconds, got -1"),
    (lambda: middle_band_antichains(5, 0),
     "middle band enumeration needs even n"),
    (lambda: middle_band(0), "ground size must be in 1..60, got 0"),
    (lambda: middle_band(61), "ground size must be in 1..60, got 61"),
], ids=["Family-outside-ground", "mask_of-zero", "parse_set-unterminated",
        "parse_set-not-digits", "parse_set-braced-not-int",
        "parse_set-unicode-digit", "parse_set-braced-plus",
        "parse_set-braced-unicode-digit", "parse_set-braced-underscore",
        "parse_set-braced-zero", "parse_set-braced-negative",
        "format_set-compact-10", "parse_family-no-header",
        "parse_family-header-not-int",
        "parse_family-header-underscore", "parse_family-header-unicode-digit",
        "parse_family-unicode-digit",
        "_bits-negative", "elements_of-negative", "unrank-level",
        "rank-negative", "kkt_shadow_bound-negative-m",
        "kkt_shadow_bound-level-0", "new_shade-rank-n", "new_shadow-rank-0", "check_lemma-limit",
        "normalize_to_middle-partner", "push_up_min_rank-partner",
        "push_down_max_rank-partner",
        "normalize_pair-ground", "canonical_pair_key-ground",
        "canonical_family_key-n7", "canonical_pair_key-n7",
        "normalization_pair_sweep-n6", "normalization_pair_sweep-workers-0",
        "normalization_pair_sweep-workers-negative", "max_cross_sum-budget-nan",
        "max_cross_sum-budget-negative", "middle_band_antichains-odd",
        "middle_band-n0", "middle_band-n61"])
def test_bad_input_raises(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert message in str(info.value)


def _first_facet(mask):
    yield mask ^ (mask & -mask)


@pytest.mark.parametrize("module,helper,fake,call,message", [
    ("sperner.verifier", "is_cross_intersecting", lambda a, b: False,
     lambda: max_cross_sum(3), "the n=3 census seed levels do not cross-intersect"),
    # one facet per 2-set of {1..3} (drop its least element) leaves {1}
    # out of the fresh shadows
    ("sperner.cascade", "_facets", _first_facet,
     lambda: sys.modules["sperner.cascade"]._level_fresh.__wrapped__(3, 2, False),
     "fresh shadows of level 2 of n=3 do not partition level 1"),
    # C(i, i) = 1 at each i: the 1-term cascade of 2 keeps a remainder
    ("sperner.cascade", "_max_binom_arg", lambda rem, i: i,
     lambda: cascade(2, 1), "cascade of m=2, k=1 left remainder 1"),
    ("sperner.cascade", "_max_binom_arg", lambda rem, i: 5,
     lambda: cascade(11, 2),
     "cascade of m=11, k=2 breaks the decreasing side condition at a=5"),
    # C(i-1, i) = 0 removes nothing from the index
    ("sperner.squashed", "_max_binom_arg", lambda rem, i: i - 1,
     lambda: unrank(4, 2, 3), "unrank(4, 2, 3) gave 0b11 with remainder 3"),
], ids=["census-seed", "fresh-partition", "cascade-remainder",
        "cascade-side-condition", "unrank"])
def test_self_check_raises(monkeypatch, module, helper, fake, call, message):
    monkeypatch.setattr(sys.modules[module], helper, fake)
    with pytest.raises(RuntimeError) as info:
        call()
    assert message in str(info.value)
