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
    pytest.param(lambda: Family(2, (4,)), "set 4 uses elements outside 1..2",
                 id="Family-outside-ground"),
    # the range test reads only the least and largest member, so these
    # pin that the message still names the member out of range
    pytest.param(lambda: Family(3, (1, -2)), "set -2 uses elements outside 1..3",
                 id="Family-negative-not-first"),
    pytest.param(lambda: Family(3, (1, 2, 16)),
                 "set 16 uses elements outside 1..3",
                 id="Family-outside-not-first"),
    pytest.param(lambda: mask_of([0]), "elements are 1-indexed, got 0",
                 id="mask_of-zero"),
    pytest.param(lambda: parse_set("{1,2"), "unterminated set literal",
                 id="parse_set-unterminated"),
    pytest.param(lambda: parse_set("1a"), "cannot parse set literal",
                 id="parse_set-not-digits"),
    pytest.param(lambda: parse_set("{a}"), "cannot parse set literal: '{a}'",
                 id="parse_set-braced-not-int"),
    # a Unicode digit passes str.isdigit but not int()
    pytest.param(lambda: parse_set("1\u00b2"),
                 "cannot parse set literal: '1\u00b2'",
                 id="parse_set-unicode-digit"),
    # a braced member is an optional '-' then ASCII digits, which int()
    # alone does not enforce
    pytest.param(lambda: parse_set("{+1}"), "cannot parse set literal: '{+1}'",
                 id="parse_set-braced-plus"),
    pytest.param(lambda: parse_set("{\u0661}"),
                 "cannot parse set literal: '{\u0661}'",
                 id="parse_set-braced-unicode-digit"),
    pytest.param(lambda: parse_set("{1_0}"),
                 "cannot parse set literal: '{1_0}'",
                 id="parse_set-braced-underscore"),
    pytest.param(lambda: parse_set("{0}"), "elements are 1-indexed, got 0",
                 id="parse_set-braced-zero"),
    pytest.param(lambda: parse_set("{-1}"), "elements are 1-indexed, got -1",
                 id="parse_set-braced-negative"),
    pytest.param(lambda: format_set(1 << 9, compact=True),
                 "compact notation needs single-digit elements",
                 id="format_set-compact-10"),
    pytest.param(lambda: parse_family("# only a comment\n"),
                 "family file has no 'n=<int>' header",
                 id="parse_family-no-header"),
    pytest.param(lambda: parse_family("n=x\n{1}\n"),
                 "family file header must be 'n=<int>', got 'n=x'",
                 id="parse_family-header-not-int"),
    pytest.param(lambda: parse_family("n=1_2\n"),
                 "family file header must be 'n=<int>', got 'n=1_2'",
                 id="parse_family-header-underscore"),
    pytest.param(lambda: parse_family("n=\u0664\n"),
                 "family file header must be 'n=<int>', got 'n=\u0664'",
                 id="parse_family-header-unicode-digit"),
    pytest.param(lambda: parse_family("n=4\n1\u00b2\n"),
                 "cannot parse set literal: '1\u00b2'",
                 id="parse_family-unicode-digit"),
    pytest.param(lambda: _bits(-1), "a set mask is non-negative, got -1",
                 id="_bits-negative"),
    pytest.param(lambda: _bits(-1, "ab"), "a set mask is non-negative, got -1",
                 id="_bits-items-negative"),
    # compress would stop at the last item and drop the bits past it
    pytest.param(lambda: _bits(0b101, "ab"),
                 "mask has 3 bits, wider than its 2 items",
                 id="_bits-items-too-few"),
    pytest.param(lambda: elements_of(-1), "a set mask is non-negative, got -1",
                 id="elements_of-negative"),
    pytest.param(lambda: unrank(4, 5, 0), "level 5 out of range for n=4",
                 id="unrank-level"),
    pytest.param(lambda: rank(-1), "a set mask is non-negative, got -1",
                 id="rank-negative"),
    pytest.param(lambda: kkt_shadow_bound(-1, 3),
                 "cascade representation needs m >= 1, got -1",
                 id="kkt_shadow_bound-negative-m"),
    pytest.param(lambda: kkt_shadow_bound(0, 0),
                 "cascade representation needs k >= 1, got 0",
                 id="kkt_shadow_bound-level-0"),
    pytest.param(lambda: new_shade(full_level(4, 4)),
                 "new-shade undefined at rank n=4", id="new_shade-rank-n"),
    pytest.param(lambda: new_shadow(Family(4, (0,))),
                 "new-shadow undefined at rank 0", id="new_shadow-rank-0"),
    pytest.param(lambda: check_lemma("3.2", 0),
                 "limit must be positive, got 0", id="check_lemma-limit"),
    pytest.param(lambda: normalize_to_middle(ONE, CHAIN_THROUGH_ONE),
                 "partner family is not an antichain",
                 id="normalize_to_middle-partner"),
    pytest.param(lambda: push_up_min_rank(ONE, CHAIN_THROUGH_ONE),
                 "partner family is not an antichain",
                 id="push_up_min_rank-partner"),
    pytest.param(lambda: push_down_max_rank(
                     Family.from_sets(4, [(1, 2, 3, 4)]),
                     Family.from_sets(4, [(1, 2), (1, 2, 3)])),
                 "partner family is not an antichain",
                 id="push_down_max_rank-partner"),
    pytest.param(lambda: normalize_pair(Family(3, ()), Family(4, ())),
                 "family and partner live over different ground sizes",
                 id="normalize_pair-ground"),
    pytest.param(lambda: canonical_pair_key(Family(3, ()), Family(4, ())),
                 "pair members live over different ground sizes",
                 id="canonical_pair_key-ground"),
    pytest.param(lambda: canonical_family_key(Family(7, ())),
                 "canonical forms supported for n <= 6",
                 id="canonical_family_key-n7"),
    pytest.param(lambda: canonical_pair_key(Family(7, ()), Family(7, ())),
                 "canonical forms supported for n <= 6",
                 id="canonical_pair_key-n7"),
    pytest.param(lambda: normalization_pair_sweep(6),
                 "the exhaustive pair sweep supports 1 <= n <= 5",
                 id="normalization_pair_sweep-n6"),
    pytest.param(lambda: normalization_pair_sweep(3, workers=0),
                 "worker count must be >= 1, got 0",
                 id="normalization_pair_sweep-workers-0"),
    pytest.param(lambda: normalization_pair_sweep(3, workers=-4),
                 "worker count must be >= 1, got -4",
                 id="normalization_pair_sweep-workers-negative"),
    pytest.param(lambda: max_cross_sum(3, budget_seconds=float("nan")),
                 "budget must be >= 0 seconds, got nan",
                 id="max_cross_sum-budget-nan"),
    pytest.param(lambda: max_cross_sum(3, budget_seconds=-1),
                 "budget must be >= 0 seconds, got -1",
                 id="max_cross_sum-budget-negative"),
    pytest.param(lambda: middle_band_antichains(5, 0),
                 "middle band enumeration needs even n",
                 id="middle_band_antichains-odd"),
    pytest.param(lambda: middle_band(0), "ground size must be in 1..60, got 0",
                 id="middle_band-n0"),
    pytest.param(lambda: middle_band(61),
                 "ground size must be in 1..60, got 61", id="middle_band-n61"),
])
def test_bad_input_raises(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert message in str(info.value)


def _first_facet(mask):
    yield mask ^ (mask & -mask)


@pytest.mark.parametrize("module,helper,fake,call,message", [
    pytest.param("sperner.verifier", "is_cross_intersecting",
                 lambda a, b: False, lambda: max_cross_sum(3),
                 "the n=3 census seed levels do not cross-intersect",
                 id="census-seed"),
    # one facet per 2-set of {1..3} (drop its least element) leaves {1}
    # out of the fresh shadows
    pytest.param("sperner.cascade", "_facets", _first_facet,
                 lambda: sys.modules["sperner.cascade"]._level_fresh
                 .__wrapped__(3, 2, False),
                 "fresh shadows of level 2 of n=3 do not partition level 1",
                 id="fresh-partition"),
    # C(i, i) = 1 at each i: the 1-term cascade of 2 keeps a remainder
    pytest.param("sperner.cascade", "_max_binom_arg", lambda rem, i: i,
                 lambda: cascade(2, 1), "cascade of m=2, k=1 left remainder 1",
                 id="cascade-remainder"),
    pytest.param("sperner.cascade", "_max_binom_arg", lambda rem, i: 5,
                 lambda: cascade(11, 2),
                 "cascade of m=11, k=2 breaks the decreasing side condition at a=5",
                 id="cascade-side-condition"),
    # C(i-1, i) = 0 removes nothing from the index
    pytest.param("sperner.squashed", "_max_binom_arg", lambda rem, i: i - 1,
                 lambda: unrank(4, 2, 3),
                 "unrank(4, 2, 3) gave 0b11 with remainder 3", id="unrank"),
])
def test_self_check_raises(monkeypatch, module, helper, fake, call, message):
    monkeypatch.setattr(sys.modules[module], helper, fake)
    with pytest.raises(RuntimeError) as info:
        call()
    assert message in str(info.value)
