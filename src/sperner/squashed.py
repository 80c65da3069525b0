"""Squashed (colex) order on k-sets: comparison, rank/unrank, segments.

On equal-size sets the squashed order "largest element of the symmetric
difference decides" coincides with colex order of the element lists,
which in the bit-mask encoding is plain integer comparison.  The rank of
a k-set {c_1 < ... < c_k} within its level is sum_i C(c_i - 1, i) --
the combinatorial number system -- so rank/unrank run in O(k) without
enumerating the level.
"""

from __future__ import annotations

from math import comb

from .ground import Family, _bits, check_ground, full_level

LT, EQ, GT = -1, 0, 1


def squash_compare(a: int, b: int) -> int:
    """-1, 0 or 1 as a precedes, equals or follows b in squashed order.

    Defined on sets of equal cardinality only.
    """
    if a.bit_count() != b.bit_count():
        raise ValueError("squashed order compares sets of equal cardinality")
    if a == b:
        return EQ
    return LT if a < b else GT


def rank(x: int) -> int:
    """Number of equal-size sets strictly preceding x in squashed order."""
    return sum(comb(b, i) for i, b in enumerate(_bits(x), 1))


def _max_binom_arg(rem: int, i: int) -> int:
    """Largest a with C(a, i) <= rem (rem >= 1)."""
    if i == 1:
        return rem
    lo, hi = i, i + 1  # C(i,i) = 1 <= rem
    while comb(hi, i) <= rem:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, i) <= rem:
            lo = mid
        else:
            hi = mid
    return lo


def _greedy_binomials(m: int, k: int) -> tuple[list[tuple[int, int]], int]:
    """The greedy terms (a, i) of m >= 0, i = k, k-1, ... while m is not
    spent, each a = max{a : C(a, i) <= what is left}, and what is left
    after them: 0 unless a step is wrong, as C(a, 1) = a takes it all."""
    terms = []
    while m and k:
        a = _max_binom_arg(m, k)
        terms.append((a, k))
        m, k = m - comb(a, k), k - 1
    return terms, m


def unrank(n: int, k: int, index: int) -> int:
    """The k-subset of {1..n} at the given squashed-order position."""
    check_ground(n)
    if not 0 <= k <= n:
        raise ValueError(f"level {k} out of range for n={n}")
    if not 0 <= index < comb(n, k):
        raise ValueError(f"index {index} out of range for C({n},{k})={comb(n, k)}")
    terms, rem = _greedy_binomials(index, k)
    # each i below the terms takes a = i - 1, as C(i-1, i) = 0
    mask = (1 << (k - len(terms))) - 1
    for a, _ in terms:
        mask |= 1 << a  # element a+1
    if rem or mask.bit_count() != k:
        raise RuntimeError(f"unrank({n}, {k}, {index}) gave {mask:#b} "
                           f"with remainder {rem}")
    return mask


def level_masks(n: int, k: int) -> tuple[int, ...]:
    """The whole level, squashed order (errors for n > 20)."""
    return full_level(n, k).members


def _checked_level(n: int, k: int, m: int, start: int = 0) -> tuple[int, ...]:
    """The level, once m sets from position start are known to fit in it."""
    lv = level_masks(n, k)
    size = len(lv)
    if not 0 <= start <= size:
        raise ValueError(f"start={start} out of range for C({n},{k})={size}")
    if not 0 <= m <= size - start:
        after = f" from start={start}" if start else ""
        raise ValueError(f"m={m} out of range for C({n},{k})={size}{after}")
    return lv


def first_segment(n: int, k: int, m: int) -> Family:
    """The first m k-subsets of {1..n} in squashed order."""
    return Family(n, _checked_level(n, k, m)[:m])


def last_segment(n: int, k: int, m: int) -> Family:
    """The last m k-subsets of {1..n} in squashed order."""
    lv = _checked_level(n, k, m)
    return Family(n, lv[len(lv) - m:])


def segment(n: int, k: int, start: int, m: int) -> Family:
    """m consecutive k-subsets starting at squashed-order position start."""
    return Family(n, _checked_level(n, k, m, start)[start:start + m])
