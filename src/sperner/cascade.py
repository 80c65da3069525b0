"""Shadows, shades, their "new" variants, and the closed-form counting
machinery: cascade (k-binomial) representations, the Kruskal-Katona
shadow bound, its shade dual, and the local counting bounds.

Shadows and shades are always computed by brute-force union over the
members; the closed forms never feed back into them, so the two routes
stay independently checkable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .ground import Family, check_ground
from .squashed import _max_binom_arg, level_masks, rank

if TYPE_CHECKING:
    # fractions loads decimal and numbers; the functions that build a
    # Fraction import it when called, so a CLI start does not pay for it
    from fractions import Fraction

MAX_REPRESENTABLE = comb(60, 30)


# ---------------------------------------------------------------------------
# brute-force shadow / shade


def _uniform_rank(f: Family) -> int:
    # f is not empty, and its members are sorted by rank, so the first
    # and last bound every rank
    k = f.members[0].bit_count()
    if f.members[-1].bit_count() != k:
        raise ValueError("operation needs a uniform-rank family")
    return k


def _facets(mask: int):
    m = mask
    while m:
        low = m & -m
        yield mask ^ low
        m ^= low


def _covers(mask: int, n: int):
    free = ((1 << n) - 1) ^ mask
    while free:
        low = free & -free
        yield mask | low
        free ^= low


def shadow(f: Family) -> Family:
    """All (k-1)-sets contained in some member of a k-uniform family."""
    if not f.members:
        return Family(f.n, ())
    k = _uniform_rank(f)
    if k == 0:
        raise ValueError("shadow undefined at rank 0")
    return Family.from_masks(f.n, (x for m in f.members for x in _facets(m)))


def shade(f: Family) -> Family:
    """All (k+1)-sets containing some member of a k-uniform family."""
    if not f.members:
        return Family(f.n, ())
    k = _uniform_rank(f)
    if k == f.n:
        raise ValueError(f"shade undefined at rank n={f.n}")
    return Family.from_masks(f.n, (x for m in f.members for x in _covers(m, f.n)))


@lru_cache(maxsize=None)
def _level_fresh(n: int, k: int, up: bool) -> tuple[frozenset[int], ...]:
    """Per squashed-order position of level k: the facets not below any
    earlier k-set, walking forward; with `up`, the covers not above any
    later k-set, walking backward."""
    lv = level_masks(n, k)
    seen: set[int] = set()
    out: list[frozenset[int]] = [frozenset()] * len(lv)
    for i in (reversed(range(len(lv))) if up else range(len(lv))):
        near = frozenset(_covers(lv[i], n) if up else _facets(lv[i]))
        out[i] = near - seen
        seen |= near
    # fresh contributions partition the neighbouring level
    j = k + 1 if up else k - 1
    if not sum(len(fs) for fs in out) == len(seen) == comb(n, j):
        raise RuntimeError(f"fresh {'shades' if up else 'shadows'} of level "
                           f"{k} of n={n} do not partition level {j}")
    return tuple(out)


def _fresh_sizes(n: int, k: int, up: bool) -> list[int]:
    """Entry m is |shadow of the first m k-sets|, or with `up`, |shade of
    the last m|.  Fresh contributions partition the shadow (shade), so
    these are prefix sums of their sizes in the walking order."""
    fresh = _level_fresh(n, k, up)
    walk = reversed(fresh) if up else fresh
    return [0, *accumulate(len(fs) for fs in walk)]


def _fresh_union(f: Family, up: bool) -> Family:
    if not f.members:
        return Family(f.n, ())
    k = _uniform_rank(f)
    if k == (f.n if up else 0):
        raise ValueError(f"new-shade undefined at rank n={f.n}" if up
                         else "new-shadow undefined at rank 0")
    fresh = _level_fresh(f.n, k, up)
    out: set[int] = set()
    for m in f.members:
        out |= fresh[rank(m)]
    return Family.from_masks(f.n, out)


def new_shadow(f: Family) -> Family:
    """Union over members S of the facets of S not in the shadow of any
    k-set preceding S in squashed order (predecessors range over the
    whole level, not just the family)."""
    return _fresh_union(f, up=False)


def new_shade(f: Family) -> Family:
    """Dual of new_shadow: covers not above any later k-set."""
    return _fresh_union(f, up=True)


# ---------------------------------------------------------------------------
# cascade representation and closed-form bounds


class CascadeRep(NamedTuple):
    """The k-binomial representation m = C(a_k,k) + ... + C(a_t,t) with
    a_k > a_{k-1} > ... > a_t >= t >= 1 (terms with zero remainder are
    omitted, so every listed term is positive)."""

    k: int
    terms: tuple[tuple[int, int], ...]  # (a_i, i), i strictly descending

    def value(self) -> int:
        return sum(comb(a, i) for a, i in self.terms)

    def shifted_sum(self, shift: int) -> int:
        """Sum of C(a_i, i + shift) over the terms."""
        return sum(comb(a, i + shift) for a, i in self.terms)

    def __str__(self) -> str:
        return "+".join(f"C({a},{i})" for a, i in self.terms)


def cascade(m: int, k: int) -> CascadeRep:
    """Greedy k-binomial representation of m.

    Greedy means a_k = max{a : C(a,k) <= m}, then recurse on the
    remainder at k-1; this is the unique representation satisfying the
    strictly-decreasing side condition.
    """
    if k < 1:
        raise ValueError(f"cascade representation needs k >= 1, got {k}")
    if m < 1:
        raise ValueError(f"cascade representation needs m >= 1, got {m}")
    if m > MAX_REPRESENTABLE:
        raise ValueError(f"m exceeds the supported cap C(60,30)={MAX_REPRESENTABLE}")
    terms: list[tuple[int, int]] = []
    rem, i = m, k
    while rem > 0:
        # C(a,1)=a always absorbs the remainder by i=1
        if i < 1:
            raise RuntimeError(f"cascade of m={m}, k={k} left remainder {rem}")
        a = _max_binom_arg(rem, i)
        if terms and a >= terms[-1][0]:
            raise RuntimeError(f"cascade of m={m}, k={k} breaks the "
                               f"decreasing side condition at a={a}")
        terms.append((a, i))
        rem -= comb(a, i)
        i -= 1
    return CascadeRep(k, tuple(terms))


def kkt_shadow_bound(m: int, k: int) -> int:
    """C(a_k,k-1) + ... + C(a_t,t-1): the minimum shadow size of m k-sets,
    attained exactly by the first m k-sets in squashed order (0 at m = 0)."""
    if m == 0 and k >= 1:
        return 0
    return cascade(m, k).shifted_sum(-1)


def _check_segment(m: int, n: int, k: int, up: bool) -> None:
    """m k-sets of {1..n} whose shade (`up`) or shadow is bounded."""
    check_ground(n)
    if not (0 <= k < n if up else 0 < k <= n):
        raise ValueError(f"{'shade' if up else 'shadow'} level {k} out of "
                         f"range for n={n}")
    if not 0 <= m <= comb(n, k):
        raise ValueError(f"m={m} out of range for C({n},{k})={comb(n, k)}")


def shade_of_last_bound(m: int, n: int, k: int) -> int:
    """|shade of the last m k-sets of {1..n}|, via the complement duality
    |shade L_{n,k}(m)| = |shadow F_{n,n-k}(m)|."""
    _check_segment(m, n, k, up=True)
    return kkt_shadow_bound(m, n - k)


def local_shade_bound(m: int, n: int, k: int) -> Fraction:
    """(n-k)/(k+1) * m: counting lower bound for the shade of m k-sets."""
    from fractions import Fraction
    _check_segment(m, n, k, up=True)
    return Fraction((n - k) * m, k + 1)


def local_shadow_bound(m: int, n: int, k: int) -> Fraction:
    """k/(n-k+1) * m: counting lower bound for the shadow of m k-sets."""
    from fractions import Fraction
    _check_segment(m, n, k, up=False)
    return Fraction(k * m, n - k + 1)


# ---------------------------------------------------------------------------
# last-segment shade table (middle level of an even ground)


class ShadeTableRow(NamedTuple):
    m: int
    last_set: int                 # the m-th k-set from the end
    new_shade: tuple[int, ...]    # its fresh contribution to the shade
    shade_size: int               # |shade of the last m k-sets|, brute force
    bound: Fraction               # n/(n+2) * m + 1


def shade_table(n: int = 4) -> list[ShadeTableRow]:
    """Row-by-row profile of the last-segment shade at level n/2."""
    from fractions import Fraction
    check_ground(n)
    if n % 2:
        raise ValueError(f"shade table needs an even ground size, got {n}")
    k = n // 2
    lv = level_masks(n, k)
    fresh = _level_fresh(n, k, True)
    sizes = _fresh_sizes(n, k, True)
    rows = []
    for m in range(1, len(lv) + 1):
        pos = len(lv) - m
        rows.append(ShadeTableRow(
            m=m,
            last_set=lv[pos],
            new_shade=tuple(sorted(fresh[pos])),
            shade_size=sizes[m],
            bound=Fraction(n * m, n + 2) + 1,
        ))
    return rows


# ---------------------------------------------------------------------------
# exhaustive cross-checks of the closed forms


class _SweepFields(NamedTuple):
    name: str
    instances: int
    violations: tuple[tuple, ...]
    notes: tuple[str, ...] = ()


class SweepReport(_SweepFields):
    """An exhaustive closed-form cross-check: the instances it checked and
    one tuple per failing instance.  A check over no instance is refused."""

    __slots__ = ()

    def __new__(cls, name: str, instances: int, violations: tuple[tuple, ...],
                notes: tuple[str, ...] = ()) -> SweepReport:
        if instances < 1:
            raise ValueError(f"{name} checked no instance")
        return super().__new__(cls, name, instances, violations, notes)

    @classmethod
    def _make(cls, iterable) -> SweepReport:
        # _replace builds through _make, so it meets the same refusal
        return cls(*iterable)

    @property
    def passed(self) -> bool:
        return not self.violations


def _segment_checks(n: int, k: int,
                    up: bool) -> Iterator[tuple[int, int, int]]:
    """(m, closed form, brute force) for m = 1..C(n,k): kkt_shadow_bound
    against |shadow of the first m k-sets|, or with `up`,
    shade_of_last_bound against |shade of the last m|."""
    sizes = _fresh_sizes(n, k, up)
    for m in range(1, len(sizes)):
        yield (m, shade_of_last_bound(m, n, k) if up else kkt_shadow_bound(m, k),
               sizes[m])


def kkt_oracle_mismatches(n_max: int = 10) -> SweepReport:
    """Compare closed forms against brute force for every n <= n_max, k, m:
    the _segment_checks pairs of both directions, then the shadow/shade
    duality across co-levels; each comparison is an instance, each
    mismatch an (n, k, m, what)."""
    instances = 0
    bad: list[tuple] = []
    for n in range(1, n_max + 1):
        for k in range(0, n + 1):
            for up, what in ((False, "shadow-closed-form"),
                             (True, "shade-closed-form")):
                if k == (n if up else 0):
                    continue
                for m, closed, brute in _segment_checks(n, k, up):
                    instances += 1
                    if closed != brute:
                        bad.append((n, k, m, what))
        for k in range(1, n + 1):
            pairs = zip(_fresh_sizes(n, k, False), _fresh_sizes(n, n - k, True))
            for m, (size, dual) in enumerate(pairs):
                instances += 1
                if size != dual:
                    bad.append((n, k, m, "duality"))
    return SweepReport("kkt-oracle", instances, tuple(bad))


def window_minimality_report(n_max: int = 8) -> SweepReport:
    """Among all windows of m consecutive k-sets, the last window minimizes
    the new-shadow size and the first window minimizes the new-shade size;
    each window of each n <= n_max is an instance."""
    instances = 0
    bad: list[tuple] = []
    for n in range(1, n_max + 1):
        for k in range(0, n + 1):
            size = comb(n, k)
            for up, what in ((False, "new-shadow"), (True, "new-shade")):
                if k == (n if up else 0):
                    continue
                # fresh contributions are disjoint across positions, so a
                # window's size is a prefix-sum difference in the walking
                # order (backward for shades); the floor window is its far end
                sizes = _fresh_sizes(n, k, up)
                for m in range(1, size + 1):
                    floor_value = sizes[size] - sizes[size - m]
                    for start in range(0, size - m + 1):
                        instances += 1
                        lo = size - m - start if up else start  # walking start
                        got = sizes[lo + m] - sizes[lo]
                        if got < floor_value:
                            bad.append((n, k, m, start, what, got, floor_value))
    return SweepReport("window-minimality", instances, tuple(bad))
