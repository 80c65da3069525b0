"""Push a family's members into the middle band of the Boolean lattice
while preserving its size, the antichain property, and cross-intersection
with a partner family.

One "up" step removes every member of the minimum rank i and replaces it
with an equal number of (i+1)-sets drawn from the shade of the removed
members; "down" steps are the mirror image via shadows.  Candidates are
filtered to those independent of every retained member and still meeting
every partner member, then taken greedily in squashed order, which makes
traces deterministic.  If the filtered pool is too small the step fails
loudly (SelectionError) instead of backtracking.

All of it runs in one kernel over member tuples sorted by (rank, colex),
the order ``Family.members`` keeps, so the minimum and maximum rank are
the first and last member.  Per ground size n the kernel builds, on
first use, four tables indexed by subset mask whose entries are bitsets
over the 2^n subset indices: the shade and the shadow of each subset,
the subsets comparable with it (contained in it or containing it), and
the subsets disjoint from it.  A step's candidate pool is then the union
of the doomed members' shade (or shadow) bitsets, minus the comparable
bitsets of the retained members and the disjoint bitsets of the partner
members, and the greedy choice is its lowest set bits: subset index
order on one rank is squashed order.  The ``Family`` functions are thin
wrappers that validate, call the kernel, and build a ``Family`` only for
a result that moved.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .cascade import _covers, _facets
from .ground import Family, is_antichain, is_cross_intersecting, sort_members

# The tables hold 2^n bitsets of 2^n bits each, 2 MB per table at n=12.
MAX_NORMALIZE = 12


@dataclass(frozen=True)
class Step:
    direction: str               # "up" | "down"
    rank: int                    # rank whose members were replaced
    removed: tuple[int, ...]
    inserted: tuple[int, ...]


@dataclass(frozen=True)
class NormalizationTrace:
    steps: tuple[Step, ...]
    final: Family


class SelectionError(RuntimeError):
    """Raised when a replacement step cannot find enough candidates."""

    def __init__(self, direction: str, rank: int, needed: int, found: int):
        self.direction = direction
        self.rank = rank
        self.needed = needed
        self.found = found
        super().__init__(
            f"selection failure pushing {direction} from rank {rank}: "
            f"needed {needed} replacement sets, only {found} pass the filter")


def middle_band(n: int, mode: str | None = None) -> tuple[int, int]:
    """Target rank band (lo, hi) for the requested mode.

    even mode: [n/2, n/2 + 1]; odd mode: [ceil(n/2), ceil(n/2) + 1],
    capped at n.  The mode defaults to the parity of n and must match it.
    """
    if mode is None:
        mode = "even" if n % 2 == 0 else "odd"
    if mode not in ("even", "odd"):
        raise ValueError(f"mode must be 'even' or 'odd', got {mode!r}")
    if (mode == "even") != (n % 2 == 0):
        raise ValueError(f"mode {mode!r} does not match the parity of n={n}")
    lo = n // 2 if mode == "even" else (n + 1) // 2
    return lo, min(lo + 1, n)


# ---------------------------------------------------------------------------
# the kernel: sorted member tuples and per-n subset bitset tables


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[tuple[int, ...], ...]:
    """(shade, shadow, comparable, disjoint) bitsets per subset of {1..n}."""
    if n > MAX_NORMALIZE:
        raise ValueError(f"normalization supports n <= {MAX_NORMALIZE}, got {n}")
    size = 1 << n
    full = size - 1
    shade = [0] * size
    shadow = [0] * size
    below = [0] * size      # subsets of x
    above = [0] * size      # supersets of x
    below[0] = 1
    above[full] = 1 << full
    for x in range(size):
        for c in _covers(x, n):
            shade[x] |= 1 << c
        for c in _facets(x):
            shadow[x] |= 1 << c
        if x:
            # a subset of x either avoids its lowest element or is a
            # subset of the rest plus that element (index + low)
            low = x & -x
            below[x] = below[x ^ low] | (below[x ^ low] << low)
    for x in range(full - 1, -1, -1):
        # a superset of x either holds its lowest missing element or is
        # such a superset without it (index - low)
        free = full ^ x
        low = free & -free
        above[x] = above[x | low] | (above[x | low] >> low)
    comparable = tuple(below[x] | above[x] for x in range(size))
    disjoint = tuple(below[full ^ x] for x in range(size))
    return tuple(shade), tuple(shadow), comparable, disjoint


def _step(n: int, members: tuple[int, ...], partner: tuple[int, ...],
          up: bool) -> tuple[Step, tuple[int, ...]]:
    """Replace every member of the minimum (up) or maximum (down) rank by
    the first shade (shadow) sets in squashed order that are independent
    of every retained member and meet every partner member; too few
    survivors raises SelectionError."""
    shade, shadow, comparable, disjoint = _tables(n)
    if up:
        rank = members[0].bit_count()
        cut = bisect_right(members, rank, key=int.bit_count)
        doomed, retained = members[:cut], members[cut:]
        moves = shade
    else:
        rank = members[-1].bit_count()
        cut = bisect_left(members, rank, key=int.bit_count)
        doomed, retained = members[cut:], members[:cut]
        moves = shadow
    pool = blocked = 0
    for m in doomed:
        pool |= moves[m]
    for r in retained:
        blocked |= comparable[r]
    for y in partner:
        blocked |= disjoint[y]
    pool &= ~blocked
    need = len(doomed)
    chosen = []
    while pool and len(chosen) < need:
        low = pool & -pool
        chosen.append(low.bit_length() - 1)
        pool ^= low
    direction = "up" if up else "down"
    if len(chosen) < need:
        raise SelectionError(direction, rank, need, len(chosen))
    inserted = tuple(chosen)
    return (Step(direction, rank, doomed, inserted),
            sort_members(retained + inserted))


def _check_partner_sizes(n: int, partner: tuple[int, ...]) -> None:
    # members of size below n/2 form a prefix of the sorted partner
    small = bisect_left(partner, (n + 1) // 2, key=int.bit_count)
    if small:
        raise ValueError(
            "push down needs every partner member to have size >= n/2; "
            f"{small} partner member(s) are smaller")


def _settle(n: int, members: tuple[int, ...], partner: tuple[int, ...],
            up: bool, bound: int) -> tuple[list[Step], tuple[int, ...]]:
    """Repeated up steps until the minimum rank reaches bound, or down
    steps until the maximum rank does.  Each step moves the extreme rank
    one toward the band, so n steps always suffice."""
    steps: list[Step] = []
    while members and (members[0].bit_count() < bound if up
                       else members[-1].bit_count() > bound):
        if len(steps) == n:
            raise RuntimeError(f"{'up' if up else 'down'} phase failed to "
                               f"terminate within {n} rounds")
        if not up and not steps:
            _check_partner_sizes(n, partner)
        step, members = _step(n, members, partner, up)
        steps.append(step)
    return steps, members


# ---------------------------------------------------------------------------
# Family wrappers


def _validate(f: Family, partner: Family) -> None:
    if f.n != partner.n:
        raise ValueError("family and partner live over different ground sizes")
    if not is_antichain(f):
        raise ValueError("input family is not an antichain")
    if not is_cross_intersecting(f, partner):
        raise ValueError("family and partner are not cross-intersecting")


def _trace(f: Family, steps: list[Step],
           members: tuple[int, ...]) -> NormalizationTrace:
    return NormalizationTrace(tuple(steps),
                              Family(f.n, members) if steps else f)


def push_up_min_rank(f: Family, partner: Family, mode: str | None = None,
                     validate: bool = True) -> NormalizationTrace:
    """One up step: if the minimum rank i sits below the band floor,
    replace all rank-i members with shade sets.  Identity trace otherwise.
    """
    lo, _ = middle_band(f.n, mode)
    if validate:
        _validate(f, partner)
    if not f.members or f.members[0].bit_count() >= lo:
        return NormalizationTrace((), f)
    step, members = _step(f.n, f.members, partner.members, True)
    return _trace(f, [step], members)


def push_down_max_rank(f: Family, partner: Family, mode: str | None = None,
                       validate: bool = True) -> NormalizationTrace:
    """One down step: if the maximum rank j sits above the band ceiling,
    replace all rank-j members with shadow sets.

    A real step additionally requires every partner member to have size
    >= n/2; that is what keeps cross-intersection automatic after the
    replacement (|new member| + |partner member| > n)."""
    _, hi = middle_band(f.n, mode)
    if validate:
        _validate(f, partner)
    if not f.members or f.members[-1].bit_count() <= hi:
        return NormalizationTrace((), f)
    _check_partner_sizes(f.n, partner.members)
    step, members = _step(f.n, f.members, partner.members, False)
    return _trace(f, [step], members)


def normalize_to_middle(f: Family, partner: Family, mode: str | None = None,
                        validate: bool = True) -> NormalizationTrace:
    """Repeated up steps, then repeated down steps, until every member of
    f sits inside the middle band.  The partner is left untouched; the
    down phase therefore requires all partner members to have size >= n/2
    already (see push_down_max_rank)."""
    if validate:
        _validate(f, partner)
        if not is_antichain(partner):
            raise ValueError("partner family is not an antichain")
    n = f.n
    lo, hi = middle_band(n, mode)
    up, f1 = _settle(n, f.members, partner.members, True, lo)
    down, f2 = _settle(n, f1, partner.members, False, hi)
    return _trace(f, up + down, f2)


def normalize_pair(a: Family, b: Family, mode: str | None = None,
                   validate: bool = True
                   ) -> tuple[NormalizationTrace, NormalizationTrace]:
    """Normalize both families of a cross-intersecting antichain pair.

    Stage order matters: both families are raised to the band floor first
    (each against the other's current state), so that by the time the
    down phases run every partner member already has size >= n/2."""
    if validate:
        _validate(a, b)
        if not is_antichain(b):
            raise ValueError("partner family is not an antichain")
    n = a.n
    lo, hi = middle_band(n, mode)
    a_up, a1 = _settle(n, a.members, b.members, True, lo)
    b_up, b1 = _settle(n, b.members, a1, True, lo)
    a_down, a2 = _settle(n, a1, b1, False, hi)
    b_down, b2 = _settle(n, b1, a2, False, hi)
    return _trace(a, a_up + a_down, a2), _trace(b, b_up + b_down, b2)
