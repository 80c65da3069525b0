"""Exhaustive desk-scale verification: antichain enumeration, the search
for the maximum of |A| + |B| over cross-intersecting antichain pairs,
extremal/almost-extremal characterizations, and the closed-form sweeps
that need shadow machinery.

The pair search works on bit masks twice over: each subset of {1..n} is a
mask, and each family is in turn a mask over the 2^n subset indices.  A
family B cross-intersects A iff B's members lie in A's transversal (the
subsets meeting every member of A).

The census and the all-pairs normalization audit turn this around, a
third layer of bitsets: over antichain indices.  Both build one table,
missers[y], the antichains with a member that misses subset y, so the
partners of A are the complement of the OR of missers[x] over the members
x of A, and a row visits only those partners instead of testing every
pair.  The census also walks a row's transversal for the partners too
small to be rows.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations, islice
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import cascade, normalize, parallel, squashed
from .ground import (Family, _bits, full_level, is_antichain,
                     is_cross_intersecting, sort_members)

MAX_ENUMERATION = 6
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581, 6: 7828354}


# ---------------------------------------------------------------------------
# antichain enumeration


# Candidates of a walk are subsets of {1..MAX_WALK_GROUND}: the walk table
# holds 2^n bitsets of 2^n bits, 2 MB at n=12.
MAX_WALK_GROUND = 12


@lru_cache(maxsize=None)
def _walk_table(n: int) -> tuple[tuple[int, ...], tuple[int, ...],
                                tuple[int, ...], int]:
    """The walk table of the power set of {1..n}, as three tuples and a
    position:

    - cands, the subsets by descending comparable count, a stable sort of
      0..2^n-1 (a k-set has 2^k subsets and 2^(n-k) supersets, so the
      outer ranks come first and the widest rank last);
    - pos[s], the position of subset s in cands;
    - keep[i], a bitset over positions: the later candidates incomparable
      to cands[i];
    - settled, the least position from which every later candidate lies
      in keep: the candidates from there on are pairwise incomparable.
      At even n they are the middle rank (positions 44..63 at n = 6); at
      odd n the two middle ranks tie and interleave, so only the last few
      qualify (3 candidates at n = 5, 4 at n = 7).

    The comparable candidates of s are its subsets and its supersets, each
    a row over positions from one subset-union pass of n * 2^(n-1) ORs
    (_missers).
    """
    cands = sorted(range(1 << n),
                   key=lambda s: -(2 ** s.bit_count() + 2 ** (n - s.bit_count())))
    pos = [0] * (1 << n)
    for i, s in enumerate(cands):
        pos[s] = i
    # _missers(n, rows)[y] is the OR of rows[x] over the x disjoint from y:
    # the subsets of s are the x disjoint from its complement, and its
    # supersets the complements of the x disjoint from s
    unit = [1 << pos[s] for s in range(1 << n)]
    subsets = _missers(n, unit)[::-1]
    supersets = _missers(n, unit[::-1])
    everything = (1 << len(cands)) - 1
    keep = []
    for i, s in enumerate(cands):
        later = everything >> (i + 1) << (i + 1)
        keep.append(later & ~(subsets[s] | supersets[s]))
    settled = len(cands)
    while settled and keep[settled - 1] == everything >> settled << settled:
        settled -= 1
    return tuple(cands), tuple(pos), tuple(keep), settled


def antichain_mask_tuples(universe: Sequence[int],
                          min_size: int = 0) -> Iterator[tuple[int, ...]]:
    """All antichains over the given candidate subsets, each exactly once
    (a candidate listed twice counts once), as tuples of masks in walk
    order (the empty antichain included when min_size == 0).  Branches
    that cannot reach min_size are pruned.

    A depth-first walk over (chosen, allowed) nodes, where allowed holds
    the later candidates incomparable to everything chosen.  A node
    yields chosen first, once it has min_size members, and every later
    yield adds a member to it.  The walk reads the table of the power set
    of {1..n}, n the bit length of the largest candidate (see
    _walk_table), which takes the candidates comparable to the most
    others first, so the outer ranks branch; the universe only marks the
    start node's allowed candidates.  The candidates from the table's
    settled position on are pairwise incomparable, and that is the one
    free-tail rule: a node whose allowed candidates are all settled
    yields every subset of them added to chosen, by size, instead of
    descending.  Chosen plus the r-subsets of that free tail, rest, are
    the first C(len(rest), r) combinations of chosen + rest of size
    len(chosen) + r, so itertools builds each antichain once.  Any other
    node branches on its allowed candidates below settled and pushes its
    allowed settled ones, high, as one entry (chosen, ~high) beneath its
    children: a free-tail node whose chosen is yielded already, so it
    needs one more member.
    """
    universe = set(universe)
    if any(s < 0 for s in universe):
        raise ValueError(f"walk candidates are set masks, got {min(universe)}")
    n = max(universe, default=0).bit_length()
    if n > MAX_WALK_GROUND:
        raise ValueError(f"walk candidates must be subsets of "
                         f"{{1..{MAX_WALK_GROUND}}}, got a set on {{1..{n}}}")
    cands, pos, keep, settled = _walk_table(n)
    below = (1 << settled) - 1
    start = 0
    for s in universe:
        start |= 1 << pos[s]

    stack = [((), start)]
    while stack:
        chosen, allowed = stack.pop()
        c = len(chosen)
        need = min_size - c  # members still missing below min_size
        if allowed < 0:  # a settled entry: chosen is yielded already
            allowed = ~allowed
            need = max(need, 1)
        elif need <= 0:
            yield chosen
            need = 1  # chosen alone is out: what follows adds a member
        if not allowed & below:  # a free tail, or empty
            rest = []
            while allowed:
                low = allowed & -allowed
                rest.append(cands[low.bit_length() - 1])
                allowed ^= low
            k = len(rest)
            if need <= k:
                whole = chosen + tuple(rest)
                for r in range(need, k):
                    yield from islice(combinations(whole, c + r), comb(k, r))
                yield whole
            continue
        # children pushed last-first, so they pop in walk order, the
        # settled entry last; each only when it can reach min_size
        need -= 1  # a child has one member more
        high = allowed & ~below
        if high.bit_count() > need:
            stack.append((chosen, ~high))
        cand = allowed & below
        while cand:
            i = cand.bit_length() - 1
            cand ^= 1 << i
            nxt = allowed & keep[i]
            if nxt.bit_count() >= need:
                stack.append((chosen + (cands[i],), nxt))


def enumerate_antichains(n: int) -> Iterator[Family]:
    """Every antichain of the power set of {1..n}, Dedekind-number many,
    for 1 <= n <= 5; the n = 6 walk is antichain_mask_tuples(range(64)).
    The walk yields each antichain's members once, so each tuple goes to
    Family as it is, with no dedupe pass (Family.from_masks has one for
    the overlapping lists of shadow and shade)."""
    if not 1 <= n <= 5:
        raise ValueError("antichain enumeration supports 1 <= n <= 5; walk "
                         "antichain_mask_tuples(range(64)) for the n=6 mask tuples")
    for masks in antichain_mask_tuples(range(1 << n)):
        yield Family(n, masks)


def count_antichains_oracle(n: int) -> int:
    """Independent count via downsets: antichains biject with downsets
    (take maximal elements), and downsets over n elements are pairs
    (D0, D1) of downsets over n-1 elements with D1 contained in D0.

    The levels up to n-1 elements are built pair by pair.  The last level
    is only counted: _holders marks the downsets holding each subset x,
    and D1 lies inside D0 exactly when it holds no subset outside D0, so
    D0 contains every downset but those in the OR of holders[x] over the
    upset U of subsets outside D0.  U minus its least subset x is again an
    upset (every subset of x has a smaller index), so the upsets are
    taken smallest first and each OR is the one of U - {x} with holders[x]
    added: one OR per downset, with only the previous size's rows kept.
    Nothing here reads the walk or its tables, so the count is a second
    route to the Dedekind numbers.
    """
    if not 1 <= n <= 6:
        raise ValueError("oracle supports 1 <= n <= 6")
    downsets = [0, 1]  # downsets of the 1-subset universe {empty set}
    for k in range(n - 1):
        width = 1 << (1 << k)
        downsets = [d0 | (d1 * width)
                    for d0 in downsets for d1 in downsets if not (d1 & ~d0)]
    holders = _holders(n - 1, map(_bits, downsets))
    everything = (1 << len(holders)) - 1  # every subset of {1..n-1}
    upsets: list[list[int]] = [[] for _ in range(len(holders) + 1)]
    for d0 in downsets:
        up = everything ^ d0
        upsets[up.bit_count()].append(up)
    # every pair (D0, D1) less those with D1 outside D0
    count = len(downsets) ** 2
    ors = {0: 0}  # the empty upset, whose D0 holds every downset
    for level in upsets[1:]:
        ors = {up: ors[up & (up - 1)] | holders[(up & -up).bit_length() - 1]
               for up in level}
        count -= sum(row.bit_count() for row in ors.values())
    return count


def middle_band_antichains(n: int, min_size: int) -> Iterator[tuple[int, ...]]:
    """Antichains with all members in ranks {n/2, n/2+1} and at least
    min_size members (even n)."""
    if n % 2:
        raise ValueError("middle band enumeration needs even n")
    k = n // 2
    return antichain_mask_tuples(
        squashed.level_masks(n, k + 1) + squashed.level_masks(n, k), min_size)


# ---------------------------------------------------------------------------
# canonical forms under the symmetric group


def _orbit(*fams: Family) -> set[tuple[tuple[int, ...], ...]]:
    """The joint member encodings of the families under every ground-set
    permutation, the same permutation applied to every family.

    The orbit is closed from the input under two generators, the swap of
    elements 1 and 2 and the rotation 1 -> 2 -> ... -> n -> 1, which
    generate the symmetric group for n >= 2; so it costs two images per
    encoding in the orbit, not one per permutation.
    """
    n = fams[0].n
    if n > MAX_ENUMERATION:
        raise ValueError(f"canonical forms supported for n <= {MAX_ENUMERATION}")
    start = tuple(f.members for f in fams)
    orbit = {start}
    if n < 2:
        return orbit
    full, top = (1 << n) - 1, n - 1
    todo = [start]
    for key in todo:  # grows while it is read: a breadth-first closure
        swapped = tuple(sort_members([m ^ (((m ^ (m >> 1)) & 1) * 3) for m in ms])
                        for ms in key)
        rotated = tuple(sort_members([((m << 1) & full) | (m >> top) for m in ms])
                        for ms in key)
        for image in (swapped, rotated):
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def canonical_family_key(f: Family) -> tuple[int, ...]:
    """Minimal member encoding over the orbit of all ground-set
    permutations."""
    return min(_orbit(f))[0]


def canonical_pair_key(a: Family, b: Family) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal joint encoding over the pair's orbit: the same permutation
    is applied to both sides, and the pair stays ordered (no A/B swap)."""
    if a.n != b.n:
        raise ValueError("pair members live over different ground sizes")
    return min(_orbit(a, b))


def canonical_pair(a: Family, b: Family) -> tuple[Family, Family]:
    key_a, key_b = canonical_pair_key(a, b)
    return Family(a.n, key_a), Family(a.n, key_b)


# ---------------------------------------------------------------------------
# maximum |A| + |B| census


def max_sum_formula(n: int) -> int:
    """Closed-form optimum C(n, ceil(n/2)) + C(n, floor(n/2)+1): twice the
    middle level for odd n, the two middle levels for even n."""
    return comb(n, (n + 1) // 2) + comb(n, n // 2 + 1)


class SearchCensus(NamedTuple):
    """Aggregate of one exhaustive pair search.

    raw_* lists hold ordered pairs (both orders of an asymmetric pair),
    so len(raw_*) is the ordered count.  *_pairs names each orbit of
    raw_* under ground permutations (no A/B swap) by its least pair: the
    canonical form in a complete census, the least found pair in a
    budget-cut one.  The unordered counts derive from raw_* too.
    """

    n: int
    optimum: int
    optimum_pairs: tuple[tuple[Family, Family], ...]
    near_optimum_pairs: tuple[tuple[Family, Family], ...]
    raw_optimum: tuple[tuple[Family, Family], ...]
    raw_near: tuple[tuple[Family, Family], ...]
    incomplete: bool = False     # true when the wall-clock budget expired

    @property
    def unordered_count_optimum(self) -> int:
        return _unordered_count(self.raw_optimum)

    @property
    def unordered_count_near(self) -> int:
        return _unordered_count(self.raw_near)


def _unordered_count(raw: tuple[tuple[Family, Family], ...]) -> int:
    # raw holds both orders of a pair, and a pair (A, A) once
    return (len(raw) + sum(a == b for a, b in raw)) // 2


def _census_scan(n: int, deadline: float | None,
                 seed_best: int) -> tuple[int, dict[int, list], bool]:
    """Every unordered crossing antichain pair of {1..n} (member tuples)
    with sum at the optimum and at optimum - 1, where seed_best is the sum
    of a known crossing pair.

    Such a pair sums to at least floor = seed_best - 1, so one side, its
    row, has at least half = ceil(floor / 2) members.  The rows are walked
    once and sorted largest first.  missers[y] (see _missers) is a bitset
    over row indices: the rows with a member that misses subset y.  So the
    rows crossing row i are those outside the OR of missers[x] over the
    members x of row i, and _bits(mask, rows) picks them.  A partner
    with fewer than half members lies inside row i's transversal (the
    subsets meeting every member of row i, the AND of _meets rows) and
    has at least best - 1 - |row i| members, so a walk of the transversal
    finds it.

    Each crossing pair with sum s >= best - 1, best the running maximum
    (never below seed_best), is filed under s as it is found, and only
    the lists at the final best and best - 1 are returned.  Nothing
    needed is pruned: the running best never exceeds the final one and
    rows shrink, so once 2 * |row i| < best - 1 no later pair can reach
    the final best - 1.  At n = 6 that is 1 381 rows and 211 transversal
    walks, 1 417 antichains drawn in all.
    """
    floor = seed_best - 1
    half = (floor + 1) // 2
    rows = sorted(antichain_mask_tuples(range(1 << n), half), key=len, reverse=True)
    missers = _missers(n, _holders(n, rows))
    meets = _meets(n)
    every_subset = (1 << len(meets)) - 1

    incomplete = False
    best = seed_best
    by_sum: dict[int, list] = {}
    everything = (1 << len(rows)) - 1
    for i, a in enumerate(rows):
        size_a = len(a)
        if 2 * size_a < best - 1:
            break
        if deadline is not None and time.monotonic() > deadline:
            incomplete = True
            break
        for b in _bits((everything >> i << i) & ~_or_rows(missers, a), rows):
            s = size_a + len(b)
            if s >= best - 1:
                best = max(best, s)
                by_sum.setdefault(s, []).append((a, b))
        need = max(best - 1 - size_a, 0)
        if need >= half:
            continue
        transversal = every_subset
        for x in a:
            transversal &= meets[x]
        for b in antichain_mask_tuples(_bits(transversal), need):
            if len(b) < half:
                s = size_a + len(b)
                best = max(best, s)
                by_sum.setdefault(s, []).append((a, b))
    return best, {s: by_sum.get(s, []) for s in (best, best - 1)}, incomplete


def max_cross_sum(n: int, budget_seconds: float | None = None) -> SearchCensus:
    """Exhaustive maximum of |A| + |B| over cross-intersecting antichain
    pairs of {1..n}, 1 <= n <= 6, with every pair at the optimum and at
    optimum-1.

    A checked crossing pair of middle levels seeds the running best.  A
    pair within 1 of the seed has a side of at least half = ceil((seed -
    1) / 2) members, so the census walks the antichains of at least half
    members once, pairs them through bitsets over their indices, and finds
    each smaller partner by a walk of the larger side's transversal (the
    subsets meeting all its members).  It reads no bound on antichain
    size, and still finds any optimum above the seed.
    """
    if not 1 <= n <= MAX_ENUMERATION:
        raise ValueError(f"census supports 1 <= n <= {MAX_ENUMERATION}, got {n}")
    deadline = None
    if budget_seconds is not None:
        if not budget_seconds >= 0:  # NaN too: its deadline never passes
            raise ValueError(f"budget must be >= 0 seconds, got {budget_seconds}")
        deadline = time.monotonic() + budget_seconds
    lo, hi = full_level(n, (n + 1) // 2), full_level(n, n // 2 + 1)
    if not is_cross_intersecting(lo, hi):
        raise RuntimeError(f"the n={n} census seed levels do not cross-intersect")
    best, buckets, incomplete = _census_scan(n, deadline, len(lo) + len(hi))

    def materialize(pairs: list) -> tuple[tuple[Family, Family], ...]:
        ordered = set()
        for a_masks, b_masks in pairs:
            fa = Family.from_masks(n, a_masks)
            fb = Family.from_masks(n, b_masks)
            ordered |= {(fa, fb), (fb, fa)}
        return tuple(sorted(ordered))

    raw_opt = materialize(buckets[best])
    raw_near = materialize(buckets[best - 1])

    def reduce(pairs) -> tuple[tuple[Family, Family], ...]:
        # pairs is sorted, so each orbit opens at its least raw pair
        classes, seen = [], set()
        for a, b in pairs:
            if (a.members, b.members) not in seen:
                classes.append((a, b))
                seen |= _orbit(a, b)
        if not incomplete and seen != {(a.members, b.members) for a, b in pairs}:
            raise RuntimeError(f"the n={n} census is not closed under permutations")
        return tuple(classes)

    return SearchCensus(
        n=n,
        optimum=best,
        optimum_pairs=reduce(raw_opt),
        near_optimum_pairs=reduce(raw_near),
        raw_optimum=raw_opt,
        raw_near=raw_near,
        incomplete=incomplete,
    )


# ---------------------------------------------------------------------------
# extremal / almost-extremal characterizations


def expected_optimal_pairs(n: int) -> tuple[tuple[Family, Family], ...]:
    """The ordered optimal pairs the closed-form characterization names:
    both orders of levels ceil(n/2) and floor(n/2)+1, one level twice for
    odd n."""
    lo, hi = full_level(n, (n + 1) // 2), full_level(n, n // 2 + 1)
    return tuple(sorted({(lo, hi), (hi, lo)}))


def expected_near_optimal_pairs(n: int) -> tuple[tuple[Family, Family], ...]:
    """The ordered optimum-1 pairs: an optimal pair with one set deleted
    from one of its sides."""
    pairs = set()
    for a, b in expected_optimal_pairs(n):
        for x in a.members:
            pairs.add((Family.from_masks(n, (m for m in a.members if m != x)), b))
        for y in b.members:
            pairs.add((a, Family.from_masks(n, (m for m in b.members if m != y))))
    return tuple(sorted(pairs))


def extremal_report(n: int, budget_seconds: float | None = None) -> dict:
    """Bound + uniqueness of the optimum, by exhaustion (census vs the
    closed form, raw optimal pairs vs the ones theorem 1.4 names)."""
    census = max_cross_sum(n, budget_seconds=budget_seconds)
    formula = max_sum_formula(n)
    match = (not census.incomplete and census.optimum == formula
             and set(census.raw_optimum) == set(expected_optimal_pairs(n)))
    return {"census": census, "formula_value": formula, "match": match}


def near_extremal_report(n: int, budget_seconds: float | None = None) -> dict:
    """Bidirectional check of the optimum-1 characterization: the census
    pair list and the predicted pair list must coincide exactly, on top
    of theorem 1.4's optimal pairs, which the characterization assumes."""
    report = extremal_report(n, budget_seconds=budget_seconds)
    expected = expected_near_optimal_pairs(n)
    found = report["census"].raw_near
    return {
        **report,
        "expected_ordered": len(expected),
        "missing": tuple(sorted(set(expected) - set(found))),
        "unexpected": tuple(sorted(set(found) - set(expected))),
        "match": report["match"] and set(expected) == set(found),
    }


def size4_antichain_classes_report() -> dict:
    """Scan all antichains of {1..4} containing a 1-set or a 3-set: none
    exceeds size 4, and exactly four isomorphism classes attain 4."""
    n = 4
    expected = {
        canonical_family_key(full_level(n, 1)),
        canonical_family_key(full_level(n, 3)),
        canonical_family_key(Family.from_sets(n, [(1,), (2, 3), (2, 4), (3, 4)])),
        canonical_family_key(Family.from_sets(n, [(1, 2), (1, 3), (1, 4), (2, 3, 4)])),
    }
    scanned = 0
    eligible = 0
    oversize = []
    found_classes = set()
    for fam in enumerate_antichains(n):
        scanned += 1
        if not any(m.bit_count() in (1, 3) for m in fam.members):
            continue
        eligible += 1
        if len(fam) > 4:
            oversize.append(fam)
        elif len(fam) == 4:
            found_classes.add(canonical_family_key(fam))
    return {
        "scanned": scanned,
        "eligible": eligible,
        "oversize": tuple(oversize),
        "found_classes": tuple(sorted(found_classes)),
        "expected_classes": tuple(sorted(expected)),
        "match": not oversize and found_classes == expected,
    }


# ---------------------------------------------------------------------------
# closed-form sweeps that need shadow machinery


def sweep_shadow_excess(n_max: int = 13) -> cascade.SweepReport:
    """Odd n, level k = ceil(n/2)+1: the shadow of the first m k-sets has
    at least m+2 members, for every m up to C(n,k).  The closed form is
    cross-checked against brute force at every instance."""
    if not 3 <= n_max <= 13:
        raise ValueError("supported n_max range is 3..13 (odd levels only)")
    instances = 0
    bad = []
    for n in range(3, n_max + 1, 2):
        for m, bound, brute in cascade._segment_checks(n, (n + 1) // 2 + 1, False):
            instances += 1
            if bound < m + 2:
                bad.append((n, m, bound))
            if brute != bound:
                bad.append((n, m, "brute-force mismatch", brute, bound))
    return cascade.SweepReport("shadow-excess", instances, tuple(bad))


# The pair sweep always runs this many interleaved row stripes, so its
# split of the work does not depend on the worker count. Handed out one
# at a time to whichever worker is free, 16 stripes keep both workers of
# a shared 2-core host busy: one fixed half of the rows per worker gave
# the same output but a slower n=5 audit (1.59 -> 1.86 s median wall).
# In the table's transversal order the n=5 stripes still cost about the
# same, 0.032-0.048 s of CPU each in one process; a traced 2-worker run's
# parallel.idle_s moved between 0.07 and 0.81 s on unchanged code, so it
# shows host noise, not an uneven split.
PAIR_SWEEP_STRIPES = 16


def _or_rows(rows: Sequence[int], indices: Iterable[int]) -> int:
    """The OR of rows[x] over the given indices x."""
    out = 0
    for x in indices:
        out |= rows[x]
    return out


# _holders' flag bytes 0 and 1 as the digits of a base-2 literal
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _holders(n: int, families: Iterable[Iterable[int]]) -> list[int]:
    """holders[x] = bitset over the positions j of families (each given
    by its members' subset indices) whose family has subset x.

    Each membership sets one flag byte, and each row becomes an int once,
    from its flags read as base-2 digits, highest position first: an OR
    per membership would copy the whole row each time (121 296 copies of
    a 7 581-bit row for the oracle at n = 6)."""
    families = list(families)
    flags = [bytearray(len(families)) for _ in range(1 << n)]
    for j, members in enumerate(families):
        for x in members:
            flags[x][j] = 1
    return [int(row[::-1].translate(_FLAG_DIGITS) or b"0", 2) for row in flags]


def _missers(n: int, holders: Sequence[int]) -> list[int]:
    """missers[y] = the OR of holders[x] over the subsets x disjoint from y:
    the families with a member that misses y.  So the families crossing F
    are the complement of _or_rows(missers, F.members).

    The subsets disjoint from y are those of its complement 2^n - 1 - y,
    so a subset-union pass (one per element, n * 2^(n-1) ORs) makes
    under[z] the OR of holders over the subsets of z, and missers is
    under read backwards."""
    under = list(holders)
    for b in range(n):
        bit = 1 << b
        for z in range(1 << n):
            if z & bit:
                under[z] |= under[z ^ bit]
    return under[::-1]


@lru_cache(maxsize=None)
def _meets(n: int) -> tuple[int, ...]:
    """meets[x] = the subsets of {1..n} meeting subset x, a bitset over
    subset indices, so a family's transversal (the subsets meeting every
    member) is the AND of meets[x] over its members x."""
    subsets = range(1 << n)
    return tuple(sum(1 << y for y in subsets if x & y) for x in subsets)


@lru_cache(maxsize=None)
def _pair_sweep_setup(n: int) -> tuple:
    """The antichains of {1..n} and their tables for the all-pairs sweep,
    in this order:

    - fams, the antichains, largest transversal first: a stable sort of
      the walk's order by the number of subsets meeting every member.
      Each holds its pushed trace in the _pushed slot where _normalized
      stores it (unset on SelectionError);
    - contains[x], the antichains (a bitset over antichain indices) that
      have subset x as a member;
    - missers[y] and pushed[y], the antichains with a member that misses
      subset y, and those whose pushed final has one (see _missers);
    - stepped, the antichains whose push takes a step, and sound, those
      whose push is sound: its final keeps the family's size, is an
      antichain and lies in the middle band, and a push without steps
      returns the family.

    A failed push sets no bit and has no final.  normalization_pair_sweep
    builds this in the calling process before any stripe runs, so the
    stripes of a forked pool inherit it and the audit enumerates, pushes
    and checks each antichain once.  Pushes share their steps and moved
    finals (see normalize._replacement and normalize._final), so the table
    holds each distinct one once.

    The order serves the stripes' partner decode, which scans a row up to
    its highest partner at or below it.  A row's partners are the
    antichains inside its transversal, and those with large transversals
    are partners of many rows, so listing them first puts each row's
    partners early: at n=5 the decode scans 14 235 229 positions for the
    3 915 500 crossing pairs, against 22 951 680 in walk order."""
    lo, hi = normalize.middle_band(n)
    meets = _meets(n)
    everything = (1 << len(meets)) - 1

    def transversal_size(f: Family) -> int:
        out = everything
        for x in f.members:
            out &= meets[x]
        return out.bit_count()

    fams = sorted(enumerate_antichains(n), key=transversal_size, reverse=True)
    finals = []
    stepped = sound = 0
    for j, f in enumerate(fams):
        try:
            trace = normalize._normalized(f)
        except normalize.SelectionError:
            # not stored by _normalized, so each pair it spoils raises it
            # again in normalize_pair and records it there
            finals.append(())
            continue
        final = trace.final
        members = final.members
        finals.append(members)
        if trace.steps:
            stepped |= 1 << j
        # members are sorted by rank, so the first and last bound every rank
        if (len(members) == len(f) and is_antichain(final)
                and (not members or lo <= members[0].bit_count()
                     and members[-1].bit_count() <= hi)
                and (trace.steps or final == f)):
            sound |= 1 << j
    contains = _holders(n, (f.members for f in fams))
    missers = _missers(n, contains)
    pushed = _missers(n, _holders(n, finals))
    return fams, contains, missers, pushed, stepped, sound


def _pair_sweep_stripe(args: tuple[int, int]) -> tuple:
    """One stripe (i = stripe, stripe + PAIR_SWEEP_STRIPES, ...) of the
    all-pairs normalization sweep; results merge associatively across
    stripes.

    Row i works on bitsets over antichain indices.  Its partners, the
    j <= i that cross fams[i], are those with no member that misses a
    member of fams[i]: the complement of the OR of missers[x] over the
    members x of fams[i].  Taking them below i, not above, starts the
    row at bit 0, and the decode stops at the row's highest partner, so
    it scans that partner's index + 1 positions, at most i + 1; the
    table's order (see _pair_sweep_setup) puts the partners early.
    _bits(partners, fams) picks the partner families themselves, in C,
    and each gets one normalize_pair(fams[j], fams[i]) call; failures and
    violations name the pair in that order too, so each unordered pair is
    called and reported once, lower table index first.  The calls take the
    table's own Family objects, so the memo on each object answers them
    with the push the table stored in its _pushed slot, by identity, with
    no hashing.  A pair whose call raises SelectionError is recorded as a
    failure, before any slot is read, and its bit is found again by
    identity to leave the row.  Any other call must return the two
    families' own pushes, fams[j]._pushed and the row's trace, read once
    per row, by identity; anything else raises RuntimeError.  So on that
    path a pair costs its call, the unpack and two identity tests.
    One bitset row audits the partners that passed selection by one rule,
    reading the table's stepped and sound bits, the row trace's final,
    and pushed[x], the partners whose final misses the member x of that
    final: a pair moved if either side stepped, an unmoved pair needs
    both sides sound, and a moved pair also needs the two finals to
    cross.  Only violating pairs are decoded to sets.
    """
    # read from the module once per stripe: a wrapper set on
    # sperner.normalize.normalize_pair sees every pair, and the pair loop
    # looks neither name up
    normalize_pair = normalize.normalize_pair
    SelectionError = normalize.SelectionError
    n, stripe = args
    fams, contains, missers, pushed, stepped, sound = _pair_sweep_setup(n)
    count = len(fams)
    full = (1 << n) - 1
    crossing = moved = 0
    failures: list[tuple] = []
    violations: list[tuple] = []
    for i in range(stripe, count, PAIR_SWEEP_STRIPES):
        fi = fams[i]
        partners = ((2 << i) - 1) & ~_or_rows(missers, fi.members)
        crossing += partners.bit_count()
        # complement exclusion: a crossing pair never contains a member
        # together with its complement on the other side
        opposite = _or_rows(contains, map(full.__xor__, fi.members))
        for fj in _bits(partners & opposite, fams):
            violations.append(("complement", fj.sets(), fi.sets()))
        # unset when i's push failed selection; then every call raises
        # SelectionError before the trace is compared
        ti = getattr(fi, "_pushed", None)
        row = partners
        for fj in _bits(partners, fams):
            try:
                ta, tb = normalize_pair(fj, fi, False)
            except SelectionError as exc:
                row ^= 1 << next(j for j in _bits(partners) if fams[j] is fj)
                failures.append((fj.sets(), fi.sets(), str(exc)))
                continue
            if not (ta is fj._pushed and tb is ti):
                raise RuntimeError(
                    f"normalize_pair({fj.sets()}, {fi.sets()}) returned "
                    "other traces than the two families' own pushes")
        if not row:
            # every partner failed selection, as all do when i's push did
            continue
        # shifted pairs moved (a side stepped), still pairs did not
        shifted = row if stepped >> i & 1 else row & stepped
        still = row ^ shifted
        moved += shifted.bit_count()
        if sound >> i & 1:
            still &= ~sound
            shifted &= ~sound | _or_rows(pushed, ti.final.members)
        for fj in _bits(still, fams):
            violations.append(("identity", fj.sets(), fi.sets()))
        for fj in _bits(shifted, fams):
            violations.append(("preservation", fj.sets(), fi.sets()))
    return crossing, moved, failures, violations


class PairSweepReport(NamedTuple):
    """All-pairs normalization audit: whether every cross-intersecting
    antichain pair normalizes into the middle band preserving sizes, the
    antichain property and cross-intersection.  A pair whose push fails
    selection is recorded in selection_failures and, like a violation,
    fails the audit."""

    n: int
    antichains: int
    crossing_pairs: int
    moved_pairs: int
    selection_failures: tuple[tuple, ...]
    violations: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not (self.violations or self.selection_failures)


def normalization_pair_sweep(n: int, workers: int = 1) -> PairSweepReport:
    """Run normalize_pair over every unordered cross-intersecting pair of
    antichains of {1..n} (n <= 5) and audit the preserved properties.

    The table (see _pair_sweep_setup) is built here, before the pool
    starts, so forked workers inherit it and the audit builds it once at
    any worker count.  Work is split into a fixed number of interleaved
    row stripes, so the rows of each stripe, and of each worker, cost about
    the same; merging is order-independent, so the report is identical at
    any worker count.

    Each unordered pair is called and reported once, as (a, b) with a no
    later than b in the table, which lists larger transversals first (see
    _pair_sweep_setup), not in the order of enumerate_antichains.  The
    failures and violations are sorted.
    """
    if not 1 <= n <= 5:
        raise ValueError("the exhaustive pair sweep supports 1 <= n <= 5")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    antichains = len(_pair_sweep_setup(n)[0])
    tasks = [(n, s) for s in range(PAIR_SWEEP_STRIPES)]
    results = parallel.parallel_map(_pair_sweep_stripe, tasks, workers)
    crossing = sum(r[0] for r in results)
    moved = sum(r[1] for r in results)
    failures = sorted(f for r in results for f in r[2])
    violations = sorted(v for r in results for v in r[3])
    return PairSweepReport(n, antichains, crossing, moved,
                           tuple(failures), tuple(violations))


def sweep_last_shade_margin(n_max: int = 12) -> cascade.SweepReport:
    """Even n >= 6, level k = n/2: |shade of the last m k-sets| strictly
    exceeds n/(n+2)*m + 1 for every 1 <= m < C(n,k) - 1.  Comparisons are
    integer cross-multiplied, and the closed form is cross-checked against
    brute force at every instance; also confirms that the lone documented
    exception n=4, m=3 is an exact tie."""
    if not 6 <= n_max <= 12:
        raise ValueError("supported n_max range is 6..12")
    instances = 0
    bad = []
    notes = []
    for n in range(6, n_max + 1, 2):
        k = n // 2
        checks = islice(cascade._segment_checks(n, k, True), comb(n, k) - 2)
        for m, size, brute in checks:
            instances += 1
            # size > n/(n+2)*m + 1  <=>  (size-1)*(n+2) > n*m
            if not (size - 1) * (n + 2) > n * m:
                bad.append((n, m, size))
            if brute != size:
                bad.append((n, m, "brute-force mismatch", brute, size))
    tie = cascade.shade_of_last_bound(3, 4, 2)
    if (tie - 1) * 6 == 4 * 3 and tie == cascade._fresh_sizes(4, 2, True)[3]:
        notes.append("n=4, m=3 is an exact tie (|shade|=3 equals the bound)")
    else:
        bad.append((4, 3, tie, "expected an exact tie"))
    return cascade.SweepReport("last-shade-margin", instances, tuple(bad),
                               tuple(notes))
