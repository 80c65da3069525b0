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
from itertools import combinations, islice, permutations
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from .ground import (Family, full_level, is_antichain, is_cross_intersecting,
                     sort_members)

MAX_ENUMERATION = 6
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581, 6: 7828354}


# ---------------------------------------------------------------------------
# antichain enumeration


# Candidates of a walk are subsets of {1..MAX_WALK_GROUND}: the walk table
# holds 2^n bitsets of 2^n bits per list, 2 MB per list at n=12.
MAX_WALK_GROUND = 12


@lru_cache(maxsize=None)
def _walk_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The walk table of the power set of {1..n}, as four tuples:

    - cands, the subsets by descending comparable count, a stable sort of
      0..2^n-1 (a k-set has 2^k subsets and 2^(n-k) supersets, so the
      outer ranks come first and the widest rank last);
    - pos[s], the position of subset s in cands;
    - clash[i] and keep[i], bitsets over positions: the later candidates
      comparable to cands[i], and those incomparable to it.

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
    clash, keep = [], []
    for i, s in enumerate(cands):
        comparable = subsets[s] | supersets[s]
        later = everything >> (i + 1) << (i + 1)
        clash.append(comparable & later)
        keep.append(later & ~comparable)
    return tuple(cands), tuple(pos), tuple(clash), tuple(keep)


def antichain_mask_tuples(universe: Sequence[int],
                          min_size: int = 0) -> Iterator[tuple[int, ...]]:
    """All antichains over the given candidate subsets, each exactly once
    (a candidate listed twice counts once), as tuples of masks in walk
    order (the empty antichain included when min_size == 0).  Branches
    that cannot reach min_size are pruned.

    A depth-first walk over (chosen, allowed) nodes, where allowed holds
    the later candidates incomparable to everything chosen.  Once the
    allowed candidates are pairwise incomparable, every subset of them
    extends chosen, so the node yields those subsets by size instead of
    descending: chosen plus the r-subsets of that free tail, rest, are
    the first C(len(rest), r) combinations of chosen + rest of size
    len(chosen) + r, so itertools builds each antichain once.  The walk
    reads the table of the power set of {1..n}, n the bit length of the
    largest candidate (see _walk_table), which takes the candidates
    comparable to the most others first: the outer ranks branch and the
    widest rank is left as the free tail.  The universe only marks the
    start node's allowed candidates.
    """
    universe = set(universe)
    if any(s < 0 for s in universe):
        raise ValueError(f"walk candidates are set masks, got {min(universe)}")
    n = max(universe, default=0).bit_length()
    if n > MAX_WALK_GROUND:
        raise ValueError(f"walk candidates must be subsets of "
                         f"{{1..{MAX_WALK_GROUND}}}, got a set on {{1..{n}}}")
    cands, pos, clash, keep = _walk_table(n)
    start = 0
    for s in universe:
        start |= 1 << pos[s]

    stack = [((), start)]
    while stack:
        chosen, allowed = stack.pop()
        c = len(chosen)
        need = min_size - c  # members still missing below min_size
        if not allowed:
            if need <= 0:
                yield chosen
            continue
        rest = []
        cand = allowed
        while cand:
            low = cand & -cand
            i = low.bit_length() - 1
            if clash[i] & allowed:
                break
            rest.append(cands[i])
            cand ^= low
        else:  # allowed is pairwise incomparable
            if need <= 0:
                yield chosen
                need = 1  # chosen alone is out: extras of size 1 and up
            k = len(rest)
            if need <= k:
                whole = chosen + tuple(rest)
                for r in range(need, k):
                    yield from islice(combinations(whole, c + r), comb(k, r))
                yield whole
            continue
        if need <= 0:
            yield chosen
        # children pushed last-first, so they pop in walk order
        need -= 1  # a child has one member more
        cand = allowed
        while cand:
            i = cand.bit_length() - 1
            cand ^= 1 << i
            nxt = allowed & keep[i]
            if nxt.bit_count() >= need:
                stack.append((chosen + (cands[i],), nxt))


def enumerate_antichains(n: int) -> Iterator[Family]:
    """Every antichain of the power set of {1..n}, Dedekind-number many,
    for 1 <= n <= 5; the n = 6 walk is antichain_mask_tuples(range(64))."""
    if not 1 <= n <= 5:
        raise ValueError("antichain enumeration supports 1 <= n <= 5; walk "
                         "antichain_mask_tuples(range(64)) for the n=6 mask tuples")
    for masks in antichain_mask_tuples(range(1 << n)):
        yield Family.from_masks(n, masks)


def count_antichains_oracle(n: int) -> int:
    """Independent count via downsets: antichains biject with downsets
    (take maximal elements), and downsets over n elements are pairs
    (D0, D1) of downsets over n-1 elements with D1 contained in D0.

    The levels up to n-1 elements are built pair by pair.  The last level
    is only counted: _holders marks the downsets holding each subset x,
    and D1 lies inside D0 exactly when it holds no subset outside D0, so
    D0 contains every downset but those in the OR of holders[x] over x
    not in D0.  Nothing here reads the walk or its tables, so the count
    is a second route to the Dedekind numbers.
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
    return sum(len(downsets) - _or_rows(holders, _bits(everything ^ d0)).bit_count()
               for d0 in downsets)


def middle_band_antichains(n: int, min_size: int) -> Iterator[tuple[int, ...]]:
    """Antichains with all members in ranks {n/2, n/2+1} and at least
    min_size members (even n)."""
    from .squashed import level_masks
    if n % 2:
        raise ValueError("middle band enumeration needs even n")
    k = n // 2
    return antichain_mask_tuples(level_masks(n, k + 1) + level_masks(n, k), min_size)


# ---------------------------------------------------------------------------
# canonical forms under the symmetric group


@lru_cache(maxsize=None)
def _perm_tables(n: int) -> tuple[tuple[int, ...], ...]:
    if n > MAX_ENUMERATION:
        raise ValueError(f"canonical forms supported for n <= {MAX_ENUMERATION}")
    tables = []
    for perm in permutations(range(n)):
        table = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            table[mask] = table[mask ^ low] | (1 << perm[low.bit_length() - 1])
        tables.append(tuple(table))
    return tuple(tables)


def _images(*fams: Family) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The member encodings of the families under each ground-set
    permutation, the same permutation applied to every family."""
    return (tuple(sort_members([t[m] for m in f.members]) for f in fams)
            for t in _perm_tables(fams[0].n))


def canonical_family_key(f: Family) -> tuple[int, ...]:
    """Minimal member encoding over all ground-set permutations."""
    return min(_images(f))[0]


def canonical_pair_key(a: Family, b: Family) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal joint encoding: the same permutation is applied to both
    sides, and the pair stays ordered (no A/B swap)."""
    if a.n != b.n:
        raise ValueError("pair members live over different ground sizes")
    return min(_images(a, b))


def canonical_pair(a: Family, b: Family) -> tuple[Family, Family]:
    key_a, key_b = canonical_pair_key(a, b)
    return Family(a.n, key_a), Family(a.n, key_b)


# ---------------------------------------------------------------------------
# maximum |A| + |B| census


def max_sum_formula(n: int) -> int:
    """Closed-form optimum: 2*C(n, ceil(n/2)) for odd n,
    C(n, n/2) + C(n, n/2+1) for even n."""
    if n % 2:
        return 2 * comb(n, (n + 1) // 2)
    return comb(n, n // 2) + comb(n, n // 2 + 1)


class SearchCensus(NamedTuple):
    """Aggregate of one exhaustive pair search.

    raw_* lists hold ordered pairs (both orders of an asymmetric pair).
    *_pairs names each orbit of raw_* under ground permutations (no A/B
    swap) by its least pair: the canonical form in a complete census,
    the least found pair in a budget-cut one.  Counts derive from raw_*.
    """

    n: int
    optimum: int
    optimum_pairs: tuple[tuple[Family, Family], ...]
    near_optimum_pairs: tuple[tuple[Family, Family], ...]
    raw_optimum: tuple[tuple[Family, Family], ...]
    raw_near: tuple[tuple[Family, Family], ...]
    incomplete: bool = False     # true when the wall-clock budget expired

    @property
    def ordered_count_optimum(self) -> int:
        return len(self.raw_optimum)

    @property
    def ordered_count_near(self) -> int:
        return len(self.raw_near)

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
    members x of row i.  A partner with fewer than half members lies
    inside row i's transversal (the subsets meeting every member of row i)
    and has at least best - 1 - |row i| members, so a walk of the
    transversal finds it.

    Every crossing pair with sum s >= best - 1 is collected, where best is
    the running maximum (never below seed_best); at the end only the pairs
    at the final best and best - 1 are kept.  Nothing needed is pruned:
    the running best never exceeds the final one and rows shrink, so once
    2 * |row i| < best - 1 no later pair can reach the final best - 1.
    """
    floor = seed_best - 1
    half = (floor + 1) // 2
    rows = sorted(antichain_mask_tuples(range(1 << n), half), key=len, reverse=True)
    missers = _missers(n, _holders(n, rows))

    incomplete = False
    best = seed_best
    found = []
    everything = (1 << len(rows)) - 1
    for i, a in enumerate(rows):
        size_a = len(a)
        if 2 * size_a < best - 1:
            break
        if deadline is not None and time.monotonic() > deadline:
            incomplete = True
            break
        for j in _bits((everything >> i << i) & ~_or_rows(missers, a)):
            s = size_a + len(rows[j])
            if s >= best - 1:
                best = max(best, s)
                found.append((s, a, rows[j]))
        need = max(best - 1 - size_a, 0)
        if need >= half:
            continue
        transversal = [y for y in range(1 << n) if not missers[y] >> i & 1]
        for b in antichain_mask_tuples(transversal, need):
            if len(b) < half:
                s = size_a + len(b)
                best = max(best, s)
                found.append((s, a, b))

    buckets: dict[int, list] = {best: [], best - 1: []}
    for s, a, b in found:
        if s >= best - 1:
            buckets[s].append((a, b))
    return best, buckets, incomplete


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
                seen.update(_images(a, b))
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
    """The ordered optimal pairs the closed-form characterization names."""
    if n % 2:
        lv = full_level(n, (n + 1) // 2)
        return ((lv, lv),)
    lo, hi = full_level(n, n // 2), full_level(n, n // 2 + 1)
    return ((lo, hi), (hi, lo))


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
    pair list and the predicted pair list must coincide exactly."""
    census = max_cross_sum(n, budget_seconds=budget_seconds)
    expected = expected_near_optimal_pairs(n)
    found = census.raw_near
    match = (not census.incomplete
             and census.optimum == max_sum_formula(n)
             and set(expected) == set(found))
    return {
        "census": census,
        "expected_ordered": len(expected),
        "found_ordered": len(found),
        "missing": tuple(sorted(set(expected) - set(found))),
        "unexpected": tuple(sorted(set(found) - set(expected))),
        "match": match,
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
        ranks = set(fam.by_rank)
        if not (1 in ranks or 3 in ranks):
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


def sweep_shadow_excess(n_max: int = 13) -> SweepReport:
    """Odd n, level k = ceil(n/2)+1: the shadow of the first m k-sets has
    at least m+2 members, for every m up to C(n,k).  The closed form is
    cross-checked against brute force at every instance."""
    from .cascade import SweepReport, _segment_checks
    if not 3 <= n_max <= 13:
        raise ValueError("supported n_max range is 3..13 (odd levels only)")
    instances = 0
    bad = []
    for n in range(3, n_max + 1, 2):
        for m, bound, brute in _segment_checks(n, (n + 1) // 2 + 1, False):
            instances += 1
            if bound < m + 2:
                bad.append((n, m, bound))
            if brute != bound:
                bad.append((n, m, "brute-force mismatch", brute, bound))
    return SweepReport("shadow-excess", instances, tuple(bad))


# The pair sweep always runs this many interleaved row stripes, so its
# split of the work does not depend on the worker count; with 16, a pool
# of two finishes within about one stripe (1/16 of the run) of each other.
PAIR_SWEEP_STRIPES = 16


def _bits(mask: int) -> list[int]:
    """The indices of mask's set bits, ascending.  The scan runs in C
    (bin and str.find), so the Python-level work is one step per set bit,
    however wide the mask."""
    digits = bin(mask)[:1:-1]  # lowest bit first
    out = []
    j = digits.find("1")
    while j >= 0:
        out.append(j)
        j = digits.find("1", j + 1)
    return out


def _or_rows(rows: Sequence[int], indices: Iterable[int]) -> int:
    """The OR of rows[x] over the given indices x."""
    out = 0
    for x in indices:
        out |= rows[x]
    return out


def _holders(n: int, families: Iterable[Iterable[int]]) -> list[int]:
    """holders[x] = bitset over the positions j of families (each given
    by its members' subset indices) whose family has subset x."""
    holders = [0] * (1 << n)
    for j, members in enumerate(families):
        bit = 1 << j
        for x in members:
            holders[x] |= bit
    return holders


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
def _pair_sweep_setup(n: int) -> tuple:
    """The antichains of {1..n} and their tables for the all-pairs sweep,
    in this order:

    - fams, the antichains;
    - traces[i], the pushed trace of fams[i] (None on SelectionError),
      which _normalized also stores on fams[i] itself, and audits[i], its
      _audit;
    - contains[x], the antichains (a bitset over antichain indices) that
      have subset x as a member;
    - missers[y] and pushed[y], the antichains with a member that misses
      subset y, and those whose audited final has one (see _missers);
    - stepped and sound, the antichains whose audit says so.

    Every mask over antichains reads the audits, so the audit is the one
    record of what a push did.  A process builds this on first use, so it
    enumerates, pushes and audits each antichain once, whichever stripes
    it runs."""
    from .normalize import SelectionError, _normalized
    fams = list(enumerate_antichains(n))
    traces = []
    for f in fams:
        try:
            traces.append(_normalized(f))
        except SelectionError:
            # not stored by _normalized, so each pair it spoils raises it
            # again in normalize_pair and records it there
            traces.append(None)
    audits = [None if t is None else _audit(f, t)
              for f, t in zip(fams, traces)]
    contains = _holders(n, (f.members for f in fams))
    missers = _missers(n, contains)
    pushed = _missers(n, _holders(n, (() if a is None else a[2] for a in audits)))
    stepped = sum(1 << j for j, a in enumerate(audits) if a and a[1])
    sound = sum(1 << j for j, a in enumerate(audits) if a and a[0])
    return fams, traces, audits, contains, missers, pushed, stepped, sound


@lru_cache(maxsize=None)
def _band(n: int) -> tuple[int, int]:
    """normalize.middle_band(n), imported here once per n rather than in
    _audit, which runs once per antichain."""
    from .normalize import middle_band
    return middle_band(n)


def _audit(f: Family, trace) -> tuple[bool, bool, tuple[int, ...]]:
    """(sound, stepped, final members) of f's pushed trace.  Sound: the
    final keeps f's size, is an antichain and lies in the band, and a
    trace without steps returns f."""
    final = trace.final
    m = final.members
    lo, hi = _band(f.n)
    stepped = bool(trace.steps)
    sound = (len(m) == len(f) and is_antichain(final)
             and all(lo <= x.bit_count() <= hi for x in m)
             and (stepped or final == f))
    return sound, stepped, m


def _pair_sweep_stripe(args: tuple[int, int, int]) -> tuple:
    """One stripe (i = stripe, stripe+nstripes, ...) of the all-pairs
    normalization sweep, with the antichain count; results merge
    associatively across stripes.

    Row i works on bitsets over antichain indices.  Its partners, the
    j >= i that cross fams[i], are those with no member that misses a
    member of fams[i]: the complement of the OR of missers[x] over the
    members x of fams[i].  Only their set bits are visited, each by one
    normalize_pair call on the table's own Family objects, so the memo
    on each object answers it with the table's traces by identity, with
    no hashing.  A pair whose call raises SelectionError is recorded as a
    failure.  A pair whose call returns a trace that is not the table's
    is odd: it is audited as a row of one partner, whose stepped, sound
    and "finals miss" bits come from the audit of the traces returned,
    so the audit always covers what normalize_pair returned for the pair,
    the diagonal pair included.  The other partners form one row that
    reads the table's audits: stepped, sound, and pushed[x], the partners
    whose final misses the member x of i's final.

    One rule audits every row: a pair moved if either side stepped, an
    unmoved pair needs both sides sound, and a moved pair also needs the
    two finals to cross.  Only violating pairs are decoded to sets.
    """
    # imported when the stripe runs, so normalize runs only in a sweep and
    # a wrapper set on sperner.normalize.normalize_pair sees every pair
    from .normalize import SelectionError, normalize_pair
    n, stripe, nstripes = args
    (fams, traces, audits, contains,
     missers, pushed, stepped, sound) = _pair_sweep_setup(n)
    count = len(fams)
    everything = (1 << count) - 1
    full = (1 << n) - 1
    crossing = moved = 0
    failures: list[tuple] = []
    violations: list[tuple] = []
    for i in range(stripe, count, nstripes):
        fi, ti = fams[i], traces[i]
        partners = (everything >> i << i) & ~_or_rows(missers, fi.members)
        crossing += partners.bit_count()
        # complement exclusion: a crossing pair never contains a member
        # together with its complement on the other side
        clash = _or_rows(contains, (full ^ x for x in fi.members))
        for j in _bits(partners & clash):
            violations.append(("complement", fi.sets(), fams[j].sets()))
        # each row: the audit of i's side, its partners, and the partners'
        # stepped, sound and "finals miss" bits
        rows = []
        odd = 0
        for j in _bits(partners):
            try:
                ta, tb = normalize_pair(fi, fams[j], False)
            except SelectionError as exc:
                odd |= 1 << j
                failures.append((fi.sets(), fams[j].sets(), str(exc)))
                continue
            if ta is ti and tb is traces[j]:
                continue
            odd |= 1 << j
            a = audits[i] if ta is ti else _audit(fi, ta)
            b_sound, b_stepped, b_final = (audits[j] if tb is traces[j]
                                           else _audit(fams[j], tb))
            crosses = all(x & y for x in a[2] for y in b_final)
            rows.append((a, 1 << j, b_stepped << j, b_sound << j,
                         (not crosses) << j))
        table = partners & ~odd
        if table:
            a = audits[i]
            rows.append((a, table, stepped, sound, _or_rows(pushed, a[2])))
        for (a_sound, a_stepped, _), row, row_stepped, row_sound, miss in rows:
            # shifted pairs moved (a side stepped), still pairs did not
            shifted = row if a_stepped else row & row_stepped
            still = row ^ shifted
            moved += shifted.bit_count()
            if a_sound:
                still &= ~row_sound
                shifted &= ~row_sound | miss
            for j in _bits(still):
                violations.append(("identity", fi.sets(), fams[j].sets()))
            for j in _bits(shifted):
                violations.append(("preservation", fi.sets(), fams[j].sets()))
    return count, crossing, moved, failures, violations


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

    Work is split into a fixed number of interleaved row stripes, so the
    rows of each stripe, and of each worker, cost about the same; merging
    is order-independent, so the report is identical at any worker count
    and process start method.
    """
    if not 1 <= n <= 5:
        raise ValueError("the exhaustive pair sweep supports 1 <= n <= 5")
    from .parallel import parallel_map
    tasks = [(n, s, PAIR_SWEEP_STRIPES) for s in range(PAIR_SWEEP_STRIPES)]
    results = parallel_map(_pair_sweep_stripe, tasks, workers)
    antichains = results[0][0]
    crossing = sum(r[1] for r in results)
    moved = sum(r[2] for r in results)
    failures = sorted(f for r in results for f in r[3])
    violations = sorted(v for r in results for v in r[4])
    return PairSweepReport(n, antichains, crossing, moved,
                           tuple(failures), tuple(violations))


def sweep_last_shade_margin(n_max: int = 12) -> SweepReport:
    """Even n >= 6, level k = n/2: |shade of the last m k-sets| strictly
    exceeds n/(n+2)*m + 1 for every 1 <= m < C(n,k) - 1.  Comparisons are
    integer cross-multiplied, and the closed form is cross-checked against
    brute force at every instance; also confirms that the lone documented
    exception n=4, m=3 is an exact tie."""
    from .cascade import (SweepReport, _fresh_sizes, _segment_checks,
                          shade_of_last_bound)
    if not 6 <= n_max <= 12:
        raise ValueError("supported n_max range is 6..12")
    instances = 0
    bad = []
    notes = []
    for n in range(6, n_max + 1, 2):
        k = n // 2
        checks = islice(_segment_checks(n, k, True), comb(n, k) - 2)
        for m, size, brute in checks:
            instances += 1
            # size > n/(n+2)*m + 1  <=>  (size-1)*(n+2) > n*m
            if not (size - 1) * (n + 2) > n * m:
                bad.append((n, m, size))
            if brute != size:
                bad.append((n, m, "brute-force mismatch", brute, size))
    tie = shade_of_last_bound(3, 4, 2)
    if (tie - 1) * 6 == 4 * 3 and tie == _fresh_sizes(4, 2, True)[3]:
        notes.append("n=4, m=3 is an exact tie (|shade|=3 equals the bound)")
    else:
        bad.append((4, 3, tie, "expected an exact tie"))
    return SweepReport("last-shade-margin", instances, tuple(bad), tuple(notes))
