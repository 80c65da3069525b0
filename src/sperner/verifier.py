"""Exhaustive desk-scale verification: antichain enumeration, the search
for the maximum of |A| + |B| over cross-intersecting antichain pairs,
extremal/almost-extremal characterizations, and the closed-form sweeps
that need shadow machinery.

The pair search works on bit masks twice over: each subset of {1..n} is a
mask, and each family is in turn a mask over the 2^n subset indices.  A
family B cross-intersects A iff B's member mask is contained in A's
transversal mask (the subsets meeting every member of A), so the pair
test is a single integer operation.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Iterable, Iterator, Sequence

from .cascade import _fresh_sizes, kkt_shadow_bound, shade_of_last_bound
from .ground import (Family, full_level, is_antichain, is_cross_intersecting,
                     sort_members)
from .normalize import SelectionError, _normalized, middle_band, normalize_pair
from .parallel import parallel_map
from .squashed import level_masks

MAX_ENUMERATION = 6
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581, 6: 7828354}
SHADOW_BRUTE_MAX = 9   # largest n that sweep_shadow_excess also checks by brute force


# ---------------------------------------------------------------------------
# antichain enumeration


def antichain_mask_tuples(universe: Sequence[int],
                          min_size: int = 0) -> Iterator[tuple[int, ...]]:
    """All antichains over the given candidate subsets, each exactly once,
    as tuples of masks in walk order (the empty antichain included when
    min_size == 0).  Branches that cannot reach min_size are pruned.

    A depth-first walk over (chosen, allowed) nodes, where allowed holds
    the later candidates incomparable to everything chosen.  Once the
    allowed candidates are pairwise incomparable, every subset of them
    extends chosen, so the node yields those subsets by size instead of
    descending.  The walk takes the candidates comparable to the most
    others first (a stable sort): on a power set the outer ranks branch
    and the widest rank is left as the free tail.
    """
    def comparable_row(s: int, over: Sequence[int]) -> int:
        # bit j set when s and over[j] contain one another (or are equal)
        return sum(1 << j for j, t in enumerate(over) if not (s & ~t) or not (t & ~s))

    cands = sorted(universe, key=lambda s: -comparable_row(s, universe).bit_count())
    size = len(cands)
    comparable = [comparable_row(s, cands) for s in cands]
    above = [(((1 << size) - 1) >> (i + 1)) << (i + 1) for i in range(size)]
    clash = [comparable[i] & above[i] for i in range(size)]
    keep = [above[i] & ~comparable[i] for i in range(size)]

    stack = [((), (1 << size) - 1)]
    while stack:
        chosen, allowed = stack.pop()
        if not allowed:
            if len(chosen) >= min_size:
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
            for r in range(max(min_size - len(chosen), 0), len(rest) + 1):
                for extra in combinations(rest, r):
                    yield chosen + extra
            continue
        if len(chosen) >= min_size:
            yield chosen
        # children pushed last-first, so they pop in walk order
        cand = allowed
        while cand:
            i = cand.bit_length() - 1
            cand ^= 1 << i
            nxt = allowed & keep[i]
            if len(chosen) + 1 + nxt.bit_count() >= min_size:
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
    is only counted: holders[x] marks the downsets holding subset x, and
    D1 lies inside D0 exactly when it holds no subset outside D0, so D0
    contains every downset but those in the OR of holders[x] over x not
    in D0.
    """
    if not 1 <= n <= 6:
        raise ValueError("oracle supports 1 <= n <= 6")
    downsets = [0, 1]  # downsets of the 1-subset universe {empty set}
    for k in range(n - 1):
        width = 1 << (1 << k)
        downsets = [d0 | (d1 * width)
                    for d0 in downsets for d1 in downsets if not (d1 & ~d0)]
    subsets = range(1 << (n - 1))
    holders = [0] * len(subsets)
    for i, d in enumerate(downsets):
        for x in subsets:
            if d >> x & 1:
                holders[x] |= 1 << i
    count = 0
    for d0 in downsets:
        outside = 0
        for x in subsets:
            if not d0 >> x & 1:
                outside |= holders[x]
        count += len(downsets) - outside.bit_count()
    return count


def middle_band_antichains(n: int, min_size: int) -> Iterator[tuple[int, ...]]:
    """Antichains with all members in ranks {n/2, n/2+1} and at least
    min_size members (even n)."""
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


@dataclass(frozen=True)
class SearchCensus:
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


def _meets_table(n: int) -> list[int]:
    """meets[x] = bitmask over all 2^n subset indices y with x & y != 0."""
    universe = 1 << n
    meets = [0] * universe
    for x in range(universe):
        row = 0
        for y in range(universe):
            if x & y:
                row |= 1 << y
        meets[x] = row
    return meets


def _family_bitmasks(members: Sequence[int], n: int,
                     meets: list[int]) -> tuple[int, int]:
    """A family's member mask over subset indices, and the complement of
    its transversal mask.  B crosses A iff member_mask(B) & avoid(A) == 0."""
    full = (1 << (1 << n)) - 1
    mm, tm = 0, full
    for m in members:
        mm |= 1 << m
        tm &= meets[m]
    return mm, full ^ tm


def _census_scan(cands: Iterable[tuple[int, ...]], n: int,
                 deadline: float | None,
                 seed_best: int) -> tuple[int, dict[int, list], bool]:
    """One sweep over candidate antichains (mask tuples), largest first.

    Each candidate is kept only as its member mask over the 2^n subset
    indices, and only the pairs found are decoded back to member tuples.
    Every crossing pair with sum s >= best - 1 is collected, where best is
    the running maximum (never below seed_best, the sum of a known crossing
    pair); at the end only the pairs at the final best and best - 1 are
    kept.  Nothing needed is pruned: the running best never exceeds the
    final one and sizes are sorted descending, so each row's cut skips
    only pairs below the final best - 1.
    """
    masks = sorted((sum(1 << m for m in c) for c in cands),
                   key=int.bit_count, reverse=True)
    meets = _meets_table(n)

    def members(mask: int) -> tuple[int, ...]:
        return tuple(m for m in range(1 << n) if mask >> m & 1)

    incomplete = False
    best = seed_best
    found = []
    for ii, a in enumerate(masks):
        size_a = a.bit_count()
        if 2 * size_a < best - 1:
            break
        if deadline is not None and time.monotonic() > deadline:
            incomplete = True
            break
        _, avoid = _family_bitmasks(members(a), n, meets)
        # the partners of at least best - 1 - size_a members
        stop = bisect_right(masks, size_a - best + 1, key=lambda m: -m.bit_count())
        for jj in range(ii, stop):
            b = masks[jj]
            if not (b & avoid):
                s = size_a + b.bit_count()
                best = max(best, s)
                found.append((s, a, b))

    buckets: dict[int, list] = {best: [], best - 1: []}
    for s, a, b in found:
        if s >= best - 1:
            buckets[s].append((members(a), members(b)))
    return best, buckets, incomplete


def max_cross_sum(n: int, budget_seconds: float | None = None) -> SearchCensus:
    """Exhaustive maximum of |A| + |B| over cross-intersecting antichain
    pairs of {1..n}, 1 <= n <= 6, with every pair at the optimum and at
    optimum-1.

    A checked crossing pair of middle levels seeds the running best.  No
    antichain has more than C(n, n//2) members (Sperner), so a pair within
    1 of the seed has both sides of at least seed - 1 - C(n, n//2)
    members, and the walk prunes below that floor.  The scan still finds
    any optimum above the seed.
    """
    if not 1 <= n <= MAX_ENUMERATION:
        raise ValueError(f"census supports 1 <= n <= {MAX_ENUMERATION}, got {n}")
    deadline = None
    if budget_seconds is not None:
        deadline = time.monotonic() + budget_seconds
    lo, hi = full_level(n, (n + 1) // 2), full_level(n, n // 2 + 1)
    if not is_cross_intersecting(lo, hi):
        raise RuntimeError(f"the n={n} census seed levels do not cross-intersect")
    seed_best = len(lo) + len(hi)
    floor_size = seed_best - 1 - comb(n, n // 2)
    best, buckets, incomplete = _census_scan(
        antichain_mask_tuples(range(1 << n), floor_size), n, deadline, seed_best)

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


@dataclass(frozen=True)
class SweepReport:
    name: str
    instances: int
    violations: tuple[tuple, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.violations


def sweep_shadow_excess(n_max: int = 13) -> SweepReport:
    """Odd n, level k = ceil(n/2)+1: the shadow of the first m k-sets has
    at least m+2 members, for every m up to C(n,k).  Closed form for all
    n <= n_max, cross-checked against brute force for n <= SHADOW_BRUTE_MAX."""
    if not 3 <= n_max <= 13:
        raise ValueError("supported n_max range is 3..13 (odd levels only)")
    instances = 0
    bad = []
    for n in range(3, n_max + 1, 2):
        k = (n + 1) // 2 + 1
        brute_sizes = _fresh_sizes(n, k, False) if n <= SHADOW_BRUTE_MAX else None
        for m in range(1, comb(n, k) + 1):
            instances += 1
            bound = kkt_shadow_bound(m, k)
            if bound < m + 2:
                bad.append((n, m, bound))
            if brute_sizes is not None and brute_sizes[m] != bound:
                bad.append((n, m, "brute-force mismatch", brute_sizes[m], bound))
    return SweepReport("shadow-excess", instances, tuple(bad))


# The pair sweep always runs this many interleaved row stripes, so its
# split of the work does not depend on the worker count; with 16, a pool
# of two finishes within about one stripe (1/16 of the run) of each other.
PAIR_SWEEP_STRIPES = 16


@lru_cache(maxsize=None)
def _pair_sweep_setup(n: int) -> tuple:
    """Antichains of {1..n} with their member, avoid and complement
    bitmasks over the 2^n subset indices, the meets table, and each
    antichain's pushed trace (None on SelectionError) and its _audit.  A
    process builds this on first use, so it enumerates, pushes and audits
    each antichain once, whichever stripes it runs."""
    fams = list(enumerate_antichains(n))
    meets = _meets_table(n)
    mmask, avoid = zip(*(_family_bitmasks(f.members, n, meets) for f in fams))
    full_mask = (1 << n) - 1
    cmask = []
    for f in fams:
        bits = 0
        for x in f.members:
            bits |= 1 << (full_mask ^ x)
        cmask.append(bits)
    traces = []
    for f in fams:
        try:
            traces.append(_normalized(f))
        except SelectionError:
            # not cached by _normalized, so each pair it spoils raises it
            # again in normalize_pair and records it there
            traces.append(None)
    audits = [None if t is None else _audit(f, t, meets)
              for f, t in zip(fams, traces)]
    return fams, mmask, avoid, cmask, meets, traces, audits


def _audit(f: Family, trace, meets: list[int]) -> tuple[bool, bool, int, int]:
    """(sound, stepped, member mask, avoid mask) of f's pushed trace; the
    masks are the final's.  Sound: the final keeps f's size, is an
    antichain and lies in the band, and a trace without steps returns f."""
    final = trace.final
    m = final.members
    lo, hi = middle_band(f.n)
    stepped = bool(trace.steps)
    sound = (len(m) == len(f) and is_antichain(final)
             and all(lo <= x.bit_count() <= hi for x in m)
             and (stepped or final == f))
    return (sound, stepped, *_family_bitmasks(m, f.n, meets))


def _pair_sweep_stripe(args: tuple[int, int, int]) -> tuple:
    """One stripe (i = stripe, stripe+nstripes, ...) of the all-pairs
    normalization sweep, with the antichain count; results merge
    associatively across stripes.

    Every crossing pair goes through normalize_pair.  A returned trace
    that is the table's trace for its family takes the table's audit;
    any other trace is audited for that pair alone and not stored, so
    the audit always covers what normalize_pair returned for the pair,
    the diagonal pair included.  A pair then costs the moved test and
    one bitmask test of cross-intersection between the finals.
    """
    n, stripe, nstripes = args
    fams, mmask, avoid, cmask, meets, traces, audits = _pair_sweep_setup(n)
    count = len(fams)
    crossing = moved = 0
    failures: list[tuple] = []
    violations: list[tuple] = []
    for i in range(stripe, count, nstripes):
        av = avoid[i]
        ci = cmask[i]
        fi = fams[i]
        for j in range(i, count):
            mj = mmask[j]
            if mj & av:
                continue
            crossing += 1
            fj = fams[j]
            # complement exclusion: a crossing pair never contains a
            # member together with its complement on the other side
            if ci & mj:
                violations.append(("complement", fi.sets(), fj.sets()))
            try:
                ta, tb = normalize_pair(fi, fj, validate=False)
            except SelectionError as exc:
                failures.append((fi.sets(), fj.sets(), str(exc)))
                continue
            a_sound, a_stepped, _, a_avoid = (
                audits[i] if ta is traces[i] else _audit(fi, ta, meets))
            b_sound, b_stepped, b_members, _ = (
                audits[j] if tb is traces[j] else _audit(fj, tb, meets))
            if not (a_stepped or b_stepped):
                # zero-step traces must return the inputs themselves
                if not (a_sound and b_sound):
                    violations.append(("identity", fi.sets(), fj.sets()))
                continue
            moved += 1
            if not (a_sound and b_sound and not a_avoid & b_members):
                violations.append(("preservation", fi.sets(), fj.sets()))
    return count, crossing, moved, failures, violations


@dataclass(frozen=True)
class PairSweepReport:
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
    integer cross-multiplied; also confirms that the lone documented
    exception n=4, m=3 is an exact tie."""
    if not 6 <= n_max <= 12:
        raise ValueError("supported n_max range is 6..12")
    instances = 0
    bad = []
    notes = []
    for n in range(6, n_max + 1, 2):
        k = n // 2
        for m in range(1, comb(n, k) - 1):
            instances += 1
            size = shade_of_last_bound(m, n, k)
            # size > n/(n+2)*m + 1  <=>  (size-1)*(n+2) > n*m
            if not (size - 1) * (n + 2) > n * m:
                bad.append((n, m, size))
    tie = shade_of_last_bound(3, 4, 2)
    if (tie - 1) * 6 == 4 * 3:
        notes.append("n=4, m=3 is an exact tie (|shade|=3 equals the bound)")
    else:
        bad.append((4, 3, tie, "expected an exact tie"))
    return SweepReport("last-shade-margin", instances, tuple(bad), tuple(notes))
