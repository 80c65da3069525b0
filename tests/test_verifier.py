import importlib
import random
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from conftest import fam, rank_set, with_oversize_family
from sperner import verifier
from sperner.cascade import (SweepReport, kkt_oracle_mismatches,
                             window_minimality_report)
from sperner.ground import (Family, full_level, is_antichain,
                            is_cross_intersecting, sort_members)
from sperner.squashed import level_masks
from sperner.verifier import (DEDEKIND, antichain_mask_tuples,
                              canonical_family_key, canonical_pair,
                              _census_scan, canonical_pair_key,
                              count_antichains_oracle,
                              enumerate_antichains, expected_near_optimal_pairs,
                              expected_optimal_pairs, extremal_report,
                              max_cross_sum, max_sum_formula,
                              middle_band_antichains, near_extremal_report,
                              size4_antichain_classes_report,
                              sweep_last_shade_margin, sweep_shadow_excess)


def brute_antichains(universe, min_size):
    """Every subset of the universe, in universe order, that is pairwise
    incomparable and has at least min_size members."""
    out = []
    for bits in range(1 << len(universe)):
        sub = tuple(m for i, m in enumerate(universe) if bits >> i & 1)
        if len(sub) >= min_size and all(x & ~y and y & ~x
                                        for x, y in combinations(sub, 2)):
            out.append(sub)
    return out


@pytest.fixture
def short_shadow_of_two(monkeypatch):
    # |shadow of the first 2 2-sets of {1..3}| read as 2, not 3: it
    # disagrees with the closed form and with the dual shade sizes, and
    # the window of the 2nd 2-set alone adds nothing
    cascade = importlib.import_module("sperner.cascade")
    real = cascade._fresh_sizes
    monkeypatch.setattr(cascade, "_fresh_sizes", lambda n, k, up: [
        size - ((n, k, up, m) == (3, 2, False, 2))
        for m, size in enumerate(real(n, k, up))])


def comparable(s, t):
    return not s & ~t or not t & ~s


@lru_cache(maxsize=None)
def brute_walk_table(n):
    """The walk table of the power set of {1..n} rebuilt by brute force:
    the subsets by descending comparable count (a stable sort), their
    positions, and per position the later positions comparable to it and
    those incomparable to it."""
    power = range(1 << n)
    cands = sorted(power, key=lambda s: -sum(comparable(s, t) for t in power))
    pos = {s: i for i, s in enumerate(cands)}
    clash, keep = [], []
    for i, s in enumerate(cands):
        later = range(i + 1, 1 << n)
        clash.append(sum(1 << j for j in later if comparable(s, cands[j])))
        keep.append(sum(1 << j for j in later if not comparable(s, cands[j])))
    return cands, pos, clash, keep


def reference_walk(universe, min_size=0):
    """The walk with each free-tail antichain built as chosen + extra:
    the same table order, pruning and walk order as antichain_mask_tuples,
    on a table built by brute force."""
    universe = set(universe)
    cands, pos, clash, keep = brute_walk_table(max(universe, default=0).bit_length())
    start = 0
    for s in universe:
        start |= 1 << pos[s]
    stack = [((), start)]
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
        else:
            for r in range(max(min_size - len(chosen), 0), len(rest) + 1):
                for extra in combinations(rest, r):
                    yield chosen + extra
            continue
        if len(chosen) >= min_size:
            yield chosen
        cand = allowed
        while cand:
            i = cand.bit_length() - 1
            cand ^= 1 << i
            nxt = allowed & keep[i]
            if len(chosen) + 1 + nxt.bit_count() >= min_size:
                stack.append((chosen + (cands[i],), nxt))


WALK_UNIVERSES = {
    "power3": list(range(8)),
    "power3_reversed": list(range(8))[::-1],
    "power4": list(range(16)),
    "power4_reversed": list(range(16))[::-1],
    "levels_3_2": list(level_masks(4, 3) + level_masks(4, 2)),
    "levels_2_3": list(level_masks(4, 2) + level_masks(4, 3)),
    # a transversal: the subsets meeting both {1,2} and {3,4}
    "transversal_4": [y for y in range(16) if y & 0b0011 and y & 0b1100],
}


class TestEnumeration:
    def test_counts_match_oracle(self):
        for n in range(1, 6):
            assert sum(1 for _ in enumerate_antichains(n)) \
                == count_antichains_oracle(n) == DEDEKIND[n]

    def test_oracle_reads_nothing_of_the_walk(self, monkeypatch):
        # the oracle is the walk's second route: it must count with the
        # walk, its table and its subset-union pass all out of reach
        def walk_called(*args, **kwargs):
            raise AssertionError("the oracle called the walk's code")

        for name in ("_walk_table", "antichain_mask_tuples", "_missers"):
            monkeypatch.setattr(verifier, name, walk_called)
        for n in range(1, 7):
            assert count_antichains_oracle(n) == DEDEKIND[n]

    @pytest.mark.parametrize("n", [0, 7])
    def test_oracle_gating(self, n):
        with pytest.raises(ValueError, match="oracle supports 1 <= n <= 6"):
            count_antichains_oracle(n)

    def test_every_yield_is_an_antichain_and_unique(self):
        for n in (3, 4):
            seen = set()
            for f in enumerate_antichains(n):
                assert is_antichain(f)
                assert f.members not in seen
                seen.add(f.members)

    def test_n1_convention(self):
        fams = sorted(f.members for f in enumerate_antichains(1))
        assert fams == [(), (0,), (1,)]  # empty family, {emptyset}, {{1}}

    def test_gating(self):
        with pytest.raises(ValueError):
            list(enumerate_antichains(7))
        with pytest.raises(ValueError):
            next(enumerate_antichains(6))

    def test_n6_count(self):
        # raw mask-tuple walk (no Family materialization) stays fast
        count = sum(1 for _ in antichain_mask_tuples(range(1 << 6)))
        assert count == DEDEKIND[6]

    def test_min_size_prune_consistent(self):
        universe = list(range(1 << 4))
        everything = [a for a in antichain_mask_tuples(universe) if len(a) >= 3]
        pruned = list(antichain_mask_tuples(universe, min_size=3))
        assert sorted(everything) == sorted(pruned)

    @pytest.mark.parametrize("min_size", [0, 2, 4])
    @pytest.mark.parametrize("name", sorted(WALK_UNIVERSES))
    def test_walk_matches_brute_force(self, name, min_size):
        universe = WALK_UNIVERSES[name]
        # members come in walk order, so compare the antichains as sets
        walked = [frozenset(a) for a in antichain_mask_tuples(universe, min_size)]
        assert len(set(walked)) == len(walked)
        assert set(walked) == {frozenset(a) for a in brute_antichains(universe, min_size)}

    @pytest.mark.parametrize("n", range(6))
    def test_walk_order_matches_reference_on_power_sets(self, n):
        # min_size up to the width + 1: free tails with nothing to drop
        # (lo == 0), only the whole tail (lo == k) and too short (lo > k)
        universe = range(1 << n)
        for min_size in range(comb(n, n // 2) + 2):
            assert list(antichain_mask_tuples(universe, min_size)) \
                == list(reference_walk(universe, min_size))

    @pytest.mark.parametrize("name", sorted(WALK_UNIVERSES))
    def test_walk_order_matches_reference_on_walk_universes(self, name):
        universe = WALK_UNIVERSES[name]
        for min_size in range(8):
            assert list(antichain_mask_tuples(universe, min_size)) \
                == list(reference_walk(universe, min_size))

    @pytest.mark.parametrize("min_size", [14, 17])
    def test_walk_order_matches_reference_on_n6_rows(self, min_size):
        assert list(antichain_mask_tuples(range(64), min_size)) \
            == list(reference_walk(range(64), min_size))

    @given(st.lists(st.integers(0, 31), max_size=24), st.integers(0, 7))
    def test_walk_order_matches_reference_on_drawn_universes(self, universe, min_size):
        assert list(antichain_mask_tuples(universe, min_size)) \
            == list(reference_walk(universe, min_size))

    @pytest.mark.parametrize("n", range(10))
    def test_walk_table_against_brute_force(self, n):
        # the walk branches on the candidates comparable to the most
        # others first: a stable sort of the power set by that count
        cands, pos, keep = verifier._walk_table(n)
        brute_cands, _, _, brute_keep = brute_walk_table(n)
        assert list(cands) == brute_cands
        assert [pos[s] for s in cands] == list(range(1 << n))
        assert list(keep) == brute_keep

    def test_repeated_candidate_counts_once(self):
        assert sorted(antichain_mask_tuples([1, 1])) == [(), (1,)]
        walked = sorted(tuple(sorted(a)) for a in antichain_mask_tuples([3, 1, 3, 2, 1]))
        assert walked == [(), (1,), (1, 2), (2,), (3,)]

    @pytest.mark.parametrize("universe", [[-1, 2], [3, -4]])
    def test_negative_candidate_rejected(self, universe):
        with pytest.raises(ValueError, match="set masks"):
            list(antichain_mask_tuples(universe))

    def test_candidate_beyond_the_table_cap_rejected(self):
        # a set on {1..13} would need a table of 2^13 bitsets of 2^13 bits
        with pytest.raises(ValueError, match="subsets of"):
            list(antichain_mask_tuples([1, 1 << verifier.MAX_WALK_GROUND]))

    def test_n6_band_is_the_walk_restricted_to_ranks_3_and_4(self):
        band = [frozenset(a) for a in middle_band_antichains(6, 14)]
        assert len(band) == len(set(band)) == 71972
        walked = {frozenset(a) for a in antichain_mask_tuples(range(64), min_size=14)
                  if all(m.bit_count() in (3, 4) for m in a)}
        assert set(band) == walked

    def test_middle_band_covers_band_antichains(self):
        # cross-check the specialized band enumerator against filtering
        # the full enumeration
        n = 4
        band = {a for a in middle_band_antichains(n, 0)}
        expected = set()
        for f in enumerate_antichains(n):
            if f.members and not rank_set(f) <= {2, 3}:
                continue
            expected.add(tuple(sorted(f.members)))
        assert {tuple(sorted(a)) for a in band} == expected


class TestCanonicalForms:
    def test_level_is_fixed_point(self):
        lv = full_level(4, 2)
        assert canonical_family_key(lv) == lv.members

    def test_pair_respects_order(self):
        lo, hi = full_level(4, 2), full_level(4, 3)
        assert canonical_pair_key(lo, hi) != canonical_pair_key(hi, lo)

    def test_known_isomorphic_families(self):
        a = fam(4, (1,), (2, 3), (2, 4), (3, 4))
        b = fam(4, (3,), (1, 2), (1, 4), (2, 4))  # relabeled copy
        assert canonical_family_key(a) == canonical_family_key(b)
        c = fam(4, (1, 2), (1, 3), (1, 4), (2, 3, 4))
        assert canonical_family_key(a) != canonical_family_key(c)

    def test_random_permutations_fix_canonical_form(self):
        rng = random.Random(20260810)
        for n in range(1, 6):
            universe = (1 << n) - 1
            for _ in range(1000):
                a = Family.from_masks(
                    n, (rng.randint(0, universe) for _ in range(rng.randint(0, 4))))
                b = Family.from_masks(
                    n, (rng.randint(0, universe) for _ in range(rng.randint(0, 4))))
                perm = list(range(n))
                rng.shuffle(perm)
                def apply(mask):
                    out = 0
                    for i in range(n):
                        if mask >> i & 1:
                            out |= 1 << perm[i]
                    return out
                pa = Family.from_masks(n, (apply(m) for m in a.members))
                pb = Family.from_masks(n, (apply(m) for m in b.members))
                assert canonical_pair_key(a, b) == canonical_pair_key(pa, pb)

    @pytest.mark.parametrize("n, count", [(1, 40), (2, 40), (3, 40),
                                          (4, 40), (5, 40), (6, 4)])
    def test_orbit_is_every_permutation_image(self, n, count):
        # the definition: apply each of the n! ground permutations
        rng = random.Random(20261019 + n)
        universe = (1 << n) - 1
        perms = list(permutations(range(n)))
        for trial in range(count):
            fams = [Family.from_masks(
                        n, (rng.randint(0, universe) for _ in range(rng.randint(0, 5))))
                    for _ in range(1 + trial % 2)]
            images = {tuple(sort_members(sum(1 << p[i] for i in range(n) if m >> i & 1)
                                         for m in f.members)
                            for f in fams)
                      for p in perms}
            orbit = verifier._orbit(*fams)
            assert orbit == images
            assert factorial(n) % len(orbit) == 0

    def test_canonical_pair_materializes_representative(self):
        a, b = canonical_pair(full_level(3, 2), fam(3, (1, 2)))
        assert isinstance(a, Family) and isinstance(b, Family)


class TestCensus:
    @staticmethod
    def census_work(monkeypatch, n, seed_best=None):
        """Run the census of {1..n} (or, given seed_best, its scan alone
        with that seed) with its walks and row reads counted.  Returns the
        scan's (best, buckets, incomplete) and the work: rows, transversal
        walks, antichains those walks draw, and rows scanned.  The first
        walk is the rows walk, every later one a transversal walk, and the
        scan reads each row through one _or_rows call."""
        walk, or_rows, scan = (verifier.antichain_mask_tuples,
                               verifier._or_rows, verifier._census_scan)
        drawn, scanned, result = [], [0], []

        def counted_walk(universe, min_size=0):
            drawn.append(0)
            for masks in walk(universe, min_size):
                drawn[-1] += 1
                yield masks

        def counted_or_rows(rows, indices):
            scanned[0] += 1
            return or_rows(rows, indices)

        def kept_scan(*args):
            result.append(scan(*args))
            return result[-1]

        monkeypatch.setattr(verifier, "antichain_mask_tuples", counted_walk)
        monkeypatch.setattr(verifier, "_or_rows", counted_or_rows)
        monkeypatch.setattr(verifier, "_census_scan", kept_scan)
        if seed_best is None:
            max_cross_sum(n)
        else:
            verifier._census_scan(n, None, seed_best)
        return result[0], (drawn[0], len(drawn) - 1, sum(drawn[1:]), scanned[0])

    # per n: rows, transversal walks, antichains those walks draw, and
    # rows scanned
    WORK = {1: (2, 2, 3, 2), 2: (5, 1, 2, 5), 3: (2, 2, 4, 2),
            4: (7, 7, 11, 7), 5: (2, 2, 11, 2), 6: (1381, 211, 36, 1381)}

    @pytest.mark.parametrize("n", sorted(WORK))
    def test_census_work(self, monkeypatch, n):
        # the rows walk and the transversal walks, not every antichain of
        # the old Sperner floor (83 619 of them at n=6); a looser pruning
        # rule leaves every answer alone and changes these counts
        assert self.census_work(monkeypatch, n)[1] == self.WORK[n]

    @pytest.mark.parametrize("n,scanned", [(1, 2), (2, 5), (3, 2), (4, 7), (5, 2)])
    def test_unseeded_scan_rows(self, monkeypatch, n, scanned):
        # with no seed every antichain is a row, and the scan still stops
        # at the first row too small to reach the running best - 1
        _, (rows, _, _, read) = self.census_work(monkeypatch, n, seed_best=0)
        assert rows == DEDEKIND[n] and read == scanned

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_buckets_hold_each_pair_once(self, monkeypatch, n):
        (best, buckets, incomplete), _ = self.census_work(monkeypatch, n)
        assert not incomplete and set(buckets) == {best, best - 1}
        for pairs in buckets.values():
            assert len({tuple(sorted(p)) for p in pairs}) == len(pairs)

    def test_budget_marks_incomplete(self):
        census = max_cross_sum(5, budget_seconds=0.0)
        assert census.incomplete

    def test_out_of_range(self):
        for n in (-1, 0, 7):
            with pytest.raises(ValueError, match=r"1 <= n <= 6"):
                max_cross_sum(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_seed_floor_keeps_every_pair(self, n):
        # the seeded census walks only the rows of at least half the floor
        # and the transversals of the largest rows; an unseeded scan takes
        # every antichain as a row and is the reference
        best, buckets, incomplete = _census_scan(n, None, 0)
        assert not incomplete

        def ordered(pairs):
            out = set()
            for a, b in pairs:
                fa, fb = Family.from_masks(n, a), Family.from_masks(n, b)
                out |= {(fa, fb), (fb, fa)}
            return out

        census = max_cross_sum(n)
        assert census.optimum == best
        assert set(census.raw_optimum) == ordered(buckets[best])
        assert set(census.raw_near) == ordered(buckets[best - 1])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_naive_oracle(self, n):
        # independent route: plain nested scan with the Family predicate,
        # no bit-index tables, no pruning
        fams = list(enumerate_antichains(n))
        best = 0
        pairs = {}
        for i, a in enumerate(fams):
            for b in fams[i:]:
                if not is_cross_intersecting(a, b):
                    continue
                s = len(a) + len(b)
                best = max(best, s)
                pairs.setdefault(s, []).append((a, b))
        census = max_cross_sum(n)
        assert census.optimum == best

        def ordered(unordered_pairs):
            out = set()
            for a, b in unordered_pairs:
                out.add((a, b))
                out.add((b, a))
            return out

        assert set(census.raw_optimum) == ordered(pairs[best])
        assert set(census.raw_near) == ordered(pairs.get(best - 1, []))
        assert census.unordered_count_optimum == len(pairs[best])
        assert census.unordered_count_near == len(pairs.get(best - 1, []))


class TestMissers:
    @staticmethod
    def family_lists(n):
        full = (1 << n) - 1
        return {
            "antichains": list(antichain_mask_tuples(range(1 << n))),
            "empty-family": [(full,), (), (0,)],
            "repeated-family": [(1,), (full,), (1,)],
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_definition(self, n):
        # missers[y]: the positions j where some member x of fams[j] has
        # x & y == 0, checked subset by subset
        for fams in self.family_lists(n).values():
            missers = verifier._missers(n, verifier._holders(n, fams))
            assert missers == [
                sum(1 << j for j, members in enumerate(fams)
                    if any(not x & y for x in members))
                for y in range(1 << n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_holders_no_missers(self, n):
        assert verifier._missers(n, [0] * (1 << n)) == [0] * (1 << n)


def _drop_one_near_pair(monkeypatch, incomplete):
    """Make the census scan lose its first optimum-1 pair, and report the
    scan as complete or budget-cut; returns the dropped ordered pairs."""
    scan = verifier._census_scan
    dropped = []

    def lossy(n, deadline, seed_best):
        best, buckets, _ = scan(n, deadline, seed_best)
        a, b = buckets[best - 1].pop(0)
        fa, fb = Family.from_masks(n, a), Family.from_masks(n, b)
        dropped.extend({(fa, fb), (fb, fa)})
        return best, buckets, incomplete

    monkeypatch.setattr(verifier, "_census_scan", lossy)
    return dropped


class TestOrbitClasses:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_classes_are_the_canonical_forms(self, n):
        # the per-pair canonical form is the reference definition
        census = max_cross_sum(n)
        for classes, raw in ((census.optimum_pairs, census.raw_optimum),
                             (census.near_optimum_pairs, census.raw_near)):
            assert classes == tuple(sorted({canonical_pair(a, b)
                                            for a, b in raw}))

    def test_complete_census_must_be_closed(self, monkeypatch):
        # every optimum-1 orbit at n=4 has at least 4 ordered pairs, so
        # losing one unordered pair leaves an orbit open
        _drop_one_near_pair(monkeypatch, incomplete=False)
        with pytest.raises(RuntimeError, match="not closed"):
            max_cross_sum(4)

    def test_budget_cut_census_lists_found_pairs(self, monkeypatch):
        dropped = _drop_one_near_pair(monkeypatch, incomplete=True)
        census = max_cross_sum(4)
        assert census.incomplete
        assert not set(dropped) & set(census.raw_near)
        assert set(census.near_optimum_pairs) <= set(census.raw_near)
        # still one class per orbit that the search found a pair of
        assert len(census.near_optimum_pairs) == len(
            {canonical_pair(a, b) for a, b in census.raw_near})

    def test_theorem_1_4_compares_raw_pairs(self, monkeypatch):
        # (hi, lo) has the same canonical form as (lo, hi) only if the
        # check forgets the pair order; a raw comparison sees it missing
        real = max_cross_sum(4)
        lo, hi = full_level(4, 2), full_level(4, 3)
        swapped = real._replace(raw_optimum=tuple(
            p for p in real.raw_optimum if p != (hi, lo)))
        assert swapped.raw_optimum == ((lo, hi),)
        monkeypatch.setattr(verifier, "max_cross_sum",
                            lambda n, budget_seconds=None: swapped)
        assert not extremal_report(4)["match"]

    def test_orbit_once_per_class(self, monkeypatch):
        calls = {"_orbit": 0, "canonical_pair": 0, "canonical_pair_key": 0}
        for name in calls:
            real = getattr(verifier, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(verifier, name, counted)
        assert extremal_report(6)["match"]
        # 2 optimal classes and 4 optimum-1 classes
        assert calls == {"_orbit": 6, "canonical_pair": 0,
                         "canonical_pair_key": 0}


class TestTheoremReports:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_extremal(self, n):
        report = extremal_report(n)
        assert report["match"]
        assert report["formula_value"] == max_sum_formula(n)

    @pytest.mark.parametrize("n,expected_ordered", [(3, 6), (4, 20), (5, 20)])
    def test_near_extremal(self, n, expected_ordered):
        report = near_extremal_report(n)
        assert report["match"]
        assert report["formula_value"] == max_sum_formula(n)
        assert report["expected_ordered"] == expected_ordered
        assert not report["missing"] and not report["unexpected"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_near_extremal_fails_below_range(self, n):
        # the characterization needs n >= 3 (odd) or n >= 4 (even); below
        # that the census finds optimum-1 pairs it does not predict, and
        # the CLI refuses these sizes rather than report a refutation
        report = near_extremal_report(n)
        assert not report["match"]
        assert report["unexpected"]

    def test_expected_pair_constructions(self):
        assert len(expected_optimal_pairs(5)) == 1
        assert len(expected_optimal_pairs(4)) == 2
        assert len(expected_near_optimal_pairs(3)) == 6
        assert len(expected_near_optimal_pairs(4)) == 20
        for n in range(4, 9):
            formula = max_sum_formula(n)
            near = expected_near_optimal_pairs(n)
            # one deletion per member of each side of each ordered optimum
            assert len(near) == len(expected_optimal_pairs(n)) * formula
            for a, b in near:
                assert is_antichain(a) and is_antichain(b)
                assert is_cross_intersecting(a, b)
                assert len(a) + len(b) == formula - 1

    def test_n6_reports_cover_every_antichain(self):
        # the n=6 census walks every antichain, so the bound and the
        # characterization hold over the whole lattice, not a band
        report = extremal_report(6)
        assert report["match"]
        assert not hasattr(report["census"], "reduction")
        near = near_extremal_report(6)
        assert near["match"]
        assert near["expected_ordered"] == 70


class TestSize4Classes:
    def test_report_flags_an_oversize_family(self, monkeypatch):
        # no antichain of {1..4} with a 1-set has 5 members; an enumeration
        # that yields such a family anyway must fail the report
        oversize = with_oversize_family(monkeypatch)
        report = size4_antichain_classes_report()
        assert report["scanned"] == 169 and report["eligible"] == 103
        assert report["oversize"] == (oversize,)
        assert len(report["found_classes"]) == 4
        assert not report["match"]

    def test_examples(self):
        assert len(fam(4, (1,), (2, 3), (2, 4), (3, 4))) == 4
        assert len(full_level(4, 1)) == 4
        assert len(fam(4, (1,), (2, 3, 4))) == 2


class TestSweeps:
    def test_last_shade_margin(self):
        report = sweep_last_shade_margin(12)
        assert report.passed
        assert report.notes  # the n=4, m=3 tie is confirmed
        expected = sum(comb(n, n // 2) - 2 for n in (6, 8, 10, 12))
        assert report.instances == expected

    def test_last_shade_margin_brute_cross_check(self):
        from sperner.cascade import shade, shade_of_last_bound
        from sperner.squashed import last_segment
        for n in (4, 6, 8):
            k = n // 2
            for m in range(0, comb(n, k) + 1):
                assert len(shade(last_segment(n, k, m))) \
                    == shade_of_last_bound(m, n, k)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sweep_shadow_excess(15)
        with pytest.raises(ValueError):
            sweep_last_shade_margin(4)
        # a cross-check over no instance is refused, not passed
        with pytest.raises(ValueError, match="no instance"):
            kkt_oracle_mismatches(0)
        with pytest.raises(ValueError, match="no instance"):
            window_minimality_report(0)

    def test_sweep_report_refuses_zero_instances_when_built(self):
        report = SweepReport("probe", 1, ())
        assert report.passed and report.notes == ()
        assert report._replace(notes=("n",)) == SweepReport("probe", 1, (), ("n",))
        for build in (lambda: SweepReport("probe", 0, ()),
                      lambda: report._replace(instances=0),
                      lambda: SweepReport._make(("probe", 0, (), ()))):
            with pytest.raises(ValueError, match="probe checked no instance"):
                build()

    def test_every_cross_check_reports_a_sweep_report(self):
        for report in (sweep_shadow_excess(3), sweep_last_shade_margin(6),
                       kkt_oracle_mismatches(3), window_minimality_report(3)):
            assert type(report) is SweepReport and report.passed

    def test_shadow_excess_brute_checks_every_n(self, monkeypatch):
        # a closed form off by one at n=11 (k=7) still clears m+2, so only
        # the brute-force comparison can see it
        cascade = importlib.import_module("sperner.cascade")
        real = cascade.kkt_shadow_bound
        monkeypatch.setattr(cascade, "kkt_shadow_bound",
                            lambda m, k: real(m, k) + (k == 7))
        report = sweep_shadow_excess(13)
        assert not report.passed
        assert {v[0] for v in report.violations} == {11}
        assert all(v[2] == "brute-force mismatch" for v in report.violations)

    def test_last_shade_margin_brute_checks_every_n(self, monkeypatch):
        # raising the closed form at n=12 keeps the margin, so only the
        # brute-force comparison can see it
        cascade = importlib.import_module("sperner.cascade")
        real = cascade.shade_of_last_bound
        monkeypatch.setattr(cascade, "shade_of_last_bound",
                            lambda m, n, k: real(m, n, k) + (n == 12))
        report = sweep_last_shade_margin(12)
        assert not report.passed
        assert {v[0] for v in report.violations} == {12}
        assert all(v[2] == "brute-force mismatch" for v in report.violations)

    def test_last_shade_margin_reports_a_lost_margin(self, monkeypatch):
        # the closed form at n=6, m=1 lowered from 3 to 1: (1-1)*8 > 6*1
        # fails, and brute force still reads 3
        cascade = importlib.import_module("sperner.cascade")
        real = cascade.shade_of_last_bound
        monkeypatch.setattr(cascade, "shade_of_last_bound",
                            lambda m, n, k: real(m, n, k) - 2 * (n == 6 and m == 1))
        report = sweep_last_shade_margin(6)
        assert report.violations == ((6, 1, 1),
                                     (6, 1, "brute-force mismatch", 3, 1))

    def test_last_shade_margin_is_strict(self, monkeypatch):
        # a shade of 4 at n=6, m=4, on both routes, meets the bound
        # exactly: (4-1)*8 == 6*4 is no strict margin
        cascade = importlib.import_module("sperner.cascade")
        real = cascade._segment_checks

        def tied(n, k, up):
            for check in real(n, k, up):
                yield (4, 4, 4) if n == 6 and check[0] == 4 else check

        monkeypatch.setattr(cascade, "_segment_checks", tied)
        report = sweep_last_shade_margin(6)
        assert report.violations == ((6, 4, 4),)

    def test_last_shade_margin_reports_a_lost_tie(self, monkeypatch):
        cascade = importlib.import_module("sperner.cascade")
        real = cascade.shade_of_last_bound
        monkeypatch.setattr(cascade, "shade_of_last_bound",
                            lambda m, n, k: real(m, n, k) + (n == 4))
        report = sweep_last_shade_margin(6)
        assert report.violations == ((4, 3, 4, "expected an exact tie"),)
        assert report.notes == ()

    def test_kkt_oracle_reports_a_closed_form_mismatch(self, monkeypatch):
        cascade = importlib.import_module("sperner.cascade")
        real = cascade.shade_of_last_bound
        monkeypatch.setattr(cascade, "shade_of_last_bound",
                            lambda m, n, k: real(m, n, k) + (n == 3 and k == 1))
        assert kkt_oracle_mismatches(3).violations == tuple(
            (3, 1, m, "shade-closed-form") for m in (1, 2, 3))

    def test_kkt_oracle_reports_a_duality_mismatch(self, short_shadow_of_two):
        assert kkt_oracle_mismatches(3).violations == (
            (3, 2, 2, "shadow-closed-form"), (3, 2, 2, "duality"))

    def test_window_minimality_reports_a_smaller_window(self, short_shadow_of_two):
        assert window_minimality_report(3).violations == (
            (3, 2, 1, 1, "new-shadow", 0, 1),)
