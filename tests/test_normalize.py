from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from sperner.ground import (Family, full_level, independent, is_antichain,
                            is_cross_intersecting)
from sperner import normalize
from sperner.normalize import (MAX_NORMALIZE, NormalizationTrace,
                               SelectionError, Step, _normalized, _step,
                               middle_band, normalize_pair,
                               normalize_to_middle, push_down_max_rank,
                               push_up_min_rank)
from sperner.squashed import squash_compare


def fam(n, *sets):
    return Family.from_sets(n, sets)


EMPTY4 = Family(4, ())


class TestMiddleBand:
    def test_bands(self):
        assert middle_band(4) == (2, 3)
        assert middle_band(6) == (3, 4)
        assert middle_band(3) == (2, 3)
        assert middle_band(5) == (3, 4)
        assert middle_band(1) == (1, 1)


class TestPushUp:
    def test_single_small_set(self):
        trace = push_up_min_rank(fam(4, (1,)), EMPTY4)
        assert trace.final == fam(4, (1, 2))  # first shade set in squashed order
        assert len(trace.steps) == 1
        assert trace.steps[0].direction == "up"
        assert trace.steps[0].rank == 1

    def test_already_at_floor(self):
        f = fam(4, (1, 2), (3, 4))
        trace = push_up_min_rank(f, EMPTY4)
        assert trace.final == f and trace.steps == ()

    def test_full_level_shift_odd(self):
        f = full_level(5, 2)
        trace = push_up_min_rank(f, Family(5, ()))
        assert trace.final == full_level(5, 3)
        assert len(trace.final) == len(f)

    def test_rejects_non_antichain(self):
        with pytest.raises(ValueError):
            push_up_min_rank(fam(4, (1,), (1, 2)), EMPTY4)

    def test_rejects_non_crossing_partner(self):
        with pytest.raises(ValueError):
            push_up_min_rank(fam(4, (1, 2)), fam(4, (3, 4)))


class TestPushDown:
    def test_single_big_set(self):
        trace = push_down_max_rank(fam(4, (1, 2, 3, 4)), EMPTY4)
        assert trace.final == fam(4, (1, 2, 3))  # first shadow set
        assert trace.steps[0].direction == "down"

    def test_already_at_ceiling(self):
        f = fam(4, (1, 2, 3))
        trace = push_down_max_rank(f, EMPTY4)
        assert trace.final == f and trace.steps == ()

    def test_size_preserving_subset_of_shadow(self):
        f = full_level(6, 5)
        trace = push_down_max_rank(f, Family(6, ()))
        assert len(trace.final) == 6
        assert set(trace.final.by_rank) == {4}
        # greedy takes the first 6 4-sets in squashed order
        from sperner.squashed import first_segment
        assert trace.final == first_segment(6, 4, 6)

    def test_partner_below_half_rejected(self):
        f = fam(4, (1, 2, 3, 4))
        small_partner = fam(4, (1,))
        with pytest.raises(ValueError):
            push_down_max_rank(f, small_partner)

    def test_partner_size_only_checked_when_stepping(self):
        f = fam(4, (2, 3))  # already inside the band
        small_partner = fam(4, (2,))
        trace = push_down_max_rank(f, small_partner)
        assert trace.final == f


class TestNormalizeToMiddle:
    def test_identity_inside_band(self):
        f = fam(4, (1, 2), (1, 3, 4))
        trace = normalize_to_middle(f, EMPTY4)
        assert trace.final == f and trace.steps == ()

    def test_mixed_pair_example(self):
        f = fam(4, (1,), (2, 3, 4))
        trace = normalize_to_middle(f, EMPTY4)
        assert len(trace.final) == 2
        assert is_antichain(trace.final)
        assert set(trace.final.by_rank) <= {2, 3}

    def test_odd_small(self):
        trace = normalize_to_middle(fam(3, (1,)), Family(3, ()))
        assert len(trace.final) == 1
        assert set(trace.final.by_rank) == {2}

    def test_multi_round_up(self):
        trace = normalize_to_middle(fam(6, (1,)), Family(6, ()))
        assert set(trace.final.by_rank) == {3}
        assert [s.rank for s in trace.steps] == [1, 2]

    def test_empty_family(self):
        trace = normalize_to_middle(EMPTY4, EMPTY4)
        assert trace.final == EMPTY4 and trace.steps == ()

    def test_singleton_empty_set(self):
        trace = normalize_to_middle(Family(4, (0,)), EMPTY4)
        assert set(trace.final.by_rank) == {2}
        assert len(trace.final) == 1


class TestGroundSizeCap:
    def test_step_beyond_table_cap_rejected(self):
        n = MAX_NORMALIZE + 1
        with pytest.raises(ValueError, match="normalization supports"):
            normalize_to_middle(Family.from_sets(n, [(1,)]), Family(n, ()))

    def test_in_band_family_beyond_cap_returned_as_is(self):
        n = MAX_NORMALIZE + 1
        f = Family.from_sets(n, [range(1, middle_band(n)[0] + 1)])
        assert normalize_to_middle(f, Family(n, ())) == NormalizationTrace((), f)


class TestTerminationGuard:
    def test_a_step_that_moves_nothing_is_caught(self, monkeypatch):
        # n steps always suffice, so a push still short after them raises
        # rather than loop; a single step stops after its one round
        monkeypatch.setattr(normalize, "_step",
                            lambda n, members, up: (None, members))
        f = fam(4, (1,))
        with pytest.raises(RuntimeError, match="up phase failed to terminate"):
            normalize_to_middle(f, EMPTY4)
        assert normalize._PUSHED not in vars(f)
        assert len(push_up_min_rank(f, EMPTY4).steps) == 1


class TestSelectionFailurePath:
    def test_selection_error_diagnostics(self):
        # a replacement pool smaller than the rank it replaces must give
        # a structured error; the counting bounds rule this out for every
        # step normalization takes, so exercise the machinery directly on
        # an impossible demand
        f = fam(3, (1, 2), (1, 3), (2, 3))  # rank-2 members of N_3
        with pytest.raises(SelectionError) as info:
            # pushing the whole level down to rank 1 needs 3 of 3
            # candidates, all pass; push the level up instead: the shade
            # is the single set {1,2,3}, so 3 replacements cannot exist
            _step(3, f.members, up=True)
        err = info.value
        assert err.direction == "up" and err.rank == 2
        assert err.needed == 3 and err.found == 1
        assert (outcome(ref_step, f, Family(3, ()), 2, "up")
                == ("selection", "up", 2, 3, 1))


class TestNormalizePair:
    def test_preserves_everything_exhaustively_n3(self):
        from sperner.verifier import normalization_pair_sweep
        report = normalization_pair_sweep(3)
        assert report.passed
        assert not report.selection_failures
        assert report.crossing_pairs == 90

    def test_worker_count_does_not_change_report(self):
        from sperner.verifier import normalization_pair_sweep
        assert normalization_pair_sweep(4) == normalization_pair_sweep(4, workers=2)

    def test_spawned_workers_give_the_same_report(self):
        # spawned workers share no memory with the parent: each builds the
        # sweep tables itself, and the report must not change
        import os
        import subprocess
        import sys
        from pathlib import Path
        src = Path(__file__).resolve().parents[1] / "src"
        script = (
            "import multiprocessing\n"
            "from sperner.verifier import normalization_pair_sweep\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    two = normalization_pair_sweep(4, workers=2)\n"
            "    one = normalization_pair_sweep(4, workers=1)\n"
            "    assert two == one, (two, one)\n"
            "    print(one.crossing_pairs)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0

    def test_stage_order_allows_low_partner(self):
        # partner has a member below n/2; pair normalization gives the
        # result of raising both sides before lowering either, so no
        # partner-size check applies
        a = fam(4, (1, 2, 3, 4))
        b = fam(4, (1,))
        ta, tb = normalize_pair(a, b)
        assert is_antichain(ta.final) and is_antichain(tb.final)
        assert is_cross_intersecting(ta.final, tb.final)
        assert len(ta.final) == 1 and len(tb.final) == 1

    def test_memo_skips_no_validation(self):
        # the memoized push is looked up only after the pair is validated
        a, b = fam(4, (1,)), fam(4, (1, 2))
        normalize_pair(a, b)
        with pytest.raises(ValueError, match="not cross-intersecting"):
            normalize_pair(a, fam(4, (2,)))
        with pytest.raises(ValueError, match="partner family is not an antichain"):
            normalize_pair(a, fam(4, (1,), (1, 2)))
        with pytest.raises(ValueError, match="input family is not an antichain"):
            normalize_pair(fam(4, (1,), (1, 2)), b)
        # a failed push is not cached: it fails again on the next call
        n = MAX_NORMALIZE + 1
        low = Family.from_sets(n, [(1,)])
        for _ in range(2):
            with pytest.raises(ValueError, match="normalization supports"):
                normalize_pair(low, low)

    def test_sweep_calls_normalize_pair_on_every_crossing_pair(self, monkeypatch):
        from sperner import verifier
        calls = []
        real = normalize.normalize_pair

        def counting(a, b, validate=True):
            calls.append(1)
            return real(a, b, validate=validate)

        monkeypatch.setattr(normalize, "normalize_pair", counting)
        report = verifier.normalization_pair_sweep(4)
        assert report.crossing_pairs == 3831
        assert len(calls) == report.crossing_pairs

    def test_sweep_audits_each_antichain_once(self, monkeypatch):
        # one is_antichain call per antichain, in the table's audit; the
        # stripes only read that table
        from sperner import verifier
        verifier._pair_sweep_setup.cache_clear()
        calls = []
        real = verifier.is_antichain

        def counting(f):
            calls.append(1)
            return real(f)

        monkeypatch.setattr(verifier, "is_antichain", counting)
        report = verifier.normalization_pair_sweep(4)
        assert report.antichains == 168
        assert len(calls) == 168

    def test_sweep_builds_no_table_in_the_caller(self):
        # with a pool, only the worker processes build the audit table
        from sperner import verifier
        verifier._pair_sweep_setup.cache_clear()
        report = verifier.normalization_pair_sweep(4, workers=2)
        assert report.antichains == 168
        assert verifier._pair_sweep_setup.cache_info().currsize == 0

    # each case fakes one side's trace for a single pair.  Off the
    # diagonal, a sweep that takes the stored audit of {{4}} without
    # checking that the returned trace is the table's misses the fake.
    # On the diagonal, both sides are the same antichain: the faked side
    # must be audited apart from the honest one.
    @pytest.mark.parametrize("a_sets, b_sets, side, fake_sets", [
        (((4,),), ((1, 4),), 0, ((2, 3),)),
        (((2,),), ((2,),), 1, ((3, 4),)),
    ], ids=["off-diagonal", "diagonal"])
    def test_sweep_audits_the_trace_returned_for_each_pair(
            self, monkeypatch, a_sets, b_sets, side, fake_sets):
        from sperner import verifier
        a, b, fake = fam(4, *a_sets), fam(4, *b_sets), fam(4, *fake_sets)
        fams = verifier._pair_sweep_setup(4)[0]
        assert fams.index(a) <= fams.index(b)  # the sweep calls (a, b)
        real = normalize.normalize_pair
        honest = verifier.normalization_pair_sweep(4)
        assert honest.passed and not honest.selection_failures

        def faking(x, y, validate=True):
            traces = list(real(x, y, validate=validate))
            if (x, y) == (a, b):
                # right size, in the band, an antichain, but disjoint from
                # the other side's pushed member
                t, other = traces[side], traces[1 - side]
                assert t.steps and not is_cross_intersecting(fake, other.final)
                traces[side] = NormalizationTrace(t.steps, fake)
            return tuple(traces)

        monkeypatch.setattr(normalize, "normalize_pair", faking)
        report = verifier.normalization_pair_sweep(4)
        assert report.violations == (("preservation", a.sets(), b.sets()),)
        assert (report.crossing_pairs, report.moved_pairs) == (
            honest.crossing_pairs, honest.moved_pairs)

        def fresh(x, y, validate=True):
            return tuple(NormalizationTrace(t.steps, t.final)
                         for t in real(x, y, validate=validate))

        monkeypatch.setattr(normalize, "normalize_pair", fresh)
        assert verifier.normalization_pair_sweep(4) == honest

    def test_sweep_audits_an_unmoved_returned_trace(self, monkeypatch):
        # both sides lie in the band, so neither steps; a zero-step trace
        # of {{1,2}} whose final is {{1,4}} must fail the identity check
        # on the one-partner path, not be counted as an unmoved pass
        from sperner import verifier
        a, b = fam(4, (1, 2)), fam(4, (1, 3))
        real = normalize.normalize_pair
        honest = verifier.normalization_pair_sweep(4)

        def faking(x, y, validate=True):
            ta, tb = real(x, y, validate=validate)
            if (x, y) == (a, b):
                assert not (ta.steps or tb.steps)
                ta = NormalizationTrace((), fam(4, (1, 4)))
            return ta, tb

        monkeypatch.setattr(normalize, "normalize_pair", faking)
        report = verifier.normalization_pair_sweep(4)
        assert report.violations == (("identity", a.sets(), b.sets()),)
        assert (report.crossing_pairs, report.moved_pairs) == (
            honest.crossing_pairs, honest.moved_pairs)

    # each case corrupts one antichain's audit while the table is built,
    # so the whole-row bitset path reads it for every partner; the
    # stepped and sound masks and pushed[] all follow the audit
    @pytest.mark.parametrize("n, victim, fields, violations, moved", [
        # unmoved pairs with an unsound side fail the identity check
        (2, ((1,), (2,)), {"sound": False},
         (("identity", (), ((1,), (2,))),
          ("identity", ((1, 2),), ((1,), (2,)))), 1),
        # {3,4} misses the final {1,2} of the partner {{1,2}} only
        (4, ((1,), (2,)), {"final": ((1, 2), (3, 4))},
         (("preservation", ((1,), (2,)), ((1, 2),)),), 687),
        # a final {{}} claimed sound and stepped misses only itself; the
        # pair with the empty family crosses vacuously and still moves
        (1, ((1,),), {"sound": True, "stepped": True, "final": ((),)},
         (("preservation", ((1,),), ((1,),)),), 3),
    ], ids=["unsound", "disjoint-final", "diagonal"])
    def test_sweep_reads_a_corrupted_audit_row_by_row(
            self, monkeypatch, n, victim, fields, violations, moved):
        from sperner import verifier
        victim = fam(n, *victim)
        real = verifier._audit

        def corrupted(f, trace):
            sound, stepped, final = real(f, trace)
            if f != victim:
                return sound, stepped, final
            if "final" in fields:
                final = fam(n, *fields["final"]).members
            return (fields.get("sound", sound), fields.get("stepped", stepped),
                    final)

        verifier._pair_sweep_setup.cache_clear()
        monkeypatch.setattr(verifier, "_audit", corrupted)
        try:
            report = verifier.normalization_pair_sweep(n)
        finally:
            verifier._pair_sweep_setup.cache_clear()
        assert report.violations == violations
        assert report.moved_pairs == moved
        assert not report.selection_failures

    def test_sampled_pairs_n6(self):
        # the full n=6 pair space is out of reach (Dedekind(6)^2 pairs);
        # a seeded sample documents that greedy selection keeps working
        import random
        rng = random.Random(66)
        lo, hi = middle_band(6)
        universe = (1 << 6) - 1
        checked = 0
        while checked < 2000:
            def draw():
                kept = []
                for _ in range(rng.randint(0, 8)):
                    m = rng.randint(0, universe)
                    if all((m & ~o) and (o & ~m) for o in kept):
                        kept.append(m)
                return Family.from_masks(6, kept)
            a, b = draw(), draw()
            if not is_cross_intersecting(a, b):
                continue
            checked += 1
            ta, tb = normalize_pair(a, b)  # no SelectionError expected
            assert len(ta.final) == len(a) and len(tb.final) == len(b)
            assert is_antichain(ta.final) and is_antichain(tb.final)
            assert is_cross_intersecting(ta.final, tb.final)
            for f in (ta.final, tb.final):
                assert all(lo <= m.bit_count() <= hi for m in f.members)

    @settings(max_examples=200)
    @given(st.data())
    def test_random_pairs_preserved(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        lo, hi = middle_band(n)
        universe = st.integers(0, (1 << n) - 1)
        raw_a = data.draw(st.lists(universe, max_size=6), label="a")
        raw_b = data.draw(st.lists(universe, max_size=6), label="b")

        def prune(masks):
            kept = []
            for m in masks:
                if all((m & ~o) and (o & ~m) for o in kept):
                    kept.append(m)
            return Family.from_masks(n, kept)

        a, b = prune(raw_a), prune(raw_b)
        if not is_cross_intersecting(a, b):
            return
        try:
            ta, tb = normalize_pair(a, b)
        except SelectionError:
            return  # loud failure is acceptable; absence is swept elsewhere
        assert len(ta.final) == len(a) and len(tb.final) == len(b)
        assert is_antichain(ta.final) and is_antichain(tb.final)
        assert is_cross_intersecting(ta.final, tb.final)
        for f in (ta.final, tb.final):
            assert all(lo <= m.bit_count() <= hi for m in f.members)


class TestPushMemo:
    """Each Family object keeps its own full push in its instance dict."""

    def test_sweep_hashes_no_family(self, monkeypatch):
        # the sweep calls normalize_pair on the table's own objects, so the
        # memo answers by two dict reads; a cache keyed by the family
        # hashed both sides of each of the 3 831 calls at n=4
        from sperner import verifier
        calls = []
        real = Family.__hash__

        def counting(f):
            calls.append(1)
            return real(f)

        verifier._pair_sweep_setup.cache_clear()
        monkeypatch.setattr(Family, "__hash__", counting)
        report = verifier.normalization_pair_sweep(4)
        assert report.antichains == 168
        assert len(calls) < report.antichains

    def test_pair_returns_the_table_traces(self):
        from sperner import verifier
        assert verifier.normalization_pair_sweep(4).passed
        fams, traces = verifier._pair_sweep_setup(4)[:2]
        for f, t in zip(fams, traces):
            ta, tb = normalize_pair(f, f, False)
            assert ta is t and tb is t

    def test_memo_leaves_the_value_alone(self):
        pushed = [fam(4), fam(4, (1,)), fam(4, (1, 2), (3,)), fam(4, (2, 3)),
                  fam(4, (1, 2, 3, 4))]
        fresh = [Family(f.n, f.members) for f in pushed]
        for f in pushed:
            _normalized(f)
            assert normalize._PUSHED in vars(f)
        assert pushed == fresh
        assert [hash(f) for f in pushed] == [hash(g) for g in fresh]
        assert [repr(f) for f in pushed] == [repr(g) for g in fresh]
        assert ([[f < g for g in fresh] for f in pushed]
                == [[f < g for g in fresh] for f in fresh])

    def test_equal_families_built_apart_get_equal_traces(self):
        a = fam(5, (1, 2), (1, 3))
        b = Family(5, tuple(reversed(a.members)))
        assert a == b and a is not b
        ta, tb = normalize_pair(a, b)
        assert ta.steps and ta == tb
        # one trace per object: b was pushed on its own
        assert ta is not tb
        assert normalize_pair(a, b) == (ta, tb)

    def test_failed_push_stores_nothing(self, monkeypatch):
        low = Family.from_sets(MAX_NORMALIZE + 1, [(1,)])
        with pytest.raises(ValueError, match="normalization supports"):
            _normalized(low)
        assert normalize._PUSHED not in vars(low)

        def failing(n, members):
            raise SelectionError("up", 1, 2, 1)

        monkeypatch.setattr(normalize, "_push", failing)
        f = fam(4, (1,))
        for _ in range(2):
            with pytest.raises(SelectionError):
                normalize_pair(f, f)
            assert normalize._PUSHED not in vars(f)


# ---------------------------------------------------------------------------
# reference: the greedy step written out over Family objects, keeping the
# retained-comparable and partner-disjoint filters and the staged a-up,
# b-up, a-down, b-down pair order that the kernel leaves out


def ref_step(f, partner, rank, direction):
    """Replace the rank-`rank` members by the first shade (up) or shadow
    (down) sets in squashed order that are independent of every retained
    member and meet every partner member."""
    n = f.n
    doomed = tuple(m for m in f.members if m.bit_count() == rank)
    retained = tuple(m for m in f.members if m.bit_count() != rank)
    if direction == "up":
        pool = {m | 1 << e for m in doomed for e in range(n) if not m >> e & 1}
    else:
        pool = {m & ~(1 << e) for m in doomed for e in range(n) if m >> e & 1}
    passing = [c for c in sorted(pool, key=cmp_to_key(squash_compare))
               if all(independent(c, r) for r in retained)
               and all(c & y for y in partner.members)]
    if len(passing) < len(doomed):
        raise SelectionError(direction, rank, len(doomed), len(passing))
    chosen = tuple(passing[:len(doomed)])
    return Step(direction, rank, doomed, chosen), Family(n, retained + chosen)


def ref_phase(f, partner, direction):
    lo, hi = middle_band(f.n)
    steps = []
    while f.members:
        ranks = [m.bit_count() for m in f.members]
        if direction == "up":
            rank = min(ranks)
            if rank >= lo:
                break
        else:
            rank = max(ranks)
            if rank <= hi:
                break
            small = sum(1 for y in partner.members if 2 * y.bit_count() < f.n)
            if small and not steps:
                raise ValueError(
                    "push down needs every partner member to have size >= n/2; "
                    f"{small} partner member(s) are smaller")
        step, f = ref_step(f, partner, rank, direction)
        steps.append(step)
    return steps, f


def ref_normalize_to_middle(f, partner):
    up, f1 = ref_phase(f, partner, "up")
    down, f2 = ref_phase(f1, partner, "down")
    return NormalizationTrace(tuple(up + down), f2)


def ref_normalize_pair(a, b):
    a_up, a1 = ref_phase(a, b, "up")
    b_up, b1 = ref_phase(b, a1, "up")
    a_down, a2 = ref_phase(a1, b1, "down")
    b_down, b2 = ref_phase(b1, a2, "down")
    return (NormalizationTrace(tuple(a_up + a_down), a2),
            NormalizationTrace(tuple(b_up + b_down), b2))


def ref_pair_sweep(n):
    """The all-pairs normalization audit pair by pair, with ground
    predicates in place of the sweep's bitsets."""
    from sperner.verifier import PairSweepReport, enumerate_antichains
    fams = list(enumerate_antichains(n))
    lo, hi = middle_band(n)

    def sound(f, t):
        final = t.final
        return (len(final) == len(f) and is_antichain(final)
                and all(lo <= len(s) <= hi for s in final.sets())
                and (bool(t.steps) or final == f))

    crossing = moved = 0
    failures, violations = [], []
    for i, a in enumerate(fams):
        for b in fams[i:]:
            if not is_cross_intersecting(a, b):
                continue
            crossing += 1
            complements = {tuple(sorted(set(range(1, n + 1)) - set(s)))
                           for s in a.sets()}
            if complements & set(b.sets()):
                violations.append(("complement", a.sets(), b.sets()))
            try:
                ta, tb = normalize_pair(a, b)
            except SelectionError as exc:
                failures.append((a.sets(), b.sets(), str(exc)))
                continue
            ok = sound(a, ta) and sound(b, tb)
            if not (ta.steps or tb.steps):
                if not ok:
                    violations.append(("identity", a.sets(), b.sets()))
                continue
            moved += 1
            if not (ok and is_cross_intersecting(ta.final, tb.final)):
                violations.append(("preservation", a.sets(), b.sets()))
    return PairSweepReport(n, len(fams), crossing, moved,
                           tuple(sorted(failures)), tuple(sorted(violations)))


class TestSweepAgainstReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_field_matches(self, n):
        from sperner.verifier import normalization_pair_sweep
        expected = ref_pair_sweep(n)
        assert normalization_pair_sweep(n) == expected
        assert normalization_pair_sweep(n, workers=2) == expected


def outcome(fn, *args):
    """What a normalization call did, comparable across implementations."""
    try:
        return ("ok", fn(*args))
    except SelectionError as exc:
        return ("selection", exc.direction, exc.rank, exc.needed, exc.found)
    except ValueError as exc:
        return ("value", str(exc))


def antichains(n):
    from sperner.verifier import antichain_mask_tuples
    return [Family.from_masks(n, c) for c in antichain_mask_tuples(range(1 << n))]


class TestKernelAgainstReference:
    def assert_same(self, a, b):
        assert outcome(normalize_pair, a, b) == outcome(ref_normalize_pair, a, b)
        assert (outcome(normalize_to_middle, a, b)
                == outcome(ref_normalize_to_middle, a, b))

    def test_every_ordered_crossing_pair_n4(self):
        fams = antichains(4)
        kinds = set()
        for a in fams:
            for b in fams:
                if is_cross_intersecting(a, b):
                    self.assert_same(a, b)
                    kinds.add(outcome(normalize_to_middle, a, b)[0])
        # the partner-size ValueError is among the outcomes compared
        assert kinds == {"ok", "value"}

    def test_seeded_sample_n5(self):
        import random
        rng = random.Random(5)
        fams = antichains(5)
        checked = 0
        while checked < 2000:
            a, b = rng.choice(fams), rng.choice(fams)
            if is_cross_intersecting(a, b):
                self.assert_same(a, b)
                checked += 1

    def test_every_partner_of_the_family_above_the_band_n5(self):
        # at odd n=5 only {1,...,5} lies above the band, so down steps and
        # the partner-size check are too rare for the sample to reach
        top = fam(5, (1, 2, 3, 4, 5))
        for b in antichains(5):
            if is_cross_intersecting(top, b):
                self.assert_same(top, b)
                self.assert_same(b, top)
