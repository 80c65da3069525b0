import re
from collections import Counter
from functools import cache, cmp_to_key

import pytest

from conftest import fam, greedy_antichain, rank_set, run_python
from sperner.ground import (Family, full_level, independent, is_antichain,
                            is_cross_intersecting)
from sperner import normalize, verifier
from sperner.normalize import (NormalizationTrace, SelectionError, Step,
                               _normalized, _step, middle_band,
                               normalize_pair, normalize_to_middle,
                               push_down_max_rank, push_up_min_rank)
from sperner.squashed import squash_compare


EMPTY4 = Family(4, ())


@pytest.fixture(autouse=True)
def fresh_audit_table():
    """Each test starts and ends with no cached audit table, so a table
    built under a patch never reaches another test."""
    verifier._pair_sweep_setup.cache_clear()
    yield
    verifier._pair_sweep_setup.cache_clear()


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
        assert rank_set(trace.final) == {4}
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
        assert rank_set(trace.final) <= {2, 3}

    def test_odd_small(self):
        trace = normalize_to_middle(fam(3, (1,)), Family(3, ()))
        assert len(trace.final) == 1
        assert rank_set(trace.final) == {2}

    def test_multi_round_up(self):
        trace = normalize_to_middle(fam(6, (1,)), Family(6, ()))
        assert rank_set(trace.final) == {3}
        assert [s.rank for s in trace.steps] == [1, 2]

    def test_empty_family(self):
        trace = normalize_to_middle(EMPTY4, EMPTY4)
        assert trace.final == EMPTY4 and trace.steps == ()

    def test_singleton_empty_set(self):
        trace = normalize_to_middle(Family(4, (0,)), EMPTY4)
        assert rank_set(trace.final) == {2}
        assert len(trace.final) == 1


class TestGroundSizeCap:
    def test_in_band_family_beyond_cap_returned_as_is(self):
        n = 13
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
        assert not hasattr(f, "_pushed")
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
        # the step memo caches no failure: the same demand raises again
        with pytest.raises(SelectionError) as again:
            _step(3, f.members, up=True)
        assert again.value is not err
        assert ((again.value.direction, again.value.rank, again.value.needed,
                 again.value.found) == ("up", 2, 3, 1))
        assert (outcome(ref_step, f, Family(3, ()), 2, "up")
                == ("selection", "up", 2, 3, 1))


class TestNormalizePair:
    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_spawned_workers_give_the_same_report(self, method, tmp_path):
        # the caller builds the audit table before the pool starts and the
        # pool forks whatever the global start method, so the workers
        # inherit it and build none; the report must not change.  The
        # script is a file, so a spawned worker would re-run its patch,
        # which logs the pid of each enumeration, one per table built
        log = tmp_path / "builds"
        script = tmp_path / "audit.py"
        script.write_text(
            "import multiprocessing, os\n"
            "from sperner import verifier\n"
            "real = verifier.enumerate_antichains\n"
            "def logged(n):\n"
            f"    with open({str(log)!r}, 'a') as out:\n"
            "        print(os.getpid(), file=out)\n"
            "    return real(n)\n"
            "verifier.enumerate_antichains = logged\n"
            "if __name__ == '__main__':\n"
            f"    multiprocessing.set_start_method({method!r})\n"
            "    two = verifier.normalization_pair_sweep(4, workers=2)\n"
            "    one = verifier.normalization_pair_sweep(4, workers=1)\n"
            "    assert two == one, (two, one)\n"
            "    print(one.antichains, one.crossing_pairs, os.getpid())\n")
        proc = run_python(str(script))
        assert proc.returncode == 0, proc.stderr
        antichains, crossing, caller = proc.stdout.split()
        assert (antichains, crossing) == ("168", "3831")
        assert Counter(log.read_text().split()) == {caller: 1}

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

    def test_sweep_calls_normalize_pair_on_every_crossing_pair(self, monkeypatch):
        # once per unordered crossing pair, lower index first
        fams = verifier._pair_sweep_setup(4)[0]
        index = {f: k for k, f in enumerate(fams)}
        calls = []
        real = normalize.normalize_pair

        def recording(a, b, validate=True):
            calls.append((index[a], index[b]))
            return real(a, b, validate=validate)

        monkeypatch.setattr(normalize, "normalize_pair", recording)
        report = verifier.normalization_pair_sweep(4)
        assert report.crossing_pairs == len(calls) == len(set(calls)) == 3831
        assert [(i, j) for i, j in calls if i > j] == []
        crossing = {(i, j) for j in range(len(fams)) for i in range(j + 1)
                    if is_cross_intersecting(fams[i], fams[j])}
        assert set(calls) == crossing

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_audit_table_lists_largest_transversals_first(self, n):
        # the walk's antichains, stably sorted by descending transversal
        # size, counted here subset by subset with the ground predicate
        singles = [Family(n, (y,)) for y in range(1 << n)]

        def transversal_size(f):
            return sum(is_cross_intersecting(s, f) for s in singles)

        walk = list(verifier.enumerate_antichains(n))
        expected = sorted(walk, key=transversal_size, reverse=True)
        fams = verifier._pair_sweep_setup(n)[0]
        assert len(fams) == verifier.DEDEKIND[n]
        assert [f.members for f in fams] == [f.members for f in expected]

    def test_audit_table_order_shortens_the_partner_decode(self):
        # a row decodes its partner bitset up to its highest partner at or
        # below it, so it scans that index + 1 positions; the table's order
        # cuts the positions of the 3 831 crossing pairs at n=4 by 39%
        def positions(fams):
            return sum(max(j for j in range(i + 1)
                           if is_cross_intersecting(fams[j], fams[i])) + 1
                       for i in range(len(fams)))

        assert positions(verifier._pair_sweep_setup(4)[0]) == 7144
        assert positions(list(verifier.enumerate_antichains(4))) == 11701

    def test_sweep_audits_each_antichain_once(self, monkeypatch):
        # one is_antichain call per antichain, in the table's audit; the
        # stripes only read that table
        calls = []
        real = verifier.is_antichain

        def counting(f):
            calls.append(1)
            return real(f)

        monkeypatch.setattr(verifier, "is_antichain", counting)
        report = verifier.normalization_pair_sweep(4)
        assert report.antichains == 168
        assert len(calls) == 168

    # each case fakes one side's trace for a single pair.  Off the
    # diagonal, the fake is the partner's, {{1,2,3,4}}'s: a sweep that
    # takes its stored audit without checking that the returned trace is
    # the table's misses the fake.  On the diagonal, both sides are the
    # same antichain.  Either way the result is not the two families' own
    # pushes, so the sweep refuses it.
    @pytest.mark.parametrize("a_sets, b_sets, side, fake_sets", [
        (((1, 2, 3, 4),), ((1, 4),), 0, ((2, 3),)),
        (((2,),), ((2,),), 1, ((3, 4),)),
    ], ids=["off-diagonal", "diagonal"])
    def test_sweep_refuses_a_result_other_than_the_pushes(
            self, monkeypatch, a_sets, b_sets, side, fake_sets):
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
        pair = re.escape(f"normalize_pair({a.sets()}, {b.sets()})")
        with pytest.raises(RuntimeError, match=pair):
            verifier.normalization_pair_sweep(4)

        # every call on the table's own families returns the traces in
        # their slots, so equal traces built apart are refused as well
        def fresh(x, y, validate=True):
            return tuple(NormalizationTrace(t.steps, t.final)
                         for t in real(x, y, validate=validate))

        monkeypatch.setattr(normalize, "normalize_pair", fresh)
        with pytest.raises(RuntimeError, match="other traces"):
            verifier.normalization_pair_sweep(4)

    @staticmethod
    def _sweep_with_faked_push(monkeypatch, victim, fake_trace):
        """The n=4 sweep with victim's push replaced by fake_trace: the
        patched _normalized stores it in the _pushed slot of the table's
        family equal to victim, as _normalized does, so the table's audit
        and every normalize_pair call read it there.  Returns the report
        and the honest one, whose table pushed every antichain."""
        honest = verifier.normalization_pair_sweep(4)
        verifier._pair_sweep_setup.cache_clear()
        real = normalize._normalized

        def faking(f):
            if f != victim:
                return real(f)
            object.__setattr__(f, "_pushed", fake_trace)
            return fake_trace

        monkeypatch.setattr(normalize, "_normalized", faking)
        return verifier.normalization_pair_sweep(4), honest

    @staticmethod
    def _pairs_holding(victim):
        """The crossing pairs (a, b), a no later than b in the sweep's
        table, that hold victim, each with whether a side's push steps
        (a faked push keeps the steps of the real one)."""
        fams = verifier._pair_sweep_setup(victim.n)[0]
        return [(a, b, bool(_normalized(a).steps or _normalized(b).steps))
                for i, a in enumerate(fams) for b in fams[i:]
                if victim in (a, b) and is_cross_intersecting(a, b)]

    # each case fakes the final of one stepped family's push so that it
    # breaks exactly one clause of the soundness rule: the size, the band
    # [2, 3] at n=4 from above or below, or the antichain property.  Every
    # crossing pair that holds the family then fails preservation.
    @pytest.mark.parametrize("victim_sets, fake_sets", [
        (((4,),), ((1, 2), (3, 4))),
        (((4,),), ((1, 2, 3, 4),)),
        (((4,),), ((1,),)),
        (((1,), (4,)), ((1, 4), (1, 2, 4))),
    ], ids=["size", "band-ceiling", "band-floor", "antichain"])
    def test_sweep_audits_each_soundness_clause(self, monkeypatch,
                                                victim_sets, fake_sets):
        victim, fake = fam(4, *victim_sets), fam(4, *fake_sets)
        steps = _normalized(victim).steps
        assert steps
        report, honest = self._sweep_with_faked_push(
            monkeypatch, victim, NormalizationTrace(steps, fake))
        pairs = self._pairs_holding(victim)
        assert pairs
        assert report.violations == tuple(sorted(
            ("preservation", a.sets(), b.sets()) for a, b, _ in pairs))
        assert (report.crossing_pairs, report.moved_pairs) == (
            honest.crossing_pairs, honest.moved_pairs)
        assert not report.selection_failures

    def test_sweep_audits_an_unmoved_returned_trace(self, monkeypatch):
        # {{1,2}} lies in the band, so its push takes no step; a zero-step
        # push whose final is {{1,4}} must fail the identity check with
        # every partner that does not move either, the empty family
        # among them, and preservation with every partner that moves
        victim = fam(4, (1, 2))
        report, honest = self._sweep_with_faked_push(
            monkeypatch, victim, NormalizationTrace((), fam(4, (1, 4))))
        pairs = self._pairs_holding(victim)
        expected = tuple(sorted(
            ("preservation" if moved else "identity", a.sets(), b.sets())
            for a, b, moved in pairs))
        assert ("identity", (), ((1, 2),)) in expected
        assert report.violations == expected
        assert (report.crossing_pairs, report.moved_pairs) == (
            honest.crossing_pairs, honest.moved_pairs)

    # each case corrupts one antichain's entry in the sweep's table: its
    # bit in sound or stepped, or its final, stored in its _pushed slot
    # with pushed[] rebuilt from the slots, so the whole-row bitset path
    # reads the corruption for every partner
    @pytest.mark.parametrize("n, victim, fields, violations, moved", [
        # unmoved pairs with an unsound side fail the identity check
        (2, ((1,), (2,)), {"sound": False},
         (("identity", (), ((1,), (2,))),
          ("identity", ((1, 2),), ((1,), (2,)))), 1),
        # {3,4} misses the final {1,2} of the partner {{1,2}} only, which
        # the table lists first: its transversal is the larger
        (4, ((1,), (2,)), {"final": ((1, 2), (3, 4))},
         (("preservation", ((1, 2),), ((1,), (2,))),), 687),
        # a final {{}} claimed sound and stepped misses only itself; the
        # pair with the empty family crosses vacuously and still moves
        (1, ((1,),), {"sound": True, "stepped": True, "final": ((),)},
         (("preservation", ((1,),), ((1,),)),), 3),
    ], ids=["unsound", "disjoint-final", "diagonal"])
    def test_sweep_reads_a_corrupted_audit_row_by_row(
            self, monkeypatch, n, victim, fields, violations, moved):
        victim = fam(n, *victim)
        build = verifier._pair_sweep_setup.__wrapped__

        @cache  # as the real table is: every stripe reads the one build
        def corrupted(m):
            fams, contains, missers, pushed, stepped, sound = build(m)
            k = fams.index(victim)
            v = 1 << k
            if "stepped" in fields:
                stepped = stepped | v if fields["stepped"] else stepped & ~v
            if "sound" in fields:
                sound = sound | v if fields["sound"] else sound & ~v
            if "final" in fields:
                object.__setattr__(fams[k], "_pushed", NormalizationTrace(
                    fams[k]._pushed.steps, fam(m, *fields["final"])))
                pushed = verifier._missers(m, verifier._holders(
                    m, (g._pushed.final.members for g in fams)))
            return fams, contains, missers, pushed, stepped, sound

        monkeypatch.setattr(verifier, "_pair_sweep_setup", corrupted)
        report = verifier.normalization_pair_sweep(n)
        assert report.violations == violations
        assert report.moved_pairs == moved
        assert not report.selection_failures

    def test_sweep_records_a_push_that_fails_in_setup(self, monkeypatch):
        # the pushes of {{1}} and of {{}}, which steps through {{1}}, fail
        # while the table is built, so it holds no trace for them; each
        # crossing pair with one of them raises again in normalize_pair
        # and is recorded there
        real = normalize._step

        def failing(n, members, up):
            if (n, members) == (3, (1,)):
                raise SelectionError("up", 1, 1, 0)
            return real(n, members, up)

        monkeypatch.setattr(normalize, "_step", failing)
        report = verifier.normalization_pair_sweep(3)
        assert report.crossing_pairs == 90
        assert len(report.selection_failures) == 7 and not report.violations
        assert not report.passed

    def test_sweep_leaves_only_the_failed_pair_out_of_its_row(
            self, monkeypatch):
        # row {{1,2}} has partners below {{1,2,3,4}} (the empty family)
        # and above it ({{1,2}} itself) that do not move, so a failure
        # there must clear the bit of {{1,2,3,4}} and no other; the pair
        # moved ({{1,2,3,4}} steps down), so it alone leaves the moved count
        a, b = fam(4, (1, 2, 3, 4)), fam(4, (1, 2))
        fams = verifier._pair_sweep_setup(4)[0]
        assert fams.index(fam(4)) < fams.index(a) < fams.index(b)
        honest = verifier.normalization_pair_sweep(4)
        real = normalize.normalize_pair
        error = SelectionError("down", 4, 1, 0)

        def one_failure(x, y, validate=True):
            if (x, y) == (a, b):
                raise error
            return real(x, y, validate=validate)

        monkeypatch.setattr(normalize, "normalize_pair", one_failure)
        report = verifier.normalization_pair_sweep(4)
        assert report.selection_failures == ((a.sets(), b.sets(), str(error)),)
        assert report.crossing_pairs == honest.crossing_pairs
        assert report.moved_pairs == honest.moved_pairs - 1
        assert not report.violations

    def test_sweep_reports_a_set_and_its_complement(self, monkeypatch):
        # with every misser row empty each pair reads as crossing, so the
        # pairs that hold a set on one side and its complement on the
        # other must come out as complement violations
        # the walk table and _meets are built from _missers' rows: cache
        # them first
        verifier._walk_table(2)
        verifier._meets(2)
        monkeypatch.setattr(verifier, "_missers",
                            lambda n, holders: [0] * (1 << n))
        report = verifier.normalization_pair_sweep(2)
        fams = verifier._pair_sweep_setup(2)[0]
        expected = {(a.sets(), b.sets())
                    for i, a in enumerate(fams) for b in fams[i:]
                    if any(0b11 ^ x in b.members for x in a.members)}
        found = [v[1:] for v in report.violations if v[0] == "complement"]
        assert expected and len(found) == len(expected)
        assert set(found) == expected

    def test_sampled_pairs_n6(self):
        # the full n=6 pair space is out of reach (Dedekind(6)^2 pairs);
        # a seeded sample documents that greedy selection keeps working
        import random
        rng = random.Random(66)
        lo, hi = middle_band(6)
        universe = (1 << 6) - 1
        checked = 0
        while checked < 2000:
            a, b = [greedy_antichain(6, [rng.randint(0, universe)
                                         for _ in range(rng.randint(0, 8))])
                    for _ in range(2)]
            if not is_cross_intersecting(a, b):
                continue
            checked += 1
            ta, tb = normalize_pair(a, b)  # no SelectionError expected
            assert len(ta.final) == len(a) and len(tb.final) == len(b)
            assert is_antichain(ta.final) and is_antichain(tb.final)
            assert is_cross_intersecting(ta.final, tb.final)
            for f in (ta.final, tb.final):
                assert all(lo <= m.bit_count() <= hi for m in f.members)


class TestPushMemo:
    """Each Family object keeps its own full push in its _pushed slot."""

    def test_sweep_hashes_no_family(self, monkeypatch):
        # the sweep calls normalize_pair on the table's own objects, so the
        # memo answers by two slot reads; a cache keyed by the family
        # hashed both sides of each of the 3 831 calls at n=4
        calls = []
        real = Family.__hash__

        def counting(f):
            calls.append(1)
            return real(f)

        monkeypatch.setattr(Family, "__hash__", counting)
        report = verifier.normalization_pair_sweep(4)
        assert report.antichains == 168
        assert len(calls) < report.antichains

    def test_pair_returns_the_table_traces(self):
        assert verifier.normalization_pair_sweep(4).passed
        for f in verifier._pair_sweep_setup(4)[0]:
            ta, tb = normalize_pair(f, f, False)
            assert ta is f._pushed and tb is f._pushed

    def test_memo_leaves_the_value_alone(self):
        pushed = [fam(4), fam(4, (1,)), fam(4, (1, 2), (3,)), fam(4, (2, 3)),
                  fam(4, (1, 2, 3, 4))]
        fresh = [Family(f.n, f.members) for f in pushed]
        for f in pushed:
            _normalized(f)
            assert hasattr(f, "_pushed")
        assert pushed == fresh
        assert [hash(f) for f in pushed] == [hash(g) for g in fresh]
        assert [repr(f) for f in pushed] == [repr(g) for g in fresh]
        assert ([[f < g for g in fresh] for f in pushed]
                == [[f < g for g in fresh] for f in fresh])

    def test_memo_has_one_home(self):
        # no instance dict to hold a second copy, no assignment or deletion
        # past the refusing __setattr__ and __delattr__, and a hit returns
        # the trace held in the slot
        f = fam(4, (1,))
        assert not hasattr(f, "__dict__")
        normalize_pair(f, f)
        for name in ("n", "members", "_pushed", "label"):
            with pytest.raises(AttributeError):
                setattr(f, name, None)
            with pytest.raises(AttributeError):
                delattr(f, name)
        ta, tb = normalize_pair(f, f)
        assert ta is f._pushed and tb is f._pushed and ta.steps

    def test_equal_families_built_apart_get_equal_traces(self):
        a = fam(5, (1, 2), (1, 3))
        b = Family(5, tuple(reversed(a.members)))
        assert a == b and a is not b
        ta, tb = normalize_pair(a, b)
        assert ta.steps and ta == tb
        # one trace per object: b was pushed on its own, to the same
        # shared step and final
        assert ta is not tb
        assert ta.final is tb.final and ta.steps[0] is tb.steps[0]
        assert normalize_pair(a, b) == (ta, tb)

    def test_audit_table_shares_each_step_and_final(self):
        # one Step object per distinct (direction, removed members), one
        # final Family per distinct final members of a moved push
        traces = [f._pushed for f in verifier._pair_sweep_setup(4)[0]]
        steps = [s for t in traces for s in t.steps]
        finals = [t.final for t in traces if t.steps]
        kinds = {(s.direction, s.removed) for s in steps}
        ends = {f.members for f in finals}
        assert len(kinds) < len(steps) and len(ends) < len(finals)
        assert len({id(s) for s in steps}) == len(kinds)
        assert len({id(f) for f in finals}) == len(ends)

    def test_failed_push_stores_nothing(self, monkeypatch):
        def failing(n, members):
            raise SelectionError("up", 1, 2, 1)

        monkeypatch.setattr(normalize, "_push", failing)
        f = fam(4, (1,))
        for _ in range(2):
            with pytest.raises(SelectionError):
                normalize_pair(f, f)
            assert not hasattr(f, "_pushed")


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


class TestKernelAgainstReference:
    def assert_same(self, a, b):
        assert outcome(normalize_pair, a, b) == outcome(ref_normalize_pair, a, b)
        assert (outcome(normalize_to_middle, a, b)
                == outcome(ref_normalize_to_middle, a, b))

    def test_every_ordered_crossing_pair_n4(self):
        fams = list(verifier.enumerate_antichains(4))
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
        fams = list(verifier.enumerate_antichains(5))
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
        for b in verifier.enumerate_antichains(5):
            if is_cross_intersecting(top, b):
                self.assert_same(top, b)
                self.assert_same(b, top)

    @pytest.mark.parametrize("n", [13, 20, 60])
    def test_seeded_pairs_at_large_n(self, n):
        # grounds too large to enumerate: random antichains of low and of
        # high rank against the full set, which meets every nonempty set
        # and sits above the band, so both phases run on both sides
        import random
        rng = random.Random(n)
        full = Family(n, ((1 << n) - 1,))
        for _ in range(10):
            for ranks in ((1, 2, 3), (n - 3, n - 2, n - 1)):
                a = greedy_antichain(n, [
                    sum(1 << e for e in rng.sample(range(n), rng.choice(ranks)))
                    for _ in range(rng.randint(1, 6))])
                self.assert_same(a, full)
                self.assert_same(full, a)
