import re
from fractions import Fraction
from math import comb

import pytest

from sperner import differences
from sperner.differences import (CHECKS, check_all, check_lemma,
                                 damped_term_gain, hockey_stick, term_gain)


class TestTermGain:
    def test_examples(self):
        assert term_gain(5, 3) == 0
        assert term_gain(4, 3) == comb(4, 2) - comb(4, 3) == 2
        assert term_gain(6, 2) == comb(6, 1) - comb(6, 2) == -9

    def test_zero_above_diagonal(self):
        assert term_gain(3, 7) == 0
        assert term_gain(1, 2) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            term_gain(0, 1)
        with pytest.raises(ValueError):
            term_gain(4, 0)


class TestDampedTermGain:
    def test_examples(self):
        assert damped_term_gain(2, 1, 2) == Fraction(-1, 3)
        for k in range(2, 8):
            assert damped_term_gain(k, 1, k) == 1 - Fraction(k * k, k + 1)
        assert damped_term_gain(3, 5, 4) == 0

    def test_denominator_divides_k_plus_1(self):
        for k in range(1, 10):
            for n in range(1, 12):
                for r in range(1, n + 1):
                    value = damped_term_gain(n, r, k)
                    assert (k + 1) % value.denominator == 0


class TestHockeyStick:
    def test_examples(self):
        assert hockey_stick(2, 2) == 10 == comb(5, 2)
        assert hockey_stick(5, 0) == 1
        assert hockey_stick(0, 3) == 4 == comb(4, 3)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hockey_stick(-1, 2)


# each case moves the one value a check reads at one point a single
# step past the check's bound: an identity's left side up by one, a
# ">=" value to one below its floor, a "< 0" value to 0.  Exactly that
# instance is reported, so a check loosened by one step (">=" for "==",
# a floor lowered by one, "<= 0" for "< 0") reports nothing
ONE_STEP_PAST = [
    ("3.2", "term_gain", (5, 2), -4, (5, 2)),  # 2*(-5) == C(5,1)*(-2)
    ("3.4", "term_gain", (1, 1), -2, (3, 1, 1)),  # floor term_gain(2,1) = -1
    ("3.5", "hockey_stick", (2, 2), 11, (2, 2)),  # C(5,2) = 10
    ("3.6", "term_gain", (5, 3), 1, (4,)),  # 0 in the j=4 sum
    ("3.7", "term_gain", (3, 3), 1, (3, 3)),  # 2 at n=3, the bound
    # 2*(D(1,1,2) - D(2,1,2)) = 2*(1 - 0) against k+1 = 3
    ("3.10", "_scaled_damped_gain", (2, 1, 2), 0, (2, 1, 1)),
    ("3.11", "_scaled_damped_gain", (1, 1, 2), -2, (2, 1, 1)),  # floor -1
    ("3.12", "_scaled_damped_gain", (2, 1, 2), 0, (2, 1)),  # -1 < 0
    ("3.13", "_scaled_damped_gain", (4, 2, 3), -1, (3,)),  # -2 in the k=3 sum
]


class TestCatalogue:
    def test_known_ids(self):
        assert set(CHECKS) == {
            "3.2", "3.3", "3.4", "3.5", "3.6", "3.7",
            "3.10", "3.11", "3.12", "3.13"}

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            check_lemma("9.99")

    def test_spot_values(self):
        # sum telescopes to 1 at j=2: term_gain(1,1) + term_gain(2,2)
        assert term_gain(1, 1) + term_gain(2, 2) == 0 + 1 == 1
        # damped sum at k=2 equals 2/3 exactly
        total = sum(damped_term_gain(1 + r, r, 2) for r in (1, 2))
        assert total == Fraction(2, 3)
        # odd-level gain at the smallest admissible point
        assert term_gain(3, 3) == 2

    @pytest.mark.parametrize("check_id,limit", [("3.4", 1), ("3.6", 1),
                                                ("3.7", 2), ("3.13", 1)])
    def test_limit_without_instances_raises(self, check_id, limit):
        message = f"check {check_id} has no instance up to limit {limit}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_lemma(check_id, limit)

    def test_violation_reporting(self):
        # a deliberately broken claim must pinpoint offenders, so feed
        # check_lemma's machinery a limit that keeps everything green and
        # verify counts instead
        report = check_lemma("3.6", 10)
        assert report.instances == 9
        assert report.limit == 10
        assert not report.violations

    @pytest.mark.parametrize("check_id, helper, point, value, violation",
                             ONE_STEP_PAST, ids=[c[0] for c in ONE_STEP_PAST])
    def test_each_check_reports_one_step_past_its_bound(
            self, monkeypatch, check_id, helper, point, value, violation):
        real = getattr(differences, helper)
        monkeypatch.setattr(differences, helper,
                            lambda *args: value if args == point else real(*args))
        report = check_lemma(check_id)
        assert report.violations == (violation,)

    def test_check_all_runs_everything(self):
        reports = check_all(6)
        assert len(reports) == len(CHECKS)
        assert all(r.passed for r in reports)
