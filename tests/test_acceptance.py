"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its elapsed time.  Budgets that the criteria state are asserted
too.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Only criteria 1, 5, 6 and 8 check shade_table(4)'s rows, kkt_oracle_mismatches
up to n = 10, sweep_shadow_excess(13) and window_minimality_report(8).
"""

import time
from fractions import Fraction

from sperner.cascade import (kkt_oracle_mismatches, shade_table,
                             window_minimality_report)
from sperner.differences import check_lemma
from sperner.ground import full_level, parse_set
from sperner.verifier import (extremal_report, max_sum_formula,
                              near_extremal_report, normalization_pair_sweep,
                              size4_antichain_classes_report,
                              sweep_last_shade_margin, sweep_shadow_excess)


class Criterion:
    def __init__(self, number, description, budget_seconds=None):
        self.number = number
        self.description = description
        self.budget = budget_seconds
        self.start = time.monotonic()

    def finish(self, ok, detail=""):
        elapsed = time.monotonic() - self.start
        status = "PASS" if ok else "FAIL"
        line = (f"{status} criterion {self.number}: {self.description} "
                f"({elapsed:.2f}s)")
        print(line)
        assert ok, f"{line} {detail}"
        if self.budget is not None:
            assert elapsed < self.budget, \
                f"criterion {self.number} exceeded its {self.budget}s budget"


def test_criterion_1_table_reproduction():
    crit = Criterion(1, "last-segment shade table for n=4 reproduced exactly",
                     budget_seconds=1.0)
    rows = shade_table(4)
    sizes_ok = [r.shade_size for r in rows] == [2, 3, 3, 4, 4, 4]
    last_ok = [r.last_set for r in rows] == [
        parse_set(s) for s in ["34", "24", "14", "23", "13", "12"]]
    shades_ok = [r.new_shade for r in rows] == [
        tuple(parse_set(x) for x in row)
        for row in [("134", "234"), ("124",), (), ("123",), (), ()]]
    bounds_ok = [r.bound for r in rows] == [
        Fraction(5, 3), Fraction(7, 3), Fraction(3),
        Fraction(11, 3), Fraction(13, 3), Fraction(5)]
    crit.finish(sizes_ok and last_ok and shades_ok and bounds_ok)


def test_criterion_2_maximum_sum_by_exhaustion():
    crit = Criterion(2, "max |A|+|B| equals 6 / 10 / 20 at n = 3 / 4 / 5",
                     budget_seconds=300.0)
    reports = {n: extremal_report(n) for n in (3, 4, 5)}
    values_ok = all(reports[n]["census"].optimum == expected
                    for n, expected in ((3, 6), (4, 10), (5, 20)))
    formula_ok = all(reports[n]["census"].optimum == max_sum_formula(n)
                     for n in (3, 4, 5))
    complete_ok = not any(reports[n]["census"].incomplete for n in (3, 4, 5))
    crit.finish(values_ok and formula_ok and complete_ok)


def test_criterion_3_optimal_pair_uniqueness():
    crit = Criterion(3, "optimal pairs are exactly the two middle levels")
    ok = True
    detail = []
    for n in (3, 4, 5):
        report = extremal_report(n)
        if not report["match"]:
            ok = False
            detail.append(f"n={n} mismatch")
            continue
        census = report["census"]
        if n % 2:
            lv = full_level(n, (n + 1) // 2)
            ok &= census.raw_optimum == ((lv, lv),)
        else:
            lo, hi = full_level(n, n // 2), full_level(n, n // 2 + 1)
            ok &= set(census.raw_optimum) == {(lo, hi), (hi, lo)}
            ok &= len(census.optimum_pairs) == 2  # the ordered swap only
    crit.finish(ok, "; ".join(detail))


def test_criterion_4_near_optimal_characterization():
    crit = Criterion(4, "optimum-1 pairs match the one-deletion characterization")
    ok = True
    detail = []
    reports = {n: near_extremal_report(n) for n in (3, 4, 5)}
    for n, report in reports.items():
        if not report["match"]:
            ok = False
            detail.append(
                f"n={n}: missing={report['missing']} unexpected={report['unexpected']}")
    n4 = reports[4]["census"]
    # ten distinct configurations (4 deleting a 3-set, 6 deleting a 2-set);
    # the ordered census sees each in both orders
    ok &= n4.unordered_count_near == 10
    ok &= len(n4.raw_near) == 20
    crit.finish(ok, "; ".join(detail))


def test_criterion_5_kkt_oracle_equivalence():
    crit = Criterion(5, "closed-form shadow/shade sizes equal brute force, n <= 10",
                     budget_seconds=120.0)
    report = kkt_oracle_mismatches(10)
    crit.finish(report.passed, f"first mismatches: {report.violations[:5]}")


def test_criterion_6_inequality_sweeps():
    crit = Criterion(6, "difference-function sweeps hold at stated ranges")
    failures = []
    for check_id, limit in (("3.3", 40), ("3.4", 20), ("3.6", 30),
                            ("3.7", 25), ("3.10", 20), ("3.11", 20),
                            ("3.12", 20), ("3.13", 20)):
        report = check_lemma(check_id, limit)
        if not report.passed:
            failures.append((check_id, report.violations[:3]))
    shadow_excess = sweep_shadow_excess(13)
    if not shadow_excess.passed:
        failures.append(("lemma-3.8", shadow_excess.violations[:3]))
    margin = sweep_last_shade_margin(12)
    if not margin.passed:
        failures.append(("lemma-3.14", margin.violations[:3]))
    if not margin.notes:
        failures.append(("lemma-3.14", "the n=4, m=3 tie was not confirmed"))
    crit.finish(not failures, str(failures))


def test_criterion_7_size4_antichain_classes():
    crit = Criterion(7, "all 168 antichains of {1..4}: bound 4 and four classes",
                     budget_seconds=1.0)
    report = size4_antichain_classes_report()
    crit.finish(report["match"] and report["scanned"] == 168,
                f"oversize={report['oversize']}")


def test_criterion_8_window_minimality():
    crit = Criterion(8, "windows: last minimizes new-shadow, first new-shade, n <= 8",
                     budget_seconds=300.0)
    report = window_minimality_report(8)
    crit.finish(report.passed, f"violations: {report.violations[:5]}")


def test_criterion_9_normalization_over_all_pairs():
    crit = Criterion(9, "normalization preserves size/antichain/crossing, n <= 5")
    ok = True
    detail = []
    for n in range(1, 6):
        report = normalization_pair_sweep(n, workers=2 if n == 5 else 1)
        # a selection failure fails the report, as a violation does
        if not report.passed:
            ok = False
            detail.append(f"n={n}: {report.violations[:3]} "
                          f"{report.selection_failures[:3]}")
        print(f"  n={n}: {report.crossing_pairs} crossing pairs, "
              f"{report.moved_pairs} normalized with steps, "
              f"{len(report.selection_failures)} selection failures")
    crit.finish(ok, "; ".join(detail))
