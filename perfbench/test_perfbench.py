"""Tests of the benchmark itself: every correctness check rejects a
doctored output, traced runs print what untraced runs print, and the
compare rule gives the verdicts it documents.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import compare  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SCHEMA = ROOT / "schemas" / "census.schema.json"
ENV = {**{k: v for k, v in os.environ.items() if k != "SPERNER_WORKERS"},
       "PYTHONPATH": str(ROOT / "src")}


def cli(*args: str) -> str:
    out = subprocess.run([sys.executable, "-m", "sperner.cli", *args, "--format", "json"],
                         env=ENV, cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout


def traced(tmp_path: Path, argv: list[str]) -> tuple[str, dict]:
    trace = tmp_path / "trace.json"
    out = subprocess.run([sys.executable, *argv[:1], str(trace), "op", *argv[1:]],
                         env=ENV, cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout, json.loads(trace.read_text())


def doctor(payload, path, value):
    out = copy.deepcopy(payload)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


# ---------------------------------------------------------------------------
# own arithmetic


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_own_enumeration_gives_dedekind_numbers(n):
    assert len(checks.antichains(n)) == checks.DEDEKIND[n]


def test_crossing_pair_count_against_brute_force():
    n = 3
    fams = [[x for x in range(8) if a >> x & 1] for a in checks.antichains(n)]
    brute = sum(checks.cross_intersect(fams[i], fams[j])
                for i in range(len(fams)) for j in range(i, len(fams)))
    assert checks.crossing_pair_count(n, (1 << 8) - 1) == brute


def test_sweep_instances_are_binomial_sums():
    assert checks.sweep_instances("lemma-3.8") == 1 + 5 + 21 + 84 + 330 + 1287
    assert checks.sweep_instances("lemma-3.14") == 18 + 68 + 250 + 922


# ---------------------------------------------------------------------------
# each check rejects a doctored output


@pytest.mark.parametrize("target,n", [("theorem-1.4", 4), ("theorem-1.5", 5),
                                      ("theorem-1.6", 4)])
def test_census_check(target, n):
    payload = json.loads(cli("verify", target, "--n", str(n)))
    assert checks.census_problems(payload, n, SCHEMA) == []
    pair = payload["optimal_pairs"][0]
    doctored = [
        doctor(payload, ["optimum"], payload["optimum"] + 1),
        doctor(payload, ["formula_value"], payload["formula_value"] - 1),
        doctor(payload, ["n"], "four"),
        doctor(payload, ["counts", "ordered_near"], payload["counts"]["ordered_near"] + 2),
        doctor(payload, ["optimal_pairs", 0], [pair[0][1:], pair[1]]),
        doctor(payload, ["optimal_pairs", 0], [pair[0] + [[1]], pair[1]]),
        doctor(payload, ["near_optimal_pairs", 0, 1], [[1], [2]]),
        doctor(payload, ["match"], False),
    ]
    if "characterization" in payload:
        doctored.append(doctor(payload, ["characterization", "found_ordered"], 1))
    for bad in doctored:
        assert checks.census_problems(bad, n, SCHEMA), bad


def test_lemma_3_15_check():
    payload = json.loads(cli("verify", "lemma-3.15"))
    assert checks.lemma_3_15_problems(payload) == []
    assert checks.lemma_3_15_problems(doctor(payload, ["scanned"], 167))
    assert checks.lemma_3_15_problems(doctor(payload, ["classes_found"], 3))


@pytest.mark.parametrize("target", ["lemma-3.8", "lemma-3.14"])
def test_sweep_check(target):
    payload = json.loads(cli("sweep", target))
    assert checks.sweep_problems(payload, target) == []
    assert checks.sweep_problems(doctor(payload, ["instances"], payload["instances"] - 1),
                                 target)
    assert checks.sweep_problems(doctor(payload, ["violations"], [[5, 1, 2]]), target)


def test_lemmas_check():
    payload = json.loads(cli("lemmas", "check"))
    assert checks.lemmas_problems(payload) == []
    assert checks.lemmas_problems(payload[1:])
    assert checks.lemmas_problems(doctor(payload, [3, "passed"], False))


def test_normalization_check():
    payload = json.loads(cli("verify", "normalization", "--n", "4", "--workers", "2"))
    assert checks.normalization_problems(payload, 4) == []
    for key, value in (("crossing_pairs", payload["crossing_pairs"] - 1),
                       ("moved_pairs", payload["moved_pairs"] + 1),
                       ("antichains", 167), ("violations", 1),
                       ("selection_failures", 2)):
        assert checks.normalization_problems(doctor(payload, [key], value), 4), key


def test_normalized_pair_check():
    sys.path.insert(0, str(ROOT / "src"))
    from sperner.ground import Family
    from sperner.normalize import normalize_pair

    n = 5
    for a, b in checks.sample_crossing_pairs(n, random.Random(7), 20):
        ta, tb = normalize_pair(Family.from_masks(n, a), Family.from_masks(n, b))
        after = (list(ta.final.members), list(tb.final.members))
        assert checks.normalized_pair_problems(n, (a, b), after) == []
    a, b = [0b00111], [0b00011]                  # {1,2,3} and {1,2}
    assert checks.normalized_pair_problems(n, (a, b), (a, b))          # {1,2} off band
    assert checks.normalized_pair_problems(n, (a, b), (a, [0b11000]))  # disjoint
    assert checks.normalized_pair_problems(n, (a, b), (a, []))         # size lost


def test_enumeration_check():
    good = {"mask_tuples": {str(n): v for n, v in checks.DEDEKIND.items()},
            "oracle": {str(n): v for n, v in checks.DEDEKIND.items()},
            "enumerate_antichains_5": 7581, "band_walk": 83619, "at_least_14": 83619}
    assert checks.enumeration_problems(good) == []
    for path, value in ((["mask_tuples", "6"], 7828353), (["oracle", "3"], 21),
                        (["enumerate_antichains_5"], 7580), (["band_walk"], 83618)):
        assert checks.enumeration_problems(doctor(good, path, value)), path


@pytest.mark.parametrize("stdout,check", [
    ("[]", checks.lemma_3_15_problems),            # a list where a dict belongs
    ('{"id": "3.2"}', checks.lemmas_problems),     # a dict where a list belongs
    ("{}", checks.enumeration_problems),           # keys missing
    ("not json", checks.lemmas_problems),
])
def test_malformed_output_is_a_problem_not_a_crash(stdout, check):
    import run

    assert run.output_problems(stdout, check)


# ---------------------------------------------------------------------------
# tracing


@pytest.mark.parametrize("args", [
    ["verify", "normalization", "--n", "4", "--workers", "2"],
    ["verify", "theorem-1.6", "--n", "4"],
    ["lemmas", "check"],
])
def test_traced_cli_prints_what_the_cli_prints(tmp_path, args):
    plain = cli(*args)
    out, _ = traced(tmp_path, [str(BENCH / "traced_cli.py"), "--", *args, "--format", "json"])
    assert out == plain


def test_traced_pool_counts_match_the_report(tmp_path):
    out, snap = traced(tmp_path, [str(BENCH / "traced_cli.py"), "--", "verify",
                                  "normalization", "--n", "4", "--workers", "2",
                                  "--format", "json"])
    layers = layer_metrics(snap)
    report = json.loads(out)
    want = checks.normalization_expected(4)
    assert layers["normalize.pair_calls"] == layers["verifier.crossing_pairs"] \
        == report["crossing_pairs"] == want["crossing_pairs"]
    assert layers["verifier.moved_pairs"] == want["moved_pairs"]
    assert layers["parallel.workers"] == 2
    assert layers["ground.family_new"] > 0 and layers["ground.predicate_calls"] > 0
    assert not list(tmp_path.glob("worker-*.json"))


def test_traced_enumeration_prints_what_untraced_prints(tmp_path):
    plain, snap = traced(tmp_path, [str(BENCH / "enumeration_ops.py")])
    script = str(BENCH / "enumeration_ops.py")
    out = subprocess.run([sys.executable, script], env=ENV, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert out == plain
    results = json.loads(out)
    assert checks.enumeration_problems(results) == []
    layers = layer_metrics(snap)
    assert layers["verifier.antichains"] == \
        sum(checks.DEDEKIND.values()) + checks.DEDEKIND[5] + results["band_walk"]
    assert layers["ground.family_new"] == checks.DEDEKIND[5]


# ---------------------------------------------------------------------------
# compare rule and the command's refusal without sources


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]

    def verdict(change, bound=0.1):
        return compare.verdict(base, change, list(zip(base, change)), bound, True)

    assert verdict([x * 0.8 for x in base]) == "improved"
    assert verdict([x * 1.2 for x in base]) == "worse"
    assert verdict([x * 1.05 for x in base]) == "within bound"
    assert verdict([5.0, 15.0] * 5) == "unresolved"


def _runs(values, start, failed=0, correct=True):
    return [{"started": start + 2 * i, "attempted": 10, "failed": failed,
             "correct": correct, "value": v} for i, v in enumerate(values)]


def test_compare_pairs_only_alternating_runs():
    base = _runs(range(10), 0.0)
    # pairs at 0 and 1, then 1.5 and 2 (change first), then 4 and 5, ...
    change = [dict(r, started=2 * i + (1.0 if i % 2 == 0 else -0.5))
              for i, r in enumerate(_runs(range(10), 0.0))]
    pairs = compare.alternating_pairs(base, change)
    assert [(b["value"], c["value"]) for b, c in pairs] == [(i, i) for i in range(10)]
    assert compare.alternating_pairs(base, _runs(range(10), 100.0)) == []   # one set, then the other
    assert compare.alternating_pairs(base, change[:9]) == []
    # base first in every pair
    assert compare.alternating_pairs(base, _runs(range(10), 1.0)) == []


def test_compare_gives_no_speed_verdict_on_failures():
    base = _runs(range(10), 0.0)
    assert not compare.failing(base, _runs(range(10), 1.0))
    assert compare.failing(base, _runs(range(10), 1.0, failed=1))
    assert compare.failing(base, _runs(range(10), 1.0, correct=False))
    assert compare.failing(_runs(range(10), 0.0, correct=False), _runs(range(10), 1.0))
    assert not compare.failing(_runs(range(10), 0.0, failed=1), _runs(range(10), 1.0, failed=1))


def test_compare_needs_ten_pairs_for_improved():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    change = [x * 0.8 for x in base]
    assert compare.verdict(base, change, list(zip(base, change)), 0.1, True) != "improved"


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    got = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "theorems",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert got.returncode != 0
    assert '"correct"' not in got.stdout


def test_speed_factor_is_nominal_over_mean_probe_time_in_window():
    import run

    probe = run.SpeedProbe(set())
    probe.samples = [(1.0, 0.001), (2.0, 0.002), (3.0, 0.003), (10.0, 0.1)]
    # window [1.5, 3.0] widened by one period holds the samples at 2.0 and 3.0
    assert probe.factor(1.5, 3.0) == pytest.approx(run.PROBE_NOMINAL / 0.0025)
