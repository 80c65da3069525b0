import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from conftest import checkout_env, with_oversize_family
from sperner.cli import build_parser, main
from sperner.ground import Family
from sperner.normalize import SelectionError

REPO_ROOT = Path(__file__).resolve().parents[1]
CENSUS_SCHEMA = json.loads((REPO_ROOT / "schemas" / "census.schema.json").read_text())

TABLE1_TEXT = """\
m  last_set  new_shade  shade_size  bound
1  34        134 234    2           5/3
2  24        124        3           7/3
3  14        -          3           3
4  23        123        4           11/3
5  13        -          4           13/3
6  12        -          4           5
"""

TABLE1_CSV = """\
m,last_set,new_shade,shade_size,lemma_1_9_bound_num,lemma_1_9_bound_den
1,34,134 234,2,5,3
2,24,124,3,7,3
3,14,-,3,3,1
4,23,123,4,11,3
5,13,-,4,13,3
6,12,-,4,5,1
"""


def run_process(*argv, stdout=subprocess.PIPE):
    """The CLI as its own interpreter, with this checkout's sources."""
    return subprocess.run([sys.executable, "-m", "sperner.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE,
                          env=checkout_env(), timeout=120)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_rejected(capsys, *argv):
    """A command line that argparse itself ends (an error or --help)."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


class TestOrder:
    def test_list_level(self, capsys):
        code, out, _ = run(capsys, "order", "list", "4", "2")
        assert code == 0
        assert out.splitlines() == ["{1,2}", "{1,3}", "{2,3}",
                                    "{1,4}", "{2,4}", "{3,4}"]

    def test_first_and_last(self, capsys):
        code, out, _ = run(capsys, "order", "list", "5", "3", "--first", "2")
        assert code == 0 and out.splitlines() == ["{1,2,3}", "{1,2,4}"]
        code, out, _ = run(capsys, "order", "list", "4", "2", "--last", "1")
        assert code == 0 and out.splitlines() == ["{3,4}"]

    def test_mutually_exclusive(self, capsys):
        code, _, err = run(capsys, "order", "list", "4", "2",
                           "--first", "1", "--last", "1")
        assert code == 2

    def test_json(self, capsys):
        code, out, _ = run(capsys, "order", "list", "3", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 3, "k": 2,
                                   "sets": [[1, 2], [1, 3], [2, 3]]}

    def test_validation_error_is_usage(self, capsys):
        code, _, err = run(capsys, "order", "list", "4", "9")
        assert code == 2 and "error" in err


class TestShadowShade:
    def test_shadow_of_segment(self, capsys):
        code, out, _ = run(capsys, "shadow", "5", "3", "--first", "5")
        assert code == 0 and len(out.splitlines()) == 8

    def test_new_shade_single(self, capsys):
        code, out, _ = run(capsys, "shade", "4", "2", "--last", "1", "--new")
        assert code == 0
        assert out.splitlines() == ["{1,3,4}", "{2,3,4}"]

    def test_family_file(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n{1,2,3}\n")
        code, out, _ = run(capsys, "shadow", "--family", str(path))
        assert code == 0
        assert out.splitlines() == ["{1,2}", "{1,3}", "{2,3}"]

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "shadow")
        assert code == 2

    def test_first_and_last_exclusive(self, capsys):
        code, out, err = run(capsys, "shadow", "5", "3", "--first", "2",
                             "--last", "3")
        assert code == 2 and out == "" and "mutually exclusive" in err

    def test_family_and_segment_exclusive(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n{1,2,3}\n")
        code, out, err = run(capsys, "shade", "--family", str(path),
                             "--last", "1")
        assert code == 2 and out == "" and "mutually exclusive" in err

    @pytest.mark.parametrize("command", ["shadow", "shade"])
    @pytest.mark.parametrize("positional", [("5", "3"), ("5",)])
    def test_family_and_positional_exclusive(self, capsys, tmp_path,
                                             command, positional):
        # the file's n=4 family would be used with the 5 and 3 ignored
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n{1,2,3}\n")
        code, out, err = run(capsys, command, *positional,
                             "--family", str(path))
        assert code == 2 and out == "" and "mutually exclusive" in err

    @pytest.mark.parametrize("flag,value", [("--last", "99"), ("--first", "-1"),
                                            ("--first", "7")])
    def test_segment_count_out_of_range_is_usage(self, capsys, flag, value):
        # the message names the count given, not the window it would cut
        code, out, err = run(capsys, "shade", "4", "2", flag, value)
        assert code == 2 and out == ""
        assert err == f"error: m={value} out of range for C(4,2)=6\n"

    def test_family_file_repeating_a_set_is_usage(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n{1,2}\n{2,1}\n")
        code, out, err = run(capsys, "shadow", "--family", str(path))
        assert code == 2 and out == "" and "pairwise distinct" in err

    def test_family_file_member_outside_the_ground_is_usage(self, capsys, tmp_path):
        # the message quotes the set as written, not its mask 16
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n{1}\n{5}\n")
        code, out, err = run(capsys, "shadow", "--family", str(path))
        assert code == 2 and out == ""
        assert err == "error: set {5} uses elements outside 1..4\n"

    def test_family_file_member_not_an_integer_is_usage(self, capsys, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("n=4\n{1,2,x}\n")
        code, out, err = run(capsys, "shadow", "--family", str(path))
        assert code == 2 and out == ""
        assert err == "error: cannot parse set literal: '{1,2,x}'\n"


class TestCascade:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "cascade", "5", "3")
        assert code == 0 and out.strip() == "C(4,3)+C(2,2)"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "cascade", "5", "3", "--format", "json")
        assert json.loads(out) == {"m": 5, "k": 3, "terms": [[4, 3], [2, 2]]}

    def test_invalid(self, capsys):
        code, _, err = run(capsys, "cascade", "0", "3")
        assert code == 2


class TestTable1:
    def test_text_exact(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0 and out == TABLE1_TEXT

    def test_csv_exact(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "csv")
        assert code == 0 and out == TABLE1_CSV

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table1", "--format", "json")
        rows = json.loads(out)
        assert [r["shade_size"] for r in rows] == [2, 3, 3, 4, 4, 4]
        assert rows[0]["new_shade"] == [[1, 3, 4], [2, 3, 4]]
        assert rows[2]["bound"] == [3, 1]


class TestLemmas:
    def test_single_id(self, capsys):
        code, out, _ = run(capsys, "lemmas", "check", "--id", "3.13",
                           "--max", "20")
        assert code == 0
        assert "3.13" in out and "pass" in out

    def test_all_default(self, capsys):
        code, out, _ = run(capsys, "lemmas", "check")
        assert code == 0
        assert out.count("pass") == 10

    def test_json(self, capsys):
        code, out, _ = run(capsys, "lemmas", "check", "--id", "3.6",
                           "--format", "json")
        data = json.loads(out)
        assert data[0]["id"] == "3.6" and data[0]["passed"]

    def test_unknown_id_rejected(self):
        # its own process, so the exit status is the one a shell sees
        result = run_process("lemmas", "check", "--id", "9.9")
        assert result.returncode == 2 and result.stdout == b""
        assert b"'9.9'" in result.stderr

    @pytest.mark.parametrize("args,check_id,limit",
                             [(("--max", "1"), "3.4", 1),
                              (("--id", "3.7", "--max", "2"), "3.7", 2)])
    def test_limit_without_instances_is_usage(self, capsys, args, check_id,
                                              limit):
        # a check that ran over no instance must not print pass
        code, out, err = run(capsys, "lemmas", "check", *args)
        assert code == 2 and out == ""
        assert f"check {check_id} " in err and f"limit {limit}" in err


class TestNormalizeCommand:
    def test_push_up(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=4\n{1}\n{2,3,4}\n")
        code, out, _ = run(capsys, "normalize", "--family", str(path))
        assert code == 0
        assert "final:" in out and "{2,3,4}" in out

    def test_identity(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=4\n{1,2}\n")
        code, out, _ = run(capsys, "normalize", "--family", str(path))
        assert code == 0 and "no steps needed" in out

    def test_with_partner(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        g = tmp_path / "g.txt"
        f.write_text("n=5\n{1}\n")
        g.write_text("n=5\n{1,4,5}\n")
        code, out, _ = run(capsys, "normalize", "--family", str(f),
                           "--partner", str(g), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] and len(data["final"]) == 1
        assert all(len(s) == 3 for s in data["final"])

    def test_empty_partner_path_rejected(self, capsys, tmp_path):
        # an empty path names no partner file; it is not the empty family
        f = tmp_path / "f.txt"
        f.write_text("n=4\n{1}\n")
        code, out, err = run(capsys, "normalize", "--family", str(f),
                             "--partner", "")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_push_at_n13(self, capsys, tmp_path):
        # n=13 needs steps both ways; the final family it prints lies in
        # the middle band and keeps the family's size
        from sperner.ground import parse_family
        from sperner.normalize import middle_band
        path = tmp_path / "f.txt"
        path.write_text("n=13\n{1}\n{2,3}\n{4,5,6,7,8,9,10,11,12,13}\n")
        code, out, _ = run(capsys, "normalize", "--family", str(path))
        assert code == 0 and "step 1: up from rank 1" in out
        final = parse_family(out.split("final:\n", 1)[1])
        lo, hi = middle_band(13)
        assert len(final) == 3
        assert all(lo <= m.bit_count() <= hi for m in final.members)

    def test_non_antichain_rejected(self, capsys, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("n=4\n{1}\n{1,2}\n")
        code, _, err = run(capsys, "normalize", "--family", str(path))
        assert code == 2

    def test_family_file_repeating_an_element_is_usage(self, capsys, tmp_path):
        # the compact line 112 must not be read as {1,2}
        path = tmp_path / "f.txt"
        path.write_text("n=4\n112\n")
        code, out, err = run(capsys, "normalize", "--family", str(path))
        assert code == 2 and out == "" and "repeats an element" in err

    def test_selection_failure_exits_1(self, capsys, tmp_path, monkeypatch):
        from sperner import normalize

        def fail(n, members, up):
            raise SelectionError("up", 1, 2, 1)

        monkeypatch.setattr(normalize, "_step", fail)
        path = tmp_path / "f.txt"
        path.write_text("n=4\n{1}\n{2,3,4}\n")
        code, out, err = run(capsys, "normalize", "--family", str(path))
        assert code == 1 and out == ""
        assert err == ("selection failure: selection failure pushing up from "
                       "rank 1: needed 2 replacement sets, the pool holds only 1\n")


class TestVerify:
    @pytest.mark.parametrize("n", ["1", "2", "3", "4", "5"])
    def test_theorem_1_4_json_schema(self, capsys, n):
        code, out, _ = run(capsys, "verify", "theorem-1.4", "--n", n,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        Draft202012Validator(CENSUS_SCHEMA).validate(payload)
        assert payload["match"] and "reduction" not in payload
        assert payload["optimum"] == payload["formula_value"]

    @pytest.mark.parametrize("n, optimum, counts, classes, near_classes", [
        (1, 2, (1, 4, 1, 2), 1, 4),
        (2, 3, (2, 9, 1, 6), 2, 6),
        (3, 6, (1, 6, 1, 3), 1, 2),
        (4, 10, (2, 20, 1, 10), 2, 4),
        (5, 20, (1, 20, 1, 10), 1, 2),
        (6, 35, (2, 70, 1, 35), 2, 4),
    ])
    def test_theorem_1_4_census_counts(self, capsys, n, optimum, counts,
                                       classes, near_classes):
        code, out, _ = run(capsys, "verify", "theorem-1.4", "--n", str(n),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["optimum"] == optimum
        assert tuple(payload["counts"][key] for key in (
            "ordered_optimum", "ordered_near",
            "unordered_optimum", "unordered_near")) == counts
        assert len(payload["optimal_pairs"]) == classes
        assert len(payload["near_optimal_pairs"]) == near_classes

    def test_theorem_1_5(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem-1.5", "--n", "3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        Draft202012Validator(CENSUS_SCHEMA).validate(payload)
        assert payload["characterization"]["expected_ordered"] == 6

    def test_theorem_1_6(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem-1.6", "--n", "4")
        assert code == 0 and "PASS" in out

    def test_parity_mismatch(self, capsys):
        code, _, err = run(capsys, "verify", "theorem-1.5", "--n", "4")
        assert code == 2
        assert "theorem-1.5 concerns odd ground sizes n >= 3" in err
        code, _, err = run(capsys, "verify", "theorem-1.6", "--n", "5")
        assert code == 2
        assert "theorem-1.6 concerns even ground sizes n >= 4" in err

    @pytest.mark.parametrize("target,n,range_text", [
        ("theorem-1.5", "1", "odd ground sizes n >= 3"),
        ("theorem-1.6", "2", "even ground sizes n >= 4"),
    ])
    def test_below_characterization_range_is_usage(self, capsys, target, n,
                                                    range_text):
        code, out, err = run(capsys, "verify", target, "--n", n)
        assert code == 2 and out == ""
        assert range_text in err

    def test_missing_n(self, capsys):
        code, out, err = run_rejected(capsys, "verify", "theorem-1.4")
        assert code == 2 and out == ""
        assert "required: --n" in err

    def test_lemma_3_15(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma-3.15", "--format", "json")
        assert code == 0
        assert json.loads(out)["match"]

    def test_lemma_3_15_fails_on_an_oversize_family(self, capsys, monkeypatch):
        with_oversize_family(monkeypatch)
        code, out, _ = run(capsys, "verify", "lemma-3.15")
        assert code == 1
        assert out == ("antichains scanned: 169; with a 1-set or 3-set: 103; "
                       "size-4 classes: 4 (expected 4)\n"
                       "FAIL\n")

    def test_normalization_target(self, capsys):
        code, out, _ = run(capsys, "verify", "normalization", "--n", "3",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["match"] and data["crossing_pairs"] == 90

    def test_selection_failure_fails_the_audit(self, capsys, monkeypatch):
        from sperner import normalize, verifier
        real = normalize.normalize_pair
        empty = Family(3, ())

        def one_failure(x, y, validate=True):
            # the empty family crosses itself vacuously: fail that pair
            if x == y == empty:
                raise SelectionError("up", 1, 2, 1)
            return real(x, y, validate=validate)

        monkeypatch.setattr(normalize, "normalize_pair", one_failure)
        report = verifier.normalization_pair_sweep(3)
        assert len(report.selection_failures) == 1 and not report.violations
        assert not report.passed
        code, out, _ = run(capsys, "verify", "normalization", "--n", "3",
                           "--format", "json")
        assert code == 1 and json.loads(out)["match"] is False

    def test_workers_below_one_is_usage(self, capsys):
        code, out, err = run(capsys, "verify", "normalization", "--n", "3",
                             "--workers", "0")
        assert code == 2 and out == "" and "worker count" in err

    def test_theorem_1_4_n6_json_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem-1.4", "--n", "6",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        Draft202012Validator(CENSUS_SCHEMA).validate(payload)
        assert payload["match"] and "reduction" not in payload
        assert payload["optimum"] == payload["formula_value"] == 35

    @pytest.mark.parametrize("n", ["-1", "0", "7"])
    def test_census_range_is_usage(self, capsys, n):
        code, out, err = run(capsys, "verify", "theorem-1.4", "--n", n)
        assert code == 2 and out == ""
        assert "census supports 1 <= n <= 6" in err

    def test_budget_exhaustion_exit_code(self, capsys):
        code, out, err = run(capsys, "verify", "theorem-1.4", "--n", "5",
                             "--budget-seconds", "0")
        assert code == 3
        assert "partial" in err

    @pytest.mark.parametrize("args,flag", [
        (("lemma-3.15", "--n", "9"), "--n"),
        (("lemma-3.15", "--workers", "1"), "--workers"),
        (("lemma-3.15", "--budget-seconds", "5"), "--budget-seconds"),
        (("theorem-1.4", "--n", "3", "--workers", "-5"), "--workers"),
        (("theorem-1.5", "--n", "3", "--workers", "1"), "--workers"),
        (("normalization", "--n", "3", "--budget-seconds", "5"),
         "--budget-seconds"),
    ])
    def test_option_the_target_never_reads_is_usage(self, capsys, args, flag):
        code, out, err = run_rejected(capsys, "verify", *args)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag}" in err

    def test_target_help_lists_only_its_options(self, capsys):
        code, out, _ = run_rejected(capsys, "verify", "theorem-1.4", "--help")
        assert code == 0
        assert "--budget-seconds" in out and "--workers" not in out

    @pytest.mark.parametrize("budget", ["-1", "nan"])
    def test_negative_budget_is_usage(self, capsys, budget):
        code, out, err = run(capsys, "verify", "theorem-1.4", "--n", "3",
                             "--budget-seconds", budget)
        assert code == 2 and out == ""
        assert "budget must be >= 0" in err


class TestSweepCommand:
    def test_lemma_3_8(self, capsys):
        code, out, _ = run(capsys, "sweep", "lemma-3.8", "--max-n", "9")
        assert code == 0 and "PASS" in out

    def test_lemma_3_14(self, capsys):
        code, out, _ = run(capsys, "sweep", "lemma-3.14", "--max-n", "10",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] and data["notes"]

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "sweep", "lemma-3.8", "--max-n", "15")
        assert code == 2
        assert "supported n_max range is 3..13" in err

    @pytest.mark.parametrize("target,range_text", [
        ("lemma-3.8", "3..13"), ("lemma-3.14", "6..12")])
    def test_max_n_zero_is_usage(self, capsys, target, range_text):
        code, out, err = run(capsys, "sweep", target, "--max-n", "0")
        assert code == 2 and out == ""
        assert range_text in err

    def test_defaults_match_the_benchmark_pins(self, capsys, monkeypatch):
        # the benchmark's checks pin each default sweep's instance count;
        # load them by path, writing no bytecode beside them
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location(
            "perfbench_checks", REPO_ROOT / "perfbench" / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        for target in ("lemma-3.8", "lemma-3.14"):
            code, out, _ = run(capsys, "sweep", target, "--format", "json")
            assert code == 0
            assert json.loads(out)["instances"] == checks.sweep_instances(target)


class TestExactOutput:
    """Whole stdout and exit code of one command line per output shape."""

    @pytest.mark.parametrize("argv,expected", [
        (("verify", "lemma-3.15"),
         "antichains scanned: 168; with a 1-set or 3-set: 102; "
         "size-4 classes: 4 (expected 4)\n"
         "PASS\n"),
        (("verify", "normalization", "--n", "3"),
         "n=3: 90 crossing pairs, 45 moved, 0 selection failures, "
         "0 violations\n"
         "PASS\n"),
        (("sweep", "lemma-3.14", "--max-n", "6"),
         "last-shade-margin: 18 instances, 0 violations\n"
         "  note: n=4, m=3 is an exact tie (|shade|=3 equals the bound)\n"
         "PASS\n"),
        (("lemmas", "check", "--format", "csv"),
         "id,limit,instances,violations,status\n"
         "3.2,40,820,0,pass\n"
         "3.3,40,820,0,pass\n"
         "3.4,20,2470,0,pass\n"
         "3.5,30,961,0,pass\n"
         "3.6,30,29,0,pass\n"
         "3.7,25,78,0,pass\n"
         "3.10,20,2869,0,pass\n"
         "3.11,20,2660,0,pass\n"
         "3.12,20,190,0,pass\n"
         "3.13,20,19,0,pass\n"),
        (("shadow", "5", "3", "--first", "5", "--format", "json"),
         '{"n": 5, "size": 8, "sets": [[1, 2], [1, 3], [2, 3], [1, 4], '
         '[2, 4], [3, 4], [1, 5], [2, 5]]}\n'),
    ])
    def test_passing_run(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected, "")

    def test_budget_cut_census(self, capsys):
        # a census cut by its budget refutes nothing: INCOMPLETE, not FAIL
        assert run(capsys, "verify", "theorem-1.4", "--n", "6",
                   "--budget-seconds", "0") == (
            3,
            "n=6  optimum=35  formula=35\n"
            "optimal pair classes: 0\n"
            "INCOMPLETE\n",
            "search budget exhausted; results are partial\n")

    def test_lemmas_violation_lines(self, capsys, monkeypatch):
        from sperner import differences
        monkeypatch.setattr(differences, "term_gain", lambda n, r: 0)
        assert run(capsys, "lemmas", "check", "--id", "3.3", "--max", "2") == (
            1,
            "id   limit  instances  violations  status\n"
            "3.3  2      3          2           FAIL\n"
            "  violation 3.3: (2, 1)\n"
            "  violation 3.3: (2, 2)\n",
            "")

    def test_sweep_violation_lines(self, capsys, monkeypatch):
        from sperner import cascade
        real = cascade.kkt_shadow_bound
        monkeypatch.setattr(cascade, "kkt_shadow_bound",
                            lambda m, k: real(m, k) - 1)
        assert run(capsys, "sweep", "lemma-3.8", "--max-n", "3") == (
            1,
            "shadow-excess: 1 instances, 2 violations\n"
            "  violation: (3, 1, 2)\n"
            "  violation: (3, 1, 'brute-force mismatch', 3, 2)\n"
            "FAIL\n",
            "")


def readme_cli_lines():
    readme = (REPO_ROOT / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("sperner ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example_parses(line):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "sperner"
    build_parser().parse_args(argv[1:])


class TestProcess:
    def test_closed_stdout_exits_141_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            proc = run_process("lemmas", "check", "--format", "json",
                               stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""
