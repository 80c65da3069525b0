import importlib.util
import json
import os
import shlex
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from conftest import run_python, with_oversize_family
from sperner.cli import build_parser, main
from sperner.ground import Family
from sperner.normalize import SelectionError

REPO_ROOT = Path(__file__).resolve().parents[1]
CENSUS_SCHEMA = json.loads((REPO_ROOT / "schemas" / "census.schema.json").read_text())


def row(line, expected, files=None):
    """A table row named by its command line; `files` maps name to text."""
    return pytest.param(line, expected, files, id=line)


@pytest.fixture
def cli(capsys, monkeypatch, tmp_path):
    """Run one command line in tmp_path, beside the files it names, and
    return (exit code, stdout, stderr); an argparse exit (an error or
    --help) gives its code as a return would."""
    monkeypatch.chdir(tmp_path)

    def run_line(line, files=None):
        for name, text in (files or {}).items():
            (tmp_path / name).write_text(text)
        try:
            code = main(shlex.split(line))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run_line


FAM = {"fam.txt": "n=4\n{1,2,3}\n"}


class TestNormalizeCommand:
    def test_empty_partner_path_rejected(self, cli):
        # an empty path names no partner file; it is not the empty family
        code, out, err = cli("normalize --family f.txt --partner ''",
                             {"f.txt": "n=4\n{1}\n"})
        assert code == 2 and out == "" and err.startswith("error:")

    def test_selection_failure_exits_1(self, cli, monkeypatch):
        from sperner import normalize

        def fail(n, members, up):
            raise SelectionError("up", 1, 2, 1)

        monkeypatch.setattr(normalize, "_step", fail)
        assert cli("normalize --family f.txt",
                   {"f.txt": "n=4\n{1}\n{2,3,4}\n"}) == (
            1, "", "selection failure: selection failure pushing up from "
            "rank 1: needed 2 replacement sets, the pool holds only 1\n")


class TestVerify:
    @pytest.mark.parametrize("n, optimum, counts, classes, near_classes", [
        (1, 2, (1, 4, 1, 2), 1, 4),
        (2, 3, (2, 9, 1, 6), 2, 6),
        (3, 6, (1, 6, 1, 3), 1, 2),
        (4, 10, (2, 20, 1, 10), 2, 4),
        (5, 20, (1, 20, 1, 10), 1, 2),
        (6, 35, (2, 70, 1, 35), 2, 4),
    ])
    def test_theorem_1_4_census_counts(self, cli, n, optimum, counts,
                                       classes, near_classes):
        code, out, _ = cli(f"verify theorem-1.4 --n {n} --format json")
        assert code == 0
        payload = json.loads(out)
        Draft202012Validator(CENSUS_SCHEMA).validate(payload)
        assert payload["match"] and "reduction" not in payload
        assert payload["optimum"] == payload["formula_value"] == optimum
        assert tuple(payload["counts"][key] for key in (
            "ordered_optimum", "ordered_near",
            "unordered_optimum", "unordered_near")) == counts
        assert len(payload["optimal_pairs"]) == classes
        assert len(payload["near_optimal_pairs"]) == near_classes

    def test_theorem_1_5(self, cli):
        code, out, _ = cli("verify theorem-1.5 --n 3 --format json")
        assert code == 0
        payload = json.loads(out)
        Draft202012Validator(CENSUS_SCHEMA).validate(payload)
        assert payload["characterization"]["expected_ordered"] == 6

    def test_lemma_3_15_fails_on_an_oversize_family(self, cli, monkeypatch):
        with_oversize_family(monkeypatch)
        code, out, _ = cli("verify lemma-3.15")
        assert code == 1
        assert out == ("antichains scanned: 169; with a 1-set or 3-set: 103; "
                       "size-4 classes: 4 (expected 4)\n"
                       "FAIL\n")

    def test_selection_failure_fails_the_audit(self, cli, monkeypatch):
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
        code, out, _ = cli("verify normalization --n 3 --format json")
        assert code == 1 and json.loads(out)["match"] is False

    @pytest.mark.parametrize("line, message", [pytest.param(*r, id=r[0]) for r in (
        ("verify theorem-1.4", "the following arguments are required: --n"),
        ("verify lemma-3.15 --n 9", "unrecognized arguments: --n 9"),
        ("verify lemma-3.15 --workers 1", "unrecognized arguments: --workers 1"),
        ("verify lemma-3.15 --budget-seconds 5",
         "unrecognized arguments: --budget-seconds 5"),
        ("verify theorem-1.4 --n 3 --workers -5",
         "unrecognized arguments: --workers -5"),
        ("verify theorem-1.5 --n 3 --workers 1",
         "unrecognized arguments: --workers 1"),
        ("verify normalization --n 3 --budget-seconds 5",
         "unrecognized arguments: --budget-seconds 5"),
    )])
    def test_option_the_target_never_reads_is_usage(self, cli, line, message):
        code, out, err = cli(line)
        assert code == 2 and out == ""
        assert err.endswith(f": error: {message}\n")

    def test_target_help_lists_only_its_options(self, cli):
        code, out, _ = cli("verify theorem-1.4 --help")
        assert code == 0
        assert "--budget-seconds" in out and "--workers" not in out


class TestSweepCommand:
    def test_defaults_match_the_benchmark_pins(self, cli, monkeypatch):
        # the benchmark's checks pin each default sweep's instance count;
        # load them by path, writing no bytecode beside them
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location(
            "perfbench_checks", REPO_ROOT / "perfbench" / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        for target in ("lemma-3.8", "lemma-3.14"):
            code, out, _ = cli(f"sweep {target} --format json")
            assert code == 0
            assert json.loads(out)["instances"] == checks.sweep_instances(target)


class TestExactOutput:
    """Whole exit code, stdout and stderr, one table per exit status."""

    @pytest.mark.parametrize("line, expected, files", [
        row("order list 4 2", "{1,2}\n{1,3}\n{2,3}\n{1,4}\n{2,4}\n{3,4}\n"),
        row("order list 5 3 --first 2", "{1,2,3}\n{1,2,4}\n"),
        row("order list 4 2 --last 1", "{3,4}\n"),
        row("order list 3 2 --format json",
            '{"n": 3, "k": 2, "sets": [[1, 2], [1, 3], [2, 3]]}\n'),
        # the text twin of the json row below
        row("shadow 5 3 --first 5",
            "{1,2}\n{1,3}\n{2,3}\n{1,4}\n{2,4}\n{3,4}\n{1,5}\n{2,5}\n"),
        row("shadow 5 3 --first 5 --format json",
            '{"n": 5, "size": 8, "sets": [[1, 2], [1, 3], [2, 3], [1, 4], '
            '[2, 4], [3, 4], [1, 5], [2, 5]]}\n'),
        row("shade 4 2 --last 1 --new", "{1,3,4}\n{2,3,4}\n"),
        row("shadow --family fam.txt", "{1,2}\n{1,3}\n{2,3}\n", FAM),
        row("cascade 5 3", "C(4,3)+C(2,2)\n"),
        row("cascade 5 3 --format json",
            '{"m": 5, "k": 3, "terms": [[4, 3], [2, 2]]}\n'),
        row("table1",
            "m  last_set  new_shade  shade_size  bound\n"
            "1  34        134 234    2           5/3\n"
            "2  24        124        3           7/3\n"
            "3  14        -          3           3\n"
            "4  23        123        4           11/3\n"
            "5  13        -          4           13/3\n"
            "6  12        -          4           5\n"),
        row("table1 --format csv",
            "m,last_set,new_shade,shade_size,lemma_1_9_bound_num,"
            "lemma_1_9_bound_den\n"
            "1,34,134 234,2,5,3\n"
            "2,24,124,3,7,3\n"
            "3,14,-,3,3,1\n"
            "4,23,123,4,11,3\n"
            "5,13,-,4,13,3\n"
            "6,12,-,4,5,1\n"),
        row("table1 --format json",
            '[{"m": 1, "last_set": [3, 4], "new_shade": [[1, 3, 4], [2, 3, '
            '4]], "shade_size": 2, "bound": [5, 3]}, {"m": 2, "last_set": '
            '[2, 4], "new_shade": [[1, 2, 4]], "shade_size": 3, "bound": [7, '
            '3]}, {"m": 3, "last_set": [1, 4], "new_shade": [], "shade_size": '
            '3, "bound": [3, 1]}, {"m": 4, "last_set": [2, 3], "new_shade": '
            '[[1, 2, 3]], "shade_size": 4, "bound": [11, 3]}, {"m": 5, '
            '"last_set": [1, 3], "new_shade": [], "shade_size": 4, "bound": '
            '[13, 3]}, {"m": 6, "last_set": [1, 2], "new_shade": [], '
            '"shade_size": 4, "bound": [5, 1]}]\n'),
        row("lemmas check --id 3.13 --max 20",
            "id    limit  instances  violations  status\n"
            "3.13  20     19         0           pass\n"),
        # the aligned text table; the csv row below is its twin
        row("lemmas check",
            "id    limit  instances  violations  status\n"
            "3.2   40     820        0           pass\n"
            "3.3   40     820        0           pass\n"
            "3.4   20     2470       0           pass\n"
            "3.5   30     961        0           pass\n"
            "3.6   30     29         0           pass\n"
            "3.7   25     78         0           pass\n"
            "3.10  20     2869       0           pass\n"
            "3.11  20     2660       0           pass\n"
            "3.12  20     190        0           pass\n"
            "3.13  20     19         0           pass\n"),
        row("lemmas check --id 3.6 --format json",
            '[{"id": "3.6", "description": "sum_{r<=j} term_gain(j-2+r,r) == 1",'
            ' "limit": 30, "instances": 29, "violations": [], "passed": true}]\n'),
        row("lemmas check --format csv",
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
        row("normalize --family up.txt",
            "step 1: up from rank 1: removed {1}; inserted {1,2}\n"
            "final:\nn=4\n{1,2}\n{2,3,4}\n",
            {"up.txt": "n=4\n{1}\n{2,3,4}\n"}),
        row("normalize --family band.txt", "no steps needed\nfinal:\nn=4\n{1,2}\n",
            {"band.txt": "n=4\n{1,2}\n"}),
        row("normalize --family f.txt --partner g.txt --format json",
            '{"ok": true, "steps": [{"direction": "up", "rank": 1, '
            '"removed": [[1]], "inserted": [[1, 2]]}, {"direction": "up", '
            '"rank": 2, "removed": [[1, 2]], "inserted": [[1, 2, 3]]}], '
            '"final": [[1, 2, 3]]}\n',
            {"f.txt": "n=5\n{1}\n", "g.txt": "n=5\n{1,4,5}\n"}),
        # n=13 needs steps both ways; the final sets {1..7}, {1..6,8} and
        # {4..11} have ranks 7, 7 and 8, inside the middle band [7, 8],
        # and keep the family's size
        row("normalize --family n13.txt",
            "step 1: up from rank 1: removed {1}; inserted {1,2}\n"
            "step 2: up from rank 2: removed {1,2} {2,3}; "
            "inserted {1,2,3} {1,2,4}\n"
            "step 3: up from rank 3: removed {1,2,3} {1,2,4}; "
            "inserted {1,2,3,4} {1,2,3,5}\n"
            "step 4: up from rank 4: removed {1,2,3,4} {1,2,3,5}; "
            "inserted {1,2,3,4,5} {1,2,3,4,6}\n"
            "step 5: up from rank 5: removed {1,2,3,4,5} {1,2,3,4,6}; "
            "inserted {1,2,3,4,5,6} {1,2,3,4,5,7}\n"
            "step 6: up from rank 6: removed {1,2,3,4,5,6} {1,2,3,4,5,7}; "
            "inserted {1,2,3,4,5,6,7} {1,2,3,4,5,6,8}\n"
            "step 7: down from rank 10: removed {4,5,6,7,8,9,10,11,12,13}; "
            "inserted {4,5,6,7,8,9,10,11,12}\n"
            "step 8: down from rank 9: removed {4,5,6,7,8,9,10,11,12}; "
            "inserted {4,5,6,7,8,9,10,11}\n"
            "final:\nn=13\n{1,2,3,4,5,6,7}\n{1,2,3,4,5,6,8}\n"
            "{4,5,6,7,8,9,10,11}\n",
            {"n13.txt": "n=13\n{1}\n{2,3}\n{4,5,6,7,8,9,10,11,12,13}\n"}),
        row("verify theorem-1.4 --n 4",
            "n=4  optimum=10  formula=10\n"
            "optimal pair classes: 2\n"
            "PASS\n"),
        row("verify theorem-1.6 --n 4",
            "n=4  optimum=10  formula=10\n"
            "near-optimal ordered pairs: expected 20, found 20\n"
            "PASS\n"),
        row("verify lemma-3.15",
            "antichains scanned: 168; with a 1-set or 3-set: 102; "
            "size-4 classes: 4 (expected 4)\n"
            "PASS\n"),
        row("verify lemma-3.15 --format json",
            '{"scanned": 168, "eligible": 102, "oversize": 0, '
            '"classes_found": 4, "match": true}\n'),
        row("verify normalization --n 3",
            "n=3: 90 crossing pairs, 45 moved, 0 selection failures, "
            "0 violations\n"
            "PASS\n"),
        row("verify normalization --n 3 --format json",
            '{"n": 3, "antichains": 20, "crossing_pairs": 90, '
            '"moved_pairs": 45, "selection_failures": 0, "violations": 0, '
            '"match": true}\n'),
        row("sweep lemma-3.8 --max-n 9",
            "shadow-excess: 111 instances, 0 violations\nPASS\n"),
        row("sweep lemma-3.14 --max-n 6",
            "last-shade-margin: 18 instances, 0 violations\n"
            "  note: n=4, m=3 is an exact tie (|shade|=3 equals the bound)\n"
            "PASS\n"),
        row("sweep lemma-3.14 --max-n 10 --format json",
            '{"name": "last-shade-margin", "instances": 336, '
            '"violations": [], "notes": ["n=4, m=3 is an exact tie '
            '(|shade|=3 equals the bound)"], "passed": true}\n'),
    ])
    def test_passing_run(self, cli, line, expected, files):
        assert cli(line, files) == (0, expected, "")

    @pytest.mark.parametrize("line, expected, files", [
        row("order list 4 2 --first 1 --last 1",
            "error: --first and --last are mutually exclusive\n"),
        row("order list 4 9", "error: level 9 out of range for n=4\n"),
        row("shadow", "error: give either --family or both n and k\n"),
        row("shadow 5 3 --first 2 --last 3",
            "error: --first and --last are mutually exclusive\n"),
        row("shade --family fam.txt --last 1",
            "error: --family and --last are mutually exclusive\n", FAM),
        # the file's n=4 family would be used with the 5 and 3 ignored
        *(row(f"{command} {positional} --family fam.txt",
              "error: --family and positional n and k are mutually exclusive\n",
              FAM)
          for command in ("shadow", "shade") for positional in ("5 3", "5")),
        # the message names the count given, not the window it would cut
        *(row(f"shade 4 2 {flag} {m}", f"error: m={m} out of range for C(4,2)=6\n")
          for flag, m in (("--last", "99"), ("--first", "-1"), ("--first", "7"))),
        row("shadow --family repeat.txt",
            "error: family members must be pairwise distinct\n",
            {"repeat.txt": "n=4\n{1,2}\n{2,1}\n"}),
        # the message quotes the set as written, not its mask 16
        row("shadow --family outside.txt",
            "error: set {5} uses elements outside 1..4\n",
            {"outside.txt": "n=4\n{1}\n{5}\n"}),
        row("shadow --family x.txt", "error: cannot parse set literal: '{1,2,x}'\n",
            {"x.txt": "n=4\n{1,2,x}\n"}),
        row("cascade 0 3", "error: cascade representation needs m >= 1, got 0\n"),
        # a check that ran over no instance must not print pass
        row("lemmas check --id 9.9",
            "error: unknown check id '9.9'; known: 3.2, 3.3, 3.4, 3.5, 3.6, "
            "3.7, 3.10, 3.11, 3.12, 3.13\n"),
        row("lemmas check --max 1", "error: check 3.4 has no instance up to limit 1\n"),
        row("lemmas check --id 3.7 --max 2",
            "error: check 3.7 has no instance up to limit 2\n"),
        # a family file that is not there: the OSError branch of main
        row("shadow --family nope.txt",
            "error: [Errno 2] No such file or directory: 'nope.txt'\n"),
        row("normalize --family chain.txt",
            "error: input family is not an antichain\n",
            {"chain.txt": "n=4\n{1}\n{1,2}\n"}),
        # the compact line 112 must not be read as {1,2}
        row("normalize --family 112.txt", "error: set repeats an element: 1\n",
            {"112.txt": "n=4\n112\n"}),
        row("verify theorem-1.5 --n 4",
            "error: theorem-1.5 concerns odd ground sizes n >= 3\n"),
        row("verify theorem-1.5 --n 1",
            "error: theorem-1.5 concerns odd ground sizes n >= 3\n"),
        row("verify theorem-1.6 --n 5",
            "error: theorem-1.6 concerns even ground sizes n >= 4\n"),
        row("verify theorem-1.6 --n 2",
            "error: theorem-1.6 concerns even ground sizes n >= 4\n"),
        *(row(f"verify theorem-1.4 --n {n}",
              f"error: census supports 1 <= n <= 6, got {n}\n")
          for n in ("-1", "0", "7")),
        row("verify theorem-1.4 --n 3 --budget-seconds -1",
            "error: budget must be >= 0 seconds, got -1.0\n"),
        row("verify theorem-1.4 --n 3 --budget-seconds nan",
            "error: budget must be >= 0 seconds, got nan\n"),
        row("verify normalization --n 3 --workers 0",
            "error: worker count must be >= 1, got 0\n"),
        row("sweep lemma-3.8 --max-n 15",
            "error: supported n_max range is 3..13 (odd levels only)\n"),
        row("sweep lemma-3.8 --max-n 0",
            "error: supported n_max range is 3..13 (odd levels only)\n"),
        row("sweep lemma-3.14 --max-n 0", "error: supported n_max range is 6..12\n"),
    ])
    def test_usage_error(self, cli, line, expected, files):
        assert cli(line, files) == (2, "", expected)

    @pytest.mark.parametrize("n, optimum", [(5, 20), (6, 35)])
    def test_budget_cut_census(self, cli, n, optimum):
        # a census cut by its budget refutes nothing: INCOMPLETE, not FAIL
        assert cli(f"verify theorem-1.4 --n {n} --budget-seconds 0") == (
            3,
            f"n={n}  optimum={optimum}  formula={optimum}\n"
            "optimal pair classes: 0\n"
            "INCOMPLETE\n",
            "search budget exhausted; results are partial\n")

    def test_lemmas_violation_lines(self, cli, monkeypatch):
        from sperner import differences
        monkeypatch.setattr(differences, "term_gain", lambda n, r: 0)
        assert cli("lemmas check --id 3.3 --max 2") == (
            1,
            "id   limit  instances  violations  status\n"
            "3.3  2      3          2           FAIL\n"
            "  violation 3.3: (2, 1)\n"
            "  violation 3.3: (2, 2)\n",
            "")

    def test_sweep_violation_lines(self, cli, monkeypatch):
        from sperner import cascade
        real = cascade.kkt_shadow_bound
        monkeypatch.setattr(cascade, "kkt_shadow_bound",
                            lambda m, k: real(m, k) - 1)
        assert cli("sweep lemma-3.8 --max-n 3") == (
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
            proc = run_python("-m", "sperner.cli", "lemmas", "check",
                              "--format", "json", stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == ""
