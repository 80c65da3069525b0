"""Source-level rules for the package itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sperner"


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant the program
    # relies on must be an explicit raise
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_tracer_entry_points_exist():
    # the traced benchmark looks these names up on the package, so a
    # rename or deletion would break only its traced runs, outside tier-1
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    entry_points = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "ENTRY_POINTS"
                for t in node.targets))
    assert entry_points
    missing = [f"{module}.{name}"
               for module, names in entry_points.items()
               for name in names
               if not hasattr(importlib.import_module(f"sperner.{module}"), name)]
    assert missing == []


def _fresh(probe: str) -> str:
    """What a fresh interpreter with this checkout's sources prints for
    the Python source probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


LAYERS = ("ground", "squashed", "cascade", "differences", "normalize",
          "parallel", "verifier")


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter holds module once it imports sperner.cli
    and then runs every layer module, as some command does."""
    return _fresh("import importlib, sys, sperner.cli\n"
                  f"for name in {LAYERS!r}:\n"
                  "    importlib.import_module('sperner.' + name)\n"
                  f"print({module!r} in sys.modules)") == "True"


@pytest.mark.parametrize("argv, layers", [
    ((), ""),
    (("verify", "theorem-1.4", "--n", "3"), "ground verifier"),
    (("lemmas", "check", "--id", "3.2"), "differences"),
], ids=["import", "census", "lemma-check"])
def test_a_start_runs_only_the_layers_its_command_calls(argv, layers):
    # the package registers each layer lazily, and a lazy module turns
    # into a plain module when it first runs, so a layer whose type is
    # still the lazy one was neither compiled nor executed
    probe = "\n".join([
        "import contextlib, io, sys, types, sperner.cli",
        f"if {list(argv)!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        f"        assert sperner.cli.main({list(argv)!r}) == 0",
        f"print(*(n for n in {LAYERS!r}",
        "        if type(sys.modules.get('sperner.' + n)) is types.ModuleType))"])
    assert _fresh(probe) == layers


# the names `from sperner import *` gave when the package imported every
# layer eagerly
PUBLIC_NAMES = """
    CascadeRep CheckReport Family NormalizationTrace SearchCensus
    SelectionError canonical_family_key canonical_pair canonical_pair_key
    cascade check_all check_lemma complement damped_term_gain differences
    enumerate_antichains first_segment format_family format_set full_level
    ground hockey_stick independent is_antichain is_cross_intersecting
    kkt_shadow_bound last_segment level_masks local_shade_bound
    local_shadow_bound max_cross_sum max_sum_formula middle_band new_shade
    new_shadow normalize normalize_pair normalize_to_middle parallel
    parse_family parse_set push_down_max_rank push_up_min_rank rank
    read_family segment shade shade_of_last_bound shade_table shadow
    squash_compare squashed term_gain unrank verifier""".split()


def test_package_names_resolve_in_their_home_modules():
    # the package serves its names on access, so a renamed or removed
    # function would fail only where it is read; read every one here
    import sperner
    for name, layer in sperner._HOME.items():
        home = importlib.import_module(f"sperner.{layer}")
        assert getattr(sperner, name) is getattr(home, name), name
    star: dict = {}
    exec("from sperner import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(PUBLIC_NAMES)
    for layer in LAYERS:
        if layer != "cascade":
            assert star[layer] is sys.modules[f"sperner.{layer}"]
    # the name cascade is the k-binomial function, not its module
    assert star["cascade"] is sys.modules["sperner.cascade"].cascade
    with pytest.raises(AttributeError, match="no_such_name"):
        sperner.no_such_name


def test_cli_import_skips_process_pool():
    # the pool machinery loads only when a run asks for workers, so a
    # plain CLI start does not pay for multiprocessing, pickle and socket
    assert not _loaded_by_cli_import("concurrent.futures")


def test_cli_import_skips_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, and compiles the
    # methods it generates when each record class is defined, which every
    # CLI start would pay; the records are NamedTuples instead
    assert not _loaded_by_cli_import("dataclasses")


def test_cli_import_skips_fractions():
    # fractions imports decimal and numbers; only the shade table, the
    # local counting bounds and the lemma checks build a Fraction, so
    # they import it when they run
    assert not _loaded_by_cli_import("fractions")


def _writes_stdout(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return (func.value.id, func.attr) in {("json", "dumps"),
                                              ("csv", "writer")}
    if isinstance(func, ast.Name) and func.id == "print":
        return not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                       for kw in call.keywords)
    return False


def test_cli_results_go_through_emit():
    # one writer owns stdout, so the text, JSON and CSV formats are the
    # only things a command prints there
    tree = ast.parse((SRC / "cli.py").read_text())
    writers = {(getattr(node, "name", "<module>"), call.lineno)
               for node in tree.body
               for call in ast.walk(node)
               if isinstance(call, ast.Call) and _writes_stdout(call)}
    assert writers and {name for name, _ in writers} == {"_emit"}
