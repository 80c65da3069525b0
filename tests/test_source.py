"""Source-level rules for the package itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter holds module once it imports sperner.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    probe = f"import sys, sperner.cli; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip() == "True"


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
