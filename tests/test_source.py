"""Source-level rules for the package itself."""

import ast
import importlib
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import checkout_env

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sperner"


def test_no_assert_statements():
    # python -O strips assert statements and `if __debug__:` blocks, and
    # nothing else, so with neither in the package -O runs the same code;
    # an invariant the program relies on must be an explicit raise
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []


def test_bits_is_the_one_set_bit_decoder():
    # ground._bits decodes set bits in C; a module that calls bin() itself
    # is a second decoder, with its own handling of negative masks
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths if path.name != "ground.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "bin"]
    assert found == []


def test_tests_import_only_the_test_toolchain():
    # tier-1 needs pytest and jsonschema and nothing else outside the
    # standard library, so a property test must cover its range itself
    allowed = set(sys.stdlib_module_names) | {"pytest", "jsonschema",
                                              "sperner", "conftest"}
    paths = sorted(Path(__file__).parent.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_readme_module_table_matches_the_package():
    # one short row per module, so a module added or removed shows in the
    # README, and how a module works stays in its docstrings
    section = (ROOT / "README.md").read_text().split("## What's inside\n")[1]
    rows = [line.split("|")[1:3] for line in section.split("\n## ")[0].splitlines()
            if line.startswith("|")][2:]
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert sorted(name.strip() for name, _ in rows) == [
        f"`sperner.{m}`" for m in modules]
    assert [name for name, what in rows if len(what.split()) > 25] == []


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
    result = subprocess.run([sys.executable, "-c", probe],
                            env=checkout_env(), capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


LAYERS = ("ground", "squashed", "cascade", "differences", "normalize",
          "parallel", "verifier")


@lru_cache(maxsize=None)
def _loaded_by_cli_import() -> frozenset[str]:
    """The modules a fresh interpreter holds once it imports sperner.cli
    and then runs every layer module, as some command does."""
    return frozenset(_fresh("import importlib, sys, sperner.cli\n"
                            f"for name in {LAYERS!r}:\n"
                            "    importlib.import_module('sperner.' + name)\n"
                            "print(*sys.modules)").split())


@pytest.mark.parametrize("argv, layers", [
    ((), ""),
    (("verify", "theorem-1.4", "--n", "3"), "ground verifier"),
    (("lemmas", "check", "--id", "3.2"), "differences"),
    (("sweep", "lemma-3.8", "--max-n", "3"), "ground squashed cascade verifier"),
    (("verify", "normalization", "--n", "2"),
     "ground squashed cascade normalize parallel verifier"),
    (("shadow", "4", "2", "--first", "2"), "ground squashed cascade"),
], ids=["import", "census", "lemma-check", "sweep", "audit", "shadow"])
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


def test_layers_are_bound_at_the_top():
    # a module binds the layers it calls at its top and calls through
    # them, so the lazy registry in sperner/__init__ alone decides when a
    # layer runs, and a relative import inside a function would be a
    # second, hand-placed copy of that rule
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = sorted({f"{path.name}:{node.lineno}"
                    for path in paths
                    for func in ast.walk(ast.parse(path.read_text(), str(path)))
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in ast.walk(func)
                    if isinstance(node, ast.ImportFrom) and node.level})
    assert found == []


def test_every_layer_is_registered():
    # the lazy start and the tracer's sys.modules lookups need every layer
    # registered lazily, so __all__ names each module of src/sperner but
    # cli, and no other name
    import sperner
    modules = sorted(p.stem for p in SRC.glob("*.py")
                     if p.stem not in ("__init__", "cli"))
    assert sorted(sperner.__all__) == modules


def test_package_serves_its_layers_unrun():
    # every public name lives in its layer, so the package's namespace is
    # the seven lazy modules, and reading them through it runs none
    probe = "\n".join([
        "import sys, types",
        "star = {}",
        "exec('from sperner import *', star)",
        "del star['__builtins__']",
        "print(*sorted(star))",
        "print(all(module is sys.modules['sperner.' + name]",
        "          and type(module) is not types.ModuleType",
        "          for name, module in star.items()))",
        "import sperner",
        "try:",
        "    sperner.no_such_name",
        "except AttributeError:",
        "    print('AttributeError')"])
    assert _fresh(probe).split("\n") == [" ".join(sorted(LAYERS)), "True",
                                         "AttributeError"]


@pytest.mark.parametrize("module", [
    # the pool machinery loads only when a run asks for workers, so a
    # plain CLI start does not pay for multiprocessing, pickle and socket
    "concurrent.futures",
    # dataclasses imports inspect, ast, dis and tokenize, and compiles the
    # methods it generates when each record class is defined, which every
    # CLI start would pay; the records are NamedTuples instead
    "dataclasses",
    # fractions imports decimal and numbers; only damped_term_gain, the
    # shade table and the local counting bounds build a Fraction, so they
    # import it when they run
    "fractions",
])
def test_cli_import_skips(module):
    assert module not in _loaded_by_cli_import()


def test_lemma_checks_skip_fractions():
    # the catalogue compares integers, so running all of it loads no
    # fractions module
    probe = "\n".join([
        "import contextlib, io, sys, sperner.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert sperner.cli.main(['lemmas', 'check']) == 0",
        "print('fractions' in sys.modules)"])
    assert _fresh(probe) == "False"


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
