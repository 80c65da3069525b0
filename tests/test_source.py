"""Source-level rules for the package itself."""

import ast
import importlib
import inspect
import shlex
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import run_python

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


def test_parallel_is_the_one_process_pool():
    # parallel_map's pool forks so that workers inherit the caller's
    # tables; a module with its own pool or start method is a second path
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        if path.name == "parallel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            elif isinstance(node, ast.Call):
                func = node.func
                names = [getattr(func, "id", getattr(func, "attr", ""))]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("get_context", "set_start_method")
                      or name.startswith(("multiprocessing",
                                          "concurrent.futures"))]
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


def test_walk_enumerators_are_generator_functions():
    # the tracer counts verifier.antichains as the items of a generator
    # function; a plain function returning an iterator would count none,
    # and only a traced benchmark round would show it
    from sperner import verifier

    assert inspect.isgeneratorfunction(verifier.antichain_mask_tuples)
    assert inspect.isgeneratorfunction(verifier.enumerate_antichains)


def _fresh(probe: str) -> str:
    """What a fresh interpreter with this checkout's sources prints for
    the Python source probe."""
    proc = run_python("-c", probe, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LAYERS = ("ground", "squashed", "cascade", "differences", "normalize",
          "parallel", "verifier")

HEAVY = (
    # the pool machinery loads only when a run asks for workers, so a
    # plain CLI start does not pay for multiprocessing, pickle and socket
    "concurrent.futures",
    # dataclasses imports inspect, ast, dis and tokenize, and compiles the
    # methods it generates when each record class is defined, which every
    # CLI start would pay; the records are NamedTuples instead
    "dataclasses",
    # fractions imports decimal and numbers; only damped_term_gain, the
    # shade table and the local counting bounds build a Fraction, so they
    # import it when they run, and the integer lemma catalogue does not
    "fractions",
)


def start(line):
    """A start-up row's source: the command line run in-process after the
    import."""
    return ("with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert sperner.cli.main({shlex.split(line)!r}) == 0")


# name: (source, the layers that ran, the HEAVY modules that loaded)
STARTS = {
    "import": ("", "", ""),
    "every-layer": (f"for name in {LAYERS!r}:\n"
                    "    importlib.import_module('sperner.' + name)",
                    " ".join(LAYERS), ""),
    "census": (start("verify theorem-1.4 --n 3"), "ground verifier", ""),
    "lemma-check": (start("lemmas check"), "differences", ""),
    "sweep": (start("sweep lemma-3.8 --max-n 3"),
              "ground squashed cascade verifier", ""),
    "audit": (start("verify normalization --n 2"),
              "ground squashed cascade normalize parallel verifier", ""),
    "shadow": (start("shadow 4 2 --first 2"), "ground squashed cascade", ""),
    # the shade table's bounds are Fractions: the probe sees a heavy module
    "table1": (start("table1"), "ground squashed cascade", "fractions"),
}


@lru_cache(maxsize=None)
def _started(name: str) -> str:
    """The probe's report for the start-up row name: the layers that ran
    on one line, and the HEAVY modules that loaded on the next."""
    # the package registers each layer lazily, and a lazy module turns
    # into a plain module when it first runs, so a layer whose type is
    # still the lazy one was neither compiled nor executed
    return _fresh("\n".join([
        "import contextlib, importlib, io, sys, types, sperner.cli",
        STARTS[name][0],
        f"print(*(n for n in {LAYERS!r}",
        "        if type(sys.modules.get('sperner.' + n)) is types.ModuleType))",
        f"print(*(m for m in {HEAVY!r} if m in sys.modules))"]))


@pytest.mark.parametrize("name", STARTS)
def test_a_start_runs_only_the_layers_its_command_calls(name):
    _, layers, heavy = STARTS[name]
    assert _started(name) == f"{layers}\n{heavy}\n"


@pytest.mark.parametrize("module", HEAVY)
def test_cli_import_skips(module):
    # a CLI start that runs every layer module, as some command does,
    # loads none of the heavy modules
    assert module not in _started("every-layer").split("\n")[1].split()


def test_lemma_checks_skip_fractions():
    # the catalogue compares integers, so running all of it loads no
    # fractions module
    assert "fractions" not in _started("lemma-check").split("\n")[1].split()


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
    assert _fresh(probe) == f"{' '.join(sorted(LAYERS))}\nTrue\nAttributeError\n"


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
