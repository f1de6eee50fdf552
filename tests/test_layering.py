"""Module layering: every relative import sits at module top, and the imports are acyclic.

models holds the unchecked reading of each signed family as its marked class
and back, so it decides type-D membership and enumerates every signed family
without interpret, whose checked maps are built on it.

Values are checked at the edge only: a dataclass constructor trusts its
fields, the classmethod make or from_blocks checks them, and only the JSON
readers and signed's triple route call that classmethod.
"""

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import coxcat

SRC = Path(coxcat.__file__).parent


def _relative_imports(node: ast.AST):
    """The coxcat modules that the relative imports under node name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and sub.level > 0:
            targets = [sub.module] if sub.module else [a.name for a in sub.names]
            yield from (target.split(".")[0] for target in targets)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_no_relative_import_in_a_function_body():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{fn.name} imports {target}" for target in _relative_imports(fn)]
    assert found == []


def test_module_level_imports_are_acyclic():
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        top = [node for node in _tree(path).body if isinstance(node, ast.ImportFrom)]
        graph[path.stem] = {target for node in top for target in _relative_imports(node)}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as e:
        raise AssertionError(f"import cycle: {e.args[1]}") from None


def test_type_d_membership_and_enumeration_do_not_load_interpret():
    script = (
        "import sys, coxcat\n"
        "p = coxcat.SignedPartition.from_blocks([[1, 2], [-2, -1], [3], [-3]])\n"
        "assert coxcat.is_member(p, 'nc_d')\n"
        "assert len(coxcat.enumerate_family('nn_d', 4)) == coxcat.count_family('nn_d', 4)\n"
        "print('coxcat.interpret' in sys.modules)\n"
    )
    assert _fresh_stdout(script) == "False"


def test_importing_the_cli_loads_no_process_pool():
    # only verify --jobs N with N > 1 opens a pool; every other command and import goes without one
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import coxcat.cli\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith(('concurrent.futures', 'multiprocessing'))))\n"
    )
    assert _fresh_stdout(script) == "[]"


def _fresh_stdout(script: str) -> str:
    """The stripped stdout of script, run in a new interpreter that imports coxcat from SRC."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


# The callers of the checked constructors, as module[.class].function.
CHECKED_CONSTRUCTOR_CALLERS = {
    *(
        f"jsonio.{kind}_from_obj"
        for kind in ("_partition", "marked_pair", "marked_triple", "path", "tableau", "_pair")
    ),
    "models.MarkedTriple.make",  # checks the pair through MarkedPair.make
    "signed.compose_triple",
}


def _checked_constructor_callers(node: ast.AST, scope: str):
    """The scopes under node that call a method named make or from_blocks."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr in ("make", "from_blocks"):
            yield scope
        yield from _checked_constructor_callers(child, inner)


def test_only_the_json_readers_and_the_triple_route_call_the_checked_constructors():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(_checked_constructor_callers(_tree(path), path.stem))
    assert found == CHECKED_CONSTRUCTOR_CALLERS
