"""Module layering: no import deferred into a function body but the one real cycle.

interpret builds its maps on models, while models decides type-D membership
and enumerates every signed family through interpret's inverse bijections, so
models imports interpret at call time.  Every other import sits at module top.
"""

import ast
from pathlib import Path

import coxcat

ALLOWED = {("models", "interpret")}


def _deferred_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                targets = [node.module] if node.module else [a.name for a in node.names]
                for target in targets:
                    yield fn.name, target.split(".")[0]


def test_no_deferred_relative_imports_but_models_to_interpret():
    src = Path(coxcat.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for fn, target in _deferred_imports(path):
            if (path.stem, target) not in ALLOWED:
                found.append(f"{path.name}:{fn} imports {target}")
    assert found == []
