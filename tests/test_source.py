"""Scans of the package source: every top-level definition in `src/` is used
by `src/` itself, so code that only tests call lives under `tests/`."""

import ast
import pathlib
import re

import fedbalance

# Definitions that no `src/` code names but that stay, with who reads them.
USED_OUTSIDE_SRC = {
    "load_dataset": "benchmarks/run.py times it as the set-up's load phase",
    "load_checkpoint": "the public reader of the model.ckpt files train writes",
    "dp_labelhide": "the one-image mixup API that acceptance criterion 3 calls",
    "sample_laplace": "the Laplace sampler API that acceptance criterion 2 calls",
}


def _names(node) -> set[str]:
    """Every identifier `node` reads, loads an attribute by or imports, and
    every word of its string constants but its docstrings (`workers` names
    the function its child runs in a command string)."""
    docstrings = {id(sub.value) for sub in ast.walk(node) if isinstance(sub, ast.Expr)
                  and isinstance(sub.value, ast.Constant) and isinstance(sub.value.value, str)}
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if id(sub) not in docstrings:
                names.update(re.findall(r"\w+", sub.value))
        elif isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_top_level_definition_is_named_elsewhere_in_src():
    package = pathlib.Path(fedbalance.__file__).parent
    modules = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    defined = [stmt for module in modules.values() for stmt in module.body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    # A definition's own body (a recursive call) does not count as a use, and
    # neither does an import into the package's `__init__.py`.
    named = {}
    for filename, module in modules.items():
        if filename == "__init__.py":
            continue
        for stmt in module.body:
            for name in _names(stmt):
                named.setdefault(name, set()).add(id(stmt))
    unused = {stmt.name for stmt in defined if not named.get(stmt.name, set()) - {id(stmt)}}
    assert sorted(unused) == sorted(USED_OUTSIDE_SRC)
