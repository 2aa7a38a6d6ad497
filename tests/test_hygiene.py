"""Source hygiene: every module-level import of the package is used."""

import ast
from pathlib import Path

import bimodulus

PACKAGE = Path(bimodulus.__file__).parent


def unused_imports(source):
    """Names bound by module-level imports that the module never reads;
    `from __future__` imports are not bindings and are skipped."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    src = "from __future__ import annotations\nimport os, sys\nfrom .a import b as c, d\nprint(sys, d)\n"
    assert unused_imports(src) == [(2, "os"), (3, "c")]


def test_no_unused_module_level_imports():
    # __init__.py imports names to re-export them
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for unused in [unused_imports(path.read_text())]
        if unused
    }
    assert found == {}
