"""Source hygiene: every module-level import of the package is used, no
package import hides inside a function, every definition is referenced
from the package itself, only `exactmath` tells the fields apart by
class, every function the benchmark's tracer wraps exists, and every
recorded benchmark comparison is machine-readable."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import bimodulus

PACKAGE = Path(bimodulus.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def tracer_targets():
    """(module, class or None, attribute) of every function in the TARGETS
    of `bench/tracing.py`, read without installing the tracer."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(mod, cls, attr) for _, mod, cls, attr in tracing.TARGETS]


def test_every_tracer_target_resolves():
    # the tracer looks each target up with no default; a renamed function
    # would make `bench/run.py --trace 1` fail
    missing = []
    for mod, cls, attr in tracer_targets():
        owner = importlib.import_module(f"bimodulus.{mod}")
        if cls is not None:
            owner = vars(owner).get(cls)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append((mod, cls, attr))
    assert missing == []


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


def nested_relative_imports(source):
    """Line numbers of package-relative imports made anywhere but at module
    level, as (line, module) pairs."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted((node.lineno, node.module) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level and id(node) not in top)


def test_the_scan_finds_a_function_level_import():
    src = "from .a import b\ndef f():\n    from .c import d\n    from os import path\n    return d\n"
    assert nested_relative_imports(src) == [(3, "c")]


def test_no_function_level_package_imports():
    # no import cycle needs one, so every package import sits at the top
    found = {path.name: nested for path in sorted(PACKAGE.glob("*.py"))
             for nested in [nested_relative_imports(path.read_text())] if nested}
    assert found == {}


FIELD_CLASSES = {"PrimeField", "RationalField", "QuadExtField"}


def field_forks(source):
    """(line, name) of each `isinstance` test on a field class and each
    import of `FpElt`: the places a module chooses a field's
    representation itself instead of asking the field (`modulus`, `ints`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            found += [(node.lineno, name) for name in sorted(names & FIELD_CLASSES)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, "FpElt") for alias in node.names
                      if alias.name.rsplit(".", 1)[-1] == "FpElt"]
    return sorted(found)


def test_the_scan_finds_a_field_fork():
    src = (
        "from .exactmath import FpElt, QQ, PrimeField\n"
        "def f(F, x):\n"
        "    if isinstance(F, (PrimeField, int)):\n"
        "        return x.v\n"
        "    return isinstance(x, int) or isinstance(F, exactmath.QuadExtField)\n"
        "def g(F):\n"
        "    return PrimeField(5) == F\n"
    )
    assert field_forks(src) == [(1, "FpElt"), (3, "PrimeField"), (5, "QuadExtField")]


def test_only_exactmath_tells_the_fields_apart_by_class():
    found = {path.name: forks for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "exactmath.py"
             for forks in [field_forks(path.read_text())] if forks}
    assert found == {}


# Definitions the package reaches without naming them in code: the
# descriptor validators, which `Descriptor.__init__` looks up by `getattr`;
# and the functions `bench/tracing.py` wraps, which it resolves by name.
UNREFERENCED_ON_PURPOSE = {
    "Descriptor._check_split_pair",
    "Descriptor._check_non_reduced",
    "Descriptor._check_integral",
    "Descriptor._check_reducible",
    "Descriptor._check_two_lines",
} | {attr if cls is None else f"{cls}.{attr}" for _, cls, attr in tracer_targets()}


def definitions(source):
    """Top-level functions and classes, and methods as `Class.method`;
    dunder methods are called implicitly and are left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out.extend(f"{node.name}.{sub.name}" for sub in node.body
                       if isinstance(sub, ast.FunctionDef)
                       and not (sub.name.startswith("__") and sub.name.endswith("__")))
    return out


def referenced_names(source):
    """Every name read as a variable or an attribute.  Methods are matched
    by attribute name alone, so this can only miss a dead method, never
    flag a live one."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_the_scan_finds_an_unreferenced_definition():
    src = (
        "class A:\n"
        "    def f(self):\n"
        "        return g()\n"
        "    def h(self):\n"
        "        pass\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def g():\n"
        "    return A().f\n"
    )
    assert definitions(src) == ["A", "A.f", "A.h", "g"]
    read = referenced_names(src)
    assert [d for d in definitions(src) if d.rsplit(".", 1)[-1] not in read] == ["A.h"]


def test_every_definition_is_referenced_from_the_package():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    read = set().union(*map(referenced_names, sources))
    exempt = UNREFERENCED_ON_PURPOSE | set(bimodulus.__all__)
    unreferenced = sorted(
        name for src in sources for name in definitions(src)
        if name.rsplit(".", 1)[-1] not in read and name not in exempt)
    assert unreferenced == []


BENCH_METRICS = ("ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb")


def test_every_bench_record_has_the_common_shape():
    # BENCH_<n>.json files record parent/change pairs of bench/run.py; one
    # shape lets the performance trajectory be read across changes
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        rec = json.loads(path.read_text())
        for key in ("change", "parent", "machine", "command"):
            assert isinstance(rec.get(key), str), (path.name, key)
        assert {"workload", "metric"} <= set(rec["claim"]), path.name
        assert rec["claim"]["workload"] in rec["workloads"], path.name
        for name, workload in rec["workloads"].items():
            assert workload["pairs"], (path.name, name)
            for pair in workload["pairs"]:
                assert type(pair["seed"]) is int and pair["first"] in ("parent", "change")
                for side in ("parent", "change"):
                    run = pair[side]
                    for metric in BENCH_METRICS:
                        assert isinstance(run[metric], (int, float)), (path.name, name, metric)
