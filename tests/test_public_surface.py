"""Every name the package defines is used by the package or the benchmark.

A function, class or method that only tests call is surface nobody runs: it
either goes, or moves to `tests/helpers.py` as test-side code.  A name
counts as used when code in `src/` (`__init__.py`'s exports aside) or in
`bench/` refers to it: a function or class as a bare name, an imported name
or a module attribute, a method as an attribute only, so that a local
variable of the same name does not count.  The benchmark's strings count as
attributes too, since `bench/tracer.py` names what it wraps by string.
Definitions, docstrings and comments are not uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitcode"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# test-facing constructors, each with dozens of test call sites
EXEMPT = {
    "staged_oracle": "builds a StagedOracle from stage objects",
    "coding_condition": "builds a coding Condition from target bits, map and words",
    "dagger_condition": "builds a dagger Condition from target bits, map and words",
}


def _trees(paths):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)]


def _defined(trees) -> tuple[set[str], set[str]]:
    """(names defined outside any class body, names defined as methods), dunders aside."""
    methods = {
        id(member)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, DEFS)
    }
    free, bound = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, DEFS) and not re.fullmatch(r"__\w+__", node.name):
                (bound if id(node) in methods else free).add(node.name)
    return free, bound


def _referenced(trees, strings: bool) -> tuple[set[str], set[str]]:
    """(bare and imported names, attribute names and, with strings, string words)."""
    names, attrs = set(), set()
    for tree in trees:
        prose = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and id(node) not in prose:
                attrs.update(re.findall(r"\w+", str(node.value)))
    return names, attrs


def test_every_package_name_is_used_outside_the_tests():
    code = _trees(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    free, bound = _defined(code)
    src_names, src_attrs = _referenced(code, strings=False)
    bench_names, bench_attrs = _referenced(_trees((ROOT / "bench").glob("*.py")), strings=True)
    attrs = src_attrs | bench_attrs
    used = (free & (src_names | bench_names)) | attrs
    assert sorted((free | bound) - used - set(EXEMPT)) == []


def test_every_exemption_names_a_defined_name():
    free, _ = _defined(_trees(PACKAGE.glob("*.py")))
    assert set(EXEMPT) <= free
