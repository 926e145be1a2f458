"""Every imported name is used, and every public definition has a caller.

No linter runs on this tree, so these tests read each module's syntax tree.
One fails on an import that binds a name the module never reads; the other
on a public top-level ``def`` or ``class`` in ``src/pseudodyn``, or a
public method or property of one of its classes, that no library or
benchmark module reads, unless ``TEST_ONLY`` names it as a test oracle,
fixture or test-only API.  The package ``__init__.py`` is skipped:
its imports are the re-exports, not callers.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "pseudodyn").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, in order of binding."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation reads the names inside its string
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.AnnAssign, ast.arg)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read |= {n.id for n in ast.walk(ast.parse(ann.value))
                         if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as j\n"
              "from typing import Optional, Callable\n"
              "def f(x: 'Optional[int]'):\n    return os.path.sep\n")
    assert unused_imports(source) == ["j", "Callable"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


TEST_ONLY = {
    "brute_force_separated": "exhaustive subset oracle for separated_count",
    "brute_force_invariant_sets": "exhaustive subset oracle for "
                                  "invariant_sets",
    "raw_word_maps": "undeduplicated word oracle for the closure",
    "crafted_genomes": "fixtures that the five mutants must trip",
    "shift_distance": "the metric behind the shift's brute-force references",
    "invariant_sets": "test-only API: the invariant sets behind is_ergodic",
    "pushforward": "test-only API: a measure carried across an iso",
    "random_instance": "test-only API: one seeded instance of a spec",
    "FiniteMeasure.point_mass": "test-only API: the Dirac measures the "
                                "degenerate-measure tests start from",
}


def public_definitions(source: str) -> list[str]:
    """Public top-level ``def`` and ``class`` names, and ``Class.method``
    for the public methods and properties of every class."""
    names = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not stmt.name.startswith("_"):
            names.append(stmt.name)
        if isinstance(stmt, ast.ClassDef):
            names += [f"{stmt.name}.{m.name}" for m in stmt.body
                      if isinstance(m, ast.FunctionDef)
                      and not m.name.startswith("_")]
    return names


def names_read(source: str) -> set[str]:
    """Names, attribute names and imported names a module reads, except a
    top-level definition's reads of its own name and a method's reads of
    its own name."""
    read = set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            head = stmt.decorator_list + stmt.bases + stmt.keywords
            units = [(m, getattr(m, "name", None)) for m in stmt.body]
            units += [(node, None) for node in head]
        else:
            units = [(stmt, None)]
        for unit, method in units:
            names = set()
            for node in ast.walk(unit):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
            names -= {getattr(stmt, "name", None), method}
            read |= names
    return read


def test_names_read_skip_a_definitions_own_name():
    source = ("from a import used\nb.Report\n"
              "def alone():\n    return alone()\nclass Report:\n    pass\n")
    assert names_read(source) == {"used", "b", "Report"}
    assert public_definitions(source + "def _private():\n    pass\n") \
        == ["alone", "Report"]
    source = ("@dataclass\nclass Row(Base):\n"
              "    def again(self):\n        return self.again()\n"
              "    def other(self):\n        return self.again()\n"
              "    def _hidden(self):\n        return Row\n")
    assert names_read(source) == {"dataclass", "Base", "self", "again"}
    assert public_definitions(source) == ["Row", "Row.again", "Row.other"]


def test_every_public_definition_has_a_caller():
    """Every public function, class, method and property in
    ``src/pseudodyn`` is read by name in a library or benchmark module, or
    is listed in ``TEST_ONLY``."""
    sources = [p for p in FILES if p.parent.name == "pseudodyn"]
    read = set().union(*(names_read(p.read_text()) for p in
                         sources + sorted((ROOT / "perfbench").glob("*.py"))))
    defined = {f"{p.name}:{name}": name for p in sources
               for name in public_definitions(p.read_text())}
    assert [key for key, name in defined.items()
            if name.split(".")[-1] not in read and name not in TEST_ONLY] == []
    # an entry whose definition is gone leaves the set
    assert set(TEST_ONLY) <= set(defined.values())
