"""Every imported name is used, and every public definition has a caller.

No linter runs on this tree, so these tests read each module's syntax tree.
One fails on an import that binds a name the module never reads; the other
on a public top-level ``def`` or ``class`` in ``src/pseudodyn``, or a
public method or property of one of its classes, that no library or
benchmark module reads (a method or property as an attribute, not as a
bare name), unless ``TEST_ONLY`` names it as a test oracle,
fixture or test-only API.  A third fails on a private definition there
(a leading underscore, not a dunder) that no library or benchmark module
reads.  A fourth fails on a defaulted parameter of a function or method
there that no library or benchmark call sets, unless ``DEFAULTS_SET_BY_
TESTS`` names it: an option no caller sets changes nothing.  A fifth fails
on an argument rule (a radius, scale or length bound) stated in a raised
message outside ``rational.py``, which owns the three rules.  The package
``__init__.py`` is skipped: its imports are the re-exports, not callers.
"""

import ast
from collections import defaultdict
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


def public_definitions(source: str, private: bool = False) -> list[str]:
    """Public top-level ``def`` and ``class`` names, and ``Class.method``
    for the public methods and properties of every class.  With
    ``private``, the private ones instead: a leading underscore, and not
    a dunder such as ``__init__``, which Python itself calls."""
    def wanted(name):
        if private:
            return name.startswith("_") and not name.endswith("__")
        return not name.startswith("_")

    names = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if wanted(stmt.name):
            names.append(stmt.name)
        if isinstance(stmt, ast.ClassDef):
            names += [f"{stmt.name}.{m.name}" for m in stmt.body
                      if isinstance(m, ast.FunctionDef) and wanted(m.name)]
    return names


def names_read(source: str, attributes_only: bool = False) -> set[str]:
    """Names, attribute names and imported names a module reads, except a
    top-level definition's reads of its own name and a method's reads of
    its own name.  With ``attributes_only``, only the attribute names: a
    method or property is read through an attribute, so a local variable
    spelled like it is no caller."""
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
                if isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif attributes_only:
                    continue
                elif isinstance(node, ast.Name):
                    names.add(node.id)
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


def test_a_local_variable_is_no_caller_of_a_method():
    """A bare name spelled like a method reads the name, not the method."""
    source = ("class Box:\n    def empty(self):\n        return 0\n"
              "def size(box):\n    empty = box.full\n    return empty\n")
    assert names_read(source) == {"box", "full", "empty"}
    assert names_read(source, attributes_only=True) == {"full"}


def unread_definitions(sources: dict[str, str], readers: list[str],
                       private: bool = False) -> list[str]:
    """``file:name`` for each definition in ``sources`` (file name to
    text) that no text of ``readers`` reads: a function or class by name,
    a method or property as an attribute."""
    read = set().union(*map(names_read, readers))
    attributes = set().union(*(names_read(text, attributes_only=True)
                               for text in readers))
    return [f"{path}:{name}" for path, text in sources.items()
            for name in public_definitions(text, private)
            if name not in TEST_ONLY
            and (name.split(".")[-1] not in attributes if "." in name
                 else name not in read)]


def library_and_benchmark_texts() -> tuple[dict[str, str], list[str]]:
    sources = {p.name: p.read_text() for p in FILES
               if p.parent.name == "pseudodyn"}
    benchmark = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return sources, list(sources.values()) + benchmark


def test_every_public_definition_has_a_caller():
    """Every public function and class in ``src/pseudodyn`` is read by
    name in a library or benchmark module, and every public method and
    property is read there as an attribute, or is listed in
    ``TEST_ONLY``."""
    sources, readers = library_and_benchmark_texts()
    assert unread_definitions(sources, readers) == []
    # an entry whose definition is gone leaves the set
    defined = {name for text in sources.values()
               for name in public_definitions(text)}
    assert set(TEST_ONLY) <= defined


def test_every_private_definition_has_a_reader():
    """Every private function, class, method and property in
    ``src/pseudodyn`` has a reader in a library or benchmark module: a
    helper only the tests would call, or none, is an orphan."""
    assert unread_definitions(*library_and_benchmark_texts(),
                              private=True) == []


def test_an_orphaned_private_helper_is_found():
    source = ("def _used():\n    return 1\n"
              "def _orphan():\n    return _orphan()\n"
              "class Box:\n    def __init__(self):\n        self._size()\n"
              "    def _size(self):\n        return _used()\n"
              "    def _stale(self):\n        return 0\n")
    assert public_definitions(source, private=True) \
        == ["_used", "_orphan", "Box._size", "Box._stale"]
    assert unread_definitions({"box.py": source}, [source], private=True) \
        == ["box.py:_orphan", "box.py:Box._stale"]


DEFAULTS_SET_BY_TESTS = {
    "run_suite(extra_genomes)": "the crafted genomes the mutation tests "
                                "run ahead of the seeded stream",
    "run_suite(shrink)": "the mutation tests turn shrinking off, and the "
                         "shrinking test on",
}


def defaulted_parameters(source: str):
    """``(qualified name, call name, implicit self, parameter, position)``
    for each defaulted parameter of a top-level function or of a method of
    a top-level class; ``position`` is None for a keyword-only parameter.
    A constructor is called by its class name, with ``self`` implicit.
    Nested functions are skipped: their defaults bind enclosing values."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef):
            units = [(stmt.name, stmt.name, False, stmt)]
        elif isinstance(stmt, ast.ClassDef):
            units = [(f"{stmt.name}.{m.name}",
                      stmt.name if m.name == "__init__" else m.name,
                      m.name == "__init__", m)
                     for m in stmt.body if isinstance(m, ast.FunctionDef)]
        else:
            continue
        for qualified, callee, implicit, fn in units:
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for k, arg in enumerate(positional[first:], first):
                yield qualified, callee, implicit, arg.arg, k
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield qualified, callee, implicit, arg.arg, None


def calls_by_name(readers: list[str]) -> dict:
    """``name -> [(call, slack)]`` for every call in ``readers``: a call of
    a bare name has no slack, and a call of an attribute one position,
    where ``self`` may be implicit.  A name bound to a name or attribute
    (``raw = PartialMap._raw``, also in a tuple) is an alias of it."""
    calls = defaultdict(list)
    for text in readers:
        tree = ast.parse(text)
        alias = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = [(target, value)]
                if isinstance(target, ast.Tuple) and isinstance(value,
                                                                ast.Tuple):
                    pairs = zip(target.elts, value.elts)
                for t, v in pairs:
                    if isinstance(t, ast.Name) and isinstance(v, ast.Attribute):
                        alias[t.id] = v.attr
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    calls[func.attr].append((node, 1))
                elif isinstance(func, ast.Name):
                    calls[alias.get(func.id, func.id)].append((node, 0))
    return calls


def sets_parameter(call, slack: int, param: str, position) -> bool:
    """Whether ``call`` sets ``param``: by keyword, through ``*`` or
    ``**``, or by position."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) + slack > position


def unset_defaults(sources: dict[str, str], readers: list[str]) -> list[str]:
    """``file:name(parameter)`` for each defaulted parameter in
    ``sources`` that no call in ``readers`` sets."""
    calls = calls_by_name(readers)
    return [f"{path}:{qualified}({param})"
            for path, text in sources.items()
            for qualified, callee, implicit, param, position
            in defaulted_parameters(text)
            if not any(sets_parameter(call, max(slack, implicit), param,
                                      position)
                       for call, slack in calls[callee])]


def test_unset_defaults_are_found():
    source = ("class Box:\n"
              "    def __init__(self, size, fill=0):\n        pass\n"
              "    def put(self, item, *, where=None, how=None):\n"
              "        def inner(v=item):\n            return v\n"
              "def make(n, tag='', strict=False, extra=None):\n"
              "    b = Box(n, 1)\n    put, other = b.put, None\n"
              "    put(n, where=1)\n    make(n, *extra)\n"
              "    return make(n, tag)\n")
    assert unset_defaults({"box.py": source}, [source]) \
        == ["box.py:Box.put(how)"]
    source = source.replace("make(n, *extra)", "make(n, extra=[])")
    assert unset_defaults({"box.py": source}, [source]) \
        == ["box.py:Box.put(how)", "box.py:make(strict)"]


def test_every_default_is_set_by_a_caller():
    """Every defaulted parameter of a function or method in
    ``src/pseudodyn`` is set by some library or benchmark call, or is
    named in ``DEFAULTS_SET_BY_TESTS`` with the reason only tests set
    it."""
    sources, readers = library_and_benchmark_texts()
    unset = unset_defaults(sources, readers)
    assert [name for name in unset
            if name.split(":")[1] not in DEFAULTS_SET_BY_TESTS] == []
    # an entry that a library call sets, or whose parameter is gone,
    # leaves the allowlist
    assert sorted(name.split(":")[1] for name in unset) \
        == sorted(DEFAULTS_SET_BY_TESTS)


# The argument rules (a radius at least 0, a scale positive, a length at
# least 1) are stated in ``rational.py`` alone, by their owners.
RULE_FORMS = ("must be positive", "must be nonnegative", "must be at least")
RULE_FORMS_ALLOWED = {
    ("measure.py", "'weights must be nonnegative'"):
        "a measure's weights are one vector, refused as a whole, and a "
        "weight of 0 is allowed, so neither a scale nor a radius rule",
}


def rule_copies(source: str) -> list[str]:
    """The message argument, as source text, of each ``InputError`` or
    ``PreconditionError`` raised in ``source`` that states an argument
    rule in one of ``RULE_FORMS``."""
    copies = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None)
                in ("InputError", "PreconditionError")):
            copies += [text for text in map(ast.unparse, node.exc.args)
                       if any(form in text for form in RULE_FORMS)]
    return copies


def test_rule_copies_are_found():
    source = ("def f(n, eps):\n    if n < 1:\n"
              "        raise InputError(f'{n} must be at least 1')\n"
              "    if eps <= 0:\n"
              "        raise InputError('scale ' 'must be positive')\n"
              "    raise InputError('unknown mode')\n")
    assert rule_copies(source) == ["f'{n} must be at least 1'",
                                   "'scale must be positive'"]


def test_argument_rules_have_one_owner():
    """No module but ``rational.py`` raises a message in a rule form,
    except once where ``RULE_FORMS_ALLOWED`` gives the reason."""
    found = [(path.name, text) for path in FILES
             if path.parent.name == "pseudodyn" and path.name != "rational.py"
             for text in rule_copies(path.read_text())]
    assert sorted(found) == sorted(RULE_FORMS_ALLOWED)
