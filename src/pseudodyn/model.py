"""Model-file ingestion: one self-describing JSON document per instance.

Rationals are parsed exactly (decimal literals never become floats), every
module-level invariant is validated at load, and the identity, missing
inverses and their linked cores are completed at load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError
from .measure import FiniteMeasure
from .morphism import SpaceIso
from .pseudogroup import GeneratingSystem, PartialMap
from .space import FiniteMetricSpace

SCHEMA_VERSION = 1


@dataclass
class Model:
    space: FiniteMetricSpace
    system: GeneratingSystem
    measure: Optional[FiniteMeasure]
    iso: Optional[SpaceIso]
    sha256: str


def _exact_loads(text: str):
    try:
        return json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc


_KINDS = {list: "a list", dict: "an object", str: "a string"}


def _shaped(value, kind: type, what: str):
    """``value`` once it is checked to be a list, an object or a string:
    every value read from a document passes here before it is used."""
    if not isinstance(value, kind):
        raise InputError(f"{what} must be {_KINDS[kind]}")
    return value


def _label(x) -> str:
    """A label read from a document: JSON object keys are strings, so an
    integer becomes its decimal string (``1`` and ``"1"`` are duplicates)."""
    if isinstance(x, str):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    raise InputError(f"point label {x!r} must be a string or an integer")


def _space(doc: dict) -> FiniteMetricSpace:
    points = [_label(p) for p in _shaped(doc["points"], list, "'points'")]
    dist = [_shaped(row, list, "a 'dist' row")
            for row in _shaped(doc["dist"], list, "'dist'")]
    return FiniteMetricSpace(points, dist)


def parse_model(text: str) -> Model:
    doc = _shaped(_exact_loads(text), dict, "a model file")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise InputError(f"unsupported schema version {schema!r}")

    if "points" not in doc or "dist" not in doc:
        raise InputError("model needs 'points' and 'dist'")
    space = _space(doc)

    maps = []
    cores: Optional[dict] = None
    for fragment in _shaped(doc.get("generators", []), list, "'generators'"):
        if "map" not in _shaped(fragment, dict, "a generator fragment"):
            raise InputError("generator fragment needs a 'map'")
        name = fragment.get("name")
        if name is not None:
            _shaped(name, str, "a generator 'name'")
        mapping = {k: _label(v) for k, v in
                   _shaped(fragment["map"], dict, "a generator 'map'").items()}
        if "dom" in fragment:
            declared = {_label(p) for p in
                        _shaped(fragment["dom"], list, "a generator 'dom'")}
            if declared != set(mapping):
                raise InputError(
                    f"generator {name!r}: 'dom' disagrees with the map keys")
        g = PartialMap.from_dict(space, mapping, name=name)
        maps.append(g)
        if "core" in fragment:
            if name is None:
                raise InputError("a cored generator needs a name")
            cores = cores or {}
            cores[name] = {space.index(_label(p)) for p in
                           _shaped(fragment["core"], list, "a generator 'core'")}
    system = GeneratingSystem.build(space, maps, cores=cores)

    measure = None
    if "mu" in doc:
        measure = FiniteMeasure.from_dict(space, _shaped(doc["mu"], dict, "'mu'"))

    iso = None
    if "phi" in doc:
        iso = _read_iso(doc, space)

    sha = hashlib.sha256(text.encode()).hexdigest()
    return Model(space=space, system=system, measure=measure, iso=iso,
                 sha256=sha)


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def load_model(path: str) -> Model:
    return parse_model(_read(path, "model"))


def load_measure(path: str, space: FiniteMetricSpace) -> FiniteMeasure:
    doc = _shaped(_exact_loads(_read(path, "measure")), dict, "a measure file")
    if "mu" not in doc:
        raise InputError("measure file needs a 'mu' object")
    return FiniteMeasure.from_dict(space, _shaped(doc["mu"], dict, "'mu'"))


def load_iso(path: str, space: FiniteMetricSpace) -> SpaceIso:
    doc = _shaped(_exact_loads(_read(path, "iso")), dict, "an iso file")
    if "phi" not in doc:
        raise InputError("iso file needs a 'phi' object")
    return _read_iso(doc, space)


def _read_iso(doc: dict, space: FiniteMetricSpace) -> SpaceIso:
    """The bijection ``phi`` onto the document's ``target`` space or, when
    there is none, onto a relabelled copy of ``space``."""
    phi = {k: _label(v) for k, v in _shaped(doc["phi"], dict, "'phi'").items()}
    if "target" in doc:
        target = _shaped(doc["target"], dict, "iso 'target'")
        if "points" not in target or "dist" not in target:
            raise InputError("iso 'target' needs 'points' and 'dist'")
        return SpaceIso.from_dict(space, _space(target), phi)
    missing = [p for p in space.points if p not in phi]
    if missing:
        raise InputError(f"phi misses points {missing}")
    return SpaceIso.from_dict(
        space, space.relabelled([phi[p] for p in space.points]), phi)
