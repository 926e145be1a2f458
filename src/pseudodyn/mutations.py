"""Deliberately broken operation variants for validating the probe suite.

Each mutation replaces exactly one operation with a plausible-looking but
wrong implementation; the registered statements must flag at least one
violation when run against it.  The crafted genomes below make every
mutation observable deterministically.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .pseudogroup import GeneratingSystem, PartialMap
from .probes import DEFAULT_OPS, Genome, OperationSet
from .rational import parse_rational


def _mutant_formula_drop_complement(sys, x, n, eps, closed, closure):
    """Forgets that maps undefined at a point impose no constraint there."""
    eps = parse_rational(eps)
    space = sys.space
    xi = space._point(x)
    result = space.full_set()
    for g in closure.maps_at(n):
        gx = g.vals[xi]
        if gx is None:
            continue
        target = space.ball_ix(gx, eps, closed=closed)
        term = frozenset(i for i, v in enumerate(g.vals)
                         if v is not None and v in target)
        result &= term  # missing: union with the domain complement
        if not result:
            break
    return result


def _mutant_bowen_open(sys, x, delta):
    """Uses strict inequality where the all-n intersection needs closed."""
    from .dynamics import dyn_ball
    return dyn_ball(sys, x, sys.fixpoint_level, delta, closed=False).members


def _mutant_build_skip_symmetrization(space, maps, cores):
    """``build``'s system without the inverses it appends after the
    identity and the given maps: its first generators, one per distinct
    map among those, with their cores."""
    full = GeneratingSystem.build(space, maps, cores=cores)
    kept = len({PartialMap.identity(space), *maps})
    cores = None if full.cores is None else full.cores[:kept]
    return GeneratingSystem(space, full.generators[:kept], cores=cores)


def _mutant_compose_intersect(g: PartialMap, h: PartialMap) -> PartialMap:
    """Spuriously intersects both domains instead of pulling back."""
    vals: list[Optional[int]] = [None] * g.space.n
    for i, v in enumerate(g.vals):
        if v is None or h.vals[i] is None:
            continue
        hv = h.vals[v]
        if hv is not None:
            vals[i] = hv
    word = None
    if g.word is not None and h.word is not None:
        word = g.word + h.word
    return PartialMap(g.space, vals, word=word)


def _mutant_compacted_no_restriction(sys: GeneratingSystem) -> GeneratingSystem:
    """Claims the cores but never restricts the generators to them."""
    return GeneratingSystem(sys.space, sys.generators,
                            cores=tuple(g.dom for g in sys.generators))


MUTATIONS: dict[str, OperationSet] = {
    "formula-drop-complement": replace(
        DEFAULT_OPS, ball_formula=_mutant_formula_drop_complement),
    "bowen-open-radius": replace(
        DEFAULT_OPS, bowen_members=_mutant_bowen_open),
    "skip-symmetrization": replace(
        DEFAULT_OPS, build_system=_mutant_build_skip_symmetrization),
    "compose-intersect-domains": replace(
        DEFAULT_OPS, compose=_mutant_compose_intersect),
    "skip-core-restriction": replace(
        DEFAULT_OPS, compacted=_mutant_compacted_no_restriction),
}


def crafted_genomes() -> list[Genome]:
    """Small deterministic instances on which every mutation is visible."""
    line = Genome(
        labels=["a", "b", "c"],
        dist=[[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        gens=[("g", {"a": "b", "b": "c"})],
        cores={"g": {"a"}},
        weights={"a": Fraction(1, 3), "b": Fraction(1, 3), "c": Fraction(1, 3)},
    )
    arrow = Genome(
        labels=["a", "b", "c"],
        dist=[[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        gens=[("f", {"a": "b"})],
        cores={"f": {"a"}},
        weights={"a": Fraction(1, 2), "b": Fraction(1, 4), "c": Fraction(1, 4)},
    )
    # swap on {a, b} with a proper core: the margin between the core and
    # the domain complement is wider than the domain's own margin
    swap = Genome(
        labels=["a", "b", "c"],
        dist=[[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        gens=[("s", {"a": "b", "b": "a"})],
        cores={"s": {"a"}},
        weights={"a": Fraction(1, 3), "b": Fraction(1, 3), "c": Fraction(1, 3)},
    )
    cyc = Genome(
        labels=[str(i) for i in range(6)],
        dist=[[min(abs(i - j), 6 - abs(i - j)) for j in range(6)]
              for i in range(6)],
        gens=[("r", {str(i): str((i + 1) % 6) for i in range(5)})],
        cores={"r": {"0", "1", "2"}},
        weights={str(i): Fraction(1, 6) for i in range(6)},
    )
    return [line, arrow, swap, cyc]
