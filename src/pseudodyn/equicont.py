"""Uniform equicontinuity certificates and no-expansive-measure reports.

On a finite space a modulus always exists (the least distance among pairs
some map spreads past the scale is positive), so the content is the exact
table: isometry families certify with delta(eps) = eps, while distortion
shows up as a smaller modulus with an explicit witness pair.  The moduli
read a system's fixpoint pair table; only a certificate's audit folds
maps, the ones it is given, once with ``spread_table``, and checks every
scale against that one fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapabilityError, PreconditionError
from .pseudogroup import (GeneratingSystem, compacted_system, spread_table,
                          table_ball)
from .rational import UNBOUNDED, is_unbounded, parse_radius, parse_rational
from .space import FiniteMetricSpace


@dataclass(frozen=True)
class EquicontinuityCertificate:
    """Exact modulus table: for each grid eps the largest delta such that
    pairs closer than delta are never spread to eps or beyond by any map
    in scope, with the witness pair that pins each finite delta."""

    scope: str
    table: dict
    witnesses: dict
    isometric: bool

    def audit(self, maps, space: FiniteMetricSpace) -> bool:
        """Re-verify over ``maps`` that no pair closer than delta is spread
        to eps: a bounded delta holds exactly when the modulus at eps of
        one fold of the maps is unbounded or at least delta."""
        bounded = {eps: delta for eps, delta in self.table.items()
                   if not is_unbounded(delta)}
        if not bounded:
            return True
        fold = spread_table(maps, space)
        for eps, delta in bounded.items():
            least = _modulus(fold, space, space.threshold(eps))[0]
            if not (is_unbounded(least) or least >= delta):
                return False
        return True


def _modulus(spread, space: FiniteMetricSpace, t: int):
    """``(delta, pairs)``: the least d(i, j) over the pairs i < j whose
    spread rank reaches the threshold ``t`` (UNBOUNDED when none does), and
    the pairs at exactly that distance, in lexicographic order.

    The pairs are walked nearest first (``space.pair_order``), one
    distance rank at a time, and the walk stops at the first rank holding
    a spread pair.  A table that bounds the distance ranks from below,
    such as a system's pair table, stops it by rank ``t``."""
    values = space.distance_ranks()[1]
    left, right, starts = space.pair_order()
    # rank 0 means no map in scope is defined at both points
    t = max(t, 1)
    for rank in range(1, len(values)):
        lo, hi = starts[rank], starts[rank + 1]
        pairs = [(i, j) for i, j in zip(left[lo:hi], right[lo:hi])
                 if spread[i][j] >= t]
        if pairs:
            return values[rank], pairs
    return UNBOUNDED, []


def _spread(source):
    """The spread table of a system's word closure, which is the system's
    fixpoint pair table, read from a system or from the ``ClosureMaps`` of
    its closure, which carries that table."""
    if isinstance(source, GeneratingSystem):
        return source.constraint_table()
    return source.pairs.table(math.inf)


def modulus_at(source, space: FiniteMetricSpace, eps):
    """Least distance among pairs some map of a word closure spreads to eps
    or beyond; UNBOUNDED when no map ever does.  ``source`` is a system,
    which stands for its closure without building it, or a closure's
    ``ClosureMaps``."""
    t = space.threshold(parse_rational(eps))
    return _modulus(_spread(source), space, t)[0]


def equicontinuity_modulus(sys: GeneratingSystem) -> EquicontinuityCertificate:
    """One pair table serves every grid eps.  Each finite delta's witness
    is the first (map, i, j) that spreads a pair at distance delta to eps,
    scanning the closure's maps in order and i < j over each sorted
    domain."""
    space = sys.space
    eps_grid = space.distance_grid()
    spread = sys.constraint_table()
    maps = sys.word_closure().stabilized_maps
    ranks = space.distance_ranks()[0]
    table = {}
    witnesses = {}
    for eps in eps_grid:
        t = space.threshold(eps)
        delta, pairs = _modulus(spread, space, t)
        table[eps] = delta
        witnesses[eps] = next(
            ((g, space.label(i), space.label(j)) for g in maps for i, j in pairs
             if g.vals[i] is not None and g.vals[j] is not None
             and ranks[g.vals[i]][g.vals[j]] >= t),
            None)
    isometric = all(table[e] == e for e in eps_grid)
    return EquicontinuityCertificate(scope="closure", table=table,
                                     witnesses=witnesses, isometric=isometric)


@dataclass(frozen=True)
class GroupInclusionReport:
    """For a group of total maps: open delta-balls sit inside the Bowen
    rho-balls, hence any measure puts positive mass on some Bowen ball
    (take a ball around an atom) and none is weakly expansive at rho."""

    rho: Fraction
    delta: object
    conclusion: str


def _inclusion_failures(space: FiniteMetricSpace, delta, table, rho) -> list[int]:
    """Centres x whose open delta-ball is not inside the Bowen rho-ball
    {y : table[x][y] <= rho}."""
    ranks = space.distance_ranks()[0]
    inner = space.threshold(delta)
    outer = space.threshold(rho, closed=True)
    return [x for x in range(space.n)
            if not table_ball(ranks, x, inner) <= table_ball(table, x, outer)]


def no_expansive_certificate_group(sys: GeneratingSystem, rho) -> GroupInclusionReport:
    """For total generators: delta is the modulus at rho over the group's
    maps, read from the system's fixpoint pair table.  The Bowen rho-balls
    are rows of that same table, and a pair closer than delta has a table
    rank below ``threshold(rho)``, so the inclusion is a theorem, not a
    check.  No word closure is built; the group-claim probe checks delta
    against a fold of the pair orbits."""
    rho = parse_radius(rho)
    if not all(g.is_total() for g in sys.generators):
        raise CapabilityError(
            "generators are not all total; use the core-restricted variant"
        )
    return GroupInclusionReport(
        rho=rho, delta=modulus_at(sys, sys.space, rho),
        conclusion="every Bowen ball at rho contains the open delta-ball "
                   "around its center; a ball around any atom has positive "
                   "measure, so no measure is weakly expansive at this scale")


@dataclass(frozen=True)
class GoodInclusionRow:
    rho: Fraction
    delta: object
    xi: object
    inclusion_ok: bool


@dataclass(frozen=True)
class GoodInclusionReport:
    rows: list[GoodInclusionRow]
    all_ok: bool
    conclusion: str


def no_expansive_certificate_good(sys: GeneratingSystem) -> GoodInclusionReport:
    """Core-restricted analogue: open xi-balls sit inside the
    core-restricted Bowen rho-balls, point by point and for every grid rho,
    where xi is the modulus at rho, or the diameter where the modulus is
    unbounded.

    Every core-restricted word is a restriction of an ambient word, so each
    one agrees with a map of the ambient closure at any two points of its
    domain, and the modulus alone bounds xi.
    """
    if not sys.has_cores:
        raise PreconditionError("this certificate requires cores")
    space = sys.space
    spread = sys.constraint_table()
    ctable = compacted_system(sys).constraint_table()
    rows = []
    all_ok = True
    for rho in space.distance_grid():
        delta = _modulus(spread, space, space.threshold(rho))[0]
        xi = space.diameter() if is_unbounded(delta) else delta
        ok = not _inclusion_failures(space, xi, ctable, rho)
        rows.append(GoodInclusionRow(rho=rho, delta=delta, xi=xi,
                                     inclusion_ok=ok))
        all_ok = all_ok and ok
    conclusion = (
        "open xi-balls land inside the core-restricted Bowen balls at every "
        "grid rho; a ball around any atom has positive measure, so no "
        "measure is weakly expansive for the core-restricted system"
        if all_ok else "an inclusion failed; no conclusion"
    )
    return GoodInclusionReport(rows=rows, all_ok=all_ok, conclusion=conclusion)

