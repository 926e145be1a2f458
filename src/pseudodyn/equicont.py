"""Uniform equicontinuity certificates and no-expansive-measure reports.

On a finite space a modulus always exists (the least distance among pairs
some map spreads past the scale is positive), so the content is the exact
table: isometry families certify with delta(eps) = eps, while distortion
shows up as a smaller modulus with an explicit witness pair.  The moduli
read a system's fixpoint pair table and the witnesses its levels; only a
certificate's audit folds maps, the ones it is given, once with
``spread_table``, and checks every scale against that one fold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapabilityError, PreconditionError
from .pseudogroup import GeneratingSystem, spread_table
from .rational import UNBOUNDED, is_unbounded, parse_radius
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
        bounded = [(space.threshold(eps), delta)
                   for eps, delta in self.table.items()
                   if not is_unbounded(delta)]
        if not bounded:
            return True
        moduli = _moduli(spread_table(maps, space), space,
                         [t for t, _ in bounded])
        return all(is_unbounded(moduli[t][0]) or moduli[t][0] >= delta
                   for t, delta in bounded)


def _moduli(spread, space: FiniteMetricSpace, thresholds) -> dict:
    """``{t: (delta, pairs)}`` for every threshold t in ``thresholds``:
    the least d(i, j) over the pairs i < j whose spread rank reaches t
    (UNBOUNDED when none does), and the pairs at exactly that distance, in
    lexicographic order.

    The pairs are walked nearest first (``space.pair_order``), one
    distance rank at a time.  The modulus rank at t is the least rank
    holding a pair whose spread rank reaches t, so it never falls as t
    rises: one pointer serves the thresholds in increasing order, each
    rank's largest spread rank is read once, when the pointer reaches it,
    and the walk stops at the rank the largest threshold stops at.  Pairs
    are listed only at the rank each threshold stops at.  A table that
    bounds the distance ranks from below, such as a system's pair table,
    stops the walk for t by rank t."""
    values = space.distance_ranks()[1]
    left, right, starts = space.pair_order()
    out = {}
    rank, top = 1, None  # top: the largest spread rank of the pairs of rank
    for t in sorted(set(thresholds)):
        need = max(t, 1)  # rank 0 means no map in scope is defined at both
        while rank < len(values):
            lo, hi = starts[rank], starts[rank + 1]
            if top is None:
                top = max([spread[i][j]
                           for i, j in zip(left[lo:hi], right[lo:hi])])
            if top >= need:
                break
            rank, top = rank + 1, None
        if rank == len(values):
            out[t] = UNBOUNDED, []
        else:
            out[t] = values[rank], [(i, j) for i, j in zip(left[lo:hi],
                                                           right[lo:hi])
                                    if spread[i][j] >= need]
    return out


def _modulus(spread, space: FiniteMetricSpace, t: int):
    """``(delta, pairs)`` at the one threshold ``t`` (see ``_moduli``)."""
    return _moduli(spread, space, (t,))[t]


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
    t = space.threshold(parse_radius(eps))
    return _modulus(_spread(source), space, t)[0]


def _grid_moduli(sys: GeneratingSystem) -> tuple[list, dict]:
    """The grid and the pair table's ``_moduli`` at every grid value, in
    one walk: the grid value of rank t has the threshold t."""
    eps_grid = sys.space.distance_grid()
    return eps_grid, _moduli(sys.constraint_table(), sys.space,
                             range(1, len(eps_grid) + 1))


def equicontinuity_modulus(sys: GeneratingSystem) -> EquicontinuityCertificate:
    """One pair table serves every grid eps, read in one walk over the
    distance ranks (``_moduli``).  Each finite delta's witness is the
    first map of the word closure, in its order, that spreads a pair at
    distance delta to eps, with the first such pair i < j; both are read
    off the table's levels (``first_spreading``), so no closure is built.
    The pair table bounds the distance ranks from below, so every grid
    delta is bounded and has a witness."""
    space = sys.space
    eps_grid, moduli = _grid_moduli(sys)
    table = {}
    witnesses = {}
    for t, eps in enumerate(eps_grid, 1):
        delta, pairs = moduli[t]
        table[eps] = delta
        found = sys.first_spreading(pairs, t)
        witnesses[eps] = (found[0], *map(space.label, found[1]))
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


@dataclass(frozen=True)
class GoodInclusionReport:
    rows: list[GoodInclusionRow]
    conclusion: str


def no_expansive_certificate_good(sys: GeneratingSystem) -> GoodInclusionReport:
    """Core-restricted analogue: open delta-balls sit inside the
    core-restricted Bowen rho-balls, point by point and for every grid rho,
    where delta is the ambient modulus at rho.

    Every core-restricted word is a restriction of an ambient word, so the
    core-restricted pair table is at most the ambient one in every cell,
    and a pair closer than delta has an ambient rank below
    ``threshold(rho)``.  So the inclusion is a theorem, not a check: only
    the ambient table is read, and no core-restricted system is built.
    """
    if not sys.has_cores:
        raise PreconditionError("this certificate requires cores")
    eps_grid, moduli = _grid_moduli(sys)
    rows = [GoodInclusionRow(rho=rho, delta=moduli[t][0])
            for t, rho in enumerate(eps_grid, 1)]
    return GoodInclusionReport(
        rows=rows,
        conclusion="open delta-balls land inside the core-restricted Bowen "
                   "balls at every grid rho; a ball around any atom has "
                   "positive measure, so no measure is weakly expansive for "
                   "the core-restricted system")
