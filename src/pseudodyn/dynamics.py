"""Dynamical n-balls, stabilized Bowen balls, separated sets, entropy tables.

A point ``y`` lies in the n-ball around ``x`` when every word of length n
defined at both points keeps the images within the radius; maps defined at
only one of the two impose no constraint.  The members of every n-ball are
a row of the system's constraint table, which reaches a fixpoint at level
L, so Bowen balls (the all-n intersection) are the closed balls at L,
exact rather than truncated.  Separated counts and growth tables read the
tables alone; the word closure supplies only each non-member's blocking
word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, islice

from .errors import CapabilityError, InputError
from .pseudogroup import (GeneratingSystem, PartialMap, WordClosure,
                          below_flags, table_ball)
from .rational import (check_length, format_rational, parse_radius,
                       parse_scale)
from .space import UNDEFINED_BYTE, PointSet

EXACT_CLIQUE_CAP = 20
N_MAX_CAP = 10_000


def check_n_max(n_max: int) -> int:
    """An explicit table length (``check_length``), capped at N_MAX_CAP."""
    if check_length(n_max, "n_max") > N_MAX_CAP:
        raise CapabilityError(
            f"n_max is capped at N_MAX_CAP = {N_MAX_CAP} (got {n_max}); "
            "rows past the fixpoint level repeat")
    return n_max


def parse_grid(eps_grid) -> list[Fraction]:
    """The grid rule of the library and of ``--eps-grid``: the given scales
    in their given order, nonempty, each positive (``parse_scale``), and
    none given twice by any spelling, which would repeat its rows."""
    scales = [parse_scale(e) for e in eps_grid]
    if not scales:
        raise InputError("need a nonempty eps grid")
    for k, eps in enumerate(scales):
        if eps in scales[:k]:
            raise InputError(f"the eps grid gives the scale "
                             f"{format_rational(eps)} twice")
    return scales


def grid_scales(space, eps_grid) -> list[tuple[Fraction, int]]:
    """``(eps, t)`` for every scale of a grid query, with t its open rank
    threshold.  With ``eps_grid`` None the scales are the distance grid,
    where the value of rank t has threshold t (none on one point);
    otherwise they are ``parse_grid``'s."""
    if eps_grid is None:
        return [(eps, t) for t, eps in enumerate(space.distance_grid(), 1)]
    return [(eps, space.threshold(eps)) for eps in parse_grid(eps_grid)]


@dataclass(frozen=True)
class BallReport:
    """A computed dynamical ball with its exclusion evidence.

    ``exclusions`` maps each non-member to the first (map, distance)
    constraint that rules it out.
    """

    center: object
    radius: Fraction
    n: int
    closed: bool
    members: PointSet
    exclusions: dict[int, tuple[PartialMap, Fraction]] = field(repr=False)


def dyn_ball(sys: GeneratingSystem, x, n: int, eps,
             closed: bool = False) -> BallReport:
    """Dynamical n-ball around point index ``x`` with radius ``eps``: a
    row of the constraint table, with each non-member's first blocking word."""
    eps = parse_radius(eps)
    check_length(n)
    space = sys.space
    xi = space._point(x)
    closure = sys.word_closure()
    t = space.threshold(eps, closed)
    members = table_ball(closure.constraint_table(n), xi, t)
    ranks, values = space.distance_ranks()
    # one lazy pass over the words of length n, a prefix of the closure,
    # each non-member leaving at its first blocker: no map past the last
    # first blocker is read or built
    pending = sorted(space.full_set() - members)
    found = {}
    for g in islice(closure.stabilized_maps,
                    closure.sizes[min(n, closure.stable_index) - 1]):
        if not pending:
            break
        vals = g.vals
        gx = vals[xi]
        if gx is None:
            continue
        row = ranks[gx]
        left = []
        for y in pending:
            gy = vals[y]
            if gy is not None and row[gy] >= t:
                found[y] = (g, values[row[gy]])
            else:
                left.append(y)
        pending = left
    exclusions = dict(sorted(found.items()))
    return BallReport(center=space.label(xi), radius=eps, n=n, closed=closed,
                      members=members, exclusions=exclusions)


def dyn_ball_via_formula(sys: GeneratingSystem, x, n: int, eps,
                         closed: bool = False,
                         closure: WordClosure | None = None) -> PointSet:
    """The same ball through the set-algebra route: intersect, over the
    words defined at point index ``x``, the preimage of the metric ball
    around the image with the domain complement.  Serves as the
    independent oracle for :func:`dyn_ball`.

    On at most 255 points one pass over the words of length n computes
    the balls of every point at the eight rank thresholds sharing
    ``threshold(eps, closed) & ~7``, bit-sliced (see ``_formula_balls``),
    and the closure memoizes them per (min(n, stable_index), threshold
    byte): the memo grows by |X|^2 bytes per level and threshold byte
    read, holds bytes only and no reference back, and a later call reads
    its point's |X| bytes through one bit plane.  The first call of a
    (level, byte) costs about |X| single-point scans, which the other
    points' calls repay.  Past 255 points each call scans the words for
    its own point.
    """
    eps = parse_radius(eps)
    check_length(n)
    space = sys.space
    xi = space._point(x)
    closure = closure or sys.word_closure()
    npts = space.n
    t = space.threshold(eps, closed)
    if npts > UNDEFINED_BYTE:
        ranks = space.distance_ranks()[0]
        full = (1 << npts) - 1
        result = full
        for g in closure.maps_at(n):
            gx = g.vals[xi]
            if gx is None:
                continue
            row = ranks[gx]
            preimage = 0
            for i, v in enumerate(g.vals):
                if v is not None and row[v] < t:
                    preimage |= 1 << i
            result &= preimage | (full ^ g.dom_mask)
            if not result:
                break
        return frozenset(i for i in range(npts) if result >> i & 1)
    balls = _formula_balls(closure, space, min(n, closure.stable_index),
                           t & ~7)
    row = balls[xi * npts:(xi + 1) * npts].translate(_BIT_PLANES[t & 7])
    return frozenset(compress(range(npts), row))


# byte b -> its bit j, for each j: one threshold out of a threshold byte
_BIT_PLANES = tuple(bytes(b >> j & 1 for b in range(256)) for j in range(8))


def _formula_balls(closure: WordClosure, space, level: int,
                   base: int) -> bytes:
    """Byte ``x * |X| + y`` has bit j set when y lies in the formula ball
    around x at length ``level`` and rank threshold ``base + j``.

    Each word adds one term for every point at once: its key translated
    through the rank pullback table of each point's image (table 255,
    all 0xff, where the word is undefined), the |X| translates joined
    into one |X|^2-byte integer and and-ed into the accumulator, so each
    bit plane is the intersection of preimage sets of its threshold.
    Memoized on the closure per (level, base)."""
    key = (level, base)
    balls = closure._formula_balls.get(key)
    if balls is None:
        pull = space.rank_pullbacks(base)
        size = space.n * space.n
        acc = (1 << 8 * size) - 1
        for g in closure.maps_at(level):
            k = g.key
            acc &= int.from_bytes(
                b"".join(map(k.translate, map(pull.__getitem__, k))),
                "little")
        balls = closure._formula_balls[key] = acc.to_bytes(size, "little")
    return balls


def bowen_ball(sys: GeneratingSystem, x, delta) -> BallReport:
    """Exact Bowen ball around point index ``x``: the closed dynamical ball
    at the pair fixpoint level L, from which the tables, hence the nested
    intersection, are constant; words of length L block every non-member."""
    delta = parse_radius(delta)
    return dyn_ball(sys, x, sys.fixpoint_level, delta, closed=True)


@dataclass(frozen=True)
class SeparationReport:
    lower: int
    upper: int
    witness: PointSet
    exact: bool


# below flag -> adjacency digit: a cell at or past the threshold is an edge
_EDGE_DIGITS = b"10" + bytes(254)


def separation_graph(sys: GeneratingSystem, n: int, eps) -> list[int]:
    """Adjacency bitmasks: an edge joins two points some shared word pushes
    at least ``eps`` apart."""
    t = sys.space.threshold(parse_scale(eps))
    return _edges(sys.constraint_table(n), t)


def _edges(rows, t: int) -> list[int]:
    """The adjacency bitmasks of the cells of rank ``t`` or more."""
    # bit j of a row's mask is its cell j, so the digits run from the last
    return [int(row.translate(_EDGE_DIGITS)[::-1], 2) & ~(1 << i)
            for i, row in enumerate(below_flags(rows, t))]


def separated_count(sys: GeneratingSystem, n: int, eps,
                    mode: str = "exact") -> SeparationReport:
    """Maximal cardinality of an (n, eps)-separated subset.

    Separated sets are cliques of the separation graph.  ``exact`` runs a
    branch-and-bound maximum clique (instances up to 20 points); ``greedy``
    reports a maximal clique as the lower bound and |X| as the upper.
    """
    t = sys.space.threshold(parse_scale(eps))
    check_length(n)
    if mode not in ("exact", "greedy"):
        raise InputError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    npts = sys.space.n
    if exact and npts > EXACT_CLIQUE_CAP:
        raise CapabilityError(
            f"exact separated-set search is capped at {EXACT_CLIQUE_CAP} "
            f"points (got {npts}); use mode='greedy'"
        )
    adj = _edges(sys.constraint_table(n), t)
    if exact:
        size, mask = _max_clique(adj, npts)
    else:
        mask = _greedy_clique(adj, npts)
        size = mask.bit_count()
    members = frozenset(i for i in range(npts) if mask >> i & 1)
    return SeparationReport(lower=size, upper=size if exact else npts,
                            witness=members, exact=exact)


def _greedy_clique(adj: list[int], npts: int) -> int:
    order = sorted(range(npts), key=lambda i: -adj[i].bit_count())
    mask = 0
    for v in order:
        if mask & ~adj[v] == 0:
            mask |= 1 << v
    return mask


def _max_clique(adj: list[int], npts: int) -> tuple[int, int]:
    best_size = 0
    best_mask = 0

    def expand(current: int, size: int, cand: int):
        nonlocal best_size, best_mask
        if size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            if size > best_size:
                best_size, best_mask = size, current
            return
        while cand:
            if size + cand.bit_count() <= best_size:
                return
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            cand &= ~bit
            expand(current | bit, size + 1, cand & adj[v])

    expand(0, 0, (1 << npts) - 1)
    return best_size, best_mask


def brute_force_separated(sys: GeneratingSystem, n: int, eps) -> int:
    """Exhaustive maximum over all subsets; oracle for small instances."""
    eps = parse_scale(eps)
    npts = sys.space.n
    if npts > 14:
        raise CapabilityError("brute-force oracle is for small instances only")
    adj = separation_graph(sys, n, eps)
    closed = [adj[i] | (1 << i) for i in range(npts)]
    best = 0
    for subset in range(1, 1 << npts):
        m = subset
        ok = True
        while m:
            i = (m & -m).bit_length() - 1
            if subset & ~closed[i]:
                ok = False
                break
            m &= m - 1
        if ok:
            c = subset.bit_count()
            if c > best:
                best = c
    return best


@dataclass(frozen=True)
class HTopRow:
    eps: Fraction
    n: int
    count_lower: int
    count_upper: int
    rate: float


@dataclass(frozen=True)
class HTopTable:
    rows: list[HTopRow]
    limit: float
    note: str


def h_top_table(sys: GeneratingSystem, eps_grid=None, n_max: int = 8) -> HTopTable:
    """Separated-count table with growth rates, one row per (eps, n) with
    the scales in increasing order, as ``local_entropy`` orders its cells:
    exact counts up to ``EXACT_CLIQUE_CAP`` points, greedy bounds above.

    On a finite space the counts are bounded by |X|, so the reported limit
    is 0; the rows still show the per-(n, eps) structure.
    """
    check_n_max(n_max)
    scales = sorted(grid_scales(sys.space, eps_grid))
    mode = "exact" if sys.space.n <= EXACT_CLIQUE_CAP else "greedy"
    level = sys.fixpoint_level
    rows = []
    for eps, _ in scales:
        for n in range(1, n_max + 1):
            # past the tables' fixpoint the table, hence the count, is fixed
            if n <= level:
                rep = separated_count(sys, n, eps, mode=mode)
            rate = math.log(rep.lower) / n  # a separated set has a point
            rows.append(HTopRow(eps=eps, n=n, count_lower=rep.lower,
                                count_upper=rep.upper, rate=rate))
    note = (f"counts are bounded by |X| = {sys.space.n}, so the large-n "
            "limit of (1/n) log s is 0 on this finite space")
    return HTopTable(rows=rows, limit=0.0, note=note)
