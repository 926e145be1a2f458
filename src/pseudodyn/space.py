"""Finite metric spaces with exact rational distances.

Points carry opaque labels; every computation takes point indices, and a
label becomes an index only where it arrives (``FiniteMetricSpace.index``).
Subsets of a space ("point sets") are plain ``frozenset`` objects over
point indices.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import Iterable, Sequence

from .errors import CapabilityError, InputError
from .rational import parse_rational

PointSet = frozenset

# The byte a ``PartialMap.key`` holds off its domain, so byte keys and the
# translate tables they index serve spaces of at most this many points.
UNDEFINED_BYTE = 255


class FiniteMetricSpace:
    """An ordered finite point set together with an exact metric matrix.

    The metric axioms (zero diagonal, positivity, symmetry, triangle
    inequality) are validated exactly at construction; a violation is a
    hard error because every verdict downstream assumes a genuine metric.
    Each distinct entry is parsed once (a matrix of ints is its own integer
    matrix), and every check runs on one integer matrix over a common
    denominator: the triangle inequality costs |X|
    big-integer steps, one per middle point, each over |X|^2 packed fields.
    The rank rows come from one lookup pass over that matrix, and the
    ``Fraction`` matrix ``dist`` is built from them on first read.
    Instances are immutable and safe to share between threads: a lazy
    field is built idempotently, so a race builds equal values twice.
    """

    __slots__ = ("points", "_dist", "_index", "_ranks", "_grid", "_pullbacks",
                 "_pair_order")

    def __init__(self, points: Sequence, dist: Sequence[Sequence]):
        pts = tuple(points)
        if not pts:
            raise InputError("a metric space needs at least one point")
        if len(set(pts)) != len(pts):
            raise InputError("duplicate point labels")
        n = len(pts)
        if len(dist) != n or any(len(row) != n for row in dist):
            raise InputError(f"distance matrix must be {n}x{n}")
        flat = list(chain.from_iterable(dist))
        types = set(map(type, flat))
        if types == {int}:
            # integer entries are their own scaled integers (a bool is no
            # int here: it takes the general path and is refused there)
            ints, scale = flat, 1
        else:
            ints, scale = _scaled(flat, types)
        rows = [ints[i * n:(i + 1) * n] for i in range(n)]
        grid = sorted(set(ints))
        if not (ints.count(0) == n and grid[0] >= 0
                and not any(ints[::n + 1])
                and rows == [ints[j::n] for j in range(n)]):
            raise InputError(_axiom_failure(pts, rows, scale))
        triple = _triangle_failure(rows, ints, grid)
        if triple is not None:
            raise InputError("triangle inequality violated at "
                             "({},{},{})".format(*map(pts.__getitem__, triple)))
        values = tuple(Fraction(v, scale) for v in grid)
        flat_ranks = map({v: r for r, v in enumerate(grid)}.__getitem__, ints)
        # n references to one iterator: zip cuts it into rows of n
        ranks = tuple(zip(*[iter(flat_ranks)] * n))
        self.points = pts
        self._dist = None
        self._index = {p: i for i, p in enumerate(pts)}
        self._ranks = (ranks, values)
        self._grid = (tuple(grid), scale)
        self._pullbacks = {}
        self._pair_order = None

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, label) -> int:
        """The index of the point labelled ``label``.  Labels only: an
        integer is read as a label, never as an index."""
        if label in self._index:
            return self._index[label]
        raise InputError(f"unknown point {label!r}")

    def _point(self, i) -> int:
        """``i``, checked to be a point index: every computation at a point
        takes an index, so a label, a bool or an int out of range fails."""
        if type(i) is not int or not 0 <= i < self.n:
            raise InputError(f"{i!r} is not a point index (0 to {self.n - 1})")
        return i

    def label(self, i: int):
        return self.points[i]

    @property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance matrix: ``dist[i][j]`` is ``values[ranks[i][j]]``
        (see ``distance_ranks``), built on first read."""
        dist = self._dist
        if dist is None:
            ranks, values = self._ranks
            dist = self._dist = tuple(tuple(map(values.__getitem__, row))
                                      for row in ranks)
        return dist

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def full_set(self) -> PointSet:
        return frozenset(range(len(self.points)))

    def labels_of(self, s: Iterable[int]) -> tuple:
        return tuple(self.points[i] for i in sorted(s))

    def diameter(self) -> Fraction:
        return self.distance_ranks()[1][-1]

    def relabelled(self, points: Sequence, factor=1) -> "FiniteMetricSpace":
        """A copy of this space with the labels ``points`` (in index order)
        and every distance multiplied by ``factor`` > 0.

        A positive multiple of a metric is a metric whose distances order
        exactly as the original's, so the copy keeps the ranks and
        validates nothing again; its scaled grid is ``(g p, scale q)`` for
        ``factor`` = p/q, so ``threshold`` answers as on a fresh copy."""
        pts = tuple(points)
        if len(pts) != self.n:
            raise InputError(f"a relabelled copy needs {self.n} point labels "
                             f"(got {len(pts)})")
        if len(set(pts)) != len(pts):
            raise InputError("duplicate point labels")
        factor = parse_rational(factor)
        if factor <= 0:
            raise InputError("a metric scales by a positive factor only")
        ranks, values = self._ranks
        grid, scale = self._grid
        dist = self._dist
        if factor != 1:
            p, q = factor.as_integer_ratio()
            values = tuple(v * factor for v in values)
            grid, scale = tuple(g * p for g in grid), scale * q
            dist = None
        copy = object.__new__(FiniteMetricSpace)
        copy.points = pts
        copy._dist = dist
        copy._index = {label: i for i, label in enumerate(pts)}
        copy._ranks = (ranks, values)
        copy._grid = (grid, scale)
        copy._pullbacks = {}
        copy._pair_order = self._pair_order  # a function of the ranks alone
        return copy

    # -- operations --------------------------------------------------------

    def distance_grid(self) -> list[Fraction]:
        """Strictly increasing list of the distinct positive pairwise distances.

        Every comparison-based verdict in the library is piecewise constant
        between consecutive grid values, so this is the canonical candidate
        list for radii and thresholds.
        """
        return list(self.distance_ranks()[1][1:])

    def distance_ranks(self) -> tuple[tuple, tuple]:
        """``(ranks, values)``: ``ranks[i][j]`` is the position of d(i, j)
        in ``values = (0, *distance_grid())``.

        Ranks order exactly as the distances do, so comparisons and maxima
        run over small integers (see ``threshold``) and ``values[rank]``
        is the distance.  Both are built at construction from the sorted
        scaled integers, and every ``dist`` entry is ``values[rank]``.
        """
        return self._ranks

    def threshold(self, r, closed: bool = False) -> int:
        """The one radius rule: d(i, j) lies in the open (or closed) ball of
        radius ``r`` exactly when its rank is below ``threshold(r, closed)``,
        and is ``r`` or more exactly when its rank is ``threshold(r)`` or
        more.

        ``r`` = p/q (an int, ``Fraction`` or float, read exactly) is
        compared on the scaled integer grid of metric validation: a
        distance g/scale is below r exactly when g < ceil(p scale / q), and
        at most r exactly when g <= floor(p scale / q)."""
        grid, scale = self._grid
        p, q = r.as_integer_ratio()
        if closed:
            return bisect_right(grid, p * scale // q)
        return bisect_left(grid, -(-p * scale // q))

    def ball_ix(self, i: int, r, closed: bool = False) -> PointSet:
        """The metric ball of radius ``r`` around point index ``i``: the
        rank row below ``threshold(r, closed)``."""
        t = self.threshold(parse_rational(r), closed)
        return frozenset(j for j, v in enumerate(self.distance_ranks()[0][i])
                         if v < t)

    def pair_order(self) -> tuple[array, array, array]:
        """``(left, right, starts)``: the pairs i < j nearest first, as
        ``(left[k], right[k])`` in (rank, i, j) order, and ``starts[r]``,
        the position of the first pair of rank r (``starts[0]`` and
        ``starts[1]`` are 0, since every pair has rank 1 or more; the
        last entry is the pair count).  Built on first use."""
        if self._pair_order is None:
            n = self.n
            ranks, values = self.distance_ranks()
            order = sorted((row[j], i, j) for i, row in enumerate(ranks)
                           for j in range(i + 1, n))
            counts = Counter(rank for rank, _, _ in order)
            code = "B" if n <= 256 else "I"
            self._pair_order = (
                array(code, [i for _, i, _ in order]),
                array(code, [j for _, _, j in order]),
                array("I", accumulate((counts[rank]
                                       for rank in range(len(values))),
                                      initial=0)))
        return self._pair_order

    def rank_pullbacks(self, base: int) -> tuple[bytes, ...]:
        """The metric balls at the eight rank thresholds ``base`` to
        ``base + 7`` (``base`` a multiple of 8) as 256 translate tables,
        one bit per threshold: bit j of byte w of table v is set when
        ``rank(v, w) < base + j``.  Byte 255, the one a ``PartialMap.key``
        holds off its domain, is 0xff in every table, and so is every
        byte of the tables past the last point, so table 255 is the one a
        key's undefined point selects.  Thus ``key.translate(tables[v])``
        marks, in bit plane j, the points the map sends into the ball
        around ``v`` at threshold ``base + j`` together with those outside
        its domain.  Memoized per ``base``; spaces of at most 255 points."""
        tables = self._pullbacks.get(base)
        if tables is None:
            if self.n > UNDEFINED_BYTE:
                raise CapabilityError("rank pullback tables serve at most "
                                      f"{UNDEFINED_BYTE} points")
            # a rank d past base is below base + j for the bits j > d
            pad = bytes(UNDEFINED_BYTE - self.n) + b"\xff"
            tables = self._pullbacks[base] = tuple(
                bytes(0xff if rank < base else 0xff << rank - base + 1 & 0xff
                      for rank in row) + pad
                for row in self.distance_ranks()[0]
            ) + (b"\xff" * 256,) * (256 - self.n)
        return tables


def _scaled(flat: list, types: set) -> tuple[list[int], int]:
    """``(ints, scale)``: the entries of ``flat`` as integers over their
    least common denominator ``scale``.  Each distinct entry is parsed
    once, at its first occurrence."""
    ratios = None  # each distinct entry's key -> (numerator, denominator)
    if types != {Fraction}:
        # keyed by type too, so True is never read as the int 1
        keys = list(zip(map(type, flat), flat))
        try:
            distinct = dict.fromkeys(keys)
        except TypeError:  # an unhashable entry: parse entry by entry
            flat = [parse_rational(v) for v in flat]
        else:
            ratios = {key: parse_rational(key[1]).as_integer_ratio()
                      for key in distinct}
    if ratios is None:
        # a Fraction hashes and compares in Python code, its pair in C
        keys = list(map(Fraction.as_integer_ratio, flat))
        ratios = dict(zip(keys, keys))
    scale = math.lcm(*(q for _, q in ratios.values()))
    scaled = {key: p * (scale // q) for key, (p, q) in ratios.items()}
    return list(map(scaled.__getitem__, keys)), scale


def _axiom_failure(pts: tuple, rows: list[list[int]], scale: int) -> str:
    """The message for the first failure of the zero diagonal, symmetry or
    positivity of the scaled matrix ``rows``, read in order: the diagonal
    at point i, then symmetry and positivity at each pair (i, j > i).
    Called only once a whole-matrix check has failed."""
    for i, row in enumerate(rows):
        if row[i] != 0:
            return f"dist({pts[i]},{pts[i]}) must be 0"
        for j in range(i + 1, len(rows)):
            if row[j] != rows[j][i]:
                return (f"symmetry violated at ({pts[i]},{pts[j]}): "
                        f"{Fraction(row[j], scale)} != "
                        f"{Fraction(rows[j][i], scale)}")
            if row[j] <= 0:
                return ("distinct points need positive distance: "
                        f"({pts[i]},{pts[j]})")


def _triangle_failure(rows: list[list[int]], ints: list[int],
                      grid: list[int]):
    """The first (i, j, k) in lexicographic order with d(i,k) > d(i,j) +
    d(j,k), or None, for a symmetric nonnegative integer matrix ``rows``
    with zero diagonal (``ints`` is ``rows`` flattened, ``grid`` its sorted
    distinct entries).

    For each middle point j one big int holds, in the w-bit field (i, k),
    2^(w-1) + d(i,j) + d(j,k) - d(i,k).  With 2^(w-2) above every entry
    each field stays in [0, 2^w), so no carry or borrow crosses into the
    next field, and the guard bit 2^(w-1) is set exactly where the
    triangle holds: n big-integer steps decide all n^3 triples.
    """
    n = len(rows)
    width = (grid[-1].bit_length() + 9) // 8  # bytes per field
    enc = {v: v.to_bytes(width, "little") for v in grid}
    packed = b"".join(map(enc.__getitem__, ints))  # field (i, k): d(i, k)
    # each value's field repeated n times, so a row expands by lookups; with
    # at most n values the table is no larger than ``packed``, and past
    # that each entry is repeated as its row is expanded
    spans = ({v: e * n for v, e in enc.items()} if len(grid) <= n
             else None)
    guards = int.from_bytes((bytes(width - 1) + b"\x80") * (n * n), "little")
    base = guards - int.from_bytes(packed, "little")
    step = n * width
    first = None
    for j, row in enumerate(rows):
        # field (i, k) gets d(j, k) from row j repeated, and d(j, i), which
        # is d(i, j) by symmetry, from each entry of row j repeated
        expanded = (map(spans.__getitem__, row) if spans is not None
                    else map(operator.mul, map(enc.__getitem__, row),
                             repeat(n)))
        fields = (base
                  + int.from_bytes(packed[j * step:(j + 1) * step] * n,
                                   "little")
                  + int.from_bytes(b"".join(expanded), "little"))
        if fields & guards != guards:
            failed = guards & ~fields
            i, k = divmod(((failed & -failed).bit_length() - 1) // (8 * width),
                          n)
            if first is None or (i, j, k) < first:
                first = (i, j, k)
    return first
