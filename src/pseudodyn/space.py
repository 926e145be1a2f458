"""Finite metric spaces with exact rational distances.

Points carry opaque labels; every computation takes point indices, and a
label becomes an index only where it arrives (``FiniteMetricSpace.index``).
Subsets of a space ("point sets") are plain ``frozenset`` objects over
point indices.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError
from .rational import parse_rational

PointSet = frozenset


class FiniteMetricSpace:
    """An ordered finite point set together with an exact metric matrix.

    The metric axioms (zero diagonal, positivity, symmetry, triangle
    inequality) are validated exactly at construction; a violation is a
    hard error because every verdict downstream assumes a genuine metric.
    The triangle inequality costs O(|X|^2) integer row scans of length |X|.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("points", "dist", "_index", "_ranks", "_ball_masks")

    def __init__(self, points: Sequence, dist: Sequence[Sequence]):
        pts = tuple(points)
        if not pts:
            raise InputError("a metric space needs at least one point")
        if len(set(pts)) != len(pts):
            raise InputError("duplicate point labels")
        n = len(pts)
        if len(dist) != n or any(len(row) != n for row in dist):
            raise InputError(f"distance matrix must be {n}x{n}")
        matrix = tuple(tuple(parse_rational(v) for v in row) for row in dist)
        for i in range(n):
            if matrix[i][i] != 0:
                raise InputError(f"dist({pts[i]},{pts[i]}) must be 0")
            for j in range(i + 1, n):
                if matrix[i][j] != matrix[j][i]:
                    raise InputError(
                        f"symmetry violated at ({pts[i]},{pts[j]}): "
                        f"{matrix[i][j]} != {matrix[j][i]}"
                    )
                if matrix[i][j] <= 0:
                    raise InputError(
                        f"distinct points need positive distance: ({pts[i]},{pts[j]})"
                    )
        # Triangle inequality over integers on one common denominator:
        # d(i,k) > d(i,j) + d(j,k) iff row_i[k] - row_j[k] > row_i[j], so
        # one C-level row scan per ordered pair (i, j) decides every k.
        scale = math.lcm(*(v.denominator for row in matrix for v in row))
        rows = [[v.numerator * (scale // v.denominator) for v in row]
                for row in matrix]
        for i, ri in enumerate(rows):
            for j, rj in enumerate(rows):
                if max(map(operator.sub, ri, rj)) > ri[j]:
                    k = next(k for k in range(n) if ri[k] - rj[k] > ri[j])
                    raise InputError(
                        "triangle inequality violated at "
                        f"({pts[i]},{pts[j]},{pts[k]})"
                    )
        self.points = pts
        self.dist = matrix
        self._index = {p: i for i, p in enumerate(pts)}
        self._ranks = None
        self._ball_masks = {}

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

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def full_set(self) -> PointSet:
        return frozenset(range(len(self.points)))

    def labels_of(self, s: Iterable[int]) -> tuple:
        return tuple(self.points[i] for i in sorted(s))

    def diameter(self) -> Fraction:
        return self.distance_ranks()[1][-1]

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
        is the distance.  Built on first use, with the grid, in one pass
        that hashes each upper-triangle distance once; the space is immutable.
        """
        if self._ranks is None:
            ids: dict[Fraction, int] = {}
            seen: list[list[int]] = []
            for i, row in enumerate(self.dist):
                # the matrix is symmetric: hash the upper triangle only
                seen.append([above[i] for above in seen]
                            + [ids.setdefault(v, len(ids)) for v in row[i:]])
            values = tuple(sorted(ids))
            rank_of = {ids[v]: k for k, v in enumerate(values)}
            ranks = tuple(tuple(map(rank_of.__getitem__, row)) for row in seen)
            self._ranks = (ranks, values)
        return self._ranks

    def threshold(self, r, closed: bool = False) -> int:
        """The one radius rule: d(i, j) lies in the open (or closed) ball of
        radius ``r`` exactly when its rank is below ``threshold(r, closed)``,
        and is ``r`` or more exactly when its rank is ``threshold(r)`` or
        more."""
        values = self.distance_ranks()[1]
        return (bisect_right if closed else bisect_left)(values, r)

    def ball_ix(self, i: int, r, closed: bool = False) -> PointSet:
        r = parse_rational(r)
        row = self.dist[i]
        if closed:
            return frozenset(j for j in range(self.n) if row[j] <= r)
        return frozenset(j for j in range(self.n) if row[j] < r)

    def ball_masks(self, r, closed: bool = False) -> tuple[int, ...]:
        """Every metric ball of radius ``r`` as a bitmask over point
        indices, the ``i``-th around point ``i``; memoized per radius."""
        key = (r, closed)
        masks = self._ball_masks.get(key)
        if masks is None:
            inside = operator.le if closed else operator.lt
            masks = self._ball_masks[key] = tuple(
                sum(1 << j for j, d in enumerate(row) if inside(d, r))
                for row in self.dist)
        return masks
