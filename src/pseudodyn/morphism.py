"""Global space bijections, conjugated systems, and transfer of verdicts.

A ``SpaceIso`` is a bijection between two finite metric spaces together
with exact moduli of continuity read off the distance grids.  Conjugation
transports generating systems, cores and measures pointwise; the transfer
constants implement the uniform-continuity bookkeeping needed to move
expansiveness radii and separated counts across the bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dynamics import EXACT_CLIQUE_CAP, h_top_table
from .equicont import _modulus
from .errors import CapabilityError, InputError
from .measure import FiniteMeasure
from .pseudogroup import GeneratingSystem, PartialMap, _inverse_table
from .rational import is_unbounded, parse_radius, parse_scale
from .space import FiniteMetricSpace, PointSet


class SpaceIso:
    """Bijection between the point sets of two finite metric spaces."""

    __slots__ = ("src", "dst", "fwd", "inv", "_pulled", "_inverse")

    def __init__(self, src: FiniteMetricSpace, dst: FiniteMetricSpace, fwd):
        if src.n != dst.n:
            raise InputError("spaces must have the same cardinality")
        fwd = tuple(fwd)
        if sorted(fwd) != list(range(dst.n)):
            raise InputError("mapping is not a bijection")
        self.src = src
        self.dst = dst
        self.fwd = fwd
        self.inv = _inverse_table(fwd)
        self._pulled = None  # pulled-back ranks and inverse: built on first use
        self._inverse = None

    @classmethod
    def from_dict(cls, src: FiniteMetricSpace, dst: FiniteMetricSpace,
                  mapping: dict) -> "SpaceIso":
        fwd = [None] * src.n
        for a, b in mapping.items():
            fwd[src.index(a)] = dst.index(b)
        if any(v is None for v in fwd):
            missing = [src.label(i) for i, v in enumerate(fwd) if v is None]
            raise InputError(f"mapping misses points {missing}")
        return cls(src, dst, fwd)

    @classmethod
    def relabel(cls, src: FiniteMetricSpace, new_labels,
                scale=Fraction(1)) -> "SpaceIso":
        """A copy of ``src`` with new labels and optionally scaled
        distances (``FiniteMetricSpace.relabelled``); the identity index
        map is then an iso onto it."""
        return cls(src, src.relabelled(new_labels, scale), range(src.n))

    def apply_set(self, s) -> PointSet:
        return frozenset(self.fwd[i] for i in s)

    def is_isometric(self) -> bool:
        """Whether ``fwd`` keeps every distance: exactly when both spaces
        have the same distinct distances and every pair keeps its rank."""
        return (self.src.distance_ranks()[1] == self.dst.distance_ranks()[1]
                and self._pulled_ranks() == self.src.distance_ranks()[0])

    def inverted(self) -> "SpaceIso":
        return SpaceIso(self.dst, self.src, self.inv)

    # -- exact moduli ------------------------------------------------------

    def forward_modulus(self, eps):
        """Largest threshold delta with d_src(u,v) < delta implying
        d_dst(phi u, phi v) < eps: the least source distance among pairs
        whose images are eps or farther apart (UNBOUNDED if none)."""
        t = self.dst.threshold(parse_radius(eps))
        return _modulus(self._pulled_ranks(), self.src, t)[0]

    def _pulled_ranks(self) -> tuple:
        """The target's rank table read at the images: row u is the rank
        of d_dst(phi u, phi v) for each v.  Built on first use."""
        if self._pulled is None:
            rows = self.dst.distance_ranks()[0]
            fwd = self.fwd
            self._pulled = tuple(tuple(map(rows[u].__getitem__, fwd))
                                 for u in fwd)
        return self._pulled

    def inverse_modulus(self, eps):
        eps = parse_radius(eps)
        if self._inverse is None:
            self._inverse = self.inverted()
        return self._inverse.forward_modulus(eps)


def conjugate_map(g: PartialMap, iso: SpaceIso) -> PartialMap:
    """phi o g o phi^{-1}: domain is the image of the domain."""
    vals: list[Optional[int]] = [None] * iso.dst.n
    for i, v in enumerate(g.vals):
        if v is not None:
            vals[iso.fwd[i]] = iso.fwd[v]
    return PartialMap(iso.dst, vals, name=g.name, word=g.word)


def conjugate_system(sys: GeneratingSystem, iso: SpaceIso) -> GeneratingSystem:
    gens = [conjugate_map(g, iso) for g in sys.generators]
    cores = None
    if sys.cores is not None:
        cores = tuple(iso.apply_set(c) for c in sys.cores)
    return GeneratingSystem(iso.dst, gens, cores=cores)


def pushforward(mu: FiniteMeasure, iso: SpaceIso) -> FiniteMeasure:
    weights = [Fraction(0)] * iso.dst.n
    for i, w in enumerate(mu.weights):
        weights[iso.fwd[i]] = w
    return FiniteMeasure(iso.dst, weights)


def transfer_expansive_constant(eta, iso: SpaceIso) -> Fraction:
    """Largest grid radius delta on the target such that target distances
    <= delta pull back strictly below eta; any expansiveness constant eta
    on the source then transfers to delta on the target.

    Those are the grid values strictly below the inverse modulus m at eta.
    Falls back to m / 2 when no grid value qualifies, and to the target
    diameter when m is unbounded.
    """
    eta = parse_scale(eta, "eta")
    bound = iso.inverse_modulus(eta)
    if is_unbounded(bound):
        return iso.dst.diameter()
    # values[t - 1] is the largest distance below the bound; values[0] is 0
    t = iso.dst.threshold(bound)
    return iso.dst.distance_ranks()[1][t - 1] if t > 1 else bound / 2


@dataclass(frozen=True)
class EntropyComparison:
    isometric: bool
    counts_src: dict
    counts_dst: dict
    forward_ok: bool
    backward_ok: bool
    tables_equal: Optional[bool]


def _transfer_ok(counts, other, grid, n_max, modulus) -> bool:
    """Every count is at most the other side's count at the modulus of its
    scale.  A bounded modulus is a distance of the other space, hence one
    of its grid values, so that count is already in ``other``."""
    for eps in grid:
        scale = modulus(eps)
        if not is_unbounded(scale) and any(
                counts[(n, eps)] > other[(n, scale)]
                for n in range(1, n_max + 1)):
            return False
    return True


def _counts(sys: GeneratingSystem, n_max: int) -> dict:
    """``h_top_table``'s counts by (n, eps); none on one point (no grid)."""
    return {(row.n, row.eps): row.count_lower
            for row in h_top_table(sys, n_max=n_max).rows}


def compare_entropy(sys: GeneratingSystem, iso: SpaceIso,
                    n_max: int = 3) -> EntropyComparison:
    """Separated-count tables on both sides of the bijection, for n from 1
    to ``n_max``.

    For every (n, eps) the source count is bounded by the target count at
    the transferred scale and vice versa.  An eps-separated source set maps
    to a set separated at ``iso.inverse_modulus(eps)``, the least target
    distance among images of source pairs at least eps apart; backwards
    the scale is ``iso.forward_modulus(eps)``.  For an isometric bijection the
    tables agree cell by cell.

    The counts are exact, so past ``EXACT_CLIQUE_CAP`` points nothing is
    conjugated or counted: the refusal names ``htop``, whose greedy bounds
    serve such a model.
    """
    if sys.space.n > EXACT_CLIQUE_CAP:
        raise CapabilityError(
            f"conjugate compares exact separated counts, capped at "
            f"{EXACT_CLIQUE_CAP} points (got {sys.space.n}); "
            "htop gives greedy count bounds on this model")
    conj = conjugate_system(sys, iso)
    eps_grid = sys.space.distance_grid()
    counts_src = _counts(sys, n_max)
    counts_dst = _counts(conj, n_max)
    forward_ok = _transfer_ok(counts_src, counts_dst, eps_grid, n_max,
                              iso.inverse_modulus)
    backward_ok = _transfer_ok(counts_dst, counts_src,
                               iso.dst.distance_grid(), n_max,
                               iso.forward_modulus)

    isometric = iso.is_isometric()
    tables_equal = None
    if isometric:
        tables_equal = counts_src == counts_dst
    return EntropyComparison(isometric=isometric, counts_src=counts_src,
                             counts_dst=counts_dst, forward_ok=forward_ok,
                             backward_ok=backward_ok, tables_equal=tables_equal)
