"""Exact probability measures and the expansiveness/entropy verdict suite.

Everything verdict-shaped here is exact rational arithmetic; floats only
appear in rendered entropy columns.  A measure keeps its weights as
integer numerators over one common denominator, so every ball and subset
measure is an integer sum; a ``Fraction`` is built only for what a verdict
reports.  Ergodicity goes through the orbit components of the germ
relation, found by a search over the generator graph, with an exhaustive
bitset oracle retained for cross-checking at small sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Optional

from .dynamics import check_n_max, grid_scales
from .errors import InputError, PreconditionError
from .pseudogroup import GeneratingSystem
from .rational import parse_radius, parse_rational
from .space import FiniteMetricSpace, PointSet

HOMOGENEITY_LADDER_CAP = Fraction(2) ** 20


class FiniteMeasure:
    """Per-point rational weights, nonnegative and summing to one.

    ``nums`` holds the weights as integer numerators over the one common
    denominator ``den``, which every ball and subset measure sums;
    ``weights`` holds them as ``Fraction``s, built on first read when the
    measure was read from a mapping.  ``_cum`` keeps, for each rank-table
    row read so far, its cumulative rank histogram of weights (see
    ``cumulative``), so a ball measure is one lookup."""

    __slots__ = ("space", "den", "nums", "_weights", "_cum")

    def __init__(self, space: FiniteMetricSpace, weights):
        ws = tuple(map(parse_rational, weights))
        if len(ws) != space.n:
            raise InputError("weight vector length must match the space")
        self._set(space, [w.as_integer_ratio() for w in ws])
        self._weights = ws

    def _set(self, space: FiniteMetricSpace, pairs: list) -> None:
        """Validate the reduced ``(numerator, denominator)`` pairs, one per
        point, and keep them over their least common denominator."""
        if any(p < 0 for p, _ in pairs):
            raise InputError("weights must be nonnegative")
        den = math.lcm(*(q for _, q in pairs))
        nums = tuple(p * (den // q) for p, q in pairs)
        if sum(nums) != den:
            raise InputError("weights must sum to 1 "
                             f"(got {Fraction(sum(nums), den)})")
        self.space = space
        self.den = den
        self.nums = nums
        self._cum = {}

    @property
    def weights(self) -> tuple[Fraction, ...]:
        ws = self._weights
        if ws is None:
            den = self.den
            value = {m: Fraction(m, den) for m in set(self.nums)}
            ws = self._weights = tuple(map(value.__getitem__, self.nums))
        return ws

    @classmethod
    def uniform(cls, space: FiniteMetricSpace) -> "FiniteMeasure":
        n = space.n
        return cls(space, [Fraction(1, n)] * n)

    @classmethod
    def point_mass(cls, space: FiniteMetricSpace, x) -> "FiniteMeasure":
        """The Dirac measure at point index ``x``."""
        i = space._point(x)
        return cls(space, [Fraction(1) if j == i else Fraction(0)
                           for j in range(space.n)])

    @classmethod
    def from_dict(cls, space: FiniteMetricSpace, mapping: dict) -> "FiniteMeasure":
        """The weights ``{label: weight}``, zero at every point not named.
        An ASCII 'digits/digits' string with a nonzero denominator is read
        as its two integers; every other weight goes through
        ``parse_rational``.  No ``Fraction`` is built until ``weights`` is
        read."""
        pairs = [(0, 1)] * space.n
        for label, w in mapping.items():
            pairs[space.index(label)] = _weight(w)
        mu = cls.__new__(cls)
        mu._set(space, pairs)
        mu._weights = None
        return mu

    def __call__(self, subset) -> Fraction:
        nums = self.nums
        return Fraction(sum([nums[i] for i in subset]), self.den)

    def cumulative(self, rows) -> list[tuple[int, ...]]:
        """For each row of a rank table, its cumulative rank histogram of
        weights: entry ``r`` is the measure of ``{y : row[y] < r}`` over
        ``den``, for r up to ``max(row) + 1`` (sized from the row, as the
        system's metric may rank past this space's ranks).  Built on the
        first read of a row and kept in ``_cum``, keyed by the row, so rows
        are hashable: pair-table rows are read-only ``bytes`` or tuples."""
        nums, cum = self.nums, self._cum
        out = []
        for row in rows:
            c = cum.get(row)
            if c is None:
                hist = [0] * (max(row) + 1)
                for w, r in zip(nums, row):
                    hist[r] += w
                c = cum[row] = tuple(accumulate(hist, initial=0))
            out.append(c)
        return out

    def ball_numerators(self, rows, t: int) -> list[int]:
        """For each row of a rank table, the measure of the ball
        ``{y : row[y] < t}`` (see ``table_ball``) as a numerator over
        ``den``."""
        return _balls_at(self.cumulative(rows), t)

    def atoms(self) -> PointSet:
        return frozenset(i for i, w in enumerate(self.nums) if w)


def _balls_at(cums, t: int) -> list[int]:
    """Entry ``t`` of each cumulative histogram, or its last entry when
    ``t`` is past it: that ball is the whole space."""
    return [c[t] if t < len(c) else c[-1] for c in cums]


def _weight(w) -> tuple[int, int]:
    """``parse_rational(w).as_integer_ratio()``, with the plain 'p/q'
    string of a model file read as two ASCII digit runs and reduced,
    without a ``Fraction``."""
    if type(w) is str and w.isascii():
        p, slash, q = w.partition("/")
        if slash and p.isdigit() and q.isdigit() and q.strip("0"):
            try:
                p, q = int(p), int(q)
            except ValueError:  # more digits than int() reads: refused below
                pass
            else:
                g = math.gcd(p, q)
                return p // g, q // g
    return parse_rational(w).as_integer_ratio()


# -- invariance and ergodicity -------------------------------------------------


def _same_space(mu: FiniteMeasure, sys: GeneratingSystem) -> None:
    """Every verdict reads ``mu`` at the system's point indices, so a
    measure on other points is an input error."""
    if mu.space is not sys.space and mu.space.points != sys.space.points:
        raise InputError("measure and system live on different spaces")


@dataclass(frozen=True)
class InvarianceReport:
    ok: bool
    witness: Optional[tuple]  # (generator name, point label) on failure


def is_invariant_measure(mu: FiniteMeasure, sys: GeneratingSystem) -> InvarianceReport:
    """Pointwise weight preservation under every generator.

    On a finite space this is equivalent to invariance under the whole
    generated family: weights transport along words one letter at a time.
    """
    _same_space(mu, sys)
    nums = mu.nums
    for g in sys.generators:
        for i, v in enumerate(g.vals):
            if v is None:
                continue
            if nums[i] != nums[v]:
                return InvarianceReport(False, (g.name or repr(g), sys.space.label(i)))
    return InvarianceReport(True, None)


def orbit_components(sys: GeneratingSystem) -> list[PointSet]:
    """Orbit classes of the germ relation; invariant sets are exactly the
    unions of these."""
    return sys.germ_relation().components()


def invariant_sets(sys: GeneratingSystem) -> list[PointSet]:
    """All invariant subsets (every union of orbit components, including
    the empty set).  Exponential in the component count."""
    comps = orbit_components(sys)
    out = []
    for r in range(len(comps) + 1):
        for combo in combinations(comps, r):
            out.append(frozenset().union(*combo) if combo else frozenset())
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def brute_force_invariant_sets(sys: GeneratingSystem) -> list[PointSet]:
    """Exhaustive oracle: test every one of the 2^|X| subsets directly
    against every generator, using bit-parallel subset arithmetic.

    A subset A is invariant iff no generator moves a member of A out of A;
    by the one-letter transport argument this settles invariance under the
    full generated family as well.
    """
    n = sys.space.n
    if n > 22:
        raise InputError("exhaustive invariance oracle is for small spaces")
    total_bits = 1 << n
    all_ones = (1 << total_bits) - 1

    def column(i: int) -> int:
        # bit A of the result is set iff subset-index A contains point i
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        return block * (all_ones // ((1 << period) - 1))

    cols = [column(i) for i in range(n)]
    flags = all_ones
    for g in sys.generators:
        for i, v in enumerate(g.vals):
            if v is None or v == i:
                continue
            flags &= ~(cols[i] & ~cols[v])
    result = []
    a = flags
    while a:
        low = a & -a
        idx = low.bit_length() - 1
        result.append(frozenset(j for j in range(n) if idx >> j & 1))
        a ^= low
    return sorted(result, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class ErgodicityReport:
    ok: bool
    components: list[PointSet]
    witness: Optional[PointSet]  # a component of measure strictly inside (0,1)


def is_ergodic(mu: FiniteMeasure, sys: GeneratingSystem) -> ErgodicityReport:
    """Ergodic iff exactly one orbit component carries full measure."""
    inv = is_invariant_measure(mu, sys)
    if not inv.ok:
        raise PreconditionError(
            f"measure is not invariant (witness {inv.witness})"
        )
    comps = orbit_components(sys)
    nums = mu.nums
    for comp in comps:
        m = sum([nums[i] for i in comp])
        if 0 < m < mu.den:
            return ErgodicityReport(False, comps, comp)
    return ErgodicityReport(True, comps, None)


# -- local measure entropy ------------------------------------------------------


@dataclass(frozen=True)
class EntropyCell:
    eps: Fraction
    n: int
    ball_measure: Fraction
    value: float  # -(1/n) log mu(ball); +inf on zero-measure balls


@dataclass(frozen=True)
class LocalEntropyTable:
    x: object
    cells: list[EntropyCell]
    limit: float  # 0.0 when the stabilized ball keeps positive measure


def _rate(m: Fraction, n: int) -> float:
    """-(1/n) log m, +inf at m = 0.  A positive m below float range takes
    the logarithms of its numerator and denominator instead."""
    if m == 0:
        return math.inf
    if float(m) == 0:
        return -(math.log(m.numerator) - math.log(m.denominator)) / n
    return -math.log(m) / n


def local_entropy(mu: FiniteMeasure, sys: GeneratingSystem, x,
                  eps_grid=None, n_max: int | None = None) -> LocalEntropyTable:
    """Table of -(1/n) log mu(B_n(x, eps)) over the (eps, n) grid, at
    point index ``x``.

    Balls stabilize with n on a finite space, so the large-n limit is 0
    whenever the stabilized ball keeps positive measure and +inf otherwise;
    liminf and limsup coincide.  The default ``n_max`` is the pair
    fixpoint level L, from which every ball is the stabilized one.
    """
    _same_space(mu, sys)
    space = sys.space
    xi = space._point(x)
    n_max = sys.fixpoint_level if n_max is None else check_n_max(n_max)
    scales = sorted(grid_scales(space, eps_grid))
    cums = mu.cumulative([sys.constraint_table(n)[xi]
                          for n in range(1, n_max + 1)])
    cells = []
    for eps, t in scales:
        for n, num in enumerate(_balls_at(cums, t), 1):
            m = Fraction(num, mu.den)
            cells.append(EntropyCell(eps=eps, n=n, ball_measure=m,
                                     value=_rate(m, n)))
    # the smallest scale comes first; with none, the stabilized ball is {x}
    stab_row = sys.constraint_table()[xi]
    t_min = scales[0][1] if scales else 1
    stab_m = mu.ball_numerators((stab_row,), t_min)[0]
    limit = 0.0 if stab_m > 0 else math.inf
    return LocalEntropyTable(x=space.label(xi), cells=cells, limit=limit)


# -- homogeneity -----------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneityWitness:
    delta: Fraction
    c_exact: Fraction
    c_ladder: Fraction


@dataclass(frozen=True)
class HomogeneityReport:
    ok: bool
    witnesses: dict
    counterexample: Optional[tuple]  # (eps, x label, y label, n)


def is_homogeneous(mu: FiniteMeasure, sys: GeneratingSystem, eps_grid=None,
                   n_max: int | None = None) -> HomogeneityReport:
    """Search, per grid eps, for (delta, c) with
    mu(B_n(y, delta)) <= c * mu(B_n(x, eps)) for all x, y, n.

    Every ball holds its center (a table keeps the zero diagonal of the
    ranks, and a scale's open threshold is at least 1), so a level with
    an eps-ball of measure 0 fails eps for every (delta, c); its y is read
    at the smallest grid value other than eps.  Otherwise balls grow with
    delta, so delta = eps is tried, then the grid values below eps
    downward; c is the exact maximal measure ratio, capped by the 2^20
    ladder.  Each level's rows are read once, as cumulative histograms, so
    a ball measure at any threshold is one index per row.  The search runs
    on integers: ``grid[r - 1]`` has the open threshold r, ratios compare
    by cross-multiplying, and ``Fraction``s are built only for a witness.
    """
    _same_space(mu, sys)
    space = sys.space
    level = sys.fixpoint_level
    grid = space.distance_grid()
    n_max = level if n_max is None else check_n_max(n_max)
    scales = grid_scales(space, eps_grid)
    # every n past the fixpoint reads the same table, so adds no cell
    n_range = range(1, min(n_max, level) + 1)
    cap = HOMOGENEITY_LADDER_CAP.numerator
    levels = [mu.cumulative(sys.constraint_table(n)) for n in n_range]
    witnesses: dict = {}
    counterexample = None
    for eps, t_eps in scales:
        lows, highs = [], []  # the extreme eps-ball measures at each level
        for n, cums in zip(n_range, levels):
            denom = _balls_at(cums, t_eps)
            lo = min(denom)
            if lo == 0:
                if counterexample is None:
                    t_y = 1 + (len(grid) > 1 and grid[0] == eps)
                    numer = _balls_at(cums, t_y)
                    counterexample = (eps, space.label(denom.index(0)),
                                      space.label(numer.index(max(numer))), n)
                break
            lows.append(lo)
            highs.append(max(denom))
        else:
            # delta = eps at threshold t_eps, then grid[t - 1] downward
            for t in range(t_eps, 0, -1):
                if t < t_eps:
                    highs = [max(_balls_at(cums, t)) for cums in levels]
                cp, cq = 0, 1  # the largest ratio hi / lo
                for hi, lo in zip(highs, lows):
                    if hi * cq > cp * lo:
                        cp, cq = hi, lo
                if cp <= cap * cq:
                    break
            else:
                counterexample = counterexample or (eps, None, None, None)
                continue
            if cp <= cq:
                c_exact, ladder = Fraction(1), 1
            else:
                c_exact = Fraction(cp, cq)
                ladder = 1 << (-(-cp // cq) - 1).bit_length()
            witnesses[eps] = HomogeneityWitness(
                delta=eps if t == t_eps else grid[t - 1],
                c_exact=c_exact, c_ladder=Fraction(ladder))
    return HomogeneityReport(ok=counterexample is None, witnesses=witnesses,
                             counterexample=counterexample)


# -- expansiveness ----------------------------------------------------------------


@dataclass(frozen=True)
class ExpansivenessVerdict:
    """Exact Bowen-ball measures and the induced classification.

    ``zero_set`` collects the centers whose Bowen ball has measure zero;
    :func:`expansiveness_verdict` says why no finite measure is expansive.
    """

    delta: Fraction
    classification: str  # 'expansive' | 'weakly-expansive-only' | 'neither'
    ball_measures: dict
    zero_set: PointSet
    atoms: PointSet
    note: str = ""


def expansiveness_verdict(mu: FiniteMeasure, sys: GeneratingSystem,
                          delta) -> ExpansivenessVerdict:
    """Always ``"neither"``: a ``FiniteMeasure`` sums to 1, so it has an
    atom, and a closed ball holds its center (``threshold(delta,
    closed=True)`` is at least 1 and ``table[x][x]`` is 0).  So every atom
    has a ball of positive measure, and ``zero_set`` holds only points of
    weight 0."""
    _same_space(mu, sys)
    delta = parse_radius(delta)
    space = sys.space
    t = space.threshold(delta, closed=True)
    nums = mu.ball_numerators(sys.constraint_table(), t)
    values = {m: Fraction(m, mu.den) for m in set(nums)}
    return ExpansivenessVerdict(
        delta=delta, classification="neither",
        ball_measures={space.label(xi): values[m]
                       for xi, m in enumerate(nums)},
        zero_set=frozenset(xi for xi, m in enumerate(nums) if m == 0),
        atoms=mu.atoms(),
        note="atoms pin positive ball measure at their own centers, so no "
             "finite-space measure is expansive at any scale")
