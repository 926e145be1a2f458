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
from itertools import combinations, compress
from typing import Optional

from .dynamics import check_n_max
from .errors import InputError, PreconditionError
from .pseudogroup import GeneratingSystem, below_flags
from .rational import parse_radius, parse_rational
from .space import FiniteMetricSpace, PointSet

HOMOGENEITY_LADDER_CAP = Fraction(2) ** 20


class FiniteMeasure:
    """Per-point rational weights, nonnegative and summing to one.

    ``nums`` holds the weights as integer numerators over the one common
    denominator ``den``, which every ball and subset measure sums;
    ``weights`` holds them as ``Fraction``s, built on first read when the
    measure was read from a mapping."""

    __slots__ = ("space", "den", "nums", "_weights")

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

    def ball_numerators(self, rows, t: int, reuse=None) -> list[int]:
        """For each row of a rank table, the measure of the ball
        ``{y : row[y] < t}`` (see ``table_ball``) as a numerator over
        ``den``.  ``reuse`` is ``(old_rows, old)``, the numerators ``old``
        of another table's ``old_rows`` at the same ``t``: a row that is
        the same object as its old row keeps its old numerator (pair
        tables share the rows a level did not raise)."""
        nums = self.nums
        if reuse is None:
            return [sum(compress(nums, flags))
                    for flags in below_flags(rows, t)]
        old_rows, old = reuse
        fresh = iter(below_flags(
            [row for row, old_row in zip(rows, old_rows) if row is not old_row],
            t))
        return [m if row is old_row else sum(compress(nums, next(fresh)))
                for row, old_row, m in zip(rows, old_rows, old)]

    def atoms(self) -> PointSet:
        return frozenset(i for i, w in enumerate(self.nums) if w)


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


def _scales(eps_grid) -> list[Fraction]:
    """The parsed grid; a scale <= 0 has empty open balls, so it is an
    input error rather than a zero ball measure."""
    scales = [parse_rational(e) for e in eps_grid]
    if any(e <= 0 for e in scales):
        raise InputError("scale must be positive")
    return scales


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
    if n_max is None:
        n_max = sys.fixpoint_level
    else:
        check_n_max(n_max)
    if eps_grid is None:
        eps_grid = space.distance_grid()
    eps_grid = _scales(eps_grid)
    if not eps_grid or n_max < 1:
        raise InputError("need a nonempty eps grid and n_max >= 1")
    cells = []
    scales = sorted(eps_grid)
    thresholds = [space.threshold(eps) for eps in scales]
    for eps, t in zip(scales, thresholds):
        old = None
        for n in range(1, n_max + 1):
            row = sys.constraint_table(n)[xi]
            if row is not old:  # a row no level raised keeps its measure
                old = row
                m = Fraction(mu.ball_numerators((row,), t)[0], mu.den)
            cells.append(EntropyCell(eps=eps, n=n, ball_measure=m,
                                     value=_rate(m, n)))
    # the smallest scale comes first
    stab_row = sys.constraint_table()[xi]
    stab_m = mu.ball_numerators((stab_row,), thresholds[0])[0]
    limit = 0.0 if stab_m > 0 else math.inf
    return LocalEntropyTable(x=space.label(xi), cells=cells, limit=limit)


# -- homogeneity -----------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneityWitness:
    eps: Fraction
    delta: Fraction
    c_exact: Fraction
    c_ladder: Fraction


@dataclass(frozen=True)
class HomogeneityReport:
    ok: bool
    witnesses: dict
    degenerate: bool  # some comparison cell had measure zero on both sides
    counterexample: Optional[tuple]  # (eps, x label, y label, n)


def is_homogeneous(mu: FiniteMeasure, sys: GeneratingSystem, eps_grid=None,
                   n_max: int | None = None) -> HomogeneityReport:
    """Search, per grid eps, for (delta, c) with
    mu(B_n(y, delta)) <= c * mu(B_n(x, eps)) for all x, y, n.

    delta = eps is tried first, then the distance grid downward; c is the
    exact maximal measure ratio, capped by the 2^20 search ladder.  Cells
    where both sides vanish pass vacuously and set the degenerate flag.
    The ball measures at level n sum only the rows level n raised; every
    other row keeps its level n - 1 measure.  The search runs on integers:
    the grid value ``grid[r - 1]`` has the open threshold r, ratios
    compare by cross-multiplying, and ``Fraction``s are built only for a
    witness.
    """
    _same_space(mu, sys)
    space = sys.space
    level = sys.fixpoint_level
    grid = space.distance_grid()
    if eps_grid is None:
        eps_grid = grid
    eps_grid = _scales(eps_grid)
    if n_max is None:
        n_max = level
    if not eps_grid or n_max < 1:
        raise InputError("need a nonempty eps grid and n_max >= 1")
    # every n past the fixpoint reads the same table, so adds no cell
    n_range = range(1, min(n_max, level) + 1)
    cap = HOMOGENEITY_LADDER_CAP.numerator
    rows: dict[tuple[int, int], list[int]] = {}

    def measures(t: int, n: int) -> list[int]:
        """Open-ball measures around every point, as numerators over
        ``mu.den``, once per threshold and n."""
        row = rows.get((t, n))
        if row is None:
            # n runs up from 1 for every delta, so level n - 1 is summed
            reuse = None
            if n > 1:
                reuse = (sys.constraint_table(n - 1), rows[t, n - 1])
            row = rows[t, n] = mu.ball_numerators(sys.constraint_table(n), t,
                                                  reuse)
        return row

    witnesses: dict = {}
    degenerate = False
    counterexample = None
    ok = True
    for eps in eps_grid:
        t_eps = space.threshold(eps)
        # delta = eps, then every other grid value downward, by rank
        skip = t_eps if t_eps <= len(grid) and grid[t_eps - 1] == eps else 0
        candidates = [(eps, t_eps)] + [(grid[r - 1], r)
                                       for r in range(len(grid), 0, -1)
                                       if r != skip]
        found = None
        fail_cell = None
        for delta, t_delta in candidates:
            cp, cq = 0, 1  # the largest ratio hi / lo so far
            feasible = True
            for n in n_range:
                denom = measures(t_eps, n)
                numer = measures(t_delta, n)
                lo = min(denom)
                hi = max(numer)
                if lo == 0:
                    if hi == 0:
                        degenerate = True
                        continue
                    feasible = False
                    xi = denom.index(lo)
                    yi = numer.index(hi)
                    fail_cell = (eps, space.label(xi), space.label(yi), n)
                    break
                if hi * cq > cp * lo:
                    cp, cq = hi, lo
            if not feasible:
                continue
            if cp > cap * cq:
                fail_cell = fail_cell or (eps, None, None, None)
                continue
            if cp <= cq:
                c_exact, ladder = Fraction(1), 1
            else:
                c_exact = Fraction(cp, cq)
                ladder = 1 << (-(-cp // cq) - 1).bit_length()
            found = HomogeneityWitness(eps=eps, delta=delta, c_exact=c_exact,
                                       c_ladder=Fraction(ladder))
            break
        if found is None:
            ok = False
            counterexample = counterexample or fail_cell
        else:
            witnesses[eps] = found
    return HomogeneityReport(ok=ok, witnesses=witnesses, degenerate=degenerate,
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
