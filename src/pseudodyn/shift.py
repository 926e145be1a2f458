"""Exact computations on the full binary shift.

Points are finitely supported over a background symbol, which keeps every
distance, cylinder and measure an exact rational.  The metric weights a
disagreement at coordinate k by 2^(-|k|) (summable on both sides, total
diameter 3), so agreement on a window [-m, m] bounds the distance by
2^(1-m) and a single disagreement at k costs exactly 2^(-|k|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CapabilityError, InputError
from .rational import parse_rational

LOG2 = math.log(2)

# The widest window, as a radius R: at p = 1/2 a window of 2R + 1
# coordinates has measure 2^-(2R+1), and R = 7000 keeps that under the
# 4,300 digits CPython prints in an integer by default.
WINDOW_RADIUS_CAP = 7000


def _window(radius: int) -> int:
    """``radius``, once it is checked against ``WINDOW_RADIUS_CAP``."""
    if radius > WINDOW_RADIUS_CAP:
        raise CapabilityError(
            f"window radius {radius} exceeds {WINDOW_RADIUS_CAP}, past which "
            "values outgrow the 4,300 digits Python prints in an integer by "
            "default")
    return radius


@dataclass(frozen=True)
class ShiftPoint:
    """A bi-infinite binary sequence: an explicit window on [-K, K] plus a
    constant background symbol outside it."""

    window: tuple[int, ...]
    background: int = 0

    def __post_init__(self):
        if len(self.window) % 2 != 1:
            raise InputError("window must cover [-K, K], so its length is odd")
        if any(s not in (0, 1) for s in self.window):
            raise InputError("symbols must be 0 or 1")
        if self.background not in (0, 1):
            raise InputError("background symbol must be 0 or 1")

    @classmethod
    def zero(cls) -> "ShiftPoint":
        return cls((0,), 0)

    @classmethod
    def constant(cls, symbol: int) -> "ShiftPoint":
        return cls((symbol,), symbol)

    @classmethod
    def from_string(cls, block: str, center: int = 0) -> "ShiftPoint":
        """Place ``block`` so that its middle character sits at ``center``,
        over the background 0."""
        if set(block) - {"0", "1"}:
            raise InputError(f"symbols must be 0 or 1 (got {block!r})")
        symbols = tuple(int(ch) for ch in block)
        if not symbols:
            return cls.zero()
        mid = len(symbols) // 2
        start = center - mid
        lo = min(start, -start - len(symbols) + 1)
        hi = max(start + len(symbols) - 1, -lo)
        radius = _window(max(-lo, hi))
        window = []
        for k in range(-radius, radius + 1):
            if start <= k < start + len(symbols):
                window.append(symbols[k - start])
            else:
                window.append(0)
        return cls(tuple(window))

    @property
    def radius(self) -> int:
        return len(self.window) // 2

    def at(self, k: int) -> int:
        r = self.radius
        if -r <= k <= r:
            return self.window[k + r]
        return self.background

    def shifted(self, j: int) -> "ShiftPoint":
        """Apply the shift j times: coordinate k of the result reads k+j."""
        r = self.radius + abs(j)
        return ShiftPoint(tuple(self.at(k + j) for k in range(-r, r + 1)),
                          self.background)

    def block(self, a: int, b: int) -> tuple[int, ...]:
        r = self.radius
        if a > r or b < -r:
            return (self.background,) * (b - a + 1)
        left = (self.background,) * max(0, -r - a)
        right = (self.background,) * max(0, b - r)
        lo = max(a, -r)
        hi = min(b, r)
        return left + self.window[lo + r:hi + r + 1] + right

    def flipped(self, k: int) -> "ShiftPoint":
        r = max(self.radius, abs(k))
        window = [self.at(i) for i in range(-r, r + 1)]
        window[k + r] ^= 1
        return ShiftPoint(tuple(window), self.background)


def shift_distance(x: ShiftPoint, y: ShiftPoint) -> Fraction:
    """Sum of 2^(-|k|) over the disagreement coordinates, exactly."""
    r = max(x.radius, y.radius)
    total = Fraction(0)
    for k in range(-r, r + 1):
        if x.at(k) != y.at(k):
            total += Fraction(1, 2 ** abs(k))
    if x.background != y.background:
        # both one-sided geometric tails beyond the joint window
        total += 2 * Fraction(1, 2 ** r)
    return total


def _dyadic_exponent(c: int, eps: Fraction, strict: bool) -> int:
    """The least m >= 0 with c / 2^m < eps (``strict``) or <= eps, exactly.

    With eps = p/q, c/2^m < eps iff p * 2^m > c * q, and comparing bit
    lengths leaves one candidate and its successor."""
    if eps <= 0:
        raise InputError("scale must be positive")
    a, b = c * eps.denominator, eps.numerator
    m = max(0, a.bit_length() - b.bit_length())
    if (b << m <= a) if strict else (b << m < a):
        m += 1
    return m


def window_radius(eps, mode: str = "paper") -> int:
    """Window radius for a distance scale.

    ``paper``: the smallest m with 2^(-m) < eps (a single disagreement
    outside [-m, m] stays below eps).  ``exact``: the smallest m such that
    agreement on [-m, m] forces distance <= eps, i.e. 2^(1-m) <= eps.
    """
    eps = parse_rational(eps)
    if mode == "paper":
        return _dyadic_exponent(1, eps, strict=True)
    if mode == "exact":
        return _dyadic_exponent(2, eps, strict=False)
    raise InputError(f"unknown mode {mode!r}")


def _largest_single_cost_at_least(eps: Fraction) -> Optional[int]:
    """max m >= 0 with 2^(-m) >= eps, or None when even m = 0 fails."""
    m = _dyadic_exponent(1, eps, strict=True) - 1
    return None if m < 0 else m


def _strict_tail_radius(eps: Fraction) -> Optional[int]:
    """max m >= 0 with 2^(-m) > eps, or None (cost of one disagreement must
    exceed eps for the coordinate to be forced)."""
    m = _dyadic_exponent(1, eps, strict=False) - 1
    return None if m < 0 else m


@dataclass(frozen=True)
class Cylinder:
    """The set of sequences matching ``block`` on positions
    [start, start + len(block) - 1]; an empty block is the whole space."""

    start: int
    block: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (0, 1) for s in self.block):
            raise InputError("symbols must be 0 or 1")

    @classmethod
    def full(cls) -> "Cylinder":
        return cls(0, ())

    @classmethod
    def around(cls, x: ShiftPoint, radius: int) -> "Cylinder":
        return cls(-radius, x.block(-radius, _window(radius)))

    @property
    def interval(self) -> Optional[tuple[int, int]]:
        if not self.block:
            return None
        return (self.start, self.start + len(self.block) - 1)

    def __len__(self) -> int:
        return len(self.block)

    def contains(self, x: ShiftPoint) -> bool:
        return all(x.at(self.start + i) == s for i, s in enumerate(self.block))

    def shifted_preimage(self, j: int = 1) -> "Cylinder":
        """Preimage under the j-fold shift: the same block read j further."""
        return Cylinder(self.start + j, self.block)


@dataclass(frozen=True)
class BernoulliSpec:
    """Product measure: symbol 0 has probability p, symbol 1 has 1 - p."""

    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", parse_rational(self.p))
        if not (0 < self.p < 1):
            raise InputError("p must lie strictly between 0 and 1")


def cylinder_measure(c: Cylinder, spec: BernoulliSpec) -> Fraction:
    zeros = c.block.count(0)
    ones = len(c.block) - zeros
    return spec.p ** zeros * (1 - spec.p) ** ones


def dyn_ball_cylinder(x: ShiftPoint, n: int, eps) -> Cylinder:
    """The dynamical ball as a cylinder on [-(n+s), n+s].

    With words of length n the shift exponents range over [-n, n], so the
    scale-s window of each shifted point pins the coordinates out to n+s.
    """
    eps = parse_rational(eps)
    if n < 0:
        raise InputError("n must be nonnegative")
    s = window_radius(eps)
    return Cylinder.around(x, n + s)


@dataclass(frozen=True)
class CylinderSandwich:
    inner: Cylinder            # subset of the true ball
    outer: Optional[Cylinder]  # superset of the true ball; None when eps >= 1
    inner_radius: int
    outer_radius: Optional[int]


def dyn_ball_cylinder_bounds(x: ShiftPoint, n: int, eps) -> CylinderSandwich:
    """Cylinders bracketing the true closed dynamical ball.

    Inner: agreement out to n + window_radius(eps, 'exact') caps every
    shifted distance at 2^(1 - s) <= eps.  Outer: a disagreement within
    n + m where 2^(-m) > eps already pushes one shifted distance above
    eps, so membership forces agreement there.
    """
    eps = parse_rational(eps)
    s_in = window_radius(eps, mode="exact")
    inner = Cylinder.around(x, n + s_in)
    t = _strict_tail_radius(eps)
    outer = None if t is None else Cylinder.around(x, n + t)
    return CylinderSandwich(inner=inner, outer=outer,
                            inner_radius=n + s_in,
                            outer_radius=None if t is None else n + t)


def ball_contains(x: ShiftPoint, y: ShiftPoint, n: int, eps,
                  closed: bool = True) -> bool:
    """Direct membership test: every shift exponent in [-n, n] keeps the
    image distance within eps.  Brute-force oracle for the cylinder forms."""
    eps = parse_rational(eps)
    for k in range(-n, n + 1):
        d = shift_distance(x.shifted(k), y.shifted(k))
        if (d > eps) if closed else (d >= eps):
            return False
    return True


@dataclass(frozen=True)
class ShiftEntropyValue:
    eps: Fraction
    n: int
    s: int
    ball: Cylinder
    ball_measure: Fraction
    log2_coeff: Optional[Fraction]  # value = coeff * log 2, exact (p = 1/2)
    value: float
    limit_log2_coeff: Optional[Fraction]
    limit_value: Optional[float]


def measure_entropy_shift(spec: BernoulliSpec, eps,
                          n: int) -> ShiftEntropyValue:
    """-(1/n) log mu(B_n(0, eps)) on the shift, at the zero point.

    For p = 1/2 the value is ((2(n+s)+1)/n) log 2 exactly, independent of
    the center, and the n -> infinity limit is 2 log 2.  For general p the
    per-n value is computed from the cylinder measure at the zero point.
    """
    eps = parse_rational(eps)
    if n < 1:
        raise InputError("n must be at least 1")
    ball = dyn_ball_cylinder(ShiftPoint.zero(), n, eps)
    s = window_radius(eps)
    m = cylinder_measure(ball, spec)
    if spec.p == Fraction(1, 2):
        coeff = Fraction(2 * (n + s) + 1, n)
        return ShiftEntropyValue(eps=eps, n=n, s=s, ball=ball, ball_measure=m,
                                 log2_coeff=coeff, value=float(coeff) * LOG2,
                                 limit_log2_coeff=Fraction(2),
                                 limit_value=2 * LOG2)
    value = -(math.log(m.numerator) - math.log(m.denominator)) / n
    return ShiftEntropyValue(eps=eps, n=n, s=s, ball=ball, ball_measure=m,
                             log2_coeff=None, value=value,
                             limit_log2_coeff=None, limit_value=None)


@dataclass(frozen=True)
class ShiftSeparationBounds:
    """Certified bracket for the maximal (n, eps)-separated cardinality.

    ``lower`` counts the explicit construction: one representative per
    block on [-(n+u), n+u] with 2^(-u) >= eps, any two of which some shift
    exponent pushes at least eps apart.  ``upper`` is the pigeonhole bound:
    points sharing a block on [-(n+v), n+v] with 2^(1-v) < eps are never
    separated.  Both growth rates converge to 2 log 2.
    """

    eps: Fraction
    n: int
    lower: int
    upper: int
    rate_lower_log2_coeff: Optional[Fraction]
    rate_upper_log2_coeff: Optional[Fraction]
    limit_log2_coeff: Fraction


def htop_shift(eps, n: int) -> ShiftSeparationBounds:
    eps = parse_rational(eps)
    u = _largest_single_cost_at_least(eps)
    if n < 0:
        raise InputError("n must be nonnegative")
    m = _dyadic_exponent(2, eps, strict=True)
    upper = 2 ** (2 * _window(n + m) + 1)
    lower = 1 if u is None else 2 ** (2 * (n + u) + 1)
    rate_lower = None
    rate_upper = None
    if n >= 1:
        if u is not None:
            rate_lower = Fraction(2 * (n + u) + 1, n)
        rate_upper = Fraction(2 * (n + m) + 1, n)
    return ShiftSeparationBounds(eps=eps, n=n, lower=lower, upper=upper,
                                 rate_lower_log2_coeff=rate_lower,
                                 rate_upper_log2_coeff=rate_upper,
                                 limit_log2_coeff=Fraction(2))


def separated_witness_points(n: int, eps) -> list[ShiftPoint]:
    """The explicit separated family behind the lower bound: every block on
    [-(n+u), n+u] over the background 0."""
    eps = parse_rational(eps)
    u = _largest_single_cost_at_least(eps)
    if u is None:
        return [ShiftPoint.zero()]
    radius = n + u
    width = 2 * radius + 1
    points = []
    for code in range(2 ** width):
        window = tuple((code >> i) & 1 for i in range(width))
        points.append(ShiftPoint(window))
    return points


def are_separated(x: ShiftPoint, y: ShiftPoint, n: int, eps) -> bool:
    eps = parse_rational(eps)
    return any(
        shift_distance(x.shifted(k), y.shifted(k)) >= eps
        for k in range(-n, n + 1)
    )


@dataclass(frozen=True)
class ShiftBowenReport:
    """Bowen ball on the shift, with the nested-cylinder certificate.

    For delta < 1 any single disagreement at coordinate c already costs 1
    at shift exponent c, so the ball is the singleton {x}; its measure is
    squeezed under any Bernoulli measure by block measures that shrink
    geometrically.  For delta >= 1 the single-coordinate flip stays within
    delta at every exponent, so the singleton claim genuinely fails.
    """

    delta: Fraction
    singleton: bool
    measure_zero: Optional[bool]
    measure_bounds: list
    non_singleton_witness: Optional[ShiftPoint]
    note: str = ""


def bowen_ball_shift(x: ShiftPoint, delta,
                     spec: BernoulliSpec | None = None) -> ShiftBowenReport:
    """The Bowen delta-ball around ``x``.  A singleton carries the
    measures of its outer blocks of width 2(n+t)+1 for n = 1..8."""
    delta = parse_rational(delta)
    if delta <= 0:
        raise InputError("delta must be positive")
    spec = spec or BernoulliSpec(Fraction(1, 2))
    t = _strict_tail_radius(delta)
    if t is not None:
        q = max(spec.p, 1 - spec.p)
        bounds = [(n, q ** (2 * _window(n + t) + 1)) for n in range(1, 9)]
        return ShiftBowenReport(delta=delta, singleton=True,
                                measure_zero=True, measure_bounds=bounds,
                                non_singleton_witness=None,
                                note="nested outer cylinders shrink to the "
                                     "center; their measures decay "
                                     "geometrically to 0")
    flip = x.flipped(0)
    return ShiftBowenReport(delta=delta, singleton=False,
                            measure_zero=None, measure_bounds=[],
                            non_singleton_witness=flip,
                            note="a single flipped coordinate stays within "
                                 "delta under every shift exponent, so the "
                                 "ball is not a singleton at this scale")


@dataclass(frozen=True)
class ShiftExpansivenessVerdict:
    delta: Fraction
    classification: str  # 'expansive' | 'not-certified'
    certificate: Optional[ShiftBowenReport]

    @property
    def expansive(self) -> bool:
        return self.classification == "expansive"

    @property
    def weakly_expansive(self) -> bool:
        return self.expansive


def shift_expansiveness_verdict(spec: BernoulliSpec, delta) -> ShiftExpansivenessVerdict:
    """Expansive for any delta in (0, 1): every Bowen ball is a singleton of
    measure zero, uniformly in the center (the certificate does not depend
    on the center's symbols)."""
    delta = parse_rational(delta)
    report = bowen_ball_shift(ShiftPoint.zero(), delta, spec=spec)
    if report.singleton and report.measure_zero:
        return ShiftExpansivenessVerdict(delta=delta, classification="expansive",
                                         certificate=report)
    return ShiftExpansivenessVerdict(delta=delta, classification="not-certified",
                                     certificate=report)


# -- statement-level reports -----------------------------------------------------


@dataclass(frozen=True)
class ShiftInvarianceReport:
    invariant: bool
    ergodic: bool
    cylinders_checked: int
    mixing_pairs_checked: int
    note: str


def bernoulli_invariance_report(spec: BernoulliSpec,
                                max_block: int = 5) -> ShiftInvarianceReport:
    """Exact invariance and independence checks for the product measure.

    Invariance: shifting a cylinder's interval leaves its measure fixed
    (checked on every block up to ``max_block``).  Independence: cylinders
    on disjoint intervals multiply exactly, which forces trivial invariant
    sets (ergodicity) for the product measure.
    """
    checked = 0
    for width in range(1, max_block + 1):
        for code in range(2 ** width):
            block = tuple((code >> i) & 1 for i in range(width))
            c = Cylinder(-(width // 2), block)
            m = cylinder_measure(c, spec)
            for j in (-2, -1, 1, 2):
                if cylinder_measure(c.shifted_preimage(j), spec) != m:
                    return ShiftInvarianceReport(False, False, checked, 0,
                                                 "shift moved a cylinder measure")
            checked += 1
    mixing = 0
    for w1 in range(1, 4):
        for c1 in range(2 ** w1):
            for w2 in range(1, 4):
                for c2 in range(2 ** w2):
                    b1 = tuple((c1 >> i) & 1 for i in range(w1))
                    b2 = tuple((c2 >> i) & 1 for i in range(w2))
                    gap = w1 + 3  # second interval starts past the first
                    # sum over the free symbols between the two intervals
                    # for the exact product law
                    lhs = Fraction(0)
                    for fill in range(2 ** (gap - w1)):
                        mid = tuple((fill >> i) & 1 for i in range(gap - w1))
                        lhs += cylinder_measure(Cylinder(0, b1 + mid + b2), spec)
                    rhs = (cylinder_measure(Cylinder(0, b1), spec)
                           * cylinder_measure(Cylinder(gap, b2), spec))
                    if lhs != rhs:
                        return ShiftInvarianceReport(True, False, checked, mixing,
                                                     "independence failed")
                    mixing += 1
    return ShiftInvarianceReport(True, True, checked, mixing,
                                 "cylinder measures are shift-invariant and "
                                 "multiply across disjoint windows")


@dataclass(frozen=True)
class ShiftHomogeneityReport:
    ok: bool
    delta_rule: str
    c: Fraction
    tuples_checked: int
    failure: Optional[tuple]


def shift_homogeneity_check(spec: BernoulliSpec, tuples) -> ShiftHomogeneityReport:
    """Verify mu(B_n(y, eps)) <= 1 * mu(B_n(x, eps)) exactly on the given
    (x, y, n, eps) tuples; for p = 1/2 both sides are equal, so delta = eps
    and c = 1 witness homogeneity."""
    checked = 0
    for x, y, n, eps in tuples:
        bx = cylinder_measure(dyn_ball_cylinder(x, n, eps), spec)
        by = cylinder_measure(dyn_ball_cylinder(y, n, eps), spec)
        if by > bx:
            return ShiftHomogeneityReport(False, "delta = eps", Fraction(1),
                                          checked, (x, y, n, eps))
        checked += 1
    return ShiftHomogeneityReport(True, "delta = eps", Fraction(1), checked, None)


@dataclass(frozen=True)
class ShiftCriterionReport:
    invariant: bool
    ergodic: bool
    homogeneous: bool
    entropy_log2_coeff: Fraction
    entropy_positive: bool
    conclusion_weakly_expansive: bool
    violated: bool


def shift_entropy_criterion_report(spec: BernoulliSpec | None = None,
                                   delta=Fraction(1, 2)) -> ShiftCriterionReport:
    """The substantive instance of the entropy criterion: all hypotheses
    hold exactly on the shift and the conclusion is certified."""
    spec = spec or BernoulliSpec(Fraction(1, 2))
    if spec.p != Fraction(1, 2):
        raise InputError("the closed-form criterion run is for p = 1/2")
    inv = bernoulli_invariance_report(spec, max_block=3)
    tuples = [(ShiftPoint.zero(), ShiftPoint.constant(1), n, eps)
              for n in (1, 2, 5) for eps in (Fraction(3, 5), Fraction(1, 10))]
    hom = shift_homogeneity_check(spec, tuples)
    verdict = shift_expansiveness_verdict(spec, delta)
    coeff = measure_entropy_shift(spec, delta, 1).limit_log2_coeff
    positive = coeff > 0
    violated = (inv.invariant and inv.ergodic and hom.ok and positive
                and not verdict.weakly_expansive)
    return ShiftCriterionReport(invariant=inv.invariant, ergodic=inv.ergodic,
                                homogeneous=hom.ok, entropy_log2_coeff=coeff,
                                entropy_positive=positive,
                                conclusion_weakly_expansive=verdict.weakly_expansive,
                                violated=violated)


@dataclass(frozen=True)
class ShiftUpgradeReport:
    rho: Fraction
    hypothesis: bool
    conclusion: bool
    violated: bool
    note: str


def shift_upgrade_report(rho=Fraction(1, 2),
                         spec: BernoulliSpec | None = None) -> ShiftUpgradeReport:
    """Weak-to-strong upgrade on the shift with cores equal to the whole
    space: the core-restricted system coincides with the original, the
    hypothesis (weak expansiveness at rho) holds with an exact certificate,
    and so does the conclusion (expansiveness at rho/2)."""
    rho = parse_rational(rho)
    if not 0 < rho < 1:
        raise InputError("rho must lie in (0, 1) for the certified run")
    spec = spec or BernoulliSpec(Fraction(1, 2))
    hyp = shift_expansiveness_verdict(spec, rho).weakly_expansive
    concl = shift_expansiveness_verdict(spec, rho / 2).expansive
    return ShiftUpgradeReport(rho=rho, hypothesis=hyp, conclusion=concl,
                              violated=hyp and not concl,
                              note="generators are total, cores are the "
                                   "whole space; the compacted system "
                                   "coincides with the original")
