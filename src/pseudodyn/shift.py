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
from .rational import check_length, parse_rational, parse_scale

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
    eps = parse_scale(eps)
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
    def around(cls, x: ShiftPoint, radius: int) -> "Cylinder":
        return cls(-radius, x.block(-radius, _window(radius)))

    @property
    def interval(self) -> Optional[tuple[int, int]]:
        if not self.block:
            return None
        return (self.start, self.start + len(self.block) - 1)


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
    check_length(n, least=0)
    s = window_radius(eps)
    return Cylinder.around(x, n + s)


@dataclass(frozen=True)
class CylinderSandwich:
    inner: Cylinder            # subset of the true ball
    outer: Optional[Cylinder]  # superset of the true ball; None when eps >= 1


def dyn_ball_cylinder_bounds(x: ShiftPoint, n: int, eps) -> CylinderSandwich:
    """Cylinders bracketing the true closed dynamical ball.

    Inner: agreement out to n + window_radius(eps, 'exact') caps every
    shifted distance at 2^(1 - s) <= eps.  Outer: a disagreement within
    n + m where 2^(-m) > eps already pushes one shifted distance above
    eps, so membership forces agreement there.
    """
    eps = parse_rational(eps)
    check_length(n, least=0)
    s_in = window_radius(eps, mode="exact")
    inner = Cylinder.around(x, n + s_in)
    t = _strict_tail_radius(eps)
    outer = None if t is None else Cylinder.around(x, n + t)
    return CylinderSandwich(inner=inner, outer=outer)


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
    check_length(n)
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


def htop_shift(eps, n: int) -> ShiftSeparationBounds:
    eps = parse_rational(eps)
    u = _largest_single_cost_at_least(eps)
    check_length(n, least=0)
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
                                 rate_upper_log2_coeff=rate_upper)


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
    delta = parse_scale(delta, "delta")
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
