import math
import random
import signal
from fractions import Fraction
from itertools import product

import pytest

from pseudodyn import (BernoulliSpec, Cylinder, InputError, ShiftPoint,
                       bowen_ball_shift, cylinder_measure, dyn_ball_cylinder,
                       dyn_ball_cylinder_bounds, htop_shift,
                       measure_entropy_shift, shift_distance, window_radius)
from pseudodyn.shift import _largest_single_cost_at_least, _strict_tail_radius

from conftest import homogeneous

HALF = BernoulliSpec(Fraction(1, 2))
ONES = ShiftPoint((1,), 1)


def blocks(width):
    return list(product((0, 1), repeat=width))


def random_point(rng, radius=5):
    return ShiftPoint(tuple(rng.randint(0, 1) for _ in range(2 * radius + 1)),
                      rng.randint(0, 1))


# -- brute-force references for the closed forms ------------------------


def shifted(x, j):
    """``x`` under the j-fold shift: coordinate k of the result reads k + j."""
    r = x.radius + abs(j)
    return ShiftPoint(tuple(x.at(k + j) for k in range(-r, r + 1)),
                      x.background)


def in_cylinder(c, x):
    return all(x.at(c.start + i) == s for i, s in enumerate(c.block))


def ball_contains(x, y, n, eps):
    """Closed dynamical-ball membership: every shift exponent in [-n, n]
    keeps the image distance within eps."""
    return all(shift_distance(shifted(x, k), shifted(y, k)) <= eps
               for k in range(-n, n + 1))


def are_separated(x, y, n, eps):
    return any(shift_distance(shifted(x, k), shifted(y, k)) >= eps
               for k in range(-n, n + 1))


def separated_witness_points(n, eps):
    """The explicit separated family behind ``htop_shift``'s lower bound:
    every block on [-(n+u), n+u] over the background 0."""
    u = _largest_single_cost_at_least(eps)
    if u is None:
        return [ShiftPoint.zero()]
    return [ShiftPoint(block) for block in blocks(2 * (n + u) + 1)]


def assert_bernoulli_invariant_and_independent(spec, max_block):
    """Shifting a cylinder leaves its measure fixed (every block up to
    ``max_block``), and cylinders on disjoint windows multiply exactly,
    which forces trivial invariant sets (ergodicity)."""
    for width in range(1, max_block + 1):
        for block in blocks(width):
            m = cylinder_measure(Cylinder(-(width // 2), block), spec)
            for j in (-2, -1, 1, 2):
                # the preimage under the j-fold shift reads the block j further
                assert cylinder_measure(Cylinder(j - width // 2, block),
                                        spec) == m
    short = [b for w in range(1, 4) for b in blocks(w)]
    for b1 in short:
        for b2 in short:
            # sum over the three free symbols between the two windows
            joint = sum(cylinder_measure(Cylinder(0, b1 + mid + b2), spec)
                        for mid in blocks(3))
            assert joint == (cylinder_measure(Cylinder(0, b1), spec)
                             * cylinder_measure(Cylinder(len(b1) + 3, b2),
                                                spec))


def check_entropy_criterion(delta):
    """The entropy criterion on the shift at p = 1/2, asserted directly.

    Its hypotheses: the Bernoulli measure is invariant, ergodic and
    homogeneous, with entropy 2 log 2 > 0.  Its conclusion, weak
    expansiveness at some scale, is certified at ``delta`` by a
    measure-zero singleton Bowen ball.  That certificate covers (0, 1)
    only: at delta >= 1 a flipped coordinate stays in the ball, which
    leaves the conclusion uncertified there, not violated."""
    if not 0 < delta < 1:
        raise InputError("the criterion is certified for delta in (0, 1)")
    assert_bernoulli_invariant_and_independent(HALF, max_block=3)
    assert homogeneous(HALF, [(ShiftPoint.zero(), ONES, n, eps)
                              for n in (1, 2, 5)
                              for eps in (Fraction(3, 5), Fraction(1, 10))])
    assert measure_entropy_shift(HALF, delta, 1).limit_log2_coeff == 2
    rep = bowen_ball_shift(ShiftPoint.zero(), delta, HALF)
    assert rep.singleton and rep.measure_zero


def test_distance_examples():
    x = ShiftPoint.zero()
    assert shift_distance(x, x) == 0
    assert shift_distance(x, x.flipped(0)) == 1
    assert shift_distance(x, ONES) == 3


def test_distance_symmetry_and_triangle():
    rng = random.Random(11)
    pts = [random_point(rng, radius=3) for _ in range(8)]
    for a in pts:
        for b in pts:
            assert shift_distance(a, b) == shift_distance(b, a)
            for c in pts:
                assert (shift_distance(a, c)
                        <= shift_distance(a, b) + shift_distance(b, c))


def test_single_flip_costs_its_weight():
    x = ShiftPoint.zero()
    for k in (-4, -1, 0, 2, 5):
        assert shift_distance(x, x.flipped(k)) == Fraction(1, 2 ** abs(k))


@pytest.mark.parametrize("eps,expected", [
    (Fraction(3, 5), 1),
    (Fraction(3, 10), 2),
    (Fraction(1, 10), 4),
    (Fraction(1, 100), 7),
    (Fraction(1), 1),
    (Fraction(2), 0),
    (Fraction(1, 8), 4),   # exactly 2^-3: strict inequality forces m+1
])
def test_window_radius_paper(eps, expected):
    assert window_radius(eps) == expected


def test_window_radius_exact_mode():
    # agreement on [-m, m] bounds the distance by 2^(1-m)
    assert window_radius(Fraction(3, 5), "exact") == 2
    assert window_radius(Fraction(2), "exact") == 0
    with pytest.raises(InputError):
        window_radius(0)


def reference_dyadic_radii(eps):
    """The five loops the exact dyadic helper replaced: window_radius in
    both modes, the two largest-exponent forms, and htop_shift's upper
    radius."""
    paper = 0
    while Fraction(1, 2 ** paper) >= eps:
        paper += 1
    exact = 0
    while Fraction(2, 2 ** exact) > eps:
        exact += 1
    largest = None
    if eps <= 1:
        largest = 0
        while Fraction(1, 2 ** (largest + 1)) >= eps:
            largest += 1
    tail = None
    if eps < 1:
        tail = 0
        while Fraction(1, 2 ** (tail + 1)) > eps:
            tail += 1
    upper = 0
    while not Fraction(2, 2 ** upper) < eps:
        upper += 1
    return paper, exact, largest, tail, upper


def test_dyadic_radii_match_reference_loops():
    """Exact powers of two, values a millionth either side, and random
    rationals."""
    rng = random.Random("dyadic")
    nudge = Fraction(1, 10 ** 6)
    values = [Fraction(2) ** k * f for k in range(-12, 4)
              for f in (1, 1 - nudge, 1 + nudge)]
    values += [Fraction(3, 5), Fraction(3, 10), Fraction(1, 100), Fraction(7, 2)]
    values += [Fraction(rng.randint(1, 10 ** 4), rng.randint(1, 10 ** 4))
               for _ in range(40)]
    for eps in values:
        upper = htop_shift(eps, 0).upper.bit_length() // 2 - 1  # 2^(2m+1)
        assert (window_radius(eps), window_radius(eps, "exact"),
                _largest_single_cost_at_least(eps), _strict_tail_radius(eps),
                upper) == reference_dyadic_radii(eps)


def test_nonpositive_scale_is_input_error():
    """separated_witness_points once looped forever at eps <= 0."""
    def hang(signum, frame):
        raise TimeoutError("no answer within 5 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        for eps in (0, Fraction(-1, 4)):
            for call in (lambda: separated_witness_points(1, eps),
                         lambda: htop_shift(eps, 1),
                         lambda: window_radius(eps, "exact")):
                with pytest.raises(InputError, match="scale must be positive"):
                    call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_dyn_ball_cylinder_examples():
    x = ShiftPoint.zero()
    assert dyn_ball_cylinder(x, 2, Fraction(3, 5)).interval == (-3, 3)
    assert dyn_ball_cylinder(x, 0, 2).interval == (0, 0)


def test_cylinder_locality():
    """The ball cylinder reads only coordinates inside its interval."""
    rng = random.Random(5)
    for _ in range(20):
        window = tuple(rng.randint(0, 1) for _ in range(11))
        a = ShiftPoint(window, 0)
        b = ShiftPoint(window, 1)  # same window, different far background
        n, eps = rng.randint(0, 2), Fraction(3, 5)
        ca, cb = dyn_ball_cylinder(a, n, eps), dyn_ball_cylinder(b, n, eps)
        if ca.interval[1] <= a.radius:
            assert ca.block == cb.block


def test_cylinder_measure_examples():
    assert cylinder_measure(Cylinder(-3, (0,) * 7), HALF) == Fraction(1, 128)
    assert cylinder_measure(Cylinder(0, ()), HALF) == 1
    third = BernoulliSpec(Fraction(1, 3))
    assert cylinder_measure(Cylinder(0, (0, 1)), third) == Fraction(2, 9)


def test_cylinder_sandwich_brackets_true_ball():
    rng = random.Random(7)
    for trial in range(6):
        x = random_point(rng, radius=2)
        n = rng.randint(0, 2)
        eps = rng.choice([Fraction(3, 5), Fraction(3, 10), Fraction(4, 5)])
        sandwich = dyn_ball_cylinder_bounds(x, n, eps)
        span = 2 * (sandwich.inner.interval[1] + 1) + 1
        for code in range(2 ** min(span, 11)):
            width = min(span, 11)
            y = ShiftPoint(tuple(code >> i & 1 for i in range(width)),
                           x.background)
            in_ball = ball_contains(x, y, n, eps)
            if in_cylinder(sandwich.inner, y):
                assert in_ball
            if in_ball and sandwich.outer is not None:
                assert in_cylinder(sandwich.outer, y)


def test_paper_cylinder_between_sandwich_bounds():
    x = ShiftPoint.zero()
    for n in (0, 1, 3):
        for eps in (Fraction(3, 5), Fraction(1, 10)):
            paper = dyn_ball_cylinder(x, n, eps)
            sandwich = dyn_ball_cylinder_bounds(x, n, eps)
            assert (sandwich.outer.interval[1] <= paper.interval[1]
                    <= sandwich.inner.interval[1])


def test_measure_entropy_values():
    val = measure_entropy_shift(HALF, Fraction(3, 5), 1000)
    assert val.log2_coeff == Fraction(2003, 1000)
    assert abs(val.value - 2 * math.log(2)) / (2 * math.log(2)) < 0.0015
    assert val.limit_log2_coeff == 2

    small = measure_entropy_shift(HALF, 2, 1)
    assert small.log2_coeff == 3

    general = measure_entropy_shift(BernoulliSpec(Fraction(1, 3)),
                                    Fraction(3, 5), 10)
    assert general.log2_coeff is None and general.value > 0


def test_entropy_error_bound_closed_form():
    """value - 2 log 2 == ((2s+1)/n) log 2 exactly, via the coefficient."""
    for n in (1, 10, 100):
        for eps in (Fraction(3, 5), Fraction(1, 10)):
            s = window_radius(eps)
            val = measure_entropy_shift(HALF, eps, n)
            assert val.log2_coeff - 2 == Fraction(2 * s + 1, n)


def test_htop_bounds_and_rate():
    rep = htop_shift(Fraction(3, 5), 1000)
    assert abs(float(rep.rate_lower_log2_coeff) - 2) < 0.02
    assert rep.lower <= rep.upper

    assert htop_shift(4, 5).lower == 1          # beyond the diameter
    assert htop_shift(Fraction(3, 5), 0).lower == 2  # single-window classes


def test_htop_witness_family_is_pairwise_separated():
    for n, eps in [(0, Fraction(3, 5)), (1, Fraction(3, 5)),
                   (0, Fraction(3, 10)), (1, Fraction(4))]:
        pts = separated_witness_points(n, eps)
        assert len(pts) == htop_shift(eps, n).lower
        assert all(p.background == 0 for p in pts)
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                assert are_separated(a, b, n, eps)


def test_htop_pigeonhole_upper_bound():
    """Two points sharing the wider cylinder are never separated."""
    rng = random.Random(3)
    n, eps = 1, Fraction(3, 5)
    v = window_radius(eps, "exact")
    for _ in range(30):
        base = random_point(rng, radius=n + v)
        # flip something strictly outside the shared cylinder
        y = base.flipped(n + v + 1 + rng.randint(0, 3))
        assert not are_separated(base, y, n, eps)


def test_htop_bracket_vs_truncated_clique():
    """Exhaustive max-clique over truncated points stays in the bracket."""
    from pseudodyn.dynamics import _max_clique
    n, eps = 0, Fraction(3, 5)
    width = 5  # blocks on [-2, 2], background 0
    pts = [ShiftPoint(block, 0) for block in blocks(width)]
    adj = [0] * len(pts)
    for i, a in enumerate(pts):
        for j in range(i + 1, len(pts)):
            if are_separated(a, pts[j], n, eps):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    size, _ = _max_clique(adj, len(pts))
    rep = htop_shift(eps, n)
    assert rep.lower <= size <= rep.upper


def test_bowen_singleton_certificate():
    rng = random.Random(1)
    for delta in (Fraction(1, 4), Fraction(1, 2)):
        for _ in range(10):
            x = random_point(rng, radius=4)
            rep = bowen_ball_shift(x, delta)
            assert rep.singleton and rep.measure_zero
            bounds = dict(rep.measure_bounds)
            assert all(bounds[n + 1] < bounds[n] for n in range(1, 8))
            # any distinct point is excluded at a finite stage
            y = x.flipped(rng.randint(-6, 6))
            k = next(c for c in range(-7, 8) if x.at(c) != y.at(c))
            assert not ball_contains(x, y, abs(k), delta)


def test_bowen_coarse_delta_not_singleton():
    x = ShiftPoint.zero()
    rep = bowen_ball_shift(x, Fraction(3, 2))
    assert not rep.singleton
    y = rep.non_singleton_witness
    for n in (1, 5, 12):
        assert ball_contains(x, y, n, Fraction(3, 2))


def test_shift_expansiveness_verdict():
    for delta in (Fraction(1, 2), Fraction(1, 4)):
        rep = bowen_ball_shift(ShiftPoint.zero(), delta, HALF)
        assert rep.singleton and rep.measure_zero
    assert not bowen_ball_shift(ShiftPoint.zero(), 2, HALF).singleton


def test_invariance_and_ergodicity_report():
    assert_bernoulli_invariant_and_independent(HALF, max_block=4)
    assert_bernoulli_invariant_and_independent(BernoulliSpec(Fraction(1, 3)),
                                               max_block=3)


def test_homogeneity_witness_delta_eps_c_one():
    rng = random.Random(2)
    tuples = [(random_point(rng), random_point(rng), rng.randint(1, 64),
               rng.choice([Fraction(3, 5), Fraction(1, 10)]))
              for _ in range(40)]
    assert homogeneous(HALF, tuples)


def test_entropy_criterion_substantive():
    for delta in (Fraction(1, 2), Fraction(1, 4)):
        check_entropy_criterion(delta)


def test_entropy_criterion_refuses_delta_outside_unit_interval():
    """Every hypothesis holds at any delta, but the Bowen ball is no
    singleton at delta >= 1, so the conclusion is not certified there.
    That is not a counterexample: the criterion asserts weak expansiveness
    at some scale, and (0, 1) certifies it."""
    for delta in (1, 2, 0, Fraction(-1, 2)):
        with pytest.raises(InputError, match=r"delta in \(0, 1\)"):
            check_entropy_criterion(delta)
    for delta in (1, 2):
        assert not bowen_ball_shift(ShiftPoint.zero(), delta, HALF).singleton


def test_upgrade_report_substantive():
    """Cores are the whole space, so the compacted system is the shift:
    the hypothesis (weak expansiveness at rho) and the conclusion
    (expansiveness at rho / 2) both hold with exact certificates."""
    rho = Fraction(1, 2)
    for scale in (rho, rho / 2):
        rep = bowen_ball_shift(ShiftPoint.zero(), scale, HALF)
        assert rep.singleton and rep.measure_zero
