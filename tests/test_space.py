import collections
import functools
import itertools
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest

from pseudodyn import FiniteMetricSpace, InputError
from pseudodyn.probes import InstanceSpec, random_genome
from pseudodyn.rational import parse_rational

from conftest import coprime_space, cyclic_space, system_past_255_points


def test_metric_axioms_validated():
    with pytest.raises(InputError, match="symmetry"):
        FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(InputError,
                       match=r"^triangle inequality violated at \(a,b,c\)$"):
        FiniteMetricSpace(["a", "b", "c"],
                          [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(InputError, match="positive"):
        FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])
    with pytest.raises(InputError, match="must be 0"):
        FiniteMetricSpace(["a"], [[1]])
    # as many zeros as points, symmetric, and every triangle holds: only
    # the diagonal itself is wrong
    with pytest.raises(InputError, match=r"^dist\(a,a\) must be 0$"):
        FiniteMetricSpace("abcd", [[1, 2, 2, 2], [2, 1, 2, 2],
                                   [2, 2, 0, 0], [2, 2, 0, 0]])
    with pytest.raises(InputError, match="duplicate"):
        FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]])


def test_index_reads_labels_only(line):
    """``index`` turns a label into an index; an integer is read as a
    label too, never as an index."""
    assert line.index("b") == 1
    with pytest.raises(InputError, match="unknown point 0"):
        line.index(0)
    permuted = FiniteMetricSpace([2, 0, 1], line.dist)
    assert [permuted.index(p) for p in (0, 1, 2)] == [1, 2, 0]


def reference_metric_check(points, dist):
    """The validator as a direct O(n^3) loop over ``Fraction`` sums: the
    oracle for ``FiniteMetricSpace``'s row-scan triangle check."""
    pts = tuple(points)
    n = len(pts)
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
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if matrix[i][k] > matrix[i][j] + matrix[j][k]:
                    raise InputError(
                        "triangle inequality violated at "
                        f"({pts[i]},{pts[j]},{pts[k]})"
                    )
    return matrix


def _mixed(rng, value):
    """``value`` as an int (when integral), a 'p/q' string or a Fraction."""
    kind = rng.randrange(3)
    if kind == 0 and value.denominator == 1:
        return int(value)
    if kind == 1:
        return f"{value.numerator}/{value.denominator}"
    return value


def _path_metric(rng, n):
    """Shortest-path metric of random rational edge weights: exact ties
    d(i,k) == d(i,j) + d(j,k) wherever a shortest path runs through j."""
    d = [[Fraction(0) if i == j
          else Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4, 6)))
          for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            d[i][j] = d[j][i]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def _plant(rng, d):
    """One planted fault of a random kind, or none (kinds 5 and 6)."""
    n = len(d)
    kind = rng.randrange(7)
    i, j = rng.sample(range(n), 2)
    if kind == 0:  # stretch one pair: usually breaks the triangle inequality
        d[i][j] = d[j][i] = d[i][j] * rng.choice((2, 3)) + Fraction(1, 7)
    elif kind == 1:
        d[i][i] = Fraction(rng.randint(1, 3), 2)
    elif kind == 2:
        d[i][j] = d[i][j] + Fraction(1, 5)
    elif kind == 3:
        d[i][j] = d[j][i] = Fraction(rng.choice((0, -1)))
    elif kind == 4:  # shrink one pair: may break it from the other side
        d[i][j] = d[j][i] = d[i][j] / rng.choice((3, 5))
    return d


def _banded(rng, n, top):
    """Entries in [ceil(top/2), floor(3 top/4)], a metric because no entry
    exceeds the sum of two others, with the pair (n-2, n-1) at ``top``
    (tight where both halves are ceil(top/2))."""
    low, high = -(-top // 2), 3 * top // 4
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(low, high)
    d[n - 2][n - 1] = d[n - 1][n - 2] = top
    return d


def _plant_late(rng, d, top, kind):
    """A fault of kind 1-5 in the last row or at the last triples, so the
    highest packed fields decide; kind 0 plants none."""
    n = len(d)
    if kind == 1:
        d[n - 1][n - 1] = 1
    elif kind == 2:  # the lower triangle only
        d[n - 1][n - 2] -= 1
    elif kind == 3:
        j = rng.randrange(n - 1)
        d[j][n - 1] = d[n - 1][j] = rng.choice((0, -1))
    elif kind in (4, 5):
        # the pair (a, b) at top, both legs through c at ceil(top/2) - 1:
        # only the triangles (a, c, b) and (b, c, a) fail, and with kind 5
        # the middle point c is the last point
        a, b, c = (n - 2, n - 1, n - 3) if kind == 4 else (n - 3, n - 2, n - 1)
        d[n - 2][n - 1] = d[n - 1][n - 2] = rng.randint(-(-top // 2),
                                                         3 * top // 4)
        d[a][b] = d[b][a] = top
        d[a][c] = d[c][a] = d[b][c] = d[c][b] = -(-top // 2) - 1
    return d


def _packed_field_cases(rng):
    """20-64 points with largest entry 63 or 64 (one-byte fields widen to
    two) and 2^14 - 1 or 2^14 (two bytes widen to three), then rational
    matrices whose common denominator needs several bytes per field."""
    for top in (63, 64, 2**14 - 1, 2**14):
        for kind in range(6):
            d = _banded(rng, rng.randint(20, 64), top)
            d = _plant_late(rng, d, top, kind)
            yield [[Fraction(v) for v in row] for row in d]
    for case in range(9):
        n = rng.randint(20, 32)
        d = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                # entries in [1, 2]; the denominators' lcm is about 2^40
                d[i][j] = d[j][i] = 1 + Fraction(
                    rng.randint(0, 96), rng.choice((97, 101, 103, 107, 109,
                                                    113)))
        if case % 3 == 1:
            d = _plant(rng, d)
        elif case % 3 == 2:  # breaks where both legs are near 1
            d[n - 2][n - 1] = d[n - 1][n - 2] = 2 + Fraction(1, 7)
        yield d


def _validator_cases():
    rng = random.Random(20260517)
    for d in _packed_field_cases(rng):
        yield [[_mixed(rng, v) for v in row] for row in d]
    for _ in range(400):
        n = rng.randint(2, 9)
        if rng.random() < 0.5:
            d = _path_metric(rng, n)
        else:
            d = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    # entries in [10, 20): a metric before any fault
                    d[i][j] = d[j][i] = 10 + Fraction(rng.randint(0, 50),
                                                      rng.choice((6, 7, 10)))
        d = _plant(rng, d)
        yield [[_mixed(rng, v) for v in row] for row in d]


def test_metric_validation_matches_reference():
    outcomes = collections.Counter()
    for dist in _validator_cases():
        labels = [f"p{i}" for i in range(len(dist))]
        try:
            expected = reference_metric_check(labels, dist)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                FiniteMetricSpace(labels, dist)
            assert str(got.value) == str(exc)
            msg = str(exc)
            outcomes["diagonal" if msg.endswith("must be 0")
                     else msg.split(" ")[0]] += 1
        else:
            space = FiniteMetricSpace(labels, dist)
            assert space.dist == expected
            assert all(type(v) is Fraction for row in space.dist for v in row)
            outcomes["accepted"] += 1
    # every axiom is planted and caught, and many inputs are accepted
    assert set(outcomes) == {"accepted", "triangle", "symmetry", "distinct",
                             "diagonal"}
    assert outcomes["accepted"] >= 150 and outcomes["triangle"] >= 50


def test_triangle_check_reports_the_first_triple_at_any_distance_count():
    """The packed triangle check names the reference's first failing
    triple, or accepts, on spaces of up to 40 points with at most as many
    distinct entries as points (a row expands from a table of repeated
    fields) and with a distinct distance per pair (each entry is repeated
    as its row expands), each with up to three pairs stretched."""
    rng = random.Random("triangle-distance-count")
    outcomes = collections.Counter()
    for trial in range(120):
        n = rng.randint(3, 40)
        few = trial % 2 == 0
        base = 1000
        dist = [[0] * n for _ in range(n)]
        pairs = list(itertools.combinations(range(n), 2))
        # distances in [base, 2 base): every triangle holds until stretched
        draws = (rng.choices(range(base, base + 3), k=len(pairs)) if few
                 else rng.sample(range(base, 2 * base), len(pairs)))
        for (i, j), v in zip(pairs, draws):
            dist[i][j] = dist[j][i] = v
        for i, j in rng.sample(pairs, min(len(pairs), rng.randint(0, 3))):
            dist[i][j] = dist[j][i] = rng.randint(2 * base, 3 * base)
        labels = [f"p{i}" for i in range(n)]
        distinct = len({v for row in dist for v in row})
        try:
            reference_metric_check(labels, dist)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                FiniteMetricSpace(labels, dist)
            assert str(got.value) == str(exc)
            outcome = "triangle"
        else:
            FiniteMetricSpace(labels, dist)
            outcome = "accepted"
        outcomes[distinct <= n, outcome] += 1
    assert set(outcomes) == {(few, outcome) for few in (True, False)
                             for outcome in ("triangle", "accepted")}
    assert min(outcomes.values()) >= 10


def reference_distance_ranks(space):
    """``(ranks, values)`` by hashing each upper-triangle ``Fraction`` of
    ``space.dist`` once: the oracle for the ranks built at construction."""
    ids = {}
    seen = []
    for i, row in enumerate(space.dist):
        # the matrix is symmetric: hash the upper triangle only
        seen.append([above[i] for above in seen]
                    + [ids.setdefault(v, len(ids)) for v in row[i:]])
    values = tuple(sorted(ids))
    rank_of = {ids[v]: k for k, v in enumerate(values)}
    ranks = tuple(tuple(map(rank_of.__getitem__, row)) for row in seen)
    return ranks, values


def test_distance_ranks_match_reference():
    spaces = [coprime_space(7), cyclic_space(6), FiniteMetricSpace("a", [[0]])]
    for dist in _validator_cases():
        try:
            spaces.append(FiniteMetricSpace(range(len(dist)), dist))
        except InputError:
            continue
    assert len(spaces) > 150
    for space in spaces:
        ranks, values = space.distance_ranks()
        assert (ranks, values) == reference_distance_ranks(space)
        assert all(type(v) is Fraction for v in values)
        assert space.distance_grid() == list(values[1:])
        assert all(space.dist[i][j] == values[ranks[i][j]]
                   for i in range(space.n) for j in range(space.n))


def test_metric_validation_coprime_denominators():
    """Pairwise coprime denominators 1/p over the first 28 primes, so the
    common denominator is their product."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107]
    labels = list("abcdefgh")
    for offset, accepted in ((1, True), (0, False)):
        # 1 + 1/p always satisfies the triangle inequality; bare 1/p breaks
        # it where a large 1/p faces two small ones.
        ps = iter(primes)
        dist = [[Fraction(0)] * 8 for _ in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                dist[i][j] = dist[j][i] = offset + Fraction(1, next(ps))
        if accepted:
            assert FiniteMetricSpace(labels, dist).dist == \
                reference_metric_check(labels, dist)
            continue
        with pytest.raises(InputError) as exc:
            reference_metric_check(labels, dist)
        with pytest.raises(InputError) as got:
            FiniteMetricSpace(labels, dist)
        assert str(got.value) == str(exc.value)
        assert str(got.value).startswith("triangle")


def test_metric_validation_accepts_exact_ties():
    """Collinear points: every triangle through the middle point is tight."""
    xs = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(7, 5), 3]
    dist = [[abs(Fraction(a) - b) for b in xs] for a in xs]
    space = FiniteMetricSpace(list("vwxyz"), dist)
    assert space.d(0, 4) == space.d(0, 2) + space.d(2, 4)
    # Any excess over a tie is a violation, named at its first triple.
    dist[0][4] = dist[4][0] = Fraction(3) + Fraction(1, 10**9)
    with pytest.raises(InputError) as exc:
        FiniteMetricSpace(list("vwxyz"), dist)
    assert str(exc.value) == "triangle inequality violated at (v,w,z)"


def test_parse_rational_floats_and_bools():
    assert parse_rational(0.1) == Fraction(1, 10)
    with pytest.raises(InputError):
        parse_rational(True)
    space = FiniteMetricSpace(["a", "b"], [[0, 0.1], [0.1, 0]])
    assert space.dist[0][1] == Fraction(1, 10)
    assert type(space.dist[0][1]) is Fraction
    # True equals and hashes like 1, yet is no rational
    with pytest.raises(InputError, match=r"^not a rational: True$"):
        FiniteMetricSpace(["a", "b"], [[0, 1], [True, 0]])
    # one value written four ways parses to one Fraction
    ones = [1, 1.0, "1", Fraction(1)]
    dist = [[0 if i == j else ones[(i + j) % 4] for j in range(4)]
            for i in range(4)]
    space = FiniteMetricSpace("abcd", dist)
    assert {v for i, row in enumerate(space.dist)
            for j, v in enumerate(row) if i != j} == {Fraction(1)}
    assert all(type(v) is Fraction for row in space.dist for v in row)
    # an unhashable entry fails as the per-entry parse names it
    with pytest.raises(InputError, match=r"^cannot parse rational from \[1\]$"):
        FiniteMetricSpace(["a", "b"], [[0, [1]], [[1], 0]])


def test_metric_ball_examples(line):
    assert line.ball_ix(0, 0, closed=True) == {0}
    assert line.ball_ix(0, Fraction(3, 2)) == {0, 1}
    assert line.ball_ix(1, 1, closed=True) == {0, 1, 2}


def test_metric_ball_radius_monotone(line):
    for x in range(line.n):
        prev = frozenset()
        for r in [0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3]:
            ball = line.ball_ix(x, r)
            assert prev <= ball
            assert ball <= line.ball_ix(x, r, closed=True)
            prev = ball


def test_ball_beyond_diameter_is_everything(line):
    assert line.ball_ix(0, 3) == line.full_set()
    assert line.ball_ix(2, 2, closed=True) == line.full_set()


def test_distance_grid(line):
    assert line.distance_grid() == [1, 2]
    assert FiniteMetricSpace(["x"], [[0]]).distance_grid() == []
    assert cyclic_space(6).distance_grid() == [1, 2, 3]


def test_threshold_matches_ball_ix():
    """The rank row below the threshold is the ball by distances, at radii
    exactly on each grid value, at midpoints, 0, negative and past the
    diameter, open and closed; the coprime space has exact ties, and the
    256-point space is past the byte-key bound."""
    spec = InstanceSpec(seed="threshold", count=30)
    spaces = [coprime_space(7), cyclic_space(7),
              FiniteMetricSpace(["a"], [[0]]), system_past_255_points().space]
    spaces += [random_genome(spec, idx).build()[0].space
               for idx in range(spec.count)]
    for space in spaces:
        grid = space.distance_grid()
        radii = [Fraction(-1), Fraction(0), *grid, space.diameter() + 1]
        radii += [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        for r in radii:
            for closed in (False, True):
                for i in range(space.n):
                    row = space.dist[i]
                    want = {j for j in range(space.n)
                            if (row[j] <= r if closed else row[j] < r)}
                    assert space.ball_ix(i, r, closed) == want


def reference_threshold(space, r, closed=False):
    """The radius rule by bisecting the ``Fraction`` values."""
    values = space.distance_ranks()[1]
    return (bisect_right if closed else bisect_left)(values, r)


def test_threshold_matches_fraction_bisection():
    """The integer route equals the ``Fraction`` bisection on shortest-path
    metrics with non-integer scales and on the coprime space, at every
    grid value, at midpoints, 0, negative radii and past the diameter, each
    as a ``Fraction``, and at ints and floats, open and closed."""
    rng = random.Random("threshold-integer")
    spaces = [coprime_space(7), cyclic_space(5), FiniteMetricSpace("a", [[0]])]
    spaces += [FiniteMetricSpace(range(n), _path_metric(rng, n))
               for n in (2, 3, 5, 8, 12) for _ in range(6)]
    scales = collections.Counter()
    checked = 0
    for space in spaces:
        scale = space._grid[1]
        scales[scale > 1] += 1
        grid = space.distance_grid()
        top = space.diameter()
        radii = [Fraction(0), Fraction(-1), Fraction(-1, 3), *grid,
                 top + 1, top + Fraction(1, scale + 1), top * 7]
        radii += [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        radii += [v - Fraction(1, 10 * scale) for v in grid]
        radii += [0, -2, 1, 2, 3, int(top), int(top) + 1, 10 ** 6]
        radii += [0.0, -0.5, 0.1, 0.25, 1 / 3, 1.5, float(top),
                  float(top) + 0.5]
        radii += [float(v) for v in grid]
        for r in radii:
            for closed in (False, True):
                assert space.threshold(r, closed) \
                    == reference_threshold(space, r, closed), (r, closed)
                checked += 1
    assert scales[True] >= 20 and checked > 2000


def test_pair_order_walks_pairs_nearest_first():
    """``pair_order`` lists every pair i < j once, in (rank, i, j) order,
    and ``starts`` delimits each rank; one and two points, ties, and the
    256-point space whose indices fill a byte."""
    spec = InstanceSpec(seed="pair-order", count=20)
    spaces = [coprime_space(7), cyclic_space(6), FiniteMetricSpace("a", [[0]]),
              FiniteMetricSpace("ab", [[0, 1], [1, 0]]),
              system_past_255_points().space]
    spaces += [random_genome(spec, idx).build()[0].space
               for idx in range(spec.count)]
    for space in spaces:
        ranks, values = space.distance_ranks()
        left, right, starts = space.pair_order()
        assert space.pair_order() is space.pair_order()
        want = sorted((ranks[i][j], i, j) for i in range(space.n)
                      for j in range(i + 1, space.n))
        assert list(zip(left, right)) == [(i, j) for _, i, j in want]
        assert len(starts) == len(values) + 1
        assert starts[0] == starts[1] == 0 and starts[-1] == len(want)
        for rank in range(1, len(values)):
            assert {r for r, _, _ in want[starts[rank]:starts[rank + 1]]} \
                == {rank}


def _integer_cases():
    """Seeded integer matrices, valid and with one planted fault: the
    packed-field cases with integral entries, path metrics of integer
    edge weights and the fault kinds of ``_plant`` made integral (negative
    and zero distances, a nonzero diagonal, asymmetry, a stretched pair)."""
    rng = random.Random(20261020)
    for top in (63, 64, 2**14 - 1, 2**14):
        for kind in range(6):
            yield _plant_late(rng, _banded(rng, rng.randint(20, 40), top),
                              top, kind)
    for _ in range(300):
        n = rng.randint(1, 12)
        d = [[0 if i == j else rng.randint(1, 30) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            for j in range(i):
                d[i][j] = d[j][i]
        if rng.random() < 0.6:
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        d[i][j] = min(d[i][j], d[i][k] + d[k][j])
        if n > 1 and rng.random() < 0.5:
            i, j = rng.sample(range(n), 2)
            kind = rng.randrange(4)
            if kind == 0:
                d[i][j] = d[j][i] = 3 * d[i][j] + 1
            elif kind == 1:
                d[i][i] = rng.randint(1, 3)
            elif kind == 2:
                d[i][j] += 1
            else:
                d[i][j] = d[j][i] = rng.choice((0, -1, -7))
        yield d


def _radii(space):
    """Every grid value and every midpoint between two, with 0 and a
    radius past the diameter."""
    values = space.distance_ranks()[1]
    mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return [*values, *mids, values[-1] + 1]


def test_integer_matrices_match_their_fraction_copies():
    """The all-int branch of metric validation against the same matrix
    given as ``Fraction``s, which takes the general path: the same space,
    the same thresholds, or the same refusal."""
    outcomes = collections.Counter()
    for dist in _integer_cases():
        labels = [f"p{i}" for i in range(len(dist))]
        fractions = [[Fraction(v) for v in row] for row in dist]
        try:
            expected = FiniteMetricSpace(labels, fractions)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                FiniteMetricSpace(labels, dist)
            assert str(got.value) == str(exc)
            msg = str(exc)
            outcomes["diagonal" if msg.endswith("must be 0")
                     else msg.split(" ")[0]] += 1
            continue
        space = FiniteMetricSpace(labels, dist)
        outcomes["accepted"] += 1
        assert space.points == expected.points
        assert space.dist == expected.dist
        assert all(type(v) is Fraction for row in space.dist for v in row)
        assert space.distance_ranks() == expected.distance_ranks()
        for r in _radii(expected):
            for closed in (False, True):
                assert space.threshold(r, closed) \
                    == expected.threshold(r, closed)
    assert set(outcomes) == {"accepted", "triangle", "symmetry", "distinct",
                             "diagonal"}
    assert outcomes["accepted"] >= 100 and outcomes["triangle"] >= 20


def test_a_bool_entry_is_refused_beside_integers():
    """``True`` is an int to ``isinstance`` but no distance: a matrix of
    ints with one bool is refused, as a matrix of Fractions with one is."""
    ints = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    for i, j in ((0, 1), (1, 0), (2, 2)):
        for other in (ints, [[Fraction(v) for v in row] for row in ints]):
            dist = [row[:] for row in other]
            dist[i][j] = True if i != j else False
            with pytest.raises(InputError) as got:
                FiniteMetricSpace("abc", dist)
            assert str(got.value) == f"not a rational: {dist[i][j]!r}"


@functools.cache
def _some_accepted_spaces():
    spaces = [coprime_space(7), cyclic_space(6), FiniteMetricSpace("a", [[0]])]
    for dist in itertools.islice(_validator_cases(), 0, None, 3):
        try:
            spaces.append(FiniteMetricSpace(range(len(dist)), dist))
        except InputError:
            continue
    return spaces


@pytest.mark.parametrize("factor", [1, 2, Fraction(1, 3)])
def test_relabelled_matches_full_construction(factor):
    """A relabelled, scaled copy keeps the ranks and validates nothing,
    yet reads like the same labels and scaled matrix validated afresh:
    the same distances, ranks, index and thresholds at every grid value
    and every midpoint, open and closed."""
    rng = random.Random(f"relabelled:{factor}")
    for space in _some_accepted_spaces():
        labels = [f"z{i}" for i in range(space.n)]
        rng.shuffle(labels)
        copy = space.relabelled(labels, factor)
        fresh = FiniteMetricSpace(labels, [[v * factor for v in row]
                                           for row in space.dist])
        assert copy.points == fresh.points
        assert copy.dist == fresh.dist
        assert copy.distance_ranks() == fresh.distance_ranks()
        assert [copy.index(p) for p in labels] == list(range(space.n))
        for r in _radii(fresh):
            for closed in (False, True):
                assert copy.threshold(r, closed) == fresh.threshold(r, closed)


def test_relabelled_refuses_what_a_copy_cannot_be(line):
    with pytest.raises(InputError, match="positive factor"):
        line.relabelled("xyz", 0)
    with pytest.raises(InputError, match="positive factor"):
        line.relabelled("xyz", Fraction(-1, 2))
    with pytest.raises(InputError, match=r"needs 3 point labels \(got 2\)"):
        line.relabelled("xy")
    with pytest.raises(InputError, match="^duplicate point labels$"):
        line.relabelled("xyx")


def eager_reference(dist):
    """``(dist, ranks, values)`` built eagerly from the parsed entries:
    the distinct values sorted, and each entry's position among them."""
    entries = tuple(tuple(map(parse_rational, row)) for row in dist)
    values = tuple(sorted({v for row in entries for v in row}))
    rank = {v: r for r, v in enumerate(values)}
    return entries, tuple(tuple(rank[v] for v in row) for row in entries), \
        values


def test_lazy_dist_and_ranks_match_an_eager_reference():
    """The ranks built at construction, and ``dist`` built on first read,
    equal an eager reference with scaled entries all below 256 and with
    some at or above it, at scale 1 and at other scales, and on relabelled
    copies at factors 1, 2 and 1/3, whose ``dist`` is built on first read
    too."""
    rng = random.Random("lazy-dist")
    kinds = collections.Counter()
    # (top numerator, denominator): scaled entries below 256 or not, with
    # the top entry at 255 and at 256
    bands = [(4, 1), (120, 1), (255, 1), (256, 1), (600, 1), (60, 3),
             (250, 7), (400, 3)]
    for trial in range(320):
        top, den = bands[trial % len(bands)]
        dist = [[Fraction(v, den) if den > 1 else v for v in row]
                for row in _banded(rng, rng.randint(2, 9), top)]
        space = FiniteMetricSpace(range(len(dist)), dist)
        grid, scale = space._grid
        kinds[grid[-1] < 256, scale == 1] += 1
        want_dist, want_ranks, want_values = eager_reference(dist)
        assert space._dist is None
        assert space.distance_ranks() == (want_ranks, want_values)
        assert all(type(row) is tuple and all(type(r) is int for r in row)
                   for row in space.distance_ranks()[0])
        if trial % 2:
            assert space.dist == want_dist  # built before the copies
        for factor in (1, 2, Fraction(1, 3)):
            copy = space.relabelled([f"z{i}" for i in range(space.n)],
                                    factor)
            scaled = [[v * factor for v in row] for row in want_dist]
            # a copy shares a built dist at factor 1, else builds its own
            assert copy._dist is (space._dist if factor == 1 else None)
            assert copy.dist == eager_reference(scaled)[0]
            assert copy.distance_ranks() == eager_reference(scaled)[1:]
        assert space.dist == want_dist
        assert all(type(v) is Fraction for row in space.dist for v in row)
        assert space.dist is space.dist  # built once
        assert space.relabelled(range(space.n)).dist is space.dist
    assert set(kinds) == {(True, True), (False, True), (True, False),
                          (False, False)}
    assert min(kinds.values()) >= 30
