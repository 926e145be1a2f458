from fractions import Fraction

import pytest

from pseudodyn import (UNBOUNDED, FiniteMetricSpace, GeneratingSystem,
                       PartialMap, cylinder_measure, dyn_ball_cylinder,
                       is_unbounded)


@pytest.fixture
def line():
    """Three points on a line: d(a,b) = d(b,c) = 1, d(a,c) = 2."""
    return FiniteMetricSpace(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


@pytest.fixture
def line_system(line):
    g = PartialMap.from_dict(line, {"a": "b", "b": "c"}, name="g")
    return GeneratingSystem.build(line, [g])


@pytest.fixture
def line_system_cores(line):
    g = PartialMap.from_dict(line, {"a": "b", "b": "c"}, name="g")
    return GeneratingSystem.build(line, [g],
                                  cores={"g": {0}, "g^-1": {2}})


def empty_map(space, name=None):
    """The partial map defined nowhere."""
    return PartialMap(space, (None,) * space.n, name=name)


def graph(g):
    """The pairs (i, g i) over the domain of ``g``."""
    return frozenset((i, v) for i, v in enumerate(g.vals) if v is not None)


def cyclic_space(n):
    return FiniteMetricSpace(
        list(range(n)),
        [[Fraction(min(abs(i - j), n - abs(i - j))) for j in range(n)]
         for i in range(n)],
    )


def coprime_space(n, primes=(2, 3, 5, 7, 11, 13, 17)):
    """d(i, j) = 1 + 1/p over pairwise coprime p, some values repeated;
    every distance lies in [1, 2], so the triangle inequality holds."""
    k = 0
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = 1 + Fraction(1, primes[k % len(primes)])
            k += 1
    return FiniteMetricSpace([f"q{i}" for i in range(n)], dist)


def symmetric_group(space):
    """The group of all permutations, from a rotation and a transposition."""
    n = space.n
    rot = PartialMap(space, [(i + 1) % n for i in range(n)], name="r")
    swap = PartialMap(space, [1, 0] + list(range(2, n)), name="s")
    return GeneratingSystem.build(space, [rot, swap])


def system_past_255_points():
    """A flip and a partial step on 256 points at distance 1."""
    n = 256
    space = FiniteMetricSpace(list(range(n)),
                              [[int(i != j) for j in range(n)]
                               for i in range(n)])
    flip = PartialMap(space, [n - 1 - i for i in range(n)], name="f")
    step = PartialMap(space, [i + 1 if i < 3 else None for i in range(n)],
                      name="s")
    return GeneratingSystem.build(space, [flip, step])


def rotation_system(n):
    space = cyclic_space(n)
    r = PartialMap.from_dict(space, {i: (i + 1) % n for i in range(n)}, name="r")
    return GeneratingSystem.build(space, [r])


@pytest.fixture
def z6():
    return cyclic_space(6)


@pytest.fixture
def z6_rotations():
    return rotation_system(6)


@pytest.fixture
def identity_system(line):
    return GeneratingSystem.build(line, [])


def reference_modulus_full_scan(spread, space, t):
    """``equicont._modulus`` by one scan of every pair i < j: the least
    distance rank among the pairs whose spread rank reaches ``t`` (at
    least 1), and the pairs at that rank in lexicographic order."""
    ranks, values = space.distance_ranks()
    t = max(t, 1)
    spread_pairs = [(i, j) for i, row in enumerate(spread)
                    for j in range(i + 1, space.n) if row[j] >= t]
    if not spread_pairs:
        return UNBOUNDED, []
    low = min(ranks[i][j] for i, j in spread_pairs)
    return values[low], [(i, j) for i, j in spread_pairs if ranks[i][j] == low]


def group_inclusion_failures(group, rho, delta):
    """The centres x whose open delta-ball (the diameter's where delta is
    unbounded) is not inside the Bowen rho-ball {y : d(w x, w y) <= rho
    for every word w}, in distances.  A group of bijections sends (x, y)
    along its component of the pair graph (x, y) -> (g x, g y), so the
    Bowen ball holds y exactly when no pair of that component, found here
    breadth first, is farther apart than rho."""
    space = group.space
    n, dist = space.n, space.dist
    radius = space.diameter() if is_unbounded(delta) else delta
    spread = {}
    for start in ((x, y) for x in range(n) for y in range(n)):
        if start in spread:
            continue
        component, todo = {start}, [start]
        while todo:
            a, b = todo.pop()
            for g in group.generators:
                image = (g.vals[a], g.vals[b])
                if image not in component:
                    component.add(image)
                    todo.append(image)
        top = max(dist[a][b] for a, b in component)
        spread.update(dict.fromkeys(component, top))
    return [x for x in range(n)
            if any(dist[x][y] < radius and spread[x, y] > rho
                   for y in range(n))]


def homogeneous(spec, tuples):
    """The shift's homogeneity witness, delta = eps and c = 1:
    mu(B_n(y, eps)) <= c mu(B_n(x, eps)) on every (x, y, n, eps) tuple."""
    c = 1
    return all(cylinder_measure(dyn_ball_cylinder(y, n, eps), spec)
               <= c * cylinder_measure(dyn_ball_cylinder(x, n, eps), spec)
               for x, y, n, eps in tuples)
