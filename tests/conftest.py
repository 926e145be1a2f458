import dataclasses
import math
from fractions import Fraction

import pytest

from pseudodyn import (UNBOUNDED, FiniteMetricSpace, GeneratingSystem,
                       PartialMap, compacted_system, cylinder_measure,
                       dyn_ball_cylinder, is_unbounded)
from pseudodyn.errors import InputError
from pseudodyn.measure import (HOMOGENEITY_LADDER_CAP, HomogeneityReport,
                               HomogeneityWitness)
from pseudodyn.rational import parse_rational
from pseudodyn.shift import ShiftPoint


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


def good_inclusion_failures(sys, rho, xi):
    """The centres x whose open xi-ball is not inside the core-restricted
    Bowen rho-ball {y : d(w x, w y) <= rho for every word w of the
    compacted system defined at x and y}, in distances: the compacted
    system's closure maps are read one by one, and no table is."""
    space = sys.space
    n, dist = space.n, space.dist
    spread = {}
    for g in compacted_system(sys).word_closure().stabilized_maps:
        vals = g.vals
        dom = [i for i, v in enumerate(vals) if v is not None]
        for i in dom:
            for j in dom:
                d = dist[vals[i]][vals[j]]
                if d > spread.get((i, j), 0):
                    spread[i, j] = d
    return [x for x in range(n)
            if any(dist[x][y] < xi and spread.get((x, y), 0) > rho
                   for y in range(n))]


def homogeneous(spec, tuples):
    """The shift's homogeneity witness, delta = eps and c = 1:
    mu(B_n(y, eps)) <= c mu(B_n(x, eps)) on every (x, y, n, eps) tuple."""
    c = 1
    return all(cylinder_measure(dyn_ball_cylinder(y, n, eps), spec)
               <= c * cylinder_measure(dyn_ball_cylinder(x, n, eps), spec)
               for x, y, n, eps in tuples)


def ranked_space(n, values):
    """``n`` points whose pairs i < j, in order, take the distances
    1 + k/values for k = 0, 1, ..., values - 1, 0, 1, ...: ``values`` + 1
    rank values once there are at least ``values`` pairs.  Every distance
    lies in [1, 2], so the triangle inequality holds."""
    dist = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = 1 + Fraction(k % values, values)
            k += 1
    return FiniteMetricSpace([f"r{i}" for i in range(n)], dist)


# Row readers of a rank table, one comprehension per row: the references
# that every row format of the pair tables is tested against.

def reference_table_ball(table, i, t):
    return frozenset(y for y, v in enumerate(table[i]) if v < t)


def reference_ball_numerators(nums, rows, t):
    return [sum([w for w, v in zip(nums, row) if v < t]) for row in rows]


def reference_separation_graph(table, t):
    return [sum(1 << j for j, r in enumerate(row) if r >= t and j != i)
            for i, row in enumerate(table)]


# The payload renderer as one isinstance chain, each key rendered once per
# comparison: the reference for ``cli.to_jsonable``'s type dispatch.

def reference_format_rational(value) -> str:
    if is_unbounded(value):
        return "unbounded"
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def reference_key(k) -> str:
    if isinstance(k, Fraction):
        return reference_format_rational(k)
    if isinstance(k, tuple):
        return ",".join(reference_key(v) for v in k)
    return str(k)


def reference_to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return reference_format_rational(obj)
    if is_unbounded(obj):
        return "unbounded"
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, PartialMap):
        return {
            "name": obj.name,
            "word": obj.word_str(),
            "map": {str(obj.space.label(i)): str(obj.space.label(v))
                    for i, v in enumerate(obj.vals) if v is not None},
        }
    if isinstance(obj, ShiftPoint):
        return {"window": list(obj.window), "background": obj.background}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return reference_to_jsonable({f.name: getattr(obj, f.name)
                                      for f in dataclasses.fields(obj)})
    if isinstance(obj, dict):
        return {reference_key(k): reference_to_jsonable(v)
                for k, v in sorted(obj.items(),
                                   key=lambda kv: reference_key(kv[0]))}
    if isinstance(obj, (frozenset, set)):
        return sorted((reference_to_jsonable(v) for v in obj), key=str)
    if isinstance(obj, (list, tuple)):
        return [reference_to_jsonable(v) for v in obj]
    return repr(obj)


# The homogeneity search over ``Fraction`` ratios and grid values, each
# delta's threshold read with ``threshold``: the reference for
# ``measure.is_homogeneous``'s integer search, which must take the same
# walk (the same witnesses, degenerate flag and counterexample).

def reference_is_homogeneous(mu, sys, eps_grid=None, n_max=None):
    space = sys.space
    level = sys.fixpoint_level
    grid = space.distance_grid()
    if eps_grid is None:
        eps_grid = grid
    eps_grid = [parse_rational(e) for e in eps_grid]
    if any(e <= 0 for e in eps_grid):
        raise InputError("scale must be positive")
    if n_max is None:
        n_max = level
    if not eps_grid or n_max < 1:
        raise InputError("need a nonempty eps grid and n_max >= 1")
    n_range = range(1, min(n_max, level) + 1)

    def measures(t, n):
        return mu.ball_numerators(sys.constraint_table(n), t)

    witnesses = {}
    degenerate = False
    counterexample = None
    ok = True
    for eps in eps_grid:
        t_eps = space.threshold(eps)
        candidates = [eps] + [d for d in reversed(grid) if d != eps]
        found = None
        fail_cell = None
        for delta in candidates:
            t_delta = space.threshold(delta)
            c_needed = Fraction(0)
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
                    fail_cell = (eps, space.label(denom.index(lo)),
                                 space.label(numer.index(hi)), n)
                    break
                c_needed = max(c_needed, Fraction(hi, lo))
            if not feasible:
                continue
            if c_needed > HOMOGENEITY_LADDER_CAP:
                fail_cell = fail_cell or (eps, None, None, None)
                continue
            c_exact = max(c_needed, Fraction(1))
            ladder = Fraction(1)
            while ladder < c_exact:
                ladder *= 2
            found = HomogeneityWitness(eps=eps, delta=delta,
                                       c_exact=c_exact, c_ladder=ladder)
            break
        if found is None:
            ok = False
            counterexample = counterexample or fail_cell
        else:
            witnesses[eps] = found
    return HomogeneityReport(ok=ok, witnesses=witnesses, degenerate=degenerate,
                             counterexample=counterexample)
