import math
import random
import time
from fractions import Fraction

import pytest

from pseudodyn import (FiniteMeasure, FiniteMetricSpace, GeneratingSystem,
                       InputError, PartialMap, PreconditionError,
                       brute_force_invariant_sets,
                       expansiveness_verdict,
                       invariant_sets, is_ergodic, is_homogeneous,
                       is_invariant_measure, local_entropy, orbit_components)
from pseudodyn import measure
from pseudodyn.dynamics import h_top_table
from pseudodyn.measure import (ExpansivenessVerdict, HomogeneityReport,
                               LocalEntropyTable, _weight)
from pseudodyn.probes import InstanceSpec, random_genome
from pseudodyn.pseudogroup import compacted_system, table_ball
from pseudodyn.rational import parse_radius, parse_rational

from conftest import reference_ball_numerators, reference_is_homogeneous


def two_cycles():
    space = FiniteMetricSpace(
        ["a", "b", "c", "d"],
        [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]])
    s1 = PartialMap.from_dict(space, {"a": "b", "b": "a"}, name="s1")
    s2 = PartialMap.from_dict(space, {"c": "d", "d": "c"}, name="s2")
    return GeneratingSystem.build(space, [s1, s2])


def test_measure_validation(line):
    with pytest.raises(InputError, match="sum to 1"):
        FiniteMeasure(line, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 5)])
    with pytest.raises(InputError, match="nonnegative"):
        FiniteMeasure(line, [Fraction(3, 2), Fraction(-1, 2), 0])


def test_from_dict_index_key_is_unknown_point(line):
    """``from_dict`` reads labels only: an index key names no point."""
    with pytest.raises(InputError, match="unknown point 0"):
        FiniteMeasure.from_dict(line, {"a": Fraction(1, 2), 0: Fraction(1, 2)})
    mu = FiniteMeasure.from_dict(line, {"a": Fraction(1, 2),
                                        "b": Fraction(1, 2)})
    assert mu.weights == (Fraction(1, 2), Fraction(1, 2), Fraction(0))


def test_invariance_examples(line, line_system, identity_system):
    uniform = FiniteMeasure.uniform(line)
    assert is_invariant_measure(uniform, line_system).ok

    skew = FiniteMeasure(line, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    rep = is_invariant_measure(skew, line_system)
    assert not rep.ok and rep.witness == ("g", "a")

    assert is_invariant_measure(skew, identity_system).ok


def test_ergodicity_examples(line, line_system, identity_system):
    assert is_ergodic(FiniteMeasure.uniform(line), line_system).ok

    cyc = two_cycles()
    rep = is_ergodic(FiniteMeasure.uniform(cyc.space), cyc)
    assert not rep.ok
    assert rep.witness in ({0, 1}, {2, 3})

    assert is_ergodic(FiniteMeasure.point_mass(line, 0), identity_system).ok


def test_ergodicity_requires_invariance(line, line_system):
    skew = FiniteMeasure(line, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    with pytest.raises(PreconditionError):
        is_ergodic(skew, line_system)


def test_invariant_sets_are_component_unions():
    cyc = two_cycles()
    assert orbit_components(cyc) == [frozenset({0, 1}), frozenset({2, 3})]
    assert invariant_sets(cyc) == brute_force_invariant_sets(cyc)


def test_invariant_sets_oracle_randomized():
    spec = InstanceSpec(seed="ergodic-module", count=10, n_points=(3, 9),
                        n_generators=(1, 2))
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        method = invariant_sets(sys_i)
        oracle = brute_force_invariant_sets(sys_i)
        assert method == oracle
        verdict = is_ergodic(FiniteMeasure.uniform(sys_i.space), sys_i)
        assert verdict.ok == all(
            FiniteMeasure.uniform(sys_i.space)(s) in (0, 1) for s in oracle)


def test_local_entropy_stabilizes_to_zero(line, line_system):
    table = local_entropy(FiniteMeasure.uniform(line), line_system, 0)
    assert table.limit == 0.0
    for cell in table.cells:
        assert cell.ball_measure > 0
        assert cell.value == pytest.approx(
            -math.log(cell.ball_measure) / cell.n)


def test_local_entropy_point_mass_all_zero(line, identity_system):
    table = local_entropy(FiniteMeasure.point_mass(line, 0),
                          identity_system, 0, n_max=3)
    assert all(c.value == 0 for c in table.cells)
    assert table.limit == 0.0


def test_local_entropy_zero_measure_cells_are_inf(line, identity_system):
    pm = FiniteMeasure.point_mass(line, 0)
    table = local_entropy(pm, identity_system, 2, eps_grid=[1], n_max=2)
    assert all(c.value == math.inf for c in table.cells)
    assert table.limit == math.inf


@pytest.mark.parametrize("n_max", [0, -3])
def test_n_max_below_one_is_input_error(line, identity_system, n_max):
    """No n means no ball to measure: refuse instead of answering vacuously
    (the default n_max finds the point mass inhomogeneous), naming n_max
    and not the grid."""
    pm = FiniteMeasure.point_mass(line, 0)
    with pytest.raises(InputError, match="^n_max must be at least 1$"):
        local_entropy(pm, identity_system, 0, n_max=n_max)
    with pytest.raises(InputError, match="^n_max must be at least 1$"):
        is_homogeneous(pm, identity_system, n_max=n_max)
    with pytest.raises(InputError, match="^n_max must be at least 1$"):
        h_top_table(identity_system, n_max=n_max)


def test_local_entropy_empty_grid_is_input_error(line, line_system):
    with pytest.raises(InputError, match="eps grid"):
        local_entropy(FiniteMeasure.uniform(line), line_system, 0,
                      eps_grid=[])


def test_grid_queries_on_one_point_answer_with_no_scale():
    """A one-point space has no positive distance, so the default grid is
    empty: the tables have no row, the stabilized ball {x} keeps its
    measure, and the homogeneity search has nothing to refute."""
    one = FiniteMetricSpace(["a"], [[0]])
    sys_one = GeneratingSystem.build(one, [])
    mu = FiniteMeasure.uniform(one)
    assert local_entropy(mu, sys_one, 0) == LocalEntropyTable(
        x="a", cells=[], limit=0.0)
    assert is_homogeneous(mu, sys_one) == HomogeneityReport(
        ok=True, witnesses={}, counterexample=None)
    assert h_top_table(sys_one).rows == []


@pytest.mark.parametrize("eps", [0, -1])
def test_nonpositive_scale_is_input_error(line, line_system, eps):
    """A scale <= 0 has empty open balls: refuse instead of reporting
    positive local entropy, or homogeneity with a nonpositive delta."""
    mu = FiniteMeasure.uniform(line)
    with pytest.raises(InputError, match="scale must be positive"):
        local_entropy(mu, line_system, 0, eps_grid=[1, eps])
    with pytest.raises(InputError, match="scale must be positive"):
        is_homogeneous(mu, line_system, eps_grid=[eps])


@pytest.mark.parametrize("grid", [[1, 1], [Fraction(1, 2), 2, "0.5"]])
def test_grid_queries_refuse_a_repeated_scale(line, line_system, grid):
    """A scale given twice, by any spelling, would repeat its rows or
    collapse its witnesses: the three grid queries refuse it, as
    ``--eps-grid`` does, with a message that names no option."""
    mu = FiniteMeasure.uniform(line)
    queries = [lambda: h_top_table(line_system, eps_grid=grid),
               lambda: local_entropy(mu, line_system, 0, eps_grid=grid),
               lambda: is_homogeneous(mu, line_system, eps_grid=grid)]
    for query in queries:
        with pytest.raises(InputError,
                           match=r"^the eps grid gives the scale \S+ twice$"):
            query()


def test_homogeneity_empty_grid_is_input_error(line, identity_system):
    """No scale means nothing to check: refuse instead of answering ok
    (the default grid finds the point mass inhomogeneous)."""
    pm = FiniteMeasure.point_mass(line, 0)
    with pytest.raises(InputError, match="eps grid"):
        is_homogeneous(pm, identity_system, eps_grid=[])


def test_positive_limit_impossible_with_positive_stabilized_measure():
    """Meta-scan: whenever the stabilized ball keeps positive measure the
    reported limit is zero, across random instances."""
    spec = InstanceSpec(seed="entropy-meta", count=15)
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        for x in range(sys_i.space.n):
            table = local_entropy(mu, sys_i, x, n_max=1)
            assert table.limit in (0.0, math.inf)
            if table.limit == math.inf:
                closure = sys_i.word_closure()
                row = closure.constraint_table(closure.stable_index)[x]
                values = sys_i.space.distance_ranks()[1]
                smallest = min(sys_i.space.distance_grid())
                ball = [y for y in range(sys_i.space.n)
                        if values[row[y]] < smallest]
                assert mu(ball) == 0


def test_homogeneity_uniform_line(line, line_system):
    rep = is_homogeneous(FiniteMeasure.uniform(line), line_system)
    assert rep.ok
    for eps, witness in rep.witnesses.items():
        assert witness.delta == eps
        assert witness.c_exact <= 3  # every ball measure lies in [1/3, 1]
        assert witness.c_ladder >= witness.c_exact


def test_homogeneity_point_mass_fails_literally(line, identity_system):
    """A null ball opposite an atom ball defeats the inequality for every
    (delta, c); the report carries the falsifying cell."""
    rep = is_homogeneous(FiniteMeasure.point_mass(line, 0), identity_system)
    assert not rep.ok
    assert rep.counterexample is not None


def test_default_grid_homogeneity_is_full_support(line, line_system_cores):
    """Let grid[0] be the least positive distance.  Every open grid[0]-ball
    at every level is {x}: the level-0 ball is {x}, tables only rise, and
    every ball holds its center.  So a point of weight 0 has a grid[0]-ball
    of measure 0, which fails the search; with every weight positive,
    delta = eps gives c <= 1 / (least weight), under the 2^20 ladder cap.
    On the default grid the verdict is therefore "mu has full support",
    for a cored system and for its compacted system alike.  On the line
    with weights (1/2, 0, 1/2), grid [1, 2], only grid[0] sees the null
    point: its 2-ball is the whole line at every level."""
    half = Fraction(1, 2)
    cases = [(line_system_cores, FiniteMeasure(line, [half, 0, half]))]
    spec = InstanceSpec(seed=1, count=1000)
    cases += [random_genome(spec, i).build() for i in range(spec.count)]
    verdicts = []
    for sys_i, mu in cases:
        full = mu.atoms() == sys_i.space.full_set()
        assert is_homogeneous(mu, sys_i).ok == full
        assert is_homogeneous(mu, compacted_system(sys_i)).ok == full
        verdicts.append(full)
    assert verdicts[0] is False
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_expansiveness_verdict_examples(line, line_system):
    uniform = FiniteMeasure.uniform(line)
    rep = expansiveness_verdict(uniform, line_system, 1)
    assert rep.classification == "neither"
    assert rep.ball_measures["a"] == Fraction(2, 3)
    assert rep.atoms == {0, 1, 2}
    assert rep.zero_set == frozenset()

    wide = expansiveness_verdict(uniform, line_system, 2)
    assert wide.classification == "neither"
    assert all(m == 1 for m in wide.ball_measures.values())


def test_atoms_block_weak_expansiveness():
    spec = InstanceSpec(seed="atoms", count=10)
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        if mu.atoms() == sys_i.space.full_set():
            for d in sys_i.space.distance_grid():
                assert expansiveness_verdict(mu, sys_i, d).classification \
                    == "neither"


def test_verdicts_stable_under_point_permutation(line):
    """Permuting the point order leaves every verdict unchanged."""
    perm = FiniteMetricSpace(["c", "a", "b"],
                             [[0, 2, 1], [2, 0, 1], [1, 1, 0]])
    g1 = GeneratingSystem.build(
        line := FiniteMetricSpace(["a", "b", "c"],
                                  [[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
        [PartialMap.from_dict(line, {"a": "b", "b": "c"}, name="g")])
    g2 = GeneratingSystem.build(
        perm, [PartialMap.from_dict(perm, {"a": "b", "b": "c"}, name="g")])
    for d in (1, 2):
        v1 = expansiveness_verdict(FiniteMeasure.uniform(line), g1, d)
        v2 = expansiveness_verdict(FiniteMeasure.uniform(perm), g2, d)
        assert v1.classification == v2.classification
        assert v1.ball_measures == v2.ball_measures


# -- integer ball sums against the Fraction route -----------------------------


def ref_mu(mu, subset) -> Fraction:
    """The reference measure: the ``Fraction`` weights summed one by one."""
    return sum((mu.weights[i] for i in subset), Fraction(0))


def fraction_ball_measures(mu, sys):
    """The reference's ball-measure route: each ball read from the word
    closure's constraint table, its weights summed one by one."""
    closure = sys.word_closure()

    def measures(t, n):
        table = closure.constraint_table(n)
        return [ref_mu(mu, table_ball(table, i, t))
                for i in range(sys.space.n)]
    return measures


def ref_expansiveness_verdict(mu, sys, delta):
    """Reference expansiveness verdict with ``Fraction`` ball measures."""
    delta = parse_radius(delta)
    space = sys.space
    closure = sys.word_closure()
    table = closure.constraint_table(closure.stable_index)
    t = space.threshold(delta, closed=True)
    measures = {}
    zero = set()
    for xi in range(space.n):
        m = ref_mu(mu, table_ball(table, xi, t))
        measures[space.label(xi)] = m
        if m == 0:
            zero.add(xi)
    zero_set = frozenset(zero)
    zmass = ref_mu(mu, zero_set)
    atoms = frozenset(i for i, w in enumerate(mu.weights) if w > 0)
    if len(zero_set) == space.n:
        cls = "expansive"
    elif zmass == 1:
        cls = "weakly-expansive-only"
    else:
        cls = "neither"
    note = ""
    if atoms and cls != "expansive":
        note = ("atoms pin positive ball measure at their own centers, so no "
                "finite-space measure is expansive at any scale")
    return ExpansivenessVerdict(delta=delta, classification=cls,
                                ball_measures=measures, zero_set=zero_set,
                                atoms=atoms, note=note)


COPRIME = (3, 5, 7, 11, 13, 17, 19)


def reference_measures(space, mu):
    """The instance's own measure, uniform, two point masses, a measure
    with zero weights, and one over pairwise-coprime denominators."""
    n = space.n
    out = [mu, FiniteMeasure.uniform(space),
           FiniteMeasure.point_mass(space, 0),
           FiniteMeasure.point_mass(space, n - 1)]
    even = [Fraction(i + 1) if i % 2 == 0 else Fraction(0) for i in range(n)]
    out.append(FiniteMeasure(space, [w / sum(even) for w in even]))
    head = [Fraction(1, p) for p in COPRIME[:n - 1]]
    out.append(FiniteMeasure(space, head + [1 - sum(head)]))
    return out


def reference_radii(space):
    """Every grid radius, every midpoint, 0, and a radius past the
    diameter."""
    grid = space.distance_grid()
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    return [Fraction(0), *grid, *mids, max(grid, default=0) + 1]


def reference_systems(count=60):
    spec = InstanceSpec(seed="integer-ball-sums", count=count)
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        yield sys_i, mu
        if sys_i.has_cores:
            yield compacted_system(sys_i), mu


def test_ball_numerators_match_fraction_sums():
    """Integer ball sums over ``den`` equal the ``Fraction`` route on every
    radius, open and closed, and every level up to the stable index."""
    cells = 0
    coprime_den = 0
    for sys_i, mu_i in reference_systems():
        space = sys_i.space
        closure = sys_i.word_closure()
        tables = [space.distance_ranks()[0]] + [
            closure.constraint_table(n)
            for n in range(1, closure.stable_index + 1)]
        # radii with the same rank threshold have the same balls
        thresholds = {space.threshold(r, closed)
                      for r in reference_radii(space) for closed in (False, True)}
        for mu in reference_measures(space, mu_i):
            assert mu.den == math.lcm(*(w.denominator for w in mu.weights))
            coprime_den = max(coprime_den, mu.den)
            for t in thresholds:
                for table in tables:
                    balls = [table_ball(table, i, t) for i in range(space.n)]
                    want = [ref_mu(mu, ball) for ball in balls]
                    assert [Fraction(m, mu.den)
                            for m in mu.ball_numerators(table, t)] == want
                    assert [mu(ball) for ball in balls] == want
                    cells += 1
    assert cells > 5_000
    assert coprime_den >= 3 * 5 * 7


def test_verdicts_match_fraction_reference():
    """Whole homogeneity reports and expansiveness verdicts equal the
    reference on every measure, at every radius for the verdict, on the
    seeded systems and on one point, whose default grid is empty."""
    one = FiniteMetricSpace(["a"], [[0]])
    systems = [*reference_systems(),
               (GeneratingSystem.build(one, []), FiniteMeasure.uniform(one))]
    for sys_i, mu_i in systems:
        space = sys_i.space
        for mu in reference_measures(space, mu_i):
            assert is_homogeneous(mu, sys_i) == reference_is_homogeneous(
                sys_i, fraction_ball_measures(mu, sys_i))
            for r in reference_radii(space):
                assert expansiveness_verdict(mu, sys_i, r) \
                    == ref_expansiveness_verdict(mu, sys_i, r)


def capped_measures(space):
    """Ratios of ball measures near, at and past the 2^20 cap: one heavy
    point and every other weight 2^-k, and one light point of weight 2^-k
    and equal weights elsewhere, for k around 20."""
    n = space.n
    out = []
    for k in (19, 20, 21, 22, 24):
        light = Fraction(1, 2 ** k)
        out.append(FiniteMeasure(space, [1 - (n - 1) * light]
                                 + [light] * (n - 1)))
        out.append(FiniteMeasure(space, [light]
                                 + [(1 - light) / (n - 1)] * (n - 1)))
    return out


def test_integer_homogeneity_search_matches_the_fraction_walk():
    """The integer search returns the ``Fraction`` walk's report, witness
    for witness, with its counterexample, on seeded systems under the
    default grid, grids of off-grid scales (midpoints, below the least
    distance, past the diameter) and mixed grids, for measures with zero
    weights and ratios around the 2^20 cap.  The walk tries every delta
    at every scale; the search reads none above a failing eps but the
    one its counterexample's y is read at."""
    seen = {"capped": 0, "ladder": 0, "lower delta": 0,
            "off-grid witness": 0, "empty ball": 0, "empty ball at grid[0]": 0}
    for sys_i, mu_i in reference_systems(40):
        space = sys_i.space
        grid = space.distance_grid()
        mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        # the mixed grid names grid[0] once on a one-value grid, as the
        # grid rule refuses a repeated scale
        grids = [None, [grid[0] / 2, *mids, grid[-1] + 1],
                 list(dict.fromkeys([grid[-1], *mids[:2], grid[0],
                                     grid[0] / 3]))]
        for mu in reference_measures(space, mu_i) + capped_measures(space):
            for eps_grid in grids:
                got = is_homogeneous(mu, sys_i, eps_grid)
                assert got == reference_is_homogeneous(
                    sys_i, lambda t, n: reference_ball_numerators(
                        mu.nums, sys_i.constraint_table(n), t), eps_grid)
                cell = got.counterexample
                seen["capped"] += cell is not None and cell[1] is None
                seen["empty ball"] += cell is not None and cell[1] is not None
                seen["empty ball at grid[0]"] += (
                    cell is not None and cell[1] is not None
                    and cell[0] == grid[0])
                for eps, w in got.witnesses.items():
                    seen["ladder"] += w.c_ladder > 2
                    seen["lower delta"] += w.delta < eps
                    seen["off-grid witness"] += eps not in grid
    assert min(seen.values()) >= 10, seen


def test_homogeneity_search_reads_no_threshold_above_a_failing_eps(
        monkeypatch):
    """A point mass has eps-balls of measure 0 at eps = grid[0], so eps
    fails for every (delta, c): the search reads the eps-balls, and above
    eps only grid[1], the smallest grid value other than eps, where its
    counterexample's y is read."""
    n = 6
    space = FiniteMetricSpace(list(range(n)),
                              [[abs(i - j) for j in range(n)]
                               for i in range(n)])
    sys_i = GeneratingSystem.build(space, [])
    mu = FiniteMeasure.point_mass(space, 0)
    grid = space.distance_grid()
    assert len(grid) == n - 1
    read = set()
    balls_at = measure._balls_at

    def recording(cums, t):
        read.add(t)
        return balls_at(cums, t)

    monkeypatch.setattr(measure, "_balls_at", recording)
    got = is_homogeneous(mu, sys_i, [grid[0]])
    assert read == {space.threshold(grid[0]), space.threshold(grid[1])}
    assert got.counterexample[0] == grid[0]
    assert got == reference_is_homogeneous(
        sys_i, lambda t, n: reference_ball_numerators(
            mu.nums, sys_i.constraint_table(n), t), [grid[0]])


class FreshRows:
    """A system's pair tables with every row a fresh tuple on each read,
    so no row object is shared between levels or between reads."""

    def __init__(self, sys):
        self.sys = sys
        self.space = sys.space
        self.fixpoint_level = sys.fixpoint_level

    def constraint_table(self, n=math.inf):
        return [tuple(row) for row in self.sys.constraint_table(n)]


def multilevel_system(rng):
    """40 to 60 points at irregular positions on a line, with two partial
    shifts along runs of points: pair tables of many levels, whose
    unraised rows are shared between levels."""
    n = rng.randint(40, 60)
    xs = sorted(rng.sample(range(1, 10 * n), n))
    space = FiniteMetricSpace([f"p{i}" for i in range(n)],
                              [[Fraction(abs(a - b), 3) for b in xs]
                               for a in xs])
    maps = []
    for k in range(2):
        start = rng.randrange(n // 2)
        vals = [None] * n
        for i in range(start, start + rng.randrange(5, n // 2)):
            vals[i] = i + 1
        maps.append(PartialMap(space, vals, name=f"s{k}"))
    return GeneratingSystem.build(space, maps)


def test_level_reuse_matches_per_level_sums():
    """Homogeneity reports and local-entropy tables read from pair tables
    whose unraised rows are shared between levels, where each shared row's
    histogram is built once and read at every level, equal those that a
    copy of the measure reads from fresh tuple rows, on multi-level models
    (L >= 5) under uniform, random and partly zero measures."""
    rng = random.Random("level-reuse")
    levels = []
    for _ in range(4):
        sys_i = multilevel_system(rng)
        space, level = sys_i.space, sys_i.fixpoint_level
        levels.append(level)
        shared = sum(a is b for n in range(2, level + 1)
                     for a, b in zip(sys_i.constraint_table(n),
                                     sys_i.constraint_table(n - 1)))
        assert 0 < shared < (level - 1) * space.n
        fresh = FreshRows(sys_i)
        weights = [rng.randint(0, 4) for _ in range(space.n)]
        weights[0] += 1
        measures = [FiniteMeasure.uniform(space),
                    FiniteMeasure(space, [Fraction(w, sum(weights))
                                          for w in weights]),
                    FiniteMeasure(space, [Fraction(i % 3 == 0, (space.n + 2) // 3)
                                          for i in range(space.n)])]
        grid = space.distance_grid()
        eps_grid = rng.sample(grid, 2) + [grid[0], grid[-1] + 1]
        for mu in measures:
            copy = FiniteMeasure(space, mu.weights)
            for n_max in (None, 3):
                assert is_homogeneous(mu, sys_i, eps_grid, n_max) \
                    == is_homogeneous(copy, fresh, eps_grid, n_max)
            for x in rng.sample(range(space.n), 3):
                assert local_entropy(mu, sys_i, x, eps_grid, level + 2) \
                    == local_entropy(copy, fresh, x, eps_grid, level + 2)
    assert min(levels) >= 5


def wide_line_system(n):
    """``n`` points at irregular integer positions on a line, more than 256
    distinct distances apart, so pair-table rows are tuples, with two
    partial shifts along long runs of points: many levels."""
    rng = random.Random(f"wide-line-{n}")
    xs = sorted(rng.sample(range(1, 10 * n), n))
    space = FiniteMetricSpace([f"p{i}" for i in range(n)],
                              [[abs(a - b) for b in xs] for a in xs])
    maps = []
    for k in range(2):
        start = rng.randrange(n // 2)
        vals = [None] * n
        for i in range(start, start + rng.randrange(n // 4, n // 2)):
            vals[i] = i + 1
        maps.append(PartialMap(space, vals, name=f"s{k}"))
    return GeneratingSystem.build(space, maps)


def test_homogeneity_on_a_wide_grid_is_fast():
    """The default-grid homogeneity search on a 60-point line with 460
    distinct distances and 27 levels reads each level's ball measures from
    per-row histograms: it took 0.10-0.14 s on a 2-core machine under
    CPython 3.11, where summing the rows at every threshold took
    0.93-1.4 s."""
    sys_w = wide_line_system(60)
    space = sys_w.space
    assert len(space.distance_ranks()[1]) > 400
    assert type(sys_w.constraint_table()[0]) is tuple
    assert sys_w.fixpoint_level >= 20
    mu = FiniteMeasure.uniform(space)
    start = time.perf_counter()
    report = is_homogeneous(mu, sys_w)
    assert time.perf_counter() - start < 0.5
    assert report.ok and len(report.witnesses) == len(space.distance_grid())


def test_one_measure_reads_an_ambient_and_its_compacted_system():
    """One measure reads the pair tables of a cored system and of its
    compacted system, which share the space but not every row, level by
    level and threshold by threshold, alternating between the two: every
    ball measure equals the row-by-row reference, and so does each
    system's homogeneity report."""
    spec = InstanceSpec(seed="one-measure-two-systems", count=40)
    differ = 0
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        if not sys_i.has_cores:
            continue
        compacted = compacted_system(sys_i)
        pair = (sys_i, compacted)
        space = sys_i.space
        top = max(sys_i.fixpoint_level, compacted.fixpoint_level)
        differ += any(sys_i.constraint_table(n) != compacted.constraint_table(n)
                      for n in range(1, top + 1))
        for n in range(1, top + 1):
            for t in range(len(space.distance_ranks()[1]) + 1):
                for system in pair:
                    table = system.constraint_table(n)
                    assert mu.ball_numerators(table, t) \
                        == reference_ball_numerators(mu.nums, table, t)
        for system in pair:
            assert is_homogeneous(mu, system) == reference_is_homogeneous(
                system, lambda t, n: reference_ball_numerators(
                    mu.nums, system.constraint_table(n), t))
    assert differ >= 5


def test_measure_on_a_same_labelled_space_reads_the_system_metric():
    """A measure on a space with the system's labels and another metric is
    read at the system's ranks, past every rank of its own space: on a 0/1
    metric against a line, the verdicts equal the references, which read
    only the measure's weights."""
    n = 5
    flat = FiniteMetricSpace(list("abcde"), [[int(i != j) for j in range(n)]
                                             for i in range(n)])
    wide = FiniteMetricSpace(list("abcde"), [[abs(i - j) for j in range(n)]
                                             for i in range(n)])
    shift = PartialMap.from_dict(wide, {"a": "b", "b": "c"}, name="s")
    sys_w = GeneratingSystem.build(wide, [shift])
    assert len(flat.distance_ranks()[1]) < len(wide.distance_ranks()[1])
    mus = [FiniteMeasure.uniform(flat),
           FiniteMeasure(flat, [Fraction(k, 15) for k in range(1, n + 1)])]
    for mu in mus:
        for r in reference_radii(wide):
            assert expansiveness_verdict(mu, sys_w, r) \
                == ref_expansiveness_verdict(mu, sys_w, r)
        assert is_homogeneous(mu, sys_w) == reference_is_homogeneous(
            sys_w, fraction_ball_measures(mu, sys_w))
        for x in range(n):
            for cell in local_entropy(mu, sys_w, x).cells:
                table = sys_w.constraint_table(cell.n)
                assert cell.ball_measure == ref_mu(
                    mu, table_ball(table, x, wide.threshold(cell.eps)))


def test_measure_on_another_space_is_input_error():
    """Every verdict that reads a measure refuses one on other points: a
    uniform measure on three points against a five-point line system."""
    five = FiniteMetricSpace(list("abcde"),
                             [[abs(i - j) for j in range(5)] for i in range(5)])
    g = PartialMap.from_dict(five, {"a": "b", "b": "c"}, name="g")
    sys5 = GeneratingSystem.build(five, [g])
    three = FiniteMetricSpace(list("abc"),
                              [[abs(i - j) for j in range(3)] for i in range(3)])
    mu = FiniteMeasure.uniform(three)
    for verdict in (lambda: expansiveness_verdict(mu, sys5, 1),
                    lambda: is_homogeneous(mu, sys5),
                    lambda: local_entropy(mu, sys5, 0),
                    lambda: is_ergodic(mu, sys5)):
        with pytest.raises(InputError,
                           match="measure and system live on different spaces"):
            verdict()


WEIGHT_STRINGS = [
    "1/2", "007/014", "0/5", "3/3", "12345678901234567890/3", "1/0", "0/0",
    "00/000", " 1/2", "1/2 ", "1 / 2", "+1/2", "-1/2", "1/-2", "٣/٤",
    "1/٤", "²/3", "1_0/3", "1/1_0", "1/2/3", "/2", "1/", "/", "",
    "3", "-3", "0.25", "1.5/2", "1e-1/2", "1e2", "0x1/2", "⅔",
    "1" * 5000 + "/3", "1/" + "3" * 5000,
]


@pytest.mark.parametrize("text", WEIGHT_STRINGS,
                         ids=lambda s: s if len(s) < 20 else f"{len(s)} chars")
def test_weight_strings_read_like_parse_rational(text):
    """The plain 'p/q' reading of a model weight gives what
    ``parse_rational`` gives on this Python's ``Fraction`` string rules:
    the same reduced integer pair, or the same refusal."""
    try:
        expected = parse_rational(text).as_integer_ratio()
    except InputError as exc:
        with pytest.raises(InputError) as got:
            _weight(text)
        assert str(got.value) == str(exc)
        return
    got = _weight(text)
    assert type(got) is tuple and list(map(type, got)) == [int, int]
    assert got == expected


def test_measure_from_dict_reads_weights_exactly():
    space = FiniteMetricSpace("abcd", [[int(i != j) for j in range(4)]
                                       for i in range(4)])
    mu = FiniteMeasure.from_dict(space, {"a": "002/8", "b": " 1/4",
                                         "c": Fraction(1, 4), "d": 0.25})
    assert mu.weights == (Fraction(1, 4),) * 4
    assert (mu.nums, mu.den) == ((1, 1, 1, 1), 4)
    with pytest.raises(InputError, match=r"^weights must sum to 1 \(got 5/4\)$"):
        FiniteMeasure.from_dict(space, {"a": "1/2", "b": "3/4"})
    with pytest.raises(InputError, match="^weights must be nonnegative$"):
        FiniteMeasure.from_dict(space, {"a": "-1/2", "b": "3/2"})
