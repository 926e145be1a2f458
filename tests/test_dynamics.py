import math
from fractions import Fraction

import pytest

from pseudodyn import (CapabilityError, FiniteMeasure, FiniteMetricSpace,
                       GeneratingSystem, InputError, SpaceIso, bowen_ball,
                       brute_force_separated, compacted_system,
                       conjugate_system, dyn_ball, dyn_ball_via_formula,
                       h_top_table, is_unbounded, local_entropy,
                       pushforward, separated_count, separation_radius)
from pseudodyn.mutations import MUTATIONS
from pseudodyn.probes import InstanceSpec, closure_with, random_genome
from pseudodyn.pseudogroup import PartialMap, WordClosure

from conftest import rotation_system, system_past_255_points


def test_dyn_ball_line(line_system):
    rep = dyn_ball(line_system, 0, 1, Fraction(3, 2))
    assert rep.members == {0, 1}
    blocker, dist = rep.exclusions[2]
    assert blocker.is_identity() and dist == 2


def test_dyn_ball_exclusions_never_build_dist(monkeypatch, line_system):
    """An exclusion's distance is the value of its rank, the same
    ``Fraction`` as ``dist`` holds, read without building ``dist``."""
    space = line_system.space
    want = {(x, n): dyn_ball(line_system, x, n, Fraction(3, 2)).exclusions
            for x in range(space.n) for n in (1, 2)}
    assert any(want.values())

    def unread(space):
        raise AssertionError("dist was built")

    fresh = FiniteMetricSpace(space.points, space.dist)
    system = GeneratingSystem.build(
        fresh, [PartialMap(fresh, g.vals, name=g.name)
                for g in line_system.generators[1:2]])
    monkeypatch.setattr(FiniteMetricSpace, "dist", property(unread))
    for (x, n), exclusions in want.items():
        got = dyn_ball(system, x, n, Fraction(3, 2)).exclusions
        assert {y: d for y, (_, d) in got.items()} \
            == {y: d for y, (_, d) in exclusions.items()}
        assert all(type(d) is Fraction for _, d in got.values())


def test_dyn_ball_identity_system_is_metric_ball(identity_system):
    space = identity_system.space
    for x in range(space.n):
        for eps in [Fraction(1, 2), 1, Fraction(3, 2), 2]:
            for closed in (False, True):
                assert (dyn_ball(identity_system, x, 3, eps, closed=closed).members
                        == space.ball_ix(x, eps, closed=closed))


def test_a_point_argument_is_an_index_not_a_label():
    """On points [2, 0, 1], index 0 is the point labelled 2: every
    computation at a point reads its argument as an index, and reports
    name the centre by its label."""
    space = FiniteMetricSpace([2, 0, 1], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    system = GeneratingSystem.build(space, [])
    mu = FiniteMeasure.uniform(space)
    for rep in (dyn_ball(system, 0, 1, Fraction(3, 2)),
                bowen_ball(system, 0, 1)):
        assert rep.center == 2 and rep.members == {0, 1}
    assert dyn_ball_via_formula(system, 0, 1, Fraction(3, 2)) == {0, 1}
    assert local_entropy(mu, system, 0).x == 2
    assert FiniteMeasure.point_mass(space, 0).weights[0] == 1
    iso = SpaceIso.relabel(space, ["p", "q", "r"])
    assert local_entropy(pushforward(mu, iso), conjugate_system(system, iso),
                         0).x == "p"


@pytest.mark.parametrize("x", ["a", True, -1, 3, 1.0])
def test_a_point_that_is_no_index_is_input_error(line, line_system, x):
    """A label, a bool, a non-int and an int out of range are refused by
    every computation at a point."""
    mu = FiniteMeasure.uniform(line)
    calls = [lambda: dyn_ball(line_system, x, 1, 1),
             lambda: bowen_ball(line_system, x, 1),
             lambda: dyn_ball_via_formula(line_system, x, 1, 1),
             lambda: local_entropy(mu, line_system, x),
             lambda: FiniteMeasure.point_mass(line, x)]
    for call in calls:
        with pytest.raises(InputError, match="not a point index"):
            call()


def test_dyn_ball_rotations_collapse_to_metric():
    sys6 = rotation_system(6)
    rep = dyn_ball(sys6, 0, 1, 1, closed=True)
    assert rep.members == {5, 0, 1}


def test_formula_matches_examples(line_system):
    assert dyn_ball_via_formula(line_system, 0, 1, Fraction(3, 2)) == {0, 1}
    assert dyn_ball_via_formula(line_system, 0, 1, 10) \
        == line_system.space.full_set()


def reference_ball_formula(sys, x, n, eps, closed, closure):
    """The set-algebra ball point by point: each word defined at ``x``
    contributes the points it sends into the metric ball around its image
    of ``x`` (a mask from that image's distance row, memoized per image),
    together with the points outside its domain."""
    space = sys.space
    full = (1 << space.n) - 1
    result = full
    masks = {}
    for g in closure.maps_at(n):
        gx = g.vals[x]
        if gx is None:
            continue
        target = masks.get(gx)
        if target is None:
            row = space.dist[gx]
            target = 0
            for j in range(space.n):
                if (row[j] <= eps) if closed else (row[j] < eps):
                    target |= 1 << j
            masks[gx] = target
        preimage = 0
        for i, v in enumerate(g.vals):
            if v is not None and target >> v & 1:
                preimage |= 1 << i
        result &= preimage | (full ^ g.dom_mask)
        if not result:
            break
    return frozenset(i for i in range(space.n) if result >> i & 1)


def grid_radii(space):
    """0, every grid value, the midpoints between them and a radius past
    the diameter."""
    grid = space.distance_grid()
    return ([Fraction(0), *grid, space.diameter() + 1]
            + [(a + b) / 2 for a, b in zip(grid, grid[1:])])


def assert_formula_matches_reference(system, closure, ns, radii):
    for x in range(system.space.n):
        for n in ns:
            for eps in radii:
                for closed in (False, True):
                    assert dyn_ball_via_formula(
                        system, x, n, eps, closed=closed, closure=closure) \
                        == reference_ball_formula(system, x, n, eps, closed,
                                                  closure)


def test_formula_matches_per_map_masks_seeded():
    """The byte-table formula against the point-by-point one at every n
    up to one past the stabilization index, open and closed, at every
    grid radius."""
    spec = InstanceSpec(seed="formula-rows", count=100)
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        closure = sys_i.word_closure()
        assert_formula_matches_reference(
            sys_i, closure, range(1, closure.stable_index + 2),
            grid_radii(sys_i.space))


def test_formula_matches_reference_on_mutant_closures():
    """A mutant compose's closure is a plain list of maps whose byte keys
    are built when the formula first reads them.  It memoizes its own
    balls: after the production closure of the same system has filled its
    memo, the mutant closure still answers by its own words, and on some
    instance that answer differs from the production one."""
    mutants = [ops for ops in MUTATIONS.values()
               if ops.compose is not PartialMap.then]
    spec = InstanceSpec(seed="formula-mutants", count=20)
    differ = 0
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        closure = sys_i.word_closure()
        radii = grid_radii(sys_i.space)
        ns = sorted({1, 2, closure.stable_index})
        assert_formula_matches_reference(sys_i, closure, ns, radii)
        memo = dict(closure._formula_balls)
        for ops in mutants:
            mutant = closure_with(ops, sys_i)
            assert type(mutant.stabilized_maps) is list
            assert not mutant._formula_balls
            assert_formula_matches_reference(sys_i, mutant, ns, radii)
            differ += any(
                dyn_ball_via_formula(sys_i, x, n, eps, closure=mutant)
                != dyn_ball_via_formula(sys_i, x, n, eps, closure=closure)
                for x in range(sys_i.space.n) for n in ns for eps in radii)
        assert closure._formula_balls == memo
    assert differ


def test_formula_past_255_points_reads_point_by_point():
    """On 256 points no map has a byte key, so the formula takes the
    point-by-point route."""
    system = system_past_255_points()
    closure = system.word_closure()
    radii = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    for x in (0, 1, 3, 4, 128, 252, 255):
        for n in range(1, closure.stable_index + 2):
            for eps in radii:
                for closed in (False, True):
                    assert dyn_ball_via_formula(
                        system, x, n, eps, closed=closed, closure=closure) \
                        == reference_ball_formula(system, x, n, eps, closed,
                                                  closure)


def twelve_point_system():
    """Twelve points on a line, so eleven grid values and rank thresholds
    in two threshold bytes, under a partial step and a partial flip."""
    n = 12
    space = FiniteMetricSpace(list(range(n)),
                              [[abs(i - j) for j in range(n)]
                               for i in range(n)])
    step = PartialMap(space, [i + 1 if i < n - 1 else None
                              for i in range(n)], name="s")
    flip = PartialMap(space, [n - 1 - i if i < 8 else None
                              for i in range(n)], name="f")
    return GeneratingSystem.build(space, [step, flip])


def assert_formula_cell(system, closure, x, n, eps, closed):
    assert dyn_ball_via_formula(system, x, n, eps, closed=closed,
                                closure=closure) \
        == reference_ball_formula(system, x, n, eps, closed, closure)


def test_formula_interleaves_thresholds_within_and_across_bytes():
    """Reads that jump between thresholds of one byte and of two bytes,
    and between levels, each answer from the memo of its own (level,
    byte)."""
    system = twelve_point_system()
    space = system.space
    closure = system.word_closure()
    grid = space.distance_grid()
    assert len(grid) > 8
    order = [grid[9], grid[0], grid[10], grid[3], Fraction(0), grid[7],
             grid[8], grid[1], space.diameter() + 1, grid[6]]
    thresholds = set()
    for k, eps in enumerate(order):
        for closed in (True, False):
            thresholds.add(space.threshold(eps, closed))
            for x in range(space.n):
                for n in (1 + k % 3, closure.stable_index):
                    assert_formula_cell(system, closure, x, n, eps, closed)
    assert {t & ~7 for t in thresholds} == {0, 8}
    assert len({t & ~7 for t in thresholds if t & 7}) == 2


def test_formula_open_and_closed_radii_share_a_threshold():
    """The closed ball at grid value k and the open one at value k + 1
    have one rank threshold, hence one answer."""
    system = twelve_point_system()
    space = system.space
    closure = system.word_closure()
    grid = space.distance_grid()
    for a, b in zip(grid, grid[1:]):
        assert space.threshold(a, True) == space.threshold(b, False)
        for x in range(space.n):
            for n in (1, 2, closure.stable_index):
                closed_ball = dyn_ball_via_formula(
                    system, x, n, a, closed=True, closure=closure)
                assert closed_ball == dyn_ball_via_formula(
                    system, x, n, b, closed=False, closure=closure)
                assert closed_ball == reference_ball_formula(
                    system, x, n, a, True, closure)


def test_formula_past_the_stable_index_reads_the_stable_level():
    system = twelve_point_system()
    closure = system.word_closure()
    stable = closure.stable_index
    for n in (stable, stable + 1, stable + 7):
        for x in range(system.space.n):
            for eps in (Fraction(1), Fraction(5, 2), Fraction(9)):
                for closed in (False, True):
                    assert_formula_cell(system, closure, x, n, eps, closed)
    assert {level for level, _ in closure._formula_balls} == {stable}


def test_formula_reads_the_words_once_per_level_and_threshold_byte(
        monkeypatch):
    """Every point, level and threshold of a byte after the first read
    comes from the memo: one ``maps_at`` pass per (level, byte)."""
    system = twelve_point_system()
    space = system.space
    closure = system.word_closure()
    passes = []
    maps_at = WordClosure.maps_at

    def spy(self, n):
        passes.append(n)
        return maps_at(self, n)

    monkeypatch.setattr(WordClosure, "maps_at", spy)
    radii = grid_radii(space)
    ns = (1, 2, closure.stable_index, closure.stable_index + 3)
    for _ in range(2):
        for x in range(space.n):
            for n in ns:
                for eps in radii:
                    for closed in (False, True):
                        dyn_ball_via_formula(system, x, n, eps, closed=closed,
                                             closure=closure)
    bases = {space.threshold(eps, closed) & ~7
             for eps in radii for closed in (False, True)}
    levels = {min(n, closure.stable_index) for n in ns}
    assert sorted(passes) == sorted(level for level in levels
                                    for _ in bases)
    assert set(closure._formula_balls) == {(level, base) for level in levels
                                           for base in bases}


def test_formula_refuses_a_negative_radius(line_system):
    for eps in (-1, Fraction(-1, 2), "-3"):
        with pytest.raises(InputError, match="radius must be nonnegative"):
            dyn_ball_via_formula(line_system, 0, 1, eps)
        with pytest.raises(InputError, match="radius must be nonnegative"):
            dyn_ball(line_system, 0, 1, eps)


def test_formula_equals_scan_exhaustive_desk_scale():
    spec = InstanceSpec(seed="formula-module", count=15, n_points=(3, 6),
                        n_generators=(1, 2))
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        closure = sys_i.word_closure()
        space = sys_i.space
        grid = space.distance_grid() + [Fraction(1, 3), space.diameter() + 1]
        for x in range(space.n):
            for n in (1, 2, closure.stable_index):
                for eps in grid:
                    for closed in (False, True):
                        assert (dyn_ball(sys_i, x, n, eps,
                                         closed=closed).members
                                == dyn_ball_via_formula(sys_i, x, n, eps,
                                                        closed=closed,
                                                        closure=closure))


def reference_dyn_ball(sys, x, n, eps, closed, closure):
    """The ball by the per-map scan: each point is a member unless some
    word, in closure order, is defined at both and pushes it to ``eps``
    or past; that first word is its exclusion."""
    space = sys.space
    members = set()
    exclusions = {}
    for y in range(space.n):
        for g in closure.maps_at(n):
            gx, gy = g.vals[x], g.vals[y]
            if gx is None or gy is None:
                continue
            d = space.dist[gx][gy]
            if (d > eps) if closed else (d >= eps):
                exclusions[y] = (g, d)
                break
        else:
            members.add(y)
    return members, exclusions


def assert_ball_matches_reference(rep, npts, want_members, want_exclusions):
    """Equal members, and every non-member excluded by the same word at
    the same distance."""
    assert rep.members == want_members
    assert set(rep.exclusions) == set(range(npts)) - rep.members
    assert {y: (g.word, d) for y, (g, d) in rep.exclusions.items()} \
        == {y: (g.word, d) for y, (g, d) in want_exclusions.items()}


def test_dyn_ball_matches_per_map_scan_seeded():
    """Equal members and the same exclusion, word and distance, at radii
    on the grid, between its values, at 0 and past the diameter, open and
    closed, at n = 1, 2 and the stabilization index and for Bowen balls,
    on the systems and their core-restricted ones."""
    spec = InstanceSpec(seed="dyn-ball-scan", count=60)
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        systems = [sys_i]
        if sys_i.has_cores:
            systems.append(compacted_system(sys_i))
        for system in systems:
            closure = system.word_closure()
            space = system.space
            grid = space.distance_grid()
            radii = [Fraction(0), *grid, space.diameter() + 1]
            radii += [(a + b) / 2 for a, b in zip(grid, grid[1:])]
            for x in range(space.n):
                for eps in radii:
                    for n in sorted({1, 2, closure.stable_index}):
                        for closed in (False, True):
                            assert_ball_matches_reference(
                                dyn_ball(system, x, n, eps, closed=closed),
                                space.n,
                                *reference_dyn_ball(system, x, n, eps,
                                                    closed, closure))
                    assert_ball_matches_reference(
                        bowen_ball(system, x, eps), space.n,
                        *reference_dyn_ball(system, x, closure.stable_index,
                                            eps, True, closure))


def test_cold_bowen_ball_reads_the_fixpoint_prefix():
    """A cold Bowen query works at the pair fixpoint level L and builds at
    most twice the closure's length-L prefix, on systems whose closure
    stabilizes later than their tables."""
    spec = InstanceSpec(seed="bowen-prefix", count=80)
    checked = 0
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        for system in (sys_i, compacted_system(sys_i)):
            closure = system.word_closure()
            level = system.fixpoint_level
            if level >= closure.stable_index:
                continue
            rep = bowen_ball(system, 0, system.space.distance_grid()[0])
            assert rep.n == level
            built = len(closure.stabilized_maps._maps)
            assert built <= 2 * closure.sizes[level - 1]
            checked += 1
    assert checked >= 20


def test_ball_monotonicity(line_system):
    for x in range(3):
        for eps in [1, Fraction(3, 2), 2]:
            balls = [dyn_ball(line_system, x, n, eps).members for n in (1, 2, 3, 4)]
            for small, big in zip(balls[1:], balls):
                assert small <= big
        for n in (1, 2, 3):
            assert (dyn_ball(line_system, x, n, 1).members
                    <= dyn_ball(line_system, x, n, 2).members)


def test_bowen_ball_examples(line_system):
    rep = bowen_ball(line_system, 0, 1)
    assert rep.members == {0, 1}

    sys6 = rotation_system(6)
    assert bowen_ball(sys6, 0, 1).members == {5, 0, 1}


def test_bowen_ball_identity_system(identity_system):
    space = identity_system.space
    for x in range(space.n):
        for d in (1, 2):
            assert (bowen_ball(identity_system, x, d).members
                    == space.ball_ix(x, d, closed=True))


def test_bowen_inside_closed_metric_ball(line_system):
    space = line_system.space
    for x in range(space.n):
        for d in space.distance_grid():
            members = bowen_ball(line_system, x, d).members
            assert x in members
            assert members <= space.ball_ix(x, d, closed=True)


def test_compaction_enlarges_bowen_balls(line_system_cores):
    comp = compacted_system(line_system_cores)
    space = line_system_cores.space
    for x in range(space.n):
        for eta in space.distance_grid():
            assert (bowen_ball(line_system_cores, x, eta).members
                    <= bowen_ball(comp, x, eta).members)


def test_half_radius_recentering_line(line_system_cores):
    rho = separation_radius(line_system_cores)
    assert not is_unbounded(rho)
    comp = compacted_system(line_system_cores)
    space = line_system_cores.space
    for x0 in range(space.n):
        ball = bowen_ball(line_system_cores, x0, rho / 2).members
        for y0 in ball:
            assert ball <= bowen_ball(comp, y0, rho).members


def test_separated_count_examples(line_system):
    rep = separated_count(line_system, 1, Fraction(3, 2))
    assert (rep.lower, rep.upper) == (2, 2)
    assert rep.witness == {0, 2}

    sys6 = rotation_system(6)
    assert separated_count(sys6, 2, 10).lower == 1  # beyond the diameter
    assert separated_count(sys6, 1, Fraction(1, 2)).lower == 6  # identity splits all


def test_separated_count_matches_brute_force():
    spec = InstanceSpec(seed="clique-module", count=10, n_points=(3, 7),
                        n_generators=(1, 2))
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        for n in (1, 2):
            for eps in sys_i.space.distance_grid():
                exact = separated_count(sys_i, n, eps).lower
                assert exact == brute_force_separated(sys_i, n, eps)


def test_greedy_mode_bounds(line_system):
    rep = separated_count(line_system, 1, Fraction(3, 2), mode="greedy")
    assert rep.lower <= 2 <= rep.upper


def test_exact_mode_size_cap():
    from pseudodyn import FiniteMetricSpace
    n = 21
    space = FiniteMetricSpace(
        list(range(n)),
        [[0 if i == j else 1 for j in range(n)] for i in range(n)])
    sys_big = GeneratingSystem.build(space, [])
    with pytest.raises(CapabilityError, match="greedy"):
        separated_count(sys_big, 1, Fraction(1, 2))
    rep = separated_count(sys_big, 1, Fraction(1, 2), mode="greedy")
    assert rep.lower == n  # all points are 1 apart


def test_h_top_table(line_system):
    table = h_top_table(line_system, n_max=4)
    assert table.limit == 0.0
    cells = {(r.eps, r.n): r for r in table.rows}
    row = cells[(Fraction(2), 1)]
    assert row.count_lower == row.count_upper
    one_point = h_top_table(
        GeneratingSystem.build(
            __import__("pseudodyn").FiniteMetricSpace(["x"], [[0]]), []),
        eps_grid=[1], n_max=2)
    assert all(r.count_lower == 1 and r.rate == 0.0 for r in one_point.rows)


def test_h_top_rows_match_direct_counts(line_system):
    """Rows past the stabilization index reuse the stable count; each must
    equal a direct separated count at its own n."""
    spec = InstanceSpec(seed=3, count=12)
    systems = [line_system] + [random_genome(spec, i).build()[0]
                               for i in range(spec.count)]
    for sys_i in systems:
        n_max = sys_i.word_closure().stable_index + 2
        for row in h_top_table(sys_i, n_max=n_max).rows:
            rep = separated_count(sys_i, row.n, row.eps)
            assert (row.count_lower, row.count_upper) == (rep.lower, rep.upper)
            assert row.rate == math.log(rep.lower) / row.n


def test_h_top_rate_decays_like_log_count(line_system):
    table = h_top_table(line_system, eps_grid=[Fraction(3, 2)], n_max=6)
    for row in table.rows:
        assert row.count_lower == 2
        assert row.rate == pytest.approx(math.log(2) / row.n)
