import random
from dataclasses import replace
from fractions import Fraction

import pytest

from pseudodyn import (UNBOUNDED, CapabilityError, FiniteMeasure,
                       FiniteMetricSpace, GeneratingSystem, InputError,
                       PartialMap, bowen_ball,
                       compacted_system, equicontinuity_modulus,
                       expansiveness_verdict, is_unbounded,
                       no_expansive_certificate_group)
from pseudodyn import equicont
from pseudodyn.equicont import (EquicontinuityCertificate, _moduli, _modulus,
                                modulus_at)
from pseudodyn.probes import (InstanceSpec, random_genome, random_instance,
                              totalized_group)
from pseudodyn.pseudogroup import spread_table

from conftest import (coprime_space, cyclic_space, good_inclusion_failures,
                      group_inclusion_failures, ranked_space,
                      reference_modulus_full_scan, symmetric_group)


def closure_maps(sys):
    return sys.word_closure().stabilized_maps


def test_isometries_certify_identity_modulus(z6_rotations):
    cert = equicontinuity_modulus(z6_rotations)
    assert cert.isometric
    assert all(cert.table[e] == e for e in z6_rotations.space.distance_grid())
    assert cert.audit(closure_maps(z6_rotations), z6_rotations.space)


def test_identity_only_modulus(line, identity_system):
    cert = equicontinuity_modulus(identity_system)
    assert all(cert.table[e] == e for e in line.distance_grid())


def test_distorting_map_shrinks_modulus():
    """d(a,b) = 1 but the image pair sits at distance 2: the scale-2 modulus
    drops to 1 with that witness pair."""
    vline = FiniteMetricSpace(["a", "b", "c"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    g = PartialMap.from_dict(vline, {"a": "b", "b": "c"}, name="g")
    sysv = GeneratingSystem.build(vline, [g])
    cert = equicontinuity_modulus(sysv)
    assert cert.table[Fraction(2)] == 1
    wmap, wx, wy = cert.witnesses[Fraction(2)]
    assert {wx, wy} == {"a", "b"}
    assert not cert.isometric
    assert cert.audit(closure_maps(sysv), vline)


def test_group_certificate_rotations(z6_rotations):
    rep = no_expansive_certificate_group(z6_rotations, 1)
    assert rep.delta == 1
    assert group_inclusion_failures(z6_rotations, 1, rep.delta) == []
    # B(x, 1) = {x} sits inside the three-point Bowen ball at every center
    for x in range(6):
        assert bowen_ball(z6_rotations, x, 1).members \
            == {(x - 1) % 6, x, (x + 1) % 6}


def test_group_certificate_trivial_group(line, identity_system):
    rep = no_expansive_certificate_group(identity_system, 1)
    # B(x, delta) subset of B[x, rho]
    assert group_inclusion_failures(identity_system, 1, rep.delta) == []


def test_group_certificate_requires_total(line_system):
    with pytest.raises(CapabilityError, match="total"):
        no_expansive_certificate_group(line_system, 1)


def test_negative_radius_is_input_error(z6_rotations, line_system_cores):
    """A negative radius is an input error, not a failed inclusion; radius
    0 stays valid."""
    with pytest.raises(InputError, match="nonnegative"):
        no_expansive_certificate_group(z6_rotations, -1)
    rep = no_expansive_certificate_group(z6_rotations, 0)
    assert group_inclusion_failures(z6_rotations, 0, rep.delta) == []


def seeded_group_inclusion_cases(count):
    """Seeded totalized groups, built as the group-claim statement builds
    them, each with its radii: 0, a third of the least grid value, every
    grid value, every midpoint and twice the diameter."""
    spec = InstanceSpec(seed="group-inclusion", count=count)
    rng = random.Random("group-inclusion")
    for idx in range(spec.count):
        genome = random_genome(spec, idx)
        space = genome.build()[0].space
        group = totalized_group(space, genome.gens, rng)
        grid = space.distance_grid()
        middles = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        yield group, [Fraction(0), grid[0] / 3, *grid, *middles,
                      2 * space.diameter()]


def test_group_inclusion_reference_holds_on_seeded_groups():
    """The group certificate's open delta-balls sit inside the Bowen
    rho-balls of the pair-orbit reference at every radius."""
    cases = 0
    for group, radii in seeded_group_inclusion_cases(600):
        for rho in radii:
            delta = no_expansive_certificate_group(group, rho).delta
            assert group_inclusion_failures(group, rho, delta) == []
            cases += 1
    assert cases > 4000


def test_group_inclusion_reference_rejects_a_modulus_raised_to_the_next_grid_value(
        monkeypatch):
    """With every bounded modulus below the diameter raised to the next
    grid value, the reference finds a centre whose ball escapes."""
    modulus = equicont._modulus

    def raised(spread, space, t):
        delta, pairs = modulus(spread, space, t)
        grid = space.distance_grid()
        if is_unbounded(delta) or delta == grid[-1]:
            return delta, pairs
        return grid[grid.index(delta) + 1], pairs

    monkeypatch.setattr(equicont, "_modulus", raised)
    cases = failed = 0
    for group, radii in seeded_group_inclusion_cases(200):
        for rho in radii:
            delta = no_expansive_certificate_group(group, rho).delta
            failed += bool(group_inclusion_failures(group, rho, delta))
            cases += 1
    assert failed > cases // 2


def test_group_conclusion_cross_checked_with_measures(z6_rotations):
    import random
    rng = random.Random(0)
    space = z6_rotations.space
    measures = [FiniteMeasure.uniform(space)]
    for _ in range(20):
        raw = [rng.randint(1, 6) for _ in range(6)]
        total = sum(raw)
        measures.append(FiniteMeasure(space, [Fraction(v, total) for v in raw]))
    for mu in measures:
        for rho in space.distance_grid():
            verdict = expansiveness_verdict(mu, z6_rotations, rho)
            assert all(verdict.ball_measures[space.label(a)] > 0
                       for a in mu.atoms())
    assert expansiveness_verdict(FiniteMeasure.uniform(space),
                                 z6_rotations, 1).ball_measures[0] \
        == Fraction(1, 2)


def test_good_certificate_xi_is_modulus_seeded():
    """On cored systems every row's delta is the modulus of the ambient
    closure, and it is bounded: the pair table holds the total identity's
    distance ranks, so at the grid value of rank t the modulus stops by
    rank t."""
    spec = InstanceSpec(seed=13, count=60)
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        assert sys_i.has_cores
        gamma = closure_maps(sys_i)
        space = sys_i.space
        for rho, delta in equicontinuity_modulus(sys_i).table.items():
            assert delta == modulus_at(gamma, space, rho)
            assert not is_unbounded(delta)


def test_good_certificate_rotations():
    z6 = cyclic_space(6)
    q = PartialMap.from_dict(z6, {i: (i + 1) % 6 for i in range(5)}, name="q")
    sys_q = GeneratingSystem.build(z6, [q], cores={"q": {0, 1, 2}})
    table = equicontinuity_modulus(sys_q).table
    assert list(table) == z6.distance_grid()
    assert all(good_inclusion_failures(sys_q, rho, delta) == []
               for rho, delta in table.items())
    assert not any(is_unbounded(delta) for delta in table.values())
    wide = [delta for rho, delta in table.items() if rho >= z6.diameter()]
    assert wide and all(delta == z6.diameter() for delta in wide)


def seeded_good_inclusion_cases(count):
    """Seeded cored systems with their certificate rows: ``(rho, delta)``
    for every grid rho."""
    spec = InstanceSpec(seed="good-inclusion", count=count)
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        if sys_i.has_cores:
            yield sys_i, equicontinuity_modulus(sys_i).table.items()


def test_good_inclusion_reference_holds_on_seeded_systems():
    """The theorem behind the core-restricted setting: at every grid rho,
    the open delta-balls of the ``equicontinuity_modulus`` rows sit inside
    the core-restricted Bowen rho-balls of the closure-map reference."""
    cases = 0
    for sys_i, rows in seeded_good_inclusion_cases(300):
        for rho, delta in rows:
            assert good_inclusion_failures(sys_i, rho, delta) == []
            cases += 1
    assert cases > 900


def test_good_inclusion_reference_rejects_a_modulus_raised_to_the_next_grid_value(
        monkeypatch):
    """With every bounded modulus below the diameter raised to the next
    grid value, the reference finds a centre whose ball escapes."""
    moduli = equicont._moduli

    def raise_one(delta, grid):
        if is_unbounded(delta) or delta == grid[-1]:
            return delta
        return grid[grid.index(delta) + 1]

    def raised(spread, space, thresholds):
        grid = space.distance_grid()
        return {t: (raise_one(delta, grid), pairs)
                for t, (delta, pairs) in moduli(spread, space,
                                                thresholds).items()}

    monkeypatch.setattr(equicont, "_moduli", raised)
    cases = failed = 0
    for sys_i, rows in seeded_good_inclusion_cases(300):
        for rho, delta in rows:
            failed += bool(good_inclusion_failures(sys_i, rho, delta))
            cases += 1
    assert failed > cases // 5


def reference_modulus_and_witness(maps, space, eps):
    """The modulus by one scan, then its witness by a second scan for the
    first pair at exactly that distance that some map spreads to eps."""
    best = None
    for g in maps:
        dom = sorted(g.dom)
        for ai, i in enumerate(dom):
            for j in dom[ai + 1:]:
                if space.dist[g.vals[i]][g.vals[j]] >= eps:
                    if best is None or space.dist[i][j] < best:
                        best = space.dist[i][j]
    if best is None:
        return None, None
    for g in maps:
        dom = sorted(g.dom)
        for ai, i in enumerate(dom):
            for j in dom[ai + 1:]:
                if (space.dist[i][j] == best
                        and space.dist[g.vals[i]][g.vals[j]] >= eps):
                    return best, (g, space.label(i), space.label(j))


def assert_moduli_match_two_scan_reference(system) -> dict:
    """Every table entry equals the two-scan reference over the system's
    closure, and every witness has the reference map's values and word
    (it is built from the pair tables, not taken from the closure) and
    the reference's labels; ``modulus_at`` agrees over the system and
    over the closure's maps; the audit accepts over the maps and over them
    as a plain list.  Every grid modulus is bounded: the total identity
    spreads the pairs at each grid distance.  Returns the reference
    modulus per grid eps."""
    maps, space = closure_maps(system), system.space
    want = {eps: reference_modulus_and_witness(maps, space, eps)
            for eps in space.distance_grid()}
    cert = equicontinuity_modulus(system)
    for eps, (delta, witness) in want.items():
        assert delta is not None
        moduli = [modulus_at(route, space, eps) for route in (system, maps)]
        assert cert.table[eps] == delta == moduli[0] == moduli[1]
        got = cert.witnesses[eps]
        assert (got[0].vals, got[0].word) == (witness[0].vals,
                                              witness[0].word)
        assert got[1:] == witness[1:]
    assert cert.audit(maps, space) and cert.audit(list(maps), space)
    return {eps: delta for eps, (delta, _) in want.items()}


def test_modulus_and_witness_match_two_scan_reference():
    """Seeded closures and their core restrictions."""
    spec = InstanceSpec(seed="modulus-witness", count=80)
    checked = 0
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        for s in (sys_i, compacted_system(sys_i)):
            checked += len(assert_moduli_match_two_scan_reference(s))
    assert checked > 200


def assert_group_moduli_match_two_scan_reference(group) -> None:
    """The closure's moduli and witnesses, and the group certificate's
    delta at every grid rho, equal the two-scan reference."""
    deltas = assert_moduli_match_two_scan_reference(group)
    for rho, delta in deltas.items():
        assert no_expansive_certificate_group(group, rho).delta == delta


def test_group_moduli_match_two_scan_reference():
    """S_6 and S_7, whose spread tables reach the diameter at every pair
    within their first few dozen maps, and seeded totalized groups built
    as the group-claim statement builds them."""
    for n in (6, 7):
        assert_group_moduli_match_two_scan_reference(
            symmetric_group(coprime_space(n)))
    spec = InstanceSpec(seed="group-modulus", count=40)
    rng = random.Random("group-modulus")
    orders = []
    for idx in range(spec.count):
        genome = random_genome(spec, idx)
        space = genome.build()[0].space
        group = totalized_group(space, genome.gens, rng)
        orders.append(len(closure_maps(group)))
        assert_group_moduli_match_two_scan_reference(group)
    assert max(orders) >= 720


def scan_first_spreading(maps, space, pairs, t):
    """The closure scan that ``first_spreading`` replaces: the first map in
    closure order sending one of ``pairs`` to rank ``t`` or more, with the
    first such pair in the given order, or None."""
    ranks = space.distance_ranks()[0]
    for g in maps:
        v = g.vals
        for i, j in pairs:
            if v[i] is not None and v[j] is not None \
                    and ranks[v[i]][v[j]] >= t:
                return g, (i, j)
    return None


def assert_first_spreading_matches_the_closure(system, rng) -> list:
    """At every grid eps, the walk gives the two-scan reference's witness
    from the pairs at the reference modulus; at every rank threshold it
    gives the closure scan's map and pair from a few shuffled pairs, in
    either orientation.  Returns the words it compared."""
    maps, space = closure_maps(system), system.space
    words = []
    for eps in space.distance_grid():
        delta, witness = reference_modulus_and_witness(maps, space, eps)
        if delta is None:
            continue
        pairs = [(i, j) for i in range(space.n) for j in range(i + 1, space.n)
                 if space.dist[i][j] == delta]
        g, (i, j) = system.first_spreading(pairs, space.threshold(eps))
        assert (g.vals, g.word) == (witness[0].vals, witness[0].word)
        assert (space.label(i), space.label(j)) == witness[1:]
        words.append(g.word)
    ranks, values = space.distance_ranks()
    every = [(i, j) for i in range(space.n) for j in range(space.n) if i != j]
    for t in range(len(values) + 1):
        # pairs the identity keeps below t ask for longer words
        near = [(i, j) for i, j in every if ranks[i][j] < t]
        for pool in (every, near, near):
            if not pool:
                continue
            pairs = rng.sample(pool, rng.randint(1, min(len(pool), 4)))
            got = system.first_spreading(pairs, t)
            want = scan_first_spreading(maps, space, pairs, t)
            if want is None:
                assert got is None
            else:
                assert (got[0].vals, got[0].word, got[1]) \
                    == (want[0].vals, want[0].word, want[1])
                words.append(got[0].word)
    return words


def test_first_spreading_matches_the_closure_on_seeded_systems():
    """Seeded systems and their compacted systems."""
    rng = random.Random("first-spreading")
    spec = InstanceSpec(seed="first-spreading", count=60, n_points=(3, 8),
                        domain_density=(0.5, 0.9))
    words = []
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        for s in (sys_i, compacted_system(sys_i)):
            words += assert_first_spreading_matches_the_closure(s, rng)
    assert len(words) > 500 and max(map(len, words)) >= 4


def test_first_spreading_matches_the_closure_on_hand_built_systems():
    """A system whose identity is not its first generator, one with a
    repeated generator, whose first copy gives the letter, and one whose
    generators have no name or word, each letter then being ``?``."""
    rng = random.Random("first-spreading-hand-built")
    space = coprime_space(6)
    ident = PartialMap.identity(space)
    step = PartialMap(space, [1, 2, 3, 4, 5, None], name="s")
    flip = PartialMap(space, [5, 4, 3, 2, 1, 0], name="f")
    swap = PartialMap(space, [1, 0, None, 4, 3, None], name="w")
    first = GeneratingSystem(space, [flip, swap, ident, step, step.inverse()])
    assert assert_first_spreading_matches_the_closure(first, rng)
    again = PartialMap(space, step.vals, name="t", word=("t",))
    repeated = GeneratingSystem(space, [ident, swap, step, again, flip,
                                        step.inverse()])
    words = assert_first_spreading_matches_the_closure(repeated, rng)
    letters = {a for w in words for a in w}
    assert "s" in letters and "t" not in letters
    bare = GeneratingSystem(space, [PartialMap(space, g.vals) for g in
                                    (step, ident, swap, step.inverse(), flip)])
    words = assert_first_spreading_matches_the_closure(bare, rng)
    assert words and {a for w in words for a in w} == {"?"}


def test_first_spreading_gives_each_bowen_ball_exclusion():
    """For every non-member y of a Bowen ball around x, the walk from the
    one pair (x, y) gives its exclusion's map, values and word."""
    spec = InstanceSpec(seed="first-spreading-bowen", count=30)
    checked = 0
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        for s in (sys_i, compacted_system(sys_i)):
            space = s.space
            for eps in space.distance_grid():
                t = space.threshold(eps, closed=True)
                for x in range(space.n):
                    rep = bowen_ball(s, x, eps)
                    for y, (g, _) in rep.exclusions.items():
                        got, pair = s.first_spreading([(x, y)], t)
                        assert (got.vals, got.word) == (g.vals, g.word)
                        assert pair == (x, y)
                        checked += 1
    assert checked > 1000


def test_modulus_at_direct(z6_rotations):
    for route in (z6_rotations, closure_maps(z6_rotations)):
        assert modulus_at(route, z6_rotations.space, 2) == 2
        assert is_unbounded(modulus_at(route, z6_rotations.space, 4))


def test_modulus_at_zero_counts_only_shared_pairs():
    """Over a folded map list, which the audit reads, at eps <= 0 every
    pair some map is defined at qualifies, and only those: (a, b) is
    closer than (b, c) but no map is defined at both."""
    vline = FiniteMetricSpace(["a", "b", "c"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    g = PartialMap.from_dict(vline, {"b": "a", "c": "b"}, name="g")
    fold = spread_table([g], vline)
    for eps in (0, -1):
        assert _modulus(fold, vline, vline.threshold(eps))[0] == 2
        assert reference_modulus_and_witness([g], vline, eps)[0] == 2
        for delta, ok in ((2, True), (3, False)):
            cert = EquicontinuityCertificate(scope="closure",
                                             table={eps: Fraction(delta)},
                                             witnesses={}, isometric=False)
            assert cert.audit([g], vline) is ok


def test_audit_rejects_a_delta_raised_to_the_next_grid_value():
    """Raising a finite delta to the next grid value lets its witness pair,
    which some map spreads to eps, in under delta, so the audit fails."""
    spec = InstanceSpec(seed="audit-raised", count=40)
    raised = 0
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        maps = closure_maps(sys_i)
        space = sys_i.space
        grid = space.distance_grid()
        cert = equicontinuity_modulus(sys_i)
        assert cert.audit(maps, space)
        for eps, delta in cert.table.items():
            if is_unbounded(delta) or delta == grid[-1]:
                continue
            forged = replace(cert, table={
                **cert.table, eps: grid[grid.index(delta) + 1]})
            assert not forged.audit(maps, space)
            raised += 1
    assert raised > 40


def test_closure_moduli_read_the_pair_table(monkeypatch):
    """The moduli of a system, and of its closure's map list, read the
    system's fixpoint pair table: with the fold disabled they answer as
    the modulus of the fold of the closure's maps."""
    spec = InstanceSpec(seed="closure-moduli", count=20)
    cases = []
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        space = sys_i.space
        fold = spread_table(closure_maps(sys_i), space)
        want = {eps: _modulus(fold, space, space.threshold(eps))[0]
                for eps in space.distance_grid()}
        cases.append((sys_i, want))

    def no_fold(maps, space):
        raise AssertionError("a closure's moduli folded its maps")

    monkeypatch.setattr(equicont, "spread_table", no_fold)
    for sys_i, want in cases:
        assert equicontinuity_modulus(sys_i).table == want
        for eps, delta in want.items():
            for route in (sys_i, closure_maps(sys_i)):
                assert modulus_at(route, sys_i.space, eps) == delta


def reference_audit(cert, maps, space) -> bool:
    """The defining implication over every map and pair, in distances."""
    for eps, delta in cert.table.items():
        if is_unbounded(delta):
            continue
        for g in maps:
            dom = sorted(g.dom)
            for ai, i in enumerate(dom):
                for j in dom[ai + 1:]:
                    if space.dist[i][j] < delta:
                        if space.dist[g.vals[i]][g.vals[j]] >= eps:
                            return False
    return True


def test_audit_matches_fraction_reference():
    """The one-fold audit and the distance loop agree on S_5's and seeded
    true certificates, which both accept, and on each finite delta raised
    to the next grid value, which both reject."""
    spec = InstanceSpec(seed="audit-reference", count=40)
    systems = [symmetric_group(coprime_space(5))]
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        systems += [sys_i, compacted_system(sys_i)]
    verdicts = []
    for system in systems:
        maps, space = closure_maps(system), system.space
        grid = space.distance_grid()
        cert = equicontinuity_modulus(system)
        certs = [cert] + [
            replace(cert, table={**cert.table,
                                 eps: grid[grid.index(delta) + 1]})
            for eps, delta in cert.table.items()
            if not is_unbounded(delta) and delta != grid[-1]]
        for c in certs:
            verdict = c.audit(maps, space)
            assert verdict == reference_audit(c, maps, space)
            verdicts.append(verdict)
    assert verdicts.count(True) >= spec.count
    assert verdicts.count(False) > 40


def test_audit_folds_the_maps_once(monkeypatch):
    """The audit folds its maps once for every scale, and not at all when
    every delta is unbounded."""
    folds = []
    fold = equicont.spread_table

    def spy(maps, space):
        folds.append(len(maps))
        return fold(maps, space)

    monkeypatch.setattr(equicont, "spread_table", spy)
    group = symmetric_group(coprime_space(5))
    maps, space = closure_maps(group), group.space
    cert = equicontinuity_modulus(group)
    assert sum(not is_unbounded(d) for d in cert.table.values()) > 1
    assert folds == []
    assert cert.audit(maps, space)
    assert folds == [len(maps)]
    unbounded = replace(cert, table=dict.fromkeys(cert.table, UNBOUNDED))
    assert unbounded.audit(maps, space)
    assert folds == [len(maps)]


def test_nearest_first_modulus_matches_full_scan():
    """The nearest-first walk returns the full scan's delta and pairs at
    every threshold from 0 to past the top rank, on seeded random spread
    tables, on the pair tables of seeded systems at every level and on
    folds of random map lists; an all-zero table is unbounded."""
    rng = random.Random("nearest-first-modulus")
    spec = InstanceSpec(seed="nearest-first-modulus", count=60)
    cases = 0
    outcomes = set()
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        space = sys_i.space
        top = len(space.distance_ranks()[1]) - 1
        tables = [[[0] * space.n for _ in range(space.n)],
                  [[rng.randint(0, top) for _ in range(space.n)]
                   for _ in range(space.n)],
                  [[rng.choice((0, top)) for _ in range(space.n)]
                   for _ in range(space.n)]]
        tables += [sys_i.constraint_table(n)
                   for n in range(1, sys_i.fixpoint_level + 1)]
        maps = list(sys_i.generators[1:])
        tables.append(equicont.spread_table(rng.sample(maps, len(maps) // 2),
                                            space))
        for table in tables:
            for t in range(top + 2):
                want = reference_modulus_full_scan(table, space, t)
                assert _modulus(table, space, t) == want
                outcomes.add(is_unbounded(want[0]))
                cases += 1
        assert _modulus(tables[0], space, 0) == (UNBOUNDED, [])
    assert outcomes == {True, False} and cases > 1500


def ranked_system():
    """24 points with 275 distinct distances (276 ranks with 0) and two
    partial maps, as the CLI corpus's largest model."""
    space = ranked_space(24, 275)
    maps = [PartialMap(space, [1, 2, 3] + [None] * 21, name="g0"),
            PartialMap(space, [None] * 5 + [9, None, 11, None, 5]
                       + [None] * 14, name="g1")]
    return GeneratingSystem.build(space, maps)


def test_one_walk_moduli_match_the_full_scan():
    """``_moduli`` answers every threshold as the full scan does, delta and
    pairs, on thresholds in any order and with repeats, and so does
    ``_modulus`` at each threshold alone, over the fixpoint pair table, a
    fold of the closure and a random spread table of seeded systems and
    their core restrictions, and of the 276-rank model; the certificate's
    table and its audit follow."""
    rng = random.Random("one-walk-moduli")
    spec = InstanceSpec(seed="one-walk-moduli", count=30)
    systems = [ranked_system()]
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        systems += [sys_i, compacted_system(sys_i)]
    outcomes = set()
    for sys_i in systems:
        space = sys_i.space
        top = len(space.distance_ranks()[1]) - 1
        tables = [sys_i.constraint_table(),
                  spread_table(closure_maps(sys_i), space),
                  [[rng.randint(0, top) for _ in range(space.n)]
                   for _ in range(space.n)]]
        for table in tables:
            ts = [rng.randint(0, top + 1) for _ in range(top + 2)]
            want = {t: reference_modulus_full_scan(table, space, t)
                    for t in ts}
            assert _moduli(table, space, ts) == want
            assert {t: _modulus(table, space, t) for t in ts} == want
            outcomes |= {is_unbounded(delta) for delta, _ in want.values()}
        cert = equicontinuity_modulus(sys_i)
        assert cert.table == {
            eps: reference_modulus_full_scan(tables[0], space,
                                             space.threshold(eps))[0]
            for eps in space.distance_grid()}
        assert cert.audit(closure_maps(sys_i), space)
    assert outcomes == {True, False}
    assert len(systems[0].space.distance_grid()) == 275


def test_certificate_and_audit_walk_the_ranks_once(monkeypatch):
    """On the 276-rank model the certificate and its audit each make one
    walk over the distance ranks for all 275 scales, and no per-scale
    walk."""
    walks = []

    def one_walk(spread, space, thresholds):
        walks.append(len(list(thresholds)))
        return _moduli(spread, space, thresholds)

    def per_scale(spread, space, t):
        raise AssertionError("a per-scale walk ran")

    sys_r = ranked_system()
    maps = closure_maps(sys_r)
    monkeypatch.setattr(equicont, "_moduli", one_walk)
    monkeypatch.setattr(equicont, "_modulus", per_scale)
    cert = equicontinuity_modulus(sys_r)
    assert walks == [275]
    assert cert.audit(maps, sys_r.space)
    bounded = sum(not is_unbounded(d) for d in cert.table.values())
    assert walks == [275, bounded] and bounded > 0
