import gc
import math
import random
from fractions import Fraction
from itertools import product
from operator import itemgetter

import pytest

from pseudodyn import (UNBOUNDED, CapabilityError, FiniteMeasure,
                       FiniteMetricSpace, GeneratingSystem, GermRelation,
                       InputError, PartialMap, PreconditionError, SpaceIso,
                       bowen_ball, brute_force_separated, compacted_system,
                       conjugate_system, dyn_ball, equicontinuity_modulus,
                       expansiveness_verdict, h_top_table,
                       invariant_sets, is_ergodic, is_homogeneous,
                       is_unbounded, local_entropy, pseudogroup,
                       raw_word_maps, separated_count, separation_radius)
from pseudodyn.dynamics import separation_graph
from pseudodyn.mutations import MUTATIONS
from pseudodyn.pseudogroup import (ClosureMaps, WordClosure, spread_table,
                                   table_ball)
from pseudodyn.probes import InstanceSpec, closure_with, random_genome

from conftest import (coprime_space, empty_map, graph, ranked_space,
                      reference_ball_numerators, reference_separation_graph,
                      reference_table_ball, rotation_system, symmetric_group,
                      system_past_255_points)


def _g(line):
    return PartialMap.from_dict(line, {"a": "b", "b": "c"}, name="g")


def test_compose_examples(line):
    g = _g(line)
    gg = g.then(g)
    assert gg.dom == {0}
    assert gg.apply(0) == 2
    assert g.then(g.inverse()) == PartialMap.identity(line).restrict({0, 1})
    empty = empty_map(line)
    assert empty.then(g) == empty


def test_invert_restrict(line):
    g = _g(line)
    assert g.inverse() == PartialMap.from_dict(line, {"b": "a", "c": "b"})
    assert g.restrict({0}) == PartialMap.from_dict(line, {"a": "b"})
    assert g.restrict({0}).name == "g"
    assert g.inverse().inverse() == g


def test_partial_map_injectivity_enforced(line):
    with pytest.raises(InputError, match="injective"):
        PartialMap.from_dict(line, {"a": "b", "c": "b"})


def test_extensional_equality_ignores_names(line):
    g1 = PartialMap.from_dict(line, {"a": "b"}, name="one")
    g2 = PartialMap.from_dict(line, {"a": "b"}, name="two")
    assert g1 == g2 and hash(g1) == hash(g2)


def test_build_adds_identity_and_inverses(line, line_system):
    names = [m.name for m in line_system.generators]
    assert names == ["id", "g", "g^-1"]


def test_word_closure_line(line_system):
    closure = line_system.word_closure()
    e2 = set(closure.maps_at(2))
    assert PartialMap.from_dict(line_system.space, {"a": "c"}) in e2
    assert PartialMap.from_dict(line_system.space, {"a": "a", "b": "b"}) in e2
    assert set(closure.maps_at(1)) <= e2


def test_word_closure_identity_only(identity_system):
    closure = identity_system.word_closure()
    assert closure.stable_index == 1
    assert list(closure.stabilized_maps) \
        == [PartialMap.identity(identity_system.space)]


def test_word_closure_rotations():
    sys6 = rotation_system(6)
    closure = sys6.word_closure()
    assert closure.stable_index == 3
    assert len(closure.stabilized_maps) == 6
    assert [len(level) for level in closure.level_maps] == [3, 5, 6]


def test_closure_monotone_and_stable(line_system):
    closure = line_system.word_closure()
    for n in range(1, closure.stable_index):
        assert set(closure.maps_at(n)) <= set(closure.maps_at(n + 1))
    assert closure.maps_at(closure.stable_index) \
        == closure.maps_at(closure.stable_index + 5)


def test_germ_relation_examples(line, line_system, identity_system):
    germ = line_system.germ_relation()
    assert germ.pairs == {(i, j) for i in range(3) for j in range(3)}
    assert identity_system.germ_relation().pairs == {(i, i) for i in range(3)}

    two = rotation_system(2)
    assert two.germ_relation().pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_germ_relation_is_equivalence(line_system):
    germ = line_system.germ_relation()
    assert germ.equivalence_failure() is None


def test_germ_equivalence_failure_witnesses(line):
    diagonal = {(0, 0), (1, 1), (2, 2)}
    chain = GermRelation(line, frozenset(diagonal | {(0, 1), (1, 0),
                                                     (1, 2), (2, 1)}))
    assert chain.equivalence_failure() in {("transitivity", 0, 1, 2),
                                           ("transitivity", 2, 1, 0)}
    one_way = GermRelation(line, frozenset(diagonal | {(0, 1)}))
    assert one_way.equivalence_failure() == ("symmetry", 0, 1)
    no_loop = GermRelation(line, frozenset({(0, 0), (1, 1)}))
    assert no_loop.equivalence_failure() == ("reflexivity", 2)


def test_components_are_found_once_and_copied(monkeypatch):
    """A relation finds its components once: later calls, ``is_ergodic``
    and ``invariant_sets`` included, read the kept ones, and every call
    returns a new list that its caller may change."""
    calls = []
    find = GermRelation._find_components

    def spy(self):
        calls.append(self)
        return find(self)

    monkeypatch.setattr(GermRelation, "_find_components", spy)
    space = coprime_space(4)
    sys_c = GeneratingSystem.build(space, [PartialMap(
        space, [1, 0, None, None], name="s")])
    first = sys_c.germ_relation().components()
    assert first == [frozenset({0, 1}), frozenset({2}), frozenset({3})]
    first.append(frozenset({9}))
    second = sys_c.germ_relation().components()
    assert second is not first and len(second) == 3
    report = is_ergodic(FiniteMeasure.uniform(space), sys_c)
    assert not report.ok and report.components == second
    assert report.components is not second
    assert len(invariant_sets(sys_c)) == 2 ** 3
    assert calls == [sys_c.germ_relation()]


def reference_germ_relation(system):
    """The closure scan: every pair (i, g(i)) of every stabilized closure
    map."""
    return {(i, v) for g in system.word_closure().stabilized_maps
            for i, v in enumerate(g.vals) if v is not None}


def assert_germ_matches_reference(system):
    assert system.germ_relation().pairs == reference_germ_relation(system)


def permuted_conjugate(system, rng):
    space = system.space
    fwd = rng.sample(range(space.n), space.n)
    dst = FiniteMetricSpace([f"p{k}" for k in range(space.n)], space.dist)
    return conjugate_system(system, SpaceIso(space, dst, fwd))


def test_germ_relation_matches_closure_scan_on_seeded_instances():
    """Seeded default-spec instances, their core-restricted systems (not
    symmetric) and conjugates under a random relabelling."""
    rng = random.Random("germ-conjugates")
    spec = InstanceSpec(seed="germ-bfs", count=150)
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        assert_germ_matches_reference(sys_i)
        assert_germ_matches_reference(permuted_conjugate(sys_i, rng))
        if sys_i.has_cores:
            assert_germ_matches_reference(compacted_system(sys_i))


def test_germ_relation_matches_closure_scan_on_criterion_10_stream():
    """The first 30 instances of the ergodicity criterion's stream, |X| up
    to 15; instance 34 alone has a 1.19M-map closure, too large for a unit
    test, and criterion 10 checks its orbits against the subset oracle."""
    spec = InstanceSpec(seed="acceptance-10", count=30, n_points=(4, 15),
                        n_generators=(1, 2))
    for idx in range(spec.count):
        assert_germ_matches_reference(random_genome(spec, idx).build()[0])


def test_germ_relation_unnamed_generator(line):
    unnamed = PartialMap.from_dict(line, {"a": "b", "b": "c"})
    system = GeneratingSystem(line, [PartialMap.identity(line), unnamed])
    assert_germ_matches_reference(system)
    germ = system.germ_relation()
    assert germ.pairs == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}


def test_orbit_questions_build_no_closure(monkeypatch):
    """The germ relation, and every orbit question read from it, comes
    from the generator graph: the closure loop is never entered."""
    def no_closure(*args):
        raise AssertionError("word closure built")

    monkeypatch.setattr(pseudogroup, "_closure", no_closure)
    spec = InstanceSpec(seed="germ-no-closure", count=10)
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        assert sys_i.germ_relation().equivalence_failure() is None
        assert invariant_sets(sys_i)
        assert is_ergodic(FiniteMeasure.uniform(sys_i.space), sys_i).components
        if sys_i.has_cores:
            compacted_system(sys_i).germ_relation()
    with pytest.raises(AssertionError, match="closure built"):
        sys_i.word_closure()


def test_table_only_calls_build_no_closure(monkeypatch):
    """Separated counts, entropy rows up to a given n, homogeneity,
    expansiveness and the equicontinuity certificate, which also certifies
    the core restriction, read the constraint tables alone: the closure
    loop is never entered."""
    def no_closure(*args):
        raise AssertionError("word closure built")

    monkeypatch.setattr(pseudogroup, "_closure", no_closure)
    spec = InstanceSpec(seed="tables-no-closure", count=20)
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        eps = sys_i.space.distance_grid()[0]
        h_top_table(sys_i, n_max=3)
        separated_count(sys_i, 2, eps, mode="greedy")
        is_homogeneous(mu, sys_i)
        expansiveness_verdict(mu, sys_i, eps)
        local_entropy(mu, sys_i, 0, n_max=3)
        equicontinuity_modulus(sys_i)
    with pytest.raises(AssertionError, match="closure built"):
        sys_i.word_closure()


def reference_closure(sys, compose):
    """The closure loop over ``PartialMap``s: each round extends the newest
    maps by one generator through ``compose``, deduplicating on the maps
    themselves, until a round adds nothing.  The generators carry their
    words (``test_every_generator_carries_its_word``)."""
    seen = {}
    level1 = []
    for g in sys.generators:
        if g not in seen:
            seen[g] = g
            level1.append(g)
    levels = [list(level1)]
    frontier = list(level1)
    while True:
        new = []
        for b in frontier:
            for a in level1:
                c = compose(b, a)
                if c not in seen:
                    seen[c] = c
                    new.append(c)
        if not new:
            break
        levels.append(levels[-1] + new)
        frontier = new
    return WordClosure(levels[-1], [len(level) for level in levels])


def assert_closure_matches_reference(sys, compose=PartialMap.then,
                                     got=None):
    """Equal level sizes, the same maps in the same order with the same
    witness words, and each word, applied one letter at a time through
    ``compose``, gives its map."""
    got = got or pseudogroup._closure(sys, compose)
    want = reference_closure(sys, compose)
    assert got.stable_index == want.stable_index
    assert [len(level) for level in got.level_maps] \
        == [len(level) for level in want.level_maps]
    for got_level, want_level in zip(got.level_maps, want.level_maps):
        assert [g.vals for g in got_level] == [w.vals for w in want_level]
        assert [g.word for g in got_level] == [w.word for w in want_level]
    by_letter = {g.word[0]: g for g in got.level_maps[0] if len(g.word) == 1}
    for g in got.stabilized_maps:
        m = PartialMap.identity(sys.space)
        for letter in g.word:
            m = compose(m, by_letter[letter])
        assert m.vals == g.vals


def test_closure_matches_reference_on_seeded_instances():
    spec = InstanceSpec()
    for idx in range(300):
        sys_i, _ = random_genome(spec, idx).build()
        assert_closure_matches_reference(sys_i, got=sys_i.word_closure())
        if sys_i.has_cores:
            assert_closure_matches_reference(compacted_system(sys_i))


def test_closure_matches_reference_on_symmetric_groups():
    for n in (6, 7):
        assert_closure_matches_reference(symmetric_group(coprime_space(n)))


def test_closure_matches_reference_on_criterion_10_stream():
    spec = InstanceSpec(seed="acceptance-10", count=100, n_points=(4, 15),
                        n_generators=(1, 2))
    for idx in range(30):
        sys_i, _ = random_genome(spec, idx).build()
        assert_closure_matches_reference(sys_i)


def test_closure_cap_raises_capability_error(monkeypatch):
    """A closure may hold exactly ``CLOSURE_CAP`` maps; one more raises, on
    the byte path and on the ``PartialMap`` path of a mutant compose."""
    system = symmetric_group(coprime_space(6))
    monkeypatch.setattr(pseudogroup, "CLOSURE_CAP", 720)
    assert len(system.word_closure().stabilized_maps) == 720
    monkeypatch.setattr(pseudogroup, "CLOSURE_CAP", 719)
    fresh = symmetric_group(coprime_space(6))
    with pytest.raises(CapabilityError,
                       match=r"passed 719 maps; .*invariant\|ergodic"):
        fresh.word_closure()
    with pytest.raises(CapabilityError, match="passed 719 maps"):
        closure_with(MUTATIONS["compose-intersect-domains"], fresh)
    # orbit questions read the generator graph, not the closure
    assert len(fresh.germ_relation().components()) == 1


def test_closure_matches_reference_past_255_points():
    """Past 255 points no index fits in a byte, so the closure composes
    ``PartialMap``s."""
    system = system_past_255_points()
    closure = system.word_closure()
    assert max(v for g in closure.stabilized_maps for v in g.vals
               if v is not None) == 255
    assert_closure_matches_reference(system, got=closure)


def test_closure_matches_reference_under_mutant_compose():
    """Every mutant compose's closure matches the reference, and its maps
    are a ``ClosureMaps`` carrying the system's pair tables, which
    ``constraint_table`` reads."""
    mutants = [ops for ops in MUTATIONS.values()
               if ops.compose is not PartialMap.then]
    assert mutants
    spec = InstanceSpec(seed="mutant-closure", count=40)
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        for ops in mutants:
            got = closure_with(ops, sys_i)
            assert_closure_matches_reference(sys_i, ops.compose, got=got)
            assert type(got.stabilized_maps) is ClosureMaps
            assert got.stabilized_maps.pairs is sys_i._pair_tables()
            assert got.constraint_table(1) is sys_i.constraint_table(1)


def test_compose_associative_on_closure(line_system):
    maps = line_system.word_closure().stabilized_maps
    for f in maps[:6]:
        for g in maps[:6]:
            for h in maps[:6]:
                assert f.then(g).then(h) == f.then(g.then(h))


def test_closure_realizes_pseudogroup_operations(line_system):
    """Composites, inverses and restrictions of realized maps stay inside
    the germ relation (pointwise realizability)."""
    maps = line_system.word_closure().stabilized_maps
    pairs = line_system.germ_relation().pairs
    for f in maps:
        assert graph(f.inverse()) <= {(b, a) for a, b in pairs}
        assert graph(f.restrict({0, 1})) <= pairs
        for g in maps[:5]:
            assert graph(f.then(g)) <= pairs


def test_every_generator_carries_its_word(line):
    """A map given to a system without a word carries ``(name,)``, or
    ``("?",)`` when it has no name: in a built system, a directly
    constructed one of unnamed maps, a core-restricted system and the
    conjugates of both.  ``PartialMap.identity`` keeps the empty word."""
    unnamed = PartialMap.from_dict(line, {"a": "b", "b": "c"})
    built = GeneratingSystem.build(
        line, [_g(line), PartialMap.from_dict(line, {"a": "c"})],
        cores={"g": {0}})
    direct = GeneratingSystem(line, [PartialMap(line, (0, 1, 2)), unnamed,
                                     unnamed.inverse()])
    rng = random.Random("generator-words")
    words = set()
    for system in (built, direct, compacted_system(built),
                   permuted_conjugate(built, rng),
                   permuted_conjugate(direct, rng)):
        for g in system.generators:
            assert g.word == (() if g.name == "id" else (g.name or "?",))
            words.add(g.word)
    assert {(), ("?",), ("g",), ("g^-1",)} <= words


def test_closure_level_one_holds_the_system_generators(line):
    """A closure's first level is the system's own generator objects, the
    first of a repeated map, under the production and a mutant compose."""
    g = _g(line)
    again = PartialMap.from_dict(line, {"a": "b", "b": "c"}, name="again")
    system = GeneratingSystem(line, [PartialMap.identity(line), g, again,
                                     g.inverse()])
    gens = system.generators
    for compose in (PartialMap.then,
                    MUTATIONS["compose-intersect-domains"].compose):
        level1 = pseudogroup._closure(system, compose).level_maps[0]
        assert len(level1) == 3
        assert all(m is g for m, g in zip(level1, (gens[0], gens[1],
                                                   gens[3])))


def test_compacted_system(line, line_system_cores):
    comp = compacted_system(line_system_cores)
    by_name = {m.name: m for m in comp.generators}
    assert by_name["g"].dom == {0}
    assert by_name["g^-1"].dom == {2}
    assert comp.cores[1] == by_name["g"].dom


def test_table_engine_and_closure_hold_no_reference_to_the_system():
    """The system caches its tables and its closure, so neither may reach
    back to it: that would make a cycle only the cyclic collector frees."""
    system = symmetric_group(coprime_space(4))
    closure = system.word_closure()
    assert closure.constraint_table(2) is system.constraint_table(2)
    seen = set()
    todo = [system._tables, closure]
    while todo:
        obj = todo.pop()
        assert obj is not system
        if id(obj) not in seen:
            seen.add(id(obj))
            todo.extend(gc.get_referents(obj))


def maps_held(closure):
    """The map references in the lists reachable from ``closure`` through
    lists, tuples, dicts and its ``ClosureMaps``."""
    held, seen = 0, set()
    todo = gc.get_referents(closure)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or not isinstance(obj, (list, tuple, dict,
                                                   ClosureMaps)):
            continue
        seen.add(id(obj))
        inner = gc.get_referents(obj)
        if isinstance(obj, list):
            held += sum(isinstance(m, PartialMap) for m in inner)
        todo.extend(inner)
    return held


def test_closure_holds_each_map_once():
    """The closure keeps one list with each map once, and every level is a
    prefix of it: on the 20-point path shift, per-level copies would hold
    44,118 map references instead of 2,871.  Before any read it holds only
    its generators; a full read drops the keys and links."""
    space = FiniteMetricSpace(list(range(20)),
                              [[abs(i - j) for j in range(20)] for i in range(20)])
    shift = PartialMap(space, [i + 1 if i < 19 else None for i in range(20)],
                       name="g")
    system = GeneratingSystem.build(space, [shift])
    closure = system.word_closure()
    maps = closure.stabilized_maps
    assert (len(maps), closure.stable_index) == (2871, 38)
    assert maps_held(closure) == closure.sizes[0] == 3
    assert len(list(maps)) == len(maps)
    assert maps_held(closure) == len(maps)
    assert maps._keys is None and maps._links is None
    assert type(maps) is ClosureMaps and maps.pairs is system._tables
    for n in range(1, closure.stable_index + 3):
        level = closure.maps_at(n)
        assert len(level) <= len(maps)
        assert all(g is m for g, m in zip(level, maps))
        if n < closure.stable_index:
            assert type(level) is list


def lazy_and_eager(system, compose):
    """A fresh closure map list of ``system`` under ``compose``, which
    holds only its level-1 maps, and the reference closure's eager list."""
    closure = pseudogroup._closure(system, compose)
    lazy = closure.stabilized_maps
    assert type(lazy) is ClosureMaps and len(lazy._maps) == closure.sizes[0]
    return lazy, reference_closure(system, compose).stabilized_maps


def same_maps(got, want):
    return ([(g.vals, g.word) for g in got]
            == [(w.vals, w.word) for w in want])


def test_lazy_closure_maps_read_like_the_eager_build():
    """Every way of reading a closure's maps, each on an unread closure,
    gives the maps and witness words of the eager reference build: int,
    negative and out-of-range indices, slices with any step, iterating
    after a partial read, ``len``, ``random.sample`` and the
    levels.  Each map's ``key`` is its ``vals`` in bytes.  Closures under
    a mutant compose are read the same way."""
    spec = InstanceSpec(seed="lazy-closure", count=40)
    systems = [random_genome(spec, idx).build()[0] for idx in range(spec.count)]
    systems += [symmetric_group(coprime_space(5)), system_past_255_points()]
    mutant = MUTATIONS["compose-intersect-domains"].compose
    rng = random.Random("lazy-closure")
    for compose, system in product((PartialMap.then, mutant), systems):
        lazy, eager = lazy_and_eager(system, compose)
        size = len(eager)
        assert len(lazy) == size
        assert same_maps(lazy, eager)
        for _ in range(3):
            k = rng.randrange(size)
            lazy, _ = lazy_and_eager(system, compose)
            assert same_maps([lazy[k], lazy[-1 - k]], [eager[k], eager[-1 - k]])
            assert same_maps(lazy, eager)
            lazy, _ = lazy_and_eager(system, compose)
            for bad in (size, -size - 1):
                with pytest.raises(IndexError):
                    lazy[bad]
            a, b = sorted(rng.randrange(-size - 2, size + 2) for _ in range(2))
            for cut in (slice(a, b), slice(b, a, -1), slice(None, b, 3),
                        slice(a, None, -2), slice(-3, None), slice(None)):
                lazy, _ = lazy_and_eager(system, compose)
                got = lazy[cut]
                assert type(got) is list and same_maps(got, eager[cut])
            lazy, _ = lazy_and_eager(system, compose)
            read = iter(lazy)
            head = [next(read) for _ in range(min(k, 3))]
            lazy[k]
            assert same_maps(head + list(read), eager)
            lazy, _ = lazy_and_eager(system, compose)
            picked = random.Random(k).sample(lazy, min(size, 5))
            assert same_maps(picked, random.Random(k).sample(eager,
                                                             min(size, 5)))
        closure = pseudogroup._closure(system, compose)
        want = reference_closure(system, compose)
        assert closure.sizes == want.sizes
        for got_level, want_level in zip(closure.level_maps, want.level_maps):
            assert type(got_level) is list and same_maps(got_level,
                                                         want_level)
        if system.space.n <= 255:
            assert all(g.key == bytes(255 if v is None else v
                                      for v in g.vals) for g in lazy)
        else:
            with pytest.raises(CapabilityError, match="at most 255 points"):
                lazy[0].key


def test_table_ball_radii_on_grid_values():
    """Open and closed balls of every closure level's table, at radii
    exactly on its values and just off them, against a direct row
    comparison of the distances the ranks stand for."""
    spec = InstanceSpec(seed="table-ball", count=20)
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        space = sys_i.space
        values = space.distance_ranks()[1]
        closure = sys_i.word_closure()
        for n in range(1, closure.stable_index + 1):
            table = closure.constraint_table(n)
            spreads = [[values[r] for r in row] for row in table]
            seen = {v for row in spreads for v in row}
            for r in seen | {v + Fraction(1, 7) for v in seen}:
                t_open = space.threshold(r)
                t_closed = space.threshold(r, closed=True)
                for i in range(space.n):
                    row = spreads[i]
                    assert table_ball(table, i, t_open) \
                        == {y for y in range(space.n) if row[y] < r}
                    assert table_ball(table, i, t_closed) \
                        == {y for y in range(space.n) if row[y] <= r}


def reference_spread_table(maps, space):
    """The spread table folded directly over ``Fraction`` distances."""
    npts = space.n
    dist = space.dist
    table = [[Fraction(0)] * npts for _ in range(npts)]
    for g in maps:
        vals = g.vals
        dom = [i for i, v in enumerate(vals) if v is not None]
        for a_pos, i in enumerate(dom):
            gi = vals[i]
            row = table[i]
            for j in dom[a_pos + 1:]:
                d = dist[gi][vals[j]]
                if d > row[j]:
                    row[j] = d
                    table[j][i] = d
    return table


def spread_distances(table, space):
    """A rank table with each rank read through ``values``."""
    values = space.distance_ranks()[1]
    return [[values[r] for r in row] for row in table]


def assert_spread_tables_agree(maps, space):
    table = spread_table(maps, space)
    assert all(type(r) is int for row in table for r in row)
    assert spread_distances(table, space) == reference_spread_table(maps, space)


def test_distance_ranks_index_the_grid():
    spaces = [coprime_space(7), FiniteMetricSpace(["a"], [[0]])]
    spec = InstanceSpec(seed="ranks", count=20)
    spaces += [random_genome(spec, idx).build()[0].space
               for idx in range(spec.count)]
    for space in spaces:
        ranks, values = space.distance_ranks()
        assert list(values[1:]) == space.distance_grid()
        assert values[0] == 0
        for i in range(space.n):
            for j in range(space.n):
                assert values[ranks[i][j]] == space.dist[i][j]
        assert space.distance_ranks() is space.distance_ranks()


def test_spread_table_matches_reference_on_seeded_closures():
    """Every closure level, the core-restricted closure and random partial
    subfamilies of seeded instances."""
    rng = random.Random("spread-subfamilies")
    spec = InstanceSpec(seed="spread-kernel", count=40, n_points=(3, 9))
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        space = sys_i.space
        systems = [sys_i]
        if sys_i.has_cores:
            systems.append(compacted_system(sys_i))
        for system in systems:
            closure = system.word_closure()
            for n in range(1, closure.stable_index + 1):
                assert_spread_tables_agree(closure.maps_at(n), space)
        maps = sys_i.word_closure().stabilized_maps
        for _ in range(3):
            family = rng.sample(maps, rng.randint(1, len(maps)))
            family = [g.restrict(rng.sample(range(space.n),
                                            rng.randint(0, space.n)))
                      for g in family]
            assert_spread_tables_agree(family, space)


def test_spread_table_matches_reference_on_symmetric_groups():
    """S_6 and S_7 on coprime denominators, whole and as partial
    subfamilies."""
    rng = random.Random("spread-groups")
    for n in (6, 7):
        space = coprime_space(n)
        maps = symmetric_group(space).word_closure().stabilized_maps
        assert len(maps) == (720 if n == 6 else 5040)
        assert_spread_tables_agree(maps, space)
        family = [g.restrict(rng.sample(range(n), rng.randint(2, n)))
                  for g in rng.sample(maps, 50)]
        assert_spread_tables_agree(family, space)


def test_spread_table_edge_cases():
    space = coprime_space(5)
    one = FiniteMetricSpace(["a"], [[0]])
    g = PartialMap(space, [1, None, None, None, 0])  # 0 -> 1, 4 -> 0
    assert_spread_tables_agree([], space)
    assert_spread_tables_agree([], one)
    assert_spread_tables_agree([PartialMap.identity(one)], one)
    assert_spread_tables_agree([empty_map(space)], space)
    # pairs with no shared map stay 0; a shared map makes the entry positive
    table = spread_distances(spread_table([g, empty_map(space)], space),
                             space)
    assert table == reference_spread_table([g], space)
    assert table[0][4] == table[4][0] == space.dist[1][0]
    assert table[0][1] == table[2][3] == 0
    two = FiniteMetricSpace(["a", "b"], [[0, 3], [3, 0]])
    assert_spread_tables_agree([empty_map(two), PartialMap(two, [1, None]),
                                PartialMap(two, [1, 0])], two)


class CountedReads:
    """A map that counts how often its values are read."""

    def __init__(self, g):
        self.g = g
        self.reads = 0

    @property
    def vals(self):
        self.reads += 1
        return self.g.vals


def saturation_length(maps, space):
    """The length of the shortest prefix that spreads every pair i < j to
    the diameter, or None; read from the distances, not from ranks."""
    diam = space.diameter()
    below = {(i, j) for i in range(space.n) for j in range(i + 1, space.n)}
    for k, g in enumerate(maps):
        if not below:
            return k
        vals = g.vals
        below = {(i, j) for i, j in below
                 if vals[i] is None or vals[j] is None
                 or space.dist[vals[i]][vals[j]] < diam}
    return len(maps) if not below else None


def assert_fold_reads_every_map(maps, space):
    assert saturation_length(maps, space) is None
    counted = [CountedReads(g) for g in maps]
    table = spread_table(counted, space)
    assert spread_distances(table, space) == reference_spread_table(maps, space)
    assert [c.reads for c in counted] == [1] * len(maps)


def test_spread_table_reads_every_map_below_saturation():
    """A pair no map is defined at, and a diameter that only some pairs
    reach: every map is read and the table equals the reference."""
    rng = random.Random("spread-unsaturated")
    space = coprime_space(6)
    maps = symmetric_group(space).word_closure().stabilized_maps
    # no map is defined at both 0 and 1
    family = [g.restrict({0, 1, 2, 3, 4, 5} - {rng.randint(0, 1)})
              for g in rng.sample(maps, 100)]
    assert_fold_reads_every_map(family, space)
    # rotations keep every distance, so only diametral pairs reach the top
    z8 = rotation_system(8)
    assert_fold_reads_every_map(z8.word_closure().stabilized_maps, z8.space)
    assert_fold_reads_every_map(
        [g.restrict(rng.sample(range(8), rng.randint(0, 8)))
         for g in z8.word_closure().stabilized_maps] * 3, z8.space)


def assert_pair_tables_match_spread_tables(system):
    """Each level's pair table, one level past the stabilization too,
    equals the fold of that level's word set, on the system and on its
    closure, which reads the system's own table objects.  The fixpoint
    level is the first level the later ones repeat, at most the
    stabilization index, and the default length reads its table."""
    closure = system.word_closure()
    for n in range(1, closure.stable_index + 2):
        fold = spread_table(closure.maps_at(n), system.space)
        assert [list(row) for row in system.constraint_table(n)] == fold
        assert closure.constraint_table(n) \
            is system.constraint_table(min(n, closure.stable_index))
    level = system.fixpoint_level
    assert 1 <= level <= closure.stable_index
    assert system.constraint_table() is system.constraint_table(level)
    assert system.constraint_table(level + 1) \
        is system.constraint_table(level)
    if level > 1:
        assert system.constraint_table(level - 1) \
            != system.constraint_table(level)


def test_pair_tables_match_spread_tables_on_seeded_instances():
    spec = InstanceSpec(seed=1, count=300)
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        assert_pair_tables_match_spread_tables(sys_i)
        if sys_i.has_cores:
            assert_pair_tables_match_spread_tables(compacted_system(sys_i))


def edge_systems():
    """S_6, S_7, 256 points (past the byte closure) and one point, bare
    and with an empty generator."""
    one = FiniteMetricSpace(["a"], [[0]])
    return [symmetric_group(coprime_space(6)),
            symmetric_group(coprime_space(7)),
            system_past_255_points(), GeneratingSystem.build(one, []),
            GeneratingSystem.build(one, [empty_map(one, "e")])]


def test_pair_tables_match_spread_tables_on_edge_systems():
    for system in edge_systems():
        assert_pair_tables_match_spread_tables(system)


def reference_pair_levels(system):
    """The pair recurrence with every level recomputed in full: T_0, the
    distance ranks, then T_k[i][j] = max of T_{k-1}[i][j] and
    T_{k-1}[g i][g j] over the generators g defined at i and j.  Yields
    T_0, T_1, ... up to the last level that differs from the one before."""
    n = system.space.n
    table = [list(row) for row in system.space.distance_ranks()[0]]
    gens = [g.vals for g in system.generators if not g.is_identity()]
    # off g's domain, row i's gather reads T[g i][g i] = 0
    reads = [[(vals[i], itemgetter(*[vals[i] if v is None else v
                                     for v in vals]))
              for vals in gens if vals[i] is not None]
             for i in range(n)]
    while True:
        yield table
        following = [list(map(max, table[i], *[get(table[gi])
                                               for gi, get in row_reads]))
                     if row_reads else table[i]
                     for i, row_reads in enumerate(reads)]
        if following == table:
            return
        table = following


def assert_pair_levels_match_reference(system):
    """Every level of the system's tables equals the full recurrence, and
    so do the two levels past the fixpoint and the default length; the
    fixpoint level is the last level that differs from the one before,
    and 1 when no level does."""
    last = 0
    for k, want in enumerate(reference_pair_levels(system)):
        if k:
            assert [list(row) for row in system.constraint_table(k)] == want
        last = k
    level = max(last, 1)
    assert system.fixpoint_level == level
    for n in (level, level + 1, level + 2, math.inf):
        assert [list(row) for row in system.constraint_table(n)] == want


def long_chain_system(n=200):
    """The step i -> i+1 on n points of a line with unit gaps but the last,
    which is 2: cell (i, j) first rises at level n - 1 - j, so the tables
    settle at level n - 2.  Its closure is far past what the spread-table
    comparison can fold."""
    xs = list(range(n - 1)) + [n]
    space = FiniteMetricSpace(list(range(n)),
                              [[abs(x - y) for y in xs] for x in xs])
    step = PartialMap(space, [i + 1 if i < n - 1 else None
                              for i in range(n)], name="g")
    return GeneratingSystem.build(space, [step])


def test_pair_levels_match_reference_on_seeded_instances():
    spec = InstanceSpec(seed=1, count=300)
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        assert_pair_levels_match_reference(sys_i)
        if sys_i.has_cores:
            assert_pair_levels_match_reference(compacted_system(sys_i))


def test_pair_levels_match_reference_on_edge_systems():
    for system in edge_systems():
        assert_pair_levels_match_reference(system)


def test_pair_levels_match_reference_on_a_long_chain():
    system = long_chain_system()
    assert_pair_levels_match_reference(system)
    assert system.fixpoint_level == 198


def test_pair_tables_of_a_non_symmetric_compaction():
    """Cores declared on g and on g^-1 that are not images of each other:
    the compacted family lacks the inverses of its restricted maps, and
    its tables, built from each map's own pullback, match the recurrence
    and the fold of its closure at every level."""
    xs = [0, 1, 3, 4, 7, 8, 12]
    space = FiniteMetricSpace(list(range(len(xs))),
                              [[abs(x - y) for y in xs] for x in xs])
    step = PartialMap(space, [i + 1 if i < len(xs) - 1 else None
                              for i in range(len(xs))], name="g")
    system = GeneratingSystem.build(space, [step],
                                    cores={"g": {0, 1, 2, 3}, "g^-1": {5, 6}})
    comp = compacted_system(system)
    restricted = [g for g in comp.generators if not g.is_identity()]
    assert any(g.inverse() not in restricted for g in restricted)
    assert_pair_levels_match_reference(comp)
    assert_pair_tables_match_spread_tables(comp)
    assert comp.fixpoint_level > 1


def read_every_table(system, mu):
    """Every reader of the pair tables, on ``system``."""
    space = system.space
    grid = space.distance_grid()
    for x in range(space.n):
        for n in (1, 2, 3):
            dyn_ball(system, x, n, grid[0])
            dyn_ball(system, x, n, grid[-1], closed=True)
        bowen_ball(system, x, grid[0])
    h_top_table(system, n_max=4)
    local_entropy(mu, system, 0, n_max=4)
    is_homogeneous(mu, system)
    expansiveness_verdict(mu, system, grid[0])
    equicontinuity_modulus(system)


def assert_rows_shared_when_unchanged(system):
    """A level shares each unchanged row with the level before and holds a
    new bytes row for each changed one; a settled engine keeps only
    levels."""
    system.fixpoint_level
    engine = system._tables
    assert engine._pulls is None and engine._raised is None
    tables = engine.tables
    assert len({id(row) for row in tables[0]}) == system.space.n
    for prev, level in zip(tables, tables[1:]):
        assert prev != level
        for before, row in zip(prev, level):
            assert (row is before) == (row == before)


def test_table_readers_leave_every_level_intact():
    """After every table reader has run, each level still equals the
    recurrence: no reader writes to a row that other levels share."""
    spec = InstanceSpec(seed="shared-rows", count=30)
    cored = 0
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        read_every_table(sys_i, mu)
        systems = [sys_i]
        if sys_i.has_cores:
            systems.append(compacted_system(sys_i))
            cored += 1
        for system in systems:
            assert_pair_levels_match_reference(system)
            assert_rows_shared_when_unchanged(system)
    assert cored
    chain = long_chain_system(40)
    read_every_table(chain, FiniteMeasure.uniform(chain.space))
    assert_pair_levels_match_reference(chain)
    assert_rows_shared_when_unchanged(chain)


def assert_row_readers_match_references(system, mu, row_type):
    """Every level's rows are ``row_type``, and at every level and every
    rank threshold the ball measures, the table balls and, at each
    threshold a scale reaches, the separation graph equal the row-by-row
    references.  The ball measures are read cold (by a copy of ``mu``
    that has read no row), then warm (by the same copy again, and by
    ``mu``, which read the earlier levels and thresholds).  The scales 0,
    each grid value and twice the diameter reach every threshold."""
    space = system.space
    values = space.distance_ranks()[1]
    system.fixpoint_level
    tables = system._tables.tables
    assert all(type(row) is row_type for table in tables for row in table)
    scales = {space.threshold(eps): eps
              for eps in [0, *space.distance_grid(), 2 * space.diameter()]}
    assert set(scales) == set(range(len(values) + 1))
    for n, table in enumerate(tables):
        for t in range(len(values) + 1):
            want = reference_ball_numerators(mu.nums, table, t)
            cold = FiniteMeasure(space, mu.weights)
            assert cold.ball_numerators(table, t) == want
            assert cold.ball_numerators(table, t) == want
            assert mu.ball_numerators(table, t) == want
            assert [table_ball(table, i, t) for i in range(space.n)] \
                == [reference_table_ball(table, i, t)
                    for i in range(space.n)]
            if n and t:  # the scale 0 of threshold 0 is refused
                assert separation_graph(system, n, scales[t]) \
                    == reference_separation_graph(table, t)
    assert system.constraint_table() is tables[-1]


def random_partial_maps(space, rng, count):
    """``count`` injective partial maps, each on a random half of the
    points or more."""
    maps = []
    for k in range(count):
        dom = rng.sample(range(space.n), rng.randint(space.n // 2, space.n))
        vals = [None] * space.n
        for i, v in zip(dom, rng.sample(range(space.n), len(dom))):
            vals[i] = v
        maps.append(PartialMap(space, vals, name=f"g{k}"))
    return maps


def test_pair_table_rows_are_bytes_and_read_like_the_references():
    """Pair tables of at most 256 rank values hold ``bytes`` rows, and
    the readers agree with the references at every threshold, the top
    one included."""
    spec = InstanceSpec(seed="row-format", count=60)
    deep = 0
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        systems = [sys_i]
        if sys_i.has_cores:
            systems.append(compacted_system(sys_i))
        for system in systems:
            assert_row_readers_match_references(system, mu, bytes)
            deep += system.fixpoint_level > 1
    assert deep
    rng = random.Random("row-format-boundary")
    space = ranked_space(24, 255)
    assert len(space.distance_ranks()[1]) == 256
    system = GeneratingSystem.build(space, random_partial_maps(space, rng, 2))
    weights = [rng.randint(0, 3) for _ in range(space.n)]
    weights[0] += 1
    mu = FiniteMeasure(space, [Fraction(w, sum(weights)) for w in weights])
    assert_row_readers_match_references(system, mu, bytes)
    assert system.fixpoint_level > 1
    assert_pair_levels_match_reference(system)


def test_pair_table_rows_past_256_rank_values_are_tuples():
    """276 rank values do not fit a byte: the rows are tuples, and the
    readers agree with the same references."""
    rng = random.Random("row-format-wide")
    space = ranked_space(24, 275)
    assert len(space.distance_ranks()[1]) == 276
    system = GeneratingSystem.build(space, random_partial_maps(space, rng, 2))
    assert_row_readers_match_references(
        system, FiniteMeasure.uniform(space), tuple)
    assert system.fixpoint_level > 1
    assert_pair_levels_match_reference(system)


def test_pair_table_rows_refuse_item_assignment():
    """Levels share rows, so no row of any level takes an item assignment,
    in either format: ``bytes`` up to 256 rank values, tuples past them."""
    rng = random.Random("row-read-only")
    for values in (255, 275):
        space = ranked_space(24, values)
        system = GeneratingSystem.build(space,
                                        random_partial_maps(space, rng, 2))
        system.fixpoint_level
        tables = system._tables.tables
        assert len(tables) > 2
        assert any(a is b for prev, level in zip(tables, tables[1:])
                   for a, b in zip(prev, level))
        for table in tables:
            for row in table:
                with pytest.raises(TypeError):
                    row[0] = 1


def test_constraint_table_rejects_word_length_below_1(line_system):
    closure = line_system.word_closure()
    for n in (0, -1):
        with pytest.raises(InputError, match="at least 1"):
            closure.constraint_table(n)
    with pytest.raises(InputError, match="at least 1"):
        brute_force_separated(line_system, 0, 1)


def test_compacted_requires_cores(line_system):
    with pytest.raises(PreconditionError):
        compacted_system(line_system)


def test_compacted_noop_when_cores_equal_domains(line):
    g = PartialMap.from_dict(line, {"a": "b", "b": "c"}, name="g")
    sys_full = GeneratingSystem.build(line, [g], cores={"g": {0, 1}})
    comp = compacted_system(sys_full)
    assert set(comp.generators) == set(sys_full.generators)


def test_goodness_witness_unreachable_pair(line, line_system_cores):
    """With cores {a} and {c}, the compacted words only realize a->b and
    c->b beyond the diagonal."""
    small = compacted_system(line_system_cores).germ_relation()
    assert (1, 2) not in small.pairs
    assert (0, 1) in small.pairs


def test_separation_radius_examples(line, line_system_cores):
    assert separation_radius(line_system_cores) == 2

    g = PartialMap.from_dict(line, {"a": "b", "b": "c"}, name="g")
    total = GeneratingSystem.build(
        line, [PartialMap.from_dict(line, {"a": "b", "b": "c", "c": "a"},
                                    name="p")],
        cores={"p": {0}})
    assert is_unbounded(separation_radius(total))

    z6 = rotation_system(6).space
    q = PartialMap.from_dict(z6, {i: (i + 1) % 6 for i in range(5)}, name="q")
    sys_q = GeneratingSystem.build(z6, [q], cores={"q": {0, 1, 2}})
    assert separation_radius(sys_q) == 1


def reference_separation_radius(sys):
    """The least ``dist`` from a core to its domain's complement, by a
    scan of the ``Fraction`` matrix."""
    found = [sys.space.dist[z][y]
             for g, core in zip(sys.generators, sys.cores)
             for z in sys.space.full_set() - g.dom for y in core]
    return min(found) if found else UNBOUNDED


def test_separation_radius_never_builds_dist(monkeypatch):
    """The radius is the value of the least rank between a core and its
    domain's complement, the same ``Fraction`` as ``dist`` holds, read
    without building ``dist``: on seeded cored systems, some all total,
    and their compacted systems."""
    spec = InstanceSpec(seed="separation-radius", count=80,
                        total_fraction=0.5)
    systems = [random_genome(spec, idx).build()[0]
               for idx in range(spec.count)]
    systems += [compacted_system(system) for system in systems]
    want = [reference_separation_radius(system) for system in systems]
    assert any(map(is_unbounded, want))
    assert sum(not is_unbounded(w) for w in want) > 100

    def unread(space):
        raise AssertionError("dist was built")

    monkeypatch.setattr(FiniteMetricSpace, "dist", property(unread))
    for system, radius in zip(systems, want):
        got = separation_radius(system)
        assert got == radius
        assert is_unbounded(got) or type(got) is Fraction


def test_dedup_soundness_against_raw_enumeration():
    """Dynamical balls computed from the deduplicated closure match the
    raw no-dedup word enumeration, over random small instances."""
    from pseudodyn.dynamics import dyn_ball
    spec = InstanceSpec(seed="dedup-module", count=12, n_points=(3, 6),
                        n_generators=(1, 2))
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        space = sys_i.space
        for n in (1, 2, 3):
            raw = raw_word_maps(sys_i, n)
            for xi in range(space.n):
                for eps in space.distance_grid():
                    members = dyn_ball(sys_i, xi, n, eps,
                                       closed=True).members
                    expected = frozenset(
                        y for y in range(space.n)
                        if all(space.dist[w.vals[xi]][w.vals[y]] <= eps
                               for w in raw
                               if w.vals[xi] is not None
                               and w.vals[y] is not None)
                    )
                    assert members == expected
