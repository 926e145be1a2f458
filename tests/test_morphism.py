import collections
import json
import random
from fractions import Fraction

import pytest

from pseudodyn import (CapabilityError, FiniteMeasure, FiniteMetricSpace,
                       GeneratingSystem, InputError, PartialMap, SpaceIso,
                       compacted_system, compare_entropy, conjugate_map,
                       conjugate_system, dynamics, morphism,
                       pushforward, transfer_expansive_constant)
from pseudodyn.cli import main
from pseudodyn.dynamics import EXACT_CLIQUE_CAP, separated_count
from pseudodyn.equicont import _modulus
from pseudodyn.probes import (InstanceSpec, random_genome,
                              random_space_matrix)
from pseudodyn.rational import UNBOUNDED, is_unbounded

from conftest import graph, reference_modulus_full_scan


@pytest.fixture
def relabel(line):
    return SpaceIso.relabel(line, ["p", "q", "r"])


@pytest.fixture
def doubled(line):
    return SpaceIso.relabel(line, ["p", "q", "r"], scale=2)


def test_iso_must_be_bijection(line):
    other = FiniteMetricSpace(["p", "q", "r"], line.dist)
    with pytest.raises(InputError, match="bijection"):
        SpaceIso(line, other, [0, 0, 2])
    with pytest.raises(InputError, match="misses"):
        SpaceIso.from_dict(line, other, {"a": "p"})


def test_conjugate_relabeling(line, line_system, relabel):
    g = PartialMap.from_dict(line, {"a": "b", "b": "c"}, name="g")
    gp = conjugate_map(g, relabel)
    assert gp.space is relabel.dst
    assert graph(gp) == {(0, 1), (1, 2)}

    ident = SpaceIso(line, line, range(3))
    assert set(conjugate_system(line_system, ident).generators) \
        == set(line_system.generators)


def test_conjugation_functorial(line, line_system, relabel):
    maps = line_system.word_closure().stabilized_maps
    for f in maps[:6]:
        for g in maps[:6]:
            assert (conjugate_map(f.then(g), relabel)
                    == conjugate_map(f, relabel).then(conjugate_map(g, relabel)))
        assert conjugate_map(f.inverse(), relabel) \
            == conjugate_map(f, relabel).inverse()


def test_germ_relation_transports(line_system, relabel):
    conj = conjugate_system(line_system, relabel)
    image = {(relabel.fwd[i], relabel.fwd[j])
             for i, j in line_system.germ_relation().pairs}
    assert image == set(conj.germ_relation().pairs)


def test_pushforward(line, relabel):
    assert pushforward(FiniteMeasure.uniform(line), relabel).weights \
        == FiniteMeasure.uniform(relabel.dst).weights
    pm = pushforward(FiniteMeasure.point_mass(line, 0), relabel)
    assert pm.weights[relabel.dst.index("p")] == 1


def test_pushforward_preserves_invariance():
    from pseudodyn import is_invariant_measure
    spec = InstanceSpec(seed="push", count=8, measure_family="uniform")
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        iso = SpaceIso.relabel(sys_i.space,
                               [f"q{i}" for i in range(sys_i.space.n)])
        if is_invariant_measure(mu, sys_i).ok:
            assert is_invariant_measure(
                pushforward(mu, iso), conjugate_system(sys_i, iso)).ok


def test_transfer_constant(line, relabel, doubled):
    # isometry: target pairs at distance <= 1 pull back below eta = 2
    assert transfer_expansive_constant(2, relabel) == 1
    # eta = 1: no grid value works, fall back below the inverse modulus
    assert transfer_expansive_constant(1, relabel) == Fraction(1, 2)
    # eta beyond the diameter: capped at the target diameter
    assert transfer_expansive_constant(5, relabel) == 2
    # doubled distances: target 2 pulls back to source 1, still below eta
    assert transfer_expansive_constant(1, doubled) == 1


def test_transfer_claim_pointwise(line, line_system, doubled):
    """Points inside the pulled-back transferred ball are inside the source
    ball: checked from the exact constraint tables."""
    conj = conjugate_system(line_system, doubled)
    c1 = line_system.word_closure()
    m1 = c1.constraint_table(c1.stable_index)
    c2 = conj.word_closure()
    m2 = c2.constraint_table(c2.stable_index)
    values1 = line.distance_ranks()[1]
    values2 = doubled.dst.distance_ranks()[1]
    for eta in line.distance_grid():
        delta = transfer_expansive_constant(eta, doubled)
        for x in range(3):
            for z in range(3):
                if values2[m2[doubled.fwd[x]][doubled.fwd[z]]] <= delta:
                    assert values1[m1[x][z]] <= eta


def test_compare_entropy_isometric(line_system, relabel):
    rep = compare_entropy(line_system, relabel)
    assert rep.isometric and rep.tables_equal
    assert rep.forward_ok and rep.backward_ok


def test_compare_entropy_scaled(line, line_system, doubled):
    rep = compare_entropy(line_system, doubled)
    assert not rep.isometric
    assert rep.forward_ok and rep.backward_ok
    # counts match under the eps -> 2 eps regrading
    for (n, eps), count in rep.counts_src.items():
        assert rep.counts_dst[(n, 2 * eps)] == count


def test_compare_entropy_on_one_point_has_empty_tables():
    """One point has no distance grid: both count tables are empty and
    every verdict holds."""
    space = FiniteMetricSpace(["a"], [[0]])
    system = GeneratingSystem.build(
        space, [PartialMap(space, [0], name="f")])
    rep = compare_entropy(system, SpaceIso.relabel(space, ["b"]))
    assert rep.counts_src == rep.counts_dst == {}
    assert (rep.forward_ok, rep.backward_ok, rep.tables_equal) \
        == (True, True, True)


def test_cli_conjugate_on_one_point_exits_0(tmp_path, capsys):
    """``conjugate`` on a one-point model prints empty count tables with
    every verdict true, and exits 0."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "points": ["a"], "dist": [[0]],
        "generators": [{"name": "f", "map": {"a": "a"}}],
        "phi": {"a": "b"}}))
    assert main(["--format", "json", "conjugate", "--model", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["counts_src"] == result["counts_dst"] == {}
    assert (result["forward_ok"], result["backward_ok"],
            result["tables_equal"]) == (True, True, True)


def reference_compare_counts(sys, iso, n_list=(1, 2, 3)):
    """``compare_entropy``'s count tables and verdicts, recounting the
    other side at every transfer scale."""
    conj = conjugate_system(sys, iso)
    src_grid = sys.space.distance_grid()
    dst_grid = iso.dst.distance_grid()
    counts_src = {(n, eps): separated_count(sys, n, eps).lower
                  for eps in src_grid for n in n_list}
    counts_dst = {(n, eps): separated_count(conj, n, eps).lower
                  for eps in dst_grid for n in n_list}
    forward_ok = backward_ok = True
    for eps in src_grid:
        scale = iso.inverse_modulus(eps)
        if is_unbounded(scale):
            continue
        for n in n_list:
            if counts_src[(n, eps)] > separated_count(conj, n, scale).lower:
                forward_ok = False
    for eps in dst_grid:
        scale = iso.forward_modulus(eps)
        if is_unbounded(scale):
            continue
        for n in n_list:
            if counts_dst[(n, eps)] > separated_count(sys, n, scale).lower:
                backward_ok = False
    tables_equal = None
    if iso.is_isometric():
        tables_equal = all(counts_src[(n, eps)] == counts_dst[(n, eps)]
                           for n in n_list for eps in src_grid)
    return forward_ok, backward_ok, tables_equal, counts_src, counts_dst


def test_compare_entropy_matches_recount_reference(monkeypatch):
    """The transfer verdicts read the count tables, with one separated
    count per table cell, and agree with a recount at every transfer
    scale: on seeded systems and their compacted systems, over shuffled
    isos onto copies scaled by 1, 2 and 1/3."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return separated_count(*args, **kwargs)

    monkeypatch.setattr(dynamics, "separated_count", spy)
    rng = random.Random("compare-recount")
    spec = InstanceSpec(seed="compare-recount", count=100)
    for idx in range(spec.count):
        sys_i = random_genome(spec, idx).build()[0]
        src = sys_i.space
        n = src.n
        for system in (sys_i, compacted_system(sys_i)):
            for scale in (1, 2, Fraction(1, 3)):
                fwd = list(range(n))
                rng.shuffle(fwd)
                inv = [0] * n
                for i, v in enumerate(fwd):
                    inv[v] = i
                dst = FiniteMetricSpace(
                    range(n), [[src.dist[inv[u]][inv[v]] * scale
                                for v in range(n)] for u in range(n)])
                iso = SpaceIso(src, dst, fwd)
                calls.clear()
                rep = compare_entropy(system, iso)
                assert len(calls) <= 3 * (len(src.distance_grid())
                                          + len(dst.distance_grid()))
                assert (rep.forward_ok, rep.backward_ok, rep.tables_equal,
                        rep.counts_src, rep.counts_dst) \
                    == reference_compare_counts(system, iso)


def reference_separation_transfer_scale(eps, iso):
    """Least target distance among images of source pairs at least eps
    apart, by a direct scan over source pairs."""
    best = None
    for i in range(iso.src.n):
        for j in range(i + 1, iso.src.n):
            if iso.src.dist[i][j] >= eps:
                d = iso.dst.dist[iso.fwd[i]][iso.fwd[j]]
                if best is None or d < best:
                    best = d
    return UNBOUNDED if best is None else best


def reference_transfer_expansive_constant(eta, iso):
    """Largest target grid value delta under which no target pair pulls
    back to eta or farther, tried grid value by grid value."""
    def valid(delta):
        for u in range(iso.dst.n):
            for v in range(u + 1, iso.dst.n):
                if iso.dst.dist[u][v] <= delta:
                    if iso.src.dist[iso.inv[u]][iso.inv[v]] >= eta:
                        return False
        return True

    for delta in reversed(iso.dst.distance_grid()):
        if valid(delta):
            return delta
    bound = iso.inverse_modulus(eta)
    if is_unbounded(bound):
        return iso.dst.diameter()
    return bound / 2


def seeded_isos(count=240):
    """Bijections at |X| from 1 to 9: onto a relabeled copy, onto a scaled
    copy, and onto an unrelated random metric."""
    rng = random.Random("iso-reference")
    for k in range(count):
        n = 1 + k % 9
        src = FiniteMetricSpace(range(n), random_space_matrix(rng, n, 5))
        fwd = list(range(n))
        rng.shuffle(fwd)
        kind = k // 9 % 3
        if kind == 2:
            dst_dist = random_space_matrix(rng, n, 5)
        else:
            scale = Fraction(1) if kind == 0 else Fraction(rng.randint(1, 5),
                                                           rng.randint(1, 3))
            inv = [0] * n
            for i, v in enumerate(fwd):
                inv[v] = i
            dst_dist = [[src.dist[inv[u]][inv[v]] * scale for v in range(n)]
                        for u in range(n)]
        yield SpaceIso(src, FiniteMetricSpace(range(n), dst_dist), fwd)


def test_iso_moduli_match_reference_scans():
    """The transfer scales of ``compare_entropy`` and the expansive-constant
    transfer agree with their direct scans at every grid value of both
    spaces, and beyond the diameters."""
    for iso in seeded_isos():
        grid = sorted(set(iso.src.distance_grid()) | set(iso.dst.distance_grid()))
        for eps in grid + [Fraction(1, 2), max(grid, default=0) + 1]:
            assert iso.inverse_modulus(eps) \
                == reference_separation_transfer_scale(eps, iso)
            assert iso.forward_modulus(eps) \
                == reference_separation_transfer_scale(eps, iso.inverted())
            assert transfer_expansive_constant(eps, iso) \
                == reference_transfer_expansive_constant(eps, iso)


def test_pulled_table_moduli_match_full_scan():
    """On the pulled tables of the seeded isos, both ways, the nearest-first
    modulus returns the full scan's delta and pairs at every target
    threshold from 0 to past the top rank."""
    bounded = 0
    for iso in seeded_isos():
        for way in (iso, iso.inverted()):
            way.forward_modulus(0)  # builds the pulled table
            for t in range(len(way.dst.distance_ranks()[1]) + 1):
                want = reference_modulus_full_scan(way._pulled, way.src, t)
                assert _modulus(way._pulled, way.src, t) == want
                bounded += not is_unbounded(want[0])
    assert bounded > 1000


def reference_forward_modulus(iso, eps):
    """The least source distance among pairs whose images are eps or
    farther apart, by the direct pair loop over ``Fraction`` distances."""
    best = None
    for i in range(iso.src.n):
        for j in range(i + 1, iso.src.n):
            if iso.dst.dist[iso.fwd[i]][iso.fwd[j]] >= eps:
                d = iso.src.dist[i][j]
                if best is None or d < best:
                    best = d
    return UNBOUNDED if best is None else best


def test_forward_modulus_matches_pair_loop():
    """The rank route agrees with the pair loop on shuffled bijections onto
    copies scaled by 1 and by 2, both ways, at every grid value of both
    spaces, at midpoints, 0 and past the diameters."""
    rng = random.Random("forward-modulus")
    spec = InstanceSpec(seed="forward-modulus", count=40)
    for idx in range(spec.count):
        src = random_genome(spec, idx).build()[0].space
        n = src.n
        for scale in (1, 2):
            fwd = list(range(n))
            rng.shuffle(fwd)
            inv = [0] * n
            for i, v in enumerate(fwd):
                inv[v] = i
            dst = FiniteMetricSpace(
                range(n), [[src.dist[inv[u]][inv[v]] * scale for v in range(n)]
                           for u in range(n)])
            iso = SpaceIso(src, dst, fwd)
            grid = sorted(set(src.distance_grid()) | set(dst.distance_grid()))
            radii = [Fraction(0), *grid, grid[-1] + 1]
            radii += [(a + b) / 2 for a, b in zip(grid, grid[1:])]
            for eps in radii:
                for way in (iso, iso.inverted()):
                    assert way.forward_modulus(eps) \
                        == reference_forward_modulus(way, eps)
                assert iso.inverse_modulus(eps) \
                    == reference_forward_modulus(iso.inverted(), eps)


def test_separation_transfer_scale(line, doubled):
    assert doubled.inverse_modulus(1) == 2
    assert doubled.inverse_modulus(2) == 4
    assert is_unbounded(doubled.inverse_modulus(3))
    assert doubled.forward_modulus(2) == 1
    assert doubled.forward_modulus(4) == 2


def reference_is_isometric(iso):
    """Every distance kept, compared as ``Fraction``s pair by pair."""
    src, dst, fwd = iso.src, iso.dst, iso.fwd
    return all(src.dist[i][j] == dst.dist[fwd[i]][fwd[j]]
               for i in range(src.n) for j in range(src.n))


def test_is_isometric_matches_the_distance_comparison():
    """Rank comparison against the pairwise distance reference on seeded
    isos: onto relabelled copies (scaled by 1, 2 and 1/3), onto permuted
    copies under the matching and under a shuffled bijection, and onto
    independent random metrics with the same distances or not."""
    rng = random.Random("is-isometric")
    outcomes = collections.Counter()
    for idx in range(150):
        n = rng.randint(1, 9)
        src = FiniteMetricSpace(range(n), random_space_matrix(rng, n, 4))
        perm = list(range(n))
        rng.shuffle(perm)
        inv = [0] * n
        for i, v in enumerate(perm):
            inv[v] = i
        permuted = FiniteMetricSpace(
            [f"z{v}" for v in range(n)],
            [[src.dist[inv[u]][inv[v]] for v in range(n)] for u in range(n)])
        other = FiniteMetricSpace(range(n), random_space_matrix(rng, n, 4))
        isos = [SpaceIso.relabel(src, [f"q{i}" for i in range(n)], scale)
                for scale in (1, 2, Fraction(1, 3))]
        isos += [SpaceIso(src, permuted, perm),
                 SpaceIso(src, permuted, rng.sample(range(n), n)),
                 SpaceIso(src, other, rng.sample(range(n), n))]
        for iso in isos:
            expected = reference_is_isometric(iso)
            assert iso.is_isometric() == expected
            outcomes[expected] += 1
            # the pulled-back ranks it reads serve the moduli too
            for eps in iso.dst.distance_grid():
                assert iso.forward_modulus(eps) \
                    == reference_forward_modulus(iso, eps)
    assert outcomes[True] >= 300 and outcomes[False] >= 300


def test_conjugate_past_the_cap_names_htop_and_conjugates_nothing(
        monkeypatch, tmp_path, capsys):
    """Past ``EXACT_CLIQUE_CAP`` points ``compare_entropy`` refuses before
    it conjugates or counts, and the refusal names ``htop``, which a
    command-line user can run on the same model."""
    n = EXACT_CLIQUE_CAP + 1
    dist = [[abs(i - j) for j in range(n)] for i in range(n)]
    space = FiniteMetricSpace([f"p{i}" for i in range(n)], dist)
    step = PartialMap(space, [i + 1 if i < 3 else None for i in range(n)],
                      name="s")
    system = GeneratingSystem.build(space, [step])
    iso = SpaceIso.relabel(space, [f"q{i}" for i in range(n)])

    def refuse(*args, **kwargs):
        raise AssertionError("nothing is conjugated or counted")

    monkeypatch.setattr(morphism, "conjugate_system", refuse)
    monkeypatch.setattr(morphism, "h_top_table", refuse)
    with pytest.raises(CapabilityError, match=f"got {n}.*htop"):
        compare_entropy(system, iso)
    doc = {"points": list(space.points), "dist": dist,
           "generators": [{"name": "s", "map": {"p0": "p1"}}],
           "phi": {f"p{i}": f"q{i}" for i in range(n)}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["conjugate", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("capability error: ") and "htop" in err
    assert "mode=" not in err
