import math
from fractions import Fraction

import pytest

from pseudodyn import (FiniteMeasure, FiniteMetricSpace, GeneratingSystem,
                       InputError, PartialMap, PreconditionError,
                       brute_force_invariant_sets,
                       expansiveness_upgrade_check, expansiveness_verdict,
                       invariant_sets, is_ergodic, is_homogeneous,
                       is_invariant_measure, local_entropy, orbit_components)
from pseudodyn.probes import InstanceSpec, random_genome


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

    assert is_ergodic(FiniteMeasure.point_mass(line, "a"), identity_system).ok


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
    table = local_entropy(FiniteMeasure.uniform(line), line_system, "a")
    assert table.limit == 0.0
    for cell in table.cells:
        assert cell.ball_measure > 0
        assert cell.value == pytest.approx(
            -math.log(cell.ball_measure) / cell.n)


def test_local_entropy_point_mass_all_zero(line, identity_system):
    table = local_entropy(FiniteMeasure.point_mass(line, "a"),
                          identity_system, "a", n_max=3)
    assert all(c.value == 0 for c in table.cells)
    assert table.limit == 0.0


def test_local_entropy_zero_measure_cells_are_inf(line, identity_system):
    pm = FiniteMeasure.point_mass(line, "a")
    table = local_entropy(pm, identity_system, "c", eps_grid=[1], n_max=2)
    assert all(c.value == math.inf for c in table.cells)
    assert table.limit == math.inf


@pytest.mark.parametrize("n_max", [0, -3])
def test_n_max_below_one_is_input_error(line, identity_system, n_max):
    """No n means no ball to measure: refuse instead of answering vacuously
    (the default n_max finds the point mass inhomogeneous)."""
    pm = FiniteMeasure.point_mass(line, "a")
    with pytest.raises(InputError, match="n_max"):
        local_entropy(pm, identity_system, "a", n_max=n_max)
    with pytest.raises(InputError, match="n_max"):
        is_homogeneous(pm, identity_system, n_max=n_max)


def test_local_entropy_empty_grid_is_input_error(line, line_system):
    one = FiniteMetricSpace(["a"], [[0]])
    with pytest.raises(InputError, match="eps grid"):
        local_entropy(FiniteMeasure.uniform(line), line_system, "a",
                      eps_grid=[])
    with pytest.raises(InputError, match="eps grid"):
        local_entropy(FiniteMeasure.uniform(one),
                      GeneratingSystem.build(one, []), "a")


@pytest.mark.parametrize("eps", [0, -1])
def test_nonpositive_scale_is_input_error(line, line_system, eps):
    """A scale <= 0 has empty open balls: refuse instead of reporting
    positive local entropy, or homogeneity with a nonpositive delta."""
    mu = FiniteMeasure.uniform(line)
    with pytest.raises(InputError, match="scale must be positive"):
        local_entropy(mu, line_system, "a", eps_grid=[1, eps])
    with pytest.raises(InputError, match="scale must be positive"):
        is_homogeneous(mu, line_system, eps_grid=[eps])


def test_homogeneity_empty_grid_is_input_error(line, identity_system):
    """No scale means nothing to check: refuse instead of answering ok
    (the default grid finds the point mass inhomogeneous)."""
    pm = FiniteMeasure.point_mass(line, "a")
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
    rep = is_homogeneous(FiniteMeasure.point_mass(line, "a"), identity_system)
    assert not rep.ok
    assert rep.counterexample is not None


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


def test_expansive_implies_weakly(line, line_system):
    for d in line.distance_grid():
        rep = expansiveness_verdict(FiniteMeasure.uniform(line), line_system, d)
        if rep.expansive:
            assert rep.weakly_expansive


def test_atoms_block_weak_expansiveness():
    spec = InstanceSpec(seed="atoms", count=10)
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        if mu.atoms() == sys_i.space.full_set():
            for d in sys_i.space.distance_grid():
                assert expansiveness_verdict(mu, sys_i, d).classification \
                    == "neither"


def test_upgrade_check_vacuous_on_atomic(line, line_system_cores):
    rep = expansiveness_upgrade_check(FiniteMeasure.uniform(line),
                                      line_system_cores)
    assert rep.vacuous and not rep.violated


def test_upgrade_check_unbounded_rho(line):
    p = PartialMap.from_dict(line, {"a": "b", "b": "c", "c": "a"}, name="p")
    sys_total = GeneratingSystem.build(line, [p], cores={"p": {0, 1, 2}})
    rep = expansiveness_upgrade_check(FiniteMeasure.uniform(line), sys_total)
    assert rep.vacuous and rep.hypothesis is None


def test_upgrade_never_violated_randomized():
    spec = InstanceSpec(seed="qtp-module", count=25)
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        assert not expansiveness_upgrade_check(mu, sys_i).violated


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
