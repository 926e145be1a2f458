import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from pseudodyn import (GeneratingSystem, InputError, is_unbounded,
                       no_expansive_certificate_group, probes)
from pseudodyn.mutations import MUTATIONS, crafted_genomes
from pseudodyn.probes import (DEFAULT_OPS, Genome, InstanceSpec, OperationSet,
                              ProbeContext, QUESTION_TOPICS, pair_orbit_table,
                              question_probe, random_genome, random_instance,
                              run_suite, shrink_genome, stmt_group_claim,
                              totalized_group)
from pseudodyn.pseudogroup import spread_table

from conftest import coprime_space, symmetric_group


def test_random_instance_deterministic():
    spec = InstanceSpec(seed=0, count=5)
    a_sys, a_mu = random_instance(spec, 3)
    b_sys, b_mu = random_instance(spec, 3)
    assert [g.vals for g in a_sys.generators] == [g.vals for g in b_sys.generators]
    assert a_mu.weights == b_mu.weights
    assert a_sys.space.dist == b_sys.space.dist


def test_random_instance_invariants():
    spec = InstanceSpec(seed=9, count=30)
    for idx in range(spec.count):
        sys_i, mu = random_instance(spec, idx)
        ext = set(sys_i.generators)
        assert all(g.inverse() in ext for g in sys_i.generators)
        assert any(g.is_identity() and g.is_total() for g in sys_i.generators)
        assert sum(mu.weights) == 1
        if sys_i.cores is not None:
            assert all(c <= g.dom for g, c in zip(sys_i.generators, sys_i.cores))


def test_total_density_one_makes_total_maps():
    spec = InstanceSpec(seed=2, count=10, n_points=(3, 5), total_fraction=1.0)
    for idx in range(spec.count):
        sys_i, _ = random_instance(spec, idx)
        assert all(g.is_total() for g in sys_i.generators)


def test_suite_deterministic():
    spec = InstanceSpec(seed=5, count=6)
    names = ["compaction-ball-inclusion", "half-radius-recentering"]
    a = run_suite(spec, statements=names)
    b = run_suite(spec, statements=names)
    for name in names:
        assert (a[name].vacuous, a[name].substantive) \
            == (b[name].vacuous, b[name].substantive)
        assert not a[name].violations


def test_suite_rejects_unknown_statement():
    with pytest.raises(InputError, match="unknown statements"):
        run_suite(InstanceSpec(count=1), statements=["nope"])


def test_production_suite_clean():
    reports = run_suite(InstanceSpec(seed=11, count=15))
    for name, rep in reports.items():
        assert not rep.violations, (name, rep.violations[:1])


def test_every_operation_has_a_mutant():
    """An operation no mutation replaces is a knob the suite never tests."""
    unmutated = [f.name for f in fields(OperationSet)
                 if all(getattr(ops, f.name) is getattr(DEFAULT_OPS, f.name)
                        for ops in MUTATIONS.values())]
    assert not unmutated


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_mutation_is_caught(mutation):
    reports = run_suite(InstanceSpec(seed=7, count=3),
                        ops=MUTATIONS[mutation],
                        extra_genomes=crafted_genomes(), shrink=False)
    caught = [name for name, rep in reports.items() if rep.violations]
    assert caught, f"mutation {mutation} undetected"


def assert_orbit_fold_matches_closure_fold(group) -> int:
    """The pair-orbit fold equals ``spread_table`` over the group's
    closure on every pair i < j; returns the closure's size."""
    maps = group.word_closure().stabilized_maps
    fold = spread_table(maps, group.space)
    orbit = pair_orbit_table(group)
    n = group.space.n
    assert all(orbit[i][j] == fold[i][j]
               for i in range(n) for j in range(i + 1, n))
    return len(maps)


def test_pair_orbit_fold_matches_the_closure_fold():
    """S_6 and S_7, and seeded totalized groups built as the group-claim
    statement builds them, some as large as S_6."""
    for n in (6, 7):
        assert_orbit_fold_matches_closure_fold(
            symmetric_group(coprime_space(n)))
    spec = InstanceSpec(seed="orbit-fold", count=300)
    rng = random.Random("orbit-fold")
    orders = []
    for idx in range(spec.count):
        genome = random_genome(spec, idx)
        space = genome.build()[0].space
        group = totalized_group(space, genome.gens, rng)
        orders.append(assert_orbit_fold_matches_closure_fold(group))
    assert max(orders) >= 720


def test_group_claim_builds_no_word_closure(monkeypatch):
    """The certificate reads the fixpoint pair table and the statement the
    pair-orbit fold, so neither builds the group's word closure."""
    group = symmetric_group(coprime_space(7))
    assert no_expansive_certificate_group(group, 1).delta == 1 + Fraction(1, 17)
    assert group._closure is None

    def refused(self):
        raise AssertionError("word closure built")

    monkeypatch.setattr(GeneratingSystem, "word_closure", refused)
    spec = InstanceSpec(seed="no-closure", count=30)
    for idx in range(spec.count):
        ctx = ProbeContext(random_genome(spec, idx), DEFAULT_OPS,
                           random.Random(idx))
        assert stmt_group_claim(ctx).status == "substantive"


def test_group_claim_rejects_a_delta_raised_to_the_next_grid_value(monkeypatch):
    """The certificate's delta and its Bowen balls read one table, so only
    the statement's pair-orbit fold can catch a wrong delta, and it does."""
    spec = InstanceSpec(seed="group-claim-raised", count=30)
    genomes = [random_genome(spec, idx) for idx in range(spec.count)]

    def outcomes():
        return [stmt_group_claim(ProbeContext(g, DEFAULT_OPS,
                                              random.Random(idx)))
                for idx, g in enumerate(genomes)]

    assert all(o.status == "substantive" for o in outcomes())
    certificate = probes.no_expansive_certificate_group

    def raised(group, rho):
        rep = certificate(group, rho)
        grid = group.space.distance_grid()
        if is_unbounded(rep.delta) or rep.delta == grid[-1]:
            return rep
        return replace(rep, delta=grid[grid.index(rep.delta) + 1])

    monkeypatch.setattr(probes, "no_expansive_certificate_group", raised)
    caught = [o for o in outcomes() if o.status == "violation"]
    assert len(caught) > spec.count // 2
    assert all(o.witness[0] == "delta" for o in caught)


def test_half_radius_rejects_a_verdict_over_open_balls(monkeypatch):
    """The recentering statement reads the upgrade's measure step through
    ``expansiveness_verdict``, so a verdict that sums open balls, leaving
    out the points at exactly the radius, is caught."""
    verdict = probes.expansiveness_verdict

    def open_balls(mu, sys, delta):
        rep = verdict(mu, sys, delta)
        space = sys.space
        nums = mu.ball_numerators(sys.constraint_table(),
                                  space.threshold(delta))
        return replace(rep, ball_measures={
            space.label(xi): Fraction(m, mu.den) for xi, m in enumerate(nums)})

    monkeypatch.setattr(probes, "expansiveness_verdict", open_balls)
    reports = run_suite(InstanceSpec(seed=0, count=200),
                        statements=["half-radius-recentering"])
    assert reports["half-radius-recentering"].violations


def test_shrinking_reaches_small_witness():
    """Shrinking an injected violation lands on an instance no larger than
    the original, and the violation still holds there."""
    ops = MUTATIONS["formula-drop-complement"]
    reports = run_suite(InstanceSpec(seed=7, count=2),
                        ops=ops, extra_genomes=crafted_genomes(), shrink=True)
    rep = reports["ball-formula-identity"]
    assert rep.violations
    for violation in rep.violations:
        assert violation.shrunk_size is not None
        assert violation.shrunk_size <= violation.genome_size
        assert violation.shrunk_witness is not None


def test_shrink_genome_preserves_predicate():
    genome = crafted_genomes()[0]

    def has_g(g: Genome) -> bool:
        return any(name == "g" for name, _ in g.gens)

    small = shrink_genome(genome, has_g)
    assert has_g(small)
    assert small.size() <= genome.size()


def test_shrink_genome_propagates_predicate_errors():
    """A fault in the predicate surfaces instead of reading as 'no
    violation'."""
    def broken(g: Genome) -> bool:
        raise RuntimeError("predicate fault")

    with pytest.raises(RuntimeError, match="predicate fault"):
        shrink_genome(crafted_genomes()[0], broken)


@pytest.mark.parametrize("topic", QUESTION_TOPICS)
def test_question_surveys_run(topic):
    survey = question_probe(topic, InstanceSpec(seed=1, count=6))
    assert survey.instances <= 6
    assert survey.agreements + len(survey.disagreements) == survey.instances
    assert survey.note


def test_question_probe_unknown_topic():
    with pytest.raises(InputError, match="unknown survey topic"):
        question_probe("nope", InstanceSpec(count=1))
