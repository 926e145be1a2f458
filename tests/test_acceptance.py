"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines; each criterion is a separate test so failures are attributable.
"""

import math
import random
import time
from fractions import Fraction

from pseudodyn import (BernoulliSpec, FiniteMeasure, ShiftPoint,
                       bowen_ball_shift, brute_force_invariant_sets,
                       cylinder_measure, dyn_ball_cylinder,
                       expansiveness_verdict, invariant_sets, is_ergodic,
                       is_invariant_measure, local_entropy,
                       measure_entropy_shift, window_radius)
from pseudodyn.equicont import (equicontinuity_modulus,
                                no_expansive_certificate_group)
from pseudodyn.morphism import SpaceIso, compare_entropy, conjugate_system, \
    pushforward
from pseudodyn.mutations import MUTATIONS, crafted_genomes
from pseudodyn.probes import InstanceSpec, DEFAULT_OPS, random_genome, \
    run_suite

from conftest import group_inclusion_failures, homogeneous, rotation_system

HALF = BernoulliSpec(Fraction(1, 2))


def report(num: int, ok: bool, desc: str):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_cylinder_measure_identity():
    x = ShiftPoint.from_string("0110100", center=0)
    started = time.time()
    ok = True
    for eps in (Fraction(3, 5), Fraction(3, 10), Fraction(1, 10),
                Fraction(1, 100)):
        s = window_radius(eps)
        for n in range(1, 1025):
            m = cylinder_measure(dyn_ball_cylinder(x, n, eps), HALF)
            if m != Fraction(1, 2) ** (2 * (n + s) + 1):
                ok = False
    elapsed = time.time() - started
    report(1, ok and elapsed < 1.0,
           f"cylinder measures equal (1/2)^(2(n+s)+1) for all eps, n <= 1024 "
           f"({elapsed:.2f}s)")


def test_criterion_02_shift_entropy():
    started = time.time()
    val = measure_entropy_shift(HALF, Fraction(3, 5), 1000)
    rel_err = abs(val.value - 2 * math.log(2)) / (2 * math.log(2))
    elapsed = time.time() - started
    report(2, rel_err < 0.005 and val.limit_log2_coeff == Fraction(2)
           and elapsed < 1.0,
           f"entropy at n=1000 within {rel_err:.4%} of 2 log 2; symbolic "
           f"limit exactly 2*log2 ({elapsed:.2f}s)")


def test_criterion_03_shift_homogeneity():
    rng = random.Random("acceptance-3")
    grid = [Fraction(3, 5), Fraction(3, 10), Fraction(1, 10), Fraction(1, 100)]

    def point():
        return ShiftPoint(tuple(rng.randint(0, 1) for _ in range(11)),
                          rng.randint(0, 1))

    tuples = [(point(), point(), rng.randint(1, 64), rng.choice(grid))
              for _ in range(100)]
    report(3, homogeneous(HALF, tuples),
           "homogeneity witness (delta = eps, c = 1) exact on 100 tuples")


def test_criterion_04_shift_expansiveness():
    rng = random.Random("acceptance-4")
    ok = True
    for delta in (Fraction(1, 4), Fraction(1, 2)):
        for _ in range(50):
            x = ShiftPoint(tuple(rng.randint(0, 1) for _ in range(9)),
                           rng.randint(0, 1))
            rep = bowen_ball_shift(x, delta)
            ok = ok and rep.singleton and rep.measure_zero
            ok = ok and all(b > 0 for _, b in rep.measure_bounds)
        zero = bowen_ball_shift(ShiftPoint.zero(), delta, HALF)
        ok = ok and zero.singleton and zero.measure_zero
    report(4, ok, "Bowen balls are measure-zero singletons at delta in "
                  "{1/4, 1/2}; verdict expansive")


def test_criterion_05_ball_formula_equivalence():
    started = time.time()
    spec = InstanceSpec(seed="acceptance-5", count=1000, n_points=(3, 8),
                        n_generators=(1, 3), domain_density=(0.3, 0.9))
    mismatches = 0
    cells = 0
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        closure = sys_i.word_closure()
        space = sys_i.space
        values = space.distance_ranks()[1]
        grid = space.distance_grid()
        if len(grid) > 8:
            step = (len(grid) - 1) / 7
            grid = sorted({grid[round(i * step)] for i in range(8)})
        for n in range(1, min(6, closure.stable_index) + 1):
            table = closure.constraint_table(n)
            for x in range(space.n):
                row = [values[r] for r in table[x]]
                for eps in grid:
                    for closed in (False, True):
                        members = frozenset(
                            y for y in range(space.n)
                            if (row[y] <= eps if closed else row[y] < eps))
                        formula = DEFAULT_OPS.ball_formula(
                            sys_i, x, n, eps, closed, closure)
                        cells += 1
                        if members != formula:
                            mismatches += 1
    elapsed = time.time() - started
    report(5, mismatches == 0 and elapsed < 60,
           f"scan and set-algebra ball routes identical on 1000 instances, "
           f"{cells} cells, 0 mismatches ({elapsed:.1f}s)")


def test_criterion_06_dedup_soundness():
    from pseudodyn import raw_word_maps
    spec = InstanceSpec(seed="acceptance-6", count=200, n_points=(3, 8),
                        n_generators=(1, 2))
    mismatches = 0
    for idx in range(spec.count):
        sys_i, _ = random_genome(spec, idx).build()
        closure = sys_i.word_closure()
        space = sys_i.space
        values = space.distance_ranks()[1]
        npts = space.n
        for n in range(1, 5):
            raw = raw_word_maps(sys_i, n)
            raw_table = [[Fraction(0)] * npts for _ in range(npts)]
            for w in raw:
                vals = w.vals
                dom = [i for i, v in enumerate(vals) if v is not None]
                for ai, i in enumerate(dom):
                    for j in dom[ai + 1:]:
                        d = space.dist[vals[i]][vals[j]]
                        if d > raw_table[i][j]:
                            raw_table[i][j] = d
                            raw_table[j][i] = d
            table = closure.constraint_table(n)
            if raw_table != [[values[r] for r in row] for row in table]:
                mismatches += 1
    report(6, mismatches == 0,
           "raw word enumeration and deduplicated closure give identical "
           "balls at every radius (200 seeds, n <= 4)")


def test_criterion_07_compaction_ball_inclusion():
    spec = InstanceSpec(seed="acceptance-7", count=500,
                        core_density=(0.2, 0.9))
    reports = run_suite(spec, statements=["compaction-ball-inclusion"])
    rep = reports["compaction-ball-inclusion"]
    substantive_share = rep.substantive / rep.instances
    report(7, not rep.violations and substantive_share >= 0.5,
           f"original Bowen balls inside core-restricted ones on 500 "
           f"instances, {substantive_share:.0%} substantive")


def test_criterion_08_half_radius_recentering():
    spec = InstanceSpec(seed="acceptance-8", count=500, n_points=(3, 7),
                        domain_density=(0.25, 0.75), total_fraction=0.0)
    reports = run_suite(spec, statements=["half-radius-recentering"])
    rep = reports["half-radius-recentering"]
    report(8, not rep.violations and rep.substantive == rep.instances,
           f"half-radius recentering held on {rep.substantive}/500 "
           f"finite-radius instances")


def test_criterion_09_upgrade_conformance():
    spec = InstanceSpec(seed="acceptance-9", count=500)
    reports = run_suite(spec, statements=["half-radius-recentering"])
    rep = reports["half-radius-recentering"]
    # Cores are the whole shift, so the compacted system is the shift
    # itself: the hypothesis is weak expansiveness at rho, the conclusion
    # expansiveness at rho / 2, each a measure-zero singleton Bowen ball.
    substantive_shift = True
    for rho in (Fraction(1, 2), Fraction(1, 4)):
        for scale in (rho, rho / 2):
            ball = bowen_ball_shift(ShiftPoint.zero(), scale, HALF)
            substantive_shift = (substantive_shift and ball.singleton
                                 and ball.measure_zero)
    report(9, not rep.violations and rep.substantive > 0 and substantive_shift,
           f"half-radius recentering and its measure step held on "
           f"{rep.substantive}/500 instances; the weak-to-strong upgrade is "
           f"substantive on the shift configuration")


def test_criterion_10_ergodicity_oracle():
    started = time.time()
    spec = InstanceSpec(seed="acceptance-10", count=100, n_points=(4, 15),
                        n_generators=(1, 2))
    ok = True
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        oracle = brute_force_invariant_sets(sys_i)
        if invariant_sets(sys_i) != oracle:
            ok = False
        uniform = FiniteMeasure.uniform(sys_i.space)
        expected = all(uniform(s) in (0, 1) for s in oracle)
        if is_ergodic(uniform, sys_i).ok != expected:
            ok = False
        if is_invariant_measure(mu, sys_i).ok:
            expected_mu = all(mu(s) in (0, 1) for s in oracle)
            if is_ergodic(mu, sys_i).ok != expected_mu:
                ok = False
    elapsed = time.time() - started
    report(10, ok and elapsed < 120,
           f"component ergodicity matches the exhaustive subset oracle, "
           f"100 seeds, |X| <= 15 ({elapsed:.1f}s)")


def test_criterion_11_equicontinuity_rotations():
    rng = random.Random("acceptance-11")
    ok = True
    for size in (6, 12):
        sys_r = rotation_system(size)
        space = sys_r.space
        cert = equicontinuity_modulus(sys_r)
        ok = ok and all(cert.table[e] == e for e in space.distance_grid())
        for rho in space.distance_grid():
            delta = no_expansive_certificate_group(sys_r, rho).delta
            ok = ok and group_inclusion_failures(sys_r, rho, delta) == []
        for _ in range(100):
            raw = [rng.randint(1, 9) for _ in range(size)]
            total = sum(raw)
            mu = FiniteMeasure(space, [Fraction(v, total) for v in raw])
            for rho in space.distance_grid():
                verdict = expansiveness_verdict(mu, sys_r, rho)
                ok = ok and verdict.classification == "neither"
    report(11, ok, "rotation systems certify delta(eps) = eps; ball "
                   "inclusions hold at every rho; 100 random measures all "
                   "'neither'")


def test_criterion_12_morphism_invariance():
    spec = InstanceSpec(seed="acceptance-12", count=200)
    ok = True
    for idx in range(spec.count):
        sys_i, mu = random_genome(spec, idx).build()
        space = sys_i.space
        labels = [f"q{i}" for i in range(space.n)]
        rng = random.Random(f"acceptance-12:{idx}")
        rng.shuffle(labels)
        iso = SpaceIso.relabel(space, labels)
        rep = compare_entropy(sys_i, iso, n_max=2)
        ok = ok and rep.isometric and rep.tables_equal
        ok = ok and rep.forward_ok and rep.backward_ok
        conj = conjugate_system(sys_i, iso)
        push = pushforward(mu, iso)
        x = rng.randrange(space.n)
        local_src = local_entropy(mu, sys_i, x)
        local_dst = local_entropy(push, conj, iso.fwd[x])
        ok = ok and local_dst.x == iso.dst.label(iso.fwd[x])
        ok = ok and ([(c.eps, c.n, c.ball_measure) for c in local_src.cells]
                     == [(c.eps, c.n, c.ball_measure)
                         for c in local_dst.cells])
        for delta in space.distance_grid()[:3]:
            a = expansiveness_verdict(mu, sys_i, delta)
            b = expansiveness_verdict(push, conj, delta)
            ok = ok and a.classification == b.classification
            ok = ok and b.ball_measures == {
                iso.dst.label(iso.fwd[space.index(x)]): m
                for x, m in a.ball_measures.items()}

    # one non-isometric, distance-doubled instance: both transfer
    # inequalities must hold at every (n, eps)
    sys_s, _ = random_genome(InstanceSpec(seed="acceptance-12-scaled",
                                          count=1), 0).build()
    doubled = SpaceIso.relabel(sys_s.space,
                               [f"q{i}" for i in range(sys_s.space.n)],
                               scale=2)
    scaled = compare_entropy(sys_s, doubled, n_max=3)
    ok = ok and not scaled.isometric
    ok = ok and scaled.forward_ok and scaled.backward_ok
    report(12, ok, "relabeling isometries preserve counts, local entropy "
                   "and verdicts exactly (200 instances); scaled instance "
                   "satisfies both transfer inequalities")


def test_criterion_13_mutation_detection():
    caught_by = {}
    for name, ops in MUTATIONS.items():
        reports = run_suite(InstanceSpec(seed="acceptance-13", count=3),
                            ops=ops, extra_genomes=crafted_genomes(),
                            shrink=False)
        caught_by[name] = [s for s, r in reports.items() if r.violations]
    ok = all(caught_by[name] for name in MUTATIONS)
    detail = "; ".join(f"{name} -> {hits[0]}" for name, hits in
                       caught_by.items() if hits)
    report(13, ok and len(caught_by) == 5,
           f"all 5 mutations detected ({detail})")
