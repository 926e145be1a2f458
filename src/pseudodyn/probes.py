"""Randomized statement-level conformance testing with shrinking.

Instances (space, generating system, measure) are generated deterministically
from a seed, every registered statement is evaluated on each instance, and
any violation is minimized by dropping points and generators while it
persists.  Statements route the operations they exercise through an
``OperationSet`` so that deliberately broken variants (mutations) can be
injected to validate the probes themselves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional

from . import morphism
from .dynamics import bowen_ball, dyn_ball_via_formula
from .equicont import _modulus, no_expansive_certificate_group
from .errors import InputError
from .measure import FiniteMeasure, expansiveness_verdict
from .pseudogroup import (GeneratingSystem, GermRelation, PartialMap, WordClosure,
                          _closure, _union_roots, compacted_system,
                          separation_radius, table_ball)
from .rational import is_unbounded
from .space import FiniteMetricSpace


# -- instance generation ---------------------------------------------------------


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic recipe for a stream of random instances."""

    seed: object = 0
    count: int = 100
    n_points: tuple[int, int] = (3, 7)
    n_generators: tuple[int, int] = (1, 2)
    domain_density: tuple[float, float] = (0.3, 0.9)
    core_density: tuple[float, float] = (0.3, 0.9)
    total_fraction: float = 0.2
    measure_family: str = "mix"  # uniform | random | point | mix


@dataclass
class Genome:
    """Raw data an instance is rebuilt from; the unit of shrinking."""

    labels: list
    dist: list
    gens: list          # (name, {label: label}) pairs, primaries only
    cores: Optional[dict]  # name -> set of labels
    weights: dict       # label -> Fraction (renormalized at build)

    def build(self, ops: "OperationSet | None" = None):
        ops = ops or DEFAULT_OPS
        space = FiniteMetricSpace(self.labels, self.dist)
        maps = [PartialMap.from_dict(space, mapping, name=name)
                for name, mapping in self.gens]
        cores = None
        if self.cores is not None:
            # a drawn or shrunk genome may hold the total identity, whose
            # core is the space, or one map twice, which keeps its first core
            full, kept, cores = set(range(space.n)), {}, {}
            for g in maps:
                if g.name in self.cores:
                    core = {space.index(x) for x in self.cores[g.name]}
                    cores[g.name] = (full if g.is_identity()
                                     else kept.setdefault(g, core))
        sys = ops.build_system(space, maps, cores)
        total = sum(self.weights.get(p, Fraction(0)) for p in self.labels)
        if total == 0:
            mu = FiniteMeasure.uniform(space)
        else:
            mu = FiniteMeasure(
                space,
                [self.weights.get(p, Fraction(0)) / total for p in self.labels])
        return sys, mu

    def without_point(self, label) -> Optional["Genome"]:
        if len(self.labels) <= 2:
            return None
        keep = [p for p in self.labels if p != label]
        idx = [i for i, p in enumerate(self.labels) if p != label]
        dist = [[self.dist[i][j] for j in idx] for i in idx]
        gens = []
        for name, mapping in self.gens:
            reduced = {a: b for a, b in mapping.items()
                       if a != label and b != label}
            if reduced:
                gens.append((name, reduced))
        cores = None
        if self.cores is not None:
            cores = {}
            names = {name for name, _ in gens}
            for name, pts in self.cores.items():
                if name not in names:
                    continue
                mapping = dict(gens[[n for n, _ in gens].index(name)][1])
                shrunk = {p for p in pts if p != label} & set(mapping)
                if shrunk:
                    cores[name] = shrunk
                else:
                    cores[name] = set(mapping)
        weights = {p: w for p, w in self.weights.items() if p != label}
        return Genome(labels=keep, dist=dist, gens=gens, cores=cores,
                      weights=weights)

    def without_generator(self, k: int) -> "Genome":
        gens = self.gens[:k] + self.gens[k + 1:]
        name = self.gens[k][0]
        cores = None
        if self.cores is not None:
            cores = {n: set(p) for n, p in self.cores.items() if n != name}
        return Genome(labels=list(self.labels), dist=[list(r) for r in self.dist],
                      gens=gens, cores=cores, weights=dict(self.weights))

    def size(self) -> tuple[int, int]:
        return (len(self.labels), len(self.gens))


def _instance_rng(spec: InstanceSpec, index: int) -> random.Random:
    return random.Random(f"pseudodyn:{spec.seed}:{index}")


def random_space_matrix(rng: random.Random, n: int, max_distance: int):
    """Random shortest-path metric over integer edge weights."""
    d = [[0 if i == j else rng.randint(1, max_distance) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[j][i] = d[i][j]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def random_genome(spec: InstanceSpec, index: int) -> Genome:
    rng = _instance_rng(spec, index)
    n = rng.randint(*spec.n_points)
    labels = [f"p{i}" for i in range(n)]
    dist = random_space_matrix(rng, n, 4)  # edge weights 1..4
    n_gens = rng.randint(*spec.n_generators)
    gens = []
    cores = {}
    for k in range(n_gens):
        name = f"g{k}"
        # total maps only on small spaces: a pair of large random
        # permutations generates a group far past desk scale
        if rng.random() < spec.total_fraction and n <= 6:
            dom = list(range(n))
        else:
            density = rng.uniform(*spec.domain_density)
            size = max(1, min(n, round(density * n)))
            dom = rng.sample(range(n), size)
        targets = rng.sample(range(n), len(dom))
        mapping = {labels[a]: labels[b] for a, b in zip(dom, targets)}
        gens.append((name, mapping))
        density = rng.uniform(*spec.core_density)
        csize = max(1, min(len(dom), round(density * len(dom))))
        core = rng.sample(sorted(mapping), csize)
        cores[name] = set(core)
    family = spec.measure_family
    if family == "mix":
        family = rng.choice(["uniform", "random", "random", "point"])
    if family == "uniform":
        weights = {p: Fraction(1, n) for p in labels}
    elif family == "point":
        weights = {rng.choice(labels): Fraction(1)}
    elif family == "random":
        raw = [rng.randint(1, 9) for _ in range(n)]
        total = sum(raw)
        weights = {p: Fraction(w, total) for p, w in zip(labels, raw)}
    else:
        raise InputError(f"unknown measure family {family!r}")
    return Genome(labels=labels, dist=dist, gens=gens, cores=cores,
                  weights=weights)


def random_instance(spec: InstanceSpec, index: int):
    """Deterministic (system, measure) pair for (spec.seed, index)."""
    return random_genome(spec, index).build()


# -- operation set (mutation injection point) -------------------------------------


@dataclass(frozen=True)
class OperationSet:
    """The operations the statement suite routes through, so a broken
    variant of any one of them is observable by the statements."""

    compose: Callable[[PartialMap, PartialMap], PartialMap]
    build_system: Callable
    compacted: Callable[[GeneratingSystem], GeneratingSystem]
    ball_formula: Callable
    bowen_members: Callable


def _default_build(space, maps, cores):
    return GeneratingSystem.build(space, maps, cores=cores)


def _default_bowen_members(sys, x, delta):
    return bowen_ball(sys, x, delta).members


DEFAULT_OPS = OperationSet(
    compose=PartialMap.then,
    build_system=_default_build,
    compacted=compacted_system,
    ball_formula=dyn_ball_via_formula,
    bowen_members=_default_bowen_members,
)


def closure_with(ops: OperationSet, sys: GeneratingSystem) -> WordClosure:
    """Word closure computed through ``ops.compose``; under the production
    compose that is the system's own cached closure, shared with every
    library call on the same system."""
    if ops.compose is PartialMap.then:
        return sys.word_closure()
    return _closure(sys, ops.compose)


# -- probe context -----------------------------------------------------------------


class ProbeContext:
    """Per-instance lazily computed artifacts shared by the statements."""

    def __init__(self, genome: Genome, ops: OperationSet, rng: random.Random):
        self.genome = genome
        self.ops = ops
        self.rng = rng
        self.sys, self.mu = genome.build(ops)
        self.space = self.sys.space
        self._closure = None
        self._compacted = None

    @property
    def closure(self) -> WordClosure:
        if self._closure is None:
            self._closure = closure_with(self.ops, self.sys)
        return self._closure

    @property
    def compacted(self) -> Optional[GeneratingSystem]:
        if not self.sys.has_cores:
            return None
        if self._compacted is None:
            self._compacted = self.ops.compacted(self.sys)
        return self._compacted

    def eps_sample(self) -> list[Fraction]:
        """The whole distance grid: a random probe metric draws its
        distances from 1 to 4, so its grid has at most four values."""
        return self.space.distance_grid()


@dataclass(frozen=True)
class Outcome:
    status: str  # 'vacuous' | 'substantive' | 'violation'
    witness: object = None

    @classmethod
    def ok(cls, substantive: bool = True) -> "Outcome":
        return cls("substantive" if substantive else "vacuous")

    @classmethod
    def bad(cls, witness) -> "Outcome":
        return cls("violation", witness)


# -- statements ---------------------------------------------------------------------


def stmt_ball_formula(ctx: ProbeContext) -> Outcome:
    """Scan and set-algebra routes to the dynamical ball agree.  Radii
    with one rank threshold give one ball, which is checked once, at the
    first of them in (eps, closed) order."""
    closure = ctx.closure
    ns = sorted({1, min(2, closure.stable_index), closure.stable_index})
    checked = set()
    for eps in ctx.eps_sample():
        for closed in (False, True):
            t = ctx.space.threshold(eps, closed)
            if t in checked:
                continue
            checked.add(t)
            for x in range(ctx.space.n):
                for n in ns:
                    a = table_ball(closure.constraint_table(n), x, t)
                    b = ctx.ops.ball_formula(ctx.sys, x, n, eps, closed, closure)
                    if a != b:
                        return Outcome.bad((ctx.space.label(x), n, eps, closed,
                                            sorted(a), sorted(b)))
    return Outcome.ok()


def stmt_bowen_stabilization(ctx: ProbeContext) -> Outcome:
    """The Bowen ball equals the nested intersection of closed n-balls,
    which is constant from the stabilization index on."""
    closure = ctx.closure
    for delta in ctx.eps_sample():
        t = ctx.space.threshold(delta, closed=True)
        for x in range(ctx.space.n):
            bw = ctx.ops.bowen_members(ctx.sys, x, delta)
            inter = ctx.space.full_set()
            for n in range(1, closure.stable_index + 1):
                inter &= table_ball(closure.constraint_table(n), x, t)
            if bw != inter:
                return Outcome.bad((ctx.space.label(x), delta,
                                    sorted(bw), sorted(inter)))
    return Outcome.ok()


def stmt_germ_equivalence(ctx: ProbeContext) -> Outcome:
    """The realized-pair relation is an equivalence: reflexive via the
    identity, symmetric via inverses, transitive via word concatenation."""
    pairs = frozenset((i, v) for g in ctx.closure.stabilized_maps
                      for i, v in enumerate(g.vals) if v is not None)
    failure = GermRelation(ctx.space, pairs).equivalence_failure()
    if failure is None:
        return Outcome.ok()
    kind, *points = failure
    return Outcome.bad((kind, *(ctx.space.label(i) for i in points)))


def stmt_inverse_composition(ctx: ProbeContext) -> Outcome:
    """Composing a map with its inverse restricts the identity to the
    domain (and to the range, in the other order); composition is
    associative on word maps."""
    ident = PartialMap.identity(ctx.space)
    for f in ctx.sys.generators:
        lhs = ctx.ops.compose(f, f.inverse())
        if lhs != ident.restrict(f.dom):
            return Outcome.bad(("f then f^-1", f.name, sorted(lhs.dom),
                                sorted(f.dom)))
        rhs = ctx.ops.compose(f.inverse(), f)
        if rhs != ident.restrict(f.ran):
            return Outcome.bad(("f^-1 then f", f.name, sorted(rhs.dom),
                                sorted(f.ran)))
    maps = ctx.closure.stabilized_maps
    for _ in range(10):
        f, g, h = (ctx.rng.choice(maps) for _ in range(3))
        left = ctx.ops.compose(ctx.ops.compose(f, g), h)
        right = ctx.ops.compose(f, ctx.ops.compose(g, h))
        if left != right:
            return Outcome.bad(("associativity", f, g, h))
    return Outcome.ok()


def stmt_compaction_inclusion(ctx: ProbeContext) -> Outcome:
    """Core restriction only removes constraints: every Bowen ball of the
    original system sits inside the core-restricted one, at every radius."""
    if ctx.compacted is None:
        return Outcome.ok(substantive=False)
    m1 = ctx.sys.constraint_table()
    m2 = ctx.compacted.constraint_table()
    values = ctx.space.distance_ranks()[1]
    strict = False
    for x in range(ctx.space.n):
        for y in range(ctx.space.n):
            if m2[x][y] > m1[x][y]:
                return Outcome.bad((ctx.space.label(x), ctx.space.label(y),
                                    str(values[m1[x][y]]),
                                    str(values[m2[x][y]])))
            if m2[x][y] < m1[x][y]:
                strict = True
    proper_core = any(
        core < g.dom
        for g, core in zip(ctx.sys.generators, ctx.sys.cores or [])
    )
    return Outcome.ok(substantive=strict or proper_core)


def stmt_half_radius(ctx: ProbeContext) -> Outcome:
    """Recentering: anything in the half-radius ball around x0 has its
    whole ball inside the full-radius core-restricted ball around it.  The
    upgrade lemma's measure step follows: the expansiveness verdict at
    rho/2 gives x0's ball its measure, and that is at most the
    core-restricted verdict's measure at rho around y0."""
    if ctx.compacted is None:
        return Outcome.ok(substantive=False)
    rho = separation_radius(ctx.sys)
    if is_unbounded(rho):
        return Outcome.ok(substantive=False)
    m1 = ctx.sys.constraint_table()
    m2 = ctx.compacted.constraint_table()
    half = ctx.space.threshold(rho / 2, closed=True)
    full = ctx.space.threshold(rho, closed=True)
    small = expansiveness_verdict(ctx.mu, ctx.sys, rho / 2).ball_measures
    large = expansiveness_verdict(ctx.mu, ctx.compacted, rho).ball_measures
    label = ctx.space.label
    for x0 in range(ctx.space.n):
        ball = table_ball(m1, x0, half)
        m = small[label(x0)]
        for y0 in sorted(ball):
            escaped = ball - table_ball(m2, y0, full)
            if escaped:
                return Outcome.bad((label(x0), label(y0),
                                    label(min(escaped)), str(rho)))
            if m != ctx.mu(ball) or m > large[label(y0)]:
                return Outcome.bad((label(x0), label(y0), str(m),
                                    str(large[label(y0)]), str(rho)))
    return Outcome.ok()


def stmt_core_margin(ctx: ProbeContext) -> Outcome:
    """Every point of a core-restricted domain keeps distance at least the
    separation radius from the complement of the original domain."""
    if ctx.compacted is None:
        return Outcome.ok(substantive=False)
    rho = separation_radius(ctx.sys)
    if is_unbounded(rho):
        return Outcome.ok(substantive=False)
    ranks = ctx.space.distance_ranks()[0]
    t = ctx.space.threshold(rho)
    for g, g2 in zip(ctx.sys.generators, ctx.compacted.generators):
        if g.is_identity():
            continue
        outside = ctx.space.full_set() - g.dom
        for z in outside:
            for y in g2.dom:
                if ranks[z][y] < t:
                    return Outcome.bad((g.name, ctx.space.label(z),
                                        ctx.space.label(y),
                                        str(ctx.space.dist[z][y]), str(rho)))
    return Outcome.ok()


def stmt_invariance_extension(ctx: ProbeContext) -> Outcome:
    """A subset invariant under every generator is invariant under every
    word of the closure."""
    n = ctx.space.n
    if n <= 10:
        candidates = range(1 << n)
    else:
        candidates = [ctx.rng.getrandbits(n) for _ in range(256)]
    gens = ctx.sys.generators
    words = ctx.closure.stabilized_maps
    substantive = False
    for mask in candidates:
        subset = [i for i in range(n) if mask >> i & 1]
        if not all(
            g.vals[i] is None or mask >> g.vals[i] & 1
            for g in gens for i in subset
        ):
            continue
        if 0 < len(subset) < n:
            substantive = True
        for w in words:
            for i in subset:
                v = w.vals[i]
                if v is not None and not mask >> v & 1:
                    return Outcome.bad((sorted(ctx.space.label(j) for j in subset),
                                        w.word, ctx.space.label(i)))
    return Outcome.ok(substantive=substantive)


def _random_iso(ctx: ProbeContext) -> morphism.SpaceIso:
    labels = [f"q{i}" for i in range(ctx.space.n)]
    ctx.rng.shuffle(labels)
    scale = ctx.rng.choice([1, 1, 1, 2])
    return morphism.SpaceIso.relabel(ctx.space, labels, scale=scale)


def stmt_iso_ball_transfer(ctx: ProbeContext) -> Outcome:
    """Pulled-back Bowen balls at the transferred radius land inside the
    source Bowen balls at the original radius."""
    iso = _random_iso(ctx)
    conj = morphism.conjugate_system(ctx.sys, iso)
    m_src = ctx.sys.constraint_table()
    m_dst = conj.constraint_table()
    for eta in ctx.eps_sample():
        delta = morphism.transfer_expansive_constant(eta, iso)
        # each table against the threshold of its own space
        t_dst = iso.dst.threshold(delta, closed=True)
        t_src = ctx.space.threshold(eta, closed=True)
        for x in range(ctx.space.n):
            fx = iso.fwd[x]
            for z in range(ctx.space.n):
                fz = iso.fwd[z]
                if m_dst[fx][fz] < t_dst and m_src[x][z] >= t_src:
                    return Outcome.bad((ctx.space.label(x), ctx.space.label(z),
                                        str(eta), str(delta)))
    return Outcome.ok()


def stmt_iso_counts(ctx: ProbeContext) -> Outcome:
    """Separated counts transfer across the bijection in both directions,
    and agree exactly for a relabeling isometry."""
    iso = _random_iso(ctx)
    rep = morphism.compare_entropy(ctx.sys, iso, n_max=2)
    if not rep.forward_ok or not rep.backward_ok:
        return Outcome.bad(("count transfer", rep.forward_ok, rep.backward_ok))
    if rep.isometric and rep.tables_equal is False:
        return Outcome.bad(("isometric tables differ",))
    return Outcome.ok()


def totalized_group(space: FiniteMetricSpace, gens,
                    rng: random.Random) -> GeneratingSystem:
    """The system of a genome's generators ``gens``, each extended to a
    permutation by sending the points outside its domain to a shuffle of
    the points outside its image."""
    n = space.n
    total_maps = []
    for k, (_, mapping) in enumerate(gens):
        g = {space.index(a): space.index(b) for a, b in mapping.items()}
        free_src = [i for i in range(n) if i not in g]
        free_dst = [j for j in range(n) if j not in set(g.values())]
        rng.shuffle(free_dst)
        g.update(dict(zip(free_src, free_dst)))
        total_maps.append(PartialMap(
            space, [g[i] for i in range(n)], name=f"t{k}"))
    return GeneratingSystem.build(space, total_maps)


def pair_orbit_table(group: GeneratingSystem) -> list[list[int]]:
    """``S[i][j]`` = the top distance rank on the orbit of (i, j) under a
    group of bijections, which is its component in the pair graph
    (i, j) -> (g i, g j) over the generators: union-find over the n^2
    ordered pairs, then one max per component.  It equals ``spread_table``
    over the group's closure without building it, and it is not the pair
    tables' backward max-push, so it checks them independently."""
    n = group.space.n
    # pair (i, j) is i * n + j, and g takes it to (g i) * n + g j
    roots = _union_roots(n * n, chain.from_iterable(
        zip(range(n * n), [a * n + b for a in g.vals for b in g.vals])
        for g in group.generators))
    top = [0] * (n * n)
    for root, rank in zip(roots, chain.from_iterable(
            group.space.distance_ranks()[0])):
        top[root] = max(top[root], rank)
    return [[top[root] for root in roots[i * n:(i + 1) * n]]
            for i in range(n)]


def stmt_group_claim(ctx: ProbeContext) -> Outcome:
    """On the group generated by totalized generators, the certificate's
    delta, read from the pair table, is the modulus of the pair-orbit fold
    at every sampled radius, so its open delta-balls sit inside the Bowen
    balls; neither side builds the group's word closure."""
    group = totalized_group(ctx.space, ctx.genome.gens, ctx.rng)
    fold = pair_orbit_table(group)
    for rho in ctx.eps_sample():
        rep = no_expansive_certificate_group(group, rho)
        folded = _modulus(fold, ctx.space, ctx.space.threshold(rho))[0]
        if rep.delta != folded:
            return Outcome.bad(("delta", str(rho), str(rep.delta),
                                str(folded)))
    return Outcome.ok()


STATEMENTS: dict[str, Callable[[ProbeContext], Outcome]] = {
    "ball-formula-identity": stmt_ball_formula,
    "bowen-stabilization": stmt_bowen_stabilization,
    "germ-equivalence": stmt_germ_equivalence,
    "inverse-composition": stmt_inverse_composition,
    "compaction-ball-inclusion": stmt_compaction_inclusion,
    "half-radius-recentering": stmt_half_radius,
    "core-margin": stmt_core_margin,
    "invariance-extension": stmt_invariance_extension,
    "iso-ball-transfer": stmt_iso_ball_transfer,
    "iso-separated-counts": stmt_iso_counts,
    "equicontinuous-group-claim": stmt_group_claim,
}


# -- suite runner -------------------------------------------------------------------


@dataclass
class Violation:
    index: int
    witness: object
    genome_size: tuple[int, int]
    shrunk_size: Optional[tuple[int, int]] = None
    shrunk_witness: object = None


@dataclass
class ProbeReport:
    statement: str
    instances: int = 0
    vacuous: int = 0
    substantive: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def shrink_genome(genome: Genome, violates: Callable[[Genome], bool]) -> Genome:
    """Greedy minimization: repeatedly drop a point or a generator while
    the violation persists."""
    current = genome
    changed = True
    while changed:
        changed = False
        for label in list(current.labels):
            candidate = current.without_point(label)
            if candidate is not None and violates(candidate):
                current = candidate
                changed = True
                break
        if changed:
            continue
        for k in range(len(current.gens)):
            candidate = current.without_generator(k)
            if violates(candidate):
                current = candidate
                changed = True
                break
    return current


def _evaluate(genome: Genome, ops: OperationSet, names, rng_seed: str):
    results = {}
    try:
        ctx = ProbeContext(genome, ops, random.Random(rng_seed))
    except Exception as exc:
        return {name: Outcome.bad(("build exception", repr(exc)))
                for name in names}
    for name in names:
        # fresh per-statement stream so statement selection cannot change
        # what another statement sees
        ctx.rng = random.Random(f"{rng_seed}:{name}")
        try:
            results[name] = STATEMENTS[name](ctx)
        except Exception as exc:  # a crash in a statement is a violation too
            results[name] = Outcome.bad(("exception", repr(exc)))
    return results


def run_suite(spec: InstanceSpec, statements="all",
              ops: OperationSet | None = None,
              extra_genomes: list[Genome] | None = None,
              shrink: bool = True) -> dict[str, ProbeReport]:
    """Evaluate the selected statements over the instance stream.

    Deterministic for a fixed spec: instance i is derived from
    (spec.seed, i), and instances are evaluated and reported in index order.
    An unknown or repeated statement name is an input error, raised before
    any instance is drawn.
    """
    ops = ops or DEFAULT_OPS
    if statements == "all":
        names = list(STATEMENTS)
    else:
        names = list(statements)
        unknown = [s for s in names if s not in STATEMENTS]
        if unknown:
            raise InputError(f"unknown statements: {unknown}")
        repeated = sorted({s for s in names if names.count(s) > 1})
        if repeated:
            raise InputError(f"repeated statements: {repeated}")
    genomes = list(extra_genomes or [])
    genomes += [random_genome(spec, i) for i in range(spec.count)]
    seeds = [f"pseudodyn-eval:{spec.seed}:{i}" for i in range(len(genomes))]

    reports = {name: ProbeReport(statement=name) for name in names}
    for index, (genome, seed) in enumerate(zip(genomes, seeds)):
        for name, outcome in _evaluate(genome, ops, names, seed).items():
            rep = reports[name]
            rep.instances += 1
            if outcome.status == "vacuous":
                rep.vacuous += 1
            elif outcome.status == "substantive":
                rep.substantive += 1
            else:
                violation = Violation(index=index, witness=outcome.witness,
                                      genome_size=genome.size())
                if shrink:
                    def violates(candidate, _name=name, _seed=seed):
                        out = _evaluate(candidate, ops, [_name], _seed)[_name]
                        return out.status == "violation"
                    small = shrink_genome(genome, violates)
                    violation.shrunk_size = small.size()
                    violation.shrunk_witness = _evaluate(
                        small, ops, [name], seed)[name].witness
                rep.violations.append(violation)
    return reports
