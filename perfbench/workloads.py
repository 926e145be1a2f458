"""The three closed-loop workloads: one client, one process, no threads.

Each workload is built from the seed alone and exposes the same protocol
to the runner:

* ``setup()`` makes the inputs and everything the timed loop needs;
* ``pass_ops(seconds)`` is the number of ops in the pass;
* ``prepare(k)`` returns a callable for op ``k`` (untimed), and calling it
  is the timed op;
* ``key(k)`` names the request op ``k`` makes, and ``token(result)`` turns
  its answer into a compact value that equal answers share;
* ``check(key, token)`` verifies an answer through an independent route
  (untimed) and returns ``None`` or a reason;
* ``inputs(k)`` returns the JSON-able inputs of op ``k`` for the digest.

Ops follow a fixed slot schedule so that every window of the stream has
the same mix of families and request kinds; the seed chooses the models,
points and radii that fill the slots.
"""

from __future__ import annotations

import collections
import io
import json
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import gen
import oracle

MIN_OPS = 200   # the tail percentile is then at least p95

# -- verify ---------------------------------------------------------------------------

# The default InstanceSpec draws |X| in 3..7 and 1..2 generators uniformly
# and independently.  Cycling through these strata keeps that distribution
# while removing the run-to-run variance of how many seven-point,
# two-generator instances (the ones whose totalized group is largest) a
# short window happens to contain.
VERIFY_STRATA = tuple((n, g) for n in range(3, 8) for g in (1, 2))
# Instances whose word closure exceeds |S_7| = 5040 maps, the largest group
# the equicontinuous-group claim builds on seven points, are skipped: they
# are about one in 200 and a single one takes seconds and tens of MB, so
# whether a run draws one would decide its throughput and peak RSS.
VERIFY_CLOSURE_CAP = 5040
# Within the six- and seven-point two-generator strata, the group that the
# equicontinuous-group claim closes (S_n, A_n or smaller) decides most of an
# instance's cost, and how many of each a pass drew moved its throughput
# between 15.7 and 22.7 ops/s over ten seeds.  Every QUOTA_PERIOD instances
# of such a stratum therefore hold a fixed count of each group order (0: any
# other), in the shares measured over about 2,400 draws of each stratum:
# 0.42, 0.15 and 0.43 on six points, 0.62, 0.18 and 0.20 on seven.
QUOTA_PERIOD = 40
GROUP_QUOTAS = {(6, 2): {720: 17, 360: 6, 0: 17},
                (7, 2): {5040: 25, 2520: 7, 0: 8}}


def quota_sequence(quotas: dict) -> list:
    """The classes of one period, each spread evenly over it."""
    return [c for _, c in sorted(((k + 0.5) / q, c) for c, q in quotas.items()
                                 for k in range(q))]


def group_claim_order(spec, genome) -> int:
    """Order of the group the equicontinuous-group claim closes on instance 0
    of ``spec``: each generator totalized as ``probes.stmt_group_claim`` does,
    with that statement's random stream.  It only sorts draws into cost
    classes; should the library change the totalization, the classes stop
    predicting cost, and the inputs are still a function of the seed."""
    rng = random.Random(f"pseudodyn-eval:{spec.seed}:0:equicontinuous-group-claim")
    index = {label: i for i, label in enumerate(genome.labels)}
    n = len(index)
    maps = []
    for _, mapping in genome.gens:
        g = {index[a]: index[b] for a, b in mapping.items()}
        free_src = [i for i in range(n) if i not in g]
        free_dst = [j for j in range(n) if j not in set(g.values())]
        rng.shuffle(free_dst)
        g.update(zip(free_src, free_dst))
        maps.append(tuple(g[i] for i in range(n)))
    return gen.closure_size(maps, n, VERIFY_CLOSURE_CAP)


class Verify:
    rate = 20.0
    deadline_s = 60.0
    keep_tables = False
    fresh_heap = False
    reached = ("probes.run_suite", "probes.closure_with", "probes.ProbeContext.eps_sample",
               "pseudogroup.constraint_table", "pseudogroup.build",
               "pseudogroup.word_closure", "space.metric_init", "space.distance_grid",
               "dynamics.dyn_ball", "dynamics.dyn_ball_via_formula",
               "dynamics.separated_count", "equicont.modulus_at",
               "measure.expansiveness_verdict", "morphism.compare_entropy",
               "morphism.conjugate_system")

    def pass_ops(self, seconds: float) -> int:
        return pass_ops(self, seconds, len(VERIFY_STRATA) * QUOTA_PERIOD)

    def __init__(self, pd, seed, ops=None):
        self.pd = pd
        self.seed = seed
        self.ops = ops
        self.reached = self.reached + tuple(
            f"probes.stmt.{s}" for s in pd.probes.STATEMENTS)

    def setup(self):
        self.specs = []
        self._queues = collections.defaultdict(list)
        self._classes = {s: quota_sequence(GROUP_QUOTAS.get(s, {0: QUOTA_PERIOD}))
                         for s in VERIFY_STRATA}
        self._candidate = 0
        self.skipped = 0
        self.instances = 0
        self.substantive = 0
        # the inputs of one quota period of every stratum (a whole pass at
        # the benchmark's run length); a longer pass draws the rest lazily
        self._spec(len(VERIFY_STRATA) * QUOTA_PERIOD - 1)

    def _spec(self, k: int):
        InstanceSpec = self.pd.probes.InstanceSpec
        while len(self.specs) <= k:
            j = len(self.specs)
            stratum = VERIFY_STRATA[j % len(VERIFY_STRATA)]
            want = stratum + (self._classes[stratum][j // len(VERIFY_STRATA) % QUOTA_PERIOD],)
            while not self._queues[want]:
                spec = InstanceSpec(seed=f"perfbench:{self.seed}:{self._candidate}",
                                    count=1)
                self._candidate += 1
                genome = self.pd.probes.random_genome(spec, 0)
                doc = {"points": genome.labels,
                       "generators": [{"map": m} for _, m in genome.gens]}
                if gen.closure_size(gen.doc_maps(doc), len(genome.labels),
                                    VERIFY_CLOSURE_CAP) is None:
                    self.skipped += 1
                    continue
                drawn = (len(genome.labels), len(genome.gens))
                cls = 0
                if drawn in GROUP_QUOTAS:
                    order = group_claim_order(spec, genome)
                    cls = order if order in GROUP_QUOTAS[drawn] else 0
                self._queues[drawn + (cls,)].append((spec, genome))
            self.specs.append(self._queues[want].pop(0))
        return self.specs[k]

    def prepare(self, k: int):
        spec = self._spec(k)[0]
        run_suite, ops = self.pd.probes.run_suite, self.ops
        return lambda: run_suite(spec, ops=ops)

    def key(self, k: int):
        return k

    def token(self, reports):
        return {name: (rep.instances, rep.vacuous, rep.substantive, len(rep.violations))
                for name, rep in reports.items()}

    def check(self, key, token):
        for instances, _, substantive, _ in token.values():
            self.instances += instances
            self.substantive += substantive
        bad = [name for name, t in token.items() if t[3]]
        return f"violations in {bad}" if bad else None

    def inputs(self, k):
        spec, genome = self._spec(k)
        return [spec.seed, genome.labels, genome.dist, genome.gens,
                genome.cores, genome.weights]

    def layer_extras(self) -> dict:
        share = self.substantive / self.instances if self.instances else 0.0
        return {"probes.substantive_share": share}

    def teardown(self):
        pass


# -- oneshot --------------------------------------------------------------------------


class Oneshot:
    rate = 22.0
    deadline_s = 60.0
    keep_tables = False
    fresh_heap = True
    reached = ("cli.main", "cli.render", "model.parse_model", "model.load_model",
               "model.load_measure", "space.metric_init", "space.distance_grid",
               "pseudogroup.word_closure", "pseudogroup.constraint_table",
               "pseudogroup.build", "pseudogroup.germ_relation",
               "dynamics.dyn_ball", "dynamics.bowen_ball", "dynamics.separated_count",
               "dynamics.h_top_table", "measure.local_entropy",
               "measure.is_homogeneous", "measure.expansiveness_verdict",
               "measure.is_ergodic", "measure.is_invariant_measure",
               "equicont.modulus_at", "equicont.equicontinuity_modulus",
               "equicont.no_expansive_certificate_group",
               "shift.measure_entropy_shift", "shift.dyn_ball_cylinder",
               "shift.bowen_ball_shift", "shift.htop_shift")

    def pass_ops(self, seconds: float) -> int:
        # whole cycles of the schedule and of every request pool
        return pass_ops(self, seconds, len(gen.ONESHOT_SCHEDULE) * gen.DESK_MODELS)

    def __init__(self, pd, seed, workdir):
        self.pd = pd
        self.seed = seed
        self.workdir = workdir
        self._oracles = {}

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        desk = gen.desk_models(self.seed)
        medium = gen.medium_models(self.seed)
        self.models = {m["name"]: m for m in desk + medium}
        paths = {}
        for m in self.models.values():
            paths[m["name"]] = os.path.join(self.workdir, m["name"] + ".json")
            with open(paths[m["name"]], "w", encoding="utf-8") as fh:
                json.dump(m["doc"], fh)
            upath = os.path.join(self.workdir, f"uniform{m['n']}.json")
            if not os.path.exists(upath):
                with open(upath, "w", encoding="utf-8") as fh:
                    json.dump(gen.uniform_measure_doc(m["n"]), fh)
            m["uniform"] = upath
        self.pools = gen.oneshot_pools(self.seed, desk, medium)
        self.argv = {}
        for slot, pool in self.pools.items():
            for j, (name, argv) in enumerate(pool):
                subst = {"model": paths.get(name, ""),
                         "uniform": self.models[name]["uniform"] if name else ""}
                self.argv[(slot, j)] = ["--format", "json"] + [
                    a.format(**subst) for a in argv]

    def key(self, k: int):
        schedule = gen.ONESHOT_SCHEDULE
        slot = schedule[k % len(schedule)]
        return slot, (k // len(schedule)) % len(self.pools[slot])

    def prepare(self, k: int):
        argv = self.argv[self.key(k)]
        main = self.pd.cli.main

        def request():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
            return code, out.getvalue()
        return request

    def _oracle(self, name):
        if name not in self._oracles:
            m = self.models[name]
            model = self.pd.model.parse_model(json.dumps(m["doc"]))
            uniform = self.pd.measure.FiniteMeasure.uniform(model.space)
            self._oracles[name] = (oracle.ModelOracle(self.pd, model, m["doc"]), uniform)
        return self._oracles[name]

    def token(self, result):
        # the result payload as compact text: small to keep, and equal for
        # equal answers (the manifest, with its wall time, is dropped)
        code, text = result
        if not text:
            return code, None
        return code, json.dumps(json.loads(text)["result"], sort_keys=True)

    def check(self, key, token):
        code, payload = token
        if payload is None:
            return f"exit {code} without output"
        payload = json.loads(payload)
        name, argv = self.pools[key[0]][key[1]]
        o, uniform = self._oracle(name) if name else (None, None)
        return oracle.check_cli(argv, code, payload, o, uniform)

    def inputs(self, k):
        key = self.key(k)
        name, argv = self.pools[key[0]][key[1]]
        return [argv, self.models[name]["doc"] if name else None]

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- session ----------------------------------------------------------------------------


class Session:
    rate = 28.0
    deadline_s = 60.0
    keep_tables = True
    fresh_heap = False
    reached = ("model.parse_model", "space.metric_init", "space.distance_grid",
               "pseudogroup.word_closure", "pseudogroup.constraint_table",
               "pseudogroup.germ_relation", "dynamics.dyn_ball", "dynamics.bowen_ball",
               "dynamics.separated_count", "measure.local_entropy",
               "measure.expansiveness_verdict", "measure.is_ergodic",
               "measure.is_invariant_measure", "measure.is_homogeneous",
               "equicont.modulus_at")

    def pass_ops(self, seconds: float) -> int:
        # every (kind, model, variant) query the same number of times
        return pass_ops(self, seconds, len(gen.SESSION_KINDS) * gen.SESSION_MODELS
                        * gen.SESSION_VARIANTS)

    def __init__(self, pd, seed):
        self.pd = pd
        self.seed = seed

    def setup(self):
        self.models = gen.session_models(self.seed)
        self.pools = gen.session_queries(self.seed, self.models)
        self.loaded = {}
        for m in self.models:
            model = self.pd.model.parse_model(json.dumps(m["doc"]))
            uniform = self.pd.measure.FiniteMeasure.uniform(model.space)
            self.loaded[m["name"]] = (model, uniform)
        self._oracles = {}
        for m in self.models:
            for kind in gen.SESSION_KINDS:
                self._query(kind, m["name"], self.pools[(kind, m["name"])][0])

    def key(self, k: int):
        kinds = gen.SESSION_KINDS
        kind = kinds[k % len(kinds)]
        name = self.models[(k // len(kinds)) % len(self.models)]["name"]
        variant = (k // (len(kinds) * len(self.models))) % gen.SESSION_VARIANTS
        return kind, name, variant

    def _query(self, kind, name, p):
        pd = self.pd
        model, uniform = self.loaded[name]
        sysm, mu = model.system, model.measure
        x, n, eps = p["x"], p["n"], p["eps"]
        if kind == "dyn_ball":
            return pd.dynamics.dyn_ball(sysm, x, n, eps, closed=p["closed"])
        if kind == "bowen_ball":
            return pd.dynamics.bowen_ball(sysm, x, eps)
        if kind == "local_entropy":
            return pd.measure.local_entropy(mu, sysm, x, eps_grid=[eps], n_max=n)
        if kind == "expansiveness_verdict":
            return pd.measure.expansiveness_verdict(mu, sysm, eps)
        if kind == "separated_count":
            return pd.dynamics.separated_count(sysm, n, eps, mode="greedy")
        if kind == "is_ergodic":
            return pd.measure.is_ergodic(uniform, sysm)
        if kind == "is_homogeneous":
            return pd.measure.is_homogeneous(mu, sysm, eps_grid=[eps], n_max=n)
        if kind == "modulus_at":
            return pd.equicont.modulus_at(sysm.word_closure().stabilized_maps,
                                          sysm.space, eps)
        raise ValueError(kind)

    def prepare(self, k: int):
        kind, name, variant = self.key(k)
        p = self.pools[(kind, name)][variant]
        return lambda: self._query(kind, name, p)

    def token(self, rep):
        return rep

    def check(self, key, rep):
        kind, name, variant = key
        p = self.pools[(kind, name)][variant]
        model, uniform = self.loaded[name]
        if name not in self._oracles:
            # shares the session's model: the formula route and the
            # exhaustive oracles touch no cache the timed queries read
            doc = next(m["doc"] for m in self.models if m["name"] == name)
            self._oracles[name] = oracle.ModelOracle(self.pd, model, doc)
        o = self._oracles[name]
        if o.problem:
            return o.problem
        x, n, eps = p["x"], p["n"], p["eps"]
        if kind == "dyn_ball":
            ok = rep.members == o.ball(x, n, eps, p["closed"])
            return None if ok else "dyn_ball members"
        if kind == "bowen_ball":
            ok = rep.members == o.ball(x, oracle.BIG_N, eps, True)
            return None if ok else "bowen_ball members"
        if kind == "local_entropy":
            return oracle.entropy_problem(
                o, x, [eps], n, [(c.eps, c.n, c.ball_measure) for c in rep.cells])
        if kind == "expansiveness_verdict":
            want = o.expansive_measures(eps)
            got = {o.idx(label): m for label, m in rep.ball_measures.items()}
            if got != want:
                return "expansiveness ball measures"
            ok = rep.classification == o.classification(want)
            return None if ok else "expansiveness classification"
        if kind == "separated_count":
            return oracle.separated_problem(o, n, eps, rep.lower, rep.upper,
                                            rep.witness)
        if kind == "is_ergodic":
            comps = o.components()
            if set(rep.components) != comps:
                return "ergodic components"
            return None if rep.ok == (len(comps) == 1) else "ergodic verdict"
        if kind == "is_homogeneous":
            witnesses = {e: (w.delta, w.c_exact, w.c_ladder)
                         for e, w in rep.witnesses.items()}
            if rep.ok != (eps in witnesses):
                return "homogeneity verdict"
            return o.homogeneity_problem([eps], n, witnesses)
        if kind == "modulus_at":
            delta = None if self.pd.rational.is_unbounded(rep) else rep
            return oracle.audit_problem(o, {eps: delta})
        return f"unchecked query {kind}"

    def inputs(self, k):
        kind, name, variant = self.key(k)
        p = self.pools[(kind, name)][variant]
        doc = next(m["doc"] for m in self.models if m["name"] == name)
        return [kind, doc, {k2: str(v) for k2, v in p.items()}]

    def teardown(self):
        pass


def pass_ops(wl, seconds: float, cycle: int) -> int:
    """Ops in one pass: a fixed amount of work for a given ``--seconds``
    (about that long on the reference machine), whole schedule cycles,
    and never fewer than MIN_OPS."""
    n = round(seconds * wl.rate / cycle) * cycle
    return max(n, -(-MIN_OPS // cycle) * cycle)


def make(pd, workload: str, seed, workdir: str):
    if workload == "verify":
        return Verify(pd, seed)
    if workload == "oneshot":
        return Oneshot(pd, seed, os.path.join(workdir, f"oneshot-{os.getpid()}"))
    if workload == "session":
        return Session(pd, seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify", "oneshot", "session")
