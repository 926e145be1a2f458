"""Correctness checks of every op against an independent route.

Balls and Bowen balls are recomputed through the set-algebra formula
(``dynamics.dyn_ball_via_formula``) over the library's word closure, after
that closure has been compared level by level with the benchmark's own
enumeration (``gen.closure_levels``); separated counts through the
exhaustive subset oracle or a pairwise check of the witness, ergodic
components through the exhaustive invariant-set oracle (or the benchmark's
own union-find over generator edges above its size limit), entropy,
expansiveness and homogeneity from measures of formula-route balls,
equicontinuity tables through ``EquicontinuityCertificate.audit``, and the
shift through its closed forms.  Each check returns ``None`` when the
answer is right and a short reason otherwise.  The stabilization index a
query reports (``stabilized_at``) is not checked.
"""

from __future__ import annotations

from fractions import Fraction

import gen

BIG_N = 10 ** 9          # any n past stabilization gives the Bowen ball
BRUTE_SEPARATED_MAX = 14
BRUTE_INVARIANT_MAX = 14
LADDER_CAP = Fraction(2) ** 20


def rational(value):
    return None if value == "unbounded" else Fraction(value)


class ModelOracle:
    """Reference answers for one loaded model, memoized per ball.

    The formula route and the audit read the library's word closure, so it
    is first compared, level by level, with the benchmark's own enumeration
    from the model document (``gen.closure_levels``); ``problem`` names a
    mismatch, and every check of the model then fails with it.
    """

    def __init__(self, pd, model, doc, mu=None):
        self.pd = pd
        self.space = model.space
        self.sys = model.system
        self.mu = mu if mu is not None else model.measure
        self.n = self.space.n
        self._balls: dict = {}
        self._closure = self.sys.word_closure()
        self.stable = self._closure.stable_index
        own = gen.closure_levels(gen.doc_maps(doc), self.n)
        lib = [[tuple(-1 if v is None else v for v in g.vals) for g in level]
               for level in self._closure.level_maps]
        same = len(lib) == len(own) and all(
            len(got) == len(want) and set(got) == want for got, want in zip(lib, own))
        self.problem = None if same else (
            f"word closure: levels {[len(x) for x in lib]} != {[len(x) for x in own]}")

    def ball(self, xi: int, n: int, r, closed: bool) -> frozenset:
        key = (xi, min(n, self.stable), r, closed)
        got = self._balls.get(key)
        if got is None:
            got = self.pd.dynamics.dyn_ball_via_formula(
                self.sys, xi, key[1], r, closed=closed, closure=self._closure)
            self._balls[key] = got
        return got

    def mass(self, subset, mu=None) -> Fraction:
        mu = mu or self.mu
        return sum((mu.weights[i] for i in subset), Fraction(0))

    def labels(self, subset) -> set:
        return {self.space.points[i] for i in subset}

    def idx(self, label) -> int:
        return self.space.points.index(label)

    def components(self) -> set:
        """Orbit components: minimal invariant sets from the exhaustive
        oracle on small spaces, union-find over generator edges above it."""
        if self.n <= BRUTE_INVARIANT_MAX:
            sets = self.pd.measure.brute_force_invariant_sets(self.sys)
            comps = set()
            for i in range(self.n):
                comp = frozenset(range(self.n))
                for s in sets:
                    if i in s:
                        comp &= s
                comps.add(comp)
            return comps
        parent = list(range(self.n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for g in self.sys.generators:
            for i, v in enumerate(g.vals):
                if v is not None:
                    parent[find(i)] = find(v)
        groups: dict = {}
        for i in range(self.n):
            groups.setdefault(find(i), set()).add(i)
        return {frozenset(v) for v in groups.values()}

    # -- verdict recomputations --------------------------------------------

    def expansive_measures(self, delta, mu=None) -> dict:
        return {i: self.mass(self.ball(i, BIG_N, delta, True), mu)
                for i in range(self.n)}

    def classification(self, measures: dict, mu=None) -> str:
        zero = {i for i, m in measures.items() if m == 0}
        if len(zero) == self.n:
            return "expansive"
        if self.mass(zero, mu) == 1:
            return "weakly-expansive-only"
        return "neither"

    def homogeneity_problem(self, eps_grid, n_hi, witnesses: dict, mu=None):
        """Re-derive the (delta, c) search from formula-route ball measures:
        each reported witness must be the first feasible candidate with the
        exact constant, and a missing witness must have no feasible one."""
        grid = self.space.distance_grid()
        n_range = range(1, min(n_hi, self.stable) + 1)

        def feasible(eps, delta):
            c_needed = Fraction(0)
            for n in n_range:
                lo = min(self.mass(self.ball(i, n, eps, False), mu)
                         for i in range(self.n))
                hi = max(self.mass(self.ball(i, n, delta, False), mu)
                         for i in range(self.n))
                if lo == 0:
                    if hi == 0:
                        continue
                    return None
                c_needed = max(c_needed, hi / lo)
            return None if c_needed > LADDER_CAP else max(c_needed, Fraction(1))

        for eps in eps_grid:
            wit = witnesses.get(eps)
            for delta in [eps] + [d for d in reversed(grid) if d != eps]:
                c = feasible(eps, delta)
                if c is None:
                    continue
                if wit is None:
                    return f"eps={eps}: delta={delta} is feasible but unreported"
                ladder = Fraction(1)
                while ladder < c:
                    ladder *= 2
                if (wit[0], wit[1], wit[2]) != (delta, c, ladder):
                    return f"eps={eps}: witness {wit} != {(delta, c, ladder)}"
                break
            else:
                if wit is not None:
                    return f"eps={eps}: reported witness but none is feasible"
        return None


# -- oneshot: CLI payloads ------------------------------------------------------------


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_cli(argv, code: int, result, oracle: ModelOracle | None,
              uniform=None):
    """Check one CLI request's exit code and ``result`` payload."""
    cmd = argv[0]
    if cmd == "shift":
        return check_shift(argv[1:], code, result)
    o = oracle
    if o.problem:
        return o.problem
    if cmd == "ball":
        if code != 0:
            return f"exit {code}"
        want = o.ball(o.idx(_arg(argv, "--x")), int(_arg(argv, "--n")),
                      Fraction(_arg(argv, "--eps")), "--closed" in argv)
        return None if set(result["members"]) == o.labels(want) else "ball members"
    if cmd == "bowen":
        if code != 0:
            return f"exit {code}"
        want = o.ball(o.idx(_arg(argv, "--x")), BIG_N,
                      Fraction(_arg(argv, "--delta")), True)
        return None if set(result["members"]) == o.labels(want) else "bowen members"
    if cmd == "htop":
        if code != 0:
            return f"exit {code}"
        eps_grid = [Fraction(v) for v in _arg(argv, "--eps-grid").split(",")]
        n_max = int(_arg(argv, "--n-max"))
        if len(result["rows"]) != len(eps_grid) * n_max:
            return "htop row count"
        for row in result["rows"]:
            why = separated_problem(o, int(row["n"]), Fraction(row["eps"]),
                                    row["count_lower"], row["count_upper"])
            if why:
                return why
        return None
    if cmd == "entropy":
        if code != 0:
            return f"exit {code}"
        xi = o.idx(_arg(argv, "--x"))
        eps_grid = sorted(Fraction(v) for v in _arg(argv, "--eps-grid").split(","))
        return entropy_problem(o, xi, eps_grid, int(_arg(argv, "--n-max")),
                               [(Fraction(c["eps"]), c["n"], Fraction(c["ball_measure"]))
                                for c in result["cells"]])
    if cmd == "check":
        what = _arg(argv, "--what")
        if what == "expansive":
            delta = Fraction(_arg(argv, "--delta"))
            want = o.expansive_measures(delta)
            got = {o.idx(k): Fraction(v) for k, v in result["ball_measures"].items()}
            if got != want:
                return "expansive ball measures"
            cls = o.classification(want)
            if result["classification"] != cls:
                return "expansive classification"
            if code != (0 if cls != "neither" else 1):
                return f"exit {code}"
            return None
        if what == "homogeneous":
            if code != (0 if result["ok"] else 1):
                return f"exit {code}"
            witnesses = {Fraction(e): (Fraction(w["delta"]), Fraction(w["c_exact"]),
                                       Fraction(w["c_ladder"]))
                         for e, w in result["witnesses"].items()}
            grid = o.space.distance_grid()
            if result["ok"] != (len(witnesses) == len(grid)):
                return "homogeneity verdict"
            return o.homogeneity_problem(grid, o.stable, witnesses)
        if what == "ergodic":
            comps = {frozenset(o.idx(p) for p in c) for c in result["components"]}
            if comps != o.components():
                return "ergodic components"
            ok = all(not 0 < o.mass(c, uniform) < 1 for c in comps)
            if result["ok"] != ok or code != (0 if ok else 1):
                return "ergodic verdict"
            return None
    if cmd == "equicont":
        if code != 0 or not result["audit_ok"]:
            return f"exit {code} audit {result.get('audit_ok')}"
        table = {Fraction(r["eps"]): rational(r["delta"]) for r in result["rows"]}
        if set(table) != set(o.space.distance_grid()):
            return "equicont grid"
        why = audit_problem(o, table)
        if why or "--rho" not in argv:
            return why
        cert = result["group_certificate"]
        if not cert["inclusion_ok"]:
            return "group inclusion"
        rho = Fraction(_arg(argv, "--rho"))
        delta = rational(cert["delta"])
        radius = o.space.diameter() if delta is None else delta
        for i in range(o.n):
            if not o.space.ball_ix(i, radius) <= o.ball(i, BIG_N, rho, True):
                return "group inclusion recomputed"
        return None
    return f"unchecked request {argv[:1]}"


def separated_problem(o: ModelOracle, n: int, eps, lower: int, upper: int,
                      witness=None):
    if not 1 <= lower <= upper <= o.n:
        return f"separated bounds {lower}..{upper}"
    if o.n <= BRUTE_SEPARATED_MAX:
        best = o.pd.dynamics.brute_force_separated(o.sys, n, eps)
        return None if lower == upper == best else f"separated {lower} != {best}"
    if witness is None:
        witness = o.pd.dynamics.separated_count(o.sys, n, eps, mode="greedy").witness
    if len(witness) != lower:
        return "separated witness size"
    for i in witness:
        if o.ball(i, n, eps, False) & witness != {i}:
            return "separated witness not separated"
    return None


def entropy_problem(o: ModelOracle, xi: int, eps_grid, n_max: int, cells, mu=None):
    want = [(eps, n, o.mass(o.ball(xi, n, eps, False), mu))
            for eps in eps_grid for n in range(1, n_max + 1)]
    return None if list(cells) == want else "entropy ball measures"


def audit_problem(o: ModelOracle, table: dict):
    cert = o.pd.equicont.EquicontinuityCertificate(
        scope="closure",
        table={e: (o.pd.rational.UNBOUNDED if d is None else d)
               for e, d in table.items()},
        witnesses={}, isometric=False)
    maps = o._closure.stabilized_maps
    return None if cert.audit(maps, o.space) else "equicontinuity audit"


# -- shift closed forms -------------------------------------------------------------------


def _paper_radius(eps) -> int:
    m = 0
    while Fraction(1, 2 ** m) >= eps:
        m += 1
    return m


def _tail(eps, strict: bool):
    if (eps >= 1) if strict else (eps > 1):
        return None
    m = 0
    while (Fraction(1, 2 ** (m + 1)) > eps) if strict else (Fraction(1, 2 ** (m + 1)) >= eps):
        m += 1
    return m


def check_shift(argv, code: int, result):
    kind = argv[0]
    half = Fraction(1, 2)
    if kind == "entropy":
        eps, n = Fraction(_arg(argv, "--eps")), int(_arg(argv, "--n"))
        s = _paper_radius(eps)
        ok = (code == 0 and Fraction(result["ball_measure"]) == half ** (2 * (n + s) + 1)
              and Fraction(result["log2_multiple"]) == Fraction(2 * (n + s) + 1, n))
        return None if ok else "shift entropy closed form"
    if kind == "ball":
        eps, n = Fraction(_arg(argv, "--eps")), int(_arg(argv, "--n"))
        r = n + _paper_radius(eps)
        ok = (code == 0 and result["cylinder"]["interval"] == [-r, r]
              and Fraction(result["measure"]) == half ** (2 * r + 1))
        return None if ok else "shift ball closed form"
    if kind == "bowen":
        delta = Fraction(_arg(argv, "--delta"))
        t = _tail(delta, strict=True)
        if t is None:
            ok = code == 1 and result["singleton"] is False
        else:
            want = [{"n": n, "bound": str(half ** (2 * (n + t) + 1))}
                    for n in range(1, 9)]
            ok = (code == 0 and result["singleton"] is True
                  and result["measure_zero"] is True
                  and result["measure_bounds"] == want)
        return None if ok else "shift bowen closed form"
    if kind == "htop":
        eps, n = Fraction(_arg(argv, "--eps")), int(_arg(argv, "--n"))
        u = _tail(eps, strict=False)
        lower = 1 if u is None else 2 ** (2 * (n + u) + 1)
        m = 0
        while not Fraction(2, 2 ** m) < eps:
            m += 1
        ok = (code == 0 and result["count_lower"] == lower
              and result["count_upper"] == 2 ** (2 * (n + m) + 1))
        return None if ok else "shift htop closed form"
    return f"unchecked shift request {kind}"
