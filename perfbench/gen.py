"""Seeded input generation for the benchmark.

Everything here is the benchmark's own code: model documents, request
lists and query lists are pure functions of the seed, built with
``random.Random`` and plain tuples, so a change to the library cannot
change what the oneshot and session workloads feed it.  (The verify
workload runs the library's own InstanceSpec stream.)  ``digest``
fingerprints the generated inputs of every workload so that two runs can
be shown to have used identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction


def rng_for(seed, *tags) -> random.Random:
    return random.Random(":".join(["perfbench", str(seed)] + [str(t) for t in tags]))


def shortest_path_metric(rng: random.Random, n: int, max_distance: int) -> list:
    """Random shortest-path metric over integer edge weights."""
    d = [[0 if i == j else rng.randint(1, max_distance) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[j][i] = d[i][j]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di = d[i]
            dik = di[k]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def partial_injection(rng: random.Random, n: int, density) -> tuple:
    """Random injective partial map as a value tuple (-1 = undefined)."""
    size = max(1, min(n, round(rng.uniform(*density) * n)))
    dom = rng.sample(range(n), size)
    targets = rng.sample(range(n), size)
    vals = [-1] * n
    for a, b in zip(dom, targets):
        vals[a] = b
    return tuple(vals)


def permutation(rng: random.Random, n: int) -> tuple:
    vals = list(range(n))
    rng.shuffle(vals)
    return tuple(vals)


def closure_levels(gens, n: int, cap=None):
    """The word closure of ``gens`` plus the identity and inverses, level by
    level: ``levels[k]`` is the set of maps of words of length at most
    ``k + 1``, up to the first length that adds nothing.  Maps are value
    tuples with -1 outside the domain.  None once a level exceeds ``cap``.

    The benchmark's own enumeration, independent of the library's closure:
    it keeps generated models inside a known size class and is the
    reference the library's closure is checked against.
    """
    level1 = {tuple(range(n))}
    for g in gens:
        inv = [-1] * n
        for i, v in enumerate(g):
            if v >= 0:
                inv[v] = i
        level1.add(tuple(g))
        level1.add(tuple(inv))
    levels = [level1]
    frontier = level1
    while True:
        seen = levels[-1]
        new = set()
        for b in frontier:
            for a in level1:
                c = tuple(a[v] if v >= 0 else -1 for v in b)
                if c not in seen:
                    new.add(c)
        if not new:
            return levels
        levels.append(seen | new)
        if cap is not None and len(levels[-1]) > cap:
            return None
        frontier = new


def closure_size(gens, n: int, cap: int):
    """Number of distinct maps in the closure, or None once it exceeds ``cap``."""
    levels = closure_levels(gens, n, cap)
    return None if levels is None else len(levels[-1])


def doc_maps(doc) -> list:
    """The generators of a model document as value tuples (-1 outside the
    domain), read from the document without the library."""
    index = {label: i for i, label in enumerate(doc["points"])}
    maps = []
    for g in doc.get("generators", []):
        vals = [-1] * len(index)
        for a, b in g["map"].items():
            vals[index[a]] = index[b]
        maps.append(tuple(vals))
    return maps


def model_doc(dist, gens, weights=None) -> dict:
    n = len(dist)
    labels = [f"p{i}" for i in range(n)]
    doc = {
        "points": labels,
        "dist": dist,
        "generators": [
            {"name": f"g{k}",
             "map": {labels[i]: labels[v] for i, v in enumerate(g) if v >= 0}}
            for k, g in enumerate(gens)
        ],
    }
    if weights is not None:
        total = sum(weights)
        doc["mu"] = {labels[i]: str(Fraction(w, total))
                     for i, w in enumerate(weights)}
    return doc


def uniform_measure_doc(n: int) -> dict:
    return {"mu": {f"p{i}": f"1/{n}" for i in range(n)}}


def _canonical(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=str)
    return str(obj)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_canonical)
    return hashlib.sha256(text.encode()).hexdigest()


# -- oneshot: model families and the request pool ------------------------------

# Desk models are redrawn while their closure exceeds this many maps: the
# family keeps its heavy tail, but no seed can produce a request that runs
# into the per-op deadline.
DESK_CLOSURE_CAP = 1500
# Single-generator closures grow with the least common multiple of the
# cycle lengths and are heavy-tailed (31 to 1787 maps at |X| = 40), and the
# largest medium model's requests are the stream's slowest.  So medium
# model i is redrawn until its closure falls in band i; the bands run from
# about the 4th to the 9th decile of the family's closure sizes, and the
# heaviest requests then cost about the same on every seed.
MEDIUM_CLOSURE_BANDS = ((40, 80), (80, 120), (120, 170), (170, 240), (240, 340))
DESK_MODELS = 30
MEDIUM_MODELS = len(MEDIUM_CLOSURE_BANDS)
SHIFT_VARIANTS = 6


def desk_models(seed) -> list:
    """|X| 6-10, 1-2 generators, max distance 20.  Model i has |X| = 6 + i % 5
    and kind ``i // 5 % 2`` (partial maps, or one total permutation for the
    group certificate), so every seed gets the same size mix."""
    models = []
    attempt = 0
    for i in range(DESK_MODELS):
        n = 6 + i % 5
        group = (i // 5) % 2 == 1
        while True:
            rng = rng_for(seed, "desk", i, attempt)
            attempt += 1
            if group:
                gens = [permutation(rng, n)]
            else:
                gens = [partial_injection(rng, n, (0.3, 0.9))
                        for _ in range(rng.randint(1, 2))]
            if closure_size(gens, n, DESK_CLOSURE_CAP) is not None:
                break
        dist = shortest_path_metric(rng, n, 20)
        weights = [rng.randint(1, 9) for _ in range(n)]
        models.append({"name": f"desk{i}", "n": n, "group": group,
                       "doc": model_doc(dist, gens, weights)})
    return models


def single_generator(seed, tag, n: int, band):
    """A random partial injection whose closure size lies in ``band``,
    with the generator it was drawn with."""
    attempt = 0
    while True:
        rng = rng_for(seed, tag, attempt)
        attempt += 1
        g = partial_injection(rng, n, (0.3, 0.9))
        size = closure_size([g], n, band[1])
        if size is not None and size >= band[0]:
            return rng, [g]


def medium_models(seed) -> list:
    """|X| 24-40, one partial generator: metric validation dominates."""
    models = []
    for i, band in enumerate(MEDIUM_CLOSURE_BANDS):
        n = 24 + (16 * i) // max(1, MEDIUM_MODELS - 1)
        rng, gens = single_generator(seed, f"medium{i}", n, band)
        dist = shortest_path_metric(rng, n, 20)
        weights = [rng.randint(1, 9) for _ in range(n)]
        models.append({"name": f"medium{i}", "n": n, "group": False,
                       "doc": model_doc(dist, gens, weights)})
    return models


def _grid(dist) -> list:
    return sorted({v for row in dist for v in row} - {0})


def _pick_point(rng, m) -> str:
    return f"p{rng.randrange(m['n'])}"


def _pick_radius(rng, grid) -> str:
    """A grid value or a midpoint between two, as an exact 'p/q' string."""
    k = rng.randrange(len(grid))
    if rng.random() < 0.5 or k + 1 == len(grid):
        return str(grid[k])
    return str(Fraction(grid[k] + grid[k + 1], 2))


def finite_requests(m, kind: str, rng) -> list:
    """CLI argv (after --format json) for one request on model ``m``.
    The model path is filled in by the workload as ``{model}`` and the
    uniform measure as ``{uniform}``."""
    grid = _grid(m["doc"]["dist"])
    x = _pick_point(rng, m)
    if kind == "ball":
        argv = ["ball", "--model", "{model}", "--x", x, "--n",
                str(rng.randint(1, 4)), "--eps", _pick_radius(rng, grid)]
        if rng.random() < 0.5:
            argv.append("--closed")
        return argv
    if kind == "bowen":
        return ["bowen", "--model", "{model}", "--x", x,
                "--delta", _pick_radius(rng, grid)]
    if kind == "htop":
        eps = sorted({_pick_radius(rng, grid) for _ in range(2)}, key=Fraction)
        return ["htop", "--model", "{model}", "--eps-grid", ",".join(eps),
                "--n-max", "3"]
    if kind == "entropy":
        eps = sorted({_pick_radius(rng, grid) for _ in range(2)}, key=Fraction)
        return ["entropy", "--model", "{model}", "--x", x,
                "--eps-grid", ",".join(eps), "--n-max", "4"]
    if kind == "expansive":
        return ["check", "--model", "{model}", "--what", "expansive",
                "--delta", _pick_radius(rng, grid)]
    if kind == "homogeneous":
        return ["check", "--model", "{model}", "--what", "homogeneous"]
    if kind == "ergodic":
        return ["check", "--model", "{model}", "--measure", "{uniform}",
                "--what", "ergodic"]
    if kind == "equicont":
        argv = ["equicont", "--model", "{model}"]
        if m["group"]:
            argv += ["--rho", _pick_radius(rng, grid)]
        return argv
    raise ValueError(kind)


def shift_request(kind: str, rng) -> list:
    eps = str(Fraction(rng.randint(1, 40), rng.choice([8, 16, 32])))
    n = str(rng.randint(1, 24))
    block = "".join(rng.choice("01") for _ in range(rng.choice([1, 3, 5, 7])))
    center = str(rng.randint(-3, 3))
    if kind == "entropy":
        return ["shift", "entropy", "--eps", eps, "--n", n]
    if kind == "ball":
        return ["shift", "ball", "--x", block, "--center", center,
                "--n", n, "--eps", eps]
    if kind == "bowen":
        return ["shift", "bowen", "--x", block, "--center", center,
                "--delta", eps]
    if kind == "htop":
        return ["shift", "htop", "--eps", eps, "--n", n]
    raise ValueError(kind)


# Slot order of one cycle of the oneshot stream: every window of the stream
# sees the same family and request mix, whatever the seed.
DESK_KINDS = ("ball", "bowen", "htop", "entropy", "expansive", "homogeneous",
              "ergodic", "equicont")
MEDIUM_KINDS = ("ball", "bowen", "htop", "expansive", "ergodic")
SHIFT_KINDS = ("entropy", "ball", "bowen", "htop")
ONESHOT_SCHEDULE = ([("desk", k) for k in DESK_KINDS]
                    + [("medium", k) for k in MEDIUM_KINDS]
                    + [("shift", k) for k in SHIFT_KINDS])


def oneshot_pools(seed, desk: list, medium: list) -> dict:
    """For each schedule slot, the seeded list of distinct requests it
    cycles through: (model name or None, argv)."""
    pools = {}
    for family, kind in ONESHOT_SCHEDULE:
        rng = rng_for(seed, "requests", family, kind)
        if family == "shift":
            pools[(family, kind)] = [(None, shift_request(kind, rng))
                                     for _ in range(SHIFT_VARIANTS)]
            continue
        models = desk if family == "desk" else medium
        pools[(family, kind)] = [(m["name"], finite_requests(m, kind, rng))
                                 for m in models]
    return pools


# -- session: models and the query pool --------------------------------------------

# (|X|, cycle lengths, chain lengths) of the session's random generators.
# The closure of a partial injection depends only on this type (297 and
# 662 maps here), so fixing it keeps query costs comparable across seeds;
# the seed places the points and draws the metric and the measure.
SESSION_TYPES = ((56, (3, 4), (9, 8, 7, 6, 5)),
                 (96, (4, 6), (12, 10, 8, 7, 6, 5, 4)))
SESSION_MODELS = len(SESSION_TYPES) + 1     # and the dihedral group
SESSION_KINDS = ("dyn_ball", "bowen_ball", "local_entropy",
                 "expansiveness_verdict", "separated_count", "is_ergodic",
                 "is_homogeneous", "modulus_at")
SESSION_VARIANTS = 6


def typed_injection(rng: random.Random, n: int, cycles, chains) -> tuple:
    """Partial injection with the given cycles and chains on random points;
    the remaining points are outside its domain and range."""
    points = list(range(n))
    rng.shuffle(points)
    vals = [-1] * n
    i = 0
    for length in cycles:
        block = points[i:i + length]
        i += length
        for a, b in zip(block, block[1:] + block[:1]):
            vals[a] = b
    for length in chains:
        block = points[i:i + length]
        i += length
        for a, b in zip(block, block[1:]):
            vals[a] = b
    return tuple(vals)


def session_models(seed) -> list:
    """Random single-generator models at |X| 56 and 96, plus the dihedral
    group on the cycle C64, whose distance grid has 32 values."""
    models = []
    for i, (n, cycles, chains) in enumerate(SESSION_TYPES):
        rng = rng_for(seed, "session", i)
        gens = [typed_injection(rng, n, cycles, chains)]
        dist = shortest_path_metric(rng, n, 20)
        weights = [rng.randint(1, 9) for _ in range(n)]
        models.append({"name": f"random{i}", "n": n, "group": False,
                       "doc": model_doc(dist, gens, weights)})
    n = 64
    dist = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((-i) % n for i in range(n))
    models.append({"name": "dihedral64", "n": n, "group": True,
                   "doc": model_doc(dist, [rotation, reflection], [1] * n)})
    return models


def session_queries(seed, models: list) -> dict:
    """For each (kind, model), the seeded list of distinct query parameters."""
    pools = {}
    for kind in SESSION_KINDS:
        for m in models:
            rng = rng_for(seed, "queries", kind, m["name"])
            grid = _grid(m["doc"]["dist"])
            pool = []
            for v in range(SESSION_VARIANTS):
                # radii spread evenly over the grid, alternating grid values
                # and midpoints, so every seed covers the same grid ranks
                k = v * len(grid) // SESSION_VARIANTS
                eps = (grid[k] if v % 2 == 0 or k + 1 == len(grid)
                       else Fraction(grid[k] + grid[k + 1], 2))
                pool.append({
                    "x": rng.randrange(m["n"]),
                    "n": rng.randint(1, 6),
                    "eps": Fraction(eps),
                    "closed": rng.random() < 0.5,
                })
            pools[(kind, m["name"])] = pool
    return pools
