"""A pinned CLI corpus: every command and option combination, run in
process on models built here from fixed seeds, in ``json``, ``csv`` and
``table``.

Each request's exit code, standard output and standard error (the model
directory and ``wall_ms`` scrubbed) feed one sha1 per command, so a
payload or message that moves names its command.  A change that alters a
payload on purpose edits only the pins of the commands it moves and says
why in CHANGES.md; a pin is never regenerated wholesale.  Every csv
output that is printed must also read back through ``csv.reader``.
"""

import csv
import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from pseudodyn.cli import main

FORMATS = ("json", "csv", "table")


def _rng(*tags) -> random.Random:
    return random.Random(":".join(["corpus", *map(str, tags)]))


def _path_metric(rng, n, top):
    """A random shortest-path metric over integer edge weights."""
    d = [[0 if i == j else rng.randint(1, top) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[j][i] = d[i][j]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def _injection(rng, n, low, high):
    """A random partial injection as (domain index, image index) pairs."""
    size = max(1, round(rng.uniform(low, high) * n))
    return list(zip(rng.sample(range(n), size), rng.sample(range(n), size)))


def _doc(labels, dist, gens, weights=None, cores=None, phi=False):
    doc = {"points": labels, "dist": dist, "generators": []}
    for k, pairs in enumerate(gens):
        fragment = {"name": f"g{k}",
                    "map": {labels[a]: labels[b] for a, b in pairs}}
        if cores is not None:
            fragment["core"] = [labels[a] for a in cores[k]]
        doc["generators"].append(fragment)
    if weights is not None:
        total = sum(weights)
        doc["mu"] = {p: str(Fraction(w, total)) for p, w in zip(labels, weights)}
    if phi:
        doc["phi"] = {p: f"q{i}" for i, p in enumerate(reversed(labels))}
    return doc


def _desk(k):
    """|X| 5-8, one or two partial injections, integer distances."""
    rng = _rng("desk", k)
    n = 5 + k % 4
    labels = [f"p{i}" for i in range(n)]
    gens = [_injection(rng, n, 0.3, 0.8) for _ in range(1 + k % 2)]
    weights = [rng.randint(1, 9) for _ in range(n)]
    return _doc(labels, _path_metric(rng, n, 12), gens, weights,
                phi=k % 2 == 0)


def _cored(k):
    """A desk model whose generators each keep a random core."""
    rng = _rng("cored", k)
    n = 6 + k
    labels = [f"c{i}" for i in range(n)]
    gens = [_injection(rng, n, 0.4, 0.9) for _ in range(2)]
    cores = [[a for a, _ in pairs if rng.random() < 0.6] for pairs in gens]
    weights = [rng.randint(1, 5) for _ in range(n)]
    return _doc(labels, _path_metric(rng, n, 9), gens, weights, cores=cores)


def _group(k):
    """Permutation generators, so the group certificate applies: one
    random permutation, or for k = 1 the rotation and the reflection of
    the cycle, which generate a dihedral group."""
    rng = _rng("group", k)
    n = 5 + 2 * k
    labels = [f"t{i}" for i in range(n)]
    if k == 1:
        gens = [[(i, (i + 1) % n) for i in range(n)],
                [(i, -i % n) for i in range(n)]]
    else:
        perm = list(range(n))
        rng.shuffle(perm)
        gens = [list(enumerate(perm))]
    return _doc(labels, _path_metric(rng, n, 7), gens, [1] * n, phi=True)


def _ranked(values):
    """24 points whose pairs i < j take the distances 1 + k/values, k
    cycling from 0: ``values`` + 1 rank values, as 'p/q' strings."""
    n = 24
    dist = [["0"] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = str(1 + Fraction(k % values, values))
            k += 1
    labels = [f"r{i}" for i in range(n)]
    gens = [[(0, 1), (1, 2), (2, 3)], [(5, 9), (9, 5), (7, 11)]]
    return _doc(labels, dist, gens, [1] * n, phi=True)


def _general():
    """Distances and weights on the general parse paths: JSON decimals,
    'p/q' and decimal strings, and integers mixed with them."""
    return {
        "points": ["a", "b", "c", "d"],
        "dist": [[0, "1/2", 1.25, "1.5"],
                 ["1/2", 0, "0.75", 1],
                 [1.25, "0.75", 0, "5/6"],
                 ["1.5", 1, "5/6", 0]],
        "generators": [{"name": "s", "map": {"a": "b", "b": "c"}},
                       {"name": "f", "map": {"a": "d", "d": "a", "c": "c"}}],
        "mu": {"a": 0.25, "b": "0.25", "c": "1/6", "d": "1/3"},
        "phi": {"a": "w", "b": "x", "c": "y", "d": "z"},
        "target": {"points": ["w", "x", "y", "z"],
                   "dist": [[0, 1, "5/2", 3], [1, 0, "3/2", 2],
                            ["5/2", "3/2", 0, "5/3"], [3, 2, "5/3", 0]]},
    }


def _models():
    models = {f"desk{k}": _desk(k) for k in range(6)}
    models.update({f"cored{k}": _cored(k) for k in range(3)})
    models.update({f"group{k}": _group(k) for k in range(3)})
    models["rank256"] = _ranked(255)
    models["rank276"] = _ranked(275)
    models["general"] = _general()
    # no measure and no iso: the commands that need one refuse
    bare = dict(_desk(1))
    del bare["mu"]
    models["bare"] = bare
    return models


def _grid(doc):
    return sorted({Fraction(v) for row in doc["dist"] for v in row} - {0})


def _radius(rng, grid):
    k = rng.randrange(len(grid))
    if rng.random() < 0.5 or k + 1 == len(grid):
        return str(grid[k])
    return str((grid[k] + grid[k + 1]) / 2)


def _model_requests(name, doc):
    """The argv of every command on one model (``{dir}`` is the model
    directory)."""
    rng = _rng("requests", name)
    model = f"{{dir}}/{name}.json"
    grid = _grid(doc)
    points = doc["points"]
    small = len(points) <= 20
    out = []
    for _ in range(2 if small else 1):
        x = rng.choice(points)
        for n in ("1", "3"):
            out.append(["ball", "--model", model, "--x", x, "--n", n,
                        "--eps", _radius(rng, grid)])
        out.append(["ball", "--model", model, "--x", x, "--n", "2",
                    "--eps", _radius(rng, grid), "--closed"])
        out.append(["bowen", "--model", model, "--x", x,
                    "--delta", _radius(rng, grid)])
    scales = sorted({Fraction(_radius(rng, grid)) for _ in range(3)})
    sorted_grid = ",".join(map(str, scales))
    out += [["htop", "--model", model],
            ["htop", "--model", model, "--eps-grid", sorted_grid,
             "--n-max", "2"],
            ["htop", "--model", model, "--eps-grid",
             ",".join(map(str, reversed(scales)))],
            ["htop", "--model", model, "--eps-grid",
             f"{scales[0]},{2 * scales[0].numerator}/"
             f"{2 * scales[0].denominator}"]]
    x = rng.choice(points)
    out += [["entropy", "--model", model, "--x", x],
            ["entropy", "--model", model, "--x", x, "--eps-grid",
             sorted_grid, "--n-max", "3"],
            ["entropy", "--model", model, "--x", x,
             "--measure", f"{{dir}}/{name}.uniform.json"]]
    out += [["check", "--model", model, "--what", what]
            for what in ("invariant", "ergodic", "homogeneous")]
    out += [["check", "--model", model, "--what", "expansive", "--delta", d]
            for d in ("0", str(grid[0]), _radius(rng, grid),
                      str(2 * grid[-1]))]
    out += [["check", "--model", model, "--what", "ergodic",
             "--measure", f"{{dir}}/{name}.uniform.json"],
            ["check", "--model", model, "--what", "homogeneous",
             "--delta", "1"],
            ["check", "--model", model, "--what", "expansive"]]
    out += [["conjugate", "--model", model],
            ["equicont", "--model", model],
            ["equicont", "--model", model, "--compacted"],
            ["equicont", "--model", model, "--compacted", "--rho", "1"]]
    if small:
        out.append(["equicont", "--model", model,
                    "--rho", _radius(rng, grid)])
    return out


SHIFT_REQUESTS = [
    ["shift", "htop", "--eps", "1/4", "--n", "3"],
    ["shift", "htop", "--eps", "3", "--n", "5"],
    ["shift", "entropy", "--eps", "1/8", "--n", "2"],
    ["shift", "entropy", "--eps", "5/16", "--n", "4", "--p", "1/3"],
    ["shift", "ball", "--x", "101", "--n", "2", "--eps", "1/4"],
    ["shift", "ball", "--x", "0110", "--center", "-2", "--n", "3",
     "--eps", "3/8", "--p", "2/5"],
    ["shift", "bowen", "--x", "1", "--delta", "1/2"],
    ["shift", "bowen", "--x", "10101", "--center", "1", "--delta", "1/16",
     "--p", "1/4"],
    ["shift", "bowen", "--x", "1", "--delta", "4"],
]

SUITE_REQUESTS = [
    ["probe", "--seeds", "2"],
    ["probe", "--seeds", "3", "--seed", "7",
     "--statements", "germ-equivalence,iso-separated-counts"],
    ["probe", "--seeds", "2", "--survey", "homogeneity"],
    ["probe", "--seeds", "2", "--survey", "homogeneity",
     "--statements", "germ-equivalence"],
    ["verify", "--seeds", "2", "--statements", "inverse-composition"],
    ["verify", "--seeds", "0"],
]


def corpus_requests(models):
    """Every argv of the corpus, without ``--format``."""
    argv = []
    for name, doc in models.items():
        argv += _model_requests(name, doc)
    # iso files onto a scaled target, and onto a relabelled copy
    for name in ("desk1", "desk3", "cored0"):
        argv += [["conjugate", "--model", f"{{dir}}/{name}.json",
                  "--iso", f"{{dir}}/{name}.{kind}.json"]
                 for kind in ("scaled", "relabelled")]
    # unloadable models, measures and isos
    argv += [["ball", "--model", f"{{dir}}/{bad}.json", "--x", "a",
              "--n", "1", "--eps", "1"]
             for bad in ("missing", "asymmetric", "triangle", "notjson",
                         "badweights")]
    argv += [["check", "--model", "{dir}/desk0.json", "--what", "ergodic",
              "--measure", "{dir}/missing.json"],
             ["check", "--model", "{dir}/desk0.json", "--what", "ergodic",
              "--measure", "{dir}/desk1.uniform.json"],
             ["conjugate", "--model", "{dir}/desk0.json",
              "--iso", "{dir}/badphi.json"],
             ["bowen", "--model", "{dir}/desk0.json", "--x", "nowhere",
              "--delta", "1"],
             # a format after the subcommand wins over the one before it
             ["htop", "--model", "{dir}/desk0.json", "--format", "csv"]]
    return argv + SHIFT_REQUESTS + SUITE_REQUESTS


def _write(directory, name, doc):
    (directory / name).write_text(
        doc if isinstance(doc, str) else json.dumps(doc))


def write_corpus(directory, models):
    for name, doc in models.items():
        _write(directory, f"{name}.json", doc)
        points = doc["points"]
        _write(directory, f"{name}.uniform.json",
               {"mu": {p: f"1/{len(points)}" for p in points}})
    for name in ("desk1", "desk3", "cored0"):
        points = models[name]["points"]
        image = [f"z{i}" for i in range(len(points))]
        _rng("iso", name).shuffle(image)
        phi = dict(zip(points, image))
        # target point i is the image of point i, at three times the distance
        _write(directory, f"{name}.scaled.json", {
            "phi": phi,
            "target": {"points": image,
                       "dist": [[str(Fraction(v) * 3) for v in row]
                                for row in models[name]["dist"]]}})
        _write(directory, f"{name}.relabelled.json", {"phi": phi})
    desk0 = models["desk0"]
    _write(directory, "badphi.json",
           {"phi": {p: "same" for p in desk0["points"]}})
    asymmetric = dict(desk0, dist=[row[:] for row in desk0["dist"]])
    asymmetric["dist"][0][1] += 1
    triangle = {"points": ["a", "b", "c"],
                "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}
    _write(directory, "asymmetric.json", asymmetric)
    _write(directory, "triangle.json", triangle)
    _write(directory, "notjson.json", "{not json")
    _write(directory, "badweights.json",
           dict(_general(), mu={"a": "1/2", "b": "1/3"}))


def _run(argv, directory):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = re.sub(r'"wall_ms": \d+', '"wall_ms": null', out.getvalue())
    return [code, text.replace(directory, "{dir}"),
            err.getvalue().replace(directory, "{dir}")]


# the number of argv and one sha1 per command over its requests in every
# format; a change that moves a payload edits only its command's pin
CORPUS_ARGV = 501
CORPUS_PINS = {
    "ball": "d2ead348fdc9b354067f91a5c79a0f99845aff00",
    "bowen": "36ebf7d691a54149a341cfcafc82accfcb17459b",
    "check": "5ef06c8eb6bfa29a1cf46226ae8cb5aa352a3d03",
    "conjugate": "50c9182c34e359272417eecb706d3e37d1928720",
    "entropy": "da8dcbae09f0c19357e9086b658681cc2626e6b6",
    "equicont": "ac17b91c255e445b76d9a8cd2c17a03cc00d2eaf",
    "htop": "c349d931405c5439922cab2bf6452b4342190e82",
    "probe": "7fc7c80f4ebd231b85bd0cc543c963de87148784",
    "shift": "d944cba62d1503bc92e1efc261a02979f0b21aec",
    "verify": "e26cb6de664fb1f232793b2d9a9b0d8a65fa2895",
}


def run_requests(directory, requests):
    """``(argv, [code, stdout, stderr])`` for every request in every
    format, in order; each argv opens with its ``--format``."""
    runs = []
    root = str(directory)
    for argv in requests:
        argv = [a.replace("{dir}", root) for a in argv]
        for fmt in FORMATS:
            full = ["--format", fmt, *argv]
            runs.append((full, _run(full, root)))
    return runs


def digest_runs(runs):
    """The argv count and one sha1 per command over its records."""
    digests = {}
    for argv, record in runs:
        digests.setdefault(argv[2], []).append(record)
    return len(runs) // len(FORMATS), {
        command: hashlib.sha1(json.dumps(records).encode()).hexdigest()
        for command, records in digests.items()}


@pytest.fixture(scope="module")
def corpus_runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    models = _models()
    write_corpus(directory, models)
    return run_requests(directory, corpus_requests(models))


@pytest.fixture(scope="module")
def corpus_digests(corpus_runs):
    return digest_runs(corpus_runs)


def test_corpus_covers_every_command(corpus_digests):
    count, digests = corpus_digests
    assert count == CORPUS_ARGV
    assert sorted(digests) == sorted(CORPUS_PINS)


@pytest.mark.parametrize("command", sorted(CORPUS_PINS))
def test_corpus_is_pinned(command, corpus_digests):
    assert corpus_digests[1][command] == CORPUS_PINS[command]


def _edge_models():
    """The sizes the corpus above lacks: one point, where the auto grid is
    empty, and 256 points, one past the byte keys, where closure maps are
    keyed by their value tuples."""
    one = {"points": ["a"], "dist": [[0]], "generators": [],
           "mu": {"a": 1}, "phi": {"a": "b"}}
    n = 256
    labels = [f"v{i}" for i in range(n)]
    dist = [[min(abs(i - j), 3) for j in range(n)] for i in range(n)]
    # 0 -> 2 -> 10 and 1 -> 3 -> 20: only the square of the map pushes the
    # neighbours 0 and 1 three apart, so the 2-ball around v0 reads level 2
    gens = [[(0, 2), (1, 3), (2, 10), (3, 20)]]
    return {"one": one,
            "line256": _doc(labels, dist, gens, [1] * n, cores=[[0, 1, 2]],
                            phi=True)}


def edge_requests():
    """Every command once on each edge model."""
    out = []
    for name, x, eps in (("one", "a", "1"), ("line256", "v0", "2")):
        model = f"{{dir}}/{name}.json"
        out += [["ball", "--model", model, "--x", x, "--n", "2",
                 "--eps", eps],
                ["bowen", "--model", model, "--x", x, "--delta", eps],
                ["htop", "--model", model],
                ["entropy", "--model", model, "--x", x],
                *(["check", "--model", model, "--what", what]
                  for what in ("invariant", "ergodic", "homogeneous")),
                ["check", "--model", model, "--what", "expansive",
                 "--delta", eps],
                ["conjugate", "--model", model],
                ["equicont", "--model", model],
                ["equicont", "--model", model, "--compacted"]]
    return out


# a second pinned set, kept apart so that the pins above keep their inputs
EDGE_ARGV = 22
EDGE_PINS = {
    "ball": "5b5720b0763b874de23bb20d4a203343f69f1055",
    "bowen": "015f1a57105f1171e2a6dde3ff59e2d7c63850aa",
    "check": "b2f556b16266e396dad9e9165c9029de18449c0d",
    "conjugate": "f0622c62e00271b3542be7848e8d737425dd1160",
    "entropy": "695be6dc634cceb8babad3774f0d23c7ec557b8d",
    "equicont": "f6ee3b9e9bbae8b652ea49acef919da09b05b677",
    "htop": "8038674215e0722b845f80e486f0b49495c5738b",
}


def write_edges(directory):
    for name, doc in _edge_models().items():
        _write(directory, f"{name}.json", doc)


@pytest.fixture(scope="module")
def edge_runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("edge")
    write_edges(directory)
    return run_requests(directory, edge_requests())


@pytest.fixture(scope="module")
def edge_digests(edge_runs):
    return digest_runs(edge_runs)


def test_edge_corpus_covers_every_model_command(edge_runs, edge_digests):
    """Every command on both edge models, and every csv output that is
    printed reads back through ``csv.reader``."""
    count, digests = edge_digests
    assert count == EDGE_ARGV
    assert sorted(digests) == sorted(EDGE_PINS)
    for argv, (code, out, _) in edge_runs:
        if argv[1] == "csv" and code != 2:
            assert csv_faults(out) == [], argv


@pytest.mark.parametrize("command", sorted(EDGE_PINS))
def test_edge_corpus_is_pinned(command, edge_digests):
    assert edge_digests[1][command] == EDGE_PINS[command]


def csv_faults(text: str) -> list[str]:
    """What ``csv.reader`` reads wrongly in one csv output: a ``path,value``
    record without 2 fields, a row of a table without its header's field
    count, or a list or dict field (or ``;``-separated item) that is not
    compact JSON, such as a Python repr.  A record is a header when the
    record after it opens with an empty field, as every row does."""
    records = list(csv.reader(io.StringIO(text)))
    faults = []
    header = None
    for k, record in enumerate(records):
        if record[:1] == [""]:
            if header is None or len(record) != len(header):
                faults.append(f"row {record} under header {header}")
        elif k + 1 < len(records) and records[k + 1][:1] == [""]:
            header = record
        elif len(record) != 2:
            faults.append(f"record {record} has {len(record)} fields")
        for field in record:
            for item in field.split(";"):
                if item[:1] in ("[", "{") and not _is_compact_json(item):
                    faults.append(f"field item {item!r} is not compact JSON")
    return faults


def _is_compact_json(text: str) -> bool:
    try:
        return json.dumps(json.loads(text), separators=(",", ":")) == text
    except ValueError:
        return False


def test_csv_faults_are_found():
    assert csv_faults("a,1\nrows,x,y\n,1,2\nb,\"u,v\"") == []
    assert csv_faults("note,a, b\nrows,x\n,1,2\nc,['p0'];[\"p1\"]\n"
                      "d,\"[1, 2]\"\ne,\"{\"\"k\"\":1}\"") == [
        "record ['note', 'a', ' b'] has 3 fields",
        "row ['', '1', '2'] under header ['rows', 'x']",
        "field item \"['p0']\" is not compact JSON",
        "field item '[1, 2]' is not compact JSON"]


def test_corpus_csv_reads_back(corpus_runs):
    """Every csv output of the corpus reads back through ``csv.reader``:
    each ``path,value`` record has 2 fields, each row its header's field
    count, and no field holds a Python repr."""
    read = 0
    for argv, (code, out, _) in corpus_runs:
        # the last --format wins
        fmt = [argv[k + 1] for k, a in enumerate(argv) if a == "--format"][-1]
        if fmt == "csv" and code != 2:
            assert csv_faults(out) == [], argv
            read += 1
    assert read == 388


def dump_records(directory) -> list[dict]:
    """Every corpus record, then every edge record, as ``argv`` (the
    model directory written ``{dir}``), ``code``, and ``stdout`` and
    ``stderr`` as lists of their lines: the records behind
    ``CORPUS_PINS`` and ``EDGE_PINS``."""
    models = _models()
    records = []
    for kind, write, requests in (
            ("corpus", lambda root: write_corpus(root, models),
             corpus_requests(models)),
            ("edge", write_edges, edge_requests())):
        root = directory / kind
        root.mkdir()
        write(root)
        records += [{"argv": [a.replace(str(root), "{dir}") for a in argv],
                     "code": code,
                     "stdout": out.splitlines(keepends=True),
                     "stderr": err.splitlines(keepends=True)}
                    for argv, (code, out, err) in run_requests(root,
                                                                requests)]
    return records


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli_corpus.py OUT.json writes every
    # record, one output line to a JSON line, so that a diff of two trees'
    # dumps shows which records and lines a pin move holds
    import sys
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        dumped = dump_records(Path(tmp))
    Path(sys.argv[1]).write_text(json.dumps(dumped, indent=1) + "\n")
    print(f"{len(dumped)} records written to {sys.argv[1]}")
