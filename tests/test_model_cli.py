import collections
import copy
import enum
import hashlib
import json
import math
import random
import shlex
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pseudodyn import (UNBOUNDED, CapabilityError, FiniteMetricSpace,
                       InputError, PartialMap, cli, morphism, pseudogroup)
from pseudodyn.cli import _write_json, main, render, to_jsonable
from pseudodyn.dynamics import N_MAX_CAP, HTopRow
from pseudodyn.equicont import _moduli
from pseudodyn.measure import local_entropy
from pseudodyn.model import parse_model
from pseudodyn.probes import STATEMENTS
from pseudodyn.rational import format_rational
from pseudodyn.shift import WINDOW_RADIUS_CAP, ShiftPoint

from conftest import reference_format_rational, reference_to_jsonable

LINE_MODEL = {
    "points": ["a", "b", "c"],
    "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    "generators": [
        {"name": "g", "dom": ["a", "b"], "map": {"a": "b", "b": "c"},
         "core": ["a"]}
    ],
    "mu": {"a": "1/3", "b": "1/3", "c": "1/3"},
    "phi": {"a": "p", "b": "q", "c": "r"},
}


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(LINE_MODEL))
    return str(path)


def test_parse_model_valid():
    model = parse_model(json.dumps(LINE_MODEL))
    assert [m.name for m in model.system.generators] == ["id", "g", "g^-1"]
    assert model.measure.weights[0] == Fraction(1, 3)
    assert model.iso is not None and model.iso.is_isometric()
    # the auto-linked inverse core is the image of the given core
    assert model.system.cores[2] == {1}


def test_parse_model_exact_decimal():
    doc = {"points": ["a", "b"], "dist": [[0, 0.5], [0.5, 0]]}
    model = parse_model(json.dumps(doc))
    assert model.space.dist[0][1] == Fraction(1, 2)


def test_parse_model_errors_name_the_invariant():
    bad_sym = dict(LINE_MODEL, dist=[[0, 1, 2], [1, 0, 1], [9, 1, 0]])
    with pytest.raises(InputError, match="symmetry"):
        parse_model(json.dumps(bad_sym))

    bad_mu = dict(LINE_MODEL, mu={"a": "1/2", "b": "1/4", "c": "24/100"})
    with pytest.raises(InputError, match="sum to 1"):
        parse_model(json.dumps(bad_mu))

    bad_dom = dict(LINE_MODEL, generators=[
        {"name": "g", "dom": ["a"], "map": {"a": "b", "b": "c"}}])
    with pytest.raises(InputError, match="disagrees"):
        parse_model(json.dumps(bad_dom))

    with pytest.raises(InputError, match="JSON"):
        parse_model("not json{")


def _four_points(generators):
    return {"points": ["a", "b", "c", "d"],
            "dist": [[abs(i - j) for j in range(4)] for i in range(4)],
            "generators": generators}


G_CORED = {"name": "g", "map": {"a": "b", "b": "c"}, "core": ["a"]}
IDENTITY = {"name": "e", "map": {p: p for p in "abcd"}}
G_ON_AB = {"map": {"a": "b"}}


@pytest.mark.parametrize("generators, name", [
    ([G_CORED, {"name": "g", "map": {"b": "d"}, "core": ["b"]}], "'g'"),
    ([{"name": "id", "map": {"a": "b", "b": "c"}, "core": ["a"]}], "'id'"),
    ([G_CORED, {"name": "g^-1", "map": {"c": "d"}}], "'g\\^-1'"),
    ([dict(IDENTITY, core=["a"])], "'e'"),
    ([dict(G_ON_AB, name="g", core=["a"]), dict(G_ON_AB, name="h", core=[])],
     "'g' and 'h'"),
], ids=["declared-twice", "id-on-another-map", "inverse-name-on-another-map",
        "identity-core-short-of-the-space", "one-map-two-cores"])
def test_generator_name_labels_one_map(generators, name, tmp_path, capsys):
    """A name that would label two maps, one declared and one declared or
    completed, would send a core to the wrong map, and a map has one core,
    the identity's being the whole space: each is an input error."""
    doc = _four_points(generators)
    with pytest.raises(InputError, match=name):
        parse_model(json.dumps(doc))
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    assert main(["ball", "--model", str(path), "--x", "a", "--n", "1",
                 "--eps", "1"]) == 2
    assert "input error" in capsys.readouterr().err


def _results(generators, tmp_path, capsys):
    """A Bowen query's exit code and result, and the loaded system's cores
    and core-restricted generators, which no ``equicont`` payload shows."""
    doc = json.dumps(_four_points(generators))
    path = tmp_path / "model.json"
    path.write_text(doc)
    code = main(["--format", "json", "bowen", "--model", str(path),
                 "--x", "b", "--delta", "1"])
    result = json.loads(capsys.readouterr().out)["result"]
    system = parse_model(doc).system
    restricted = pseudogroup.compacted_system(system).generators
    return (code, result, system.cores,
            [(g.name, g.vals) for g in restricted])


def test_explicit_inverse_loads_like_the_completed_one(tmp_path, capsys):
    inverse = {"name": "g^-1", "map": {"b": "a", "c": "b"}}
    assert _results([G_CORED, inverse], tmp_path, capsys) \
        == _results([G_CORED], tmp_path, capsys)


@pytest.mark.parametrize("extra", [
    dict(IDENTITY, core=list("abcd")),
    {"name": "h", "map": {"a": "b", "b": "c"}, "core": ["a"]},
], ids=["identity-core-is-the-space", "one-map-one-core"])
def test_a_core_the_system_keeps_loads_alike(extra, tmp_path, capsys):
    assert _results([G_CORED, extra], tmp_path, capsys) \
        == _results([G_CORED], tmp_path, capsys)


def test_to_jsonable_round_trip():
    payload = {"eps": Fraction(3, 2), "members": frozenset({1, 0}),
               "nested": [{"v": Fraction(1, 3)}]}
    data = to_jsonable(payload)
    assert data == {"eps": "3/2", "members": [0, 1], "nested": [{"v": "1/3"}]}
    text = render(payload, "json")
    assert json.loads(text)["result"] == data
    # idempotent: rendering the parsed result again changes nothing
    assert json.loads(render(json.loads(text)["result"], "json"))["result"] == data


class _Level(enum.IntEnum):
    LOW = 1


_Pair = collections.namedtuple("_Pair", "a b")


def _payload(rng, depth=0):
    """A seeded payload mixing every kind the renderer meets: rationals,
    infinite floats, the unbounded marker, sets, tuples, dataclasses,
    maps and shift points, and dicts keyed by strings, ints, ``Fraction``s
    and tuples, some of whose keys print alike."""
    space = FiniteMetricSpace("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    leaves = [
        lambda: rng.randint(-5, 5), lambda: rng.random() < 0.5, lambda: None,
        lambda: rng.choice(["x", "", "1/2", "é"]),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        lambda: rng.choice([math.inf, -math.inf, 0.5, -0.0]),
        lambda: UNBOUNDED, lambda: _Level.LOW,
        lambda: frozenset(Fraction(rng.randint(0, 6), 3) for _ in range(3)),
        lambda: {rng.choice("abc") for _ in range(2)},
        lambda: PartialMap.from_dict(space, {"a": "b"}, name="g"),
        lambda: ShiftPoint((1, 0, 1), background=rng.randint(0, 1)),
        lambda: HTopRow(eps=Fraction(1, 2), n=2, count_lower=1,
                        count_upper=2, rate=-math.inf),
        lambda: _Pair(Fraction(1, 3), "b"),
    ]
    if depth >= 3 or rng.random() < 0.3:
        return rng.choice(leaves)()
    kind = rng.randrange(4)
    items = [_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    keys = [rng.choice([str(rng.randint(0, 3)), rng.randint(0, 3),
                        Fraction(rng.randint(0, 6), 2),
                        (rng.randint(0, 2), Fraction(1, rng.randint(1, 3))),
                        None, True])
            for _ in items]
    mapping = dict(zip(keys, items))
    return mapping if kind == 2 else collections.OrderedDict(mapping)


def test_to_jsonable_matches_the_isinstance_chain():
    """The type-dispatched renderer gives what one isinstance chain gives,
    key order included (``json.dumps`` without sorting keeps it)."""
    rng = random.Random(37)
    for _ in range(600):
        payload = _payload(rng)
        assert json.dumps(to_jsonable(payload)) \
            == json.dumps(reference_to_jsonable(payload))
    for value in (Fraction(-7, 3), Fraction(4), 5, -2, True, 0.375, -1.5,
                  UNBOUNDED):
        assert format_rational(value) == reference_format_rational(value)


def _written(doc) -> str:
    out = []
    _write_json(doc, out, "\n")
    return "".join(out)


class _Text(str):
    pass


class _Count(int):
    """An int that prints otherwise: ``json`` reads its value."""

    def __repr__(self):
        return "_Count()"

    __str__ = __repr__


def test_json_writer_matches_json_dumps():
    """The one-pass writer prints what ``json.dumps(indent=2,
    sort_keys=True)`` prints: on the seeded payloads above, rendered and
    wrapped with a manifest, and on NaN, infinite floats, an ``IntEnum``,
    an int subclass that prints otherwise, ``str`` subclasses as values and
    keys, non-ASCII and escaped text,
    long integers and nested empty containers, with unsorted keys."""
    rng = random.Random(37)
    manifest = {"command": "check --what homogeneous", "model_sha256": None,
                "seed": 7, "version": "0.1", "wall_ms": 12}
    for k in range(600):
        doc = {"result": to_jsonable(_payload(rng))}
        if k % 2:
            doc["manifest"] = manifest
        assert _written(doc) == json.dumps(doc, indent=2, sort_keys=True)
    edges = [
        math.nan, math.inf, -math.inf, -0.0, 1e300, 0.1, _Level.LOW,
        _Count(3), _Text("sub"), "é ☃ \U0001f600", 'quote " backslash \\ tab \t',
        "\x00\x1f\u2028", 10 ** 40, -(10 ** 40), True, False, None,
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[{}]], {"b": [[]]}],
        {"z": 1, "a": [2, {"y": None, "b": "x"}], "é": 1.5, _Text("m"): []},
        (1, "two", (3.5, [])),
    ]
    for value in edges + [edges]:
        for doc in (value, {"result": value, "manifest": manifest}):
            assert _written(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_render_refuses_an_integer_too_long_to_print():
    """The writer prints an int as ``json`` does, so an integer past the
    digits Python prints raises there and renders as a capability error."""
    with pytest.raises(CapabilityError, match="digits Python prints"):
        render({"big": 10 ** (sys.get_int_max_str_digits() + 1)}, "json")


def test_cold_homogeneity_request_never_builds_dist(monkeypatch, tmp_path,
                                                    capsys):
    """Loading a model and checking homogeneity read ranks only: with
    ``dist`` made to fail on first read, the request answers as before."""
    path = tmp_path / "line.json"
    path.write_text(json.dumps(LINE_MODEL))
    argv = ["--format", "json", "check", "--what", "homogeneous",
            "--model", str(path)]
    assert main(argv) == 0
    want = json.loads(capsys.readouterr().out)["result"]

    def unread(space):
        raise AssertionError("dist was built")

    monkeypatch.setattr(FiniteMetricSpace, "dist", property(unread))
    parse_model(json.dumps(LINE_MODEL))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"] == want


def test_cli_ball(model_path, capsys):
    code = main(["ball", "--model", model_path, "--x", "a",
                 "--n", "1", "--eps", "3/2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "members" in out and "- a" in out and "- b" in out
    assert "c" in out  # exclusion listed with its witness


def test_cli_bowen(model_path, capsys):
    code = main(["--format", "json", "bowen", "--model", model_path,
                 "--x", "a", "--delta", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["members"] == ["a", "b"]


def test_cli_payloads_read_the_fixpoint_level(model_path, capsys):
    """bowen's stabilized_at and entropy's default n_max are the pair
    fixpoint level L, here below the closure's stabilization index."""
    system = parse_model(json.dumps(LINE_MODEL)).system
    level = system.fixpoint_level
    assert level < system.word_closure().stable_index
    model = ["--model", model_path, "--x", "a"]
    assert main(["--format", "json", "bowen", *model, "--delta", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["stabilized_at"] \
        == level
    assert main(["--format", "json", "entropy", *model]) == 0
    cells = json.loads(capsys.readouterr().out)["result"]["cells"]
    assert [(c["eps"], c["n"]) for c in cells] == [
        (format_rational(eps), n) for eps in system.space.distance_grid()
        for n in range(1, level + 1)]


@pytest.mark.parametrize("argv", [
    ["conjugate", "--model", "m.json", "--check", "expansive"],
    ["conjugate", "--model", "m.json", "--eta", "1"],
    ["shift", "htop", "--eps", "1", "--n", "1", "--p", "1/3"],
    ["conjugate", "--model", "m.json", "--measure", "mu.json"],
    ["conjugate", "--model", "m.json", "--check", "entropy"],
    ["probe", "--survey", "homogeneity"],
    ["verify", "--survey", "homogeneity"],
])
def test_cli_removed_options_are_usage_errors(argv, capsys):
    """The expansiveness transfer check, its --eta, shift htop's --p,
    conjugate's --measure and --check, which no payload read, and the
    homogeneity survey of probe and verify, which a theorem decides, are
    gone: argparse exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def readme_cli_examples() -> list[str]:
    """Each ``pseudodyn ...`` line of README's ``sh`` blocks, without its
    trailing ``# ...`` comment."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines, in_sh = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("pseudodyn "):
            lines.append(line.split("#", 1)[0].strip())
    return lines


def test_readme_cli_examples_parse(capsys):
    """Every CLI example in README parses, so an example of a removed
    option, or one that is not a command line at all, fails here."""
    parser = cli.build_parser()
    examples = readme_cli_examples()
    assert len(examples) >= 10
    stale = []
    for line in examples:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            stale.append(line)
    assert stale == []


@pytest.mark.parametrize("argv,option", [
    (["equicont", "--compacted", "--rho", "1"], "--rho"),
    (["equicont", "--compacted", "--rho", "-1"], "--rho"),
    (["equicont", "--compacted", "--rho", "abc"], "--rho"),
    (["check", "--what", "homogeneous", "--delta", "abc"], "--delta"),
    (["check", "--what", "invariant", "--delta", "-1"], "--delta"),
    (["check", "--what", "ergodic", "--delta", "1"], "--delta"),
], ids=["compacted-rho", "compacted-negative-rho", "compacted-bad-rho",
        "homogeneous-delta", "invariant-negative-delta", "ergodic-delta"])
def test_cli_ignored_inputs_are_refused(argv, option, model_path,
                                        monkeypatch, capsys):
    """An option its command would not read is an input error, raised
    before the model is loaded."""
    loaded = []
    monkeypatch.setattr(cli, "load_model",
                        lambda path: loaded.append(path) or parse_model(
                            json.dumps(LINE_MODEL)))
    if argv[0] in ("equicont", "check"):
        argv = [argv[0], "--model", model_path, *argv[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and option in err
    assert loaded == []


@pytest.mark.parametrize("model", ["missing", "no-mu"])
@pytest.mark.parametrize("delta,message", [
    ([], "--delta is required"),
    (["--delta", "abc"], "cannot parse rational from 'abc'"),
], ids=["no-delta", "bad-delta"])
def test_cli_check_expansive_reads_delta_before_the_model(model, delta, message,
                                                          tmp_path, capsys):
    """A missing or unparsable --delta is reported before the model is
    read, so neither a model file that does not exist nor a model without
    a measure is what the error names."""
    path = tmp_path / "m.json"
    if model == "no-mu":
        path.write_text(json.dumps({"points": ["a", "b"],
                                    "dist": [[0, 1], [1, 0]]}))
    argv = ["check", "--model", str(path), "--what", "expansive", *delta]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


def test_cli_check_negative_exit(model_path, capsys):
    code = main(["check", "--model", model_path, "--what", "expansive",
                 "--delta", "1"])
    assert code == 1
    assert "neither" in capsys.readouterr().out


def test_cli_check_invariant(model_path, capsys):
    code = main(["check", "--model", model_path, "--what", "invariant"])
    assert code == 0


def test_cli_check_invariant_spells_an_unnamed_generator_as_its_word(
        tmp_path, capsys):
    """An unnamed generator's word is ``?``: the invariance witness prints
    it as a ball's exclusions do."""
    path = tmp_path / "unnamed.json"
    path.write_text(json.dumps({
        "points": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        "generators": [{"map": {"a": "a", "b": "c"}}],
        "mu": {"a": "1/4", "b": "1/4", "c": "1/2"}}))
    argv = ["--format", "json", "check", "--model", str(path),
            "--what", "invariant"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["result"]["witness"] \
        == ["<?: a->a, b->c>", "b"]
    assert main(["--format", "json", "ball", "--model", str(path), "--x",
                 "a", "--n", "2", "--eps", "2"]) == 0
    excluded = json.loads(capsys.readouterr().out)["result"]["excluded"]
    assert excluded["b"]["by"] == "?"


def test_cli_input_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["a", "b"],
                               "dist": [[0, 1], [2, 0]]}))
    code = main(["ball", "--model", str(bad), "--x", "a",
                 "--n", "1", "--eps", "1"])
    assert code == 2
    assert "symmetry" in capsys.readouterr().err


def test_cli_negative_delta_is_input_error(model_path, capsys):
    code = main(["check", "--model", model_path, "--what", "expansive",
                 "--delta", "-1"])
    assert code == 2
    assert "nonnegative" in capsys.readouterr().err


MALFORMED_ISOS = {
    "phi-misses-point": {"phi": {"a": "p", "b": "q"}},
    "target-without-dist": {"phi": {"a": "p", "b": "q", "c": "r"},
                            "target": {"points": ["p", "q", "r"]}},
    "target-without-points": {"phi": {"a": "p", "b": "q", "c": "r"},
                              "target": {"dist": [[0, 1], [1, 0]]}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ISOS))
def test_cli_malformed_iso_in_model_is_input_error(case, tmp_path, capsys):
    doc = {k: v for k, v in LINE_MODEL.items() if k != "phi"}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dict(doc, **MALFORMED_ISOS[case])))
    code = main(["conjugate", "--model", str(path)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(MALFORMED_ISOS))
def test_cli_malformed_iso_file_is_input_error(case, model_path, tmp_path,
                                               capsys):
    iso = tmp_path / "iso.json"
    iso.write_text(json.dumps(MALFORMED_ISOS[case]))
    code = main(["conjugate", "--model", model_path, "--iso", str(iso)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_cli_unknown_point_is_input_error(model_path, capsys):
    code = main(["ball", "--model", model_path, "--x", "z",
                 "--n", "1", "--eps", "1"])
    assert code == 2


def test_cli_htop_csv(model_path, capsys):
    code = main(["--format", "csv", "htop", "--model", model_path,
                 "--n-max", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "count_lower" in out


SHIFT_HTOP = ["htop", "--eps", "1/2", "--n", "1"]


def printed_format(out: str) -> str:
    """json opens with a brace; a csv record joins its path and value with
    a comma, a table line with a colon."""
    first = out.split("\n", 1)[0]
    return "json" if first == "{" else "csv" if "," in first else "table"


@pytest.mark.parametrize("argv,fmt", [
    (["--format", "csv", "shift", *SHIFT_HTOP], "csv"),
    (["shift", *SHIFT_HTOP, "--format", "csv"], "csv"),
    (["shift", "--format", "csv", *SHIFT_HTOP], "csv"),
    (["--format", "csv", "shift", "--format", "json", *SHIFT_HTOP], "json"),
    (["--format", "json", "shift", "--format", "table", *SHIFT_HTOP,
      "--format", "csv"], "csv"),
    (["shift", *SHIFT_HTOP], "table"),
    (["--format", "csv", "htop", "--model", "{model}"], "csv"),
    (["htop", "--model", "{model}", "--format", "csv"], "csv"),
    (["--format", "json", "htop", "--format", "csv", "--model", "{model}"],
     "csv"),
], ids=["before", "after", "between", "between-and-before", "repeated",
        "none", "model-before", "model-after", "model-repeated"])
def test_cli_format_innermost_wins(model_path, capsys, argv, fmt):
    """``--format`` is read before the command, after it and between
    ``shift`` and its sub-command; given more than once, the innermost
    wins, and given nowhere, the output is a table."""
    argv = [a.replace("{model}", model_path) for a in argv]
    assert main(argv) == 0
    assert printed_format(capsys.readouterr().out) == fmt


@pytest.mark.parametrize("command", [["htop"], ["entropy", "--x", "a"]])
def test_cli_n_max_below_one_names_n_max(model_path, capsys, command):
    """``--n-max 0`` on a valid model blames n_max, not an eps grid the
    user never gave."""
    assert main([command[0], "--model", model_path, *command[1:],
                 "--n-max", "0"]) == 2
    assert capsys.readouterr().err == "input error: n_max must be at least 1\n"


def test_cli_entropy(model_path, capsys):
    code = main(["entropy", "--model", model_path, "--x", "a", "--n-max", "3"])
    assert code == 0
    assert "limit: 0.0" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["htop"], ["entropy", "--x", "a"]])
@pytest.mark.parametrize("grid,scale", [("1,1", "1"), ("1/2,2,0.5", "1/2")])
def test_cli_eps_grid_repeating_a_scale_is_refused(model_path, monkeypatch,
                                                   capsys, command, grid,
                                                   scale):
    """A scale given twice, by any spelling, would repeat its rows: it is
    an input error, raised before the model is loaded."""
    loaded = []
    monkeypatch.setattr(cli, "load_model", loaded.append)
    assert main([command[0], "--model", model_path, *command[1:],
                 "--eps-grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and loaded == []
    assert captured.err == (f"input error: the eps grid gives the scale "
                            f"{scale} twice\n")


def test_cli_htop_rows_follow_the_sorted_grid(model_path, capsys):
    """``htop`` orders its rows by scale, as ``entropy`` orders its cells,
    whatever the order of ``--eps-grid``."""
    code = main(["--format", "json", "htop", "--model", model_path,
                 "--eps-grid", "2,1/2", "--n-max", "1"])
    rows = json.loads(capsys.readouterr().out)["result"]["rows"]
    assert code == 0 and [r["eps"] for r in rows] == ["1/2", "2"]


@pytest.mark.parametrize("command", [["htop"], ["entropy", "--x", "a"]])
def test_cli_n_max_is_capped(model_path, capsys, command):
    """An explicit --n-max answers at the cap and exits 2 one past it,
    naming the cap, before any row is built."""
    args = [command[0], "--model", model_path, *command[1:],
            "--eps-grid", "1", "--n-max"]
    code = main(["--format", "csv", *args, str(N_MAX_CAP)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") > N_MAX_CAP
    code = main([*args, str(N_MAX_CAP + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"N_MAX_CAP = {N_MAX_CAP}" in captured.err


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_cli_entropy_n_max_below_one_is_input_error(model_path, capsys, n_max):
    code = main(["entropy", "--model", model_path, "--x", "a",
                 "--n-max", n_max])
    assert code == 2
    assert "n_max" in capsys.readouterr().err


def one_point_result(tmp_path, capsys, command):
    """Exit code and json ``result`` of ``command`` on a one-point model,
    whose auto grid is empty: it has no positive distance."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"points": ["a"], "dist": [[0]],
                                "generators": [], "mu": {"a": 1}}))
    code = main(["--format", "json", command[0], "--model", str(path),
                 *command[1:]])
    return code, json.loads(capsys.readouterr().out)["result"]


def test_cli_htop_one_point_model_has_no_rows(tmp_path, capsys):
    code, result = one_point_result(tmp_path, capsys, ["htop"])
    assert code == 0
    assert result == {"limit": 0.0, "rows": [], "note": (
        "counts are bounded by |X| = 1, so the large-n limit of (1/n) "
        "log s is 0 on this finite space")}


def test_cli_entropy_one_point_model_has_no_cells(tmp_path, capsys):
    """With no scale the stabilized ball is {a}, of measure 1."""
    code, result = one_point_result(tmp_path, capsys,
                                    ["entropy", "--x", "a"])
    assert code == 0
    assert result == {"cells": [], "limit": 0.0, "x": "a"}


def test_cli_check_homogeneous_one_point_model_is_ok(tmp_path, capsys):
    code, result = one_point_result(tmp_path, capsys,
                                    ["check", "--what", "homogeneous"])
    assert code == 0
    assert result == {"what": "homogeneous", "ok": True,
                      "witnesses": {}, "counterexample": None}


def test_integer_point_labels_are_strings(tmp_path, capsys):
    """JSON object keys are strings, so integer labels are read as their
    decimal strings everywhere: points, maps, dom, core, phi, and --x."""
    doc = {"points": [2, 0, 1], "dist": LINE_MODEL["dist"],
           "generators": [{"name": "g", "dom": [2, 0], "map": {"2": 0, "0": 1},
                           "core": [2]}],
           "mu": {"2": "1/2", "0": "1/2", "1": 0},
           "phi": {"2": 5, "0": "q", "1": "r"}}
    model = parse_model(json.dumps(doc))
    assert model.space.points == ("2", "0", "1")
    assert model.system.cores[1] == {0}
    assert model.measure.weights[model.space.index("0")] == Fraction(1, 2)
    assert model.iso.dst.points == ("5", "q", "r")
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc))
    code = main(["--format", "json", "ball", "--model", str(path),
                 "--x", "0", "--n", "1", "--eps", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["center"] == "0"
    assert out["result"]["members"] == ["0"]


@pytest.mark.parametrize("points", [[1, "1"], ["a", [1]], ["a", True]])
def test_cli_bad_point_labels_are_input_error(tmp_path, capsys, points):
    """Labels that meet as strings are duplicates; only strings and
    integers are labels."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": points, "dist": [[0, 1], [1, 0]]}))
    code = main(["check", "--model", str(path), "--what", "ergodic"])
    assert code == 2
    assert "label" in capsys.readouterr().err


def _nodes(doc, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


def _json_kind(v) -> str:
    """null, bool, number, str, list or dict."""
    if v is None:
        return "null"
    return "number" if type(v) is int else type(v).__name__


FUZZ_BASES = [LINE_MODEL, dict(LINE_MODEL, target={
    "points": ["p", "q", "r"], "dist": LINE_MODEL["dist"]})]
FUZZ_PALETTE = [None, True, 0, -1, "a", "", [], {}, ["a", "b"], {"a": 1}]


def _mutant(rng: random.Random) -> dict:
    """A base model with one node removed, or replaced by a value of another
    JSON type: a palette value or a (copied) node of the same document."""
    doc = copy.deepcopy(rng.choice(FUZZ_BASES))
    nodes = list(_nodes(doc))
    path, old = rng.choice(nodes[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.25:
        del parent[path[-1]]
        return doc
    pool = [v for v in [v for _, v in nodes] + FUZZ_PALETTE
            if _json_kind(v) != _json_kind(old)]
    parent[path[-1]] = copy.deepcopy(rng.choice(pool))
    return doc


def test_mutated_models_raise_only_input_errors(tmp_path, capsys):
    """No single-node type mutation of a model escapes as a raw traceback:
    ``parse_model`` accepts the document or raises ``InputError``, and the
    CLI exits 2 on the rejected ones."""
    rng = random.Random(20261018)
    rejected = []
    for _ in range(2500):
        text = json.dumps(_mutant(rng))
        try:
            parse_model(text)
        except InputError:
            rejected.append(text)
    assert len(rejected) > 2000
    path = tmp_path / "mutant.json"
    for text in rng.sample(rejected, 40):
        path.write_text(text)
        assert main(["check", "--model", str(path), "--what", "invariant"]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
def test_nonfinite_json_constant_is_input_error(constant):
    text = json.dumps(LINE_MODEL).replace("[0, 1, 2]", f"[0, 1, {constant}]")
    with pytest.raises(InputError, match="not a rational"):
        parse_model(text)


@pytest.mark.parametrize("doc", [7, "mu", ["mu"], {"mu": ["a"]}],
                         ids=["number", "string", "list", "mu-list"])
def test_cli_malformed_measure_file_is_input_error(doc, model_path, tmp_path,
                                                   capsys):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--model", model_path, "--measure", str(path),
                 "--what", "invariant"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [7, "phi"], ids=["number", "string"])
def test_cli_malformed_iso_shape_is_input_error(doc, model_path, tmp_path,
                                               capsys):
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(doc))
    code = main(["conjugate", "--model", model_path, "--iso", str(path)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_cli_conjugate_entropy(model_path, capsys):
    code = main(["--format", "json", "conjugate", "--model", model_path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert sorted(out["result"]) == [
        "backward_ok", "counts_dst", "counts_src", "forward_ok",
        "isometric", "tables_equal"]
    assert out["result"]["isometric"] is True
    assert out["result"]["tables_equal"] is True


TINY = 10 ** 400
TINY_ATOM_MODEL = dict(
    LINE_MODEL, phi={"a": "a", "b": "b", "c": "c"},
    mu={"a": f"1/{TINY}", "b": "1/2", "c": f"{TINY // 2 - 1}/{TINY}"})


@pytest.fixture
def tiny_atom_path(tmp_path):
    """The line model with an atom of 10^-400, below float range."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_ATOM_MODEL))
    return str(path)


def test_cli_entropy_of_a_ball_below_float_range(tiny_atom_path, capsys):
    code = main(["--format", "json", "entropy", "--model", tiny_atom_path,
                 "--x", "a", "--eps-grid", "1/2", "--n-max", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    (cell,) = out["result"]["cells"]
    assert 0 < cell["value"] < float("inf")
    assert cell["value"] == pytest.approx(400 * math.log(10))


def test_cli_conjugate_entropy_below_float_range(tiny_atom_path, capsys):
    """The identity iso of the tiny-atom model conjugates the system onto
    itself, and the local entropy on both sides is finite and positive at
    a ball below float range."""
    code = main(["--format", "json", "conjugate", "--model", tiny_atom_path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["tables_equal"] is True
    model = parse_model(json.dumps(TINY_ATOM_MODEL))
    iso = model.iso
    src = local_entropy(model.measure, model.system, 0)
    dst = local_entropy(morphism.pushforward(model.measure, iso),
                        morphism.conjugate_system(model.system, iso),
                        iso.fwd[0])
    assert [(c.eps, c.n, c.ball_measure) for c in src.cells] \
        == [(c.eps, c.n, c.ball_measure) for c in dst.cells]
    values = [c.value for c in src.cells]
    assert min(c.ball_measure for c in src.cells) == Fraction(1, TINY)
    assert all(0 < v < float("inf") for v in values)


def test_cli_equicont(model_path, capsys):
    code = main(["equicont", "--model", model_path])
    assert code == 0
    assert "audit_ok: True" in capsys.readouterr().out


def test_cli_equicont_compacted_reads_the_ambient_table_alone(
        model_path, monkeypatch, capsys):
    """The core-restricted certificate builds no second system and reads
    no pair table but the loaded system's; its payload is the rows and the
    conclusion, with exit 0."""
    built, read = [], []
    init = pseudogroup.GeneratingSystem.__init__
    table = pseudogroup.GeneratingSystem.constraint_table

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def spying_table(self, *args):
        read.append(self)
        return table(self, *args)

    monkeypatch.setattr(pseudogroup.GeneratingSystem, "__init__",
                        counting_init)
    monkeypatch.setattr(pseudogroup.GeneratingSystem, "constraint_table",
                        spying_table)
    code = main(["--format", "json", "equicont", "--model", model_path,
                 "--compacted"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0
    assert len(built) == 1 and read and set(map(id, read)) == {id(built[0])}
    assert sorted(result) == ["conclusion", "mode", "rows"]
    assert result["mode"] == "core-restricted"
    assert [sorted(row) for row in result["rows"]] == [["delta", "rho"]] * 2
    assert [row["rho"] for row in result["rows"]] == ["1", "2"]


TRIANGLE_ROTATION = {
    "points": ["a", "b", "c"],
    "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "generators": [{"name": "r", "map": {"a": "b", "b": "c", "c": "a"}}],
}


@pytest.mark.parametrize("rho,code", [("-1", 2), ("0", 0), ("1", 0)])
def test_cli_equicont_rho_sign(rho, code, tmp_path, capsys):
    """A negative radius is an input error, not a failed inclusion."""
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(TRIANGLE_ROTATION))
    assert main(["equicont", "--model", str(path), "--rho", rho]) == code
    if code == 2:
        assert "nonnegative" in capsys.readouterr().err


def test_cli_equicont_negative_rho_on_partial_model(model_path, capsys):
    """The sign of the radius is checked whether or not the generators
    are total."""
    assert main(["equicont", "--model", model_path, "--rho", "-1"]) == 2
    assert "nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["-1", "0", "1,0"])
def test_cli_entropy_nonpositive_scale_is_input_error(model_path, capsys,
                                                      grid):
    code = main(["entropy", "--model", model_path, "--x", "a",
                 "--eps-grid", grid])
    assert code == 2
    assert "scale must be positive" in capsys.readouterr().err


def test_cli_shift_entropy(capsys):
    code = main(["--format", "json", "shift", "entropy",
                 "--eps", "3/5", "--n", "1000"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["log2_multiple"] == "2003/1000"
    assert out["result"]["limit"] == "2 log 2"


def test_cli_shift_ball(capsys):
    code = main(["--format", "json", "shift", "ball", "--x", "00101",
                 "--center", "0", "--n", "2", "--eps", "3/5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["result"]["cylinder"]["interval"] == [-3, 3]
    assert out["result"]["measure"] == "1/128"


@pytest.mark.parametrize("block", ["1a0", "012", " 1", "\u0660"])
@pytest.mark.parametrize("command", [["ball", "--n", "1", "--eps", "1"],
                                     ["bowen", "--delta", "1"]])
def test_cli_shift_bad_symbol_is_input_error(block, command, capsys):
    """Every character of a shift point is 0 or 1; "\u0660" is a digit
    zero that ``int`` would read."""
    assert main(["shift", command[0], "--x", block, *command[1:]]) == 2
    assert "symbols must be 0 or 1" in capsys.readouterr().err


PAST_CAP = str(WINDOW_RADIUS_CAP + 1)


@pytest.mark.parametrize("argv", [
    # at eps = 4 the scale adds nothing, so the window radius is n
    ["htop", "--eps", "4", "--n", PAST_CAP],
    ["entropy", "--eps", "4", "--n", PAST_CAP],
    ["ball", "--x", "1", "--n", PAST_CAP, "--eps", "4"],
    ["ball", "--x", "1", "--center", PAST_CAP, "--n", "1", "--eps", "4"],
    # delta = 2^-CAP puts the outer block of n = 2 one past the cap
    ["bowen", "--x", "1", "--delta", f"1/{2 ** WINDOW_RADIUS_CAP}"],
])
def test_cli_shift_window_past_cap_is_capability_error(argv, capsys):
    assert main(["--format", "json", "shift", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"exceeds {WINDOW_RADIUS_CAP}" in out.err


def test_cli_shift_htop_at_cap_prints(capsys):
    n = str(WINDOW_RADIUS_CAP)
    assert main(["--format", "json", "shift", "htop", "--eps", "4",
                 "--n", n]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["count_upper"] == 2 ** (2 * WINDOW_RADIUS_CAP + 1)


def test_cli_value_too_long_to_print_is_capability_error(capsys):
    """A three-coordinate ball at p = 10^-1500 has measure 10^-4500, past
    the digits Python prints in an integer: exit 2, nothing printed."""
    assert main(["--format", "json", "shift", "entropy", "--eps", "4",
                 "--n", "1", "--p", f"1/{10 ** 1500}"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "digits Python prints in an integer" in out.err


def test_cli_probe_small(capsys):
    code = main(["--format", "json", "probe", "--seeds", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert set(out["result"]["statements"]) >= {"ball-formula-identity"}


def test_cli_verify_alias(capsys):
    code = main(["verify", "--seeds", "2",
                 "--statements", "germ-equivalence,inverse-composition"])
    assert code == 0


def test_cli_repeated_statement_exits_2(capsys):
    """A statement named twice would only run twice: it is refused."""
    code = main(["probe", "--seeds", "2", "--statements",
                 "germ-equivalence,germ-equivalence"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("input error: repeated statements: "
                   "['germ-equivalence']\n")


# sha1 of the sorted JSON of the `verify --seeds 500` result; a change
# that alters the payload on purpose updates it and says why
VERIFY_500_SHA1 = "e44e56e398b34def92fc5e3130215984bafd8120"


def test_verify_500_result_is_pinned(capsys):
    """Every statement's counts and witnesses over 500 instances, as one
    digest: a speed-up that changes an answer shows here.  Every registered
    statement is substantive on some instance, so none is a check that
    cannot fail."""
    assert main(["verify", "--seeds", "500", "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    digest = hashlib.sha1(json.dumps(result, sort_keys=True).encode())
    assert digest.hexdigest() == VERIFY_500_SHA1
    statements = result["statements"]
    assert sorted(statements) == sorted(STATEMENTS)
    assert all(rep["substantive"] > 0 for rep in statements.values())


@pytest.mark.parametrize("command", ["probe", "verify"])
@pytest.mark.parametrize("seeds", ["0", "-5"])
def test_cli_probe_seeds_below_1_is_input_error(command, seeds, capsys):
    """A run over no instance checks nothing, so it is refused."""
    assert main([command, "--seeds", seeds]) == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err


def test_cli_probe_violation_exit_code(capsys, monkeypatch):
    """A statement violation in the suite maps to exit code 3."""
    from pseudodyn import cli
    from pseudodyn.probes import ProbeReport, Violation

    def fake_suite(spec, statements="all"):
        rep = ProbeReport(statement="germ-equivalence", instances=1,
                          violations=[Violation(index=0, witness=("x",),
                                                genome_size=(3, 1))])
        return {"germ-equivalence": rep}

    monkeypatch.setattr(cli.probes, "run_suite", fake_suite)
    code = main(["probe", "--seeds", "1"])
    assert code == 3


def test_manifest_and_payload_reproducible(model_path, capsys):
    main(["--format", "json", "bowen", "--model", model_path,
          "--x", "a", "--delta", "1"])
    first = json.loads(capsys.readouterr().out)
    main(["--format", "json", "bowen", "--model", model_path,
          "--x", "a", "--delta", "1"])
    second = json.loads(capsys.readouterr().out)
    assert first["result"] == second["result"]
    assert first["manifest"]["model_sha256"] == second["manifest"]["model_sha256"]
    assert first["manifest"]["version"] == second["manifest"]["version"]


def test_manifest_command_is_the_parsed_argv(model_path, capsys,
                                              monkeypatch):
    monkeypatch.setattr("sys.argv", ["pseudodyn", "extra", "args", "here"])
    argv = ["--format", "json", "bowen", "--model", model_path,
            "--x", "a", "--delta", "1"]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["manifest"]["command"] == " ".join(argv)


def test_manifest_wall_ms_ignores_a_wall_clock_stepping_back(model_path,
                                                             capsys,
                                                             monkeypatch):
    """The elapsed time comes from a monotonic clock: a wall clock that
    steps back an hour between two reads leaves it nonnegative, and the
    result does not change."""
    argv = ["--format", "json", "bowen", "--model", model_path,
            "--x", "a", "--delta", "1"]
    assert main(argv) == 0
    want = json.loads(capsys.readouterr().out)["result"]
    clock = iter(range(10**9, 0, -3600))
    monkeypatch.setattr("time.time", lambda: next(clock))
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["manifest"]["wall_ms"] >= 0
    assert out["result"] == want


def test_cli_closure_past_cap_exits_2(tmp_path, monkeypatch, capsys):
    """A closure past the cap is a capability error (exit 2) that names the
    commands which build no closure, and those give the same exit code and
    result with the cap as without it."""
    labels = [f"p{i}" for i in range(6)]
    doc = {
        "points": labels,
        "dist": [[int(i != j) for j in range(6)] for i in range(6)],
        "generators": [
            {"name": "r", "map": {labels[i]: labels[(i + 1) % 6]
                                  for i in range(6)},
             "core": ["p0", "p1", "p2"]},
            {"name": "s", "map": {"p0": "p1", "p1": "p0"}},
        ],
        "mu": {p: "1/6" for p in labels},
        "phi": {p: p.upper() for p in labels},
    }
    path = tmp_path / "s6.json"
    path.write_text(json.dumps(doc))
    model = ["--model", str(path)]
    commands = [["htop", *model],
                ["entropy", *model, "--x", "p0", "--n-max", "2"],
                ["entropy", *model, "--x", "p0"],
                ["equicont", *model, "--compacted"],
                ["conjugate", *model]]
    commands += [["check", *model, "--what", what]
                 for what in ("invariant", "ergodic", "homogeneous")]
    commands += [["check", *model, "--what", "expansive", "--delta", "1"]]
    commands += [["equicont", *model], ["equicont", *model, "--rho", "1"]]

    def run(argv):
        code = main(["--format", "json", *argv])
        return code, json.loads(capsys.readouterr().out)["result"]

    uncapped = [run(argv) for argv in commands]
    assert all(code != 2 for code, _ in uncapped)
    for code, result in uncapped[5:7]:  # check --what invariant|ergodic
        assert code == 0 and result["ok"] is True
    monkeypatch.setattr(pseudogroup, "CLOSURE_CAP", 100)
    assert main(["ball", *model, "--x", "p0", "--n", "2", "--eps", "1"]) == 2
    err = capsys.readouterr().err
    assert "capability error" in err
    assert ("htop, entropy, check --what "
            "invariant|ergodic|homogeneous|expansive, equicont "
            "and conjugate build none") in err
    assert [run(argv) for argv in commands] == uncapped


@pytest.mark.parametrize("rho, message", [("-1", "radius must be nonnegative"),
                                          ("abc", "cannot parse rational")])
def test_cli_equicont_rejects_rho_before_the_closure(model_path, monkeypatch,
                                                     capsys, rho, message):
    """A bad ``--rho`` is an input error that names the radius, never a
    capability error, even when the closure would pass the cap: equicont
    builds no closure."""
    monkeypatch.setattr(pseudogroup, "CLOSURE_CAP", 5)
    assert main(["equicont", "--model", model_path, "--rho", rho]) == 2
    err = capsys.readouterr().err
    assert message in err and "input error" in err
    assert "capability error" not in err


def test_cli_equicont_answers_past_the_closure_cap(tmp_path, monkeypatch,
                                                   capsys):
    """On the 10-cycle's metric, the rotation and the transposition
    (p0 p1) generate S_10, whose closure passes ``CLOSURE_CAP``.
    ``equicont`` builds no closure, so it and ``equicont --rho 2`` answer
    in under 2 s.  Each bounded delta is the modulus of the pair table at
    its threshold, and each witness word sends its pair, at distance
    delta, to eps or more, where no shorter word sends any modulus pair."""
    n = 10
    assert math.factorial(n) > pseudogroup.CLOSURE_CAP
    labels = [f"p{i}" for i in range(n)]
    swap = {p: p for p in labels} | {"p0": "p1", "p1": "p0"}
    doc = {"points": labels,
           "dist": [[min(abs(i - j), n - abs(i - j)) for j in range(n)]
                    for i in range(n)],
           "generators": [
               {"name": "r", "map": {labels[i]: labels[(i + 1) % n]
                                     for i in range(n)}},
               {"name": "s", "map": swap}]}
    path = tmp_path / "s10.json"
    path.write_text(json.dumps(doc))
    system = parse_model(json.dumps(doc)).system
    space = system.space
    ranks = space.distance_ranks()[0]
    letters = {g.word[0]: g for g in system.generators if g.word}
    grid = space.distance_grid()
    moduli = _moduli(system.constraint_table(), space, range(1, len(grid) + 1))

    def no_closure(*args):
        raise AssertionError("equicont built a word closure")

    monkeypatch.setattr(pseudogroup, "_closure", no_closure)
    results = []
    for extra in ([], ["--rho", "2"]):
        start = time.perf_counter()
        code = main(["--format", "json", "equicont", "--model", str(path),
                     *extra])
        assert code == 0 and time.perf_counter() - start < 2
        results.append(json.loads(capsys.readouterr().out)["result"])
    plain, with_rho = results
    assert with_rho["rows"] == plain["rows"]
    assert with_rho["group_certificate"]["delta"] == "1"
    lengths = []
    for row in plain["rows"]:
        t, witness = space.threshold(Fraction(row["eps"])), row["witness"]
        delta, pairs = moduli[t]
        assert row["delta"] == format_rational(delta)
        x, y = space.index(witness["x"]), space.index(witness["y"])
        assert space.dist[x][y] == delta and (x, y) in pairs
        word = ([] if witness["map"] == "id"
                else witness["map"].split("\u2218")[::-1])
        for letter in word:
            x, y = letters[letter].vals[x], letters[letter].vals[y]
        assert ranks[x][y] >= t
        if word:
            below = (ranks if len(word) == 1
                     else system.constraint_table(len(word) - 1))
            assert all(below[i][j] < t for i, j in pairs)
        lengths.append(len(word))
    assert lengths == [0, 1, 3, 5, 7]
