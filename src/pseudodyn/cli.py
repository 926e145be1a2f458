"""Command-line interface: model ingestion, dispatch, report rendering.

Exit codes: 0 success, 1 negative-but-valid verdict, 2 input error,
3 statement violation.  Every JSON payload is rendered deterministically
(sorted keys, exact rationals as strings) and wrapped in a run manifest
carrying the command line, model hash, seed and library version.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter

from . import __version__
from . import dynamics, equicont, measure, morphism, probes, shift
from .errors import CapabilityError, InputError
from .model import load_iso, load_measure, load_model
from .pseudogroup import PartialMap
from .rational import (check_length, format_rational, is_unbounded,
                       parse_radius, parse_rational)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_VIOLATION = 3


# types a payload renders as they are, and the sequences it maps over:
# dispatched on the exact type before the isinstance chain below
_PLAIN = frozenset({str, int, bool, type(None)})
_SEQUENCES = frozenset({list, tuple})


def to_jsonable(obj):
    cls = type(obj)
    if cls in _PLAIN:
        return obj
    if cls in _SEQUENCES:
        return [to_jsonable(v) for v in obj]
    if cls is dict:
        # sorted by the key strings, each key rendered once
        return {k: to_jsonable(v)
                for k, v in sorted([(_key(k), v) for k, v in obj.items()],
                                   key=itemgetter(0))}
    if isinstance(obj, (int, str)):  # an int or str subclass
        return obj
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if is_unbounded(obj):
        return "unbounded"
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, PartialMap):
        return {
            "name": obj.name,
            "word": obj.word_str(),
            "map": {str(obj.space.label(i)): str(obj.space.label(v))
                    for i, v in enumerate(obj.vals) if v is not None},
        }
    if isinstance(obj, shift.ShiftPoint):
        return {"window": list(obj.window), "background": obj.background}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # rendered as the dict of its fields, its keys sorted like any dict
        return to_jsonable({f.name: getattr(obj, f.name)
                            for f in dataclasses.fields(obj)})
    if isinstance(obj, dict):
        return to_jsonable(dict(obj))
    if isinstance(obj, (frozenset, set)):
        return sorted((to_jsonable(v) for v in obj), key=str)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return repr(obj)


def _key(k) -> str:
    if type(k) is str:
        return k
    if isinstance(k, Fraction):
        return format_rational(k)
    if isinstance(k, tuple):
        return ",".join(_key(v) for v in k)
    return str(k)


def render(payload, fmt: str, manifest: dict | None = None) -> str:
    try:
        data = to_jsonable(payload)
        if fmt == "json":
            doc = {"result": data}
            if manifest:
                doc["manifest"] = manifest
            out = []
            _write_json(doc, out, "\n")
            return "".join(out)
        if fmt == "csv":
            return _render_csv(data)
        return _render_table(data)
    except ValueError as exc:
        # the one ValueError rendering meets: an integer too long to print
        raise CapabilityError(
            "a value has more than the "
            f"{sys.get_int_max_str_digits()} digits Python prints "
            "in an integer") from exc


def _write_json(node, out: list, newline: str) -> None:
    """Append to ``out`` the text ``json.dumps(node, indent=2,
    sort_keys=True)`` gives for a node of ``to_jsonable``'s output (or the
    manifest): one pass, with the two-space indent carried in ``newline``,
    the line break that opens each item at this depth."""
    cls = type(node)
    if cls is str:
        out.append(_encode_str(node))
    elif node is None:
        out.append("null")
    elif node is True:
        out.append("true")
    elif node is False:
        out.append("false")
    elif cls is int:
        # a too-long integer raises ValueError here, as json's encoder does
        out.append(int.__repr__(node))
    elif cls is list or cls is tuple:
        if not node:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in node:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif cls is dict:
        if not node:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(node.items()):
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(node, str):
        out.append(_encode_str(node))
    elif isinstance(node, int):
        out.append(int.__repr__(node))
    else:
        # a float, spelled as json spells it (NaN, Infinity)
        out.append(json.dumps(node))


def _render_csv(data) -> str:
    """Records through ``csv.writer``, which quotes a field holding a
    comma, a quote or a line break; a nested list or dict is compact JSON."""
    buf = io.StringIO()
    write = csv.writer(buf, lineterminator="\n").writerow

    def cell(value) -> str:
        if isinstance(value, (dict, list)):
            return json.dumps(value, separators=(",", ":"))
        return str(value)

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}" if path else str(k))
        elif isinstance(node, list) and node and all(
                isinstance(e, dict) for e in node):
            keys = sorted({k for e in node for k in e})
            write([path or "row"] + keys)
            for e in node:
                write([""] + [cell(e.get(k, "")) for k in keys])
        elif isinstance(node, list):
            write([path, ";".join(map(cell, node))])
        else:
            write([path, cell(node)])

    walk(data, "")
    return buf.getvalue().removesuffix("\n")


def _render_table(data, indent=0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_render_table(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                lines.append(_render_table(v, indent))
                lines.append("")
            else:
                lines.append(f"{pad}- {v}")
        while lines and lines[-1] == "":
            lines.pop()
    else:
        lines.append(f"{pad}{data}")
    return "\n".join(lines)


def _manifest(argv, model, seed, started) -> dict:
    return {
        "command": " ".join(argv),
        "model_sha256": getattr(model, "sha256", None),
        "seed": seed,
        "version": __version__,
        "wall_ms": round((time.perf_counter() - started) * 1000),
    }


# -- command implementations -----------------------------------------------------


def _excluded(space, rep) -> dict:
    """The exclusion evidence of a ball report, keyed by point label."""
    return {str(space.label(y)): {"by": g.word_str() or g.name, "distance": d}
            for y, (g, d) in rep.exclusions.items()}


def _measure(args, model):
    """The measure of ``--measure`` when given, else the model's own."""
    if args.measure:
        return load_measure(args.measure, model.space)
    return model.measure


def cmd_ball(args) -> tuple[int, object]:
    model = load_model(args.model)
    rep = dynamics.dyn_ball(model.system, model.space.index(args.x), args.n,
                            args.eps, closed=args.closed)
    space = model.space
    payload = {
        "center": rep.center,
        "n": rep.n,
        "eps": rep.radius,
        "closed": rep.closed,
        "members": list(space.labels_of(rep.members)),
        "excluded": _excluded(space, rep),
    }
    return EXIT_OK, (payload, model)


def cmd_bowen(args) -> tuple[int, object]:
    model = load_model(args.model)
    rep = dynamics.bowen_ball(model.system, model.space.index(args.x),
                              args.delta)
    space = model.space
    payload = {
        "center": rep.center,
        "delta": rep.radius,
        "stabilized_at": model.system.fixpoint_level,
        "members": list(space.labels_of(rep.members)),
        "excluded": _excluded(space, rep),
    }
    return EXIT_OK, (payload, model)


def _eps_grid(arg: str) -> list[Fraction] | None:
    """None for "auto"; else the grid rule's scales, before the model loads."""
    return None if arg == "auto" else dynamics.parse_grid(arg.split(","))


def cmd_htop(args) -> tuple[int, object]:
    grid = _eps_grid(args.eps_grid)
    model = load_model(args.model)
    table = dynamics.h_top_table(model.system, eps_grid=grid, n_max=args.n_max)
    return EXIT_OK, (table, model)


def cmd_entropy(args) -> tuple[int, object]:
    grid = _eps_grid(args.eps_grid)
    model = load_model(args.model)
    mu = _measure(args, model)
    if mu is None:
        raise InputError("local entropy needs a measure (--measure or 'mu')")
    table = measure.local_entropy(mu, model.system, model.space.index(args.x),
                                  eps_grid=grid, n_max=args.n_max)
    return EXIT_OK, (table, model)


def cmd_check(args) -> tuple[int, object]:
    if args.delta is not None and args.what != "expansive":
        raise InputError(f"--delta is read only by --what expansive, "
                         f"not --what {args.what}")
    if args.delta is None and args.what == "expansive":
        raise InputError("--delta is required for the expansiveness check")
    delta = None if args.delta is None else parse_radius(args.delta)
    model = load_model(args.model)
    mu = _measure(args, model)
    if mu is None:
        raise InputError("checks need a measure (--measure or 'mu')")
    sysm = model.system
    what = args.what
    if what == "invariant":
        rep = measure.is_invariant_measure(mu, sysm)
        return (EXIT_OK if rep.ok else EXIT_NEGATIVE), ({
            "what": what, "ok": rep.ok, "witness": rep.witness}, model)
    if what == "ergodic":
        rep = measure.is_ergodic(mu, sysm)
        return (EXIT_OK if rep.ok else EXIT_NEGATIVE), ({
            "what": what, "ok": rep.ok,
            "components": [sorted(model.space.labels_of(c), key=str)
                           for c in rep.components],
            "witness": None if rep.witness is None
            else sorted(model.space.labels_of(rep.witness), key=str)}, model)
    if what == "homogeneous":
        rep = measure.is_homogeneous(mu, sysm)
        payload = {
            "what": what, "ok": rep.ok,
            "witnesses": {format_rational(e): {
                "delta": w.delta, "c_exact": w.c_exact, "c_ladder": w.c_ladder}
                for e, w in rep.witnesses.items()},
            "counterexample": rep.counterexample,
        }
        return (EXIT_OK if rep.ok else EXIT_NEGATIVE), (payload, model)
    # argparse's choices leave only --what expansive
    rep = measure.expansiveness_verdict(mu, sysm, delta)
    payload = {
        "what": what, "delta": rep.delta,
        "classification": rep.classification,
        "ball_measures": rep.ball_measures,
        "zero_set": sorted(model.space.labels_of(rep.zero_set), key=str),
        "atoms": sorted(model.space.labels_of(rep.atoms), key=str),
        "note": rep.note,
    }
    # a finite measure has an atom, so the verdict is always "neither"
    return EXIT_NEGATIVE, (payload, model)


def cmd_conjugate(args) -> tuple[int, object]:
    model = load_model(args.model)
    iso = model.iso
    if args.iso:
        iso = load_iso(args.iso, model.space)
    if iso is None:
        raise InputError("conjugation needs an iso (--iso or 'phi')")
    rep = morphism.compare_entropy(model.system, iso)
    payload = {
        "isometric": rep.isometric,
        "forward_ok": rep.forward_ok,
        "backward_ok": rep.backward_ok,
        "tables_equal": rep.tables_equal,
        "counts_src": {f"n={n} eps={format_rational(e)}": c
                       for (n, e), c in rep.counts_src.items()},
        "counts_dst": {f"n={n} eps={format_rational(e)}": c
                       for (n, e), c in rep.counts_dst.items()},
    }
    ok = rep.forward_ok and rep.backward_ok and rep.tables_equal is not False
    return (EXIT_OK if ok else EXIT_VIOLATION), (payload, model)


def cmd_equicont(args) -> tuple[int, object]:
    if args.compacted and args.rho is not None:
        raise InputError("--rho is not read with --compacted, which checks "
                         "every grid rho")
    model = load_model(args.model)
    sysm = model.system
    if args.compacted:
        rep = equicont.no_expansive_certificate_good(sysm)
        payload = {"mode": "core-restricted", "rows": rep.rows,
                   "conclusion": rep.conclusion}
        return EXIT_OK, (payload, model)
    rho = None if args.rho is None else parse_radius(args.rho)
    cert = equicont.equicontinuity_modulus(sysm)
    rows = []
    for e, d in cert.table.items():
        g, x, y = cert.witnesses[e]
        rows.append({"eps": e, "delta": d, "witness": {
            "map": g.word_str() or g.name, "x": str(x), "y": str(y)}})
    # audit_ok and inclusion_ok hold by construction and the tests keep the
    # audit; the keys stay because the benchmark oracle reads them
    payload = {"mode": "closure", "isometric": cert.isometric, "rows": rows,
               "audit_ok": True}
    if rho is not None:
        if all(g.is_total() for g in sysm.generators):
            rep = equicont.no_expansive_certificate_group(sysm, rho)
            payload["group_certificate"] = {
                "rho": rep.rho, "delta": rep.delta, "inclusion_ok": True,
                "conclusion": rep.conclusion,
            }
        else:
            # the core-restricted certificate needs cores to run
            payload["group_certificate"] = (
                "generators not total; use --compacted" if sysm.has_cores
                else "generators not total")
    return EXIT_OK, (payload, model)


def cmd_shift(args) -> tuple[int, object]:
    if args.shift_command == "htop":
        rep = shift.htop_shift(args.eps, args.n)
        payload = {
            "eps": rep.eps, "n": rep.n,
            "count_lower": rep.lower, "count_upper": rep.upper,
            "rate_lower_log2": rep.rate_lower_log2_coeff,
            "rate_upper_log2": rep.rate_upper_log2_coeff,
            "limit": "2 log 2",
        }
        return EXIT_OK, (payload, None)
    spec = shift.BernoulliSpec(args.p)
    if args.shift_command == "entropy":
        val = shift.measure_entropy_shift(spec, args.eps, args.n)
        payload = {
            "eps": val.eps, "n": val.n, "window_radius": val.s,
            "ball_interval": val.ball.interval,
            "ball_measure": val.ball_measure,
            "log2_multiple": val.log2_coeff,
            "value": val.value,
            "limit_log2_multiple": val.limit_log2_coeff,
            "limit": "2 log 2" if val.limit_log2_coeff == 2 else val.limit_value,
        }
        return EXIT_OK, (payload, None)
    if args.shift_command == "ball":
        x = shift.ShiftPoint.from_string(args.x, center=args.center)
        eps = parse_rational(args.eps)
        cyl = shift.dyn_ball_cylinder(x, args.n, eps)
        sandwich = shift.dyn_ball_cylinder_bounds(x, args.n, eps)
        payload = {
            "x": x, "n": args.n, "eps": eps,
            "cylinder": {"interval": cyl.interval, "block": list(cyl.block)},
            "inner_interval": sandwich.inner.interval,
            "outer_interval": None if sandwich.outer is None
            else sandwich.outer.interval,
            "measure": shift.cylinder_measure(cyl, spec),
        }
        return EXIT_OK, (payload, None)
    # the sub-commands are required, so this is shift bowen
    x = shift.ShiftPoint.from_string(args.x, center=args.center)
    rep = shift.bowen_ball_shift(x, args.delta, spec=spec)
    payload = {
        "delta": rep.delta, "singleton": rep.singleton,
        "measure_zero": rep.measure_zero,
        "measure_bounds": [{"n": n, "bound": b}
                           for n, b in rep.measure_bounds],
        "witness": rep.non_singleton_witness,
        "note": rep.note,
    }
    code = EXIT_OK if rep.singleton else EXIT_NEGATIVE
    return code, (payload, None)


def cmd_probe(args) -> tuple[int, object]:
    if args.survey and args.statements is not None:
        raise InputError("--statements is not read with --survey")
    check_length(args.seeds, "--seeds")
    spec = probes.InstanceSpec(seed=args.seed, count=args.seeds)
    if args.survey:
        survey = probes.question_probe(args.survey, spec)
        payload = {
            "survey": survey.topic, "instances": survey.instances,
            "agreements": survey.agreements,
            "disagreements": survey.disagreements,
            "note": survey.note,
        }
        return EXIT_OK, (payload, None)
    statements = ("all" if args.statements in (None, "all")
                  else args.statements.split(","))
    reports = probes.run_suite(spec, statements=statements)
    payload = {
        "seeds": args.seeds,
        "statements": {
            name: {
                "instances": rep.instances,
                "vacuous": rep.vacuous,
                "substantive": rep.substantive,
                "violations": [
                    {"index": v.index, "witness": v.witness,
                     "shrunk_size": v.shrunk_size,
                     "shrunk_witness": v.shrunk_witness}
                    for v in rep.violations
                ],
            }
            for name, rep in reports.items()
        },
    }
    bad = any(rep.violations for rep in reports.values())
    return (EXIT_VIOLATION if bad else EXIT_OK), (payload, None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="pseudodyn",
        description="Exact dynamical balls, entropy and expansiveness "
                    "verdicts for finitely generated systems of partial maps",
    )
    parser.add_argument("--format", choices=["table", "json", "csv"],
                        default="table")
    # also after each command, the innermost winning: a sub-parser copies
    # its namespace over its parent's, so it sets no default of its own
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["table", "json", "csv"],
                        default=argparse.SUPPRESS)

    def with_common(**kw):
        return argparse.ArgumentParser(parents=[common], **kw)

    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=with_common)

    p = sub.add_parser("ball", help="dynamical n-ball")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--closed", action="store_true")

    p = sub.add_parser("bowen", help="stabilized Bowen ball")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--delta", required=True)

    p = sub.add_parser("htop", help="separated-count table")
    p.add_argument("--model", required=True)
    p.add_argument("--eps-grid", default="auto")
    p.add_argument("--n-max", type=int, default=8)

    p = sub.add_parser("entropy", help="local measure entropy table")
    p.add_argument("--model", required=True)
    p.add_argument("--measure")
    p.add_argument("--x", required=True)
    p.add_argument("--eps-grid", default="auto")
    p.add_argument("--n-max", type=int, default=None)

    p = sub.add_parser("check", help="measure verdicts")
    p.add_argument("--model", required=True)
    p.add_argument("--measure")
    p.add_argument("--what", required=True,
                   choices=["invariant", "ergodic", "homogeneous", "expansive"])
    p.add_argument("--delta")

    p = sub.add_parser("conjugate",
                       help="separated-count transfer across a bijection")
    p.add_argument("--model", required=True)
    p.add_argument("--iso")

    p = sub.add_parser("equicont", help="equicontinuity certificates")
    p.add_argument("--model", required=True)
    p.add_argument("--compacted", action="store_true")
    p.add_argument("--rho")

    p = sub.add_parser("shift", help="full binary shift computations")
    shift_sub = p.add_subparsers(dest="shift_command", required=True,
                                 parser_class=with_common)
    q = shift_sub.add_parser("entropy")
    q.add_argument("--eps", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", default="1/2")
    q = shift_sub.add_parser("ball")
    q.add_argument("--x", required=True)
    q.add_argument("--center", type=int, default=0)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--eps", required=True)
    q.add_argument("--p", default="1/2")
    q = shift_sub.add_parser("bowen")
    q.add_argument("--x", required=True)
    q.add_argument("--center", type=int, default=0)
    q.add_argument("--delta", required=True)
    q.add_argument("--p", default="1/2")
    q = shift_sub.add_parser("htop")
    q.add_argument("--eps", required=True)
    q.add_argument("--n", type=int, required=True)

    for name in ("probe", "verify"):
        p = sub.add_parser(name, help="randomized statement conformance suite")
        p.add_argument("--seeds", type=int, default=500)
        p.add_argument("--seed", default="0")
        p.add_argument("--statements")
        p.add_argument("--survey", choices=probes.QUESTION_TOPICS)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    handlers = {
        "ball": cmd_ball,
        "bowen": cmd_bowen,
        "htop": cmd_htop,
        "entropy": cmd_entropy,
        "check": cmd_check,
        "conjugate": cmd_conjugate,
        "equicont": cmd_equicont,
        "shift": cmd_shift,
        "probe": cmd_probe,
        "verify": cmd_probe,
    }
    try:
        code, (payload, model) = handlers[args.command](args)
        seed = getattr(args, "seed", None)
        manifest = _manifest(argv, model=model, seed=seed, started=started)
        text = render(payload, args.format, manifest=manifest)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
