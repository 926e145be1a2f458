"""pseudodyn benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload verify|oneshot|session \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  The inputs are a function of
``--seed`` only, and so is the amount of work: one pass over a fixed list
of ops sized to take about ``--seconds`` (see ``workloads.pass_ops``).
The loop issues one op at a time (one client, no threads); every answer
is checked against an independent route after the timed work.

End-to-end metrics (``--trace 0``, last line of standard output):

* ``ops_per_s``: ops per second of op time; ``op_ms_p50`` and
  ``op_ms_tail``, the highest latency with ten samples beyond it (p97.5
  at verify's 400 ops, p98 at 510 or more; the report line gives the
  percentile and the sample count).  All three are at reference speed, see
  ``REFERENCE_S``.
* ``setup_s``: import plus the median of several set-ups (input
  generation, model files, loading, warm-up), at reference speed.
* ``ok_share``: 1 - failed_share, where an op fails if it raises, exits
  with an unexpected code, passes its deadline, answers differently to the
  same request, or fails its check.  A failed op counts as missing every
  latency limit.
* ``peak_rss_mb``: peak resident memory of the process up to the end of
  the timed pass.

With ``--trace 1`` the last line carries the per-layer metrics of
``BENCHMARK.json`` from a separate traced pass (see ``traced_run``); the
line before it reports every layer metric, the tracing overhead and the
work counts.  Spans are written to ``.bench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

SETUP_REPEATS = {"verify": 3, "oneshot": 5, "session": 3}


class OpDeadline(BaseException):
    """Raised by the interval timer inside an op that passed its deadline.
    A BaseException, so the library's own ``except Exception`` handlers
    cannot swallow it."""


class Alarm:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpDeadline()

    def arm(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "pseudodyn", "__init__.py")):
        raise SystemExit(f"perfbench: no library source at {SRC}; run from "
                         "the root of a pseudodyn checkout")
    sys.path.insert(0, SRC)
    import pseudodyn
    import pseudodyn.cli  # noqa: F401  (imports every traced module)
    import pseudodyn.mutations  # noqa: F401
    if not os.path.abspath(pseudodyn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported pseudodyn from {pseudodyn.__file__}, "
                         f"not from {SRC}")
    return pseudodyn


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = {}
    pkg = os.path.join(SRC, "pseudodyn")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                lines[fname[:-3]] = sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "git_commit": git_commit(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository (or
    git is missing)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# Reference kernel: a fixed pure-Python loop (integer arithmetic, tuple
# building, dict updates) that uses no type or code path of the library.
# A shared 2-core Intel Xeon VM running CPython 3.11 was measured changing
# speed by up to 1.7x over seconds to tens of seconds as neighbours on its
# host came and went; the kernel slows down with it, so every time is
# reported at reference speed: wall time x REFERENCE_S / (local kernel
# time).  REFERENCE_S is the kernel's time on that VM in its fast state.
# Raw wall times are kept in the report line.
REFERENCE_S = 0.00019
PROBE_WINDOW = 5
TAIL_BEYOND = 10


def reference_kernel():
    acc = 0
    seen = {}
    for i in range(1, 400):
        acc += i * 7919 % 104729
        key = tuple(range(i % 13))
        seen[key] = seen.get(key, 0) + 1
    return acc


def probe() -> float:
    """Seconds of a warm run of the reference kernel.  The first, untimed
    run takes the cold caches an op leaves behind, and the collector is off
    so that no collection of an op's garbage lands in the timed run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_kernel()
        t = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def speed_factors(probes: list, count: int) -> list:
    """Factor for each of ``count`` intervals, where ``probes[j]`` was taken
    just before interval j and ``probes[j + 1]`` just after it: reference
    time over the median kernel time of the probes around the interval."""
    out = []
    for j in range(count):
        lo = max(0, j - PROBE_WINDOW + 1)
        window = probes[lo:j + PROBE_WINDOW + 1]
        out.append(REFERENCE_S / statistics.median(window))
    return out


def run_setup(wl, tracer=None) -> float:
    t = time.perf_counter()
    if tracer:
        tracer.enabled = True
    try:
        wl.setup()
    finally:
        if tracer:
            tracer.enabled = False
    return time.perf_counter() - t


def run_pass(wl, alarm, n_ops, answers: dict, tracer=None):
    """One closed-loop pass over ops 0..n_ops-1, with a reference probe
    between ops.  ``answers`` keeps the first answer to each distinct
    request; a later answer to the same request must equal it.  Returns
    per-op (wall_s, scaled_s, failure or None)."""
    out = []
    probes = [probe()]
    for k in range(n_ops):
        fn = wl.prepare(k)
        if tracer:
            tracer.begin_op(k, wl.keep_tables)
            tracer.enabled = True
        err = None
        result = None
        t0 = time.perf_counter()
        try:
            alarm.arm(wl.deadline_s)
            result = fn()
            alarm.disarm()
        except OpDeadline:
            err = "deadline"
        except Exception as exc:  # an op that raises is a failed op
            alarm.disarm()
            err = f"raised {exc!r}"
        lat = time.perf_counter() - t0
        if tracer:
            tracer.enabled = False
        if err is None:
            token = wl.token(result)
            key = wl.key(k)
            if key not in answers:
                answers[key] = token
            elif answers[key] != token:
                err = "answer changed"
        del result
        if wl.fresh_heap:
            # a one-shot request starts from a fresh heap, as a new CLI
            # process does: its cyclic garbage (argparse parsers) is not
            # left for a later request to collect or to add to the peak
            # RSS.  Long-lived uses (verify, session) keep the collector's
            # own schedule, so its cost lands inside their ops.
            gc.collect()
        out.append((lat, err))
        probes.append(probe())
    factors = speed_factors(probes, n_ops)
    return [(lat, lat * f, err) for (lat, err), f in zip(out, factors)]


def settle(wl, ops, answers: dict) -> list:
    """Failure reason (or None) of each op.  Each distinct answer is checked
    against the independent route once, after the timed work, so that the
    checks' memory stays out of the peak RSS."""
    verdict = {key: wl.check(key, token) for key, token in answers.items()}
    return [err or verdict.get(wl.key(k)) for k, (_, _, err) in enumerate(ops)]


def latency_summary(lats, errors, deadline_s) -> dict:
    # a failed op misses every latency limit
    lats = sorted(max(lat, deadline_s) if err else lat
                  for lat, err in zip(lats, errors))
    # the tail is the highest latency with ten samples beyond it
    return {"op_ms_p50": statistics.median(lats) * 1000,
            "op_ms_tail": lats[-TAIL_BEYOND - 1] * 1000,
            "tail_percentile": 100.0 * (len(lats) - TAIL_BEYOND) / len(lats),
            "samples": len(lats), "ops_per_s": len(lats) / sum(lats)}


def input_digest(wl, count: int) -> str:
    import gen
    return gen.digest([wl.inputs(k) for k in range(count)])


def layer_metrics(tracer) -> dict:
    self_s = tracer.self_times()
    c = tracer.counts
    out = {}
    for name in tracer.names:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = c[f"{name}.calls"]
    for mod in ("model", "space", "pseudogroup", "dynamics", "measure",
                "equicont", "morphism", "probes", "shift", "cli"):
        out[f"{mod}.raised"] = tracer.raised[mod]
    out["shift.self_s"] = sum(v for k, v in self_s.items() if k.startswith("shift."))
    out["shift.calls"] = sum(v for k, v in c.items()
                             if k.startswith("shift.") and k.endswith(".calls"))
    for prefix in ("pseudogroup.word_closure", "probes.closure_with"):
        out[f"{prefix}.maps"] = c[f"{prefix}.maps"]
        out[f"{prefix}.compositions"] = c[f"{prefix}.compositions"]
        comps = c[f"{prefix}.compositions"]
        out[f"{prefix}.yield"] = c[f"{prefix}.added"] / comps if comps else 0.0
    ct = "pseudogroup.constraint_table"
    out[f"{ct}.cells"] = c[f"{ct}.cells"]
    out[f"{ct}.hit_ratio"] = c[f"{ct}.hits"] / c[f"{ct}.calls"] if c[f"{ct}.calls"] else 0.0
    sc = "dynamics.separated_count"
    out[f"{sc}.exact_share"] = c[f"{sc}.exact"] / c[f"{sc}.calls"] if c[f"{sc}.calls"] else 0.0
    out[f"{sc}.bound_gap"] = c[f"{sc}.bound_gap"]
    out["space.metric_init.points"] = c["space.metric_init.points"]
    return out


def work_counts(tracer) -> dict:
    keys = (".calls", ".maps", ".compositions", ".cells", ".points", ".bound_gap")
    return {k: v for k, v in sorted(tracer.counts.items()) if k.endswith(keys)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="0")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    pd = import_library()
    import_s = time.perf_counter() - T0
    import workloads
    from workloads import MIN_OPS
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    env = environment()
    os.makedirs(OUT, exist_ok=True)
    alarm = Alarm()

    wl = workloads.make(pd, args.workload, args.seed, OUT)
    n_ops = wl.pass_ops(args.seconds)
    probes = [probe() for _ in range(3)]
    setups = []
    for _ in range(SETUP_REPEATS[args.workload]):
        setups.append(run_setup(wl))
        probes.append(probe())
    # import ran before the first probes, each set-up between two of them
    factors = speed_factors(probes[2:], len(setups))
    setup_s = (import_s * REFERENCE_S / statistics.median(probes[:3])
               + statistics.median(s * f for s, f in zip(setups, factors)))
    info = {}
    try:
        if args.trace:
            info = traced_run(pd, wl, args, alarm, setups[-1], n_ops)
            ops, answers = info.pop("ops"), info.pop("answers")
            errors = settle(wl, ops, answers)
            if hasattr(wl, "layer_extras"):
                info["layers"].update(wl.layer_extras())
        else:
            info["rss_before_pass_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            answers = {}
            ops = run_pass(wl, alarm, n_ops, answers)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            t = time.perf_counter()
            errors = settle(wl, ops, answers)
            info["check_wall_s"] = time.perf_counter() - t
        digest = input_digest(wl, n_ops)
    finally:
        wl.teardown()

    failed = [e for e in errors if e]
    summary = latency_summary([s for _, s, _ in ops], errors, wl.deadline_s)
    wall = latency_summary([w for w, _, _ in ops], errors, wl.deadline_s)
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": digest, "ops": n_ops, "latency_samples": summary["samples"],
        "failed_share": len(failed) / n_ops,
        "deadline_hits": failed.count("deadline"),
        "failures": sorted(set(failed))[:10],
        "wall_ops_per_s": wall["ops_per_s"], "wall_op_ms_p50": wall["op_ms_p50"],
        "wall_op_ms_tail": wall["op_ms_tail"],
        "tail_percentile": summary["tail_percentile"], "wall_setup_runs_s": setups,
        "wall_import_s": import_s, "speed_factor_median": statistics.median(
            REFERENCE_S / p for p in probes),
        "skipped_instances": getattr(wl, "skipped", 0),
        "environment": env,
    })
    ok = not failed and n_ops >= MIN_OPS
    if args.trace:
        ok = ok and not info["unreached"] and not info["traced_errors"]
        metrics = {m["name"]: {"value": info["layers"].get(m["name"], 0.0),
                               "unit": m["unit"]} for m in bench["per_layer"]}
    else:
        values = {
            "ops_per_s": summary["ops_per_s"],
            "op_ms_p50": summary["op_ms_p50"],
            "op_ms_tail": summary["op_ms_tail"],
            "setup_s": setup_s,
            "ok_share": 1.0 - info["failed_share"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    info["wall_s"] = time.perf_counter() - T0
    print(json.dumps({"perfbench": info}, sort_keys=True, default=str))
    print(json.dumps({"correct": ok, "attempted": n_ops, "failed": len(failed),
                      "metrics": metrics}))
    return 0


def traced_run(pd, wl_untraced, args, alarm, untraced_setup_s, n_ops) -> dict:
    """One untraced pass, then a fresh set-up and the same pass traced.

    The tracing overhead is the traced time of set-up plus the pass minus
    the untraced time of the same work, both at reference speed.  Every
    count in the traced pass is a function of the seed, so two runs on the
    same seed and code must report equal ``work_counts``.  The untraced
    pass's ops are the ones checked and counted as attempted.
    """
    import tracing
    import workloads

    answers = {}
    before = probe()
    untraced = run_pass(wl_untraced, alarm, n_ops, answers)
    untraced_s = (untraced_setup_s * REFERENCE_S / before
                  + sum(s for _, s, _ in untraced))
    wl_untraced.teardown()

    tracer = tracing.Tracer()
    tracer.install(pd)
    wl = workloads.make(pd, args.workload, args.seed, OUT)
    before = probe()
    traced_setup_s = run_setup(wl, tracer)
    try:
        traced = run_pass(wl, alarm, n_ops, answers, tracer=tracer)
        traced_s = (traced_setup_s * REFERENCE_S / before
                    + sum(s for _, s, _ in traced))
        layers = layer_metrics(tracer)
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_share"] = traced_s / untraced_s - 1.0
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        tracer.dump(path)
    finally:
        wl.teardown()
    return {"layers": layers, "work_counts": work_counts(tracer),
            "unreached": [n for n in wl.reached if not tracer.counts[n + ".calls"]],
            "traced_errors": sorted({e for _, _, e in traced if e}),
            "spans": len(tracer.s_name), "spans_file": os.path.relpath(path, ROOT),
            "ops": untraced, "answers": answers}


if __name__ == "__main__":
    sys.exit(main())
