"""Self-checks of the benchmark itself.

    python3 perfbench/checks.py determinism
        Runs every workload traced twice on seed DETERMINISM_SEED and requires
        identical work counts of the traced pass (maps, compositions,
        cells, calls, points, bound_gap) and an identical digest of the
        generated inputs.

    python3 perfbench/checks.py mutations
        Runs MUTATION_OPS verify ops with each operation set in
        ``pseudodyn.mutations.MUTATIONS`` and with ``DEFAULT_OPS``: the
        correctness gate must fail some ops under every mutation and none
        under the production operations.

Run from the root of a checkout.  Exits 1 when a check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

DETERMINISM_SEED = "0"
MUTATION_OPS = 40


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", DETERMINISM_SEED, "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise SystemExit(f"{workload}: run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    info = json.loads(lines[-2])["perfbench"]
    return {"counts": info["work_counts"], "digest": info["inputs_sha256"],
            "correct": json.loads(lines[-1])["correct"]}


def determinism() -> bool:
    ok = True
    for workload in workloads.WORKLOADS:
        a = traced_counts(workload)
        b = traced_counts(workload)
        diff = sorted(k for k in set(a["counts"]) | set(b["counts"])
                      if a["counts"].get(k) != b["counts"].get(k))
        same = not diff and a["digest"] == b["digest"] and a["correct"] and b["correct"]
        ok = ok and same
        print(f"{workload:8s} counts={len(a['counts'])} equal={not diff} "
              f"digest_equal={a['digest'] == b['digest']} "
              f"correct={a['correct'] and b['correct']} {diff[:5]}", flush=True)
    return ok


def mutations() -> bool:
    pd = run.import_library()
    from pseudodyn.mutations import MUTATIONS
    from pseudodyn.probes import DEFAULT_OPS
    alarm = run.Alarm()
    ok = True
    for name, ops in [("DEFAULT_OPS", DEFAULT_OPS)] + list(MUTATIONS.items()):
        wl = workloads.Verify(pd, "mutations", ops=ops)
        wl.setup()
        answers = {}
        ops_run = run.run_pass(wl, alarm, MUTATION_OPS, answers)
        share = sum(1 for err in run.settle(wl, ops_run, answers) if err) / MUTATION_OPS
        good = share == 0 if ops is DEFAULT_OPS else share > 0
        ok = ok and good
        print(f"{name:28s} failed_share={share:.3f} {'ok' if good else 'GATE DID NOT FAIL' if share == 0 else 'FAILED'}",
              flush=True)
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("check", choices=("determinism", "mutations"))
    args = ap.parse_args()
    good = determinism() if args.check == "determinism" else mutations()
    print("PASS" if good else "FAIL")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
