#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py [--seconds S] [--workloads kernels,large,serve]

For each workload it checks that
  - the metric names printed match BENCHMARK.json (end_to_end with
    --trace 0, per_layer with --trace 1), with the same units;
  - two runs with the same seed report exactly equal deterministic
    metrics (spill cycles, allocator counters, dynamic-count deltas,
    verifier counts);
  - a second seed runs with no failed operation;
  - the traced run's trace file parses as Chrome trace-event JSON.
It also checks the large corpus's fixed statement budgets against
Scale.stmts_for, and that the command fails without printing a result
in a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DETERMINISTIC_E2E = ["spill_cycles", "ssa_spill_cycles"]
DETERMINISTIC_PREFIXES = ["sim.", "ssa_sim."]
DETERMINISTIC_LAYER = [
    "remat.rounds", "remat.full_builds", "remat.liveness_runs",
    "remat.node_merges", "remat.build_pairs", "remat.build_dupe_ratio",
    "remat.build_overlay", "remat.briggs_accept_ratio",
    "remat.select_partner_hits", "remat.select_lookahead_hits",
    "remat.select_fallbacks", "remat.spilled_memory", "remat.spilled_remat",
    "remat.coalesced_copies", "verify.uses_checked", "verify.remats_checked",
]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, seconds, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return p.returncode, result


def names_units(specs):
    return [(s["name"], s["unit"]) for s in specs]


def printed(result):
    return [(k, v["unit"]) for k, v in result["metrics"].items()]


def deterministic(name):
    return (name in DETERMINISTIC_E2E or name in DETERMINISTIC_LAYER
            or any(name.startswith(p) for p in DETERMINISTIC_PREFIXES))


def test_workload(bench, workload, seconds):
    runs = {}
    for trace in (0, 1):
        for attempt in (1, 2):
            code, result = run(workload, 1, seconds, trace)
            ok = code == 0 and result is not None
            check(ok, "%s trace %d run %d exits 0 with a result"
                  % (workload, trace, attempt))
            if not ok:
                return
            check(result["correct"] and result["failed"] == 0,
                  "%s trace %d run %d: no failed operation (%d attempted)"
                  % (workload, trace, attempt, result["attempted"]))
            runs[(trace, attempt)] = result
    check(printed(runs[(0, 1)]) == names_units(bench["end_to_end"]),
          "%s: end-to-end names and units match BENCHMARK.json" % workload)
    check(printed(runs[(1, 1)]) == names_units(bench["per_layer"]),
          "%s: per-layer names and units match BENCHMARK.json" % workload)
    for trace in (0, 1):
        a = runs[(trace, 1)]["metrics"]
        b = runs[(trace, 2)]["metrics"]
        differ = [k for k in a if deterministic(k) and k in b
                  and a[k]["value"] != b[k]["value"]]
        check(not differ, "%s trace %d: deterministic metrics repeat exactly%s"
              % (workload, trace, (" (differ: %s)" % differ) if differ else ""))
    code, result = run(workload, 2, seconds, 0)
    check(code == 0 and result is not None and result["failed"] == 0,
          "%s: seed 2 runs with no failed operation" % workload)
    path = os.path.join(ROOT, "perfbench", "out", "trace-%s.json" % workload)
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        ok = bool(events) and all(
            "name" in e and "ph" in e and "ts" in e for e in events)
    except (OSError, ValueError, KeyError, TypeError):
        ok = False
    check(ok, "%s: trace file parses as Chrome trace-event JSON" % workload)


def test_bare_directory(seconds):
    """Only BENCHMARK.json and perfbench/: the command must fail."""
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "perfbench", "out")) as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, result = run("kernels", 1, seconds, 0, cwd=d)
    check(code != 0 and result is None,
          "bare directory: exits non-zero without a result")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("--workloads", default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    p = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                        "--check-calibration"], cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    check(p.returncode == 0, "large corpus budgets equal Scale.stmts_for")
    for w in workloads:
        test_workload(bench, w, args.seconds)
    test_bare_directory(args.seconds)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
