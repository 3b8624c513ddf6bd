#!/usr/bin/env python3
"""Benchmark of digraphwalk: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload paper_tables --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json; with --trace 1 they are the per-layer ones, from a run
that times every public function of the package (see tracing.py) and writes
its spans to bench/out/.

Each run does its work in a fresh single-threaded child process that imports
the package from src/.  Whole rounds of the workload's fixed work repeat
while another round fits in --seconds of timed work; the outputs of each
round are checked after it, outside the timing.  Set-up time (process start to the
first timed operation) is taken in several more children that stop after
set-up; the median is reported.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("paper_tables", "regular_supports", "walk_queries")
SETUP_PROBES = 4          # children that only set up; the timed child is one more
DEADLINE_S = 170          # the whole run, children included
CHILD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- parent -------------------------------------------------------------------------------


def run_child(args, role: str, deadline: float) -> dict:
    t0 = time.time()
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child", role, "--t0", repr(t0)]
    proc = subprocess.run(cmd, env=dict(os.environ, **CHILD_ENV), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{role} child printed no result")
    return json.loads(lines[-1])


def parent(args) -> int:
    if not (SRC / "digraphwalk" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'digraphwalk'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [run_child(args, "setup", deadline)["setup_s"]
                                        for _ in range(SETUP_PROBES)]
        res = run_child(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for line in res["problems"]:
        print("bench: CHECK FAILED:", line, file=sys.stderr)
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": (res["wall_s"], "s"),
            "setup_s": (statistics.median(setups + [res["setup_s"]]), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "ops_per_s": (res["ops_per_s"], "ops/s"),
            "support_s": (res["support_s"], "s"),
            "rest_s": (res["rest_s"], "s"),
        }
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# -- child --------------------------------------------------------------------------------


def child(args) -> int:
    import resource

    import digraphwalk

    if Path(digraphwalk.__file__).resolve().parent != SRC / "digraphwalk":
        print(f"bench: imported digraphwalk from {digraphwalk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import NullTracer, Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    setup_s = time.time() - args.t0
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # Rounds repeat while another one fits in --seconds; there is always one.
    times, problems = [], []
    attempted = failed = 0
    peak_kb = 0
    while not times or sum(map(sum, times)) * (len(times) + 1) / len(times) <= args.seconds:
        rnd = wl.run(tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracer.enabled = False
        verdict = wl.check(rnd)
        tracer.enabled = True
        attempted += len(rnd.times)
        failed += verdict.failed
        problems.extend(verdict.problems[:20])
        times.append(rnd.times)
        support, rated = rnd.support, rnd.rated
        del rnd, verdict
    # Each operation's time is its median over the rounds, which drops most of
    # a burst of load from elsewhere on the machine that hits one round only.
    med = [statistics.median(ts) for ts in zip(*times)]
    out = {"setup_s": setup_s, "attempted": attempted, "failed": failed,
           "problems": problems, "peak_rss_mb": peak_kb / 1024.0,
           "round_s": [sum(ts) for ts in times],
           "wall_s": sum(med),
           "support_s": sum(m for m, s in zip(med, support) if s),
           "rest_s": sum(m for m, s in zip(med, support) if not s),
           "ops_per_s": sum(rated) / sum(m for m, r in zip(med, rated) if r)}
    if args.trace:
        out["layers"] = tracer.layer_metrics(len(times))
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "round_s": out["round_s"], "wall_s": out["wall_s"],
                           "layers": out["layers"]})
        print(f"bench: traced wall_s {out['wall_s']:.3f}; spans in {path}", file=sys.stderr)
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
