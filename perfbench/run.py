"""diracbox benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload solve_n128 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; diracbox is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary.  The exit code is
0 only when every output passed the correctness gate.

Each run starts fresh child processes (see worker.py) with BLAS capped at
one thread: set-up probes, then the workload itself, so per-grid caches are
cold and set-up time and peak memory belong to the workload.  Caches and
outputs live in ``.perfbench/`` under the checkout; the run record with its
environment and spans goes to ``.perfbench/runs/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 2          # plus the workload process itself: 3 samples
DEADLINE_S = 170.0        # the whole run, children included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="diracbox benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int,
                   help="grid size override, for the self-test only")
    return p.parse_args(argv)


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(args, tmp, env, deadline) -> dict:
    out = os.path.join(tmp, f"child{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--out", out] + args
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded the run deadline: {cmd}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child failed with exit code {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.monotonic()
    deadline = t_start + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "diracbox", "__init__.py")):
        print(f"error: no diracbox sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    n = args.n or WORKLOADS[args.workload].n

    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    # Never the user's cache: its key has no solver version, so a stale
    # record would be served silently.  Sweeps take a fresh one per unit.
    env = dict(os.environ, DIRACBOX_CACHE_DIR=os.path.join(tmp, "cache"),
               **{v: "1" for v in THREAD_VARS})
    load_start = os.getloadavg()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_child(["--n", str(n)], tmp, env,
                                        deadline)["setup_s"])
        res = run_child(
            ["--n", str(n), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", tmp],
            tmp, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(res.pop("setup_s"))

    if args.trace:
        values = res["layers"]
    else:
        values = {"wall_s": res["wall_s"],
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = res["failed"] == 0 and not missing
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    record = {
        "workload": args.workload, "seed": args.seed, "n": n,
        "seconds": args.seconds, "trace": args.trace,
        "git_revision": git_revision(),
        "thread_caps": {v: env[v] for v in THREAD_VARS},
        "load_avg_start": load_start, "load_avg_end": os.getloadavg(),
        "setup_samples_s": setups, "metrics": metrics, **res,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "runs", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    summary = {k: v for k, v in record.items()
               if k not in ("spans", "metrics", "layers")}
    print("# run " + json.dumps(summary))
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_frac = {res['failed']}/{res['attempted']} operations")
    for problem in res["problems"]:
        print(f"# FAILED: {problem}")
    if missing:
        print(f"# MISSING metrics: {', '.join(missing)}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
