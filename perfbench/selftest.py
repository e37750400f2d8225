"""Self-test of the benchmark at n=12, where diracbox takes the dense path.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json prints by name with its unit on
every workload, traced and untraced; that the gate passes real outputs and
trips on a perturbed reference value; and that a seed regenerates identical
inputs.  Exits 0 when every check passes.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
N = 12

sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402


def check_printed_metrics(spec, failures):
    for name in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--n", str(N)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}\n"
                                + proc.stderr[-2000:])
                continue
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(last)}")
            if not (last["correct"] and last["attempted"] >= 1
                    and last["failed"] == 0):
                failures.append(f"{where}: not correct: {last}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics {got} != {want}")
            for key, unit in want.items():
                if f"# {key} = " not in proc.stdout or \
                        not isinstance(last["metrics"][key]["value"],
                                       (int, float)):
                    failures.append(f"{where}: {key} [{unit}] not printed")


def check_gate(workdir, failures):
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, N, os.path.join(workdir, name))
        os.makedirs(wl.workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            wl.prepare()
            wl.before_unit()
            out = wl.unit()
        if any(wl.check(out)):
            failures.append(f"{name}: gate rejects a correct output")
        values = wl.values(out)
        if workloads.check_reference(values, values):
            failures.append(f"{name}: gate rejects its own values")
        perturbed = list(values)
        perturbed[-1] *= 1.0 + 1e-8
        if not workloads.check_reference(values, perturbed):
            failures.append(f"{name}: a perturbed reference passes the gate")


def check_seeds(workdir, failures):
    for name, cls in workloads.WORKLOADS.items():
        first = cls(7, N, workdir).inputs()
        if first != cls(7, N, workdir).inputs():
            failures.append(f"{name}: seed 7 gives different inputs")
        if first == cls(8, N, workdir).inputs():
            failures.append(f"{name}: seeds 7 and 8 give the same inputs")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-",
                               dir=os.path.join(ROOT, ".perfbench"))
    os.environ["DIRACBOX_CACHE_DIR"] = os.path.join(workdir, "cache")
    failures = []
    try:
        check_seeds(workdir, failures)
        check_gate(workdir, failures)
        check_printed_metrics(spec, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print("FAIL", f)
    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
