"""Child process of the benchmark: one set-up probe or one workload run.

    python3 perfbench/worker.py --n 64 --out FILE                 # set-up only
    python3 perfbench/worker.py --n 64 --out FILE --workload NAME \
        --seed S --seconds T --trace 0|1 --workdir DIR

Set-up is timed from before ``import diracbox`` to the end of the per-grid
state (constraint map, assembly, rotation map), in this fresh process.  A
workload run then repeats its unit until ``--seconds`` would be exceeded.
With ``--trace 1`` the first unit runs untraced and the rest traced; their
difference is the tracing overhead.  The result goes to ``--out`` as JSON.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir")
    return p.parse_args(argv)


def environment() -> dict:
    import platform

    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from diracbox import cli, formgrid, symmetry
    import_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
        tracer.enabled = True
    t1 = time.perf_counter()
    formgrid.constraint_map(args.n)
    cli._form_matrices(args.n)
    symmetry.rotation_map(args.n)
    setup_s = import_s + time.perf_counter() - t1
    tracer.enabled = False

    result = {"setup_s": setup_s}
    if args.workload:
        result.update(run_workload(args, tracer))
        result["env"] = environment()
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_workload(args, tracer) -> dict:
    wl = workloads.WORKLOADS[args.workload](args.seed, args.n, args.workdir)
    wl.prepare()
    reference = workloads.load_reference(wl.name, args.seed, args.n)

    plain, traced, roots = [], [], []
    attempted = failed = 0
    problems = []
    first_values = None
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and bool(plain)
        wl.before_unit()
        # As timeit does, collect between units and pause the cyclic
        # collector within one, so a unit's time and peak memory do not
        # depend on where a collection happens to fall.  Each solve leaves
        # its factorizations in reference cycles, so the peak includes them.
        gc.collect()
        gc.disable()
        root = tracer.begin_unit() if trace_this else None
        t = time.perf_counter()
        try:
            out, err = wl.unit(), None
        except Exception as exc:       # a failed operation, reported below
            out, err = None, exc
        dt = time.perf_counter() - t
        gc.enable()
        if trace_this:
            tracer.end_unit(root)
            roots.append(root)
            traced.append(dt)
        else:
            plain.append(dt)

        ops = wl.operations()
        attempted += ops
        if err is not None:
            failed += ops
            problems.append(f"unit raised {type(err).__name__}: {err}")
            break
        try:
            per_op = wl.check(out)
            values = wl.values(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            per_op = [[f"unreadable output: {exc!r}"]] * ops
            values = None
        # Wrong values fail the unit's operations as a whole: a repeat that
        # differs from the first, or a mismatch with the stored reference.
        whole = []
        if first_values is None:
            first_values = values
            if reference is not None and values is not None:
                whole = workloads.check_reference(values, reference)
        elif values != first_values:
            whole = ["output differs from the first repeat"]
        if whole:
            per_op = [p + whole for p in per_op]
        failed += sum(1 for p in per_op if p)
        problems += [p for op in per_op for p in op][:20]

        elapsed = time.perf_counter() - start
        typical = statistics.median(plain + traced)
        if args.trace and not traced:
            continue
        if elapsed + typical > args.seconds:
            break

    res = {
        "unit_s": plain,
        "traced_unit_s": traced,
        "wall_s": statistics.median(plain),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "reference_checked": reference is not None,
        "values": first_values,
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, roots) if traced else {}
        if traced:
            layers["trace.overhead_s"] = (statistics.median(traced)
                                          - res["wall_s"])
        res["layers"] = layers
        res["spans"] = tracer.records()
    return res


if __name__ == "__main__":
    sys.exit(main())
