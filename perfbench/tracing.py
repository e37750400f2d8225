"""In-memory span recorder for the traced benchmark run.

The benchmark changes no program file.  Instead it replaces the public names
of diracbox at the point where each caller looks them up (module globals,
``from x import y`` bindings, and scipy as reached through
``eigsolve.spla``) with wrappers that record a span ``(name, start, end,
parent)`` per call.  Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import functools
import time

_now = time.perf_counter


class Tracer:
    """Process-local span list; wrappers call straight through when disabled."""

    def __init__(self):
        self.enabled = False
        self.unit = None          # index of the benchmark unit being traced
        self.spans = []           # [name, start, end, parent, unit, attrs]
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _now(), None, parent, self.unit, {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    def begin_unit(self) -> int:
        """Enable tracing and open the root span of one benchmark unit."""
        self.enabled = True
        idx = self.open("bench.unit")
        self.spans[idx][4] = self.unit = idx
        return idx

    def end_unit(self, idx: int) -> None:
        self.close(idx)
        self.unit = None
        self.enabled = False

    def wrap(self, fn, name: str, on_result=None):
        """Traced version of ``fn``; ``on_result(attrs, value)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.spans[idx][5]["error"] = type(exc).__name__
                raise
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self.spans[idx][5], out)
            return out

        return traced

    def records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "unit": u,
                 **attrs} for n, s, e, p, u, attrs in self.spans]


class _Proxy:
    """Attribute-delegating stand-in with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer) -> None:
    """Wrap every diracbox entry point the benchmark workloads reach."""
    from diracbox import bounds, cli, eigsolve, formgrid, jopt, symmetry

    def patch(module, attr, name, on_result=None):
        setattr(module, attr,
                tracer.wrap(getattr(module, attr), name, on_result))

    def nnz(attrs, lu):
        attrs["nnz"] = int(lu.nnz)

    def iterations(attrs, sol):
        attrs["iterations"] = int(sol.iterations)

    def hit(attrs, record):
        attrs["hit"] = record is not None

    def restart(attrs, state):
        attrs["converged"] = bool(state.converged)

    def evidence(attrs, ev):
        attrs["degenerate"] = int(ev.degenerate_restarts)

    patch(formgrid, "constraint_map", "formgrid.constraint_map")
    patch(symmetry, "constraint_map", "formgrid.constraint_map")
    patch(cli, "assemble", "formgrid.assemble")
    patch(symmetry, "rotation_map", "symmetry.rotation_map")

    patch(cli, "main", "cli.main")
    patch(cli, "solve_record", "cli.solve_record")
    patch(cli, "cache_get", "cli.cache_get", hit)
    patch(cli, "cache_put", "cli.cache_put")

    patch(cli, "lambda1_2d", "eigsolve.lambda1_2d")
    patch(eigsolve, "_solve_pencil", "eigsolve.solve_pencil", iterations)
    patch(jopt, "_solve_pencil", "eigsolve.solve_pencil", iterations)

    spla = eigsolve.spla
    splu = spla.splu

    def traced_lu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        return _Proxy(lu, solve=tracer.wrap(lu.solve, "eigsolve.lu_solve"))

    eigsolve.spla = _Proxy(
        spla,
        splu=tracer.wrap(traced_lu, "eigsolve.splu", nnz),
        eigsh=tracer.wrap(spla.eigsh, "eigsolve.eigsh"))

    for fn in ("thm_lower", "sharp_lower", "thm_upper"):
        patch(bounds, fn, "bounds." + fn)
    patch(bounds, "nu1", "dirac1d.nu1")

    patch(jopt, "symmetrize", "symmetry.symmetrize")
    patch(jopt, "rotation_deviation", "symmetry.rotation_deviation")
    patch(jopt, "verify_norm_identities", "symmetry.verify_norm_identities")
    patch(jopt, "probe_conjecture_symmetry", "jopt.probe_conjecture_symmetry",
          evidence)
    patch(jopt, "fixed_point_minimize", "jopt.fixed_point_minimize", restart)
    patch(jopt, "euler_solve", "jopt.euler_solve")


# ----------------------------------------------------------------------
# per-layer metrics from the span list
# ----------------------------------------------------------------------

SETUP_LAYERS = {
    "formgrid.constraint_map_s": "formgrid.constraint_map",
    "formgrid.assemble_s": "formgrid.assemble",
    "symmetry.rotation_map_s": "symmetry.rotation_map",
}

# Program entry points the benchmark calls; the share of a unit spent in
# their named children is the trace coverage.
ENTRY_SPANS = ("cli.main", "cli.solve_record", "jopt.probe_conjecture_symmetry")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, unit_spans: list) -> dict:
    """Per-layer metrics: set-up layers over the set-up phase, the rest as a
    mean over the traced units (``unit_spans`` are their root span indices).
    """
    dur = [(e - s) if e is not None else 0.0 for _, s, e, _, _, _ in spans]
    child = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        if sp[3] is not None:
            child[sp[3]] += dur[i]

    out = {}
    for metric, name in SETUP_LAYERS.items():
        out[metric] = sum(dur[i] for i, sp in enumerate(spans)
                          if sp[0] == name and sp[4] is None)

    units = set(unit_spans)
    per_unit = [i for i, sp in enumerate(spans)
                if sp[4] in units and i not in units]
    k = max(len(units), 1)

    def named(name):
        return [i for i in per_unit if spans[i][0] == name]

    def busy(*names):
        return sum(dur[i] for i in per_unit if spans[i][0] in names) / k

    def calls(*names):
        return sum(1 for i in per_unit if spans[i][0] in names) / k

    def self_time(prefix):
        return sum(dur[i] - child[i] for i in per_unit
                   if spans[i][0].startswith(prefix)) / k

    def is_eig(i):
        return i is not None and spans[i][0].startswith("eigsolve.")

    # outermost eigsolve spans: lambda1_2d on the CLI path, the pencil
    # solve on the jopt path (where the form build belongs to euler_solve)
    solve_s = sum(dur[i] for i in per_unit
                  if is_eig(i) and not is_eig(spans[i][3])) / k
    splu = named("eigsolve.splu")
    gets = named("cli.cache_get")
    hits = sum(1 for i in gets if spans[i][5].get("hit")) / k
    restarts = named("jopt.fixed_point_minimize")
    converged = sum(1 for i in restarts if spans[i][5].get("converged"))
    max_nnz = max((spans[i][5]["nnz"] for i in splu), default=0)

    out.update({
        "eigsolve.solve_calls": calls("eigsolve.solve_pencil"),
        "eigsolve.solve_s": solve_s,
        "eigsolve.self_s": solve_s - busy("eigsolve.splu", "eigsolve.eigsh"),
        "eigsolve.splu_calls": calls("eigsolve.splu"),
        "eigsolve.splu_s": busy("eigsolve.splu"),
        "eigsolve.factor_nnz": max_nnz,
        "eigsolve.factor_mb": max_nnz * (16 + 4) / 2**20,
        "eigsolve.eigsh_s": busy("eigsolve.eigsh"),
        "eigsolve.opinv_applications": sum(
            spans[i][5].get("iterations", 0)
            for i in named("eigsolve.solve_pencil")) / k,
        "eigsolve.lu_solves": calls("eigsolve.lu_solve"),
        "bounds.calls": calls("bounds.thm_lower", "bounds.sharp_lower",
                              "bounds.thm_upper"),
        "bounds.s": busy("bounds.thm_lower", "bounds.sharp_lower",
                         "bounds.thm_upper"),
        "dirac1d.nu1_calls": calls("dirac1d.nu1"),
        "dirac1d.nu1_s": busy("dirac1d.nu1"),
        "symmetry.symmetrize_calls": calls("symmetry.symmetrize"),
        "symmetry.symmetrize_s": busy("symmetry.symmetrize"),
        "symmetry.rotation_deviation_s": busy("symmetry.rotation_deviation"),
        "symmetry.norm_identities_s": busy("symmetry.verify_norm_identities"),
        "jopt.rounds": calls("jopt.euler_solve"),
        "jopt.euler_solve_s": busy("jopt.euler_solve"),
        "jopt.converged_frac": _ratio(converged, len(restarts)),
        "jopt.degenerate_restarts": sum(
            spans[i][5].get("degenerate", 0)
            for i in named("jopt.probe_conjecture_symmetry")) / k,
        "jopt.self_s": self_time("jopt."),
        "cli.solve_record_calls": calls("cli.solve_record"),
        "cli.cache_hits": hits,
        "cli.cache_misses": len(gets) / k - hits,
        "cli.cache_hit_ratio": _ratio(hits * k, len(gets)),
        "cli.cache_get_s": busy("cli.cache_get"),
        "cli.cache_put_s": busy("cli.cache_put"),
        "cli.self_s": self_time("cli."),
    })

    coverage = []
    for u in unit_spans:
        entries = [i for i in per_unit
                   if spans[i][3] == u and spans[i][0] in ENTRY_SPANS]
        coverage.append(_ratio(sum(child[i] for i in entries), dur[u]))
    out["trace.coverage"] = min(coverage, default=0.0)
    return out
