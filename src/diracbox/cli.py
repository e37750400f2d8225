"""Command-line frontend: solves, bound reports, sweeps, symmetry, J-runs.

Subcommands: ``solve``, ``sweep``, ``bounds``, ``symmetry``, ``jopt``,
``refine``.  One table, ``_OPTIONS``, declares every option's type and
default; the parser's flags, the ``key=value`` config file and the defaults
all read it, so a config value gets the same type and choice checks as its
flag.  Each subcommand takes only the flags its handler reads
(``_COMMANDS``), while a config key may name any option, since one file
serves every subcommand.  Precedence is command-line flags over the config
file over the defaults.  Numbers are serialised with 17 significant digits
so every emitted float round-trips; solve results are cached as JSON records
keyed by a content hash of ``(a, b, m, n, tol, seed)`` and the solver
version, in the directory named by the ``DIRACBOX_CACHE_DIR`` environment
variable (default ``~/.cache/diracbox``), which makes repeated runs
byte-identical including their wall-time fields: ``wall_time_ms`` is the
time of the original compute, replayed on every cache hit.

Exit codes: 0 success, 2 argument error, 3 solver failure, 4 symmetry
resolution failure, 5 internal consistency violation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from . import bounds as bounds_mod
from . import jopt as jopt_mod
from . import symmetry as symmetry_mod
from .eigsolve import ground_cluster, lambda1_2d, refine_study
from .errors import ClusterResolutionError, ConsistencyError, SolverError
from .formgrid import (
    FormMatrices,
    _check_weights,
    assemble,
    build_grid,
    norm_parts,
    parts_quotient,
    trial_dirichlet,
)
from .tensor import mass_inverse

__all__ = ["main"]

CSV_HEADER = ("a,b,m,n,mu,lambda1,thm_lower,sharp_lower,thm_upper,"
              "residual,iterations,wall_time_ms,seed")

# ----------------------------------------------------------------------
# canonical serialisation: 17 significant digits, sorted keys
# ----------------------------------------------------------------------

def format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialise non-finite number {x!r}")
    return format(x, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [canonical_json(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f'{inner}"{key}": {canonical_json(obj[key], indent + 2)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _write(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def emit(record: dict, out_path: str | None) -> None:
    _write(canonical_json(record) + "\n", out_path)


# ----------------------------------------------------------------------
# results cache
# ----------------------------------------------------------------------

def cache_root() -> str:
    return os.environ.get(
        "DIRACBOX_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "diracbox"))


# Part of every cache key, never of a record.  Change it whenever a solver
# change alters any computed number, even in the last bits, so records
# computed by older code miss instead of being served.
SOLVER_VERSION = "17"


def _cache_key(params: dict) -> str:
    salted = SOLVER_VERSION + "\n" + canonical_json(params)
    return hashlib.sha256(salted.encode()).hexdigest()


def cache_get(params: dict):
    """The cached record for ``params``; None on a miss or an unreadable entry.

    A truncated or corrupt entry counts as a miss, so the caller recomputes
    the point and ``cache_put`` overwrites the entry.
    """
    path = os.path.join(cache_root(), _cache_key(params) + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, ValueError):   # ValueError: undecodable entry
        return None


def cache_put(params: dict, record: dict) -> None:
    """Store ``record`` atomically: write a unique temp file, then rename."""
    root = cache_root()
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, _cache_key(params) + ".json")
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(record) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# ----------------------------------------------------------------------
# the single-point solve record shared by `solve` and `sweep`
# ----------------------------------------------------------------------

def _form_matrices(n: int) -> FormMatrices:
    return assemble(build_grid(n))


@lru_cache(maxsize=None)
def _trial_parts(n: int):
    """``norm_parts`` of the n-grid's ``trial_dirichlet`` field (once per n,
    on the first record, never during set-up): its quotient at every point
    is the record's ``trial_quotient``."""
    return norm_parts(_form_matrices(n), trial_dirichlet(build_grid(n)))


def _sandwich_check(record: dict) -> None:
    """Abort if the guaranteed bound relations fail for a record."""
    shifted = record["mu"] - record["m"] ** 2
    tiny = 1e-9 * max(1.0, abs(record["mu"]))
    ok = (record["thm_lower"] <= record["sharp_lower"] + tiny
          and record["sharp_lower"] <= shifted + tiny
          and record["mu"] <= record["trial_quotient"] + tiny
          and record["bracket_lo"] <= record["bracket_hi"])
    if not ok:
        raise ConsistencyError(
            f"bounds sandwich violated for record {record!r}")


def _servable(hit, params: dict) -> bool:
    """True for a record that passes the sandwich check and echoes
    ``params``; any other cache entry is recomputed and overwritten."""
    try:
        _sandwich_check(hit)
    except (ConsistencyError, KeyError, TypeError):    # not such a record
        return False
    return all(hit.get(key) == val for key, val in params.items())


def solve_record(a: float, b: float, m: float, n: int, tol: float,
                 seed: int, use_cache: bool = True) -> dict:
    # before the cache key, whose serialisation rejects a non-finite value
    # with a message that names no argument
    _check_weights(a, b, m)
    params = {"a": a, "b": b, "m": m, "n": n, "tol": tol, "seed": seed}
    if use_cache:
        hit = cache_get(params)
        if _servable(hit, params):
            return hit
    t0 = time.perf_counter()
    res = lambda1_2d(a, b, m, n, tol, seed=seed)
    wall_ms = (time.perf_counter() - t0) * 1e3
    trial_q = parts_quotient(a, b, m, _trial_parts(n))
    lo, hi = bounds_mod.bracket(a, b, m, res.mu)
    record = {
        **params,
        "mu": res.mu,
        "lambda1": res.lambda1,
        "residual": res.residual,
        "iterations": res.iterations,
        "eigenvalues": list(res.eigenvalues),
        "thm_lower": bounds_mod.thm_lower(a, b, m),
        "sharp_lower": bounds_mod.sharp_lower(a, b, m),
        "thm_upper": bounds_mod.thm_upper(a, b, m),
        "trial_quotient": trial_q,
        "bracket_lo": lo,
        "bracket_hi": hi,
        "wall_time_ms": wall_ms,
    }
    _sandwich_check(record)
    if use_cache:
        cache_put(params, record)
    return record


def _csv(records) -> str:
    """The CSV text of ``records``: the header, then one row per record."""
    rows = [",".join(format_number(record[k]) for k in CSV_HEADER.split(","))
            for record in records]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_solve(opts) -> int:
    record = solve_record(opts["a"], opts["b"], opts["m"], opts["n"],
                          opts["tol"], opts["seed"], not opts["no_cache"])
    print(
        f"lambda1(a={format_number(record['a'])}, b={format_number(record['b'])}, "
        f"m={format_number(record['m'])}; n={record['n']}) = "
        f"{format_number(record['lambda1'])}, lambda1^2 in "
        f"[{format_number(record['bracket_lo'])}, {format_number(record['bracket_hi'])}]",
        file=sys.stderr)
    if opts["format"] == "csv":
        _write(_csv([record]), opts["out"])
    else:
        emit(record, opts["out"])
    return 0


def _sweep_grid(constraint: str, a_min: float, a_max: float, steps: int):
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not math.isfinite(a_max):
        raise ValueError(f"a_max must be finite, got {a_max!r}")
    if not 0.0 < a_min < a_max:
        raise ValueError(f"need 0 < a_min < a_max, got {a_min!r}, {a_max!r}")
    if constraint == "area":
        grid = np.geomspace(a_min, a_max, steps)
        return [(float(a), 1.0 / float(a)) for a in grid]
    if constraint == "perimeter":
        if a_max >= 2.0:
            raise ValueError(
                f"perimeter sweeps require a_max < 2, got {a_max!r}")
        grid = np.linspace(a_min, a_max, steps)
        return [(float(a), 2.0 - float(a)) for a in grid]
    raise ValueError(f"unknown constraint {constraint!r}")


def cmd_sweep(opts) -> int:
    if not opts["out"]:
        raise ValueError("sweep requires --out for the CSV file")
    if opts["jobs"] < 1:
        raise ValueError(f"jobs must be >= 1, got {opts['jobs']}")
    points = _sweep_grid(opts["constraint"], opts["a_min"], opts["a_max"],
                         opts["steps"])
    m, n, tol, seed = opts["m"], opts["n"], opts["tol"], opts["seed"]
    for a, b in points:     # before any cache key, as in solve_record
        _check_weights(a, b, m)
    use_cache = not opts["no_cache"]
    # each point is cached as soon as it is solved, so an interrupted sweep
    # resumes from the points it finished
    tasks = [(a, b, m, n, tol, seed, use_cache) for a, b in points]
    # a pool and its warm-up only when some point still needs solving
    if opts["jobs"] > 1 and (not use_cache or any(
            cache_get({"a": a, "b": b, "m": m, "n": n, "tol": tol,
                       "seed": seed}) is None for a, b in points)):
        # the forms' symmetry certificate (on their 1D matrices), M's
        # inverse (with the grid's tensor basis and rotation map) and the
        # trial field's norm parts built before fork, so workers inherit
        # them
        _form_matrices(n)._symmetry_certificate
        mass_inverse(n)
        _trial_parts(n)
        with ProcessPoolExecutor(max_workers=opts["jobs"]) as pool:
            records = list(pool.map(solve_record, *zip(*tasks)))
    else:
        records = [solve_record(*task) for task in tasks]

    with open(opts["out"], "w", encoding="utf-8") as fh:
        fh.write(_csv(records))

    (best_a, best_b), best = min(zip(points, records),
                                 key=lambda pr: pr[1]["mu"])
    print(f"argmin over {len(points)} {opts['constraint']} points: "
          f"a={format_number(best_a)}, b={format_number(best_b)}, "
          f"lambda1={format_number(best['lambda1'])}")
    return 0


def cmd_bounds(opts) -> int:
    report = bounds_mod.bounds_report(opts["a"], opts["b"], opts["m"])
    emit(report.as_dict(), opts["out"])
    return 0


def cmd_symmetry(opts) -> int:
    a, b, m, n, k = opts["a"], opts["b"], opts["m"], opts["n"], opts["k"]
    fm = _form_matrices(n)
    mus, cluster = ground_cluster(fm, a, b, m, k=k, tol=opts["tol"],
                                  seed=opts["seed"])
    square = (a == b)
    classes = symmetry_mod.classify_symmetry(fm, cluster, square=square)
    class_reports = []
    for cls in classes:
        d1, d2 = symmetry_mod.verify_norm_identities(cls.field, fm)
        class_reports.append({
            "alpha_re": cls.alpha.real, "alpha_im": cls.alpha.imag,
            "deviation": cls.deviation, "d1": d1, "d2": d2,
        })
    s1, s2 = symmetry_mod.separability_residual(classes[0].field)
    report = {
        "a": a, "b": b, "m": m, "n": n, "k": k,
        "eigenvalues": [mu + m**2 for mu in mus],
        "cluster_size": len(cluster),
        "kind": "quarter_turn" if square else "half_turn",
        "classes": class_reports,
        "separability": {"component1": s1, "component2": s2},
    }
    if square:
        report["commutation_check"] = symmetry_mod.commutation_check(
            fm, a, m, seed=opts["seed"])
    emit(report, opts["out"])
    return 0


def cmd_jopt(opts) -> int:
    fm = _form_matrices(opts["n"])
    evidence = jopt_mod.probe_conjecture_symmetry(
        fm, opts["m"], restarts=opts["restarts"], seed=opts["seed"],
        solver_tol=opts["tol"])
    report = {"m": opts["m"], "n": opts["n"], "restarts": opts["restarts"],
              "seed": opts["seed"], **evidence.as_dict()}
    emit(report, opts["out"])
    return 0


def cmd_refine(opts) -> int:
    n_list = [int(x) for x in str(opts["n_list"]).split(",") if x.strip()]
    study = refine_study(opts["a"], opts["b"], opts["m"], n_list, opts["tol"],
                         seed=opts["seed"])
    report = {
        "a": study.a, "b": study.b, "m": study.m,
        "entries": [[n, mu] for n, mu in study.entries],
        "extrapolated_mu": study.extrapolated,
        "extrapolated_lambda1": study.lambda1,
        "observed_order": study.observed_order,
    }
    emit(report, opts["out"])
    return 0


# ----------------------------------------------------------------------
# argument handling: flags > config file > defaults
# ----------------------------------------------------------------------

# Every option: dest -> (type, default).  Its flag is ``--dest`` with "_"
# spelled "-"; a bool option is a flag without a value.
_OPTIONS = {
    "a": (float, 1.0), "b": (float, None), "m": (float, 0.0), "n": (int, 64),
    "tol": (float, 1e-10), "seed": (int, 0), "jobs": (int, 1),
    "out": (str, None), "format": (str, "json"), "no_cache": (bool, False),
    "constraint": (str, "area"), "a_min": (float, 0.25),
    "a_max": (float, 4.0), "steps": (int, 21), "k": (int, 4),
    "restarts": (int, 5), "n_list": (str, "16,32,64,128"),
}
_CHOICES = {"format": ("json", "csv"), "constraint": ("area", "perimeter")}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

# subcommand -> (handler, help, the options its handler reads); each also
# takes --config, whose keys may name any option
_COMMANDS = {
    "solve": (cmd_solve, "one rectangle eigenvalue with bracket",
              "a b m n tol seed out format no_cache"),
    "sweep": (cmd_sweep, "eigenvalue scan along a constraint family",
              "m n tol seed jobs out no_cache constraint a_min a_max steps"),
    "bounds": (cmd_bounds, "closed-form bounds and region conditions",
               "a b m out"),
    "symmetry": (cmd_symmetry, "classify the lowest eigenvalue cluster",
                 "a b m n tol seed out k"),
    "jopt": (cmd_jopt, "non-convex fixed-point experiment",
             "m n tol seed out restarts"),
    "refine": (cmd_refine, "nested-grid refinement study",
               "a b m tol seed out n_list"),
}


def load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            typ, _ = _OPTIONS[key]
            if typ is bool:
                if value.lower() not in _BOOLEANS:
                    raise ValueError(f"{path}:{lineno}: {key} takes one of "
                                     f"{', '.join(_BOOLEANS)}, got {value!r}")
                out[key] = _BOOLEANS[value.lower()]
                continue
            out[key] = typ(value)
            if key in _CHOICES and out[key] not in _CHOICES[key]:
                raise ValueError(f"{path}:{lineno}: {key} takes one of "
                                 f"{', '.join(_CHOICES[key])}, got {value!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracbox",
        description="Dirac rectangle spectral laboratory")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        # no abbreviations: refine's --n-list must not take --n
        p = subs.add_parser(name, help=help_text, allow_abbrev=False)
        for dest in flags.split():
            typ, _ = _OPTIONS[dest]
            flag = "--" + dest.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=typ, choices=_CHOICES.get(dest))
        p.add_argument("--config", type=str)
    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    """The options of ``args.command``, each from its flag, the config file
    or its default; ``b`` defaults to ``a``, the square."""
    config = load_config(args.config) if args.config else {}
    opts = {}
    for key in _COMMANDS[args.command][2].split():
        # every command that reads "b" reads "a" first
        default = opts["a"] if key == "b" else _OPTIONS[key][1]
        cli_val = getattr(args, key)
        opts[key] = cli_val if cli_val is not None else config.get(key, default)
    return opts


def _join_signed_values(argv):
    """``argv`` with every value that starts with ``-`` and reads as a
    number joined to the flag before it, ``--b -inf`` as ``--b=-inf``.
    argparse takes such a value for an option unless it is a plain
    negative number, so ``-inf`` and ``-nan`` would never reach the check
    that names the bad input."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and len(flag) > 2 and "=" not in flag
                and token.startswith("-")):
            with contextlib.suppress(ValueError):
                float(token)
                out[-1] = f"{flag}={token}"
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_signed_values(argv))
    try:
        opts = _merge_options(args)
        return _COMMANDS[args.command][0](opts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ClusterResolutionError as exc:
        print(f"symmetry resolution failure: {exc}", file=sys.stderr)
        return 4
    except ConsistencyError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
