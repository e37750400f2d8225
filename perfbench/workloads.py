"""Benchmark workloads: seeded inputs, the timed unit of work, and the gate.

Each workload is a closed loop: one caller waits for each result before it
sends the next.  A *unit* is the workload's fixed piece of work, generated
from the seed; a run repeats the same unit and reports the median unit time.
Every operation of every unit passes the correctness gate, or counts as
failed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import shutil

TOL = 1e-10            # the CLI default
REF_RTOL = 1e-9        # agreement with the stored reference values

# The sweep CSV contract documented in README.md.
CSV_HEADER = ("a,b,m,n,mu,lambda1,thm_lower,sharp_lower,thm_upper,"
              "residual,iterations,wall_time_ms,seed")

HERE = os.path.dirname(os.path.abspath(__file__))


def _tiny(mu: float) -> float:
    return 1e-9 * max(1.0, abs(mu))


def check_bracket(a, b, m, mu, lambda1, residual, thm_lower, sharp_lower,
                  thm_upper) -> list:
    """Residual contract and bounds sandwich of one solved point."""
    bad = []
    if not (math.isfinite(mu) and mu > m * m):
        bad.append(f"mu={mu!r} is not above m^2")
        return bad
    if not residual <= TOL * mu:
        bad.append(f"residual {residual!r} > tol*mu = {TOL * mu!r}")
    if abs(lambda1 * lambda1 - mu) > 1e-12 * mu:
        bad.append(f"lambda1^2 = {lambda1 * lambda1!r} != mu = {mu!r}")
    upper = (math.pi / a) ** 2 + (math.pi / b) ** 2
    if abs(thm_upper - upper) > 1e-12 * upper:
        bad.append(f"thm_upper {thm_upper!r} != (pi/a)^2 + (pi/b)^2")
    lower = m * m + max(thm_lower, sharp_lower)
    if thm_lower > sharp_lower + _tiny(mu):
        bad.append("crude lower bound exceeds the sharp one")
    if lower > mu + _tiny(mu):
        bad.append(f"lower bound {lower!r} exceeds mu {mu!r}")
    if lower > m * m + thm_upper + _tiny(mu):
        bad.append("bracket is empty: lower bound above thm_upper")
    return bad


def check_record(rec: dict, a, b, m, n, seed) -> list:
    """Gate for one ``solve_record`` result."""
    bad = []
    echo = {"a": a, "b": b, "m": m, "n": n, "tol": TOL, "seed": seed}
    for key, want in echo.items():
        if rec.get(key) != want:
            bad.append(f"record {key}={rec.get(key)!r}, asked {want!r}")
    bad += check_bracket(a, b, m, rec["mu"], rec["lambda1"], rec["residual"],
                         rec["thm_lower"], rec["sharp_lower"],
                         rec["thm_upper"])
    if rec["mu"] > rec["trial_quotient"] + _tiny(rec["mu"]):
        bad.append("mu exceeds the trial-field quotient")
    if rec["bracket_lo"] > rec["bracket_hi"] + _tiny(rec["mu"]):
        bad.append("bracket_lo > bracket_hi")
    return bad


def check_csv(text: str, points, m, n, seed) -> list:
    """Per-row problems of a sweep CSV; a contract break fails every row."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [["CSV header does not match the contract"]] * len(points)
    rows = lines[1:]
    if len(rows) != len(points):
        return [[f"CSV has {len(rows)} rows, expected {len(points)}"]] \
            * len(points)
    out = []
    for (a, b), line in zip(points, rows):
        f = line.split(",")
        if len(f) != 13:
            out.append([f"row has {len(f)} fields"])
            continue
        bad = []
        got = (float(f[0]), float(f[1]), float(f[2]), int(f[3]), int(f[12]))
        if got != (a, b, m, n, seed):
            bad.append(f"row parameters {got!r} != {(a, b, m, n, seed)!r}")
        if int(f[10]) < 0:
            bad.append("negative iteration count")
        mu, lam, thm_lo, sharp_lo, thm_up, res = map(float, f[4:10])
        bad += check_bracket(a, b, m, mu, lam, res, thm_lo, sharp_lo, thm_up)
        out.append(bad)
    return out


def csv_mus(text: str) -> list:
    return [float(line.split(",")[4]) for line in text.splitlines()[1:]]


def check_evidence(ev) -> list:
    """Per-restart problems of a ``probe_conjecture_symmetry`` result."""
    out = []
    for r in ev.restarts:
        if r["status"] != "ok":
            out.append([])    # a degenerate restart is an outcome, not a fault
            continue
        bad = []
        hist = r["history"]
        for i, (mu, _, _, jv) in enumerate(hist):
            slack = 1e-12 * max(1.0, abs(mu))
            if i and mu > hist[i - 1][0] + slack:
                bad.append(f"round {i}: mu rose {hist[i - 1][0]!r} -> {mu!r}")
            if jv > mu + slack:
                bad.append(f"round {i}: J={jv!r} > mu={mu!r}")
        if r["mu"] != hist[-1][0] or ev.best_mu > r["mu"]:
            bad.append("restart summary disagrees with its history")
        out.append(bad)
    return out


def check_reference(mus, ref) -> list:
    """Problems where ``mus`` strays from the stored reference values."""
    if len(mus) != len(ref):
        return [f"{len(mus)} values, reference has {len(ref)}"]
    return [f"value {i}: {got!r} != reference {want!r}"
            for i, (got, want) in enumerate(zip(mus, ref))
            if not abs(got - want) <= REF_RTOL * abs(want)]


def load_reference(name: str, seed: int, n: int):
    """Reference values for this workload, or None if none are stored."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh).get(name)
    if ref and ref["seed"] == seed and ref["n"] == n:
        return ref["mu"]
    return None


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """One workload; ``unit`` is the timed call into diracbox."""

    name = ""
    n = 0

    def __init__(self, seed: int, n: int, workdir: str):
        self.seed = seed
        self.n = n
        self.workdir = workdir
        self._dirs = 0

    def fresh_dir(self, prefix: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{prefix}{self._dirs}")
        os.makedirs(path)
        return path

    def inputs(self):
        """The generated inputs; equal for equal seeds."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed, once per run."""

    def before_unit(self) -> None:
        """Untimed, before each unit."""

    def unit(self):
        raise NotImplementedError

    def operations(self) -> int:
        raise NotImplementedError

    def check(self, out) -> list:
        """One list of problems per operation."""
        raise NotImplementedError

    def values(self, out) -> list:
        """The eigenvalues compared across repeats and with the reference."""
        raise NotImplementedError


class SolveN128(Workload):
    """Independent single solves: ``diracbox solve`` without the cache."""

    name = "solve_n128"
    n = 128
    POINTS = 4

    def inputs(self):
        # One aspect per stratum of |log4 a| and a random sign, so every
        # unit spans the aspect range; half the points are massless and the
        # massive ones take one stratum each of log10 m in [-1, 2].
        rng = random.Random(f"{self.name}:{self.seed}")
        k = self.POINTS
        slots = rng.sample(range(k), k)
        points = []
        for i in range(k):
            u = (i + rng.random()) / k
            a = 4.0 ** (u if rng.random() < 0.5 else -u)
            j = slots[i]
            if j % 2 == 0:
                m = 0.0
            else:
                w = (j // 2 + rng.random()) / (k // 2)
                m = 10.0 ** (-1.0 + 3.0 * w)
            points.append((a, 1.0 / a, m))
        return points

    def prepare(self):
        from diracbox import cli
        self.cli = cli
        self.points = self.inputs()

    def unit(self):
        return [self.cli.solve_record(a, b, m, self.n, TOL, self.seed,
                                      use_cache=False)
                for a, b, m in self.points]

    def operations(self):
        return len(self.points)

    def check(self, out):
        return [check_record(rec, a, b, m, self.n, self.seed)
                for rec, (a, b, m) in zip(out, self.points)]

    def values(self, out):
        return [rec["mu"] for rec in out]


class _Sweep(Workload):
    constraint = ""
    M = 1.0
    A_MIN = A_MAX = 0.0
    STEPS = 0

    def inputs(self):
        return ["sweep", "--constraint", self.constraint,
                "--m", repr(self.M), "--a-min", repr(self.A_MIN),
                "--a-max", repr(self.A_MAX), "--steps", str(self.STEPS),
                "--n", str(self.n), "--tol", repr(TOL),
                "--seed", str(self.seed), "--jobs", "1"]

    def points(self):
        import numpy as np
        if self.constraint == "area":
            return [(float(a), 1.0 / float(a))
                    for a in np.geomspace(self.A_MIN, self.A_MAX, self.STEPS)]
        return [(float(a), 2.0 - float(a))
                for a in np.linspace(self.A_MIN, self.A_MAX, self.STEPS)]

    def prepare(self):
        from diracbox import cli
        self.cli = cli
        self.argv = self.inputs()

    def before_unit(self):
        os.environ["DIRACBOX_CACHE_DIR"] = self.cache_dir()
        self.csv = os.path.join(self.fresh_dir("out"), "sweep.csv")

    def cache_dir(self) -> str:
        return self.fresh_dir("cache")

    def unit(self):
        code = self.cli.main(self.argv + ["--out", self.csv])
        if code != 0:
            raise RuntimeError(f"diracbox sweep exited with code {code}")
        with open(self.csv, encoding="utf-8") as fh:
            return fh.read()

    def operations(self):
        return self.STEPS

    def check(self, out):
        return check_csv(out, self.points(), self.M, self.n, self.seed)

    def values(self, out):
        return csv_mus(out)


class AreaSweepN64(_Sweep):
    """``diracbox sweep`` over the fixed-area family into an empty cache."""

    name = "area_sweep_n64"
    n = 64
    constraint = "area"
    A_MIN, A_MAX, STEPS = 0.25, 4.0, 11


class SweepResumeN64(_Sweep):
    """A fixed-perimeter sweep whose cache already holds every other point."""

    name = "sweep_resume_n64"
    n = 64
    constraint = "perimeter"
    A_MIN, A_MAX, STEPS = 0.5, 1.5, 12

    def prepare(self):
        super().prepare()
        # The pre-fill is written by the code under test, untimed, so a
        # cache-key change that stops hitting shows up as extra solves.
        self.prefill = self.fresh_dir("prefill")
        os.environ["DIRACBOX_CACHE_DIR"] = self.prefill
        self.prefilled = {}
        for i, (a, b) in enumerate(self.points()):
            if i % 2 == 0:
                rec = self.cli.solve_record(a, b, self.M, self.n, TOL,
                                            self.seed, use_cache=True)
                self.prefilled[i] = rec["mu"]
                gc.collect()    # keep the untimed pre-fill below a unit's peak

    def cache_dir(self):
        path = self.fresh_dir("cache")
        shutil.copytree(self.prefill, path, dirs_exist_ok=True)
        return path

    def check(self, out):
        probs = super().check(out)
        if any(probs):
            return probs
        mus = csv_mus(out)
        for i, mu in self.prefilled.items():
            if mus[i] != mu:
                probs[i].append(f"row {i} mu {mus[i]!r} != pre-filled {mu!r}")
        return probs


class JoptN64(Workload):
    """``diracbox jopt``: restarted fixed-point runs of k=1 solves, m=0."""

    name = "jopt_n64"
    n = 64
    RESTARTS = 3

    def inputs(self):
        return {"m": 0.0, "restarts": self.RESTARTS, "seed": self.seed}

    def prepare(self):
        from diracbox import cli, jopt
        self.jopt = jopt
        self.fm = cli._form_matrices(self.n)
        self.args = self.inputs()

    def unit(self):
        return self.jopt.probe_conjecture_symmetry(
            self.fm, self.args["m"], restarts=self.args["restarts"],
            seed=self.args["seed"], solver_tol=TOL)

    def operations(self):
        return self.RESTARTS

    def check(self, out):
        return check_evidence(out)

    def values(self, out):
        return [out.best_mu] + [r["mu"] for r in out.restarts
                                if r["status"] == "ok"]


WORKLOADS = {w.name: w for w in (SolveN128, AreaSweepN64, JoptN64,
                                 SweepResumeN64)}
