import ast
import dataclasses
import functools
import json
import math
import multiprocessing
import os
import pathlib
import re
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from diracbox import (assemble, bounds, build_grid, cli, eigsolve, jopt,
                      symmetry, tensor)
from diracbox.errors import ClusterResolutionError, ConsistencyError, SolverError
from diracbox.formgrid import constraint_map, quotient, trial_dirichlet


def run(argv):
    return cli.main(argv)


def test_solve_json_record(tmp_path, capsys):
    out = tmp_path / "solve.json"
    rc = run(["solve", "--a", "1", "--b", "1", "--m", "0", "--n", "16",
              "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())
    assert record["bracket_lo"] == pytest.approx(math.pi**2 / 2, rel=1e-13)
    assert record["bracket_lo"] <= record["mu"] <= record["trial_quotient"]
    assert record["lambda1"] == pytest.approx(math.sqrt(record["mu"]), rel=1e-14)
    # stdout carries the same canonical JSON
    assert json.loads(capsys.readouterr().out) == record


def test_solve_cache_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    base = ["solve", "--a", "1.5", "--b", "0.8", "--m", "1", "--n", "12"]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    cache_dir = os.environ["DIRACBOX_CACHE_DIR"]
    assert os.listdir(cache_dir)


def test_solve_no_cache_recomputes(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    base = ["solve", "--a", "1", "--b", "1", "--m", "0", "--n", "12",
            "--no-cache"]
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--out", str(out2)]) == 0
    rec1 = json.loads(out1.read_text())
    rec2 = json.loads(out2.read_text())
    rec1.pop("wall_time_ms"), rec2.pop("wall_time_ms")
    assert rec1 == rec2


def test_solve_csv_format(tmp_path):
    out = tmp_path / "solve.csv"
    rc = run(["solve", "--a", "1", "--b", "1", "--n", "12", "--format", "csv",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 2


def test_seventeen_digit_round_trip():
    values = [math.pi, 1 / 3, 6.9090908316917021, 1e-300, 123456.789]
    for v in values:
        assert float(cli.format_number(v)) == v
    with pytest.raises(ValueError):
        cli.format_number(float("nan"))


def test_argument_error_exit_code():
    assert run(["solve", "--n", "7"]) == 2          # odd grid
    assert run(["solve", "--a", "-1", "--n", "8"]) == 2
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--format", "xml"])           # argparse enum
    assert exc.value.code == 2


def test_tiny_mass_solves_as_massless(tmp_path):
    # nu1's bracket loses its sign change below mu of about 2.5e-16; the
    # shift is then the massless one
    recs = []
    for m in ("0", "1e-17"):
        out = tmp_path / f"m{m}.json"
        assert run(["solve", "--a", "1", "--b", "1", "--m", m, "--n", "8",
                    "--no-cache", "--out", str(out)]) == 0
        recs.append(json.loads(out.read_text()))
    assert recs[1]["mu"] == pytest.approx(recs[0]["mu"], rel=1e-12)
    assert run(["bounds", "--a", "1", "--b", "1", "--m", "1e-17",
                "--out", str(tmp_path / "b.json")]) == 0


def test_mass_whose_square_overflows_is_an_argument_error(capsys):
    assert run(["solve", "--a", "1", "--b", "1", "--m", "1e300",
                "--n", "8", "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "1e+300" in err and "Traceback" not in err


def test_non_finite_weights_named_with_or_without_cache(capsys):
    # With the cache on, the inputs are checked before the cache key is
    # serialised, whose own error names no argument.
    for flags, name in ((["--a", "nan"], "side lengths"),
                        (["--b", "inf"], "side lengths"),
                        (["--m", "inf"], "mass")):
        for cache in ([], ["--no-cache"]):
            assert run(["solve", "--n", "8", *flags, *cache]) == 2
            assert name in capsys.readouterr().err


def test_bad_tol_and_jobs_exit_code_before_any_solve(tmp_path, monkeypatch,
                                                    capsys):
    # A tol at or below zero fails every residual contract and a NaN tol
    # passes every one; a sweep needs at least one worker.  Each is an
    # argument error, raised before any solve.
    def eigsh(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(eigsolve.spla, "eigsh", eigsh)
    for tol in ("0", "-1", "nan"):
        assert run(["solve", "--n", "8", "--no-cache", "--tol", tol]) == 2
        assert "tol must be" in capsys.readouterr().err
    for argv in (["refine", "--n-list", "8,16"],
                 ["jopt", "--n", "8", "--restarts", "3"]):
        assert run(argv + ["--tol", "-1"]) == 2
        assert "tol must be" in capsys.readouterr().err
    assert run(["sweep", "--n", "8", "--steps", "3", "--jobs", "0",
                "--no-cache", "--out", str(tmp_path / "sweep.csv")]) == 2
    assert "jobs must be" in capsys.readouterr().err


def test_solver_failure_exit_code():
    assert run(["solve", "--n", "12", "--tol", "1e-30", "--no-cache"]) == 3


def test_symmetry_failure_exit_code(monkeypatch):
    def boom(*args, **kwargs):
        raise ClusterResolutionError("forced")
    monkeypatch.setattr(cli.symmetry_mod, "classify_symmetry", boom)
    assert run(["symmetry", "--a", "1", "--n", "12"]) == 4


def test_consistency_violation_exit_code(monkeypatch):
    monkeypatch.setattr(cli.bounds_mod, "thm_lower",
                        lambda a, b, m: 1e9)
    assert run(["solve", "--n", "12", "--no-cache"]) == 5


def test_shift_above_the_ground_eigenvalue_exit_code(monkeypatch, fm_cache):
    # Grid solves shift by the separable lower bound of their weights.  A
    # shift that the inverse rejects contradicts that bound: exit 5, not an
    # argument error.  The one grid-solve entry point computes the shift of
    # rectangle and fixed-point solves alike.
    def too_high(w):
        return 3.0 * bounds.separable_lower(w)

    monkeypatch.setattr(eigsolve, "separable_lower", too_high)
    assert run(["solve", "--n", "16", "--no-cache"]) == 5
    with pytest.raises(ConsistencyError):
        jopt.euler_solve(fm_cache(16), 1.0, 1.0, 0.0)


def _plant(monkeypatch, lines):
    """Solve on forms built from the 1D matrices ``lines`` (band form)."""
    broken = dataclasses.replace(assemble(build_grid(lines.shape[2] - 1)),
                                 lines=lines)
    for module in (eigsolve, tensor):
        monkeypatch.setattr(module, "assemble", lambda grid: broken)
    tensor.mass_inverse.cache_clear()


def test_indefinite_mass_exit_code(monkeypatch, capsys):
    # M's own check stays an argument error.  The 1D mass with its middle
    # diagonal entry negated is real, symmetric and reversal-symmetric, so
    # the symmetry certificate passes, but it is indefinite, and so is M.
    n = 14
    lines = assemble(build_grid(n)).lines.copy()
    lines[1, 1, n // 2] *= -1.0
    _plant(monkeypatch, lines)
    try:
        assert run(["solve", "--n", str(n), "--no-cache"]) == 2
        assert "M is not positive definite" in capsys.readouterr().err
    finally:
        tensor.mass_inverse.cache_clear()


def test_pencil_without_charge_conjugation_exit_code(monkeypatch, capsys):
    # Class -1 is the charge conjugate of the class +1 solve.  A Hermitian,
    # reversal-symmetric 1D stiffness that is not real (an imaginary pair
    # of off-diagonal entries and its mirror image) makes K1 and K2 break
    # the conjugation but not the half turn; the grid's symmetry
    # certificate finds the break before any solve: exit 5, never a value.
    n = 14
    lines = assemble(build_grid(n)).lines.astype(complex)
    eps = 1e-6j * lines[0, 1, 1].real
    for (d, i), delta in {(1, 3): eps, (-1, 4): -eps, (-1, n - 3): eps,
                          (1, n - 4): -eps}.items():
        lines[0, 1 + d, i] += delta
    _plant(monkeypatch, lines)
    try:
        with pytest.raises(ConsistencyError, match="lacks the symmetry"):
            eigsolve.lambda1_2d(1.0, 1.0, 0.0, n)
        assert run(["solve", "--n", str(n), "--no-cache"]) == 5
        assert "charge conjugation" in capsys.readouterr().err
    finally:
        tensor.mass_inverse.cache_clear()


def test_pencil_without_half_turn_symmetry_exit_code(monkeypatch, capsys):
    # The shifted inverse reads Q_BB on the left and bottom rows of each
    # half-turn class and never on the right and top ones.  A 1D stiffness
    # whose first diagonal entry differs from its last one gives real,
    # Hermitian K1 and K2 that differ on the left edge from the right, its
    # half-turn image; the certificate finds it before any solve: exit 5,
    # never a value.
    n = 14
    lines = assemble(build_grid(n)).lines.copy()
    lines[0, 1, 0] *= 1.0 + 1e-6
    _plant(monkeypatch, lines)
    try:
        with pytest.raises(ConsistencyError, match="half turn"):
            eigsolve.lambda1_2d(1.0, 1.0, 0.0, n)
        assert run(["solve", "--n", str(n), "--no-cache"]) == 5
        assert "do not commute with the half turn" in capsys.readouterr().err
    finally:
        tensor.mass_inverse.cache_clear()


def test_failed_self_test_exit_code(monkeypatch, capsys):
    # The tensor basis checks its closed-form half turn against the grid's
    # rotation map.  A map whose half turn is not the modal reflection is
    # an internal self-test failure: exit 5, not a traceback.
    n = 14
    rot = symmetry.rotation_map(n)
    broken = dataclasses.replace(rot, half_perm=rot.half_perm[::-1].copy())
    monkeypatch.setattr(tensor, "rotation_map", lambda size: broken)
    tensor.mass_inverse.cache_clear()
    try:
        assert run(["solve", "--n", str(n), "--no-cache"]) == 5
        assert "not the modal reflection" in capsys.readouterr().err
    finally:
        tensor.mass_inverse.cache_clear()


def test_trial_quotient_memoised_per_n_outside_setup():
    # The trial field's norm parts are built once per n on the first record,
    # never in the set-up the benchmark times (constraint map, assembly,
    # rotation map), and the memoised quotient is the direct one, bit for
    # bit.
    n = 12
    cli._trial_parts.cache_clear()
    constraint_map(n)
    fm = cli._form_matrices(n)
    symmetry.rotation_map(n)
    assert cli._trial_parts.cache_info().currsize == 0
    for a, b, m in ((1.3, 1 / 1.3, 0.5), (0.7, 2.0, 0.0), (1.0, 1.0, 30.0)):
        record = cli.solve_record(a, b, m, n, 1e-10, 0, use_cache=False)
        want = quotient(fm, a, b, m, trial_dirichlet(build_grid(n)))
        assert record["trial_quotient"] == want
    assert cli._trial_parts.cache_info().misses == 1


def test_sweep_csv_contract(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--constraint", "area", "--m", "0", "--a-min", "0.5",
            "--a-max", "2", "--steps", "5", "--n", "12", "--out", str(out)]
    assert run(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    a_values = [float(r[0]) for r in rows]
    assert a_values == sorted(a_values)
    assert "argmin" in capsys.readouterr().out
    # repeat run is byte-identical thanks to the cache
    out2 = tmp_path / "sweep2.csv"
    assert run(argv[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_jobs_independent_of_scheduling(tmp_path):
    base = ["sweep", "--constraint", "area", "--m", "0", "--a-min", "0.5",
            "--a-max", "2", "--steps", "4", "--n", "12", "--no-cache"]
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert run(base + ["--jobs", "2", "--out", str(parallel)]) == 0

    def strip_timing(path):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        return [r[:11] + r[12:] for r in rows]   # drop wall_time_ms

    assert strip_timing(serial) == strip_timing(parallel)


def test_sweep_jobs_under_spawn(tmp_path, monkeypatch):
    # Workers started by spawn inherit no per-grid state from the parent,
    # as on platforms whose default start method is not fork: the rows are
    # those of the serial sweep.
    monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
    base = ["sweep", "--constraint", "area", "--m", "0", "--a-min", "0.5",
            "--a-max", "2", "--steps", "4", "--n", "12", "--no-cache"]
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert run(base + ["--jobs", "2", "--out", str(parallel)]) == 0

    def strip_timing(path):
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        return [r[:11] + r[12:] for r in rows]   # drop wall_time_ms

    assert strip_timing(serial) == strip_timing(parallel)


def test_interrupted_sweep_resumes_from_cache(tmp_path, monkeypatch):
    # Each point is cached when it is solved, so a sweep whose 4th solve
    # fails leaves 3 records, and a rerun solves only the last 2 points.
    argv = ["sweep", "--constraint", "area", "--m", "0", "--a-min", "0.5",
            "--a-max", "2", "--steps", "5", "--n", "12",
            "--out", str(tmp_path / "sweep.csv")]
    points = cli._sweep_grid("area", 0.5, 2.0, 5)
    solve = cli.lambda1_2d
    solved = []

    def fourth_solve_fails(a, b, *args, **kwargs):
        solved.append((a, b))
        if len(solved) == 4:
            raise SolverError("forced")
        return solve(a, b, *args, **kwargs)

    monkeypatch.setattr(cli, "lambda1_2d", fourth_solve_fails)
    assert run(argv) == 3
    assert solved == points[:4]
    assert len(os.listdir(os.environ["DIRACBOX_CACHE_DIR"])) == 3

    solved.clear()
    assert run(argv) == 0
    assert solved == points[3:]


def test_cached_parallel_sweep_starts_no_pool(tmp_path, monkeypatch):
    argv = ["sweep", "--constraint", "area", "--m", "0", "--a-min", "0.5",
            "--a-max", "2", "--steps", "4", "--n", "12", "--jobs", "2",
            "--out", str(tmp_path / "sweep.csv")]
    assert run(argv) == 0

    def fails(*args, **kwargs):
        raise AssertionError("every point is cached")

    monkeypatch.setattr(cli, "mass_inverse", fails)
    for module in (eigsolve, tensor):
        monkeypatch.setattr(module, "rotation_map", fails)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", fails)
    monkeypatch.setattr(cli, "lambda1_2d", fails)
    assert run(argv) == 0


def test_sweep_validates_range(tmp_path):
    assert run(["sweep", "--constraint", "perimeter", "--a-min", "0.5",
                "--a-max", "2.5", "--steps", "3", "--n", "12",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["sweep", "--constraint", "area", "--a-min", "0.5",
                "--a-max", "2", "--steps", "3", "--n", "12"]) == 2   # no --out


def test_sweep_names_a_non_finite_bound(tmp_path, capsys):
    # The range is checked before any grid is spaced: an infinite bound
    # would reach numpy's geomspace, which warns on it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bound in ("inf", "nan"):
            assert run(["sweep", "--a-max", bound, "--steps", "3", "--n", "8",
                        "--out", str(tmp_path / "x.csv")]) == 2
            assert "a_max must be finite" in capsys.readouterr().err


def test_bounds_cmd(tmp_path, capsys):
    assert run(["bounds", "--a", "1.2", "--b", str(1 / 1.2), "--m", "500"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conditions"]["cond_b"]["holds"]
    assert report["conditions"]["cond_b"]["margin"] == pytest.approx(11.2222,
                                                                     abs=1e-3)
    assert run(["bounds", "--a", "1", "--b", "1", "--m", "0"]) == 0
    square = json.loads(capsys.readouterr().out)
    assert not any(c["holds"] for c in square["conditions"].values())


def test_symmetry_cmd_square(capsys):
    assert run(["symmetry", "--a", "1", "--m", "0", "--n", "12"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "quarter_turn"
    assert report["cluster_size"] >= 1
    for cls in report["classes"]:
        alpha = complex(cls["alpha_re"], cls["alpha_im"])
        assert abs(alpha**4 - 1) <= 1e-6
        assert cls["d1"] <= 1e-6 and cls["d2"] <= 1e-6
    assert report["commutation_check"] <= 1e-12
    assert report["separability"]["component1"] is not None


def test_symmetry_cmd_rectangle(capsys):
    assert run(["symmetry", "--a", "1.5", "--b", str(1 / 1.5), "--m", "0",
                "--n", "12"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "half_turn"
    for cls in report["classes"]:
        alpha = complex(cls["alpha_re"], cls["alpha_im"])
        assert abs(alpha**2 - 1) <= 1e-6


def test_jopt_cmd_deterministic(tmp_path):
    out1, out2 = tmp_path / "j1.json", tmp_path / "j2.json"
    argv = ["jopt", "--m", "0", "--n", "12", "--restarts", "3"]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert {"best_mu", "d1", "d2", "restarts"} <= set(report)
    for restart in report["restarts"]:
        if restart["status"] == "ok":
            mus = [h[0] for h in restart["history"]]
            assert all(b <= a + 1e-12 * max(1.0, abs(a))
                       for a, b in zip(mus, mus[1:]))


def test_refine_cmd(capsys):
    assert run(["refine", "--a", "1", "--b", "1", "--m", "0",
                "--n-list", "8,16,32"]) == 0
    report = json.loads(capsys.readouterr().out)
    mus = [mu for _, mu in report["entries"]]
    assert mus[0] >= mus[1] >= mus[2]
    assert report["extrapolated_lambda1"] == pytest.approx(
        math.sqrt(report["extrapolated_mu"]), rel=1e-14)


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 8\nseed = 5\n# comment\nm = 0\n")
    assert run(["solve", "--config", str(cfg), "--n", "12",
                "--no-cache"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["n"] == 12      # flag wins
    assert record["seed"] == 5    # config beats default
    # config values get the flags' type and choice checks
    bad = tmp_path / "bad.cfg"
    for line in ("nonsense = 3", "n = 8.5", "format = xml",
                 "no_cache = maybe", "constraint = diagonal"):
        bad.write_text(line + "\n")
        assert run(["solve", "--config", str(bad), "--n", "8"]) == 2, line


# Each subcommand takes the flags its handler reads, --config and --help:
# --m and --out everywhere, the extra flags per command, 45 flags in all
# besides --config and --help.
COMMON_FLAGS = {"--m", "--out", "--config", "--help"}
EXTRA_FLAGS = [
    ("solve", {"--a", "--b", "--n", "--tol", "--seed", "--format",
               "--no-cache"}),
    ("sweep", {"--n", "--tol", "--seed", "--jobs", "--no-cache",
               "--constraint", "--a-min", "--a-max", "--steps"}),
    ("bounds", {"--a", "--b"}),
    ("symmetry", {"--a", "--b", "--n", "--tol", "--seed", "--k"}),
    ("jopt", {"--n", "--tol", "--seed", "--restarts"}),
    ("refine", {"--a", "--b", "--tol", "--seed", "--n-list"}),
]


@pytest.mark.parametrize("command, extra", EXTRA_FLAGS)
def test_subcommand_flag_sets(command, extra, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == COMMON_FLAGS | extra
    assert sum(len(extra) + 2 for _, extra in EXTRA_FLAGS) == 45


def test_flag_a_command_does_not_read_is_an_argument_error(capsys):
    # bounds takes no grid, and refine reads its grids from --n-list,
    # which --n does not abbreviate.
    for argv in (["bounds", "--n", "8"], ["refine", "--n", "64"],
                 ["bounds", "--jobs", "3"], ["jopt", "--a", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def _opts_keys(tree, handler):
    """The ``opts["..."]`` keys that the function ``handler`` reads."""
    [fn] = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == handler]
    keys = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "opts"):
            # a computed key would hide what the handler reads
            assert isinstance(node.slice, ast.Constant), ast.dump(node)
            keys.add(node.slice.value)
    return keys


def test_each_command_declares_the_options_its_handler_reads():
    # A declared flag that no handler reads would be accepted and ignored;
    # a read option that is not declared would only come from the config.
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    for command, (handler, _, flags) in cli._COMMANDS.items():
        assert _opts_keys(tree, handler.__name__) == set(flags.split()), \
            command


def test_signed_non_finite_values_reach_the_weight_check(capsys):
    # argparse reads "-inf" as an option unless it is joined to its flag;
    # the value must reach the check that names the bad input.
    for argv, name in (
            (["solve", "--n", "8", "--b", "-inf"], "side lengths"),
            (["solve", "--n", "8", "--a", "-inf"], "side lengths"),
            (["solve", "--n", "8", "--no-cache", "--m", "-nan"], "mass"),
            (["bounds", "--a", "-inf"], "side lengths"),
            (["refine", "--n-list", "8,16", "--m", "-inf"], "mass")):
        assert run(argv) == 2, argv
        assert name in capsys.readouterr().err, argv


PARAMS = {"a": 1.0, "b": 1.0, "m": 0.0, "n": 12, "tol": 1e-10, "seed": 0}


def test_cache_misses_records_of_another_solver_version(tmp_path,
                                                        monkeypatch):
    # A record stored by older solver code is not served.
    current = cli.SOLVER_VERSION
    monkeypatch.setattr(cli, "SOLVER_VERSION", current + "-old")
    cli.cache_put(PARAMS, {**PARAMS, "mu": -1.0})
    assert cli.cache_get(PARAMS)["mu"] == -1.0
    monkeypatch.setattr(cli, "SOLVER_VERSION", current)
    assert cli.cache_get(PARAMS) is None
    out = tmp_path / "solve.json"
    assert run(["solve", "--n", "12", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["mu"] > 0.0
    # the salt goes into the key only, never into the record
    assert cli.cache_get(PARAMS) == record


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    argv = ["solve", "--n", "12"]
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(argv + ["--out", str(first)]) == 0
    cache_dir = os.environ["DIRACBOX_CACHE_DIR"]
    [entry] = os.listdir(cache_dir)
    path = os.path.join(cache_dir, entry)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[: len(data) // 2])
    assert cli.cache_get(PARAMS) is None
    assert run(argv + ["--out", str(second)]) == 0
    rec1, rec2 = json.loads(first.read_text()), json.loads(second.read_text())
    rec1.pop("wall_time_ms"), rec2.pop("wall_time_ms")
    assert rec1 == rec2
    assert cli.cache_get(PARAMS)["mu"] == rec2["mu"]     # overwritten


def test_invalid_cache_records_are_recomputed(tmp_path):
    # An entry that parses but is no valid record for its parameters is
    # recomputed and overwritten, never served.
    out = tmp_path / "solve.json"
    assert run(["solve", "--n", "12", "--no-cache", "--out", str(out)]) == 0
    good = json.loads(out.read_text())
    for bad in ({}, {**good, "mu": -5.0, "bracket_lo": 1.0, "bracket_hi": 0.0},
                {**good, "n": 16}):
        cli.cache_put(PARAMS, bad)
        assert run(["solve", "--n", "12", "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["mu"] == good["mu"]
        assert cli.cache_get(PARAMS) == record          # overwritten


def test_cache_put_writes_through_unique_temp_file(monkeypatch):
    moves = []
    real_replace = os.replace

    def replace(src, dst):
        moves.append((src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace)
    cli.cache_put(PARAMS, {"mu": 1.0})
    cli.cache_put(PARAMS, {"mu": 2.0})
    (tmp1, dst1), (tmp2, dst2) = moves
    assert dst1 == dst2 and tmp1 != tmp2
    assert os.path.dirname(tmp1) == os.path.dirname(dst1)
    assert cli.cache_get(PARAMS) == {"mu": 2.0}

    # a failed write keeps the old entry and leaves no temp file behind
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError):
        cli.cache_put(PARAMS, {"mu": 3.0})
    assert cli.cache_get(PARAMS) == {"mu": 2.0}
    assert os.listdir(os.path.dirname(dst1)) == [os.path.basename(dst1)]
