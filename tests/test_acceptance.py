"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the heavy single-point solves are shared through session fixtures.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from diracbox import (
    SpinorField,
    bounds,
    build_grid,
    classify_symmetry,
    cli,
    commutation_check,
    ground_cluster,
    lambda1_1d,
    nu1,
    nu1_lower,
    probe_conjecture_symmetry,
    quotient,
    random_field,
    rotate,
    separability_residual,
    trial_dirichlet,
    verify_norm_identities,
)
from diracbox.eigsolve import _richardson

TWO_PI_SQ = 2 * math.pi**2


def _report(num, detail):
    print(f"[acceptance] criterion {num:2d} PASS: {detail}")


def test_criterion_01_root_solver():
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 999)])
    t0 = time.perf_counter()
    roots = [nu1(mu) for mu in grid]
    elapsed = time.perf_counter() - t0
    for mu, root in zip(grid, roots):
        assert root.residual <= 1e-13 * (1.0 + mu)
        assert nu1_lower(mu) <= root.nu + 1e-14
        assert math.pi / 2 <= root.nu < math.pi
    assert roots[0].nu == math.pi / 2
    values = [r.nu for r in roots]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert elapsed < 1.0
    _report(1, f"1000 roots in {elapsed * 1e3:.0f} ms, residuals <= 1e-13*(1+mu), "
               "monotone, above the closed-form lower bound")


def test_criterion_02_1d_oracle_equivalence(interval_forms):
    k1, m1, t1 = interval_forms(2048)
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for m in (0.0, 1.0, 10.0):
            q = k1 / a**2 + (m / a) * t1
            [mu_shift] = spla.eigsh(q, k=1, M=m1, sigma=0,
                                    return_eigenvectors=False)
            mu = mu_shift + m**2
            exact = lambda1_1d(a, m) ** 2
            rel = (mu - exact) / exact
            assert rel >= -1e-12            # conforming: from above
            assert rel <= 1e-4
            worst = max(worst, rel)
    _report(2, f"discrete 1D eigenvalue at n=2048 within {worst:.2e} relative "
               "of the root-equation value, always from above")


A_GRID_SANDWICH = (1 / 3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
MASSES = (0.0, 1.0, 10.0)


def test_criterion_03_sandwich(fm_cache, solve_memo):
    fm = fm_cache(96)
    td = trial_dirichlet(build_grid(96))
    for a in A_GRID_SANDWICH:
        b = 1.0 / a
        for m in MASSES:
            res = solve_memo(a, b, m, 96)
            shifted = res.mu - m**2
            lo = bounds.thm_lower(a, b, m)
            sh = bounds.sharp_lower(a, b, m)
            up = bounds.thm_upper(a, b, m)
            assert lo <= sh * (1 + 1e-12)
            assert sh <= shifted * (1 + 1e-12)
            trial_q = quotient(fm, a, b, m, td)
            assert res.mu <= trial_q * (1 + 1e-12)
            assert trial_q - m**2 <= 1.01 * up
    _report(3, f"lower bounds <= mu - m^2 <= trial quotient <= 1.01 * Dirichlet "
               f"on the {len(A_GRID_SANDWICH)}x{len(MASSES)} grid at n=96")


def test_criterion_04_monotone_refinement(solve_memo, golden):
    ladder = [(n, solve_memo(1.0, 1.0, 0.0, n).mu)
              for n in (16, 32, 64, 128, 256)]
    for (_, coarse), (_, fine) in zip(ladder, ladder[1:]):
        assert fine <= coarse + 1e-12
    est128, p128 = _richardson(ladder[1:4])
    est256, p256 = _richardson(ladder[2:5])
    lam128, lam256 = math.sqrt(est128), math.sqrt(est256)
    assert abs(lam128 - lam256) / lam256 <= 5e-3     # 3 significant digits
    assert math.pi / math.sqrt(2) <= lam256 <= math.pi * math.sqrt(2)
    ref = golden["lambda1_square_massless"]
    assert abs(lam256 - ref) / ref <= 5e-4           # 4 significant digits
    _report(4, f"monotone ladder; extrapolates lambda1 = {lam128:.5f} (to 128) "
               f"vs {lam256:.5f} (to 256), observed order ~{p256:.2f}")


COROLLARY_POINTS = (
    # (a, b, m, condition name, constraint)
    (3.0, 1 / 3.0, 0.0, "cond_a", "area"),
    (1.2, 1 / 1.2, 500.0, "cond_b", "area"),
    (1.7, 0.3, 0.0, "cond_a_prime", "perimeter"),
    (1.3, 0.7, 500.0, "cond_b_prime", "perimeter"),
)


def test_criterion_05_corollary_regions(solve_memo):
    gaps = {}
    for m in (0.0, 500.0):
        mu48 = solve_memo(1.0, 1.0, m, 48).mu
        mu96 = solve_memo(1.0, 1.0, m, 96).mu
        gaps[m] = mu48 - mu96
        assert gaps[m] > 0
    details = []
    for a, b, m, cond_name, constraint in COROLLARY_POINTS:
        cond = bounds.corollary_conditions(a, m, constraint)[cond_name]
        assert cond.holds, f"{cond_name} must hold at (a={a}, m={m})"
        margin = solve_memo(a, b, m, 96).mu - solve_memo(1.0, 1.0, m, 96).mu
        assert margin > 10.0 * gaps[m]
        details.append(f"{cond_name}: margin {margin:.3f} > 10*gap {10 * gaps[m]:.3f}")
    _report(5, "; ".join(details))


def test_criterion_06_conjecture_scan(solve_memo):
    area_grid = np.geomspace(0.25, 4.0, 21)
    perim_grid = np.linspace(0.4, 1.6, 21)
    for m in MASSES:
        for name, grid, pair in (
            ("area", area_grid, lambda a: (a, 1.0 / a)),
            ("perimeter", perim_grid, lambda a: (a, 2.0 - a)),
        ):
            mus = []
            for a in grid:
                aa, bb = pair(float(a))
                mus.append(solve_memo(aa, bb, m, 96).mu)
            mus = np.asarray(mus)
            nearest_to_one = int(np.argmin(np.abs(grid - 1.0)))
            assert int(np.argmin(mus)) == nearest_to_one
            assert np.all(mus >= mus[nearest_to_one] - 1e-6)
    _report(6, "argmin of both 21-point families at the grid point nearest "
               "a=1 for m in {0,1,10} at n=96 "
               "(numerical evidence at desk scale, not a proof)")


def test_criterion_07_nonrelativistic_trend(solve_memo):
    shifted = [solve_memo(1.0, 1.0, m, 128).mu - m**2
               for m in (0.0, 1.0, 10.0, 100.0)]
    for lo, hi in zip(shifted, shifted[1:]):
        assert hi >= lo - 1e-10
    assert abs(shifted[-1] - TWO_PI_SQ) <= 0.05 * TWO_PI_SQ
    _report(7, f"mu - m^2 grows {shifted[0]:.3f} -> {shifted[-1]:.3f}, "
               f"within {abs(shifted[-1] - TWO_PI_SQ) / TWO_PI_SQ:.1%} "
               "of the Dirichlet value at m=100")


def test_criterion_08_symmetry_suite(fm_cache):
    fm = fm_cache(48)
    grid = build_grid(48)
    for seed in range(3):
        psi = random_field(grid, seed=seed)
        out = psi
        for _ in range(4):
            out = rotate(out)
        assert np.array_equal(out.values, psi.values)
        nrm = lambda v: math.sqrt(abs(np.vdot(v, fm.M @ v).real))
        assert abs(nrm(rotate(psi).values) - nrm(psi.values)) <= 1e-14 * nrm(psi.values)
    assert commutation_check(fm, 1.0, 0.0) <= 1e-12
    assert commutation_check(fm, 1.0, 3.0) <= 1e-12

    square_classes = classify_symmetry(fm, ground_cluster(fm, 1, 1, 0.0)[1],
                                       square=True)
    alphas = []
    for cls in square_classes:
        assert abs(cls.alpha**4 - 1) <= 1e-6
        assert cls.deviation <= 1e-6
        d1, d2 = verify_norm_identities(cls.field, fm)
        assert d1 <= 1e-6 and d2 <= 1e-6
        alphas.append(cls.alpha)

    rect_classes = classify_symmetry(
        fm, ground_cluster(fm, 1.5, 1 / 1.5, 0.0)[1], square=False)
    betas = []
    for cls in rect_classes:
        assert min(abs(cls.alpha - 1), abs(cls.alpha + 1)) <= 1e-6
        betas.append(cls.alpha)
    _report(8, f"R^4=I exact, isometry/invariance at rounding level; square "
               f"alphas {[f'{al:.3f}' for al in alphas]}, rectangle betas "
               f"{[f'{be:.3f}' for be in betas]}")


def test_criterion_09_separability_witness(fm_cache, reference_forms,
                                           golden):
    # dense oracle at n=32 calibrates the threshold recorded in golden.json
    fm32, ref32 = fm_cache(32), reference_forms(32)
    q = ref32.weighted((1.0, 1.0, 0.0, 0.0, 0.0)).toarray()
    w, v = sla.eigh(q, ref32.M.toarray(), subset_by_index=[0, 3])
    cluster = [(float(w[i]), SpinorField(v[:, i], 32)) for i in range(4)
               if (w[i] - w[0]) <= 1e-8 * abs(w[0])]
    rep32 = classify_symmetry(fm32, cluster, square=True)[0].field
    s32 = separability_residual(rep32)
    ref = golden["separability_n32"]
    assert s32[0] == pytest.approx(ref["component1"], rel=1e-6)
    assert s32[1] == pytest.approx(ref["component2"], rel=1e-6)
    threshold = golden["separability_threshold"]
    assert threshold == pytest.approx(min(s32) / 2, rel=1e-6)

    ratios = {}
    for n in (64, 128):
        fm = fm_cache(n)
        rep = classify_symmetry(fm, ground_cluster(fm, 1, 1, 0.0)[1],
                                square=True)[0].field
        ratios[n] = min(separability_residual(rep))
        assert ratios[n] > threshold
    assert abs(ratios[64] - ratios[128]) <= 0.5 * max(ratios.values())
    _report(9, f"component singular-value ratios {ratios[64]:.4f} (n=64), "
               f"{ratios[128]:.4f} (n=128) above threshold {threshold:.4f}, "
               "stable within 50%")


def test_criterion_10_j_optimisation(fm_cache, solve_memo, tmp_path):
    fm = fm_cache(64)
    area_grid = np.geomspace(0.25, 4.0, 21)
    reports = {}
    for m in (0.0, 1.0):
        evidence = probe_conjecture_symmetry(fm, m, restarts=5, seed=0)
        for restart in evidence.restarts:
            if restart["status"] != "ok":
                continue
            mus = [h[0] for h in restart["history"]]
            assert all(b <= a + 1e-12 * max(1.0, abs(a))
                       for a, b in zip(mus, mus[1:]))
            if m == 0.0:
                ref = solve_memo(restart["A"], 1.0 / restart["A"], 0.0, 64)
                assert abs(restart["mu"] - ref.mu) <= 1e-6 * restart["mu"]
        grid_min = min(solve_memo(float(a), 1.0 / float(a), m, 64).mu - m**2
                       for a in area_grid)
        assert evidence.best_mu <= grid_min + 1e-8
        reports[f"m={m}"] = evidence.as_dict()

    out = tmp_path / "conjecture_evidence.json"
    out.write_text(cli.canonical_json(reports) + "\n")
    d0 = reports["m=0.0"]
    d1 = reports["m=1.0"]
    _report(10, f"descent monotone, zero-mass identification holds, best mu "
                f"beats the 21-point grid; reported deviations m=0: "
                f"(d1={d0['d1']:.2e}, d2={d0['d2']:.2e}), m=1: "
                f"(d1={d1['d1']:.2e}, d2={d1['d2']:.2e})")


def test_criterion_11_determinism(tmp_path):
    runs = {
        "solve": ["solve", "--a", "1.3", "--b", "0.9", "--m", "1",
                  "--n", "16"],
        "sweep": ["sweep", "--constraint", "area", "--m", "0", "--a-min",
                  "0.5", "--a-max", "2", "--steps", "5", "--n", "12"],
        "jopt": ["jopt", "--m", "0", "--n", "12", "--restarts", "3"],
        "symmetry": ["symmetry", "--a", "1", "--m", "0", "--n", "12"],
        "refine": ["refine", "--a", "1", "--b", "1", "--n-list", "8,16"],
    }
    for name, argv in runs.items():
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    _report(11, "repeated runs of solve/sweep/jopt/symmetry/refine are "
                "byte-identical for fixed flags and seed")
