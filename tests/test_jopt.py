import math

import numpy as np
import pytest

from diracbox import (
    DegenerateRatioError,
    SpinorField,
    build_grid,
    euler_solve,
    fixed_point_minimize,
    j_value,
    jopt,
    lambda1_2d,
    probe_conjecture_symmetry,
    quotient,
    random_field,
    rotation_deviation,
    symmetrize,
    trial_dirichlet,
    verify_theorem_idea_chain,
)
from diracbox.formgrid import norm_parts

TWO_PI_SQ = 2 * math.pi**2


def test_j_value_of_trial_field(fm_cache):
    fm = fm_cache(16)
    td = trial_dirichlet(build_grid(16))
    base = j_value(td, fm, 0.0)
    # equal gradient norms and zero traces: J equals the square quotient
    assert base == pytest.approx(quotient(fm, 1, 1, 0.0, td), rel=1e-13)
    assert base == pytest.approx(TWO_PI_SQ, rel=5e-3)
    for m in (0.5, 3.0):
        assert j_value(td, fm, m) == pytest.approx(base, rel=1e-13)


def test_j_value_scaling_invariance(fm_cache):
    fm = fm_cache(12)
    psi = random_field(build_grid(12), seed=1)
    val = j_value(psi, fm, 1.5)
    scaled = SpinorField(-2.3j * psi.values, 12)
    assert j_value(scaled, fm, 1.5) == pytest.approx(val, rel=1e-13)
    with pytest.raises(ValueError):
        j_value(SpinorField(np.zeros_like(psi.values), 12), fm, 0.0)


def test_j_value_equals_square_quotient_for_symmetric_fields(fm_cache):
    fm = fm_cache(12)
    m = 1.3
    sym = symmetrize(random_field(build_grid(12), seed=2))
    expected = quotient(fm, 1, 1, m, sym) - m**2
    assert j_value(sym, fm, m) == pytest.approx(expected, rel=1e-12)


def test_j_value_lower_bounds_fixed_area_quotients(fm_cache):
    # AM-GM: J <= rectangle quotient minus m^2 for every fixed-area pair
    fm = fm_cache(12)
    m = 0.8
    for seed in range(4):
        psi = random_field(build_grid(12), seed=seed)
        jq = j_value(psi, fm, m)
        for a in (0.5, 1.0, 1.7):
            assert jq <= quotient(fm, a, 1 / a, m, psi) - m**2 + 1e-10


def test_euler_solve_matches_rectangle_form(fm_cache, solve_memo):
    fm = fm_cache(16)
    # A = B = 1 reproduces the square's shifted eigenvalue
    mu, _ = euler_solve(fm, 1.0, 1.0, 0.7)
    ref = solve_memo(1.0, 1.0, 0.7, 16)
    assert mu == pytest.approx(ref.mu - 0.49, rel=1e-11)
    # at zero mass any A reproduces the (A, 1/A) rectangle
    mu0, _ = euler_solve(fm, 1.3, 1.0, 0.0)
    ref0 = solve_memo(1.3, 1 / 1.3, 0.0, 16)
    assert mu0 == pytest.approx(ref0.mu, rel=1e-11)
    assert mu0 > 0


def test_euler_solve_validates_weights(fm_cache):
    with pytest.raises(ValueError):
        euler_solve(fm_cache(8), -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        euler_solve(fm_cache(8), 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        euler_solve(fm_cache(8), 1.0, 1.0, -1.0)   # would flip the trace weights


def test_fixed_point_descends_from_trial(fm_cache):
    fm = fm_cache(16)
    state = fixed_point_minimize(fm, 0.0, init=trial_dirichlet(build_grid(16)))
    assert state.converged
    assert state.mu <= j_value(trial_dirichlet(build_grid(16)), fm, 0.0)
    assert state.mu <= TWO_PI_SQ * 1.01


def count_euler_solves(monkeypatch):
    """A list that grows by one on each ``jopt.euler_solve`` call."""
    calls = []
    solve = jopt.euler_solve

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return solve(*args, **kwargs)

    monkeypatch.setattr(jopt, "euler_solve", counting)
    return calls


# Seed 5 at m = 3 runs B towards 0 until a trace norm vanishes (a
# DegenerateRatioError), so that mass starts from seed 3.
@pytest.mark.parametrize("m, seed", [(0.0, 5), (1.2, 5), (3.0, 3)])
def test_fixed_point_history_invariants(fm_cache, monkeypatch, m, seed):
    fm = fm_cache(16)
    calls = count_euler_solves(monkeypatch)
    maxit = 80
    state = fixed_point_minimize(fm, m, maxit=maxit,
                                 init=random_field(build_grid(16), seed=seed))
    assert len(calls) == state.iteration <= maxit
    if m == 0.0:
        # extrapolated rounds included
        assert all(h[2] == 1.0 for h in state.history) and state.B == 1.0
    if m == 1.2:
        # an extrapolated round was solved and rejected by the safeguard
        assert state.iteration > len(state.history)
    mus = [h[0] for h in state.history]
    jvs = [h[3] for h in state.history]
    for prev, cur in zip(mus, mus[1:]):
        assert cur <= prev + 1e-12 * max(1.0, abs(prev))
    for mu_k, j_k in zip(mus, jvs):
        assert j_k <= mu_k + 1e-12 * max(1.0, abs(mu_k))
    # the next eigenvalue never exceeds the previous iterate's J-quotient
    for j_k, mu_next in zip(jvs, mus[1:]):
        assert mu_next <= j_k + 1e-12 * max(1.0, abs(j_k))


@pytest.mark.parametrize("m, start", [(0.0, "trial"), (0.7, "random"),
                                      (0.7, "symmetrised")])
def test_fixed_point_history_matches_a_reference_loop(fm_cache, m, start):
    # Each round's norm parts serve J and the next ratios; the history is
    # that of a loop that computes them afresh for each and extrapolates the
    # log weights by the secant rule, bit for bit.
    fm = fm_cache(12)
    grid = build_grid(12)
    psi = {"trial": trial_dirichlet(grid),
           "random": random_field(grid, seed=2),
           "symmetrised": symmetrize(random_field(grid, seed=3))}[start]
    maxit = 5
    state = fixed_point_minimize(fm, m, init=psi, maxit=maxit)

    def ratios(field):
        g1, g2, _, t1, t2 = norm_parts(fm, field)
        return (g1 / g2) ** 0.25, 1.0 if m == 0.0 else math.sqrt(t1 / t2)

    plain, trial, prev = ratios(psi), None, None
    want, solves, tried = [], 0, 0
    while solves < maxit:
        w = plain
        if trial is not None:
            solves, tried = solves + 1, tried + 1
            mu, field = euler_solve(fm, *trial, m)
            j_prev = want[-1][3]
            if mu <= j_prev + 1e-12 * max(1.0, abs(j_prev)):
                w = trial
            elif solves == maxit:
                break
        if w is plain:
            solves += 1
            mu, field = euler_solve(fm, *plain, m)
        want.append((mu, *w, j_value(field, fm, m)))
        plain = ratios(field)
        if abs(plain[0] - w[0]) + abs(plain[1] - w[1]) <= 1e-8:
            break
        g = [math.log(v) for v in plain]
        f = [gi - math.log(wi) for gi, wi in zip(g, w)]
        trial = None
        if prev is None:
            prev = g, f
        elif math.hypot(*f) < math.hypot(*prev[1]):
            df = [fi - fp for fi, fp in zip(f, prev[1])]
            gamma = (f[0] * df[0] + f[1] * df[1]) / (df[0]**2 + df[1]**2)
            step = [-gamma * (gi - gp) for gi, gp in zip(g, prev[0])]
            if max(map(abs, step)) <= math.log(2.0):
                trial = tuple(math.exp(gi + si) for gi, si in zip(g, step))
            prev = g, f
        else:
            prev = None
    assert state.history == tuple(want)
    assert (state.A, state.B) == plain
    assert state.iteration == solves
    # the random start runs into the extrapolation within maxit
    assert (tried > 0) == (start == "random")


def test_fixed_point_converges_at_the_square_for_unit_mass(fm_cache,
                                                           monkeypatch):
    # At m = 1 the plain alternation contracts by about 0.96 per round and
    # stops unconverged at maxit = 80; the extrapolated rounds converge.
    fm = fm_cache(16)
    calls = count_euler_solves(monkeypatch)
    for seed in (1, 2, 3):
        calls.clear()
        state = fixed_point_minimize(
            fm, 1.0, init=random_field(build_grid(16), seed=seed))
        assert state.converged
        assert len(calls) == state.iteration <= 15
        assert state.A == pytest.approx(1.0, abs=1e-7)
        assert state.B == pytest.approx(1.0, abs=1e-7)


def test_fixed_point_zero_mass_identification(fm_cache, solve_memo):
    fm = fm_cache(16)
    state = fixed_point_minimize(fm, 0.0,
                                 init=random_field(build_grid(16), seed=3),
                                 tol=1e-10)
    # a zero-mass fixed point sits on the fixed-area family
    a_opt = 1.0 if abs(state.A - 1.0) < 1e-6 else state.A
    ref = solve_memo(a_opt, 1 / a_opt, 0.0, 16)
    assert abs(state.mu - ref.mu) <= 1e-6 * state.mu


def test_fixed_point_symmetric_init_stays_symmetric(fm_cache):
    fm = fm_cache(16)
    init = symmetrize(random_field(build_grid(16), seed=8))
    state = fixed_point_minimize(fm, 1.0, init=init)
    _, dev = rotation_deviation(fm, state.psi)
    assert dev <= 1e-10
    assert state.A == pytest.approx(1.0, abs=1e-8)
    assert state.B == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("m, start", [(0.0, "symmetrised"),
                                      (1.0, "symmetrised"),
                                      (3.0, "symmetrised"), (0.0, "trial")])
def test_symmetric_start_converges_in_one_unprojected_solve(
        fm_cache, monkeypatch, m, start):
    # A quarter-turn symmetric start has ratios 1 to rounding, and at the
    # square's weights the class +1 ground vector of the grid solve is the
    # alpha = 1 eigenvector: one plain round converges, symmetric, with no
    # symmetrisation and no deviation check on the way.
    fm = fm_cache(16)
    grid = build_grid(16)
    init = (trial_dirichlet(grid) if start == "trial"
            else symmetrize(random_field(grid, seed=8)))
    calls = []
    for name in ("symmetrize", "rotation_deviation"):
        def counting(*args, _name=name, _f=getattr(jopt, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(jopt, name, counting)
    state = fixed_point_minimize(fm, m, init=init, seed=4)
    assert calls == []
    assert state.iteration == 1 and state.converged
    assert abs(state.A - 1.0) <= 1e-12 and abs(state.B - 1.0) <= 1e-12
    _, dev = rotation_deviation(fm, state.psi)
    assert dev <= 1e-12
    (mu, A, B, _), = state.history
    assert mu == state.mu == euler_solve(fm, A, B, m, seed=4)[0]


def test_fixed_point_degenerate_trace_guard(fm_cache):
    fm = fm_cache(16)
    with pytest.raises(DegenerateRatioError):
        fixed_point_minimize(fm, 1.0, init=trial_dirichlet(build_grid(16)))


def test_probe_requires_three_restarts(fm_cache):
    with pytest.raises(ValueError):
        probe_conjecture_symmetry(fm_cache(8), 0.0, restarts=2)


def test_probe_collects_evidence(fm_cache):
    fm = fm_cache(16)
    evidence = probe_conjecture_symmetry(fm, 1.0, restarts=4, seed=0)
    assert evidence.degenerate_restarts == 1   # the boundary-vanishing start
    oks = [r for r in evidence.restarts if r["status"] == "ok"]
    assert len(oks) == 3
    assert all(evidence.best_mu <= r["mu"] + 1e-12 for r in oks)
    for r in oks:
        mus = [h[0] for h in r["history"]]
        assert all(b <= a + 1e-12 * max(1.0, abs(a))
                   for a, b in zip(mus, mus[1:]))
    d = evidence.as_dict()
    assert {"best_mu", "d1", "d2", "rotation_deviation",
            "all_restarts_agree"} <= set(d)


def test_theorem_idea_chain_report():
    report = verify_theorem_idea_chain(0.0, [0.5, 1.0, 1.5], 16, restarts=3)
    assert report["fixed_area_dominates_best"]
    assert report["representative_attains"]
    assert report["symmetric_random_never_beats"]
    assert report["symmetric_subspace_min_matches_square"]
    assert report["perimeter_dominates_area"]
    assert len(report["perimeter_family"]) == 3
    a_half = report["perimeter_family"][0]
    assert a_half["mu_perimeter"] >= a_half["mu_area"] - 1e-9


def test_theorem_idea_chain_solves_each_rectangle_once(monkeypatch):
    # the perimeter comparison reuses the area family's eigenvalues
    calls = []
    solve = jopt.lambda1_2d

    def counting(a, b, *args, **kwargs):
        calls.append((a, b))
        return solve(a, b, *args, **kwargs)

    monkeypatch.setattr(jopt, "lambda1_2d", counting)
    a_grid = [0.5, 1.5, 2.5]
    report = verify_theorem_idea_chain(0.5, a_grid, 8, restarts=3)
    # 3 area points and the 2 perimeter points with 0 < a < 2
    assert len(calls) == len(set(calls)) == 5
    assert [p["a"] for p in report["perimeter_family"]] == [0.5, 1.5]
    for p in report["perimeter_family"]:
        a = p["a"]
        assert p["mu_area"] == lambda1_2d(a, 1.0 / a, 0.5, 8).mu
        assert p["mu_perimeter"] == lambda1_2d(a, 2.0 - a, 0.5, 8).mu
