import math

import numpy as np
import pytest

from diracbox import ConsistencyError, bounds, dirac1d

PI_SQ = math.pi**2


def test_thm_lower_values():
    assert bounds.thm_lower(1, 1, 0) == pytest.approx(PI_SQ / 2, rel=1e-14)
    assert bounds.thm_lower(2, 0.5, 0) == pytest.approx(17 * PI_SQ / 16, rel=1e-14)
    # heavy-mass limit approaches the Dirichlet value
    assert bounds.thm_lower(1, 1, 1e8) == pytest.approx(2 * PI_SQ, rel=1e-6)


def test_sharp_lower_values():
    assert bounds.sharp_lower(1, 1, 0) == pytest.approx(PI_SQ / 2, rel=1e-14)
    nu = dirac1d.nu1(1.0).nu
    expected = 2 * nu * nu
    assert bounds.sharp_lower(1, 1, 1) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(8.2317, abs=5e-5)


def test_sharp_lower_is_the_separable_bound_of_the_rectangle_weights():
    # The paper's closed form is the reference; sharp_lower evaluates the
    # separable bound at the weights (a^-2, b^-2, 0, m/a, m/b), whose
    # arguments nu_1 reads as (m/a)/a^-2 rather than m a.
    for a in np.geomspace(1e-3, 1e3, 9):
        for b in (0.05, 1.0, 7.0):
            for m in (0.0, 1e-3, 0.7, 56.0, 1e4):
                closed = ((dirac1d.nu1(m * a).nu / a) ** 2
                          + (dirac1d.nu1(m * b).nu / b) ** 2)
                assert bounds.sharp_lower(a, b, m) == pytest.approx(
                    closed, rel=1e-15, abs=0.0)


def test_sharp_dominates_crude_on_grid():
    for a in np.geomspace(0.2, 5.0, 10):
        for m in np.geomspace(1e-3, 1e3, 10):
            lo = bounds.thm_lower(a, 1 / a, m)
            sh = bounds.sharp_lower(a, 1 / a, m)
            assert sh >= lo * (1 - 1e-13)


def test_thm_upper_values():
    assert bounds.thm_upper(1, 1) == pytest.approx(2 * PI_SQ, rel=1e-15)
    assert bounds.thm_upper(2, 0.5) == pytest.approx(17 * PI_SQ / 4, rel=1e-15)
    assert bounds.thm_upper(1.3, 0.6, 0.0) == bounds.thm_upper(1.3, 0.6, 100.0)


def test_corollary_eccentricity_area():
    conds = bounds.corollary_conditions(3.0, 0.0, "area")
    assert conds["cond_a"].holds
    assert conds["cond_a"].margin == pytest.approx(5.0 - math.sqrt(15), rel=1e-14)
    assert not bounds.corollary_conditions(1.0, 0.0, "area")["cond_a"].holds


def test_corollary_heavy_mass_area():
    conds = bounds.corollary_conditions(1.2, 500.0, "area")
    assert conds["cond_b"].holds
    lhs = 500.0 * (1 / 1.44 + 1.44 - 2.0)
    assert lhs == pytest.approx(67.2222222, abs=1e-6)
    assert conds["cond_b"].margin == pytest.approx(lhs - 56.0, rel=1e-13)


def test_corollary_perimeter_conditions():
    conds = bounds.corollary_conditions(1.7, 0.0, "perimeter")
    assert conds["cond_a_prime"].holds
    assert conds["cond_a_prime"].margin == pytest.approx(
        0.49 - (9 - math.sqrt(33)) / 8, rel=1e-12)
    conds = bounds.corollary_conditions(1.3, 500.0, "perimeter")
    assert conds["cond_b_prime"].holds
    with pytest.raises(ValueError):
        bounds.corollary_conditions(2.5, 1.0, "perimeter")
    with pytest.raises(ValueError):
        bounds.corollary_conditions(1.0, 1.0, "circumference")


def test_heavy_mass_implies_initial_condition():
    # within the moderate-eccentricity window the proof reduction applies
    for a in np.linspace(0.4, 2.9, 12):
        for m in np.geomspace(1.0, 1e4, 12):
            conds = bounds.corollary_conditions(a, m, "area")
            if conds["cond_b"].holds and 1 / 3 < a < 3:
                assert conds["cond_initial_area"].holds
    for a in np.linspace(0.4, 1.6, 9):
        for m in np.geomspace(1.0, 1e4, 9):
            conds = bounds.corollary_conditions(a, m, "perimeter")
            if conds["cond_b_prime"].holds and 1 / 3 < a < 5 / 3:
                assert conds["cond_initial_perimeter"].holds


def test_bounds_report_shape():
    rep = bounds.bounds_report(1.2, 1 / 1.2, 500.0)
    assert rep.thm_lower <= rep.sharp_lower <= rep.thm_upper
    assert rep.dirichlet == rep.thm_upper
    names = set(rep.conditions)
    assert {"cond_a", "cond_b", "cond_initial_area",
            "cond_a_prime", "cond_b_prime", "cond_initial_perimeter"} == names
    d = rep.as_dict()
    assert d["conditions"]["cond_b"]["holds"] is True

    wide = bounds.bounds_report(3.0, 1 / 3.0, 0.0)
    assert "cond_a_prime" not in wide.conditions   # a outside (0, 2)


def test_square_satisfies_no_region():
    rep = bounds.bounds_report(1.0, 1.0, 0.0)
    assert not any(c.holds for c in rep.conditions.values())


def test_bracket_contains_and_orders(solve_memo):
    res = solve_memo(1.0, 1.0, 0.0, 16)
    lo, hi = bounds.bracket(1.0, 1.0, 0.0, res.mu)
    assert lo == pytest.approx(PI_SQ / 2, rel=1e-14)
    assert lo <= hi <= 2 * PI_SQ
    assert hi <= res.mu * (1 + 1e-14)
    # capped by the Dirichlet value, empty when mu falls below the lower end
    assert bounds.bracket(1.0, 1.0, 0.0, 1e3) == (lo, 2 * PI_SQ)
    with pytest.raises(ConsistencyError):
        bounds.bracket(1.0, 1.0, 0.0, 0.9 * lo)


def test_bracket_above_square_value_for_eccentric(solve_memo):
    # strongly eccentric fixed-area rectangle sits entirely above 2 pi^2
    lo, hi = bounds.bracket(3.0, 1 / 3.0, 0.0,
                            solve_memo(3.0, 1 / 3.0, 0.0, 32).mu)
    assert lo > 2 * PI_SQ
    assert hi >= lo


def test_bracket_width_shrinks(solve_memo):
    lo1, hi1 = bounds.bracket(1.0, 1.0, 0.0, solve_memo(1.0, 1.0, 0.0, 16).mu)
    lo2, hi2 = bounds.bracket(1.0, 1.0, 0.0, solve_memo(1.0, 1.0, 0.0, 32).mu)
    assert hi2 - lo2 <= hi1 - lo1 + 1e-12


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bounds.thm_lower(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        bounds.sharp_lower(1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        bounds.thm_upper(1.0, 1.0, -3.0)
    with pytest.raises(ValueError):
        bounds.corollary_conditions(-1.0, 0.0, "area")
