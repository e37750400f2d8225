import math

import numpy as np
import pytest

from diracbox import dirac1d


def bisect_oracle(mu, iterations=200):
    """Independent bisection on mu*sin(nu) + nu*cos(nu) over [pi/2, pi]."""
    lo, hi = math.pi / 2, math.pi
    f = lambda nu: mu * math.sin(nu) + nu * math.cos(nu)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# frozen from bisect_oracle(1.0); the oracle below re-derives it
NU1_AT_1 = 2.028757838110434


def test_oracle_reproduces_frozen_value():
    assert bisect_oracle(1.0) == pytest.approx(NU1_AT_1, abs=1e-14)


def test_nu1_zero_mass_exact():
    root = dirac1d.nu1(0.0)
    assert root.nu == math.pi / 2
    assert root.residual <= 1e-13


def test_nu1_matches_oracle_at_one():
    root = dirac1d.nu1(1.0)
    assert root.nu == pytest.approx(NU1_AT_1, abs=1e-13)
    assert root.residual <= 1e-13 * 2


def test_nu1_huge_mass_approaches_pi():
    nu = dirac1d.nu1(1e6).nu
    assert math.pi - 1e-5 < nu < math.pi
    # oracle agrees on the gap size
    assert nu == pytest.approx(bisect_oracle(1e6), abs=1e-12)


def _mu_grid():
    return np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 999)])


def test_residual_property_on_log_grid():
    for mu in _mu_grid():
        root = dirac1d.nu1(mu)
        assert root.residual <= 1e-13 * (1.0 + mu)
        assert math.pi / 2 <= root.nu < math.pi


def test_monotone_in_mass():
    values = [dirac1d.nu1(mu).nu for mu in _mu_grid()]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_nu1_values_unchanged_inside_the_bisection_range():
    # the values before the extreme-mass ends were handled, bit for bit
    assert dirac1d.nu1(3e-16).nu == 1.570796326794897
    assert dirac1d.nu1(1.0).nu == 2.028757838110434
    assert dirac1d.nu1(5e15).nu == 3.1415926535897922


@pytest.mark.parametrize("mu", [1e-300, 1e-17, 2e-16, 6e15, 3e16, 1e300])
def test_nu1_at_extreme_masses_stays_below_the_root(mu):
    # the root lies within rounding of a bracket end, whose sign rounds
    # away; the value is that end's float below the root
    root = dirac1d.nu1(mu)
    end = math.pi / 2 if mu < 1.0 else math.nextafter(math.pi, 0.0)
    assert root.nu == end
    assert root.residual <= 1e-13 * (1.0 + mu)
    # the equation is positive below the root
    assert mu * math.sin(root.nu) + root.nu * math.cos(root.nu) >= 0.0


def test_monotone_across_the_extreme_mass_ends():
    grid = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 4001)])
    values = [dirac1d.nu1(mu).nu for mu in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] == math.pi / 2
    assert values[-1] == math.nextafter(math.pi, 0.0)


def test_single_sign_change_in_bracket():
    # uniqueness of the root is assumed; witness a single crossing at
    # sampling resolution for a spread of masses
    for mu in (1e-4, 0.3, 1.0, 7.0, 1e3):
        nus = np.linspace(math.pi / 2, math.pi, 20001)
        signs = np.sign(mu * np.sin(nus) + nus * np.cos(nus))
        crossings = np.count_nonzero(np.diff(signs[signs != 0]))
        assert crossings == 1


def test_lower_bound_values():
    assert dirac1d.nu1_lower(0.0) == math.pi / 2
    assert dirac1d.nu1_lower(1.0) == math.pi / 2
    assert dirac1d.nu1_lower(3.0) == pytest.approx(3 * math.pi / 4, rel=1e-15)


def test_lower_bound_below_root():
    for mu in np.geomspace(1e-3, 1e5, 200):
        assert dirac1d.nu1_lower(mu) <= dirac1d.nu1(mu).nu + 1e-14


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_nu1_rejects_bad_mass(bad):
    with pytest.raises(ValueError):
        dirac1d.nu1(bad)


def test_lambda1_1d_values():
    assert dirac1d.lambda1_1d(1.0, 0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert dirac1d.lambda1_1d(2.0, 0.0) == pytest.approx(math.pi / 4, rel=1e-15)
    expected = math.hypot(1.0, NU1_AT_1)
    assert dirac1d.lambda1_1d(1.0, 1.0) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(2.2618263, abs=5e-7)


def test_lambda1_1d_exceeds_mass():
    for a in (0.3, 1.0, 5.0):
        for m in (0.0, 0.5, 20.0):
            assert dirac1d.lambda1_1d(a, m) > m


def test_lambda1_1d_rejects_bad_interval():
    with pytest.raises(ValueError):
        dirac1d.lambda1_1d(0.0, 1.0)
    with pytest.raises(ValueError):
        dirac1d.lambda1_1d(-2.0, 1.0)
    with pytest.raises(ValueError):
        dirac1d.lambda1_1d(1.0, -1.0)
