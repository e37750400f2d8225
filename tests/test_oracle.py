"""Differential gate: the solver path against the dense full pencil.

``lambda1_2d``, ``jopt.euler_solve``, ``symmetry.ground_cluster`` and the
class solve under them (shift-invert ARPACK inside one half-turn class, on
the tensor-product inverse of ``Q - sigma M`` at the closed-form shift,
with the memoised tensor-product inverse of M for the residual) run on
grids small enough for dense ``scipy.linalg.eigh`` on the full weighted
pencil, mass term included, to serve as the oracle.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, example, given, settings, strategies as st

from diracbox import (assemble, bounds, build_grid, eigsolve, jopt,
                      lambda1_2d, symmetry, weighted)

TOL = 1e-10


def _dense_lowest(q, m, k=1):
    mus = sla.eigh(q.toarray(), m.toarray(), eigvals_only=True,
                   subset_by_index=[0, k - 1])
    return mus[0] if k == 1 else mus


def _m_norm(m, v):
    return math.sqrt(abs(np.vdot(v, m @ v)))


def _residual(q, m, mu, v):
    """M^-1 norm of Q v - mu M v, through a dense solve."""
    r = q @ v - mu * (m @ v)
    return math.sqrt(abs(np.vdot(r, sla.solve(m.toarray(), r,
                                              assume_a="her"))))


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(4, 15).map(lambda h: 2 * h),
       log_aspect=st.floats(-math.log(20.0), math.log(20.0)),
       m=st.one_of(st.just(0.0), st.floats(-2.0, 3.0).map(lambda e: 10.0**e)))
@example(n=30, log_aspect=math.log(20.0), m=0.0)
@example(n=30, log_aspect=-math.log(20.0), m=1e3)
def test_sparse_path_matches_dense_full_pencil(n, log_aspect, m):
    a, b = math.exp(log_aspect / 2), math.exp(-log_aspect / 2)
    fm = assemble(build_grid(n))
    res = lambda1_2d(a, b, m, n, TOL)
    mu_j, psi_j = jopt.euler_solve(fm, a, b, m, TOL)

    full = weighted(fm, (a**-2, b**-2, m**2, m / a, m / b))
    assert res.mu == pytest.approx(_dense_lowest(full, fm.M), rel=1e-10)
    shifted = res.mu - m**2
    q = weighted(fm, (a**-2, b**-2, 0.0, m / a, m / b))
    assert res.residual <= TOL * shifted
    assert _residual(q, fm.M, shifted, res.psi.values) <= TOL * shifted

    q_j = weighted(fm, jopt._euler_weights(a, b, m))
    assert mu_j == pytest.approx(_dense_lowest(q_j, fm.M), rel=1e-10)
    assert _residual(q_j, fm.M, mu_j, psi_j.values) <= TOL * mu_j

    # every eigenvalue is double: the ground pair, both against the oracle
    pair, _ = symmetry.ground_cluster(fm, a, b, m, k=2, tol=TOL)
    dense_pair = _dense_lowest(q, fm.M, k=2)
    assert pair == pytest.approx(dense_pair, rel=1e-10)
    assert pair[1] == pytest.approx(pair[0], rel=1e-10)

    # two pairs per half-turn class at the closed-form shift: the four
    # lowest values, every vector inside its class, the classes isospectral
    sigma = bounds.sharp_lower(a, b, m)
    assert sigma > 0.0
    sol = eigsolve._solve_pencil(fm, (a**-2, b**-2, 0.0, m / a, m / b),
                                 sigma, (1, -1), 2, TOL, 500, 0)
    assert sol.mus == pytest.approx(_dense_lowest(q, fm.M, k=4), rel=1e-10)
    half_turn = symmetry.rotation_map(n).half_turn
    for beta, v in zip(sol.classes, sol.vectors.T):
        assert (_m_norm(fm.M, half_turn @ v - beta * v)
                <= 1e-12 * _m_norm(fm.M, v))
    plus, minus = (sol.mus[sol.classes == beta] for beta in (1, -1))
    assert plus == pytest.approx(minus, rel=1e-10)
