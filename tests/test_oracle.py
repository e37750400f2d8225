"""Differential gate: the solver path against the dense full pencil.

``lambda1_2d``, ``jopt.euler_solve``, ``eigsolve.ground_cluster`` and the
class +1 solve under them (shift-invert ARPACK inside half-turn class +1,
on the tensor-product inverse of ``Q - sigma M`` at the separable shift,
with the memoised tensor-product inverse of M for the residual), whose
charge conjugates ``ground_cluster`` takes as the class -1 pairs, run on
grids small enough for dense ``scipy.linalg.eigh`` on the full weighted
pencil, mass term included, to serve as the oracle.  The pencil is the
sparse reference assembly of the conftest, independent of the Kronecker
operators the solver applies.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, example, given, settings, strategies as st

from diracbox import (assemble, bounds, build_grid, eigsolve, jopt,
                      lambda1_2d, symmetry, tensor)

TOL = 1e-10


def _dense_lowest(q, m, k=1):
    mus = sla.eigh(q.toarray(), m.toarray(), eigvals_only=True,
                   subset_by_index=[0, k - 1])
    return mus[0] if k == 1 else mus


def _m_norm(m, v):
    return math.sqrt(abs(np.vdot(v, m @ v)))


def _residual(q, m, m_chol, mu, v):
    """M^-1 norm of Q v - mu M v, through the dense Cholesky factor
    ``m_chol`` of M."""
    r = q @ v - mu * (m @ v)
    return math.sqrt(abs(np.vdot(r, sla.cho_solve(m_chol, r))))


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(4, 15).map(lambda h: 2 * h),
       log_aspect=st.floats(-math.log(20.0), math.log(20.0)),
       m=st.one_of(st.just(0.0), st.floats(-2.0, 3.0).map(lambda e: 10.0**e)))
@example(n=30, log_aspect=math.log(20.0), m=0.0)
@example(n=30, log_aspect=-math.log(20.0), m=1e3)
def test_sparse_path_matches_dense_full_pencil(reference_forms, n,
                                               log_aspect, m):
    a, b = math.exp(log_aspect / 2), math.exp(-log_aspect / 2)
    fm, ref = assemble(build_grid(n)), reference_forms(n)
    m_chol = sla.cho_factor(ref.M.toarray())
    res = lambda1_2d(a, b, m, n, TOL)
    mu_j, psi_j = jopt.euler_solve(fm, a, b, m, TOL)

    # the m^2 M term shifts every eigenvalue of q by m^2, so the lowest
    # value of the full pencil q + m^2 M is the lowest of the four
    q = ref.weighted((a**-2, b**-2, 0.0, m / a, m / b))
    dense_four = _dense_lowest(q, ref.M, k=4)
    assert res.mu == pytest.approx(dense_four[0] + m**2, rel=1e-10)
    # class -1 is the charge conjugate of class +1: the same value
    assert len(res.eigenvalues) == 2
    assert res.eigenvalues[0] == res.eigenvalues[1] == res.mu
    shifted = res.mu - m**2
    assert res.residual <= TOL * shifted
    assert (_residual(q, ref.M, m_chol, shifted, res.psi.values)
            <= TOL * shifted)

    q_j = ref.weighted(jopt._euler_weights(a, b, m))
    assert mu_j == pytest.approx(_dense_lowest(q_j, ref.M), rel=1e-10)
    assert _residual(q_j, ref.M, m_chol, mu_j, psi_j.values) <= TOL * mu_j

    # every eigenvalue is double: the ground pair, both against the oracle
    pair, _ = eigsolve.ground_cluster(fm, a, b, m, k=2, tol=TOL)
    dense_pair = dense_four[:2]
    assert pair == pytest.approx(dense_pair, rel=1e-10)
    assert pair[1] == pytest.approx(pair[0], rel=1e-10)

    # two class +1 pairs at the closed-form shift, ascending: both columns
    # inside class +1, their conjugates inside class -1
    sol = eigsolve._solve_pencil(fm, (a**-2, b**-2, 0.0, m / a, m / b), 2,
                                 TOL, 0)
    assert sol.mus[0] <= sol.mus[1]
    rot = symmetry.rotation_map(n)
    conj = rot.conjugate(sol.vectors)
    for beta, cols in ((1, sol.vectors), (-1, conj)):
        for v in cols.T:
            assert (_m_norm(ref.M, rot.half_turn(v) - beta * v)
                    <= 1e-12 * _m_norm(ref.M, v))

    # ground_cluster(k=4) takes the conjugates as class -1, the classes
    # isospectral: the four lowest values, each pair followed by its
    # conjugate, and the cluster those of them within rel 1e-8 of the
    # lowest, values and vectors bit for bit
    four, cluster = eigsolve.ground_cluster(fm, a, b, m, k=4, tol=TOL)
    assert four == pytest.approx(dense_four, rel=1e-10)
    merged = [(sol.mus[0], sol.vectors[:, 0]), (sol.mus[0], conj[:, 0]),
              (sol.mus[1], sol.vectors[:, 1]), (sol.mus[1], conj[:, 1])]
    if sol.mus[0] == sol.mus[1]:
        # the stable merge keeps class +1 ahead of class -1 on a tie
        merged = [merged[i] for i in (0, 2, 1, 3)]
    assert four == [mu for mu, _ in merged]
    size = sum(mu - four[0] <= 1e-8 * abs(four[0]) for mu in four)
    assert len(cluster) == size >= 2
    for (mu, psi), (mu_ref, v) in zip(cluster, merged):
        assert mu == mu_ref and np.array_equal(psi.values, v)

    # the shifted inverse's factor of the Schur block of both classes
    # certifies Q - sigma M > 0: it exists just below the lowest eigenvalue
    # and not just above it
    basis = tensor.mass_inverse(n).basis

    def shifted(s):
        return tensor._TensorInverse(basis, (a**-2, b**-2, -s, m / a, m / b))

    shifted(dense_pair[0] * (1 - 1e-9))
    with pytest.raises(ValueError, match="not positive definite"):
        shifted(dense_pair[0] * (1 + 1e-9))


@pytest.mark.parametrize("n", [8, 16, 24])
def test_separable_shift_below_the_dense_lowest_eigenvalue(reference_forms,
                                                           n):
    # Every grid solve shifts by the separable bound of its weights.  For
    # the fixed-point weights, whose traces differ from a rectangle's, the
    # dense pencil shifted by it is positive definite, so the shift lies
    # below its lowest eigenvalue (0.99925 of it at worst, n = 24).
    ref = reference_forms(n)
    mass = ref.M.toarray()
    for A in (0.5, 1.0, 1.7):
        for B in (0.05, 0.6, 1.0, 3.0):
            for m in (0.0, 0.3, 1.0, 5.0, 40.0):
                w = jopt._euler_weights(A, B, m)
                sigma = bounds.separable_lower(w)
                assert sigma > 0.0
                sla.cholesky(ref.weighted(w).toarray() - sigma * mass)
