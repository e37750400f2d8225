import gc
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from diracbox import (
    SolverError,
    assemble_1d,
    bounds,
    lambda1_2d,
    refine_study,
    smallest_eigenpair,
)
from diracbox import cli, eigsolve, formgrid, jopt, symmetry, tensor


def test_dense_diagonal_case():
    q = np.diag([1.0, 4.0]).astype(complex)
    m = np.eye(2, dtype=complex)
    [(mu, vec)] = smallest_eigenpair(q, m, k=1)
    assert mu == pytest.approx(1.0, abs=1e-14)
    assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(vec[1]) <= 1e-12


def test_rejects_non_hermitian():
    q = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    with pytest.raises(ValueError):
        smallest_eigenpair(q, np.eye(2, dtype=complex), k=1)


def test_rejects_indefinite_mass():
    q = np.eye(2, dtype=complex)
    m = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError):
        smallest_eigenpair(q, m, k=1)
    # singular positive semidefinite: SuperLU finds an exactly zero pivot
    with pytest.raises(ValueError, match="not positive definite"):
        smallest_eigenpair(np.eye(3), np.diag([1.0, 1.0, 0.0]), k=1)


def test_rejects_indefinite_mass_with_positive_diagonal(monkeypatch):
    # Blocks [[1, 2], [2, 1]] have eigenvalues 3 and -1: the diagonal is
    # positive, the matrix is not.  The factor of M must reject it before
    # ARPACK runs.
    block = np.array([[1.0, 2.0], [2.0, 1.0]])
    m = sp.block_diag([block] * 1100, format="csr").astype(complex)
    q = sp.identity(m.shape[0], dtype=complex, format="csr")

    def eigsh(*args, **kwargs):
        raise AssertionError("ARPACK ran on an indefinite M")

    monkeypatch.setattr(eigsolve.spla, "eigsh", eigsh)
    with pytest.raises(ValueError, match="not positive definite"):
        smallest_eigenpair(q, m, k=2)


def test_rejects_bad_tol_before_any_solve(monkeypatch):
    # At or below zero no pair can meet the residual contract, and at NaN
    # every pair would: an argument error, raised before ARPACK runs.
    def eigsh(*args, **kwargs):
        raise AssertionError("ARPACK ran with a bad tol")

    monkeypatch.setattr(eigsolve.spla, "eigsh", eigsh)
    q = sp.diags(np.arange(1.0, 7.0)).tocsr().astype(complex)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be"):
            lambda1_2d(1, 1, 0, 12, tol=tol)
        with pytest.raises(ValueError, match="tol must be"):
            smallest_eigenpair(q, sp.identity(6, format="csr"), tol=tol)


def test_grid_solve_checks_arguments_before_any_work(fm_cache):
    # k and real weights are argument errors, raised before M's inverse or
    # the weighted form is built.
    fm = fm_cache(10)
    sigma = bounds.sharp_lower(1.0, 1.0, 0.0)
    w = (1.0, 1.0, 0.0, 0.0, 0.0)
    tensor.mass_inverse.cache_clear()
    for weights, k, match in (
            (w, 0, "k must be"),
            (w, fm.ndof, "too many"),
            ((1.0, 1.0, 0.0, 0.5j, 0.0), 1, "must be real")):
        with pytest.raises(ValueError, match=match):
            eigsolve._solve_pencil(fm, weights, sigma, k, 1e-10, 500, 0)
    assert tensor.mass_inverse.cache_info().misses == 0


def test_checks_arguments_before_factoring_mass(monkeypatch):
    # Mismatched shapes, a non-Hermitian Q and a bad k are argument errors,
    # raised before M is checked and factored.
    def splu(*args, **kwargs):
        raise AssertionError("M was factored")

    monkeypatch.setattr(eigsolve.spla, "splu", splu)
    m = sp.identity(6, dtype=complex, format="csr")
    q = sp.diags(np.arange(1.0, 7.0)).tocsr().astype(complex)
    skew = q.tolil()
    skew[0, 1] = 1.0
    for args, match in (((q, sp.identity(5, format="csr")), "equal shape"),
                        ((skew.tocsr(), m), "not Hermitian"),
                        ((q, m, 0), "must lie in"),
                        ((q, m, 7), "must lie in")):
        with pytest.raises(ValueError, match=match):
            smallest_eigenpair(*args)


def test_rejects_bad_k():
    q = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        smallest_eigenpair(q, q, k=0)
    with pytest.raises(ValueError):
        smallest_eigenpair(q, q, k=3)


def test_sparse_deterministic_bitwise(reference_forms):
    fm = reference_forms(48)
    q = fm.weighted((1.0, 1.0, 0.0, 0.0, 0.0))
    first = smallest_eigenpair(q, fm.M, k=2, seed=42)
    second = smallest_eigenpair(q, fm.M, k=2, seed=42)
    for (mu1, v1), (mu2, v2) in zip(first, second):
        assert mu1 == mu2
        assert np.array_equal(v1, v2)


def test_sparse_matches_dense(reference_forms):
    fm = reference_forms(16)
    q = fm.weighted((1.3**-2, 0.9**-2, 0.0, 0.5 / 1.3, 0.5 / 0.9))
    dense = sla.eigh(q.toarray(), fm.M.toarray(), eigvals_only=True,
                     subset_by_index=[0, 2])
    sparse = smallest_eigenpair(q, fm.M, k=3)
    for mu_d, (mu_s, _) in zip(dense, sparse):
        assert mu_s == pytest.approx(mu_d, rel=1e-11)


def test_eigenvectors_mass_orthonormal(reference_forms):
    fm = reference_forms(16)
    pairs = smallest_eigenpair(fm.weighted((1, 1, 0, 0, 0)), fm.M, k=4)
    v = np.column_stack([vec for _, vec in pairs])
    gram = v.conj().T @ (fm.M @ v)
    assert np.abs(gram - np.eye(4)).max() <= 1e-12


def test_1d_pencil_against_root_equation():
    fm1 = assemble_1d(512)
    q = sp.csr_matrix(fm1.K)
    [(mu, _)] = smallest_eigenpair(q, fm1.M, k=1, tol=1e-7)
    exact = (math.pi / 2) ** 2
    assert exact <= mu <= exact * (1 + 1e-4)


def test_nonconvergence_carries_best_iterate(reference_forms):
    fm = reference_forms(48)
    q = fm.weighted((1.0, 1.0, 0.0, 0.0, 0.0))
    with pytest.raises(SolverError) as err:
        smallest_eigenpair(q, fm.M, k=4, maxit=1)
    assert err.value.iterations > 0
    [(mu, _)] = smallest_eigenpair(q, fm.M, k=1)
    # ARPACK returns 1/mu; best_mu is the eigenvalue of the pencil
    assert err.value.best_mu == pytest.approx(mu, rel=1e-6)


def test_grid_nonconvergence_carries_shifted_best_iterate():
    # ARPACK iterates the shifted operator, whose eigenvalues are
    # 1/(mu - sigma): best_mu adds the shift back.
    sigma = bounds.sharp_lower(1.0, 1.0, 0.0)
    with pytest.raises(SolverError) as err:
        lambda1_2d(1.0, 1.0, 0.0, 48, maxit=1)
    assert err.value.iterations > 0
    mu = lambda1_2d(1.0, 1.0, 0.0, 48).mu
    assert err.value.best_mu is not None
    assert err.value.best_mu >= sigma
    assert err.value.best_mu == pytest.approx(mu, rel=1e-6)


def test_residual_contract_enforced(reference_forms):
    fm = reference_forms(16)
    q = fm.weighted((1.0, 1.0, 0.0, 0.0, 0.0))
    with pytest.raises(SolverError):
        smallest_eigenpair(q, fm.M, k=1, tol=1e-30)


def test_smallest_eigenpair_releases_its_factors(reference_forms,
                                                 monkeypatch):
    # The SuperLU factors of a matrix-pencil solve, M for its check and Q for
    # ARPACK, must go when it returns, with GC paused: no reference cycle may
    # hold them until the next full collection.
    fm = reference_forms(48)
    q = fm.weighted((1.0, 1.0, 0.0, 0.0, 0.0))
    splu = eigsolve.spla.splu
    factors = []

    class Factor:                       # a SuperLU that takes a weakref
        def __init__(self, lu):
            self.lu = lu

        def __getattr__(self, name):
            return getattr(self.lu, name)

        def solve(self, rhs):       # a bound method holds the wrapper
            return self.lu.solve(rhs)

    def tracked_splu(*args, **kwargs):
        factor = Factor(splu(*args, **kwargs))
        factors.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(eigsolve.spla, "splu", tracked_splu)
    gc.collect()
    gc.disable()
    try:
        smallest_eigenpair(q, fm.M, k=1)
        assert len(factors) == 2          # M for its check, Q for ARPACK
        assert all(ref() is None for ref in factors)
    finally:
        gc.enable()


def test_grid_solves_leave_no_reference_cycles(fm_cache):
    # A cycle through ARPACK's workspace would hold about 20 MB per n=128
    # solve until the cyclic GC ran.
    fm = fm_cache(48)
    lambda1_2d(1.3, 0.8, 1.0, 48)     # warm-up: per-grid state
    jopt.euler_solve(fm, 1.3, 0.8, 1.0)
    gc.collect()
    gc.disable()
    try:
        lambda1_2d(1.0, 1.0, 0.0, 48)
        jopt.euler_solve(fm, 1.3, 0.8, 1.0)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_grid_solves_factor_nothing(fm_cache, monkeypatch):
    # Grid solves use tensor-product inverses: no SuperLU factor at all.
    def splu(*args, **kwargs):
        raise AssertionError("a grid solve called splu")

    monkeypatch.setattr(eigsolve.spla, "splu", splu)
    fm = fm_cache(12)
    lambda1_2d(1.3, 0.8, 1.0, 12)
    jopt.euler_solve(fm, 1.3, 0.8, 1.0)
    eigsolve.ground_cluster(fm, 1.3, 0.8, 1.0, k=2)


def test_grid_inverse_state_built_once_per_n(fm_cache):
    # The per-n basis and M's inverse are built on the first grid solve of
    # that n, once, and never during set-up.
    builders = (tensor.mass_inverse,)
    for n in (12, 48):
        fm = fm_cache(n)
        for builder in builders:
            builder.cache_clear()
        cli._form_matrices(n)
        assert all(b.cache_info().currsize == 0 for b in builders)
        for a, m in ((1.0, 0.0), (1.4, 2.0)):
            lambda1_2d(a, 1.0 / a, m, n)
            jopt.euler_solve(fm, a, 1.0 / a, m)
            eigsolve.ground_cluster(fm, a, 1.0 / a, m, k=2)
        assert all(b.cache_info().misses == 1 for b in builders)


def _weight_shapes(a, b, m):
    return ((a**-2, b**-2, 0.0, m / a, m / b), jopt._euler_weights(a, b, m),
            (0.0, 0.0, 1.0, 0.0, 0.0))


def _nodal_solve(inv, cols):
    """The inverse ``inv`` on nodal columns: the forward transform, both
    class solves and the back transform."""
    basis = inv.basis
    return basis.back({beta: inv.class_solve(beta, *rhs)
                       for beta, rhs in basis.forward(cols).items()})


@pytest.mark.parametrize("n", [4, 6, 12, 30])
def test_tensor_inverse_is_exact(reference_forms, n):
    fm = reference_forms(n)
    basis = tensor.mass_inverse(n).basis
    rng = np.random.default_rng(n)
    worst = 0.0
    for log_aspect in np.linspace(-math.log(20.0), math.log(20.0), 5):
        a, b = math.exp(log_aspect / 2), math.exp(-log_aspect / 2)
        for m in (0.0, 1e-2, 1.0, 1e3):
            for w in _weight_shapes(a, b, m):
                q = fm.weighted(w)
                inv = tensor._TensorInverse(basis, w)
                x0 = (rng.standard_normal((fm.ndof, 2))
                      + 1j * rng.standard_normal((fm.ndof, 2)))
                for want in (x0, x0[:, :1]):
                    x = _nodal_solve(inv, q @ want)
                    assert x.shape == want.shape
                    worst = max(worst, np.linalg.norm(x - want)
                                / np.linalg.norm(want))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [4, 6, 12, 30])
def test_class_operator_is_exact_in_modal_coordinates(reference_forms, n):
    # ARPACK's coordinates are exactly the half-turn class +1: as many as
    # the class has dofs, each back-transformed vector inside the class.
    # The operator there is the nodal class +1 operator
    # P (Q - sigma M)^-1 M seen through the back transform, with the nodal
    # solve of the same inverse (exact by test_tensor_inverse_is_exact) and
    # the reference M; the class +1 nodal solve is P (Q - sigma M)^-1.
    fm = reference_forms(n)
    mass = tensor.mass_inverse(n)
    basis = mass.basis
    half_turn = symmetry.rotation_map(n).half_turn
    rng = np.random.default_rng(n)
    worst = worst_p = worst_plus = 0.0
    for log_aspect in np.linspace(-math.log(20.0), math.log(20.0), 5):
        a, b = math.exp(log_aspect / 2), math.exp(-log_aspect / 2)
        for m in (0.0, 1e-2, 1.0, 1e3):
            w = (a**-2, b**-2, 0.0, m / a, m / b)
            sigma = bounds.sharp_lower(a, b, m)
            shift = tensor._TensorInverse(
                basis, (w[0], w[1], -sigma, w[3], w[4]))
            op = tensor._ClassOperator(shift, mass)
            assert 2 * op.dim == fm.ndof
            z = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            x = op.to_nodal(z[:, None])
            worst_p = max(worst_p, np.linalg.norm(half_turn(x) - x)
                          / np.linalg.norm(x))
            y = _nodal_solve(shift, fm.M @ x)
            want = (y + half_turn(y)) / 2
            got = op.to_nodal(op.apply(z)[:, None])
            worst = max(worst, np.linalg.norm(got - want)
                        / np.linalg.norm(want))
            f = rng.standard_normal((fm.ndof, 2)) + 0j
            y = _nodal_solve(shift, f)
            want = (y + half_turn(y)) / 2
            worst_plus = max(worst_plus, np.linalg.norm(
                shift.plus_solve(f) - want) / np.linalg.norm(want))
    assert worst <= 1e-12
    assert worst_p <= 1e-13
    assert worst_plus <= 1e-12


@pytest.mark.parametrize("n", [4, 12, 30])
def test_mass_inverse_norms_in_class_coordinates(reference_forms, n):
    # The residual's M^-1 norm is read in class coordinates, with no back
    # transform: both classes and the doubled edges count.  It must equal
    # the norm through a dense Cholesky factor of the reference M.
    fm = reference_forms(n)
    chol = sla.cho_factor(fm.M.toarray())
    rng = np.random.default_rng(n)
    r = rng.standard_normal((fm.ndof, 3)) + 1j * rng.standard_normal(
        (fm.ndof, 3))
    want = np.sqrt(np.real(np.einsum("ij,ij->j", r.conj(),
                                     sla.cho_solve(chol, r))))
    got = tensor.mass_inverse(n).norms(r)
    assert np.abs(got - want).max() <= 1e-12 * want.max()


def test_tensor_inverse_rejects_indefinite_forms():
    basis = tensor.mass_inverse(12).basis
    # a negative interior spectrum, and an indefinite boundary block over a
    # positive interior: both are errors, never a number
    for w in ((1.0, 1.0, -1e3, 0.0, 0.0), (1.0, 1.0, 0.0, -1e3, -1e3)):
        with pytest.raises(ValueError, match="not positive definite"):
            tensor._TensorInverse(basis, w)


@pytest.mark.parametrize("n", [4, 12, 30])
def test_class_blocks_match_the_reference_assembly(reference_forms, n):
    # The half-turn class blocks of Q_BB built from 1D entries, against the
    # blocks sliced from the reference assembly's edge block, for weights
    # that leave no form out.
    ref = reference_forms(n)
    basis = tensor.mass_inverse(n).basis
    for w in ((0.3, 1.7, 0.5, 0.9, 1.1), (1.0, 1.0, -40.0, 2.0, 3.0)):
        got, want = basis.blocks(w), ref.class_blocks(basis, w)
        for beta in (1, -1):
            assert np.abs(got[beta] - want[beta]).max() <= 1e-14 * np.abs(
                want[beta]).max()


def test_grid_solve_meets_contract_at_n256():
    # Without the refinement step in the inverse-iteration repair, the second
    # pair of this solve read residual/mu = 1.08e-10, above the contract.
    res = lambda1_2d(1.0, 1.0, 0.0, 256)
    assert res.residual <= 1e-10 * res.mu


def test_degenerate_point_reproducible_under_threaded_blas():
    # An exactly degenerate ground pair; with SuperLU solves its mu varied in
    # the last bits from process to process under two BLAS threads.
    code = ("from diracbox import lambda1_2d; a = 1.189207; "
            "print(repr(lambda1_2d(a, 1.0 / a, 0.0, 32).mu))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   [os.path.join(os.path.dirname(__file__), "..", "src"),
                    os.environ.get("PYTHONPATH", "")]))
    mus = {subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()
           for _ in range(3)}
    assert len(mus) == 1, mus


def test_sparse_path_repairs_inaccurate_arpack_vectors(reference_forms,
                                                       monkeypatch):
    # ARPACK can return the vectors of a degenerate pair far above its
    # tolerance; the inverse-iteration and Rayleigh-Ritz steps repair them.
    fm = reference_forms(48)
    q = fm.weighted((1.0, 1.0, 0.0, 0.0, 0.0))
    clean = smallest_eigenpair(q, fm.M, k=4)
    eigsh = eigsolve.spla.eigsh

    def noisy(*args, **kwargs):
        w, v = eigsh(*args, **kwargs)
        rng = np.random.default_rng(1)
        noise = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
        scale = 1e-11 * np.linalg.norm(v, axis=0) / np.sqrt(v.shape[0])
        return w, v + scale * noise

    monkeypatch.setattr(eigsolve.spla, "eigsh", noisy)
    repaired = smallest_eigenpair(q, fm.M, k=4)
    for (mu_c, _), (mu_r, _) in zip(clean, repaired):
        assert mu_r == pytest.approx(mu_c, rel=1e-12)


def test_lambda1_2d_bracket_and_gap(solve_memo, fm_cache):
    res = solve_memo(1.0, 1.0, 0.0, 32)
    assert math.pi**2 / 2 <= res.mu <= 2 * math.pi**2
    assert res.mu > 0
    assert res.lambda1 == pytest.approx(math.sqrt(res.mu), rel=1e-15)
    fm = fm_cache(32)
    mass_norm = np.real(np.vdot(res.psi.values, fm.M @ res.psi.values))
    assert mass_norm == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-10 * res.mu
    res_m = solve_memo(1.0, 1.0, 2.0, 16)
    assert res_m.mu > 4.0


def test_zero_mass_scaling(solve_memo):
    big = solve_memo(2.0, 2.0, 0.0, 16)
    unit = solve_memo(1.0, 1.0, 0.0, 16)
    assert big.mu == pytest.approx(unit.mu / 4.0, rel=1e-12)


def test_swap_symmetry(solve_memo):
    ab = solve_memo(1.5, 1 / 1.5, 0.7, 16)
    ba = solve_memo(1 / 1.5, 1.5, 0.7, 16)
    assert ab.mu == pytest.approx(ba.mu, rel=1e-10)


def test_mass_monotonicity_of_shifted_value(solve_memo):
    shifted = [solve_memo(1.0, 1.0, m, 16).mu - m**2 for m in (0.0, 1.0, 10.0)]
    assert shifted[0] <= shifted[1] + 1e-10
    assert shifted[1] <= shifted[2] + 1e-10


def test_lower_bounds_never_exceed_discrete(solve_memo):
    for a, m in ((0.5, 0.0), (1.0, 1.0), (2.0, 10.0)):
        b = 1.0 / a
        res = solve_memo(a, b, m, 16)
        assert res.mu - m**2 >= bounds.thm_lower(a, b, m) * (1 - 1e-12)
        assert res.mu - m**2 >= bounds.sharp_lower(a, b, m) * (1 - 1e-12)


def test_lambda1_2d_validates_inputs():
    with pytest.raises(ValueError):
        lambda1_2d(-1.0, 1.0, 0.0, 16)
    with pytest.raises(ValueError):
        lambda1_2d(1.0, 1.0, -0.5, 16)
    with pytest.raises(ValueError):
        lambda1_2d(1.0, 1.0, 0.0, 7)


def test_refine_study_monotone_and_bracketed():
    study = refine_study(1.0, 1.0, 0.0, [8, 16, 32])
    mus = [mu for _, mu in study.entries]
    assert mus[0] >= mus[1] >= mus[2]
    assert math.pi**2 / 2 <= study.extrapolated <= 2 * math.pi**2
    assert study.observed_order is not None


def test_richardson_reports_out_of_range_orders():
    exact, c = 2.5, 7.0
    entries = [(n, exact + c * n**-2.0) for n in (8, 16, 32)]
    extrapolated, order = eigsolve._richardson(entries)
    assert order == pytest.approx(2.0, rel=1e-9)
    assert extrapolated == pytest.approx(exact, rel=1e-12)
    for p in (0.5, 3.5):
        entries = [(n, exact + c * n**-p) for n in (8, 16, 32)]
        extrapolated, order = eigsolve._richardson(entries)
        assert order == pytest.approx(p, rel=1e-9)
        assert extrapolated == entries[-1][1]


def test_refine_study_rejects_unnested():
    with pytest.raises(ValueError):
        refine_study(1.0, 1.0, 0.0, [16, 24])
    with pytest.raises(ValueError):
        refine_study(1.0, 1.0, 0.0, [32, 16])
    with pytest.raises(ValueError):
        refine_study(1.0, 1.0, 0.0, [16])
