import gc
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from diracbox import SolverError, bounds, lambda1_2d, refine_study
from diracbox import cli, eigsolve, formgrid, jopt, symmetry, tensor
from diracbox.errors import ConsistencyError


def test_rejects_non_hermitian(fm_cache, monkeypatch):
    # A grid whose 1D stiffness is not symmetric has forms that are not
    # Hermitian: the solve's certificate rejects it before ARPACK runs.
    def eigsh(*args, **kwargs):
        raise AssertionError("ARPACK ran on a non-Hermitian pencil")

    monkeypatch.setattr(eigsolve.spla, "eigsh", eigsh)
    lines = fm_cache(12).lines.copy()
    lines[0, 2, 3] *= 1 + 1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        eigsolve._solve_pencil(formgrid.FormMatrices(12, lines),
                               (1.0, 1.0, 0.0, 0.0, 0.0), 1, 1e-10, 0)


def test_rejects_bad_tol_before_any_solve(monkeypatch):
    # At or below zero no pair can meet the residual contract, and at NaN
    # every pair would: an argument error, raised before ARPACK runs.
    def eigsh(*args, **kwargs):
        raise AssertionError("ARPACK ran with a bad tol")

    monkeypatch.setattr(eigsolve.spla, "eigsh", eigsh)
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be"):
            lambda1_2d(1, 1, 0, 12, tol=tol)


def test_grid_solve_checks_arguments_before_any_work(fm_cache):
    # k and real weights are argument errors, raised before M's inverse or
    # the weighted form is built.
    fm = fm_cache(10)
    w = (1.0, 1.0, 0.0, 0.0, 0.0)
    tensor.mass_inverse.cache_clear()
    for weights, k, match in (
            (w, 0, "k must be"),
            (w, fm.ndof, "too many"),
            ((1.0, 1.0, 0.0, 0.5j, 0.0), 1, "must be real")):
        with pytest.raises(ValueError, match=match):
            eigsolve._solve_pencil(fm, weights, k, 1e-10, 0)
    assert tensor.mass_inverse.cache_info().misses == 0


def test_rejects_bad_k(fm_cache):
    fm = fm_cache(12)
    for k in (0, fm.ndof):
        with pytest.raises(ValueError):
            eigsolve.ground_cluster(fm, 1.0, 1.0, 0.0, k=k)


def test_sparse_deterministic_bitwise(fm_cache):
    fm = fm_cache(48)
    first, second = (eigsolve._solve_pencil(fm, (1.0, 1.0, 0.0, 0.0, 0.0), 2,
                                            1e-10, 42) for _ in range(2))
    assert np.array_equal(first.mus, second.mus)
    assert np.array_equal(first.vectors, second.vectors)


def test_sparse_matches_dense(fm_cache, reference_forms):
    # the class +1 values and their class -1 conjugates, merged
    ref = reference_forms(16)
    q = ref.weighted((1.3**-2, 0.9**-2, 0.0, 0.5 / 1.3, 0.5 / 0.9))
    dense = sla.eigh(q.toarray(), ref.M.toarray(), eigvals_only=True,
                     subset_by_index=[0, 2])
    mus, _ = eigsolve.ground_cluster(fm_cache(16), 1.3, 0.9, 0.5, k=3)
    assert mus == pytest.approx(dense, rel=1e-11)


def test_eigenvectors_mass_orthonormal(fm_cache, reference_forms):
    # the class +1 vectors and their class -1 conjugates together
    sol = eigsolve._solve_pencil(fm_cache(16), (1.0, 1.0, 0.0, 0.0, 0.0), 2,
                                 1e-10, 0)
    v = np.concatenate([sol.vectors, symmetry.rotation_map(16).conjugate(
        sol.vectors)], axis=1)
    gram = v.conj().T @ (reference_forms(16).M @ v)
    assert np.abs(gram - np.eye(4)).max() <= 1e-12


def test_1d_pencil_against_root_equation(interval_forms):
    k, m, _ = interval_forms(512)
    [mu] = spla.eigsh(k, k=1, M=m, sigma=0, return_eigenvectors=False)
    exact = (math.pi / 2) ** 2
    assert exact <= mu <= exact * (1 + 1e-4)


def test_nonconvergence_carries_best_iterate(fm_cache, monkeypatch):
    # a two-pair class solve cut after one restart
    fm = fm_cache(48)
    with monkeypatch.context() as patch:
        patch.setattr(eigsolve, "MAXIT", 1)
        with pytest.raises(SolverError) as err:
            eigsolve.ground_cluster(fm, 1.0, 1.0, 0.0, k=4)
    assert err.value.iterations > 0
    mus, _ = eigsolve.ground_cluster(fm, 1.0, 1.0, 0.0, k=4)
    assert err.value.best_mu == pytest.approx(mus[0], rel=1e-6)


def test_grid_nonconvergence_carries_shifted_best_iterate(monkeypatch):
    # ARPACK iterates the shifted operator of the unit-scale pencil, whose
    # eigenvalues are 1/(mu - sigma) at unit scale: best_mu adds the shift
    # back and is reported in the caller's units, for a unit and a tiny
    # square alike.
    for a in (1.0, 1e-6):
        sigma = bounds.sharp_lower(a, a, 0.0)
        with monkeypatch.context() as patch:
            patch.setattr(eigsolve, "MAXIT", 1)
            with pytest.raises(SolverError) as err:
                lambda1_2d(a, a, 0.0, 48)
        assert err.value.iterations > 0
        mu = lambda1_2d(a, a, 0.0, 48).mu
        assert err.value.best_mu is not None
        assert err.value.best_mu >= sigma
        assert err.value.best_mu == pytest.approx(mu, rel=1e-6)


def test_residual_contract_enforced():
    with pytest.raises(SolverError):
        lambda1_2d(1, 1, 0, 16, tol=1e-30)


def test_contract_failure_reports_the_callers_units():
    # The tolerance enters only the contract, so a violated one carries the
    # value and residual that a passing solve returns, scaled back from
    # the unit-scale pencil.
    for a in (1.0, 1e-6, 2.0**300):
        res = lambda1_2d(a, a, 0.0, 16)
        with pytest.raises(SolverError) as err:
            lambda1_2d(a, a, 0.0, 16, tol=1e-30)
        assert err.value.best_mu == res.mu
        assert err.value.residual == res.residual


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_unit_scale_is_exact_beyond_the_old_range(m):
    # mu(2^k a, 2^k b, 2^-k m) = 4^-k mu(a, b, m) bit for bit: every pencil
    # is divided by the power of four nearest its larger gradient weight,
    # so these all solve the unit square's pencil, far past the sides where
    # an unscaled solve failed or read 30 % high with a residual of 0.
    for a, b, ks in ((1.0, 1.0, (-480, -260, 260, 480)),
                     (2**-0.5, 1.1 * 2**-0.5, (-479, -259, 259, 479))):
        unit = lambda1_2d(a, b, m, 8)
        for k in ks:
            res = lambda1_2d(a * 2.0**k, b * 2.0**k, m * 2.0**-k, 8)
            assert res.mu * 4.0**k == unit.mu
            assert res.residual * 4.0**k == unit.residual
            assert res.iterations == unit.iterations


def test_weights_beyond_the_float_range_at_unit_scale(fm_cache):
    # Euler weights (A^-2, A^2, ...) differ by A^4: past A of about 2^256
    # the smaller gradient weight is no normal float at unit scale.
    fm = fm_cache(8)
    jopt.euler_solve(fm, 2.0**250, 1.0, 0.0)
    for A in (2.0**260, 2.0**-260):
        with pytest.raises(ValueError, match="at unit scale"):
            jopt.euler_solve(fm, A, 1.0, 0.0)
    for w in ((0.0, 0.0, 0.0, 0.0, 0.0), (math.inf, 1.0, 0.0, 0.0, 0.0),
              (1.0, -1.0, 0.0, 0.0, 0.0), (1.0, 1.0, math.nan, 0.0, 0.0)):
        with pytest.raises(ValueError, match="at unit scale"):
            eigsolve._solve_pencil(fm, w, 1, 1e-10, 0)


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
    """The inverse ``inv`` on nodal columns: the forward transform, the
    class solves of both class parts and the back transform."""
    basis = inv.basis
    return basis.back({beta: inv.class_solve(*rhs)
                       for beta, rhs in basis.forward(cols).items()})


@pytest.mark.parametrize("n", [4, 6, 12, 30])
def test_tensor_inverse_is_exact(reference_forms, n):
    # Both class solves run on the one factor of the class +1 block, so
    # this is also the check that it solves class -1.
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
            z = rng.standard_normal(op.dim)
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


def _x1_reflection(n):
    """``T z = conj(P z)``, ``P`` the plain x1-reflection of the reduced
    dofs: the dof at node (i, j) takes the value of the same component at
    (n - i, j)."""
    cmap = formgrid.constraint_map(n)
    perm = np.empty(cmap.ndof, dtype=int)
    for free in (cmap.free1, cmap.free2):
        has = free >= 0
        perm[free[has]] = free[::-1][has]
    return lambda z: np.conj(z[perm])


@pytest.mark.parametrize("n", [4, 8, 12])
def test_real_class_coordinates_under_x1_reflection(reference_forms, n):
    # T = K P commutes with every real-weighted pencil and keeps both
    # half-turn classes, so class +1 has real coordinates (the basis's):
    # the dense class +1 operator commutes with T, the real class vectors
    # of both classes are T-fixed, and the real operator ARPACK iterates
    # has the complex operator's eigenvalues.  The residual norms of
    # complex columns with T-odd and class -1 parts, read as two real
    # columns per class, match a dense Cholesky factor of M.
    fm = reference_forms(n)
    mass = tensor.mass_inverse(n)
    basis, x1 = mass.basis, _x1_reflection(n)
    half_turn = symmetry.rotation_map(n).half_turn
    rng = np.random.default_rng(n)
    a, b, m = 1.4, 1.0 / 1.4, 0.7
    w = (a**-2, b**-2, 0.0, m / a, m / b)
    sigma = bounds.sharp_lower(a, b, m)
    shift = tensor._TensorInverse(basis, (w[0], w[1], -sigma, w[3], w[4]))

    def plus(x):
        return (x + half_turn(x)) / 2

    mat_m = fm.M.toarray()
    dense = plus(plus(sla.solve((fm.weighted(w) - sigma * fm.M).toarray(),
                                mat_m)).T).T
    z = rng.standard_normal((fm.ndof, 3)) + 1j * rng.standard_normal(
        (fm.ndof, 3))
    assert np.abs(dense @ x1(z) - x1(dense @ z)).max() <= 1e-12 * np.abs(
        dense @ z).max()

    nn = n - 1
    for beta in (1, -1):
        # real coordinates: each column pair with a zero imaginary column
        v = basis.back({beta: (tensor._split(rng.standard_normal(
            (nn, 2, nn))), tensor._split(rng.standard_normal((2 * nn, 2))))})
        assert np.abs(x1(v) - v).max() <= 1e-13 * np.abs(v).max()

    op = tensor._ClassOperator(shift, mass)
    real = np.stack([op.apply(e) for e in np.eye(op.dim)], axis=1)
    assert np.abs(real - real.T).max() <= 1e-12 * np.abs(real).max()
    want = np.sort(np.linalg.eigvals(dense).real)[-op.dim:]
    got = np.linalg.eigvalsh((real + real.T) / 2)
    assert np.abs(got - want).max() <= 1e-11 * want.max()

    r = rng.standard_normal((fm.ndof, 2)) + 1j * rng.standard_normal(
        (fm.ndof, 2))
    z = plus(r[:, :1])
    r = np.concatenate([r, (z - x1(z)) / 2, r[:, 1:] - plus(r[:, 1:])],
                       axis=1)
    chol = sla.cho_factor(mat_m)
    want = np.sqrt(np.real(np.einsum("ij,ij->j", r.conj(),
                                     sla.cho_solve(chol, r))))
    assert np.abs(mass.norms(r) - want).max() <= 1e-12 * want.max()


def test_tensor_inverse_rejects_indefinite_forms():
    basis = tensor.mass_inverse(12).basis
    # a negative interior spectrum, and an indefinite boundary block over a
    # positive interior: both are errors, never a number
    for w in ((1.0, 1.0, -1e3, 0.0, 0.0), (1.0, 1.0, 0.0, -1e3, -1e3)):
        with pytest.raises(ValueError, match="not positive definite"):
            tensor._TensorInverse(basis, w)


def _real_edge_block(unitary, block):
    """``U^H block U`` of a dense class block on the nodal left and bottom
    values, ``U`` the edge unitary ``(ua, ub)`` of the class: ``(U x)_t =
    ua_t x_t + ub_t x_{N-1-t}`` on each edge."""
    size = block.shape[0]
    rev = np.arange(size).reshape(2, -1)[:, ::-1].ravel()
    u = np.diag(unitary[0])
    u[np.arange(size), rev] += unitary[1]
    return u.conj().T @ block @ u


@pytest.mark.parametrize("n", [4, 12, 30])
def test_class_blocks_match_the_reference_assembly(reference_forms, n):
    # The charge conjugation carries the class +1 vector of real
    # coordinates onto the class -1 vector of the same coordinates, so the
    # half-turn class blocks of Q_BB sliced from the reference assembly's
    # edge block, each taken to its class's real edge coordinates, are both
    # the one block built from 1D entries.  The weights leave no form out,
    # and one is a shifted pencil's.  A class -1 gauge whose left edge is
    # not reversed gives another matrix.
    ref = reference_forms(n)
    basis = tensor.mass_inverse(n).basis
    nn = n - 1
    rng = np.random.default_rng(n)
    coords = (tensor._split(rng.standard_normal((nn, 2, nn))),
              tensor._split(rng.standard_normal((2 * nn, 2))))
    plus, minus = (basis.back({beta: coords}) for beta in (1, -1))
    assert np.abs(symmetry.rotation_map(n).conjugate(plus) - minus).max() <= (
        1e-14 * np.abs(minus).max())
    a, b, m = 1.4, 1.0 / 1.4, 0.7
    shifted = (a**-2, b**-2, -bounds.sharp_lower(a, b, m), m / a, m / b)
    for w in ((0.3, 1.7, 0.5, 0.9, 1.1), (1.0, 1.0, -40.0, 2.0, 3.0),
              shifted):
        got, want = basis.real_block(w), ref.class_blocks(basis, w)
        for beta in (1, -1):
            real = _real_edge_block(basis.unitary[beta], want[beta])
            scale = np.abs(real).max()
            assert np.abs(real.imag).max() <= 1e-14 * scale
            assert np.abs(got - real.real).max() <= 1e-14 * scale
        ua, ub = basis.unitary[-1].copy()
        ua[:nn], ub[:nn] = ub[:nn], ua[:nn].copy()      # U_- unreversed
        wrong = _real_edge_block((ua, ub), want[-1])
        assert np.abs(got - wrong).max() > 1e-3 * np.abs(wrong).max()


def test_tensor_inverse_factors_one_block(monkeypatch):
    # class -1's Schur block is class +1's in the class coordinates, so a
    # build factors one 2N-square block
    basis = tensor.mass_inverse(12).basis
    shapes, factor = [], tensor.sla.cho_factor

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(tensor.sla, "cho_factor", counted)
    tensor._TensorInverse(basis, (1.0, 1.0, 0.5, 0.3, 0.3))
    assert shapes == [(22, 22)]


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


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are glibc's")
def test_warm_solves_take_no_page_faults():
    # Importing diracbox fixes glibc's mmap and trim thresholds, so a warm
    # solve reuses the heap memory of the one before: with glibc's dynamic
    # thresholds each n = 128 solve faulted about 1,600 pages back in.
    code = ("import resource; from diracbox import lambda1_2d\n"
            "def solve(): lambda1_2d(1.3, 1 / 1.3, 1.0, 128)\n"
            "solve(); solve()\n"
            "f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "solve(); solve(); solve()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         os.environ.get("PYTHONPATH", "")]))
    faults = int(subprocess.run([sys.executable, "-c", code], env=env,
                                check=True, capture_output=True,
                                text=True).stdout)
    assert faults < 100, faults


def test_sparse_path_repairs_inaccurate_arpack_vectors(fm_cache, monkeypatch):
    # ARPACK can return the vectors of a degenerate pair far above its
    # tolerance; the inverse-iteration and Rayleigh-Ritz steps repair them.
    fm = fm_cache(48)
    clean, _ = eigsolve.ground_cluster(fm, 1.0, 1.0, 0.0, k=4)
    eigsh = eigsolve.spla.eigsh

    def noisy(*args, **kwargs):
        w, v = eigsh(*args, **kwargs)
        noise = np.random.default_rng(1).standard_normal(v.shape)
        scale = 1e-11 * np.linalg.norm(v, axis=0) / np.sqrt(v.shape[0])
        return w, v + scale * noise

    monkeypatch.setattr(eigsolve.spla, "eigsh", noisy)
    repaired, _ = eigsolve.ground_cluster(fm, 1.0, 1.0, 0.0, k=4)
    assert repaired == pytest.approx(clean, rel=1e-12)


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


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_solve_is_scale_invariant(m):
    # mu(t a, t b, m / t) = mu(a, b, m) / t^2.  Every pencil is solved at
    # unit scale, divided by the power of four nearest its larger gradient
    # weight, so a tiny or a huge rectangle converges as far, in as many
    # applications, as a unit one; t is no power of two, so its pencils
    # differ from the unit one's in their last bits.
    unit = lambda1_2d(1.0, 1.1, m, 32)
    for t in (1e-9, 1e-6, 1e-3, 1e3, 1e6):
        res = lambda1_2d(t, 1.1 * t, m / t, 32)
        assert res.mu * t * t == pytest.approx(unit.mu, rel=1e-13)
        assert res.iterations == unit.iterations
        assert res.residual <= 1e-12 * res.mu


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


def test_refine_study_slack_is_relative(monkeypatch):
    # A ladder that increases by 1e-6 relative is caught whatever the size
    # of its values: an absolute slack let it through below mu = 1.
    for scale in (1.0, 1e-20):
        ladder = iter([scale, scale * (1 + 1e-6)])
        monkeypatch.setattr(eigsolve, "lambda1_2d", lambda *args, **kwargs:
                            types.SimpleNamespace(mu=next(ladder)))
        with pytest.raises(ConsistencyError, match="increased"):
            refine_study(1.0, 1.0, 0.0, [8, 16])


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
