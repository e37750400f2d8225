"""Smallest-eigenpair solver for the Hermitian pencil and the lambda_1 driver.

The generalized problem ``Q psi = mu M psi`` with Hermitian positive-definite
``Q`` and ``M`` is solved by shift-invert: ARPACK iterates the plain operator
``(Q - sigma M)^-1 M`` in standard mode for its largest eigenvalues
``1/(mu - sigma)``, from a deterministic seeded start vector, and a
Rayleigh-Ritz step on the unshifted pencil makes its vectors M-orthonormal.

Every grid solve (``lambda1_2d``, ``jopt.euler_solve`` and
``symmetry.ground_cluster``) goes through ``_solve_pencil(fm, w, sigma,
classes, ...)``.  Every eigenvalue of a grid pencil is double, one of each
pair in each class ``beta = +1, -1`` of the half turn ``R^2``
(``symmetry.rotation_map``), which commutes with every grid form.  The
projector ``P = (I + beta R^2)/2`` keeps ARPACK inside one class, where the
ground eigenvalue is simple, so each class needs only k = 1 and a Krylov
space of ``NCV`` vectors (Ericsson & Ruhe 1980 for the spectral
transformation, Bossavit 1986 for the symmetry classes).  The shift is the
closed-form lower bound ``bounds.sharp_lower`` of the point, so it depends
on nothing but the point; one inverse of ``Q - sigma M`` serves both
classes.  The inverse exists only for a shift below the lowest eigenvalue,
so a shift that contradicts its lower bound raises ConsistencyError, never
a number.

The inverses are exact tensor-product inverses instead of sparse factors.
The interior u1 and u2 blocks of every grid form are one separable
Kronecker sum, inverted by fast diagonalisation in the 1D eigenbasis
(Lynch, Rice & Thomas 1964); the interior meets the 4(n-1) edge dofs only
through the ring of lines next to the edges, and a dense Cholesky factor of
the boundary Schur complement closes the system (the capacitance matrix of
Buzbee, Dorr, George & Golub 1971).  ``_tensor_basis`` holds the per-n
eigenbasis and ring layout and ``mass_inverse`` the inverse of ``M``, each
built once per n and process on the first grid solve; the shifted inverse
lives for one solve.  The Schur factor exists only for a positive-definite
matrix, so ``mass_inverse`` is also M's positive-definiteness check, and it
solves the M^-1-norm residual check.

``smallest_eigenpair(Q, M)`` serves any other Hermitian pencil (1D pencils,
tests) at shift zero with symmetric-mode SuperLU factors of both matrices:
the minimum-degree ordering of ``A^T + A`` (``MMD_AT_PLUS_A``) and no row
pivoting, so the factor of a Hermitian matrix is its LDL^H factorization,
and the factor of ``M``, built on every call, is its positive-definiteness
test.  LAPACK solves the pencils too small for ARPACK (``k >= dim - 1``).

``lambda1_2d`` evaluates the rectangle eigenvalue through the mass-shifted
pencil: the ``m^2 M`` term of the squared form is an exact spectral shift of
the same pencil, so it is dropped before the solve and ``m^2`` is added back
to the eigenvalue.  This keeps the relative gaps at the bottom of the
spectrum of order one even for heavy masses, where the unshifted spectrum
clusters around ``m^2`` and shift-invert iteration stalls.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bounds import sharp_lower
from .errors import ConsistencyError, SolverError
from .formgrid import (BOTTOM, LEFT, OMEGA, RIGHT, TOP, SpinorField,
                       assemble, build_grid, constraint_map, weighted,
                       _check_weights, _matrices_1d)

__all__ = ["EigenResult", "RefineStudy", "smallest_eigenpair", "lambda1_2d",
           "refine_study", "mass_inverse"]


@dataclass(frozen=True)
class EigenResult:
    """Smallest eigenvalue of the weighted form and its eigenvector.

    ``mu`` is the discrete lambda_1^2, ``residual`` the M^-1-norm of
    ``Q psi - mu M psi`` and ``iterations`` the number of shifted-operator
    applications, summed over the two half-turn classes.
    """

    mu: float
    lambda1: float
    psi: SpinorField
    residual: float
    iterations: int
    n: int
    seed: int
    eigenvalues: tuple    # the ground value of each half-turn class


@dataclass(frozen=True)
class RefineStudy:
    a: float
    b: float
    m: float
    entries: tuple        # ((n, mu), ...)
    extrapolated: float
    observed_order: float | None

    @property
    def lambda1(self) -> float:
        return float(np.sqrt(self.extrapolated))


@dataclass(frozen=True)
class _PencilSolution:
    mus: np.ndarray
    vectors: np.ndarray       # columns, M-orthonormal
    residuals: np.ndarray     # M^-1 norms
    classes: np.ndarray       # half-turn class (+1 or -1) of each column
    iterations: int


def _check_hermitian(name, mat):
    if sp.issparse(mat):
        anti = abs(mat - mat.getH())
        dev = anti.max() if anti.nnz else 0.0
    else:
        mat = np.asarray(mat)
        dev = np.abs(mat - mat.conj().T).max()
    scale = abs(mat).max()
    if dev > 1e-12 * max(scale, 1e-300):
        raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e})")


def _factor(mat):
    """Complex SuperLU factor in symmetric mode: minimum-degree ordered for
    the symmetric pattern, diagonal pivots, so ``perm_r == perm_c`` unless a
    zero pivot forced a row swap."""
    return spla.splu(sp.csc_matrix(mat, dtype=complex),
                     permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _mass_lu(m):
    """Factor of a Hermitian ``m`` that is also its positive-definiteness test.

    With symmetric pivoting the factor is LDL^H, ``D`` the diagonal of U, so
    ``m`` is positive definite exactly when every pivot is real and positive.
    """
    _check_hermitian("M", m)
    try:
        lu = _factor(m)
    except RuntimeError as exc:         # SuperLU: exactly singular
        raise ValueError("M is not positive definite") from exc
    d = lu.U.diagonal()
    # every pivot real to rounding and positive (fails for Re d <= 0)
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.all(np.abs(d.imag) < 1e-8 * d.real)):
        raise ValueError("M is not positive definite")
    # Reading U made scipy build csc copies of L and U, as large as the
    # factor, and keep them on it for its life; solves need neither.
    for csc in (lu.L, lu.U):
        csc.data, csc.indices = csc.data[:0].copy(), csc.indices[:0].copy()
        csc.indptr = np.zeros_like(csc.indptr)
    return lu


@dataclass(frozen=True)
class _TensorBasis:
    """Per-n data of the tensor-product inverse of the grid pencils.

    Interior nodes (``N = n - 1`` per axis) carry both components, and the
    interior block of every weighted form is the Kronecker sum
    ``D = w1 K_D (x) M_D + w2 M_D (x) K_D + w3 M_D (x) M_D`` of the 1D
    Dirichlet matrices.  ``vecs`` solves ``K_D V = M_D V diag(lam)`` with
    ``V^T M_D V = I``, so ``D`` is diagonal in ``V (x) V``.  Interior dofs
    meet the edge dofs only through the ring of interior lines next to the
    edges; the edges are ordered left, right, bottom, top (``x1 = -1/2``,
    ``x1 = 1/2``, ``x2 = -1/2``, ``x2 = 1/2``).
    """

    n: int
    vecs: np.ndarray        # (N, N) V
    lam: np.ndarray         # (N,)
    vinv: np.ndarray        # (N, N) V^-1 = V^T M_D
    ring: np.ndarray        # (4, N) row of V at each edge's ring line
    couple: np.ndarray      # (2, 4) 1D stiffness, mass entry ring-to-edge
    interior: np.ndarray    # (N, 2, N) reduced index of u1, u2 at node (i, j)
    boundary: np.ndarray    # (4N,) reduced index of the edge dofs
    omega: np.ndarray       # (4N,) u2 = omega u1 on each edge dof


@lru_cache(maxsize=None)
def _tensor_basis(n: int) -> _TensorBasis:
    """Fast-diagonalisation basis and ring layout of the n-grid (once per n).

    Built on the first grid solve of that n, never during assembly.
    """
    cmap = constraint_map(n)
    k1d, m1d, _ = (mat.toarray() for mat in _matrices_1d(n))
    lam, vecs = sla.eigh(k1d[1:n, 1:n], m1d[1:n, 1:n])
    inner = slice(1, n)
    edges = (cmap.free1[0, inner], cmap.free1[n, inner],
             cmap.free1[inner, 0], cmap.free1[inner, n])
    return _TensorBasis(
        n=n, vecs=vecs, lam=lam, vinv=vecs.T @ m1d[1:n, 1:n],
        ring=vecs[[0, -1, 0, -1]],
        couple=np.array([[k1d[1, 0], k1d[n - 1, n]] * 2,
                         [m1d[1, 0], m1d[n - 1, n]] * 2]),
        interior=np.stack([cmap.free1[inner, inner],
                           cmap.free2[inner, inner]], axis=1),
        boundary=np.concatenate(edges),
        omega=np.repeat([OMEGA[c] for c in (LEFT, RIGHT, BOTTOM, TOP)], n - 1),
    )


class _TensorInverse:
    """Exact inverse of one grid form ``q = weighted(fm, w)``.

    Fast diagonalisation inverts the interior blocks ``D``; a dense
    Cholesky factor of the Hermitian boundary Schur complement
    ``S = Q_BB - C^T D^-1 C - Omega^H C^T D^-1 C Omega`` closes the
    system, where ``C`` couples the u1 interior to the edge dofs and
    ``C Omega`` the u2 interior.  ``C`` is separable edge by edge, so each
    of the 16 edge-pair blocks of ``C^T D^-1 C`` is a product of N-square
    matrices.  The factor exists only when ``q`` is positive definite, so
    building the inverse is also that check.
    """

    def __init__(self, basis: _TensorBasis, w, q, name: str = "Q"):
        w1, w2, w3 = (float(x) for x in w[:3])
        lam = basis.lam
        self.basis = basis
        self.delta = w1 * lam[:, None] + w2 * lam[None, :] + w3
        if not self.delta.min() > 0.0:
            raise ValueError(f"{name} is not positive definite: its interior "
                             "block has a non-positive eigenvalue")
        # the u1 coupling C of each edge in the V basis: diag(alpha) V^-1
        kc, mc = basis.couple
        normal = np.array([w1, w1, w2, w2])
        self.alpha = ((normal * kc + w3 * mc)[:, None]
                      + (w1 + w2 - normal)[:, None] * mc[:, None] * lam)

        inv_delta = 1.0 / self.delta
        x = np.empty((4, basis.n - 1, 4, basis.n - 1))
        for c in range(4):
            for d in range(c, 4):
                rr = basis.ring[c] * basis.ring[d]
                if d < 2:           # two lines of fixed first index
                    blk = np.diag(rr @ inv_delta)
                elif c >= 2:        # two lines of fixed second index
                    blk = np.diag(inv_delta @ rr)
                else:               # one of each
                    blk = (np.outer(basis.ring[c], basis.ring[d])
                           * inv_delta).T
                blk = self.alpha[c][:, None] * blk * self.alpha[d]
                x[c, :, d, :] = _gemm(_gemm(basis.vinv.T, blk), basis.vinv)
                x[d, :, c, :] = x[c, :, d, :].T
        x = x.reshape(4 * (basis.n - 1), -1)
        omega = basis.omega
        idx = basis.boundary
        schur = (q[idx][:, idx].toarray()
                 - x * (1.0 + omega.conj()[:, None] * omega[None, :]))
        try:
            self.chol = sla.cho_factor(schur, lower=True)
        except sla.LinAlgError as exc:
            raise ValueError(f"{name} is not positive definite") from exc

    def solve(self, f):
        """``q^-1 f`` for a vector or the columns of a matrix."""
        b = self.basis
        f = np.asarray(f)
        cols = f.reshape(f.shape[0], -1)                 # (dim, k)
        k, nn = cols.shape[1], b.n - 1
        at = (b.interior[:, :, None, :], np.arange(k)[:, None])
        # Interior fields laid out (i, [re/im, component, column], j): each
        # transform is two real matrix products over all of them at once.
        g = cols[at]
        g = np.stack([g.real, g.imag], axis=1).reshape(nn, -1)
        ghat = _gemm(_gemm(b.vecs.T, g).reshape(-1, nn),
                     b.vecs).reshape(nn, -1, nn)
        delta = self.delta[:, None, :]

        # the edge equation S xb = fb - C^T D^-1 f1 - Omega^H C^T D^-1 f2
        y = ghat / delta
        lines = np.concatenate([
            _gemm(b.ring[:2], y.reshape(nn, -1)).reshape(2, -1, nn),
            _gemm(y.reshape(-1, nn), b.ring[2:].T).reshape(nn, -1, 2).T])
        t = _gemm((self.alpha[:, None, :] * lines).reshape(-1, nn), b.vinv)
        t = t.reshape(4, 2, 2, k, nn).transpose(1, 2, 0, 4, 3)
        t = (t[0] + 1j * t[1]).reshape(2, -1, k)         # (component, 4N, k)
        rhs = cols[b.boundary] - t[0] - b.omega.conj()[:, None] * t[1]
        xb = sla.cho_solve(self.chol, rhs, check_finite=False)

        # lift C xb (u1) and C Omega xb (u2) into the V basis: edge modes
        # h[mode, edge, re/im, component, column]
        g = np.stack([xb, b.omega[:, None] * xb]).reshape(2, 4, nn, k)
        g = g.transpose(2, 1, 0, 3)[:, :, None]
        h = _gemm(b.vinv, np.concatenate([g.real, g.imag], axis=2)
                  .reshape(nn, -1)).reshape(nn, 4, -1)
        h *= self.alpha.T[:, :, None]
        lift = (_gemm(b.ring[:2].T, h[:, :2].transpose(1, 2, 0)
                      .reshape(2, -1)).reshape(nn, -1, nn)
                + _gemm(h[:, 2:].transpose(0, 2, 1).reshape(-1, 2),
                        b.ring[2:]).reshape(nn, -1, nn))
        xi = _gemm(_gemm(b.vecs, ((ghat - lift) / delta).reshape(nn, -1))
                   .reshape(-1, nn), b.vecs.T).reshape(nn, 2, 2, k, nn)
        x = np.empty(cols.shape, dtype=complex)
        x[at] = xi[:, 0] + 1j * xi[:, 1]
        x[b.boundary] = xb
        return x.reshape(f.shape)


def _gemm(a, b):
    """``a @ b`` of real matrices through scipy's BLAS.

    numpy and scipy wheels each bundle an OpenBLAS with its own thread
    pool.  ARPACK and the Cholesky solves run on scipy's, so the transforms
    do too: switching pools on every operator application made grid
    solves two to three times slower under two BLAS threads.
    """
    return sla.blas.dgemm(1.0, b.T, a.T).T


@lru_cache(maxsize=None)
def mass_inverse(n: int) -> _TensorInverse:
    """Tensor-product inverse of the n-grid mass matrix (built once per n).

    Its Schur factor is M's positive-definiteness check.  Built on the first
    grid solve of that n, never during assembly, and shared by every later
    solve on the grid.
    """
    m = assemble(build_grid(n)).M
    _check_hermitian("M", m)
    return _TensorInverse(_tensor_basis(n), (0.0, 0.0, 1.0), m, "M")


# ARPACK's Krylov dimension in a class solve.  The closed-form shift puts
# the wanted 1/(mu - sigma) far above the rest of the spectrum of the
# shifted inverse, so a small space converges in a handful of applications.
# Measured against 4: equal or fewer applications on every benchmark
# workload (88 against 92 on solve_n128, 242 against 264 on an 11-point
# area sweep at n = 64) and the faster wall time in 5 of 6 pairs.
NCV = 6


def _solve_pencil(fm, w, sigma: float, classes, k: int, tol: float,
                  maxit: int, seed: int) -> _PencilSolution:
    """k lowest eigenpairs of each half-turn class of the grid pencil
    (``weighted(fm, w)``, ``fm.M``), merged in ascending order.

    The one entry point of every grid solve.  ``sigma`` must lie below the
    lowest eigenvalue; one tensor-product inverse of ``Q - sigma M`` serves
    every class.  For the class ``beta`` in ``classes`` ARPACK iterates
    ``P (Q - sigma M)^-1 M`` with the projector ``P = (I + beta R^2)/2`` of
    the half turn, whose largest eigenvalues are the ``1/(mu - sigma)`` of
    that class.  Rayleigh-Ritz and the residual contract run on the
    unshifted pencil.  A shift the inverse rejects lies above the lowest
    eigenvalue, which contradicts the lower bound it came from.
    """
    from .symmetry import rotation_map      # symmetry imports this module

    m_solve = mass_inverse(fm.n).solve      # M's check comes first
    q = weighted(fm, w)
    _check_hermitian("Q", q)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ncv = max(NCV, 2 * k + 1)
    if ncv > fm.ndof // 2:
        raise ValueError(f"k={k} per class is too many for the n={fm.n} grid")
    w_shift = (w[0], w[1], w[2] - sigma, *w[3:])
    q_shift = weighted(fm, w_shift)
    try:
        shift_solve = _TensorInverse(_tensor_basis(fm.n), w_shift, q_shift,
                                     "Q - sigma M").solve
    except ValueError as exc:
        raise ConsistencyError(
            f"shift sigma={sigma!r} is not below the lowest eigenvalue "
            f"({exc}); it must be a lower bound") from exc
    half_turn = rotation_map(fm.n).half_turn

    parts, iterations = [], 0
    for beta in classes:
        def project(x, beta=beta):
            return (x + beta * (half_turn @ x)) / 2

        v, count = _krylov(q_shift, fm.M, shift_solve, k, maxit, seed,
                           sigma=sigma, project=project, ncv=ncv)
        parts.append(_ritz(q, fm.M, v, m_solve, tol, count))
        iterations += count
    mus, vectors, residuals = (np.concatenate(x, axis=-1) for x in zip(*parts))
    order = np.argsort(mus, kind="stable")
    return _PencilSolution(mus=mus[order], vectors=vectors[:, order],
                           residuals=residuals[order],
                           classes=np.repeat(classes, k)[order],
                           iterations=iterations)


def _krylov(a, m, a_solve, k: int, maxit: int, seed: int, *,
            sigma: float = 0.0, project=lambda x: x, ncv=None):
    """Vectors of the k largest eigenvalues ``1/(mu - sigma)`` of
    ``project a^-1 m``, where ``a = q - sigma m``, and the count of
    operator applications.

    ARPACK runs from a seeded start vector inside the range of ``project``.
    """
    rng = np.random.default_rng(seed)
    dim = a.shape[0]
    v0 = project(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    iterations = 0

    def apply_op(x):
        nonlocal iterations
        iterations += 1
        return project(a_solve(m @ x))

    op = spla.LinearOperator((dim, dim), matvec=apply_op, dtype=complex)
    try:
        # the largest eigenvalues to machine precision (tolerance 0); the
        # residual contract is enforced by the Rayleigh-Ritz step
        _, v = spla.eigsh(op, k=k, which="LM", v0=v0, maxiter=maxit,
                          tol=0.0, ncv=ncv)
    except spla.ArpackNoConvergence as exc:
        nus = np.real(exc.eigenvalues)
        if not len(nus):
            # ARPACK hands back its converged values only, so a k = 1 run
            # has none; the same start at a loose tolerance gives the value
            with contextlib.suppress(spla.ArpackNoConvergence):
                nus = np.real(spla.eigsh(op, k=k, which="LM", v0=v0,
                                         maxiter=maxit, tol=1e-8, ncv=ncv,
                                         return_eigenvectors=False))
        best_mu = sigma + 1.0 / float(nus.max()) if len(nus) else None
        raise SolverError(
            f"eigensolver did not converge within {maxit} restarts",
            best_mu=best_mu, iterations=iterations) from exc
    # ARPACK's vectors can sit far above its tolerance: 1e-8 relative for an
    # exactly degenerate pair under threaded BLAS, and class solves without
    # this step read residual/mu up to 8e-11 at n = 256 against the 1e-10
    # contract.  One block inverse-iteration step damps their errors and the
    # Rayleigh-Ritz step recovers the eigenpairs.  One step of iterative
    # refinement makes that solve exact to rounding whatever the
    # conditioning of the inverse.
    rhs = m @ v
    v = a_solve(rhs)
    v += a_solve(rhs - a @ v)
    return project(v), iterations + k


def _ritz(q, m, v, m_solve, tol: float, iterations: int):
    """Rayleigh-Ritz of (q, m) on the span of ``v``, under the residual
    contract: ascending values, M-orthonormal vectors and their M^-1-norm
    residuals."""
    # A no-op up to rounding for converged eigenvectors.  Each value is the
    # quotient of an admissible vector, so it stays a conforming upper bound.
    v = np.asarray(v, dtype=complex)
    qv, mv = q @ v, m @ v
    proj_q, proj_m = v.conj().T @ qv, v.conj().T @ mv
    _, coeff = sla.eigh((proj_q + proj_q.conj().T) / 2,
                        (proj_m + proj_m.conj().T) / 2)
    v, qv, mv = v @ coeff, qv @ coeff, mv @ coeff
    mus = np.real(np.einsum("ij,ij->j", v.conj(), qv))

    r = qv - mus * mv
    residuals = np.sqrt(np.abs(np.real(np.einsum("ij,ij->j", r.conj(),
                                                  m_solve(r)))))
    bad = residuals > tol * np.maximum(np.abs(mus), 1e-300)
    if np.any(bad):
        i = int(np.argmax(residuals / np.maximum(np.abs(mus), 1e-300)))
        raise SolverError(
            f"residual contract violated: pair {i} has residual "
            f"{residuals[i]:.3e} > tol*mu = {tol * abs(mus[i]):.3e}",
            best_mu=float(mus[0]), residual=float(residuals[i]),
            iterations=iterations)
    return mus, v, residuals


def smallest_eigenpair(Q, M, k: int = 1, tol: float = 1e-10,
                       maxit: int = 500, seed: int = 0):
    """k smallest eigenpairs of the Hermitian pencil (Q, M), ascending.

    Eigenvectors are M-orthonormal; each pair satisfies the residual
    contract ``|Q v - mu M v|_{M^-1} <= tol * mu``.  Deterministic for a
    fixed seed.  M is checked and factored by SuperLU on every call, and Q
    is factored for ARPACK; LAPACK solves the pencils too small for ARPACK
    (``k >= dim - 1``).  Grid solves go through ``_solve_pencil``, which
    needs no sparse factor.
    """
    m_solve = _mass_lu(M).solve
    if Q.shape != M.shape or Q.shape[0] != Q.shape[1]:
        raise ValueError("matrices must be square and of equal shape")
    _check_hermitian("Q", Q)
    dim = Q.shape[0]
    if not 1 <= k <= dim:
        raise ValueError(f"k={k} must lie in [1, {dim}]")
    if k >= dim - 1:
        # too small for ARPACK, which needs k < dim - 1
        qd = Q.toarray() if sp.issparse(Q) else np.asarray(Q, dtype=complex)
        md = M.toarray() if sp.issparse(M) else np.asarray(M, dtype=complex)
        _, v = sla.eigh(qd, md, subset_by_index=[0, k - 1])
        iterations = 0
    else:
        v, iterations = _krylov(Q, M, _factor(Q).solve, k, maxit, seed)
    mus, v, _ = _ritz(Q, M, v, m_solve, tol, iterations)
    return [(float(mus[i]), v[:, i]) for i in range(k)]


def lambda1_2d(a: float, b: float, m: float, n: int, tol: float = 1e-10,
               *, seed: int = 0, maxit: int = 500) -> EigenResult:
    """Discrete lowest positive Dirac eigenvalue on the (a, b) rectangle.

    Conforming, so ``mu`` over-estimates the continuum lambda_1(a,b)^2.
    Every eigenvalue is double, one of each pair in each half-turn class:
    both classes are solved for their ground value at the shift
    ``sharp_lower(a, b, m)``, the closed-form lower bound, and the two
    values must agree.
    """
    a, b, m = _check_weights(a, b, m)
    fm = assemble(build_grid(n))
    sol = _solve_pencil(fm, (a**-2, b**-2, 0.0, m / a, m / b),
                        sharp_lower(a, b, m), (1, -1), 1, tol, maxit, seed)
    # the shifted inverse exists, so both values lie above sigma > 0
    low, high = (float(x) for x in sol.mus)
    if high - low > 1e-8 * low:
        raise ConsistencyError(
            f"the half-turn classes disagree on the ground eigenvalue: "
            f"{low!r} and {high!r}")
    mu = low + m**2
    return EigenResult(
        mu=mu,
        lambda1=float(np.sqrt(mu)),
        psi=SpinorField(sol.vectors[:, 0], n),
        residual=float(sol.residuals[0]),
        iterations=sol.iterations,
        n=n,
        seed=seed,
        eigenvalues=tuple(float(x) + m**2 for x in sol.mus),
    )


def refine_study(a: float, b: float, m: float, n_list, tol: float = 1e-10,
                 *, seed: int = 0) -> RefineStudy:
    """Eigenvalue refinement over nested grids with Richardson extrapolation.

    ``n_list`` must be strictly increasing with each entry dividing the
    next (nested bilinear spaces), which makes the sequence of discrete
    eigenvalues non-increasing.
    """
    n_list = [int(n) for n in n_list]
    if len(n_list) < 2:
        raise ValueError("need at least two grid sizes")
    for prev, nxt in zip(n_list, n_list[1:]):
        if nxt <= prev or nxt % prev != 0:
            raise ValueError(
                f"grid list must be strictly increasing and nested, got {n_list}")

    entries = []
    for n in n_list:
        entries.append((n, lambda1_2d(a, b, m, n, tol, seed=seed).mu))
    for (_, prev), (ncur, cur) in zip(entries, entries[1:]):
        if cur > prev + 1e-12 * max(1.0, abs(prev)):
            raise ConsistencyError(
                f"refinement increased the eigenvalue at n={ncur}: "
                f"{prev!r} -> {cur!r}")

    extrapolated, order = _richardson(entries)
    return RefineStudy(a=a, b=b, m=m, entries=tuple(entries),
                       extrapolated=extrapolated, observed_order=order)


def _richardson(entries):
    (n1, mu1), (n2, mu2), (n3, mu3) = entries[-3:] if len(entries) >= 3 else \
        ((None, None), *entries[-2:])
    if n1 is None or n3 // n2 != n2 // n1 or n2 % n1 or n3 % n2:
        return entries[-1][1], None
    r = n2 / n1
    e1, e2 = mu1 - mu2, mu2 - mu3
    if e2 <= 0.0 or e1 <= 0.0:
        # converged to rounding level; the finest value is the estimate
        return entries[-1][1], None
    order = float(np.log(e1 / e2) / np.log(r))
    if not 1.0 <= order <= 3.0:
        # observed orders run from about 1 (massless, corner-limited) to 2
        # (heavy mass); one outside [1, 3] means the ladder is not in its
        # asymptotic range, so it is reported and the finest value is kept
        return entries[-1][1], order
    extrapolated = mu3 - e2 / (r**order - 1.0)
    return float(extrapolated), order
