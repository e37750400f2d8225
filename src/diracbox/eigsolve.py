"""Smallest-eigenpair solver for the Hermitian pencil and the lambda_1 driver.

The generalized problem ``Q psi = mu M psi`` with Hermitian positive-definite
``Q`` and ``M`` is solved by shift-invert around zero: ARPACK iterates the
plain operator ``Q^-1 M`` in standard mode for its largest eigenvalues
``1/mu``, from a deterministic seeded start vector, and a Rayleigh-Ritz step
on its vectors makes them M-orthonormal.  LAPACK solves only the pencils too
small for ARPACK (``k >= dim - 1``).

Both sparse LU factorizations are symmetric: the minimum-degree ordering of
``A^T + A`` (``MMD_AT_PLUS_A``), which suits the symmetric sparsity pattern
of the pencil far better than SuperLU's default COLAMD, and no row
pivoting, so the factor of a Hermitian matrix is its LDL^H factorization
with ``D`` on the diagonal of ``U``.  A factor of ``M`` is therefore its
positive-definiteness test, and the same factorization solves the
M^-1-norm residual check.  ``M`` depends only on the grid, so
``mass_factor`` checks and factors it once per n and process, on the first
grid solve; only ``Q`` is factored per solve.

Every grid solve (``lambda1_2d``, ``jopt.euler_solve`` and
``symmetry.ground_cluster``) goes through ``_solve_pencil(fm, w, ...)``,
which builds the weighted form ``weighted(fm, w)`` and solves it against
``fm.M`` with the grid's ``mass_factor``.  ``smallest_eigenpair(Q, M)``
serves any other Hermitian pencil (1D pencils, tests) and checks and
factors its own ``M`` on every call.

``lambda1_2d`` evaluates the rectangle eigenvalue through the mass-shifted
pencil: the ``m^2 M`` term of the squared form is an exact spectral shift of
the same pencil, so it is dropped before the solve and ``m^2`` is added back
to the eigenvalue.  This keeps the relative gaps at the bottom of the
spectrum of order one even for heavy masses, where the unshifted spectrum
clusters around ``m^2`` and shift-invert iteration stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConsistencyError, SolverError
from .formgrid import SpinorField, assemble, build_grid, weighted, _check_weights

__all__ = ["EigenResult", "RefineStudy", "smallest_eigenpair", "lambda1_2d",
           "refine_study", "mass_factor"]


@dataclass(frozen=True)
class EigenResult:
    """Smallest eigenvalue of the weighted form and its eigenvector.

    ``mu`` is the discrete lambda_1^2, ``residual`` the M^-1-norm of
    ``Q psi - mu M psi`` and ``iterations`` the number of shifted-operator
    applications (0 for a pencil too small for ARPACK, solved by LAPACK).
    """

    mu: float
    lambda1: float
    psi: SpinorField
    residual: float
    iterations: int
    n: int
    seed: int
    eigenvalues: tuple    # k lowest, for multiplicity evidence


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


@lru_cache(maxsize=None)
def mass_factor(n: int):
    """SuperLU factor of the n-grid mass matrix (checked and built once per n).

    Built on the first grid solve of that n, never during assembly, and
    shared by every later solve on the grid.
    """
    return _mass_lu(assemble(build_grid(n)).M)


def _solve_pencil(fm, w, k: int, tol: float, maxit: int,
                  seed: int) -> _PencilSolution:
    """k lowest eigenpairs of the grid pencil (``weighted(fm, w)``, ``fm.M``).

    The one entry point of every grid solve: it builds the weighted form and
    solves against the mass matrix with its memoised factor.
    """
    return _eigenpairs(weighted(fm, w), fm.M, mass_factor(fm.n),
                       k, tol, maxit, seed)


def _eigenpairs(q, m, mass_lu, k: int, tol: float, maxit: int,
                seed: int) -> _PencilSolution:
    """k lowest eigenpairs of (q, m); ``mass_lu`` is a checked factor of m."""
    if q.shape != m.shape or q.shape[0] != q.shape[1]:
        raise ValueError("matrices must be square and of equal shape")
    _check_hermitian("Q", q)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dim = q.shape[0]
    if k > dim:
        raise ValueError(f"k={k} exceeds dimension {dim}")

    iterations = 0
    if k >= dim - 1:
        # too small for ARPACK, which needs k < dim - 1
        qd = q.toarray() if sp.issparse(q) else np.asarray(q, dtype=complex)
        md = m.toarray() if sp.issparse(m) else np.asarray(m, dtype=complex)
        _, v = sla.eigh(qd, md, subset_by_index=[0, k - 1])
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lu = _factor(q)

        def apply_op(x):
            nonlocal iterations
            iterations += 1
            return lu.solve(m @ x)

        op = spla.LinearOperator((dim, dim), matvec=apply_op, dtype=complex)
        try:
            # the largest eigenvalues 1/mu of Q^-1 M to machine precision
            # (tolerance 0); the residual contract is enforced below
            _, v = spla.eigsh(op, k=k, which="LM", v0=v0, maxiter=maxit,
                              tol=0.0)
            # ARPACK's vectors for an exactly degenerate pair can sit far
            # above its tolerance (seen at 1e-8 relative under threaded
            # BLAS); one block inverse-iteration step damps their errors and
            # the Rayleigh-Ritz step below recovers the eigenpairs.
            v = lu.solve(m @ v)
            iterations += k
        except spla.ArpackNoConvergence as exc:
            nus = np.real(exc.eigenvalues)
            best_mu = 1.0 / float(nus.max()) if len(nus) else None
            raise SolverError(
                f"eigensolver did not converge within {maxit} restarts",
                best_mu=best_mu, iterations=iterations) from exc

    # Rayleigh-Ritz on the span: M-orthonormal, ascending, and a no-op up
    # to rounding for converged eigenvectors.  Each value is the quotient
    # of an admissible vector, so it stays a conforming upper bound.
    v = np.asarray(v, dtype=complex)
    qv, mv = q @ v, m @ v
    proj_q, proj_m = v.conj().T @ qv, v.conj().T @ mv
    _, coeff = sla.eigh((proj_q + proj_q.conj().T) / 2,
                        (proj_m + proj_m.conj().T) / 2)
    v, qv, mv = v @ coeff, qv @ coeff, mv @ coeff
    mus = np.real(np.einsum("ij,ij->j", v.conj(), qv))

    residuals = np.empty(k)
    for i in range(k):
        r = qv[:, i] - mus[i] * mv[:, i]
        residuals[i] = np.sqrt(abs(np.real(np.vdot(r, mass_lu.solve(r)))))
    bad = residuals > tol * np.maximum(np.abs(mus), 1e-300)
    if np.any(bad):
        i = int(np.argmax(residuals / np.maximum(np.abs(mus), 1e-300)))
        raise SolverError(
            f"residual contract violated: pair {i} has residual "
            f"{residuals[i]:.3e} > tol*mu = {tol * abs(mus[i]):.3e}",
            best_mu=float(mus[0]), residual=float(residuals[i]),
            iterations=iterations)
    return _PencilSolution(mus=mus, vectors=v, residuals=residuals,
                           iterations=iterations)


def smallest_eigenpair(Q, M, k: int = 1, tol: float = 1e-10,
                       maxit: int = 500, seed: int = 0):
    """k smallest eigenpairs of the Hermitian pencil (Q, M), ascending.

    Eigenvectors are M-orthonormal; each pair satisfies the residual
    contract ``|Q v - mu M v|_{M^-1} <= tol * mu``.  Deterministic for a
    fixed seed.  M is checked and factored on every call; grid solves go
    through ``_solve_pencil``, which reuses the factor of their grid.
    """
    sol = _eigenpairs(Q, M, _mass_lu(M), k, tol, maxit, seed)
    return [(float(sol.mus[i]), sol.vectors[:, i]) for i in range(k)]


def lambda1_2d(a: float, b: float, m: float, n: int, tol: float = 1e-10,
               *, k: int = 4, seed: int = 0, maxit: int = 500) -> EigenResult:
    """Discrete lowest positive Dirac eigenvalue on the (a, b) rectangle.

    Conforming, so ``mu`` over-estimates the continuum lambda_1(a,b)^2.
    ``k`` defaults to 4 so a possibly degenerate lowest eigenspace is
    visible to the symmetry analysis.
    """
    a, b, m = _check_weights(a, b, m)
    fm = assemble(build_grid(n))
    k = min(k, fm.ndof)
    sol = _solve_pencil(fm, (a**-2, b**-2, 0.0, m / a, m / b),
                        k, tol, maxit, seed)
    mu_shifted = float(sol.mus[0])
    if mu_shifted <= 0.0:
        raise ConsistencyError(
            f"shifted eigenvalue must be positive, got {mu_shifted!r}")
    mu = mu_shifted + m**2
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
