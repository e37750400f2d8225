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
projector ``P = (I + R^2)/2`` keeps ARPACK inside class +1, where the
ground eigenvalue is simple, so one run with k = 1 and a Krylov space of
``NCV`` vectors serves the whole solve (Ericsson & Ruhe 1980 for the
spectral transformation, Bossavit 1986 for the symmetry classes).  The
other class needs no run: the charge conjugation ``C(u1, u2) = (conj u2,
conj u1)``, the discrete form of the lambda -> -lambda symmetry of the
Dirac operator, commutes with the pencil and anticommutes with ``R^2``, so
``C`` of the class +1 eigenvectors are the class -1 eigenvectors, and they
pass the same residual contract or the pencil lacks the symmetry.  The
shift is the closed-form lower bound ``bounds.sharp_lower`` of the point,
so it depends on nothing but the point.  The inverse of ``Q - sigma M``
exists only for a shift below the lowest eigenvalue, so a shift that
contradicts its lower bound raises ConsistencyError, never a number.

The inverses are exact tensor-product inverses instead of sparse factors.
The interior u1 and u2 blocks of every grid form are one separable
Kronecker sum, inverted by fast diagonalisation in the 1D eigenbasis
(Lynch, Rice & Thomas 1964); the interior meets the 4(n-1) edge dofs only
through the ring of lines next to the edges, and dense Cholesky factors of
the boundary Schur complement close the system (the capacitance matrix of
Buzbee, Dorr, George & Golub 1971).  Every grid form commutes with the half
turn, so the Schur complement is block diagonal in the two classes: one
2(n-1)-square block per class on the left and bottom edges, whose right and
top images follow from the class (``_half_turn_modes``).  Both blocks are
built from the left and bottom ring rows and factored; together they
certify that the form is positive definite on the whole space, and the
block of ``Q_BB`` between the classes is checked to vanish, since the class
blocks read only its left and bottom rows.  ``_tensor_basis`` holds the
per-n eigenbasis and ring layout, ``_half_turn_modes`` the class
coordinates and ``mass_inverse`` the inverse of ``M``, each built once per
n and process on the first grid solve; the shifted inverse lives for one
solve, its boundary block ``Q_BB - sigma M_BB`` taken from ``Q`` and the
mass inverse's ``M_BB``.  The Schur factors exist only for a
positive-definite matrix, so ``mass_inverse`` is also M's
positive-definiteness check, and it solves the M^-1-norm residual check.

ARPACK iterates in the class +1 coordinates of the tensor inverse
(``_ClassOperator``): one dense array of class +1 coefficients of the
interior fields in the eigenbasis ``V (x) V``, u1 on one checkerboard of
mode parities and u2 on the other, and the nodal values of the left and
bottom edge dofs.  There the interior block of ``M`` is the identity and
that of ``Q - sigma M`` is diagonal, both meet the edges only through the
ring coupling, and the projector is implicit, so an operator application
costs O(N^2) and one half-size Cholesky solve instead of four O(N^3)
transforms.  ARPACK's vectors take one back transform to nodal
coordinates; the inverse-iteration step, Rayleigh-Ritz and the residual
contract run on the assembled pencil, through the nodal solve, which
splits its right-hand side into the two classes.  The modal iteration
never reads the assembled interior, so when the class +1 contract fails,
the interior blocks of ``K1``, ``K2`` and ``M`` are compared with the
Kronecker sums the inverse assumes, and a mismatch raises ConsistencyError.

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
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .bounds import sharp_lower
from .errors import ConsistencyError, SolverError
from .formgrid import (BOTTOM, LEFT, OMEGA, SpinorField, assemble,
                       build_grid, constraint_map, weighted,
                       _check_weights, _matrices_1d)

__all__ = ["EigenResult", "RefineStudy", "smallest_eigenpair", "lambda1_2d",
           "refine_study", "mass_inverse"]


@dataclass(frozen=True)
class EigenResult:
    """Smallest eigenvalue of the weighted form and its eigenvector.

    ``mu`` is the discrete lambda_1^2, ``residual`` the M^-1-norm of
    ``Q psi - mu M psi`` and ``iterations`` the number of shifted-operator
    applications of the one class +1 solve.  ``eigenvalues`` holds, in
    ascending order, the class +1 ground value and the value of its charge
    conjugate in class -1.
    """

    mu: float
    lambda1: float
    psi: SpinorField
    residual: float
    iterations: int
    n: int
    seed: int
    eigenvalues: tuple    # class +1 ground value and its conjugate's


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


def _hermitian_deviation(mat, transpose=None):
    """``(max |mat - mat^H|, max |mat|)``.

    ``transpose`` holds, for a sparse ``mat`` on a structurally symmetric
    pattern, the data position of each entry's transpose
    (``FormMatrices._transpose_positions``); the deviation is then read off
    the data array, the same arithmetic as the sparse difference without
    building ``mat^H``.  A matrix with fewer entries than ``transpose``
    lost some to cancellation and takes the sparse path.
    """
    if sp.issparse(mat):
        if transpose is not None and mat.nnz == transpose.size:
            d = mat.data
            return np.abs(d - d[transpose].conj()).max(), np.abs(d).max()
        anti = abs(mat - mat.getH())
        dev = anti.max() if anti.nnz else 0.0
    else:
        mat = np.asarray(mat)
        dev = np.abs(mat - mat.conj().T).max()
    return dev, abs(mat).max()


def _check_hermitian(name, mat, transpose=None):
    dev, scale = _hermitian_deviation(mat, transpose)
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
    ring: np.ndarray        # (N,) row of V at the ring lines of the left
    #                         and bottom edges
    couple: np.ndarray      # (2,) 1D stiffness, mass entry ring-to-edge
    interior: np.ndarray    # (N, 2, N) reduced index of u1, u2 at node (i, j)
    boundary: np.ndarray    # (4N,) reduced index of the edge dofs

    # Modal coordinates: an interior field X of one component and column is
    # ``V zhat V^T``.  Modal interior arrays are real, laid out
    # (mode, [re/im, component, column], mode), so that every transform is a
    # real matrix product over all fields at once; edge values stay nodal,
    # one complex column each.

    def forward(self, cols):
        """Modal right-hand sides of the nodal right-hand sides ``cols``
        (dim, k): ``V^T F V`` of each interior field ``F``, and the edge
        entries."""
        nn, k = self.n - 1, cols.shape[1]
        g = cols[self.interior[:, :, None, :], np.arange(k)[:, None]]
        g = np.stack([g.real, g.imag], axis=1).reshape(nn, -1)
        ghat = _gemm(_gemm(self.vecs.T, g).reshape(-1, nn), self.vecs)
        return ghat.reshape(nn, -1, nn), cols[self.boundary]

    def back(self, zhat, xb):
        """Nodal vectors (dim, k) of the modal interior ``zhat`` and the
        edge values ``xb`` (4N, k)."""
        nn, k = self.n - 1, xb.shape[1]
        xi = _gemm(_gemm(self.vecs, zhat.reshape(nn, -1)).reshape(-1, nn),
                   self.vecs.T).reshape(nn, 2, 2, k, nn)
        x = np.empty((2 * nn * nn + xb.shape[0], k), dtype=complex)
        x[self.interior[:, :, None, :], np.arange(k)[:, None]] = (
            xi[:, 0] + 1j * xi[:, 1])
        x[self.boundary] = xb
        return x


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
        n=n, vecs=vecs, lam=lam, vinv=vecs.T @ m1d[1:n, 1:n], ring=vecs[0],
        couple=np.array([k1d[1, 0], m1d[1, 0]]),
        interior=np.stack([cmap.free1[inner, inner],
                           cmap.free2[inner, inner]], axis=1),
        boundary=np.concatenate(edges),
    )


@dataclass(frozen=True)
class _HalfTurnModes:
    """Coordinates of the half-turn classes on the tensor basis (per n).

    ``R^2`` maps ``(u1, u2)(x)`` to ``(-u1(-x), u2(-x))``.  Column k of V
    has the reflection parity ``p_k = (-1)^k``, ``V[::-1] = V diag(p)`` and
    so ``V^-1 J = diag(p) V^-1`` for the reversal ``J``: the modal interior
    coefficient ``(k, l)`` of u1 is in class ``beta`` when ``p_k p_l =
    -beta``, and that of u2 when ``p_k p_l = beta``, two complementary
    checkerboards.  On the edges ``R^2`` is minus the permutation that swaps
    opposite edges end to end, so the right and top values of a class
    ``beta`` vector are ``-beta`` times its left and bottom values, reversed.

    A class ``beta`` vector is ``(w, x)``: ``w`` one dense modal interior
    array, real, laid out (mode, [re/im, column], mode), holding u1 on the
    class's u1 checkerboard and u2 on the other, and ``x`` (2N, k) its left
    and bottom edge values.  Every form commutes with ``R^2``, so it acts on
    each class alone; the methods here are its ring coupling in these
    coordinates, where the right and top edges double the left and bottom
    ones.
    """

    basis: _TensorBasis
    u1: dict                # beta -> (N, N) bool, where class beta keeps u1
    edges: np.ndarray       # (2N,) left and bottom positions in the edges
    images: np.ndarray      # (2N,) their half-turn images, right and top
    position: np.ndarray    # (4N,) class coordinate of each edge dof
    on_image: np.ndarray    # (4N,) True on the right and top edges
    parts: np.ndarray       # (2, N) ring row on the even, odd modes
    phase: dict             # beta -> (2, 2, N) trace weight per edge
    #                         (left, bottom), parity of the summed mode, mode

    def split(self, ghat, fb):
        """Class parts ``{beta: (w, x)}`` of a modal right-hand side: the
        class's checkerboards of the interior and the left and bottom rows
        of the class's part of the edge values."""
        nn = self.basis.n - 1
        g = ghat.reshape(nn, 2, 2, -1, nn)
        return {beta: (np.where(self.u1[beta][:, None, None, :],
                                g[:, :, 0], g[:, :, 1]),
                       (fb[self.edges] - beta * fb[self.images]) / 2)
                for beta in (1, -1)}

    def merge(self, parts):
        """Modal interior and edge values of the sum of class parts
        ``{beta: (w, x)}``, a missing class zero; the inverse of
        ``split``."""
        nn = self.basis.n - 1
        (w_p, x_p), (w_m, x_m) = (parts.get(beta, (0.0, 0.0))
                                  for beta in (1, -1))
        keep = self.u1[1][:, None, None, :]
        zhat = np.stack([np.where(keep, w_p, w_m), np.where(keep, w_m, w_p)],
                        axis=2)
        xb = np.empty((4 * nn, zhat.shape[3]), dtype=complex)
        xb[self.edges], xb[self.images] = x_p + x_m, x_m - x_p
        return zhat.reshape(nn, -1, nn), xb

    def trace(self, alpha, beta, w):
        """``C^T W1 + Omega^H C^T W2`` (2N, k) on the left and bottom edges
        of a class ``beta`` interior ``w``, where ``C`` is the ring coupling
        of a form with coefficients ``alpha`` (see ``_TensorInverse``)."""
        nn, vinv = self.basis.n - 1, self.basis.vinv
        k = w.shape[2]
        left = _gemm(self.parts, w.reshape(nn, -1)).reshape(2, 2, k, nn)
        bottom = _gemm(w.reshape(-1, nn), self.parts.T).reshape(nn, 2, k, 2)
        weight_l, weight_b = self.phase[beta]
        lines = alpha[:, None, :] * np.stack([
            (weight_l[:, None] * (left[:, 0] + 1j * left[:, 1])).sum(0),
            (weight_b.T[:, None] * (bottom[:, 0] + 1j * bottom[:, 1])
             ).sum(-1).T])                          # (edge, k, mode)
        t = _gemm(np.concatenate([lines.real, lines.imag]).reshape(-1, nn),
                  vinv).reshape(2, 2, k, nn)
        return (t[0] + 1j * t[1]).transpose(0, 2, 1).reshape(2 * nn, k)

    def lift(self, alpha, beta, x):
        """The class ``beta`` interior of ``C x`` (u1) and ``C Omega x``
        (u2) for the left and bottom values ``x`` and their images: twice
        the adjoint of ``trace``."""
        nn, vinv = self.basis.n - 1, self.basis.vinv
        xe = x.reshape(2, nn, -1).transpose(1, 0, 2)
        a = _gemm(vinv, np.stack([xe.real, xe.imag], axis=2).reshape(nn, -1))
        a = a.reshape(nn, 2, 2, -1)
        a = (a[:, :, 0] + 1j * a[:, :, 1]) * (2.0 * alpha.T[:, :, None])
        weight_l, weight_b = self.phase[beta]
        left = weight_l.conj()[:, None, :] * a[:, 0].T       # (parity, k, l)
        bottom = weight_b.T.conj()[:, None, :] * a[:, 1, :, None]
        return (_gemm(self.parts.T, np.stack([left.real, left.imag], axis=1)
                      .reshape(2, -1))
                + _gemm(np.stack([bottom.real, bottom.imag], axis=1)
                        .reshape(-1, 2), self.parts).reshape(nn, -1)
                ).reshape(nn, 2, -1, nn)

    def blocks(self, a_bb, name: str):
        """The class blocks ``{beta: A_beta}`` (dense, 2N-square) of the
        edge block ``a_bb`` of a form: its left and bottom rows on the
        class's vectors.  ConsistencyError unless the block between the two
        classes vanishes to 1e-12 of the largest entry of ``a_bb``:
        otherwise the class blocks describe another matrix."""
        coo = a_bb.tocoo()
        size = self.edges.size
        at = self.position[coo.row] * size + self.position[coo.col]

        def dense(weights, keep=slice(None)):
            data = weights * coo.data[keep]
            return (np.bincount(at[keep], data.real, size * size)
                    + 1j * np.bincount(at[keep], data.imag, size * size)
                    ).reshape(size, size)

        # (E_+^H A E_-)/2, E_beta embedding the class coordinates
        dev = np.abs(dense(np.where(self.on_image[coo.row], -0.5, 0.5))).max()
        scale = np.abs(coo.data).max() if coo.nnz else 0.0
        if dev > 1e-12 * max(scale, 1e-300):
            raise ConsistencyError(
                f"the edge block of {name} does not commute with the half "
                f"turn (cross-class deviation {dev:.3e})")
        keep = ~self.on_image[coo.row]
        return {beta: dense(np.where(self.on_image[coo.col[keep]], -beta, 1.0),
                            keep)
                for beta in (1, -1)}


@lru_cache(maxsize=None)
def _half_turn_modes(n: int) -> _HalfTurnModes:
    """The half-turn class coordinates of the n-grid (once per n, on the
    first grid solve).

    The reflection parity of V and the closed-form ``R^2`` (interior
    ``(i, j) -> (n-i, n-j)`` with -1 on u1 and +1 on u2, edges to their
    opposite edge reversed with -1) are checked here, once, against the
    basis and ``symmetry.rotation_map``.
    """
    from .symmetry import rotation_map      # symmetry imports this module

    basis, nn = _tensor_basis(n), n - 1
    parity = (-1.0) ** np.arange(nn)
    if not (np.abs(basis.vecs[::-1] - basis.vecs * parity).max()
            <= 1e-9 * np.abs(basis.vecs).max()):
        raise AssertionError("the 1D eigenbasis is not reflection-symmetric")
    partner = np.arange(4 * nn).reshape(4, nn)[[1, 0, 3, 2], ::-1].ravel()
    rows = np.concatenate([basis.interior.ravel(), basis.boundary])
    cols = np.concatenate([basis.interior[::-1, :, ::-1].ravel(),
                           basis.boundary[partner]])
    sign = np.broadcast_to([[-1.0], [1.0]], (nn, 2, nn)).ravel()
    half = sp.csr_matrix((np.concatenate([sign, -np.ones(4 * nn)]),
                          (rows, cols)), shape=(rows.size, rows.size))
    if (half != rotation_map(n).half_turn).nnz:
        raise AssertionError("the half turn is not the modal reflection")
    edges = np.r_[0:nn, 2 * nn:3 * nn]
    position = np.empty(4 * nn, dtype=np.int64)
    position[edges] = position[partner[edges]] = np.arange(2 * nn)
    on_image = np.ones(4 * nn, dtype=bool)
    on_image[edges] = False
    # u1 of the summed mode of parity s is kept beside the free mode of
    # parity p when s p = -beta; u2 enters the trace with conj(omega)
    same = np.array([[1.0], [-1.0]]) * parity
    return _HalfTurnModes(
        basis=basis,
        u1={beta: np.outer(parity, parity) == -beta for beta in (1, -1)},
        edges=edges, images=partner[edges], position=position,
        on_image=on_image,
        parts=np.stack([basis.ring * (parity > 0), basis.ring * (parity < 0)]),
        phase={beta: np.stack([np.where(same == -beta, 1.0,
                                        np.conj(OMEGA[edge]))
                               for edge in (LEFT, BOTTOM)])
               for beta in (1, -1)},
    )


class _TensorInverse:
    """Exact inverse of one grid form ``q = weighted(fm, w)``, built from
    the weights ``w`` and the sparse boundary block ``q_bb = Q_BB`` alone.

    Fast diagonalisation inverts the interior blocks ``D``, where ``C``
    couples the u1 interior to the edge dofs and ``C Omega`` the u2
    interior.  The form commutes with the half turn, so it is block
    diagonal in the half-turn classes (``_HalfTurnModes``), and so is the
    boundary Schur complement ``S = Q_BB - C^T D^-1 C - Omega^H C^T D^-1 C
    Omega``: one (2N)-square block ``S_beta`` per class, on the left and
    bottom edges, each closed by a dense Cholesky factor (the capacitance
    matrix of Buzbee, Dorr, George & Golub 1971, split by the classes of
    Bossavit 1986).  ``C`` is separable edge by edge, and the right and top
    ring rows are the left and bottom ones times the parity ``p``, so each
    class block is built from three edge-pair blocks, products of N-square
    matrices.  The factors exist only when ``q`` is positive definite on
    both classes, that is on the whole space, so building the inverse is
    also that check; the class blocks of ``Q_BB`` describe it only when the
    block between the classes vanishes, which is checked too.
    ``boundary_block`` keeps ``Q_BB``: the mass inverse's ``M_BB`` gives
    every shifted boundary block ``Q_BB - sigma M_BB`` without a shifted
    matrix.

    One implementation serves every use: ``class_solve`` is the inverse on
    one class in its modal coordinates (the Schur steps, O(N^2) per column,
    and one half-size Cholesky solve), and the nodal ``solve`` splits its
    right-hand side into the two classes between the basis's forward and
    back transforms, two O(N^3) products each.  The repair step and the
    residual check use ``solve``; ARPACK's class operator
    (``_ClassOperator``) iterates on ``class_product`` and ``class_solve``
    alone.
    """

    def __init__(self, basis: _TensorBasis, w, q_bb, name: str = "Q"):
        w1, w2, w3 = (float(x) for x in w[:3])
        lam, vinv = basis.lam, basis.vinv
        self.basis = basis
        self.modes = modes = _half_turn_modes(basis.n)
        self.boundary_block = q_bb
        self.delta = w1 * lam[:, None] + w2 * lam[None, :] + w3
        if not self.delta.min() > 0.0:
            raise ValueError(f"{name} is not positive definite: its interior "
                             "block has a non-positive eigenvalue")
        # the u1 coupling C of the left and bottom edges in the V basis:
        # diag(alpha) V^-1; the right and top edges have the same alpha
        kc, mc = basis.couple
        self.alpha = np.array([w1 * kc + w3 * mc + w2 * mc * lam,
                               w2 * kc + w3 * mc + w1 * mc * lam])
        self.class_blocks = blocks = modes.blocks(q_bb, name)

        # 2 C^T D^-1 C on the left and bottom edges of each class: the
        # left-left and bottom-bottom blocks are the same in both classes
        inv_delta = 1.0 / self.delta
        ring, (al, ab) = basis.ring, self.alpha
        ll = 2.0 * _gemm(vinv.T * (al**2 * (ring**2 @ inv_delta)), vinv)
        bb = 2.0 * _gemm(vinv.T * (ab**2 * (inv_delta @ ring**2)), vinv)
        # left-bottom: u1 enters with weight 1 and u2 with conj(omega_L)
        # omega_B on its checkerboard
        kernel = al[:, None] * (np.outer(ring, ring) * inv_delta).T * ab
        part = {beta: 2.0 * _gemm(_gemm(vinv.T, kernel * modes.u1[beta]),
                                  vinv) for beta in (1, -1)}
        theta = np.conj(OMEGA[LEFT]) * OMEGA[BOTTOM]
        nn = basis.n - 1
        self.chol = {}
        for beta in (1, -1):
            schur = blocks[beta].copy()
            lb = part[beta] + theta * part[-beta]
            schur[:nn, :nn] -= ll
            schur[nn:, nn:] -= bb
            schur[:nn, nn:] -= lb
            schur[nn:, :nn] -= lb.conj().T
            try:
                self.chol[beta] = sla.cho_factor(schur, lower=True,
                                                 overwrite_a=True,
                                                 check_finite=False)
            except sla.LinAlgError as exc:
                raise ValueError(f"{name} is not positive definite") from exc

    def solve(self, f):
        """``q^-1 f`` for a vector or the columns of a matrix: the forward
        transform, the class solves and the back transform."""
        f = np.asarray(f)
        cols = f.reshape(f.shape[0], -1)                 # (dim, k)
        parts = self.modes.split(*self.basis.forward(cols))
        x = self.basis.back(*self.modes.merge(
            {beta: self.class_solve(beta, *rhs) for beta, rhs in parts.items()}))
        return x.reshape(f.shape)

    def class_product(self, beta, w, x):
        """``q`` on the class ``beta`` vector ``(w, x)``, in the modal
        coordinates of its right-hand sides."""
        modes = self.modes
        return (self.delta[:, None, None, :] * w
                + modes.lift(self.alpha, beta, x),
                modes.trace(self.alpha, beta, w)
                + self._sparse_blocks[beta] @ x)

    @cached_property
    def _sparse_blocks(self):
        """The class blocks of ``Q_BB`` as sparse matrices, for products."""
        return {beta: sp.csr_matrix(blk)
                for beta, blk in self.class_blocks.items()}

    def class_solve(self, beta, g, fb):
        """``q^-1`` on class ``beta`` in its modal coordinates: the class
        vector of the solution from the right-hand side ``(g, fb)``.

        Every step costs O(N^2) per column, plus the Cholesky solve.
        """
        modes, delta = self.modes, self.delta[:, None, None, :]
        # the edge equation S_beta x = fb - C^T D^-1 g1 - Omega^H C^T D^-1 g2
        rhs = fb - modes.trace(self.alpha, beta, g / delta)
        x = sla.cho_solve(self.chol[beta], rhs, check_finite=False)
        w = modes.lift(self.alpha, beta, x)
        np.subtract(g, w, out=w)
        w /= delta
        return w, x


def _boundary_block(basis: _TensorBasis, q) -> sp.csr_matrix:
    """Block of the sparse grid form ``q`` on the edge dofs."""
    idx = basis.boundary
    return q[idx][:, idx]


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

    Its Schur factors are M's positive-definiteness check.  Built on the
    first grid solve of that n, never during assembly, and shared by every
    later solve on the grid.
    """
    m = assemble(build_grid(n)).M
    _check_hermitian("M", m)
    basis = _tensor_basis(n)
    return _TensorInverse(basis, (0.0, 0.0, 1.0), _boundary_block(basis, m),
                          "M")


class _ClassOperator:
    """ARPACK's class +1 operator ``P (Q - sigma M)^-1 M`` in the class +1
    coordinates of the tensor inverse (``_HalfTurnModes``).

    A vector holds the dense class +1 modal interior, u1 on one
    checkerboard of the eigenbasis (component c is the nodal field ``V
    zhat_c V^T``) and u2 on the other, and the nodal values of the left and
    bottom edge dofs, whose images on the opposite edges follow from the
    class; it has half the length of a nodal vector, and ``P`` is implicit.
    Since ``V^T M_D V = I`` and ``V^T K_D V = diag(lam)``, the interior
    block of ``M`` is the identity here and that of ``Q - sigma M`` is the
    diagonal ``delta``; both meet the edges only through the ring coupling.
    So ``M z`` is the mass inverse's ``class_product`` and the inverse is
    the shifted ``class_solve``: every application costs O(N^2) and one
    half-size Cholesky solve, and only ARPACK's vectors pay the back
    transform to nodal coordinates.  The operator is similar to the nodal
    one on class +1, so it has the same eigenvalues.
    """

    def __init__(self, shift: _TensorInverse, mass: _TensorInverse):
        self.shift, self.mass = shift, mass
        nn = shift.basis.n - 1
        self.split = nn * nn
        self.dim = self.split + 2 * nn

    def _expand(self, z):
        """Class +1 vector ``(w, x)`` of the columns ``z`` (dim, k)."""
        nn = self.shift.basis.n - 1
        w = z[:self.split].reshape(nn, nn, -1).transpose(0, 2, 1)
        return np.stack([w.real, w.imag], axis=1), z[self.split:]

    def apply(self, z):
        """``(Q - sigma M)^-1 M z`` for one class +1 vector."""
        w, x = self.shift.class_solve(
            1, *self.mass.class_product(1, *self._expand(
                z.reshape(self.dim, 1))))
        w = (w[:, 0, 0] + 1j * w[:, 1, 0]).ravel()
        return np.concatenate([w, x[:, 0]])

    def to_nodal(self, z):
        """Nodal vectors of the class +1 columns ``z``."""
        return self.shift.basis.back(
            *self.shift.modes.merge({1: self._expand(z)}))


def _check_kronecker_interior(fm, basis: _TensorBasis):
    """ConsistencyError unless the interior blocks of K1, K2 and M are the
    Kronecker sums that the tensor inverse assumes, one per component.

    The inverse and the modal iteration never read the assembled interior,
    so a form that differs there fails the residual contract; this tells
    that inconsistency from a solver failure.
    """
    n = fm.n
    k1d, m1d = (mat[1:n, 1:n] for mat in _matrices_1d(n)[:2])
    idx = basis.interior.transpose(1, 0, 2).ravel()     # u1, then u2
    for name, mat, kron in (("K1", fm.K1, sp.kron(k1d, m1d)),
                            ("K2", fm.K2, sp.kron(m1d, k1d)),
                            ("M", fm.M, sp.kron(m1d, m1d))):
        want = sp.block_diag([kron, kron])
        dev = abs(mat[idx][:, idx] - want).max()
        if dev > 1e-12 * abs(want).max():
            raise ConsistencyError(
                f"the interior block of {name} is not the Kronecker sum the "
                f"tensor inverse assumes (deviation {dev:.3e})")


# ARPACK's Krylov dimension in a class solve.  The closed-form shift puts
# the wanted 1/(mu - sigma) far above the rest of the spectrum of the
# shifted inverse, so a small space converges in a handful of applications.
# Measured against 4: equal or fewer applications on every benchmark
# workload (88 against 92 on solve_n128, 242 against 264 on an 11-point
# area sweep at n = 64) and the faster wall time in 5 of 6 pairs.
NCV = 6

# ARPACK's relative stopping tolerance, just above the rounding floor.  At
# tolerance 0 the stop sits on the operator's rounding and moves by whole
# restarts between similar operators.  Against 0 on the 16 n = 128 points
# of the benchmark's solve_n128 seeds 0-3: 148 applications against 172,
# values within 8.7e-15 relative, and residual/mu at or below 2.2e-12 after
# the repair either way, against the 1e-10 contract.
ARPACK_TOL = 1e-14


def _solve_pencil(fm, w, sigma: float, classes, k: int, tol: float,
                  maxit: int, seed: int) -> _PencilSolution:
    """k lowest eigenpairs of each half-turn class of the grid pencil
    (``weighted(fm, w)``, ``fm.M``), merged in ascending order.

    The one entry point of every grid solve.  ``classes`` is ``(1,)`` or
    ``(1, -1)``.  ``sigma`` must lie below the lowest eigenvalue.  ARPACK
    iterates ``P (Q - sigma M)^-1 M`` with the projector ``P = (I + R^2)/2``
    of the half turn, in the modal coordinates of one tensor-product inverse
    of ``Q - sigma M`` restricted to class +1 (``_ClassOperator``), for the
    largest ``1/(mu - sigma)`` of class +1.  Its vectors go back to nodal
    coordinates once, and the inverse-iteration step, Rayleigh-Ritz and the
    residual contract run on the assembled pencil.  Class -1 needs no
    second run: the charge conjugation ``C`` of ``symmetry.rotation_map``
    commutes with the pencil and anticommutes with ``R^2``, so ``C`` of the
    class +1 eigenvectors are the class -1 eigenvectors with the same
    values; a conjugate that fails the contract means the pencil lacks the
    symmetry.  A shift the inverse rejects lies above the lowest
    eigenvalue, which contradicts the lower bound it came from; a boundary
    block that does not commute with the half turn, and a class +1 failure
    on a form whose interior is not the Kronecker sum the inverse assumes,
    are inconsistencies too.  Each raises ConsistencyError.
    """
    from .symmetry import rotation_map      # symmetry imports this module

    if tuple(classes) not in ((1,), (1, -1)):
        raise ValueError(f"classes must be (1,) or (1, -1), got {classes!r}")
    mass = mass_inverse(fm.n)               # M's check comes first
    q = weighted(fm, w)
    _check_hermitian("Q", q, fm._transpose_positions)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ncv = max(NCV, 2 * k + 1)
    if ncv > fm.ndof // 2:
        raise ValueError(f"k={k} per class is too many for the n={fm.n} grid")
    basis = mass.basis
    try:
        shift = _TensorInverse(
            basis, (w[0], w[1], w[2] - sigma),
            _boundary_block(basis, q) - sigma * mass.boundary_block,
            "Q - sigma M")
    except ValueError as exc:
        raise ConsistencyError(
            f"shift sigma={sigma!r} is not below the lowest eigenvalue "
            f"({exc}); it must be a lower bound") from exc
    op = _ClassOperator(shift, mass)
    z, iterations = _krylov(op.apply, op.dim, k, maxit, seed, sigma=sigma,
                            ncv=ncv)
    v = _inverse_step(q, fm.M, shift.solve, op.to_nodal(z), sigma)
    rot = rotation_map(fm.n)
    v, iterations = (v + rot.half_turn @ v) / 2, iterations + k
    try:
        parts = [_ritz(q, fm.M, v, mass.solve, tol, iterations)]
    except SolverError:
        _check_kronecker_interior(fm, basis)
        raise
    if len(classes) > 1:
        try:
            parts.append(_ritz(q, fm.M, rot.conjugate(parts[0][1]),
                               mass.solve, tol, iterations))
        except SolverError as exc:
            raise ConsistencyError(
                "the charge conjugates of the class +1 eigenvectors fail "
                f"the residual contract ({exc}); the pencil lacks the "
                "symmetry") from exc
    mus, vectors, residuals = (np.concatenate(x, axis=-1) for x in zip(*parts))
    order = np.argsort(mus, kind="stable")
    return _PencilSolution(mus=mus[order], vectors=vectors[:, order],
                           residuals=residuals[order],
                           classes=np.repeat(classes, k)[order],
                           iterations=iterations)


def _krylov(apply_op, dim: int, k: int, maxit: int, seed: int, *,
            sigma: float = 0.0, ncv=None):
    """Vectors of the k largest eigenvalues ``1/(mu - sigma)`` of the
    operator ``apply_op`` on ``dim``-vectors, and the count of its
    applications.  ARPACK runs from a seeded start vector.
    """
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    iterations = 0

    def counted(x):
        nonlocal iterations
        iterations += 1
        return apply_op(x)

    op = spla.LinearOperator((dim, dim), matvec=counted, dtype=complex)
    try:
        # the residual contract is enforced by the repair and Rayleigh-Ritz
        # steps, not by ARPACK's tolerance
        _, v = spla.eigsh(op, k=k, which="LM", v0=v0, maxiter=maxit,
                          tol=ARPACK_TOL, ncv=ncv)
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
    return v, iterations


def _inverse_step(q, m, a_solve, v, sigma: float = 0.0):
    """One block inverse-iteration step ``(q - sigma m)^-1 m v``, where
    ``a_solve`` applies ``(q - sigma m)^-1``.

    ARPACK's vectors can sit far above its tolerance: 1e-8 relative for an
    exactly degenerate pair under threaded BLAS, and class solves without
    this step read residual/mu up to 8e-11 at n = 256 against the 1e-10
    contract.  The step damps their errors and the Rayleigh-Ritz step
    recovers the eigenpairs.  One step of iterative refinement makes the
    solve exact to rounding whatever the conditioning of the inverse.
    """
    rhs = m @ v
    v = a_solve(rhs)
    v += a_solve(rhs - (q @ v - sigma * (m @ v)))
    return v


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
        a_solve = _factor(Q).solve
        v, iterations = _krylov(lambda x: a_solve(M @ x), dim, k, maxit,
                                seed)
        v, iterations = _inverse_step(Q, M, a_solve, v), iterations + k
    mus, v, _ = _ritz(Q, M, v, m_solve, tol, iterations)
    return [(float(mus[i]), v[:, i]) for i in range(k)]


def lambda1_2d(a: float, b: float, m: float, n: int, tol: float = 1e-10,
               *, seed: int = 0, maxit: int = 500) -> EigenResult:
    """Discrete lowest positive Dirac eigenvalue on the (a, b) rectangle.

    Conforming, so ``mu`` over-estimates the continuum lambda_1(a,b)^2.
    Every eigenvalue is double, one of each pair in each half-turn class:
    class +1 is solved for its ground value at the shift
    ``sharp_lower(a, b, m)``, the closed-form lower bound, class -1 is its
    charge conjugate, and the two values must agree, which tests the
    symmetry on every solve.
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
