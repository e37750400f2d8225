"""Exact tensor-product inverses of the grid forms.

The interior u1 and u2 blocks of every grid form are one separable
Kronecker sum, inverted by fast diagonalisation in the 1D eigenbasis
(Lynch, Rice & Thomas 1964); the interior meets the 4(n-1) edge dofs only
through the ring of lines next to the edges, and dense Cholesky factors of
the boundary Schur complement close the system (the capacitance matrix of
Buzbee, Dorr, George & Golub 1971).  Every grid form commutes with the half
turn ``R^2``, so the Schur complement is block diagonal in its two classes
(Bossavit 1986): one 2(n-1)-square block per class on the left and bottom
edges, whose right and top images follow from the class.  Both blocks are
built from the left and bottom ring rows and the edge block ``Q_BB``, all
from the grid's 1D matrices, and factored; together they certify that the
form is positive definite on the whole space.  The class blocks read only
the left and bottom rows of ``Q_BB``, whose reversal-symmetric 1D matrices
(``FormMatrices._symmetry_certificate``) keep the half turn.

ARPACK iterates in the class +1 coordinates of the tensor inverse
(``_ClassOperator``): one dense array of class +1 coefficients of the
interior fields in the eigenbasis ``V (x) V``, u1 on one checkerboard of
mode parities and u2 on the other, and the nodal values of the left and
bottom edge dofs.  There the interior block of ``M`` is the identity and
that of ``Q - sigma M`` is diagonal, both meet the edges only through the
ring coupling, and the projector onto the class is implicit, so an operator
application costs O(N^2) and one half-size Cholesky solve.  The solver's
inverse-iteration step solves on class +1 alone (``plus_solve``): its
right-hand side goes into the class +1 coordinates and back.  Its residual
check reads ``r^H M^-1 r`` in the class coordinates of both classes
(``norms``), with no back transform.

``mass_inverse(n)`` is the one per-n owner: the inverse of ``M``, built on
the first grid solve of that n and holding the grid's ``_TensorBasis`` (the
eigenbasis, the ring layout and the half-turn class coordinates).  Every
shifted inverse reads the basis as ``mass_inverse(n).basis`` and lives for
one solve, the form of the weights with ``w_M - sigma``.  The 1D
eigenbasis and the Schur factors exist only for a positive-definite
matrix, so ``mass_inverse`` is also M's positive-definiteness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConsistencyError
from .formgrid import (BOTTOM, LEFT, OMEGA, _PAIRS, assemble, build_grid,
                       constraint_map, _tridiagonal)
from .symmetry import rotation_map

__all__ = ["mass_inverse"]


@dataclass(frozen=True)
class _TensorBasis:
    """Per-n data of the tensor-product inverse of the grid forms: the
    eigenbasis, the ring layout and the half-turn class coordinates.

    Interior nodes (``N = n - 1`` per axis) carry both components, and the
    interior block of every weighted form is the Kronecker sum
    ``D = w1 K_D (x) M_D + w2 M_D (x) K_D + w3 M_D (x) M_D`` of the 1D
    Dirichlet matrices.  ``vecs`` solves ``K_D V = M_D V diag(lam)`` with
    ``V^T M_D V = I``, so ``D`` is diagonal in ``V (x) V``.  Interior dofs
    meet the edge dofs only through the ring of interior lines next to the
    edges.

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
    class's u1 checkerboard and u2 on the other (component c of a column is
    the nodal field ``V w_c V^T``), and ``x`` (2N, k) its left and bottom
    edge values.  Every form commutes with ``R^2``, so it acts on each class
    alone; ``trace`` and ``lift`` are its ring coupling in these
    coordinates, where the right and top edges double the left and bottom
    ones.
    """

    n: int
    vecs: np.ndarray        # (N, N) V
    lam: np.ndarray         # (N,)
    vinv: np.ndarray        # (N, N) V^-1 = V^T M_D
    ring: np.ndarray        # (N,) row of V at the ring lines of the left
    #                         and bottom edges
    interior: np.ndarray    # (N, 2, N) reduced index of u1, u2 at node (i, j)
    boundary: np.ndarray    # (4N,) reduced index of the left and bottom edge
    #                         dofs, then of their images: right and top,
    #                         each reversed
    u1: np.ndarray          # (N, N) bool, where class +1 keeps u1 and
    #                         class -1 keeps u2
    parts: np.ndarray       # (2, N) ring row on the even, odd modes
    phase: dict             # beta -> (2, 2, N) trace weight per edge
    #                         (left, bottom), parity of the summed mode, mode
    lines: np.ndarray       # (3, 3, n+1) the grid's 1D matrices, band form

    def forward(self, cols):
        """Class parts ``{beta: (w, x)}`` of the nodal right-hand sides
        ``cols`` (dim, k): ``V^T F V`` of each interior field ``F`` on the
        class's checkerboards, and the class's part of the edge values."""
        nn, k = self.n - 1, cols.shape[1]
        g = cols[self.interior[:, :, None, :], np.arange(k)[:, None]]
        g = np.stack([g.real, g.imag], axis=1).reshape(nn, -1)
        g = _gemm(_gemm(self.vecs.T, g).reshape(-1, nn), self.vecs)
        g1, g2 = g.reshape(nn, 2, 2, k, nn).transpose(2, 0, 1, 3, 4)
        keep = self.u1[:, None, None, :]
        edge, image = cols[self.boundary].reshape(2, 2 * nn, k)
        return {1: (np.where(keep, g1, g2), (edge - image) / 2),
                -1: (np.where(keep, g2, g1), (edge + image) / 2)}

    def back(self, parts):
        """Nodal vectors (dim, k) of the sum of the class parts
        ``{beta: (w, x)}``, a missing class zero; the inverse of
        ``forward``."""
        nn = self.n - 1
        (w_p, x_p), (w_m, x_m) = (parts.get(beta, (0.0, 0.0))
                                  for beta in (1, -1))
        keep = self.u1[:, None, None, :]
        z = np.stack([np.where(keep, w_p, w_m), np.where(keep, w_m, w_p)],
                     axis=2)
        k = z.shape[3]
        z = _gemm(_gemm(self.vecs, z.reshape(nn, -1)).reshape(-1, nn),
                  self.vecs.T).reshape(nn, 2, 2, k, nn)
        x = np.empty((2 * nn * nn + 4 * nn, k), dtype=complex)
        x[self.interior[:, :, None, :], np.arange(k)[:, None]] = (
            z[:, 0] + 1j * z[:, 1])
        x[self.boundary] = np.concatenate([x_p + x_m, x_m - x_p])
        return x

    def trace(self, alpha, beta, w):
        """``C^T W1 + Omega^H C^T W2`` (2N, k) on the left and bottom edges
        of a class ``beta`` interior ``w``, where ``C`` is the ring coupling
        of a form with coefficients ``alpha`` (see ``_TensorInverse``)."""
        nn, k = self.n - 1, w.shape[2]
        left = _gemm(self.parts, w.reshape(nn, -1)).reshape(2, 2, k, nn)
        bottom = _gemm(w.reshape(-1, nn), self.parts.T).reshape(nn, 2, k, 2)
        weight_l, weight_b = self.phase[beta]
        lines = alpha[:, None, :] * np.stack([
            (weight_l[:, None] * (left[:, 0] + 1j * left[:, 1])).sum(0),
            (weight_b.T[:, None] * (bottom[:, 0] + 1j * bottom[:, 1])
             ).sum(-1).T])                          # (edge, k, mode)
        t = _gemm(np.concatenate([lines.real, lines.imag]).reshape(-1, nn),
                  self.vinv).reshape(2, 2, k, nn)
        return (t[0] + 1j * t[1]).transpose(0, 2, 1).reshape(2 * nn, k)

    def lift(self, alpha, beta, x):
        """The class ``beta`` interior of ``C x`` (u1) and ``C Omega x``
        (u2) for the left and bottom values ``x`` and their images: twice
        the adjoint of ``trace``."""
        nn = self.n - 1
        xe = x.reshape(2, nn, -1).transpose(1, 0, 2)
        a = _gemm(self.vinv,
                  np.stack([xe.real, xe.imag], axis=2).reshape(nn, -1))
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

    def blocks(self, w):
        """The class blocks ``{beta: Q_beta}`` (dense, 2N-square) of the
        edge block ``Q_BB`` of the form with weights ``w``: its left and
        bottom rows on the class's vectors, from the 1D matrices.

        Two edge dofs at nodes ``p`` and ``q`` couple through their u1 and
        u2 terms, ``(1 + conj(omega_p) omega_q) sum_f w_f A_f[p1, q1]
        B_f[p2, q2]``: along an edge that is twice the form's line matrix,
        and the dofs next to a corner couple across it.  On the left and
        bottom rows, a right or top dof enters as ``-beta`` times the left
        or bottom dof it is the half-turn image of.
        """
        n, nn = self.n, self.n - 1
        factor = constraint_map(n).factor
        terms = [(wf, self.lines[a], self.lines[b])
                 for wf, (a, b) in zip(w, _PAIRS)]

        def couple(p, q):
            (i, j), (k, l) = p, q
            total = sum(wf * a[1 + k - i, i] * b[1 + l - j, j]
                        for wf, a, b in terms)
            return (1.0 + np.conj(factor[p]) * factor[q]) * total

        # the left edge reads each B along x2 at A[0, 0], the bottom edge
        # each A along x1 at B[0, 0]; the u1 and u2 terms double them
        block = np.zeros((2 * nn, 2 * nn), dtype=complex)
        block[:nn, :nn] = _tridiagonal(2.0 * sum(
            wf * a[1, 0] * b[:, 1:n] for wf, a, b in terms)).toarray()
        block[nn:, nn:] = _tridiagonal(2.0 * sum(
            wf * b[1, 0] * a[:, 1:n] for wf, a, b in terms)).toarray()
        block[0, nn] = couple((0, 1), (1, 0))
        block[nn, 0] = couple((1, 0), (0, 1))
        out = {}
        for beta in (1, -1):
            # left (0, n-1) meets top (1, n), the image of bottom (n-1, 0),
            # and bottom (n-1, 0) meets right (n, 1), that of left (0, n-1)
            out[beta] = block.copy()
            out[beta][nn - 1, -1] = -beta * couple((0, n - 1), (1, n))
            out[beta][-1, nn - 1] = -beta * couple((n - 1, 0), (n, 1))
        return out


def _tensor_basis(fm) -> _TensorBasis:
    """The basis of the grid of the forms ``fm``, which ``mass_inverse``
    builds once per n; ValueError unless the 1D mass matrix is positive
    definite on the interior, which M is then too.

    The reflection parity of V and the closed-form ``R^2`` (interior
    ``(i, j) -> (n-i, n-j)`` with -1 on u1 and +1 on u2, each edge dof to
    its image with -1) are checked here against the basis and against
    ``half_perm`` and ``half_phase`` of ``symmetry.rotation_map``;
    ConsistencyError if either check fails.
    """
    n = fm.n
    cmap = constraint_map(n)
    k_d, m_d = (_tridiagonal(bands[:, 1:n]).toarray()
                for bands in fm.lines[:2])
    try:
        lam, vecs = sla.eigh(k_d, m_d)
    except sla.LinAlgError as exc:
        raise ValueError("M is not positive definite") from exc
    nn, inner = n - 1, slice(1, n)
    parity = (-1.0) ** np.arange(nn)
    if not (np.abs(vecs[::-1] - vecs * parity).max()
            <= 1e-9 * np.abs(vecs).max()):
        raise ConsistencyError(
            "the 1D eigenbasis is not reflection-symmetric")
    interior = np.stack([cmap.free1[inner, inner], cmap.free2[inner, inner]],
                        axis=1)
    boundary = np.concatenate([cmap.free1[0, inner], cmap.free1[inner, 0],
                               cmap.free1[n, inner][::-1],
                               cmap.free1[inner, n][::-1]])
    rows = np.concatenate([interior.ravel(), boundary])
    cols = np.concatenate([interior[::-1, :, ::-1].ravel(),
                           np.roll(boundary, 2 * nn)])
    sign = np.broadcast_to([[-1.0], [1.0]], (nn, 2, nn)).ravel()
    rot = rotation_map(n)       # (R^2 x)[rows] = sign * x[cols]
    if not (np.array_equal(rot.half_perm[rows], cols) and np.array_equal(
            rot.half_phase[rows], np.concatenate([sign, -np.ones(4 * nn)]))):
        raise ConsistencyError("the half turn is not the modal reflection")
    # u1 of the summed mode of parity s is kept beside the free mode of
    # parity p when s p = -beta; u2 enters the trace with conj(omega)
    same = np.array([[1.0], [-1.0]]) * parity
    return _TensorBasis(
        n=n, vecs=vecs, lam=lam, vinv=vecs.T @ m_d, ring=vecs[0],
        interior=interior, boundary=boundary, u1=np.outer(parity, parity) < 0,
        parts=np.stack([vecs[0] * (parity > 0), vecs[0] * (parity < 0)]),
        phase={beta: np.stack([np.where(same == -beta, 1.0,
                                        np.conj(OMEGA[edge]))
                               for edge in (LEFT, BOTTOM)])
               for beta in (1, -1)},
        lines=fm.lines,
    )


class _TensorInverse:
    """Exact inverse of one grid form ``q = weighted(fm, w)``, built from
    the weights ``w`` and the grid's 1D matrices alone.

    Fast diagonalisation inverts the interior blocks ``D``, where ``C``
    couples the u1 interior to the edge dofs and ``C Omega`` the u2
    interior.  The form commutes with the half turn, so it is block
    diagonal in the half-turn classes (``_TensorBasis``), and so is the
    boundary Schur complement ``S = Q_BB - C^T D^-1 C - Omega^H C^T D^-1 C
    Omega``: one (2N)-square block ``S_beta`` per class, on the left and
    bottom edges, each closed by a dense Cholesky factor (the capacitance
    matrix of Buzbee, Dorr, George & Golub 1971, split by the classes of
    Bossavit 1986).  ``C`` is separable edge by edge, and the right and top
    ring rows are the left and bottom ones times the parity ``p``, so each
    class block is built from edge-pair blocks, products of N-square
    matrices: the left-left and bottom-bottom blocks are the same in both
    classes, and one cross-edge product gives the left-bottom block of
    both.  The factors exist only when ``q`` is positive definite on
    both classes, that is on the whole space, so building the inverse is
    also that check; the class blocks of ``Q_BB`` describe it only when the
    block between the classes vanishes, which the grid's reversal-symmetric
    1D matrices guarantee (``FormMatrices._symmetry_certificate``).  A
    shifted form ``Q - sigma M`` is the form with weight ``w_M - sigma``.

    One implementation serves every use: ``class_solve`` is the inverse on
    one class in its modal coordinates (the Schur steps, O(N^2) per column,
    and one half-size Cholesky solve).  The basis's forward and back
    transforms take nodal vectors to class coordinates and back, two O(N^3)
    products each.  ARPACK's class operator (``_ClassOperator``) iterates
    on ``class_product`` and ``class_solve`` alone; the solver's
    inverse-iteration step uses ``plus_solve``, the class +1 solve between
    a forward and a back transform, and its residual check ``norms``, both
    class solves after one forward transform.
    """

    def __init__(self, basis: _TensorBasis, w, name: str = "Q"):
        w1, w2, w3 = (float(x) for x in w[:3])
        lam, vinv = basis.lam, basis.vinv
        self.basis = basis
        self.delta = w1 * lam[:, None] + w2 * lam[None, :] + w3
        if not self.delta.min() > 0.0:
            raise ValueError(f"{name} is not positive definite: its interior "
                             "block has a non-positive eigenvalue")
        # the u1 coupling C of the left and bottom edges in the V basis:
        # diag(alpha) V^-1; the right and top edges have the same alpha
        kc, mc = basis.lines[:2, 0, 1]    # 1D stiffness, mass ring-to-edge
        self.alpha = np.array([w1 * kc + w3 * mc + w2 * mc * lam,
                               w2 * kc + w3 * mc + w1 * mc * lam])
        self.w = w
        blocks = basis.blocks(w)

        # 2 C^T D^-1 C on the left and bottom edges of each class: the
        # left-left and bottom-bottom blocks are the same in both classes
        inv_delta = 1.0 / self.delta
        ring, (al, ab) = basis.ring, self.alpha
        ll = 2.0 * _gemm(vinv.T * (al**2 * (ring**2 @ inv_delta)), vinv)
        bb = 2.0 * _gemm(vinv.T * (ab**2 * (inv_delta @ ring**2)), vinv)
        # left-bottom: u1 enters with weight 1 and u2 with conj(omega_L)
        # omega_B = theta.  Class beta keeps u1 on the checkerboard
        # (1 - beta p p^T)/2 and diag(p) V^-1 = V^-1 J, so with
        # X = V^-T kernel V^-1 its block is (1 + theta) X - beta (1 - theta)
        # J X J
        kernel = al[:, None] * (np.outer(ring, ring) * inv_delta).T * ab
        cross = _gemm(_gemm(vinv.T, kernel), vinv)
        theta = np.conj(OMEGA[LEFT]) * OMEGA[BOTTOM]
        nn = basis.n - 1
        self.chol = {}
        for beta in (1, -1):
            schur = blocks[beta]
            lb = (1 + theta) * cross - beta * (1 - theta) * cross[::-1, ::-1]
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

    def plus_solve(self, cols):
        """``P q^-1 cols`` for nodal columns ``cols`` (dim, k), ``P`` the
        projector onto class +1: the forward transform, the class +1 solve
        and the back transform."""
        parts = self.basis.forward(cols)
        return self.basis.back({1: self.class_solve(1, *parts[1])})

    def norms(self, cols):
        """The ``q^-1`` norm ``sqrt(cols^H q^-1 cols)`` of each nodal
        column, in class coordinates with no back transform.

        With ``(g, f)`` the class parts of ``cols`` and ``(w, x)`` their
        class solves, the interior contributes ``<g, w>``, since the modal
        coefficients ``V^T F V`` pair with ``V W V^T``, and the edges
        ``2 <f, x>``, since the right and top values are the left and
        bottom ones up to the class sign.  Both classes count.
        """
        total = 0.0
        for beta, (g, f) in self.basis.forward(cols).items():
            w, x = self.class_solve(beta, g, f)
            total = total + (np.einsum("iajl,iajl->j", g, w)
                             + 2.0 * np.real(np.einsum("ij,ij->j",
                                                       f.conj(), x)))
        return np.sqrt(np.abs(total))

    def class_product(self, beta, w, x):
        """``q`` on the class ``beta`` vector ``(w, x)``, in the modal
        coordinates of its right-hand sides."""
        basis = self.basis
        return (self.delta[:, None, None, :] * w
                + basis.lift(self.alpha, beta, x),
                basis.trace(self.alpha, beta, w)
                + self._sparse_blocks[beta] @ x)

    @cached_property
    def _sparse_blocks(self):
        """The class blocks of ``Q_BB`` as sparse matrices, for products."""
        return {beta: sp.csr_matrix(blk)
                for beta, blk in self.basis.blocks(self.w).items()}

    def class_solve(self, beta, g, fb):
        """``q^-1`` on class ``beta`` in its modal coordinates: the class
        vector of the solution from the right-hand side ``(g, fb)``.

        Every step costs O(N^2) per column, plus the Cholesky solve.
        """
        basis, delta = self.basis, self.delta[:, None, None, :]
        # the edge equation S_beta x = fb - C^T D^-1 g1 - Omega^H C^T D^-1 g2
        rhs = fb - basis.trace(self.alpha, beta, g / delta)
        x = sla.cho_solve(self.chol[beta], rhs, check_finite=False)
        w = basis.lift(self.alpha, beta, x)
        np.subtract(g, w, out=w)
        w /= delta
        return w, x


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
    """Tensor-product inverse of the n-grid mass matrix, and the owner of
    the grid's basis (built once per n).

    Its 1D eigenbasis and Schur factors are M's positive-definiteness
    check.  Built on the first grid solve of that n, never during assembly,
    and shared by every later solve on the grid; its ``basis`` is the one
    every shifted inverse of the grid reads.
    """
    return _TensorInverse(_tensor_basis(assemble(build_grid(n))),
                          (0.0, 0.0, 1.0, 0.0, 0.0), "M")


class _ClassOperator:
    """ARPACK's class +1 operator ``P (Q - sigma M)^-1 M`` in the class +1
    coordinates of the tensor inverse (``_TensorBasis``).

    A vector holds the dense class +1 modal interior, u1 on one
    checkerboard of the eigenbasis and u2 on the other, and the nodal
    values of the left and bottom edge dofs, whose images on the opposite
    edges follow from the class; it has half the length of a nodal vector,
    and ``P`` is implicit.
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
        self.nn = nn = shift.basis.n - 1
        self.dim = nn * nn + 2 * nn

    def _expand(self, z):
        """Class +1 vector ``(w, x)`` of the columns ``z`` (dim, k)."""
        nn = self.nn
        w = z[:nn * nn].reshape(nn, nn, -1).transpose(0, 2, 1)
        return np.stack([w.real, w.imag], axis=1), z[nn * nn:]

    def apply(self, z):
        """``(Q - sigma M)^-1 M z`` for one class +1 vector."""
        w, x = self.shift.class_solve(
            1, *self.mass.class_product(1, *self._expand(
                z.reshape(self.dim, 1))))
        w = (w[:, 0, 0] + 1j * w[:, 1, 0]).ravel()
        return np.concatenate([w, x[:, 0]])

    def to_nodal(self, z):
        """Nodal vectors of the class +1 columns ``z``."""
        return self.shift.basis.back({1: self._expand(z)})
