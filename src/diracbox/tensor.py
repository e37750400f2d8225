"""Exact tensor-product inverses of the grid forms.

The interior u1 and u2 blocks of every grid form are one separable
Kronecker sum, inverted by fast diagonalisation in the 1D eigenbasis
(Lynch, Rice & Thomas 1964); the interior meets the 4(n-1) edge dofs only
through the ring of lines next to the edges, and a dense Cholesky factor of
the boundary Schur complement closes the system (the capacitance matrix of
Buzbee, Dorr, George & Golub 1971).  Every grid form commutes with the half
turn ``R^2``, so the Schur complement is block diagonal in its two classes
(Bossavit 1986): one 2(n-1)-square block per class on the left and bottom
edges, whose right and top images follow from the class.  Class -1 takes
its coordinates from class +1 through the charge conjugation, which
commutes with every form, so the two blocks are one matrix: built from the
left and bottom ring rows and the edge block ``Q_BB``, all from the grid's
1D matrices, and factored once, it certifies that the form is positive
definite on the whole space.  It reads only the left and bottom rows of
``Q_BB``, whose reversal-symmetric 1D matrices
(``FormMatrices._symmetry_certificate``) keep the half turn.

Every real-weighted grid form also commutes with the antiunitary ``T = K P``,
``P`` the x1-reflection of the reduced dofs and ``K`` the complex
conjugation, and ``T`` keeps both classes.  So each class has real
coordinates, the coefficients of a unitary basis of ``T``-fixed vectors, in
which every form is a real symmetric matrix (``_TensorBasis``), and all
class arithmetic is real: the Schur block and its Cholesky factor, the
class solves and ARPACK's vector.  A complex class vector ``z`` is two real
columns, those of ``(z + T z)/2`` and ``(z - T z)/2i``.

ARPACK iterates in the real class +1 coordinates of the tensor inverse
(``_ClassOperator``): one dense array of class +1 coefficients of the
interior fields in the eigenbasis ``V (x) V``, u1 on one checkerboard of
mode parities and u2 on the other, and the left and bottom edge values.
There the interior block of ``M`` is the identity and that of
``Q - sigma M`` is diagonal, both meet the edges only through the ring
coupling, and the projector onto the class is implicit, so an operator
application costs O(N^2), two triangular products and one half-size
Cholesky solve.  The solver's
inverse-iteration step solves on class +1 alone (``plus_solve``): its
complex right-hand side goes into the real class +1 coordinates and back.
Its residual check reads ``r^H M^-1 r`` in the real coordinates of both
classes (``norms``), with no back transform.

``mass_inverse(n)`` is the one per-n owner: the inverse of ``M``, built on
the first grid solve of that n and holding the grid's ``_TensorBasis`` (the
eigenbasis, the ring layout and the class coordinates).  Every shifted
inverse reads the basis as ``mass_inverse(n).basis`` and lives for one
solve, the form of the weights with ``w_M - sigma``.  The 1D eigenbasis
and the Schur factor exist only for a positive-definite matrix, so
``mass_inverse`` is also M's positive-definiteness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConsistencyError
from .formgrid import (BOTTOM, LEFT, OMEGA, _PAIRS, assemble, build_grid,
                       constraint_map, _tridiagonal)
from .symmetry import rotation_map

__all__ = ["mass_inverse"]

_SQRT_TWO, _SQRT_HALF = np.sqrt(2.0), np.sqrt(0.5)


@dataclass(frozen=True)
class _TensorBasis:
    """Per-n data of the tensor-product inverse of the grid forms: the
    eigenbasis, the ring layout and the real class coordinates.

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

    ``T`` maps the modal coefficient ``w(k, l)`` to ``p_k conj(w(k, l))``,
    the left edge value ``x_L[t]`` to ``-beta conj(x_L[N-1-t])`` and the
    bottom one ``x_B[t]`` to ``conj(x_B[N-1-t])``.  The real coordinates of
    a class +1 vector are ``(w, x)``: ``w`` (N, k, N) real with the modal
    coefficient ``i^[k odd] w``, holding u1 on the class's u1 checkerboard
    and u2 on the other, and ``x`` (2N, k) real with the edge values
    ``U_+ x``.  On an edge of sign ``s`` (-1 on the left, 1 on the bottom)
    ``U_+`` takes the pair ``(t, N-1-t)``, ``t < N/2``, to ``((x_t + i
    x_{N-1-t})/sqrt2, s (x_t - i x_{N-1-t})/sqrt2)`` and the middle value
    to ``sqrt(s) x_mid``.  The coordinates are orthonormal and ``T``-fixed,
    so every form is real symmetric in them.

    Class -1 takes its coordinates from class +1 through the charge
    conjugation ``C(u1, u2) = (conj u2, conj u1)``: ``C`` maps the class +1
    vector of real coordinates ``(w, x)`` to the class -1 vector of the same
    coordinates, whose modal coefficient is ``(-i)^[k odd] w`` on the
    swapped checkerboards and whose edge values are ``U_- x``, ``U_- =
    diag(-i, 1) J U_+`` on the (left, bottom) edges.  ``C`` is antiunitary
    and commutes with every form, whose class +1 matrix is real, so the
    class -1 matrix is the same one: ``trace``, ``lift`` and ``real_block``
    serve both classes, and only ``forward`` and ``back`` tell them apart,
    by the sign ``p_k`` on interior row k and by ``unitary[beta]``, which
    holds ``U_beta`` as ``(U x)_t = ua_t x_t + ub_t x_{N-1-t}``.  Every form
    commutes with ``R^2``, so it acts on each class alone; ``trace`` and
    ``lift`` are its ring coupling in these coordinates, where the right
    and top edges double the left and bottom ones.
    """

    n: int
    vecs: np.ndarray        # (N, N) V
    lam: np.ndarray         # (N,)
    parity: np.ndarray      # (N,) p
    ring: np.ndarray        # (N,) row of V at the ring lines of the left
    #                         and bottom edges
    interior: np.ndarray    # (N, 2, N) reduced index of u1, u2 at node (i, j)
    boundary: np.ndarray    # (4N,) reduced index of the left and bottom edge
    #                         dofs, then of their images: right and top,
    #                         each reversed
    u1: np.ndarray          # (N, N) bool, where class +1 keeps u1 and
    #                         class -1 keeps u2
    parts: np.ndarray       # (2, N) ring row on the even, odd modes
    weight: np.ndarray      # (2, 2, N) real trace weight per edge (left,
    #                         bottom), parity of the summed mode, mode
    edge_map: np.ndarray    # (2, N, N) real map per edge from the trace's
    #                         modal line to the edge coordinates
    unitary: dict           # beta -> (2, 2N) complex (ua, ub) of U_beta
    lines: np.ndarray       # (3, 3, n+1) the grid's 1D matrices, band form

    def forward(self, cols):
        """Class parts ``{beta: (w, x)}`` of the nodal right-hand sides
        ``cols`` (dim, k), two real columns for each: the real coordinates
        of ``(z + T z)/2`` and of ``(z - T z)/2i`` for the class part ``z``
        of the column.  ``V^T F V`` of each interior field ``F`` on the
        class's checkerboards, and the class's part of the edge values."""
        nn, k = self.n - 1, cols.shape[1]
        g = cols[self.interior[:, :, None, :], np.arange(k)[:, None]]
        g = np.stack([g.real, g.imag], axis=3).reshape(nn, -1)
        g = _gemm(_gemm(self.vecs.T, g).reshape(-1, nn), self.vecs)
        g = g.reshape(nn, 2, k, 2, nn)
        # odd modes: the coordinate is -i times the coefficient in class
        # +1, and i times it in class -1
        g[1::2] = g[1::2, :, :, ::-1] * np.array([[1.0], [-1.0]])
        g1, g2 = g.reshape(nn, 2, 2 * k, nn).transpose(1, 0, 2, 3)
        keep = self.u1[:, None, :]
        edge, image = cols[self.boundary].reshape(2, 2 * nn, k)
        return {1: (np.where(keep, g1, g2),
                    self._coordinates(1, edge - image)),
                -1: (np.where(keep, g2, g1) * self.parity[:, None, None],
                     self._coordinates(-1, edge + image))}

    def _coordinates(self, beta, x):
        """The real column pairs of the class ``beta`` edge coordinates
        ``U^H x / 2`` of the nodal left and bottom values minus (class +1)
        or plus their images ``x``."""
        nn = self.n - 1
        ua, ub = self.unitary[beta].conj()[:, :, None] / 2
        return _split(ua * x + (ub * x).reshape(2, nn, -1)[:, ::-1].reshape(
            2 * nn, -1))

    def back(self, parts):
        """Nodal vectors (dim, k) of the sum of the class parts
        ``{beta: (w, x)}`` with 2k real columns each, a missing class zero:
        the column pair ``(a, b)`` gives the vector of the coordinates
        ``a + i b``.  The inverse of ``forward``."""
        nn = self.n - 1
        (w_p, _), (w_m, _) = (parts.get(beta, (0.0, 0.0))
                              for beta in (1, -1))
        w_m = w_m * self.parity[:, None, None]
        keep = self.u1[:, None, :]
        z = np.stack([np.where(keep, w_p, w_m), np.where(keep, w_m, w_p)],
                     axis=1)
        k = z.shape[2] // 2
        z = z.reshape(nn, 2, k, 2, nn)
        # odd modes: the coefficient is i times the coordinate
        z[1::2] = z[1::2, :, :, ::-1] * np.array([[-1.0], [1.0]])
        z = _gemm(_gemm(self.vecs, z.reshape(nn, -1)).reshape(-1, nn),
                  self.vecs.T).reshape(nn, 2, k, 2, nn)
        x = np.empty((2 * nn * nn + 4 * nn, k), dtype=complex)
        x[self.interior[:, :, None, :], np.arange(k)[:, None]] = (
            z[:, :, :, 0] + 1j * z[:, :, :, 1])
        x_p, x_m = (self._values(beta, parts[beta][1]) if beta in parts
                    else 0.0 for beta in (1, -1))
        x[self.boundary] = np.concatenate([x_p + x_m, x_m - x_p])
        return x

    def _values(self, beta, x):
        """The nodal left and bottom values ``U x`` of the class ``beta``
        edge coordinates ``x``, whose column pairs are complex columns."""
        nn = self.n - 1
        ua, ub = self.unitary[beta][:, :, None]
        x = x[:, 0::2] + 1j * x[:, 1::2]
        return ua * x + ub * x.reshape(2, nn, -1)[:, ::-1].reshape(2 * nn, -1)

    def trace(self, alpha, w):
        """``C^T W1 + Omega^H C^T W2`` (2N, k) on the left and bottom edges
        of a class interior ``w``, where ``C`` is the ring coupling of a
        form with coefficients ``alpha`` (see ``_TensorInverse``)."""
        nn, k = self.n - 1, w.shape[1]
        left = _gemm(self.parts, w.reshape(nn, -1)).reshape(2, k, nn)
        bottom = _gemm(w.reshape(-1, nn), self.parts.T).reshape(nn, k, 2)
        weight_l, weight_b = self.weight
        lines = alpha[:, None, :] * np.stack([
            (weight_l[:, None] * left).sum(0),
            (weight_b.T[:, None] * bottom).sum(-1).T])      # (edge, k, mode)
        return np.concatenate([_gemm(emap, line.T)
                               for emap, line in zip(self.edge_map, lines)])

    def lift(self, alpha, x):
        """The class interior of ``C x`` (u1) and ``C Omega x`` (u2) for
        the left and bottom values ``x`` and their images: twice the
        transpose of ``trace``."""
        nn = self.n - 1
        a = np.stack([_gemm(line.T, emap) for emap, line in
                      zip(self.edge_map, x.reshape(2, nn, -1))])
        a *= 2.0 * alpha[:, None, :]                        # (edge, k, mode)
        weight_l, weight_b = self.weight
        left = weight_l[:, None, :] * a[0]                  # (parity, k, l)
        bottom = a[1].T[:, :, None] * weight_b.T[:, None, :]
        return (_gemm(self.parts.T, left.reshape(2, -1))
                + _gemm(bottom.reshape(-1, 2), self.parts).reshape(nn, -1)
                ).reshape(nn, -1, nn)

    def real_block(self, w):
        """The class block of the edge block ``Q_BB`` of the form with
        weights ``w`` in the real edge coordinates, dense and
        Fortran-ordered (so that LAPACK factors it in place): ``U_+^H
        Q_+ U_+``, ``Q_+`` the left and bottom rows of ``Q_BB`` on the class
        +1 nodal edge values, built from the 1D matrices.

        Two edge dofs at nodes ``p`` and ``q`` couple through their u1 and
        u2 terms, ``(1 + conj(omega_p) omega_q) sum_f w_f A_f[p1, q1]
        B_f[p2, q2]``: along an edge that is twice the form's line matrix,
        and the dofs next to a corner couple across it.  On the left and
        bottom rows, a right or top dof enters as minus the left or bottom
        dof it is the half-turn image of.
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
        # each A along x1 at B[0, 0]; the u1 and u2 terms double them.  Row
        # i of a tridiagonal line holds its bands at columns i-1, i, i+1
        lines = [2.0 * sum(wf * a[1, 0] * b[:, 1:n] for wf, a, b in terms),
                 2.0 * sum(wf * b[1, 0] * a[:, 1:n] for wf, a, b in terms)]
        band = np.arange(2 * nn).reshape(2, nn, 1)
        rows = np.broadcast_to(band, (2, nn, 3)).reshape(2, -1)[:, 1:-1]
        cols = (band + np.arange(-1, 2)).reshape(2, -1)[:, 1:-1]
        # left (0, n-1) meets top (1, n), the image of bottom (n-1, 0), and
        # bottom (n-1, 0) meets right (n, 1), that of left (0, n-1)
        r = np.concatenate([rows.ravel(), [0, nn, nn - 1, 2 * nn - 1]])
        c = np.concatenate([cols.ravel(), [nn, 0, 2 * nn - 1, nn - 1]])
        edges = [line.T.ravel()[1:-1] for line in lines]
        corners = [couple((0, 1), (1, 0)), couple((1, 0), (0, 1))]
        far = [couple((0, n - 1), (1, n)), couple((n - 1, 0), (n, 1))]
        v = np.concatenate(edges + [corners, np.negative(far)])
        ua, ub = self.unitary[1]
        rev = np.arange(2 * nn).reshape(2, nn)[:, ::-1].ravel()
        # (U x)_t = ua_t x_t + ub_t x_rev(t): each entry meets four
        left = [(r, ua[r].conj() * v), (rev[r], ub[r].conj() * v)]
        right = [(c, ua[c]), (rev[c], ub[c])]
        rows, cols, vals = (np.concatenate(z) for z in zip(*(
            (i, j, (a * b).real) for i, a in left for j, b in right)))
        return sp.coo_array((vals, (rows, cols)),
                            shape=(2 * nn, 2 * nn)).toarray(order="F")


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
    # the pair (t, N-1-t) of an edge of sign s, and its middle value
    low, mid = np.arange(nn) < nn // 2, np.arange(nn) == nn // 2
    signs = np.array([[-1.0], [1.0]])                       # left, bottom
    ua = np.where(low, 1.0, np.where(mid, np.sqrt(signs + 0j),
                                     -1j * signs)) / np.where(mid, 1.0,
                                                              np.sqrt(2))
    ub = np.where(low, 1j, np.where(mid, 0.0, signs)) / np.sqrt(2)
    plus = np.stack([ua, ub])
    minus = np.array([[-1j], [1.0]]) * plus[::-1, :, ::-1]  # diag(-i, 1) J U_+
    unitary = {1: plus.reshape(2, -1), -1: minus.reshape(2, -1)}
    # u1 of the summed mode of parity q is kept beside the free mode of
    # parity p when q p = -1; u2 enters the trace with conj(omega).  A
    # T-fixed trace line is sqrt(s p) times a real one: the left edge sums
    # the x1 modes k, whose coefficients carry i^[k odd], and the bottom
    # edge has i^[k odd] = sqrt(p_k) on its free mode
    same = np.array([[1.0], [-1.0]]) * parity
    root = np.sqrt(signs * parity + 0j)                     # (edge, mode)
    weight = np.stack([np.where(same == -1.0, 1.0, np.conj(OMEGA[edge]))
                       for edge in (LEFT, BOTTOM)])
    weight[0] *= np.array([[1.0], [1j]]) / root[0]
    if np.any(weight.imag):
        raise ConsistencyError("the trace weights are not real under T")
    # U_+^H V^-T diag(sqrt(s p)) per edge, real up to V's rounding
    vinv = vecs.T @ m_d
    emap = vinv.T[None] * root[:, None, :]
    emap = (ua.conj()[:, :, None] * emap
            + (ub.conj()[:, :, None] * emap)[:, ::-1])
    return _TensorBasis(
        n=n, vecs=vecs, lam=lam, parity=parity, ring=vecs[0],
        interior=interior, boundary=boundary, u1=np.outer(parity, parity) < 0,
        parts=np.stack([vecs[0] * (parity > 0), vecs[0] * (parity < 0)]),
        weight=weight.real, edge_map=np.ascontiguousarray(emap.real),
        unitary=unitary, lines=fm.lines,
    )


class _TensorInverse:
    """Exact inverse of one grid form ``q = weighted(fm, w)``, built from
    the weights ``w`` and the grid's 1D matrices alone.

    Fast diagonalisation inverts the interior blocks ``D``, where ``C``
    couples the u1 interior to the edge dofs and ``C Omega`` the u2
    interior.  The form commutes with the half turn, so it is block
    diagonal in the half-turn classes (``_TensorBasis``), and so is the
    boundary Schur complement ``S = Q_BB - C^T D^-1 C - Omega^H C^T D^-1 C
    Omega``: one (2N)-square block per class, on the left and bottom
    edges, in the class's real edge coordinates (the capacitance matrix of
    Buzbee, Dorr, George & Golub 1971, split by the classes of Bossavit
    1986).  The two blocks are one matrix, as the class coordinates are
    related by the charge conjugation, which commutes with the form; it is
    built once and closed by one real dense Cholesky factor ``chol``.
    ``C`` is separable edge by edge, and the right and top ring rows are
    the left and bottom ones times the parity ``p``, so the block is built
    from products of N-square matrices: the modal ring coupling of each
    edge pair, taken to the edge coordinates by the basis's edge maps.  The
    factor exists only when ``q`` is positive definite on both classes, of
    which it factors the block, so on the whole space, and building the
    inverse is also that check; the block of ``Q_BB`` describes the class
    only when the block between the classes vanishes, which the grid's
    reversal-symmetric 1D matrices guarantee
    (``FormMatrices._symmetry_certificate``).  A shifted form ``Q - sigma
    M`` is the form with weight ``w_M - sigma``.

    One implementation serves every use: ``class_solve`` is the inverse on
    either class in its real coordinates (the Schur steps, O(N^2) per
    column, and one half-size Cholesky solve).  The basis's forward and
    back transforms take nodal vectors to class coordinates and back, two
    O(N^3) products each.  ARPACK's class operator (``_ClassOperator``)
    iterates on the class solves and the ring coupling alone; the solver's
    inverse-iteration step uses ``plus_solve``, the class +1 solve between
    a forward and a back transform, and its residual check ``norms``, the
    class solves of both class parts after one forward transform.
    """

    def __init__(self, basis: _TensorBasis, w, name: str = "Q"):
        w1, w2, w3 = (float(x) for x in w[:3])
        lam = basis.lam
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

        # 2 C^T D^-1 C in the real edge coordinates: the modal ring coupling
        # of an edge, 2 alpha^2 (ring^2 @ D^-1) on its own modes and the
        # kernel between the left and bottom modes, taken to the coordinates
        # by the edge maps
        inv_delta = 1.0 / self.delta
        ring, (al, ab) = basis.ring, self.alpha
        (gl, gb), (wl, wb) = basis.edge_map, basis.weight
        bb = _gemm(gb * (2.0 * ab**2 * (inv_delta @ ring**2)), gb.T)
        ll = _gemm(gl * (2.0 * al**2 * (ring**2 @ inv_delta)), gl.T)
        nn = basis.n - 1
        parity = np.arange(nn) % 2
        # left mode l meets bottom mode k through the interior mode (k, l)
        kernel = np.outer(2.0 * al * ring, ab * ring) * inv_delta.T
        lb = _gemm(_gemm(gl, kernel * wl[parity].T * wb[parity]), gb.T)
        schur = basis.real_block(w)
        schur[:nn, :nn] -= ll
        schur[nn:, nn:] -= bb
        schur[:nn, nn:] -= lb
        schur[nn:, :nn] -= lb.T
        try:
            self.chol, _ = sla.cho_factor(schur, lower=True, overwrite_a=True,
                                          check_finite=False)
        except sla.LinAlgError as exc:
            raise ValueError(f"{name} is not positive definite") from exc

    def plus_solve(self, cols):
        """``P q^-1 cols`` for nodal columns ``cols`` (dim, k), ``P`` the
        projector onto class +1: the forward transform, the class +1 solve
        and the back transform."""
        parts = self.basis.forward(cols)
        return self.basis.back({1: self.class_solve(*parts[1])})

    def norms(self, cols):
        """The ``q^-1`` norm ``sqrt(cols^H q^-1 cols)`` of each nodal
        column, in class coordinates with no back transform.

        With ``(g, f)`` the class parts of ``cols`` and ``(w, x)`` their
        class solves, the interior contributes ``<g, w>``, since the modal
        coefficients ``V^T F V`` pair with ``V W V^T``, and the edges
        ``2 <f, x>``, since the right and top values are the left and
        bottom ones up to the class sign.  Both classes count, and both
        real columns of each nodal one: ``q^-1`` is real symmetric in the
        real coordinates, so the pair has no cross term.
        """
        total = 0.0
        for g, f in self.basis.forward(cols).values():
            w, x = self.class_solve(g, f)
            total = total + (np.einsum("iaj,iaj->a", g, w)
                             + 2.0 * np.einsum("ij,ij->j", f, x))
        return np.sqrt(np.abs(total.reshape(-1, 2).sum(1)))

    def class_solve(self, g, fb):
        """``q^-1`` on either class in its real coordinates: the class
        vector of the solution from the right-hand side ``(g, fb)``.

        Every step costs O(N^2) per column, plus the Cholesky solve.
        """
        basis, delta = self.basis, self.delta[:, None, :]
        # the edge equation S x = fb - C^T D^-1 g1 - Omega^H C^T D^-1 g2
        rhs = fb - basis.trace(self.alpha, g / delta)
        x, _ = sla.lapack.dpotrs(self.chol, rhs, lower=1)
        w = basis.lift(self.alpha, x)
        np.subtract(g, w, out=w)
        w /= delta
        return w, x


def _split(a):
    """The real and imaginary parts of the columns (axis 1) of ``a`` as
    two real columns each."""
    return np.stack([a.real, a.imag], axis=2).reshape(
        a.shape[0], -1, *a.shape[2:])


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

    Its 1D eigenbasis and Schur factor are M's positive-definiteness
    check.  Built on the first grid solve of that n, never during assembly,
    and shared by every later solve on the grid; its ``basis`` is the one
    every shifted inverse of the grid reads.
    """
    return _TensorInverse(_tensor_basis(assemble(build_grid(n))),
                          (0.0, 0.0, 1.0, 0.0, 0.0), "M")


class _ClassOperator:
    """ARPACK's class +1 operator, real symmetric: ``L^T (Q - sigma M)^-1
    L`` in the real class +1 coordinates of the tensor inverse
    (``_TensorBasis``), ``L L^T`` the Cholesky factorisation of ``M`` there.

    A vector holds the dense class +1 modal interior, u1 on one
    checkerboard of the eigenbasis and u2 on the other, and the left and
    bottom edge coordinates, whose images on the opposite edges follow from
    the class; it has half the length of a nodal vector, and the projector
    onto the class is implicit.  Since ``V^T M_D V = I`` and ``V^T K_D V =
    diag(lam)``, the interior block of ``M`` is the identity here and that
    of ``Q - sigma M`` is the diagonal ``delta``; both meet the edges only
    through the ring coupling ``B``.  So ``L = [[I, 0], [B^T, L_S]]``, with
    ``L_S`` the mass inverse's Cholesky factor of its Schur block (times
    sqrt2, for the doubled edges), the inverse is the shifted
    ``class_solve``, and every application costs O(N^2), two triangular
    products and one half-size Cholesky solve.  The operator is similar to
    ``(Q - sigma M)^-1 M`` on class +1, so it has the same eigenvalues
    ``1/(mu - sigma)``; only ARPACK's vectors pay ``L^-T`` and the back
    transform to nodal coordinates (``to_nodal``).
    """

    def __init__(self, shift: _TensorInverse, mass: _TensorInverse):
        self.shift, self.mass = shift, mass
        self.nn = nn = shift.basis.n - 1
        self.dim = nn * nn + 2 * nn
        self.factor = mass.chol             # lower triangle: L_S / sqrt2

    def apply(self, z):
        """``L^T (Q - sigma M)^-1 L z`` for one real class +1 vector."""
        nn, mass = self.nn, self.mass
        w = z[:nn * nn].reshape(nn, 1, nn)
        # L z, its edge rows halved as class_solve reads them
        x = (mass.basis.trace(mass.alpha, w)[:, 0] + _SQRT_HALF
             * sla.blas.dtrmv(self.factor, z[nn * nn:], lower=1))
        w, x = self.shift.class_solve(w, x[:, None])
        x = x[:, 0]
        w += mass.basis.lift(mass.alpha, x[:, None])
        return np.concatenate([w.ravel(), _SQRT_TWO * sla.blas.dtrmv(
            self.factor, x, lower=1, trans=1)])

    def to_nodal(self, z):
        """Complex nodal vectors of the real columns ``z`` (dim, k): the
        class +1 vectors ``L^-T z``, back-transformed."""
        nn, mass = self.nn, self.mass
        w = z[:nn * nn].reshape(nn, nn, -1).transpose(0, 2, 1)
        x, _ = sla.lapack.dtrtrs(self.factor, z[nn * nn:], lower=1, trans=1)
        x *= _SQRT_HALF
        w = w - mass.basis.lift(mass.alpha, x)
        return self.shift.basis.back({1: (_split(w), _split(x))})
