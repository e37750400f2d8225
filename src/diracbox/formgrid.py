"""Conforming tensor-grid discretisation of the squared Dirac form.

Everything lives on the reference square ``(-1/2, 1/2)^2``.  A spinor field
has two complex components ``(u1, u2)`` sampled at the nodes of a uniform
``n x n`` cell grid and interpolated with tensor-product piecewise-linear
(bilinear) elements.  The infinite-mass boundary condition couples the
components along each boundary edge,

    u2 = omega * u1,   omega(top) = -1, omega(bottom) = +1,
                       omega(right) = +i, omega(left) = -i,

and is eliminated from the degrees of freedom: interior nodes keep both
components, boundary edge nodes keep only ``u1``, and corner nodes (where
the two adjacent constraints are jointly satisfiable only by zero) carry no
degrees of freedom.  Because the constraint factors are constant per edge
and traces of bilinear functions are piecewise linear along edges, every
reduced vector reconstructs to a field satisfying the boundary condition
exactly, so the discrete space is a subspace of the true form domain and
discrete minima over-estimate the continuum ones.

The five matrices assembled here realise the weighted squared-operator form

    |H_{a,b} psi|^2 = a^-2 psi*K1 psi + b^-2 psi*K2 psi + m^2 psi*M psi
                      + (m/a) psi*Tpar psi + (m/b) psi*Teq psi,

with ``Tpar``/``Teq`` the trace mass matrices of the vertical/horizontal
boundary pieces.  All element integrals are exact closed forms; the five
scalar weights enter only at evaluation time, through ``weighted`` for
matrices and ``weighted_quotient`` for fields, so one assembly (built once
per n and process) serves every parameter point and every re-weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import ConsistencyError

__all__ = [
    "Grid",
    "ConstraintMap",
    "FormMatrices",
    "FormMatrices1D",
    "SpinorField",
    "build_grid",
    "constraint_map",
    "assemble",
    "assemble_1d",
    "weighted",
    "quotient",
    "parts_quotient",
    "weighted_quotient",
    "norm_parts",
    "trial_dirichlet",
    "random_field",
    "reconstruct",
]

# Node classes.
INTERIOR = 0
TOP = 1
BOTTOM = 2
LEFT = 3
RIGHT = 4
CORNER = 5

# Boundary constraint factor u2 = omega * u1 per edge class, from
# u2 = i*(n1 + i*n2)*u1 with the outward unit normal (n1, n2).
OMEGA = {TOP: -1.0 + 0.0j, BOTTOM: 1.0 + 0.0j, RIGHT: 1.0j, LEFT: -1.0j}


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on the reference square, n cells per axis."""

    n: int

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return -0.5 + np.arange(self.n + 1) / self.n


def build_grid(n: int) -> Grid:
    """Validated grid; n must be an even integer >= 4.

    Evenness keeps the node set invariant under the quarter-turn and
    x -> -x maps used by the symmetry analysis.
    """
    if int(n) != n or n < 4 or n % 2 != 0:
        raise ValueError(f"grid size must be an even integer >= 4, got {n!r}")
    return Grid(int(n))


@dataclass(frozen=True)
class ConstraintMap:
    """Bookkeeping for the eliminated boundary constraint.

    ``free1``/``free2`` hold the reduced index of each node's u1/u2 degree
    of freedom (-1 where eliminated).  ``basis1``/``basis2`` map reduced
    vectors to full nodal component values; conjugate-transposing them maps
    full matrices to reduced ones.
    """

    n: int
    node_class: np.ndarray      # (n+1, n+1) int
    free1: np.ndarray           # (n+1, n+1) int, -1 if eliminated
    free2: np.ndarray           # (n+1, n+1) int, -1 if eliminated
    ndof: int
    basis1: sp.csr_matrix = field(repr=False)
    basis2: sp.csr_matrix = field(repr=False)


def _classify_nodes(n: int) -> np.ndarray:
    cls = np.full((n + 1, n + 1), INTERIOR, dtype=np.int8)
    cls[:, n] = TOP
    cls[:, 0] = BOTTOM
    cls[0, :] = LEFT
    cls[n, :] = RIGHT
    for i, j in ((0, 0), (0, n), (n, 0), (n, n)):
        cls[i, j] = CORNER
    return cls


@lru_cache(maxsize=None)
def constraint_map(n: int) -> ConstraintMap:
    """Constraint bookkeeping for an even n-cell grid (cached per n)."""
    build_grid(n)
    cls = _classify_nodes(n)
    omega = np.zeros((n + 1, n + 1), dtype=complex)
    for c, w in OMEGA.items():
        omega[cls == c] = w

    # Node-major ordering keeps the reduced matrices banded: each node's
    # dofs (none at a corner, u1 on an edge, u1 and u2 inside) follow those
    # of the nodes before it.
    count = (cls != CORNER).astype(np.int8) + (cls == INTERIOR)
    free1 = np.cumsum(count).reshape(n + 1, n + 1) - count
    free2 = np.where(count == 2, free1 + 1, -1)
    free1[count == 0] = -1
    ndof = int(count.sum())
    assert ndof == 2 * (n - 1) ** 2 + 4 * (n - 1)

    nn = (n + 1) * (n + 1)
    node_index = np.arange(nn).reshape(n + 1, n + 1)

    mask1 = free1 >= 0
    rows1 = node_index[mask1]
    cols1 = free1[mask1]
    data1 = np.ones(rows1.size, dtype=complex)
    basis1 = sp.csr_matrix((data1, (rows1, cols1)), shape=(nn, ndof))

    mask_int = free2 >= 0
    rows2 = np.concatenate([node_index[mask_int], node_index[~mask_int & mask1]])
    cols2 = np.concatenate([free2[mask_int], free1[~mask_int & mask1]])
    data2 = np.concatenate(
        [np.ones(mask_int.sum(), dtype=complex), omega[~mask_int & mask1]]
    )
    basis2 = sp.csr_matrix((data2, (rows2, cols2)), shape=(nn, ndof))

    return ConstraintMap(
        n=n, node_class=cls, free1=free1, free2=free2,
        ndof=ndof, basis1=basis1, basis2=basis2,
    )


@dataclass(frozen=True)
class SpinorField:
    """Complex reduced-coordinate nodal vector on an n-cell grid."""

    values: np.ndarray
    n: int


@dataclass(frozen=True)
class FormMatrices:
    """The five reduced Hermitian matrices of the squared form.

    K1, K2 and M share one sparsity pattern, the 3 x 3 node stencil, and
    the trace matrices Tpar and Teq lie inside it.
    """

    n: int
    K1: sp.csr_matrix = field(repr=False)
    K2: sp.csr_matrix = field(repr=False)
    M: sp.csr_matrix = field(repr=False)
    Tpar: sp.csr_matrix = field(repr=False)
    Teq: sp.csr_matrix = field(repr=False)

    @property
    def ndof(self) -> int:
        return self.M.shape[0]

    @cached_property
    def _trace_positions(self):
        """Positions of the Tpar and Teq entries in the data of the pattern
        that K1, K2 and M share (computed once); ValueError unless the
        three share one canonical pattern that holds both traces."""
        for name, mat in (("K1", self.K1), ("K2", self.K2)):
            if not (np.array_equal(mat.indptr, self.M.indptr)
                    and np.array_equal(mat.indices, self.M.indices)):
                raise ValueError(f"{name} and M differ in sparsity pattern")
        keys = _entry_keys(self.M)
        positions = []
        for name, mat in (("Tpar", self.Tpar), ("Teq", self.Teq)):
            want = _entry_keys(mat)
            at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
            if not np.array_equal(keys[at], want):
                raise ValueError(f"{name} lies outside the pattern of K1, "
                                 "K2 and M")
            positions.append(at)
        return tuple(positions)

    @cached_property
    def _symmetry_certificate(self) -> bool:
        """True once each of the five matrices is checked Hermitian and
        found to commute exactly with the charge conjugation ``C`` of
        ``symmetry.rotation_map`` (computed once, on the first solve).

        Every form with real weights is then Hermitian and commutes exactly
        with ``C`` too: ``weighted`` does the same arithmetic on an entry
        and on its image.  ``C A = A C`` reads ``A[k, l] = phase_k
        conj(phase_l) conj(A[perm_k, perm_l])`` and ``A = A^H`` reads
        ``A[k, l] = conj(A[l, k])``, so the check reads the data arrays
        through the positions of the images, once per pattern (the shared
        one and each trace's).  A matrix that is not Hermitian bit for bit
        goes to ``_check_hermitian``: ValueError unless it is Hermitian to
        1e-12 of its largest entry.  ConsistencyError for a matrix that does
        not commute with ``C`` bit for bit or whose pattern ``C`` does not
        keep.
        """
        from .symmetry import rotation_map  # symmetry imports this module

        self._trace_positions               # checks the shared pattern
        rot = rotation_map(self.n)
        perm, phase = rot.conj_perm, rot.conj_phase
        for group in ((("K1", self.K1), ("K2", self.K2), ("M", self.M)),
                      (("Tpar", self.Tpar),), (("Teq", self.Teq),)):
            pattern = group[-1][1]
            at = _image_positions(pattern, lambda pos: pos[perm][:, perm])
            weight = np.repeat(phase, np.diff(pattern.indptr))
            weight *= phase.conj()[pattern.indices]
            transpose = _image_positions(pattern, lambda pos: pos.T)
            for name, mat in group:
                if not _is_image(mat.data, transpose):
                    _check_hermitian(name, mat)
                if not _is_image(mat.data, at, weight):
                    dev = (np.inf if at is None else np.abs(
                        mat.data - weight * mat.data[at].conj()).max())
                    raise ConsistencyError(
                        f"{name} does not commute with the charge "
                        f"conjugation (deviation {dev:.3e}); the pencil "
                        "lacks the symmetry")
        return True


def _is_image(data, at, weight=1.0) -> bool:
    """Whether ``data`` equals ``weight * conj(data[at])`` bit for bit,
    ``at`` holding the position of each entry's image (False for None)."""
    if at is None:
        return False
    image = data[at]
    np.conjugate(image, out=image)
    image *= weight
    return np.array_equal(image, data)


def _image_positions(mat: sp.csr_matrix, image):
    """Position in the data of ``mat`` of the image of each stored entry
    under ``image``, a map of sparse matrices that moves entries (the
    transpose, a permutation); None unless the image of the pattern is the
    pattern itself."""
    pos = image(sp.csr_matrix((np.arange(1, mat.nnz + 1, dtype=np.int32),
                               mat.indices, mat.indptr),
                              shape=mat.shape)).tocsr()
    pos.sort_indices()
    if not (np.array_equal(pos.indptr, mat.indptr)
            and np.array_equal(pos.indices, mat.indices)):
        return None
    return pos.data - 1


def _entry_keys(mat: sp.csr_matrix) -> np.ndarray:
    """Row-major key of each stored entry; ValueError unless they strictly
    increase (sorted indices, no duplicates)."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    keys = rows * mat.shape[1] + mat.indices
    if not np.all(keys[1:] > keys[:-1]):
        raise ValueError("form matrix is not in canonical CSR form")
    return keys


@dataclass(frozen=True)
class FormMatrices1D:
    """1D analogue: interval stiffness, mass and endpoint trace."""

    n: int
    K: sp.csr_matrix = field(repr=False)
    M: sp.csr_matrix = field(repr=False)
    T: sp.csr_matrix = field(repr=False)

    @property
    def ndof(self) -> int:
        return self.M.shape[0]


def _matrices_1d(n: int):
    """Exact P1 mass/stiffness/endpoint-trace matrices on n unit-span cells.

    The interval is (-1/2, 1/2), h = 1/n:
      mass      tridiag(h/6, 2h/3, h/6), halved diagonal at the ends,
      stiffness tridiag(-1/h, 2/h, -1/h), halved diagonal at the ends,
      trace     selector of the two endpoint nodes.
    """
    h = 1.0 / n
    main_m = np.full(n + 1, 2.0 * h / 3.0)
    main_m[0] = main_m[-1] = h / 3.0
    off_m = np.full(n, h / 6.0)
    mass = sp.diags_array([off_m, main_m, off_m], offsets=[-1, 0, 1])

    main_k = np.full(n + 1, 2.0 / h)
    main_k[0] = main_k[-1] = 1.0 / h
    off_k = np.full(n, -1.0 / h)
    stiff = sp.diags_array([off_k, main_k, off_k], offsets=[-1, 0, 1])

    sel = np.zeros(n + 1)
    sel[0] = sel[-1] = 1.0
    trace = sp.diags_array([sel], offsets=[0])
    return sp.csr_matrix(stiff), sp.csr_matrix(mass), sp.csr_matrix(trace)


def _hermitize(a: sp.spmatrix) -> sp.csr_matrix:
    out = (a + a.conjugate().transpose()) * 0.5
    out = sp.csr_matrix(out)
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _reduce(full: sp.spmatrix, cmap: ConstraintMap) -> sp.csr_matrix:
    """Project a per-component scalar matrix to reduced spinor coordinates."""
    b1, b2 = cmap.basis1, cmap.basis2
    red = (b1.getH() @ full @ b1) + (b2.getH() @ full @ b2)
    return _hermitize(red)


@lru_cache(maxsize=None)
def assemble(grid: Grid) -> FormMatrices:
    """Assemble the five reduced matrices for one grid (cached per n).

    Scalar 2D matrices are tensor (Kronecker) products of the exact 1D
    element matrices; the trace matrices pair an endpoint selector along
    the constrained axis with the 1D mass matrix along the edge.
    """
    n = grid.n
    cmap = constraint_map(n)
    k1d, m1d, t1d = _matrices_1d(n)

    kx = sp.kron(k1d, m1d, format="csr")
    ky = sp.kron(m1d, k1d, format="csr")
    mm = sp.kron(m1d, m1d, format="csr")
    tv = sp.kron(t1d, m1d, format="csr")   # x1 = +-1/2, vertical pieces
    th = sp.kron(m1d, t1d, format="csr")   # x2 = +-1/2, horizontal pieces

    return FormMatrices(
        n=n,
        K1=_reduce(kx, cmap),
        K2=_reduce(ky, cmap),
        M=_reduce(mm, cmap),
        Tpar=_reduce(tv, cmap),
        Teq=_reduce(th, cmap),
    )


def assemble_1d(n: int) -> FormMatrices1D:
    """1D spinor problem with endpoint constraints phi2 = +-i phi1 eliminated.

    Reduced layout: one dof per endpoint, two per interior node, node-major.
    """
    build_grid(n)
    k1d, m1d, t1d = _matrices_1d(n)
    npts = n + 1
    ndof = 2 * (n - 1) + 2

    rows1, cols1, data1 = [], [], []
    rows2, cols2, data2 = [], [], []
    k = 0
    for p in range(npts):
        if p == 0 or p == n:
            w = -1.0j if p == 0 else 1.0j
            rows1.append(p); cols1.append(k); data1.append(1.0)
            rows2.append(p); cols2.append(k); data2.append(w)
            k += 1
        else:
            rows1.append(p); cols1.append(k); data1.append(1.0)
            k += 1
            rows2.append(p); cols2.append(k); data2.append(1.0)
            k += 1
    assert k == ndof
    b1 = sp.csr_matrix((np.asarray(data1, dtype=complex), (rows1, cols1)),
                       shape=(npts, ndof))
    b2 = sp.csr_matrix((np.asarray(data2, dtype=complex), (rows2, cols2)),
                       shape=(npts, ndof))

    def red(a):
        return _hermitize((b1.getH() @ a @ b1) + (b2.getH() @ a @ b2))

    return FormMatrices1D(n=n, K=red(k1d), M=red(m1d), T=red(t1d))


def _check_weights(a: float, b: float, m: float):
    a, b, m = float(a), float(b), float(m)
    if not (np.isfinite(a) and a > 0.0) or not (np.isfinite(b) and b > 0.0):
        raise ValueError(f"side lengths must be finite and > 0, got {a!r}, {b!r}")
    if not np.isfinite(m) or m < 0.0:
        raise ValueError(f"mass must be finite and >= 0, got {m!r}")
    return a, b, m


def weighted(fm: FormMatrices, w) -> sp.csr_matrix:
    """Weighted sum w_K1 K1 + w_K2 K2 + w_M M + w_Tpar Tpar + w_Teq Teq.

    The data arrays are summed on the pattern K1, K2 and M share, term by
    term in that order with zero weights skipped, and the trace terms are
    added at their cached positions: the same arithmetic as the sum of the
    sparse terms, bit for bit, entries that cancel to zero dropped.
    """
    positions = fm._trace_positions         # checks the shared pattern
    data = None
    for wi, mat in zip(w[:3], (fm.K1, fm.K2, fm.M)):
        if wi != 0.0:
            if data is None:
                data = wi * mat.data
            else:
                data += wi * mat.data
    if data is None:
        data = np.zeros(fm.M.nnz, dtype=complex)
    for wi, mat, at in zip(w[3:], (fm.Tpar, fm.Teq), positions):
        if wi != 0.0:
            data[at] += wi * mat.data
    q = sp.csr_matrix((data, fm.M.indices.copy(), fm.M.indptr.copy()),
                      shape=fm.M.shape)
    if not data.all():
        q.eliminate_zeros()
    return q


def norm_parts(fm: FormMatrices, psi: SpinorField):
    """Squared norms (|d1 psi|^2, |d2 psi|^2, |psi|^2, |trace_par|^2, |trace_eq|^2)."""
    v = psi.values
    def quad(mat):
        return float(np.real(np.vdot(v, mat @ v)))
    return (quad(fm.K1), quad(fm.K2), quad(fm.M), quad(fm.Tpar), quad(fm.Teq))


def weighted_quotient(fm: FormMatrices, w, psi: SpinorField) -> float:
    """Rayleigh quotient of the ``w``-weighted form against the mass matrix."""
    return _weighted_parts_quotient(w, norm_parts(fm, psi))


def _weighted_parts_quotient(w, parts) -> float:
    if parts[2] <= 0.0:
        raise ValueError("quotient of a zero field is undefined")
    return float(np.dot(w, parts)) / parts[2]


def quotient(fm: FormMatrices, a: float, b: float, m: float,
             psi: SpinorField) -> float:
    """Rayleigh quotient of the (a, b, m) squared form against the mass matrix."""
    return parts_quotient(a, b, m, norm_parts(fm, psi))


def parts_quotient(a: float, b: float, m: float, parts) -> float:
    """``quotient`` of a field from its ``norm_parts``, so that a fixed
    field's parts serve every parameter point."""
    a, b, m = _check_weights(a, b, m)
    return _weighted_parts_quotient((a**-2, b**-2, m**2, m / a, m / b), parts)


def trial_dirichlet(grid: Grid) -> SpinorField:
    """Nodal interpolant of cos(pi x1) cos(pi x2) * (1, 0).

    Boundary degrees of freedom are left exactly zero, so the field
    vanishes on the whole boundary and satisfies the constraint trivially.
    """
    cmap = constraint_map(grid.n)
    x = grid.nodes
    profile = np.cos(np.pi * x)[:, None] * np.cos(np.pi * x)[None, :]
    vals = np.zeros(cmap.ndof, dtype=complex)
    mask = (cmap.node_class == INTERIOR)
    vals[cmap.free1[mask]] = profile[mask]
    return SpinorField(vals, grid.n)


def random_field(grid: Grid, seed: int = 0) -> SpinorField:
    """Seeded complex standard-normal reduced field."""
    cmap = constraint_map(grid.n)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(cmap.ndof) + 1j * rng.standard_normal(cmap.ndof)
    return SpinorField(vals, grid.n)


def reconstruct(psi: SpinorField, cmap: ConstraintMap | None = None):
    """Full nodal component arrays (U1, U2), each (n+1, n+1)."""
    cmap = cmap or constraint_map(psi.n)
    npts = cmap.n + 1
    u1 = np.asarray((cmap.basis1 @ psi.values)).reshape(npts, npts)
    u2 = np.asarray((cmap.basis2 @ psi.values)).reshape(npts, npts)
    return u1, u2


def _check_hermitian(name, mat):
    """ValueError unless ``max |mat - mat^H| <= 1e-12 max |mat|``."""
    if sp.issparse(mat):
        anti = abs(mat - mat.getH())
        dev = anti.max() if anti.nnz else 0.0
    else:
        mat = np.asarray(mat)
        dev = np.abs(mat - mat.conj().T).max()
    if dev > 1e-12 * max(abs(mat).max(), 1e-300):
        raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e})")
