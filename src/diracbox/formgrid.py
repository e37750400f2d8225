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

The elimination is a pair of index gathers: nodal values read the reduced
dofs, u2 scaled by the node's constraint factor, and the adjoint gather
takes them back; no projection matrix is formed.

The five forms realise the weighted squared-operator form

    |H_{a,b} psi|^2 = a^-2 psi*K1 psi + b^-2 psi*K2 psi + m^2 psi*M psi
                      + (m/a) psi*Tpar psi + (m/b) psi*Teq psi,

with ``Tpar``/``Teq`` the trace mass matrices of the vertical/horizontal
boundary pieces.  Each is ``P^H (A (x) B) P`` on each component, ``P``
the gather of the reduced dofs to nodal values and ``A``, ``B`` exact P1
matrices of the interval, so only those are stored and every form is
applied matrix-free, by tridiagonal sweeps over nodal arrays (Deville,
Fischer & Mund 2002).  The five scalar weights enter only at evaluation
time, through ``weighted`` for operators and ``weighted_quotient`` for
fields, so one assembly (built once per n and process) serves every
parameter point and every re-weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConsistencyError

__all__ = [
    "Grid",
    "ConstraintMap",
    "FormMatrices",
    "SpinorField",
    "build_grid",
    "constraint_map",
    "assemble",
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
    of freedom (-1 where eliminated) and ``factor`` its constraint factor,
    1 inside, ``omega`` on an edge and 0 at a corner: a reduced vector ``x``
    has nodal values ``u1 = x[free1]`` and ``u2 = factor * x[u2 dof]``, the
    u2 dof being ``free2`` inside and ``free1`` on an edge.  ``slots``
    holds the flat (node, component) slot of each dof, in dof order, and
    ``edges`` the flat index of each edge node.
    """

    n: int
    node_class: np.ndarray      # (n+1, n+1) int
    free1: np.ndarray           # (n+1, n+1) int, -1 if eliminated
    free2: np.ndarray           # (n+1, n+1) int, -1 if eliminated
    factor: np.ndarray          # (n+1, n+1) complex
    ndof: int
    slots: np.ndarray           # (ndof,) int
    edges: np.ndarray           # (4(n-1),) int


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
    factor = (cls == INTERIOR).astype(complex)
    for c, w in OMEGA.items():
        factor[cls == c] = w

    # Node-major ordering keeps the reduced matrices banded: each node's
    # dofs (none at a corner, u1 on an edge, u1 and u2 inside) follow those
    # of the nodes before it.
    count = (cls != CORNER).astype(np.int8) + (cls == INTERIOR)
    free1 = np.cumsum(count).reshape(count.shape) - count
    free2 = np.where(count == 2, free1 + 1, -1)
    free1[count == 0] = -1
    ndof = int(count.sum())
    if ndof != 2 * (n - 1) ** 2 + 4 * (n - 1):
        raise ConsistencyError(f"the {n}-cell grid numbers {ndof} dofs")
    return ConstraintMap(n=n, node_class=cls, free1=free1, free2=free2,
                         factor=factor, ndof=ndof, slots=np.flatnonzero(
                             np.stack([count > 0, count > 1], axis=-1)),
                         edges=np.flatnonzero(count == 1))


@dataclass(frozen=True)
class SpinorField:
    """Complex reduced-coordinate nodal vector on an n-cell grid."""

    values: np.ndarray
    n: int


# The five forms, each a pair (A, B) of 1D matrices, A along x1 and B along
# x2, indexing LINES: K1 = K (x) M, K2 = M (x) K, M = M (x) M, Tpar = T (x) M
# (the vertical edges) and Teq = M (x) T (the horizontal ones).
FORMS = ("K1", "K2", "M", "Tpar", "Teq")
LINES = ("stiffness", "mass", "trace")
_PAIRS = ((0, 1), (1, 0), (1, 1), (2, 1), (1, 2))


@dataclass(frozen=True)
class FormMatrices:
    """The five reduced Hermitian forms of the squared form on one grid,
    held as the 1D matrices they are built from.

    ``lines`` (3, 3, n+1) holds the P1 stiffness, mass and endpoint trace
    (``LINES``) in band form, ``lines[f, 1 + d, i] = A_f[i, i + d]`` for
    ``d = -1, 0, 1`` (zero outside the matrix).  Each form is ``P^H (A (x)
    B) P`` on each component, ``P`` the gather of ``reconstruct`` and
    ``(A, B)`` its pair of 1D matrices, so ``fm.K1`` ... ``fm.Teq`` and
    ``weighted`` apply it by tridiagonal sweeps over nodal arrays: no 2D
    matrix is formed.
    """

    n: int
    lines: np.ndarray = field(repr=False)

    # each form as the operator of unit weight (``weighted``)
    K1, K2, M, Tpar, Teq = (property(lambda fm, w=w: weighted(fm, w))
                            for w in np.eye(len(FORMS)))

    @property
    def ndof(self) -> int:
        return constraint_map(self.n).ndof

    @cached_property
    def _matrices(self):
        """The 1D matrices as sparse tridiagonals, for the sweeps."""
        return tuple(_tridiagonal(bands) for bands in self.lines)

    @cached_property
    def _symmetry_certificate(self) -> bool:
        """True once each 1D matrix is checked real, symmetric and
        reversal-symmetric bit for bit (once, on the first solve).

        Every real-weighted form is then Hermitian, as A and B are
        symmetric; it commutes with the charge conjugation ``C``, which
        swaps and conjugates the nodal components up to the unit edge
        factors while one real operator acts on both, and with the half
        turn, which reverses both axes.  ValueError for a matrix that is
        not symmetric, ConsistencyError for one that is not real or not
        reversal-symmetric, naming the forms that read it.
        """
        for index, (name, bands) in enumerate(zip(LINES, self.lines)):
            users = [f for f, pair in zip(FORMS, _PAIRS) if index in pair]
            forms = ", ".join(users[:-1]) + " and " + users[-1]
            if np.iscomplexobj(bands) and bands.imag.any():
                raise ConsistencyError(
                    f"the 1D {name} matrix is not real, so {forms} do not "
                    "commute with the charge conjugation; the pencil lacks "
                    "the symmetry")
            if not np.array_equal(bands[0, 1:], bands[2, :-1]):
                raise ValueError(f"the 1D {name} matrix is not symmetric, so "
                                 f"{forms} are not Hermitian")
            if not np.array_equal(bands, bands[::-1, ::-1]):
                raise ConsistencyError(
                    f"the 1D {name} matrix is not reversal-symmetric, so "
                    f"{forms} do not commute with the half turn; the pencil "
                    "lacks the symmetry")
        return True


def _lines(n: int) -> np.ndarray:
    """Exact P1 stiffness, mass and endpoint-trace matrices on n unit-span
    cells, in the band form of ``FormMatrices.lines``.

    The interval is (-1/2, 1/2), h = 1/n:
      stiffness tridiag(-1/h, 2/h, -1/h), halved diagonal at the ends,
      mass      tridiag(h/6, 2h/3, h/6), halved diagonal at the ends,
      trace     selector of the two endpoint nodes.
    """
    h = 1.0 / n
    lines = np.zeros((3, 3, n + 1))
    lines[0, 1], lines[0, [0, 2]] = 2.0 / h, -1.0 / h
    lines[1, 1], lines[1, [0, 2]] = 2.0 * h / 3.0, h / 6.0
    lines[:, 1, [0, -1]] = [[1.0 / h], [h / 3.0], [1.0]]
    lines[:, 0, 0] = lines[:, 2, -1] = 0.0
    return lines


@lru_cache(maxsize=None)
def assemble(grid: Grid) -> FormMatrices:
    """The five reduced forms of one grid (cached per n): its 1D matrices.

    Scalar 2D forms are tensor (Kronecker) products of the exact 1D element
    matrices; the trace forms pair an endpoint selector along the
    constrained axis with the 1D mass matrix along the edge.
    """
    return FormMatrices(n=grid.n, lines=_lines(grid.n))


# The range of the sides and of their ratio: inside it the eigenvalue, its
# residual and the closed-form bounds stay normal floats, where at sides of
# 2^500 a record's residual is already subnormal.
SIDE_RANGE = (2.0**-480, 2.0**480)


def _check_weights(a: float, b: float, m: float):
    a, b, m = float(a), float(b), float(m)
    if not (np.isfinite(a) and a > 0.0) or not (np.isfinite(b) and b > 0.0):
        raise ValueError(f"side lengths must be finite and > 0, got {a!r}, {b!r}")
    lo, hi = SIDE_RANGE
    if not (lo <= a <= hi and lo <= b <= hi and lo <= a / b <= hi):
        raise ValueError(f"side lengths {a!r}, {b!r} and their ratio must "
                         "lie in [2**-480, 2**480]")
    if not np.isfinite(m) or m < 0.0:
        raise ValueError(f"mass must be finite and >= 0, got {m!r}")
    if not np.isfinite(m * m):
        raise ValueError(f"mass {m!r} is too large: its square overflows")
    return a, b, m


def _rectangle_weights(a: float, b: float, m: float):
    """Form weights of the (a, b, m) rectangle without its exact ``m^2 M``
    shift: ``(a^-2, b^-2, 0, m/a, m/b)``."""
    return (a**-2, b**-2, 0.0, m / a, m / b)


def weighted(fm: FormMatrices, w) -> spla.LinearOperator:
    """Weighted sum w_K1 K1 + w_K2 K2 + w_M M + w_Tpar Tpar + w_Teq Teq, as
    an operator on reduced vectors; ValueError unless the weights are five
    real numbers."""
    w = np.asarray(w)
    if w.shape != (len(FORMS),) or np.iscomplexobj(w) and w.imag.any():
        raise ValueError(f"the form weights must be {len(FORMS)} real "
                         f"numbers, got {w!r}")
    w = w.real.astype(float)

    def apply(x):
        return _products(fm, x, w)[0]

    return spla.LinearOperator((fm.ndof,) * 2, matvec=apply, matmat=apply,
                               dtype=complex)


def _products(fm: FormMatrices, x, *weights):
    """The products ``weighted(fm, w) @ x`` for each ``w`` in ``weights``,
    of the reduced columns ``x`` (ndof, k), from one gather.

    The weighted form is ``A (x) M + M (x) B`` on each component, with
    ``A = w_K1 K + w_M M + w_Tpar T`` and ``B = w_K2 K + w_Teq T``: after
    the mass sweep along x2 that every form shares, one sweep along x1, or
    three when ``B`` does not vanish, then the adjoint gather.
    """
    cmap = constraint_map(fm.n)
    stiff, mass, trace = fm.lines
    u = _nodal(cmap, x)
    um = _along_x2(mass, u)
    out = []
    for w in weights:
        y = sum((wi * (mat @ um) for wi, mat in zip(
            (w[0], w[2], w[3]), fm._matrices) if wi != 0.0), np.zeros_like(um))
        along = w[1] * stiff + w[4] * trace
        if along.any():
            y += fm._matrices[1] @ _along_x2(along, u)
        out.append(_reduced(cmap, y).reshape(x.shape))
    return out


def norm_parts(fm: FormMatrices, psi: SpinorField):
    """Squared norms (|d1 psi|^2, |d2 psi|^2, |psi|^2, |trace_par|^2,
    |trace_eq|^2): the five quadratic forms ``<u, (A (x) B) u>`` on the
    nodal arrays ``u`` of ``psi``."""
    u = _nodal(constraint_map(fm.n), psi.values)
    # <u, A_x1 B_x2 u> = <A^T_x1 u, B_x2 u>
    x1 = [mat.T @ u for mat in fm._matrices]
    x2 = [_along_x2(bands, u) for bands in fm.lines]
    return tuple(float(np.vdot(x1[a], x2[b])) for a, b in _PAIRS)


def _nodal(cmap: ConstraintMap, x) -> np.ndarray:
    """The nodal values ``P x`` of reduced columns ``x`` (ndof, k) as one
    real array (n+1, (n+1) 4k), rows along x1, each node holding u1 then u2
    of each column, real and imaginary parts interleaved: the dofs fill
    their slots, and an edge node's u2 is its factor times its u1."""
    x = np.asarray(x).reshape(cmap.ndof, -1)
    u = np.zeros(((cmap.n + 1) ** 2, 2, x.shape[1]), dtype=complex)
    u.reshape(-1, x.shape[1])[cmap.slots] = x
    edges = cmap.edges
    u[edges, 1] = cmap.factor.ravel()[edges, None] * u[edges, 0]
    return u.reshape(cmap.n + 1, -1).view(float)


def _reduced(cmap: ConstraintMap, y: np.ndarray) -> np.ndarray:
    """The adjoint gather ``P^H`` of nodal arrays laid out as by
    ``_nodal``, which it overwrites: an edge dof takes its u1 value plus
    ``conj(omega)`` times its u2 value."""
    u = y.view(complex).reshape((cmap.n + 1) ** 2, 2, -1)
    edges = cmap.edges
    u[edges, 0] += cmap.factor.ravel()[edges, None].conj() * u[edges, 1]
    return u.reshape(-1, u.shape[2])[cmap.slots]


def _tridiagonal(bands: np.ndarray) -> sp.csr_array:
    """The 1D matrix of ``bands`` as a sparse tridiagonal, which acts along
    x1 on nodal arrays from the left."""
    n1 = bands.shape[1]
    indices = (np.arange(n1)[:, None] + np.arange(-1, 2)).ravel()[1:-1]
    indptr = np.r_[0, np.arange(2, 3 * n1 - 1, 3), 3 * n1 - 2]
    return sp.csr_array((bands.T.ravel()[1:-1], indices, indptr),
                        shape=(n1, n1))


def _along_x2(bands: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The 1D matrix of ``bands`` applied along x2 of the nodal arrays
    ``u``, whose x2 neighbours lie one node's lanes apart in a row."""
    lanes = u.shape[1] // bands.shape[1]
    lower, diag, upper = np.repeat(bands, lanes, axis=1)
    y = u * diag
    t = u[:, :-lanes] * lower[lanes:]
    y[:, lanes:] += t
    np.multiply(u[:, lanes:], upper[:-lanes], out=t)
    y[:, :-lanes] += t
    return y


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


def reconstruct(psi: SpinorField):
    """Full nodal component arrays (U1, U2), each (n+1, n+1), gathered from
    the reduced vector by ``_nodal``: ``U1 = x[free1]`` and ``U2 = factor *
    x[u2 dof]``, zero at the corners.  ValueError for values that do not
    fit the dofs of the field's grid."""
    cmap = constraint_map(psi.n)
    if psi.values.shape != (cmap.ndof,):
        raise ValueError(f"field of shape {psi.values.shape} does not match "
                         f"the {cmap.ndof} dofs of the {cmap.n}-cell grid")
    u = _nodal(cmap, psi.values).view(complex)
    # +0.0 leaves no negative zero, from the factor products or the field
    return u[:, 0::2] + 0.0, u[:, 1::2] + 0.0
