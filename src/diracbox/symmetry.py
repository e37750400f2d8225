"""Quarter-turn symmetry of the constrained spinor space.

The map

    (R u)(x1, x2) = (i * u1(-x2, x1), u2(-x2, x1))

rotates the square by 90 degrees while twisting the first spinor component
by ``i``; it preserves the infinite-mass boundary constraint exactly (the
edge factors transform into one another consistently), so on the even grid
it acts on reduced coordinates as a signed permutation, a gather with a
unit phase per dof: ``(R x)[k] = phase[k] * x[perm[k]]``.  Its fourth power
is the identity, it is an isometry of the mass inner product, and it
commutes with the square form, which makes the eigenspaces of the square
classifiable by an eigenvalue of ``R`` in ``{1, -1, i, -i}``; rectangles
retain the half-turn ``R^2`` with classes ``{1, -1}``.  Any field with
``R psi = omega psi``, |omega| = 1, has equal axis gradient norms and equal
boundary trace norms, which is what ``verify_norm_identities`` measures.

The antilinear charge conjugation ``C(u1, u2) = (conj u2, conj u1)``, the
discrete form of the lambda -> -lambda symmetry of the Dirac operator, also
preserves the constraint and commutes with every grid form.  It satisfies
``C R = -i R C``, so it swaps the half-turn classes; this is why every grid
eigenvalue is double, and the eigensolver takes the class -1 eigenvectors
as ``C`` of the class +1 ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bounds import sharp_lower
from .eigsolve import _solve_pencil
from .errors import ClusterResolutionError
from .formgrid import (
    CORNER,
    OMEGA,
    FormMatrices,
    SpinorField,
    build_grid,
    constraint_map,
    norm_parts,
    quotient,
    random_field,
    reconstruct,
    _check_weights,
)

__all__ = [
    "RotationMap",
    "SymmetryClass",
    "rotation_map",
    "rotate",
    "symmetrize",
    "rotation_deviation",
    "commutation_check",
    "ground_cluster",
    "classify_symmetry",
    "verify_norm_identities",
    "separability_residual",
]

FOURTH_ROOTS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


@dataclass(frozen=True)
class RotationMap:
    """Reduced-coordinate actions of the quarter turn ``R``, the half turn
    ``R^2`` and the charge conjugation ``C`` on an even grid, each a signed
    permutation: ``(R x)[k] = phase[k] * x[perm[k]]``, likewise ``R^2`` with
    ``half_perm`` and ``half_phase``, and ``C`` with ``conj_perm`` and
    ``conj_phase`` after a complex conjugation."""

    n: int
    perm: np.ndarray
    phase: np.ndarray
    half_perm: np.ndarray
    half_phase: np.ndarray
    conj_perm: np.ndarray
    conj_phase: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Quarter turn of a reduced vector or of a matrix's columns."""
        return _gather(self.perm, self.phase, values)

    def half_turn(self, values: np.ndarray) -> np.ndarray:
        """Half turn of a reduced vector or of a matrix's columns."""
        return _gather(self.half_perm, self.half_phase, values)

    def conjugate(self, values: np.ndarray) -> np.ndarray:
        """Charge conjugation of a reduced vector or of a matrix's columns."""
        return _gather(self.conj_perm, self.conj_phase, np.conj(values))


def _gather(perm: np.ndarray, phase: np.ndarray, values: np.ndarray):
    """``phase[k] * values[perm[k]]``, the phase broadcast over columns."""
    return phase.reshape((-1,) + (1,) * (values.ndim - 1)) * values[perm]


def _self_tested(n, perm, phase, conj_perm, conj_phase) -> RotationMap:
    """The map of ``R = (perm, phase)`` and ``C = (conj_perm, conj_phase)``,
    with ``R^2 = (perm[perm], phase * phase[perm])``, once the arrays pass
    exact identities: ``perm`` is a bijection with ``R^4 = I``, ``C^2 = I``
    and ``C R = -i R C``.  AssertionError otherwise, e.g. when the boundary
    classes do not map onto one another."""
    half, half_phase = perm[perm], phase * phase[perm]
    ident = np.arange(perm.size)
    if not (perm.min() >= 0 and np.array_equal(half[half], ident)
            and np.all(half_phase * half_phase[half] == 1.0)):
        raise AssertionError("quarter-turn action is not of order four")
    # (C^2 x)[k] = conj_phase[k] conj(conj_phase[conj_perm[k]]) x[...], and
    # C R and -i R C gather conj(x) at perm[conj_perm] and conj_perm[perm]
    if not (np.array_equal(conj_perm[conj_perm], ident)
            and np.all(conj_phase * np.conj(conj_phase[conj_perm]) == 1.0)
            and np.array_equal(perm[conj_perm], conj_perm[perm])
            and np.array_equal(conj_phase * np.conj(phase[conj_perm]),
                               -1j * phase * conj_phase[perm])):
        raise AssertionError("charge conjugation is not an involution "
                             "anticommuting with the half turn")
    return RotationMap(n=n, perm=perm, phase=phase, half_perm=half,
                       half_phase=half_phase, conj_perm=conj_perm,
                       conj_phase=conj_phase)


@lru_cache(maxsize=None)
def rotation_map(n: int) -> RotationMap:
    """Quarter-turn, half-turn and conjugation actions for grid size n
    (cached per n), built by index arithmetic on the constraint map and
    self-tested once (``_self_tested``).

    The charge conjugation ``C(u1, u2) = (conj u2, conj u1)`` keeps the
    boundary constraint: it swaps the two dofs of each interior node and
    maps an edge dof ``x`` to ``conj(omega) conj(x)``.  It commutes with
    every grid form, ``C^2 = I`` and ``C R = -i R C``, so ``C`` maps each
    half-turn class onto the other with the same eigenvalues.
    """
    cmap = constraint_map(n)
    free1, free2 = cmap.free1, cmap.free2
    has1, has2 = free1 >= 0, free2 >= 0
    # the value at node (i, j) comes from node (n - j, i)
    src1, src2 = free1[::-1].T, free2[::-1].T
    perm = np.full(cmap.ndof, -1)
    perm[free1[has1]], perm[free2[has2]] = src1[has1], src2[has2]
    # the phases are 1, -1, i and -i, which single precision holds exactly
    phase = np.full(cmap.ndof, 1j, dtype=np.complex64)      # i u1
    phase[free2[has2]] = 1.0                                 # u2

    conj = np.arange(cmap.ndof)
    conj[free1[has2]], conj[free2[has2]] = free2[has2], free1[has2]
    edge = has1 & ~has2
    omega = np.array([OMEGA.get(c, 0.0) for c in range(CORNER)])  # by class
    conj_phase = np.ones(cmap.ndof, dtype=np.complex64)
    conj_phase[free1[edge]] = np.conj(omega[cmap.node_class[edge]])
    return _self_tested(n, perm, phase, conj, conj_phase)


def rotate(psi: SpinorField) -> SpinorField:
    """Apply the quarter turn; exact permutation plus phase."""
    return SpinorField(rotation_map(psi.n).apply(psi.values), psi.n)


def symmetrize(psi: SpinorField, alpha: complex = 1.0 + 0.0j) -> SpinorField:
    """Project onto the alpha-eigenspace of the quarter turn.

    Averages ``conj(alpha)^k R^k psi`` over k = 0..3; the result satisfies
    ``R psi = alpha psi`` exactly up to rounding in the sums.
    """
    rot = rotation_map(psi.n)
    acc = psi.values.copy()
    cur = psi.values
    phase = 1.0 + 0.0j
    for _ in range(3):
        cur = rot.apply(cur)
        phase *= np.conj(alpha)
        acc += phase * cur
    return SpinorField(acc / 4.0, psi.n)


def _m_norm(fm: FormMatrices, values: np.ndarray) -> float:
    return float(np.sqrt(abs(np.real(np.vdot(values, fm.M @ values)))))


def rotation_deviation(fm: FormMatrices, psi: SpinorField):
    """Best unit factor alpha and the relative M-norm of R psi - alpha psi."""
    w = rotation_map(psi.n).apply(psi.values)
    nrm2 = np.real(np.vdot(psi.values, fm.M @ psi.values))
    alpha = complex(np.vdot(psi.values, fm.M @ w) / nrm2)
    if alpha != 0.0:
        alpha /= abs(alpha)
    dev = _m_norm(fm, w - alpha * psi.values) / np.sqrt(nrm2)
    return alpha, float(dev)


def commutation_check(fm: FormMatrices, a: float, m: float,
                      batch: int = 8, seed: int = 0) -> float:
    """Max relative quotient change under rotation for the square form.

    Exactly zero in exact arithmetic for b = a; returns the observed
    rounding-level deviation over a batch of seeded random fields.
    """
    worst = 0.0
    for i in range(batch):
        psi = random_field(build_grid(fm.n), seed=seed + i)
        q0 = quotient(fm, a, a, m, psi)
        q1 = quotient(fm, a, a, m, rotate(psi))
        worst = max(worst, abs(q0 - q1) / abs(q0))
    return worst


@dataclass(frozen=True)
class SymmetryClass:
    """One symmetry eigenvalue with a certified representative."""

    alpha: complex
    field: SpinorField
    deviation: float


def ground_cluster(fm: FormMatrices, a: float, b: float, m: float,
                   k: int = 4, tol: float = 1e-10, seed: int = 0):
    """The ``k`` lowest shifted eigenvalues and the ground cluster among them.

    Solves the (a, b, m) pencil without its ``m^2`` mass term for
    ``ceil(k/2)`` class +1 eigenpairs at the shift ``sharp_lower(a, b, m)``,
    takes their charge conjugates as the class -1 pairs, and returns
    ``(mus, cluster)``: the ``k`` lowest eigenvalues, ascending, and the
    ``(mu, psi)`` pairs among them within relative 1e-8 of the lowest,
    ready for :func:`classify_symmetry`.
    """
    a, b, m = _check_weights(a, b, m)
    sol = _solve_pencil(fm, (a**-2, b**-2, 0.0, m / a, m / b),
                        sharp_lower(a, b, m), (1, -1), -(-k // 2), tol, 500,
                        seed)
    mus = sol.mus[:k].tolist()
    cluster = [(mu, SpinorField(sol.vectors[:, i], fm.n))
               for i, mu in enumerate(mus)
               if (mu - mus[0]) <= 1e-8 * abs(mus[0])]
    return mus, cluster


def classify_symmetry(fm: FormMatrices, pairs, square: bool = True):
    """Classify an eigenvalue cluster by the (half-) quarter-turn action.

    ``pairs`` is a list of ``(mu, psi)`` forming one numerically resolved
    cluster with M-orthonormal eigenvectors on the grid of ``fm``; each
    ``psi`` is a SpinorField or a raw reduced vector.  Builds the matrix of
    ``R`` (or ``R^2`` when ``square`` is false) on the span, diagonalises it
    and returns one certified representative per symmetry eigenvalue, sorted
    by complex angle.  Raises ClusterResolutionError when the span is not
    invariant to tolerance, or the spectrum strays from the allowed roots
    of unity.
    """
    if not pairs:
        raise ValueError("empty cluster")
    mus = np.array([mu for mu, _ in pairs], dtype=float)
    spread = (mus.max() - mus.min()) / max(abs(mus.max()), 1e-300)
    if spread > 1e-8:
        raise ClusterResolutionError(
            f"eigenvalues do not form a cluster: relative spread {spread:.3e}")

    v = np.column_stack([getattr(p, "values", p) for _, p in pairs])
    rot = rotation_map(fm.n)
    op = rot.apply if square else rot.half_turn
    allowed = FOURTH_ROOTS if square else (1.0 + 0.0j, -1.0 + 0.0j)

    w = op(v)
    mv = fm.M @ v
    gram = v.conj().T @ mv
    coeff = np.linalg.solve(gram, v.conj().T @ (fm.M @ w))
    resid = w - v @ coeff
    for k in range(resid.shape[1]):
        rel = _m_norm(fm, resid[:, k]) / _m_norm(fm, w[:, k])
        if rel > 1e-6:
            raise ClusterResolutionError(
                f"cluster is not rotation-invariant: member {k} leaks "
                f"{rel:.3e} outside the span; increase k or tighten tol")

    alphas, cvecs = np.linalg.eig(coeff)
    out = []
    for idx in np.argsort(np.angle(alphas)):
        alpha = complex(alphas[idx])
        if min(abs(alpha - t) for t in allowed) > 1e-6:
            raise ClusterResolutionError(
                f"symmetry eigenvalue {alpha!r} is not an allowed root of unity")
        rep = v @ cvecs[:, idx]
        rep = rep / _m_norm(fm, rep)
        dev = _m_norm(fm, op(rep) - alpha * rep)
        if dev > 1e-6:
            raise ClusterResolutionError(
                f"representative for alpha={alpha!r} deviates by {dev:.3e}")
        out.append(SymmetryClass(alpha=alpha, field=SpinorField(rep, fm.n),
                                 deviation=float(dev)))
    return out


def verify_norm_identities(psi: SpinorField, fm: FormMatrices):
    """Relative mismatch of the axis gradient norms and of the trace norms."""
    g1, g2, mass, t1, t2 = norm_parts(fm, psi)
    scale = np.sqrt(mass)

    def rel(p, q):
        p, q = np.sqrt(max(p, 0.0)), np.sqrt(max(q, 0.0))
        top = max(p, q)
        if top <= 1e-14 * scale:
            return 0.0
        return abs(p - q) / top

    return rel(g1, g2), rel(t1, t2)


def separability_residual(psi: SpinorField):
    """Singular-value ratio sigma_2/sigma_1 of each nodal component matrix.

    A separable (rank-one) component gives zero; ``None`` marks a component
    that vanishes identically.
    """
    u1, u2 = reconstruct(psi)
    out = []
    scale = max(np.abs(u1).max(), np.abs(u2).max(), 1e-300)
    for comp in (u1, u2):
        s = np.linalg.svd(comp, compute_uv=False)
        if s[0] <= 1e-14 * scale:
            out.append(None)
        else:
            out.append(float(s[1] / s[0]))
    return tuple(out)
