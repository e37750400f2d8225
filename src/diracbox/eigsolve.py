"""Smallest-eigenpair solver for the Hermitian pencil and the lambda_1 driver.

The generalized problem ``Q psi = mu M psi`` with Hermitian positive-definite
``Q`` and ``M`` is solved by shift-invert: ARPACK iterates an operator
similar to ``(Q - sigma M)^-1 M`` in standard mode for its largest
eigenvalues ``1/(mu - sigma)``, from a deterministic seeded start vector,
and a Rayleigh-Ritz step on the unshifted pencil makes its vectors
M-orthonormal.

Every grid solve (``lambda1_2d``, ``ground_cluster`` and
``jopt.euler_solve``) goes through ``_solve_pencil(fm, w, k, tol,
seed)``, which returns the k lowest eigenpairs of class +1.  Every
eigenvalue of a grid pencil is double, one of each pair in each class
``beta = +1, -1`` of the half turn ``R^2`` (``symmetry.rotation_map``),
which commutes with every grid form.  The projector ``P = (I + R^2)/2``
keeps ARPACK inside class +1, where the ground eigenvalue is simple, so one
run with k = 1 and a Krylov space of ``NCV`` vectors serves the whole solve
(Ericsson & Ruhe 1980 for the spectral transformation, Bossavit 1986 for
the symmetry classes).  The other class needs no run: the charge
conjugation ``C(u1, u2) = (conj u2, conj u1)``, the discrete form of the
lambda -> -lambda symmetry of the Dirac operator, commutes with the pencil
and anticommutes with ``R^2``, and it is an M^-1 isometry, so ``C`` maps
each class +1 eigenpair onto a class -1 eigenpair with the same value and
the same residual.  ``ground_cluster`` appends those conjugates to the
class +1 pairs, and ``lambda1_2d`` records the ground value twice.  That
every form of the grid is Hermitian and commutes with ``C`` and ``R^2`` is
certified once per grid, on the 1D matrices every form is built from
(``FormMatrices._symmetry_certificate``), so every pencil with real weights
does too; a form without the symmetry raises ConsistencyError.
Every pencil is solved at unit scale: its weights are divided by the power
of four nearest its larger gradient weight, which is exact at every step and
divides every eigenvalue by that power, and the values and residuals are
multiplied back, so the whole solve sees values of order one whatever the
size of the rectangle.
The shift is the separable lower bound ``bounds.separable_lower`` of the
weights, so it depends on nothing but the pencil and no caller chooses it;
at a rectangle's weights it is ``bounds.sharp_lower``.  The inverse of ``Q
- sigma M`` exists only for a shift below the lowest eigenvalue, so a shift
that contradicts its lower bound raises ConsistencyError, never a number.
ARPACK restarts at most ``MAXIT`` times.

The inverses of ``Q - sigma M`` and ``M`` are the exact tensor-product
inverses of ``tensor``, and ARPACK iterates in their real class +1
coordinates (``tensor._ClassOperator``): the x1-reflection ``T = K P``
commutes with every real-weighted pencil, so the operator there is real
symmetric, ``L^T (Q - sigma M)^-1 L`` with ``L L^T`` the Cholesky
factorisation of ``M``, and ARPACK runs real symmetric Lanczos on it.
ARPACK's vectors take ``L^-T`` and one back transform to nodal
coordinates.  One inverse-iteration step in residual-correction form
(Parlett 1998) subtracts the class +1 solve of their residual, then
Rayleigh-Ritz runs on the pencil, both through the Kronecker operators of
the forms (``formgrid``), one gather giving ``Q v`` and ``M v``, and the
residual contract reads each residual's M^-1 norm in the class coordinates
of the mass inverse, with no back transform.  ``tol`` must be a finite
number above zero, and is checked before any work, as are ``k`` and the
weights, which must be real and, at unit scale, finite, with normal
gradient weights.

``lambda1_2d`` evaluates the rectangle eigenvalue through the mass-shifted
pencil: the ``m^2 M`` term of the squared form is an exact spectral shift of
the same pencil, so it is dropped before the solve and ``m^2`` is added back
to the eigenvalue.  This keeps the relative gaps at the bottom of the
spectrum of order one even for heavy masses, where the unshifted spectrum
clusters around ``m^2`` and shift-invert iteration stalls.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .bounds import separable_lower
from .errors import ConsistencyError, SolverError
from .formgrid import (SpinorField, assemble, build_grid, _check_weights,
                       _products, _rectangle_weights)
from .symmetry import rotation_map
from .tensor import _ClassOperator, _TensorInverse, mass_inverse

__all__ = ["EigenResult", "RefineStudy", "lambda1_2d", "ground_cluster",
           "refine_study"]


@dataclass(frozen=True)
class EigenResult:
    """Smallest eigenvalue of the weighted form and its eigenvector.

    ``mu`` is the discrete lambda_1^2, ``residual`` the M^-1-norm of
    ``Q psi - mu M psi`` and ``iterations`` the number of shifted-operator
    applications of the one class +1 solve plus its inverse-iteration
    step.  ``eigenvalues`` holds the class +1 ground value and the equal
    value of its charge conjugate in class -1.
    """

    mu: float
    lambda1: float
    psi: SpinorField
    residual: float
    iterations: int
    n: int
    seed: int
    eigenvalues: tuple    # class +1 ground value and its conjugate's, equal


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


def _check_tol(tol):
    """ValueError unless the residual contract's ``tol`` is finite and
    positive: at or below zero no pair can meet it, and at NaN every pair
    would."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")


# ARPACK's Krylov dimension in a class solve.  The closed-form shift puts
# the wanted 1/(mu - sigma) far above the rest of the spectrum of the
# shifted inverse, so a small space converges in a handful of applications.
# Measured on the real symmetric class operator over the 16 n = 128 points
# of the benchmark's solve_n128 seeds 0-3, summed applications at ARPACK_TOL
# 1e-14 / 1e-13 / 1e-12: 156 / 150 / 134 for 4, 165 / 153 / 141 for 5 and
# 151 / 148 / 148 for 6 (172 for 8 at 1e-14); on 23 sweep points at
# n = 64 (11-point area and 12-point perimeter sweeps, m = 1, seeds 0-1),
# 414 for 5 against 460 for 6 at 1e-12.  At 4, a run cut after one restart
# has no value even at tolerance 1e-8 to report as its best iterate.
NCV = 5

# ARPACK's relative stopping tolerance in a class solve.  At tolerance 0 the
# stop sits on the operator's rounding and moves by whole restarts between
# similar operators (168 applications on solve_n128 at NCV 5); the repair
# and Rayleigh-Ritz steps, not ARPACK, enforce the residual contract.
# Against 1e-14 on the 16 solve_n128 points at NCV 5: 141 applications
# against 165, values within 3.8e-15 relative of those at NCV 6 and
# tolerance 0, and residual/mu at or below 3.2e-12 after the repair either
# way, against the 1e-10 contract.
ARPACK_TOL = 1e-12

# ARPACK's restart limit in a grid solve; a run that reaches it raises
# SolverError with its best iterate.
MAXIT = 500


def _solve_pencil(fm, w, k: int, tol: float, seed: int) -> _PencilSolution:
    """k lowest eigenpairs of half-turn class +1 of the grid pencil
    (``weighted(fm, w)``, ``fm.M``), in ascending order.

    The one entry point of every grid solve.  The weights ``w`` are real,
    with positive gradient and non-negative trace weights; the arguments
    are checked before any work.  The pencil is solved at unit scale: its
    weights divided by ``unit``, the power of four nearest ``max(w_K1,
    w_K2)``, whose eigenvalues are those of the pencil divided by ``unit``
    (``_solve_unit``); the values and residuals, those of a SolverError
    too, are multiplied back.  A power of four is exact at every step, the
    Cholesky factors of a form divided by ``4^j`` being the old ones
    divided by ``2^j``, so a rectangle and its ``t`` times larger copy
    with mass ``m / t``, ``t`` a power of two, solve the same pencil bit
    for bit, and the shift, ARPACK's relative stop and the residual
    contract see values of order one whatever the size of the rectangle.
    ValueError unless every weight at unit scale is finite and both
    gradient weights are normal floats there; a trace weight below the
    normal range moves no eigenvalue by as much as rounding, and is kept.
    """
    _check_tol(tol)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ncv = max(NCV, 2 * k + 1)
    if ncv > fm.ndof // 2:
        raise ValueError(f"k={k} per class is too many for the n={fm.n} grid")
    if np.any(np.imag(w)):
        raise ValueError(f"the form weights must be real, got {w!r}")
    w = np.real(w)
    # max(w_K1, w_K2) / unit in [1/2, 2), read off the exponent alone:
    # exact, and moved by exactly 4^j when the weights are
    unit = math.ldexp(1.0, 2 * (math.frexp(max(w[0], w[1]))[1] // 2))
    scaled = w / unit
    if not (np.all(np.isfinite(scaled))
            and min(scaled[0], scaled[1]) >= np.finfo(float).tiny):
        raise ValueError(f"the form weights must be finite, with gradient "
                         f"weights that are positive normal floats at unit "
                         f"scale, got {w.tolist()}")
    try:
        sol = _solve_unit(fm, scaled, k, ncv, tol, seed)
    except SolverError as exc:
        exc.best_mu, exc.residual = (None if x is None else x * unit
                                     for x in (exc.best_mu, exc.residual))
        raise
    return _PencilSolution(mus=sol.mus * unit, vectors=sol.vectors,
                           residuals=sol.residuals * unit,
                           iterations=sol.iterations)


def _solve_unit(fm, w, k: int, ncv: int, tol: float,
                seed: int) -> _PencilSolution:
    """``_solve_pencil`` of the unit-scale weights ``w``, checked, with
    ARPACK's Krylov dimension ``ncv``.

    The shift ``sigma`` is their separable bound
    (``bounds.separable_lower``), which lies below the lowest eigenvalue.
    ARPACK iterates ``P (Q - sigma M)^-1 M`` with the projector ``P = (I +
    R^2)/2`` of the half turn, in the real modal coordinates of one
    tensor-product inverse of ``Q - sigma M`` restricted to class +1, where
    it is similar to a real symmetric operator (``_ClassOperator``), for
    the largest ``1/(mu - sigma)`` of class +1.  Its vectors go back to
    nodal coordinates once; one inverse-iteration step in
    residual-correction form, through the class +1 solve, Rayleigh-Ritz and
    the residual contract run on the pencil's Kronecker operators, one
    gather giving both ``Q v`` and ``M v``, the residual's M^-1 norm taken
    in the mass inverse's class coordinates.  Before M's inverse, the
    grid's 1D matrices are certified (``FormMatrices._symmetry_certificate``)
    and its ``rotation_map`` is read, which self-tests once per n: every
    real-weighted pencil then commutes with ``R^2`` and with the charge
    conjugation ``C``, which maps each class +1 eigenpair onto a class -1
    eigenpair with the same value and residual (``ground_cluster``).  A
    form without the symmetry raises ConsistencyError.  A shift the inverse
    rejects lies above the lowest eigenvalue, which contradicts the lower
    bound it came from, and raises ConsistencyError too.
    """
    sigma = separable_lower(w)
    fm._symmetry_certificate                # raises for a form without C
    rot = rotation_map(fm.n)                # self-tested once per n
    mass = mass_inverse(fm.n)               # M's check
    try:
        shift = _TensorInverse(mass.basis, (w[0], w[1], w[2] - sigma, w[3],
                                            w[4]), "Q - sigma M")
    except ValueError as exc:
        raise ConsistencyError(
            f"unit-scale shift sigma={sigma!r} is not below the lowest "
            f"eigenvalue ({exc}); it must be a lower bound") from exc
    op = _ClassOperator(shift, mass)
    z, iterations = _krylov(op.apply, op.dim, k, MAXIT, seed, sigma, ncv)

    def pencil(v):
        return _products(fm, v, w, (0.0, 0.0, 1.0, 0.0, 0.0))

    v = _inverse_step(pencil, shift.plus_solve, op.to_nodal(z))
    # the shifted inverse's factor goes before the peak of what follows
    del shift, op
    v, iterations = (v + rot.half_turn(v)) / 2, iterations + k
    mus, v, residuals = _ritz(pencil, v, mass.norms, tol, iterations)
    order = np.argsort(mus, kind="stable")
    return _PencilSolution(mus=mus[order], vectors=v[:, order],
                           residuals=residuals[order], iterations=iterations)


def _krylov(apply_op, dim: int, k: int, maxit: int, seed: int,
            sigma: float, ncv: int):
    """Vectors of the k largest eigenvalues ``1/(mu - sigma)`` of the
    real symmetric operator ``apply_op`` on ``dim``-vectors, and the count
    of its applications.  ARPACK runs with ``ncv`` Krylov vectors from a
    seeded start vector to the relative tolerance ``ARPACK_TOL``.
    """
    v0 = np.random.default_rng(seed).standard_normal(dim)
    iterations = 0

    def counted(x):
        nonlocal iterations
        iterations += 1
        return apply_op(x)

    op = spla.LinearOperator((dim, dim), matvec=counted, dtype=float)
    try:
        # the residual contract is enforced by the repair and Rayleigh-Ritz
        # steps, not by ARPACK's tolerance
        _, v = spla.eigsh(op, k=k, which="LM", v0=v0, maxiter=maxit,
                          tol=ARPACK_TOL, ncv=ncv)
    except spla.ArpackNoConvergence as exc:
        nus = exc.eigenvalues
        if not len(nus):
            # ARPACK hands back its converged values only, and a run cut
            # short can have none; the same start at a loose tolerance,
            # for the largest value alone, gives the best one
            with contextlib.suppress(spla.ArpackNoConvergence):
                nus = spla.eigsh(op, k=1, which="LM", v0=v0, maxiter=maxit,
                                 tol=1e-8, ncv=ncv, return_eigenvectors=False)
        best_mu = sigma + 1.0 / float(nus.max()) if len(nus) else None
        raise SolverError(
            f"eigensolver did not converge within {maxit} restarts",
            best_mu=best_mu, iterations=iterations) from exc
    return v, iterations


def _inverse_step(pencil, a_solve, v):
    """One block inverse-iteration step in residual-correction form,
    ``v - a_solve(q v - theta m v)`` with ``theta`` the Rayleigh quotient
    of each column of ``v``, where ``pencil`` gives ``(q v, m v)`` and
    ``a_solve`` applies ``(q - sigma m)^-1``.

    In exact arithmetic this is ``(theta - sigma) (q - sigma m)^-1 m v``,
    the plain step up to each column's scale (Parlett 1998): the solve acts
    on a residual that is already small, so its rounding is relative to
    that residual, whatever the conditioning of the inverse.  ARPACK's
    vectors can sit far above its tolerance: 1e-8 relative for an exactly
    degenerate pair under threaded BLAS, and class solves without this step
    read residual/mu up to 8e-11 at n = 256 against the 1e-10 contract.
    The step damps their errors and the Rayleigh-Ritz step recovers the
    eigenpairs.
    """
    qv, mv = pencil(v)
    theta = (np.real(np.einsum("ij,ij->j", v.conj(), qv))
             / np.real(np.einsum("ij,ij->j", v.conj(), mv)))
    return v - a_solve(qv - theta * mv)


def _ritz(pencil, v, m_inv_norms, tol: float, iterations: int):
    """Rayleigh-Ritz of the pencil (q, m) on the span of ``v``, under the
    residual contract: ascending values, M-orthonormal vectors and their
    M^-1-norm residuals, ``pencil`` giving ``(q v, m v)`` and
    ``m_inv_norms`` the M^-1 norm of each column."""
    # A no-op up to rounding for converged eigenvectors.  Each value is the
    # quotient of an admissible vector, so it stays a conforming upper bound.
    v = np.asarray(v, dtype=complex)
    qv, mv = pencil(v)
    proj_q, proj_m = v.conj().T @ qv, v.conj().T @ mv
    _, coeff = sla.eigh((proj_q + proj_q.conj().T) / 2,
                        (proj_m + proj_m.conj().T) / 2)
    v, qv, mv = v @ coeff, qv @ coeff, mv @ coeff
    mus = np.real(np.einsum("ij,ij->j", v.conj(), qv))

    residuals = m_inv_norms(qv - mus * mv)
    bad = residuals > tol * np.maximum(np.abs(mus), 1e-300)
    if np.any(bad):
        i = int(np.argmax(residuals / np.maximum(np.abs(mus), 1e-300)))
        raise SolverError(
            f"residual contract violated: pair {i} has residual/mu "
            f"{residuals[i] / abs(mus[i]):.3e} > tol = {tol:.3e}",
            best_mu=float(mus[0]), residual=float(residuals[i]),
            iterations=iterations)
    return mus, v, residuals


def lambda1_2d(a: float, b: float, m: float, n: int, tol: float = 1e-10,
               *, seed: int = 0) -> EigenResult:
    """Discrete lowest positive Dirac eigenvalue on the (a, b) rectangle.

    Conforming, so ``mu`` over-estimates the continuum lambda_1(a,b)^2.
    Every eigenvalue is double, one of each pair in each half-turn class:
    class +1 is solved for its ground value at the shift
    ``sharp_lower(a, b, m)``, the separable bound of its weights, and class
    -1 holds its charge conjugate, with the same value, since the grid's
    forms are certified to commute with the conjugation.
    """
    a, b, m = _check_weights(a, b, m)
    fm = assemble(build_grid(n))
    sol = _solve_pencil(fm, _rectangle_weights(a, b, m), 1, tol, seed)
    mu = float(sol.mus[0]) + m**2
    return EigenResult(
        mu=mu,
        lambda1=float(np.sqrt(mu)),
        psi=SpinorField(sol.vectors[:, 0], n),
        residual=float(sol.residuals[0]),
        iterations=sol.iterations,
        n=n,
        seed=seed,
        eigenvalues=(mu, mu),
    )


def ground_cluster(fm, a: float, b: float, m: float, k: int = 4,
                   tol: float = 1e-10, seed: int = 0):
    """The ``k`` lowest shifted eigenvalues and the ground cluster among them.

    Solves the (a, b, m) pencil without its ``m^2`` mass term for
    ``ceil(k/2)`` class +1 eigenpairs (at the shift ``sharp_lower(a, b, m)``),
    appends their charge conjugates (``rotation_map(n).conjugate``) as the
    class -1 pairs, merges both in a stable ascending order, and returns
    ``(mus, cluster)``: the ``k`` lowest eigenvalues, ascending, and the
    ``(mu, psi)`` pairs among them within relative 1e-8 of the lowest,
    ready for ``symmetry.classify_symmetry``.
    """
    a, b, m = _check_weights(a, b, m)
    sol = _solve_pencil(fm, _rectangle_weights(a, b, m), -(-k // 2), tol, seed)
    mus = np.tile(sol.mus, 2)
    v = np.concatenate([sol.vectors, rotation_map(fm.n).conjugate(
        sol.vectors)], axis=1)
    order = np.argsort(mus, kind="stable")[:k]
    mus = mus[order].tolist()
    cluster = [(mu, SpinorField(v[:, i], fm.n))
               for i, mu in zip(order, mus)
               if (mu - mus[0]) <= 1e-8 * abs(mus[0])]
    return mus, cluster


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
        if cur > prev + 1e-12 * abs(prev):
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
