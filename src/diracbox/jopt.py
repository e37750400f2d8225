"""Non-convex product functional and its alternating fixed-point scheme.

By the arithmetic-geometric mean inequality, the fixed-area family of
weighted forms dominates the weight-free quotient

    J[psi] = ( 2 |d1 psi| |d2 psi| + 2 m |trace_par psi| |trace_eq psi| )
             / |psi|^2,

whose infimum mu therefore lower-bounds ``lambda_1(a, 1/a)^2 - m^2`` for
every ``a``, with equality exactly when the weights match the field's norm
ratios.  A minimiser solves the weighted eigenvalue problem

    A^-2 K1 + A^2 K2 + (m/B) Tpar + (m B) Teq   against   M,

with ``A = sqrt(|d1 psi| / |d2 psi|)`` and
``B = |trace_par psi| / |trace_eq psi|`` computed from itself.  The
alternating scheme implemented here solves the weighted problem at the
current ratios and recomputes the ratios from the new eigenvector; each
round decreases the eigenvalue (the tight-weight value of the previous
iterate equals its J-quotient, which its own weighted form dominates), so
the scheme descends monotonically, to a fixed point that need not be a
global minimum.  The rounds contract only linearly, slowly near the mass
where the square's minimiser loses stability, so they are accelerated by a
secant (depth-1 Anderson) step on the log weights; an extrapolated round
is kept only when it descends as far as a plain round is guaranteed to,
and the plain round is solved otherwise.  Restart batteries and symmetry
diagnostics provide the experimental evidence for whether the minimiser is
quarter-turn symmetric, which is the open question this module probes,
never asserts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConsistencyError, DegenerateRatioError
from .eigsolve import _solve_pencil
from .formgrid import (
    FormMatrices,
    SpinorField,
    _check_weights,
    build_grid,
    norm_parts,
    random_field,
    trial_dirichlet,
)
from .symmetry import (
    rotation_deviation,
    symmetrize,
    verify_norm_identities,
)

__all__ = [
    "JMinimizerState",
    "ConjectureEvidence",
    "j_value",
    "euler_solve",
    "fixed_point_minimize",
    "probe_conjecture_symmetry",
]

DEGENERATE_FLOOR = 1e-12
# An extrapolated round moves no weight by more than a factor of 2 from the
# plain round's: the secant model is fitted on nearby rounds.
MAX_LOG_STEP = math.log(2.0)


def j_value(psi: SpinorField, fm: FormMatrices, m: float) -> float:
    """The product-form quotient J[psi] / |psi|^2."""
    m = float(m)
    if m < 0.0 or not math.isfinite(m):
        raise ValueError(f"mass must be finite and >= 0, got {m!r}")
    return _parts_j(norm_parts(fm, psi), m)


def _parts_j(parts, m: float) -> float:
    """``j_value`` of a field from its ``norm_parts``."""
    g1, g2, mass, t1, t2 = parts
    if mass <= 0.0:
        raise ValueError("J of a zero field is undefined")
    val = 2.0 * math.sqrt(max(g1, 0.0) * max(g2, 0.0))
    if m > 0.0:
        val += 2.0 * m * math.sqrt(max(t1, 0.0) * max(t2, 0.0))
    return val / mass


def _euler_weights(A: float, B: float, m: float):
    """Form weights of the ratio-weighted problem (no mass term)."""
    return (A**-2, A**2, 0.0, m / B, m * B)


def euler_solve(fm: FormMatrices, A: float, B: float, m: float,
                tol: float = 1e-10, *, seed: int = 0):
    """Smallest eigenpair of the ratio-weighted form against the mass matrix,
    solved in the half-turn class +1, which holds one of each double
    eigenvalue (``eigsolve._solve_pencil``, which shifts by the weights'
    separable bound)."""
    A, B, m = _check_weights(A, B, m)
    sol = _solve_pencil(fm, _euler_weights(A, B, m), 1, tol, seed)
    return float(sol.mus[0]), SpinorField(sol.vectors[:, 0], fm.n)


def _ratios(parts, m: float):
    """Tight weights (A, B) from a field's norm parts; B is 1 when massless."""
    g1, g2, mass, t1, t2 = parts
    floor = (DEGENERATE_FLOOR * math.sqrt(mass)) ** 2
    if g1 <= floor or g2 <= floor:
        raise DegenerateRatioError(
            "a gradient norm vanished; the iterate left the admissible set")
    A = (g1 / g2) ** 0.25    # sqrt of the norm ratio; norms here are squared
    if m == 0.0:
        return A, 1.0
    if t1 <= floor or t2 <= floor:
        raise DegenerateRatioError(
            "a boundary trace norm vanished; ratio weights are undefined")
    return A, math.sqrt(t1 / t2)


@dataclass(frozen=True)
class JMinimizerState:
    """Outcome of one alternating-minimisation run: ``psi`` is the last kept
    round's grid eigenvector (half-turn class +1, M-normalised), and
    ``(A, B)`` the ratios it gives."""

    psi: SpinorField
    A: float
    B: float
    mu: float
    j_value: float
    iteration: int    # eigensolves, rejected extrapolations included
    converged: bool
    history: tuple    # ((mu, A, B, j_value), ...) per kept round


def fixed_point_minimize(fm: FormMatrices, m: float,
                         init: SpinorField | None = None, tol: float = 1e-8,
                         maxit: int = 80, *, solver_tol: float = 1e-10,
                         seed: int = 0) -> JMinimizerState:
    """Alternate weighted eigensolves with ratio updates until the weights settle.

    Terminates when a round's new ratios differ from its weights by
    ``|dA| + |dB| <= tol`` or after ``maxit`` eigensolves; the final state is
    returned either way, with ``converged`` flagging which.

    The rounds are accelerated by depth-1 Anderson mixing, a secant step on
    the fixed-point residual in ``x = (log A, log B)``: with ``g(x)`` the log
    ratios of the eigenvector solved at ``x`` and ``f = g(x) - x``, the next
    weights are tried at ``g_k - gamma (g_k - g_{k-1})``, ``gamma = <f_k,
    f_k - f_{k-1}> / |f_k - f_{k-1}|^2``, while the plain rounds contract
    (``|f_k| < |f_{k-1}|``; otherwise the one-step memory is cleared) and
    the step changes no weight by more than a factor of 2 (``MAX_LOG_STEP``:
    where the plain rounds drift towards a boundary, ``B -> 0``, the secant
    points orders of magnitude away).  A tried round is kept only if its
    eigenvalue is at most the previous iterate's J-quotient, which is what a
    plain round guarantees; otherwise the plain round at the previous
    iterate's ratios is solved instead.  ``history`` records the kept rounds
    and ``iteration`` counts every eigensolve, rejected tries included.

    The eigenvalue sequence is checked to be non-increasing and each
    iterate's J-quotient to lie below its eigenvalue; violations raise
    ConsistencyError since both are structural guarantees.  An initial
    field that is quarter-turn symmetric has norm ratios 1 to rounding, so
    its first round solves the square's weights ``A = B = 1``.  Every grid
    solve returns the half-turn class +1 ground vector, where the ground
    value is simple, and at the square's weights that vector is the
    ``alpha = 1`` quarter-turn eigenvector; so the round returns a symmetric
    field, with ratios 1 to rounding, and converges without a projection.
    """
    m = float(m)
    if maxit < 1:
        raise ValueError(f"maxit must be >= 1, got {maxit}")
    if init is None:
        init = random_field(build_grid(fm.n), seed=seed)
    if init.n != fm.n:
        raise ValueError(f"init is on n={init.n}, matrices on n={fm.n}")

    def solve(A, B):
        mu, psi = euler_solve(fm, A, B, m, solver_tol, seed=seed)
        return mu, psi, norm_parts(fm, psi)     # parts once per round

    A, B = _ratios(norm_parts(fm, init), m)
    trial = None        # extrapolated weights, tried before (A, B)
    memory = None       # (g, f) of the previous kept round
    mu_prev = jv = None
    history = []
    converged = False
    solves = 0
    while solves < maxit:
        kept = None
        if trial is not None:
            solves += 1
            mu, psi_t, parts = solve(*trial)
            # what a plain round guarantees: mu_{k+1} <= J_k
            if mu <= jv + 1e-12 * max(1.0, abs(jv)):
                kept = trial, mu, psi_t, parts
        if kept is None:
            if solves == maxit:
                break
            solves += 1
            kept = (A, B), *solve(A, B)
        (A_k, B_k), mu, psi, parts = kept
        jv = _parts_j(parts, m)
        history.append((mu, A_k, B_k, jv))
        slack = 1e-12 * max(1.0, abs(mu_prev if mu_prev is not None else mu))
        if mu_prev is not None and mu > mu_prev + slack:
            raise ConsistencyError(
                f"fixed-point step increased the eigenvalue: {mu_prev!r} -> {mu!r}")
        if jv > mu + slack:
            raise ConsistencyError(
                f"J-quotient exceeded its weighted eigenvalue: {jv!r} > {mu!r}")
        mu_prev = mu

        A, B = _ratios(parts, m)
        if abs(A - A_k) + abs(B - B_k) <= tol:
            converged = True
            break
        g = (math.log(A), math.log(B))
        f = (g[0] - math.log(A_k), g[1] - math.log(B_k))
        trial = None
        if memory is None:
            memory = g, f
        elif math.hypot(*f) < math.hypot(*memory[1]):
            (g0, g1), (f0, f1) = memory
            d0, d1 = f[0] - f0, f[1] - f1
            gamma = (f[0] * d0 + f[1] * d1) / (d0 * d0 + d1 * d1)
            step = (-gamma * (g[0] - g0), -gamma * (g[1] - g1))
            if max(abs(step[0]), abs(step[1])) <= MAX_LOG_STEP:
                trial = (math.exp(g[0] + step[0]), math.exp(g[1] + step[1]))
            memory = g, f
        else:
            memory = None

    return JMinimizerState(psi=psi, A=A, B=B, mu=mu_prev, j_value=jv,
                           iteration=solves, converged=converged,
                           history=tuple(history))


@dataclass(frozen=True)
class ConjectureEvidence:
    """Multi-restart evidence about symmetry of the best minimiser found."""

    best_mu: float
    best_A: float
    best_B: float
    best_init: str
    d1: float
    d2: float
    rotation_deviation: float
    all_restarts_agree: bool
    degenerate_restarts: int
    restarts: tuple    # per-restart summary dicts

    def as_dict(self) -> dict:
        return asdict(self)


def probe_conjecture_symmetry(fm: FormMatrices, m: float, restarts: int = 5,
                              seed: int = 0, *,
                              solver_tol: float = 1e-10) -> ConjectureEvidence:
    """Run the fixed point from diverse starts and report what the best found.

    Starts: the boundary-vanishing product trial field, one quarter-turn
    symmetrised random field, and seeded random fields.  Whether the best
    minimiser satisfies the symmetry identities is reported through
    ``(d1, d2)``, never asserted; the problem is non-convex and the basins
    reached are the only evidence available.
    """
    if restarts < 3:
        raise ValueError(f"need at least 3 restarts, got {restarts}")
    grid = build_grid(fm.n)
    inits = [("trial_dirichlet", trial_dirichlet(grid)),
             ("symmetrised_random", symmetrize(random_field(grid, seed=seed)))]
    for i in range(restarts - 2):
        inits.append((f"random_{i}", random_field(grid, seed=seed + 1 + i)))

    outcomes = []
    finals = []
    best = None
    for idx, (kind, init) in enumerate(inits):
        try:
            state = fixed_point_minimize(fm, m, init=init,
                                         solver_tol=solver_tol,
                                         seed=seed + idx)
        except DegenerateRatioError as exc:
            outcomes.append({"init": kind, "status": "degenerate",
                             "detail": str(exc)})
            continue
        outcomes.append({
            "init": kind, "status": "ok", "mu": state.mu, "A": state.A,
            "B": state.B, "iterations": state.iteration,
            "converged": state.converged,
            "history": [list(h) for h in state.history],
        })
        finals.append(state.mu)
        if best is None or state.mu < best[1].mu:
            best = (kind, state)

    n_degenerate = sum(1 for o in outcomes if o["status"] == "degenerate")
    if best is None:
        raise DegenerateRatioError("every restart degenerated")

    kind, state = best
    d1, d2 = verify_norm_identities(state.psi, fm)
    _, rdev = rotation_deviation(fm, state.psi)
    finals = np.asarray(finals)
    agree = bool((finals.max() - finals.min()) <= 1e-6 * abs(finals.min()))
    return ConjectureEvidence(
        best_mu=state.mu, best_A=state.A, best_B=state.B, best_init=kind,
        d1=float(d1), d2=float(d2), rotation_deviation=float(rdev),
        all_restarts_agree=agree, degenerate_restarts=n_degenerate,
        restarts=tuple(outcomes))
