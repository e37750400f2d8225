"""Spectrum of the 1D Dirac operator on an interval with infinite-mass ends.

The lowest positive eigenvalue of the one-dimensional Dirac Hamiltonian with
mass ``m`` on an interval of length ``a``, subject to the infinite-mass
boundary conditions ``phi_2(+-a/2) = +-i phi_1(+-a/2)``, is

    lambda_1(a) = sqrt(m^2 + (nu_1(m*a)/a)^2),

where ``nu_1(mu)`` is the unique root of ``tan(nu)/nu = -1/mu`` in the
interval ``[pi/2, pi)``.  The root equation is solved here in the
singularity-free form ``mu*sin(nu) + nu*cos(nu) = 0``, which has the same
roots on that interval but avoids the tangent pole at ``pi/2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Root1D", "nu1", "nu1_lower", "lambda1_1d"]

HALF_PI = math.pi / 2.0

# 200 bisection steps shrink the bracket far below one ulp; the loop exits
# early once the interval is at rounding level.
_MAX_BISECT = 200


@dataclass(frozen=True)
class Root1D:
    """Root of the boundary equation, with the achieved residual."""

    nu: float
    residual: float


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not math.isfinite(mu) or mu < 0.0:
        raise ValueError(f"mass parameter must be finite and >= 0, got {mu!r}")
    return mu


def _equation(mu: float, nu: float) -> float:
    return mu * math.sin(nu) + nu * math.cos(nu)


def nu1(mu: float) -> Root1D:
    """Unique root of ``mu*sin(nu) + nu*cos(nu) = 0`` in ``[pi/2, pi)``.

    The root is bracketed in ``(pi/2, pi)`` and bisected to rounding level,
    so the residual stays below ``1e-13 * (1 + mu)``.  For ``mu`` below
    about 2.5e-16 (``mu = 0`` included) or above about 5.5e15 the root lies
    within rounding of a bracket end, and the value is the float at that end
    below the root: ``pi/2``, or the float below ``pi``.  So the value never
    exceeds the root; it is non-decreasing in ``mu`` and tends to ``pi`` as
    ``mu -> infinity``.
    """
    mu = _check_mu(mu)
    # Nudge the bracket inward: the equation is +mu at pi/2 and -pi at pi.
    # Where a nudged end's sign rounds away, the root lies within rounding
    # of that end.
    lo = math.nextafter(HALF_PI, math.pi)
    hi = math.nextafter(math.pi, HALF_PI)
    if _equation(mu, lo) <= 0.0:
        return Root1D(HALF_PI, abs(_equation(mu, HALF_PI)))
    fhi = _equation(mu, hi)
    if fhi >= 0.0:
        return Root1D(hi, abs(fhi))

    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = _equation(mu, mid)
        if fmid > 0.0:
            lo = mid
        elif fmid < 0.0:
            hi = mid
        else:
            return Root1D(mid, 0.0)
    nu = 0.5 * (lo + hi)
    return Root1D(nu, abs(_equation(mu, nu)))


def nu1_lower(mu: float) -> float:
    """Closed-form lower bound ``pi * max{mu/(1+mu), 1/2}`` for the root.

    The first factor is the safe rewriting of ``1/(1 + 1/mu)`` and is read
    as zero at ``mu = 0``.
    """
    mu = _check_mu(mu)
    return math.pi * max(mu / (1.0 + mu), 0.5)


def lambda1_1d(a: float, m: float) -> float:
    """Lowest positive 1D eigenvalue ``sqrt(m^2 + (nu_1(m*a)/a)^2)``."""
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"interval length must be finite and > 0, got {a!r}")
    m = _check_mu(m)
    return math.hypot(m, nu1(m * a).nu / a)
