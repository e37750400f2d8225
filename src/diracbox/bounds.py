"""Closed-form two-sided bounds on the rectangle eigenvalue.

For the rectangle with sides ``(a, b)`` and mass ``m``, the shifted square
of the lowest positive eigenvalue is bracketed by

    (pi/a)^2 max{1/(1+(ma)^-1), 1/2}^2 + (pi/b)^2 max{...b...}^2
        <=  lambda_1(a,b)^2 - m^2  <=  (pi/a)^2 + (pi/b)^2,

where the upper bound is the Dirichlet Laplacian eigenvalue of the same
rectangle.  A sharper lower bound replaces each max-factor term with
``(nu_1(m*side)/side)^2`` using the 1D root; it dominates the crude form
up to rounding.  Their difference falls below rounding once ``m*side``
passes about 5e5, and from there on the two agree to a few ulps, the sharp
one sometimes the lower: at the square it reads 19.73920880217871 from
``m`` about 1e16 on, where ``nu_1`` returns the float below pi, against
the crude 19.739208802178716, 2 ulps above.  The eccentricity/mass
conditions evaluated here single out parameter regions where these bounds
alone already force the rectangle's eigenvalue above the square's, both
along the fixed-area family ``b = 1/a`` and the fixed-perimeter family
``b = 2 - a``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .dirac1d import nu1, nu1_lower
from .errors import ConsistencyError
from .formgrid import _check_weights, _rectangle_weights

__all__ = [
    "Condition",
    "BoundsReport",
    "thm_lower",
    "separable_lower",
    "sharp_lower",
    "thm_upper",
    "corollary_conditions",
    "bounds_report",
    "bracket",
]

ECC_AREA_THRESHOLD = math.sqrt(15.0)
ECC_PERIMETER_THRESHOLD = (9.0 - math.sqrt(33.0)) / 8.0
MASS_THRESHOLD = 56.0
INITIAL_THRESHOLD = 2.0
# Below this shorter side the cubes of the initial-value conditions leave
# the float range; there their quotient ``gap / (a^-3 + b^-3)`` is the
# shorter side, up to a relative 2 side^2, far below rounding.
_CUBE_FLOOR = 2.0**-340


def thm_lower(a: float, b: float, m: float) -> float:
    """Crude closed-form lower bound for lambda_1(a,b)^2 - m^2."""
    a, b, m = _check_weights(a, b, m)
    return (nu1_lower(m * a) / a) ** 2 + (nu1_lower(m * b) / b) ** 2


def separable_lower(w) -> float:
    """Lower bound ``w_M + w_K1 nu_1(w_Tpar/w_K1)^2 + w_K2 nu_1(w_Teq/w_K2)^2``
    on the lowest eigenvalue of the pencil with form weights ``w``
    (``formgrid.FORMS`` order), for ``w_K1, w_K2 > 0`` and trace weights
    ``>= 0``.

    On each line of x2 fixed, the x1 part ``w_K1 K1 + w_Tpar Tpar`` of the
    form is ``w_K1`` times the 1D infinite-mass form with mass parameter
    ``w_Tpar/w_K1``, whose lowest value against the mass is
    ``nu_1(w_Tpar/w_K1)^2``; the same holds along x2.  So the bound lies
    below the continuum eigenvalue, and below every conforming discrete
    one.  It is the shift of every grid solve.
    """
    k1, k2, mass, tpar, teq = (float(x) for x in w)
    return mass + k1 * nu1(tpar / k1).nu ** 2 + k2 * nu1(teq / k2).nu ** 2


def sharp_lower(a: float, b: float, m: float) -> float:
    """Sharper lower bound (nu_1(ma)/a)^2 + (nu_1(mb)/b)^2: the separable
    bound of the rectangle's mass-free weights."""
    return separable_lower(_rectangle_weights(*_check_weights(a, b, m)))


def thm_upper(a: float, b: float, m: float = 0.0) -> float:
    """Upper bound (pi/a)^2 + (pi/b)^2; the mass does not enter."""
    a, b, _ = _check_weights(a, b, m)
    return (math.pi / a) ** 2 + (math.pi / b) ** 2


@dataclass(frozen=True)
class Condition:
    holds: bool
    margin: float    # left-hand side minus threshold


def corollary_conditions(a: float, m: float, constraint: str):
    """Square-beats-this-rectangle sufficient conditions with margins.

    ``constraint`` is ``"area"`` (family b = 1/a) or ``"perimeter"``
    (family b = 2 - a, requiring a in (0, 2)).  Each condition reports its
    truth value together with the signed distance to its threshold.
    """
    a = float(a)
    m = float(m)
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"side length must be finite and > 0, got {a!r}")
    if not math.isfinite(m) or m < 0.0:
        raise ValueError(f"mass must be finite and >= 0, got {m!r}")

    if constraint == "area":
        ecc = abs(a * a - 4.0) - ECC_AREA_THRESHOLD
        gap = 1.0 / a**2 + a**2 - 2.0
        heavy = m * gap - MASS_THRESHOLD
        short = min(a, 1.0 / a)
        sharp = (m * short if short < _CUBE_FLOOR
                 else m * gap / (1.0 / a**3 + a**3)) - INITIAL_THRESHOLD
        return {
            "cond_a": Condition(ecc > 0.0, ecc),
            "cond_b": Condition(heavy >= 0.0, heavy),
            "cond_initial_area": Condition(sharp > 0.0, sharp),
        }
    if constraint == "perimeter":
        if not 0.0 < a < 2.0:
            raise ValueError(
                f"perimeter family requires a in (0, 2), got {a!r}")
        ecc = (a - 1.0) ** 2 - ECC_PERIMETER_THRESHOLD
        gap = 1.0 / a**2 + 1.0 / (2.0 - a) ** 2 - 2.0
        heavy = m * gap - MASS_THRESHOLD
        sharp = (m * a if a < _CUBE_FLOOR
                 else m * gap / (1.0 / a**3 + 1.0 / (2.0 - a) ** 3)
                 ) - INITIAL_THRESHOLD
        return {
            "cond_a_prime": Condition(ecc > 0.0, ecc),
            "cond_b_prime": Condition(heavy >= 0.0, heavy),
            "cond_initial_perimeter": Condition(sharp > 0.0, sharp),
        }
    raise ValueError(f"constraint must be 'area' or 'perimeter', got {constraint!r}")


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form bound values and condition set for one parameter point.

    All three bound fields refer to lambda_1^2 - m^2; ``dirichlet`` repeats
    the upper bound, being the Dirichlet eigenvalue of the rectangle.
    Perimeter-family conditions are present only for a in (0, 2).
    """

    a: float
    b: float
    m: float
    thm_lower: float
    sharp_lower: float
    thm_upper: float
    dirichlet: float
    conditions: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def bounds_report(a: float, b: float, m: float) -> BoundsReport:
    """Evaluate every closed-form bound and condition at one point."""
    a, b, m = _check_weights(a, b, m)
    lo = thm_lower(a, b, m)
    sh = sharp_lower(a, b, m)
    up = thm_upper(a, b, m)
    if not (lo <= sh * (1 + 1e-12) and sh <= up * (1 + 1e-12)):
        raise ConsistencyError(
            f"bound ordering violated at (a={a}, b={b}, m={m}): "
            f"{lo!r} <= {sh!r} <= {up!r} fails")
    conditions = dict(corollary_conditions(a, m, "area"))
    if 0.0 < a < 2.0:
        conditions.update(corollary_conditions(a, m, "perimeter"))
    return BoundsReport(a=a, b=b, m=m, thm_lower=lo, sharp_lower=sh,
                        thm_upper=up, dirichlet=up, conditions=conditions)


def bracket(a: float, b: float, m: float, mu: float):
    """Two-sided interval ``(lo, hi)`` for lambda_1(a,b)^2.

    Lower end from the closed-form lower bounds, upper end the conforming
    discrete eigenvalue ``mu`` capped by the Dirichlet value.  An empty
    interval signals a bug and raises ConsistencyError.
    """
    a, b, m = _check_weights(a, b, m)
    lo = m**2 + max(thm_lower(a, b, m), sharp_lower(a, b, m))
    hi = min(mu, m**2 + thm_upper(a, b, m))
    if lo > hi:
        raise ConsistencyError(
            f"empty eigenvalue bracket at (a={a}, b={b}, m={m}): "
            f"[{lo!r}, {hi!r}]")
    return lo, hi
