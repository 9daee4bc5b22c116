"""Exponent arithmetic and the sharp constants for kernel convolution bounds.

Exponents are extended reals in [1, inf]; ``float('inf')`` is used
directly and participates in the usual 1/inf == 0 arithmetic.  A triple
(p, q, r) is admissible when 1/p + 1/q = 1 + 1/r, which forces
r >= max(p, q).

Constants:

    c_p      = p^{1/p} / p'^{1/p'}          (c_1 = c_inf = 1)
    C_{p,q}  = sqrt(c_p c_q / c_r)          sharp Young constant, in (0, 1]
    K_{p,q}  = C_{p,q} * alpha_q            convolution bound in the primitive norm
    L_{p,q}  = C_{p,q} * delta_q            convolution bound in the plain L^r norm
    M_p                                      pointwise decay constant for
                                             compactly supported data
    beta     = (1 - 1/q) / (1 - 1/p)        Gaussian power achieving Young equality

Note c_p itself exceeds 1 for p > 2 (for example c_4 = 1.1397...); only
the combination C_{p,q} is bounded by 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exceptions import DomainError
from .kernel import _validate_exponent, alpha_coefficient, delta_coefficient

EXPONENT_TOL = 1e-12

INF = math.inf


def _inv(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


def conjugate(p: float) -> float:
    """Conjugate exponent p' with 1/p + 1/p' = 1."""
    p = _validate_exponent(p)
    if p == 1.0:
        return INF
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class ExponentTriple:
    """Admissible (p, q, r) with 1/p + 1/q = 1 + 1/r.

    Construction rejects triples violating the identity beyond an
    absolute tolerance of 1e-12 on the reciprocal defect.
    """

    p: float
    q: float
    r: float

    def __post_init__(self):
        for name in ("p", "q", "r"):
            object.__setattr__(self, name, _validate_exponent(getattr(self, name), name))
        defect = _inv(self.p) + _inv(self.q) - 1.0 - _inv(self.r)
        if abs(defect) > EXPONENT_TOL:
            raise DomainError(
                f"(p, q, r) = ({self.p}, {self.q}, {self.r}) violates "
                f"1/p + 1/q = 1 + 1/r (defect {defect:.3e})"
            )
        if self.r < self.p - EXPONENT_TOL or self.r < self.q - EXPONENT_TOL:
            raise DomainError("r must dominate both p and q")


def r_from(p: float, q: float) -> ExponentTriple:
    """Complete (p, q) to an admissible triple; fails if 1/p + 1/q < 1."""
    p = _validate_exponent(p, "p")
    q = _validate_exponent(q, "q")
    s = _inv(p) + _inv(q) - 1.0
    if s < -EXPONENT_TOL:
        raise DomainError(f"no valid r: 1/p + 1/q = {1.0 + s} is below 1")
    r = INF if s <= EXPONENT_TOL else 1.0 / s
    return ExponentTriple(p, q, r)


def c_const(p: float) -> float:
    """c_p = p^{1/p} / p'^{1/p'}; equals 1 at both endpoints."""
    p = _validate_exponent(p)
    if p == 1.0 or math.isinf(p):
        return 1.0
    pp = conjugate(p)
    return math.exp(math.log(p) / p - math.log(pp) / pp)


def young_constant(tr: ExponentTriple) -> float:
    """Sharp Young constant C_{p,q} = sqrt(c_p c_q / c_r), in (0, 1]."""
    return math.sqrt(c_const(tr.p) * c_const(tr.q) / c_const(tr.r))


def K_const(tr: ExponentTriple) -> float:
    """Constant in ||f * theta_t||'_r <= K ||f||'_p t^{-(1-1/q)/2}; K = 1 at q = 1."""
    return young_constant(tr) * alpha_coefficient(tr.q)


def L_const(tr: ExponentTriple) -> float:
    """Constant in ||f * theta_t||_r <= L ||f||'_p t^{-(2-1/q)/2}."""
    return young_constant(tr) * delta_coefficient(tr.q)


def M_const(p: float) -> float:
    """Pointwise decay constant for compactly supported data, 1 <= p < inf."""
    p = _validate_exponent(p)
    if math.isinf(p):
        raise DomainError("decay constant is defined for finite p only")
    if p == 1.0:
        return 1.0 / (4.0 * math.sqrt(math.pi))
    num = 3.0 ** (1.0 / p) * (p - 1.0) ** (1.0 - 1.0 / p)
    den = 2.0 ** (1.0 + 2.0 / p) * math.sqrt(math.pi) * p ** (1.0 - 1.0 / p)
    return num / den


def beta_extremizer(p: float, q: float) -> float:
    """Gaussian power at which Young's inequality is an equality.

    Interior exponents give the finite positive value
    (1 - 1/q) / (1 - 1/p); the boundary cases degenerate to the limits
    beta -> inf (p = 1) and beta -> 0+ (q = 1).  When p = q = 1 every
    positive power gives equality and 1.0 is returned as a
    representative.
    """
    r_from(p, q)  # validates the pair
    p = _validate_exponent(p, "p")
    q = _validate_exponent(q, "q")
    if p == 1.0 and q == 1.0:
        return 1.0
    if p == 1.0:
        return INF
    if q == 1.0:
        return 0.0
    return (1.0 - 1.0 / q) / (1.0 - 1.0 / p)
