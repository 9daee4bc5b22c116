"""Gauss-Weierstrass heat kernel arithmetic.

    theta(x, t) = exp(-x^2 / (4 t)) / (2 sqrt(pi t)),   t > 0.

Provides pointwise values, spatial derivatives up to order 8 through the
Hermite-style recurrence

    theta^(n) = -(x / 2t) theta^(n-1) - ((n-1) / 2t) theta^(n-2),

the time derivative (equal to the second space derivative), integer and
fractional powers, the closed-form Lebesgue norms of the kernel and its
first derivative, and a quadrature check of the semigroup identity
theta_t * theta_s = theta_{t+s}.

Closed norm forms, with 1/inf read as 0:

    || theta_t ||_q  = alpha_q * t^{-(1 - 1/q)/2}
    || theta_t'||_q  = delta_q * t^{-(2 - 1/q)/2}

where alpha_1 = 1, alpha_inf = 1/(2 sqrt(pi)), delta_1 = 1/sqrt(pi),
delta_inf = 1/(2^{3/2} sqrt(pi e)), and the interior values involve the
gamma function (evaluated with ``math.gamma``, a Lanczos-class
implementation good to better than 1e-13 relative on the range used).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, UnsupportedOrderError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate

MAX_DERIV_ORDER = 8

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


@dataclass(frozen=True)
class KernelPoint:
    """Space-time argument of the kernel; time must be strictly positive."""

    x: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.t)):
            raise DomainError("kernel point coordinates must be finite")
        if self.t <= 0:
            raise DomainError(f"kernel time must be positive, got {self.t}")


def theta_values(x, t: float) -> np.ndarray:
    """Vectorized kernel values at time ``t``; no argument validation."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x / (4.0 * t)) / (_TWO_SQRT_PI * math.sqrt(t))


def theta_deriv_values(x, t: float, n: int) -> np.ndarray:
    """Vectorized n-th space derivative of the kernel via the recurrence."""
    x = np.asarray(x, dtype=float)
    prev = theta_values(x, t)
    if n == 0:
        return prev
    cur = -(x / (2.0 * t)) * prev
    for k in range(2, n + 1):
        prev, cur = cur, -(x / (2.0 * t)) * cur - ((k - 1) / (2.0 * t)) * prev
    return cur


def theta(pt: KernelPoint) -> float:
    """Kernel value; strictly positive and even in x (up to underflow)."""
    return float(theta_values(pt.x, pt.t))


def theta_deriv(pt: KernelPoint, n: int) -> float:
    """n-th space derivative at ``pt``; supported for 0 <= n <= 8."""
    if n < 0 or int(n) != n:
        raise DomainError("derivative order must be a nonnegative integer")
    if n > MAX_DERIV_ORDER:
        raise UnsupportedOrderError(
            f"derivative order {n} exceeds the supported maximum {MAX_DERIV_ORDER}"
        )
    return float(theta_deriv_values(pt.x, pt.t, int(n)))


def theta_time_deriv(pt: KernelPoint) -> float:
    """Time derivative of the kernel.

    The kernel solves the heat equation, so this is literally the same
    closed form as the second space derivative.
    """
    return theta_deriv(pt, 2)


def theta_power(pt: KernelPoint, beta: float) -> float:
    """(theta_t(x))^beta for beta > 0."""
    if not (beta > 0 and math.isfinite(beta)):
        raise DomainError("power must be positive and finite")
    prefactor = (_TWO_SQRT_PI * math.sqrt(pt.t)) ** (-beta)
    return prefactor * math.exp(-beta * pt.x * pt.x / (4.0 * pt.t))


def _validate_exponent(q: float) -> float:
    q = float(q)
    if math.isnan(q) or q < 1.0:
        raise DomainError(f"Lebesgue exponent must lie in [1, inf], got {q}")
    return q


def alpha_coefficient(q: float) -> float:
    """t-free factor of ||theta_t||_q."""
    q = _validate_exponent(q)
    if q == 1.0:
        return 1.0
    if math.isinf(q):
        return 1.0 / _TWO_SQRT_PI
    return _TWO_SQRT_PI ** (-(1.0 - 1.0 / q)) * q ** (-1.0 / (2.0 * q))


def delta_coefficient(q: float) -> float:
    """t-free factor of ||theta_t'||_q."""
    q = _validate_exponent(q)
    if q == 1.0:
        return 1.0 / math.sqrt(math.pi)
    if math.isinf(q):
        return 1.0 / (2.0 ** 1.5 * math.sqrt(math.pi * math.e))
    # log space keeps the gamma factor finite for large q
    log_val = (
        math.lgamma((q + 1.0) / 2.0) / q
        - (1.0 - 1.0 / q) * math.log(2.0)
        - 0.5 * math.log(math.pi)
        - (1.0 + 1.0 / q) / 2.0 * math.log(q)
    )
    return math.exp(log_val)


def theta_norm_closed(q: float, t: float) -> float:
    """Closed-form ||theta_t||_q."""
    q = _validate_exponent(q)
    if t <= 0 or not math.isfinite(t):
        raise DomainError("kernel time must be positive and finite")
    return alpha_coefficient(q) * t ** (-(1.0 - 1.0 / q) / 2.0)


def theta_deriv_norm_closed(q: float, t: float) -> float:
    """Closed-form ||theta_t'||_q."""
    q = _validate_exponent(q)
    if t <= 0 or not math.isfinite(t):
        raise DomainError("kernel time must be positive and finite")
    return delta_coefficient(q) * t ** (-(2.0 - 1.0 / q) / 2.0)


def gaussian_tail_mass(width: float, t: float) -> float:
    """Exact mass of theta_t outside [-width, width]."""
    return math.erfc(width / (2.0 * math.sqrt(t)))


def deriv_tail_mass(n: int, width: float, t: float) -> float:
    """Bound for the integral of |theta_t^(n)| outside [-width, width].

    Valid once ``width`` lies beyond the last sign change of the n-th
    derivative, which holds for n <= 8 whenever width >= 6 sqrt(2 t);
    there the derivative is single-signed and the integral telescopes to
    the (n-1)-th derivative at the cut.
    """
    if n == 0:
        return gaussian_tail_mass(width, t)
    return 2.0 * abs(float(theta_deriv_values(width, t, n - 1)))


def semigroup_residual(
    t: float,
    s: float,
    xs,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """max over ``xs`` of |(theta_t * theta_s)(x) - theta_{t+s}(x)|.

    The convolution is evaluated by adaptive quadrature on a window
    centred on the product-Gaussian peak.  Only positive s is supported.
    """
    if t + s <= 0:
        raise DomainError("combined time t + s must be positive")
    if t <= 0 or s <= 0:
        raise DomainError("semigroup check is restricted to positive t and s")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    tau = t * s / (t + s)
    width = cfg.kernel_width(tau)
    worst = 0.0
    for x in xs:
        centre = x * s / (t + s)

        def integrand(y, _x=x):
            return theta_values(_x - y, t) * theta_values(y, s)

        value, _ = integrate(integrand, centre - width, centre + width, cfg)
        worst = max(worst, abs(value - float(theta_values(x, t + s))))
    return worst
