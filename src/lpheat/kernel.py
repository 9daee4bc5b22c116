"""Gauss-Weierstrass heat kernel arithmetic.

    theta(x, t) = exp(-x^2 / (4 t)) / (2 sqrt(pi t)),   t > 0.

Provides vectorized values, spatial derivatives up to order 8 through
the Hermite-style recurrence

    theta^(n) = -(x / 2t) theta^(n-1) - ((n-1) / 2t) theta^(n-2),

(the kernel solves the heat equation, so order 2 is also its time
derivative), the closed-form Lebesgue norms of the kernel and its first
derivative, and a quadrature check of the semigroup identity
theta_t * theta_s = theta_{t+s} (all points in one batched
``composite_gk15`` call, adaptive ``integrate`` where its error estimate
is over tolerance).

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

import numpy as np

from .exceptions import DomainError
from .quadrature import _BLOCK_ENTRIES, DEFAULT_CONFIG, QuadratureConfig, composite_gk15, integrate

MAX_DERIV_ORDER = 8
_SEMIGROUP_PANELS = 20  # uniform panels per semigroup window, each about one product-Gaussian sigma

_TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)


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


def _validate_exponent(q: float, name: str = "exponent") -> float:
    q = float(q)
    if math.isnan(q) or q < 1.0:
        raise DomainError(f"{name} out of range: must lie in [1, inf], got {q}")
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


def semigroup_residual(
    t: float,
    s: float,
    xs,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """max over ``xs`` of |(theta_t * theta_s)(x) - theta_{t+s}(x)|.

    Each point's convolution is one row of a ``composite_gk15`` call on
    ``_SEMIGROUP_PANELS`` uniform panels of a window centred on the
    product-Gaussian peak.  A row whose K15-G7 error exceeds the
    tolerance is redone by adaptive quadrature on the same window.  Only
    positive s is supported.
    """
    if t <= 0 or s <= 0:
        raise DomainError("semigroup check is restricted to positive t and s")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    tau = t * s / (t + s)
    width = cfg.kernel_width(tau)
    centres = xs * s / (t + s)
    offsets = np.linspace(-width, width, _SEMIGROUP_PANELS + 1)
    row_nodes = 15 * _SEMIGROUP_PANELS  # K15 nodes per row
    step = max(1, _BLOCK_ENTRIES // row_nodes)  # one composite_gk15 block, so each node meets its own x

    def convolution_at(x):
        return lambda y: theta_values(x - y, t) * theta_values(y, s)

    worst = 0.0
    for i in range(0, xs.size, step):
        x, centre = xs[i : i + step], centres[i : i + step]
        values, errors = composite_gk15(convolution_at(np.repeat(x, row_nodes)), centre[:, None] + offsets)
        for xk, ck, value, err in zip(x.tolist(), centre.tolist(), values.tolist(), errors.tolist()):
            if err > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
                value, _ = integrate(convolution_at(xk), ck - width, ck + width, cfg)
            worst = max(worst, abs(value - float(theta_values(xk, t + s))))
    return worst
