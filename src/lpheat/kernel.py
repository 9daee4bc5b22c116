"""Gauss-Weierstrass heat kernel arithmetic.

    theta(x, t) = exp(-x^2 / (4 t)) / (2 sqrt(pi t)),   t > 0.

Provides vectorized values, spatial derivatives up to order 8 through
the Hermite-style recurrence

    theta^(n) = -(x / 2t) theta^(n-1) - ((n-1) / 2t) theta^(n-2),

(the kernel solves the heat equation, so order 2 is also its time
derivative), the atom kernel K_tau^(o) = K_0^(o) * theta_tau, o = -4..8,
that every closed-form flow of piecewise-linear data and every
energy-identity pair sum runs through (``_smoothing``), the closed-form
Lebesgue norms of the kernel and its first derivative, and a quadrature
check of the semigroup identity theta_t * theta_s = theta_{t+s} (all
points in one batched ``composite_gk15`` call, adaptive ``integrate``
where its error estimate is over tolerance).

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


_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _erfc(z) -> np.ndarray:
    """Elementwise ``math.erfc``, bit for bit (numpy has no erf).  At z <= -6
    and z >= 28 the correctly rounded erfc, which ``math.erfc`` returns, is
    exactly 2.0 or 0.0: past 64 values those are filled in without the call,
    and NaN and everything between go through one ``map``; on 64 values or
    fewer one ``map`` takes them all, for less than the masks cost."""
    z = np.asarray(z, dtype=float)
    if z.size <= 64:
        return np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)
    low = z <= -6.0
    out = np.where(low, 2.0, 0.0)
    mid = ~(low | (z >= 28.0))
    out[mid] = np.fromiter(map(math.erfc, z[mid].tolist()), float, np.count_nonzero(mid))
    return out


def _exp_neg_square(w: np.ndarray) -> np.ndarray:
    """exp(-w^2) to a few ulp: w^2 is split as h^2 + (w - h)(w + h) with h
    the float32 rounding of w, so the large part of the exponent is exact."""
    w = np.minimum(np.maximum(w, -40.0), 40.0)  # exp(-1600) underflows to 0 either way
    h = w.astype(np.float32).astype(float)
    return np.exp(-h * h) * np.exp((h - w) * (w + h))


def _bare_kernel(d: np.ndarray, o: int) -> np.ndarray:
    """K_0^(o)(d) for o = 0..-4: the point mass, 0 off the origin (and at
    it, where pair sums meet only offsets that cannot move), then sgn(d) / 2,
    |d| / 2, d |d| / 4, |d|^3 / 12, each the derivative of the next; sgn(0)
    = 0, as pair sums need it."""
    if o == 0:
        return np.zeros_like(d)
    if o == -1:
        return np.sign(d) / 2.0
    ad = np.abs(d)
    if o == -2:
        return ad / 2.0
    return d * ad / 4.0 if o == -3 else ad * (d * d) / 12.0


def _tails(ad: np.ndarray, taus) -> tuple[np.ndarray, np.ndarray]:
    """erfc(u) and exp(-u^2) at u = |d| / 2 sqrt(tau), one column per tau of
    ``taus``, in one pass over the offsets |d| = ``ad`` for all of them."""
    u = np.divide.outer(ad, [2.0 * math.sqrt(tau) for tau in taus])
    return _erfc(u), _exp_neg_square(u)


def _smoothing(d: np.ndarray, tau: float, o: int, e=None, x=None, right: bool = False) -> np.ndarray:
    """K_tau^(o)(d) - K_0^(o)(d) for o = -4..8: at o < 0 E sgn(X) / 2, E|X| / 2,
    E[X|X|] / 4, E|X|^3 / 12 for X ~ N(d, sigma^2), sigma^2 = 2 tau, less
    their bare part, and theta_tau^(o) at o >= 0 (no bare part).  At o < 0 it
    is written in e = erfc(|u|) and g = sigma sqrt(2 / pi) x, x = exp(-u^2),
    u = d / 2 sqrt(tau), so the parts that decay with |d| / sigma carry no
    K_0.  A caller may pass e and x (``_tails``), else they are computed
    here, e where o < 0 and x where o < -1.  sgn(0) is 0 for pair sums and
    +1 with ``right`` for a pointwise flow, whose level at a knot is the
    right limit."""
    if o >= 0:
        # past 1e3 sqrt(tau) the kernel underflows to 0; the clip keeps d / 2 tau
        # finite there, so the recurrence gives those zeros, not inf * 0
        edge = 1e3 * math.sqrt(tau)
        return theta_deriv_values(np.minimum(np.maximum(d, -edge), edge), tau, o)
    if e is None:
        u = np.abs(d) / (2.0 * math.sqrt(tau))
        e, x = _erfc(u), (_exp_neg_square(u) if o < -1 else None)
    if o == -1:  # -sgn(d) e / 2
        return (np.where(d >= 0.0, -0.5, 0.5) if right else -0.5 * np.sign(d)) * e
    ad, s2 = np.abs(d), 2.0 * tau
    g = math.sqrt(s2) * _SQRT_2_OVER_PI * x
    if o == -2:
        return (g - ad * e) / 2.0
    d2 = d * d
    if o == -3:
        sign = np.where(d >= 0.0, 1.0, -1.0) if right else np.sign(d)
        return sign * (s2 - (d2 + s2) * e + ad * g) / 4.0
    return (3.0 * s2 * ad - (d2 + 3.0 * s2) * ad * e + g * (d2 + 2.0 * s2)) / 12.0


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
