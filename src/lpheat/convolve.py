"""Convolution engine against the heat kernel and its derivatives.

``convolve_point`` evaluates (F * theta_t^(n))(x) by adaptive quadrature
on the window where the kernel factor is non-negligible, intersected
with the effective support of F.  The neglected remainder is bounded by
sup|F| times the kernel tail mass beyond ``tail_width_sigmas`` standard
deviations, far below the quadrature tolerance for the default widths.

``convolve_grid`` is the fast path for plotting and sweeps: sampled
kernel, FFT, zero-padding to at least twice the data length so the
circular convolution never wraps.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exceptions import DomainError, ResolutionError, UnsupportedOrderError
from .kernel import MAX_DERIV_ORDER, theta_deriv_values
from .lp_space import GridFunction, PrimitiveFunction, _scan_refine_max
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate


def _validate_conv_args(t: float, psi_order: int):
    if not (t > 0 and math.isfinite(t)):
        raise DomainError("kernel time must be positive and finite")
    if psi_order < 0 or int(psi_order) != psi_order:
        raise DomainError("kernel derivative order must be a nonnegative integer")
    if psi_order > MAX_DERIV_ORDER:
        raise UnsupportedOrderError(
            f"kernel derivative order {psi_order} exceeds {MAX_DERIV_ORDER}"
        )


def convolve_point(
    F: PrimitiveFunction,
    psi_order: int,
    t: float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """(F * theta_t^(n))(x) with n = psi_order, by adaptive quadrature."""
    _validate_conv_args(t, psi_order)
    if not math.isfinite(x):
        raise DomainError("evaluation point must be finite")
    n = int(psi_order)
    width = cfg.kernel_width(t)
    slo, shi = F.effective_support(cfg)
    lo = max(x - width, slo)
    hi = min(x + width, shi)
    if lo >= hi:
        # kernel window and support are disjoint; remainder is below tolerance
        return 0.0

    def integrand(u):
        return F.values(u) * theta_deriv_values(x - u, t, n)

    val, _ = integrate(integrand, lo, hi, cfg, points=F.breakpoints())
    return val


def convolve_values(
    F: PrimitiveFunction,
    psi_order: int,
    t: float,
    xs,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return np.array([convolve_point(F, psi_order, t, x, cfg) for x in xs])


def convolve_grid(
    F: GridFunction,
    t: float,
    psi_order: int = 0,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> GridFunction:
    """Discrete convolution of grid samples with the sampled kernel.

    The kernel is sampled on the same spacing and, for order 0,
    renormalized so its discrete sum times dx equals 1; derivative
    orders keep their raw samples (their discrete sum is already close
    to zero).  Accuracy at the nodes is second order in dx plus the
    truncated tail.
    """
    _validate_conv_args(t, psi_order)
    if F.dx > math.sqrt(t):
        raise ResolutionError(
            f"grid spacing {F.dx} too coarse for kernel time {t}; need dx <= sqrt(t)"
        )
    m = int(math.ceil(cfg.kernel_width(t) / F.dx))
    knodes = F.dx * np.arange(-m, m + 1)
    kvals = theta_deriv_values(knodes, t, int(psi_order))
    if psi_order == 0:
        kvals = kvals / (kvals.sum() * F.dx)
    data = F.array()
    n = data.size
    length = n + kvals.size - 1
    nfft = 1
    while nfft < length:
        nfft <<= 1
    spectrum = np.fft.rfft(data, nfft) * np.fft.rfft(kvals, nfft)
    full = np.fft.irfft(spectrum, nfft)[:length]
    out = full[m: m + n] * F.dx
    return GridFunction(F.x0, F.dx, tuple(float(v) for v in out))


def convolve_smooth_derivative_check(
    F: PrimitiveFunction,
    t: float,
    n: int,
    x: float,
    h: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Central difference of order n-1 versus the direct order-n convolution.

    Returns ``(lhs, rhs)``; their gap is O(h^2) when differentiation
    commutes with the convolution.
    """
    if n < 1 or int(n) != n:
        raise DomainError("commutation check needs derivative order n >= 1")
    if not (h > 0 and math.isfinite(h)):
        raise DomainError("finite-difference step must be positive")
    lhs = (
        convolve_point(F, n - 1, t, x + h, cfg) - convolve_point(F, n - 1, t, x - h, cfg)
    ) / (2.0 * h)
    rhs = convolve_point(F, n, t, x, cfg)
    return lhs, rhs


def convolution_lp_norm(
    terms: Sequence[tuple[float, PrimitiveFunction]],
    psi_order: int,
    t: float,
    r: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """L^r norm over the line of x -> sum_i c_i (F_i * theta_t^(n))(x).

    Works on finite certified windows; supported for terms whose
    effective supports are of moderate size (compact variants, Gaussian
    powers, sampled data).
    """
    _validate_conv_args(t, psi_order)
    r = float(r)
    if math.isnan(r) or r < 1.0:
        raise DomainError(f"norm exponent must lie in [1, inf], got {r}")
    if not terms:
        return 0.0
    width = cfg.kernel_width(t)
    los, his, seeds = [], [], []
    for _, F in terms:
        slo, shi = F.effective_support(cfg)
        if shi - slo > 1e6:
            raise DomainError(
                f"full-line convolution norms are not supported for variant {F.kind!r}"
            )
        los.append(slo)
        his.append(shi)
        seeds.extend((slo, shi))
    lo = min(los) - width
    hi = max(his) + width

    def combo(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros_like(xs)
        for c, F in terms:
            out += c * convolve_values(F, psi_order, t, xs, cfg)
        return out

    if math.isinf(r):
        return _scan_refine_max(combo, lo, hi, 1025)

    # normalize by a scanned peak so the tolerances act relatively even
    # when |v|^r is many orders below 1, and seed the partition with the
    # scan nodes so narrow features inside a wide window are never missed
    scan = np.linspace(lo, hi, 33)
    scale = float(np.max(np.abs(combo(scan))))
    if scale == 0.0:
        return 0.0

    def integrand(xs):
        return np.abs(combo(xs) / scale) ** r

    val, _ = integrate(integrand, lo, hi, cfg, points=list(seeds) + list(scan[1:-1]))
    return scale * val ** (1.0 / r)
