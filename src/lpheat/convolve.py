"""Convolution engine against the heat kernel and its derivatives.

``convolve_point`` evaluates (F * theta_t^(n))(x) by adaptive quadrature
on the window where the kernel factor is non-negligible, intersected
with the effective support of F.  The neglected remainder, at most
sup|F| times the kernel tail mass beyond ``tail_width_sigmas`` standard
deviations, is not computed.

``convolve_values`` is the one per-point path, one dispatch: the
variant's closed form ``F.heat_flow(t, xs, order=n)`` where it has one
(every order for indicators, step combinations and Gaussian powers,
n = 0 for sampled data), else a loop of ``convolve_point``, which stays
the oracle for every closed form.  So the norms of F * theta_t behind
||v_t||'_r are one adaptive quadrature over closed-form values, not
quadrature inside quadrature, except for the slow-tail profiles.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exceptions import DomainError, UnsupportedOrderError
from .kernel import MAX_DERIV_ORDER, theta_deriv_values
from .lp_space import PrimitiveFunction, _moderate_window, _window_lp_norm
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
    """(F * theta_t^(n))(x) at each of ``xs``, n = psi_order: the
    variant's closed form ``F.heat_flow`` where it has one at order n,
    else ``convolve_point`` per point."""
    _validate_conv_args(t, psi_order)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise DomainError("evaluation point must be finite")
    flow = F.heat_flow(t, xs, int(psi_order))
    if flow is not None:
        return flow
    return np.array([convolve_point(F, psi_order, t, x, cfg) for x in xs])


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
    prims = [F for _, F in terms]
    lo, hi = _moderate_window(prims, cfg.kernel_width(t), cfg, "full-line convolution norms")

    def combo(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros_like(xs)
        for c, F in terms:
            out += c * convolve_values(F, psi_order, t, xs, cfg)
        return out

    # for finite r, normalize by a scanned peak and seed the partition with
    # the scan nodes so narrow features inside a wide window are never missed
    scan = np.linspace(lo, hi, 33)
    seeds = [e for F in prims for e in F.effective_support(cfg)] + list(scan[1:-1])
    return _window_lp_norm(
        combo, lo, hi, r, cfg, lambda: float(np.max(np.abs(combo(scan)))), seeds, scan_nodes=1025
    )
