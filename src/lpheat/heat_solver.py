"""The solution map v_t = f * theta_t for derivative-of-L^p initial data.

Values come from the kernel-derivative convolution of the primitive,
v_t(x) = (F * theta_t')(x), at a batch of points per call
(``solve_values``): a closed form for piecewise-linear primitives
without kinks, such as step data (sum_i w_i theta_t(x - a_i) over the
jumps, each a delta' atom of F'' through the atom kernel of
``kernel._smoothing``), and Gaussian powers (c theta_{s+t}'), see
``PrimitiveFunction.heat_flow``, else one adaptive quadrature per point
(data with kinks, such as a sampled grid, and the slow tails).  Either
way a point's value does not depend on the other points of the call, so
callers evaluate all their points at one time level in one call.  Norms
of v_t in the derivative space are L^r norms of its primitive
F * theta_t, and the initial-data
convergence is the L^p norm of F * theta_t - F: both are
``combo_lp_norm`` over ``convolve.Heated`` terms, the one norm path,
scaled by the combination's own scanned peak.  For compact data
F * theta_t is a closed form, so each of these norms costs one adaptive
quadrature; at r = 2 (and p = 2 for the initial-data convergence) on
piecewise-linear data it costs none, since the energy identity gives
the norm as a double sum over the atoms of F''.  For a Gaussian power
c theta_s, ||v_t||'_r costs none at any r either: F * theta_t is
c theta_{s+t}, whose norm is closed form.  The
flow arguments (t, order) are checked once, where the flow is built:
``convolve_values`` or ``Heated``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .convolve import Heated, convolve_values, convolution_lp_norm
from .exceptions import DomainError
from .lp_space import combo_lp_norm
from .lprime import LprimeElement
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate


def solve_values(
    f: LprimeElement,
    t: float,
    xs,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """v_t at each of ``xs``: the convolution F * theta_t'."""
    return convolve_values(f.primitive, 1, t, xs, cfg)


def solution_primitive_norm(
    f: LprimeElement,
    t: float,
    r: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """||v_t||'_r, measured as the L^r norm of F * theta_t."""
    return convolution_lp_norm([(1.0, f.primitive)], 0, t, r, cfg)


def pde_residual(
    f: LprimeElement,
    x: float,
    t: float,
    h_x: float,
    h_t: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Central-stencil heat-operator residual at (x, t); O(h^2) for solutions."""
    if not (h_x > 0 and h_t > 0):
        raise DomainError("stencil widths must be positive")
    if t - h_t <= 0:
        raise DomainError("time stencil would cross t = 0")
    behind, v, ahead = solve_values(f, t, [x - h_x, x, x + h_x], cfg).tolist()
    later = float(solve_values(f, t + h_t, [x], cfg)[0])
    earlier = float(solve_values(f, t - h_t, [x], cfg)[0])
    v_xx = (ahead - 2.0 * v + behind) / (h_x * h_x)
    v_t = (later - earlier) / (2.0 * h_t)
    return v_xx - v_t


def ic_convergence(
    f: LprimeElement,
    t_sequence: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> list[float]:
    """||v_t - f||'_p along the given times, via the primitive identity:
    the L^p norm of F * theta_t - F."""
    F = f.primitive
    return [combo_lp_norm([(1.0, Heated(F, t, 0, cfg)), (-1.0, F)], f.p, cfg) for t in t_sequence]


@dataclass(frozen=True)
class TestFunction:
    """Smooth decaying test profile, given by its derivative and the window
    outside which that derivative is negligible."""

    deriv: Callable
    window: tuple[float, float]


def gaussian_test_function() -> TestFunction:
    """phi(x) = exp(-x^2)."""
    return TestFunction(
        deriv=lambda x: -2.0 * np.asarray(x, dtype=float) * np.exp(-np.asarray(x, dtype=float) ** 2),
        window=(-9.0, 9.0),
    )


def weak_ic_check(
    f: LprimeElement,
    test_fn: TestFunction,
    t_sequence: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> list[float]:
    """Distributional pairing <v_t - f, phi> = -int (F*theta_t - F) phi'."""
    F = f.primitive
    lo, hi = test_fn.window
    out = []
    for t in t_sequence:
        def integrand(xs, _t=t):
            return (convolve_values(F, 0, _t, xs, cfg) - F.values(xs)) * test_fn.deriv(xs)

        val, _ = integrate(integrand, lo, hi, cfg, points=F.breakpoints())
        out.append(-val)
    return out
