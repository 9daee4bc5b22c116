"""Solution map v_t = f * theta_t for derivative-of-L^p initial data.

Pointwise values come from the kernel-derivative convolution of the
primitive, v_t(x) = (F * theta_t')(x), which for step primitives is the
closed form sum_i w_i theta_t(x - a_i) over the jumps (see
``convolve_values``).  Norms of v_t in the derivative space are computed
as L^r norms of F * theta_t, since that convolution is the primitive of
v_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import ExponentTriple, K_const, _inv
from .convolve import convolve_values, convolution_lp_norm
from .exceptions import DomainError
from .lp_space import GridFunction, _moderate_window, _window_lp_norm, combo_lp_norm
from .lprime import LprimeElement
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate
from .report import EstimateReport, make_report


def default_time_sweep(terms: int = 15) -> list[float]:
    """Geometric sweep 1, 1/2, ..., 2^-(terms-1) used by convergence checks.

    Convergence assertions should weight the late terms; the first few
    sit in the preasymptotic regime for rough data.
    """
    if terms < 1:
        raise DomainError("sweep needs at least one term")
    return [2.0 ** -k for k in range(terms)]


def solve_at(
    f: LprimeElement,
    t: float,
    x: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """v_t(x) for initial data f."""
    if not (t > 0 and math.isfinite(t)):
        raise DomainError("time must be positive and finite")
    return float(solve_values(f, t, x, cfg)[0])


def solve_values(
    f: LprimeElement,
    t: float,
    xs,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> np.ndarray:
    """v_t at each of ``xs``: the convolution F * theta_t'."""
    return convolve_values(f.primitive, 1, t, xs, cfg)


@dataclass(frozen=True)
class Solution:
    """Evolved state at a fixed positive time."""

    f: LprimeElement
    t: float

    def __post_init__(self):
        if not (self.t > 0 and math.isfinite(self.t)):
            raise DomainError("time must be positive and finite")

    def at(self, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
        return solve_at(self.f, self.t, x, cfg)

    def on_grid(
        self, x0: float, x1: float, n: int, cfg: QuadratureConfig = DEFAULT_CONFIG
    ) -> GridFunction:
        if n < 2:
            raise DomainError("grid needs at least two nodes")
        xs = np.linspace(x0, x1, n)
        vals = solve_values(self.f, self.t, xs, cfg)
        return GridFunction(x0, (x1 - x0) / (n - 1), tuple(float(v) for v in vals))


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
    v = solve_at(f, t, x, cfg)
    v_xx = (solve_at(f, t, x + h_x, cfg) - 2.0 * v + solve_at(f, t, x - h_x, cfg)) / (h_x * h_x)
    v_t = (solve_at(f, t + h_t, x, cfg) - solve_at(f, t - h_t, x, cfg)) / (2.0 * h_t)
    return v_xx - v_t


def _difference_norm(
    f: LprimeElement, t: float, p: float, cfg: QuadratureConfig
) -> float:
    """||F * theta_t - F||_p on a certified window."""
    F = f.primitive
    lo, hi = _moderate_window([F], cfg.kernel_width(t), cfg, "convergence norms")

    def difference(xs):
        return convolve_values(F, 0, t, xs, cfg) - F.values(xs)

    return _window_lp_norm(difference, lo, hi, p, cfg, lambda: 1.0, F.breakpoints())


def ic_convergence(
    f: LprimeElement,
    t_sequence: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> list[float]:
    """||v_t - f||'_p along the given times, via the primitive identity."""
    for t in t_sequence:
        if t <= 0:
            raise DomainError("all times must be positive")
    return [_difference_norm(f, t, f.p, cfg) for t in t_sequence]


def norm_limit_check(
    f: LprimeElement,
    t_sequence: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> list[float]:
    """||v_t||'_p along the given times; approaches ||f||'_p from below."""
    for t in t_sequence:
        if t <= 0:
            raise DomainError("all times must be positive")
    return [solution_primitive_norm(f, t, f.p, cfg) for t in t_sequence]


@dataclass(frozen=True)
class TestFunction:
    """Smooth decaying test profile with a supplied derivative."""

    name: str
    value: Callable
    deriv: Callable
    window: tuple[float, float]


def gaussian_test_function() -> TestFunction:
    return TestFunction(
        name="exp(-x^2)",
        value=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
        deriv=lambda x: -2.0 * np.asarray(x, dtype=float) * np.exp(-np.asarray(x, dtype=float) ** 2),
        window=(-9.0, 9.0),
    )


def _smooth_step(s: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
        b = np.where(s < 1, np.exp(-1.0 / np.where(s < 1, 1.0 - s, 1.0)), 0.0)
    return a / (a + b)


def _smooth_step_deriv(s: np.ndarray) -> np.ndarray:
    h = 1e-6
    return (_smooth_step(s + h) - _smooth_step(s - h)) / (2.0 * h)


def plateau_test_function(flat_radius: float = 6.0, ramp: float = 2.0) -> TestFunction:
    """Equals 1 on [-flat_radius, flat_radius], smoothly falls to 0 over ``ramp``."""

    def value(x):
        x = np.asarray(x, dtype=float)
        return _smooth_step((flat_radius + ramp - np.abs(x)) / ramp)

    def deriv(x):
        x = np.asarray(x, dtype=float)
        return -np.sign(x) / ramp * _smooth_step_deriv((flat_radius + ramp - np.abs(x)) / ramp)

    return TestFunction(
        name=f"plateau({flat_radius},{ramp})",
        value=value,
        deriv=deriv,
        window=(-(flat_radius + ramp + 1.0), flat_radius + ramp + 1.0),
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
        if t <= 0:
            raise DomainError("all times must be positive")

        def integrand(xs, _t=t):
            return (convolve_values(F, 0, _t, xs, cfg) - F.values(xs)) * test_fn.deriv(xs)

        val, _ = integrate(integrand, lo, hi, cfg, points=F.breakpoints())
        out.append(-val)
    return out


def continuity_bound(
    f: LprimeElement,
    g: LprimeElement,
    tr: ExponentTriple,
    t: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tolerance: float = 1e-8,
) -> EstimateReport:
    """||(f - g) * theta_t||'_r against K_{p,q} ||f - g||'_p t^{-(1-1/q)/2}."""
    if abs(f.p - g.p) > 1e-12 or abs(f.p - tr.p) > 1e-12:
        raise DomainError("both elements and the triple must share the exponent p")
    if not (t > 0 and math.isfinite(t)):
        raise DomainError("time must be positive and finite")
    lhs = convolution_lp_norm([(1.0, f.primitive), (-1.0, g.primitive)], 0, t, tr.r, cfg)
    diff_norm = combo_lp_norm([(1.0, f.primitive), (-1.0, g.primitive)], tr.p, cfg)
    rhs = K_const(tr) * diff_norm * t ** (-(1.0 - _inv(tr.q)) / 2.0)
    return make_report(
        "continuity_in_initial_data",
        measured=lhs,
        bound=rhs,
        tolerance=tolerance,
        params={"p": tr.p, "q": tr.q, "r": tr.r, "t": t},
    )
