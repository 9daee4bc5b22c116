"""Convolution engine against the heat kernel and its derivatives.

``convolve_point`` evaluates (F * theta_t^(n))(x) by adaptive quadrature
on the window where the kernel factor is non-negligible, intersected
with the effective support of F.  The neglected remainder, at most
sup|F| times the kernel tail mass beyond ten standard deviations
(``QuadratureConfig.kernel_width``), is not computed.

``convolve_values`` is the one per-point path, one dispatch: the
variant's closed form ``F.heat_flow(t, xs, order=n)`` where it has one
(a sum over the atoms of F'' through the atom kernel of
``kernel._smoothing``: every order for Gaussian powers and for
piecewise-linear data without kinks, such as step data; n = 0 for
piecewise-linear data with kinks, such as a sampled grid), else a loop
of ``convolve_point``, which stays the oracle for every closed form.  So
the norms of F * theta_t behind ||v_t||'_r are one adaptive quadrature
over closed-form values, not quadrature inside quadrature, except for
the slow-tail profiles.

``Heated(F, t, n, cfg)`` is that flow as a catalog function, so every
norm of a heat flow, or of a flow minus its data, is one
``combo_lp_norm``: ``convolution_lp_norm`` is that norm over ``Heated``
terms.  At p = 2 on piecewise-linear data that norm takes no quadrature:
a flow hands ``combo_lp_norm`` its data's atoms of F'' at its own time
and kernel order (``Heated._flow_atoms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DomainError, QuadratureAccuracyError, UnsupportedOrderError
from .kernel import MAX_DERIV_ORDER, theta_deriv_values
from .lp_space import PrimitiveFunction, combo_lp_norm
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
    """(F * theta_t^(n))(x) with n = psi_order, by adaptive quadrature;
    QuadratureAccuracyError where ``x -+ kernel_width(t)`` rounds to ``x``."""
    _validate_conv_args(t, psi_order)
    if not math.isfinite(x):
        raise DomainError("evaluation point must be finite")
    n = int(psi_order)
    width = cfg.kernel_width(t)
    if x - width == x or x + width == x:
        raise QuadratureAccuracyError(f"window below floating-point resolution at x={float(x)!r}", math.nan, math.inf)
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


@dataclass(frozen=True)
class Heated(PrimitiveFunction):
    """The heat flow F * theta_t^(n) as a catalog function for norms: its
    values are ``convolve_values``, its window is F's support widened by
    the kernel width, and F's support edges and jumps seed quadrature
    partitions.  It has no sup_bound: ``combo_lp_norm`` scans the
    combination.  Its atoms are F's, moved to time t and order + n.
    (t, n) are checked when the flow is built."""

    F: PrimitiveFunction
    t: float
    n: int
    cfg: QuadratureConfig
    kind = "heated"

    def __post_init__(self):
        _validate_conv_args(self.t, self.n)

    def values(self, x):
        return convolve_values(self.F, self.n, self.t, x, self.cfg)

    def breakpoints(self):
        return tuple(sorted({*self.F.effective_support(self.cfg), *(self.F.jumps() or ())}))

    def effective_support(self, cfg):
        lo, hi = self.F.effective_support(cfg)
        width = cfg.kernel_width(self.t)
        return lo - width, hi + width

    def source(self):
        return self.F

    def _kernel_multiple(self):
        # c theta_s * theta_t = c theta_{s + t} at order 0
        multiple = self.F._kernel_multiple() if self.n == 0 else None
        return None if multiple is None else (multiple[0], multiple[1] + self.t)

    def _flow_atoms(self):
        rows = self.F._flow_atoms()
        if rows is None:
            return None
        return tuple((t + self.t, n + self.n, o + self.n, locs, w) for t, n, o, locs, w in rows)


def convolution_lp_norm(
    terms: Sequence[tuple[float, PrimitiveFunction]],
    psi_order: int,
    t: float,
    r: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """L^r norm over the line of x -> sum_i c_i (F_i * theta_t^(n))(x):
    ``combo_lp_norm`` over ``Heated`` terms, so supported for data of
    moderate support (compact variants, Gaussian powers, sampled data).
    """
    return combo_lp_norm([(c, Heated(F, t, psi_order, cfg)) for c, F in terms], r, cfg)
