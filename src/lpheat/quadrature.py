"""Adaptive Gauss-Kronrod quadrature.

Each subinterval is integrated with the (G7, K15) rule pair.  The
absolute difference between the 15-point Kronrod value and the embedded
7-point Gauss value serves as the interval error estimate; for smooth
integrands it overestimates the true error of the Kronrod value, so the
reported value is conservative.  The interval with the largest estimate
is bisected until the summed estimate meets the requested tolerance.

Integrands must accept a numpy array of nodes and return an array of
the same shape.  Known discontinuities or kinks should be passed as
``points`` so the initial partition starts on them; the subdivision
loop then never has to hunt for a jump.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .exceptions import DomainError, QuadratureAccuracyError

# K15 abscissae on [0, 1] side and weights (QUADPACK values); the
# odd-indexed abscissae carry the embedded G7 rule.
_XGK_HALF = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK_HALF = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG_HALF = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

_NODES = np.array([-x for x in _XGK_HALF[:-1]] + [0.0] + [x for x in reversed(_XGK_HALF[:-1])])
_WK = np.array(list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(reversed(_WGK_HALF[:-1])))
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array(list(_WG_HALF[:-1]) + [_WG_HALF[-1]] + list(reversed(_WG_HALF[:-1])))


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and truncation policy for every integral in the package.

    ``tail_width_sigmas`` fixes where Gaussian factors are truncated:
    windows extend ``tail_width_sigmas * sqrt(2 t)`` past the relevant
    support, at which point the neglected closed-form remainder is far
    below ``abs_tol``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 512
    tail_width_sigmas: float = 10.0

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")
        if self.tail_width_sigmas < 6:
            raise DomainError("tail_width_sigmas below 6 would not certify truncation")

    def kernel_width(self, t: float) -> float:
        """Half-width ``tail_width_sigmas * sqrt(2 t)`` of the window kept around theta_t."""
        return self.tail_width_sigmas * math.sqrt(2.0 * t)


DEFAULT_CONFIG = QuadratureConfig()


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _NODES), dtype=float)
    kron = half * float(y @ _WK)
    gauss = half * float(y[_G7_IDX] @ _WG)
    return kron, abs(kron - gauss)


def integrate(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    points: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]``; returns ``(value, error_estimate)``.

    Raises :class:`QuadratureAccuracyError` when the tolerance cannot be
    met within ``cfg.max_subdivisions`` interval splits.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0

    edges = [a]
    for p in sorted(set(float(p) for p in points)):
        if a < p < b:
            edges.append(p)
    edges.append(b)

    total = 0.0
    total_err = 0.0
    heap: list[tuple[float, int, float, float, float, float]] = []
    tie = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, tie, lo, hi, val, err))
        tie += 1

    splits = 0
    width_floor = 64 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if splits >= cfg.max_subdivisions:
            raise QuadratureAccuracyError(
                "quadrature did not converge within the subdivision budget",
                value=sign * total,
                residual=total_err,
            )
        neg_err, _, lo, hi, val, err = heapq.heappop(heap)
        if hi - lo < width_floor:
            # interval is at floating-point resolution; accept its value
            total_err -= err
            continue
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, tie, lo, mid, v1, e1))
        tie += 1
        heapq.heappush(heap, (-e2, tie, mid, hi, v2, e2))
        tie += 1
        splits += 1
    return sign * total, total_err


def composite_gk15(f: Callable, edges: Sequence[float]) -> tuple[float, float]:
    """Non-adaptive K15 rule summed over the panels given by ``edges``.

    Intended for integrands whose smooth pieces are known in advance
    (one oscillation period per panel, say); all panel nodes are
    evaluated in a single vectorized call.
    """
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise DomainError("composite rule needs at least two edges")
    lo = e[:-1]
    hi = e[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _NODES[None, :]
    y = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    kron = half * (y @ _WK)
    gauss = half * (y[:, _G7_IDX] @ _WG)
    return float(kron.sum()), float(np.abs(kron - gauss).sum())


def geometric_edges(a: float, b: float, factor: float = 2.0) -> list[float]:
    """Geometrically spaced panel edges from ``a`` to ``b`` (both > 0)."""
    if not (0 < a < b):
        raise DomainError("geometric edges need 0 < a < b")
    edges = [a]
    x = a
    while x * factor < b:
        x *= factor
        edges.append(x)
    edges.append(b)
    return edges
