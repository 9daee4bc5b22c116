"""Distributions that are derivatives of L^p functions.

An element is stored through its unique primitive F in L^p together
with the exponent, and nothing else; its norm is by definition the L^p
norm of the primitive, which makes the space isometric to L^p.  When F
is a step function the element is a finite combination of Dirac
differences, and ``atoms`` reads those off F's jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ApproximationError, DomainError, MembershipError
from .lp_space import (
    Indicator,
    PrimitiveFunction,
    StepCombo,
    _json_number,
    lp_norm,
    primitive_from_json,
)
from .constants import conjugate
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, composite_gk15, integrate

_ATOM_TOL = 1e-12
_MAX_BINS = 65536  # step_approximation stops doubling past this bin count


@dataclass(frozen=True)
class LprimeElement:
    """f = F' with primitive F in L^p."""

    primitive: PrimitiveFunction
    p: float

    def __post_init__(self):
        p = float(self.p)
        if math.isnan(p) or not (1.0 <= p < math.inf):
            raise DomainError(f"element exponent must lie in [1, inf), got {p}")
        object.__setattr__(self, "p", p)
        if not self.primitive.admits(p):
            raise MembershipError(
                f"primitive variant {self.primitive.kind!r} is not in L^{p}"
            )

    @property
    def atoms(self) -> tuple[tuple[float, float], ...] | None:
        """(weight, location) Dirac atoms of F' sorted by location for step F, else None."""
        jumps = self.primitive.jumps()
        if jumps is None:
            return None
        return tuple((float(w), float(loc)) for loc, w in sorted(jumps.items()))


def from_primitive(F: PrimitiveFunction, p: float) -> LprimeElement:
    """Element f = F'."""
    return LprimeElement(F, p)


def dirac_difference(a: float, b: float, p: float = 2.0) -> LprimeElement:
    """The element delta_a - delta_b, primitive indicator of [a, b].

    It lies in the space for every finite exponent; ``p`` picks the one
    this element is tagged with.
    """
    if not (a < b):
        raise DomainError("dirac difference requires a < b")
    return LprimeElement(Indicator(a, b), p)


def lprime_norm(f: LprimeElement, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """||f||' = ||F||_p, computed on the primitive (isometry by definition)."""
    return lp_norm(f.primitive, f.p, cfg)


@dataclass(frozen=True)
class StepApproximation:
    element: LprimeElement
    achieved_error: float
    bins: int


def step_approximation(
    f: LprimeElement,
    epsilon: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> StepApproximation:
    """Dirac-combination approximation g with ||f - g||' below epsilon.

    Builds midpoint-sampled uniform bins on an epsilon-certified window
    and doubles the bin count, up to ``_MAX_BINS``, until the
    quadrature-measured error drops below the target.  Step-type inputs
    are already exact and are returned unchanged.
    """
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise DomainError("approximation target must be positive")
    F = f.primitive
    jumps = F.jumps()
    if jumps is not None:
        return StepApproximation(f, 0.0, len(jumps))
    p = f.p
    lo, hi = F.truncation_window(p, epsilon / 2.0, cfg)
    tail_power = F.tail_power_outside(p, lo, hi)
    brk = [b for b in F.breakpoints() if lo < b < hi]

    bins = 8
    best_err = math.inf
    while bins <= _MAX_BINS:
        edges = np.linspace(lo, hi, bins + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        heights = np.asarray(F.values(mids), dtype=float)

        panel_edges = np.unique(np.concatenate([edges, np.asarray(brk, dtype=float)]))

        def diff_power(x, _edges=edges, _heights=heights):
            idx = np.clip(np.searchsorted(_edges, x, side="right") - 1, 0, len(_heights) - 1)
            return np.abs(F.values(x) - _heights[idx]) ** p

        inner_power, _ = composite_gk15(diff_power, panel_edges)
        err = (max(inner_power, 0.0) + tail_power) ** (1.0 / p)
        best_err = min(best_err, err)
        if err < epsilon:
            if heights.any():
                # a generator, so StepCombo.__post_init__ builds the only tuple
                steps = ((h, a, b) for h, a, b in zip(heights, edges[:-1], edges[1:]) if h != 0.0)
            else:
                steps = ((0.0, lo, hi),)  # zero data approximated by a zero step
            element = from_primitive(StepCombo(steps), p)
            return StepApproximation(element, err, bins)
        bins *= 2
    raise ApproximationError(
        f"could not reach error {epsilon} within {_MAX_BINS} bins", best_error=best_err
    )


def pairing(
    f: LprimeElement,
    g_density: PrimitiveFunction,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Action of f on G(x) = int_0^x g, computed by parts as -int F g.

    The density must belong to the conjugate Lebesgue space of f's
    exponent.
    """
    q = conjugate(f.p)
    if not g_density.admits(q):
        raise MembershipError(
            f"pairing density must lie in the conjugate space L^{q}"
        )
    F = f.primitive
    flo, fhi = F.effective_support(cfg)
    glo, ghi = g_density.effective_support(cfg)
    lo, hi = max(flo, glo), min(fhi, ghi)
    if lo >= hi:
        return 0.0
    pts = list(F.breakpoints()) + list(g_density.breakpoints())

    def integrand(x):
        return F.values(x) * g_density.values(x)

    val, _ = integrate(integrand, lo, hi, cfg, points=pts)
    return -val


def element_from_json(data: dict) -> LprimeElement:
    """The element a JSON descriptor names: ``primitive`` (see
    ``primitive_from_json``) and ``p``.  Optional ``atoms``, a list of
    [weight, location], must match the primitive's jumps and are then
    dropped (F determines them)."""
    if not isinstance(data, dict) or "primitive" not in data or "p" not in data:
        raise DomainError("element descriptor needs 'primitive' and 'p' fields")
    primitive = primitive_from_json(data["primitive"])
    try:
        p = _json_number(data["p"])
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed exponent p: {exc}") from exc
    f = LprimeElement(primitive, p)
    if data.get("atoms") is not None:
        try:
            atoms = [(_json_number(w), _json_number(loc)) for w, loc in data["atoms"]]
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed atoms: {exc}") from exc
        jumps = primitive.jumps()
        if jumps is None:
            raise DomainError("atoms require a step-type primitive")
        declared = {loc: w for w, loc in atoms}
        for loc in set(declared) | set(jumps):
            if abs(declared.get(loc, 0.0) - jumps.get(loc, 0.0)) > _ATOM_TOL:
                raise DomainError(f"atom weights at {loc} disagree with the primitive's jumps")
    return f
