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
_MAX_BINS = 65536  # step_approximation gives up before a round would pass this bin count


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

    Builds midpoint-sampled bins on an epsilon-certified window, eight
    uniform ones with F's breakpoints as further edges, and refines them
    where the error is: each round halves every bin whose power
    int |F - F(mid)|^p exceeds its equal share of epsilon^p less the
    certified tail power, until the measured error drops below the target
    or the next round would pass ``_MAX_BINS`` bins.  Each round's new bins
    are measured together (``_bin_powers``).  Step-type inputs are
    already exact and are returned unchanged.
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
    edges = np.union1d(np.linspace(lo, hi, 9), [b for b in F.breakpoints() if lo < b < hi])
    a, b = edges[:-1], edges[1:]
    heights, power = _bin_powers(F, p, a, b)
    best_err = math.inf
    while True:
        err = (float(power.sum()) + tail_power) ** (1.0 / p)
        best_err = min(best_err, err)
        if err < epsilon:
            break
        split = power >= min((epsilon**p - tail_power) / power.size, power.max())
        if power.size + np.count_nonzero(split) > _MAX_BINS:
            raise ApproximationError(
                f"could not reach error {epsilon} within {_MAX_BINS} bins", best_error=best_err
            )
        mid = 0.5 * (a[split] + b[split])
        new_a = np.column_stack((a[split], mid)).ravel()
        new_b = np.column_stack((mid, b[split])).ravel()
        new_heights, new_power = _bin_powers(F, p, new_a, new_b)
        order = np.argsort(np.concatenate((a[~split], new_a)), kind="stable")
        a, b, heights, power = (np.concatenate((old[~split], new))[order] for old, new in
                                ((a, new_a), (b, new_b), (heights, new_heights), (power, new_power)))
    if heights.any():
        # a generator, so StepCombo.__post_init__ builds the only tuple
        steps = ((h, l, r) for h, l, r in zip(heights, a, b) if h != 0.0)
    else:
        steps = ((0.0, lo, hi),)  # zero data approximated by a zero step
    return StepApproximation(from_primitive(StepCombo(steps), p), err, heights.size)


def _bin_powers(F: PrimitiveFunction, p: float, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint heights h = F(mid) of the sorted, disjoint bins [a, b] and
    their powers int_a^b |F - h|^p, by the K15 rule on four panels per half
    bin: |F - h| has its kink at the midpoint, and further ones where a bin
    spans a sine arch.  One ``composite_gk15`` call takes ``_MAX_BINS // 16``
    bins, half the panels of one call on ``_MAX_BINS`` one-panel bins."""
    mid = 0.5 * (a + b)
    heights = np.asarray(F.values(mid), dtype=float)

    def diff_power(x):
        return np.abs(F.values(x) - heights[np.searchsorted(a, x, side="right") - 1]) ** p

    quarters = np.array([0.0, 0.25, 0.5, 0.75])
    rows = np.hstack((a[:, None] + (mid - a)[:, None] * quarters, mid[:, None] + (b - mid)[:, None] * quarters,
                      b[:, None]))
    step = _MAX_BINS // 16
    return heights, np.concatenate([composite_gk15(diff_power, rows[i : i + step])[0] for i in range(0, a.size, step)])


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
