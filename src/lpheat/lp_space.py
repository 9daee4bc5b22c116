"""Catalog of L^p functions used as primitives of distributional data.

Variants: indicators, finite step combinations, Gaussian kernel powers,
two slowly decaying tail profiles, and sampled grid data.  Each variant
knows its pointwise values, its jump locations, a finite window outside
which it is negligible at a given tolerance, its ess sup, its L^p norm,
truncation windows with certified tail bounds, and the exponent range
for which it belongs to L^p:

    Indicator, StepCombo, Sampled     every p in [1, inf]
    GaussianPower(t, beta)            every p in [1, inf]
    TailLog(p0):  x^{-1/p0} log^{-2} x on [e, inf)      p >= p0
    TruncatedSine(p0):  x^{-1/p0} sin x on (1, inf)     p >  p0

The log-squared damping makes TailLog(p0) integrable at the exponent p0
itself, while the sine profile just misses it; both diverge below.

Norms are adaptive-quadrature integrals of |F|^p except for Sampled
data (composite trapezoid on the grid, second-order accurate) and the
two tail profiles, which get substitution and period-panel treatments
documented on their ``finite_lp_norm`` methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ApproximationError, DomainError, MembershipError
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    composite_gk15,
    geometric_edges,
    integrate,
)

_E = math.e


@dataclass(frozen=True)
class GridFunction:
    """Uniform-grid samples: values[i] sits at x0 + i * dx."""

    x0: float
    dx: float
    values: tuple[float, ...]

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.dx) and self.dx > 0):
            raise DomainError("grid origin and spacing must be finite, spacing positive")
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise DomainError("grid needs at least two samples")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def x1(self) -> float:
        return self.x0 + (len(self.values) - 1) * self.dx

    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self.values))

    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


class PrimitiveFunction:
    """Base class for the catalog; subclasses are frozen dataclasses."""

    kind: str = ""

    def values(self, x) -> np.ndarray:
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Jump or kink locations that quadrature partitions should honour."""
        return ()

    def effective_support(self, cfg: QuadratureConfig) -> tuple[float, float]:
        """Finite window outside which |F| is negligible for cfg's budget."""
        raise NotImplementedError

    def jumps(self) -> dict[float, float] | None:
        """Signed jump at each breakpoint for step-type variants, else None."""
        return None

    def sup_bound(self) -> float:
        """ess sup |F|: exact, or a scan refined by golden section where no
        maximizer is known."""
        raise NotImplementedError

    def finite_lp_norm(self, p: float, cfg: QuadratureConfig) -> float:
        """(integral of |F|^p)^{1/p} for a finite p that F admits.

        Adaptive quadrature on the effective support, normalized by the
        sup so the tolerances act relatively even when |F|^p is tiny.
        """
        lo, hi = self.effective_support(cfg)
        return _window_lp_norm(self.values, lo, hi, p, cfg, self.sup_bound, self.breakpoints())

    def truncation_window(self, p: float, eps: float, cfg: QuadratureConfig) -> tuple[float, float]:
        """Window whose exterior p-mass is below eps^p."""
        if not self.is_compactly_supported():
            raise DomainError(f"no truncation rule for variant {self.kind!r}")
        return self.effective_support(cfg)

    def tail_power_outside(self, p: float, lo: float, hi: float) -> float:
        """Certified upper bound for the integral of |F|^p outside [lo, hi]."""
        if not self.is_compactly_supported():
            raise DomainError(f"no tail bound for variant {self.kind!r}")
        slo, shi = self.effective_support(DEFAULT_CONFIG)
        if lo <= slo and hi >= shi:
            return 0.0
        raise DomainError("window must contain the support of a compact variant")

    def shifted(self, h: float) -> PrimitiveFunction:
        """x -> F(x - h), for the location-bearing variants."""
        raise DomainError(f"translation is not defined for variant {self.kind!r}")

    def admits(self, p: float) -> bool:
        """Whether F belongs to L^p."""
        raise NotImplementedError

    def is_compactly_supported(self) -> bool:
        return False

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Indicator(PrimitiveFunction):
    """Characteristic function of [a, b]."""

    a: float
    b: float
    kind = "indicator"

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise DomainError("indicator requires finite a < b")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return ((x >= self.a) & (x <= self.b)).astype(float)

    def breakpoints(self):
        return (self.a, self.b)

    def jumps(self):
        return {self.a: 1.0, self.b: -1.0}

    def effective_support(self, cfg):
        return (self.a, self.b)

    def sup_bound(self):
        return 1.0

    def shifted(self, h):
        return Indicator(self.a + h, self.b + h)

    def admits(self, p):
        return True

    def is_compactly_supported(self):
        return True

    def to_json(self):
        return {"type": "indicator", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class StepCombo(PrimitiveFunction):
    """Finite sum of height * indicator([a, b]) terms; overlaps add."""

    steps: tuple[tuple[float, float, float], ...]
    kind = "step_combo"

    def __post_init__(self):
        steps = tuple((float(h), float(a), float(b)) for h, a, b in self.steps)
        if not steps:
            raise DomainError("step combination must contain at least one step")
        for h, a, b in steps:
            if not (math.isfinite(h) and math.isfinite(a) and math.isfinite(b)):
                raise DomainError("step parameters must be finite")
            if a >= b:
                raise DomainError("each step requires a < b")
        object.__setattr__(self, "steps", steps)

    def values(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for h, a, b in self.steps:
            out += h * ((x >= a) & (x <= b))
        return out

    def breakpoints(self):
        pts = set()
        for _, a, b in self.steps:
            pts.add(a)
            pts.add(b)
        return tuple(sorted(pts))

    def levels(self) -> list[tuple[float, float, float]]:
        """Constant pieces as (lo, hi, value) on the open cells between jumps."""
        cuts = self.breakpoints()
        out = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (lo + hi)
            val = sum(h for h, a, b in self.steps if a <= mid <= b)
            out.append((lo, hi, val))
        return out

    def jumps(self) -> dict[float, float]:
        """Signed jump at each breakpoint (value after minus value before)."""
        out: dict[float, float] = {}
        for h, a, b in self.steps:
            out[a] = out.get(a, 0.0) + h
            out[b] = out.get(b, 0.0) - h
        return {loc: j for loc, j in sorted(out.items()) if j != 0.0}

    def effective_support(self, cfg):
        cuts = self.breakpoints()
        return (cuts[0], cuts[-1])

    def sup_bound(self):
        return max((abs(v) for _, _, v in self.levels()), default=0.0)

    def shifted(self, h):
        return StepCombo(tuple((hh, a + h, b + h) for hh, a, b in self.steps))

    def admits(self, p):
        return True

    def is_compactly_supported(self):
        return True

    def to_json(self):
        return {"type": "step_combo", "steps": [list(s) for s in self.steps]}


@dataclass(frozen=True)
class GaussianPower(PrimitiveFunction):
    """beta-th power of the heat kernel at time t."""

    t: float
    beta: float
    kind = "gaussian_power"

    def __post_init__(self):
        if not (self.t > 0 and math.isfinite(self.t)):
            raise DomainError("gaussian power requires t > 0")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise DomainError("gaussian power requires beta > 0")

    def prefactor(self) -> float:
        return (2.0 * math.sqrt(math.pi * self.t)) ** (-self.beta)

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return self.prefactor() * np.exp(-self.beta * x * x / (4.0 * self.t))

    def effective_support(self, cfg):
        # |F| carries standard deviation sqrt(2 t / beta)
        w = cfg.tail_width_sigmas * math.sqrt(2.0 * self.t / self.beta)
        return (-w, w)

    def sup_bound(self):
        return self.prefactor()

    def truncation_window(self, p, eps, cfg):
        target = eps ** p
        lo, hi = -1.0, 1.0
        while self.tail_power_outside(p, lo, hi) > target:
            lo *= 2.0
            hi *= 2.0
            if hi > 1e6:
                raise ApproximationError("gaussian window search ran away", best_error=eps)
        return lo, hi

    def tail_power_outside(self, p, lo, hi):
        c = p * self.beta / (4.0 * self.t)
        pref = self.prefactor() ** p
        scale = 0.5 * math.sqrt(math.pi / c)
        return pref * scale * (math.erfc(hi * math.sqrt(c)) + math.erfc(-lo * math.sqrt(c)))

    def admits(self, p):
        return True

    def to_json(self):
        return {"type": "gaussian_power", "t": self.t, "beta": self.beta}


@dataclass(frozen=True)
class TailLog(PrimitiveFunction):
    """x^{-1/p0} log^{-2} x on [e, inf), zero elsewhere."""

    p0: float
    kind = "tail_log"

    def __post_init__(self):
        if not (1.0 <= self.p0 < math.inf):
            raise DomainError("tail profile exponent must lie in [1, inf)")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.where(x >= _E, x, _E)
        out = safe ** (-1.0 / self.p0) / np.log(safe) ** 2
        return np.where(x >= _E, out, 0.0)

    def breakpoints(self):
        return (_E,)

    def effective_support(self, cfg):
        # Power-law decay: |F(x)| <= x^{-1/p0}; cut where that is tiny.
        hi = (10.0 / cfg.abs_tol) ** self.p0
        return (_E, min(hi, 1e300))

    def sup_bound(self):
        return _E ** (-1.0 / self.p0)  # decreasing from x = e

    def finite_lp_norm(self, p, cfg):
        """Via u = log x the p-th power integral becomes
        int_1^inf exp(-(p/p0 - 1) u) u^{-2p} du, which decays exponentially
        for p > p0 and like u^{-2p} at p = p0; either way a finite panel set
        with a certified cut captures it to within abs_tol / 10.
        """
        rate = p / self.p0 - 1.0
        if rate > 1e-9:
            hi = max(4.0, math.log(10.0 / (rate * cfg.abs_tol)) / rate)

            def g(u):
                return np.exp(-rate * u) / u ** (2.0 * p)
        else:
            # p == p0: pure power integrand; cut where the exact tail drops below budget
            hi = (10.0 / ((2.0 * p - 1.0) * cfg.abs_tol)) ** (1.0 / (2.0 * p - 1.0))

            def g(u):
                return u ** (-2.0 * p)

        val, _ = integrate(g, 1.0, hi, cfg, points=geometric_edges(1.0, hi))
        return val ** (1.0 / p)

    def truncation_window(self, p, eps, cfg):
        u = ((2.0 * p - 1.0) * eps ** p) ** (-1.0 / (2.0 * p - 1.0))
        return _E, math.exp(max(u, 1.0 + 1e-9))

    def tail_power_outside(self, p, lo, hi):
        if lo > _E:
            raise DomainError("tail window must start at the support edge")
        u0 = math.log(max(hi, _E))
        rate = p / self.p0 - 1.0
        if rate > 1e-9:
            return math.exp(-rate * u0) * u0 ** (-2.0 * p) / rate
        return u0 ** (1.0 - 2.0 * p) / (2.0 * p - 1.0)

    def admits(self, p):
        if math.isinf(p):
            return True
        return p >= self.p0 - 1e-12

    def to_json(self):
        return {"type": "tail_log", "p": self.p0}


_SINE_PANELS = 2048


@dataclass(frozen=True)
class TruncatedSine(PrimitiveFunction):
    """x^{-1/p0} sin x on (1, inf), zero elsewhere."""

    p0: float
    kind = "truncated_sine"

    def __post_init__(self):
        if not (1.0 <= self.p0 < math.inf):
            raise DomainError("sine profile exponent must lie in [1, inf)")

    def values(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.where(x > 1.0, x, 1.0)
        out = safe ** (-1.0 / self.p0) * np.sin(safe)
        return np.where(x > 1.0, out, 0.0)

    def breakpoints(self):
        return (1.0,)

    def effective_support(self, cfg):
        hi = (10.0 / cfg.abs_tol) ** self.p0
        return (1.0, min(hi, 1e300))

    def sup_bound(self):
        # global maximum sits inside the first few arches of the envelope
        return _scan_refine_max(self.values, 1.0, 1.0 + 4.0 * math.pi, 4001)

    def finite_lp_norm(self, p, cfg):
        """One quadrature panel per sine arch out to _SINE_PANELS * pi, then
        an asymptotic completion m_p * X^{1-a} / (a - 1) with a = p/p0 and
        m_p the mean of |sin|^p over a period.  Against a 200,000-arch
        reference the result is within 6e-8 relative for a >= 1.25 (the
        worst case is p0 = 1, p = 1.25; at a >= 2 it is below 1e-12).
        """
        a = p / self.p0
        edges = [1.0] + [k * math.pi for k in range(1, _SINE_PANELS + 1)]

        def g(x):
            return np.abs(self.values(x)) ** p

        val, _ = composite_gk15(g, edges)
        cut = _SINE_PANELS * math.pi
        mean_sin = math.gamma((p + 1.0) / 2.0) / (math.sqrt(math.pi) * math.gamma(p / 2.0 + 1.0))
        tail = mean_sin * cut ** (1.0 - a) / (a - 1.0)
        return (val + tail) ** (1.0 / p)

    def truncation_window(self, p, eps, cfg):
        a = p / self.p0
        return 1.0, max(2.0, ((a - 1.0) * eps ** p) ** (-1.0 / (a - 1.0)))

    def tail_power_outside(self, p, lo, hi):
        if lo > 1.0:
            raise DomainError("tail window must start at the support edge")
        a = p / self.p0
        return hi ** (1.0 - a) / (a - 1.0)

    def admits(self, p):
        if math.isinf(p):
            return True
        return p > self.p0 + 1e-12

    def to_json(self):
        return {"type": "truncated_sine", "p": self.p0}


@dataclass(frozen=True)
class Sampled(PrimitiveFunction):
    """Linear interpolation of grid samples inside the grid, zero outside."""

    grid: GridFunction
    kind = "samples"

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.grid.xs(), self.grid.array(), left=0.0, right=0.0) * (
            (x >= self.grid.x0) & (x <= self.grid.x1)
        )

    def breakpoints(self):
        # every node is a kink of the interpolant
        return tuple(float(x) for x in self.grid.xs())

    def effective_support(self, cfg):
        return (self.grid.x0, self.grid.x1)

    def sup_bound(self):
        # piecewise linear attains its extrema at nodes
        return float(np.max(np.abs(self.grid.array())))

    def finite_lp_norm(self, p, cfg):
        """Composite trapezoid rule on the sample grid (second order)."""
        power = np.abs(self.grid.array()) ** p
        return float(np.trapezoid(power, dx=self.grid.dx)) ** (1.0 / p)

    def shifted(self, h):
        return Sampled(GridFunction(self.grid.x0 + h, self.grid.dx, self.grid.values))

    def admits(self, p):
        return True

    def is_compactly_supported(self):
        return True

    def to_json(self):
        return {
            "type": "samples",
            "x0": self.grid.x0,
            "dx": self.grid.dx,
            "values": list(self.grid.values),
        }


def sample(values, x0: float, dx: float) -> Sampled:
    return Sampled(GridFunction(x0, dx, tuple(float(v) for v in values)))


def sample_function(fn, x0: float, x1: float, n: int) -> Sampled:
    """Sample a vectorized callable on n uniformly spaced nodes."""
    if n < 2:
        raise DomainError("need at least two samples")
    xs = np.linspace(x0, x1, n)
    return sample(np.asarray(fn(xs), dtype=float), x0, (x1 - x0) / (n - 1))


def evaluate(F: PrimitiveFunction, x: float) -> float:
    """Pointwise value of a catalog function."""
    if not math.isfinite(x):
        raise DomainError("evaluation point must be finite")
    return float(F.values(np.asarray([x]))[0])


def translate(F: PrimitiveFunction, h: float) -> PrimitiveFunction:
    """x -> F(x - h) for the location-bearing variants."""
    return F.shifted(h)


def _require_membership(F: PrimitiveFunction, p: float):
    if not F.admits(p):
        raise MembershipError(
            f"{F.kind} variant does not belong to L^{p} (admissible range excludes it)"
        )


def _golden_max(fn, lo: float, hi: float, iters: int) -> tuple[float, float]:
    """Golden-section maximum of a scalar callable on [lo, hi] as (x, fn(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (float(c), fc) if fc >= fd else (float(d), fd)


def _scan_refine_max(fn_vec, lo: float, hi: float, n: int = 2001) -> float:
    """max |fn_vec| on [lo, hi]: an n-node scan refined around its best node."""
    xs = np.linspace(lo, hi, n)
    vals = np.abs(np.asarray(fn_vec(xs), dtype=float))
    i = int(np.argmax(vals))
    _, refined = _golden_max(
        lambda x: abs(float(fn_vec(np.asarray([x]))[0])),
        xs[max(i - 1, 0)],
        xs[min(i + 1, n - 1)],
        iters=80,
    )
    return max(float(vals[i]), refined)


def _window_lp_norm(
    fn_vec, lo: float, hi: float, p: float, cfg: QuadratureConfig, scale, points=(), scan_nodes=4001
) -> float:
    """L^p norm of a vectorized function on [lo, hi]: the refined scan max
    for p = inf, else s * (integral of |fn_vec / s|^p)^{1/p} with s =
    scale(), so tolerances act relatively even for tiny integrands (a
    callable, since some normalizers cost a scan that p = inf skips)."""
    if math.isinf(p):
        return _scan_refine_max(fn_vec, lo, hi, scan_nodes)
    s = scale()
    if s == 0.0:
        return 0.0

    def integrand(x):
        return np.abs(fn_vec(x) / s) ** p

    val, _ = integrate(integrand, lo, hi, cfg, points=points)
    return s * val ** (1.0 / p)


def _moderate_window(prims, width: float, cfg: QuadratureConfig, what: str) -> tuple[float, float]:
    """Hull of the effective supports widened by ``width``; DomainError
    naming ``what`` for a slowly decaying variant (support above 1e6)."""
    supports = [F.effective_support(cfg) for F in prims]
    for F, (lo, hi) in zip(prims, supports):
        if hi - lo > 1e6:
            raise DomainError(f"{what} are not supported for slowly decaying variant {F.kind!r}")
    return min(lo for lo, _ in supports) - width, max(hi for _, hi in supports) + width


def lp_norm(F: PrimitiveFunction, p: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """(integral of |F|^p)^{1/p}, or the essential sup for p = inf.

    Raises :class:`MembershipError` when F is outside L^p.  Each variant
    supplies its own rule through ``sup_bound`` and ``finite_lp_norm``.
    """
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"norm exponent must lie in [1, inf], got {p}")
    _require_membership(F, p)
    if math.isinf(p):
        return F.sup_bound()
    return F.finite_lp_norm(p, cfg)


def combo_lp_norm(
    terms: Sequence[tuple[float, PrimitiveFunction]],
    p: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """L^p norm of a finite linear combination of catalog functions.

    Supported for combinations whose effective supports are finite
    windows of moderate size (compact variants and Gaussian powers).
    """
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"norm exponent must lie in [1, inf], got {p}")
    if not terms:
        return 0.0
    lo, hi = _moderate_window([F for _, F in terms], 0.0, cfg, "combination norms")

    def combo(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, F in terms:
            out += c * F.values(x)
        return out

    pts = [b for _, F in terms for b in F.breakpoints()]
    return _window_lp_norm(
        combo, lo, hi, p, cfg, lambda: sum(abs(c) * F.sup_bound() for c, F in terms), pts
    )


def antiderivative(g: PrimitiveFunction, x: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """integral of g from 0 to x (signed)."""
    if not math.isfinite(x):
        raise DomainError("antiderivative endpoint must be finite")
    if x == 0.0:
        return 0.0
    lo, hi = g.effective_support(cfg)
    a, b = (0.0, x) if x > 0 else (x, 0.0)
    a = max(a, lo)
    b = min(b, hi)
    if a >= b:
        return 0.0
    val, _ = integrate(g.values, a, b, cfg, points=g.breakpoints())
    return val if x > 0 else -val


_VARIANTS = {
    "indicator": Indicator,
    "step_combo": StepCombo,
    "gaussian_power": GaussianPower,
    "tail_log": TailLog,
    "truncated_sine": TruncatedSine,
    "samples": Sampled,
}


def primitive_to_json(F: PrimitiveFunction) -> dict:
    return F.to_json()


def primitive_from_json(data: dict) -> PrimitiveFunction:
    """Inverse of :func:`primitive_to_json`; raises DomainError on bad input."""
    if not isinstance(data, dict) or "type" not in data:
        raise DomainError("primitive descriptor must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "indicator":
            return Indicator(float(data["a"]), float(data["b"]))
        if kind == "step_combo":
            return StepCombo(tuple((float(h), float(a), float(b)) for h, a, b in data["steps"]))
        if kind == "gaussian_power":
            return GaussianPower(float(data["t"]), float(data["beta"]))
        if kind == "tail_log":
            return TailLog(float(data["p"]))
        if kind == "truncated_sine":
            return TruncatedSine(float(data["p"]))
        if kind == "samples":
            return sample([float(v) for v in data["values"]], float(data["x0"]), float(data["dx"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed primitive descriptor: {exc}") from exc
    raise DomainError(f"unknown primitive type {kind!r}")
