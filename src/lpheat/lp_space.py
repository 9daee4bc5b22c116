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

No variant's norm is generic quadrature: step data and Sampled data
have their exact norms (one closed form per cell or panel), Gaussian
powers a closed form, and the two tail profiles substitution and
period-panel treatments documented on their ``finite_lp_norm`` methods.
``combo_lp_norm`` is the one norm of a linear combination, heat flows
(``convolve.Heated``) included.  At p = 2 a combination of step data,
sampled data and their heat flows is exact too: by Plancherel and the
semigroup, a double sum over the atoms of F'' (``_flow_atoms``) against
kernels in closed form (module ``_energy``).

The compact variants and Gaussian powers also give their heat flow
F * theta_t^(n) in closed form (``heat_flow(t, xs, order=n)``).  Step
data (Indicator and StepCombo share one implementation) is a sum over
its jumps at every order up to ``MAX_DERIV_ORDER``: erfc tails plus the
level at n = 0, sum_j w_j theta_t^(n-1)(x - a_j) above it.  Gaussian
powers give c theta_{s+t}^(n) by the semigroup.  Sampled data has its
closed form (erfc and kernel terms per node) at n = 0 only; the
slow-tail profiles have none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ApproximationError, DomainError, MembershipError
from .kernel import _validate_exponent, theta_deriv_values
from .quadrature import (
    _BLOCK_ENTRIES,
    DEFAULT_CONFIG,
    QuadratureConfig,
    _integrate,
    _panels,
    composite_gk15,
    geometric_edges,
    integrate,
)

_E = math.e


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

    def source(self) -> PrimitiveFunction:
        """The data this function is built from: itself, or a heat flow's data."""
        return self

    def jumps(self) -> dict[float, float] | None:
        """Signed jump at each breakpoint for step-type variants, else None."""
        return None

    def heat_flow(self, t: float, xs: np.ndarray, order: int = 0) -> np.ndarray | None:
        """(F * theta_t^(n))(xs) with n = ``order`` in closed form, or None
        where the variant has none at that order.

        ``t`` is positive, ``xs`` a finite float array and ``order`` an
        integer in [0, MAX_DERIV_ORDER]; callers validate.
        """
        return None

    def _flow_atoms(self) -> tuple | None:
        """F as rows (t, n, o, locs, weights), each the sum of
        w theta_t^(o)(x - a) over its atoms (a, w), or None where F'' has no
        finite set of atoms.  Negative orders are the kernel's antiderivatives
        that vanish at -inf, at t = 0 the step H (o = -1) and the ramp x_+
        (o = -2): a delta' atom of F'' sits at order n - 1, a delta atom at
        n - 2.  Data has t = 0 and n = 0; a heat flow adds its (t, n)."""
        return None

    def sup_bound(self) -> float:
        """ess sup |F|: exact, or a scan refined by a batched bracket search
        where no maximizer is known."""
        raise NotImplementedError

    def finite_lp_norm(self, p: float, cfg: QuadratureConfig) -> float:
        """(integral of |F|^p)^{1/p} for a finite p that F admits."""
        raise NotImplementedError

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

    def admits(self, p: float) -> bool:
        """Whether F belongs to L^p."""
        raise NotImplementedError

    def is_compactly_supported(self) -> bool:
        return False


class _Steps(PrimitiveFunction):
    """Step data: the sum of height * indicator([a, b]) over ``self.steps``,
    overlaps adding.  Indicator and StepCombo share every method here."""

    steps: tuple[tuple[float, float, float], ...]

    def values(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for h, a, b in self.steps:
            out += h * ((x >= a) & (x <= b))
        return out

    def breakpoints(self):
        return tuple(sorted({c for _, a, b in self.steps for c in (a, b)}))

    def levels(self) -> list[tuple[float, float, float]]:
        """Constant pieces as (lo, hi, value) on the open cells between jumps.
        Each step adds its height to the cells between its edges, one step at
        a time in step order, so a value is the sum of the heights covering
        its cell in that order."""
        cuts = self.breakpoints()
        heights, starts, ends = zip(*self.steps)
        first, last = np.searchsorted(cuts, (starts, ends)).tolist()
        vals = np.zeros(len(cuts) - 1)
        for h, i, j in zip(heights, first, last):
            vals[i:j] += h
        return list(zip(cuts[:-1], cuts[1:], vals.tolist()))

    def jumps(self) -> dict[float, float]:
        """Signed jump at each breakpoint (value after minus value before)."""
        out: dict[float, float] = {}
        for h, a, b in self.steps:
            out[a] = out.get(a, 0.0) + h
            out[b] = out.get(b, 0.0) - h
        return {loc: j for loc, j in sorted(out.items()) if j != 0.0}

    def heat_flow(self, t, xs, order=0):
        """A sum over the jumps w_j at a_j, added one jump at a time in jump
        order.  At n >= 1, F * theta_t^(n) = F' * theta_t^(n-1) =
        sum_j w_j theta_t^(n-1)(x - a_j), one kernel call on the (jump,
        point) array.  At n = 0 it is level(x) + sum_j w_j s_j e_j(x), with
        e_j = erfc(|x - a_j| / 2 sqrt t) / 2 the kernel mass beyond a_j as
        seen from x, s_j = -1 where a_j <= x and +1 otherwise, and level(x)
        the step value on the cell right of x.  The level sums the heights
        covering that cell, so it is exactly 0 in a gap, and the tails are
        differences of tails, so neither cancels."""
        jumps = self.jumps()
        locs = list(jumps)
        shifts = np.asarray(locs, dtype=float)[:, None]
        root_t = math.sqrt(t)
        # past 1e3 sqrt(t) the kernel factor underflows to 0; the clip keeps x / 2t
        # finite there, so the recurrence gives those zeros, not inf * 0
        edge = 1e3 * root_t

        def block(rows):
            x = xs[rows]
            out = np.zeros(x.shape)
            if order == 0:
                for h, a, b in self.steps:
                    out += h * ((x >= a) & (x < b))
                terms = np.where(x >= shifts, -0.5, 0.5) * _erfc(np.abs(x - shifts) / (2.0 * root_t))
            else:
                terms = theta_deriv_values(np.clip(x - shifts, -edge, edge), t, order - 1)
            for j, loc in enumerate(locs):
                out += jumps[loc] * terms[j]
            return out

        # blocks of 16,384 entries (128 KB): on 151 to 100,001 points the fastest
        # size measured; 65,536-entry temporaries ran 2-3x slower per element
        return _in_blocks(block, xs.size, len(locs), entries=1 << 14)

    def _flow_atoms(self):
        # F'' = sum_j w_j delta'_{a_j}
        jumps = self.jumps()
        return ((0.0, 0, -1, tuple(jumps), tuple(jumps.values())),)

    def effective_support(self, cfg):
        cuts = self.breakpoints()
        return (cuts[0], cuts[-1])

    def sup_bound(self):
        return max((abs(v) for _, _, v in self.levels()), default=0.0)

    def finite_lp_norm(self, p, cfg):
        """Exact: peak (sum over the cells of |level / peak|^p length)^(1/p)
        with peak the largest |level|, so |level|^p neither under- nor overflows."""
        levels = self.levels()
        peak = max(abs(v) for _, _, v in levels)
        if peak == 0.0:
            return 0.0
        return peak * math.fsum(abs(v / peak) ** p * (hi - lo) for lo, hi, v in levels) ** (1.0 / p)

    def admits(self, p):
        return True

    def is_compactly_supported(self):
        return True


@dataclass(frozen=True)
class Indicator(_Steps):
    """Characteristic function of [a, b]."""

    a: float
    b: float
    kind = "indicator"

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise DomainError("indicator requires finite a < b")

    @property
    def steps(self):
        return ((1.0, self.a, self.b),)


@dataclass(frozen=True)
class StepCombo(_Steps):
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
        try:
            self.prefactor()
        except OverflowError:
            raise DomainError("gaussian power prefactor overflows a float") from None

    def prefactor(self) -> float:
        return (2.0 * math.sqrt(math.pi * self.t)) ** (-self.beta)

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return self.prefactor() * np.exp(-self.beta * x * x / (4.0 * self.t))

    def effective_support(self, cfg):
        # |F| is a multiple of theta_{t / beta}: standard deviation sqrt(2 t / beta)
        w = cfg.kernel_width(self.t / self.beta)
        return (-w, w)

    def sup_bound(self):
        return self.prefactor()

    def finite_lp_norm(self, p, cfg):
        """A (4 pi t0 / (beta p))^(1 / 2p) with A = prefactor(): the integral
        of A^p exp(-p beta x^2 / 4 t0) is A^p sqrt(4 pi t0 / (beta p))."""
        return self.prefactor() * (4.0 * math.pi * self.t / (self.beta * p)) ** (0.5 / p)

    def heat_flow(self, t, xs, order=0):
        # F = A exp(-x^2 / 4 s) with s = t0 / beta is c theta_s, c = A 2 sqrt(pi s),
        # so by the semigroup F * theta_t^(n) = c theta_{s + t}^(n)
        s = self.t / self.beta
        if order == 0:
            return self.prefactor() * math.sqrt(s / (s + t)) * np.exp(-xs * xs / (4.0 * (s + t)))
        # past 1e3 sqrt(s + t) the kernel factor underflows to 0; the clip keeps
        # x / 2(s + t) finite there, so the recurrence gives those zeros, not inf * 0
        edge = 1e3 * math.sqrt(s + t)
        c = self.prefactor() * 2.0 * math.sqrt(math.pi * s)
        return c * theta_deriv_values(np.clip(xs, -edge, edge), s + t, order)

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
        int_1^inf exp(-(p/p0 - 1) u) u^{-2p} du.  At p = p0 that is
        1 / (2p - 1) exactly; for p > p0 it decays exponentially, and a
        finite panel set with a certified cut captures it to within
        abs_tol / 10.
        """
        rate = p / self.p0 - 1.0
        if rate <= 1e-9:
            return (2.0 * p - 1.0) ** (-1.0 / p)
        hi = max(4.0, math.log(10.0 / (rate * cfg.abs_tol)) / rate)

        def g(u):
            return np.exp(-rate * u) / u ** (2.0 * p)

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
        return _scan_refine_max(self.values, np.linspace(1.0, 1.0 + 4.0 * math.pi, 4001))

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


@dataclass(frozen=True)
class Sampled(PrimitiveFunction):
    """Linear interpolation of samples[i] at x0 + i * dx inside the grid,
    zero outside."""

    x0: float
    dx: float
    samples: tuple[float, ...]
    kind = "samples"

    def __post_init__(self):
        if not (math.isfinite(self.x0) and math.isfinite(self.dx) and self.dx > 0):
            raise DomainError("grid origin and spacing must be finite, spacing positive")
        samples = tuple(float(v) for v in self.samples)
        if len(samples) < 2:
            raise DomainError("grid needs at least two samples")
        if not all(math.isfinite(v) for v in samples):
            raise DomainError("grid values must be finite")
        object.__setattr__(self, "samples", samples)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(self.kinks()).all()
        if not finite:  # an infinite slope or change of slope would flow to inf - inf
            raise DomainError("grid slopes and their changes must be finite")

    @property
    def x1(self) -> float:
        return self.x0 + (len(self.samples) - 1) * self.dx

    def nodes(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(len(self.samples))

    def kinks(self) -> np.ndarray:
        """Change of slope at each node, the end slopes against zero."""
        return np.diff(np.diff(self.samples) / self.dx, prepend=0.0, append=0.0)

    def values(self, x):
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.nodes(), np.asarray(self.samples), left=0.0, right=0.0) * (
            (x >= self.x0) & (x <= self.x1)
        )

    def breakpoints(self):
        # every node is a kink of the interpolant
        return tuple(float(x) for x in self.nodes())

    def effective_support(self, cfg):
        return (self.x0, self.x1)

    def sup_bound(self):
        # piecewise linear attains its extrema at nodes
        return float(np.max(np.abs(np.asarray(self.samples))))

    def finite_lp_norm(self, p, cfg):
        """Exact norm of the interpolant, one closed form per panel.

        With the panel's ends scaled to u, v by the sup, the mean of |F|^p
        over the panel is (|u|^(p+1) + |v|^(p+1)) / ((p + 1)(|u| + |v|))
        across a sign change, and otherwise m^p g(d) with m = max(|u|, |v|),
        d = 1 - min(|u|, |v|) / m and g(d) = (1 - (1 - d)^(p+1)) / ((p + 1) d),
        evaluated through expm1/log1p so nearly equal ends do not cancel.
        """
        y = np.asarray(self.samples)
        peak = float(np.max(np.abs(y)))
        if peak == 0.0:
            return 0.0
        u, v = y[:-1] / peak, y[1:] / peak
        au, av = np.abs(u), np.abs(v)
        big, small = np.maximum(au, av), np.minimum(au, av)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(big > 0.0, (big - small) / big, 0.0)
            g = np.where(d > 0.0, -np.expm1((p + 1.0) * np.log1p(-d)) / ((p + 1.0) * d), 1.0)
            cross = (au ** (p + 1.0) + av ** (p + 1.0)) / ((p + 1.0) * (au + av))
        mean_power = np.where(u * v < 0.0, cross, big ** p * g)
        return peak * float(self.dx * np.sum(mean_power)) ** (1.0 / p)

    def heat_flow(self, t, xs, order=0):
        """Exact flow of the interpolant at order 0 (None above it).
        F = y_0 H(x - x_0) - y_N H(x - x_N) + sum_i k_i (x - x_i)_+ with
        k_i the change of slope at node i, and
        (x - c)_+ * theta_t = z Phi(z) + 2 t theta_t(z) with z = x - c and
        Phi(z) = erfc(-z / 2 sqrt t) / 2: one erfc and one exp per (point,
        node).  Right of the grid's midpoint the mirrored form, z -> c - x
        with the signs of the jump terms flipped, is used: its linear parts
        sum to F's zero extension, so the right tail does not cancel."""
        if order != 0:
            return None
        nodes = self.nodes()
        y = np.asarray(self.samples)
        kinks = self.kinks()
        side = np.where(xs <= 0.5 * (self.x0 + self.x1), 1.0, -1.0)
        root_t = math.sqrt(t)

        def block(rows):
            w = side[rows, None] * (nodes - xs[rows, None]) / (2.0 * root_t)
            erfc_w = _erfc(w)
            # ramp = root_t (exp(-w^2) / sqrt(pi) - w erfc(w)): both terms from
            # the same w, and exp(-w^2) to a few ulp, since they cancel in the tail
            ramp = root_t * (_exp_neg_square(w) / _SQRT_PI - w * erfc_w)
            # a row-wise sum, not ramp @ kinks: gemv rounds a row by its place in the call
            return 0.5 * side[rows] * (y[0] * erfc_w[:, 0] - y[-1] * erfc_w[:, -1]) + (ramp * kinks).sum(axis=1)

        return _in_blocks(block, xs.size, nodes.size)

    def _flow_atoms(self):
        # F'' = y_0 delta'_{x_0} - y_N delta'_{x_N} + sum_i k_i delta_{x_i}
        y = self.samples
        return ((0.0, 0, -1, (self.x0, self.x1), (y[0], -y[-1])),
                (0.0, 0, -2, self.nodes(), self.kinks()))

    def admits(self, p):
        return True

    def is_compactly_supported(self):
        return True


def sample(values, x0: float, dx: float) -> Sampled:
    return Sampled(x0, dx, values)


_SQRT_PI = math.sqrt(math.pi)


def _erfc(z) -> np.ndarray:
    """Elementwise ``math.erfc``, bit for bit (numpy has no erf).  At z <= -6
    and z >= 28 the correctly rounded erfc is exactly 2.0 or 0.0 and is filled
    in without the call; NaN and everything between go through one ``map``."""
    z = np.asarray(z, dtype=float)
    low = z <= -6.0
    out = np.where(low, 2.0, 0.0)
    mid = ~(low | (z >= 28.0))
    out[mid] = np.fromiter(map(math.erfc, z[mid].tolist()), float, np.count_nonzero(mid))
    return out


def _exp_neg_square(w: np.ndarray) -> np.ndarray:
    """exp(-w^2) to a few ulp: w^2 is split as h^2 + (w - h)(w + h) with h
    the float32 rounding of w, so the large part of the exponent is exact."""
    w = np.clip(w, -40.0, 40.0)  # exp(-1600) underflows to 0 either way
    h = w.astype(np.float32).astype(float)
    return np.exp(-h * h) * np.exp(-(w - h) * (w + h))


def _in_blocks(block, n_points: int, n_nodes: int, entries: int = _BLOCK_ENTRIES) -> np.ndarray:
    """Concatenate ``block(rows)`` over row slices of at most
    ``entries / n_nodes`` points, so temporaries stay bounded."""
    step = max(1, entries // max(n_nodes, 1))
    if n_points <= step:
        return block(slice(None))
    return np.concatenate([block(slice(i, i + step)) for i in range(0, n_points, step)])


def _require_membership(F: PrimitiveFunction, p: float):
    if not F.admits(p):
        raise MembershipError(
            f"{F.kind} variant does not belong to L^{p} (admissible range excludes it)"
        )


def _bracket_max(fn_vec, lo: float, hi: float, rel_width: float) -> tuple[float, float]:
    """Maximum of the vectorized ``fn_vec`` on [lo, hi] as (x, fn_vec(x)): each
    round evaluates 33 evenly spaced nodes in one call, keeps the best value
    seen and narrows to the best node's neighbours (1/16 of the bracket), until
    the bracket is no wider than ``rel_width * (hi - lo)`` or no longer shrinks."""
    best_x, best, stop = float(lo), -math.inf, rel_width * (hi - lo)
    while True:
        xs = np.linspace(lo, hi, 33)
        vals = np.asarray(fn_vec(xs), dtype=float)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best_x, best = float(xs[i]), float(vals[i])
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, 32)]
        if b - a <= stop or b - a >= hi - lo:
            return best_x, best
        lo, hi = a, b


def _scan_refine_max(fn_vec, xs: np.ndarray) -> float:
    """max |fn_vec| on the increasing nodes ``xs``, refined by ``_bracket_max``
    between the neighbours of the best node to 2e-17 of their span."""
    vals = np.abs(np.asarray(fn_vec(xs), dtype=float))
    i = int(np.argmax(vals))
    _, refined = _bracket_max(lambda x: np.abs(fn_vec(x)), xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)], 2e-17)
    return max(float(vals[i]), refined)


def lp_norm(F: PrimitiveFunction, p: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """(integral of |F|^p)^{1/p}, or the essential sup for p = inf.

    Raises :class:`MembershipError` when F is outside L^p.  Each variant
    supplies its own rule through ``sup_bound`` and ``finite_lp_norm``.
    """
    p = _validate_exponent(p)
    _require_membership(F, p)
    if math.isinf(p):
        return F.sup_bound()
    return F.finite_lp_norm(p, cfg)


def combo_lp_norm(
    terms: Sequence[tuple[float, PrimitiveFunction]],
    p: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """L^p norm of a finite linear combination of catalog functions, on
    the hull of their effective supports.

    Supported where the data behind every term has a support of moderate
    size (compact variants, Gaussian powers and their heat flows
    ``convolve.Heated``); a slowly decaying variant (support above 1e6)
    raises DomainError.  At p = 2, where every term is step data, sampled
    data or a heat flow of either, the norm is the energy identity's
    double sum over the atoms of F'' (``_energy.energy_norm``), with no
    quadrature; at p = 1 so is one order-0 flow of such data that keeps
    one sign, whose norm is the data's (``_energy.conserved_l1_norm``).
    Any other finite p is s (integral of |combo / s|^p)^(1/p)
    with s the combination's peak on a 33-node scan of the window (1 where
    the scan reads 0), so the tolerances act relatively even where the
    terms cancel; the interior scan nodes seed the partition with the
    terms' breakpoints, so no first panel is wider than 1/32 of the
    window, and the seed panels' nodes go to the terms in one call.
    p = inf is the larger of the 1,025-node scan max, refined by 33-node
    brackets (``_bracket_max``, one call of the terms per round), and the
    combination at the middle of each cell between breakpoints; the scan
    skips the step terms' breakpoints, where closed steps add."""
    p = _validate_exponent(p)
    if not terms:
        return 0.0
    for _, F in terms:
        data = F.source()
        lo, hi = data.effective_support(cfg)
        if hi - lo > 1e6:
            raise DomainError(f"combination norms are not supported for slowly decaying variant {data.kind!r}")
    if p in (1.0, 2.0):
        from ._energy import conserved_l1_norm, energy_norm  # compiled on first use, not at import

        exact = (energy_norm if p == 2.0 else conserved_l1_norm)(terms, cfg)
        if exact is not None:
            return exact
    supports = [F.effective_support(cfg) for _, F in terms]
    lo, hi = min(a for a, _ in supports), max(b for _, b in supports)

    def combo(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c, F in terms:
            out += c * F.values(x)
        return out

    pts = [b for _, F in terms for b in F.breakpoints()]
    if math.isinf(p):
        # the refined scan can step over a feature narrower than its spacing,
        # but not over the middle of a cell between two breakpoints; an ess
        # sup ignores single points, so no scan node sits on a step term's
        # breakpoint, where closed steps add
        cuts = np.unique(pts)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        scan = np.linspace(lo, hi, 1025)
        scan = scan[~np.isin(scan, [b for _, F in terms if F.jumps() is not None for b in F.breakpoints()])]
        return max(_scan_refine_max(combo, scan), float(np.max(np.abs(combo(mids)), initial=0.0)))
    scan = np.linspace(lo, hi, 33)
    s = float(np.max(np.abs(combo(scan)))) or 1.0

    def integrand(x):
        return np.abs(combo(x) / s) ** p

    val, _ = _integrate(integrand, lo, hi, cfg, pts + list(scan[1:-1]), _panels)
    return s * val ** (1.0 / p)


def _json_number(v) -> float:
    """A JSON number as a float.  TypeError for anything else, booleans
    and numeric strings included (``float`` reads True as 1.0 and "2" as 2.0)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def primitive_from_json(data: dict) -> PrimitiveFunction:
    """The catalog function a JSON descriptor names; DomainError on bad input.

    A descriptor is an object with a ``type`` and that variant's numbers:
    ``indicator`` (a, b), ``step_combo`` (steps, a list of [h, a, b]),
    ``gaussian_power`` (t, beta), ``tail_log`` and ``truncated_sine`` (p),
    ``samples`` (x0, dx, values)."""
    if not isinstance(data, dict) or "type" not in data:
        raise DomainError("primitive descriptor must be an object with a 'type' field")
    kind = data["type"]
    try:
        if kind == "indicator":
            return Indicator(_json_number(data["a"]), _json_number(data["b"]))
        if kind == "step_combo":
            return StepCombo(tuple(tuple(_json_number(v) for v in (h, a, b)) for h, a, b in data["steps"]))
        if kind == "gaussian_power":
            return GaussianPower(_json_number(data["t"]), _json_number(data["beta"]))
        if kind == "tail_log":
            return TailLog(_json_number(data["p"]))
        if kind == "truncated_sine":
            return TruncatedSine(_json_number(data["p"]))
        if kind == "samples":
            values = [_json_number(v) for v in data["values"]]
            return sample(values, _json_number(data["x0"]), _json_number(data["dx"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed primitive descriptor: {exc}") from exc
    raise DomainError(f"unknown primitive type {kind!r}")
