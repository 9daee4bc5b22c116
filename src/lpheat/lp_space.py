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

Indicator, StepCombo and Sampled are one piecewise-linear model
(``_PiecewiseLinear``): knots with left and right limits, linear between
them, so F'' is a finite set of atoms, a delta' at each jump and a delta
at each kink (change of slope).  Each constructor supplies its knots
and nothing else; values, norms, atoms and the heat flow are one
implementation.

No variant's norm is generic quadrature: the piecewise-linear data has
its exact norm (one closed form per cell), Gaussian powers a closed
form, and the two tail profiles substitution and period-panel
treatments documented on their ``finite_lp_norm`` methods.
``combo_lp_norm`` is the one norm of a linear combination, heat flows
(``convolve.Heated``) included.  Piecewise-linear data and Gaussian
powers are one atom model (``_flow_atoms``): F is a sum of rows
w theta_s^(o)(x - a), the atoms of F'' at s = 0 for piecewise-linear
data, and one atom c theta_s of order 0 for a Gaussian power.  A lone
heat flow of one order-0 atom is exact at every p: c theta_s * theta_t =
c theta_{s+t}, a closed-form norm.  At p = 1 a lone order-0 flow of
piecewise-linear data that keeps one sign has the data's norm.  At p = 2
any combination of such data and their heat flows is exact too: by
Plancherel and the semigroup, a double sum over the atoms against
kernels in closed form (module ``_energy``, imported on the first p = 2
norm).

The same rows give the heat flow F * theta_t^(n) in closed form
(``heat_flow(t, xs, order=n)``), a sum of w K_{s+t}^(o+n)(x - a) through
the atom kernel of ``kernel._smoothing``, the one the energy identity's
pair sums use: c theta_{s+t}^(n) for a Gaussian power, every order for
piecewise-linear data without kinks (step data), n = 0 only for kinked
data (a sampled grid), for a reason given on ``heat_flow``.  The
slow-tail profiles have none.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .exceptions import ApproximationError, DomainError, MembershipError
from .kernel import _smoothing, _validate_exponent, theta_norm_closed
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

    def _flow_atoms(self) -> tuple | None:
        """F as rows (t, n, o, locs, weights), each the sum of
        w theta_t^(o)(x - a) over its atoms (a, w), or None where F has no
        finite set of atoms.  Negative orders are the kernel's antiderivatives
        that vanish at -inf, at t = 0 the step H (o = -1) and the ramp x_+
        (o = -2): a delta' atom of F'' sits at order n - 1, a delta atom at
        n - 2.  Piecewise-linear data has t = 0 and n = 0, a Gaussian power
        c theta_s one atom of order 0 at time s; a heat flow adds its (t, n).
        ``heat_flow``, ``combo_lp_norm`` and ``_energy`` all read these rows;
        no other copy of them is kept."""
        return None

    def _keeps_one_sign(self) -> bool:
        """Whether F is known to keep one sign (F >= 0 or F <= 0 everywhere):
        False unless the variant reads it off its own description."""
        return False

    def heat_flow(self, t: float, xs: np.ndarray, order: int = 0) -> np.ndarray | None:
        """(F * theta_t^(n))(xs) with n = ``order`` in closed form, or None
        where the variant has none at that order: the sum over the rows of
        ``_flow_atoms`` of w K_{s+t}^(o+n)(x - a) through the atom kernel
        ``kernel._smoothing``, with sgn(0) = +1 (a knot reads its right
        limit).  That kernel lacks its tau-free part K_0^(o+n) at o + n < 0,
        so data rows (s = 0) start at n = 0 from the right-continuous level
        (0 in a gap of steps), every other point from 0, and a flow's row at
        o + n < 0 has None.  Each point adds its atoms one at a time in row
        and knot order, in blocks of at most ``_BLOCK_ENTRIES`` (point, atom)
        entries, so its value does not depend on its block; a lone atom (a
        Gaussian power) takes every point in one kernel call.  Data with kinks
        has None above n = 0 and goes to ``convolve_point``: its kink terms
        would make sampled ``evolve`` about ten times faster, and the
        benchmark, which keeps every op's output, would then outgrow its
        memory bound (ROADMAP items 1 and 2).  ``t`` is positive, ``xs`` a
        finite float array and ``order`` an integer in [0, MAX_DERIV_ORDER];
        callers validate."""
        rows = self._flow_atoms()
        if rows is None or any(o + order < 0 if s > 0.0 else order > 0 and o == -2 for s, _, o, _, _ in rows):
            return None
        out = self._cells(xs)[2] if order == 0 and any(s == 0.0 for s, *_ in rows) else np.zeros(xs.size)
        if len(rows) == 1 and len(rows[0][3]) == 1:  # one atom fills one entry per point: no blocks
            s, _, o, (a,), (w,) = rows[0]
            out += w * _smoothing(xs - a, s + t, o + order, right=True)
            return out
        points = max(1, min(xs.size, _BLOCK_ENTRIES))
        span = _BLOCK_ENTRIES // points  # atoms per block
        for i in range(0, xs.size, points):
            x, part = xs[i:i + points, None], out[i:i + points]
            for s, _, o, locs, w in rows:
                for j in range(0, len(locs), span):
                    K = _smoothing(x - locs[j:j + span], s + t, o + order, right=True)
                    for k, wk in enumerate(w[j:j + span]):
                        part += wk * K[:, k]
        return out

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


# knots a_0 < ... < a_K of piecewise-linear data, one list of floats per row:
# the value F(a_k), the left and right limits L_k, R_k (L_0 = R_K = 0), the
# jump w_k = R_k - L_k and the change of slope kappa_k at each
_Knots = namedtuple("_Knots", "at point left right jump kink")


class _PiecewiseLinear(PrimitiveFunction):
    """Compact data, linear from R_k at a_k to L_{k+1} at a_{k+1} between
    knots a_0 < ... < a_K, F(a_k) at a knot and zero off [a_0, a_K].  F''
    is a finite set of atoms: a delta' of weight w_k (the jump) and a delta
    of weight kappa_k (the change of slope) at each knot.  A constructor
    supplies its knots (``_knot_rows``) and nothing else."""

    def _knot_rows(self):
        raise NotImplementedError

    @cached_property
    def _knots(self) -> _Knots:
        return _Knots(*self._knot_rows())

    @cached_property
    def _cell_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, T): the knots as an array, and for each count j = 0..K+1 of
        knots at or left of x the column (a_{j-1}, F(a_{j-1}), slope, R_{j-1});
        off the support slope and R are 0, and column 0 takes a_0, which no x
        left of a_0 equals."""
        at, point, left, right = self._knots[:4]
        # a cell between grid nodes rounded together is empty: no x falls in it
        slope = [(l - r) / (hi - lo) if hi > lo else 0.0 for lo, hi, r, l in zip(at, at[1:], right, left[1:])]
        return np.array(at), np.array([at[:1] + at, [0.0] + point, [0.0] + slope + [0.0], [0.0] + right])

    def _cells(self, x):
        """(a_i, F(a_i), level) for a_i <= x < a_{i+1}: the level is the
        right-continuous value, np.interp's slope (x - a_i) + R_i, so sampled
        data reads as it interpolates and a step reads R_i; x is clipped to
        the support, where it is unchanged, so a slope 0 never meets inf."""
        at, table = self._cell_table
        knot, point, slope, right = table.take(at.searchsorted(x, "right"), axis=1)
        return knot, point, slope * (x.clip(self._knots.at[0], self._knots.at[-1]) - knot) + right

    def values(self, x):
        x = np.asarray(x, dtype=float)
        knot, point, level = self._cells(x)
        return np.where(knot == x, point, level)

    def breakpoints(self):
        return tuple(self._knots.at)

    def effective_support(self, cfg):
        return (self._knots.at[0], self._knots.at[-1])

    def sup_bound(self):
        return max(map(abs, self._knots.left + self._knots.right))

    def finite_lp_norm(self, p, cfg):
        """Exact: peak (fsum over the cells of mean |F / peak|^p x length)^(1/p),
        peak = sup |F|, so |F|^p neither under- nor overflows.  With the ends
        u, v of a cell over the peak, the mean is (|u|^(p+1) + |v|^(p+1)) /
        ((p + 1)(|u| + |v|)) across a sign change, else m^p g(d) with
        m = max(|u|, |v|), d = 1 - min(|u|, |v|) / m and g(d) = (1 - (1 - d)^(p+1))
        / ((p + 1) d) through expm1/log1p, so close ends do not cancel; a
        constant cell is d = 0, g = 1."""
        peak = self.sup_bound()
        if peak == 0.0:
            return 0.0
        at, _, left, right, _, _ = self._knots
        q, terms = p + 1.0, []
        for lo, hi, r, l in zip(at, at[1:], right, left[1:]):
            u, v = r / peak, l / peak
            big, small = max(abs(u), abs(v)), min(abs(u), abs(v))
            if u * v < 0.0:
                mean = (big ** q + small ** q) / (q * (big + small))
            else:
                d = (big - small) / big if big > 0.0 else 0.0
                rise = 1.0 if d == 1.0 else -math.expm1(q * math.log1p(-d))  # 1 - (1 - d)^(p+1)
                mean = big ** p * (rise / (q * d) if d > 0.0 else 1.0)
            terms.append(mean * (hi - lo))
        return peak * math.fsum(terms) ** (1.0 / p)

    def _keeps_one_sign(self):
        # F is linear between its knot limits, so their signs are its signs
        limits = self._knots.left + self._knots.right
        return min(limits) >= 0.0 or max(limits) <= 0.0

    @cached_property
    def _plans(self) -> dict:
        """``_energy``'s plans of energy sums of this datum's flows, one per
        shape of terms, filled there."""
        return {}

    def _flow_atoms(self):
        return self._atoms

    @cached_property
    def _atoms(self):
        # F'' = sum_k w_k delta'_{a_k} + sum_k kappa_k delta_{a_k}, the jumps
        # where nonzero, the kinks at every knot of kinked data
        at, jump, kink = self._knots.at, self._knots.jump, self._knots.kink
        jumped = [(a, w) for a, w in zip(at, jump) if w != 0.0]
        rows = ((0.0, 0, -1, tuple(a for a, _ in jumped), tuple(w for _, w in jumped)),)
        return rows + ((0.0, 0, -2, np.array(at), np.array(kink)),) if any(kink) else rows

    def admits(self, p):
        return True

    def is_compactly_supported(self):
        return True


class _Steps(_PiecewiseLinear):
    """Step data: the sum of height * indicator([a, b]) over ``self.steps``,
    overlaps adding.  Indicator and StepCombo share its knots."""

    steps: tuple[tuple[float, float, float], ...]

    def _knot_rows(self):
        # each step adds its height to the cells and the knots it covers and
        # to its edges' jumps, one step at a time in step order, so a level is
        # the sum of the heights covering its cell in that order
        at = sorted({c for _, a, b in self.steps for c in (a, b)})
        slot = {c: i for i, c in enumerate(at)}
        right, point, jump = [0.0] * len(at), [0.0] * len(at), [0.0] * len(at)
        for h, a, b in self.steps:
            i, j = slot[a], slot[b]
            right[i:j] = [v + h for v in right[i:j]]
            point[i:j + 1] = [v + h for v in point[i:j + 1]]
            jump[i] += h
            jump[j] -= h
        return at, point, [0.0] + right[:-1], right, jump, [0.0] * len(at)

    def jumps(self) -> dict[float, float]:
        """Signed jump at each breakpoint where it is nonzero (value after
        minus value before)."""
        return {a: w for a, w in zip(self._knots.at, self._knots.jump) if w != 0.0}


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
        if not math.isfinite(self.t / self.beta):  # the width of |F|, theta_{t / beta}
            raise DomainError("gaussian power width t / beta overflows a float")

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

    def _flow_atoms(self):
        # F = A exp(-x^2 / 4 s) with s = t0 / beta is c theta_s, c = A 2 sqrt(pi s)
        s = self.t / self.beta
        return ((s, 0, 0, (0.0,), (self.prefactor() * 2.0 * math.sqrt(math.pi * s),)),)

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
        return (_E, _power_law_cut(self.p0, cfg))

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


def _power_law_cut(p0: float, cfg: QuadratureConfig) -> float:
    """Where the slow-tail envelope x^(-1/p0) falls to abs_tol / 10: the
    window edge (10 / abs_tol)^p0, capped at 1e300 before the power would
    overflow (at p0 >= 24 for the default abs_tol)."""
    if p0 * math.log10(10.0 / cfg.abs_tol) >= 300.0:
        return 1e300
    return min((10.0 / cfg.abs_tol) ** p0, 1e300)


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
        return (1.0, _power_law_cut(self.p0, cfg))

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
class Sampled(_PiecewiseLinear):
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
            finite = all(map(math.isfinite, self._knots.kink))
        if not finite:  # an infinite slope or change of slope would flow to inf - inf
            raise DomainError("grid slopes and their changes must be finite")
        nodes = self._knots.at
        if not all(a < b for a, b in zip(nodes, nodes[1:])):  # dx below the rounding of x0
            raise DomainError("grid nodes x0 + i dx must strictly increase")

    def _knot_rows(self):
        # a node per knot; the data jumps from 0 to y_0 at x_0 and from y_N to
        # 0 at x_N, and the change of slope counts the end slopes against 0
        y = list(self.samples)
        nodes = (self.x0 + self.dx * np.arange(len(y))).tolist()
        kinks = np.diff(np.diff(y) / self.dx, prepend=0.0, append=0.0).tolist()
        return nodes, y, [0.0] + y[1:], y[:-1] + [0.0], [y[0]] + [0.0] * (len(y) - 2) + [-y[-1]], kinks


def sample(values, x0: float, dx: float) -> Sampled:
    return Sampled(x0, dx, values)


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
    raises DomainError.  Two rules hold for a lone heat flow of data F,
    before any other route.  Where its atoms (``_flow_atoms``) are one atom
    w theta_tau(x - a) of order 0, such as an order-0 flow of a Gaussian
    power c theta_s (tau = s + t), the norm is |coef w| ||theta_tau||_p at
    every p.  At p = 1, an order-0 flow of data that keeps one sign
    (``_keeps_one_sign``) has the data's norm |coef| ||F||_1: the kernel is
    positive, so the flow keeps F's sign and conserves int F, and
    ||F * theta_t||_1 = |int F| = ||F||_1.  At p = 2, where every term has atoms
    (piecewise-linear data, Gaussian powers, heat flows of either), the
    norm is the energy identity's double sum over the atoms
    (``_energy.energy_norm``), with no quadrature.  Every other norm is
    ``_quadrature_lp_norm``."""
    p = _validate_exponent(p)
    if not terms:
        return 0.0
    for _, F in terms:
        data = F.source()
        lo, hi = data.effective_support(cfg)
        if hi - lo > 1e6:
            raise DomainError(f"combination norms are not supported for slowly decaying variant {data.kind!r}")
    c, flow = terms[0]
    data = flow.source()
    atoms = flow._flow_atoms() if len(terms) == 1 and data is not flow else None
    if atoms is not None:
        (tau, n, o, locs, weights), *rest = atoms
        if not rest and o == 0 and len(locs) == 1:
            return abs(c * weights[0]) * theta_norm_closed(p, tau)
        if p == 1.0 and n == 0 and data._keeps_one_sign():
            return abs(c) * lp_norm(data, 1.0, cfg)
    if p == 2.0:
        from ._energy import energy_norm  # compiled on first use, not at import

        exact = energy_norm(terms, cfg)
        if exact is not None:
            return exact
    return _quadrature_lp_norm(terms, p, cfg)


def _quadrature_lp_norm(terms: Sequence[tuple[float, PrimitiveFunction]], p: float, cfg: QuadratureConfig) -> float:
    """``combo_lp_norm`` measured on the values of the terms, p in [1, inf].

    A finite p is s (integral of |combo / s|^p)^(1/p) with s the
    combination's peak on a 33-node scan of the window (1 where the scan
    reads 0), so the tolerances act relatively even where the terms
    cancel; the interior scan nodes seed the partition with the terms'
    breakpoints and window edges, so no first panel is wider than 1/32 of
    the window and no narrow term's window hides inside a panel, and the
    seed panels' nodes go to the terms in one call.  p = inf is the larger
    of the 1,025-node scan max, refined by 33-node brackets
    (``_bracket_max``, one call of the terms per round), and the
    combination at the middle of each cell between breakpoints; the scan
    skips the step terms' breakpoints, where closed steps add."""
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

    val, _ = _integrate(integrand, lo, hi, cfg, pts + [e for w in supports for e in w] + list(scan[1:-1]), _panels)
    return s * val ** (1.0 / p)


def _json_number(v) -> float:
    """A JSON number as a float.  TypeError for anything else, booleans
    and numeric strings included (``float`` reads True as 1.0 and "2" as 2.0),
    ValueError for an integer past the float range."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError("an integer overflows a float") from None


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
    except DomainError:  # a constructor's own message: the descriptor parsed
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed primitive descriptor: {exc}") from exc
    raise DomainError(f"unknown primitive type {kind!r}")
