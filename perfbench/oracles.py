"""Independent reference values for every number the benchmark checks.

Nothing here imports lpheat.  Closed forms use ``math`` (erf/erfc and
exp, written in erfc form where a difference of two erf values would
cancel); integrals that have no closed form go through
``scipy.integrate.quad``, which is a different adaptive scheme (QUADPACK
QAGS/QAGP with a 21-point Kronrod rule) from the library's G7/K15 loop.

Conventions: the heat kernel is theta_t(x) = exp(-x^2/4t) / (2 sqrt(pi t)),
a Gaussian of variance 2t, and the solution for data f = F' is
v_t = F * theta_t'.
"""

from __future__ import annotations

import math

SQRT_PI = math.sqrt(math.pi)
# kernel windows extend this many standard deviations sqrt(2t); the
# neglected mass is below exp(-72)
WINDOW_SIGMAS = 12.0


def window(t: float) -> float:
    return WINDOW_SIGMAS * math.sqrt(2.0 * t)


def theta(x: float, t: float) -> float:
    return math.exp(-x * x / (4.0 * t)) / (2.0 * SQRT_PI * math.sqrt(t))


def dtheta(x: float, t: float) -> float:
    return -(x / (2.0 * t)) * theta(x, t)


def erf_diff(a: float, b: float) -> float:
    """erf(a) - erf(b) without cancellation in either tail."""
    if b >= 0.0:
        return math.erfc(b) - math.erfc(a)
    if a <= 0.0:
        return math.erfc(-a) - math.erfc(-b)
    return math.erf(a) - math.erf(b)


def box_conv(a: float, b: float, t: float, x: float) -> float:
    """(1_[a,b] * theta_t)(x)."""
    s = 2.0 * math.sqrt(t)
    return 0.5 * erf_diff((x - a) / s, (x - b) / s)


def kernel_lq_norm(s: float, q: float) -> float:
    """||theta_s||_q from the Gaussian integral."""
    if math.isinf(q):
        return theta(0.0, s)
    return ((2.0 * SQRT_PI * math.sqrt(s)) ** (-q) * math.sqrt(4.0 * math.pi * s / q)) ** (1.0 / q)


def gaussian_power_scale(t0: float, beta: float) -> float:
    """theta_{t0}^beta = c * theta_{t0/beta}; returns c."""
    return (2.0 * SQRT_PI * math.sqrt(t0)) ** (-beta) * 2.0 * SQRT_PI * math.sqrt(t0 / beta)


# ---------------------------------------------------------------------------
# Primitives.  The compact ones give the solution value
# v_t(x) = (F * theta_t')(x) in closed form, and the step and sampled ones
# also the convolution (F * theta_t)(x) with its support and kinks; the
# slow-tail profiles give F(x) for the quadrature oracles below.


class Steps:
    """Finite sum of height * 1_[a, b]."""

    def __init__(self, steps):
        self.steps = [(float(h), float(a), float(b)) for h, a, b in steps]

    def jumps(self):
        out = []
        for h, a, b in self.steps:
            out.append((h, a))
            out.append((-h, b))
        return out

    def solution(self, t, x):
        # F' is the jump measure, so v_t is a sum of shifted kernels
        return sum(w * theta(x - loc, t) for w, loc in self.jumps())

    def conv(self, t, x):
        return sum(h * box_conv(a, b, t, x) for h, a, b in self.steps)

    def support(self):
        return min(a for _, a, _ in self.steps), max(b for _, _, b in self.steps)

    def kinks(self):
        return sorted({a for _, a, _ in self.steps} | {b for _, _, b in self.steps})


class GaussPower:
    """theta_{t0}^beta, which is a multiple of theta_{t0/beta}."""

    def __init__(self, t0, beta):
        self.c = gaussian_power_scale(t0, beta)
        self.s = t0 / beta

    def solution(self, t, x):
        return self.c * dtheta(x, self.s + t)

    def value(self, x):
        return self.c * theta(x, self.s)

    def support(self):
        w = window(self.s)
        return -w, w


class PiecewiseLinear:
    """Linear interpolation of samples at x0 + i dx, zero outside."""

    def __init__(self, x0, dx, values):
        self.xs = [x0 + dx * i for i in range(len(values))]
        self.ys = [float(v) for v in values]

    def _panels(self):
        for i in range(len(self.xs) - 1):
            xa, xb = self.xs[i], self.xs[i + 1]
            yield xa, xb, self.ys[i], (self.ys[i + 1] - self.ys[i]) / (xb - xa)

    def solution(self, t, x):
        # F' = end jumps plus the panel slopes: erf panels and two kernels
        out = self.ys[0] * theta(x - self.xs[0], t) - self.ys[-1] * theta(x - self.xs[-1], t)
        for xa, xb, _, slope in self._panels():
            out += slope * box_conv(xa, xb, t, x)
        return out

    def conv(self, t, x):
        out = 0.0
        for xa, xb, ya, slope in self._panels():
            # int_{xa}^{xb} (ya + slope (u - xa)) theta_t(x - u) du with z = x - u
            g0 = box_conv(xa, xb, t, x)
            g1 = -2.0 * t * (theta(x - xa, t) - theta(x - xb, t))
            out += (ya + slope * (x - xa)) * g0 - slope * g1
        return out

    def support(self):
        return self.xs[0], self.xs[-1]

    def kinks(self):
        return list(self.xs)


class TailLogProfile:
    """x^(-1/p0) log(x)^-2 on [e, inf)."""

    def __init__(self, p0):
        self.p0 = float(p0)
        self.edge = math.e

    def value(self, x):
        return x ** (-1.0 / self.p0) / math.log(x) ** 2 if x >= math.e else 0.0


class SineProfile:
    """x^(-1/p0) sin x on (1, inf)."""

    def __init__(self, p0):
        self.p0 = float(p0)
        self.edge = 1.0

    def value(self, x):
        return x ** (-1.0 / self.p0) * math.sin(x) if x > 1.0 else 0.0


def quad(fn, lo, hi, points=(), rel=1e-12, abs_tol=0.0):
    # scipy is imported on first use so that it is not counted in the
    # benchmark's set-up time or in the program's peak memory
    from scipy import integrate as sci

    pts = sorted({p for p in points if lo < p < hi})
    val, _ = sci.quad(
        fn, lo, hi, points=pts or None, limit=max(200, 4 * len(pts) + 50), epsabs=abs_tol, epsrel=rel
    )
    return val


def tail_solution(F, t, x):
    """(F * theta_t')(x) for a slowly decaying profile, by scipy quad."""
    w = window(t)
    lo, hi = max(F.edge, x - w), x + w
    if lo >= hi:
        return 0.0
    # v_t is compared relative to its largest value on the grid, so an
    # absolute floor far below that keeps quad from chasing cancellation
    return quad(lambda u: F.value(u) * dtheta(x - u, t), lo, hi, points=(x,), abs_tol=1e-15)


def tail_conv(F, t, x):
    w = window(t)
    lo, hi = max(F.edge, x - w), x + w
    if lo >= hi:
        return 0.0
    return quad(lambda u: F.value(u) * theta(x - u, t), lo, hi, points=(x,))


# ---------------------------------------------------------------------------
# Norms.


def conv_norm(F, t, r):
    """||F * theta_t||_r over the line, by scipy quad of the closed-form
    convolution on the support widened by the kernel window."""
    slo, shi = F.support()
    lo, hi = slo - window(t), shi + window(t)
    pts = F.kinks()
    return quad(lambda x: abs(F.conv(t, x)) ** r, lo, hi, points=pts) ** (1.0 / r)


def box_self_norm_sq(length: float, sigma: float) -> float:
    """B(sigma) = L - int_0^L int_0^L k_sigma(x - y) for a centred Gaussian
    density k_sigma of standard deviation sigma."""
    return length * math.erfc(length / (sigma * math.sqrt(2.0))) + sigma * math.sqrt(
        2.0 / math.pi
    ) * -math.expm1(-length * length / (2.0 * sigma * sigma))


def box_conv_l2(length: float, t: float) -> float:
    """||1_[0,L] * theta_t||_2 exactly: <F, F * theta_2t> = L - B(2 sqrt t)."""
    return math.sqrt(length - box_self_norm_sq(length, 2.0 * math.sqrt(t)))


def box_ic_distance(length: float, t: float) -> float:
    """||1_[0,L] * theta_t - 1_[0,L]||_2 exactly, 2 B(sqrt 2t) - B(2 sqrt t).

    For small t the two edges decouple and this tends to
    sqrt(2 sqrt(2t) (sqrt2 - 1) / sqrt(pi))."""
    return math.sqrt(
        2.0 * box_self_norm_sq(length, math.sqrt(2.0 * t)) - box_self_norm_sq(length, 2.0 * math.sqrt(t))
    )


def weak_pairing_gaussian(a: float, b: float, t: float) -> float:
    """<v_t - f, phi> for f = delta_a - delta_b and phi = exp(-x^2).

    theta_t * phi = exp(-x^2 / (1 + 4t)) / sqrt(1 + 4t) by the semigroup, so
    the pairing is (theta_t*phi - phi)(a) - (theta_t*phi - phi)(b); each
    difference is written with expm1 so the O(t) result keeps its digits.
    """
    g = 1.0 + 4.0 * t

    def diff(x):
        # exp(-x^2/g)/sqrt(g) - exp(-x^2) = exp(-x^2) expm1(x^2 (1 - 1/g) - log(g)/2)
        return math.exp(-x * x) * math.expm1(x * x * (4.0 * t / g) - 0.5 * math.log1p(4.0 * t))

    return diff(a) - diff(b)


def taillog_lp_norm(p0: float, p: float) -> float:
    """||TailLog(p0)||_p; (2p0 - 1)^(-1/p0) at p = p0, quad after u = log x
    otherwise, e^(-1/p0) for p = inf."""
    if math.isinf(p):
        return math.exp(-1.0 / p0)
    if p == p0:
        return (2.0 * p0 - 1.0) ** (-1.0 / p0)
    rate = p / p0 - 1.0
    return quad(lambda u: math.exp(-rate * u) * u ** (-2.0 * p), 1.0, math.inf) ** (1.0 / p)


def sine_sup(p0: float) -> float:
    """sup of x^(-1/p0) sin x on (1, inf).

    It is attained in the first arch where x cos x = sin x / p0, or is the
    limit at x = 1 when the profile already decreases there."""
    from scipy import optimize as sopt

    a = 1.0 / p0
    if math.cos(1.0) - a * math.sin(1.0) <= 0.0:
        return math.sin(1.0)
    x = sopt.brentq(lambda x: x * math.cos(x) - a * math.sin(x), 1.0, math.pi, xtol=1e-15, rtol=1e-15)
    return x ** (-a) * math.sin(x)


def pairing_value(F, density, lo, hi, kinks=()):
    """-int F g over [lo, hi]."""
    return -quad(lambda x: F.value(x) * density(x), lo, hi, points=kinks)


# ---------------------------------------------------------------------------
# Exponent constants, restated from their definitions.


def inv(p):
    return 0.0 if math.isinf(p) else 1.0 / p


def r_of(p, q):
    s = inv(p) + inv(q) - 1.0
    return math.inf if abs(s) <= 1e-12 else 1.0 / s


def conj(p):
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def c_p(p):
    if p == 1.0 or math.isinf(p):
        return 1.0
    pp = conj(p)
    return p ** (1.0 / p) / pp ** (1.0 / pp)


def young_c(p, q):
    return math.sqrt(c_p(p) * c_p(q) / c_p(r_of(p, q)))


def alpha_q(q):
    """||theta_1||_q, by quadrature for finite q."""
    if math.isinf(q):
        return theta(0.0, 1.0)
    w = window(1.0)
    return quad(lambda x: theta(x, 1.0) ** q, -w, w, points=(0.0,)) ** (1.0 / q)


def delta_q(q):
    """||theta_1'||_q; by quadrature for finite q, at the peak x = sqrt2 for q = inf."""
    if math.isinf(q):
        return abs(dtheta(math.sqrt(2.0), 1.0))
    w = window(1.0)
    pk = math.sqrt(2.0)
    return quad(lambda x: abs(dtheta(x, 1.0)) ** q, -w, w, points=(-pk, 0.0, pk)) ** (1.0 / q)


def m_p(p):
    if p == 1.0:
        return 1.0 / (4.0 * SQRT_PI)
    return (3.0 ** (1.0 / p) * (p - 1.0) ** (1.0 - 1.0 / p)) / (
        2.0 ** (1.0 + 2.0 / p) * SQRT_PI * p ** (1.0 - 1.0 / p)
    )


def beta_of(p, q):
    if p == 1.0 and q == 1.0:
        return 1.0
    if p == 1.0:
        return math.inf
    if q == 1.0:
        return 0.0
    return (1.0 - 1.0 / q) / (1.0 - 1.0 / p)


def rel_dev(value: float, reference: float, floor: float = 0.0) -> float:
    """|value - reference| / max(|reference|, floor)."""
    if value == reference:
        return 0.0
    scale = max(abs(reference), floor)
    return abs(value - reference) / scale if scale > 0.0 else math.inf
