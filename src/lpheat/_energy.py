"""p = 2 norms of step data, sampled data and their heat flows by the
energy identity, with no quadrature.

F'' of such data is a finite set of atoms (``PrimitiveFunction._flow_atoms``),
and by Plancherel and the semigroup theta_s * theta_u = theta_{s+u} the
squared L^2 norm of a combination of them and of their flows
F * theta_t^(n) is a double sum over the atoms against pair kernels in
closed form.  ``lp_space.combo_lp_norm`` imports this module on its first
p = 2 call, so importing the package does not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import MAX_DERIV_ORDER, theta_deriv_values
from .lp_space import _erfc, _exp_neg_square
from .quadrature import QuadratureConfig

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _bare_kernel(d: np.ndarray, o: int) -> np.ndarray:
    """K_0^(o)(d) for o = -1..-4: sgn(d) / 2, |d| / 2, d |d| / 4, |d|^3 / 12,
    each the derivative of the next."""
    if o == -1:
        return np.sign(d) / 2.0
    ad = np.abs(d)
    return ad / 2.0 if o == -2 else d * ad / 4.0 if o == -3 else ad ** 3 / 12.0


def _smoothing(d: np.ndarray, tau: float, o: int) -> np.ndarray:
    """K_tau^(o)(d) - K_0^(o)(d), with K_tau^(o) = K_0^(o) * theta_tau at
    o < 0 (E sgn(X) / 2, E|X| / 2, E[X|X|] / 4, E|X|^3 / 12 for
    X ~ N(d, sigma^2), sigma^2 = 2 tau) and theta_tau^(o) at o >= 0 (no
    bare part).  In terms of erfc(|u|) and exp(-u^2), u = d / 2 sqrt(tau),
    so the parts that decay with |d| / sigma carry no K_0."""
    if o >= 0:
        # past 1e3 sqrt(tau) the kernel underflows to 0; the clip keeps d / 2 tau finite
        edge = 1e3 * math.sqrt(tau)
        return theta_deriv_values(np.clip(d, -edge, edge), tau, o)
    sigma = math.sqrt(2.0 * tau)
    ad, s2 = np.abs(d), 2.0 * tau
    u = d / (2.0 * math.sqrt(tau))
    e = _erfc(np.abs(u))
    g = sigma * _SQRT_2_OVER_PI * _exp_neg_square(u)
    if o == -1:
        return -np.sign(d) * e / 2.0
    if o == -2:
        return (g - ad * e) / 2.0
    if o == -3:
        return np.sign(d) * (s2 - (d * d + s2) * e + ad * g) / 4.0
    return (3.0 * ad * s2 - (ad ** 3 + 3.0 * ad * s2) * e + g * (d * d + 2.0 * s2)) / 12.0


_MOMENTS = 64
_POWERS = np.arange(_MOMENTS)
_INV_FACTORIAL = np.array([1.0 / math.factorial(p) for p in range(_MOMENTS)])


def _taylor_coefficients(count: int) -> np.ndarray:
    """c_m for m = -4, -3, ...: K_tau^(m)(0) = c_m theta_tau(0) sigma^-m
    with sigma^2 = 2 tau, so c_m = (-1)^(m/2) (m - 1)!! for even m (1/3 at
    m = -4, 1 at m = -2) and 0 for odd m."""
    out, c = [], 1.0 / 3.0
    for m in range(-4, count - 4):
        out.append(0.0 if m % 2 else c)
        if not m % 2:
            c *= -(m + 1)
    return np.array(out)


_TAYLOR_C = _taylor_coefficients(_MOMENTS + 2 * MAX_DERIV_ORDER + 4)


def _moments(rows, base: int, center: float, half: float) -> tuple[np.ndarray, np.ndarray]:
    """The moments <nu, ((x - center) / half)^p>, p < _MOMENTS, of
    nu = sum over the rows (o, locs, w) of w delta^(o - base)_a, with
    <delta^(m)_a, f> = (-1)^m f^(m)(a); and the same sums of magnitudes,
    the scale of their rounding."""
    mu, mu_abs = np.zeros(_MOMENTS), np.zeros(_MOMENTS)
    for o, locs, w in rows:
        m = o - base
        q = _POWERS[: _MOMENTS - m]
        powers = ((locs - center) / half)[:, None] ** q
        factor = (-1.0 / half) ** m * np.prod([q + r for r in range(1, m + 1)], axis=0)
        mu[m:] += factor * (w @ powers)
        mu_abs[m:] += np.abs(factor) * (np.abs(w) @ np.abs(powers))
    return mu, mu_abs


def _moment_series(g, h, tau: float, center: float, half: float) -> tuple[float, float]:
    """<theta^(b_g) * nu_g, theta^(b_h) * nu_h> with tau the sum of the two
    times, for groups g and h given as (rows, base order b) with nu the sum
    of w delta^(o - b)_a over the rows: the Taylor series at 0 of the pair
    kernel (-1)^(b_h) K_tau^(b_g + b_h)(y_h - y_g), taken in the moments
    about center through
    (y_h - y_g)^i = sum over p of C(i, p) (y_h - c)^(i - p) (c - y_g)^p.
    Moments 0 and 1 of each nu vanish (it is F'' of compact data, or
    derivatives of it), so the terms that would carry the kernel's
    constant and linear parts are never formed; with every |y - c| <=
    half < sigma / 2 the terms fall at least as 2^-i.  Returns the value
    and the scale of its rounding."""
    (mu_g, abs_g), (mu_h, abs_h) = (_moments(*group, center, half) for group in (g, h))
    b_g, b_h = g[1], h[1]
    b, sigma = b_g + b_h, math.sqrt(2.0 * tau)
    mu_g, abs_g, mu_h, abs_h = (np.where(_POWERS >= 2, v * _INV_FACTORIAL, 0.0) for v in (mu_g, abs_g, mu_h, abs_h))
    conv = np.convolve(np.where(_POWERS % 2, -mu_g, mu_g), mu_h)[:_MOMENTS]
    # to first order a moment's rounding meets the other group's moment itself
    rounding = (np.convolve(np.abs(mu_g), abs_h) + np.convolve(abs_g, np.abs(mu_h)))[:_MOMENTS]
    weights = _TAYLOR_C[_POWERS + b + 4] * (half / sigma) ** _POWERS
    scale = (-1.0) ** b_h * sigma ** -b / (2.0 * math.sqrt(math.pi * tau))
    return scale * float(weights @ conv), abs(scale) * float(np.abs(weights) @ rounding)


# the rounding of the energy sum, in units of the sum of its terms'
# magnitudes: a few ulps of 2^-52 per kernel value and per product
_ROUNDING = 4.0 * 2.0 ** -52


def energy_norm(terms, cfg: QuadratureConfig) -> float | None:
    """||sum_i c_i F_i||_2 with no quadrature, or None where a term has no
    atoms (``_flow_atoms``), a pair kernel's order exceeds MAX_DERIV_ORDER,
    or the terms of the sum cancel so far that its rounding could move the
    norm by more than ``cfg.rel_tol`` (flows at two nearly equal times with
    opposite signs), where quadrature of the pointwise difference is the
    better measurement.

    The atoms are merged into one weight row W_g per (time, order), on one
    location axis per order.  By Plancherel and theta_s * theta_u =
    theta_{s+u}, the square is the sum over row pairs of
    (-1)^(o_g) W_g K^(o_g + o_h)_(t_g + t_h)(a_j - a_k) W_h, with
    K^(o)_tau = K_0^(o) * theta_tau (``_smoothing``).  Two forms keep that
    sum from cancelling.  A pair of times whose sigma = sqrt(2 tau)
    exceeds the spread of their atoms' locations, where the kernel is
    nearly its constant part, is one Taylor series in the moments of the
    two times' atoms (``_moment_series``), which the constant and linear
    parts never enter.  Every other pair is split as K_0 + (K_tau - K_0), and its
    tau-free K_0 parts are summed over the weights pooled across those
    pairs first, so that they cancel exactly where the rows do
    (F * theta_t - F at small t)."""
    rows: dict[tuple[float, int], dict[float, float]] = {}
    least_n: dict[float, int] = {}
    for c, F in terms:
        atoms = F._flow_atoms()
        if atoms is None:
            return None
        for t, n, o, locs, weights in atoms:
            least_n[t] = min(n, least_n.get(t, n))
            row = rows.setdefault((t, o), {})
            for a, w in zip(locs, weights):
                row[a] = row.get(a, 0.0) + c * w
    if 2 * max(o for _, o in rows) > MAX_DERIV_ORDER:
        return None
    axes = {}
    for (_, o), row in rows.items():
        axes.setdefault(o, set()).update(a for a, w in row.items() if w != 0.0)
    axes = {o: np.array(sorted(locs)) for o, locs in axes.items()}
    W = {(t, o): np.array([row.get(a, 0.0) for a in axes[o].tolist()]) for (t, o), row in rows.items()}
    W = {key: w for key, w in W.items() if w.any()}
    if not W:
        return 0.0
    # weights scaled to a largest |w| of 1, so no product under- or overflows
    peak = max(float(np.max(np.abs(w))) for w in W.values())
    W = {key: w / peak for key, w in W.items()}
    times = sorted({t for t, _ in W})
    by_time = {t: [(o, axes[o], w) for (s, o), w in W.items() if s == t] for t in times}
    reach = {t: [f(a[w != 0.0]) for _, a, w in by_time[t] for f in (np.min, np.max)] for t in times}
    total = size = 0.0
    pooled: dict[tuple[tuple[float, int], int], np.ndarray] = {}
    for tg in times:
        for th in times:
            tau, lo, hi = tg + th, min(reach[tg] + reach[th]), max(reach[tg] + reach[th])
            if 2.0 * tau > (hi - lo) ** 2:
                # the flows at time t are theta_t^(n - 2) * nu_t for their least order n
                g, h = ((by_time[s], least_n[s] - 2) for s in (tg, th))
                value, scale = _moment_series(g, h, tau, 0.5 * (lo + hi), 0.5 * (hi - lo) or 1.0)
                total, size = total + value, size + scale
                continue
            for og, ag, wg in by_time[tg]:
                for oh, ah, wh in by_time[th]:
                    if og + oh < 0:
                        pooled[(tg, og), oh] = pooled.get(((tg, og), oh), 0.0) + wh
                    if tau > 0.0:
                        K = _smoothing(ag[:, None] - ah[None, :], tau, og + oh)
                        total += (-1.0) ** og * float(wg @ K @ wh)
                        size += float(np.abs(wg) @ np.abs(K) @ np.abs(wh))
    for ((tg, og), oh), P in pooled.items():
        K = _bare_kernel(axes[og][:, None] - axes[oh][None, :], og + oh)
        total += (-1.0) ** og * float(W[tg, og] @ K @ P)
        size += float(np.abs(W[tg, og]) @ np.abs(K) @ np.abs(P))
    if not total > _ROUNDING * size / cfg.rel_tol:  # also where a kernel overflowed to inf or nan
        return None
    return peak * math.sqrt(total)
