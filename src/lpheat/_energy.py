"""Exact flow norms of piecewise-linear data (step data, sampled grids)
and their heat flows, with no quadrature: p = 2 by the energy identity,
p = 1 of a flow that keeps one sign by contraction plus conservation.

p = 2.  F'' of such data is a finite set of atoms, a delta' at each jump
and a delta at each kink (``PrimitiveFunction._flow_atoms``), and by
Plancherel and the semigroup theta_s * theta_u = theta_{s+u} the squared
L^2 norm of a combination of them and of their flows F * theta_t^(n) is
a double sum over the atoms against pair kernels in closed form
(``energy_norm``).  Where every atom location lies on one uniform grid
x_0 + i dx to within its rounding (every ``Sampled`` datum, and step
edges from ``np.linspace``; ``_slots``), the pair sum of two weight
rows is the correlation sum_l K(l dx) (w * w')(l) over the grid lags,
so each kernel is evaluated at the M distinct lags, not at the N^2
pairs, and memory stays O(M).  Elsewhere the (j, k) sums run in blocks of at most
``_BLOCK_ENTRIES`` entries.  Where every term comes from one datum, that
layout is the datum's own, built once per datum (``_terms_layout``).

p = 1.  For data F that keeps one sign, the contraction
||F * theta_t||_1 <= ||F||_1 and conservation of the integral,
int F * theta_t = int F, pin ||F * theta_t||_1 = ||F||_1
(``conserved_l1_norm``).

``lp_space.combo_lp_norm`` imports this module on its first p = 1 or
p = 2 call, so importing the package does not compile it.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .kernel import MAX_DERIV_ORDER, _bare_kernel, _smoothing, _tails
from .quadrature import _BLOCK_ENTRIES, QuadratureConfig

_EPS = 2.0 ** -52


class _Lags:
    """The offsets of rows on one uniform grid of M slots: the lags l dx,
    l = 1 - M .. M - 1, at the M distinct values |l| dx.  A pair of rows
    meets a kernel K as sum_l K(l dx) c(l) over their correlation
    c(l) = sum_k x[k + l] y[k], np.correlate's full output at l + M - 1."""

    def __init__(self, m: int, dx: float):
        lags = np.arange(1 - m, m)
        self.d = lags * dx
        self.distinct, self.spread, self.bare = self.d[m - 1:], np.abs(lags), {}

    def pair(self, x, y, kernels) -> tuple[float, float]:
        """sum over (coef, K, |K|) of coef x K y, and of |coef| |x| |K| |y|,
        for rows given as (w, |w|, nonzero slots)."""
        c, c_abs = np.correlate(x[0], y[0], "full"), np.correlate(x[1], y[1], "full")
        return (sum(coef * float(K @ c) for coef, K, _ in kernels),
                sum(abs(coef) * float(K_abs @ c_abs) for coef, _, K_abs in kernels))


class _Block:
    """The offsets a_j - a_k of the slots' locations, for j in one block
    of rows; a pair of rows meets a kernel K as sum_jk x_j K(a_j - a_k) y_k."""

    def __init__(self, places: np.ndarray, rows: slice):
        self.d = places[rows, None] - places[None, :]
        self.rows, self.distinct, self.spread, self.bare = rows, np.abs(self.d), None, {}

    def pair(self, x, y, kernels) -> tuple[float, float]:
        xj, xj_abs = x[0][self.rows], x[1][self.rows]
        return (sum(coef * float(xj @ K @ y[0]) for coef, K, _ in kernels),
                sum(abs(coef) * float(xj_abs @ K_abs @ y[1]) for coef, _, K_abs in kernels))


def _kernel_table(offsets, needed) -> dict:
    """(tau, o) -> (K, |K|) on the offsets for each needed pair: K_0^(o)
    where tau is None, kept on the offsets (``bare``), which a datum's
    layout keeps across calls, else K_tau^(o) - K_0^(o) (``_smoothing``),
    with one erfc / exp pass over the distinct offsets for every tau at
    once."""
    taus = sorted({tau for tau, o in needed if tau is not None and o < 0})
    columns = {}
    if taus:
        e, x = _tails(offsets.distinct, taus)
        if offsets.spread is not None:
            e, x = e[offsets.spread], x[offsets.spread]
        columns = {tau: (e[..., i], x[..., i]) for i, tau in enumerate(taus)}
    table = {}
    for tau, o in needed:
        if tau is not None:
            K = _smoothing(offsets.d, tau, o, *columns.get(tau, ()))
            table[tau, o] = (K, np.abs(K))
        elif o in offsets.bare:
            table[tau, o] = offsets.bare[o]
        else:
            K = _bare_kernel(offsets.d, o)
            table[tau, o] = offsets.bare[o] = (K, np.abs(K))
    return table


def _slots(locs: np.ndarray, rel_tol: float):
    """(slots, width, place, lags): the slot of each location in rows of
    ``width`` slots, and ``place`` mapping slots to their locations.  On
    one uniform grid slot i is a_0 + i dx and lags are its ``_Lags``;
    elsewhere the slots are the sorted distinct locations and lags is None.
    The grid is taken where it has at most 4 slots per location and moving
    each location onto it only absorbs rounding: by at most 8 ulps of the
    largest |location|, and by at most rel_tol / 16 of dx, so no gap
    changes its length by more than rel_tol / 8 (a gap of 40 ulps is no
    grid step of 47).  Only the distinct locations matter: a location
    repeated takes the same slot."""
    ordered = np.sort(locs)
    gaps = ordered[1:] - ordered[:-1]
    a0, a1 = float(ordered[0]), float(ordered[-1])
    if a1 == a0:
        return np.zeros(locs.size, dtype=int), 1, lambda i: a0 + i, _Lags(1, 1.0)
    positive = gaps > 0.0
    dx = float(gaps.min(where=positive, initial=math.inf))
    steps = (a1 - a0) / dx
    tol = 8.0 * _EPS * max(abs(a0), abs(a1))
    if steps <= 4 * (np.count_nonzero(positive) + 1) and tol < dx / 4.0:
        steps = round(steps)
        dx = (a1 - a0) / steps
        at = (locs - a0) / dx
        slots = np.rint(at)
        shift = float(np.abs(at - slots).max())
        if shift * dx <= tol and shift <= min(rel_tol, 1.0) / 16.0:
            return slots.astype(int), steps + 1, lambda i: a0 + dx * i, _Lags(steps + 1, dx)
    places, slots = np.unique(locs, return_inverse=True)
    return slots, places.size, places.__getitem__, None


def _layout(rows, rel_tol: float):
    """``_slots`` of rows of atom locations, the slots split back into one
    array per row, or None where there are no locations."""
    locs = np.concatenate(rows)
    if not locs.size:
        return None
    slots, width, place, lags = _slots(locs, rel_tol)
    ends = list(accumulate(map(len, rows)))
    return [slots[i:j] for i, j in zip([0] + ends, ends)], width, place, lags


def _terms_layout(terms, rows, rel_tol: float):
    """``_layout`` of the terms' atom rows.  Where every term comes from one
    datum with a layout cache (``_layouts`` of piecewise-linear data), the
    rows hold that datum's locations once per term, so the layout is the
    datum's own, built once per datum and rel_tol, its slots repeated."""
    datum = terms[0][1].source()
    cache = getattr(datum, "_layouts", None)
    if cache is None or any(F.source() is not datum for _, F in terms):
        return _layout(rows, rel_tol)
    if rel_tol not in cache:
        cache[rel_tol] = _layout([locs for *_, locs, _ in datum._flow_atoms()], rel_tol)
    own = cache[rel_tol]
    return None if own is None else (own[0] * len(terms), *own[1:])


_MOMENTS = 64
_POWERS = np.arange(_MOMENTS)
# 1 / p! from p = 2 on: moments 0 and 1 vanish, so their terms are never formed
_INV_FACTORIAL = np.array([0.0, 0.0] + [1.0 / math.factorial(p) for p in range(2, _MOMENTS)])
_ALTERNATING = np.where(_POWERS % 2, -1.0, 1.0)
_TAIL_POWERS = np.maximum(_POWERS - 2, 0)  # (half / sigma)^(p - 2), finite where moment p vanishes


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
    """The moments <nu, ((x - center) / half)^p> / p!, 2 <= p < _MOMENTS,
    of nu = sum over the rows (o, locs, w) of w delta^(o - base)_a, with
    <delta^(m)_a, f> = (-1)^m f^(m)(a); and the same sums of magnitudes,
    the scale of their rounding.  Moments 0 and 1 vanish (nu is F'' of
    compact data, or derivatives of it) and are returned as 0."""
    mu, mu_abs = np.zeros(_MOMENTS), np.zeros(_MOMENTS)
    for o, locs, w in rows:
        m = o - base
        q = _POWERS[: _MOMENTS - m]
        powers = ((locs - center) / half)[:, None] ** q
        factor = (-1.0 / half) ** m
        for r in range(1, m + 1):
            factor = factor * (q + r)
        mu[m:] += factor * (w @ powers)
        mu_abs[m:] += np.abs(factor) * (np.abs(w) @ np.abs(powers))
    return mu * _INV_FACTORIAL, mu_abs * _INV_FACTORIAL


def _moment_series(g, h, tau: float, half: float) -> tuple[float, float]:
    """<theta^(b_g) * nu_g, theta^(b_h) * nu_h> with tau the sum of the two
    times, for groups g and h given as (moments, base order b) with nu the
    sum of w delta^(o - b)_a over their rows and the moments about a
    centre c in units of ``half`` (``_moments``): the Taylor series at 0
    of the pair kernel (-1)^(b_h) K_tau^(b_g + b_h)(y_h - y_g), taken in
    the moments through
    (y_h - y_g)^i = sum over p of C(i, p) (y_h - c)^(i - p) (c - y_g)^p.
    Since moments 0 and 1 vanish, the terms that would carry the kernel's
    constant and linear parts are never formed; with every |y - c| <=
    half < sigma / 2 the terms fall at least as 2^-i.  Term i carries
    half^i sigma^(-b-1-i), taken as half^2 sigma^(-b-3) (half / sigma)^(i-2),
    so no factor leaves the float range where the sum does not (sigma^-b
    alone overflows near t = 4e153).  Returns the value and the scale of
    its rounding."""
    ((mu_g, abs_g), b_g), ((mu_h, abs_h), b_h) = g, h
    b, sigma = b_g + b_h, math.sqrt(2.0 * tau)
    conv = np.convolve(_ALTERNATING * mu_g, mu_h)[:_MOMENTS]
    # to first order a moment's rounding meets the other group's moment itself
    rounding = (np.convolve(np.abs(mu_g), abs_h) + np.convolve(abs_g, np.abs(mu_h)))[:_MOMENTS]
    weights = _TAYLOR_C[b + 4:b + 4 + _MOMENTS] * (half / sigma) ** _TAIL_POWERS
    scale = (-1.0) ** b_h * half * half * sigma ** (-b - 3) / math.sqrt(2.0 * math.pi)
    return scale * float(weights @ conv), abs(scale) * float(np.abs(weights) @ rounding)


# the rounding of the energy sum, in units of the sum of its terms'
# magnitudes: a few ulps of 2^-52 per kernel value and per product
_ROUNDING = 4.0 * _EPS


def energy_norm(terms, cfg: QuadratureConfig) -> float | None:
    """||sum_i c_i F_i||_2 with no quadrature, or None where a term has no
    atoms (``_flow_atoms``), a pair kernel's order exceeds MAX_DERIV_ORDER,
    or the terms of the sum cancel so far that its rounding could move the
    norm by more than ``cfg.rel_tol`` (flows at two nearly equal times with
    opposite signs), where quadrature of the pointwise difference is the
    better measurement.

    The atoms are merged into one weight row W_g per (time, order) on one
    axis of locations.  By Plancherel and theta_s * theta_u =
    theta_{s+u}, the square is the sum over row pairs of
    (-1)^(o_g) W_g K^(o_g + o_h)_(t_g + t_h)(a_j - a_k) W_h, with
    K^(o)_tau = K_0^(o) * theta_tau (``_smoothing``); each unordered pair
    of rows is summed once, since K^(o)(-d) = (-1)^o K^(o)(d) makes the
    two orders equal.  Two forms keep that sum from cancelling.  A pair of
    times whose sigma = sqrt(2 tau) exceeds the spread of their atoms'
    locations, where the kernel is nearly its constant part, is one Taylor
    series in the moments of the two times' atoms (``_moment_series``),
    which the constant and linear parts never enter.  Every other pair is
    split as K_0 + (K_tau - K_0), and its tau-free K_0 parts are summed
    over the weights pooled across the times each time pairs with first,
    so that they cancel exactly where the rows do (F * theta_t - F at
    small t).  The rows sit on the slots of ``_terms_layout``: on a uniform
    grid each kernel is evaluated at the distinct lags (``_Lags``), else
    on blocks of (j, k) offsets (``_Block``), with one erfc / exp pass
    over the distinct offsets for all time sums (``_kernel_table``)."""
    parts, least_n = [], {}
    for c, F in terms:
        atoms = F._flow_atoms()
        if atoms is None:
            return None
        for t, n, o, locs, weights in atoms:
            least_n[t] = min(n, least_n.get(t, n))
            parts.append(((t, o), locs, np.multiply(c, weights)))
    keys = sorted({key for key, _, _ in parts}, key=lambda key: (key[1], key[0]))
    if 2 * max(o for _, o in keys) > MAX_DERIV_ORDER:
        return None
    layout = _terms_layout(terms, [locs for _, locs, _ in parts], cfg.rel_tol)
    if layout is None:  # zero data
        return 0.0
    # one row per (time, order) on the slots, each location's weights
    # added in the order of the terms (a row's own locations are distinct)
    slots, width, place, lags = layout
    index = {key: i for i, key in enumerate(keys)}
    merged = np.zeros((len(keys), width))
    for (key, _, w), row in zip(parts, slots):
        merged[index[key], row] += w
    # weights scaled to a largest |w| of 1, so no product under- or overflows
    magnitude = np.abs(merged)
    peak = float(magnitude.max())
    if peak == 0.0:
        return 0.0
    merged /= peak
    magnitude /= peak
    vectors, by_time, ends = {}, {}, {}
    for (t, o), v, v_abs in zip(keys, merged, magnitude):
        nz = v.nonzero()[0]
        if nz.size:
            vectors[(t,), o] = (v, v_abs, nz)
            by_time.setdefault(t, []).append((o, nz, v))
            first, last = ends.get(t, (width, 0))
            ends[t] = (min(first, int(nz[0])), max(last, int(nz[-1])))
    # the span of each time's atoms (places increase with the slot)
    reach = {t: (float(place(first)), float(place(last))) for t, (first, last) in ends.items()}
    times = sorted(by_time)

    total = size = 0.0
    jobs: dict[tuple, list] = {}  # (x key, y key) -> [(coefficient, tau or None for K_0, kernel order)]
    partners: dict[float, list[float]] = {t: [] for t in times}
    for i, tg in enumerate(times):
        for th in times[i:]:
            mult, tau = (1.0 if tg == th else 2.0), tg + th
            lo, hi = min(reach[tg][0], reach[th][0]), max(reach[tg][1], reach[th][1])
            if 2.0 * tau > (hi - lo) ** 2:
                # the flows at time t are theta_t^(n - 2) * nu_t for their least order n
                center, half = 0.5 * (lo + hi), 0.5 * (hi - lo) or 1.0
                g, h = ((_moments([(o, place(nz), v[nz]) for o, nz, v in by_time[s]], least_n[s] - 2, center, half),
                         least_n[s] - 2) for s in (tg, th))
                value, scale = _moment_series(g, h, tau, half)
                total, size = total + mult * value, size + mult * scale
                continue
            partners[tg].append(th)
            if th != tg:
                partners[th].append(tg)
            if tau == 0.0:
                continue
            for a, (og, _, _) in enumerate(by_time[tg]):
                for b, (oh, _, _) in enumerate(by_time[th]):
                    if tg != th or b >= a:
                        coef = (1.0 if tg == th and a == b else 2.0) * (-1.0) ** og
                        jobs.setdefault((((tg,), og), ((th,), oh)), []).append((coef, tau, og + oh))
    # the K_0 parts: each time's rows against the weights pooled over the
    # times it pairs with
    orders = sorted({o for _, o in vectors})
    for tg in times:
        pool = tuple(partners[tg])
        for o in orders:
            if (pool, o) not in vectors:
                v = sum((vectors[(t,), o][0] for t in pool if ((t,), o) in vectors), np.zeros(width))
                vectors[pool, o] = (v, np.abs(v), v.nonzero()[0])
        symmetric = pool == (tg,)
        for a, og in enumerate(orders):
            for b, oh in enumerate(orders):
                x, y = ((tg,), og), (pool, oh)
                if og + oh < 0 and (b >= a or not symmetric) and x in vectors and vectors[y][2].size:
                    coef = (2.0 if symmetric and b > a else 1.0) * (-1.0) ** og
                    jobs.setdefault((x, y), []).append((coef, None, og + oh))

    if jobs:
        needed = {(tau, o) for job in jobs.values() for _, tau, o in job}
        if lags is not None:
            sets = [lags]
        else:
            # blocks of rows whose offsets, at every tau, fill at most _BLOCK_ENTRIES entries
            step = max(1, _BLOCK_ENTRIES // (width * max(1, len({tau for tau, _ in needed}))))
            places = place(np.arange(width))
            sets = (_Block(places, slice(i, i + step)) for i in range(0, width, step))
        for offsets in sets:
            table = _kernel_table(offsets, needed)
            for (x, y), job in jobs.items():
                value, scale = offsets.pair(vectors[x], vectors[y], [(coef, *table[tau, o]) for coef, tau, o in job])
                total, size = total + value, size + scale
    if not total > _ROUNDING * size / cfg.rel_tol:  # also where a kernel overflowed to inf or nan
        return None
    return peak * math.sqrt(total)


def conserved_l1_norm(terms, cfg: QuadratureConfig) -> float | None:
    """||c F * theta_t||_1 = |c| ||F||_1 for one order-0 flow of
    piecewise-linear data F that keeps one sign, or None (more terms, data,
    a derivative order, data with no atoms, or |int F| below ||F||_1 by
    more than ``cfg.rel_tol``, where quadrature measures the flow).

    The contraction gives ||F * theta_t||_1 <= ||F||_1 and conservation
    int F * theta_t = int F, so where |int F| = ||F||_1 the two pin the
    value.  int F = <F'', (x - c)^2> / 2 over the atoms of F'' (a delta'
    atom w at a gives -w (a - c), a delta atom w (a - c)^2 / 2), with c
    the centre of the atoms' span; ||F||_1 is the datum's exact norm."""
    if len(terms) != 1:
        return None
    c, flow = terms[0]
    data, atoms = flow.source(), flow._flow_atoms()
    if data is flow or atoms is None or any(n != 0 for _, n, _, _, _ in atoms):
        return None
    l1 = data.finite_lp_norm(1.0, cfg)
    if l1 == 0.0:
        return 0.0
    locs = [a for *_, row, _ in atoms for a in row]
    center = 0.5 * (min(locs) + max(locs))
    integral = math.fsum(-w * (a - center) if o == -1 else 0.5 * w * (a - center) ** 2
                         for _, _, o, row, weights in atoms for a, w in zip(row, weights))
    if abs(abs(integral) - l1) > cfg.rel_tol * l1:
        return None
    return abs(c) * l1
