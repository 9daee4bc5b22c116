"""Exact p = 2 flow norms of piecewise-linear data, Gaussian powers and
their heat flows, with no quadrature: the energy identity.

Such data is a finite set of atoms (``PrimitiveFunction._flow_atoms``:
a delta' of F'' at each jump and a delta at each kink of piecewise-linear
data, one atom c theta_s of order 0 for a Gaussian power), and by
Plancherel and the semigroup theta_s * theta_u = theta_{s+u} the squared
L^2 norm of a combination of them and of their flows F * theta_t^(n) is
a double sum over the atoms against pair kernels in closed form
(``energy_norm``).  Where every atom location lies on one uniform grid
x_0 + i dx to within 8 ulps and 2^-30 dx (``Sampled`` data, and step
edges from ``np.linspace``; ``_slots``), the pair sum of two weight rows
is the correlation sum_l K(l dx) (w * w')(l) over the grid lags, plus
the first-order term of each location's exact offset from its grid
point, so each kernel is evaluated at the M distinct lags, not at the
N^2 pairs, memory stays O(M), and the sum is the one at the float
locations.  Elsewhere the (j, k) sums run in blocks of at most
``_BLOCK_ENTRIES`` entries.

What does not depend on the times is a ``_Plan``: the layout of its own
rows, the merged and scaled weight rows with their nonzero slots, the
span of each time's atoms and, for each pattern of time pairs taking the
moment series, the pair jobs, the pooled K_0 rows, the grid correlations
and the series groups' moments.  Where every term comes from one datum,
the datum keeps one plan per shape of terms (``_plan``), so a sweep over
times forms per call only what the times decide: the time sums, the
kernels at them, the pair sums, the series and the rounding test.

``lp_space.combo_lp_norm`` imports this module on its first p = 2 call,
so importing the package does not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import MAX_DERIV_ORDER, _bare_kernel, _smoothing, _tails
from .quadrature import _BLOCK_ENTRIES, QuadratureConfig

_EPS = 2.0 ** -52


class _Lags:
    """The offsets of rows on one uniform grid of M slots: the lags l dx,
    l = 1 - M .. M - 1, at the M distinct values |l| dx.  A pair of rows
    meets a kernel K as sum_l K(l dx) c(l) over their correlation
    c(l) = sum_k x[k + l] y[k], np.correlate's full output at l + M - 1.
    Where a slot's location lies r_k off its grid point (``drift``, None
    where every r_k is 0), the offset a_j - a_k is l dx + r_j - r_k, and the
    sum takes that to first order: sum_l K'(l dx) (c_r(l) - c^r(l)), with
    c_r and c^r the correlations of x r with y and of x with y r."""

    def __init__(self, m: int, dx: float, drift=None):
        lags = np.arange(1 - m, m)
        self.d = lags * dx
        self.distinct, self.spread, self.bare, self.drift = self.d[m - 1:], np.abs(lags), {}, drift

    def operands(self, x, y) -> tuple:
        """The correlations of rows given as (w, |w|, nonzero slots), of
        their magnitudes and, with a drift, c_r - c^r: free of the times, so
        a plan keeps them."""
        drift = None if self.drift is None else (
            np.correlate(x[0] * self.drift, y[0], "full") - np.correlate(x[0], y[0] * self.drift, "full"))
        return np.correlate(x[0], y[0], "full"), np.correlate(x[1], y[1], "full"), drift

    @staticmethod
    def pair(operands, kernels) -> tuple[float, float]:
        """sum over (coef, K, |K|, K') of coef x K y plus, with a drift,
        its first-order term, and of |coef| |x| |K| |y|, for two rows given
        by their ``operands``."""
        c, c_abs, drift = operands
        value = sum(coef * float(K @ c) for coef, K, _, _ in kernels)
        if drift is not None:
            value += sum(coef * float(K1 @ drift) for coef, _, _, K1 in kernels)
        return value, sum(abs(coef) * float(K_abs @ c_abs) for coef, _, K_abs, _ in kernels)


class _Block:
    """The offsets a_j - a_k of the slots' locations, for j in one block
    of rows; a pair of rows meets a kernel K as sum_jk x_j K(a_j - a_k) y_k."""

    def __init__(self, places: np.ndarray, rows: slice):
        self.d = places[rows, None] - places[None, :]
        self.rows, self.distinct, self.spread, self.bare = rows, np.abs(self.d), None, {}

    @staticmethod
    def operands(x, y):
        return x, y

    def pair(self, operands, kernels) -> tuple[float, float]:
        x, y = operands
        xj, xj_abs = x[0][self.rows], x[1][self.rows]
        return (sum(coef * float(xj @ K @ y[0]) for coef, K, _, _ in kernels),
                sum(abs(coef) * float(xj_abs @ K_abs @ y[1]) for coef, _, K_abs, _ in kernels))


def _kernel_table(offsets, needed) -> dict:
    """(tau, o) -> (K, |K|) on the offsets for each needed pair: K_0^(o)
    where tau is None, kept on the offsets (``bare``), which a plan's
    grid lags keep across calls, else K_tau^(o) - K_0^(o) (``_smoothing``),
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


def _slots(locs: np.ndarray):
    """(slots, width, place, lags): the slot of each location in rows of
    ``width`` slots, and ``place`` mapping slots to their locations.  On
    one uniform grid slot i is a_0 + i dx and lags are its ``_Lags``;
    elsewhere the slots are the sorted distinct locations and lags is None.
    The grid is taken where it has at most 4 slots per location and each
    location lies within 8 ulps of the largest |location| and 2^-30 dx of
    its grid point (a gap of 40 ulps is no grid step of 47).  No location
    moves: each slot keeps its exact offset r from its grid point
    (``_drift``), which the lags carry to first order, so a pair sum is the
    one at the float locations up to (r / dx)^2 <= 2^-60 of its terms.
    Only the distinct locations matter: a location repeated takes the same
    slot."""
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
        off = locs - a0
        at = off / dx
        slots = np.rint(at)
        shift = float(np.abs(at - slots).max())
        if shift * dx <= tol and shift <= 2.0 ** -30:
            r, slots = _drift(locs, off, a0, dx, slots), slots.astype(int)
            drift = None
            if r.any():
                drift = np.zeros(steps + 1)
                drift[slots] = r
            return slots, steps + 1, lambda i: a0 + dx * i, _Lags(steps + 1, dx, drift)
    places, slots = np.unique(locs, return_inverse=True)
    return slots, places.size, places.__getitem__, None


def _drift(locs: np.ndarray, off: np.ndarray, a0: float, dx: float, i: np.ndarray) -> np.ndarray:
    """a - (a0 + i dx) in exact arithmetic, rounded once, for locations a
    near their grid points, given off = a - a0 as rounded: its error by
    TwoSum, i dx as i hi + i lo with hi, lo the Veltkamp halves of dx (each
    product exact for i < 2^26), and off - i hi exact as the two are close."""
    hi = dx * 134217729.0  # 2^27 + 1
    hi -= hi - dx
    back = off - locs
    return ((off - i * hi) - i * (dx - hi)) + ((locs - (off - back)) - (a0 + back))


# plans kept on one datum: a bound, since each coefficient is a shape
_PLANS = 64


def _plan(terms, atoms, times) -> _Plan:
    """The ``_Plan`` of the terms.  Where every term comes from one datum
    with a plan cache (``_plans`` of piecewise-linear data), the plan is
    kept there by the terms' shape: each term's coefficient, time class and
    order, and whether the first time is 0.  Elsewhere the plan serves this
    call only.  Each plan lays out its own rows, and only the distinct
    locations decide a layout (``_slots``), so terms of one datum get the
    slots, lags and drift of the datum's own locations whatever their
    shape."""
    datum = terms[0][1].source()
    cache = getattr(datum, "_plans", None)
    if cache is None or any(F.source() is not datum for _, F in terms):
        return _Plan(terms, atoms, times)
    shape = times[0] == 0.0, tuple((c, times.index(rows[0][0]), rows[0][1]) for (c, _), rows in zip(terms, atoms))
    if shape not in cache:
        if len(cache) >= _PLANS:
            cache.clear()
        cache[shape] = _Plan(terms, atoms, times)
    return cache[shape]


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


class _Plan:
    """The time-free part of one energy sum (``energy_norm``), built from
    its terms' atom rows at their time classes (the distinct times in
    increasing order), which it lays out on the ``_slots`` of their
    locations: the merged weight rows scaled to a largest |w| of 1 and
    their nonzero slots, the span of each class's atoms, and for each
    pattern of time pairs taking the moment series (``_route``) the series
    groups' moments, the pair jobs with the pooled K_0 vectors and, on a
    grid, the rows' correlations.  ``peak``
    is the scale of the rows, or None where a pair kernel's order exceeds
    MAX_DERIV_ORDER and 0.0 for zero data, whose sums are not formed."""

    def __init__(self, terms, atoms, times):
        parts, self.least_n, klass = [], {}, {t: i for i, t in enumerate(times)}
        for (c, _), rows in zip(terms, atoms):
            for t, n, o, locs, weights in rows:
                i = klass[t]
                self.least_n[i] = min(n, self.least_n.get(i, n))
                parts.append(((i, o), locs, np.multiply(c, weights)))
        keys = sorted({key for key, _, _ in parts}, key=lambda key: (key[1], key[0]))
        self.peak = None if 2 * max(o for _, o in keys) > MAX_DERIV_ORDER else 0.0
        locs = np.concatenate([locs for _, locs, _ in parts])
        if self.peak is None or not locs.size:  # orders past the kernel's, or zero data
            return
        # one row per (time, order) on the slots, each location's weights
        # added in the order of the terms (a row's own locations are distinct)
        slots, self.width, self.place, self.lags = _slots(locs)
        index = {key: i for i, key in enumerate(keys)}
        merged, end = np.zeros((len(keys), self.width)), 0
        for key, row, w in parts:
            merged[index[key], slots[end:end + len(row)]] += w
            end += len(row)
        # weights scaled to a largest |w| of 1, so no product under- or overflows
        magnitude = np.abs(merged)
        self.peak = float(magnitude.max())
        if self.peak == 0.0:
            return
        merged /= self.peak
        magnitude /= self.peak
        self.vectors, self.by_time, ends = {}, {}, {}
        for (i, o), v, v_abs in zip(keys, merged, magnitude):
            nz = v.nonzero()[0]
            if nz.size:
                self.vectors[(i,), o] = (v, v_abs, nz)
                self.by_time.setdefault(i, []).append((o, nz, v))
                first, last = ends.get(i, (self.width, 0))
                ends[i] = (min(first, int(nz[0])), max(last, int(nz[-1])))
        # the span of each time's atoms (places increase with the slot)
        reach = {i: (float(self.place(first)), float(self.place(last))) for i, (first, last) in ends.items()}
        self.classes = sorted(self.by_time)
        self.orders = sorted({o for _, o in self.vectors})
        self.zero = times[0] == 0.0
        self.pairs = []  # (i, j, multiplicity, lo, hi) for time classes i <= j
        for a, i in enumerate(self.classes):
            for j in self.classes[a:]:
                lo, hi = min(reach[i][0], reach[j][0]), max(reach[i][1], reach[j][1])
                self.pairs.append((i, j, 1.0 if i == j else 2.0, lo, hi))
        self.pair_classes = [(i, j) for i, j, *_ in self.pairs]
        self.spreads = [(hi - lo) ** 2 for *_, lo, hi in self.pairs]
        self.groups, self.routes = {}, {}  # (time, center, half) -> (moments, base order); pattern -> route
        self.places = None if self.lags is not None else self.place(np.arange(self.width))
        # with a drift, each kernel's derivative K^(o+1) too
        self.derive = self.lags is not None and self.lags.drift is not None

    def _route(self, pattern):
        """(series, jobs, needed) for the time pairs whose ``pattern`` entry
        is true taking the moment series: series (k, multiplicity, group of
        i, group of j, half) for the k-th pair (i, j), jobs (operands,
        [(coefficient, k or -1 for K_0, kernel order)]) and the (k, order)
        kernels they read."""
        series, jobs, by_time = [], {}, self.by_time
        partners = {i: [] for i in self.classes}
        for k, ((i, j, mult, lo, hi), takes) in enumerate(zip(self.pairs, pattern)):
            if takes:
                # the flows at time t are theta_t^(n - 2) * nu_t for their least order n
                center, half = 0.5 * (lo + hi), 0.5 * (hi - lo) or 1.0
                for s in (i, j):
                    if (s, center, half) not in self.groups:
                        rows = [(o, self.place(nz), v[nz]) for o, nz, v in by_time[s]]
                        base = self.least_n[s] - 2
                        self.groups[s, center, half] = (_moments(rows, base, center, half), base)
                series.append((k, mult, self.groups[i, center, half], self.groups[j, center, half], half))
                continue
            partners[i].append(j)
            if j != i:
                partners[j].append(i)
            if i == j == 0 and self.zero:  # tau = 0: no smoothing
                continue
            for a, (og, _, _) in enumerate(by_time[i]):
                for b, (oh, _, _) in enumerate(by_time[j]):
                    if i != j or b >= a:
                        coef = (1.0 if i == j and a == b else 2.0) * (-1.0) ** og
                        jobs.setdefault((((i,), og), ((j,), oh)), []).append((coef, k, og + oh))
        # the K_0 parts: each time's rows against the weights pooled over the
        # times it pairs with
        vectors = dict(self.vectors)
        for i in self.classes:
            pool = tuple(partners[i])
            for o in self.orders:
                if (pool, o) not in vectors:
                    v = sum((vectors[(s,), o][0] for s in pool if ((s,), o) in vectors), np.zeros(self.width))
                    vectors[pool, o] = (v, np.abs(v), v.nonzero()[0])
            symmetric = pool == (i,)
            for a, og in enumerate(self.orders):
                for b, oh in enumerate(self.orders):
                    x, y = ((i,), og), (pool, oh)
                    if og + oh < 0 and (b >= a or not symmetric) and x in vectors and vectors[y][2].size:
                        coef = (2.0 if symmetric and b > a else 1.0) * (-1.0) ** og
                        jobs.setdefault((x, y), []).append((coef, -1, og + oh))
        prepare = (self.lags or _Block).operands
        steps = (0, 1) if self.derive else (0,)
        needed = {(k, o + step) for job in jobs.values() for _, k, o in job for step in steps}
        jobs = [(prepare(vectors[x], vectors[y]), job) for (x, y), job in jobs.items()]
        self.routes[pattern] = route = (series, jobs, needed)
        return route

    def norm(self, times, rel_tol: float) -> float | None:
        """The norm at these times, or None where the sum cancels past
        its rounding (``energy_norm``): the time sums tau, the moment series,
        the pair kernels at tau and the pair sums."""
        if not self.peak:
            return self.peak
        tau = [times[i] + times[j] for i, j in self.pair_classes]
        pattern = tuple([2.0 * t > spread for t, spread in zip(tau, self.spreads)])
        series, jobs, needed = self.routes.get(pattern) or self._route(pattern)
        total = size = 0.0
        for k, mult, g, h, half in series:
            value, scale = _moment_series(g, h, tau[k], half)
            total, size = total + mult * value, size + mult * scale
        if jobs:
            tau.append(None)  # K_0
            needed = {(tau[k], o) for k, o in needed}
            if self.lags is not None:
                sets = [self.lags]
            else:
                # blocks of rows whose offsets, at every tau, fill at most _BLOCK_ENTRIES entries
                step = max(1, _BLOCK_ENTRIES // (self.width * max(1, len({t for t, _ in needed}))))
                sets = (_Block(self.places, slice(i, i + step)) for i in range(0, self.width, step))
            for offsets in sets:
                table = _kernel_table(offsets, needed)
                for operands, job in jobs:
                    kernels = [(coef, *table[tau[k], o], self.derive and table[tau[k], o + 1][0]) for coef, k, o in job]
                    value, scale = offsets.pair(operands, kernels)
                    total, size = total + value, size + scale
        if not total > _ROUNDING * size / rel_tol:  # also where a kernel overflowed to inf or nan
            return None
        return self.peak * math.sqrt(total)


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
    small t).  The rows sit on the slots ``_slots`` gives: on a uniform grid
    each kernel is evaluated at the distinct lags (``_Lags``), else on
    blocks of (j, k) offsets (``_Block``), with one erfc / exp pass over
    the distinct offsets for all time sums (``_kernel_table``).

    All of that but the times is the terms' ``_Plan`` (the layout, merged
    rows, spans, pair jobs, pooled K_0 rows, grid correlations and
    moments), which one datum keeps for each shape of terms (``_plan``): a
    call finds the pattern of pairs taking the series from its times, then
    forms only the time sums, the series, the kernels at the time sums, the
    pair sums and the rounding test, in the order a fresh plan would, so a
    kept plan gives the same bits.  Atoms at one place whose sum a bound
    shows to cancel past the rounding test go to quadrature before any of
    it (``_cancels``)."""
    atoms = [F._flow_atoms() for _, F in terms]
    if any(rows is None for rows in atoms):
        return None
    times = sorted({t for rows in atoms for t, *_ in rows})
    if _cancels(terms, atoms, times, cfg.rel_tol):
        return None
    return _plan(terms, atoms, times).norm(times, cfg.rel_tol)


def _gaussian_moment(m: int, tau: float) -> float:
    """(1 / 2 pi) int |xi|^m exp(-tau xi^2) dxi, which is |K_tau^(m)(0)| at even m."""
    return math.gamma(0.5 * (m + 1)) * tau ** (-0.5 * (m + 1)) / (2.0 * math.pi)


def _cancels(terms, atoms, times, rel_tol: float) -> bool:
    """Whether a bound proves that the energy sum of atoms at one place, of
    orders o >= 0 (Gaussian powers and their flows, where every time pair
    takes the moment series), fails its rounding test, so that its series
    need not be formed.  With W the weights merged per (time, order), T the
    least time and Q_o = sum_t W_(t,o) the weights pooled over the times,
    |e^(-d xi^2) - 1| <= d xi^2 bounds the flows' transform by
    e^(-T xi^2) (sum_o |Q_o| |xi|^o + sum |W_(t,o)| (t - T) |xi|^(o+2)), so
    by Plancherel the sum is at most that sum squared against the
    Gaussian moments at 2T.  Each series term reads |W W'| |K^(o+o')_(t+t')(0)|
    at least twice in the size, so the test fails where four times the
    bound is below its threshold (F * theta_t - F at small t)."""
    weights, places = {}, set()
    for (c, _), rows in zip(terms, atoms):
        for t, _, o, locs, w in rows:
            if o < 0 or len(locs) != 1:
                return False
            places.add(float(locs[0]))
            weights[t, o] = weights.get((t, o), 0.0) + c * float(w[0])
    if len(places) != 1:
        return False
    pooled, least = {}, times[0]
    for (_, o), w in weights.items():
        pooled[o] = pooled.get(o, 0.0) + w
    parts = [(abs(w), o) for o, w in pooled.items()] + [(abs(w) * (t - least), o + 2) for (t, o), w in weights.items()]
    try:
        bound = sum(a * b * _gaussian_moment(m + n, 2.0 * least) for a, m in parts for b, n in parts)
        floor = 2.0 * sum(abs(w * v) * _gaussian_moment(o + p, t + s) for (t, o), w in weights.items()
                          for (s, p), v in weights.items() if (o + p) % 2 == 0)
    except (OverflowError, ZeroDivisionError):
        return False
    return 4.0 * bound < _ROUNDING * floor / rel_tol
