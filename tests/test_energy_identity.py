"""Exact flow norms with no quadrature: p = 2 norms of step and sampled data,
Gaussian powers and their heat flows by the energy identity, a double sum
over the atoms, and p = 1 norms of their flows where the data keeps one
sign (``combo_lp_norm``'s sign rule)."""

import dataclasses
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sci
from scipy import special

import lpheat as lh
from lpheat import lp_space, quadrature
from lpheat._energy import energy_norm
from lpheat.convolve import Heated

_CFG = lh.QuadratureConfig(abs_tol=1e-13, rel_tol=1e-10)
_COMBO = ((1.0, 0.0, 1.0), (-2.0, 0.5, 2.0), (0.5, -1.0, 0.25))


# --- an independent scalar oracle: F * theta_t^(n), n = 0, 1, 2, as a sum
# over F's steps or linear panels, written with the math module


def _theta(z, t, n=0):
    th = math.exp(-z * z / (4.0 * t)) / (2.0 * math.sqrt(math.pi * t))
    return (th, -z / (2.0 * t) * th, (z * z / (4.0 * t * t) - 1.0 / (2.0 * t)) * th)[n]


def _box(x, a, b, t):
    """(1_[a, b] * theta_t)(x) = (erf(za) - erf(zb)) / 2, taken on the side
    where the two arguments do not cancel."""
    za, zb = (x - a) / (2.0 * math.sqrt(t)), (x - b) / (2.0 * math.sqrt(t))
    if zb > 0.0:
        return 0.5 * (math.erfc(zb) - math.erfc(za))
    if za < 0.0:
        return 0.5 * (math.erfc(-za) - math.erfc(-zb))
    return 0.5 * (math.erf(za) - math.erf(zb))


def _theta_gap(x, a, b, t):
    """theta_t(x - a) - theta_t(x - b) through expm1 from the larger of the
    two, so nearby a, b keep digits."""
    za, zb = x - a, x - b
    if abs(za) <= abs(zb):
        return -_theta(za, t) * math.expm1((za * za - zb * zb) / (4.0 * t))
    return _theta(zb, t) * math.expm1((zb * zb - za * za) / (4.0 * t))


_GL_NODES, _GL_WEIGHTS = (v.tolist() for v in np.polynomial.legendre.leggauss(8))


def _panel_flow(x, a, b, ya, s, t, n):
    """int over [a, b] of g(u) theta_t^(n)(x - u) du, g(u) = ya + s (u - a),
    in closed form by parts: g(a) theta^(n-1)(x - a) - g(b) theta^(n-1)(x - b)
    + s int theta^(n-1) (the ramp and box at n = 0).  Its parts cancel on a
    panel narrow against sqrt(t), so there it is 8-point Gauss-Legendre, whose
    error is below 1e-16 while the panel is under 0.1 sqrt(t) and x within
    28 sqrt(t)."""
    if b - a < 0.1 * math.sqrt(t):
        h, m = 0.5 * (b - a), 0.5 * (a + b)
        return h * sum(w * (ya + s * (m + h * g - a)) * _theta(x - m - h * g, t, n) for g, w in zip(_GL_NODES, _GL_WEIGHTS))
    yb = ya + s * (b - a)
    if n == 0:
        return (ya + s * (x - a)) * _box(x, a, b, t) + 2.0 * t * s * _theta_gap(x, a, b, t)
    if n == 1:
        return ya * _theta(x - a, t) - yb * _theta(x - b, t) + s * _box(x, a, b, t)
    return ya * _theta(x - a, t, 1) - yb * _theta(x - b, t, 1) + s * _theta_gap(x, a, b, t)


def _flow(F, t, n):
    """x -> (F * theta_t^(n))(x); t = 0 is F itself."""
    if t == 0.0:
        return lambda x: float(F.values(np.array([x]))[0])
    if isinstance(F, lh.Sampled):
        xs, ys = list(F.breakpoints()), list(F.samples)
        panels = [(xa, xb, ya, (yb - ya) / F.dx) for xa, xb, ya, yb in zip(xs, xs[1:], ys, ys[1:])]
    else:
        panels = [(a, b, h, 0.0) for h, a, b in F.steps]
    return lambda x: sum(_panel_flow(x, a, b, ya, s, t, n) for a, b, ya, s in panels)


def _quad_norm(parts):
    """sqrt of scipy quad of (sum c F_i * theta_{t_i}^(n_i))^2 over the line,
    split at every node of each F_i and 2, 6 and 14 sqrt(t_i) either side of
    it, where its flow's features fade, with the flows scaled by the largest
    |c sup F| so the square cannot underflow; quad's own error estimate
    must be far below the tolerance the comparison uses."""
    lo = min(F.effective_support(_CFG)[0] for _, F, _, _ in parts)
    hi = max(F.effective_support(_CFG)[1] for _, F, _, _ in parts)
    cuts = {b + s * k * math.sqrt(t) for _, F, t, _ in parts for b in F.breakpoints()
            for s in (-1.0, 0.0, 1.0) for k in (2.0, 6.0, 14.0)}
    reach = 28.0 * math.sqrt(max(t for _, _, t, _ in parts))
    lo, hi = lo - reach, hi + reach
    m = max(abs(c) * F.sup_bound() for c, F, _, _ in parts) or 1.0
    flows = [(c / m, _flow(F, t, n)) for c, F, t, n in parts]
    val, err = sci.quad(lambda x: sum(c * v(x) for c, v in flows) ** 2, lo, hi,
                        points=sorted(x for x in cuts if lo < x < hi), limit=4000, epsabs=0.0, epsrel=1e-13)
    assert err <= 1e-11 * val, "the scipy reference did not converge"
    return m * math.sqrt(val)


def _terms(parts):
    return [(c, F if t == 0.0 else Heated(F, t, n, _CFG)) for c, F, t, n in parts]


# locations within 1e-100 of 0 are drawn as 0, since scipy's quad cannot
# split at such a distance; no subnormal sample values, whose slopes have
# lost their digits
_place = st.floats(-3.0, 3.0).map(lambda a: a if abs(a) > 1e-100 else 0.0)
_steps = st.lists(
    st.tuples(st.floats(-3.0, 3.0).filter(lambda h: abs(h) > 0.05), _place, st.floats(0.05, 3.0)),
    min_size=1, max_size=4,
).map(lambda s: lh.StepCombo(tuple((h, a, a + w) for h, a, w in s)))
_grids = st.builds(
    lh.sample,
    st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=2, max_size=40),
    st.floats(-3.0, 1.0).map(lambda a: a if abs(a) > 1e-100 else 0.0),
    st.floats(0.02, 0.5),
)
_data = _steps | _grids
_times = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@settings(max_examples=40, deadline=None)
@given(F=_data, G=_data, n=st.sampled_from([0, 1, 2]), t1=_times, t2=_times,
       c=st.sampled_from([(1.0, 0.0, 0.0), (1.0, 0.0, -1.0), (1.0, -1.0, 0.0), (1.0, 0.7, -1.0), (-0.4, 2.0, 0.3)]))
def test_energy_identity_matches_scipy_quad_of_the_closed_form_flow(F, G, n, t1, t2, c):
    # flows at two times and the raw data: c1 F * theta_t1^(n) + c2 G * theta_t2^(n) + c3 F.
    # The times differ by a factor of 1.25 at least: flows at nearly equal
    # times with opposite signs cancel below the rounding of their energy sum,
    # and there the norm hands over to quadrature
    # (test_flows_cancelling_below_rounding_take_quadrature)
    assume(abs(math.log(t2 / t1)) > math.log(1.25))
    parts = [(c1, H, t, k) for c1, H, t, k in ((c[0], F, t1, n), (c[1], G, t2, n), (c[2], F, 0.0, 0)) if c1 != 0.0]
    got = lh.combo_lp_norm(_terms(parts), 2.0, _CFG)
    assert got == pytest.approx(_quad_norm(parts), rel=1e-9, abs=1e-300)


class _Reached(Exception):
    pass


def _boom(*args, **kwargs):
    raise _Reached


_GUARD_INPUTS = [
    [(1.0, lh.Indicator(0.0, 1.0))],
    [(1.0, lh.StepCombo(_COMBO)), (-1.0, lh.Indicator(0.0, 1.1))],
    [(1.0, lh.sample(np.exp(-np.linspace(-2.0, 2.0, 41) ** 2), -2.0, 0.1))],
] + [
    [(1.0, Heated(F, t, n, _CFG)), (-1.0, F)]
    for F in (lh.StepCombo(_COMBO), lh.sample([0.3, -1.0, 2.0, 0.5], -1.0, 0.4))
    for t in (1e-6, 0.3, 1e6)
    for n in (0, 1, 2)
] + [
    [(1.0, Heated(lh.Indicator(0.0, 1.0), 0.1, 0, _CFG)), (2.0, Heated(lh.sample([1.0, 2.0], 0.0, 1.0), 5.0, 1, _CFG))],
]


@pytest.fixture
def quadrature_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_integrate", _boom)
    monkeypatch.setattr(lp_space, "_integrate", _boom)


@pytest.mark.parametrize("terms", _GUARD_INPUTS)
def test_p2_step_and_sampled_norms_run_no_quadrature(terms, quadrature_raises):
    assert lh.combo_lp_norm(terms, 2.0, _CFG) > 0.0
    with pytest.raises(_Reached):
        lh.combo_lp_norm(terms, 2.5, _CFG)


def test_other_data_still_reaches_quadrature(quadrature_raises):
    # a Gaussian power is one kernel atom, so it, its flows and its mixtures
    # with step data take the energy sum; a slow tail has no atoms
    for terms in ([(1.0, lh.GaussianPower(1.0, 1.0))], [(1.0, Heated(lh.GaussianPower(0.5, 2.0), 0.1, 1, _CFG))],
                  [(1.0, Heated(lh.Indicator(0.0, 1.0), 0.1, 0, _CFG)), (1.0, lh.GaussianPower(1.0, 1.0))]):
        assert lh.combo_lp_norm(terms, 2.0, _CFG) > 0.0
    with pytest.raises(_Reached):
        lh.lp_norm(lh.TailLog(1.5), 2.0)


_gaussians = st.builds(lh.GaussianPower, st.floats(-4.0, 3.0).map(lambda e: 2.0 ** e),
                       st.floats(-3.0, 3.0).map(lambda e: 2.0 ** e))
_gaussian_times = st.floats(-14.0, 7.0).map(lambda e: 2.0 ** e)


@settings(max_examples=60, deadline=None)
@given(G=_gaussians, n=st.sampled_from([0, 1, 2, 3]), t=_gaussian_times, other=_data, t2=_gaussian_times,
       shape=st.sampled_from(["data", "flow", "flow minus data", "mixture"]),
       c=st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.1))
def test_gaussian_energy_norms_match_their_quadrature(G, n, t, other, t2, shape, c):
    # a Gaussian power c theta_s is one kernel atom of order 0 at time s: its
    # data, its flows at orders 0 to 3, F * theta_t - F, and mixtures with
    # step data (same order) or sampled data (order 0, the grid's closed form)
    partner = Heated(other, t2, n if other.jumps() is not None else 0, _CFG)
    terms = {"data": [(c, G)], "flow": [(c, Heated(G, t, n, _CFG))],
             "flow minus data": [(1.0, Heated(G, t, 0, _CFG)), (-1.0, G)],
             "mixture": [(1.0, Heated(G, t, n, _CFG)), (c, partner)]}[shape]
    got = energy_norm(terms, _CFG)
    assume(got is not None)  # a sum cancelling past its rounding hands over to quadrature
    assert got == pytest.approx(lp_space._quadrature_lp_norm(terms, 2.0, _CFG), rel=1e-9)


def test_each_time_forms_its_moments_once(monkeypatch):
    # three step flows pair at six time sums, all by the moment series, which
    # took each time's moments afresh for both sides of every pair (12 calls)
    import lpheat._energy as energy

    calls, inner = [], energy._moments
    monkeypatch.setattr(energy, "_moments", lambda *a: calls.append(a) or inner(*a))
    S = lh.StepCombo(_COMBO)
    terms = [(1.0, Heated(S, 4.0, 0, _CFG)), (-0.5, Heated(S, 8.0, 1, _CFG)), (2.0, Heated(S, 16.0, 0, _CFG))]
    assert energy_norm(terms, _CFG) == 1.0622662299365968  # as the 12 calls gave it
    assert len(calls) == 3


def test_gaussian_flow_minus_data_skips_the_series_it_would_discard(monkeypatch):
    # all three time pairs of G * theta_t - G take the moment series, whose
    # sum cancels to O(t^2) of its terms: at small t a bound shows the
    # rounding test would fail, so the series is not formed
    import lpheat._energy as energy

    calls, inner = [], energy._moment_series
    monkeypatch.setattr(energy, "_moment_series", lambda *a: calls.append(a) or inner(*a))
    G = lh.GaussianPower(1.0, 1.0)
    for t in (2.0 ** -14, 2.0 ** -7):
        assert energy_norm([(1.0, Heated(G, t, 0, _CFG)), (-1.0, G)], _CFG) is None
    assert calls == []
    assert energy_norm([(1.0, Heated(G, 0.5, 0, _CFG)), (-1.0, G)], _CFG) > 0.0
    assert len(calls) == 3


@settings(max_examples=80, deadline=None)
@given(G=_gaussians, H=_gaussians, n=st.sampled_from([0, 1, 2]), t=st.floats(-30.0, 2.0).map(lambda e: 2.0 ** e),
       ratio=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 0.5]), c=st.sampled_from([-1.0, -0.999999, 0.5]))
def test_the_cancellation_bound_skips_only_sums_that_fail_their_rounding_test(G, H, n, t, ratio, c):
    import lpheat._energy as energy

    for terms in ([(1.0, Heated(G, t, 0, _CFG)), (c, G)],
                  [(1.0, Heated(G, t, n, _CFG)), (c, Heated(G, t * (1.0 + ratio), n, _CFG))],
                  [(1.0, Heated(G, t, n, _CFG)), (c, Heated(H, t, n, _CFG))]):
        atoms = [F._flow_atoms() for _, F in terms]
        times = sorted({s for rows in atoms for s, *_ in rows})
        if energy._cancels(terms, atoms, times, _CFG.rel_tol):
            assert energy._plan(terms, atoms, times).norm(times, _CFG.rel_tol) is None


def test_flows_cancelling_below_rounding_take_quadrature(quadrature_raises):
    # F * theta_t - F * theta_t(1 + 1e-9) is about 1e-9 of each flow, so its
    # energy sum cancels to about 1e-18 of its terms: only the pointwise
    # difference resolves it
    box = lh.Indicator(0.0, 1.0)
    for t in (1e-4, 1.0, 1e4):
        with pytest.raises(_Reached):
            lh.combo_lp_norm([(1.0, Heated(box, t, 0, _CFG)), (-1.0, Heated(box, t * (1 + 1e-9), 0, _CFG))], 2.0, _CFG)


def test_pair_kernels_above_the_largest_order_take_quadrature(quadrature_raises):
    # step flows at order n pair at kernel order 2n - 2, within MAX_DERIV_ORDER up to n = 5
    box = lh.Indicator(0.0, 1.0)
    assert lh.combo_lp_norm([(1.0, Heated(box, 0.5, 5, _CFG))], 2.0, _CFG) > 0.0
    with pytest.raises(_Reached):
        lh.combo_lp_norm([(1.0, Heated(box, 0.5, 6, _CFG))], 2.0, _CFG)


def _box_b(s, mp):
    """B(s) = L - int_0^L int_0^L k_s(x - y) for L = 1 and a centred Gaussian
    density k_s of standard deviation s."""
    return mp.erfc(1 / (s * mp.sqrt(2))) - s * mp.sqrt(2 / mp.pi) * mp.expm1(-1 / (2 * s * s))


@pytest.mark.parametrize("t", [2.0 ** -20, 2.0 ** -14, 2.0 ** -4, 1.0, 10.0, 1e4, 1e10, 1e12])
def test_box_flow_norms_match_40_digit_closed_forms(t):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    T = mp.mpf(t)
    box = lh.Indicator(0.0, 1.0)
    # ||chi * theta_t||^2 = 1 - B(2 sqrt t), ||chi * theta_t'||^2 = 2 (theta_2t(0) - theta_2t(1)),
    # ||chi * theta_t - chi||^2 = 2 B(sqrt 2t) - B(2 sqrt t)
    exact = {
        0: mp.sqrt(1 - _box_b(2 * mp.sqrt(T), mp)),
        1: mp.sqrt(-mp.expm1(-1 / (8 * T)) / mp.sqrt(2 * mp.pi * T)),
        "ic": mp.sqrt(2 * _box_b(mp.sqrt(2 * T), mp) - _box_b(2 * mp.sqrt(T), mp)),
    }
    got = {
        0: lh.combo_lp_norm([(1.0, Heated(box, t, 0, _CFG))], 2.0, _CFG),
        1: lh.combo_lp_norm([(1.0, Heated(box, t, 1, _CFG))], 2.0, _CFG),
        "ic": lh.ic_convergence(lh.from_primitive(box, 2.0), [t], _CFG)[0],
    }
    for key, value in exact.items():
        assert got[key] == pytest.approx(float(value), rel=1e-14), key


@pytest.mark.parametrize("t", [2.0 ** -20, 2.0 ** -14, 2.0 ** -4, 1.0, 10.0, 1e4, 1e10, 1e12])
def test_step_combo_flow_norms_match_40_digit_jump_sums(t):
    # 40-digit jump sums, written in the erf / exp forms of E|X| for
    # X ~ N(d, 2 s): ||F * theta_t||^2 = -1/2 sum w_j w_k E_2t(d),
    # ||F * theta_t'||^2 = sum w_j w_k theta_2t(d),
    # ||F * theta_t - F||^2 = -1/2 sum w_j w_k (E_2t(d) - 2 E_t(d) + |d|)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    F = lh.StepCombo(_COMBO)
    jumps = [(mp.mpf(a), mp.mpf(w)) for a, w in F.jumps().items()]

    def e(d, s):
        return d * mp.erf(d / (2 * mp.sqrt(s))) + 2 * mp.sqrt(s / mp.pi) * mp.exp(-d * d / (4 * s))

    def theta(d, s):
        return mp.exp(-d * d / (4 * s)) / (2 * mp.sqrt(mp.pi * s))

    def pairs(kernel):
        return mp.fsum(wj * wk * kernel(aj - ak) for aj, wj in jumps for ak, wk in jumps)

    T = mp.mpf(t)
    exact = {
        0: mp.sqrt(-pairs(lambda d: e(d, 2 * T)) / 2),
        1: mp.sqrt(pairs(lambda d: theta(d, 2 * T))),
        "ic": mp.sqrt(-pairs(lambda d: e(d, 2 * T) - 2 * e(d, T) + abs(d)) / 2),
    }
    got = {
        0: lh.combo_lp_norm([(1.0, Heated(F, t, 0, _CFG))], 2.0, _CFG),
        1: lh.combo_lp_norm([(1.0, Heated(F, t, 1, _CFG))], 2.0, _CFG),
        "ic": lh.ic_convergence(lh.from_primitive(F, 2.0), [t], _CFG)[0],
    }
    for key, value in exact.items():
        assert got[key] == pytest.approx(float(value), rel=1e-14), key


def test_sampled_bump_flow_norms_match_quad_of_the_closed_form_flow():
    # the contraction catalog's sampled bump over its sweep t = 2^-14 ... 1
    xs = np.linspace(-2.0, 2.0, 41)
    F = lh.sample(np.exp(-xs ** 2), -2.0, 0.1)
    f = lh.from_primitive(F, 2.0)
    for k in (0, 2, 5, 8, 11, 14):
        t = 2.0 ** -k
        assert lh.solution_primitive_norm(f, t, 2.0, _CFG) == pytest.approx(_quad_norm([(1.0, F, t, 0)]), rel=1e-13)


def test_continuity_bound_on_a_narrow_step_is_exact():
    # the data differ by 1_[0.501, 0.502]; at t = 1e-10 its flow's edges are
    # far narrower than any seed panel of the quadrature, which read 8.4e-4 low
    f = lh.from_primitive(lh.StepCombo(((1.0, 0.0, 1.0), (1.0, 0.501, 0.502))), 2.0)
    g = lh.from_primitive(lh.Indicator(0.0, 1.0), 2.0)
    t, L = 1e-10, 0.001
    rep = lh.continuity_bound(f, g, lh.r_from(2.0, 1.0), t)
    exact = math.sqrt(L * math.erf(L / math.sqrt(8.0 * t))
                      - 4.0 * t * (1.0 - math.exp(-L * L / (8.0 * t))) / math.sqrt(2.0 * math.pi * t))
    assert rep.measured == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("first, second", [
    (((1.0, 0.0, 1.0), (1.0, 0.501, 0.502)), ((1.0, 0.0, 1.0),)),
    (_COMBO, ((1.0, 0.0, 1.1),)),
])
def test_p2_norm_of_step_terms_is_the_merged_step_norm(first, second):
    terms = [(1.0, lh.StepCombo(first)), (-1.0, lh.StepCombo(second))]
    merged = lh.StepCombo(first + tuple((-h, a, b) for h, a, b in second))
    assert lh.combo_lp_norm(terms, 2.0) == pytest.approx(lh.lp_norm(merged, 2.0), rel=1e-15)


# --- a plain per-pair reference for the energy sum: every pair of atom rows
# of every pair of terms, the full kernel K_tau^(o) = K_0^(o) * theta_tau
# (E sgn X / 2, E|X| / 2, E[X|X|] / 4, E|X|^3 / 12 for X ~ N(d, 2 tau) through
# erf and exp, the bare powers at tau = 0, theta_tau^(o) at o >= 0), no
# merging, no grid, no pooling, no moment series, summed exactly by fsum


def _full_kernel(d, tau, o):
    if o >= 0:
        return lh.kernel.theta_deriv_values(d, tau, o)
    if tau == 0.0:
        ad = np.abs(d)
        return {-1: np.sign(d) / 2.0, -2: ad / 2.0, -3: d * ad / 4.0, -4: ad ** 3 / 12.0}[o]
    s2 = 2.0 * tau
    erf = special.erf(d / (2.0 * math.sqrt(tau)))
    g = math.sqrt(s2) * math.sqrt(2.0 / math.pi) * np.exp(-d * d / (4.0 * tau))
    return {-1: erf / 2.0, -2: (d * erf + g) / 2.0, -3: ((d * d + s2) * erf + d * g) / 4.0,
            -4: ((d ** 3 + 3.0 * d * s2) * erf + g * (d * d + 2.0 * s2)) / 12.0}[o]


def _reference_energy(terms):
    """(sum, size, scale): the squared L^2 norm of scale times the terms as
    the plain double sum, and the sum of its terms' magnitudes.  The scale is
    the power of 2 that brings the largest weight into [1/2, 1), so no
    product leaves the normal range and the norm is compared as
    (norm * scale)^2, exactly the unscaled comparison scaled by scale^2."""
    rows = [(t, o, np.asarray(locs, dtype=float), c * np.asarray(w, dtype=float))
            for c, F in terms for t, _, o, locs, w in F._flow_atoms()]
    scale = math.ldexp(1.0, -math.frexp(max(float(np.abs(w).max(initial=0.0)) for *_, w in rows))[1])
    rows = [(t, o, a, scale * w) for t, o, a, w in rows]
    products = []
    for tg, og, ag, wg in rows:
        for th, oh, ah, wh in rows:
            K = _full_kernel(ag[:, None] - ah[None, :], tg + th, og + oh)
            products.append(((-1.0) ** og * wg[:, None] * K * wh[None, :]).ravel())
    products = np.concatenate(products)
    return math.fsum(products.tolist()), math.fsum(np.abs(products).tolist()), scale


def _uniform_steps(F, lo, hi, bins):
    """The midpoint-sampled step function of F on ``bins`` uniform bins of
    [lo, hi], step edges from np.linspace, zero steps dropped."""
    edges = np.linspace(lo, hi, bins + 1)
    heights = F.values(0.5 * (edges[:-1] + edges[1:]))
    return lh.StepCombo(tuple((h, a, b) for h, a, b in zip(heights, edges[:-1], edges[1:]) if h != 0.0))


def _approximation(values, eps):
    """A uniform-bin step approximation of a sampled datum, so its atoms sit
    on one grid of lags: the first of 8, 16, 32, ... bins on [-1, 1] whose
    L^2 distance to the datum is below eps."""
    F = lh.sample(values, -1.0, 2.0 / (len(values) - 1))
    bins = 8
    steps = _uniform_steps(F, -1.0, 1.0, bins)
    while lh.combo_lp_norm([(1.0, F), (-1.0, steps)], 2.0) >= eps:
        bins *= 2
        steps = _uniform_steps(F, -1.0, 1.0, bins)
    return steps


_wide_grids = st.builds(
    lh.sample,
    st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=2, max_size=300),
    st.floats(-3.0, 1.0),
    st.floats(0.005, 0.5),
)
_approximations = st.builds(
    _approximation,
    st.lists(st.floats(-2.0, 2.0, allow_subnormal=False).filter(lambda v: abs(v) > 0.1), min_size=3, max_size=12),
    st.sampled_from([0.3, 0.1, 0.03]),
)
_energy_data = _steps | _wide_grids | _approximations


@settings(max_examples=60, deadline=None)
@given(data=st.lists(_energy_data, min_size=1, max_size=3),
       times=st.lists(st.sampled_from([0.0, 1e-4, 1e-2, 0.3, 1.0, 30.0, 1e4]), min_size=1, max_size=3, unique=True),
       n=st.sampled_from([0, 1, 2]), coefs=st.lists(st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 0.1), min_size=3, max_size=3))
@example(data=[lh.sample([0.0, 0.0, 1.0], 1.0, 0.005)], times=[0.0], n=0, coefs=[1.0, 1.0, 1.0])
def test_energy_sum_matches_the_plain_per_pair_double_sum(data, times, n, coefs):
    # terms on 1 to 3 times; the data's grids, step edges and mixtures put the
    # rows on one grid of lags or on blocks of (j, k) offsets
    terms = [(c, F if t == 0.0 else Heated(F, t, n, _CFG))
             for c, F, t in zip(coefs, data, times + times[:1] * 3)]
    got = energy_norm(terms, _CFG)
    assume(got is not None)  # cancelling combinations hand over to quadrature
    exact, size, scale = _reference_energy(terms)
    assert abs((got * scale) ** 2 - exact) <= 8.0 * 2.0 ** -52 * size


def _energy_fuzz(seed, count):
    """(terms, copies, cfg) for ``count`` seeded combinations of one to three
    terms on one to three times: step data (edges from np.linspace, so on one
    grid, or drawn freely) and sampled data, raw or flowed at orders 0 to 2,
    every term from one datum (60 %) or each from its own.  The data come
    from a pool of 40, so a datum meets several times, orders and
    tolerances; ``copies`` holds a fresh equal datum in each term."""
    rng = random.Random(seed)

    def datum():
        kind = rng.random()
        if kind < 0.15:
            a = rng.uniform(-2.0, 2.0)
            return lh.Indicator(a, a + rng.uniform(0.01, 3.0))
        if kind < 0.5:
            if rng.random() < 0.5:
                edges = np.linspace(rng.uniform(-2.0, 0.0), rng.uniform(0.1, 2.0), rng.randint(2, 8)).tolist()
                steps = [(rng.uniform(-2.0, 2.0), *sorted(rng.sample(edges, 2))) for _ in range(rng.randint(1, 5))]
            else:
                starts = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(1, 5))]
                steps = [(rng.uniform(-2.0, 2.0), a, a + rng.uniform(0.01, 2.0)) for a in starts]
            return lh.StepCombo(tuple(steps))
        values = [rng.choice([0.0, rng.uniform(-2.0, 2.0)]) for _ in range(rng.randint(2, 9))]
        return lh.sample(values, rng.uniform(-2.0, 1.0), rng.choice([0.005, 0.1, rng.uniform(0.01, 0.5)]))

    pool = [datum() for _ in range(40)]
    configs = (_CFG, lh.QuadratureConfig(rel_tol=1e-6))
    times = (0.0, 1e-6, 2.0 ** -14, 2.0 ** -7, 0.1, 0.3, 1.0, 30.0)
    for _ in range(count):
        cfg, shared, single = rng.choice(configs), rng.choice(pool), rng.random() < 0.6
        terms, copies = [], []
        for _ in range(rng.randint(1, 3)):
            F = shared if single else rng.choice(pool)
            c, t, n = rng.choice([1.0, -1.0, rng.uniform(-3.0, 3.0)]), rng.choice(times), rng.choice([0, 0, 1, 2])
            for out, G in ((terms, F), (copies, dataclasses.replace(F))):
                out.append((c, G if t == 0.0 else Heated(G, t, n, cfg)))
        yield terms, copies, cfg


# sha256 of the reprs of the 1,200 energy norms of _energy_fuzz(20251020, 1200),
# one per line, as energy_norm gave them when it laid out the terms' atom
# locations afresh on every call and kept each location's offset from its
# grid point
_ENERGY_FUZZ_SHA256 = "b85b02cc5f5b1aaa1ff33ec97b9a7a6b59d7a783e090c4cf977a5219a0ead67d"


def test_energy_norms_stay_bit_for_bit_with_the_layout_kept_on_the_datum():
    # terms from one datum reuse the plan it keeps for their shape; a fresh
    # equal datum per term shares none, so its norm builds a plan on the call
    lines = []
    for terms, copies, cfg in _energy_fuzz(20251020, 1200):
        got = energy_norm(terms, cfg)
        assert repr(energy_norm(copies, cfg)) == repr(got)
        lines.append(repr(got))
    assert sum(line not in ("None", "0.0") for line in lines) > 1000
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _ENERGY_FUZZ_SHA256
    # time sweeps: one datum at 16 times, keeping its plans across them, the
    # term shapes interleaved, each norm as a fresh equal datum gives it
    rng = random.Random(20261020)
    for terms, _, cfg in _energy_fuzz(7, 40):
        F = terms[0][1].source()
        for k in range(16):
            t, n = 2.0 ** -rng.randint(0, 20) * rng.choice([1.0, 1.5]), rng.choice([0, 1, 2])
            got, fresh = ([[(1.0, Heated(G, t, n, cfg))], [(1.0, Heated(G, t, 0, cfg)), (-1.0, G)],
                           [(2.0, Heated(G, t, n, cfg)), (-0.5, Heated(G, 2.0 * t, n, cfg)), (0.25, G)]][k % 3]
                          for G in (F, dataclasses.replace(F)))
            assert repr(energy_norm(got, cfg)) == repr(energy_norm(fresh, cfg))


def test_a_sweep_keeps_one_plan_per_shape_and_pattern():
    # 200 times on one datum in three shapes of terms: the datum keeps one
    # plan per shape, and each plan one route per pattern of time pairs
    # taking the moment series; nothing is kept per time
    F = lh.StepCombo(_COMBO)
    for t in np.geomspace(2.0 ** -20, 2.0 ** 10, 200):
        for terms in ([(1.0, Heated(F, t, 0, _CFG))], [(1.0, Heated(F, t, 0, _CFG)), (-1.0, F)],
                      [(1.0, Heated(F, t, 1, _CFG)), (-1.0, Heated(F, 2.0 * t, 1, _CFG))]):
            energy_norm(terms, _CFG)
    plans = list(F._plans.values())
    assert len(plans) == 3
    # each pair of times takes the series past one threshold as t grows: one
    # time has one pair (2 patterns), F * theta_t - F three, of which (0, 0)
    # never takes it (3), and two flows three (4)
    assert sorted(len(plan.routes) for plan in plans) == [2, 3, 4]


def test_layout_kept_on_the_datum_moves_no_edge():
    # an edge 2 ulps off a grid of spacing 0.25 at 1e5 (1.2e-10 of the
    # spacing): the grid keeps its offset and carries it to first order, so
    # the one plan the datum keeps serves every tolerance and the sum is the
    # plain double sum at the float edges
    edges = [1e5 + 0.25 * k for k in range(7)]
    edges[3] = float(np.nextafter(np.nextafter(edges[3], 2e5), 2e5))
    F = lh.StepCombo(tuple(((-1.0) ** k * (1 + k), a, b) for k, (a, b) in enumerate(zip(edges, edges[1:]))))
    norms = set()
    for rel_tol in (1e-6, 1e-10, 1e-6):
        cfg = lh.QuadratureConfig(rel_tol=rel_tol)
        fresh = [dataclasses.replace(F) for _ in range(2)]
        terms = [(1.0, Heated(F, 1e-3, 0, cfg)), (-1.0, F)]
        got = energy_norm(terms, cfg)
        assert got == energy_norm([(1.0, Heated(fresh[0], 1e-3, 0, cfg)), (-1.0, fresh[1])], cfg)
        exact, size, scale = _reference_energy(terms)
        assert abs((got * scale) ** 2 - exact) <= 8.0 * 2.0 ** -52 * size
        norms.add(got)
    assert len(norms) == 1
    (plan,) = F._plans.values()
    assert np.count_nonzero(plan.lags.drift) == 1  # the one edge off its grid point


@pytest.mark.parametrize("t", [0.0, 1e-30, 1e-28])
def test_edges_a_few_ulps_apart_stay_off_the_grid(t):
    # gaps of 40 and 54 ulps lie within 8 ulps of a grid step of 47, but
    # moving the middle edge onto it would read the norm 4 % low
    u = 2.0 ** -52
    F = lh.StepCombo(((1.0, 1.0, 1.0 + 40 * u), (2.0, 1.0 + 40 * u, 1.0 + 94 * u)))
    terms = [(1.0, F if t == 0.0 else Heated(F, t, 0, _CFG))]
    exact, size, scale = _reference_energy(terms)
    assert abs((energy_norm(terms, _CFG) * scale) ** 2 - exact) <= 8.0 * 2.0 ** -52 * size
    if t == 0.0:
        assert lh.combo_lp_norm(terms, 2.0, _CFG) == pytest.approx(lh.lp_norm(F, 2.0), rel=1e-15)


def _wide_bump(nodes):
    xs = np.linspace(-3.0, 3.0, nodes)
    return lh.sample(np.exp(-xs ** 2), -3.0, 6.0 / (nodes - 1))


def test_grid_norm_evaluates_the_kernel_once_per_lag(monkeypatch):
    # 2,001 nodes: the pair kernels of the three weight-row pairs take one
    # erfc pass over the 2,001 distinct lags, not 2,001^2 pairs
    import lpheat.kernel as kernel

    counted = []
    inner = kernel._erfc

    def counting(z):
        counted.append(np.size(z))
        return inner(z)

    monkeypatch.setattr(kernel, "_erfc", counting)
    F = _wide_bump(2001)
    assert lh.combo_lp_norm([(1.0, Heated(F, 0.01, 0, _CFG))], 2.0, _CFG) > 0.0
    assert 0 < sum(counted) <= 8 * 2001


@pytest.mark.parametrize("datum", ["sampled", "approximation"])
def test_large_flow_norms_stay_in_bounded_memory(datum):
    # a 2,001-node sampled flow, and the flow of its 1,024-bin uniform step
    # approximation: their dense (j, k) pair matrices take 329 MB and 76 MB
    F = _wide_bump(2001)
    if datum == "approximation":
        F = _uniform_steps(F, -3.0, 3.0, 1024)
        assert len(F.steps) == 1024
    tracemalloc.start()
    try:
        value = lh.combo_lp_norm([(1.0, Heated(F, 0.01, 0, _CFG))], 2.0, _CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value > 0.0
    assert peak < 5e6


# --- p = 1: a flow of data that keeps one sign has the data's norm


_SIGN_DEFINITE = [
    lh.Indicator(-1.0, 1.0),
    lh.StepCombo(((1.0, 0.0, 1.0), (2.0, 0.5, 2.0), (0.5, -1.0, 0.25))),
    lh.StepCombo(((-1.0, 0.0, 1.0), (-0.25, 3.0, 4.0))),
    lh.sample(np.exp(-np.linspace(-2.0, 2.0, 41) ** 2), -2.0, 0.1),
    lh.sample([0.0, -1.0, -3.0, -0.5, 0.0], 1.0, 0.25),
]


@pytest.mark.parametrize("F", _SIGN_DEFINITE)
@pytest.mark.parametrize("t", [2.0 ** -14, 0.3, 1e4])
def test_p1_flow_of_sign_definite_data_is_the_data_norm(F, t, quadrature_raises):
    # ||F * theta_t||_1 <= ||F||_1 by the contraction and int F * theta_t =
    # int F by conservation, which pin the value where F keeps one sign
    assert lh.combo_lp_norm([(-2.0, Heated(F, t, 0, _CFG))], 1.0, _CFG) == 2.0 * lh.lp_norm(F, 1.0)


@pytest.mark.parametrize("F", [lh.StepCombo(((0.0, 0.0, 1.0),)), lh.sample([0.0, 0.0, 0.0], 0.0, 0.5)])
def test_p1_flow_of_zero_data_is_zero(F, quadrature_raises):
    assert lh.combo_lp_norm([(1.0, Heated(F, 0.5, 0, _CFG))], 1.0, _CFG) == 0.0


def test_p1_flow_of_a_dirac_difference_is_exactly_two():
    f = lh.dirac_difference(-1.0, 1.0, p=1.0)
    assert [lh.solution_primitive_norm(f, 2.0 ** -k, 1.0) for k in (0, 7, 14)] == [2.0, 2.0, 2.0]


@pytest.mark.parametrize("terms", [
    [(1.0, Heated(lh.StepCombo(_COMBO), 0.25, 0, _CFG))],
    [(1.0, Heated(lh.sample([0.3, -1.0, 2.0, 0.5], -1.0, 0.4), 0.25, 0, _CFG))],
    [(1.0, Heated(lh.Indicator(0.0, 1.0), 0.25, 1, _CFG))],
    [(1.0, Heated(lh.Indicator(0.0, 1.0), 0.25, 0, _CFG)), (-1.0, lh.Indicator(0.0, 1.0))],
    [(1.0, lh.Indicator(0.0, 1.0))],
])
def test_p1_other_combinations_keep_their_quadrature_bit_for_bit(terms, monkeypatch):
    # sign changes, derivatives, differences and data take the quadrature as before
    assert lh.combo_lp_norm(terms, 1.0, _CFG) == lp_space._quadrature_lp_norm(terms, 1.0, _CFG)
    monkeypatch.setattr(quadrature, "_integrate", _boom)
    monkeypatch.setattr(lp_space, "_integrate", _boom)
    with pytest.raises(_Reached):
        lh.combo_lp_norm(terms, 1.0, _CFG)


def test_p1_flow_of_data_changing_sign_by_a_hair_takes_quadrature():
    # int F = 1 - 1e-11 lies within rel_tol of ||F||_1 = 1 + 1e-11, but F
    # changes sign, so the rule by sign leaves it to quadrature.  At t = 1e4
    # the flow is positive out to x = 2.5e5, where it is below e^-1e6, so
    # its norm is int F
    F = lh.StepCombo(((1.0, 0.0, 1.0), (-1e-11, 2.0, 3.0)))
    assert not F._keeps_one_sign()
    got = lh.combo_lp_norm([(1.0, Heated(F, 1e4, 0, _CFG))], 1.0, _CFG)
    assert got == pytest.approx(1.0 - 1e-11, rel=1e-13)


def test_p1_flow_of_a_flow_takes_quadrature():
    # a flow claims no sign, so a flow of a flow of the indicator takes
    # quadrature; the norm is int 1_[0, 1] = 1, as the flows keep its sign
    inner = Heated(lh.Indicator(0.0, 1.0), 0.1, 0, _CFG)
    assert lh.combo_lp_norm([(1.0, Heated(inner, 0.2, 0, _CFG))], 1.0) == pytest.approx(1.0, rel=1e-12)
