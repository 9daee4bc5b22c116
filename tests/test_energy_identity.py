"""p = 2 norms of step and sampled data and their heat flows by the energy
identity: a double sum over the atoms of F'', with no quadrature."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate as sci

import lpheat as lh
from lpheat import lp_space, quadrature
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
        xs, ys = F.nodes().tolist(), list(F.samples)
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
    for terms in ([(1.0, lh.GaussianPower(1.0, 1.0))], [(1.0, Heated(lh.GaussianPower(0.5, 2.0), 0.1, 1, _CFG))],
                  [(1.0, Heated(lh.Indicator(0.0, 1.0), 0.1, 0, _CFG)), (1.0, lh.GaussianPower(1.0, 1.0))]):
        with pytest.raises(_Reached):
            lh.combo_lp_norm(terms, 2.0, _CFG)
    with pytest.raises(_Reached):
        lh.lp_norm(lh.TailLog(1.5), 2.0)


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
