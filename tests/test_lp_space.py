import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate as sci
from scipy import optimize as sopt

import lpheat as lh
from lpheat import (
    DomainError,
    GaussianPower,
    Indicator,
    MembershipError,
    Sampled,
    StepCombo,
    TailLog,
    TruncatedSine,
)
from lpheat.kernel import MAX_DERIV_ORDER, _erfc
from lpheat.lp_space import _bracket_max, _scan_refine_max
from lpheat.quadrature import geometric_edges
from lpheat.quadrature import integrate as gk_integrate


def test_evaluate_examples():
    assert list(Indicator(0, 1).values([0.5, 1.5])) == [1.0, 0.0]
    assert float(TailLog(2.0).values(math.e)) == pytest.approx(0.6065306597126334, rel=1e-14)
    assert float(TailLog(2.0).values(1.0)) == 0.0
    assert float(GaussianPower(1.0, 1.0).values(0.0)) == pytest.approx(
        0.2820947917738781, rel=1e-14
    )


def test_variant_validation():
    with pytest.raises(DomainError):
        Indicator(1.0, 1.0)
    with pytest.raises(DomainError):
        StepCombo(())
    with pytest.raises(DomainError):
        GaussianPower(0.0, 1.0)
    with pytest.raises(DomainError):
        GaussianPower(1.0, -1.0)
    with pytest.raises(DomainError):
        TailLog(math.inf)
    with pytest.raises(DomainError, match="spacing positive"):
        lh.sample([1.0, 2.0], 0.0, 0.0)
    with pytest.raises(DomainError, match="at least two samples"):
        lh.sample([1.0], 0.0, 1.0)
    with pytest.raises(DomainError, match="values must be finite"):
        lh.sample([1.0, math.nan], 0.0, 1.0)
    with pytest.raises(DomainError, match="prefactor overflows"):
        GaussianPower(1e-300, 5.0)
    with pytest.raises(DomainError, match="slopes"):
        lh.sample([1.0, 2.0], 0.0, 1e-320)
    with pytest.raises(DomainError, match="slopes"):
        lh.sample([1.5e308, -1.5e308, 1.5e308], 0.0, 1.0)


def test_grid_whose_nodes_collapse_is_rejected():
    # x0 + i dx rounds to x0 at every i: the grid would store three nodes at
    # 1e16 and read 0.0 as its L^2 norm
    with pytest.raises(DomainError, match="strictly increase"):
        lh.sample([0.0, 1.0, 0.0], 1e16, 1e-3)
    with pytest.raises(DomainError, match="strictly increase"):
        lh.sample([0.0, 1.0, 0.0, 1.0], 1.0, 1e-16)  # two of the four nodes round together
    assert lh.sample([0.0, 1.0, 0.0], 1e16, 2.0).breakpoints() == (1e16, 1e16 + 2.0, 1e16 + 4.0)


def test_erfc_fills_exact_tails_bitwise():
    # the correctly rounded erfc is exactly 2 at z <= -6 and exactly 0 at z >= 28
    assert math.erfc(-6.0) == 2.0 and math.erfc(28.0) == 0.0
    edges = [np.nextafter(c, d) for c in (-6.0, 28.0) for d in (-np.inf, np.inf)]
    z = np.concatenate(
        [
            np.linspace(-40.0, 40.0, 20001),
            np.linspace(-6.5, -5.5, 1001),
            np.linspace(27.0, 28.5, 1001),
            [-6.0, 28.0, -0.0, 5e-324, np.inf, -np.inf, np.nan],
            edges,
        ]
    )
    expected = np.array([math.erfc(v) for v in z])
    got = _erfc(z.reshape(-1, 1))
    assert got.shape == (z.size, 1) and got.dtype == np.float64
    assert np.array_equal(got.ravel().view(np.int64), expected.view(np.int64))


_ERFC_EDGES = [
    v
    for c in (-0.0, 0.0, -6.0, 28.0, 5e-324, -5e-324, 2.2250738585072014e-308)
    for v in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))
] + [math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_ERFC_EDGES) | st.floats(), min_size=1, max_size=40))
def test_erfc_equals_math_erfc_bit_for_bit(zs):
    z = np.array(zs, dtype=float)
    expected = np.array([math.erfc(v) for v in zs])
    got = _erfc(z)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert _erfc(z[0]).view(np.int64) == expected[:1].view(np.int64)[0]  # 0-d input


def _bumps(gauss, cosines, shift):
    """sum of a exp(-((x - s) / w)^2) and b cos(c (x - s)): all terms peak at s."""

    def f(x):
        u = np.asarray(x, dtype=float) - shift
        out = np.zeros_like(u)
        for a, w in gauss:
            out += a * np.exp(-((u / w) ** 2))
        for b, c in cosines:
            out += b * np.cos(c * u)
        return out

    return f


_AMPLITUDES = st.floats(0.01, 10.0)


@settings(max_examples=15, deadline=None)
@given(
    gauss=st.lists(st.tuples(_AMPLITUDES, st.floats(0.05, 5.0)), min_size=1, max_size=3),
    cosines=st.lists(st.tuples(_AMPLITUDES, st.floats(0.1, 5.0)), max_size=3),
    shift=st.floats(-5.0, 5.0),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda e: abs(e[0] - e[1]) > 1e-6),
)
def test_bracket_max_agrees_with_dense_reference(gauss, cosines, shift, ends):
    # within half the fastest cosine's period of s every term rises toward s
    # and falls after it, so the bracket holds one maximum, at s clipped to it
    reach = math.pi / max([c for _, c in cosines], default=1.0)
    lo, hi = sorted(shift - reach + 2.0 * reach * e for e in ends)
    f = _bumps(gauss, cosines, shift)
    x, best = _bracket_max(f, lo, hi, rel_width=2e-17)
    assert lo <= x <= hi and best == f(np.array([x]))[0]
    dense = float(np.max(f(np.linspace(lo, hi, 10**6))))
    top = float(f(np.array([min(max(shift, lo), hi)]))[0])
    ulp = np.spacing(max(abs(dense), abs(top)))
    assert best >= dense - 4 * ulp
    assert abs(best - top) <= 4 * ulp


@settings(max_examples=40, deadline=None)
@given(
    gauss=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.05, 5.0)), min_size=1, max_size=3),
    cosines=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.1, 20.0)), max_size=3),
    shifts=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
    lo=st.floats(-8.0, 8.0),
    width=st.floats(1e-3, 16.0),
)
def test_scan_refine_max_is_never_below_the_scan(gauss, cosines, shifts, lo, width):
    terms = [_bumps([g], [], s) for g, s in zip(gauss, shifts)] + [_bumps([], [c], s) for c, s in zip(cosines, shifts[3:])]

    def f(x):
        return sum(term(x) for term in terms)

    xs = np.linspace(lo, lo + width, 257)
    assert _scan_refine_max(f, xs) >= float(np.max(np.abs(f(xs))))


def test_indicator_norms():
    assert lh.lp_norm(Indicator(0, 1), 3.0) == pytest.approx(1.0, rel=1e-12)
    assert lh.lp_norm(Indicator(-2, 2), 2.0) == pytest.approx(2.0, rel=1e-12)
    assert lh.lp_norm(Indicator(-3, 1), 4.0) == pytest.approx(4.0 ** 0.25, rel=1e-12)
    assert lh.lp_norm(Indicator(0, 1), math.inf) == 1.0


def test_gaussian_norm_is_kernel_norm():
    # || theta_1 ||_2 via the catalog equals the closed form
    assert lh.lp_norm(GaussianPower(1.0, 1.0), 2.0) == pytest.approx(
        0.4466219208690012, rel=1e-10
    )
    assert lh.lp_norm(GaussianPower(1.0, 1.0), 1.0) == pytest.approx(1.0, rel=1e-10)
    assert lh.lp_norm(GaussianPower(1.0, 1.0), math.inf) == pytest.approx(
        0.2820947917738781, rel=1e-14
    )


def test_gaussian_square_l1_norm():
    # || theta_1^2 ||_1 = (2 sqrt(pi))^{-2} sqrt(2 pi)
    assert lh.lp_norm(GaussianPower(1.0, 2.0), 1.0) == pytest.approx(
        0.1994711402007164, rel=1e-10
    )


def test_step_combo_norm_and_sup():
    F = StepCombo(((1.0, 0.0, 1.0), (-2.0, 0.5, 2.0)))
    # levels: 1 on [0, 0.5), -1 on (0.5, 1), -2 on (1, 2)
    exact_l2 = math.sqrt(1.0 * 0.5 + 1.0 * 0.5 + 4.0 * 1.0)
    assert lh.lp_norm(F, 2.0) == pytest.approx(exact_l2, rel=1e-12)
    assert lh.lp_norm(F, math.inf) == 2.0


def test_tail_log_membership():
    F = TailLog(2.0)
    assert F.admits(2.0) and F.admits(3.0) and F.admits(math.inf)
    assert not F.admits(1.5)
    with pytest.raises(MembershipError):
        lh.lp_norm(F, 1.5)
    # at the edge exponent the substitution gives an exact value: 1/(2p-1)
    assert lh.lp_norm(F, 2.0) == pytest.approx((1.0 / 3.0) ** 0.5, rel=1e-10)


@pytest.mark.parametrize("p0", [1.0, 1.25, 1.5, 2.0, 3.0])
def test_tail_log_norm_at_the_edge_exponent_is_exact(p0):
    # int_e^inf x^{-1} log^{-2p} x dx = int_1^inf u^{-2p} du = 1 / (2p - 1)
    with localcontext() as ctx:
        ctx.prec = 40
        exact = float((-(Decimal(2.0 * p0 - 1.0).ln() / Decimal(p0))).exp())
    assert abs(lh.lp_norm(TailLog(p0), p0) - exact) <= math.ulp(exact)


def test_tail_log_norm_above_edge_scipy_oracle():
    F = TailLog(2.0)
    ref = sci.quad(lambda x: x ** -1.5 * math.log(x) ** -6, math.e, math.inf, limit=200)[0] ** (
        1.0 / 3.0
    )
    assert lh.lp_norm(F, 3.0) == pytest.approx(ref, rel=1e-8)


def test_truncated_sine_membership():
    F = TruncatedSine(2.0)
    assert F.admits(3.0) and F.admits(math.inf)
    assert not F.admits(2.0)  # diverges at the edge exponent
    assert not F.admits(1.9)
    with pytest.raises(MembershipError):
        lh.lp_norm(F, 2.0)


def test_truncated_sine_partial_integrals_diverge_at_edge():
    # int over [2^k, 2^{k+1}] of x^{-1} sin^2 stays near log(2)/2 forever
    F = TruncatedSine(2.0)
    increments = []
    for k in range(3, 11):
        val, _ = gk_integrate(
            lambda x: np.abs(F.values(x)) ** 2,
            float(2 ** k),
            float(2 ** (k + 1)),
            points=geometric_edges(float(2 ** k), float(2 ** (k + 1)), factor=1.2),
        )
        increments.append(val)
    assert all(inc > 0.25 for inc in increments)  # no leveling off
    assert sum(increments) > 2.0  # already past any modest cap and still climbing


def test_truncated_sine_norm_against_oscillatory_oracle():
    # int_1^inf x^{-2} sin^4 = 0.560431184890331 (oscillatory quadrature)
    F = TruncatedSine(2.0)
    assert lh.lp_norm(F, 4.0) == pytest.approx(0.865228015867787, rel=2e-5)


def test_truncated_sine_sup():
    F = TruncatedSine(2.0)
    res = sopt.minimize_scalar(
        lambda x: -abs(x ** -0.5 * math.sin(x)), bounds=(1.0, 4.0), method="bounded",
        options={"xatol": 1e-12},
    )
    assert lh.lp_norm(F, math.inf) == pytest.approx(-res.fun, rel=1e-9)


@pytest.mark.parametrize(
    "F",
    [
        Indicator(-1.0, 2.0),
        StepCombo(((1.0, 0.0, 1.0), (-2.5, 0.5, 3.0))),
        GaussianPower(0.5, 2.0),
        TailLog(2.0),
        TruncatedSine(1.0),
        TruncatedSine(2.0),
        TruncatedSine(4.0),
        lh.sample([0.0, 1.0, -3.0, 0.5], -1.0, 1.0),
    ],
    ids=lambda F: F.kind,
)
def test_sup_bound_is_the_ess_sup(F):
    assert lh.lp_norm(F, math.inf) == F.sup_bound()


@pytest.mark.parametrize("p0", [1.0, 2.0, 4.0])
def test_truncated_sine_sup_bound_matches_dense_scan(p0):
    # the scan includes x = 1, where the sup over (1, inf) sits for p0 = 1
    xs = np.linspace(1.0, 1.0 + 4.0 * math.pi, 10**6)
    dense = np.max(np.abs(xs ** (-1.0 / p0) * np.sin(xs)))
    assert TruncatedSine(p0).sup_bound() == pytest.approx(dense, abs=1e-9)


def test_sampled_norm_exact():
    xs = np.linspace(-1, 1, 201)
    hat = np.clip(1 - np.abs(xs), 0, None)
    F = lh.sample(hat, -1.0, 0.01)
    assert lh.lp_norm(F, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert lh.lp_norm(F, 2.0) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
    assert lh.lp_norm(F, math.inf) == 1.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.5, 8.0])
def test_sampled_norm_matches_interpolant_integral(p):
    # sign changes inside panels, equal and nearly equal neighbours, zeros
    vals = [0.0, 1.0, -0.5, -0.5, 2.0, 2.0 * (1.0 + 1e-9), 0.3, 0.0, 0.0, -1.0]
    F = lh.sample(vals, -1.0, 0.25)
    knots = list(F.breakpoints())
    want, _ = sci.quad(lambda x: abs(float(F.values(np.asarray([x]))[0])) ** p, knots[0], knots[-1],
                       points=knots[1:-1], epsabs=0.0, epsrel=1e-13, limit=200)
    assert lh.lp_norm(F, p) == pytest.approx(want ** (1.0 / p), rel=1e-12)
    # the quadrature norm of the same interpolant, to its default rel_tol of 1e-10
    assert lh.lp_norm(F, p) == pytest.approx(lh.combo_lp_norm([(1.0, F)], p), rel=1e-9)


def test_sampled_evaluate_interpolates_and_vanishes_outside():
    F = lh.sample([0.0, 2.0, 0.0], -1.0, 1.0)
    assert list(F.values([0.5, 5.0])) == [1.0, 0.0]


@given(c=st.floats(-8.0, 8.0, allow_nan=False).filter(lambda v: abs(v) > 1e-3))
@settings(max_examples=60, deadline=None)
def test_norm_scaling(c):
    base = StepCombo(((1.0, 0.0, 1.0), (0.5, 0.25, 2.0)))
    scaled = StepCombo(tuple((c * h, a, b) for h, a, b in base.steps))
    assert lh.lp_norm(scaled, 3.0) == pytest.approx(abs(c) * lh.lp_norm(base, 3.0), rel=1e-12)


@pytest.mark.parametrize("h", [-3.0, 0.7, 12.5])
def test_translation_invariance(h):
    pairs = (
        (Indicator(0, 1), Indicator(h, 1 + h)),
        (StepCombo(((2.0, -1.0, 0.5), (-1.0, 0.0, 2.0))), StepCombo(((2.0, -1.0 + h, 0.5 + h), (-1.0, h, 2.0 + h)))),
    )
    for F, moved in pairs:
        assert lh.lp_norm(moved, 2.0) == pytest.approx(lh.lp_norm(F, 2.0), rel=1e-12)
    S = lh.sample([0.0, 1.0, 0.5, 0.0], 0.0, 0.5)
    assert lh.lp_norm(lh.sample(S.samples, h, 0.5), 2.0) == lh.lp_norm(S, 2.0)


def test_triangle_inequality_on_sampled_sum():
    xs = np.linspace(-2, 2, 161)
    f = np.exp(-xs ** 2)
    g = np.sin(2 * xs) * (np.abs(xs) < 1.5)
    F, G = lh.sample(f, -2.0, 0.025), lh.sample(g, -2.0, 0.025)
    FG = lh.sample(f + g, -2.0, 0.025)
    for p in (1.0, 2.0, 4.0):
        assert lh.lp_norm(FG, p) <= lh.lp_norm(F, p) + lh.lp_norm(G, p) + 1e-9


def test_combo_norm_matches_direct():
    F = Indicator(0.0, 1.0)
    G = Indicator(0.0, 1.1)
    # F - G = -indicator([1, 1.1])
    assert lh.combo_lp_norm([(1.0, F), (-1.0, G)], 2.0) == pytest.approx(
        math.sqrt(0.1), rel=1e-10
    )


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_combo_norm_of_nearly_equal_gaussians_matches_scipy(p):
    # the terms cancel to 1e-4 of their size: the scale is the difference's
    # own peak, so rel_tol acts on the difference, not on the terms
    F, G = GaussianPower(1.0, 1.0), GaussianPower(1.0 + 1e-4, 1.0)
    t0, t1 = 1.0, 1.0 + 1e-4
    cross = math.sqrt(2.0 * t0 * t1 / (t1 - t0) * math.log(t1 / t0))  # where the kernels meet
    power = lambda x: abs(float(F.values(x)) - float(G.values(x))) ** p
    pieces = ((-60.0, -cross), (-cross, cross), (cross, 60.0))
    want = sum(sci.quad(power, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in pieces) ** (1.0 / p)
    assert lh.combo_lp_norm([(1.0, F), (-1.0, G)], p) == pytest.approx(want, rel=1e-9)


def test_combo_norm_sees_a_step_between_scan_nodes():
    # F - G is 1 on [0.5001, 0.5006] only, between two nodes of the 33-node
    # scale scan and of the 1,025-node sup scan of [0, 1]: the scanned peak
    # is 0, and the breakpoints must still find the step
    F = StepCombo(((1.0, 0.0, 1.0), (1.0, 0.5001, 0.5006)))
    G = Indicator(0.0, 1.0)
    for p in (1.0, 2.0, 3.0):
        assert lh.combo_lp_norm([(1.0, F), (-1.0, G)], p) == pytest.approx((0.5006 - 0.5001) ** (1.0 / p), rel=1e-12)
    assert lh.combo_lp_norm([(1.0, F), (-1.0, G)], math.inf) == 1.0


def test_combo_norm_sup_ignores_the_point_where_closed_steps_meet():
    # both closed steps hold x = 1, a node of the sup scan, and add to 2
    # there; the ess sup ignores a single point
    F = StepCombo(((1.0, 0.0, 1.0), (1.0, 1.0, 2.0)))
    assert lh.combo_lp_norm([(1.0, F)], math.inf) == 1.0
    assert lh.lp_norm(F, math.inf) == 1.0


_STEP_NORM_CASES = {
    "indicator": Indicator(-0.3, 1.7),
    "overlapping": StepCombo(((1.0, 0.0, 1.0), (-2.0, 0.5, 2.0), (0.5, -1.0, 0.25))),
    "inexact levels": StepCombo(((0.1, 0.0, 1.0), (0.2, 0.0, 2.0), (-0.3, 0.5, 3.0), (0.7, 4.0, 4.1))),
    "zero": StepCombo(((1.0, 0.0, 1.0), (-1.0, 0.0, 1.0))),
    "tiny": StepCombo(((1e-200, 0.0, 1.0), (3e-200, 0.5, 2.0))),
    "huge": StepCombo(((1e200, 0.0, 1.0), (-3e200, 0.5, 2.0))),
}


@pytest.mark.parametrize("name", sorted(_STEP_NORM_CASES))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_step_norm_is_exact(name, p):
    # (sum over the cells of |level|^p length)^(1/p) in 40 digits; at
    # 1e-200 and 1e200, |level|^p itself under- or overflows a float
    mp = pytest.importorskip("mpmath")
    F = _STEP_NORM_CASES[name]
    with mp.workdps(40):
        steps = [(mp.mpf(h), mp.mpf(a), mp.mpf(b)) for h, a, b in F.steps]
        cuts = sorted({c for _, a, b in steps for c in (a, b)})
        power = mp.mpf(0)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            level = sum(h for h, a, b in steps if a <= lo and hi <= b)
            power += abs(level) ** p * (hi - lo)
        want = float(power ** (1 / mp.mpf(p)))
    assert lh.lp_norm(F, p) == pytest.approx(want, rel=1e-15, abs=0.0)


def _reference_levels(F):
    # cell by cell: the heights of the steps that cover the cell's midpoint,
    # added in step order
    cuts = F.breakpoints()
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (lo + hi)
        out.append((lo, hi, float(sum(h for h, a, b in F.steps if a <= mid <= b))))
    return out


# shared edges on an inexact grid, and free ones
_STEP_EDGES = st.integers(-40, 40).map(lambda k: k * 0.1) | st.floats(-5.0, 5.0, allow_subnormal=False)
_STEP_HEIGHTS = st.sampled_from([1.0, -2.0, 0.1, 1e-300, 1e300]) | st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_STEP_HEIGHTS, _STEP_EDGES, _STEP_EDGES).filter(lambda s: s[1] < s[2]),
                min_size=1, max_size=12))
def test_step_levels_are_the_cell_by_cell_sums(steps):
    # the one-pass build adds each step to the cells between its edges; a
    # cell under two ulps wide can have a midpoint on its edge, where the
    # midpoint test would count a step that only touches the cell
    F = StepCombo(tuple(steps))
    cuts = F.breakpoints()
    assume(all(hi - lo > 2.0 * math.ulp(max(abs(lo), abs(hi))) for lo, hi in zip(cuts[:-1], cuts[1:])))
    right = F._knots.right  # the level right of each knot
    assert [v.hex() for v in right[:-1]] == [v.hex() for _, _, v in _reference_levels(F)]
    assert right[-1] == 0.0 and F._knots.left == [0.0] + right[:-1]


def test_step_norm_of_16384_steps():
    # 16,384 half-unit cells with heights cycling through 1, -2, 0.5 and 3,
    # under one step across all of them that adds 0.25 last
    n = 1 << 14
    heights = [(1.0, -2.0, 0.5, 3.0)[i % 4] for i in range(n)]
    F = StepCombo(tuple((h, 0.5 * i, 0.5 * (i + 1)) for i, h in enumerate(heights)) + ((0.25, 0.0, 0.5 * n),))
    for p in (1.0, 2.0, 3.0):
        want = 3.25 * math.fsum(abs((h + 0.25) / 3.25) ** p * 0.5 for h in heights) ** (1.0 / p)
        assert lh.lp_norm(F, p) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert lh.lp_norm(F, math.inf) == 3.25


@pytest.mark.parametrize(
    "steps",
    [((1.0, 0.0, 1.0), (1.0, 100.0, 101.0)), ((0.1, 0.0, 1.0), (0.2, 0.0, 2.0), (1.0, 100.0, 101.0))],
    ids=["unit heights", "inexact heights"],
)
def test_step_flow_in_a_gap_is_its_tails(steps):
    # at x = 50 the flow is erfc tails near 1e-28; the level there is 0
    # exactly (a cumsum of the jumps 0.3, -0.1, -0.2 leaves 2.8e-17)
    mp = pytest.importorskip("mpmath")
    t, x = 10.0, 50.0
    got = StepCombo(steps).heat_flow(t, np.array([x]))[0]
    with mp.workdps(80):
        s = 2 * mp.sqrt(mp.mpf(t))
        want = float(sum(mp.mpf(h) * (mp.erfc((a - x) / s) - mp.erfc((b - x) / s)) / 2 for h, a, b in steps))
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("a, b, t", [(0.0, 1.0, 0.1), (-2.5, 0.3, 1e-4), (1.0, 1.5, 10.0)])
def test_indicator_flow_is_the_one_step_combo_flow(a, b, t):
    xs = np.concatenate([np.linspace(a - 3.0, b + 3.0, 301), [a, b]])
    for n in range(MAX_DERIV_ORDER + 1):
        assert Indicator(a, b).heat_flow(t, xs, n).tolist() == StepCombo(((1.0, a, b),)).heat_flow(t, xs, n).tolist()
    # at order 0 the jump sum is the box's difference of tails e_a - e_b,
    # 1 - e_a - e_b and e_b - e_a, bit for bit
    ea, eb = (0.5 * _erfc(np.abs(xs - c) / (2.0 * math.sqrt(t))) for c in (a, b))
    box = np.where(xs <= a, ea - eb, np.where(xs >= b, eb - ea, 1.0 - ea - eb))
    assert Indicator(a, b).heat_flow(t, xs).tolist() == box.tolist()


@pytest.mark.parametrize("t0, beta", [(1.0, 1.0), (0.5, 2.0), (1e-4, 1.0), (3.0, 0.37), (1.0, 0.0025)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.5])
def test_gaussian_power_norm_is_its_closed_form(t0, beta, p):
    mp = pytest.importorskip("mpmath")
    F = GaussianPower(t0, beta)
    with mp.workdps(40):
        a = (2 * mp.sqrt(mp.pi * mp.mpf(t0))) ** (-mp.mpf(beta))
        power = mp.quad(lambda x: a ** p * mp.exp(-p * mp.mpf(beta) * x * x / (4 * mp.mpf(t0))), [-mp.inf, 0, mp.inf])
        want = float(power ** (1 / mp.mpf(p)))
    assert lh.lp_norm(F, p) == pytest.approx(want, rel=4e-15)
    # the quadrature the kernel suite measures agrees with it
    assert lh.combo_lp_norm([(1.0, F)], p) == pytest.approx(want, rel=1e-9)


def test_json_round_trip():
    # the descriptor format is defined by the reader, one literal per variant
    cases = [
        ({"type": "indicator", "a": -1.0, "b": 2.0}, Indicator(-1.0, 2.0)),
        ({"type": "step_combo", "steps": [[1.0, 0.0, 1.0], [-0.5, 0.5, 3.0]]},
         StepCombo(((1.0, 0.0, 1.0), (-0.5, 0.5, 3.0)))),
        ({"type": "gaussian_power", "t": 0.5, "beta": 2.0}, GaussianPower(0.5, 2.0)),
        ({"type": "tail_log", "p": 2.0}, TailLog(2.0)),
        ({"type": "truncated_sine", "p": 3.0}, TruncatedSine(3.0)),
        ({"type": "samples", "x0": -1.0, "dx": 1.0, "values": [0.0, 1.0, 0.0]}, lh.sample([0.0, 1.0, 0.0], -1.0, 1.0)),
    ]
    for descriptor, F in cases:
        assert lh.primitive_from_json(descriptor) == F
    with pytest.raises(DomainError):
        lh.primitive_from_json({"type": "nope"})
    with pytest.raises(DomainError):
        lh.primitive_from_json({"type": "indicator", "a": 0.0})
    with pytest.raises(DomainError):
        lh.primitive_from_json([1, 2, 3])


def test_json_numbers_are_numbers():
    # JSON integers are numbers; booleans and numeric strings are not
    assert lh.primitive_from_json({"type": "indicator", "a": 0, "b": 1}) == Indicator(0.0, 1.0)
    for a, b in ((False, True), ("0", "1"), (0, None)):
        with pytest.raises(DomainError):
            lh.primitive_from_json({"type": "indicator", "a": a, "b": b})
