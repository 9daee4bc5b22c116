import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate as sci

import lpheat as lh
from lpheat import (
    DomainError,
    GaussianPower,
    Indicator,
    StepCombo,
    UnsupportedOrderError,
)
from lpheat import convolve, lp_space
from lpheat.convolve import Heated, convolve_values
from lpheat.kernel import (
    MAX_DERIV_ORDER,
    theta_deriv_norm_closed,
    theta_deriv_values,
    theta_norm_closed,
    theta_values,
)

SQRT_PI = math.sqrt(math.pi)


def test_indicator_convolution_erf_oracle():
    # int_{-1}^{1} theta_1 = erf(1/2)
    got = lh.convolve_point(Indicator(-1.0, 1.0), 0, 1.0, 0.0)
    assert got == pytest.approx(0.5204998778130465, rel=1e-12)


def test_gaussian_convolution_is_time_shift():
    F = GaussianPower(1.0, 1.0)
    for x in (0.0, 0.8, -2.5):
        got = lh.convolve_point(F, 0, 1.0, x)
        assert got == pytest.approx(float(theta_values(x, 2.0)), rel=1e-11)


def test_first_order_convolution_odd_symmetry():
    got = lh.convolve_point(Indicator(-1.0, 1.0), 1, 1.0, 0.0)
    assert abs(got) < 1e-14


def test_validation_errors():
    F = Indicator(0.0, 1.0)
    with pytest.raises(DomainError):
        lh.convolve_point(F, 0, 0.0, 0.0)
    with pytest.raises(DomainError):
        lh.convolve_point(F, -1, 1.0, 0.0)
    with pytest.raises(UnsupportedOrderError):
        lh.convolve_point(F, 9, 1.0, 0.0)
    with pytest.raises(DomainError):
        lh.convolve_point(F, 0, 1.0, math.nan)


def test_linearity():
    A = Indicator(0.0, 1.0)
    B = Indicator(0.5, 2.0)
    combo = StepCombo(((2.0, 0.0, 1.0), (-3.0, 0.5, 2.0)))
    for x in (0.3, 1.1):
        direct = lh.convolve_point(combo, 0, 0.7, x)
        parts = 2.0 * lh.convolve_point(A, 0, 0.7, x) - 3.0 * lh.convolve_point(B, 0, 0.7, x)
        assert direct == pytest.approx(parts, rel=1e-11)


def test_translation_commutes():
    F = Indicator(0.0, 1.0)
    shifted = Indicator(0.8, 1.8)
    for x in (0.0, 1.5):
        assert lh.convolve_point(shifted, 0, 0.5, x) == pytest.approx(
            lh.convolve_point(F, 0, 0.5, x - 0.8), rel=1e-11
        )


def test_far_window_returns_certified_zero():
    assert lh.convolve_point(Indicator(0.0, 1.0), 0, 0.01, 50.0) == 0.0


_SEVEN_SAMPLES = lh.sample([0.0, 0.3, 1.0, -0.5, 0.2, 0.0, 0.7], -1.0, 0.25)


@pytest.mark.parametrize("t", [1e-300, 1e-40, 1e-30])
def test_unresolvable_time_raises_instead_of_garbage(t):
    # the window x -+ kernel_width(t) rounds to x away from 0, and at x = 0
    # it is one panel at the floating-point floor whose error stays large
    with pytest.raises(lh.QuadratureAccuracyError):
        convolve_values(_SEVEN_SAMPLES, 1, t, np.linspace(-1.0, 1.0, 5))
    with pytest.raises(lh.QuadratureAccuracyError, match="floating-point resolution"):
        lh.convolve_point(_SEVEN_SAMPLES, 1, t, -0.5 if t < 1e-30 else 0.0)


def _commutation(F, t, n, x, h):
    """(central difference of the order n-1 flow at x, order-n flow at x);
    their gap is O(h^2) when differentiation commutes with the convolution."""
    lhs = (lh.convolve_point(F, n - 1, t, x + h) - lh.convolve_point(F, n - 1, t, x - h)) / (2.0 * h)
    return lhs, lh.convolve_point(F, n, t, x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derivative_commutation_second_order(n):
    F = Indicator(0.0, 1.0)
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        lhs, rhs = _commutation(F, 1.0, n, 0.3, h)
        errors.append(abs(lhs - rhs))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.25)


def test_derivative_commutation_gaussian():
    lhs, rhs = _commutation(GaussianPower(1.0, 1.0), 1.0, 2, 0.0, 1e-3)
    assert abs(lhs - rhs) < 1e-6


def test_derivative_commutation_zero_data():
    zero = StepCombo(((0.0, -1.0, 1.0),))
    lhs, rhs = _commutation(zero, 1.0, 1, 0.2, 1e-3)
    assert lhs == 0.0 and rhs == 0.0


_coord = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def step_primitives(draw):
    """A random Indicator or a 2-4 step StepCombo."""
    if draw(st.booleans()):
        a = draw(_coord)
        return Indicator(a, a + draw(st.floats(1e-3, 4.0)))
    steps = []
    for _ in range(draw(st.integers(2, 4))):
        a = draw(_coord)
        steps.append((draw(st.floats(-3.0, 3.0)), a, a + draw(st.floats(1e-3, 4.0))))
    return StepCombo(tuple(steps))


@st.composite
def order_and_time(draw):
    """n = 0 and 1 for t in [2^-20, 1e2]; n = 2 for t in [0.01, 1e2], below
    which the quadrature oracle exceeds its subdivision budget."""
    n = draw(st.sampled_from([0, 1, 2]))
    lo = -20.0 if n < 2 else math.log2(0.01)
    return n, 2.0 ** draw(st.floats(lo, math.log2(1e2)))


def _oracle_values(F, n, t, xs, scale):
    # absolute tolerance relative to the data's scale, so tiny heights get
    # a proportionally tight oracle (floored at the least positive float: a
    # floor of 1e-300 swamped flows of data near 1e-300)
    cfg = lh.QuadratureConfig(abs_tol=max(1e-13 * scale, 5e-324))
    return np.array([lh.convolve_point(F, n, t, float(x), cfg) for x in xs])


@given(F=step_primitives(), nt=order_and_time(), offsets=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
# the two half-windows nearly cancel: the oracle's residual sits at the
# rounding floor of its panel values
@example(F=StepCombo(((3.0, 0.0, 1.0), (2.2250738585e-313, 0.0, 0.5))), nt=(1, 2.0 ** -15), offsets=[0.0, 0.0])
# heights near 1e-148: an absolute oracle tolerance would swamp the values
@example(F=StepCombo(((0.0, 0.0, 1.0), (7.42e-149, 1.0, 3.0))), nt=(2, 0.0625), offsets=[-1.0, 1.0, 2.5, -3.0])
def test_step_closed_form_matches_quadrature(F, nt, offsets):
    # F * theta = sum_j h_j (box_j * theta) for n = 0 and F * theta^(n) =
    # F' * theta^(n-1) for n >= 1; convolve_point is the oracle
    n, t = nt
    jumps = F.jumps()
    locs = sorted(jumps) or list(F.breakpoints())
    xs = np.array([locs[i % len(locs)] + s * math.sqrt(t) for i, s in enumerate(offsets)])
    if n == 0:
        steps = F.steps if isinstance(F, StepCombo) else ((1.0, F.a, F.b),)
        scale = sum(abs(h) for h, _, _ in steps)
    else:
        peak = theta_norm_closed(math.inf, t) if n == 1 else theta_deriv_norm_closed(math.inf, t)
        scale = sum(abs(w) for w in jumps.values()) * peak
    got = convolve_values(F, n, t, xs)
    want = _oracle_values(F, n, t, xs, scale)
    assert np.max(np.abs(got - want)) <= 1e-10 * max(scale, 1e-300)


@st.composite
def closed_form_primitives(draw):
    """A GaussianPower, a 2-41 node Sampled grid with values in [-2, 2], or
    step data (``step_primitives``): every variant with an order-0 closed form."""
    kind = draw(st.sampled_from(["gaussian", "sampled", "steps"]))
    if kind == "gaussian":
        return GaussianPower(2.0 ** draw(st.floats(-6.0, 4.0)), 2.0 ** draw(st.floats(-6.0, 6.0)))
    if kind == "steps":
        return draw(step_primitives())
    vals = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=41))
    return lh.sample(vals, draw(_coord), draw(st.floats(0.01, 0.5)))


@given(F=closed_form_primitives(), t=st.floats(-20.0, math.log2(1e2)).map(lambda e: 2.0 ** e),
       fractions=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
@example(F=lh.Sampled(x0=0.0, dx=0.5, samples=(0.0, 1e-300)), t=0.001953125, fractions=[0.0])
def test_smooth_closed_form_matches_quadrature(F, t, fractions):
    # Gaussian powers by the semigroup, piecewise-linear data (step and
    # sampled) by its level and erfc and ramp tails per knot; convolve_point
    # is the oracle
    lo, hi = F.effective_support(lh.DEFAULT_CONFIG)
    xs = np.array([lo + f * (hi - lo) for f in fractions])
    scale = F.sup_bound()
    got = convolve_values(F, 0, t, xs)
    want = _oracle_values(F, 0, t, xs, scale)
    assert np.max(np.abs(got - want)) <= 1e-10 * max(scale, 1e-300)


@st.composite
def gaussian_order_time(draw):
    """(GaussianPower, n, t) with n in 1..MAX_DERIV_ORDER and t in [2^-20, 1e2].

    The oracle integrates F theta_t^(n), whose peaks exceed the result by
    about ((s + t) / t)^((n + 1) / 2) with s = t0 / beta, and cancel; s / t
    is kept where that factor is at most 1e4, so the oracle keeps its digits."""
    n = draw(st.integers(1, MAX_DERIV_ORDER))
    t = 2.0 ** draw(st.floats(-20.0, math.log2(1e2)))
    s = t * 2.0 ** draw(st.floats(-6.0, math.log2(1e4 ** (2.0 / (n + 1)) - 1.0)))
    beta = 2.0 ** draw(st.floats(-3.0, 3.0))
    return GaussianPower(s * beta, beta), n, t


@given(Fnt=gaussian_order_time(), fractions=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_gaussian_closed_form_matches_quadrature_at_every_order(Fnt, fractions):
    # F * theta_t^(n) = c theta_{s+t}^(n) out to 30 standard deviations
    # sqrt(2 (s + t)) of the flow; convolve_point is the oracle, and the bound
    # is relative to the column's sup, scanned on the closed form
    F, n, t = Fnt
    sd = math.sqrt(2.0 * (F.t / F.beta + t))
    xs = 30.0 * sd * np.array(fractions)
    sup = float(np.max(np.abs(F.heat_flow(t, np.linspace(-12.0, 12.0, 4001) * sd, n))))
    got = convolve_values(F, n, t, xs)
    want = _oracle_values(F, n, t, xs, sup)
    assert np.max(np.abs(got - want)) <= 1e-11 * sup


def test_gaussian_forms_far_out_are_zero():
    # x * x overflows past 1e154 and exp(-inf) gives the right 0; at
    # t0 = 1e-9, t = 1e-300 x / 2(s + t) overflows too, and the flow must
    # still be 0 there, not inf * 0 = nan
    xs = np.array([-1e300, -1e160, 0.0, 1e160, 1e300])
    far = [0, 1, 3, 4]
    with np.errstate(over="ignore", invalid="raise"):
        for F in (GaussianPower(0.3, 1.7), GaussianPower(1e-9, 1.0)):
            assert F.values(xs)[far].tolist() == [0.0] * 4
            for t in (1e-300, 1.0, 1e300):
                for n in range(MAX_DERIV_ORDER + 1):
                    assert np.all(F.heat_flow(t, xs, n)[far] == 0.0)


def _per_jump_loop(F, n, t, xs):
    # the jump sum as convolve_values computed it before the closed forms
    # moved to heat_flow: one kernel call per jump, in jump order
    out = np.zeros_like(xs)
    for loc, w in sorted(F.jumps().items()):
        out += w * theta_deriv_values(xs - loc, t, n - 1)
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_jump_sum_matches_per_jump_loop_bitwise(n):
    rng = np.random.default_rng(n)
    combos = [Indicator(-1.0, 0.5), StepCombo(((1.0, -1.0, 0.5), (-0.3, 0.2, 2.0), (2.5, 0.2, 0.7)))]
    combos += [StepCombo(tuple((rng.normal(), a, a + rng.uniform(0.1, 2.0)) for a in rng.uniform(-3, 3, 8)))]
    # 8,193 and 40,000 points span several blocks of the (jump, point) array,
    # the first with one point in its last block for the indicator
    for xs in (np.linspace(-6.0, 6.0, 151), rng.uniform(-8.0, 8.0, 8_193), rng.uniform(-8.0, 8.0, 40_000)):
        for F in combos:
            for t in (2.0 ** -20, 0.01, 0.7, 1e2):
                assert convolve_values(F, n, t, xs).tolist() == _per_jump_loop(F, n, t, xs).tolist()


def test_step_jump_sum_far_out_is_zero_not_nan():
    # x / 2t overflows at these (t, x) while the kernel factor underflows to
    # 0; the clipped shift keeps the recurrence at those zeros, not inf * 0
    with np.errstate(over="ignore", invalid="raise"):
        assert convolve_values(Indicator(-1.0, 0.5), 2, 1e-300, [1e300]).tolist() == [0.0]
        assert convolve_values(StepCombo(((1.0, 0.0, 1.0),)), 3, 1e-200, [1e200]).tolist() == [0.0]
        xs = np.array([-1e300, -1e200, 1e200, 1e300])
        for F in (Indicator(-1.0, 0.5), StepCombo(((1.0, -1.0, 0.5), (-0.3, 0.2, 2.0)))):
            for t in (1e-300, 1e-200, 1.0):
                for n in range(1, MAX_DERIV_ORDER + 1):
                    assert convolve_values(F, n, t, xs).tolist() == [0.0] * 4


def test_heated_is_the_flow_as_a_catalog_function():
    cfg = lh.DEFAULT_CONFIG
    F = StepCombo(((1.0, 0.0, 1.0), (-2.0, 0.5, 2.0)))
    H = Heated(F, 0.1, 1, cfg)
    xs = np.linspace(-3.0, 4.0, 57)
    assert H.values(xs).tolist() == convolve_values(F, 1, 0.1, xs).tolist()
    w = cfg.kernel_width(0.1)
    assert H.effective_support(cfg) == (-w, 2.0 + w)
    assert H.breakpoints() == (0.0, 0.5, 1.0, 2.0)  # support edges and jumps
    assert H.source() is F
    assert lh.convolution_lp_norm([(2.0, F)], 1, 0.1, 3.0) == lh.combo_lp_norm([(2.0, H)], 3.0)


def _bump():
    nodes = np.linspace(-2.0, 2.0, 41)
    return lh.sample(np.exp(-nodes ** 2), -2.0, 0.1)


@pytest.mark.parametrize(
    "F",
    [
        Indicator(-1.0, 1.0),
        StepCombo(((1.0, 0.0, 1.0), (2.0, 0.5, 2.0), (0.5, -1.0, 0.25))),
        _bump(),
    ],
    ids=["indicator", "step_combo", "sampled_bump"],
)
@pytest.mark.parametrize("t", [2.0 ** -20, 1e-3, 0.1, 1.0, 1e2])
def test_closed_form_far_tails_do_not_cancel(F, t):
    # 2 to 30 kernel standard deviations sqrt(2t) outside the support, where
    # the flow of nonnegative data is a tiny positive number: a closed form
    # that subtracted two values near 1, or two linear parts, would lose
    # every digit here.  scipy's quad with epsabs = 0 is the relative oracle.
    # (A Gaussian power's flow is a single Gaussian; no difference is formed.)
    lo, hi = F.effective_support(lh.DEFAULT_CONFIG)
    pts = [p for p in F.breakpoints() if lo < p < hi]
    sigma = math.sqrt(2.0 * t)
    xs = np.concatenate([lo - sigma * np.array([2.0, 5.0, 10.0, 30.0]), hi + sigma * np.array([2.0, 5.0, 10.0, 30.0])])
    got = convolve_values(F, 0, t, xs)
    for x, g in zip(xs, got):
        want, _ = sci.quad(
            lambda u: float(F.values(np.asarray([u]))[0]) * math.exp(-(x - u) ** 2 / (4.0 * t)),
            lo, hi, points=pts or None, limit=400, epsabs=0.0, epsrel=1e-13,
        )
        want /= 2.0 * math.sqrt(math.pi * t)
        assert want > 0.0
        assert abs(g - want) <= 1e-12 * want


def test_closed_forms_need_only_numpy():
    # a fresh interpreter: the test session itself has scipy loaded
    code = (
        "import sys, lpheat as lh; "
        "lh.convolution_lp_norm([(1.0, lh.Indicator(0.0, 1.0))], 0, 0.5, 2.0); "
        "bad = sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'perfbench')); "
        "print(','.join(bad))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_grid_convolution_matches_pointwise():
    # the closed-form flow of sampled data on a grid against the quadrature oracle
    xs = np.arange(-3.0, 3.0 + 1e-9, 0.01)
    vals = ((xs >= -1.0) & (xs <= 1.0)).astype(float)
    F = lh.sample(vals, -3.0, 0.01)
    nodes = np.linspace(-3.0, 3.0, 13)
    out = convolve_values(F, 0, 1.0, nodes)
    ref = [lh.convolve_point(F, 0, 1.0, x) for x in nodes]
    assert np.max(np.abs(out - ref)) < 1e-10
    # and against the indicator it samples, to interpolation error
    i0 = int(np.argmin(np.abs(nodes)))
    assert out[i0] == pytest.approx(lh.convolve_point(Indicator(-1.0, 1.0), 0, 1.0, 0.0), abs=5e-4)


def test_grid_convolution_zero_in_zero_out():
    F = lh.sample([0.0] * 81, -2.0, 0.05)
    out = convolve_values(F, 0, 0.5, np.linspace(-4.0, 4.0, 161))
    assert np.max(np.abs(out)) == 0.0


def test_grid_convolution_semigroup_on_samples():
    xs = np.arange(-12.0, 12.0 + 1e-9, 0.02)
    F = lh.sample(theta_values(xs, 1.0), -12.0, 0.02)
    out = convolve_values(F, 0, 1.0, xs)
    err = np.max(np.abs(out - theta_values(xs, 2.0)))
    assert err < 5e-4


@pytest.mark.parametrize("n_nodes", [2, 5, 41])
def test_sampled_flow_independent_of_batch(n_nodes):
    # a point's flow is the same alone and at every position of a batch
    rng = np.random.default_rng(n_nodes)
    F = lh.sample(rng.normal(size=n_nodes), -2.0, 4.0 / (n_nodes - 1))
    xs = rng.uniform(-6.0, 6.0, 23)
    for t in (0.01, 0.3, 2.0):
        alone = [F.heat_flow(t, np.array([x]))[0] for x in xs]
        for shift in range(xs.size):
            batch = np.roll(xs, shift)
            assert F.heat_flow(t, batch).tolist() == np.roll(alone, shift).tolist()


def test_grid_convolution_derivative_order():
    xs = np.arange(-12.0, 12.0 + 1e-9, 0.02)
    F = lh.sample(theta_values(xs, 1.0), -12.0, 0.02)
    nodes = np.asarray([-3.0, -1.0, 0.0, 0.5, 2.0])
    out = convolve_values(F, 1, 1.0, nodes)
    assert np.max(np.abs(out - theta_deriv_values(nodes, 2.0, 1))) < 5e-4


def test_convolution_norm_semigroup_value():
    # || theta_1 * theta_1 ||_2 = || theta_2 ||_2
    got = lh.convolution_lp_norm([(1.0, GaussianPower(1.0, 1.0))], 0, 1.0, 2.0)
    assert got == pytest.approx(0.3755627722324712, rel=1e-9)


def test_convolution_norm_sup():
    # || theta_1 * theta_1 ||_inf = theta_2(0)
    got = lh.convolution_lp_norm([(1.0, GaussianPower(1.0, 1.0))], 0, 1.0, math.inf)
    assert got == pytest.approx(float(theta_values(0.0, 2.0)), rel=1e-9)


@pytest.mark.parametrize(
    "F, n, t",
    [(Indicator(0.0, 1.0), 1, 1.0), (GaussianPower(1.0, 1.0), 1, 0.5), (_SEVEN_SAMPLES, 0, 0.25)],
    ids=["indicator", "gaussian", "samples"],
)
def test_sup_norm_of_a_flow_takes_few_calls(monkeypatch, F, n, t):
    # the scan, the cell middles and one batched bracket round per
    # sixteenfold narrowing, down to 2e-17 of two scan cells (84 calls
    # when the refinement evaluated one point per call)
    calls = []
    monkeypatch.setattr(convolve, "convolve_values", lambda *a: calls.append(a) or convolve_values(*a))
    got = lh.combo_lp_norm([(1.0, Heated(F, t, n, lh.DEFAULT_CONFIG))], math.inf)
    assert 0 < len(calls) <= 20
    xs = np.linspace(*Heated(F, t, n, lh.DEFAULT_CONFIG).effective_support(lh.DEFAULT_CONFIG), 10**5)
    dense = np.max(np.abs(convolve_values(F, n, t, xs)))
    assert got >= dense - 4 * np.spacing(dense)


def test_sup_norm_of_an_order_0_gaussian_flow_takes_no_call(monkeypatch):
    # c theta_s * theta_t = c theta_{s+t} peaks at 0: a closed form, no scan
    calls = []
    monkeypatch.setattr(convolve, "convolve_values", lambda *a: calls.append(a) or convolve_values(*a))
    F = GaussianPower(1.0, 1.0)
    got = lh.combo_lp_norm([(1.0, Heated(F, 0.5, 0, lh.DEFAULT_CONFIG))], math.inf)
    assert calls == []
    c, s = F.prefactor() * 2.0 * math.sqrt(math.pi * F.t / F.beta), F.t / F.beta
    want = c * float(theta_values(0.0, s + 0.5))
    assert abs(got - want) <= np.spacing(want)


_GAUSSIAN_EXPONENTS = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, math.inf)


@st.composite
def gaussian_flows(draw):
    """(GaussianPower, t): t0 and beta in [1/64, 64], or the normalized
    representatives ``young_equality_gap`` builds for beta = 1e4 and 1e-4
    at t = 1, and a flow time t in [2^-20, 1e4]."""
    if draw(st.booleans()):
        F = GaussianPower(2.0 ** draw(st.floats(-6.0, 6.0)), 2.0 ** draw(st.floats(-6.0, 6.0)))
    else:
        F = GaussianPower(1.0 / draw(st.sampled_from([1e4, 1e-4])), 1.0)
    return F, 2.0 ** draw(st.floats(-20.0, math.log2(1e4)))


@given(Ft=gaussian_flows(), p=st.sampled_from(_GAUSSIAN_EXPONENTS), c=st.floats(0.1, 3.0) | st.floats(-3.0, -0.1))
@settings(max_examples=80, deadline=None)
def test_gaussian_flow_norm_is_the_closed_form_against_mpmath(Ft, p, c):
    # F * theta_t = c_F theta_tau with tau = t0 / beta + t; the oracle
    # integrates |c_F theta_tau|^p in 30 digits over its peak's p-th power,
    # so the integrand peaks at 1 (mpmath's quad stops early on an integrand
    # of size 1e-27), split at 0 and one kernel width each side; at p = inf
    # it is the flow's sup, its value at 0
    mp = pytest.importorskip("mpmath")
    F, t = Ft
    got = lh.combo_lp_norm([(c, Heated(F, t, 0, lh.DEFAULT_CONFIG))], p)
    with mp.workdps(30):
        t0, beta = mp.mpf(F.t), mp.mpf(F.beta)
        s = t0 / beta
        tau = s + mp.mpf(t)
        peak = (2 * mp.sqrt(mp.pi * t0)) ** (-beta) * 2 * mp.sqrt(mp.pi * s) / (2 * mp.sqrt(mp.pi * tau))
        want = abs(c) * peak
        if not math.isinf(p):
            w = mp.sqrt(2 * tau)
            want *= mp.quad(lambda x: mp.exp(-p * x * x / (4 * tau)), [-mp.inf, -w, 0, w, mp.inf]) ** (1 / mp.mpf(p))
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("p", _GAUSSIAN_EXPONENTS)
@pytest.mark.parametrize("t", [2.0 ** -14, 0.5, 100.0])
def test_gaussian_flow_norm_matches_the_quadrature_it_replaces(p, t):
    # the flow is one kernel atom of order 0; the scan and quadrature behind
    # combo_lp_norm measure it at rel_tol 1e-10
    F = GaussianPower(0.5, 2.0)
    terms = [(1.0, Heated(F, t, 0, lh.DEFAULT_CONFIG))]
    assert lh.combo_lp_norm(terms, p) == pytest.approx(lp_space._quadrature_lp_norm(terms, p, lh.DEFAULT_CONFIG),
                                                       rel=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("flow", [lambda F: F, lambda F: Heated(F, 0.5, 1, lh.DEFAULT_CONFIG)],
                         ids=["raw-data", "order-1-flow"])
def test_raw_gaussian_data_and_order_1_flows_keep_their_quadrature(monkeypatch, flow, p):
    # the closed-form route takes lone order-0 flows only; at p = 2 these two
    # are kernel atoms and take the energy sum, so the kernel suite measures
    # them by _quadrature_lp_norm on purpose
    calls = []
    for name in ("_integrate", "_scan_refine_max"):
        inner = getattr(lp_space, name)
        monkeypatch.setattr(lp_space, name, lambda *a, _name=name, _inner=inner: calls.append(_name) or _inner(*a))
    terms = [(1.0, flow(GaussianPower(1.0, 1.0)))]
    got = lh.combo_lp_norm(terms, p)
    if p == 2.0:
        assert calls == []
        assert got == pytest.approx(lp_space._quadrature_lp_norm(terms, p, lh.DEFAULT_CONFIG), rel=1e-9)
    else:
        assert calls == ["_scan_refine_max" if math.isinf(p) else "_integrate"]


def test_grid_young_consistency():
    # the r-norm of the flow respects the sharp convolution bound
    tr = lh.r_from(1.0, 2.0)
    norm = lh.convolution_lp_norm([(1.0, Indicator(-1.0, 1.0))], 0, 1.0, tr.r)
    bound = (
        lh.young_constant(tr)
        * lh.lp_norm(Indicator(-1.0, 1.0), 1.0)
        * lh.theta_norm_closed(2.0, 1.0)
    )
    assert norm <= bound


def test_combo_norm_sees_a_narrow_flow_in_a_wide_window():
    # the narrow flow's window [-0.53, 0.56] sits inside one of the 33-node
    # scan's seed panels of the wide flow's window; with no seed at its edges
    # the norm read 1.04e-4 low
    cfg = lh.DEFAULT_CONFIG
    wide = Heated(lh.sample([0.0, 1.0], 0.0, 0.5), 1e5, 0, cfg)
    narrow = Heated(lh.sample([0.0, 1.0], 0.0, 0.0234375), 10 ** -1.5, 0, cfg)
    (lo, hi), (nlo, nhi) = wide.effective_support(cfg), narrow.effective_support(cfg)

    def power(x):
        x = np.array([x])
        return abs(float(wide.values(x)[0] - narrow.values(x)[0])) ** 3

    cuts = sorted({*np.linspace(lo, hi, 9).tolist(), nlo, 0.0, 0.0234375, nhi})
    want = sum(sci.quad(power, a, b, epsabs=0.0, epsrel=1e-10, limit=200)[0] for a, b in zip(cuts, cuts[1:]))
    assert lh.combo_lp_norm([(1.0, wide), (-1.0, narrow)], 3.0) == pytest.approx(want ** (1.0 / 3.0), rel=1e-9)


@pytest.mark.parametrize("F", [lh.TailLog(30.0), lh.TruncatedSine(25.0)], ids=["tail_log", "truncated_sine"])
def test_slow_tail_flow_at_a_high_exponent_matches_scipy(F):
    # (10 / abs_tol)^p0 overflowed at p0 >= 24 before the window was capped at 1e300
    cfg = lh.DEFAULT_CONFIG
    assert F.effective_support(cfg)[1] == 1e300
    xs = np.array([0.0, 3.0, 10.0])
    got = convolve_values(F, 1, 1.0, xs)
    lo, w = F.breakpoints()[0], cfg.kernel_width(1.0)
    for x, v in zip(xs.tolist(), got.tolist()):
        cuts = [lo] + [k * math.pi for k in range(1, 8) if k * math.pi < x + w] + [x + w]  # the sine's arches
        f = lambda y: float(F.values(y)) * float(theta_deriv_values(x - y, 1.0, 1))
        want = sum(sci.quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0] for a, b in zip(cuts, cuts[1:]))
        assert v == pytest.approx(want, rel=1e-9, abs=1e-12)


# --- slow-tail flows in lockstep: convolve_values against the loop of convolve_point


def _outcome(run):
    """repr of the values ``run`` gives (so -0.0 and every bit show), or the
    type and message of the error it raises (the message carries the value
    and residual of a QuadratureAccuracyError)."""
    try:
        return repr(np.asarray(run(), dtype=float).tolist())
    except lh.LpHeatError as exc:
        return f"{type(exc).__name__}: {exc}"


_TAILS = [lh.TailLog(1.0), lh.TailLog(1.5), lh.TailLog(2.0), lh.TailLog(3.0),
          lh.TruncatedSine(1.0), lh.TruncatedSine(1.5), lh.TruncatedSine(2.0)]
_SMALL_BUDGETS = [lh.DEFAULT_CONFIG, lh.QuadratureConfig(max_subdivisions=2), lh.QuadratureConfig(max_subdivisions=4)]


@st.composite
def slow_tail_calls(draw):
    """(F, n, t, xs, cfg): points inside the support, straddling its edge,
    with windows that miss it, repeated, and now and then one whose window
    x -+ kernel_width(t) rounds to x, among them in any order; budgets small
    enough that some points fail and others do not."""
    F = draw(st.sampled_from(_TAILS))
    t = 10.0 ** draw(st.floats(-3.0, 1.0))
    edge, w = F.breakpoints()[0], lh.DEFAULT_CONFIG.kernel_width(t)
    point = st.one_of(st.floats(edge + w, edge + w + 30.0), st.floats(edge - w, edge + w),
                      st.floats(edge - w - 10.0, edge - w))
    xs = draw(st.lists(point, min_size=1, max_size=10))
    xs += draw(st.lists(st.sampled_from(xs), max_size=3))
    xs += draw(st.lists(st.sampled_from([1e17, 3e18]), max_size=1))
    return F, draw(st.integers(0, 2)), t, draw(st.permutations(xs)), draw(st.sampled_from(_SMALL_BUDGETS))


@given(call=slow_tail_calls())
@settings(max_examples=60, deadline=None)
def test_slow_tail_values_are_the_per_point_loop_bit_for_bit(call):
    # every value, and the error of the first failing point, as the loop of
    # convolve_point over the points' array gives them (numpy floats, so
    # np.float64 reprs in a budget error's message)
    F, n, t, xs, cfg = call
    got = _outcome(lambda: convolve_values(F, n, t, xs, cfg))
    assert got == _outcome(lambda: [lh.convolve_point(F, n, t, x, cfg) for x in np.asarray(xs)])


@pytest.mark.parametrize("cfg", [lh.DEFAULT_CONFIG, lh.QuadratureConfig(max_subdivisions=2)],
                         ids=["default", "budget-2"])
def test_a_lost_window_between_good_points_raises_the_loops_error(cfg):
    # at t = 1e-3 the window of x = 1e17 rounds to x; with a budget of 2 the
    # point at 5 already fails its quadrature, before 1e17 is reached
    xs = np.array([5.0, 8.0, 1e17, 6.0, 3e18])
    with pytest.raises(lh.QuadratureAccuracyError) as exc:
        convolve_values(lh.TailLog(2.0), 1, 1e-3, xs, cfg)
    with pytest.raises(lh.QuadratureAccuracyError) as loop:
        for x in xs:
            lh.convolve_point(lh.TailLog(2.0), 1, 1e-3, x, cfg)
    assert str(exc.value) == str(loop.value)
    assert ("floating-point resolution at x=1e+17" in str(exc.value)) == (cfg is lh.DEFAULT_CONFIG)


@pytest.mark.parametrize("F", [lh.TailLog(2.0), lh.TruncatedSine(1.5)], ids=["tail_log", "truncated_sine"])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
def test_a_slow_tail_call_takes_one_integrand_call_per_round(monkeypatch, F, n, t):
    # each point's seed panels take one call each, as integrate takes them;
    # after that all 61 bisections share one call per round, 3 to 6 rounds
    # here (64 to 67 calls, where the loop of convolve_point took 183 to 251)
    calls = []
    kernel = convolve.theta_deriv_values
    monkeypatch.setattr(convolve, "theta_deriv_values", lambda u, t, n: calls.append(np.size(u)) or kernel(u, t, n))
    xs = np.linspace(2.0, 20.0, 61)
    convolve_values(F, n, t, xs)
    w, (slo, shi) = lh.DEFAULT_CONFIG.kernel_width(t), F.effective_support(lh.DEFAULT_CONFIG)
    windows = [(max(x - w, slo), min(x + w, shi)) for x in xs.tolist()]
    seeds = sum(1 + sum(lo < b < hi for b in F.breakpoints()) for lo, hi in windows if lo < hi)
    assert calls[:seeds] == [15] * seeds
    assert len(calls) <= seeds + 8


@pytest.mark.parametrize("cfg", [lh.DEFAULT_CONFIG, lh.QuadratureConfig(max_subdivisions=2)],
                         ids=["default", "budget-2"])
def test_a_long_slow_tail_call_is_the_loop_across_its_chunks(cfg):
    # the bisections run 512 at a time; points whose windows catch the
    # support's edge converge within a budget of 2 and those further in do
    # not, so the first failure is at 3.5 in the second chunk, with more in
    # the third
    edge = np.linspace(2.28, 2.5, 1100)
    xs = np.concatenate([edge[:700], [3.5], edge[700:], np.linspace(3.0, 40.0, 300)])
    got = _outcome(lambda: convolve_values(lh.TailLog(2.0), 1, 1e-3, xs, cfg))
    assert got == _outcome(lambda: [lh.convolve_point(lh.TailLog(2.0), 1, 1e-3, x, cfg) for x in xs])
    assert got.startswith("QuadratureAccuracyError") == (cfg is not lh.DEFAULT_CONFIG)
    if cfg is not lh.DEFAULT_CONFIG:
        assert got == _outcome(lambda: [lh.convolve_point(lh.TailLog(2.0), 1, 1e-3, xs[700], cfg)])
