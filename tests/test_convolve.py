import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpheat as lh
from lpheat import (
    DomainError,
    GaussianPower,
    Indicator,
    ResolutionError,
    StepCombo,
    UnsupportedOrderError,
)
from lpheat.convolve import convolve_values
from lpheat.kernel import theta_deriv_norm_closed, theta_deriv_values, theta_norm_closed, theta_values

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
    shifted = lh.translate(F, 0.8)
    for x in (0.0, 1.5):
        assert lh.convolve_point(shifted, 0, 0.5, x) == pytest.approx(
            lh.convolve_point(F, 0, 0.5, x - 0.8), rel=1e-11
        )


def test_far_window_returns_certified_zero():
    assert lh.convolve_point(Indicator(0.0, 1.0), 0, 0.01, 50.0) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derivative_commutation_second_order(n):
    F = Indicator(0.0, 1.0)
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        lhs, rhs = lh.convolve_smooth_derivative_check(F, 1.0, n, 0.3, h)
        errors.append(abs(lhs - rhs))
    assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)
    assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.25)


def test_derivative_commutation_gaussian():
    lhs, rhs = lh.convolve_smooth_derivative_check(GaussianPower(1.0, 1.0), 1.0, 2, 0.0, 1e-3)
    assert abs(lhs - rhs) < 1e-6


def test_derivative_commutation_zero_data():
    zero = StepCombo(((0.0, -1.0, 1.0),))
    lhs, rhs = lh.convolve_smooth_derivative_check(zero, 1.0, 1, 0.2, 1e-3)
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
    """n = 1 for t in [2^-20, 1e2]; n = 2 for t in [0.01, 1e2], below which
    the quadrature oracle exceeds its subdivision budget."""
    n = draw(st.sampled_from([1, 2]))
    lo = -20.0 if n == 1 else math.log2(0.01)
    return n, 2.0 ** draw(st.floats(lo, math.log2(1e2)))


@given(F=step_primitives(), nt=order_and_time(), offsets=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_step_closed_form_matches_quadrature(F, nt, offsets):
    # F * theta^(n) = F' * theta^(n-1) for step data; convolve_point is the oracle
    n, t = nt
    jumps = F.jumps()
    locs = sorted(jumps) or list(F.breakpoints())
    xs = np.array([locs[i % len(locs)] + s * math.sqrt(t) for i, s in enumerate(offsets)])
    got = convolve_values(F, n, t, xs)
    want = [lh.convolve_point(F, n, t, float(x)) for x in xs]
    peak = theta_norm_closed(math.inf, t) if n == 1 else theta_deriv_norm_closed(math.inf, t)
    scale = sum(abs(w) for w in jumps.values()) * peak
    assert np.max(np.abs(got - want)) <= 1e-10 * max(scale, 1e-300)


def test_grid_convolution_matches_pointwise():
    xs = np.arange(-3.0, 3.0 + 1e-9, 0.01)
    vals = ((xs >= -1.0) & (xs <= 1.0)).astype(float)
    G = lh.GridFunction(-3.0, 0.01, tuple(vals))
    out = lh.convolve_grid(G, 1.0, 0)
    i0 = int(round((0.0 - out.x0) / out.dx))
    ref = lh.convolve_point(Indicator(-1.0, 1.0), 0, 1.0, 0.0)
    assert out.values[i0] == pytest.approx(ref, abs=5e-4)


def test_grid_convolution_zero_in_zero_out():
    G = lh.GridFunction(-2.0, 0.05, tuple([0.0] * 81))
    out = lh.convolve_grid(G, 0.5, 0)
    assert max(abs(v) for v in out.values) == 0.0


def test_grid_convolution_semigroup_on_samples():
    xs = np.arange(-12.0, 12.0 + 1e-9, 0.02)
    G = lh.GridFunction(-12.0, 0.02, tuple(theta_values(xs, 1.0)))
    out = lh.convolve_grid(G, 1.0, 0)
    ref = theta_values(xs, 2.0)
    err = np.max(np.abs(np.asarray(out.values) - ref))
    assert err < 5e-4


def test_grid_convolution_derivative_order():
    xs = np.arange(-12.0, 12.0 + 1e-9, 0.02)
    G = lh.GridFunction(-12.0, 0.02, tuple(theta_values(xs, 1.0)))
    out = lh.convolve_grid(G, 1.0, 1)
    ref = theta_deriv_values(xs, 2.0, 1)
    assert np.max(np.abs(np.asarray(out.values) - ref)) < 5e-4


def test_grid_resolution_guard():
    G = lh.GridFunction(0.0, 0.5, tuple([1.0] * 10))
    with pytest.raises(ResolutionError):
        lh.convolve_grid(G, 0.04, 0)


def test_grid_kernel_sampling_normalization():
    # order 0 samples are renormalized to unit discrete mass; derivative
    # orders keep raw samples whose discrete sum is already near zero
    import math as m

    from lpheat.quadrature import DEFAULT_CONFIG

    dx, t = 0.02, 1.0
    mm = int(m.ceil(DEFAULT_CONFIG.tail_width_sigmas * m.sqrt(2 * t) / dx))
    nodes = dx * np.arange(-mm, mm + 1)
    assert abs(float(theta_deriv_values(nodes, t, 1).sum()) * dx) < 1e-12
    ones = lh.GridFunction(-10.0, dx, tuple([1.0] * 1001))
    out = lh.convolve_grid(ones, t, 0)
    mid = len(out.values) // 2
    # kernel mass falling off the finite data window is about erfc(5) = 1.5e-12
    assert out.values[mid] == pytest.approx(1.0, abs=1e-11)


def test_convolution_norm_semigroup_value():
    # || theta_1 * theta_1 ||_2 = || theta_2 ||_2
    got = lh.convolution_lp_norm([(1.0, GaussianPower(1.0, 1.0))], 0, 1.0, 2.0)
    assert got == pytest.approx(0.3755627722324712, rel=1e-9)


def test_convolution_norm_sup():
    # || theta_1 * theta_1 ||_inf = theta_2(0)
    got = lh.convolution_lp_norm([(1.0, GaussianPower(1.0, 1.0))], 0, 1.0, math.inf)
    assert got == pytest.approx(float(theta_values(0.0, 2.0)), rel=1e-9)


def test_grid_young_consistency():
    # discrete r-norm respects the sharp convolution bound up to grid error
    xs = np.arange(-4.0, 4.0 + 1e-9, 0.01)
    vals = ((xs >= -1.0) & (xs <= 1.0)).astype(float)
    G = lh.GridFunction(-4.0, 0.01, tuple(vals))
    out = lh.convolve_grid(G, 1.0, 0)
    tr = lh.r_from(1.0, 2.0)
    grid_norm = lh.lp_norm(lh.Sampled(out), 2.0)
    bound = (
        lh.young_constant(tr)
        * lh.lp_norm(Indicator(-1.0, 1.0), 1.0)
        * lh.theta_norm_closed(2.0, 1.0)
    )
    assert grid_norm <= bound + 1e-3
