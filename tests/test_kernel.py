import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate as sci

import lpheat as lh
from lpheat import MAX_DERIV_ORDER, DomainError, GaussianPower, UnsupportedOrderError
from lpheat import kernel
from lpheat.convolve import convolve_values
from lpheat.kernel import theta_deriv_values, theta_values
from lpheat.quadrature import composite_gk15

SQRT_PI = math.sqrt(math.pi)


def test_theta_reference_values():
    assert float(theta_values(0.0, 1.0)) == pytest.approx(1 / (2 * SQRT_PI), rel=1e-15)
    assert float(theta_values(0.0, 0.25)) == pytest.approx(1 / SQRT_PI, rel=1e-15)


def test_theta_unit_mass_scipy_oracle():
    ref, _ = sci.quad(lambda x: math.exp(-x * x / 4) / (2 * SQRT_PI), -40, 40)
    val, _ = lh.integrate(lambda x: theta_values(x, 1.0), -40, 40)
    assert abs(val - 1.0) < 1e-12
    assert abs(val - ref) < 1e-12


@pytest.mark.parametrize("t", np.logspace(-3, 3, 7))
def test_theta_unit_mass_across_times(t):
    w = 10 * math.sqrt(2 * t)
    val, _ = lh.integrate(lambda x: theta_values(x, t), -w, w)
    assert abs(val - 1.0) < 1e-10


@given(
    x=st.floats(-20, 20, allow_nan=False),
    t=st.floats(0.01, 100, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_theta_positive_and_even(x, t):
    assume(x * x / (4 * t) < 700)  # below the exp underflow threshold
    assert float(theta_values(x, t)) > 0
    assert float(theta_values(-x, t)) == float(theta_values(x, t))


def test_kernel_point_validation():
    # theta_values does not validate; its callers check the time and points
    F = lh.Indicator(0.0, 1.0)
    for t, x in ((0.0, 0.0), (-1.0, 0.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(DomainError):
            convolve_values(F, 0, t, [0.5, x])


def test_first_derivative_values():
    assert float(theta_deriv_values(0.0, 1.0, 1)) == 0.0
    # peak magnitude of |theta_1'| at x = sqrt(2): 1 / (2^{3/2} sqrt(pi e))
    got = float(theta_deriv_values(math.sqrt(2.0), 1.0, 1))
    assert got == pytest.approx(-0.1209853622595717, rel=1e-12)


def test_derivative_order_zero_matches_theta():
    assert float(theta_deriv_values(0.7, 0.3, 0)) == float(theta_values(0.7, 0.3))


@pytest.mark.parametrize("n", range(1, 9))
def test_derivative_matches_finite_difference(n):
    x, t, h = 0.9, 0.8, 1e-5
    fd = (
        float(theta_deriv_values(x + h, t, n - 1)) - float(theta_deriv_values(x - h, t, n - 1))
    ) / (2 * h)
    got = float(theta_deriv_values(x, t, n))
    assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_second_derivative_against_fd_tolerance_of_example():
    h = 1e-5
    fd = (float(theta_deriv_values(1.0 + h, 1.0, 1)) - float(theta_deriv_values(1.0 - h, 1.0, 1))) / (2 * h)
    assert float(theta_deriv_values(1.0, 1.0, 2)) == pytest.approx(fd, rel=1e-7)


def test_derivative_order_cap():
    F = lh.sample([0.0, 1.0, 0.0], -1.0, 1.0)
    assert np.all(np.isfinite(convolve_values(F, MAX_DERIV_ORDER, 1.0, [0.3])))
    with pytest.raises(UnsupportedOrderError):
        convolve_values(F, MAX_DERIV_ORDER + 1, 1.0, [0.3])
    with pytest.raises(DomainError):
        convolve_values(F, -1, 1.0, [0.3])


def test_time_derivative():
    # the kernel solves the heat equation, so its time derivative is the
    # second space derivative; at the origin that is -1/(4 sqrt(pi))
    assert float(theta_deriv_values(0.0, 1.0, 2)) == pytest.approx(-0.1410473958869391, rel=1e-13)
    # central difference in t
    x, t, h = 1.0, 0.5, 1e-6
    fd = (float(theta_values(x, t + h)) - float(theta_values(x, t - h))) / (2 * h)
    assert float(theta_deriv_values(x, t, 2)) == pytest.approx(fd, rel=1e-6)


def test_theta_power():
    # GaussianPower(t, beta) is theta_t^beta
    assert float(GaussianPower(1.0, 2.0).values(0.0)) == pytest.approx(1 / (4 * math.pi), rel=1e-14)
    assert float(GaussianPower(0.7, 1.0).values(1.3)) == pytest.approx(
        float(theta_values(1.3, 0.7)), rel=1e-14
    )
    with pytest.raises(DomainError):
        GaussianPower(0.7, 0.0)
    with pytest.raises(DomainError):
        GaussianPower(0.7, -2.0)


def test_theta_square_mass():
    # int theta_1^2 = (2 sqrt(pi))^{-2} sqrt(2 pi)
    ref, _ = sci.quad(lambda x: (math.exp(-x * x / 4) / (2 * SQRT_PI)) ** 2, -30, 30)
    val, _ = lh.integrate(lambda x: theta_values(x, 1.0) ** 2, -30, 30)
    assert val == pytest.approx(0.1994711402007164, rel=1e-12)
    assert val == pytest.approx(ref, rel=1e-12)


def test_norm_closed_reference_values():
    assert lh.theta_norm_closed(1.0, 7.0) == 1.0
    assert lh.theta_norm_closed(math.inf, 1.0) == pytest.approx(1 / (2 * SQRT_PI), rel=1e-15)
    assert lh.theta_norm_closed(2.0, 1.0) == pytest.approx(0.4466219208690012, rel=1e-14)
    with pytest.raises(DomainError):
        lh.theta_norm_closed(0.5, 1.0)
    with pytest.raises(DomainError):
        lh.theta_norm_closed(2.0, 0.0)


def test_deriv_norm_closed_reference_values():
    assert lh.theta_deriv_norm_closed(1.0, 1.0) == pytest.approx(1 / SQRT_PI, rel=1e-15)
    assert lh.theta_deriv_norm_closed(math.inf, 1.0) == pytest.approx(
        0.1209853622595717, rel=1e-13
    )
    assert lh.theta_deriv_norm_closed(2.0, 1.0) == pytest.approx(0.2233109604345006, rel=1e-13)
    with pytest.raises(DomainError):
        lh.theta_deriv_norm_closed(0.99, 1.0)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0])
def test_norms_match_scipy_quadrature(q):
    for t in (0.25, 1.0, 9.0):
        ref = sci.quad(lambda x: theta_values(x, t) ** q, -40 * math.sqrt(t), 40 * math.sqrt(t))[0] ** (1 / q)
        assert lh.theta_norm_closed(q, t) == pytest.approx(ref, rel=1e-9)
        refd = sci.quad(
            lambda x: abs(float(theta_deriv_values(x, t, 1))) ** q,
            -40 * math.sqrt(t),
            40 * math.sqrt(t),
        )[0] ** (1 / q)
        assert lh.theta_deriv_norm_closed(q, t) == pytest.approx(refd, rel=1e-9)


@pytest.mark.parametrize("q", [1.0, 1.4, 2.0, 5.0, math.inf])
def test_norm_scaling_factorization(q):
    # the closed form is alpha(q) * t^{-e} by construction; reassembling it
    # bit-for-bit shows the t-free factor carries the whole q-dependence
    e = -(1.0 - (0.0 if math.isinf(q) else 1.0 / q)) / 2.0
    for t in (1e-3, 0.1, 1.0, 42.0, 1e3):
        assert lh.theta_norm_closed(q, t) == lh.alpha_coefficient(q) * t ** e


def test_alpha_delta_limits():
    # interior formulas approach the endpoint entries
    assert lh.alpha_coefficient(1e8) == pytest.approx(lh.alpha_coefficient(math.inf), rel=1e-7)
    assert lh.delta_coefficient(1e8) == pytest.approx(lh.delta_coefficient(math.inf), rel=1e-7)
    assert lh.alpha_coefficient(1.0 + 1e-12) == pytest.approx(1.0, rel=1e-9)


def test_semigroup_residual():
    xs = np.linspace(-10, 10, 41)
    for t, s in ((1.0, 1.0), (0.5, 0.5), (2.0, 3.0)):
        assert lh.semigroup_residual(t, s, xs) < 1e-10


def test_semigroup_half_half_hits_unit_time():
    # theta_{1/2} * theta_{1/2} compared against theta_1 directly
    val = lh.semigroup_residual(0.5, 0.5, np.asarray([0.0, 0.3, 2.0]))
    assert val < 1e-12


def _semigroup_loop(t, s, xs, cfg):
    """The per-point adaptive residual: one integrate per point."""
    width = cfg.kernel_width(t * s / (t + s))
    worst = 0.0
    for x in xs:
        centre = x * s / (t + s)
        integrand = lambda y: theta_values(x - y, t) * theta_values(y, s)
        val, _ = lh.integrate(integrand, centre - width, centre + width, cfg)
        worst = max(worst, abs(val - float(theta_values(x, t + s))))
    return worst


@pytest.mark.parametrize("t, s", [(1.0, 1.0), (0.5, 0.5), (2.0, 3.0), (1e-3, 1e-3)])
def test_batched_semigroup_matches_per_point_integrate(t, s):
    xs = np.linspace(-10.0, 10.0, 81)
    cfg = lh.QuadratureConfig()
    assert abs(lh.semigroup_residual(t, s, xs, cfg) - _semigroup_loop(t, s, xs, cfg)) <= 1e-15


def test_semigroup_over_several_blocks():
    # 500 points take three batched calls; each point's value is its own row's
    xs = np.linspace(-12.0, 12.0, 500)
    whole = lh.semigroup_residual(0.5, 2.0, xs)
    split = max(lh.semigroup_residual(0.5, 2.0, xs[:123]), lh.semigroup_residual(0.5, 2.0, xs[123:]))
    assert whole == pytest.approx(split, rel=0.0, abs=1e-16)
    assert whole < 1e-14


def test_semigroup_tight_tolerance_falls_back_to_integrate(monkeypatch):
    # no 20-panel K15 row meets rel_tol 1e-18, so every point is redone adaptively
    calls = []
    real = kernel.integrate
    monkeypatch.setattr(kernel, "integrate", lambda *a, **k: calls.append(a[1:3]) or real(*a, **k))
    xs = np.linspace(-10.0, 10.0, 81)
    cfg = lh.QuadratureConfig(abs_tol=1e-30, rel_tol=1e-18, max_subdivisions=64)
    resid = lh.semigroup_residual(1.0, 1.0, xs, cfg)
    assert len(calls) == xs.size
    assert resid < 1e-12
    monkeypatch.undo()
    assert resid == _semigroup_loop(1.0, 1.0, xs, cfg)


def test_composite_rows_match_single_row_calls():
    t, s = 2.0, 3.0
    xs = np.linspace(-10.0, 10.0, 81)
    width = lh.QuadratureConfig().kernel_width(t * s / (t + s))
    edges = xs[:, None] * s / (t + s) + np.linspace(-width, width, 21)
    x_nodes = np.repeat(xs, 20 * 15)
    values, errors = composite_gk15(lambda y: theta_values(x_nodes - y, t) * theta_values(y, s), edges)
    assert values.shape == errors.shape == xs.shape
    for x, row, value, err in zip(xs, edges, values, errors):
        one, one_err = composite_gk15(lambda y: theta_values(x - y, t) * theta_values(y, s), row)
        assert value == pytest.approx(one, rel=1e-15, abs=0.0)
        # the K15-G7 differences cancel, so compare them on the value's scale
        assert abs(err - one_err) <= 1e-15 * abs(one)


def test_semigroup_domain_errors():
    with pytest.raises(DomainError):
        lh.semigroup_residual(1.0, -1.0, [0.0])
    with pytest.raises(DomainError):
        lh.semigroup_residual(0.5, -0.5, [0.0])
