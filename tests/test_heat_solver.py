import math
import warnings

import numpy as np
import pytest

import lpheat as lh
import lpheat.heat_solver as heat_solver
from lpheat import DomainError, GaussianPower, Indicator, LprimeElement, StepCombo
from lpheat.kernel import theta_deriv_values, theta_values


def dirac_pm1(p=2.0):
    return lh.dirac_difference(-1.0, 1.0, p=p)


# a Gaussian bump sampled on [-2, 2]: its order-1 flow takes one quadrature per point
SAMPLED_BUMP = lh.from_primitive(lh.sample(np.exp(-np.linspace(-2.0, 2.0, 41) ** 2), -2.0, 0.1), 2.0)


def value_at(f, t, x, cfg=lh.DEFAULT_CONFIG):
    """v_t(x) from a call of ``solve_values`` on the one point x."""
    return float(lh.solve_values(f, t, [x], cfg)[0])


def test_solve_at_symmetric_cancellation():
    assert value_at(dirac_pm1(), 1.0, 0.0) == 0.0


def test_solve_at_closed_form_value():
    # theta_1(2) - theta_1(0) = (e^{-1} - 1) / (2 sqrt(pi))
    got = value_at(dirac_pm1(), 1.0, 1.0)
    assert got == pytest.approx(-0.1783179174187295, rel=1e-13)


@pytest.mark.parametrize(
    "f",
    [
        lh.from_primitive(StepCombo(((1.0, -2.0, 0.5), (-0.7, 0.0, 1.5), (2.0, 1.0, 2.0))), 2.0),
        SAMPLED_BUMP,
        LprimeElement(GaussianPower(1.0, 1.0), 2.0),
    ],
    ids=["atoms", "quadrature", "gaussian_power"],
)
def test_point_value_does_not_depend_on_the_other_points(f):
    # callers put all their points at one time level in one call, so a
    # point's value must be the same alone, reversed or among other points
    xs = np.linspace(-3.0, 3.0, 7)
    grid = lh.solve_values(f, 0.3, xs).tolist()
    assert [value_at(f, 0.3, x) for x in xs] == grid
    assert lh.solve_values(f, 0.3, xs[::-1]).tolist() == grid[::-1]
    mixed = lh.solve_values(f, 0.3, np.concatenate([xs[::2], [-7.5, 0.05], xs[1::2]])).tolist()
    assert mixed[:4] + mixed[6:] == grid[::2] + grid[1::2]


@pytest.mark.parametrize(
    "f",
    [dirac_pm1(), SAMPLED_BUMP],
    ids=["closed form", "quadrature"],
)
def test_pde_residual_makes_one_call_per_time_level(record_solve_values, f):
    x, t, h_x, h_t = 0.3, 0.5, 0.04, 0.02
    v = {
        (t, x - h_x): value_at(f, t, x - h_x),
        (t, x): value_at(f, t, x),
        (t, x + h_x): value_at(f, t, x + h_x),
        (t + h_t, x): value_at(f, t + h_t, x),
        (t - h_t, x): value_at(f, t - h_t, x),
    }
    calls = record_solve_values(heat_solver)
    got = lh.pde_residual(f, x, t, h_x, h_t)
    assert sorted(calls) == sorted([(t, [x - h_x, x, x + h_x]), (t + h_t, [x]), (t - h_t, [x])])
    v_xx = (v[t, x + h_x] - 2.0 * v[t, x] + v[t, x - h_x]) / (h_x * h_x)
    v_t = (v[t + h_t, x] - v[t - h_t, x]) / (2.0 * h_t)
    assert got == v_xx - v_t


def test_kernel_derivative_data_evolves_to_shifted_derivative():
    # data (theta_1)': the solution at time t is theta_{1+t}'
    f = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    for x in (0.7, -1.3):
        got = value_at(f, 1.0, x)
        assert got == pytest.approx(float(theta_deriv_values(x, 2.0, 1)), rel=1e-10)
    assert value_at(f, 1.0, 0.7) == pytest.approx(-0.032833530355232063, rel=1e-10)


def test_solve_values_on_grid():
    values = lh.solve_values(dirac_pm1(), 1.0, np.linspace(-5.0, 5.0, 11))
    assert len(values) == 11
    assert values[5] == 0.0  # x = 0 by symmetry
    assert values[6] == pytest.approx(-0.1783179174187295, rel=1e-12)


def test_time_validation():
    with pytest.raises(DomainError):
        lh.solve_values(dirac_pm1(), -1.0, [0.0])


def test_pde_residual_small_on_closed_form():
    res = lh.pde_residual(dirac_pm1(), 0.5, 1.0, 1e-3, 1e-3)
    assert abs(res) < 1e-5


def test_pde_residual_zero_data():
    zero = lh.from_primitive(StepCombo(((0.0, -1.0, 1.0),)), 2.0)
    assert lh.pde_residual(zero, 0.5, 1.0, 1e-2, 1e-2) == 0.0


def test_pde_residual_second_order_decay():
    # probe away from x = 0.5, where antisymmetry cancels the leading error
    # term; the indicator takes the closed form, the sampled bump quadrature
    cfg = lh.QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)
    bump = lh.sample(np.exp(-np.linspace(-2.0, 2.0, 41) ** 2), -2.0, 0.1)
    for f in (LprimeElement(Indicator(0.0, 1.0), 2.0), lh.from_primitive(bump, 2.0)):
        residuals = [abs(lh.pde_residual(f, 0.3, 0.5, h, h, cfg)) for h in (0.08, 0.04, 0.02)]
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.3)
        assert residuals[1] / residuals[2] == pytest.approx(4.0, rel=0.3)


def test_pde_residual_time_guard():
    with pytest.raises(DomainError):
        lh.pde_residual(dirac_pm1(), 0.0, 0.01, 1e-3, 0.02)


def test_ic_convergence_indicator():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    norms = lh.ic_convergence(f, [0.1, 0.01, 0.001])
    # frozen erf-based oracle values for || chi*theta_t - chi ||_2
    assert norms[0] == pytest.approx(0.4815282601, rel=1e-6)
    assert norms[1] == pytest.approx(0.2570971463, rel=1e-6)
    assert norms[2] == pytest.approx(0.1445763266, rel=1e-6)
    assert norms[0] > norms[1] > norms[2] > 0.0
    assert norms[-1] < 0.15


@pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
def test_flow_time_is_checked_before_any_work(capfd, t):
    # the flow checks (t, n) where it is built, so a bad time raises with
    # nothing computed: no numpy warning from a grid on an infinite window
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="kernel time must be positive and finite"):
            lh.ic_convergence(f, [0.1, t])
        with pytest.raises(DomainError, match="kernel time must be positive and finite"):
            lh.weak_ic_check(f, lh.gaussian_test_function(), [t])
        with pytest.raises(DomainError, match="kernel time must be positive and finite"):
            lh.continuity_bound(f, f, lh.r_from(2.0, 1.0), t)
    assert capfd.readouterr().err == ""


def test_ic_convergence_zero_data():
    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 2.0)
    assert lh.ic_convergence(zero, [0.1, 0.01]) == [0.0, 0.0]


def test_ic_convergence_kernel_derivative_data():
    f = lh.from_primitive(GaussianPower(1.0, 1.0), 1.0)
    norms = lh.ic_convergence(f, [0.5, 0.1, 0.02])
    # || theta_{1+t} - theta_1 ||_1 = 2 [erf(k/2) - erf(k / (2 sqrt(1+t)))]
    # with k the crossing point; frozen from that closed form
    assert norms[0] == pytest.approx(0.195552284016996, rel=1e-8)
    assert norms[1] == pytest.approx(0.0461158195700075, rel=1e-8)
    assert norms[2] == pytest.approx(0.00958323385683448, rel=1e-8)
    assert norms[0] > norms[1] > norms[2]


def test_ic_convergence_gaussian_power_matches_exact():
    # ||F * theta_t - F||_3 for F = 2 pi theta_{1/4}, against 40-digit
    # mpmath; the difference is about 1e-4 of F, so only a scale taken
    # from the difference itself lets the tolerances act relatively
    f = lh.from_primitive(GaussianPower(0.5, 2.0), 3.0)
    got = lh.ic_convergence(f, [2.0 ** -13, 2.0 ** -14])
    assert got[0] == pytest.approx(3.3812034322130729e-05, rel=1e-9)
    assert got[1] == pytest.approx(1.6908768172199739e-05, rel=1e-9)


@pytest.mark.parametrize("t", [1e10, 1e12])
def test_norms_at_large_t_judge_the_data_not_the_window(t):
    # the window of F * theta_t is wider than 1e6 here; the slow-tail rule
    # looks at the data's own support, [0, 1].  The exact values are
    # sqrt(1 - B(2 sqrt t)), B(s) = erfc(1 / s sqrt 2) + s sqrt(2 / pi)
    # (1 - exp(-1 / 2 s^2)), in 40-digit mpmath; at p = 2 the norm is the
    # energy identity's jump sum, with no quadrature
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    norm = lh.solution_primitive_norm(f, t, 2.0)
    exact = {1e10: 0.0014123425229040608834, 1e12: 0.00044662192086899651339}[t]
    assert norm == pytest.approx(exact, rel=1e-14)
    # the flow is nearly theta_t, and <F * theta_t, F> nearly theta_t(0)
    assert norm == pytest.approx(lh.theta_norm_closed(2.0, t), rel=1e-6)
    (dist,) = lh.ic_convergence(f, [t])
    assert dist == pytest.approx(math.sqrt(1.0 + norm ** 2 - 1.0 / math.sqrt(math.pi * t)), rel=1e-9)


@pytest.mark.parametrize("t", [1e150, 4e153, 1e200, 1e300])
def test_norms_at_huge_t_stay_in_the_float_range(t):
    # sigma^4 alone overflows near t = 4e153; the exact values are
    # sqrt(1 - B(2 sqrt t)) (above) in 400-digit mpmath, whose cancellation
    # leaves more than 100 digits here
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 400
    s = 2 * mp.sqrt(mp.mpf(t))
    exact = mp.sqrt(1 - mp.erfc(1 / (s * mp.sqrt(2))) + s * mp.sqrt(2 / mp.pi) * mp.expm1(-1 / (2 * s * s)))
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    assert lh.solution_primitive_norm(f, t, 2.0) == pytest.approx(float(exact), rel=1e-13)
    assert lh.ic_convergence(f, [t]) == pytest.approx([1.0], rel=1e-15)


@pytest.mark.xfail(strict=True, reason="the p = 1 quadrature does not split at the flow's zero, 1.3e-4 right of "
                                       "the jump at 0.5, and reads 4.3e-8 low (ROADMAP item 1)")
def test_p1_step_combo_flow_norm_at_2_to_the_minus_8():
    # 30-digit value of ||F * theta_t||_1 at t = 2^-8 for the contraction
    # catalog's step combination; its flow changes sign at 0.500128957
    f = lh.from_primitive(StepCombo(((1.0, 0.0, 1.0), (-2.0, 0.5, 2.0), (0.5, -1.0, 0.25))), 1.0)
    assert lh.solution_primitive_norm(f, 2.0 ** -8, 1.0) == pytest.approx(3.4838916284975936937, rel=1e-12)


def test_norm_limit_approaches_from_below():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    ts = [0.5, 0.1, 0.02, 0.004]
    norms = [lh.solution_primitive_norm(f, t, f.p) for t in ts]
    target = lh.lprime_norm(f)
    assert all(n <= target * (1 + 1e-9) for n in norms)
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert norms[-1] > 0.9 * target


def test_norm_limit_zero_data():
    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 2.0)
    assert [lh.solution_primitive_norm(zero, t, zero.p) for t in (0.5, 0.1)] == [0.0, 0.0]


def test_norm_limit_gaussian_scaling():
    # primitive theta_1: || theta_1 * theta_t ||_2 = alpha_2 (1 + t)^{-1/4}
    f = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    ts = [1.0, 0.25, 0.05]
    norms = [lh.solution_primitive_norm(f, t, f.p) for t in ts]
    for t, n in zip(ts, norms):
        assert n == pytest.approx(0.4466219208690012 * (1 + t) ** -0.25, rel=1e-8)


def test_weak_ic_pairing_tends_to_zero():
    f = dirac_pm1()
    phi = lh.gaussian_test_function()
    vals = lh.weak_ic_check(f, phi, [1.0, 0.25, 0.05, 0.01])
    mags = [abs(v) for v in vals]
    assert mags[-1] < 1e-2
    assert mags[-1] < mags[0]
    assert all(b <= a + 1e-12 for a, b in zip(mags, mags[1:]))


def _smooth_step(s):
    """C-infinity ramp: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(s > 0, np.exp(-1.0 / np.where(s > 0, s, 1.0)), 0.0)
        b = np.where(s < 1, np.exp(-1.0 / np.where(s < 1, 1.0 - s, 1.0)), 0.0)
    return a / (a + b)


def plateau_test_function(flat_radius=6.0, ramp=2.0):
    """Equals 1 on [-flat_radius, flat_radius], smoothly falls to 0 over ``ramp``."""

    def deriv(x):
        x = np.asarray(x, dtype=float)
        s = (flat_radius + ramp - np.abs(x)) / ramp
        h = 1e-6
        return -np.sign(x) / ramp * ((_smooth_step(s + h) - _smooth_step(s - h)) / (2.0 * h))

    return lh.TestFunction(deriv=deriv, window=(-(flat_radius + ramp + 1.0), flat_radius + ramp + 1.0))


def test_weak_ic_plateau_annihilates():
    # derivative of the plateau vanishes where the data lives
    f = lh.dirac_difference(-0.5, 0.5, p=2.0)
    phi = plateau_test_function(flat_radius=6.0, ramp=2.0)
    vals = lh.weak_ic_check(f, phi, [1.0, 0.1])
    assert all(abs(v) < 1e-7 for v in vals)


def test_weak_ic_zero_data():
    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 2.0)
    vals = lh.weak_ic_check(zero, lh.gaussian_test_function(), [0.5, 0.1])
    assert vals == [0.0, 0.0]


def test_continuity_bound_identical_elements():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    rep = lh.continuity_bound(f, f, lh.r_from(2.0, 1.0), 0.5)
    assert rep.passed
    assert rep.measured == pytest.approx(0.0, abs=1e-10)


def test_continuity_bound_shifted_endpoint():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    g = lh.dirac_difference(0.0, 1.1, p=2.0)
    rep = lh.continuity_bound(f, g, lh.r_from(2.0, 1.0), 0.5)
    assert rep.passed
    # q = 1 bound is just the data distance, sqrt(0.1)
    assert rep.bound == pytest.approx(math.sqrt(0.1), rel=1e-9)
    assert rep.measured <= rep.bound


def test_continuity_bound_scaled_pair():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    doubled = lh.from_primitive(StepCombo(((2.0, 0.0, 1.0),)), 2.0)
    rep = lh.continuity_bound(f, doubled, lh.r_from(2.0, 1.0), 0.25)
    assert rep.passed
    # f - 2f = -f, so the measured side is the evolved norm of f itself
    direct = lh.solution_primitive_norm(f, 0.25, 2.0)
    assert rep.measured == pytest.approx(direct, rel=1e-9)


def test_continuity_sees_a_narrow_step_between_scan_nodes():
    # the flows differ by 1_[0.501, 0.502] * theta_t, which at t = 1e-10
    # lives between two scan nodes: the data's jumps seed the partition
    f = lh.from_primitive(StepCombo(((1.0, 0.0, 1.0), (1.0, 0.501, 0.502))), 2.0)
    g = lh.from_primitive(Indicator(0.0, 1.0), 2.0)
    t, width = 1e-10, 0.502 - 0.501
    # ||1_[0, L] * theta_t||_2^2 = L erf(L / sqrt(8t)) - 4t (1 - exp(-L^2 / 8t)) / sqrt(2 pi t)
    want = math.sqrt(width * math.erf(width / math.sqrt(8.0 * t)) - 4.0 * t * -math.expm1(-width * width / (8.0 * t)) / math.sqrt(2.0 * math.pi * t))
    measured = lh.continuity_bound(f, g, lh.r_from(2.0, 1.0), t).measured
    # the panels beside 0.501 and 0.502 are wider than the flow's 1e-5 edges,
    # and their nodes miss the outer tails: 8.4e-4 of the value is lost
    assert measured == pytest.approx(want, rel=1e-3)


def test_continuity_bound_exponent_guard():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    g = lh.dirac_difference(0.0, 1.0, p=3.0)
    with pytest.raises(DomainError):
        lh.continuity_bound(f, g, lh.r_from(2.0, 1.0), 0.5)


def test_time_shift_consistency():
    # evolving by t + s equals evolving the t-evolved primitive by s
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    t, s = 0.6, 0.4
    xs = np.linspace(-6.0, 7.0, 261)
    evolved = [lh.convolve_point(f.primitive, 0, t, x) for x in xs]
    f_evolved = LprimeElement(lh.sample(evolved, -6.0, xs[1] - xs[0]), 2.0)
    xs = [-0.5, 0.4, 1.2]
    direct = lh.solve_values(f, t + s, xs)
    staged = lh.solve_values(f_evolved, s, xs)
    assert staged == pytest.approx(direct, abs=5e-4)
