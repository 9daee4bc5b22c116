import math

import numpy as np
import pytest

import lpheat as lh
from lpheat import DomainError, GaussianPower, Indicator, LprimeElement, StepCombo
from lpheat.kernel import theta_deriv_values, theta_values


def dirac_pm1(p=2.0):
    return lh.dirac_difference(-1.0, 1.0, p=p)


def test_solve_at_symmetric_cancellation():
    assert lh.solve_at(dirac_pm1(), 1.0, 0.0) == 0.0


def test_solve_at_closed_form_value():
    # theta_1(2) - theta_1(0) = (e^{-1} - 1) / (2 sqrt(pi))
    got = lh.solve_at(dirac_pm1(), 1.0, 1.0)
    assert got == pytest.approx(-0.1783179174187295, rel=1e-13)


def test_atom_and_quadrature_routes_agree():
    with_atoms = dirac_pm1()
    without_atoms = LprimeElement(Indicator(-1.0, 1.0), 2.0, atoms=None)
    for x in (-2.0, 0.3, 1.0, 4.0):
        a = lh.solve_at(with_atoms, 0.7, x)
        b = lh.solve_at(without_atoms, 0.7, x)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize(
    "f",
    [
        lh.from_primitive(StepCombo(((1.0, -2.0, 0.5), (-0.7, 0.0, 1.5), (2.0, 1.0, 2.0))), 2.0),
        LprimeElement(Indicator(-1.0, 1.0), 2.0),
    ],
    ids=["atoms", "quadrature"],
)
def test_solve_at_is_solve_values_on_one_point(f):
    xs = np.linspace(-3.0, 3.0, 7)
    grid = lh.solve_values(f, 0.3, xs)
    assert [lh.solve_at(f, 0.3, float(x)) for x in xs] == list(grid)


def test_kernel_derivative_data_evolves_to_shifted_derivative():
    # data (theta_1)': the solution at time t is theta_{1+t}'
    f = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    for x in (0.7, -1.3):
        got = lh.solve_at(f, 1.0, x)
        assert got == pytest.approx(float(theta_deriv_values(x, 2.0, 1)), rel=1e-10)
    assert lh.solve_at(f, 1.0, 0.7) == pytest.approx(-0.032833530355232063, rel=1e-10)


def test_solution_object_grid():
    sol = lh.Solution(dirac_pm1(), 1.0)
    g = sol.on_grid(-5.0, 5.0, 11)
    assert len(g.values) == 11
    assert g.values[5] == 0.0  # x = 0 by symmetry
    assert sol.at(1.0) == pytest.approx(-0.1783179174187295, rel=1e-12)
    with pytest.raises(DomainError):
        lh.Solution(dirac_pm1(), 0.0)


def test_time_validation():
    with pytest.raises(DomainError):
        lh.solve_at(dirac_pm1(), -1.0, 0.0)


def test_pde_residual_small_on_closed_form():
    res = lh.pde_residual(dirac_pm1(), 0.5, 1.0, 1e-3, 1e-3)
    assert abs(res) < 1e-5


def test_pde_residual_zero_data():
    zero = lh.from_primitive(StepCombo(((0.0, -1.0, 1.0),)), 2.0)
    assert lh.pde_residual(zero, 0.5, 1.0, 1e-2, 1e-2) == 0.0


def test_pde_residual_second_order_decay():
    # probe away from x = 0.5, where antisymmetry cancels the leading error term
    f = LprimeElement(Indicator(0.0, 1.0), 2.0, atoms=None)
    cfg = lh.QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)
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


def test_norm_limit_approaches_from_below():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    ts = [0.5, 0.1, 0.02, 0.004]
    norms = lh.norm_limit_check(f, ts)
    target = lh.lprime_norm(f)
    assert all(n <= target * (1 + 1e-9) for n in norms)
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert norms[-1] > 0.9 * target


def test_norm_limit_zero_data():
    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 2.0)
    assert lh.norm_limit_check(zero, [0.5, 0.1]) == [0.0, 0.0]


def test_norm_limit_gaussian_scaling():
    # primitive theta_1: || theta_1 * theta_t ||_2 = alpha_2 (1 + t)^{-1/4}
    f = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    ts = [1.0, 0.25, 0.05]
    norms = lh.norm_limit_check(f, ts)
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


def test_weak_ic_plateau_annihilates():
    # derivative of the plateau vanishes where the data lives
    f = lh.dirac_difference(-0.5, 0.5, p=2.0)
    phi = lh.plateau_test_function(flat_radius=6.0, ramp=2.0)
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
    for x in (-0.5, 0.4, 1.2):
        direct = lh.solve_at(f, t + s, x)
        staged = lh.solve_at(f_evolved, s, x)
        assert staged == pytest.approx(direct, abs=5e-4)
