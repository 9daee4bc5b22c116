import math

import numpy as np
import pytest

import lpheat as lh
from lpheat import DomainError, GaussianPower, Indicator, SearchFailureError, StepCombo
from lpheat.estimates import young_lattice_triples


def test_lprime_bound_reduces_to_contraction_at_q1():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    tr = lh.r_from(2.0, 1.0)
    rep = lh.verify_lprime_bound(f, tr, 0.3)
    assert rep.passed
    assert rep.bound == pytest.approx(lh.lprime_norm(f), rel=1e-9)
    assert rep.ratio < 1.0


def test_lprime_bound_zero_data():
    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 2.0)
    rep = lh.verify_lprime_bound(zero, lh.r_from(2.0, 1.0), 0.5)
    assert rep.passed and rep.measured == 0.0


def test_bounds_on_sampled_data_at_relaxed_tolerance():
    xs = np.linspace(-2.0, 2.0, 81)
    f = lh.from_primitive(lh.sample(np.exp(-xs ** 2), -2.0, 0.05), 2.0)
    for q in (1.0, 1.5):
        tr = lh.r_from(2.0, q)
        assert lh.verify_lprime_bound(f, tr, 0.5, tolerance=1e-3).passed
        assert lh.verify_lr_bound(f, tr, 0.5, tolerance=1e-3).passed


def test_extremal_family_saturates_bound():
    for p, q in ((2.0, 4.0 / 3.0), (1.5, 1.5), (1.25, 2.0)):
        ratio = lh.extremal_family_ratio(lh.r_from(p, q), 1.0)
        assert ratio == pytest.approx(1.0, abs=1e-7)


def test_lr_bound_dirac_example():
    f = lh.dirac_difference(-1.0, 1.0, p=1.0)
    tr = lh.r_from(1.0, 2.0)
    rep = lh.verify_lr_bound(f, tr, 1.0)
    assert rep.passed
    # frozen value of || theta_1(.+1) - theta_1(.-1) ||_2
    assert rep.measured == pytest.approx(0.3961963602587602, rel=1e-8)
    assert rep.ratio < 1.0


def test_lr_bound_sharpens_with_large_beta():
    # the q = r bound saturates as the data sharpens toward a point mass;
    # theta_t^beta is a multiple of theta_{t/beta}, so the normalized
    # narrow kernels stand in for the large powers
    tr = lh.r_from(1.0, 2.0)
    ratios = []
    for beta in (10.0, 1e3):
        f = lh.from_primitive(GaussianPower(1.0 / beta, 1.0), 1.0)
        rep = lh.verify_lr_bound(f, tr, 1.0)
        ratios.append(rep.ratio)
        assert rep.passed
    assert ratios[1] > ratios[0]
    assert ratios[1] > 0.999


def test_young_gap_interior():
    assert abs(lh.young_equality_gap(2.0, 4.0 / 3.0, 1.0)) < 1e-6
    assert abs(lh.young_equality_gap(1.5, 1.5, 1.0)) < 1e-6


def test_young_gap_interior_across_lattice_times():
    # the identity is scale free; spot check a couple of other times
    assert abs(lh.young_equality_gap(1.25, 2.0, 0.25)) < 1e-6
    assert abs(lh.young_equality_gap(2.0, 2.0, 4.0)) < 1e-6


def test_young_gap_boundary_protocols():
    with pytest.raises(DomainError):
        lh.young_equality_gap(1.0, 2.0, 1.0)
    g1 = lh.young_equality_gap(1.0, 2.0, 1.0, beta=1e4)
    g2 = lh.young_equality_gap(1.0, 2.0, 1.0, beta=1e5)
    assert 0 <= g1 < 1e-2
    assert g2 < g1
    g3 = lh.young_equality_gap(2.0, 1.0, 1.0, beta=1e-4)
    assert 0 <= g3 < 1e-2


def test_zero_integral():
    f = lh.dirac_difference(-1.0, 1.0, p=2.0)
    assert abs(lh.zero_integral(f, 1.0)) < 1e-10
    g = lh.LprimeElement(Indicator(0.0, 1.0), 2.0)
    assert abs(lh.zero_integral(g, 0.3)) < 1e-8
    # non-step data keeps the quadrature route
    h = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    assert abs(lh.zero_integral(h, 0.3)) < 1e-8
    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 2.0)
    assert lh.zero_integral(zero, 0.5) == 0.0


def test_sign_change_witnesses():
    f = lh.dirac_difference(-1.0, 1.0, p=2.0)
    x_neg, x_pos = lh.sign_change(f, 1.0, (-8.0, 8.0))
    assert lh.solve_at(f, 1.0, x_neg) < -1e-10
    assert lh.solve_at(f, 1.0, x_pos) > 1e-10
    assert x_pos < 0 < x_neg  # mass flows from the left atom toward the right sink

    g = lh.dirac_difference(0.0, 1.0, p=2.0)
    xn, xp = lh.sign_change(g, 0.5, (-6.0, 6.0))
    assert xp < 0.5 < xn  # positive near the source at 0, negative near the sink at 1


def test_sign_change_failure_on_zero_data():
    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 2.0)
    with pytest.raises(SearchFailureError):
        lh.sign_change(zero, 1.0, (-4.0, 4.0))


def test_limit_at_infinity():
    f = lh.dirac_difference(-1.0, 1.0, p=2.0)
    vals = lh.limit_at_infinity(f, 1.0, [5.0, 10.0, 20.0])
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-15
    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 2.0)
    assert lh.limit_at_infinity(zero, 1.0, [3.0, 6.0]) == [0.0, 0.0]


def test_limit_at_infinity_slow_tail():
    f = lh.from_primitive(lh.TailLog(2.0), 2.0)
    vals = lh.limit_at_infinity(f, 1.0, [30.0, 60.0, 120.0])
    assert vals[0] > vals[1] > vals[2] > 0


def test_decay_bound_branches():
    f1 = lh.dirac_difference(0.0, 1.0, p=1.0)
    rep1 = lh.decay_bound_check(f1, 1.0, 0.25, [3.0, 4.0, -2.0], tolerance=1e-6)
    assert rep1.passed and rep1.measured <= 1.0

    f2 = lh.dirac_difference(0.0, 1.0, p=2.0)
    rep2 = lh.decay_bound_check(f2, 1.0, 0.25, [4.0, 2.5, -3.0], tolerance=1e-6)
    assert rep2.passed

    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 1.0)
    rep0 = lh.decay_bound_check(zero, 1.0, 0.25, [3.0])
    assert rep0.passed and rep0.measured == 0.0


def test_decay_bound_spot_value():
    # p = 1 branch at x = 3, t = 1/4: explicit kernel arithmetic on both sides
    f = lh.dirac_difference(0.0, 1.0, p=1.0)
    t = 0.25
    value = abs(lh.solve_at(f, t, 3.0))
    assert value == pytest.approx(0.0102638661510727, rel=1e-10)
    bound = lh.M_const(1.0) * 1.0 * 3.0 * math.exp(-((3.0 - 1.0) ** 2) / (4 * t)) * t ** -1.5
    assert value <= bound


def test_decay_bound_preconditions():
    f = lh.dirac_difference(0.0, 1.0, p=1.0)
    with pytest.raises(DomainError):
        lh.decay_bound_check(f, 1.0, 0.25, [1.2])  # inside R + sqrt(2t)
    with pytest.raises(DomainError):
        lh.decay_bound_check(f, 0.5, 0.25, [3.0])  # support escapes [-R, R]
    fg = lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)
    with pytest.raises(DomainError):
        lh.decay_bound_check(fg, 1.0, 0.25, [3.0])  # not compactly supported


def test_variation_lower_bound_values():
    vals = lh.variation_lower_bound(1.0, [0.25, 1e-2, 1e-4])
    # a / sqrt(t) = 2, 10, 100; the last two coincide at double precision
    assert vals[0] == pytest.approx(0.4976611325094764, rel=1e-9)
    assert vals[1] > 0.499
    assert vals[2] > 0.499
    assert vals[0] < vals[1] <= vals[2] <= 0.5


def test_variation_lower_bound_vanishes_for_large_t():
    vals = lh.variation_lower_bound(1.0, [1e6])
    assert vals[0] < 1e-3


def test_variation_domain_error():
    with pytest.raises(DomainError):
        lh.variation_lower_bound(-1.0, [0.1])


def test_nonmembership_probe():
    ev = lh.nonmembership_probe(2.0, 1.0, 1.0, [math.e ** 4, math.e ** 5, math.e ** 6], doublings=9)
    assert abs(ev.ratios[-1] - 0.5) < 0.1
    incs = np.diff([0.0] + ev.partial_powers)
    assert np.all(incs > 0)
    # increments keep growing: clear escape from any fixed cap
    assert incs[-1] > 1.2 * incs[2]
    assert ev.partial_powers[-1] > 3.0 * ev.partial_powers[0]


def test_nonmembership_probe_guards():
    with pytest.raises(DomainError):
        lh.nonmembership_probe(2.0, 2.0, 1.0, [100.0])
    with pytest.raises(DomainError):
        lh.nonmembership_probe(2.0, 1.0, 1.0, [3.0])  # too close to the support edge


def test_rate_sharpness_constant_and_positive():
    tr = lh.r_from(2.0, 1.5)
    ts = [1.0, 0.25, 0.0625, 2.0 ** -8]
    vals = lh.rate_sharpness(tr, ts)
    for v in vals:
        assert v == pytest.approx(0.5032464877156107, rel=1e-7)
    assert min(vals) > 0.25


def test_run_suite_variation_and_errors():
    reports = lh.run_suite("variation")
    assert reports and all(rep.passed for rep in reports)
    with pytest.raises(DomainError):
        lh.run_suite("nonsense")


def test_run_suite_tolerance_override_forces_failure():
    reports = lh.run_suite("variation", tolerance=1e-18)
    assert any(not rep.passed for rep in reports)


def test_report_fields_round_trip():
    rep = lh.run_suite("variation")[0]
    d = rep.as_dict()
    assert set(d) == {"name", "measured", "bound", "ratio", "passed", "tolerance", "params"}


def test_young_lattice_has_expected_triples():
    triples = young_lattice_triples()
    assert len(triples) == 13  # ordered (p, q) pairs with 1/p + 1/q >= 1
    for tr in triples:
        assert tr.r >= max(tr.p, tr.q) - 1e-12
