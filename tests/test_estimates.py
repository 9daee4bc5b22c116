import math
from collections import Counter

import numpy as np
import pytest
from scipy import integrate as sci

import lpheat as lh
import lpheat.estimates as estimates
from lpheat import DomainError, GaussianPower, Indicator, SearchFailureError, StepCombo
from lpheat.estimates import SUITES, young_lattice_triples

# The row names and counts perfbench's verify oracle requires of each suite
# (``_SUITE_ROWS`` in perfbench/workloads.py): a new or renamed row fails
# every verify and report op there, so such a change goes with a benchmark change.
_SUITE_ROWS = {
    "kernel": {
        "kernel_norm_closed_vs_quadrature": 18,
        "kernel_deriv_norm_closed_vs_quadrature": 18,
        "semigroup_identity_residual": 3,
    },
    "young": {"young_equality_gap": 13, "young_boundary_gap": 2, "derivative_space_bound": 2, "value_space_bound": 2},
    "decay": {"compact_support_decay": 3, "zero_total_mass": 2, "sign_change_witnesses": 2, "decay_at_infinity": 2},
    "variation": {"variation_bound_at_ratio_2": 1, "variation_bound_approaches_half": 2},
}


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
        # the t-matched Gaussian extremal family saturates the derivative-space estimate
        f = lh.from_primitive(lh.GaussianPower(1.0, lh.beta_extremizer(p, q)), p)
        ratio = lh.verify_lprime_bound(f, lh.r_from(p, q), 1.0).ratio
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


def test_young_gaps_read_to_rounding():
    # F * theta_t is a multiple of the kernel, so the measured norm and the
    # bound are both closed forms: an interior gap is rounding, at most a
    # few ulps of 1, and a boundary gap is 1 - ||theta_{s+1}||_r /
    # (C ||theta_s||_p ||theta_1||_q) with s = 1 / beta, to rounding
    for tr in young_lattice_triples():
        for t in (0.25, 1.0, 4.0):
            assert abs(lh.young_equality_gap(tr.p, tr.q, t)) <= 4 * 2.0 ** -52
    for p, q, beta in ((1.0, 2.0, 1e4), (2.0, 1.0, 1e-4)):
        tr = lh.r_from(p, q)
        s = 1.0 / beta
        bound = lh.young_constant(tr) * lh.theta_norm_closed(p, s) * lh.theta_norm_closed(q, 1.0)
        exact = 1.0 - lh.theta_norm_closed(tr.r, s + 1.0) / bound
        assert lh.young_equality_gap(p, q, 1.0, beta=beta) == pytest.approx(exact, abs=4 * 2.0 ** -52)


def test_kernel_rows_still_measure_by_quadrature(monkeypatch):
    # the kernel suite checks the closed forms against combo_lp_norm's
    # quadrature of a raw Gaussian power and of its order-1 flow: 30 adaptive
    # integrals (five finite exponents, three times, two rows) and 6 sup scans
    calls = Counter()
    for name in ("_integrate", "_scan_refine_max"):
        inner = getattr(lh.lp_space, name)
        monkeypatch.setattr(lh.lp_space, name, lambda *a, _name=name, _inner=inner: calls.update([_name]) or _inner(*a))
    estimates._kernel_norm_reports(lh.DEFAULT_CONFIG)
    assert calls == {"_integrate": 30, "_scan_refine_max": 6}


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
    v_neg, v_pos = lh.solve_values(f, 1.0, [x_neg, x_pos])
    assert v_neg < -1e-10
    assert v_pos > 1e-10
    assert x_pos < 0 < x_neg  # mass flows from the left atom toward the right sink

    g = lh.dirac_difference(0.0, 1.0, p=2.0)
    xn, xp = lh.sign_change(g, 0.5, (-6.0, 6.0))
    assert xp < 0.5 < xn  # positive near the source at 0, negative near the sink at 1


@pytest.mark.parametrize(
    "f, t",
    [
        (lh.dirac_difference(-1.0, 1.0, p=2.0), 1.0),
        (lh.dirac_difference(0.0, 1.0, p=1.0), 1.0),
        (lh.from_primitive(StepCombo(((1.0, 0.0, 1.0), (-2.0, 0.5, 2.0))), 1.0), 0.25),
    ],
    ids=["dirac(-1,1)", "dirac(0,1)", "step combo"],
)
def test_sign_change_witnesses_clear_the_threshold(f, t):
    for threshold in (1e-10, 1e-3):
        x_neg, x_pos = lh.sign_change(f, t, (-8.0, 8.0), threshold=threshold)
        v_neg, v_pos = lh.solve_values(f, t, [x_neg, x_pos])
        assert v_neg < -threshold < threshold < v_pos


def test_sign_change_witnesses_of_a_symmetric_pair_are_mirror_images():
    # v_1 of delta_{-1} - delta_1 is odd, v(-x) = -v(x), so one bracket search mirrors the other
    f = lh.dirac_difference(-1.0, 1.0, p=2.0)
    x_neg, x_pos = lh.sign_change(f, 1.0, (-8.0, 8.0))
    assert x_neg == -x_pos
    v_neg, v_pos = lh.solve_values(f, 1.0, [x_neg, x_pos])
    assert v_neg == -v_pos


def test_sign_change_failure_on_zero_data():
    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 2.0)
    with pytest.raises(SearchFailureError):
        lh.sign_change(zero, 1.0, (-4.0, 4.0))


def _sup_at_plus_minus(f, t, xs):
    # max(|v_t(x)|, |v_t(-x)|) at each x
    xs = np.asarray(xs)
    return np.maximum(np.abs(lh.solve_values(f, t, xs)), np.abs(lh.solve_values(f, t, -xs))).tolist()


def test_limit_at_infinity():
    f = lh.dirac_difference(-1.0, 1.0, p=2.0)
    vals = _sup_at_plus_minus(f, 1.0, [5.0, 10.0, 20.0])
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-15
    zero = lh.from_primitive(StepCombo(((0.0, 0.0, 1.0),)), 2.0)
    assert _sup_at_plus_minus(zero, 1.0, [3.0, 6.0]) == [0.0, 0.0]


def test_limit_at_infinity_slow_tail():
    f = lh.from_primitive(lh.TailLog(2.0), 2.0)
    vals = _sup_at_plus_minus(f, 1.0, [30.0, 60.0, 120.0])
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
    value = abs(float(lh.solve_values(f, t, [3.0])[0]))
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


@pytest.mark.parametrize(
    "f, R, t, xs",
    [
        (lh.dirac_difference(-1.0, 1.0, p=1.0), 1.0, 0.25, [2.5, 3.0, 4.0, -3.5]),
        (lh.dirac_difference(0.0, 1.0, p=2.0), 1.0, 0.25, [2.0, 3.0, 5.0, -2.5]),
        (lh.from_primitive(lh.sample(np.exp(-np.linspace(-2.0, 2.0, 41) ** 2), -2.0, 0.1), 2.0), 2.0, 0.25,
         [4.0, 5.0, -4.5]),
    ],
    ids=["p=1", "p=2", "sampled"],
)
def test_decay_bound_check_makes_one_call(record_solve_values, f, R, t, xs):
    # the worst ratio over the set equals the worst of the one-point reports
    # bit for bit: a point's value does not depend on the others in the call
    per_point = max(lh.decay_bound_check(f, R, t, [x]).measured for x in xs)
    calls = record_solve_values(estimates)
    rep = lh.decay_bound_check(f, R, t, xs)
    assert calls == [(t, xs)]
    assert rep.measured == per_point
    assert rep.params["points"] == len(xs)


def test_decay_bound_check_reads_a_generator_once():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    listed = lh.decay_bound_check(f, 1.0, 0.25, [2.0, 3.0, 5.0, -2.5])
    rep = lh.decay_bound_check(f, 1.0, 0.25, (x for x in (2.0, 3.0, 5.0, -2.5)))
    assert rep.params["points"] == 4
    assert rep == listed


def test_sign_change_margin_makes_one_call(record_solve_values):
    calls = record_solve_values(estimates)
    reports = [rep for rep in SUITES["decay"](lh.DEFAULT_CONFIG) if rep.name == "sign_change_witnesses"]
    assert len(reports) == 2
    assert all(len(xs) > 1 for _, xs in calls)
    for rep, f in zip(reports, (lh.dirac_difference(-1.0, 1.0, p=1.0), lh.dirac_difference(0.0, 1.0, p=2.0))):
        x_neg, x_pos = rep.params["x_neg"], rep.params["x_pos"]
        assert calls.count((1.0, [x_neg, x_pos])) == 1
        v_neg, v_pos = (float(lh.solve_values(f, 1.0, [x])[0]) for x in (x_neg, x_pos))
        assert rep.measured == 1e-10 / max(min(-v_neg, v_pos), 1e-300)


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


@pytest.mark.parametrize(
    "a, t", [(1.0, 0.25), (1.0, 0.04), (1.0, 0.01), (1.0, 1e-4), (1.0, 0.5), (1.0, 1e6), (0.5, 2.0), (1e300, 1.0)]
)
def test_variation_lower_bound_is_the_erf_closed_form(a, t):
    (val,) = lh.variation_lower_bound(a, [t])
    assert val == 0.5 * math.erf(a / math.sqrt(t))
    # pi^{-1/2} int_0^{a / sqrt t} exp(-y^2) dy; exp(-y^2) is below 1e-300 past 27
    upper = min(a / math.sqrt(t), 40.0)
    ref = sci.quad(lambda y: math.exp(-y * y), 0.0, upper, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    assert abs(val - ref / math.sqrt(math.pi)) <= 1e-15
    if a / math.sqrt(t) == 1e300:
        assert val == 0.5


def test_variation_domain_error():
    with pytest.raises(DomainError):
        lh.variation_lower_bound(-1.0, [0.1])
    for t in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            lh.variation_lower_bound(1.0, [0.5, t])


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
    # the variation rows are exact, so no tolerance makes them fail
    reports = lh.run_suite("young", tolerance=1e-18)
    assert any(not rep.passed for rep in reports)


# rows whose bound is a theorem's: ``tolerance`` is their slack over it
_THEOREM_ROWS = {"derivative_space_bound", "value_space_bound", "compact_support_decay"}


def test_tolerance_override_by_row_kind():
    # a threshold row is measured against the override with no slack, a
    # theorem row takes it as its slack, and the sign-change witnesses keep
    # their floor; 0.0123 is no row's default threshold
    x = 0.0123
    for rep in lh.run_suite("all", tolerance=x):
        if rep.name in _THEOREM_ROWS:
            assert rep.tolerance == x, rep.name
        elif rep.name == "sign_change_witnesses":
            assert (rep.bound, rep.tolerance) == (1.0, 0.0), rep.name
        else:
            assert (rep.bound, rep.tolerance) == (x, 0.0), rep.name


def test_suite_row_set_is_frozen():
    runs = {name: lh.run_suite(name) for name in SUITES}
    assert list(runs) == list(_SUITE_ROWS)
    for name, reports in runs.items():
        assert Counter(rep.name for rep in reports) == _SUITE_ROWS[name], name
    assert lh.run_suite("all") == [rep for reports in runs.values() for rep in reports]


def test_report_fields_round_trip():
    rep = lh.run_suite("variation")[0]
    d = rep.as_dict()
    assert set(d) == {"name", "measured", "bound", "ratio", "passed", "tolerance", "params"}


def test_young_lattice_has_expected_triples():
    triples = young_lattice_triples()
    assert len(triples) == 13  # ordered (p, q) pairs with 1/p + 1/q >= 1
    for tr in triples:
        assert tr.r >= max(tr.p, tr.q) - 1e-12
