"""Acceptance checks.

Each test measures one advertised guarantee at its stated tolerance and
prints an ``ACCEPTANCE n ... PASS/FAIL`` line (visible with ``pytest -s``
or on failure).  Tolerances are fixed here, not tuned at run time.

The initial-data convergence check (number 5) asserts a final threshold
that closed-form analysis puts at sqrt(2 sqrt(2 t) (sqrt(2) - 1) /
sqrt(pi)) = 0.0719 at the last sweep time, above the 0.05 it demands;
the test states the requirement faithfully and records the measured
value rather than loosening the threshold.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate as sci
from scipy import optimize as sopt

import lpheat as lh
from lpheat import GaussianPower, Indicator, StepCombo
from lpheat.estimates import young_lattice_triples
from lpheat.kernel import theta_deriv_values, theta_values

ACFG = lh.QuadratureConfig(abs_tol=1e-13, rel_tol=1e-11)
# the q = 1 contraction is an equality for nonnegative data, so the sweep
# needs quadrature error well below the 1e-9 acceptance slack
SWEEP_CFG = lh.QuadratureConfig(abs_tol=1e-13, rel_tol=1e-10)

T_SWEEP_15 = [2.0 ** -k for k in range(15)]


def emit(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def sampled_bump():
    xs = np.linspace(-2.0, 2.0, 41)
    return lh.sample(np.exp(-xs ** 2), -2.0, 0.1)


def contraction_catalog():
    return [
        ("dirac(0,1) p=2", lh.dirac_difference(0.0, 1.0, p=2.0)),
        ("dirac(-1,1) p=1", lh.dirac_difference(-1.0, 1.0, p=1.0)),
        ("indicator(-3,1) p=4", lh.from_primitive(Indicator(-3.0, 1.0), 4.0)),
        (
            "step combo p=1",
            lh.from_primitive(
                StepCombo(((1.0, 0.0, 1.0), (-2.0, 0.5, 2.0), (0.5, -1.0, 0.25))), 1.0
            ),
        ),
        ("kernel power (1,1) p=2", lh.from_primitive(GaussianPower(1.0, 1.0), 2.0)),
        ("kernel power (0.5,2) p=3", lh.from_primitive(GaussianPower(0.5, 2.0), 3.0)),
        ("sampled bump p=2", lh.from_primitive(sampled_bump(), 2.0)),
    ]


def test_criterion_1_closed_norms_vs_independent_quadrature():
    start = time.monotonic()
    qs = [1.0, 1.5, 2.0, 3.0, 4.0, math.inf]
    ts = [0.01, 1.0, 100.0]
    worst = 0.0
    for q in qs:
        for t in ts:
            closed = lh.theta_norm_closed(q, t)
            closed_d = lh.theta_deriv_norm_closed(q, t)
            w = 40.0 * math.sqrt(t)
            if math.isinf(q):
                oracle = float(theta_values(0.0, t))  # even, peaked at the origin
                res = sopt.minimize_scalar(
                    lambda x: -abs(float(theta_deriv_values(x, t, 1))),
                    bounds=(0.0, 5.0 * math.sqrt(t)),
                    method="bounded",
                    options={"xatol": 1e-14},
                )
                oracle_d = -res.fun
            else:
                # peak hints and a tiny epsabs: the integrals reach 1e-11
                # scale at large t, far below scipy's default epsabs
                pk = math.sqrt(2.0 * t)
                oracle = sci.quad(
                    lambda x: theta_values(x, t) ** q,
                    -w,
                    w,
                    points=[-pk, 0.0, pk],
                    limit=200,
                    epsabs=1e-300,
                    epsrel=1e-12,
                )[0] ** (1 / q)
                oracle_d = sci.quad(
                    lambda x: abs(float(theta_deriv_values(x, t, 1))) ** q,
                    -w,
                    w,
                    points=[-pk, 0.0, pk],
                    limit=200,
                    epsabs=1e-300,
                    epsrel=1e-12,
                )[0] ** (1 / q)
            worst = max(
                worst,
                abs(closed - oracle) / oracle,
                abs(closed_d - oracle_d) / oracle_d,
            )
    elapsed = time.monotonic() - start
    ok = worst < 1e-8 and elapsed < 5.0
    emit(1, "closed-form norms vs quadrature", ok, f"worst rel dev {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_criterion_2_semigroup_identity():
    xs = np.linspace(-10.0, 10.0, 201)
    worst = 0.0
    for t, s in ((1.0, 1.0), (0.5, 0.5), (2.0, 3.0)):
        worst = max(worst, lh.semigroup_residual(t, s, xs, ACFG))
    ok = worst < 1e-10
    emit(2, "semigroup identity residual", ok, f"max residual {worst:.2e}")
    assert worst < 1e-10


def test_criterion_3_young_equality_at_extremizers():
    start = time.monotonic()
    worst = 0.0
    for tr in young_lattice_triples():
        gap = lh.young_equality_gap(tr.p, tr.q, 1.0, ACFG)
        worst = max(worst, abs(gap))
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 30.0
    emit(3, "sharp convolution equality at the Gaussian family", ok,
         f"worst |gap| {worst:.2e} over {len(young_lattice_triples())} triples, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_4_contraction_sweep():
    worst = 0.0
    worst_case = ""
    for label, f in contraction_catalog():
        base = lh.lprime_norm(f, SWEEP_CFG)
        for t in T_SWEEP_15:
            evolved = lh.solution_primitive_norm(f, t, f.p, SWEEP_CFG)
            rel = evolved / base
            if rel > worst:
                worst, worst_case = rel, f"{label} at t={t:g}"
    ok = worst <= 1.0 + 1e-9
    emit(4, "evolution is a norm contraction", ok, f"worst ratio 1 + {worst - 1.0:.2e} ({worst_case})")
    assert worst <= 1.0 + 1e-9


def test_criterion_5_initial_condition_convergence():
    f = lh.dirac_difference(0.0, 1.0, p=2.0)
    ts = [2.0 ** -k for k in range(1, 15)]
    norms = lh.ic_convergence(f, ts, SWEEP_CFG)
    decreasing = all(b < a for a, b in zip(norms, norms[1:]))

    # the pairing scales linearly in t, so at t = 2^-14 it sits near 1e-4
    weak = lh.weak_ic_check(f, lh.gaussian_test_function(), [2.0 ** -k for k in (6, 10, 14)], SWEEP_CFG)
    mags = [abs(v) for v in weak]
    weak_ok = mags[0] > mags[1] > mags[2] and mags[-1] < 1e-3

    final = norms[-1]
    ok = decreasing and weak_ok and final < 0.05
    emit(5, "initial data attained in norm", ok,
         f"strictly decreasing={decreasing}, weak pairing -> {weak[-1]:.2e}, final norm {final:.6f}")
    assert decreasing
    assert weak_ok
    # closed-form cross-check of the final value: sqrt(2 sqrt(2t) (sqrt2 - 1)/sqrt(pi));
    # the box's two edges interact only through terms below exp(-4096) at
    # t = 2^-14, so this is the exact 0.071860825373235261648 to every digit
    predicted = math.sqrt(2.0 * math.sqrt(2.0 * ts[-1]) * (math.sqrt(2.0) - 1.0) / math.sqrt(math.pi))
    assert final == pytest.approx(predicted, rel=1e-14)
    assert final < 0.05


def _observed_orders(f, x, t, hs, cfg):
    residuals = [abs(lh.pde_residual(f, x, t, h, h, cfg)) for h in hs]
    return [math.log2(a / b) for a, b in zip(residuals, residuals[1:])], residuals


def test_criterion_6_pde_residual_second_order():
    hs = [0.08, 0.04, 0.02, 0.01]
    f_atoms = lh.dirac_difference(-1.0, 1.0, p=2.0)
    orders_a, _ = _observed_orders(f_atoms, 0.5, 1.0, hs, ACFG)
    f_step = lh.LprimeElement(Indicator(0.0, 1.0), 2.0)
    orders_b, _ = _observed_orders(f_step, 0.3, 0.5, hs, ACFG)
    # sampled data has no closed form, so this datum runs the quadrature route
    f_quad = lh.from_primitive(sampled_bump(), 2.0)
    orders_c, _ = _observed_orders(f_quad, 0.3, 0.5, hs, ACFG)
    all_orders = orders_a + orders_b + orders_c
    ok = all(1.8 <= o <= 2.2 for o in all_orders)
    emit(6, "heat operator residual decays at second order", ok,
         f"orders {['%.3f' % o for o in all_orders]}")
    for o in all_orders:
        assert 1.8 <= o <= 2.2


def test_criterion_7_variation_lower_bound():
    vals = lh.variation_lower_bound(1.0, [0.25, 0.01, 1e-4])
    dev = abs(vals[0] - 0.4976611325094764)  # erf(2)/2
    tail_ok = vals[1] > 0.499 and vals[2] > 0.499
    ok = dev < 1e-9 and tail_ok
    emit(7, "variation lower bound", ok, f"|dev at ratio 2| {dev:.2e}, beyond ratio 10: {vals[1]:.6f}")
    assert dev < 1e-9
    assert tail_ok


def test_criterion_8_structural_properties():
    compact = [
        ("dirac(0,1) p=1", lh.dirac_difference(0.0, 1.0, p=1.0), 1.0),
        ("dirac(-1,1) p=2", lh.dirac_difference(-1.0, 1.0, p=2.0), 1.0),
        (
            "step combo p=1",
            lh.from_primitive(
                StepCombo(((1.0, 0.0, 1.0), (-2.0, 0.5, 2.0), (0.5, -1.0, 0.25))), 1.0
            ),
            2.0,
        ),
        ("indicator(-3,1) p=4", lh.from_primitive(Indicator(-3.0, 1.0), 4.0), 3.0),
        ("sampled bump p=2", lh.from_primitive(sampled_bump(), 2.0), 2.0),
    ]
    t = 0.25
    details = []
    ok = True
    for label, f, R in compact:
        z = abs(lh.zero_integral(f, t, ACFG))
        ok = ok and z < 1e-8
        x_neg, x_pos = lh.sign_change(f, t, (-8.0, 8.0), ACFG)
        v_neg, v_pos = lh.solve_values(f, t, [x_neg, x_pos], ACFG)
        ok = ok and v_neg < 0 < v_pos
        if f.p == 1.0:
            xs = [R + math.sqrt(2 * t) + d for d in (0.0, 0.5, 1.5)]
            xs += [-x for x in xs]
        else:
            xs = [2 * R, 2 * R + 1.0, -(2 * R + 0.5)]
        rep = lh.decay_bound_check(f, R, t, xs, ACFG, tolerance=1e-6)
        ok = ok and rep.passed
        details.append(f"{label}: mass {z:.1e}, decay ratio {rep.measured:.3f}")
    emit(8, "zero mass, sign change, pointwise decay", ok, "; ".join(details))
    assert ok


def test_criterion_9_constructive_sharpness_shadows():
    # rate shadow: the normalized extremal family stays bounded away from zero
    tr = lh.r_from(2.0, 1.5)
    rates = lh.rate_sharpness(tr, [2.0 ** -k for k in range(0, 11, 2)], SWEEP_CFG)
    rate_ok = min(rates) > 0.25 and max(rates) / min(rates) < 1.0 + 1e-6

    # boundary family saturates the value-space bound in the point-mass
    # limit; theta_t^beta is a multiple of theta_{t/beta}, so narrow
    # normalized kernels represent the large powers exactly
    f_big = lh.from_primitive(GaussianPower(1e-3, 1.0), 1.0)
    rep = lh.verify_lr_bound(f_big, lh.r_from(1.0, 2.0), 1.0, SWEEP_CFG)
    boundary_ok = rep.passed and rep.ratio > 0.999

    # divergence shadow below the data exponent
    ev = lh.nonmembership_probe(2.0, 1.0, 1.0, [math.e ** 5, math.e ** 6], SWEEP_CFG, doublings=9)
    ratio_ok = abs(ev.ratios[-1] - 0.5) < 0.1
    incs = np.diff([0.0] + ev.partial_powers)
    growth_ok = bool(np.all(incs > 0) and incs[-1] > 1.2 * incs[2])

    ok = rate_ok and boundary_ok and ratio_ok and growth_ok
    emit(9, "sharpness and divergence by constructive families", ok,
         f"rate floor {min(rates):.4f}, boundary ratio {rep.ratio:.6f}, "
         f"tail ratio {ev.ratios[-1]:.3f}, growth {incs[-1]/incs[2]:.2f}x")
    assert rate_ok
    assert boundary_ok
    assert ratio_ok
    assert growth_ok
