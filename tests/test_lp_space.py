import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci
from scipy import optimize as sopt

import lpheat as lh
from lpheat import (
    DomainError,
    GaussianPower,
    GridFunction,
    Indicator,
    MembershipError,
    Sampled,
    StepCombo,
    TailLog,
    TruncatedSine,
)
from lpheat.quadrature import geometric_edges
from lpheat.quadrature import integrate as gk_integrate


def test_evaluate_examples():
    assert lh.evaluate(Indicator(0, 1), 0.5) == 1.0
    assert lh.evaluate(Indicator(0, 1), 1.5) == 0.0
    assert lh.evaluate(TailLog(2.0), math.e) == pytest.approx(0.6065306597126334, rel=1e-14)
    assert lh.evaluate(TailLog(2.0), 1.0) == 0.0
    assert lh.evaluate(GaussianPower(1.0, 1.0), 0.0) == pytest.approx(
        0.2820947917738781, rel=1e-14
    )
    with pytest.raises(DomainError):
        lh.evaluate(Indicator(0, 1), math.inf)


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
    with pytest.raises(DomainError):
        GridFunction(0.0, 0.0, (1.0, 2.0))
    with pytest.raises(DomainError):
        GridFunction(0.0, 1.0, (1.0,))


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


def test_sampled_norm_trapezoid():
    xs = np.linspace(-1, 1, 201)
    hat = np.clip(1 - np.abs(xs), 0, None)
    F = lh.sample(hat, -1.0, 0.01)
    assert lh.lp_norm(F, 1.0) == pytest.approx(1.0, rel=1e-12)  # trapezoid exact for p=1
    assert lh.lp_norm(F, 2.0) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-4)
    assert lh.lp_norm(F, math.inf) == 1.0


def test_sampled_evaluate_interpolates_and_vanishes_outside():
    F = lh.sample([0.0, 2.0, 0.0], -1.0, 1.0)
    assert lh.evaluate(F, 0.5) == 1.0
    assert lh.evaluate(F, 5.0) == 0.0


@given(c=st.floats(-8.0, 8.0, allow_nan=False).filter(lambda v: abs(v) > 1e-3))
@settings(max_examples=60, deadline=None)
def test_norm_scaling(c):
    base = StepCombo(((1.0, 0.0, 1.0), (0.5, 0.25, 2.0)))
    scaled = StepCombo(tuple((c * h, a, b) for h, a, b in base.steps))
    assert lh.lp_norm(scaled, 3.0) == pytest.approx(abs(c) * lh.lp_norm(base, 3.0), rel=1e-12)


@pytest.mark.parametrize("h", [-3.0, 0.7, 12.5])
def test_translation_invariance(h):
    for F in (Indicator(0, 1), StepCombo(((2.0, -1.0, 0.5), (-1.0, 0.0, 2.0)))):
        assert lh.lp_norm(lh.translate(F, h), 2.0) == pytest.approx(
            lh.lp_norm(F, 2.0), rel=1e-12
        )
    S = lh.sample([0.0, 1.0, 0.5, 0.0], 0.0, 0.5)
    assert lh.lp_norm(lh.translate(S, h), 2.0) == lh.lp_norm(S, 2.0)
    with pytest.raises(DomainError):
        lh.translate(GaussianPower(1.0, 1.0), h)


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


def test_antiderivative():
    g = Indicator(0.0, 1.0)
    assert lh.antiderivative(g, 2.0) == pytest.approx(1.0, rel=1e-13)
    assert lh.antiderivative(g, 0.25) == pytest.approx(0.25, rel=1e-13)
    assert lh.antiderivative(g, 0.0) == 0.0
    assert lh.antiderivative(g, -3.0) == 0.0
    # half of the unit kernel mass sits right of the origin
    assert lh.antiderivative(GaussianPower(1.0, 1.0), 40.0) == pytest.approx(0.5, abs=1e-12)
    assert lh.antiderivative(GaussianPower(1.0, 1.0), -40.0) == pytest.approx(-0.5, abs=1e-12)


def test_json_round_trip():
    variants = [
        Indicator(-1.0, 2.0),
        StepCombo(((1.0, 0.0, 1.0), (-0.5, 0.5, 3.0))),
        GaussianPower(0.5, 2.0),
        TailLog(2.0),
        TruncatedSine(3.0),
        lh.sample([0.0, 1.0, 0.0], -1.0, 1.0),
    ]
    for F in variants:
        back = lh.primitive_from_json(lh.primitive_to_json(F))
        assert back == F
    with pytest.raises(DomainError):
        lh.primitive_from_json({"type": "nope"})
    with pytest.raises(DomainError):
        lh.primitive_from_json({"type": "indicator", "a": 0.0})
    with pytest.raises(DomainError):
        lh.primitive_from_json([1, 2, 3])
