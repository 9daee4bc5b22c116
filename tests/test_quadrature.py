import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci

import lpheat as lh
from lpheat import DomainError, QuadratureAccuracyError, QuadratureConfig
from lpheat.convolve import convolve_values
from lpheat.lp_space import _window_lp_norm
from lpheat.quadrature import (
    _BLOCK_ENTRIES,
    _gk15,
    _seed_batched,
    composite_gk15,
    geometric_edges,
    integrate,
)


def test_gaussian_matches_scipy():
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    val, err = integrate(f, -10, 10)
    ref, _ = sci.quad(lambda x: math.exp(-x * x), -10, 10)
    assert abs(val - ref) < 1e-13
    assert err < 1e-10


def test_power_law_with_geometric_seed():
    f = lambda x: np.asarray(x, dtype=float) ** -4
    val, _ = integrate(f, 1.0, 1e6, points=geometric_edges(1.0, 1e6))
    assert abs(val - 1.0 / 3.0) < 1e-12


def test_kink_with_breakpoint():
    f = lambda x: np.abs(np.asarray(x) - 0.3)
    val, _ = integrate(f, 0.0, 1.0, points=[0.3])
    exact = 0.3 ** 2 / 2 + 0.7 ** 2 / 2
    assert abs(val - exact) < 1e-14


def test_jump_without_breakpoint_still_converges():
    f = lambda x: (np.asarray(x) > 0.377).astype(float)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-9, max_subdivisions=200)
    val, _ = integrate(f, 0.0, 1.0, cfg)
    assert abs(val - (1.0 - 0.377)) < 1e-9


def test_reversed_bounds_flip_sign():
    f = lambda x: np.asarray(x) ** 2
    fwd, _ = integrate(f, 0.0, 2.0)
    rev, _ = integrate(f, 2.0, 0.0)
    assert fwd == -rev
    assert abs(fwd - 8.0 / 3.0) < 1e-13


def test_degenerate_interval():
    assert integrate(lambda x: np.asarray(x), 1.0, 1.0) == (0.0, 0.0)


def test_subdivision_budget_exhaustion():
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    f = lambda x: np.sin(50.0 * np.asarray(x))
    with pytest.raises(QuadratureAccuracyError) as exc:
        integrate(f, 0.0, 10.0, cfg)
    assert exc.value.residual > 0
    assert math.isfinite(exc.value.value)


def test_nonfinite_bounds_rejected():
    with pytest.raises(DomainError):
        integrate(lambda x: np.asarray(x), 0.0, math.inf)


def test_composite_rule_on_oscillation():
    edges = [k * math.pi for k in range(0, 41)]
    val, _ = composite_gk15(lambda x: np.abs(np.sin(x)), edges)
    assert abs(val - 80.0) < 1e-10  # int |sin| = 2 per period


def test_composite_rule_one_row_unchanged():
    # values of the single-row rule before it learnt to take many rows
    edges = [k * math.pi for k in range(0, 41)]
    assert composite_gk15(lambda x: np.abs(np.sin(x)), edges) == (79.9999999999997, 7.192646478415554e-11)
    val, err = composite_gk15(lambda x: np.exp(-x) * np.cos(3 * x) / (1 + x), np.geomspace(0.1, 50.0, 23))
    assert (val, err) == (0.04963277055612541, 3.590124054592667e-11)
    assert isinstance(val, float) and isinstance(err, float)


def test_composite_rule_rejects_short_edges():
    with pytest.raises(DomainError):
        composite_gk15(lambda x: x, [1.0])
    with pytest.raises(DomainError):
        composite_gk15(lambda x: x, [[0.0], [1.0]])


_SEED_INTEGRANDS = {
    "gaussian": lambda x: np.exp(-np.asarray(x) ** 2),
    "kink": lambda x: np.abs(np.asarray(x) - 0.3) ** 1.5,
    "step": lambda x: np.where(np.asarray(x) > 0.1, 2.0, -1.0),
    "step heat flow": lambda x: convolve_values(lh.StepCombo(((1.0, -1.0, 0.5), (-2.0, 0.0, 2.0))), 0, 0.01, x),
    "step flow order 1": lambda x: convolve_values(lh.Indicator(-1.0, 1.0), 1, 0.05, x),
}


@pytest.mark.parametrize("name", sorted(_SEED_INTEGRANDS))
def test_batched_seed_panels_equal_gk15(name):
    f = _SEED_INTEGRANDS[name]
    rng = np.random.default_rng(7)
    edges = sorted(rng.uniform(-3.0, 3.0, 40).tolist())
    batched = _seed_batched(f, edges)
    assert batched == [_gk15(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def test_batched_seed_panels_span_several_blocks():
    f = _SEED_INTEGRANDS["gaussian"]
    edges = np.linspace(-4.0, 4.0, 2 * _BLOCK_ENTRIES // 15 + 3).tolist()
    calls = []
    batched = _seed_batched(lambda x: calls.append(x.size) or f(x), edges)
    assert len(calls) == 3 and max(calls) <= _BLOCK_ENTRIES
    assert batched == [_gk15(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


_NORM_CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(_SEED_INTEGRANDS)),
    points=st.lists(st.floats(-3.5, 3.5), max_size=30),
    p=st.sampled_from([1.0, 1.25, 2.0, 3.0]) | st.floats(1.0, 6.0),
    scale=st.floats(0.5, 4.0),
)
def test_window_norm_equals_integrate_bit_for_bit(name, points, p, scale):
    # the batched seed partition must not move a norm by one ulp (for
    # integrands whose value at a node does not depend on the other nodes)
    f = _SEED_INTEGRANDS[name]
    got = _window_lp_norm(f, -3.0, 3.0, p, _NORM_CFG, lambda: scale, points)
    val, _ = integrate(lambda x: np.abs(f(x) / scale) ** p, -3.0, 3.0, _NORM_CFG, points)
    assert got == scale * val ** (1.0 / p)


def test_window_norm_of_sampled_flow_within_rounding():
    # Sampled.heat_flow sums over nodes with a matrix-vector product whose
    # rounding depends on a row's place in the call, so a batched seed can
    # move its last bits; the norm stays within rounding of integrate's
    F = lh.sample(np.cos(np.linspace(-2, 2, 41)), -2.0, 0.1)
    for t, p in ((0.05, 2.0), (0.2, 1.5), (1.0, 3.0)):
        f = lambda x: convolve_values(F, 0, t, x)
        got = _window_lp_norm(f, -4.0, 4.0, p, _NORM_CFG, lambda: 1.0, F.breakpoints())
        val, _ = integrate(lambda x: np.abs(f(x)) ** p, -4.0, 4.0, _NORM_CFG, F.breakpoints())
        assert got == pytest.approx(val ** (1.0 / p), rel=1e-14, abs=0.0)


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=0)
    with pytest.raises(DomainError):
        QuadratureConfig(tail_width_sigmas=4.0)
