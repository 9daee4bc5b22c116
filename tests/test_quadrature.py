import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci

import lpheat as lh
from lpheat import DomainError, QuadratureAccuracyError, QuadratureConfig
from lpheat import convolve, quadrature
from lpheat.convolve import convolve_values
from lpheat.convolve import Heated
from lpheat.quadrature import (
    _BLOCK_ENTRIES,
    _gk15,
    _integrate,
    _panels,
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


def test_unconverged_panel_at_the_width_floor_raises():
    # bisection walks into the singularity (not passed as a point) until the
    # panel is 64 eps wide, and that panel's error is still above tolerance;
    # accepting it returned 2.5752060795604 with an error estimate of 2.2e-10,
    # 1.4e-8 from the true 2 (sqrt(c) + sqrt(1 - c))
    c = 0.123456789
    with pytest.raises(QuadratureAccuracyError, match="floating-point resolution") as exc:
        integrate(lambda x: 1.0 / np.sqrt(np.abs(np.asarray(x) - c)), 0.0, 1.0)
    assert exc.value.value == pytest.approx(2.0 * (math.sqrt(c) + math.sqrt(1.0 - c)), rel=1e-7)


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
    batched = _panels(f, edges[:-1], edges[1:])
    assert batched == [_gk15(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def test_batched_seed_panels_span_several_blocks():
    f = _SEED_INTEGRANDS["gaussian"]
    edges = np.linspace(-4.0, 4.0, 2 * _BLOCK_ENTRIES // 15 + 3).tolist()
    calls = []
    batched = _panels(lambda x: calls.append(x.size) or f(x), edges[:-1], edges[1:])
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
def test_batched_seeds_equal_integrate_bit_for_bit(name, points, p, scale):
    # the norms' batched seed partition must not move an integral by one ulp
    # (for integrands whose value at a node does not depend on the other nodes)
    f = _SEED_INTEGRANDS[name]

    def g(x):
        return np.abs(f(x) / scale) ** p

    assert _integrate(g, -3.0, 3.0, _NORM_CFG, points, _panels) == integrate(g, -3.0, 3.0, _NORM_CFG, points)


def test_combo_norm_of_sampled_flow_equals_integrate_bit_for_bit():
    # Sampled.heat_flow reduces each point's row on its own, so a point's
    # flow does not depend on the nodes batched with it: the norm is
    # integrate's over the same scale and seeds, bit for bit (p = 2 takes
    # the energy identity and no quadrature, so the exponents avoid it)
    F = lh.sample(np.cos(np.linspace(-2, 2, 41)), -2.0, 0.1)
    for t, p in ((0.05, 2.5), (0.2, 1.5), (1.0, 3.0)):
        H = Heated(F, t, 0, _NORM_CFG)
        lo, hi = H.effective_support(_NORM_CFG)
        scan = np.linspace(lo, hi, 33)
        s = float(np.max(np.abs(H.values(scan))))
        seeds = list(H.breakpoints()) + list(scan[1:-1])
        val, _ = integrate(lambda x: np.abs(H.values(x) / s) ** p, lo, hi, _NORM_CFG, seeds)
        assert lh.combo_lp_norm([(1.0, H)], p, _NORM_CFG) == s * val ** (1.0 / p)


def _reference_integrate(f, a, b, cfg=lh.DEFAULT_CONFIG, points=()):
    """The serial bisection with no evaluation ahead: one ``_gk15`` call per
    seed panel and two per split.  ``integrate`` must replay it exactly."""
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    edges = [a] + [p for p in sorted(set(float(p) for p in points)) if a < p < b] + [b]
    total = total_err = 0.0
    heap = []
    tie = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, tie, lo, hi, val, err))
        tie += 1
    splits = 0
    width_floor = 64 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if splits >= cfg.max_subdivisions:
            if total_err <= 64 * np.finfo(float).eps * sum(abs(item[4]) for item in heap):
                break
            raise QuadratureAccuracyError("budget", value=sign * total, residual=total_err)
        _, _, lo, hi, val, err = heapq.heappop(heap)
        if hi - lo < width_floor:
            if err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
                raise QuadratureAccuracyError("floor", value=sign * total, residual=total_err)
            total_err -= err
            continue
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, tie, lo, mid, v1, e1))
        tie += 1
        heapq.heappush(heap, (-e2, tie, mid, hi, v2, e2))
        tie += 1
        splits += 1
    return sign * total, total_err


def _outcome(run):
    """repr of ``(value, error)``, or of the budget error's value and
    residual, so equal outcomes are equal to the bit (and to the sign of 0)."""
    try:
        return repr(run())
    except QuadratureAccuracyError as exc:
        return repr(("budget", exc.value, exc.residual))


def _replay_integrand(kind, c, width):
    if kind == "kink":
        return lambda x: np.abs(np.asarray(x) - c) ** 1.5
    if kind == "jump":  # never passed as a point, so bisection runs into the width floor
        return lambda x: np.where(np.asarray(x) > c, 1.0, -0.5)
    if kind == "narrow gaussian":
        return lambda x: np.exp(-(((np.asarray(x) - c) / width) ** 2))
    return lambda x: np.sin(np.asarray(x) / width)  # oscillation, to exhaust small budgets


_REPLAY_CASES = dict(
    kind=st.sampled_from(["kink", "jump", "narrow gaussian", "oscillation"]),
    c=st.floats(-2.0, 2.0),
    width=st.floats(1e-3, 1.0),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    points=st.lists(st.floats(-3.5, 3.5), max_size=6),
    tol=st.sampled_from([1e-6, 1e-10, 1e-14]),
    budget=st.sampled_from([2, 8, 40, 512]),
)


@settings(max_examples=80, deadline=None)
@given(**_REPLAY_CASES)
def test_integrate_replays_serial_bisection(kind, c, width, a, b, points, tol, budget):
    f = _replay_integrand(kind, c, width)
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=tol, max_subdivisions=budget)
    got = _outcome(lambda: integrate(f, a, b, cfg, points))
    assert got == _outcome(lambda: _reference_integrate(f, a, b, cfg, points))


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([1.0, 2.0]) | st.floats(1.0, 5.0), scale=st.floats(0.5, 4.0), **_REPLAY_CASES)
def test_batched_seeds_replay_serial_bisection(kind, c, width, a, b, points, tol, budget, p, scale):
    f = _replay_integrand(kind, c, width)
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=tol, max_subdivisions=budget)
    lo, hi = min(a, b), max(a, b)

    def g(x):
        return np.abs(f(x) / scale) ** p

    got = _outcome(lambda: _integrate(g, lo, hi, cfg, points, _panels))
    assert got == _outcome(lambda: _reference_integrate(g, lo, hi, cfg, points))


_SLOW_TAIL_POINTS = [  # (F, n, t, x, integrand calls); the loop without quarters took 5, 6 and 6
    pytest.param(*case, id="-".join(map(str, case[:4])))
    for case in [
        (lh.TailLog(1.5), 1, 0.01, 5.0, 3),
        (lh.TailLog(3.0), 0, 0.01, 5.0, 3),
        (lh.TruncatedSine(2.0), 1, 2.0, 10.0, 5),
    ]
]


def _lookahead_halves(los, his):
    """Of the panels whose halves one ``_panels`` call evaluates (consecutive
    node pairs of ``los``/``his``), the number that are themselves a half
    of another panel in the call: each brings two quarters, evaluated ahead."""
    parents = list(zip(los[::2], his[1::2]))
    halves = set(zip(los, his))
    return sum(panel in halves for panel in parents)


@pytest.mark.parametrize("F, n, t, x, max_calls", _SLOW_TAIL_POINTS)
def test_convolve_point_splits_in_fewer_calls(monkeypatch, F, n, t, x, max_calls):
    # the halves a point's bisection must split are evaluated ahead in one
    # call per round, and the quarters of a panel whose error is over
    # 2^15 stopping limits with them; the only nodes the serial loop does
    # not take are those of quarters it never splits
    def run(integrator):
        calls, ahead = [], []
        kernel, panels = convolve.theta_deriv_values, quadrature._panels
        monkeypatch.setattr(convolve, "integrate", integrator)
        monkeypatch.setattr(convolve, "theta_deriv_values", lambda u, t, n: calls.append(np.size(u)) or kernel(u, t, n))
        monkeypatch.setattr(quadrature, "_panels", lambda f, lo, hi: ahead.append(_lookahead_halves(lo, hi)) or panels(f, lo, hi))
        value = convolve.convolve_point(F, n, t, x)
        monkeypatch.undo()
        return value, len(calls), sum(calls), sum(ahead)

    value, calls, nodes, ahead = run(integrate)
    ref_value, ref_calls, ref_nodes, _ = run(_reference_integrate)
    assert value == ref_value
    assert ref_nodes <= nodes <= ref_nodes + 2 * 15 * ahead
    assert calls <= max_calls < ref_calls


def test_slow_tail_points_take_few_integrand_calls(monkeypatch):
    # a counter guard for the look-ahead: the mean number of integrand calls
    # per slow-tail point was 5.30 with halves alone and is 3.41 with quarters
    calls = []
    kernel = convolve.theta_deriv_values
    monkeypatch.setattr(convolve, "theta_deriv_values", lambda u, t, n: calls.append(1) or kernel(u, t, n))
    xs = np.linspace(2.0, 20.0, 61)
    points = 0
    for F in (lh.TailLog(2.0), lh.TruncatedSine(1.5)):
        for n in (0, 1):
            for t in (0.01, 0.1, 1.0):
                for x in xs:
                    convolve.convolve_point(F, n, t, float(x))
                    points += 1
    assert len(calls) / points <= 3.41


def test_nested_outer_integral_does_not_evaluate_ahead(monkeypatch):
    # each node of the probe's outer integral costs an adaptive integral, so
    # the outer bisection must take exactly the inner points of the loop
    # without quarters: 5,355 over these 27 settings
    inner = []
    point = convolve.convolve_point
    monkeypatch.setattr(convolve, "convolve_point", lambda *a: inner.append(1) or point(*a))
    for p in (1.5, 2.0, 3.0):
        for doublings in (6, 7, 8):
            for t in (0.5, 1.0, 2.0):
                lh.nonmembership_probe(p, 1.0, t, [math.e**5, math.e**6], lh.DEFAULT_CONFIG, doublings=doublings)
    assert len(inner) == 5355


def test_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=0)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
def test_config_refuses_non_finite_tolerances(field, value):
    # an infinite abs_tol made a slow tail's window a bare "math domain
    # error" and let integrate stop after its seed panels
    with pytest.raises(DomainError, match="positive and finite"):
        QuadratureConfig(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5], ids=["nan", "inf", "2.5"])
def test_config_refuses_a_budget_that_is_no_integer(value):
    # _integrate stops on splits >= max_subdivisions, which NaN never meets,
    # so a hard integral would bisect to float width instead of raising
    with pytest.raises(DomainError, match="max_subdivisions must be an integer"):
        QuadratureConfig(max_subdivisions=value)
    assert QuadratureConfig(max_subdivisions=np.int64(3)).max_subdivisions == 3
