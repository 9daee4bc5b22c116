"""Step data and sampled grids are one piecewise-linear model (knots with
left and right limits, linear between them).  The references here are
per-variant forms: the step jump sum at every order and the step norm,
sup and atoms, which the model must reproduce bit for bit, and the
mirrored sampled flow at order 0, which it must reproduce to rounding."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpheat as lh
from lpheat import Indicator, StepCombo
from lpheat.kernel import MAX_DERIV_ORDER, _erfc, _exp_neg_square, theta_deriv_values

_EPS = 2.0 ** -52
_SQRT_PI = math.sqrt(math.pi)


def _levels(F):
    """(lo, hi, value) per cell: each step adds its height to the cells
    between its edges, one step at a time in step order."""
    cuts = sorted({c for _, a, b in F.steps for c in (a, b)})
    heights, starts, ends = zip(*F.steps)
    first, last = np.searchsorted(cuts, (starts, ends)).tolist()
    vals = np.zeros(len(cuts) - 1)
    for h, i, j in zip(heights, first, last):
        vals[i:j] += h
    return list(zip(cuts[:-1], cuts[1:], vals.tolist()))


def _jumps(F):
    out = {}
    for h, a, b in F.steps:
        out[a] = out.get(a, 0.0) + h
        out[b] = out.get(b, 0.0) - h
    return {loc: j for loc, j in sorted(out.items()) if j != 0.0}


def _step_flow(F, t, xs, order):
    """The step jump sum: level plus signed erfc tails at n = 0,
    sum_j w_j theta_t^(n-1)(x - a_j) above it, jumps added in jump order."""
    jumps = _jumps(F)
    shifts = np.asarray(list(jumps), dtype=float)[:, None]
    root_t = math.sqrt(t)
    edge = 1e3 * root_t
    out = np.zeros(xs.shape)
    if order == 0:
        for h, a, b in F.steps:
            out += h * ((xs >= a) & (xs < b))
        terms = np.where(xs >= shifts, -0.5, 0.5) * _erfc(np.abs(xs - shifts) / (2.0 * root_t))
    else:
        terms = theta_deriv_values(np.clip(xs - shifts, -edge, edge), t, order - 1)
    for j, loc in enumerate(jumps):
        out += jumps[loc] * terms[j]
    return out


def _step_norm(F, p):
    levels = _levels(F)
    peak = max(abs(v) for _, _, v in levels)
    if peak == 0.0:
        return 0.0
    return peak * math.fsum(abs(v / peak) ** p * (hi - lo) for lo, hi, v in levels) ** (1.0 / p)


def _sampled_flow(F, t, xs):
    """y_0 H(x - x_0) - y_N H(x - x_N) + sum_i k_i (x - x_i)_+ smoothed, in
    the mirrored form right of the grid's midpoint."""
    y = np.asarray(F.samples)
    nodes = F.x0 + F.dx * np.arange(y.size)
    kinks = np.diff(np.diff(y) / F.dx, prepend=0.0, append=0.0)
    side = np.where(xs <= 0.5 * (nodes[0] + nodes[-1]), 1.0, -1.0)
    root_t = math.sqrt(t)
    w = side[:, None] * (nodes - xs[:, None]) / (2.0 * root_t)
    erfc_w = _erfc(w)
    ramp = root_t * (_exp_neg_square(w) / _SQRT_PI - w * erfc_w)
    return 0.5 * side * (y[0] * erfc_w[:, 0] - y[-1] * erfc_w[:, -1]) + (ramp * kinks).sum(axis=1)


# edges on a coarse shared grid, so steps overlap, abut and cancel at an
# edge, and free ones; heights that cancel exactly and inexactly
_EDGE = st.integers(-12, 12).map(lambda k: k * 0.25) | st.floats(-3.0, 3.0, allow_subnormal=False)
_HEIGHT = st.sampled_from([1.0, -1.0, 0.1, 0.2, -0.3, 2.5]) | st.floats(-3.0, 3.0, allow_subnormal=False)


@st.composite
def step_data(draw):
    if draw(st.booleans()):
        a = draw(_EDGE)
        return Indicator(a, a + draw(st.sampled_from([0.25, 1.0]) | st.floats(1e-3, 4.0)))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        a, b = sorted((draw(_EDGE), draw(_EDGE)))
        if a < b:
            steps.append((draw(_HEIGHT), a, b))
    return StepCombo(tuple(steps) or ((1.0, 0.0, 1.0),))


_TIME = st.floats(-20.0, math.log2(1e2)).map(lambda e: 2.0 ** e)


@given(F=step_data(), t=_TIME, offsets=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
# abutting equal heights (a zero jump at 1), a zero net jump at the first
# edge, and three overlapping steps with inexact levels
@example(F=StepCombo(((1.0, 0.0, 1.0), (1.0, 1.0, 2.0))), t=0.01, offsets=[0.0, 1.0])
@example(F=StepCombo(((1.0, 0.0, 1.0), (-1.0, 0.0, 2.0))), t=2.0 ** -20, offsets=[0.0, 0.5])
@example(F=StepCombo(((0.1, 0.0, 1.0), (0.2, 0.0, 2.0), (-0.3, 0.5, 3.0))), t=100.0, offsets=[-1.0, 0.5])
def test_step_model_is_the_jump_sum_bit_for_bit(F, t, offsets):
    cuts = F.breakpoints()
    xs = np.array([c + s * math.sqrt(t) for c in cuts for s in offsets] + list(cuts) + [0.5 * (cuts[0] + cuts[-1])])
    for n in range(MAX_DERIV_ORDER + 1):
        assert F.heat_flow(t, xs, n).tolist() == _step_flow(F, t, xs, n).tolist()
    for p in (1.0, 1.5, 2.0, 3.0, 7.5):
        assert F.finite_lp_norm(p, lh.DEFAULT_CONFIG) == _step_norm(F, p)
    assert F.sup_bound() == max(abs(v) for _, _, v in _levels(F))
    jumps = _jumps(F)
    assert F.jumps() == jumps and list(F.jumps()) == list(jumps)
    assert F._flow_atoms() == ((0.0, 0, -1, tuple(jumps), tuple(jumps.values())),)
    # closed steps add where they share an edge
    closed = sum(h * ((xs >= a) & (xs <= b)) for h, a, b in F.steps)
    assert F.values(xs).tolist() == (np.zeros_like(xs) + closed).tolist()


@st.composite
def sampled_data(draw):
    vals = draw(st.lists(st.sampled_from([0.0, 2.0, -2.0]) | st.floats(-2.0, 2.0), min_size=2, max_size=41))
    return lh.sample(vals, draw(st.floats(-3.0, 3.0)), draw(st.floats(0.01, 0.5)))


@given(F=sampled_data(), t=st.floats(math.log2(1e-6), math.log2(1e2)).map(lambda e: 2.0 ** e),
       fractions=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_sampled_model_matches_the_mirrored_flow(F, t, fractions):
    # both forms sum the same atoms' terms, tails up to |w_k| / 2 and
    # |kappa_k| sqrt(t / pi) each, which cancel where sqrt(t) outgrows the
    # grid (ROADMAP item 14); past 1e-12 of sup|F| they may differ only by
    # the rounding of that sum, at least a subnormal unit per term
    lo, hi = F.effective_support(lh.DEFAULT_CONFIG)
    xs = np.array([lo + f * (hi - lo) for f in fractions] + list(F.breakpoints()))
    y, knots = F.samples, F._knots
    terms = math.fsum(map(abs, knots.jump)) / 2.0 + math.sqrt(t / math.pi) * math.fsum(map(abs, knots.kink))
    gap = np.max(np.abs(F.heat_flow(t, xs, 0) - _sampled_flow(F, t, xs)))
    assert gap <= 1e-12 * F.sup_bound() + 4.0 * _EPS * terms + 2 * len(y) * math.ulp(0.0)
    # the interpolant, closed at both ends
    want = np.interp(xs, F.breakpoints(), F.samples, left=0.0, right=0.0) * ((xs >= lo) & (xs <= hi))
    assert F.values(xs).tolist() == want.tolist()
    assert F.sup_bound() == max(map(abs, F.samples))
    # F'' is y_0 delta'_{x_0} - y_N delta'_{x_N} (the nonzero ones) plus the
    # kinks at every node, where the grid has any
    ends = [(a, w) for a, w in ((lo, y[0]), (hi, -y[-1])) if w != 0.0]
    kinks = np.diff(np.diff(y) / F.dx, prepend=0.0, append=0.0)
    rows = F._flow_atoms()
    assert rows[0] == (0.0, 0, -1, tuple(a for a, _ in ends), tuple(w for _, w in ends))
    assert [(r[3].tolist(), r[4].tolist()) for r in rows[1:]] == ([(list(F.breakpoints()), kinks.tolist())]
                                                                  if kinks.any() else [])


def test_flow_of_4096_steps_is_the_jump_sum_bit_for_bit():
    # 4,096 alternating unit steps: the flow runs in blocks of points and of
    # atoms, and each point still adds its jumps one at a time in knot order
    F = StepCombo(tuple(((-1.0) ** k, float(k), float(k + 1)) for k in range(4096)))
    xs = np.linspace(-5.0, 4101.0, 2001)
    few = [0, 1, 2, 1000, 1717, 1999, 2000]
    for t in (0.3, 30.0):
        for n in (0, 1, 2):
            assert F.heat_flow(t, xs, n)[few].tolist() == _step_flow(F, t, xs[few], n).tolist()


def test_flow_at_no_points_is_empty():
    for F in (Indicator(0.0, 1.0), lh.sample([0.0, 1.0, 0.5], 0.0, 0.1)):
        assert F.heat_flow(0.1, np.zeros(0), 0).tolist() == []
    assert Indicator(0.0, 1.0).heat_flow(0.1, np.zeros(0), 1).tolist() == []
