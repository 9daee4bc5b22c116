"""Quantitative verification suite: norm bounds, sharpness through the
Gaussian extremal family, structural properties of solutions (zero mean,
sign change, decay), the variation lower bound, and the divergence
evidence for exponents below the data's own.

Each check returns either raw measured values or an
:class:`~lpheat.report.EstimateReport` comparing a measurement to its
bound.  Sharpness claims that rest on non-constructive existence
arguments are replaced by their computable shadows: the extremal family
keeps the normalized ratio bounded away from zero, and non-membership
is evidenced by unbounded growth of windowed norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import ExponentTriple, K_const, L_const, M_const, _inv, beta_extremizer, r_from, young_constant
from .convolve import convolve_values, convolution_lp_norm
from .exceptions import DomainError, SearchFailureError
from .kernel import (
    semigroup_residual,
    theta_deriv_norm_closed,
    theta_norm_closed,
    theta_values,
)
from .lp_space import GaussianPower, Indicator, TailLog, _bracket_max, combo_lp_norm, lp_norm
from .lprime import LprimeElement, dirac_difference, from_primitive, lprime_norm
from .heat_solver import solve_values
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate
from .report import EstimateReport, make_report


def _flow_bound(
    name: str,
    elements,
    tr: ExponentTriple,
    t: float,
    order: int,
    const: float,
    cfg: QuadratureConfig,
    tolerance: float,
) -> EstimateReport:
    """||(sum c_i F_i) * theta_t^(order)||_r <= const * ||sum c_i f_i||'_p * t^{-(order+1-1/q)/2}.

    The sharp estimates are this one inequality, read on the primitive
    (order 0, constant K) or on the values of v (order 1, constant L).
    ``elements`` are the (c_i, f_i) pairs; each f_i carries the triple's
    p, and one element's norm is its own ``lprime_norm``.
    """
    if any(abs(f.p - tr.p) > 1e-12 for _, f in elements):
        raise DomainError("the elements and the triple must share the exponent p")
    terms = [(c, f.primitive) for c, f in elements]
    data_norm = lprime_norm(elements[0][1], cfg) if len(elements) == 1 else combo_lp_norm(terms, tr.p, cfg)
    return make_report(
        name,
        measured=convolution_lp_norm(terms, order, t, tr.r, cfg),
        bound=const * data_norm * t ** (-(order + 1.0 - _inv(tr.q)) / 2.0),
        tolerance=tolerance,
        params={"p": tr.p, "q": tr.q, "r": tr.r, "t": t},
    )


def verify_lprime_bound(
    f: LprimeElement,
    tr: ExponentTriple,
    t: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tolerance: float = 1e-6,
) -> EstimateReport:
    """||f * theta_t||'_r <= K_{p,q} ||f||'_p t^{-(1-1/q)/2}."""
    return _flow_bound("derivative_space_bound", [(1.0, f)], tr, t, 0, K_const(tr), cfg, tolerance)


def verify_lr_bound(
    f: LprimeElement,
    tr: ExponentTriple,
    t: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tolerance: float = 1e-6,
) -> EstimateReport:
    """||f * theta_t||_r <= L_{p,q} ||f||'_p t^{-(2-1/q)/2}, on the values of v itself."""
    return _flow_bound("value_space_bound", [(1.0, f)], tr, t, 1, L_const(tr), cfg, tolerance)


def continuity_bound(
    f: LprimeElement,
    g: LprimeElement,
    tr: ExponentTriple,
    t: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tolerance: float = 1e-8,
) -> EstimateReport:
    """||(f - g) * theta_t||'_r against K_{p,q} ||f - g||'_p t^{-(1-1/q)/2}."""
    return _flow_bound("continuity_in_initial_data", [(1.0, f), (-1.0, g)], tr, t, 0, K_const(tr), cfg, tolerance)


def young_equality_gap(
    p: float,
    q: float,
    t: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    beta: float | None = None,
) -> float:
    """1 - ||F * theta_t||_r / (C_{p,q} ||F||_p ||theta_t||_q) with F the
    Gaussian power extremizer.

    Interior exponents (p, q both > 1) use the closed-form optimal power
    and the gap vanishes to rounding: F * theta_t is again a multiple of
    the kernel, so all three norms are closed forms.  For boundary
    exponents pass an explicit surrogate ``beta`` (large for p = 1, small
    for q = 1); there the gap is small but only vanishes in the limit.
    """
    tr = r_from(p, q)
    if beta is None:
        if p == 1.0 or q == 1.0:
            raise DomainError(
                "boundary exponents need an explicit surrogate beta (the optimum is a limit)"
            )
        beta = beta_extremizer(p, q)
    if not (beta > 0 and math.isfinite(beta)):
        raise DomainError("surrogate beta must be positive and finite")
    if 1.0 / 64.0 <= beta <= 64.0:
        F = GaussianPower(t, beta)
    else:
        # the ratio is invariant under positive scaling of F, and the
        # beta-th power is a multiple of the kernel at time t/beta; the
        # normalized representative avoids prefactor under/overflow
        F = GaussianPower(t / beta, 1.0)
    measured = convolution_lp_norm([(1.0, F)], 0, t, tr.r, cfg)
    bound = young_constant(tr) * lp_norm(F, tr.p, cfg) * lp_norm(GaussianPower(t, 1.0), tr.q, cfg)
    return 1.0 - measured / bound


def rate_sharpness(
    tr: ExponentTriple,
    t_sequence: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> list[float]:
    """Normalized quantity ||f_t * theta_t||'_r t^{(1-1/q)/2} / ||f_t||'_p
    along the kernel-derivative family f_t; constant in t and positive,
    so the decay rate in the bound cannot be improved.  Both norms are
    closed forms (theta_t * theta_t = theta_2t), so the values agree to
    rounding."""
    out = []
    for t in t_sequence:
        F = GaussianPower(t, 1.0)
        num = convolution_lp_norm([(1.0, F)], 0, t, tr.r, cfg)
        den = lp_norm(F, tr.p, cfg)
        out.append(num * t ** ((1.0 - _inv(tr.q)) / 2.0) / den)
    return out


def zero_integral(
    f: LprimeElement,
    t: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Integral of v_t over the line (zero for every element).

    Computed on the certified window; accuracy degrades to the window
    remainder for slowly decaying primitives.
    """
    if not (t > 0 and math.isfinite(t)):
        raise DomainError("time must be positive and finite")
    F = f.primitive
    width = cfg.kernel_width(t)
    slo, shi = F.effective_support(cfg)
    lo, hi = slo - width, min(shi, 1e7) + width

    def integrand(xs):
        return solve_values(f, t, xs, cfg)

    val, _ = integrate(integrand, lo, hi, cfg, points=F.breakpoints())
    return val


def sign_change(
    f: LprimeElement,
    t: float,
    search_interval: tuple[float, float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    threshold: float = 1e-10,
) -> tuple[float, float]:
    """Witnesses (x_neg, x_pos) with v_t(x_neg) < -threshold < threshold < v_t(x_pos).

    Scans a grid, then refines each extremum by ``_bracket_max`` on the
    scan cells around it, 33 points per ``solve_values`` call, to a bracket
    3e-13 of the two cells' width.  Failure to find witnesses raises; it
    never claims none exist.
    """
    lo, hi = search_interval
    if not (lo < hi):
        raise DomainError("search interval must be nondegenerate")
    for n in (257, 1025, 4097):
        xs = np.linspace(lo, hi, n)
        vals = solve_values(f, t, xs, cfg)

        def refine(i, sign):
            # maximize sign * v_t on the scan cell pair around node i
            lo_i, hi_i = xs[max(i - 1, 0)], xs[min(i + 1, n - 1)]
            return _bracket_max(lambda x: sign * solve_values(f, t, x, cfg), lo_i, hi_i, rel_width=3e-13)

        x_neg, neg_peak = refine(int(np.argmin(vals)), -1.0)
        x_pos, pos_peak = refine(int(np.argmax(vals)), 1.0)
        if neg_peak > threshold and pos_peak > threshold:
            return x_neg, x_pos
    raise SearchFailureError(
        f"no sign witnesses above threshold {threshold} in {search_interval}; widen the interval"
    )


def decay_bound_check(
    f: LprimeElement,
    R: float,
    t: float,
    x_set: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tolerance: float = 1e-6,
) -> EstimateReport:
    """Pointwise decay bound for data supported in [-R, R].

    p = 1 branch requires |x| >= R + sqrt(2 t) and compares against
    M_1 ||f||'_1 |x| exp(-(|x|-R)^2/(4t)) t^{-3/2}; finite p > 1 requires
    |x| >= 2 R with the exp(-x^2/(16 t)) branch.  The report's measured
    value is the worst |v_t(x)| / bound(x).
    """
    if not f.primitive.is_compactly_supported():
        raise DomainError("decay bound applies to compactly supported data")
    slo, shi = f.primitive.effective_support(cfg)
    if slo < -R - 1e-12 or shi > R + 1e-12:
        raise DomainError(f"support [{slo}, {shi}] is not inside [-{R}, {R}]")
    p = f.p
    norm = lprime_norm(f, cfg)
    mp = M_const(p)
    xs = [float(x) for x in x_set]
    bounds = []
    for x in xs:
        ax = abs(x)
        if p == 1.0:
            if ax < R + math.sqrt(2.0 * t) - 1e-12:
                raise DomainError(f"|x| = {ax} violates |x| >= R + sqrt(2t)")
            bounds.append(mp * norm * ax * math.exp(-((ax - R) ** 2) / (4.0 * t)) * t ** -1.5)
        else:
            if ax < 2.0 * R - 1e-12:
                raise DomainError(f"|x| = {ax} violates |x| >= 2R")
            bounds.append(mp * norm * ax ** (1.0 / p) * math.exp(-x * x / (16.0 * t)) * t ** (-(0.5 + 1.0 / p)))
    worst = 0.0
    for value, bound in zip(np.abs(solve_values(f, t, xs, cfg)).tolist(), bounds):
        if bound > 0.0:
            worst = max(worst, value / bound)
        elif value > 0.0:
            worst = math.inf
    return make_report(
        "compact_support_decay",
        measured=worst,
        bound=1.0,
        tolerance=tolerance,
        params={"p": p, "R": R, "t": t, "points": len(xs)},
    )


def variation_lower_bound(a: float, t_sequence: Sequence[float]) -> list[float]:
    """Lower bound for the total variation of mu_t = v_t dx - (delta_{-a} - delta_a).

    Equals pi^{-1/2} int_0^{a/sqrt(t)} exp(-y^2) dy = erf(a / sqrt t) / 2,
    which climbs to 1/2 as t -> 0+, so the dirac difference is never
    attained in variation.
    """
    if not (a > 0 and math.isfinite(a)):
        raise DomainError("offset a must be positive")
    out = []
    for t in t_sequence:
        if not t > 0:
            raise DomainError("all times must be positive")
        out.append(0.5 * math.erf(a / math.sqrt(t)))
    return out


@dataclass(frozen=True)
class NonmembershipEvidence:
    """Divergence evidence for the convolution below the data exponent."""

    ratios: list[float]           # truncated-convolution ratio, tends to 1/2
    windows: list[float]          # doubling window right edges
    partial_powers: list[float]   # int over [e, X] of |F*theta_t|^s, growing


def nonmembership_probe(
    p: float,
    s: float,
    t: float,
    x_sequence: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    doublings: int = 10,
) -> NonmembershipEvidence:
    """Evidence that F * theta_t escapes L^s for s below p.

    F is the log-damped profile in L^p.  Two computations: the ratio of
    the support-to-x truncated convolution to F(x), which settles near
    1/2 by the kernel's half-mass, and windowed s-th power integrals of
    the full convolution over a doubling schedule (capped at
    ``doublings``), whose increments keep growing.
    """
    if not (1.0 <= s < p):
        raise DomainError("divergence probe needs 1 <= s < p")
    F = TailLog(p)
    width = cfg.kernel_width(t)

    ratios = []
    for x in x_sequence:
        if x <= math.e + width:
            raise DomainError("probe points must sit well inside the support")

        def integrand(y, _x=x):
            return F.values(y) * theta_values(_x - y, t)

        val, _ = integrate(integrand, max(math.e, x - width), x, cfg)
        ratios.append(val / float(F.values(np.asarray([x]))[0]))

    edges = [math.e * 2.0 ** k for k in range(1, doublings + 1)]
    partial = []
    running = 0.0
    prev = math.e

    def conv_power(xs):
        return np.abs(convolve_values(F, 0, t, xs, cfg)) ** s

    for X in edges:
        seg, _ = integrate(conv_power, prev, X, cfg)
        running += seg
        partial.append(running)
        prev = X
    return NonmembershipEvidence(ratios=ratios, windows=edges, partial_powers=partial)


# ---------------------------------------------------------------------------
# Named suites consumed by the command-line interface.  ``tol`` replaces
# the bound of every threshold row (``_row``) and is the slack of every
# theorem row over its bound; the sign-change witnesses keep their floor.
# A deliberately unattainable tolerance forces a failing exit code.

_NORM_EXPONENTS = (1.0, 1.5, 2.0, 3.0, 4.0, math.inf)
_NORM_TIMES = (0.01, 1.0, 100.0)


def _row(name: str, measured: float, default: float, tol: float | None, **params) -> EstimateReport:
    """A threshold row: measured against ``tol or default`` with no slack,
    so ``tol`` replaces the default; an infinite parameter reads "inf"."""
    params = {key: "inf" if value == math.inf else value for key, value in params.items()}
    return make_report(name, measured=measured, bound=tol or default, tolerance=0.0, params=params)


def _kernel_norm_reports(cfg: QuadratureConfig, tol: float | None = None) -> list[EstimateReport]:
    reports = []
    for q in _NORM_EXPONENTS:
        for t in _NORM_TIMES:
            closed = theta_norm_closed(q, t)
            # quadrature on purpose: lp_norm of a Gaussian power is the closed form
            measured = combo_lp_norm([(1.0, GaussianPower(t, 1.0))], q, cfg)
            reports.append(_row("kernel_norm_closed_vs_quadrature", abs(measured - closed) / closed, 1e-8, tol,
                                q=q, t=t))
            closed_d = theta_deriv_norm_closed(q, t)
            # theta_{t/2} * theta_{t/2}' = theta_t'
            measured_d = convolution_lp_norm([(1.0, GaussianPower(t / 2.0, 1.0))], 1, t / 2.0, q, cfg)
            reports.append(_row("kernel_deriv_norm_closed_vs_quadrature", abs(measured_d - closed_d) / closed_d,
                                1e-8, tol, q=q, t=t))
    for (t, s) in ((1.0, 1.0), (0.5, 0.5), (2.0, 3.0)):
        resid = semigroup_residual(t, s, np.linspace(-10.0, 10.0, 81), cfg)
        reports.append(_row("semigroup_identity_residual", resid, 1e-10, tol, t=t, s=s))
    return reports


_YOUNG_LATTICE = (1.25, 1.5, 2.0, 3.0)


def young_lattice_triples() -> list[ExponentTriple]:
    """Admissible triples with p and q drawn from the standard test lattice."""
    out = []
    for p in _YOUNG_LATTICE:
        for q in _YOUNG_LATTICE:
            if _inv(p) + _inv(q) >= 1.0 - 1e-12:
                out.append(r_from(p, q))
    return out


def _young_reports(cfg: QuadratureConfig, tol: float | None = None) -> list[EstimateReport]:
    reports = []
    for tr in young_lattice_triples():
        gap = young_equality_gap(tr.p, tr.q, 1.0, cfg)
        reports.append(_row("young_equality_gap", abs(gap), 1e-6, tol, p=tr.p, q=tr.q, r=tr.r))
    for p, q, beta, case in ((1.0, 2.0, 1e4, "large-beta surrogate"), (2.0, 1.0, 1e-4, "small-beta surrogate")):
        gap = young_equality_gap(p, q, 1.0, cfg, beta=beta)
        reports.append(_row("young_boundary_gap", abs(gap), 1e-2, tol, p=p, q=q, beta=beta, case=case))
    f = dirac_difference(0.0, 1.0, p=2.0)
    for q in (1.0, 1.5):
        tr = r_from(2.0, q)
        reports.append(verify_lprime_bound(f, tr, 0.5, cfg, tolerance=tol or 1e-6))
        reports.append(verify_lr_bound(f, tr, 0.5, cfg, tolerance=tol or 1e-6))
    return reports


def _decay_reports(cfg: QuadratureConfig, tol: float | None = None) -> list[EstimateReport]:
    f1 = dirac_difference(-1.0, 1.0, p=1.0)
    f2 = dirac_difference(0.0, 1.0, p=2.0)
    f3 = from_primitive(Indicator(0.0, 1.0), 1.0)
    cases = ((f1, 0.25, [2.5, 3.0, 4.0, -3.5]), (f2, 0.25, [2.0, 3.0, 5.0, -2.5]), (f3, 0.5, [2.5, 4.0, -3.0]))
    reports = [decay_bound_check(f, 1.0, t, xs, cfg, tolerance=tol or 1e-6) for f, t, xs in cases]
    witness_floor = 1e-10
    for f, label in ((f1, "dirac(-1,1)"), (f2, "dirac(0,1)")):
        reports.append(_row("zero_total_mass", abs(zero_integral(f, 0.3, cfg)), 1e-8, tol, f=label, t=0.3))
        x_neg, x_pos = sign_change(f, 1.0, (-8.0, 8.0), cfg, threshold=witness_floor)
        v_neg, v_pos = solve_values(f, 1.0, [x_neg, x_pos], cfg).tolist()
        margin = min(-v_neg, v_pos)
        # bound 1 whatever the suite's tol: both witnesses must clear the floor
        reports.append(_row("sign_change_witnesses", witness_floor / max(margin, 1e-300), 1.0, None,
                            f=label, x_neg=x_neg, x_pos=x_pos))
        tail = float(np.abs(solve_values(f, 1.0, [20.0, -20.0], cfg)).max())
        reports.append(_row("decay_at_infinity", tail, 1e-15, tol, f=label, x=20.0))
    return reports


def _variation_reports(cfg: QuadratureConfig, tol: float | None = None) -> list[EstimateReport]:
    vals = variation_lower_bound(1.0, [0.25, 0.04, 0.01, 0.0001])
    # a/sqrt(t) = 2, 5, 10, 100
    reports = [_row("variation_bound_at_ratio_2", abs(vals[0] - 0.49766113250947637), 1e-9, tol, a_over_sqrt_t=2.0)]
    for v, ratio in zip(vals[2:], (10.0, 100.0)):
        reports.append(_row("variation_bound_approaches_half", 0.5 - v, 1e-3, tol, a_over_sqrt_t=ratio))
    return reports


SUITES = {
    "kernel": _kernel_norm_reports,
    "young": _young_reports,
    "decay": _decay_reports,
    "variation": _variation_reports,
}


def run_suite(
    name: str,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    tolerance: float | None = None,
) -> list[EstimateReport]:
    """Run a named suite ('all' chains every one) and return its reports."""
    if name == "all":
        return [rep for suite in SUITES.values() for rep in suite(cfg, tolerance)]
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from all, {', '.join(SUITES)}")
    return SUITES[name](cfg, tolerance)
