"""Seeded workloads: the inputs each op receives and the oracle that checks it.

Every generator takes the imported ``lpheat`` package, a ``random.Random``
seeded from ``--seed`` and a scratch directory inside the checkout, writes
the descriptor files the CLI ops read, and returns a :class:`Workload`.
The program sees only the generated descriptor files and argv lists (CLI
ops) or the constructed library arguments (library ops); the oracles in
``oracles.py`` never call lpheat.

Library ops look their function up on the ``lpheat`` package when they
run, so the tracer's wrappers are picked up without regenerating ops.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles as ora

# time sweeps in the shape of the acceptance tests
SWEEP_TOL = {"abs_tol": 1e-13, "rel_tol": 1e-10}
EVOLVE_TOL = 1e-8  # relative to the largest |v_t| on the grid
NORM_TOL = 1e-8


class OracleMiss(Exception):
    """An op's output disagrees with its oracle."""


@dataclass
class Check:
    dev: float  # worst relative deviation from the oracle
    n: int  # numbers checked


@dataclass
class Op:
    label: str  # op-mix category
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], Check]  # untimed; raises OracleMiss
    collect: Callable[[Any], Any] = lambda res: res  # untimed; output to compare across repeats
    points: int = 0  # grid values of v_t the op produces
    traced: bool = False  # member of the fixed subset the traced run replays
    cli: bool = False


@dataclass
class Workload:
    ops: list[Op]
    warmup: Op


def _require(cond: bool, msg: str):
    if not cond:
        raise OracleMiss(msg)


def _worst(dev: float, tol: float, what: str) -> float:
    _require(dev <= tol, f"{what}: deviation {dev:.3e} exceeds {tol:.0e}")
    return dev


# ---------------------------------------------------------------------------
# CLI plumbing


def cli_op(lh, label, argv, out_path, check_data, points=0, traced=False) -> Op:
    """In-process ``lpheat.cli.main(argv)``; output goes to ``out_path``."""

    def run():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return lh.cli.main(list(argv))

    def collect(code):
        with open(out_path, "rb") as fh:
            return code, fh.read()

    def check(res):
        code, data = res
        _require(code == 0, f"exit code {code}")
        return check_data(data)

    return Op(label, run, check, collect, points=points, traced=traced, cli=True)


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def parse_table(text: str):
    """CSV table -> (header, rows of floats)."""
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(tok) for tok in row] for row in rows[1:]]


def parse_solution(data: bytes, fmt: str):
    """(xs, ts, columns, extra) from evolve / example-dirac output."""
    text = data.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        return doc["x"], doc["t"], doc["values"], doc.get("variation_lower_bound")
    blocks = text.split("\nt,variation_lower_bound\n")
    header, rows = parse_table(blocks[0])
    ts = [float(h.split("=", 1)[1]) for h in header[1:]]
    xs = [row[0] for row in rows]
    cols = [[row[j + 1] for row in rows] for j in range(len(ts))]
    extra = None
    if len(blocks) == 2:
        extra = [float(line.split(",")[1]) for line in blocks[1].strip().splitlines()]
    return xs, ts, cols, extra


def check_grid(xs, ts, cols, grid, times, solution, stride=1) -> Check:
    a, b, n = grid
    _require(list(xs) == list(np.linspace(a, b, n)), "x column differs from the requested grid")
    _require(list(ts) == list(times), "time columns differ from the request")
    dev, count = 0.0, 0
    for t, col in zip(times, cols):
        _require(len(col) == n, "column length differs from the grid")
        idx = range(0, n, stride)
        ref = [solution(t, xs[i]) for i in idx]
        scale = max(abs(r) for r in ref)
        dev = max(dev, max(ora.rel_dev(col[i], r, scale) for i, r in zip(idx, ref)))
        count += len(ref)
    return Check(_worst(dev, EVOLVE_TOL, "v_t"), count)


def strata(rng, count, lo, hi):
    """One uniform draw from each of ``count`` equal slices of [lo, hi), shuffled.

    Sizes drawn this way cover their range evenly for every seed, so the
    work in a pass changes little from one seed to the next."""
    vals = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(vals)
    return vals


@dataclass
class Request:
    times: list[float]
    grid: tuple[float, float, int]
    fmt: str


def requests(rng, count, lo, hi, points=(101, 201), n_times=3) -> list[Request]:
    """Times, grid and output format for ``count`` solution requests:
    ``n_times`` times, one from each equal slice of [0.01, 1] in log scale,
    and ``points`` (inclusive range) grid points between ends drawn from
    the ``lo`` and ``hi`` ranges."""
    out = []
    ends = zip(strata(rng, count, *lo), strata(rng, count, *hi), strata(rng, count, points[0], points[1] + 1))
    for a, b, n in ends:
        times = [float(f"{10 ** (-2.0 + 2.0 * (k + rng.random()) / n_times):.4g}") for k in reversed(range(n_times))]
        out.append(Request(times, (round(a, 3), round(b, 3), int(n)), rng.choice(("csv", "json"))))
    return out


def _grid_arg(grid):
    a, b, n = grid
    return f"--grid={a!r}:{b!r}:{n}"


def evolve_op(lh, label, work, name, element, solution, req: Request, stride=1, traced=False) -> Op:
    """``lpheat evolve`` on a descriptor file; v_t is checked at every
    ``stride``-th grid point."""
    desc = os.path.join(work, f"{name}.json")
    _write_json(desc, element)
    out = os.path.join(work, f"{name}.out")

    def check_data(data):
        xs, ts, cols, _ = parse_solution(data, req.fmt)
        return check_grid(xs, ts, cols, req.grid, req.times, solution, stride)

    argv = ["evolve", "--data", desc, "--t", ",".join(map(repr, req.times)), _grid_arg(req.grid),
            "--format", req.fmt, "--out", out]
    return cli_op(lh, label, argv, out, check_data, points=req.grid[2] * len(req.times), traced=traced)


# ---------------------------------------------------------------------------
# evolve

# (kind, with atoms, descriptors): 100 descriptors, half with atoms; the
# no-atoms half spans every compact kind.  Sampled data, the slowest kind,
# makes up a fifth of all ops, so the 90th latency percentile falls inside
# its group rather than on the edge between two kinds.
_EVOLVE_GROUPS = (
    ("indicator", True, 25), ("step_combo", True, 25), ("indicator", False, 8),
    ("step_combo", False, 8), ("gaussian_power", False, 10), ("samples", False, 24),
)


def _compact_element(rng, kind, atoms, m):
    """(descriptor, oracle) for one compact primitive."""
    if kind == "indicator":
        a = round(rng.uniform(-2.0, 1.0), 4)
        steps = [(1.0, a, round(a + rng.uniform(0.2, 2.0), 4))]
        desc = {"type": "indicator", "a": steps[0][1], "b": steps[0][2]}
    elif kind == "step_combo":
        steps = []
        for _ in range(rng.randint(2, 4)):
            h = round(rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 2.0), 4)
            a = round(rng.uniform(-2.0, 1.5), 4)
            steps.append((h, a, round(a + rng.uniform(0.2, 1.5), 4)))
        desc = {"type": "step_combo", "steps": [list(s) for s in steps]}
    elif kind == "gaussian_power":
        t0, beta = round(rng.uniform(0.1, 1.0), 4), round(rng.uniform(0.5, 3.0), 4)
        desc = {"type": "gaussian_power", "t": t0, "beta": beta}
        return {"primitive": desc}, ora.GaussPower(t0, beta)
    else:
        span = rng.uniform(3.0, 4.0)
        x0, dx = -span / 2.0, span / (m - 1)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        vals = [math.exp(-x * x) * (1.0 + 0.25 * math.sin(3.0 * x + phase)) for x in (x0 + dx * j for j in range(m))]
        desc = {"type": "samples", "x0": x0, "dx": dx, "values": vals}
        return {"primitive": desc}, ora.PiecewiseLinear(x0, dx, vals)
    element = {"primitive": desc}
    if atoms:
        jumps: dict[float, float] = {}
        for h, a, b in steps:
            jumps[a] = jumps.get(a, 0.0) + h
            jumps[b] = jumps.get(b, 0.0) - h
        element["atoms"] = [[w, loc] for loc, w in sorted(jumps.items()) if w != 0.0]
    return element, ora.Steps(steps)


def gen_evolve(lh, rng, work) -> Workload:
    """``lpheat evolve`` on compact data and ``lpheat example-dirac``: the
    command users run.  Atoms take the closed form, everything else one
    convolve_point quadrature per grid point, so the two paths sit side by
    side; sampled data is the slowest case."""
    ops = []
    for kind, atoms, count in _EVOLVE_GROUPS:
        label = f"evolve:{kind}" + ("+atoms" if atoms else "")
        nodes = strata(rng, count, 21, 42)  # sample count, used by sampled data
        for j, req in enumerate(requests(rng, count, (-6.0, -3.0), (3.0, 6.0))):
            element, oracle = _compact_element(rng, kind, atoms, int(nodes[j]))
            element["p"] = rng.choice((1.0, 1.5, 2.0, 3.0))
            name = f"{label.split(':')[1]}-{j:02d}"
            ops.append(evolve_op(lh, label, work, name, element, oracle.solution, req, traced=j % 4 == 0))
    for j, req in enumerate(requests(rng, 20, (-6.0, -3.0), (3.0, 6.0))):
        ops.append(example_dirac_op(lh, work, f"dirac-{j:02d}", round(rng.uniform(0.5, 2.0), 3), req,
                                    traced=j % 4 == 0))
    rng.shuffle(ops)
    # the warm-up op is the same for every seed
    warm_req = requests(random.Random(0), 1, (-6.0, -3.0), (3.0, 6.0))[0]
    warm_el = {"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0}
    warm = evolve_op(lh, "warmup", work, "warmup", warm_el, ora.Steps([(1.0, 0.0, 1.0)]).solution, warm_req)
    return Workload(ops, warm)


def example_dirac_op(lh, work, name, a, req: Request, traced=False) -> Op:
    out = os.path.join(work, f"{name}.out")
    oracle = ora.Steps([(1.0, -a, a)])

    def check_data(data):
        xs, ts, cols, bounds = parse_solution(data, req.fmt)
        res = check_grid(xs, ts, cols, req.grid, req.times, oracle.solution)
        _require(bounds is not None and len(bounds) == len(req.times), "variation bounds missing")
        dev = max(ora.rel_dev(v, 0.5 * math.erf(min(a / math.sqrt(t), 40.0))) for v, t in zip(bounds, req.times))
        return Check(max(res.dev, _worst(dev, 1e-9, "variation bound")), res.n + len(bounds))

    argv = ["example-dirac", "--a", repr(a), "--t", ",".join(map(repr, req.times)), _grid_arg(req.grid),
            "--format", req.fmt, "--out", out]
    return cli_op(lh, "example-dirac", argv, out, check_data, points=req.grid[2] * len(req.times), traced=traced)


# ---------------------------------------------------------------------------
# slowtail


def _scalar_check(reference: Callable[[], float], tol: float, what: str, floor: float = 0.0):
    """Check a scalar result; the reference is computed only when checking."""

    def check(value):
        return Check(_worst(ora.rel_dev(float(value), reference(), floor), tol, what), 1)

    return check


_TAIL_P0 = {"tail_log": (1.0, 1.25, 1.5, 2.0, 3.0), "truncated_sine": (1.0, 1.5, 2.0)}


def _tail_element(rng, kind, j):
    """(p0, element exponent p, oracle profile) for the j-th slow-tail primitive
    of a kind; p0 cycles through the kind's exponents."""
    p0 = _TAIL_P0[kind][j % len(_TAIL_P0[kind])]
    if kind == "tail_log":
        return p0, p0 + rng.choice((0.0, 0.5, 1.0)), ora.TailLogProfile(p0)
    return p0, p0 + rng.choice((0.5, 1.0)), ora.SineProfile(p0)


def _primitive(lh, kind, p0):
    return lh.TailLog(p0) if kind == "tail_log" else lh.TruncatedSine(p0)


# Slow-tail solution requests are smaller than evolve's (41-81 points, two
# times) so that a pass takes a few seconds.  The counts put the median
# latency in the middle of the evolve ops and the 90th percentile in the
# middle of the probes: 24 fast library ops, 72 evolve ops, 24 probes.
_TAIL_POINTS = (41, 81)


def gen_slowtail(lh, rng, work) -> Workload:
    """Slow-tail profiles, for which no closed-form convolution exists: the
    control on which closed-form work must change nothing, and the place
    where batching the inner quadrature pays off."""
    ops = []
    for kind in ("tail_log", "truncated_sine"):
        for j, req in enumerate(requests(rng, 36, (-2.0, 2.0), (10.0, 25.0), _TAIL_POINTS, 2)):
            p0, p, prof = _tail_element(rng, kind, j)
            element = {"primitive": {"type": kind, "p": p0}, "p": p}
            ops.append(
                evolve_op(lh, f"evolve:{kind}", work, f"{kind}-{j:02d}", element,
                          lambda t, x, _F=prof: ora.tail_solution(_F, t, x), req, stride=10, traced=j % 4 == 0)
            )
    for j in range(6):
        ops.append(_lp_norm_op(lh, rng, traced=j % 4 == 0))
        ops.append(_pairing_op(lh, rng, ("tail_log", "truncated_sine")[j % 2], j // 2, traced=j % 4 == 0))
    for j in range(24):
        # every (p, doublings, t) triple once
        ops.append(_probe_op(lh, rng, (1.5, 2.0, 3.0)[j % 3], 6 + j // 8, (0.5, 1.0, 2.0)[j // 3 % 3],
                             traced=j % 4 == 0))
    for j, setting in enumerate(_STEP_SETTINGS):
        ops.append(_step_approx_op(lh, setting, traced=j % 4 == 0))
    rng.shuffle(ops)
    warm_req = requests(random.Random(0), 1, (-2.0, 2.0), (10.0, 25.0), _TAIL_POINTS, 2)[0]
    warm_el = {"primitive": {"type": "tail_log", "p": 2.0}, "p": 2.0}
    warm_prof = ora.TailLogProfile(2.0)
    warm = evolve_op(lh, "warmup", work, "warmup", warm_el, lambda t, x: ora.tail_solution(warm_prof, t, x),
                     warm_req, stride=10)
    return Workload(ops, warm)


def _lp_norm_op(lh, rng, traced) -> Op:
    if rng.random() < 0.75:
        p0 = rng.choice((1.0, 1.5, 2.0, 3.0))
        p = rng.choice((p0, 2.0 * p0, math.inf))
        ref = lambda: ora.taillog_lp_norm(p0, p)
        call = lambda: lh.lp_norm(lh.TailLog(p0), p)
        label = "lp_norm:tail_log"
    else:
        p0 = rng.choice((1.0, 1.5, 2.0, 3.0))
        ref = lambda: ora.sine_sup(p0)
        call = lambda: lh.lp_norm(lh.TruncatedSine(p0), math.inf)
        label = "lp_norm:truncated_sine"
    return Op(label, call, _scalar_check(ref, 1e-9, label), traced=traced)


def _pairing_op(lh, rng, kind, j, traced) -> Op:
    p0, p, prof = _tail_element(rng, kind, j)
    if kind == "tail_log":
        p = p0
    if rng.random() < 0.5:
        a = round(rng.uniform(1.0, 4.0), 3)
        b = round(a + rng.uniform(3.0, 12.0), 3)
        ref = lambda: ora.pairing_value(prof, lambda x: 1.0, max(prof.edge, a), b)
        density = lambda: lh.Indicator(a, b)
        label = f"pairing:{kind}:indicator"
    else:
        t0 = round(rng.uniform(1.0, 4.0), 3)
        beta = round(rng.uniform(0.5, 2.0), 3)
        g = ora.GaussPower(t0, beta)
        ref = lambda: ora.pairing_value(prof, g.value, prof.edge, g.support()[1])
        density = lambda: lh.GaussianPower(t0, beta)
        label = f"pairing:{kind}:gaussian_power"
    call = lambda: lh.pairing(lh.LprimeElement(_primitive(lh, kind, p0), p), density())
    return Op(label, call, _scalar_check(ref, 1e-8, label, floor=1e-12), traced=traced)


def _probe_op(lh, rng, p, doublings, t, traced) -> Op:
    s = rng.choice((1.0, round(0.5 * (1.0 + p), 3)))
    xs = [math.e ** 5, math.e ** 6]
    prof = ora.TailLogProfile(p)

    def check(ev):
        dev = 0.0
        w = 10.0 * math.sqrt(2.0 * t)
        for x, got in zip(xs, ev.ratios):
            part = ora.quad(lambda y: prof.value(y) * ora.theta(x - y, t), max(math.e, x - w), x)
            dev = max(dev, ora.rel_dev(got, part / prof.value(x)))
        _require(len(ev.partial_powers) == doublings, "partial power count")
        running, prev = 0.0, math.e
        for X, got in zip(ev.windows, ev.partial_powers):
            running += ora.quad(lambda x: abs(ora.tail_conv(prof, t, x)) ** s, prev, X, rel=1e-11)
            dev = max(dev, ora.rel_dev(got, running))
            prev = X
        return Check(_worst(dev, 1e-7, "nonmembership probe"), len(xs) + doublings)

    call = lambda: lh.nonmembership_probe(p, s, t, xs, lh.DEFAULT_CONFIG, doublings=doublings)
    return Op("nonmembership_probe", call, check, traced=traced)


# every seed runs all of these step_approximation settings (bins stay at or
# below 1024), so the op's share of the mix does not depend on the seed
_STEP_SETTINGS = [("tail_log", p0, p0 + dp, eps) for p0 in (1.5, 2.0) for dp in (0.0, 1.0) for eps in (0.3, 0.1)]
_STEP_SETTINGS += [("truncated_sine", 1.0, 2.0, 0.3), ("truncated_sine", 1.0, 2.0, 0.1),
                   ("truncated_sine", 1.0, 3.0, 0.1), ("truncated_sine", 1.5, 3.5, 0.3)]


def _step_tail_bound(kind, p0, p, hi):
    """Closed-form bound for int |F|^p beyond the window edge ``hi``."""
    if kind == "tail_log":
        u0 = math.log(max(hi, math.e))
        rate = p / p0 - 1.0
        if rate > 1e-9:
            return math.exp(-rate * u0) * u0 ** (-2.0 * p) / rate
        return u0 ** (1.0 - 2.0 * p) / (2.0 * p - 1.0)
    a = p / p0
    return hi ** (1.0 - a) / (a - 1.0)


def _step_approx_op(lh, setting, traced) -> Op:
    kind, p0, p, eps = setting
    prof = ora.TailLogProfile(p0) if kind == "tail_log" else ora.SineProfile(p0)

    def check(res):
        _require(res.achieved_error < eps, "achieved error above the target")
        steps = res.element.primitive.steps
        lo, hi = min(a for _, a, _ in steps), max(b for _, _, b in steps)
        inner = 0.0
        for h, a, b in steps:
            # h = F(midpoint), so |F - h|^p has its kink there
            inner += ora.quad(lambda x: abs(prof.value(x) - h) ** p, a, b, points=(0.5 * (a + b),), rel=1e-10)
        ref = (inner + _step_tail_bound(kind, p0, p, hi)) ** (1.0 / p)
        _require(ref < eps, f"step approximation: true error bound {ref:.6g} is not below {eps}")
        # the library sums a fixed K15 rule per bin over that kink, so its
        # error figure agrees with the adaptive one only to a few digits
        return Check(_worst(ora.rel_dev(res.achieved_error, ref), 1e-3, "step approximation"), 1)

    call = lambda: lh.step_approximation(lh.LprimeElement(_primitive(lh, kind, p0), p), eps)
    return Op(f"step_approximation:{kind}", call, check, traced=traced)


# ---------------------------------------------------------------------------
# verify

_SUITE_ROWS = {
    "kernel": {
        "kernel_norm_closed_vs_quadrature": 18,
        "kernel_deriv_norm_closed_vs_quadrature": 18,
        "semigroup_identity_residual": 3,
    },
    "young": {"young_equality_gap": 13, "young_boundary_gap": 2, "derivative_space_bound": 2,
              "value_space_bound": 2},
    "decay": {"compact_support_decay": 3, "zero_total_mass": 2, "sign_change_witnesses": 2,
              "decay_at_infinity": 2},
    "variation": {"variation_bound_at_ratio_2": 1, "variation_bound_approaches_half": 2},
}
_SUITE_ORDER = ("kernel", "young", "decay", "variation")
_DIRAC_LABELS = {"dirac(-1,1)": ora.Steps([(1.0, -1.0, 1.0)]), "dirac(0,1)": ora.Steps([(1.0, 0.0, 1.0)])}


def _param(v):
    return math.inf if v == "inf" else float(v)


def _row_reference(name, params):
    """(reference, floor, tolerance) for a report row, or None when the row
    states a theorem with no closed-form value (its pass flag is checked)."""
    if name in ("kernel_norm_closed_vs_quadrature", "kernel_deriv_norm_closed_vs_quadrature"):
        return 0.0, 1.0, 1e-8
    if name == "semigroup_identity_residual":
        return 0.0, 1.0, 1e-10
    if name == "young_equality_gap":
        return 0.0, 1.0, 1e-6
    if name == "young_boundary_gap":
        p, q, s = _param(params["p"]), _param(params["q"]), 1.0 / float(params["beta"])
        r = ora.r_of(p, q)
        bound = ora.young_c(p, q) * ora.kernel_lq_norm(s, p) * ora.kernel_lq_norm(1.0, q)
        return 1.0 - ora.kernel_lq_norm(s + 1.0, r) / bound, 1.0, 1e-8
    if name in ("derivative_space_bound", "value_space_bound"):
        t, r = float(params["t"]), _param(params["r"])
        box = ora.Steps([(1.0, 0.0, 1.0)])
        if name == "derivative_space_bound":
            ref = ora.box_conv_l2(1.0, t) if r == 2.0 else ora.conv_norm(box, t, r)
        else:
            w = ora.window(t)
            ref = ora.quad(lambda x: abs(box.solution(t, x)) ** r, -w, 1.0 + w, points=(0.0, 1.0)) ** (1.0 / r)
        return ref, 0.0, NORM_TOL
    if name == "zero_total_mass":
        return 0.0, 1.0, 1e-8
    if name == "decay_at_infinity":
        F = _DIRAC_LABELS[params["f"]]
        x = float(params["x"])
        return max(abs(F.solution(1.0, x)), abs(F.solution(1.0, -x))), 0.0, 1e-9
    if name == "variation_bound_at_ratio_2":
        return abs(0.5 * math.erf(2.0) - 0.49766113250947637), 1.0, 1e-9
    if name == "variation_bound_approaches_half":
        return 0.5 * math.erfc(float(params["a_over_sqrt_t"])), 1.0, 1e-9
    return None


def check_report_rows(rows, suites) -> Check:
    """rows: dicts with name/measured/bound/ratio/passed/tolerance/params."""
    expected: dict[str, int] = {}
    for s in suites:
        expected.update(_SUITE_ROWS[s])
    seen: dict[str, int] = {}
    for row in rows:
        seen[row["name"]] = seen.get(row["name"], 0) + 1
    _require(seen == expected, f"report rows {seen} differ from {expected}")
    dev = 0.0
    for row in rows:
        measured, bound, tol = (_param(row[k]) for k in ("measured", "bound", "tolerance"))
        passed = measured <= bound * (1.0 + tol) or (bound == 0.0 and measured == 0.0)
        _require(passed == row["passed"], f"{row['name']}: pass flag disagrees with its numbers")
        _require(row["passed"], f"{row['name']}: check failed ({measured} > {bound})")
        params = row["params"]
        if row["name"] == "sign_change_witnesses":
            F = _DIRAC_LABELS[params["f"]]
            _require(F.solution(1.0, params["x_neg"]) < 0.0 < F.solution(1.0, params["x_pos"]),
                     "sign witnesses do not change sign")
            continue
        ref = _row_reference(row["name"], params)
        if ref is not None:
            value, floor, rtol = ref
            dev = max(dev, _worst(ora.rel_dev(measured, value, floor), rtol, row["name"]))
    return Check(dev, len(rows))


def _rows_from_csv(data: bytes):
    text = data.decode("utf-8")
    out = []
    for rec in csv.DictReader(io.StringIO(text)):
        rec["passed"] = rec["passed"] == "true"
        rec["params"] = json.loads(rec["params"])
        out.append(rec)
    return out


def check_constants_rows(rows) -> Check:
    dev, n = 0.0, 0
    for row in rows:
        p, q = _param(row["p"]), _param(row["q"])
        C = ora.young_c(p, q)
        a, d = ora.alpha_q(q), ora.delta_q(q)
        refs = {
            "r": ora.r_of(p, q), "alpha_q": a, "delta_q": d, "c_p": ora.c_p(p), "C": C,
            "K": C * a, "L": C * d, "beta": ora.beta_of(p, q),
        }
        if not math.isinf(p):
            refs["M"] = ora.m_p(p)
        for key, ref in refs.items():
            got = _param(row[key])
            if math.isinf(ref) or math.isinf(got):
                _require(got == ref, f"constants {key}")
                continue
            dev = max(dev, _worst(ora.rel_dev(got, ref), 1e-9, f"constants {key}"))
        n += 1
    return Check(dev, n)


def gen_verify(lh, rng, work) -> Workload:
    """The documented verify / report / constants commands plus library
    sweeps in the shape of the acceptance tests.  Nested quadrature (an
    outer integral over convolve_values) dominates, and cost grows as t
    shrinks.  Inputs are fixed; the seed orders the ops and picks output
    formats and constants arguments."""
    ops = []
    suites = [("all", list(_SUITE_ORDER))] + [(s, [s]) for s in _SUITE_ORDER]
    for name, members in suites:
        fmt = rng.choice(("csv", "json"))
        out = os.path.join(work, f"verify-{name}.out")
        argv = ["verify"] + ([] if name == "all" else ["--suite", name]) + ["--format", fmt, "--out", out]

        def check_data(data, _fmt=fmt, _members=members):
            rows = json.loads(data) if _fmt == "json" else _rows_from_csv(data)
            return check_report_rows(rows, _members)

        ops.append(cli_op(lh, f"verify:{name}", argv, out, check_data, traced=True))

    report_out = os.path.join(work, "report.out")

    def check_report(data):
        doc = json.loads(data)
        res = check_report_rows(doc["reports"], list(_SUITE_ORDER))
        const = check_constants_rows(doc["constants"])
        _require(doc["all_passed"] is True, "report says not all passed")
        return Check(max(res.dev, const.dev), res.n + const.n)

    ops.append(cli_op(lh, "report", ["report", "--out", report_out], report_out, check_report, traced=True))
    for i in range(2):
        ps = sorted(rng.sample((1.0, 1.25, 1.5, 2.0), rng.randint(1, 3)))
        qs = sorted(rng.sample((1.0, 1.25, 1.5, 2.0), rng.randint(1, 3)))
        fmt = rng.choice(("csv", "json"))
        out = os.path.join(work, f"constants{i}.out")
        argv = ["constants", "--p", ",".join(map(repr, ps)), "--q", ",".join(map(repr, qs)),
                "--format", fmt, "--out", out]

        def check_const(data, _fmt=fmt):
            if _fmt == "json":
                return check_constants_rows(json.loads(data))
            return check_constants_rows(list(csv.DictReader(io.StringIO(data.decode("utf-8")))))

        ops.append(cli_op(lh, "constants", argv, out, check_const, traced=True))

    cfg = lh.QuadratureConfig(**SWEEP_TOL)
    for label, element, oracle_norm in _contraction_catalog(lh):
        for k in range(15):
            t = 2.0 ** -k
            ops.append(
                Op(
                    "sweep:solution_primitive_norm",
                    lambda _f=element, _t=t: lh.solution_primitive_norm(_f, _t, _f.p, cfg),
                    _scalar_check(lambda _t=t, _norm=oracle_norm: _norm(_t), NORM_TOL, f"contraction {label} t=2^-{k}"),
                    traced=k in (0, 7, 14),
                )
            )
    dirac = lh.dirac_difference(0.0, 1.0, p=2.0)
    for k in range(1, 15):
        t = 2.0 ** -k
        ops.append(
            Op(
                "sweep:ic_convergence",
                lambda _t=t: lh.ic_convergence(dirac, [_t], cfg)[0],
                _scalar_check(lambda _t=t: ora.box_ic_distance(1.0, _t), NORM_TOL, f"ic t=2^-{k}"),
                traced=k in (1, 7, 14),
            )
        )
    for k in (6, 10, 14):
        t = 2.0 ** -k
        ops.append(
            Op(
                "sweep:weak_ic_check",
                lambda _t=t: lh.weak_ic_check(dirac, lh.gaussian_test_function(), [_t], cfg)[0],
                _scalar_check(lambda _t=t: ora.weak_pairing_gaussian(0.0, 1.0, _t), 1e-7, f"weak pairing t=2^-{k}"),
                traced=True,
            )
        )
    lattice = (1.25, 1.5, 2.0, 3.0)
    pairs = [(p, q) for p in lattice for q in lattice if 1.0 / p + 1.0 / q >= 1.0 - 1e-12]
    for i, (p, q) in enumerate(pairs):
        ops.append(
            Op(
                "sweep:young_equality_gap",
                lambda _p=p, _q=q: lh.young_equality_gap(_p, _q, 1.0, cfg),
                _scalar_check(lambda: 0.0, 1e-6, f"young gap ({p},{q})", floor=1.0),
                traced=i % 3 == 0,
            )
        )
    rng.shuffle(ops)
    warm_out = os.path.join(work, "warmup.out")
    warm = cli_op(
        lh, "warmup", ["verify", "--suite", "variation", "--out", warm_out], warm_out,
        lambda data: check_report_rows(_rows_from_csv(data), ["variation"]),
    )
    return Workload(ops, warm)


def _contraction_catalog(lh):
    """The acceptance contraction catalog with the oracle for ||v_t||'_p."""
    xs = np.linspace(-2.0, 2.0, 41)
    bump_vals = [float(v) for v in np.exp(-xs ** 2)]
    steps = ((1.0, 0.0, 1.0), (-2.0, 0.5, 2.0), (0.5, -1.0, 0.25))
    bump = ora.PiecewiseLinear(-2.0, 0.1, bump_vals)
    gp = ora.gaussian_power_scale(0.5, 2.0)
    return [
        ("dirac(0,1) p=2", lh.dirac_difference(0.0, 1.0, p=2.0), lambda t: ora.box_conv_l2(1.0, t)),
        # nonnegative data: the heat flow conserves the L^1 norm exactly
        ("dirac(-1,1) p=1", lh.dirac_difference(-1.0, 1.0, p=1.0), lambda t: 2.0),
        ("indicator(-3,1) p=4", lh.from_primitive(lh.Indicator(-3.0, 1.0), 4.0),
         lambda t: ora.conv_norm(ora.Steps([(1.0, -3.0, 1.0)]), t, 4.0)),
        ("step combo p=1", lh.from_primitive(lh.StepCombo(steps), 1.0),
         lambda t: ora.conv_norm(ora.Steps(steps), t, 1.0)),
        ("kernel power (1,1) p=2", lh.from_primitive(lh.GaussianPower(1.0, 1.0), 2.0),
         lambda t: ora.kernel_lq_norm(1.0 + t, 2.0)),
        ("kernel power (0.5,2) p=3", lh.from_primitive(lh.GaussianPower(0.5, 2.0), 3.0),
         lambda t: gp * ora.kernel_lq_norm(0.25 + t, 3.0)),
        ("sampled bump p=2", lh.from_primitive(lh.sample(bump_vals, -2.0, 0.1), 2.0),
         lambda t: ora.conv_norm(bump, t, 2.0)),
    ]


GENERATORS = {"evolve": gen_evolve, "slowtail": gen_slowtail, "verify": gen_verify}
