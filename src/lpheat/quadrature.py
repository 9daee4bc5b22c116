"""Adaptive Gauss-Kronrod quadrature.

Each subinterval is integrated with the (G7, K15) rule pair.  The
absolute difference between the 15-point Kronrod value and the embedded
7-point Gauss value serves as the interval error estimate; for smooth
integrands it overestimates the true error of the Kronrod value, so the
reported value is conservative.  The interval with the largest estimate
is bisected until the summed estimate meets the requested tolerance.

Integrands must accept a numpy array of nodes and return an array of
the same shape.  Known discontinuities or kinks should be passed as
``points`` so the initial partition starts on them; the subdivision
loop then never has to hunt for a jump.

The bisection loop is serial: pop the panel with the largest error,
replace it by its halves, stop when the summed error meets the
tolerance.  Only the evaluation is batched.  The loop
(``_bisection``) is a generator that asks its driver for panels: first
the seed partition, then, whenever it needs halves it has not got, one
round with the halves of the popped panel and of every other panel it
must still split before it can stop (its own error is above the
stopping threshold and it is not at the width floor); later splits read
them back.  A round also holds the quarters of each such panel whose
error is over ``_AHEAD_RATIO`` = 2^15 stopping limits.  The G7 rule is
exact for degree 13, so on a smooth integrand its error on a panel of
width h, and with it the K15-G7 estimate, goes as h^15: one halving
divides a panel's estimate by about 2^15, and both halves of such a
panel would still be over the limit.  ``np.vecdot`` reduces each panel
with ``_gk15``'s BLAS ddot, so values, errors, the panels split and the
``QuadratureAccuracyError`` raised are those of a loop that calls
``_gk15`` twice per split, bit for bit, for integrands evaluated node
by node; only the number of integrand calls falls.  An integrand that
raises can therefore raise on a panel the serial loop never evaluates,
such as a quarter whose half converges.

Two drivers serve the loop.  ``integrate`` runs one integral: its seed
partition one panel per integrand call, each round in one call; the
norm integrals (``lp_space.combo_lp_norm``) hand their seeds to one
call too.  ``_lockstep`` runs a family of integrals ``f(u, c)``, one per
argument ``c`` (``convolve.convolve_values`` on data without a closed
form: one per point): each one's seeds one panel per call, as
``integrate`` takes them, then one call per round for all of them
together, each node with its own integral's argument.

``composite_gk15`` also takes a 2-D ``edges``, one row of panel edges
per integral, and returns a value and a K15-G7 error per row; callers
redo the rows whose error is over tolerance with ``integrate``.
Integrands are called on at most ``_BLOCK_ENTRIES`` nodes at a time.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .exceptions import DomainError, LpHeatError, QuadratureAccuracyError

# K15 abscissae on [0, 1] side and weights (QUADPACK values); the
# odd-indexed abscissae carry the embedded G7 rule.
_XGK_HALF = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK_HALF = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG_HALF = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

_NODES = np.array([-x for x in _XGK_HALF[:-1]] + [0.0] + [x for x in reversed(_XGK_HALF[:-1])])
_WK = np.array(list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(reversed(_WGK_HALF[:-1])))
_G7_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array(list(_WG_HALF[:-1]) + [_WG_HALF[-1]] + list(reversed(_WG_HALF[:-1])))

_BLOCK_ENTRIES = 1 << 16  # bound on the entries of a batched temporary (nodes, or points x nodes)
_TAIL_SIGMAS = 10.0  # windows reach this many standard deviations past the support
_AHEAD_RATIO = 2.0**15  # a due panel's quarters are evaluated with its halves above this many stopping limits


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for every integral in the package.

    Gaussian factors are truncated ``_TAIL_SIGMAS`` (ten) standard
    deviations past the relevant support, where the neglected
    closed-form remainder is far below ``abs_tol``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 512

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise DomainError("quadrature tolerances must be positive and finite")
        try:  # NaN, inf or 2.5 would never meet the budget test splits >= max_subdivisions
            if operator.index(self.max_subdivisions) < 1:
                raise DomainError("max_subdivisions must be at least 1")
        except TypeError:
            raise DomainError("max_subdivisions must be an integer") from None

    def kernel_width(self, t: float) -> float:
        """Half-width ``_TAIL_SIGMAS * sqrt(2 t)`` of the window kept around theta_t."""
        return _TAIL_SIGMAS * math.sqrt(2.0 * t)


DEFAULT_CONFIG = QuadratureConfig()


def _gk15(f: Callable, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * _NODES), dtype=float)
    kron = half * float(y @ _WK)
    gauss = half * float(y[_G7_IDX] @ _WG)
    return kron, abs(kron - gauss)


def integrate(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    points: Iterable[float] = (),
) -> tuple[float, float]:
    """Integrate ``f`` over ``[a, b]``; returns ``(value, error_estimate)``.

    Raises :class:`QuadratureAccuracyError` when the tolerance cannot be
    met within ``cfg.max_subdivisions`` interval splits, unless the
    remaining error estimate is below 64 eps times the summed magnitudes
    of the panel values, the rounding floor of the sum itself, or when a
    panel at the width floor 64 eps max(|a|, |b|, 1) keeps an error above it.
    """
    return _integrate(f, a, b, cfg, points, _seed_each)


def _seed_each(f: Callable, lo: list[float], hi: list[float]) -> list[tuple[float, float]]:
    """``_gk15`` on each seed panel ``[lo[k], hi[k]]``, one call of ``f`` per panel."""
    return [_gk15(f, a, b) for a, b in zip(lo, hi)]


def _panels(
    f: Callable, lo: Sequence[float], hi: Sequence[float], args: np.ndarray | None = None
) -> list[tuple[float, float]]:
    """``_gk15`` on every panel ``[lo[k], hi[k]]`` from one call of ``f`` per
    block of at most ``_BLOCK_ENTRIES`` nodes.  ``np.vecdot`` takes the BLAS
    ddot of ``_gk15``'s 1-D products per row (a 2-D matmul takes gemv, which
    rounds differently; the G7 copy is C-contiguous to stay on ddot), so every
    ``(value, error)`` equals ``_gk15``'s bit for bit whenever ``f``'s value at
    a node does not depend on the other nodes of the call.  With ``args``,
    one argument per panel, ``f`` is called as ``f(u, c)`` with ``c`` the
    argument of each node's panel."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    step = _BLOCK_ENTRIES // _NODES.size
    out = []
    for i in range(0, lo.size, step):
        h, m = half[i : i + step], mid[i : i + step]
        u = (m[:, None] + h[:, None] * _NODES).ravel()
        y = f(u) if args is None else f(u, np.repeat(args[i : i + step], _NODES.size))
        ys = np.asarray(y, dtype=float).reshape(h.size, -1)
        kron = h * np.vecdot(ys, _WK)
        gauss = h * np.vecdot(np.ascontiguousarray(ys[:, _G7_IDX]), _WG)
        out += zip(kron.tolist(), np.abs(kron - gauss).tolist())
    return out


def _integrate(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig,
    points: Iterable[float],
    seed: Callable[[Callable, list[float], list[float]], list[tuple[float, float]]],
) -> tuple[float, float]:
    """One integral's driver of ``_bisection``: the seed panels evaluated by
    ``seed(f, lo, hi)`` (``_seed_each``, one panel per call, for
    ``integrate``; ``_panels``, one call, for the norm integrals) and each
    round by one ``_panels`` call.  ``_lockstep`` batches the rounds of many
    integrals instead."""
    core = _bisection(a, b, cfg, points)
    evaluate = seed
    try:
        request = next(core)
        while True:
            request = core.send(evaluate(f, *request))
            evaluate = _panels
    except StopIteration as done:
        return done.value


def _lockstep(
    f: Callable,
    args: np.ndarray,
    bounds: Iterable[tuple[float, float]],
    cfg: QuadratureConfig,
    points: Iterable[float],
) -> list[tuple[float, float]]:
    """``integrate`` of ``u -> f(u, c)`` over ``[a, b]`` for each ``c`` of
    ``args`` and ``(a, b)`` of ``bounds``, with every row's bisection run in
    step.  A row's seed panels take one call of ``f(u, c)`` each, as
    ``integrate`` takes them; then each round's halves and quarters of all
    rows go to one ``_panels`` call, where ``f(u, c)`` gets each node's row
    argument in ``c``.  So each row's ``(value, error)``, listed in row order,
    is ``integrate``'s bit for bit when ``f`` works node by node.  Where rows
    fail, the error of the first failing row is raised, as a loop over the
    rows would raise it; the rows after it are dropped when it fails.  Rows
    run in chunks of ``_BLOCK_ENTRIES // 128`` (512): a bisection in flight
    keeps its panels, about 8 kB for a slow-tail point, and a chunk's round
    of a few panels a row fills about one block."""
    points, bounds = tuple(points), list(bounds)
    step = _BLOCK_ENTRIES // 128
    out = []
    for i in range(0, len(bounds), step):
        out += _lockstep_rows(f, args[i : i + step], bounds[i : i + step], cfg, points)
    return out


def _lockstep_rows(f, args, bounds, cfg, points):
    """One chunk of ``_lockstep``: its rows' bisections in step."""
    cores = [_bisection(a, b, cfg, points) for a, b in bounds]
    out: list = [None] * len(cores)
    error = None
    active = []  # (row, its core's pending request), in row order
    for k, core in enumerate(cores):
        try:
            request = next(core)
            active.append((k, core.send(_seed_each(lambda u, c=args[k]: f(u, c), *request))))
        except StopIteration as done:
            out[k] = done.value
        except LpHeatError as exc:
            error = exc
            break
    while active:
        rows = [k for k, _ in active]
        sizes = [len(lo) for _, (lo, _) in active]
        flat = _panels(f, [x for _, (lo, _) in active for x in lo], [x for _, (_, hi) in active for x in hi],
                       np.repeat(args[rows], sizes))
        start, active = 0, []
        for k, size in zip(rows, sizes):
            try:
                active.append((k, cores[k].send(flat[start : start + size])))
            except StopIteration as done:
                out[k] = done.value
            except LpHeatError as exc:
                error = exc
                break
            start += size
    if error is not None:
        raise error
    return out


def _bisection(a: float, b: float, cfg: QuadratureConfig, points: Iterable[float]):
    """The adaptive bisection of ``integrate`` as a generator: it yields the
    panels it needs as ``(lo, hi)`` lists, first the seed partition, then one
    request per round, is sent their ``(value, error)`` pairs, and returns
    ``(value, error)``.

    The bisection is serial: it pops the panel with the largest error and
    replaces it by its halves until the summed error meets the tolerance.
    The halves are read from ``halves``, keyed by panel; on a miss, one
    round requests the halves of the popped panel and of every heap panel
    that the loop must still split before it can stop (error above the
    current stopping limit, width not below the floor), and the quarters of
    each of those panels whose error is over ``_AHEAD_RATIO`` limits (two
    levels ahead: the halves' estimates, about 2^-15 of their parent's on a
    smooth integrand, would still be over the limit).  Every value is
    ``_gk15``'s, so the result does not depend on what was evaluated ahead.
    An integrand that raises can raise on a panel the loop never splits: a
    half the loop would have stopped before splitting, when the budget runs
    out or ``|total|`` grows, or a quarter evaluated ahead whose half
    converges.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if a == b:
        return 0.0, 0.0
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0

    edges = [a]
    for p in sorted(set(float(p) for p in points)):
        if a < p < b:
            edges.append(p)
    edges.append(b)

    total = 0.0
    total_err = 0.0
    heap: list[tuple[float, int, float, float, float, float]] = []
    tie = 0
    seeds = yield edges[:-1], edges[1:]
    for lo, hi, (val, err) in zip(edges[:-1], edges[1:], seeds):
        total += val
        total_err += err
        heapq.heappush(heap, (-err, tie, lo, hi, val, err))
        tie += 1

    splits = 0
    width_floor = 64 * np.finfo(float).eps * max(abs(a), abs(b), 1.0)
    halves: dict[tuple[float, float], tuple[tuple[float, float], tuple[float, float]]] = {}
    while total_err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
        if splits >= cfg.max_subdivisions:
            # a residual at the rounding level of the panel values (the
            # halves of a cancelling integral, say) is as good as it gets
            if total_err <= 64 * np.finfo(float).eps * sum(abs(item[4]) for item in heap):
                break
            raise QuadratureAccuracyError(
                "quadrature did not converge within the subdivision budget",
                value=sign * total,
                residual=total_err,
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        if hi - lo < width_floor:
            # interval is at floating-point resolution; accept its value within tolerance
            if err > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
                raise QuadratureAccuracyError("unconverged panel at floating-point resolution", sign * total, total_err)
            total_err -= err
            continue
        mid = 0.5 * (lo + hi)
        if (lo, hi) not in halves:
            limit = max(cfg.abs_tol, cfg.rel_tol * abs(total))
            due = [(lo, hi, err)] + [
                (l, h, e) for _, _, l, h, _, e in heap if e > limit and h - l >= width_floor and (l, h) not in halves
            ]
            split = []  # the panels whose halves this round evaluates
            for l, h, e in due:
                m = 0.5 * (l + h)
                split.append((l, h))
                if e > _AHEAD_RATIO * limit and m - l >= width_floor and h - m >= width_floor:
                    split += ((l, m), (m, h))
            los, his = [], []
            for l, h in split:
                m = 0.5 * (l + h)
                los += (l, m)
                his += (m, h)
            flat = yield los, his
            halves.update((panel, (flat[2 * i], flat[2 * i + 1])) for i, panel in enumerate(split))
        (v1, e1), (v2, e2) = halves.pop((lo, hi))
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, tie, lo, mid, v1, e1))
        tie += 1
        heapq.heappush(heap, (-e2, tie, mid, hi, v2, e2))
        tie += 1
        splits += 1
    return sign * total, total_err


def composite_gk15(f: Callable, edges: Sequence) -> tuple:
    """Non-adaptive K15 rule summed over the panels given by ``edges``.

    Intended for integrands whose smooth pieces are known in advance
    (one oscillation period per panel, say); all panel nodes are
    evaluated in vectorized calls of at most ``_BLOCK_ENTRIES`` nodes.
    ``edges`` of one row give ``(value, error)`` as floats.  A 2-D
    ``edges`` holds one row of panel edges per integral (all rows with the
    same panel count) and gives per-row ``(values, errors)`` arrays; ``f``
    receives every row's nodes flattened, row-major (a block at a time),
    and the error is the summed K15-G7 difference.  The node values are
    reduced together, as one array, so blocking does not move a bit.
    """
    e = np.asarray(edges, dtype=float)
    if e.ndim not in (1, 2) or e.shape[-1] < 2:
        raise DomainError("composite rule needs at least two edges")
    rows = e.reshape(-1, e.shape[-1])
    lo = rows[:, :-1]
    hi = rows[:, 1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    h, m = half.ravel(), mid.ravel()
    y = np.empty((h.size, _NODES.size))
    step = _BLOCK_ENTRIES // _NODES.size
    for i in range(0, h.size, step):
        nodes = m[i : i + step, None] + h[i : i + step, None] * _NODES
        y[i : i + step] = np.asarray(f(nodes.ravel()), dtype=float).reshape(-1, _NODES.size)
    kron = half * (y @ _WK).reshape(half.shape)
    gauss = half * (y[:, _G7_IDX] @ _WG).reshape(half.shape)
    values, errors = kron.sum(axis=1), np.abs(kron - gauss).sum(axis=1)
    if e.ndim == 1:
        return float(values[0]), float(errors[0])
    return values, errors


def geometric_edges(a: float, b: float, factor: float = 2.0) -> list[float]:
    """Geometrically spaced panel edges from ``a`` to ``b`` (both > 0)."""
    if not (0 < a < b):
        raise DomainError("geometric edges need 0 < a < b")
    edges = [a]
    x = a
    while x * factor < b:
        x *= factor
        edges.append(x)
    edges.append(b)
    return edges
