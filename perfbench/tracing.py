"""Per-layer spans and counters for lpheat, recorded from outside the package.

``Tracer.install`` replaces every public function of each lpheat module by
a wrapper, in every ``lpheat`` module namespace that binds it (names are
bound at import, so ``convolve.convolve_point`` is also patched where
``heat_solver`` and ``estimates`` imported it), and wraps ``values`` on
each ``PrimitiveFunction`` subclass.  ``uninstall`` restores the originals.
Integrands handed to ``integrate`` / ``composite_gk15`` are wrapped too, so
their own time is charged to the layer that built them and every node and
panel is counted.

A span has a name, a layer, a parent span and an op id.  Calls with the
same name under the same parent span in one op are merged into one record
holding the call count, total and self time and the first start and last
end: the inner quadrature loop makes millions of calls per op, and merging
keeps memory bounded by the number of distinct call paths.  A span's self
time is its total time minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYER_OF_MODULE = {
    "lpheat.cli": "cli",
    "lpheat.estimates": "estimates",
    "lpheat.report": "estimates",
    "lpheat.heat_solver": "heat_solver",
    "lpheat.convolve": "convolve",
    "lpheat.lprime": "lprime",
    "lpheat.lp_space": "lp_space",
    "lpheat.kernel": "kernel",
    "lpheat.quadrature": "quadrature",
    "lpheat.constants": "constants",
}
LAYERS = ("cli", "estimates", "heat_solver", "convolve", "lprime", "lp_space", "kernel", "quadrature",
          "constants")
# kernel entry points that evaluate theta or its derivatives at points
_KERNEL_EVAL = {f"kernel.{n}" for n in ("theta_values", "theta_deriv_values", "theta", "theta_deriv",
                                        "theta_time_deriv", "theta_power")}
_VECTOR_KERNEL = {"kernel.theta_values", "kernel.theta_deriv_values"}


class Span:
    __slots__ = ("id", "name", "layer", "parent", "op", "children", "count", "total", "child", "start",
                 "end")

    def __init__(self, sid, name, layer, parent, op):
        self.id, self.name, self.layer, self.parent, self.op = sid, name, layer, parent, op
        self.children = {}
        self.count = 0
        self.total = self.child = 0.0
        self.start = self.end = None

    def record(self, t0):
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "parent": None if self.parent is None else self.parent.id, "op": self.op,
            "count": self.count, "start_s": self.start - t0, "end_s": self.end - t0,
            "total_s": self.total, "self_s": self.total - self.child,
        }


class Tracer:
    def __init__(self, quadrature_error: type):
        self._quad_error = quadrature_error
        self._patched: list[tuple[object, str, object]] = []
        # the wrappers hold on to this Counter, so reset clears it in place
        self.counts: Counter = Counter()
        self.reset()

    def reset(self):
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self.counts.clear()
        self._stack: list[Span] = []
        self._frames = 0  # active integrate calls
        self._in_point = 0  # active convolve_point calls
        self.origin = perf_counter()

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, op_id: int, label: str):
        root = self._new(label, "bench", None, op_id)
        root.start = perf_counter()
        self.roots.append(root)
        self._stack = [root]

    def end_op(self):
        root = self._stack[0]
        root.end = perf_counter()
        root.count = 1
        root.total = root.end - root.start
        self._stack = []

    def _new(self, name, layer, parent, op) -> Span:
        span = Span(len(self.spans), name, layer, parent, op)
        self.spans.append(span)
        return span

    def _enter(self, name, layer):
        parent = self._stack[-1]
        span = parent.children.get(name)
        if span is None:
            span = parent.children[name] = self._new(name, layer, parent, parent.op)
        self._stack.append(span)
        return parent, span, perf_counter()

    def _exit(self, parent, span, t0):
        t1 = perf_counter()
        self._stack.pop()
        d = t1 - t0
        span.count += 1
        span.total += d
        parent.child += d
        if span.start is None:
            span.start = t0
        span.end = t1

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, layer, hook=None):
        def wrapper(*args, **kwargs):
            if not self._stack:  # called outside an op (set-up code)
                return fn(*args, **kwargs)
            parent, span, t0 = self._enter(name, layer)
            if hook is not None:
                hook(parent, args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(parent, span, t0)

        return wrapper

    def _integrand(self, f, depth, panels):
        layer = self._stack[-1].layer if self._stack else "bench"
        name = f"{layer}.integrand"
        counts = self.counts

        def integrand(x):
            n = np.size(x)
            panels[0] += 1
            counts["quadrature.nodes"] += n
            if depth > 1:
                counts["quadrature.nested_nodes"] += n
            if self._in_point:
                counts["convolve.nodes"] += n
            if not self._stack:
                return f(x)
            parent, span, t0 = self._enter(name, layer)
            try:
                return f(x)
            finally:
                self._exit(parent, span, t0)

        return integrand

    def _wrap_integrate(self, fn):
        spanned = self._span_wrapper(fn, "quadrature.integrate", "quadrature")
        counts = self.counts

        def integrate(f, a, b, *rest, **kwargs):
            # signature integrate(f, a, b, cfg=..., points=()); points may be
            # any iterable, so materialise it once for both counting and the call
            if len(rest) > 1:
                pts = tuple(rest[1])
                rest = (rest[0], pts) + rest[2:]
            else:
                pts = tuple(kwargs.get("points", ()))
                if "points" in kwargs:
                    kwargs["points"] = pts
            lo, hi = min(a, b), max(a, b)
            initial = 0 if a == b else 1 + len({float(p) for p in pts if lo < float(p) < hi})
            panels = [0]
            self._frames += 1
            g = self._integrand(f, self._frames, panels)
            try:
                return spanned(g, a, b, *rest, **kwargs)
            except self._quad_error:
                counts["quadrature.budget_failures"] += 1
                raise
            finally:
                self._frames -= 1
                splits = max(0, (panels[0] - initial) // 2)
                counts["quadrature.calls"] += 1
                counts["quadrature.panels"] += panels[0]
                counts["quadrature.subdivisions"] += splits
                counts["quadrature.leaves"] += min(panels[0], initial + splits)

        return integrate

    def _wrap_composite(self, fn):
        spanned = self._span_wrapper(fn, "quadrature.composite_gk15", "quadrature")
        counts = self.counts

        def composite_gk15(f, edges):
            n_panels = max(0, np.size(edges) - 1)
            g = self._integrand(f, self._frames + 1, [0])
            try:
                return spanned(g, edges)
            finally:
                counts["quadrature.calls"] += 1
                counts["quadrature.panels"] += n_panels
                counts["quadrature.leaves"] += n_panels

        return composite_gk15

    def _wrap_point(self, fn):
        spanned = self._span_wrapper(fn, "convolve.convolve_point", "convolve")

        def convolve_point(*args, **kwargs):
            self.counts["convolve.point_calls"] += 1
            self._in_point += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                self._in_point -= 1

        return convolve_point

    def _hook_for(self, name):
        counts = self.counts
        if name in _KERNEL_EVAL:
            def kernel(parent, args, kwargs):
                if parent.name not in _KERNEL_EVAL:  # count entries, not the recurrence's own calls
                    counts["kernel.calls"] += 1
                    counts["kernel.points"] += np.size(args[0]) if name in _VECTOR_KERNEL else 1
            return kernel
        if name in ("heat_solver.solve_at", "heat_solver.solve_values"):
            def solve(parent, args, kwargs):
                n = 1 if name.endswith("solve_at") else np.size(args[2] if len(args) > 2 else kwargs["xs"])
                counts["heat_solver.points"] += n
                f = args[0] if args else kwargs["f"]
                if f.atoms is not None:
                    counts["heat_solver.closed_form_points"] += n
            return solve
        if name == "convolve.convolution_lp_norm":
            return lambda parent, args, kwargs: counts.update(("convolve.norm_calls",))
        if name == "report.make_report":
            return lambda parent, args, kwargs: counts.update(("estimates.checks",))
        return None

    def _values_hook(self, parent, args, kwargs):
        self.counts["lp_space.values_calls"] += 1
        self.counts["lp_space.values_points"] += np.size(args[1] if len(args) > 1 else kwargs["x"])

    # -- install ------------------------------------------------------------

    def install(self, primitive_base: type):
        wrappers = {}
        for modname, layer in LAYER_OF_MODULE.items():
            mod = sys.modules[modname]
            short = modname.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                name = f"{short}.{attr}"
                if name == "quadrature.integrate":
                    wrappers[obj] = self._wrap_integrate(obj)
                elif name == "quadrature.composite_gk15":
                    wrappers[obj] = self._wrap_composite(obj)
                elif name == "convolve.convolve_point":
                    wrappers[obj] = self._wrap_point(obj)
                else:
                    wrappers[obj] = self._span_wrapper(obj, name, layer, self._hook_for(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "lpheat" and not modname.startswith("lpheat."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for cls in _subclasses(primitive_base):
            fn = cls.__dict__.get("values")
            if fn is not None:
                self._patched.append((cls, "values", fn))
                setattr(cls, "values", self._span_wrapper(fn, f"lp_space.{cls.__name__}.values", "lp_space",
                                                          self._values_hook))

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched = []

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            if span.layer in out:
                out[span.layer] += span.total - span.child
        return out

    def uncovered(self):
        """(op id, wall seconds, seconds outside every layer span) per op."""
        return [(root.op, root.total, root.total - root.child) for root in self.roots]

    def records(self):
        return [span.record(self.origin) for span in self.spans if span.start is not None]


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
