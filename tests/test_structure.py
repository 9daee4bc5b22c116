"""Guards on the shape of the source tree."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import lpheat

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lpheat"
_NORM_INTERNALS = {"_integrate", "_panels", "_scan_refine_max"}


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_lp_space_touches_the_window_norm():
    # one L^p norm path: every other module goes through lp_norm or
    # combo_lp_norm, so a module with its own seeded quadrature, scan or
    # scale shows here (quadrature defines the seeding, lp_space uses it)
    modules = sorted(_PACKAGE.glob("*.py"))
    assert {"lp_space.py", "quadrature.py"} <= {m.name for m in modules}
    offenders = {}
    for path in modules:
        if path.stem not in ("lp_space", "quadrature"):
            used = _NORM_INTERNALS & set(_referenced_names(ast.parse(path.read_text())))
            if used:
                offenders[path.name] = sorted(used)
    assert offenders == {}


def _atom_kernel_copies(tree, module):
    """What only kernel.py may hold: the atom kernel's erfc and exp helpers
    named, and its far-field clip ``1e3 * sqrt(...)`` built; in ``_energy``
    also an import from lp_space."""
    found = [f"names {name}" for name in sorted({"_erfc", "_exp_neg_square"} & set(_referenced_names(tree)))]
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right)
            if any(isinstance(s, ast.Constant) and s.value == 1e3 for s in sides) and any(
                    isinstance(s, ast.Call) and "sqrt" in (getattr(s.func, "attr", None), getattr(s.func, "id", None))
                    for s in sides):
                found.append(f"line {node.lineno}: 1e3 * sqrt")
        elif module == "_energy" and isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if any(name.rsplit(".", 1)[-1] == "lp_space" for name in names):
                found.append(f"line {node.lineno}: imports lp_space")
    return found


def test_only_kernel_holds_the_atom_kernel():
    # one atom kernel: the flows of piecewise-linear data and Gaussian powers
    # and the energy identity's pair sums all go through kernel._smoothing, so
    # a second copy of its helpers or of its clip shows here
    offenders = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        found = _atom_kernel_copies(ast.parse(path.read_text()), path.stem)
        if path.name == "kernel.py":
            assert sorted(f.split(": ")[-1] for f in found) == ["1e3 * sqrt", "names _erfc", "names _exp_neg_square"]
        elif found:
            offenders[path.name] = found
    assert offenders == {}


def test_atom_kernel_guard_sees_what_it_forbids():
    source = """
import math
from .lp_space import _erfc
from . import lp_space
def flow(x, t):
    edge = 1e3 * math.sqrt(t)
    return _exp_neg_square(x / edge) * (sqrt(t) * 1e3)
"""
    found = _atom_kernel_copies(ast.parse(source), "_energy")
    assert sorted(found) == ["line 3: imports lp_space", "line 4: imports lp_space", "line 6: 1e3 * sqrt",
                             "line 7: 1e3 * sqrt", "names _erfc", "names _exp_neg_square"]
    assert sorted(_atom_kernel_copies(ast.parse(source), "lp_space")) == sorted(
        f for f in found if not f.endswith("lp_space"))


def _flow_special_cases(tree):
    """Classes other than ``PrimitiveFunction`` that define ``heat_flow``, and
    any ``_kernel_multiple`` defined or named."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name != "PrimitiveFunction":
            if any(isinstance(f, ast.FunctionDef) and f.name == "heat_flow" for f in node.body):
                yield f"line {node.lineno}: {node.name}.heat_flow"
        elif isinstance(node, ast.FunctionDef) and node.name == "_kernel_multiple":
            yield f"line {node.lineno}: def _kernel_multiple"
    if "_kernel_multiple" in set(_referenced_names(tree)):
        yield "names _kernel_multiple"


def test_one_heat_flow_over_the_atoms():
    # a Gaussian power is one kernel atom, so every closed-form flow is the
    # base class's sum over _flow_atoms and no norm route asks for a multiple
    # of the kernel
    offenders = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        found = list(_flow_special_cases(ast.parse(path.read_text())))
        if found:
            offenders[path.name] = found
    assert offenders == {}


def test_flow_guard_sees_what_it_forbids():
    source = """
class PrimitiveFunction:
    def heat_flow(self, t, xs, order=0):
        return None
class GaussianPower(PrimitiveFunction):
    def heat_flow(self, t, xs, order=0):
        return self._kernel_multiple()
    def _kernel_multiple(self):
        return 1.0, self.t
"""
    assert list(_flow_special_cases(ast.parse(source))) == [
        "line 5: GaussianPower.heat_flow", "line 8: def _kernel_multiple", "names _kernel_multiple"]


def _block_bounds(tree):
    """Module-level names that end in ``_ENTRIES`` or ``_POINTS``: a bound on
    the size of a batched temporary."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for name in ast.walk(node):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) and name.id.endswith(
                        ("_ENTRIES", "_POINTS")):
                    yield f"line {node.lineno}: {name.id}"


def test_only_quadrature_bounds_a_block():
    # one block bound: the quadrature, the semigroup rows, the energy sums
    # and the piecewise-linear flows all size their batches from
    # quadrature._BLOCK_ENTRIES, so a second bound shows here
    found = {path.stem: list(_block_bounds(ast.parse(path.read_text()))) for path in sorted(_PACKAGE.glob("*.py"))}
    assert [f.split(": ")[1] for f in found.pop("quadrature")] == ["_BLOCK_ENTRIES"]
    assert {stem: lines for stem, lines in found.items() if lines} == {}


def test_block_bound_guard_sees_what_it_forbids():
    source = """
_FLOW_ENTRIES = 1 << 14
_FLOW_POINTS: int = 1 << 10
_A, (_B_ENTRIES, _C) = 1, (2, _D_POINTS)
def flow(xs):
    _LOCAL_POINTS = 4
    return xs
class Flow:
    _CLASS_ENTRIES = 5
"""
    assert list(_block_bounds(ast.parse(source))) == ["line 2: _FLOW_ENTRIES", "line 3: _FLOW_POINTS",
                                                     "line 4: _B_ENTRIES"]


def _per_element_python(tree):
    """Calls of np.frompyfunc / np.vectorize, and golden-section helpers: a
    function named for it, or the golden ratio as sqrt(5) or 0.618.../1.618..."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("frompyfunc", "vectorize"):
                yield f"line {node.lineno}: {node.func.attr}"
            elif node.func.attr == "sqrt" and [ast.literal_eval(a) for a in node.args if isinstance(a, ast.Constant)] == [5]:
                yield f"line {node.lineno}: sqrt(5)"
        elif isinstance(node, ast.FunctionDef) and "golden" in node.name.lower():
            yield f"line {node.lineno}: def {node.name}"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            if any(abs(node.value - g) < 1e-3 for g in (0.6180339887, 1.6180339887)):
                yield f"line {node.lineno}: golden ratio {node.value}"


def test_no_per_element_python_on_the_vectorized_path():
    # elementwise work goes through numpy or one map over a list, and a
    # maximum search evaluates a batched bracket per call (lp_space._bracket_max),
    # not one point per call
    offenders = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        found = list(_per_element_python(ast.parse(path.read_text())))
        if found:
            offenders[path.name] = found
    assert offenders == {}


def test_per_element_guard_sees_what_it_forbids():
    source = """
import math
import numpy as np
_F = np.frompyfunc(math.erfc, 1, 1)
_G = np.vectorize(math.erf)
def _golden_max(fn, lo, hi):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
def search(fn):
    return 0.618034
"""
    found = sorted(f.split(": ", 1)[1] for f in _per_element_python(ast.parse(source)))
    assert found == ["def _golden_max", "frompyfunc", "golden ratio 0.618034", "sqrt(5)", "vectorize"]


# The names ``import lpheat`` offers, modules aside.  Adding or removing one
# is a deliberate edit of this set, as with the suite row table in
# test_estimates.py; a helper only tests reach belongs in tests/.
_PUBLIC_SURFACE = {
    "ApproximationError", "DomainError", "LpHeatError", "MembershipError", "QuadratureAccuracyError",
    "SearchFailureError", "UnsupportedOrderError",
    "ExponentTriple", "K_const", "L_const", "M_const", "beta_extremizer", "c_const", "conjugate", "r_from",
    "young_constant",
    "MAX_DERIV_ORDER", "alpha_coefficient", "delta_coefficient", "semigroup_residual", "theta_deriv_norm_closed",
    "theta_norm_closed",
    "DEFAULT_CONFIG", "QuadratureConfig", "integrate",
    "GaussianPower", "Indicator", "PrimitiveFunction", "Sampled", "StepCombo", "TailLog", "TruncatedSine",
    "combo_lp_norm", "lp_norm", "primitive_from_json", "sample",
    "LprimeElement", "StepApproximation", "dirac_difference", "element_from_json", "from_primitive", "lprime_norm",
    "pairing", "step_approximation",
    "convolution_lp_norm", "convolve_point",
    "TestFunction", "gaussian_test_function", "ic_convergence", "pde_residual", "solution_primitive_norm",
    "solve_values", "weak_ic_check",
    "EstimateReport", "NonmembershipEvidence", "continuity_bound", "decay_bound_check", "nonmembership_probe",
    "rate_sharpness", "run_suite", "sign_change", "variation_lower_bound", "verify_lprime_bound", "verify_lr_bound",
    "young_equality_gap", "zero_integral",
}


def test_piecewise_linear_constructors_only_supply_knots():
    # step data and sampled grids are one model: the public constructors and
    # the step knots between them define none of its methods
    from lpheat.lp_space import _PiecewiseLinear

    owned = ("heat_flow", "finite_lp_norm", "sup_bound", "_flow_atoms", "breakpoints", "effective_support")
    for cls in (lpheat.Indicator, lpheat.StepCombo, lpheat.Sampled):
        between = cls.__mro__[:cls.__mro__.index(_PiecewiseLinear)]
        assert [(k.__name__, name) for k in between for name in owned if name in vars(k)] == []


def test_public_surface_is_frozen():
    public = {name for name, obj in vars(lpheat).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == _PUBLIC_SURFACE


def test_importing_the_package_and_cli_leaves_the_energy_module_unloaded():
    # the exact-norm module is imported on the first p = 1 or p = 2 norm, so
    # set-up (import lpheat, lpheat.cli) does not compile it
    code = "import sys, lpheat, lpheat.cli; print('lpheat._energy' in sys.modules)"
    env_path = str(_PACKAGE.parent)
    out = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {env_path!r}); {code}"],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _report_constructions(tree):
    """Lines that call ``EstimateReport(...)`` directly."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "EstimateReport":
                yield node.lineno


def test_reports_are_built_by_make_report():
    # perfbench's tracer counts estimates.checks from calls of
    # report.make_report, found through sys.modules["lpheat.report"]; a row
    # constructed any other way drops out of that count
    offenders = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.name != "report.py":
            lines = list(_report_constructions(ast.parse(path.read_text())))
            if lines:
                offenders[path.name] = lines
    assert offenders == {}
    report = sys.modules["lpheat.report"]
    assert inspect.ismodule(report) and report is lpheat.report
    assert inspect.isfunction(report.make_report) and report.make_report.__module__ == "lpheat.report"
    assert lpheat.estimates.make_report is report.make_report


def test_report_guard_sees_what_it_forbids():
    source = """
from .report import EstimateReport
from . import report
def row(m):
    return EstimateReport("x", m, 1.0, m, True)
def other(m):
    return report.EstimateReport("x", m, 1.0, m, True)
"""
    assert sorted(_report_constructions(ast.parse(source))) == [5, 7]
