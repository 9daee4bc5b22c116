"""Guards on the shape of the source tree."""

import ast
from pathlib import Path

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
