"""Command-line interface.

Subcommands:

    constants     sharp-constant table for exponent pairs, as CSV or JSON
    evolve        evaluate v_t on a grid for initial data loaded from JSON
    verify        run a verification suite and report pass/fail rows
    example-dirac solution and variation lower bound for delta_{-a} - delta_a
    report        full verification document (all suites plus constants)

Exit codes: 0 success / all checks passed, 1 verification failures,
2 usage or input errors, 3 numerical (quadrature) failure, 4 internal
error (an unexpected exception; its traceback goes to stderr).  Each
command runs with numpy's overflow warnings off: far out on an extreme
grid x^2 / 4t overflows, and exp(-inf) gives the right 0.  Reals
are serialized with 17 significant digits so CSV output round-trips
exactly; infinite exponents print as "inf".

The argument parser is built once per process, on first use, and each
subcommand runs through the module's current ``cmd_*`` function, looked
up by name on every call.  The solution tables of ``evolve`` and
``example-dirac`` are formatted whole, in one ``%`` with a
"%.17g,...\n" row format; the other numeric tables (``constants``, the
variation bound) a row at a time, one ``format(v, ".17g")`` per float.
Both give the bytes ``csv.writer`` writes for those tokens, which never
need quoting.  ``verify`` rows keep ``csv.writer``, since their
``params`` cell is JSON.  JSON documents are laid out by ``_json_text``
in the bytes of ``json.dumps(indent=2, sort_keys=True)``, with each list
of floats handed whole to the C encoder (with an indent, ``json.dumps``
runs its pure-Python encoder).

Examples:

    lpheat constants --p 2 --q 1
    lpheat evolve --data f.json --t 0.1,1 --grid=-5:5:101 --out v.csv
    lpheat verify --suite young --format json
    lpheat example-dirac --a 1 --t 0.5,0.05 --grid=-4:4:81

Grids starting at a negative coordinate need the ``--grid=`` form so the
value is not mistaken for a flag.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import traceback

import numpy as np

from .constants import M_const, beta_extremizer, c_const, K_const, L_const, r_from, young_constant
from .estimates import SUITES, run_suite, variation_lower_bound
from .exceptions import DomainError, LpHeatError, QuadratureAccuracyError
from .heat_solver import solve_values
from .kernel import alpha_coefficient, delta_coefficient
from .lprime import dirac_difference, element_from_json
from .quadrature import DEFAULT_CONFIG, QuadratureConfig


def fmt(x) -> str:
    """17-significant-digit token; round-trips doubles exactly."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")  # "inf" and "-inf" for the infinities


def _write_text(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write output file: {exc}") from None


def _write_json(doc, out: str | None):
    _write_text(_json_text(_jsonable(doc)) + "\n", out)


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` for a ``_jsonable``
    document, each line after the first prefixed with ``indent``.

    A list of floats goes to the C encoder in one ``json.dumps`` call,
    whose ", " separators become line breaks (a float token holds no ", ").
    A dict with string keys or a list is laid out here when it directly
    holds a list, so that the float lists below it reach the C encoder;
    any other value goes to ``json.dumps`` whole, in one call."""
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, list) and obj and all(type(v) is float for v in obj):
        return "[\n" + inner + json.dumps(obj)[1:-1].replace(", ", sep) + "\n" + indent + "]"
    str_keys = isinstance(obj, dict) and all(isinstance(k, str) for k in obj)
    if str_keys and any(isinstance(v, list) for v in obj.values()):
        items = [json.dumps(k) + ": " + _json_text(obj[k], inner) for k in sorted(obj)]
        return "{\n" + inner + sep.join(items) + "\n" + indent + "}"
    if isinstance(obj, list) and any(isinstance(v, list) for v in obj):
        return "[\n" + inner + sep.join([_json_text(v, inner) for v in obj]) + "\n" + indent + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _csv_table(header: list[str], rows) -> str:
    """CSV of rows of floats, with "" for an empty cell, a row at a time."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([v if isinstance(v, str) else format(v, ".17g") for v in row]))
    return "\n".join(lines) + "\n"


def _solution_csv(xs: np.ndarray, ts: list[float], columns: list[np.ndarray]) -> str:
    """The x column and one column per time, the whole table in one ``%``
    with a "%.17g,...\n" row format (the same token as ``format(v, ".17g")``)."""
    header = ",".join(["x"] + [f"v_t={fmt(t)}" for t in ts]) + "\n"
    table = np.column_stack([xs, *columns])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return header + (row * table.shape[0]) % tuple(table.ravel().tolist())


def _parse_float_token(tok: str) -> float:
    if tok.strip().lower() == "inf":
        return math.inf
    try:
        return float(tok)
    except ValueError:
        raise DomainError(f"not a number: {tok!r}") from None


def _parse_list(raw: str, what: str) -> list[float]:
    values = [_parse_float_token(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise DomainError(f"{what} list is empty")
    return values


def _parse_times(raw: str) -> list[float]:
    ts = _parse_list(raw, "t")
    if not all(t > 0 and math.isfinite(t) for t in ts):
        raise DomainError("t list must contain positive finite times")
    return ts


def _parse_grid(raw: str) -> np.ndarray:
    """The uniform grid a:b:n; DomainError where numpy cannot lay it out
    (a span b - a that overflows, or more points than an array can hold)."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise DomainError("grid must be a:b:n")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError("grid must be a:b:n with numeric a, b and integer n") from None
    if n < 2 or not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("grid needs finite a < b and n >= 2")
    if not math.isfinite(b - a):
        raise DomainError("grid span b - a overflows a float")
    try:
        return np.linspace(a, b, n)
    except (ValueError, MemoryError):
        raise DomainError(f"grid of {n} points is too large") from None


def _constants_rows(
    ps: list[float], qs: list[float], skip_invalid: bool = False
) -> tuple[list[str], list[list]]:
    header = ["p", "q", "r", "alpha_q", "delta_q", "c_p", "C", "K", "L", "M", "beta"]
    rows = []
    for p in ps:
        for q in qs:
            try:
                tr = r_from(p, q)
            except DomainError:
                if skip_invalid:
                    continue
                raise
            m_val = "" if math.isinf(p) else M_const(p)
            rows.append(
                [
                    tr.p,
                    tr.q,
                    tr.r,
                    alpha_coefficient(q),
                    delta_coefficient(q),
                    c_const(p),
                    young_constant(tr),
                    K_const(tr),
                    L_const(tr),
                    m_val,
                    beta_extremizer(p, q),
                ]
            )
    return header, rows


def cmd_constants(args) -> int:
    ps = _parse_list(args.p, "p")
    qs = _parse_list(args.q, "q")
    header, rows = _constants_rows(ps, qs)
    if args.format == "json":
        _write_json([dict(zip(header, row)) for row in rows], args.out)
    else:
        _write_text(_csv_table(header, rows), args.out)
    return 0


def _load_element(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read data file: {exc}")
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DomainError(f"malformed JSON in data file: {exc}")
    return element_from_json(data)


def cmd_evolve(args) -> int:
    f = _load_element(args.data)
    ts = _parse_times(args.t)
    xs = _parse_grid(args.grid)
    cfg = _config_from_args(args)
    columns = [solve_values(f, t, xs, cfg) for t in ts]
    if args.format == "json":
        _write_json({"x": xs, "t": ts, "values": columns}, args.out)
    else:
        _write_text(_solution_csv(xs, ts, columns), args.out)
    return 0


def _report_csv(reports) -> str:
    """verify rows through csv.writer, which quotes the JSON ``params`` cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "measured", "bound", "ratio", "passed", "tolerance", "params"])
    for rep in reports:
        params = json.dumps(_jsonable(rep.params), sort_keys=True)
        cells = (rep.name, rep.measured, rep.bound, rep.ratio, rep.passed, rep.tolerance, params)
        writer.writerow([fmt(v) for v in cells])
    return buf.getvalue()


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, DEFAULT_CONFIG, args.tol)
    if args.format == "json":
        _write_json([rep.as_dict() for rep in reports], args.out)
    else:
        _write_text(_report_csv(reports), args.out)
    failures = [rep for rep in reports if not rep.passed]
    for rep in failures:
        sys.stderr.write(f"FAIL {rep.name} measured={fmt(rep.measured)} bound={fmt(rep.bound)}\n")
    return 1 if failures else 0


def cmd_example_dirac(args) -> int:
    if args.a <= 0:
        raise DomainError("offset a must be positive")
    ts = _parse_times(args.t)
    xs = _parse_grid(args.grid)
    f = dirac_difference(-args.a, args.a, p=2.0)
    columns = [solve_values(f, t, xs) for t in ts]
    bounds = variation_lower_bound(args.a, ts)
    if args.format == "json":
        doc = {"a": args.a, "t": ts, "x": xs, "values": columns, "variation_lower_bound": bounds}
        _write_json(doc, args.out)
    else:
        vtext = _csv_table(["t", "variation_lower_bound"], zip(ts, bounds))
        _write_text(_solution_csv(xs, ts, columns) + vtext, args.out)
    return 0


def cmd_report(args) -> int:
    reports = run_suite("all", DEFAULT_CONFIG, args.tol)
    header, rows = _constants_rows([1.0, 1.5, 2.0, 3.0], [1.0, 4.0 / 3.0, 1.5, 2.0], skip_invalid=True)
    doc = {
        "constants": [dict(zip(header, row)) for row in rows],
        "reports": [rep.as_dict() for rep in reports],
        "all_passed": all(rep.passed for rep in reports),
    }
    _write_json(doc, args.out)
    return 0 if doc["all_passed"] else 1


def _jsonable(obj):
    """Floats to round-trip tokens JSON accepts, inf to the string 'inf',
    arrays to lists."""
    if isinstance(obj, np.ndarray):
        # one tolist() call; the per-element walk only where an inf needs its token
        return [_jsonable(v) for v in obj.tolist()] if np.isinf(obj).any() else obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _config_from_args(args) -> QuadratureConfig:
    if args.tol is None:
        return DEFAULT_CONFIG
    return QuadratureConfig(abs_tol=args.tol, rel_tol=max(args.tol, 1e-14))


def tolerance(raw: str) -> float:
    """argparse type shared by every --tol flag."""
    tol = float(raw)
    if not (tol > 0 and math.isfinite(tol)):
        raise argparse.ArgumentTypeError("tolerance must be positive and finite")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpheat",
        description="Heat evolution and estimate verification for derivative-of-L^p initial data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("constants", help="sharp-constant table for exponent pairs")
    pc.add_argument("--p", required=True, help="comma-separated exponents in [1, inf]")
    pc.add_argument("--q", required=True, help="comma-separated exponents in [1, inf]")
    pc.add_argument("--out", default=None)
    pc.add_argument("--format", choices=("csv", "json"), default="csv")

    pe = sub.add_parser("evolve", help="evaluate the solution on a grid")
    pe.add_argument("--data", required=True, help="JSON element descriptor file")
    pe.add_argument("--t", required=True, help="comma-separated positive times")
    pe.add_argument("--grid", required=True, help="a:b:n uniform grid")
    pe.add_argument("--tol", type=tolerance, default=None, help="quadrature absolute tolerance")
    pe.add_argument("--out", default=None)
    pe.add_argument("--format", choices=("csv", "json"), default="csv")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", default="all", help=f"all, {', '.join(SUITES)}")
    pv.add_argument("--tol", type=tolerance, default=None, help="override every check's acceptance threshold")
    pv.add_argument("--out", default=None)
    pv.add_argument("--format", choices=("csv", "json"), default="csv")

    pd = sub.add_parser("example-dirac", help="dirac-difference solution and variation bound")
    pd.add_argument("--a", type=float, default=1.0)
    pd.add_argument("--t", default="1.0,0.1,0.01")
    pd.add_argument("--grid", default="-5:5:101")
    pd.add_argument("--out", default=None)
    pd.add_argument("--format", choices=("csv", "json"), default="csv")

    pr = sub.add_parser("report", help="full verification document (JSON)")
    pr.add_argument("--tol", type=tolerance, default=None, help="override every check's acceptance threshold")
    pr.add_argument("--out", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors already
        return int(exc.code or 0)
    # the current binding, so a function replaced after the parser was built runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        # far out on an extreme grid x^2 / 4t overflows and exp(-inf) gives the
        # right 0; one errstate here, since per kernel call it costs 2.3 us
        with np.errstate(over="ignore"):
            return command(args)
    except QuadratureAccuracyError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except LpHeatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        traceback.print_exc()
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
