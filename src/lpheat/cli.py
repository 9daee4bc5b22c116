"""Command-line interface.

Subcommands:

    constants     sharp-constant table for exponent pairs, as CSV or JSON
    evolve        evaluate v_t on a grid for initial data loaded from JSON
    verify        run a verification suite and report pass/fail rows
    example-dirac solution and variation lower bound for delta_{-a} - delta_a
    report        full verification document (all suites plus constants)

Exit codes: 0 success / all checks passed, 1 verification failures,
2 usage or input errors, 3 numerical (quadrature) failure, 4 internal
error (an unexpected exception; its traceback goes to stderr).  Reals
are serialized with 17 significant digits so CSV output round-trips
exactly; infinite exponents print as "inf".

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
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _write_text(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def _parse_float_token(tok: str) -> float:
    if tok.strip().lower() == "inf":
        return math.inf
    try:
        return float(tok)
    except ValueError:
        raise DomainError(f"not a number: {tok!r}") from None


def _parse_list(raw: str) -> list[float]:
    return [_parse_float_token(tok) for tok in raw.split(",") if tok.strip()]


def _parse_grid(raw: str) -> tuple[float, float, int]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise DomainError("grid must be a:b:n")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise DomainError("grid must be a:b:n with numeric a, b and integer n") from None
    if n < 2 or not a < b:
        raise DomainError("grid needs a < b and n >= 2")
    return a, b, n


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
    ps = _parse_list(args.p)
    qs = _parse_list(args.q)
    header, rows = _constants_rows(ps, qs)
    if args.format == "json":
        doc = [dict(zip(header, row)) for row in rows]
        _write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_text(_rows_to_csv(header, rows), args.out)
    return 0


def _load_element(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read data file: {exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in data file: {exc}")
    return element_from_json(data)


def cmd_evolve(args) -> int:
    f = _load_element(args.data)
    ts = _parse_list(args.t)
    if not ts or any(t <= 0 or math.isinf(t) for t in ts):
        raise DomainError("t list must contain positive finite times")
    a, b, n = _parse_grid(args.grid)
    xs = np.linspace(a, b, n)
    cfg = _config_from_args(args)
    columns = [solve_values(f, t, xs, cfg) for t in ts]
    header = ["x"] + [f"v_t={fmt(t)}" for t in ts]
    rows = [[xs[i]] + [col[i] for col in columns] for i in range(n)]
    if args.format == "json":
        doc = {"x": list(xs), "t": ts, "values": [list(c) for c in columns]}
        _write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_text(_rows_to_csv(header, rows), args.out)
    return 0


_REPORT_HEADER = ["name", "measured", "bound", "ratio", "passed", "tolerance", "params"]


def _report_rows(reports) -> list[list]:
    rows = []
    for rep in reports:
        rows.append(
            [
                rep.name,
                rep.measured,
                rep.bound,
                rep.ratio,
                rep.passed,
                rep.tolerance,
                json.dumps(_jsonable(rep.params), sort_keys=True),
            ]
        )
    return rows


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, DEFAULT_CONFIG, args.tol)
    if args.format == "json":
        doc = [rep.as_dict() for rep in reports]
        _write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_text(_rows_to_csv(_REPORT_HEADER, _report_rows(reports)), args.out)
    failures = [rep for rep in reports if not rep.passed]
    for rep in failures:
        sys.stderr.write(f"FAIL {rep.name} measured={fmt(rep.measured)} bound={fmt(rep.bound)}\n")
    return 1 if failures else 0


def cmd_example_dirac(args) -> int:
    if args.a <= 0:
        raise DomainError("offset a must be positive")
    ts = _parse_list(args.t)
    if not ts or any(t <= 0 for t in ts):
        raise DomainError("t list must contain positive times")
    a_lo, b_hi, n = _parse_grid(args.grid)
    xs = np.linspace(a_lo, b_hi, n)
    cfg = _config_from_args(args)
    f = dirac_difference(-args.a, args.a, p=2.0)
    columns = [solve_values(f, t, xs, cfg) for t in ts]
    bounds = variation_lower_bound(args.a, ts, cfg)
    if args.format == "json":
        doc = {
            "a": args.a,
            "t": ts,
            "x": list(xs),
            "values": [list(c) for c in columns],
            "variation_lower_bound": bounds,
        }
        _write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n", args.out)
    else:
        header = ["x"] + [f"v_t={fmt(t)}" for t in ts]
        rows = [[xs[i]] + [col[i] for col in columns] for i in range(n)]
        text = _rows_to_csv(header, rows)
        vtext = _rows_to_csv(["t", "variation_lower_bound"], [[t, v] for t, v in zip(ts, bounds)])
        _write_text(text + vtext, args.out)
    return 0


def cmd_report(args) -> int:
    reports = run_suite("all", DEFAULT_CONFIG, args.tol)
    header, rows = _constants_rows([1.0, 1.5, 2.0, 3.0], [1.0, 4.0 / 3.0, 1.5, 2.0], skip_invalid=True)
    doc = {
        "constants": [dict(zip(header, row)) for row in rows],
        "reports": [rep.as_dict() for rep in reports],
        "all_passed": all(rep.passed for rep in reports),
    }
    _write_text(json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n", args.out)
    return 0 if doc["all_passed"] else 1


def _jsonable(obj):
    """Floats to round-trip tokens JSON accepts; inf to the string 'inf'."""
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
    tol = getattr(args, "tol", None)
    if tol is None:
        return DEFAULT_CONFIG
    return QuadratureConfig(
        abs_tol=tol,
        rel_tol=max(tol, 1e-14),
        max_subdivisions=DEFAULT_CONFIG.max_subdivisions,
        tail_width_sigmas=DEFAULT_CONFIG.tail_width_sigmas,
    )


def tolerance(raw: str) -> float:
    """argparse type shared by every --tol flag."""
    tol = float(raw)
    if not tol > 0:
        raise argparse.ArgumentTypeError("tolerance must be positive")
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
    pc.set_defaults(func=cmd_constants)

    pe = sub.add_parser("evolve", help="evaluate the solution on a grid")
    pe.add_argument("--data", required=True, help="JSON element descriptor file")
    pe.add_argument("--t", required=True, help="comma-separated positive times")
    pe.add_argument("--grid", required=True, help="a:b:n uniform grid")
    pe.add_argument("--tol", type=tolerance, default=None, help="quadrature absolute tolerance")
    pe.add_argument("--out", default=None)
    pe.add_argument("--format", choices=("csv", "json"), default="csv")
    pe.set_defaults(func=cmd_evolve)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", default="all", help=f"all, {', '.join(SUITES)}")
    pv.add_argument("--tol", type=tolerance, default=None, help="override every check's acceptance threshold")
    pv.add_argument("--out", default=None)
    pv.add_argument("--format", choices=("csv", "json"), default="csv")
    pv.set_defaults(func=cmd_verify)

    pd = sub.add_parser("example-dirac", help="dirac-difference solution and variation bound")
    pd.add_argument("--a", type=float, default=1.0)
    pd.add_argument("--t", default="1.0,0.1,0.01")
    pd.add_argument("--grid", default="-5:5:101")
    pd.add_argument("--tol", type=tolerance, default=None)
    pd.add_argument("--out", default=None)
    pd.add_argument("--format", choices=("csv", "json"), default="csv")
    pd.set_defaults(func=cmd_example_dirac)

    pr = sub.add_parser("report", help="full verification document (JSON)")
    pr.add_argument("--tol", type=tolerance, default=None, help="override every check's acceptance threshold")
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
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
