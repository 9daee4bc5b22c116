import contextlib
import csv
import hashlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci

from lpheat import primitive_from_json
from lpheat.cli import main
from lpheat.kernel import theta_deriv_values


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_constants_q1_row(capsys):
    code, out, _ = run_cli(capsys, "constants", "--p", "2", "--q", "1")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["K"]) == 1.0
    assert float(row["L"]) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-15)
    assert float(row["r"]) == 2.0
    assert float(row["beta"]) == 0.0


def test_constants_c1_row(capsys):
    code, out, _ = run_cli(capsys, "constants", "--p", "1", "--q", "1")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["C"]) == 1.0
    assert float(row["c_p"]) == 1.0


def test_constants_inf_token(capsys):
    code, out, _ = run_cli(capsys, "constants", "--p", "2", "--q", "2")
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["r"] == "inf"


def test_constants_out_of_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "constants", "--p", "0.5", "--q", "2")
    assert code == 2
    assert "out of range" in err


def test_constants_invalid_pair_exits_2(capsys):
    code, _, err = run_cli(capsys, "constants", "--p", "2", "--q", "3")
    assert code == 2
    assert "no valid r" in err


def test_constants_deterministic_and_round_trip(capsys):
    code1, out1, _ = run_cli(capsys, "constants", "--p", "1.25,2", "--q", "1,1.5")
    code2, out2, _ = run_cli(capsys, "constants", "--p", "1.25,2", "--q", "1,1.5")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    header, rows = parse_csv(out1)
    for row in rows:
        for tok in row:
            if tok in ("", "inf", "-inf"):
                continue
            v = float(tok)
            assert format(v, ".17g") == tok  # 17 significant digits round-trip


@pytest.mark.parametrize(
    "argv", [["verify", "--suite", "kernel"], ["report"]], ids=["verify-kernel", "report"]
)
def test_verify_and_report_deterministic(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    if argv[0] == "verify":
        header, rows = parse_csv(out1)
        for row in rows:
            for key in ("measured", "bound", "ratio"):
                tok = row[header.index(key)]
                assert format(float(tok), ".17g") == tok  # 17 significant digits round-trip
    else:
        assert json.loads(out1)["all_passed"] is True


def _write_element(tmp_path, doc, name="f.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_evolve_antisymmetric_columns(tmp_path, capsys):
    data = _write_element(
        tmp_path,
        {
            "primitive": {"type": "indicator", "a": -1.0, "b": 1.0},
            "p": 2.0,
            "atoms": [[1.0, -1.0], [-1.0, 1.0]],
        },
    )
    code, out, _ = run_cli(capsys, "evolve", "--data", data, "--t", "1", "--grid=-5:5:101")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "x"
    vals = [float(r[1]) for r in rows]
    assert vals[50] == 0.0
    for i in range(101):
        assert vals[i] == pytest.approx(-vals[100 - i], abs=1e-12)


def test_evolve_zero_data(tmp_path, capsys):
    data = _write_element(
        tmp_path,
        {"primitive": {"type": "step_combo", "steps": [[0.0, 0.0, 1.0]]}, "p": 2.0},
    )
    code, out, _ = run_cli(capsys, "evolve", "--data", data, "--t", "0.5,1", "--grid=-2:2:21")
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)


def test_evolve_atom_and_quadrature_routes_match(tmp_path, capsys):
    primitive = {"type": "indicator", "a": -1.0, "b": 1.0}
    with_atoms = _write_element(
        tmp_path,
        {"primitive": primitive, "p": 2.0, "atoms": [[1.0, -1.0], [-1.0, 1.0]]},
        "atoms.json",
    )
    without_atoms = _write_element(tmp_path, {"primitive": primitive, "p": 2.0}, "noatoms.json")
    code1, out1, _ = run_cli(capsys, "evolve", "--data", with_atoms, "--t", "0.7", "--grid=-3:3:31")
    code2, out2, _ = run_cli(capsys, "evolve", "--data", without_atoms, "--t", "0.7", "--grid=-3:3:31")
    # atoms are validated and dropped; both files take the same closed form
    assert code1 == code2 == 0
    assert out1 == out2


def test_evolve_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "evolve", "--data", str(bad), "--t", "1", "--grid=-1:1:11")
    assert code == 2
    assert "malformed JSON" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--data", "{latin1}", "--t", "1", "--grid=-1:1:5"],
        ["constants", "--p", "2", "--q", "1", "--out", "{missing}"],
        ["example-dirac", "--out", "{missing}"],
    ],
    ids=["data-not-utf8", "constants-out-missing-dir", "dirac-out-missing-dir"],
)
def test_io_failure_exits_2(tmp_path, capsys, argv):
    # an undecodable data file and an unwritable --out used to exit 4
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0, "x": "\xe9"}')
    paths = {"latin1": str(latin1), "missing": str(tmp_path / "no_such_dir" / "out.csv")}
    code, out, err = run_cli(capsys, *[a.format(**paths) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_evolve_bad_grid_exits_2(tmp_path, capsys):
    data = _write_element(
        tmp_path, {"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0}
    )
    code, _, _ = run_cli(capsys, "evolve", "--data", data, "--t", "1", "--grid", "5:-5:11")
    assert code == 2


_EVOLVE = ["evolve", "--t", "1", "--grid=-1:1:5"]


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["constants", "--p", "two", "--q", "1"], {}),
        (["evolve", "--t", "1", "--grid", "0:1:many"], {}),
        (["evolve", "--t", "nan", "--grid=-1:1:5"], {}),
        (["evolve", "--t", "1", "--grid=-inf:0:3"], {}),
        (["example-dirac", "--t", "inf"], {}),
        (["example-dirac", "--grid=-inf:0:3"], {}),
        (_EVOLVE, {"p": "abc"}),
        (_EVOLVE, {"p": [2]}),
        (_EVOLVE, {"p": None}),
        (_EVOLVE, {"p": True}),
        (_EVOLVE, {"p": "2"}),
        (_EVOLVE, {"primitive": {"type": "indicator", "a": False, "b": True}, "p": True, "atoms": None}),
        (_EVOLVE, {"primitive": {"type": "indicator", "a": "0", "b": "1"}, "p": "2", "atoms": None}),
        (_EVOLVE, {"atoms": [[True, 0.0], [-1.0, True]]}),
        (_EVOLVE, {"atoms": [["1", 0.0], [-1.0, "1"]]}),
        (_EVOLVE, {"primitive": {"type": "step_combo", "steps": [[1.0, 0.0, True]]}, "atoms": None}),
        (_EVOLVE, {"primitive": {"type": "samples", "x0": 0, "dx": "0.5", "values": [1, 2]}, "atoms": None}),
        (_EVOLVE, {"primitive": {"type": "samples", "x0": 0, "dx": 0.5, "values": [1, False]}, "atoms": None}),
        (_EVOLVE, {"primitive": {"type": "gaussian_power", "t": "1", "beta": 1.0}, "atoms": None}),
    ],
    ids=[
        "list",
        "grid",
        "evolve-nan-time",
        "evolve-inf-grid",
        "dirac-inf-time",
        "dirac-inf-grid",
        "data-p-string",
        "data-p-list",
        "data-p-null",
        "data-p-bool",
        "data-p-numeric-string",
        "data-bool-fields",
        "data-string-fields",
        "data-atom-bool",
        "data-atom-string",
        "data-step-bool",
        "data-samples-string-dx",
        "data-samples-bool-value",
        "data-gaussian-string-t",
    ],
)
def test_non_numeric_input_exits_2(tmp_path, capsys, argv, fields):
    # non-finite times and grid ends used to write NaN or zero columns with
    # exit 0, a non-numeric element exponent exited 4, and JSON booleans and
    # numeric strings were read as numbers (float(True) is 1.0) with exit 0
    doc = {
        "primitive": {"type": "indicator", "a": 0.0, "b": 1.0},
        "p": 2.0,
        "atoms": [[1.0, 0.0], [-1.0, 1.0]],
    }
    data = _write_element(tmp_path, {**doc, **fields})
    if argv[0] == "evolve":
        argv = argv + ["--data", data]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_evolve_json_format(tmp_path, capsys):
    data = _write_element(
        tmp_path, {"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0}
    )
    code, out, _ = run_cli(
        capsys, "evolve", "--data", data, "--t", "1", "--grid", "0:1:5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["x"]) == 5 and len(doc["values"]) == 1


def test_verify_variation_suite_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "variation")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "name"
    assert all(row[4] == "true" for row in rows)
    assert err == ""


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_verify_forced_tolerance_fails(capsys):
    # the variation rows are exact, so no tolerance makes them fail
    code, _, err = run_cli(capsys, "verify", "--suite", "young", "--tol", "1e-18")
    assert code == 1
    assert "FAIL" in err


def test_verify_json_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--suite", "variation", "--format", "json", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert isinstance(doc, list) and doc
    assert {"name", "measured", "bound", "ratio", "passed", "tolerance", "params"} == set(doc[0])


def test_example_dirac_antisymmetry_and_variation(capsys):
    code, out, _ = run_cli(capsys, "example-dirac", "--a", "1", "--t", "0.25", "--grid=-4:4:41")
    assert code == 0
    lines = out.splitlines()
    split = lines.index("t,variation_lower_bound")
    _, rows = parse_csv("\n".join(lines[:split]))
    vals = [float(r[1]) for r in rows]
    for i in range(41):
        assert vals[i] == pytest.approx(-vals[40 - i], abs=1e-12)
    vrows = list(csv.reader(io.StringIO("\n".join(lines[split:]))))
    assert float(vrows[1][1]) == pytest.approx(0.4976611325094764, rel=1e-9)


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_quadrature_failure_exits_3(tmp_path, capsys, monkeypatch):
    from lpheat.exceptions import QuadratureAccuracyError
    import lpheat.cli as cli_mod

    def boom(*args, **kwargs):
        raise QuadratureAccuracyError("forced", value=0.0, residual=1.0)

    monkeypatch.setattr(cli_mod, "solve_values", boom)
    data = _write_element(
        tmp_path, {"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0}
    )
    code, _, err = run_cli(capsys, "evolve", "--data", data, "--t", "1", "--grid", "0:1:5")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("t", ["1e-300", "1e-40", "1e-30"])
def test_unresolvable_time_exits_3(tmp_path, capsys, t):
    # the kernel window is below floating-point resolution: no numbers are written
    data = _write_element(tmp_path, {"primitive": _PRIMITIVES["samples"], "p": 2.0})
    out_path = tmp_path / "v.csv"
    code, out, err = run_cli(capsys, "evolve", "--data", data, "--t", t, "--grid=-1:1:5", "--out", str(out_path))
    assert code == 3
    assert "numerical failure" in err and "floating-point resolution" in err
    assert out == "" and not out_path.exists()


def test_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    import lpheat.cli as cli_mod

    def boom(*args, **kwargs):
        raise TypeError("forced")

    monkeypatch.setattr(cli_mod, "solve_values", boom)
    data = _write_element(
        tmp_path, {"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0}
    )
    code, _, err = run_cli(capsys, "evolve", "--data", data, "--t", "1", "--grid", "0:1:5")
    assert code == 4
    assert "internal error: TypeError: forced" in err


@pytest.mark.parametrize("command", ["evolve", "verify", "report"])
def test_nonpositive_tolerance_exits_2(tmp_path, capsys, command):
    extra = []
    if command == "evolve":
        data = _write_element(
            tmp_path, {"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0}
        )
        extra = ["--data", data, "--t", "1", "--grid", "0:1:5"]
    # an infinite tolerance would accept any single quadrature pass
    for tol in ("0", "inf"):
        code, _, err = run_cli(capsys, command, *extra, "--tol", tol)
        assert code == 2
        assert "tolerance must be positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["verify", "--suite", "kernel"],
        ["verify", "--suite", "young"],
        ["verify", "--suite", "decay"],
        ["verify", "--suite", "variation"],
        ["report"],
        ["constants", "--p", "1,2", "--q", "1,1.5"],
        ["evolve", "--t", "0.5,1", "--grid=-3:3:13"],
        ["example-dirac"],
    ],
    ids=[
        "verify-all",
        "verify-kernel",
        "verify-young",
        "verify-decay",
        "verify-variation",
        "report",
        "constants",
        "evolve",
        "example-dirac",
    ],
)
def test_every_subcommand_runs_end_to_end(tmp_path, capsys, argv):
    if argv[0] == "evolve":
        data = _write_element(
            tmp_path, {"primitive": {"type": "indicator", "a": -1.0, "b": 1.0}, "p": 2.0}
        )
        argv = argv + ["--data", data]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if argv[0] == "report":
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert doc["constants"] and doc["reports"]
        return
    # example-dirac appends a second table headed t,variation_lower_bound
    for table in re.split(r"\n(?=t,variation_lower_bound\n)", out):
        header, rows = parse_csv(table)
        assert rows and all(len(row) == len(header) for row in rows)
    if argv[0] == "verify":
        assert all(row[4] == "true" for row in rows)


# -- output bytes against the per-cell formatting path -----------------------
#
# The reference below is the per-cell path the CLI used before it wrote its
# numeric tables a row at a time: every cell through ``_ref_fmt`` and
# ``csv.writer``, every JSON document through ``_ref_jsonable`` and
# ``json.dumps(indent=2, sort_keys=True)``.  The CLI must write the same bytes.


def _ref_fmt(x):
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


def _ref_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_ref_fmt(v) for v in row])
    return buf.getvalue()


def _ref_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _ref_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref_jsonable(v) for v in obj]
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


def _ref_json(doc):
    return json.dumps(_ref_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _ref_solution_csv(xs, ts, columns):
    header = ["x"] + [f"v_t={_ref_fmt(t)}" for t in ts]
    return _ref_csv(header, [[xs[i]] + [col[i] for col in columns] for i in range(len(xs))])


_PRIMITIVES = {
    "indicator": {"type": "indicator", "a": -1.0, "b": 0.5},
    "step_combo": {"type": "step_combo", "steps": [[1.0, -1.0, 0.5], [-0.3, 0.2, 2.0]]},
    "gaussian_power": {"type": "gaussian_power", "t": 0.3, "beta": 1.7},
    "samples": {"type": "samples", "x0": -1.0, "dx": 0.25, "values": [0.0, 0.3, 1.0, -0.5, 0.2, 0.0, 0.7]},
    "tail_log": {"type": "tail_log", "p": 2.0},
    "truncated_sine": {"type": "truncated_sine", "p": 2.0},
}


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("kind", sorted(_PRIMITIVES))
def test_evolve_bytes_match_reference(tmp_path, capsys, kind, out_format):
    from lpheat import DEFAULT_CONFIG, element_from_json, solve_values

    doc = {"primitive": _PRIMITIVES[kind], "p": 3.0}
    data = _write_element(tmp_path, doc)
    ts = [0.01, 0.5, 3.0]
    xs = np.linspace(-3.0, 8.0, 23)
    code, out, _ = run_cli(
        capsys, "evolve", "--data", data, "--t", "0.01,0.5,3", "--grid=-3:8:23", "--format", out_format
    )
    assert code == 0
    f = element_from_json(doc)
    columns = [solve_values(f, t, xs, DEFAULT_CONFIG) for t in ts]
    if out_format == "json":
        assert out == _ref_json({"x": list(xs), "t": ts, "values": [list(c) for c in columns]})
    else:
        assert out == _ref_solution_csv(xs, ts, columns)


# sha256 of stdout, taken where the output last changed on purpose; an
# intended numerical change updates its digest and says so in CHANGES.md
_STDOUT_SHA256 = {
    "constants csv": "80a7f3f3d6976994b5dfc5861338974665bca6d726221911dc43aaf942635cce",
    "constants json": "b28b8b2430348bddd85061eeb703ec36c4c559053bf79fa8f6c2e73d4a3c20d4",
    "evolve gaussian_power csv": "83c4f1bfb6cbf844d198e7cd340d60b4399c5530c2f22dada375ff2b7f1a5180",
    "evolve gaussian_power json": "32aff232afb4c75dd7a9636da16101c7e126f7e91571e9df3a659f6f5d819178",
    "evolve indicator csv": "9bcc260bf413fc497718b7406b8cd0b820b378d5cc0422a0414aa5865ffd1145",
    "evolve indicator json": "25ee7129883954132e0ca25af18e44278814ffd784dbce14ea446074853a7d55",
    "evolve samples csv": "d44eb8675491efbcf53b828addc9d33cfea56135ca21d14a5603397b57e22f03",
    "evolve samples json": "fd7de57ca2395c74d44466a840df8c55794e66fd970287c809addbde1cce9ce5",
    "evolve step_combo csv": "5a67509184504e22693c8a72b64698580006e23fcfe236ab9a35e84b9e3184a2",
    "evolve step_combo json": "0ef0f73c69a97c94531a70a6edee6a1fe7fd1fdbd3e823b6777e83482dbc76b9",
    "example-dirac csv": "44746ab5312eed0cc8f596e2a52101808be6ff69982bc5afa367561c95d78e43",
    "example-dirac json": "bae2dfae072ddd8cb827384bac51c3c524831d5ceeb3ab4b65207ed0ae56f5c5",
    "verify csv": "3535a374fa8a23e2989b2e125c15c9a19b3a580f696e02d5a76727963857abcd",
    "verify json": "05f98ff3bc1dbaed22056f4c11e41b1d487e526a87c4f20e3ddf62c78faba037",
}


def _pinned_argv(tmp_path, name):
    command, *kind, out_format = name.split()
    if command == "evolve":
        data = _write_element(tmp_path, {"primitive": _PRIMITIVES[kind[0]], "p": 3.0})
        args = ["--data", data, "--t", "0.01,0.5,3", "--grid=-3:8:23"]
    else:
        args = {"constants": ["--p", "1,1.5,2,inf", "--q", "1"], "example-dirac": ["--a", "0.5", "--t", "2,0.01"],
                "verify": ["--suite", "all"]}[command]
    return [command, *args, "--format", out_format]


@pytest.mark.parametrize("name", sorted(_STDOUT_SHA256))
def test_stdout_bytes_are_pinned(tmp_path, capsys, name):
    code, out, err = run_cli(capsys, *_pinned_argv(tmp_path, name))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _STDOUT_SHA256[name]


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_example_dirac_bytes_match_reference(capsys, out_format):
    from lpheat import DEFAULT_CONFIG, dirac_difference, solve_values
    from lpheat.estimates import variation_lower_bound

    code, out, _ = run_cli(capsys, "example-dirac", "--a", "0.5", "--t", "2,0.01", "--format", out_format)
    assert code == 0
    ts, xs = [2.0, 0.01], np.linspace(-5.0, 5.0, 101)
    f = dirac_difference(-0.5, 0.5, p=2.0)
    columns = [solve_values(f, t, xs, DEFAULT_CONFIG) for t in ts]
    bounds = variation_lower_bound(0.5, ts)
    if out_format == "json":
        doc = {"a": 0.5, "t": ts, "x": list(xs), "values": [list(c) for c in columns]}
        assert out == _ref_json({**doc, "variation_lower_bound": bounds})
    else:
        vtext = _ref_csv(["t", "variation_lower_bound"], [[t, v] for t, v in zip(ts, bounds)])
        assert out == _ref_solution_csv(xs, ts, columns) + vtext


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_constants_bytes_match_reference(capsys, out_format):
    from lpheat.cli import _constants_rows

    # p = inf has r = inf and leaves the M cell empty
    code, out, _ = run_cli(capsys, "constants", "--p", "1,1.5,inf", "--q", "1", "--format", out_format)
    assert code == 0
    header, rows = _constants_rows([1.0, 1.5, math.inf], [1.0])
    assert "" in [row[header.index("M")] for row in rows]
    assert math.inf in [v for row in rows for v in row]
    if out_format == "json":
        assert out == _ref_json([dict(zip(header, row)) for row in rows])
    else:
        assert out == _ref_csv(header, rows)


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_verify_bytes_match_reference(capsys, out_format):
    from lpheat import DEFAULT_CONFIG
    from lpheat.estimates import run_suite

    code, out, _ = run_cli(capsys, "verify", "--suite", "variation", "--format", out_format)
    assert code == 0
    reports = run_suite("variation", DEFAULT_CONFIG, None)
    if out_format == "json":
        assert out == _ref_json([rep.as_dict() for rep in reports])
    else:
        header = ["name", "measured", "bound", "ratio", "passed", "tolerance", "params"]
        rows = [
            [r.name, r.measured, r.bound, r.ratio, r.passed, r.tolerance]
            + [json.dumps(_ref_jsonable(r.params), sort_keys=True)]
            for r in reports
        ]
        assert all('"' in row[-1] for row in rows)  # cells csv.writer must quote
        assert out == _ref_csv(header, rows)


def test_table_writers_on_extreme_floats():
    from lpheat.cli import _csv_table, _jsonable

    extremes = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
                math.nan, 0.1, 1e16, 1e17, 123456789.0]
    a = np.array(extremes)
    columns = [a, a[::-1].copy(), np.roll(a, 3)]
    rows = [[c[i] for c in columns] for i in range(a.size)]
    header = ["x", "v_t=1", "v_t=2"]
    assert _csv_table(header, np.column_stack(columns).tolist()) == _ref_csv(header, rows)
    assert _csv_table(header, [["", 1.0, math.inf]]) == _ref_csv(header, [["", 1.0, math.inf]])
    finite = a[np.isfinite(a)]
    for col in (a, finite, a.reshape(1, -1)):
        expected = json.dumps(_ref_jsonable({"v": [col.tolist()]}), indent=2)
        assert json.dumps(_jsonable({"v": [col]}), indent=2) == expected


_EXTREME_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1, 1e16, 1e17]
_floats = st.one_of(st.sampled_from(_EXTREME_FLOATS), st.floats())
_float_arrays = st.lists(_floats, max_size=12).map(lambda v: np.array(v, dtype=float))
_json_leaves = st.one_of(
    _floats,
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.booleans(),
    st.none(),
    st.text(max_size=12),  # quotes, backslashes, control and non-ASCII characters need escaping
    st.sampled_from(["", "inf", "a, b", '"', "\\", "\n", "\u00e9", "\U0001f600", "\x7f"]),
    st.lists(_floats, max_size=12),  # the float lists the writer hands to the C encoder
    _float_arrays,
)
_json_documents = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=5),
    ),
    max_leaves=20,
)


def _arrays_as_lists(obj):
    # the reference predates ndarray input: it takes lists of numpy scalars
    if isinstance(obj, np.ndarray):
        return list(obj)
    if isinstance(obj, dict):
        return {k: _arrays_as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_arrays_as_lists(v) for v in obj)
    return obj


@given(doc=_json_documents)
@settings(max_examples=100, deadline=None)
def test_json_writer_matches_reference(doc):
    from lpheat.cli import _write_json

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_json(doc, None)
    assert buf.getvalue() == _ref_json(_arrays_as_lists(doc))


@given(n=st.integers(0, 20), ts=st.lists(st.floats(min_value=5e-324), min_size=1, max_size=4), data=st.data())
@settings(max_examples=50, deadline=None)
def test_solution_csv_matches_reference(n, ts, data):
    from lpheat.cli import _solution_csv

    cells = st.lists(_floats, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    xs = data.draw(cells)
    columns = [data.draw(cells) for _ in ts]
    assert _solution_csv(xs, ts, columns) == _ref_solution_csv(xs, ts, columns)


# -- extreme but valid input: no numpy warning reaches stderr -----------------


def _run_without_warnings(capsys, *argv):
    # a numpy RuntimeWarning raised as an error would exit 4 with a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(capsys, *argv)


def test_evolve_on_extreme_grid_writes_no_warning(tmp_path, capsys):
    data = _write_element(tmp_path, {"primitive": {"type": "indicator", "a": -1.0, "b": 0.5}, "p": 2.0})
    code, out, err = _run_without_warnings(capsys, "evolve", "--data", data, "--t", "1e-300,1e300",
                                           "--grid=-1e300:1e300:11")
    assert (code, err) == (0, "")
    xs = np.linspace(-1e300, 1e300, 11)
    assert out == _ref_solution_csv(xs, [1e-300, 1e300], [np.zeros(11), np.zeros(11)])


def test_example_dirac_at_extreme_offset_writes_no_warning(capsys):
    code, out, err = _run_without_warnings(capsys, "example-dirac", "--a", "1e300", "--t", "1", "--grid=-1:1:3")
    assert (code, err) == (0, "")
    vtext = _ref_csv(["t", "variation_lower_bound"], [[1.0, 0.5]])
    assert out == _ref_solution_csv(np.linspace(-1.0, 1.0, 3), [1.0], [np.zeros(3)]) + vtext


@pytest.mark.parametrize("t0, beta", [(0.3, 1.7), (1e-9, 1.0)])
def test_gaussian_evolve_on_extreme_grid_writes_no_warning(tmp_path, capsys, t0, beta):
    # at t0 = 1e-9 and t = 1e-300, x / 2(s + t) overflows at x = 1e300: the
    # flow there is 0, not inf * 0 = nan
    data = _write_element(tmp_path, {"primitive": {"type": "gaussian_power", "t": t0, "beta": beta}, "p": 2.0})
    code, out, err = _run_without_warnings(capsys, "evolve", "--data", data, "--t", "1e-300,1,1e300",
                                           "--grid=-1e300:1e300:5")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    assert [float(v) for row in rows for v in row[1:]] == [0.0] * 15


# -- the parser is built once per process -------------------------------------


def test_cached_parser_reused_safely(tmp_path, capsys, monkeypatch):
    import lpheat.cli as cli_mod

    data = _write_element(tmp_path, {"primitive": {"type": "indicator", "a": -1.0, "b": 1.0}, "p": 2.0})
    commands = [
        ["constants", "--p", "1.25,2", "--q", "1,1.5"],
        ["evolve", "--t", "1", "--grid", "0:1:many", "--data", data],
        ["evolve", "--t", "0.5,1", "--grid=-3:3:13", "--data", data],
        ["verify", "--suite", "variation"],
        ["constants", "--bogus"],
    ]
    alone = []
    for argv in commands:
        cli_mod._parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    cli_mod._parser.cache_clear()
    parser = cli_mod._parser()
    in_sequence = [run_cli(capsys, *argv) for argv in commands]
    assert in_sequence == alone
    assert [r[0] for r in alone] == [0, 2, 0, 0, 2]
    assert cli_mod._parser() is parser

    # dispatch goes through the module's current binding, not the one the parser saw
    seen = []
    monkeypatch.setattr(cli_mod, "cmd_evolve", lambda args: seen.append(args.grid) or 7)
    assert run_cli(capsys, *commands[2])[0] == 7
    assert seen == ["-3:3:13"]
    assert cli_mod._parser() is parser


# -- input errors -------------------------------------------------------------


@pytest.mark.parametrize("p, q", [("", "2"), (",", "2"), ("2", ""), ("2", " , ")])
def test_constants_empty_exponent_list_exits_2(capsys, p, q):
    # used to print the header alone with exit 0
    code, out, err = run_cli(capsys, "constants", "--p", p, "--q", q)
    assert code == 2
    assert out == ""
    assert "list is empty" in err


@pytest.mark.parametrize(
    "primitive, message",
    [
        ({"type": "gaussian_power", "t": 1e-300, "beta": 5}, "gaussian power prefactor overflows a float"),
        ({"type": "gaussian_power", "t": 1e300, "beta": 1e-300}, "gaussian power width t / beta overflows a float"),
        ({"type": "samples", "x0": 0, "dx": 1e-320, "values": [1, 2]}, "grid slopes and their changes must be finite"),
        ({"type": "samples", "x0": 0, "dx": 1.0, "values": [1.5e308, -1.5e308, 1.5e308]},
         "grid slopes and their changes must be finite"),
    ],
    ids=["gaussian-prefactor", "gaussian-width", "samples-slope", "samples-kink"],
)
def test_overflowing_descriptor_exits_2(tmp_path, capsys, primitive, message):
    # the Gaussian prefactor exited 4 (OverflowError), its width printed nan
    # columns with exit 0, the sampled data wrote inf columns with exit 0;
    # the constructor's own message reaches stderr, not "malformed
    # primitive descriptor", since the descriptor itself parsed
    data = _write_element(tmp_path, {"primitive": primitive, "p": 2.0})
    code, out, err = run_cli(capsys, "evolve", "--data", data, "--t", "1", "--grid=-1:1:5")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_integer_past_the_float_range_exits_2(tmp_path, capsys):
    # float() of a 400-digit JSON integer raised OverflowError: exit 4 with a traceback
    data = tmp_path / "f.json"
    data.write_text('{"primitive": {"type": "indicator", "a": 0, "b": 1' + "0" * 400 + '}, "p": 2}')
    code, out, err = run_cli(capsys, "evolve", "--data", str(data), "--t", "1", "--grid=-1:1:5")
    assert (code, out) == (2, "")
    assert err == "error: malformed primitive descriptor: an integer overflows a float\n"


def test_example_dirac_takes_no_tolerance(capsys):
    # its step data flows in closed form, so a tolerance never reached a quadrature
    code, out, err = run_cli(capsys, "example-dirac", "--tol", "1e-9")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --tol 1e-9" in err


def test_grid_with_collapsing_nodes_exits_2(tmp_path, capsys):
    # every node x0 + i dx rounds to 1e16; evolve used to print zero columns with exit 0
    primitive = {"type": "samples", "x0": 1e16, "dx": 1e-3, "values": [0.0, 1.0, 0.0]}
    data = _write_element(tmp_path, {"primitive": primitive, "p": 2.0})
    code, out, err = run_cli(capsys, "evolve", "--data", data, "--t", "1", "--grid=-1:1:5")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "strictly increase" in err


@pytest.mark.parametrize("grid, message", [("-1e308:1e308:5", "span"), ("0:1:100000000000000000000", "too large")],
                         ids=["overflowing-span", "too-many-points"])
@pytest.mark.parametrize("command", ["evolve", "example-dirac"])
def test_grid_numpy_cannot_lay_out_exits_2(tmp_path, capsys, command, grid, message):
    # the span wrote a numpy RuntimeWarning and blamed the evaluation points;
    # the count exited 4 ("Maximum allowed size exceeded"), refused before any allocation
    data = _write_element(tmp_path, {"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0})
    argv = [command, "--t", "1", f"--grid={grid}"] + (["--data", data] if command == "evolve" else [])
    code, out, err = _run_without_warnings(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: grid") and message in err


@pytest.mark.parametrize("primitive", [{"type": "tail_log", "p": 30}, {"type": "truncated_sine", "p": 25}],
                         ids=["tail_log", "truncated_sine"])
def test_slow_tail_evolve_at_a_high_exponent(tmp_path, capsys, primitive):
    # (10 / abs_tol)^p overflowed in the data's window and exited 4
    data = _write_element(tmp_path, {"primitive": primitive, "p": primitive["p"] + 1})
    code, out, err = run_cli(capsys, "evolve", "--data", data, "--t", "1", "--grid=0:10:3")
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    F = primitive_from_json(primitive)
    for x, v in ((float(row[0]), float(row[1])) for row in rows):
        cuts = [F.breakpoints()[0]] + [k * math.pi for k in range(1, 8) if k * math.pi < x + 15.0] + [x + 15.0]
        f = lambda y: float(F.values(y)) * float(theta_deriv_values(x - y, 1.0, 1))
        want = sum(sci.quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0] for a, b in zip(cuts, cuts[1:]))
        assert v == pytest.approx(want, rel=1e-9, abs=1e-12)
