import csv
import io
import json
import math
import re

import numpy as np
import pytest

from lpheat.cli import main


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
    _, out1, _ = run_cli(capsys, "evolve", "--data", with_atoms, "--t", "0.7", "--grid=-3:3:31")
    _, out2, _ = run_cli(capsys, "evolve", "--data", without_atoms, "--t", "0.7", "--grid=-3:3:31")
    _, rows1 = parse_csv(out1)
    _, rows2 = parse_csv(out2)
    for r1, r2 in zip(rows1, rows2):
        assert float(r1[1]) == pytest.approx(float(r2[1]), abs=1e-8)


def test_evolve_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "evolve", "--data", str(bad), "--t", "1", "--grid=-1:1:11")
    assert code == 2
    assert "malformed JSON" in err


def test_evolve_bad_grid_exits_2(tmp_path, capsys):
    data = _write_element(
        tmp_path, {"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0}
    )
    code, _, _ = run_cli(capsys, "evolve", "--data", data, "--t", "1", "--grid", "5:-5:11")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--p", "two", "--q", "1"],
        ["evolve", "--t", "1", "--grid", "0:1:many"],
    ],
    ids=["list", "grid"],
)
def test_non_numeric_input_exits_2(tmp_path, capsys, argv):
    data = _write_element(
        tmp_path, {"primitive": {"type": "indicator", "a": 0.0, "b": 1.0}, "p": 2.0}
    )
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
    code, _, err = run_cli(capsys, "verify", "--suite", "variation", "--tol", "1e-18")
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
    code, _, err = run_cli(capsys, command, *extra, "--tol", "0")
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
