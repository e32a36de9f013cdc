"""Tests for the command line front end: parsing and defaults, exit
codes, output formats, and byte-level determinism."""

import json

import pytest

from cohh import cli


def run_cli(argv, capsys):
    status = cli.main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def test_parse_spec_fills_defaults():
    job = cli.parse_spec('{"command": "e2", "kind": "exterior", '
                         '"degrees": [3]}')
    assert job.field.characteristic == 2
    assert job.s_max == 6
    assert job.t_max == 40
    assert job.format == "text"
    assert job.coalgebra == {"kind": "exterior", "degrees": [3]}


def test_parse_spec_rejects_bad_input():
    from cohh.spectral import DegreeEven, NotPrime
    with pytest.raises(cli.ParseError):
        cli.parse_spec('{"kind": "exterior"}')
    with pytest.raises(cli.ParseError):
        cli.parse_spec('not json')
    with pytest.raises(DegreeEven):
        cli.parse_spec('{"command": "e2", "kind": "exterior", '
                       '"degrees": [3, 4]}')
    with pytest.raises(NotPrime):
        cli.parse_spec('{"command": "e2", "kind": "exterior", '
                       '"degrees": [3], "field": 4}')


def test_cohh_json_matches_closed_form(capsys):
    status, out, _ = run_cli(
        ["cohh", "--kind", "exterior", "--degrees", "3", "--field", "2",
         "--max-s", "4", "--max-t", "15", "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["meta"]["bounds"] == {"s_max": 4, "t_max": 15}
    assert payload["meta"]["field"] == "F_2"
    dims = {(r["s"], r["t"]): r["dim"] for r in payload["table"]}
    expected = {}
    for q in range(5):
        if 3 * q <= 15:
            expected[(q, 3 * q)] = 1
        if 3 * q + 3 <= 15:
            expected[(q, 3 * q + 3)] = 1
    assert dims == expected


def test_json_output_is_byte_identical(capsys):
    argv = ["cohh", "--kind", "exterior", "--degrees", "3,5",
            "--field", "3", "--max-s", "2", "--max-t", "8",
            "--format", "json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    assert first.endswith("\n")


def test_round_trip_through_a_job_file(tmp_path, capsys):
    argv = ["e2", "--kind", "exterior", "--degrees", "3", "--field", "5",
            "--max-s", "3", "--max-t", "9", "--format", "json"]
    _, inline, _ = run_cli(argv, capsys)
    job = {"command": "e2", "kind": "exterior", "degrees": [3],
           "field": 5, "s_max": 3, "t_max": 9, "format": "json"}
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(job))
    status, from_file, _ = run_cli(["e2", "--spec", str(spec)], capsys)
    assert status == 0
    assert from_file == inline
    # re-ingest the emitted table as an expected fixture
    payload = json.loads(from_file)
    assert payload["closed_form_ok"]
    from cohh.spectral import exterior_e2_dims
    dims = {(r["s"], r["t"]): r["dim"] for r in payload["table"]}
    assert dims == exterior_e2_dims([3], 3, 9)


def test_collapse_verdict_and_bound(capsys):
    status, out, _ = run_cli(
        ["collapse", "--degrees", "3,5", "--prime", "7",
         "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Collapses"
    assert payload["bound"] == "11/2"
    assert payload["bound_holds"]
    assert payload["candidates"] == []
    assert payload["meta"]["field"] == "F_7"


def test_loops_table(capsys):
    status, out, _ = run_cli(
        ["loops", "--degrees", "3", "--prime", "5",
         "--max-degree", "10", "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["dims_by_degree"] == [1, 0] + [1] * 9
    assert "convergence" in payload["note"]


def test_exit_codes(capsys):
    # refusal: candidates not ruled out
    status, _, err = run_cli(
        ["loops", "--degrees", "3,5", "--prime", "3"], capsys)
    assert status == 2
    assert "refused" in err
    # input errors
    for argv in (["cohh", "--kind", "exterior", "--degrees", "4"],
                 ["cohh", "--kind", "exterior", "--degrees", "3",
                  "--field", "4"],
                 ["collapse", "--degrees", "3,5"],
                 ["cohh", "--spec", "/does/not/exist.json"]):
        status, _, err = run_cli(argv, capsys)
        assert status == 1, argv
        assert "error" in err


def test_csv_format(capsys):
    status, out, _ = run_cli(
        ["cohh", "--kind", "exterior", "--degrees", "3", "--field", "2",
         "--max-s", "2", "--max-t", "6", "--format", "csv"], capsys)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,t,dim"
    assert "0,0,1" in lines
    assert "2,6,1" in lines


def test_csv_bodies_for_validate_and_audit(capsys):
    status, out, _ = run_cli(
        ["validate", "--kind", "exterior", "--degrees", "3",
         "--format", "csv"], capsys)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,passed"
    assert "coassociativity,true" in lines
    assert len(lines) == 6
    status, out, _ = run_cli(
        ["audit", "--kind", "exterior", "--degrees", "3", "--field", "3",
         "--max-s", "3", "--max-t", "9", "--format", "csv"], capsys)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,s,t,dim"
    assert "primitives,3,9,1" in lines
    assert "expected_primitives,3,9,1" in lines
    assert "indecomposables,1,3,1" in lines
    assert "expected_indecomposables,1,6,1" in lines


EXTERIOR_TABLE = {"kind": "table", "basis": [["1", 0], ["x", 3]],
                  "comult": {"1": {"1|1": 1}, "x": {"1|x": 1, "x|1": 1}},
                  "counit": {"1": 1}}


@pytest.mark.parametrize("spec", [
    # a comult row naming a label outside the basis
    dict(EXTERIOR_TABLE,
         comult={"1": {"1|1": 1}, "x": {"1|x": 1, "x|y": 1}}),
    # k x k (x) Lambda(x_3): two degree-0 grouplikes with counit 1
    {"kind": "tensor", "factors": [
        {"kind": "table", "basis": [["1", 0], ["e", 0]],
         "comult": {"1": {"1|1": 1}, "e": {"e|e": 1}},
         "counit": {"1": 1, "e": 1}},
        {"kind": "exterior", "degrees": [3]}]},
    # fields of the wrong JSON type
    dict(EXTERIOR_TABLE, comult=[]),
    dict(EXTERIOR_TABLE, comult={"1": {"1|1": 1}, "x": ["1|x", "x|1"]}),
    dict(EXTERIOR_TABLE, counit=[1]),
    dict(EXTERIOR_TABLE, basis={"1": 0, "x": 3}),
    dict(EXTERIOR_TABLE, basis=[["1", 0], ["x", "3"]]),
    dict(EXTERIOR_TABLE, basis=[["1", 0], "x"]),
    dict(EXTERIOR_TABLE, trunc="x"),
    dict(EXTERIOR_TABLE, trunc=True),
    dict(EXTERIOR_TABLE, basis=[["1", 0], ["x", True]]),
    {"kind": "polynomial", "degrees": [2], "trunc": "x"},
    {"kind": "tensor", "factors": {"kind": "exterior"}},
    # coefficients that are not JSON ints, and a bad coaugmentation
    dict(EXTERIOR_TABLE, comult={"1": {"1|1": 1}, "x": {"1|x": [], "x|1": 1}}),
    dict(EXTERIOR_TABLE, field=3,
         comult={"1": {"1|1": 1}, "x": {"1|x": 1, "x|1": 0.5}}),
    dict(EXTERIOR_TABLE, comult={"1": {"1|1": 1.0}, "x": {"1|x": 1, "x|1": 1}}),
    dict(EXTERIOR_TABLE, counit={"1": "1"}),
    dict(EXTERIOR_TABLE, counit={"1": True}),
    dict(EXTERIOR_TABLE, coaug=["1"]),
    dict(EXTERIOR_TABLE, coaug="y"),
    {"kind": "tensor", "factors": [{"kind": "exterior", "degrees": [3]}, 5]},
])
def test_bad_table_specs_are_input_errors(spec, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(spec))
    status, out, err = run_cli(
        ["cohh", "--spec", str(path), "--max-s", "2", "--max-t", "6"],
        capsys)
    assert status == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_good_table_spec_runs(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(EXTERIOR_TABLE))
    status, out, _ = run_cli(
        ["cohh", "--spec", str(path), "--max-s", "2", "--max-t", "6",
         "--format", "csv"], capsys)
    assert status == 0
    assert out.splitlines()[1:] == ["0,0,1", "0,3,1", "1,3,1", "1,6,1",
                                    "2,6,1"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    status, out, _ = run_cli(
        ["cohh", "--kind", "exterior", "--degrees", "3", "--field", "2",
         "--max-s", "2", "--max-t", "6", "--format", "json",
         "--output", str(target)], capsys)
    assert status == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["table"]


def test_validate_command(capsys):
    status, out, _ = run_cli(
        ["validate", "--kind", "polynomial", "--degrees", "2",
         "--trunc", "8", "--field", "3"], capsys)
    assert status == 0
    assert "ok: True" in out


def test_audit_command(capsys):
    status, out, _ = run_cli(
        ["audit", "--kind", "exterior", "--degrees", "3", "--field", "3",
         "--max-s", "3", "--max-t", "9", "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert {"s": 3, "t": 9, "dim": 1} in payload["primitives"]


def test_cotor_command(capsys):
    status, out, _ = run_cli(
        ["cotor", "--kind", "exterior", "--degrees", "3", "--field", "2",
         "--max-s", "3", "--max-t", "9", "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    dims = {(r["s"], r["t"]): r["dim"] for r in payload["table"]}
    assert dims == {(0, 0): 1, (1, 3): 1, (2, 6): 1, (3, 9): 1}
