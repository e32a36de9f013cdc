"""Tests for the command line front end: parsing and defaults, exit
codes, output formats, and byte-level determinism."""

import gc
import hashlib
import json
import types

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
    with pytest.raises(cli.ParseError, match="nests too deeply"):
        cli.parse_spec("[" * 100000 + "]" * 100000)
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


def test_collapse_enumerates_without_bounds(capsys):
    status, out, _ = run_cli(
        ["collapse", "--degrees", "3,5", "--prime", "3", "--format", "json"],
        capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["meta"]["bounds"] == {}
    (candidate,) = payload["candidates"]
    assert candidate["text"].startswith("d_2: (1, 8) -> (3, 9)")


@pytest.mark.parametrize("degrees, prime", [("3,25", "13"), ("11,31", "2")])
def test_loops_refuses_a_candidate_past_any_search_bound(degrees, prime,
                                                         capsys):
    status, out, err = run_cli(
        ["loops", "--degrees", degrees, "--prime", prime], capsys)
    assert status == 2
    assert err.startswith("refused: ")
    assert out == ""


@pytest.mark.parametrize("max_degree", [10 ** 18, 10 ** 19])
def test_loops_with_an_impossible_bound_is_an_input_error(
        max_degree, tmp_path, capsys):
    # 10**18 entries exceed the address space and 10**19 a Py_ssize_t:
    # both are refused before anything is allocated
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"command": "loops", "degrees": [3],
                                "prime": 5, "max_degree": max_degree}))
    for argv in (["loops", "--degrees", "3", "--prime", "5",
                  "--max-degree", str(max_degree)],
                 ["loops", "--spec", str(spec)]):
        status, out, err = run_cli(argv, capsys)
        assert status == 1, argv
        assert err.startswith("error: ") and "lower" in err, argv
        assert "Traceback" not in err and out == "", argv


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
                 ["cohh", "--spec", "/does/not/exist.json"],
                 # usage errors of the argument parser itself
                 ["cohh", "--max-s", "abc"],
                 ["cohh", "--bogus"],
                 ["cohh", "--kind", "tensor"],
                 ["cohh", "--format", "xml"],
                 []):
        status, _, err = run_cli(argv, capsys)
        assert status == 1, argv
        assert err.startswith("error: "), argv


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["cohh", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_huge_prime_field_runs_and_64_bit_characteristic_is_refused(capsys):
    status, out, _ = run_cli(
        ["cohh", "--degrees", "3", "--field", str(2**61 - 1), "--max-s", "2",
         "--max-t", "8", "--format", "json"], capsys)
    assert status == 0
    assert json.loads(out)["meta"]["field"] == f"F_{2**61 - 1}"
    for argv in (["cohh", "--degrees", "3", "--field", str(2**64 + 13)],
                 ["collapse", "--degrees", "3,5", "--prime", str(2**64 + 13)]):
        status, _, err = run_cli(argv, capsys)
        assert status == 1, argv
        assert err.startswith("error:") and "2**64" in err


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
    # a negative degree: Koszul signs (-1)**(|a||b|) are only ints for
    # nonnegative degrees
    dict(EXTERIOR_TABLE, basis=[["1", 0], ["x", -3]]),
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
    # job fields of the wrong JSON type (the flags set s_max and t_max)
    dict(EXTERIOR_TABLE, max_degree={}),
    dict(EXTERIOR_TABLE, max_degree=4.0),
    dict(EXTERIOR_TABLE, max_degree=-1),
    dict(EXTERIOR_TABLE, prime=[2]),
    dict(EXTERIOR_TABLE, prime=True),
    dict(EXTERIOR_TABLE, field=2.9),
    dict(EXTERIOR_TABLE, field=True),
    dict(EXTERIOR_TABLE, field=[2]),
    dict(EXTERIOR_TABLE, output=7),
    dict(EXTERIOR_TABLE, output=7.5),
    # JSON text too deeply nested for json to read
    pytest.param('{"command": "cohh", "kind": "exterior", "degrees": [3], '
                 '"x": ' + "[" * 100000 + "]" * 100000 + "}",
                 id="nested-100000-deep"),
])
def test_bad_table_specs_are_input_errors(spec, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    status, out, err = run_cli(
        ["cohh", "--spec", str(path), "--max-s", "2", "--max-t", "6"],
        capsys)
    assert status == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


# deconcatenation: a coassociative, counital coalgebra that is not
# cocommutative
DECONCATENATION = {
    "kind": "table",
    "basis": [["1", 0], ["a", 3], ["b", 5], ["ab", 8], ["ba", 8]],
    "comult": {"1": {"1|1": 1}, "a": {"1|a": 1, "a|1": 1},
               "b": {"1|b": 1, "b|1": 1},
               "ab": {"1|ab": 1, "a|b": 1, "ab|1": 1},
               "ba": {"1|ba": 1, "b|a": 1, "ba|1": 1}},
    "counit": {"1": 1}}


@pytest.mark.parametrize("argv, status", [
    (["cohh", "--max-s", "1", "--max-t", "10"], 1), (["cohh"], 1),
    (["e2"], 1), (["audit"], 1), (["cotor"], 0), (["validate"], 0)],
    ids=["cohh-s1-t10", "cohh", "e2", "audit", "cotor", "validate"])
def test_circle_homology_refuses_a_coalgebra_that_is_not_cocommutative(
        argv, status, tmp_path, capsys):
    # the cobar complex needs no cocommutativity, so cotor still runs
    path = tmp_path / "job.json"
    path.write_text(json.dumps(DECONCATENATION))
    got, out, err = run_cli(argv + ["--spec", str(path)], capsys)
    assert got == status
    assert "Traceback" not in err
    if status:
        assert out == ""
        assert err.startswith("error:") and "cocommutative" in err
    else:
        assert out and not err


@pytest.mark.parametrize("key", ["s_max", "t_max"])
@pytest.mark.parametrize("value", [[1], {}, True, 2.7, "2"])
def test_bounds_of_the_wrong_json_type_are_input_errors(key, value,
                                                        tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(EXTERIOR_TABLE, **{key: value})))
    status, out, err = run_cli(["cohh", "--spec", str(path)], capsys)
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


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "table.json"):
        status, out, err = run_cli(
            ["cohh", "--kind", "exterior", "--degrees", "3", "--max-s", "1",
             "--max-t", "3", "--output", str(target)], capsys)
        assert status == 1
        assert out == ""
        assert err.startswith("error: cannot write")


def test_validate_command(capsys):
    status, out, _ = run_cli(
        ["validate", "--kind", "polynomial", "--degrees", "2",
         "--trunc", "8", "--field", "3"], capsys)
    assert status == 0
    assert "ok: True" in out


def test_polynomial_coalgebra_is_built_through_t_max(monkeypatch, capsys):
    built = []
    real = cli.polynomial_coalgebra

    def recording(degrees, field, truncation):
        built.append(truncation)
        return real(degrees, field, truncation=truncation)

    monkeypatch.setattr(cli, "polynomial_coalgebra", recording)
    outs = []
    for trunc in ("60", "2"):
        status, out, _ = run_cli(
            ["cotor", "--kind", "polynomial", "--degrees", "2",
             "--trunc", trunc, "--max-s", "0", "--max-t", "2",
             "--format", "json"], capsys)
        assert status == 0
        outs.append(out)
    # no command reads a degree above t_max, so none is built
    assert built == [2, 2]
    assert outs[0] == outs[1]


def test_audit_command(capsys):
    status, out, _ = run_cli(
        ["audit", "--kind", "exterior", "--degrees", "3", "--field", "3",
         "--max-s", "3", "--max-t", "9", "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert {"s": 3, "t": 9, "dim": 1} in payload["primitives"]


def test_audit_mismatch_exits_2_with_ok_false(monkeypatch, capsys):
    from cohh import spectral
    closed_form = spectral.exterior_monomials

    def with_a_ghost(degrees, s_max, t_max):
        out = closed_form(degrees, s_max, t_max)
        out.setdefault((1, 1), []).append("ghost")
        return out
    monkeypatch.setattr(spectral, "exterior_monomials", with_a_ghost)
    status, out, err = run_cli(
        ["audit", "--degrees", "3", "--field", "3", "--max-s", "2",
         "--max-t", "6", "--format", "json"], capsys)
    assert status == 2
    assert err == ""
    payload = json.loads(out)
    assert payload["ok"] is False
    assert {"s": 1, "t": 1, "dim": 1} in payload["expected_indecomposables"]


def test_audit_exits_2_when_kuenneth_fails(monkeypatch, capsys):
    from test_structure import fail_kuenneth_at
    argv = ["audit", "--degrees", "3", "--field", "3", "--max-s", "3",
            "--max-t", "9", "--format", "json"]
    _, clean, _ = run_cli(argv, capsys)
    fail_kuenneth_at(monkeypatch, (1, 6))
    status, out, err = run_cli(argv, capsys)
    assert status == 2
    assert err == ""
    payload, want = json.loads(out), json.loads(clean)
    assert payload["ok"] is False and want["ok"] is True
    assert all(payload[k] == want[k] for k in cli.AUDIT_TABLES)


def test_jobs_leave_no_cohh_function_in_a_reference_cycle():
    # a function that refers to itself, directly or through a closure,
    # is freed only by the cyclic collector, with all it captured
    jobs = [{"command": command, "kind": "exterior", "degrees": [3, 5],
             "field": field, "s_max": 3, "t_max": 16}
            for command, field in (("cohh", 2), ("e2", 3), ("audit", 3),
                                   ("cotor", 0))]
    flags = gc.get_debug()
    gc.collect()
    try:
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        for spec in jobs:
            gc.collect()
            gc.garbage.clear()
            cli.run(cli.parse_spec(json.dumps(spec)))
            gc.collect()
            leaked = [obj.__qualname__ for obj in gc.garbage
                      if isinstance(obj, types.FunctionType)
                      and obj.__module__.startswith("cohh")]
            assert leaked == [], (spec["command"], leaked)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def test_cotor_command(capsys):
    status, out, _ = run_cli(
        ["cotor", "--kind", "exterior", "--degrees", "3", "--field", "2",
         "--max-s", "3", "--max-t", "9", "--format", "json"], capsys)
    assert status == 0
    payload = json.loads(out)
    dims = {(r["s"], r["t"]): r["dim"] for r in payload["table"]}
    assert dims == {(0, 0): 1, (1, 3): 1, (2, 6): 1, (3, 9): 1}


@pytest.mark.parametrize("argv, digest", [
    ("cotor --degrees 3,5,7 --field 0 --max-s 3 --max-t 18",
     "a74c9570eaa1a87691328aa86041fe787f0ecd396adef63ab521cec0a5a892e2"),
    ("cohh --degrees 3,5 --field 0 --max-s 3 --max-t 16",
     "cfeb999c28845ef2e01d35dc584334eb397cfc66ec939d68b77965639df97ecc"),
    ("audit --degrees 3 --field 0 --max-s 3 --max-t 12",
     "6a032c4c6af7ddc4ce9ceb8a81086874b9d504412ffa94e32ca1f2195fcc7cdf"),
    # the cotensor differential's wa[1:] sign on odd generators
    ("audit --degrees 3,5 --field 0 --max-s 3 --max-t 16",
     "97c4a62c30033c37214c3d8a0f385630b429859f64460a2fd4ccb7b4563b17f8"),
    ("audit --degrees 3,5,7 --field 0 --max-s 3 --max-t 20",
     "8e123c08f7a04850d4f44b01fe83b720bab8445067fc69d7e3b5b103acd97b96"),
    # representatives with Fraction entries
    ("audit --degrees 3,5 --field 0 --max-s 5 --max-t 26",
     "2e186a421c72d26b24d4163da76a69f52eb2d99393cff5bbe82c593780501eee"),
], ids=["cotor", "cohh", "audit", "audit-two-generators",
        "audit-three-generators", "audit-fraction-representatives"])
def test_rational_json_output_is_pinned(argv, digest, capsys):
    # int scalars over Q must render exactly as the Fraction ones did
    status, out, _ = run_cli(argv.split() + ["--format", "json"], capsys)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("cohh --degrees 3,5 --field 2 --max-s 4 --max-t 24",
     "bc0a622d76ba502fa439bca7dd33f4451289a903f312074f6fe291610982fd79"),
    ("cohh --kind polynomial --degrees 2 --field 3 --max-s 4 --max-t 16",
     "ec54dd08176a04318fe68e528928b27e120f3cb0a63cb22e6e961a68893a836e"),
    ("audit --degrees 3 --field 2 --max-s 5 --max-t 18",
     "290e4d9c150182b06afbf918e5ae71796310399c223fb7cc840447e9cb582a37"),
    ("audit --degrees 3,5 --field 3 --max-s 4 --max-t 20",
     "9b890253d78add0c062bd4c949241c3eb7aff4d1709243a6deb07988b73229f9"),
    ("audit --degrees 3,5 --field 2 --max-s 3 --max-t 16",
     "3a40fc32b6425e39fc0af18835eeb92b74e5858d7d3489fa7d121342bd00bb70"),
    # the job of perfbench's audit-ext1-f3 workload
    ("audit --degrees 3 --field 3 --max-s 4 --max-t 18",
     "da157dd00ea3164834f3c9cd153592175da4afb41c26cc582f9516d7530552cf"),
    ("cohh --degrees 3,5,7 --field 2 --max-s 4 --max-t 24",
     "dd8cacda66dae378418f3710b0ee7052092e1e3896129f7724266145ad0c38fd"),
    ("cohh --degrees 3,5 --field 2305843009213693951 --max-s 3 --max-t 16",
     "b3bef9116e8363db85e9b2b27efb6dafedb18a2491d706fb3e944477d4eac011"),
], ids=["cohh-exterior", "cohh-polynomial", "audit", "audit-two-generators",
        "audit-two-generators-mod-2", "audit-one-generator-mod-3", "cohh-three-generators",
        "cohh-mod-2**61-1"])
def test_modular_json_output_is_pinned(argv, digest, capsys):
    # generated terms, cut-off cofaces and rank dims must print exactly
    # what the filtered terms and per-block representatives printed
    status, out, _ = run_cli(argv.split() + ["--format", "json"], capsys)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _tensor_spec(trunc):
    return {"kind": "tensor", "factors": [
        {"kind": "exterior", "degrees": [3]},
        {"kind": "polynomial", "degrees": [4], "trunc": trunc}]}


@pytest.mark.parametrize("command, s_max, t_max, spec, full, through", [
    ("cohh", 2, 12, _tensor_spec(8), _tensor_spec(12), 8),
    ("cotor", 6, 10, {"kind": "polynomial", "degrees": [2], "trunc": 5},
     {"kind": "polynomial", "degrees": [2], "trunc": 10}, 5),
], ids=["cohh-tensor", "cotor-polynomial"])
def test_a_truncated_input_reports_the_bound_its_table_holds_through(
        command, s_max, t_max, spec, full, through, tmp_path, capsys):
    def run_job(coalgebra, fmt):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(dict(coalgebra, command=command,
                                       s_max=s_max, t_max=t_max,
                                       format=fmt)))
        status, out, _ = run_cli([command, "--spec", str(job)], capsys)
        assert status == 0
        return out

    payload = json.loads(run_job(spec, "json"))
    assert payload["meta"]["bounds"] == {"s_max": s_max, "t_max": through}
    assert max(r["t"] for r in payload["table"]) <= through
    # below the truncation the rows are those of an untruncated input
    untruncated = json.loads(run_job(full, "json"))
    assert untruncated["meta"]["bounds"]["t_max"] == t_max
    assert payload["table"] == [r for r in untruncated["table"]
                                if r["t"] <= through]
    text = run_job(spec, "text").splitlines()
    assert f"'t_max': {through}}}" in text[0]
    assert text[1].split()[1:] == [str(t) for t in range(through + 1)]
    assert all(len(row.split()) == through + 2 for row in text[2:])
