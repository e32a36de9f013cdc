"""Self-tests of the benchmark: tracer, self times and correctness gates.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import random
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import (WORKLOADS, exterior_cohh_dims,  # noqa: E402
                       exterior_primitives, filtration_one_row,
                       polynomial_cotor_dims)


def test_nested_spans_give_expected_self_times():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    t = tr.Tracer("r1", clock=lambda: next(ticks))
    inner = t.span_wrapper("inner", lambda: None)

    def body():
        inner()
        inner()
    t.span_wrapper("outer", body)()
    spans = t.export()["spans"]
    assert [(s[0], s[3], s[4]) for s in spans] == [
        ("outer", -1, "r1"), ("inner", 0, "r1"), ("inner", 0, "r1")]
    assert tr.self_times(spans) == [5.0, 2.0, 3.0]


def test_span_closes_when_the_call_raises():
    t = tr.Tracer()

    def boom():
        raise ValueError("x")
    with pytest.raises(ValueError):
        t.span("outer", t.span_wrapper("inner", boom))
    assert [s.end > 0 for s in t.spans] == [True, True]
    assert t.span("after", lambda: 7) == 7
    assert t.spans[-1].parent == -1


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    class K:
        def m(self):
            return 1
    a.f, a.K = f, K
    b.g = f  # a `from .a import f as g` binding
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}


def test_install_wraps_every_binding_and_restore_puts_them_back(monkeypatch):
    mods = _fake_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    a, b = mods["fakepkg.a"], mods["fakepkg.b"]
    f, m = a.f, a.K.__dict__["m"]
    t = tr.Tracer()
    t.install([("a", "f", tr.SPAN, "a.f", None),
               ("a", "K.m", tr.COUNT, "a.K.m", None)], package="fakepkg")
    assert a.f is not f and b.g is a.f
    assert a.K().m() == 1 and a.f(1) == 2 and b.g(1) == 2
    assert [s.name for s in t.spans] == ["a.f", "a.f"]
    assert t.counts == {"a.K.m": 1}
    t.restore()
    assert a.f is f and b.g is f and a.K.__dict__["m"] is m


def _bindings():
    """Every attribute of every loaded cohh module and of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "cohh" or name.startswith("cohh."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(name, key, k)] = v
    return out


def _import_targets():
    import importlib
    for mod in {t[0] for t in tr.TARGETS}:
        importlib.import_module("cohh." + mod)


def test_tracer_restores_every_cohh_binding():
    _import_targets()
    before = _bindings()
    t = tr.Tracer()
    t.install()
    during = _bindings()
    changed = {k for k in before if during[k] is not before[k]}
    # every target was patched, including copies bound by `from` imports
    assert ("cohh.structure", "induced_operator") in changed
    assert ("cohh.cli", "build_coalgebra") in changed
    assert len(changed) >= len(tr.TARGETS)
    t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _run_inprocess(job, traced=False):
    from cohh import cli
    spec = job.spec(random.Random(0))
    parsed = cli.parse_spec(json.dumps(spec))
    if not traced:
        return cli.run(parsed), None
    _import_targets()
    t = tr.Tracer("t")
    t.install()
    try:
        result = t.span(layers.ROOT, cli.run, parsed)
    finally:
        t.restore()
    return result, t.export()


SMALL = {"cohh-ext2-f2": {"s_max": 2, "t_max": 10},
         "cotor-ext3-q": {"s_max": 2, "t_max": 14},
         "audit-ext1-f3": {"s_max": 3, "t_max": 9}}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_output_matches_untraced_and_fills_every_metric(name):
    job = dataclasses.replace(WORKLOADS[name], **SMALL[name])
    (status, text), _ = _run_inprocess(job)
    (tstatus, ttext), trace = _run_inprocess(job, traced=True)
    assert (tstatus, ttext) == (status, text) and status == 0
    values = layers.layer_values(trace, job, 0.0)
    assert [n for n, _ in layers.METRICS] == list(values)
    assert values["trace.spans"] > 0
    # every linalg.rref call took exactly one elimination path
    assert sum(values[f"linalg.path.{p}.calls"] for p in tr.PATHS) == \
        values["linalg.rref.calls"] > 0


def test_path_counts_and_setup_build_come_from_the_right_spans():
    # rows are [name, start, end, parent, run, stats]
    spans = [
        ["cli.build_coalgebra", 0.0, 1.0, -1, "r", {}],
        [layers.ROOT, 1.0, 10.0, -1, "r", {}],
        ["cli.build_coalgebra", 1.0, 3.0, 1, "r", {}],
        ["linalg.rref", 3.0, 4.0, 1, "r",
         {"rows": 2, "cols": 3, "nnz": 4, "rank": 2, "path": "q_dense"}],
        ["linalg.homology_reps", 4.0, 5.0, 1, "r", {"path": "python"}],
    ]
    job = WORKLOADS["cotor-ext3-q"]
    values = layers.layer_values({"spans": spans, "counts": {}}, job, 8.0)
    assert values["linalg.path.q_dense.calls"] == 1
    assert values["linalg.path.sparse.calls"] == 0
    assert values["cli.build_coalgebra.self_s"] == 1.0
    assert values["linalg.rref.cells"] == 6
    assert values["trace.overhead_s"] == 1.0


def _perturbations(payload, key):
    rows = payload[key]
    for i in range(len(rows)):
        bumped = json.loads(json.dumps(payload))
        bumped[key][i]["dim"] += 1
        yield bumped
        dropped = json.loads(json.dumps(payload))
        del dropped[key][i]
        yield dropped
    extra = json.loads(json.dumps(payload))
    extra[key].append({"s": 0, "t": 1, "dim": 1})
    yield extra


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_accepts_real_output_and_rejects_each_perturbed_entry(name):
    job = dataclasses.replace(WORKLOADS[name], **SMALL[name])
    (status, text), _ = _run_inprocess(job)
    payload = json.loads(text)
    assert job.gate(job, payload) == []
    keys = (["primitives", "indecomposables"] if job.command == "audit"
            else ["table"])
    for key in keys:
        for bad in _perturbations(payload, key):
            assert job.gate(job, bad), (key, bad[key])
    if job.command == "audit":
        assert job.gate(job, {**payload, "ok": False})


def test_check_rejects_wrong_digest_and_nonzero_exit():
    job = WORKLOADS["cohh-ext2-f2"]
    dims = exterior_cohh_dims(job.degrees, job.s_max, job.t_max)
    text = json.dumps({"table": [{"s": s, "t": t, "dim": d}
                                 for (s, t), d in sorted(dims.items())]})
    problems = job.check(0, text)
    assert len(problems) == 1 and "sha256" in problems[0]
    assert job.check(2, text) == ["exit status 2"]


def test_closed_forms_match_known_values():
    # Lambda(y3) (x) k[w3] through s 2, t 9
    assert exterior_cohh_dims([3], 2, 9) == {
        (0, 0): 1, (0, 3): 1, (1, 3): 1, (1, 6): 1, (2, 6): 1, (2, 9): 1}
    assert polynomial_cotor_dims([3, 5], 2, 10) == {
        (0, 0): 1, (1, 3): 1, (1, 5): 1, (2, 6): 1, (2, 8): 1, (2, 10): 1}
    assert exterior_primitives([3], 3, 5, 18) == {
        (0, 3): 1, (1, 3): 1, (3, 9): 1}
    assert filtration_one_row([3], 18) == {(1, 3): 1, (1, 6): 1}


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.METRICS)


def test_seed_changes_the_spelling_of_a_job_but_not_the_job():
    from cohh import cli
    job = WORKLOADS["cotor-ext3-q"]
    specs = [job.spec(random.Random(s)) for s in range(6)]
    assert len({json.dumps(s) for s in specs}) > 1
    jobs = [cli.parse_spec(json.dumps(s)) for s in specs]
    built = {repr(cli.build_coalgebra(j.coalgebra, j.field, j.t_max).comult)
             for j in jobs}
    rest = {(j.command, j.field, j.s_max, j.t_max, j.format) for j in jobs}
    assert len(built) == 1 and len(rest) == 1


def test_slowdown_is_the_median_loop_time_over_its_nominal_time():
    ticks = iter([0.0, 0.030, 1.0, 1.010, 2.0, 2.050])
    got = reference.slowdown(["python"], clock=lambda: next(ticks))
    assert got == {"python": pytest.approx(
        0.030 / reference.NOMINAL_S["python"])}
    assert reference.between({"python": 1.0}, {"python": 2.0}) == {
        "python": 1.5}


def test_every_loop_does_fixed_work():
    for loop in reference.LOOPS.values():
        assert loop() == loop() > 0


def test_end_to_end_scales_each_child_by_its_own_slowdown():
    job = WORKLOADS["cotor-ext3-q"]
    probes = [{"setup_s": s, "problems": [], "slowdown": {"start": f}}
              for s, f in ((0.2, 2.0), (0.3, 1.0), (0.1, 1.0))]
    jobs = [{"setup_s": 0.5, "solve_s": s, "peak_rss_kib": 2048,
             "slowdown": {"python": f}, "problems": []}
            for s, f in ((2.0, 2.0), (1.0, 1.0), (3.0, 1.5))]
    values = {k: m["value"] for k, m in run.end_to_end(job, probes,
                                                       jobs).items()}
    assert values == {"solve_s": 1.0, "setup_s": 0.1, "peak_rss_mib": 2.0}
    unscaled = WORKLOADS["cohh-ext2-f2"]
    assert run.end_to_end(unscaled, probes, jobs)["solve_s"]["value"] == 2.0
