"""Per-layer metrics of one traced job, computed from its spans and counts.

Names are `<module>.<function>.<kind>`.  `self_s` is a span's duration
minus the time its child spans cover, summed over calls.  `_kernels`
is reported as `kernels` and `cli._render` as `cli.render`, because a
metric name must start with a letter.  `linalg.path.*.calls` counts the
`linalg.rref` calls by the elimination path they took; `homology_reps`
calls `_rref_sparse` directly, and those calls are not counted.
`cli.build_coalgebra.self_s` is the set-up's build only; the build that
`cli.run` repeats inside the solve is left out.  DESIGN.md says which end-to-end
metric each one should move, and on which workload.
"""

from collections import Counter

from tracer import PATHS, self_times

S, N, R = "s", "count", "ratio"

METRICS = (
    ("complexes.normalized_complex.self_s", S),
    ("complexes.induced_operator.self_s", S),
    ("complexes.induced_operator.calls", N),
    ("complexes.induced_operator.columns", N),
    ("complexes.HomologyTable.self_s", S),
    ("complexes.normalized_dim", N),
    ("complexes.ambient_dim", N),
    ("complexes.normalized_share", R),
    ("kernels.rref_mod_p.self_s", S),
    ("kernels.rref_mod_p.calls", N),
    ("kernels.rref_mod_p.cells", N),
    ("kernels.rref_mod_p.ops", N),
    ("linalg.rref.self_s", S),
    ("linalg.rref.calls", N),
    ("linalg.rref.cells", N),
    ("linalg.rref.nnz", N),
    ("linalg.rref.rank", N),
    ("linalg.rref.max_cells", N),
    *((f"linalg.path.{p}.calls", N) for p in PATHS),
    ("linalg.solve.self_s", S),
    ("linalg.solve.calls", N),
    ("linalg.solve.targets", N),
    ("linalg.kernel_basis.self_s", S),
    ("linalg.homology_reps.self_s", S),
    ("linalg.reduce_mod_span.calls", N),
    ("linalg.rref_per_bidegree", R),
    ("graded.compose.self_s", S),
    ("graded.compose.calls", N),
    ("graded.matrix.self_s", S),
    ("coalgebra.iterated_comult.calls", N),
    ("comodule.cobar_level_space.self_s", S),
    ("comodule.cobar_differential.self_s", S),
    ("comodule.cobar_basis", N),
    ("structure.sh_map.self_s", S),
    ("structure.sh_map.calls", N),
    ("structure.class_coproduct.self_s", S),
    ("structure.class_coproduct.calls", N),
    ("structure.levelwise_comult.self_s", S),
    ("structure.project.self_s", S),
    ("structure.homology_multiplication.self_s", S),
    ("structure.sh_columns_per_rep", R),
    ("spectral.build_e2.self_s", S),
    ("spectral.e2_structure_audit.self_s", S),
    ("spectral.quotient_by_products.self_s", S),
    ("spectral.primitive_dims.self_s", S),
    ("cli.parse_spec.self_s", S),
    ("cli.build_coalgebra.self_s", S),
    ("cli.render.self_s", S),
    ("trace.solve_s", S),
    ("trace.overhead_s", S),
    ("trace.unattributed_s", S),
    ("trace.design_share", R),
    ("trace.spans", N),
)

ROOT = "job.solve"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(trace, job, plain_solve_s):
    """{metric name: value} for one traced job run.

    plain_solve_s is the untraced solve time of the same job in the same
    benchmark run; the difference is the tracing overhead.
    """
    spans, counts = trace["spans"], Counter(trace["counts"])
    selfs = self_times(spans)
    own, calls, stat = Counter(), Counter(), Counter()
    under_sh, under_solve = [], []
    max_cells = sh_columns = solve_s = unattributed = setup_build = 0
    for (name, start, end, parent, _, st), self_s in zip(spans, selfs):
        own[name] += self_s
        calls[name] += 1
        for key, value in st.items():
            if key != "path":
                stat[f"{name}.{key}"] += value
        # parents precede their children in the span list
        under_sh.append(parent >= 0 and (under_sh[parent]
                        or spans[parent][0] == "structure.sh_map"))
        under_solve.append(name == ROOT or parent >= 0 and under_solve[parent])
        if name == "cli.build_coalgebra" and not under_solve[-1]:
            setup_build += self_s
        elif name == "linalg.rref":
            stat[f"linalg.path.{st.get('path')}.calls"] += 1
            cells = st["rows"] * st["cols"]
            stat["linalg.rref.cells"] += cells
            max_cells = max(max_cells, cells)
        elif name == "kernels.rref_mod_p":
            stat["kernels.rref_mod_p.ops"] += st["rank"] * st["cells"]
        elif name == "complexes.induced_operator" and under_sh[-1]:
            sh_columns += st["columns"]
        elif name == ROOT:
            solve_s, unattributed = end - start, self_s

    values = {}
    for name, _ in METRICS:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = own[base]
        elif kind == "calls":
            values[name] = calls[base] or counts[base]
    bidegrees = (job.s_max + 1) * (job.t_max + 1)
    values.update({
        **{f"linalg.path.{p}.calls": stat[f"linalg.path.{p}.calls"]
           for p in PATHS},
        "cli.build_coalgebra.self_s": setup_build,
        "complexes.induced_operator.columns":
            stat["complexes.induced_operator.columns"],
        "complexes.normalized_dim": stat["complexes.normalized_complex.normalized"],
        "complexes.ambient_dim": stat["complexes.normalized_complex.ambient"],
        "complexes.normalized_share": _ratio(
            stat["complexes.normalized_complex.normalized"],
            stat["complexes.normalized_complex.ambient"]),
        "kernels.rref_mod_p.cells": stat["kernels.rref_mod_p.cells"],
        "kernels.rref_mod_p.ops": stat["kernels.rref_mod_p.ops"],
        "linalg.rref.cells": stat["linalg.rref.cells"],
        "linalg.rref.nnz": stat["linalg.rref.nnz"],
        "linalg.rref.rank": stat["linalg.rref.rank"],
        "linalg.rref.max_cells": max_cells,
        "linalg.solve.targets": stat["linalg.solve.targets"],
        "linalg.rref_per_bidegree": _ratio(calls["linalg.rref"], bidegrees),
        "comodule.cobar_basis": stat["comodule.cobar_level_space.basis"],
        "structure.sh_columns_per_rep": _ratio(
            sh_columns, calls["structure.class_coproduct"]),
        "trace.solve_s": solve_s,
        "trace.overhead_s": solve_s - plain_solve_s,
        "trace.unattributed_s": unattributed,
        "trace.design_share": _ratio(
            sum(v for k, v in own.items() if k.startswith(job.design)),
            solve_s),
        "trace.spans": len(spans),
    })
    return {name: values[name] for name, _ in METRICS}
