"""Command line front end: build a coalgebra from flags or a JSON job
file, run one computation, and emit a deterministic table.

Commands: validate, cohh, e2, collapse, loops, audit, cotor.

A job file is a JSON object with a "command" key plus the same fields
the flags set, e.g.

    {"command": "e2", "kind": "exterior", "degrees": [3],
     "field": 2, "s_max": 4, "t_max": 15, "format": "json"}

Coalgebra spec fields: "kind" in {exterior, polynomial, tensor, table};
"degrees" for exterior/polynomial; "trunc" for polynomial; "factors"
(a list of specs) for tensor; "basis"/"comult"/"counit"/"coaug" for
table.  Defaults: field 2, s_max 6, t_max 40, format text.

JSON output has sorted keys and a trailing newline, so identical jobs
produce byte-identical files.  Exit status: 0 on success, 1 on an
input error, 2 on a mathematical refusal (an established verdict is
not a refusal; a missing one is).
"""

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .coalgebra import (GradedCoalgebra, exterior_coalgebra,
                        polynomial_coalgebra, tensor_coalgebra,
                        validate as validate_coalgebra)
from .complexes import cohh as cohh_table
from .comodule import cobar_cotor, trivial_comodule
from .fields import QQ, GF, FieldSpec
from .spectral import (CollapseNotEstablished, DegreeEven, NotPrime,
                       build_e2, collapse_analysis, e2_structure_audit,
                       loop_homology, _check_degrees)

FORMATS = ("text", "json", "csv")
DEFAULTS = {"field": 2, "s_max": 6, "t_max": 40, "format": "text"}
AUDIT_TABLES = ("indecomposables", "expected_indecomposables",
                "primitives", "expected_primitives")


class ParseError(ValueError):
    """A job or coalgebra spec that does not match the schema."""


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input: a ParseError, which exits 1."""

    def error(self, message):
        raise ParseError(message)


@dataclass
class JobSpec:
    """A parsed job.  parse_spec sets every field; DEFAULTS holds the
    field, s_max, t_max and format of a job that leaves them out."""

    command: str
    coalgebra: dict
    field: FieldSpec
    s_max: int
    t_max: int
    max_degree: int
    prime: int
    degrees: list
    format: str
    output: str


def parse_field(value) -> FieldSpec:
    """A JSON int, or a string as the --field flag passes it."""
    if isinstance(value, str):
        if value.strip().upper() == "Q":
            return QQ
        try:
            value = int(value)
        except ValueError:
            pass
    if not _is_int(value):
        raise ParseError(f"field must be 0/Q or a prime, got {value!r}")
    if value == 0:
        return QQ
    try:
        return GF(value)
    except ValueError as exc:
        raise NotPrime(str(exc)) from exc


def _is_int(x) -> bool:
    """A JSON integer: bool is a subclass of int, but true/false are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _json_int(raw: dict, key: str, default=None):
    """raw[key], which must be a JSON int; default when absent or null."""
    value = raw.get(key)
    if value is None:
        return default
    if not _is_int(value):
        raise ParseError(f"{key} must be an int, got {value!r}")
    return value


def parse_degrees(value):
    if value is None:
        return None
    if isinstance(value, str):
        parts = [p for p in value.replace(",", " ").split() if p]
        try:
            value = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"bad degree list {value!r}")
    if not isinstance(value, list) or not all(
            _is_int(d) for d in value):
        raise ParseError(f"degrees must be a list of ints, got {value!r}")
    return sorted(value)


def build_coalgebra(spec: dict, field: FieldSpec,
                    t_max: int) -> GradedCoalgebra:
    kind = spec.get("kind", "exterior")
    trunc = spec.get("trunc")
    if trunc is not None and not _is_int(trunc):
        raise ParseError(f"trunc must be an int, got {trunc!r}")
    if kind == "exterior":
        degrees = parse_degrees(spec.get("degrees"))
        if not degrees:
            raise ParseError("exterior coalgebra needs degrees")
        _check_degrees(degrees)
        return exterior_coalgebra(degrees, field)
    if kind == "polynomial":
        degrees = parse_degrees(spec.get("degrees"))
        if not degrees:
            raise ParseError("polynomial coalgebra needs degrees")
        # no command reads a degree above t_max
        return polynomial_coalgebra(
            degrees, field,
            truncation=t_max if trunc is None else min(trunc, t_max))
    if kind == "tensor":
        factors = spec.get("factors")
        if not isinstance(factors, list) or not all(
                isinstance(x, dict) for x in factors):
            raise ParseError("tensor factors must be a list of objects")
        if len(factors) < 2:
            raise ParseError("tensor coalgebra needs >= 2 factors")
        built = [build_coalgebra(f, field, t_max) for f in factors]
        out = built[0]
        for nxt in built[1:]:
            out = tensor_coalgebra(out, nxt)
        return out
    if kind == "table":
        for key in ("basis", "comult", "counit"):
            if key not in spec:
                raise ParseError(f"table coalgebra needs {key!r}")
        if not isinstance(spec["basis"], list) or not all(
                isinstance(b, list) and len(b) == 2 and _is_int(b[1])
                and b[1] >= 0 for b in spec["basis"]):
            raise ParseError("basis must be a list of [label, degree] "
                             "pairs with degree >= 0")
        if not isinstance(spec["comult"], dict) or not all(
                isinstance(row, dict) for row in spec["comult"].values()):
            raise ParseError("comult must be an object of objects")
        if not isinstance(spec["counit"], dict):
            raise ParseError("counit must be an object")
        coeffs = [c for row in spec["comult"].values()
                  for c in row.values()] + list(spec["counit"].values())
        bad = [c for c in coeffs if not _is_int(c)]
        if bad:
            raise ParseError(f"table coefficients must be ints, got "
                             f"{bad[0]!r}")
        basis = [(str(n), d) for n, d in spec["basis"]]
        known = {n for n, _ in basis}
        coaug = spec.get("coaug", "1")
        if not isinstance(coaug, str) or coaug not in known:
            raise ParseError(f"coaug must be a basis label, got {coaug!r}")
        comult = {a: {tuple(k.split("|")): field.coerce(c)
                      for k, c in row.items()}
                  for a, row in spec["comult"].items()}
        counit = {a: field.coerce(c) for a, c in spec["counit"].items()}
        for a, row in comult.items():
            for pair in row:
                if len(pair) != 2:
                    raise ParseError(f"comult key {'|'.join(pair)!r} of "
                                     f"{a!r} is not of the form 'a|b'")
            unknown = sorted(({a} | {x for pair in row for x in pair})
                             - known)
            if unknown:
                raise ParseError(f"comult of {a!r} names labels not in "
                                 f"basis: {unknown}")
        unknown = sorted(set(counit) - known)
        if unknown:
            raise ParseError(f"counit names labels not in basis: {unknown}")
        c = GradedCoalgebra(field, basis, comult, counit,
                            coaug=coaug,
                            truncation=trunc)
        failed = validate_coalgebra(c).failures
        if failed:
            ch = failed[0]
            raise ParseError(f"table coalgebra fails {ch.name!r}"
                             + (f": {ch.witness}" if ch.witness else ""))
        return c
    raise ParseError(f"unknown coalgebra kind {kind!r}")


def _load_json(text: str):
    """The JSON value of a job file; text that json cannot read, too
    deeply nested included, is a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"job file is not valid JSON: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("job file nests too deeply") from exc


def parse_spec(text: str) -> JobSpec:
    """Parse a JSON job file into a fully-defaulted JobSpec."""
    raw = _load_json(text)
    if not isinstance(raw, dict) or "command" not in raw:
        raise ParseError("job file must be an object with a 'command'")
    command = raw["command"]
    if command not in ("validate", "cohh", "e2", "collapse", "loops",
                       "audit", "cotor"):
        raise ParseError(f"unknown command {command!r}")
    fmt = raw.get("format", DEFAULTS["format"])
    if fmt not in FORMATS:
        raise ParseError(f"format must be one of {FORMATS}, got {fmt!r}")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ParseError(f"output must be a file name, got {output!r}")
    coalg_keys = ("kind", "degrees", "trunc", "factors", "basis",
                  "comult", "counit", "coaug")
    job = JobSpec(
        command=command,
        coalgebra={k: raw[k] for k in coalg_keys if k in raw},
        field=parse_field(raw.get("field", DEFAULTS["field"])),
        s_max=_json_int(raw, "s_max", DEFAULTS["s_max"]),
        t_max=_json_int(raw, "t_max", DEFAULTS["t_max"]),
        max_degree=_json_int(raw, "max_degree"),
        prime=_json_int(raw, "prime"),
        degrees=parse_degrees(raw.get("degrees")),
        format=fmt,
        output=output,
    )
    if min(job.s_max, job.t_max, job.max_degree or 0) < 0:
        raise ParseError("bounds must be nonnegative")
    if command in ("collapse", "loops"):
        if not job.degrees:
            raise ParseError(f"{command} needs degrees")
        if job.prime is None:
            raise ParseError(f"{command} needs --prime")
    if job.degrees and job.coalgebra.get("kind", "exterior") == "exterior":
        _check_degrees(job.degrees)
    return job


def _meta(job: JobSpec) -> dict:
    bounds = {"s_max": job.s_max, "t_max": job.t_max}
    if job.max_degree is not None:
        bounds["max_degree"] = job.max_degree
    return {"version": __version__, "bounds": bounds,
            "field": str(job.field)}


def _table_rows(dims: dict) -> list:
    return [{"s": s, "t": t, "dim": d}
            for (s, t), d in sorted(dims.items()) if d]


def _render_grid(dims: dict, s_max: int, t_max: int) -> str:
    width = max([2] + [len(str(d)) for d in dims.values()])
    lines = ["s\\t " + " ".join(f"{t:>{width}}" for t in range(t_max + 1))]
    for s in range(s_max + 1):
        row = " ".join(f"{dims.get((s, t), 0) or '.':>{width}}"
                       for t in range(t_max + 1))
        lines.append(f"{s:>3} " + row)
    return "\n".join(lines)


def _render(payload: dict, job: JobSpec, grid=None) -> str:
    if job.format == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if job.format == "csv":
        lines = []
        if "table" in payload:
            lines.append("s,t,dim")
            lines += [f"{r['s']},{r['t']},{r['dim']}"
                      for r in payload["table"]]
        if "dims_by_degree" in payload:
            lines.append("n,dim")
            lines += [f"{n},{d}"
                      for n, d in enumerate(payload["dims_by_degree"])]
        if "verdict" in payload:
            lines.append("verdict")
            lines.append(payload["verdict"])
        if "checks" in payload:
            lines.append("name,passed")
            lines += [f"{c['name']},{str(c['passed']).lower()}"
                      for c in payload["checks"]]
        audit = [k for k in AUDIT_TABLES if k in payload]
        if audit:
            lines.append("kind,s,t,dim")
            lines += [f"{k},{r['s']},{r['t']},{r['dim']}"
                      for k in audit for r in payload[k]]
        return "\n".join(lines) + "\n"
    # text
    lines = [f"{job.command} over {payload['meta']['field']}, bounds "
             f"{payload['meta']['bounds']}"]
    if grid is not None:
        lines.append(_render_grid(grid.dims(), grid.s_max, grid.t_max))
    if "dims_by_degree" in payload:
        lines.append("n:   " + " ".join(
            str(n) for n in range(len(payload["dims_by_degree"]))))
        lines.append("dim: " + " ".join(
            str(d) for d in payload["dims_by_degree"]))
    for key in ("verdict", "ok", "closed_form_ok", "note"):
        if key in payload:
            lines.append(f"{key}: {payload[key]}")
    for c in payload.get("candidates", ()):
        lines.append("candidate " + c["text"])
    for c in payload.get("checks", ()):
        mark = "ok  " if c["passed"] else "FAIL"
        lines.append(f"{mark} {c['name']}")
    return "\n".join(lines) + "\n"


def _frac(x) -> str:
    return str(Fraction(x))


def run(job: JobSpec):
    """Execute a job; returns (exit_status, rendered_output)."""
    payload = {"meta": _meta(job)}
    grid = None
    status = 0

    if job.command == "validate":
        c = build_coalgebra(job.coalgebra, job.field, job.t_max)
        report = validate_coalgebra(c, max_degree=job.max_degree)
        payload["ok"] = report.ok
        payload["checks"] = [
            {"name": ch.name, "passed": ch.passed}
            for ch in report.checks]
        status = 0 if report.ok else 1
    elif job.command == "cohh":
        c = build_coalgebra(job.coalgebra, job.field, job.t_max)
        grid = cohh_table(c, job.s_max, job.t_max)
    elif job.command == "e2":
        c = build_coalgebra(job.coalgebra, job.field, job.t_max)
        page = build_e2(c, job.s_max, job.t_max)
        grid = page.table
        if page.generator_degrees is not None:
            payload["closed_form_ok"] = page.closed_form.passed
            payload["generators"] = {
                name: list(bd) for name, bd in page.generators.items()}
    elif job.command == "collapse":
        report = collapse_analysis(job.degrees, job.prime)
        payload["meta"]["field"] = str(GF(job.prime))
        payload["meta"]["bounds"] = {}
        payload["verdict"] = report.verdict
        payload["bound"] = _frac(report.bound_value)
        payload["bound_holds"] = report.bound_holds
        payload["weak_bound"] = _frac(report.weak_bound_value)
        payload["weak_bound_holds"] = report.weak_bound_holds
        payload["candidates"] = [
            {"r": c.r, "source": list(c.source_bidegree),
             "target": list(c.target_bidegree),
             "source_monomials": c.source_monomials,
             "target_monomial": c.target_monomial,
             "text": str(c)}
            for c in report.candidates]
    elif job.command == "loops":
        n_max = job.max_degree if job.max_degree is not None else 30
        table = loop_homology(job.degrees, job.prime, n_max)
        payload["meta"]["field"] = str(GF(job.prime))
        payload["dims_by_degree"] = [table.dims[n]
                                     for n in range(n_max + 1)]
        payload["note"] = table.note
        payload["meta"]["bounds"] = {"max_degree": n_max}
    elif job.command == "audit":
        c = build_coalgebra(job.coalgebra, job.field, job.t_max)
        page = build_e2(c, job.s_max, job.t_max)
        report, tables = e2_structure_audit(page, max_degree=job.max_degree)
        payload["ok"] = report.ok
        for kind in AUDIT_TABLES:
            payload[kind] = _table_rows(tables[kind])
        status = 0 if report.ok else 2
    elif job.command == "cotor":
        c = build_coalgebra(job.coalgebra, job.field, job.t_max)
        k = trivial_comodule(c)
        grid = cobar_cotor(k, k, job.s_max, job.t_max)
    else:
        raise ParseError(f"unknown command {job.command!r}")
    if grid is not None:
        # a truncated input's table holds only through its own t_max
        payload["meta"]["bounds"]["t_max"] = grid.t_max
        payload["table"] = _table_rows(grid.dims())

    return status, _render(payload, job, grid)


def _add_common(sub):
    sub.add_argument("--spec", help="JSON job file (flags override it)")
    sub.add_argument("--kind", choices=("exterior", "polynomial"),
                     help="coalgebra kind for inline specs")
    sub.add_argument("--degrees", help="comma-separated generator degrees")
    sub.add_argument("--field", help="0/Q or a prime (default 2)")
    sub.add_argument("--trunc", type=int,
                     help="truncation for polynomial coalgebras")
    sub.add_argument("--max-s", type=int, dest="s_max")
    sub.add_argument("--max-t", type=int, dest="t_max")
    sub.add_argument("--max-degree", type=int)
    sub.add_argument("--prime", type=int)
    sub.add_argument("--format", choices=FORMATS)
    sub.add_argument("--output", help="write here instead of stdout")


def _job_from_args(args) -> JobSpec:
    raw = {}
    if args.spec:
        try:
            with open(args.spec) as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.spec}: {exc}") from exc
        raw = _load_json(text) if text.strip() else {}
        if not isinstance(raw, dict):
            raise ParseError("job file must be a JSON object")
    raw["command"] = args.command
    for key in ("kind", "degrees", "field", "trunc", "s_max", "t_max",
                "max_degree", "prime", "format", "output"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    return parse_spec(json.dumps(raw))


def main(argv=None) -> int:
    parser = _Parser(
        prog="cohh",
        description="coHochschild homology of finite-type graded "
                    "coalgebras, with structure checks and loop tables")
    parser.add_argument("--version", action="version",
                        version=f"cohh {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("validate", "check the coalgebra axioms on a spec"),
            ("cohh", "bigraded circle homology dims"),
            ("e2", "E2 page with closed-form comparison"),
            ("collapse", "rule out differentials by bidegree arithmetic"),
            ("loops", "free-loop-space homology table"),
            ("audit", "recompute primitives/indecomposables from the "
                      "product and coproduct"),
            ("cotor", "Cotor of the trivial comodule via the cobar "
                      "complex")):
        _add_common(subs.add_parser(name, help=text))

    try:
        job = _job_from_args(parser.parse_args(argv))
        status, text = run(job)
    except (ParseError, DegreeEven, NotPrime, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, OverflowError):
        print("error: the bounds are too large to compute here; lower them",
              file=sys.stderr)
        return 1
    except CollapseNotEstablished as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    if job.output:
        try:
            with open(job.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {job.output}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
