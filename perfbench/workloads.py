"""The three fixed CLI jobs and the correctness gate of each.

A gate is computed here, not by cohh: each job's JSON output must match
a closed form, and its bytes must hash to the digest the unchanged
program printed for the same job.  A gate returns a list of problems;
an empty list means the output passed.
"""

import hashlib
import itertools
import json
import random
from dataclasses import dataclass


def _monomial_dims(gens, s_max, t_max):
    """Dims of a bigraded free graded-commutative algebra, by brute force.

    gens is a list of (s, t, exterior) generators; an exterior generator
    has exponent 0 or 1, a polynomial one any exponent.  Returns
    {(s, t): count of monomials} for 0 <= s <= s_max, 0 <= t <= t_max.
    """
    ranges = []
    for s, t, exterior in gens:
        top = 1 if exterior else min(s_max // s if s else t_max, t_max // t)
        ranges.append(range(top + 1))
    dims = {}
    for exps in itertools.product(*ranges):
        s = sum(e * g[0] for e, g in zip(exps, gens))
        t = sum(e * g[1] for e, g in zip(exps, gens))
        if s <= s_max and t <= t_max:
            dims[(s, t)] = dims.get((s, t), 0) + 1
    return dims


def exterior_cohh_dims(degrees, s_max, t_max):
    """coHH of Lambda(x_d): Lambda(y_d) (x) k[w_d], y at (0, d), w at (1, d)."""
    gens = ([(0, d, True) for d in degrees]
            + [(1, d, False) for d in degrees])
    return _monomial_dims(gens, s_max, t_max)


def polynomial_cotor_dims(degrees, s_max, t_max):
    """Cotor of Lambda(x_d) with trivial coefficients: k[w_d], w at (1, d)."""
    return _monomial_dims([(1, d, False) for d in degrees], s_max, t_max)


def exterior_primitives(degrees, p, s_max, t_max):
    """Primitives of coHH(Lambda(x_d)) over F_p: y_d, w_d and w_d^(p^b)."""
    out = {}
    for d in degrees:
        powers = [(0, d), (1, d)]
        pb = p
        while p and pb <= s_max:
            powers.append((pb, d * pb))
            pb *= p
        for s, t in powers:
            if s <= s_max and t <= t_max:
                out[(s, t)] = out.get((s, t), 0) + 1
    return out


def filtration_one_row(degrees, t_max):
    """Indecomposables: x (x) w_d for x an exterior monomial, at (1, |x| + d)."""
    row = {}
    for (s, t), n in exterior_cohh_dims(degrees, 1, t_max).items():
        if s == 1:
            row[(s, t)] = n
    return row


def _rows(rows):
    return {(r["s"], r["t"]): r["dim"] for r in rows}


def _compare(what, got, want):
    if got == want:
        return []
    keys = sorted(set(got) | set(want))
    bad = [(k, got.get(k, 0), want.get(k, 0)) for k in keys
           if got.get(k, 0) != want.get(k, 0)]
    return [f"{what}: (s, t) got/expected {bad[:3]}"]


def table_gate(closed_form):
    def gate(job, payload):
        want = {k: v for k, v in closed_form(
            job.degrees, job.s_max, job.t_max).items() if v}
        return _compare("table", _rows(payload.get("table", [])), want)
    return gate


def audit_gate(job, payload):
    problems = [] if payload.get("ok") is True else ["ok is not true"]
    problems += _compare(
        "primitives", _rows(payload.get("primitives", [])),
        exterior_primitives(job.degrees, job.field, job.s_max, job.t_max))
    problems += _compare(
        "indecomposables", _rows(payload.get("indecomposables", [])),
        filtration_one_row(job.degrees, job.t_max))
    return problems


@dataclass(frozen=True)
class Job:
    command: str
    degrees: tuple
    field: int
    s_max: int
    t_max: int
    gate: object
    digest: str
    # span-name prefixes whose self time should dominate the traced solve
    design: tuple
    # the reference loop (reference.py) that scales the solve time, or
    # None to report it unscaled
    reference: object

    def spec(self, rng: random.Random) -> dict:
        """The job file for this run.  The seed shuffles the degree list and
        the key order, which parse_spec normalizes away: every seed gives
        the same job and the same output bytes."""
        degrees = list(self.degrees)
        rng.shuffle(degrees)
        items = [("command", self.command), ("kind", "exterior"),
                 ("degrees", ",".join(map(str, degrees))),
                 ("field", self.field), ("s_max", self.s_max),
                 ("t_max", self.t_max), ("format", "json")]
        rng.shuffle(items)
        return dict(items)

    def check(self, status, text):
        """Problems with one job run's exit status and stdout."""
        if status != 0:
            return [f"exit status {status}"]
        problems = []
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != self.digest:
            problems.append(f"output sha256 {digest[:16]} differs from "
                            f"{self.digest[:16]}")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return problems + [f"output is not JSON: {exc}"]
        return problems + self.gate(self, payload)


WORKLOADS = {
    "cohh-ext2-f2": Job(
        "cohh", (3, 5), 2, 5, 20, table_gate(exterior_cohh_dims),
        "a4aa0b9ce3c9c694fbee36f9932516f21862601d8a79a3e01766966dc574be47",
        ("kernels.", "complexes."), None),
    "cotor-ext3-q": Job(
        "cotor", (3, 5, 7), 0, 5, 26, table_gate(polynomial_cotor_dims),
        "f6d434680b5bea52fa87f1926215b92a9ab39734a846488b4e99b98f88b3948a",
        ("linalg.",), "python"),
    "audit-ext1-f3": Job(
        "audit", (3,), 3, 4, 18, audit_gate,
        "da157dd00ea3164834f3c9cd153592175da4afb41c26cc582f9516d7530552cf",
        ("structure.", "complexes.induced_operator", "graded.compose"),
        "python"),
}
