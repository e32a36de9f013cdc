"""Finite-type graded coalgebras presented by structure tables.

A GradedCoalgebra carries a labelled graded basis, a comultiplication
table {id: {(id, id): coeff}}, a counit table {id: coeff}, and the label
of the coaugmentation grouplike (written "1" by the constructors).
Constructors are provided for exterior coalgebras on odd generators,
truncated divided-style polynomial coalgebras on even generators,
tensor products, and raw tables.

The exterior and polynomial coalgebras are one monomial constructor,
the dual of a free graded-commutative algebra: the monomials x^e, an
odd generator's exponent at most 1, with the binomial comultiplication
and the Koszul sign, which for an exterior monomial x_S split into
x_A (x) x_B is (-1) for every pair (a, b), a in A and b in B, with b
preceding a in S, weighted by the product of degrees.  Its basis is
listed by (degree, exponents).
"""

import itertools
import math
from dataclasses import dataclass, field as dc_field

from . import linalg
from .fields import FieldSpec
from .graded import GradedSpace, as_tuples, tensor_apply


class GradedCoalgebra:
    def __init__(self, field: FieldSpec, basis, comult, counit,
                 coaug="1", truncation=None, name="", metadata=None):
        self.field = field
        self.space = GradedSpace(basis)
        self.comult = {k: {p: c for p, c in v.items() if c} for k, v in comult.items()}
        self.counit = {k: v for k, v in counit.items() if v}
        self.coaug = coaug
        # Largest degree through which the basis is complete; None means
        # the coalgebra is finite and the table is the whole thing.
        self.truncation = truncation
        self.name = name
        self.metadata = metadata or {}
        self._iterated: dict = {}
        self._tables: dict = {}

    def degree(self, label) -> int:
        return self.space.degree_of[label]

    @property
    def max_degree(self) -> int:
        degs = self.space.degrees()
        return degs[-1] if degs else 0

    def complete_through(self):
        """Internal degree through which the table is complete; math.inf
        for a finite coalgebra stored in full."""
        return math.inf if self.truncation is None else self.truncation

    def comult_of(self, label) -> dict:
        return self.comult.get(label, {})

    def counit_of(self, label):
        return self.counit.get(label, self.field.zero)

    def iterated_comult(self, label, k: int) -> dict:
        """Delta^(k): formal sum over k-tuples of basis ids.

        k = 0 is the counit (keyed by the empty tuple), k = 1 the
        identity.  Cached per (label, k).
        """
        key = (label, k)
        cached = self._iterated.get(key)
        if cached is not None:
            return cached
        f = self.field
        if k == 0:
            e = self.counit_of(label)
            out = {(): e} if e else {}
        elif k == 1:
            out = {(label,): f.one}
        else:
            out = tensor_apply(self.iterated_comult(label, k - 1),
                               [None] * (k - 2) + [self.comult_of], f)
        self._iterated[key] = out
        return out

    def comult_table(self, k: int, held: tuple) -> dict:
        """label -> the (tuple, scalar) terms of iterated_comult(label, k)
        with no coaugmentation at an offset in held.  Cached per (k, held)."""
        if (k, held) not in self._tables:
            self._tables[k, held] = {
                x: [(tup, v) for tup, v in self.iterated_comult(x, k).items()
                    if all(tup[o] != self.coaug for o in held)]
                for x in self.space.degree_of}
        return self._tables[k, held]

    def __repr__(self):
        return f"GradedCoalgebra({self.name or 'table'}, {self.field}, dim={self.space.total_dim()})"


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    witness: str = ""


def check(name: str, bad) -> AxiomCheck:
    """The check name, passed when bad, its failing items in order, is
    empty; otherwise its witness names the first three.  Every axiom and
    diagram check in the package is made here."""
    return AxiomCheck(name, not bad, f"fails at {bad[:3]}" if bad else "")


@dataclass
class ValidationReport:
    """The checks of one axiom or diagram family, in the order made."""

    name: str = ""
    checks: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        lines = ([f"{self.name}: {'ok' if self.ok else 'FAILED'}"]
                 if self.name else [])
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            lines.append(f"{mark} {c.name}" + (f": {c.witness}" if c.witness else ""))
        return "\n".join(lines)


def coassociativity_failures(labels, comult_of, field: FieldSpec) -> list:
    """The labels x, in order, with (Delta (x) id) Delta x !=
    (id (x) Delta) Delta x, Delta given by comult_of (label -> formal sum
    on pairs)."""
    return [x for x in labels
            if tensor_apply(comult_of(x), [comult_of, None], field)
            != tensor_apply(comult_of(x), [None, comult_of], field)]


def validate(c: GradedCoalgebra, max_degree=None) -> ValidationReport:
    """Check the coalgebra axioms on the stored table.

    Coassociativity and the counit law are verified on every basis
    element whose comultiplication stays within the stored range; with a
    truncation, elements above it are skipped (their table rows are
    incomplete by construction).
    """
    f = c.field
    bound = c.complete_through() if max_degree is None else min(
        max_degree, c.complete_through())
    labels = [k for k, d in c.space.degree_of.items() if d <= bound]

    # counit law: (eps (x) id) Delta = id = (id (x) eps) Delta
    def counit(x):
        return c.iterated_comult(x, 0)

    counit_bad = [k for k in labels if any(
        tensor_apply(c.comult_of(k), legs, f) != {(k,): f.one}
        for legs in ([counit, None], [None, counit]))]

    # coaugmentation: a grouplike spanning degree 0
    g = c.coaug
    grouplike = (g in c.space.degree_of and c.degree(g) == 0
                 and c.space.dim(0) == 1
                 and c.comult_of(g) == {(g, g): f.one}
                 and c.counit_of(g) == f.one)
    return ValidationReport(checks=[
        check("counit concentrated in degree 0",
              [k for k, v in c.counit.items() if v and c.degree(k) != 0]),
        check("comultiplication preserves degree",
              [(k, a, b) for k, terms in c.comult.items() for (a, b) in terms
               if c.degree(a) + c.degree(b) != c.degree(k)]),
        check("counit law", counit_bad),
        check("coassociativity",
              coassociativity_failures(labels, c.comult_of, f)),
        check("coaugmentation is a degree-0 grouplike",
              [] if grouplike else [g]),
    ])


def is_cocommutative(c: GradedCoalgebra) -> bool:
    """Graded cocommutativity: tau Delta = Delta with Koszul signs, on
    the labels through complete_through() (a tensor basis runs past its
    truncation, where its table rows are incomplete)."""
    f = c.field
    bound = c.complete_through()
    return all(
        f.canonical({(b, a): (-1) ** (c.degree(a) * c.degree(b)) * v
                     for (a, b), v in c.comult_of(k).items()})
        == f.canonical(c.comult_of(k))
        for k, t in c.space.degree_of.items() if t <= bound)


# ---------------------------------------------------------------------------
# constructors


def _dedupe_names(prefix: str, degrees):
    seen: dict = {}
    names = []
    for d in degrees:
        seen[d] = seen.get(d, 0) + 1
        n = f"{prefix}{d}" if seen[d] == 1 else f"{prefix}{d}_{seen[d]}"
        names.append(n)
    return names


def _monomial_coalgebra(kind: str, prefix: str, degrees, field: FieldSpec,
                        truncation, name: str) -> GradedCoalgebra:
    """The monomials x^e on generators of the given sorted degrees, an
    odd generator's exponent at most 1 and the degree at most truncation
    (None: no bound, for odd generators only), with the binomial
    comultiplication Delta(x^e) = sum_{a+b=e} prod_i C(e_i, a_i)
    (-1)^(sum_{i<j} |x_i| b_i |x_j| a_j) x^a (x) x^b.  Binomials are
    computed in Z and reduced into the field.  The exponent vectors are
    grown one generator at a time within the bound, and the basis is
    listed by (degree, exponents)."""
    gens = _dedupe_names(prefix, degrees)
    bound = math.inf if truncation is None else truncation
    monomials = [((), 0)]
    for d in degrees:
        monomials = [(exps + (e,), t + e * d) for exps, t in monomials
                     for e in range(min(1 if d % 2 else bound,
                                        (bound - t) // d) + 1)]
    monomials.sort(key=lambda m: (m[1], m[0]))

    def mono_id(exps):
        return "".join(g if e == 1 else f"{g}^{e}"
                       for g, e in zip(gens, exps) if e) or "1"

    pairs = list(itertools.combinations(range(len(degrees)), 2))
    comult = {}
    for exps, _ in monomials:
        terms = {}
        for a in itertools.product(*(range(e + 1) for e in exps)):
            b = [e - x for e, x in zip(exps, a)]
            sign = sum(degrees[i] * b[i] * degrees[j] * a[j] for i, j in pairs)
            terms[mono_id(a), mono_id(b)] = (
                (-1) ** sign * math.prod(map(math.comb, exps, a)))
        comult[mono_id(exps)] = field.canonical(terms)
    return GradedCoalgebra(
        field, [(mono_id(exps), t) for exps, t in monomials], comult,
        {"1": field.one}, coaug="1", truncation=truncation, name=name,
        metadata={"kind": kind, "degrees": list(degrees),
                  "exponents": {mono_id(exps): exps for exps, _ in monomials}})


def exterior_coalgebra(degrees, field: FieldSpec) -> GradedCoalgebra:
    """Exterior coalgebra on primitive generators in odd degrees.

    Basis: square-free monomials, id "1" or the concatenation of
    generator names in the fixed generator order, e.g. "x3x5".
    """
    degrees = sorted(degrees)
    if any(d <= 0 or d % 2 == 0 for d in degrees):
        raise ValueError("exterior generators must have odd positive degree")
    return _monomial_coalgebra(
        "exterior", "x", degrees, field, None,
        "Lambda(" + ",".join(str(d) for d in degrees) + ")")


def polynomial_coalgebra(degrees, field: FieldSpec,
                         truncation: int) -> GradedCoalgebra:
    """Polynomial coalgebra on even-degree generators, truncated.

    Delta(w^j) = sum_k C(j, k) w^k (x) w^(j-k).  The basis holds every
    monomial of total degree <= truncation, so the table is complete
    through it.
    """
    degrees = sorted(degrees)
    if any(d <= 0 or d % 2 for d in degrees):
        raise ValueError("polynomial generators must have even positive degree")
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    return _monomial_coalgebra(
        "polynomial", "w", degrees, field, truncation,
        "k[" + ",".join(str(d) for d in degrees) + f"]<= {truncation}")


def tensor_coalgebra(c1: GradedCoalgebra,
                     c2: GradedCoalgebra) -> GradedCoalgebra:
    """Tensor product coalgebra, Delta = (id (x) tau (x) id)(Delta (x) Delta).

    Basis ids are "a*b".  If either factor is truncated the product is
    complete through the smaller truncation.
    """
    if c1.field != c2.field:
        raise ValueError("factors must share a ground field")
    f = c1.field

    def tid(a, b):
        return f"{a}*{b}"

    basis = []
    comult = {}
    counit = {}
    factors = {}
    for a, da in c1.space.degree_of.items():
        for b, db in c2.space.degree_of.items():
            mid = tid(a, b)
            factors[mid] = (a, b)
            basis.append((mid, da + db))
            counit[mid] = f.mul(c1.counit_of(a), c2.counit_of(b))
            # tid is injective on pairs (the basis labels are distinct),
            # so the regrouping needs no accumulation
            split = tensor_apply({(a, b): f.one},
                                 [c1.comult_of, c2.comult_of], f)
            comult[mid] = f.canonical({
                (tid(a1, b1), tid(a2, b2)):
                (-1) ** (c2.degree(b1) * c1.degree(a2)) * v
                for (a1, a2, b1, b2), v in split.items()})
    truncs = [t for t in (c1.truncation, c2.truncation) if t is not None]
    return GradedCoalgebra(
        f, basis, comult, counit, coaug=tid(c1.coaug, c2.coaug),
        truncation=min(truncs) if truncs else None,
        name=f"{c1.name}(x){c2.name}",
        metadata={"kind": "tensor", "factors": factors,
                  "factor_objects": (c1, c2)})


def table_coalgebra(field: FieldSpec, basis, comult,
                    counit) -> GradedCoalgebra:
    """Finite coalgebra from explicit structure tables, coaugmented at
    "1" (also the fault-injection entry point: no axioms are checked
    here, run validate separately)."""
    comult = {k: {tuple(p): field.coerce(v) for p, v in row.items()}
              for k, row in comult.items()}
    counit = {k: field.coerce(v) for k, v in counit.items()}
    return GradedCoalgebra(field, basis, comult, counit, name="table")


def trivial_coalgebra(field: FieldSpec) -> GradedCoalgebra:
    return GradedCoalgebra(
        field, [("1", 0)], {"1": {("1", "1"): field.one}},
        {"1": field.one}, coaug="1", truncation=None, name="k")


@dataclass
class CoalgebraMap:
    """A degree-0 map of coalgebras given on basis elements."""

    source: GradedCoalgebra
    target: GradedCoalgebra
    data: dict  # id -> {id: coeff}
    name: str = ""

    def apply(self, label) -> dict:
        return self.data.get(label, {})

    def check(self) -> ValidationReport:
        f = self.source.field
        S, T = self.source, self.target
        bound = S.complete_through()
        labels = [k for k, d in S.space.degree_of.items() if d <= bound]
        phi = as_tuples(self.apply)
        return ValidationReport(checks=[
            check("map preserves degree",
                  [(k, t) for k, img in self.data.items() for t in img
                   if S.degree(k) != T.degree(t)]),
            check("compatible with counits",
                  [k for k in labels if S.counit_of(k) != f.coerce(sum(
                      v * T.counit_of(t) for t, v in self.apply(k).items()))]),
            check("compatible with comultiplications",
                  [k for k in labels
                   if tensor_apply(S.comult_of(k), [phi, phi], f)
                   != tensor_apply(phi(k), [T.comult_of], f)]),
        ])


def counit_map(c: GradedCoalgebra) -> CoalgebraMap:
    k = trivial_coalgebra(c.field)
    data = {}
    for label in c.space.degree_of:
        e = c.counit_of(label)
        data[label] = {"1": e} if e else {}
    return CoalgebraMap(c, k, data, name="counit")


def tensor_projection(t: GradedCoalgebra, which: int) -> CoalgebraMap:
    """Project a tensor coalgebra onto factor 0 or 1 via the other counit."""
    if t.metadata.get("kind") != "tensor":
        raise ValueError("not a tensor coalgebra")
    factors = t.metadata["factors"]
    c1, c2 = t.metadata["factor_objects"]
    data = {}
    for mid, (a, b) in factors.items():
        if which == 0:
            e = c2.counit_of(b)
            data[mid] = {a: e} if e else {}
        else:
            e = c1.counit_of(a)
            data[mid] = {b: e} if e else {}
    return CoalgebraMap(t, c1 if which == 0 else c2, data,
                        name=f"proj{which}")


def primitives_of_coalgebra(c: GradedCoalgebra, max_degree: int):
    """Primitive elements in each degree 1..max_degree.

    For a connected coalgebra this is the kernel of the reduced
    comultiplication: x with Delta(x) = 1 (x) x + x (x) 1.  Returns
    {degree: [formal sums]}.
    """
    g = c.coaug
    out = {}
    for d in range(1, max_degree + 1):
        labels = c.space.labels(d)
        if labels:
            out[d] = linalg.kernel_of(
                {label: {pr: v for pr, v in c.comult_of(label).items()
                         if g not in pr} for label in labels}, c.field)
    return out
