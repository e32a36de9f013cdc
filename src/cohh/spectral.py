"""E2-page assembly for circle homology of exterior coalgebras,
collapse analysis by bidegree arithmetic, and free-loop-space homology
tables.

For an exterior coalgebra on odd cogenerators x_{i_1}, ..., x_{i_n}
the E2 page is the free bigraded algebra Lambda(y_{i_j}) (x) k[w_{i_j}]
with y at (0, i_j) and w at (1, i_j).  Differentials d_r shift
bidegrees by (r, r - 1) and can only run from an algebra
indecomposable (a monomial with a single w factor) to a coalgebra
primitive (1 (x) w^{p^b} in characteristic p), which turns the
existence question into the arithmetic solved here.
"""

import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import linalg
from .coalgebra import AxiomCheck, GradedCoalgebra, ValidationReport, check
from .complexes import HomologyTable, cohh
from .fields import FieldSpec


class DegreeEven(ValueError):
    """Raised for exterior generator lists containing an even degree."""


class NotPrime(ValueError):
    pass


class CollapseNotEstablished(Exception):
    """Raised when a loop-homology table is requested but candidate
    differentials have not been ruled out."""


def _check_degrees(degrees):
    if not degrees:
        raise ValueError("need at least one generator degree")
    for d in degrees:
        if d % 2 == 0:
            raise DegreeEven(f"exterior generator degree {d} is even")
        if d < 3:
            raise ValueError(f"generator degree {d} must be at least 3")
    if list(degrees) != sorted(degrees):
        raise ValueError("generator degrees must be sorted ascending")


def _check_prime(p: int):
    try:
        spec = FieldSpec(p)
    except ValueError as exc:
        raise NotPrime(str(exc)) from exc
    if not spec.is_prime_field:
        raise NotPrime(f"{p} is not prime")


def exterior_monomials(degrees, s_max: int, t_max: int):
    """All monomials y^eps w^a of the free bigraded algebra, by
    bidegree: {(s, t): [name, ...]}.  The exponents of w are grown one
    generator at a time, each bounded by the s and t left over, so no
    monomial out of range is ever made."""
    out: dict = {}
    for eps in itertools.product((0, 1), repeat=len(degrees)):
        t0 = sum(e * d for e, d in zip(eps, degrees))
        if t0 > t_max:
            continue
        layer = [((), 0, t0)]
        for d in degrees:
            layer = [(exps + (a,), s + a, t + a * d)
                     for exps, s, t in layer
                     for a in range(min(s_max - s, (t_max - t) // d) + 1)]
        for exps, s, t in layer:
            out.setdefault((s, t), []).append(
                monomial_name(degrees, eps, exps))
    for names in out.values():
        names.sort()
    return out


def monomial_name(degrees, eps, exps) -> str:
    parts = [f"y{d}" for e, d in zip(eps, degrees) if e]
    parts += [f"w{d}" if a == 1 else f"w{d}^{a}"
              for a, d in zip(exps, degrees) if a]
    return "*".join(parts) if parts else "1"


def exterior_e2_dims(degrees, s_max: int, t_max: int) -> dict:
    return {bd: len(names)
            for bd, names in exterior_monomials(degrees, s_max, t_max).items()}


def _differing(dims: dict, expected: dict) -> list:
    """The bidegrees, in order, at which two dims tables differ."""
    return sorted(bd for bd in dims.keys() | expected.keys()
                  if dims.get(bd) != expected.get(bd))


@dataclass
class E2Page:
    """A circle homology table as an E2 page, through the table's s_max
    and t_max, with the closed form's data for exterior inputs: its
    generators and the check of the bidegrees whose dims differ from it."""

    table: HomologyTable
    generators: dict = dc_field(default_factory=dict)   # name -> (s, t)
    generator_degrees: list = None        # set for exterior inputs
    closed_form: AxiomCheck = None        # set for exterior inputs

    def dims(self) -> dict:
        return self.table.dims()

    def total_degree_dims(self) -> dict:
        """Dims per total degree n = t - s, through the largest n whose
        every contributing bidegree is within bounds: n <= 2 s_max and
        n <= 2 t_max / 3 (each w factor adds at least 2 to t - s, so
        s <= n/2 and t <= 3n/2).  Larger n would be partial sums."""
        table = self.table
        n_complete = min(2 * table.s_max, (2 * table.t_max) // 3)
        out: dict = {}
        for (s, t), d in table.dims().items():
            if t - s <= n_complete:
                out[t - s] = out.get(t - s, 0) + d
        return out


def build_e2(h: GradedCoalgebra, s_max: int, t_max: int) -> E2Page:
    """Wrap the circle homology of h as an E2 page; for exterior inputs
    the named generators of the closed form are attached, and
    page.closed_form checks the computed dims against it, naming the
    bidegrees where they differ."""
    table = cohh(h, s_max, t_max)
    page = E2Page(table)
    degrees = h.metadata.get("degrees")
    if h.metadata.get("kind") == "exterior" and degrees:
        page.generator_degrees = list(degrees)
        for d in degrees:
            page.generators[f"y{d}"] = (0, d)
            page.generators[f"w{d}"] = (1, d)
        expected = {bd: dim for bd, dim in exterior_e2_dims(
            degrees, s_max, table.t_max).items() if dim}
        page.closed_form = check("dims match the closed form",
                                 _differing(table.dims(), expected))
    return page


@dataclass
class CandidateDifferential:
    r: int
    source_bidegree: tuple
    target_bidegree: tuple
    source_monomials: list
    target_monomial: str
    equations: str

    def __str__(self):
        return (f"d_{self.r}: {self.source_bidegree} -> "
                f"{self.target_bidegree}, sources "
                f"{', '.join(self.source_monomials)}, target "
                f"{self.target_monomial} ({self.equations})")


@dataclass
class CollapseReport:
    verdict: str                   # "Collapses" or "CandidatesExist"
    candidates: list
    bound_value: Fraction          # (i_n - 2 + sum i_j) / (i_1 - 1)
    bound_holds: bool              # strict: bound_value < p
    weak_bound_value: Fraction     # (i_n + sum i_j) / (i_1 - 1)
    weak_bound_holds: bool         # weak_bound_value <= p


def _exponent(q: int, p: int) -> int:
    """The b >= 1 with q = p^b, or 0 when q is no such power."""
    b = 0
    while q > 1 and q % p == 0:
        q, b = q // p, b + 1
    return b if q == 1 else 0


def collapse_analysis(degrees, p: int) -> CollapseReport:
    """Enumerate every possible differential from an indecomposable
    monomial (one w factor) to a primitive 1 (x) w^{p^b}.

    A d_r source has bidegree (1, i_{j_1} + ... + i_{j_m} + i_j) and a
    target has (p^b, i_a p^b); the shift by (r, r - 1) forces
    1 + r = p^b and i_{j_1} + ... + i_{j_m} + i_j - 2 = (i_a - 1) p^b.
    For each source monomial and target generator the second equation
    fixes p^b, so the enumeration is exact, with no search bound: a
    candidate exists where (t_src - 2) / (i_a - 1) is a power p^b with
    r = p^b - 1 >= 2.  Candidates are aggregated per (r, source
    bidegree, target bidegree)."""
    _check_degrees(degrees)
    _check_prime(p)
    total = sum(degrees)
    bound_value = Fraction(degrees[-1] - 2 + total, degrees[0] - 1)
    weak_value = Fraction(degrees[-1] + total, degrees[0] - 1)

    found: dict = {}
    n = len(degrees)
    for m in range(n + 1):
        for subset in itertools.combinations(range(n), m):
            base = sum(degrees[j] for j in subset)
            for j in range(n):
                t_src = base + degrees[j]
                name = monomial_name(
                    degrees,
                    tuple(1 if k in subset else 0 for k in range(n)),
                    tuple(1 if k == j else 0 for k in range(n)))
                for ia in degrees:
                    pb, rem = divmod(t_src - 2, ia - 1)
                    b = _exponent(pb, p)
                    if rem or not b or pb < 3:
                        continue
                    key = (pb - 1, (1, t_src), (pb, ia * pb))
                    if key not in found:
                        found[key] = CandidateDifferential(
                            pb - 1, (1, t_src), (pb, ia * pb), [],
                            f"w{ia}^{pb}",
                            f"1+r = {p}^{b}, {t_src}-2 = ({ia}-1)*{pb}")
                    if name not in found[key].source_monomials:
                        found[key].source_monomials.append(name)
    candidates = [found[k] for k in sorted(found)]
    for c in candidates:
        c.source_monomials.sort()
    return CollapseReport(
        verdict="Collapses" if not candidates else "CandidatesExist",
        candidates=candidates,
        bound_value=bound_value, bound_holds=bound_value < p,
        weak_bound_value=weak_value, weak_bound_holds=weak_value <= p)


@dataclass
class LoopHomologyTable:
    dims: dict                     # total degree -> dim
    note: str = ("complete convergence assumed; coalgebra structure "
                 "expected but unverified")


def loop_series_dims(degrees, max_total_degree: int) -> dict:
    """Coefficients of prod (1 + q^{i_j}) / prod (1 - q^{i_j - 1})."""
    coeffs = [0] * (max_total_degree + 1)
    coeffs[0] = 1
    for d in degrees:
        nxt = list(coeffs)
        for k in range(d, max_total_degree + 1):
            nxt[k] += coeffs[k - d]
        coeffs = nxt
    for d in degrees:
        step = d - 1
        for k in range(step, max_total_degree + 1):
            coeffs[k] += coeffs[k - step]
    return {k: c for k, c in enumerate(coeffs)}


def loop_homology(degrees, p: int,
                  max_total_degree: int) -> LoopHomologyTable:
    """Free-loop-space homology dims for a space with exterior
    cohomology, available only once the collapse is established
    (always, for a single generator): by collapse_analysis, which is
    exact, so a table is refused whenever a candidate exists."""
    _check_degrees(degrees)
    _check_prime(p)
    if len(degrees) > 1:
        report = collapse_analysis(degrees, p)
        if report.verdict != "Collapses":
            raise CollapseNotEstablished(
                f"candidate differentials remain for degrees "
                f"{list(degrees)} at p = {p}: "
                + "; ".join(str(c) for c in report.candidates))
    return LoopHomologyTable(dims=loop_series_dims(degrees, max_total_degree))


def e2_structure_audit(page: E2Page, max_degree: int = None):
    """Recompute algebra indecomposables and coalgebra primitives from
    the computed product and coproduct on the page, and compare with
    the closed forms that collapse_analysis relies on.

    Returns (report, tables).  The ValidationReport has three checks,
    each naming what fails: the (n, t) blocks where the Kuenneth
    comparison behind the product fails, and the bidegrees where the
    indecomposables, and then the primitives, differ from their closed
    forms.  tables maps "indecomposables", "expected_indecomposables",
    "primitives" and "expected_primitives" to dims {(s, t): dim}.  A
    disagreement is a failed report, not an exception; the CLI's audit
    command exits 2 on it.

    Indecomposables are taken relative to the filtration-0 row (the
    base copy of the coalgebra): the augmentation ideal is everything
    of filtration >= 1, and the closed form says its indecomposables
    are exactly the classes x (x) w_i filling the filtration-1 row.
    Primitives are y_i, w_i, and 1 (x) w_i^{p^b} within bounds."""
    # imported here, so that the cohh and cotor jobs never load structure
    from . import structure as st

    if page.generator_degrees is None:
        raise ValueError("structure audit needs an exterior page")
    degrees = page.generator_degrees
    s_max, t_max = page.table.s_max, page.table.t_max
    bound = t_max if max_degree is None else min(max_degree, t_max)
    box, _, kuenneth_failed = st.cohh_box_structure(page.table)

    # indecomposables of the positive-filtration part modulo products
    computed_ind = _quotient_by_products(box, bound)
    expected_ind = {}
    if s_max >= 1:
        for (s2, t2), names in exterior_monomials(degrees, 1,
                                                  bound).items():
            if s2 == 1:
                expected_ind[(s2, t2)] = len(names)

    computed_prim = _primitive_dims(box, bound)
    p = box.field.characteristic
    expected_prim = {}
    for d in degrees:
        for bd in ((0, d), (1, d)):
            if bd[1] <= bound and bd[0] <= s_max:
                expected_prim[bd] = expected_prim.get(bd, 0) + 1
    if p:
        for d in degrees:
            pb = p
            while d * pb <= bound:
                if pb <= s_max:
                    bd = (pb, d * pb)
                    expected_prim[bd] = expected_prim.get(bd, 0) + 1
                pb *= p
    report = ValidationReport("structure audit", [
        check("Kuenneth comparison H(N box N) = H box H", kuenneth_failed),
        check("indecomposables match the closed form",
              _differing(computed_ind, expected_ind)),
        check("primitives match the closed form",
              _differing(computed_prim, expected_prim)),
    ])
    return report, {"indecomposables": computed_ind,
                    "expected_indecomposables": expected_ind,
                    "primitives": computed_prim,
                    "expected_primitives": expected_prim}


def _quotient_by_products(box, bound: int) -> dict:
    """Dims of (positive-filtration part) / (products of
    positive-filtration parts) per bidegree (s, t), 1 <= t <= bound, in
    order of t and then s.  The product columns are read once, grouped
    by the bidegree of their pair: mult is zero off its free pairs.
    Raises AssertionError on a product label outside its pair's
    bidegree."""
    E = box.carrier.space
    products: dict = {}
    for (a, b), col in box.mult.columns.items():
        if a[1] >= 1 and b[1] >= 1:
            bidegree = (a[1] + b[1], E.degree_of[a] + E.degree_of[b])
            stray = [m for m in col if (m[1], E.degree_of[m]) != bidegree]
            if stray:
                raise AssertionError(
                    f"the product of {(a, b)!r} has the label {stray[0]!r} "
                    f"outside its bidegree {bidegree}")
            products.setdefault(bidegree, []).append(col)
    out: dict = {}
    for t in range(1, bound + 1):
        for s in sorted({lbl[1] for lbl in E.labels(t) if lbl[1] >= 1}):
            dim = sum(lbl[1] == s for lbl in E.labels(t)) - linalg.rank(
                linalg.keyed_matrix(products.get((s, t), [])), box.field)
            if dim:
                out[(s, t)] = dim
    return out


def _primitive_dims(box, bound: int) -> dict:
    """Kernel dims of the reduced coproduct, per bidegree."""
    one = ("h", 0, 0, 0)
    E = box.carrier.space
    out: dict = {}
    bidegrees = sorted({(l[1], l[2]) for l in E.degree_of if
                        0 < l[2] <= bound})
    for (s, t) in bidegrees:
        kernel = linalg.kernel_of(
            {l: {pr: v for pr, v in box.comult.column(l).items()
                 if one not in pr}
             for l in E.labels(t) if l[1] == s}, box.field)
        if kernel:
            out[(s, t)] = len(kernel)
    return out
