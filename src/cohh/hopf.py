"""Diagram checkers for box-(co)algebra structures on a bicomodule.

Every check evaluates both sides of a structure diagram on explicit
basis elements (or on a basis of the relevant cotensor subspace, where
a multiplication is only well defined on equalized vectors) and is one
coalgebra.check: it lists the labels, or the internal degrees, at which
the sides differ, and its witness names the first three.  A checker
takes only the box (and a differential, for the Leibniz rules), reads
its bounds from it, _bound(box) and box.s_max, and returns a
coalgebra.ValidationReport.  Twists between bigraded factors use the
sign (-1)^{ss' + tt'}: a separate Koszul sign for the filtration
grading and for the internal grading.  The filtration s of a carrier
label is read from the label: s for a circle homology class
("h", s, t, k), 0 for any other label.
"""

from . import linalg
from .coalgebra import ValidationReport, check, coassociativity_failures
from .comodule import BoxStructure, cotensor, degree_pairs, pair_defect
from .graded import as_tuples, tensor_apply, tensor_space


def _s_of(label):
    if isinstance(label, tuple) and len(label) == 4 and label[0] == "h":
        return label[1]
    return 0


def _bound(box: BoxStructure) -> int:
    """The internal degree through which the checks run: the carrier's
    complete_through(), capped by its largest label degree."""
    ambient = max(box.carrier.space.degree_of.values(), default=0)
    return int(min(box.carrier.complete_through(), ambient))


def _labels(box: BoxStructure):
    """The carrier labels through _bound(box)."""
    bound = _bound(box)
    return [l for l, t in box.carrier.space.degree_of.items() if t <= bound]


def _pair_cotensor(box: BoxStructure) -> dict:
    """E box E through _bound(box), {degree: basis}, with the basis
    vectors of total filtration > box.s_max (where the multiplication
    is unknown) left out.

    The coactions preserve filtration, so the equalizer is block
    diagonal in the total filtration of a pair, and each kernel basis
    vector lies in one block: keeping the blocks <= s_max gives the
    basis the pairs <= s_max alone would, in the same order.  So one
    cotensor serves every check of a report."""
    basis = cotensor(box.carrier, box.carrier, _bound(box))
    if box.s_max is None:
        return basis
    return {t: [vec for vec in vecs
                if all(_s_of(a) + _s_of(b) <= box.s_max for a, b in vec)]
            for t, vecs in basis.items()}


def _triple_cotensor_basis(box: BoxStructure, degree: int):
    """Basis of E box E box E in one internal degree, through total
    filtration box.s_max: the kernel of the pair defects of the first
    two and of the last two factors, over the triples in repr order."""
    one = box.field.one
    E = box.carrier
    pairs = tensor_space(E.space, E.space, degree)
    triples = [(a, b, c) for (a, b), c in degree_pairs(pairs, E.space, degree)
               if box.s_max is None
               or _s_of(a) + _s_of(b) + _s_of(c) <= box.s_max]
    images = {}
    for (a, b, c) in triples:
        img = {("m",) + k + (c,): v for k, v in pair_defect(
            {(a, b): one}, E.right_of, E.left_of, box.field).items()}
        img.update({("r", a) + k: v for k, v in pair_defect(
            {(b, c): one}, E.right_of, E.left_of, box.field).items()})
        images[(a, b, c)] = img
    return linalg.kernel_of(images, box.field)


def _failing_degrees(bases: dict, holds) -> list:
    """The degrees t of bases, {t: [vectors]}, in order, at which
    holds(t, vec) is false for some vector vec."""
    return [t for t, vecs in bases.items()
            if not all(holds(t, vec) for vec in vecs)]


def _counit_after_unit_failures(box: BoxStructure, bound: int) -> list:
    """The base labels d through bound with counit(unit(d)) != d."""
    f = box.field
    D = box.base
    return [d for d in D.space.degree_of if D.degree(d) <= bound
            and box.counit.apply(box.unit.column(d), f) != {d: f.one}]


def check_box_coalgebra(box: BoxStructure) -> ValidationReport:
    """Coassociativity, counit laws against the coactions, and the
    cotensor condition on the comultiplication."""
    f = box.field
    E = box.carrier
    labels = _labels(box)
    comult = box.comult.column
    counit = as_tuples(box.counit.column)

    return ValidationReport(f"box coalgebra on {box.name or E.name}", [
        check("comultiplication lands in the cotensor",
              [l for l in labels
               if pair_defect(comult(l), E.right_of, E.left_of, f)]),
        check("coassociativity", coassociativity_failures(labels, comult, f)),
        check("left counit law matches the left coaction",
              [l for l in labels
               if tensor_apply(comult(l), [counit, None], f)
               != f.canonical(E.left_of(l))]),
        check("right counit law matches the right coaction",
              [l for l in labels
               if tensor_apply(comult(l), [None, counit], f)
               != f.canonical(E.right_of(l))]),
    ])


def check_box_algebra(box: BoxStructure) -> ValidationReport:
    """Associativity on the triple cotensor and unitality through the
    coactions."""
    f = box.field
    E = box.carrier
    bound = _bound(box)
    labels = _labels(box)
    mult = as_tuples(box.mult.column)
    unit = as_tuples(box.unit.column)

    def associative(t, vec):
        # mu acts on the pair of a regrouped triple key
        first = tensor_apply({((a, b), c): v for (a, b, c), v in vec.items()},
                             [mult, None], f)
        second = tensor_apply({(a, (b, c)): v for (a, b, c), v in vec.items()},
                              [None, mult], f)
        return box.mult.apply(first, f) == box.mult.apply(second, f)

    triples = {t: _triple_cotensor_basis(box, t)
               for t in range(bound + 1)}
    return ValidationReport(f"box algebra on {box.name or E.name}", [
        check("associativity on the triple cotensor",
              _failing_degrees(triples, associative)),
        check("left unit law through the left coaction",
              [l for l in labels if box.mult.apply(tensor_apply(
                  E.left_of(l), [unit, None], f), f) != {l: f.one}]),
        check("right unit law through the right coaction",
              [l for l in labels if box.mult.apply(tensor_apply(
                  E.right_of(l), [None, unit], f), f) != {l: f.one}]),
        check("counit of the unit is the identity of the base",
              _counit_after_unit_failures(box, bound)),
    ])


def _diagonal_coords(D, vec: dict, degree: int) -> dict:
    """Express an element of D box D (inside D (x) D), given as a
    canonical formal sum, as Delta of an element x of D.  The counit is
    supported on the coaugmentation g, so by the counit law (d', g)
    occurs in Delta(d) with coefficient 1 if d' = d and 0 otherwise: x_d
    is the coefficient of (d, g) in vec.
    Raises linalg.NoSolution if Delta(x) is not vec."""
    f = D.field
    x = {d: vec[(d, D.coaug)] for d in D.space.labels(degree)
         if vec.get((d, D.coaug))}
    if tensor_apply({(d,): c for d, c in x.items()}, [D.comult_of], f) != vec:
        raise linalg.NoSolution("not in the image of the diagonal")
    return x


def check_box_bialgebra(box: BoxStructure) -> ValidationReport:
    """The four compatibility diagrams between the algebra and the
    coalgebra halves."""
    f = box.field
    D = box.base
    E = box.carrier
    bound = _bound(box)
    pairs = _pair_cotensor(box)

    comult = box.comult.column
    mult = as_tuples(box.mult.column)

    def comult_multiplicative(t, vec):
        # (mu (x) mu)(id (x) tau (x) id)(Delta (x) Delta), tau with the
        # bigraded twist
        split = tensor_apply(vec, [comult, comult], f)
        twisted = {((a1, b1), (a2, b2)): (-1) ** (
            _s_of(a2) * _s_of(b1) + E.degree(a2) * E.degree(b1)) * v
            for (a1, a2, b1, b2), v in split.items()}
        rhs = tensor_apply(twisted, [mult, mult], f)
        return box.comult.apply(box.mult.apply(vec, f), f) == rhs

    counit = as_tuples(box.counit.column)
    unit = as_tuples(box.unit.column)

    def counit_diagonal(t, vec):
        # through the diagonal of the base
        try:
            rhs = _diagonal_coords(
                D, tensor_apply(vec, [counit, counit], f), t)
        except linalg.NoSolution:
            return False
        return box.counit.apply(box.mult.apply(vec, f), f) == rhs

    return ValidationReport(f"box bialgebra on {box.name or E.name}", [
        check("comultiplication of a product is the twisted product of "
              "comultiplications",
              _failing_degrees(pairs, comult_multiplicative)),
        check("counit of a product is diagonal in the base",
              _failing_degrees(pairs, counit_diagonal)),
        check("comultiplication of the unit is the unit of the diagonal",
              [d for d in D.space.degree_of if D.degree(d) <= bound
               and box.comult.apply(box.unit.column(d), f)
               != tensor_apply(D.comult_of(d), [unit, unit], f)]),
        check("counit after unit is the identity",
              _counit_after_unit_failures(box, bound)),
    ])


def check_antipode(box: BoxStructure) -> ValidationReport:
    """mu(chi (x) id)Delta = unit . counit = mu(id (x) chi)Delta."""
    f = box.field
    labels = _labels(box)
    chi = as_tuples(box.antipode.column)

    def leg_failures(legs):
        return [l for l in labels if box.mult.apply(
            tensor_apply(box.comult.column(l), legs, f), f)
            != box.unit.apply(box.counit.column(l), f)]

    return ValidationReport(
        f"antipode on {box.name or box.carrier.name}",
        [check("antipode on the left leg", leg_failures([chi, None])),
         check("antipode on the right leg", leg_failures([None, chi]))])


def _pair_differential(box: BoxStructure, diff, vec: dict) -> dict:
    """(d (x) id + (-1)^{s+t} id (x) d)(vec) for a formal sum vec on
    pairs of carrier labels, s and t those of the left leg; diff is a
    map on carrier labels (label -> formal sum)."""
    f = box.field
    d = as_tuples(diff)
    signed = {(a, b): (-1) ** (_s_of(a) + box.carrier.degree(a)) * c
              for (a, b), c in vec.items()}
    out = tensor_apply(vec, [d, None], f)
    for pair, v in tensor_apply(signed, [None, d], f).items():
        out[pair] = out.get(pair, 0) + v
    return f.canonical(out)


def check_leibniz(box: BoxStructure, diff) -> ValidationReport:
    """diff is a map on carrier labels (label -> formal sum); checks
    d(ab) = d(a)b + (-1)^{s+t} a d(b) on the pair cotensor basis."""
    f = box.field
    d = as_tuples(diff)

    def derivation(t, vec):
        # both sides as formal sums on 1-tuples of carrier labels
        product = box.mult.apply(vec, f)
        lhs = tensor_apply({(h,): c for h, c in product.items()}, [d], f)
        rhs = box.mult.apply(_pair_differential(box, diff, vec), f)
        return lhs == {(h,): c for h, c in rhs.items()}

    pairs = _pair_cotensor(box)
    return ValidationReport("Leibniz rule", [
        check("Leibniz rule for the differential",
              _failing_degrees(pairs, derivation))])


def check_co_leibniz(box: BoxStructure, diff) -> ValidationReport:
    """Delta . d = (d (x) id + (-1)^{s+t} id (x) d) . Delta on carrier
    labels."""
    f = box.field
    return ValidationReport("coLeibniz rule", [
        check("coLeibniz rule for the differential",
              [l for l in _labels(box) if box.comult.apply(diff(l), f)
               != _pair_differential(box, diff, box.comult.column(l))])])


def full_hopf_report(box: BoxStructure) -> ValidationReport:
    """The checks of every checker whose maps box carries, concatenated
    into one report."""
    report = ValidationReport(f"box structure on "
                              f"{box.name or box.carrier.name}")
    has = {m for m in ("comult", "counit", "unit", "mult", "antipode")
           if getattr(box, m) is not None}
    if has >= {"comult", "counit"}:
        report.checks += check_box_coalgebra(box).checks
    if has >= {"mult", "unit", "counit"}:
        report.checks += check_box_algebra(box).checks
    if has >= {"comult", "counit", "mult", "unit"}:
        report.checks += check_box_bialgebra(box).checks
    if has >= {"antipode", "comult", "counit", "mult", "unit"}:
        report.checks += check_antipode(box).checks
    return report
