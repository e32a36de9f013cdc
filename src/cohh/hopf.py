"""Diagram checkers for box-(co)algebra structures on a bicomodule.

Every check evaluates both sides of a structure diagram on explicit
basis elements (or on a basis of the relevant cotensor subspace, where
a multiplication is only well defined on equalized vectors) and
reports the first discrepancy found.  Twists between bigraded factors
use the sign (-1)^{ss' + tt'}: a separate Koszul sign for the
filtration grading and for the internal grading.  The filtration s of
a carrier label is read from the label: s for a circle homology class
("h", s, t, k), 0 for any other label.
"""

from dataclasses import dataclass, field as dc_field

from . import linalg
from .coalgebra import AxiomCheck
from .comodule import BoxStructure, cotensor, pair_defect


@dataclass
class StructureReport:
    name: str
    checks: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        lines = [f"{self.name}: {'ok' if self.ok else 'FAILED'}"]
        for c in self.checks:
            mark = "ok" if c.passed else "XX"
            lines.append(f"  {mark} {c.name}"
                         + (f": {c.witness}" if c.witness else ""))
        return "\n".join(lines)


def _s_of(label):
    if isinstance(label, tuple) and len(label) == 4 and label[0] == "h":
        return label[1]
    return 0


def _bound(box: BoxStructure, max_degree):
    own = box.carrier.complete_through()
    ambient = max(box.carrier.space.degree_of.values(), default=0)
    bound = min(own, ambient)
    if max_degree is not None:
        bound = min(bound, max_degree)
    return int(bound)


def _labels_within(box: BoxStructure, bound):
    return [l for l, t in box.carrier.space.degree_of.items() if t <= bound]


def _pair_cotensor(box: BoxStructure, bound: int, s_max) -> dict:
    """E box E through internal degree bound, {degree: basis}, with the
    basis vectors of total filtration > s_max (where the multiplication
    is unknown) left out.

    The coactions preserve filtration, so the equalizer is block
    diagonal in the total filtration of a pair, and each kernel basis
    vector lies in one block: keeping the blocks <= s_max gives the
    basis the pairs <= s_max alone would, in the same order.  So one
    cotensor serves every check of a report."""
    basis = cotensor(box.carrier, box.carrier, bound).basis
    if s_max is None:
        return basis
    return {t: [vec for vec in vecs
                if all(_s_of(a) + _s_of(b) <= s_max for a, b in vec)]
            for t, vecs in basis.items()}


def _triple_cotensor_basis(box: BoxStructure, degree: int, s_max=None):
    """Basis of E box E box E in one internal degree: the kernel of the
    pair defects of the first two and of the last two factors."""
    one = box.field.one
    E = box.carrier
    triples = []
    for a, da in E.space.degree_of.items():
        for b, db in E.space.degree_of.items():
            if da + db > degree:
                continue
            for c, dcg in E.space.degree_of.items():
                if da + db + dcg != degree:
                    continue
                if (s_max is not None
                        and _s_of(a) + _s_of(b) + _s_of(c) > s_max):
                    continue
                triples.append((a, b, c))
    triples.sort(key=repr)
    images = {}
    for (a, b, c) in triples:
        img = {("m",) + k + (c,): v for k, v in pair_defect(
            {(a, b): one}, E.right_of, E.left_of, box.field).items()}
        img.update({("r", a) + k: v for k, v in pair_defect(
            {(b, c): one}, E.right_of, E.left_of, box.field).items()})
        images[(a, b, c)] = img
    return linalg.kernel_of(images, box.field)


def check_box_coalgebra(box: BoxStructure,
                        max_degree=None) -> StructureReport:
    """Coassociativity, counit laws against the coactions, and the
    cotensor condition on the comultiplication."""
    f = box.field
    E = box.carrier
    bound = _bound(box, max_degree)
    labels = _labels_within(box, bound)
    report = StructureReport(f"box coalgebra on {box.name or E.name}")

    bad = [l for l in labels
           if pair_defect(box.comult.column(l), E.right_of, E.left_of, f)]
    report.checks.append(AxiomCheck(
        "comultiplication lands in the cotensor", not bad,
        f"first failure at {bad[0]!r}" if bad else ""))

    bad = []
    for l in labels:
        lhs: dict = {}
        rhs: dict = {}
        for (a, b), c in box.comult.column(l).items():
            for (a1, a2), v in box.comult.column(a).items():
                lhs[a1, a2, b] = lhs.get((a1, a2, b), 0) + c * v
            for (b1, b2), v in box.comult.column(b).items():
                rhs[a, b1, b2] = rhs.get((a, b1, b2), 0) + c * v
        if f.canonical(lhs) != f.canonical(rhs):
            bad.append(l)
    report.checks.append(AxiomCheck(
        "coassociativity", not bad,
        f"first failure at {bad[0]!r}" if bad else ""))

    bad = []
    for l in labels:
        lhs: dict = {}
        for (a, b), c in box.comult.column(l).items():
            for d, v in box.counit.column(a).items():
                lhs[d, b] = lhs.get((d, b), 0) + c * v
        if f.canonical(lhs) != f.canonical(E.left_of(l)):
            bad.append(l)
    report.checks.append(AxiomCheck(
        "left counit law matches the left coaction", not bad,
        f"first failure at {bad[0]!r}" if bad else ""))

    bad = []
    for l in labels:
        lhs: dict = {}
        for (a, b), c in box.comult.column(l).items():
            for d, v in box.counit.column(b).items():
                lhs[a, d] = lhs.get((a, d), 0) + c * v
        if f.canonical(lhs) != f.canonical(E.right_of(l)):
            bad.append(l)
    report.checks.append(AxiomCheck(
        "right counit law matches the right coaction", not bad,
        f"first failure at {bad[0]!r}" if bad else ""))
    return report


def check_box_algebra(box: BoxStructure, max_degree=None,
                      s_max=None) -> StructureReport:
    """Associativity on the triple cotensor and unitality through the
    coactions."""
    f = box.field
    E = box.carrier
    D = box.base
    bound = _bound(box, max_degree)
    report = StructureReport(f"box algebra on {box.name or E.name}")

    bad = []
    for t in range(bound + 1):
        for vec in _triple_cotensor_basis(box, t, s_max):
            first: dict = {}
            second: dict = {}
            for (a, b, c), v in vec.items():
                for m, w in box.mult.column((a, b)).items():
                    first[m, c] = first.get((m, c), 0) + v * w
                for m, w in box.mult.column((b, c)).items():
                    second[a, m] = second.get((a, m), 0) + v * w
            if box.mult.apply(first, f) != box.mult.apply(second, f):
                bad.append(t)
                break
    report.checks.append(AxiomCheck(
        "associativity on the triple cotensor", not bad,
        f"first failure in degree {bad[0]}" if bad else ""))

    bad_l = []
    bad_r = []
    for l in _labels_within(box, bound):
        lhs: dict = {}
        for (d, h), v in E.left_of(l).items():
            for u, w in box.unit.column(d).items():
                for m, ww in box.mult.column((u, h)).items():
                    lhs[m] = lhs.get(m, 0) + v * w * ww
        if f.canonical(lhs) != {l: f.one}:
            bad_l.append(l)
        rhs: dict = {}
        for (h, d), v in E.right_of(l).items():
            for u, w in box.unit.column(d).items():
                for m, ww in box.mult.column((h, u)).items():
                    rhs[m] = rhs.get(m, 0) + v * w * ww
        if f.canonical(rhs) != {l: f.one}:
            bad_r.append(l)
    report.checks.append(AxiomCheck(
        "left unit law through the left coaction", not bad_l,
        f"first failure at {bad_l[0]!r}" if bad_l else ""))
    report.checks.append(AxiomCheck(
        "right unit law through the right coaction", not bad_r,
        f"first failure at {bad_r[0]!r}" if bad_r else ""))

    bad = [d for d in D.space.degree_of if D.degree(d) <= bound
           and box.counit.apply(box.unit.column(d), f) != {d: f.one}]
    report.checks.append(AxiomCheck(
        "counit of the unit is the identity of the base", not bad,
        f"first failure at {bad[0]!r}" if bad else ""))
    return report


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
    image: dict = {}
    for d, c in x.items():
        for pr, v in D.comult_of(d).items():
            image[pr] = image.get(pr, 0) + c * v
    if f.canonical(image) != vec:
        raise linalg.NoSolution("not in the image of the diagonal")
    return x


def check_box_bialgebra(box: BoxStructure, max_degree=None,
                        s_max=None) -> StructureReport:
    """The four compatibility diagrams between the algebra and the
    coalgebra halves."""
    f = box.field
    D = box.base
    bound = _bound(box, max_degree)
    report = StructureReport(f"box bialgebra on {box.name or box.carrier.name}")
    pairs = _pair_cotensor(box, bound, s_max)

    # 1: comultiplication is multiplicative (with the bigraded twist)
    bad = []
    for t, vecs in pairs.items():
        for vec in vecs:
            lhs = box.comult.apply(box.mult.apply(vec, f), f)
            rhs: dict = {}
            for (a, b), c in vec.items():
                for (a1, a2), va in box.comult.column(a).items():
                    for (b1, b2), vb in box.comult.column(b).items():
                        sgn = (-1) ** (
                            _s_of(a2) * _s_of(b1)
                            + box.carrier.degree(a2)
                            * box.carrier.degree(b1))
                        coeff = c * sgn * va * vb
                        for m1, w1 in box.mult.column((a1, b1)).items():
                            for m2, w2 in box.mult.column((a2, b2)).items():
                                rhs[m1, m2] = (rhs.get((m1, m2), 0)
                                               + coeff * w1 * w2)
            if lhs != f.canonical(rhs):
                bad.append(t)
                break
    report.checks.append(AxiomCheck(
        "comultiplication of a product is the twisted product of "
        "comultiplications", not bad,
        f"first failure in degree {bad[0]}" if bad else ""))

    # 2: counit is multiplicative through the diagonal of the base
    bad = []
    for t, vecs in pairs.items():
        for vec in vecs:
            lhs = box.counit.apply(box.mult.apply(vec, f), f)
            dd: dict = {}
            for (a, b), c in vec.items():
                for d1, v1 in box.counit.column(a).items():
                    for d2, v2 in box.counit.column(b).items():
                        dd[d1, d2] = dd.get((d1, d2), 0) + c * v1 * v2
            try:
                rhs = _diagonal_coords(D, f.canonical(dd), t)
            except linalg.NoSolution:
                bad.append(t)
                break
            if lhs != rhs:
                bad.append(t)
                break
    report.checks.append(AxiomCheck(
        "counit of a product is diagonal in the base", not bad,
        f"first failure in degree {bad[0]}" if bad else ""))

    # 3: unit is comultiplicative
    bad = []
    for d in D.space.degree_of:
        if D.degree(d) > bound:
            continue
        lhs = box.comult.apply(box.unit.column(d), f)
        rhs: dict = {}
        for (d1, d2), v in D.comult_of(d).items():
            for u1, w1 in box.unit.column(d1).items():
                for u2, w2 in box.unit.column(d2).items():
                    rhs[u1, u2] = rhs.get((u1, u2), 0) + v * w1 * w2
        if lhs != f.canonical(rhs):
            bad.append(d)
    report.checks.append(AxiomCheck(
        "comultiplication of the unit is the unit of the diagonal",
        not bad, f"first failure at {bad[0]!r}" if bad else ""))

    # 4: counit splits the unit
    bad = [d for d in D.space.degree_of if D.degree(d) <= bound
           and box.counit.apply(box.unit.column(d), f) != {d: f.one}]
    report.checks.append(AxiomCheck(
        "counit after unit is the identity", not bad,
        f"first failure at {bad[0]!r}" if bad else ""))
    return report


def check_antipode(box: BoxStructure, max_degree=None) -> StructureReport:
    """mu(chi (x) id)Delta = unit . counit = mu(id (x) chi)Delta."""
    f = box.field
    bound = _bound(box, max_degree)
    report = StructureReport(f"antipode on {box.name or box.carrier.name}")
    bad_l = []
    bad_r = []
    for l in _labels_within(box, bound):
        target = box.unit.apply(box.counit.column(l), f)
        lhs: dict = {}
        rhs: dict = {}
        for (a, b), c in box.comult.column(l).items():
            for a2, v in box.antipode.column(a).items():
                for m, w in box.mult.column((a2, b)).items():
                    lhs[m] = lhs.get(m, 0) + c * v * w
            for b2, v in box.antipode.column(b).items():
                for m, w in box.mult.column((a, b2)).items():
                    rhs[m] = rhs.get(m, 0) + c * v * w
        if f.canonical(lhs) != target:
            bad_l.append(l)
        if f.canonical(rhs) != target:
            bad_r.append(l)
    report.checks.append(AxiomCheck(
        "antipode on the left leg", not bad_l,
        f"first failure at {bad_l[0]!r}" if bad_l else ""))
    report.checks.append(AxiomCheck(
        "antipode on the right leg", not bad_r,
        f"first failure at {bad_r[0]!r}" if bad_r else ""))
    return report


def check_leibniz(box: BoxStructure, diff, max_degree=None,
                  s_max=None) -> StructureReport:
    """diff is a map on carrier labels (label -> formal sum); checks
    d(ab) = d(a)b + (-1)^{s+t} a d(b) on the pair cotensor basis."""
    f = box.field
    bound = _bound(box, max_degree)
    report = StructureReport("Leibniz rule")
    bad = []
    for t, vecs in _pair_cotensor(box, bound, s_max).items():
        for vec in vecs:
            lhs: dict = {}
            for h, c in box.mult.apply(vec, f).items():
                for h2, v in diff(h).items():
                    lhs[h2] = lhs.get(h2, 0) + c * v
            rhs: dict = {}
            for (a, b), c in vec.items():
                for a2, v in diff(a).items():
                    for m, w in box.mult.column((a2, b)).items():
                        rhs[m] = rhs.get(m, 0) + c * v * w
                sgn = (-1) ** (_s_of(a) + box.carrier.degree(a))
                for b2, v in diff(b).items():
                    for m, w in box.mult.column((a, b2)).items():
                        rhs[m] = rhs.get(m, 0) + c * sgn * v * w
            if f.canonical(lhs) != f.canonical(rhs):
                bad.append(t)
                break
    report.checks.append(AxiomCheck(
        "Leibniz rule for the differential", not bad,
        f"first failure in degree {bad[0]}" if bad else ""))
    return report


def check_co_leibniz(box: BoxStructure, diff,
                     max_degree=None) -> StructureReport:
    """Delta . d = (d (x) id + (-1)^{s+t} id (x) d) . Delta on carrier
    labels."""
    f = box.field
    bound = _bound(box, max_degree)
    report = StructureReport("coLeibniz rule")
    bad = []
    for l in _labels_within(box, bound):
        lhs: dict = {}
        for h, c in diff(l).items():
            for pr, v in box.comult.column(h).items():
                lhs[pr] = lhs.get(pr, 0) + c * v
        rhs: dict = {}
        for (a, b), c in box.comult.column(l).items():
            for a2, v in diff(a).items():
                rhs[a2, b] = rhs.get((a2, b), 0) + c * v
            sgn = (-1) ** (_s_of(a) + box.carrier.degree(a))
            for b2, v in diff(b).items():
                rhs[a, b2] = rhs.get((a, b2), 0) + c * sgn * v
        if f.canonical(lhs) != f.canonical(rhs):
            bad.append(l)
    report.checks.append(AxiomCheck(
        "coLeibniz rule for the differential", not bad,
        f"first failure at {bad[0]!r}" if bad else ""))
    return report


def full_hopf_report(box: BoxStructure, max_degree=None,
                     s_max=None) -> StructureReport:
    """All applicable checks concatenated into one report."""
    report = StructureReport(f"box structure on "
                             f"{box.name or box.carrier.name}")
    if box.comult is not None and box.counit is not None:
        report.checks.extend(
            check_box_coalgebra(box, max_degree).checks)
    if box.mult is not None and box.unit is not None:
        report.checks.extend(
            check_box_algebra(box, max_degree, s_max).checks)
    if all(m is not None for m in
           (box.comult, box.counit, box.mult, box.unit)):
        report.checks.extend(
            check_box_bialgebra(box, max_degree, s_max).checks)
    if box.antipode is not None and box.mult is not None:
        report.checks.extend(check_antipode(box, max_degree).checks)
    return report
