"""Comodules over a graded coalgebra, cotensor products, the reduced
cobar complex computing Cotor, and structures living on cotensor
products (box-coalgebras, box-bialgebras).

A Comodule stores left and right coactions as tables on a labelled
basis.  The cotensor M box_D N is the degreewise kernel of

    rho_r (x) id - id (x) rho_l : M (x) N -> M (x) D (x) N,

computed by exact elimination.  Cotor is the homology of the reduced
cobar complex M (x) Dbar^s (x) N.
"""

import math
from dataclasses import dataclass

from . import linalg
from .coalgebra import (CoalgebraMap, GradedCoalgebra, ValidationReport,
                        check, tensor_coalgebra, tensor_projection)
from .complexes import CochainComplex, HomologyTable, tensor_words
from .fields import FieldSpec
from .graded import (GradedMap, GradedSpace, as_tuples, tensor_apply,
                     tensor_space)
from .linalg import Matrix


class Comodule:
    """A bicomodule over a graded coalgebra, given by coaction tables.

    left[m] = {(d, m'): coeff} and right[m] = {(m', d): coeff}.  Both
    coactions are required; a label a table leaves out has coaction 0.
    """

    def __init__(self, base: GradedCoalgebra, basis, left, right,
                 truncation=None, name=""):
        self.base = base
        self.space = GradedSpace(basis)
        self.left = left
        self.right = right
        self.truncation = truncation
        self.name = name

    @property
    def field(self) -> FieldSpec:
        return self.base.field

    def degree(self, label) -> int:
        return self.space.degree_of[label]

    def complete_through(self):
        own = math.inf if self.truncation is None else self.truncation
        return min(own, self.base.complete_through())

    def left_of(self, label) -> dict:
        return self.left.get(label, {})

    def right_of(self, label) -> dict:
        return self.right.get(label, {})

    def validate(self) -> ValidationReport:
        f = self.field
        D = self.base
        bound = self.complete_through()
        labels = [m for m, d in self.space.degree_of.items() if d <= bound]

        def counit(x):
            return D.iterated_comult(x, 0)

        # a leg list is written for the left coaction, whose base leg is
        # first, and reversed for the right one
        report = ValidationReport()
        for side, coact, order in (("left", self.left_of, 1),
                                   ("right", self.right_of, -1)):
            report.checks += [
                check(f"{side} coaction counit law",
                      [m for m in labels if tensor_apply(
                          coact(m), [counit, None][::order], f)
                       != {(m,): f.one}]),
                check(f"{side} coaction coassociativity",
                      [m for m in labels if tensor_apply(
                          coact(m), [D.comult_of, None][::order], f)
                       != tensor_apply(coact(m), [None, coact][::order], f)])]
        report.checks.append(check(
            "bicomodule compatibility",
            [m for m in labels
             if tensor_apply(self.left_of(m), [None, self.right_of], f)
             != tensor_apply(self.right_of(m), [self.left_of, None], f)]))
        return report

    def __repr__(self):
        return f"Comodule({self.name or 'anon'} over {self.base.name})"


def comodule_from_map(f: CoalgebraMap, name="") -> Comodule:
    """A coalgebra map E -> D makes E a D-bicomodule via (id (x) f) Delta
    and (f (x) id) Delta."""
    E, fld = f.source, f.source.field
    phi = as_tuples(f.apply)
    left = {m: tensor_apply(E.comult_of(m), [phi, None], fld)
            for m in E.space.degree_of}
    right = {m: tensor_apply(E.comult_of(m), [None, phi], fld)
             for m in E.space.degree_of}
    return Comodule(f.target, list(E.space.degree_of.items()), left, right,
                    truncation=E.truncation, name=name or E.name)


def regular_comodule(D: GradedCoalgebra) -> Comodule:
    ident = CoalgebraMap(D, D, {m: {m: D.field.one}
                                for m in D.space.degree_of}, name="id")
    return comodule_from_map(ident, name=D.name)


def trivial_comodule(D: GradedCoalgebra) -> Comodule:
    f = D.field
    g = D.coaug
    return Comodule(D, [("1", 0)],
                    left={"1": {(g, "1"): f.one}},
                    right={"1": {("1", g): f.one}},
                    truncation=None, name="k")


def pair_defect(terms: dict, right_of, left_of, field: FieldSpec) -> dict:
    """rho_r (x) id - id (x) rho_l on a formal sum {(m, n): c} of pairs,
    as a formal sum on triples (m', d, n').  right_of(m) is the right
    coaction {(m', d): v} and left_of(n) the left one {(d, n'): v}."""
    out: dict = {}
    for (m, n), c in terms.items():
        for (mm, d), v in right_of(m).items():
            out[mm, d, n] = out.get((mm, d, n), 0) + c * v
        for (d, nn), v in left_of(n).items():
            out[m, d, nn] = out.get((m, d, nn), 0) - c * v
    return field.canonical(out)


def degree_pairs(M: GradedSpace, N: GradedSpace, degree: int) -> list:
    """The pairs (m, n) of basis labels of total degree degree, in repr
    order."""
    return sorted(((m, n) for dm, ms in M.by_degree.items() for m in ms
                   for n in N.labels(degree - dm)), key=repr)


def cotensor(M: Comodule, N: Comodule, max_degree=None) -> dict:
    """The degreewise basis of M box_D N, {degree: [formal sums on pair
    labels]}, through the degree both factors are complete."""
    f = M.field
    ambient = (max(M.space.degree_of.values(), default=0)
               + max(N.space.degree_of.values(), default=0))
    bound = min(M.complete_through(), N.complete_through(), ambient)
    if max_degree is not None:
        bound = min(bound, max_degree)
    out = {}
    for t in range(int(bound) + 1):
        pairs = degree_pairs(M.space, N.space, t)
        if pairs:
            out[t] = linalg.kernel_of(
                {p: pair_defect({p: f.one}, M.right_of, N.left_of, f)
                 for p in pairs}, f)
    return out


# ---------------------------------------------------------------------------
# reduced cobar complex and Cotor


def cobar_level_space(M: Comodule, N: Comodule, s: int, t_max: int):
    """Basis labels of M (x) Dbar^s (x) N up to internal degree t_max:
    for each label of M in order, the middle words in the walk order of
    complexes.tensor_words with every slot reduced, and for each of
    them the labels of N in order.  D is connected, so the labels other
    than the coaugmentation are exactly the Dbar labels."""
    mids = tensor_words(M.base, s, t_max, [[k] for k in range(s)])
    return [((m,) + word + (n,), dm + dw + dn)
            for m, dm in M.space.degree_of.items()
            for word, dw in mids if dm + dw <= t_max
            for n, dn in N.space.degree_of.items() if dm + dw + dn <= t_max]


def cobar_differential(M: Comodule, N: Comodule, s: int,
                       source: GradedSpace, target: GradedSpace) -> dict:
    """d: M (x) Dbar^s (x) N -> M (x) Dbar^(s+1) (x) N, alternating sum of
    the reduced coaction/comultiplication insertions, written straight
    into the blocks of complexes.CochainComplex.diff that HomologyTable
    reduces: each image word is looked up in target.index_of, and one
    outside target is dropped.  Each reduced coaction is computed once
    per label, here, with its sign, and the reduced comultiplication is
    D's cached comult_table(2, (0, 1)).  The kept words of a column are
    distinct, so each is written once: their Dbar labels have positive
    degree, so the label an insertion leaves at slot i is of lower degree
    than the one any insertion further right leaves there."""
    f = M.field
    D = M.base
    g = D.coaug
    # the reduced coactions (D is connected), signed
    right = {m: [(md, v) for md, v in M.right_of(m).items() if md[1] != g]
             for m in M.space.degree_of}
    last_sign = f.coerce((-1) ** (s + 1))
    left = {n: [(dn, f.mul(last_sign, v))
                for dn, v in N.left_of(n).items() if dn[0] != g]
            for n in N.space.degree_of}
    comult = D.comult_table(2, (0, 1))
    neg_comult = {a: [(pair, f.neg(v)) for pair, v in split]
                  for a, split in comult.items()}
    index = target.index_of
    blocks = {}
    for t, labels in source.by_degree.items():
        cols = blocks[t] = []
        for label in labels:
            m, mids, n = label[0], label[1:-1], label[-1]
            col: dict = {}
            for (mm, d), v in right[m]:
                i = index.get((mm, d) + mids + (n,))
                if i is not None:
                    col[i] = v
            for k, a in enumerate(mids):
                # the sign of slot k is (-1)^(k + 1)
                split = (neg_comult if k % 2 == 0 else comult)[a]
                if split:
                    head, tail = label[:k + 1], label[k + 2:]
                    for pair, v in split:
                        i = index.get(head + pair + tail)
                        if i is not None:
                            col[i] = v
            for dn, v in left[n]:
                i = index.get((m,) + mids + dn)
                if i is not None:
                    col[i] = v
            cols.append(col)
    return blocks


def cobar_cotor(M: Comodule, N: Comodule, s_max: int,
                t_max: int) -> HomologyTable:
    """Cotor_D^{s,t}(M, N) for 0 <= s <= s_max, t <= t_max: the homology
    table of the reduced cobar complex, its dims read off ranks.  Its
    t_max is the internal degree through which the values hold.  The
    complex ends at its first empty level, since every later level is
    empty too (drop a word's last Dbar label)."""
    bound = min(M.complete_through(), N.complete_through(), t_max)
    spaces, diffs = [GradedSpace(cobar_level_space(M, N, 0, bound))], []
    for s in range(s_max + 1):
        if not spaces[s].degree_of:
            break
        spaces.append(GradedSpace(cobar_level_space(M, N, s + 1, bound)))
        diffs.append(cobar_differential(M, N, s, spaces[s], spaces[s + 1]))
    return HomologyTable(CochainComplex(M.field, spaces, diffs), s_max, bound)


# ---------------------------------------------------------------------------
# structures on cotensor products


@dataclass
class BoxStructure:
    """A (co/bi)algebra structure on a bicomodule E over its base D.

    comult: E -> E (x) E (landing in the cotensor; pair labels),
    counit: E -> D, unit: D -> E, mult: a linear extension to E (x) E of
    the multiplication defined on E box_D E (checks only ever evaluate
    extensions on equalized vectors, where all extensions agree).
    s_max is the total filtration through which mult is known, None for
    an unfiltered carrier; the hopf checkers read it, and the degrees
    through which the carrier is complete, from the box.
    """

    base: GradedCoalgebra
    carrier: Comodule
    comult: GradedMap = None
    counit: GradedMap = None
    unit: GradedMap = None
    mult: GradedMap = None
    antipode: GradedMap = None
    s_max: int = None
    name: str = ""

    @property
    def field(self) -> FieldSpec:
        return self.base.field


def tensor_box_structure(C: GradedCoalgebra, D2: GradedCoalgebra,
                         mult2=None) -> BoxStructure:
    """The box-bialgebra C (x) D2 over C.

    Coactions come from the projection C (x) D2 -> C; the box
    comultiplication and counit come from the tensor coalgebra; for the
    multiplication (when D2 carries one, e.g. exponent addition for a
    polynomial factor) mult2 maps a pair of D2 labels to a formal sum.
    """
    f = C.field
    E = tensor_coalgebra(C, D2)
    proj = tensor_projection(E, 0)
    carrier = comodule_from_map(proj, name=E.name)
    space = carrier.space
    bound = E.complete_through()
    pair_space = tensor_space(space, space, bound)

    comult = GradedMap(space, pair_space, {
        label: {p: v for p, v in E.comult_of(label).items() if p in pair_space}
        for label in space.degree_of})
    counit = GradedMap(space, C.space, {label: proj.apply(label)
                                        for label in space.degree_of})
    unit = GradedMap(C.space, space, {c: {f"{c}*1": f.one}
                                      for c in C.space.degree_of})

    mult = None
    if mult2 is not None:
        mult = GradedMap(pair_space, space)
        factors = E.metadata["factors"]
        for (la, lb) in pair_space.degree_of:
            a1, d1 = factors[la]
            a2, d2 = factors[lb]
            col: dict = {}
            e = C.counit_of(a2)
            if e:
                for dd, v in mult2(d1, d2).items():
                    tgt = f"{a1}*{dd}"
                    if tgt in space.degree_of:
                        col[tgt] = col.get(tgt, 0) + e * v
            mult.set_column((la, lb), f.canonical(col))
    return BoxStructure(C, carrier, comult=comult, counit=counit, unit=unit,
                        mult=mult, name=E.name)


def polynomial_multiplication(D2: GradedCoalgebra):
    """Exponent-addition product on a polynomial coalgebra's basis."""
    if D2.metadata.get("kind") != "polynomial":
        raise ValueError("needs a polynomial coalgebra")
    degrees = D2.metadata["degrees"]
    exps = D2.metadata["exponents"]
    ids = {v: k for k, v in exps.items()}
    f = D2.field

    def mult(a, b):
        total = tuple(x + y for x, y in zip(exps[a], exps[b]))
        if sum(e * d for e, d in zip(total, degrees)) > D2.truncation:
            return {}
        return {ids[total]: f.one}

    return mult


def box_primitives(box: BoxStructure, max_degree: int) -> dict:
    """Primitives of a coaugmented box-coalgebra, per internal degree.

    P = ker((q (x) q) Delta) on IE, with IE = ker(counit: E -> D) and
    q: E -> E / im(unit): one kernel per degree, of the counit and of
    (q (x) q) Delta, each on its own tagged keys.  Returns {degree:
    [formal sums on E labels]}.
    """
    f = box.field
    E = box.carrier.space
    out = {}
    unit_images: dict = {}

    def unit_image_at(deg):
        if deg not in unit_images:
            unit_images[deg] = _unit_image_rows(box, deg)
        return unit_images[deg]

    q = as_tuples(lambda label: _q_reduce(
        label, unit_image_at(E.degree_of[label]), box, f))

    for t in range(1, max_degree + 1):
        images = {}
        for label in E.labels(t):
            img = {("e", d): v for d, v in box.counit.column(label).items()}
            img.update({("q",) + k: v for k, v in tensor_apply(
                box.comult.column(label), [q, q], f).items()})
            images[label] = img
        prims = linalg.kernel_of(images, f)
        if prims:
            out[t] = prims
    return out


def _unit_image_rows(box: BoxStructure, t: int):
    """Echelonized rows spanning im(unit) in degree t, as index vectors."""
    E = box.carrier.space
    cols = [{E.index_of[lbl]: v for lbl, v in box.unit.column(c).items()}
            for c in box.base.space.labels(t)]
    return linalg.rref(Matrix.from_rows(cols, E.dim(t)), box.field)


def _q_reduce(label, unit_image, box: BoxStructure, f):
    """Image of a basis element in E / im(unit), as a reduced formal sum."""
    E = box.carrier.space
    t = E.degree_of[label]
    rows, pivots = unit_image
    vec = {E.index_of[label]: f.one}
    red = linalg.reduce_mod_span(vec, rows, pivots, f)
    labels = E.labels(t)
    return {labels[i]: v for i, v in red.items()}


def box_indecomposables(box: BoxStructure, max_degree: int):
    """Indecomposables coker(mult: IE box IE -> IE), per internal degree,
    with IE = ker(counit: E -> D): the homology of
    IE box IE -> E -> D at E.

    Returns {degree: (dim, [representative formal sums on E labels])}.
    Raises ValueError if the product of a pair of degree t has a label
    of another degree.
    """
    f = box.field
    E = box.carrier.space
    if box.mult is None:
        raise ValueError("box structure has no multiplication")
    counit = {l: box.counit.column(l) for l in E.degree_of}
    out = {}
    for t in range(1, max_degree + 1):
        labels = E.labels(t)
        if not labels:
            continue
        # (IE (x) IE) cap (E box E): the equalizer and both counits,
        # each on its own tagged keys
        images = {}
        for (a, b) in degree_pairs(E, E, t):
            img = {("eq",) + k: v for k, v in pair_defect(
                {(a, b): f.one}, box.carrier.right_of, box.carrier.left_of,
                f).items()}
            img.update({("l", d, b): v
                        for d, v in box.counit.column(a).items()})
            img.update({("r", a, d): v
                        for d, v in box.counit.column(b).items()})
            images[(a, b)] = img
        pair_sums = linalg.kernel_of(images, f)
        products = [box.mult.apply(pair_sum, f) for pair_sum in pair_sums]
        # the quotient is a homology only if the products lie in IE
        j = linalg.first_nonzero_composite(counit, products, f)
        if j is not None:
            raise AssertionError(f"the counit is nonzero on product {j} "
                                 f"of the degree-{t} pair cotensor")
        for pair in dict.fromkeys(pr for vec in pair_sums for pr in vec):
            for l in box.mult.column(pair):
                if E.degree_of[l] != t:
                    raise ValueError(
                        f"the product of the degree-{t} pair {pair!r} has "
                        f"the label {l!r} of degree {E.degree_of[l]}")
        pivots = linalg.rref(Matrix.from_rows(
            [{E.index_of[l]: v for l, v in p.items()} for p in products],
            len(labels)), f, reduced=False, last=True)[1]
        reps = linalg.homology_reps(
            linalg.keyed_matrix([counit[l] for l in labels]), set(pivots), f)
        if reps:
            out[t] = (len(reps), [{labels[i]: v for i, v in r.items()}
                                  for r in reps])
    return out


def coflatness_report(M: Comodule, s_max: int, t_max: int):
    """Evidence for coflatness within bounds.  Returns (report,
    cogenerator dims).  The ValidationReport checks that Cotor^s(M, k)
    = 0 for 1 <= s <= s_max and t <= t_max, naming each (s, t) where it
    is not, and that dim M_t matches a cofree D (x) V through
    min(t_max, M.complete_through()), naming the first t where it does
    not; the dims {t: dim V_t} are the nonzero ones read through that t."""
    table = cobar_cotor(M, trivial_comodule(M.base), s_max, t_max)
    D = M.base
    v: dict = {}
    mismatch = []
    for t in range(min(t_max, M.complete_through()) + 1):
        have = M.space.dim(t)
        acc = sum(D.space.dim(j) * v.get(t - j, 0) for j in range(1, t + 1))
        rem = have - acc
        if rem < 0 or D.space.dim(0) == 0:
            mismatch.append(t)
            break
        v[t], r = divmod(rem, D.space.dim(0))
        if r:
            mismatch.append(t)
            break
    report = ValidationReport("coflatness within bounds", [
        check("Cotor^s(M, k) vanishes for s >= 1",
              [bd for bd in table.dims() if bd[0] != 0]),
        check("dims match a cofree D (x) V", mismatch),
    ])
    return report, {t: d for t, d in v.items() if d}
