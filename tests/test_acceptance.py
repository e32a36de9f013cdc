"""Acceptance suite: one test per end-to-end criterion, each with its
own independent oracle (series expansions, closed forms, or a second
computation path).  The conftest hook prints one PASS/FAIL line per
criterion."""

import itertools
import time

import pytest

from cohh import hopf, spectral as sp, structure as st
from cohh.coalgebra import exterior_coalgebra
from cohh.complexes import (CosimplicialModule, cohh,
                            compare_by_induced_map, normalized_complex)
from cohh.comodule import (box_indecomposables, box_primitives, cotensor,
                           polynomial_multiplication, regular_comodule,
                           tensor_box_structure, trivial_comodule)
from cohh.coalgebra import polynomial_coalgebra
from cohh.fields import GF, QQ
from cohh.simplicial import circle, collapse_subdivided


def closed_form_dims(degrees, s_max, t_max):
    """Bigraded dims of Lambda(y_i) (x) k[w_i] by direct series
    expansion: multiply out (1 + y_i) * (1 / (1 - w_i)) term by term."""
    table = {(0, 0): 1}
    for d in degrees:
        nxt = {}
        for (s, t), c in table.items():
            for e in (0, 1):          # y_d at (0, d)
                k = 0                 # w_d at (1, d)
                while s + k <= s_max and t + e * d + k * d <= t_max:
                    bd = (s + k, t + e * d + k * d)
                    nxt[bd] = nxt.get(bd, 0) + c
                    k += 1
        table = nxt
    return table


def test_criterion_1_single_generator_all_fields():
    start = time.perf_counter()
    expected = closed_form_dims([3], 6, 24)
    for field in (GF(2), GF(3), GF(5), QQ):
        table = cohh(exterior_coalgebra([3], field), 6, 24)
        assert table.dims() == expected, field
    assert time.perf_counter() - start < 10.0


def test_criterion_2_two_generators_match_series():
    expected = closed_form_dims([3, 5], 3, 16)
    assert expected[(2, 8)] == 1
    assert expected[(2, 10)] == 1
    assert expected[(1, 8)] == 2
    table = cohh(exterior_coalgebra([3, 5], GF(2)), 3, 16)
    assert table.dims() == expected


def test_criterion_3_bialgebra_diagrams_and_fault_injection():
    import tests.test_hopf as th

    D = exterior_coalgebra([3], QQ)
    box, cs, failed = st.cohh_box_structure(cohh(D, 4, 12))
    assert failed == []
    report = hopf.check_box_bialgebra(box)
    assert report.ok, str(report)

    f = QQ
    one = ("h", 0, 0, 0)
    sx = ("h", 1, 3, 0)
    x = ("h", 0, 3, 0)
    faults = []

    b = th.clone_box(box)                 # spurious coproduct term
    col = dict(b.comult.column(sx))
    col[x, one] = col.get((x, one), 0) + f.one
    b.comult.set_column(sx, f.canonical(col))
    faults.append(("comult spurious term", b))

    b = th.clone_box(box)                 # dropped coproduct term
    col = dict(b.comult.column(sx))
    col.pop((sx, one))
    b.comult.set_column(sx, col)
    faults.append(("comult dropped term", b))

    b = th.clone_box(box)                 # counit zeroed on the unit
    b.counit.set_column(one, {})
    faults.append(("counit zeroed", b))

    b = th.clone_box(box)                 # unit column scaled
    base_one = b.unit.source.labels(0)[0]
    b.unit.set_column(base_one, {l: f.mul(v, f.coerce(2))
                                 for l, v in b.unit.column(
                                     base_one).items()})
    faults.append(("unit scaled", b))

    b = th.clone_box(box)                 # product of suspensions zeroed
    b.mult.set_column((sx, sx), {})
    faults.append(("mult zeroed", b))

    b = th.clone_box(box)                 # product entry scaled
    b.mult.set_column((sx, sx),
                      {l: f.mul(v, f.coerce(3))
                       for l, v in b.mult.column((sx, sx)).items()})
    faults.append(("mult scaled", b))

    assert len(faults) >= 5
    for name, broken in faults:
        rep = hopf.check_box_bialgebra(broken)
        assert not rep.ok, name


@pytest.mark.parametrize("field", [GF(2), QQ])
def test_criterion_4_suspension_power_products(field):
    D = exterior_coalgebra([3], field)
    cs = st.CircleStructure(cohh(D, 5, 15))
    mult, carrier, failed = st.homology_multiplication(cs)
    assert failed == []
    f = field
    for q in range(6):
        for s in range(6 - q):
            a = ("h", q, 3 * q, 0)
            b = ("h", s, 3 * s, 0)
            want = {("h", q + s, 3 * (q + s), 0): f.one}
            assert mult.column((a, b)) == want, (q, s)


def test_criterion_5_primitives_and_indecomposables_mod_3():
    C = exterior_coalgebra([3], GF(3))
    P = polynomial_coalgebra([2], GF(3), truncation=18)
    box = tensor_box_structure(C, P, polynomial_multiplication(P))
    prims = box_primitives(box, 18)
    found = sorted((t, tuple(sorted(v))) for t, vecs in prims.items()
                   for v in vecs)
    # C (x) {w, w^3, w^9}; x3 (x) w^9 sits above degree 18
    assert found == [
        (2, ("1*w2",)),
        (5, ("x3*w2",)),
        (6, ("1*w2^3",)),
        (9, ("x3*w2^3",)),
        (18, ("1*w2^9",)),
    ]
    q = box_indecomposables(box, 18)
    flat = {(t, lbl) for t, (dim, reps) in q.items()
            for r in reps for lbl in r}
    assert flat == {(2, "1*w2"), (5, "x3*w2")}


def test_criterion_6_collapse_verdicts():
    from fractions import Fraction
    rep = sp.collapse_analysis([3, 5], 7)
    assert rep.verdict == "Collapses"
    assert rep.bound_value == Fraction(11, 2) and rep.bound_holds

    rep = sp.collapse_analysis([3, 5], 3)
    assert rep.verdict == "CandidatesExist"
    assert len(rep.candidates) == 1
    c = rep.candidates[0]
    assert c.r == 2
    assert c.source_bidegree == (1, 8) and c.target_bidegree == (3, 9)

    for i in range(3, 23, 2):
        for p in (2, 3, 5, 7, 11):
            assert sp.collapse_analysis([i], p).verdict == "Collapses"


def test_criterion_7_loop_homology_tables():
    start = time.perf_counter()
    # H_*(L S^3): Lambda(y3) (x) k[w2] counted directly
    expected = [0] * 31
    for e in (0, 1):
        for k in itertools.count():
            n = 3 * e + 2 * k
            if n > 30:
                break
            expected[n] += 1
    table = sp.loop_homology([3], 5, 30)
    assert [table.dims[n] for n in range(31)] == expected

    # [3, 5] over F_7: series expansion, checked against the E2 page
    # on the sub-range where the page is complete
    expected = [0] * 21
    for e3 in (0, 1):
        for e5 in (0, 1):
            for k2 in range(11):
                for k4 in range(6):
                    n = 3 * e3 + 5 * e5 + 2 * k2 + 4 * k4
                    if n <= 20:
                        expected[n] += 1
    table = sp.loop_homology([3, 5], 7, 20)
    assert [table.dims[n] for n in range(21)] == expected

    page = sp.build_e2(exterior_coalgebra([3, 5], GF(7)), 4, 12)
    totals = page.total_degree_dims()
    assert totals
    for n, d in totals.items():
        assert d == expected[n], n
    assert time.perf_counter() - start < 60.0


def test_criterion_8_subdivision_projection_is_iso():
    D = exterior_coalgebra([3], GF(2))
    rep = compare_by_induced_map(D, collapse_subdivided(), 4, 15)
    assert rep.ok, str(rep)


def brute_force_equalizer_dims(M, N, max_degree):
    """Second path for the cotensor: assemble rho_r (x) 1 - 1 (x) rho_l
    per degree from the raw coaction tables and row-reduce densely."""
    f = M.field
    out = {}
    for degree in range(max_degree + 1):
        pairs = [(m, n) for m, dm in M.space.degree_of.items()
                 for n, dn in N.space.degree_of.items()
                 if dm + dn == degree]
        triples: dict = {}
        cols = []
        for (m, n) in pairs:
            row: dict = {}
            for (mm, d), v in M.right_of(m).items():
                key = triples.setdefault((mm, d, n), len(triples))
                row[key] = row.get(key, 0) + v
            for (d, nn), v in N.left_of(n).items():
                key = triples.setdefault((m, d, nn), len(triples))
                row[key] = row.get(key, 0) - v
            cols.append(f.canonical(row))
        # column rank by elementary reduction against an echelon set
        echelon: dict = {}
        for col in cols:
            while col:
                lead = min(col)
                if lead not in echelon:
                    inv = f.inv(col[lead])
                    echelon[lead] = {k: f.mul(v, inv)
                                     for k, v in col.items()}
                    break
                c = col[lead]
                for k, v in echelon[lead].items():
                    col[k] = col.get(k, 0) - c * v
                col = f.canonical(col)
        if len(pairs) - len(echelon):
            out[degree] = len(pairs) - len(echelon)
    return out


def test_criterion_9_oracle_equivalence():
    # normalized vs unnormalized homology dims
    for degrees in ([3], [3, 5]):
        D = exterior_coalgebra(degrees, GF(2))
        a = cohh(D, 3, 10, normalized=True).dims()
        b = cohh(D, 3, 10, normalized=False).dims()
        assert a == b, degrees

    # sh o aw = id, exactly, on every normalized pair in range
    field = GF(3)
    D = exterior_coalgebra([3], field)
    cm = CosimplicialModule(D, circle(), 9)
    cc = normalized_complex(cm, 2)
    mx = st.MixedBicosimplicial(cm, cm)
    for n in range(3):
        for p in range(n + 1):
            q = n - p
            for la, ta in cc.terms[p].degree_of.items():
                for lb, tb in cc.terms[q].degree_of.items():
                    if ta + tb > 9:
                        continue
                    e = {la + lb: field.one}
                    got = st.sh_map(mx, p, q, st.aw_map(mx, p, q, e))
                    assert got == e, (p, q, la, lb)

    # cotensor dims vs the brute-force assembled equalizer
    fixtures = []
    for fld in (GF(2), GF(3), QQ):
        D = exterior_coalgebra([3], fld)
        R = regular_comodule(D)
        fixtures.append((R, R))
        fixtures.append((trivial_comodule(D), R))
    D2 = exterior_coalgebra([3, 5], GF(3))
    fixtures.append((regular_comodule(D2), regular_comodule(D2)))
    for M, N in fixtures:
        want = brute_force_equalizer_dims(M, N, 8)
        assert {t: len(vecs) for t, vecs in cotensor(M, N, 8).items()
                if vecs} == want
