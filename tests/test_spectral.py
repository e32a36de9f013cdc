"""Tests for the E2 page wrapper, the collapse arithmetic, the loop
homology tables, and the structure audit.

Oracles: monomial counting in Lambda(y) (x) k[w] for page dimensions,
explicit series expansion for loop tables, and hand-solved bidegree
equations for the collapse candidates."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from cohh import spectral as sp
from cohh.coalgebra import exterior_coalgebra, polynomial_coalgebra
from cohh.fields import GF, QQ

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
          59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_monomial_dims_single_generator_closed_form():
    dims = sp.exterior_e2_dims([3], 5, 18)
    expected = {}
    for q in range(6):
        if 3 * q <= 18:
            expected[(q, 3 * q)] = 1
        if 3 * q + 3 <= 18:
            expected[(q, 3 * q + 3)] = 1
    assert dims == expected


def test_monomial_names_and_low_bidegrees_for_two_generators():
    mons = sp.exterior_monomials([3, 5], 2, 10)
    assert mons[(0, 0)] == ["1"]
    assert mons[(1, 5)] == ["w5"]
    assert mons[(1, 8)] == ["y3*w5", "y5*w3"]
    assert mons[(2, 8)] == ["w3*w5"]
    assert mons[(2, 10)] == ["w5^2"]


def box_walk_monomials(degrees, s_max, t_max):
    """The oracle: every exponent vector in the box of ranges each
    generator allows alone, kept if its s and t are in range."""
    out = {}
    for eps in itertools.product((0, 1), repeat=len(degrees)):
        t0 = sum(e * d for e, d in zip(eps, degrees))
        if t0 > t_max:
            continue
        for exps in itertools.product(*(
                range(min(s_max, (t_max - t0) // d) + 1) for d in degrees)):
            s = sum(exps)
            t = t0 + sum(a * d for a, d in zip(exps, degrees))
            if s <= s_max and t <= t_max:
                out.setdefault((s, t), []).append(
                    sp.monomial_name(degrees, eps, exps))
    for names in out.values():
        names.sort()
    return out


@pytest.mark.parametrize("degrees,s_max,t_max", [
    ([3, 5, 7], 6, 40), ([3, 5, 7, 9, 11], 5, 36), ([3], 0, 2)])
def test_pruned_monomials_match_the_box_walk(degrees, s_max, t_max):
    mons = sp.exterior_monomials(degrees, s_max, t_max)
    want = box_walk_monomials(degrees, s_max, t_max)
    assert mons == want
    assert list(mons) == list(want)


def test_build_e2_matches_closed_form():
    for fld in (GF(2), GF(7), QQ):
        page = sp.build_e2(exterior_coalgebra([3], fld), 4, 15)
        assert page.closed_form.passed
        assert page.generators == {"y3": (0, 3), "w3": (1, 3)}
    page = sp.build_e2(exterior_coalgebra([3, 5], GF(2)), 3, 12)
    assert page.closed_form.passed


def test_build_e2_of_the_trivial_coalgebra():
    from cohh.coalgebra import trivial_coalgebra
    page = sp.build_e2(trivial_coalgebra(GF(2)), 3, 10)
    assert page.table.dims() == {(0, 0): 1}


def test_collapse_for_3_5_at_7_with_the_sharp_bound():
    from fractions import Fraction
    report = sp.collapse_analysis([3, 5], 7)
    assert report.verdict == "Collapses"
    assert report.bound_value == Fraction(11, 2)
    assert report.bound_holds
    assert report.weak_bound_value == Fraction(13, 2)
    assert report.weak_bound_holds


def test_candidate_for_3_5_at_3_is_unique():
    report = sp.collapse_analysis([3, 5], 3)
    assert report.verdict == "CandidatesExist"
    assert len(report.candidates) == 1
    c = report.candidates[0]
    assert c.r == 2
    assert c.source_bidegree == (1, 8)
    assert c.target_bidegree == (3, 9)
    assert c.target_monomial == "w3^3"
    # two monomials share the source bidegree
    assert c.source_monomials == ["y3*w5", "y5*w3"]


def brute_force_candidates(degrees, p):
    """Oracle: for each source monomial y_S w_j and target generator
    w_a, try every b >= 1 with p^b <= t_src; as (r, source, target,
    source monomials, equation) tuples in order."""
    found: dict = {}
    n = len(degrees)
    for m in range(n + 1):
        for subset in itertools.combinations(range(n), m):
            for j in range(n):
                t_src = sum(degrees[k] for k in subset) + degrees[j]
                name = sp.monomial_name(
                    degrees, tuple(int(k in subset) for k in range(n)),
                    tuple(int(k == j) for k in range(n)))
                for ia in degrees:
                    b = 1
                    while p ** b <= t_src:
                        pb = p ** b
                        if pb - 1 >= 2 and t_src - 2 == (ia - 1) * pb:
                            eq = f"1+r = {p}^{b}, {t_src}-2 = ({ia}-1)*{pb}"
                            key = (pb - 1, (1, t_src), (pb, ia * pb))
                            found.setdefault(key, (eq, set()))[1].add(name)
                        b += 1
    return [(r, source, target, sorted(names), eq)
            for (r, source, target), (eq, names) in sorted(found.items())]


@settings(max_examples=300, deadline=None)
@given(degrees=st.lists(st.sampled_from(range(3, 42, 2)), min_size=1,
                        max_size=3).map(sorted),
       p=st.sampled_from([q for q in PRIMES if q <= 31]))
@example(degrees=[3, 25], p=13)
@example(degrees=[11, 31], p=2)
@example(degrees=[3, 17], p=2)
def test_collapse_analysis_is_the_exhaustive_enumeration(degrees, p):
    report = sp.collapse_analysis(degrees, p)
    got = [(c.r, c.source_bidegree, c.target_bidegree, c.source_monomials,
            c.equations) for c in report.candidates]
    assert got == brute_force_candidates(degrees, p)
    assert report.verdict == ("CandidatesExist" if got else "Collapses")


@pytest.mark.parametrize("degrees, p, candidate", [
    # each lies beyond r = 10 or source degree 40, where a bounded
    # search would miss it
    ([3, 25], 13, "d_12: (1, 28) -> (13, 39), sources y25*w3, y3*w25"),
    ([11, 31], 2, "d_3: (1, 42) -> (4, 44), sources y11*w31, y31*w11"),
    ([3, 17], 2, "d_15: (1, 34) -> (16, 48), sources y17*w17"),
])
def test_candidates_past_any_search_bound_are_found(degrees, p, candidate):
    report = sp.collapse_analysis(degrees, p)
    assert report.verdict == "CandidatesExist"
    assert any(str(c).startswith(candidate + ",") for c in report.candidates)
    assert not report.bound_holds


def test_single_generator_always_collapses():
    for i in range(3, 23, 2):
        for p in PRIMES:
            report = sp.collapse_analysis([i], p)
            assert report.verdict == "Collapses", (i, p)


def test_collapse_is_monotone_in_the_prime():
    for degrees in ([3, 5], [3, 7], [5, 7], [3, 5, 7], [3, 3]):
        seen_collapse = False
        for p in PRIMES:
            v = sp.collapse_analysis(degrees, p).verdict
            if seen_collapse:
                assert v == "Collapses", (degrees, p)
            if v == "Collapses" and sp.collapse_analysis(
                    degrees, p).bound_holds:
                seen_collapse = True


def test_collapse_input_validation():
    with pytest.raises(sp.DegreeEven):
        sp.collapse_analysis([3, 4], 5)
    with pytest.raises(sp.NotPrime):
        sp.collapse_analysis([3], 4)
    with pytest.raises(ValueError):
        sp.collapse_analysis([5, 3], 7)


def test_loop_homology_of_the_three_sphere():
    table = sp.loop_homology([3], 5, 30)
    assert table.dims[0] == 1
    assert table.dims[1] == 0
    for n in range(2, 31):
        assert table.dims[n] == 1, n


def test_loop_homology_for_3_5_at_7():
    table = sp.loop_homology([3, 5], 7, 7)
    assert [table.dims[n] for n in range(8)] == [1, 0, 1, 1, 2, 2, 2, 3]


def test_loop_homology_refuses_without_collapse():
    with pytest.raises(sp.CollapseNotEstablished):
        sp.loop_homology([3, 5], 3, 10)


def test_loop_series_matches_e2_total_degree_dims():
    page = sp.build_e2(exterior_coalgebra([3], GF(5)), 4, 12)
    totals = page.total_degree_dims()
    series = sp.loop_series_dims([3], max(totals))
    for n, d in totals.items():
        assert series[n] == d, n


def test_structure_audit_single_generator():
    for fld, smax, tmax, extra in [
        (GF(2), 4, 12, {(2, 6): 1, (4, 12): 1}),
        (GF(3), 3, 9, {(3, 9): 1}),
        (QQ, 3, 9, {}),
    ]:
        page = sp.build_e2(exterior_coalgebra([3], fld), smax, tmax)
        rep, tables = sp.e2_structure_audit(page)
        assert rep.ok
        assert tables["indecomposables"] == {(1, 3): 1, (1, 6): 1}
        assert tables["primitives"] == {(0, 3): 1, (1, 3): 1, **extra}


def test_structure_audit_finds_the_cube_primitive_mod_3():
    page = sp.build_e2(exterior_coalgebra([3, 5], GF(3)), 3, 9)
    rep, tables = sp.e2_structure_audit(page)
    assert rep.ok
    assert tables["primitives"].get((3, 9)) == 1


def test_structure_audit_of_two_generators_mod_2():
    page = sp.build_e2(exterior_coalgebra([3, 5], GF(2)), 3, 16)
    assert sp.e2_structure_audit(page)[0].ok


def test_structure_audit_reports_a_mismatch_without_raising(monkeypatch):
    closed_form = sp.exterior_monomials

    def with_a_ghost(degrees, s_max, t_max):
        out = closed_form(degrees, s_max, t_max)
        out.setdefault((1, 1), []).append("ghost")
        return out
    page = sp.build_e2(exterior_coalgebra([3], GF(3)), 2, 6)
    monkeypatch.setattr(sp, "exterior_monomials", with_a_ghost)
    rep, tables = sp.e2_structure_audit(page)
    assert not rep.ok
    assert tables["indecomposables"] == {(1, 3): 1, (1, 6): 1}
    assert tables["expected_indecomposables"] == {(1, 1): 1, (1, 3): 1,
                                                  (1, 6): 1}
    assert "FAILED" in str(rep)
    # only the indecomposables differ, and the check names the ghost
    assert [c.name for c in rep.failures] == [
        "indecomposables match the closed form"]
    assert rep.failures[0].witness == "fails at [(1, 1)]"
    # so does the closed-form check of a page built with the ghost
    ghosted = sp.build_e2(exterior_coalgebra([3], GF(3)), 2, 6)
    assert not ghosted.closed_form.passed
    assert ghosted.closed_form.witness == "fails at [(1, 1)]"


def test_structure_audit_fails_only_kuenneth_at_the_faulted_block(
        monkeypatch):
    from test_structure import fail_kuenneth_at
    page = sp.build_e2(exterior_coalgebra([3], GF(3)), 3, 9)
    _, tables = sp.e2_structure_audit(page)
    fail_kuenneth_at(monkeypatch, (1, 6))
    rep, faulted = sp.e2_structure_audit(page)
    assert not rep.ok
    assert rep.failures == [rep.checks[0]]
    assert rep.checks[0].witness == "fails at [(1, 6)]"
    # the faulted block holds products with a filtration-0 class, which
    # neither closed form reads: the tables are those of a clean run
    assert faulted == tables


def test_structure_audit_builds_one_circle_table(monkeypatch):
    from cohh import complexes
    tables = []
    init = complexes.HomologyTable.__init__

    def recording(self, cc, s_max, t_max):
        tables.append(cc)
        init(self, cc, s_max, t_max)
    monkeypatch.setattr(complexes.HomologyTable, "__init__", recording)
    page = sp.build_e2(exterior_coalgebra([3], GF(3)), 3, 9)
    assert sp.e2_structure_audit(page)[0].ok
    # the E2 page's table over the circle cochains, then the cotensor
    # total complex's, which has no cosimplicial ambient
    assert [cc.ambient is not None for cc in tables] == [True, False]
    assert tables[0] is page.table.complex


def test_structure_audit_rejects_non_exterior_pages():
    page = sp.build_e2(polynomial_coalgebra([2], GF(3), truncation=8),
                       2, 8)
    with pytest.raises(ValueError):
        sp.e2_structure_audit(page)


def test_quotient_by_products_refuses_a_product_outside_its_bidegree():
    from cohh import structure as st
    page = sp.build_e2(exterior_coalgebra([3], GF(3)), 3, 9)
    box = st.cohh_box_structure(page.table)[0]
    E = box.carrier.space
    assert (sp._quotient_by_products(box, 9)
            == sp.e2_structure_audit(page)[1]["indecomposables"])
    # move one entry of a product of positive-filtration classes to a
    # class of the same internal degree and another filtration
    pair, label, moved = next(
        (pr, m, other) for pr, col in box.mult.columns.items()
        if pr[0][1] >= 1 and pr[1][1] >= 1 for m in col
        for other in E.labels(m[2]) if other[1] != m[1])
    col = dict(box.mult.columns[pair])
    col[moved] = col.pop(label)
    box.mult.set_column(pair, col)
    with pytest.raises(AssertionError, match="outside its bidegree"):
        sp._quotient_by_products(box, 9)
