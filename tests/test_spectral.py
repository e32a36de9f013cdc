"""Tests for the E2 page wrapper, the collapse arithmetic, the loop
homology tables, and the structure audit.

Oracles: monomial counting in Lambda(y) (x) k[w] for page dimensions,
explicit series expansion for loop tables, and hand-solved bidegree
equations for the collapse candidates."""

import pytest

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


def test_build_e2_matches_closed_form():
    for fld in (GF(2), GF(7), QQ):
        page = sp.build_e2(exterior_coalgebra([3], fld), 4, 15)
        assert page.closed_form_ok
        assert page.generators == {"y3": (0, 3), "w3": (1, 3)}
    page = sp.build_e2(exterior_coalgebra([3, 5], GF(2)), 3, 12)
    assert page.closed_form_ok


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
    report = sp.collapse_analysis([3, 5], 3, s_search=10, t_search=20)
    assert report.verdict == "CandidatesExist"
    assert len(report.candidates) == 1
    c = report.candidates[0]
    assert c.r == 2
    assert c.source_bidegree == (1, 8)
    assert c.target_bidegree == (3, 9)
    assert c.target_monomial == "w3^3"
    # two monomials share the source bidegree
    assert c.source_monomials == ["y3*w5", "y5*w3"]


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
        rep = sp.e2_structure_audit(page)
        assert rep.ok
        assert rep.indecomposables == {(1, 3): 1, (1, 6): 1}
        assert rep.primitives == {(0, 3): 1, (1, 3): 1, **extra}


def test_structure_audit_finds_the_cube_primitive_mod_3():
    page = sp.build_e2(exterior_coalgebra([3, 5], GF(3)), 3, 9)
    rep = sp.e2_structure_audit(page)
    assert rep.ok
    assert rep.primitives.get((3, 9)) == 1


def test_structure_audit_of_two_generators_mod_2():
    page = sp.build_e2(exterior_coalgebra([3, 5], GF(2)), 3, 16)
    assert sp.e2_structure_audit(page).ok


def test_structure_audit_rejects_non_exterior_pages():
    page = sp.build_e2(polynomial_coalgebra([2], GF(3), truncation=8),
                       2, 8)
    with pytest.raises(ValueError):
        sp.e2_structure_audit(page)
