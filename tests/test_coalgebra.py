import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cohh.coalgebra import (
    GradedCoalgebra,
    _dedupe_names,
    counit_map,
    exterior_coalgebra,
    is_cocommutative,
    polynomial_coalgebra,
    primitives_of_coalgebra,
    table_coalgebra,
    tensor_coalgebra,
    tensor_projection,
    trivial_coalgebra,
    validate,
)
from cohh.fields import GF, QQ


def test_exterior_one_generator_comult():
    c = exterior_coalgebra([3], QQ)
    one = Fraction(1)
    assert c.comult_of("x3") == {("1", "x3"): one, ("x3", "1"): one}
    assert c.counit_of("x3") == 0
    assert c.degree("x3") == 3


def test_exterior_two_generator_comult_signs():
    c = exterior_coalgebra([3, 5], QQ)
    one = Fraction(1)
    assert c.comult_of("x3x5") == {
        ("1", "x3x5"): one,
        ("x3", "x5"): one,
        ("x5", "x3"): -one,
        ("x3x5", "1"): one,
    }
    assert c.space.total_dim() == 4
    assert c.degree("x3x5") == 8


def test_exterior_rejects_even_degrees():
    with pytest.raises(ValueError):
        exterior_coalgebra([2], QQ)


def test_exterior_duplicate_degrees_get_distinct_names():
    c = exterior_coalgebra([3, 3], GF(2))
    assert "x3" in c.space.degree_of
    assert "x3_2" in c.space.degree_of
    assert validate(c).ok


def test_polynomial_binomial_comult():
    c = polynomial_coalgebra([2], QQ, truncation=8)
    one = Fraction(1)
    assert c.comult_of("w2^2") == {
        ("1", "w2^2"): one,
        ("w2", "w2"): 2 * one,
        ("w2^2", "1"): one,
    }


def test_polynomial_frobenius_powers_primitive_mod_3():
    c = polynomial_coalgebra([2], GF(3), truncation=18)
    # C(3,1) = C(3,2) = 3 vanish mod 3, so w^3 is primitive
    assert c.comult_of("w2^3") == {("1", "w2^3"): 1, ("w2^3", "1"): 1}
    prim = primitives_of_coalgebra(c, 18)
    found = sorted(
        (d, tuple(sorted(v))) for d, vecs in prim.items() for v in vecs
    )
    assert found == [(2, ("w2",)), (6, ("w2^3",)), (18, ("w2^9",))]


def test_polynomial_two_generators_validates():
    c = polynomial_coalgebra([2, 4], GF(5), truncation=12)
    assert validate(c).ok


def test_validate_passes_on_constructors():
    for c in (
        exterior_coalgebra([3, 5, 7], GF(2)),
        polynomial_coalgebra([4], QQ, truncation=16),
        trivial_coalgebra(GF(7)),
        tensor_coalgebra(exterior_coalgebra([3], GF(3)),
                         polynomial_coalgebra([2], GF(3), truncation=10)),
    ):
        report = validate(c)
        assert report.ok, str(report)


def test_validate_catches_broken_counit():
    c = table_coalgebra(
        QQ,
        [("1", 0), ("x", 3)],
        {"1": {("1", "1"): 1}, "x": {("1", "x"): 1, ("x", "1"): 2}},
        {"1": 1, "x": 0},
    )
    report = validate(c)
    assert not report.ok
    assert any("counit law" in c.name for c in report.failures)


def test_validate_catches_noncoassociative_table():
    c = table_coalgebra(
        GF(5),
        [("1", 0), ("a", 2), ("b", 4)],
        {
            "1": {("1", "1"): 1},
            "a": {("1", "a"): 1, ("a", "1"): 1},
            "b": {("1", "b"): 1, ("b", "1"): 1, ("a", "a"): 1},
        },
        {"1": 1, "a": 0, "b": 0},
    )
    # sabotage: make Delta(b)'s middle term asymmetric under coassociativity
    c.comult["b"] = {("1", "b"): 1, ("b", "1"): 1, ("a", "a"): 1}
    c.comult["a"] = {("1", "a"): 1, ("a", "1"): 2}
    report = validate(c)
    assert not report.ok


def test_tensor_matches_exterior_on_two_generators():
    t = tensor_coalgebra(exterior_coalgebra([3], QQ),
                         exterior_coalgebra([5], QQ))
    e = exterior_coalgebra([3, 5], QQ)
    rename = {"1*1": "1", "x3*1": "x3", "1*x5": "x5", "x3*x5": "x3x5"}
    assert t.space.total_dim() == e.space.total_dim()
    for tid, eid in rename.items():
        assert t.degree(tid) == e.degree(eid)
        got = {(rename[a], rename[b]): v for (a, b), v in t.comult_of(tid).items()}
        assert got == e.comult_of(eid)


def test_tensor_truncation_is_minimum():
    t = tensor_coalgebra(polynomial_coalgebra([2], GF(2), truncation=10),
                         polynomial_coalgebra([4], GF(2), truncation=8))
    assert t.truncation == 8


def test_cocommutativity():
    assert is_cocommutative(exterior_coalgebra([3, 5], QQ))
    assert is_cocommutative(polynomial_coalgebra([2], GF(3), truncation=10))
    c = table_coalgebra(
        QQ,
        [("1", 0), ("a", 1), ("b", 1), ("c", 2)],
        {
            "1": {("1", "1"): 1},
            "a": {("1", "a"): 1, ("a", "1"): 1},
            "b": {("1", "b"): 1, ("b", "1"): 1},
            "c": {("1", "c"): 1, ("c", "1"): 1, ("a", "b"): 1},
        },
        {"1": 1},
    )
    assert not is_cocommutative(c)


def test_exterior_primitives_are_generators():
    c = exterior_coalgebra([3, 5], GF(2))
    prim = primitives_of_coalgebra(c, 8)
    assert prim[3] == [{"x3": 1}]
    assert prim[5] == [{"x5": 1}]
    assert prim.get(8, []) == []


def test_iterated_comult_counts():
    c = exterior_coalgebra([3], QQ)
    # Delta^(3)(x) = sum of 3 placements of x among three tensor slots
    d3 = c.iterated_comult("x3", 3)
    assert len(d3) == 3
    assert all(v == 1 for v in d3.values())
    assert c.iterated_comult("x3", 0) == {}
    assert c.iterated_comult("1", 0) == {(): Fraction(1)}


def test_counit_map_and_tensor_projection_are_coalgebra_maps():
    t = tensor_coalgebra(exterior_coalgebra([3], GF(3)),
                         polynomial_coalgebra([2], GF(3), truncation=8))
    for m in (counit_map(t), tensor_projection(t, 0), tensor_projection(t, 1)):
        report = m.check()
        assert report.ok, f"{m.name}: {report}"


@settings(max_examples=20, deadline=None)
@given(
    degs=st.lists(st.sampled_from([3, 5, 7, 9]), min_size=1, max_size=3),
    char=st.sampled_from([0, 2, 3, 5]),
)
def test_exterior_always_validates_and_is_cocommutative(degs, char):
    from cohh.fields import FieldSpec

    c = exterior_coalgebra(degs, FieldSpec(char))
    assert validate(c).ok
    assert is_cocommutative(c)


# The two hand-written constructors the monomial constructor replaced,
# kept as oracles: the exterior Koszul sign loop over combinations, and
# the polynomial product over range(truncation + 1) then filtered.


def oracle_exterior_coalgebra(degrees, field):
    degrees = sorted(degrees)
    gens = _dedupe_names("x", degrees)
    n = len(gens)

    def mono_id(subset):
        return "".join(gens[i] for i in subset) or "1"

    basis = []
    comult = {}
    counit = {}
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            mid = mono_id(subset)
            basis.append((mid, sum(degrees[i] for i in subset)))
            counit[mid] = field.one if not subset else field.zero
            terms = {}
            for k in range(r + 1):
                for a_pos in itertools.combinations(range(r), k):
                    a_set = set(a_pos)
                    sign = 0
                    # pairs (b, a) with b in the complement appearing
                    # before a in the monomial contribute |a||b|
                    for i in range(r):
                        if i in a_set:
                            continue
                        for j in a_pos:
                            if i < j:
                                sign += degrees[subset[i]] * degrees[subset[j]]
                    pair = (mono_id(tuple(subset[i] for i in a_pos)),
                            mono_id(tuple(subset[i] for i in range(r)
                                          if i not in a_set)))
                    terms[pair] = terms.get(pair, 0) + (-1) ** sign
            comult[mid] = field.canonical(terms)
    return GradedCoalgebra(field, basis, comult, counit)


def oracle_polynomial_coalgebra(degrees, field, truncation):
    degrees = sorted(degrees)
    gens = _dedupe_names("w", degrees)

    def mono_id(exps):
        parts = []
        for g, e in zip(gens, exps):
            if e == 1:
                parts.append(g)
            elif e > 1:
                parts.append(f"{g}^{e}")
        return "".join(parts) or "1"

    monomials = [()]
    for d in degrees:
        monomials = [m + (e,) for m in monomials
                     for e in range(0, truncation + 1)]
    monomials = [m for m in monomials
                 if sum(e * d for e, d in zip(m, degrees)) <= truncation]
    monomials.sort(key=lambda m: (sum(e * d for e, d in zip(m, degrees)), m))

    basis = []
    comult = {}
    counit = {}
    for m in monomials:
        mid = mono_id(m)
        basis.append((mid, sum(e * d for e, d in zip(m, degrees))))
        counit[mid] = field.one if not any(m) else field.zero
        terms = {}
        for split in itertools.product(*(range(e + 1) for e in m)):
            coeff = 1
            for e, k in zip(m, split):
                coeff *= math.comb(e, k)
            rest = tuple(e - k for e, k in zip(m, split))
            pair = (mono_id(split), mono_id(rest))
            terms[pair] = terms.get(pair, 0) + coeff
        comult[mid] = field.canonical(terms)
    return GradedCoalgebra(field, basis, comult, counit,
                           truncation=truncation)


ORACLE_FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]


def assert_same_tables(new, old, same_order):
    assert new.comult == old.comult
    assert new.counit == old.counit
    assert new.truncation == old.truncation
    basis = list(new.space.degree_of.items())
    assert set(basis) == set(old.space.degree_of.items())
    if same_order:
        assert basis == list(old.space.degree_of.items())


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_exterior_tables_match_the_sign_loop_oracle(field):
    # the basis order is (degree, exponents): it differs from the
    # oracle's (size, subset) order only where a product of generators
    # is of lower degree than a later generator, or two degrees tie
    for degrees, same_order in (
            ([3], True), ([3, 5], True), ([3, 5, 7], True),
            ([3, 5, 9], False), ([3, 3], False), ([3, 5, 7, 11], False),
            ([3, 5, 7, 9, 11], False)):
        assert_same_tables(exterior_coalgebra(degrees, field),
                           oracle_exterior_coalgebra(degrees, field),
                           same_order)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_polynomial_tables_match_the_product_filter_oracle(field):
    for degrees, truncation in (([2], 20), ([2, 4], 16), ([2, 2], 9),
                                ([2, 4, 6], 18), ([2], 0)):
        assert_same_tables(
            polynomial_coalgebra(degrees, field, truncation),
            oracle_polynomial_coalgebra(degrees, field, truncation), True)


def test_exterior_basis_is_listed_by_degree_then_exponents():
    c = exterior_coalgebra([3, 5, 9], GF(2))
    assert list(c.space.degree_of.items()) == [
        ("1", 0), ("x3", 3), ("x5", 5), ("x3x5", 8), ("x9", 9),
        ("x3x9", 12), ("x5x9", 14), ("x3x5x9", 17)]
    assert list(exterior_coalgebra([3, 3], GF(2)).space.degree_of) == [
        "1", "x3_2", "x3", "x3x3_2"]
