from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cohh.coalgebra import (
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
