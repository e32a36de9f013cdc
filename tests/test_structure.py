"""Tests for the Eilenberg-Zilber duals and the (co)product, unit,
counit and antipode assembled on the homology of the circle complex.

Expected values for the exterior coalgebra on one generator come from
the closed form Lambda(x) (x) k[sigma x]: the suspension class sigma x
sits at (s, t) = (1, |x|), its powers multiply freely, and the
coproduct is binomial because sigma x is primitive.
"""

import itertools

import pytest

from cohh import structure as st
from cohh.coalgebra import exterior_coalgebra
from cohh.complexes import CosimplicialModule, _words, normalized_complex
from cohh.fields import GF, QQ
from cohh.graded import GradedMap, add_term, sub_sums
from cohh.simplicial import circle


def mixed_words(mx, p, q, t_max):
    """Every word of the mixed (p, q) level of total degree <= t_max."""
    return [w for w, _ in _words(mx.D, len(mx.level(p, q)), t_max)]


def alternating_sum(op, count, vec, f):
    """sum_i (-1)^i op(i, vec) for 0 <= i < count."""
    out = {}
    for i in range(count):
        for w, v in op(i, vec).items():
            add_term(out, w, f.mul(f.coerce((-1) ** i), v), f)
    return out


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_sh_after_aw_is_identity_on_normalized(field):
    D = exterior_coalgebra([3], field)
    cm = CosimplicialModule.from_shape(D, circle(), 3, 9)
    cc = normalized_complex(cm, 3)
    mx = st.MixedBicosimplicial(cm, cm)
    f = D.field
    for n in range(4):
        for p in range(n + 1):
            q = n - p
            for la, ta in cc.terms[p].degree_of.items():
                for lb, tb in cc.terms[q].degree_of.items():
                    if ta + tb > 9:
                        continue
                    e = {la + lb: f.one}
                    got = st.sh_map(mx, p, q, st.aw_map(mx, p, q, e))
                    assert got == e, (n, p, q, la, lb)


def test_sh_after_aw_cross_components_vanish_on_normalized():
    field = QQ
    D = exterior_coalgebra([3], field)
    cm = CosimplicialModule.from_shape(D, circle(), 2, 9)
    cc = normalized_complex(cm, 2)
    mx = st.MixedBicosimplicial(cm, cm)
    f = D.field
    for (p, q), (p2, q2) in [((1, 1), (2, 0)), ((1, 1), (0, 2)),
                             ((2, 0), (1, 1)), ((0, 2), (2, 0))]:
        for la, ta in cc.terms[p].degree_of.items():
            for lb, tb in cc.terms[q].degree_of.items():
                if ta + tb > 9:
                    continue
                e = {la + lb: f.one}
                assert not st.sh_map(mx, p2, q2, st.aw_map(mx, p, q, e))


def test_levelwise_comult_commutes_with_diagonal_cofaces():
    # needs a cocommutative coalgebra, which all our inputs are
    D = exterior_coalgebra([3, 5], QQ)
    cm = CosimplicialModule.from_shape(D, circle(), 2, 10)
    mx = st.MixedBicosimplicial(cm, cm)
    f = D.field
    # (1 (x) x3 + x3 (x) 1)(1 (x) x5 + x5 (x) 1), legs sorted with the
    # Koszul sign (-1)^{|b1||a2|}
    assert st.levelwise_comult(mx, 1, {("x3", "x5"): f.one}) == {
        ("1", "1", "x3", "x5"): 1, ("1", "x5", "x3", "1"): -1,
        ("x3", "1", "1", "x5"): 1, ("x3", "x5", "1", "1"): 1}
    for n in range(2):
        for i in range(n + 2):
            for word in cm.space(n).degree_of:
                lhs = st.levelwise_comult(mx, n + 1,
                                          cm.coface(n, i).column(word))
                rhs = st.delta_A(mx, n, n + 1, i, st.delta_B(
                    mx, n, n, i, st.levelwise_comult(mx, n, {word: f.one})))
                assert not sub_sums(lhs, rhs, f), (n, i, word)


def test_sh_is_a_chain_map_to_the_total_complex():
    D = exterior_coalgebra([3], QQ)
    cm = CosimplicialModule.from_shape(D, circle(), 3, 9)
    mx = st.MixedBicosimplicial(cm, cm)
    f = D.field
    for n in range(3):
        for word in mixed_words(mx, n, n, 9):
            e = {word: f.one}
            # diagonal coface differential on the levelwise tensor
            d_diag = alternating_sum(
                lambda i, v: st.delta_A(mx, n, n + 1, i,
                                        st.delta_B(mx, n, n, i, v)),
                n + 2, e, f)
            for p in range(n + 2):
                q = n + 1 - p
                lhs = st.sh_map(mx, p, q, d_diag)
                rhs = {}
                if p >= 1:
                    rhs = alternating_sum(
                        lambda i, v: st.delta_A(mx, p - 1, q, i, v),
                        p + 1, st.sh_map(mx, p - 1, q, e), f)
                if q >= 1:
                    d_b = alternating_sum(
                        lambda i, v: st.delta_B(mx, p, q - 1, i, v),
                        q + 1, st.sh_map(mx, p, q - 1, e), f)
                    for w, v in d_b.items():
                        add_term(rhs, w, f.mul(f.coerce((-1) ** p), v), f)
                assert not sub_sums(lhs, rhs, f), (n, p, q, word)


@pytest.mark.parametrize("field", [GF(2), QQ])
def test_suspension_powers_multiply_freely(field):
    D = exterior_coalgebra([3], field)
    cs = st.CircleStructure(D, 3, 12)
    mult, carrier, ok = st.homology_multiplication(cs)
    assert ok
    f = field
    one = ("h", 0, 0, 0)
    sx = ("h", 1, 3, 0)
    # q-fold products of the suspension class land on the rank-one
    # bidegrees (q, 3q)
    power = {sx: f.one}
    for q in range(2, 4):
        nxt = {}
        for h, c in power.items():
            for h2, v in mult.column((sx, h)).items():
                add_term(nxt, h2, f.mul(c, v), f)
        power = nxt
        assert power == {("h", q, 3 * q, 0): f.one}
    # the exterior generator squares to zero
    x = ("h", 0, 3, 0)
    assert mult.column((x, x)) == {}
    assert mult.column((x, sx)) == {("h", 1, 6, 0): f.one}
    assert one in carrier.space.degree_of


@pytest.mark.parametrize("field", [GF(2), QQ])
def test_coproduct_of_suspension_powers_is_binomial(field):
    import math
    D = exterior_coalgebra([3], field)
    cs = st.CircleStructure(D, 3, 12)
    mult, _, _ = st.homology_multiplication(cs)
    f = field
    sx = ("h", 1, 3, 0)
    powers = {0: {("h", 0, 0, 0): f.one}, 1: {sx: f.one}}
    for q in (2, 3):
        nxt = {}
        for h, c in powers[q - 1].items():
            for h2, v in mult.column((sx, h)).items():
                add_term(nxt, h2, f.mul(c, v), f)
        powers[q] = nxt
    for q in (1, 2, 3):
        (label,) = powers[q]
        scale = powers[q][label]
        expected = {}
        for i in range(q + 1):
            (ha,) = powers[i]
            (hb,) = powers[q - i]
            coeff = f.mul(f.coerce(math.comb(q, i)),
                          f.mul(powers[i][ha], powers[q - i][hb]))
            add_term(expected, (ha, hb), f.mul(f.inv(scale), coeff), f)
        got = cs.class_coproduct(label)
        assert got == expected, (q, got, expected)


def test_coproduct_of_exterior_class_is_primitive():
    D = exterior_coalgebra([3], GF(2))
    cs = st.CircleStructure(D, 3, 12)
    one = ("h", 0, 0, 0)
    x = ("h", 0, 3, 0)
    assert cs.class_coproduct(x) == {(one, x): 1, (x, one): 1}
    assert cs.class_coproduct(one) == {(one, one): 1}


def test_product_on_cotensor_matches_the_assembled_multiplication():
    D = exterior_coalgebra([3], GF(2))
    cs = st.CircleStructure(D, 3, 12)
    H = cs.H
    z1 = H.rep(("h", 1, 3, 0))
    z2 = H.rep(("h", 2, 6, 0))
    terms = {}
    for wa, va in z1.items():
        for wb, vb in z2.items():
            terms[(wa, wb)] = cs.field.mul(va, vb)
    assert cs.is_equalized(terms)
    assert cs.product_on_cotensor(terms) == {("h", 3, 9, 0): 1}


def test_product_refuses_non_equalized_input():
    D = exterior_coalgebra([3], GF(2))
    cs = st.CircleStructure(D, 2, 9)
    bad = {(("x3",), ("x3",)): cs.field.one}
    assert not cs.is_equalized(bad)
    with pytest.raises(st.NotEqualized):
        cs.product_on_cotensor(bad)


def test_carrier_comodule_satisfies_the_comodule_axioms():
    for field in (GF(2), QQ):
        D = exterior_coalgebra([3], field)
        cs = st.CircleStructure(D, 3, 12)
        carrier = st.cohh_carrier_comodule(cs)
        report = carrier.validate(max_degree=12)
        assert report.ok, str(report)


def test_carrier_coactions_follow_the_comultiplication_of_the_base():
    D = exterior_coalgebra([3], GF(2))
    cs = st.CircleStructure(D, 2, 9)
    carrier = st.cohh_carrier_comodule(cs)
    one = ("h", 0, 0, 0)
    x = ("h", 0, 3, 0)
    assert carrier.left_of(x) == {("1", x): 1, ("x3", one): 1}
    assert carrier.right_of(x) == {(x, "1"): 1, (one, "x3"): 1}
    assert carrier.left_of(one) == {("1", one): 1}


def test_antipode_is_loop_reversal():
    # reversal fixes constant-loop classes and negates each suspension
    # factor, so it acts by (-1)^s on the closed-form basis
    D = exterior_coalgebra([3], QQ)
    cs = st.CircleStructure(D, 3, 12)
    chi = st.cohh_antipode(cs)
    f = QQ
    for lbl in cs.H.classes.degree_of:
        _, s, t, _ = lbl
        assert chi.column(lbl) == {lbl: f.coerce((-1) ** s)}


def test_antipode_is_an_involution_mod_2():
    D = exterior_coalgebra([3, 5], GF(2))
    cs = st.CircleStructure(D, 2, 10)
    chi = st.cohh_antipode(cs)
    f = GF(2)
    square = chi.compose(chi, f)
    assert square.equals(GradedMap.identity(cs.H.classes, f), f)


def test_box_structure_assembles_with_unit_and_counit():
    D = exterior_coalgebra([3], GF(2))
    box, cs, ok = st.cohh_box_structure(D, 3, 12, with_antipode=True)
    assert ok
    f = GF(2)
    one = ("h", 0, 0, 0)
    x = ("h", 0, 3, 0)
    # unit hits the filtration-zero classes, counit reads them back
    assert box.unit.column("1") == {one: 1}
    assert box.unit.column("x3") == {x: 1}
    assert box.counit.column(one) == {"1": 1}
    assert box.counit.column(x) == {"x3": 1}
    assert box.counit.column(("h", 1, 3, 0)) == {}
    assert box.antipode is not None and box.mult is not None
