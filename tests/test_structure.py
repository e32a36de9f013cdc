"""Tests for the Eilenberg-Zilber duals and the (co)product, unit,
counit and antipode assembled on the homology of the circle complex.

Expected values for the exterior coalgebra on one generator come from
the closed form Lambda(x) (x) k[sigma x]: the suspension class sigma x
sits at (s, t) = (1, |x|), its powers multiply freely, and the
coproduct is binomial because sigma x is primitive.
"""

import itertools
from functools import partial

import pytest

from cohh import linalg, structure as st
from cohh.coalgebra import (exterior_coalgebra, polynomial_coalgebra,
                            tensor_coalgebra)
from cohh.comodule import cotensor, pair_defect
from cohh.complexes import (
    CosimplicialModule,
    HomologyTable,
    tensor_words,
    cohh,
    induced_map,
    normalized_complex,
)
from cohh.fields import GF, QQ
from cohh.graded import GradedMap, GradedSpace
from cohh.linalg import Matrix
from cohh.simplicial import circle
from test_complexes import columns_agree
from test_linalg import reduce_and_reeliminate


def mixed_words(mx, p, q, t_max):
    """Every word of the mixed (p, q) level of total degree <= t_max."""
    return [w for w, _ in tensor_words(mx.D, len(mx.level(p, q)), t_max)]


def alternating_sum(op, count, vec, f):
    """sum_i (-1)^i op(i, vec) for 0 <= i < count."""
    out = {}
    for i in range(count):
        for w, v in op(i, vec).items():
            out[w] = out.get(w, 0) + (-1) ** i * v
    return f.canonical(out)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_sh_after_aw_is_identity_on_normalized(field):
    D = exterior_coalgebra([3], field)
    cm = CosimplicialModule(D, circle(), 9)
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
    cm = CosimplicialModule(D, circle(), 9)
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


def sh_by_single_codegeneracies(mx, p, q, vec):
    """The dual shuffle map as the signed composites of single
    codegeneracies, one induced map per sigma_i on one part."""
    f = mx.D.field
    n = p + q
    total = {}
    for mu in itertools.combinations(range(n), p):
        nu = tuple(sorted(set(range(n)) - set(mu)))
        cur = vec
        for k, i in enumerate(reversed(mu)):
            b = n - 1 - k     # sigma_i on the B part: (n, b + 1) -> (n, b)
            sigma = induced_map(
                mx.D, mx.level(n, b), mx.level(n, b + 1),
                lambda s, b=b, i=i: (s if s[0] == "L" else
                                     ("R", mx.B.shape.degeneracy(b, i, s[1]))))
            cur = sigma(cur)
        for k, i in enumerate(reversed(nu)):
            a = n - 1 - k     # sigma_i on the A part: (a + 1, q) -> (a, q)
            sigma = induced_map(
                mx.D, mx.level(a, q), mx.level(a + 1, q),
                lambda s, a=a, i=i: (s if s[0] == "R" else
                                     ("L", mx.A.shape.degeneracy(a, i, s[1]))))
            cur = sigma(cur)
        sign = (-1) ** st.shuffle_sign(mu)
        for w, v in cur.items():
            total[w] = total.get(w, 0) + sign * v
    return f.canonical(total)


def test_sh_map_matches_single_codegeneracy_composites():
    D = exterior_coalgebra([3, 5], GF(3))
    cm = CosimplicialModule(D, circle(), 10)
    mx = st.MixedBicosimplicial(cm, cm)
    f = D.field
    nonzero = 0
    for n in range(3):
        for word in mixed_words(mx, n, n, 10):
            e = {word: f.one}
            for p in range(n + 1):
                got = st.sh_map(mx, p, n - p, e)
                assert got == sh_by_single_codegeneracies(mx, p, n - p, e), \
                    (n, p, word)
                nonzero += bool(got)
    assert nonzero > 100


def test_levelwise_comult_commutes_with_diagonal_cofaces():
    # needs a cocommutative coalgebra, which all our inputs are
    D = exterior_coalgebra([3, 5], QQ)
    cm = CosimplicialModule(D, circle(), 10)
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
                assert lhs == rhs, (n, i, word)


def test_sh_is_a_chain_map_to_the_total_complex():
    D = exterior_coalgebra([3], QQ)
    cm = CosimplicialModule(D, circle(), 9)
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
                        rhs[w] = rhs.get(w, 0) + (-1) ** p * v
                assert lhs == f.canonical(rhs), (n, p, q, word)


@pytest.mark.parametrize("field", [GF(2), QQ])
def test_suspension_powers_multiply_freely(field):
    D = exterior_coalgebra([3], field)
    cs = st.CircleStructure(cohh(D, 3, 12))
    mult, carrier, failed = st.homology_multiplication(cs)
    assert failed == []
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
                nxt[h2] = nxt.get(h2, 0) + c * v
        power = f.canonical(nxt)
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
    cs = st.CircleStructure(cohh(D, 3, 12))
    mult, _, _ = st.homology_multiplication(cs)
    f = field
    sx = ("h", 1, 3, 0)
    powers = {0: {("h", 0, 0, 0): f.one}, 1: {sx: f.one}}
    for q in (2, 3):
        nxt = {}
        for h, c in powers[q - 1].items():
            for h2, v in mult.column((sx, h)).items():
                nxt[h2] = nxt.get(h2, 0) + c * v
        powers[q] = f.canonical(nxt)
    for q in (1, 2, 3):
        (label,) = powers[q]
        scale = powers[q][label]
        expected = {}
        for i in range(q + 1):
            (ha,) = powers[i]
            (hb,) = powers[q - i]
            coeff = math.comb(q, i) * powers[i][ha] * powers[q - i][hb]
            expected[ha, hb] = (expected.get((ha, hb), 0)
                                + f.inv(scale) * coeff)
        expected = f.canonical(expected)
        got = cs.class_coproduct(label)
        assert got == expected, (q, got, expected)


def composite_coproduct(cs, label):
    """The coproduct of a class as the factors give it: the levelwise
    comultiplication, then sh_map one p at a time, split into pairs and
    projected."""
    mx, f = cs.mx, cs.field
    _, n, _, _ = label
    tz = st.levelwise_comult(mx, n, cs.H.rep(label))
    out = {}
    for p in range(n + 1):
        comp = st.sh_map(mx, p, n - p, tz)
        pairs = {mx.split(p, n - p, w): c for w, c in comp.items()}
        for pr, v in cs.pair_classes(pairs).items():
            out[pr] = out.get(pr, 0) + v
    return f.canonical(out)


@pytest.mark.parametrize("degrees, field, s_max, t_max", [
    ([3], GF(2), 4, 16), ([3], GF(3), 4, 16), ([3], QQ, 4, 16),
    ([3, 5], GF(2), 3, 16), ([3, 5], GF(3), 3, 16), (None, GF(3), 3, 12)],
    ids=str)
def test_class_coproduct_equals_sh_after_levelwise_comult(
        degrees, field, s_max, t_max, monkeypatch):
    # None stands for Lambda(x_3) (x) k[w_4] truncated at 12
    D = (exterior_coalgebra(degrees, field) if degrees else tensor_coalgebra(
        exterior_coalgebra([3], field),
        polynomial_coalgebra([4], field, truncation=12)))
    cs = st.CircleStructure(cohh(D, s_max, t_max))
    labels = sorted(cs.H.classes.degree_of, key=lambda l: (l[1], l[2], l[3]))
    expected = {label: composite_coproduct(cs, label) for label in labels}

    def refuse(*args):
        raise AssertionError("class_coproduct called a factor")
    monkeypatch.setattr(st, "sh_map", refuse)
    monkeypatch.setattr(st, "levelwise_comult", refuse)
    made = []
    real = st.induced_map

    def counting(*args):
        made.append(args[1])
        return real(*args)
    monkeypatch.setattr(st, "induced_map", counting)
    assert any(label[1] >= 2 for label in labels)
    for label in labels:
        assert cs.class_coproduct(label) == expected[label], label
    # one map per shuffle, 2^n of them at level n, made once per level
    assert len(made) == sum(2 ** n for n in {label[1] for label in labels})


def test_coproduct_of_exterior_class_is_primitive():
    D = exterior_coalgebra([3], GF(2))
    cs = st.CircleStructure(cohh(D, 3, 12))
    one = ("h", 0, 0, 0)
    x = ("h", 0, 3, 0)
    assert cs.class_coproduct(x) == {(one, x): 1, (x, one): 1}
    assert cs.class_coproduct(one) == {(one, one): 1}


class NotEqualized(Exception):
    """Raised when a tensor is not in the cotensor subspace."""


def defect(cs, terms):
    """rho_r (x) id - id (x) rho_l on a formal sum of word pairs."""
    return pair_defect(terms, partial(st.cochain_right_coaction, cs.D),
                       partial(st.cochain_left_coaction, cs.D), cs.field)


def is_equalized(cs, terms):
    return not defect(cs, terms)


def pair_vec(cs, vec):
    """phi on Tot's coordinates (wa, tail): (rho_r (x) id)(wa (x) tail),
    the base leg of rho_r put in front of the tail, a formal sum on word
    pairs."""
    out = {}
    for (wa, tail), c in vec.items():
        for (wa2, d), v in st.cochain_right_coaction(cs.D, wa).items():
            pr = (wa2, (d,) + tail)
            out[pr] = out.get(pr, 0) + c * v
    return cs.field.canonical(out)


def lift(cs, vec):
    """iota (x) 1 from the coefficient table's coordinates (x, tail) to
    Tot's coordinates (wa, tail): sum c iota(x) (x) tail."""
    out = {}
    for (x, tail), c in vec.items():
        for wa, v in cs.H.rep(x).items():
            out[wa, tail] = out.get((wa, tail), 0) + c * v
    return cs.field.canonical(out)


def tot_delta(cs, vec):
    """Tot's differential less d (x) 1 on coordinates (wa, tail), without
    Tot's column sign (-1)^u: the circle's coface sum on wa[:1] + tail,
    each image word's first label put back in front of wa[1:], signed
    (-1)^((|wa[0]| - |w[0]|) |wa[1:]|)."""
    deg, cc = cs.D.space.degree_of, cs.H.complex
    out = {}
    for (wa, tail), c in vec.items():
        rest = sum(deg[a] for a in wa[1:])
        for w, v in cc.column(len(tail), wa[:1] + tail).items():
            sign = -1 if (deg[wa[0]] - deg[w[0]]) * rest & 1 else 1
            key = (w[:1] + wa[1:], w[1:])
            out[key] = out.get(key, 0) + sign * c * v
    return cs.field.canonical(out)


def product_on_cotensor(cs, terms):
    """The product of an equalized element of the total cotensor of the
    circle cochains with itself, by the counit on the second word's
    first slot, projected to classes.

    terms: {(wordA, wordB): coeff} with len(wordA) + len(wordB)
    constant.  Returns a formal sum of homology classes.  Raises
    NotEqualized if the element fails the equalizer condition.
    """
    f = cs.field
    if not terms:
        return {}
    if not is_equalized(cs, terms):
        raise NotEqualized("input is not in the cotensor subspace")
    total = {}
    for (wa, wb), c in terms.items():
        n = len(wa) + len(wb) - 2
        t = st.word_degree(cs.D, wa) + st.word_degree(cs.D, wb)
        e = cs.D.counit_of(wb[0])
        if e:
            w = wa + wb[1:]
            total[w] = total.get(w, 0) + c * e
    total = f.canonical(total)
    if not total:
        return {}
    return cs.proj.project(n, t, total)


def test_product_on_cotensor_matches_the_assembled_multiplication():
    D = exterior_coalgebra([3], GF(2))
    cs = st.CircleStructure(cohh(D, 3, 12))
    H = cs.H
    z1 = H.rep(("h", 1, 3, 0))
    z2 = H.rep(("h", 2, 6, 0))
    terms = {}
    for wa, va in z1.items():
        for wb, vb in z2.items():
            terms[(wa, wb)] = cs.field.mul(va, vb)
    assert is_equalized(cs, terms)
    assert product_on_cotensor(cs, terms) == {("h", 3, 9, 0): 1}


def test_product_refuses_non_equalized_input():
    D = exterior_coalgebra([3], GF(2))
    cs = st.CircleStructure(cohh(D, 2, 9))
    bad = {(("x3",), ("x3",)): cs.field.one}
    assert not is_equalized(cs, bad)
    with pytest.raises(NotEqualized):
        product_on_cotensor(cs, bad)


def complete_basis(vecs, n, f):
    """vecs, linearly independent, then the unit vectors {j: 1}, j < n,
    not in the span of the vectors before them: a basis of F^n."""
    rows, pivots, out = [], [], []
    units = ({j: f.one} for j in range(n))
    for k, vec in enumerate(itertools.chain(vecs, units)):
        red = linalg.reduce_mod_span(vec, rows, pivots, f)
        if red:
            pc = min(red)
            inv = f.inv(red[pc])
            rows.append({j: f.mul(inv, v) for j, v in red.items()})
            pivots.append(pc)
            out.append(vec)
        else:
            assert k >= len(vecs), "the vectors are dependent"
    return out


def complete_basis_extension(mult, cot, s_max, f):
    """The extension of mult off the cotensor that completes each
    filtration block's cotensor basis with unit vectors and sends those
    to zero, solved for every pair of the block."""
    out = GradedMap(mult.source, mult.target)
    for vecs in cot.values():
        blocks: dict = {}
        for vec in vecs:
            (n,) = {la[1] + lb[1] for la, lb in vec}
            blocks.setdefault(n, []).append(vec)
        for n, block in blocks.items():
            if n > s_max:
                continue
            pairs = sorted({pr for vec in block for pr in vec}, key=repr)
            idx = {pr: i for i, pr in enumerate(pairs)}
            basis = complete_basis(
                [{idx[pr]: v for pr, v in vec.items()} for vec in block],
                len(pairs), f)
            values = [mult.apply(vec, f) for vec in block]
            sols = linalg.solve(Matrix.from_columns(basis, len(pairs)),
                                [{i: f.one} for i in range(len(pairs))], f)
            for pr, sol in zip(pairs, sols):
                col: dict = {}
                for j, c in sol.items():
                    for h, v in (values[j] if j < len(values) else {}).items():
                        col[h] = col.get(h, 0) + c * v
                out.set_column(pr, f.canonical(col))
    return out


@pytest.mark.parametrize("degrees, field, s_max, t_max", [
    ([3], GF(3), 4, 16), ([3], GF(2), 4, 16), ([3], QQ, 4, 16),
    ([3, 5], GF(2), 3, 16), ([3, 5], GF(3), 3, 16), ([3, 5], QQ, 3, 16),
    (None, GF(3), 3, 12)])
def test_multiplication_is_the_complete_basis_extension(degrees, field,
                                                        s_max, t_max):
    # None stands for Lambda(x_3) (x) k[w_4] truncated at 12
    D = (exterior_coalgebra(degrees, field) if degrees else tensor_coalgebra(
        exterior_coalgebra([3], field),
        polynomial_coalgebra([4], field, truncation=12)))
    cs = st.CircleStructure(cohh(D, s_max, t_max))
    mult, carrier, failed = st.homology_multiplication(cs)
    assert failed == []
    f = field
    # each class of the coefficient table lifts to a cotensor cocycle, on
    # whose Kuenneth class mult is the cochain product
    table = st.coefficient_table(cs, carrier)
    assert table.dims()
    for label in table.classes.degree_of:
        z = pair_vec(cs, lift(cs, table.rep(label)))
        assert z and not pair_differential(cs, z) and not defect(cs, z)
        assert mult.apply(cs.pair_classes(z), f) == product_on_cotensor(cs, z)
    extension = complete_basis_extension(
        mult, cotensor(carrier, carrier, t_max), s_max, f)
    assert columns_agree(extension, mult, f)


@pytest.mark.parametrize("degrees, field, s_max, t_max", [
    ([3, 5], GF(3), 3, 16), ([3, 5], QQ, 3, 16), ([3], GF(2), 4, 16),
    (None, GF(3), 3, 12)])
def test_cotensor_coordinates_span_the_equalizer(degrees, field, s_max,
                                                 t_max):
    # None stands for Lambda(x_3) (x) k[w_4] truncated at 12
    D = (exterior_coalgebra(degrees, field) if degrees else tensor_coalgebra(
        exterior_coalgebra([3], field),
        polynomial_coalgebra([4], field, truncation=12)))
    cs = st.CircleStructure(cohh(D, s_max, t_max))
    coordinates = tot_coordinates(cs)
    terms = cs.H.complex.terms
    blocks = 0
    for n in range(s_max + 2):
        for t in range(t_max + 1):
            # the elimination the closed form replaces: the kernel of
            # rho_r (x) id - id (x) rho_l over every word pair
            pairs = [(wa, wb) for u in range(n + 1)
                     for wa, ta in terms[u].degree_of.items()
                     for wb in terms[n - u].labels(t - ta)]
            kernel = linalg.kernel_of(
                {p: defect(cs, {p: field.one}) for p in pairs}, field)
            images = [pair_vec(cs, {x: field.one})
                      for x in coordinates(n, t)]
            assert len(images) == len(kernel), (n, t)
            if images:
                # independent, and together with the kernel of rank no
                # more than the kernel's: the same subspace
                assert linalg.rank(linalg.keyed_matrix(images),
                                   field) == len(images), (n, t)
                assert linalg.rank(linalg.keyed_matrix(images + kernel),
                                   field) == len(kernel), (n, t)
                blocks += 1
    assert blocks > 10, blocks


def pair_differential(cs, vec):
    """D = d (x) 1 + (-1)^u 1 (x) d, the total differential of the
    circle complex with itself, on a formal sum of word pairs (wa, wb),
    wa of level u."""
    f, cc = cs.field, cs.H.complex
    out = {}
    for (la, lb), c in vec.items():
        u = len(la) - 1
        for la2, v in cc.column(u, la).items():
            out[la2, lb] = out.get((la2, lb), 0) + c * v
        sgn = (-1) ** u
        for lb2, v in cc.column(len(lb) - 1, lb).items():
            out[la, lb2] = out.get((la, lb2), 0) + c * sgn * v
    return f.canonical(out)


def tot_coordinates(cs):
    """Tot(N box_D N)'s coordinates (wa, tail) at (n, t), in (u, deg wa,
    tail, wa) order, as a function block(n, t): wa a word of N^u, tail a
    word of N^(n - u) whose slot 0 holds the coaugmentation, with that
    slot dropped (N^u box_D N^v = N^u (x) Dbar^(x)v)."""
    words = cs.H.complex.terms
    tails = [{t: [w[1:] for w in term.labels(t) if w[0] == cs.D.coaug]
              for t in term.degrees()} for term in words]

    def block(n, t):
        return [(wa, tail) for u in range(n + 1) for ta in words[u].degrees()
                for tail in tails[n - u].get(t - ta, ())
                for wa in words[u].labels(ta)]
    return block


def per_block_cotensor_homology(cs):
    """The cotensor complex's homology by its own per-block loop: the
    tot_coordinates blocks, psi D phi as a Matrix from block (n, t) to
    block (n + 1, t), and the reduce-every-cycle oracle on every nonempty
    block.  Returns {(n, t): (coordinates, dim, representatives on the
    coordinates)}."""
    D, f, H = cs.D, cs.field, cs.H
    block = tot_coordinates(cs)

    def diff_matrix(cur, nxt):
        index = {x: i for i, x in enumerate(nxt)}
        cols = []
        for wa, tail in cur:
            img = pair_differential(cs, {
                (la, (d,) + tail): c for (la, d), c
                in st.cochain_right_coaction(D, wa).items()})
            col = {}
            for (la, lb), v in img.items():
                if D.counit_of(lb[0]):
                    i = index[(la, lb[1:])]
                    col[i] = col.get(i, 0) + v * D.counit_of(lb[0])
            cols.append(f.canonical(col))
        return Matrix.from_columns(cols, len(nxt))

    out = {}
    for t in range(H.t_max + 1):
        cur = block(0, t)
        d_in = Matrix(len(cur), 0)
        for n in range(H.s_max + 1):
            nxt = block(n + 1, t)
            d_out = diff_matrix(cur, nxt)
            if cur:
                dim, reps, _ = reduce_and_reeliminate(d_out, d_in, f)
                out[(n, t)] = (cur, dim, [{cur[j]: v for j, v in r.items()}
                                          for r in reps])
            d_in, cur = d_out, nxt
    return out


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
@pytest.mark.parametrize("degrees, s_max, t_max", [
    ([3], 4, 16), ([3, 5], 3, 16), (None, 3, 12)])
def test_cotensor_homology_table_matches_the_per_block_loop(degrees, s_max,
                                                            t_max, field):
    # None stands for Lambda(x_3) (x) k[w_4] truncated at 12
    D = (exterior_coalgebra(degrees, field) if degrees else tensor_coalgebra(
        exterior_coalgebra([3], field),
        polynomial_coalgebra([4], field, truncation=12)))
    assert_cotensor_homology_matches_the_per_block_loop(D, s_max, t_max)


@pytest.mark.parametrize("D, s_max, t_max", [
    (polynomial_coalgebra([2], GF(3), truncation=8), 4, 8),
    # -1 is p - 1 here, not a small int
    (exterior_coalgebra([3, 5], GF(2**61 - 1)), 3, 16)],
    ids=["k[w2]<=8-F_3", "Lambda(3,5)-F_(2**61-1)"])
def test_cotensor_homology_matches_the_per_block_loop_on_more_coalgebras(
        D, s_max, t_max):
    assert_cotensor_homology_matches_the_per_block_loop(D, s_max, t_max)


def assert_cotensor_homology_matches_the_per_block_loop(D, s_max, t_max):
    cs = st.CircleStructure(cohh(D, s_max, t_max))
    table = st.coefficient_table(cs, st.cohh_carrier_comodule(cs))
    oracle = per_block_cotensor_homology(cs)
    assert table.dims() == {nt: dim for nt, (_, dim, _) in oracle.items()
                            if dim}
    assert max(dim for _, dim, _ in oracle.values()) > 1


@pytest.mark.parametrize("degrees, field, s_max, t_max", [
    ([3, 5], GF(3), 4, 20), ([3, 5], QQ, 4, 20), (None, GF(3), 3, 12)])
def test_every_coefficient_column_is_the_transferred_cotensor_column(
        degrees, field, s_max, t_max):
    # each column is (pi (x) 1) delta (iota (x) 1), with delta Tot's
    # differential less d (x) 1 read off the circle's coface sum, and
    # delta (iota (x) 1) is iota (x) 1 of it: h delta iota = 0
    # None stands for Lambda(x_3) (x) k[w_4] truncated at 12
    D = (exterior_coalgebra(degrees, field) if degrees else tensor_coalgebra(
        exterior_coalgebra([3], field),
        polynomial_coalgebra([4], field, truncation=12)))
    cs = st.CircleStructure(cohh(D, s_max, t_max))
    cc = st.coefficient_table(cs, st.cohh_carrier_comodule(cs)).complex
    inner = 0
    for n in range(s_max + 1):
        for t, cols in cc.diff[n].items():
            labels = cc.terms[n + 1].labels(t)
            for (x, tail), col in zip(cc.terms[n].labels(t), cols):
                image = {labels[i]: v for i, v in col.items()}
                delta = tot_delta(cs, lift(cs, {(x, tail): field.one}))
                assert image == cs.classes_of(delta, 0), (x, tail)
                assert lift(cs, image) == delta, (x, tail)
                inner += x[1] > 0 and bool(tail)
    assert inner > 20, inner


def test_the_cotensor_walk_opens_only_nonempty_circle_levels(monkeypatch):
    # Lambda(x_3) at t <= 5 has circle levels 0 and 1 only, so at s_max
    # 200 a walk over every u <= n, for every n and t, opens a level's
    # degree list about 6 * 203 * 202 / 2 times; one over the nonempty
    # levels, some 24 times, besides the one reading per term
    D = exterior_coalgebra([3], GF(2))
    small = st.CircleStructure(cohh(D, 2, 5))
    want = st.coefficient_table(small, st.cohh_carrier_comodule(small)).dims()
    cs = st.CircleStructure(cohh(D, 200, 5))
    carrier = st.cohh_carrier_comodule(cs)
    opened = []
    degrees = GradedSpace.degrees

    class Counted(list):
        def __iter__(self):
            opened.append(1)
            return super().__iter__()

    monkeypatch.setattr(GradedSpace, "degrees",
                        lambda self: Counted(degrees(self)))
    table = st.coefficient_table(cs, carrier)
    assert len(opened) <= 3 * (200 + 2), len(opened)
    assert table.dims() == want


def test_coefficient_table_refuses_a_flipped_right_coaction(monkeypatch):
    D = exterior_coalgebra([3, 5], QQ)
    cs = st.CircleStructure(cohh(D, 2, 12))
    right = st.cochain_right_coaction

    def flipped(D, word):
        # one sign of rho_r(x3): the carrier is no longer a bicomodule
        return {(w, d): (-v if d == "x3" and word == ("x3",) else v)
                for (w, d), v in right(D, word).items()}

    monkeypatch.setattr(st, "cochain_right_coaction", flipped)
    with pytest.raises(AssertionError, match="nonzero"):
        st.coefficient_table(cs, st.cohh_carrier_comodule(cs))


def test_coefficient_table_refuses_an_image_outside_the_next_block(
        monkeypatch):
    D = exterior_coalgebra([3], QQ)
    cs = st.CircleStructure(cohh(D, 2, 9))
    carrier = st.cohh_carrier_comodule(cs)
    cc = cs.H.complex
    column = cc.column

    def leaky(s, word):
        # word with the coaugmentation appended is degenerate: no
        # coordinate holds it
        return {**column(s, word), word + (D.coaug,): 1}

    monkeypatch.setattr(cc, "column", leaky)
    with pytest.raises(AssertionError,
                       match="differential left the next coordinate block"):
        st.coefficient_table(cs, carrier)


def test_coefficient_table_checks_every_block():
    # doubling one entry (x, y) of d^1 whose target y has d^2(y) != 0
    # makes d^2 d^1 nonzero on x
    D = exterior_coalgebra([3, 5], QQ)
    cs = st.CircleStructure(cohh(D, 3, 12))
    table = st.coefficient_table(cs, st.cohh_carrier_comodule(cs))
    cc = table.complex
    col, i = next((col, i) for t, cols in cc.diff[1].items() for col in cols
                  for i in col if cc.diff[2][t][i])
    col[i] *= 2
    with pytest.raises(AssertionError, match="nonzero"):
        HomologyTable(cc, table.s_max, table.t_max)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_carrier_refuses_representatives_that_span_no_sub_bicomodule(
        field, monkeypatch):
    # each representative plus a boundary is still a representative, but
    # the coaction of the boundary leaves the span of the new ones, so
    # the transfer behind coefficient_table would need h delta iota
    H = cohh(exterior_coalgebra([3, 5], field), 3, 16)
    cc = H.complex
    rep = H.rep

    def moved(label):
        _, s, t, _ = label
        boundary = next((cc.column(s - 1, w) for w in
                         cc.terms[s - 1].labels(t) if s), {})
        return field.canonical({w: rep(label).get(w, 0) + boundary.get(w, 0)
                                for w in {**rep(label), **boundary}})

    monkeypatch.setattr(H, "rep", moved)
    with pytest.raises(AssertionError,
                       match="leaves the span of the representatives"):
        st.cohh_box_structure(H)


def test_pair_classes_refuses_a_word_outside_the_normalized_terms():
    D = exterior_coalgebra([3], GF(2))
    cs = st.CircleStructure(cohh(D, 2, 9))
    # the coaugmentation in slot 1 makes ("x3", "1") degenerate, so it is
    # no word of the normalized level-1 term, although (1, 3) has a class
    assert cs.H.dim(1, 3) == 1
    with pytest.raises(linalg.NoSolution):
        cs.pair_classes({(("x3", "1"), ("x3",)): cs.field.one})


def test_projector_refuses_a_word_outside_the_normalized_terms():
    D = exterior_coalgebra([3], GF(2))
    cs = st.CircleStructure(cohh(D, 2, 9))
    assert cs.proj.project(1, 3, {("1", "x3"): 1}) == {("h", 1, 3, 0): 1}
    with pytest.raises(linalg.NoSolution):
        cs.proj.project(1, 3, {("x3", "1"): 1})


def grouped_pair_classes(cs, vec):
    """(pi (x) pi) by its own loop: group the pairs by (level and degree
    of wa, wb) and tensor the class coordinates of the two words."""
    f, H = cs.field, cs.H
    deg = cs.D.space.degree_of
    groups = {}
    for (wa, wb), c in vec.items():
        key = (len(wa) - 1, sum(deg[x] for x in wa), wb)
        groups.setdefault(key, {})[wa] = c
    out = {}
    for (u, ta, wb), avec in groups.items():
        ca = H.class_coords(u, ta, avec)
        if not ca:
            continue
        cb = H.class_coords(len(wb) - 1, sum(deg[x] for x in wb),
                            {wb: f.one})
        for hA, va in ca.items():
            for hB, vb in cb.items():
                out[hA, hB] = out.get((hA, hB), 0) + va * vb
    return f.canonical(out)


def grouped_carrier_coactions(cs):
    """The carrier's (left, right) coaction tables by their own loop: for
    each class, the basepoint coactions of its representative grouped by
    the base label d, each group projected to classes."""
    f, H, D = cs.field, cs.H, cs.D
    left, right = {}, {}
    for lbl in H.classes.degree_of:
        _, s, t, _ = lbl
        lgroups, rgroups = {}, {}
        for word, c in H.rep(lbl).items():
            for (d, w2), v in st.cochain_left_coaction(D, word).items():
                group = lgroups.setdefault(d, {})
                group[w2] = group.get(w2, 0) + c * v
            for (w2, d), v in st.cochain_right_coaction(D, word).items():
                group = rgroups.setdefault(d, {})
                group[w2] = group.get(w2, 0) + c * v
        left[lbl] = {(d, h): v for d, wvec in lgroups.items()
                     for h, v in H.class_coords(
                         s, t - D.degree(d), f.canonical(wvec)).items()}
        right[lbl] = {(h, d): v for d, wvec in rgroups.items()
                      for h, v in H.class_coords(
                          s, t - D.degree(d), f.canonical(wvec)).items()}
    return left, right


PROJECTION_CASES = [
    ([3], GF(2), 4, 16), ([3], GF(3), 4, 16), ([3], QQ, 4, 16),
    ([3, 5], GF(2), 3, 16), (None, GF(3), 3, 12)]


def projection_case(degrees, field, s_max, t_max):
    # None stands for Lambda(x_3) (x) k[w_4] truncated at 12
    D = (exterior_coalgebra(degrees, field) if degrees else tensor_coalgebra(
        exterior_coalgebra([3], field),
        polynomial_coalgebra([4], field, truncation=12)))
    return cohh(D, s_max, t_max)


@pytest.mark.parametrize("degrees, field, s_max, t_max", PROJECTION_CASES,
                         ids=str)
def test_pair_classes_matches_the_grouped_loop(degrees, field, s_max, t_max,
                                               monkeypatch):
    cs = st.CircleStructure(projection_case(degrees, field, s_max, t_max))
    seen = []
    pair_classes = cs.pair_classes

    def recorded(vec):
        seen.append(vec)
        return pair_classes(vec)

    monkeypatch.setattr(cs, "pair_classes", recorded)
    for label in cs.H.classes.degree_of:
        cs.class_coproduct(label)
    table = st.coefficient_table(cs, st.cohh_carrier_comodule(cs))
    seen += [pair_vec(cs, lift(cs, table.rep(label)))
             for label in table.classes.degree_of]
    assert sum(map(bool, seen)) > 10
    for vec in seen:
        assert pair_classes(vec) == grouped_pair_classes(cs, vec), vec


@pytest.mark.parametrize("degrees, field, s_max, t_max", PROJECTION_CASES,
                         ids=str)
def test_carrier_coactions_match_the_grouped_loop(degrees, field, s_max,
                                                  t_max):
    cs = st.CircleStructure(projection_case(degrees, field, s_max, t_max))
    carrier = st.cohh_carrier_comodule(cs)
    left, right = grouped_carrier_coactions(cs)
    assert carrier.left == left
    assert carrier.right == right


def test_classes_of_projects_once_per_group(monkeypatch):
    cs = st.CircleStructure(cohh(exterior_coalgebra([3, 5], GF(3)), 3, 16))
    table = st.coefficient_table(cs, st.cohh_carrier_comodule(cs))
    calls = []
    project = st.AmbientProjector.project

    def counted(self, s, t, vec):
        calls.append((s, t))
        return project(self, s, t, vec)

    monkeypatch.setattr(st.AmbientProjector, "project", counted)
    deg = cs.D.space.degree_of
    checked = 0
    for label in table.classes.degree_of:
        pairs = pair_vec(cs, lift(cs, table.rep(label)))
        # a third leg, the base label of the first word's slot 0, so the
        # middle leg has legs on both sides
        triples = {(wa[0], wa, wb): c for (wa, wb), c in pairs.items()}
        for vec, leg in ((pairs, 0), (pairs, 1), (triples, 1)):
            groups = {(key[:leg], key[leg + 1:], len(key[leg]),
                       sum(deg[x] for x in key[leg])) for key in vec}
            calls.clear()
            cs.classes_of(vec, leg)
            assert len(calls) == len(groups), (label, leg)
            checked += len(groups) > 1
    assert checked > 10, checked


@pytest.mark.parametrize("degrees, field, s_max, t_max", PROJECTION_CASES,
                         ids=str)
def test_box_comultiplication_lands_in_the_multiplication_source(
        degrees, field, s_max, t_max):
    box, _, failed = st.cohh_box_structure(
        projection_case(degrees, field, s_max, t_max))
    assert failed == []
    assert box.comult.target is box.mult.source
    pairs = [pr for col in box.comult.columns.values() for pr in col]
    assert len(pairs) > 10
    assert all(pr in box.comult.target for pr in pairs)


def assert_blocks_match_reducing_every_cycle(H):
    """Every block of H with classes: its representatives, and the
    boundary rows the first class_coords builds, equal the oracle's;
    a block without classes keeps no cleared set."""
    cc, f = H.complex, H.field
    nonzero = 0
    for (s, t), bd in sorted(H.data.items()):
        if not bd.dim:
            assert bd.cleared is None, (s, t)
            continue
        d_out = Matrix.from_columns(cc.diff[s][t], cc.terms[s + 1].dim(t))
        d_in = Matrix.from_columns(cc.diff[s - 1].get(t, []) if s else [],
                                   cc.terms[s].dim(t))
        dim, reps, bnd = reduce_and_reeliminate(d_out, d_in, f)
        labels = cc.terms[s].labels(t)
        assert [H.rep(("h", s, t, k)) for k in range(bd.dim)] == [
            {labels[j]: v for j, v in r.items()} for r in reps], (s, t)
        assert bd.boundary is None
        assert H.class_coords(s, t, H.rep(("h", s, t, 0))) == {
            ("h", s, t, 0): 1}
        assert bd.boundary[0] == bnd, (s, t)
        nonzero += 1
    return nonzero


@pytest.mark.parametrize("case, field, s_max, t_max", [
    ("Lambda(3,5)", GF(2), 4, 20), ("Lambda(3,5)", GF(3), 4, 20),
    ("Lambda(3,5)", QQ, 4, 20), ("Lambda(3)(x)k[w4]", GF(2), 4, 12),
    ("Lambda(3)(x)k[w4]", GF(3), 4, 12), ("Lambda(3)(x)k[w4]", QQ, 4, 12),
    ("k[w2]", GF(3), 4, 10)], ids=str)
def test_both_tables_match_reducing_every_cycle(case, field, s_max, t_max):
    D = {"Lambda(3,5)": lambda: exterior_coalgebra([3, 5], field),
         "Lambda(3)(x)k[w4]": lambda: tensor_coalgebra(
             exterior_coalgebra([3], field),
             polynomial_coalgebra([4], field, truncation=12)),
         "k[w2]": lambda: polynomial_coalgebra([2], field, truncation=10),
         }[case]()
    cs = st.CircleStructure(cohh(D, s_max, t_max))
    # the circle table first: the carrier builds its boundary rows
    assert assert_blocks_match_reducing_every_cycle(cs.H) > 5
    table = st.coefficient_table(cs, st.cohh_carrier_comodule(cs))
    assert assert_blocks_match_reducing_every_cycle(table) > 5


def test_the_coefficient_table_builds_no_boundary_rows(monkeypatch):
    built = []
    coefficient_table = st.coefficient_table

    def recorded(cs, carrier):
        built.append(coefficient_table(cs, carrier))
        return built[-1]

    monkeypatch.setattr(st, "coefficient_table", recorded)
    st.cohh_box_structure(cohh(exterior_coalgebra([3, 5], GF(2)), 4, 20))
    (table,) = built
    assert any(bd.rep_vectors for bd in table.data.values())
    assert all(bd.boundary is None for bd in table.data.values())


def test_carrier_comodule_satisfies_the_comodule_axioms():
    for field in (GF(2), QQ):
        D = exterior_coalgebra([3], field)
        cs = st.CircleStructure(cohh(D, 3, 12))
        carrier = st.cohh_carrier_comodule(cs)
        report = carrier.validate()
        assert report.ok, str(report)


def test_carrier_coactions_follow_the_comultiplication_of_the_base():
    D = exterior_coalgebra([3], GF(2))
    cs = st.CircleStructure(cohh(D, 2, 9))
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
    cs = st.CircleStructure(cohh(D, 3, 12))
    chi = st.cohh_antipode(cs)
    f = QQ
    for lbl in cs.H.classes.degree_of:
        _, s, t, _ = lbl
        assert chi.column(lbl) == {lbl: f.coerce((-1) ** s)}


def test_antipode_is_an_involution_mod_2():
    D = exterior_coalgebra([3, 5], GF(2))
    cs = st.CircleStructure(cohh(D, 2, 10))
    chi = st.cohh_antipode(cs)
    f = GF(2)
    square = chi.compose(chi, f)
    assert columns_agree(square, GradedMap.identity(cs.H.classes, f), f)


def test_box_structure_assembles_with_unit_and_counit():
    D = exterior_coalgebra([3], GF(2))
    box, cs, failed = st.cohh_box_structure(cohh(D, 3, 12))
    assert failed == []
    box.antipode = st.cohh_antipode(cs)
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


def fail_kuenneth_at(monkeypatch, block):
    """Make the solve homology_multiplication runs for the cotensor
    block (n, t) raise NoSolution, as if the Kuenneth comparison failed
    there; every other solve runs as before."""
    solve = linalg.keyed_solve

    def faulty(columns, targets, field):
        if {(a[1] + b[1], a[2] + b[2])
                for vec in targets for a, b in vec} == {block}:
            raise linalg.NoSolution
        return solve(columns, targets, field)
    monkeypatch.setattr(linalg, "keyed_solve", faulty)


def test_box_structure_names_the_block_where_kuenneth_fails(monkeypatch):
    H = cohh(exterior_coalgebra([3], GF(3)), 3, 9)
    fail_kuenneth_at(monkeypatch, (1, 6))
    _, _, failed = st.cohh_box_structure(H)
    assert failed == [(1, 6)]
