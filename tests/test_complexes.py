import copy
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cohh import linalg
from cohh.coalgebra import (
    GradedCoalgebra,
    exterior_coalgebra,
    polynomial_coalgebra,
    table_coalgebra,
    tensor_coalgebra,
    trivial_coalgebra,
    validate,
)
from cohh.comodule import (
    cobar_cotor,
    cobar_differential,
    cobar_level_space,
    trivial_comodule,
)
from cohh.complexes import (
    CochainComplex,
    CosimplicialModule,
    HomologyTable,
    _word_image,
    cohh,
    compare_by_induced_map,
    normalized_complex,
    tensor_words,
    unnormalized_complex,
)
from cohh.fields import GF, QQ, FieldSpec
from cohh.graded import GradedMap, GradedSpace
from cohh.linalg import Matrix
from cohh.simplicial import (
    GraphSimplicialSet,
    SimplicialMap,
    circle,
    collapse_subdivided,
    double_edge_circle,
    point,
    subdivided_circle,
    wedge_of_circles,
)
from test_linalg import reduce_and_reeliminate


def explicit_coface(D, n, i, source, target):
    """The textbook coface on D^{(x) n+1}: Delta at slot i for i <= n,
    rotation with Koszul sign for i = n+1.  Valid comparison point for
    cocommutative D (the engine's canonical ordering agrees there)."""
    f = D.field
    out = GradedMap(source, target)
    for word in source.degree_of:
        col = {}
        if i <= n:
            for (a, b), v in D.comult_of(word[i]).items():
                w = word[:i] + (a, b) + word[i + 1:]
                col[w] = col.get(w, 0) + v
        else:
            t_rest = sum(D.degree(x) for x in word[1:])
            for (a, b), v in D.comult_of(word[0]).items():
                sign = (-1) ** (D.degree(a) * (D.degree(b) + t_rest))
                w = (b,) + word[1:] + (a,)
                col[w] = col.get(w, 0) + v * sign
        out.set_column(word, f.canonical(col))
    return out


def columns_agree(a: GradedMap, b: GradedMap, f) -> bool:
    """Whether two maps have the same canonical column at every source
    label either of them sets."""
    return all(f.canonical(a.column(label)) == f.canonical(b.column(label))
               for label in a.columns.keys() | b.columns.keys())


@pytest.mark.parametrize("D", [
    exterior_coalgebra([3, 5], QQ),
    polynomial_coalgebra([2], GF(3), truncation=8),
])
def test_cofaces_match_explicit_formula_for_cocommutative(D):
    cm = CosimplicialModule(D, circle(), 8)
    for n in (0, 1, 2):
        for i in range(n + 2):
            got = cm.coface(n, i)
            want = explicit_coface(D, n, i, cm.space(n), cm.space(n + 1))
            assert columns_agree(got, want, D.field), (n, i)


def test_cosimplicial_cocodegeneracy_relations():
    D = exterior_coalgebra([3], GF(2))
    cm = CosimplicialModule(D, circle(), 9)
    f = D.field
    # sigma_j delta_j = id = sigma_j delta_{j+1}
    for n in (0, 1, 2):
        for j in range(n + 1):
            ident = GradedMap.identity(cm.space(n), f)
            for face in (j, j + 1):
                composite = cm.codegeneracy(n, j).compose(
                    cm.coface(n, face), f)
                assert columns_agree(composite, ident, f)


def block_square(cc, s):
    """The nonzero columns of d_{s+1} d_s, composed block by block: each
    column of block (s, t) is a sum of columns of block (s + 1, t)."""
    f = cc.field
    out = []
    for t, cols in cc.diff[s].items():
        nxt = cc.diff[s + 1].get(t, [])
        for col in cols:
            acc: dict = {}
            for i, v in col.items():
                for k, w in nxt[i].items():
                    acc[k] = acc.get(k, 0) + v * w
            acc = f.canonical(acc)
            if acc:
                out.append(acc)
    return out


def word_map(cc, s):
    """d_s of cc as a word-keyed GradedMap, read through column."""
    return GradedMap(cc.terms[s], cc.terms[s + 1],
                     {w: cc.column(s, w) for w in cc.terms[s].degree_of})


@pytest.mark.parametrize("D", [
    exterior_coalgebra([3, 5], GF(2)),
    exterior_coalgebra([3], QQ),
])
def test_differential_squares_to_zero(D):
    cc = unnormalized_complex(
        CosimplicialModule(D, circle(), 10), 2)
    for n in (0, 1):
        assert block_square(cc, n) == [], n


def test_normalized_differential_squares_to_zero():
    D = exterior_coalgebra([3, 5], GF(3))
    cm = CosimplicialModule(D, circle(), 12)
    cc = normalized_complex(cm, 3)
    for s in range(3):
        assert block_square(cc, s) == [], s


def test_normalized_terms_for_one_exterior_generator():
    # N^q of Lambda(x_3) is spanned by 1 (x) x^q and x (x) x^q, and the
    # differential vanishes on it.
    D = exterior_coalgebra([3], QQ)
    cm = CosimplicialModule(D, circle(), 15)
    cc = normalized_complex(cm, 4)
    for s in range(5):
        dims = {t: cc.terms[s].dim(t) for t in cc.terms[s].degrees()
                if cc.terms[s].dim(t)}
        want = {3 * s: 1}
        if 3 * s + 3 <= 15:
            want[3 * s + 3] = 1
        assert dims == want, s
        assert all(not col for cols in cc.diff[s].values() for col in cols)


COALGEBRAS = {
    "Lambda(3,5)": lambda f: exterior_coalgebra([3, 5], f),
    "k[w2]": lambda f: polynomial_coalgebra([2], f, truncation=8),
    "Lambda(3)(x)k[w4]": lambda f: tensor_coalgebra(
        exterior_coalgebra([3], f), polynomial_coalgebra([4], f, truncation=8)),
}


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
@pytest.mark.parametrize("coalgebra", sorted(COALGEBRAS))
@pytest.mark.parametrize("shape", [circle, subdivided_circle,
                                   double_edge_circle])
def test_normalized_words_are_the_codegeneracy_kernels(shape, coalgebra,
                                                       field):
    D = COALGEBRAS[coalgebra](field)
    s_max, t_max = 2, 8
    cm = CosimplicialModule(D, shape(), t_max)
    cc = normalized_complex(cm, s_max)
    for s in range(1, s_max + 2):
        sigmas = [cm.codegeneracy(s - 1, i) for i in range(s)]
        for t in cm.space(s).degrees():
            # the stacked-kernel construction the direct one replaces
            stacked = Matrix.from_rows(
                [row for sg in sigmas for row in sg.matrix(t).rows],
                cm.space(s).dim(t))
            kernel = linalg.kernel_basis(stacked, field)
            assert cc.terms[s].dim(t) == len(kernel), (s, t)
        for word in cc.terms[s].degree_of:
            assert not any(sg.column(word) for sg in sigmas), word
    ambient = unnormalized_complex(cm, s_max)
    for s in range(s_max + 1):
        for word in cc.terms[s].degree_of:
            image = ambient.column(s, word)
            assert set(image) <= set(cc.terms[s + 1].degree_of), word


def normalized_words(cm, s):
    """The (word, degree) of ambient level s, in order, with a
    non-coaugmentation label in some slot that each codegeneracy into
    level s - 1 deletes."""
    missing = cm.missing_slots(s - 1) if s else []
    return [(word, t) for word, t in cm.space(s).degree_of.items()
            if all(any(word[k] != cm.D.coaug for k in slots)
                   for slots in missing)]


def assert_ends_at_its_first_empty_term(cc, s_max):
    """cc has a term for each s <= s_max + 1, or ends at its first empty
    one, with a block for each term but the last."""
    assert all(term.degree_of for term in cc.terms[:-1])
    assert len(cc.terms) == s_max + 2 or not cc.terms[-1].degree_of
    assert len(cc.diff) == len(cc.terms) - 1


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
@pytest.mark.parametrize("coalgebra", sorted(COALGEBRAS))
@pytest.mark.parametrize("shape", [circle, subdivided_circle,
                                   double_edge_circle, wedge_of_circles,
                                   point])
def test_generated_terms_and_cut_off_cofaces_match_the_ambient_ones(
        shape, coalgebra, field):
    # the terms are the ambient words filtered by the codegeneracy
    # kernels, in the same order, up to the first empty one, every
    # ambient level past it filters to no word, and each differential
    # column is the ambient one restricted to the terms
    D = COALGEBRAS[coalgebra](field)
    s_max, t_max = 2, 8
    cm = CosimplicialModule(D, shape(), t_max)
    cc = normalized_complex(cm, s_max)
    assert_ends_at_its_first_empty_term(cc, s_max)
    for s in range(s_max + 2):
        want = normalized_words(cm, s)
        if s >= len(cc.terms):
            assert want == [], s
            continue
        assert list(cc.terms[s].degree_of.items()) == want, s
        for t in cm.space(s).degrees():
            assert cc.terms[s].labels(t) == [w for w, d in want if d == t]
    ambient = unnormalized_complex(cm, s_max)
    for s in range(len(cc.diff)):
        for word in cc.terms[s].degree_of:
            want = {w: v for w, v in ambient.column(s, word).items()
                    if w in cc.terms[s + 1]}
            assert cc.column(s, word) == want, (s, word)


def word_keyed_coface_sum(cm, n, source, target, nonunit=()):
    """sum_i (-1)^i delta_i as the word-keyed GradedMap coface_sum built
    before the block form: the reference for its blocks."""
    f = cm.field
    keep = {w: w for w in target.degree_of}
    images = [(i & 1, _word_image(cm.D, cm.level(n + 1), cm.level(n),
                                  lambda x, i=i: cm.shape.face(n + 1, i, x),
                                  keep, nonunit))
              for i in range(n + 2)]
    d = GradedMap(source, target)
    for word in source.degree_of:
        col: dict = {}
        for odd, image in images:
            for w, v in image(word).items():
                col[w] = col.get(w, 0) + (-v if odd else v)
        d.set_column(word, f.canonical(col))
    return d


def assert_blocks_match(cc, s, want):
    """Every block of d_s in cc equals the word-keyed map want, entry for
    entry, with a column for each word of terms[s] and no zero."""
    source, target = cc.terms[s], cc.terms[s + 1]
    assert sorted(cc.diff[s]) == source.degrees(), s
    for t, cols in cc.diff[s].items():
        words, rows = source.labels(t), target.labels(t)
        assert len(cols) == len(words), (s, t)
        for word, col in zip(words, cols):
            assert all(col.values()) and all(0 <= i for i in col), word
            assert {rows[i]: v for i, v in col.items()} == \
                want.column(word), (s, word)



@pytest.mark.parametrize("case,s_max,t_max", [
    ("Lambda(3,5) F_2", 3, 16), ("Lambda(3) F_3", 4, 18),
    ("Lambda(3) F_3 double edge", 3, 15), ("k[w2] F_3", 3, 14),
    ("Lambda(3) Q unnormalized", 2, 12), ("Lambda(3,5) F_M61", 3, 16),
    ("k[w2] F_M61", 3, 14)])
def test_blocks_match_the_word_keyed_coface_sum(case, s_max, t_max):
    field = {"F_2": GF(2), "F_3": GF(3), "Q": QQ,
             "F_M61": GF(2**61 - 1)}[case.split()[1]]
    D = (polynomial_coalgebra([2], field, truncation=t_max)
         if case.startswith("k[w2]") else
         exterior_coalgebra([3, 5] if "3,5" in case else [3], field))
    shape = double_edge_circle() if "double" in case else circle()
    cm = CosimplicialModule(D, shape, t_max)
    if "unnormalized" in case:
        cc = unnormalized_complex(cm, s_max)
        nonunits = [()] * (s_max + 1)
    else:
        cc = normalized_complex(cm, s_max)
        nonunits = [{g[0] for g in cm.missing_slots(s) if len(g) == 1}
                    for s in range(s_max + 1)]
    nonzero = 0
    for s in range(s_max + 1):
        want = word_keyed_coface_sum(cm, s, cc.terms[s], cc.terms[s + 1],
                                     nonunits[s])
        assert_blocks_match(cc, s, want)
        nonzero += sum(map(bool, want.columns.values()))
    # the normalized differential of Lambda(3) on the circle is zero
    assert nonzero > 5 or case == "Lambda(3) F_3"


def partial_product_image(D, a_list, b_list, fmap, keep=None, nonunit=()):
    """The oracle for _word_image: every slot expands through
    iterated_comult (the counit on a fiber of size 0, the label itself
    on a fiber of size 1) into a growing list of partial products,
    whose factors are then permuted into A-order with Koszul signs."""
    f = D.field
    b_index = {b: k for k, b in enumerate(b_list)}
    fibers = [[] for _ in b_list]
    for ai, a in enumerate(a_list):
        fibers[b_index[fmap(a)]].append(ai)
    order = [ai for fiber in fibers for ai in fiber]
    perm = sorted(range(len(order)), key=order.__getitem__)
    swaps = [(u, v) for u in range(len(order))
             for v in range(u + 1, len(order)) if order[u] > order[v]]
    held = [[o for o, ai in enumerate(fiber) if ai in nonunit]
            for fiber in fibers]

    def image(word):
        out = {}
        partial = [((), f.one)]
        for x, fiber, hold in zip(word, fibers, held):
            exp = [(tup, v) for tup, v in
                   D.iterated_comult(x, len(fiber)).items()
                   if all(tup[o] != D.coaug for o in hold)]
            partial = [(seq + tup, f.mul(c, v))
                       for seq, c in partial for tup, v in exp]
        for seq, c in partial:
            out_word = tuple(seq[i] for i in perm)
            if keep is not None and out_word not in keep:
                continue
            sign = sum(D.degree(seq[u]) * D.degree(seq[v]) for u, v in swaps)
            key = out_word if keep is None else keep[out_word]
            out[key] = out.get(key, 0) + (-c if sign & 1 else c)
        return f.canonical(out)
    return image


def deconcatenation_coalgebra(f):
    # the words in a (degree 3) and b (degree 4) of length <= 2 with
    # letters in order, under deconcatenation: not cocommutative
    return table_coalgebra(
        f, [("1", 0), ("a", 3), ("b", 4), ("ab", 7)],
        {"1": {("1", "1"): 1}, "a": {("1", "a"): 1, ("a", "1"): 1},
         "b": {("1", "b"): 1, ("b", "1"): 1},
         "ab": {("1", "ab"): 1, ("a", "b"): 1, ("ab", "1"): 1}},
        {"1": 1})


def scaled_grouplike_coalgebra(f):
    # Delta g = 2 g (x) g and eps(g) = 2 over F_3, so 2g is grouplike:
    # the one input whose counit factor is not 1
    return GradedCoalgebra(
        f, [("1", 0), ("g", 0), ("x", 3)],
        {"1": {("1", "1"): 1}, "g": {("g", "g"): 2},
         "x": {("1", "x"): 1, ("x", "1"): 1}},
        {"1": 1, "g": 2})


WORD_IMAGE_CASES = [
    (name, build, field)
    for name, build in [
        ("Lambda(3,5)", lambda f: exterior_coalgebra([3, 5], f)),
        ("Lambda(3)(x)k[w4]", lambda f: tensor_coalgebra(
            exterior_coalgebra([3], f),
            polynomial_coalgebra([4], f, truncation=12))),
        ("deconcatenation", deconcatenation_coalgebra)]
    for field in (GF(2), GF(3), QQ, GF(2**61 - 1))
] + [("2g grouplike", scaled_grouplike_coalgebra, GF(3))]


@pytest.mark.parametrize(
    "build, field", [case[1:] for case in WORD_IMAGE_CASES],
    ids=[f"{case[0]}-{case[2]}" for case in WORD_IMAGE_CASES])
def test_word_image_matches_the_partial_product_oracle(build, field):
    D = build(field)
    report = {c.name: c.passed for c in validate(D).checks}
    assert report["coassociativity"] and report["counit law"]
    rng = random.Random(f"{D.name}-{field}")
    labels = sorted(D.space.degree_of)
    # fiber sizes 0 to 3, with sizes >= 2 next to size 0 every time
    shapes = [(2, 0, 1), (0, 3), (1, 1, 1), (3, 0, 2), (0, 0, 2)]
    shapes += [tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
               for _ in range(5)]
    for sizes in shapes:
        slots = list(range(sum(sizes)))
        rng.shuffle(slots)
        owner = {}
        for b, k in enumerate(sizes):
            owner.update((a, f"b{b}") for a in slots[:k])
            slots = slots[k:]
        a_list = list(range(sum(sizes)))
        b_list = [f"b{b}" for b in range(len(sizes))]
        words = [w for w in itertools.product(labels, repeat=len(sizes))
                 if sum(D.degree(x) for x in w) <= 12]
        seen = sorted({w for word in words for w in partial_product_image(
            D, a_list, b_list, owner.__getitem__)(word)})
        # kept words are summed at a key of their own, as block indices
        keep = {w: k for k, w in enumerate(rng.sample(seen, len(seen) // 2))}
        nonunit = set(rng.sample(a_list, min(2, len(a_list))))
        for kw in ({}, {"keep": keep}, {"nonunit": nonunit},
                   {"keep": keep, "nonunit": nonunit}):
            got = _word_image(D, a_list, b_list, owner.__getitem__, **kw)
            want = partial_product_image(D, a_list, b_list,
                                         owner.__getitem__, **kw)
            for word in words:
                assert list(got(word).items()) == list(want(word).items()), (
                    sizes, owner, kw, word)


def test_normalized_complex_needs_counit_on_the_coaugmentation_only():
    f = GF(2)
    D = table_coalgebra(
        f, [("1", 0), ("e", 0)],
        {"1": {("1", "1"): 1}, "e": {("e", "e"): 1}}, {"1": 1, "e": 1})
    cm = CosimplicialModule(D, circle(), 0)
    with pytest.raises(ValueError, match="counit"):
        normalized_complex(cm, 1)


def test_cohh_refuses_a_coalgebra_that_is_not_cocommutative():
    # deconcatenation on 1, a, b, ab, ba: d^0(ab) = a|b - b|a, so the
    # two cofaces of the minimal circle, which agree, would be wrong
    D = table_coalgebra(
        QQ, [("1", 0), ("a", 3), ("b", 5), ("ab", 8), ("ba", 8)],
        {"1": {("1", "1"): 1}, "a": {("1", "a"): 1, ("a", "1"): 1},
         "b": {("1", "b"): 1, ("b", "1"): 1},
         "ab": {("1", "ab"): 1, ("a", "b"): 1, ("ab", "1"): 1},
         "ba": {("1", "ba"): 1, ("b", "a"): 1, ("ba", "1"): 1}}, {"1": 1})
    assert validate(D).ok
    for shape in (circle(), double_edge_circle()):
        with pytest.raises(ValueError, match="cocommutative"):
            cohh(D, 1, 10, shape=shape)


def convolve(a, b, s_max, t_max):
    out = {}
    for (s1, t1), d1 in a.items():
        for (s2, t2), d2 in b.items():
            if s1 + s2 <= s_max and t1 + t2 <= t_max:
                key = (s1 + s2, t1 + t2)
                out[key] = out.get(key, 0) + d1 * d2
    return out


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_cohh_of_mixed_tensor_is_the_kuenneth_convolution(field):
    A = exterior_coalgebra([3], field)
    B = polynomial_coalgebra([4], field, truncation=16)
    got = cohh(tensor_coalgebra(A, B), 4, 16).dims()
    want = convolve(cohh(A, 4, 16).dims(), cohh(B, 4, 16).dims(), 4, 16)
    assert got == want


def polynomial_closed_form_dims(d, p, s_max, t_max):
    """coHH of k[w_d] in characteristic p, by duality with HH of the
    divided-power algebra on x, |x| = d.  Over Q it is k[x] (x)
    Lambda(dx): a class at (0, jd) and one at (1, (j+1)d) for each j.
    Over F_p it is the Kuenneth product over i of HH(k[y]/(y^p)), |y| =
    d p^i, which has a class at (2k, j|y| + kp|y|) and one at
    (2k + 1, (j+1)|y| + kp|y|) for each j < p and k (Buenos Aires Cyclic
    Homology Group, "Cyclic homology of algebras with one generator",
    K-Theory 5, 1991)."""
    unit = {(0, 0): 1}
    if not p:
        return convolve(unit, {(s, (j + s) * d): 1 for j in range(t_max + 1)
                               for s in (0, 1)}, s_max, t_max)
    dims, y = unit, d
    while y <= t_max:
        dims = convolve(dims, {
            (2 * k + e, (j + e) * y + k * p * y): 1 for k in range(s_max + 1)
            for j in range(p) for e in (0, 1)}, s_max, t_max)
        y *= p
    return dims


@pytest.mark.parametrize("d, field, s_max, t_max", [
    (2, GF(3), 4, 16), (2, GF(3), 6, 30), (2, GF(2), 4, 16), (2, QQ, 4, 16),
    (2, GF(5), 5, 30), (4, GF(2), 6, 40), (4, GF(5), 6, 40)], ids=str)
def test_cohh_polynomial_matches_the_divided_power_closed_form(d, field,
                                                               s_max, t_max):
    D = polynomial_coalgebra([d], field, truncation=t_max)
    assert cohh(D, s_max, t_max).dims() == polynomial_closed_form_dims(
        d, field.characteristic, s_max, t_max)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_cohh_of_exterior_times_polynomial_matches_both_closed_forms(field):
    D = tensor_coalgebra(exterior_coalgebra([3], field),
                         polynomial_coalgebra([4], field, truncation=16))
    assert cohh(D, 4, 16).dims() == convolve(
        closed_form_exterior_dims([3], 4, 16),
        polynomial_closed_form_dims(4, field.characteristic, 4, 16), 4, 16)


def test_cohh_of_trivial_coalgebra():
    H = cohh(trivial_coalgebra(GF(5)), 3, 6)
    assert H.dims() == {(0, 0): 1}


def test_cohh_of_point_shape_is_the_coalgebra():
    D = exterior_coalgebra([3], GF(2))
    H = cohh(D, 2, 6, shape=point())
    assert H.dims() == {(0, 0): 1, (0, 3): 1}


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_cohh_exterior_one_generator(field):
    # exterior (x) polynomial on the circle classes: dims 1 at (q, 3q)
    # and (q, 3q + 3)
    H = cohh(exterior_coalgebra([3], field), 3, 12)
    want = {}
    for q in range(4):
        if 3 * q <= 12:
            want[(q, 3 * q)] = 1
        if 3 * q + 3 <= 12:
            want[(q, 3 * q + 3)] = 1
    assert H.dims() == want


def closed_form_exterior_dims(degrees, s_max, t_max):
    """Monomial count in Lambda(y_i) (x) k[w_i], w_i in bidegree (1, i)."""
    dims = {}
    n = len(degrees)
    for eps in itertools.product((0, 1), repeat=n):
        base = sum(e * d for e, d in zip(eps, degrees))

        def rec(j, s, t):
            if t > t_max or s > s_max:
                return
            dims[(s, t)] = dims.get((s, t), 0) + 1
            if j == n:
                return
            for jj in range(j, n):
                rec(jj, s + 1, t + degrees[jj])

        rec(0, 0, base)
    return {k: v for k, v in dims.items()}


def test_cohh_exterior_two_generators_matches_closed_form():
    H = cohh(exterior_coalgebra([3, 5], GF(2)), 2, 11)
    want = {st: d for st, d in closed_form_exterior_dims([3, 5], 2, 11).items()
            if d}
    assert H.dims() == want


def test_cohh_two_generators_rationally():
    H = cohh(exterior_coalgebra([3, 5], QQ), 2, 11)
    want = {st: d for st, d in closed_form_exterior_dims([3, 5], 2, 11).items()
            if d}
    assert H.dims() == want


def test_normalized_and_unnormalized_agree():
    D = exterior_coalgebra([3], GF(2))
    Hn = cohh(D, 2, 9, normalized=True)
    Hu = cohh(D, 2, 9, normalized=False)
    assert Hn.dims() == Hu.dims()


@pytest.mark.parametrize("shape", [circle, double_edge_circle,
                                   subdivided_circle, wedge_of_circles])
@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_normalized_walk_stops_at_the_first_empty_term(shape, field):
    # a level-s normalized word of Lambda(3) holds x3 in s slots, so
    # term 3 is the first empty one at t 7 and the complex ends there,
    # d_2 with it; every ambient level past it filters to no word
    D = exterior_coalgebra([3], field)
    cm = CosimplicialModule(D, shape(), 7)
    cc = normalized_complex(cm, 6)
    assert [term.total_dim() > 0 for term in cc.terms] == [True] * 3 + [
        False]
    assert_ends_at_its_first_empty_term(cc, 6)
    assert sorted(cc.diff[2]) == cc.terms[2].degrees()
    assert not any(col for cols in cc.diff[2].values() for col in cols)
    for s in range(3, 8):
        assert normalized_words(cm, s) == [], s
    X = shape()
    assert (cohh(D, 6, 7, shape=X).dims()
            == cohh(D, 6, 7, shape=X, normalized=False).dims())


def generic_normalized_walk(cm, s_max):
    """The normalized terms and blocks by the walk every shape but the
    circle takes: each term from the missing slots of its level, each
    block from coface_sum cut off at the slots one codegeneracy deletes
    alone."""
    D, t_max = cm.D, cm.t_max
    terms = [GradedSpace(tensor_words(D, len(cm.level(0)), t_max))]
    diffs = []
    for s in range(s_max + 1):
        if not terms[s].degree_of:
            break
        missing = cm.missing_slots(s)
        terms.append(GradedSpace(
            tensor_words(D, len(cm.level(s + 1)), t_max, missing)))
        diffs.append(cm.coface_sum(s, terms[s], terms[s + 1],
                                   {g[0] for g in missing if len(g) == 1}))
    return terms, diffs


def circle_oracle_inputs():
    from test_transport import transported
    yield exterior_coalgebra([3, 5], GF(2)), 4, 20
    yield exterior_coalgebra([3, 5], GF(3)), 4, 20
    yield exterior_coalgebra([3, 3, 5], QQ), 3, 16
    yield polynomial_coalgebra([2], GF(3), truncation=20), 4, 20
    yield polynomial_coalgebra([2, 4], QQ, truncation=16), 3, 16
    yield tensor_coalgebra(exterior_coalgebra([3], GF(3)), polynomial_coalgebra(
        [2], GF(3), truncation=14)), 3, 14
    yield transported(exterior_coalgebra([3, 3, 5], GF(3)), 7), 3, 14
    yield transported(polynomial_coalgebra([2, 4], QQ, truncation=12), 7), 3, 12
    yield transported(tensor_coalgebra(exterior_coalgebra([3], GF(2)),
                                       polynomial_coalgebra(
                                           [2], GF(2), truncation=9)), 7), 3, 9


def test_the_circle_terms_and_blocks_are_those_of_the_generic_walk():
    # the grown terms list the same words in the same order, and
    # circle_coface_sum writes the same columns, signs included
    seen = 0
    for D, s_max, t_max in circle_oracle_inputs():
        cc = normalized_complex(CosimplicialModule(D, circle(), t_max), s_max)
        terms, diffs = generic_normalized_walk(
            CosimplicialModule(D, circle(), t_max), s_max)
        assert [term.by_degree for term in cc.terms] == \
            [term.by_degree for term in terms], D
        assert cc.diff == diffs, D
        seen += sum(map(bool, (col for block in diffs
                                for cols in block.values() for col in cols)))
    assert seen > 1000


def test_a_large_s_max_makes_missing_slots_only_up_to_the_empty_term(
        monkeypatch):
    # Lambda(3) at t <= 5 has normalized terms 0 and 1 only on the
    # double edge, so the walk reads levels 0 to 2 whatever s_max is,
    # each once, and takes the missing slots of levels 0 and 1 only
    D = exterior_coalgebra([3], GF(2))
    want = cohh(D, 2, 5, shape=double_edge_circle()).dims()
    levels, calls = [], []
    missing_slots = CosimplicialModule.missing_slots
    level = GraphSimplicialSet.level

    def recording(self, n):
        levels.append(n)
        # fail fast rather than walk all 401 levels
        assert len(levels) <= 3, "missing_slots on every level"
        return missing_slots(self, n)

    def counted(self, n):
        calls.append(n)
        return level(self, n)
    monkeypatch.setattr(CosimplicialModule, "missing_slots", recording)
    monkeypatch.setattr(GraphSimplicialSet, "level", counted)
    H = cohh(D, 400, 5, shape=double_edge_circle())
    assert levels == [0, 1]
    assert sorted(calls) == [0, 1, 2]
    assert H.dims() == want


def test_circle_levels_are_read_on_demand_once(monkeypatch):
    # on the circle the terms grow by one Dbar label and the blocks come
    # from the comult tables: whatever s_max is, level 0 of the shape is
    # read once, and no missing slots, coface_sum or word plan is made
    from cohh import complexes
    D = exterior_coalgebra([3], GF(2))
    want = cohh(D, 2, 5, normalized=False).dims()
    calls = []

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"{name} called on the circle")
        return refused
    level = GraphSimplicialSet.level

    def counted(self, n):
        calls.append(n)
        return level(self, n)
    monkeypatch.setattr(GraphSimplicialSet, "level", counted)
    monkeypatch.setattr(CosimplicialModule, "missing_slots",
                        refuse("missing_slots"))
    monkeypatch.setattr(CosimplicialModule, "coface_sum",
                        refuse("coface_sum"))
    monkeypatch.setattr(complexes, "_word_image", refuse("_word_image"))
    for s_max in (2, 2000):
        calls.clear()
        assert cohh(D, s_max, 5).dims() == want
        assert calls == [0], s_max


def test_class_coords_roundtrip():
    D = exterior_coalgebra([3, 5], GF(3))
    H = cohh(D, 2, 10)
    for label in H.classes.degree_of:
        _, s, t, k = label
        coords = H.class_coords(s, t, H.rep(label))
        assert coords == {label: 1}


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_class_coords_reads_classes_modulo_boundaries(field):
    # z = sum_k c_k rep_k + d(x) must project to {k: c_k}: the pivot
    # read-off must kill every boundary and fix every representative
    H = cohh(exterior_coalgebra([3, 5], field), 3, 12)
    cc = H.complex
    coeffs = itertools.cycle([1, 0, 2, -1, 1, 1, -2, 0, 3])
    seen = 0
    for (s, t), bd in sorted(H.data.items()):
        below = cc.terms[s - 1].labels(t) if s else []
        for label in below:
            assert H.class_coords(s, t, cc.column(s - 1, label)) == {}
        for _ in range(4):
            c = [field.coerce(next(coeffs)) for _ in range(bd.dim)]
            x = {label: field.coerce(next(coeffs)) for label in below}
            z = word_map(cc, s - 1).apply(x, field) if s else {}
            for k, ck in enumerate(c):
                for word, v in H.rep(("h", s, t, k)).items():
                    z[word] = z.get(word, 0) + ck * v
            z = field.canonical(z)
            want = {("h", s, t, k): ck for k, ck in enumerate(c) if ck}
            assert H.class_coords(s, t, z) == want, (s, t)
            seen += bool(want and x)
    assert seen > 10


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
@pytest.mark.parametrize("coalgebra", ["Lambda(3,5)", "Lambda(3)(x)k[w4]"])
def test_rank_dims_and_lazy_reps_match_homology_reps(coalgebra, field):
    H = cohh(COALGEBRAS[coalgebra](field), 3, 14)
    cc = H.complex
    assert all(bd.rep_vectors is None for bd in H.data.values())
    eager = {}
    for (s, t), bd in sorted(H.data.items()):
        n = cc.terms[s].dim(t)
        d_in = word_map(cc, s - 1).matrix(t) if s else Matrix(n, 0)
        dim, reps, bnd = reduce_and_reeliminate(word_map(cc, s).matrix(t),
                                                d_in, field)
        assert bd.dim == dim, (s, t)
        labels = cc.terms[s].labels(t)
        eager[(s, t)] = ([{labels[j]: v for j, v in r.items()} for r in reps],
                         bnd)
    assert any(bd.dim for bd in H.data.values())
    # class_coords first on every block, then rep: both build lazily
    for (s, t), (reps, bnd) in eager.items():
        for k, z in enumerate(reps):
            assert H.class_coords(s, t, z) == {("h", s, t, k): 1}
        assert [H.rep(("h", s, t, k)) for k in range(len(reps))] == reps
        if reps:
            assert H.data[(s, t)].boundary[0] == bnd


def test_reps_are_the_kernel_vectors_at_uncleared_indices(monkeypatch):
    # H.rep runs one elimination, the rref inside kernel_basis; the first
    # class_coords runs one more, for the boundary rows, and no other
    H = cohh(exterior_coalgebra([3, 5], GF(3)), 3, 14)
    cc = H.complex
    (s, t), bd = max(((st, bd) for st, bd in H.data.items()
                      if bd.dim and bd.cleared),
                     key=lambda item: (item[1].dim, item[0]))
    calls = []
    rref = linalg.rref

    def counting(*args, **kwargs):
        calls.append(1)
        return rref(*args, **kwargs)
    monkeypatch.setattr(linalg, "rref", counting)
    reps = [H.rep(("h", s, t, k)) for k in range(bd.dim)]
    assert len(calls) == 1
    for k, z in enumerate(reps):
        assert H.class_coords(s, t, z) == {("h", s, t, k): 1}
    assert len(calls) == 2
    monkeypatch.undo()
    labels = cc.terms[s].labels(t)
    kernel = linalg.kernel_basis(
        Matrix.from_columns(cc.diff[s][t], cc.terms[s + 1].dim(t)), H.field)
    assert reps == [{labels[j]: c for j, c in v.items()} for v in kernel
                    if max(v) not in bd.cleared]
    assert len(reps) < len(kernel)


def test_homology_table_checks_every_block_without_building_reps():
    # doubling one entry (x, y) of d^1 whose target y has d^2(y) != 0
    # makes d^2 d^1 nonzero on x
    D = exterior_coalgebra([3, 5], QQ)
    cc = normalized_complex(CosimplicialModule(D, circle(), 12),
                            3)
    HomologyTable(cc, 3, 12)
    col, i = next((col, i) for t, cols in cc.diff[1].items() for col in cols
                  for i in col if cc.diff[2][t][i])
    col[i] *= 2
    with pytest.raises(AssertionError, match="nonzero"):
        HomologyTable(cc, 3, 12)


@pytest.mark.parametrize("field", [GF(3), QQ], ids=str)
def test_homology_table_catches_a_fault_in_a_cleared_column(field):
    # the d o d check reads only the kept columns of d_in.  Doubling one
    # entry (x, y) of a cleared column x of d_s, whose target y has
    # d_{s+1}(y) != 0, makes d_{s+1} d_s nonzero on x all the same, and
    # the table must still refuse the complex
    s_max = 4
    H = cohh(COALGEBRAS["k[w2]"](field), s_max, 14)
    cc, t_max = H.complex, H.t_max
    faults = []
    for s in range(1, s_max):
        for t, cols in cc.diff[s].items():
            if t > t_max:
                continue
            cleared = linalg.rref(Matrix.from_rows(
                cc.diff[s - 1].get(t, []), cc.terms[s].dim(t)), field,
                reduced=False, last=True)[1]
            faults += [(s, t, j, i) for j in cleared for i in cols[j]
                       if cc.diff[s + 1][t][i]]
    assert faults
    for s, t, j, i in faults:
        col = cc.diff[s][t][j]
        v = col[i]
        col[i] = field.coerce(2 * v)
        assert block_square(cc, s)
        with pytest.raises(AssertionError, match="nonzero"):
            HomologyTable(cc, s_max, t_max)
        col[i] = v
    HomologyTable(cc, s_max, t_max)


@pytest.mark.parametrize("s, j, message", [
    # column 5 of d_2 is cleared at t = 8, so d_2 d_1 finds its fault, on
    # the column 2 of d_1 that meets it
    (2, 5, "d_2 @ d_1 is nonzero at t = 8 on column 2 of d_1, which meets "
           "columns [1, 3, 4, 5] of d_2"),
    # d_2 keeps its columns 0, 1 and 3 at t = 8: its kept column 2 is
    # column 3 of the block
    (3, 3, "d_3 @ d_2 is nonzero at t = 8 on column 3 of d_2, which meets "
           "columns [0, 1, 3] of d_3")])
def test_a_square_fault_names_its_bidegree_and_block_column(s, j, message):
    H = cohh(COALGEBRAS["k[w2]"](QQ), 4, 8)
    col = H.complex.diff[s][8][j]
    col[min(col)] *= 2
    with pytest.raises(AssertionError) as err:
        HomologyTable(H.complex, 4, 8)
    assert str(err.value) == message


def perturb_one_entry(rnd, cc):
    """Add 1, 2 or -1 to one entry of one column of cc.diff, in place."""
    f = cc.field
    blocks = [(s, t) for s, diff in enumerate(cc.diff)
              for t, cols in diff.items() if cols and cc.terms[s + 1].dim(t)]
    if not blocks:
        return
    s, t = rnd.choice(blocks)
    col = rnd.choice(cc.diff[s][t])
    i = rnd.randrange(cc.terms[s + 1].dim(t))
    v = f.coerce(col.get(i, 0) + rnd.choice([1, 2, -1]))
    if v:
        col[i] = v
    else:
        col.pop(i, None)


@settings(max_examples=200, deadline=None)
@given(char=st.sampled_from([2, 3, 0]), rnd=st.randoms(use_true_random=False),
       s_max=st.integers(1, 4), perturbed=st.booleans())
def test_table_refuses_exactly_the_complexes_whose_square_is_nonzero(
        char, rnd, s_max, perturbed):
    # the kept-column check against the full d_out d_in on every block
    cc = random_complex(rnd, FieldSpec(char), s_max)
    if perturbed:
        perturb_one_entry(rnd, cc)
    if any(block_square(cc, s) for s in range(s_max)):
        with pytest.raises(AssertionError, match="nonzero"):
            HomologyTable(cc, s_max, 2)
    else:
        HomologyTable(cc, s_max, 2)


def rank_loop_dims(cc, s_max, t_max):
    """The table's dims from rank(d_s.matrix(t)) on every block, the rank
    loop before clearing: the oracle for the cleared column reduction."""
    ranks = {(s, t): linalg.rank(word_map(cc, s).matrix(t), cc.field)
             for s in range(s_max + 1) for t in cc.terms[s].degrees()
             if t <= t_max}
    return {(s, t): cc.terms[s].dim(t) - r - ranks.get((s - 1, t), 0)
            for (s, t), r in ranks.items()}


def table_dims(H):
    return {st: bd.dim for st, bd in H.data.items()}


def random_complex(rnd, field, s_max):
    """A cochain complex with d o d = 0 and terms[s] spanned by words
    ("e", s, t, k) in a few degrees t.  Each column of d_s is a random
    combination of functionals on terms[s] that vanish on im d_{s-1},
    each paired with a random sparse target vector."""
    degrees = range(rnd.randint(1, 3))
    dims = [{t: rnd.randint(0, 7) for t in degrees}
            for _ in range(s_max + 2)]
    terms = [GradedSpace((("e", s, t, k), t)
                         for t in degrees for k in range(n[t]))
             for s, n in enumerate(dims)]
    diffs = [{} for _ in range(s_max + 1)]

    def sparse(n):
        return {i: field.coerce(rnd.choice([1, 2, -1, 3]))
                for i in range(n) if rnd.random() < 0.5}
    for t in degrees:
        d_in = []  # columns of d_{s-1} at t, on indices of terms[s]
        for s in range(s_max + 1):
            n, m = dims[s][t], dims[s + 1][t]
            ann = linalg.kernel_basis(Matrix.from_rows(d_in, n), field)
            pairs = []
            for _ in range(rnd.randint(0, len(ann))):
                phi: dict = {}
                for y in ann:
                    c = field.coerce(rnd.choice([0, 1, 1, 2, -1]))
                    for j, v in y.items():
                        phi[j] = phi.get(j, 0) + c * v
                pairs.append((field.canonical(phi), sparse(m)))
            d_in = diffs[s][t] = []
            for j in range(n):
                col: dict = {}
                for phi, b in pairs:
                    for i, v in b.items():
                        col[i] = col.get(i, 0) + phi.get(j, 0) * v
                d_in.append(field.canonical(col))
    return CochainComplex(field, terms, diffs)


@settings(max_examples=200, deadline=None)
@given(char=st.sampled_from([2, 3, 0]), rnd=st.randoms(use_true_random=False),
       s_max=st.integers(1, 4))
def test_cleared_ranks_match_the_rank_loop_on_random_complexes(char, rnd,
                                                                s_max):
    cc = random_complex(rnd, FieldSpec(char), s_max)
    for s in range(s_max):
        assert block_square(cc, s) == []
    H = HomologyTable(cc, s_max, 2)
    assert table_dims(H) == rank_loop_dims(cc, s_max, 2)


def cobar_complex(D, s_max, t_max):
    """The reduced cobar complex of (k, k) over D, as cobar_cotor builds
    it."""
    k = trivial_comodule(D)
    spaces = [GradedSpace(cobar_level_space(k, k, s, t_max))
              for s in range(s_max + 2)]
    return CochainComplex(D.field, spaces, [
        cobar_differential(k, k, s, spaces[s], spaces[s + 1])
        for s in range(s_max + 1)])


# the complexes of the benchmark's three jobs, at the small bounds of its
# self-tests and at the jobs' own bounds: Lambda(3,5) over F_2 (cohh),
# the cobar complex of Lambda(3,5,7) over Q (cotor) and Lambda(3) over
# F_3 on both circles that audit reads
@pytest.mark.parametrize("job,s_max,t_max", [
    ("cohh", 2, 10), ("cohh", 5, 20), ("cotor", 2, 14), ("cotor", 5, 26),
    ("audit", 3, 9), ("audit", 4, 18)])
def test_cleared_ranks_match_the_rank_loop_on_the_benchmark_complexes(
        job, s_max, t_max):
    if job == "cotor":
        cc = cobar_complex(exterior_coalgebra([3, 5, 7], QQ), s_max, t_max)
        assert table_dims(HomologyTable(cc, s_max, t_max)) == \
            rank_loop_dims(cc, s_max, t_max)
        return
    D = (exterior_coalgebra([3, 5], GF(2)) if job == "cohh"
         else exterior_coalgebra([3], GF(3)))
    shapes = [circle()] + ([double_edge_circle()] if job == "audit" else [])
    for shape in shapes:
        H = cohh(D, s_max, t_max, shape=shape)
        assert table_dims(H) == rank_loop_dims(H.complex, s_max, H.t_max)


def benchmark_complexes():
    """The complexes of the benchmark's three jobs at their own bounds."""
    yield cobar_complex(exterior_coalgebra([3, 5, 7], QQ), 5, 26)
    yield cohh(exterior_coalgebra([3, 5], GF(2)), 5, 20).complex
    for shape in (circle(), double_edge_circle()):
        yield cohh(exterior_coalgebra([3], GF(3)), 4, 18, shape=shape).complex


def test_block_scalars_are_reduced_on_the_benchmark_complexes():
    # the word images are summed unreduced; each column is reduced once,
    # so every F_p entry lies in 1..p-1 and no block holds a zero
    seen = set()
    for cc in benchmark_complexes():
        p = cc.field.characteristic
        for blocks in cc.diff:
            for cols in blocks.values():
                for col in cols:
                    for v in col.values():
                        assert (0 < v < p) if p else v != 0, v
                        seen.add(p)
    assert seen == {0, 2, 3}


def test_tables_leave_the_differential_as_they_found_it():
    # the rank pass, the boundary rows of class_coords and the kernel
    # vectors behind rep all borrow the blocks of cc.diff, and change none
    boundary_rows = 0
    for cc in benchmark_complexes():
        before = copy.deepcopy(cc.diff)
        H = HomologyTable(cc, len(cc.diff), 99)
        for (s, t), bd in H.data.items():
            for k in range(bd.dim):
                z = H.rep(("h", s, t, k))
                assert H.class_coords(s, t, z) == {("h", s, t, k): 1}
            if bd.boundary:
                boundary_rows += len(bd.boundary[0])
        assert cc.diff == before
    assert boundary_rows > 10


def test_each_filtered_table_is_made_once(monkeypatch):
    # two builds of the normalized complex on one coalgebra share every
    # (fiber size, held offsets) table, and distinct keys get distinct ones
    D = exterior_coalgebra([3, 5], GF(2))
    made = {}
    real = GradedCoalgebra.iterated_comult

    def counting(self, label, k):
        made[(label, k)] = made.get((label, k), 0) + 1
        return real(self, label, k)
    monkeypatch.setattr(GradedCoalgebra, "iterated_comult", counting)
    tables = {}
    for _ in range(2):
        cm = CosimplicialModule(D, circle(), 20)
        normalized_complex(cm, 5)
        for key, table in D._tables.items():
            assert tables.setdefault(key, table) is table, key
    assert sorted(tables) == [(2, (0, 1)), (2, (1,))]
    assert len({id(t) for t in tables.values()}) == 2
    # each table expands every label once, and no word image expands one
    assert {key: n for key, n in made.items() if key[1] == 2} == \
        {(x, 2): len(tables) for x in D.space.degree_of}


def test_tables_make_no_matrix_call(monkeypatch):
    def cohh_table():
        return cohh(exterior_coalgebra([3, 5], GF(3)), 4, 16)

    def cotor_table():
        k = trivial_comodule(exterior_coalgebra([3, 5, 7], QQ))
        return cobar_cotor(k, k, 3, 20)
    want = (cohh_table().dims(), cotor_table().dims())

    def refuse(self, degree):
        raise AssertionError("GradedMap.matrix called")
    monkeypatch.setattr(GradedMap, "matrix", refuse)
    H = cohh_table()
    assert (H.dims(), cotor_table().dims()) == want
    # representatives and class coordinates build lazily from the blocks
    seen = 0
    for (s, t), bd in H.data.items():
        for k in range(bd.dim):
            label = ("h", s, t, k)
            assert H.class_coords(s, t, H.rep(label)) == {label: 1}
            seen += 1
    assert seen


def test_class_coords_refuses_a_word_outside_the_term():
    H = cohh(exterior_coalgebra([3], GF(2)), 2, 9)
    with pytest.raises(linalg.NoSolution):
        # (x3, 1) is not a normalized word: sigma_0 sends it to (x3,)
        H.class_coords(1, 3, {("x3", "1"): 1})


def test_collapse_induces_iso_small():
    D = exterior_coalgebra([3], GF(2))
    rep = compare_by_induced_map(D, collapse_subdivided(), 2, 9)
    assert rep.ok, str(rep)


def test_a_constant_map_names_the_bidegrees_it_does_not_hit():
    # d'S1 -> point -> S1 kills every class of positive level
    D = exterior_coalgebra([3], GF(2))
    f = SimplicialMap(subdivided_circle(), circle(), {"*": "*", "m": "*"},
                      {"e1": ("v", "*"), "e2": ("v", "*")}, name="constant")
    rep = compare_by_induced_map(D, f, 2, 9)
    assert not rep.ok
    assert rep.checks[0].witness == (
        "fails at [(1, 3, 1, 1, 0), (1, 6, 1, 1, 0), (2, 6, 1, 1, 0)]")


def test_induced_homology_map_plans_each_level_once(monkeypatch):
    from cohh import complexes
    D = exterior_coalgebra([3], GF(3))
    f = collapse_subdivided()
    HY = cohh(D, 3, 12, shape=f.target)
    HX = cohh(D, 3, 12, shape=f.source)
    plans = []
    real = complexes._word_image

    def counting(*args, **kwargs):
        plans.append(args[1])
        return real(*args, **kwargs)
    monkeypatch.setattr(complexes, "_word_image", counting)
    m = complexes.induced_homology_map(D, f, HY, HX)
    levels = {label[1] for label in HY.classes.degree_of}
    assert len(plans) == len(levels) > 1
    # still an iso on every bidegree (compare_by_induced_map's check)
    for (s, t), bd in HY.data.items():
        cols = [{l[3]: v for l, v in m.column(("h", s, t, k)).items()}
                for k in range(bd.dim)]
        assert linalg.rank(Matrix.from_columns(cols, HX.dim(s, t)),
                           D.field) == bd.dim == HX.dim(s, t)
