import itertools

import numpy as np
import pytest

from cohh import comodule, linalg, structure
from cohh.coalgebra import (
    exterior_coalgebra,
    polynomial_coalgebra,
    tensor_coalgebra,
    tensor_projection,
)
from cohh.comodule import (
    box_indecomposables,
    box_primitives,
    cobar_cotor,
    cobar_differential,
    cobar_level_space,
    coflatness_report,
    comodule_from_map,
    cotensor,
    polynomial_multiplication,
    regular_comodule,
    tensor_box_structure,
    trivial_comodule,
)
from cohh.complexes import CochainComplex, cohh
from cohh.fields import GF, QQ
from cohh.graded import GradedMap, GradedSpace, as_tuples, tensor_apply
from test_complexes import assert_blocks_match, block_square


def cotensor_dims(ct):
    """The nonzero dims {degree: dim} of a cotensor basis."""
    return {t: len(vecs) for t, vecs in ct.items() if vecs}


def brute_cotensor_dim(M, N, degree):
    """Second path: dense equalizer assembled row-by-row with numpy/Fractions."""
    f = M.field
    pairs = [(m, n) for m, dm in M.space.degree_of.items()
             for n, dn in N.space.degree_of.items() if dm + dn == degree]
    pairs.sort(key=repr)
    triples = sorted(
        {(mm, d, n) for (m, n) in pairs for (mm, d) in M.right_of(m)}
        | {(m, d, nn) for (m, n) in pairs for (d, nn) in N.left_of(n)},
        key=repr)
    tindex = {t: i for i, t in enumerate(triples)}
    rows = []
    for t in triples:
        row = []
        for (m, n) in pairs:
            v = 0
            for (mm, d), c in M.right_of(m).items():
                if (mm, d, n) == t:
                    v += c
            for (d, nn), c in N.left_of(n).items():
                if (m, d, nn) == t:
                    v -= c
            row.append(f.coerce(v))
        rows.append(row)
    if not pairs:
        return 0
    if f.is_prime_field:
        a = np.array([[int(v) for v in row] for row in rows], dtype=np.int64)
        from cohh._kernels import rref_mod_p

        r = rref_mod_p(a % f.characteristic, f.characteristic)
    else:
        m = linalg.Matrix.from_rows(
            [{j: v for j, v in enumerate(row) if v} for row in rows],
            len(pairs))
        r = linalg.rank(m, f)
    return len(pairs) - r


def cofree_comodule(C2, D2):
    t = tensor_coalgebra(C2, D2)
    return comodule_from_map(tensor_projection(t, 0), name=t.name)


def test_regular_comodule_validates():
    for D in (exterior_coalgebra([3, 5], QQ),
              polynomial_coalgebra([2], GF(3), truncation=10)):
        assert regular_comodule(D).validate().ok


def test_cofree_comodule_validates():
    C = exterior_coalgebra([3], GF(3))
    D2 = polynomial_coalgebra([2], GF(3), truncation=12)
    assert cofree_comodule(C, D2).validate().ok


def test_cotensor_of_regular_with_itself_is_the_coalgebra():
    D = exterior_coalgebra([3, 5], GF(2))
    R = regular_comodule(D)
    ct = cotensor(R, R)
    want = {d: D.space.dim(d) for d in D.space.degrees() if D.space.dim(d)}
    assert cotensor_dims(ct) == want


def test_cotensor_with_trivial_comodule_is_trivial():
    D = exterior_coalgebra([3], QQ)
    ct = cotensor(trivial_comodule(D), regular_comodule(D))
    assert cotensor_dims(ct) == {0: 1}


def test_cofree_cotensor_dims_match_cofree_tensor():
    # (C (x) P) box_C (C (x) P) has the dimensions of C (x) P (x) P
    C = exterior_coalgebra([3], GF(3))
    P = polynomial_coalgebra([2], GF(3), truncation=12)
    E = cofree_comodule(C, P)
    ct = cotensor(E, E, max_degree=12)
    for t in range(13):
        want = sum(C.space.dim(a) * P.space.dim(b) * P.space.dim(t - a - b)
                   for a in range(t + 1) for b in range(t - a + 1))
        assert len(ct.get(t, [])) == want, t


def test_cotensor_matches_brute_force_second_path():
    C = exterior_coalgebra([3], GF(3))
    P = polynomial_coalgebra([2], GF(3), truncation=10)
    E = cofree_comodule(C, P)
    ct = cotensor(E, E, max_degree=10)
    for t in range(11):
        assert len(ct.get(t, [])) == brute_cotensor_dim(E, E, t), t
    D = exterior_coalgebra([3, 5], QQ)
    R = regular_comodule(D)
    ct = cotensor(R, R)
    for t in range(9):
        assert len(ct.get(t, [])) == brute_cotensor_dim(R, R, t), t


@pytest.mark.parametrize("s", range(5))
def test_cobar_level_space_is_the_lexicographic_walk(s):
    # labels of M in order, then the middle words in lexicographic order
    # of the Dbar positions, then the labels of N, within t_max
    D = exterior_coalgebra([3, 5], GF(3))
    M, N, t_max = regular_comodule(D), regular_comodule(D), 19
    dbar = [(lbl, d) for lbl, d in D.space.degree_of.items() if d > 0]
    want = []
    for m, dm in M.space.degree_of.items():
        for combo in itertools.product(dbar, repeat=s):
            mid = sum(d for _, d in combo)
            for n, dn in N.space.degree_of.items():
                if dm + mid + dn <= t_max:
                    want.append(((m,) + tuple(l for l, _ in combo) + (n,),
                                 dm + mid + dn))
    assert cobar_level_space(M, N, s, t_max) == want


def oracle_cobar_level_space(M, N, s, t_max):
    """The walk cobar_level_space replaced: middle words grown in the
    D basis order, each prefix kept only if the labels still to follow
    fit the budget the lowest label of M leaves."""
    D = M.base
    dbar = [(lbl, dg) for lbl, dg in D.space.degree_of.items() if dg > 0]
    m_labels = [(m, dm) for m, dm in M.space.degree_of.items()
                if dm <= t_max]
    budget = t_max - min((dm for _, dm in m_labels), default=t_max)
    lowest = min((dg for _, dg in dbar), default=0)
    mids = [((), 0)]
    for k in range(s, 0, -1):
        room = budget - (k - 1) * lowest
        mids = [(word + (lbl,), deg + dg) for word, deg in mids
                for lbl, dg in dbar if deg + dg <= room]
    labels = []
    for m, dm in m_labels:
        for mid_word, mid in mids:
            if dm + mid > t_max:
                continue
            for n, dn in N.space.degree_of.items():
                if dm + mid + dn <= t_max:
                    labels.append(((m,) + mid_word + (n,), dm + mid + dn))
    return labels


def test_cobar_levels_match_the_old_walk():
    # the same list where the D basis is in (degree, label) order, as on
    # Lambda(3,5,7); the same set on the regular comodules, where k[w2,w4]
    # lists w4 before w2^2
    k = trivial_comodule(exterior_coalgebra([3, 5, 7], QQ))
    for s in range(7):
        assert (cobar_level_space(k, k, s, 40)
                == oracle_cobar_level_space(k, k, s, 40)), s
    for D, t_max in ((exterior_coalgebra([3, 5], GF(3)), 19),
                     (polynomial_coalgebra([2, 4], GF(3), 16), 16)):
        R = regular_comodule(D)
        for s in range(5):
            got = cobar_level_space(R, R, s, t_max)
            assert len(got) == len(set(got))
            assert set(got) == set(oracle_cobar_level_space(R, R, s, t_max))


def cobar_complex(M, N, s_max, t_max):
    spaces = [GradedSpace(cobar_level_space(M, N, s, t_max))
              for s in range(s_max + 2)]
    return CochainComplex(M.field, spaces, [
        cobar_differential(M, N, s, spaces[s], spaces[s + 1])
        for s in range(s_max + 1)])


def word_keyed_cobar_differential(M, N, s, source, target):
    """The cobar differential as the word-keyed GradedMap it was built as
    before the block form: the reference for cobar_differential."""
    f = M.field
    D = M.base
    g = D.coaug
    right = {m: {k: v for k, v in M.right_of(m).items() if k[1] != g}
             for m in M.space.degree_of}
    left = {n: {k: v for k, v in N.left_of(n).items() if k[0] != g}
            for n in N.space.degree_of}
    comult = {a: {k: v for k, v in D.comult_of(a).items()
                  if k[0] != g and k[1] != g} for a in D.space.degree_of}
    mid_signs = [(-1) ** (i + 1) for i in range(s)]
    last_sign = (-1) ** (s + 1)
    words = target.degree_of
    out = GradedMap(source, target)
    for label in source.degree_of:
        m, mids, n = label[0], label[1:-1], label[-1]
        col: dict = {}
        for (mm, d), v in right[m].items():
            key = (mm, d) + mids + (n,)
            if key in words:
                col[key] = col.get(key, 0) + v
        for i, a in enumerate(mids):
            head, tail = label[:i + 1], label[i + 2:]
            for pair, v in comult[a].items():
                key = head + pair + tail
                if key in words:
                    col[key] = col.get(key, 0) + mid_signs[i] * v
        for (d, nn), v in left[n].items():
            key = (m,) + mids + (d, nn)
            if key in words:
                col[key] = col.get(key, 0) + last_sign * v
        out.set_column(label, f.canonical(col))
    return out


@pytest.mark.parametrize("case", ["Lambda(3,5,7) (k, k) Q",
                                  "Lambda(3,5) regular-trivial F_3",
                                  "k[w2] trivial-regular F_2"])
def test_cobar_blocks_match_the_word_keyed_builder(case):
    if case.startswith("Lambda(3,5,7)"):
        D = exterior_coalgebra([3, 5, 7], QQ)
        M = N = trivial_comodule(D)
        s_max, t_max = 5, 26  # the cotor benchmark job
    elif case.startswith("Lambda(3,5)"):
        D = exterior_coalgebra([3, 5], GF(3))
        M, N = regular_comodule(D), trivial_comodule(D)
        s_max, t_max = 3, 16
    else:
        D = polynomial_coalgebra([2], GF(2), truncation=10)
        M, N = trivial_comodule(D), regular_comodule(D)
        s_max, t_max = 3, 10
    cc = cobar_complex(M, N, s_max, t_max)
    nonzero = 0
    for s in range(s_max + 1):
        want = word_keyed_cobar_differential(M, N, s, cc.terms[s],
                                             cc.terms[s + 1])
        assert_blocks_match(cc, s, want)
        nonzero += sum(map(bool, want.columns.values()))
    assert nonzero > 10


def test_cobar_images_outside_the_target_are_dropped():
    # a target cut off below the source's degrees: the images of the top
    # source words have no target word, and their columns come out empty
    D = exterior_coalgebra([3, 5], GF(3))
    M = N = regular_comodule(D)
    source = GradedSpace(cobar_level_space(M, N, 1, 16))
    full = GradedSpace(cobar_level_space(M, N, 2, 16))
    cut = GradedSpace(cobar_level_space(M, N, 2, 12))
    cc = CochainComplex(D.field, [source, cut], [
        cobar_differential(M, N, 1, source, cut)])
    assert_blocks_match(cc, 0, word_keyed_cobar_differential(
        M, N, 1, source, cut))
    whole = cobar_differential(M, N, 1, source, full)
    assert any(any(whole[t]) and not any(cc.diff[0][t])
               for t in source.degrees() if t > 12)


def test_cobar_differential_squares_to_zero():
    D = exterior_coalgebra([3, 5], GF(2))
    cc = cobar_complex(regular_comodule(D), trivial_comodule(D), 2, 16)
    for s in range(2):
        assert block_square(cc, s) == [], s


def test_cobar_d_squared_zero_polynomial_q():
    P = polynomial_coalgebra([2], QQ, truncation=8)
    k = trivial_comodule(P)
    cc = cobar_complex(k, k, 3, 8)
    for s in range(3):
        assert block_square(cc, s) == [], s


def test_rational_cobar_differentials_have_int_entries():
    # integral scalars over Q stay ints: a Fraction here would put the
    # whole elimination back on Fraction arithmetic
    D = exterior_coalgebra([3, 5, 7], QQ)
    k = trivial_comodule(D)
    cc = cobar_complex(k, k, 2, 15)
    seen = 0
    for s in range(3):
        for t, cols in cc.diff[s].items():
            for col in cols:
                for v in col.values():
                    assert type(v) is int, (s, t, v)
                    seen += 1
    assert seen


def test_cotor_s0_equals_cotensor():
    D = exterior_coalgebra([3, 5], GF(5))
    M = regular_comodule(D)
    N = regular_comodule(D)
    table = cobar_cotor(M, N, 2, 8)
    ct = cotensor(M, N, 8)
    for t in range(9):
        assert table.dim(0, t) == len(ct.get(t, []))


def test_cotor_of_cofree_vanishes_positively():
    D = exterior_coalgebra([3], GF(2))
    M = regular_comodule(D)
    table = cobar_cotor(M, trivial_comodule(D), 3, 12)
    assert not [st for st in table.dims() if st[0] >= 1]


def test_cotor_exterior_one_generator():
    # Dbar = span(x) with reduced comultiplication zero, so the reduced
    # cobar of (k, k) has one basis element x^(x)s in degree 3s and no
    # differential: Cotor^{s,3s} = k.
    D = exterior_coalgebra([3], GF(3))
    k = trivial_comodule(D)
    table = cobar_cotor(k, k, 4, 12)
    assert table.dims() == {(0, 0): 1, (1, 3): 1, (2, 6): 1, (3, 9): 1,
                            (4, 12): 1}


def test_a_large_s_max_makes_cobar_levels_only_up_to_the_empty_one(
        monkeypatch):
    # Lambda(3) at t <= 5 has cobar levels 0 and 1 only: level 2 is the
    # first empty one, the complex ends there, and no later level is
    # generated, as every one of them is empty
    D = exterior_coalgebra([3], GF(2))
    k = trivial_comodule(D)
    want = cobar_cotor(k, k, 2, 5).dims()
    levels = []

    def recording(M, N, s, t_max):
        levels.append(s)
        # fail fast rather than walk all 401 levels
        assert len(levels) <= 4, "cobar_level_space on every level"
        return cobar_level_space(M, N, s, t_max)
    monkeypatch.setattr(comodule, "cobar_level_space", recording)
    H = cobar_cotor(k, k, 400, 5)
    assert levels == [0, 1, 2]
    assert H.dims() == want
    assert [len(term.degree_of) for term in H.complex.terms] == [1, 1, 0]
    assert len(H.complex.diff) == 2
    assert all(cobar_level_space(k, k, s, 5) == [] for s in range(3, 402))


def test_cotor_refuses_a_cobar_differential_whose_square_is_nonzero(
        monkeypatch):
    # d^2(x3 | x5x7) != 0, so doubling that one entry of d^1(x3x5x7)
    # makes d^2 d^1 nonzero on x3x5x7.
    D = exterior_coalgebra([3, 5, 7], QQ)
    k = trivial_comodule(D)
    word, entry = ("1", "x3x5x7", "1"), ("1", "x3", "x5x7", "1")

    def perturbed(M, N, s, source, target):
        d = cobar_differential(M, N, s, source, target)
        if s == 1:
            t = source.degree_of[word]
            d[t][source.index_of[word]][target.index_of[entry]] *= 2
        return d

    assert cobar_cotor(k, k, 2, 15).dim(2, 10) == 2  # w3 w7, w5^2
    monkeypatch.setattr(comodule, "cobar_differential", perturbed)
    with pytest.raises(AssertionError, match="nonzero"):
        cobar_cotor(k, k, 2, 15)


def brute_cobar_dims(D, s_max, t_max, p):
    """Independent cobar construction over F_p with dense numpy arrays."""
    pos = [(l, d) for l, d in D.space.degree_of.items() if d > 0]

    def words(s):
        out = []
        for combo in itertools.product(pos, repeat=s):
            if sum(d for _, d in combo) <= t_max:
                out.append(tuple(l for l, _ in combo))
        return sorted(out)

    def wdeg(w):
        return sum(D.space.degree_of[l] for l in w)

    levels = [words(s) for s in range(s_max + 2)]

    def dmat(s):
        src, tgt = levels[s], levels[s + 1]
        tindex = {w: i for i, w in enumerate(tgt)}
        a = np.zeros((len(tgt), len(src)), dtype=np.int64)
        for j, w in enumerate(src):
            for i, lbl in enumerate(w):
                for (x, y), v in D.comult_of(lbl).items():
                    if x == "1" or y == "1":
                        continue
                    nw = w[:i] + (x, y) + w[i + 1:]
                    if nw in tindex:
                        a[tindex[nw], j] = (a[tindex[nw], j]
                                            + (-1) ** (i + 1) * int(v)) % p
        return a

    from cohh._kernels import rref_mod_p

    dims = {}
    for s in range(s_max + 1):
        src = levels[s]
        for t in range(t_max + 1):
            idx = [j for j, w in enumerate(src) if wdeg(w) == t]
            if not idx:
                continue
            # restrict matrices to the internal degree t blocks
            a_out = dmat(s)
            cols_out = a_out[:, idx]
            r_ker = len(idx) - rref_mod_p(
                np.ascontiguousarray(cols_out.T.copy()), p)
            if s == 0:
                r_im = 0
            else:
                prev = levels[s - 1]
                pidx = [j for j, w in enumerate(prev) if wdeg(w) == t]
                a_in = dmat(s - 1)[:, pidx] if pidx else np.zeros((len(src), 0), dtype=np.int64)
                rows = [i for i, w in enumerate(src) if wdeg(w) == t]
                a_in = a_in[rows, :] if pidx else a_in
                r_im = rref_mod_p(
                    np.ascontiguousarray(a_in.T.copy()), p) if pidx else 0
            if r_ker - r_im:
                dims[(s, t)] = r_ker - r_im
    return dims


def test_cotor_polynomial_matches_independent_construction():
    p = 3
    D = polynomial_coalgebra([2], GF(p), truncation=10)
    k = trivial_comodule(D)
    table = cobar_cotor(k, k, 3, 10)
    want = brute_cobar_dims(D, 3, 10, p)
    assert table.dims() == want


def test_box_primitives_of_cofree_over_exterior_mod_3():
    C = exterior_coalgebra([3], GF(3))
    P = polynomial_coalgebra([2], GF(3), truncation=18)
    box = tensor_box_structure(C, P, polynomial_multiplication(P))
    prims = box_primitives(box, 15)
    found = sorted((t, tuple(sorted(v))) for t, vecs in prims.items()
                   for v in vecs)
    # c (x) d is primitive exactly when d is primitive in k[w], i.e. a
    # Frobenius power of w: degrees 2, 6 for d; tensored with 1 and x3.
    assert found == [
        (2, ("1*w2",)),
        (5, ("x3*w2",)),
        (6, ("1*w2^3",)),
        (9, ("x3*w2^3",)),
    ]


def two_step_box_primitives(box, max_degree):
    """Oracle: the counit kernel IE first, then the kernel of
    (q (x) q) Delta on the IE basis, mapped back to E labels."""
    f = box.field
    E = box.carrier.space
    q = as_tuples(lambda label: comodule._q_reduce(
        label, comodule._unit_image_rows(box, E.degree_of[label]), box, f))
    out = {}
    for t in range(1, max_degree + 1):
        ie = linalg.kernel_of({lbl: box.counit.column(lbl)
                               for lbl in E.labels(t)}, f)
        images = {j: tensor_apply(box.comult.apply(vec, f), [q, q], f)
                  for j, vec in enumerate(ie)}
        prims = []
        for k in linalg.kernel_of(images, f):
            vec: dict = {}
            for j, c in k.items():
                for lbl, v in ie[j].items():
                    vec[lbl] = vec.get(lbl, 0) + c * v
            prims.append(f.canonical(vec))
        if prims:
            out[t] = prims
    return out


def cofree_box(field):
    P = polynomial_coalgebra([2], field, truncation=18)
    return tensor_box_structure(exterior_coalgebra([3], field), P,
                                polynomial_multiplication(P)), 18


def cohh_box(degrees, field, s_max, t_max):
    H = cohh(exterior_coalgebra(degrees, field), s_max, t_max)
    return structure.cohh_box_structure(H)[0], t_max


@pytest.mark.parametrize("build", [
    lambda: cofree_box(GF(3)), lambda: cofree_box(GF(2)),
    lambda: cofree_box(QQ), lambda: cohh_box([3], QQ, 3, 12),
    lambda: cohh_box([3, 5], GF(2), 2, 10)],
    ids=["cofree F_3", "cofree F_2", "cofree Q", "coHH Lambda(3) Q",
         "coHH Lambda(3,5) F_2"])
def test_box_primitives_is_the_two_step_kernel(build):
    # both are the greatest-index reduced basis of P, so they agree
    # vector for vector
    box, max_degree = build()
    prims = box_primitives(box, max_degree)
    assert prims
    assert prims == two_step_box_primitives(box, max_degree)


def test_box_indecomposables_of_cofree_over_exterior():
    C = exterior_coalgebra([3], GF(3))
    P = polynomial_coalgebra([2], GF(3), truncation=12)
    box = tensor_box_structure(C, P, polynomial_multiplication(P))
    q = box_indecomposables(box, 9)
    flat = {(t, lbl) for t, (dim, reps) in q.items()
            for r in reps for lbl in r}
    assert flat == {(2, "1*w2"), (5, "x3*w2")}
    assert q[2][0] == 1 and q[5][0] == 1


def test_box_indecomposables_refuses_products_outside_the_counit_kernel():
    # mult2 always gives 1, so (1*w2) (1*w2) = 1*1, whose counit is 1:
    # the products do not lie in IE
    C = exterior_coalgebra([3], GF(3))
    P = polynomial_coalgebra([2], GF(3), truncation=12)
    box = tensor_box_structure(C, P, lambda a, b: {"1": 1})
    with pytest.raises(AssertionError, match="nonzero"):
        box_indecomposables(box, 9)


def test_box_indecomposables_refuses_a_product_of_another_degree():
    # mult2 always gives w2, so the product of the degree-4 pair
    # (1*w2, 1*w2) is 1*w2, of degree 2; it lies in the counit kernel,
    # so only the degree check refuses it
    C = exterior_coalgebra([3], GF(2))
    P = polynomial_coalgebra([2], GF(2), truncation=12)
    box = tensor_box_structure(C, P, lambda a, b: {"w2": 1})
    with pytest.raises(ValueError, match=r"degree-4 pair \('1\*w2', "
                       r"'1\*w2'\) has the label '1\*w2' of degree 2"):
        box_indecomposables(box, 12)


def test_coflatness_report_for_cofree_comodule():
    C = exterior_coalgebra([3], GF(2))
    P = polynomial_coalgebra([2], GF(2), truncation=10)
    E = cofree_comodule(C, P)
    rep, cogenerator_dims = coflatness_report(E, 3, 10)
    assert rep.ok, str(rep)
    assert cogenerator_dims == {t: P.space.dim(t) for t in range(11)
                                    if P.space.dim(t) and t > 0} | {0: 1}


def test_coflatness_report_names_what_fails_for_the_trivial_comodule():
    C = exterior_coalgebra([3], GF(2))
    rep, cogenerator_dims = coflatness_report(trivial_comodule(C), 3, 10)
    assert [c.witness for c in rep.failures] == [
        "fails at [(1, 3), (2, 6), (3, 9)]", "fails at [3]"]
    assert cogenerator_dims == {0: 1}


def test_degree_pairs_keeps_the_order_of_the_full_scan():
    D = tensor_coalgebra(exterior_coalgebra([3, 5], GF(3)),
                         polynomial_coalgebra([4], GF(3), truncation=12))
    M = D.space
    N = GradedSpace([("1", 0), ("a", 3), ("b", 3), ("c", 7)])
    for degree in range(-1, 24):
        full = sorted(((m, n) for m, dm in M.degree_of.items()
                       for n, dn in N.degree_of.items()
                       if dm + dn == degree), key=repr)
        assert comodule.degree_pairs(M, N, degree) == full, degree
