import copy
import itertools
import math
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cohh import linalg
from cohh.fields import GF, QQ, FieldSpec, _is_prime
from cohh.graded import tensor_apply
from cohh.linalg import Matrix, NoSolution


def mat(rows, field=None):
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = field.coerce(v) if field else v
    return Matrix(len(rows), len(rows[0]) if rows else 0, entries)


def brute_kernel(rows, ncols, p):
    """All kernel vectors of a small matrix over F_p by enumeration."""
    kernel = []
    for vec in itertools.product(range(p), repeat=ncols):
        if all(
            sum(row[j] * vec[j] for j in range(ncols)) % p == 0 for row in rows
        ):
            kernel.append(vec)
    return kernel


def test_fieldspec_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        FieldSpec(6)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert ([n for n in range(20000) if _is_prime(n)]
            == [n for n in range(20000) if trial(n)])


@pytest.mark.parametrize("n", [561, 1105, 1729, 41041,
                               2147483647 * 2147483629])
def test_is_prime_rejects_carmichael_numbers_and_semiprimes(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="prime"):
        FieldSpec(n)


@pytest.mark.parametrize("p", [2**61 - 1, 2**64 - 59])
def test_huge_primes_are_accepted_at_once(p):
    start = time.perf_counter()
    assert GF(p).characteristic == p
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("n", [2**64, 2**64 + 13, 2**89 - 1])
def test_characteristic_of_64_bits_or_more_is_refused(n):
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        FieldSpec(n)


def test_fieldspec_coerce_fraction_mod_p():
    f = GF(7)
    assert f.coerce(Fraction(1, 2)) == 4
    assert f.coerce(-1) == 6
    with pytest.raises(ZeroDivisionError):
        f.coerce(Fraction(1, 7))


def test_rational_scalars_stay_int_while_integral():
    assert type(QQ.coerce(Fraction(4, 2))) is int
    assert type(QQ.coerce(3)) is int
    assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)
    assert type(QQ.one) is int and type(QQ.zero) is int
    assert QQ.inv(-1) == -1 and QQ.inv(1) == 1
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(Fraction(1, 3))) is int


@pytest.mark.parametrize("f", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("bad", [0.5, 2.0, "1", Decimal("1"), True, None])
def test_coerce_rejects_non_exact_scalars(f, bad):
    with pytest.raises(TypeError, match=type(bad).__name__):
        f.coerce(bad)


def add_term_reference(sum_: dict, key, coeff, field: FieldSpec):
    """The term-by-term accumulator the package once used: each sum
    reduced as a term is added, and a key whose coefficient cancels
    removed at once (so it moves to the end if it comes back)."""
    if not coeff:
        return
    p = field.characteristic
    v = (sum_.get(key, 0) + coeff) % p if p else sum_.get(key, 0) + coeff
    if v:
        sum_[key] = v
    else:
        sum_.pop(key, None)


# terms on few keys, so that keys cancel and come back
formal_terms = st.lists(
    st.tuples(st.sampled_from(["a", "b", ("c", 1), 4]),
              st.one_of(st.sampled_from([1, -1, 2, Fraction(-1, 2)]),
                        st.integers(-2**70, 2**70),
                        st.fractions(max_denominator=12)),
              st.integers(-5, 5)),
    max_size=40)


@settings(max_examples=300, deadline=None)
@given(char=st.sampled_from([2, 3, 2**61 - 1, 0]), terms=formal_terms)
@example(char=0, terms=[("a", Fraction(1, 2), 2), ("b", 1, 1),
                        ("a", -1, 1), ("a", 3, 1)])
@example(char=3, terms=[("a", 1, 1), ("b", 1, 1), ("a", 2, 1),
                        ("a", 1, 4)])
def test_plain_accumulation_reduced_once_matches_term_by_term(char, terms):
    f = FieldSpec(char)
    want: dict = {}
    got: dict = {}
    for key, c, v in terms:
        if char and c.denominator % char == 0:
            continue
        term = f.coerce(c) * v
        add_term_reference(want, key, term, f)
        got[key] = got.get(key, 0) + term
    assert f.canonical(got) == want
    if char:
        assert all(type(v) is int and 0 < v < char
                   for v in f.canonical(got).values())


LEG_LABELS = ["a", "b", ("c", 1)]
leg_scalars = st.builds(Fraction, st.integers(-4, 4),
                        st.sampled_from([1, 5, 7]))


def leg_tables(length):
    """label -> formal sum on tuples of labels; length is the tuple length,
    or None for any length up to 2."""
    words = (st.lists(st.sampled_from(LEG_LABELS), max_size=2)
             if length is None else
             st.lists(st.sampled_from(LEG_LABELS), min_size=length,
                      max_size=length))
    return st.dictionaries(
        st.sampled_from(LEG_LABELS),
        st.dictionaries(words.map(tuple), leg_scalars, max_size=3))


def leg_map(table, field: FieldSpec):
    return lambda x: {u: field.coerce(w) for u, w in table.get(x, {}).items()}


def tensor_apply_reference(vec, maps, field: FieldSpec) -> dict:
    """Term by term: each choice of one term per leg, its tuples joined
    in order and its scalars multiplied, added to a reduced sum."""
    out: dict = {}
    for key, c in vec.items():
        images = [{(x,): 1} if g is None else g(x) for x, g in zip(key, maps)]
        for parts in itertools.product(*(img.items() for img in images)):
            add_term_reference(out, sum((u for u, _ in parts), ()),
                               c * math.prod(w for _, w in parts), field)
    return out


@settings(max_examples=200, deadline=None)
@given(char=st.sampled_from([2, 3, 2**61 - 1, 0]), data=st.data())
def test_tensor_apply_matches_term_by_term(char, data):
    f = FieldSpec(char)
    k = data.draw(st.integers(1, 3))
    vec = {key: f.coerce(c) for key, c in data.draw(st.dictionaries(
        st.lists(st.sampled_from(LEG_LABELS), min_size=k,
                 max_size=k).map(tuple), leg_scalars, max_size=5)).items()}
    maps = [None if table is None else leg_map(table, f) for table in
            data.draw(st.lists(st.one_of(st.none(), leg_tables(None)),
                               min_size=k, max_size=k))]
    assert tensor_apply(vec, maps, f) == tensor_apply_reference(vec, maps, f)
    assert tensor_apply(vec, [None] * k, f) == f.canonical(vec)
    # (f (x) g) after (h (x) k) is (f h (x) g k), for inner maps h, k
    # with single labels as values
    inner = [leg_map(table, f) for table in data.draw(
        st.lists(leg_tables(1), min_size=k, max_size=k))]

    def composite(g, h):
        if g is None:
            return h
        return lambda x: tensor_apply_reference(h(x), [g], f)

    assert (tensor_apply(tensor_apply(vec, inner, f), maps, f)
            == tensor_apply(vec, list(map(composite, maps, inner)), f))


def test_rank_examples_over_q():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]], QQ)
    assert linalg.rank(m, QQ) == 2
    assert linalg.rank(mat([[0, 0], [0, 0]], QQ), QQ) == 0


def test_rank_depends_on_characteristic():
    # det = 5, so the matrix drops rank exactly over F_5.
    rows = [[1, 2], [3, 11]]
    assert linalg.rank(mat(rows, QQ), QQ) == 2
    assert linalg.rank(mat(rows, GF(5)), GF(5)) == 1
    assert linalg.rank(mat(rows, GF(3)), GF(3)) == 2


def test_kernel_basis_example_mod_5():
    f = GF(5)
    m = mat([[1, 2, 3], [2, 4, 6]], f)
    basis = linalg.kernel_basis(m, f)
    assert len(basis) == 2
    for v in basis:
        assert not m.apply(v, f)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    nrows=st.integers(1, 4),
    ncols=st.integers(1, 4),
    data=st.data(),
)
def test_kernel_matches_brute_force_enumeration(p, nrows, ncols, data):
    rows = data.draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    f = GF(p)
    m = mat(rows, f)
    basis = linalg.kernel_basis(m, f)
    kernel = brute_kernel(rows, ncols, p)
    assert p ** len(basis) == len(kernel)
    for v in basis:
        tup = tuple(v.get(j, 0) for j in range(ncols))
        assert tup in kernel


@settings(max_examples=60, deadline=None)
@given(
    char=st.sampled_from([0, 2, 3, 7]),
    nrows=st.integers(0, 5),
    ncols=st.integers(0, 5),
    data=st.data(),
)
def test_rank_nullity(char, nrows, ncols, data):
    f = FieldSpec(char)
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    entries = {
        (i, j): f.coerce(v)
        for i, row in enumerate(rows)
        for j, v in enumerate(row)
        if v % (char or 10**9)
    }
    m = Matrix(nrows, ncols, entries)
    assert linalg.rank(m, f) + len(linalg.kernel_basis(m, f)) == ncols


@settings(max_examples=40, deadline=None)
@given(
    char=st.sampled_from([0, 3]),
    nrows=st.integers(1, 4),
    ncols=st.integers(1, 4),
    data=st.data(),
)
def test_solve_recovers_member_of_column_space(char, nrows, ncols, data):
    f = FieldSpec(char)
    rows = data.draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    x = {
        j: f.coerce(c)
        for j, c in enumerate(data.draw(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)))
        if c
    }
    m = mat(rows, f)
    b = m.apply(x, f)
    (sol,) = linalg.solve(m, [b], f)
    assert m.apply(sol, f) == b


def test_solve_raises_outside_column_space():
    f = QQ
    m = mat([[1, 0], [0, 0]], f)
    with pytest.raises(NoSolution):
        linalg.solve(m, [{1: Fraction(1)}], f)


def test_solve_many_targets_at_once():
    # column space of m is {x : x2 = x0 + x1}
    f = GF(7)
    m = mat([[1, 0], [0, 1], [1, 1]], f)
    inside = [{0: 1, 2: 1}, {0: 2, 1: 3, 2: 5}, {}]
    sols = linalg.solve(m, inside, f)
    assert sols == [linalg.solve(m, [b], f)[0] for b in inside]
    assert sols == [{0: 1}, {0: 2, 1: 3}, {}]
    with pytest.raises(NoSolution, match="target 1 "):
        linalg.solve(m, [inside[0], {2: 1}, inside[1]], f)


def reversed_indices(vecs, n):
    """The vectors with their n indices numbered in reverse."""
    return [{n - 1 - j: v for j, v in vec.items()} for vec in vecs]


def reduce_and_reeliminate(d_out, d_in, f):
    """Homology at the middle of d_in, d_out by reducing every cycle,
    each vector read at its greatest index: with the indices numbered
    in reverse, the kernel basis of d_out, each vector reduced modulo
    the RREF rows of d_in^T, and one RREF of what is left, numbered
    back.  Returns (dim, representatives, boundary rows): the oracle for
    homology_reps and for a table's boundary rows, in their order."""
    n = d_out.ncols
    bnd, pivots = linalg.rref(
        Matrix.from_rows(reversed_indices(d_in.columns(), n), n), f)
    reduced = [r for z in reversed_indices(linalg.kernel_basis(d_out, f), n)
               if (r := linalg.reduce_mod_span(z, bnd, pivots, f))]
    reps = linalg.rref(Matrix.from_rows(reduced, n), f)[0]
    return (len(reps), reversed_indices(reps[::-1], n),
            reversed_indices(bnd, n))


def boundary_pivots(d_in, f):
    n = d_in.nrows
    return {n - 1 - c for c in linalg.rref(Matrix.from_rows(
        reversed_indices(d_in.columns(), n), n), f, reduced=False)[1]}


def test_homology_of_small_complex():
    # 0 -> k^2 --d_in--> k^3 --d_out--> k, d_out d_in = 0.
    f = QQ
    d_in = mat([[1, 0], [0, 1], [1, 1]], f)
    d_out = mat([[1, 1, -1]], f)
    assert linalg.homology_reps(d_out, boundary_pivots(d_in, f), f) == []
    assert reduce_and_reeliminate(d_out, d_in, f)[:2] == (0, [])


def test_homology_with_zero_differentials():
    f = GF(2)
    d_in = Matrix(3, 0)
    d_out = Matrix(0, 3)
    reps = linalg.homology_reps(d_out, boundary_pivots(d_in, f), f)
    assert reps == [{0: 1}, {1: 1}, {2: 1}]
    assert reduce_and_reeliminate(d_out, d_in, f) == (3, reps, [])


@pytest.mark.parametrize("reduced", [True, False])
def test_rational_rref_keeps_integral_entries_ints(reduced):
    # pivots 2 and 4 scale their rows by 1/2 and 1/4: every entry is
    # integral all the same, and must come back as an int, not a Fraction.
    # Without back-substitution a row is scaled only once another row is
    # reduced by it, so the last row keeps its pivot entry 4
    rows, pivots = linalg._rref_sparse(
        [{0: 2, 1: 4, 2: 6}, {0: 1, 1: 3, 2: 5}, {1: 2, 2: 8}], QQ, reduced)
    assert pivots == [0, 1, 2]
    assert rows == ([{0: 1}, {1: 1}, {2: 1}] if reduced else
                    [{0: 1, 1: 2, 2: 3}, {1: 1, 2: 2}, {2: 4}])
    assert all(type(v) is int for row in rows for v in row.values())
    # a non-integral entry stays a Fraction; the second row is reduced by
    # the first, so the first is scaled either way
    rows, _ = linalg._rref_sparse([{0: 2, 1: 3}, {0: 2, 1: 3, 2: 1}], QQ,
                                  reduced)
    assert rows == [{0: 1, 1: Fraction(3, 2)}, {2: 1}]
    assert type(rows[0][0]) is int and type(rows[0][1]) is Fraction


def random_sparse(rnd, nrows, ncols, density, f):
    """A random matrix over f with about density * nrows * ncols entries."""
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rnd.random() < density:
                v = f.coerce(rnd.choice([-3, -2, -1, 1, 2, 3, 5]))
                if v:
                    entries[(i, j)] = v
    return Matrix(nrows, ncols, entries)


def low_rank_sparse(rnd, nrows, ncols, density, f):
    """A product of two random sparse matrices through a narrow middle,
    so rows collide on pivots and the rank drops."""
    k = rnd.randint(1, 4)
    a = random_sparse(rnd, nrows, k, 0.6, f)
    b = random_sparse(rnd, k, ncols, density, f)
    return Matrix.from_columns([a.apply(col, f) for col in b.columns()],
                               nrows)


sparse_matrices = st.tuples(
    st.randoms(use_true_random=False), st.integers(0, 12), st.integers(0, 12),
    st.sampled_from([0.1, 0.2, 0.3, 0.4]), st.booleans())


def draw_matrix(params, f):
    rnd, nrows, ncols, density, low_rank = params
    build = low_rank_sparse if low_rank else random_sparse
    return build(rnd, nrows, ncols, density, f)


@settings(max_examples=80, deadline=None)
@given(char=st.sampled_from([0, 2, 3, 7]), params=sparse_matrices)
def test_rref_matches_the_dense_oracles(char, params):
    f = FieldSpec(char)
    m = draw_matrix(params, f)
    rows = m.rows
    if char:
        want = linalg._rref_modp_dense(rows, m.ncols, char)
    else:
        want = linalg._rref_fraction_dense(rows, m.ncols)
    assert linalg.rref(m, f) == want
    # without back-substitution: an echelon form of the same row space,
    # each row led by a nonzero entry at its pivot
    echelon, pivots = linalg.rref(m, f, reduced=False)
    assert pivots == want[1]
    assert [min(r) for r in echelon] == pivots
    assert all(r[c] for r, c in zip(echelon, pivots))
    assert linalg._rref_sparse(echelon, f) == want


@settings(max_examples=80, deadline=None)
@given(char=st.sampled_from([0, 2, 3, 4294967311, 2**61 - 1]),
       params=sparse_matrices)
def test_rank_is_the_length_of_the_rref(char, params):
    f = FieldSpec(char)
    m = draw_matrix(params, f)
    rank = linalg.rank(m, f)
    assert rank == len(linalg.rref(m, f)[0])
    # last=True: each row 1 at its greatest index, its pivot, and 0 at
    # every other pivot, spanning the row space of m
    rows, pivots = linalg.rref(m, f, last=True)
    assert [(max(r), r[max(r)]) for r in rows] == [(c, 1) for c in pivots]
    assert all(c == pc or c not in row for row, pc in zip(rows, pivots)
               for c in pivots)
    assert len(rows) == rank
    assert linalg.rref(Matrix.from_rows(rows, m.ncols), f) == linalg.rref(m, f)
    # the oracle: least-index rref with the columns numbered in reverse,
    # its rows and pivots numbered back
    n = m.ncols
    want_rows, want_pivots = linalg.rref(
        Matrix.from_rows(reversed_indices(m.rows, n), n), f)
    want_pivots = [n - 1 - c for c in want_pivots]
    assert (rows, pivots) == (reversed_indices(want_rows, n), want_pivots)
    assert linalg.rref(m, f, reduced=False, last=True)[1] == want_pivots


@settings(max_examples=60, deadline=None)
@given(char=st.sampled_from([0, 2, 3]), rnd=st.randoms(use_true_random=False),
       nrows=st.integers(0, 6), ncols=st.integers(0, 6))
def test_a_matrix_is_its_rows_however_it_is_built(char, rnd, nrows, ncols):
    f = FieldSpec(char)
    # random sparse entries, zero values included
    entries = {(i, j): f.coerce(rnd.randint(-2, 2))
               for i in range(nrows) for j in range(ncols)
               if rnd.random() < 0.4}
    nonzero = {ij: v for ij, v in entries.items() if v}
    rows = [{j: v for (k, j), v in nonzero.items() if k == i}
            for i in range(nrows)]
    cols = [{i: v for (i, k), v in nonzero.items() if k == j}
            for j in range(ncols)]
    x = {j: f.coerce(rnd.randint(-2, 2)) for j in range(ncols)}
    image: dict = {}
    for (i, j), v in nonzero.items():
        image[i] = image.get(i, 0) + v * x[j]
    with_zeros = [{i: v for (i, k), v in entries.items() if k == j}
                  for j in range(ncols)]
    for m in (Matrix(nrows, ncols, entries),
              Matrix.from_columns(with_zeros, nrows),
              Matrix.from_rows(rows, ncols)):
        assert (m.nrows, m.ncols) == (nrows, ncols)
        assert m.rows == rows
        assert m.entries == nonzero
        assert m.columns() == cols
        assert m.apply(x, f) == f.canonical(image)


def test_large_prime_takes_the_exact_sparse_path():
    # p**2 > 2**63 would overflow the int64 dense kernel.
    p = 4294967311
    f = GF(p)
    rng = np.random.default_rng(1)
    a = [[int(x) for x in row] for row in rng.integers(0, p, size=(6, 5))]
    b = [[int(x) for x in row] for row in rng.integers(0, p, size=(5, 6))]
    prod = [[sum(a[i][k] * b[k][j] for k in range(5)) % p for j in range(6)]
            for i in range(6)]
    m = mat(prod, f)
    rows, pivots = linalg.rref(m, f)
    assert len(rows) == linalg.rank(m, f) == 5
    for row, pc in zip(rows, pivots):
        assert min(row) == pc and row[pc] == 1


def test_dense_mod_p_oracle_refuses_a_prime_of_31_bits_or_more():
    # at p = 2**61 - 1 the int64 kernel wraps and returns a wrong RREF
    rows = [{0: 3, 1: 5}, {0: 7, 1: 11}, {0: 10, 1: 16}]
    assert linalg._rref_modp_dense(rows, 2, 2**31 - 1) == (
        [{0: 1}, {1: 1}], [0, 1])
    for p in (2**31 + 11, 2**61 - 1):
        with pytest.raises(ValueError, match=r"p < 2\*\*31"):
            linalg._rref_modp_dense(rows, 2, p)


def test_elimination_refuses_a_wrong_inverse():
    # without the check, a pivot row that is not 1 at its pivot never
    # clears that column and the forward elimination loops forever
    class WrongInverse(FieldSpec):
        def inv(self, a):
            return a

    with pytest.raises(AssertionError, match="not an inverse"):
        linalg.rref(mat([[2, 1], [4, 3]], QQ), WrongInverse(0))


@settings(max_examples=120, deadline=None)
@given(char=st.sampled_from([2, 3, 2**61 - 1, 0]), params=sparse_matrices,
       reduced=st.booleans(), last=st.booleans(),
       rnd=st.randoms(use_true_random=False))
def test_rref_never_changes_the_rows_it_borrows(char, params, reduced, last,
                                                rnd):
    # rref copies a row only to change it: whatever it scales, reduces or
    # back-substitutes, the caller's rows are left as they were, also when
    # one row object stands at several places or a row holds a zero
    f = FieldSpec(char)
    m = draw_matrix(params, f)
    rows = [rnd.choice(m.rows) if rnd.random() < 0.3 else row
            for row in m.rows]
    rows = [{**row, rnd.randrange(m.ncols): 0}
            if m.ncols and rnd.random() < 0.2 else row for row in rows]
    borrowed = Matrix.from_rows(rows, m.ncols)
    before = copy.deepcopy(rows)
    got = linalg.rref(borrowed, f, reduced=reduced, last=last)
    assert borrowed.rows == before
    assert got == linalg.rref(
        Matrix.from_rows([f.canonical(row) for row in before], m.ncols), f,
        reduced=reduced, last=last)


@settings(max_examples=60, deadline=None)
@given(char=st.sampled_from([0, 2, 3]), rnd=st.randoms(use_true_random=False),
       ncols=st.integers(0, 10))
def test_kernel_of_matches_a_hand_indexed_matrix(char, rnd, ncols):
    f = FieldSpec(char)
    keys = [("k", i) for i in range(8)]
    # random sparse formal sums on tuple keys, zero coefficients included
    images = {("col", j): {k: f.coerce(rnd.randint(-2, 2))
                           for k in rnd.sample(keys, rnd.randint(0, 5))}
              for j in range(ncols)}
    idx: dict = {}
    cols = []
    for img in images.values():
        cols.append({idx.setdefault(k, len(idx)): v for k, v in img.items()})
    by_hand = Matrix.from_columns(cols, len(idx))
    keyed = linalg.keyed_matrix(images.values())
    assert (keyed.nrows, keyed.ncols, keyed.entries) == (
        by_hand.nrows, by_hand.ncols, by_hand.entries)
    labels = list(images)
    want = [{labels[j]: v for j, v in vec.items()}
            for vec in linalg.kernel_basis(by_hand, f)]
    got = linalg.kernel_of(images, f)
    assert got == want
    assert [list(v) for v in got] == [list(v) for v in want]


@settings(max_examples=40, deadline=None)
@given(char=st.sampled_from([0, 2, 3]), rnd=st.randoms(use_true_random=False))
def test_keyed_solve_writes_each_target_in_the_columns(char, rnd):
    f = FieldSpec(char)
    keys = ["a", "b", ("c", 1), ("c", 2), 5]
    columns = [{k: f.coerce(rnd.randint(-2, 2))
                for k in rnd.sample(keys, rnd.randint(0, 4))}
               for _ in range(rnd.randint(0, 5))]
    targets = []
    for _ in range(3):
        target: dict = {}
        for col in columns:
            c = f.coerce(rnd.randint(-2, 2))
            for k, v in col.items():
                target[k] = target.get(k, 0) + c * v
        targets.append(f.canonical(target))
    for target, sol in zip(targets,
                           linalg.keyed_solve(columns, targets, f)):
        got: dict = {}
        for j, c in sol.items():
            for k, v in columns[j].items():
                got[k] = got.get(k, 0) + c * v
        assert f.canonical(got) == target
    with pytest.raises(NoSolution):
        linalg.keyed_solve(columns, [{"outside": f.one}], f)


def kernel_basis_per_free_column(m, field):
    """kernel_basis as it was first written: each free column looked up
    in every RREF row."""
    rows, pivots = linalg.rref(m, field)
    free = [j for j in range(m.ncols) if j not in set(pivots)]
    basis = []
    for f in free:
        vec = {f: field.one}
        for row, pc in zip(rows, pivots):
            v = row.get(f)
            if v:
                vec[pc] = field.neg(v)
        basis.append(vec)
    return basis


@settings(max_examples=80, deadline=None)
@given(char=st.sampled_from([0, 2, 3]), params=sparse_matrices)
def test_kernel_basis_matches_the_per_free_column_loop(char, params):
    f = FieldSpec(char)
    m = draw_matrix(params, f)
    got = linalg.kernel_basis(m, f)
    want = kernel_basis_per_free_column(m, f)
    assert got == want
    assert [list(v) for v in got] == [list(v) for v in want]
    for vec in got:
        assert not m.apply(vec, f)


@settings(max_examples=80, deadline=None)
@given(char=st.sampled_from([0, 2, 3]), params=sparse_matrices,
       rnd=st.randoms(use_true_random=False))
def test_homology_reps_match_reducing_every_cycle(char, params, rnd):
    # d_out's rows are random combinations of vectors that vanish on
    # im d_in, so d_out d_in = 0
    f = FieldSpec(char)
    d_in = draw_matrix(params, f)
    annihilators = linalg.kernel_basis(
        Matrix.from_rows(d_in.columns(), d_in.nrows), f)
    rows = []
    for _ in range(rnd.randint(0, 4)):
        row: dict = {}
        for vec in annihilators:
            c = f.coerce(rnd.choice([0, 0, 1, -1, 2]))
            for j, v in vec.items():
                row[j] = row.get(j, 0) + c * v
        rows.append(f.canonical(row))
    d_out = Matrix.from_rows(rows, d_in.nrows)
    assert not [c for c in d_in.columns() if d_out.apply(c, f)]
    dim, want, _ = reduce_and_reeliminate(d_out, d_in, f)
    got = linalg.homology_reps(d_out, boundary_pivots(d_in, f), f)
    assert got == want
    assert dim == (d_in.nrows - linalg.rank(d_out, f)
                   - linalg.rank(d_in, f))
