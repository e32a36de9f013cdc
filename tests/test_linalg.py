import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohh import linalg
from cohh.fields import GF, QQ, FieldSpec
from cohh.graded import sub_sums
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


def test_fieldspec_coerce_fraction_mod_p():
    f = GF(7)
    assert f.coerce(Fraction(1, 2)) == 4
    assert f.coerce(-1) == 6
    with pytest.raises(ZeroDivisionError):
        f.coerce(Fraction(1, 7))


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
    assert sub_sums(m.apply(sol, f), b, f) == {}


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


def test_homology_of_small_complex():
    # 0 -> k^2 --d_in--> k^3 --d_out--> k, d_out d_in = 0.
    f = QQ
    d_in = mat([[1, 0], [0, 1], [1, 1]], f)
    d_out = mat([[1, 1, -1]], f)
    dim, reps, boundaries = linalg.homology_reps(d_out, d_in, f)
    assert dim == 0
    assert reps == []
    assert boundaries == linalg.rref(d_in.transpose(), f)[0]


def test_homology_with_zero_differentials():
    f = GF(2)
    d_in = Matrix(3, 0)
    d_out = Matrix(0, 3)
    dim, reps, boundaries = linalg.homology_reps(d_out, d_in, f)
    assert dim == 3
    assert boundaries == []


def test_homology_refuses_a_nonzero_square():
    f = QQ
    d_in = mat([[1, 0], [0, 1], [1, 1]], f)
    d_out = mat([[1, 1, -2]], f)
    with pytest.raises(AssertionError, match="nonzero"):
        linalg.homology_reps(d_out, d_in, f)


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
    rows = linalg._rows_of(m)
    if char:
        want = linalg._rref_modp_dense(rows, m.ncols, char)
    else:
        want = linalg._rref_fraction_dense(rows, m.ncols)
    assert linalg.rref(m, f) == want


@settings(max_examples=80, deadline=None)
@given(char=st.sampled_from([0, 2, 3, 4294967311]), params=sparse_matrices)
def test_rank_is_the_length_of_the_rref(char, params):
    f = FieldSpec(char)
    m = draw_matrix(params, f)
    assert linalg.rank(m, f) == len(linalg.rref(m, f)[0])


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


def test_complete_basis_appends_the_missing_unit_vectors():
    f = GF(3)
    assert linalg.complete_basis([{0: 1, 1: 1}], 3, f) == [
        {0: 1, 1: 1}, {0: 1}, {2: 1}]
    with pytest.raises(AssertionError):
        linalg.complete_basis([{0: 1}, {0: 2}], 2, f)
