import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohh import _kernels, linalg
from cohh.fields import GF, QQ, FieldSpec
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
    assert linalg._vec_sub(m.apply(sol, f), b, f) == {}


def test_solve_raises_outside_column_space():
    f = QQ
    m = mat([[1, 0], [0, 0]], f)
    with pytest.raises(NoSolution):
        linalg.solve(m, [{1: Fraction(1)}], f)


def test_homology_of_small_complex():
    # 0 -> k^2 --d_in--> k^3 --d_out--> k, d_out d_in = 0.
    f = QQ
    d_in = mat([[1, 0], [0, 1], [1, 1]], f)
    d_out = mat([[1, 1, -1]], f)
    dim, reps = linalg.homology_reps(d_out, d_in, f)
    assert dim == 0
    assert reps == []


def test_homology_with_zero_differentials():
    f = GF(2)
    d_in = Matrix(3, 0)
    d_out = Matrix(0, 3)
    dim, reps = linalg.homology_reps(d_out, d_in, f)
    assert dim == 3


def test_sparse_path_matches_dense(monkeypatch):
    rows = [[1, 2, 0, 3], [0, 1, 1, 0], [1, 3, 1, 3], [2, 0, 1, 1]]
    for f in (QQ, GF(5)):
        m = mat(rows, f)
        dense = linalg.rref(m, f)
        monkeypatch.setattr(linalg, "DENSE_CELL_LIMIT", 0)
        sparse = linalg.rref(m, f)
        monkeypatch.undo()
        assert dense == sparse


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
    rows, pivots = linalg._rref_sparse(linalg._rows_of(m), m.ncols, f)
    assert len(rows) == 5
    assert linalg.rref(m, f) == (rows, pivots)


def test_numba_and_numpy_kernels_agree():
    rng = np.random.default_rng(0)
    for p in (2, 3, 7):
        a = rng.integers(0, p, size=(8, 10)).astype(np.int64)
        b = np.ascontiguousarray(a.copy())
        r1 = _kernels._rref_mod_p_numpy(a, p)
        r2 = _kernels._rref_mod_p_python(b, p)
        assert r1 == r2
        assert np.array_equal(a, b)
