"""Exact linear algebra over Q and F_p.

Vectors are sparse dicts {index: scalar}; matrices are sparse dicts
{(row, col): scalar} wrapped in Matrix.  All reductions go through
reduced row echelon form, which is unique, so kernel bases, solved
coordinates and homology representatives are deterministic.

Three elimination paths share the RREF contract:
  * dense numpy int64 for F_p (numba-jitted kernel, see _kernels),
  * dense Fraction rows for Q,
  * a sparse dict-of-rows elimination over either field, used above a
    size threshold where dense fill-in would dominate, and for primes
    too large for the int64 kernel.
"""

from fractions import Fraction

import numpy as np

from . import _kernels
from .fields import FieldSpec

# Above this many dense cells, switch to the sparse elimination path.
DENSE_CELL_LIMIT = 4_000_000
# The int64 kernel needs products of two reduced entries to fit: p < 2**31.
DENSE_PRIME_LIMIT = 2 ** 31


class Matrix:
    """Sparse matrix with explicit shape over a FieldSpec."""

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries = dict(entries or {})

    @classmethod
    def from_columns(cls, columns, nrows: int) -> "Matrix":
        m = cls(nrows, len(columns))
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v:
                    m.entries[(i, j)] = v
        return m

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def columns(self):
        cols = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def transpose(self) -> "Matrix":
        return Matrix(
            self.ncols,
            self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()},
        )

    def apply(self, vec: dict, field: FieldSpec) -> dict:
        out: dict = {}
        for (i, j), v in self.entries.items():
            c = vec.get(j)
            if c:
                out[i] = field.add(out.get(i, field.zero), field.mul(v, c))
        return {i: v for i, v in out.items() if v}

    def hstack(self, other: "Matrix") -> "Matrix":
        assert self.nrows == other.nrows
        m = Matrix(self.nrows, self.ncols + other.ncols, dict(self.entries))
        for (i, j), v in other.entries.items():
            m.entries[(i, j + self.ncols)] = v
        return m

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and {k: v for k, v in self.entries.items() if v}
            == {k: v for k, v in other.entries.items() if v}
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


def _rows_of(m: Matrix):
    rows = [dict() for _ in range(m.nrows)]
    for (i, j), v in m.entries.items():
        if v:
            rows[i][j] = v
    return rows


def _rref_sparse(rows, ncols, field: FieldSpec):
    """Sparse RREF over any FieldSpec; rows is a list of dict rows.

    Returns (rref_rows, pivot_cols).  Pivot choice within a column takes
    the sparsest candidate row (Markowitz-style) to limit fill-in; the
    final RREF is canonical regardless.
    """
    work = [dict(r) for r in rows if r]
    done: list = []
    pivots: list = []
    for c in range(ncols):
        cand = [r for r in work if r.get(c)]
        if not cand:
            continue
        row = min(cand, key=len)
        work.remove(row)
        inv = field.inv(row[c])
        row = {j: field.mul(inv, v) for j, v in row.items()}
        for tgt in (work, done):
            for k, other in enumerate(tgt):
                f = other.get(c)
                if f:
                    new = dict(other)
                    for j, v in row.items():
                        w = field.sub(new.get(j, field.zero), field.mul(f, v))
                        if w:
                            new[j] = w
                        else:
                            new.pop(j, None)
                    tgt[k] = new
        work = [r for r in work if r]
        done.append(row)
        pivots.append(c)
    return done, pivots


def _rref_fraction_dense(rows, ncols):
    dense = []
    for r in rows:
        row = [Fraction(0)] * ncols
        for j, v in r.items():
            row[j] = Fraction(v)
        dense.append(row)
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(dense)) if dense[i][c]), None)
        if piv is None:
            continue
        dense[r], dense[piv] = dense[piv], dense[r]
        inv = 1 / dense[r][c]
        dense[r] = [v * inv for v in dense[r]]
        for i in range(len(dense)):
            if i != r and dense[i][c]:
                f = dense[i][c]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[r])]
        r += 1
        pivots.append(c)
    out = []
    for i in range(r):
        out.append({j: v for j, v in enumerate(dense[i]) if v})
    return out, pivots


def _rref_modp_dense(rows, ncols, p):
    a = np.zeros((max(len(rows), 1), ncols), dtype=np.int64)
    for i, r in enumerate(rows):
        for j, v in r.items():
            a[i, j] = v % p
    rank = int(_kernels.rref_mod_p(a, p))
    out = []
    pivots = []
    for i in range(rank):
        row = {int(j): int(a[i, j]) for j in np.nonzero(a[i])[0]}
        out.append(row)
        pivots.append(min(row))
    return out, pivots


def rref(m: Matrix, field: FieldSpec):
    """Reduced row echelon form: returns (rows as sparse dicts, pivot cols)."""
    rows = _rows_of(m)
    cells = m.nrows * m.ncols
    if (cells > DENSE_CELL_LIMIT
            or field.characteristic >= DENSE_PRIME_LIMIT):
        return _rref_sparse(rows, m.ncols, field)
    if field.is_prime_field:
        return _rref_modp_dense(rows, m.ncols, field.characteristic)
    return _rref_fraction_dense(rows, m.ncols)


def rank(m: Matrix, field: FieldSpec) -> int:
    return len(rref(m, field)[0])


def kernel_basis(m: Matrix, field: FieldSpec):
    """Canonical basis of ker(m) (vectors on column indices), from RREF."""
    rows, pivots = rref(m, field)
    pivot_set = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivot_set]
    basis = []
    for f in free:
        vec = {f: field.one}
        for row, pc in zip(rows, pivots):
            v = row.get(f)
            if v:
                vec[pc] = field.neg(v)
        basis.append(vec)
    return basis


def row_space_basis(m: Matrix, field: FieldSpec):
    return rref(m, field)[0]


def column_space_basis(m: Matrix, field: FieldSpec):
    """Canonical basis of the column space, as RREF rows of the transpose."""
    return rref(m.transpose(), field)[0]


class NoSolution(Exception):
    pass


def solve(m: Matrix, targets, field: FieldSpec):
    """Solve m @ x = b for each vector b in targets.

    Returns a list of coordinate dicts (on column indices of m).  Raises
    NoSolution if any target is outside the column space.  Solutions use
    free variables = 0, so they are deterministic.
    """
    targets = list(targets)
    sols = []
    for k, b in enumerate(targets):
        aug = m.hstack(Matrix.from_columns([b], m.nrows))
        rows, pivots = rref(aug, field)
        col = m.ncols
        x: dict = {}
        for row, pc in zip(rows, pivots):
            if pc == col:
                raise NoSolution(f"target {k} not in column space")
            v = row.get(col)
            if v:
                x[pc] = v
        sols.append(x)
    return sols


def _vec_sub(a: dict, b: dict, field: FieldSpec) -> dict:
    out = dict(a)
    for i, v in b.items():
        w = field.sub(out.get(i, field.zero), v)
        if w:
            out[i] = w
        else:
            out.pop(i, None)
    return out


def reduce_mod_span(vec: dict, echelon_rows, pivots, field: FieldSpec) -> dict:
    """Reduce vec modulo the span of echelon_rows (RREF rows with pivots)."""
    out = dict(vec)
    for row, pc in zip(echelon_rows, pivots):
        c = out.get(pc)
        if c:
            for j, v in row.items():
                w = field.sub(out.get(j, field.zero), field.mul(c, v))
                if w:
                    out[j] = w
                else:
                    out.pop(j, None)
    return out


def homology_reps(d_out: Matrix, d_in: Matrix, field: FieldSpec):
    """Homology at the middle term of d_in: C' -> C, d_out: C -> C''.

    Requires d_out @ d_in = 0.  Returns (dim, representatives), where the
    representatives are cycle vectors spanning ker(d_out)/im(d_in),
    echelonized for determinism.
    """
    cycles = kernel_basis(d_out, field)
    img_rows, img_pivots = rref(d_in.transpose(), field)
    reduced = []
    for z in cycles:
        r = reduce_mod_span(z, img_rows, img_pivots, field)
        if r:
            reduced.append(r)
    reps, _ = _rref_sparse(reduced, d_out.ncols, field)
    return len(reps), reps
