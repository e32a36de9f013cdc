"""Exact linear algebra over Q and F_p.

Vectors are sparse dicts {index: scalar}; matrices are sparse dicts
{(row, col): scalar} wrapped in Matrix.  All reductions go through
reduced row echelon form, which is unique, so kernel bases, solved
coordinates and homology representatives are deterministic.

One elimination routine, _rref_sparse, serves every field and size.  It
keeps the reduced rows in a dict keyed by pivot column, reduces each
incoming row only against the pivots its leading entries hit, and
back-substitutes once at the end.  rank is the length of the RREF, so
every elimination is an rref call (perfbench traces rref, not rank).
The differentials this package reduces are about 1%
dense, which is why there is no dense path.  The dense routines
_rref_fraction_dense and _rref_modp_dense are kept only as oracles for
the tests.
"""

import itertools
from fractions import Fraction

import numpy as np

from . import _kernels
from .fields import FieldSpec


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


def _sub_multiple(row: dict, c, other: dict, p: int):
    """row -= c * other in place, mod p when p is nonzero."""
    for j, v in other.items():
        w = row.get(j, 0) - c * v
        if p:
            w %= p
        if w:
            row[j] = w
        else:
            del row[j]


def _echelon(rows, field: FieldSpec) -> dict:
    """Forward elimination: {pivot column: row}, each row 1 at its pivot,
    which is its least column.

    An incoming row is reduced only by the pivot rows its leading entry
    hits.  When it is shorter than the pivot row it hits, it takes that
    pivot and the old pivot row is reduced in its place (Markowitz-style),
    to limit fill-in; the final RREF is canonical regardless.
    """
    p = field.characteristic
    pivots: dict = {}
    for r in rows:
        row = {j: v for j, v in r.items() if v}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None or len(row) < len(prow):
                inv = field.inv(row[c])
                pivots[c] = {j: field.mul(inv, v) for j, v in row.items()}
                if prow is None:
                    break
                row = prow
            else:
                _sub_multiple(row, row[c], prow, p)
    return pivots


def _rref_sparse(rows, field: FieldSpec):
    """Sparse RREF over any FieldSpec; rows is a list of dict rows.

    Returns (rref_rows, pivot_cols), pivots increasing.  Forward
    elimination, then one back-substitution from the last pivot up.
    """
    p = field.characteristic
    pivots = _echelon(rows, field)
    cols = sorted(pivots)
    for c in reversed(cols):
        row = pivots[c]
        # pivot rows right of c are already reduced, so eliminating one
        # hit adds no entry in another pivot column
        for j in [j for j in row if j != c and j in pivots]:
            _sub_multiple(row, row[j], pivots[j], p)
    return [pivots[c] for c in cols], cols


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
    return _rref_sparse(_rows_of(m), field)


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


class NoSolution(Exception):
    pass


def solve(m: Matrix, targets, field: FieldSpec):
    """Solve m @ x = b for each vector b in targets.

    Returns a list of coordinate dicts (on column indices of m).  Raises
    NoSolution if any target is outside the column space.  Solutions use
    free variables = 0, so they are deterministic.  [m | b_1 ... b_k] is
    row-reduced once; the first target outside the column space of m is
    the first one whose column takes a pivot.
    """
    targets = list(targets)
    if not targets:
        return []
    aug = m.hstack(Matrix.from_columns(targets, m.nrows))
    rows, pivots = rref(aug, field)
    sols = [dict() for _ in targets]
    for row, pc in zip(rows, pivots):
        if pc >= m.ncols:
            raise NoSolution(f"target {pc - m.ncols} not in column space")
        for j, v in row.items():
            if j >= m.ncols:
                sols[j - m.ncols][pc] = v
    return sols


def reduce_mod_span(vec: dict, echelon_rows, pivots, field: FieldSpec) -> dict:
    """Reduce vec modulo the span of echelon_rows (RREF rows with pivots)."""
    p = field.characteristic
    out = dict(vec)
    for row, pc in zip(echelon_rows, pivots):
        c = out.get(pc)
        if c:
            _sub_multiple(out, c, row, p)
    return out


def complete_basis(vecs: list, n: int, field: FieldSpec) -> list:
    """vecs, which must be linearly independent, followed by the unit
    vectors {j: 1}, j < n, that are not in the span of the vectors
    before them: a basis of the n-dimensional space."""
    rows: list = []
    pivots: list = []
    out: list = []
    units = ({j: field.one} for j in range(n))
    for k, vec in enumerate(itertools.chain(vecs, units)):
        red = reduce_mod_span(vec, rows, pivots, field)
        if red:
            pc = min(red)
            inv = field.inv(red[pc])
            rows.append({j: field.mul(inv, v) for j, v in red.items()})
            pivots.append(pc)
            out.append(vec)
        elif k < len(vecs):
            raise AssertionError(f"vector {k} is in the span of the ones "
                                 f"before it")
    return out


def check_composite_zero(d_out: Matrix, d_in: Matrix, field: FieldSpec):
    """Raise AssertionError unless d_out @ d_in = 0, column by column.

    Not a ValueError: a complex whose square is nonzero is a fault in
    the program, not bad input.
    """
    p = field.characteristic
    out_cols = d_out.columns()
    for j, col in enumerate(d_in.columns()):
        acc: dict = {}
        for i, v in col.items():
            _sub_multiple(acc, -v, out_cols[i], p)
        if acc:
            raise AssertionError(
                f"d_out @ d_in is nonzero on column {j} of d_in")


def homology_reps(d_out: Matrix, d_in: Matrix, field: FieldSpec):
    """Homology at the middle term of d_in: C' -> C, d_out: C -> C''.

    Checks d_out @ d_in = 0.  Returns (dim, representatives, boundary
    rows): the representatives are cycle vectors spanning
    ker(d_out)/im(d_in), echelonized for determinism, and the boundary
    rows are the RREF rows of d_in^T, a basis of im(d_in).
    """
    check_composite_zero(d_out, d_in, field)
    cycles = kernel_basis(d_out, field)
    img_rows, img_pivots = rref(d_in.transpose(), field)
    reduced = []
    for z in cycles:
        r = reduce_mod_span(z, img_rows, img_pivots, field)
        if r:
            reduced.append(r)
    reps, _ = _rref_sparse(reduced, field)
    return len(reps), reps, img_rows
