"""Exact linear algebra over Q and F_p.

Vectors are sparse dicts {index: scalar}.  A Matrix is its rows, a list
of such vectors with an explicit shape; its entries {(row, col): scalar}
are a view.  All reductions go through reduced row echelon form, which
is unique, so kernel bases, solved coordinates and homology
representatives are deterministic.

One elimination routine, _rref_sparse, serves every field and size.  It
keeps the reduced rows in a dict keyed by pivot column, reduces each
incoming row only against the pivots its leading entries hit, and
back-substitutes once at the end unless only pivots are wanted (rank,
via rref(reduced=False)), so every elimination is an rref call (perfbench
traces rref, not rank).  The pivot of a row is its least index, or with
last=True its greatest.

The eliminator borrows its rows: it copies a row only just before it
changes it, and never changes a dict it is given, so a returned row may
be one of the caller's dicts and is read-only.  A rank-only pass
scales no row it does not reduce by: with reduced=False a pivot row is
scaled to 1 only once another row is reduced by it, so a returned row
is nonzero at its pivot, not necessarily 1.  With reduced=True every
pivot row is scaled when it is stored.

Homology reads a vector at its greatest index, the pivot convention of
persistent homology with clearing.  The kernel_basis vector of a free
column f of rref(m) is 1 at f and 0 at the other free columns, so these
are the last=True RREF rows of ker(m).  A homology table clears from d_s
the columns at the last=True pivots of im d_{s-1}: each is the greatest
index of a y with d_s y = 0, so a combination of earlier columns, and
the rank is kept.  They are free columns of d_s, and homology_reps
keeps the kernel vectors at the other free columns: zero at every
boundary pivot, they need no reduction.

The differentials this package reduces are about 1% dense, which is
why there is no dense path.  The dense routines _rref_fraction_dense
and _rref_modp_dense are kept only as oracles for the tests.

A linear map given as formal sums on arbitrary hashable keys, one sum
per source key, becomes a Matrix through keyed_matrix, which numbers the
target keys in the order they first appear.  kernel_of and keyed_solve
work on such maps and relabel their answers, so every comodule
cotensor, equalizer, primitive space and counit kernel in the package
is a kernel_of call and no caller builds its own row index.  A kernel
depends only on the order of the source keys (the columns), never on
the row numbering, since an RREF is determined by its row space.
"""

from fractions import Fraction

from .fields import FieldSpec


class Matrix:
    """Sparse matrix with explicit shape: its rows, a list of sparse dicts
    {col: scalar}.  from_rows keeps the list it is given; the other
    constructors drop zeros, and so do the views entries and columns()."""

    def __init__(self, nrows: int, ncols: int, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict() for _ in range(nrows)]
        for (i, j), v in (entries or {}).items():
            if v:
                self.rows[i][j] = v

    @classmethod
    def from_columns(cls, columns, nrows: int) -> "Matrix":
        m = cls(nrows, len(columns))
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v:
                    m.rows[i][j] = v
        return m

    @classmethod
    def from_rows(cls, rows, ncols: int) -> "Matrix":
        m = cls(0, ncols)
        m.nrows, m.rows = len(rows), rows
        return m

    @property
    def entries(self) -> dict:
        return {(i, j): v for i, row in enumerate(self.rows)
                for j, v in row.items() if v}

    def columns(self):
        cols = [dict() for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                if v:
                    cols[j][i] = v
        return cols

    def apply(self, vec: dict, field: FieldSpec) -> dict:
        return field.canonical({
            i: sum(v * vec.get(j, 0) for j, v in row.items())
            for i, row in enumerate(self.rows)})


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


def _scaled(row: dict, c, field: FieldSpec) -> dict:
    """row divided by its entry at c: row itself if that entry is 1, else
    a new dict.  Refuses an inv that is not an inverse, since reducing by
    a row that is not 1 at its pivot would never clear that column."""
    a = row[c]
    if a == 1:
        return row
    inv = field.inv(a)
    p = field.characteristic
    if p:
        row = {j: v * inv % p for j, v in row.items()}
    elif inv == -1:
        row = {j: -v for j, v in row.items()}
    else:
        # a non-unit pivot over Q: integral entries stay ints
        coerce = field.coerce
        row = {j: coerce(v * inv) for j, v in row.items()}
    if row[c] != 1:
        raise AssertionError(f"{field}.inv({a!r}) is not an inverse")
    return row


def _echelon(rows, field: FieldSpec, last=False, scale=True) -> dict:
    """Forward elimination: {pivot column: row}.  The pivot of a row is
    its least column, or its greatest when last is set.

    Rows are borrowed: a row is copied only just before it is changed,
    by a subtraction or a scaling, and one holding a zero is copied
    without its zeros, so a stored row may be the caller's dict.  With
    scale set a pivot row is scaled to 1 at its pivot when it is stored;
    without, only once another row is reduced by it, so a stored row is
    only known to be nonzero at its pivot.

    An incoming row is reduced only by the pivot rows its leading entry
    hits.  When it is shorter than the pivot row it hits, it takes that
    pivot and the old pivot row is reduced in its place (Markowitz-style),
    to limit fill-in; the final RREF is canonical regardless.
    """
    p = field.characteristic
    lead = max if last else min
    pivots: dict = {}
    for row in rows:
        if not all(row.values()):
            row = {j: v for j, v in row.items() if v}
        owned = False
        while row:
            c = lead(row)
            prow = pivots.get(c)
            if prow is None or len(row) < len(prow):
                # a displaced pivot row is reduced by row next, so row is
                # scaled then even without scale
                pivots[c] = (_scaled(row, c, field)
                             if scale or prow is not None else row)
                if prow is None:
                    break
                row, owned = prow, False
            else:
                if prow[c] != 1:
                    prow = pivots[c] = _scaled(prow, c, field)
                if not owned:
                    row, owned = dict(row), True
                _sub_multiple(row, row[c], prow, p)
    return pivots


def _rref_sparse(rows, field: FieldSpec, reduced=True, last=False):
    """Sparse RREF over any FieldSpec; rows is a list of dict rows, which
    are borrowed and never changed.

    Returns (rref_rows, pivot_cols), pivots increasing, or decreasing
    when last is set.  Forward elimination, then one back-substitution
    from the last pivot up, which copies a pivot row only if it has an
    entry to clear.  With reduced=False there is none, and the rows are
    an echelon form, each nonzero but not necessarily 1 at its pivot.
    A returned row may be one of the given dicts, and is read-only.
    """
    p = field.characteristic
    pivots = _echelon(rows, field, last, reduced)
    cols = sorted(pivots, reverse=last)
    if reduced:
        for c in reversed(cols):
            # the pivot rows on the far side of c are already reduced, so
            # eliminating one hit adds no entry in another pivot column
            hits = [j for j in pivots[c] if j != c and j in pivots]
            if hits:
                row = pivots[c] = dict(pivots[c])
                for j in hits:
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
    if p >= 2**31:
        raise ValueError(f"the dense mod-p kernel needs p < 2**31, got {p}")
    # numpy, and _kernels, which imports it, are imported here, so that
    # importing the package never loads numpy
    import numpy as np

    from . import _kernels
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


def rref(m: Matrix, field: FieldSpec, reduced=True, last=False):
    """Reduced row echelon form: returns (rows as sparse dicts, pivot cols).
    reduced=False skips the back-substitution and the scaling of rows
    nothing is reduced by: the pivots are the same, and each row is
    nonzero at its pivot.  last=True pivots each row at its greatest
    index.  The rows of m are borrowed and left unchanged; a returned
    row may be one of them, and is read-only."""
    return _rref_sparse(m.rows, field, reduced, last)


def rank(m: Matrix, field: FieldSpec) -> int:
    return len(rref(m, field, reduced=False)[1])


def kernel_basis(m: Matrix, field: FieldSpec):
    """Canonical basis of ker(m) (vectors on column indices), from RREF."""
    rows, pivots = rref(m, field)
    pivot_set = set(pivots)
    vecs = {j: {j: field.one} for j in range(m.ncols) if j not in pivot_set}
    # one pass over the rows: a non-pivot entry (f, v) of the row with
    # pivot pc puts -v at pc in free column f's vector
    for row, pc in zip(rows, pivots):
        for f, v in row.items():
            if f != pc:
                vecs[f][pc] = field.neg(v)
    return list(vecs.values())


def keyed_matrix(columns) -> Matrix:
    """The matrix whose column j is the formal sum columns[j], with rows
    numbered by the keys in the order they first appear."""
    rows: dict = {}
    return Matrix.from_columns(
        [{rows.setdefault(k, len(rows)): v for k, v in col.items()}
         for col in columns], len(rows))


def kernel_of(images: dict, field: FieldSpec):
    """Kernel of the linear map sending each key of images to its formal
    sum, as formal sums on those keys.  It is kernel_basis of the
    keyed_matrix, so it depends on the order of images only."""
    keys = list(images)
    return [{keys[j]: v for j, v in vec.items()}
            for vec in kernel_basis(keyed_matrix(images.values()), field)]


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
    aug = Matrix.from_columns(m.columns() + targets, m.nrows)
    rows, pivots = rref(aug, field)
    sols = [dict() for _ in targets]
    for row, pc in zip(rows, pivots):
        if pc >= m.ncols:
            raise NoSolution(f"target {pc - m.ncols} not in column space")
        for j, v in row.items():
            if j >= m.ncols:
                sols[j - m.ncols][pc] = v
    return sols


def keyed_solve(columns, targets, field: FieldSpec):
    """solve for formal sums on arbitrary keys: the coordinates x of each
    target with sum_j x_j columns[j] = target, on column positions."""
    m = keyed_matrix(list(columns) + list(targets))
    cols = m.columns()
    return solve(Matrix.from_columns(cols[:len(columns)], m.nrows),
                 cols[len(columns):], field)


def reduce_mod_span(vec: dict, echelon_rows, pivots, field: FieldSpec) -> dict:
    """Reduce vec modulo the span of echelon_rows (RREF rows with pivots)."""
    p = field.characteristic
    out = dict(vec)
    for row, pc in zip(echelon_rows, pivots):
        c = out.get(pc)
        if c:
            _sub_multiple(out, c, row, p)
    return out


def first_nonzero_composite(out_cols, in_cols, field: FieldSpec):
    """The index of the first column of d_in on which d_out @ d_in is
    nonzero, None if the composite is zero.

    in_cols are the columns of d_in as sparse vectors on the middle
    term, and out_cols[i] is the column of d_out at its basis key i.
    Each column of the composite is one formal sum, accumulated with
    plain + and * and only tested for a nonzero scalar, mod p over F_p;
    no reduced sum is built.  A caller raises AssertionError, not
    ValueError, on a nonzero composite: a complex whose square is
    nonzero is a fault in the program, not bad input.
    """
    p = field.characteristic
    for j, col in enumerate(in_cols):
        acc: dict = {}
        for i, v in col.items():
            for k, w in out_cols[i].items():
                acc[k] = acc.get(k, 0) + v * w
        if any(v % p for v in acc.values()) if p else any(acc.values()):
            return j
    return None


def homology_reps(d_out: Matrix, boundary_pivots, field: FieldSpec):
    """The canonical representatives of ker(d_out) / B, for a subspace B
    of ker(d_out) (the caller checks it) with greatest-index pivots
    boundary_pivots: the kernel_basis vectors at the other greatest
    indices (see the module docstring), with no further elimination."""
    return [v for v in kernel_basis(d_out, field)
            if max(v) not in boundary_pivots]
