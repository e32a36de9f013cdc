"""Finite-type graded vector spaces with labelled bases, and degree-zero
linear maps between them.

A label is any hashable (strings for coalgebra basis ids, tuples for
tensor factors).  A GradedMap stores sparse columns {source label ->
{target label -> scalar}}; every map here preserves the internal degree,
so ranks and kernels are computed one degree at a time.

There is one way to sum in the package: a formal sum accumulates with
plain + and *, out[k] = out.get(k, 0) + c * v, and is reduced once by
FieldSpec.canonical (scalars mod p, zeros dropped) before it is
returned, tested for emptiness or compared; two sums are equal when
their canonical forms are.

There is one way to apply maps to the legs of a tensor: tensor_apply
sends a formal sum on k-tuples of labels through k maps, one a leg, each
the identity (None) or a label -> formal sum on tuples, with no Koszul
sign.  A comultiplication comult_of is such a map, and so is a counit
iterated_comult(x, 0), keyed by (); a map whose values are single
labels, such as a GradedMap column, goes through as_tuples.  A signed
map on a tensor is tensor_apply plus one regrouping of its result: the
interchange of a tensor coalgebra or of the bialgebra twist is one
comprehension over (a1, a2, b1, b2) that swaps the middle legs with
their Koszul sign.  One loop on the path of an audit, comodule.pair_defect,
keeps its own sum: a generic sum-of-tensors helper in it and in two like
loops slowed the warm in-process audit of Lambda(3) over F_3 (s4, t18)
from 2.72 to 2.96 ms, median over five alternating pairs of 150 runs
each, with the same output.
"""

from .fields import FieldSpec
from .linalg import Matrix


def tensor_apply(vec: dict, maps, field: FieldSpec) -> dict:
    """(maps[0] (x) ... (x) maps[k-1])(vec) for a formal sum vec on
    k-tuples of labels: a term's image joins the tuples its legs map to,
    in order, and the sum is reduced once."""
    # identity legs are copied as slices of the key, not mapped
    legs = [(i, g) for i, g in enumerate(maps) if g is not None]
    out: dict = {}
    for key, c in vec.items():
        terms = [((), c)]
        start = 0
        for i, g in legs:
            head = key[start:i]
            terms = [(t + head + u, v * w) for t, v in terms
                     for u, w in g(key[i]).items()]
            start = i + 1
        tail = key[start:]
        for t, v in terms:
            out[t + tail] = out.get(t + tail, 0) + v
    return field.canonical(out)


def as_tuples(column):
    """The map label -> formal sum on 1-tuples of the map column, whose
    values are formal sums on labels."""
    return lambda x: {(y,): v for y, v in column(x).items()}


class GradedSpace:
    """Labelled basis, organised by degree, with stable ordering."""

    def __init__(self, labelled_degrees=()):
        # index_of[label]: its position among the labels of its degree
        self.by_degree = by_degree = {}
        self.degree_of = degree_of = {}
        self.index_of = index_of = {}
        for label, degree in labelled_degrees:
            if label in degree_of:
                raise ValueError(f"duplicate basis label {label!r}")
            degree_of[label] = degree
            bucket = by_degree.setdefault(degree, [])
            index_of[label] = len(bucket)
            bucket.append(label)

    def add(self, label, degree: int):
        if label in self.degree_of:
            raise ValueError(f"duplicate basis label {label!r}")
        self.degree_of[label] = degree
        bucket = self.by_degree.setdefault(degree, [])
        self.index_of[label] = len(bucket)
        bucket.append(label)

    def degrees(self):
        return sorted(self.by_degree)

    def labels(self, degree: int):
        return self.by_degree.get(degree, [])

    def dim(self, degree: int) -> int:
        return len(self.by_degree.get(degree, []))

    def total_dim(self) -> int:
        return len(self.degree_of)

    def __contains__(self, label):
        return label in self.degree_of


def tensor_space(a: GradedSpace, b: GradedSpace, max_degree=None) -> GradedSpace:
    """Tensor product with pair labels (la, lb); optionally truncated."""
    return GradedSpace(((la, lb), da + db)
                       for la, da in a.degree_of.items()
                       for lb, db in b.degree_of.items()
                       if max_degree is None or da + db <= max_degree)


class GradedMap:
    """A degree-preserving linear map, stored as sparse columns."""

    def __init__(self, source: GradedSpace, target: GradedSpace, columns=None):
        self.source = source
        self.target = target
        self.columns: dict = {}
        if columns:
            for label, col in columns.items():
                self.set_column(label, col)

    def set_column(self, label, col: dict):
        if label not in self.source:
            raise ValueError(f"unknown source label {label!r}")
        self.columns[label] = {k: v for k, v in col.items() if v}

    def column(self, label) -> dict:
        return self.columns.get(label, {})

    def apply(self, sum_: dict, field: FieldSpec) -> dict:
        out: dict = {}
        for label, c in sum_.items():
            for tgt, v in self.column(label).items():
                out[tgt] = out.get(tgt, 0) + c * v
        return field.canonical(out)

    def compose(self, other: "GradedMap", field: FieldSpec) -> "GradedMap":
        """self after other (self . other)."""
        out = GradedMap(other.source, self.target)
        for label in other.columns:
            out.set_column(label, self.apply(other.column(label), field))
        return out

    def matrix(self, degree: int) -> Matrix:
        index = self.target.index_of
        return Matrix.from_columns(
            [{index[w]: v for w, v in self.column(label).items()}
             for label in self.source.labels(degree)], self.target.dim(degree))

    @classmethod
    def identity(cls, space: GradedSpace, field: FieldSpec) -> "GradedMap":
        out = cls(space, space)
        for label in space.degree_of:
            out.set_column(label, {label: field.one})
        return out
