"""Cosimplicial modules D^{(x) X_n} attached to a finite simplicial set X,
their normalized cochain complexes, and homology with representatives.

The single induced-map engine: a function f: A -> B between finite
ordered sets induces D^{(x) B} -> D^{(x) A} by applying the |fiber|-fold
comultiplication to each tensor factor (counit for empty fibers) and
then permuting the output into A-order with Koszul signs.  Cofaces,
codegeneracies, and the maps induced by simplicial maps are all
instances.  _word_image computes the image of one word;
induced_operator collects those images as matrix columns and
induced_apply applies them to one vector.

Homology tables keep, per bidegree, a full decomposition of the term
into chosen representatives, boundaries, and a complement; the induced
projection onto representatives is a chain map to the homology with zero
differential, so pushing any cocycle through it yields its class.
"""

from dataclasses import dataclass, field as dc_field

from . import linalg
from .coalgebra import GradedCoalgebra
from .fields import FieldSpec
from .graded import GradedMap, GradedSpace, add_term, sub_sums
from .linalg import Matrix
from .simplicial import GraphSimplicialSet, SimplicialMap, circle


def _word_image(D: GradedCoalgebra, a_list, b_list, fmap, keep=None):
    """The per-word image of the map D^{(x) b_list} -> D^{(x) a_list}
    induced by f: A -> B, as a function word -> formal sum of words.

    The fibers of f, and so the permutation into A-order and the pairs
    of factors it swaps, are computed once, here.  When keep is given,
    image words not in it are dropped.
    """
    f = D.field
    b_index = {b: k for k, b in enumerate(b_list)}
    fibers = [[] for _ in b_list]
    for ai, a in enumerate(a_list):
        fibers[b_index[fmap(a)]].append(ai)
    sizes = [len(fiber) for fiber in fibers]
    # factors come out fiber by fiber; order[u] is the A-slot of factor u
    order = [ai for fiber in fibers for ai in fiber]
    perm = sorted(range(len(order)), key=order.__getitem__)
    swaps = [(u, v) for u in range(len(order))
             for v in range(u + 1, len(order)) if order[u] > order[v]]

    def image(word) -> dict:
        out: dict = {}
        partial = [((), f.one)]
        for x, k in zip(word, sizes):
            exp = D.iterated_comult(x, k)
            partial = [(seq + tup, f.mul(c, v))
                       for seq, c in partial for tup, v in exp.items()]
        for seq, c in partial:
            sign = sum(D.degree(seq[u]) * D.degree(seq[v]) for u, v in swaps)
            out_word = tuple(seq[i] for i in perm)
            if keep is None or out_word in keep:
                add_term(out, out_word, f.mul(c, f.coerce((-1) ** sign)), f)
        return out
    return image


def induced_operator(D: GradedCoalgebra, a_list, b_list, fmap,
                     source: GradedSpace, target: GradedSpace) -> GradedMap:
    """The map D^{(x) b_list} -> D^{(x) a_list} induced by f: A -> B,
    one column per word of source; image words outside target are
    dropped.

    fmap maps each element of a_list to an element of b_list.  Source
    labels are tuples of D basis ids aligned with b_list, target labels
    aligned with a_list.
    """
    image = _word_image(D, a_list, b_list, fmap, target.degree_of)
    out = GradedMap(source, target)
    for word in source.degree_of:
        out.set_column(word, image(word))
    return out


def induced_apply(D: GradedCoalgebra, a_list, b_list, fmap, vec: dict) -> dict:
    """The map induced_operator builds, applied to one formal sum of
    words (aligned with b_list) without building its matrix."""
    f = D.field
    image = _word_image(D, a_list, b_list, fmap)
    out: dict = {}
    for word, c in vec.items():
        for w, v in image(word).items():
            add_term(out, w, f.mul(c, v), f)
    return out


def _words(D: GradedCoalgebra, slots: int, t_max: int):
    """All (word, degree) over the D basis with total degree <= t_max."""
    by_deg = sorted((d, lbl) for lbl, d in D.space.degree_of.items())
    out = []

    def rec(prefix, deg, k):
        if k == slots:
            out.append((tuple(prefix), deg))
            return
        for d, lbl in by_deg:
            if deg + d > t_max:
                break
            prefix.append(lbl)
            rec(prefix, deg + d, k + 1)
            prefix.pop()

    rec([], 0, 0)
    return out


class CosimplicialModule:
    """Levelwise D^{(x) levels[n]} with cofaces and codegeneracies induced
    from face_fn / degeneracy_fn of the underlying simplicial set."""

    def __init__(self, D: GradedCoalgebra, levels, face_fn, degeneracy_fn,
                 t_max: int, name=""):
        self.D = D
        self.field = D.field
        self.levels = levels
        self.face_fn = face_fn
        self.degeneracy_fn = degeneracy_fn
        self.t_max = t_max
        self.name = name
        self._spaces: dict = {}
        self._ops: dict = {}

    @classmethod
    def from_shape(cls, D: GradedCoalgebra, X: GraphSimplicialSet,
                   n_max: int, t_max: int) -> "CosimplicialModule":
        levels = [X.level(n) for n in range(n_max + 2)]
        return cls(D, levels,
                   lambda n, i, s: X.face(n, i, s),
                   lambda n, i, s: X.degeneracy(n, i, s),
                   t_max, name=f"{D.name}^{X.name}")

    @property
    def n_max(self) -> int:
        return len(self.levels) - 2

    def space(self, n: int) -> GradedSpace:
        if n not in self._spaces:
            self._spaces[n] = GradedSpace(
                _words(self.D, len(self.levels[n]), self.t_max))
        return self._spaces[n]

    def _coface(self, n: int, i: int, source: GradedSpace,
                target: GradedSpace) -> GradedMap:
        return induced_operator(
            self.D, self.levels[n + 1], self.levels[n],
            lambda s: self.face_fn(n + 1, i, s), source, target)

    def coface(self, n: int, i: int) -> GradedMap:
        key = ("d", n, i)
        if key not in self._ops:
            self._ops[key] = self._coface(
                n, i, self.space(n), self.space(n + 1))
        return self._ops[key]

    def codegeneracy(self, n: int, i: int) -> GradedMap:
        """sigma_i: level n+1 -> level n, 0 <= i <= n."""
        key = ("s", n, i)
        if key not in self._ops:
            self._ops[key] = induced_operator(
                self.D, self.levels[n], self.levels[n + 1],
                lambda s: self.degeneracy_fn(n, i, s),
                self.space(n + 1), self.space(n))
        return self._ops[key]

    def coface_sum(self, n: int, source: GradedSpace,
                   target: GradedSpace) -> GradedMap:
        """sum_i (-1)^i delta_i from words of level n to words of level
        n + 1; image words outside target are dropped."""
        f = self.field
        d = GradedMap.zero(source, target)
        for i in range(n + 2):
            term = self._coface(n, i, source, target)
            d = d.add(term.scale(f.coerce((-1) ** i), f), f)
        return d

    def differential(self, n: int) -> GradedMap:
        key = ("diff", n)
        if key not in self._ops:
            self._ops[key] = self.coface_sum(
                n, self.space(n), self.space(n + 1))
        return self._ops[key]

    def missing_slots(self, n: int):
        """For each codegeneracy sigma_i: level n+1 -> level n, the slots
        of level n+1 outside the image of s_i.  sigma_i applies the
        counit there and deletes them."""
        nxt = self.levels[n + 1]
        out = []
        for i in range(n + 1):
            image = {self.degeneracy_fn(n, i, x) for x in self.levels[n]}
            out.append([k for k, y in enumerate(nxt) if y not in image])
        return out


@dataclass
class CochainComplex:
    """Terms spanned by words of a cosimplicial module's levels (each
    label is the word itself), and the differential between them."""

    field: FieldSpec
    terms: list          # GradedSpace per s
    diff: list           # GradedMap terms[s] -> terms[s+1]
    ambient: CosimplicialModule

    @property
    def s_max(self) -> int:
        return len(self.diff) - 1

    def dims(self):
        return {s: {t: sp.dim(t) for t in sp.degrees()}
                for s, sp in enumerate(self.terms)}


def normalized_complex(cm: CosimplicialModule, s_max: int) -> CochainComplex:
    """The intersection of the codegeneracy kernels, built directly.

    When the counit is supported on the coaugmentation label alone, each
    sigma_i sends a word either to 0 (some slot it deletes holds another
    label) or to a nonzero multiple of a distinct word, so the kernels
    are spanned by the words with a non-coaugmentation label in some
    deleted slot of every sigma_i.  The differential preserves that
    span, so restricting its targets to it drops only zeros.
    """
    D = cm.D
    if set(D.counit) != {D.coaug}:
        raise ValueError(
            f"normalized complex needs the counit supported on the "
            f"coaugmentation {D.coaug!r} alone, got {sorted(D.counit)}")
    terms = []
    for s in range(s_max + 2):
        missing = cm.missing_slots(s - 1) if s else []
        terms.append(GradedSpace(
            (word, t) for word, t in cm.space(s).degree_of.items()
            if all(any(word[k] != D.coaug for k in slots)
                   for slots in missing)))
    diffs = [cm.coface_sum(s, terms[s], terms[s + 1])
             for s in range(s_max + 1)]
    return CochainComplex(cm.field, terms, diffs, cm)


def unnormalized_complex(cm: CosimplicialModule, s_max: int) -> CochainComplex:
    terms = [cm.space(s) for s in range(s_max + 2)]
    diffs = [cm.differential(s) for s in range(s_max + 1)]
    return CochainComplex(cm.field, terms, diffs, cm)


@dataclass
class Bidegree:
    dim: int
    rep_vectors: list          # sparse index vectors in term coordinates
    decomposition: Matrix      # columns [reps | boundaries | complement]
    n_boundaries: int


class HomologyTable:
    """Bigraded homology of a CochainComplex with class representatives.

    Classes are labelled ("h", s, t, k).  class_coords projects a
    cocycle (a formal sum on terms[s] labels) to its homology class.
    """

    def __init__(self, cc: CochainComplex, s_max: int, t_max: int):
        self.complex = cc
        self.field = cc.field
        self.s_max = s_max
        self.t_max = t_max
        self.data: dict = {}
        self.classes = GradedSpace()
        self.class_filtration: dict = {}
        f = cc.field
        for s in range(s_max + 1):
            term = cc.terms[s]
            for t in term.degrees():
                if t > t_max:
                    continue
                n = term.dim(t)
                d_out = cc.diff[s].matrix(t)
                d_in = (cc.diff[s - 1].matrix(t) if s >= 1 else Matrix(n, 0))
                dim, reps, bnd_rows = linalg.homology_reps(d_out, d_in, f)
                # complete to a basis of the whole term degreewise
                decomp = Matrix.from_columns(
                    linalg.complete_basis(reps + bnd_rows, n, f), n)
                self.data[(s, t)] = Bidegree(dim, reps, decomp, len(bnd_rows))
                for k in range(dim):
                    self.classes.add(("h", s, t, k), t)
                    self.class_filtration[("h", s, t, k)] = s

    def dim(self, s: int, t: int) -> int:
        bd = self.data.get((s, t))
        return bd.dim if bd else 0

    def dims(self) -> dict:
        return {st: bd.dim for st, bd in sorted(self.data.items()) if bd.dim}

    def rep(self, label) -> dict:
        """Representative cocycle, as a formal sum on level words."""
        _, s, t, k = label
        bd = self.data[(s, t)]
        labels = self.complex.terms[s].labels(t)
        return {labels[j]: v for j, v in bd.rep_vectors[k].items()}

    def class_coords(self, s: int, t: int, vec: dict) -> dict:
        """Project a formal sum on the words of terms[s] in degree t onto
        homology classes.  Raises linalg.NoSolution if vec has a nonzero
        coefficient on any other word."""
        bd = self.data.get((s, t))
        if bd is None or not vec:
            return {}
        term = self.complex.terms[s]
        target = {}
        for word, c in vec.items():
            if not c:
                continue
            if term.degree_of.get(word) != t:
                raise linalg.NoSolution(
                    f"{word!r} is not a word of term {s} in degree {t}")
            target[term.index(word)] = c
        (sol,) = linalg.solve(bd.decomposition, [target], self.field)
        return {("h", s, t, k): v for k, v in sol.items() if k < bd.dim and v}


def cohh(D: GradedCoalgebra, s_max: int, t_max: int,
         shape: GraphSimplicialSet = None, normalized=True) -> HomologyTable:
    """coHochschild homology of D through filtration s_max and internal
    degree t_max, over the standard circle unless another shape is given."""
    cm = CosimplicialModule.from_shape(D, shape or circle(), s_max, t_max)
    cc = (normalized_complex if normalized else unnormalized_complex)(cm, s_max)
    bound = min(t_max, D.complete_through())
    return HomologyTable(cc, s_max, int(bound))


def induced_homology_map(D: GradedCoalgebra, f: SimplicialMap,
                         H_target_shape: HomologyTable,
                         H_source_shape: HomologyTable) -> GradedMap:
    """Map on homology induced by a simplicial map f: X -> Y,
    contravariantly from the table over Y to the table over X."""
    fld = D.field
    HY, HX = H_target_shape, H_source_shape
    s_max = min(HY.s_max, HX.s_max)
    # Source: the normalized words over Y; target: every word over X, so
    # that class_coords refuses an image outside the normalized words.
    maps = [induced_operator(
        D, f.source.level(s), f.target.level(s),
        lambda x, s=s: f.apply(s, x),
        HY.complex.terms[s], HX.complex.ambient.space(s))
        for s in range(s_max + 1)]
    out = GradedMap(HY.classes, HX.classes)
    for label in HY.classes.degree_of:
        _, s, t, _ = label
        img = maps[s].apply(HY.rep(label), fld)
        out.set_column(label, HX.class_coords(s, t, img))
    return out


@dataclass
class ComparisonReport:
    iso: bool
    bidegrees: dict          # (s, t) -> (dim source, dim target, rank)
    failures: list

    def __str__(self):
        status = "isomorphism" if self.iso else "NOT an isomorphism"
        lines = [f"induced map: {status} on {len(self.bidegrees)} bidegrees"]
        for st, (a, b, r) in sorted(self.bidegrees.items()):
            mark = "ok" if a == b == r else "XX"
            lines.append(f"  {mark} (s={st[0]}, t={st[1]}): "
                         f"{a} -> {b}, rank {r}")
        return "\n".join(lines)


def compare_by_induced_map(D: GradedCoalgebra, f: SimplicialMap,
                           s_max: int, t_max: int) -> ComparisonReport:
    """Check that f: X -> Y induces an iso on homology over every
    bidegree in range (used with the collapse d'S1 -> S1)."""
    HY = cohh(D, s_max, t_max, shape=f.target)
    HX = cohh(D, s_max, t_max, shape=f.source)
    m = induced_homology_map(D, f, HY, HX)
    fld = D.field
    bidegrees = {}
    failures = []
    sts = sorted({(s, t) for (s, t) in HY.data} | {(s, t) for (s, t) in HX.data})
    for (s, t) in sts:
        a, b = HY.dim(s, t), HX.dim(s, t)
        if a == b == 0:
            continue
        cols = []
        for k in range(a):
            col = m.column(("h", s, t, k))
            cols.append({l[3]: v for l, v in col.items()})
        r = linalg.rank(Matrix.from_columns(cols, b), fld)
        bidegrees[(s, t)] = (a, b, r)
        if not (a == b == r):
            failures.append((s, t))
    return ComparisonReport(not failures, bidegrees, failures)
