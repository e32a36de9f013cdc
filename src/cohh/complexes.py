"""Cosimplicial modules D^{(x) X_n} attached to a finite simplicial set X,
their normalized cochain complexes, and homology with representatives.

The single induced-map engine: a function f: A -> B between finite
ordered sets induces D^{(x) B} -> D^{(x) A} by applying the |fiber|-fold
comultiplication to each tensor factor and then permuting the output
into A-order with Koszul signs.  A fiber of size 0 is the counit and a
fiber of size 1 passes its label through, so only a fiber of size >= 2
expands: a shuffle map or codegeneracy expands none, a circle coface
one.  Cofaces, codegeneracies, and the maps induced by simplicial maps
are all instances.  _word_image adds c times the image of one word,
unreduced, into a sum its caller owns, and the caller reduces it once
with FieldSpec.canonical, the one way every formal sum in the package
is summed (see graded): induced_operator per image, as a word-keyed
column of a GradedMap; coface_sum per column of a differential's
blocks; induced_map per formal sum, with one plan for every vector.
The circle's normalized differential is the one coface sum written
without it: circle_coface_sum reads its two expanding slots straight
from the coalgebra's cached comult tables.

A differential is stored in one form, the blocks of CochainComplex.diff:
per internal degree, its columns as index dicts over the target words.
coface_sum, circle_coface_sum, comodule.cobar_differential and
structure.coefficient_table write them, and HomologyTable reduces them
as written.

The normalized complex is C (x) Cbar^(x)s on the circle, and in general
the span of the words with a non-coaugmentation label in some slot that
each codegeneracy deletes.  Its terms are generated as such, never
filtered out of the ambient levels, and its differential reaches a slot
that one codegeneracy deletes alone only through the reduced
comultiplication.  On the circle term s + 1 is term s with one Dbar
label appended, and no level past 0 or missing slot is read.

Every homology in the package is a HomologyTable: coHH, Cotor over the
cobar complex, and the coHochschild complex with coefficients in the
carrier behind the product in structure.  A table reads dims off ranks and keeps no RREF.  Walking s
up, to s_max or the last block of a complex that ends sooner, block
(s, t) row-reduces its columns of d_s, less those cleared at
the greatest-index pivots of block (s - 1, t), in one linalg.rref call
whose pivots count rank d_s; a bidegree with classes keeps its cleared
set.  The d o d check of block (s, t) reads only the columns of d_{s-1}
that block (s - 1, t) kept, the same list its rref call reduced.  Once
the check one block down has passed, each cleared column is a
combination of earlier columns, so by induction on s the kept columns
span im d_{s-1}, and d_s vanishes on that image when it vanishes on
them.  A fault in a cleared column is still caught: either d_{s-1}
fails on a boundary one block down, or the cleared column is still a
combination of kept ones.  linalg.homology_reps builds its
representatives on first use,
and the first class_coords the greatest-index RREF rows of its
boundaries, whose pivots must be the cleared set (linalg says why both
hold).  The class coordinates of a vector are its entries, reduced
modulo those rows, at the greatest index of each representative, with
no solve.  That map is linear, kills every boundary and fixes every
representative, so it is a chain retraction onto the homology with zero
differential; two such retractions differ by h o d, so they agree on
every cocycle.
"""

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

from . import linalg
from .coalgebra import (GradedCoalgebra, ValidationReport, check,
                        is_cocommutative)
from .fields import FieldSpec
from .graded import GradedMap, GradedSpace
from .linalg import Matrix
from .simplicial import GraphSimplicialSet, SimplicialMap, circle


def _word_image(D: GradedCoalgebra, a_list, b_list, fmap, keep=None,
                nonunit=()):
    """The per-word image of the map D^{(x) b_list} -> D^{(x) a_list}
    induced by f: A -> B, as a function image(word, c=1, out=None).

    The fibers of f are told apart by size once, here.  A fiber of
    size 0 is a counit factor, a fiber of size 1 passes its label
    through, and only a fiber of size >= 2 expands, through the
    coalgebra's comult_table, made once per coalgebra.  Each output word
    is read in one itemgetter call at fixed indices into the word
    followed by the expanded legs, and the Koszul sign comes from the
    pairs of those indices that the permutation into A-order swaps; with
    no such pair, no odd-degree label, or over F_2, no sign is summed.
    Terms come in the product order over the expanded fibers, the order a
    slot-by-slot expansion gives.  When keep, a dict, is given, image
    words not in it are dropped and each other one is summed at
    keep[word] (its block index, say).  The A-slots in nonunit (indices
    into a_list) take no coaugmentation factor: the image is empty when a
    fiber of size 1 passes the coaugmentation to one of them, and a
    larger fiber holding one expands each label with those terms left
    out, which on a fiber of size 2 is the reduced comultiplication.
    Every image word dropped that way must be outside keep, so the result
    is unchanged.  image(word, c, out) adds c times the image into out
    with plain + and *, unreduced; image(word) returns it reduced.
    """
    f = D.field
    deg = D.space.degree_of
    counit = D.counit
    coaug = D.coaug
    b_index = {b: k for k, b in enumerate(b_list)}
    fibers = [[] for _ in b_list]
    for ai, a in enumerate(a_list):
        fibers[b_index[fmap(a)]].append(ai)
    counits, checked, big = [], [], []
    # src[ai]: the index of A-slot ai's label in word + expanded legs
    src = [0] * len(a_list)
    legs = len(b_list)
    for b, fiber in enumerate(fibers):
        if not fiber:
            counits.append(b)
        elif len(fiber) == 1:
            src[fiber[0]] = b
            if fiber[0] in nonunit:
                checked.append(b)
        else:
            for o, ai in enumerate(fiber):
                src[ai] = legs + o
            legs += len(fiber)
            big.append((b, D.comult_table(len(fiber), tuple(
                o for o, ai in enumerate(fiber) if ai in nonunit))))
    pick = (itemgetter(*src) if len(src) > 1
            else lambda full: tuple(full[i] for i in src))
    # factors come out fiber by fiber; these pairs of them change order,
    # and a pair signs only if D has odd labels and -1 != 1
    signed = f.characteristic != 2 and any(d & 1 for d in deg.values())
    order = [ai for fiber in fibers for ai in fiber]
    swaps = [(src[x], src[y]) for x, y in combinations(order, 2)
             if signed and x > y]

    def image(word, c=1, out=None) -> dict:
        reduce = out is None
        if reduce:
            out = {}
        for b in counits:
            e = counit.get(word[b])
            if e is None:
                return out
            c = c * e
        partial = [((), c)]
        for b, table in big:
            exp = table[word[b]]
            if not exp:
                return out
            partial = [(seq + tup, c * v)
                       for seq, c in partial for tup, v in exp]
        for b in checked:
            if word[b] == coaug:
                return out
        for seq, c in partial:
            full = word + seq
            key = pick(full)
            if keep is not None:
                key = keep.get(key)
                if key is None:
                    continue
            if swaps and sum(deg[full[i]] * deg[full[j]]
                             for i, j in swaps) & 1:
                c = -c
            out[key] = out.get(key, 0) + c
        return f.canonical(out) if reduce else out
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
    image = _word_image(D, a_list, b_list, fmap,
                        {w: w for w in target.degree_of})
    return GradedMap(source, target,
                     {word: image(word) for word in source.degree_of})


def induced_map(D: GradedCoalgebra, a_list, b_list, fmap):
    """The map induced_operator builds, as a function on formal sums of
    words (aligned with b_list) that builds no matrix.  Its per-word
    plan is made once, here, so a caller that applies the map to many
    vectors keeps the function and makes no second plan."""
    image = _word_image(D, a_list, b_list, fmap)

    def apply(vec: dict) -> dict:
        out: dict = {}
        for word, c in vec.items():
            image(word, c, out)
        return D.field.canonical(out)
    return apply


def tensor_words(D: GradedCoalgebra, slots: int, t_max: int, missing=()):
    """All (word, degree) over the D basis with total degree <= t_max
    and, for each list of slots in missing, a non-coaugmentation label in
    at least one of them.

    The words are grown slot by slot, each prefix extended in (degree,
    label) order, which is the depth-first order.  A prefix is dropped at
    the last slot of a list in missing once every slot of that list holds
    the coaugmentation, so the order is that of the unrestricted walk
    with the other words left out; an empty list leaves no word at all.
    A prefix is also dropped once the slots still to come that are a
    list of their own cannot each take the lowest non-coaugmentation
    degree within t_max, which leaves out only words that never end.
    """
    if not all(missing):
        return []
    by_deg = sorted((d, lbl) for lbl, d in D.space.degree_of.items())
    coaug = D.coaug
    choices = (by_deg, [dl for dl in by_deg if dl[1] != coaug])
    # closing[k]: the other slots of each list whose last slot is k
    closing = [[] for _ in range(slots)]
    for group in missing:
        last = max(group)
        closing[last].append([j for j in group if j != last])
    always = [[] in rests for rests in closing]
    lowest = choices[1][0][0] if choices[1] else 0
    layer = [((), 0)]
    for k, rests in enumerate(closing):
        grown = []
        budget = t_max - lowest * sum(always[k + 1:])
        for prefix, deg in layer:
            reduced = always[k] or any(all(prefix[j] == coaug for j in rest)
                                       for rest in rests)
            for d, lbl in choices[reduced]:
                if deg + d > budget:
                    break
                grown.append((prefix + (lbl,), deg + d))
        layer = grown
    return layer


class CosimplicialModule:
    """Levelwise D^{(x) X_n} over a graph simplicial set X, with cofaces
    and codegeneracies induced from its faces and degeneracies.  Each
    level X_n is read from X on first use, once."""

    def __init__(self, D: GradedCoalgebra, X: GraphSimplicialSet,
                 t_max: int):
        self.D = D
        self.field = D.field
        self.shape = X
        self.t_max = t_max
        self.name = f"{D.name}^{X.name}"
        self._levels: dict = {}
        self._spaces: dict = {}

    def level(self, n: int):
        """The simplices of X_n, in order: the slots of a level-n word."""
        if n not in self._levels:
            self._levels[n] = self.shape.level(n)
        return self._levels[n]

    def space(self, n: int) -> GradedSpace:
        if n not in self._spaces:
            self._spaces[n] = GradedSpace(
                tensor_words(self.D, len(self.level(n)), self.t_max))
        return self._spaces[n]

    def coface(self, n: int, i: int) -> GradedMap:
        return induced_operator(self.D, self.level(n + 1), self.level(n),
                                lambda s: self.shape.face(n + 1, i, s),
                                self.space(n), self.space(n + 1))

    def codegeneracy(self, n: int, i: int) -> GradedMap:
        """sigma_i: level n+1 -> level n, 0 <= i <= n."""
        return induced_operator(self.D, self.level(n), self.level(n + 1),
                                lambda s: self.shape.degeneracy(n, i, s),
                                self.space(n + 1), self.space(n))

    def coface_sum(self, n: int, source: GradedSpace, target: GradedSpace,
                   nonunit=()) -> dict:
        """sum_i (-1)^i delta_i from words of level n to words of level
        n + 1, in the block form of CochainComplex.diff: each image word
        is looked up in target.index_of, and one outside target is
        dropped.  Every target word must hold a non-coaugmentation label
        in the slots nonunit, so images are cut off as soon as one of
        those slots would not."""
        canonical = self.field.canonical
        images = [(-1 if i & 1 else 1, _word_image(
            self.D, self.level(n + 1), self.level(n),
            lambda s, i=i: self.shape.face(n + 1, i, s), target.index_of,
            nonunit))
            for i in range(n + 2)]
        blocks = {}
        for t, words in source.by_degree.items():
            cols = blocks[t] = []
            for word in words:
                col: dict = {}
                for sign, image in images:
                    image(word, sign, col)
                cols.append(canonical(col))
        return blocks

    def missing_slots(self, n: int):
        """For each codegeneracy sigma_i: level n+1 -> level n, the slots
        of level n+1 outside the image of s_i.  sigma_i applies the
        counit there and deletes them."""
        nxt = self.level(n + 1)
        out = []
        for i in range(n + 1):
            image = {self.shape.degeneracy(n, i, x) for x in self.level(n)}
            out.append([k for k, y in enumerate(nxt) if y not in image])
        return out


def circle_coface_sum(D: GradedCoalgebra, n: int, source: GradedSpace,
                      target: GradedSpace) -> dict:
    """coface_sum on the normalized words (a_0, ..., a_n) of the circle's
    level n, read from two cached comult tables with no word plan.
    delta_0 writes (a', a'') + rest, and delta_(n+1) writes
    (a',) + rest + (a'',) with sign (-1)^(n + 1 + |a''| |rest|), for each
    term a' (x) a'' of Delta(a_0) with a'' not the coaugmentation; each
    inner delta_k writes (-1)^k head + (b', b'') + tail for each term of
    the reduced Delta(a_k).  An image word keeps the degree of its
    source and a Dbar label in every slot but the first, so it is a word
    of target, the normalized words of level n + 1.  Each column is
    reduced once."""
    deg = D.space.degree_of
    canonical = D.field.canonical
    index = target.index_of
    split = D.comult_table(2, (1,))
    reduced = D.comult_table(2, (0, 1))
    # signed[k & 1]: the reduced Delta with the sign of inner slot k
    signed = (reduced, {a: [(pair, -v) for pair, v in terms]
                        for a, terms in reduced.items()})
    blocks = {}
    for t, words in source.by_degree.items():
        cols = blocks[t] = []
        for word in words:
            rest = word[1:]
            rest_odd = (t - deg[word[0]]) & 1
            col: dict = {}
            for (x, y), v in split[word[0]]:
                i = index[(x, y) + rest]
                col[i] = col.get(i, 0) + v
                i = index[(x,) + rest + (y,)]
                col[i] = col.get(i, 0) + (
                    -v if (n + 1 + deg[y] * rest_odd) & 1 else v)
            for k, a in enumerate(rest, 1):
                terms = signed[k & 1][a]
                if terms:
                    head, tail = word[:k], word[k + 1:]
                    for pair, v in terms:
                        i = index[head + pair + tail]
                        col[i] = col.get(i, 0) + v
            cols.append(canonical(col))
    return blocks


@dataclass
class CochainComplex:
    """Terms with labelled bases (the words of a cosimplicial module's
    levels, cobar words, or the coefficient table's (class, tail)
    coordinates), and the differential between them.

    diff[s] is d_s: terms[s] -> terms[s+1] in block form, a dict
    t -> list of columns, with a list for every degree t of terms[s].
    There is one term more than blocks.  A complex whose terms vanish
    from some s on ends at its first empty term, and a reader takes
    every term past the last to be zero.
    Column j is the image of terms[s].labels(t)[j], stored as
    {i: scalar} over terms[s+1].labels(t), with no zero.
    CosimplicialModule.coface_sum, circle_coface_sum,
    comodule.cobar_differential and structure.coefficient_table write the
    blocks; HomologyTable reduces them as written, and column reads one
    back as a formal sum on labels.
    """

    field: FieldSpec
    terms: list          # GradedSpace per s
    diff: list           # block form of d_s: terms[s] -> terms[s+1]
    ambient: CosimplicialModule = None

    def column(self, s: int, word) -> dict:
        """d_s(word) as a formal sum on the words of terms[s+1]."""
        term = self.terms[s]
        t = term.degree_of[word]
        labels = self.terms[s + 1].labels(t)
        return {labels[i]: v
                for i, v in self.diff[s][t][term.index_of[word]].items()}


def normalized_complex(cm: CosimplicialModule, s_max: int) -> CochainComplex:
    """The intersection of the codegeneracy kernels, built directly.

    When the counit is supported on the coaugmentation label alone, each
    sigma_i sends a word either to 0 (some slot it deletes holds another
    label) or to a nonzero multiple of a distinct word, so the kernels
    are spanned by the words with a non-coaugmentation label in some
    deleted slot of every sigma_i; those words are generated, never the
    others.  The differential preserves that span, so restricting its
    targets to it drops only zeros, and a slot that some sigma_i deletes
    alone (every slot but the first, on the circle) is reached only
    through the reduced comultiplication.

    On the one-vertex, one-loop circle term s + 1 is grown from term s:
    each word, in order, takes each Dbar label in (degree, label) order
    while its degree stays within t_max, which is the order tensor_words
    lists with the missing slots, and circle_coface_sum writes d_s.  On
    every other shape each term is listed from the missing slots of its
    level and d_s is coface_sum's.

    The complex ends at its first empty term, since every later term is
    empty: on a graph simplicial set sigma_i deletes the slots (e, i + 1),
    so dropping the slots (e, s + 1) of a level-(s + 1) normalized word
    leaves a level-s normalized word of no larger degree, and an empty
    level s leaves none at level s + 1.
    """
    D = cm.D
    if set(D.counit) != {D.coaug}:
        raise ValueError(
            f"normalized complex needs the counit supported on the "
            f"coaugmentation {D.coaug!r} alone, got {sorted(D.counit)}")
    X, t_max = cm.shape, cm.t_max
    on_circle = len(X.vertices) == len(X.edges) == 1
    bar = sorted((d, lbl) for lbl, d in D.space.degree_of.items()
                 if lbl != D.coaug)

    def grown(term):
        for word, t in term.degree_of.items():
            for d, lbl in bar:
                if t + d > t_max:
                    break
                yield word + (lbl,), t + d
    terms = [GradedSpace(tensor_words(D, len(cm.level(0)), t_max))]
    diffs = []
    for s in range(s_max + 1):
        if not terms[s].degree_of:
            break
        if on_circle:
            terms.append(GradedSpace(grown(terms[s])))
            diffs.append(circle_coface_sum(D, s, terms[s], terms[s + 1]))
        else:
            missing = cm.missing_slots(s)
            terms.append(GradedSpace(
                tensor_words(D, len(cm.level(s + 1)), t_max, missing)))
            diffs.append(cm.coface_sum(
                s, terms[s], terms[s + 1],
                {g[0] for g in missing if len(g) == 1}))
    return CochainComplex(cm.field, terms, diffs, cm)


def unnormalized_complex(cm: CosimplicialModule, s_max: int) -> CochainComplex:
    terms = [cm.space(s) for s in range(s_max + 2)]
    diffs = [cm.coface_sum(s, terms[s], terms[s + 1])
             for s in range(s_max + 1)]
    return CochainComplex(cm.field, terms, diffs, cm)


@dataclass
class Bidegree:
    dim: int
    # the greatest-index pivots of im d_in, cleared here; kept if dim > 0
    cleared: set = None
    # the kernel_basis vectors of d_out at uncleared greatest indices,
    # one per class, in term coordinates; None until built
    rep_vectors: list = None
    # rref(im d_in, last=True): (rows, pivots), by the first class_coords
    boundary: tuple = None


class HomologyTable:
    """Bigraded homology of a CochainComplex with class representatives.

    Classes are labelled ("h", s, t, k).  class_coords projects a
    cocycle (a formal sum on terms[s] labels) to its homology class.

    dim = n - rank d_out - rank d_in, one cleared column reduction per
    block of cc.diff, read as written, after checking d_out d_in = 0
    there on the columns of d_in that the block below kept (see the
    module docstring).
    """

    def __init__(self, cc: CochainComplex, s_max: int, t_max: int):
        self.complex = cc
        self.field = cc.field
        self.s_max = s_max
        self.t_max = t_max
        self.data: dict = {}
        self.classes = GradedSpace()
        # t -> (kept columns of d_in, their pivots, the columns of d_in
        # left out)
        prev: dict = {}
        for s in range(min(s_max, len(cc.diff) - 1) + 1):
            cur = {}
            for t in cc.terms[s].degrees():
                if t > t_max:
                    continue
                cols = cc.diff[s][t]
                d_in, cleared, left_out = prev.get(t, ((), set(), set()))
                bad = linalg.first_nonzero_composite(cols, d_in, self.field)
                if bad is not None:
                    # the kept column bad, numbered in its block, and the
                    # columns of d_s it meets
                    block = [i for i in range(len(cc.diff[s - 1][t]))
                             if i not in left_out][bad]
                    raise AssertionError(
                        f"d_{s} @ d_{s - 1} is nonzero at t = {t} on column "
                        f"{block} of d_{s - 1}, which meets columns "
                        f"{sorted(d_in[bad])} of d_{s}")
                # d_s^T, the cleared rows left out
                kept = [col for j, col in enumerate(cols) if j not in cleared]
                pivots = linalg.rref(Matrix.from_rows(
                    kept, cc.terms[s + 1].dim(t)), self.field, reduced=False,
                    last=True)[1]
                cur[t] = (kept, set(pivots), cleared)
                dim = len(cols) - len(pivots) - len(cleared)
                self.data[(s, t)] = Bidegree(dim, cleared if dim else None)
                for k in range(dim):
                    self.classes.add(("h", s, t, k), t)
            prev = cur

    def _built(self, s: int, t: int) -> Bidegree:
        """The bidegree (s, t), its representatives built on first use."""
        bd = self.data[(s, t)]
        if bd.rep_vectors is None:
            cc = self.complex
            reps = linalg.homology_reps(
                Matrix.from_columns(cc.diff[s][t], cc.terms[s + 1].dim(t)),
                bd.cleared, self.field)
            if len(reps) != bd.dim:
                raise AssertionError(
                    f"bidegree ({s}, {t}): {len(reps)} representatives "
                    f"for dimension {bd.dim}")
            bd.rep_vectors = reps
        return bd

    def dim(self, s: int, t: int) -> int:
        bd = self.data.get((s, t))
        return bd.dim if bd else 0

    def dims(self) -> dict:
        return {st: bd.dim for st, bd in sorted(self.data.items()) if bd.dim}

    def rep(self, label) -> dict:
        """Representative cocycle, as a formal sum on level words."""
        _, s, t, k = label
        bd = self._built(s, t)
        labels = self.complex.terms[s].labels(t)
        return {labels[j]: v for j, v in bd.rep_vectors[k].items()}

    def class_coords(self, s: int, t: int, vec: dict) -> dict:
        """Project a formal sum on the words of terms[s] in degree t onto
        homology classes: reduce it modulo the boundary rows and read the
        coefficient of each class at its representative's greatest index.
        On a cocycle this is its class.  Raises linalg.NoSolution if vec
        has a nonzero coefficient on any other word."""
        if (s, t) not in self.data or not vec:
            return {}
        term = self.complex.terms[s]
        target = {}
        for word, c in vec.items():
            if not c:
                continue
            if term.degree_of.get(word) != t:
                raise linalg.NoSolution(
                    f"{word!r} is not a word of term {s} in degree {t}")
            target[term.index_of[word]] = c
        if not self.data[(s, t)].dim:
            return {}
        bd = self._built(s, t)
        if bd.boundary is None:
            cc = self.complex
            bd.boundary = linalg.rref(Matrix.from_rows(
                cc.diff[s - 1].get(t, []) if s else [], cc.terms[s].dim(t)),
                self.field, last=True)
            if set(bd.boundary[1]) != bd.cleared:
                raise AssertionError(
                    f"bidegree ({s}, {t}): the boundary pivots are not "
                    f"the cleared indices")
        red = linalg.reduce_mod_span(target, *bd.boundary, self.field)
        out = {}
        for k, rep in enumerate(bd.rep_vectors):
            v = red.get(max(rep))
            if v:
                out[("h", s, t, k)] = v
        return out


def cohh(D: GradedCoalgebra, s_max: int, t_max: int,
         shape: GraphSimplicialSet = None, normalized=True) -> HomologyTable:
    """coHochschild homology of D through filtration s_max and internal
    degree t_max, over the standard circle unless another shape is given.
    D must be cocommutative: both faces of the circle's edge go to the
    basepoint, and the induced-map engine puts the legs of Delta in one
    order, so delta_0 = delta_1 at level 0 with no twist."""
    if not is_cocommutative(D):
        raise ValueError("coHochschild homology needs a cocommutative "
                         "coalgebra: tau Delta != Delta here")
    cm = CosimplicialModule(D, shape or circle(), t_max)
    cc = (normalized_complex if normalized else unnormalized_complex)(cm, s_max)
    bound = min(t_max, D.complete_through())
    return HomologyTable(cc, s_max, int(bound))


def induced_homology_map(D: GradedCoalgebra, f: SimplicialMap,
                         H_target_shape: HomologyTable,
                         H_source_shape: HomologyTable) -> GradedMap:
    """Map on homology induced by a simplicial map f: X -> Y,
    contravariantly from the table over Y to the table over X."""
    HY, HX = H_target_shape, H_source_shape
    # the image of a rep is taken over every word over X, so that
    # class_coords refuses an image outside the normalized words
    out = GradedMap(HY.classes, HX.classes)
    # one induced map per level, applied to every representative there
    maps = {s: induced_map(D, f.source.level(s), f.target.level(s),
                           lambda x, s=s: f.apply(s, x))
            for s in {label[1] for label in HY.classes.degree_of}}
    for label in HY.classes.degree_of:
        _, s, t, _ = label
        out.set_column(label, HX.class_coords(s, t, maps[s](HY.rep(label))))
    return out


def compare_by_induced_map(D: GradedCoalgebra, f: SimplicialMap,
                           s_max: int, t_max: int) -> ValidationReport:
    """Check that f: X -> Y induces an iso on homology over every
    bidegree in range (used with the collapse d'S1 -> S1): one check,
    failing at each (s, t, dim source, dim target, rank) that is not
    (s, t, n, n, n)."""
    HY = cohh(D, s_max, t_max, shape=f.target)
    HX = cohh(D, s_max, t_max, shape=f.source)
    m = induced_homology_map(D, f, HY, HX)
    fld = D.field
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
        if not (a == b == r):
            failures.append((s, t, a, b, r))
    return ValidationReport("induced map on homology", [
        check("induced map is an isomorphism", failures)])
