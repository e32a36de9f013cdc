"""Algebraic structure on the homology of circle cochain complexes:
the dual Eilenberg-Zilber maps, the coproduct and product at cochain
level, and the assembled box-(bi)algebra structure on the homology
table, including the antipode transported from the double-edge model.
The product is read off the homology of the cotensor total complex
Tot(N box_D N), which coefficient_table reads as the coHochschild
complex of D with coefficients in the carrier bicomodule H: like every
homology in the package, a HomologyTable over a CochainComplex.

The coproduct of a class is the dual shuffle map after the levelwise
comultiplication, applied to its representative.  Both are maps induced
by functions between slot lists, so their composite is the one induced
map of the composite function (CircleStructure.class_coproduct says
why); the coproduct applies that one map per shuffle, its plan made
once per level, and sh_map and levelwise_comult stay as the separate
factors.  A CircleStructure is built on a circle homology table alone
(an audit hands it the E2 page's) and reads its coalgebra and bounds
from it.

Every projection of a tensor onto homology classes is
CircleStructure.classes_of, pi on one tensor leg at a time: pi (x) pi
on word pairs is two calls of it, and each carrier coaction, (id (x)
pi) rho_l or (pi (x) id) rho_r, one.

Conventions.  For cochains over a shape whose level lists start with
the basepoint vertex, the D-coactions use that tensor slot: the left
coaction applies Delta there and pulls the first leg out front; the
right coaction pulls it past the whole word to the back, with the
Koszul sign.
"""

import itertools
from collections import Counter
from functools import partial

from . import linalg
from .coalgebra import GradedCoalgebra
from .comodule import BoxStructure, Comodule, cotensor
from .complexes import (
    CochainComplex,
    CosimplicialModule,
    HomologyTable,
    cohh,
    induced_homology_map,
    induced_map,
    # unused here; perfbench's tracer test asserts this binding is wrapped
    induced_operator,
)
from .graded import GradedMap, GradedSpace, tensor_apply, tensor_space
from .simplicial import (
    collapse_double_edge,
    double_edge_circle,
    flip_double_edge,
)


# ---------------------------------------------------------------------------
# cochain-level coactions (basepoint tensor slot)


def word_degree(D: GradedCoalgebra, word) -> int:
    return sum(D.degree(x) for x in word)


def word_level(word) -> int:
    """Cosimplicial level of a circle cochain word (level s has s + 1
    slots)."""
    return len(word) - 1


def cochain_left_coaction(D: GradedCoalgebra, word):
    """word -> sum of (d, word'), applying Delta in slot 0."""
    return {(a, (b,) + word[1:]): v
            for (a, b), v in D.comult_of(word[0]).items()}


def cochain_right_coaction(D: GradedCoalgebra, word):
    """word -> sum of (word', d), rotating the first Delta leg to the
    back with the Koszul sign."""
    rest = word_degree(D, word[1:])
    return D.field.canonical({
        ((b,) + word[1:], a): v * (-1) ** (D.degree(a) * (D.degree(b) + rest))
        for (a, b), v in D.comult_of(word[0]).items()})


# ---------------------------------------------------------------------------
# homology projector on level words


class AmbientProjector:
    """Linear retraction (normalized level words) -> homology classes,
    the chain projection onto chosen representatives.

    A word outside the normalized term raises linalg.NoSolution
    (HomologyTable.class_coords); callers evaluate it only on normalized
    words.
    """

    def __init__(self, H: HomologyTable):
        self.H = H

    def project(self, s: int, t: int, vec: dict) -> dict:
        """vec: formal sum on words of level s, degree t."""
        return self.H.class_coords(s, t, vec)


# ---------------------------------------------------------------------------
# mixed bicosimplicial spaces for the Eilenberg-Zilber maps


class MixedBicosimplicial:
    """Words of D^{(x) A_p} (x) D^{(x) B_q}, on which the two families of
    cosimplicial operators act one part at a time."""

    def __init__(self, A: CosimplicialModule, B: CosimplicialModule):
        if A.D is not B.D:
            raise ValueError("both factors must share the coalgebra")
        self.A = A
        self.B = B
        self.D = A.D

    def level(self, p: int, q: int):
        return ([("L", s) for s in self.A.level(p)]
                + [("R", s) for s in self.B.level(q)])

    def split(self, p: int, q: int, word):
        cut = len(self.A.level(p))
        return word[:cut], word[cut:]


def _on_part(mx, part, a_lv, b_lv, op, vec):
    """Apply the operator induced by op on the slots tagged part, the
    identity on the others, to a formal sum of mixed words."""
    def fmap(s):
        return (part, op(s[1])) if s[0] == part else s
    return induced_map(mx.D, a_lv, b_lv, fmap)(vec)


def delta_A(mx: MixedBicosimplicial, p, q, i, vec) -> dict:
    """delta_i on the A part: (p, q) -> (p+1, q)."""
    return _on_part(mx, "L", mx.level(p + 1, q), mx.level(p, q),
                    lambda s: mx.A.shape.face(p + 1, i, s), vec)


def delta_B(mx: MixedBicosimplicial, p, q, i, vec) -> dict:
    """delta_i on the B part: (p, q) -> (p, q+1)."""
    return _on_part(mx, "R", mx.level(p, q + 1), mx.level(p, q),
                    lambda s: mx.B.shape.face(q + 1, i, s), vec)


def aw_map(mx: MixedBicosimplicial, p: int, q: int, vec: dict) -> dict:
    """Dual Alexander-Whitney A^p (x) B^q -> (A (x) B)^{p+q} on a formal
    sum: back cofaces on the A part, iterated delta_0 on the B part."""
    n = p + q
    for step in range(p):
        vec = delta_B(mx, p, q + step, 0, vec)
    for level in range(p, n):
        vec = delta_A(mx, level, n, level + 1, vec)
    return vec


def shuffle_sign(mu) -> int:
    return sum(m - i for i, m in enumerate(mu))


def _degeneracy_chain(degeneracy_fn, low: int, idxs):
    """The composite s_{idxs[-1]} ... s_{idxs[0]}: level low -> level
    low + len(idxs), as a function on simplices."""
    def fmap(x):
        for k, i in enumerate(idxs):
            x = degeneracy_fn(low + k, i, x)
        return x
    return fmap


def _shuffles(mx: MixedBicosimplicial, p: int, q: int):
    """For each (p, q)-shuffle (mu, nu): mu, s_nu on the A part and s_mu
    on the B part, as functions on simplices."""
    n = p + q
    for mu in itertools.combinations(range(n), p):
        nu = tuple(sorted(set(range(n)) - set(mu)))
        yield (mu, _degeneracy_chain(mx.A.shape.degeneracy, p, nu),
               _degeneracy_chain(mx.B.shape.degeneracy, q, mu))


def sh_map(mx: MixedBicosimplicial, p: int, q: int, vec: dict) -> dict:
    """Dual shuffle component (A (x) B)^{p+q} -> A^p (x) B^q on a formal
    sum: over the (p, q)-shuffles (mu, nu), the signed map induced by
    s_nu on the A part and s_mu on the B part, one induced map per
    shuffle.  Degeneracies are injective, so the composite of single
    codegeneracies applies the counit to each slot it deletes and
    permutes the rest: it is the map induced by the composite."""
    f = mx.D.field
    n = p + q
    total: dict = {}
    for mu, s_nu, s_mu in _shuffles(mx, p, q):
        shuffle = induced_map(
            mx.D, mx.level(p, q), mx.level(n, n),
            lambda s: ("L", s_nu(s[1])) if s[0] == "L" else ("R", s_mu(s[1])))
        sign = (-1) ** shuffle_sign(mu)
        for word, v in shuffle(vec).items():
            total[word] = total.get(word, 0) + sign * v
    return f.canonical(total)


def levelwise_comult(mx: MixedBicosimplicial, n: int, vec: dict) -> dict:
    """Apply Delta in every slot of a formal sum of level-n words and
    reorder into (first legs, second legs) with Koszul signs: the map
    induced by folding the mixed (n, n) level onto level n.  The two
    factors of mx must share their levels."""
    return induced_map(mx.D, mx.level(n, n), mx.A.level(n),
                       lambda s: s[1])(vec)


# ---------------------------------------------------------------------------
# coproduct and product on homology classes


class CircleStructure:
    """Bundles a homology table over the circle with the machinery that
    computes its box-bialgebra structure maps.  H is that table,
    cohh(D, s_max, t_max) as an E2 page holds it; the coalgebra D and
    the field are read from it, and the bounds are H.s_max and H.t_max."""

    def __init__(self, H: HomologyTable):
        cm = H.complex.ambient
        self.D = cm.D
        self.field = H.field
        self.H = H
        self.mx = MixedBicosimplicial(cm, cm)
        self.proj = AmbientProjector(self.H)
        self._shuffle_cache: dict = {}  # (n, p) -> [(sign parity, map)]

    def _shuffle_maps(self, n: int, p: int) -> list:
        """For each (p, n - p)-shuffle (mu, nu): the parity of its sign
        and the map induced by fold o (s_nu + s_mu), from level n to the
        mixed level (p, n - p), made once per (n, p)."""
        maps = self._shuffle_cache.get((n, p))
        if maps is None:
            mx = self.mx
            maps = self._shuffle_cache[(n, p)] = [
                (shuffle_sign(mu) & 1, induced_map(
                    self.D, mx.level(p, n - p), mx.A.level(n),
                    lambda s, s_nu=s_nu, s_mu=s_mu:
                        s_nu(s[1]) if s[0] == "L" else s_mu(s[1])))
                for mu, s_nu, s_mu in _shuffles(mx, p, n - p)]
        return maps

    def class_coproduct(self, label) -> dict:
        """Coproduct of a homology class, as a formal sum on pairs of
        class labels: (pi (x) pi) sh Delta on its representative, where
        Delta is the levelwise comultiplication and sh the dual shuffle
        map.

        Both factors are induced maps.  Delta is induced by the fold g
        of the mixed level (n, n) onto level n, and the component of sh
        at a (p, q)-shuffle (mu, nu) by s_nu + s_mu: (p, q) -> (n, n).
        The induced-map engine is functorial, (g o f)^* = f^* o g^*:
        over a fiber of g o f, expanding the fiber of g and then each
        leg over its own fiber of f is the iterated comultiplication of
        the whole fiber, by coassociativity and the counit law, and the
        Koszul signs of the two reorderings add up to that of the
        composite one.  So each shuffle's term is the one map induced
        by g o (s_nu + s_mu), ("L", a) -> s_nu(a) and ("R", b) ->
        s_mu(b), equal term for term to sh after Delta; its fibers hold
        at most one slot of each part, so only a fiber of size 2
        expands.  sh_map and levelwise_comult are not called."""
        _, n, _, _ = label
        z = self.H.rep(label)
        pairs: dict = {}
        for p in range(n + 1):
            for odd, apply in self._shuffle_maps(n, p):
                for w, v in apply(z).items():
                    pr = self.mx.split(p, n - p, w)
                    pairs[pr] = pairs.get(pr, 0) + (-v if odd else v)
        return self.pair_classes(self.field.canonical(pairs))

    def classes_of(self, vec: dict, leg: int) -> dict:
        """(id (x) pi (x) id) on leg `leg` of a canonical formal sum on
        tuples: one projection per group of terms that agree off the leg
        and whose words there share a level and a degree.  Distinct
        groups give distinct keys, so nothing accumulates.  Raises
        linalg.NoSolution on a word outside the normalized terms
        (HomologyTable.class_coords)."""
        deg = self.D.space.degree_of
        groups: dict = {}
        for key, c in vec.items():
            w = key[leg]
            group = (key[:leg], key[leg + 1:], word_level(w),
                     sum(deg[x] for x in w))
            groups.setdefault(group, {})[w] = c
        return {head + (h,) + tail: v
                for (head, tail, s, t), words in groups.items()
                for h, v in self.proj.project(s, t, words).items()}

    def pair_classes(self, vec: dict) -> dict:
        """(pi (x) pi) = (id (x) pi)(pi (x) id) on a canonical formal sum
        of word pairs {(wa, wb): c}."""
        return self.classes_of(self.classes_of(vec, 0), 1)


# ---------------------------------------------------------------------------
# the product's cotensor homology and the multiplication on homology


def coefficient_table(cs: CircleStructure, carrier: Comodule) -> HomologyTable:
    """The homology of Tot(N box_D N), the total cotensor of the
    normalized circle cochains with themselves, read off the
    coHochschild complex C(D; H) of D with coefficients in the carrier.

    N^v = D (x) Dbar^(x)v is a cofree left comodule, so N^u box_D N^v =
    N^u (x) Dbar^(x)v (Doi, "Homological coalgebra", 1981;
    Hess-Parent-Scott, JPAA 2009), and Tot is a double complex whose
    columns are copies of N.  Contracting each onto H by the basic
    perturbation lemma (Crainic, arXiv:math/0403266) leaves the
    coordinates (x, tail), x a class of H and tail a word of Dbar^(x)v,
    per degree in (level of x, |x|, tail, x) order, with the series'
    first term (pi (x) 1) delta (iota (x) 1) as differential: iota =
    H.rep, pi = H.class_coords, and delta, Tot's differential less
    d (x) 1, the circle's cofaces on slot 0 of x and the tail.  These are
    the tail's inner cofaces and the two coactions, their reduced base
    leg put in front of the tail or at its end (there with the legs of
    Delta swapped, as cohh admits only cocommutative coalgebras, and the
    Koszul sign).  Every later term starts with h delta iota, zero as the
    representatives span a sub-bicomodule (cohh_carrier_comodule checks
    it), so a class lifts to the Tot cocycle sum c iota(x) (x) tail.
    Tot's column sign (-1)^u is dropped, as the differential keeps the
    level of x.  Nothing of level s_max + 1 is listed: that part of
    the top term has an empty tail, and no differential reaches it.
    """
    H = cs.H
    cc = H.complex
    coaug = cs.D.coaug
    # tails[v][t]: words of cc.terms[v] in degree t with the
    # coaugmentation in slot 0, that slot dropped
    tails = [{t: [w[1:] for w in term.labels(t) if w[0] == coaug]
              for t in term.degrees()} for term in cc.terms]
    # a coordinate at (u, n - u) needs both circle levels: when the
    # circle complex ends early, at its empty term cc.terms[-1], term
    # 2 (len(cc.terms) - 1) - 1 is empty and this complex ends there
    terms = [GradedSpace(((("h", u, tx, k), tail), t)
                         for t in range(H.t_max + 1)
                         for (u, tx), bd in H.data.items()
                         if 0 <= n - u < len(tails)
                         for tail in tails[n - u].get(t - tx, ())
                         for k in range(bd.dim))
             for n in range(min(H.s_max + 2, 2 * (len(cc.terms) - 1)))]

    diffs = []
    for source, target in zip(terms, terms[1:]):
        blocks = {}
        for t, coords in source.by_degree.items():
            cols = blocks[t] = []
            for x, tail in coords:
                v = len(tail)
                img = [((x, w[1:]), c) for w, c
                       in cc.column(v, (coaug,) + tail).items()]
                img += [((y, (d,) + tail), c)
                        for (y, d), c in carrier.right[x].items()
                        if d != coaug]
                # |x| + |tail| = t
                img += [((y, tail + (d,)), -c if (
                    v + 1 + cs.D.degree(d) * (t + 1)) & 1 else c)
                    for (d, y), c in carrier.left[x].items() if d != coaug]
                col: dict = {}
                for y, c in img:
                    if target.degree_of.get(y) != t:
                        raise AssertionError(
                            "differential left the next coordinate block")
                    i = target.index_of[y]
                    col[i] = col.get(i, 0) + c
                cols.append(cs.field.canonical(col))
        diffs.append(blocks)
    return HomologyTable(CochainComplex(cs.field, terms, diffs),
                         H.s_max, H.t_max)


def homology_multiplication(cs: CircleStructure):
    """The multiplication on homology classes, as a GradedMap defined on
    the full pair space: a linear extension of the map on the cotensor
    of the homology with itself, which is mu(vec) at the free pair of
    each cotensor basis vector vec and zero at every other pair.  The
    free pair is the vector's last pair in the cotensor's repr order,
    the greatest index at which linalg reads every kernel_basis vector:
    vec is 1 there, and no other basis vector touches it.

    Returns (mult, carrier_comodule, failed): failed lists, in order,
    the (n, t) blocks at which the Kuenneth comparison of the cotensor
    complex's homology with H box H fails, and is empty when it holds."""
    f = cs.field
    H = cs.H
    carrier = cohh_carrier_comodule(cs)
    pair_space = tensor_space(H.classes, H.classes, H.t_max)
    table = coefficient_table(cs, carrier)
    mult = GradedMap(pair_space, H.classes)
    failed = set()

    # group homology-cotensor basis vectors per (n, t)
    blocks: dict = {}
    for t, vecs in cotensor(carrier, carrier, H.t_max).items():
        hits = Counter(pr for vec in vecs for pr in vec)
        for vec in vecs:
            free = max(vec, key=repr)
            if vec[free] != f.one or hits[free] != 1:
                raise AssertionError(f"cotensor basis vector is not alone "
                                     f"and 1 at its free pair {free!r}")
            ns = {la[1] + lb[1] for (la, lb) in vec}
            if len(ns) != 1:
                # mixed filtration blocks cannot occur: coactions preserve s
                failed |= {(n, t) for n in ns}
                continue
            n = ns.pop()
            blocks.setdefault((n, t), []).append((vec, free))

    for (n, t), block in sorted(blocks.items(), key=repr):
        if n > H.s_max:
            continue
        reps = [table.rep(("h", n, t, k)) for k in range(table.dim(n, t))]
        if len(reps) != len(block):
            failed.add((n, t))
        # write each cotensor basis vector in the Kuenneth classes of the
        # lifted representatives: pi on the second leg of carrier.right
        # (x) 1, its base leg put in front of the tail
        try:
            sols = linalg.keyed_solve(
                [cs.classes_of({(y, (d,) + tail): v for (y, d, tail), v
                                in tensor_apply(z, [carrier.right_of, None],
                                                f).items()}, 1)
                 for z in reps],
                [vec for vec, _ in block], f)
        except linalg.NoSolution:
            failed.add((n, t))
            continue
        # the product of iota(x) (x) tail is the words iota(x) + tail, by
        # the counit law
        for (_, free), sol in zip(block, sols):
            words: dict = {}
            for j, c in sol.items():
                for (x, tail), v in reps[j].items():
                    for wa, r in H.rep(x).items():
                        w = wa + tail
                        words[w] = words.get(w, 0) + c * v * r
            mult.set_column(free, cs.proj.project(n, t, f.canonical(words)))

    # classes of the coefficient table where H box H has no block
    failed |= set(table.dims()) - set(blocks)
    return mult, carrier, sorted(failed)


# ---------------------------------------------------------------------------
# carrier comodule and the full box structure


def cohh_carrier_comodule(cs: CircleStructure) -> Comodule:
    """The homology classes as a D-bicomodule via the basepoint slot:
    (id (x) pi) rho_l and (pi (x) id) rho_r on each representative.

    Raises AssertionError at the first class whose representative's
    coaction is not iota of its projection: the representatives must
    span a sub-bicomodule (coefficient_table says why)."""
    H = cs.H
    D = cs.D
    reps = {lbl: {(w,): c for w, c in H.rep(lbl).items()}
            for lbl in H.classes.degree_of}

    def coaction(rho, leg):
        iota = [None, None]
        iota[leg] = reps.__getitem__
        table = {}
        for lbl, rep in reps.items():
            raw = tensor_apply(rep, [partial(rho, D)], cs.field)
            table[lbl] = cs.classes_of(raw, leg)
            if tensor_apply(table[lbl], iota, cs.field) != raw:
                raise AssertionError(
                    f"the coaction of the representative of {lbl!r} "
                    f"leaves the span of the representatives")
        return table

    return Comodule(D, list(H.classes.degree_of.items()),
                    coaction(cochain_left_coaction, 1),
                    coaction(cochain_right_coaction, 0),
                    truncation=H.t_max, name=f"coHH({D.name})")


def cohh_box_structure(H: HomologyTable):
    """Assemble the box-bialgebra structure on the circle homology table
    H (see CircleStructure); its multiplication is known through H's
    s_max, the box's s_max.  A caller that wants the antipode sets
    box.antipode = cohh_antipode(cs).

    Returns (BoxStructure, CircleStructure, failed), failed the (n, t)
    blocks at which homology_multiplication's Kuenneth comparison fails."""
    cs = CircleStructure(H)
    D = cs.D
    mult, carrier, failed = homology_multiplication(cs)
    comult = GradedMap(H.classes, mult.source, {
        lbl: cs.class_coproduct(lbl) for lbl in H.classes.degree_of})
    # a level-0 word is one label, so no two words of a representative
    # share their first
    counit = GradedMap(H.classes, D.space, {
        lbl: {w[0]: c for w, c in H.rep(lbl).items()}
        for lbl in H.classes.degree_of if lbl[1] == 0})
    unit = GradedMap(D.space, H.classes, {
        d: cs.proj.project(0, t, {(d,): cs.field.one})
        for d, t in D.space.degree_of.items() if t <= H.t_max})

    box = BoxStructure(D, carrier, comult=comult, counit=counit, unit=unit,
                       mult=mult, s_max=H.s_max, name=f"coHH({D.name})")
    return box, cs, failed


def cohh_antipode(cs: CircleStructure) -> GradedMap:
    """Antipode transported through the double-edge model: invert the
    collapse-induced iso, apply the flip, come back."""
    D = cs.D
    f = cs.field
    H = cs.H
    Hd = cohh(D, H.s_max, H.t_max, shape=double_edge_circle())
    pi = induced_homology_map(D, collapse_double_edge(), H, Hd)
    flip = induced_homology_map(D, flip_double_edge(), Hd, Hd)
    out = GradedMap(H.classes, H.classes)
    for (s, t) in sorted(set((lbl[1], lbl[2])
                             for lbl in H.classes.degree_of)):
        src = [("h", s, t, k) for k in range(H.dim(s, t))]
        # one solve per bidegree: pi(x) = flip(pi(lbl)) for every class
        sols = linalg.keyed_solve([pi.column(l) for l in src],
                                  [flip.apply(pi.column(l), f) for l in src],
                                  f)
        for lbl, sol in zip(src, sols):
            out.set_column(lbl, {src[j]: v for j, v in sol.items()})
    return out
