"""Algebraic structure on the homology of circle cochain complexes:
the dual Eilenberg-Zilber maps, the coproduct and product at cochain
level, and the assembled box-(bi)algebra structure on the homology
table, including the antipode transported from the double-edge model.

Conventions.  For cochains over a shape whose level lists start with
the basepoint vertex, the D-coactions use that tensor slot: the left
coaction applies Delta there and pulls the first leg out front; the
right coaction pulls it past the whole word to the back, with the
Koszul sign.
"""

import itertools

from . import linalg
from .coalgebra import GradedCoalgebra
from .comodule import BoxStructure, Comodule, cotensor
from .complexes import (
    CosimplicialModule,
    HomologyTable,
    cohh,
    induced_apply,
    induced_homology_map,
    # unused here; perfbench's tracer test asserts this binding is wrapped
    induced_operator,
)
from .graded import GradedMap, add_term, tensor_space
from .linalg import Matrix
from .simplicial import (
    collapse_double_edge,
    double_edge_circle,
    flip_double_edge,
)


class NotEqualized(Exception):
    """Raised when a tensor is not in the cotensor subspace."""


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
    out = {}
    for (a, b), v in D.comult_of(word[0]).items():
        add_term(out, (a, (b,) + word[1:]), v, D.field)
    return out


def cochain_right_coaction(D: GradedCoalgebra, word):
    """word -> sum of (word', d), rotating the first Delta leg to the
    back with the Koszul sign."""
    f = D.field
    rest = word_degree(D, word[1:])
    out = {}
    for (a, b), v in D.comult_of(word[0]).items():
        sign = (-1) ** (D.degree(a) * (D.degree(b) + rest))
        add_term(out, ((b,) + word[1:], a), f.mul(v, f.coerce(sign)), f)
    return out


# ---------------------------------------------------------------------------
# homology projector on level words


class AmbientProjector:
    """Linear retraction (level words) -> homology classes.

    Words outside the normalized term are dropped; on the normalized
    subspace this is the chain projection onto chosen representatives.
    Callers only evaluate it on slices of vectors lying in
    (normalized) (x) (normalized), where the dropped part is zero.
    """

    def __init__(self, H: HomologyTable):
        self.H = H

    def project(self, s: int, t: int, vec: dict) -> dict:
        """vec: formal sum on words of level s, degree t."""
        H = self.H
        if (s, t) not in H.data:
            return {}
        term = H.complex.terms[s]
        return H.class_coords(s, t, {w: c for w, c in vec.items()
                                     if w in term})


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
        return ([("L", s) for s in self.A.levels[p]]
                + [("R", s) for s in self.B.levels[q]])

    def split(self, p: int, q: int, word):
        cut = len(self.A.levels[p])
        return word[:cut], word[cut:]


def _on_part(mx, part, a_lv, b_lv, op, vec):
    """Apply the operator induced by op on the slots tagged part, the
    identity on the others, to a formal sum of mixed words."""
    def fmap(s):
        return (part, op(s[1])) if s[0] == part else s
    return induced_apply(mx.D, a_lv, b_lv, fmap, vec)


def delta_A(mx: MixedBicosimplicial, p, q, i, vec) -> dict:
    """delta_i on the A part: (p, q) -> (p+1, q)."""
    return _on_part(mx, "L", mx.level(p + 1, q), mx.level(p, q),
                    lambda s: mx.A.face_fn(p + 1, i, s), vec)


def sigma_A(mx: MixedBicosimplicial, p, q, i, vec) -> dict:
    """sigma_i on the A part: (p+1, q) -> (p, q)."""
    return _on_part(mx, "L", mx.level(p, q), mx.level(p + 1, q),
                    lambda s: mx.A.degeneracy_fn(p, i, s), vec)


def delta_B(mx: MixedBicosimplicial, p, q, i, vec) -> dict:
    """delta_i on the B part: (p, q) -> (p, q+1)."""
    return _on_part(mx, "R", mx.level(p, q + 1), mx.level(p, q),
                    lambda s: mx.B.face_fn(q + 1, i, s), vec)


def sigma_B(mx: MixedBicosimplicial, p, q, i, vec) -> dict:
    """sigma_i on the B part: (p, q+1) -> (p, q)."""
    return _on_part(mx, "R", mx.level(p, q), mx.level(p, q + 1),
                    lambda s: mx.B.degeneracy_fn(q, i, s), vec)


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


def sh_map(mx: MixedBicosimplicial, p: int, q: int, vec: dict) -> dict:
    """Dual shuffle component (A (x) B)^{p+q} -> A^p (x) B^q on a formal
    sum: over the (p, q)-shuffles, signed composites of codegeneracies."""
    f = mx.D.field
    n = p + q
    total: dict = {}
    for mu in itertools.combinations(range(n), p):
        nu = tuple(sorted(set(range(n)) - set(mu)))
        cur = vec
        for k, idx in enumerate(reversed(mu)):
            cur = sigma_B(mx, n, n - 1 - k, idx, cur)
        for k, idx in enumerate(reversed(nu)):
            cur = sigma_A(mx, n - 1 - k, q, idx, cur)
        sign = f.coerce((-1) ** shuffle_sign(mu))
        for word, v in cur.items():
            add_term(total, word, f.mul(sign, v), f)
    return total


def levelwise_comult(mx: MixedBicosimplicial, n: int, vec: dict) -> dict:
    """Apply Delta in every slot of a formal sum of level-n words and
    reorder into (first legs, second legs) with Koszul signs: the map
    induced by folding the mixed (n, n) level onto level n.  The two
    factors of mx must share their levels."""
    return induced_apply(mx.D, mx.level(n, n), mx.A.levels[n],
                         lambda s: s[1], vec)


# ---------------------------------------------------------------------------
# coproduct and product on homology classes


class CircleStructure:
    """Bundles a homology table over the circle with the machinery that
    computes its box-bialgebra structure maps."""

    def __init__(self, D: GradedCoalgebra, s_max: int, t_max: int):
        self.D = D
        self.field = D.field
        self.s_max = s_max
        self.t_max = t_max
        self.H = cohh(D, s_max, t_max)
        cm = self.H.complex.ambient
        self.mx = MixedBicosimplicial(cm, cm)
        self.proj = AmbientProjector(self.H)

    def class_coproduct(self, label) -> dict:
        """Coproduct of a homology class, as a formal sum on pairs of
        class labels."""
        _, s, t, _ = label
        f = self.field
        tz = levelwise_comult(self.mx, s, self.H.rep(label))
        out: dict = {}
        for p in range(s + 1):
            q = s - p
            comp = sh_map(self.mx, p, q, tz)
            if not comp:
                continue
            for (hA, hB), v in self._pair_project(comp, p, q, t).items():
                add_term(out, (hA, hB), v, f)
        return out

    def _pair_project(self, vec, p, q, t) -> dict:
        """(pi (x) pi) on a vector of the mixed (p, q) space."""
        f = self.field
        by_ta: dict = {}
        for word, c in vec.items():
            wa, wb = self.mx.split(p, q, word)
            ta = word_degree(self.D, wa)
            by_ta.setdefault(ta, {}).setdefault(wb, {})
            add_term(by_ta[ta][wb], wa, c, f)
        out: dict = {}
        for ta, slices in by_ta.items():
            tb = t - ta
            for wb, avec in slices.items():
                ca = self.proj.project(p, ta, avec)
                if not ca:
                    continue
                cb = self.proj.project(q, tb, {wb: f.one})
                for hA, va in ca.items():
                    for hB, vb in cb.items():
                        add_term(out, (hA, hB), f.mul(va, vb), f)
        return out

    def product_on_cotensor(self, terms: dict, check=True) -> dict:
        """Multiply an equalized element of the total cotensor of the
        cochain complex with itself.

        terms: {(wordA, wordB): coeff} with len(wordA) + len(wordB)
        constant.  Returns a formal sum of homology classes.  Raises
        NotEqualized if the element fails the equalizer condition.
        """
        f = self.field
        if not terms:
            return {}
        if check and not self.is_equalized(terms):
            raise NotEqualized("input is not in the cotensor subspace")
        n = None
        t = None
        total: dict = {}
        for (wa, wb), c in terms.items():
            n = len(wa) + len(wb) - 2
            t = word_degree(self.D, wa) + word_degree(self.D, wb)
            e = self.D.counit_of(wb[0])
            if e:
                add_term(total, wa + wb[1:], f.mul(c, e), f)
        if not total:
            return {}
        return self.proj.project(n, t, total)

    def is_equalized(self, terms: dict) -> bool:
        f = self.field
        defect: dict = {}
        for (wa, wb), c in terms.items():
            for (wa2, d), v in cochain_right_coaction(self.D, wa).items():
                add_term(defect, (wa2, d, wb), f.mul(c, v), f)
            for (d, wb2), v in cochain_left_coaction(self.D, wb).items():
                add_term(defect, (wa, d, wb2), f.mul(f.neg(c), v), f)
        return not defect


# ---------------------------------------------------------------------------
# the cotensor total complex and the multiplication on homology


class CotensorComplex:
    """The total cotensor subcomplex of N* (x) N* with its homology and
    the Kuenneth identification."""

    def __init__(self, cs: CircleStructure):
        self.cs = cs
        f = cs.field
        H = cs.H
        cc = H.complex
        self.f = f
        self.basis: dict = {}       # (n, t) -> list of formal sums on tagged pairs
        self.reps: dict = {}        # (n, t) -> homology reps (index vectors)
        self.dims: dict = {}
        D = cs.D

        s_max, t_max = H.s_max, H.t_max
        for n in range(s_max + 2):
            for t in range(t_max + 1):
                pairs = []
                for u in range(n + 1):
                    v = n - u
                    if v > s_max + 1:
                        continue
                    for ta in cc.terms[u].degrees():
                        tb = t - ta
                        for la in cc.terms[u].labels(ta):
                            for lb in cc.terms[v].labels(tb):
                                pairs.append((la, lb))
                if not pairs:
                    continue
                idx: dict = {}
                cols = []
                for (la, lb) in pairs:
                    col: dict = {}
                    for (wa2, d), vv in cochain_right_coaction(D, la).items():
                        k = idx.setdefault((wa2, d, lb), len(idx))
                        col[k] = f.add(col.get(k, f.zero), vv)
                    for (d, wb2), vv in cochain_left_coaction(D, lb).items():
                        k = idx.setdefault((la, d, wb2), len(idx))
                        col[k] = f.sub(col.get(k, f.zero), vv)
                    cols.append({k: v for k, v in col.items() if v})
                kernel = linalg.kernel_basis(
                    Matrix.from_columns(cols, len(idx)), f)
                self.basis[(n, t)] = (
                    pairs,
                    [{j: v for j, v in k.items()} for k in kernel])

        # restricted total differential and homology
        for n in range(s_max + 1):
            for t in range(t_max + 1):
                cur = self.basis.get((n, t))
                if cur is None:
                    continue
                d_out = self._diff_matrix(n, t)
                d_in = (self._diff_matrix(n - 1, t)
                        if (n - 1, t) in self.basis else
                        Matrix(len(cur[1]), 0))
                dim, reps, _ = linalg.homology_reps(d_out, d_in, f)
                if dim:
                    self.reps[(n, t)] = reps
                    self.dims[(n, t)] = dim

    def _pair_vec(self, n, t, kvec):
        pairs, kern = self.basis[(n, t)]
        out: dict = {}
        for j, c in kvec.items():
            for pj, v in kern[j].items():
                add_term(out, pairs[pj], self.f.mul(c, v), self.f)
        return out

    def _diff_matrix(self, n, t) -> Matrix:
        """Total differential from the (n, t) kernel basis to the
        (n+1, t) kernel basis coordinates."""
        f = self.f
        cc = self.cs.H.complex
        cur = self.basis.get((n, t))
        nxt = self.basis.get((n + 1, t))
        if cur is None:
            return Matrix(0, 0)
        pairs, kern = cur
        if nxt is None:
            return Matrix(0, len(kern))
        npairs, nkern = nxt
        npair_idx = {p: i for i, p in enumerate(npairs)}
        nk_cols = []
        for k in nkern:
            col: dict = {}
            for pj, v in k.items():
                col[pj] = v
            nk_cols.append(col)
        nmat = Matrix.from_columns(nk_cols, len(npairs))
        targets = []
        for k in kern:
            img: dict = {}
            for pj, c in k.items():
                la, lb = pairs[pj]
                u = word_level(la)
                for la2, v in cc.diff[u].column(la).items():
                    add_term(img, (la2, lb), f.mul(c, v), f)
                sgn = f.coerce((-1) ** u)
                for lb2, v in cc.diff[word_level(lb)].column(lb).items():
                    add_term(img, (la, lb2), f.mul(f.mul(c, sgn), v), f)
            tvec = {}
            for p, v in img.items():
                if p not in npair_idx:
                    if v:
                        raise AssertionError("differential left pair range")
                    continue
                tvec[npair_idx[p]] = v
            targets.append(tvec)
        sols = linalg.solve(nmat, targets, f)
        m = Matrix(len(nkern), len(kern))
        for j, sol in enumerate(sols):
            for i, v in sol.items():
                m.entries[(i, j)] = v
        return m

    def kuenneth_class(self, n, t, kvec) -> dict:
        """Class of a cotensor cycle in (pairs of homology classes)."""
        f = self.f
        H = self.cs.H
        D = self.cs.D
        vec = self._pair_vec(n, t, kvec)
        out: dict = {}
        groups: dict = {}
        for (la, lb), c in vec.items():
            key = (word_level(la), word_degree(D, la), lb)
            groups.setdefault(key, {})[la] = c
        for (u, ta, lb), avec in groups.items():
            ca = H.class_coords(u, ta, avec)
            if not ca:
                continue
            cb = H.class_coords(word_level(lb), word_degree(D, lb),
                                {lb: f.one})
            for hA, va in ca.items():
                for hB, vb in cb.items():
                    add_term(out, (hA, hB), f.mul(va, vb), f)
        return out


def homology_multiplication(cs: CircleStructure):
    """The multiplication on homology classes, as a GradedMap defined on
    the full pair space (a linear extension of the map on the cotensor
    of the homology with itself).

    Returns (mult, carrier_comodule, kuenneth_ok)."""
    f = cs.field
    H = cs.H
    carrier = cohh_carrier_comodule(cs)
    pair_space = tensor_space(H.classes, H.classes, cs.t_max)
    ct = CotensorComplex(cs)
    mult = GradedMap(pair_space, H.classes)
    kuenneth_ok = True

    # group homology-cotensor basis vectors per (n, t)
    cot = cotensor(carrier, carrier, cs.t_max)
    blocks: dict = {}
    for t, vecs in cot.basis.items():
        for vec in vecs:
            ns = {la[1] + lb[1] for (la, lb) in vec}
            if len(ns) != 1:
                # mixed filtration blocks cannot occur: coactions preserve s
                kuenneth_ok = False
                continue
            n = ns.pop()
            blocks.setdefault((n, t), []).append(vec)

    handled = set()
    for (n, t), vecs in sorted(blocks.items(), key=repr):
        if n > cs.s_max:
            continue
        reps = ct.reps.get((n, t), [])
        if len(reps) != len(vecs):
            kuenneth_ok = False
        # kuenneth matrix: columns are classes of the cotensor-complex reps
        pair_idx: dict = {}
        cols = []
        mu_classes = []
        for kvec in reps:
            kc = ct.kuenneth_class(n, t, kvec)
            col = {}
            for pr, v in kc.items():
                col[pair_idx.setdefault(pr, len(pair_idx))] = v
            cols.append(col)
            mu_classes.append(cs.product_on_cotensor(
                ct._pair_vec(n, t, kvec), check=False))
        kmat = Matrix.from_columns(cols, len(pair_idx))
        targets = []
        for vec in vecs:
            tv = {}
            for pr, v in vec.items():
                if pr not in pair_idx:
                    pair_idx.setdefault(pr, len(pair_idx))
                    kmat.nrows = len(pair_idx)
                tv[pair_idx[pr]] = v
            targets.append(tv)
        try:
            sols = linalg.solve(kmat, targets, f)
        except linalg.NoSolution:
            kuenneth_ok = False
            continue
        # mu on each cotensor basis vector; collect as equations on the
        # pair space, then extend linearly
        block_pairs = sorted({pr for vec in vecs for pr in vec}, key=repr)
        bp_idx = {p: i for i, p in enumerate(block_pairs)}
        basis_cols = []
        values = []
        for vec, sol in zip(vecs, sols):
            basis_cols.append({bp_idx[p]: v for p, v in vec.items()})
            val: dict = {}
            for j, c in sol.items():
                for h, v in mu_classes[j].items():
                    add_term(val, h, f.mul(c, v), f)
            values.append(val)
        # complete to a basis of the block pair space; zero on complement
        npairs = len(block_pairs)
        full = Matrix.from_columns(
            linalg.complete_basis(basis_cols, npairs, f), npairs)
        sols = linalg.solve(full, [{i: f.one} for i in range(npairs)], f)
        for pr, sol in zip(block_pairs, sols):
            col: dict = {}
            for j, c in sol.items():
                if j < len(values):
                    for h, v in values[j].items():
                        add_term(col, h, f.mul(c, v), f)
            mult.set_column(pr, col)
        handled.add((n, t))

    for (n, t), d in ct.dims.items():
        if n <= cs.s_max and (n, t) not in handled and d:
            kuenneth_ok = False
    return mult, carrier, kuenneth_ok


# ---------------------------------------------------------------------------
# carrier comodule and the full box structure


def cohh_carrier_comodule(cs: CircleStructure) -> Comodule:
    """The homology classes as a D-bicomodule via the basepoint slot."""
    f = cs.field
    H = cs.H
    D = cs.D
    basis = [(lbl, t) for lbl, t in H.classes.degree_of.items()]
    left = {}
    right = {}
    for lbl in H.classes.degree_of:
        _, s, t, _ = lbl
        z = H.rep(lbl)
        lcol: dict = {}
        rcol: dict = {}
        lgroups: dict = {}
        rgroups: dict = {}
        for word, c in z.items():
            for (d, w2), v in cochain_left_coaction(D, word).items():
                add_term(lgroups.setdefault(d, {}), w2, f.mul(c, v), f)
            for (w2, d), v in cochain_right_coaction(D, word).items():
                add_term(rgroups.setdefault(d, {}), w2, f.mul(c, v), f)
        for d, wvec in lgroups.items():
            for h, v in cs.proj.project(s, t - D.degree(d), wvec).items():
                add_term(lcol, (d, h), v, f)
        for d, wvec in rgroups.items():
            for h, v in cs.proj.project(s, t - D.degree(d), wvec).items():
                add_term(rcol, (h, d), v, f)
        left[lbl] = lcol
        right[lbl] = rcol
    return Comodule(D, basis, left, right, truncation=cs.t_max,
                    name=f"coHH({D.name})")


def cohh_box_structure(D: GradedCoalgebra, s_max: int, t_max: int,
                       with_mult=True, with_antipode=False):
    """Assemble the box-bialgebra structure on the circle homology.

    Returns (BoxStructure, CircleStructure, kuenneth_ok)."""
    cs = CircleStructure(D, s_max, t_max)
    f = cs.field
    H = cs.H

    pair_space = tensor_space(H.classes, H.classes, t_max)
    comult = GradedMap(H.classes, pair_space)
    for lbl in H.classes.degree_of:
        col = {pr: v for pr, v in cs.class_coproduct(lbl).items()
               if pr in pair_space.degree_of}
        comult.set_column(lbl, col)

    counit = GradedMap(H.classes, D.space)
    for lbl in H.classes.degree_of:
        _, s, t, _ = lbl
        col: dict = {}
        if s == 0:
            for word, c in H.rep(lbl).items():
                add_term(col, word[0], c, f)
        counit.set_column(lbl, col)

    unit = GradedMap(D.space, H.classes)
    for d in D.space.degree_of:
        t = D.degree(d)
        if t <= t_max:
            unit.set_column(d, cs.proj.project(0, t, {(d,): f.one}))

    mult = None
    carrier = None
    kuenneth_ok = True
    if with_mult:
        mult, carrier, kuenneth_ok = homology_multiplication(cs)
    else:
        carrier = cohh_carrier_comodule(cs)

    antipode = None
    if with_antipode:
        antipode = cohh_antipode(cs)

    box = BoxStructure(D, carrier, comult=comult, counit=counit, unit=unit,
                       mult=mult, antipode=antipode,
                       name=f"coHH({D.name})")
    return box, cs, kuenneth_ok


def cohh_antipode(cs: CircleStructure) -> GradedMap:
    """Antipode transported through the double-edge model: invert the
    collapse-induced iso, apply the flip, come back."""
    D = cs.D
    f = cs.field
    H = cs.H
    Hd = cohh(D, cs.s_max, cs.t_max, shape=double_edge_circle())
    pi = induced_homology_map(D, collapse_double_edge(), H, Hd)
    flip = induced_homology_map(D, flip_double_edge(), Hd, Hd)
    out = GradedMap(H.classes, H.classes)
    for (s, t) in sorted(set((lbl[1], lbl[2])
                             for lbl in H.classes.degree_of)):
        src = [("h", s, t, k) for k in range(H.dim(s, t))]
        dcls = [("h", s, t, k) for k in range(Hd.dim(s, t))]
        didx = {l: i for i, l in enumerate(dcls)}
        pim = Matrix.from_columns(
            [{didx[l]: v for l, v in pi.column(lbl).items()} for lbl in src],
            len(dcls))
        for lbl in src:
            img = flip.apply(pi.column(lbl), f)
            (sol,) = linalg.solve(
                pim, [{didx[l]: v for l, v in img.items()}], f)
            out.set_column(lbl, {src[j]: v for j, v in sol.items()})
    return out
