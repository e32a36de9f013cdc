"""Every output is a dim or a verdict, so none may depend on the basis of
the coalgebra or on the names of its labels, although the code reads
orders throughout (greatest-index pivots, the free pair as the greatest
in repr order, the basis listed by degree).  A coalgebra carried through
a random invertible map in each positive degree, with random label names,
a shuffled basis and the coaugmentation renamed "1" (where
table_coalgebra coaugments), must give the same outputs.
"""

import random

import pytest

from cohh import hopf, linalg, spectral, structure as st
from cohh.coalgebra import (exterior_coalgebra, is_cocommutative,
                            polynomial_coalgebra, table_coalgebra,
                            tensor_coalgebra, validate)
from cohh.comodule import cobar_cotor, trivial_comodule
from cohh.complexes import cohh
from cohh.fields import GF, QQ
from cohh.graded import tensor_apply
from cohh.linalg import Matrix
from test_structure import per_block_cotensor_homology


def transported(D, seed):
    """D in a random basis: in each degree t > 0 the new label j is
    sum_i P[i][j] times the old label i, for a random invertible P."""
    f, rng = D.field, random.Random(seed)
    names = iter(rng.sample(range(10 ** 6), D.space.total_dim()))
    new_of = {D.coaug: {"1": f.one}}   # old label -> sum on new labels
    old_of = {"1": {D.coaug: f.one}}   # new label -> sum on old labels
    for t in D.space.degrees():
        old = D.space.labels(t)
        if not t:
            continue
        while True:
            cols = [f.canonical({i: rng.randrange(-2, 3) for i in
                                 range(len(old))}) for _ in old]
            if linalg.rank(Matrix.from_columns(cols, len(old)), f) == len(old):
                break
        new = [f"g{next(names)}" for _ in old]
        old_of.update({y: {old[i]: v for i, v in col.items()}
                       for y, col in zip(new, cols)})
        units = [{i: f.one} for i in range(len(old))]
        for x, sol in zip(old, linalg.solve(
                Matrix.from_columns(cols, len(old)), units, f)):
            new_of[x] = {new[j]: v for j, v in sol.items()}
    basis = [(y, D.degree(next(iter(old_of[y])))) for y in old_of]
    rng.shuffle(basis)

    def to_new(x):
        return {(y,): v for y, v in new_of[x].items()}

    comult = {y: tensor_apply(tensor_apply(
        {(x,): c for x, c in old_of[y].items()}, [D.comult_of], f),
        [to_new, to_new], f) for y in old_of}
    counit = f.canonical({y: sum(c * D.counit_of(x)
                                 for x, c in old_of[y].items())
                          for y in old_of})
    return table_coalgebra(f, basis, comult, counit)


def outputs(D, s_max, t_max):
    """The dims and verdicts the package computes for D."""
    H = cohh(D, s_max, t_max)
    box, cs, failed = st.cohh_box_structure(H)
    box.antipode = st.cohh_antipode(cs)
    k = trivial_comodule(D)
    report = validate(D)
    return {
        "validate": [(c.name, c.passed) for c in report.checks],
        "cocommutative": is_cocommutative(D),
        "cohh": H.dims(),
        "cotor": cobar_cotor(k, k, s_max, t_max).dims(),
        "failed": failed,
        "hopf": [(c.name, c.passed)
                 for c in hopf.full_hopf_report(box).checks],
        "primitives": spectral._primitive_dims(box, t_max),
        "indecomposables": spectral._quotient_by_products(box, t_max),
        "coefficients": st.coefficient_table(
            cs, st.cohh_carrier_comodule(cs)).dims(),
        "per-block": {nt: dim for nt, (_, dim, _)
                      in per_block_cotensor_homology(cs).items() if dim},
    }


CASES = {
    "Lambda(3,3,5)": (lambda f: exterior_coalgebra([3, 3, 5], f), 3, 14),
    "k[w2,w4]<=12": (lambda f: polynomial_coalgebra([2, 4], f,
                                                    truncation=12), 3, 10),
    "Lambda(3)(x)k[w2]<=9": (lambda f: tensor_coalgebra(
        exterior_coalgebra([3], f),
        polynomial_coalgebra([2], f, truncation=9)), 3, 9),
}


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
@pytest.mark.parametrize("case", list(CASES))
def test_outputs_do_not_depend_on_the_basis(case, field):
    build, s_max, t_max = CASES[case]
    D = build(field)
    want = outputs(D, s_max, t_max)
    assert want["validate"] and all(ok for _, ok in want["validate"])
    assert want["coefficients"] == want["per-block"]
    assert outputs(transported(D, 7), s_max, t_max) == want
