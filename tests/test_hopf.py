"""Tests for the box-structure diagram checkers: positive runs on the
circle homology of exterior coalgebras and on the cofree tensor
example, plus fault injections confirming that each family of checks
actually catches a broken structure map."""

import dataclasses

import pytest

from cohh import hopf, linalg, structure as st
from cohh.coalgebra import exterior_coalgebra, polynomial_coalgebra
from cohh.complexes import cohh
from cohh.comodule import BoxStructure, degree_pairs, pair_defect, \
    polynomial_multiplication, tensor_box_structure
from cohh.fields import GF, QQ
from cohh.graded import GradedMap


def with_antipode(D, s_max, t_max) -> BoxStructure:
    """The box structure on cohh(D, s_max, t_max), with its antipode."""
    box, cs, failed = st.cohh_box_structure(cohh(D, s_max, t_max))
    assert failed == []
    box.antipode = st.cohh_antipode(cs)
    return box


@pytest.fixture(scope="module")
def box_q():
    D = exterior_coalgebra([3], QQ)
    return with_antipode(D, 3, 12)


@pytest.fixture(scope="module")
def box_f2():
    D = exterior_coalgebra([3], GF(2))
    return with_antipode(D, 3, 12)


@pytest.fixture(scope="module")
def box_35_f2():
    D = exterior_coalgebra([3, 5], GF(2))
    return with_antipode(D, 2, 10)


@pytest.fixture(scope="module")
def box_tensor_f3():
    C = exterior_coalgebra([3], GF(3))
    D2 = polynomial_coalgebra([2], GF(3), truncation=6)
    return tensor_box_structure(C, D2, polynomial_multiplication(D2))


def clone_map(m: GradedMap) -> GradedMap:
    out = GradedMap(m.source, m.target)
    for label, col in m.columns.items():
        out.set_column(label, dict(col))
    return out


def clone_box(box: BoxStructure) -> BoxStructure:
    """A copy whose maps can be broken without touching box; s_max and
    the other fields are kept."""
    return dataclasses.replace(
        box, comult=clone_map(box.comult), counit=clone_map(box.counit),
        unit=clone_map(box.unit), mult=clone_map(box.mult),
        antipode=clone_map(box.antipode) if box.antipode else None)


def test_circle_homology_is_a_box_hopf_algebra(box_q, box_f2):
    for box in (box_q, box_f2):
        report = hopf.full_hopf_report(box)
        assert report.ok, str(report)


def test_two_generator_circle_homology_passes_mod_2(box_35_f2):
    report = hopf.full_hopf_report(box_35_f2)
    assert report.ok, str(report)


def test_cofree_tensor_box_structure_passes(box_tensor_f3):
    report = hopf.full_hopf_report(box_tensor_f3)
    assert report.ok, str(report)


@pytest.mark.parametrize("missing", ["counit", "unit"])
def test_a_partial_box_runs_only_the_checkers_whose_maps_it_has(missing):
    # the algebra checker reads the counit, the antipode checker the
    # unit, counit and comultiplication too
    C = exterior_coalgebra([3], GF(3))
    D2 = polynomial_coalgebra([2], GF(3), truncation=8)
    box = tensor_box_structure(C, D2, polynomial_multiplication(D2))
    box.antipode = GradedMap.identity(box.carrier.space, GF(3))
    setattr(box, missing, None)
    report = hopf.full_hopf_report(box)
    want = [] if missing == "counit" else hopf.check_box_coalgebra(box).checks
    assert report.checks == want
    assert report.ok == bool(want)


def pair_cotensor_basis(box: BoxStructure, degree: int, s_max):
    """Oracle: E box E in one internal degree, eliminated on the pairs
    of total filtration <= s_max alone."""
    E = box.carrier

    def filtration(label):
        return label[1] if isinstance(label, tuple) else 0

    pairs = [(a, b) for a, b in degree_pairs(E.space, E.space, degree)
             if s_max is None or filtration(a) + filtration(b) <= s_max]
    return linalg.kernel_of(
        {p: pair_defect({p: box.field.one}, E.right_of, E.left_of, box.field)
         for p in pairs}, box.field)


@pytest.mark.parametrize("box, max_degree, s_max", [
    ("box_q", 12, 3), ("box_f2", 12, 3), ("box_35_f2", 10, 2),
    ("box_tensor_f3", 6, None)])
def test_shared_pair_cotensor_is_the_per_degree_basis(box, max_degree, s_max,
                                                      request):
    # coactions preserve filtration, so the blocks of total filtration
    # <= s_max of one cotensor are the bases of the pairs <= s_max alone
    box = request.getfixturevalue(box)
    # the bounds the box holds are those every caller used to pass
    assert (hopf._bound(box), box.s_max) == (max_degree, s_max)
    pairs = hopf._pair_cotensor(box)
    for t in range(max_degree + 1):
        assert pairs.get(t, []) == pair_cotensor_basis(box, t, s_max), t


def test_fault_broken_comultiplication_is_caught(box_f2):
    bad = clone_box(box_f2)
    one = ("h", 0, 0, 0)
    sx = ("h", 1, 3, 0)
    col = dict(bad.comult.column(sx))
    # spurious non-primitive term of the right degree
    col[(("h", 0, 3, 0), one)] = GF(2).one
    bad.comult.set_column(sx, col)
    report = hopf.check_box_coalgebra(bad)
    assert not report.ok


def test_fault_broken_counit_is_caught(box_f2):
    bad = clone_box(box_f2)
    bad.counit.set_column(("h", 0, 3, 0), {})
    report = hopf.check_box_coalgebra(bad)
    names = [c.name for c in report.failures]
    assert any("counit law" in n for n in names)
    (left,) = [c for c in report.failures
               if c.name == "left counit law matches the left coaction"]
    assert left.witness.startswith("fails at [('h', 0, 3, 0)")


def test_fault_broken_multiplication_is_caught(box_f2):
    bad = clone_box(box_f2)
    sx = ("h", 1, 3, 0)
    bad.mult.set_column((sx, sx), {})
    report = hopf.check_box_bialgebra(bad)
    assert not report.ok


@pytest.mark.parametrize("box", ["box_q", "box_f2", "box_35_f2",
                                 "box_tensor_f3"])
def test_a_clone_keeps_the_filtration_bound_and_passes(box, request):
    box = request.getfixturevalue(box)
    assert clone_box(box).s_max == box.s_max
    assert hopf.full_hopf_report(clone_box(box)).ok


@pytest.mark.parametrize("box", ["box_q", "box_f2"])
def test_the_checks_read_the_filtration_bound_of_the_box(box, request):
    # a product known at total filtration exactly s_max, zeroed, is
    # caught; once the box claims one filtration less, it is not: the
    # checks read the box's own bound
    box = request.getfixturevalue(box)
    pairs = [pr for pr, col in box.mult.columns.items()
             if col and pr[0][1] + pr[1][1] == box.s_max]
    assert (("h", 1, 3, 0), ("h", 2, 6, 0)) in pairs
    for pair in pairs:
        bad = clone_box(box)
        bad.mult.set_column(pair, {})
        assert not hopf.check_box_bialgebra(bad).ok, pair
        lower = dataclasses.replace(bad, s_max=box.s_max - 1)
        assert hopf.check_box_bialgebra(lower).ok, pair


def test_fault_broken_unit_is_caught(box_q):
    bad = clone_box(box_q)
    bad.unit.set_column("x3", {("h", 0, 3, 0): QQ.coerce(2)})
    algebra = hopf.check_box_algebra(bad)
    bialgebra = hopf.check_box_bialgebra(bad)
    assert not algebra.ok or not bialgebra.ok


def test_fault_broken_antipode_is_caught(box_q):
    bad = clone_box(box_q)
    # the identity is not the antipode in characteristic zero
    bad.antipode = GradedMap.identity(bad.carrier.space, QQ)
    report = hopf.check_antipode(bad)
    assert not report.ok


def test_fault_sign_error_in_antipode_is_caught(box_q):
    bad = clone_box(box_q)
    f = QQ
    sx = ("h", 1, 3, 0)
    # flip the sign on one suspension class only
    bad.antipode.set_column(sx, {sx: f.one})
    report = hopf.check_antipode(bad)
    assert not report.ok


def test_leibniz_holds_for_the_zero_differential(box_f2):
    report = hopf.check_leibniz(box_f2, lambda h: {})
    assert report.ok


def test_regular_structure_on_the_base_itself_passes():
    from cohh.comodule import regular_comodule
    from cohh.graded import tensor_space

    D = exterior_coalgebra([3, 5], GF(2))
    f = D.field
    carrier = regular_comodule(D)
    space = carrier.space
    pair_space = tensor_space(space, space, D.max_degree)
    comult = GradedMap(space, pair_space)
    counit = GradedMap(space, D.space)
    unit = GradedMap(D.space, space)
    mult = GradedMap(pair_space, space)
    for d in space.degree_of:
        comult.set_column(d, dict(D.comult_of(d)))
        counit.set_column(d, {d: f.one})
        unit.set_column(d, {d: f.one})
    for (a, b) in pair_space.degree_of:
        e = D.counit_of(a)
        mult.set_column((a, b), {b: e} if e else {})
    box = BoxStructure(D, carrier, comult=comult, counit=counit,
                       unit=unit, mult=mult, name=D.name)
    report = hopf.full_hopf_report(box)
    assert report.ok, str(report)


def test_co_leibniz_holds_for_the_zero_differential(box_f2):
    report = hopf.check_co_leibniz(box_f2, lambda h: {})
    assert report.ok


def test_co_leibniz_rejects_a_broken_differential(box_f2):
    f = GF(2)

    def fake_diff(h):
        # a primitive target for a non-primitively-coacting source
        if h == ("h", 1, 6, 0):
            return {("h", 1, 3, 0): f.one}
        return {}

    report = hopf.check_co_leibniz(box_f2, fake_diff)
    assert not report.ok


def test_leibniz_rejects_a_non_derivation(box_f2):
    f = GF(2)
    one = ("h", 0, 0, 0)

    def fake_diff(h):
        # sends the suspension class to the unit class: cannot be a
        # derivation against the free multiplication
        if h == ("h", 1, 3, 0):
            return {("h", 0, 3, 0): f.one}
        return {}

    report = hopf.check_leibniz(box_f2, fake_diff)
    assert not report.ok


@pytest.mark.parametrize("a, sign", [
    (("h", 0, 0, 0), 1), (("h", 0, 3, 0), -1), (("h", 1, 3, 0), 1),
    (("h", 1, 6, 0), -1), (("h", 3, 12, 0), -1)])
def test_the_pair_differential_signs_the_right_leg_by_the_left_one(
        box_q, a, sign):
    # over Q the sign (-1)^{s+t} that both Leibniz rules share shows: d
    # moves b alone, unsigned on the left leg and signed by a on the right
    b, db = ("h", 2, 6, 0), ("h", 3, 9, 0)

    def diff(h):
        return {db: QQ.one} if h == b else {}

    vec = {(a, b): QQ.one, (b, a): QQ.one}
    assert hopf._pair_differential(box_q, diff, vec) == {(a, db): sign,
                                                         (db, a): 1}


@pytest.mark.parametrize("field", [GF(3), QQ])
def test_diagonal_coords_reads_the_diagonal_and_refuses_the_rest(field):
    D = polynomial_coalgebra([2], field, truncation=8)
    f = field
    for t in range(0, 9, 2):
        (d,) = D.space.labels(t)
        x = {d: f.coerce(2)}
        diag = {pr: f.mul(x[d], v) for pr, v in D.comult_of(d).items()}
        assert hopf._diagonal_coords(D, diag, t) == x
        if t:
            # (d, 1) alone satisfies the counit law but is not diagonal
            with pytest.raises(linalg.NoSolution):
                hopf._diagonal_coords(D, {(d, D.coaug): f.one}, t)
    assert hopf._diagonal_coords(D, {}, 4) == {}
