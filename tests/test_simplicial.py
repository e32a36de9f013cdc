import pytest

from cohh.simplicial import (
    circle,
    collapse_double_edge,
    collapse_subdivided,
    double_edge_circle,
    flip_double_edge,
    pinch_double_edge,
    pinch_subdivided,
    point,
    subdivided_circle,
    wedge_of_circles,
    wedge_projection,
)

MODELS = [circle, wedge_of_circles, subdivided_circle, double_edge_circle, point]
MAPS = [pinch_subdivided, pinch_double_edge, collapse_subdivided,
        collapse_double_edge, flip_double_edge]


def test_level_counts():
    assert [len(circle().level(n)) for n in range(5)] == [1, 2, 3, 4, 5]
    assert [len(wedge_of_circles().level(n)) for n in range(4)] == [1, 3, 5, 7]
    assert [len(subdivided_circle().level(n)) for n in range(4)] == [2, 4, 6, 8]
    assert [len(double_edge_circle().level(n)) for n in range(4)] == [2, 4, 6, 8]
    assert [len(point().level(n)) for n in range(3)] == [1, 1, 1]


def test_faces_of_the_circle_edge():
    X = circle()
    e = ("e", "e", 1)
    assert X.face(1, 0, e) == ("v", "*")
    assert X.face(1, 1, e) == ("v", "*")
    s0e, s1e = X.degeneracy(1, 0, e), X.degeneracy(1, 1, e)
    assert s0e == ("e", "e", 2)
    assert s1e == ("e", "e", 1)
    # middle face of s0 e recovers e, outer faces degenerate
    assert X.face(2, 1, s0e) == e


def test_faces_of_subdivided_circle_track_endpoints():
    X = subdivided_circle()
    e1 = ("e", "e1", 1)
    assert X.face(1, 0, e1) == ("v", "m")  # d_0 = target
    assert X.face(1, 1, e1) == ("v", "*")  # d_1 = source
    e2 = ("e", "e2", 1)
    assert X.face(1, 0, e2) == ("v", "*")
    assert X.face(1, 1, e2) == ("v", "m")


@pytest.mark.parametrize("model", MODELS)
def test_simplicial_identities(model):
    assert model().check_identities(4)


@pytest.mark.parametrize("mk", MAPS)
def test_maps_are_simplicial(mk):
    assert mk().check(4)


def test_flip_is_an_involution():
    f = flip_double_edge()
    for n in range(4):
        for x in f.source.level(n):
            assert f.apply(n, f.apply(n, x)) == x


def test_collapse_factors_through_pinch_and_first_projection():
    # pi = (project onto first loop) . pinch for both double models
    for pinch, pi in ((pinch_subdivided(), collapse_subdivided()),
                      (pinch_double_edge(), collapse_double_edge())):
        proj = wedge_projection(0)
        assert proj.check(4)
        for n in range(4):
            for x in pinch.source.level(n):
                via = proj.apply(n, pinch.apply(n, x))
                assert via == pi.apply(n, x), (n, x)
