"""Finite simplicial sets of dimension one (graphs), their levels, and
simplicial maps between them.

Every model needed here (the standard simplicial circle, a wedge of two
circles, the subdivided circles) is the nerve-like simplicial set of a
directed graph: the n-simplices are the totally degenerate vertices
("v", v) together with degeneracies of edges.  A degenerate edge simplex
at level n is determined by the edge e and the number j in 1..n of
leading 0s of the classifying surjection [n] -> [1]; faces and
degeneracies act on j by precomposition.
"""

from dataclasses import dataclass


class GraphSimplicialSet:
    """Simplicial set generated by a directed graph.

    edges is a list of (name, source_vertex, target_vertex).  Level n
    simplices are ordered: vertices first (listed order), then edge
    simplices by (edge order, j ascending).  The first vertex is the
    basepoint, so slot 0 of every level is the basepoint slot.
    """

    def __init__(self, name, vertices, edges):
        self.name = name
        self.vertices = list(vertices)
        self.edges = [(e, s, t) for (e, s, t) in edges]
        self.edge_ends = {e: (s, t) for (e, s, t) in self.edges}

    def level(self, n: int):
        simplices = [("v", v) for v in self.vertices]
        for (e, _, _) in self.edges:
            simplices.extend(("e", e, j) for j in range(1, n + 1))
        return simplices

    def face(self, n: int, i: int, simplex):
        """d_i: level n -> level n-1, for 0 <= i <= n, n >= 1."""
        if not 0 <= i <= n or n < 1:
            raise ValueError(f"face d_{i} undefined at level {n}")
        if simplex[0] == "v":
            return simplex
        _, e, j = simplex
        jp = j - 1 if i < j else j
        src, tgt = self.edge_ends[e]
        if jp == 0:
            return ("v", tgt)
        if jp == n:
            return ("v", src)
        return ("e", e, jp)

    def degeneracy(self, n: int, i: int, simplex):
        """s_i: level n -> level n+1, for 0 <= i <= n."""
        if not 0 <= i <= n:
            raise ValueError(f"degeneracy s_{i} undefined at level {n}")
        if simplex[0] == "v":
            return simplex
        _, e, j = simplex
        return ("e", e, j + 1 if i < j else j)

    def check_identities(self, n_max: int) -> bool:
        """Verify the simplicial identities through level n_max."""
        for n in range(1, n_max + 1):
            for x in self.level(n):
                for j in range(1, n + 1):
                    for i in range(j):
                        if n >= 2 and self.face(n - 1, i, self.face(n, j, x)) != \
                                self.face(n - 1, j - 1, self.face(n, i, x)):
                            return False
                for i in range(n):
                    for j in range(i + 1, n):
                        if self.degeneracy(n + 1, j + 1, self.degeneracy(n, i, x)) != \
                                self.degeneracy(n + 1, i, self.degeneracy(n, j, x)):
                            return False
                for i in range(n + 1):
                    for j in range(n):
                        lhs = self.face(n + 1, i, self.degeneracy(n, j, x))
                        if i < j:
                            rhs = self.degeneracy(n - 1, j - 1, self.face(n, i, x))
                        elif i in (j, j + 1):
                            rhs = x
                        else:
                            rhs = self.degeneracy(n - 1, j, self.face(n, i - 1, x))
                        if lhs != rhs:
                            return False
        return True

    def __repr__(self):
        return f"GraphSimplicialSet({self.name})"


@dataclass
class SimplicialMap:
    """A simplicial map determined on vertices and edges.

    edge_map sends an edge name either to ("e", name') or, when the edge
    collapses, to ("v", vertex') in the target.
    """

    source: GraphSimplicialSet
    target: GraphSimplicialSet
    vertex_map: dict
    edge_map: dict
    name: str = ""

    def apply(self, n: int, simplex):
        if simplex[0] == "v":
            return ("v", self.vertex_map[simplex[1]])
        _, e, j = simplex
        img = self.edge_map[e]
        if img[0] == "v":
            return ("v", img[1])
        return ("e", img[1], j)

    def check(self, n_max: int) -> bool:
        """Well-definedness on ends plus compatibility with faces and
        degeneracies through level n_max."""
        for e, (s, t) in self.source.edge_ends.items():
            img = self.edge_map[e]
            if img[0] == "v":
                if self.vertex_map[s] != img[1] or self.vertex_map[t] != img[1]:
                    return False
            else:
                s2, t2 = self.target.edge_ends[img[1]]
                if self.vertex_map[s] != s2 or self.vertex_map[t] != t2:
                    return False
        for n in range(1, n_max + 1):
            for x in self.source.level(n):
                for i in range(n + 1):
                    if self.apply(n - 1, self.source.face(n, i, x)) != \
                            self.target.face(n, i, self.apply(n, x)):
                        return False
        for n in range(0, n_max):
            for x in self.source.level(n):
                for i in range(n + 1):
                    if self.apply(n + 1, self.source.degeneracy(n, i, x)) != \
                            self.target.degeneracy(n, i, self.apply(n, x)):
                        return False
        return True


def circle() -> GraphSimplicialSet:
    """The minimal simplicial circle: one vertex, one loop; level n has
    n + 1 simplices."""
    return GraphSimplicialSet("S1", ["*"], [("e", "*", "*")])


def wedge_of_circles() -> GraphSimplicialSet:
    return GraphSimplicialSet("S1vS1", ["*"],
                              [("e1", "*", "*"), ("e2", "*", "*")])


def subdivided_circle() -> GraphSimplicialSet:
    """Two segments glued end to end: vertices * and m, with edges
    e1: * -> m and e2: m -> *."""
    return GraphSimplicialSet("d'S1", ["*", "m"],
                              [("e1", "*", "m"), ("e2", "m", "*")])


def double_edge_circle() -> GraphSimplicialSet:
    """Two parallel edges a -> b (the unreduced double model)."""
    return GraphSimplicialSet("dS1", ["a", "b"],
                              [("e1", "a", "b"), ("e2", "a", "b")])


def point() -> GraphSimplicialSet:
    return GraphSimplicialSet("pt", ["*"], [])


def pinch_subdivided() -> SimplicialMap:
    """d'S1 -> S1 v S1 collapsing the two segment endpoints together."""
    return SimplicialMap(subdivided_circle(), wedge_of_circles(),
                         {"*": "*", "m": "*"},
                         {"e1": ("e", "e1"), "e2": ("e", "e2")}, name="pinch")


def pinch_double_edge() -> SimplicialMap:
    """dS1 -> S1 v S1 identifying the two vertices."""
    return SimplicialMap(double_edge_circle(), wedge_of_circles(),
                         {"a": "*", "b": "*"},
                         {"e1": ("e", "e1"), "e2": ("e", "e2")}, name="pinch")


def collapse_subdivided() -> SimplicialMap:
    """d'S1 -> S1 collapsing the second segment."""
    return SimplicialMap(subdivided_circle(), circle(),
                         {"*": "*", "m": "*"},
                         {"e1": ("e", "e"), "e2": ("v", "*")}, name="pi")


def collapse_double_edge() -> SimplicialMap:
    """dS1 -> S1 collapsing the second edge."""
    return SimplicialMap(double_edge_circle(), circle(),
                         {"a": "*", "b": "*"},
                         {"e1": ("e", "e"), "e2": ("v", "*")}, name="pi")


def flip_double_edge() -> SimplicialMap:
    """The involution of dS1 swapping the two parallel edges."""
    X = double_edge_circle()
    return SimplicialMap(X, double_edge_circle(), {"a": "a", "b": "b"},
                         {"e1": ("e", "e2"), "e2": ("e", "e1")}, name="flip")


def wedge_projection(which: int) -> SimplicialMap:
    """S1 v S1 -> S1 keeping loop `which` (0 or 1), collapsing the other."""
    keep = f"e{which + 1}"
    emap = {e: ("e", "e") if e == keep else ("v", "*") for e in ("e1", "e2")}
    return SimplicialMap(wedge_of_circles(), circle(), {"*": "*"}, emap,
                         name=f"proj{which}")

