"""Tests for quiver construction, forms, Coxeter action and parsing.

Expected values below are hand-derived from the definitions:
  * Euler form  <d, e> = sum_i d_i e_i - sum_{arrows i->j} d_i e_j
  * Coxeter matrix Phi = -E E^{-T} with E = I - A acting on row vectors
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hallchar.quiver import (
    Quiver,
    kronecker_quiver,
    linear_quiver,
    load_quiver,
    parse_quiver,
    quiver_by_name,
)


def opposite(quiver):
    """The quiver with all arrows reversed."""
    return Quiver(
        quiver.n,
        [(t, s) for (s, t) in quiver.arrows],
        arrow_names=quiver.arrow_names,
        name=None if quiver.name is None else quiver.name + "_op",
    )


def test_kronecker_basics():
    Q = kronecker_quiver()
    assert Q.n == 2
    assert Q.arrows == ((0, 1), (0, 1))
    assert np.array_equal(Q.arrow_matrix, np.array([[0, 2], [0, 0]]))
    assert Q.is_kronecker()
    assert not Q.is_dynkin()


def test_euler_form_kronecker():
    Q = kronecker_quiver()
    # <(1,0),(0,1)> = 0 - 2*1*1 = -2 ; <(0,1),(1,0)> = 0 (no arrows back)
    assert Q.euler_form((1, 0), (0, 1)) == -2
    assert Q.euler_form((0, 1), (1, 0)) == 0
    assert Q.euler_form((1, 1), (1, 1)) == 1 + 1 - 2 == 0
    # Tits form of the minimal imaginary root is 0
    assert Q.tits_form((1, 1)) == 0
    assert Q.tits_form((1, 0)) == 1
    assert Q.tits_form((2, 1)) == 4 + 1 - 4 == 1


def test_euler_form_a2():
    Q = linear_quiver(2)
    # single arrow 1 -> 2: <d,e> = d1 e1 + d2 e2 - d1 e2
    assert Q.euler_form((1, 0), (0, 1)) == -1
    assert Q.euler_form((0, 1), (1, 0)) == 0
    assert Q.euler_form((1, 1), (1, 1)) == 1


def test_coxeter_matrix_kronecker():
    Q = kronecker_quiver()
    # E = [[1,-2],[0,1]], E^{-T} = [[1,0],[2,1]], Phi = -E E^{-T} = [[3,2],[-2,-1]]
    assert np.array_equal(Q.coxeter_matrix, np.array([[3, 2], [-2, -1]]))
    # tau S_1: dim (1,0) -> (3,2)
    assert Q.coxeter((1, 0)) == (3, 2)
    assert Q.coxeter_inverse((3, 2)) == (1, 0)
    # preprojectives march: tau P_{n+2} = P_n means (n+2,n+3)Phi = (n,n+1)
    assert Q.coxeter((2, 3)) == (0, 1)
    assert Q.coxeter((3, 4)) == (1, 2)
    # regulars are tau-fixed: (m,m)Phi = (m,m)
    assert Q.coxeter((1, 1)) == (1, 1)
    assert Q.coxeter((2, 2)) == (2, 2)


def test_coxeter_matrix_a2():
    Q = linear_quiver(2)
    # tau S_1 = S_2 on 1 -> 2 (S_1 is the injective I(1), S_2 the projective)
    assert Q.coxeter((1, 0)) == (0, 1)
    # (dim P_i) Phi = -dim I_i: P(1) = (1,1), I(1) = (1,0)
    assert Q.coxeter((1, 1)) == (-1, 0)
    assert Q.coxeter((0, 1)) == (-1, -1)


def test_coxeter_matrix_a3():
    Q = linear_quiver(3)
    for i in range(3):
        p = Q.projective_dim(i)
        iv = Q.injective_dim(i)
        assert Q.coxeter(p) == tuple(-x for x in iv)


@st.composite
def quivers_and_vectors(draw):
    """An acyclic quiver (arrows i -> j only for i < j, up to two parallel)
    and an integer vector on its vertices."""
    n = draw(st.integers(1, 6))
    arrows = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        for _ in range(draw(st.integers(0, 2)))
    ]
    d = tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    return Quiver(n, arrows), d


@given(quivers_and_vectors())
def test_coxeter_inverse_inverts_coxeter(qd):
    Q, d = qd
    assert Q.coxeter_inverse(Q.coxeter(d)) == d
    assert Q.coxeter(Q.coxeter_inverse(d)) == d


@st.composite
def acyclic_quivers_and_vectors(draw):
    """A tree in a random orientation (up to 7 vertices), the Kronecker
    quiver with 3 arrows, or the triangle 1 -> 2 -> 3, 1 -> 3, and an
    integer vector on its vertices."""
    kind = draw(st.sampled_from(["tree", "kronecker3", "triangle"]))
    if kind == "tree":
        n = draw(st.integers(1, 7))
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        Q = Quiver(n, [(t, s) if f else (s, t) for (s, t), f in zip(edges, flips)])
    elif kind == "kronecker3":
        Q = Quiver(2, [(0, 1)] * 3)
    else:
        Q = Quiver(3, [(0, 1), (1, 2), (0, 2)])
    d = tuple(draw(st.lists(st.integers(-6, 6), min_size=Q.n, max_size=Q.n)))
    return Q, d


@given(acyclic_quivers_and_vectors())
def test_path_counts_invert_the_euler_matrix(qd):
    """E C = I for E = I - A and C the path counts (row i = dim P(i)),
    the matrix the Coxeter matrix is built from; then (dim P(i)) Phi =
    -dim I(i) and Phi^{-1} inverts Phi."""
    Q, d = qd
    E = np.array(Q.euler_matrix)
    C = np.array([Q.projective_dim(i) for i in range(Q.n)])
    assert np.array_equal(E @ C, np.eye(Q.n, dtype=E.dtype))
    for i in range(Q.n):
        assert Q.coxeter(Q.projective_dim(i)) == tuple(-x for x in Q.injective_dim(i))
    assert Q.coxeter_inverse(Q.coxeter(d)) == d


def test_projective_injective_dims():
    Q = linear_quiver(3)  # 1 -> 2 -> 3
    assert Q.projective_dim(0) == (1, 1, 1)
    assert Q.projective_dim(1) == (0, 1, 1)
    assert Q.projective_dim(2) == (0, 0, 1)
    assert Q.injective_dim(0) == (1, 0, 0)
    assert Q.injective_dim(1) == (1, 1, 0)
    assert Q.injective_dim(2) == (1, 1, 1)
    K = kronecker_quiver()
    assert K.projective_dim(0) == (1, 2)
    assert K.projective_dim(1) == (0, 1)
    assert K.injective_dim(0) == (1, 0)
    assert K.injective_dim(1) == (2, 1)


def test_dynkin_detection_and_roots():
    A2 = linear_quiver(2)
    assert A2.is_dynkin()
    assert A2.positive_roots() == [(0, 1), (1, 0), (1, 1)]
    A3 = linear_quiver(3)
    assert A3.is_dynkin()
    roots = A3.positive_roots()
    assert len(roots) == 6  # A_3 has 3*4/2 positive roots
    assert (1, 1, 1) in roots and (0, 1, 1) in roots
    K = kronecker_quiver()
    with pytest.raises(ValueError):
        K.positive_roots()


def dynkin_edges(kind, n):
    """The A/D/E diagram on n vertices as edges (i, j): the path 0 - 1 - ...,
    and for D_n and E_n the last vertex hung on vertex n - 3 or 2."""
    path = n if kind == "A" else n - 1
    edges = [(i, i + 1) for i in range(path - 1)]
    if kind != "A":
        edges.append(({"D": n - 3, "E": 2}[kind], n - 1))
    return edges


def dynkin_quiver(kind, n, flips):
    """The diagram with edge k oriented i -> j, or j -> i when flips[k]."""
    return Quiver(n, [(t, s) if f else (s, t) for (s, t), f in zip(dynkin_edges(kind, n), flips)])


def dynkin_orientations(kind, n):
    """Strategy: the diagram in a random orientation."""
    return st.lists(st.booleans(), min_size=n - 1, max_size=n - 1).map(
        lambda flips: dynkin_quiver(kind, n, flips)
    )


def tits_box_roots(Q):
    """Every nonzero d in [0, 6]^n with q(d) = 1, sorted like
    `positive_roots`: the exhaustive box search (the roots of the A/D/E
    diagrams have coordinates at most 6)."""
    box = np.array(list(itertools.product(range(7), repeat=Q.n)), dtype=np.int64)[1:]
    q = np.einsum("ki,ij,kj->k", box, Q.euler_matrix, box)
    return sorted(map(tuple, box[q == 1].tolist()), key=lambda v: (sum(v), v))


ROOT_COUNTS = (
    [("A", n, n * (n + 1) // 2) for n in range(1, 9)]
    + [("D", n, n * (n - 1)) for n in range(4, 9)]
    + [("E", 6, 36), ("E", 7, 63), ("E", 8, 120)]
)


@pytest.mark.parametrize("alternate", [False, True], ids=["path", "alternating"])
@pytest.mark.parametrize(
    "kind, n, count", ROOT_COUNTS, ids=[f"{k}{n}" for k, n, _ in ROOT_COUNTS]
)
def test_positive_roots_are_coxeter_orbits(kind, n, count, alternate):
    """n(n+1)/2 roots for A_n, n(n-1) for D_n, 36, 63 and 120 for E_6, E_7
    and E_8, each of Tits form 1; up to n = 6 they equal the box search."""
    Q = dynkin_quiver(kind, n, [alternate and k % 2 == 0 for k in range(n - 1)])
    roots = Q.positive_roots()
    assert len(roots) == len(set(roots)) == count
    assert all(min(d) >= 0 and Q.tits_form(d) == 1 for d in roots)
    if n <= 6:
        assert roots == tits_box_roots(Q)


def test_topological_order():
    Q = linear_quiver(4)
    assert Q.topological_order() == [0, 1, 2, 3]
    # reversed arrows still topologically sortable
    R = Quiver(3, [(2, 1), (1, 0)])
    assert R.topological_order() == [2, 1, 0]
    with pytest.raises(ValueError):
        Quiver(2, [(0, 1), (1, 0)]).topological_order()


def test_sinks_sources_opposite():
    Q = linear_quiver(3)
    assert Q.sources() == [0]
    assert Q.sinks() == [2]
    Op = opposite(Q)
    assert Op.sources() == [2]
    assert Op.sinks() == [0]
    assert Op.euler_form((1, 0, 0), (0, 0, 1)) == Q.euler_form((0, 0, 1), (1, 0, 0))


def test_parse_quiver():
    text = """
    # comment line
    vertices 3
    arrow a 1 2
    arrow b 2 3
    """
    Q = parse_quiver(text)
    assert Q.n == 3
    assert Q.arrows == ((0, 1), (1, 2))
    assert Q.arrow_names == ("a", "b")
    with pytest.raises(ValueError):
        parse_quiver("vertices 2\narrow a 1 3\n")
    with pytest.raises(ValueError):
        parse_quiver("arrow a 1 2\n")
    with pytest.raises(ValueError):
        parse_quiver("vertices 2\narrow a 1 2\narrow a 2 1\n")
    with pytest.raises(ValueError):
        parse_quiver("vertices 2\narrow a 1 1\n")


def test_load_quiver_presets_and_file(tmp_path):
    assert quiver_by_name("kronecker").is_kronecker()
    assert quiver_by_name("a3").n == 3
    f = tmp_path / "q.quiver"
    f.write_text("vertices 2\narrow a 1 2\narrow b 1 2\n")
    Q = load_quiver(str(f))
    assert Q.is_kronecker()
    assert load_quiver("a2").n == 2
    with pytest.raises(ValueError):
        load_quiver("nosuchpreset")


def test_path_counts():
    Q = linear_quiver(3)
    pc = [Q.projective_dim(i) for i in range(Q.n)]
    # paths include length-0; 1->3 has exactly one path through 2
    assert pc[0][2] == 1
    assert pc[0][0] == 1
    assert pc[2][0] == 0
    K = kronecker_quiver()
    assert K.projective_dim(0)[1] == 2
