"""Tests for representations, Hom/Ext dimensions, isomorphy and Aut counts.

Hand-derived expectations (quiver 1 -> 2 unless stated):
  * Hom(P(1), X) = X_1 for the projective P(1), so Hom(P(1), S_2) = 0 and
    Hom(P(1), S_1) = F.
  * Hom(S_2, P(1)) = socle inclusion, dim 1.
  * Ext^1(S_1, S_2) = F (the extension is P(1)); Ext^1(S_2, S_1) = 0.
  * On Kronecker, regular modules with distinct tube parameters admit only
    the zero morphism.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hallchar import rep
from hallchar.errors import BudgetExceeded
from hallchar.quiver import Quiver, kronecker_quiver, linear_quiver


A2 = linear_quiver(2)
K = kronecker_quiver()


def a2_module(p, d1, d2, m):
    return rep.Rep(A2, p, (d1, d2), [np.array(m, dtype=np.int64).reshape(d2, d1)])


def p1(p):
    return a2_module(p, 1, 1, [1])


def s1(p):
    return rep.Rep.simple(A2, p, 0)


def s2(p):
    return rep.Rep.simple(A2, p, 1)


def aut_count_brute(M, cap=200000):
    """|Aut M| by enumerating all of End(M).  Test oracle for small cases."""
    basis = rep.hom_basis(M, M)
    h = len(basis)
    p, n = M.p, M.quiver.n
    if M.total_dim() == 0:
        return 1
    if p**h > cap:
        raise BudgetExceeded(f"End space has {p}^{h} elements > cap {cap}")
    count = 0
    for coeffs in itertools.product(range(p), repeat=h):
        if rep._is_invertible_everywhere(rep._combine(basis, coeffs, n, p), p):
            count += 1
    return count


def kron_module(p, dims, A, B):
    d1, d2 = dims
    return rep.Rep(
        K,
        p,
        dims,
        [
            np.array(A, dtype=np.int64).reshape(d2, d1),
            np.array(B, dtype=np.int64).reshape(d2, d1),
        ],
    )


def kron_constraint_matrix(M, N):
    """Reference Hom constraint matrix: per arrow a: s -> t one row block
    (I (x) M_a^T, -N_a (x) I) in the columns of vec(f_t) and vec(f_s)."""
    offsets, total = rep._hom_offsets(M, N)
    blocks = [np.zeros((0, total), dtype=np.int64)]
    for a, (s, t) in enumerate(M.quiver.arrows):
        block = np.zeros((N.dims[t] * M.dims[s], total), dtype=np.int64)
        block[:, offsets[t] : offsets[t] + N.dims[t] * M.dims[t]] = np.kron(
            np.eye(N.dims[t], dtype=np.int64), M.mats[a].T
        )
        block[:, offsets[s] : offsets[s] + N.dims[s] * M.dims[s]] = -np.kron(
            N.mats[a], np.eye(M.dims[s], dtype=np.int64)
        )
        blocks.append(block)
    return np.vstack(blocks) % M.p


def test_rep_validation():
    with pytest.raises(ValueError):
        rep.Rep(A2, 2, (1, 1), [np.zeros((2, 1), dtype=np.int64)])
    with pytest.raises(ValueError):
        rep.Rep(A2, 2, (1,), [np.zeros((1, 1), dtype=np.int64)])


def test_hom_dims_a2():
    p = 3
    assert rep.hom_dim(s1(p), s1(p)) == 1
    assert rep.hom_dim(s1(p), s2(p)) == 0
    assert rep.hom_dim(s2(p), s1(p)) == 0
    assert rep.hom_dim(p1(p), s1(p)) == 1
    assert rep.hom_dim(p1(p), s2(p)) == 0
    assert rep.hom_dim(s2(p), p1(p)) == 1
    assert rep.hom_dim(s1(p), p1(p)) == 0
    assert rep.hom_dim(p1(p), p1(p)) == 1


def test_ext_dims_a2():
    p = 2
    assert rep.ext1_dim(s1(p), s2(p)) == 1
    assert rep.ext1_dim(s2(p), s1(p)) == 0
    assert rep.ext1_dim(s1(p), s1(p)) == 0
    assert rep.ext1_dim(p1(p), s2(p)) == 0  # P(1) projective
    assert rep.ext1_dim(p1(p), s1(p)) == 0


def test_hom_basis_is_morphism():
    p = 5
    for M, N in [(p1(p), s1(p)), (s2(p), p1(p)), (p1(p), p1(p))]:
        basis = rep.hom_basis(M, N)
        assert len(basis) == rep.hom_dim(M, N)
        for f in basis:
            assert rep.is_morphism(M, N, f)


def test_hom_dim_kronecker_regulars():
    p = 5
    r0 = kron_module(p, (1, 1), [1], [0])  # tube 0
    r1 = kron_module(p, (1, 1), [1], [1])  # tube 1
    assert rep.hom_dim(r0, r1) == 0
    assert rep.hom_dim(r1, r0) == 0
    assert rep.hom_dim(r0, r0) == 1
    # Ext^1 between distinct tubes vanishes; self-extension is 1-dim
    assert rep.ext1_dim(r0, r1) == 0
    assert rep.ext1_dim(r0, r0) == 1


def test_hom_dim_kronecker_preproj_to_preinj():
    p = 3
    # Hom(P_0, I_2) = (I_2)_2, dimension 2 (P_0 = simple projective (0,1))
    p0 = rep.Rep.simple(K, p, 1)
    i2 = kron_module(p, (3, 2), [[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]])
    assert rep.hom_dim(p0, i2) == 2


def test_direct_sum():
    p = 3
    M = rep.direct_sum(s1(p), s2(p))
    assert M.dims == (1, 1)
    assert np.array_equal(M.mats[0], np.zeros((1, 1), dtype=np.int64))
    N = rep.direct_sum(p1(p), p1(p))
    assert N.dims == (2, 2)
    assert np.array_equal(N.mats[0], np.eye(2, dtype=np.int64))
    with pytest.raises(ValueError):
        rep.direct_sum(s1(2), s1(3))


def test_key_is_built_once(monkeypatch):
    calls = []
    key_of = rep.Rep.key_of
    monkeypatch.setattr(rep.Rep, "key_of", staticmethod(lambda *a: calls.append(1) or key_of(*a)))
    M = rep.direct_sum(s1(3), p1(3))
    built = len(calls)
    assert M.key is M.key
    assert len(calls) == built
    assert M.key == key_of(A2, 3, M.dims, (m.tobytes() for m in M.mats))


def test_is_isomorphic_basic():
    p = 3
    assert rep.is_isomorphic(s1(p), s1(p))
    assert not rep.is_isomorphic(s1(p), s2(p))
    # P(1) vs S_1 + S_2: same dims, different modules
    assert not rep.is_isomorphic(p1(p), rep.direct_sum(s1(p), s2(p)))
    # conjugated copy of P(1) + P(1) is isomorphic to the plain one
    N = rep.Rep(A2, p, (2, 2), [np.array([[1, 1], [0, 1]], dtype=np.int64)])
    assert rep.is_isomorphic(N, rep.direct_sum(p1(p), p1(p)))
    assert rep.is_isomorphic(rep.Rep.zero(A2, p), rep.Rep.zero(A2, p))


def test_is_isomorphic_kronecker_tubes():
    p = 5
    r0 = kron_module(p, (1, 1), [1], [0])
    r1 = kron_module(p, (1, 1), [1], [1])
    assert not rep.is_isomorphic(r0, r1)
    # jordan block vs split square in the same tube
    j2 = kron_module(p, (2, 2), np.eye(2), [[0, 1], [0, 0]])
    split = kron_module(p, (2, 2), np.eye(2), np.zeros((2, 2)))
    assert not rep.is_isomorphic(j2, split)
    assert rep.is_isomorphic(j2, kron_module(p, (2, 2), np.eye(2), [[0, 0], [1, 0]]))


def test_aut_counts_brute_vs_formula():
    # |Aut| values checked by hand:
    #   S_1 over F_3: F_3^* -> 2
    #   S_1^2 over F_2: GL_2(F_2) -> 6
    #   S_1 + S_2 over F_2: units act separately, no cross homs -> 1
    #   P(1) + S_1 over F_2: dim End = 3, head GL_1 x GL_1, radical dim 1 -> 2
    p = 3
    assert aut_count_brute(s1(p)) == 2
    assert rep.aut_count_from_mults(s1(p), [1]) == 2
    M = rep.direct_sum(s1(2), s1(2))
    assert aut_count_brute(M) == 6
    assert rep.aut_count_from_mults(M, [2]) == 6
    N = rep.direct_sum(s1(2), s2(2))
    assert aut_count_brute(N) == 1
    assert rep.aut_count_from_mults(N, [1, 1]) == 1
    P = rep.direct_sum(p1(2), s1(2))
    assert aut_count_brute(P) == 2
    assert rep.aut_count_from_mults(P, [1, 1]) == 2
    # zero module
    assert aut_count_brute(rep.Rep.zero(A2, 2)) == 1
    assert rep.aut_count_from_mults(rep.Rep.zero(A2, 2), []) == 1


def test_aut_count_brute_budget():
    M = rep.direct_sum(*[s1(5)] * 4)  # End = M_4(F_5), 5^16 elements
    with pytest.raises(BudgetExceeded):
        aut_count_brute(M, cap=1000)


def test_gl_order():
    assert rep.gl_order(1, 2) == 1
    assert rep.gl_order(2, 2) == 6
    assert rep.gl_order(2, 3) == (9 - 1) * (9 - 3)  # 48
    assert rep.gl_order(0, 7) == 1


def test_sub_quotient_pair():
    p = 3
    M = p1(p)
    # the subspace spanned by e at vertex 2 is a subrep; sub = S_2, quot = S_1
    bases = [np.zeros((1, 0), dtype=np.int64), np.array([[1]], dtype=np.int64)]
    sub, quot = rep.sub_quotient_pair(M, bases)
    assert sub.dims == (0, 1)
    assert quot.dims == (1, 0)
    # vertex-1 line alone is NOT a subrep of P(1)
    bad = [np.array([[1]], dtype=np.int64), np.zeros((1, 0), dtype=np.int64)]
    with pytest.raises(ValueError):
        rep.sub_quotient_pair(M, bad)


def test_kernel_cokernel():
    p = 5
    # quotient map P(1) ->> S_1 has kernel S_2
    f = (np.array([[1]], dtype=np.int64), np.zeros((0, 1), dtype=np.int64))
    assert rep.is_morphism(p1(p), s1(p), f)
    ker = rep.kernel_rep(p1(p), s1(p), f)
    assert rep.is_isomorphic(ker, s2(p))
    cok = rep.cokernel_rep(p1(p), s1(p), f)
    assert cok.is_zero()
    # socle inclusion S_2 -> P(1) has cokernel S_1
    g = (np.zeros((1, 0), dtype=np.int64), np.array([[1]], dtype=np.int64))
    assert rep.is_morphism(s2(p), p1(p), g)
    assert rep.kernel_rep(s2(p), p1(p), g).is_zero()
    cok = rep.cokernel_rep(s2(p), p1(p), g)
    assert rep.is_isomorphic(cok, s1(p))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([linear_quiver(3), Quiver(4, [(0, 1), (2, 1), (1, 3)]), K]),
    st.sampled_from([2, 3, 5]),
    st.data(),
)
def test_random_rep_and_opposite(quiver, p, data):
    """Hom(M, N) ~= Hom(N^op, M^op) over the opposite quiver, and so
    Ext^1(M, N) ~= Ext^1(N^op, M^op), on A_3, D_4 and Kronecker; N
    sometimes contains M, so that Hom(M, N) is not zero."""
    dims = st.lists(st.integers(0, 3), min_size=quiver.n, max_size=quiver.n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    M = rep.random_rep(quiver, data.draw(dims), p, rng)
    N = rep.random_rep(quiver, data.draw(dims), p, rng)
    if data.draw(st.booleans()):
        N = rep.direct_sum(M, N)
    opp = quiver.opposite()
    Mo = rep.opposite_rep(M, opp)
    No = rep.opposite_rep(N, opp)
    assert Mo.quiver is opp and Mo.dims == M.dims
    assert rep.hom_dim(M, N) == rep.hom_dim(No, Mo)
    assert rep.hom_dim(N, M) == rep.hom_dim(Mo, No)
    assert rep.ext1_dim(M, N) == rep.ext1_dim(No, Mo)


def test_image_dims():
    p = 2
    f = (np.array([[1]], dtype=np.int64), np.zeros((0, 1), dtype=np.int64))
    assert rep.image_dims(f, p) == (1, 0)


@pytest.mark.parametrize(
    "quiver",
    [linear_quiver(3), Quiver(3, [(1, 0), (1, 2)]), K],
    ids=["a3", "a3-source-middle", "kronecker"],
)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_hom_constraint_matrix_matches_kronecker_form(quiver, p):
    rng = np.random.default_rng(p)
    zero_seen = False
    for _ in range(60):
        d = tuple(int(x) for x in rng.integers(0, 4, size=quiver.n))
        e = tuple(int(x) for x in rng.integers(0, 4, size=quiver.n))
        zero_seen |= 0 in d + e
        M = rep.random_rep(quiver, d, p, rng)
        N = rep.random_rep(quiver, e, p, rng)
        C = rep.hom_constraint_matrix(M, N)
        ref = kron_constraint_matrix(M, N)
        assert C.dtype == ref.dtype
        assert C.shape == ref.shape
        assert np.array_equal(C, ref)
    assert zero_seen
