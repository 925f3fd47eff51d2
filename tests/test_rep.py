"""Tests for representations, Hom/Ext dimensions, isomorphy and Aut counts.

Hand-derived expectations (quiver 1 -> 2 unless stated):
  * Hom(P(1), X) = X_1 for the projective P(1), so Hom(P(1), S_2) = 0 and
    Hom(P(1), S_1) = F.
  * Hom(S_2, P(1)) = socle inclusion, dim 1.
  * Ext^1(S_1, S_2) = F (the extension is P(1)); Ext^1(S_2, S_1) = 0.
  * On Kronecker, regular modules with distinct tube parameters admit only
    the zero morphism.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hallchar
from hallchar import catalog, linalg, memo, rep
from hallchar.errors import BudgetExceeded, ComputationError
from hallchar.quiver import Quiver, kronecker_quiver, linear_quiver
from test_linalg import (
    column_space_canonical,
    inv_mod,
    is_invertible_mod,
    matmul_mod,
    nullspace_mod,
)
from test_quiver import opposite


A2 = linear_quiver(2)
K = kronecker_quiver()


# -- the numpy toolkit of the tests ------------------------------------------
#
# Hom bases, isomorphism search, sub/quotient construction by basis
# completion and random modules, on int64 arrays read from `Rep.mats`
# through `arrays`.  No package module calls them: they are oracles and
# fixtures for the tests.


def arrays(M):
    """The arrow matrices of M as int64 arrays of shape (d_t, d_s), empty
    ones included."""
    return [
        np.array(m, dtype=np.int64).reshape(M.dims[t], M.dims[s])
        for m, (s, t) in zip(M.mats, M.quiver.arrows)
    ]


def _hom_offsets(M, N):
    """Start offset of vec(f_i) inside the stacked unknown vector."""
    offsets = []
    pos = 0
    for i in range(M.quiver.n):
        offsets.append(pos)
        pos += N.dims[i] * M.dims[i]
    return offsets, pos


def hom_constraint_matrix(M, N):
    """Matrix C with Hom(M, N) = ker C, unknowns = stacked row-major vec(f_i)
    (`rep.hom_constraint_rows` as an int64 array)."""
    unknowns, rows = rep.hom_constraint_rows(M.quiver, M.p, M.dims, M.mats, N.dims, N.mats)
    return np.array(rows, dtype=np.int64).reshape(len(rows), unknowns)


def hom_basis(M, N):
    """Basis of Hom(M, N) as tuples of per-vertex matrices."""
    rep._check_compatible(M, N)
    offsets, total = _hom_offsets(M, N)
    if total == 0:
        return []
    C = hom_constraint_matrix(M, N)
    if C.shape[0] == 0:
        K = np.eye(total, dtype=np.int64)
    else:
        K = nullspace_mod(C, M.p)
    basis = []
    for j in range(K.shape[1]):
        basis.append(_unflatten(K[:, j], M, N, offsets))
    return basis


def _unflatten(x, M, N, offsets):
    mats = []
    for i in range(M.quiver.n):
        e, d = N.dims[i], M.dims[i]
        mats.append(
            np.ascontiguousarray(
                x[offsets[i] : offsets[i] + e * d].reshape(e, d)
            )
        )
    return tuple(mats)


def is_morphism(M, N, f):
    """Check the intertwining relations (used in tests)."""
    p = M.p
    for a, (s, t) in enumerate(M.quiver.arrows):
        lhs = matmul_mod(f[t], arrays(M)[a], p)
        rhs = matmul_mod(arrays(N)[a], f[s], p)
        if not np.array_equal(lhs, rhs):
            return False
    return True


def _combine(basis, coeffs, n, p):
    """Linear combination of hom-basis elements."""
    out = []
    for i in range(n):
        acc = np.zeros_like(basis[0][i])
        for c, f in zip(coeffs, basis):
            if c:
                acc = acc + c * f[i]
        out.append(acc % p)
    return out


def _is_invertible_everywhere(f, p):
    for m in f:
        if m.shape[0] != m.shape[1]:
            return False
        if m.shape[0] and not is_invertible_mod(m, p):
            return False
    return True


class InconclusiveIso(ComputationError):
    """An isomorphism test could neither confirm nor refute within budget."""


def is_isomorphic(M, N, exhaustive_cap=20000, random_budget=200, seed=0):
    """Decide M ~= N by locating an invertible element of Hom(M, N).

    Small Hom spaces are searched exhaustively (definitive either way).
    Larger ones use randomized search; failure there raises InconclusiveIso
    rather than returning a possibly wrong False.
    """
    rep._check_compatible(M, N)
    if M.dims != N.dims:
        return False
    if M.total_dim() == 0:
        return True
    # necessary numeric invariants, cheap rejection
    if rep.hom_dim(M, M) != rep.hom_dim(N, N):
        return False
    basis = hom_basis(M, N)
    h = len(basis)
    if h == 0:
        return False
    p, n = M.p, M.quiver.n
    if p**h <= exhaustive_cap:
        for coeffs in itertools.product(range(p), repeat=h):
            if any(coeffs) and _is_invertible_everywhere(
                _combine(basis, coeffs, n, p), p
            ):
                return True
        return False
    rng = np.random.default_rng(seed)
    # deterministic single-element and all-ones tries first
    for coeffs in [c for c in np.eye(h, dtype=np.int64)] + [np.ones(h, dtype=np.int64)]:
        if _is_invertible_everywhere(_combine(basis, coeffs, n, p), p):
            return True
    for _ in range(random_budget):
        coeffs = rng.integers(0, p, size=h)
        if any(coeffs) and _is_invertible_everywhere(
            _combine(basis, coeffs, n, p), p
        ):
            return True
    raise InconclusiveIso(
        f"no isomorphism found in {random_budget} random tries "
        f"(dims {M.dims}, hom dim {h}); cannot certify non-isomorphy"
    )


def _complete_basis(U, n, p):
    """Extend independent columns U (n x k) to an invertible n x n matrix."""
    k = U.shape[1]
    if k == n:
        return U.copy()
    # pivot coordinates of the column span; standard vectors elsewhere
    B = np.ascontiguousarray(U.T % p)
    rank, pivots = linalg.rref_mod(B, p)
    if rank != k:
        raise ValueError("columns are not independent")
    piv_set = set(int(pivots[i]) for i in range(rank))
    cols = [U % p]
    extra = np.zeros((n, n - k), dtype=np.int64)
    j = 0
    for i in range(n):
        if i not in piv_set:
            extra[i, j] = 1
            j += 1
    cols.append(extra)
    out = np.hstack(cols)
    return out


def sub_quotient_pair(M, bases):
    """Sub and quotient representations for per-vertex column bases.

    `bases[i]` is a dims[i] x k_i matrix of independent columns spanning a
    subspace U_i; the U_i must form a subrepresentation (M_a U_s inside U_t
    for every arrow), otherwise ValueError is raised.  Returns (sub, quot).
    """
    Q, p = M.quiver, M.p
    k = [b.shape[1] for b in bases]
    B = [_complete_basis(np.asarray(b, dtype=np.int64) % p, M.dims[i], p) for i, b in enumerate(bases)]
    Binv = []
    for i, b in enumerate(B):
        if M.dims[i] == 0:
            Binv.append(np.zeros((0, 0), dtype=np.int64))
            continue
        ok, binv = inv_mod(b, p)
        if not ok:
            raise ValueError("basis completion failed")
        Binv.append(binv)
    sub_mats, quot_mats = [], []
    for a, (s, t) in enumerate(Q.arrows):
        if M.dims[t] == 0 or M.dims[s] == 0:
            conj = np.zeros((M.dims[t], M.dims[s]), dtype=np.int64)
        else:
            conj = matmul_mod(
                Binv[t], matmul_mod(arrays(M)[a], B[s], p), p
            )
        if np.any(conj[k[t] :, : k[s]] % p):
            raise ValueError("given subspaces are not a subrepresentation")
        sub_mats.append(conj[: k[t], : k[s]].copy())
        quot_mats.append(conj[k[t] :, k[s] :].copy())
    sub = rep.Rep(Q, p, k, sub_mats)
    quot = rep.Rep(Q, p, [M.dims[i] - k[i] for i in range(Q.n)], quot_mats)
    return sub, quot


def kernel_rep(M, N, f):
    """Kernel of a morphism f: M -> N as a representation (sub of M)."""
    bases = [nullspace_mod(f[i], M.p) if M.dims[i] else np.zeros((0, 0), dtype=np.int64) for i in range(M.quiver.n)]
    sub, _ = sub_quotient_pair(M, bases)
    return sub


def cokernel_rep(M, N, f):
    """Cokernel of a morphism f: M -> N as a representation (quotient of N)."""
    bases = []
    for i in range(N.quiver.n):
        if N.dims[i] == 0:
            bases.append(np.zeros((0, 0), dtype=np.int64))
        else:
            bases.append(column_space_canonical(f[i], N.p))
    _, quot = sub_quotient_pair(N, bases)
    return quot


def image_dims(f, p):
    """Per-vertex rank of a morphism."""
    return tuple(
        int(linalg.rank_mod(m, p)) if m.size else 0 for m in f
    )


def random_rep(quiver, dims, p, rng):
    """Uniformly random representation with the given dimension vector."""
    mats = [
        rng.integers(0, p, size=(dims[t], dims[s])).astype(np.int64)
        for (s, t) in quiver.arrows
    ]
    return rep.Rep(quiver, p, dims, mats)


def random_invertible(n, p, rng):
    while True:
        g = rng.integers(0, p, size=(n, n))
        if is_invertible_mod(g, p):
            return g


def conjugate(M, rng):
    """An isomorphic copy g_t M_a g_s^{-1} with random invertible g_i."""
    p = M.p
    g = [random_invertible(d, p, rng) for d in M.dims]
    mats = [
        g[t] @ m @ inv_mod(g[s], p)[1] for (s, t), m in zip(M.quiver.arrows, arrays(M))
    ]
    return rep.Rep(M.quiver, p, M.dims, mats)


def opposite_rep(M, opp=None):
    """The same linear data viewed over the opposite quiver.

    Transposing every matrix turns M_a: s -> t into a matrix for the
    reversed arrow t -> s; Hom(M, N) ~= Hom(N^op, M^op), so this gives a
    cheap cross-check path (e.g. Gr_e(M) ~= Gr_{d-e}(M^op) by U -> U-perp).
    """
    Q = M.quiver
    if opp is None:
        opp = opposite(Q)
    mats = [m.T.copy() for m in arrays(M)]
    return rep.Rep(opp, M.p, M.dims, mats)


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
    basis = hom_basis(M, M)
    h = len(basis)
    p, n = M.p, M.quiver.n
    if M.total_dim() == 0:
        return 1
    if p**h > cap:
        raise BudgetExceeded(f"End space has {p}^{h} elements > cap {cap}")
    count = 0
    for coeffs in itertools.product(range(p), repeat=h):
        if _is_invertible_everywhere(_combine(basis, coeffs, n, p), p):
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
    offsets, total = _hom_offsets(M, N)
    blocks = [np.zeros((0, total), dtype=np.int64)]
    for a, (s, t) in enumerate(M.quiver.arrows):
        block = np.zeros((N.dims[t] * M.dims[s], total), dtype=np.int64)
        block[:, offsets[t] : offsets[t] + N.dims[t] * M.dims[t]] = np.kron(
            np.eye(N.dims[t], dtype=np.int64), arrays(M)[a].T
        )
        block[:, offsets[s] : offsets[s] + N.dims[s] * M.dims[s]] = -np.kron(
            arrays(N)[a], np.eye(M.dims[s], dtype=np.int64)
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
        basis = hom_basis(M, N)
        assert len(basis) == rep.hom_dim(M, N)
        for f in basis:
            assert is_morphism(M, N, f)


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


@pytest.mark.parametrize(
    "quiver, classes",
    [
        (
            linear_quiver(3),
            ((("root", (0, 1, 0)), 1), (("root", (1, 1, 0)), 1), (("root", (1, 1, 1)), 1)),
        ),
        (K, ((("P", 1), 1), (("Rc", 1, 1), 1))),
    ],
    ids=["a3", "kronecker"],
)
def test_census_rows_and_rep_share_one_decompose_entry(quiver, classes, monkeypatch):
    """A census's sub or quotient rows and a `Rep` of the same matrices
    read one `catalog.decompose` entry: the first read classifies (a
    miss), the second hits, whichever of the two comes first."""
    p = 3
    M = catalog.module_from_classes(quiver, classes, p)
    classified = []
    real = catalog._classify_rows
    monkeypatch.setattr(catalog, "_classify_rows", lambda *a: classified.append(a) or real(*a))
    from test_subspaces import subrep_bases

    table = memo.TABLES["catalog.decompose"]
    checked = 0
    for e in itertools.product(*[range(d + 1) for d in M.dims]):
        quot_dims = tuple(d - k for d, k in zip(M.dims, e))
        for _, sub, quot in subrep_bases(M, e):
            for dims, blocks in ((e, sub), (quot_dims, quot)):
                if not any(dims):
                    continue
                for rows_first in (True, False):
                    memo.clear()
                    classified.clear()
                    reads = [
                        lambda: catalog._decompose_rows(quiver, p, dims, blocks),
                        lambda: catalog.decompose(rep.Rep(quiver, p, dims, blocks)),
                    ]
                    first, second = reads if rows_first else reads[::-1]
                    got = first()
                    assert len(classified) == 1 and len(table) == 1
                    assert second() == got
                    assert len(classified) == 1 and len(table) == 1
                    checked += 1
    assert checked > 20


def test_numpy_stays_out_of_the_matrix_format():
    """`Rep` holds Python-int rows, so numpy is imported only where an array
    is the point: inside `linalg.rref_mod` (`rref_mod` and `rank_mod` on
    arrays).  No module imports `array`."""
    importers = {"numpy": set(), "array": set()}
    for path in sorted(Path(hallchar.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                importers.get(name.split(".")[0], set()).add(path.stem)
    assert importers == {"numpy": {"linalg"}, "array": set()}


def test_is_isomorphic_basic():
    p = 3
    assert is_isomorphic(s1(p), s1(p))
    assert not is_isomorphic(s1(p), s2(p))
    # P(1) vs S_1 + S_2: same dims, different modules
    assert not is_isomorphic(p1(p), rep.direct_sum(s1(p), s2(p)))
    # conjugated copy of P(1) + P(1) is isomorphic to the plain one
    N = rep.Rep(A2, p, (2, 2), [np.array([[1, 1], [0, 1]], dtype=np.int64)])
    assert is_isomorphic(N, rep.direct_sum(p1(p), p1(p)))
    assert is_isomorphic(rep.Rep.zero(A2, p), rep.Rep.zero(A2, p))


def test_is_isomorphic_kronecker_tubes():
    p = 5
    r0 = kron_module(p, (1, 1), [1], [0])
    r1 = kron_module(p, (1, 1), [1], [1])
    assert not is_isomorphic(r0, r1)
    # jordan block vs split square in the same tube
    j2 = kron_module(p, (2, 2), np.eye(2), [[0, 1], [0, 0]])
    split = kron_module(p, (2, 2), np.eye(2), np.zeros((2, 2)))
    assert not is_isomorphic(j2, split)
    assert is_isomorphic(j2, kron_module(p, (2, 2), np.eye(2), [[0, 0], [1, 0]]))


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
    sub, quot = sub_quotient_pair(M, bases)
    assert sub.dims == (0, 1)
    assert quot.dims == (1, 0)
    # vertex-1 line alone is NOT a subrep of P(1)
    bad = [np.array([[1]], dtype=np.int64), np.zeros((1, 0), dtype=np.int64)]
    with pytest.raises(ValueError):
        sub_quotient_pair(M, bad)


def test_kernel_cokernel():
    p = 5
    # quotient map P(1) ->> S_1 has kernel S_2
    f = (np.array([[1]], dtype=np.int64), np.zeros((0, 1), dtype=np.int64))
    assert is_morphism(p1(p), s1(p), f)
    ker = kernel_rep(p1(p), s1(p), f)
    assert is_isomorphic(ker, s2(p))
    cok = cokernel_rep(p1(p), s1(p), f)
    assert cok.is_zero()
    # socle inclusion S_2 -> P(1) has cokernel S_1
    g = (np.zeros((1, 0), dtype=np.int64), np.array([[1]], dtype=np.int64))
    assert is_morphism(s2(p), p1(p), g)
    assert kernel_rep(s2(p), p1(p), g).is_zero()
    cok = cokernel_rep(s2(p), p1(p), g)
    assert is_isomorphic(cok, s1(p))


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
    M = random_rep(quiver, data.draw(dims), p, rng)
    N = random_rep(quiver, data.draw(dims), p, rng)
    if data.draw(st.booleans()):
        N = rep.direct_sum(M, N)
    opp = opposite(quiver)
    Mo = opposite_rep(M, opp)
    No = opposite_rep(N, opp)
    assert Mo.quiver is opp and Mo.dims == M.dims
    assert rep.hom_dim(M, N) == rep.hom_dim(No, Mo)
    assert rep.hom_dim(N, M) == rep.hom_dim(Mo, No)
    assert rep.ext1_dim(M, N) == rep.ext1_dim(No, Mo)


def test_image_dims():
    p = 2
    f = (np.array([[1]], dtype=np.int64), np.zeros((0, 1), dtype=np.int64))
    assert image_dims(f, p) == (1, 0)


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
        M = random_rep(quiver, d, p, rng)
        N = random_rep(quiver, e, p, rng)
        C = hom_constraint_matrix(M, N)
        ref = kron_constraint_matrix(M, N)
        assert C.dtype == ref.dtype
        assert C.shape == ref.shape
        assert np.array_equal(C, ref)
    assert zero_seen
