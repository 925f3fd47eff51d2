"""Tests for the mod-p linear algebra kernels.

Expected values hand-checked against ordinary rank/kernel computations of
small integer matrices reduced mod p, plus property tests of every kernel
against an independent scalar-loop row reduction kept in this file.
"""

import numpy as np
from hypothesis import given, strategies as st

from hallchar import linalg


def A(*rows):
    return np.array(rows, dtype=np.int64)


# -- the numpy toolkit of the tests ------------------------------------------
#
# The package's kernels read Python-int rows; these int64-array helpers serve
# the tests' oracles (basis completion, isomorphism search) and are checked
# against the scalar-loop oracle below.


def nullspace_mod(A, p):
    """Basis of the right kernel of A over F_p, as columns of an n x k
    array (`linalg.nullspace_rows` on A's rows)."""
    n = A.shape[1]
    basis = linalg.nullspace_rows((A % p).tolist(), n, p)
    return np.ascontiguousarray(np.array(basis, dtype=np.int64).reshape(len(basis), n).T)


def inv_mod(A, p):
    """Inverse matrix over F_p; (ok, inv) with ok == 0 when singular.

    [A | I] always has full row rank, so singularity shows up as a pivot
    escaping into the identity block, not as a rank drop.
    """
    n = A.shape[0]
    if n == 0:
        return 1, np.zeros((0, 0), dtype=np.int64)
    aug = [row + [0] * n for row in (A % p).tolist()]
    for i in range(n):
        aug[i][n + i] = 1
    pivots = linalg._rref_rows(aug, 2 * n, p)
    if pivots[n - 1] >= n:
        return 0, np.zeros((n, n), dtype=np.int64)
    return 1, np.array([row[n:] for row in aug], dtype=np.int64)


def matmul_mod(A, B, p):
    """(A @ B) mod p."""
    return (A @ B) % p


def is_invertible_mod(A, p):
    if A.shape[0] != A.shape[1]:
        return False
    return linalg.rank_mod(A, p) == A.shape[0]


def column_space_contains(U, vecs, p):
    """True when every column of `vecs` lies in the column span of U.

    That is rank [U | vecs] == rank U, which holds exactly when no pivot
    of [U | vecs] falls in the `vecs` block.
    """
    k = U.shape[1]
    aug = np.hstack((U, vecs)) % p
    pivots = linalg._rref_rows(aug.tolist(), aug.shape[1], p)
    return not pivots or pivots[-1] < k


def column_space_canonical(U, p):
    """Canonical (reduced column echelon) basis of the column span of U.

    Returns an n x r int64 array; equal subspaces give equal arrays, so the
    result doubles as a dictionary key via ``.tobytes()``.
    """
    n = U.shape[0]
    rows = (U.T % p).tolist()
    rank = len(linalg._rref_rows(rows, n, p))
    basis = np.array(rows[:rank], dtype=np.int64).reshape(rank, n)
    return np.ascontiguousarray(basis.T)


def test_rref_identity():
    M = A([1, 0], [0, 1])
    rank, piv = linalg.rref_mod(M.copy(), 5)
    assert rank == 2
    assert list(piv[:2]) == [0, 1]


def test_rref_rank_deficient():
    # second row = 2 * first row mod 5
    M = A([1, 2, 3], [2, 4, 6])
    rank, piv = linalg.rref_mod(M.copy(), 5)
    assert rank == 1
    assert piv[0] == 0


def test_rank_mod_various():
    M = A([2, 4], [1, 2])
    assert linalg.rank_mod(M, 3) == 1  # rows proportional mod 3
    assert linalg.rank_mod(M, 7) == 1  # and over Q as well
    N = A([1, 1], [1, 2])
    assert linalg.rank_mod(N, 2) == 2  # det = 1
    P = A([1, 1], [1, 3])
    assert linalg.rank_mod(P, 2) == 1  # det = 2 = 0 mod 2
    assert linalg.rank_mod(P, 3) == 2


def test_nullspace():
    # x + 2y + 3z = 0 over F_5: kernel dim 2
    M = A([1, 2, 3])
    K = nullspace_mod(M, 5)
    assert K.shape == (3, 2)
    assert np.all((M @ K) % 5 == 0)
    # each kernel column nonzero
    assert np.all(K.sum(axis=0) > 0)
    # full-rank square matrix: trivial kernel
    N = A([1, 1], [0, 1])
    assert nullspace_mod(N, 3).shape == (2, 0)


def test_inv():
    M = A([1, 2], [3, 4])  # det = -2, invertible mod 5
    ok, Minv = inv_mod(M, 5)
    assert ok == 1
    assert np.array_equal((M @ Minv) % 5, np.eye(2, dtype=np.int64))
    S = A([1, 2], [2, 4])  # singular over every field
    ok, _ = inv_mod(S, 7)
    assert ok == 0


def test_matmul_and_invertible():
    M = A([1, 2], [3, 4])
    N = A([0, 1], [1, 0])
    assert np.array_equal(matmul_mod(M, N, 5), (M @ N) % 5)
    assert is_invertible_mod(M, 5)
    assert not is_invertible_mod(A([1, 2], [2, 4]), 5)
    assert not is_invertible_mod(A([1, 2, 3], [4, 5, 6]), 5)


def test_column_space_contains():
    U = A([1, 0], [0, 1], [0, 0])  # span of e1, e2 in F_5^3
    inside = A([2], [3], [0])
    outside = A([0], [0], [1])
    assert column_space_contains(U, inside, 5)
    assert not column_space_contains(U, outside, 5)


def test_column_space_canonical_key():
    # two different bases of the same plane in F_3^3 canonicalize identically
    U1 = A([1, 0], [0, 1], [1, 1])
    U2 = A([1, 1], [1, 2], [2, 0])  # columns are u1+u2, u1+2u2 (independent)
    C1 = column_space_canonical(U1, 3)
    C2 = column_space_canonical(U2, 3)
    assert np.array_equal(C1, C2)
    # a different plane gives a different key
    U3 = A([1, 0], [0, 1], [0, 0])
    assert not np.array_equal(C1, column_space_canonical(U3, 3))


# -- property tests against a scalar-loop oracle ----------------------------
#
# `_inv_scalar` and `_loop_rref_mod` are the entry-by-entry reducer the
# package used before its kernels moved to Python-int rows, kept verbatim
# as the reference.  The other oracles derive their answers from it.


def _inv_scalar(a, p):
    """Inverse of a mod p by Fermat (p prime, a != 0 mod p)."""
    result = 1
    base = a % p
    exp = p - 2
    while exp > 0:
        if exp & 1:
            result = (result * base) % p
        base = (base * base) % p
        exp >>= 1
    return result


def _loop_rref_mod(A, p):
    """Reduce A (in place) to reduced row echelon form mod p.

    Returns (rank, pivots) where pivots[:rank] holds the pivot columns in
    order.  Deterministic: the first nonzero entry in scan order pivots.
    """
    m, n = A.shape
    pivots = np.full(min(m, n) if m < n else n, -1, dtype=np.int64)
    row = 0
    for col in range(n):
        piv = -1
        for r in range(row, m):
            if A[r, col] % p != 0:
                piv = r
                break
        if piv == -1:
            continue
        if piv != row:
            for c in range(n):
                tmp = A[row, c]
                A[row, c] = A[piv, c]
                A[piv, c] = tmp
        inv = _inv_scalar(A[row, col] % p, p)
        for c in range(n):
            A[row, c] = (A[row, c] * inv) % p
        for r in range(m):
            if r != row and A[r, col] % p != 0:
                f = A[r, col] % p
                for c in range(n):
                    A[r, c] = (A[r, c] - f * A[row, c]) % p
        pivots[row] = col
        row += 1
        if row == m:
            break
    return row, pivots


def _oracle_rank(A, p):
    return _loop_rref_mod(A.copy() % p, p)[0]


def _oracle_nullspace(A, p):
    n = A.shape[1]
    B = A.copy() % p
    rank, pivots = _loop_rref_mod(B, p)
    free = [c for c in range(n) if c not in set(pivots[:rank].tolist())]
    out = np.zeros((n, len(free)), dtype=np.int64)
    for idx, col in enumerate(free):
        out[col, idx] = 1
        for i in range(rank):
            out[pivots[i], idx] = (p - B[i, col]) % p
    return out


def _oracle_inv(A, p):
    n = A.shape[0]
    aug = np.hstack([A % p, np.eye(n, dtype=np.int64)])
    rank, pivots = _loop_rref_mod(aug, p)
    if n and pivots[n - 1] >= n:
        return 0, None
    return 1, aug[:, n:]


def _oracle_canonical(U, p):
    B = np.ascontiguousarray(U.T % p)
    rank, _ = _loop_rref_mod(B, p)
    return B[:rank].T


PRIMES = st.sampled_from([2, 3, 5, 7])


@st.composite
def matrices(draw, p, rows=None, cols=None):
    """An m x n matrix mod p (0 <= m, n <= 8), often of deficient rank:
    either uniform entries or a product L R through an inner size r."""
    m = draw(st.integers(0, 8)) if rows is None else rows
    n = draw(st.integers(0, 8)) if cols is None else cols

    def block(a, b):
        size = a * b
        entries = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
        return np.array(entries, dtype=np.int64).reshape(a, b)

    if draw(st.booleans()):
        return block(m, n)
    r = draw(st.integers(0, min(m, n)))
    return (block(m, r) @ block(r, n)) % p


@st.composite
def prime_and_matrix(draw):
    p = draw(PRIMES)
    return p, draw(matrices(p))


@given(prime_and_matrix())
def test_rref_rank_nullspace_match_loop_oracle(pm):
    p, M = pm
    B, C = M.copy(), M.copy()
    rank, pivots = linalg.rref_mod(B, p)
    o_rank, o_pivots = _loop_rref_mod(C, p)
    assert rank == o_rank
    assert np.array_equal(pivots, o_pivots) and pivots.dtype == np.int64
    assert np.array_equal(B, C)
    assert linalg.rank_mod(M, p) == o_rank
    rows = M.tolist()
    row_lists = list(rows)
    assert linalg.rank_rows(rows, M.shape[1], p) == o_rank
    assert row_lists == M.tolist()  # the row lists are not changed in place
    # row echelon form, as `rank_rows` reduces, has the same pivots
    assert linalg._rref_rows(M.tolist(), M.shape[1], p, reduced=False) == o_pivots[:o_rank].tolist()
    K = nullspace_mod(M, p)
    assert K.dtype == np.int64 and np.array_equal(K, _oracle_nullspace(M, p))
    assert not ((M @ K) % p).any()
    # the rows kernel itself, on tuple rows as a `Rep` holds them
    rows = [tuple(row) for row in M.tolist()]
    assert linalg.nullspace_rows(rows, M.shape[1], p) == K.T.tolist()
    assert rows == [tuple(row) for row in M.tolist()]


@given(st.data())
def test_inv_matches_loop_oracle(data):
    p = data.draw(PRIMES)
    n = data.draw(st.integers(0, 8))
    M = data.draw(matrices(p, n, n))
    ok, inv = inv_mod(M, p)
    o_ok, o_inv = _oracle_inv(M, p)
    assert ok == o_ok
    assert is_invertible_mod(M, p) == bool(o_ok)
    if o_ok:
        assert np.array_equal(inv, o_inv)
        assert np.array_equal((M @ inv) % p, np.eye(n, dtype=np.int64))


@given(st.data())
def test_column_space_kernels_match_loop_oracle(data):
    p = data.draw(PRIMES)
    n = data.draw(st.integers(0, 8))
    U = data.draw(matrices(p, rows=n))
    vecs = data.draw(matrices(p, rows=n))
    if data.draw(st.booleans()):
        # a combination of U's columns, so containment holds
        coeffs = data.draw(matrices(p, rows=U.shape[1], cols=vecs.shape[1]))
        vecs = (U @ coeffs) % p
    expected = _oracle_rank(np.hstack([U, vecs]), p) == _oracle_rank(U, p)
    assert column_space_contains(U, vecs, p) == expected
    C = column_space_canonical(U, p)
    assert C.dtype == np.int64 and C.flags.c_contiguous
    assert np.array_equal(C, _oracle_canonical(U, p))
