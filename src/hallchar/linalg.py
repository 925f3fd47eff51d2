"""Exact linear algebra over prime fields F_p.

These routines are the hot kernels of the whole package: subspace
enumeration, homomorphism-space solving, Krull-Schmidt classification and
all census counting reduce to row reduction of small integer matrices
modulo a prime.

Every public function takes and returns int64 numpy arrays with entries
reduced into [0, p).  Inside, a kernel converts its matrix to lists of
Python ints once, reduces them with the one row reducer `_rref_rows` and
builds its int64 result once.  Almost every matrix the package reduces
has at most 64 cells, where per-call numpy overhead would dominate; the
Python-int rows were also faster than per-entry loops at every size
measured (up to 160 x 160), so there is a single implementation.
"""

import numpy as np

# Kept for callers that record which implementation ran: there is only one.
PURE_NUMPY = True


def _rref_rows(rows, ncols, p):
    """Reduce `rows` (lists of ints in [0, p)) in place to reduced row
    echelon form mod p and return the list of pivot columns.

    Deterministic: the first nonzero entry in scan order pivots.
    """
    m = len(rows)
    pivots = []
    r = 0
    for col in range(ncols):
        if r == m:
            break
        for i in range(r, m):
            if rows[i][col]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        inv = pow(prow[col], -1, p)
        if inv != 1:
            prow = rows[r] = [x * inv % p for x in prow]
        for j in range(m):
            f = rows[j][col]
            if f and j != r:
                rows[j] = [(x - f * y) % p for x, y in zip(rows[j], prow)]
        pivots.append(col)
        r += 1
    return pivots


def rref_mod(A, p):
    """Reduce A (in place) to reduced row echelon form mod p.

    Returns (rank, pivots) where pivots[:rank] holds the pivot columns in
    order and the remaining min(m, n) - rank entries are -1.
    """
    m, n = A.shape
    rows = (A % p).tolist()
    found = _rref_rows(rows, n, p)
    if m:
        A[:] = rows
    pivots = np.full(min(m, n), -1, dtype=np.int64)
    pivots[: len(found)] = found
    return len(found), pivots


def rank_mod(A, p):
    """Rank of A over F_p (A not modified)."""
    rank, _ = rref_mod(A.copy(), p)
    return rank


def rank_rows(rows, ncols, p):
    """Rank over F_p of the matrix whose rows are `rows`, lists of ncols
    Python ints in [0, p).  The outer list is reordered and its entries
    replaced; the row lists themselves are left unchanged."""
    return len(_rref_rows(rows, ncols, p))


def nullspace_mod(A, p):
    """Basis of the right kernel of A over F_p, as columns of an n x k array."""
    n = A.shape[1]
    rows = (A % p).tolist()
    pivots = _rref_rows(rows, n, p)
    pivot_set = set(pivots)
    free = [col for col in range(n) if col not in pivot_set]
    out = [[0] * len(free) for _ in range(n)]
    for idx, col in enumerate(free):
        out[col][idx] = 1
        # pivot row i expresses pivot variable pivots[i] through the free ones
        for row, pcol in zip(rows, pivots):
            if row[col]:
                out[pcol][idx] = p - row[col]
    return np.array(out, dtype=np.int64).reshape(n, len(free))


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
    pivots = _rref_rows(aug, 2 * n, p)
    if pivots[n - 1] >= n:
        return 0, np.zeros((n, n), dtype=np.int64)
    return 1, np.array([row[n:] for row in aug], dtype=np.int64)


def matmul_mod(A, B, p):
    """(A @ B) mod p."""
    return (A @ B) % p


def is_invertible_mod(A, p):
    if A.shape[0] != A.shape[1]:
        return False
    return rank_mod(A, p) == A.shape[0]


def column_space_contains(U, vecs, p):
    """True when every column of `vecs` lies in the column span of U.

    That is rank [U | vecs] == rank U, which holds exactly when no pivot
    of [U | vecs] falls in the `vecs` block.
    """
    k = U.shape[1]
    aug = np.hstack((U, vecs)) % p
    pivots = _rref_rows(aug.tolist(), aug.shape[1], p)
    return not pivots or pivots[-1] < k


def column_space_canonical(U, p):
    """Canonical (reduced column echelon) basis of the column span of U.

    Returns an n x r int64 array; equal subspaces give equal arrays, so the
    result doubles as a dictionary key via ``.tobytes()``.
    """
    n = U.shape[0]
    rows = (U.T % p).tolist()
    rank = len(_rref_rows(rows, n, p))
    basis = np.array(rows[:rank], dtype=np.int64).reshape(rank, n)
    return np.ascontiguousarray(basis.T)
