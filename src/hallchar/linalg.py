"""Exact linear algebra over prime fields F_p.

These routines are the hot kernels of the whole package: subspace
enumeration, homomorphism-space solving, Krull-Schmidt classification and
all census counting reduce to row reduction of small integer matrices
modulo a prime.

A matrix is a sequence of rows of Python ints reduced into [0, p), the
format of `rep.Rep`'s matrices (tuples there, lists in a census), and
every kernel reduces it with the one row reducer `_rref_rows`.  Almost
every matrix the package reduces has at most 64 cells, where per-call
numpy overhead would dominate; the Python-int rows were also faster than
per-entry loops at every size measured (up to 160 x 160), so there is a
single implementation.  `rref_mod` and `rank_mod` take and return int64
numpy arrays, for callers outside the package that time the kernel on
arrays; nothing in the package calls them, and only `rref_mod` imports
numpy, when it is called, so importing hallchar never loads numpy.
"""

# Kept for callers that record which implementation ran: there is only one.
PURE_NUMPY = True


def _rref_rows(rows, ncols, p, reduced=True):
    """Reduce the list `rows` (sequences of ints in [0, p)) in place to
    reduced row echelon form mod p and return the list of pivot columns.
    With `reduced` false only the rows below each pivot are cleared: row
    echelon form, the same pivots, and all a rank needs.  Changed rows are
    replaced by new lists; no row is written to.

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
        for j in range(m) if reduced else range(r + 1, m):
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
    import numpy as np

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
    """Rank over F_p of the matrix whose rows are `rows`, sequences of ncols
    Python ints in [0, p).  The outer list is reordered and its entries
    replaced; the rows themselves are left unchanged."""
    return len(_rref_rows(rows, ncols, p, reduced=False))


def nullspace_rows(rows, ncols, p):
    """Basis of the right kernel over F_p of the matrix whose rows are
    `rows` (sequences of ncols Python ints in [0, p)), as a list of
    vectors: one per non-pivot column, in increasing order, 1 there and 0
    at the other non-pivot columns.  `rows` itself is not modified."""
    rows = list(rows)
    pivots = _rref_rows(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for col in range(ncols):
        if col in pivot_set:
            continue
        vec = [0] * ncols
        vec[col] = 1
        # pivot row i expresses pivot variable pivots[i] through the free ones
        for row, pcol in zip(rows, pivots):
            if row[col]:
                vec[pcol] = p - row[col]
        basis.append(vec)
    return basis
