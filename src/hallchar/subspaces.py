"""Enumeration of subspaces and subrepresentations, and Hall censuses.

Subspaces of F_p^n of dimension k are enumerated through their reduced
echelon normal form: the canonical basis matrix is determined by the pivot
rows and the free entries, so each subspace appears exactly once and the
total matches the Gaussian binomial [n choose k]_p.

A subrepresentation of M with dimension vector e is a choice of subspace
U_i of dimension e_i at every vertex with M_a U_s inside U_t for all
arrows a: s -> t.  Enumeration walks the vertices in topological order so
every arrow is checked as soon as both endpoints are fixed; containment
checks run through the mod-p rank kernels.

The Hall census of (M, e) groups the subrepresentations U by the pair of
isomorphism classes (class of M/U, class of U):

    census[(quot_classes, sub_classes)] = #such U.

A single census answers every Hall number g over the ambient module M:
g = #{U <= M : U iso V_sub, M/U iso V_quot} is one dictionary entry, and
the quiver Grassmannian point count |Gr_e(M)(F_p)| is the total mass.
Censuses are cached per (quiver, prime, class of M, e); the cache key uses
the Krull-Schmidt decomposition, so isomorphic ambient modules share one
census.
"""

import itertools

import numpy as np

from . import catalog, linalg, rep
from .errors import BudgetExceeded
from .qpoly import gaussian_binomial

DEFAULT_SUBSPACE_BUDGET = 2_000_000


def subspace_bases(n, k, p):
    """Yield one canonical basis (n x k int64 matrix) per k-subspace of F_p^n.

    Built from the reduced row echelon forms of k x n matrices: choose
    pivot columns c_1 < ... < c_k, put the identity there, zeros left of
    each pivot, and free values at the positions right of a pivot that are
    not themselves pivot columns.  The transpose of each such matrix is
    returned, so columns are the basis vectors.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield np.zeros((n, 0), dtype=np.int64)
        return
    for pivots in itertools.combinations(range(n), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        base = np.zeros((k, n), dtype=np.int64)
        for i, c in enumerate(pivots):
            base[i, c] = 1
        if not free:
            yield np.ascontiguousarray(base.T)
            continue
        for values in itertools.product(range(p), repeat=len(free)):
            m = base.copy()
            for (i, j), v in zip(free, values):
                m[i, j] = v
            yield np.ascontiguousarray(m.T)


def subspace_count(n, k, p):
    return gaussian_binomial(n, k, p)


def _arrow_image_ok(M, a, U_s, U_t, p):
    img = linalg.matmul_mod(M.mats[a], U_s, p)
    if img.shape[1] == 0 or not img.any():
        return True
    return bool(linalg.column_space_contains(U_t, img, p))


def subrep_bases(M, e, budget=DEFAULT_SUBSPACE_BUDGET):
    """Yield per-vertex bases (tuple of n_i x e_i matrices) of all
    subrepresentations of M with dimension vector e."""
    Q, p = M.quiver, M.p
    n = Q.n
    e = tuple(int(x) for x in e)
    if len(e) != n:
        raise ValueError("dimension vector has wrong length")
    if any(e[i] < 0 or e[i] > M.dims[i] for i in range(n)):
        return
    total = 1
    for i in range(n):
        total *= subspace_count(M.dims[i], e[i], p)
    if total > budget:
        raise BudgetExceeded(
            f"subspace search space {total} exceeds budget {budget}"
        )
    order = Q.topological_order()
    pos = {v: idx for idx, v in enumerate(order)}
    # arrows to check as soon as vertex v is assigned: both ends known
    checks = [[] for _ in range(n)]
    for a, (s, t) in enumerate(Q.arrows):
        later = s if pos[s] > pos[t] else t
        checks[later].append(a)
    candidates = [None] * n
    for v in order:
        candidates[v] = list(subspace_bases(M.dims[v], e[v], p))
    chosen = [None] * n

    def walk(idx):
        if idx == n:
            yield tuple(chosen)
            return
        v = order[idx]
        for U in candidates[v]:
            chosen[v] = U
            ok = True
            for a in checks[v]:
                s, t = Q.arrows[a]
                if not _arrow_image_ok(M, a, chosen[s], chosen[t], p):
                    ok = False
                    break
            if ok:
                yield from walk(idx + 1)
        chosen[v] = None

    yield from walk(0)


_RANK_DIST_CACHE = {}


def image_rank_distribution(M, k):
    """counts[w] = #{k-subspaces U of the source space with
    dim(sum of arrow images of U) = w}, for a two-vertex quiver."""
    src = M.quiver.topological_order()[0]
    key = (
        M.quiver.key,
        M.p,
        int(k),
        tuple(m.tobytes() for m in M.mats),
        tuple(M.dims),
    )
    if key not in _RANK_DIST_CACHE:
        p, k = M.p, int(k)
        d1, d2 = M.dims[src], M.dims[1 - src]
        counts = np.zeros(min(d2, len(M.mats) * k) + 1, dtype=np.int64)
        if not M.mats or k == 0 or d2 == 0:
            counts[0] = gaussian_binomial(d1, k, p)
        else:
            # row i * #arrows + a is row i of arrow a, so each product
            # reshapes to the d2 x (#arrows * k) matrix [A_1 U | A_2 U | ...]
            arrows = np.stack(M.mats, axis=1).reshape(-1, d1)
            for U in subspace_bases(d1, k, p):
                counts[linalg.rank_mod((arrows @ U).reshape(d2, -1), p)] += 1
        _RANK_DIST_CACHE[key] = counts
    return _RANK_DIST_CACHE[key]


def grassmannian_count(M, e, budget=DEFAULT_SUBSPACE_BUDGET):
    """|Gr_e(M)(F_p)|: the number of subrepresentations of dimension e.

    The final vertex in topological order never has outgoing arrows, so
    the subspace there only needs to contain the span W of the incoming
    arrow images: there are [d_last - w choose e_last - w]_p such
    choices.  Only the earlier vertices are enumerated; on two-vertex
    quivers that enumeration collapses to a cached rank distribution.
    """
    Q, p = M.quiver, M.p
    n = Q.n
    e = tuple(int(x) for x in e)
    if len(e) != n:
        raise ValueError("dimension vector has wrong length")
    if any(e[i] < 0 or e[i] > M.dims[i] for i in range(n)):
        return 0
    order = Q.topological_order()
    if n == 1:
        return subspace_count(M.dims[0], e[0], p)
    last = order[-1]
    if n == 2:
        if subspace_count(M.dims[order[0]], e[order[0]], p) > budget:
            raise BudgetExceeded(
                f"subspace search space exceeds budget {budget}"
            )
        dist = image_rank_distribution(M, e[order[0]])
        return sum(
            int(cnt) * subspace_count(M.dims[last] - w, e[last] - w, p)
            for w, cnt in enumerate(dist)
            if cnt
        )
    total = 1
    for v in order[:-1]:
        total *= subspace_count(M.dims[v], e[v], p)
    if total > budget:
        raise BudgetExceeded(
            f"subspace search space {total} exceeds budget {budget}"
        )
    pos = {v: idx for idx, v in enumerate(order)}
    checks = [[] for _ in range(n)]
    arrows_into_last = []
    for a, (s, t) in enumerate(Q.arrows):
        if t == last:
            arrows_into_last.append((a, s))
        else:
            checks[max(s, t, key=lambda v: pos[v])].append(a)
    candidates = {v: list(subspace_bases(M.dims[v], e[v], p)) for v in order[:-1]}
    chosen = [None] * n
    count = 0

    def walk(idx):
        nonlocal count
        if idx == n - 1:
            blocks = [
                linalg.matmul_mod(M.mats[a], chosen[s], p)
                for a, s in arrows_into_last
            ]
            blocks = [b for b in blocks if b.size]
            if blocks:
                joint = np.ascontiguousarray(np.hstack(blocks))
                w = int(linalg.rank_mod(joint, p))
            else:
                w = 0
            count += subspace_count(M.dims[last] - w, e[last] - w, p)
            return
        v = order[idx]
        for U in candidates[v]:
            chosen[v] = U
            if all(
                _arrow_image_ok(M, a, chosen[Q.arrows[a][0]], chosen[Q.arrows[a][1]], p)
                for a in checks[v]
            ):
                walk(idx + 1)
        chosen[v] = None

    walk(0)
    return count


_CENSUS_CACHE = {}


def hall_census(M, e, budget=DEFAULT_SUBSPACE_BUDGET, key_classes=None):
    """Census {(quot_classes, sub_classes): count} of subreps of M.

    `key_classes` may pass the decomposition of M when already known, to
    stabilize the cache key without recomputing it.
    """
    if key_classes is None:
        key_classes = catalog.decompose(M)
    cache_key = (M.quiver.key, M.p, key_classes, tuple(int(x) for x in e))
    if cache_key in _CENSUS_CACHE:
        return _CENSUS_CACHE[cache_key]
    out = {}
    for bases in subrep_bases(M, e, budget=budget):
        sub, quot = rep.sub_quotient_pair(M, bases)
        key = (catalog.decompose(quot), catalog.decompose(sub))
        out[key] = out.get(key, 0) + 1
    _CENSUS_CACHE[cache_key] = out
    return out


def hall_number(L, quot_classes, sub_classes, budget=DEFAULT_SUBSPACE_BUDGET):
    """g = #{U <= L : U iso sub, L/U iso quot} for concrete class labels."""
    e = catalog.decomposition_dims(L.quiver, sub_classes)
    census = hall_census(L, e, budget=budget)
    return census.get((catalog.sort_classes(quot_classes), catalog.sort_classes(sub_classes)), 0)


def clear_census_cache():
    """Forget every census and the decompositions they were built from."""
    _CENSUS_CACHE.clear()
    _RANK_DIST_CACHE.clear()
    catalog._DECOMPOSE_CACHE.clear()


def census_total(census):
    return sum(census.values())
