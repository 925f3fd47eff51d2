"""Enumeration of subspaces and subrepresentations, and Hall censuses.

Subspaces of F_p^n of dimension k are enumerated through their reduced
column echelon normal form: the canonical basis matrix U is determined by
its pivot rows P (where U[P] is the identity) and the free entries below
each pivot in the other rows NP, so each subspace appears exactly once and
the total matches the Gaussian binomial [n choose k]_p.  The candidates of
one (n, k, p), with their basis arrays and Python-int rows, are built once
and shared by every enumeration (`_echelon_table`, memoized) when there
are at most ECHELON_TABLE_MAX of them; a larger space is built afresh for
each enumeration, so a frontier case never pins its candidates.

A subrepresentation of M with dimension vector e is a choice of subspace
U_i of dimension e_i at every vertex with M_a U_s inside U_t for all
arrows a: s -> t.  Enumeration walks the vertices in topological order so
every arrow is checked as soon as both endpoints are fixed.  The check
reads echelon coordinates off Python-int rows, with no rank: writing
img = M_a U_s, containment holds exactly when img[NP] = U_t[NP] img[P].
The walk keeps, per source candidate and target vertex, the list of
target candidates that contain the images of all arrows between them
(both Kronecker arrows at once), computed the first time that source
candidate is chosen; a vertex with arrows from several sources (the
middle of A_3 with both arrows in, a D_4 sink) takes the candidates on
all of their lists.  The same
coordinates give both halves of the subrepresentation: the matrix of a
on U is img[P], and on M/U (in the basis of the standard vectors at the
rows NP) it is M_a[NP_t, NP_s] - U_t[NP_t] M_a[P_t, NP_s].

The Hall census of (M, e) groups the subrepresentations U by the pair of
isomorphism classes (class of M/U, class of U):

    census[(quot_classes, sub_classes)] = #such U.

A single census answers every Hall number g over the ambient module M:
g = #{U <= M : U iso V_sub, M/U iso V_quot} is one dictionary entry, and
the quiver Grassmannian point count |Gr_e(M)(F_p)| is the total mass.
Censuses are memoized (`memo.memoized`) per (quiver, prime, class of M,
e); the key uses the Krull-Schmidt decomposition, so isomorphic ambient
modules share one census, and a module outside the catalogue is not
stored.  Sub and quotient are classified through the `catalog.decompose`
memo, read with the bytes of their Python-int matrices; a module the memo
has not seen is classified from the same rows, so a census never builds
a `Rep`.  `census_view` groups a census by the fingerprint ids of
(quotient, sub), so a fingerprint-matched Hall number is one lookup.  The
rank distributions of two-vertex quivers are memoized on the exact
matrices (`Rep.key`).  `memo.clear()` forgets them all.
"""

import itertools
from collections import namedtuple

import numpy as np

from . import catalog, linalg, memo
from .errors import BudgetExceeded, OutsideCatalog
from .qpoly import gaussian_binomial

DEFAULT_SUBSPACE_BUDGET = 2_000_000

# The largest [n choose k]_p whose candidate table is kept.  A table holds
# about 0.8 kB per subspace at n = 4 (basis array, rows and index tuples;
# 628 kB for the 806 of [4 choose 2]_5 under tracemalloc), so one table
# stays under 1 MB.  Every space the test suite and the
# benchmark's workloads enumerate fits (the largest is [4 choose 2]_5 =
# 806); a larger space is built for each call and dropped after it, so a
# frontier enumeration pins no memory beyond its own run.
ECHELON_TABLE_MAX = 1024

# One enumerated subspace U of F_p^n: `basis` is U as an n x k int64 matrix,
# `rows` the same entries as n lists of k Python ints, `pivots` the rows P
# with U[P] = I and `others` the remaining rows NP, both increasing.
_Echelon = namedtuple("_Echelon", "basis pivots others rows")


def _echelon_subspaces(n, k, p):
    """Yield (pivots, others, rows) per k-subspace of F_p^n, in the order of
    `subspace_bases`: `rows` lists the n rows of the reduced column echelon
    basis as Python ints."""
    if k < 0 or k > n:
        return
    for pivots in itertools.combinations(range(n), k):
        others = tuple(r for r in range(n) if r not in pivots)
        # free entries (row r, column c) sit below the pivot of column c
        free = [(r, c) for c in range(k) for r in range(pivots[c] + 1, n) if r not in pivots]
        template = [[0] * k for _ in range(n)]
        for c, r in enumerate(pivots):
            template[r][c] = 1
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [row[:] for row in template]
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield pivots, others, rows


def _echelons(n, k, p):
    """Yield the `_Echelon` k-subspaces of F_p^n, in enumeration order."""
    for pivots, others, rows in _echelon_subspaces(n, k, p):
        basis = np.array(rows, dtype=np.int64).reshape(n, k)
        basis.setflags(write=False)
        yield _Echelon(basis, pivots, others, rows)


@memo.memoized(lambda n, k, p: (n, k, p))
def _echelon_table(n, k, p):
    """The `_Echelon` k-subspaces of F_p^n as one shared tuple (memoized;
    read through `_candidates`, which stores only tables of at most
    ECHELON_TABLE_MAX subspaces)."""
    return tuple(_echelons(n, k, p))


def _candidates(n, k, p, count):
    """The `_Echelon` k-subspaces of F_p^n in enumeration order, given their
    number `count` = [n choose k]_p: the shared table when count <=
    ECHELON_TABLE_MAX, else a generator that builds them for this call
    only."""
    if count <= ECHELON_TABLE_MAX:
        return _echelon_table(n, k, p)
    return _echelons(n, k, p)


def subspace_bases(n, k, p):
    """Yield one canonical basis (n x k int64 matrix) per k-subspace of F_p^n.

    The basis is the transpose of a reduced row echelon form: choose pivot
    rows r_1 < ... < r_k, put the identity there, zeros above each pivot,
    and free values at the positions below a pivot that are not themselves
    pivot rows.  Columns are the basis vectors.  The arrays are read-only:
    they come from the shared candidate table where there is one
    (`_candidates`).
    """
    for U in _candidates(n, k, p, subspace_count(n, k, p)):
        yield U.basis


def subspace_count(n, k, p):
    return gaussian_binomial(n, k, p)


def _image(mat_rows, U_rows, p):
    """M_a U as Python-int rows."""
    cols = list(zip(*U_rows))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in mat_rows]


def _contains(img, U, p):
    """True when the columns of `img` lie in the span of the echelon basis
    U: their coordinates are img[P], so img[NP] must equal U[NP] img[P]."""
    top = [img[r] for r in U.pivots]
    for r in U.others:
        coeffs = U.rows[r]
        for j, x in enumerate(img[r]):
            if (x - sum(c * t[j] for c, t in zip(coeffs, top))) % p:
                return False
    return True


def _quotient_block(mat_rows, U_s, U_t, p):
    """Matrix of M_a on M/U: M_a[NP_t, NP_s] - U_t[NP_t] M_a[P_t, NP_s]."""
    top = [[mat_rows[r][j] for j in U_s.others] for r in U_t.pivots]
    return [
        [
            (mat_rows[r][j] - sum(c * t[i] for c, t in zip(U_t.rows[r], top))) % p
            for i, j in enumerate(U_s.others)
        ]
        for r in U_t.others
    ]


def _echelon_walk(M, e, order, budget):
    """Enumerate subspaces U_v of dimension e_v at the vertices of `order`
    (topologically ordered) with M_a U_s inside U_t for every arrow between
    two of them.  Raises BudgetExceeded, before any enumeration, when the
    product of the subspace counts exceeds `budget`.

    Returns (candidates, images, walk): candidates[v] lists the `_Echelon`
    subspaces at v, images[a][i] is M_a U_s for candidate i at the source
    of a (for every arrow whose source is in `order`), and `walk` yields
    one list of candidate indices per vertex for each admissible choice
    (the same list object, updated in place).

    An arrow a: s -> t is checked when t, the later endpoint, is chosen,
    together with the other arrows s -> t.  For each candidate i at s the
    walk keeps the increasing list of the candidates at t that contain
    M_a U_s[i] for all of them, computed with `_contains` the first time i
    is chosen; a vertex with arrows from several sources takes the
    candidates on all of their lists.
    """
    Q, p = M.quiver, M.p
    counts = {v: subspace_count(M.dims[v], e[v], p) for v in order}
    total = 1
    for c in counts.values():
        total *= c
    if total > budget:
        raise BudgetExceeded(
            f"subspace search space {total} exceeds budget {budget}"
        )
    candidates = [None] * Q.n
    for v in order:
        candidates[v] = tuple(_candidates(M.dims[v], e[v], p, counts[v]))
    images = [None] * len(Q.arrows)
    pos = {v: idx for idx, v in enumerate(order)}
    # one check per (source, target) pair: parallel arrows are checked
    # together, on the columns of all their images
    checks = [{} for _ in order]
    for a, (s, t) in enumerate(Q.arrows):
        if s in pos:
            rows = M.mats[a].tolist()
            images[a] = [_image(rows, U.rows, p) for U in candidates[s]]
            if t in pos:
                checks[pos[t]].setdefault(s, []).append(a)
    # known[i]: the targets containing M_a U_s[i] for each checked a, on first use
    checks = [[(s, arrows, {}) for s, arrows in c.items()] for c in checks]
    chosen = [None] * Q.n

    def admissible(targets, s, arrows, known):
        i = chosen[s]
        try:
            return known[i]
        except KeyError:
            img = [list(itertools.chain.from_iterable(r)) for r in zip(*(images[a][i] for a in arrows))]
            out = known[i] = [j for j, U in enumerate(targets) if _contains(img, U, p)]
            return out

    def walk(idx=0):
        if idx == len(order):
            yield chosen
            return
        v = order[idx]
        targets = candidates[v]
        if not checks[idx]:
            indices = range(len(targets))
        else:
            first, *rest = (admissible(targets, *check) for check in checks[idx])
            if rest:
                rest = [set(r) for r in rest]
                indices = [j for j in first if all(j in r for r in rest)]
            else:
                indices = first
        for i in indices:
            chosen[v] = i
            yield from walk(idx + 1)

    return candidates, images, walk


def subrep_bases(M, e, budget=DEFAULT_SUBSPACE_BUDGET):
    """Yield (bases, sub, quot) for every subrepresentation U of M with
    dimension vector e.

    bases[i] is the reduced column echelon basis of U_i (a dims[i] x e_i
    int64 matrix).  sub[a] and quot[a] are the matrices of arrow a on U
    and on M/U, as read-only lists of Python-int rows, in the bases that
    `rep.sub_quotient_pair(M, bases)` uses: the columns of bases[i] for
    U_i and the standard vectors at its non-pivot rows for M_i/U_i.  So
    they equal that function's matrices entry for entry.
    """
    Q, p = M.quiver, M.p
    n = Q.n
    e = tuple(int(x) for x in e)
    if len(e) != n:
        raise ValueError("dimension vector has wrong length")
    if any(e[i] < 0 or e[i] > M.dims[i] for i in range(n)):
        return
    candidates, images, walk = _echelon_walk(M, e, Q.topological_order(), budget)
    mats = [m.tolist() for m in M.mats]
    for chosen in walk():
        U = [candidates[v][chosen[v]] for v in range(n)]
        sub, quot = [], []
        for a, (s, t) in enumerate(Q.arrows):
            img = images[a][chosen[s]]
            sub.append([img[r] for r in U[t].pivots])
            quot.append(_quotient_block(mats[a], U[s], U[t], p))
        yield tuple(u.basis for u in U), sub, quot


@memo.memoized(lambda M, k: (M.key, int(k)))
def image_rank_distribution(M, k):
    """counts[w] = #{k-subspaces U of the source space with
    dim(sum of arrow images of U) = w}, for a two-vertex quiver (memoized
    on the exact matrices of M)."""
    src = M.quiver.topological_order()[0]
    p, k = M.p, int(k)
    d1, d2 = M.dims[src], M.dims[1 - src]
    counts = np.zeros(min(d2, len(M.mats) * k) + 1, dtype=np.int64)
    if not M.mats or k == 0 or d2 == 0:
        counts[0] = gaussian_binomial(d1, k, p)
    else:
        # row i * #arrows + a is row i of arrow a, so each product
        # reshapes to the d2 x (#arrows * k) matrix [A_1 U | A_2 U | ...]
        arrows = np.stack(M.mats, axis=1).reshape(-1, d1)
        width = len(M.mats) * k
        for U in subspace_bases(d1, k, p):
            joint = ((arrows @ U) % p).reshape(d2, width).tolist()
            counts[linalg.rank_rows(joint, width, p)] += 1
    return counts


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
    vertices = order[:-1]
    _, images, walk = _echelon_walk(M, e, vertices, budget)
    into_last = [(images[a], s) for a, (s, t) in enumerate(Q.arrows) if t == last]
    # subspaces at the last vertex containing a span of dimension w
    choices = [subspace_count(M.dims[last] - w, e[last] - w, p) for w in range(M.dims[last] + 1)]
    width = sum(e[s] for _, s in into_last)
    count = 0
    for chosen in walk():
        # rows of [M_a U_s | ...] over the arrows into the last vertex
        joint = [
            list(itertools.chain.from_iterable(row))
            for row in zip(*(imgs[chosen[s]] for imgs, s in into_last))
        ]
        count += choices[linalg.rank_rows(joint, width, p)]
    return count


def hall_census(M, e, budget=DEFAULT_SUBSPACE_BUDGET, key_classes=None):
    """Census {(quot_classes, sub_classes): count} of subreps of M.

    `key_classes` may pass the decomposition of M when already known, to
    stabilize the memo key without recomputing it.  A module the catalog
    cannot decompose (`OutsideCatalog`) has no memo key: its census is
    computed and returned without being stored.
    """
    e = tuple(map(int, e))
    if key_classes is None:
        try:
            key_classes = catalog.decompose(M)
        except OutsideCatalog:
            return _census(M, e, budget)
    return _class_census(M, e, budget, key_classes)


@memo.memoized(lambda M, e, budget, classes: (M.quiver.key, M.p, classes, e))
def _class_census(M, e, budget, classes):
    """`_census` of M at e, memoized on the decomposition `classes` of M."""
    return _census(M, e, budget)


@memo.memoized(lambda M, e, budget, classes: (M.quiver.key, M.p, classes, e))
def census_view(M, e, budget, classes):
    """{(fingerprint id of quot, fingerprint id of sub): count}: the census
    of (M, e) grouped by `catalog.fingerprint_id`, memoized like it on the
    decomposition `classes` of M.  An out-of-range e reads an empty view."""
    out = {}
    for (quot, sub), c in hall_census(M, e, budget=budget, key_classes=classes).items():
        key = (catalog.fingerprint_id(quot), catalog.fingerprint_id(sub))
        out[key] = out.get(key, 0) + c
    return out


def _census(M, e, budget):
    Q, p = M.quiver, M.p
    quot_dims = tuple(d - k for d, k in zip(M.dims, e))
    out = {}
    for _, sub, quot in subrep_bases(M, e, budget=budget):
        key = (
            catalog._decompose_rows(Q, p, quot_dims, quot),
            catalog._decompose_rows(Q, p, e, sub),
        )
        out[key] = out.get(key, 0) + 1
    return out


def hall_number(L, quot_classes, sub_classes, budget=DEFAULT_SUBSPACE_BUDGET):
    """g = #{U <= L : U iso sub, L/U iso quot} for concrete class labels."""
    e = catalog.decomposition_dims(L.quiver, sub_classes)
    census = hall_census(L, e, budget=budget)
    return census.get((catalog.sort_classes(quot_classes), catalog.sort_classes(sub_classes)), 0)


def census_total(census):
    return sum(census.values())
