"""Enumeration of subspaces and subrepresentations, and Hall censuses.

Subspaces of F_p^n of dimension k are enumerated through their reduced
column echelon normal form: the canonical basis matrix U is determined by
its pivot rows P (where U[P] is the identity) and the free entries below
each pivot in the other rows NP, so each subspace appears exactly once and
the total matches the Gaussian binomial [n choose k]_p.  The candidates of
one (n, k, p), each U as Python-int rows with its pivot and other rows,
are built once and shared by every enumeration (`_echelon_table`,
memoized) when there are at most ECHELON_TABLE_MAX of them; a larger
space is built afresh for each enumeration, so a frontier case never pins
its candidates.  Everything here runs on Python-int rows; no numpy.

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
all of their lists.  The image img of a candidate is built the first
time the walk chooses it.  The same
coordinates give both halves of the subrepresentation: the matrix of a
on U is img[P], and on M/U (in the basis of the standard vectors at the
rows NP) it is M_a[NP_t, NP_s] - U_t[NP_t] M_a[P_t, NP_s].

The Hall census of (M, e) groups the subrepresentations U by the pair of
isomorphism classes (class of M/U, class of U):

    census[(quot_classes, sub_classes)] = #such U.

Where every e_v is 0 or d_v nothing is enumerated: U can only be M
restricted to S = {v : e_v = d_v}, a subrepresentation exactly when M_a = 0
on every arrow from S to its complement, so the census is {} or one entry.

Where the support of M falls apart, a census of known classes is split.
The parts are the connected components of the graph on {v : d_v > 0} with
an edge for every arrow whose matrix is nonzero.  With two or more parts,
M is the direct sum of its restrictions M|_C and every arrow between two
parts acts as 0, so the subrepresentations U of M are exactly the sums of
one subrepresentation U|_C of each M|_C, with U and M/U the sums of the
U|_C and of the M|_C / U|_C.  The census of M at e is then the product of
the censuses of the M|_C at e|_C: entries (q_C, s_C) with counts c_C give
the entry (sum of q_C, sum of s_C) with count prod c_C.  Each M|_C is
classified by `catalog._decompose_rows`, and its census is read through
the census memo under its own classes, so one part's census serves every
module that contains that part.  The walk meets its keys in lexicographic
order of the subspaces chosen along the topological order, and the
product keeps that key order unless two parts with several entries each
have their free vertices (0 < e_v < d_v) interleaved in the topological
order; there M is walked whole.

One walker, `_torus_walk`, walks the first point of each orbit of a
torus (the argument is written beside it), for three callers:

* every other Hall census (`_orbit_walk`).  Scaling the basis vectors of
  each of the k components of the coefficient quiver of M
  (`rep.coefficient_components`: basis vectors as nodes, an edge for
  every nonzero matrix entry) by its own t in F_p^* commutes with every
  M_a, so the torus (F_p^*)^k moves each subrepresentation U to one with
  the same sub and quotient classes.  It fixes the pivots of U and
  multiplies the free entry (r, c) of U_v by t_comp(r) / t_comp(pivot
  row of c), so a candidate's entries are its nonzero free ones
  (`_Echelon.entries`), and a cut candidate is dropped before any block
  is built or classified.  A census key is met first at the first point
  of an orbit, so the census keeps the plain walk's items and key order;
* the Ext census (`strata._orbit_cocycles`), one slot per free cocycle
  coordinate;
* `_rank_distribution`, behind `grassmannian_count`, which scales no
  slot: the plain walk over the vertices before the last one in
  topological order where M is nonzero.  It never reads the coefficient
  quiver, so `CharTable`'s stratified cross-check (on the classes the
  coefficient-quiver count does not cover) still tests the orbit census
  against a count that cuts nothing.

A single census answers every Hall number g over the ambient module M:
g = #{U <= M : U iso V_sub, M/U iso V_quot} is one dictionary entry, and
the quiver Grassmannian point count |Gr_e(M)(F_p)| is the total mass.
Censuses are memoized (`memo.memoized`) per (quiver, prime, class of M,
e); the key uses the Krull-Schmidt decomposition, so isomorphic ambient
modules share one census, and a module outside the catalogue is not
stored.  The key leaves out the budget, so calls with different budgets
share one census; each entry keeps its charge (below).  Sub and quotient
are classified through the `catalog.decompose` memo, read under
`Rep.key_of` of their Python-int rows, the key a `Rep` of the same
matrices has; a module the memo has not seen is classified from the same
rows, so a census never builds a `Rep`.  The same memo entry holds the
census grouped by the fingerprint ids of (quotient, sub), which
`census_view` reads, so a fingerprint-matched Hall number is one lookup.
The rank distributions behind `grassmannian_count` are memoized on the
exact matrices (`Rep.key`) and e before the closing vertex, so one walk
serves every e there; a distribution ranks, per point, the images of the
chosen subspaces' columns, each distinct column's images built once.
`memo.clear()` forgets them all.

Every count runs under an enumeration budget, on one contract: a count is
charged prod_v [d_v choose e_v]_p over the vertices it enumerates, the
charge is checked once, before the count enumerates anything, and a memo
entry keeps its charge, which every hit checks again.  `_check_budget` is
the one check ("subspace search space N exceeds budget B").  A census is
charged over every vertex (`_charge`), 1 where it is forced; a split
census is charged over all of M, and its parts are read after that total
has passed.  `grassmannian_count` is charged over the vertices before its
closing vertex.
"""

import itertools
import math
import operator
from collections import namedtuple

from . import catalog, linalg, memo, rep
from .errors import BudgetExceeded, OutsideCatalog
from .qpoly import gaussian_binomial

DEFAULT_SUBSPACE_BUDGET = 2_000_000

# The largest [n choose k]_p whose candidate table is kept.  A table holds
# about 0.7 kB per subspace at n = 4 (rows, index tuples and entries; 574 kB
# for the 806 of [4 choose 2]_5 under tracemalloc), so one table stays under
# 1 MB.  Every space the test suite and the
# benchmark's workloads enumerate fits (the largest is [4 choose 2]_5 =
# 806); a larger space is built for each call and dropped after it, so a
# frontier enumeration pins no memory beyond its own run.
ECHELON_TABLE_MAX = 1024

# One enumerated subspace U of F_p^n: `rows` lists its reduced column echelon
# basis as n lists of k Python ints, `pivots` the rows P with U[P] = I and
# `others` the remaining rows NP, both increasing.  `entries` lists its
# nonzero free entries (r, pivot row of c, U[r][c]) column by column and
# down each column, the order the torus walk reads them in.
_Echelon = namedtuple("_Echelon", "pivots others rows entries")


def _echelons(n, k, p):
    """Yield the `_Echelon` k-subspaces of F_p^n, each one once."""
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
            entries = tuple((r, pivots[c], v) for (r, c), v in zip(free, values) if v)
            yield _Echelon(pivots, others, rows, entries)


@memo.memoized(lambda n, k, p: (n, k, p))
def _echelon_table(n, k, p):
    """The `_Echelon` k-subspaces of F_p^n as one shared tuple (memoized;
    read through `_candidates`, which stores only tables of at most
    ECHELON_TABLE_MAX subspaces)."""
    return tuple(_echelons(n, k, p))


def _candidates(n, k, p):
    """The `_Echelon` k-subspaces of F_p^n in enumeration order: the shared
    table when there are at most ECHELON_TABLE_MAX of them, else a
    generator that builds them for this call only."""
    if subspace_count(n, k, p) <= ECHELON_TABLE_MAX:
        return _echelon_table(n, k, p)
    return _echelons(n, k, p)


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


class _Images(dict):
    """M_a U_s per candidate index i at the source s of an arrow a, built
    the first time it is read, so a candidate the walk never chooses gets
    no image."""

    __slots__ = ("mat", "candidates", "p")

    def __init__(self, mat, candidates, p):
        super().__init__()
        self.mat, self.candidates, self.p = mat, candidates, p

    def __missing__(self, i):
        out = self[i] = _image(self.mat, self.candidates[i].rows, self.p)
        return out


def _walk_tables(M, e, order):
    """The tables of a walk over the vertices of `order` (topologically
    ordered): (candidates, images, chosen, options).  The caller has
    checked the budget.

    candidates[v] lists the `_Echelon` subspaces of dimension e_v at v,
    images[a][i] is M_a U_s for candidate i at the source of a (for every
    arrow with both ends in `order`; built on first read), and chosen[v]
    is the index of the candidate chosen at v.  options(idx) lists, in
    increasing order, the candidates at order[idx] that contain M_a U_s
    for every arrow a: s -> order[idx] from a vertex chosen before it.

    An arrow a: s -> t is checked when t, the later endpoint, is chosen,
    together with the other arrows s -> t.  For each candidate i at s the
    walk keeps the increasing list of the candidates at t that contain
    M_a U_s[i] for all of them, computed with `_contains` the first time i
    is chosen; a vertex with arrows from several sources takes the
    candidates on all of their lists.
    """
    Q, p = M.quiver, M.p
    candidates = [None] * Q.n
    for v in order:
        candidates[v] = tuple(_candidates(M.dims[v], e[v], p))
    images = [None] * len(Q.arrows)
    pos = {v: idx for idx, v in enumerate(order)}
    # one check per (source, target) pair: parallel arrows are checked
    # together, on the columns of all their images
    checks = [{} for _ in order]
    for a, (s, t) in enumerate(Q.arrows):
        if s in pos and t in pos:
            images[a] = _Images(M.mats[a], candidates[s], p)
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

    def options(idx):
        targets = candidates[order[idx]]
        if not checks[idx]:
            return range(len(targets))
        first, *rest = (admissible(targets, *check) for check in checks[idx])
        if not rest:
            return first
        rest = [set(r) for r in rest]
        return [j for j in first if all(j in r for r in rest)]

    return candidates, images, chosen, options


# a step of `_torus_walk` not yet computed
_UNSEEN = object()


def _torus_walk(order, chosen, options, entries, k, p):
    """Walk the slots idx of `order` in turn, setting chosen[order[idx]]
    to each choice in `options(idx)`, one torus orbit at a time; yield the
    size of each orbit walked, with `chosen` holding its first point.

    entries[idx] is None where slot idx is not scaled, else (labels,
    table): choice i carries the nonzero entries (r, c, x) of table[i],
    and the torus (F_p^*)^k, one t per component, multiplies each x by
    t_labels[r] / t_labels[c] and keeps what each point is classified as.
    Join the two components of each nonzero entry, in the walk's order,
    in a union-find.  Every earlier nonzero entry then has both ends in
    one class, so scaling a class by a common t moves none of them: an
    entry whose two classes are not yet joined can be scaled to any
    nonzero value, and every other entry is fixed by those before it.  So
    the first point of an orbit (the choices at a slot come in the
    lexicographic order of their values, entry by entry, 0 < 1 < ...) is
    the one whose joining entries are all 1, and the orbit has (p - 1)^joins
    points (its stabilizer is (F_p^*)^(k - joins)).  A choice with a
    joining entry other than 1 is cut, with all that would follow it; the
    partition a choice leaves, or its cut, is remembered per (slot,
    partition, choice).  At p = 2 every nonzero entry is 1 and nothing is
    cut, so callers scale no slot there; with no scaled slot this is the
    plain walk, each point yielding 1.
    """
    # steps[idx]: {state: [state after choice i, None where i is cut, or
    # _UNSEEN]}; a state indexes `states`, the partitions of the components
    # joined so far (each component mapped to the least one of its class)
    steps = [None if entry is None else {} for entry in entries]
    states = [tuple(range(k))]
    ids = {states[0]: 0}
    weights = [1]

    def step(idx, i, state):
        labels, table = entries[idx]
        root = states[state]
        for r, c, x in table[i]:
            a, b = root[labels[r]], root[labels[c]]
            if a != b:
                if x != 1:
                    return None
                lo, hi = min(a, b), max(a, b)
                root = tuple(lo if y == hi else y for y in root)
        out = ids.get(root)
        if out is None:
            out = ids[root] = len(states)
            states.append(root)
            weights.append((p - 1) ** (k - len(set(root))))
        return out

    # a stack, not a recursion, so a walk leaves no reference cycle behind:
    # choices[idx] iterates the choices left at slot idx, reached in state
    # at[idx]
    last = len(order) - 1
    if last < 0:
        yield 1
        return
    choices, at = [iter(options(0))], [0]
    while choices:
        idx = len(choices) - 1
        state, rows = at[idx], steps[idx]
        row = None
        if rows is not None:
            row = rows.get(state)
            if row is None:
                row = rows[state] = [_UNSEEN] * len(entries[idx][1])
        for i in choices[idx]:
            nxt = state
            if row is not None:
                nxt = row[i]
                if nxt is _UNSEEN:
                    nxt = row[i] = step(idx, i, state)
                if nxt is None:
                    continue
            chosen[order[idx]] = i
            if idx < last:
                choices.append(iter(options(idx + 1)))
                at.append(nxt)
                break
            yield weights[nxt]
        else:
            choices.pop()
            at.pop()


def _orbit_walk(M, e):
    """The census's walk over the subrepresentations of M at e, one torus
    orbit at a time (see above), on the tables of `_walk_tables` along
    the topological order.

    Returns (candidates, images, chosen, walk): the generator `walk`
    yields the size of each orbit, with `chosen` holding the candidate
    indices of its first point.
    """
    Q, p = M.quiver, M.p
    order = Q.topological_order()
    candidates, images, chosen, options = _walk_tables(M, e, order)
    entries, k = [None] * len(order), 0
    if p > 2:
        labels, k = rep.coefficient_components(Q, M.dims, M.mats)
        entries = [
            (labels[v], [U.entries for U in candidates[v]])
            if 0 < e[v] < M.dims[v] and len(set(labels[v])) > 1 else None
            for v in order
        ]
    return candidates, images, chosen, _torus_walk(order, chosen, options, entries, k, p)


def _closing(M):
    """(walked, last): `last` is the last vertex in topological order where
    M is nonzero (the first vertex when M is zero), `walked` the vertices
    before it.  Every arrow out of `last` maps into a zero space."""
    order = M.quiver.topological_order()
    n = len(order) - 1
    while n and not M.dims[order[n]]:
        n -= 1
    return order[:n], order[n]


def _column_images(mats, columns, p):
    """{u: [A u for A in mats]} for the distinct columns u in `columns`
    (tuples of ints in [0, p)), each image a tuple of ints in [0, p).

    An entry of A u is a sum of n products below p^2, so it fits a lane of
    b bits, b the bit length of n (p - 1)^2: the columns are packed side by
    side, one lane each, into one Python int per coordinate, each row of A
    takes all of them in n multiply-adds of those ints, and shifts read the
    lanes back."""
    if not columns:
        return {}
    b = (len(columns[0]) * (p - 1) ** 2).bit_length()
    lanes, mask = range(0, b * len(columns), b), (1 << b) - 1
    packed = [sum(x << s for x, s in zip(coord, lanes)) for coord in zip(*columns)]

    def image(A):
        rows = [sum(map(operator.mul, row, packed)) for row in A]
        return zip(*([(y >> s & mask) % p for s in lanes] for y in rows))

    return {u: list(images) for u, *images in zip(columns, *map(image, mats))}


def _image_vectors(mats, candidates, p):
    """Yield, per candidate U in `candidates` (at one source), the vectors
    A u, one per matrix A in `mats` and column u of U.  The candidates are
    read ECHELON_TABLE_MAX at a time, so a large space holds the columns
    of one chunk at a time, and the images of each distinct column are
    built once, with the other new columns of its chunk
    (`_column_images`)."""
    images, rest = {}, iter(candidates)
    while chunk := [list(zip(*U.rows)) for U in itertools.islice(rest, ECHELON_TABLE_MAX)]:
        new = [u for u in dict.fromkeys(itertools.chain.from_iterable(chunk)) if u not in images]
        images.update(_column_images(mats, new, p))
        for columns in chunk:
            yield [v for u in columns for v in images[u]]


@memo.memoized(lambda M, head: (M.key, head))
def _rank_distribution(M, head):
    """dist[w] = #{subrepresentations of M restricted to the vertices
    before the closing vertex (`_closing`), of dimensions `head` there,
    whose arrows into the closing vertex have images spanning w
    dimensions}.  Rank is unchanged under transposition, so each point
    of the plain walk ranks the list of vectors A_a u, one per arrow a: s
    -> closing vertex and column u of the chosen U_s, on Python-int rows.
    The vectors of every candidate at each source are built before the
    walk (`_image_vectors`), so they take memory in proportion to the
    candidates the walk holds anyway."""
    Q, p = M.quiver, M.p
    walked, last = _closing(M)
    e = dict(zip(walked, head))
    candidates, _, chosen, options = _walk_tables(M, e, walked)
    d = M.dims[last]
    mats = {}
    for (s, t), mat in zip(Q.arrows, M.mats):
        if t == last and e[s] and d:
            mats.setdefault(s, []).append(mat)
    walk = _torus_walk(walked, chosen, options, [None] * len(walked), 0, p)
    if not mats:
        return (sum(walk),)
    width = sum(e[s] * len(m) for s, m in mats.items())
    dist = [0] * (min(d, width) + 1)
    # rank the vectors as rows, or, where there are more of them than d,
    # as the columns of d rows: fewer rows to clear under each pivot
    if width > d:
        rank = lambda vecs: linalg.rank_rows(list(zip(*vecs)), width, p)
    else:
        rank = lambda vecs: linalg.rank_rows(vecs, d, p)
    vectors = {s: list(_image_vectors(m, candidates[s], p)) for s, m in mats.items()}
    for _ in walk:
        dist[rank([v for s, vecs in vectors.items() for v in vecs[chosen[s]]])] += 1
    return tuple(dist)


def grassmannian_count(M, e, budget=DEFAULT_SUBSPACE_BUDGET):
    """|Gr_e(M)(F_p)|: the number of subrepresentations of dimension e.

    The count closes at the last vertex in topological order where M is
    nonzero (`_closing`), and is charged over the vertices before it (see
    above).  Every arrow out of it maps into a zero space, so given the
    subspaces at the vertices before it, a subspace there need only
    contain the span W of the images of the arrows into it: [d_last - w
    choose e_last - w]_p choices, w = dim W.  Where every e_v before the
    closing vertex is 0 or d_v, those subspaces can only be M on
    S = {v : e_v = d_v}, a subrepresentation when M_a = 0 on every arrow
    from S to the rest of them, and W is spanned by the columns of the
    arrows from S into the closing vertex: no walk, and 1 or 0 where
    e_last is 0 or d_last too.  This rule is written here apart from the
    census's, so that the two character paths share no census code.
    Otherwise the count sums the choices over `_rank_distribution`.
    """
    Q, p, dims = M.quiver, M.p, M.dims
    e = tuple(map(int, e))
    if len(e) != Q.n:
        raise ValueError("dimension vector has wrong length")
    if any(k < 0 or k > d for k, d in zip(e, dims)):
        return 0
    walked, last = _closing(M)
    charge = math.prod(subspace_count(dims[v], e[v], p) for v in walked if 0 < e[v] < dims[v])
    _check_budget(charge, budget)
    if charge == 1:
        full, into, width = [k == d for k, d in zip(e, dims)], [], 0
        for (s, t), mat in zip(Q.arrows, M.mats):
            if full[s] and t == last:
                into.append(mat)
                width += dims[s]
            elif full[s] and not full[t] and any(map(any, mat)):
                return 0
        joint = [list(itertools.chain.from_iterable(rows)) for rows in zip(*into)]
        w = linalg.rank_rows(joint, width, p)
        return subspace_count(dims[last] - w, e[last] - w, p)
    dist = _rank_distribution(M, tuple([e[v] for v in walked]))
    d, k = dims[last], e[last]
    return sum(c * subspace_count(d - w, k - w, p) for w, c in enumerate(dist) if c)


def hall_census(M, e, budget=DEFAULT_SUBSPACE_BUDGET, key_classes=None):
    """Census {(quot_classes, sub_classes): count} of subreps of M.

    Where every e_v is 0 or d_v, the one candidate, M restricted to
    {v : e_v = d_v}, is checked and classified with no subspace walk.
    Where the support of M has two or more unlinked parts, the census is
    the product of the parts' censuses (see above).  Otherwise the walk
    classifies the first point of each torus orbit and counts it once per
    point of its orbit (see above), so the census keeps the plain walk's
    key order.
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
            _check_budget(_charge(M, e), budget)
            return _census(M, e)
    charge, census, _ = _class_census(M, e, budget, key_classes)
    _check_budget(charge, budget)
    return census


@memo.memoized(lambda M, e, budget, classes: (M.quiver.key, M.p, classes, e))
def _class_census(M, e, budget, classes):
    """(`_charge`, `_census`, view) of M at e, memoized on the
    decomposition `classes` of M, where the view is the census grouped by
    the fingerprint ids of (quotient, sub).  A miss checks the charge
    before the census is counted; the key leaves out the budget, so the
    caller checks the charge again on every hit."""
    charge = _charge(M, e)
    _check_budget(charge, budget)
    census = _census(M, e, classes)
    view = {}
    for (quot, sub), c in census.items():
        key = (catalog.fingerprint_id(quot), catalog.fingerprint_id(sub))
        view[key] = view.get(key, 0) + c
    return charge, census, view


def census_view(M, e, budget, classes):
    """{(fingerprint id of quot, fingerprint id of sub): count}: the census
    of (M, e) grouped by `catalog.fingerprint_id`, read from the same
    `_class_census` entry as `hall_census`.  `e` is a tuple of ints; an
    out-of-range e reads an empty view."""
    charge, _, view = _class_census(M, e, budget, classes)
    _check_budget(charge, budget)
    return view


def _check_budget(charge, budget):
    """Raise BudgetExceeded when `charge` exceeds `budget`; a charge of 0
    (an e that is out of range or of the wrong length) is never checked."""
    if charge and charge > budget:
        raise BudgetExceeded(f"subspace search space {charge} exceeds budget {budget}")


def _charge(M, e):
    """The charge of a census of M at e: prod_v [d_v choose e_v]_p, which
    is 1 where every e_v is 0 or d_v (the forced census) and 0 (no check)
    where e is out of range or of the wrong length."""
    if len(e) != len(M.dims):
        return 0
    charge = 1
    for d, k in zip(M.dims, e):
        if k and k != d:
            charge *= subspace_count(d, k, M.p)
    return charge


def _census(M, e, classes=None):
    """The census of M at e, its budget already checked."""
    Q, p = M.quiver, M.p
    quot_dims = tuple(d - k for d, k in zip(M.dims, e))
    if len(e) == Q.n and all(k in (0, d) for k, d in zip(e, M.dims)):
        return _forced_census(M, e, quot_dims, classes)
    # an indecomposable M has one part
    if classes is not None and len(e) == Q.n and sum(m for _, m in classes) > 1:
        label = _support_labels(M)
        if len(set(label) - {None}) > 1 and all(0 <= k <= d for k, d in zip(e, M.dims)):
            out = _split_census(M, e, label)
            if out is not None:
                return out
    if len(e) != Q.n:
        raise ValueError("dimension vector has wrong length")
    out = {}
    if any(k < 0 or k > d for k, d in zip(e, M.dims)):
        return out
    candidates, images, chosen, walk = _orbit_walk(M, e)
    for weight in walk:
        U = [candidates[v][i] for v, i in enumerate(chosen)]
        sub, quot = [], []
        for a, (s, t) in enumerate(Q.arrows):
            img = images[a][chosen[s]]
            sub.append([img[r] for r in U[t].pivots])
            quot.append(_quotient_block(M.mats[a], U[s], U[t], p))
        key = (
            catalog._decompose_rows(Q, p, quot_dims, quot),
            catalog._decompose_rows(Q, p, e, sub),
        )
        out[key] = out.get(key, 0) + weight
    return out


def _forced_census(M, e, quot_dims, classes):
    """The census at an e with every e_v in {0, d_v} (see above).  Known
    `classes` of M are the sub at e = dim M and the quotient at e = 0."""
    if classes is not None and not any(e):
        return {(classes, ()): 1}
    if classes is not None and not any(quot_dims):
        return {((), classes): 1}
    full = [k == d for k, d in zip(e, M.dims)]
    sub, quot = [], []
    for (s, t), mat in zip(M.quiver.arrows, M.mats):
        if full[s] and not full[t] and any(map(any, mat)):
            return {}
        sub.append(mat if full[s] and full[t] else ((),) * e[t])
        quot.append(mat if not (full[s] or full[t]) else ((),) * quot_dims[t])
    key = (
        catalog._decompose_rows(M.quiver, M.p, quot_dims, quot),
        catalog._decompose_rows(M.quiver, M.p, e, sub),
    )
    return {key: 1}


# M restricted to one connected part of its support: the fields of a `Rep`
# that a census reads, so a split census builds no `Rep`
_Part = namedtuple("_Part", "quiver p dims mats")


def _support_labels(M):
    """The connected parts of the graph on {v : d_v > 0} with an edge for
    every arrow whose matrix is nonzero: one label per vertex, equal on the
    vertices of one part, None where d_v = 0."""
    label = [v if d else None for v, d in enumerate(M.dims)]
    for (s, t), mat in zip(M.quiver.arrows, M.mats):
        if label[s] != label[t] and any(map(any, mat)):
            old, new = label[t], label[s]
            label = [new if x == old else x for x in label]
    return label


def _split_census(M, e, label):
    """The census of M at e as the product of the censuses of M restricted
    to the parts of its support, given by `_support_labels` (see above),
    or None when the walk's key order cannot be kept.  The charge of all
    of M has been checked, and each part's divides it."""
    Q, p = M.quiver, M.p
    censuses = {}
    for x in dict.fromkeys(y for y in label if y is not None):
        dims = tuple(d if y == x else 0 for y, d in zip(label, M.dims))
        mats = tuple(
            mat if label[s] == x == label[t] else ((),) * dims[t]
            for (s, t), mat in zip(Q.arrows, M.mats)
        )
        censuses[x] = _class_census(
            _Part(Q, p, dims, mats),
            tuple(k if y == x else 0 for y, k in zip(label, e)),
            math.inf,
            catalog._decompose_rows(Q, p, dims, mats),
        )[1]
    # The product meets its keys in the walk's order when the parts with
    # several entries are taken in the order of their free vertices along
    # the topological order, each part's free vertices in one run.
    runs = [
        x for x, _ in itertools.groupby(
            label[v] for v in Q.topological_order()
            if 0 < e[v] < M.dims[v] and len(censuses[label[v]]) > 1
        )
    ]
    if len(runs) != len(set(runs)):
        return None
    first, *rest = runs + [x for x in censuses if x not in runs]
    out = censuses[first]
    for x in rest:
        out = {
            (catalog._merge_classes(q1, q2), catalog._merge_classes(s1, s2)): c1 * c2
            for (q1, s1), c1 in out.items()
            for (q2, s2), c2 in censuses[x].items()
        }
    return out


def hall_number(L, quot_classes, sub_classes, budget=DEFAULT_SUBSPACE_BUDGET):
    """g = #{U <= L : U iso sub, L/U iso quot} for concrete class labels."""
    e = catalog.decomposition_dims(L.quiver, sub_classes)
    census = hall_census(L, e, budget=budget)
    return census.get((catalog.sort_classes(quot_classes), catalog.sort_classes(sub_classes)), 0)

