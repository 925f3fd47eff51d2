"""Catalogs of indecomposable representations, exact decomposition, and
a textual grammar for naming modules.

Supported catalogs
------------------
* Dynkin quivers: indecomposables correspond to positive roots.  For the
  equioriented A_n quiver these are interval modules (built directly);
  for other Dynkin orientations the unique indecomposable with a given
  root as dimension vector is found by seeded random search (a generic
  representation of a root dimension vector is the indecomposable one,
  recognized by dim End = 1).

* Kronecker quiver (two parallel arrows): the indecomposables are
    - preprojectives  P_n with dims (n, n+1),   A = [I; 0], B = [0; I]
    - preinjectives   I_n with dims (n+1, n),   A = [I | 0], B = [0 | I]
    - regulars        R(pt, m) for pt in P^1,   one Jordan-type block:
        pt = lam finite:  A = Id_m, B = J_m(lam)
        pt = infinity:    A = J_m(0), B = Id_m
  Points of P^1 over F_p whose residue field is larger than F_p ("tubes at
  irrational points") are outside this catalog; decomposition detects them
  and raises OutsideCatalog.

Decomposition
-------------
Multiplicities come from exact Hom dimensions through almost-split
sequences.  For an indecomposable Z that is not injective, with sequence
0 -> Z -> E -> Z' -> 0, the maps Z -> M that do not factor through E are
the split injections onto Z-summands, so

    mult_Z(M) = dim Hom(Z, M) - dim Hom(E, M) + dim Hom(Z', M),

and dually with Hom(M, -).  Other summands cancel, so the formula stays
exact when part of M is outside the catalog; the check sum(mult * dims) =
dims(M) catches that part.  On the Kronecker quiver no catalog module is
built: each dim Hom is k*d - rank of a block-bidiagonal matrix on the
pencil (A, B): V1 -> V2 of M (Gantmacher, Theory of Matrices II, ch. XII),
with the signs dropped, since they do not change the rank:

    Hom(P_n, M)       n*d1 - rank, n - 1 block rows [.. B A ..]; P_0, P_1: d2, d1
    Hom(M, I_n)       the same on (A^T, B^T), with d1 and d2 swapped
    Hom(R_lam(m), M)  m*d1 - rank, m block rows [.. B-lam*A A ..]; [.. A B ..] at inf

On a Dynkin quiver the multiplicities are one integer product A^{-1} v
with the inverse Hom table of the indecomposables, fixed per (quiver, p),
and v[r] = dim Hom(M, X_r) = unknowns - rank of the Hom constraint rows
(`rep.hom_constraint_rows`).

Both families are classified from the Python-int rows of M's matrices by
one entry, `_classify_rows`, and no `Rep` is built: `decompose(M)` passes
M's rows, and `_decompose_rows` classifies the rows of a census's sub or
quotient on a memo miss, storing the result in the `decompose` table under
the key a `Rep` of those matrices would have.

Symbols
-------
A module symbol is a formal direct sum of catalog atoms, written e.g.

    S1 + 2*P[1,2] + R(1,1)@0 + R(2,2)@1

Atoms: `S<i>`, `P<i>`, `I<i>` (1-based vertex index: simple, projective,
injective), `<Letter>[d1,...,dn]` / `<Letter>(d1,...)` naming the unique
indecomposable with that dimension vector, and on the Kronecker quiver
`R(m,m)@<tag>` regulars where the integer tag names an abstract tube.
Untagged regular atoms receive fresh tags in parse order; `k*atom` repeats
an atom (same tube!), while two untagged `R(1,1) + R(1,1)` atoms land in
two different tubes.  `0` is the zero module.  Tags materialize at a prime
p through a fixed sequence of points of P^1 (tag 0 -> 0, 1 -> 1,
2 -> infinity, k -> k-1 for k >= 3); a prime is admissible for a set of
tags when the materialized points stay pairwise distinct mod p.
"""

import itertools
import re
import zlib
from array import array

import numpy as np

from . import linalg, memo, rep
from .errors import ComputationError, OutsideCatalog, UnsupportedQuiver
from .quiver import _unimodular_inverse
from .rep import Rep

INF = "inf"

# ---------------------------------------------------------------------------
# concrete class labels
#
#   ('root', dims)    Dynkin indecomposable with this dimension vector
#   ('P', n)          Kronecker preprojective, dims (n, n+1)
#   ('I', n)          Kronecker preinjective, dims (n+1, n)
#   ('Rc', lam, m)    Kronecker regular at the concrete point lam (int or INF)
#   ('R', tag, m)     Kronecker regular at an abstract tagged tube (symbols)
#   ('S', i) ('proj', i) ('inj', i)   vertex atoms on general acyclic quivers
# ---------------------------------------------------------------------------


def jordan_block(lam, m):
    J = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        J[i, i] = lam
        if i + 1 < m:
            J[i, i + 1] = 1
    return J


def _is_linear_a_n(quiver):
    return quiver.arrows == tuple((i, i + 1) for i in range(quiver.n - 1))


def _stable_seed(*parts):
    return zlib.crc32(repr(parts).encode()) & 0xFFFFFFFF


def _paths_from(quiver, i):
    """All paths starting at i, as tuples of arrow indices, grouped by end."""
    by_end = [[] for _ in range(quiver.n)]
    stack = [(i, ())]
    while stack:
        v, path = stack.pop()
        by_end[v].append(path)
        for a, (s, t) in enumerate(quiver.arrows):
            if s == v:
                stack.append((t, path + (a,)))
    for v in range(quiver.n):
        by_end[v].sort()
    return by_end


def _projective_rep(quiver, i, p):
    """P(i): basis at v = paths i -> v; arrows act by composition."""
    paths = _paths_from(quiver, i)
    index = [{path: k for k, path in enumerate(paths[v])} for v in range(quiver.n)]
    dims = [len(paths[v]) for v in range(quiver.n)]
    mats = []
    for a, (s, t) in enumerate(quiver.arrows):
        m = np.zeros((dims[t], dims[s]), dtype=np.int64)
        for col, path in enumerate(paths[s]):
            m[index[t][path + (a,)], col] = 1
        mats.append(m)
    return Rep(quiver, p, dims, mats)


def _dynkin_indec(quiver, root, p):
    if _is_linear_a_n(quiver):
        # interval module: all coordinates 0/1 and the support contiguous
        mats = []
        for (s, t) in quiver.arrows:
            if root[s] and root[t]:
                mats.append(np.ones((1, 1), dtype=np.int64))
            else:
                mats.append(np.zeros((root[t], root[s]), dtype=np.int64))
        return Rep(quiver, p, root, mats)
    # generic search: a representation of a root dimension vector is the
    # indecomposable iff its endomorphism ring is F_p
    for attempt in range(96):
        rng = np.random.default_rng(_stable_seed("indec", quiver.key, root, p, attempt))
        M = rep.random_rep(quiver, root, p, rng)
        if rep.hom_dim(M, M) == 1:
            return M
    raise ComputationError(
        f"could not construct the indecomposable of dimension {root} over F_{p}"
    )


@memo.memoized(lambda quiver, cls, p: (quiver.key, cls, p))
def module_from_class(quiver, cls, p):
    """The representation named by a concrete class label (memoized)."""
    kind = cls[0]
    if kind == "root":
        M = _dynkin_indec(quiver, tuple(cls[1]), p)
    elif kind == "P":
        n = cls[1]
        A = np.vstack([np.eye(n, dtype=np.int64), np.zeros((1, n), dtype=np.int64)])
        B = np.vstack([np.zeros((1, n), dtype=np.int64), np.eye(n, dtype=np.int64)])
        M = Rep(quiver, p, (n, n + 1), [A, B])
    elif kind == "I":
        n = cls[1]
        A = np.hstack([np.eye(n, dtype=np.int64), np.zeros((n, 1), dtype=np.int64)])
        B = np.hstack([np.zeros((n, 1), dtype=np.int64), np.eye(n, dtype=np.int64)])
        M = Rep(quiver, p, (n + 1, n), [A, B])
    elif kind == "Rc":
        lam, m = cls[1], cls[2]
        if m == 0:
            M = Rep.zero(quiver, p)
        elif lam == INF:
            M = Rep(quiver, p, (m, m), [jordan_block(0, m), np.eye(m, dtype=np.int64)])
        else:
            M = Rep(
                quiver, p, (m, m), [np.eye(m, dtype=np.int64), jordan_block(int(lam) % p, m)]
            )
    elif kind == "S":
        M = Rep.simple(quiver, p, cls[1])
    elif kind == "proj":
        M = _projective_rep(quiver, cls[1], p)
    elif kind == "inj":
        # I(i) is the dual of the projective at i over the opposite quiver
        opp = quiver.opposite()
        M = rep.opposite_rep(_projective_rep(opp, cls[1], p), opp=quiver)
    else:
        raise ValueError(f"unknown class label {cls!r}")
    return M


def class_dims(quiver, cls):
    kind = cls[0]
    if kind == "root":
        return tuple(cls[1])
    if kind == "P":
        return (cls[1], cls[1] + 1)
    if kind == "I":
        return (cls[1] + 1, cls[1])
    if kind in ("Rc", "R"):
        return (cls[2], cls[2])
    if kind == "S":
        return tuple(1 if v == cls[1] else 0 for v in range(quiver.n))
    if kind == "proj":
        return quiver.projective_dim(cls[1])
    if kind == "inj":
        return quiver.injective_dim(cls[1])
    raise ValueError(f"unknown class label {cls!r}")


def _param_key(x):
    return (1, 0) if x == INF else (0, int(x))


def class_sort_key(cls):
    kind = cls[0]
    if kind == "root":
        return (0, sum(cls[1]), tuple(cls[1]))
    if kind == "P":
        return (0, cls[1], ())
    if kind in ("Rc", "R"):
        return (1, _param_key(cls[1]), cls[2])
    if kind == "I":
        return (2, cls[1], ())
    if kind == "S":
        return (0, 0, (cls[1],))
    if kind == "proj":
        return (0, 1, (cls[1],))
    return (0, 2, (cls[1],))


def sort_classes(pairs):
    """Canonical order for a decomposition [(class, mult), ...]."""
    return tuple(sorted(pairs, key=lambda cm: class_sort_key(cm[0])))


def decomposition_dims(quiver, decomp):
    n = quiver.n
    out = [0] * n
    for cls, mult in decomp:
        d = class_dims(quiver, cls)
        for i in range(n):
            out[i] += mult * d[i]
    return tuple(out)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


@memo.memoized(lambda M: M.key)
def decompose(M):
    """Krull-Schmidt decomposition of M as ((class, mult), ...).

    Classifies the Python-int rows of M's matrices (`_classify_rows`).
    Raises OutsideCatalog when part of M is not matched by the catalog
    (Kronecker regulars at points with larger residue field) and
    UnsupportedQuiver for quivers with no catalog at all.  Memoized on
    `M.key`, the exact matrices of M; a module that raises raises again on
    every call.
    """
    return _classify_rows(M.quiver, M.p, M.dims, [m.tolist() for m in M.mats])


def _decompose_rows(quiver, p, dims, blocks):
    """`decompose` of the module with dimension vector `dims` whose arrow
    matrices are `blocks` (lists of Python-int rows in [0, p)).

    The `decompose` memo is read, and a miss is stored, under the key a
    `Rep` of these matrices has, since array("q") and int64 share the
    machine's 8-byte layout; no `Rep` is built.
    """
    if not any(dims):
        return ()
    mat_bytes = (array("q", itertools.chain.from_iterable(b)).tobytes() for b in blocks)
    key = Rep.key_of(quiver, p, dims, mat_bytes)
    table = memo.TABLES["catalog.decompose"]
    decomp = table.get(key)
    if decomp is None:
        decomp = table[key] = _classify_rows(quiver, p, dims, blocks)
    return decomp


def _classify_rows(quiver, p, dims, blocks):
    """The one classifier behind `decompose` and `_decompose_rows`: the
    decomposition of the module (dims, blocks), blocks as in
    `_decompose_rows`."""
    if not any(dims):
        return ()
    if quiver.is_dynkin():
        return _decompose_dynkin(quiver, p, dims, blocks)
    if quiver.is_kronecker():
        return _decompose_kronecker(quiver, p, dims, blocks)
    raise UnsupportedQuiver(
        "decomposition is only available for Dynkin and Kronecker quivers"
    )


@memo.memoized(lambda Q, p: (Q.key, p))
def _dynkin_hom_data(Q, p):
    """Roots, the (dims, Python-int rows) of their indecomposables, and the
    integer inverse of the Hom table, as lists of Python ints.

    The table A[r][s] = dim Hom(X_s, X_r) relates the multiplicities m of a
    module M to v[r] = dim Hom(M, X_r) by A m = v.  It is unitriangular in
    an Auslander-Reiten order, hence unimodular, so it is inverted once per
    (quiver, p) and every decomposition is an integer product A^{-1} v.
    """
    roots = Q.positive_roots()
    reps = [module_from_class(Q, ("root", r), p) for r in roots]
    k = len(roots)
    A = [[rep.hom_dim(reps[s], reps[r]) for s in range(k)] for r in range(k)]
    indecs = [(X.dims, [m.tolist() for m in X.mats]) for X in reps]
    return roots, indecs, _unimodular_inverse(A)


def _decompose_dynkin(Q, p, dims, blocks):
    """Each v[r] = dim Hom(M, X_r) is unknowns - rank of the Python-int
    constraint rows of `rep.hom_constraint_rows`; no Hom space is solved."""
    roots, indecs, inv = _dynkin_hom_data(Q, p)
    v = []
    for x_dims, x_blocks in indecs:
        unknowns, rows = rep.hom_constraint_rows(Q, p, dims, blocks, x_dims, x_blocks)
        v.append(unknowns - linalg.rank_rows(rows, unknowns, p))
    out = []
    for root, row in zip(roots, inv):
        mult = sum(a * b for a, b in zip(row, v))
        if mult == 0:
            continue
        if mult < 0:
            raise ComputationError(f"negative multiplicity {mult} for {root}")
        out.append((("root", root), mult))
    decomp = sort_classes(out)
    if decomposition_dims(Q, decomp) != tuple(dims):
        raise OutsideCatalog("dimension mass not matched by Dynkin catalog")
    return decomp


def _pencil_hom(X, Y, rows, cols, d_in, p):
    """cols * d_in - rank of `rows` block rows, row i holding X in block
    column i and Y in block column i + 1 < cols (lists of Python-int rows)."""
    width = cols * d_in
    mat = []
    for i in range(rows):
        for x, y in zip(X, Y):
            row = [0] * (i * d_in) + x + (y if i + 1 < cols else [])
            mat.append(row + [0] * (width - len(row)))
    return width - linalg.rank_rows(mat, width, p)


def _transpose(rows, ncols):
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(ncols)]


def _decompose_kronecker(Q, p, dims, blocks):
    """Decomposition of the pencil `blocks` = (A, B), d2 x d1 Python-int
    rows, from the ranks of the module docstring."""
    d1, d2 = dims
    A, B = blocks
    out = []
    # 0 -> P_n -> P_{n+1}^2 -> P_{n+2} -> 0, and dually for I_n
    for kind, top, X, Y, d_in, d_out in (
        ("P", min(d1, d2 - 1), B, A, d1, d2),
        ("I", min(d2, d1 - 1), _transpose(B, d1), _transpose(A, d1), d2, d1),
    ):
        h = [d_out, d_in] + [_pencil_hom(X, Y, n - 1, n, d_in, p) for n in range(2, top + 3)]
        for n in range(top + 1):
            mult = h[n] - 2 * h[n + 1] + h[n + 2]
            if mult:
                out.append(((kind, n), mult))
    # tubes: 0 -> R_m -> R_{m-1} + R_{m+1} -> R_m -> 0; dim Hom(R_lam(m), I_n) = m
    n_inj = sum(mult for cls, mult in out if cls[0] == "I")
    reg = d1 - decomposition_dims(Q, out)[0]
    for lam in list(range(p)) + [INF]:
        if reg <= 0:
            break
        C, D = (A, B) if lam == INF else (
            [[(b - lam * a) % p for a, b in zip(ra, rb)] for ra, rb in zip(A, B)], A
        )
        h = [0, _pencil_hom(C, D, 1, 1, d1, p)]
        if h[1] == n_inj:
            continue
        for m in range(1, min(d1, d2) + 1):
            h.append(_pencil_hom(C, D, m + 1, m + 1, d1, p))
            mult = 2 * h[m] - h[m - 1] - h[m + 1]
            if mult:
                out.append((("Rc", lam, m), mult))
                reg -= m * mult
            if h[m + 1] - h[m] == n_inj:
                break  # no Jordan block at lam is longer than m
    for cls, mult in out:
        if mult < 0:
            raise ComputationError(f"negative multiplicity {mult} for {cls}")
    decomp = sort_classes(out)
    if decomposition_dims(Q, decomp) != tuple(dims):
        raise OutsideCatalog(
            "part of the module lives in a tube at a point of P^1 with "
            "residue field larger than F_p"
        )
    return decomp


def aut_count(M, decomp=None):
    """|Aut M| via the Krull-Schmidt decomposition."""
    if decomp is None:
        decomp = decompose(M)
    return rep.aut_count_from_mults(M, [mult for _, mult in decomp])


@memo.memoized(lambda quiver, classes, p: (quiver.key, tuple(classes), p))
def module_from_classes(quiver, classes, p):
    """Direct sum of catalog modules for a decomposition ((cls, mult), ...),
    in the given order of the classes.  Memoized, so callers share one
    read-only `Rep` per (quiver, classes, p)."""
    parts = []
    for cls, mult in classes:
        parts.extend([module_from_class(quiver, cls, p)] * mult)
    return rep.direct_sum(*parts) if parts else Rep.zero(quiver, p)


@memo.memoized(lambda quiver, classes, p: (quiver.key, tuple(classes), p))
def aut_count_of_classes(quiver, classes, p):
    """|Aut| of the module with the given decomposition (memoized).  The
    count does not depend on the order of the classes, so the memo key keeps
    the order it is given: decompositions and concrete classes arrive
    sorted, and a hit costs no sort."""
    M = module_from_classes(quiver, classes, p)
    return rep.aut_count_from_mults(M, [m for _, m in classes])


# ---------------------------------------------------------------------------
# Auslander-Reiten translation on labels
# ---------------------------------------------------------------------------


def translate_class(quiver, cls):
    """tau of an indecomposable class; None when the class is projective."""
    kind = cls[0]
    if kind == "root":
        d = tuple(cls[1])
        if any(d == quiver.projective_dim(i) for i in range(quiver.n)):
            return None
        out = quiver.coxeter(d)
        return ("root", out)
    if kind == "P":
        return ("P", cls[1] - 2) if cls[1] >= 2 else None
    if kind == "I":
        return ("I", cls[1] + 2)
    if kind in ("Rc", "R"):
        return cls
    raise ValueError(f"tau undefined for {cls!r}")


def translate_class_inverse(quiver, cls):
    """tau^{-1} of an indecomposable class; None when injective."""
    kind = cls[0]
    if kind == "root":
        d = tuple(cls[1])
        if any(d == quiver.injective_dim(i) for i in range(quiver.n)):
            return None
        return ("root", quiver.coxeter_inverse(d))
    if kind == "I":
        return ("I", cls[1] - 2) if cls[1] >= 2 else None
    if kind == "P":
        return ("P", cls[1] + 2)
    if kind in ("Rc", "R"):
        return cls
    raise ValueError(f"tau^{{-1}} undefined for {cls!r}")


def projective_vertex_of_class(quiver, cls):
    """Vertex i with class = P(i), else None."""
    kind = cls[0]
    if kind == "root":
        for i in range(quiver.n):
            if tuple(cls[1]) == quiver.projective_dim(i):
                return i
        return None
    if kind == "P":
        if cls[1] == 0:
            return 1
        if cls[1] == 1:
            return 0
        return None
    if kind == "proj":
        return cls[1]
    if kind == "S":
        return cls[1] if not any(s == cls[1] for (s, t) in quiver.arrows) else None
    return None


def injective_vertex_of_class(quiver, cls):
    """Vertex i with class = I(i), else None."""
    kind = cls[0]
    if kind == "root":
        for i in range(quiver.n):
            if tuple(cls[1]) == quiver.injective_dim(i):
                return i
        return None
    if kind == "I":
        if cls[1] == 0:
            return 0
        if cls[1] == 1:
            return 1
        return None
    if kind == "inj":
        return cls[1]
    if kind == "S":
        return cls[1] if not any(t == cls[1] for (s, t) in quiver.arrows) else None
    return None


# ---------------------------------------------------------------------------
# fingerprints: iso-class data up to renaming tubes
# ---------------------------------------------------------------------------


def fingerprint_of_classes(pairs):
    """Canonical form of a decomposition up to renaming the tube points.

    Works for both abstract ('R', tag, m) and concrete ('Rc', lam, m)
    regular labels, so symbols and per-prime decompositions can be compared
    directly.
    """
    rigid = []
    tubes = {}
    for cls, mult in pairs:
        if cls[0] in ("R", "Rc"):
            tubes.setdefault(cls[1], []).append((cls[2], mult))
        else:
            rigid.append((cls, mult))
    rigid.sort(key=lambda cm: class_sort_key(cm[0]))
    groups = sorted(tuple(sorted(g)) for g in tubes.values())
    return (tuple(rigid), tuple(groups))


# Interned ids: one small int per symbol (quiver, atoms) and per fingerprint,
# drawn from one counter that is never reset.  `memo.clear()` forgets which
# key had which id, but never hands an id out twice, so an id held by a
# live `ModuleSymbol` stays valid: its per-id data is derived again from
# the symbol on the next read.
_IDS = itertools.count()


@memo.memoized(lambda fingerprint: fingerprint)
def _fingerprint_id(fingerprint):
    return next(_IDS)


@memo.memoized(lambda pairs: pairs)
def fingerprint_id(pairs):
    """Small-int id of `fingerprint_of_classes(pairs)` (memoized on the
    hashable decomposition `pairs`): two decompositions have the same id
    exactly when they have the same fingerprint, until `memo.clear()`."""
    return _fingerprint_id(fingerprint_of_classes(pairs))


# ---------------------------------------------------------------------------
# abstract tube tags
# ---------------------------------------------------------------------------


def lam_of_tag(tag, p):
    """Materialize an abstract tube tag as a point of P^1(F_p)."""
    tag = int(tag)
    if tag == 0:
        return 0
    if tag == 1:
        return 1 % p
    if tag == 2:
        return INF
    return (tag - 1) % p


def _finite_tag_values(tags):
    vals = []
    for tag in tags:
        tag = int(tag)
        if tag == 2:
            continue
        vals.append(tag - 1 if tag >= 3 else tag)
    return vals


def prime_admissible_for_tags(tags, p):
    """True when the tags materialize to pairwise distinct points mod p."""
    vals = _finite_tag_values(tags)
    return len(set(v % p for v in vals)) == len(vals)


def min_prime_for_tags(tags):
    p = 2
    while not prime_admissible_for_tags(tags, p):
        p = next_prime(p)
    return p


def next_prime(p):
    """The smallest prime > p."""
    q = max(p + 1, 2)
    while any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        q += 1
    return q


def primes_from(p, count):
    """`count` consecutive primes starting at the smallest prime >= p."""
    out = []
    q = p - 1
    while len(out) < count:
        q = next_prime(q)
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# module symbols
# ---------------------------------------------------------------------------

_ATOM_VERTEX = re.compile(r"^([A-Z])(\d+)$")
_ATOM_DIMS = re.compile(r"^([A-Z])[\[\(]([\d,\s]+)[\]\)](?:@(\d+))?$")


class ModuleSymbol:
    """A formal direct sum of catalog atoms over a fixed quiver.

    `id` is the symbol's interned id (`_symbol_id`): equal symbols built in
    the same memo epoch share it, and everything derived from the symbol
    alone (text, fingerprint, tags, min prime, and per prime its concrete
    classes and module) is memoized per id, computed the first time it is
    read.
    """

    def __init__(self, quiver, atoms):
        self.quiver = quiver
        merged = {}
        for atom, mult in atoms:
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult == 0:
                continue
            merged[atom] = merged.get(atom, 0) + mult
        self.atoms = tuple(
            sorted(merged.items(), key=lambda am: class_sort_key(am[0]))
        )
        self.dims = decomposition_dims(quiver, self.atoms)
        self.id = _symbol_id(quiver, self.atoms)

    # -- data ----------------------------------------------------------------

    def total_dim(self):
        return sum(self.dims)

    def is_zero(self):
        return not self.atoms

    def mults(self):
        return tuple(m for _, m in self.atoms)

    def tags(self):
        return list(_symbol_tags(self))

    def indec_count(self):
        return sum(m for _, m in self.atoms)

    def fingerprint(self):
        return _symbol_fingerprint(self)

    def fingerprint_id(self):
        """The interned id of `fingerprint()` (see `fingerprint_id`)."""
        return _symbol_fingerprint_id(self)

    @property
    def key(self):
        return (self.quiver.key, self.atoms)

    def __eq__(self, other):
        return isinstance(other, ModuleSymbol) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    # -- materialization -------------------------------------------------------

    def admissible_prime(self, p):
        return prime_admissible_for_tags(_symbol_tags(self), p)

    def min_prime(self):
        return _symbol_min_prime(self)

    def concrete_classes(self, p):
        """The per-prime decomposition this symbol materializes to."""
        return _concrete_classes(self, p)

    def instantiate(self, p):
        """A representation over F_p in this symbol's isomorphism class."""
        return _instantiate(self, p)

    def direct_sum(self, *others):
        atoms = list(self.atoms)
        for o in others:
            if o.quiver.key != self.quiver.key:
                raise ValueError("symbols over different quivers")
            atoms.extend(o.atoms)
        return ModuleSymbol(self.quiver, atoms)

    # -- printing --------------------------------------------------------------

    def __str__(self):
        return _symbol_text(self)

    def __repr__(self):
        return f"ModuleSymbol({self})"


@memo.memoized(lambda quiver, atoms: (quiver.key, atoms))
def _symbol_id(quiver, atoms):
    """The interned id of the symbol (quiver, sorted atoms)."""
    return next(_IDS)


@memo.memoized(lambda sym: sym.id)
def _symbol_text(sym):
    if not sym.atoms:
        return "0"
    parts = []
    for atom, mult in sym.atoms:
        text = _atom_str(sym.quiver, atom)
        parts.append(f"{mult}*{text}" if mult > 1 else text)
    return "+".join(parts)


@memo.memoized(lambda sym: sym.id)
def _symbol_fingerprint(sym):
    return fingerprint_of_classes(sym.atoms)


@memo.memoized(lambda sym: sym.id)
def _symbol_fingerprint_id(sym):
    return _fingerprint_id(_symbol_fingerprint(sym))


@memo.memoized(lambda sym: sym.id)
def _symbol_tags(sym):
    """The sorted tube tags of the symbol, as a tuple."""
    return tuple(sorted({a[1] for a, _ in sym.atoms if a[0] == "R"}))


@memo.memoized(lambda sym: sym.id)
def _symbol_min_prime(sym):
    return min_prime_for_tags(_symbol_tags(sym))


@memo.memoized(lambda sym, p: (sym.id, p))
def _concrete_classes(sym, p):
    if not sym.admissible_prime(p):
        raise ValueError(
            f"prime {p} too small: tube tags {sym.tags()} collide mod {p}"
        )
    out = []
    for atom, mult in sym.atoms:
        if atom[0] == "R":
            out.append((("Rc", lam_of_tag(atom[1], p), atom[2]), mult))
        else:
            out.append((atom, mult))
    return sort_classes(out)


@memo.memoized(lambda sym, p: (sym.id, p))
def _instantiate(sym, p):
    return module_from_classes(sym.quiver, _concrete_classes(sym, p), p)


def _atom_str(quiver, atom):
    kind = atom[0]
    if kind == "root":
        return "M[" + ",".join(str(x) for x in atom[1]) + "]"
    if kind == "P":
        return f"P[{atom[1]},{atom[1] + 1}]"
    if kind == "I":
        return f"I[{atom[1] + 1},{atom[1]}]"
    if kind == "R":
        return f"R({atom[2]},{atom[2]})@{atom[1]}"
    if kind == "Rc":
        return f"R({atom[2]},{atom[2]})@lam={atom[1]}"
    if kind == "S":
        return f"S{atom[1] + 1}"
    if kind == "proj":
        return f"P{atom[1] + 1}"
    if kind == "inj":
        return f"I{atom[1] + 1}"
    raise ValueError(f"unprintable atom {atom!r}")


def _atom_from_dims(quiver, dims, tag, fresh_tag):
    """Classify a dimension vector as a single indecomposable atom."""
    if quiver.is_kronecker():
        d1, d2 = dims
        if d2 == d1 + 1:
            atom = ("P", d1)
        elif d1 == d2 + 1:
            atom = ("I", d2)
        elif d1 == d2 and d1 > 0:
            return ("R", tag if tag is not None else fresh_tag(), d1)
        else:
            raise ValueError(f"no indecomposable of dimension {dims}")
        if tag is not None:
            raise ValueError("@tag is only meaningful for regular modules")
        return atom
    if tag is not None:
        raise ValueError("@tag is only meaningful on the Kronecker quiver")
    if quiver.is_dynkin():
        if quiver.tits_form(dims) != 1 or not any(dims):
            raise ValueError(f"{dims} is not a root: no such indecomposable")
        return ("root", tuple(dims))
    raise UnsupportedQuiver(
        "dimension-vector atoms need a Dynkin or Kronecker quiver"
    )


def _vertex_atom(quiver, letter, i, fresh_tag):
    if not (1 <= i <= quiver.n):
        raise ValueError(f"vertex index {i} out of range")
    v = i - 1
    if letter == "S":
        dims = tuple(1 if u == v else 0 for u in range(quiver.n))
    elif letter == "P":
        dims = quiver.projective_dim(v)
    elif letter == "I":
        dims = quiver.injective_dim(v)
    else:
        raise ValueError(f"unknown vertex atom {letter}{i}")
    if quiver.is_dynkin() or quiver.is_kronecker():
        return _atom_from_dims(quiver, dims, None, fresh_tag)
    return {"S": ("S", v), "P": ("proj", v), "I": ("inj", v)}[letter]


def parse_symbol(text, quiver):
    """Parse the module-symbol grammar (see module docstring)."""
    text = text.strip()
    if not text:
        raise ValueError("empty module symbol")
    used_tags = set()
    counter = itertools.count()

    def fresh_tag():
        for t in counter:
            if t not in used_tags:
                used_tags.add(t)
                return t

    # collect explicit tags first so fresh ones never collide
    for m in re.finditer(r"@(\d+)", text):
        used_tags.add(int(m.group(1)))
    atoms = []
    for term in text.split("+"):
        term = term.strip().replace(" ", "")
        if not term:
            raise ValueError("empty summand in module symbol")
        mult = 1
        if "*" in term:
            head, term = term.split("*", 1)
            mult = int(head)
        if term == "0":
            continue
        m = _ATOM_VERTEX.match(term)
        if m:
            atoms.append((_vertex_atom(quiver, m.group(1), int(m.group(2)), fresh_tag), mult))
            continue
        m = _ATOM_DIMS.match(term)
        if m:
            dims = tuple(int(x) for x in m.group(2).replace(" ", "").split(","))
            if len(dims) != quiver.n:
                raise ValueError(
                    f"dimension vector {dims} has wrong length for this quiver"
                )
            tag = int(m.group(3)) if m.group(3) is not None else None
            atoms.append((_atom_from_dims(quiver, dims, tag, fresh_tag), mult))
            continue
        raise ValueError(f"cannot parse module atom {term!r}")
    return ModuleSymbol(quiver, atoms)


def symbol_from_classes(quiver, pairs):
    """Wrap a decomposition whose labels are already abstract atoms."""
    return ModuleSymbol(quiver, pairs)


def abstract_symbol_from_classes(quiver, pairs):
    """Build a ModuleSymbol from a decomposition that may carry concrete labels.

    Concrete regular classes ('Rc', lam, m) arise as census keys at a fixed
    prime; to re-enter the prime-independent world each distinct parameter
    lam is renamed to a fresh abstract tube tag ('R', tag, m).  Distinct lams
    get distinct tags, so the fingerprint of the result equals the
    fingerprint of the input.  Abstract labels pass through unchanged and
    fresh tags are chosen above any tag already present.
    """
    pairs = list(pairs)
    used = {cls[1] for cls, _ in pairs if cls[0] == "R"}
    lams = sorted(
        {cls[1] for cls, _ in pairs if cls[0] == "Rc"}, key=_param_key
    )
    tag_of = {}
    nxt = 0
    for lam in lams:
        while nxt in used:
            nxt += 1
        tag_of[lam] = nxt
        used.add(nxt)
        nxt += 1
    out = []
    for cls, mult in pairs:
        if cls[0] == "Rc":
            cls = ("R", tag_of[cls[1]], cls[2])
        out.append((cls, mult))
    return ModuleSymbol(quiver, out)


def min_prime_for_symbols(symbols):
    tags = set()
    for s in symbols:
        tags.update(_symbol_tags(s))
    return min_prime_for_tags(tags)


def simple_projective_vertices(quiver):
    """Vertices whose projective is simple (the sinks)."""
    return quiver.sinks()
