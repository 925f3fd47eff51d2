"""Catalogs of indecomposable representations, exact decomposition, and
a textual grammar for naming modules.

Supported catalogs
------------------
* Dynkin quivers, in any orientation: indecomposables correspond to
  positive roots, and each is tau^m I(i) for an injective I(i).  One
  deterministic walk (`_coxeter_walk`) applies the Coxeter functor of
  Bernstein-Gelfand-Ponomarev, tau = C^+, to each injective until it is
  zero, giving every indecomposable over every F_p.

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

On a Dynkin quiver the multiplicities come by forward substitution in the
Auslander-Reiten order of `_coxeter_walk`.  There dim Hom(X_s, X_r) is the
Euler form <x_s, x_r> for s <= r, as Ext^1(X_s, X_r) = D Hom(X_r, tau X_s)
= 0, and 0 for s > r (Ringel, LNM 1099, on directing modules), so
m_r = dim Hom(M, X_r) - <dim M - left, x_r>, with dim M - left the summands
found before X_r and dim Hom(M, X_r) = unknowns - rank of the Hom
constraint rows (`rep.hom_constraint_rows`).  A root that does not fit in
`left` gets m_r = 0 with no rank, and the substitution stops once dim M is
used up.

Both families are classified from the Python-int rows of M's matrices by
one entry, `_classify_rows`, and no `Rep` is built: `decompose(M)` passes
M's rows (`Rep.mats`), and `_decompose_rows` classifies the rows of a
census's sub, quotient or Ext middle on a memo miss.  Both read and store
the `decompose` table under `Rep.key_of` of the rows, so a census entry
and a `Rep` with the same matrices share one entry.

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
import operator
import re

from . import linalg, memo, rep
from .errors import ComputationError, OutsideCatalog, UnsupportedQuiver
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
    """The m x m Jordan block with eigenvalue lam, as Python-int rows."""
    return [[lam if j == i else int(j == i + 1) for j in range(m)] for i in range(m)]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _paths_from(n, arrows, i):
    """All paths starting at i, as tuples of arrow indices, grouped by end."""
    by_end = [[] for _ in range(n)]
    stack = [(i, ())]
    while stack:
        v, path = stack.pop()
        by_end[v].append(path)
        for a, (s, t) in enumerate(arrows):
            if s == v:
                stack.append((t, path + (a,)))
    for v in range(n):
        by_end[v].sort()
    return by_end


def _projective_mats(n, arrows, i):
    """(dims, arrow matrices) of P(i) over the quiver (n, arrows): basis at v
    = paths i -> v; arrows act by composition."""
    paths = _paths_from(n, arrows, i)
    index = [{path: k for k, path in enumerate(paths[v])} for v in range(n)]
    dims = [len(paths[v]) for v in range(n)]
    mats = []
    for a, (s, t) in enumerate(arrows):
        m = [[0] * dims[s] for _ in range(dims[t])]
        for col, path in enumerate(paths[s]):
            m[index[t][path + (a,)]][col] = 1
        mats.append(m)
    return dims, mats


def _injective_mats(quiver, i):
    """(dims, arrow matrices) of I(i): the projective over the reversed arrows, transposed."""
    dims, mats = _projective_mats(quiver.n, [(t, s) for (s, t) in quiver.arrows], i)
    return dims, [_transpose(m, dims[t]) for m, (s, t) in zip(mats, quiver.arrows)]


def _tau_orbits(quiver, p):
    """(root, indecomposable) of a Dynkin quiver over F_p in order of
    visit: every injective walked down tau^m I(i) until it is zero, tau
    being the Coxeter functor C^+ of Bernstein-Gelfand-Ponomarev.  In
    reverse topological order each vertex k is a sink; reflecting there
    replaces M_k by the kernel of (+)_{a: j -> k} M_a (its rows
    concatenated), whose coordinate blocks become the reversed arrows.
    Each step checks dim tau M against `quiver.coxeter(dim M)`.  The
    injectives take their tau steps together, in topological order."""
    if not quiver.is_dynkin():
        raise UnsupportedQuiver("Dynkin indecomposables need a Dynkin quiver")
    sinks = [
        (k, [(a, s + t - k) for a, (s, t) in enumerate(quiver.arrows) if k in (s, t)])
        for k in reversed(quiver.topological_order())
    ]
    level = [_injective_mats(quiver, i) for i in quiver.topological_order()]
    while level:
        for dims, mats in level:
            root = tuple(dims)
            yield root, Rep(quiver, p, dims, mats)
            for k, at_k in sinks:
                width = sum(dims[j] for _, j in at_k)
                rows = [list(itertools.chain(*r)) for r in zip(*(mats[a] for a, _ in at_k))]
                ker = linalg.nullspace_rows(rows, width, p)
                dims[k], start = len(ker), 0
                for a, j in at_k:
                    mats[a] = [[v[start + r] for v in ker] for r in range(dims[j])]
                    start += dims[j]
            cox = quiver.coxeter(root)
            if tuple(dims) != (cox if min(cox) >= 0 else (0,) * quiver.n):
                raise ComputationError(f"tau of {root} has dimension {tuple(dims)}, not {cox}")
        level = [(dims, mats) for dims, mats in level if any(dims)]


@memo.memoized(lambda quiver, p: (quiver.key, p))
def _coxeter_walk(quiver, p):
    """{root: indecomposable} of `_tau_orbits` in reverse order of visit:
    tau^m I(i) by decreasing m, ties by i in reverse topological order.
    This Auslander-Reiten order is checked from dims alone, <x_s, x_r> >= 0
    >= <x_r, x_s> for s before r (see above); ComputationError otherwise.
    Each root's row of the Euler matrix is built once, so each <x, y> is
    one dot product."""
    walk = dict(reversed(list(_tau_orbits(quiver, p))))
    rows = {x: quiver.euler_row(x) for x in walk}
    for s, x in itertools.combinations(walk, 2):
        if sum(map(operator.mul, rows[s], x)) < 0 or sum(map(operator.mul, rows[x], s)) > 0:
            raise ComputationError(f"{s} before {x} is not an Auslander-Reiten order")
    return walk


@memo.memoized(lambda quiver, cls, p: (quiver.key, cls, p))
def module_from_class(quiver, cls, p):
    """The representation named by a concrete class label (memoized)."""
    kind = cls[0]
    if kind == "root":
        M = _coxeter_walk(quiver, p).get(tuple(cls[1]))
        if M is None:
            raise ComputationError(f"{cls[1]} is not the dimension of an indecomposable")
    elif kind == "P":
        n = cls[1]
        M = Rep(quiver, p, (n, n + 1), [_eye(n) + [[0] * n], [[0] * n] + _eye(n)])
    elif kind == "I":
        n = cls[1]
        A = [row + [0] for row in _eye(n)]
        B = [[0] + row for row in _eye(n)]
        M = Rep(quiver, p, (n + 1, n), [A, B])
    elif kind == "Rc":
        lam, m = cls[1], cls[2]
        if m == 0:
            M = Rep.zero(quiver, p)
        elif lam == INF:
            M = Rep(quiver, p, (m, m), [jordan_block(0, m), _eye(m)])
        else:
            M = Rep(quiver, p, (m, m), [_eye(m), jordan_block(int(lam) % p, m)])
    elif kind == "S":
        M = Rep.simple(quiver, p, cls[1])
    elif kind == "proj":
        M = Rep(quiver, p, *_projective_mats(quiver.n, quiver.arrows, cls[1]))
    elif kind == "inj":
        M = Rep(quiver, p, *_injective_mats(quiver, cls[1]))
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


def _merge_classes(*decomps):
    """Direct sum of concrete decompositions (concatenate and merge)."""
    acc = {}
    for decomp in decomps:
        for cls, mult in decomp:
            acc[cls] = acc.get(cls, 0) + mult
    return sort_classes(acc.items())


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
    return _classify_rows(M.quiver, M.p, M.dims, M.mats)


def _decompose_rows(quiver, p, dims, blocks):
    """`decompose` of the module with dimension vector `dims` (a tuple)
    whose arrow matrices are `blocks` (sequences of Python-int rows in
    [0, p)).

    The `decompose` memo is read, and a miss is stored, under
    `Rep.key_of` of these rows, the key a `Rep` of the same matrices has;
    no `Rep` is built.
    """
    if not any(dims):
        return ()
    key = Rep.key_of(quiver, p, dims, blocks)
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


def _decompose_dynkin(Q, p, dims, blocks):
    """Forward substitution in the order of `_coxeter_walk` against the
    Euler form, skipping a root that does not fit and stopping once dim M
    is used up (see above): one Hom solve per candidate root."""
    left = list(dims)
    found = []  # (class, m_r) of the summands found so far
    for root, X in _coxeter_walk(Q, p).items():
        if not any(left):
            break
        if any(x > y for x, y in zip(root, left)):
            continue
        unknowns, rows = rep.hom_constraint_rows(Q, p, dims, blocks, root, X.mats)
        used = [d - y for d, y in zip(dims, left)]
        mult = unknowns - linalg.rank_rows(rows, unknowns, p) - Q.euler_form(used, root)
        if mult < 0:
            raise ComputationError(f"negative multiplicity {mult} for {root}")
        if mult:
            found.append((("root", root), mult))
            left = [y - mult * x for x, y in zip(root, left)]
    if any(left):
        raise OutsideCatalog("dimension mass not matched by Dynkin catalog")
    return sort_classes(found)


def _pencil_hom(X, Y, rows, cols, d_in, p):
    """cols * d_in - rank of `rows` block rows, row i holding X in block
    column i and Y in block column i + 1 < cols (sequences of Python-int
    rows, lists or tuples)."""
    width = cols * d_in
    mat = []
    for i in range(rows):
        pad = [0] * (i * d_in)
        for x, y in zip(X, Y):
            row = [*pad, *x, *y] if i + 1 < cols else [*pad, *x]
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
    """The smallest prime p such that the tags stay distinct mod p and mod
    every prime above it.  Two values collide mod p exactly when p divides
    their difference, so this is one prime past the largest prime factor of
    a difference.  The smallest admissible prime is not such a floor: tags
    0 and 4 (values 0 and 3) split mod 2 and collide mod 3."""
    largest = 1
    for a, b in itertools.combinations(set(_finite_tag_values(tags)), 2):
        largest = max(largest, _largest_prime_factor(abs(a - b)))
    return next_prime(largest)


def _largest_prime_factor(n):
    """The largest prime factor of n >= 1 (1 for n = 1)."""
    largest, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            largest, n = d, n // d
        d += 1
    return max(largest, n)


def next_prime(p):
    """The smallest prime > p."""
    q = max(p + 1, 2)
    while any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        q += 1
    return q


@memo.memoized(lambda p, count: (p, count))
def primes_from(p, count):
    """`count` consecutive primes starting at the smallest prime >= p, as a
    tuple (memoized; every fit of every sweep asks for its primes again)."""
    out = []
    q = p - 1
    while len(out) < count:
        q = next_prime(q)
        out.append(q)
    return tuple(out)


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
    classes, module and |Aut|) is memoized per id, computed the first time
    it is read.
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

    def aut_count(self, p):
        """|Aut| of `instantiate(p)`."""
        return _symbol_aut_count(self, p)

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


@memo.memoized(lambda sym, p: (sym.id, p))
def _symbol_aut_count(sym, p):
    return aut_count_of_classes(sym.quiver, _concrete_classes(sym, p), p)


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
    """The smallest prime that keeps the tube points of all `symbols`
    distinct: the floor of their exact-check primes."""
    tags = set()
    for s in symbols:
        tags.update(_symbol_tags(s))
    return min_prime_for_tags(tags)


@memo.memoized(lambda primes, floor: (tuple(primes), tuple(map(type, primes)), floor))
def check_primes(primes, floor):
    """Raise ValueError unless `primes` is a nonempty list of prime ints,
    each at least `floor` (`min_prime_for_symbols` of the operands).
    Memoized, as a sweep checks one prime list per instance: a list that
    passes is stored, one that fails raises on every call.  The key holds
    the types, so (3.0,) does not hit the entry of (3,)."""
    if not primes:
        raise ValueError("no primes given")
    for p in primes:
        if not isinstance(p, int) or primes_from(p, 1) != (p,):
            raise ValueError(f"{p} is not prime")
        if p < floor:
            raise ValueError(
                f"prime {p} is below the smallest prime ({floor}) that keeps "
                "the given symbols' tube points distinct"
            )


def simple_projective_vertices(quiver):
    """Vertices whose projective is simple (the sinks)."""
    return quiver.sinks()
