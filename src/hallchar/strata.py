"""Extension and homomorphism strata: exact counts grouped by iso class.

Extensions
----------
For representations X, Y the space of 1-cocycles is

    C^1 = prod_{arrows a: s->t} Hom(X_s, Y_t),

inside which the coboundaries B^1 are the image of prod_i Hom(X_i, Y_i)
under f |-> (Y_a f_s - f_t X_a)_a; then Ext^1(X, Y) = C^1 / B^1.  The
middle term of the extension with cocycle d is the representation L with
L_i = Y_i + X_i and block matrices

    L_a = [[ Y_a, d_a ],
           [  0 , X_a ]],

which contains Y as a subrepresentation with quotient X.  Enumerating one
cocycle per class (a basis of a complement of B^1) and decomposing the
middles yields the extension census

    ext_middle_census(X, Y)[middle_classes] = #{e in Ext^1(X,Y) : mid(e) iso}

whose total mass is p^{dim Ext^1(X, Y)}.  The class e = 0 contributes the
split middle.

Homomorphisms
-------------
The homomorphism census counts maps g: L1 -> L2 by the pair
(class of Coker g, class of Ker g).  Every g factors through its image W,
and for a fixed iso class of W the maps with Ker g iso Y and Coker g iso X
split into a choice of kernel (a subrep of L1 with quotient class W), a
choice of image (a subrep of L2 with cokernel class X), and an isomorphism
L1/Ker -> W -> Image, counted by |Aut W|:

    #{g : Coker iso X, Ker iso Y}
        = sum_W  g^{L1}_{W, Y} * g^{L2}_{X, W} * |Aut W|.

This reduces homomorphism strata to the (cached) Hall censuses instead of
enumerating p^{dim Hom} maps; the tests keep a brute-force enumeration as
a cross-check oracle.
"""

import itertools

import numpy as np

from . import catalog, linalg, memo, rep, subspaces
from .errors import BudgetExceeded, VerificationMismatch
from .rep import Rep

DEFAULT_EXT_BUDGET = 1_000_000


def _cocycle_layout(X, Y):
    """Offsets of vec(d_a) inside the flat cocycle coordinate vector."""
    offsets = []
    pos = 0
    for (s, t) in X.quiver.arrows:
        offsets.append(pos)
        pos += Y.dims[t] * X.dims[s]
    return offsets, pos


def coboundary_matrix(X, Y):
    """Matrix of f |-> (Y_a f_s - f_t X_a)_a in flat coordinates.

    Columns are indexed by the stacked vec(f_i), rows by the stacked
    vec(d_a); row-major vec throughout, as in the Hom solver.  The map is
    the negative of the Hom constraint f |-> (f_t X_a - Y_a f_s)_a, whose
    matrix has this row and column layout.
    """
    return (-rep.hom_constraint_matrix(X, Y)) % X.p


def ext_complement_basis(X, Y):
    """Flat cocycle vectors representing a basis of Ext^1(X, Y)."""
    p = X.p
    _, c_total = _cocycle_layout(X, Y)
    if c_total == 0:
        return np.zeros((c_total, 0), dtype=np.int64)
    cb = coboundary_matrix(X, Y)
    if cb.shape[1] == 0:
        span_pivots = set()
    else:
        B = np.ascontiguousarray(cb.T % p)
        r, pivots = linalg.rref_mod(B, p)
        span_pivots = {int(pivots[i]) for i in range(r)}
    free = [j for j in range(c_total) if j not in span_pivots]
    out = np.zeros((c_total, len(free)), dtype=np.int64)
    for k, j in enumerate(free):
        out[j, k] = 1
    return out


def middle_from_cocycle(X, Y, flat):
    """The middle term of the extension of X by Y with the given cocycle."""
    Q, p = X.quiver, X.p
    offsets, _ = _cocycle_layout(X, Y)
    dims = [Y.dims[i] + X.dims[i] for i in range(Q.n)]
    mats = []
    for a, (s, t) in enumerate(Q.arrows):
        m = np.zeros((dims[t], dims[s]), dtype=np.int64)
        yt, xs = Y.dims[t], X.dims[s]
        m[:yt, : Y.dims[s]] = Y.mats[a]
        m[yt:, Y.dims[s] :] = X.mats[a]
        if yt and xs:
            m[:yt, Y.dims[s] :] = flat[offsets[a] : offsets[a] + yt * xs].reshape(
                yt, xs
            )
        mats.append(m)
    return Rep(Q, p, dims, mats)


def ext_middle_census(X, Y, budget=DEFAULT_EXT_BUDGET):
    """{middle_classes: #extension classes}, total mass p^{dim Ext^1}.

    Memoized, like `catalog.decompose`, on the exact matrices of X and Y
    (`Rep.key`), in a table of its own that `memo.clear()` empties.  The
    key leaves out the budget, and budget and cross-check behave as
    without the memo: a hit raises `BudgetExceeded` when p^{dim Ext^1}
    exceeds `budget`, exactly as a fresh call would, and every miss checks
    the cocycle complement against dim Ext^1 from the Euler form.  Callers
    must not mutate the returned dict.
    """
    e_dim, census = _ext_census(X, Y, budget)
    _check_ext_budget(X.p, e_dim, budget)
    return census


@memo.memoized(lambda X, Y, budget: (X.key, Y.key))
def _ext_census(X, Y, budget):
    """(dim Ext^1(X, Y), extension census), memoized without the budget."""
    p = X.p
    basis = ext_complement_basis(X, Y)
    e_dim = basis.shape[1]
    expected = rep.ext1_dim(X, Y)
    if e_dim != expected:
        raise VerificationMismatch(
            f"cocycle complement dimension {e_dim} != dim Ext^1 = {expected}"
        )
    _check_ext_budget(p, e_dim, budget)
    census = {}
    for coeffs in itertools.product(range(p), repeat=e_dim):
        flat = (basis @ np.array(coeffs, dtype=np.int64)) % p if e_dim else np.zeros(
            basis.shape[0], dtype=np.int64
        )
        mid = middle_from_cocycle(X, Y, flat)
        key_mid = catalog.decompose(mid)
        census[key_mid] = census.get(key_mid, 0) + 1
    return e_dim, census


def _check_ext_budget(p, e_dim, budget):
    if p**e_dim > budget:
        raise BudgetExceeded(f"{p}^{e_dim} extension classes exceed budget")


def split_middle_classes(X, Y):
    """The decomposition of the split middle X + Y."""
    return catalog.decompose(rep.direct_sum(Y, X))


# ---------------------------------------------------------------------------
# homomorphism strata
# ---------------------------------------------------------------------------


def hom_census(L1, L2, budget=subspaces.DEFAULT_SUBSPACE_BUDGET):
    """{(coker_classes, ker_classes): #maps L1 -> L2 in that stratum}.

    Total mass is p^{dim Hom(L1, L2)}.
    """
    Q, p = L1.quiver, L1.p
    out = {}
    n = Q.n
    for r in itertools.product(*[range(min(L1.dims[i], L2.dims[i]) + 1) for i in range(n)]):
        ker_dims = tuple(L1.dims[i] - r[i] for i in range(n))
        c1 = subspaces.hall_census(L1, ker_dims, budget=budget)
        c2 = subspaces.hall_census(L2, r, budget=budget)
        if not c1 or not c2:
            continue
        # join on the image class W: quotient side of c1, sub side of c2
        by_w1 = {}
        for (w, y), cnt in c1.items():
            by_w1.setdefault(w, []).append((y, cnt))
        for (x, w), cnt2 in c2.items():
            if w not in by_w1:
                continue
            aut_w = catalog.aut_count_of_classes(Q, w, p)
            for y, cnt1 in by_w1[w]:
                key = (x, y)
                out[key] = out.get(key, 0) + cnt1 * cnt2 * aut_w
    return out
