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

which contains Y as a subrepresentation with quotient X.  B^1 is the
column span of the Hom constraint matrix of (X, Y) (`rep.hom_constraint_rows`,
one row per cocycle coordinate), so the unit vectors at the non-pivot
columns of its row-reduced transpose, the free coordinates, span a
complement of B^1: one cocycle per class is a choice of values at the free
coordinates and 0 elsewhere.  Each middle is built as Python-int rows,
the format of `Rep.mats`, and classified by `catalog._decompose_rows`
under `Rep.key_of` of those rows, so no `Rep` is built per cocycle and a
middle shares its `decompose` memo entry with any `Rep` of the same
matrices.  Counting the
middles by class yields the extension census

    ext_middle_census(X, Y)[middle_classes] = #{e in Ext^1(X,Y) : mid(e) iso}

whose total mass is p^{dim Ext^1(X, Y)}.  The class e = 0 contributes the
split middle.

The census is walked one torus orbit at a time by the walker of the Hall
census and the Grassmannian count (`subspaces._torus_walk`, where the
argument is written).  Scaling each component of the coefficient quivers
of Y and X (`rep.coefficient_components`) gives automorphisms g of Y and
h of X, and d -> g d h^-1 keeps the middle's class (diag(g, h) is an
isomorphism of the middles).  It multiplies the free coordinate d_a[x][y]
by t_comp(row x of Y) / t_comp(column y of X), so it keeps the
complement: each free coordinate is a slot with choices F_p, and value v
is the one entry (row of Y, column of X, v).  The census keeps the full
enumeration's items, key order and total mass.  For X and Y with one
component each, every indecomposable in any basis, the walk keeps 0 and
one cocycle per point of P(Ext^1), the first nonzero value being 1.

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

from . import catalog, linalg, memo, rep, subspaces
from .errors import BudgetExceeded, VerificationMismatch

DEFAULT_EXT_BUDGET = 1_000_000


def _free_coordinates(X, Y):
    """The free flat cocycle coordinates (vec(d_a), row-major, arrow by
    arrow), increasing: those whose unit vectors span a complement of B^1.

    `rep.hom_constraint_rows(X, Y)` has one row per cocycle coordinate in
    this layout, and its columns span B^1 (the coboundary map is its
    negative), so the free coordinates are the non-pivot columns of its
    row-reduced transpose.
    """
    _, rows = rep.hom_constraint_rows(X.quiver, X.p, X.dims, X.mats, Y.dims, Y.mats)
    pivots = set(linalg._rref_rows([list(col) for col in zip(*rows)], len(rows), X.p))
    return [j for j in range(len(rows)) if j not in pivots]


def _middle_rows(X, Y, free):
    """The function that takes the values of a cocycle at the free
    coordinates (0 elsewhere) to the arrow matrices, as lists of
    Python-int rows, of its middle term."""
    arrows, pos = [], 0
    for (s, _), Xa, Ya in zip(X.quiver.arrows, X.mats, Y.mats):
        # rows of Y_a as lists, where d_a starts in the flat cocycle, its
        # width, [0 X_a]
        bottom = [[0] * Y.dims[s] + list(row) for row in Xa]
        arrows.append(([list(row) for row in Ya], pos, X.dims[s], bottom))
        pos += len(Ya) * X.dims[s]
    flat = [0] * pos

    def middle(coeffs):
        for j, v in zip(free, coeffs):
            flat[j] = v
        return [
            [row + flat[at + x * w : at + x * w + w] for x, row in enumerate(Ya)] + bottom
            for Ya, at, w, bottom in arrows
        ]

    return middle


def _cocycle_ends(X, Y, free):
    """(ends, k): ends[j] is the pair of torus components that the free
    coordinate free[j] joins, the component of its row's basis vector of
    Y and that of its column's basis vector of X (numbered after Y's), and
    k is the number of components of Y and X together."""
    y_labels, k_y = rep.coefficient_components(Y.quiver, Y.dims, Y.mats)
    x_labels, k_x = rep.coefficient_components(X.quiver, X.dims, X.mats)
    ends = []
    for (s, t) in X.quiver.arrows:
        for x in range(Y.dims[t]):
            ends.extend((y_labels[t][x], k_y + x_labels[s][y]) for y in range(X.dims[s]))
    return [ends[j] for j in free], k_y + k_x


def _orbit_cocycles(X, Y, free):
    """(values, walk): the generator `walk` yields the size of each torus
    orbit on the cocycles supported on the free coordinates, with the list
    `values` holding the values of its first cocycle, in
    `itertools.product` order (see above)."""
    p, d = X.p, len(free)
    values, choices = [0] * d, range(p)
    entries, k = [None] * d, 0
    # with no free coordinate there is nothing to scale
    if p > 2 and free:
        ends, k = _cocycle_ends(X, Y, free)
        scalar = [()] + [((0, 1, v),) for v in range(1, p)]
        entries = [(pair, scalar) for pair in ends]
    return values, subspaces._torus_walk(range(d), values, lambda j: choices, entries, k, p)


def ext_middle_census(X, Y, budget=DEFAULT_EXT_BUDGET):
    """{middle_classes: #extension classes}, total mass p^{dim Ext^1}.

    Memoized, like `catalog.decompose`, on the exact matrices of X and Y
    (`Rep.key`), in a table of its own that `memo.clear()` empties.  The
    key leaves out the budget, and budget and cross-check behave as
    without the memo: a hit raises `BudgetExceeded` when p^{dim Ext^1}
    exceeds `budget`, exactly as a fresh call would, and every miss checks
    the number of free cocycle coordinates against dim Ext^1 from the
    Euler form.  Callers must not mutate the returned dict.
    """
    e_dim, census = _ext_census(X, Y, budget)
    _check_ext_budget(X.p, e_dim, budget)
    return census


@memo.memoized(lambda X, Y, budget: (X.key, Y.key))
def _ext_census(X, Y, budget):
    """(dim Ext^1(X, Y), extension census), memoized without the budget."""
    Q, p = X.quiver, X.p
    free = _free_coordinates(X, Y)
    e_dim = len(free)
    expected = rep.ext1_dim(X, Y)
    if e_dim != expected:
        raise VerificationMismatch(
            f"cocycle complement dimension {e_dim} != dim Ext^1 = {expected}"
        )
    _check_ext_budget(p, e_dim, budget)
    # a tuple, so the decompose memo key is the middle's `Rep.key`
    dims = tuple(y + x for y, x in zip(Y.dims, X.dims))
    middle = _middle_rows(X, Y, free)
    census = {}
    values, walk = _orbit_cocycles(X, Y, free)
    for size in walk:
        key_mid = catalog._decompose_rows(Q, p, dims, middle(values))
        census[key_mid] = census.get(key_mid, 0) + size
    return e_dim, census


def _check_ext_budget(p, e_dim, budget):
    if p**e_dim > budget:
        raise BudgetExceeded(f"{p}^{e_dim} extension classes exceed budget")


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
