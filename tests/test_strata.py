"""Tests for extension middles and homomorphism strata.

Hand-derived values (1 -> 2 and Kronecker):
  * Ext^1(S_1, S_2) on 1 -> 2 is a line; class 0 gives the split middle,
    each of the p-1 nonzero classes gives P(1).
  * Ext^1(S_1, S_2) on Kronecker is a plane; the middle with cocycle
    (a, b) is the regular R([a:b], 1), so each of the p+1 points of P^1
    receives p-1 classes and the split middle exactly one.
  * An extension with split middle is trivial, so the split class always
    has census count 1.
  * Hom(S_1, S_1) = F_p: the zero map (kernel and cokernel S_1) plus
    p-1 isomorphisms.
"""

import ast
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from hallchar import catalog, linalg, memo, rep, strata, subspaces
from hallchar.catalog import INF, module_from_class
from hallchar.errors import BudgetExceeded, OutsideCatalog
from hallchar.quiver import Quiver, kronecker_quiver, linear_quiver
from hallchar.rep import Rep
from test_rep import (
    _hom_offsets, arrays, cokernel_rep, conjugate, hom_basis, kernel_rep, random_rep,
)
from test_subspaces import K3, ORBIT_QUIVERS, TRIANGLE, catalogue_modules, catalogue_pool, modules

A2 = linear_quiver(2)
A3 = linear_quiver(3)
D4 = Quiver(4, [(0, 1), (2, 1), (1, 3)])
K = kronecker_quiver()


def simple(Q, p, i):
    return rep.Rep.simple(Q, p, i)


def split_middle_classes(X, Y):
    """The decomposition of the split middle X + Y."""
    return catalog.decompose(rep.direct_sum(Y, X))


def hom_census_brute(L1, L2, cap=200000):
    """Oracle: enumerate all of Hom(L1, L2) and classify kernels/cokernels."""
    p = L1.p
    basis = hom_basis(L1, L2)
    h = len(basis)
    if p**h > cap:
        raise BudgetExceeded(f"{p}^{h} maps exceed cap {cap}")
    out = {}
    nv = L1.quiver.n
    zero = [
        np.zeros((L2.dims[i], L1.dims[i]), dtype=np.int64) for i in range(nv)
    ]
    for coeffs in itertools.product(range(p), repeat=h):
        f = [z.copy() for z in zero]
        for c, g in zip(coeffs, basis):
            if c:
                for i in range(nv):
                    f[i] = (f[i] + c * g[i]) % p
        ker = kernel_rep(L1, L2, f)
        cok = cokernel_rep(L1, L2, f)
        key = (catalog.decompose(cok), catalog.decompose(ker))
        out[key] = out.get(key, 0) + 1
    return out


def _cocycle_layout(X, Y):
    """Offsets of vec(d_a) inside the flat cocycle coordinate vector."""
    offsets = []
    pos = 0
    for (s, t) in X.quiver.arrows:
        offsets.append(pos)
        pos += Y.dims[t] * X.dims[s]
    return offsets, pos


def kron_coboundary_matrix(X, Y):
    """Reference: f |-> (Y_a f_s - f_t X_a)_a assembled from np.kron blocks."""
    p = X.p
    c_off, c_total = _cocycle_layout(X, Y)
    f_off, f_total = _hom_offsets(X, Y)
    out = np.zeros((c_total, f_total), dtype=np.int64)
    for a, (s, t) in enumerate(X.quiver.arrows):
        rows = slice(c_off[a], c_off[a] + Y.dims[t] * X.dims[s])
        # vec(Y_a f_s) = (Y_a (x) I) vec(f_s)
        bs = np.kron(arrays(Y)[a], np.eye(X.dims[s], dtype=np.int64))
        out[rows, f_off[s] : f_off[s] + Y.dims[s] * X.dims[s]] += bs
        # vec(f_t X_a) = (I (x) X_a^T) vec(f_t)
        bt = np.kron(np.eye(Y.dims[t], dtype=np.int64), arrays(X)[a].T)
        out[rows, f_off[t] : f_off[t] + Y.dims[t] * X.dims[t]] -= bt
    return out % p


def ext_complement_basis(X, Y):
    """Flat cocycle vectors representing a basis of Ext^1(X, Y)."""
    p = X.p
    _, c_total = _cocycle_layout(X, Y)
    if c_total == 0:
        return np.zeros((c_total, 0), dtype=np.int64)
    cb = kron_coboundary_matrix(X, Y)
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
        m[:yt, : Y.dims[s]] = arrays(Y)[a]
        m[yt:, Y.dims[s] :] = arrays(X)[a]
        if yt and xs:
            m[:yt, Y.dims[s] :] = flat[offsets[a] : offsets[a] + yt * xs].reshape(
                yt, xs
            )
        mats.append(m)
    return Rep(Q, p, dims, mats)


def oracle_middles(X, Y):
    """Oracle: one `Rep` middle per class, one matmul per cocycle on the
    numpy complement basis, in `itertools.product` order."""
    basis = ext_complement_basis(X, Y)
    for coeffs in itertools.product(range(X.p), repeat=basis.shape[1]):
        yield middle_from_cocycle(X, Y, (basis @ np.array(coeffs, dtype=np.int64)) % X.p)


def ext_census_oracle(X, Y, budget=strata.DEFAULT_EXT_BUDGET):
    """Oracle: the extension census with every middle built as a `Rep`
    and classified by `decompose`."""
    if X.p ** ext_complement_basis(X, Y).shape[1] > budget:
        raise BudgetExceeded("extension classes exceed budget")
    census = {}
    for mid in oracle_middles(X, Y):
        key = catalog.decompose(mid)
        census[key] = census.get(key, 0) + 1
    return census


def row_middles(X, Y):
    """The middles of every cocycle on the free coordinates, as arrow-matrix
    rows, in `itertools.product` order: the full affine enumeration."""
    free = strata._free_coordinates(X, Y)
    middle = strata._middle_rows(X, Y, free)
    return [middle(values) for values in itertools.product(range(X.p), repeat=len(free))]


def row_lists(M):
    """M's arrow matrices as lists of row lists, the form of `row_middles`."""
    return [[list(row) for row in m] for m in M.mats]


def _result(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared across paths, never swallowed
        return type(exc)


def test_ext_middle_census_a2():
    for p in (2, 3, 5):
        X, Y = simple(A2, p, 0), simple(A2, p, 1)
        census = strata.ext_middle_census(X, Y)
        split = ((("root", (0, 1)), 1), (("root", (1, 0)), 1))
        glued = ((("root", (1, 1)), 1),)
        assert census == {split: 1, glued: p - 1}
        # reverse direction has no extensions
        assert strata.ext_middle_census(Y, X) == {split: 1}


def test_ext_middle_census_total_mass():
    p = 3
    cases = [
        (simple(A2, p, 0), simple(A2, p, 1)),
        (module_from_class(A2, ("root", (1, 1)), p), simple(A2, p, 0)),
        (simple(K, p, 0), simple(K, p, 1)),
        (
            module_from_class(K, ("Rc", 0, 1), p),
            module_from_class(K, ("Rc", 0, 1), p),
        ),
    ]
    for X, Y in cases:
        census = strata.ext_middle_census(X, Y)
        assert sum(census.values()) == p ** rep.ext1_dim(X, Y)
        # Miyata: only the trivial class has split middle
        assert census.get(split_middle_classes(X, Y), 0) == 1


def test_ext_middle_census_kronecker_tubes():
    p = 3
    X, Y = simple(K, p, 0), simple(K, p, 1)  # Ext is 2-dimensional
    census = strata.ext_middle_census(X, Y)
    split = ((("P", 0), 1), (("I", 0), 1))
    assert census[split] == 1
    points = [0, 1, 2, INF]
    for lam in points:
        assert census[((("Rc", lam, 1), 1),)] == p - 1
    assert len(census) == 1 + len(points)


def test_middle_from_cocycle_kronecker():
    """The rows middles are the numpy oracle's matrices, cocycle by cocycle
    in the same order, so they share its `decompose` memo keys."""
    p = 5
    X, Y = simple(K, p, 0), simple(K, p, 1)
    basis = ext_complement_basis(X, Y)
    assert basis.shape == (2, 2)
    lam = 3
    flat = np.array([1, lam], dtype=np.int64)  # A = 1, B = lam
    mid = middle_from_cocycle(X, Y, flat)
    assert catalog.decompose(mid) == ((("Rc", lam, 1), 1),)
    blocks = row_middles(X, Y)
    assert len(blocks) == p**2
    assert blocks == [row_lists(M) for M in oracle_middles(X, Y)]
    assert catalog._decompose_rows(K, p, mid.dims, blocks[1 * p + lam]) == catalog.decompose(mid)
    # the middle always contains Y as a subrep with quotient X
    self_ext = module_from_class(K, ("Rc", 0, 1), p)
    basis2 = ext_complement_basis(self_ext, self_ext)
    assert basis2.shape[1] == 1  # dim Ext^1(R, R) = 1
    mid2 = middle_from_cocycle(self_ext, self_ext, basis2[:, 0])
    assert catalog.decompose(mid2) == ((("Rc", 0, 2), 1),)
    blocks2 = row_middles(self_ext, self_ext)
    assert blocks2 == [row_lists(M) for M in oracle_middles(self_ext, self_ext)]
    assert catalog._decompose_rows(K, p, mid2.dims, blocks2[1]) == ((("Rc", 0, 2), 1),)


def test_ext_complement_with_nontrivial_coboundaries():
    p = 3
    P1 = module_from_class(A2, ("root", (1, 1)), p)
    # C^1 is one-dimensional but entirely coboundaries: Ext^1(P(1), P(1)) = 0
    assert strata._free_coordinates(P1, P1) == []
    assert ext_complement_basis(P1, P1).shape == (1, 0)
    assert strata.ext_middle_census(P1, P1) == {
        ((("root", (1, 1)), 2),): 1
    }


def test_ext_budget():
    p = 5
    M = rep.direct_sum(*[simple(K, p, 0)] * 3)
    N = rep.direct_sum(*[simple(K, p, 1)] * 3)
    with pytest.raises(BudgetExceeded):
        strata.ext_middle_census(M, N, budget=100)  # 5^18 classes


@pytest.fixture
def ext1_calls(monkeypatch):
    """Count the dim Ext^1 cross-checks, which run on memo misses only."""
    calls = []
    real = rep.ext1_dim

    def counting(X, Y):
        calls.append(1)
        return real(X, Y)

    monkeypatch.setattr(rep, "ext1_dim", counting)
    return calls


def test_ext_memo_hit_equals_cold_census(ext1_calls):
    p = 3
    X = module_from_class(K, ("Rc", 0, 1), p)
    Y = rep.direct_sum(simple(K, p, 1), module_from_class(K, ("Rc", 0, 1), p))
    memo.clear()
    cold = strata.ext_middle_census(X, Y)
    assert len(ext1_calls) == 1
    hit = strata.ext_middle_census(X, Y)
    assert len(ext1_calls) == 1
    assert hit == cold
    # an equal copy of X hits the same entry: the key is the exact matrices
    again = rep.Rep(K, p, X.dims, row_lists(X))
    assert strata.ext_middle_census(again, Y) == cold
    assert len(ext1_calls) == 1
    memo.clear()
    assert strata.ext_middle_census(X, Y) == cold
    assert len(ext1_calls) == 2


def test_ext_memo_hit_keeps_budget(ext1_calls):
    p = 3
    X, Y = simple(K, p, 0), simple(K, p, 1)  # 3^2 extension classes
    memo.clear()
    with pytest.raises(BudgetExceeded) as cold:
        strata.ext_middle_census(X, Y, budget=8)
    assert strata.ext_middle_census(X, Y, budget=9) == strata.ext_middle_census(X, Y)
    calls = len(ext1_calls)
    with pytest.raises(BudgetExceeded) as hit:
        strata.ext_middle_census(X, Y, budget=8)
    assert len(ext1_calls) == calls
    assert str(hit.value) == str(cold.value)


def test_clear_census_cache_clears_ext_memo():
    p = 2
    X, Y = simple(A2, p, 0), simple(A2, p, 1)
    strata.ext_middle_census(X, Y)
    assert memo.TABLES["strata._ext_census"]
    memo.clear()
    assert not memo.TABLES["strata._ext_census"]


def test_hom_census_simple():
    for p in (2, 5):
        S = simple(A2, p, 0)
        census = strata.hom_census(S, S)
        s1 = ((("root", (1, 0)), 1),)
        assert census == {
            (s1, s1): 1,  # zero map
            ((), ()): p - 1,  # isomorphisms
        }


def test_hom_census_matches_brute_force():
    p = 2
    P1 = module_from_class(A2, ("root", (1, 1)), p)
    S1 = simple(A2, p, 0)
    cases_a2 = [
        (P1, S1),
        (S1, P1),
        (rep.direct_sum(P1, S1), P1),
        (P1, rep.direct_sum(S1, simple(A2, p, 1))),
    ]
    for L1, L2 in cases_a2:
        assert strata.hom_census(L1, L2) == hom_census_brute(L1, L2)
    r0 = module_from_class(K, ("Rc", 0, 1), p)
    i0 = module_from_class(K, ("I", 0), p)
    p0 = module_from_class(K, ("P", 0), p)
    cases_k = [
        (r0, r0),
        (rep.direct_sum(p0, i0), r0),
        (r0, rep.direct_sum(p0, i0)),
        (module_from_class(K, ("P", 1), p), rep.direct_sum(r0, i0)),
    ]
    for L1, L2 in cases_k:
        assert strata.hom_census(L1, L2) == hom_census_brute(L1, L2)


def test_hom_census_total_mass():
    p = 3
    P1 = module_from_class(A2, ("root", (1, 1)), p)
    M = rep.direct_sum(P1, simple(A2, p, 0))
    for L1, L2 in [(M, M), (M, P1), (P1, M)]:
        census = strata.hom_census(L1, L2)
        assert sum(census.values()) == p ** rep.hom_dim(L1, L2)


def test_hom_census_a3():
    p = 2
    P2 = catalog.parse_symbol("P2", A3).instantiate(p)
    I2 = catalog.parse_symbol("I2", A3).instantiate(p)
    assert strata.hom_census(P2, I2) == hom_census_brute(P2, I2)


@pytest.mark.parametrize(
    "quiver",
    [A3, K, D4],
    ids=["a3", "kronecker", "d4"],
)
@pytest.mark.parametrize("p", [2, 3, 5])
def test_coboundary_matrix_matches_kronecker_form(quiver, p):
    """The free cocycle coordinates, read off `rep.hom_constraint_rows`, are
    the non-pivot columns of the row-reduced transpose of the np.kron
    coboundary matrix: their unit vectors are the oracle's complement
    basis, and there are dim Ext^1 of them."""
    rng = np.random.default_rng(10 + p)
    zero_seen = False
    for _ in range(40):
        d = tuple(int(x) for x in rng.integers(0, 4, size=quiver.n))
        e = tuple(int(x) for x in rng.integers(0, 4, size=quiver.n))
        zero_seen |= 0 in d + e
        X = random_rep(quiver, d, p, rng)
        Y = random_rep(quiver, e, p, rng)
        free = strata._free_coordinates(X, Y)
        units = np.zeros((kron_coboundary_matrix(X, Y).shape[0], len(free)), dtype=np.int64)
        units[free, range(len(free))] = 1
        assert np.array_equal(ext_complement_basis(X, Y), units)
        assert len(free) == rep.ext1_dim(X, Y)
    assert zero_seen


@st.composite
def module_pairs(draw):
    """(X, Y) over A_3, D_4 or Kronecker at p in {2, 3, 5}, random matrices
    of total dimension at most 3 each."""
    Q = draw(st.sampled_from([A3, D4, K]))
    p = draw(st.sampled_from([2, 3, 5]))

    def module():
        dims = draw(
            st.lists(st.integers(0, 2), min_size=Q.n, max_size=Q.n).filter(lambda d: sum(d) <= 3)
        )
        mats = []
        for s, t in Q.arrows:
            size = dims[t] * dims[s]
            entries = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
            mats.append(np.array(entries, dtype=np.int64).reshape(dims[t], dims[s]))
        return rep.Rep(Q, p, dims, mats)

    return module(), module()


@settings(max_examples=80, deadline=None)
@given(module_pairs())
def test_ext_census_matches_numpy_oracle(pair):
    """From cold memos, the rows census equals the census of `Rep` middles
    built on the numpy complement basis, dict and key order alike,
    exceptions included."""
    X, Y = pair
    budget = 625
    memo.clear()
    got = _result(strata.ext_middle_census, X, Y, budget)
    memo.clear()
    want = _result(ext_census_oracle, X, Y, budget)
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got.items()) == list(want.items())
    else:
        assert got == want


def test_ext_middle_outside_catalog_raises_and_stores_nothing():
    """Over F_2 one middle of Ext^1(I_1, P_0) is the Kronecker module at the
    degree-2 point x^2 + x + 1: the census raises on every call and stores
    nothing in its memo."""
    p = 2
    X, Y = module_from_class(K, ("I", 1), p), module_from_class(K, ("P", 0), p)
    memo.clear()
    for _ in range(2):
        with pytest.raises(OutsideCatalog):
            strata.ext_middle_census(X, Y)
    assert not memo.TABLES["strata._ext_census"]


def test_ext_census_miss_builds_no_rep(monkeypatch):
    """An Ext census miss classifies every middle from Python-int rows: no
    `Rep` is constructed."""
    p = 3
    cases = [
        (simple(K, p, 0), simple(K, p, 1)),
        (module_from_class(K, ("Rc", 0, 1), p), module_from_class(K, ("P", 1), p)),
        (catalog.parse_symbol("I2", A3).instantiate(p), catalog.parse_symbol("P2", A3).instantiate(p)),
        (simple(D4, p, 1), rep.direct_sum(simple(D4, p, 0), simple(D4, p, 3))),
    ]
    memo.clear()
    for X, Y in cases:
        catalog.decompose(X)  # the per-(quiver, p) classifier data
    built = []
    real = Rep.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Rep, "__init__", counting)
    for X, Y in cases:
        assert sum(strata.ext_middle_census(X, Y).values()) > 1
    assert built == []


def test_strata_imports_neither_numpy_nor_rep():
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(strata))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {alias.name for alias in node.names}
    assert "numpy" not in imported and "Rep" not in imported
    assert not hasattr(strata, "np") and not hasattr(strata, "Rep")


def affine_ext_census(X, Y):
    """Oracle: the extension census counted over every cocycle on the free
    coordinates, in `itertools.product` order, each middle classified
    from its rows."""
    dims = tuple(y + x for y, x in zip(Y.dims, X.dims))
    census = {}
    for blocks in row_middles(X, Y):
        key = catalog._decompose_rows(X.quiver, X.p, dims, blocks)
        census[key] = census.get(key, 0) + 1
    return census


@st.composite
def catalogue_pairs(draw, quivers=ORBIT_QUIVERS, primes=(2, 3, 5, 7), max_total=3, max_classes=2500):
    """(X, Y): two `catalogue_modules` over one quiver and prime, with at
    most `max_classes` extension classes."""
    Q = draw(st.sampled_from(quivers))
    p = draw(st.sampled_from(primes))
    X = draw(catalogue_modules([Q], [p], max_total))
    Y = draw(catalogue_modules([Q], [p], max_total))
    assume(p ** rep.ext1_dim(X, Y) <= max_classes)
    return X, Y


@settings(max_examples=150, deadline=None)
@given(catalogue_pairs())
def test_orbit_ext_census_matches_affine_enumeration(pair):
    """From cold memos, the census over torus orbits equals the census over
    every cocycle, items and key order included, and its mass is
    p^{dim Ext^1}."""
    X, Y = pair
    memo.clear()
    got = _result(strata.ext_middle_census, X, Y)
    memo.clear()
    want = _result(affine_ext_census, X, Y)
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got.items()) == list(want.items())
        assert sum(got.values()) == X.p ** rep.ext1_dim(X, Y)
    else:
        assert got == want


@st.composite
def indecomposable_pairs(draw):
    """(X, Y): indecomposable catalogue modules with dims <= 2 per vertex
    over one quiver and prime p in {3, 5, 7}, each in the catalogue's
    basis or a `conjugate` copy, with at most 2500 extension classes."""
    Q = draw(st.sampled_from(ORBIT_QUIVERS))
    p = draw(st.sampled_from([3, 5, 7]))
    pool = []
    for sym in catalogue_pool(Q):
        if sym.admissible_prime(p):
            classes = sym.concrete_classes(p)
            if len(classes) == 1 and classes[0][1] == 1:
                pool.append(sym)

    def module():
        M = draw(st.sampled_from(pool)).instantiate(p)
        if draw(st.booleans()):
            M = conjugate(M, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        return M

    X, Y = module(), module()
    assume(p ** rep.ext1_dim(X, Y) <= 2500)
    return X, Y


@settings(max_examples=60, deadline=None)
@given(indecomposable_pairs())
def test_orbit_cocycles_of_indecomposables_are_projective_points(pair):
    """An indecomposable module's coefficient quiver is connected in every
    basis, so for indecomposable X and Y the torus acts on Ext^1(X, Y) by
    one scalar: the walk keeps 0 and the cocycle of each point of
    P(Ext^1) whose first nonzero value is 1, each counted p - 1 times."""
    X, Y = pair
    p = X.p
    free = strata._free_coordinates(X, Y)
    d = len(free)
    values, walk = strata._orbit_cocycles(X, Y, free)
    points = [(tuple(values), size) for size in walk]
    assert len(points) == 1 + (p**d - 1) // (p - 1)
    assert points[0] == ((0,) * d, 1)
    for values, size in points[1:]:
        assert size == p - 1
        assert next(v for v in values if v) == 1


def test_orbit_cocycles_kronecker_simples():
    """Ext^1(S_1, S_2) on Kronecker at p = 5: the zero class and the six
    points of P^1, [0 : 1] and [1 : x] for x in F_5."""
    p = 5
    X, Y = simple(K, p, 0), simple(K, p, 1)
    free = strata._free_coordinates(X, Y)
    values, walk = strata._orbit_cocycles(X, Y, free)
    assert [(tuple(values), size) for size in walk] == [((0, 0), 1), ((0, 1), 4)] + [
        ((1, x), 4) for x in range(p)
    ]


def torus_orbits(X, Y, free):
    """Oracle: the orbits of the torus (F_p^*)^k, one t per component of
    the coefficient quivers of Y and X, on the cocycles supported on the
    free coordinates, as sets of value tuples.  t acts by d_a -> g_t d_a
    h_s^-1, with g and h the diagonal automorphisms of Y and X that scale
    each basis vector by the t of its component (checked to commute with
    every arrow); the orbits are closed under one generator per component,
    which scales that component by a primitive root."""
    Q, p = X.quiver, X.p
    y_labels, k_y = rep.coefficient_components(Q, Y.dims, Y.mats)
    x_labels, k_x = rep.coefficient_components(Q, X.dims, X.mats)
    offsets, total = _cocycle_layout(X, Y)
    root = next(g for g in range(2, p) if len({pow(g, i, p) for i in range(p - 1)}) == p - 1)

    def act(t, values):
        g = [[t[c] for c in labels] for labels in y_labels]
        h = [[t[k_y + c] for c in labels] for labels in x_labels]
        for M, diag in ((Y, g), (X, h)):
            for (s, u), mat in zip(Q.arrows, M.mats):
                assert all(
                    (diag[u][r] * x - x * diag[s][c]) % p == 0
                    for r, row in enumerate(mat) for c, x in enumerate(row)
                )
        flat = [0] * total
        for j, v in zip(free, values):
            flat[j] = v
        out = [0] * total
        for a, (s, u) in enumerate(Q.arrows):
            for r in range(Y.dims[u]):
                for c in range(X.dims[s]):
                    j = offsets[a] + r * X.dims[s] + c
                    out[j] = g[u][r] * flat[j] * pow(h[s][c], -1, p) % p
        assert not any(out[j] for j in set(range(total)) - set(free))
        return tuple(out[j] for j in free)

    generators = []
    for comp in range(k_y + k_x):
        t = [1] * (k_y + k_x)
        t[comp] = root
        generators.append(t)
    orbits, seen = [], set()
    for values in itertools.product(range(p), repeat=len(free)):
        if values in seen:
            continue
        orbit, todo = {values}, [values]
        while todo:
            point = todo.pop()
            for t in generators:
                image = act(t, point)
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        seen |= orbit
        orbits.append(orbit)
    return orbits


@settings(max_examples=180, deadline=None)
@given(st.data())
def test_orbit_cocycles_are_the_first_point_of_each_torus_orbit(data):
    """For any X and Y, split, random or over a quiver no classifier
    covers, at p in {3, 5}: the Ext walk keeps exactly the
    lexicographically first cocycle of each torus orbit, each counted with
    its orbit's size, p^{dim Ext^1} in all.  Pairs with Ext^1 = 0, about
    two draws in three, walk the zero cocycle alone; only pairs with more
    than 625 cocycles, which the brute-force orbits cannot list, are left
    out (about one draw in thirty)."""
    Q = data.draw(st.sampled_from([A3, D4, K, K3, TRIANGLE]))
    p = data.draw(st.sampled_from([3, 5]))
    X, Y = (data.draw(modules([Q], [p], max_dim=2, max_total=3)) for _ in range(2))
    free = strata._free_coordinates(X, Y)
    assume(p ** len(free) <= 625)
    values, walk = strata._orbit_cocycles(X, Y, free)
    kept = [(tuple(values), size) for size in walk]
    assert kept == sorted((min(orbit), len(orbit)) for orbit in torus_orbits(X, Y, free))
    assert sum(size for _, size in kept) == p ** len(free)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_riedtmann_formula(data):
    """Riedtmann's formula, F^L_{XY} |Aut X| |Aut Y| p^{hom(X, Y)} =
    |Ext^1(X, Y)_L| |Aut L|, for catalogue X and Y over A_3 and Kronecker
    and every middle L: the Hall number F^L_{XY} (subreps of L iso Y with
    quotient iso X) is read off `hall_census`, which walks subspaces, and
    |Ext^1(X, Y)_L| off `ext_middle_census`, which walks cocycles."""
    X, Y = data.draw(catalogue_pairs(quivers=[A3, K], primes=(2, 3, 5), max_total=3))
    Q, p = X.quiver, X.p
    cx, cy = catalog.decompose(X), catalog.decompose(Y)
    side = (
        catalog.aut_count_of_classes(Q, cx, p)
        * catalog.aut_count_of_classes(Q, cy, p)
        * p ** rep.hom_dim(X, Y)
    )
    try:
        ext = strata.ext_middle_census(X, Y)
        halls = {
            classes: subspaces.hall_census(
                catalog.module_from_classes(Q, classes, p), Y.dims
            ).get((cx, cy), 0)
            for classes in ext
        }
    except OutsideCatalog:
        # a Kronecker middle, sub or quotient at a tube point of degree 2
        reject()
    assert sum(ext.values()) == p ** rep.ext1_dim(X, Y)
    for classes, count in ext.items():
        assert halls[classes] * side == count * catalog.aut_count_of_classes(Q, classes, p)
