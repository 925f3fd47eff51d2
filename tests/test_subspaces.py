"""Tests for subspace/subrepresentation enumeration and Hall censuses.

Hand-derived values:
  * P(1) on 1 -> 2 has exactly one subrep of dim (0,1) (the socle) and
    none of dim (1,0) (the vertex-1 line is not arrow-stable).
  * Gr_{(1,1)}(P(1)^2) is a projective line: p + 1 points.
  * L = R(0,1) + R(1,1) on Kronecker has exactly two subreps of dim (1,1):
    each regular summand, with the other as quotient.
"""

import itertools
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hallchar import catalog, linalg, memo, rep, subspaces
from hallchar.errors import BudgetExceeded
from hallchar.quiver import Quiver, kronecker_quiver, linear_quiver

A2 = linear_quiver(2)
A3 = linear_quiver(3)
A3_SINK = Quiver(3, [(0, 1), (2, 1)])
A3_SOURCE = Quiver(3, [(1, 0), (1, 2)])
D4 = Quiver(4, [(0, 1), (2, 1), (1, 3)])
D4_SINK = Quiver(4, [(0, 3), (1, 3), (2, 3)])
K = kronecker_quiver()


def grassmannian_count_brute(M, e):
    """Reference count: every tuple of subspaces of dimension e, kept when
    each arrow image lies in the target subspace by rank, so it shares no
    code with the echelon containment check that `subspaces` uses."""
    p = M.p
    per_vertex = [list(subspaces.subspace_bases(d, k, p)) for d, k in zip(M.dims, e)]
    return sum(
        all(
            linalg.column_space_contains(bases[t], (M.mats[a] @ bases[s]) % p, p)
            for a, (s, t) in enumerate(M.quiver.arrows)
        )
        for bases in itertools.product(*per_vertex)
    )


def hall_census_oracle(M, e):
    """The census built one subrepresentation at a time: construct U and
    M/U with `rep.sub_quotient_pair` and decompose both."""
    out = {}
    for bases, _, _ in subspaces.subrep_bases(M, e):
        sub, quot = rep.sub_quotient_pair(M, bases)
        key = (catalog.decompose(quot), catalog.decompose(sub))
        out[key] = out.get(key, 0) + 1
    return out


def _result(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared across paths, never swallowed
        return type(exc)


@st.composite
def modules(draw, quivers, primes, max_dim, max_total):
    """A module over one of `quivers`: random matrices, or a direct sum of
    two random parts so that censuses see split modules too."""
    Q = draw(st.sampled_from(quivers))
    p = draw(st.sampled_from(primes))
    dims = draw(
        st.lists(st.integers(0, max_dim), min_size=Q.n, max_size=Q.n).filter(
            lambda d: sum(d) <= max_total
        )
    )

    def random_part(part):
        mats = []
        for s, t in Q.arrows:
            size = part[t] * part[s]
            entries = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
            mats.append(np.array(entries, dtype=np.int64).reshape(part[t], part[s]))
        return rep.Rep(Q, p, part, mats)

    if draw(st.booleans()):
        return random_part(dims)
    first = [draw(st.integers(0, d)) for d in dims]
    return rep.direct_sum(random_part(first), random_part([d - f for d, f in zip(dims, first)]))


def test_subspace_enumeration_counts_and_uniqueness():
    for (n, k, p) in [(3, 1, 2), (3, 2, 2), (2, 1, 5), (4, 2, 3), (3, 0, 2), (3, 3, 2)]:
        seen = set()
        count = 0
        for U in subspaces.subspace_bases(n, k, p):
            assert U.shape == (n, k)
            key = linalg.column_space_canonical(U, p).tobytes()
            assert key not in seen
            seen.add(key)
            count += 1
        assert count == subspaces.subspace_count(n, k, p)


def test_subrep_counts_a2():
    p = 3
    P1 = catalog.module_from_class(A2, ("root", (1, 1)), p)
    assert subspaces.grassmannian_count(P1, (0, 1)) == 1
    assert subspaces.grassmannian_count(P1, (1, 0)) == 0
    assert subspaces.grassmannian_count(P1, (1, 1)) == 1
    assert subspaces.grassmannian_count(P1, (0, 0)) == 1
    assert subspaces.grassmannian_count(P1, (2, 0)) == 0  # e > dims
    double = rep.direct_sum(P1, P1)
    assert subspaces.grassmannian_count(double, (1, 1)) == p + 1


def test_subrep_counts_kronecker_regular():
    for p in (2, 3, 5):
        u = catalog.module_from_class(K, ("Rc", 0, 1), p)
        assert subspaces.grassmannian_count(u, (0, 1)) == 1
        assert subspaces.grassmannian_count(u, (1, 0)) == 0
        assert subspaces.grassmannian_count(u, (1, 1)) == 1


def test_hall_census_p1():
    p = 2
    P1 = catalog.module_from_class(A2, ("root", (1, 1)), p)
    census = subspaces.hall_census(P1, (0, 1))
    s1 = (("root", (1, 0)), 1)
    s2 = (("root", (0, 1)), 1)
    assert census == {((s1,), (s2,)): 1}
    assert subspaces.hall_number(P1, [s1], [s2]) == 1
    assert subspaces.hall_number(P1, [s2], [s1]) == 0


def test_hall_census_split_module():
    p = 2
    M = rep.direct_sum(rep.Rep.simple(A2, p, 0), rep.Rep.simple(A2, p, 1))
    s1 = (("root", (1, 0)), 1)
    s2 = (("root", (0, 1)), 1)
    assert subspaces.hall_number(M, [s1], [s2]) == 1
    # S_1^2: every line at vertex 1 works, all subs/quotients are S_1
    N = rep.direct_sum(rep.Rep.simple(A2, p, 0), rep.Rep.simple(A2, p, 0))
    census = subspaces.hall_census(N, (1, 0))
    assert census == {((s1,), (s1,)): p + 1}
    assert subspaces.census_total(census) == subspaces.subspace_count(2, 1, p)


def test_hall_census_kronecker():
    p = 3
    r0 = catalog.module_from_class(K, ("Rc", 0, 1), p)
    r1 = catalog.module_from_class(K, ("Rc", 1, 1), p)
    L = rep.direct_sum(r0, r1)
    census = subspaces.hall_census(L, (1, 1))
    k0 = (("Rc", 0, 1), 1)
    k1 = (("Rc", 1, 1), 1)
    assert census == {
        ((k1,), (k0,)): 1,
        ((k0,), (k1,)): 1,
    }


def test_census_cache_shared_between_isomorphic_modules():
    p = 3
    memo.clear()
    P1 = catalog.module_from_class(A2, ("root", (1, 1)), p)
    # a conjugated copy of P(1): same class, different matrices
    P1b = rep.Rep(A2, p, (1, 1), [np.array([[2]], dtype=np.int64)])
    c1 = subspaces.hall_census(P1, (0, 1))
    c2 = subspaces.hall_census(P1b, (0, 1))
    assert c1 is c2  # cache hit via the decomposition key


def test_budget():
    p = 5
    M = rep.random_rep(linear_quiver(2), (6, 6), p, np.random.default_rng(0))
    with pytest.raises(BudgetExceeded):
        subspaces.grassmannian_count(M, (3, 3), budget=100)


def test_grassmannian_total_vs_census_mass():
    p = 2
    P1 = catalog.module_from_class(A2, ("root", (1, 1)), p)
    M = rep.direct_sum(P1, rep.Rep.simple(A2, p, 0))
    for e in [(1, 0), (1, 1), (2, 1), (0, 1)]:
        census = subspaces.hall_census(M, e)
        assert subspaces.census_total(census) == subspaces.grassmannian_count(M, e)


def test_grassmannian_count_fast_matches_brute():
    """The closed-form-at-sink counter must agree with full enumeration.

    Hand anchor: Kronecker R(0,1) has subreps 0, S_2, itself -> counts
    1, 1, 1 and Gr_(1,0) is empty (A = identity maps out of any M_1 line).
    """
    K = kronecker_quiver()
    p = 3
    R = catalog.module_from_class(K, ("Rc", 0, 1), p)
    assert subspaces.grassmannian_count(R, (0, 0)) == 1
    assert subspaces.grassmannian_count(R, (0, 1)) == 1
    assert subspaces.grassmannian_count(R, (1, 1)) == 1
    assert subspaces.grassmannian_count(R, (1, 0)) == 0
    rng = np.random.default_rng(7)
    cases = [
        (Q, [int(rng.integers(0, 3)) for _ in range(Q.n)])
        for Q in (K, linear_quiver(2), linear_quiver(3))
        for trial in range(4)
    ]
    # every Kronecker dimension vector up to (3, 3): the two-vertex rank
    # distribution against the independent enumeration of subreps
    cases += [(K, list(dims)) for dims in itertools.product(range(4), repeat=2)]
    for Q, dims in cases:
        M = rep.random_rep(Q, dims, p, rng)
        for e in itertools.product(*[range(d + 1) for d in dims]):
            assert subspaces.grassmannian_count(M, e) == (
                grassmannian_count_brute(M, e)
            )


def test_grassmannian_count_matches_census_total():
    p = 2
    K = kronecker_quiver()
    M = rep.direct_sum(
        catalog.module_from_class(K, ("P", 1), p),
        catalog.module_from_class(K, ("I", 0), p),
    )
    for e in itertools.product(range(4), range(4)):
        total = subspaces.census_total(subspaces.hall_census(M, e))
        assert subspaces.grassmannian_count(M, e) == total


def test_image_rank_distribution_total():
    """Distribution masses must add up to the full Gaussian binomial."""
    K = kronecker_quiver()
    p = 5
    M = catalog.module_from_class(K, ("Rc", 2, 2), p)
    for k in range(3):
        dist = subspaces.image_rank_distribution(M, k)
        assert int(dist.sum()) == subspaces.subspace_count(2, k, p)


# a Kronecker module at a degree-2 tube point over F_2 (x^2 + x + 1 is
# irreducible): `decompose` raises OutsideCatalog on it, but its censuses at
# e = (0, 1), (0, 2) and (1, 2) stay inside the catalogue
OUTSIDE_CATALOG = rep.Rep(K, 2, (2, 2), [np.eye(2, dtype=np.int64), [[0, 1], [1, 1]]])


@settings(max_examples=60, deadline=None)
@given(modules([A2, A3, A3_SINK, D4, K], [2, 3, 5], max_dim=3, max_total=4))
@example(OUTSIDE_CATALOG)
def test_hall_census_matches_per_subrep_oracle(M):
    """Every census, from cold caches, equals the census built by
    `sub_quotient_pair` and `decompose`, exceptions included, and its mass
    is the rank-checked subrepresentation count."""
    for e in itertools.product(*[range(d + 1) for d in M.dims]):
        memo.clear()
        got = _result(subspaces.hall_census, M, e)
        memo.clear()
        want = _result(hall_census_oracle, M, e)
        assert got == want
        if isinstance(want, dict):
            assert subspaces.census_total(got) == grassmannian_count_brute(M, e)


def test_hall_census_outside_catalog_is_not_memoized():
    memo.clear()
    census = subspaces.hall_census(OUTSIDE_CATALOG, (0, 1))
    assert census == {(((("I", 1), 1),), ((("P", 0), 1),)): 3}
    assert not memo.TABLES["subspaces._class_census"]
    # the classes of its sub and quotient are memoized as usual
    assert memo.TABLES["catalog.decompose"]


@settings(max_examples=40, deadline=None)
@given(modules([A2, A3, A3_SINK, D4, K], [2, 3, 5], max_dim=3, max_total=4))
def test_echelon_blocks_equal_sub_quotient_pair(M):
    """The Python-int blocks are `sub_quotient_pair`'s matrices byte for
    byte, so the census reads the decompose memo under the same keys."""
    Q, p = M.quiver, M.p
    for e in itertools.product(*[range(d + 1) for d in M.dims]):
        for bases, sub, quot in subspaces.subrep_bases(M, e):
            U, MU = rep.sub_quotient_pair(M, bases)
            for a in range(len(Q.arrows)):
                for blocks, mat in ((sub, U.mats[a]), (quot, MU.mats[a])):
                    assert len(blocks[a]) == mat.shape[0]
                    assert array("q", itertools.chain.from_iterable(blocks[a])).tobytes() == (
                        mat.tobytes()
                    )


def test_census_classes_read_the_decompose_memo(monkeypatch):
    """A sub or quotient the memo holds is classified without calling
    `decompose`: the census key bytes equal the `Rep` bytes."""
    p = 3
    M = rep.direct_sum(
        catalog.module_from_class(A3, ("root", (1, 1, 1)), p),
        catalog.module_from_class(A3, ("root", (0, 1, 1)), p),
    )
    seen = []
    memo.clear()
    for bases, sub, quot in subspaces.subrep_bases(M, (0, 1, 1)):
        U, MU = rep.sub_quotient_pair(M, bases)
        seen.append((sub, quot, catalog.decompose(U), catalog.decompose(MU), MU.dims))

    def no_decompose(*args, **kwargs):
        raise AssertionError("decompose called on a memo hit")

    monkeypatch.setattr(catalog, "decompose", no_decompose)
    assert len(seen) > 1
    for sub, quot, sub_classes, quot_classes, quot_dims in seen:
        assert catalog._decompose_rows(A3, p, (0, 1, 1), sub) == sub_classes
        assert catalog._decompose_rows(A3, p, quot_dims, quot) == quot_classes


def test_echelon_containment_rejects_non_subrep():
    """On P(1) over 1 -> 2 the line at vertex 1 alone is not a
    subrepresentation: its image is not in the zero subspace at vertex 2."""
    p = 3
    P1 = catalog.module_from_class(A2, ("root", (1, 1)), p)
    (U1,) = [subspaces._Echelon(None, *c) for c in subspaces._echelon_subspaces(1, 1, p)]
    (zero,) = [subspaces._Echelon(None, *c) for c in subspaces._echelon_subspaces(1, 0, p)]
    img = subspaces._image(P1.mats[0].tolist(), U1.rows, p)
    assert not subspaces._contains(img, zero, p)
    assert subspaces._contains(img, U1, p)
    assert list(subspaces.subrep_bases(P1, (1, 0))) == []


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_echelon_containment_matches_rank_check(data):
    """M_a U_s inside U_t by echelon coordinates iff by rank, for every
    pair of echelon subspaces."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    ds, dt = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    ks, kt = data.draw(st.integers(0, ds)), data.draw(st.integers(0, dt))
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=dt * ds, max_size=dt * ds))
    A = np.array(entries, dtype=np.int64).reshape(dt, ds)
    sources = list(subspaces._echelon_subspaces(ds, ks, p))
    targets = list(subspaces._echelon_subspaces(dt, kt, p))
    for _, _, rows_s in sources:
        img = subspaces._image(A.tolist(), rows_s, p)
        basis_s = np.array(rows_s, dtype=np.int64).reshape(ds, ks)
        for pivots, others, rows_t in targets:
            U_t = subspaces._Echelon(None, pivots, others, rows_t)
            basis_t = np.array(rows_t, dtype=np.int64).reshape(dt, kt)
            assert subspaces._contains(img, U_t, p) == linalg.column_space_contains(
                basis_t, (A @ basis_s) % p, p
            )


def test_hall_census_does_not_build_sub_quotient_pairs(monkeypatch):
    """The census reads sub and quotient off echelon coordinates: with
    `sub_quotient_pair` raising, every census is unchanged."""
    p = 3
    cases = [
        (rep.direct_sum(
            catalog.module_from_class(A3, ("root", (1, 1, 1)), p),
            catalog.module_from_class(A3, ("root", (0, 1, 1)), p),
        ), (1, 1, 1)),
        (rep.direct_sum(
            catalog.module_from_class(D4, ("root", (1, 1, 1, 1)), p),
            rep.Rep.simple(D4, p, 1),
        ), (0, 1, 1, 1)),
        (rep.direct_sum(
            catalog.module_from_class(K, ("P", 1), p),
            catalog.module_from_class(K, ("Rc", 2, 1), p),
        ), (1, 2)),
    ]
    want = []
    for M, e in cases:
        memo.clear()
        want.append(hall_census_oracle(M, e))

    def raises(*args, **kwargs):
        raise AssertionError("sub_quotient_pair called")

    monkeypatch.setattr(rep, "sub_quotient_pair", raises)
    for (M, e), census in zip(cases, want):
        memo.clear()
        assert subspaces.hall_census(M, e) == census
        assert census


@settings(max_examples=80, deadline=None)
@given(modules([A3, A3_SINK, A3_SOURCE, D4], [2, 3], max_dim=2, max_total=6), st.data())
def test_grassmannian_count_matches_brute_a3_d4(M, data):
    """The walk over all vertices but the last, closed by a rank at the
    last vertex, against the rank-checked enumeration of all vertices."""
    e = tuple(data.draw(st.integers(0, d)) for d in M.dims)
    assert subspaces.grassmannian_count(M, e) == grassmannian_count_brute(M, e)


@settings(max_examples=40, deadline=None)
@given(modules([D4_SINK, K], [2, 3], max_dim=2, max_total=4))
def test_hall_census_matches_oracle_where_checks_intersect(M):
    """On the D_4 orientation whose sink has arrows from three sources the
    walk intersects three admissible lists at one vertex, and on Kronecker
    it checks two parallel arrows at once; every census still equals the
    per-subrep oracle from cold caches."""
    for e in itertools.product(*[range(d + 1) for d in M.dims]):
        memo.clear()
        got = _result(subspaces.hall_census, M, e)
        memo.clear()
        assert got == _result(hall_census_oracle, M, e)


def test_echelon_table_is_shared_up_to_the_size_constant():
    """Spaces with at most ECHELON_TABLE_MAX subspaces read one shared table;
    a larger space is built for the call and never stored."""
    memo.clear()
    table = memo.TABLES["subspaces._echelon_table"]
    assert subspaces.subspace_count(4, 2, 5) <= subspaces.ECHELON_TABLE_MAX
    assert subspaces.subspace_count(4, 2, 7) > subspaces.ECHELON_TABLE_MAX
    first = list(subspaces.subspace_bases(4, 2, 5))
    assert list(table) == [(4, 2, 5)]
    assert all(a is b for a, b in zip(first, subspaces.subspace_bases(4, 2, 5)))
    assert sum(1 for _ in subspaces.subspace_bases(4, 2, 7)) == subspaces.subspace_count(4, 2, 7)
    assert list(table) == [(4, 2, 5)]
    with pytest.raises(ValueError):
        first[0][0, 0] = 1


def test_dynkin_census_miss_builds_no_rep(monkeypatch):
    """A census of a Dynkin module classifies every sub and quotient it has
    not seen from Python-int rows: no `Rep` is constructed."""
    p = 3
    M = rep.direct_sum(
        catalog.module_from_class(D4, ("root", (1, 1, 1, 1)), p),
        catalog.module_from_class(D4, ("root", (0, 1, 0, 1)), p),
    )
    memo.clear()
    classes = catalog.decompose(M)
    seen = len(memo.TABLES["catalog.decompose"])
    built = []
    real = rep.Rep.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(rep.Rep, "__init__", counting)
    census = subspaces.hall_census(M, (0, 1, 1, 1), key_classes=classes)
    assert census and len(memo.TABLES["catalog.decompose"]) > seen
    assert built == []
