"""Tests for subspace/subrepresentation enumeration and Hall censuses.

Hand-derived values:
  * P(1) on 1 -> 2 has exactly one subrep of dim (0,1) (the socle) and
    none of dim (1,0) (the vertex-1 line is not arrow-stable).
  * Gr_{(1,1)}(P(1)^2) is a projective line: p + 1 points.
  * L = R(0,1) + R(1,1) on Kronecker has exactly two subreps of dim (1,1):
    each regular summand, with the other as quotient.
"""

import itertools

import numpy as np
import pytest

from hallchar import catalog, linalg, rep, subspaces
from hallchar.errors import BudgetExceeded
from hallchar.quiver import kronecker_quiver, linear_quiver

A2 = linear_quiver(2)
K = kronecker_quiver()


def grassmannian_count_brute(M, e, budget=subspaces.DEFAULT_SUBSPACE_BUDGET):
    """Reference count by full enumeration of subrepresentation tuples."""
    return sum(1 for _ in subspaces.subrep_bases(M, e, budget=budget))


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
    subspaces.clear_census_cache()
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
