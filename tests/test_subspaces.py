"""Tests for subspace/subrepresentation enumeration and Hall censuses.

Hand-derived values:
  * P(1) on 1 -> 2 has exactly one subrep of dim (0,1) (the socle) and
    none of dim (1,0) (the vertex-1 line is not arrow-stable).
  * Gr_{(1,1)}(P(1)^2) is a projective line: p + 1 points.
  * L = R(0,1) + R(1,1) on Kronecker has exactly two subreps of dim (1,1):
    each regular summand, with the other as quotient.
"""

import functools
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hallchar import catalog, cluster, memo, rep, subspaces, symspace
from hallchar.errors import BudgetExceeded, OutsideCatalog
from hallchar.quiver import Quiver, kronecker_quiver, linear_quiver
from test_linalg import column_space_canonical, column_space_contains
from test_quiver import dynkin_orientations
from test_rep import arrays, conjugate, random_rep, sub_quotient_pair

A2 = linear_quiver(2)
A3 = linear_quiver(3)
A3_SINK = Quiver(3, [(0, 1), (2, 1)])
A3_SOURCE = Quiver(3, [(1, 0), (1, 2)])
D4 = Quiver(4, [(0, 1), (2, 1), (1, 3)])
D4_SINK = Quiver(4, [(0, 3), (1, 3), (2, 3)])
K = kronecker_quiver()


def subspace_bases(n, k, p):
    """Yield one canonical basis (n x k int64 matrix) per k-subspace of F_p^n.

    The basis is the transpose of a reduced row echelon form: choose pivot
    rows r_1 < ... < r_k, put the identity there, zeros above each pivot,
    and free values at the positions below a pivot that are not themselves
    pivot rows.  Columns are the basis vectors.  Each array is built from
    the rows of the enumeration's candidates (`subspaces._candidates`).
    """
    for U in subspaces._candidates(n, k, p):
        yield np.array(U.rows, dtype=np.int64).reshape(n, k)


def grassmannian_count_brute(M, e):
    """Reference count: every tuple of subspaces of dimension e, kept when
    each arrow image lies in the target subspace by rank, so it shares no
    code with the echelon containment check that `subspaces` uses."""
    p = M.p
    per_vertex = [list(subspace_bases(d, k, p)) for d, k in zip(M.dims, e)]
    return sum(
        all(
            column_space_contains(bases[t], (arrays(M)[a] @ bases[s]) % p, p)
            for a, (s, t) in enumerate(M.quiver.arrows)
        )
        for bases in itertools.product(*per_vertex)
    )


def subrep_bases(M, e):
    """Oracle: yield (bases, sub, quot) for every subrepresentation U of M
    with dimension vector e, in lexicographic order of the candidate
    indices along the topological order, over `subspaces._walk_tables`.

    bases[i] is the reduced column echelon basis of U_i, as dims[i] rows of
    e_i Python ints.  sub[a] and quot[a] are the matrices of arrow a on U
    and on M/U, as Python-int rows, in the columns of bases[i] for U_i and
    the standard vectors at its non-pivot rows for M_i/U_i.
    """
    Q, p = M.quiver, M.p
    e = tuple(int(x) for x in e)
    if len(e) != Q.n:
        raise ValueError("dimension vector has wrong length")
    if any(k < 0 or k > d for k, d in zip(e, M.dims)):
        return
    order = Q.topological_order()
    candidates, images, chosen, options = subspaces._walk_tables(M, e, order)

    # a plain recursion of its own: the oracle shares no walk loop with
    # the census it checks
    def walk(idx=0):
        if idx == len(order):
            yield
            return
        for i in options(idx):
            chosen[order[idx]] = i
            yield from walk(idx + 1)

    for _ in walk():
        U = [candidates[v][chosen[v]] for v in range(Q.n)]
        sub, quot = [], []
        for a, (s, t) in enumerate(Q.arrows):
            img = images[a][chosen[s]]
            sub.append([img[r] for r in U[t].pivots])
            quot.append(subspaces._quotient_block(M.mats[a], U[s], U[t], p))
        yield tuple(u.rows for u in U), sub, quot


def walk_census(M, e):
    """Oracle: the census counted one subrepresentation at a time over the
    plain walk, every sub and quotient classified from its rows."""
    Q, p = M.quiver, M.p
    quot_dims = tuple(d - k for d, k in zip(M.dims, e))
    out = {}
    for _, sub, quot in subrep_bases(M, e):
        key = (
            catalog._decompose_rows(Q, p, quot_dims, quot),
            catalog._decompose_rows(Q, p, tuple(e), sub),
        )
        out[key] = out.get(key, 0) + 1
    return out


def census_total(census):
    return sum(census.values())


def basis_arrays(bases, e):
    """The row bases of `subrep_bases` as the int64 arrays that
    `sub_quotient_pair` takes."""
    return [np.array(rows, dtype=np.int64).reshape(len(rows), k) for rows, k in zip(bases, e)]


def hall_census_oracle(M, e):
    """The census built one subrepresentation at a time: construct U and
    M/U with `sub_quotient_pair` and decompose both."""
    out = {}
    for bases, _, _ in subrep_bases(M, e):
        sub, quot = sub_quotient_pair(M, basis_arrays(bases, e))
        key = (catalog.decompose(quot), catalog.decompose(sub))
        out[key] = out.get(key, 0) + 1
    return out


def _result(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared across paths, never swallowed
        return type(exc)


@functools.cache
def _dims_up_to(n, max_dim, max_total):
    """The dimension vectors with n entries of at most max_dim each and at
    most max_total in all, drawn from directly so that no draw is
    filtered out."""
    return [d for d in itertools.product(range(max_dim + 1), repeat=n) if sum(d) <= max_total]


@st.composite
def modules(draw, quivers, primes, max_dim, max_total):
    """A module over one of `quivers` (a list, or a strategy drawing one):
    random matrices, or a direct sum of two random parts so that censuses
    see split modules too."""
    Q = draw(quivers if isinstance(quivers, st.SearchStrategy) else st.sampled_from(quivers))
    p = draw(st.sampled_from(primes))
    dims = draw(st.sampled_from(_dims_up_to(Q.n, max_dim, max_total)))

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
        for U in subspace_bases(n, k, p):
            assert U.shape == (n, k)
            key = column_space_canonical(U, p).tobytes()
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
    assert census_total(census) == subspaces.subspace_count(2, 1, p)


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
    M = random_rep(linear_quiver(2), (6, 6), p, np.random.default_rng(0))
    with pytest.raises(BudgetExceeded):
        subspaces.grassmannian_count(M, (3, 3), budget=100)


def test_grassmannian_total_vs_census_mass():
    p = 2
    P1 = catalog.module_from_class(A2, ("root", (1, 1)), p)
    M = rep.direct_sum(P1, rep.Rep.simple(A2, p, 0))
    for e in [(1, 0), (1, 1), (2, 1), (0, 1)]:
        census = subspaces.hall_census(M, e)
        assert census_total(census) == subspaces.grassmannian_count(M, e)


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
        M = random_rep(Q, dims, p, rng)
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
        total = census_total(subspaces.hall_census(M, e))
        assert subspaces.grassmannian_count(M, e) == total


@pytest.mark.parametrize(
    "Q, text",
    [
        (K, "R(2,2)"),
        (K, "P[1,2] + 2*S1"),
        (A3_SINK, "P1 + 2*S3 + S2"),
        (A3, "P1 + 2*S1 + S2"),
        (D4_SINK, "P1 + S2 + 2*S3 + S4"),
        (D4, "P1 + 2*S3 + S1 + S4"),
    ],
    ids=["kronecker", "kronecker-split", "a3-sink", "a3", "d4-sink", "d4"],
)
def test_rank_distribution_mass(Q, text):
    """A distribution's mass is the number of subrepresentations on every
    vertex but the last, counted by brute force as Gr_e(M) at e_last =
    d_last; where no arrow joins two of those vertices (Kronecker, A_3 and
    D_4 with every arrow into the last vertex) it is prod [d_v choose e_v]_p
    over them."""
    p = 3
    M = catalog.parse_symbol(text, Q).instantiate(p)
    *walked, last = Q.topological_order()
    unlinked = all(t == last for _, t in Q.arrows)
    for ks in itertools.product(*[range(M.dims[v] + 1) for v in walked]):
        mass = sum(subspaces._rank_distribution(M, ks))
        e = [M.dims[last]] * Q.n
        for v, k in zip(walked, ks):
            e[v] = k
        assert mass == grassmannian_count_brute(M, e)
        if unlinked:
            counts = [subspaces.subspace_count(M.dims[v], k, p) for v, k in zip(walked, ks)]
            assert mass == np.prod(counts)


@pytest.mark.parametrize(
    "M, head",
    [
        # 13 candidates at the one source, more than ECHELON_TABLE_MAX = 5
        (
            rep.direct_sum(
                catalog.module_from_class(K, ("Rc", 0, 2), 3),
                catalog.module_from_class(K, ("P", 1), 3),
            ),
            (2,),
        ),
        # three sources into the D_4 sink, 13^3 distinct tuples of candidates
        (
            catalog.parse_symbol("2*S1 + 2*S2 + 2*S3 + P1 + P2 + P3", D4_SINK).instantiate(3),
            (1, 1, 1),
        ),
    ],
    ids=["kronecker", "d4-sink"],
)
def test_rank_distribution_images_each_column_once(M, head, monkeypatch):
    """With more than ECHELON_TABLE_MAX candidates at each source of the
    arrows into the last vertex, read in chunks of that many, the
    distribution is the same, no echelon table is stored, and the images
    of each distinct column of a source's candidates are built once for
    that source."""
    memo.clear()
    whole = subspaces._rank_distribution(M, head)
    memo.clear()
    monkeypatch.setattr(subspaces, "ECHELON_TABLE_MAX", 5)
    built = []
    real = subspaces._column_images
    monkeypatch.setattr(
        subspaces, "_column_images",
        lambda mats, columns, p: built.extend(columns) or real(mats, columns, p),
    )
    assert subspaces._rank_distribution(M, head) == whole
    assert not memo.TABLES["subspaces._echelon_table"]
    walked, _ = subspaces._closing(M)
    columns = Counter()
    for s, k in zip(walked, head):
        columns.update({u for U in subspaces._echelons(M.dims[s], k, M.p) for u in zip(*U.rows)})
    assert Counter(built) == columns


@pytest.mark.parametrize("p", [2, 3, 11, 251, 65521, 2**31 - 1, 2**61 - 1])
def test_column_images_match_the_plain_product(p):
    """Packed in lanes of 3 to 124 bits, the images of distinct columns
    are the products A u mod p, in the order the columns were given."""
    rng = np.random.default_rng(p % 1000)
    n, d = 4, 3
    draw = lambda: int(rng.integers(0, p, dtype=np.uint64))
    mats = [[[draw() for _ in range(n)] for _ in range(d)] for _ in range(2)]
    columns = list(dict.fromkeys(tuple(draw() for _ in range(n)) for _ in range(40)))
    out = subspaces._column_images(mats, columns, p)
    assert list(out) == columns
    for u in columns:
        assert out[u] == [tuple(sum(a * x for a, x in zip(row, u)) % p for row in A) for A in mats]
    assert subspaces._column_images(mats, [], p) == {}


@pytest.mark.parametrize(
    "Q, dims, p",
    [
        (A2, (3, 0), 11),
        (A3, (2, 2, 0), 3),
        (A3, (2, 0, 0), 3),
        (A3_SINK, (2, 0, 1), 3),
        (D4, (1, 2, 1, 0), 3),
        (D4_SINK, (1, 2, 1, 0), 3),
    ],
    ids=["a2", "a3", "a3-one-vertex", "a3-sink", "d4", "d4-sink"],
)
def test_grassmannian_count_closes_at_the_last_nonzero_vertex(Q, dims, p, monkeypatch):
    """On a module that is zero at the sink the count closes at the last
    vertex in topological order where M is nonzero: it matches brute force,
    walks only the vertices before that one, and walks nothing where every
    e_v there is 0 or d_v (A_2 3*S1 at p = 11, e = (1, 0): 133 lines, no
    walk, and a charge of 1, since the closing vertex is not enumerated)."""
    M = random_rep(Q, dims, p, np.random.default_rng(sum(dims)))
    order = Q.topological_order()
    walked, last = subspaces._closing(M)
    assert order[: len(walked) + 1] == walked + [last]
    assert M.dims[last] and not any(M.dims[v] for v in order[len(walked) + 1 :])
    walks = []
    real = subspaces._walk_tables
    monkeypatch.setattr(
        subspaces, "_walk_tables", lambda M, e, order: walks.append(order) or real(M, e, order)
    )
    for e in itertools.product(*[range(d + 1) for d in dims]):
        memo.clear()
        walks.clear()
        assert subspaces.grassmannian_count(M, e) == grassmannian_count_brute(M, e)
        forced = all(e[v] in (0, dims[v]) for v in walked)
        assert walks == ([] if forced else [walked])
    if Q is A2:
        assert subspaces.grassmannian_count(M, (1, 0), budget=1) == 133
        with pytest.raises(BudgetExceeded, match="^subspace search space 1 exceeds budget 0$"):
            subspaces.grassmannian_count(M, (1, 0), budget=0)


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
            assert census_total(got) == grassmannian_count_brute(M, e)


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
    """The Python-int blocks are `sub_quotient_pair`'s matrices entry for
    entry, so the census reads the decompose memo under the same keys."""
    Q, p = M.quiver, M.p
    for e in itertools.product(*[range(d + 1) for d in M.dims]):
        for bases, sub, quot in subrep_bases(M, e):
            U, MU = sub_quotient_pair(M, basis_arrays(bases, e))
            for blocks, mod in ((sub, U), (quot, MU)):
                assert [tuple(map(tuple, b)) for b in blocks] == list(mod.mats)
                assert rep.Rep.key_of(Q, p, mod.dims, blocks) == mod.key


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
    for bases, sub, quot in subrep_bases(M, (0, 1, 1)):
        U, MU = sub_quotient_pair(M, basis_arrays(bases, (0, 1, 1)))
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
    (U1,) = subspaces._echelons(1, 1, p)
    (zero,) = subspaces._echelons(1, 0, p)
    img = subspaces._image(P1.mats[0], U1.rows, p)
    assert not subspaces._contains(img, zero, p)
    assert subspaces._contains(img, U1, p)
    assert list(subrep_bases(P1, (1, 0))) == []


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
    sources = list(subspaces._echelons(ds, ks, p))
    targets = list(subspaces._echelons(dt, kt, p))
    for U_s in sources:
        img = subspaces._image(A.tolist(), U_s.rows, p)
        (basis_s,) = basis_arrays([U_s.rows], [ks])
        for U_t in targets:
            (basis_t,) = basis_arrays([U_t.rows], [kt])
            assert subspaces._contains(img, U_t, p) == column_space_contains(
                basis_t, (A @ basis_s) % p, p
            )


def test_hall_census_does_not_build_sub_quotient_pairs():
    """The census reads sub and quotient off echelon coordinates: the
    package has no `sub_quotient_pair` to call (it is a test oracle), and
    every census equals the oracle's."""
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

    assert not hasattr(rep, "sub_quotient_pair")
    for (M, e), census in zip(cases, want):
        memo.clear()
        assert subspaces.hall_census(M, e) == census
        assert census


@settings(max_examples=240, deadline=None)
@given(
    st.one_of(
        modules(
            st.one_of(
                st.sampled_from([A3, A3_SINK, A3_SOURCE, D4]),
                dynkin_orientations("A", 4),
                dynkin_orientations("D", 5),
            ),
            [2, 3], max_dim=2, max_total=6,
        ),
        modules(dynkin_orientations("E", 6), [2, 3], max_dim=2, max_total=5),
    ),
    st.data(),
)
def test_grassmannian_count_matches_brute_a3_d4(M, data):
    """The walk over all vertices but the last, closed by a rank at the
    last vertex, against the rank-checked enumeration of all vertices, on
    the A_3 and D_4 orientations and random orientations of A_4, D_5 and
    E_6."""
    e = tuple(data.draw(st.integers(0, d)) for d in M.dims)
    assert subspaces.grassmannian_count(M, e) == grassmannian_count_brute(M, e)


# quivers no classifier covers: the three-arrow Kronecker quiver, the
# acyclic triangle 1 -> 2 -> 3, 1 -> 3, and the 4-cycle with one source and
# one sink; and quivers with no arrow into the last vertex in topological
# order: two vertices and no arrow, 1 -> 2 beside a third vertex, and A_1
K3 = Quiver(2, [(0, 1)] * 3)
TRIANGLE = Quiver(3, [(0, 1), (1, 2), (0, 2)])
SQUARE = Quiver(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
UNLINKED = [Quiver(2, []), Quiver(3, [(0, 1)]), linear_quiver(1)]


@settings(max_examples=120, deadline=None)
@given(modules([K3, TRIANGLE, SQUARE, *UNLINKED], [2, 3], max_dim=2, max_total=5), st.data())
def test_grassmannian_count_matches_brute_outside_catalogue(M, data):
    """`grassmannian_count` classifies nothing, so it counts on quivers
    outside the catalogue too, and where no arrow enters the last vertex,
    against the rank-checked enumeration."""
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


def forced_dims(M):
    """Every e with each e_v equal to 0 or d_v."""
    return itertools.product(*[sorted({0, d}) for d in M.dims])


def forced_off_last(M):
    """Every e with each e_v equal to 0 or d_v off the last vertex in
    topological order, and any e_v at it."""
    last = M.quiver.topological_order()[-1]
    return itertools.product(*[
        range(d + 1) if v == last else sorted({0, d}) for v, d in enumerate(M.dims)
    ])


def _items(result):
    """A census as its list of items, so that key order counts; an
    exception type as it is."""
    return list(result.items()) if isinstance(result, dict) else result


@st.composite
def symbol_modules(draw):
    """(symbol, module): a catalogue symbol with dims <= 2 per vertex over
    A_2, A_3, A_3_SINK, D_4 or Kronecker, realised at p in {2, 3, 5} and
    conjugated by a random base change, so its rows are not the
    catalogue's."""
    Q = draw(st.sampled_from([A2, A3, A3_SINK, D4, K]))
    p = draw(st.sampled_from([2, 3, 5]))
    pool = [s for s in symspace.all_symbols_up_to(Q, (2,) * Q.n) if s.admissible_prime(p)]
    sym = draw(st.sampled_from(pool))
    seed = draw(st.integers(0, 2**32 - 1))
    return sym, conjugate(sym.instantiate(p), np.random.default_rng(seed))


@settings(max_examples=80, deadline=None)
@given(symbol_modules())
def test_forced_census_matches_per_subrep_oracle(case):
    """Where every e_v is 0 or d_v the census is read off M restricted to
    {v : e_v = d_v}.  From cold caches it equals the per-subrep oracle,
    items and key order included, with `key_classes` and without it."""
    sym, M = case
    for e in forced_dims(M):
        memo.clear()
        want = _items(_result(hall_census_oracle, M, e))
        memo.clear()
        assert _items(_result(subspaces.hall_census, M, e)) == want
        memo.clear()
        classes = sym.concrete_classes(M.p)
        assert _items(_result(lambda: subspaces.hall_census(M, e, key_classes=classes))) == want


def test_forced_census_runs_no_walk(monkeypatch):
    """No forced census enumerates subspaces: with `_walk_tables` made to
    raise, every forced census still equals the oracle's, including an
    empty one (P(1) at (1, 0)), a split one (S1 + S2 at (1, 0), where the
    zero arrows leave S) and the forced censuses of a module outside
    the catalogue, and stores its classes under the oracle's memo keys."""
    p = 3
    cases = [
        catalog.module_from_class(A2, ("root", (1, 1)), p),
        rep.direct_sum(rep.Rep.simple(K, p, 0), rep.Rep.simple(K, p, 1)),
        rep.direct_sum(
            catalog.module_from_class(A3, ("root", (1, 1, 1)), p),
            catalog.module_from_class(A3, ("root", (0, 1, 1)), p),
        ),
        rep.direct_sum(
            catalog.module_from_class(D4, ("root", (1, 1, 1, 1)), p),
            rep.Rep.simple(D4, p, 1),
        ),
        rep.direct_sum(
            catalog.module_from_class(K, ("P", 1), p),
            catalog.module_from_class(K, ("Rc", 2, 1), p),
        ),
        OUTSIDE_CATALOG,
    ]
    want = []
    for M in cases:
        for e in forced_dims(M):
            memo.clear()
            census = _items(_result(hall_census_oracle, M, e))
            want.append((M, e, census, set(memo.TABLES["catalog.decompose"]) | {M.key}))
    assert [] in [w for _, _, w, _ in want]

    def no_walk(*args):
        raise AssertionError("a forced census walked the subspaces")

    monkeypatch.setattr(subspaces, "_walk_tables", no_walk)
    for M, e, census, keys in want:
        memo.clear()
        assert _items(_result(subspaces.hall_census, M, e)) == census
        # sub and quotient are classified under the keys of the oracle's modules
        assert set(memo.TABLES["catalog.decompose"]) <= keys


def test_forced_census_edge_cases():
    """The forced rule keeps the walk's errors: a budget below 1 raises,
    a wrong-length e raises ValueError, an out-of-range e reads {}, and a
    module outside the catalogue raises OutsideCatalog at e = 0 and at
    e = dim M without storing a census."""
    p = 3
    P1 = catalog.module_from_class(A2, ("root", (1, 1)), p)
    memo.clear()
    with pytest.raises(BudgetExceeded):
        subspaces.hall_census(P1, (0, 0), budget=0)
    with pytest.raises(ValueError):
        subspaces.hall_census(P1, (0, 0, 0))
    assert subspaces.hall_census(P1, (2, 1)) == {}
    for e in [(0, 0), (2, 2)]:
        memo.clear()
        with pytest.raises(OutsideCatalog):
            subspaces.hall_census(OUTSIDE_CATALOG, e)
        assert not memo.TABLES["subspaces._class_census"]


def support_parts(M):
    """The parts of M's support as vertex sets, in the order of their
    first vertex, from `subspaces._support_labels`."""
    label = subspaces._support_labels(M)
    return [
        {v for v, y in enumerate(label) if y == x}
        for x in dict.fromkeys(y for y in label if y is not None)
    ]


@st.composite
def unlinked_modules(draw):
    """(symbol, module): the direct sum of two catalogue symbols with
    disjoint supports (so every arrow between them acts as 0), each with
    dims <= 2 per vertex, over A_2, A_3, A_3_SINK, D_4 or Kronecker,
    realised at p in {2, 3, 5} and conjugated as in `symbol_modules`."""
    Q = draw(st.sampled_from([A2, A3, A3_SINK, D4, K]))
    p = draw(st.sampled_from([2, 3, 5]))
    pool = [
        s for s in symspace.all_symbols_up_to(Q, (2,) * Q.n)
        if s.admissible_prime(p) and any(s.dims)
    ]
    first = draw(st.sampled_from([s for s in pool if not all(s.dims)]))
    second = draw(st.sampled_from([
        s for s in pool if not any(a and b for a, b in zip(first.dims, s.dims))
    ]))
    sym = first.direct_sum(second)
    seed = draw(st.integers(0, 2**32 - 1))
    return sym, conjugate(sym.instantiate(p), np.random.default_rng(seed))


@settings(max_examples=40, deadline=None)
@given(unlinked_modules())
def test_split_census_matches_per_subrep_oracle(case):
    """Where M's support has unlinked parts the census is the product of
    the parts' censuses.  From cold caches it equals the per-subrep oracle,
    items and key order included, with `key_classes` and without it."""
    sym, M = case
    assert len(support_parts(M)) > 1
    for e in itertools.product(*[range(d + 1) for d in M.dims]):
        memo.clear()
        want = _items(_result(hall_census_oracle, M, e))
        memo.clear()
        assert _items(_result(subspaces.hall_census, M, e)) == want
        memo.clear()
        classes = sym.concrete_classes(M.p)
        assert _items(_result(lambda: subspaces.hall_census(M, e, key_classes=classes))) == want


def test_split_census_walks_only_the_parts(monkeypatch):
    """A split census walks each part of M and never M itself: with
    `_walk_tables` refusing any module whose support is not one part,
    every census still equals the oracle's."""
    p = 3
    cases = [
        (rep.direct_sum(
            catalog.module_from_class(A3, ("root", (1, 1, 0)), p),
            catalog.module_from_class(A3, ("root", (1, 0, 0)), p),
            catalog.module_from_class(A3, ("root", (0, 0, 1)), p),
            catalog.module_from_class(A3, ("root", (0, 0, 1)), p),
        ), (1, 1, 1)),
        (rep.direct_sum(
            catalog.module_from_class(D4, ("root", (1, 1, 0, 1)), p),
            catalog.module_from_class(D4, ("root", (0, 1, 0, 0)), p),
            rep.Rep.simple(D4, p, 2),
            rep.Rep.simple(D4, p, 2),
        ), (0, 1, 1, 1)),
        (rep.direct_sum(
            rep.Rep.simple(K, p, 0), rep.Rep.simple(K, p, 0), rep.Rep.simple(K, p, 1)
        ), (1, 1)),
    ]
    want = []
    for M, e in cases:
        memo.clear()
        want.append(_items(hall_census_oracle(M, e)))
    real = subspaces._walk_tables
    walked = []

    def parts_only(M, *args):
        if len(support_parts(M)) > 1:
            raise AssertionError("a split census walked the whole module")
        walked.append(M.dims)
        return real(M, *args)

    monkeypatch.setattr(subspaces, "_walk_tables", parts_only)
    for (M, e), census in zip(cases, want):
        memo.clear()
        assert len(support_parts(M)) > 1
        assert _items(subspaces.hall_census(M, e)) == census
        assert census
    assert walked


def _two_part_module(Q, first, second, p):
    """X + S_a + S_b for X the root module with support {a, b}, for each
    of the vertex pairs `first` and `second`."""
    def part(a, b):
        root = tuple(int(v in (a, b)) for v in range(Q.n))
        X = catalog.module_from_class(Q, ("root", root), p)
        return X, rep.Rep.simple(Q, p, a), rep.Rep.simple(Q, p, b)

    return rep.direct_sum(*part(*first), *part(*second))


def test_split_census_keeps_the_walk_order():
    """Two parts with several census entries each.  On linear A_4 the
    parts {0, 1} and {2, 3} follow each other along the topological order,
    and the product, taken in that order, meets the keys in the walk's
    order.  On the A_4 orientation 0 -> 2 <- 1 -> 3 the topological order
    is 0, 1, 2, 3, so the parts {0, 2} and {1, 3} take turns along it; the
    product would meet the keys in another order than the walk, so M is
    walked whole at e = (1, 1, 1, 1).  Every census equals the oracle's,
    items and key order included."""
    p = 2
    e = (1, 1, 1, 1)
    for Q, pairs, split in [
        (linear_quiver(4), ((0, 1), (2, 3)), True),
        (Quiver(4, [(0, 2), (1, 2), (1, 3)]), ((0, 2), (1, 3)), False),
    ]:
        M = _two_part_module(Q, *pairs, p)
        assert support_parts(M) == [set(pair) for pair in pairs]
        classes = catalog.decompose(M)
        memo.clear()
        label = subspaces._support_labels(M)
        out = subspaces._split_census(M, e, label)
        assert (out is not None) == split
        assert all(len(census) > 1 for _, census in memo.TABLES["subspaces._class_census"].values())
        memo.clear()
        want = _items(hall_census_oracle(M, e))
        memo.clear()
        assert _items(subspaces.hall_census(M, e, key_classes=classes)) == want


def test_split_census_edge_cases(monkeypatch):
    """The split keeps the walk's errors: the budget is checked against the
    product over all of M (each part alone fits in it), a wrong-length e
    raises ValueError and an out-of-range e reads {}.  A module outside
    the catalogue has no classes and is never split."""
    p = 2
    M = rep.direct_sum(*[rep.Rep.simple(A3, p, v) for v in (0, 0, 2, 2)])
    assert support_parts(M) == [{0}, {2}]
    # [2 choose 1]_2 = 3 subspaces at vertices 0 and 2
    memo.clear()
    with pytest.raises(BudgetExceeded, match="^subspace search space 9 exceeds budget 8$"):
        subspaces.hall_census(M, (1, 0, 1), budget=8)
    assert len(subspaces.hall_census(M, (1, 0, 1), budget=9)) == 1
    with pytest.raises(ValueError):
        subspaces.hall_census(M, (1, 0))
    assert subspaces.hall_census(M, (1, 1, 1)) == {}
    assert subspaces.hall_census(M, (3, 0, 1)) == {}

    want = {}
    for e in itertools.product(range(3), range(3)):
        memo.clear()
        want[e] = _result(hall_census_oracle, OUTSIDE_CATALOG, e)

    def no_split(*args):
        raise AssertionError("a module outside the catalogue was split")

    monkeypatch.setattr(subspaces, "_support_labels", no_split)
    for e, census in want.items():
        memo.clear()
        assert _result(subspaces.hall_census, OUTSIDE_CATALOG, e) == census


def test_check_strata_skips_where_the_walk_skipped(monkeypatch):
    """`char_by_strata` at DEFAULT_CHECK_BUDGET, `CharTable`'s stratified
    check, skips a character when its census exceeds that budget.  The
    split checks the budget on
    all of M, so it skips exactly where the whole walk skipped: on
    3*S1 + 3*S2 over Kronecker (at e = (1, 1) and p = 17 the product is
    307^2 > 60000, though each part alone is 307), and on none of the
    others, whose stratified characters agree with the walk's."""
    symbols = [catalog.parse_symbol(text, K) for text in ("3*S1 + 3*S2", "S1 + 2*S2", "2*S1 + S2")]
    symbols += [catalog.parse_symbol(text, A3) for text in ("2*S1 + 2*S3", "P2 + 2*S1")]

    def outcomes():
        out = []
        for sym in symbols:
            memo.clear()
            out.append(_result(cluster.char_by_strata, sym, cluster.DEFAULT_CHECK_BUDGET))
        return out

    split = outcomes()
    monkeypatch.setattr(subspaces, "_support_labels", lambda M: [0] * M.quiver.n)
    walked = outcomes()
    assert split == walked
    assert [r is BudgetExceeded for r in split] == [True, False, False, False, False]


def test_grassmannian_count_forced_matches_brute(monkeypatch):
    """Where every e_v off the last vertex is 0 or d_v, `grassmannian_count`
    reads no walk and no rank distribution, and equals the rank-checked
    count: 1 or 0 where e_last is 0 or d_last too."""
    p = 3
    cases = [
        catalog.module_from_class(A2, ("root", (1, 1)), p),
        rep.direct_sum(rep.Rep.simple(K, p, 0), rep.Rep.simple(K, p, 1)),
        catalog.module_from_class(K, ("Rc", 2, 1), p),
        rep.direct_sum(
            catalog.module_from_class(A3, ("root", (1, 1, 1)), p),
            catalog.module_from_class(A3, ("root", (0, 1, 1)), p),
        ),
        rep.direct_sum(
            catalog.module_from_class(A3_SINK, ("root", (1, 1, 0)), p),
            rep.Rep.simple(A3_SINK, p, 2),
        ),
        rep.direct_sum(
            catalog.module_from_class(D4, ("root", (1, 1, 1, 1)), p),
            rep.Rep.simple(D4, p, 1),
        ),
        OUTSIDE_CATALOG,
    ]
    want = [(M, e, grassmannian_count_brute(M, e)) for M in cases for e in forced_off_last(M)]
    assert {0, 1} <= {count for M, e, count in want if e in set(forced_dims(M))}
    assert max(count for _, _, count in want) > 1

    def refuse(*args):
        raise AssertionError("a forced count enumerated subspaces")

    monkeypatch.setattr(subspaces, "_walk_tables", refuse)
    monkeypatch.setattr(subspaces, "_rank_distribution", refuse)
    memo.clear()
    for M, e, count in want:
        assert subspaces.grassmannian_count(M, e) == count


@settings(max_examples=60, deadline=None)
@given(modules([A2, A3, A3_SINK, D4, K], [2, 3, 5], max_dim=3, max_total=5))
def test_grassmannian_count_forced_rule_on_random_modules(M):
    """The forced count equals the rank-checked count on random modules,
    and a budget below 1 raises with the message of the walk it skips."""
    for e in forced_off_last(M):
        assert subspaces.grassmannian_count(M, e) == grassmannian_count_brute(M, e)
    e = tuple(M.dims)
    with pytest.raises(BudgetExceeded, match="^subspace search space 1 exceeds budget 0$"):
        subspaces.grassmannian_count(M, e, budget=0)


@pytest.mark.parametrize(
    "Q, text",
    [
        (A3, "P1 + 2*S1 + S2 + 2*S3"),
        (D4, "P1 + 2*S3 + S2 + 2*S4"),
        (K3, None),
    ],
    ids=["A3", "D4", "K3"],
)
def test_grassmannian_count_walks_once_per_head(Q, text, monkeypatch):
    """Every e_last reads one rank distribution: across all e with the
    same e on every vertex but the last, `_walk_tables` runs once, and
    every count equals the rank-checked one."""
    p = 3
    if text is None:
        M = random_rep(Q, (3, 3), p, np.random.default_rng(5))
    else:
        M = catalog.parse_symbol(text, Q).instantiate(p)
    *walked, last = Q.topological_order()
    walks = []
    real = subspaces._walk_tables
    monkeypatch.setattr(subspaces, "_walk_tables", lambda *args: walks.append(1) or real(*args))
    memo.clear()
    heads = 0
    for head in itertools.product(*[range(M.dims[v] + 1) for v in walked]):
        if all(k in (0, M.dims[v]) for v, k in zip(walked, head)):
            continue
        heads += 1
        for k in range(M.dims[last] + 1):
            e = [k] * Q.n
            for v, h in zip(walked, head):
                e[v] = h
            assert subspaces.grassmannian_count(M, e) == grassmannian_count_brute(M, e)
        assert len(walks) == heads
    assert heads > 1


@pytest.mark.parametrize("Q", [A2, K, A3], ids=["A2", "K", "A3"])
def test_grassmannian_count_budget_message(Q, monkeypatch):
    """One budget contract on every quiver: a cold call over budget raises
    `subspace search space N exceeds budget B`, N the product of
    [d_v choose e_v]_p over every vertex but the last, before any walk;
    after a default call fills the memo, the same call raises the same."""
    p = 3
    M = rep.direct_sum(*[rep.Rep.simple(Q, p, v) for v in range(Q.n) for _ in range(2)])
    e = (1,) * Q.n
    charge = 4 ** (Q.n - 1)  # [2 choose 1]_3 per vertex but the last
    message = f"^subspace search space {charge} exceeds budget {charge - 1}$"

    def refuse(*args):
        raise AssertionError("a count over budget walked the subspaces")

    memo.clear()
    with monkeypatch.context() as patch:
        patch.setattr(subspaces, "_walk_tables", refuse)
        with pytest.raises(BudgetExceeded, match=message):
            subspaces.grassmannian_count(M, e, budget=charge - 1)
    count = subspaces.grassmannian_count(M, e)
    assert count == grassmannian_count_brute(M, e)
    assert memo.TABLES["subspaces._rank_distribution"]
    with pytest.raises(BudgetExceeded, match=message):
        subspaces.grassmannian_count(M, e, budget=charge - 1)
    assert subspaces.grassmannian_count(M, e, budget=charge) == count


def test_echelon_table_is_shared_up_to_the_size_constant():
    """Spaces with at most ECHELON_TABLE_MAX subspaces read one shared table;
    a larger space is built for the call and never stored."""
    memo.clear()
    table = memo.TABLES["subspaces._echelon_table"]
    assert subspaces.subspace_count(4, 2, 5) <= subspaces.ECHELON_TABLE_MAX
    assert subspaces.subspace_count(4, 2, 7) > subspaces.ECHELON_TABLE_MAX
    bases = list(subspace_bases(4, 2, 5))
    assert list(table) == [(4, 2, 5)]
    shared = table[(4, 2, 5)]
    assert [U.rows for U in shared] == [b.tolist() for b in bases]
    again = subspaces._candidates(4, 2, 5)
    assert len(again) == len(shared) and all(a is b for a, b in zip(shared, again))
    assert sum(1 for _ in subspace_bases(4, 2, 7)) == subspaces.subspace_count(4, 2, 7)
    assert list(table) == [(4, 2, 5)]


def test_echelon_table_holds_no_arrays():
    """A shared `_Echelon` entry keeps rows and index tuples only; the
    arrays of `subspace_bases` are built from them per call."""
    memo.clear()
    for n, k, p in [(4, 2, 5), (3, 1, 2), (2, 0, 3), (2, 2, 3)]:
        table = subspaces._echelon_table(n, k, p)
        assert len(table) == subspaces.subspace_count(n, k, p)
        for U in table:
            assert not any(isinstance(field, np.ndarray) for field in U)


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


ORBIT_QUIVERS = [A2, A3, A3_SINK, D4, D4_SINK, K]


@functools.cache
def catalogue_pool(Q):
    """The catalogue symbols over Q with dims <= 2 per vertex, built once."""
    return symspace.all_symbols_up_to(Q, (2,) * Q.n)


@st.composite
def catalogue_modules(draw, quivers=ORBIT_QUIVERS, primes=(2, 3, 5, 7), max_total=5):
    """A nonzero catalogue module with dims <= 2 per vertex and total at
    most `max_total`, realised at a prime of `primes` either in the
    catalogue's basis, where its coefficient quiver falls into many
    components, or as a `conjugate` copy, where it seldom does."""
    Q = draw(st.sampled_from(quivers))
    p = draw(st.sampled_from(primes))
    pool = [
        s for s in catalogue_pool(Q)
        if s.admissible_prime(p) and 0 < sum(s.dims) <= max_total
    ]
    M = draw(st.sampled_from(pool)).instantiate(p)
    if draw(st.booleans()):
        M = conjugate(M, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return M


@settings(max_examples=100, deadline=None)
@given(catalogue_modules(max_total=4))
def test_orbit_census_matches_every_subrep_walk(M):
    """From cold memos, the memoized census (forced, split or orbit walk)
    and the orbit walk of all of M both equal the census counted over
    every point of the plain walk, items and key order included."""
    for e in itertools.product(*[range(d + 1) for d in M.dims]):
        memo.clear()
        want = _items(_result(walk_census, M, e))
        memo.clear()
        assert _items(_result(subspaces.hall_census, M, e)) == want
        memo.clear()
        got = _result(subspaces._census, M, e)
        assert _items(got) == want


def test_orbit_walk_keeps_the_first_point_of_each_orbit():
    """Gr_(1,0)(S1^2) over A_2 is P^1, in three orbits of the torus that
    scales the two copies of S1: [1 : 0], [0 : 1] and the p - 1 lines
    [1 : x] with x != 0.  The walk keeps [1 : 0], [1 : 1] (counted p - 1
    times) and [0 : 1], in the plain walk's order; at p = 2 nothing is
    cut."""
    for p in (2, 3, 5, 7):
        S1 = rep.Rep.simple(A2, p, 0)
        M = rep.direct_sum(S1, S1)
        candidates, _, chosen, walk = subspaces._orbit_walk(M, (1, 0))
        points = [(candidates[0][chosen[0]].rows, size) for size in walk]
        assert points == [([[1], [0]], 1), ([[1], [1]], p - 1), ([[0], [1]], 1)]
        assert subspaces.hall_census(M, (1, 0)) == {
            (((("root", (1, 0)), 1),), ((("root", (1, 0)), 1),)): p + 1
        }


def test_orbit_walk_cuts_before_any_block_is_built(monkeypatch):
    """No point outside the kept ones is classified: on 2*S2 + P1 over
    A_3 at p = 7 and e = (0, 1, 1), the census classifies one sub and one
    quotient per kept point, far fewer than the points of Gr_e(M)."""
    p = 7
    M = catalog.parse_symbol("2*S2 + P1", A3).instantiate(p)
    e = (0, 1, 1)
    points = sum(1 for _ in subrep_bases(M, e))
    classified = []
    real = catalog._decompose_rows
    monkeypatch.setattr(
        catalog, "_decompose_rows", lambda *args: classified.append(1) or real(*args)
    )
    memo.clear()
    census = subspaces._census(M, e)
    kept = sum(1 for _ in subspaces._orbit_walk(M, e)[3])
    assert sum(census.values()) == points
    assert len(classified) == 2 * kept < points


def test_chi_grassmannian_needs_no_orbit_walk(monkeypatch):
    """`grassmannian_count`, and so `cluster.chi_grassmannian`, has no
    torus orbits: with the orbit walk and the coefficient-quiver components
    made to raise, every χ(Gr_e) is what it was, so `CharTable`'s strata
    cross-check still tests the orbit census against a path of its own."""
    cases = [
        (catalog.parse_symbol(text, Q), e)
        for text, Q, e in [
            ("2*S2 + P1", A3, (0, 1, 1)),
            ("2*S2 + P1", A3, (1, 2, 1)),
            ("P2 + S1 + S3", A3_SINK, (1, 1, 0)),
            ("2*S1 + S2", K, (1, 1)),
            ("P[0,1] + S2", K, (0, 1)),
        ]
    ]
    memo.clear()
    want = [cluster.chi_grassmannian(sym, e) for sym, e in cases]

    def refuse(*args):
        raise AssertionError("the orbit walk was used")

    monkeypatch.setattr(subspaces, "_orbit_walk", refuse)
    monkeypatch.setattr(rep, "coefficient_components", refuse)
    memo.clear()
    assert [cluster.chi_grassmannian(sym, e) for sym, e in cases] == want
    # the patch is live: the census path does walk orbits
    sym, e = cases[0]
    with pytest.raises(AssertionError, match="orbit walk"):
        subspaces.hall_census(sym.instantiate(3), e)


@pytest.mark.parametrize("entry", ["hall_census", "census_view"])
def test_census_memo_hit_checks_the_budget(entry, monkeypatch):
    """A memo hit raises BudgetExceeded exactly as a fresh call does, and a
    hit with a larger budget still reads the memo.  On 2*S2 + P1 over A_3
    at p = 3 the walk at e = (0, 1, 1) is charged [3 choose 1]_3 = 13, and
    the forced census at e = (0, 0, 0) is charged 1."""
    p = 3
    M = catalog.parse_symbol("2*S2 + P1", A3).instantiate(p)
    classes = catalog.decompose(M)
    if entry == "hall_census":
        def call(e, budget):
            return subspaces.hall_census(M, e, budget=budget)
    else:
        def call(e, budget):
            return subspaces.census_view(M, e, budget, classes)
    for e, charge in [((0, 1, 1), 13), ((0, 0, 0), 1)]:
        memo.clear()
        with pytest.raises(BudgetExceeded) as cold:
            call(e, charge - 1)
        stored = call(e, subspaces.DEFAULT_SUBSPACE_BUDGET)
        with pytest.raises(BudgetExceeded) as hit:
            call(e, charge - 1)
        assert str(hit.value) == str(cold.value) == (
            f"subspace search space {charge} exceeds budget {charge - 1}"
        )
        monkeypatch.setattr(subspaces, "_census", None)  # a miss would fail
        assert call(e, charge) is stored
        monkeypatch.undo()


@pytest.mark.parametrize(
    "build, e, charge",
    [
        (lambda: catalog.parse_symbol("2*S2 + P1", A3).instantiate(3), (0, 1, 1), 13),
        (lambda: rep.direct_sum(*[rep.Rep.simple(A3, 2, v) for v in (0, 0, 2, 2)]), (1, 0, 1), 9),
        (lambda: catalog.parse_symbol("2*S2 + P1", A3).instantiate(3), (0, 0, 0), 1),
        (lambda: OUTSIDE_CATALOG, (1, 1), 9),
    ],
    ids=["walked", "split", "forced", "outside-catalogue"],
)
def test_cold_census_over_budget_enumerates_nothing(build, e, charge, monkeypatch):
    """A cold census over budget raises before it counts anything, on each
    of its paths: with `_census` made to fail, the message is the charge
    of the whole module (a split census is charged over all of M, not one
    part), and nothing is stored."""
    M = build()

    def refuse(*args):
        raise AssertionError("a census over budget was counted")

    monkeypatch.setattr(subspaces, "_census", refuse)
    memo.clear()
    with pytest.raises(BudgetExceeded, match=f"^subspace search space {charge} exceeds budget {charge - 1}$"):
        subspaces.hall_census(M, e, budget=charge - 1)
    assert not memo.TABLES["subspaces._class_census"]


def test_wrong_length_e_raises_value_error_under_any_budget():
    """A wrong-length e is charged nothing, so it raises ValueError, not
    BudgetExceeded, however small the budget, inside the catalogue and
    outside it."""
    M = rep.direct_sum(*[rep.Rep.simple(A3, 2, v) for v in (0, 0, 2, 2)])
    for module, e in [(M, (1, 0)), (OUTSIDE_CATALOG, (1,))]:
        memo.clear()
        with pytest.raises(ValueError, match="wrong length"):
            subspaces.hall_census(module, e, budget=0)
