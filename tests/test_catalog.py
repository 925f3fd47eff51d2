"""Tests for the indecomposable catalogs, decomposition and symbols.

Hand-derived facts used below:
  * Kronecker: P_0 = simple at vertex 2, I_0 = simple at vertex 1,
    tau P_n = P_{n-2} (n >= 2), tau I_n = I_{n+2}, regulars tau-fixed.
  * The pencil (A, B) = (Id, [[0,1],[1,1]]) is regular with B having
    characteristic polynomial t^2 - t - 1, which is irreducible over F_2
    and F_3 (its tube sits at a point of P^1 with quadratic residue
    field, outside the catalog) but factors as (t-3)^2 over F_5, where
    the module IS the catalog module R(3, 2).
  * On 1 -> 2: tau S_1 = S_2; P(1) and S_2 projective, S_1 injective.
"""

import importlib
import inspect
import itertools
import pkgutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hallchar
from hallchar import catalog, linalg, memo, rep
from hallchar.catalog import (
    INF,
    ModuleSymbol,
    decompose,
    decomposition_dims,
    fingerprint_of_classes,
    lam_of_tag,
    min_prime_for_symbols,
    min_prime_for_tags,
    module_from_class,
    next_prime,
    parse_symbol,
    prime_admissible_for_tags,
    primes_from,
    sort_classes,
    translate_class,
    translate_class_inverse,
)
from hallchar.errors import ComputationError, OutsideCatalog, UnsupportedQuiver
from hallchar.quiver import Quiver, kronecker_quiver, linear_quiver
from test_quiver import dynkin_orientations, dynkin_quiver
from test_rep import (
    arrays,
    aut_count_brute,
    conjugate,
    is_isomorphic,
    kron_constraint_matrix,
    random_rep,
)
from test_subspaces import _result, modules

K = kronecker_quiver()
A2 = linear_quiver(2)
A3 = linear_quiver(3)
D4 = Quiver(4, [(0, 1), (2, 1), (1, 3)])
A3_SOURCE = Quiver(3, [(1, 0), (1, 2)])


def test_kronecker_catalog_modules():
    p = 5
    p0 = module_from_class(K, ("P", 0), p)
    assert p0.dims == (0, 1)
    assert is_isomorphic(p0, rep.Rep.simple(K, p, 1))
    i0 = module_from_class(K, ("I", 0), p)
    assert i0.dims == (1, 0)
    p2 = module_from_class(K, ("P", 2), p)
    assert p2.dims == (2, 3)
    assert rep.hom_dim(p2, p2) == 1  # indecomposable
    i2 = module_from_class(K, ("I", 2), p)
    assert i2.dims == (3, 2)
    assert rep.hom_dim(i2, i2) == 1
    r = module_from_class(K, ("Rc", 3, 2), p)
    assert r.dims == (2, 2)
    assert rep.hom_dim(r, r) == 2  # F_p[t]/t^2
    rinf = module_from_class(K, ("Rc", INF, 1), p)
    assert np.array_equal(rinf.mats[0], np.zeros((1, 1), dtype=np.int64))
    assert np.array_equal(rinf.mats[1], np.eye(1, dtype=np.int64))


def test_dynkin_catalog_modules():
    p = 3
    for root in A3.positive_roots():
        M = module_from_class(A3, ("root", root), p)
        assert M.dims == root
        assert rep.hom_dim(M, M) == 1


def test_dynkin_indec_nonlinear_orientation():
    # A_3 with a source in the middle: 1 <- 2 -> 3
    Q = Quiver(3, [(1, 0), (1, 2)])
    assert Q.is_dynkin()
    p = 3
    for root in Q.positive_roots():
        M = module_from_class(Q, ("root", root), p)
        assert M.dims == root
        assert rep.hom_dim(M, M) == 1


E_QUIVERS = {
    f"e{n}-{name}": dynkin_quiver("E", n, [flip and k % 2 == 0 for k in range(n - 1)])
    for n in (6, 7, 8)
    for name, flip in (("path", False), ("alternating", True))
}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("quiver", list(E_QUIVERS.values()), ids=list(E_QUIVERS))
def test_coxeter_walk_builds_every_e_root(quiver, p, monkeypatch):
    """Every root of E_6, E_7 and E_8 in two orientations has its
    indecomposable, certified by dims and End = F_p, with no random search."""

    def no_random(*args, **kwargs):
        raise AssertionError("random generator called")

    monkeypatch.setattr(np.random, "default_rng", no_random)
    memo.clear()
    table = catalog._coxeter_walk(quiver, p)
    assert sorted(table) == sorted(quiver.positive_roots())
    for root, M in table.items():
        assert M.dims == root
        assert rep.hom_dim(M, M) == 1


def test_coxeter_walk_checks_every_step(monkeypatch):
    with pytest.raises(ComputationError, match="not the dimension of an indecomposable"):
        module_from_class(A3, ("root", (1, 0, 1)), 2)
    with pytest.raises(UnsupportedQuiver):
        module_from_class(K, ("root", (1, 0)), 2)
    memo.clear()
    monkeypatch.setattr(Quiver, "coxeter", lambda self, d: tuple(d))
    # the walk starts at the injective of the first vertex in topological
    # order, the source 2 of 1 <- 2 -> 3: I(2) = S_2, and tau S_2 = P(2)
    with pytest.raises(ComputationError, match=r"tau of \(0, 1, 0\) has dimension \(1, 1, 1\), not \(0, 1, 0\)"):
        catalog._coxeter_walk(A3_SOURCE, 2)
    assert not memo.TABLES["catalog._coxeter_walk"]


def test_one_dynkin_construction_path():
    """The Coxeter walk is the only way a Dynkin indecomposable is built:
    no module of hallchar draws random matrices or hashes a seed."""
    for info in pkgutil.iter_modules(hallchar.__path__):
        source = inspect.getsource(importlib.import_module(f"hallchar.{info.name}"))
        assert "zlib" not in source, info.name
        assert "random_rep(" not in source.replace("def random_rep(", ""), info.name


def aut_count(M, decomp=None):
    """|Aut M| via the Krull-Schmidt decomposition."""
    if decomp is None:
        decomp = decompose(M)
    return rep.aut_count_from_mults(M, [mult for _, mult in decomp])


def _certified(M):
    """decompose(M), certified by an isomorphism between M and the direct
    sum of the catalogue modules it names."""
    decomp = decompose(M)
    assert is_isomorphic(M, catalog.module_from_classes(M.quiver, decomp, M.p)), decomp
    return decomp


def test_decompose_dynkin():
    p = 2
    s1 = rep.Rep.simple(A2, p, 0)
    P1 = module_from_class(A2, ("root", (1, 1)), p)
    M = rep.direct_sum(P1, s1)
    assert _certified(M) == (
        (("root", (1, 0)), 1),
        (("root", (1, 1)), 1),
    )
    # rank-1 map on dims (2,2): P(1) + S_1 + S_2
    N = rep.Rep(A2, p, (2, 2), [np.array([[1, 0], [0, 0]], dtype=np.int64)])
    assert decompose(N) == (
        (("root", (0, 1)), 1),
        (("root", (1, 0)), 1),
        (("root", (1, 1)), 1),
    )
    # full-rank map on dims (2,2): P(1)^2
    F = rep.Rep(A2, p, (2, 2), [np.eye(2, dtype=np.int64)])
    assert _certified(F) == ((("root", (1, 1)), 2),)
    assert decompose(rep.Rep.zero(A2, p)) == ()


def test_decompose_kronecker_catalog_cases():
    p = 3
    P1 = module_from_class(K, ("P", 1), p)
    assert _certified(P1) == ((("P", 1), 1),)
    M = rep.direct_sum(
        module_from_class(K, ("Rc", 0, 1), p), module_from_class(K, ("Rc", 1, 1), p)
    )
    assert _certified(M) == (
        (("Rc", 0, 1), 1),
        (("Rc", 1, 1), 1),
    )
    J = module_from_class(K, ("Rc", 0, 2), p)
    assert decompose(J) == ((("Rc", 0, 2), 1),)
    split = rep.direct_sum(
        module_from_class(K, ("Rc", 0, 1), p), module_from_class(K, ("Rc", 0, 1), p)
    )
    assert decompose(split) == ((("Rc", 0, 1), 2),)
    mixed = rep.direct_sum(
        module_from_class(K, ("P", 0), p),
        module_from_class(K, ("I", 0), p),
    )
    assert _certified(mixed) == ((("P", 0), 1), (("I", 0), 1))
    big = rep.direct_sum(
        module_from_class(K, ("P", 1), p),
        module_from_class(K, ("I", 1), p),
        module_from_class(K, ("Rc", INF, 1), p),
    )
    assert _certified(big) == (
        (("P", 1), 1),
        (("Rc", INF, 1), 1),
        (("I", 1), 1),
    )


def test_decompose_kronecker_outside_catalog():
    # A = Id, B with characteristic polynomial t^2 - t - 1: irreducible
    # over F_2 and F_3, a square (t-3)^2 over F_5
    B = np.array([[0, 1], [1, 1]], dtype=np.int64)
    for p in (2, 3):
        M = rep.Rep(K, p, (2, 2), [np.eye(2, dtype=np.int64), B])
        with pytest.raises(OutsideCatalog):
            decompose(M)
    N = rep.Rep(K, 5, (2, 2), [np.eye(2, dtype=np.int64), B])
    assert _certified(N) == ((("Rc", 3, 2), 1),)


def test_aut_count_via_decomposition():
    p = 3
    r = module_from_class(K, ("Rc", 0, 1), p)
    M = rep.direct_sum(r, r)
    assert aut_count(M) == aut_count_brute(M) == 48  # |GL_2(F_3)|
    N = rep.direct_sum(
        module_from_class(A2, ("root", (1, 1)), 2), rep.Rep.simple(A2, 2, 0)
    )
    assert aut_count(N) == aut_count_brute(N) == 2
    # R(0,2) over F_2: End = F_2[t]/t^2, units = {1, 1+t} -> 2
    J = module_from_class(K, ("Rc", 0, 2), 2)
    assert aut_count(J) == aut_count_brute(J) == 2


def test_translate_classes():
    # 1 -> 2: tau S_1 = S_2, projectives killed, tau^{-1} S_2 = S_1
    assert translate_class(A2, ("root", (1, 0))) == ("root", (0, 1))
    assert translate_class(A2, ("root", (0, 1))) is None
    assert translate_class(A2, ("root", (1, 1))) is None
    assert translate_class_inverse(A2, ("root", (0, 1))) == ("root", (1, 0))
    assert translate_class_inverse(A2, ("root", (1, 0))) is None
    assert translate_class(K, ("P", 3)) == ("P", 1)
    assert translate_class(K, ("P", 1)) is None
    assert translate_class(K, ("P", 0)) is None
    assert translate_class(K, ("I", 0)) == ("I", 2)
    assert translate_class_inverse(K, ("I", 2)) == ("I", 0)
    assert translate_class_inverse(K, ("I", 1)) is None
    assert translate_class_inverse(K, ("P", 0)) == ("P", 2)
    assert translate_class(K, ("Rc", 4, 2)) == ("Rc", 4, 2)
    assert translate_class(K, ("R", 0, 1)) == ("R", 0, 1)


def test_vertex_of_class():
    assert catalog.projective_vertex_of_class(A2, ("root", (0, 1))) == 1
    assert catalog.projective_vertex_of_class(A2, ("root", (1, 1))) == 0
    assert catalog.projective_vertex_of_class(A2, ("root", (1, 0))) is None
    assert catalog.injective_vertex_of_class(A2, ("root", (1, 0))) == 0
    assert catalog.injective_vertex_of_class(A2, ("root", (1, 1))) == 1
    assert catalog.projective_vertex_of_class(K, ("P", 0)) == 1
    assert catalog.projective_vertex_of_class(K, ("P", 1)) == 0
    assert catalog.projective_vertex_of_class(K, ("P", 2)) is None
    assert catalog.injective_vertex_of_class(K, ("I", 0)) == 0
    assert catalog.injective_vertex_of_class(K, ("I", 1)) == 1
    assert catalog.injective_vertex_of_class(K, ("Rc", 0, 1)) is None


def test_fingerprints():
    a = parse_symbol("R(1,1)@0 + R(1,1)@1", K)
    b = parse_symbol("R(1,1)@3 + R(1,1)@5", K)
    c = parse_symbol("2*R(1,1)@0", K)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    # abstract vs concrete fingerprints agree
    sym = parse_symbol("R(1,1)@0 + R(2,2)@1 + P1", K)
    concrete = (
        (("P", 1), 1),
        (("Rc", 4, 1), 1),
        (("Rc", INF, 2), 1),
    )
    assert sym.fingerprint() == fingerprint_of_classes(concrete)


def test_symbol_parse_and_print_roundtrip():
    s = parse_symbol("S1 + 2*P[1,2] + R(1,1) + R(1,1)", K)
    assert str(s) == "2*P[1,2]+R(1,1)@0+R(1,1)@1+I[1,0]"
    assert parse_symbol(str(s), K) == s
    assert s.dims == (1 + 2 * 1 + 1 + 1, 2 * 2 + 1 + 1)
    t = parse_symbol("0", A2)
    assert t.is_zero() and str(t) == "0" and t.dims == (0, 0)
    u = parse_symbol("P2 + S2 + M[1,1,1]", A3)
    assert u.atoms == (
        (("root", (0, 1, 0)), 1),
        (("root", (0, 1, 1)), 1),
        (("root", (1, 1, 1)), 1),
    )
    assert str(u) == "M[0,1,0]+M[0,1,1]+M[1,1,1]"
    # multiplicity merging: S1+S1 == 2*S1
    assert parse_symbol("S1+S1", A2) == parse_symbol("2*S1", A2)


def test_symbol_parse_errors():
    with pytest.raises(ValueError):
        parse_symbol("M[2,1]", A2)  # not a root
    with pytest.raises(ValueError):
        parse_symbol("M[1,1]@0", A2)  # tags need the Kronecker quiver
    with pytest.raises(ValueError):
        parse_symbol("M[3,1]", K)  # no indecomposable of that size
    with pytest.raises(ValueError):
        parse_symbol("M[1,1,1]", K)  # wrong length
    with pytest.raises(ValueError):
        parse_symbol("Q7", A2)
    with pytest.raises(ValueError):
        parse_symbol("P[1,2]@0", K)  # tag on a non-regular
    with pytest.raises(ValueError):
        parse_symbol("S5", A2)


def test_symbol_instantiate():
    p = 5
    s = parse_symbol("P1", A2)
    M = s.instantiate(p)
    assert is_isomorphic(M, module_from_class(A2, ("root", (1, 1)), p))
    k = parse_symbol("R(1,1)@0 + R(1,1)@2 + P2", K)
    N = k.instantiate(p)
    assert N.dims == (2, 3)
    assert decompose(N) == (
        (("P", 0), 1),
        (("Rc", 0, 1), 1),
        (("Rc", INF, 1), 1),
    )
    # round trip through decompose keeps the fingerprint
    assert fingerprint_of_classes(decompose(N)) == k.fingerprint()


def test_symbol_min_prime_and_admissibility():
    # tags 0,1 materialize to 0,1: distinct mod 2 already
    assert parse_symbol("R(1,1)@0+R(1,1)@1", K).min_prime() == 2
    # tags 0,1,3 materialize to 0,1,2: need p >= 3
    s = parse_symbol("R(1,1)@0+R(1,1)@1+R(1,1)@3", K)
    assert s.min_prime() == 3
    assert not s.admissible_prime(2)
    # the message lists the tags, and keeps doing so once they are memoized
    for _ in range(2):
        with pytest.raises(ValueError, match=r"tube tags \[0, 1, 3\] collide mod 2$"):
            s.concrete_classes(2)
    with pytest.raises(ValueError):
        s.instantiate(2)
    assert s.tags() == [0, 1, 3]
    # tag 2 is the point at infinity, never collides
    assert parse_symbol("R(1,1)@0+R(1,1)@2", K).min_prime() == 2
    # tags 1 and 4 materialize to 1 and 3: they collide mod 2, split mod 3
    a = parse_symbol("R(1,1)@1", K)
    b = parse_symbol("R(1,1)@4", K)
    assert min_prime_for_symbols([a, b]) == 3
    assert min_prime_for_tags([1, 4]) == 3


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 30), max_size=5))
@example({0, 4})  # values 0 and 3: split mod 2, collide mod 3
def test_min_prime_for_tags_is_a_floor(tags):
    # every prime from the floor on keeps the tags apart, and the prime
    # just below the floor does not
    floor = min_prime_for_tags(tags)
    p = floor
    while p < 50:
        assert prime_admissible_for_tags(tags, p)
        p = next_prime(p)
    below = [q for q in range(2, floor) if next_prime(q - 1) == q]
    if below:
        assert not prime_admissible_for_tags(tags, below[-1])


def test_symbol_direct_sum_shares_tags():
    a = parse_symbol("R(1,1)@0", K)
    b = parse_symbol("R(2,2)@0", K)
    c = a.direct_sum(b)
    assert c.fingerprint() == parse_symbol("R(1,1)@0+R(2,2)@0", K).fingerprint()
    assert len(c.tags()) == 1


def test_general_quiver_vertex_atoms():
    # three parallel arrows: not Dynkin, not Kronecker
    Q = Quiver(2, [(0, 1), (0, 1), (0, 1)])
    p = 3
    s = parse_symbol("P1", Q)
    P = s.instantiate(p)
    assert P.dims == (1, 3)
    rng = np.random.default_rng(0)
    M = random_rep(Q, (2, 2), p, rng)
    assert rep.ext1_dim(P, M) == 0  # projectives have no extensions
    inj = parse_symbol("I2", Q).instantiate(p)
    assert inj.dims == (3, 1)
    assert rep.ext1_dim(M, inj) == 0
    simple = parse_symbol("S2", Q).instantiate(p)
    assert simple.dims == (0, 1)


def test_projective_rep_on_a3():
    p = 2
    P2 = parse_symbol("P2", A3).instantiate(p)
    assert P2.dims == (0, 1, 1)
    I2 = parse_symbol("I2", A3).instantiate(p)
    assert I2.dims == (1, 1, 0)
    assert rep.hom_dim(P2, P2) == 1


def test_prime_helpers():
    assert next_prime(2) == 3
    assert next_prime(7) == 11
    assert primes_from(2, 5) == (2, 3, 5, 7, 11)
    assert primes_from(4, 2) == (5, 7)
    assert lam_of_tag(0, 7) == 0
    assert lam_of_tag(1, 7) == 1
    assert lam_of_tag(2, 7) == INF
    assert lam_of_tag(5, 7) == 4
    assert catalog.simple_projective_vertices(A3) == [2]
    assert catalog.simple_projective_vertices(K) == [1]


@pytest.mark.parametrize(
    "quiver",
    [Quiver(3, [(1, 0), (1, 2)]), Quiver(4, [(0, 1), (2, 1), (1, 3)])],
    ids=["a3-source-middle", "d4"],
)
@pytest.mark.parametrize("p", [2, 3])
def test_decompose_dynkin_sum_of_all_indecomposables(quiver, p):
    roots = quiver.positive_roots()
    assert len(roots) == (6 if quiver.n == 3 else 12)
    M = rep.direct_sum(*(module_from_class(quiver, ("root", r), p) for r in roots))
    decomp = _certified(M)
    assert decomp == catalog.sort_classes([(("root", r), 1) for r in roots])


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", list(E_QUIVERS))
def test_decompose_every_e_root_to_itself(name, p):
    """A conjugated copy of every indecomposable of E_6, E_7 and E_8, in two
    orientations, decomposes to itself."""
    Q = E_QUIVERS[name]
    rng = np.random.default_rng(p)
    memo.clear()
    for root in Q.positive_roots():
        M = conjugate(module_from_class(Q, ("root", root), p), rng)
        assert decompose(M) == ((("root", root), 1),)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([("A", n) for n in range(2, 6)] + [("D", 4), ("D", 5), ("E", 6)]).flatmap(
        lambda kn: dynkin_orientations(*kn)
    ),
    st.sampled_from([2, 3]),
)
def test_walk_order_reads_hom_off_the_euler_form(Q, p):
    """In any orientation, in the walk's order, the solved dim Hom(X_s, X_r)
    is the Euler form <x_s, x_r> for s <= r and 0 for s > r: the table
    `_decompose_dynkin` substitutes against, with one entry per root."""
    walk = catalog._coxeter_walk(Q, p)
    assert sorted(walk) == sorted(Q.positive_roots())
    items = list(walk.items())
    for r, (x, X) in enumerate(items):
        for s, (y, Y) in enumerate(items):
            assert _oracle_hom_dim(Y, X) == (Q.euler_form(y, x) if s <= r else 0), (y, x)


def test_coxeter_walk_checks_its_order(monkeypatch):
    """In the reverse of the walk's order the Euler-form check fails: the
    walk raises and stores nothing."""
    orbits = catalog._tau_orbits
    monkeypatch.setattr(catalog, "_tau_orbits", lambda Q, p: reversed(list(orbits(Q, p))))
    memo.clear()
    with pytest.raises(ComputationError, match="not an Auslander-Reiten order"):
        catalog._coxeter_walk(A3_SOURCE, 2)
    assert not memo.TABLES["catalog._coxeter_walk"]


def test_coxeter_walk_checks_both_sides_of_its_order(monkeypatch):
    """Over 1 -> 2 the walk order M[1,1], S2, S1 keeps <x_s, x_r> >= 0 for
    every s before r, but <S2, M[1,1]> = 1 > 0: the walk raises and stores
    nothing."""
    modules = dict(catalog._tau_orbits(A2, 2))
    visits = [(1, 0), (0, 1), (1, 1)]  # the walk lists them in reverse
    monkeypatch.setattr(catalog, "_tau_orbits", lambda Q, p: [(r, modules[r]) for r in visits])
    memo.clear()
    with pytest.raises(ComputationError, match=r"^\(1, 1\) before \(0, 1\) is not an"):
        catalog._coxeter_walk(A2, 2)
    assert not memo.TABLES["catalog._coxeter_walk"]


# -- the decomposition memo ----------------------------------------------------


@pytest.fixture
def cold_memo():
    """Every memo empty for this test; returns the decomposition table."""
    memo.clear()
    yield memo.TABLES["catalog.decompose"]
    memo.clear()


@pytest.fixture
def decomposer_calls(monkeypatch):
    """Count the calls into the Dynkin and Kronecker decomposers, the work
    a memo hit saves."""
    calls = []
    for name in ("_decompose_dynkin", "_decompose_kronecker"):

        def counting(*args, real=getattr(catalog, name)):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(catalog, name, counting)
    return calls


@pytest.fixture
def hom_dim_calls(monkeypatch):
    """Count the calls of rep.hom_dim made through the catalog."""
    calls = []
    real = rep.hom_dim

    def counting(M, N):
        calls.append(1)
        return real(M, N)

    monkeypatch.setattr(rep, "hom_dim", counting)
    return calls


def _a3_sample(p):
    return rep.direct_sum(
        module_from_class(A3, ("root", (1, 1, 0)), p),
        module_from_class(A3, ("root", (0, 1, 1)), p),
        module_from_class(A3, ("root", (1, 1, 1)), p),
    )


def test_decompose_memo_repeat_solves_no_hom(cold_memo, decomposer_calls):
    for M in (_a3_sample(3), module_from_class(K, ("Rc", 2, 2), 3)):
        first = decompose(M)
        solved = len(decomposer_calls)
        assert solved > 0
        assert decompose(M) == first
        assert len(decomposer_calls) == solved
        decomposer_calls.clear()


def test_decompose_memo_conjugated_copy(cold_memo):
    rng = np.random.default_rng(11)
    p = 5
    kron = rep.direct_sum(
        module_from_class(K, ("P", 1), p),
        module_from_class(K, ("Rc", 3, 2), p),
        module_from_class(K, ("Rc", INF, 1), p),
    )
    for M in (_a3_sample(p), kron):
        first = decompose(M)
        N = conjugate(M, rng)
        assert M.mats != N.mats
        assert _certified(N) == first
    assert len(cold_memo) == 4


def test_decompose_memo_does_not_store_outside_catalog(cold_memo):
    B = np.array([[0, 1], [1, 1]], dtype=np.int64)
    M = rep.Rep(K, 2, (2, 2), [np.eye(2, dtype=np.int64), B])
    for _ in range(2):
        with pytest.raises(OutsideCatalog):
            decompose(M)
    assert cold_memo == {}


def test_clear_census_cache_clears_decompose_memo(cold_memo, decomposer_calls):
    M = _a3_sample(3)
    decompose(M)
    assert cold_memo
    memo.clear()
    assert cold_memo == {}
    decomposer_calls.clear()
    decompose(M)
    assert decomposer_calls


def test_certificate_rejects_a_wrong_memo_entry(cold_memo, monkeypatch):
    """`_certified` checks every call, a memo hit included: a decomposition
    with the right dimension vector but the wrong summands is stored once
    and rejected on the miss and on the hit."""
    p = 2
    M = rep.direct_sum(module_from_class(A2, ("root", (1, 1)), p), rep.Rep.simple(A2, p, 0))
    wrong = ((("root", (0, 1)), 1), (("root", (1, 0)), 2))
    monkeypatch.setattr(catalog, "_decompose_dynkin", lambda *args: wrong)
    for _ in range(2):
        with pytest.raises(AssertionError):
            _certified(M)
    assert list(cold_memo.values()) == [wrong]


# -- the module memo -----------------------------------------------------------


def test_module_from_classes_memo_is_the_direct_sum_and_read_only():
    p = 3
    cases = [
        (A3, ((("root", (1, 1, 0)), 2), (("root", (0, 1, 1)), 1))),
        (K, ((("P", 1), 1), (("Rc", 2, 2), 1), (("I", 0), 2))),
        (K, ()),
    ]
    for Q, classes in cases:
        M = catalog.module_from_classes(Q, classes, p)
        assert catalog.module_from_classes(Q, classes, p) is M
        parts = [module_from_class(Q, cls, p) for cls, mult in classes for _ in range(mult)]
        want = rep.direct_sum(*parts) if parts else rep.Rep.zero(Q, p)
        assert M.dims == want.dims
        assert M.mats == want.mats
        # tuples all the way down: no caller can write to a shared module
        for m in (M.mats, *M.mats, *itertools.chain(*M.mats)):
            assert type(m) is tuple
            with pytest.raises(TypeError, match="does not support item assignment"):
                m[0] = 0
        assert all(type(x) is int for row in itertools.chain(*M.mats) for x in row)


def test_symbol_dims_match_decomposition():
    for text, Q in (("2*M[1,1,0]+S3", A3), ("P[1,2]+R(1,1)@0", K), ("0", K)):
        sym = parse_symbol(text, Q)
        assert sym.dims == catalog.decomposition_dims(Q, sym.atoms)


# -- Kronecker decomposition from pencil ranks -----------------------------------


def _kron_hom(Q, p, cls, M, reverse=False):
    if cls[0] == "Rc" and cls[2] == 0:
        return 0
    X = module_from_class(Q, cls, p)
    return rep.hom_dim(M, X) if reverse else rep.hom_dim(X, M)


def decompose_kronecker_oracle(M):
    """The Hom-scan decomposer the rank route replaced: every Hom dimension
    is solved against a catalogue module with `rep.hom_dim`."""
    Q, p = M.quiver, M.p
    d1, d2 = M.dims
    out = []
    # preprojectives P_n (not injective): almost-split sequence starting at
    # P_n is 0 -> P_n -> P_{n+1}^2 -> P_{n+2} -> 0
    for n in range(0, d1 + 1):
        if n + 1 > d2:
            break
        mult = (
            _kron_hom(Q, p, ("P", n), M)
            - 2 * _kron_hom(Q, p, ("P", n + 1), M)
            + _kron_hom(Q, p, ("P", n + 2), M)
        )
        if mult:
            out.append((("P", n), mult))
    # preinjectives I_n (not projective): sequence ending at I_n is
    # 0 -> I_{n+2} -> I_{n+1}^2 -> I_n -> 0
    for n in range(0, d2 + 1):
        if n + 1 > d1:
            break
        mult = (
            _kron_hom(Q, p, ("I", n), M, reverse=True)
            - 2 * _kron_hom(Q, p, ("I", n + 1), M, reverse=True)
            + _kron_hom(Q, p, ("I", n + 2), M, reverse=True)
        )
        if mult:
            out.append((("I", n), mult))
    # regulars: homogeneous tubes, sequence 0 -> R_m -> R_{m-1}+R_{m+1} -> R_m -> 0
    remaining = np.array(M.dims) - np.array(decomposition_dims(Q, out))
    if remaining.any():
        for lam in list(range(p)) + [INF]:
            if _kron_hom(Q, p, ("Rc", lam, 1), M) == 0:
                continue
            for m in range(1, min(d1, d2) + 1):
                mult = (
                    2 * _kron_hom(Q, p, ("Rc", lam, m), M)
                    - _kron_hom(Q, p, ("Rc", lam, m - 1), M)
                    - _kron_hom(Q, p, ("Rc", lam, m + 1), M)
                )
                if mult:
                    out.append((("Rc", lam, m), mult))
    for cls, mult in out:
        if mult < 0:
            raise ComputationError(f"negative multiplicity {mult} for {cls}")
    decomp = sort_classes(out)
    if decomposition_dims(Q, decomp) != M.dims:
        raise OutsideCatalog(
            "part of the module lives in a tube at a point of P^1 with "
            "residue field larger than F_p"
        )
    return decomp


def _irreducible_quadratics(p):
    """(a, b) with t^2 - a*t - b irreducible over F_p, i.e. without a root."""
    return [
        (a, b)
        for a in range(p)
        for b in range(p)
        if all((x * x - a * x - b) % p for x in range(p))
    ]


def _degree2_tube_module(p, f, m):
    """F_p[t]/f^m at the degree-2 point of P^1 given by f = t^2 - a*t - b:
    A = Id, B block upper bidiagonal with the companion matrix of f on the
    diagonal and Id_2 beside it (f is separable, so f(B) != 0 for m = 2)."""
    a, b = f
    B = np.zeros((2 * m, 2 * m), dtype=np.int64)
    for i in range(0, 2 * m, 2):
        B[i : i + 2, i : i + 2] = [[0, b], [1, a]]
        if i + 2 < 2 * m:
            B[i : i + 2, i + 2 : i + 4] = np.eye(2, dtype=np.int64)
    return rep.Rep(K, p, (2 * m, 2 * m), [np.eye(2 * m, dtype=np.int64), B])


@st.composite
def kronecker_modules(draw, max_dims=(4, 4)):
    """A random pencil, or a conjugated direct sum of P_n, I_n, ("Rc", lam, m)
    and degree-2 tube modules, over F_p for p in {2, 3, 5, 7}."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        d1, d2 = (draw(st.integers(0, d)) for d in max_dims)
        mats = []
        for _ in range(2):
            entries = draw(st.lists(st.integers(0, p - 1), min_size=d1 * d2, max_size=d1 * d2))
            mats.append(np.array(entries, dtype=np.int64).reshape(d2, d1))
        return rep.Rep(K, p, (d1, d2), mats)
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["P", "I", "Rc", "deg2"]))
        if kind in ("P", "I"):
            part = module_from_class(K, (kind, draw(st.integers(0, 3))), p)
        elif kind == "Rc":
            lam = draw(st.sampled_from(list(range(p)) + [INF]))
            part = module_from_class(K, ("Rc", lam, draw(st.integers(1, 3))), p)
        else:
            f = draw(st.sampled_from(_irreducible_quadratics(p)))
            part = _degree2_tube_module(p, f, draw(st.integers(1, 2)))
        dims = [sum(d) for d in zip(part.dims, *(q.dims for q in parts))]
        if all(d <= top for d, top in zip(dims, max_dims)):
            parts.append(part)
    M = rep.direct_sum(*parts) if parts else rep.Rep.zero(K, p)
    return conjugate(M, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=200, deadline=None)
@given(kronecker_modules())
@example(rep.Rep(K, 2, (2, 2), [np.eye(2, dtype=np.int64), [[0, 1], [1, 1]]]))
@example(rep.direct_sum(_degree2_tube_module(3, (0, 2), 1), module_from_class(K, ("Rc", 1, 2), 3)))
@example(rep.direct_sum(_degree2_tube_module(2, (1, 1), 1), module_from_class(K, ("I", 1), 2)))
def test_decompose_kronecker_matches_hom_scan_oracle(M):
    """From a cold memo, the rank route returns the oracle's decomposition
    or raises the oracle's exception type."""
    memo.clear()
    got = _result(decompose, M)
    assert got == _result(decompose_kronecker_oracle, M)


def test_decompose_kronecker_builds_no_catalog_module(cold_memo, hom_dim_calls, monkeypatch):
    built = []
    real = catalog.module_from_class
    M = rep.direct_sum(
        real(K, ("P", 1), 5), real(K, ("Rc", 3, 2), 5), real(K, ("I", 0), 5)
    )
    monkeypatch.setattr(catalog, "module_from_class", lambda *args: built.append(args))
    assert decompose(M) == ((("P", 1), 1), (("Rc", 3, 2), 1), (("I", 0), 1))
    assert hom_dim_calls == [] and built == []


def _pencil_test_modules(p):
    rng = np.random.default_rng(p)
    dims = [(0, 0), (0, 2), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3), (3, 3)]
    mods = [random_rep(K, d, p, rng) for d in dims]
    parts = [("P", 1), ("Rc", 0, 2), ("Rc", INF, 1), ("I", 0)]
    mods.append(rep.direct_sum(*(module_from_class(K, cls, p) for cls in parts)))
    return mods


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pencil_rank_formulas_match_hom_dim(p):
    """Each Hom dimension the Kronecker decomposer reads off the pencil
    (A, B) of M, against `rep.hom_dim` on the catalogue module."""
    pencil_hom = catalog._pencil_hom
    for M in _pencil_test_modules(p):
        d1, d2 = M.dims
        A, B = M.mats
        At, Bt = (m.T.tolist() for m in arrays(M))
        # P_0 and I_0 are the simples at vertices 2 and 1; P_1 and I_1 give
        # no block rows, so the rank formula reads d1 and d2 for them
        assert rep.hom_dim(module_from_class(K, ("P", 0), p), M) == d2
        assert rep.hom_dim(M, module_from_class(K, ("I", 0), p)) == d1
        assert pencil_hom(B, A, 0, 1, d1, p) == d1
        assert pencil_hom(Bt, At, 0, 1, d2, p) == d2
        for n in range(1, 4):
            P, I = (module_from_class(K, (kind, n), p) for kind in "PI")
            assert rep.hom_dim(P, M) == pencil_hom(B, A, n - 1, n, d1, p)
            assert rep.hom_dim(M, I) == pencil_hom(Bt, At, n - 1, n, d2, p)
        for lam in list(range(p)) + [INF]:
            if lam == INF:
                C, D = A, B
            else:
                C = [[(b - lam * a) % p for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
                D = A
            for m in range(4):
                R = module_from_class(K, ("Rc", lam, m), p)
                assert rep.hom_dim(R, M) == pencil_hom(C, D, m, m, d1, p)


@st.composite
def summand_pairs(draw):
    """Two random modules over A_3, a D_4 orientation or Kronecker at
    p in {2, 3, 5}, and a seed for conjugating their direct sum."""
    Q = draw(st.sampled_from([A3, D4, K]))
    p = draw(st.sampled_from([2, 3, 5]))

    def part():
        dims = draw(st.lists(st.integers(0, 2), min_size=Q.n, max_size=Q.n))
        mats = []
        for s, t in Q.arrows:
            size = dims[t] * dims[s]
            entries = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
            mats.append(np.array(entries, dtype=np.int64).reshape(dims[t], dims[s]))
        return rep.Rep(Q, p, dims, mats)

    return part(), part(), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(summand_pairs())
def test_decompose_direct_sum_merges_the_parts(case):
    """decompose of a conjugated X + Y is the merge of decompose(X) and
    decompose(Y); a part outside the catalogue keeps the sum outside."""
    X, Y, seed = case
    got = _result(decompose, conjugate(rep.direct_sum(X, Y), np.random.default_rng(seed)))
    parts = [_result(decompose, X), _result(decompose, Y)]
    if OutsideCatalog in parts:
        assert got is OutsideCatalog
        return
    merged = {}
    for decomp in parts:
        for cls, mult in decomp:
            merged[cls] = merged.get(cls, 0) + mult
    assert got == sort_classes(merged.items())


# -- rows-level classification against the Hom-solve decomposer ----------------


def _oracle_hom_dim(M, N):
    """dim Hom(M, N) solved on the Kronecker-product constraint matrix."""
    C = kron_constraint_matrix(M, N)
    return C.shape[1] - int(linalg.rank_mod(C, M.p))


def _unimodular_inverse(A):
    """Exact inverse of the square integer matrix A as integer rows, by
    Gauss-Jordan elimination over the rationals.

    Raises ComputationError when A is singular or its inverse is not
    integral (A is not unimodular).
    """
    n = len(A)
    mat = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(A)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if piv is None:
            raise ComputationError("singular matrix")
        mat[col], mat[piv] = mat[piv], mat[col]
        scale = mat[col][col]
        mat[col] = [x / scale for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    inv = [row[n:] for row in mat]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ComputationError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def test_dynkin_hom_table_inverse_checks():
    assert _unimodular_inverse([[1, 0], [2, 1]]) == [[1, 0], [-2, 1]]
    with pytest.raises(ComputationError, match="singular"):
        _unimodular_inverse([[1, 1], [1, 1]])
    with pytest.raises(ComputationError, match="not unimodular"):
        _unimodular_inverse([[2, 0], [0, 1]])


_ORACLE_TABLES = {}


def _oracle_dynkin_hom_data(Q, p):
    """Roots in `positive_roots` order, their modules and the inverse Hom
    table, kept per (quiver, p): the E_6 table is 1296 Hom solves."""
    if (Q.key, p) not in _ORACLE_TABLES:
        roots = Q.positive_roots()
        reps = [module_from_class(Q, ("root", r), p) for r in roots]
        k = len(roots)
        A = [[_oracle_hom_dim(reps[s], reps[r]) for s in range(k)] for r in range(k)]
        inv = np.array(_unimodular_inverse(A), dtype=np.int64)
        _ORACLE_TABLES[Q.key, p] = roots, reps, inv
    return _ORACLE_TABLES[Q.key, p]


def decompose_dynkin_oracle(M):
    """The numpy Dynkin decomposer the rows-level classifier replaced: one
    Hom solve per positive root and the inverse Hom table as an int64
    product, with its Hom dimensions from `kron_constraint_matrix`."""
    Q, p = M.quiver, M.p
    roots, reps_, inv = _oracle_dynkin_hom_data(Q, p)
    v = np.array([_oracle_hom_dim(M, X) for X in reps_], dtype=np.int64)
    out = []
    for root, mult in zip(roots, (inv @ v).tolist()):
        if mult == 0:
            continue
        if mult < 0:
            raise ComputationError(f"negative multiplicity {mult} for {root}")
        out.append((("root", root), mult))
    decomp = sort_classes(out)
    if decomposition_dims(Q, decomp) != M.dims:
        raise OutsideCatalog("dimension mass not matched by Dynkin catalog")
    return decomp


@settings(max_examples=100, deadline=None)
@given(modules([A3, A3_SOURCE, D4, K], [2, 3, 5], max_dim=3, max_total=5))
@example(rep.Rep(K, 2, (2, 2), [np.eye(2, dtype=np.int64), [[0, 1], [1, 1]]]))
def test_rows_classifier_matches_hom_solve_oracle(M):
    """From cold memos, the classifier of Python-int rows (read by the
    census) and `decompose` both return the Hom-solve oracle's
    decomposition, or raise its exception type."""
    Q, p = M.quiver, M.p
    oracle = decompose_dynkin_oracle if Q.is_dynkin() else decompose_kronecker_oracle
    want = _result(oracle, M)
    memo.clear()
    blocks = [[list(row) for row in m] for m in M.mats]
    assert _result(catalog._decompose_rows, Q, p, M.dims, blocks) == want
    memo.clear()
    assert _result(decompose, M) == want
    # a rows-level miss is stored under `M.key`, where `decompose` reads it
    if isinstance(want, tuple) and any(M.dims):
        memo.clear()
        catalog._decompose_rows(Q, p, M.dims, blocks)
        assert memo.TABLES["catalog.decompose"] == {M.key: want}



E6 = E_QUIVERS["e6-alternating"]


@st.composite
def e6_sums(draw):
    """A conjugated direct sum of 2 or 3 indecomposables of E_6, and their
    roots."""
    p = draw(st.sampled_from([2, 3]))
    roots = draw(st.lists(st.sampled_from(E6.positive_roots()), min_size=2, max_size=3))
    M = rep.direct_sum(*(module_from_class(E6, ("root", r), p) for r in roots))
    return conjugate(M, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))), roots


@settings(max_examples=25, deadline=None)
@given(e6_sums())
def test_e6_sums_match_hom_solve_oracle(case):
    """From a cold memo, forward substitution on E_6 returns the inverse
    Hom table's decomposition, the summands the sum was built from."""
    M, roots = case
    want = decompose_dynkin_oracle(M)
    assert want == catalog._merge_classes(*[[(("root", r), 1)] for r in roots])
    memo.clear()
    assert decompose(M) == want


E8_QUIVERS = [Q for name, Q in E_QUIVERS.items() if name.startswith("e8")]


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(E8_QUIVERS).flatmap(
        lambda Q: st.tuples(
            st.just(Q),
            st.lists(st.sampled_from(Q.positive_roots()), min_size=2, max_size=3),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_e8_sums_decompose_to_their_summands(case):
    """From a cold memo, a conjugated sum of 2 or 3 indecomposables of E_8
    at p = 2 decomposes to the summands it was built from."""
    Q, roots, seed = case
    M = rep.direct_sum(*(module_from_class(Q, ("root", r), 2) for r in roots))
    M = conjugate(M, np.random.default_rng(seed))
    memo.clear()
    assert decompose(M) == catalog._merge_classes(*[[(("root", r), 1)] for r in roots])
