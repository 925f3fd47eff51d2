"""Iso-class enumeration: hand counts, orbit-mass completeness, sampling.

The mass test is the completeness certificate: if the enumerated
fingerprints tile the representation space, then summing GL-orbit sizes
over all concrete realizations of each fingerprint must equal the exact
point count p^(sum over arrows of d_s d_t) of the space of representations
with dimension vector d over F_p.  A missing or duplicated class would
make the sum fall short or overshoot.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from hallchar import catalog, rep, symspace
from hallchar.quiver import kronecker_quiver, linear_quiver

A2 = linear_quiver(2)
A3 = linear_quiver(3)
K = kronecker_quiver()

# one pool of iso-classes per (quiver key, cap), built on its first draw
_SYMBOL_POOLS = {}


def random_symbol(quiver, rng, cap):
    """A uniformly random iso-class with dimensions <= cap."""
    cap = tuple(int(c) for c in cap)
    key = (quiver.key, cap)
    if key not in _SYMBOL_POOLS:
        _SYMBOL_POOLS[key] = symspace.all_symbols_up_to(quiver, cap)
    pool = _SYMBOL_POOLS[key]
    return pool[int(rng.integers(len(pool)))]


def realization_count(sym, p):
    """Number of concrete iso-classes over F_p with this symbol's fingerprint.

    Rigid atoms realize uniquely; a regular part whose tubes carry the
    multiset of partitions {pi_j with multiplicity k_j} picks that many
    distinct points on P^1(F_p), giving
    (p+1) p (p-1) ... (p + 2 - t) / prod_j k_j!   (t = number of tubes),
    which vanishes exactly when t > p + 1 (fingerprint not realizable).
    """
    tubes = {}
    for atom, mult in sym.atoms:
        if atom[0] == "R":
            tubes.setdefault(atom[1], []).extend([atom[2]] * mult)
    if not tubes:
        return 1
    partitions = sorted(tuple(sorted(pi, reverse=True)) for pi in tubes.values())
    t = len(partitions)
    num = 1
    for i in range(t):
        num *= p + 1 - i
    for pi in set(partitions):
        k = partitions.count(pi)
        for j in range(2, k + 1):
            num //= j
    return max(num, 0)


def test_counts_hand_derived():
    # A_2 roots: (1,0), (0,1), (1,1).
    # (1,1): {S1+S2}, {P1}                                   -> 2
    # (2,2): {2*P1}, {P1+S1+S2}, {2*S1+2*S2}                 -> 3
    assert len(symspace.symbols_with_dims(A2, (1, 1))) == 2
    assert len(symspace.symbols_with_dims(A2, (2, 2))) == 3
    # A_3 (1,1,1): {M111}, {M110+S3}, {S1+M011}, {S1+S2+S3}  -> 4
    assert len(symspace.symbols_with_dims(A3, (1, 1, 1))) == 4
    # Kronecker (1,1): {S1+S2}, {R(1,1)}                     -> 2
    # (2,2): 2*P0+2*I0, P0+I1, P1+I0, P0+I0+R(1,1),
    #        R(2,2), 2*R(1,1) same tube, R(1,1) two tubes    -> 7
    assert len(symspace.symbols_with_dims(K, (1, 1))) == 2
    assert len(symspace.symbols_with_dims(K, (2, 2))) == 7
    assert [str(s) for s in symspace.symbols_with_dims(K, (0, 0))] == ["0"]


def test_fingerprints_distinct_and_dims():
    for quiver, cap in [(A2, (2, 2)), (A3, (1, 1, 2)), (K, (2, 2))]:
        for dims in itertools.product(*[range(c + 1) for c in cap]):
            syms = symspace.symbols_with_dims(quiver, dims)
            fps = {s.fingerprint() for s in syms}
            assert len(fps) == len(syms)
            assert all(s.dims == dims for s in syms)


def test_realization_counts():
    # rigid classes realize uniquely
    assert realization_count(catalog.parse_symbol("S1+S2", K), 5) == 1
    # one tube: p + 1 choices of point, for any partition shape
    assert realization_count(catalog.parse_symbol("R(1,1)@0", K), 3) == 4
    assert realization_count(catalog.parse_symbol("2*R(1,1)@0", K), 3) == 4
    assert realization_count(catalog.parse_symbol("R(2,2)@0", K), 3) == 4
    # two tubes with equal partitions: (p+1)p/2 unordered pairs of points
    two = catalog.parse_symbol("R(1,1)@0 + R(1,1)@1", K)
    assert realization_count(two, 3) == 6
    # unequal partitions: ordered choice, (p+1)p
    mixed = catalog.parse_symbol("R(2,2)@0 + R(1,1)@1", K)
    assert realization_count(mixed, 3) == 12
    # more tubes than points of P^1(F_2): not realizable
    four = catalog.parse_symbol(
        "R(1,1)@0 + R(1,1)@1 + R(1,1)@2 + R(1,1)@3", K
    )
    assert realization_count(four, 2) == 0


def _catalog_mass(quiver, dims, p):
    """Sum of GL-orbit sizes over all realizations of the listed fingerprints."""
    total = Fraction(0)
    gl = 1
    for d in dims:
        gl *= rep.gl_order(d, p)
    for sym in symspace.symbols_with_dims(quiver, dims):
        n_real = realization_count(sym, p)
        if n_real == 0:
            continue
        aut = catalog.aut_count_of_classes(quiver, sym.concrete_classes(p), p)
        total += Fraction(n_real * gl, aut)
    return total, gl


def test_orbit_mass_completeness():
    # Dynkin quivers and Kronecker below (2,2): the listed fingerprints are
    # all the iso classes, so their orbits tile the representation space.
    cases = [
        (A2, (1, 2), (2, 3)),
        (A2, (2, 2), (2, 3)),
        (A3, (1, 1, 1), (2, 3)),
        (K, (1, 1), (2, 3)),
        (K, (1, 2), (2, 3)),
    ]
    for quiver, dims, primes in cases:
        for p in primes:
            total, _ = _catalog_mass(quiver, dims, p)
            expect = p ** sum(dims[s] * dims[t] for s, t in quiver.arrows)
            assert total == expect, (quiver.name, dims, p, total, expect)


def test_orbit_mass_completeness_kronecker_22():
    # At dimension vector (2,2) the only iso classes outside the split-tube
    # language are the regular simples R(zeta, 1) at the (p^2 - p)/2 closed
    # points zeta of P^1 of degree 2; each is a brick over F_{p^2}, so
    # |Aut| = p^2 - 1 and the missing mass is
    #   (p^2 - p)/2 * |GL_2|^2 / (p^2 - 1).
    for p in (2, 3):
        total, gl = _catalog_mass(K, (2, 2), p)
        missing = Fraction((p * p - p) // 2 * gl, p * p - 1)
        assert total + missing == p ** 8, (p, total, missing)


def test_roundtrip_decompose():
    for quiver, cap, p in [(A2, (2, 2), 3), (K, (2, 2), 3)]:
        for sym in symspace.all_symbols_up_to(quiver, cap):
            M = sym.instantiate(p)
            assert (
                catalog.fingerprint_of_classes(catalog.decompose(M))
                == sym.fingerprint()
            )


def test_indecomposable_symbols():
    kr = [str(s) for s in symspace.indecomposable_symbols(K, (2, 2))]
    assert kr == ["P[0,1]", "P[1,2]", "R(1,1)@0", "R(2,2)@0", "I[1,0]", "I[2,1]"]
    a2 = [str(s) for s in symspace.indecomposable_symbols(A2, (3, 3))]
    assert a2 == ["M[0,1]", "M[1,0]", "M[1,1]"]
    # each really is indecomposable: its decomposition is one class, mult 1
    for sym in symspace.indecomposable_symbols(A3, (2, 2, 2)):
        decomp = catalog.decompose(sym.instantiate(3))
        assert len(decomp) == 1 and decomp[0][1] == 1
    # a cap of the wrong length or with a negative entry is refused, as in
    # `symbols_with_dims`, not zipped short against each root
    for cap in [(1, 1), (1, 1, 1, 1), (-1, 1, 1)]:
        with pytest.raises(ValueError, match="bad dimension cap"):
            symspace.indecomposable_symbols(A3, cap)


def test_random_symbol_reproducible():
    a = random_symbol(K, np.random.default_rng(7), (2, 2))
    b = random_symbol(K, np.random.default_rng(7), (2, 2))
    assert a == b
    for seed in range(20):
        s = random_symbol(K, np.random.default_rng(seed), (2, 2))
        assert all(x <= c for x, c in zip(s.dims, (2, 2)))


def test_bad_dims_raise():
    with pytest.raises(ValueError):
        symspace.symbols_with_dims(A2, (1, -1))
    with pytest.raises(ValueError):
        symspace.symbols_with_dims(A2, (1, 1, 1))


def test_split_pairs_dynkin_matches_product():
    # On a Dynkin quiver tags play no role, so the splits of all totals
    # with dims d are exactly the pairs (A, B) with dim A + dim B = d.
    dims = (2, 2)
    pairs = symspace.split_pairs(A2, dims)
    expect = set()
    for da in itertools.product(range(dims[0] + 1), range(dims[1] + 1)):
        db = tuple(d - a for d, a in zip(dims, da))
        for xi in symspace.symbols_with_dims(A2, da):
            for eta in symspace.symbols_with_dims(A2, db):
                expect.add((xi, eta))
    assert set(pairs) == expect
    assert len(pairs) == len(set(pairs))


def test_split_pairs_sum_back():
    for quiver, dims in [(A2, (2, 2)), (K, (2, 2)), (A3, (1, 1, 1))]:
        totals = {s for s in symspace.symbols_with_dims(quiver, dims)}
        for xi, eta in symspace.split_pairs(quiver, dims):
            assert tuple(x + y for x, y in zip(xi.dims, eta.dims)) == dims
            assert xi.direct_sum(eta) in totals


def test_split_pairs_kronecker_cross_tube():
    # Splitting R@t0 + R@t1 puts the two regular atoms in DIFFERENT
    # tubes; splitting 2*R@t0 keeps them in the same one.  Products of
    # independently enumerated symbols only ever see the same-tube pair.
    pairs = {(str(a), str(b)) for a, b in symspace.split_pairs(K, (2, 2))}
    assert ("R(1,1)@0", "R(1,1)@0") in pairs
    assert ("R(1,1)@0", "R(1,1)@1") in pairs
    assert ("R(1,1)@1", "R(1,1)@0") in pairs
    assert ("P[0,1]", "I[2,1]") in pairs
    assert ("P[0,1]+I[1,0]", "P[0,1]+I[1,0]") in pairs
    assert ("R(2,2)@0", "0") in pairs
