"""Acceptance gate: seven timed criteria, one printed PASS/FAIL line each.

Each criterion runs a fixed workload with a wall-clock budget, prints one
line through the capture barrier (so the verdicts are visible in any
pytest invocation), and fails loudly on the first unequal report.  JIT
compilation is triggered once before any timer starts.

Run with ``pytest tests/test_acceptance.py -v`` — the seven CRITERION
lines appear on the live terminal.
"""

import itertools
import time

import numpy as np

from hallchar import catalog, cluster, qpoly, rep, strata, subspaces, symspace, verify
from hallchar.laurent import LaurentPoly
from hallchar.quiver import kronecker_quiver, linear_quiver
from test_subspaces import subspace_bases

A2 = linear_quiver(2)
A3 = linear_quiver(3)
K = kronecker_quiver()

_FITS_AT_IMPORT = qpoly.VERIFIED_FITS
_RAN = set()


def sym(text, quiver=K):
    return catalog.parse_symbol(text, quiver)


def _criterion(capsys, num, desc, limit_s, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        dt = time.perf_counter() - t0
        with capsys.disabled():
            print(f"CRITERION {num}: FAIL ({dt:.1f}s) - {desc}", flush=True)
        raise
    dt = time.perf_counter() - t0
    ok = limit_s is None or dt < limit_s
    limit = "" if limit_s is None else f", limit {limit_s:.0f}s"
    with capsys.disabled():
        print(
            f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({dt:.1f}s{limit}) - {desc}",
            flush=True,
        )
    if limit_s is not None:
        assert dt < limit_s, f"criterion {num} took {dt:.1f}s (limit {limit_s}s)"
    _RAN.add(num)


def _dims_box(cap):
    return itertools.product(*[range(c + 1) for c in cap])


def _green_tuples(quiver, cap):
    """All 4-tuples (xi, eta, xi', eta') splitting a common total <= cap."""
    out = []
    for dims in _dims_box(cap):
        pairs = symspace.split_pairs(quiver, dims)
        out.extend(
            (xi, eta, xi2, eta2) for xi, eta in pairs for xi2, eta2 in pairs
        )
    return out


# ---------------------------------------------------------------------------
# criterion 1: Kronecker golden suite
# ---------------------------------------------------------------------------


def test_criterion_1_kronecker_goldens(capsys):
    def body():
        table = cluster.CharTable(K)
        # X_{S_1} = x1^-1 (1 + x2^2): Gr_(0,0) and Gr_(1,0) of S_1 are points.
        assert str(table.char(sym("S1"))) == "x1^-1 + x1^-1*x2^2"
        # X_{S_2} = x2^-1 (1 + x1^2), dually.
        assert str(table.char(sym("S2"))) == "x2^-1 + x1^2*x2^-1"
        # X_{u_lambda}: Gr_(0,0), Gr_(0,1), Gr_(1,1) are points of u_lambda.
        assert (
            str(table.char(sym("R(1,1)")))
            == "x1^-1*x2^-1 + x1^-1*x2 + x1*x2^-1"
        )
        # soc(I_1 + I_2) = S_1 + S_2, so the socle monomial is x1 x2.
        assert (
            str(cluster.socle_monomial(K, sym("I[1,0]+I[2,1]").atoms)) == "x1*x2"
        )
        r = verify.verify_cc1(sym("S1"), sym("S2"), table=table)
        assert r.equal
        assert r.lhs == "2*x1^-1*x2^-1 + 2*x1^-1*x2 + 2*x1*x2^-1 + 2*x1*x2"
        assert r.terms[0]["value"] == "2*x1^-1*x2^-1 + 2*x1^-1*x2 + 2*x1*x2^-1"
        assert r.terms[1]["value"] == "2*x1*x2"

    _criterion(capsys, 1, "Kronecker golden suite", 5.0, body)


# ---------------------------------------------------------------------------
# criterion 2: finite-field Green's formula
# ---------------------------------------------------------------------------


def test_criterion_2_green_ff(capsys):
    def body():
        # every 4-tuple on A_2 with total dim <= (2,2), checked at p = 2, 3
        tuples = _green_tuples(A2, (2, 2))
        assert len(tuples) == 663  # sum over totals d of (#ordered splits)^2
        for xi, eta, xi2, eta2 in tuples:
            r = verify.verify_green_ff(xi, eta, xi2, eta2, primes=(2, 3))
            assert r.equal, r
        # >= 20 sampled 4-tuples on A_3 with total dim <= (2,2,2) at p = 2
        pool = _green_tuples(A3, (2, 2, 2))
        rng = np.random.default_rng(2)
        for i in sorted(rng.choice(len(pool), size=24, replace=False)):
            xi, eta, xi2, eta2 = pool[i]
            r = verify.verify_green_ff(xi, eta, xi2, eta2, primes=(2,))
            assert r.equal, r

    _criterion(capsys, 2, "finite-field Green identity (A_2 full, A_3 sampled)", 60.0, body)


# ---------------------------------------------------------------------------
# criterion 3: degenerate Green
# ---------------------------------------------------------------------------


def test_criterion_3_green_degenerate(capsys):
    def body():
        # all admissible 4-tuples within the caps; grouped by (xi', eta')
        # so each pair's censuses are computed once.  Pairs are identified
        # up to renaming tube points (the fingerprint semantics of the
        # verifier): on the Kronecker quiver at total dims (2,2) the 34
        # raw atom-splits collapse to 32 classes, because (R@0, R@0),
        # (R@0, R@1) and (R@1, R@0) share marginal fingerprints.  The
        # expected totals are sum over totals d <= cap of (#classes)^2.
        expected = {A2.key: 663, A3.key: 38505, K.key: 1375}
        for quiver, cap in ((A2, (2, 2)), (A3, (2, 2, 2)), (K, (2, 2))):
            checked = 0
            for dims in _dims_box(cap):
                seen = {}
                for xi, eta in symspace.split_pairs(quiver, dims):
                    seen.setdefault((xi.fingerprint(), eta.fingerprint()), (xi, eta))
                pairs = list(seen.values())
                for xi2, eta2 in pairs:
                    r = verify.verify_green_degenerate_all(xi2, eta2, pairs)
                    assert r.equal, r
                    assert len(r.terms) == len(pairs)
                    checked += len(r.terms)
            assert checked == expected[quiver.key]

    _criterion(capsys, 3, "degenerate Green identity (A_2, A_3, Kronecker full)", 60.0, body)


# ---------------------------------------------------------------------------
# criterion 4: projective Green
# ---------------------------------------------------------------------------


def test_criterion_4_green_projective(capsys):
    def body():
        # Kronecker (xi', eta') = (S_1, S_2) against every (xi, eta)
        # fingerprint pair of total dim (1,1): the 6 ordered splits of
        # u_lambda and of P_0 + I_0.
        pairs = symspace.split_pairs(K, (1, 1))
        assert len(pairs) == 6
        for xi, eta in pairs:
            r = verify.verify_green_projective(sym("S1"), sym("S2"), xi, eta)
            assert r.equal, r
        # >= 10 sampled tuples on A_3 within total dim (2,2,2)
        pool = _green_tuples(A3, (2, 2, 2))
        rng = np.random.default_rng(4)
        picked = sorted(rng.choice(len(pool), size=12, replace=False))
        assert len(picked) >= 10
        for i in picked:
            xi, eta, xi2, eta2 = pool[i]
            r = verify.verify_green_projective(xi2, eta2, xi, eta)
            assert r.equal, r

    _criterion(capsys, 4, "projective Green identity (Kronecker full, A_3 sampled)", 120.0, body)


# ---------------------------------------------------------------------------
# criterion 5: cluster multiplication
# ---------------------------------------------------------------------------


def test_criterion_5_cluster_multiplication(capsys):
    def body():
        for quiver in (A2, A3):
            table = cluster.CharTable(quiver)
            indecs = symspace.indecomposable_symbols(quiver, (1,) * quiver.n)
            assert len(indecs) == {2: 3, 3: 6}[quiver.n]
            # part (1): both orders of every pair of non-isomorphic
            # indecomposables
            for xi2, eta2 in itertools.permutations(indecs, 2):
                r = verify.verify_cc1(xi2, eta2, table=table)
                assert r.equal, r
            # part (2): every (indecomposable, simple projective)
            sinks = catalog.simple_projective_vertices(quiver)
            for xi2 in indecs:
                for v in sinks:
                    rho = tuple(1 if i == v else 0 for i in range(quiver.n))
                    r = verify.verify_cc2(xi2, rho, table=table)
                    assert r.equal, r
        r = verify.verify_cc1(sym("S1"), sym("S2"), table=cluster.CharTable(K))
        assert r.equal, r

    _criterion(capsys, 5, "cluster multiplication cc1/cc2 (A_2, A_3 full; Kronecker)", 120.0, body)


# ---------------------------------------------------------------------------
# criterion 6: associativity
# ---------------------------------------------------------------------------


def _sampled_assoc_tuples(quiver, cap, rng, want):
    """Admissible (X, Y1, Y2, L1, L2) tuples, alternating the direction
    whose dimension bookkeeping is made consistent."""
    out = []
    while len(out) < want:
        y1 = symspace.random_symbol(quiver, rng, cap)
        y2 = symspace.random_symbol(quiver, rng, cap)
        l1 = symspace.random_symbol(quiver, rng, cap)
        l2 = symspace.random_symbol(quiver, rng, cap)
        sign = 1 if len(out) % 2 == 0 else -1  # primal / dual admissible
        xd = tuple(
            b - a + c + sign * d
            for a, b, c, d in zip(l1.dims, l2.dims, y1.dims, y2.dims)
        )
        if any(x < 0 or x > c for x, c in zip(xd, cap)):
            continue
        options = symspace.symbols_with_dims(quiver, xd)
        x = options[int(rng.integers(len(options)))]
        out.append((x, y1, y2, l1, l2))
    return out


def test_criterion_6_associativity(capsys):
    def body():
        rng = np.random.default_rng(6)
        for quiver, cap in ((A2, (2, 2)), (A3, (1, 1, 1)), (K, (2, 2))):
            tuples = _sampled_assoc_tuples(quiver, cap, rng, want=12)
            assert len(tuples) >= 10
            admissible = 0
            for x, y1, y2, l1, l2 in tuples:
                r = verify.verify_assoc(x, y1, y2, l1, l2)
                assert r.equal, r
                admissible += (
                    r.inputs["dims_admissible_primal"]
                    or r.inputs["dims_admissible_dual"]
                )
            assert admissible == len(tuples)

    _criterion(capsys, 6, "Hall-product associativity, affine + projective", 120.0, body)


# ---------------------------------------------------------------------------
# criterion 7: property suites
# ---------------------------------------------------------------------------


def _ext_table_vanishes(X, Y):
    """Direct-sum lemma: the interpolated class count of every non-split
    middle vanishes at q = 1, and the split middle's count is 1."""
    bound = rep.ext1_dim(X.instantiate(2), Y.instantiate(2))

    def fn(p):
        out = {}
        census = strata.ext_middle_census(X.instantiate(p), Y.instantiate(p))
        for classes, n in census.items():
            key = catalog.fingerprint_of_classes(classes)
            out[key] = out.get(key, 0) + n
        return out

    table = qpoly.counting_table(fn, bound, 2, 2)
    split_fp = X.direct_sum(Y).fingerprint()
    for key, poly in table.items():
        assert poly.at_one() == (1 if key == split_fp else 0), (X, Y, key)


def test_criterion_7_property_suites(capsys):
    def body():
        # Gaussian binomials vs. actual subspace enumeration, d <= 4
        for p in (2, 3, 5):
            for n in range(5):
                for k in range(n + 1):
                    count = sum(1 for _ in subspace_bases(n, k, p))
                    assert count == qpoly.gaussian_binomial(n, k, p)
                    assert count == subspaces.subspace_count(n, k, p)

        # census totals: p^{dim Ext^1} extension classes, p^{dim Hom} maps
        pairs = [
            (sym(a, A2), sym(b, A2))
            for a, b in itertools.product(("S1", "S2", "M[1,1]"), repeat=2)
        ] + [
            (sym("S1"), sym("S2")),
            (sym("S2"), sym("S1")),
            (sym("R(1,1)"), sym("R(1,1)")),
        ]
        for X, Y in pairs:
            for p in (2, 3):
                Xp, Yp = X.instantiate(p), Y.instantiate(p)
                ext = strata.ext_middle_census(Xp, Yp)
                assert sum(ext.values()) == p ** rep.ext1_dim(Xp, Yp)
                hom = strata.hom_census(Xp, Yp)
                assert sum(hom.values()) == p ** rep.hom_dim(Xp, Yp)

        # direct-sum lemma vanishing across all indecomposable pairs
        for quiver in (A2, A3):
            indecs = symspace.indecomposable_symbols(quiver, (1,) * quiver.n)
            for X, Y in itertools.product(indecs, repeat=2):
                _ext_table_vanishes(X, Y)

        # multiplicativity of the character on 50 random symbols
        rng = np.random.default_rng(7)
        for quiver, cap, n in ((K, (2, 2), 17), (A2, (3, 3), 17), (A3, (2, 2, 2), 16)):
            table = cluster.CharTable(quiver)
            one = LaurentPoly.monomial((0,) * quiver.n)
            for _ in range(n):
                s = symspace.random_symbol(quiver, rng, cap)
                prod = one
                for cls, mult in s.atoms:
                    prod = prod * table.char(
                        catalog.symbol_from_classes(quiver, [(cls, 1)])
                    ) ** mult
                assert table.char(s) == prod, s

        # chi(P^1) = 2 and chi(P^2) = 3: lines in the plane and in 3-space
        assert cluster.chi_grassmannian(sym("2*S1", A2), (1, 0)) == 2
        assert cluster.chi_grassmannian(sym("3*S1", A2), (1, 0)) == 3

        # interpolation stability: every held-out-prime check in the
        # criteria above bumped the audit counter (a VerificationMismatch
        # anywhere would instead have failed that criterion)
        grown = qpoly.VERIFIED_FITS - _FITS_AT_IMPORT
        if {1, 2, 3, 4, 5, 6} <= _RAN:
            assert grown >= 100
        else:  # criteria deselected: exercise one representative census
            pairs = symspace.split_pairs(A2, (1, 1))
            verify.verify_green_degenerate_all(sym("S1", A2), sym("S2", A2), pairs)
            assert qpoly.VERIFIED_FITS - _FITS_AT_IMPORT > 0

    _criterion(capsys, 7, "property suites (counts, vanishing, multiplicativity, anchors)", None, body)
