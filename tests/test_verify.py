"""Identity verifiers: frozen hand-derived oracles and cross-checks.

Every expected value in this file is derived by hand in a comment next to
the assertion (submodule counts on two-vertex representations, |GL_1| =
p - 1 automorphism counts, eigenline counts on the Kronecker quiver) or
is an exact string reproduced from such a derivation.  Nothing here is a
snapshot of the code's own output accepted on faith.  The splitting-sum
tests at the end compare the green-ff and projective verifiers against
the full product of census entries, filtered by dimension, and the
degenerate verifiers against a per-tuple splitting sum, and the
fingerprint-keyed census view against a rescan of the census; this file
keeps all three as oracles.
"""

import collections
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hallchar
from hallchar import catalog, cluster, memo, qpoly, rep, strata, subspaces, symspace, verify
from hallchar.errors import BudgetExceeded, UnsupportedQuiver, VerificationMismatch
from hallchar.quiver import Quiver, kronecker_quiver, linear_quiver
from test_qpoly import divide_by_q_minus_1
from test_rep import random_rep

A2 = linear_quiver(2)
A3 = linear_quiver(3)
A3_SOURCE = Quiver(3, [(1, 0), (1, 2)])
D4_SINK = Quiver(4, [(0, 3), (1, 3), (2, 3)])
K = kronecker_quiver()


def sym(text, quiver=K):
    return catalog.parse_symbol(text, quiver)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_schema_and_json():
    r = verify.verify_green_degenerate(
        sym("S1", A2), sym("S2", A2), sym("S2", A2), sym("S1", A2)
    )
    d = r.to_dict()
    assert set(d) == {
        "theorem",
        "inputs",
        "lhs",
        "rhs",
        "equal",
        "terms",
        "polynomials",
        "timing_ms",
    }
    assert d["theorem"] == "green_degenerate"
    assert isinstance(d["lhs"], str) and isinstance(d["rhs"], str)
    assert json.loads(r.to_json())["equal"] is True
    assert "EQUAL" in str(r)
    assert d["timing_ms"] >= 0.0


# ---------------------------------------------------------------------------
# finite-field Green identity
# ---------------------------------------------------------------------------


def test_green_ff_simples_a2():
    # (xi, eta, xi', eta') = (S_1, S_2, S_2, S_1) on 1 -> 2.
    #
    # LHS: the only middle lambda with both g^lambda_{S1 S2} != 0 and
    # g^lambda_{S2 S1} != 0 is the split S_1 + S_2 (the nonsplit M[1,1]
    # has no submodule S_1, so g^{M}_{S2 S1} = 0).  Both Hall numbers are
    # 1 and a_{S1+S2} = |GL_1 x GL_1| = (p-1)^2 (no Hom between the two
    # simples in either direction), so
    #   LHS = (p-1)^4 * 1 * 1 / (p-1)^2 = (p-1)^2.
    # RHS: the only crossing with dim gamma + dim alpha = (1,0) and
    # dim delta + dim beta = (0,1) is (gamma, delta, alpha, beta)
    # = (0, S_2, S_1, 0); all Hall and census factors are 1, the weight
    # is p^0, and the aut product is (p-1)^2.  Hence 1 at p=2, 4 at p=3.
    r = verify.verify_green_ff(
        sym("S1", A2), sym("S2", A2), sym("S2", A2), sym("S1", A2), primes=(2, 3)
    )
    assert r.equal
    assert [t["prime"] for t in r.terms] == [2, 3]
    assert [t["lhs"] for t in r.terms] == ["1", "4"]
    assert [t["rhs"] for t in r.terms] == ["1", "4"]


def test_green_ff_dims_precondition():
    # dim xi + dim eta = (1,1) but dim xi' + dim eta' = (0,2).
    with pytest.raises(ValueError):
        verify.verify_green_ff(
            sym("S1", A2), sym("S2", A2), sym("S2", A2), sym("S2", A2)
        )


# (quiver, xi, eta, xi', eta', budget, outcome at p = 2, 3): the outcome is
# the (lhs, rhs) strings or the BudgetExceeded message of the unfactored
# sum, which reads each census only once the factor before it is nonzero.
GREEN_FF_BUDGET_CASES = [
    # g^lam_{xi,eta} = 0 for every middle: g^lam_{xi',eta'} (charge 3) is never read
    (A2, "2*M[0,1]", "M[1,0]", "M[1,1]", "M[0,1]", 1, (["0", "0"], ["0", "0"])),
    # g^lam_{xi,eta} (charge 3) is read before g^lam_{xi',eta'} (charge 9)
    (A2, "M[1,0]", "2*M[0,1]+M[1,0]", "M[1,1]", "M[0,1]+M[1,0]", 1,
     "subspace search space 3 exceeds budget 1"),
    # the Ext census of (xi', eta') is read first
    (A2, "M[1,0]", "M[0,1]", "M[1,0]", "M[0,1]", 1, "2^1 extension classes exceed budget"),
    # no splitting has g^xi_{gam,alp} != 0: the census of eta is never read
    (A3, "M[0,0,1]+M[0,1,0]", "2*M[1,0,0]", "M[1,0,0]+M[0,1,1]", "M[1,0,0]", 1,
     (["0", "0"], ["0", "0"])),
    # an empty census of xi' or eta' at e: the census of xi is never read
    (A3, "M[0,0,1]+2*M[1,0,0]", "M[0,1,0]", "M[1,0,0]+M[0,1,1]", "M[1,0,0]", 1,
     (["0", "0"], ["0", "0"])),
]


@pytest.mark.parametrize("case", GREEN_FF_BUDGET_CASES)
def test_green_ff_budget_outcome_is_the_unfactored_one(case):
    """A budget-limited call returns or raises what the unfactored sum
    does, from a cold memo and again on a second call."""
    quiver, *texts, budget, outcome = case
    ops = [catalog.parse_symbol(t, quiver) for t in texts]
    memo.clear()
    for _ in range(2):
        if isinstance(outcome, str):
            with pytest.raises(BudgetExceeded) as info:
                verify.verify_green_ff(*ops, primes=(2, 3), budget=budget)
            assert type(info.value) is BudgetExceeded and str(info.value) == outcome
        else:
            r = verify.verify_green_ff(*ops, primes=(2, 3), budget=budget)
            assert (r.lhs, r.rhs) == tuple(map(str, outcome))


# (xi', eta', budget, [(xi, eta, outcome at p = 2, 3), ...]) on A_2: two
# instances that share (xi', eta', p, dim eta), so whichever runs second
# reads the `verify._green_ff_lhs` entry the first one built.  Each
# outcome is the one a cold memo gives, as in GREEN_FF_BUDGET_CASES.
GREEN_FF_SHARED_LHS_CASES = [
    # g^lam_{xi',eta'} (charge 9) is over budget at the one middle with
    # g^lam_{xi,eta} != 0 for the second pair, and at none for the first
    ("M[1,1]", "M[1,1]", 4, [
        ("M[1,0]", "2*M[0,1]+M[1,0]", (["0", "0"], ["0", "0"])),
        ("M[1,0]", "M[0,1]+M[1,1]", "subspace search space 9 exceeds budget 4"),
    ]),
    # as above at p = 2; at p = 3 g^lam_{xi,eta} (charge 4) is over budget
    # for every pair, which only the first pair reaches
    ("M[1,1]", "M[1,1]", 3, [
        ("M[1,0]", "2*M[0,1]+M[1,0]", "subspace search space 4 exceeds budget 3"),
        ("M[1,0]", "M[0,1]+M[1,1]", "subspace search space 9 exceeds budget 3"),
    ]),
    # g^lam_{xi,eta} (charge 3) is over budget for every pair
    ("M[1,1]", "M[0,1]+M[1,0]", 1, [
        ("M[1,0]", "2*M[0,1]+M[1,0]", "subspace search space 3 exceeds budget 1"),
        ("M[1,0]", "M[0,1]+M[1,1]", "subspace search space 3 exceeds budget 1"),
    ]),
]


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["in-order", "reversed"])
@pytest.mark.parametrize("case", GREEN_FF_SHARED_LHS_CASES)
def test_green_ff_shared_left_side_is_read_as_a_hit(case, order):
    """The second of two instances sharing (xi', eta', p, dim eta) finds
    its left-side table built, and returns or raises what it does from a
    cold memo (the first, run from a cold memo in the other order)."""
    xi2, eta2, budget, instances = case
    table = memo.TABLES["verify._green_ff_lhs"]
    memo.clear()
    for step, i in enumerate(order):
        xi, eta, outcome = instances[i]
        ops = [catalog.parse_symbol(t, A2) for t in (xi, eta, xi2, eta2)]
        key = (ops[2].id, ops[3].id, 2, ops[1].dims, budget)
        assert (key in table) == (step == 1)
        if isinstance(outcome, str):
            with pytest.raises(BudgetExceeded) as info:
                verify.verify_green_ff(*ops, primes=(2, 3), budget=budget)
            assert type(info.value) is BudgetExceeded and str(info.value) == outcome
        else:
            r = verify.verify_green_ff(*ops, primes=(2, 3), budget=budget)
            assert (r.lhs, r.rhs) == tuple(map(str, outcome))


@pytest.mark.parametrize("primes, message", [
    ((), "no primes given"),
    ((4,), "4 is not prime"),
    ((3, 9), "9 is not prime"),
    ((3.0,), "3.0 is not prime"),
])
def test_green_ff_and_assoc_check_their_primes(primes, message):
    """Both per-prime verifiers refuse an empty list and a non-prime, also
    once the check of (3,) is stored.  On a Dynkin quiver the floor is 2,
    so green-ff has no prime below it."""
    s1, s2 = sym("S1", A2), sym("S2", A2)
    assert verify.verify_green_ff(s1, s2, s2, s1, primes=(3,)).equal
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify.verify_green_ff(s1, s2, s2, s1, primes=primes)
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify.verify_assoc(s1, s2, sym("0", A2), sym("M[1,1]", A2), s2, primes=primes)


def test_assoc_primes_start_at_the_operands_floor():
    """R(1,1)@0 and R(1,1)@3 sit at the points 0 and 2, which meet mod 2:
    the operands' floor is 3, so assoc refuses p = 2 and its default
    primes are the two from 3 on."""
    ops = (sym("R(1,1)@0"), sym("0"), sym("0"), sym("R(1,1)@3"), sym("R(1,1)@0"))
    assert catalog.min_prime_for_symbols(ops) == 3
    with pytest.raises(ValueError, match=r"^prime 2 is below the smallest prime \(3\)"):
        verify.verify_assoc(*ops, primes=(2, 3))
    assert verify.verify_assoc(*ops).inputs["primes"] == [3, 5]


def test_green_ff_kronecker_unsupported():
    # The lambda-sum needs a prime-independent list of middle classes,
    # which tame quivers do not have (one tube per point of P^1).
    with pytest.raises(UnsupportedQuiver):
        verify.verify_green_ff(sym("S1"), sym("S2"), sym("S2"), sym("S1"))


# ---------------------------------------------------------------------------
# degenerate (q = 1) Green identity
# ---------------------------------------------------------------------------


def test_green_degenerate_simples_a2():
    # L = S_2 + S_1 has exactly one submodule of dims (0,1) (the whole
    # vertex-2 line), with quotient S_1: the counting polynomial is the
    # constant 1 on both sides, for every p.
    r = verify.verify_green_degenerate(
        sym("S1", A2), sym("S2", A2), sym("S2", A2), sym("S1", A2)
    )
    assert r.equal and r.lhs == "1" and r.rhs == "1"
    assert [t["polynomial"] for t in r.terms] == ["1", "1"]


def test_green_degenerate_zero_case():
    # (xi, eta) = (M[1,1], 0): L = S_1 + S_2 is decomposable, so no
    # quotient of L by the zero submodule is M[1,1]; and no crossing of
    # the two simples merges to the indecomposable M[1,1].  Both sides 0.
    r = verify.verify_green_degenerate(
        sym("M[1,1]", A2), sym("0", A2), sym("S1", A2), sym("S2", A2)
    )
    assert r.equal and r.lhs == "0" and r.rhs == "0"


def test_green_degenerate_dims_flag(monkeypatch):
    # Mismatched total dimensions make every stratum empty; the verifier
    # reports 0 = 0 but flags the bookkeeping failure.
    r = verify.verify_green_degenerate(
        sym("S1", A2), sym("S1", A2), sym("S1", A2), sym("S2", A2)
    )
    assert r.equal and r.lhs == "0" and r.rhs == "0"
    assert r.inputs["dims_admissible"] is False
    # (xi, eta; xi', eta') = (0, 2*S_1; S_1, S_2): dim eta = (2,0) lies
    # outside the box of dim L = (1,1), so L has no subrep of that
    # dimension and no splitting e' + e'' = (2,0) exists.  Both sides are
    # 0, and no census is asked for a dimension vector outside its module.
    calls = []
    hall_census = verify.subspaces.hall_census
    monkeypatch.setattr(
        verify.subspaces,
        "hall_census",
        lambda M, e, **k: calls.append((M.dims, tuple(e))) or hall_census(M, e, **k),
    )
    r = verify.verify_green_degenerate(
        sym("0", A2), sym("2*S1", A2), sym("S1", A2), sym("S2", A2)
    )
    assert r.equal and r.lhs == "0" and r.rhs == "0"
    assert r.inputs["dims_admissible"] is False
    assert all(x <= d for dims, e in calls for x, d in zip(e, dims))


def test_green_degenerate_cross_tube_kronecker():
    # (xi, eta, xi', eta') = (R@0, R@1, R@0, R@1).  L = R_a + R_b with
    # a != b: a submodule of dims (1,1) is a line fixed by the identity
    # arrow and by diag(a, b), i.e. one of the 2 eigenlines, each giving
    # sub = one regular simple and quotient = the other.  By fingerprint
    # (tube tags are interchangeable) both strata match, so LHS = 2 for
    # every p.  RHS: the two census crossings (gamma, delta, alpha, beta)
    # = (R@0, 0, 0, R@1) and (0, R@0, R@1, 0) contribute 1 each.
    r = verify.verify_green_degenerate(
        sym("R(1,1)@0"), sym("R(1,1)@1"), sym("R(1,1)@0"), sym("R(1,1)@1")
    )
    assert r.equal and r.lhs == "2" and r.rhs == "2"
    assert [t["polynomial"] for t in r.terms] == ["2", "2"]


def test_green_degenerate_all_matches_single():
    # Check the bulk verifier term by term against the per-tuple oracle
    # (the census of L at dim eta and Green's splitting sum, kept at the
    # end of this file) over every ordered split of total dims (1,2) on
    # A_2; the single-tuple verifier reads the same table as the bulk one.
    xi2, eta2 = sym("M[1,1]", A2), sym("S2", A2)
    pairs = symspace.split_pairs(A2, (1, 2))
    bulk = verify.verify_green_degenerate_all(xi2, eta2, pairs)
    assert bulk.equal and len(bulk.terms) == len(pairs)
    for (xi, eta), term in zip(pairs, bulk.terms):
        oracle = tuple(map(str, green_degenerate_oracle(xi, eta, xi2, eta2)))
        single = verify.verify_green_degenerate(xi, eta, xi2, eta2)
        assert term["xi"] == str(xi) and term["eta"] == str(eta)
        assert (str(term["lhs"]), str(term["rhs"])) == oracle == (single.lhs, single.rhs)
        assert term["equal"] == single.equal == True  # noqa: E712
    # at least one nonzero stratum exists in this sweep
    assert any(t["lhs"] != 0 for t in bulk.terms)


def test_green_degenerate_all_one_term_per_pair():
    # On the Kronecker quiver at total dims (2,2) the raw splits
    # (R@0, R@0), (R@1, R@0) and (R@0, R@1) share the fingerprints
    # (regular simple, regular simple): the bulk verifier reports one term
    # per requested pair, in input order, and fits one (lhs, rhs) pair of
    # polynomials per distinct fingerprint pair.  In L = R@0 + R@1 the
    # two eigenlines give 2 for the shared pair (see the cross-tube test
    # above), and the submodule 2*P[0,1] (all of vertex 2) gives 1 for
    # (2*I[1,0], 2*P[0,1]).
    r0, r1 = sym("R(1,1)@0"), sym("R(1,1)@1")
    pairs = [(r0, r0), (sym("2*I[1,0]"), sym("2*P[0,1]")), (r1, r0), (r0, r1)]
    before = qpoly.VERIFIED_FITS
    r = verify.verify_green_degenerate_all(r0, r1, pairs)
    assert qpoly.VERIFIED_FITS - before == 4
    assert r.inputs["pairs"] == 4 and r.lhs == "4/4 equal"
    assert [(t["xi"], t["eta"]) for t in r.terms] == [
        (str(xi), str(eta)) for xi, eta in pairs
    ]
    assert [(t["lhs"], t["rhs"]) for t in r.terms] == [(2, 2), (1, 1), (2, 2), (2, 2)]
    for (xi, eta), t in zip(pairs, r.terms):
        assert (t["lhs"], t["rhs"]) == green_degenerate_oracle(xi, eta, r0, r1)


def test_green_degenerate_all_dims_precondition():
    with pytest.raises(ValueError):
        verify.verify_green_degenerate_all(
            sym("S1", A2), sym("S2", A2), [(sym("S1", A2), sym("S1", A2))]
        )


# ---------------------------------------------------------------------------
# projectivized (q = 1) Green identity
# ---------------------------------------------------------------------------


def test_green_projective_kronecker_table():
    # (xi', eta') = (S_1, S_2) on the Kronecker quiver, L = S_1 + S_2.
    # Middle block: the nonsplit middles of an extension of S_1 by S_2
    # are the p+1 regular simples R_x (x in P^1), each arising from p-1
    # of the p^2-1 nonzero classes in Ext^1 = k^2; projectivized count
    # (p^2-1)/(p-1) = p+1, and the fingerprint-level Hall count of
    # (sub S_2, quot S_1) in R_x is 1, so block (i) = p+1, giving 2 at
    # q = 1.  Row-by-row values below were derived the same way by hand.
    rows = {
        ("S1", "S2"): (True, "2", "2", [2, 0, 2, 0]),
        ("S2", "S1"): (True, "0", "0", [0, 0, 0, 0]),
        ("R(1,1)@0", "0"): (True, "2", "2", [2, 2, 0, 0]),
    }
    for (xi, eta), (equal, lhs, rhs, blocks) in rows.items():
        r = verify.verify_green_projective(sym("S1"), sym("S2"), sym(xi), sym(eta))
        assert r.equal == equal and (r.lhs, r.rhs) == (lhs, rhs)
        assert [t["block"] for t in r.terms] == [
            "middles",
            "off_diagonal",
            "diagonal",
            "hall_variety",
        ]
        assert [t["value"] for t in r.terms] == blocks


# ---------------------------------------------------------------------------
# associativity
# ---------------------------------------------------------------------------


def test_assoc_zero_modules():
    z = sym("0", A2)
    r = verify.verify_assoc(z, z, z, z, z, primes=(2,))
    assert r.equal
    # affine forms count the single zero map / zero filtration once;
    # projectivized forms remove the zero map and count nothing.
    got = {(t["form"], t["direction"]): (t["lhs"], t["rhs"]) for t in r.terms}
    assert got[("affine", "primal")] == (1, 1)
    assert got[("affine", "dual")] == (1, 1)
    assert got[("projective", "primal")] == (0, 0)
    assert got[("projective", "dual")] == (0, 0)


def test_assoc_inadmissible_dims_still_reports():
    # Dimension bookkeeping fails on both sides here (no filtration can
    # exist), so every sum is empty and the verdict is 0 = 0 — the
    # verifier reports rather than raising, flagging admissibility.
    r = verify.verify_assoc(
        sym("S1", A2),
        sym("S2", A2),
        sym("0", A2),
        sym("M[1,1]", A2),
        sym("S1", A2),
        primes=(2, 3),
    )
    assert r.equal
    assert r.inputs["dims_admissible_primal"] is False
    assert r.inputs["dims_admissible_dual"] is False
    assert all(t["lhs"] == 0 and t["rhs"] == 0 for t in r.terms)


def test_assoc_admissible_a2():
    # X = M[1,1], Y1 = S_2, Y2 = 0, L1 = S_2, L2 = M[1,1].
    # Affine primal LHS: only the zero map S_2 -> M[1,1] has cokernel
    # M[1,1]; its kernel S_2 contains one copy of S_2 with quotient 0,
    # so LHS = 1.  RHS: S_2 has one submodule S_2 (quotient 0), and the
    # zero map 0 -> M[1,1] is the one map with cokernel M[1,1], kernel 0.
    # Projectivized: the zero map is removed on both sides, so 0 = 0.
    r = verify.verify_assoc(
        sym("M[1,1]", A2),
        sym("S2", A2),
        sym("0", A2),
        sym("S2", A2),
        sym("M[1,1]", A2),
        primes=(2, 3),
    )
    assert r.equal
    assert r.inputs["dims_admissible_primal"] is True
    assert r.inputs["dims_admissible_dual"] is True
    got = {
        (t["prime"], t["form"], t["direction"]): (t["lhs"], t["rhs"])
        for t in r.terms
    }
    for p in (2, 3):
        assert got[(p, "affine", "primal")] == (1, 1)
        assert got[(p, "affine", "dual")] == (1, 1)
        assert got[(p, "projective", "primal")] == (0, 0)
        assert got[(p, "projective", "dual")] == (0, 0)


def test_assoc_nontrivial_kronecker():
    # A tuple with nonzero projectivized counts, built on the canonical
    # exact sequence 0 -> S_2 -> R -> S_1 -> 0: the p-1 nonzero maps
    # S_2 -> R(1,1)@0 all have kernel 0 and cokernel S_1, so with
    # X = S_1, Y1 = Y2 = 0, L1 = S_2, L2 = R the affine counts are p-1
    # and the projectivized counts are exactly 1 on both sides, in both
    # directions.
    r = verify.verify_assoc(
        sym("S1"), sym("0"), sym("0"), sym("S2"), sym("R(1,1)@0"), primes=(2, 3)
    )
    assert r.equal
    assert r.inputs["dims_admissible_primal"] is True
    assert r.inputs["dims_admissible_dual"] is True
    got = {
        (t["prime"], t["form"], t["direction"]): (t["lhs"], t["rhs"])
        for t in r.terms
    }
    for p in (2, 3):
        assert got[(p, "affine", "primal")] == (p - 1, p - 1)
        assert got[(p, "affine", "dual")] == (p - 1, p - 1)
        assert got[(p, "projective", "primal")] == (1, 1)
        assert got[(p, "projective", "dual")] == (1, 1)


# ---------------------------------------------------------------------------
# cluster multiplication
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_k():
    return cluster.CharTable(K)


@pytest.fixture(scope="module")
def table_a2():
    return cluster.CharTable(A2)


def test_cc1_kronecker_golden(table_k):
    # dim Ext^1(S_1, S_2) = 2 on the Kronecker quiver, and
    #   X_{S_1} X_{S_2} = (x1^-1 + x1^-1 x2^2)(x2^-1 + x1^2 x2^-1),
    # so LHS = 2(x1^-1 x2^-1 + x1 x2^-1 + x1^-1 x2 + x1 x2).  The middle
    # term sums chi(P Ext strata) X_middle over the p+1 regular simples
    # (chi = 2 for the two rational tubes' fingerprint group), and the
    # Hom-stratum term contributes exactly 2 x1 x2 (Hom(S_2, tau S_1) is
    # 2-dimensional; all nonzero maps are injective with injective
    # cokernel, contributing the socle monomial x1 x2, chi(P^1) = 2).
    r = verify.verify_cc1(sym("S1"), sym("S2"), table=table_k)
    assert r.equal
    assert r.lhs == "2*x1^-1*x2^-1 + 2*x1^-1*x2 + 2*x1*x2^-1 + 2*x1*x2"
    assert r.rhs == r.lhs
    assert r.terms[0] == {
        "part": "term1_total",
        "value": "2*x1^-1*x2^-1 + 2*x1^-1*x2 + 2*x1*x2^-1",
    }
    assert r.terms[1] == {"part": "term2_total", "value": "2*x1*x2"}


def test_cc1_a2_both_orders(table_a2):
    # dim Ext^1(S_1, S_2) = 1 on 1 -> 2:
    # X_{S_1} X_{S_2} = (x1^-1 + x1^-1 x2)(x2^-1 + x1 x2^-1)
    #                 = x1^-1 x2^-1 + x2^-1 + x1^-1 + 1.
    r = verify.verify_cc1(sym("S1", A2), sym("S2", A2), table=table_a2)
    assert r.equal
    assert r.lhs == "x1^-1*x2^-1 + x1^-1 + x2^-1 + 1"
    # Reversed order: Ext^1(S_2, S_1) = 0, so both sides vanish.
    r = verify.verify_cc1(sym("S2", A2), sym("S1", A2), table=table_a2)
    assert r.equal and r.lhs == "0" and r.rhs == "0"


def test_cc2_a2_golden(table_a2):
    # xi' = M[1,1] = P(1), rho = (0, 1) picks P = P(2) = S_2, I = I(2).
    # LHS = (0*1 + 1*1) X_{P(1)} x2 = (x2^-1 + x1^-1 x2^-1 + x1^-1) x2.
    r = verify.verify_cc2(sym("M[1,1]", A2), (0, 1), table=table_a2)
    assert r.equal
    assert r.lhs == "x1^-1 + x1^-1*x2 + 1"
    assert r.rhs == r.lhs


def test_cc2_kronecker_zero(table_k):
    # xi' = S_1 has dims (1, 0), so rho = (0, 1) pairs to 0 on the left;
    # on the right Hom(S_1, I(2)) = Hom(P(2), S_1) = 0, and removing the
    # zero map empties both strata.
    r = verify.verify_cc2(sym("S1"), (0, 1), table=table_k)
    assert r.equal and r.lhs == "0" and r.rhs == "0"


def test_cc2_bad_rho(table_a2):
    with pytest.raises(ValueError):
        verify.verify_cc2(sym("S1", A2), (1,), table=table_a2)
    with pytest.raises(ValueError):
        verify.verify_cc2(sym("S1", A2), (0, -1), table=table_a2)


def test_interpolating_verifiers_start_at_the_operands_floor(table_k):
    # R(1,1)@0 and R(1,1)@3 are regular simples in two tubes.  Each tag
    # alone allows p = 2, but the two tags collide mod 2, so the operands'
    # floor (`catalog.min_prime_for_symbols`) is 3.
    xi, eta = sym("R(1,1)@0"), sym("R(1,1)@3")
    assert (xi.min_prime(), eta.min_prime()) == (2, 2)
    assert catalog.min_prime_for_symbols((xi, eta)) == 3
    # Degenerate Green with (xi, eta) = (xi', eta'): Hom between distinct
    # tubes is 0, so the only subreps of L = xi + eta in the rational-tube
    # fingerprint group of R(1,1), with quotient in it too, are the two
    # summands: lhs = 2.  The splittings (gam, delt, alp, bet) are
    # (R@0, 0, 0, R@3) and (0, R@0, R@3, 0): rhs = 2.
    r = verify.verify_green_degenerate(xi, eta, xi, eta)
    assert r.equal and (r.lhs, r.rhs) == ("2", "2")
    # Ext^1 between distinct tubes is 0: no nonsplit middle, so the
    # projective blocks and cc1's dim Ext^1 both vanish, and Hom(R@3,
    # tau R@0 = R@0) = 0 leaves no Hom stratum.
    r = verify.verify_green_projective(xi, eta, xi, eta)
    assert r.equal and (r.lhs, r.rhs) == ("0", "0")
    r = verify.verify_cc1(xi, eta, table=table_k)
    assert r.equal and (r.lhs, r.rhs) == ("0", "0")


# cc1 on the ordered pairs of Kronecker indecomposables up to (2, 2) whose
# sum stays within (3, 3), sharing one CharTable (a pair whose table raises
# OutsideCatalog is skipped), and cc2 on each of them against three rho:
# the reports as JSON, timing aside.  R(2,2)@0 with itself takes minutes.
_HASH_SEED_PROBE = """
import itertools, json
from hallchar import cluster, symspace, verify
from hallchar.errors import OutsideCatalog
from hallchar.quiver import kronecker_quiver

K = kronecker_quiver()
table = cluster.CharTable(K)
syms = symspace.indecomposable_symbols(K, (2, 2))
reports = []
for xi2, eta2 in itertools.product(syms, repeat=2):
    if all(a + b <= 3 for a, b in zip(xi2.dims, eta2.dims)):
        try:
            reports.append(verify.verify_cc1(xi2, eta2, table=table))
        except OutsideCatalog:
            pass
for xi2, rho in itertools.product(syms, [(1, 0), (0, 1), (1, 1)]):
    reports.append(verify.verify_cc2(xi2, rho, table=table))
for report in reports:
    report.timing_ms = 0
print(json.dumps([report.to_dict() for report in reports]))
"""


def test_cluster_reports_do_not_depend_on_the_hash_seed():
    """Term order follows first-seen order, not the hash of the keys."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hallchar.__file__)))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=dict(env, PYTHONHASHSEED=seed), stdout=subprocess.PIPE, text=True,
        )
        for seed in ("1", "2")
    ]
    outs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs[0] == outs[1]
    assert any(len(report["terms"]) > 3 for report in json.loads(outs[0]))


# ---------------------------------------------------------------------------
# interpolation audit trail
# ---------------------------------------------------------------------------


def test_verified_fits_counter_increments(table_k):
    def fits(call):
        before = qpoly.VERIFIED_FITS
        call()
        return qpoly.VERIFIED_FITS - before

    # two counting polynomials (lhs and rhs), each with held-out checks
    assert fits(lambda: verify.verify_green_degenerate(
        sym("S1", A2), sym("S2", A2), sym("S2", A2), sym("S1", A2), verify=2
    )) == 2
    # one polynomial per block (i)-(iv), none checked without held-out primes
    for held_out, grown in ((2, 4), (0, 0)):
        assert fits(lambda: verify.verify_green_projective(
            sym("S1"), sym("S2"), sym("S1"), sym("S2"), verify=held_out
        )) == grown
    # with the characters cached, cc1 fits one polynomial for the nonsplit
    # middles of Ext^1(S_1, S_2) (the regular simples, one fingerprint
    # group) and one for the nonzero maps S_2 -> tau S_1 (all injective)
    verify.verify_cc1(sym("S1"), sym("S2"), table=table_k)
    assert fits(lambda: verify.verify_cc1(sym("S1"), sym("S2"), table=table_k)) == 2


def test_assoc_projective_remainder_raises(monkeypatch):
    # One extra map in every Hom(S_2, R) stratum over F_3 leaves counts
    # that p - 1 = 2 does not divide once the zero map is removed (2 - 1
    # for the zero stratum, 3 for the injective maps).
    hom_census = strata.hom_census
    monkeypatch.setattr(
        strata,
        "hom_census",
        lambda *a, **k: {key: c + 1 for key, c in hom_census(*a, **k).items()},
    )
    with pytest.raises(VerificationMismatch):
        verify.verify_assoc(
            sym("S1"), sym("0"), sym("0"), sym("S2"), sym("R(1,1)@0"), primes=(3,)
        )


# ---------------------------------------------------------------------------
# the splitting sum against the full product of census entries
# ---------------------------------------------------------------------------

BUDGET = verify.DEFAULT_SUBSPACE_BUDGET


fingerprint = catalog.fingerprint_of_classes


def merged_fingerprint(classes1, classes2):
    """The fingerprint of the direct sum of two decompositions."""
    acc = collections.Counter()
    for cls, mult in itertools.chain(classes1, classes2):
        acc[cls] += mult
    return fingerprint(acc.items())


def ext_stratum_rescan(X, Y, target_fpr):
    """#extension classes of X by Y whose middle has the fingerprint
    `target_fpr`, by a rescan of the extension census."""
    census = strata.ext_middle_census(X, Y, budget=BUDGET)
    return sum(c for mid, c in census.items() if fingerprint(mid) == target_fpr)


def hall_fp_rescan(M, quot_fpr, sub_fpr, e, key_classes=None):
    """Hall number of M with fingerprint-matched quotient and sub types, by
    a rescan of the whole census that compares fingerprints entry by entry."""
    if any(x < 0 or x > d for x, d in zip(e, M.dims)):
        return 0
    census = subspaces.hall_census(M, e, budget=BUDGET, key_classes=key_classes)
    return sum(
        c
        for (quot, sub), c in census.items()
        if fingerprint(quot) == quot_fpr and fingerprint(sub) == sub_fpr
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_census_view_matches_rescan(data):
    """`verify._hall_fp` reads one entry of the fingerprint-keyed census
    view; on random A_3 modules it equals the rescan, for the pairs in the
    census, for pairs of symbols of the right dimensions and out of range."""
    p = data.draw(st.sampled_from([2, 3]), label="p")
    dims = data.draw(st.tuples(*[st.integers(0, 2)] * 3), label="dims")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    M = random_rep(A3, dims, p, np.random.default_rng(seed))
    e = data.draw(st.tuples(*[st.integers(0, d + 1) for d in dims]), label="e")
    key_classes = data.draw(st.sampled_from([None, catalog.decompose(M)]), label="key")
    pairs = []
    if all(x <= d for x, d in zip(e, dims)):
        census = subspaces.hall_census(M, e, budget=BUDGET)
        pairs += [(fingerprint(q), fingerprint(s)) for q, s in census]
        quot_dims = tuple(d - x for d, x in zip(dims, e))
        pairs.append(tuple(
            data.draw(st.sampled_from(symspace.symbols_with_dims(A3, d))).fingerprint()
            for d in (quot_dims, e)
        ))
    else:
        pairs.append((fingerprint(catalog.decompose(M)), ((), ())))
    for quot_fpr, sub_fpr in pairs:
        view = verify._hall_fp(
            M, catalog._fingerprint_id(quot_fpr), catalog._fingerprint_id(sub_fpr),
            e, BUDGET, key_classes,
        )
        assert view == hall_fp_rescan(M, quot_fpr, sub_fpr, e, key_classes)


def _split_entries_oracle(cls, mods):
    """Every census entry of xi' and of eta', over every subdimension."""
    out = []
    for k in ("xi2", "eta2"):
        M = mods[k]
        entries = []
        for e in itertools.product(*[range(d + 1) for d in M.dims]):
            entries.extend(subspaces.hall_census(M, e, budget=BUDGET, key_classes=cls[k]).items())
        out.append(entries)
    return out


def green_degenerate_oracle(xi, eta, xi2, eta2):
    """(lhs, rhs) of the degenerate Green identity at q = 1 for one tuple:
    the Hall census of L = xi' + eta' at dim eta alone, and Green's
    splitting sum over e' + e'' = dim eta (`verify._splittings`) filtered
    by fingerprint, each fitted in q and evaluated at 1."""
    L = xi2.direct_sum(eta2)

    def counts(p):
        fpxi, fpeta = fingerprint(xi.concrete_classes(p)), fingerprint(eta.concrete_classes(p))
        lhs = hall_fp_rescan(L.instantiate(p), fpxi, fpeta, eta.dims, L.concrete_classes(p))
        rhs = 0
        cls, mods = verify._materialize(p, xi2=xi2, eta2=eta2)
        splits = verify._split_dims(xi2.dims, eta2.dims, [(xi.dims, eta.dims)])
        for (gam, delt, alp, bet), c, _, _ in verify._splittings(cls, mods, splits, BUDGET):
            if merged_fingerprint(gam, alp) == fpxi and merged_fingerprint(delt, bet) == fpeta:
                rhs += c
        return {"lhs": lhs, "rhs": rhs}

    bound = max(
        cluster.grassmannian_degree_bound(L.dims, eta.dims),
        verify._max_sub_degree_any(xi2.dims) + verify._max_sub_degree_any(eta2.dims),
    )
    min_prime = max(s.min_prime() for s in (xi, eta, xi2, eta2))
    table = qpoly.counting_table(counts, bound, min_prime, 2)
    return table["lhs"].at_one(), table["rhs"].at_one()


def green_ff_lhs_oracle(quiver, xi, eta, xi2, eta2, p):
    """Green's left-hand side at p and its number of middle terms, with the
    middles of (xi', eta') rescanned for this instance: one middle per
    fingerprint of the extension census, and both of its Hall numbers
    g^lam_{xi,eta} and g^lam_{xi',eta'} by rescan."""
    cls, mods = verify._materialize(p, xi=xi, eta=eta, xi2=xi2, eta2=eta2)
    census = strata.ext_middle_census(mods["xi2"], mods["eta2"], budget=BUDGET)
    middles = {}
    for lam in census:
        middles.setdefault(fingerprint(lam), lam)
    auts = 1
    for k in ("xi", "eta", "xi2", "eta2"):
        auts *= catalog.aut_count_of_classes(quiver, cls[k], p)
    lhs, n_lam = Fraction(0), 0
    for lam in middles.values():
        lam_mod = catalog.module_from_classes(quiver, lam, p)
        g1 = hall_fp_rescan(lam_mod, fingerprint(cls["xi"]), fingerprint(cls["eta"]), eta.dims, lam)
        g2 = hall_fp_rescan(lam_mod, fingerprint(cls["xi2"]), fingerprint(cls["eta2"]), eta2.dims, lam)
        if g1 and g2:
            lhs += Fraction(g1 * g2 * auts, catalog.aut_count_of_classes(quiver, lam, p))
            n_lam += 1
    return lhs, n_lam


def green_ff_rhs_oracle(quiver, xi, eta, xi2, eta2, p):
    """Green's right-hand side at p and its number of terms, from the full
    product of the census entries of xi' and eta', filtered by dimension."""
    cls, mods = verify._materialize(p, xi=xi, eta=eta, xi2=xi2, eta2=eta2)
    entries_xi2, entries_eta2 = _split_entries_oracle(cls, mods)
    rhs, n_rhs = Fraction(0), 0
    for (gam, delt), c1 in entries_xi2:
        dims_gam = catalog.decomposition_dims(quiver, gam)
        dims_delt = catalog.decomposition_dims(quiver, delt)
        for (alp, bet), c2 in entries_eta2:
            dims_alp = catalog.decomposition_dims(quiver, alp)
            dims_bet = catalog.decomposition_dims(quiver, bet)
            if verify._dims_sum(dims_gam, dims_alp) != xi.dims:
                continue
            if verify._dims_sum(dims_delt, dims_bet) != eta.dims:
                continue
            g3 = hall_fp_rescan(mods["xi"], fingerprint(gam), fingerprint(alp), dims_alp)
            g4 = hall_fp_rescan(mods["eta"], fingerprint(delt), fingerprint(bet), dims_bet)
            if g3 == 0 or g4 == 0:
                continue
            v_gam = catalog.module_from_classes(quiver, gam, p)
            v_bet = catalog.module_from_classes(quiver, bet, p)
            weight = Fraction(p ** rep.ext1_dim(v_gam, v_bet), p ** rep.hom_dim(v_gam, v_bet))
            auts = 1
            for classes in (alp, bet, delt, gam):
                auts *= catalog.aut_count_of_classes(quiver, classes, p)
            rhs += weight * c1 * c2 * g3 * g4 * auts
            n_rhs += 1
    return rhs, n_rhs


def projective_split_blocks_oracle(quiver, xi2, eta2, xi, eta, p):
    """Blocks (ii) and (iii) of the projective Green identity at p and the
    split count of block (iv), from the same filtered full product."""
    cls, mods = verify._materialize(p, xi=xi, eta=eta, xi2=xi2, eta2=eta2)
    fpxi, fpeta = fingerprint(cls["xi"]), fingerprint(cls["eta"])
    entries_xi2, entries_eta2 = _split_entries_oracle(cls, mods)
    hom_xi2_eta2 = rep.hom_dim(mods["xi2"], mods["eta2"])
    block_ii = block_iii = n_split = 0
    for (gam, delt), c1 in entries_xi2:
        for (alp, bet), c2 in entries_eta2:
            dims = [catalog.decomposition_dims(quiver, x) for x in (gam, delt, alp, bet)]
            if verify._dims_sum(dims[0], dims[2]) != xi.dims:
                continue
            if verify._dims_sum(dims[1], dims[3]) != eta.dims:
                continue
            v_gam, v_delt, v_alp, v_bet = (
                catalog.module_from_classes(quiver, x, p) for x in (gam, delt, alp, bet)
            )
            if merged_fingerprint(gam, alp) == fpxi and merged_fingerprint(delt, bet) == fpeta:
                n_split += c1 * c2
                bracket = (
                    hom_xi2_eta2
                    - rep.hom_dim(v_gam, v_alp)
                    - rep.hom_dim(v_delt, v_bet)
                    - quiver.euler_form(dims[0], dims[3])
                )
                block_iii += bracket * c1 * c2
                continue
            n1 = ext_stratum_rescan(v_gam, v_alp, fpxi)
            n2 = ext_stratum_rescan(v_delt, v_bet, fpeta)
            block_ii += verify._exact_quotient(n1 * n2, p, "joint stratum") * c1 * c2
    return block_ii, block_iii, n_split


@st.composite
def green_tuples(draw, quiver, totals):
    """(xi, eta, xi', eta', p): (xi', eta') splits one total dimension vector
    and (xi, eta) splits the same one or any other (often not admissible);
    p is one of the two smallest primes the tube tags allow."""
    xi2, eta2 = draw(st.sampled_from(symspace.split_pairs(quiver, draw(st.sampled_from(totals)))))
    other = xi2.direct_sum(eta2).dims if draw(st.booleans()) else draw(st.sampled_from(totals))
    xi, eta = draw(st.sampled_from(symspace.split_pairs(quiver, other)))
    floor = catalog.min_prime_for_symbols((xi, eta, xi2, eta2))
    return xi, eta, xi2, eta2, draw(st.sampled_from(catalog.primes_from(floor, 2)))


A3_TOTALS = list(itertools.product(range(3), range(2), range(2)))
D4_TOTALS = list(itertools.product(range(2), range(2), range(2), range(3)))
K_TOTALS = [d for d in itertools.product(range(3), repeat=2) if sum(d) <= 3]


def green_ff_at_prime(xi, eta, xi2, eta2, p):
    """`verify._green_ff_at_prime` with the prime-independent data that
    `verify_green_ff` reads once per instance: (lhs, rhs, detail), each
    side a Fraction.  An instance whose dimensions do not add up, which
    `verify_green_ff` refuses, has no splittings."""
    quiver = xi.quiver
    fids = (xi.fingerprint_id(), eta.fingerprint_id())
    splits = verify._green_ff_splits(quiver, xi.dims, eta.dims, xi2.dims, eta2.dims) or (0, ())
    lhs, rhs, n_lam, n_rhs = verify._green_ff_at_prime(
        quiver, xi, eta, xi2, eta2, p, BUDGET, fids, splits
    )
    detail = {"middle_terms": n_lam, "splitting_terms": n_rhs}
    return Fraction(*lhs), Fraction(*rhs), detail


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    green_tuples(A3, A3_TOTALS),
    green_tuples(A3_SOURCE, A3_TOTALS),
    green_tuples(D4_SINK, D4_TOTALS),
))
def test_green_ff_splitting_sum_matches_full_product(case):
    """Both sides at p against oracles that read no factored table: the
    left side rescans the middles of (xi', eta') for the instance, the
    right side sums the full product of the census entries."""
    xi, eta, xi2, eta2, p = case
    quiver = xi.quiver
    lhs, rhs, detail = green_ff_at_prime(xi, eta, xi2, eta2, p)
    assert (lhs, detail["middle_terms"]) == green_ff_lhs_oracle(quiver, xi, eta, xi2, eta2, p)
    assert (rhs, detail["splitting_terms"]) == green_ff_rhs_oracle(quiver, xi, eta, xi2, eta2, p)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    green_tuples(A3, A3_TOTALS),
    green_tuples(A3_SOURCE, A3_TOTALS),
    green_tuples(D4_SINK, D4_TOTALS),
))
@example((sym("M[1,0,0]", A3),) * 4 + (2,))  # lhs = rhs = 3/2
def test_green_ff_report_prints_the_oracle_fractions(case):
    """The report of one prime prints each side as `str(Fraction)` of the
    oracles and is EQUAL exactly when they agree; an instance whose
    dimensions do not add up raises ValueError."""
    xi, eta, xi2, eta2, p = case
    if verify._dims_sum(xi.dims, eta.dims) != verify._dims_sum(xi2.dims, eta2.dims):
        with pytest.raises(ValueError, match="green_ff needs"):
            verify.verify_green_ff(xi, eta, xi2, eta2, primes=(p,))
        return
    quiver = xi.quiver
    lhs, _ = green_ff_lhs_oracle(quiver, xi, eta, xi2, eta2, p)
    rhs, _ = green_ff_rhs_oracle(quiver, xi, eta, xi2, eta2, p)
    r = verify.verify_green_ff(xi, eta, xi2, eta2, primes=(p,))
    assert [(t["lhs"], t["rhs"]) for t in r.terms] == [(str(lhs), str(rhs))]
    assert (r.lhs, r.rhs) == (str([str(lhs)]), str([str(rhs)]))
    assert r.equal == (lhs == rhs)


@settings(max_examples=40, deadline=None)
@given(st.one_of(green_tuples(A3, A3_TOTALS), green_tuples(K, K_TOTALS)))
def test_green_projective_splitting_blocks_match_full_product(case):
    xi, eta, xi2, eta2, p = case
    quiver = xi.quiver
    blocks = verify._green_projective_blocks(quiver, xi2, eta2, xi, eta, p, BUDGET)
    block_ii, block_iii, n_split = projective_split_blocks_oracle(quiver, xi2, eta2, xi, eta, p)
    assert (blocks["off_diagonal"], blocks["diagonal"]) == (block_ii, block_iii)
    cls, mods = verify._materialize(p, xi=xi, eta=eta, xi2=xi2, eta2=eta2)
    n_all = hall_fp_rescan(
        rep.direct_sum(mods["xi2"], mods["eta2"]),
        fingerprint(cls["xi"]), fingerprint(cls["eta"]), eta.dims,
    )
    assert blocks["hall_variety"] * (p - 1) == n_all - n_split


@settings(max_examples=15, deadline=None)
@given(st.one_of(green_tuples(A3, A3_TOTALS), green_tuples(K, K_TOTALS)))
def test_green_degenerate_splitting_sum_matches_bulk(case):
    """The table the two degenerate verifiers read sums the census-entry
    product; the oracle reads only the splitting censuses."""
    xi, eta, xi2, eta2, _ = case
    oracle = green_degenerate_oracle(xi, eta, xi2, eta2)
    single = verify.verify_green_degenerate(xi, eta, xi2, eta2)
    assert (single.lhs, single.rhs) == tuple(map(str, oracle))
    if verify._dims_sum(xi.dims, eta.dims) == verify._dims_sum(xi2.dims, eta2.dims):
        (term,) = verify.verify_green_degenerate_all(xi2, eta2, [(xi, eta)]).terms
        assert (term["lhs"], term["rhs"]) == oracle


# ---------------------------------------------------------------------------
# projectivizing at each prime against dividing the fitted polynomial
# ---------------------------------------------------------------------------


def grouped_by_fingerprint(entries, fp):
    """{fp(key): (count, first key)} over the (key, count) entries with
    count != 0, in first-seen order."""
    out = {}
    for key, c in entries:
        if c:
            c0, first = out.get(fp(key), (0, key))
            out[fp(key)] = (c0 + c, first)
    return out


def fit_then_divide(counts, bound, floor):
    """[(chi, first key)] for the groups of `counts(p)` ({group: (count,
    key)}, counts undivided) whose fit, divided by q - 1
    (`divide_by_q_minus_1`), is nonzero at q = 1, in first-seen order."""
    keys = {}

    def table(p):
        out = {}
        for group, (c, key) in counts(p).items():
            out[group] = c
            keys.setdefault(group, key)
        return out

    fits = qpoly.counting_table(table, bound, floor, 2)
    chis = [(divide_by_q_minus_1(poly).at_one(), keys[group]) for group, poly in fits.items()]
    return [(chi, key) for chi, key in chis if chi]


def projectivized_both_ways(xi2, eta2):
    """{part: (at the prime, reference)} for the Hom strata xi' -> eta' and
    the nonsplit middles of Ext^1(xi', eta'): the (chi, key) lists of
    `verify._euler_characteristics`, and of `fit_then_divide` over the
    undivided counts with the zero map (coker eta', ker xi') taken out, or
    the split middle xi' + eta' left out."""
    floor = catalog.min_prime_for_symbols((xi2, eta2))
    bounds = hom_and_ext_dims(xi2, eta2)

    def hom_counts(p):
        zero = (catalog.sort_classes(eta2.concrete_classes(p)),
                catalog.sort_classes(xi2.concrete_classes(p)))
        census = strata.hom_census(xi2.instantiate(p), eta2.instantiate(p), budget=BUDGET)
        return grouped_by_fingerprint(
            ((key, c - (key == zero)) for key, c in census.items()),
            lambda key: tuple(map(fingerprint, key)),
        )

    def middle_counts(p):
        census = strata.ext_middle_census(xi2.instantiate(p), eta2.instantiate(p), budget=BUDGET)
        out = grouped_by_fingerprint(census.items(), fingerprint)
        out.pop(merged_fingerprint(xi2.concrete_classes(p), eta2.concrete_classes(p)), None)
        return out

    parts = {
        "hom": (verify._projective_hom_groups, hom_counts),
        "middles": (verify._projective_middles, middle_counts),
    }
    return {
        part: (
            verify._euler_characteristics(
                lambda p: at_prime(xi2, eta2, p, BUDGET), bound, floor, 2
            ),
            fit_then_divide(undivided, bound, floor),
        )
        for (part, (at_prime, undivided)), bound in zip(parts.items(), bounds)
    }


def hom_and_ext_dims(xi2, eta2):
    """(dim Hom(xi', eta'), dim Ext^1(xi', eta')) at the operands' floor:
    the degree bounds of the Hom strata and the middles."""
    p0 = catalog.min_prime_for_symbols((xi2, eta2))
    M1, M2 = xi2.instantiate(p0), eta2.instantiate(p0)
    return rep.hom_dim(M1, M2), rep.ext1_dim(M1, M2)


@st.composite
def catalogue_pairs(draw):
    """(xi', eta') splitting a small total dimension vector on A_3, D_4 with
    its sink at vertex 4, or the Kronecker quiver with tube tags.  Degree
    bounds above 4 are left out: their fits count p^5 maps or classes at
    the eighth prime, 19, over the budget."""
    quiver, totals = draw(st.sampled_from([(A3, A3_TOTALS), (D4_SINK, D4_TOTALS), (K, K_TOTALS)]))
    pairs = symspace.split_pairs(quiver, draw(st.sampled_from(totals)))
    return draw(st.sampled_from(pairs).filter(lambda pair: max(hom_and_ext_dims(*pair)) <= 4))


@settings(max_examples=60, deadline=None)
@given(catalogue_pairs())
@example((sym("0"), sym("R(1,1)@1")))  # Hom from the zero module: nothing
@example((sym("R(1,1)@0"), sym("R(1,1)@0")))  # one tube: End and a self-extension
@example((sym("M[1,1,0]", A3), sym("M[0,0,1]+M[1,0,0]", A3)))  # one Hom group, one middle group
def test_projectivizing_at_the_prime_matches_dividing_the_fit(pair):
    """Dividing each count by p - 1 before the fit gives the chi and key
    lists, order included, that fitting the undivided counts and dividing
    the polynomial by q - 1 gives."""
    for part, (got, want) in projectivized_both_ways(*pair).items():
        assert got == want, part


def test_projectivized_zero_map_and_one_middle_group():
    # Kronecker (S_1, S_2): Hom(S_1, S_2) = 0, so the zero map is the only
    # stratum and removing it leaves no Hom term.  The nonsplit middles are
    # the p + 1 regular simples R_x, one fingerprint group of
    # (p^2 - 1)/(p - 1) = p + 1 classes: chi(P^1) = 2, keyed by a regular
    # simple of dimension (1, 1) (`test_green_projective_kronecker_table`).
    both = projectivized_both_ways(sym("S1"), sym("S2"))
    assert both["hom"] == ([], [])
    got, want = both["middles"]
    assert got == want and [chi for chi, _ in got] == [2]
    assert catalog.fingerprint_id(got[0][1]) == sym("R(1,1)@0").fingerprint_id()
