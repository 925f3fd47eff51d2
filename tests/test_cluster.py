"""Cluster characters: golden values, path agreement, multiplicativity.

Expected Laurent polynomials are hand-derived from the definition
X_M = sum_e chi(Gr_e(M)) x^(e R + (d-e) R^T - d); the derivations are
recorded next to each assertion.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hallchar import catalog, cluster, memo, qpoly, symspace
from hallchar.catalog import parse_symbol
from hallchar.errors import BudgetExceeded, VerificationMismatch
from hallchar.laurent import LaurentPoly
from hallchar.quiver import Quiver, kronecker_quiver, linear_quiver

A1 = linear_quiver(1)
A2 = linear_quiver(2)
A3 = linear_quiver(3)
K = kronecker_quiver()
D4_SINK = Quiver(4, [(0, 3), (1, 3), (2, 3)])

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "hallbench"))
from workloads import CHAR_POOLS  # noqa: E402


def mono(exps, c=1):
    return LaurentPoly.monomial(exps, c)


def test_character_exponent_a2():
    # A_2 has R = [[0,1],[0,0]].  For d = (1,0) (the simple S_1):
    #   e = (0,0): 0*R + (1,0)R^T - (1,0) = (0,0) + (0,0) - (1,0) = (-1,0)
    #   e = (1,0): (1,0)R - (1,0)      = (0,1) - (1,0)          = (-1,1)
    assert cluster.character_exponent(A2, (1, 0), (0, 0)) == (-1, 0)
    assert cluster.character_exponent(A2, (1, 0), (1, 0)) == (-1, 1)


def test_chi_grassmannian_projective_spaces():
    # Gr_1 of S_1^m over the one-vertex quiver is P^{m-1}:
    # chi(P^1) = 2, chi(P^2) = 3.
    assert cluster.chi_grassmannian(parse_symbol("2*S1", A1), (1,)) == 2
    assert cluster.chi_grassmannian(parse_symbol("3*S1", A1), (1,)) == 3
    # out-of-range e is not a subdimension vector
    assert cluster.chi_grassmannian(parse_symbol("S1", A1), (2,)) == 0
    with pytest.raises(ValueError):
        cluster.chi_grassmannian(parse_symbol("S1", A2), (1,))


def test_char_simples_a2():
    # S_1 on A_2: subreps e = (0,0) and (1,0), both one point, so
    # X_{S_1} = x1^-1 + x1^-1 x2 (exponents derived above).
    assert cluster.char_of_symbol(parse_symbol("S1", A2)) == (
        mono((-1, 0)) + mono((-1, 1))
    )
    # S_2 = P(2) is simple projective: e = (0,0) gives
    # (0,1)R^T - (0,1) = (1,0) - (0,1) = (1,-1); e = (0,1) gives
    # (0,1)R - (0,1) = (0,-1).  X_{S_2} = x1 x2^-1 + x2^-1.
    assert cluster.char_of_symbol(parse_symbol("S2", A2)) == (
        mono((1, -1)) + mono((0, -1))
    )


def test_char_projective_a2():
    # P(1) on A_2 has d = (1,1); its subreps are 0, S_2, P(1) (e = (1,0)
    # is not closed under the arrow), each a single point:
    #   e = (0,0): (1,1)R^T - (1,1) = (1,0) - (1,1) = (0,-1)
    #   e = (0,1): (0,1)R + (1,0)R^T - (1,1) = (0,0)+(0,0)-(1,1) = (-1,-1)
    #   e = (1,1): (1,1)R - (1,1) = (0,1) - (1,1) = (-1,0)
    assert cluster.char_of_symbol(parse_symbol("P1", A2)) == (
        mono((0, -1)) + mono((-1, -1)) + mono((-1, 0))
    )


def test_char_simples_kronecker():
    # Kronecker R = [[0,2],[0,0]].  S_1 has subreps e = (0,0), (1,0):
    #   e = (0,0): (1,0)R^T - (1,0) = (-1,0)
    #   e = (1,0): (1,0)R - (1,0) = (0,2) - (1,0) = (-1,2)
    # so X_{S_1} = x1^-1 (1 + x2^2); dually X_{S_2} = x2^-1 (1 + x1^2).
    assert cluster.char_of_symbol(parse_symbol("S1", K)) == (
        mono((-1, 0)) + mono((-1, 2))
    )
    assert cluster.char_of_symbol(parse_symbol("S2", K)) == (
        mono((0, -1)) + mono((2, -1))
    )


def test_char_regular_kronecker():
    # The regular R(lam, 1) has d = (1,1), matrices [1], [lam]; subreps are
    # e = (0,0), (0,1), (1,1), one point each (e = (1,0) would need the
    # source line killed by both arrows, impossible):
    #   e = (0,0): (1,1)R^T - (1,1) = (2,0) - (1,1) = (1,-1)
    #   e = (0,1): (0,1)R + (1,0)R^T - (1,1) = (-1,-1)
    #   e = (1,1): (1,1)R - (1,1) = (0,2) - (1,1) = (-1,1)
    X = cluster.char_of_symbol(parse_symbol("R(1,1)@0", K))
    assert X == mono((1, -1)) + mono((-1, -1)) + mono((-1, 1))
    # chi(Gr_e) sums to the number of subrep strata: 3
    assert sum(X.terms.values()) == 3
    # any tube point gives the same character
    assert cluster.char_of_symbol(parse_symbol("R(1,1)@1", K)) == X


def test_char_zero_module():
    assert cluster.char_of_symbol(parse_symbol("0", A2)) == LaurentPoly.constant(2, 1)
    assert cluster.char_of_symbol(parse_symbol("0", K)) == LaurentPoly.constant(2, 1)


def test_char_by_strata_agrees():
    for quiver, text in [
        (A2, "P1"),
        (A2, "S1 + S2"),
        (K, "S1"),
        (K, "R(1,1)@0"),
        (K, "P[1,2]"),
        (A3, "P1"),
    ]:
        sym = parse_symbol(text, quiver)
        assert cluster.char_by_strata(sym) == cluster.char_of_symbol(sym)


def test_multiplicativity():
    # X is multiplicative over direct sums: X_{M + N} = X_M X_N.
    for quiver, a, b in [
        (A2, "S1", "S2"),
        (A2, "P1", "S1"),
        (K, "S1", "S2"),
        (K, "R(1,1)@0", "R(1,1)@1"),
        (A3, "S2", "P1"),
    ]:
        A = parse_symbol(a, quiver)
        B = parse_symbol(b, quiver)
        lhs = cluster.char_of_symbol(A.direct_sum(B))
        assert lhs == cluster.char_of_symbol(A) * cluster.char_of_symbol(B)


def test_socle_and_top_monomials():
    # Kronecker injectives: I(1) = S_1 = I[1,0], I(2) = I[2,1]; the socle
    # of I(1) + I(2) is S_1 + S_2, so x^(dim soc) = x1 x2.
    assert cluster.socle_monomial(K, [(("I", 0), 1), (("I", 1), 1)]) == mono((1, 1))
    # A_2: top(P(1) + P(2)^2) = S_1 + S_2^2
    assert cluster.top_monomial(
        A2, [(("root", (1, 1)), 1), (("root", (0, 1)), 2)]
    ) == mono((1, 2))
    with pytest.raises(ValueError):
        cluster.socle_monomial(K, [(("P", 0), 1)])  # projective, not injective
    with pytest.raises(ValueError):
        cluster.top_monomial(A2, [(("root", (1, 0)), 1)])  # S_1 not projective


def test_char_of_shifted_projective():
    # P[1] has character x^(dim top P), and dim top P is the multiplicity
    # vector of P = + P(v)^{m_v}: P(2)[1] on A_2 gives x2, P(1)^2[1] x1^2.
    assert cluster.top_monomial(A2, [(("root", (0, 1)), 1)]) == mono((0, 1))
    assert cluster.top_monomial(A2, [(("root", (1, 1)), 2)]) == mono((2, 0))


def test_chartable_memo_and_checks():
    T = cluster.CharTable(K)
    sym = parse_symbol("S1 + S2", K)
    X = T.char(sym)
    assert X is T.char(sym)  # memoized
    assert X == cluster.char_of_symbol(parse_symbol("S1", K)) * cluster.char_of_symbol(
        parse_symbol("S2", K)
    )
    with pytest.raises(ValueError):
        T.char(parse_symbol("S1", A2))


def test_chartable_failed_check_stores_nothing(monkeypatch):
    """A character whose cross-check raises is not kept: the next call
    computes and checks it again, and raises again.  The Kronecker regular
    is checked against its coefficient quiver, the D_4 simple against its
    Hall strata."""
    for quiver, text, check in [
        (K, "R(1,1)@0", "char_by_coefficient_quivers"),
        (D4_SINK, "S1", "char_by_strata"),
    ]:
        T = cluster.CharTable(quiver)
        sym = parse_symbol(text, quiver)
        monkeypatch.setattr(cluster, check, lambda *a, **k: LaurentPoly.zero(quiver.n))
        for _ in range(2):
            with pytest.raises(VerificationMismatch):
                T.char(sym)
        assert not T._memo and not any(T.checks.values())
        monkeypatch.undo()
        assert T.char(sym) == cluster.char_of_symbol(sym)


def test_chartable_computes_kronecker_p23_p34_i32():
    """The coefficient-quiver check reaches Kronecker classes whose Hall
    strata hold a sub or quotient at a degree-2 point of P^1, which the
    stratified check could not classify."""
    T = cluster.CharTable(K)
    for text in ("P[2,3]", "P[3,4]", "I[3,2]"):
        sym = parse_symbol(text, K)
        assert T.char(sym) == cluster.char_of_symbol(sym)
    assert T.checks == {"coefficient_quivers": 3, "strata": 0, "skipped": 0}


def test_chartable_char_of_classes_concrete():
    # concrete regular labels (census keys) are lifted to abstract tags
    T = cluster.CharTable(K)
    X = T.char_of_classes([(("Rc", 0, 1), 1)])
    assert X == cluster.char_of_symbol(parse_symbol("R(1,1)@0", K))
    # and the lift maps distinct points to distinct tags
    Y = T.char_of_classes([(("Rc", 0, 1), 1), (("Rc", catalog.INF, 1), 1)])
    assert Y == X * X


def test_abstract_symbol_from_classes_fingerprint():
    pairs = [(("Rc", 0, 2), 1), (("Rc", 1, 1), 3), (("P", 0), 1)]
    sym = catalog.abstract_symbol_from_classes(K, pairs)
    assert sym.fingerprint() == catalog.fingerprint_of_classes(pairs)
    assert sym.dims == catalog.decomposition_dims(K, pairs)
    # abstract atoms pass through untouched
    again = catalog.abstract_symbol_from_classes(K, sym.atoms)
    assert again == sym


def test_chi_grassmannian_memo_keeps_budget_and_verify_apart():
    """A memoized χ(Gr_e) is read only by a call with the same budget and
    verify: a verify=2 call after a verify=0 call fits and checks again,
    and a budget=1 call after a default call raises as a fresh one does."""
    sym, e = parse_symbol("2*S2 + P1", A3), (0, 1, 1)
    memo.clear()
    cluster.chi_grassmannian(sym, e, verify=0)
    fits = qpoly.VERIFIED_FITS
    assert cluster.chi_grassmannian(sym, e, verify=2) == 3
    assert qpoly.VERIFIED_FITS == fits + 1

    memo.clear()
    with pytest.raises(BudgetExceeded, match="exceeds budget 1"):
        cluster.chi_grassmannian(sym, e, budget=1)
    assert cluster.chi_grassmannian(sym, e) == 3
    with pytest.raises(BudgetExceeded, match="exceeds budget 1"):
        cluster.chi_grassmannian(sym, e, budget=1)


# ---------------------------------------------------------------------------
# the coefficient-quiver oracle
# ---------------------------------------------------------------------------


def _orientation(n, flips):
    return Quiver(n, [(i + 1, i) if flip else (i, i + 1) for i, flip in enumerate(flips)])


@st.composite
def type_a_symbols(draw, max_total=5):
    """A symbol over a random orientation of A_2..A_5: a sum of interval
    roots with multiplicity, of total dimension <= max_total."""
    n = draw(st.integers(2, 5))
    quiver = _orientation(n, draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    atoms, total = [], 0
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a, n - 1))
        mult = draw(st.integers(1, 2))
        if total + mult * (b - a + 1) > max_total:
            break
        atoms.append((("root", tuple(int(a <= v <= b) for v in range(n))), mult))
        total += mult * (b - a + 1)
    return catalog.ModuleSymbol(quiver, atoms)


@st.composite
def kronecker_symbols(draw, cap=(3, 3)):
    """A Kronecker symbol within `cap`: preprojectives, preinjectives and
    regulars at several tube tags, each with multiplicity."""
    kinds = st.one_of(
        st.builds(lambda n: ("P", n), st.integers(0, 2)),
        st.builds(lambda n: ("I", n), st.integers(0, 2)),
        st.builds(lambda tag, m: ("R", tag, m), st.integers(0, 4), st.integers(1, 3)),
    )
    atoms = []
    for atom, mult in draw(st.lists(st.tuples(kinds, st.integers(1, 3)), max_size=3)):
        dims = catalog.decomposition_dims(K, atoms + [(atom, mult)])
        if all(x <= c for x, c in zip(dims, cap)):
            atoms.append((atom, mult))
    return catalog.ModuleSymbol(K, atoms)


@settings(max_examples=60, deadline=None)
@given(st.one_of(type_a_symbols(), kronecker_symbols()))
# 5*S1 at the source of A_2: Gr_(2,0) closes at vertex 1 in closed form
@example(catalog.ModuleSymbol(_orientation(2, [False]), [(("root", (1, 0)), 5)]))
# tags 0 and 4 split mod 2 and collide mod 3: the sweep starts at 5
@example(parse_symbol("R(1,1)@0+R(1,1)@4", K))
def test_coefficient_quivers_agree_with_char_of_symbol(sym):
    X = cluster.char_by_coefficient_quivers(sym)
    assert X is not None
    assert X == cluster.char_of_symbol(sym)


def _closed_subset_counts(M):
    """{e: #subsets of the basis closed under M's nonzero matrix entries},
    by enumerating every subset: the brute force the string walk replaces."""
    nodes = [(v, i) for v in range(M.quiver.n) for i in range(M.dims[v])]
    edges = [
        ((s, c), (t, r))
        for (s, t), mat in zip(M.quiver.arrows, M.mats)
        for r, row in enumerate(mat)
        for c, x in enumerate(row)
        if x
    ]
    out = {}
    for picks in itertools.product((False, True), repeat=len(nodes)):
        chosen = {b for b, pick in zip(nodes, picks) if pick}
        if all(t in chosen for s, t in edges if s in chosen):
            e = tuple(sum(1 for v, _ in chosen if v == u) for u in range(M.quiver.n))
            out[e] = out.get(e, 0) + 1
    return out


def _string_atoms():
    for flips in itertools.product((False, True), repeat=3):
        quiver = _orientation(4, flips)
        for root in quiver.positive_roots():
            yield quiver, ("root", root), ("root", root)
    for n in range(4):
        yield K, ("P", n), ("P", n)
        yield K, ("I", n), ("I", n)
    for m in range(1, 5):
        # R(m)@0 materializes at the point 0, where b = J_m(0)
        yield K, ("R", 0, m), ("Rc", 0, m)


@pytest.mark.parametrize("quiver, atom, cls", list(_string_atoms()))
def test_string_walk_counts_closed_subsets(quiver, atom, cls):
    """The per-atom counts equal a brute-force count of the closed subsets
    of the coefficient quiver of the catalogue's own module."""
    M = catalog.module_from_class(quiver, cls, 2)
    assert cluster._atom_subset_counts(quiver, atom) == _closed_subset_counts(M)


def test_coefficient_quivers_cover_strings_only():
    assert cluster.char_by_coefficient_quivers(parse_symbol("S1", D4_SINK)) is None
    assert cluster.char_by_coefficient_quivers(parse_symbol("S1 + S2", A3)) is not None
    Q = Quiver(3, [(0, 1), (1, 2), (0, 2)])  # not a path, no catalogue
    assert cluster.char_by_coefficient_quivers(parse_symbol("S1", Q)) is None


def test_off_by_one_atom_count_is_caught(monkeypatch):
    """A per-atom count that is off by one makes CharTable raise, on every
    call, and store nothing."""
    real = cluster._atom_subset_counts

    def off_by_one(quiver, atom):
        counts = dict(real(quiver, atom))
        counts[(0,) * quiver.n] += 1
        return counts

    monkeypatch.setattr(cluster, "_atom_subset_counts", off_by_one)
    T = cluster.CharTable(K)
    for _ in range(2):
        with pytest.raises(VerificationMismatch, match="coefficient-quiver character"):
            T.char(parse_symbol("P[1,2]", K))
    assert not T._memo and not any(T.checks.values())


def test_chartable_counts_which_check_served():
    """Every character of the characters-a benchmark pools is checked
    against its coefficient quivers; so is Kronecker 3*S1 + 3*S2, whose
    stratified census exceeds DEFAULT_CHECK_BUDGET; no nonzero D_4 class
    is."""
    for n, cap, max_total in CHAR_POOLS:
        quiver = linear_quiver(n)
        T = cluster.CharTable(quiver)
        for sym in symspace.all_symbols_up_to(quiver, cap):
            if sum(sym.dims) <= max_total:
                T.char(sym)
        assert T.checks == {"coefficient_quivers": len(T._memo), "strata": 0, "skipped": 0}
    T = cluster.CharTable(K)
    T.char(parse_symbol("3*S1 + 3*S2", K))
    assert T.checks["skipped"] == T.checks["strata"] == 0
    T = cluster.CharTable(D4_SINK)
    for sym in symspace.all_symbols_up_to(D4_SINK, (1, 1, 1, 1))[1:12]:
        assert not sym.is_zero()
        T.char(sym)
    assert T.checks["coefficient_quivers"] == 0 < T.checks["strata"]
