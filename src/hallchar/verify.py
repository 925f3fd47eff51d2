"""Numerical verification of Hall-algebra and cluster-character identities.

Each verifier takes module symbols, runs two independently coded
evaluations of one identity, and returns a VerificationReport with the
values, a per-term breakdown, and timings.

* verify_green_ff: the finite-field Green formula, an exact identity of
  rational numbers checked separately at each prime:

    a_xi a_eta a_xi' a_eta' sum_lam g^lam_{xi,eta} g^lam_{xi',eta'} / a_lam
      = sum (|Ext^1(g,b)| / |Hom(g,b)|)
            g^xi_{g,a} g^{xi'}_{g,d} g^eta_{d,b} g^{eta'}_{a,b} a_a a_b a_d a_g

  with (g,d) running over (quotient, sub) types of subreps of xi' and
  (a,b) over those of eta'.

* verify_green_degenerate: the specialization at q = 1, where only split
  middles survive:  g^{xi'+eta'}_{xi,eta}(1) equals the number (at q = 1)
  of ways to split xi and eta compatibly with subreps of xi' and eta'.
  verify_green_degenerate_all checks one (xi', eta') against many
  (xi, eta); both read one table of the two sides per (xi', eta').

* verify_green_projective: the q = 1 identity between projectivized
  counts (Euler characteristics of projectivized strata), in four blocks:
  (i) nonsplit middles against Hall numbers, (ii) joint projectivized
  extension strata over non-diagonal splittings, (iii) a dimension-count
  correction on diagonal splittings, minus (iv) the projectivized
  nonsplit Hall variety, counted once.

* verify_assoc: associativity of the Hall product against the graded
  composition-series counts h^{L1,L2}_{X,Y} = #{f : L1 -> L2 with
  ker f = Y, coker f = X}, in affine (exact per prime) and projectivized
  (also exact per prime) forms, in the primal and the dual direction.

* verify_cc1 / verify_cc2: the cluster multiplication formulas, equating
  products of cluster characters with Euler-characteristic-weighted sums
  over extension middles and homomorphism strata.

Isomorphism tests between per-prime decompositions are fingerprint
comparisons throughout; q = 1 values come from interpolating per-prime
counts (verified on extra primes) and evaluating at 1.
"""

import dataclasses
import itertools
import json
import time
from fractions import Fraction

from . import catalog, cluster, qpoly, rep, strata, subspaces
from .errors import UnsupportedQuiver
from .laurent import LaurentPoly
from .qpoly import QPolynomial
from .subspaces import DEFAULT_SUBSPACE_BUDGET

__all__ = [
    "VerificationReport",
    "verify_green_ff",
    "verify_green_degenerate",
    "verify_green_degenerate_all",
    "verify_green_projective",
    "verify_assoc",
    "verify_cc1",
    "verify_cc2",
]


@dataclasses.dataclass
class VerificationReport:
    theorem: str
    inputs: dict
    lhs: str
    rhs: str
    equal: bool
    terms: list
    polynomials: list
    timing_ms: float

    def to_dict(self):
        return dataclasses.asdict(self)

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent)

    def __str__(self):
        verdict = "EQUAL" if self.equal else "NOT EQUAL"
        return (
            f"[{self.theorem}] {verdict}\n"
            f"  lhs = {self.lhs}\n  rhs = {self.rhs}\n"
            f"  ({self.timing_ms:.1f} ms)"
        )


def _report(theorem, inputs, lhs, rhs, equal, terms, polys, t0):
    return VerificationReport(
        theorem=theorem,
        inputs=inputs,
        lhs=str(lhs),
        rhs=str(rhs),
        equal=bool(equal),
        terms=terms,
        polynomials=[str(f) for f in polys],
        timing_ms=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

_FP_CACHE = {}


def _fp(classes):
    """fingerprint_of_classes, memoized on the (hashable) decomposition."""
    out = _FP_CACHE.get(classes)
    if out is None:
        out = _FP_CACHE[classes] = catalog.fingerprint_of_classes(classes)
    return out


def _same_quiver(*symbols):
    quiver = symbols[0].quiver
    for s in symbols[1:]:
        if s.quiver.key != quiver.key:
            raise ValueError("symbols live over different quivers")
    return quiver


def _dims_sum(*dims):
    return tuple(sum(ds) for ds in zip(*dims))


def _common_primes(symbols, count):
    start = max(s.min_prime() for s in symbols)
    return catalog.primes_from(start, count)


def _merge_classes(*decomps):
    """Direct sum of concrete decompositions (concatenate and merge)."""
    acc = {}
    for decomp in decomps:
        for cls, mult in decomp:
            acc[cls] = acc.get(cls, 0) + mult
    return catalog.sort_classes(acc.items())


def _hall_fp(M, quot_fpr, sub_fpr, e, budget, key_classes=None):
    """Hall number of M with fingerprint-matched quotient and sub types."""
    if any(x < 0 or x > d for x, d in zip(e, M.dims)):
        return 0
    census = subspaces.hall_census(M, e, budget=budget, key_classes=key_classes)
    return sum(
        c
        for (quot, sub), c in census.items()
        if _fp(quot) == quot_fpr and _fp(sub) == sub_fpr
    )


def _group_by_fp(entries, fp=_fp, drop=None):
    """Sum (key, count) entries by fp(key): {fingerprint: (count, key)}.

    The first key seen stands for its group; entries with count 0 and the
    group whose fingerprint is `drop` are left out.
    """
    out = {}
    for key, c in entries:
        if c == 0:
            continue
        f = fp(key)
        if f == drop:
            continue
        c0, first = out.get(f, (0, key))
        out[f] = (c0 + c, first)
    return out


def _exact_quotient(n, p, what):
    """n / (p - 1) for a count of a set with a free F_p^* action; a
    remainder raises `VerificationMismatch`."""
    q, r = divmod(n, p - 1)
    if r:
        raise qpoly.VerificationMismatch(
            f"{what} {n} not divisible by p - 1 = {p - 1}"
        )
    return q


def _materialize(p, **symbols):
    """({name: concrete classes}, {name: module}) of the symbols at p."""
    cls = {name: sym.concrete_classes(p) for name, sym in symbols.items()}
    mods = {
        name: catalog.module_from_classes(symbols[name].quiver, c, p)
        for name, c in cls.items()
    }
    return cls, mods


def _census_entries(M, key_classes, budget):
    """All ((quot, sub), count) over every subdimension vector of M."""
    out = []
    for e in itertools.product(*[range(d + 1) for d in M.dims]):
        census = subspaces.hall_census(M, e, budget=budget, key_classes=key_classes)
        out.extend(census.items())
    return out


def _splittings(cls, mods, xi_dims, eta_dims, budget):
    """Yield ((gam, delt, alp, bet), c1 * c2, e1, e2) over the splittings of
    Green's formula: census entries ((gam, delt), c1) of xi' at e1 and
    ((alp, bet), c2) of eta' at e2 (materialized as "xi2" and "eta2") with
    dim gam + dim alp = dim xi and dim delt + dim bet = dim eta.

    A sub of dimension e1 has a quotient of dimension dim xi' - e1, so these
    are the pairs with e1 + e2 = dim eta, provided dim xi' + dim eta' =
    dim xi + dim eta; otherwise there are none.  No other census is
    computed.  The order is that of the full product of the two entry lists.
    """
    xi2, eta2 = mods["xi2"], mods["eta2"]
    if _dims_sum(xi2.dims, eta2.dims) != _dims_sum(xi_dims, eta_dims):
        return
    for e1 in itertools.product(*[range(d + 1) for d in xi2.dims]):
        e2 = tuple(y - x for y, x in zip(eta_dims, e1))
        if any(x < 0 or x > d for x, d in zip(e2, eta2.dims)):
            continue
        census1 = subspaces.hall_census(xi2, e1, budget=budget, key_classes=cls["xi2"])
        census2 = subspaces.hall_census(eta2, e2, budget=budget, key_classes=cls["eta2"])
        for (gam, delt), c1 in census1.items():
            for (alp, bet), c2 in census2.items():
                yield (gam, delt, alp, bet), c1 * c2, e1, e2


def _hom_strata(M1, M2, projective, budget):
    """{(coker, ker): #maps M1 -> M2 in that stratum}.

    The projective form removes the zero map (whose stratum is coker = M2,
    ker = M1) and divides by p - 1: scaling acts freely on each stratum
    away from the zero map.
    """
    census = strata.hom_census(M1, M2, budget=budget)
    if not projective:
        return census
    zero_key = (catalog.decompose(M2), catalog.decompose(M1))
    return {
        key: _exact_quotient(c - (key == zero_key), M1.p, "Hom stratum")
        for key, c in census.items()
    }


def _hom_stratum_fp(M1, M2, coker_fpr, ker_fpr, projective, budget):
    """The maps M1 -> M2 whose (coker, ker) fingerprints match, counted in
    the affine or the projective form of `_hom_strata`."""
    return sum(
        c
        for (coker, ker), c in _hom_strata(M1, M2, projective, budget).items()
        if _fp(coker) == coker_fpr and _fp(ker) == ker_fpr
    )


def _hom_strata_counter(source, target, budget):
    """count_fn(p) for `_grouped_table`: the nonzero maps source -> target,
    grouped by the fingerprints of (coker, ker)."""

    def hom_strata(p):
        zero_key = (
            catalog.sort_classes(target.concrete_classes(p)),
            catalog.sort_classes(source.concrete_classes(p)),
        )
        census = strata.hom_census(
            source.instantiate(p), target.instantiate(p), budget=budget
        )
        return _group_by_fp(
            ((key, c - (key == zero_key)) for key, c in census.items()),
            lambda key: (_fp(key[0]), _fp(key[1])),
        )

    return hom_strata


def _max_sub_degree(dims, e):
    """Degree bound sum_i e_i (d_i - e_i) for subrep counts at e."""
    return sum(int(x) * (int(d) - int(x)) for x, d in zip(e, dims))


def _max_sub_degree_any(dims):
    """Degree bound over all subdimension vectors: sum_i floor(d_i^2 / 4)."""
    return sum((int(d) * int(d)) // 4 for d in dims)


def _ext_dim_bound(quiver, a, b):
    """dim Ext^1(A, B) <= dim Hom bound - <a, b> from heredity."""
    hom_bound = sum(int(x) * int(y) for x, y in zip(a, b))
    return max(0, hom_bound - quiver.euler_form(a, b))


# ---------------------------------------------------------------------------
# Green's formula over finite fields (exact, per prime)
# ---------------------------------------------------------------------------


def verify_green_ff(xi, eta, xi2, eta2, primes=None, budget=DEFAULT_SUBSPACE_BUDGET):
    """Exact rational Green identity, checked separately at each prime.

    Dynkin quivers only: the lambda-sum runs over isomorphism classes of
    middle terms, and on tame quivers that set varies with the prime (one
    tube per point of P^1), so there is no prime-independent bookkeeping
    that stays exact; on Dynkin quivers classes are field-independent.
    """
    t0 = time.perf_counter()
    quiver = _same_quiver(xi, eta, xi2, eta2)
    if not quiver.is_dynkin():
        raise UnsupportedQuiver(
            "the finite-field Green identity is verified on Dynkin quivers only"
        )
    if primes is None:
        primes = _common_primes((xi, eta, xi2, eta2), 2)
    if _dims_sum(xi.dims, eta.dims) != _dims_sum(xi2.dims, eta2.dims):
        raise ValueError(
            "green_ff needs dim xi + dim eta = dim xi' + dim eta'; got "
            f"{xi.dims}+{eta.dims} vs {xi2.dims}+{eta2.dims}"
        )
    terms = []
    lhs_all, rhs_all = [], []
    equal = True
    for p in primes:
        lhs, rhs, detail = _green_ff_at_prime(quiver, xi, eta, xi2, eta2, p, budget)
        lhs_all.append(lhs)
        rhs_all.append(rhs)
        equal = equal and lhs == rhs
        terms.append({"prime": p, "lhs": str(lhs), "rhs": str(rhs), **detail})
    inputs = {
        "xi": str(xi),
        "eta": str(eta),
        "xi_prime": str(xi2),
        "eta_prime": str(eta2),
        "primes": list(primes),
    }
    return _report(
        "green_ff",
        inputs,
        [str(x) for x in lhs_all],
        [str(x) for x in rhs_all],
        equal,
        terms,
        [],
        t0,
    )


def _green_ff_at_prime(quiver, xi, eta, xi2, eta2, p, budget):
    cls, mods = _materialize(p, xi=xi, eta=eta, xi2=xi2, eta2=eta2)
    auts = {k: catalog.aut_count_of_classes(quiver, v, p) for k, v in cls.items()}
    fps = {k: _fp(v) for k, v in cls.items()}

    # LHS: middles lam with g^lam_{xi',eta'} != 0 are exactly the middles of
    # extension classes of xi' by eta'; on a Dynkin quiver the fingerprint
    # is the isomorphism class, so each middle type contributes once.
    lam_census = strata.ext_middle_census(mods["xi2"], mods["eta2"], budget=budget)
    lhs = Fraction(0)
    n_lam = 0
    for _, lam in _group_by_fp(lam_census.items()).values():
        lam_mod = catalog.module_from_classes(quiver, lam, p)
        g1 = _hall_fp(lam_mod, fps["xi"], fps["eta"], eta.dims, budget, lam)
        if g1 == 0:
            continue
        g2 = _hall_fp(lam_mod, fps["xi2"], fps["eta2"], eta2.dims, budget, lam)
        if g2 == 0:
            continue
        n_lam += 1
        a_lam = catalog.aut_count_of_classes(quiver, lam, p)
        lhs += Fraction(g1 * g2, a_lam)
    lhs *= auts["xi"] * auts["eta"] * auts["xi2"] * auts["eta2"]

    # RHS: (gam, delt) = (quot, sub) types of subreps of xi', (alp, bet)
    # of eta'; the cross Hall numbers tie them to xi and eta.
    rhs = Fraction(0)
    n_rhs = 0
    for (gam, delt, alp, bet), c, _, e2 in _splittings(
        cls, mods, xi.dims, eta.dims, budget
    ):
        dims_alp = tuple(d - x for d, x in zip(eta2.dims, e2))
        g3 = _hall_fp(mods["xi"], _fp(gam), _fp(alp), dims_alp, budget, cls["xi"])
        if g3 == 0:
            continue
        g4 = _hall_fp(mods["eta"], _fp(delt), _fp(bet), e2, budget, cls["eta"])
        if g4 == 0:
            continue
        v_gam = catalog.module_from_classes(quiver, gam, p)
        v_bet = catalog.module_from_classes(quiver, bet, p)
        weight = Fraction(
            p ** rep.ext1_dim(v_gam, v_bet), p ** rep.hom_dim(v_gam, v_bet)
        )
        n_rhs += 1
        rhs += (
            weight
            * c
            * g3
            * g4
            * catalog.aut_count_of_classes(quiver, alp, p)
            * catalog.aut_count_of_classes(quiver, bet, p)
            * catalog.aut_count_of_classes(quiver, delt, p)
            * catalog.aut_count_of_classes(quiver, gam, p)
        )
    return lhs, rhs, {"middle_terms": n_lam, "splitting_terms": n_rhs}


# ---------------------------------------------------------------------------
# degenerate Green's formula (q = 1)
# ---------------------------------------------------------------------------


def verify_green_degenerate(
    xi, eta, xi2, eta2, budget=DEFAULT_SUBSPACE_BUDGET, verify=2
):
    """Green's formula at q = 1: only split middles survive.

    LHS: the Hall number g^{xi'+eta'}_{xi,eta} as a polynomial in q,
    evaluated at 1.  RHS: sum over (quot, sub) strata (gam, delt) of xi'
    and (alp, bet) of eta' with gam+alp = xi and delt+bet = eta of
    g^{xi'}_{gam,delt} g^{eta'}_{alp,bet}, interpolated and evaluated at 1.
    Reads one key of `_green_degenerate_table`.
    """
    t0 = time.perf_counter()
    _same_quiver(xi, eta, xi2, eta2)
    admissible = _dims_sum(xi.dims, eta.dims) == _dims_sum(xi2.dims, eta2.dims)
    ((lhs_poly, rhs_poly),) = _green_degenerate_table(
        xi2, eta2, [(xi, eta)], budget, verify
    )
    lhs, rhs = lhs_poly.at_one(), rhs_poly.at_one()
    inputs = {
        "xi": str(xi),
        "eta": str(eta),
        "xi_prime": str(xi2),
        "eta_prime": str(eta2),
        "dims_admissible": admissible,
    }
    terms = [
        {"side": "lhs", "polynomial": str(lhs_poly)},
        {"side": "rhs", "polynomial": str(rhs_poly)},
    ]
    return _report(
        "green_degenerate", inputs, lhs, rhs, lhs == rhs, terms, [lhs_poly, rhs_poly], t0
    )


_MERGE_FP_CACHE = {}


def _merge_fp(classes1, classes2):
    key = (classes1, classes2)
    if key not in _MERGE_FP_CACHE:
        _MERGE_FP_CACHE[key] = _fp(_merge_classes(classes1, classes2))
    return _MERGE_FP_CACHE[key]


def verify_green_degenerate_all(
    xi2, eta2, pairs, budget=DEFAULT_SUBSPACE_BUDGET, verify=2
):
    """Degenerate Green identity for one (xi', eta') against many (xi, eta).

    One `_green_degenerate_table` sweep serves every pair; the report has
    one term per pair, in input order, and pairs with equal fingerprints
    share one computation.  Each term equals verify_green_degenerate on
    that tuple.  Every pair must satisfy dim xi + dim eta = dim xi' +
    dim eta'.
    """
    t0 = time.perf_counter()
    _same_quiver(xi2, eta2, *itertools.chain.from_iterable(pairs))
    total = _dims_sum(xi2.dims, eta2.dims)
    for xi, eta in pairs:
        if _dims_sum(xi.dims, eta.dims) != total:
            raise ValueError(f"pair ({xi}, {eta}) has total dims != {total}")
    terms = []
    sides = _green_degenerate_table(xi2, eta2, pairs, budget, verify)
    for (xi, eta), (lhs_poly, rhs_poly) in zip(pairs, sides):
        lhs, rhs = lhs_poly.at_one(), rhs_poly.at_one()
        terms.append(
            {"xi": str(xi), "eta": str(eta), "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
        )
    n_equal = sum(t["equal"] for t in terms)
    inputs = {"xi_prime": str(xi2), "eta_prime": str(eta2), "pairs": len(terms)}
    lhs, rhs = f"{n_equal}/{len(terms)} equal", f"{len(terms)} pairs"
    return _report(
        "green_degenerate_all", inputs, lhs, rhs, n_equal == len(terms), terms, [], t0
    )


def _green_degenerate_table(xi2, eta2, pairs, budget, verify):
    """[(lhs, rhs)]: both sides of the degenerate Green identity as counting
    polynomials, one pair per requested (xi, eta) in input order, from one
    interpolation sweep keyed by (fp xi, fp eta).

    At each prime the LHS sums the census of L = xi' + eta' at each dim
    eta requested; the RHS sums c1 * c2 over the product of the census
    entries ((gam, delt), c1) of xi' and ((alp, bet), c2) of eta', keyed
    by the fingerprints of gam + alp and delt + bet.  Only requested keys
    are kept and fitted; a key that counts 0 at every prime, such as any
    pair with dim xi + dim eta != dim L, reads as the zero polynomial.
    """
    L = xi2.direct_sum(eta2)
    fps = [(xi.fingerprint(), eta.fingerprint()) for xi, eta in pairs]
    wanted = set(fps)
    dims = {(xi.dims, eta.dims) for xi, eta in pairs}
    eta_dims = sorted(e for x, e in dims if _dims_sum(x, e) == L.dims)

    def counts(p):
        out = {}
        M, M_classes = L.instantiate(p), L.concrete_classes(p)
        for e in eta_dims:
            census = subspaces.hall_census(M, e, budget=budget, key_classes=M_classes)
            for (quot, sub), c in census.items():
                key = ("lhs", _fp(quot), _fp(sub))
                out[key] = out.get(key, 0) + c
        cls, mods = _materialize(p, xi2=xi2, eta2=eta2)
        entries_xi2, entries_eta2 = (
            _census_entries(mods[k], cls[k], budget) for k in ("xi2", "eta2")
        )
        for (gam, delt), c1 in entries_xi2:
            for (alp, bet), c2 in entries_eta2:
                key = ("rhs", _merge_fp(gam, alp), _merge_fp(delt, bet))
                out[key] = out.get(key, 0) + c1 * c2
        return {key: c for key, c in out.items() if key[1:] in wanted}

    bound = max(
        [_max_sub_degree(L.dims, e) for e in eta_dims]
        + [_max_sub_degree_any(xi2.dims) + _max_sub_degree_any(eta2.dims)]
    )
    symbols = [xi2, eta2, *itertools.chain.from_iterable(pairs)]
    min_prime = max(s.min_prime() for s in symbols)
    table = qpoly.counting_table(counts, bound, min_prime, verify)
    zero = QPolynomial([])
    return [(table.get(("lhs", *key), zero), table.get(("rhs", *key), zero)) for key in fps]


# ---------------------------------------------------------------------------
# projective Green's formula (q = 1)
# ---------------------------------------------------------------------------


def verify_green_projective(
    xi2, eta2, xi, eta, budget=DEFAULT_SUBSPACE_BUDGET, verify=2
):
    """The projectivized Green identity at q = 1, in four blocks.

    (i)   sum over nonsplit middle types lam of
          chi(P Ext^1(xi',eta')_lam) g^lam_{xi,eta}
    (ii)  sum over splitting tuples with gam+alp != xi or delt+bet != eta
          of chi(P(Ext^1(gam,alp)_xi x Ext^1(delt,bet)_eta)) g g
    (iii) sum over splitting tuples with gam+alp = xi and delt+bet = eta
          of [hom(xi',eta') - hom(gam,alp) - hom(delt,bet) - <gam,bet>] g g
    (iv)  chi of the projectivized nonsplit Hall variety
          {U <= xi'+eta' : U = eta, quotient = xi, U not split}, once.

    Verifies (i) = (ii) + (iii) - (iv) after interpolation at q = 1; each
    block is an exact integer at every prime (free scaling actions).
    """
    t0 = time.perf_counter()
    quiver = _same_quiver(xi2, eta2, xi, eta)
    symbols = (xi2, eta2, xi, eta)
    admissible = _dims_sum(xi.dims, eta.dims) == _dims_sum(xi2.dims, eta2.dims)
    min_prime = max(s.min_prime() for s in symbols)
    p0 = catalog.primes_from(min_prime, 1)[0]
    ext_dim = rep.ext1_dim(xi2.instantiate(p0), eta2.instantiate(p0))
    L = xi2.direct_sum(eta2)

    # degree bounds from dimension data alone
    b_hall = _max_sub_degree(L.dims, eta.dims)
    b_split = 0
    for (gd, dd), (ad, bd) in itertools.product(
        _dim_splits(xi2.dims), _dim_splits(eta2.dims)
    ):
        b = (
            _ext_dim_bound(quiver, gd, ad)
            + _ext_dim_bound(quiver, dd, bd)
            + _max_sub_degree(xi2.dims, dd)
            + _max_sub_degree(eta2.dims, bd)
        )
        b_split = max(b_split, b)
    bound = max(ext_dim + b_hall, b_split, b_hall)

    def blocks(p):
        return _green_projective_blocks(quiver, xi2, eta2, xi, eta, p, budget)

    table = qpoly.counting_table(blocks, bound, min_prime, verify)
    polys = [table[name] for name in _PROJECTIVE_BLOCKS]
    vals = [f.at_one() for f in polys]
    lhs = vals[0]
    rhs = vals[1] + vals[2] - vals[3]
    inputs = {
        "xi_prime": str(xi2),
        "eta_prime": str(eta2),
        "xi": str(xi),
        "eta": str(eta),
        "dims_admissible": admissible,
    }
    terms = [
        {"block": name, "value": v, "polynomial": str(f)}
        for name, v, f in zip(_PROJECTIVE_BLOCKS, vals, polys)
    ]
    return _report(
        "green_projective", inputs, lhs, rhs, lhs == rhs, terms, polys, t0
    )


_PROJECTIVE_BLOCKS = ("middles", "off_diagonal", "diagonal", "hall_variety")


def _dim_splits(dims):
    """All (a, b) with a + b = dims componentwise."""
    out = []
    for a in itertools.product(*[range(d + 1) for d in dims]):
        b = tuple(d - x for d, x in zip(dims, a))
        out.append((a, b))
    return out


def _ext_stratum_fp(X, Y, target_fpr, budget):
    """#extension classes of X by Y whose middle fingerprint matches."""
    census = strata.ext_middle_census(X, Y, budget=budget)
    return sum(c for mid, c in census.items() if _fp(mid) == target_fpr)


def _green_projective_blocks(quiver, xi2, eta2, xi, eta, p, budget):
    cls, mods = _materialize(p, xi=xi, eta=eta, xi2=xi2, eta2=eta2)
    fps = {k: _fp(v) for k, v in cls.items()}
    L = rep.direct_sum(mods["xi2"], mods["eta2"])
    split_fpr = _fp(_merge_classes(cls["xi2"], cls["eta2"]))

    # block (i): nonsplit middles, projectivized, against Hall numbers
    lam_census = strata.ext_middle_census(mods["xi2"], mods["eta2"], budget=budget)
    block_i = 0
    for c, lam in _group_by_fp(lam_census.items(), drop=split_fpr).values():
        lam_mod = catalog.module_from_classes(quiver, lam, p)
        g = _hall_fp(lam_mod, fps["xi"], fps["eta"], eta.dims, budget, lam)
        block_i += _exact_quotient(c, p, "nonsplit extension stratum") * g

    # blocks (ii) and (iii) run over the splitting tuples of the dimension
    # vectors of xi and eta (`_splittings`).  Split submodules
    # U = (U cap xi') + (U cap eta') of L correspond exactly to the diagonal
    # splitting tuples, so block (iv)'s split count is the diagonal census
    # product.
    block_ii = 0
    block_iii = 0
    n_split = 0
    hom_xi2_eta2 = rep.hom_dim(mods["xi2"], mods["eta2"])
    for (gam, delt, alp, bet), c, e1, e2 in _splittings(
        cls, mods, xi.dims, eta.dims, budget
    ):
        v_gam = catalog.module_from_classes(quiver, gam, p)
        v_alp = catalog.module_from_classes(quiver, alp, p)
        v_delt = catalog.module_from_classes(quiver, delt, p)
        v_bet = catalog.module_from_classes(quiver, bet, p)
        if _merge_fp(gam, alp) == fps["xi"] and _merge_fp(delt, bet) == fps["eta"]:
            n_split += c
            dims_gam = tuple(d - x for d, x in zip(xi2.dims, e1))
            bracket = (
                hom_xi2_eta2
                - rep.hom_dim(v_gam, v_alp)
                - rep.hom_dim(v_delt, v_bet)
                - quiver.euler_form(dims_gam, e2)
            )
            block_iii += bracket * c
            continue
        n1 = _ext_stratum_fp(v_gam, v_alp, fps["xi"], budget)
        if n1 == 0:
            continue
        n2 = _ext_stratum_fp(v_delt, v_bet, fps["eta"], budget)
        if n2 == 0:
            continue
        block_ii += _exact_quotient(n1 * n2, p, "joint extension stratum") * c

    # block (iv): projectivized nonsplit Hall variety of L = xi' + eta'
    n_all = _hall_fp(
        L, fps["xi"], fps["eta"], eta.dims, budget,
        _merge_classes(cls["xi2"], cls["eta2"]),
    )
    block_iv = _exact_quotient(n_all - n_split, p, "nonsplit Hall stratum")
    return dict(zip(_PROJECTIVE_BLOCKS, (block_i, block_ii, block_iii, block_iv)))


# ---------------------------------------------------------------------------
# associativity (affine and projective, primal and dual)
# ---------------------------------------------------------------------------


def verify_assoc(X, Y1, Y2, L1, L2, primes=None, budget=DEFAULT_SUBSPACE_BUDGET):
    """Associativity of the Hall product against composition counts.

    Primal:  sum_Y g^Y_{Y2,Y1} h^{L1,L2}_{X,Y}
               = sum_{L1'} g^{L1}_{L1',Y1} h^{L1',L2}_{X,Y2}
    Dual:    sum_{X'} g^{X'}_{X2,X1} h^{L1,L2}_{X',Y}
               = sum_{L2'} g^{L2}_{X2,L2'} h^{L1,L2'}_{X1,Y}
    with (X1, X2, Y) := (X, Y2, Y1) in the dual direction.  Both are
    checked per prime, in the affine form (h = raw stratum counts) and
    the projectivized form (zero map removed, strata divided by p - 1).
    """
    t0 = time.perf_counter()
    quiver = _same_quiver(X, Y1, Y2, L1, L2)
    if primes is None:
        primes = _common_primes((X, Y1, Y2, L1, L2), 2)
    primal_ok = _dims_sum(Y1.dims, Y2.dims, L2.dims) == _dims_sum(L1.dims, X.dims)
    dual_ok = _dims_sum(X.dims, Y2.dims, L1.dims) == _dims_sum(L2.dims, Y1.dims)
    terms = []
    equal = True
    lhs_out, rhs_out = [], []
    for p in primes:
        for form in ("affine", "projective"):
            for direction in ("primal", "dual"):
                lhs, rhs = _assoc_sides(
                    quiver, X, Y1, Y2, L1, L2, p, form, direction, budget
                )
                ok = lhs == rhs
                equal = equal and ok
                terms.append(
                    {
                        "prime": p,
                        "form": form,
                        "direction": direction,
                        "lhs": lhs,
                        "rhs": rhs,
                        "equal": ok,
                    }
                )
        lhs_out.append([t["lhs"] for t in terms if t["prime"] == p])
        rhs_out.append([t["rhs"] for t in terms if t["prime"] == p])
    inputs = {
        "X": str(X),
        "Y1": str(Y1),
        "Y2": str(Y2),
        "L1": str(L1),
        "L2": str(L2),
        "primes": list(primes),
        "dims_admissible_primal": primal_ok,
        "dims_admissible_dual": dual_ok,
    }
    return _report("assoc", inputs, lhs_out, rhs_out, equal, terms, [], t0)


def _assoc_sides(quiver, X, Y1, Y2, L1, L2, p, form, direction, budget):
    fps = {
        "X": _fp(X.concrete_classes(p)),
        "Y1": _fp(Y1.concrete_classes(p)),
        "Y2": _fp(Y2.concrete_classes(p)),
    }
    m_l1 = L1.instantiate(p)
    m_l2 = L2.instantiate(p)
    projective = form == "projective"
    census_h = _hom_strata(m_l1, m_l2, projective, budget)

    if direction == "primal":
        # LHS: strata of Hom(L1, L2) with coker = X, graded by ker type Y
        lhs = 0
        for (coker, ker), h in census_h.items():
            if h == 0 or _fp(coker) != fps["X"]:
                continue
            ker_mod = catalog.module_from_classes(quiver, ker, p)
            lhs += h * _hall_fp(ker_mod, fps["Y2"], fps["Y1"], Y1.dims, budget)
        # RHS: subreps Y1 <= L1 with quotient L1', then maps L1' -> L2
        rhs = 0
        census_g = subspaces.hall_census(
            m_l1, Y1.dims, budget=budget, key_classes=L1.concrete_classes(p)
        )
        for (quot, sub), c in census_g.items():
            if _fp(sub) != fps["Y1"]:
                continue
            quot_mod = catalog.module_from_classes(quiver, quot, p)
            rhs += c * _hom_stratum_fp(
                quot_mod, m_l2, fps["X"], fps["Y2"], projective, budget
            )
        return lhs, rhs

    # dual direction: (X1, X2, Y) := (X, Y2, Y1)
    fx1, fx2, fy = fps["X"], fps["Y2"], fps["Y1"]
    x1_dims, x2_dims, y_dims = X.dims, Y2.dims, Y1.dims
    # LHS: strata of Hom(L1, L2) with ker = Y, graded by coker type X'
    lhs = 0
    for (coker, ker), h in census_h.items():
        if h == 0 or _fp(ker) != fy:
            continue
        coker_mod = catalog.module_from_classes(quiver, coker, p)
        lhs += h * _hall_fp(coker_mod, fx2, fx1, x1_dims, budget)
    # RHS: subreps L2' <= L2 with quotient X2, then maps L1 -> L2'
    rhs = 0
    e = tuple(a - b for a, b in zip(L2.dims, x2_dims))
    if all(x >= 0 for x in e):
        census_g = subspaces.hall_census(
            m_l2, e, budget=budget, key_classes=L2.concrete_classes(p)
        )
        for (quot, sub), c in census_g.items():
            if _fp(quot) != fx2:
                continue
            sub_mod = catalog.module_from_classes(quiver, sub, p)
            rhs += c * _hom_stratum_fp(m_l1, sub_mod, fx1, fy, projective, budget)
    return lhs, rhs


# ---------------------------------------------------------------------------
# cluster multiplication (Caldero-Keller)
# ---------------------------------------------------------------------------


def _grouped_table(count_fn, bound, min_prime, verify):
    """counting_table plus a representative key instance per fingerprint.

    count_fn(p) -> {fingerprint_key: (count, representative)}; returns
    ({fingerprint_key: QPolynomial}, {fingerprint_key: representative}).
    """
    reps_ = {}

    def counts(p):
        out = {}
        for key, (c, rep_) in count_fn(p).items():
            out[key] = c
            reps_.setdefault(key, rep_)
        return out

    table = qpoly.counting_table(counts, bound, min_prime, verify)
    return table, reps_


def verify_cc1(
    xi2, eta2, table=None, budget=DEFAULT_SUBSPACE_BUDGET, verify=2
):
    """Cluster multiplication via extensions:

    dim Ext^1(xi', eta') * X_{xi'} X_{eta'}
      = sum over nonsplit middle types lam of chi(P Ext^1_lam) X_lam
      + sum over Hom(eta', tau xi') strata of
          chi(P stratum) X_gam X_bet x^(dim soc I0)

    where a stratum has kernel bet and cokernel I0 + C with I0 injective
    and C injective-free, gam = tau^{-1} C + (projective part of xi').
    """
    t0 = time.perf_counter()
    quiver = _same_quiver(xi2, eta2)
    if table is None:
        table = cluster.CharTable(quiver, budget=budget, verify=verify)
    symbols = (xi2, eta2)
    min_prime = max(s.min_prime() for s in symbols)
    p0 = catalog.primes_from(min_prime, 1)[0]
    ext_dim = rep.ext1_dim(xi2.instantiate(p0), eta2.instantiate(p0))
    lhs = ext_dim * table.char(xi2) * table.char(eta2)

    # projective part of xi' stays aside under tau and returns inside gam
    proj_atoms = []
    tau_atoms = []
    for cls, mult in xi2.atoms:
        if catalog.projective_vertex_of_class(quiver, cls) is not None:
            proj_atoms.append((cls, mult))
        else:
            tau_atoms.append((catalog.translate_class(quiver, cls), mult))
    tau_xi2 = catalog.ModuleSymbol(quiver, tau_atoms)

    # term 1: nonsplit extension middles
    def middles(p):
        split_fpr = _fp(
            _merge_classes(xi2.concrete_classes(p), eta2.concrete_classes(p))
        )
        census = strata.ext_middle_census(
            xi2.instantiate(p), eta2.instantiate(p), budget=budget
        )
        return _group_by_fp(census.items(), drop=split_fpr)

    table1, reps1 = _grouped_table(middles, ext_dim, min_prime, verify)
    nvars = quiver.n
    term1 = LaurentPoly.zero(nvars)
    terms = []
    for f, poly in table1.items():
        chi = qpoly.divide_by_q_minus_1(poly).at_one()
        if chi == 0:
            continue
        x_lam = table.char_of_classes(reps1[f])
        term1 = term1 + chi * x_lam
        terms.append({"part": "middles", "chi": chi, "character": str(x_lam)})

    # term 2: Hom(eta', tau xi') strata
    hom_dim = rep.hom_dim(eta2.instantiate(p0), tau_xi2.instantiate(p0))

    table2, reps2 = _grouped_table(
        _hom_strata_counter(eta2, tau_xi2, budget), hom_dim, min_prime, verify
    )
    term2 = LaurentPoly.zero(nvars)
    for f, poly in table2.items():
        chi = qpoly.divide_by_q_minus_1(poly).at_one()
        if chi == 0:
            continue
        coker, ker = reps2[f]
        inj_part = []
        free_part = []
        for cls, mult in coker:
            if catalog.injective_vertex_of_class(quiver, cls) is not None:
                inj_part.append((cls, mult))
            else:
                free_part.append((cls, mult))
        gam_classes = [
            (catalog.translate_class_inverse(quiver, cls), mult)
            for cls, mult in free_part
        ] + list(proj_atoms)
        x_gam = table.char_of_classes(gam_classes)
        x_bet = table.char_of_classes(ker)
        x_soc = cluster.socle_monomial(quiver, inj_part)
        term2 = term2 + chi * (x_gam * x_bet * x_soc)
        terms.append(
            {
                "part": "hom_strata",
                "chi": chi,
                "gamma": str(x_gam),
                "beta": str(x_bet),
                "socle": str(x_soc),
            }
        )

    rhs = term1 + term2
    inputs = {"xi_prime": str(xi2), "eta_prime": str(eta2), "ext_dim": ext_dim}
    terms.insert(0, {"part": "term1_total", "value": str(term1)})
    terms.insert(1, {"part": "term2_total", "value": str(term2)})
    return _report("cc1", inputs, lhs, rhs, lhs == rhs, terms, [], t0)


def verify_cc2(xi2, rho, table=None, budget=DEFAULT_SUBSPACE_BUDGET, verify=2):
    """Cluster multiplication against a shifted projective:

    (sum_i rho_i dim(xi')_i) * X_{xi'} x^rho
      = sum over Hom(xi', I) strata of chi(P stratum) X_delta x^(dim soc I')
      + sum over Hom(P, xi') strata of chi(P stratum) X_gam x^(dim top P')

    with P = sum P(i)^{rho_i}, I = sum I(i)^{rho_i}; a Hom(xi', I) stratum
    has kernel delta and injective cokernel I', a Hom(P, xi') stratum has
    projective kernel P' and cokernel gam.
    """
    t0 = time.perf_counter()
    quiver = xi2.quiver
    rho = tuple(int(x) for x in rho)
    if len(rho) != quiver.n or any(x < 0 for x in rho):
        raise ValueError(f"bad projective multiplicity vector {rho}")
    if table is None:
        table = cluster.CharTable(quiver, budget=budget, verify=verify)
    proj = _vertex_sum_symbol(quiver, "P", rho)
    inj = _vertex_sum_symbol(quiver, "I", rho)
    min_prime = xi2.min_prime()
    p0 = catalog.primes_from(min_prime, 1)[0]
    d = sum(r * dxi for r, dxi in zip(rho, xi2.dims))
    lhs = d * table.char(xi2) * LaurentPoly.monomial(rho)

    terms = []
    total = LaurentPoly.zero(quiver.n)
    for part, source, target, kernel_side in (
        ("into_injective", xi2, inj, "delta"),
        ("from_projective", proj, xi2, "gamma"),
    ):
        hom_dim = rep.hom_dim(source.instantiate(p0), target.instantiate(p0))

        table_h, reps_h = _grouped_table(
            _hom_strata_counter(source, target, budget), hom_dim, min_prime, verify
        )
        for f, poly in table_h.items():
            chi = qpoly.divide_by_q_minus_1(poly).at_one()
            if chi == 0:
                continue
            coker, ker = reps_h[f]
            if kernel_side == "delta":
                # maps into an injective: the cokernel must be injective
                x_mod = table.char_of_classes(ker)
                x_mono = cluster.socle_monomial(quiver, coker)
            else:
                # maps from a projective: the kernel must be projective
                x_mod = table.char_of_classes(coker)
                x_mono = cluster.top_monomial(quiver, ker)
            contribution = chi * (x_mod * x_mono)
            total = total + contribution
            terms.append(
                {
                    "part": part,
                    "chi": chi,
                    "character": str(x_mod),
                    "monomial": str(x_mono),
                }
            )

    rhs = total
    inputs = {"xi_prime": str(xi2), "rho": list(rho), "hom_degree": d}
    return _report("cc2", inputs, lhs, rhs, lhs == rhs, terms, [], t0)


def _vertex_sum_symbol(quiver, letter, rho):
    """Symbol for sum_i P(i)^{rho_i} or sum_i I(i)^{rho_i}."""
    parts = [
        f"{m}*{letter}{v + 1}" if m > 1 else f"{letter}{v + 1}"
        for v, m in enumerate(rho)
        if m
    ]
    return catalog.parse_symbol(" + ".join(parts) if parts else "0", quiver)
