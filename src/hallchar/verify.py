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
  (a,b) over those of eta'.  What depends on (xi', eta') alone is read
  from memo tables: the left side for every (xi, eta) of one dim eta is
  one `_green_ff_lhs` entry.  Each side is an integer pair (num, den),
  compared by cross-multiplication and printed as a reduced fraction.

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

Isomorphism tests between per-prime decompositions are fingerprint-id
comparisons throughout (`catalog.fingerprint_id`); q = 1 values come from
interpolating per-prime counts (verified on extra primes) and evaluating
at 1.
"""

import dataclasses
import itertools
import json
import math
import time

from . import catalog, cluster, memo, qpoly, rep, strata, subspaces
from .errors import BudgetExceeded, UnsupportedQuiver
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

def _same_quiver(*symbols):
    quiver = symbols[0].quiver
    for s in symbols[1:]:
        if s.quiver.key != quiver.key:
            raise ValueError("symbols live over different quivers")
    return quiver


def _dims_sum(*dims):
    return tuple(sum(ds) for ds in zip(*dims))


def _hall_fp(M, quot_fid, sub_fid, e, budget, key_classes=None):
    """Hall number of M with the quotient and sub types whose fingerprint
    ids (`catalog.fingerprint_id`) are `quot_fid` and `sub_fid`: one lookup
    in `subspaces.census_view` of (M, e), which is empty when e is out of
    range.  `key_classes` may pass the decomposition of M when already
    known."""
    if key_classes is None:
        key_classes = catalog.decompose(M)
    return subspaces.census_view(M, e, budget, key_classes).get((quot_fid, sub_fid), 0)


def _group_by_fp(entries, fp=catalog.fingerprint_id, drop=None):
    """Sum (key, count) entries by fp(key): {fingerprint id: (count, key)}.

    The first key seen stands for its group; entries with count 0 and the
    group whose fingerprint id is `drop` are left out.
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
    mods = {name: sym.instantiate(p) for name, sym in symbols.items()}
    return cls, mods


def _split_dims(xi2_dims, eta2_dims, dims):
    """[(e1, e2)]: the sub-dimension vectors of xi' and eta' that Green's
    formula pairs, for each (dim xi, dim eta) in `dims`.  A sub of
    dimension e1 has a quotient of dimension dim xi' - e1, so these are the
    pairs with e1 + e2 = dim eta, provided dim xi' + dim eta' = dim xi +
    dim eta; otherwise there are none."""
    out = []
    for xi_dims, eta_dims in dims:
        if any(a + b != x + y for a, b, x, y in zip(xi2_dims, eta2_dims, xi_dims, eta_dims)):
            continue
        # 0 <= e1 <= dim xi' and 0 <= e2 = dim eta - e1 <= dim eta'
        ranges = [
            range(max(0, y - d2), min(d1, y) + 1)
            for d1, d2, y in zip(xi2_dims, eta2_dims, eta_dims)
        ]
        for e1 in itertools.product(*ranges):
            out.append((e1, tuple(y - x for y, x in zip(eta_dims, e1))))
    return out


def _splittings(cls, mods, splits, budget):
    """Yield ((gam, delt, alp, bet), c1 * c2, e1, e2) over the splittings of
    Green's formula at the (e1, e2) in `splits` (`_split_dims`): census
    entries ((gam, delt), c1) of xi' at e1 and ((alp, bet), c2) of eta' at
    e2 (materialized as "xi2" and "eta2"), so dim gam + dim alp = dim xi
    and dim delt + dim bet = dim eta.  Each census is read once and no
    other census is computed.
    """
    census1 = {
        e: subspaces.hall_census(mods["xi2"], e, budget=budget, key_classes=cls["xi2"])
        for e in dict.fromkeys(e1 for e1, _ in splits)
    }
    census2 = {
        e: subspaces.hall_census(mods["eta2"], e, budget=budget, key_classes=cls["eta2"])
        for e in dict.fromkeys(e2 for _, e2 in splits)
    }
    for e1, e2 in splits:
        for (gam, delt), c1 in census1[e1].items():
            for (alp, bet), c2 in census2[e2].items():
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


def _hom_stratum_fp(M1, M2, coker_fid, ker_fid, projective, budget):
    """The maps M1 -> M2 whose (coker, ker) fingerprint ids match, counted
    in the affine or the projective form of `_hom_strata`."""
    fid = catalog.fingerprint_id
    return sum(
        c
        for (coker, ker), c in _hom_strata(M1, M2, projective, budget).items()
        if fid(coker) == coker_fid and fid(ker) == ker_fid
    )


def _projective_hom_groups(source, target, p, budget):
    """The projective Hom strata of the symbols source -> target at p
    (`_hom_strata`), summed by the fingerprint ids of (coker, ker) with
    `_group_by_fp`."""
    hom = _hom_strata(source.instantiate(p), target.instantiate(p), True, budget)
    return _group_by_fp(hom.items(), lambda key: tuple(map(catalog.fingerprint_id, key)))


def _projective_middles(xi2, eta2, p, budget):
    """{middle fingerprint id: (count, middle)}: the nonsplit extension
    classes of xi' by eta' at p, grouped by the fingerprint of the middle
    (`_group_by_fp`, the split group dropped), each group's count divided
    by p - 1."""
    census = strata.ext_middle_census(xi2.instantiate(p), eta2.instantiate(p), budget=budget)
    split_fid = _merge_fp(xi2.concrete_classes(p), eta2.concrete_classes(p))
    return {
        f: (_exact_quotient(c, p, "nonsplit extension stratum"), lam)
        for f, (c, lam) in _group_by_fp(census.items(), drop=split_fid).items()
    }


def _euler_characteristics(count_fn, bound, min_prime, verify):
    """[(chi, key)]: the Euler characteristics of projectivized strata.

    count_fn(p) returns {group: (count, key)}, a count already divided by
    p - 1 (`_projective_hom_groups`, `_projective_middles`).  Each group is
    fitted in one `qpoly.counting_table` sweep and read at q = 1; the groups
    with chi != 0 are listed with the first key seen, in first-seen order.
    """
    keys = {}

    def counts(p):
        out = {}
        for group, (c, key) in count_fn(p).items():
            out[group] = c
            keys.setdefault(group, key)
        return out

    table = qpoly.counting_table(counts, bound, min_prime, verify)
    return [(chi, keys[group]) for group, poly in table.items() if (chi := poly.at_one())]


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
    Each side is an integer pair (num, den), compared by
    cross-multiplication and printed as `str(Fraction(num, den))`.
    `primes` must be a nonempty list of primes (`catalog.check_primes`);
    it defaults to the two smallest.
    """
    t0 = time.perf_counter()
    quiver = _same_quiver(xi, eta, xi2, eta2)
    if not quiver.is_dynkin():
        raise UnsupportedQuiver(
            "the finite-field Green identity is verified on Dynkin quivers only"
        )
    # a Dynkin quiver has no tubes, so no symbol over it has a tube tag and
    # the floor of its primes (`catalog.min_prime_for_symbols`) is 2
    floor = 2
    if primes is None:
        primes = catalog.primes_from(floor, 2)
    # prime-independent: read once per instance
    splits = _green_ff_splits(quiver, xi.dims, eta.dims, xi2.dims, eta2.dims)
    if splits is None:
        raise ValueError(
            "green_ff needs dim xi + dim eta = dim xi' + dim eta'; got "
            f"{xi.dims}+{eta.dims} vs {xi2.dims}+{eta2.dims}"
        )
    catalog.check_primes(primes, floor)
    fids = (xi.fingerprint_id(), eta.fingerprint_id())
    terms = []
    lhs_all, rhs_all = [], []
    equal = True
    for p in primes:
        (ln, ld), (rn, rd), n_lam, n_rhs = _green_ff_at_prime(
            quiver, xi, eta, xi2, eta2, p, budget, fids, splits
        )
        lhs, rhs = _fraction_text(ln, ld), _fraction_text(rn, rd)
        lhs_all.append(lhs)
        rhs_all.append(rhs)
        equal = equal and ln * rd == rn * ld
        terms.append({
            "prime": p, "lhs": lhs, "rhs": rhs,
            "middle_terms": n_lam, "splitting_terms": n_rhs,
        })
    inputs = {
        "xi": str(xi),
        "eta": str(eta),
        "xi_prime": str(xi2),
        "eta_prime": str(eta2),
        "primes": list(primes),
    }
    return _report("green_ff", inputs, lhs_all, rhs_all, equal, terms, [], t0)


def _fraction_text(num, den):
    """`str(Fraction(num, den))` for den > 0, with no Fraction built."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _green_ff_at_prime(quiver, xi, eta, xi2, eta2, p, budget, fids, splits):
    """((lhs num, lhs den), (rhs num, rhs den), middle terms, splitting
    terms) of Green's identity at p, each side an unreduced fraction with
    a positive denominator.  `fids` holds the fingerprint ids of (xi, eta)
    and `splits` is `_green_ff_splits` of the four dimension vectors.
    What depends on (xi', eta') alone is read from `_green_ff_lhs` and
    `_green_ff_factors`, so the left side is one table read and the right
    side reads only the Hall numbers of xi and eta, each census where an
    unfactored sum reads it: after the factor before it is nonzero."""
    # LHS: a_xi a_eta * sum g^lam_{xi,eta} w_lam / a_lam (`_green_ff_lhs`)
    sums, raises, over = _green_ff_lhs(xi2, eta2, p, eta.dims, budget)
    entry = sums.get(fids)
    if entry is None:
        read = raises.get(fids, over)
        if read is not None:
            # over budget: this read raises, as the one it stands for
            subspaces.census_view(*read)
        num, den, n_lam = 0, 1, 0
    else:
        num, den, n_lam = entry
        num *= xi.aut_count(p) * eta.aut_count(p)

    # RHS: (gam, delt) = (quot, sub) types of subreps of xi', (alp, bet)
    # of eta'; the cross Hall numbers tie them to xi and eta.  The weight
    # c1 c2 a_gam a_delt a_alp a_bet is the product of the factors
    # c1 a_gam a_delt of xi' at e1 and c2 a_alp a_bet of eta' at e2
    # (`_green_ff_factors`).  The terms of one (e1, e2) share the weight
    # p^-euler (`_green_ff_splits`), so they are summed as integers, and
    # the sums over a common power of p.
    top, splits = splits
    rhs_num, n_rhs = 0, 0
    mod_xi = mod_eta = None
    for e1, e2, dims_alp, shift in splits:
        factors1 = _green_ff_factors(xi2, e1, p, budget)
        factors2 = _green_ff_factors(eta2, e2, p, budget)
        if not (factors1 and factors2):
            continue
        if mod_xi is None:
            mod_xi, cls_xi = xi.instantiate(p), xi.concrete_classes(p)
        view3 = subspaces.census_view(mod_xi, dims_alp, budget, cls_xi)
        view4, total = None, 0
        for gam, delt, w1 in factors1:
            for alp, bet, w2 in factors2:
                g3 = view3.get((gam, alp), 0)
                if g3 == 0:
                    continue
                if view4 is None:
                    if mod_eta is None:
                        mod_eta, cls_eta = eta.instantiate(p), eta.concrete_classes(p)
                    view4 = subspaces.census_view(mod_eta, e2, budget, cls_eta)
                g4 = view4.get((delt, bet), 0)
                if g4 == 0:
                    continue
                n_rhs += 1
                total += w1 * w2 * g3 * g4
        rhs_num += total * p ** shift
    return (num, den), (rhs_num, p ** top), n_lam, n_rhs


@memo.memoized(lambda xi2, eta2, p, eta_dims, budget: (xi2.id, eta2.id, p, eta_dims, budget))
def _green_ff_lhs(xi2, eta2, p, eta_dims, budget):
    """(sums, raises, over): Green's left side at p, without its factor
    |Aut xi| |Aut eta|, for every (xi, eta) with dim eta = `eta_dims`,
    from one pass over the middles lam of `_green_ff_middles` and each
    middle's census view at dim eta.

    `sums` maps the fingerprint ids of (xi, eta) to (num, den, middle
    terms), with num / den = sum_lam g^lam_{xi,eta} w_lam / a_lam over the
    middles where both factors are nonzero.  A key absent from `sums` has
    no such middle, and reads (0, 1, 0) unless its sum would raise
    `BudgetExceeded`: then `raises` maps it to the census read (arguments
    of `subspaces.census_view`) where the unfactored sum raises, w_lam =
    None with g^lam_{xi,eta} != 0, and failing that `over` is the first
    census view at dim eta over budget, which every key reaches.  The key
    holds the budget, so a hit is what a fresh build under the same budget
    returns."""
    sums, raises = {}, {}
    for lam, lam_mod, a_lam, w in _green_ff_middles(xi2, eta2, p, budget):
        try:
            view = subspaces.census_view(lam_mod, eta_dims, budget, lam)
        except BudgetExceeded:
            return {}, raises, (lam_mod, eta_dims, budget, lam)
        for key, g1 in view.items():
            if key in raises:
                continue
            if w is None:
                sums.pop(key, None)
                raises[key] = (lam_mod, eta2.dims, budget, lam)
            elif w:
                num, den, n_lam = sums.get(key, (0, 1, 0))
                sums[key] = (num * a_lam + g1 * w * den, den * a_lam, n_lam + 1)
    return sums, raises, None


@memo.memoized(lambda xi2, eta2, p, budget: (xi2.id, eta2.id, p, budget))
def _green_ff_middles(xi2, eta2, p, budget):
    """((lam, module of lam, |Aut lam|, w_lam), ...): one middle class per
    fingerprint among the extensions of xi' by eta' at p, with the factor
    w_lam = g^lam_{xi',eta'} |Aut xi'| |Aut eta'| of Green's left side.  On
    a Dynkin quiver the fingerprint is the isomorphism class, and the
    middles lam with g^lam_{xi',eta'} != 0 are exactly these.  w_lam is
    None where reading g^lam_{xi',eta'} exceeds `budget`; its reader reads
    it again, which raises there.  The key holds the budget, so a hit is
    what a fresh call under the same budget returns."""
    quiver = xi2.quiver
    census = strata.ext_middle_census(xi2.instantiate(p), eta2.instantiate(p), budget=budget)
    fids = (xi2.fingerprint_id(), eta2.fingerprint_id())
    auts = xi2.aut_count(p) * eta2.aut_count(p)
    out = []
    for _, lam in _group_by_fp(census.items()).values():
        lam_mod = catalog.module_from_classes(quiver, lam, p)
        try:
            w = subspaces.census_view(lam_mod, eta2.dims, budget, lam).get(fids, 0) * auts
        except BudgetExceeded:
            w = None
        out.append((lam, lam_mod, catalog.aut_count_of_classes(quiver, lam, p), w))
    return tuple(out)


@memo.memoized(lambda sym, e, p, budget: (sym.id, e, p, budget))
def _green_ff_factors(sym, e, p, budget):
    """((quot fid, sub fid, c |Aut quot| |Aut sub|), ...): the Hall census
    {(quot, sub): c} of the symbol at p and sub-dimension e, one tuple per
    entry in census order, with fingerprint ids (`catalog.fingerprint_id`)
    for classes.  The key holds the budget, so a hit is what a fresh
    census under the same budget returns, and a miss raises
    `BudgetExceeded` as that census does."""
    quiver, classes = sym.quiver, sym.concrete_classes(p)
    census = subspaces.hall_census(sym.instantiate(p), e, budget=budget, key_classes=classes)
    fid, aut = catalog.fingerprint_id, catalog.aut_count_of_classes
    return tuple(
        (fid(quot), fid(sub), c * aut(quiver, quot, p) * aut(quiver, sub, p))
        for (quot, sub), c in census.items()
    )


@memo.memoized(lambda quiver, *dims: (quiver.key, dims))
def _green_ff_splits(quiver, xi_dims, eta_dims, xi2_dims, eta2_dims):
    """(top, ((e1, e2, dim alp, top - euler), ...)) per (e1, e2) of
    `_split_dims`, with dim alp = dim eta' - e2, euler = <dim gam, dim bet>
    for dim gam = dim xi' - e1 and dim bet = e2, and top the largest euler
    and 0.  On a hereditary algebra dim Hom - dim Ext^1 is the Euler form,
    so Green's weight |Ext^1(gam, bet)| / |Hom(gam, bet)| is p^-euler =
    p^(top - euler) / p^top whatever gam and bet are.  None when dim xi +
    dim eta != dim xi' + dim eta', which `verify_green_ff` refuses."""
    if _dims_sum(xi_dims, eta_dims) != _dims_sum(xi2_dims, eta2_dims):
        return None
    out = []
    for e1, e2 in _split_dims(xi2_dims, eta2_dims, [(xi_dims, eta_dims)]):
        dims_gam = tuple(d - x for d, x in zip(xi2_dims, e1))
        dims_alp = tuple(d - x for d, x in zip(eta2_dims, e2))
        out.append((e1, e2, dims_alp, quiver.euler_form(dims_gam, e2)))
    top = max([0] + [euler for *_, euler in out])
    return top, tuple((e1, e2, dims_alp, top - euler) for e1, e2, dims_alp, euler in out)


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


@memo.memoized(lambda classes1, classes2: (classes1, classes2))
def _merge_fp(classes1, classes2):
    """The fingerprint id of the direct sum of two decompositions (memoized)."""
    return catalog.fingerprint_id(catalog._merge_classes(classes1, classes2))


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
    interpolation sweep keyed by the fingerprint ids of (xi, eta).

    At each prime the LHS reads the census view of L = xi' + eta' at each
    requested dim eta, and the RHS sums Green's splittings at each
    requested (dim xi, dim eta) (`_splittings`), keyed by the fingerprint
    ids of gam + alp and delt + bet.  Only requested keys are kept and fitted;
    a key that counts 0 at every prime, such as any pair with dim xi +
    dim eta != dim L, reads as the zero polynomial.
    """
    L = xi2.direct_sum(eta2)
    fps = [(xi.fingerprint_id(), eta.fingerprint_id()) for xi, eta in pairs]
    wanted = set(fps)
    dims = sorted({(xi.dims, eta.dims) for xi, eta in pairs})
    eta_dims = sorted(e for x, e in dims if _dims_sum(x, e) == L.dims)
    splits = _split_dims(xi2.dims, eta2.dims, dims)

    def counts(p):
        out = {}
        M, M_classes = L.instantiate(p), L.concrete_classes(p)
        for e in eta_dims:
            for fids, c in subspaces.census_view(M, e, budget, M_classes).items():
                out["lhs", *fids] = c
        cls, mods = _materialize(p, xi2=xi2, eta2=eta2)
        for (gam, delt, alp, bet), c, _, _ in _splittings(cls, mods, splits, budget):
            key = ("rhs", _merge_fp(gam, alp), _merge_fp(delt, bet))
            out[key] = out.get(key, 0) + c
        return {key: c for key, c in out.items() if key[1:] in wanted}

    bound = max(
        [cluster.grassmannian_degree_bound(L.dims, e) for e in eta_dims]
        + [_max_sub_degree_any(xi2.dims) + _max_sub_degree_any(eta2.dims)]
    )
    symbols = [xi2, eta2, *itertools.chain.from_iterable(pairs)]
    min_prime = catalog.min_prime_for_symbols(symbols)
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
    admissible = _dims_sum(xi.dims, eta.dims) == _dims_sum(xi2.dims, eta2.dims)
    min_prime = catalog.min_prime_for_symbols((xi2, eta2, xi, eta))
    p0 = catalog.primes_from(min_prime, 1)[0]
    ext_dim = rep.ext1_dim(xi2.instantiate(p0), eta2.instantiate(p0))
    L = xi2.direct_sum(eta2)

    # degree bounds from dimension data alone
    b_hall = cluster.grassmannian_degree_bound(L.dims, eta.dims)
    b_split = 0
    for (gd, dd), (ad, bd) in itertools.product(
        _dim_splits(xi2.dims), _dim_splits(eta2.dims)
    ):
        b = (
            _ext_dim_bound(quiver, gd, ad)
            + _ext_dim_bound(quiver, dd, bd)
            + cluster.grassmannian_degree_bound(xi2.dims, dd)
            + cluster.grassmannian_degree_bound(eta2.dims, bd)
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


def _ext_stratum_fp(X, Y, target_fid, budget):
    """#extension classes of X by Y whose middle has fingerprint id
    `target_fid`."""
    census = strata.ext_middle_census(X, Y, budget=budget)
    return sum(c for mid, c in census.items() if catalog.fingerprint_id(mid) == target_fid)


def _green_projective_blocks(quiver, xi2, eta2, xi, eta, p, budget):
    cls, mods = _materialize(p, xi=xi, eta=eta, xi2=xi2, eta2=eta2)
    f_xi, f_eta = xi.fingerprint_id(), eta.fingerprint_id()
    L = rep.direct_sum(mods["xi2"], mods["eta2"])

    # block (i): nonsplit middles, projectivized, against Hall numbers
    block_i = 0
    for c, lam in _projective_middles(xi2, eta2, p, budget).values():
        lam_mod = catalog.module_from_classes(quiver, lam, p)
        block_i += c * _hall_fp(lam_mod, f_xi, f_eta, eta.dims, budget, lam)

    # blocks (ii) and (iii) run over the splitting tuples of the dimension
    # vectors of xi and eta (`_splittings`).  Split submodules
    # U = (U cap xi') + (U cap eta') of L correspond exactly to the diagonal
    # splitting tuples, so block (iv)'s split count is the diagonal census
    # product.
    block_ii = 0
    block_iii = 0
    n_split = 0
    hom_xi2_eta2 = rep.hom_dim(mods["xi2"], mods["eta2"])
    splits = _split_dims(xi2.dims, eta2.dims, [(xi.dims, eta.dims)])
    for (gam, delt, alp, bet), c, e1, e2 in _splittings(cls, mods, splits, budget):
        v_gam = catalog.module_from_classes(quiver, gam, p)
        v_alp = catalog.module_from_classes(quiver, alp, p)
        v_delt = catalog.module_from_classes(quiver, delt, p)
        v_bet = catalog.module_from_classes(quiver, bet, p)
        if _merge_fp(gam, alp) == f_xi and _merge_fp(delt, bet) == f_eta:
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
        n1 = _ext_stratum_fp(v_gam, v_alp, f_xi, budget)
        if n1 == 0:
            continue
        n2 = _ext_stratum_fp(v_delt, v_bet, f_eta, budget)
        if n2 == 0:
            continue
        block_ii += _exact_quotient(n1 * n2, p, "joint extension stratum") * c

    # block (iv): projectivized nonsplit Hall variety of L = xi' + eta'
    n_all = _hall_fp(
        L, f_xi, f_eta, eta.dims, budget,
        catalog._merge_classes(cls["xi2"], cls["eta2"]),
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
    symbols = (X, Y1, Y2, L1, L2)
    quiver = _same_quiver(*symbols)
    floor = catalog.min_prime_for_symbols(symbols)
    if primes is None:
        primes = catalog.primes_from(floor, 2)
    catalog.check_primes(primes, floor)
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
    fid = catalog.fingerprint_id
    fids = {"X": X.fingerprint_id(), "Y1": Y1.fingerprint_id(), "Y2": Y2.fingerprint_id()}
    m_l1 = L1.instantiate(p)
    m_l2 = L2.instantiate(p)
    projective = form == "projective"
    census_h = _hom_strata(m_l1, m_l2, projective, budget)

    if direction == "primal":
        # LHS: strata of Hom(L1, L2) with coker = X, graded by ker type Y
        lhs = 0
        for (coker, ker), h in census_h.items():
            if h == 0 or fid(coker) != fids["X"]:
                continue
            ker_mod = catalog.module_from_classes(quiver, ker, p)
            lhs += h * _hall_fp(ker_mod, fids["Y2"], fids["Y1"], Y1.dims, budget)
        # RHS: subreps Y1 <= L1 with quotient L1', then maps L1' -> L2
        rhs = 0
        census_g = subspaces.hall_census(
            m_l1, Y1.dims, budget=budget, key_classes=L1.concrete_classes(p)
        )
        for (quot, sub), c in census_g.items():
            if fid(sub) != fids["Y1"]:
                continue
            quot_mod = catalog.module_from_classes(quiver, quot, p)
            rhs += c * _hom_stratum_fp(
                quot_mod, m_l2, fids["X"], fids["Y2"], projective, budget
            )
        return lhs, rhs

    # dual direction: (X1, X2, Y) := (X, Y2, Y1)
    fx1, fx2, fy = fids["X"], fids["Y2"], fids["Y1"]
    x1_dims, x2_dims, y_dims = X.dims, Y2.dims, Y1.dims
    # LHS: strata of Hom(L1, L2) with ker = Y, graded by coker type X'
    lhs = 0
    for (coker, ker), h in census_h.items():
        if h == 0 or fid(ker) != fy:
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
            if fid(quot) != fx2:
                continue
            sub_mod = catalog.module_from_classes(quiver, sub, p)
            rhs += c * _hom_stratum_fp(m_l1, sub_mod, fx1, fy, projective, budget)
    return lhs, rhs


# ---------------------------------------------------------------------------
# cluster multiplication (Caldero-Keller)
# ---------------------------------------------------------------------------


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
    Each chi is read off one fit of counts divided by p - 1 at each prime
    (`_projective_middles`, `_projective_hom_groups`).
    """
    t0 = time.perf_counter()
    quiver = _same_quiver(xi2, eta2)
    if table is None:
        table = cluster.CharTable(quiver, budget=budget, verify=verify)
    min_prime = catalog.min_prime_for_symbols((xi2, eta2))
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
    middles = _euler_characteristics(
        lambda p: _projective_middles(xi2, eta2, p, budget), ext_dim, min_prime, verify
    )
    nvars = quiver.n
    term1 = LaurentPoly.zero(nvars)
    terms = []
    for chi, lam in middles:
        x_lam = table.char_of_classes(lam)
        term1 = term1 + chi * x_lam
        terms.append({"part": "middles", "chi": chi, "character": str(x_lam)})

    # term 2: Hom(eta', tau xi') strata
    hom_dim = rep.hom_dim(eta2.instantiate(p0), tau_xi2.instantiate(p0))
    hom_strata = _euler_characteristics(
        lambda p: _projective_hom_groups(eta2, tau_xi2, p, budget), hom_dim, min_prime, verify
    )
    term2 = LaurentPoly.zero(nvars)
    for chi, (coker, ker) in hom_strata:
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
    projective kernel P' and cokernel gam.  Each chi is read off one fit
    of counts divided by p - 1 at each prime (`_projective_hom_groups`).
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
    for part, source, target in (
        ("into_injective", xi2, inj),
        ("from_projective", proj, xi2),
    ):
        hom_dim = rep.hom_dim(source.instantiate(p0), target.instantiate(p0))
        hom_strata = _euler_characteristics(
            lambda p: _projective_hom_groups(source, target, p, budget),
            hom_dim, min_prime, verify,
        )
        for chi, (coker, ker) in hom_strata:
            if part == "into_injective":
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
