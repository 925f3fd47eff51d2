"""Cluster characters from Euler characteristics of quiver Grassmannians.

For a representation M with dimension vector d over an acyclic quiver on
vertices 1..n, the cluster character is the Laurent polynomial

    X_M = sum_e  chi(Gr_e(M)) * x^(e R + (d - e) R' - d)

where e runs over dimension vectors of subrepresentations, Gr_e(M) is the
quiver Grassmannian of subrepresentations of dimension vector e, R is the
arrow-count matrix (R_ij = #arrows i -> j = dim Ext^1(S_i, S_j)) and
R' = R^T.  Exponent vectors are row vectors acting on the right.

chi(Gr_e(M)) is computed by exact point counts: #Gr_e(M)(F_p) is counted
for enough primes, the counting polynomial in q is interpolated (degree at
most sum_i e_i (d_i - e_i), since Gr_e embeds in the product of vertexwise
Grassmannians), verified on extra primes, and evaluated at q = 1.

Three independent evaluation paths are kept deliberately:

* the per-dimension-vector path counts whole Grassmannians with
  `subspaces.grassmannian_count`, which walks the vertices before the
  last one in topological order where the module is nonzero;
* the stratified path splits each Grassmannian into Hall strata (grouped
  by the iso-class fingerprint of the (quotient, sub) pair), interpolates
  every stratum separately and sums the values at q = 1;
* the coefficient-quiver path uses no prime: for string modules chi(Gr_e)
  is the number of successor-closed subsets of dimension vector e of the
  coefficient quiver, the fixed points of a torus action.  It covers every
  indecomposable of a type-A quiver and the Kronecker P_n, I_n and R(m).

The first path is the primary one.  `CharTable` memoizes characters and
cross-checks each on insert: against the coefficient-quiver path where it
covers every atom, else against the stratified path whenever its census is
affordable.  It also spot-checks multiplicativity X_{A + B} = X_A * X_B on
decomposable classes, so each cached character has survived an
independent recomputation.  `hallchar char` checks against the
coefficient-quiver path where it covers the module.
"""

import itertools

from . import catalog, memo, qpoly, subspaces
from .errors import VerificationMismatch
from .laurent import LaurentPoly
from .subspaces import BudgetExceeded, DEFAULT_SUBSPACE_BUDGET

__all__ = [
    "character_exponent",
    "grassmannian_degree_bound",
    "chi_grassmannian",
    "char_of_symbol",
    "char_by_strata",
    "char_by_coefficient_quivers",
    "check_by_coefficient_quivers",
    "injective_socle_exponent",
    "projective_top_exponent",
    "socle_monomial",
    "top_monomial",
    "char_of_shifted_projective",
    "CharTable",
]

# Enumeration ceiling for the stratified cross-check in CharTable, which
# serves the classes the coefficient-quiver oracle does not cover (D/E
# atoms, vertex atoms of other quivers); censuses whose subspace
# enumeration would exceed it are skipped and counted as "skipped".
# Covered classes are always checked.
# The primary path, `subspaces.grassmannian_count`, is charged over the
# vertices before its closing vertex, under DEFAULT_SUBSPACE_BUDGET.
DEFAULT_CHECK_BUDGET = 60_000


def character_exponent(quiver, d, e):
    """Exponent vector e R + (d - e) R' - d of the e-stratum monomial, with
    r_ij = dim Ext^1(S_i, S_j) = #arrows i -> j and R' = R^T: each arrow
    s -> t adds e_s at t and d_t - e_t at s."""
    g = [-int(x) for x in d]
    for s, t in quiver.arrows:
        g[t] += int(e[s])
        g[s] += int(d[t]) - int(e[t])
    return tuple(g)


def grassmannian_degree_bound(d, e):
    """Upper bound sum_i e_i (d_i - e_i) for deg_q #Gr_e(F_q).

    Gr_e(M) is a closed subvariety of prod_i Gr(e_i, d_i), whose point
    count is a polynomial of exactly this degree; a nonnegative count
    dominated by it at every prime can have no larger degree.
    """
    return int(sum(int(ei) * (int(di) - int(ei)) for di, ei in zip(d, e)))


def _subdim_vectors(d):
    return itertools.product(*[range(int(di) + 1) for di in d])


@memo.memoized(lambda sym, e, budget=DEFAULT_SUBSPACE_BUDGET, verify=2: (
    sym.key, tuple(int(x) for x in e), budget, verify))
def chi_grassmannian(sym, e, budget=DEFAULT_SUBSPACE_BUDGET, verify=2):
    """Euler characteristic chi(Gr_e) of the module class `sym` (memoized).

    Interpolates #Gr_e(F_p) over primes p >= sym.min_prime() and evaluates
    the verified counting polynomial at q = 1.  Returns 0 when e is not a
    subdimension vector of dims(sym).  The memo key holds `budget` and
    `verify`, so a call never reads an answer fitted with fewer checks or
    a larger budget than its own.
    """
    d = sym.dims
    e = tuple(int(x) for x in e)
    if len(e) != len(d):
        raise ValueError(f"dimension vector {e} has wrong length for {d}")
    if any(ei < 0 or ei > di for ei, di in zip(e, d)):
        return 0
    poly = qpoly.counting_polynomial(
        lambda p: subspaces.grassmannian_count(sym.instantiate(p), e, budget=budget),
        grassmannian_degree_bound(d, e),
        min_prime=sym.min_prime(),
        verify=verify,
    )
    return poly.at_one()


def char_of_symbol(sym, budget=DEFAULT_SUBSPACE_BUDGET, verify=2):
    """Cluster character X_M as a LaurentPoly (per-dimension-vector path)."""
    quiver = sym.quiver
    d = sym.dims
    total = LaurentPoly.zero(quiver.n)
    for e in _subdim_vectors(d):
        chi = chi_grassmannian(sym, e, budget=budget, verify=verify)
        if chi == 0:
            continue
        total = total + LaurentPoly.monomial(character_exponent(quiver, d, e), chi)
    return total


def char_by_strata(sym, budget=DEFAULT_SUBSPACE_BUDGET, verify=2):
    """Cluster character via Hall strata (independent of char_of_symbol).

    For each subdimension vector e the census of subrepresentations is
    grouped by the fingerprint of (quotient class, sub class)
    (`subspaces.census_view`); each group's count is interpolated as its
    own polynomial in q and evaluated at 1, so chi(Gr_e) is assembled
    stratum by stratum instead of from whole-space point counts.
    """
    quiver = sym.quiver
    d = sym.dims
    total = LaurentPoly.zero(quiver.n)
    for e in _subdim_vectors(d):
        table = qpoly.counting_table(
            lambda p, e=e: subspaces.census_view(
                sym.instantiate(p), e, budget, sym.concrete_classes(p)
            ),
            grassmannian_degree_bound(d, e),
            min_prime=sym.min_prime(),
            verify=verify,
        )
        chi = sum(poly.at_one() for poly in table.values())
        if chi == 0:
            continue
        total = total + LaurentPoly.monomial(character_exponent(quiver, d, e), chi)
    return total


# ---------------------------------------------------------------------------
# successor-closed subsets of coefficient quivers (no primes)
# ---------------------------------------------------------------------------


def _path_order(quiver):
    """The vertices in order along the underlying graph of `quiver`, or None
    when that graph is not a path (type A_n)."""
    linked = [[] for _ in range(quiver.n)]
    for s, t in quiver.arrows:
        linked[s].append(t)
        linked[t].append(s)
    if not quiver.is_tree() or max(map(len, linked)) > 2:
        return None
    order = [next(v for v in range(quiver.n) if len(linked[v]) <= 1)]
    while len(order) < quiver.n:
        order.append(next(w for w in linked[order[-1]] if w not in order[-2:]))
    return order


def _atom_string(quiver, atom):
    """The coefficient quiver of the string module `atom`, as (nodes, steps),
    or None when the atom is not covered.

    nodes[i] is the vertex of the basis vector b_i, and steps[i] is True
    when an arrow maps b_i to b_{i+1}, False when it maps b_{i+1} to b_i.
    Covered: every indecomposable of a quiver whose underlying graph is a
    path (its root is an interval, and the coefficient quiver is Q on it),
    and the Kronecker P_n, I_n and R(m), whose bases in
    `catalog.module_from_class` give the strings
        P_n:  w_1 <-a- u_1 -b-> w_2 <-a- ... u_n -b-> w_{n+1}
        I_n:  u_1 -a-> w_1 <-b- u_2 -a-> ... w_n <-b- u_{n+1}
        R(m): u_1 -a-> w_1 <-b- u_2 -a-> ... u_m -a-> w_m
    with u at vertex 1 and w at vertex 2; R(m) is read at the point 0
    (a = Id, b = J_m(0)).  chi(Gr_e(R_lam(m))) does not depend on lam,
    because GL_2 acting on the span of the two arrows permutes the tubes.
    """
    kind = atom[0]
    order = _path_order(quiver) if kind == "root" else None
    if order is not None:
        nodes = tuple(v for v in order if atom[1][v])
        return nodes, tuple((u, w) in quiver.arrows for u, w in zip(nodes, nodes[1:]))
    if quiver.arrows != ((0, 1), (0, 1)):
        return None
    if kind == "P":
        return (1,) + (0, 1) * atom[1], (False, True) * atom[1]
    if kind == "I":
        return (0,) + (1, 0) * atom[1], (True, False) * atom[1]
    if kind in ("R", "Rc"):
        m = atom[2]
        return (0, 1) * m, (True, False) * (m - 1) + (True,)
    return None


@memo.memoized(lambda quiver, atom: (quiver.key, atom))
def _atom_subset_counts(quiver, atom):
    """{e: #successor-closed subsets of dimension vector e} of the
    coefficient quiver of `atom` (memoized), or None when the atom is not
    covered (`_atom_string`).

    One pass along the string keeps the counts of the closed subsets of
    each prefix, split by whether the prefix's last basis vector is in the
    subset: a step b_i -> b_{i+1} forbids b_i in with b_{i+1} out, and a
    step b_i <- b_{i+1} forbids b_{i+1} in with b_i out.
    """
    string = _atom_string(quiver, atom)
    if string is None:
        return None
    nodes, steps = string
    zero = (0,) * quiver.n
    inside, outside = {_bump(zero, nodes[0]): 1}, {zero: 1}
    for v, forward in zip(nodes[1:], steps):
        grown = _add_counts(inside, outside) if forward else inside
        outside = outside if forward else _add_counts(inside, outside)
        inside = {_bump(e, v): c for e, c in grown.items()}
    return _add_counts(inside, outside)


def _bump(e, v):
    return e[:v] + (e[v] + 1,) + e[v + 1:]


def _add_counts(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def char_by_coefficient_quivers(sym):
    """Cluster character of `sym` from torus fixed points, or None when some
    atom is not covered (`_atom_string`).  No prime is used.  The zero
    module, a sum of no atoms, is covered on every quiver.

    For a string module M the fixed points of Cerulli Irelli's torus on
    Gr_e(M) are the subspaces spanned by successor-closed subsets of the
    coefficient quiver, so chi(Gr_e(M)) is the number of those subsets of
    dimension vector e (Cerulli Irelli, J. Algebraic Combin. 2011; Haupt,
    Algebr. Represent. Theory 2012).  chi(Gr_e) is multiplicative over
    direct sums, so the atoms' generating functions multiply.
    """
    quiver = sym.quiver
    counts = {(0,) * quiver.n: 1}
    for atom, mult in sym.atoms:
        factor = _atom_subset_counts(quiver, atom)
        if factor is None:
            return None
        for _ in range(mult):
            product = {}
            for e, c in counts.items():
                for f, k in factor.items():
                    g = tuple(x + y for x, y in zip(e, f))
                    product[g] = product.get(g, 0) + c * k
            counts = product
    terms = {}
    for e, chi in counts.items():
        g = character_exponent(quiver, sym.dims, e)
        terms[g] = terms.get(g, 0) + chi
    return LaurentPoly(quiver.n, terms)


def check_by_coefficient_quivers(sym, value):
    """Compare the character `value` of `sym` with
    `char_by_coefficient_quivers`.  Returns False when the oracle does not
    cover `sym`, True when it agrees, and raises VerificationMismatch when
    it does not."""
    again = char_by_coefficient_quivers(sym)
    if again is None:
        return False
    if again != value:
        raise VerificationMismatch(
            f"coefficient-quiver character {again} disagrees with {value} for {sym}"
        )
    return True


# ---------------------------------------------------------------------------
# socle / top monomials and shifted projectives
# ---------------------------------------------------------------------------


def injective_socle_exponent(quiver, classes):
    """Multiplicity vector m of soc(I) = + S_v^{m_v} for injective I.

    `classes` is a decomposition [(class, mult), ...]; every class must be
    injective (I = + I(v)^{m_v} has socle + S_v^{m_v}).
    """
    m = [0] * quiver.n
    for cls, mult in classes:
        v = catalog.injective_vertex_of_class(quiver, cls)
        if v is None:
            raise ValueError(f"class {cls} is not injective")
        m[v] += mult
    return tuple(m)


def projective_top_exponent(quiver, classes):
    """Multiplicity vector m of top(P) = P/rad P = + S_v^{m_v} for projective P."""
    m = [0] * quiver.n
    for cls, mult in classes:
        v = catalog.projective_vertex_of_class(quiver, cls)
        if v is None:
            raise ValueError(f"class {cls} is not projective")
        m[v] += mult
    return tuple(m)


def socle_monomial(quiver, classes):
    """x^(dim soc I) for an injective decomposition."""
    return LaurentPoly.monomial(injective_socle_exponent(quiver, classes))


def top_monomial(quiver, classes):
    """x^(dim top P) for a projective decomposition."""
    return LaurentPoly.monomial(projective_top_exponent(quiver, classes))


def char_of_shifted_projective(mults):
    """Character x^m of the shifted projective P[1], P = + P(v)^{m_v}.

    In the cluster category the object P[1] has character x^(dim top P),
    and dim top P is exactly the multiplicity vector m.
    """
    return LaurentPoly.monomial(tuple(int(x) for x in mults))


# ---------------------------------------------------------------------------
# memo table with built-in cross-checks
# ---------------------------------------------------------------------------


class CharTable:
    """Memoized cluster characters with cross-checking on insert.

    Each new character is computed by the per-dimension-vector path; then

    * where every atom is a string module that `char_by_coefficient_quivers`
      covers (every indecomposable of a type-A quiver, the Kronecker P_n,
      I_n and R(m)), the character is recounted from the successor-closed
      subsets of its coefficient quivers, with no prime;
    * for every other class (D/E atoms, vertex atoms of other quivers), when
      the stratified census fits in `DEFAULT_CHECK_BUDGET`, the character is
      recomputed by the stratum path (`char_by_strata`); past the budget the
      check is skipped;
    * for decomposable classes, multiplicativity X_{A + B} = X_A X_B is
      checked against the table (splitting off one indecomposable).

    A disagreement raises VerificationMismatch.  `checks` counts which check
    served each stored character: "coefficient_quivers", "strata" or
    "skipped".
    """

    def __init__(self, quiver, budget=DEFAULT_SUBSPACE_BUDGET, verify=2):
        self.quiver = quiver
        self.budget = budget
        self.verify = verify
        self.checks = {"coefficient_quivers": 0, "strata": 0, "skipped": 0}
        self._memo = {}

    def char(self, sym):
        """X_M for the module class `sym` (a ModuleSymbol of this quiver)."""
        if sym.quiver.key != self.quiver.key:
            raise ValueError("symbol belongs to a different quiver")
        key = sym.key
        if key in self._memo:
            return self._memo[key]
        value = char_of_symbol(sym, budget=self.budget, verify=self.verify)
        # stored only once both checks pass, so a failed check raises again
        # on the next call; the multiplicativity check recurses into char()
        # for strictly smaller summands, so it ends without the entry.
        check = self._check_independent(sym, value)
        self._check_multiplicative(sym, value)
        self._memo[key] = value
        self.checks[check] += 1
        return value

    def char_of_classes(self, classes):
        """X_M from a decomposition with abstract or concrete class labels."""
        return self.char(catalog.abstract_symbol_from_classes(self.quiver, classes))

    def _check_independent(self, sym, value):
        """Check `value` against a path that shares no count with
        `char_of_symbol`; returns the name of the check that served."""
        if check_by_coefficient_quivers(sym, value):
            return "coefficient_quivers"
        try:
            again = char_by_strata(sym, budget=DEFAULT_CHECK_BUDGET, verify=self.verify)
        except BudgetExceeded:
            return "skipped"
        if again != value:
            raise VerificationMismatch(
                f"stratified character {again} disagrees with {value} for {sym}"
            )
        return "strata"

    def _check_multiplicative(self, sym, value):
        atoms = list(sym.atoms)
        if not atoms or (len(atoms) == 1 and atoms[0][1] == 1):
            return
        if len(atoms) == 1:
            (cls, mult), = atoms
            first, rest = [(cls, 1)], [(cls, mult - 1)]
        else:
            first, rest = [atoms[0]], atoms[1:]
        a = catalog.ModuleSymbol(self.quiver, first)
        b = catalog.ModuleSymbol(self.quiver, rest)
        prod = self.char(a) * self.char(b)
        if prod != value:
            raise VerificationMismatch(
                f"multiplicativity failed for {sym}: X_A*X_B = {prod} != {value}"
            )
