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

Two independent evaluation paths are kept deliberately:

* the per-dimension-vector path counts whole Grassmannians with
  `subspaces.grassmannian_count`, which walks the vertices before the
  last one in topological order where the module is nonzero;
* the stratified path splits each Grassmannian into Hall strata (grouped
  by the iso-class fingerprint of the (quotient, sub) pair), interpolates
  every stratum separately and sums the values at q = 1.

`CharTable` memoizes characters and cross-checks the two paths against
each other on insert whenever the stratified census is affordable, and
spot-checks multiplicativity X_{A + B} = X_A * X_B on decomposable
classes, so each cached character has survived an independent
recomputation.
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
    "injective_socle_exponent",
    "projective_top_exponent",
    "socle_monomial",
    "top_monomial",
    "char_of_shifted_projective",
    "CharTable",
]

# Enumeration ceiling for the optional stratified cross-check in CharTable;
# censuses whose subspace enumeration would exceed it are skipped silently.
# The primary path, `subspaces.grassmannian_count`, walks every vertex but
# the last under its own budget, DEFAULT_SUBSPACE_BUDGET.
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

    * when the stratified census fits in `DEFAULT_CHECK_BUDGET`, the character
      is recomputed by the stratum path and the two must agree exactly;
    * for decomposable classes, multiplicativity X_{A + B} = X_A X_B is
      checked against the table (splitting off one indecomposable).

    Both checks raise VerificationMismatch on disagreement; the census check
    is skipped silently when the enumeration exceeds its budget.
    """

    def __init__(self, quiver, budget=DEFAULT_SUBSPACE_BUDGET, verify=2):
        self.quiver = quiver
        self.budget = budget
        self.verify = verify
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
        self._check_strata(sym, value)
        self._check_multiplicative(sym, value)
        self._memo[key] = value
        return value

    def char_of_classes(self, classes):
        """X_M from a decomposition with abstract or concrete class labels."""
        return self.char(catalog.abstract_symbol_from_classes(self.quiver, classes))

    def _check_strata(self, sym, value):
        try:
            again = char_by_strata(sym, budget=DEFAULT_CHECK_BUDGET, verify=self.verify)
        except BudgetExceeded:
            return
        if again != value:
            raise VerificationMismatch(
                f"stratified character {again} disagrees with {value} for {sym}"
            )

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
