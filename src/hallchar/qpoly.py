"""Exact counting polynomials in the field-size variable q.

All varieties this package counts points on (quiver Grassmannians of
catalog modules, extension and homomorphism strata, and sums of such
counts) have polynomial point counts: there is a polynomial f with
integer coefficients such that the count over F_p equals f(p) for every
admissible prime.  The strategy throughout is

  1. count exactly over degree_bound + 1 primes (Lagrange determines f),
  2. count over `verify` extra primes and check f matches (a wrong degree
     bound or a non-polynomial family fails loudly, never silently),
  3. read off the Euler characteristic as f(1).

Projectivizations: when a set S is stable under the free scaling action
of F_q^* away from 0 (e.g. nonzero extension classes), |P(S)| =
(|S| - [0 in S])/(q - 1).  The callers divide by p - 1 at each prime,
before the fit (`verify._exact_quotient`, where a remainder raises
VerificationMismatch), so what is fitted here is already the count of
P(S) and its value at q = 1 is chi(P(S)).
"""

import itertools
import operator
from fractions import Fraction

from .catalog import primes_from
from .errors import ComputationError, NonIntegerCoefficients, VerificationMismatch


class QPolynomial:
    """A polynomial in q with integer coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __call__(self, q):
        out = 0
        for c in reversed(self.coeffs):
            out = out * q + c
        return out

    def at_one(self):
        return sum(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return QPolynomial([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPolynomial(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{head}q" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"QPolynomial({self})"


def _as_poly(x):
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, int):
        return QPolynomial([x])
    raise TypeError(f"cannot coerce {x!r} to QPolynomial")


def lagrange_integer(xs, ys):
    """The unique polynomial through (xs[i], ys[i]), demanded integral.

    Interpolates in Newton form.  At integer nodes every divided difference
    of an integer-coefficient polynomial is an integer, and conversely the
    Newton form with integer divided differences has integer coefficients,
    so the first division that leaves a remainder proves the interpolant is
    not integral.
    """
    n = len(xs)
    if len(set(xs)) != n:
        raise ValueError("interpolation points must be distinct")
    xs = [operator.index(x) for x in xs]
    dd = [operator.index(ys[i]) for i in range(n)]
    # after step k, dd[i] = f[x_{i-k}, ..., x_i] for i >= k
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i], rem = divmod(dd[i] - dd[i - 1], xs[i] - xs[i - k])
            if rem:
                raise NonIntegerCoefficients(
                    "interpolated polynomial is not integral: divided "
                    f"difference over nodes {xs[i - k : i + 1]} is not an integer"
                )
    # Horner on the Newton form: dd[0] + (q - x_0)(dd[1] + (q - x_1)(...))
    coeffs = []
    for k in range(n - 1, -1, -1):
        out = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            out[i + 1] += a
            out[i] -= a * xs[k]
        out[0] += dd[k]
        coeffs = out
    return QPolynomial(coeffs)


VERIFIED_FITS = 0
"""Running count of interpolations that passed their held-out-prime check.

Diagnostic only: lets a test suite assert that verification actually ran
(a mismatch raises, so this only ever counts clean fits).
"""


def _sweep_primes(degree_bound, min_prime, verify):
    """The degree_bound + 1 fit primes followed by `verify` check primes."""
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    return primes_from(min_prime, degree_bound + 1 + verify)


def _fit_and_check(ps, ys, nfit, key=None):
    """The integral polynomial through the first `nfit` points (ps, ys),
    checked on the remaining ones; every checked fit adds 1 to
    VERIFIED_FITS.  `key` names the table entry in the error message."""
    global VERIFIED_FITS
    poly = lagrange_integer(ps[:nfit], ys[:nfit])
    for p, y in zip(ps[nfit:], ys[nfit:]):
        got = poly(p)
        if got != y:
            entry = "" if key is None else f" for key {key}"
            raise VerificationMismatch(
                f"counting polynomial {poly}{entry} predicts {got} at p={p}, "
                f"but the exact count is {y}"
            )
    if len(ps) > nfit:
        VERIFIED_FITS += 1
    return poly


def counting_polynomial(count_fn, degree_bound, min_prime=2, verify=2):
    """Fit the counting polynomial of `count_fn` and verify it.

    `count_fn(p)` must return the exact count over F_p; it is evaluated at
    the first degree_bound + 1 primes >= min_prime (fit) and `verify`
    further primes (check).  Raises VerificationMismatch when the fitted
    polynomial misses a verification prime and NonIntegerCoefficients when
    the fit is not integral — both mean the family is not the polynomial
    family the caller believed it to be.
    """
    ps = _sweep_primes(degree_bound, min_prime, verify)
    return _fit_and_check(ps, [count_fn(p) for p in ps], degree_bound + 1)


def counting_table(count_fn, degree_bound, min_prime=2, verify=2):
    """Interpolate a whole table of counts in one sweep of primes.

    `count_fn(p)` returns a dict {key: exact count over F_p}.  Each key's
    count is fitted to its own polynomial (keys absent from a prime's
    table count as 0 there) and checked on `verify` extra primes, exactly
    as in counting_polynomial.  Returns {key: QPolynomial} with the keys in
    the order first seen, prime by prime, so no order follows a key hash.
    """
    ps = _sweep_primes(degree_bound, min_prime, verify)
    tables = [count_fn(p) for p in ps]
    return {
        key: _fit_and_check(ps, [t.get(key, 0) for t in tables], degree_bound + 1, key)
        for key in dict.fromkeys(itertools.chain.from_iterable(tables))
    }


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    out, rem = divmod(num, den)
    if rem:
        raise ComputationError(
            f"[{n} choose {k}]_{q} is not an integer: {Fraction(num, den)}"
        )
    return out
