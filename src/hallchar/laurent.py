"""Integer Laurent polynomials in several commuting variables.

Cluster characters live in Z[x_1^{+-1}, ..., x_n^{+-1}].  Supports here
are tiny (a handful of monomials per module), so terms are stored as a
dict from exponent tuples to integer coefficients, with zero
coefficients pruned eagerly.  Printing is canonical: terms are sorted by
exponent tuple, so equal polynomials render identically.
"""

from __future__ import annotations


class LaurentPoly:
    """A Laurent polynomial with integer coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero ints.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.nvars:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, "
                        f"expected {self.nvars}"
                    )
                coeff = int(coeff)
                if coeff:
                    clean[exps] = clean.get(exps, 0) + coeff
                    if not clean[exps]:
                        del clean[exps]
        self.terms = clean

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: int(c)})

    @classmethod
    def monomial(cls, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        return cls(len(exps), {exps: int(coeff)})

    @classmethod
    def variable(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    # ----- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ----- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.constant(self.nvars, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            out[exps] = out.get(exps, 0) + coeff
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(
            self.nvars, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            if len(self.terms) == 1:
                ((exps, coeff),) = self.terms.items()
                if coeff in (1, -1):
                    base = LaurentPoly.monomial(
                        tuple(-e for e in exps), coeff
                    )
                    return base ** (-k)
            raise ValueError("only monomials with unit coefficient invert")
        result = LaurentPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # ----- printing -----------------------------------------------------

    @staticmethod
    def _format_monomial(exps):
        parts = []
        for i, e in enumerate(exps):
            if e == 0:
                continue
            name = f"x{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            mono = self._format_monomial(exps)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            pieces.append((coeff < 0, body))
        first_neg, first_body = pieces[0]
        out = ("-" if first_neg else "") + first_body
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return f"LaurentPoly({self})"

