"""Sparse multivariate polynomials with exact integer coefficients.

Terms are stored in a dict mapping monomials to nonzero ints. A monomial is
a tuple of (variable, exponent) pairs, sorted by variable, exponents > 0;
the empty tuple is the constant monomial. Variables may be any hashable,
mutually sortable values: the Z_p code uses arc-id strings, the four-flow
code uses ("x", edge) / ("y", edge) pairs.

Coefficients are Python ints, so nothing here can overflow.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .errors import BoundExceeded

Mono = tuple  # tuple[tuple[var, int], ...]


def mono_mul(a: Mono, b: Mono) -> Mono:
    """Merge two sorted monomials, adding exponents."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


class Poly:
    """Immutable-by-convention sparse polynomial over the integers."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        # Trusts the caller to pass canonical monomials and nonzero coeffs;
        # use from_terms() for unchecked input.
        self.terms = dict(terms) if terms else {}

    @classmethod
    def from_terms(cls, items) -> "Poly":
        """Build from (exponent-dict, coeff) pairs, canonicalizing."""
        acc: dict[Mono, int] = {}
        for exps, coeff in items:
            mono = tuple(sorted((v, e) for v, e in exps.items() if e))
            acc[mono] = acc.get(mono, 0) + coeff
        return cls({m: c for m, c in acc.items() if c})

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, c: int) -> "Poly":
        return cls({(): c}) if c else cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({(): 1})

    @classmethod
    def variable(cls, var, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return cls.one()
        return cls({((var, exp),): 1})

    @classmethod
    def monomial(cls, exps: Mapping, coeff: int = 1) -> "Poly":
        if not coeff:
            return cls()
        mono = tuple(sorted((v, e) for v, e in exps.items() if e))
        return cls({mono: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set:
        seen = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return seen

    def coefficient(self, exps: Mapping) -> int:
        mono = tuple(sorted((v, e) for v, e in exps.items() if e))
        return self.terms.get(mono, 0)

    def items(self) -> Iterator[tuple[Mono, int]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == Poly.constant(other).terms
        if isinstance(other, Poly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "Poly":
        if isinstance(other, int):
            other = Poly.constant(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            if other == 0:
                return Poly()
            return Poly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        return self.mul(other)

    __rmul__ = __mul__

    def mul(self, other: "Poly", max_terms: int | None = None) -> "Poly":
        """Product, optionally refusing to grow past max_terms terms."""
        out: dict[Mono, int] = {}
        small, large = (self.terms, other.terms)
        if len(small) > len(large):
            small, large = large, small
        for m1, c1 in small.items():
            for m2, c2 in large.items():
                mono = mono_mul(m1, m2)
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
            if max_terms is not None and len(out) > max_terms:
                raise BoundExceeded(
                    f"polynomial product exceeds {max_terms} terms"
                )
        return Poly(out)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        variables = sorted(self.variables())

        def dense(item):
            """The dense exponent vector over the sorted variables."""
            exps = dict(item[0])
            return [exps.get(v, 0) for v in variables]

        bits = []
        for mono, coeff in sorted(self.terms.items(), key=dense, reverse=True):
            factors = "*".join(
                f"{v}^{e}" if e > 1 else f"{v}" for v, e in mono
            )
            bits.append(f"{coeff}" + (f"*{factors}" if factors else ""))
        return "Poly(" + " + ".join(bits) + ")"
