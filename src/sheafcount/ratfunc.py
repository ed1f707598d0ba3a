"""Exact polynomials, and rational functions whose denominators split into
linear factors, in one variable.

Coefficients are fractions.Fraction throughout; nothing in this package
touches floating point.  Every rational function the package builds is a
product of linear forms i*t + j over another such product, so a
RationalFunction is a numerator Poly over a multiset of rational poles r:
the denominator prod(t - r) is monic by construction.  It is reduced by
exact division of the numerator by t - r at each pole where the numerator
vanishes.  Over Q linear factors are irreducible, so this is the usual
canonical form (numerator and denominator coprime, denominator monic, zero
stored as 0/1), and equality of values is equality of fields.  No general
polynomial gcd is needed, and none is provided.

Both types are values to build, compare and print, not a ring: there is no
+, * or evaluation, because localization sums in packed big integers.

The single variable is conventionally called t: it is the ratio s1/s2 of
the two torus weights.  Every weight factor appearing downstream is
homogeneous of degree 0 in (s1, s2), so specializing s1 = t, s2 = 1 loses
nothing.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm


class Poly:
    """Dense polynomial in one variable over Fraction.

    coeffs[i] is the coefficient of x^i; trailing zeros are stripped, so
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "Poly(%r)" % (self.coeffs,)

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                mon = str(abs(c))
            else:
                head = "" if abs(c) == 1 else str(abs(c)) + "*"
                mon = head + ("t" if i == 1 else "t^%d" % i)
            if not parts:
                parts.append(("-" if c < 0 else "") + mon)
            else:
                parts.append(("- " if c < 0 else "+ ") + mon)
        return " ".join(parts)


ZERO = Poly()
ONE = Poly((1,))


def _times_forms(coeffs, forms):
    """Integer coefficient list (coeffs[k] is the coefficient of t^k) of the
    polynomial coeffs times the product of the forms (j, i), i*t + j."""
    for j, i in forms:
        coeffs = [j * c + i * d for c, d in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _over(poles):
    """prod(t - r for r in poles) as a Poly: the integer product of the
    forms q*t - p, r = p/q, divided by its leading coefficient."""
    coeffs = _times_forms([1], [(-r.numerator, r.denominator) for r in poles])
    return Poly([Fraction(c, coeffs[-1]) for c in coeffs])


def _deflate(a, p, q):
    """a / (q*t - p) for an integer coefficient list a (lowest first), or
    None unless p/q is a root of a.  With gcd(p, q) = 1 the quotient has
    integer coefficients (Gauss's lemma), so one inexact step shows that
    p/q is not a root."""
    out = []
    carry = 0
    for c in reversed(a[1:]):
        carry, rem = divmod(c + p * carry, q)
        if rem:
            return None
        out.append(carry)
    if a[0] + p * carry:
        return None
    return out[::-1]


def _reduce(num: Poly, poles):
    """(num', poles') with num' / prod(t - r for r in poles') equal to
    num / prod(t - r for r in poles) and num' nonzero at every pole left:
    num is divided exactly by t - r at each pole r where it vanishes, as
    an integer list times a rational scale."""
    if num.is_zero:
        return ZERO, ()
    den = lcm(*(c.denominator for c in num.coeffs))
    a = [int(c * den) for c in num.coeffs]
    scale = Fraction(1, den)
    left = Counter(poles)
    for r in list(left):
        p, q = r.numerator, r.denominator
        while left[r]:
            b = _deflate(a, p, q)
            if b is None:
                break
            # num / (t - r) = scale * q * a / (q*t - p)
            a, scale = b, scale * q
            left[r] -= 1
    if len(a) < len(num.coeffs):
        num = Poly([scale * c for c in a])
    return num, tuple(sorted(left.elements()))


class RationalFunction:
    """num / prod(t - r for r in poles), reduced.

    RationalFunction(num, poles) takes a Poly (or a scalar) and any
    iterable of rational poles, repeated for multiplicity; den is the monic
    denominator as a Poly.  == compares with RationalFunctions only.
    """

    __slots__ = ("num", "poles")

    def __init__(self, num, poles=()):
        if not isinstance(num, Poly):
            num = Poly((num,))
        poles = [r if isinstance(r, Fraction) else Fraction(r) for r in poles]
        self.num, self.poles = _reduce(num, poles)

    @property
    def den(self) -> Poly:
        return _over(self.poles)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.poles == other.poles

    def __hash__(self):
        return hash((self.num, self.poles))

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.poles)

    def __str__(self):
        if not self.poles:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)
