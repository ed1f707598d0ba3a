"""Exact univariate polynomial and rational-function arithmetic.

Coefficients are fractions.Fraction throughout; nothing in this package
touches floating point.  Rational functions are kept in a canonical form
(numerator and denominator coprime, denominator monic, zero stored as 0/1)
so that equality of values is equality of fields.

The single variable is conventionally called t: it is the ratio s1/s2 of
the two torus weights.  Every weight factor appearing downstream is
homogeneous of degree 0 in (s1, s2), so specializing s1 = t, s2 = 1 loses
nothing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .errors import PoleError


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

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly((other,))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other):
        """Exact polynomial division with remainder."""
        if not isinstance(other, Poly):
            raise TypeError("can only divide by a Poly")
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        quo = [Fraction(0)] * (dq + 1)
        inv = 1 / other.leading
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] * inv
            quo[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Poly(quo), Poly(rem)

    def monic(self):
        if self.is_zero:
            return self
        return self * (1 / self.leading)

    def __call__(self, x):
        """Horner evaluation at an exact rational point."""
        x = x if isinstance(x, Fraction) else Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def format(self, var: str = "t") -> str:
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
                mon = head + (var if i == 1 else "%s^%d" % (var, i))
            if not parts:
                parts.append(("-" if c < 0 else "") + mon)
            else:
                parts.append(("- " if c < 0 else "+ ") + mon)
        return " ".join(parts)

    def __repr__(self):
        return "Poly(%r)" % (self.coeffs,)

    def __str__(self):
        return self.format()


ZERO = Poly()
ONE = Poly((1,))
X = Poly((0, 1))


def _int_primitive(p: Poly):
    # clear denominators and divide out the integer content; sign of the
    # leading coefficient is kept, which is all the gcd routine needs
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // _int_gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    g = 0
    for v in ints:
        g = _int_gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _pseudo_rem(a, b):
    # pseudo-remainder of integer coefficient lists, low degree first
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db:
        if a[-1] == 0:
            a.pop()
            continue
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for j in range(db + 1):
            a[shift + j] -= la * b[j]
        while a and a[-1] == 0:
            a.pop()
    return a


def _primitive(a):
    g = 0
    for v in a:
        g = _int_gcd(g, v)
    return [v // g for v in a] if g > 1 else list(a)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via a primitive pseudo-remainder sequence over the integers.

    Working with primitive integer polynomials sidesteps the coefficient
    blowup of the naive Euclidean algorithm over the rationals.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    A = _int_primitive(a)
    B = _int_primitive(b)
    if len(A) < len(B):
        A, B = B, A
    while B:
        A, B = B, _primitive(_pseudo_rem(A, B))
    return Poly(A).monic()


class RationalFunction:
    """Quotient num/den of two Polys in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if not isinstance(num, Poly):
            num = Poly((num,))
        if not isinstance(den, Poly):
            den = Poly((den,))
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, rn = divmod(num, g)
            den, rd = divmod(den, g)
            if rn or rd:
                raise AssertionError("gcd failed to divide its arguments")
        scale = 1 / den.leading
        self.num = num * scale
        self.den = den * scale

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction(Poly((other,)))
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        out = object.__new__(RationalFunction)
        out.num, out.den = -self.num, self.den
        return out

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return RationalFunction(other)
        return NotImplemented

    def eval(self, t0) -> Fraction:
        """Exact evaluation; raises PoleError at a zero of the denominator."""
        t0 = t0 if isinstance(t0, Fraction) else Fraction(t0)
        d = self.den(t0)
        if not d:
            raise PoleError("pole at t = %s" % t0)
        return self.num(t0) / d

    def as_constant(self) -> Fraction:
        """The constant value of f, if f is constant; ValueError otherwise."""
        if self.den == ONE and self.num.degree <= 0:
            return self.num.coeffs[0] if self.num.coeffs else Fraction(0)
        raise ValueError("not a constant: %s" % self)

    def format(self, var: str = "t") -> str:
        if self.den == ONE:
            return self.num.format(var)
        return "(%s)/(%s)" % (self.num.format(var), self.den.format(var))

    def __repr__(self):
        return "RationalFunction(%r, %r)" % (self.num, self.den)

    def __str__(self):
        return self.format()

