"""Truncated q-expansions on a fractional exponent grid, and Euler products.

A PuiseuxSeries stores finitely many exact rational coefficients at
exponents in (1/grid) * Z together with a truncation bound: coefficients at
exponents strictly above the bound are unknown, not zero.  All arithmetic
propagates the tightest truncation the inputs justify, so a wrong tail can
never appear silently.  Mixed grids refine automatically to the lcm.  A
product puts each operand over the lcm of its coefficients' denominators
and convolves the integer numerators, so it builds one Fraction per product
coefficient and none per term.

The module also provides the standard product consumed downstream: the
generating function of Hilbert-scheme Euler numbers for a surface with
Euler number e, the e-th power of the inverse Euler product.  For e = -24
it is the twenty-fourth power of the Dedekind eta function divided by q.
Every Euler-power list is certified once, when it is filled, by Euler's
pentagonal theorem (_certify_euler_pow), which shares no code with the
products that fill it.
"""

from fractions import Fraction
from math import lcm

from .errors import ConsistencyError

__all__ = [
    "PuiseuxSeries", "goettsche_series", "hilb_euler",
]


class PuiseuxSeries:
    """Finitely supported q-expansion with tracked truncation.

    coeffs maps exponent numerators (exponent = numerator/grid) to nonzero
    Fraction values; trunc is the largest numerator whose coefficient is
    claimed to be known.  Keys above trunc are meaningless and are never
    stored; absent keys at or below trunc mean coefficient zero.
    """

    __slots__ = ("grid", "coeffs", "trunc")

    def __init__(self, grid: int, coeffs, trunc: int):
        # bool is an int subclass, but True is no exponent or grid
        if not isinstance(grid, int) or isinstance(grid, bool) or grid < 1:
            raise ValueError("grid must be a positive integer")
        if not isinstance(trunc, int) or isinstance(trunc, bool):
            raise ValueError("truncation must be an integer numerator")
        clean = {}
        for k, v in dict(coeffs).items():
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError("exponent numerators must be integers")
            if not isinstance(v, Fraction):
                if isinstance(v, float):
                    raise ValueError("coefficient %r at %s/%s is floating point, "
                                     "not an exact rational" % (v, k, grid))
                v = Fraction(v)
            if v:
                if k > trunc:
                    raise ValueError(
                        "coefficient at %s/%s lies above the truncation %s/%s"
                        % (k, grid, trunc, grid))
                clean[k] = v
        self.grid = grid
        self.coeffs = clean
        self.trunc = trunc

    # -- bookkeeping ----------------------------------------------------

    @property
    def bound(self) -> Fraction:
        """Largest exponent whose coefficient is known."""
        return Fraction(self.trunc, self.grid)

    def with_grid(self, grid: int):
        """Refine to a finer grid; the new grid must be a multiple."""
        if grid == self.grid:
            return self
        if grid % self.grid:
            raise ValueError("grid %d does not refine %d" % (grid, self.grid))
        f = grid // self.grid
        return PuiseuxSeries(
            grid, {k * f: v for k, v in self.coeffs.items()}, self.trunc * f)

    def coefficient(self, exponent) -> Fraction:
        """Coefficient at an exact exponent; ValueError above the truncation."""
        e = Fraction(exponent)
        if e > self.bound:
            raise ValueError(
                "coefficient at q^%s is beyond the truncation q^%s" % (e, self.bound))
        n = e * self.grid
        if n.denominator != 1:
            return Fraction(0)
        return self.coeffs.get(int(n), Fraction(0))

    def truncate(self, exponent):
        """Forget all coefficients above the given exponent."""
        e = Fraction(exponent)
        n = (e * self.grid).__floor__()
        n = min(n, self.trunc)
        return PuiseuxSeries(
            self.grid, {k: v for k, v in self.coeffs.items() if k <= n}, n)

    # -- ring operations ------------------------------------------------

    def _pair(self, other):
        grid = lcm(self.grid, other.grid)
        return self.with_grid(grid), other.with_grid(grid)

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        # bound and terms do not change when the grid is refined
        return self.bound == other.bound and self.terms() == other.terms()

    def __hash__(self):
        return hash((self.bound, tuple(self.terms())))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PuiseuxSeries(self.grid, {0: Fraction(other)}, self.trunc)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._pair(other)
        trunc = min(a.trunc, b.trunc)
        out = {k: v for k, v in a.coeffs.items() if k <= trunc}
        for k, v in b.coeffs.items():
            if k <= trunc:
                out[k] = out.get(k, 0) + v
        return PuiseuxSeries(a.grid, out, trunc)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PuiseuxSeries(
                self.grid, {k: v * other for k, v in self.coeffs.items()}, self.trunc)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        a, b = self._pair(other)
        # the product coefficient at k is complete only while every split
        # k = i + j keeps i and j inside the known ranges
        la = min(a.coeffs) if a.coeffs else a.trunc
        lb = min(b.coeffs) if b.coeffs else b.trunc
        trunc = min(a.trunc + lb, b.trunc + la)
        if not a.coeffs or not b.coeffs:
            return PuiseuxSeries(a.grid, {}, trunc)
        # each operand as integer numerators over the lcm of its
        # denominators: the convolution below multiplies and adds integers
        # only, and each product coefficient is one Fraction over da * db.
        # It is written out here, apart from the integer lists of the Euler
        # products, so that G_e * G_-e = 1 checks those lists.
        da, na = _numerators(a.coeffs)
        db, nb = _numerators(b.coeffs)
        out = {}
        for i, x in na:
            for j, y in nb:
                k = i + j
                if k > trunc:
                    break   # nb is in ascending order of exponent
                out[k] = out.get(k, 0) + x * y
        den = da * db
        return PuiseuxSeries(
            a.grid, {k: Fraction(v, den) for k, v in out.items() if v}, trunc)

    def shift(self, exponent):
        """Multiply by q^exponent, refining the grid as needed."""
        e = Fraction(exponent)
        grid = lcm(self.grid, e.denominator)
        s = self.with_grid(grid)
        step = int(e * grid)
        return PuiseuxSeries(
            grid, {k + step: v for k, v in s.coeffs.items()}, s.trunc + step)

    # -- presentation ---------------------------------------------------

    def terms(self):
        """Sorted list of (exponent, coefficient) Fraction pairs."""
        return [(Fraction(k, self.grid), v) for k, v in sorted(self.coeffs.items())]

    def __repr__(self):
        return "PuiseuxSeries(grid=%d, %r, trunc=%d)" % (
            self.grid, self.coeffs, self.trunc)


def _numerators(coeffs):
    # (D, [(exponent, v * D) in ascending order of exponent]) with D the lcm
    # of the denominators of the values v, so that every v * D is an int
    den = lcm(*(v.denominator for v in coeffs.values()))
    return den, [(k, v.numerator * (den // v.denominator))
                 for k, v in sorted(coeffs.items())]


# -- Euler products -----------------------------------------------------

def _euler_coeffs(terms: int):
    # prod_{n>=1} (1-q^n), truncated; integer list, index = exponent
    co = [0] * (terms + 1)
    co[0] = 1
    for n in range(1, terms + 1):
        for i in range(terms - n, -1, -1):
            if co[i]:
                co[i + n] -= co[i]
    return co


def _list_mul(a, b, terms: int):
    out = [0] * (terms + 1)
    for i, x in enumerate(a):
        if x:
            top = terms - i
            for j, y in enumerate(b[: top + 1]):
                if y:
                    out[i + j] += x * y
    return out


def _list_inv(a, terms: int):
    # inverse of a power series with a[0] == +-1 (stays integral)
    c0 = a[0]
    out = [0] * (terms + 1)
    out[0] = c0
    for k in range(1, terms + 1):
        acc = 0
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                acc += a[j] * out[k - j]
        out[k] = -acc * c0
    return out


def _certify_euler_pow(k: int, f):
    """ConsistencyError naming k and the first bad index unless the list f
    is prod (1-q^n)^k through its length.  With P = prod (1-q^n), by
    Euler's pentagonal theorem the sum of (-1)^j q^(j(3j-1)/2) over all
    integers j, f = P^k exactly when f_0 = 1 and P f' = k P' f.  Its
    coefficient at q^(m-1) is the sum of P_e (m - (k+1)e) f_(m-e) over
    e <= m, whose e = 0 term is m f_m, so a wrong f_m fails at index m; P
    has O(sqrt(m)) terms there."""
    P = []   # (e, P_e) at the generalized pentagonal numbers, ascending
    j = 0
    while j * (3 * j - 1) // 2 < len(f):
        for e in sorted({j * (3 * j - 1) // 2, j * (3 * j + 1) // 2}):
            P.append((e, -1 if j % 2 else 1))
        j += 1
    for m in range(len(f)):
        total = 0 if m else f[0] - 1   # the sum below is 0 at m = 0
        for e, sign in P:
            if e > m:
                break
            total += sign * (m - (k + 1) * e) * f[m - e]
        if total:
            raise ConsistencyError(
                "[q^%d] prod (1-q^n)^%d fails the pentagonal theorem's "
                "certificate" % (m, k))


_EULER_POW_KEYS = 64   # exponents kept, the least recently used dropped
_euler_pow_cache: dict = {}   # k -> coefficients, least recently used first


def _euler_pow(k: int, terms: int):
    """Coefficient list of prod_{n>=1} (1-q^n)^k to order q^terms."""
    return _euler_pow_cached(k, terms)[: terms + 1]


def _euler_pow_at(k: int, m: int) -> int:
    """[q^m] prod_{n>=1} (1-q^n)^k, read without copying the cached list."""
    return _euler_pow_cached(k, m)[m]


def _euler_pow_cached(k: int, terms: int):
    # the cached coefficient list of prod (1-q^n)^k, at least to order
    # q^terms, marked most recently used; a short list is refilled to at
    # least twice its length, and each fill is certified before it is cached
    cached = _euler_pow_cache.pop(k, None)
    if cached is not None and len(cached) > terms:
        _euler_pow_cache[k] = cached
        return cached
    want = max(terms, 2 * len(cached)) if cached else terms
    out = [0] * (want + 1)
    out[0] = 1
    if k:
        base = _euler_coeffs(want)
        acc = out
        for _ in range(abs(k)):
            acc = _list_mul(acc, base, want)
        out = _list_inv(acc, want) if k < 0 else acc
    _certify_euler_pow(k, out)
    _euler_pow_cache[k] = out
    if len(_euler_pow_cache) > _EULER_POW_KEYS:
        del _euler_pow_cache[next(iter(_euler_pow_cache))]
    return out


def goettsche_series(e: int, terms: int) -> PuiseuxSeries:
    """Generating function of Hilbert-scheme Euler numbers, to order q^terms.

    The coefficient of q^m is the Euler number of the Hilbert scheme of m
    points on a surface with topological Euler number e, i.e. the expansion
    of prod_{n>=1} (1-q^n)^(-e).  e = 24 is the K3 case, e = 12 the
    Enriques case, e = 0 the trivial one.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    co = _euler_pow(-e, terms)
    return PuiseuxSeries(1, {m: Fraction(c) for m, c in enumerate(co) if c}, terms)


def hilb_euler(m: int, e: int = 24) -> Fraction:
    """Euler number of the Hilbert scheme of m points; 0 for m < 0.

    The negative-index convention is what makes the sheaf-count sums over
    all integers h finite: indices below zero correspond to empty moduli.
    """
    if m < 0:
        return Fraction(0)
    return Fraction(_euler_pow_at(-e, m))
