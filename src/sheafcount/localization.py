"""Torus fixed points on Hilbert schemes of plane points and their weights.

The two-dimensional torus acting on the projective plane has three fixed
points; a torus-fixed length-n subscheme splits into monomial ideals at
those points, so the fixed locus of Hilb^n of the plane is indexed by
triples of partitions with total size n.  Each fixed point carries two
characters: the tangent space of the Hilbert scheme and the fiber of the
obstruction bundle whose top Chern class is being integrated.  Both are
recorded as multisets of integer exponent pairs (i, j), one summand
t1^i t2^j per pair.

Weight recipe for a box b with arm a and leg l (see partitions for the
diagram convention):

  tangent, box in p1:  (l+1, -a)    and (-l, a+1)
  tangent, box in p2:  (a-l-1, -a)  and (l-a-1, a+1)
  tangent, box in p3:  (-a, a-l-1)  and (a+1, l-a-1)

The obstruction character is identical except that every p2 pair is shifted
by t1^-1 and every p3 pair by t2^-1.  The p1 blocks of the two characters
coincide and cancel: fixed_point_contribution never materializes them,
while contribution_from_characters, the slower character-quotient route
and an independent check, cancels them as multisets.  The two routes share
only _split, which writes a list of forms as an integer times primitive
forms i*t + j with i > 0, and _cancel, the one cancel step, which cancels
the forms common to num and den.  The Contribution left,
scale * prod(num) / prod(den), is coprime and canonical by Gauss's lemma,
linear forms over Q being irreducible: equal Contributions are equal
functions, with no gcd taken.

The localization sum over all triples of total size n evaluates the
integral of the top Chern class of the rank-2n obstruction bundle.  A
triple contributes F(p2) * G(p3), one closed product per contributing leg,
and p1 drops out, so the sum factors by partition size:

  sum over |p1|+|p2|+|p3| = n of F(p2) G(p3)
    = sum over a+b+c = n of p(a) * A_b * B_c,

with p(a) the number of partitions of a, A_k the sum of F over the
partitions of k and B_k the sum of G over them: one product per partition
of size at most n plus O(n^2) combinations, not one per triple.  The third
fixed point is the second with the torus weights swapped, and a
contribution has as many numerator as denominator forms, so at s2 = 1 the
swap is t -> 1/t: G(lam)(t) = F(lam)(1/t) and B_k(t) = A_k(1/t).  The
result is a constant (the equivariant parameters drop out), which one
packed sum over route C's legs verifies literally in either mode.

Route C gives each leg in closed form by Carlsson and Okounkov's formula
(arXiv:0801.2565): A_k = [x^k] prod (1-x^m)^E(t) = R_k / (1-t)^k, with
E(t) = 2(2t-1)/(1-t) and deg R_k = k.  One recurrence, _c_at, gives
r_k = k! d^k [x^k] prod (1-x^m)^(-e/d) in integers, homogeneous of degree
k in (d, e): S_k = k! R_k is r_k at d = 1 - t, e = 2 - 4t, never expanded
but valued at each caller's own point (_c_legs), S_k(P) at an integer
t = P; and p(k) is r_k / k! at d = e = 1.  E(t) + E(1/t) = -6, so the sum
of A_b B_c over b + c = m is [q^m] prod (1-q^k)^-6 whatever t is, and the
sum is constant whatever the counts are: N = c * D sees neither a wrong count
nor a wrong weight in the sum's assembly, so the value is held to
[q^n] prod (1-q^m)^-7 (qseries' _euler_pow_at, sharing no code with
_convolve, _constant or _c_at).  A leg that misses a partition is caught
by its own certificate against route C.

The symbolic mode certifies route A in big integers: it divides no
polynomial, adds no Fraction and expands no polynomial term by term.  A_k
sums the Contributions F(lam) over the partitions of k, the very ones p3
--verbose prints, each _cancel of _leg_split (the hooks' forms, split once
per hook, side and process by _hook_split): A_k = N_k / (c_k prod L_k),
L_k the multiset union of their den forms, c_k the lcm of their scales'
denominators and N_k an integer polynomial.  _a_leg certifies each leg,
k! N_k (1-t)^k = S_k c_k prod L_k, as one integer identity (below).  In
either mode the sum is taken over route C's one form per leg:
A_b = S_b / (b! (1-t)^b) and B_c = (-1)^c rev(S_c) / (c! (1-t)^c), r_c
with each form (j, i) of d and e read as (-i, -j); 1 - t is written
-(t - 1), keeping _split's i > 0.

Sampled mode certifies route A at integer points instead, from the same
terms, with none of the packing above: the Contributions F(lam) that _a_leg
sums, each _cancel of _leg_split, taken once per process and k with each
scale read as two integers (_point_terms).  At t0 = P each term's num and
den are valued as integers, and leg k is summed over W_k, the lcm of its
terms' dens there: a term adds its num times W_k // its den, exact by
construction, and W_k = 0 marks P as a pole, drawn again.  Route C
certifies every leg at every point, in order: N_k k! (1-P)^k = r_k W_k.
Sampled mode does nothing else; its value is the one packed sum's.

Polynomials are summed by Kronecker substitution: every form is valued at
one integer T = 2^B, so each product and sum is one big-integer operation,
unpacked into its signed base-T digits.  B comes from a proven bound: the
same code, run with each form replaced by |i| + |j|, bounds the l1 norm
(||fg|| <= ||f|| ||g||), and a T whose half exceeds it makes the digits the
coefficients.  A leg is summed by a balanced merge over its partitions
(_leg_poly), each node putting its halves over the union of their dens,
so no polynomial is divided and each level costs about one full-size
product.  Its certificate is not expanded: both sides are valued at a T
whose half exceeds the sum of their l1 bounds, so the integer polynomial
that is their difference, whose coefficients lie strictly between -T/2
and T/2, is zero exactly when its value at T is.  The convolution runs
over D = n!^2 (1 - t)^n, each p(a)'s (1 - t)^a in the numerator N; the sum
is constant exactly when N = c * D coefficient by coefficient, which is
checked literally before c is returned, a sum that fails reported as the
quotient N / D, unreduced.
"""

import functools
import random
from collections import Counter, namedtuple
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from .errors import ConsistencyError
from .partitions import (arm, boxes, check_partition, enumerate_partitions,
                         hooks, leg)
from .qseries import _euler_pow_at

# sampled mode's default seed: any fixed value makes runs reproducible
DEFAULT_SEED = 1729

_BOUND = 10**6

MIN_SAMPLES = 3   # sampled mode's fewest points, and the default


def _weights(triple, shift):
    p1, p2, p3 = triple
    out = []
    for b in boxes(p1):
        a, l = arm(p1, b), leg(p1, b)
        out.append((l + 1, -a))
        out.append((-l, a + 1))
    for b in boxes(p2):
        a, l = arm(p2, b), leg(p2, b)
        out.append((a - l - 1 - shift, -a))
        out.append((l - a - 1 - shift, a + 1))
    for b in boxes(p3):
        a, l = arm(p3, b), leg(p3, b)
        out.append((-a, a - l - 1 - shift))
        out.append((a + 1, l - a - 1 - shift))
    return tuple(sorted(out))


def _checked(triple):
    """triple with every part checked by check_partition (ValueError if one
    is not a partition)."""
    return tuple(map(check_partition, triple))


def tangent_character(triple):
    """Tangent-space character at the fixed point, as sorted (i, j) pairs."""
    return _weights(_checked(triple), 0)


def obstruction_character(triple):
    """Obstruction-fiber character: p2 pairs shifted by t1^-1, p3 by t2^-1."""
    return _weights(_checked(triple), 1)


def _box_forms(a, l):
    """The num and den forms (j, i), meaning i*t + j, that a box with arm
    a and leg l adds to F(p), p at the second fixed point, s1 = t, s2 = 1:

      prod over p of ((a-l-2)t - a)((l-a-2)t + a+1)
                   / ((a-l-1)t - a)((l-a-1)t + a+1)

    and, read as (i, j), to G(p), p at the third, s1 and s2 swapped.  No den
    form vanishes: a-l-1 = 0 with a = 0 would need l = -1, and the other has
    constant term a+1 >= 1.  The one per-hook recipe, read only through
    _hook_split, which splits it for every caller."""
    return (((-a, a - l - 2), (a + 1, l - a - 2)),
            ((-a, a - l - 1), (a + 1, l - a - 1)))


def _times_forms(coeffs, forms):
    """Integer coefficient list (coeffs[k] is the coefficient of t^k) of the
    polynomial coeffs times the product of the forms (j, i), i*t + j."""
    for j, i in forms:
        coeffs = [j * c + i * d for c, d in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _poly_str(coeffs, q):
    """The nonzero polynomial coeffs / q in t, coeffs integers (lowest
    first) and q > 0, highest power first, each coefficient reduced:
    4*t - 2, 1/4*t^4 + 1/2*t^3."""
    parts = []
    for e, c in reversed(list(enumerate(coeffs))):
        if not c:
            continue
        g = gcd(c, q)
        a, b = abs(c) // g, q // g
        coeff = str(a) if b == 1 else "%d/%d" % (a, b)
        if e == 0:
            mon = coeff
        else:
            head = "" if a == b == 1 else coeff + "*"
            mon = head + ("t" if e == 1 else "t^%d" % e)
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + mon)
    return " ".join(parts)


def _quotient_str(coeffs, scale, den):
    """The integer polynomial coeffs over scale * prod(den), scale a nonzero
    integer and den a sequence of forms (j, i) with i > 0, as its numerator
    over its monic denominator, or its numerator alone when den is empty."""
    lead = prod(i for _, i in den)
    if scale < 0:
        coeffs, scale = [-c for c in coeffs], -scale
    top = _poly_str(coeffs, scale * lead)
    if not den:
        return top
    return "(%s)/(%s)" % (top, _poly_str(_times_forms([1], den), lead))


class Contribution(namedtuple("Contribution", "scale num den")):
    """A fixed point's contribution scale * prod(num) / prod(den): scale a
    Fraction, num and den sorted tuples of primitive forms (j, i), meaning
    i*t + j with i > 0, and no form in both.  This form is canonical, so
    == and hash, the tuple's, are equality of functions; str prints the
    expanded numerator over the monic denominator."""

    __slots__ = ()

    def __str__(self):
        cn, cd = self.scale.as_integer_ratio()
        return _quotient_str(_times_forms([cn], self.num), cd, self.den)


def _differences(x, y):
    """(x - y, y - x) as multisets, sorted tuples, for sorted sequences of
    forms x and y: one merge of the two, each form of y taking one equal
    copy out of x if one is left there."""
    xs, ys = [], []
    i = j = 0
    while i < len(x) and j < len(y):
        if x[i] == y[j]:
            i += 1
            j += 1
        elif x[i] < y[j]:
            xs.append(x[i])
            i += 1
        else:
            ys.append(y[j])
            j += 1
    return (*xs, *x[i:]), (*ys, *y[j:])


def _cancel(cn, num, cd, den) -> Contribution:
    """cn * prod(num) / (cd * prod(den)) as a Contribution, cn and cd
    integers and num and den lists of forms split by _split: both sorted and
    the forms common to them cancelled as multisets by one _differences, the
    one cancel step of the package."""
    return Contribution(Fraction(cn, cd), *_differences(sorted(num),
                                                        sorted(den)))


def _contribution(forms) -> Contribution:
    """prod(num forms) / prod(den forms) as a Contribution, forms
    = (num, den): both lists split by _split, then _cancel."""
    return _cancel(*_split(forms[0]), *_split(forms[1]))


def fixed_point_contribution(triple) -> Contribution:
    """Contribution of one fixed point to the localization sum, F(p2) G(p3):
    _cancel of p2's F and p3's G _leg_split forms, joined; p1 drops out."""
    _, p2, p3 = _checked(triple)
    cn2, num2, cd2, den2 = _leg_split(p2, 0)
    cn3, num3, cd3, den3 = _leg_split(p3, 1)
    return _cancel(cn2 * cn3, num2 + num3, cd2 * cd3, den2 + den3)


def _split(forms):
    """(c, forms') with prod(forms) = c * prod(forms'): c an integer and
    forms' a list of primitive nonconstant forms whose leading coefficient
    is positive, so that equal factors compare equal."""
    c = 1
    out = []
    for j, i in forms:
        g = gcd(i, j) if i > 0 or (i == 0 and j > 0) else -gcd(i, j)
        c *= g
        if i:
            out.append((j // g, i // g))
    return c, out


def _norm(coeffs):
    # l1 norm of an integer polynomial: the bound side of the evaluators
    return sum(map(abs, coeffs))


def _at(bits):
    """Evaluator of integer coefficient lists at T = 2**bits."""
    def value(coeffs):
        x = 0
        for c in reversed(coeffs):
            x = (x << bits) + c
        return x
    return value


def _width(bound, forms):
    """Bits B of the packing point T = 2**B for a polynomial of l1 norm at
    most bound whose common denominator is the product of forms: every
    coefficient lies in [-T/2, T/2), so the signed base-T digits of its
    value at T are its coefficients, and no form i*t + j (i > 0) vanishes
    at T.  B >= 2, so the digit loop of _unpack always ends at 0."""
    return max(bound, 1, *(abs(j) for j, _ in forms)).bit_length() + 1


def _unpack(x, bits):
    """Signed base-2**bits digits of the integer x, lowest first, trailing
    zeros dropped: the coefficients of the integer polynomial P with
    P(2**bits) = x and every coefficient in [-2**(bits-1), 2**(bits-1))."""
    half = 1 << (bits - 1)
    digits = []
    # |x| < T**m leaves |x| <= 1 after m steps and 0 after one more
    for _ in range(abs(x).bit_length() // bits + 2):
        d = ((x + half) & ((1 << bits) - 1)) - half
        digits.append(d)
        x = (x - d) >> bits
    while digits and not digits[-1]:
        digits.pop()
    return digits


def _packed(numerator, scale, L):
    """(N, scale, L) for a sum N / (scale * prod(L)), with N an integer
    polynomial and numerator(ev) returning N under ev.  N is evaluated
    under _norm for an l1 bound, which gives the width, then at
    T = 2**width, and returned as its unpacked coefficient list."""
    bits = _width(numerator(_norm), L)
    return _unpack(numerator(_at(bits)), bits), scale, L


def _tree(dens, lo, hi):
    """(L, node), _leg_poly's point-free merge tree over the sorted den
    tuples dens[lo:hi], lo < hi: L their multiset union, a sorted tuple, and
    node the index lo for one den, else (left, L - L1, right, L - L2), the
    halves' nodes each with the forms its own union L1 or L2 is short of."""
    if hi - lo == 1:
        return dens[lo], lo
    mid = (lo + hi) // 2
    L1, left = _tree(dens, lo, mid)
    L2, right = _tree(dens, mid, hi)
    short2, short1 = _differences(L1, L2)  # L - L2 = L1 - L2, L - L1 = L2 - L1
    return tuple(sorted(L1 + short1)), (left, short1, right, short2)


def _leg_poly(contributions):
    """A sum of Contributions as (N, c, L), the sum = N / (c prod(L)): L the
    multiset union of their dens and c the lcm of their scales'
    denominators, and N an integer coefficient list, for at least one
    Contribution.  N is summed by a balanced merge over _tree, built once,
    so both passes of _packed walk it: a leaf's numerator is its scale times
    c, times prod(num), and a node's is N1 prod(L - L1) + N2 prod(L - L2),
    N1 / prod(L1) and N2 / prod(L2) its halves' sums.  Under _at(bits) each
    distinct form is valued once at T = 2**bits and no polynomial is
    divided; under _norm the same code bounds the l1 norm."""
    terms = list(contributions)
    c = lcm(*(x.scale.denominator for x in terms))
    L, tree = _tree([x.den for x in terms], 0, len(terms))
    distinct = set(L).union(*(x.num for x in terms))

    def numerator(ev):
        value = {f: ev(f) for f in distinct}

        def at(forms):
            return prod(map(value.__getitem__, forms))

        def walk(node):
            if isinstance(node, int):
                s = terms[node].scale
                return (ev((s.numerator * (c // s.denominator),))
                        * at(terms[node].num))
            left, short1, right, short2 = node
            return walk(left) * at(short1) + walk(right) * at(short2)
        return walk(tree)
    return _packed(numerator, c, Counter(L))


@functools.cache
def _hook_split(a, l, side):
    """((cn, num), (cd, den)): _split of the hook (a, l)'s num and den forms,
    F's (side 0) or, each read as (i, j), G's (side 1); once per process,
    hook and side, shared, so never mutated.  Only fixed_point_contribution
    asks for side 1, so neither sum splits G."""
    return tuple(_split([f[::-1] for f in forms] if side else forms)
                 for forms in _box_forms(a, l))


def _leg_split(p, side):
    """(cn, num, cd, den) with F(p) (side 0) or G(p) (side 1) equal to
    cn * prod(num) / (cd * prod(den)): p's hooks' _hook_split forms
    multiplied out, the one builder of a fixed point's forms."""
    cn, num, cd, den = 1, [], 1, []
    for a, l in hooks(p):
        (hn, hnum), (hd, hden) = _hook_split(a, l, side)
        cn *= hn
        cd *= hd
        num += hnum
        den += hden
    return cn, num, cd, den


@functools.cache
def _c_weights(n):
    """_c_at's weights for k <= n, row k - 1 holding sigma(j) (k-1)!/(k-j)!
    for j <= k, sigma the divisor sum: _c_weights(n - 1) and row n."""
    if not n:
        return ()
    return _c_weights(n - 1) + (tuple(
        sum(d for d in range(1, j + 1) if not j % d)
        * (factorial(n - 1) // factorial(n - j)) for j in range(1, n + 1)),)


def _c_at(n, d, e):
    """[r_0, ..., r_n], r_k = k! d^k [x^k] prod (1-x^m)^(-e/d), in integers
    by the one Euler-power recurrence, k f_k = (e/d) sum over j <= k of
    sigma(j) f_{k-j} for f_k = r_k / (k! d^k).  At d = e = 1, r_k = k! p(k),
    p(k) the partition counts hilb_chern_integral convolves."""
    powers, r = [1], [1]   # d^(j-1) and r_k
    for ws in _c_weights(n):
        r.append(e * sum(w * x * y for w, x, y in zip(ws, powers, r[::-1])))
        powers.append(powers[-1] * d)
    return r


def _c_legs(n, ev):
    """[S_0, ..., S_n] under ev, S_k = k! R_k: _c_at at d = 1 - t, e = 2 -
    4t, the one place these forms are written.  Under _norm, r_k at the l1
    norms of d and e bounds ||S_k||, the weights being positive."""
    return _c_at(n, ev((1, -1)), ev((2, -4)))


@functools.cache
def _a_leg(k):
    """A_k = (N_k, c_k, L_k), _leg_poly over the Contributions F(lam) of
    the partitions lam of k, each _cancel of _leg_split(lam, 0), its F side:
    summed once per process and k, shared, so never mutated, and certified
    by route C before it is cached, ConsistencyError naming k unless
    k! N_k (1-t)^k = S_k c_k prod(L_k): both sides valued at T = 2**bits,
    T/2 above the sum of their l1 bounds k! ||N_k|| 2^k and
    c_k ||S_k|| prod(|i| + |j|), and compared as integers, not expanded."""
    N, c, L = leg = _leg_poly(_cancel(*_leg_split(lam, 0))
                              for lam in enumerate_partitions(k))
    f = factorial(k)

    def sides(ev):   # f N (1-t)^k and c S_k prod(L) under ev
        return (f * ev(N) * ev((1, -1)) ** k,
                c * _c_legs(k, ev)[k] * prod(ev(g) ** m for g, m in L.items()))
    # under _norm their sum bounds the l1 norm of the integer polynomial
    # f N (1-t)^k - c S_k prod(L), so at T = 2**bits, T/2 above that bound,
    # it is the zero polynomial exactly when its value at T is 0
    bits = sum(sides(_norm)).bit_length() + 1
    left, right = sides(_at(bits))
    if left != right:   # S_k over f (t-1)^k, expanded for the message alone
        S = _unpack((-1) ** k * _c_legs(k, _at(bits))[k], bits)
        raise ConsistencyError(
            "leg A_%d disagrees with route C: %s, not %s"
            % (k, _quotient_str(N, c, list(L.elements())),
               _quotient_str(S, f, [(-1, 1)] * k)))
    return leg


@functools.cache
def _point_terms(k):
    """Leg k's terms for sampled mode, (sn, sd, num, den) per partition lam
    of k: F(lam) = _cancel(*_leg_split(lam, 0)) = sn prod(num) / (sd
    prod(den)), the Contributions _a_leg sums, each scale read once as two
    integers; once per process and k, shared, so never mutated."""
    terms = []
    for lam in enumerate_partitions(k):
        x = _cancel(*_leg_split(lam, 0))
        terms.append((*x.scale.as_integer_ratio(), x.num, x.den))
    return tuple(terms)


def _legs_at(n, P):
    """Certify each leg k <= n at the integer point t0 = P against route C's
    A_k(P) = r_k / (k! (1-P)^k), r = _c_legs at P, in order, leg k read from
    its _point_terms once leg k - 1 holds: the sum of its terms is N_k /
    W_k, W_k the lcm of their dens at P, each term its num times the exact
    W_k // its den.  False if some W_k is 0 (P is a pole), else True;
    ConsistencyError names the first k with N_k k! (1-P)^k != r_k W_k."""
    r = _c_legs(n, lambda f: f[1] * P + f[0])
    scale = 1   # k! (1-P)^k
    for k in range(n + 1):
        xs, ys = [], []   # each term's num and den at P
        for x, y, num, den in _point_terms(k):
            for j, i in num:
                x *= i * P + j
            for j, i in den:
                y *= i * P + j
            xs.append(x)
            ys.append(y)
        W = lcm(*ys)
        if not W:
            return False
        total = 0
        for x, y in zip(xs, ys):
            total += x * (W // y)
        if total * scale != r[k] * W:
            raise ConsistencyError("leg A_%d disagrees with route C at t = %d"
                                   % (k, P))
        scale *= (k + 1) * (1 - P)
    return True


def _convolve(counts, A, B, x):
    """Sum of counts[a] x^a (n!/b!) A[b] (n!/c!) B[c] over a + b + c = n =
    len(counts) - 1: the one sum formula of both modes."""
    n = len(counts) - 1
    f = factorial(n)
    col = [m * x ** a for a, m in enumerate(counts)]
    wB = [f // factorial(c) * y for c, y in enumerate(B)]
    return sum(f // factorial(b) * y
               * sum(col[n - b - c] * wB[c] for c in range(n - b + 1))
               for b, y in enumerate(A))


def contribution_from_characters(triple) -> Contribution:
    """The same contribution computed the slow way, as a weight quotient:
    the obstruction character over the tangent character, each pair (i, j)
    read as the form (j, i), with the forms common to both (the whole p1
    block among them) cancelled.  Its weights come from the characters, not
    from the per-hook forms of fixed_point_contribution, so the two routes
    check each other and share only _split and _cancel."""
    return _contribution(([(j, i) for i, j in obstruction_character(triple)],
                          [(j, i) for i, j in tangent_character(triple)]))


def _constant(n, N, scale, L) -> Fraction:
    """c with N = c * D coefficient by coefficient, D = scale * prod(L)
    expanded, for the sum over Hilb^n; ConsistencyError if there is none."""
    D = _times_forms([scale], L.elements())
    if N and (len(N) != len(D)
              or any(x * D[-1] != y * N[-1] for x, y in zip(N, D))):
        raise ConsistencyError(
            "localization sum for n=%d is not constant: %s"
            % (n, _quotient_str(N, scale, list(L.elements()))))
    return Fraction(N[-1], D[-1]) if N else Fraction(0)


def hilb_chern_integral(n: int, mode: str = "symbolic", *, seed=None,
                        samples=None) -> Fraction:
    """Integral of the top Chern class over Hilb^n of the plane.

    Both modes take their value from one sum, the factored sum of the
    module docstring over route C's legs by _convolve, packed, checked as
    N = c * D, and returned only if it is [q^n] prod (1-q^m)^-7
    (_euler_pow_at), ConsistencyError naming n and both values if not.
    Its counts p(k) are read off one _c_at row.  They differ in how they
    certify route A against route C.  symbolic mode, which takes no
    `samples` or `seed`, certifies each leg A_k, k <= n, through the cache
    of _a_leg (a call after one at n' sums only the legs with k > n').
    sampled mode draws `samples` (an int, MIN_SAMPLES by default) distinct
    random integer points t0 in [-10**6, 10**6], redrawing a pole of some F,
    and certifies every leg at each t0 from the terms of _point_terms
    (_legs_at).  A ConsistencyError means a bug.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("n must be a nonnegative integer, got %r" % (n,))
    if mode == "symbolic":
        if samples is not None or seed is not None:
            raise ValueError("samples and seed apply to sampled mode only")
        for k in range(n + 1):
            _a_leg(k)   # certified against S_k before any sum is taken
    elif mode == "sampled":
        samples = MIN_SAMPLES if samples is None else samples
        if not isinstance(samples, int) or isinstance(samples, bool):
            raise ValueError("samples must be an integer, got %r" % (samples,))
        if samples < MIN_SAMPLES:
            raise ValueError("sampled mode needs at least %d points"
                             % MIN_SAMPLES)
        rng = random.Random(DEFAULT_SEED if seed is None else seed)
        seen = set()
        while samples:
            P = rng.randint(-_BOUND, _BOUND)
            if P in seen:
                continue
            seen.add(P)
            if _legs_at(n, P):   # False at a pole of some F: draw again
                samples -= 1
    else:
        raise ValueError("mode must be 'symbolic' or 'sampled', got %r"
                         % (mode,))
    # n!^2 (1-t)^n = (-1)^n n!^2 (t-1)^n times the terms p(a) A_b B_c:
    # p(a) (1-t)^a, (n!/b!) S_b and (n!/c!) (-1)^c rev(S_c), the last S_c
    # with each form (j, i) read as (-i, -j)
    counts = [r // factorial(k) for k, r in enumerate(_c_at(n, 1, 1))]
    f = factorial(n)

    def numerator(ev):
        return _convolve(counts, _c_legs(n, ev),
                         _c_legs(n, lambda f: ev((-f[1], -f[0]))),
                         ev([1, -1]))
    value = _constant(n, *_packed(numerator, (-1) ** n * f * f,
                                  Counter({(-1, 1): n})))
    want = _euler_pow_at(-7, n)
    if value != want:
        raise ConsistencyError("the integral for n=%d is %s, not [q^n] prod "
                               "(1-q^m)^-7 = %d" % (n, value, want))
    return value
