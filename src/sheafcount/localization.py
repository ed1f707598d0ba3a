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
only _contribution, which splits both lists of forms into an integer and
primitive forms i*t + j with i > 0 (_split) and cancels the forms common
to both (_cancel, the one cancel step).  The Contribution left,
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
partitions of k and B_k the sum of G over them.  The cost is one product
per partition of size at most n plus O(n^2) combinations, not one per
triple.  The third fixed point is the second with the torus weights
swapped, and scaling both weights leaves a contribution alone (it has as
many numerator as denominator forms), so at s2 = 1 the swap is t -> 1/t:
G(lam)(t) = F(lam)(1/t) and B_k(t) = A_k(1/t).  By theory the result is a
constant (the equivariant parameters drop out), which the symbolic mode
verifies literally and the sampled mode verifies at random rational points.

The symbolic mode sums in big integers: it divides no polynomial, adds
no Fraction and expands no polynomial term by term.  Every sum it takes
is a sum of Contributions, whose cancel step _cancel has already run:
A_k is the sum of the Contributions F(lam) over the partitions of k, so
A_k = N_k / (c_k prod L_k), with L_k the multiset union of their
denominator forms, c_k the lcm of their scales' denominators, and N_k an
integer polynomial.  B_k is A_k mirrored by _mirror, once per process
and k (_b_leg).  A box's forms depend on its hook (arm, leg) alone
(_box_forms), so _split runs once per hook and process (_hook_split), and
each F(lam) is _cancel of its hooks' split forms.

Sampled mode sums in integers too, from the raw forms of the boxes, with
none of the splitting, cancelling, mirroring or packing above.  At
t0 = p/q the forms of F(lam) evaluated at (p, q) give F(lam)(t0), and at
(q, p) they give G(lam)(t0), so B_k is read off the same forms at the
swapped point; both contribution routes and _per_triple_sum evaluate G
themselves.  At each point every hook's numerator and denominator product
is taken once, into lists that each partition reads by its hooks'
indices (_hook_id), and a partition's are products of its hooks'.  A
leg is summed over the multiset union of its den forms, each kept up to
sign and valued once per point: each term is prod(num) * (W // prod(den)),
W the product of the union at the point, an exact quotient since a form
and its negation divide each other.  Each leg is then scaled to the union
of all legs.  Both sides' integer numerators go through the same
convolution, and one Fraction is taken per point, over W_A * W_B.

Polynomials are summed by Kronecker substitution: every form is evaluated
at one integer T = 2^B, so each product and sum is one big-integer
operation, and the integer N_k(T) is unpacked into its signed base-T
digits.  B comes from a proven bound: the same code, run with each form
replaced by |i| + |j|, bounds the l1 norm of N_k (||fg|| <= ||f|| ||g||),
and a T whose half exceeds that bound makes the digits the coefficients.
_common takes a sum's union of denominators and lcm of scales once per
sum, outside the evaluator, so the bound pass and the packed pass share
them, and each pass values every distinct form once.  Each leg is packed
at its own width, unpacked, and repacked for the convolution, sampled
mode's, run over the common denominator D = c prod(L + L') of the legs
and unpacked into one numerator N.  The sum is constant exactly when
N = c * D coefficient by coefficient, with D expanded form by form; this
is checked literally before c is returned, and a sum that fails is
reported as the quotient N / D checked, unreduced.

_per_triple_sum packs the unfactored sum of contribution_from_characters
over the triples like one leg and checks it by the same literal test: no
rational function is added.
"""

import functools
import random
from collections import Counter, namedtuple
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import ConsistencyError
from .partitions import (arm, boxes, check_partition, enumerate_partitions,
                         enumerate_triples, hooks, leg)

# default seed for sampled mode; any fixed value works, reproducibility is
# the only requirement
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
    """The numerator and denominator forms (j, i), meaning i*t + j, that a
    box with arm a and leg l adds to F (see _p2_factors): the one recipe
    behind both modes, since a box's forms depend on its hook alone."""
    return (((-a, a - l - 2), (a + 1, l - a - 2)),
            ((-a, a - l - 1), (a + 1, l - a - 1)))


def _p2_factors(p):
    """Numerator and denominator linear forms (j, i), meaning i*t + j, of
    F(p), the direct closed product over the boxes of p as the partition at
    the second fixed point, specialized at s1 = t, s2 = 1:

      prod over p of ((a-l-2)t - a)((l-a-2)t + a+1)
                   / ((a-l-1)t - a)((l-a-1)t + a+1)

    Both lists have two forms per box.  Every denominator form is a nonzero
    polynomial: a-l-1 = 0 with a = 0 would need l = -1, and the other form
    has constant term a+1 >= 1.
    """
    num = []
    den = []
    for a, l in hooks(p):
        box_num, box_den = _box_forms(a, l)
        num += box_num
        den += box_den
    return num, den


def _p3_factors(p):
    """The forms of G(p), the same product for p as the partition at the
    third fixed point: s1 and s2 swap roles, so (j, i) becomes (i, j)."""
    num, den = _p2_factors(p)
    return [f[::-1] for f in num], [f[::-1] for f in den]


def _times_forms(coeffs, forms):
    """Integer coefficient list (coeffs[k] is the coefficient of t^k) of the
    polynomial coeffs times the product of the forms (j, i), i*t + j."""
    for j, i in forms:
        coeffs = [j * c + i * d for c, d in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _poly_str(coeffs):
    """The nonzero polynomial coeffs (lowest first) in t, highest power
    first: 4*t - 2, 1/4*t^4 + 1/2*t^3."""
    parts = []
    for e, c in reversed(list(enumerate(coeffs))):
        if not c:
            continue
        if e == 0:
            mon = str(abs(c))
        else:
            head = "" if abs(c) == 1 else str(abs(c)) + "*"
            mon = head + ("t" if e == 1 else "t^%d" % e)
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + mon)
    return " ".join(parts)


def _quotient_str(coeffs, scale, den):
    """The integer polynomial coeffs over scale * prod(den), den a sequence
    of forms (j, i) with i > 0, as its numerator over its monic
    denominator, or its numerator alone when den is empty."""
    lead = prod(i for _, i in den)
    top = _poly_str([Fraction(c, scale * lead) for c in coeffs])
    if not den:
        return top
    return "(%s)/(%s)" % (top, _poly_str([Fraction(c, lead)
                                          for c in _times_forms([1], den)]))


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


def _cancel(cn, num, cd, den) -> Contribution:
    """cn * prod(num) / (cd * prod(den)) as a Contribution, cn and cd
    integers and num and den lists of forms split by _split: the forms
    common to both cancelled as multisets, the one cancel step of the
    package."""
    # multiset differences: each den form takes one copy of itself out of
    # num if one is left there, and stays in den otherwise
    left = Counter(num)
    kept = []
    for f in den:
        if left.get(f):
            left[f] -= 1
        else:
            kept.append(f)
    return Contribution(Fraction(cn, cd), tuple(sorted(left.elements())),
                        tuple(sorted(kept)))


def _contribution(forms) -> Contribution:
    """prod(num forms) / prod(den forms) as a Contribution, forms
    = (num, den): both lists split by _split, then _cancel."""
    return _cancel(*_split(forms[0]), *_split(forms[1]))


def fixed_point_contribution(triple) -> Contribution:
    """Contribution of one fixed point to the localization sum: the product
    F(p2) * G(p3) of the per-leg forms; p1 drops out."""
    _, p2, p3 = _checked(triple)
    num2, den2 = _p2_factors(p2)
    num3, den3 = _p3_factors(p3)
    return _contribution((num2 + num3, den2 + den3))


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


def _union(counters):
    """The multiset union of the Counters: each key as often as in the one
    that has it most."""
    out = Counter()
    for counter in counters:
        for f, m in counter.items():
            if m > out.get(f, 0):
                out[f] = m
    return out


def _common(terms):
    """The terms prod(factors) / (c * prod(den)), (factors, c, den) with c a
    positive integer, factors a list of hashable coefficient sequences and
    den a Counter of forms, over their common denominator e * prod(M): M is
    the multiset union of the dens and e the lcm of the c's, both taken once
    per sum.  Returns (numerators, e, M), numerators(ev) the list of each
    term's numerator under ev, in which each distinct form and factor is
    valued once.

    Under _at(bits) a numerator is its value at T = 2**bits, prod(M - den)
    computed as prod(M) // prod(den) exactly.  Under _norm the same code
    bounds its l1 norm, by ||f g|| <= ||f|| ||g|| and ||i*t + j|| = |i|+|j|.
    """
    e = lcm(*(c for _, c, _ in terms))
    M = _union(den for _, _, den in terms)
    distinct = set(M).union(*(factors for factors, _, _ in terms))

    def numerators(ev):
        value = {f: ev(f) for f in distinct}

        def at(forms):
            return prod(value[f] ** m for f, m in forms.items())
        whole = at(M)
        return [(e // c) * prod(map(value.__getitem__, factors))
                * (whole // at(den)) for factors, c, den in terms]
    return numerators, e, M


def _leg_poly(contributions):
    """A_k (or B_k) as (N_k, c_k, L_k) with A_k = N_k / (c_k prod(L_k)):
    the sum of the Contributions, over the common denominator of _common,
    with N_k an integer coefficient list.  N_k is packed at the narrowest
    width its own l1 bound allows, then unpacked; the convolution repacks
    it at its own width."""
    numerators, c, L = _common([
        ([(x.scale.numerator,), *x.num], x.scale.denominator, Counter(x.den))
        for x in contributions])
    return _packed(lambda ev: sum(numerators(ev)), c, L)


@functools.cache
def _hook_split(a, l):
    """_split of the numerator and of the denominator forms of the hook
    (a, l), ((cn, num), (cd, den)): taken once per process and hook, and
    shared, so never mutated."""
    return tuple(map(_split, _box_forms(a, l)))


@functools.cache
def _a_leg(k):
    """A_k = (N_k, c_k, L_k), _leg_poly over the Contributions F(lam) of
    the partitions lam of k: summed once per process and k, and shared, so
    never mutated.  Each F(lam) is _cancel of its hooks' _hook_split forms,
    so _split runs once per distinct hook, not once per box."""
    contributions = []
    for lam in enumerate_partitions(k):
        cn = cd = 1
        num, den = [], []
        for a, l in hooks(lam):
            (hn, hnum), (hd, hden) = _hook_split(a, l)
            cn *= hn
            cd *= hd
            num += hnum
            den += hden
        contributions.append(_cancel(cn, num, cd, den))
    return _leg_poly(contributions)


@functools.cache
def _b_leg(k):
    """B_k, _mirror of A_k: mirrored once per process and k, never mutated."""
    return _mirror(_a_leg(k), k)


def _fold(form):
    """form or its negation, whichever has a positive leading coefficient:
    _split's sign rule, with no content divided."""
    j, i = form
    return form if i > 0 or (i == 0 and j > 0) else (-j, -i)


def _hook_id(a, l):
    """The index of the hook (a, l) in the per-point lists of _legs_at:
    (a+l)(a+l+1)/2 + a, so the hooks with a + l < n fill range(n(n+1)/2),
    by a + l and then by a."""
    return (a + l) * (a + l + 1) // 2 + a


@functools.cache
def _leg_hooks(k):
    """(H, U): H the hooks of every partition of k, in
    enumerate_partitions order, each as its tuple of _hook_id indices, and
    U the multiset union of their den forms, each folded by _fold: the leg
    as sampled mode sums it, cached like the forms and never mutated.  The
    dens of each hook with a + l < k are folded once, and each partition's
    are counted from its hook indices."""
    ids = {}
    folded = {}   # by hook index
    for s in range(k):
        for a in range(s + 1):
            h = ids[a, s - a] = _hook_id(a, s - a)
            folded[h] = [_fold(f) for f in _box_forms(a, s - a)[1]]
    H = tuple(tuple(map(ids.__getitem__, hooks(lam)))
              for lam in enumerate_partitions(k))
    return H, _union(Counter([f for h in hs for f in folded[h]]) for hs in H)


def _legs_at(legs, M, p, q):
    """([N_0, ..., N_n], W): the sum of F(lam) over the partitions of k,
    legs[k] = _leg_hooks(k), at t0 = p/q is N_k / W, with W the product of
    the forms of M at (p, q) and M holding the union of every leg.  At t0
    each form i*t0 + j is (i*p + j*q)/q, and each F(lam) has as many
    numerator as denominator forms, so the q's cancel.

    Once per hook (a, l) with a + l < n, the product of its _box_forms
    numerator forms and that of its denominator forms are taken at the
    point, by a plain loop over however many forms it has, into two lists
    in _hook_id order, which the legs' index tuples read.  Once per form,
    each form of the legs' own unions is valued at the point, into a table
    that W and every W_U read.  A leg (H, U) is summed over the product W_U
    of its union: a term is the product of its hooks' numerators times
    W_U // (the product of their denominators), and the leg's sum is scaled
    by W // W_U.  A form and its negation divide each other, and U holds
    every den of its leg up to sign, so both quotients are exact.  A zero
    form (t0 is a pole) raises ZeroDivisionError."""
    n = len(legs) - 1
    num, den = [], []
    for s in range(n):
        for a in range(s + 1):
            box_num, box_den = _box_forms(a, s - a)
            x = 1
            for j, i in box_num:
                x *= i * p + j * q
            num.append(x)
            x = 1
            for j, i in box_den:
                x *= i * p + j * q
            den.append(x)
    value = {(j, i): i * p + j * q
             for j, i in set().union(*(U for _, U in legs))}

    def at_union(forms):
        return prod(value[f] ** m for f, m in forms.items())
    W = at_union(M)
    N = []
    num_at, den_at = num.__getitem__, den.__getitem__
    for H, U in legs:
        WU = at_union(U)
        total = 0
        for hs in H:
            total += prod(map(num_at, hs)) * (WU // prod(map(den_at, hs)))
        N.append((W // WU) * total)
    return N, W


def _mirror(leg, k):
    """B_k(t) = A_k(1/t) = rev(N) / (c prod(j*t + i)) from A_k = (N, c, L),
    over the forms (j, i) of L swapped, those with j < 0 negated and N's
    sign flipped once per negation.  ConsistencyError naming k unless
    len(N) = |L| + 1, N(0) != 0 and t is not in L: the shape of every leg."""
    N, c, L = leg
    if len(N) != sum(L.values()) + 1 or not N[0] or L[0, 1]:
        raise ConsistencyError("leg A_%d has no mirror image: N = %s, L = %s"
                               % (k, N, sorted(L.elements())))
    flips = sum(m for (j, _), m in L.items() if j < 0)
    M = Counter({(i, j) if j > 0 else (-i, -j): m for (j, i), m in L.items()})
    return [(-1) ** flips * x for x in reversed(N)], c, M


def _convolve(counts, A, B):
    """Sum of counts[a] * A[b] * B[c] over a + b + c = n = len(counts) - 1."""
    n = len(counts) - 1
    return sum(A[b] * sum(counts[n - b - c] * B[c] for c in range(n - b + 1))
               for b in range(n + 1))


def contribution_from_characters(triple) -> Contribution:
    """The same contribution computed the slow way, as a weight quotient:
    the obstruction character over the tangent character, each pair (i, j)
    read as the form (j, i), with the forms common to both (the whole p1
    block among them) cancelled.  Its weights come from the characters, not
    from the per-leg forms of fixed_point_contribution, so the two routes
    check each other and share only _contribution."""
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


def _per_triple_sum(n) -> Fraction:
    """The sum of contribution_from_characters over all triples of size n,
    packed by _leg_poly like one leg: the reference for hilb_chern_integral,
    sharing none of its weight algebra."""
    return _constant(n, *_leg_poly(map(contribution_from_characters,
                                       enumerate_triples(n))))


@functools.cache
def _count(k):
    """p(k), the number of partitions of k: counted once per process."""
    return len(enumerate_partitions(k))


def hilb_chern_integral(n: int, mode: str = "symbolic", *, seed=None,
                        samples: int = MIN_SAMPLES) -> Fraction:
    """Integral of the top Chern class over Hilb^n of the plane.

    Both modes take the factored sum of the module docstring, with each
    p(k) counted once per process (_count).  symbolic mode packs it as
    described there and raises ConsistencyError unless N = c * D, which
    would mean a bug.  A_k and B_k are read from the caches of _a_leg and
    _b_leg, so a call after one at n' sums and mirrors only the legs with
    k > n', and each hook is split once per process; the convolution and
    the check run on every call, its two _common unions once per call and
    each distinct form once per pass.  sampled mode evaluates the sum at
    `samples` distinct random rational points with numerators and
    denominators bounded by 10**6, redrawing a point that is a pole of some
    F or G (every partition of size at most n is p2 or p3 of some triple,
    so these are the poles of the per-triple sum), and requires exact
    agreement.  The union M of the legs is taken once per call.  At each
    point _legs_at takes each hook's forms once and each union form once,
    and sums every leg in integers over the union of its den forms up to
    sign, at (p, q) for A and at (q, p) for B; the integer numerators are
    convolved and one Fraction is taken per point.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = list(map(_count, range(n + 1)))
    if mode == "symbolic":
        QA, ea, MA = _common([([tuple(N)], c, L)
                              for N, c, L in map(_a_leg, range(n + 1))])
        QB, eb, MB = _common([([tuple(N)], c, L)
                              for N, c, L in map(_b_leg, range(n + 1))])
        return _constant(n, *_packed(
            lambda ev: _convolve(counts, QA(ev), QB(ev)), ea * eb, MA + MB))
    if mode == "sampled":
        if samples < MIN_SAMPLES:
            raise ValueError("sampled mode needs at least %d points"
                             % MIN_SAMPLES)
        legs = list(map(_leg_hooks, range(n + 1)))
        M = _union(U for _, U in legs)
        rng = random.Random(DEFAULT_SEED if seed is None else seed)
        seen = set()
        drawn = []   # (point, value)
        while len(drawn) < samples:
            t0 = Fraction(rng.randint(-_BOUND, _BOUND), rng.randint(1, _BOUND))
            if t0 in seen:
                continue
            seen.add(t0)
            p, q = t0.numerator, t0.denominator
            try:
                A, WA = _legs_at(legs, M, p, q)
                B, WB = _legs_at(legs, M, q, p)
            except ZeroDivisionError:
                continue  # t0 is a pole of some F or G: draw again
            drawn.append((t0, Fraction(_convolve(counts, A, B), WA * WB)))
        if any(v != drawn[0][1] for _, v in drawn):
            raise ConsistencyError(
                "sampled localization values disagree for n=%d: %s"
                % (n, drawn))
        return drawn[0][1]
    raise ValueError("mode must be 'symbolic' or 'sampled', got %r" % (mode,))


def p3_point_count(s: int, d: int) -> int:
    """n = s(s+3)/2 - d + 1: p3's second spelling of the number of points.

    s and d enter the count only through n; whatever s is, the integrand
    is the plane's at s = 1.  Negative s or d, and a pair that gives
    n < 0, are rejected.
    """
    if s < 0 or d < 0:
        raise ValueError("degrees must be nonnegative: s=%d, d=%d" % (s, d))
    n = s * (s + 3) // 2 - d + 1
    if n < 0:
        raise ValueError("no configuration: s=%d, d=%d give n=%d < 0" % (s, d, n))
    return n
