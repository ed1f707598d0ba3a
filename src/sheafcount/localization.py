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
coincide, so their weight factors cancel in the fixed-point contribution;
fixed_point_contribution never materializes them, while the slower
character-quotient route in contribution_from_characters cancels them as
multisets and serves as an independent check.

The localization sum over all triples of total size n evaluates the
integral of the top Chern class of the rank-2n obstruction bundle.  A
triple contributes F(p2) * G(p3), one closed product per contributing leg,
and p1 drops out, so the sum factors by partition size:

  sum over |p1|+|p2|+|p3| = n of F(p2) G(p3)
    = sum over a+b+c = n of p(a) * A_b * B_c,

with p(a) the number of partitions of a, A_k the sum of F over the
partitions of k and B_k the sum of G over them.  The cost is one product
per partition of size at most n plus O(n^2) combinations, not one per
triple.  By theory the result is a constant (the equivariant parameters
drop out), which the symbolic mode verifies literally and the sampled mode
verifies at random rational points.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import prod

from .errors import ConsistencyError
from .partitions import arm, boxes, enumerate_partitions, leg
from .ratfunc import ONE, Poly, RationalFunction

# default seed for sampled mode; any fixed value works, reproducibility is
# the only requirement
DEFAULT_SEED = 1729

_BOUND = 10**6


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


def tangent_character(triple):
    """Tangent-space character at the fixed point, as sorted (i, j) pairs."""
    return _weights(triple, 0)


def obstruction_character(triple):
    """Obstruction-fiber character: p2 pairs shifted by t1^-1, p3 by t2^-1."""
    return _weights(triple, 1)


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
    for b in boxes(p):
        a, l = arm(p, b), leg(p, b)
        num += [(-a, a - l - 2), (a + 1, l - a - 2)]
        den += [(-a, a - l - 1), (a + 1, l - a - 1)]
    return num, den


def _p3_factors(p):
    """The forms of G(p), the same product for p as the partition at the
    third fixed point: s1 and s2 swap roles, so (j, i) becomes (i, j)."""
    num, den = _p2_factors(p)
    return [f[::-1] for f in num], [f[::-1] for f in den]


def _as_function(forms) -> RationalFunction:
    num, den = forms
    return RationalFunction(prod(map(Poly, num), start=ONE),
                            prod(map(Poly, den), start=ONE))


def _value_at(forms, p, q) -> Fraction:
    # at t0 = p/q each form i*t0 + j is (i*p + j*q)/q; numerator and
    # denominator have equal numbers of forms, so the q's cancel.  A zero
    # denominator (t0 is a pole) raises ZeroDivisionError.
    num, den = forms
    return Fraction(prod(i * p + j * q for j, i in num),
                    prod(i * p + j * q for j, i in den))


def fixed_point_contribution(triple) -> RationalFunction:
    """Contribution of one fixed point to the localization sum: the product
    F(p2) * G(p3) of the per-leg forms; p1 drops out."""
    _, p2, p3 = triple
    num2, den2 = _p2_factors(p2)
    num3, den3 = _p3_factors(p3)
    return _as_function((num2 + num3, den2 + den3))


def _convolve(counts, A, B):
    """Sum of counts[a] * A[b] * B[c] over a + b + c = n = len(counts) - 1."""
    n = len(counts) - 1
    return sum(A[b] * sum(counts[n - b - c] * B[c] for c in range(n - b + 1))
               for b in range(n + 1))


def contribution_from_characters(triple) -> RationalFunction:
    """The same contribution computed the slow way, as a weight quotient.

    A pair (i, j) becomes the linear form i*t + j; the contribution is the
    product of the obstruction forms divided by the product of the tangent
    forms, after cancelling pairs common to both multisets (in particular
    the whole p1 block).  Shares no algebra with fixed_point_contribution,
    which is the point: the two routes check each other.
    """
    obs = Counter(obstruction_character(triple))
    tan = Counter(tangent_character(triple))
    common = obs & tan
    obs -= common
    tan -= common
    num = ONE
    den = ONE
    for (i, j), m in sorted(obs.items()):
        num = num * Poly((j, i)) ** m
    for (i, j), m in sorted(tan.items()):
        den = den * Poly((j, i)) ** m
    return RationalFunction(num, den)


def hilb_chern_integral(n: int, mode: str = "symbolic", *, seed=None,
                        samples: int = 3) -> Fraction:
    """Integral of the top Chern class over Hilb^n of the plane.

    Both modes take the factored sum of the module docstring.  symbolic
    mode builds A_k and B_k as rational functions and reads off the
    constant; a non-constant sum would mean a bug and raises
    ConsistencyError.  sampled mode evaluates the sum at `samples` distinct
    random rational points with numerators and denominators bounded by
    10**6, resampling when a point is a pole of some F or G, and requires
    exact agreement.  Every partition of size at most n is p2 or p3 of
    some triple, so the poles are those of the per-triple sum.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    sizes = [enumerate_partitions(k) for k in range(n + 1)]
    counts = [len(ps) for ps in sizes]
    F = [[_p2_factors(lam) for lam in ps] for ps in sizes]
    G = [[_p3_factors(lam) for lam in ps] for ps in sizes]
    if mode == "symbolic":
        A = [sum(map(_as_function, fs)) for fs in F]
        B = [sum(map(_as_function, gs)) for gs in G]
        total = _convolve(counts, A, B)
        try:
            return total.as_constant()
        except ValueError:
            raise ConsistencyError(
                "localization sum for n=%d is not constant: %s" % (n, total)
            ) from None
    if mode == "sampled":
        if samples < 3:
            raise ValueError("sampled mode needs at least 3 points")
        rng = random.Random(DEFAULT_SEED if seed is None else seed)
        seen = set()
        values = []
        points = []
        while len(values) < samples:
            t0 = Fraction(rng.randint(-_BOUND, _BOUND), rng.randint(1, _BOUND))
            if t0 in seen:
                continue
            seen.add(t0)
            p, q = t0.numerator, t0.denominator
            try:
                A = [sum(_value_at(f, p, q) for f in fs) for fs in F]
                B = [sum(_value_at(g, p, q) for g in gs) for gs in G]
            except ZeroDivisionError:
                continue  # t0 is a pole of some F or G: draw again
            values.append(_convolve(counts, A, B))
            points.append(t0)
        if any(v != values[0] for v in values):
            raise ConsistencyError(
                "sampled localization values disagree for n=%d: %s"
                % (n, list(zip(points, values)))
            )
        return values[0]
    raise ValueError("mode must be 'symbolic' or 'sampled', got %r" % (mode,))


def p3_point_count(s: int, d: int) -> int:
    """Expected number of surface points carried by a curve configuration.

    A degree-s surface and a degree-d curve in projective 3-space meet the
    counting problem through n = s(s+3)/2 - d + 1 free points; a negative
    value has no moduli interpretation and is rejected.
    """
    n = s * (s + 3) // 2 - d + 1
    if n < 0:
        raise ValueError("no configuration: s=%d, d=%d give n=%d < 0" % (s, d, n))
    return n


def dt_p3(s: int, d: int, mode: str = "symbolic", **kwargs) -> Fraction:
    """Sheaf count for projective 3-space with one point insertion."""
    return hilb_chern_integral(p3_point_count(s, d), mode, **kwargs)
