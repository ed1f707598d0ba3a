"""Exact polynomials and split-denominator rational functions.

A RationalFunction is a numerator over a multiset of rational poles.  The
load-bearing property is the canonical form: reduction cancels exactly the
roots the numerator shares with the poles, as multisets, and never changes
the value, so equality of canonical forms is equality of functions.  Root
products are built with _over and _times_forms, which share no code with
the reduction."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from sheafcount.ratfunc import ONE, ZERO, Poly, RationalFunction, _over, _times_forms

X = Poly((0, 1))


def test_poly_basics():
    p = Poly((1, 2))          # 1 + 2t
    q = Poly((0, 0, 3))       # 3t^2
    assert p.degree == 1 and q.degree == 2
    assert ZERO.degree == -1 and ZERO.is_zero
    assert str(p) == "2*t + 1" and str(q) == "3*t^2"


def test_poly_trailing_zeros_normalized():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0,)) == ZERO
    assert Poly(()) == ZERO


def test_rational_canonical_form():
    # (2t^2 - t)/t reduces to 2t - 1
    f = RationalFunction(Poly((0, -1, 2)), (0,))
    assert f == RationalFunction(Poly((-1, 2)))
    assert f.poles == () and f.den == ONE
    # (2t - 1)/(t - 1/2)^2 reduces at a pole that is not an integer
    h = RationalFunction(Poly((-1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    assert h.num == Poly((2,)) and h.poles == (Fraction(1, 2),)
    # denominators are monic, poles sorted and repeated for multiplicity
    g = RationalFunction(Poly((Fraction(1, 3),)), (0,))
    assert g.den == X and g.num == Poly((Fraction(1, 3),))
    k = RationalFunction(ONE, (1, -1, 1))
    assert k.poles == (-1, 1, 1) and k.den == Poly((1, -1, -1, 1))
    # zero is stored as 0/1
    assert RationalFunction(ZERO, (2, 3)).poles == ()


def test_rational_frozen_example():
    f = RationalFunction(Poly((-2, 4)), (1,))
    assert str(f) == "(4*t - 2)/(t - 1)"
    assert f.num == Poly((-2, 4)) and f.den == Poly((-1, 1))


def test_rational_mixed_scalars():
    # a scalar is a numerator, never an operand: == with one is False, and
    # there is no + or *
    f = RationalFunction(Poly((3,)))
    assert RationalFunction(3) == f
    assert f != 3 and f != Poly((3,))
    for op in (lambda: f + 1, lambda: 2 * f, lambda: f * f, lambda: f + f):
        with pytest.raises(TypeError):
            op()


def _random_poly(rng, deg):
    return Poly(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(deg + 1)))


def _random_pole(rng):
    # few values, so that poles coincide and cancel often
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _from_roots(roots, c=1):
    # c * prod(t - r for r in roots)
    return Poly([c * a for a in _over(roots).coeffs])


def _at(poly, t0):
    return sum(c * t0 ** e for e, c in enumerate(poly.coeffs))


def _random_ratfunc(rng):
    num = _random_poly(rng, rng.randint(0, 3))
    return RationalFunction(num, [_random_pole(rng)
                                  for _ in range(rng.randint(0, 3))])


def test_cancellation_never_changes_values():
    rng = random.Random(7)
    for _ in range(200):
        f = _random_ratfunc(rng)
        shared = [_random_pole(rng) for _ in range(rng.randint(1, 3))]
        # f.num times prod(t - r for r in shared), over the shared poles too
        g = RationalFunction(Poly(_times_forms(list(f.num.coeffs),
                                               [(-r, 1) for r in shared])),
                             f.poles + tuple(shared))
        assert f == g
        # reduced: the numerator vanishes at no pole that is left
        assert all(_at(g.num, r) for r in g.poles)


def test_reduction_cancels_exactly_the_shared_roots():
    # c * prod(t - a) over prod(t - r): the canonical form keeps the roots
    # and poles left after cancelling the common ones as multisets
    rng = random.Random(11)
    for _ in range(300):
        roots = [_random_pole(rng) for _ in range(rng.randint(0, 4))]
        poles = [_random_pole(rng) for _ in range(rng.randint(0, 4))]
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        f = RationalFunction(_from_roots(roots, c), poles)
        kept = Counter(roots) - Counter(poles)
        assert f.num == _from_roots(kept.elements(), c)
        assert f.poles == tuple(sorted((Counter(poles) - Counter(roots)).elements()))
