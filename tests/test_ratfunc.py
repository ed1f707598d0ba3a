"""Exact polynomials and split-denominator rational functions.

A RationalFunction is a numerator over a multiset of rational poles.  The
load-bearing property is that evaluation at a rational point is a ring
homomorphism: every algebraic identity checked symbolically must also hold
numerically at random points, and vice versa.  Several tests drive exactly
that comparison."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafcount.errors import PoleError
from sheafcount.ratfunc import ONE, ZERO, Poly, RationalFunction

X = Poly((0, 1))


def test_poly_basics():
    p = Poly((1, 2))          # 1 + 2t
    q = Poly((0, 0, 3))       # 3t^2
    assert p.degree == 1 and q.degree == 2
    assert (p + q).degree == 2
    assert (p * q) == Poly((0, 0, 3, 6))
    assert p(Fraction(1, 2)) == 2
    assert ZERO.degree == -1 and ZERO.is_zero
    assert p + (-1) * p == ZERO
    assert X * X * X == Poly((0, 0, 0, 1))


def test_poly_trailing_zeros_normalized():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert Poly((0,)) == ZERO
    assert Poly(()) == ZERO


def test_poly_scalar_ops():
    p = Poly((1, 1))
    assert 2 * p == Poly((2, 2))
    assert p * Fraction(1, 2) == Poly((Fraction(1, 2), Fraction(1, 2)))
    assert p + 0 == p


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
    assert f.eval(2) == 6
    assert f.eval(Fraction(1, 2)) == 0
    with pytest.raises(PoleError):
        f.eval(1)


def test_rational_arith_identities():
    f = RationalFunction(ONE, (1,))       # 1/(t-1)
    g = RationalFunction(ONE, (-1,))      # 1/(t+1)
    s = f + g
    assert s == RationalFunction(Poly((0, 2)), (1, -1))
    assert s.den == Poly((-1, 0, 1))
    assert f + (-1) * f == RationalFunction(ZERO)
    assert f * g == RationalFunction(ONE, (-1, 1))
    # a shared pole is counted once in a sum, twice in a product
    assert f + f == RationalFunction(Poly((2,)), (1,))
    assert f * f == RationalFunction(ONE, (1, 1))


def test_rational_mixed_scalars():
    f = RationalFunction(ONE, (1,))
    assert 1 + f == RationalFunction(X, (1,))
    assert (2 * f).eval(3) == 1
    assert f * Fraction(1, 2) == RationalFunction(Poly((Fraction(1, 2),)), (1,))
    assert sum([f, f]) == 2 * f
    assert RationalFunction(Poly((3,))) == 3


def test_as_constant():
    c = RationalFunction(Poly((0, 0, Fraction(3, 2))), (0, 0))
    assert c.as_constant() == Fraction(3, 2)
    with pytest.raises(ValueError):
        RationalFunction(X).as_constant()
    with pytest.raises(ValueError):
        RationalFunction(ONE, (1,)).as_constant()


def _random_poly(rng, deg):
    return Poly(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(deg + 1)))


def _random_pole(rng):
    # few values, so that poles coincide and cancel often
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _from_roots(roots):
    out = ONE
    for r in roots:
        out = out * Poly((-r, 1))
    return out


def _random_ratfunc(rng):
    num = _random_poly(rng, rng.randint(0, 3))
    return RationalFunction(num, [_random_pole(rng)
                                  for _ in range(rng.randint(0, 3))])


def test_eval_is_homomorphism_bulk():
    # 1000 random (f, g, t0): symbolic combine then evaluate must equal
    # evaluate then combine, whenever no pole is hit
    rng = random.Random(20260822)
    done = 0
    while done < 1000:
        f, g = _random_ratfunc(rng), _random_ratfunc(rng)
        t0 = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        try:
            fv, gv = f.eval(t0), g.eval(t0)
            assert (f + g).eval(t0) == fv + gv
            assert (f * g).eval(t0) == fv * gv
        except PoleError:
            continue
        done += 1


def test_cancellation_never_changes_values():
    rng = random.Random(7)
    for _ in range(200):
        f = _random_ratfunc(rng)
        shared = [_random_pole(rng) for _ in range(rng.randint(1, 3))]
        g = RationalFunction(f.num * _from_roots(shared), f.poles + tuple(shared))
        assert f == g
        # reduced: the numerator vanishes at no pole that is left
        assert all(g.num(r) for r in g.poles)


def test_reduction_cancels_exactly_the_shared_roots():
    # c * prod(t - a) over prod(t - r): the canonical form keeps the roots
    # and poles left after cancelling the common ones as multisets
    rng = random.Random(11)
    for _ in range(300):
        roots = [_random_pole(rng) for _ in range(rng.randint(0, 4))]
        poles = [_random_pole(rng) for _ in range(rng.randint(0, 4))]
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        f = RationalFunction(c * _from_roots(roots), poles)
        kept = Counter(roots) - Counter(poles)
        assert f.num == c * _from_roots(kept.elements())
        assert f.poles == tuple(sorted((Counter(poles) - Counter(roots)).elements()))


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_poly_ring_axioms(a, b, c):
    p, q, r = Poly((a, 1)), Poly((b, -2, 1)), Poly((c,))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)


@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=-100, max_value=100), st.integers(0, 4))
def test_horner_matches_naive(t0, deg):
    coeffs = tuple(Fraction(i + 1, 3) for i in range(deg + 1))
    p = Poly(coeffs)
    assert p(t0) == sum(c * t0 ** i for i, c in enumerate(coeffs))
