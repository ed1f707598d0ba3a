"""Truncated fractional-grid q-expansions and the Euler products.

Product coefficients are rechecked against a term-by-term binomial-series
expansion written here in the test, which shares no code with the module's
repeated-convolution route.  Series products, which the module convolves in
integers over one denominator per operand, are rechecked against a
term-by-term Fraction product written here too, on random series.  Truncation bookkeeping
gets its own tests because a silently wrong tail is the failure mode that
matters."""

import math
import random
from fractions import Fraction

import pytest

from sheafcount import qseries
from sheafcount.errors import ConsistencyError
from sheafcount.qseries import (
    PuiseuxSeries,
    goettsche_series,
    hilb_euler,
)

GOETTSCHE24 = [1, 24, 324, 3200, 25650, 176256, 1073720, 5930496, 30178575]
ETA24 = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643]


def binomial_euler_pow(e, top):
    # prod_k (1-q^k)^e by multiplying one binomial series at a time;
    # works for either sign of e
    co = [Fraction(0)] * (top + 1)
    co[0] = Fraction(1)
    for k in range(1, top + 1):
        new = [Fraction(0)] * (top + 1)
        for i, c in enumerate(co):
            if not c:
                continue
            j = 0
            while i + k * j <= top:
                if e >= 0:
                    term = (-1) ** j * math.comb(e, j) if j <= e else 0
                else:
                    term = math.comb(-e + j - 1, j)
                if term:
                    new[i + k * j] += c * term
                j += 1
        co = new
    return co


def fraction_product(a, b):
    # (grid, coeffs, trunc) of a * b, term by term in Fractions on the lcm
    # grid; the coefficient at k is known while every split k = i + j keeps
    # i and j at or below their own truncations
    grid = math.lcm(a.grid, b.grid)
    fa, fb = grid // a.grid, grid // b.grid
    lo_a = min(a.coeffs, default=a.trunc) * fa
    lo_b = min(b.coeffs, default=b.trunc) * fb
    trunc = min(a.trunc * fa + lo_b, b.trunc * fb + lo_a)
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            k = i * fa + j * fb
            if k <= trunc:
                out[k] = out.get(k, Fraction(0)) + x * y
    return grid, {k: v for k, v in out.items() if v}, trunc


def test_goettsche_frozen_prefix():
    g = goettsche_series(24, 8)
    for m, c in enumerate(GOETTSCHE24):
        assert g.coefficient(m) == c


def test_goettsche_enriques_prefix():
    g = goettsche_series(12, 4)
    assert [g.coefficient(m) for m in range(5)] == [1, 12, 90, 520, 2535]


def test_goettsche_against_binomial_expansion():
    for e in (1, 2, 12, 24, -24):
        want = binomial_euler_pow(-e, 12)
        g = goettsche_series(e, 12)
        assert [g.coefficient(m) for m in range(13)] == want


def test_eta24_frozen_prefix():
    # prod (1-q^n)^24, the 24th power of eta divided by q
    e = goettsche_series(-24, 8)
    assert [e.coefficient(m) for m in range(9)] == ETA24


def test_eta_goettsche_inverse_to_30():
    # eta^24 to order q^31 is spelled goettsche_series(-24, 30).shift(1)
    eta = goettsche_series(-24, 30).shift(1)
    assert eta.trunc == 31 and eta.coefficient(0) == 0
    prod = eta * goettsche_series(24, 30).shift(-1)
    assert prod.trunc == 30 and prod.grid == 1
    assert prod == PuiseuxSeries(1, {0: 1}, 30)


def test_goettsche_additive_in_euler_number():
    for e1 in (-24, 0, 12, 24):
        for e2 in (-24, 0, 12, 24):
            lhs = goettsche_series(e1, 20) * goettsche_series(e2, 20)
            assert lhs == goettsche_series(e1 + e2, 20)


def test_goettsche_nonnegative_integer_coefficients():
    for e in (1, 12, 24):
        g = goettsche_series(e, 30)
        for m in range(31):
            c = g.coefficient(m)
            assert c.denominator == 1 and c >= 0


def test_hilb_euler_values():
    g = goettsche_series(24, 20)
    for m in range(21):
        assert hilb_euler(m) == g.coefficient(m)
    assert hilb_euler(-1) == 0
    assert hilb_euler(-5, 12) == 0
    assert hilb_euler(2, 12) == 90
    assert hilb_euler(3, 0) == 0
    assert hilb_euler(0, 0) == 1


def test_euler_pow_cache_drops_least_recently_used(monkeypatch):
    # 65 distinct exponents leave 64 keys; -32 was read again after the
    # first 64 were filled, so -31 is the least recently used and goes
    monkeypatch.setattr(qseries, "_euler_pow_cache", {})
    assert qseries._EULER_POW_KEYS == 64
    for k in range(-32, 32):
        qseries._euler_pow(k, 1)
    assert qseries._euler_pow(-32, 3) == binomial_euler_pow(-32, 3)
    qseries._euler_pow(32, 1)
    cache = qseries._euler_pow_cache
    assert len(cache) == 64
    assert -31 not in cache and -32 in cache
    assert list(cache)[-2:] == [-32, 32]


@pytest.mark.parametrize("k", [-1000, -24, -7, -1, 1, 24, 1000])
def test_euler_pow_certificate_names_the_first_bad_index(monkeypatch, k):
    # a wrong [q^m] of the base product makes every power wrong from q^m on;
    # the pentagonal certificate raises at index m, before the list is
    # cached, and the lists that stop short of q^m pass
    real = qseries._euler_coeffs

    def off_by_one(terms):
        co = real(terms)
        if terms >= 40:
            co[40] += 1
        return co
    monkeypatch.setattr(qseries, "_euler_pow_cache", {})
    monkeypatch.setattr(qseries, "_euler_coeffs", off_by_one)
    assert qseries._euler_pow(k, 39) == binomial_euler_pow(k, 39)
    qseries._euler_pow_cache.clear()
    with pytest.raises(ConsistencyError) as err:
        qseries._euler_pow(k, 60)
    assert str(err.value) == ("[q^40] prod (1-q^n)^%d fails the pentagonal "
                              "theorem's certificate" % k)
    assert k not in qseries._euler_pow_cache


def test_euler_pow_certificate_checks_each_fill_once(monkeypatch):
    # cached lists are read without a second check: a read the cache covers
    # certifies nothing, and a refill certifies its new list once
    certified = []
    certify = qseries._certify_euler_pow
    monkeypatch.setattr(qseries, "_euler_pow_cache", {})
    monkeypatch.setattr(qseries, "_certify_euler_pow", lambda k, f: (
        certified.append((k, len(f))), certify(k, f)))
    qseries._euler_pow(-24, 10)
    qseries._euler_pow_at(-24, 7)
    goettsche_series(24, 10)
    hilb_euler(10)
    assert certified == [(-24, 11)]
    hilb_euler(11)   # a refill to twice the length
    assert certified == [(-24, 11), (-24, 23)]


def test_euler_pow_certificate_rejects_each_wrong_coefficient():
    # against the binomial expansion, which shares no code with the fill or
    # the check: the true list passes, and one coefficient off by one fails
    # at its own index, f_0 included
    for k in (-1000, -24, -1, 0, 1, 7, 1000):
        f = binomial_euler_pow(k, 40)
        qseries._certify_euler_pow(k, f)
        for m in (0, 1, 17, 40):
            g = list(f)
            g[m] -= 1
            with pytest.raises(ConsistencyError, match=r"\[q\^%d\] " % m):
                qseries._certify_euler_pow(k, g)


def test_terms_validation():
    with pytest.raises(ValueError):
        goettsche_series(24, 0)


# -- series mechanics ---------------------------------------------------

def test_constructor_normalizes():
    s = PuiseuxSeries(2, {1: Fraction(1, 2), 3: 0}, 6)
    assert s.coeffs == {1: Fraction(1, 2)}
    assert repr(s) == "PuiseuxSeries(grid=2, {1: Fraction(1, 2)}, trunc=6)"
    with pytest.raises(ValueError):
        PuiseuxSeries(2, {7: 1}, 6)      # above truncation
    with pytest.raises(ValueError):
        PuiseuxSeries(0, {}, 1)
    with pytest.raises(ValueError, match="floating point"):
        PuiseuxSeries(1, {0: 0.1}, 3)


def test_constructor_refuses_bool():
    # bool is an int subclass: True would be stored as an exponent or grid
    for grid, coeffs, trunc in ((1, {True: 1}, 3), (1, {False: 1}, 3),
                                (True, {}, 3), (1, {}, True)):
        with pytest.raises(ValueError, match="integer"):
            PuiseuxSeries(grid, coeffs, trunc)


def test_equality_is_grid_invariant():
    a = PuiseuxSeries(1, {1: 5}, 5)
    b = PuiseuxSeries(2, {2: 5}, 10)
    assert a == b
    assert hash(a) == hash(b)
    assert (a == "q") is False
    assert a != PuiseuxSeries(1, {1: 5}, 6)
    # refining keeps the series; a grid that is no multiple is refused
    assert b.with_grid(6) == b and b.with_grid(6).grid == 6
    with pytest.raises(ValueError, match="grid 3 does not refine 2"):
        b.with_grid(3)


def test_coefficient_lookup_rules():
    s = PuiseuxSeries(8, {-7: Fraction(3, 4), 1: 18}, 17)
    assert s.coefficient(Fraction(-7, 8)) == Fraction(3, 4)
    assert s.coefficient(Fraction(1, 2)) == 0       # on a coarser point, zero
    assert s.coefficient(Fraction(1, 3)) == 0       # off-grid but below bound
    with pytest.raises(ValueError):
        s.coefficient(3)                            # beyond the bound


def test_addition_mixed_grids():
    a = PuiseuxSeries(2, {1: 1}, 8)       # q^(1/2), known to q^4
    b = PuiseuxSeries(3, {3: 2}, 9)       # 2q, known to q^3
    s = a + b
    assert s.grid == 6 and s.bound == 3
    assert s.coefficient(Fraction(1, 2)) == 1
    assert s.coefficient(1) == 2
    with pytest.raises(TypeError):
        a + "q"


def test_scalar_addition_keeps_truncation():
    s = PuiseuxSeries(8, {-7: Fraction(1, 4)}, 17)
    t = s + 3
    assert t.trunc == 17 and t.grid == 8
    assert t.coefficient(0) == 3


def test_multiplication_truncation_rule():
    # bound of the product is min over factors of (own bound + other's
    # lowest exponent)
    a = PuiseuxSeries(1, {2: 1}, 10)
    b = PuiseuxSeries(1, {-1: 1, 0: 4}, 3)
    p = a * b
    assert p.trunc == 5                   # min(10 + (-1), 3 + 2)
    assert p.coefficient(1) == 1 and p.coefficient(2) == 4
    # mixed grids and coprime denominators: the product is over 7 * 999
    a = PuiseuxSeries(1, {0: Fraction(1, 7), 1: Fraction(3, 7)}, 5)
    b = PuiseuxSeries(2, {-2: Fraction(1, 999), 2: Fraction(5, 999)}, 6)
    p = a * b
    assert p.grid == 2 and p.trunc == 6   # min(10 - 2, 6 + 0)
    assert p.coeffs == {-2: Fraction(1, 6993), 0: Fraction(3, 6993),
                        2: Fraction(5, 6993), 4: Fraction(15, 6993)}
    # an empty factor's lowest exponent is its truncation
    empty = PuiseuxSeries(3, {}, 4)
    p = empty * b
    assert p.coeffs == {} and p.grid == 6 and p.trunc == 2   # min(8 - 6, 18 + 8)


def test_multiplication_by_scalar():
    a = PuiseuxSeries(4, {1: Fraction(1, 3)}, 9)
    assert (a * 3).coefficient(Fraction(1, 4)) == 1
    assert (a * 0).coeffs == {}
    with pytest.raises(TypeError):
        a * "q"


def test_sums_and_products_that_cancel_store_no_zero():
    # the constructor drops zero coefficients, so a sum or a product that
    # cancels a coefficient leaves no key behind, and an exact zero is falsy
    s = PuiseuxSeries(2, {1: 1, 3: Fraction(2, 3)}, 8)
    neg = s * PuiseuxSeries(1, {0: -1}, 20)
    assert neg == s * (-1) and neg.trunc == 8
    zero = s + neg
    assert zero.coeffs == {} and not zero and zero.trunc == 8
    p = PuiseuxSeries(1, {0: 1, 1: 1}, 6) * PuiseuxSeries(1, {0: 1, 1: -1}, 6)
    assert p.coeffs == {0: 1, 2: -1} and p.trunc == 6
    # (1/7 + q/999)(1/7 - q/999): the q terms cancel over 7 * 999
    plus = PuiseuxSeries(1, {0: Fraction(1, 7), 1: Fraction(1, 999)}, 3)
    minus = PuiseuxSeries(1, {0: Fraction(1, 7), 1: Fraction(-1, 999)}, 3)
    assert (plus * minus).coeffs == {0: Fraction(1, 49),
                                     2: Fraction(-1, 998001)}


def test_shift_refines_grid():
    s = PuiseuxSeries(1, {0: 1, 1: 2}, 4)
    t = s.shift(Fraction(9, 8))
    assert t.grid == 8
    assert t.coefficient(Fraction(9, 8)) == 1
    assert t.coefficient(Fraction(17, 8)) == 2
    assert t.bound == Fraction(4) + Fraction(9, 8)
    assert t.shift(Fraction(-9, 8)) == s


def test_ring_identities_random():
    rng = random.Random(85)
    def rand_series():
        grid = rng.choice([1, 2, 3])
        trunc = rng.randint(2, 8)
        coeffs = {rng.randint(-3, trunc): Fraction(rng.randint(-5, 5),
                                                   rng.choice([1, 7, 999]))
                  for _ in range(rng.randint(0, 4))}
        coeffs = {k: v for k, v in coeffs.items() if k <= trunc}
        return PuiseuxSeries(grid, coeffs, trunc)
    for _ in range(300):
        a, b, c = rand_series(), rand_series(), rand_series()
        # against the term-by-term product, on mixed grids with coprime
        # denominators, negative exponents and empty factors
        p = a * b.shift(-1)
        assert (p.grid, p.coeffs, p.trunc) == fraction_product(a, b.shift(-1))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        # distributivity needs a common truncation to compare on
        lhs = a * (b + c)
        rhs = a * b + a * c
        t = min(lhs.bound, rhs.bound)
        assert lhs.truncate(t) == rhs.truncate(t)


def test_truncate_floor_behavior():
    s = PuiseuxSeries(8, {-7: 1, 1: 2, 9: 3}, 17)
    t = s.truncate(Fraction(9, 8))
    assert t.trunc == 9 and t.coefficient(Fraction(9, 8)) == 3
    u = s.truncate(1)
    assert u.trunc == 8 and 9 not in u.coeffs
    assert s.truncate(100).trunc == 17   # never extends knowledge


def test_shift_helper_and_min_exponent():
    s = PuiseuxSeries(2, {-1: 7}, 4)
    assert s.shift(Fraction(1, 2)) == PuiseuxSeries(2, {0: 7}, 5)
