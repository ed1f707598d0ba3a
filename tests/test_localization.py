"""Fixed-point sums over the Hilbert scheme of points of the plane.

The two independent routes to a fixed point's contribution (closed product
over two of the three legs, versus cancellation inside the full weight
quotient) must agree exactly; the summed contributions must be constant in
the equivariant parameter; and the constants must reproduce the known
integer values.  Integer values up to n = 7 were cross-checked against a
from-scratch reimplementation before being frozen here."""

import random
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from sheafcount import checks, localization, partitions
from sheafcount.errors import ConsistencyError
from sheafcount.localization import (
    _times_forms,
    contribution_from_characters,
    fixed_point_contribution,
    hilb_chern_integral,
    obstruction_character,
    p3_point_count,
    tangent_character,
)
from sheafcount.partitions import enumerate_partitions, enumerate_triples
from sheafcount.qseries import goettsche_series

# n = 8..10 are the coefficients of prod (1-q^m)^-7 (test_integrals_match_series)
INTEGRALS = [1, 7, 35, 140, 490, 1547, 4522, 12405, 32305, 80465, 192899]


@pytest.fixture(autouse=True)
def cold_legs():
    # the legs A_k and B_k, the split forms of each hook and sampled mode's
    # hooks and unions are cached per process: a leg packed under one test's
    # replaced _width, factors or mirror must not reach another test, and a
    # test that expects a leg to be summed must find the cache empty
    caches = (localization._a_leg, localization._b_leg,
              localization._hook_split, localization._leg_hooks)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def test_single_box_characters_frozen():
    assert tangent_character(((), (1,), ())) == ((-1, 0), (-1, 1))
    assert obstruction_character(((), (1,), ())) == ((-2, 0), (-2, 1))
    assert tangent_character(((), (), (1,))) == ((0, -1), (1, -1))
    assert obstruction_character(((), (), (1,))) == ((0, -2), (1, -2))
    assert tangent_character(((1,), (), ())) == ((0, 1), (1, 0))
    assert tangent_character(((), (), ())) == ()


def test_single_box_contributions_frozen():
    # scale, numerator forms, denominator forms; (j, i) means i*t + j
    c2 = fixed_point_contribution(((), (1,), ()))
    assert c2 == (2, ((-1, 2),), ((-1, 1),))
    assert str(c2) == "(4*t - 2)/(t - 1)"
    c3 = fixed_point_contribution(((), (), (1,)))
    assert c3 == (2, ((-2, 1),), ((-1, 1),))
    assert str(c3) == "(2*t - 4)/(t - 1)"
    # no boxes on the two contributing legs: empty product
    one = fixed_point_contribution(((3, 1), (), ()))
    assert one == (1, (), ()) and str(one) == "1"


def test_contribution_frozen_example():
    # (4t - 2)/(t - 1) from its unreduced forms: the scale comes out of the
    # numerator form, and the expanded numerator and denominator are as printed
    c = localization._contribution(([(-2, 4)], [(-1, 1)]))
    assert c == (2, ((-1, 2),), ((-1, 1),))
    assert str(c) == "(4*t - 2)/(t - 1)"
    assert _times_forms([2], c.num) == [-2, 4]
    assert _times_forms([1], c.den) == [-1, 1]


@pytest.mark.parametrize("fn", [tangent_character, obstruction_character,
                                fixed_point_contribution,
                                contribution_from_characters])
def test_non_partitions_are_refused(fn):
    # increasing parts and a zero part, at each position of the triple
    for bad in ((1, 2), (0,)):
        for k in range(3):
            triple = [(), (), ()]
            triple[k] = bad
            with pytest.raises(ValueError):
                fn(tuple(triple))


def test_contribution_routes_catch_swapped_legs(monkeypatch):
    # with G replaced by F the direct product of ((), (), (1,)) is the p2
    # box's, and check 3 names the first configuration where they differ
    monkeypatch.setattr(localization, "_p3_factors", localization._p2_factors)
    with pytest.raises(ConsistencyError) as err:
        checks.contribution_routes()
    assert str(err.value) == "contribution routes disagree at ((), (), (1,))"


def _at_point(forms, t0):
    """prod(num) / prod(den) at t0 for forms = (num, den), one Fraction per
    term: the reference value for the sampled sums, which it shares no code
    with.  ZeroDivisionError if t0 is a pole."""
    num, den = forms
    return (Fraction(prod(i * t0 + j for j, i in num))
            / prod(i * t0 + j for j, i in den))


def _random_form(rng):
    # the primitive form q*t - p of a root p/q; few roots, so that forms
    # coincide and cancel often
    r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return -r.numerator, r.denominator


def _presentation(rng, num, den):
    """Forms of the function prod(num) / prod(den), num and den lists of
    forms (j, i), presented another way: each form scaled by +-k, with the
    constant form (k, 0) on the other side, and one form put on both
    sides."""
    out = ([], [])
    for side, forms in enumerate((num, den)):
        for j, i in forms:
            k = rng.choice([-3, -2, -1, 1, 2, 5])
            out[side].append((k * j, k * i))
            out[1 - side].append((k, 0))
    shared = _random_form(rng)
    for forms in out:
        forms.insert(rng.randint(0, len(forms)), shared)
    return out


def test_contribution_is_canonical():
    # every presentation of one function gives one Contribution, and its
    # value is the function's wherever no form vanishes
    rng = random.Random(7)
    for _ in range(300):
        num = [_random_form(rng) for _ in range(rng.randint(0, 4))]
        den = [_random_form(rng) for _ in range(rng.randint(0, 4))]
        c = localization._contribution((num, den))
        for _ in range(3):
            forms = _presentation(rng, num, den)
            assert localization._contribution(forms) == c
            assert hash(localization._contribution(forms)) == hash(c)
        for t0 in (Fraction(7, 11), Fraction(-13, 17), Fraction(19, 2)):
            value = c.scale * prod(i * t0 + j for j, i in c.num) \
                / prod(i * t0 + j for j, i in c.den)
            assert value == _at_point(forms, t0)
        assert not Counter(c.num) & Counter(c.den)
        assert all(i > 0 for j, i in c.num + c.den)


def test_characters_are_sorted_tuples():
    for tr in enumerate_triples(3):
        t = tangent_character(tr)
        assert t == tuple(sorted(t))


def test_symbolic_integrals():
    for n in range(6):
        assert hilb_chern_integral(n) == INTEGRALS[n]


def test_per_triple_sum_catches_a_wrong_obstruction(monkeypatch):
    # with the obstruction equal to the tangent character every weight
    # quotient is 1, so the sum at n = 1 counts the 3 fixed points, not 7
    monkeypatch.setattr(localization, "obstruction_character",
                        tangent_character)
    assert localization._per_triple_sum(1) == 3
    with pytest.raises(ConsistencyError) as err:
        checks.sum_constancy()
    assert str(err.value) == "n=1: per-triple sum 3 != 7"


def _sum_points(legs, need):
    """need rational points t0 = p/q, none a zero of any form in legs."""
    forms = [f for num, den in legs for f in num + den]
    points = []
    p = 0
    while len(points) < need:
        p += 1
        for t0 in (Fraction(p, 3), Fraction(-p, 5)):
            if all(i * t0 + j for j, i in forms):
                points.append(t0)
    return points


def test_leg_sum_equals_rational_sum():
    # N / (c prod(L)) and the sum of F(lam) over the partitions of k are
    # both P / (c prod(L)), with deg P < len(N) for the first and at most
    # |L| + 2k for the second (2k numerator forms, |L| - |den| more from the
    # common denominator).  Agreeing at len(N) + |L| + 2k + 1 points where
    # no form vanishes, the two are one rational function.
    for factors in (localization._p2_factors, localization._p3_factors):
        for k in range(6):
            legs = [factors(lam) for lam in enumerate_partitions(k)]
            num, scale, den = localization._leg_poly(
                map(localization._contribution, legs))
            need = len(num) + sum(den.values()) + 2 * k + 1
            for t0 in _sum_points(legs, need):
                packed = (sum(c * t0 ** e for e, c in enumerate(num))
                          / (scale * prod(i * t0 + j for j, i in den.elements())))
                want = sum(_at_point(f, t0) for f in legs)
                assert packed == want, (factors, k, t0)


def test_leg_bound_holds(monkeypatch):
    # N_k expanded term by term, each term's forms multiplied out with
    # _times_forms over the leg's denominator, is the unpacked N_k, and its
    # l1 norm never exceeds the bound the packing width is taken from, so
    # the signed digits are the coefficients
    real = localization._width
    bounds = []

    def spy(bound, forms):
        bounds.append(bound)
        return real(bound, forms)

    monkeypatch.setattr(localization, "_width", spy)
    for factors in (localization._p2_factors, localization._p3_factors):
        for k in range(7):
            terms = [localization._contribution(factors(lam))
                     for lam in enumerate_partitions(k)]
            bounds.clear()
            N, scale, den = localization._leg_poly(terms)
            total = [0] * (sum(den.values()) + 2 * k + 1)
            for x in terms:
                term = _times_forms(
                    [scale // x.scale.denominator * x.scale.numerator],
                    [*x.num, *(den - Counter(x.den)).elements()])
                for e, c in enumerate(term):
                    total[e] += c
            while total and not total[-1]:
                total.pop()
            assert total == N, (factors, k)
            norm = sum(map(abs, total))
            assert bounds and norm <= bounds[0], (factors, k, norm, bounds)


def test_narrowed_width_never_gives_a_wrong_value(monkeypatch):
    # With the bound forced down to 1 the digits of a packed value need not
    # be its coefficients.  The final digits still evaluate to the packed
    # value at T, and T is kept above every root of the denominator D, so
    # D(T) != 0: digits that pass N = c * D give c = N(T) / D(T), the true
    # constant, and a narrowed final width can only raise false alarms.
    # Narrowed leg widths feed wrong legs into the sum; what is asserted here
    # is that the check then fails too.  So each n gives ConsistencyError or
    # the right value, never a wrong one, a hang or a bad shift count.
    # The l1 bound is what makes a passing check a proof of constancy.
    real = localization._width
    monkeypatch.setattr(localization, "_width",
                        lambda bound, forms: real(1, forms))
    for n in range(1, 11):
        try:
            value = hilb_chern_integral(n)
        except ConsistencyError:
            continue
        assert value == INTEGRALS[n], n


def test_narrowed_width_error_text(monkeypatch):
    # at n = 2 the narrowed digits of A_1 have one coefficient too many for
    # its one form, so the leg has no mirror image and the sum is not taken
    real = localization._width
    monkeypatch.setattr(localization, "_width",
                        lambda bound, forms: real(1, forms))
    with pytest.raises(ConsistencyError) as err:
        hilb_chern_integral(2)
    assert str(err.value) == (
        "leg A_1 has no mirror image: N = [-2, 0, 1], L = [(-1, 1)]")


def test_third_point_is_second_at_inverse():
    # G(lam)(t) = F(lam)(1/t): swapping the torus weights swaps the second
    # and third fixed points, and with s2 = 1 that is t -> 1/t.  A pole of
    # one side is a pole of the other.
    points = [Fraction(p, q) for p in (-7, -3, 2, 5, 11) for q in (1, 3, 4)]
    for k in range(9):
        for lam in enumerate_partitions(k):
            F = localization._p2_factors(lam)
            G = localization._p3_factors(lam)
            good = 0
            for t0 in points:
                try:
                    at_inverse = _at_point(F, 1 / t0)
                except ZeroDivisionError:
                    at_inverse = None
                try:
                    value = _at_point(G, t0)
                except ZeroDivisionError:
                    value = None
                assert value == at_inverse, (lam, t0)
                good += value is not None
            assert good >= 10, lam


def test_mirror_of_a_leg_is_b_leg():
    # N / (c prod(L)) = N' / (c' prod(L')) as rational functions exactly
    # when N c' prod(L') = N' c prod(L), both sides expanded
    for k in range(13):
        ps = enumerate_partitions(k)
        N, c, L = localization._mirror(localization._leg_poly(
            localization._contribution(localization._p2_factors(lam))
            for lam in ps), k)
        M, e, K = localization._leg_poly(
            localization._contribution(localization._p3_factors(lam))
            for lam in ps)
        assert (_times_forms([e * x for x in N], K.elements())
                == _times_forms([c * x for x in M], L.elements())), k


def test_a_leg_sums_the_printed_contributions():
    # A_k is the sum of the Contributions p3 --verbose prints for the
    # triples ((), lam, ()), packed by the same _leg_poly: the leg built from
    # each hook's split forms against the one split box by box
    for k in range(13):
        assert localization._a_leg(k) == localization._leg_poly(
            fixed_point_contribution(((), lam, ()))
            for lam in enumerate_partitions(k)), k


def test_a_leg_catches_a_wrong_hook_split(monkeypatch):
    # with the content of one hook's split numerator doubled, every F(lam)
    # with that hook is doubled in A_k, and the sum is no longer constant;
    # each of the 6 hooks with a + l < 3, in turn.  At n = 4, not 3: the
    # hook (0, 2) is in (3,) alone, which enters the sum at n = 3 only as
    # F((3,)) + G((3,)) = -4, a constant, so doubling it there gives 136,
    # wrong but constant; at n = 4 it enters as F((3,)) G((1,)) too
    split = localization._hook_split
    hook_list = [(a, l) for a in range(3) for l in range(3 - a)]
    assert len(hook_list) == 6
    for hook in hook_list:
        def doubled(a, l, hook=hook):
            (cn, num), den = split(a, l)
            return ((2 * cn if (a, l) == hook else cn, num), den)
        monkeypatch.setattr(localization, "_hook_split", doubled)
        localization._a_leg.cache_clear()
        localization._b_leg.cache_clear()
        with pytest.raises(ConsistencyError):
            hilb_chern_integral(4)


def _unreversed(real, leg, k):
    # the forms swapped and the sign flipped, but N not reversed
    N, c, L = real(leg, k)
    return N[::-1], c, L


def _unsigned(real, leg, k):
    # N reversed and the forms swapped, but N's sign not flipped
    N, c, L = real(leg, k)
    flips = sum(m for (j, _), m in leg[2].items() if j < 0)
    return [(-1) ** flips * x for x in N], c, L


@pytest.mark.parametrize("mutant", [_unreversed, _unsigned])
def test_broken_mirror_raises(monkeypatch, mutant):
    # the A legs are cached; the B legs are mirrored again once their cache
    # is cleared, as in a fresh process
    hilb_chern_integral(3)
    real = localization._mirror
    monkeypatch.setattr(localization, "_mirror",
                        lambda leg, k: mutant(real, leg, k))
    localization._b_leg.cache_clear()
    with pytest.raises(ConsistencyError):
        hilb_chern_integral(2)


@pytest.mark.parametrize("N, L", [
    ([1, 2, 3], {(-1, 1): 1}),    # degree 2 over one form
    ([0, 2], {(-1, 1): 1}),       # N(0) = 0
    ([1, 2], {(0, 1): 1}),        # the form t
])
def test_mirror_refuses_other_shapes(N, L):
    with pytest.raises(ConsistencyError) as err:
        localization._mirror((N, 1, Counter(L)), 5)
    assert str(err.value).startswith("leg A_5 has no mirror image: ")


def test_integrals_match_series():
    series = goettsche_series(7, 10)
    assert [series.coefficient(n) for n in range(11)] == INTEGRALS
    for n in range(11):
        assert hilb_chern_integral(n) == INTEGRALS[n]
    for n in range(11):
        for seed in (1, 2, 3):
            assert hilb_chern_integral(n, "sampled", seed=seed) == INTEGRALS[n]


def test_integrals_in_any_order():
    # one process, the cache cold at the start of each order: ascending adds
    # one leg a call, descending sums every leg in its first call, and the
    # shuffled order mixes the two; every value is [q^n] prod (1-q^m)^-7
    series = goettsche_series(7, 12)
    shuffled = list(range(13))
    random.Random(16).shuffle(shuffled)
    for order in (range(13), range(12, -1, -1), shuffled):
        localization._a_leg.cache_clear()
        localization._b_leg.cache_clear()
        for n in order:
            assert hilb_chern_integral(n) == series.coefficient(n), n
    assert localization._a_leg.cache_info().currsize == 13
    assert localization._b_leg.cache_info().currsize == 13


# the non-constant sums with G replaced by F, as _constant prints them: the
# numerator it checked over the expanded common denominator, unreduced
NON_CONSTANT = {
    1: "(9*t^2 - 14*t + 5)/(t^2 - 2*t + 1)",
    2: "(54*t^4 - 174*t^3 + 206*t^2 - 106*t + 20)"
       "/(t^4 - 4*t^3 + 6*t^2 - 4*t + 1)",
    3: "(255*t^10 - 5294/3*t^9 + 12866/3*t^8 - 9074/3*t^7 - 4576*t^6"
       " + 9582*t^5 - 4474*t^4 - 9094/3*t^3 + 12739/3*t^2 - 5284/3*t + 260)"
       "/(t^10 - 8*t^9 + 24*t^8 - 28*t^7 - 10*t^6 + 60*t^5 - 52*t^4"
       " - 4*t^3 + 33*t^2 - 20*t + 4)",
}


def test_non_constant_sum_raises(monkeypatch):
    # with B_k = A_k (G replaced by F) the legs are no longer mirror images,
    # and the factored sum is not constant in t; the symbolic B legs are
    # mirrored A legs, the sampled ones read F at the swapped point; the
    # A legs are cached first, and N = c * D is checked anyway
    hilb_chern_integral(3)
    monkeypatch.setattr(localization, "_mirror", lambda leg, k: leg)
    localization._b_leg.cache_clear()
    for n, text in NON_CONSTANT.items():
        with pytest.raises(ConsistencyError) as err:
            hilb_chern_integral(n)
        assert str(err.value) == (
            "localization sum for n=%d is not constant: %s" % (n, text))
    # sorting the point's two integers reads both legs at the same point
    legs_at = localization._legs_at
    monkeypatch.setattr(localization, "_legs_at",
                        lambda legs, M, p, q: legs_at(legs, M, *sorted((p, q))))
    with pytest.raises(ConsistencyError):
        hilb_chern_integral(2, "sampled")


def _f_at(lam, t0):
    """F(lam) at t0 by the character route, one Fraction per term: the
    reference for the sampled sums, which share neither its per-box arms
    and legs nor its forms.  ZeroDivisionError if t0 is a pole."""
    c = contribution_from_characters(((), lam, ()))
    return c.scale * _at_point((c.num, c.den), t0)


def _sampled_legs(n):
    """The legs _leg_hooks(k), k <= n, and the union M of their unions."""
    legs = [localization._leg_hooks(k) for k in range(n + 1)]
    M = Counter()
    for _, U in legs:
        M |= U
    return legs, M


def test_sampled_legs_equal_term_sums():
    # N_k / W against the sum of F(lam) term by term, at points with no pole
    n = 12
    legs, M = _sampled_legs(n)
    for t0 in (Fraction(104729, 7919), Fraction(-1299709, 15485863)):
        N, W = localization._legs_at(legs, M, t0.numerator, t0.denominator)
        for k in range(n + 1):
            assert Fraction(N[k], W) == sum(
                _f_at(lam, t0) for lam in enumerate_partitions(k))


def test_sampled_hooks_decode_to_the_partitions_hooks():
    # each index tuple of _leg_hooks(k) is hooks(lam) through _hook_id, in
    # enumerate_partitions order
    for k in range(13):
        ids = {localization._hook_id(a, l): (a, l)
               for a in range(k) for l in range(k - a)}
        H, _ = localization._leg_hooks(k)
        assert [[ids[h] for h in hs] for hs in H] == [
            partitions.hooks(lam) for lam in enumerate_partitions(k)], k


def test_hook_ids_follow_the_fill_order(monkeypatch):
    # _legs_at reads each hook (a, l) with a + l < n through _box_forms once,
    # and _hook_id maps them, in that order, onto range(n(n+1)/2): the
    # index of each hook is its place in the per-point lists
    box_forms = localization._box_forms
    read = []
    monkeypatch.setattr(localization, "_box_forms",
                        lambda a, l: read.append((a, l)) or box_forms(a, l))
    for n in range(17):
        legs, M = _sampled_legs(n)
        read.clear()
        localization._legs_at(legs, M, 104729, 7919)
        assert [localization._hook_id(a, l) for a, l in read] == list(
            range(n * (n + 1) // 2)), n
        assert sorted(read) == [(a, l) for a in range(n) for l in range(n - a)]


def test_sampled_unions_are_exact_up_to_sign():
    # every den of a leg divides the product W_U of its union, with no
    # remainder, although the union keeps each form only up to sign: its
    # keys lead with a positive coefficient, as _split's do.  U is the least
    # such union, each form as often as in the partition that has it most,
    # here counted box by box from _p2_factors: a smaller U can still pass
    # the division at a point, where a content multiple such as (0, 2)
    # stands in for (0, 1)
    for k in range(13):
        _, U = localization._leg_hooks(k)
        assert all(i > 0 or (i == 0 and j > 0) for j, i in U)
        least = Counter()
        for lam in enumerate_partitions(k):
            least |= Counter(map(localization._fold,
                                 localization._p2_factors(lam)[1]))
        assert U == least
        for p, q in ((104729, 7919), (-1299709, 15485863)):
            WU = prod((i * p + j * q) ** m for (j, i), m in U.items())
            for lam in enumerate_partitions(k):
                _, den = localization._p2_factors(lam)
                assert WU % prod(i * p + j * q for j, i in den) == 0, lam


def _faulty_sampled(n, fault):
    """hilb_chern_integral(n, "sampled") with the legs and the union M of
    every _legs_at call replaced by fault(legs, M)."""
    legs_at = localization._legs_at
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(localization, "_legs_at", lambda legs, M, p, q:
                   legs_at(*fault(legs, M), p, q))
        return hilb_chern_integral(n, "sampled")


def test_sampled_sum_catches_a_term_over_the_whole(monkeypatch):
    # with the den forms of one hook read as empty at each point, while the
    # unions, cached first, keep them, every term with that hook is taken
    # over W_U // (the other dens) instead of W_U // prod(den): it is F(lam)
    # times that hook's den, and the values disagree; each of the 6 hooks
    # of n = 3, in turn
    hilb_chern_integral(3, "sampled")
    box_forms = localization._box_forms
    hooks = [(a, l) for a in range(3) for l in range(3 - a)]
    assert len(hooks) == 6
    for hook in hooks:
        monkeypatch.setattr(localization, "_box_forms", lambda a, l: (
            box_forms(a, l)[0], () if (a, l) == hook else box_forms(a, l)[1]))
        with pytest.raises(ConsistencyError):
            hilb_chern_integral(3, "sampled")


def test_sampled_sum_catches_a_form_dropped_from_the_union():
    # without one of its forms W need not be a multiple of the union of a
    # leg, and a rounded W // W_U makes the values disagree: each of the
    # 9 forms of the union at n = 3, folded up to sign, in turn
    _, M = _sampled_legs(3)
    assert len(M) == 9
    for f in M:
        with pytest.raises(ConsistencyError):
            _faulty_sampled(3, lambda legs, M: (legs, M - Counter([f])))


def test_sampled_integrals():
    for n in range(8):
        assert hilb_chern_integral(n, "sampled") == INTEGRALS[n]
    for n in range(6):
        symbolic = hilb_chern_integral(n)
        for seed in (1, 2, 3):
            assert hilb_chern_integral(n, "sampled", seed=seed) == symbolic


def test_sampled_resamples_on_pole(monkeypatch):
    # the first point drawn is t = 1/1, a pole of the contribution of
    # ((), (1,), ()); it must be skipped, not summed or raised
    real = localization.random.Random
    draws = []

    class FirstDrawIsOne:
        def __init__(self, seed):
            self.rng = real(seed)

        def randint(self, lo, hi):
            draws.append((lo, hi))
            return 1 if len(draws) <= 2 else self.rng.randint(lo, hi)

    monkeypatch.setattr(localization.random, "Random", FirstDrawIsOne)
    assert fixed_point_contribution(((), (1,), ())).den == ((-1, 1),)
    assert hilb_chern_integral(2, "sampled") == 35
    assert len(draws) == 8   # the pole, then three good points


def test_sampled_resamples_on_a_pole_of_a_folded_form(monkeypatch):
    # the first point drawn is t = 0/1, where the den form (0, -1) of the
    # box of (1,), which is -t, vanishes; the union holds it only as its
    # folded key (0, 1), so the draw must be skipped, not summed or raised
    real = localization.random.Random
    draws = []

    class FirstDrawIsZero:
        def __init__(self, seed):
            self.rng = real(seed)

        def randint(self, lo, hi):
            draws.append((lo, hi))
            if len(draws) <= 2:
                return len(draws) - 1   # p = 0, then q = 1
            return self.rng.randint(lo, hi)

    monkeypatch.setattr(localization.random, "Random", FirstDrawIsZero)
    assert (0, -1) in localization._p2_factors((1,))[1]
    _, U = localization._leg_hooks(1)
    assert U[0, 1] == 1 and (0, -1) not in U
    assert hilb_chern_integral(2, "sampled") == 35
    assert len(draws) == 8   # the pole, then three good points


def test_sampled_seed_determinism():
    a = hilb_chern_integral(5, "sampled", seed=123)
    b = hilb_chern_integral(5, "sampled", seed=123)
    c = hilb_chern_integral(5, "sampled", seed=None)   # default seed path
    assert a == b == c == INTEGRALS[5]


def test_sampled_more_points():
    assert hilb_chern_integral(4, "sampled", samples=7) == 490


def test_sampled_needs_three_points():
    with pytest.raises(ValueError):
        hilb_chern_integral(3, "sampled", samples=2)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        hilb_chern_integral(2, "numeric")


def test_point_count_table():
    assert p3_point_count(2, 0) == 6
    assert p3_point_count(0, 1) == 0
    assert p3_point_count(1, 1) == 2
    assert p3_point_count(1, 2) == 1
    with pytest.raises(ValueError):
        p3_point_count(0, 2)
    for s, d in ((-5, 0), (1, -5)):
        with pytest.raises(ValueError, match="s=%d, d=%d" % (s, d)):
            p3_point_count(s, d)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        hilb_chern_integral(-1)
