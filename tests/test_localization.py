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
from math import factorial, lcm, prod

import pytest

from sheafcount import cli, localization, partitions, qseries
from sheafcount.errors import ConsistencyError
from sheafcount.localization import (
    _times_forms,
    contribution_from_characters,
    fixed_point_contribution,
    hilb_chern_integral,
    obstruction_character,
    tangent_character,
)
from sheafcount.partitions import enumerate_partitions, enumerate_triples
from sheafcount.qseries import goettsche_series
from test_acceptance import _mutant, census_selection

# n = 8..10 are the coefficients of prod (1-q^m)^-7 (test_integrals_match_series)
INTEGRALS = [1, 7, 35, 140, 490, 1547, 4522, 12405, 32305, 80465, 192899]

# the first point sampled mode draws at its default seed, which the
# sampled-mode errors below name
FIRST_POINT = 370998


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


def _raw_forms(lam, side=0):
    """(num, den) of F(lam) (side 0) or G(lam) (side 1) unsplit: _box_forms
    over the hooks of lam, each form read as (i, j) for G."""
    num, den = [], []
    for a, l in partitions.hooks(lam):
        box_num, box_den = localization._box_forms(a, l)
        num += box_num
        den += box_den
    if side:
        return [f[::-1] for f in num], [f[::-1] for f in den]
    return num, den


def _split_forms(lam, side):
    """(num, den) of F(lam) (side 0) or G(lam) (side 1) as _leg_split gives
    them, its integers cn and cd kept as the constant forms (cn, 0) and
    (cd, 0)."""
    cn, num, cd, den = localization._leg_split(lam, side)
    return num + [(cn, 0)], den + [(cd, 0)]


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
    # no form vanishes, the two are one rational function.  The terms are
    # _leg_split's split forms, the reference their unsplit _box_forms.
    for side in (0, 1):
        for k in range(6):
            partitions_k = enumerate_partitions(k)
            legs = [_raw_forms(lam, side) for lam in partitions_k]
            num, scale, den = localization._leg_poly(
                localization._cancel(*localization._leg_split(lam, side))
                for lam in partitions_k)
            need = len(num) + sum(den.values()) + 2 * k + 1
            for t0 in _sum_points(legs, need):
                packed = (sum(c * t0 ** e for e, c in enumerate(num))
                          / (scale * prod(i * t0 + j for j, i in den.elements())))
                want = sum(_at_point(f, t0) for f in legs)
                assert packed == want, (side, k, t0)


def _flat_leg(terms):
    """(N, c, L) of a sum of Contributions the flat way, the reference for
    _leg_poly's merge: L the multiset union of their dens, c the lcm of
    their scales' denominators, and N the sum of each term's scale times c
    times its num forms and the forms of L its den lacks, expanded by
    _times_forms, trailing zeros dropped."""
    L = Counter()
    for x in terms:
        L |= Counter(x.den)
    c = lcm(*(x.scale.denominator for x in terms))
    N = []
    for x in terms:
        term = _times_forms([c // x.scale.denominator * x.scale.numerator],
                            [*x.num, *(L - Counter(x.den)).elements()])
        N += [0] * (len(term) - len(N))
        for e, y in enumerate(term):
            N[e] += y
    while N and not N[-1]:
        N.pop()
    return N, c, L


def _leg_terms(k, side=0):
    """The Contributions leg k sums on the F (0) or G (1) side."""
    return [localization._cancel(*localization._leg_split(lam, side))
            for lam in enumerate_partitions(k)]


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
    for side in (0, 1):
        for k in range(7):
            terms = _leg_terms(k, side)
            bounds.clear()
            N, scale, den = localization._leg_poly(terms)
            total = _flat_leg(terms)[0]
            assert total == N, (side, k)
            norm = sum(map(abs, total))
            assert bounds and norm <= bounds[0], (side, k, norm, bounds)


def test_merged_leg_equals_the_flat_sum():
    # the balanced merge returns what the flat sum over the whole union
    # does, (N, c, L) alike: on every leg k <= 12, both sides; on the
    # per-triple contributions of the character route for n <= 5; and on a
    # single term
    for side in (0, 1):
        for k in range(13):
            terms = _leg_terms(k, side)
            assert localization._leg_poly(terms) == _flat_leg(terms), (side, k)
    for n in range(6):
        terms = [contribution_from_characters(tr)
                 for tr in enumerate_triples(n)]
        assert localization._leg_poly(terms) == _flat_leg(terms), n
    one = [fixed_point_contribution(((1,), (2, 1), (1, 1)))]
    assert one[0].den
    assert localization._leg_poly(one) == _flat_leg(one)


def test_cancel_is_the_multiset_difference():
    # the one merge of the sorted form lists leaves what the multiset
    # differences leave, each sorted
    rng = random.Random(11)
    for _ in range(300):
        num = [_random_form(rng) for _ in range(rng.randint(0, 6))]
        den = [_random_form(rng) for _ in range(rng.randint(0, 6))]
        c = localization._cancel(2, num, 3, den)
        assert c.scale == Fraction(2, 3)
        assert c.num == tuple(sorted((Counter(num) - Counter(den)).elements()))
        assert c.den == tuple(sorted((Counter(den) - Counter(num)).elements()))


def _route_c_leg(k):
    """S_k's integer coefficients, lowest first, expanded by this file's own
    code: route C valued at t = 0, ..., k through _c_legs, S_k having degree
    k, and interpolated by Newton's divided differences in Fractions."""
    c = [Fraction(localization._c_legs(k, lambda f: f[0] + f[1] * t)[k])
         for t in range(k + 1)]
    for j in range(1, k + 1):
        for i in range(k, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / j
    S = [c[k]]   # Horner on the Newton form, c_i times prod (t - x), x < i
    for i in range(k - 1, -1, -1):
        S = [a - i * b for a, b in zip([0] + S, S + [0])]
        S[0] += c[i]
    assert all(x.denominator == 1 for x in S), k
    return [int(x) for x in S]


def _expanded_verdict(k, N, c, L):
    """The expanded certificate _a_leg took before it packed both sides:
    k! N (t-1)^k and c S_k prod(L), S_k signed over (t-1)^k, multiplied out
    by _times_forms and compared coefficient by coefficient."""
    S = [(-1) ** k * x for x in _route_c_leg(k)]
    return (_times_forms([factorial(k) * x for x in N], [(-1, 1)] * k)
            == _times_forms([c * x for x in S], L.elements()))


def test_packed_certificate_agrees_with_the_expanded_one(monkeypatch):
    # for every leg k <= 12, the packed certificate and the expanded one
    # accept the true leg, and both reject it with N[0] + 1
    leg_poly = localization._leg_poly
    for k in range(13):
        N, c, L = leg_poly(_leg_terms(k))
        for wrong in (0, 1):
            leg = ([N[0] + wrong, *N[1:]], c, L)
            monkeypatch.setattr(localization, "_leg_poly",
                                lambda terms, leg=leg: leg)
            localization._a_leg.cache_clear()
            try:
                localization._a_leg(k)
                packed = True
            except ConsistencyError:
                packed = False
            assert packed == _expanded_verdict(k, *leg) == (not wrong), \
                (k, wrong)


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
    # at n = 2 the narrowed digits of A_1 are not its coefficients, so the
    # leg disagrees with route C and the sum is not taken
    real = localization._width
    monkeypatch.setattr(localization, "_width",
                        lambda bound, forms: real(1, forms))
    with pytest.raises(ConsistencyError) as err:
        hilb_chern_integral(2)
    assert str(err.value) == (
        "leg A_1 disagrees with route C: (t^2 - 2)/(t - 1), not "
        "(4*t - 2)/(t - 1)")


def test_third_point_is_second_at_inverse():
    # G(lam)(t) = F(lam)(1/t): swapping the torus weights swaps the second
    # and third fixed points, and with s2 = 1 that is t -> 1/t.  A pole of
    # one side is a pole of the other.  Both sides are _leg_split's.
    points = [Fraction(p, q) for p in (-7, -3, 2, 5, 11) for q in (1, 3, 4)]
    for k in range(9):
        for lam in enumerate_partitions(k):
            F = _split_forms(lam, 0)
            G = _split_forms(lam, 1)
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


def test_reversed_c_leg_is_the_third_point_leg():
    # B_k, the sum of G(lam) = F(lam)(1/t), is (-1)^k rev(S_k) / (k! (1-t)^k)
    # = rev(S_k) / (k! (t-1)^k): as rational functions N / (c prod(L)) =
    # rev(S_k) / (k! (t-1)^k) exactly when k! N (t-1)^k = c rev(S_k) prod(L)
    for k in range(13):
        N, c, L = localization._leg_poly(_leg_terms(k, 1))
        S = _route_c_leg(k)
        assert len(S) == k + 1, k
        assert (_times_forms([factorial(k) * x for x in N], [(-1, 1)] * k)
                == _times_forms([c * x for x in reversed(S)], L.elements())), k


def test_c_leg_ends_are_euler_powers():
    # A_k = R_k / (1-t)^k = [x^k] prod (1-x^m)^E(t), E(t) = 2(2t-1)/(1-t):
    # at t = 0, E = -2 and A_k = R_k(0); as t -> oo, E -> -4 and A_k tends to
    # (-1)^k times the leading coefficient of R_k.  Both ends of
    # S_k = k! R_k are read by evaluation, S_k(0) = r_k(1, 2) and, r_k being
    # homogeneous of degree k, (-1)^k lead(S_k) = r_k(1, 4), against the
    # q-series Euler powers, which share no code with the recurrence
    at_zero, at_infinity = goettsche_series(2, 16), goettsche_series(4, 16)
    zero = localization._c_legs(16, lambda f: f[0])
    infinity = localization._c_legs(16, lambda f: -f[1])
    for k in range(17):
        assert Fraction(zero[k], factorial(k)) == at_zero.coefficient(k), k
        assert (Fraction(infinity[k], factorial(k))
                == at_infinity.coefficient(k)), k


def test_a_leg_sums_the_printed_contributions():
    # A_k is the sum of the Contributions p3 --verbose prints for the
    # triples ((), lam, ()), packed by the same _leg_poly: both read the F
    # side of each hook's split forms through _leg_split
    for k in range(13):
        assert localization._a_leg(k) == localization._leg_poly(
            fixed_point_contribution(((), lam, ()))
            for lam in enumerate_partitions(k)), k


def test_a_leg_catches_a_wrong_hook_split(monkeypatch):
    # with the content of one hook's split numerator doubled, every F(lam)
    # with that hook is doubled in A_k, which then disagrees with route C at
    # the first leg that has the hook, k = a + l + 1, named in the error;
    # each of the 6 hooks with a + l < 3, in turn.  The sum alone misses two
    # of them: (0, 2) is in (3,) alone, which enters the sum at n = 3 only
    # as F((3,)) + G((3,)) = -4, a constant, so the doubled sum is 136, wrong
    # but constant, and at n = 1, (0, 0) gives 1 + 2 * 6 = 13
    split = localization._hook_split
    hook_list = [(a, l) for a in range(3) for l in range(3 - a)]
    assert len(hook_list) == 6
    for hook in hook_list:
        def doubled(a, l, side, hook=hook):
            (cn, num), den = split(a, l, side)
            return (2 * cn if (a, l) == hook else cn, num), den
        monkeypatch.setattr(localization, "_hook_split", doubled)
        localization._a_leg.cache_clear()
        k = sum(hook) + 1
        with pytest.raises(ConsistencyError) as err:
            hilb_chern_integral(k)
        assert str(err.value).startswith(
            "leg A_%d disagrees with route C: " % k), hook


def test_box_forms_mutant_raises_in_symbolic_mode(monkeypatch):
    # the numerator forms of the hook (0, 2) doubled at the one recipe both
    # modes read: symbolic mode splits them into a doubled content, and A_3
    # disagrees with route C at n = 3, where the sum alone is 136, constant
    box_forms = localization._box_forms

    def doubled(a, l):
        num, den = box_forms(a, l)
        if (a, l) == (0, 2):
            num = ((2 * num[0][0], 2 * num[0][1]),) + num[1:]
        return num, den
    monkeypatch.setattr(localization, "_box_forms", doubled)
    with pytest.raises(ConsistencyError) as err:
        hilb_chern_integral(3)
    assert str(err.value).startswith("leg A_3 disagrees with route C: ")


def test_c_at_counts_partitions():
    # at d = e = 1, r_k / k! is [x^k] prod (1-x^m)^-1, the number of
    # partitions of k, here against enumerate_partitions, which shares no
    # code with the recurrence, and against a known value
    for k in range(26):
        assert (localization._c_at(k, 1, 1)[k]
                == factorial(k) * len(enumerate_partitions(k))), k
    assert localization._c_at(100, 1, 1)[100] // factorial(100) == 190569292


def test_c_leg_first_values():
    # S_k = k! R_k for k <= 3, from the recurrence by hand with d = 1 - t:
    # S_1 = 2 - 4t, S_2 = S_1 (S_1 + 3d), S_3 = S_1 (S_2 + 6d S_1 + 8d^2).
    # _c_legs at d and e valued at t is a polynomial of degree k in t, so
    # agreeing at the k + 1 points t = 0, ..., k it is S_k
    hand = [[1], [2, -4], [10, -34, 28], [60, -292, 464, -240]]
    for k, S in enumerate(hand):
        for t in range(k + 1):
            assert (localization._c_legs(k, lambda f: f[0] + f[1] * t)[k]
                    == sum(x * t ** e for e, x in enumerate(S))), (k, t)


@pytest.mark.parametrize("mode", ["symbolic", "sampled"])
def test_dropped_partition_raises(monkeypatch, mode):
    # a partition of 3 missing from the partitions the legs sum: the counts
    # come from route C's recurrence and stay right, so leg A_3's own
    # certificate against route C raises in both modes from n = 3
    def dropped(k):   # (3,) left out of the partitions of 3
        lams = enumerate_partitions(k)
        return lams[1:] if k == 3 else lams
    monkeypatch.setattr(localization, "enumerate_partitions", dropped)
    for n in range(3):
        assert hilb_chern_integral(n, mode) == INTEGRALS[n], n
    error = {"symbolic": "leg A_3 disagrees with route C: ",
             "sampled": "leg A_3 disagrees with route C at t = %d"
             % FIRST_POINT}
    for n in range(3, 9):
        with pytest.raises(ConsistencyError) as err:
            hilb_chern_integral(n, mode)
        assert str(err.value).startswith(error[mode]), n


# the route census of the plane integral is rows of the package census
# (CENSUS in tests/test_acceptance.py); its former tests keep their ids,
# each running the rows that carry it
for _family in ("census_mutants", "census_split_and_cancel_mutants",
                "route_c_mutant_raises", "sampled_route_c_mutant_raises",
                "merge_mutant_raises", "convolve_mutant_raises",
                "constant_mutant_raises", "wrong_count_raises",
                "census_count_check", "non_constant_sum_raises"):
    globals()["test_" + _family] = census_selection(_family)


def _wrong_euler_coefficient(monkeypatch):
    # [q^5] prod (1-q^m)^-7 one too large, planted in qseries' cache, which
    # serves every later _euler_pow(-7, m) with m <= 10
    co = list(INTEGRALS)
    co[5] += 1
    monkeypatch.setattr(qseries, "_euler_pow_cache", {-7: co})


@pytest.mark.parametrize("mode", ["symbolic", "sampled"])
def test_wrong_euler_coefficient_raises(monkeypatch, mode):
    _wrong_euler_coefficient(monkeypatch)
    assert hilb_chern_integral(4, mode) == 490
    with pytest.raises(ConsistencyError) as err:
        hilb_chern_integral(5, mode)
    assert str(err.value) == (
        "the integral for n=5 is 1547, not [q^n] prod (1-q^m)^-7 = 1548")
    assert hilb_chern_integral(6, mode) == 4522


def test_euler_mismatch_exits_two(monkeypatch, capsys):
    # through the CLI: one stderr line, exit 2 and nothing on stdout
    _wrong_euler_coefficient(monkeypatch)
    for mode in ("symbolic", "sampled"):
        assert cli.main(["p3", "--n", "5", "--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("consistency failure: the integral for n=5 is 1547, "
                       "not [q^n] prod (1-q^m)^-7 = 1548\n")

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
        for n in order:
            assert hilb_chern_integral(n) == series.coefficient(n), n
    assert localization._a_leg.cache_info().currsize == 13


def _f_at(lam, t0):
    """F(lam) at t0 by the character route, one Fraction per term: the
    reference for the sampled sums, which share neither its per-box arms
    and legs nor its forms.  ZeroDivisionError if t0 is a pole."""
    c = contribution_from_characters(((), lam, ()))
    return c.scale * _at_point((c.num, c.den), t0)


def _term_at(term, P):
    """A _point_terms term (sn, sd, num, den) valued at the integer P, as a
    Fraction."""
    sn, sd, num, den = term
    return Fraction(sn * prod(i * P + j for j, i in num),
                    sd * prod(i * P + j for j, i in den))


def test_sampled_legs_equal_term_sums():
    # at integer points with no pole, each term of leg k is F(lam) of the
    # partition lam of k in its place, and route C's r_k / (k! (1-P)^k),
    # r = _c_legs at P, which _legs_at certifies every leg against there,
    # is their sum, both against F(lam) by the character route
    n = 12
    for P in (104729, -1299709):
        assert localization._legs_at(n, P)
        r = localization._c_legs(n, lambda f: f[1] * P + f[0])
        assert len(r) == n + 1
        for k in range(n + 1):
            terms = localization._point_terms(k)
            want = [_f_at(lam, P) for lam in enumerate_partitions(k)]
            assert [_term_at(x, P) for x in terms] == want, (P, k)
            assert Fraction(r[k], factorial(k) * (1 - P) ** k) == sum(want)


def test_sampled_sum_catches_a_term_over_the_whole():
    # with the den forms of one partition's term dropped, that term is taken
    # over W_k // sd, W_k the lcm of the dens so read, instead of W_k // its
    # whole den: it is F(lam) times its den forms' product, so leg
    # k = |lam| disagrees with route C at the first point; each partition
    # of k <= 3 whose term has den forms, in turn
    point_terms = localization._point_terms
    lams = [lam for k in range(4) for lam, x in zip(enumerate_partitions(k),
                                                    point_terms(k)) if x[3]]
    assert lams == [(1,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    for lam in lams:
        k = sum(lam)

        def fault(j, lam=lam):
            terms = list(point_terms(j))
            if j == sum(lam):
                i = enumerate_partitions(j).index(lam)
                terms[i] = terms[i][:3] + ((),)
            return tuple(terms)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(localization, "_point_terms", fault)
            with pytest.raises(ConsistencyError) as err:
                hilb_chern_integral(3, "sampled")
        assert str(err.value) == ("leg A_%d disagrees with route C at t = %d"
                                  % (k, FIRST_POINT)), lam


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_box_forms_mutant_raises_in_sampled_mode(monkeypatch, seed):
    # the mutant of test_box_forms_mutant_raises_in_symbolic_mode: hook
    # (0, 2) is in (3,) alone, which enters the sum at n = 3 only as
    # F((3,)) + G((3,)), a constant, so every point gives 136; route C
    # certifies leg A_3 at the first point and names it
    box_forms = localization._box_forms

    def doubled(a, l):
        num, den = box_forms(a, l)
        if (a, l) == (0, 2):
            num = ((2 * num[0][0], 2 * num[0][1]),) + num[1:]
        return num, den
    monkeypatch.setattr(localization, "_box_forms", doubled)
    with pytest.raises(ConsistencyError) as err:
        hilb_chern_integral(3, "sampled", seed=seed)
    assert str(err.value).startswith("leg A_3 disagrees with route C at t = ")


def test_sampled_leg_over_a_short_lcm_raises():
    # W_k taken without the den of (1^k), the last partition of k, at one
    # leg k in turn: (1^k) alone has (t - 1)^k in its den, every other
    # partition at most (t - 1)^(k - 2), so that term's W_k // prod(den) is
    # inexact, and leg A_k disagrees with route C at the first point of
    # n = k and n = 8, while n = k - 1, which does not sum leg k, holds.
    # Which other dens W_k needs depends on the point: the den of (3,)
    # divides the lcm of the others at each of the three default points, so
    # left out of W_3 it leaves W_3 as it was, and n = 3 holds
    old = "W = lcm(*ys)"
    for k in range(1, 9):
        with _mutant(("localization", old, "W = lcm(*(ys[:-1] if k == %d "
                      "else ys))" % k)) as m:
            integral = m.localization.hilb_chern_integral
            assert integral(k - 1, "sampled") == INTEGRALS[k - 1]
            for n in (k, 8):
                with pytest.raises(ConsistencyError) as err:
                    integral(n, "sampled")
                assert str(err.value) == (
                    "leg A_%d disagrees with route C at t = %d"
                    % (k, FIRST_POINT)), (k, n)
    with _mutant(("localization", old,
                  "W = lcm(*(ys[1:] if k == 3 else ys))")) as m:
        assert m.localization.hilb_chern_integral(3, "sampled") == 140


def test_sampled_terms_are_point_free():
    # after one call at n each leg's terms are cached, and a call at
    # another seed reads no box form, hook or partition: only those terms
    for n in (3, 8):
        value = hilb_chern_integral(n, "sampled")

        def refuse(*args):
            raise AssertionError("read after the terms were built")
        with pytest.MonkeyPatch.context() as mp:
            for module in (localization, partitions):
                for name in ("_box_forms", "hooks", "enumerate_partitions"):
                    if hasattr(module, name):
                        mp.setattr(module, name, refuse)
            assert hilb_chern_integral(n, "sampled", seed=5) == value
            assert hilb_chern_integral(n, "sampled", seed=6,
                                       samples=5) == value


def test_sampled_integrals():
    for n in range(8):
        assert hilb_chern_integral(n, "sampled") == INTEGRALS[n]
    for n in range(6):
        symbolic = hilb_chern_integral(n)
        for seed in (1, 2, 3):
            assert hilb_chern_integral(n, "sampled", seed=seed) == symbolic


def test_sampled_resamples_on_pole(monkeypatch):
    # the first point drawn is t = 1, a pole of the contribution of
    # ((), (1,), ()); it must be skipped, not summed or raised.  Every point
    # is one integer draw from [-10**6, 10**6]
    real = localization.random.Random
    draws = []

    class FirstDrawIsOne:
        def __init__(self, seed):
            self.rng = real(seed)

        def randint(self, lo, hi):
            draws.append((lo, hi))
            return 1 if len(draws) == 1 else self.rng.randint(lo, hi)

    monkeypatch.setattr(localization.random, "Random", FirstDrawIsOne)
    assert fixed_point_contribution(((), (1,), ())).den == ((-1, 1),)
    assert hilb_chern_integral(2, "sampled") == 35
    assert draws == [(-10**6, 10**6)] * 4   # the pole, then three good points

    # a point drawn twice is certified once and counts once: its second
    # draw is skipped as seen
    class SecondPointRepeatsTheFirst:
        def __init__(self, seed):
            self.rng = real(seed)
            self.values = []

        def randint(self, lo, hi):
            draws.append((lo, hi))
            if len(draws) == 2:
                return self.values[0]
            self.values.append(self.rng.randint(lo, hi))
            return self.values[-1]

    legs_at, certified = localization._legs_at, []

    def counted(n, P):
        certified.append(P)
        return legs_at(n, P)
    monkeypatch.setattr(localization, "_legs_at", counted)
    monkeypatch.setattr(localization.random, "Random",
                        SecondPointRepeatsTheFirst)
    draws.clear()
    assert hilb_chern_integral(2, "sampled") == 35
    assert len(draws) == 4   # a point, the same point, then two more
    assert len(certified) == len(set(certified)) == 3


def test_sampled_resamples_on_a_pole_at_minus_one(monkeypatch):
    # the first point drawn is t = -1, where the den form (1, 1), t + 1, of
    # the term of (3,) vanishes: legs 0..2 hold there, but leg 3's lcm W_3
    # is 0, so the draw must be skipped, not summed or raised
    real = localization.random.Random
    draws = []

    class FirstDrawIsMinusOne:
        def __init__(self, seed):
            self.rng = real(seed)

        def randint(self, lo, hi):
            draws.append((lo, hi))
            return -1 if len(draws) == 1 else self.rng.randint(lo, hi)

    assert (1, 1) in localization._point_terms(3)[0][3]
    assert localization._legs_at(2, -1)
    assert not localization._legs_at(3, -1)
    monkeypatch.setattr(localization.random, "Random", FirstDrawIsMinusOne)
    assert hilb_chern_integral(3, "sampled") == 140
    assert len(draws) == 4   # the pole, then three good points


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


@pytest.mark.parametrize("mode, kwargs, error", [
    ("sampled", {}, None),
    ("sampled", {"samples": None, "seed": None}, None),
    ("sampled", {"samples": 4, "seed": "x"}, None),
    ("sampled", {"samples": "3"}, "samples must be an integer"),
    ("sampled", {"samples": 3.5}, "samples must be an integer"),
    ("sampled", {"samples": 3.0}, "samples must be an integer"),
    ("sampled", {"samples": True}, "samples must be an integer"),
    ("sampled", {"samples": -5}, "at least 3 points"),
    ("symbolic", {}, None),
    ("symbolic", {"samples": None, "seed": None}, None),
    ("symbolic", {"samples": 3}, "sampled mode only"),
    ("symbolic", {"seed": 1}, "sampled mode only"),
    ("symbolic", {"samples": -5, "seed": "x"}, "sampled mode only"),
])
def test_samples_and_seed_are_checked(mode, kwargs, error):
    # sampled mode takes an int samples, MIN_SAMPLES when None; symbolic
    # mode takes neither samples nor seed
    if error is None:
        assert hilb_chern_integral(3, mode, **kwargs) == 140
    else:
        with pytest.raises(ValueError, match=error):
            hilb_chern_integral(3, mode, **kwargs)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        hilb_chern_integral(2, "numeric")


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        hilb_chern_integral(-1)


@pytest.mark.parametrize("mode", ["symbolic", "sampled"])
@pytest.mark.parametrize("n", [2.5, 2.0, "3", None, True])
def test_non_integer_n_rejected(n, mode):
    # refused up front: 2.5 and 2.0 would fail deep inside on a float, and
    # True pass as 1
    with pytest.raises(ValueError, match="integer"):
        hilb_chern_integral(n, mode)
