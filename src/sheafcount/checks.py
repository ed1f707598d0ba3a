"""The nine release checks, written once.

`sheafcount check` runs them all and exits 2 if any fails; the acceptance
tests run each one as its own test and enforce its time budget.  A check
is a function of no arguments that returns a one-line, timing-free
description of what it verified and raises ConsistencyError when two
computations that must agree do not.  Sampled evaluation uses the default
seed and random tables come from fixed seeds, so every run tests the same
points and the same tables.
"""

import random
from collections import namedtuple
from fractions import Fraction
from importlib import resources

from .cli import SERIES_MAX_ORDER
from .errors import ConsistencyError, NLValidationError
from .localization import (
    _per_triple_sum,
    contribution_from_characters,
    fixed_point_contribution,
    hilb_chern_integral,
    obstruction_character,
    tangent_character,
)
from .nl_dt import (
    FibrationSpec,
    HilbertPolyK3,
    MukaiVector,
    NLTable,
    dt_from_nl,
    dt_symmetry_pair,
    hilb_index,
    moduli_dim,
    nl_loads,
    nl_symmetry_extend,
    z_series_closed,
    z_series_direct,
)
from .partitions import enumerate_partitions, enumerate_triples
from .qseries import PuiseuxSeries, goettsche_series, hilb_euler

_FIXTURE_NAMES = ("two_copies", "mixed_shift", "symmetry_window", "quartic_pencil")


# budget: the wall-clock seconds the acceptance test allows, or None;
# fn() -> detail, raising on disagreement
Check = namedtuple("Check", "name budget fn")


def _expect(cond, msg: str):
    if not cond:
        raise ConsistencyError(msg)


def _fixture(name: str) -> FibrationSpec:
    path = resources.files("sheafcount") / "fixtures" / (name + ".json")
    return nl_loads(path.read_text(encoding="utf-8"))


def _random_entries(rng, ell: int, count: int, top: int) -> dict:
    entries = {}
    for _ in range(count):
        d = rng.randrange(ell)
        h = rng.randint(-4, 1 + (d * d) // (2 * ell))
        v = Fraction(rng.randint(-top, top), rng.randint(1, 4))
        if v:
            entries[(h, d)] = v
    return entries


def sum_constancy() -> str:
    for n in range(9):
        total = _per_triple_sum(n)    # raises unless constant in t
        want = hilb_chern_integral(n)
        _expect(total == want, "n=%d: per-triple sum %s != %s" % (n, total, want))
    got = hilb_chern_integral(4, "sampled")
    _expect(got == 490, "n=4 sampled: %s != 490" % got)
    for n in range(5, 8):
        # raises unless three random rational points give the same value
        hilb_chern_integral(n, "sampled", samples=3)
    return ("per-triple sums of weight quotients constant and equal to the "
            "integral for n = 0..8, each held to [q^n] prod (1-q^m)^-7, "
            "sampled n = 4 is 490, sampled agreement at 3 points for n = 5..7")


def contribution_routes() -> str:
    checked = 0
    for n in range(9):
        for tr in enumerate_triples(n):
            _expect(fixed_point_contribution(tr) == contribution_from_characters(tr),
                    "contribution routes disagree at %r" % (tr,))
            checked += 1
    return ("direct product = weight quotient on all %d configurations "
            "with n <= 8" % checked)


def character_cardinalities() -> str:
    checked = 0
    for n in range(7):
        for tr in enumerate_triples(n):
            _expect(len(tangent_character(tr)) == 2 * n,
                    "tangent size off at %r" % (tr,))
            _expect(len(obstruction_character(tr)) == 2 * n,
                    "obstruction size off at %r" % (tr,))
            checked += 1
    return ("|tangent| = |obstruction| = 2n on all %d configurations "
            "with n <= 6" % checked)


def eta_identity() -> str:
    _expect(goettsche_series(24, 1).coefficient(1) == 24,
            "chi(Hilb^1) of a K3 surface is not 24")
    # PuiseuxSeries.__mul__ does its own integer convolution, over one
    # denominator per operand, and shares no code with _list_mul and
    # _list_inv behind goettsche_series, so this checks their inversion
    for e in (-7, 0, 1, 7, 12, 24):
        _expect(goettsche_series(e, 30) * goettsche_series(-e, 30)
                == PuiseuxSeries(1, {0: 1}, 30),
                "G_%d * G_%d != 1 through q^30, G_e = prod (1-q^n)^-e"
                % (e, -e))
    # closed forms that share no code with the Euler product, through the
    # CLI's longest series: G_e * G_-e = 1 holds for any wrong base
    # product, these do not
    top = SERIES_MAX_ORDER
    pentagonal = {k * (3 * k - 1) // 2: (-1) ** abs(k)
                  for k in range(-top, top + 1)}
    jacobi = {k * (k + 1) // 2: (-1) ** k * (2 * k + 1) for k in range(top)}
    partitions = {n: len(enumerate_partitions(n)) for n in range(26)}
    for e, order, want, what in ((-1, top, pentagonal, "pentagonal theorem"),
                                 (-3, top, jacobi, "Jacobi's identity"),
                                 (1, 25, partitions, "partition count")):
        series = goettsche_series(e, order)
        for m in range(order + 1):
            got = series.coefficient(m)
            _expect(got == want.get(m, 0), "[q^%d] prod (1-q^n)^%d is %s, "
                    "the %s gives %s" % (m, -e, got, what, want.get(m, 0)))
    return ("G_e * G_-e = 1, G_e = prod (1-q^n)^-e, for e in -7, 0, 1, 7, "
            "12, 24 through q^30, q^1 coefficient 24; G_-1, G_-3 by the "
            "pentagonal theorem and Jacobi's identity through q^%d, G_1 "
            "against partition counts through q^25" % top)


def _exponents_in_class(closed: dict, ell: int, what: str) -> int:
    # the T half of modularity: every exponent of Z_d lies in d^2/2ell + Z
    for d, series in closed.items():
        for e, _ in series.terms():
            _expect((e - Fraction(d * d, 2 * ell)).denominator == 1,
                    "%s: exponent %s of Z_%d is not d^2/2ell mod 1" % (what, e, d))
    return sum(len(series.coeffs) for series in closed.values())


def closed_equals_direct() -> str:
    rng = random.Random(1289)
    terms = 0
    for i in range(20):
        ell = rng.choice([2, 4, 6])
        entries = _random_entries(rng, ell, rng.randint(0, 10), 8)
        spec = FibrationSpec(ell=ell, k=rng.randint(-3, 3), nl=NLTable(ell, entries))
        closed = z_series_closed(spec, 10)
        direct = z_series_direct(spec, 10)
        for d in range(ell):
            _expect(closed[d].grid == 2 * ell,
                    "table %d: grid %d at d=%d" % (i, closed[d].grid, d))
            _expect(closed[d] == direct[d],
                    "table %d (ell=%d): series routes disagree at d=%d" % (i, ell, d))
        terms += _exponents_in_class(closed, ell, "table %d" % i)
    for name in _FIXTURE_NAMES:
        spec = _fixture(name)
        closed = z_series_closed(spec, 6)
        _expect(closed == z_series_direct(spec, 6),
                "series routes disagree on %s" % name)
        terms += _exponents_in_class(closed, spec.ell, name)
    return ("20 randomized tables through q^10 on grid 1/2*ell, "
            "the 4 bundled tables through q^6; all %d exponents of Z_d "
            "in d^2/2ell + Z" % terms)


def _pairs_hold(spec: FibrationSpec, degrees, constants) -> int:
    for d in degrees:
        for c in constants:
            d2, c2, ok = dt_symmetry_pair(1, spec.ell, d, c)
            _expect(ok, "pair (%d, %d) not integral" % (d, c))
            a = dt_from_nl(spec, HilbertPolyK3(1, spec.ell, d, c))
            b = dt_from_nl(spec, HilbertPolyK3(1, spec.ell, d2, int(c2)))
            _expect(a == b, "pairing broken at ell=%d, d=%d, c=%d: %s vs %s"
                    % (spec.ell, d, c, a, b))
    return len(degrees) * len(constants)


def invariant_symmetry() -> str:
    rng = random.Random(40961)
    pairs = 0
    for _ in range(10):
        ell = rng.choice([2, 4, 6])
        entries = _random_entries(rng, ell, rng.randint(1, 5), 6)
        table = nl_symmetry_extend(NLTable(ell, entries), -10, 0, 2 * ell - 1)
        pairs += _pairs_hold(FibrationSpec(ell=ell, k=0, nl=table),
                             range(ell), range(-5, 6))
    pairs += _pairs_hold(_fixture("symmetry_window"), (1,), range(-2, 3))
    return ("%d symmetry pairs: closed rank-1 tables at c in [-5,5], "
            "d in [0,ell), and symmetry_window at d = 1, c in [-2,2]" % pairs)


def index_consistency() -> str:
    # against half the moduli dimension, and against the order dt_from_nl
    # sums at: with the one entry NL[h, h] = 2 at ell 1 and k 0 (inside the
    # bound, 2(h-1) <= h^2) the invariant is chi(Hilb^n)
    checked = 0
    for r in range(1, 5):
        for b2 in range(-2, 21, 2):      # even, and -2 is the floor
            for tau in range(-20, 21):
                v = MukaiVector(r, b2, tau)
                n = hilb_index(v)
                P = HilbertPolyK3.from_mukai(v, 1, v.h)
                dim = moduli_dim(v, P.c)
                _expect(2 * n == dim, "%r: index %d is not half the moduli "
                        "dimension %d" % (v, n, dim))
                spec = FibrationSpec(ell=1, k=0, nl=NLTable(1, {(v.h, v.h): 2}))
                dt, want = dt_from_nl(spec, P), hilb_euler(n)
                _expect(dt == want, "%r: dt_from_nl gives %s, not "
                        "chi(Hilb^%d) = %s" % (v, dt, n, want))
                checked += 1
    _expect(hilb_index(MukaiVector(2, -2, 3)) == 4, "frozen index value off")
    return ("index = half the moduli dimension = the order dt_from_nl sums "
            "at, on %d Mukai vectors" % checked)


def triple_counts() -> str:
    literal = [1, 3, 9, 22, 51, 108, 221, 429, 810]
    # the Euler product at e = 3 is the cube of the partition series, and
    # shares no code with the enumeration
    top = 12
    series = goettsche_series(3, top)
    co = [int(series.coefficient(n)) for n in range(top + 1)]
    _expect(co[:len(literal)] == literal, "series cube %s != %s" % (co, literal))
    for n in range(top + 1):
        got = len(enumerate_triples(n))
        _expect(got == co[n], "n=%d: %d triples, expected %d" % (n, got, co[n]))
    return ("configuration counts match [q^n] prod (1-q^m)^-3 for n <= 12; "
            "count at 12 is %d" % co[top])


def bound_validation() -> str:
    try:
        NLTable(4, {(2, 1): Fraction(1)})
    except NLValidationError as exc:
        _expect("h=2" in str(exc) and "d=1" in str(exc),
                "violation message does not name h=2, d=1: %s" % exc)
    else:
        raise ConsistencyError("entry (h=2, d=1) at ell=4 was accepted")
    rng = random.Random(77)
    for _ in range(50):
        ell = rng.choice([2, 4, 6, 8, 10])
        # seeds at d in [0, ell) share no orbit, so they cannot conflict;
        # the NLTable it returns raises if a cell leaves the bound
        base = _random_entries(rng, ell, rng.randint(1, 6), 9)
        nl_symmetry_extend(NLTable(ell, base), rng.randint(-9, 0),
                           0, rng.randint(ell, 4 * ell))
    return ("violations rejected by name; 50 randomized extensions "
            "stayed inside the vanishing bound")


CHECKS = (
    Check("sum constancy", 5.0, sum_constancy),
    Check("contribution routes", 2.0, contribution_routes),
    Check("character cardinalities", None, character_cardinalities),
    Check("eta identity", 1.0, eta_identity),
    Check("closed = direct", 2.0, closed_equals_direct),
    Check("symmetry pairing", None, invariant_symmetry),
    Check("index formulas", 1.0, index_consistency),
    Check("configuration counts", None, triple_counts),
    Check("bound validation", None, bound_validation),
)
