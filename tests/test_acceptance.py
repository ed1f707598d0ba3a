"""Acceptance battery: the ten release gates, written once, and the
mutation census that keeps each of them.

A check is a function of no arguments that returns a one-line, timing-free
description of what it verified and raises ConsistencyError when two
computations that must agree do not.  Sampled evaluation uses the default
seed and random tables come from fixed seeds, so every run tests the same
points and the same tables.

One test per check, named `test_criterion_<NN>_<check function>`.  Each
runs its check, enforces the check's runtime budget where one exists and
prints a single pass line naming the criterion, so a bare `pytest -sv
tests/test_acceptance.py` reads as a checklist.  Budgets are wall-clock on
the machine running the suite.  NN is the release criterion's number, and
criteria keep their numbers: criterion 1, the p3 point values, has no
check, because every p3 run holds its value to [q^n] prod (1-q^m)^-7
itself, so the first check is criterion 2.

A check keeps its place by what it alone catches.  CENSUS, at the end, is
one table of mutants of the package, each one source spelling replaced,
with the first input it shows on and every check that catches it, among
the gates and the four run-time certificates of the package; test_census
runs the whole table, and test_census_names_every_check asserts that each
check is the only catcher of some row or is KEPT for a stated reason."""

import contextlib
import importlib
import inspect
import io
import itertools
import random
import sys
import time
import types
from collections import namedtuple
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

import sheafcount
from sheafcount import cli, localization
from sheafcount.errors import ConsistencyError, NLValidationError
from sheafcount.localization import (
    contribution_from_characters,
    fixed_point_contribution,
    hilb_chern_integral,
    obstruction_character,
    tangent_character,
)
from sheafcount.nl_dt import (
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
from sheafcount.partitions import enumerate_triples
from sheafcount.qseries import PuiseuxSeries, goettsche_series, hilb_euler

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "sheafcount" / "fixtures"
_FIXTURE_NAMES = ("two_copies", "mixed_shift", "symmetry_window", "quartic_pencil")


# budget: the wall-clock seconds the acceptance test allows, or None;
# fn() -> detail, raising on disagreement
Check = namedtuple("Check", "name budget fn")


def _expect(cond, msg: str):
    if not cond:
        raise ConsistencyError(msg)


def _fixture(name: str) -> FibrationSpec:
    return nl_loads((FIXTURES / (name + ".json")).read_text(encoding="utf-8"))


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
    # sampled mode's runs, KEPT while the p3-sampled benchmark runs that
    # mode: each call certifies route A against route C at three random
    # integer points and holds the packed sum, constant by N = c * D, to the
    # Euler product
    for n in range(4, 8):
        hilb_chern_integral(n, "sampled")
    return ("sampled route A certified at 3 points, the sum constant and "
            "held to the Euler product, for n = 4..7")


def _printed(*argv) -> str:
    # the stdout of cli.main(argv), which must exit 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    _expect(code == 0, "%s exits %d: %s" % (" ".join(argv), code,
                                            err.getvalue().strip()))
    return out.getvalue()


def _text_at(poly: str, t0: int) -> Fraction:
    # the value at t0 of a polynomial in t as p3 --verbose prints it: terms
    # [-][c*]t^e, [-][c*]t or [-]c, c an integer or p/q, joined by " + " and
    # " - "
    total = Fraction(0)
    for term in poly.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff, t, power = term.lstrip("-").partition("t")
        if t:
            coeff, e = coeff.rstrip("*") or "1", int(power.lstrip("^") or 1)
        else:
            e = 0
        total += sign * Fraction(coeff) * t0 ** e
    return total


def _verbose_lines(n: int) -> int:
    # each quotient p3 --n n --verbose prints, read back as text, against
    # its Contribution at the first two integers t0 >= 2 where none of the
    # Contribution's forms vanishes
    lines = _printed("p3", "--n", str(n), "--verbose").splitlines()
    triples = enumerate_triples(n)
    _expect(len(lines) == len(triples) + 2, "p3 --n %d --verbose prints %d "
            "lines for %d configurations" % (n, len(lines), len(triples)))
    for tr, line in zip(triples, lines[1:]):
        head, text = "# %r: " % (tr,), line.partition(": ")[2]
        c = fixed_point_contribution(tr)
        num, _, den = (text[1:-1].partition(")/(") if text.startswith("(")
                       else (text, "", "1"))
        forms = c.num + c.den
        for t0 in itertools.islice((t0 for t0 in itertools.count(2)
                                    if all(i * t0 + j for j, i in forms)), 2):
            want = c.scale * Fraction(prod(i * t0 + j for j, i in c.num),
                                      prod(i * t0 + j for j, i in c.den))
            try:
                got = _text_at(num, t0) / _text_at(den, t0)
            except (ValueError, ZeroDivisionError):   # not such a quotient
                got = None
            _expect(line.startswith(head) and got == want,
                    "p3 --verbose prints %r, not %s at t = %d" % (line, want, t0))
    return len(triples)


def contribution_routes() -> str:
    checked = 0
    for n in range(9):
        for tr in enumerate_triples(n):
            _expect(fixed_point_contribution(tr) == contribution_from_characters(tr),
                    "contribution routes disagree at %r" % (tr,))
            checked += 1
    printed = sum(_verbose_lines(n) for n in range(5))
    return ("direct product = weight quotient on all %d configurations "
            "with n <= 8; the %d quotients p3 --verbose prints for n <= 4 "
            "read back at two points each" % (checked, printed))


def test_contribution_routes_catch_swapped_legs(monkeypatch):
    # with each hook's G side split replaced by its F side the direct
    # product of ((), (), (1,)) is the p2 box's, and the contribution-routes
    # check names the first configuration where they differ
    split = localization._hook_split
    monkeypatch.setattr(localization, "_hook_split",
                        lambda a, l, side: split(a, l, 0))
    with pytest.raises(ConsistencyError) as err:
        contribution_routes()
    assert str(err.value) == "contribution routes disagree at ((), (), (1,))"


@pytest.mark.parametrize("side, triple", [
    pytest.param(0, ((), (3,), ()), id="F-side"),
    pytest.param(1, ((), (), (3,)), id="G-side"),
])
def test_contribution_routes_see_the_split_forms(monkeypatch, side, triple):
    # the content of hook (0, 2)'s split numerator doubled on one side:
    # fixed_point_contribution reads the split forms the symbolic sum adds,
    # so the contribution-routes check names the one configuration with
    # that hook on that side.
    # The G side is a mutant neither mode sees: both modes read only the F
    # sides, as polynomials or at points, and route C's rev(S_c), and both
    # still give 140, so the contribution-routes check is what certifies
    # the G side that p3 --verbose prints
    split = localization._hook_split

    def doubled(a, l, s):
        (cn, num), den = split(a, l, s)
        return ((2 * cn if (a, l, s) == (0, 2, side) else cn, num), den)
    monkeypatch.setattr(localization, "_hook_split", doubled)
    with pytest.raises(ConsistencyError) as err:
        contribution_routes()
    assert str(err.value) == "contribution routes disagree at %r" % (triple,)
    if side:
        assert hilb_chern_integral(3) == 140
        assert hilb_chern_integral(3, "sampled") == 140


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
    # PuiseuxSeries.__mul__ does its own integer convolution, over one
    # denominator per operand, and shares no code with the Euler-power
    # lists behind goettsche_series: the pentagonal certificate checks each
    # list when it is filled, and this what goettsche_series makes of it
    for e in (-7, 0, 1, 7, 12, 24):
        _expect(goettsche_series(e, 30) * goettsche_series(-e, 30)
                == PuiseuxSeries(1, {0: 1}, 30),
                "G_%d * G_%d != 1 through q^30, G_e = prod (1-q^n)^-e"
                % (e, -e))
    return ("G_e * G_-e = 1, G_e = prod (1-q^n)^-e, for e in -7, 0, 1, 7, "
            "12, 24 through q^30")


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


def test_z_exponents_in_their_class(monkeypatch):
    # both routes shifted by q^(1/2ell) still agree, on grid 1/2ell, but no
    # exponent of Z_d lies in d^2/2ell + Z any more: only the T half of
    # modularity in the closed = direct check can tell
    def shifted(route):
        def fn(spec, terms):
            step = Fraction(1, 2 * spec.ell)
            return {d: s.shift(step) for d, s in route(spec, terms).items()}
        return fn

    assert "exponents of Z_d in d^2/2ell + Z" in closed_equals_direct()
    monkeypatch.setitem(globals(), "z_series_closed", shifted(z_series_closed))
    monkeypatch.setitem(globals(), "z_series_direct", shifted(z_series_direct))
    with pytest.raises(ConsistencyError) as err:
        closed_equals_direct()
    assert "is not d^2/2ell mod 1" in str(err.value)


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
    # symmetry_window closed in a window below d = 0, so that its orbits
    # are walked both ways: its cells (2, -3) and (7, -7) come from the
    # backward walk alone, and d = -7 and -3 pair them
    window = _fixture("symmetry_window")
    closed = nl_symmetry_extend(window.nl, -20, -8, 9)
    pairs += _pairs_hold(FibrationSpec(ell=window.ell, k=window.k, nl=closed),
                         (-7, -3, 1, 5), range(-2, 3))
    return ("%d symmetry pairs: closed rank-1 tables at c in [-5,5], "
            "d in [0,ell), and symmetry_window closed in d in [-8,9] at "
            "d = -7, -3, 1, 5, c in [-2,2]" % pairs)


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


def test_index_check_catches_a_dropped_term(monkeypatch):
    # without -r^2 the index is off everywhere: half the moduli dimension
    # catches it at the first vector, and with moduli_dim made to agree,
    # the order dt_from_nl sums at catches it at the first n >= 0
    def dropped(v):
        return v.h - v.r * v.omega
    monkeypatch.setitem(globals(), "hilb_index", dropped)
    with pytest.raises(ConsistencyError) as err:
        index_consistency()
    assert str(err.value) == ("MukaiVector(r=1, beta_sq=-2, tau=-20): index -19 "
                              "is not half the moduli dimension -40")
    monkeypatch.setitem(globals(), "moduli_dim", lambda v, p0: 2 * dropped(v))
    with pytest.raises(ConsistencyError) as err:
        index_consistency()
    assert str(err.value) == ("MukaiVector(r=1, beta_sq=-2, tau=-1): dt_from_nl "
                              "gives 0, not chi(Hilb^0) = 1")


def triple_counts() -> str:
    # the Euler product at e = 3 is the cube of the partition series, and
    # shares no code with the enumeration
    top = 12
    series = goettsche_series(3, top)
    for n in range(top + 1):
        got, want = len(enumerate_triples(n)), int(series.coefficient(n))
        _expect(got == want, "n=%d: %d triples, expected %d" % (n, got, want))
    return ("configuration counts match [q^n] prod (1-q^m)^-3 for n <= 12; "
            "count at 12 is %d" % want)


def bound_validation() -> str:
    try:
        NLTable(4, {(2, 1): Fraction(1)})
    except NLValidationError as exc:
        _expect("h=2" in str(exc) and "d=1" in str(exc),
                "violation message does not name h=2, d=1: %s" % exc)
    else:
        raise ConsistencyError("entry (h=2, d=1) at ell=4 was accepted")
    return "the violation (h=2, d=1) at ell=4 rejected by name"


def cli_values() -> str:
    # the command line's own value paths, which no other check reads: p3's
    # spelling n = s(s+3)/2 - d + 1 against the library's value at that n,
    # and goettsche's series, printed as text, against goettsche_series
    runs = 0
    for s in range(4):
        for d in range(s * (s + 3) // 2 + 2):
            n = s * (s + 3) // 2 - d + 1
            got = _printed("p3", "--s", str(s), "--d", str(d))
            _expect(got == "%s\n" % hilb_chern_integral(n),
                    "p3 --s %d --d %d prints %r, not the value at n = %d"
                    % (s, d, got, n))
            runs += 1
    for e in (-24, 7, 24):
        lines = _printed("goettsche", "--euler", str(e), "--terms",
                         "3").splitlines()
        got = [tuple(map(Fraction, line[3:].split("): "))) for line in lines[:-1]]
        _expect(got == goettsche_series(e, 3).terms() and lines[-1] == "O(q^(4))",
                "goettsche --euler %d --terms 3 prints %r" % (e, lines))
    return ("p3 --s s --d d for s <= 3 and every d with n >= 0 (%d runs) = "
            "hilb_chern_integral(n); goettsche --euler e --terms 3 = "
            "goettsche_series for e in -24, 7, 24" % runs)


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
    Check("CLI value paths", 2.0, cli_values),
)


def _gate(number, check):
    def test():
        t0 = time.monotonic()
        detail = check.fn()
        elapsed = time.monotonic() - t0
        if check.budget is not None:
            assert elapsed < check.budget
        print("criterion %d: PASS (%s, %.2fs)" % (number, detail, elapsed))
    test.__name__ = "test_criterion_%02d_%s" % (number, check.fn.__name__)
    return test


for _test in (_gate(number, check) for number, check in enumerate(CHECKS, 2)):
    globals()[_test.__name__] = _test


# -- the mutation census ---------------------------------------------------

# the four run-time certificates of the package: the text of the error each
# raises, and the edits that switch it off
CERTIFICATES = {
    "leg certificates": ("leg A_", (
        ("localization", "if left != right:", "if False:"),
        ("localization", "if total * scale != r[k] * W:", "if False:"))),
    "N = c*D": ("localization sum for n=", (
        ("localization", "if N and (len(N)", "if False and (len(N)"),)),
    "Euler-product check": ("the integral for n=", (
        ("localization", "if value != want:", "if False:"),)),
    "pentagonal certificate": ("fails the pentagonal theorem's certificate", (
        ("qseries", "        if total:", "        if False:"),)),
}

GATES = {check.name: check.fn for check in CHECKS}

# the checks that catch no census row alone and stay, and why
KEPT = {"sum constancy": "its sampled rows stay while the p3-sampled "
        "benchmark runs sampled mode"}

# a census row: a mutant, one occurrence of old in the module's source read
# as new; the first input it shows on, whose output it changes or on which a
# certificate raises, a command line (a word ending in .json names a bundled
# table) or an expression over the package's modules; and every check that
# catches it
Row = namedtuple("Row", "id module old new input by")

LEG, NCD, EULER = "leg certificates", "N = c*D", "Euler-product check"


def _modes(ids, module, old, new, line, by):
    # the row in symbolic mode and in sampled mode, ids a pair or one id
    # with {} for the mode.  The gates run symbolic p3, so a mutant the leg
    # certificates see there is theirs in either mode
    first, second = ids if isinstance(ids, tuple) else (
        ids.format("symbolic"), ids.format("sampled"))
    return (Row(first, module, old, new, line, by),
            Row(second, module, old, new, line + " --mode sampled", by))


# the box-den-first mutant makes a den form 0 * t + 0 at the hook (1, 0):
# with the leg certificates off, both modes divide by it, sampled mode's
# terms and symbolic p3 --n 4 (exit 3)
_BOX = [("box-num-first", "(((-a, a - l - 2),", "(((-a + 1, a - l - 2),", ()),
        ("box-num-second", "(a + 1, l - a - 2)),", "(a + 2, l - a - 2)),", ()),
        ("box-den-first", "((-a, a - l - 1),", "((-a + 1, a - l - 1),",
         ("sum constancy", "CLI value paths")),
        ("box-den-second", "(a + 1, l - a - 1)))", "(a + 2, l - a - 1)))", ())]
_UNPACK = "half = 1 << (bits - 1)"
_WIDTH = "j, _ in forms)).bit_length() + 1"
_B = "ev((-f[1], -f[0]))"
# route C's recurrence, its d and e, and the sum over its legs, read wrong:
# (name, old, new, the first n it gets wrong, its catchers)
_C_AT = [("wrong-d", "_c_at(n, ev((1, -1))", "_c_at(n, ev((1, -2))", 2,
          (LEG, NCD, EULER)),
         ("r-not-reversed", "zip(ws, powers, r[::-1])", "zip(ws, powers, r)",
          2, (LEG, NCD, EULER)),
         ("wrong-power", "powers[-1] * d)", "powers[-1] * d * d)", 2,
          (LEG, NCD, EULER)),
         ("wrong-sigma", "sum(d for d in", "sum(1 for d in", 2, (LEG, EULER)),
         ("scaled-leg", "r.append(e * ",
          "r.append((3 if len(r) == 2 else 1) * e * ", 2, (LEG, NCD, EULER)),
         ("wrong-e", "ev((2, -4))", "ev((2, -3))", 1, (LEG, EULER)),
         ("no-power-of-1-t", "m * x ** a for a, m", "m for a, m", 1,
          (NCD, EULER))]
_COUNT = "r // factorial(k) for"

CENSUS = (
    # route A, each hook's forms, its split and cancel steps, and the merge
    # of a leg: the leg certificates, and the contribution-routes check
    # where p3 --verbose prints the change
    *(row for name, old, new, by in _BOX for row in _modes(
        "census_mutants[%s-{}]" % name, "localization", old, new, "p3 --n 1",
        (*by, "contribution routes", LEG))),
    *_modes("census_split_and_cancel_mutants[split-unsigned-{}]",
            "localization", "g = gcd(i, j) if i > 0 or (i == 0 and j > 0) "
            "else -gcd(i, j)", "g = gcd(i, j)", "p3 --n 2",
            ("contribution routes", LEG)),
    *_modes("census_split_and_cancel_mutants[cancel-den-twice-{}]",
            "localization", "sorted(den)))", "sorted(den + den[:1])))",
            "p3 --n 1", ("contribution routes", LEG)),
    Row("merge_mutant_raises[drops-L-minus-L2]", "localization",
        "walk(right) * at(short2)", "walk(right)", "p3 --n 3", (LEG,)),
    Row("merge_mutant_raises[drops-L-minus-L1]", "localization",
        "walk(left) * at(short1)", "walk(left)", "p3 --n 2", (LEG,)),
    *_modes("census_mutants[width-bound-halved-{}]", "localization",
            "max(bound, 1,", "max(bound // 2, 1,", "p3 --n 1", (LEG,)),
    Row("hooks-arm", "partitions",
        "return [(conj[col] - row - 1, width - col - 1)",
        "return [(conj[col] - row, width - col - 1)", "p3 --n 1",
        ("contribution routes", LEG)),
    # the packing: symbolic mode unpacks its legs, both modes the sum
    *_modes("census_mutants[unpack-half-plus-one-{}]", "localization",
            _UNPACK, "half = (1 << (bits - 1)) + 1", "p3 --n 0",
            (LEG, NCD, EULER)),
    *_modes("census_mutants[width-no-plus-one-{}]", "localization", _WIDTH,
            "j, _ in forms)).bit_length()", "p3 --n 0", (LEG, NCD, EULER)),
    # route C and the one sum both modes take their value from
    *(row for name, old, new, n, by in _C_AT for row in _modes(
        ("route_c_mutant_raises[%s]" % name,
         "sampled_route_c_mutant_raises[%s]" % name), "localization", old,
        new, "p3 --n %d" % n, by)),
    Row("route_c_mutant_raises[b-not-reversed]", "localization", _B,
        "ev((-f[0], -f[1]))", "p3 --n 1", (NCD, EULER)),
    Row("route_c_mutant_raises[b-unsigned]", "localization", _B,
        "ev((f[1], f[0]))", "p3 --n 1", (NCD, EULER)),
    *_modes(("non_constant_sum_raises",) * 2, "localization",
            "_c_legs(n, lambda f: %s)" % _B, "_c_legs(n, ev)", "p3 --n 1",
            (NCD, EULER)),
    Row("convolve-at-2-minus-t", "localization", "ev([1, -1]))",
        "ev([2, -1]))", "p3 --n 1", (NCD,)),
    *_modes("convolve_mutant_raises[{}]", "localization", "col = [m * x ** a",
            "col = [(1 + (a == 1)) * m * x ** a", "p3 --n 1", (EULER,)),
    *_modes(("constant_mutant_raises",) * 2, "localization",
            "return Fraction(N[-1], D[-1]) if N",
            "return Fraction(N[-1], D[-1]) + 1 if N", "p3 --n 0", (EULER,)),
    # the partition counts: each sum is linear in them, and constant
    *_modes("wrong_count_raises[p2-plus-one-{}]", "localization", _COUNT,
            "r // factorial(k) + (k == 2) for", "p3 --n 2", (EULER,)),
    *_modes("wrong_count_raises[exponent-minus-two-{}]", "localization",
            "_c_at(n, 1, 1)", "_c_at(n, 1, 2)", "p3 --n 1", (EULER,)),
    *(row for k in range(1, 7) for row in _modes(
        "census_count_check[{}]", "localization", _COUNT,
        "r // factorial(k) + (k == %d) for" % k, "p3 --n %d" % k, (EULER,))),
    # what p3 --verbose prints beside the value, and the character route
    Row("g-read-as-f", "localization", "if side else forms",
        "if False else forms", "p3 --n 1 --verbose", ("contribution routes",)),
    Row("poly-str-signs-swapped", "localization",
        '("- " if c < 0 else "+ ")', '("+ " if c < 0 else "- ")',
        "p3 --n 1 --verbose", ("contribution routes",)),
    Row("p1-pair-twice", "localization", "out.append((l + 1, -a))",
        "out += [(l + 1, -a)] * 2",
        "localization.tangent_character(((1,), (), ()))",
        ("character cardinalities",)),
    Row("a-triple-slot-dropped", "partitions", "for n2 in range(n - n1 + 1):",
        "for n2 in range(n - n1):", "p3 --n 0 --verbose",
        ("configuration counts",)),
    # the Euler powers and what goettsche_series makes of them
    Row("euler-coefficient-100", "qseries", "    return co\n\n\ndef _list_mul",
        "    co[100:101] = [x + 1 for x in co[100:101]]\n    return co\n\n\n"
        "def _list_mul", "goettsche --euler -1 --terms 100",
        ("pentagonal certificate",)),
    Row("inverse-unsigned", "qseries", "out[k] = -acc * c0",
        "out[k] = acc * c0", "goettsche --euler 1 --terms 1",
        ("eta identity", "configuration counts", EULER,
         "pentagonal certificate")),
    Row("goettsche-unsigned", "qseries", "co = _euler_pow(-e, terms)",
        "co = _euler_pow(e, terms)", "goettsche --euler 24 --terms 1",
        ("closed = direct", "configuration counts")),
    Row("goettsche-abs", "qseries", "{m: Fraction(c) for m",
        "{m: Fraction(abs(c)) for m", "goettsche --euler -1 --terms 1",
        ("eta identity",)),
    Row("goettsche-one-term-long", "qseries", "if c}, terms)",
        "if c}, terms + 1)", "goettsche --euler 24 --terms 1",
        ("eta identity", "CLI value paths")),
    Row("hilb-euler-zero", "qseries", "    if m < 0:\n        return Fraction",
        "    if m < 1:\n        return Fraction", "qseries.hilb_euler(0)",
        ("index formulas",)),
    # the two Z routes, and the K3 side's tables and formulas
    Row("series-sum-negated", "qseries", "out[k] = out.get(k, 0) + v",
        "out[k] = out.get(k, 0) - v", "z --nl mixed_shift.json --terms 0",
        ("closed = direct",)),
    Row("shift-negated", "qseries", "step = int(e * grid)",
        "step = -int(e * grid)", "z --nl two_copies.json --terms 0",
        ("closed = direct",)),
    Row("terms-shifted", "qseries", "(Fraction(k, self.grid), v)",
        "(Fraction(k + 1, self.grid), v)", "z --nl two_copies.json --terms 0",
        ("closed = direct",)),
    Row("z-grid-doubled", "nl_dt", ".with_grid(2 * spec.ell)",
        ".with_grid(4 * spec.ell)", "z --nl two_copies.json --terms 0",
        ("closed = direct",)),
    Row("phi-exponent", "nl_dt", "num = grid + d * d - grid * h",
        "num = grid - d * d - grid * h", "phi --nl mixed_shift.json --d 1 "
        "--terms 0", ("closed = direct",)),
    Row("dt-k-term-unsigned", "nl_dt", "r * r + 1 - r * c, -spec.k))",
        "r * r + 1 - r * c, spec.k))", "dt --nl mixed_shift.json --d 0 --c 2",
        ("closed = direct",)),
    Row("dt-order-plus-one", "nl_dt", "(r * r + h - r * c, v) for",
        "(r * r + h - r * c + 1, v) for", "dt --nl two_copies.json --d 0 "
        "--c 0", ("closed = direct", "index formulas")),
    Row("pair-shift-unsigned", "nl_dt", "Fraction(2 * d + ell, 2 * r)",
        "Fraction(2 * d - ell, 2 * r)", "nl_dt.dt_symmetry_pair(1, 2, 0, 0)",
        ("symmetry pairing",)),
    Row("extend-short-of-d-max", "nl_dt", "d_min <= nd <= d_max",
        "d_min <= nd < d_max", "nl-extend symmetry_window.json --h-lo -20 "
        "--d-min 0 --d-max 9", ("symmetry pairing",)),
    Row("extend-forward-only", "nl_dt", "for step in (1, -1):",
        "for step in (1,):", "nl-extend symmetry_window.json --h-lo -20 "
        "--d-min -8 --d-max 9", ("symmetry pairing",)),
    Row("index-drops-r-squared", "nl_dt", "v.h - v.r * v.omega - v.r * v.r",
        "v.h - v.r * v.omega", "nl_dt.hilb_index(nl_dt.MukaiVector(1, 0, 0))",
        ("index formulas",)),
    Row("omega-plus-one", "nl_dt", "return self.beta_sq // 2 - self.tau\n",
        "return self.beta_sq // 2 - self.tau + 1\n",
        "nl_dt.hilb_index(nl_dt.MukaiVector(2, -2, 3))", ("index formulas",)),
    Row("bound-off-by-one", "nl_dt", "2 * ell * (h - 1) <= d * d",
        "2 * ell * (h - 2) <= d * d", "nl_dt.NLTable(4, {(2, 1): 1}).entries",
        ("bound validation",)),
    # the command line's own value paths
    Row("p3-s-d-off-by-one", "cli", "// 2 - d + 1", "// 2 - d + 2",
        "p3 --s 1 --d 1", ("CLI value paths",)),
    Row("goettsche-negated", "cli", "goettsche_series(args.euler,",
        "goettsche_series(-args.euler,", "goettsche --euler 24 --terms 2",
        ("CLI value paths",)),
)

# mutants that change nothing the package prints or returns, shown so
EQUIVALENT = (
    *_modes("census_mutants[unpack-half-minus-one-{}]", "localization",
            _UNPACK, "half = (1 << (bits - 1)) - 1", "p3 --n 8", ()),
)

# the package's modules, each after those it imports from
_PACKAGE = ("errors", "partitions", "qseries", "localization", "nl_dt", "cli")


def _home(value):
    # the package module a value of this file's globals comes from, or None
    where = value.__name__ if isinstance(value, types.ModuleType) else getattr(
        value, "__module__", None)
    if isinstance(where, str) and where.startswith("sheafcount."):
        return where.rpartition(".")[2]
    return None


@contextlib.contextmanager
def _mutant(*edits):
    """The package with each edit (module, old, new) made in a fresh copy of
    its module, old occurring once in its source.  Each module that imports
    from a fresh copy is copied fresh too, so nl_dt and cli see a mutated
    qseries, and this file's gates read the copies.  Yields the modules by
    name; the real ones are back in place after."""
    real = {name: importlib.import_module("sheafcount." + name)
            for name in _PACKAGE}
    fresh, names = {}, dict(globals())
    try:
        for name, module in real.items():
            source = inspect.getsource(module)
            mine = [(old, new) for where, old, new in edits if where == name]
            if not mine and not any("from .%s import" % dep in source
                                    for dep in fresh):
                continue
            for old, new in mine:
                assert source.count(old) == 1, (name, old)
                source = source.replace(old, new)
            copy = fresh[name] = types.ModuleType(module.__name__)
            copy.__package__, copy.__file__ = "sheafcount", module.__file__
            sys.modules[module.__name__] = copy
            setattr(sheafcount, name, copy)
            exec(compile(source, module.__file__, "exec"), vars(copy))
        for key, value in names.items():
            if _home(value) in fresh:
                copy = fresh[_home(value)]
                globals()[key] = (copy if isinstance(value, types.ModuleType)
                                  else getattr(copy, key))
        yield types.SimpleNamespace(**{**real, **fresh})
    finally:
        globals().update(names)
        for name, module in real.items():
            sys.modules[module.__name__] = module
            setattr(sheafcount, name, module)


def _run(m, line):
    """(exit code, output) of a census input under the modules m: a command
    line through cli.main, stdout on exit 0 and stderr otherwise, or an
    expression, its repr, or 2 and the message of its ConsistencyError."""
    words = line.split()
    if words[0] in cli._COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = m.cli.main([str(FIXTURES / w) if w.endswith(".json") else w
                               for w in words])
        return code, (err if code else out).getvalue()
    try:
        return 0, repr(eval(line, dict(vars(m))))
    except ConsistencyError as exc:
        return 2, str(exc)


def _off(names):
    return [edit for name in names if name in CERTIFICATES
            for edit in CERTIFICATES[name][1]]


def _fails(fn):
    # the repr of what fn() raises, or ""
    try:
        fn()
    except Exception as exc:
        return repr(exc)
    return ""


def _catches(row, name):
    # with the row's other certificates off: a gate raises, a certificate
    # raises its error on the row's input or in a gate
    with _mutant((row.module, row.old, row.new),
                 *_off(set(row.by) - {name})) as m:
        if name in GATES:
            return bool(_fails(GATES[name]))
        error = CERTIFICATES[name][0]
        code, text = _run(m, row.input)
        return code == 2 and error in text or any(
            error in _fails(fn) for fn in GATES.values())


def census_row(row):
    """Each check the row names catches its mutant, and a row that names
    none (EQUIVALENT) has its input give what the real package gives."""
    for name in row.by:
        assert _catches(row, name), (row.id, row.input, name)
    if not row.by:
        with _mutant() as m:
            want = _run(m, row.input)
        with _mutant((row.module, row.old, row.new)) as m:
            assert _run(m, row.input) == want, row.id


def _alone(row):
    # the row's one catcher switched off, its input ends with exit 0 and
    # every other gate passes: no other check catches it
    name, = row.by
    with _mutant((row.module, row.old, row.new), *_off([name])) as m:
        assert _run(m, row.input)[0] == 0, row.id
        for other, fn in GATES.items():
            assert other == name or not _fails(fn), (row.id, other)


def test_census():
    # every row's catchers, and for each check the first row it alone
    # catches shown to escape every other check; that row's edit undone,
    # the check catches nothing
    shown = set()
    for row in CENSUS + EQUIVALENT:
        census_row(row)
        if len(row.by) == 1 and row.by[0] not in shown:
            shown.add(row.by[0])
            _alone(row)
            assert not _catches(row._replace(new=row.old), row.by[0]), row.id


def test_census_names_every_check():
    # each gate and certificate is the only catcher of some row, or is kept
    # for a stated reason: a check added without a row fails here
    alone = {row.by[0] for row in CENSUS if len(row.by) == 1}
    assert alone | set(KEPT) == set(GATES) | set(CERTIFICATES)
    assert not alone & set(KEPT)
    assert all(row.by for row in CENSUS)


def census_selection(family):
    """The rows of CENSUS and EQUIVALENT with ids family[key] as one test
    with a case per key, or with id family as one test: each runs
    census_row on its rows.  Former per-row tests keep their ids so."""
    rows = [row for row in CENSUS + EQUIVALENT
            if row.id.partition("[")[0] == family]
    keys = list(dict.fromkeys(row.id for row in rows))

    def run(key):
        for row in rows:
            if row.id == key:
                census_row(row)
    if keys == [family]:
        def test():
            run(family)
    else:
        @pytest.mark.parametrize("key", keys, ids=[
            key.partition("[")[2][:-1] for key in keys])
        def test(key):
            run(key)
    test.__name__ = "test_" + family
    return test
