"""Fibration tables, index bookkeeping, and the two routes to Z.

Expected series prefixes below were computed beforehand by hand convolution
of the table data with the Hilbert-scheme Euler numbers, independently of
the closed-form code path being tested.  The randomized closed-versus-
direct comparisons are the structural check that the convolution identity
holds in general, not just on the frozen examples."""

import copy
import json
import pickle
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from sheafcount.errors import ConsistencyError, NLValidationError
from sheafcount.nl_dt import (
    FibrationSpec,
    HilbertPolyK3,
    MukaiVector,
    NLTable,
    dt_from_nl,
    dt_symmetry_pair,
    hilb_index,
    moduli_dim,
    nl_dump,
    nl_load,
    nl_load_path,
    nl_loads,
    nl_symmetry_extend,
    phi_series,
    z_series_closed,
    z_series_direct,
)
from sheafcount import checks, qseries
from sheafcount.qseries import PuiseuxSeries, hilb_euler

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "sheafcount" / "fixtures"


def load_fixture(name):
    return nl_load_path(FIXTURES / (name + ".json"))


# -- Mukai bookkeeping ---------------------------------------------------

def test_mukai_vector_fields():
    v = MukaiVector(2, -2, 3)
    assert (v.s, v.omega, v.h) == (-2, -4, 0)


def test_mukai_validation():
    with pytest.raises(ValueError):
        MukaiVector(0, 0, 1)
    with pytest.raises(ValueError):
        MukaiVector(1, 3, 1)          # odd
    with pytest.raises(ValueError):
        MukaiVector(1, -4, 1)         # below -2
    with pytest.raises(ValueError):
        MukaiVector(1, 0, F(1, 2))


def test_hilb_index_frozen():
    assert hilb_index(MukaiVector(1, 0, 5)) == 5
    assert hilb_index(MukaiVector(2, -2, 3)) == 4


def test_index_check_catches_a_dropped_term(monkeypatch):
    # without -r^2 the index is off everywhere: half the moduli dimension
    # catches it at the first vector, and with moduli_dim made to agree,
    # the order dt_from_nl sums at catches it at the first n >= 0
    def dropped(v):
        return v.h - v.r * v.omega
    monkeypatch.setattr(checks, "hilb_index", dropped)
    with pytest.raises(ConsistencyError) as err:
        checks.index_consistency()
    assert str(err.value) == ("MukaiVector(r=1, beta_sq=-2, tau=-20): index -19 "
                              "is not half the moduli dimension -40")
    monkeypatch.setattr(checks, "moduli_dim", lambda v, p0: 2 * dropped(v))
    with pytest.raises(ConsistencyError) as err:
        checks.index_consistency()
    assert str(err.value) == ("MukaiVector(r=1, beta_sq=-2, tau=-1): dt_from_nl "
                              "gives 0, not chi(Hilb^0) = 1")


def test_moduli_dim():
    assert moduli_dim(MukaiVector(2, -2, 3), 0) == 8
    v = MukaiVector(1, 0, 5)
    assert moduli_dim(v, 0) == 4
    assert moduli_dim(v, 3) == -2


def test_hilbert_poly_values():
    P = HilbertPolyK3(1, 4, 1, 2)
    assert P.value(0) == 2
    assert P.value(1) == 5
    assert P.value(-1) == 3
    assert P.value(2) == 12


def test_hilbert_poly_from_mukai():
    v = MukaiVector(2, -2, 3)
    P = HilbertPolyK3.from_mukai(v, 4, 1)
    assert (P.r, P.ell, P.d, P.c) == (2, 4, 1, 0)   # c = omega + 2r
    assert P.value(0) == v.omega + 2 * v.r


# -- record contract -----------------------------------------------------
# MukaiVector, HilbertPolyK3 and FibrationSpec are immutable value types.
# What callers may rely on is pinned here, independently of how the
# classes are written.

def _records():
    table = NLTable(4, {(1, 1): F(1, 2)})
    return [
        (MukaiVector, (2, -2, 3), {"r": 2, "beta_sq": -2, "tau": 3}),
        (HilbertPolyK3, (1, 4, 1, 2), {"r": 1, "ell": 4, "d": 1, "c": 2}),
        (FibrationSpec, (4, 3, table, 12, True),
         {"ell": 4, "k": 3, "nl": table, "euler": 12, "nodal": True}),
    ]


def test_records_positional_equals_keyword():
    for cls, args, kwargs in _records():
        a, b = cls(*args), cls(**kwargs)
        assert a == b and not a != b
        assert tuple(getattr(a, name) for name in kwargs) == args
    match MukaiVector(2, -2, 3):
        case MukaiVector(r, beta_sq, tau=tau):
            assert (r, beta_sq, tau) == (2, -2, 3)
        case _:
            pytest.fail("positional pattern did not match")


def test_fibration_spec_defaults():
    spec = FibrationSpec(ell=4, k=0, nl=NLTable(4, {}))
    assert (spec.euler, spec.nodal) == (24, False)
    assert FibrationSpec(4, 0, NLTable(4, {})) == spec


def test_records_repr_bytes():
    assert repr(MukaiVector(2, -2, 3)) == "MukaiVector(r=2, beta_sq=-2, tau=3)"
    assert repr(HilbertPolyK3(1, 4, 1, -2)) == "HilbertPolyK3(r=1, ell=4, d=1, c=-2)"
    assert repr(FibrationSpec(4, 0, NLTable(4, {}))) == (
        "FibrationSpec(ell=4, k=0, nl=NLTable(ell=4, 0 entries), "
        "euler=24, nodal=False)")


def test_records_equal_by_values_within_one_class():
    class Sub(MukaiVector):
        pass

    v = MukaiVector(1, 0, 1)
    assert v == MukaiVector(1, 0, 1) and v != MukaiVector(1, 0, 2)
    assert v != (1, 0, 1) and v != HilbertPolyK3(1, 1, 0, 1)
    assert v != Sub(1, 0, 1) and Sub(1, 0, 1) != v
    spec = FibrationSpec(4, 0, NLTable(4, {(1, 1): F(1)}))
    assert spec == FibrationSpec(4, 0, NLTable(4, {(1, 1): F(1)}))
    assert spec != FibrationSpec(4, 0, NLTable(4, {(1, 1): F(2)}))


def test_records_hashability():
    assert len({MukaiVector(2, -2, 3), MukaiVector(2, -2, 3)}) == 1
    assert hash(HilbertPolyK3(1, 4, 1, 2)) == hash(HilbertPolyK3(1, 4, 1, 2))
    with pytest.raises(TypeError):
        hash(FibrationSpec(4, 0, NLTable(4, {})))     # NLTable is unhashable


def test_records_refuse_assignment():
    for cls, args, kwargs in _records():
        rec = cls(*args)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert rec == cls(*args)


def test_records_copy_and_pickle():
    for cls, args, _ in _records():
        rec = cls(*args)
        assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
        assert pickle.loads(pickle.dumps(rec)) == rec


def test_records_validation_messages():
    for args, message in [
        ((0, 0, 1), "rank must be a positive integer"),
        ((True, 0, 1), None),
        ((1, 3, 1), "beta_sq must be an even integer"),
        ((1, -4, 1), "beta_sq must be >= -2"),
        ((1, 0, F(1, 2)), "tau must be an integer"),
    ]:
        if message is None:
            MukaiVector(*args)                     # bool is an int here
            continue
        with pytest.raises(ValueError) as err:
            MukaiVector(*args)
        assert str(err.value) == message
    for args, message in [((0, 4, 0, 0), "rank must be >= 1"),
                          ((1, 0, 0, 0), "ell must be >= 1")]:
        with pytest.raises(ValueError) as err:
            HilbertPolyK3(*args)
        assert str(err.value) == message
    with pytest.raises(NLValidationError) as err:
        FibrationSpec(ell=2, k=0, nl=NLTable(4, {}))
    assert str(err.value) == "table ell 4 does not match spec ell 2"


# -- table validation ----------------------------------------------------

def test_bound_rejection_names_the_pair():
    with pytest.raises(NLValidationError) as err:
        NLTable(4, {(2, 1): F(1)})
    msg = str(err.value)
    assert "h=2" in msg and "d=1" in msg


def test_zero_entries_dropped():
    t = NLTable(4, {(1, 1): F(0), (0, 0): F(3)})
    assert len(t) == 1
    assert t.value(1, 1) == 0
    assert t.value(0, 0) == 3
    with pytest.raises(NLValidationError, match="floating point"):
        NLTable(4, {(0, 1): 0.1})
    for key in ((True, 1), (0, False)):
        with pytest.raises(NLValidationError, match="integers"):
            NLTable(4, {key: 1})


def test_bound_edge_cases():
    NLTable(4, {(1, 0): 1})              # 0 <= 0, allowed
    NLTable(2, {(2, 2): 1})              # 2*2*1 = 4 <= 4, allowed
    with pytest.raises(NLValidationError):
        NLTable(2, {(3, 2): 1})          # 8 > 4
    NLTable(4, {(-5, 0): 1})             # deep negative h is always fine


def test_nl_load_roundtrip():
    spec = load_fixture("mixed_shift")
    assert spec.ell == 4 and spec.k == 2 and spec.euler == 24 and spec.nodal
    assert spec.nl.value(1, 1) == F(3, 2)
    again = nl_load(nl_dump(spec))
    assert again == spec
    assert nl_dump(again) == nl_dump(spec)


def test_nl_dump_row_order():
    spec = load_fixture("quartic_pencil")
    rows = nl_dump(spec)["nl"]
    keys = [(row["d"], row["h"]) for row in rows]
    assert keys == sorted(keys)
    assert all(isinstance(row["value"], str) for row in rows)


def test_nl_load_defaults():
    spec = nl_load({"ell": 2, "k": 0, "nl": []})
    assert spec.euler == 24 and spec.nodal is False and len(spec.nl) == 0


@pytest.mark.parametrize("doc, fragment", [
    ({"ell": 2, "nl": []}, "k"),
    ({"ell": 2, "k": 0, "nl": [], "extra": 1}, "unknown"),
    ({"ell": 2, "k": 0, "nl": {}}, "list"),
    ({"ell": 2, "k": 0, "nl": [{"h": 1, "d": 0}]}, "row 0"),
    ({"ell": 2, "k": 0, "nl": [{"h": 1, "d": 0, "value": "1", "x": 2}]}, "row 0"),
    ({"ell": 2, "k": 0, "nl": [{"h": True, "d": 0, "value": "1"}]}, "integer"),
    ({"ell": 2, "k": 0, "nl": [{"h": 1, "d": 0, "value": "1.5"}]}, "rational"),
    ({"ell": 2, "k": 0, "nl": [{"h": 1, "d": 0, "value": "1/0"}]}, "rational"),
    ({"ell": 2, "k": 0, "nl": [{"h": 1, "d": 0, "value": True}]}, "boolean"),
    ({"ell": 2, "k": True, "nl": []}, "integer"),
    ({"ell": 2.0, "k": 0, "nl": []}, "integer"),
    ({"ell": 2, "k": 0, "nodal": 1, "nl": []}, "boolean"),
    ([], "object"),
])
def test_nl_load_rejects(doc, fragment):
    with pytest.raises(NLValidationError) as err:
        nl_load(doc)
    assert fragment in str(err.value)


def test_nl_load_duplicate_pair():
    doc = {"ell": 2, "k": 0, "nl": [
        {"h": 1, "d": 0, "value": "1"},
        {"h": 1, "d": 0, "value": "2"},
    ]}
    with pytest.raises(NLValidationError) as err:
        nl_load(doc)
    assert "duplicate" in str(err.value)


def test_nl_loads_rejects_float_literal():
    text = '{"ell": 2, "k": 0, "nl": [{"h": 1, "d": 0, "value": 1.5}]}'
    with pytest.raises(NLValidationError) as err:
        nl_loads(text)
    assert "float" in str(err.value)


def test_nl_loads_malformed_json():
    with pytest.raises(NLValidationError):
        nl_loads("{not json")


def test_nl_load_path_names_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ell": 4, "k": 0, "nl": [{"h": 2, "d": 1, "value": "1"}]}')
    with pytest.raises(NLValidationError) as err:
        nl_load_path(bad)
    assert "bad.json" in str(err.value)


def test_fibration_spec_ell_mismatch():
    with pytest.raises(NLValidationError):
        FibrationSpec(ell=2, k=0, nl=NLTable(4, {}))


# -- invariants from tables ---------------------------------------------

def test_dt_empty_table_nonzero_degree():
    spec = FibrationSpec(ell=4, k=3, nl=NLTable(4, {}))
    for c in range(-3, 4):
        assert dt_from_nl(spec, HilbertPolyK3(1, 4, 1, c)) == 0


def test_dt_delta_term_smooth_double():
    # empty table, degree 0: only the correction term survives, and the
    # halving of the doubled fibration brings k*chi(Hilb^0) down to k
    spec = FibrationSpec(ell=2, k=2, nl=NLTable(2, {}))
    assert dt_from_nl(spec, HilbertPolyK3(1, 2, 0, 2)) == -1
    assert dt_from_nl(spec, HilbertPolyK3(1, 2, 0, 1)) == -24
    assert dt_from_nl(spec, HilbertPolyK3(1, 2, 0, 3)) == 0


def test_dt_single_entry():
    spec = FibrationSpec(ell=4, k=0, nl=NLTable(4, {(1, 1): F(1)}))
    assert dt_from_nl(spec, HilbertPolyK3(1, 4, 1, 2)) == F(1, 2)
    assert dt_from_nl(spec, HilbertPolyK3(1, 4, 1, 1)) == 12
    assert dt_from_nl(spec, HilbertPolyK3(1, 4, 1, 3)) == 0
    assert dt_from_nl(spec, HilbertPolyK3(1, 4, 0, 2)) == 0


def test_dt_respects_euler_number():
    spec = FibrationSpec(ell=2, k=0, euler=12, nl=NLTable(2, {(1, 0): F(2)}))
    assert dt_from_nl(spec, HilbertPolyK3(1, 2, 0, 1)) == 12
    assert dt_from_nl(spec, HilbertPolyK3(1, 2, 0, 0)) == 90


def test_dt_linear_in_table():
    t1 = FibrationSpec(ell=4, k=0, nl=NLTable(4, {(1, 1): F(3, 2)}))
    t2 = FibrationSpec(ell=4, k=0, nl=NLTable(4, {(1, 1): F(3)}))
    P = HilbertPolyK3(1, 4, 1, 0)
    assert 2 * dt_from_nl(t1, P) == dt_from_nl(t2, P)


def test_dt_ell_mismatch():
    spec = FibrationSpec(ell=4, k=0, nl=NLTable(4, {}))
    with pytest.raises(ValueError):
        dt_from_nl(spec, HilbertPolyK3(1, 2, 0, 0))


def test_dt_cold_call_fills_euler_cache_once(monkeypatch):
    # d = 0 rows in ascending h need chi(Hilb^31), (^41) and (^42), and the
    # k term (^42): read in table order, the first lookup fills the cache to
    # order 31 and the next refills it at 64; read from the top, one fill
    calls = []
    fill = qseries._euler_coeffs
    monkeypatch.setattr(qseries, "_euler_pow_cache", {})
    monkeypatch.setattr(qseries, "_euler_coeffs",
                        lambda terms: calls.append(terms) or fill(terms))
    spec = FibrationSpec(ell=2, k=3, nl=NLTable(
        2, {(-10, 0): F(1), (0, 0): F(2), (1, 0): F(5)}))
    value = dt_from_nl(spec, HilbertPolyK3(1, 2, 0, -40))
    assert value == 405240815018402675369320
    assert calls == [42]


def test_dt_matches_fraction_sum_random():
    # dt_from_nl sums in integers over the lcm of the weights' denominators;
    # here the same halved sum term by term in Fractions of hilb_euler, with
    # the -k term at d = 0; c up to 8 puts rows at m < 0, whose chi is 0
    rng = random.Random(4417)
    below = 0
    for _ in range(40):
        ell = rng.choice([2, 4, 6])
        euler = rng.choice([24, 12, -7])
        k = rng.choice([-3, -1, 1, 2])
        entries = {(rng.randint(-15, 1), rng.randrange(2)):
                   F(rng.randint(-10**6, 10**6), rng.choice([1, 7, 999, 1000]))
                   for _ in range(rng.randint(0, 12))}
        spec = FibrationSpec(ell=ell, k=k, euler=euler,
                             nl=NLTable(ell, entries))
        for r in (1, 2):
            for d in (0, 1):
                for c in range(-6, 9):
                    rows = [(r * r + h - r * c, v)
                            for (h, dd), v in entries.items() if dd == d]
                    if d == 0:
                        rows.append((r * r + 1 - r * c, -k))
                    below += any(m < 0 for m, _ in rows)
                    want = sum((v * hilb_euler(m, euler) for m, v in rows),
                               F(0)) / 2
                    got = dt_from_nl(spec, HilbertPolyK3(r, ell, d, c))
                    assert type(got) is F and got == want
    assert below > 100


def test_symmetry_pair_values():
    assert dt_symmetry_pair(1, 4, 0, 0) == (4, 2, True)
    assert dt_symmetry_pair(2, 4, 1, 0) == (5, F(3, 2), False)
    assert dt_symmetry_pair(1, 2, 0, 5) == (2, 6, True)
    d2, c2, ok = dt_symmetry_pair(2, 4, 2, 1)
    assert (d2, c2, ok) == (6, 3, True)


def test_symmetry_pair_always_valid_rank_one_even_ell():
    for ell in (2, 4, 6):
        for d in range(ell):
            for c in range(-5, 6):
                _, c2, ok = dt_symmetry_pair(1, ell, d, c)
                assert ok and c2 == c + d + ell // 2


def _closed_random_table(rng, ell, k=0):
    # seed entries in d in [0, ell), then close under the shift so the
    # pairing has both sides of every cell present
    entries = {}
    for _ in range(rng.randint(1, 5)):
        d = rng.randrange(ell)
        h_top = 1 + (d * d) // (2 * ell)
        h = rng.randint(-4, h_top)
        v = F(rng.randint(-6, 6), rng.randint(1, 4))
        if v:
            entries[(h, d)] = v
    table = NLTable(ell, entries)
    table = nl_symmetry_extend(table, h_lo=-10, d_min=0, d_max=2 * ell - 1)
    return FibrationSpec(ell=ell, k=k, nl=table)


def test_dt_symmetry_on_closed_tables():
    rng = random.Random(2024)
    for _ in range(12):
        ell = rng.choice([2, 4, 6])
        spec = _closed_random_table(rng, ell)
        for d in range(ell):
            for c in range(-5, 6):
                d2, c2, ok = dt_symmetry_pair(1, ell, d, c)
                assert ok
                lhs = dt_from_nl(spec, HilbertPolyK3(1, ell, d, c))
                rhs = dt_from_nl(spec, HilbertPolyK3(1, ell, d2, int(c2)))
                assert lhs == rhs, (ell, d, c, lhs, rhs)


def test_dt_symmetry_with_correction_term_positive_degree():
    # k enters only at d = 0, so for d >= 1 the pairing survives k != 0
    rng = random.Random(11)
    for _ in range(6):
        ell = rng.choice([2, 4])
        spec = _closed_random_table(rng, ell, k=rng.randint(-3, 3))
        for d in range(1, ell):
            for c in range(-5, 6):
                d2, c2, _ = dt_symmetry_pair(1, ell, d, c)
                assert dt_from_nl(spec, HilbertPolyK3(1, ell, d, c)) == \
                    dt_from_nl(spec, HilbertPolyK3(1, ell, d2, int(c2)))


def test_dt_symmetry_breaks_at_degree_zero_with_correction():
    # the correction term lives at d = 0 only; its image cell has none,
    # so the pairing is genuinely one-sided there
    spec = FibrationSpec(ell=4, k=2, nl=NLTable(4, {}))
    d2, c2, ok = dt_symmetry_pair(1, 4, 0, 2)
    assert ok and (d2, c2) == (4, 4)
    assert dt_from_nl(spec, HilbertPolyK3(1, 4, 0, 2)) == -1
    assert dt_from_nl(spec, HilbertPolyK3(1, 4, 4, 4)) == 0


# -- symmetry extension --------------------------------------------------

def test_extend_empty():
    t = nl_symmetry_extend(NLTable(4, {}), 0, 0, 10)
    assert len(t) == 0


def test_extend_single_entry():
    t = nl_symmetry_extend(NLTable(4, {(1, 0): F(7)}), 0, 0, 4)
    assert t.entries == {(1, 0): F(7), (3, 4): F(7)}


def test_extend_backward_direction():
    t = nl_symmetry_extend(NLTable(4, {(3, 4): F(7)}), 0, 0, 4)
    assert t.entries == {(1, 0): F(7), (3, 4): F(7)}


def test_extend_window_filters():
    t = nl_symmetry_extend(NLTable(4, {(1, 0): F(7)}), h_lo=2, d_min=0, d_max=3)
    assert t.entries == {(1, 0): F(7)}
    t = nl_symmetry_extend(NLTable(4, {(1, 0): F(7)}), h_lo=4, d_min=0, d_max=8)
    assert t.entries == {(1, 0): F(7)}    # image (3,4) below h_lo
    # the orbit of (5, -4) at ell 2 runs (2, -2), (1, 0), (2, 2), (5, 4): h
    # dips under h_lo = 3 around d = 0, and the walk stops before (5, 4)
    t = nl_symmetry_extend(NLTable(2, {(5, -4): F(7)}), 3, -4, 4)
    assert t.entries == {(5, -4): F(7)}


def test_extend_idempotent_on_fixed_window():
    # seeds live at distinct degrees in [0, ell), so no two can be related
    # by the shift and the closure is conflict-free by construction
    rng = random.Random(5)
    for _ in range(20):
        ell = rng.choice([2, 4, 6])
        entries = {}
        for _ in range(rng.randint(1, 6)):
            d = rng.randrange(ell)
            h = rng.randint(-3, 1 + (d * d) // (2 * ell))
            entries[(h, d)] = F(rng.randint(1, 9))
        once = nl_symmetry_extend(NLTable(ell, entries), -8, 0, 3 * ell)
        twice = nl_symmetry_extend(once, -8, 0, 3 * ell)
        assert once == twice


def test_extend_conflict():
    with pytest.raises(ConsistencyError):
        nl_symmetry_extend(NLTable(4, {(1, 0): F(1), (3, 4): F(2)}), 0, 0, 4)


def test_extend_conflict_free_when_consistent():
    t = nl_symmetry_extend(NLTable(4, {(1, 0): F(2), (3, 4): F(2)}), 0, 0, 8)
    assert t.entries[(9, 8)] == F(2)
    assert len(t) == 3


def test_extend_odd_ell_unsupported():
    with pytest.raises(ValueError):
        nl_symmetry_extend(NLTable(3, {}), 0, 0, 6)


def test_extend_never_violates_bound():
    # consistent seeds: base cells at d in [0, ell) plus, sometimes, an
    # explicit shift image carrying the same value
    rng = random.Random(99)
    for _ in range(50):
        ell = rng.choice([2, 4, 6, 8])
        base = {}
        for _ in range(rng.randint(1, 6)):
            d = rng.randrange(ell)
            h = rng.randint(-5, 1 + (d * d) // (2 * ell))
            base[(h, d)] = F(rng.randint(1, 5))
        entries = dict(base)
        for (h, d), v in base.items():
            if rng.random() < 0.4:
                entries[(h + d + ell // 2, d + ell)] = v
        table = NLTable(ell, entries)
        out = nl_symmetry_extend(table, rng.randint(-8, 0), 0,
                                 rng.randint(ell, 5 * ell))
        assert len(out) >= len(table)
        for (h, d) in out.entries:
            assert NLTable.bound_ok(h, d, ell)


def _work_list_extend(table, h_lo, d_min, d_max):
    # reference: the closure by a work list over the map and its inverse,
    # which never uses the closed form of an orbit
    ell = table.ell
    out = dict(table.entries)
    work = list(out)
    while work:
        h, d = work.pop()
        v = out[(h, d)]
        for nh, nd in ((h + d + ell // 2, d + ell), (h - d + ell // 2, d - ell)):
            if not (d_min <= nd <= d_max) or nh < h_lo:
                continue
            old = out.get((nh, nd))
            if old is None:
                out[(nh, nd)] = v
                work.append((nh, nd))
            elif old != v:
                raise ConsistencyError("symmetry conflict at (h=%d, d=%d)"
                                       % (nh, nd))
    return NLTable(ell, out)


def _extend_outcome(extend, table, window):
    try:
        return extend(table, *window).entries
    except ConsistencyError:
        return "conflict"


def test_orbit_walk_matches_work_list():
    # seeds placed anywhere on their orbits, inside the window or not, some
    # with explicit images, some with one image of another value; windows
    # reach below d = 0, and h_lo cuts orbits where h dips near d = 0
    rng = random.Random(1913)
    outcomes = []
    for _ in range(400):
        ell = rng.choice([2, 4, 6])
        entries = {}
        for _ in range(rng.randint(1, 5)):
            d = rng.randrange(ell)
            h = rng.randint(-4, 1 + (d * d) // (2 * ell))
            v = F(rng.randint(1, 9))
            for j in rng.sample(range(-4, 5), rng.randint(1, 3)):
                entries[(h + j * d + j * j * ell // 2, d + j * ell)] = v
        if rng.random() < 0.3:
            (h, d), v = rng.choice(sorted(entries.items()))
            entries[(h + d + ell // 2, d + ell)] = v + 1
        table = NLTable(ell, entries)
        d_min = rng.randint(-4 * ell, ell)
        window = (rng.randint(-6, 4), d_min, rng.randint(d_min, 4 * ell))
        got = _extend_outcome(nl_symmetry_extend, table, window)
        assert got == _extend_outcome(_work_list_extend, table, window), \
            (ell, entries, window)
        outcomes.append(got == "conflict")
    assert any(outcomes) and not all(outcomes)


def test_orbit_walk_and_work_list_both_refuse_a_conflicting_pair():
    table = NLTable(4, {(1, 0): F(1), (9, 8): F(2)})
    for extend in (nl_symmetry_extend, _work_list_extend):
        with pytest.raises(ConsistencyError):
            extend(table, 0, -8, 8)


# -- generating series ---------------------------------------------------

def test_phi_empty():
    spec = FibrationSpec(ell=4, k=0, nl=NLTable(4, {}))
    p = phi_series(spec, 0, 5)
    assert not p and p.grid == 8 and p.bound == 5


def test_phi_single_entry_at_zero():
    spec = FibrationSpec(ell=4, k=0, nl=NLTable(4, {(1, 0): F(5)}))
    p = phi_series(spec, 0, 5)
    assert p.terms() == [(F(0), F(5))]


def test_phi_exponents_on_eighths():
    spec = FibrationSpec(ell=4, k=0,
                         nl=NLTable(4, {(1, 1): F(2), (0, 1): F(3), (-1, 1): F(1)}))
    p = phi_series(spec, 1, 5)
    assert p.grid == 8
    assert p.terms() == [(F(1, 8), F(2)), (F(9, 8), F(3)), (F(17, 8), F(1))]


def test_phi_rejects_unreduced_degree():
    spec = FibrationSpec(ell=4, k=0, nl=NLTable(4, {}))
    with pytest.raises(ValueError):
        phi_series(spec, 4, 5)
    with pytest.raises(ValueError):
        phi_series(spec, -1, 5)


def test_z_series_refuse_negative_terms():
    spec = FibrationSpec(ell=2, k=2, nl=NLTable(2, {}))
    for route in (z_series_closed, z_series_direct):
        for d in (None, 0):
            with pytest.raises(ValueError, match=r"terms must be >= 0, got -1"):
                route(spec, -1, d)
        assert route(spec, 0, 0).terms() == [(F(-1), F(-1)), (F(0), F(-24))]


def test_z_closed_zero_table():
    spec = FibrationSpec(ell=2, k=0, nl=NLTable(2, {}))
    comps = z_series_closed(spec, 5)
    assert set(comps) == {0, 1}
    assert all(not s for s in comps.values())


def test_z_closed_pure_correction():
    spec = FibrationSpec(ell=2, k=2, nl=NLTable(2, {}))
    z0 = z_series_closed(spec, 4, 0)
    want = [(F(-1), F(-1)), (F(0), F(-24)), (F(1), F(-324)),
            (F(2), F(-3200)), (F(3), F(-25650)), (F(4), F(-176256))]
    assert z0.terms() == want


def test_z_two_copies_fixture():
    spec = load_fixture("two_copies")
    z0 = z_series_closed(spec, 4, 0)
    want = [(F(-1), F(1)), (F(0), F(24)), (F(1), F(324)),
            (F(2), F(3200)), (F(3), F(25650)), (F(4), F(176256))]
    assert z0.terms() == want
    z1 = z_series_closed(spec, 4, 1)
    assert not z1


def test_z_mixed_shift_fixture_prefixes():
    spec = load_fixture("mixed_shift")
    z = z_series_closed(spec, 3)
    assert z[0].terms() == [(F(-1), F(-1)), (F(0), F(-47, 2)), (F(1), F(-312)),
                            (F(2), F(-3038)), (F(3), F(-24050))]
    assert z[1].terms() == [(F(-7, 8), F(3, 4)), (F(1, 8), F(18)),
                            (F(9, 8), F(243)), (F(17, 8), F(2400))]
    assert z[2].terms() == [(F(1, 2), F(-5, 2)), (F(3, 2), F(-60)),
                            (F(5, 2), F(-810))]
    assert z[3].terms() == []


def test_z_symmetry_window_fixture_prefix():
    spec = load_fixture("symmetry_window")
    z1 = z_series_closed(spec, 3, 1)
    assert z1.terms() == [(F(-7, 8), F(1, 4)), (F(1, 8), F(6)),
                          (F(9, 8), F(81)), (F(17, 8), F(800))]


def test_z_quartic_fixture_prefix():
    spec = load_fixture("quartic_pencil")
    z0 = z_series_closed(spec, 2, 0)
    assert z0.terms() == [(F(-1), F(-1, 2)), (F(0), F(42)),
                          (F(1), F(1134)), (F(2), F(15896))]


def test_z_series_shapes():
    spec = load_fixture("mixed_shift")
    for d in range(4):
        c = z_series_closed(spec, 6, d)
        s = z_series_direct(spec, 6, d)
        assert c.grid == 8 and s.grid == 8
        assert c.bound == 6 and s.bound == 6


def test_z_closed_equals_direct_on_fixtures():
    for name in ("two_copies", "mixed_shift", "symmetry_window", "quartic_pencil"):
        spec = load_fixture(name)
        assert z_series_closed(spec, 8) == z_series_direct(spec, 8), name


def test_z_closed_all_components_equal_single_components():
    for name in ("two_copies", "mixed_shift", "symmetry_window", "quartic_pencil"):
        spec = load_fixture(name)
        assert z_series_closed(spec, 8) == {
            d: z_series_closed(spec, 8, d) for d in range(spec.ell)}, name


def _random_spec(rng):
    ell = rng.choice([2, 4, 6])
    entries = {}
    for _ in range(rng.randint(0, 10)):
        d = rng.randrange(ell)
        h = rng.randint(-4, 1 + (d * d) // (2 * ell))
        v = F(rng.randint(-8, 8), rng.randint(1, 4))
        if v:
            entries[(h, d)] = v
    return FibrationSpec(ell=ell, k=rng.randint(-3, 3), nl=NLTable(ell, entries))


def test_z_closed_equals_direct_randomized():
    rng = random.Random(60289)
    for _ in range(25):
        spec = _random_spec(rng)
        assert z_series_closed(spec, 10) == z_series_direct(spec, 10)


def test_z_closed_equals_direct_other_euler_number():
    for euler in (-7, 0, 1, 12):
        rng = random.Random(3)
        for _ in range(5):
            base = _random_spec(rng)
            spec = FibrationSpec(ell=base.ell, k=base.k, euler=euler, nl=base.nl)
            assert z_series_closed(spec, 8) == z_series_direct(spec, 8), euler


def test_z_exponents_in_their_class(monkeypatch):
    # both routes shifted by q^(1/2ell) still agree, on grid 1/2ell, but no
    # exponent of Z_d lies in d^2/2ell + Z any more: only the T half of
    # modularity in the closed = direct check can tell
    def shifted(route):
        def fn(spec, terms):
            step = F(1, 2 * spec.ell)
            return {d: s.shift(step) for d, s in route(spec, terms).items()}
        return fn

    assert "exponents of Z_d in d^2/2ell + Z" in checks.closed_equals_direct()
    monkeypatch.setattr(checks, "z_series_closed", shifted(z_series_closed))
    monkeypatch.setattr(checks, "z_series_direct", shifted(z_series_direct))
    with pytest.raises(ConsistencyError) as err:
        checks.closed_equals_direct()
    assert "is not d^2/2ell mod 1" in str(err.value)


def test_z_coefficients_match_dt_values():
    # the direct series is, by construction, indexed by c; spot-check that
    # reading a coefficient off the closed form recovers a dt value
    spec = load_fixture("mixed_shift")
    for d in range(4):
        z = z_series_closed(spec, 10, d)
        for c in range(-8, 3):
            e = 1 + F(d * d, 8) - c
            if e <= z.bound:
                assert z.coefficient(e) == dt_from_nl(
                    spec, HilbertPolyK3(1, 4, d, c))
