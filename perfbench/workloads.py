"""Seeded job lists for the three workloads, each job with its answer check.

The seed changes only the data: table contents, sampled-mode seeds, Euler
numbers, output formats and the --n or --s/--d spelling of a p3 job.  The
shape and order of each job list stay fixed, so the work in a pass is the
same for every seed and the run-to-run spread measures the machine, not the
draw.  The program sees only argv and the table files written here; jobs
use no flag that changes how the work is split (no --workers).

A check takes a job's stdout and returns None when the answer is right, or
a one-line reason when it is not.  Expected answers come from oracle.py.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from oracle import EulerPowers, dt_value, symmetry_closure


class Job(NamedTuple):
    argv: list
    check: Callable[[str], Optional[str]]


def _fmt(rng) -> list:
    return ["--format", rng.choice(("text", "structured"))]


def _read_value(out: str, argv: list) -> Fraction:
    if "structured" in argv:
        return Fraction(json.loads(out)["value"])
    return Fraction(out.strip())


def _expect_value(argv: list, want) -> Callable[[str], Optional[str]]:
    def check(out):
        got = _read_value(out, argv)
        return None if got == want else "got %s, expected %s" % (got, want)
    return check


def _read_series(out: str, argv: list):
    """({exponent: coefficient}, truncation exponent) of one printed series."""
    if "structured" in argv:
        doc = json.loads(out)
        coeffs = {Fraction(e): Fraction(c) for e, c in doc["terms"]}
        return coeffs, Fraction(doc["truncation"])
    lines = out.splitlines()
    coeffs = {}
    for line in lines[:-1]:
        head, value = line.split(": ")
        coeffs[Fraction(head[len("q^("):-1])] = Fraction(value)
    last = lines[-1]
    if not (last.startswith("O(q^(") and last.endswith("))")):
        raise ValueError("no truncation line")
    return coeffs, Fraction(last[len("O(q^("):-2])


# -- p3 -------------------------------------------------------------------

_P3_EULER = 7  # Carlsson-Okounkov exponent for the plane with L = O(1)


def _p3_spelling(rng, n: int) -> list:
    """--s/--d for n = s(s+3)/2 - d + 1, with the seed picking s among the
    three smallest surface degrees that keep d >= 0."""
    s = 1
    while s * (s + 3) // 2 + 1 < n:
        s += 1
    s += rng.randrange(3)
    return ["--s", str(s), "--d", str(s * (s + 3) // 2 + 1 - n)]


def p3_symbolic(rng, workdir, powers) -> list:
    jobs = []
    for i, n in enumerate(range(3, 8)):
        spelling = _p3_spelling(rng, n) if i % 2 else ["--n", str(n)]
        argv = ["p3"] + spelling + _fmt(rng)
        jobs.append(Job(argv, _expect_value(argv, powers.coeffs(_P3_EULER, n)[n])))
    return jobs


def p3_sampled(rng, workdir, powers) -> list:
    jobs = []
    for i, n in enumerate(range(5, 9)):
        argv = ["p3", "--n", str(n), "--mode", "sampled",
                "--seed", str(rng.randrange(1, 2**31))] + _fmt(rng)
        if i % 2:
            argv += ["--samples", "3"]
        jobs.append(Job(argv, _expect_value(argv, powers.coeffs(_P3_EULER, n)[n])))
    return jobs


# -- K3 tables --------------------------------------------------------------

# (name, ell); each table has about 100 rows, ceil(100 / ell) per degree
_TABLES = (("A", 8), ("B", 6), ("C", 4))


def _table(rng, ell: int) -> dict:
    """A valid table document: for each d in [0, ell) the rows from the
    vanishing bound h = 1 + floor(d^2 / 2ell) downward, exact p/q values.

    Degrees stay inside one period, so no two rows share a symmetry orbit
    and every extension is conflict free.  Rows are in nl_dump's order
    (d, then h ascending), the order the program writes tables in.
    """
    depth = -(-100 // ell)
    rows = []
    for d in range(ell):
        top = 1 + d * d // (2 * ell)
        for h in range(top - depth + 1, top + 1):
            num = rng.choice((-1, 1)) * rng.randint(1, 10**6)
            rows.append({"h": h, "d": d,
                         "value": "%d/%d" % (num, rng.randint(1, 1000))})
    return {"ell": ell, "k": rng.randint(-3, 3), "euler": 24,
            "nodal": rng.random() < 0.5, "nl": rows}


def _check_validate(argv, table):
    n, ell, k = len(table["nl"]), table["ell"], table["k"]

    def check(out):
        if "structured" in argv:
            ok = json.loads(out) == {"value": "ok", "entries": n, "ell": ell, "k": k}
        else:
            ok = out == "ok: %d entries, ell = %d, k = %d\n" % (n, ell, k)
        return None if ok else "unexpected validation report %r" % out[:80]
    return check


def _check_extend(table, window):
    want = symmetry_closure(table, *window)

    def check(out):
        doc = json.loads(out)
        head = {key: doc[key] for key in ("ell", "k", "euler", "nodal")}
        if head != {key: table[key] for key in head}:
            return "header changed: %r" % head
        got = {(row["h"], row["d"]): Fraction(row["value"]) for row in doc["nl"]}
        if len(got) != len(doc["nl"]):
            return "duplicate rows"
        if got != want:
            return "%d cells differ from the closure" % len(set(got.items()) ^ set(want.items()))
        return None
    return check


def _check_z_components(table, terms, powers):
    ell = table["ell"]
    grid = 2 * ell

    def check(out):
        doc = json.loads(out)
        comps = dict((d, series) for d, series in doc["components"])
        if sorted(comps) != list(range(ell)):
            return "components %s" % sorted(comps)
        for d, series in comps.items():
            if series["grid"] != grid or Fraction(series["truncation"]) != terms:
                return "d=%d: grid %s, truncation %s" % (d, series["grid"], series["truncation"])
            got = {Fraction(e): Fraction(c) for e, c in series["terms"]}
            top = 1 + Fraction(d * d, grid)  # exponent of c = 0
            c_hi = 1 + max(row["h"] for row in table["nl"] if row["d"] == d)
            if d == 0:
                c_hi = max(c_hi, 2)
            c_lo = -((terms - top) // 1)
            want = {}
            for c in range(c_lo, c_hi + 1):
                v = dt_value(powers, table, 1, d, c)
                if v:
                    want[top - c] = v
            if got != want:
                bad = sorted(set(got.items()) ^ set(want.items()))[:1]
                return "d=%d: %d coefficients differ from DT, first %s" % (
                    d, len(set(got.items()) ^ set(want.items())), bad)
        return None
    return check


def _check_goettsche(argv, euler, terms, powers):
    want = {Fraction(m): Fraction(a)
            for m, a in enumerate(powers.coeffs(euler, terms)) if a}

    def check(out):
        coeffs, trunc = _read_series(out, argv)
        if "structured" not in argv:
            trunc -= 1  # text prints the order term O(q^(terms + 1))
        if trunc != terms:
            return "truncation %s, expected %s" % (trunc, terms)
        if coeffs != want:
            return "%d coefficients differ" % len(set(coeffs.items()) ^ set(want.items()))
        return None
    return check


def k3_tables(rng, workdir, powers) -> list:
    tables = {}
    paths = {}
    for name, ell in _TABLES:
        tables[name] = _table(rng, ell)
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as f:
            json.dump(tables[name], f)
    A, B, C = (tables[name] for name, _ in _TABLES)
    jobs = []

    for name in ("A", "B", "C"):
        argv = ["nl-validate", paths[name]] + _fmt(rng)
        jobs.append(Job(argv, _check_validate(argv, tables[name])))

    for name in ("A", "C"):
        ell = tables[name]["ell"]
        window = (-rng.randint(16, 24), -2 * ell, 3 * ell - 1)
        argv = ["nl-extend", paths[name], "--h-lo", str(window[0]),
                "--d-min", str(window[1]), "--d-max", str(window[2])]
        jobs.append(Job(argv, _check_extend(tables[name], window)))

    # the first dt job fills the Euler-power cache cold at |c| = 400; the
    # later ones, at smaller |c| or rank 2, read it
    for name, r, d, c in (
            ("A", 1, rng.randrange(A["ell"]), -400),
            ("B", 1, rng.randrange(B["ell"]), -rng.randint(200, 300)),
            ("C", 2, rng.randrange(C["ell"]), -rng.randint(100, 150)),
            ("A", 1, 0, rng.randint(-5, 2))):
        argv = ["dt", "--nl", paths[name], "--d", str(d), "--c", str(c)]
        if r != 1:
            argv += ["--r", str(r)]
        argv += _fmt(rng)
        jobs.append(Job(argv, _expect_value(argv, dt_value(powers, tables[name], r, d, c))))

    argv = ["z", "--nl", paths["B"], "--terms", "150", "--check"]
    jobs.append(Job(argv, lambda out: None if out == "closed = direct: OK\n"
                    else "unexpected check report %r" % out[:80]))
    argv = ["z", "--nl", paths["C"], "--terms", "100", "--format", "structured"]
    jobs.append(Job(argv, _check_z_components(C, 100, powers)))

    # four distinct Euler numbers in disjoint bands with a fixed sum, so the
    # cold-fill cost hardly depends on the seed; two repeats read the cache.
    # None is 24, whose cache entry the dt jobs share.
    d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
    e1, e2, e3, e4 = 20 + d1, 20 - d1, 12 + d2, 12 - d2
    for euler in (e1, e2, e1, e3, e4, e2):
        argv = ["goettsche", "--euler", str(euler), "--terms", "600"] + _fmt(rng)
        jobs.append(Job(argv, _check_goettsche(argv, euler, 600, powers)))
    return jobs


WORKLOADS = {
    "p3-symbolic": p3_symbolic,
    "p3-sampled": p3_sampled,
    "k3-tables": k3_tables,
}


def build(name: str, seed: int, workdir: str) -> list:
    """The job list of a workload for a seed; table files go to workdir."""
    rng = random.Random("%s/%d" % (name, seed))
    return WORKLOADS[name](rng, workdir, EulerPowers())
