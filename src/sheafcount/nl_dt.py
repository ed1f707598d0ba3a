"""Fiberwise sheaf counting on K3 fibrations from intersection-number tables.

A fibration over a curve with K3 surface fibers (finitely many allowed to
have one node) determines, for each pair (h, d), an intersection number
against a divisor on the base: the table entry NL[h, d].  These numbers are
inputs here, loaded from documents; computing them from geometry is a
Hodge-theoretic problem outside this package's scope.  What the package
does: validates tables against the vanishing bound h <= 1 + d^2/(2*ell),
extends them along their translation symmetry, and assembles sheaf-counting
invariants and their generating series.

Conventions that every formula below relies on:

* The table always describes the smooth side of the story: for a nodal
  fibration that is its double-cover resolution, and for a smooth fibration
  the disjoint union of two copies of itself (so honest tables of smooth
  geometries carry doubled values).  In both cases the invariant of the
  original fibration is half the tabulated-side sum, so a single uniform
  factor 1/2 covers smooth and nodal alike and the `nodal` flag is
  descriptive metadata only.

* The constant k of a FibrationSpec is the degree of the associated line
  bundle on the base of that same tabulated (resolved or doubled)
  fibration.  It enters only the d = 0 sector, through the correction term
  -k * chi(Hilb^(r^2 + 1 - r*c)) inside the halved sum.

* The translation symmetry of tables is (h, d) -> (h + d + ell/2, d + ell),
  value preserved; it requires even ell to stay integral.  Its orbits,
  (h + j*d + j^2*ell/2, d + j*ell) over integers j, are what
  nl_symmetry_extend walks.  On invariants it induces, for rank 1, the
  matching (d, c) -> (d + ell, c + (2d + ell)/2): the shift of c has to
  grow with d for the two generating series to line up, which
  independently follows from twisting sheaves by the polarization.
  dt_symmetry_pair implements precisely that pairing and the test suite
  verifies the invariance it promises.
"""

import re
from fractions import Fraction
from itertools import count
from math import lcm

from .errors import ConsistencyError, NLValidationError
from .qseries import PuiseuxSeries, _euler_pow_at, goettsche_series

__all__ = [
    "MukaiVector", "HilbertPolyK3", "NLTable", "FibrationSpec",
    "moduli_dim", "hilb_index",
    "nl_load", "nl_loads", "nl_load_path", "nl_dump",
    "nl_symmetry_extend", "dt_from_nl", "dt_symmetry_pair",
    "phi_series", "z_series_closed", "z_series_direct",
]


class _Record:
    """Immutable value type: its fields are its __slots__, in order.

    Equal by field values to instances of the same class only, hashed by
    the tuple of field values, and refusing assignment and deletion after
    the constructor sets the fields.  Stands in for a frozen dataclass
    without importing dataclasses, which pulls inspect into every start-up.
    """

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class MukaiVector(_Record):
    """Rank, fiberwise curve self-intersection, and second Chern number.

    The derived entries: s = beta_sq/2 - tau + r is the last component of
    the vector (r, beta, s); omega = beta_sq/2 - tau; h = beta_sq/2 + 1 is
    the arithmetic genus attached to beta.
    """

    __slots__ = __match_args__ = ("r", "beta_sq", "tau")

    def __init__(self, r: int, beta_sq: int, tau: int):
        if not isinstance(r, int) or r < 1:
            raise ValueError("rank must be a positive integer")
        if not isinstance(beta_sq, int) or beta_sq % 2:
            raise ValueError("beta_sq must be an even integer")
        if beta_sq < -2:
            raise ValueError("beta_sq must be >= -2")
        if not isinstance(tau, int):
            raise ValueError("tau must be an integer")
        self._set(r, beta_sq, tau)

    @property
    def s(self) -> int:
        return self.beta_sq // 2 - self.tau + self.r

    @property
    def omega(self) -> int:
        return self.beta_sq // 2 - self.tau

    @property
    def h(self) -> int:
        return self.beta_sq // 2 + 1


def moduli_dim(v: MukaiVector, p0: int) -> int:
    """Dimension of the fiberwise moduli space, 2 + 2r^2 + beta^2 - 2r*P(0)."""
    return 2 + 2 * v.r * v.r + v.beta_sq - 2 * v.r * p0


def hilb_index(v: MukaiVector) -> int:
    """Number of points n with the fiberwise moduli deformation equivalent
    to Hilb^n: n = h - r*omega - r^2.

    The index-formulas check compares it with half of moduli_dim and with
    the order at which dt_from_nl sums.
    """
    return v.h - v.r * v.omega - v.r * v.r


class HilbertPolyK3(_Record):
    """Quadratic Hilbert polynomial P(m) = (r*ell/2) m^2 + d m + c."""

    __slots__ = __match_args__ = ("r", "ell", "d", "c")

    def __init__(self, r: int, ell: int, d: int, c: int):
        if r < 1:
            raise ValueError("rank must be >= 1")
        if ell < 1:
            raise ValueError("ell must be >= 1")
        self._set(r, ell, d, c)

    def value(self, m: int) -> Fraction:
        return Fraction(self.r * self.ell, 2) * m * m + self.d * m + self.c

    @classmethod
    def from_mukai(cls, v: MukaiVector, ell: int, d: int):
        # constant term c = omega + 2r for the sheaves carrying v
        return cls(v.r, ell, d, v.omega + 2 * v.r)


class NLTable:
    """Finitely supported map (h, d) -> exact rational intersection number.

    Every nonzero entry must satisfy the vanishing bound
    h <= 1 + d^2/(2*ell); entries equal to zero are not stored.
    """

    __slots__ = ("ell", "entries")

    def __init__(self, ell: int, entries):
        if not isinstance(ell, int) or isinstance(ell, bool) or ell < 1:
            raise NLValidationError("ell must be a positive integer")
        table = {}
        for (h, d), v in dict(entries).items():
            if not isinstance(h, int) or isinstance(h, bool) \
                    or not isinstance(d, int) or isinstance(d, bool):
                raise NLValidationError("indices must be integers: (%r, %r)" % (h, d))
            if not isinstance(v, Fraction):
                if isinstance(v, float):
                    raise NLValidationError(
                        "entry at (h=%d, d=%d): %r is floating point, not an "
                        "exact rational" % (h, d, v))
                v = Fraction(v)
            if not v:
                continue
            if not self.bound_ok(h, d, ell):
                raise NLValidationError(
                    "entry at (h=%d, d=%d) violates the vanishing bound "
                    "h <= 1 + d^2/(2*%d)" % (h, d, ell))
            table[(h, d)] = v
        self.ell = ell
        self.entries = table

    @staticmethod
    def bound_ok(h: int, d: int, ell: int) -> bool:
        # h <= 1 + d^2/(2 ell), cleared of denominators
        return 2 * ell * (h - 1) <= d * d

    def value(self, h: int, d: int) -> Fraction:
        return self.entries.get((h, d), Fraction(0))

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, NLTable):
            return NotImplemented
        return self.ell == other.ell and self.entries == other.entries

    def __repr__(self):
        return "NLTable(ell=%d, %d entries)" % (self.ell, len(self.entries))


class FibrationSpec(_Record):
    """A fibration's constants plus its intersection-number table.

    Unhashable, because its table is.
    """

    __slots__ = __match_args__ = ("ell", "k", "nl", "euler", "nodal")

    def __init__(self, ell: int, k: int, nl: NLTable, euler: int = 24,
                 nodal: bool = False):
        if nl.ell != ell:
            raise NLValidationError("table ell %d does not match spec ell %d"
                                    % (nl.ell, ell))
        self._set(ell, k, nl, euler, nodal)


def _parse_rational(raw, where: str) -> Fraction:
    if isinstance(raw, bool):
        raise NLValidationError("%s: boolean is not a number" % where)
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        s = raw.strip()
        if re.match(r"^[+-]?\d+(/[1-9]\d*)?$", s):
            try:
                return Fraction(s)
            except ValueError as exc:   # p or q past the str(int) digit cap
                raise NLValidationError("%s: %s" % (where, exc)) from exc
    # a malformed string, or None, a list or a dict; nl_loads refuses a JSON
    # float before it gets here (_reject_float)
    raise NLValidationError(
        "%s: %r is not an exact rational 'p' or 'p/q'" % (where, raw))


def _require_int(doc, key, default=None):
    if key not in doc:
        if default is not None:
            return default
        raise NLValidationError("missing required key %r" % key)
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise NLValidationError("key %r must be an integer, got %r" % (key, v))
    return v


def nl_load(doc) -> FibrationSpec:
    """Build a validated FibrationSpec from a parsed table document.

    Expected shape:
      { "ell": int, "k": int, "euler": int (default 24),
        "nodal": bool (default false),
        "nl": [ {"h": int, "d": int, "value": "p/q" or "p"}, ... ] }

    Values must be exact: integers or 'p/q' strings.  Duplicate (h, d)
    rows and bound violations are rejected with the offending pair named.
    """
    if not isinstance(doc, dict):
        raise NLValidationError("table document must be an object")
    unknown = set(doc) - {"ell", "k", "euler", "nodal", "nl"}
    if unknown:
        raise NLValidationError("unknown keys: %s" % ", ".join(sorted(unknown)))
    ell = _require_int(doc, "ell")
    k = _require_int(doc, "k")
    euler = _require_int(doc, "euler", 24)
    nodal = doc.get("nodal", False)
    if not isinstance(nodal, bool):
        raise NLValidationError("key 'nodal' must be a boolean")
    rows = doc.get("nl")
    if not isinstance(rows, list):
        raise NLValidationError("key 'nl' must be a list of rows")
    entries = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != {"h", "d", "value"}:
            raise NLValidationError(
                "row %d must be an object with keys h, d, value" % i)
        h = row["h"]
        d = row["d"]
        if not isinstance(h, int) or isinstance(h, bool) \
                or not isinstance(d, int) or isinstance(d, bool):
            raise NLValidationError("row %d: h and d must be integers" % i)
        if (h, d) in entries:
            raise NLValidationError("duplicate entry at (h=%d, d=%d)" % (h, d))
        entries[(h, d)] = _parse_rational(row["value"], "row %d" % i)
    return FibrationSpec(ell=ell, k=k, euler=euler, nodal=nodal,
                         nl=NLTable(ell, entries))


def _reject_float(raw):
    raise NLValidationError(
        "floating point literal %r is not accepted; write an exact "
        "rational string instead" % raw)


def nl_loads(text: str) -> FibrationSpec:
    """Parse a JSON table document from a string, rejecting any float."""
    import json   # here, so that only a command reading a document loads it

    try:
        doc = json.loads(text, parse_float=_reject_float)
    except NLValidationError:
        raise   # _reject_float's own message
    except ValueError as exc:   # bad JSON, or an int past the str(int) digit cap
        raise NLValidationError("malformed document: %s" % exc) from exc
    except RecursionError:
        raise NLValidationError("malformed document: nested too deeply") from None
    return nl_load(doc)


def nl_load_path(path) -> FibrationSpec:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return nl_loads(text)
    except NLValidationError as exc:
        raise NLValidationError("%s: %s" % (path, exc)) from exc


def nl_dump(spec: FibrationSpec) -> dict:
    """Document form of a spec; inverse of nl_load up to row order."""
    order = sorted(spec.nl.entries, key=lambda hd: (hd[1], hd[0]))
    rows = [{"h": h, "d": d, "value": str(spec.nl.entries[(h, d)])}
            for (h, d) in order]
    return {"ell": spec.ell, "k": spec.k, "euler": spec.euler,
            "nodal": spec.nodal, "nl": rows}


def nl_symmetry_extend(table: NLTable, h_lo: int, d_min: int, d_max: int) -> NLTable:
    """Close a table under its translation symmetry within a window.

    From each entry (h, d) the orbit (h + j*d + j^2*ell/2, d + j*ell) is
    walked for j = 1, 2, ... and j = -1, -2, ..., each way up to the first
    cell outside the window d_min <= d <= d_max, h >= h_lo.  Entries are
    kept, in the window or not, and never modified; a cell reached with
    two values raises ConsistencyError.  h - d^2/(2*ell) is constant on an
    orbit, so no cell leaves the vanishing bound; the result revalidates.
    """
    ell = table.ell
    if ell % 2:
        raise ValueError("symmetry extension requires even ell, got %d" % ell)
    out = dict(table.entries)
    for (h, d), v in table.entries.items():
        for step in (1, -1):
            for j in count(step, step):
                nh, nd = h + j * d + j * j * ell // 2, d + j * ell
                if not d_min <= nd <= d_max or nh < h_lo:
                    break
                old = out.setdefault((nh, nd), v)
                if old != v:
                    raise ConsistencyError(
                        "symmetry conflict at (h=%d, d=%d): %s vs %s"
                        % (nh, nd, old, v))
    return NLTable(ell, out)


def dt_from_nl(spec: FibrationSpec, P: HilbertPolyK3) -> Fraction:
    """Sheaf-counting invariant of the fibration for Hilbert polynomial P.

    Half of [ sum over table entries (h, P.d) of
              NL[h, d] * chi(Hilb^(r^2 + h - r*c))
              - (k * chi(Hilb^(r^2 + 1 - r*c)) if d = 0) ],
    with chi taken for the spec's fiber Euler number and chi(Hilb^(m<0)) = 0.
    The factor 1/2 undoes the tabulated side being a double cover or a
    disjoint double, as described in the module docstring.  The sum is
    taken in integers: each weight times D, the lcm of the weights'
    denominators, times the integer chi, and the result is that sum over
    2D, one Fraction.  Runtime is linear in the table support.
    """
    if P.ell != spec.ell:
        raise ValueError("polynomial ell %d does not match spec ell %d"
                         % (P.ell, spec.ell))
    return _dt_sum(spec, _dt_terms(spec, P, _rows(spec, P.d)))


def _dt_sum(spec: FibrationSpec, terms) -> Fraction:
    # dt_from_nl's halved sum over its (m, weight) terms; highest order
    # first, so the first read fills the Euler-number cache to the top
    # order at once instead of once per doubling
    terms = sorted(((m, v) for m, v in terms if m >= 0), reverse=True)
    den = lcm(*(v.denominator for _, v in terms))
    return Fraction(sum(v.numerator * (den // v.denominator)
                        * _euler_pow_at(-spec.euler, m) for m, v in terms),
                    2 * den)


def _rows(spec: FibrationSpec, d: int):
    # (h, value) for the table's entries of degree d
    return [(h, v) for (h, dd), v in spec.nl.entries.items() if dd == d]


def _dt_terms(spec: FibrationSpec, P: HilbertPolyK3, rows):
    # (m, weight) for each chi(Hilb^m) term of dt_from_nl's halved sum, rows
    # being _rows(spec, P.d); a weight is a Fraction, or the int -k
    r, c, d = P.r, P.c, P.d
    terms = [(r * r + h - r * c, v) for h, v in rows]
    if d == 0 and spec.k:
        terms.append((r * r + 1 - r * c, -spec.k))
    return terms


def dt_symmetry_pair(r: int, ell: int, d: int, c: int):
    """The (d', c') cell carrying the same invariant as (d, c).

    d' = d + ell and c' = c + (2d + ell)/(2r); the pair is usable only
    when c' is an integer (valid flag).  The sign of the c shift is forced:
    twisting a sheaf by the polarization raises both the linear and the
    constant coefficient of its Hilbert polynomial, and only this direction
    matches the table symmetry term by term.
    """
    c2 = c + Fraction(2 * d + ell, 2 * r)
    return d + ell, c2, c2.denominator == 1


def phi_series(spec: FibrationSpec, d: int, terms: int) -> PuiseuxSeries:
    """Degree-d component of the table generating series.

    Each entry (h, d) contributes its value at exponent 1 + d^2/(2*ell) - h
    on the 1/(2*ell) grid; the vanishing bound makes every exponent
    nonnegative.  d must already be reduced to [0, ell).
    """
    _require_terms(terms)
    if not 0 <= d < spec.ell:
        raise ValueError("d must lie in [0, ell), got %d" % d)
    grid = 2 * spec.ell
    trunc = terms * grid
    coeffs = {}
    for (h, dd), v in spec.nl.entries.items():
        if dd != d:
            continue
        num = grid + d * d - grid * h
        if num <= trunc:
            coeffs[num] = v
    return PuiseuxSeries(grid, coeffs, trunc)


def _require_terms(terms: int):
    # phi and z series are known to order q^terms, so terms = 0 is a valid
    # request (for z it still means q^-1, q^0)
    if terms < 0:
        raise ValueError("terms must be >= 0, got %d" % terms)


def z_series_closed(spec: FibrationSpec, terms: int, d=None):
    """Generating series of invariants, closed form.

    Component d is (phi_series(d) - k*[d=0]) * G_e / (2q), where G_e =
    prod (1-q^n)^(-e) = sum chi(Hilb^m) q^m is goettsche_series for the
    spec's fiber Euler number e (for e = 24, G_e / (2q) is 1 / (2*eta^24)),
    truncated at q^terms.  With d omitted, returns the dict of all
    components indexed by d in [0, ell).  The factor G_e / (2q) is built
    once per call, on the 1/(2*ell) grid, whatever the number of components.
    """
    _require_terms(terms)
    # on phi's grid, so that no product refines it again
    hilb = (goettsche_series(spec.euler, terms + 1).shift(-1)
            * Fraction(1, 2)).with_grid(2 * spec.ell)
    if d is None:
        return {dd: _z_component(spec, terms, dd, hilb)
                for dd in range(spec.ell)}
    return _z_component(spec, terms, d, hilb)


def _z_component(spec: FibrationSpec, terms: int, d: int,
                 hilb: PuiseuxSeries) -> PuiseuxSeries:
    # component d of z_series_closed, hilb = G_e / (2q) through q^terms
    phi = phi_series(spec, d, terms + 1)
    if d == 0 and spec.k:
        phi = phi + Fraction(-spec.k)
    return (phi * hilb).truncate(terms)


def z_series_direct(spec: FibrationSpec, terms: int, d=None):
    """Generating series assembled cell by cell from dt_from_nl, rank 1.

    Component d is q^(1 + d^2/2ell) * sum over c of DT(d, c) * q^(-c),
    with each DT value computed independently of the closed form, by
    dt_from_nl's sum over the rows of degree d, which are read once per
    component; agreement with z_series_closed is the module's central
    consistency property.
    """
    _require_terms(terms)
    if d is None:
        return {dd: z_series_direct(spec, terms, dd) for dd in range(spec.ell)}
    if not 0 <= d < spec.ell:
        raise ValueError("d must lie in [0, ell), got %d" % d)
    ell = spec.ell
    grid = 2 * ell
    trunc = terms * grid
    # exponent of the c term is 1 + d^2/2ell - c; keep exponents <= terms
    c_lo_num = grid + d * d - trunc
    c_lo = -((-c_lo_num) // grid)
    rows = _rows(spec, d)
    highs = [1 + h for h, _ in rows]
    if d == 0 and spec.k:
        highs.append(2)
    coeffs = {}
    for c in range(c_lo, max(highs) + 1 if highs else c_lo):
        v = _dt_sum(spec, _dt_terms(spec, HilbertPolyK3(1, ell, d, c), rows))
        if v:
            coeffs[grid + d * d - grid * c] = v
    return PuiseuxSeries(grid, coeffs, trunc)
