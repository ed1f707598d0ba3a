"""Expected answers for benchmark jobs, computed without the code under test.

Standard library only, and no import of sheafcount.  Each answer comes from
a different route than the program takes:

* Euler-product powers: the program multiplies by prod(1-q^m) |e| times
  (and inverts); here the coefficients of prod_{m>=1} (1-q^m)^(-e) come from
  the divisor-sum recurrence  n a_n = e * sum_{k=1..n} sigma(k) a_{n-k}.
* p3: the Hilbert-scheme integral equals [q^n] prod (1-q^m)^(-7), the
  Carlsson-Okounkov product for the plane with L = O(1); the program sums
  over fixed points instead.  This is an observed identity, checked against
  the program for n <= 11.
* DT(d, c): the documented table formula, evaluated on the generated rows
  with the Euler numbers above.
* Symmetry closure: the orbit of (h, d) is walked in closed form,
  (h + j*d + j^2*ell/2, d + j*ell), instead of by the program's work list.
"""

from __future__ import annotations

from fractions import Fraction


class EulerPowers:
    """Coefficients of prod_{m>=1} (1-q^m)^(-e), grown on demand per e."""

    def __init__(self):
        self._sigma = [0]
        self._coeffs = {}

    def _sigma_to(self, n):
        if len(self._sigma) > n:
            return self._sigma
        sigma = [0] * (n + 1)
        for d in range(1, n + 1):
            for mult in range(d, n + 1, d):
                sigma[mult] += d
        self._sigma = sigma
        return sigma

    def coeffs(self, e: int, terms: int) -> list:
        """[a_0, ..., a_terms] for prod (1-q^m)^(-e)."""
        a = self._coeffs.setdefault(e, [1])
        if len(a) <= terms:
            sigma = self._sigma_to(terms)
            for n in range(len(a), terms + 1):
                s = sum(sigma[k] * a[n - k] for k in range(1, n + 1))
                q, r = divmod(e * s, n)
                if r:
                    raise ArithmeticError("recurrence left a remainder at n=%d" % n)
                a.append(q)
        return a[: terms + 1]

    def hilb(self, m: int, e: int) -> int:
        """Euler number of Hilb^m of a surface with Euler number e; 0 for m < 0."""
        return self.coeffs(e, m)[m] if m >= 0 else 0


def dt_value(powers: EulerPowers, table: dict, r: int, d: int, c: int) -> Fraction:
    """DT(d, c) of a table document, by the formula documented in nl_dt:

    1/2 * [ sum_h NL[h, d] * chi(Hilb^(r^2 + h - r c))
            - k * chi(Hilb^(r^2 + 1 - r c)) * [d = 0] ].
    """
    e = table["euler"]
    total = Fraction(0)
    for row in table["nl"]:
        if row["d"] == d:
            total += Fraction(row["value"]) * powers.hilb(r * r + row["h"] - r * c, e)
    if d == 0:
        total -= table["k"] * powers.hilb(r * r + 1 - r * c, e)
    return total / 2


def symmetry_closure(table: dict, h_lo: int, d_min: int, d_max: int) -> dict:
    """{(h, d): value} of the table closed under its translation symmetry.

    From each entry the orbit is walked outward in both directions and stops
    at the first cell outside the window d_min <= d <= d_max, h >= h_lo.
    The table's own entries stay, inside the window or not.
    """
    ell = table["ell"]
    out = {}
    for row in table["nl"]:
        h, d, v = row["h"], row["d"], Fraction(row["value"])
        if not v:
            continue
        out[(h, d)] = v
        for step in (1, -1):
            j = step
            while True:
                hj = h + j * d + j * j * ell // 2
                dj = d + j * ell
                if not (d_min <= dj <= d_max) or hj < h_lo:
                    break
                out[(hj, dj)] = v
                j += step
    return out
