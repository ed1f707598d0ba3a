"""Command line front end.

Exit codes form part of the contract: 0 on success, 1 for unusable input
(bad arguments, malformed or invalid table documents, file errors), 2 when
an internal cross-check fails, meaning two computations that must agree by
theory did not, and 3 when any other exception escapes a subcommand, which
is a bug; it is reported as one stderr line, "internal error: <Type>:
<message>", not as a traceback.  argparse's habit of exiting 2 on bad
arguments is overridden to keep code 2 unambiguous.

All output is deterministic: same invocation, same bytes.  Sampled
evaluation uses a fixed default seed unless --seed is given.  stdout is
written once a subcommand returns, and empty if it fails; results print whole.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
from fractions import Fraction

from .errors import ConsistencyError, NLValidationError
from .localization import (
    MIN_SAMPLES,
    fixed_point_contribution,
    hilb_chern_integral,
    p3_point_count,
)
from .nl_dt import (
    FibrationSpec,
    HilbertPolyK3,
    _dt_terms,
    dt_from_nl,
    nl_dump,
    nl_load_path,
    nl_symmetry_extend,
    phi_series,
    z_series_closed,
    z_series_direct,
)
from .partitions import enumerate_triples
from .qseries import PuiseuxSeries, goettsche_series


class CliParser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with status 1, not 2, and
    print one stderr line."""

    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


@contextlib.contextmanager
def _any_length():
    # Python caps the digits of str(int) (3.11, and 3.10.7 on) to guard
    # parsing, which keeps the cap; a result is printed whole, however long
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


@_any_length()
def _emit_value(v, fmt: str):
    print(json.dumps({"value": str(v)}) if fmt == "structured" else v)


def _series_doc(s: PuiseuxSeries) -> dict:
    return {
        "grid": s.grid,
        "truncation": str(s.bound),
        "terms": [[str(e), str(c)] for e, c in s.terms()],
    }


def _print_series_text(s: PuiseuxSeries):
    for e, c in s.terms():
        print("q^(%s): %s" % (e, c))
    print("O(q^(%s))" % Fraction(s.trunc + 1, s.grid))


@_any_length()
def _emit_series(s: PuiseuxSeries, fmt: str):
    if fmt == "structured":
        print(json.dumps(_series_doc(s)))
    else:
        _print_series_text(s)


@_any_length()
def _emit_components(comp: dict, fmt: str):
    if fmt == "structured":
        print(json.dumps(
            {"components": [[d, _series_doc(comp[d])] for d in sorted(comp)]}))
    else:
        for d in sorted(comp):
            print("# d = %d" % d)
            _print_series_text(comp[d])


# -- subcommands ---------------------------------------------------------

# p3 refuses larger requests up front (exit 1): the answer is one integer,
# but the work grows about 1.8x per point, and by the number of samples.
# hilb_chern_integral itself takes any n.
P3_MAX_N = 16
P3_MAX_SAMPLES = 50

# z without --d computes one series per degree d in [0, ell), so a table's
# ell alone can ask for unbounded work; larger tables need --d.
Z_MAX_ELL = 1000

# nl-extend outputs at most len(nl) * (max(0, (d_max - d_min) // ell + 1) + 1)
# cells: each entry, and one cell of its orbit per step of ell in the window.
# It refuses a larger bound up front; nl_symmetry_extend takes any window.
NL_EXTEND_MAX_CELLS = 10**5

# The Hilbert-scheme series of a surface with Euler number e is built from
# |e| series products, so goettsche, dt and z refuse |e| above this bound up
# front; the library itself takes any e.
EULER_MAX = 1000

# Each of those products costs work quadratic in the series order, so
# goettsche and z refuse --terms above this bound, and dt an invariant that
# needs chi(Hilb^m) for m above it, up front; the library takes any order.
SERIES_MAX_ORDER = 1000


def _require_euler(e: int):
    if abs(e) > EULER_MAX:
        raise ValueError("euler = %d lies outside the cap [-%d, %d]"
                         % (e, EULER_MAX, EULER_MAX))


def _require_order(m: int, what: str):
    if m > SERIES_MAX_ORDER:
        raise ValueError("%s is %d, above the series-order cap of %d"
                         % (what, m, SERIES_MAX_ORDER))


def cmd_p3(args) -> int:
    if args.mode == "symbolic" and (args.samples is not None
                                    or args.seed is not None):
        raise ValueError("--samples and --seed apply to --mode sampled only")
    if args.n is not None:
        if args.s is not None or args.d is not None:
            raise ValueError("give either --n or the pair --s/--d, not both")
        n = args.n
    else:
        if args.s is None or args.d is None:
            raise ValueError("give either --n or both --s and --d")
        n = p3_point_count(args.s, args.d)
    if n < 0:
        raise ValueError("the number of points must be nonnegative")
    if n > P3_MAX_N:
        raise ValueError("n = %d is above the cap of %d points"
                         % (n, P3_MAX_N))
    samples = MIN_SAMPLES if args.samples is None else args.samples
    if samples < MIN_SAMPLES:
        raise ValueError("--samples %d is below the minimum of %d points"
                         % (samples, MIN_SAMPLES))
    if samples > P3_MAX_SAMPLES:
        raise ValueError("--samples %d is above the cap of %d"
                         % (samples, P3_MAX_SAMPLES))
    if args.verbose:
        triples = enumerate_triples(n)
        print("# %d monomial configurations for n = %d" % (len(triples), n))
        if args.mode == "symbolic":
            for tr in triples:
                print("# %r: %s" % (tr, fixed_point_contribution(tr)))
    value = hilb_chern_integral(n, args.mode, seed=args.seed, samples=samples)
    _emit_value(value, args.format)
    return 0


def cmd_goettsche(args) -> int:
    _require_euler(args.euler)
    _require_order(args.terms, "--terms")
    _emit_series(goettsche_series(args.euler, args.terms), args.format)
    return 0


def cmd_phi(args) -> int:
    spec = nl_load_path(args.nl)
    _emit_series(phi_series(spec, args.d, args.terms), args.format)
    return 0


def cmd_z(args) -> int:
    spec = nl_load_path(args.nl)
    if args.d is None and spec.ell > Z_MAX_ELL:
        raise ValueError("ell = %d is above the cap of %d components; "
                         "give --d for one component" % (spec.ell, Z_MAX_ELL))
    _require_euler(spec.euler)
    _require_order(args.terms, "--terms")

    def components(route):
        series = route(spec, args.terms, args.d)
        return series if args.d is None else {args.d: series}

    closed = components(z_series_closed)
    if args.check:
        direct = components(z_series_direct)
        bad = sorted(d for d in closed if closed[d] != direct[d])
        if bad:
            raise ConsistencyError(
                "closed and direct series disagree for d in %s" % bad)
        _emit_value("closed = direct: OK", args.format)
    elif args.d is None:
        _emit_components(closed, args.format)
    else:
        _emit_series(closed[args.d], args.format)
    return 0


def cmd_dt(args) -> int:
    spec = nl_load_path(args.nl)
    _require_euler(spec.euler)
    P = HilbertPolyK3(args.r, spec.ell, args.d, args.c)
    _require_order(max((m for m, _ in _dt_terms(spec, P)), default=0),
                   "the Hilbert-scheme order r^2 + h - r*c")
    _emit_value(dt_from_nl(spec, P), args.format)
    return 0


def cmd_nl_validate(args) -> int:
    spec = nl_load_path(args.file)
    if args.format == "structured":
        print(json.dumps({"value": "ok", "entries": len(spec.nl),
                          "ell": spec.ell, "k": spec.k}))
    else:
        print("ok: %d entries, ell = %d, k = %d"
              % (len(spec.nl), spec.ell, spec.k))
    return 0


def cmd_nl_extend(args) -> int:
    spec = nl_load_path(args.file)
    cells = len(spec.nl) * (max(0, (args.d_max - args.d_min) // spec.ell + 1) + 1)
    if cells > NL_EXTEND_MAX_CELLS:
        raise ValueError("the window may hold %d cells, above the cap of %d"
                         % (cells, NL_EXTEND_MAX_CELLS))
    bigger = nl_symmetry_extend(spec.nl, args.h_lo, args.d_min, args.d_max)
    doc = nl_dump(FibrationSpec(ell=spec.ell, k=spec.k, euler=spec.euler,
                                nodal=spec.nodal, nl=bigger))
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    """Run the release checks of `checks.CHECKS`; exit 2 if any fails.

    A failing check does not stop the rest.  Text output is one `ok:` or
    `FAIL:` line per check and a summary line; structured output is one
    JSON object per check with its name, outcome and detail.  Neither
    carries timings, so the same invocation prints the same bytes.
    """
    from .checks import CHECKS  # here, so the other subcommands skip its import

    failures = 0
    for check in CHECKS:
        try:
            detail, ok = check.fn(), True
        except Exception as exc:  # a failed check must not stop the rest
            detail, ok = str(exc), False
            failures += 1
        if args.format == "structured":
            print(json.dumps({"name": check.name, "ok": ok, "detail": detail}))
        elif ok:
            print("ok: %s" % check.name)
        else:
            print("FAIL: %s (%s)" % (check.name, detail))
    if args.format == "text":
        if failures:
            print("%d of %d checks failed" % (failures, len(CHECKS)))
        else:
            print("all %d checks passed" % len(CHECKS))
    return 2 if failures else 0


# -- wiring --------------------------------------------------------------

@functools.cache   # built on the first call, not at import
def build_parser() -> CliParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"),
                        default="text",
                        help="text (default) or one JSON object per result")

    parser = CliParser(prog="sheafcount",
                       description="Exact sheaf-counting invariants: "
                                   "fixed-point sums on Hilbert schemes of "
                                   "the plane, and K3-fibration counts "
                                   "driven by intersection-number tables.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("p3", parents=[common],
                       help="point-insertion invariant of projective 3-space")
    p.add_argument("--n", type=int, default=None,
                   help="number of points (or give --s and --d)")
    p.add_argument("--s", type=int, default=None, help="surface degree")
    p.add_argument("--d", type=int, default=None, help="curve degree")
    p.add_argument("--mode", choices=("symbolic", "sampled"),
                   default="symbolic")
    p.add_argument("--samples", type=int, default=None,
                   help="evaluation points in sampled mode (%d to %d, "
                   "default %d)" % (MIN_SAMPLES, P3_MAX_SAMPLES, MIN_SAMPLES))
    p.add_argument("--seed", type=int, default=None,
                   help="seed for sampled mode (fixed default)")
    p.add_argument("--verbose", action="store_true",
                   help="list fixed points and their contributions")

    p = sub.add_parser("goettsche", parents=[common],
                       help="Hilbert-scheme Euler-number series")
    p.add_argument("--euler", type=int, default=24,
                   help="surface Euler number (default 24)")
    p.add_argument("--terms", type=int, required=True,
                   help="truncation order")

    p = sub.add_parser("phi", parents=[common],
                       help="table generating series, one degree component")
    p.add_argument("--nl", required=True, help="table document (JSON)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)

    p = sub.add_parser("z", parents=[common],
                       help="invariant generating series from a table")
    p.add_argument("--nl", required=True, help="table document (JSON)")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--d", type=int, default=None,
                   help="single degree component (default: all)")
    p.add_argument("--check", action="store_true",
                   help="verify the closed form against the direct sum")

    p = sub.add_parser("dt", parents=[common],
                       help="single invariant from a table")
    p.add_argument("--nl", required=True, help="table document (JSON)")
    p.add_argument("--r", type=int, default=1, help="rank (default 1)")
    p.add_argument("--d", type=int, required=True,
                   help="linear coefficient of the Hilbert polynomial")
    p.add_argument("--c", type=int, required=True,
                   help="constant coefficient of the Hilbert polynomial")

    p = sub.add_parser("nl-validate", parents=[common],
                       help="validate a table document")
    p.add_argument("file")

    # nl-extend always prints a table document, so it takes no --format
    p = sub.add_parser("nl-extend",
                       help="close a table under its translation symmetry")
    p.add_argument("file")
    p.add_argument("--h-lo", type=int, required=True, dest="h_lo",
                   help="keep generated entries with h >= this")
    p.add_argument("--d-min", type=int, required=True, dest="d_min")
    p.add_argument("--d-max", type=int, required=True, dest="d_max")
    p.add_argument("-o", "--out", default=None,
                   help="write the extended document here instead of stdout")

    sub.add_parser("check", parents=[common],
                   help="run the deterministic self-test battery")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so that a replaced cmd_<command> is called;
        # its output reaches stdout only once it has returned
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = globals()["cmd_" + args.command.replace("-", "_")](args)
        binary = getattr(sys.stdout, "buffer", None)
        if binary is None:   # a text-only stream, such as an io.StringIO
            sys.stdout.write(out.getvalue())
        else:
            # straight to the file: a raw write may take only part of the
            # bytes, and bytes left in a buffer would be written again at exit
            sys.stdout.flush()
            raw = getattr(binary, "raw", binary)
            data = memoryview(out.getvalue().encode(sys.stdout.encoding,
                                                    sys.stdout.errors))
            while data:
                data = data[raw.write(data):]
        sys.stdout.flush()   # a failed write is reported here, as exit 1
        return code
    except ConsistencyError as exc:
        print("consistency failure: %s" % exc, file=sys.stderr)
        return 2
    except (NLValidationError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # a bug; still one line, not a traceback
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
