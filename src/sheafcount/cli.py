"""Command line front end.

Exit codes form part of the contract: 0 on success, 1 for unusable input
(bad arguments, malformed or invalid table documents, file errors), 2 when
an internal cross-check fails, meaning two computations that must agree by
theory did not, and 3 when any other exception escapes a subcommand, which
is a bug; it is reported as one stderr line, "internal error: <Type>:
<message>", not as a traceback.  Arguments are read against one table,
_COMMANDS, which also writes the -h/--help text; a bad argument is a usage
error, one stderr line and exit 1, so that code 2 stays unambiguous.

All output is deterministic: same invocation, same bytes.  Sampled
evaluation uses a fixed default seed unless --seed is given.  stdout is
written once a subcommand returns, and empty if it fails; results print whole.
json is imported only where a document is read or written, so p3 never loads
it, and neither does start-up.
"""

import contextlib
import io
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .errors import ConsistencyError, NLValidationError
from .localization import (
    MIN_SAMPLES,
    fixed_point_contribution,
    hilb_chern_integral,
)
from .nl_dt import (
    FibrationSpec,
    HilbertPolyK3,
    _dt_terms,
    _rows,
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
    # json.dumps({"value": str(v)}) byte for byte: no str(v) here needs escapes
    print('{"value": "%s"}' % v if fmt == "structured" else v)


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
        import json
        print(json.dumps(_series_doc(s)))
    else:
        _print_series_text(s)


@_any_length()
def _emit_components(comp: dict, fmt: str):
    if fmt == "structured":
        import json
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
    # n >= 0, the samples floor and the sampling flags are
    # hilb_chern_integral's rules: the value is computed, or refused, before
    # anything is listed
    if args.n is not None:
        if args.s is not None or args.d is not None:
            raise ValueError("give either --n or the pair --s/--d, not both")
        n = args.n
    else:
        # --s/--d spell n alone: the integrand is the plane's whatever s is
        s, d = args.s, args.d
        if s is None or d is None:
            raise ValueError("give either --n or both --s and --d")
        if s < 0 or d < 0:
            raise ValueError("degrees must be nonnegative: s=%d, d=%d" % (s, d))
        n = s * (s + 3) // 2 - d + 1
    if n > P3_MAX_N:
        raise ValueError("n = %d is above the cap of %d points"
                         % (n, P3_MAX_N))
    if args.samples is not None and args.samples > P3_MAX_SAMPLES:
        raise ValueError("--samples %d is above the cap of %d"
                         % (args.samples, P3_MAX_SAMPLES))
    value = hilb_chern_integral(n, args.mode, seed=args.seed,
                                samples=args.samples)
    if args.verbose:
        triples = enumerate_triples(n)
        print("# %d monomial configurations for n = %d" % (len(triples), n))
        if args.mode == "symbolic":
            for tr in triples:
                print("# %r: %s" % (tr, fixed_point_contribution(tr)))
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
    rows = _rows(spec, args.d)
    _require_order(max((m for m, _ in _dt_terms(spec, P, rows)), default=0),
                   "the Hilbert-scheme order r^2 + h - r*c")
    _emit_value(dt_from_nl(spec, P), args.format)
    return 0


def cmd_nl_validate(args) -> int:
    spec = nl_load_path(args.file)
    if args.format == "structured":
        import json
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
    import json
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- wiring --------------------------------------------------------------

# Each option is one row (flag, kind, default, help).  kind is int or str
# for an option taking a value, a tuple of its choices, or bool for a switch
# that is False unless given; the default _REQUIRED makes the option required.
# A flag not starting with "-" names a positional; "-o/--out" is one option
# spelled two ways.  The attribute an option sets, its dest, is its long name
# with "-" read as "_" (_dest).
_REQUIRED = object()
_HELP = ("-h/--help", bool, False, "show this help and exit")
_FORMAT = ("--format", ("text", "structured"), "text",
           "text (default) or one JSON object per result")
_NL = ("--nl", str, _REQUIRED, "table document (JSON)")
_DESCRIPTION = ("Exact sheaf-counting invariants: fixed-point sums on Hilbert "
                "schemes of the plane,\nand K3-fibration counts driven by "
                "intersection-number tables.")

# command: (help line, option rows)
_COMMANDS = {
    "p3": ("point-insertion invariant of projective 3-space", (
        ("--n", int, None, "number of points (or give --s and --d)"),
        ("--s", int, None, "with --d, a second spelling of n: "
         "n = s(s+3)/2 - d + 1"),
        ("--d", int, None, "with --s (s changes n only, not the integrand)"),
        ("--mode", ("symbolic", "sampled"), "symbolic",
         "symbolic (default), or sampled at seeded integer points"),
        ("--samples", int, None, "evaluation points in sampled mode "
         "(%d to %d, default %d)" % (MIN_SAMPLES, P3_MAX_SAMPLES, MIN_SAMPLES)),
        ("--seed", int, None, "seed for sampled mode (fixed default)"),
        ("--verbose", bool, False, "list fixed points and their contributions"),
        _FORMAT)),
    "goettsche": ("Hilbert-scheme Euler-number series", (
        ("--euler", int, 24, "surface Euler number (default 24)"),
        ("--terms", int, _REQUIRED, "truncation order"),
        _FORMAT)),
    "phi": ("table generating series, one degree component", (
        _NL,
        ("--d", int, _REQUIRED, "degree component"),
        ("--terms", int, _REQUIRED, "truncation order"),
        _FORMAT)),
    "z": ("invariant generating series from a table", (
        _NL,
        ("--terms", int, _REQUIRED, "truncation order"),
        ("--d", int, None, "single degree component (default: all)"),
        ("--check", bool, False,
         "verify the closed form against the direct sum"),
        _FORMAT)),
    "dt": ("single invariant from a table", (
        _NL,
        ("--r", int, 1, "rank (default 1)"),
        ("--d", int, _REQUIRED,
         "linear coefficient of the Hilbert polynomial"),
        ("--c", int, _REQUIRED,
         "constant coefficient of the Hilbert polynomial"),
        _FORMAT)),
    "nl-validate": ("validate a table document", (
        ("file", str, _REQUIRED, "table document (JSON)"),
        _FORMAT)),
    # nl-extend always prints a table document, so it takes no --format
    "nl-extend": ("close a table under its translation symmetry", (
        ("file", str, _REQUIRED, "table document (JSON)"),
        ("--h-lo", int, _REQUIRED, "keep generated entries with h >= this"),
        ("--d-min", int, _REQUIRED, "lowest degree of the window"),
        ("--d-max", int, _REQUIRED, "highest degree of the window"),
        ("-o/--out", str, None,
         "write the extended document here instead of stdout"))),
}


def _dest(row) -> str:
    return row[0].split("/")[-1].lstrip("-").replace("-", "_")


def _spelling(row) -> str:
    flag, kind = row[0], row[1]
    if kind is bool:
        return flag
    if isinstance(kind, tuple):
        return "%s {%s}" % (flag, ",".join(kind))
    if flag[0] != "-":
        return flag.upper()
    return "%s %s" % (flag, _dest(row).upper())


def _help(command) -> str:
    """-h/--help text, of the whole program or of one command."""
    if command is None:
        return "usage: sheafcount [-h] COMMAND ...\n\n%s\n\ncommands:\n%s" % (
            _DESCRIPTION, "".join("  %-12s %s\n" % (name, line)
                                  for name, (line, _) in _COMMANDS.items()))
    line, rows = _COMMANDS[command]
    rows += (_HELP,)
    usage = " ".join(_spelling(row) if row[2] is _REQUIRED else
                     "[%s]" % _spelling(row) for row in rows)
    width = max(len(_spelling(row)) for row in rows)
    return "usage: sheafcount %s %s\n\n%s\n\noptions:\n%s" % (
        command, usage, line,
        "".join("  %-*s  %s\n" % (width, _spelling(row), row[3]) for row in rows))


def _option(tok, flags):
    """(flag, the value written into tok, or None) if tok is an option
    token, else None for a positional; flag is tok itself when flags has no
    such option.  Flags match whole, never by a prefix; --flag=value and
    -oVALUE carry their value, and a negative number or a token holding a
    space is a positional, as with argparse."""
    if tok in flags:
        return tok, None
    if tok[:1] != "-" or tok == "-":
        return None
    name, eq, value = tok.partition("=")
    if eq and name in flags:
        return name, value
    if tok[:2] in flags:   # a short flag and its value: -oFILE
        return tok[:2], tok[2:]
    if re.match(r"-\d+$|-\d*\.\d+$", tok) or " " in tok:
        return None
    return tok, None


def _usage_error(prog, reason):
    sys.stderr.write("%s: error: %s\n" % (prog, reason))
    raise SystemExit(1)


def parse_args(argv) -> SimpleNamespace:
    """argv read against _COMMANDS: the command, and one attribute per
    option of it.  -h/--help prints help and exits 0; a usage error exits 1
    after one stderr line.  A repeated option keeps its last value, and
    after "--" every token is a positional.  Unknown flags and stray words
    are reported once every token is read, so a later -h still gives help.
    """
    prog, command, rows = "sheafcount", None, ()
    flags = {"-h": _HELP, "--help": _HELP}
    values, slots, extras = {}, [], []
    i, ended, after_file = 0, False, -1
    while i < len(argv):
        tok, i = argv[i], i + 1
        opt = None if ended or tok == "--" else _option(tok, flags)
        if opt is None and command is None:
            if tok not in _COMMANDS:
                _usage_error(prog, "argument COMMAND: invalid choice: %r "
                             "(choose from %s)" % (tok, ", ".join(_COMMANDS)))
            command, prog, rows = tok, prog + " " + tok, _COMMANDS[tok][1]
            flags.update((f, row) for row in rows if row[0][0] == "-"
                          for f in row[0].split("/"))
            values = {_dest(row): row[2] for row in rows
                      if row[2] is not _REQUIRED}
            slots = [row for row in rows if row[0][0] != "-"]
        elif tok == "--" and not ended:
            # as argparse has it: dropped before the file or just after it
            ended = True
            if not slots and after_file != i - 1:
                extras.append(tok)
        elif opt is None:
            if slots:
                values[_dest(slots.pop(0))], after_file = tok, i
            else:
                extras.append(tok)
        elif opt[0] not in flags:
            extras.append(tok)
        else:
            row, value = flags[opt[0]], opt[1]
            name, kind = row[0], row[1]
            if kind is bool and value is not None:
                _usage_error(prog, "argument %s: ignored explicit argument %r"
                             % (name, value))
            if row is _HELP:
                sys.stdout.write(_help(command))
                raise SystemExit(0)
            if kind is bool:
                value = True
            elif value is None:
                if i == len(argv) or argv[i] == "--" or _option(argv[i], flags):
                    _usage_error(prog, "argument %s: expected one argument"
                                 % name)
                value, i = argv[i], i + 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(prog, "argument %s: invalid int value: %r"
                                 % (name, value))
            elif isinstance(kind, tuple) and value not in kind:
                _usage_error(prog, "argument %s: invalid choice: %r (choose "
                             "from %s)" % (name, value, ", ".join(kind)))
            values[_dest(row)] = value
    if command is None:
        _usage_error(prog, "the following arguments are required: COMMAND")
    if extras:
        _usage_error(prog, "unrecognized arguments: %s"
                     % " ".join(map(repr, extras)))
    missing = [row[0] for row in rows if _dest(row) not in values]
    if missing:
        _usage_error(prog, "the following arguments are required: %s"
                     % ", ".join(missing))
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
                written = raw.write(data)
                if written is None:
                    # a non-blocking file that is full takes no bytes: wait
                    # until it can take some, rather than retry at once
                    import select
                    select.select([], [raw], [])
                    continue
                data = data[written:]
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
