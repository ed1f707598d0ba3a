"""Command line behavior: values, formats, determinism, exit codes.

Exit code semantics under test: 0 success, 1 unusable input (also a usage
error, raised as SystemExit(1) by the argument reader), 2 internal
consistency failure, 3 any other exception (a bug), reported in one line.
Byte-identical output on identical invocations is part of the contract."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sheafcount import cli, qseries
from sheafcount.errors import ConsistencyError
from sheafcount.qseries import goettsche_series

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "sheafcount" / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def fixture(name):
    return str(FIXTURES / (name + ".json"))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- p3 ------------------------------------------------------------------

def test_p3_values(capsys):
    for argv, want in [
        (["p3", "--n", "0"], "1"),
        (["p3", "--n", "1"], "7"),
        (["p3", "--n", "2"], "35"),
        # --s/--d spell n = s(s+3)/2 - d + 1
        (["p3", "--s", "2", "--d", "0"], "4522"),
        (["p3", "--s", "0", "--d", "1"], "1"),
        (["p3", "--s", "1", "--d", "1"], "35"),
        (["p3", "--s", "1", "--d", "2"], "7"),
    ]:
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.strip() == want


def test_p3_structured(capsys):
    code, out, _ = run(capsys, ["p3", "--n", "2", "--format", "structured"])
    assert code == 0
    assert json.loads(out) == {"value": "35"}


def test_p3_sampled_seed_independent_value(capsys):
    for seed in ("11", "17"):
        code, out, _ = run(capsys, ["p3", "--n", "4", "--mode", "sampled",
                                    "--seed", seed])
        assert code == 0 and out.strip() == "490"


def test_p3_verbose_lists_fixed_points(capsys):
    code, out, _ = run(capsys, ["p3", "--n", "1", "--verbose"])
    assert code == 0
    lines = out.strip().splitlines()
    assert "3 monomial configurations" in lines[0]
    assert lines[-1] == "7"
    assert len([ln for ln in lines if ln.startswith("#")]) == 4


@pytest.mark.parametrize("n, mode, fmt", [
    *(pytest.param(3, mode, fmt, id="%s-%s" % (mode, fmt))
      for mode in ("symbolic", "sampled") for fmt in ("text", "structured")),
    pytest.param(6, "symbolic", "text", id="n6-symbolic-text"),
])
def test_p3_verbose_golden(capsys, n, mode, fmt):
    # captured from the per-triple summation (n = 3) and from contributions
    # reduced by a polynomial gcd (n = 6); the listing still goes through
    # fixed_point_contribution triple by triple
    code, out, _ = run(capsys, ["p3", "--n", str(n), "--verbose", "--mode",
                                mode, "--format", fmt])
    assert code == 0
    golden = GOLDEN / ("p3_n%d_verbose_%s_%s.out" % (n, mode, fmt))
    assert out == golden.read_text(encoding="utf-8")


# the p3 argvs the tests below refuse, "p3" left off
_CLASHING_SELECTORS = [["--n", "1", "--s", "1", "--d", "1"], ["--s", "1"]]
_CAPPED = [
    ["--n", str(10**6)],
    ["--n", str(cli.P3_MAX_N + 1)],
    ["--s", "2000", "--d", "0"],
    ["--n", "3", "--mode", "sampled", "--samples", str(10**6)],
    ["--n", "3", "--mode", "sampled", "--samples", str(cli.P3_MAX_SAMPLES + 1)],
]
_TOO_FEW_SAMPLES = [
    ["--n", "3", "--mode", "sampled", "--samples", "0"],
    ["--n", "3", "--mode", "sampled", "--samples", "2"],
    ["--n", "3", "--mode", "sampled", "--samples", "2", "--verbose"],
    ["--s", "1", "--d", "1", "--mode", "sampled", "--samples", "-1"],
]
_SAMPLING_FLAGS = [
    ["--n", "3", "--samples", "10", "--seed", "5"],
    ["--n", "3", "--seed", "5"],
    ["--n", "3", "--samples", "3"],
    ["--n", "3", "--samples", "0"],
    ["--n", "3", "--samples", "2", "--verbose"],
    ["--n", "3", "--samples", str(cli.P3_MAX_SAMPLES + 1)],
    ["--s", "1", "--d", "1", "--mode", "symbolic", "--seed", "1"],
]
_NEGATIVE_N = [["--s", "0", "--d", "2"], ["--n", "-1"]]
_NEGATIVE_DEGREES = [("-5", "0"), ("1", "-5")]


def test_p3_conflicting_selectors(capsys):
    code, _, err = run(capsys, ["p3"] + _CLASHING_SELECTORS[0])
    assert code == 1 and "either" in err
    code, _, err = run(capsys, ["p3"] + _CLASHING_SELECTORS[1])
    assert code == 1


@pytest.mark.parametrize("argv", _CAPPED)
def test_p3_caps_refuse_up_front(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, ["p3"] + argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "cap" in err


@pytest.mark.parametrize("argv", _TOO_FEW_SAMPLES)
def test_p3_refuses_too_few_samples(capsys, argv):
    # by hilb_chern_integral, before anything is printed
    code, out, err = run(capsys, ["p3"] + argv)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: sampled mode needs at least 3 points"]


@pytest.mark.parametrize("argv", _SAMPLING_FLAGS)
def test_p3_symbolic_refuses_sampling_flags(capsys, argv):
    # symbolic mode draws no points, so a flag that picks them changes
    # nothing there and is refused by hilb_chern_integral, whatever its
    # value; only the command line's cap on --samples is checked before
    code, out, err = run(capsys, ["p3"] + argv)
    assert code == 1 and out == ""
    over = str(cli.P3_MAX_SAMPLES + 1)
    assert err.splitlines() == [
        "error: --samples %s is above the cap of %d"
        % (over, cli.P3_MAX_SAMPLES) if over in argv else
        "error: samples and seed apply to sampled mode only"]


def test_p3_at_cap_runs(capsys):
    # the largest n is accepted; sampled, because symbolic takes about 0.7 s
    n = cli.P3_MAX_N
    code, out, _ = run(capsys, ["p3", "--n", str(n), "--mode", "sampled"])
    assert code == 0 and out == "%s\n" % goettsche_series(7, n).coefficient(n)


def test_p3_domain_error(capsys):
    # n < 0 is refused by hilb_chern_integral, whichever spelling gives it
    for argv in _NEGATIVE_N:
        code, out, err = run(capsys, ["p3"] + argv)
        assert code == 1 and out == ""
        assert err == "error: n must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize("s, d", _NEGATIVE_DEGREES)
def test_p3_negative_degrees_refused(capsys, s, d):
    code, out, err = run(capsys, ["p3", "--s", s, "--d", d])
    assert code == 1 and out == ""
    assert err == "error: degrees must be nonnegative: s=%s, d=%s\n" % (s, d)


def test_p3_refusals_are_one_line(capsys):
    # every p3 argv refused above or in the parity corpus, usage errors
    # included: exit 1, one stderr line and nothing on stdout, whether the
    # command line or hilb_chern_integral refuses it
    corpus = json.loads((GOLDEN / "p3_parity.json").read_text(encoding="utf-8"))
    argvs = [["p3"] + argv for argv in _CLASHING_SELECTORS + _CAPPED
             + _TOO_FEW_SAMPLES + _SAMPLING_FLAGS + _NEGATIVE_N]
    argvs += [["p3", "--s", s, "--d", d] for s, d in _NEGATIVE_DEGREES]
    argvs += [row["argv"] for row in corpus
              if row["argv"][0] == "p3" and row["code"]]
    assert len(argvs) == 36
    for argv in argvs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # a usage error
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, len(err.splitlines())) == (1, "", 1), argv


# -- usage errors and help ----------------------------------------------

def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["goettsche"])
    assert exc.value.code == 1


def test_no_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


_HAS_DIGIT_CAP = hasattr(sys, "get_int_max_str_digits")


@pytest.mark.parametrize("argv, reason", [
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["goettsche"], "required: --terms"),
    (["goettsche", "--terms", "x"], "--terms: invalid int value: 'x'"),
    pytest.param(["goettsche", "--terms", "9" * 5000], "invalid int value",
                 marks=pytest.mark.skipif(not _HAS_DIGIT_CAP,
                                          reason="no str(int) digit cap")),
    (["p3", "--n", "3", "--mode", "exact"], "--mode: invalid choice: 'exact'"),
    (["p3", "--n", "3", "--bogus"], "unrecognized arguments: '--bogus'"),
    (["goettsche", "--terms"], "--terms: expected one argument"),
    (["dt", "--nl", "--d", "0", "--c", "0"], "--nl: expected one argument"),
    (["goettsche", "--terms", "2", "extra"], "unrecognized arguments: 'extra'"),
    (["goettsche", "--terms", "2", "a\nb"], "unrecognized arguments: 'a\\nb'"),
    # "--" is dropped before the file or just after it, as argparse has it
    (["goettsche", "--terms", "2", "--"], "unrecognized arguments: '--'"),
    (["nl-validate", "t.json", "--format", "text", "--"],
     "unrecognized arguments: '--'"),
    (["p3", "--n", "3", "--verbose=yes"], "--verbose: ignored explicit argument"),
    # a prefix of a flag is no alias for it
    (["goettsche", "--ter", "5"], "unrecognized arguments: '--ter' '5'"),
])
def test_usage_errors_exit_one_with_one_line(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert len(err.splitlines()) == 1 and reason in err
    prog = "sheafcount " + argv[0] if argv[0] in cli._COMMANDS else "sheafcount"
    assert err.startswith(prog + ": error: ")


def test_flag_value_forms(capsys):
    # --flag=value, negative values and a repeated flag, whose last value wins
    terms = run(capsys, ["goettsche", "--terms", "5"])
    assert terms[0] == 0 and run(capsys, ["goettsche", "--terms=5"]) == terms
    assert run(capsys, ["goettsche", "--terms", "1", "--terms", "5"]) == terms
    dt = ["dt", "--nl", fixture("two_copies"), "--d", "0"]
    code, out, _ = run(capsys, dt + ["--c", "-400"])
    assert code == 0 and out.strip().lstrip("-").isdigit()
    assert run(capsys, dt + ["--c=-400"]) == (code, out, "")
    code, out, _ = run(capsys, ["goettsche", "--euler", "-7", "--terms", "1"])
    assert code == 0 and out.splitlines()[1] == "q^(1): -7"


def test_parsed_namespace():
    # after "--", a word starting with "-" is the file
    args = cli.parse_args(["nl-extend", "--h-lo", "-1", "--d-min", "0",
                           "--d-max", "2", "--", "-t.json"])
    assert cli.parse_args(["nl-validate", "t.json", "--"]).file == "t.json"
    assert vars(args) == {"command": "nl-extend", "file": "-t.json",
                          "h_lo": -1, "d_min": 0, "d_max": 2, "out": None}
    args = cli.parse_args(["nl-extend", "t.json", "--h-lo", "0", "--d-min",
                           "0", "--d-max", "2", "-o", "a", "-ob", "--out=c"])
    assert args.file == "t.json" and args.out == "c"
    args = cli.parse_args(["p3", "--s", "1", "--d", "1", "--verbose",
                           "--format", "structured", "--mode=sampled"])
    assert vars(args) == {"command": "p3", "n": None, "s": 1, "d": 1,
                          "mode": "sampled", "samples": None, "seed": None,
                          "verbose": True, "format": "structured"}


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    words = out.split()
    assert all(command in words for command in cli._COMMANDS)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_help_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "-h"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: sheafcount %s " % command)
    for row in cli._COMMANDS[command][1]:
        assert (row[0] if row[0][0] == "-" else row[0].upper()) in out


# -- series commands -----------------------------------------------------

def test_goettsche_text(capsys):
    code, out, _ = run(capsys, ["goettsche", "--terms", "2"])
    assert code == 0
    assert out.splitlines() == ["q^(0): 1", "q^(1): 24", "q^(2): 324",
                                "O(q^(3))"]


def test_goettsche_enriques(capsys):
    code, out, _ = run(capsys, ["goettsche", "--euler", "12", "--terms", "1"])
    assert code == 0
    assert out.splitlines()[:2] == ["q^(0): 1", "q^(1): 12"]


def test_goettsche_trivial_euler(capsys):
    code, out, _ = run(capsys, ["goettsche", "--euler", "0", "--terms", "5",
                                "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"grid": 1, "truncation": "5", "terms": [["0", "1"]]}


def test_phi_series_output(capsys):
    code, out, _ = run(capsys, ["phi", "--nl", fixture("mixed_shift"),
                                "--d", "1", "--terms", "3"])
    assert code == 0
    assert out.splitlines() == ["q^(1/8): 3/2", "O(q^(25/8))"]


def test_phi_negative_terms_names_the_bound(capsys):
    code, out, err = run(capsys, ["phi", "--nl", fixture("two_copies"),
                                  "--d", "0", "--terms", "-1"])
    assert code == 1 and out == ""
    assert err == "error: terms must be >= 0, got -1\n"
    code, out, _ = run(capsys, ["phi", "--nl", fixture("two_copies"),
                                "--d", "0", "--terms", "0"])
    assert code == 0 and out.splitlines() == ["q^(0): 2", "O(q^(1/4))"]


def test_z_single_component(capsys):
    code, out, _ = run(capsys, ["z", "--nl", fixture("two_copies"),
                                "--terms", "2", "--d", "0"])
    assert code == 0
    assert out.splitlines() == ["q^(-1): 1", "q^(0): 24", "q^(1): 324",
                                "q^(2): 3200", "O(q^(9/4))"]


def test_z_all_components_structured(capsys):
    code, out, _ = run(capsys, ["z", "--nl", fixture("mixed_shift"),
                                "--terms", "2", "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    comps = dict((d, payload) for d, payload in doc["components"])
    assert set(comps) == {0, 1, 2, 3}
    assert comps[1]["grid"] == 8
    assert comps[1]["terms"][0] == ["-7/8", "3/4"]
    assert comps[3]["terms"] == []


def test_z_check_ok_on_all_fixtures(capsys):
    for name in ("two_copies", "mixed_shift", "symmetry_window",
                 "quartic_pencil"):
        code, out, _ = run(capsys, ["z", "--nl", fixture(name),
                                    "--terms", "6", "--check"])
        assert code == 0
        assert out.strip() == "closed = direct: OK"


def test_z_check_names_the_components_that_disagree(capsys, monkeypatch):
    # the direct route's component 1 off by 1 at q^0, the others right: the
    # run fails with exit 2, prints nothing on stdout, and names that d on
    # one line
    direct = cli.z_series_direct

    def off(spec, terms, d):
        series = direct(spec, terms, d)
        series[1] = series[1] + 1
        return series
    monkeypatch.setattr(cli, "z_series_direct", off)
    code, out, err = run(capsys, ["z", "--nl", fixture("mixed_shift"),
                                  "--terms", "6", "--check"])
    assert code == 2 and out == ""
    assert err == (
        "consistency failure: closed and direct series disagree for d in [1]\n")


def test_z_negative_terms_names_the_bound(capsys):
    for extra in ([], ["--check"], ["--d", "0"]):
        code, out, err = run(capsys, ["z", "--nl", fixture("two_copies"),
                                      "--terms", "-1"] + extra)
        assert code == 1 and out == ""
        assert err == "error: terms must be >= 0, got -1\n"


@pytest.mark.parametrize("extra", [[], ["--check"]])
def test_z_ell_cap_refuses_up_front(tmp_path, extra):
    # in a fresh interpreter with a timeout, so a lost cap fails, not hangs
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"ell": 10 ** 30, "k": 2, "nl": []}))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sheafcount.cli", "z", "--nl",
                           str(huge), "--terms", "3"] + extra,
                          capture_output=True, text=True, env=env, timeout=10)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert str(cli.Z_MAX_ELL) in proc.stderr


def test_z_at_ell_cap_runs(capsys, tmp_path):
    table = tmp_path / "wide.json"
    table.write_text(json.dumps({"ell": cli.Z_MAX_ELL, "k": 1, "nl": []}))
    code, out, _ = run(capsys, ["z", "--nl", str(table), "--terms", "0",
                                "--format", "structured"])
    assert code == 0
    assert len(json.loads(out)["components"]) == cli.Z_MAX_ELL


def _euler_table(path, euler):
    path.write_text(json.dumps({"ell": 2, "k": 1, "euler": euler,
                                "nl": [{"h": 1, "d": 0, "value": "2"}]}))
    return str(path)


@pytest.mark.parametrize("cmd", ["goettsche", "dt", "z", "z-check"])
def test_euler_cap_refuses_up_front(tmp_path, cmd):
    # in a fresh interpreter with a timeout, so a lost cap fails, not hangs
    huge = _euler_table(tmp_path / "huge.json", 10 ** 30)
    argv = {"goettsche": ["goettsche", "--euler", str(-10 ** 8), "--terms", "3"],
            "dt": ["dt", "--nl", huge, "--d", "0", "--c", "0"],
            "z": ["z", "--nl", huge, "--terms", "3"],
            "z-check": ["z", "--nl", huge, "--terms", "3", "--check"]}[cmd]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sheafcount.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=10)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert str(cli.EULER_MAX) in proc.stderr


def test_euler_at_cap_runs(capsys, tmp_path):
    for e in (cli.EULER_MAX, -cli.EULER_MAX):
        code, out, _ = run(capsys, ["goettsche", "--euler", str(e),
                                    "--terms", "1"])
        assert code == 0 and out.splitlines()[1] == "q^(1): %d" % e
        table = _euler_table(tmp_path / "cap.json", e)
        code, out, _ = run(capsys, ["dt", "--nl", table, "--d", "0",
                                    "--c", "1"])
        # half of (2 - k) * chi(Hilb^1), and chi(Hilb^1) = e
        assert code == 0 and out.strip() == str(e // 2)
        code, out, _ = run(capsys, ["z", "--nl", table, "--terms", "0",
                                    "--check"])
        assert code == 0


def test_euler_cap_leaves_table_commands_alone(capsys, tmp_path):
    huge = _euler_table(tmp_path / "huge.json", 10 ** 30)
    for argv in (["nl-validate", huge],
                 ["phi", "--nl", huge, "--d", "0", "--terms", "1"],
                 ["nl-extend", huge, "--h-lo", "0", "--d-min", "0",
                  "--d-max", "2"]):
        code, _, _ = run(capsys, argv)
        assert code == 0, argv


def test_wrong_euler_product_exits_two(capsys, monkeypatch):
    # [q^5] prod (1-q^n) one too large in every fill: without the pentagonal
    # certificate, goettsche printed 176232 for 176256, dt 5922096 for
    # 5930496, and z --check passed its two routes, which share the list
    real = qseries._euler_coeffs

    def off_by_one(terms):
        co = real(terms)
        if terms >= 5:
            co[5] += 1
        return co
    monkeypatch.setattr(qseries, "_euler_coeffs", off_by_one)
    for argv in (["goettsche", "--euler", "24", "--terms", "6"],
                 ["dt", "--nl", fixture("two_copies"), "--d", "0", "--c",
                  "-5"],
                 ["z", "--nl", fixture("quartic_pencil"), "--terms", "6",
                  "--check"]):
        monkeypatch.setattr(qseries, "_euler_pow_cache", {})
        assert run(capsys, argv) == (
            2, "", "consistency failure: [q^5] prod (1-q^n)^-24 fails the "
            "pentagonal theorem's certificate\n"), argv


@pytest.mark.parametrize("cmd", ["goettsche", "z", "z-check", "dt", "dt-k", "dt-r2"])
def test_series_order_cap_refuses_up_front(tmp_path, cmd):
    # each request needs order 20000, which takes far longer than the
    # timeout; in a fresh interpreter, so a lost cap fails, not hangs
    table = _euler_table(tmp_path / "t.json", 24)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"ell": 2, "k": 1, "nl": []}))
    argv = {"goettsche": ["goettsche", "--terms", "20000"],
            "z": ["z", "--nl", table, "--terms", "20000"],
            "z-check": ["z", "--nl", table, "--terms", "20000", "--check",
                        "--d", "0"],
            "dt": ["dt", "--nl", table, "--d", "0", "--c", "-19998"],
            "dt-k": ["dt", "--nl", str(bare), "--d", "0", "--c", "-19999"],
            "dt-r2": ["dt", "--nl", table, "--d", "0", "--c", "-9998",
                      "--r", "2"]}[cmd]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sheafcount.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=10)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert str(cli.SERIES_MAX_ORDER) in proc.stderr


def test_series_order_at_cap_runs(capsys, tmp_path):
    top = cli.SERIES_MAX_ORDER
    want = goettsche_series(1, top).coefficient(top)
    code, out, _ = run(capsys, ["goettsche", "--euler", "1", "--terms", str(top)])
    assert code == 0 and out.splitlines()[-2] == "q^(%d): %s" % (top, want)
    # one row at (h, d) = (1, 0) and k = 1: half of (2 - 1) * chi(Hilb^(2 - c))
    table = _euler_table(tmp_path / "cap.json", 1)
    code, out, _ = run(capsys, ["dt", "--nl", table, "--d", "0",
                                "--c", str(2 - top)])
    assert code == 0 and out.strip() == str(want / 2)
    code, _, _ = run(capsys, ["dt", "--nl", table, "--d", "0",
                              "--c", str(1 - top)])
    assert code == 1
    # no term at d = 1, so any c is accepted there
    code, out, _ = run(capsys, ["dt", "--nl", table, "--d", "1",
                                "--c", str(-10 * top)])
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, ["z", "--nl", table, "--terms", str(top),
                                "--d", "0", "--check"])
    assert code == 0 and out == "closed = direct: OK\n"


def test_dt_values(capsys):
    for argv, want in [
        (["dt", "--nl", fixture("two_copies"), "--d", "0", "--c", "2"], "1"),
        (["dt", "--nl", fixture("mixed_shift"), "--d", "0", "--c", "2"], "-1"),
        (["dt", "--nl", fixture("symmetry_window"), "--d", "1", "--c", "2"],
         "1/4"),
        (["dt", "--nl", fixture("quartic_pencil"), "--d", "0", "--c", "1"],
         "42"),
    ]:
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.strip() == want


# the most digits Python converts between int and str (3.11, and 3.10.7 on)
STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _long_table(path, digits):
    # one entry, (h, d) = (1, 0) with value 10^(digits - 1), and k = 0
    path.write_text(json.dumps({"ell": 2, "k": 0, "nl": [
        {"h": 1, "d": 0, "value": "1" + "0" * (digits - 1)}]}))
    return str(path)


def test_results_longer_than_the_digit_cap_print(capsys, tmp_path):
    # the table's one value has as many digits as Python will parse; the
    # results are multiples of it, longer than that, and print whole
    table = _long_table(tmp_path / "long.json", STR_DIGITS or 4300)
    code, out, err = run(capsys, ["dt", "--nl", table, "--d", "0", "--c", "1"])
    assert (code, err) == (0, "")
    assert out == "12" + "0" * (len(out) - 3) + "\n" and len(out) > STR_DIGITS
    code, out, err = run(capsys, ["z", "--nl", table, "--d", "0",
                                  "--terms", "3"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 6 and lines[-1] == "O(q^(13/4))"
    assert max(map(len, lines)) > STR_DIGITS


@pytest.mark.skipif(not STR_DIGITS, reason="this Python has no digit cap")
def test_table_literals_longer_than_the_digit_cap_are_refused(capsys,
                                                              tmp_path):
    table = _long_table(tmp_path / "long.json", STR_DIGITS + 1)
    for argv in (["nl-validate", table],
                 ["dt", "--nl", table, "--d", "0", "--c", "1"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and str(STR_DIGITS) in err


_PAST_CAP = "1" + "0" * STR_DIGITS   # one digit more than Python parses


@pytest.mark.skipif(not STR_DIGITS, reason="this Python has no digit cap")
@pytest.mark.parametrize("text", [
    '{"ell": 2, "k": 0, "nl": [{"h": 1, "d": 0, "value": %s}]}' % _PAST_CAP,
    '{"ell": 2, "k": 0, "nl": [{"h": 1, "d": 0, "value": "1/%s"}]}'
    % _PAST_CAP,
    '{"ell": %s, "k": 0, "nl": []}' % _PAST_CAP,
], ids=["json-int-value", "rational-value", "ell"])
def test_numbers_past_the_digit_cap_name_the_table(capsys, tmp_path, text):
    # refused like every other table error: one line naming the file
    table = tmp_path / "long.json"
    table.write_text(text)
    code, out, err = run(capsys, ["nl-validate", str(table)])
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and str(STR_DIGITS) in err
    assert err.startswith("error: %s: " % table)


def test_failed_run_prints_nothing_on_stdout(capsys, monkeypatch):
    # what a subcommand printed before it failed is dropped, not written
    def half_done(args):
        print("q^(0): 1")
        raise ConsistencyError("the second half disagrees")

    monkeypatch.setattr(cli, "cmd_goettsche", half_done)
    code, out, err = run(capsys, ["goettsche", "--terms", "2"])
    assert code == 2 and out == ""
    assert err == "consistency failure: the second half disagrees\n"


def test_failed_write_exits_one(capsys, monkeypatch):
    # a closed pipe or a full disk shows when stdout is flushed, which main
    # does itself, so it ends in one stderr line and exit 1
    class Closed(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert cli.main(["p3", "--n", "1"]) == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def _cli_process(argv, unbuffered, stdout):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "sheafcount.cli"] + argv,
                            stdout=stdout, stderr=subprocess.PIPE, env=env,
                            bufsize=0)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_reader_closing_early_exits_one(unbuffered):
    # about 108 KB, more than a 64 KiB pipe holds, so the write is cut when
    # the reader closes; unbuffered, the raw write returns a short count
    # and the bytes it did not take must not be dropped in silence
    proc = _cli_process(["goettsche", "--terms", "1000"], unbuffered,
                        subprocess.PIPE)
    assert proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX pipes and rusage")
def test_full_non_blocking_stdout_is_waited_for():
    # into a non-blocking pipe that is full, the raw write takes no bytes and
    # returns None; main must wait until the pipe drains, not retry at once.
    # The reader of the non-blocking pipe waits 2 s before it reads, and the
    # run may use little more CPU than the same run into a blocking pipe
    import resource

    argv = ["p3", "--n", "8", "--verbose"]   # about 90 KB, in about 0.3 s
    runs = []
    for blocking in (True, False):
        r, w = os.pipe()
        os.set_blocking(w, blocking)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = _cli_process(argv, False, w)
        os.close(w)
        if not blocking:
            time.sleep(2)
        with open(r, "rb") as reader:
            out = reader.read()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0 and err == b"", (blocking, err)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        runs.append((out, after.ru_utime + after.ru_stime
                     - before.ru_utime - before.ru_stime))
    (want, cpu_blocking), (got, cpu) = runs
    assert len(want) > 80_000 and got == want
    assert cpu < cpu_blocking + 0.75, (cpu, cpu_blocking)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
def test_full_disk_exits_one(unbuffered):
    # a short result sits in a buffer; if it stayed there after the error,
    # interpreter exit would write it again and report a second failure
    with open("/dev/full", "wb") as full:
        proc = _cli_process(["p3", "--n", "2"], unbuffered, full)
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
    assert err == b"error: [Errno 28] No space left on device\n"


def test_missing_table_file(capsys):
    code, _, err = run(capsys, ["dt", "--nl", "/no/such/table.json",
                                "--d", "0", "--c", "0"])
    assert code == 1 and "error" in err


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    def boom(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_goettsche", boom)
    code, out, err = run(capsys, ["goettsche", "--terms", "2"])
    assert code == 3 and out == ""
    assert err == "internal error: KeyError: 'lost'\n"   # one line, no traceback


# -- table maintenance ---------------------------------------------------

def test_nl_validate_good(capsys):
    code, out, _ = run(capsys, ["nl-validate", fixture("quartic_pencil")])
    assert code == 0
    assert out.startswith("ok: 4 entries")


def test_nl_validate_structured(capsys):
    code, out, _ = run(capsys, ["nl-validate", fixture("two_copies"),
                                "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "ok" and doc["entries"] == 1 and doc["ell"] == 2


def test_nl_validate_bound_violation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"ell": 4, "k": 0, "nl": [{"h": 2, "d": 1, "value": "1"}]}))
    code, _, err = run(capsys, ["nl-validate", str(bad)])
    assert code == 1
    assert "h=2" in err and "d=1" in err


def test_nl_validate_float_rejected(capsys, tmp_path):
    bad = tmp_path / "f.json"
    bad.write_text('{"ell": 2, "k": 0, "nl": [{"h": 1, "d": 0, "value": 0.5}]}')
    code, _, err = run(capsys, ["nl-validate", str(bad)])
    assert code == 1 and "float" in err
    # a value that is neither a number nor a string is not called floating
    # point: one line naming what an exact rational is written as
    for value, shown in (("null", "None"), ("[1]", "[1]")):
        bad.write_text('{"ell": 2, "k": 0, "nl": [{"h": 1, "d": 0, '
                       '"value": %s}]}' % value)
        code, out, err = run(capsys, ["nl-validate", str(bad)])
        assert (code, out) == (1, "")
        assert err == ("error: %s: row 0: %s is not an exact rational 'p' "
                       "or 'p/q'\n" % (bad, shown))


def test_nl_validate_deep_nesting_is_one_line_error(tmp_path):
    # in a fresh interpreter, so a traceback would reach stderr
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "sheafcount.cli", "nl-validate",
                           str(deep)], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_cli_start_leaves_out_slow_modules():
    # start-up cost: dataclasses and inspect once took about half the import
    # time, argparse's gettext lookups and locale import about 5 ms a
    # process, and json, __future__ and a compiled regex a third of the
    # rest; only modules the import or the run adds count, not those the
    # site hooks loaded.  Arguments are read in main, so the cli is checked
    # after a whole main call as well as after its import.  p3 writes its
    # value line without json; dt and nl-validate load it to read their
    # table, and nl-validate to write its document too, byte for byte
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    slow = ("{'__future__', 'argparse', 'dataclasses', 'gettext', 'inspect', "
            "'json', 'locale'}")
    table = fixture("two_copies")
    structured = ["--format", "structured"]
    for argv, loads, out in (
            (["p3", "--n", "3"], [], "140\n"),
            (["p3", "--n", "3"] + structured, [], '{"value": "140"}\n'),
            (["p3", "--n", "3", "--mode", "sampled"] + structured, [],
             '{"value": "140"}\n'),
            (["dt", "--nl", table, "--d", "0", "--c", "0"] + structured,
             ["json"], '{"value": "324"}\n'),
            (["nl-validate", table] + structured, ["json"],
             json.dumps({"value": "ok", "entries": 1, "ell": 2, "k": 0}) + "\n")):
        code = ("import sys; before = set(sys.modules); import sheafcount.cli; "
                "added = lambda: sorted(%s & (set(sys.modules) - before)); "
                "print(added(), file=sys.stderr); "
                "code = sheafcount.cli.main(%r); "
                "print(added(), file=sys.stderr); sys.exit(code)"
                % (slow, argv))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["[]", repr(loads)], argv
        assert proc.stdout == out, argv


@pytest.mark.parametrize("v", [
    0, -7, Fraction(-3, 4), "closed = direct: OK",
    10 ** getattr(sys, "get_int_max_str_digits", lambda: 4300)()],
    ids=["zero", "negative", "fraction", "check", "past_the_digit_cap"])
def test_value_line_is_the_json_document(capsys, v):
    # _emit_value writes {"value": ...} by hand; an int with more digits
    # than Python's str(int) cap is printed whole, like any other
    cli._emit_value(v, "structured")
    with cli._any_length():
        want = json.dumps({"value": str(v)}) + "\n"
    assert capsys.readouterr().out == want


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from(["1/2", "-3", "0", "1/0", "7/-2", " 5", "x"]))


def _field(plausible):
    # mostly plausible, so that many documents get past the first checks
    return st.integers(0, 3).flatmap(
        lambda i: _JSON_SCALARS if i == 0 else plausible)


_ROWS = st.fixed_dictionaries(
    {"h": _field(st.integers(-4, 1)), "d": _field(st.integers(0, 4)),
     "value": _field(st.integers(-9, 9) | st.sampled_from(["1/2", "-3/4"]))},
    optional={"note": _JSON_SCALARS})
_TABLES = st.fixed_dictionaries(
    {"ell": _field(st.integers(1, 8)), "k": _field(st.integers(-3, 3)),
     "nl": _field(st.lists(_field(_ROWS), min_size=1, max_size=4))},
    optional={"euler": _field(st.integers(-30, 30)),
              "nodal": _field(st.booleans())})
_TABLE_DOCS = _field(_TABLES)


def _main_on_doc(data: bytes, argv):
    """Exit code and stderr of cli.main(argv), with "DOC" in argv standing
    for a file holding data."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as f:
            f.write(data)
        argv = [path if a == "DOC" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue()


def _nl_validate_bytes(data: bytes):
    return _main_on_doc(data, ["nl-validate", "DOC"])


def _assert_clean_exit(code, err, codes=(0, 1)):
    assert code in codes, err
    assert len(err.splitlines()) <= 1 and "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=64))
def test_nl_validate_fuzz_bytes(data):
    _assert_clean_exit(*_nl_validate_bytes(data))


@settings(max_examples=100, deadline=None)
@given(_TABLE_DOCS)
def test_nl_validate_fuzz_table_documents(doc):
    _assert_clean_exit(*_nl_validate_bytes(json.dumps(doc).encode()))


@st.composite
def _series_argv(draw):
    # goettsche, phi, dt and z with small random --d, --c and --terms, and
    # nl-extend with windows up to +-10^12; DOC is the table
    def small():
        return str(draw(st.integers(-2, 6)))
    cmd = draw(st.sampled_from(["goettsche", "phi", "dt", "z", "nl-extend"]))
    if cmd == "nl-extend":
        # it takes no --format
        argv = [cmd, "DOC"]
        for flag in ("--h-lo", "--d-min", "--d-max"):
            argv += [flag, str(draw(st.integers(-10**12, 10**12)))]
        return argv
    if cmd == "goettsche":
        argv = [cmd, "--euler", str(draw(st.integers(-30, 30))),
                "--terms", small()]
    elif cmd == "phi":
        argv = [cmd, "--nl", "DOC", "--d", small(), "--terms", small()]
    elif cmd == "dt":
        argv = [cmd, "--nl", "DOC", "--r", str(draw(st.integers(-1, 3))),
                "--d", small(), "--c", str(draw(st.integers(-6, 6)))]
    else:
        argv = [cmd, "--nl", "DOC", "--terms", small()]
        if draw(st.booleans()):
            argv += ["--d", small()]
        if draw(st.booleans()):
            argv.append("--check")
    return argv + draw(st.sampled_from([[], ["--format", "structured"]]))


@settings(max_examples=150, deadline=None)
@given(_TABLE_DOCS, _series_argv())
def test_series_commands_fuzz_table_documents(doc, argv):
    _assert_clean_exit(*_main_on_doc(json.dumps(doc).encode(), argv),
                       codes=(0, 1, 2))


# argv drawn from the option table: a command and, mostly, a plausible value
# for each of its options, spelled "--flag value" or "--flag=value", mixed
# with noise tokens: flags and prefixes of flags, --flag=value forms, -h and
# "--", values (negative, past the digit cap, not integers) and stray words.
# Values stay small, so that an accepted run is quick (p3 at most n = 10);
# t.json is a copy of a bundled table in the run's directory.
_FLAGS = sorted({flag for _, rows in cli._COMMANDS.values() for row in rows
                 if row[0][0] == "-" for flag in row[0].split("/")})
_ARG_VALUES = st.sampled_from(["0", "3", "-7", "-400", "9" * 5000, "1.5", "x",
                               "", "-x y", "sampled", "t.json"])
_ARG_NOISE = st.one_of(
    st.sampled_from(_FLAGS + ["-h", "--help", "--"]),
    st.sampled_from(_FLAGS).flatmap(
        lambda f: st.integers(1, len(f) - 1).map(lambda k: f[:k])),
    st.tuples(st.sampled_from(_FLAGS), _ARG_VALUES).map("=".join),
    _ARG_VALUES,
    st.text(max_size=4))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["frobnicate", *cli._COMMANDS]))
    groups = []
    for flags, kind, _, _ in cli._COMMANDS.get(command, ("", ()))[1]:
        if not draw(st.integers(0, 4)):
            continue
        flag = draw(st.sampled_from(flags.split("/")))
        if kind is bool:
            groups.append([flag])
            continue
        value = (str(draw(st.integers(-2, 3))) if kind is int else
                 draw(st.sampled_from(kind)) if kind is not str else "t.json")
        groups.append([value] if flag[0] != "-" else
                      draw(st.sampled_from([[flag, value], [flag + "=" + value]])))
    groups += [[tok] for tok in draw(st.lists(_ARG_NOISE, max_size=4))]
    argv = [command] + [tok for group in draw(st.permutations(groups))
                        for tok in group]
    return argv if draw(st.integers(0, 9)) else argv[1:]


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_argv_fuzz_ends_cleanly(argv):
    # by return or SystemExit; in a scratch directory, since -o writes a file
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("t.json").write_bytes(Path(fixture("two_copies")).read_bytes())
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        finally:
            os.chdir(cwd)
    event("exit %s" % code)
    _assert_clean_exit(code, err.getvalue(), codes=(0, 1, 2))


def test_nl_extend_stdout(capsys):
    code, out, _ = run(capsys, ["nl-extend", fixture("two_copies"),
                                "--h-lo", "0", "--d-min", "0", "--d-max", "2"])
    assert code == 0
    doc = json.loads(out)
    assert {"h": 2, "d": 2, "value": "2"} in doc["nl"]
    assert doc["ell"] == 2 and doc["k"] == 0


def test_nl_extend_to_file_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "extended.json"
    code, out, _ = run(capsys, ["nl-extend", fixture("symmetry_window"),
                                "--h-lo", "0", "--d-min", "0", "--d-max", "9",
                                "-o", str(out_path)])
    assert code == 0 and out == ""
    code2, out2, _ = run(capsys, ["nl-validate", str(out_path)])
    assert code2 == 0 and out2.startswith("ok: 3 entries")
    # extending the extension changes nothing
    code3, out3, _ = run(capsys, ["nl-extend", str(out_path),
                                  "--h-lo", "0", "--d-min", "0",
                                  "--d-max", "9"])
    assert code3 == 0
    assert json.loads(out3) == json.loads(out_path.read_text())


def test_nl_extend_conflict_exits_two(capsys, tmp_path):
    doc = {"ell": 4, "k": 0, "nl": [
        {"h": 1, "d": 0, "value": "1"},
        {"h": 3, "d": 4, "value": "2"},
    ]}
    p = tmp_path / "conflict.json"
    p.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["nl-extend", str(p), "--h-lo", "0",
                                "--d-min", "0", "--d-max", "4"])
    assert code == 2 and "consistency" in err


def test_nl_extend_takes_no_format(capsys):
    # it always prints a table document, so --format would change nothing
    with pytest.raises(SystemExit) as exc:
        cli.main(["nl-extend", fixture("two_copies"), "--h-lo", "0",
                  "--d-min", "0", "--d-max", "2", "--format", "text"])
    assert exc.value.code == 1


@pytest.mark.parametrize("window", [
    ["--h-lo", "-10", "--d-min", "0", "--d-max", str(10**12)],
    ["--h-lo", str(-10**12), "--d-min", str(-10**12), "--d-max", "10"],
])
def test_nl_extend_cap_refuses_up_front(window):
    # each window would generate about 5 * 10^11 cells; in a subprocess,
    # so that a run that does not refuse times out instead of hanging
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "sheafcount.cli", "nl-extend",
                           fixture("symmetry_window")] + window,
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert str(cli.NL_EXTEND_MAX_CELLS) in proc.stderr


def test_nl_extend_odd_ell_exits_one(capsys, tmp_path):
    p = tmp_path / "odd.json"
    p.write_text(json.dumps({"ell": 3, "k": 0, "nl": []}))
    code, _, err = run(capsys, ["nl-extend", str(p), "--h-lo", "0",
                                "--d-min", "0", "--d-max", "3"])
    assert code == 1 and "even" in err


# -- structured output ---------------------------------------------------

@pytest.mark.parametrize("argv", [
    pytest.param(["p3", "--n", "3"], id="p3"),
    pytest.param(["p3", "--n", "3", "--mode", "sampled"], id="p3-sampled"),
    pytest.param(["p3", "--n", "3", "--verbose"], id="p3-verbose"),
    pytest.param(["goettsche", "--terms", "3"], id="goettsche"),
    pytest.param(["phi", "--nl", fixture("mixed_shift"), "--d", "1",
                  "--terms", "3"], id="phi"),
    pytest.param(["z", "--nl", fixture("mixed_shift"), "--terms", "2"],
                 id="z"),
    pytest.param(["z", "--nl", fixture("mixed_shift"), "--terms", "2",
                  "--d", "0"], id="z-d"),
    pytest.param(["z", "--nl", fixture("mixed_shift"), "--terms", "2",
                  "--check"], id="z-check"),
    pytest.param(["dt", "--nl", fixture("two_copies"), "--d", "0",
                  "--c", "2"], id="dt"),
    pytest.param(["nl-validate", fixture("two_copies")], id="nl-validate"),
])
def test_structured_prints_one_json_object_per_result(capsys, argv):
    # --verbose comment lines start with "#" and stay text
    code, out, _ = run(capsys, argv + ["--format", "structured"])
    assert code == 0
    results = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert results
    assert all(isinstance(json.loads(ln), dict) for ln in results)


# -- determinism ---------------------------------------------------------

def test_byte_identical_reruns(capsys):
    invocations = [
        ["p3", "--n", "3"],
        ["p3", "--n", "4", "--mode", "sampled"],
        ["goettsche", "--terms", "6", "--format", "structured"],
        ["z", "--nl", fixture("mixed_shift"), "--terms", "4"],
        ["nl-extend", fixture("symmetry_window"), "--h-lo", "0",
         "--d-min", "0", "--d-max", "9"],
    ]
    for argv in invocations:
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second, argv
