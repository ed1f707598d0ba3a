"""The parity corpus: p3's slice, goettsche's, the `check` battery, which
reads the same localization code, and the table slice: phi, z and dt over
the bundled tables.  Each row of golden/p3_parity.json holds an argv, its
exit code, the sha256 of its stdout and its stderr, and this test runs every
row through cli.main in process, from the repository root, so that the
table paths in the argvs, and the messages naming them, read the same from
any working directory.  Regenerate the corpus with

  PYTHONPATH=src python tests/test_p3_parity.py

which rewrites golden/p3_parity.json from the code as it stands; a
regenerated corpus is a declared change, naming each argv whose bytes
moved.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from sheafcount import cli

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "p3_parity.json"
FIXTURES = "src/sheafcount/fixtures"

FORMATS = ([], ["--format", "structured"])


def _argvs():
    out = []
    for n in range(13):
        for mode in ([], ["--mode", "sampled"],
                     ["--mode", "sampled", "--seed", "1"],
                     ["--mode", "sampled", "--seed", "2"]):
            out += [["p3", "--n", str(n)] + mode + fmt for fmt in FORMATS]
    for n in range(5):
        for mode in ([], ["--mode", "sampled"]):
            out += [["p3", "--n", str(n), "--verbose"] + mode + fmt
                    for fmt in FORMATS]
    out += [
        ["p3", "--n", "17"],
        ["p3", "--n", "17", "--mode", "sampled"],
        ["p3", "--n", "12", "--mode", "sampled", "--samples", "50"],
        ["p3", "--n", "3", "--mode", "sampled", "--samples", "2"],
        ["p3", "--n", "3", "--mode", "sampled", "--samples", "51"],
        ["p3", "--n", "3", "--seed", "2"],
    ]
    for n in range(5, 9):
        out += [["p3", "--n", str(n), "--verbose"] + fmt for fmt in FORMATS]
    for e in (-24, -7, -1, 0, 1, 7, 24):
        out += [["goettsche", "--euler", str(e), "--terms", "30"] + fmt
                for fmt in FORMATS]
    out += [["check"] + fmt for fmt in FORMATS]
    return out + _table_argvs()


def _table_argvs():
    # phi and z per component and whole, z --check, and dt at ranks 1..3
    # over cells with chi(Hilb^m) at m < 0, at m >= 0, and with the
    # d = 0 term -k (mixed_shift has k = 2); then the order-cap refusals
    out = []
    for path in sorted((ROOT / FIXTURES).glob("*.json")):
        nl = ["--nl", "%s/%s" % (FIXTURES, path.name)]
        ell = json.loads(path.read_text(encoding="utf-8"))["ell"]
        for d in range(ell):
            out += [["phi"] + nl + ["--d", str(d), "--terms", "6"] + fmt
                    for fmt in FORMATS]
            out += [["z"] + nl + ["--terms", "8", "--d", str(d)] + fmt
                    for fmt in FORMATS]
        out += [["z"] + nl + ["--terms", "8"] + fmt for fmt in FORMATS]
        out += [["z"] + nl + ["--terms", "40", "--check"] + fmt
                for fmt in FORMATS]
        for r in (1, 2, 3):
            for d in (0, 1):
                cell = ["--r", str(r), "--d", str(d)]
                out += [["dt"] + nl + cell + ["--c", str(c)]
                        for c in (-4, 0, 1, 2, 5)]
                out.append(["dt"] + nl + cell + ["--c", "-1", "--format",
                                                 "structured"])
    two = ["--nl", FIXTURES + "/two_copies.json"]
    return out + [["z"] + two + ["--terms", "1001"],
                  ["z"] + two + ["--terms", "1001", "--check"],
                  ["dt"] + two + ["--d", "0", "--c", "-999"]]


def _row(argv):
    """The row of argv: cli.main's exit code, its stdout's sha256 and its
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code,
            "stdout_sha256": hashlib.sha256(
                out.getvalue().encode("utf-8")).hexdigest(),
            "stderr": err.getvalue()}


def test_p3_parity_corpus(monkeypatch):
    monkeypatch.chdir(ROOT)
    rows = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [row["argv"] for row in rows] == _argvs()
    for row in rows:
        assert _row(row["argv"]) == row


if __name__ == "__main__":
    os.chdir(ROOT)
    CORPUS.write_text(json.dumps(list(map(_row, _argvs())), indent=1) + "\n",
                      encoding="utf-8")
