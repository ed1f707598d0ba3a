"""The parity corpus: p3's slice, goettsche's, and the `check` battery,
which reads the same localization code.  Each row of golden/p3_parity.json
holds an argv, its exit code, the sha256 of its stdout and its stderr, and
this test runs every row through cli.main in process.  Regenerate the
corpus with

  PYTHONPATH=src python tests/test_p3_parity.py

which rewrites golden/p3_parity.json from the code as it stands; a
regenerated corpus is a declared change, naming each argv whose bytes
moved.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from sheafcount import cli

CORPUS = Path(__file__).resolve().parent / "golden" / "p3_parity.json"

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
    return out + [["check"] + fmt for fmt in FORMATS]


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


def test_p3_parity_corpus():
    rows = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert [row["argv"] for row in rows] == _argvs()
    for row in rows:
        assert _row(row["argv"]) == row


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(list(map(_row, _argvs())), indent=1) + "\n",
                      encoding="utf-8")
