"""Benchmark of the sheafcount CLI: seeded workloads, fresh process per pass.

    python3 perfbench/run.py --workload p3-symbolic --seed 1 --seconds 35 --trace 0

Workloads are p3-symbolic, p3-sampled and k3-tables (workloads.py; why each
was chosen is in BENCHMARK.json and DESIGN.md).  The loop is closed with one
client: a pass runs the workload's job list once through the public entry
point sheafcount.cli.main(argv), in a fresh interpreter (worker.py), and the
next pass starts when it has ended.  Passes repeat until --seconds have
passed; a few import-only processes come first, for the set-up time.

--trace 0 reports the end-to-end metrics, as medians over the passes: wall_s
and cpu_s of one pass, setup_s (import of sheafcount and sheafcount.cli) and
peak_rss_mb.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics of tracer.py, as medians over the traced passes, plus
trace.overhead_s, the traced minus the untraced median wall time.

Every time metric is given at a fixed machine speed.  The shared machines
the benchmark runs on change speed by tens of percent from one second to the
next and over minutes, more than any bound a run could keep.  So this
process times a fixed piece of standard-library work, the yardstick, right
before and right after every worker it starts, and each time that worker
measured is multiplied by YARDSTICK_NOMINAL_S over the geometric mean of the
two; the medians are taken over these scaled samples.  The yardstick runs
here, where no sheafcount code is loaded, so a change to the program cannot
change it.  The raw medians are printed too.

Every job's answer is checked against oracle.py, and every pass's output
must be byte-identical to the first pass's, traced or not; a job that
exits nonzero, raises, answers wrong or differs counts as failed.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it give each metric with its unit and sample
count, fail_rate, and the provenance of the run.

The program is taken from src/ next to this directory; without it the
benchmark exits 2 without a result.  Temporary table files live under
.perfbench_tmp/ and are removed at the end.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 10
# the yardstick's time at the speed the time metrics are given in; about
# what it takes on a 2-core VM with Python 3.11
YARDSTICK_NOMINAL_S = 0.05
# no worker may outlive this many seconds after start, so a run ends in 180 s
RUN_LIMIT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


class WorkerError(Exception):
    pass


def yardstick() -> float:
    """Seconds taken by a fixed mix of the program's kinds of work: a
    Fraction sum with small denominators, an integer-list convolution (as in
    polynomial products) and a few products of large integers."""
    enabled = gc.isenabled()
    gc.disable()  # this process's heap grows over a run; keep its scans out
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 3000):
            total += Fraction(k % 7 - 3, k % 61 + 1)
        row = [(i * 7919) % 1009 - 504 for i in range(90)]
        poly = [1]
        for _ in range(6):
            out = [0] * (len(poly) + len(row) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(row):
                    out[i + j] += a * b
            poly = out
        big, other = 3 ** 30000, 7 ** 25000
        for _ in range(8):
            big * other
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return elapsed


class Runner:
    """Starts workers one at a time and stops each before going on."""

    def __init__(self, started: float):
        self.started = started
        self.yardstick_s = []  # every yardstick time, in order
        # a fixed hash seed takes string-hash layout out of the run-to-run
        # spread; bytecode is cached, as for an installed package, so setup_s
        # times the import itself and not compilation, in any environment
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def worker(self, *args) -> dict:
        """The worker's JSON result, with "speed": YARDSTICK_NOMINAL_S over
        the geometric mean of the yardstick times just before and after it.
        The time after one worker serves as the time before the next."""
        if not self.yardstick_s:
            self.yardstick_s.append(yardstick())
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left < 1:
            raise WorkerError("no time left in the run")
        try:
            proc = subprocess.run([sys.executable, WORKER, SRC] + list(args),
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise WorkerError("worker stopped after %.0f s" % left) from None
        if proc.returncode != 0:
            raise WorkerError("worker exit %d: %s"
                              % (proc.returncode, proc.stderr.strip()[-500:]))
        result = json.loads(proc.stdout)
        before = self.yardstick_s[-1]
        self.yardstick_s.append(yardstick())
        result["speed"] = YARDSTICK_NOMINAL_S / math.sqrt(before * self.yardstick_s[-1])
        return result


def _commit():
    """The checked-out commit if ROOT is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
                for line in f:
                    if line.rstrip("\n").endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over the package's file names and bytes; names the code under
    test where no commit is at hand."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "sheafcount")
    for base, dirs, files in os.walk(package):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, package).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def provenance(args) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "nproc": nproc,
            "commit": _commit(), "source_sha256": _source_digest()}


def measure(args, runner, jobs_path, n_jobs):
    """Set-up probes, then passes until the time is up.  Returns
    (setup samples as (seconds, speed), passes, number of passes lost to a
    worker failure)."""
    setup = []
    passes = []
    lost = 0
    deadline = time.monotonic() + args.seconds
    try:
        for _ in range(SETUP_PROBES):
            probe = runner.worker("setup")
            setup.append((probe["setup_s"], probe["speed"]))
        traced = False
        while (time.monotonic() < deadline or not passes
               or (args.trace and not any(p["layers"] for p in passes))):
            result = runner.worker("pass", jobs_path, "1" if traced else "0")
            if len(result["jobs"]) != n_jobs:
                raise WorkerError("worker ran %d of %d jobs" % (len(result["jobs"]), n_jobs))
            passes.append(result)
            setup.append((result["setup_s"], result["speed"]))
            traced = bool(args.trace) and not traced
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        lost = 1
    return setup, passes, lost


def check(jobs, passes):
    """Failed job count over all passes, and one reason per failing job.

    The first pass is checked against the oracle; every other pass must
    repeat its exit codes and output bytes."""
    wrong = {}
    reference = passes[0]["jobs"]
    for i, (job, res) in enumerate(zip(jobs, reference)):
        if res["exc"] is not None:
            wrong[i] = "escaped exception: %s" % res["exc"]
        elif res["rc"] != 0:
            wrong[i] = "exit %s: %s" % (res["rc"], res["err"].strip())
        else:
            try:
                why = job.check(res["out"])
            except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
                why = "unreadable output (%s: %s)" % (type(exc).__name__, exc)
            if why:
                wrong[i] = "wrong answer: %s" % why
    differs = {}
    failed = 0
    for p in passes:
        for i, res in enumerate(p["jobs"]):
            if i in wrong:
                failed += 1
            elif res["rc"] != reference[i]["rc"] or res["out"] != reference[i]["out"]:
                failed += 1
                differs.setdefault(i, "%s output differs from the first pass"
                                   % ("traced" if p["layers"] else "untraced"))
    return failed, {**differs, **wrong}


def summarize(args, setup, passes, units):
    """Metric values by name, as (value, raw median, sample count).

    A value is the median over the samples, with each time (unit "s")
    scaled to the nominal speed by the speed of the worker that measured
    it; the raw median leaves the times as they were measured."""
    samples = {}  # name -> [(measured value, speed of its worker)]
    plain = [p for p in passes if not p["layers"]]
    if not args.trace:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name] = [(p[name], p["speed"]) for p in plain]
        samples["setup_s"] = setup
    else:
        traced = [p for p in passes if p["layers"]]
        for name in traced[0]["layers"]:
            samples[name] = [(p["layers"][name], p["speed"]) for p in traced]
        # traced minus untraced median wall time, both at the nominal speed
        untraced = statistics.median(p["wall_s"] * p["speed"] for p in plain)
        samples["trace.overhead_s"] = [(p["wall_s"] - untraced / p["speed"], p["speed"])
                                       for p in traced]
    values = {}
    for name, pairs in samples.items():
        scale = units.get(name) == "s"
        values[name] = (statistics.median(v * speed if scale else v for v, speed in pairs),
                        statistics.median(v for v, _ in pairs), len(pairs))
    return values


def run(args, workdir, started):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    jobs = workloads.build(args.workload, args.seed, os.path.relpath(workdir, ROOT))
    jobs_path = os.path.join(workdir, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as f:
        json.dump([job.argv for job in jobs], f)

    runner = Runner(started)
    try:
        runner.worker("setup")  # compiles the bytecode once, untimed
    except WorkerError as exc:
        print("perfbench: cannot import the program: %s" % exc, file=sys.stderr)
        return 1
    t0 = time.monotonic()
    setup, passes, lost = measure(args, runner, jobs_path, len(jobs))
    elapsed = time.monotonic() - t0
    if not passes or (args.trace and not any(p["layers"] for p in passes)):
        print("perfbench: no complete pass", file=sys.stderr)
        return 1

    failed, reasons = check(jobs, passes)
    attempted = len(jobs) * (len(passes) + lost)
    failed += len(jobs) * lost
    for i, why in sorted(reasons.items()):
        print("perfbench: job %d %s: %s" % (i, " ".join(jobs[i].argv), why), file=sys.stderr)

    values = summarize(args, setup, passes, {m["name"]: m["unit"] for m in wanted})
    n_traced = sum(1 for p in passes if p["layers"])
    print("perfbench %s seed=%d trace=%d: %d passes (%d traced) of %d jobs in %.1f s"
          % (args.workload, args.seed, args.trace, len(passes), n_traced, len(jobs), elapsed))
    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    yard = runner.yardstick_s
    print("yardstick = %.6g s (median of %d; min %.6g, max %.6g; nominal %g)"
          % (statistics.median(yard), len(yard), min(yard), max(yard), YARDSTICK_NOMINAL_S))
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        value, raw, count = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print("%s = %.6g %s (median of %d; raw median %.6g)" % (name, value, unit, count, raw))
    print("fail_rate = %.6g ratio (%d of %d jobs failed)"
          % (failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sheafcount", "cli.py")):
        print("perfbench: no sheafcount source under %s" % SRC, file=sys.stderr)
        return 2
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        return run(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
