"""One measured pass in a fresh interpreter; run.py starts it, one at a time.

    python3 worker.py SRC setup
    python3 worker.py SRC pass JOBS.json TRACE

SRC is the directory holding the sheafcount package.  Both forms time the
import of sheafcount and sheafcount.cli first, before anything else is
imported, and print one JSON object on stdout.  `pass` then runs every job
of JOBS.json through sheafcount.cli.main(argv) in this process with stdout
and stderr captured, and reports each job's exit code and output, the wall
and CPU time of the whole job list, and the peak resident memory.  With
TRACE 1 the layers are traced and their metrics are reported too.

A fresh process per pass keeps module-level caches (the Euler-power cache
in qseries) cold at the start of every pass, as they are for a user.
"""

import os
import sys
import time


def main(argv):
    src, mode = argv[1], argv[2]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import sheafcount
    import sheafcount.cli
    setup_s = time.perf_counter() - t0

    import json

    origin = os.path.dirname(os.path.abspath(sheafcount.__file__))
    if os.path.dirname(origin) != os.path.abspath(src):
        print("sheafcount was imported from %s, not from %s" % (origin, src),
              file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import contextlib
    import io
    import resource

    with open(argv[3], encoding="utf-8") as f:
        jobs = json.load(f)
    tracer = None
    if argv[4] == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job_argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = sheafcount.cli.main(job_argv)
            except SystemExit as stop:
                rc = stop.code if isinstance(stop.code, int) else 1
            except Exception as error:  # an escaped exception fails the job, not the pass
                rc, exc = None, "%s: %s" % (type(error).__name__, error)
        results.append({"rc": rc, "out": out.getvalue(),
                        "err": err.getvalue()[-300:], "exc": exc})
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "jobs": results,
        "layers": tracer.metrics() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
