"""Acceptance battery: the nine release gates of `sheafcount.checks`.

One test per check, named `test_criterion_<NN>_<check function>`.  Each
runs its check, enforces the check's runtime budget where one exists and
prints a single pass line naming the criterion, so a bare `pytest -sv
tests/test_acceptance.py` reads as a checklist.  Budgets are wall-clock on
the machine running the suite.  NN is the release criterion's number, and
criteria keep their numbers: criterion 1, the p3 point values, has no
check, because every p3 run holds its value to [q^n] prod (1-q^m)^-7
itself (tests/test_localization.py), so the first check is criterion 2."""

import time

from sheafcount.checks import CHECKS


def _gate(number, check):
    def test():
        t0 = time.monotonic()
        detail = check.fn()
        elapsed = time.monotonic() - t0
        if check.budget is not None:
            assert elapsed < check.budget
        print("criterion %d: PASS (%s, %.2fs)" % (number, detail, elapsed))
    test.__name__ = "test_criterion_%02d_%s" % (number, check.fn.__name__)
    return test


for _test in (_gate(number, check) for number, check in enumerate(CHECKS, 2)):
    globals()[_test.__name__] = _test
