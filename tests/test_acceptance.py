"""End-to-end acceptance checks.

One test per criterion of ``qeswkb.acceptance.CRITERIA``, all with one body:
it measures the criterion's checks on the session study, prints one
PASS/FAIL line per check with the measured value that ``qeswkb reproduce``
writes to summary.txt, and asserts every check and the criterion's runtime
budget.
"""

from qeswkb.acceptance import CRITERIA, run_criterion


def _criterion_test(criterion):
    def test(study, capsys):
        results, seconds = run_criterion(study, criterion.number)
        lines = [
            "[%s] criterion %d %s: measured %.15g vs %.15g, %.1f s of %.0f s" % (
                "PASS" if measured < check.threshold and seconds < criterion.budget
                else "FAIL",
                criterion.number,
                check.name,
                measured,
                check.threshold,
                seconds,
                criterion.budget,
            )
            for check, measured in results
        ]
        with capsys.disabled():
            print("\n".join(lines), flush=True)
        assert lines and all(line.startswith("[PASS]") for line in lines), lines

    test.__name__ = "test_criterion_%02d_%s" % (criterion.number, criterion.name)
    return test


for _criterion in CRITERIA:
    _test = _criterion_test(_criterion)
    globals()[_test.__name__] = _test
