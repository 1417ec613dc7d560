"""End-to-end acceptance checks.

One test per criterion of ``qeswkb.acceptance.CRITERIA``, all with one body:
it measures the criterion's checks on the session study, prints one
PASS/FAIL line per check with the measured value that ``qeswkb reproduce``
writes to summary.txt, and asserts every check and the criterion's runtime
budget.  One more test ties the published-envelope checks to the residual
tables written beside summary.txt.
"""

from qeswkb.acceptance import CHECKS, CRITERIA, DEPTHS, run_criterion


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


def test_published_envelopes_are_the_largest_rel_error_of_their_rows(study):
    # each envelope row of summary.txt is the largest rel_error of the
    # published-residual rows ``reproduce`` writes for its depths
    envelopes = {
        "published_gamma_envelope": ("gamma", DEPTHS),
        "published_energy_envelope_N0": ("energy", DEPTHS[:1]),
        "published_energy_envelope_rest": ("energy", DEPTHS[1:]),
    }
    checks = {check.name: check for check in CHECKS}
    for name, (kind, depths) in envelopes.items():
        rows = [row for d in depths for row in study.published(kind)[d]]
        assert checks[name].measure(study) == max(row[3] for row in rows), name
