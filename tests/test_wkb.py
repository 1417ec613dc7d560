import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qeswkb import wkb
from qeswkb.errors import (
    UnsupportedParameterError,
    AboveAsymptoteError,
    AccuracyError,
    DomainError,
    MultiWellError,
    NoClassicalRegionError,
    SearchError,
    SpectrumExhaustedError,
)
from qeswkb import fitmodels
from qeswkb.potentials import EvenPolynomial, Morse, SexticGeneral, SexticReduced
from qeswkb.wkb import (
    action,
    bohr_sommerfeld_invert,
    gamma,
    morse_action_closed,
    turning_points,
)

SQRT2 = math.sqrt(2.0)
HARMONIC = EvenPolynomial((0.0, 0.5))
MORSE_REF = Morse(1.0, 8.0, SQRT2, 0.0)


def morse_exact_level(n, b=8.0, alpha=SQRT2):
    return 0.5 * alpha * n * (2.0 * b - alpha * n)


def test_harmonic_phase_integral_is_exact():
    # S(E) = pi E for the harmonic well, so gamma vanishes at E_n = n + 1/2
    for n in range(11):
        record = gamma(HARMONIC, n, n + 0.5)
        assert abs(record.gamma) < 1e-9
        assert record.x_right == pytest.approx(math.sqrt(2 * n + 1), rel=1e-12)
        assert record.x_left == pytest.approx(-record.x_right, rel=1e-12)


def test_harmonic_action_linear_in_energy():
    for energy in (0.5, 1.7, 9.25):
        assert action(HARMONIC, energy) == pytest.approx(math.pi * energy, rel=1e-12)
        _, x_hi = turning_points(HARMONIC, energy)
        assert x_hi == pytest.approx(math.sqrt(2 * energy), rel=1e-12)


def test_morse_closed_action_quantization():
    # closed form hits the Bohr-Sommerfeld half-integers exactly
    for n in range(6):
        s = morse_action_closed(1.0, 8.0, SQRT2, morse_exact_level(n))
        assert s / math.pi == pytest.approx(n + 0.5, abs=1e-12)


def test_morse_quadrature_matches_closed_form():
    for energy in (-1.0, 3.0, 14.5, 27.0, 31.0):
        s_quad = action(MORSE_REF, energy, tol=1e-12)
        s_closed = morse_action_closed(1.0, 8.0, SQRT2, energy)
        assert s_quad == pytest.approx(s_closed, rel=1e-11)


def test_morse_quadrature_matches_closed_form_general_index():
    # raising the well index shifts the effective depth: closed form uses
    # b -> N alpha + b
    spec = Morse(1.0, 8.0, SQRT2, 2.0)
    for energy in (5.0, 20.0):
        s_quad = action(spec, energy, tol=1e-12)
        s_closed = morse_action_closed(1.0, 2.0 * SQRT2 + 8.0, SQRT2, energy)
        assert s_quad == pytest.approx(s_closed, rel=1e-11)


def test_morse_gamma_vanishes_on_exact_levels():
    for n in range(1, 6):
        record = gamma(MORSE_REF, n, morse_exact_level(n), tol=1e-13)
        assert abs(record.gamma) < 1e-8


def test_morse_first_level_turning_points():
    record = gamma(MORSE_REF, 1, morse_exact_level(1), tol=1e-13)
    assert record.x_left == pytest.approx(-1.886153511767041, abs=5e-4)
    assert record.x_right == pytest.approx(-0.7795170868746562, abs=5e-4)


def test_action_strictly_increasing_in_energy():
    for spec, grid in (
        (SexticReduced(0.0), np.linspace(0.4, 40.0, 12)),
        (MORSE_REF, np.linspace(1.0, 31.0, 10)),
    ):
        values = [action(spec, float(e)) for e in grid]
        assert np.all(np.diff(values) > 0)


def test_gamma_positive_and_non_increasing_for_sextic():
    spec = SexticReduced(0.0)
    records = [gamma(spec, n, bohr_sommerfeld_invert(spec, n)) for n in range(3)]
    # on exact BS inversion gamma returns the residual gamma0=0 by construction
    for record in records:
        assert abs(record.gamma) < 1e-9


def test_rearrangement_identity():
    # gamma = S/pi - n - 1/2 must be algebraically consistent with the record
    record = gamma(SexticReduced(0.25), 4, 9.0)
    assert record.gamma == pytest.approx(record.action / math.pi - 4 - 0.5, abs=1e-14)
    assert record.n == 4
    assert record.energy == 9.0


def test_turning_point_errors():
    with pytest.raises(NoClassicalRegionError):
        turning_points(SexticReduced(0.0), -2.0)
    with pytest.raises(MultiWellError):
        turning_points(SexticReduced(0.0), -0.1)
    with pytest.raises(NoClassicalRegionError):
        turning_points(HARMONIC, -1.0)
    with pytest.raises(AboveAsymptoteError):
        turning_points(MORSE_REF, 33.0)
    with pytest.raises(NoClassicalRegionError):
        turning_points(MORSE_REF, -40.0)
    # x^2 - 3x^4 + x^6 dips below zero away from the origin, so a small
    # positive energy crosses the potential three times on x > 0
    bumpy = EvenPolynomial((0.0, 1.0, -3.0, 1.0))
    with pytest.raises(MultiWellError):
        turning_points(bumpy, 0.05)


def test_even_polynomial_double_well_is_multi_well():
    # V = x^4 - x^2 has its bottom at -1/4 away from the origin: an energy
    # between the bottom and the barrier top V(0) = 0 opens two mirror wells
    double = EvenPolynomial((0.0, -1.0, 1.0))
    for energy in (-0.2499, -0.2, -0.1, -1e-9, 0.0):
        with pytest.raises(MultiWellError):
            turning_points(double, energy)
    for energy in (-0.2501, -1.0):
        with pytest.raises(NoClassicalRegionError):
            turning_points(double, energy)
    _, x_right = turning_points(double, 2.0)
    assert x_right == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_negative_qes_ground_level_is_double_well():
    # the lowest exactly known level of the N=1 well sits below the barrier
    energy = 1.5 - math.sqrt(3.0)
    with pytest.raises(MultiWellError):
        gamma(SexticReduced(1.0), 0, energy)


def test_closed_action_domain_errors():
    with pytest.raises(NoClassicalRegionError):
        morse_action_closed(1.0, 8.0, SQRT2, -10.0)
    with pytest.raises(AboveAsymptoteError):
        morse_action_closed(1.0, 8.0, SQRT2, 32.0)
    with pytest.raises(DomainError):
        morse_action_closed(-1.0, 8.0, SQRT2, 3.0)


def test_accuracy_error_reports_achieved(monkeypatch):
    monkeypatch.setattr(wkb, "_NODE_CAP", 100)
    with pytest.raises(AccuracyError) as excinfo:
        action(SexticReduced(0.0), 5.0, tol=1e-16)
    assert excinfo.value.achieved is not None
    assert excinfo.value.achieved > 0


def test_bohr_sommerfeld_round_trip_sextic():
    spec = SexticReduced(0.0)
    for n in (0, 1, 5, 20):
        energy = bohr_sommerfeld_invert(spec, n)
        record = gamma(spec, n, energy)
        assert abs(record.gamma) < 1e-10
        assert energy > 0


def test_bohr_sommerfeld_with_offset():
    spec = SexticReduced(0.0)
    offset = 0.0123
    energy = bohr_sommerfeld_invert(spec, 4, gamma0=offset)
    record = gamma(spec, 4, energy)
    assert record.gamma == pytest.approx(offset, abs=1e-10)


def test_bohr_sommerfeld_target_validation():
    with pytest.raises(DomainError):
        bohr_sommerfeld_invert(SexticReduced(0.0), 0, gamma0=-0.5)
    with pytest.raises(UnsupportedParameterError):
        bohr_sommerfeld_invert(SexticReduced(0.0), -1)


def test_morse_bohr_sommerfeld_reproduces_exact_levels():
    # the quantization rule is exact for this well: inversion returns the
    # closed-form energies to full precision
    for n in range(1, 6):
        energy = bohr_sommerfeld_invert(MORSE_REF, n)
        exact = morse_exact_level(n)
        assert abs(energy - exact) / exact < 1e-9
    with pytest.raises(SpectrumExhaustedError):
        bohr_sommerfeld_invert(MORSE_REF, 6)


def test_semiclassical_growth_exponent():
    # E_n ~ C n^{3/2} for the sextic tail: the local log-log slope
    # approaches 3/2, and the deviation from the limit coefficient decays
    spec = SexticReduced(0.0)
    coeff = 0.5 * math.pi**0.75 * (math.gamma(5.0 / 3.0) / math.gamma(7.0 / 6.0)) ** 1.5

    def level(n):
        return bohr_sommerfeld_invert(spec, n)

    dev200 = abs(level(200) / (coeff * 200**1.5) - 1.0)
    dev2000 = abs(level(2000) / (coeff * 2000**1.5) - 1.0)
    assert 0.02 < dev200 < 0.05
    assert dev2000 < dev200

    n0 = 10_000
    slope = (math.log(level(n0 + 50)) - math.log(level(n0 - 50))) / (
        math.log(n0 + 50) - math.log(n0 - 50)
    )
    assert abs(slope - 1.5) < 0.01

    n1 = 1_000_000
    ratio = math.log(level(n1)) / math.log(n1)
    assert abs(ratio - 1.5) < 0.01


BUMPY = EvenPolynomial((0.0, 1.0, -3.0, 1.0))
DOUBLE = EvenPolynomial((0.0, -1.0, 1.0))


def _np_roots_turning(spec, energy):
    """The companion-matrix rule: positive real roots u of q(u) = E, with q
    the x^2-polynomial of the well, then two Newton steps in x."""
    coeffs = spec.coeffs
    roots = np.roots(coeffs[:0:-1] + (coeffs[0] - energy,)).tolist()
    positive = sorted(
        r.real for r in roots if r.real > 0.0 and abs(r.imag) <= 1e-9 * (1.0 + abs(r.real))
    )
    if not positive:
        raise NoClassicalRegionError("no positive root")
    if energy <= coeffs[0] or positive[-1] > positive[0] * (1.0 + 1e-9):
        raise MultiWellError("mirror pairs")
    x = math.sqrt(positive[-1])
    top = len(coeffs) - 1
    for _ in range(2):
        f = coeffs[top]
        df = 0.0
        for k in range(top, 0, -1):
            f = f * x * x + coeffs[k - 1]
            df += 2.0 * k * coeffs[k] * x ** (2 * k - 1)
        x -= (f - energy) / df
    return -x, x


def _outcome(rule, spec, energy):
    try:
        return rule(spec, energy)
    except (NoClassicalRegionError, MultiWellError) as exc:
        return type(exc)


def test_turning_points_match_np_roots_reference():
    wells = (SexticReduced(0.0), SexticReduced(0.25), SexticReduced(0.5),
             SexticReduced(0.7), HARMONIC, BUMPY, DOUBLE, SexticGeneral(2.0, 0.5, 1.0))
    for spec in wells:
        edges, values = wkb._pieces(spec.coeffs)
        # off-centre well bottoms: the reference splits the double root
        # there into a complex pair wider than its 1e-9 filter and reports
        # no region; the allowed set is a mirror pair of points
        bottoms = [values[i] for i in range(1, len(values) - 1)
                   if values[i] < min(values[i - 1], values[i + 1])]
        for energy in bottoms:
            with pytest.raises(MultiWellError):
                turning_points(spec, energy)
        extrema = [v for v in values[1:-1] if v not in bottoms]
        energies = [float(e) for e in np.linspace(-4.0, 60.0, 641)] + [spec.coeffs[0]] + extrema
        for energy in energies:
            expected = _outcome(_np_roots_turning, spec, energy)
            got = _outcome(turning_points, spec, energy)
            if isinstance(expected, type):
                assert got is expected, (spec, energy)
            else:
                assert got[0] == -got[1]
                assert abs(got[1] - expected[1]) <= 4e-16 * expected[1], (spec, energy)
    # exact local extrema: the double well's bottom -1/4 at x^2 = 1/2 and
    # the bumpy well's inner crest, which the outer branch passes over
    assert _outcome(turning_points, DOUBLE, -0.25) is MultiWellError
    assert _outcome(_np_roots_turning, DOUBLE, -0.25) is MultiWellError
    crest = wkb._pieces(BUMPY.coeffs)[1][1]
    assert _outcome(turning_points, BUMPY, crest) is _outcome(_np_roots_turning, BUMPY, crest)


def test_period_is_the_action_slope():
    # T = dS/dE: pi for the harmonic well, pi / (alpha sqrt(b^2 - 2E)) for
    # the Morse well of morse_action_closed
    for energy in (0.5, 3.0, 17.25):
        assert wkb._quadrature(HARMONIC, energy, 1e-12)[3] == pytest.approx(math.pi, rel=1e-12)
    for energy in (-1.0, 3.0, 27.0):
        slope = math.pi / (SQRT2 * math.sqrt(64.0 - 2.0 * energy))
        assert wkb._quadrature(MORSE_REF, energy, 1e-12)[3] == pytest.approx(slope, rel=1e-10)


@pytest.mark.parametrize("depth, n", [(0.5, 0), (0.7, 0), (1.0, 0), (2.0, 0), (3.0, 0), (2.0, 1), (3.0, 1)])
def test_below_barrier_targets_raise_search_error(depth, n):
    # these levels lie below the barrier top V(0) = 0 (E0 = 1.5 - sqrt 3 at
    # N = 1): no single-interval orbit carries so little phase
    with pytest.raises(SearchError):
        bohr_sommerfeld_invert(SexticReduced(depth), n)


def test_quantize_inversions_take_at_most_five_quadratures(monkeypatch):
    calls = []
    quadrature = wkb._quadrature
    monkeypatch.setattr(wkb, "_quadrature", lambda *a: calls.append(a) or quadrature(*a))
    solves = []
    turning = wkb.turning_points
    monkeypatch.setattr(wkb, "turning_points", lambda *a: solves.append(a) or turning(*a))
    for depth in (0.0, 0.25, 0.5, 0.7):
        spec = SexticReduced(depth)
        for n in range(3, 51):
            del calls[:]
            gamma0 = fitmodels.gamma_fit_eval(fitmodels.PUBLISHED_GAMMA[depth], n)
            energy = bohr_sommerfeld_invert(spec, n, gamma0)
            assert len(calls) <= 5, (depth, n, len(calls))
            del solves[:]
            assert gamma(spec, n, energy).gamma == pytest.approx(gamma0, abs=1e-9)
            assert len(solves) == 1


def test_no_module_imports_scipy_optimize():
    # Each module in a fresh process.  The refits run as well, so that an
    # import deferred into a function body would show too.
    src = os.path.dirname(os.path.dirname(wkb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    fit_gamma = (
        "from qeswkb import fitmodels as fm\n"
        "published = fm.PUBLISHED_GAMMA[0.0]\n"
        "fm.fit_gamma([(n, fm.gamma_fit_eval(published, n)) for n in range(3, 51)])\n"
    )
    fit_energy = (
        "truth = fm.published_energy_params(0.0, 0.5)\n"
        "fm.fit_energy([(n, fm.energy_fit_eval(truth, n)) for n in range(51)], 0.5)\n"
    )
    probes = {
        "qeswkb.wkb": "",
        "qeswkb.fitmodels": fit_gamma,
        "qeswkb.cli": fit_gamma + fit_energy,
    }
    for module, fits in probes.items():
        probe = f"import sys, {module}\n{fits}print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False", module


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_level_index_is_a_typed_error(value):
    with pytest.raises(UnsupportedParameterError):
        gamma(SexticReduced(0.0), value, 1.0)
