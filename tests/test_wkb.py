import functools
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
from qeswkb.potentials import EvenPolynomial, Morse, SexticGeneral, SexticReduced, evaluate
from qeswkb.qes_algebra import morse_exact_spectrum
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


_gauss_legendre = functools.cache(np.polynomial.legendre.leggauss)


def _plain_ladder(spec, energy, tol):
    """``wkb._quadrature`` as one Gauss-Legendre rule per pass, each rule's
    phases mapped and its potential evaluated on its own.

    Returns (x_left, x_right, S, T) and the node counts of the rules
    evaluated.
    """
    x_left, x_right = turning_points(spec, energy)
    if isinstance(spec, Morse):
        center, scale = 0.5 * (x_left + x_right), 0.5 * (x_right - x_left)
        width, shift = 0.5 * math.pi, 0.0
    else:
        center, scale, width, shift = 0.0, x_right, 0.25 * math.pi, 1.0
    prefactor = 0.5 * math.pi * scale
    previous = None
    hits = 0
    rules = []
    m = 24
    while m <= wkb._NODE_CAP:
        rules.append(m)
        nodes, weights = _gauss_legendre(m)
        phase = width * (nodes + shift)
        root = np.sqrt(np.maximum(2.0 * (energy - evaluate(spec, center + scale * np.sin(phase))), 0.0))
        value = prefactor * float(np.dot(weights, root * np.cos(phase)))
        if previous is not None and abs(value - previous) < tol * max(1.0, abs(value)):
            hits += 1
            if hits >= 2:
                ratio = np.divide(np.cos(phase), root, out=np.zeros_like(root), where=root > 0.0)
                return (x_left, x_right, value, prefactor * float(np.dot(weights, ratio))), rules
        elif previous is not None:
            hits = 0
        previous = value
        m = int(m * wkb._GROWTH) + 1
    pytest.fail("the plain ladder did not stabilise")


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
        s = morse_action_closed(MORSE_REF, morse_exact_level(n))
        assert s / math.pi == pytest.approx(n + 0.5, abs=1e-12)


def test_morse_quadrature_matches_closed_form():
    for energy in (-1.0, 3.0, 14.5, 27.0, 31.0):
        s_quad = action(MORSE_REF, energy, tol=1e-12)
        s_closed = morse_action_closed(MORSE_REF, energy)
        assert s_quad == pytest.approx(s_closed, rel=1e-11)


def test_morse_quadrature_matches_closed_form_general_index():
    # the closed form takes the N = 2 spec itself, and quantizes its levels
    spec = Morse(1.0, 8.0, SQRT2, 2.0)
    for energy in (5.0, 20.0):
        s_quad = action(spec, energy, tol=1e-12)
        s_closed = morse_action_closed(spec, energy)
        assert s_quad == pytest.approx(s_closed, rel=1e-11)
    for n, energy in enumerate(morse_exact_spectrum(spec, spec.bound_count - 1)):
        assert morse_action_closed(spec, energy) / math.pi == pytest.approx(n + 0.5, abs=1e-12)


def test_morse_gamma_vanishes_on_exact_levels():
    for n in range(1, 6):
        record = gamma(MORSE_REF, n, morse_exact_level(n), tol=1e-13)
        assert abs(record.gamma) < 1e-8
    # the paper's gamma = 0 claim, at every bound level of 300 seeded Morse wells
    rng = np.random.default_rng(0)
    for _ in range(300):
        b, alpha = rng.uniform(0.3, 12.0), rng.uniform(0.2, 2.0)
        spec = Morse(1.0, b, alpha, float(rng.choice((0.0, 0.5, 1.0, 2.0, 4.0))))
        for n, energy in enumerate(morse_exact_spectrum(spec, spec.bound_count - 1)):
            assert abs(gamma(spec, n, energy).gamma) < 1e-11, (spec, n)


def test_morse_inversion_is_exact_on_seeded_wells():
    # every bound level of 300 seeded Morse wells, inverted at the default
    # tol, and the same levels moved by gamma0 offsets, whose energies must
    # meet their targets on the closed-form action
    rng = np.random.default_rng(5)
    for _ in range(300):
        b, alpha = rng.uniform(0.3, 12.0), rng.uniform(0.2, 2.0)
        spec = Morse(1.0, b, alpha, float(rng.choice((0.0, 0.5, 1.0, 2.0, 4.0))))
        limit = spec.c1 / (2.0 * alpha)  # S / pi at the plateau
        for n, exact in enumerate(morse_exact_spectrum(spec, spec.bound_count - 1)):
            energy = bohr_sommerfeld_invert(spec, n)
            assert abs(energy - exact) <= 1e-12 * max(1.0, abs(exact)), (spec, n)
            for gamma0 in (-0.25, 0.125, 0.375):
                phase = n + 0.5 + gamma0
                if phase >= limit:
                    with pytest.raises(SpectrumExhaustedError):
                        bohr_sommerfeld_invert(spec, n, gamma0)
                    continue
                energy = bohr_sommerfeld_invert(spec, n, gamma0)
                # the action's miss as an energy miss, through T = dS/dE
                period = math.pi / (alpha * math.sqrt(spec.beta**2 - 2.0 * energy))
                miss = (morse_action_closed(spec, energy) - math.pi * phase) / period
                assert abs(miss) <= 1e-12 * max(1.0, abs(energy)), (spec, n, gamma0)


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
        morse_action_closed(MORSE_REF, -10.0)
    with pytest.raises(AboveAsymptoteError):
        morse_action_closed(MORSE_REF, 32.0)
    # a well that is not Morse, and one with c1 = 2b + alpha (2N+1) <= 0,
    # which has no minimum
    for spec in (SexticReduced(0.0), Morse(1.0, -3.0, 1.0, 1.0), Morse(1.0, -1.0, 1.0, 0.0)):
        with pytest.raises(DomainError):
            morse_action_closed(spec, 3.0)


def test_closed_action_covers_a_well_with_negative_beta():
    # beta = -0.4 but c1 = 0.2: the well has a minimum, v_min = 0.075, below
    # its plateau v_inf = 0.08, and the closed form holds there
    spec = Morse(1.0, 0.1, 1.0, -0.5)
    energy = bohr_sommerfeld_invert(spec, 0, -0.45)
    assert energy == pytest.approx(0.07875, rel=1e-14)
    s = morse_action_closed(spec, energy)
    assert abs(s / math.pi - 0.05) <= 1e-12
    assert abs(s - action(spec, energy)) / math.pi <= 1e-12


def test_accuracy_error_reports_achieved(monkeypatch):
    monkeypatch.setattr(wkb, "_NODE_CAP", 100)
    with pytest.raises(AccuracyError) as excinfo:
        action(SexticReduced(0.0), 5.0, tol=1e-16)
    assert excinfo.value.achieved is not None
    assert excinfo.value.achieved > 0


def test_small_node_cap_drops_the_third_rule(monkeypatch):
    # under a 40-node cap the shared first evaluation holds the 24- and
    # 35-node rules only, and no rule above the cap is evaluated
    monkeypatch.setattr(wkb, "_NODE_CAP", 40)
    points = []
    monkeypatch.setattr(wkb, "evaluate", lambda spec, x: points.append(np.size(x)) or evaluate(spec, x))
    with pytest.raises(AccuracyError) as excinfo:
        action(SexticReduced(0.0), 5.0, tol=1e-16)
    assert points == [24 + 35]
    assert excinfo.value.achieved > 0


@pytest.mark.parametrize("spec, energy, tol, past_head", [
    (SexticReduced(0.0), 5.0, 1e-12, False),
    (SexticReduced(0.5), 1e-6, 1e-12, True),  # just above the barrier top: nine rules
    (SexticGeneral(2.0, 0.5, 1.3), 4.0, 1e-10, False),
    (EvenPolynomial((0.0, 0.5, 0.1)), 3.0, 1e-12, False),
    (MORSE_REF, 3.0, 1e-12, False),
    (Morse(0.5, 6.0, 0.7, 3.0), -2.0, 1e-10, False),
])
def test_quadrature_matches_a_plain_ladder(spec, energy, tol, past_head):
    expected, rules = _plain_ladder(spec, energy, tol)
    assert (len(rules) > 3) == past_head, rules
    result = wkb._quadrature(spec, energy, tol)
    assert result[:2] == expected[:2]
    for value, reference in zip(result[2:], expected[2:]):
        assert abs(value - reference) <= 2.0 * np.spacing(abs(reference)), (value, reference)


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


def test_gamma_rejects_a_negative_level():
    with pytest.raises(UnsupportedParameterError):
        gamma(SexticReduced(0.0), -1, 1.0)


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


def test_quantize_quadratures_evaluate_the_potential_once(monkeypatch):
    # one evaluate call for the first three rules, then one per later rule:
    # a quadrature that settles within three rules calls it exactly once,
    # on the same points as the plain ladder
    points = []
    monkeypatch.setattr(wkb, "evaluate", lambda spec, x: points.append(np.size(x)) or evaluate(spec, x))
    quadratures = []
    quadrature = wkb._quadrature

    def traced(*args):
        start = len(points)
        result = quadrature(*args)
        quadratures.append((args, points[start:]))
        return result

    monkeypatch.setattr(wkb, "_quadrature", traced)
    for depth in (0.0, 0.25, 0.5, 0.7):
        spec = SexticReduced(depth)
        for n in range(3, 51):
            gamma0 = fitmodels.gamma_fit_eval(fitmodels.PUBLISHED_GAMMA[depth], n)
            gamma(spec, n, bohr_sommerfeld_invert(spec, n, gamma0))
    plain_points = 0
    calls = 0
    for args, sizes in quadratures:
        rules = _plain_ladder(*args)[1]
        if len(rules) <= 3:
            assert len(sizes) == 1, (args, sizes)
        assert sizes == [sum(rules[:3])] + rules[3:], (args, sizes, rules)
        plain_points += sum(rules)
        calls += len(sizes)
    assert sum(sum(sizes) for _, sizes in quadratures) == plain_points
    assert calls <= 1.25 * len(quadratures), (calls, len(quadratures))


def test_turning_radius_stops_once_newton_stalls(monkeypatch):
    # a Newton step that rounds to zero ends the root search: it must not
    # bisect away from the root it has reached (the paper's 192 corrected
    # targets and its four 51-level gamma tables)
    from qeswkb.eigensolver import lowest_eigen

    horner = []
    slope = wkb._poly_and_slope
    monkeypatch.setattr(wkb, "_poly_and_slope", lambda *a: horner.append(a) or slope(*a))
    counts = []
    piece_root = wkb._piece_root

    def counted(*args):
        start = len(horner)
        root = piece_root(*args)
        counts.append(len(horner) - start)
        return root

    monkeypatch.setattr(wkb, "_piece_root", counted)
    for depth in (0.0, 0.25, 0.5, 0.7):
        spec = SexticReduced(depth)
        for n in range(3, 51):
            gamma0 = fitmodels.gamma_fit_eval(fitmodels.PUBLISHED_GAMMA[depth], n)
            gamma(spec, n, bohr_sommerfeld_invert(spec, n, gamma0))
        for n, energy in enumerate(lowest_eigen(spec, 51).energies):
            gamma(spec, n, energy)
    assert len(counts) > 1000
    assert max(counts) <= 10, max(counts)


def test_gauss_legendre_rules_are_shared_across_maps(monkeypatch):
    # the folded even-well map and the Morse map read the same rules, so a
    # sextic gamma table and a Morse one build each rule once
    from qeswkb.eigensolver import lowest_eigen

    built = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda m: built.append(m) or leggauss(m))
    wkb._legendre.cache_clear()
    wkb._leggauss.cache_clear()
    for spec, count in ((SexticReduced(0.0), 51), (MORSE_REF, 6)):
        for n, energy in enumerate(lowest_eigen(spec, count).energies):
            gamma(spec, n, energy)
    assert {24, 35, 51} <= set(built)
    assert sorted(built) == sorted(set(built)), built


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
    energy_refit = (
        "energy = fm.MODELS['energy']\n"
        "truth = energy.published_params(0.0, (0.5,))\n"
        "energy.refit([(n, energy.value(truth, n)) for n in range(51)], (0.5,), None, None)\n"
    )
    probes = {
        "qeswkb.wkb": "",
        "qeswkb.fitmodels": fit_gamma,
        "qeswkb.cli": fit_gamma + energy_refit,
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
