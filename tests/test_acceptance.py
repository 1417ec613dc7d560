"""End-to-end acceptance checks.

Each test covers one deliverable criterion, prints a single PASS/FAIL line
with the binding measurement, and then asserts.  The four 51-level sextic
spectra and their correction tables are built once in session fixtures so
the data-generation budget is counted exactly once.
"""

import math
import time

import numpy as np

from qeswkb import fitmodels, qes_algebra, wkb
from qeswkb.eigensolver import critical_N, lowest_eigen
from qeswkb.fitmodels import (
    PUBLISHED_GAMMA,
    asymptotic_coefficient,
    energy_fit_eval,
    fit_energy,
    fit_gamma,
    gamma_fit_eval,
    published_energy_params,
)
from qeswkb.potentials import (
    EvenPolynomial,
    Morse,
    SexticReduced,
    evaluate,
    susy_partner_closed_form,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

MORSE_REF = Morse(1.0, 8.0, SQRT2, 0.0)
MORSE_PRINTED = (
    0.0,
    10.313708498985,
    18.62741699797,
    24.94112549695,
    29.25483399594,
    31.56854249492,
)


def _report(capsys, number, description, measured, threshold, ok, seconds, budget):
    line = "[%s] criterion %d: %s (measured %.4g vs %.4g, %.1f s of %.0f s)" % (
        "PASS" if ok and seconds < budget else "FAIL",
        number,
        description,
        measured,
        threshold,
        seconds,
        budget,
    )
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line
    assert seconds < budget, line


def test_criterion_01_morse_exact_spectrum(capsys):
    started = time.perf_counter()
    closed = qes_algebra.morse_exact_spectrum(1.0, 8.0, SQRT2, 5)
    closed_dev = max(
        abs(c - p) for c, p in zip(closed, MORSE_PRINTED)
    )
    spectrum = lowest_eigen(MORSE_REF, 6, tol=1e-10)
    numeric_dev = float(np.max(np.abs(spectrum.energies - np.asarray(MORSE_PRINTED))))
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        1,
        "exponential-well bound energies, closed %.2g<1e-9 / numeric" % closed_dev,
        numeric_dev,
        1e-6,
        closed_dev < 1e-9 and numeric_dev < 1e-6,
        elapsed,
        5.0,
    )


def test_criterion_02_morse_exact_wkb(capsys):
    started = time.perf_counter()
    closed_dev = 0.0
    quad_dev = 0.0
    for n in range(6):
        energy = 0.5 * SQRT2 * n * (16.0 - SQRT2 * n)
        closed_gamma = wkb.morse_action_closed(1.0, 8.0, SQRT2, energy) / math.pi - n - 0.5
        closed_dev = max(closed_dev, abs(closed_gamma))
        quad_dev = max(quad_dev, abs(wkb.gamma(MORSE_REF, n, energy).gamma))
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        2,
        "exponential-well corrections vanish, closed %.2g<1e-8 / quadrature" % closed_dev,
        quad_dev,
        1e-6,
        closed_dev < 1e-8 and quad_dev < 1e-6,
        elapsed,
        2.0,
    )


def test_criterion_03_harmonic_oracle(capsys):
    started = time.perf_counter()
    harmonic = EvenPolynomial((0.0, 0.5))
    spectrum = lowest_eigen(harmonic, 11, tol=1e-12)
    energy_dev = float(np.max(np.abs(spectrum.energies - (np.arange(11) + 0.5))))
    gamma_dev = max(
        abs(wkb.gamma(harmonic, n, float(spectrum.energies[n])).gamma)
        for n in range(11)
    )
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        3,
        "harmonic ladder %.2g<1e-10 and vanishing corrections" % energy_dev,
        gamma_dev,
        1e-9,
        energy_dev < 1e-10 and gamma_dev < 1e-9,
        elapsed,
        5.0,
    )


def test_criterion_04_sextic_algebraic_cross_check(capsys):
    started = time.perf_counter()
    ground = lowest_eigen(SexticReduced(0.0), 1, tol=1e-11).energies[0]
    ground_dev = abs(ground - 0.5)
    states = qes_algebra.qes_states(SexticReduced(1.0))
    algebraic = sorted(s.energy for s in states)
    exact_pair = (1.5 - SQRT3, 1.5 + SQRT3)
    block_dev = max(abs(a - e) for a, e in zip(algebraic, exact_pair))
    spectrum = lowest_eigen(SexticReduced(1.0), 4, tol=1e-11)
    mesh_dev = max(
        float(np.min(np.abs(spectrum.energies - e))) for e in exact_pair
    )
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        4,
        "lowest even level %.2g<1e-10, block %.2g exact, mesh match"
        % (ground_dev, block_dev),
        mesh_dev,
        1e-8,
        ground_dev < 1e-10 and block_dev < 1e-12 and mesh_dev < 1e-8,
        elapsed,
        10.0,
    )


def test_criterion_05_published_gamma_envelope(capsys, gamma_tables):
    started = time.perf_counter()
    worst = 0.0
    for depth, rows in gamma_tables["data"].items():
        params = PUBLISHED_GAMMA[depth]
        for n, value in rows:
            if n < 3:
                continue
            model = gamma_fit_eval(params, n)
            worst = max(worst, abs(model / value - 1.0))
    elapsed = gamma_tables["seconds"] + time.perf_counter() - started
    _report(
        capsys,
        5,
        "published correction model envelope over four depth indices, n=3..50",
        worst,
        5e-3,
        worst <= 5e-3,
        elapsed,
        180.0,
    )


def test_criterion_06_published_energy_envelope(capsys, four_spectra):
    started = time.perf_counter()
    worst_zero = 0.0
    worst_rest = 0.0
    for depth, (_, spectrum) in four_spectra["data"].items():
        params = published_energy_params(depth, float(spectrum.energies[0]))
        for n in range(3, 51):
            model = energy_fit_eval(params, n)
            deviation = abs(model / float(spectrum.energies[n]) - 1.0)
            if depth == 0.0:
                worst_zero = max(worst_zero, deviation)
            else:
                worst_rest = max(worst_rest, deviation)
    elapsed = time.perf_counter() - started  # data budget counted in criterion 5
    _report(
        capsys,
        6,
        "published energy model envelope, depth 0 %.2g<5e-4, others" % worst_zero,
        worst_rest,
        5e-3,
        worst_zero <= 5e-4 and worst_rest <= 5e-3,
        elapsed,
        180.0,
    )


def test_criterion_07_refit_quality(capsys, four_spectra, gamma_tables):
    started = time.perf_counter()
    worst_gamma = 0.0
    worst_energy_zero = 0.0
    worst_energy_rest = 0.0
    for depth, (_, spectrum) in four_spectra["data"].items():
        gamma_data = [(n, g) for n, g in gamma_tables["data"][depth] if n >= 3]
        report = fit_gamma(gamma_data, n_label=depth)
        worst_gamma = max(worst_gamma, report.max_rel_error)
        energy_data = list(enumerate(float(e) for e in spectrum.energies))
        refit = fit_energy(
            energy_data, ground_energy=float(spectrum.energies[0]), n_label=depth
        )
        if depth == 0.0:
            worst_energy_zero = max(worst_energy_zero, refit.max_rel_error)
        else:
            worst_energy_rest = max(worst_energy_rest, refit.max_rel_error)
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        7,
        "refits: correction %.2g<2e-3, energy depth0 %.2g<1e-4, others"
        % (worst_gamma, worst_energy_zero),
        worst_energy_rest,
        1e-3,
        worst_gamma <= 2e-3
        and worst_energy_zero <= 1e-4
        and worst_energy_rest <= 1e-3,
        elapsed,
        60.0,
    )


def test_criterion_08_asymptotic_coefficient_and_ratios(capsys):
    started = time.perf_counter()
    coeff_dev = abs(asymptotic_coefficient() - 1.13254)
    printed = {0.0: 1.13424, 0.25: 1.14224, 0.5: 1.15169, 0.7: 1.1596}
    ratio_dev = 0.0
    for depth, expected in printed.items():
        params = published_energy_params(depth, 0.0)
        ratio_dev = max(ratio_dev, abs(params.A6 / params.B5**2 - expected))
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        8,
        "growth coefficient %.2g<5e-5 and tail ratios from published columns"
        % coeff_dev,
        ratio_dev,
        1e-4,
        coeff_dev < 5e-5 and ratio_dev < 1e-4,
        elapsed,
        1.0,
    )


def test_criterion_09_critical_depth_index(capsys):
    started = time.perf_counter()
    value = critical_N(tol=1e-3)
    deviation = abs(value - 0.73295)
    elapsed = time.perf_counter() - started
    _report(
        capsys,
        9,
        "vanishing-ground-level depth index by safeguarded Newton search",
        deviation,
        2e-3,
        deviation <= 2e-3,
        elapsed,
        30.0,
    )


def test_criterion_10_susy_algebra_suite(capsys):
    started = time.perf_counter()
    commutator_dev = 0.0
    lie_dev = 0.0
    for n_index in range(6):
        raising, weight, lowering = qes_algebra.sl2_generators(n_index)
        m = n_index + 1
        rr, ww, ll = raising[:m, :m], weight[:m, :m], lowering[:m, :m]
        commutator_dev = max(
            commutator_dev,
            float(np.max(np.abs(ww @ rr - rr @ ww - rr))),
            float(np.max(np.abs(ww @ ll - ll @ ww + ll))),
            float(np.max(np.abs(rr @ ll - ll @ rr + 2.0 * ww))),
        )
        lie_dev = max(lie_dev, qes_algebra.morse_lie_form_check(n_index, 1.0, 8.0, SQRT2))

    shape_dev = 0.0
    x = np.linspace(-3.0, 6.0, 241)
    for n_index in (1, 2, 3):
        spec = Morse(1.0, 8.0, SQRT2, float(n_index))
        seed = qes_algebra.qes_states(spec)[0]
        partner, _ = qes_algebra.darboux(spec, seed)
        lowered, shift = susy_partner_closed_form(spec)
        deviation = evaluate(partner, x) - evaluate(lowered, x) - shift
        shape_dev = max(shape_dev, float(np.max(np.abs(deviation))))

    intertwining_dev = 0.0
    annihilation_dev = 0.0
    for spec, grid in (
        (Morse(1.0, 8.0, SQRT2, 1.0), np.linspace(-2.0, 6.0, 161)),
        (SexticReduced(1.0), np.linspace(-3.0, 3.0, 161)),
    ):
        states = qes_algebra.qes_states(spec)
        seed = states[0]
        intertwining_dev = max(
            intertwining_dev,
            qes_algebra.intertwining_residual(spec, seed, states[1], grid),
        )
        _, operator = qes_algebra.darboux(spec, seed)
        values = seed.derivatives(grid, 1)
        image = operator(values[0], values[1], grid)
        annihilation_dev = max(
            annihilation_dev,
            float(np.max(np.abs(image)) / np.max(np.abs(values[0]))),
        )
    elapsed = time.perf_counter() - started
    ok = (
        commutator_dev <= 1e-13
        and lie_dev <= 1e-12
        and shape_dev < 1e-10
        and intertwining_dev < 1e-8
        and annihilation_dev < 1e-12
    )
    _report(
        capsys,
        10,
        "algebra suite: commutators %.2g, bilinear form %.2g, shape %.2g, "
        "annihilation %.2g, intertwining"
        % (commutator_dev, lie_dev, shape_dev, annihilation_dev),
        intertwining_dev,
        1e-8,
        ok,
        elapsed,
        5.0,
    )
