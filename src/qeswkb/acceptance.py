"""The acceptance checks: the paper's claims as one table of measurements.

Each ``Check`` in ``CHECKS`` measures one quantity on a shared ``Study`` and
passes when ``measure(study) < threshold``, so a NaN measurement fails.
``qeswkb reproduce`` writes one ``summary.txt`` row per check, and the
acceptance tests run the same checks grouped by ``CRITERIA``, each criterion
under its own runtime budget; both report the same measured value.
"""

from collections import defaultdict, namedtuple
from dataclasses import dataclass
from typing import Callable
import math
import time

import numpy as np

from . import fitmodels, qes_algebra, wkb
from .eigensolver import critical_N, lowest_eigen
from .potentials import (
    EvenPolynomial,
    Morse,
    SexticReduced,
    evaluate,
    susy_partner_closed_form,
)

DEPTHS = (0.0, 0.25, 0.5, 0.7)
MORSE_REF = (1.0, 8.0, math.sqrt(2.0))
_MORSE_PRINTED = (
    0.0,
    10.313708498985,
    18.62741699797,
    24.94112549695,
    29.25483399594,
    31.56854249492,
)
_HARMONIC = EvenPolynomial((0.0, 0.5))
_QES_PAIR = (1.5 - math.sqrt(3.0), 1.5 + math.sqrt(3.0))  # exact levels of SexticReduced(1)
_TAIL_RATIOS = {0.0: 1.13424, 0.25: 1.14224, 0.5: 1.15169, 0.7: 1.1596}

SusyPair = namedtuple("SusyPair", "spec grid states partner operator")


def _worst(values):
    """Largest absolute value over scalars and arrays; NaN if any is NaN."""
    return float(np.max(np.abs(np.concatenate([np.ravel(v) for v in values]))))


def residual_rows(samples, model):
    """Rows (n, value, model value, relative error) for (n, value) samples;
    the relative error of a zero value reads 0."""
    rows = []
    for n, value in samples:
        fit = model(n)
        rows.append((n, value, fit, abs(fit - value) / abs(value) if value else 0.0))
    return rows


def susy_pair(spec):
    """Factorization of ``spec`` by its lowest algebraic state, on a 241-point
    grid: [-3, 6] for the exponential well, [-3, 3] for the even ones."""
    grid = np.linspace(-3.0, 6.0 if isinstance(spec, Morse) else 3.0, 241)
    states = qes_algebra.qes_states(spec)
    partner, operator = qes_algebra.darboux(states[0])
    return SusyPair(spec, grid, states, partner, operator)


def annihilation_ratio(pair):
    """max |A u0| / max |u0| on the pair's grid, u0 the seed and A its operator."""
    seed = pair.states[0]
    psi = seed.derivatives(pair.grid, 0)[0]
    image = pair.operator.apply_state(seed, pair.grid, order=0)[0]
    return float(np.max(np.abs(image))) / float(np.max(np.abs(psi)))


def _part(criterion):
    """Build a study part on first use and keep it.

    Its build time, less that of the parts it reads, is charged to
    ``criterion`` in ``Study.build_seconds``.
    """

    def wrap(build):
        name = build.__name__

        def get(self):
            if name not in self._parts:
                built, started = self._built(), time.perf_counter()
                self._parts[name] = build(self)
                nested = self._built() - built
                self.build_seconds[criterion] += time.perf_counter() - started - nested
            return self._parts[name]

        return property(get, doc=build.__doc__)

    return wrap


class Study:
    """The data the checks measure and ``reproduce`` writes, each part built once."""

    def __init__(self):
        self._parts = {}
        self.build_seconds = defaultdict(float)  # criterion number -> seconds

    def _built(self):
        return sum(self.build_seconds.values())

    @_part(5)
    def spectra(self):
        """51-level spectra of the reduced sextic well at tol 1e-10, by depth."""
        return {d: lowest_eigen(SexticReduced(d), 51, tol=1e-10) for d in DEPTHS}

    @_part(5)
    def gamma_tables(self):
        """WKB record of every level of ``spectra``, by depth."""
        return {
            d: [
                wkb.gamma(SexticReduced(d), n, float(e))
                for n, e in enumerate(spectrum.energies)
            ]
            for d, spectrum in self.spectra.items()
        }

    @_part(5)
    def published_gamma(self):
        """Published correction model against ``gamma_tables``, n >= 3, by depth."""
        return {
            d: residual_rows(
                [(n, r.gamma) for n, r in enumerate(records) if n >= 3],
                lambda n: fitmodels.gamma_fit_eval(fitmodels.PUBLISHED_GAMMA[d], n),
            )
            for d, records in self.gamma_tables.items()
        }

    @_part(6)
    def published_energy(self):
        """Published energy model against ``spectra``, every level, by depth."""
        rows = {}
        for d, spectrum in self.spectra.items():
            energies = [float(e) for e in spectrum.energies]
            params = fitmodels.published_energy_params(d, energies[0])
            rows[d] = residual_rows(
                enumerate(energies), lambda n: fitmodels.energy_fit_eval(params, n)
            )
        return rows

    @_part(7)
    def refits(self):
        """(correction refit, energy refit) reports, by depth."""
        reports = {}
        for d, spectrum in self.spectra.items():
            gamma_data = [(n, r.gamma) for n, r in enumerate(self.gamma_tables[d]) if n >= 3]
            energy_data = [(n, float(e)) for n, e in enumerate(spectrum.energies)]
            reports[d] = (
                fitmodels.fit_gamma(gamma_data, n_label=d),
                fitmodels.fit_energy(energy_data, energy_data[0][1], n_label=d),
            )
        return reports

    @_part(1)
    def morse_levels(self):
        """Closed-form and numeric (tol 1e-9) six bound levels of the reference exponential well."""
        spec = Morse(*MORSE_REF, 0.0)
        exact = np.asarray(qes_algebra.morse_exact_spectrum(spec, 5))
        return exact, lowest_eigen(spec, 6, tol=1e-9).energies

    @_part(2)
    def morse_gamma(self):
        """Rows (n, energy, closed-form gamma, quadrature gamma) at the exact levels."""
        a, b, alpha = MORSE_REF
        rows = []
        for n, energy in enumerate(self.morse_levels[0]):
            energy = float(energy)
            closed = wkb.morse_action_closed(a, b, alpha, energy) / math.pi - n - 0.5
            quadrature = wkb.gamma(Morse(a, b, alpha, 0.0), n, energy).gamma
            rows.append((n, energy, closed, quadrature))
        return rows

    @_part(3)
    def harmonic(self):
        """Eleven lowest levels of the harmonic oscillator at tol 1e-12."""
        return lowest_eigen(_HARMONIC, 11, tol=1e-12).energies

    @_part(10)
    def shape_invariance(self):
        """Rows (N, max deviation, level shift) of the Morse partner from the lowered well."""
        rows = []
        for n_index in (1, 2, 3):
            pair = susy_pair(Morse(*MORSE_REF, n_index))
            lowered, shift = susy_partner_closed_form(pair.spec)
            deviation = evaluate(pair.partner, pair.grid) - evaluate(lowered, pair.grid) - shift
            rows.append((n_index, float(np.max(np.abs(deviation))), shift))
        return rows

    @_part(10)
    def susy_pairs(self):
        """Factorizations of the Morse and reduced sextic wells at N = 1 on 241-point grids."""
        return [susy_pair(Morse(*MORSE_REF, 1.0)), susy_pair(SexticReduced(1.0))]


def _sl2_commutators(study):
    blocks = []
    for n_index in range(6):
        block = slice(0, n_index + 1)
        raising, weight, lowering = (
            m[block, block] for m in qes_algebra.sl2_generators(n_index)
        )
        blocks += [
            weight @ raising - raising @ weight - raising,
            weight @ lowering - lowering @ weight + lowering,
            raising @ lowering - lowering @ raising + 2.0 * weight,
        ]
    return _worst(blocks)


def _lie_form(study):
    return _worst(
        qes_algebra.morse_lie_form_check(Morse(*params, n_index))
        for n_index in range(6)
        for params in (MORSE_REF, (1.3, 5.0, 0.9), (0.7, 3.3, 1.7))
    )


def _qes_block(study):
    levels = sorted(s.energy for s in qes_algebra.qes_states(SexticReduced(1.0)))
    return _worst(np.subtract(levels, _QES_PAIR))


def _qes_match(study):
    mesh = lowest_eigen(SexticReduced(1.0), 4, tol=1e-11).energies
    return _worst(np.min(np.abs(mesh - level)) for level in _QES_PAIR)


def _published_energy(study, depths):
    return _worst(
        fit / value - 1.0
        for d in depths
        for n, value, fit, _ in study.published_energy[d]
        if n >= 3
    )


def _tail_ratios(study, depths):
    deviations = []
    for d in depths:
        params = fitmodels.published_energy_params(d, 0.0)
        deviations.append(params.A6 / params.B5**2 - _TAIL_RATIOS[d])
    return _worst(deviations)


@dataclass(frozen=True)
class Check:
    """One claim: it holds when ``measure(study) < threshold``."""

    name: str
    criterion: int
    threshold: float
    measure: Callable[[Study], float]


@dataclass(frozen=True)
class Criterion:
    """One acceptance test: the checks with this number, under one runtime budget."""

    number: int
    name: str
    budget: float  # seconds for the criterion's checks and the parts charged to it


CRITERIA = (
    Criterion(1, "morse_exact_spectrum", 5.0),
    Criterion(2, "morse_exact_wkb", 2.0),
    Criterion(3, "harmonic_oracle", 5.0),
    Criterion(4, "sextic_algebraic_cross_check", 10.0),
    Criterion(5, "published_gamma_envelope", 180.0),
    Criterion(6, "published_energy_envelope", 180.0),
    Criterion(7, "refit_quality", 60.0),
    Criterion(8, "asymptotic_coefficient_and_ratios", 1.0),
    Criterion(9, "critical_depth_index", 30.0),
    Criterion(10, "susy_algebra_suite", 5.0),
)

CHECKS = (
    Check("morse_closed_spectrum", 1, 1e-9,
          lambda s: _worst(s.morse_levels[0] - _MORSE_PRINTED)),
    Check("morse_numeric_spectrum", 1, 1e-6,
          lambda s: _worst(s.morse_levels[1] - _MORSE_PRINTED)),
    Check("morse_gamma_closed", 2, 1e-8,
          lambda s: _worst(row[2] for row in s.morse_gamma)),
    Check("morse_gamma_quadrature", 2, 1e-6,
          lambda s: _worst(row[3] for row in s.morse_gamma)),
    Check("harmonic_energies", 3, 1e-10,
          lambda s: _worst(s.harmonic - (np.arange(11) + 0.5))),
    Check("harmonic_gamma", 3, 1e-9,
          lambda s: _worst(wkb.gamma(_HARMONIC, n, float(e)).gamma
                           for n, e in enumerate(s.harmonic))),
    Check("sextic_N0_ground", 4, 1e-10,
          lambda s: abs(float(s.spectra[0.0].energies[0]) - 0.5)),
    Check("sextic_N1_qes_block", 4, 1e-12, _qes_block),
    Check("sextic_N1_qes_match", 4, 1e-8, _qes_match),
    Check("published_gamma_envelope", 5, 5e-3,
          lambda s: _worst(row[3] for d in DEPTHS for row in s.published_gamma[d])),
    Check("published_energy_envelope_N0", 6, 5e-4,
          lambda s: _published_energy(s, DEPTHS[:1])),
    Check("published_energy_envelope_rest", 6, 5e-3,
          lambda s: _published_energy(s, DEPTHS[1:])),
    Check("refit_gamma", 7, 2e-3,
          lambda s: _worst(g.max_rel_error for g, _ in s.refits.values())),
    Check("refit_energy_N0", 7, 1e-4,
          lambda s: s.refits[0.0][1].max_rel_error),
    Check("refit_energy_rest", 7, 1e-3,
          lambda s: _worst(s.refits[d][1].max_rel_error for d in DEPTHS[1:])),
    Check("asymptotic_coefficient", 8, 5e-5,
          lambda s: abs(fitmodels.asymptotic_coefficient() - 1.13254)),
    Check("published_ratio_N0", 8, 1e-4,
          lambda s: _tail_ratios(s, DEPTHS[:1])),
    Check("published_ratio_rest", 8, 1e-4,
          lambda s: _tail_ratios(s, DEPTHS[1:])),
    Check("critical_depth_index", 9, 2e-3,
          lambda s: abs(critical_N(tol=1e-3) - 0.73295)),
    Check("sl2_commutators", 10, 1e-13, _sl2_commutators),
    Check("lie_form_equivalence", 10, 1e-12, _lie_form),
    Check("morse_shape_invariance", 10, 1e-10,
          lambda s: _worst(row[1] for row in s.shape_invariance)),
    Check("intertwining_residual", 10, 1e-8,
          lambda s: _worst(
              qes_algebra.intertwining_residual(p.states[0], p.states[1], p.grid)
              for p in s.susy_pairs)),
    Check("seed_annihilation", 10, 1e-12,
          lambda s: _worst(annihilation_ratio(p) for p in s.susy_pairs)),
)


def run_criterion(study, number):
    """Measure the checks of criterion ``number`` on ``study``.

    Returns [(check, measured)] and the seconds charged to the criterion:
    the time of its measurements, less the parts they built for other
    criteria, plus the build time of the parts charged to it.
    """
    built, started = study._built(), time.perf_counter()
    results = [(c, c.measure(study)) for c in CHECKS if c.criterion == number]
    elapsed = time.perf_counter() - started - (study._built() - built)
    return results, elapsed + study.build_seconds[number]
