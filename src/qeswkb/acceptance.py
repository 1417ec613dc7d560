"""The acceptance checks: the paper's claims as one table of measurements.

Each ``Check`` in ``CHECKS`` measures one quantity on a shared ``Study`` and
passes when ``measure(study) < threshold``, so a NaN measurement fails.
The study reads each fit model from its record in ``fitmodels.MODELS``:
the levels it is sampled on, its published parameters and its residual
rows, so that a published-model table and a refit read the same levels.
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
from .errors import DomainError
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

SusyPair = namedtuple("SusyPair", "states factorization")


def _worst(values):
    """Largest absolute value over scalars and arrays; NaN if any is NaN."""
    return float(np.max(np.abs(np.concatenate([np.ravel(v) for v in values]))))


def samples(kind, energies, gamma):
    """The (n, y) samples of ``kind``'s model on a spectrum's levels
    ``energies``, from the model's lowest level: y = gamma(n) for the
    correction model, y = E_n for the energy model."""
    value = gamma if kind == "gamma" else energies.__getitem__
    return fitmodels.MODELS[kind].samples(value, len(energies))


def refit(kind, energies, gamma, n_label):
    """Samples and report of one depth's refit of ``kind``'s model, whose
    energy refit holds E_0 = energies[0]."""
    model = fitmodels.MODELS[kind]
    data = samples(kind, energies, gamma)
    return data, model.refit(data, energies[:len(model.held)], None, n_label)


def susy_pair(spec):
    """The algebraic states of ``spec`` and its factorization by the lowest
    of them, sampled on a 241-point grid: [-3, 6] for the exponential well,
    [-3, 3] for the even ones."""
    grid = np.linspace(-3.0, 6.0 if isinstance(spec, Morse) else 3.0, 241)
    states = qes_algebra.qes_states(spec)
    return SusyPair(states, qes_algebra.factorize(states[0], grid))


def annihilation_ratio(pair):
    """max |A u0| / max |u0| on the pair's grid, u0 the seed and A its operator."""
    factorization = pair.factorization
    values = pair.states[0].derivatives(factorization.grid, 1)
    scale = float(np.max(np.abs(values[0])))
    if scale == 0.0:
        raise DomainError("seed vanishes identically on the pair's grid")
    image = factorization.image(values)[0]
    return float(np.max(np.abs(image))) / scale


def _part(criterion):
    """Build a study part on first use and keep it.

    Its build time, less that of the parts it reads, is charged to
    ``criterion`` in ``Study.build_seconds``.
    """

    def wrap(build):
        return property(lambda self: self._cached(build.__name__, criterion, build),
                        doc=build.__doc__)

    return wrap


# The criterion that each model's published-residual table is charged to
_PUBLISHED_CRITERION = {"gamma": 5, "energy": 6}


class Study:
    """The data the checks measure and ``reproduce`` writes, each part built once."""

    def __init__(self):
        self._parts = {}
        self.build_seconds = defaultdict(float)  # criterion number -> seconds

    def _built(self):
        return sum(self.build_seconds.values())

    def _cached(self, name, criterion, build):
        """Part ``name``, built by ``build(self)`` on first use; see _part."""
        if name not in self._parts:
            built, started = self._built(), time.perf_counter()
            self._parts[name] = build(self)
            nested = self._built() - built
            self.build_seconds[criterion] += time.perf_counter() - started - nested
        return self._parts[name]

    def _levels(self, d):
        """Energies of depth d's spectrum and the correction gamma(n) of its levels."""
        energies = [float(e) for e in self.spectra[d].energies]
        return energies, lambda n: self.gamma_tables[d][n].gamma

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

    def published(self, kind):
        """Rows (n, value, model value, relative error) of the published
        ``kind`` model at its samples, by depth; the correction rows are
        charged to criterion 5, the energy rows to criterion 6."""
        def build(study):
            model, rows = fitmodels.MODELS[kind], {}
            for d in DEPTHS:
                energies, gamma = study._levels(d)
                params = model.published_params(d, energies[:len(model.held)])
                rows[d] = model.residual_rows(params, samples(kind, energies, gamma))
            return rows

        return self._cached("published_" + kind, _PUBLISHED_CRITERION[kind], build)

    @_part(7)
    def refits(self):
        """Refit reports, by kind and then depth."""
        return {kind: {d: refit(kind, *self._levels(d), d)[1] for d in DEPTHS}
                for kind in fitmodels.MODELS}

    @_part(1)
    def morse_levels(self):
        """Closed-form and numeric (tol 1e-9) six bound levels of the reference exponential well."""
        spec = Morse(*MORSE_REF, 0.0)
        exact = np.asarray(qes_algebra.morse_exact_spectrum(spec, 5))
        return exact, lowest_eigen(spec, 6, tol=1e-9).energies

    @_part(2)
    def morse_gamma(self):
        """Rows (n, energy, closed-form gamma, quadrature gamma) at the exact levels."""
        spec = Morse(*MORSE_REF, 0.0)
        rows = []
        for n, energy in enumerate(self.morse_levels[0]):
            energy = float(energy)
            closed = wkb.morse_action_closed(spec, energy) / math.pi - n - 0.5
            rows.append((n, energy, closed, wkb.gamma(spec, n, energy).gamma))
        return rows

    @_part(3)
    def harmonic(self):
        """Eleven lowest levels of the harmonic well at tol 1e-12."""
        return lowest_eigen(_HARMONIC, 11, tol=1e-12).energies

    @_part(10)
    def shape_invariance(self):
        """Rows (N, max deviation, level shift) of the Morse partner from the lowered well."""
        rows = []
        for n_index in (1, 2, 3):
            spec = Morse(*MORSE_REF, n_index)
            factorization = susy_pair(spec).factorization
            lowered, shift = susy_partner_closed_form(spec)
            deviation = factorization.v1 - evaluate(lowered, factorization.grid) - shift
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


def _published_envelope(kind, depths):
    """Measure of the largest relative error of the published ``kind`` model
    at the depths ``depths``: the rel_error column of its residual rows."""
    return lambda study: _worst(row[3] for d in depths for row in study.published(kind)[d])


def _tail_ratios(study, depths):
    deviations = []
    for d in depths:
        params = fitmodels.MODELS["energy"].published[d]
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
    Check("published_gamma_envelope", 5, 5e-3, _published_envelope("gamma", DEPTHS)),
    Check("published_energy_envelope_N0", 6, 5e-4, _published_envelope("energy", DEPTHS[:1])),
    Check("published_energy_envelope_rest", 6, 5e-3, _published_envelope("energy", DEPTHS[1:])),
    Check("refit_gamma", 7, 2e-3,
          lambda s: _worst(r.max_rel_error for r in s.refits["gamma"].values())),
    Check("refit_energy_N0", 7, 1e-4,
          lambda s: s.refits["energy"][0.0].max_rel_error),
    Check("refit_energy_rest", 7, 1e-3,
          lambda s: _worst(s.refits["energy"][d].max_rel_error for d in DEPTHS[1:])),
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
          lambda s: _worst(p.factorization.residual(p.states[1]) for p in s.susy_pairs)),
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
