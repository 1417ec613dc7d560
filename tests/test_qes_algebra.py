import math

import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest

from qeswkb.acceptance import CHECKS, annihilation_ratio, susy_pair
from qeswkb.eigensolver import lowest_eigen
from qeswkb.errors import (
    DomainError,
    RangeOverflowError,
    SeedError,
    SpectrumExhaustedError,
    UnsupportedParameterError,
)
from qeswkb.potentials import (
    GaugeState,
    Morse,
    SexticGeneral,
    SexticReduced,
    SusyPartner,
    evaluate,
    susy_partner_closed_form,
)
from qeswkb.qes_algebra import (
    darboux,
    factorize,
    morse_exact_spectrum,
    morse_lie_form_check,
    qes_block,
    qes_states,
    residual_check,
    sl2_generators,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
MORSE_REF = (1.0, 8.0, SQRT2)


def test_sextic_block_small_cases():
    m0 = qes_block(SexticGeneral(nu=1.0, mu=2.5, N=0.0))
    assert m0.shape == (1, 1)
    assert m0[0, 0] == pytest.approx(1.25)
    m1 = qes_block(SexticReduced(1.0))
    expected = np.array([[0.5, -1.0], [-2.0, 2.5]])
    assert np.max(np.abs(m1 - expected)) < 1e-14
    values = np.sort(np.linalg.eigvals(m1).real)
    assert values[0] == pytest.approx(1.5 - SQRT3, abs=1e-12)
    assert values[1] == pytest.approx(1.5 + SQRT3, abs=1e-12)


def test_sextic_block_n2_eigenvalues():
    values = np.sort(np.linalg.eigvals(qes_block(SexticReduced(2.0))).real)
    expected = sorted((-1.5, 4.5 - math.sqrt(8.0), 4.5 + math.sqrt(8.0)))
    assert np.max(np.abs(values - expected)) < 1e-12


def test_morse_block_n1():
    a, b, alpha = MORSE_REF
    block = qes_block(Morse(a, b, alpha, 1.0))
    values = np.sort(np.linalg.eigvals(block).real)
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert values[1] == pytest.approx(0.5 * alpha * (alpha + 2 * b), rel=1e-12)


def test_block_levels_of_random_wells_solve_the_well():
    # every eigenpair of the block is an exact level of its well: the
    # Schrodinger residual of Gamma(x) p(z) vanishes pointwise
    rng = np.random.default_rng(7)
    sextic_grid = np.linspace(-3.0, 3.0, 61)
    morse_grid = np.linspace(-2.0, 6.0, 81)
    for n_index in range(5):
        nu, mu = rng.uniform(0.3, 2.0), rng.uniform(-1.0, 2.0)
        a, b, alpha = rng.uniform(0.3, 2.0, size=3)
        for spec, grid in (
            (SexticGeneral(nu=nu, mu=mu, N=float(n_index)), sextic_grid),
            (Morse(a, b, alpha, float(n_index)), morse_grid),
        ):
            states = qes_states(spec)
            assert len(states) == n_index + 1
            for state in states:
                assert residual_check(state, grid) < 1e-8, (spec, state.energy)


def test_qes_states_sorted_monic_real():
    for spec in (SexticReduced(1.0), SexticReduced(2.0), Morse(1.0, 8.0, SQRT2, 2.0)):
        states = qes_states(spec)
        energies = [s.energy for s in states]
        assert energies == sorted(energies)
        for state in states:
            assert state.poly[-1] == pytest.approx(1.0, abs=1e-12)


def test_qes_states_match_mesh_spectrum():
    # dual route: every algebraic level appears in the variational spectrum
    for n_index, k in ((1.0, 6), (2.0, 8), (3.0, 10)):
        spec = SexticReduced(n_index)
        states = qes_states(spec)
        spectrum = lowest_eigen(spec, k, tol=1e-11)
        for state in states:
            nearest = np.min(np.abs(spectrum.energies - state.energy))
            assert nearest < 1e-8


def test_residual_checks():
    grid = np.linspace(-3.0, 3.0, 61)
    for state in qes_states(SexticReduced(1.0)):
        assert residual_check(state, grid) < 1e-9
    n0 = qes_states(SexticReduced(0.0))[0]
    assert n0.energy == pytest.approx(0.5, abs=1e-13)
    assert residual_check(n0, grid) < 1e-10
    ground = qes_states(Morse(*MORSE_REF, 0.0))[0]
    assert residual_check(ground, np.linspace(-2.0, 6.0, 81)) < 1e-10


def test_morse_excited_polynomial_closed_form():
    a, b, alpha = MORSE_REF
    states = qes_states(Morse(a, b, alpha, 1.0))
    excited = states[1]
    assert excited.poly[1] == pytest.approx(1.0)
    assert excited.poly[0] == pytest.approx(-(alpha + 2.0 * b) / (2.0 * a), rel=1e-12)


def test_sl2_commutators_close_on_invariant_block():
    for n_index in range(6):
        raising, weight, lowering = sl2_generators(n_index)
        m = n_index + 1
        rr, ww, ll = raising[:m, :m], weight[:m, :m], lowering[:m, :m]

        def comm(u, v):
            return u @ v - v @ u

        assert np.max(np.abs(comm(ww, rr) - rr)) < 1e-13
        assert np.max(np.abs(comm(ww, ll) + ll)) < 1e-13
        assert np.max(np.abs(comm(rr, ll) + 2.0 * ww)) < 1e-13
        # the raising generator annihilates the top monomial
        top = np.zeros(n_index + 2)
        top[n_index] = 1.0
        assert np.max(np.abs(raising @ top)) == 0.0
    for value in (math.nan, math.inf):
        with pytest.raises(UnsupportedParameterError):
            sl2_generators(value)


def test_lie_algebraic_form_of_morse_block():
    for n_index in range(6):
        for a, b, alpha in ((1.0, 8.0, SQRT2), (1.3, 5.0, 0.9), (0.7, 3.3, 1.7)):
            assert morse_lie_form_check(Morse(a, b, alpha, n_index)) < 1e-12


def test_darboux_intertwining_morse():
    spec = Morse(*MORSE_REF, 1.0)
    states = qes_states(spec)
    seed = states[0]
    factorization = factorize(seed, np.linspace(-2.0, 6.0, 81))
    assert math.isnan(factorization.residual(seed))
    assert factorization.residual(states[1]) < 1e-8


def test_darboux_intertwining_sextic():
    spec = SexticReduced(1.0)
    states = qes_states(spec)
    seed = states[0]
    factorization = factorize(seed, np.linspace(-3.0, 3.0, 61))
    assert math.isnan(factorization.residual(seed))
    assert factorization.residual(states[1]) < 1e-8


def test_operator_annihilates_seed_pointwise():
    seed = qes_states(Morse(*MORSE_REF, 1.0))[0]
    x = np.linspace(-2.0, 6.0, 81)
    values = seed.derivatives(x, 1)
    (image,) = factorize(seed, x).image(values)
    assert np.max(np.abs(image)) / np.max(np.abs(values[0])) < 1e-12


def test_factorizations_of_random_wells_meet_criterion_10():
    # every pair that criterion 10 would build for a random sextic or Morse
    # well meets its thresholds: the seed is annihilated, each excited image
    # solves the partner, and a Morse partner is the lowered well shifted
    threshold = {check.name: check.threshold for check in CHECKS if check.criterion == 10}
    rng = np.random.default_rng(32)
    for idx in range(200):
        if idx % 2 == 0:
            nu = float(np.exp(rng.uniform(math.log(0.2), math.log(5.0))))
            spec = SexticGeneral(nu, rng.uniform(-2.0, 3.0), float(rng.integers(1, 6)))
        else:
            spec = Morse(1.0, rng.uniform(0.5, 8.0), rng.uniform(0.3, 1.5), float(rng.integers(1, 5)))
        pair = susy_pair(spec)
        factorization = pair.factorization
        assert annihilation_ratio(pair) < threshold["seed_annihilation"], spec
        for state in pair.states[1:]:
            assert factorization.residual(state) < threshold["intertwining_residual"], (spec, state.energy)
        if isinstance(spec, Morse):
            lowered, shift = susy_partner_closed_form(spec)
            deviation = factorization.v1 - evaluate(lowered, factorization.grid) - shift
            assert np.max(np.abs(deviation)) < threshold["morse_shape_invariance"], spec


def test_darboux_seed_validation():
    states = qes_states(SexticReduced(1.0))
    # a valid seed gives its partner alone; a Morse seed is snapped to exactly z^N
    assert darboux(states[0]) == SusyPartner(GaugeState(SexticReduced(1.0), states[0].poly))
    morse_seed = qes_states(Morse(*MORSE_REF, 2.0))[0]
    assert darboux(morse_seed).seed.poly == (0.0, 0.0, 1.0)
    with pytest.raises(SeedError):
        darboux(states[1])  # excited seed has a node at z ~ +0.366
    with pytest.raises(SeedError):
        darboux(GaugeState(SexticReduced(1.0), (0.0, 1.0)))  # u = Gamma x^2: a node at x = 0
    morse = Morse(*MORSE_REF, 1.0)
    with pytest.raises(SeedError):
        darboux(GaugeState(morse, (0.5, 1.0)))  # nodeless, but not the pure power z^N
    with pytest.raises(UnsupportedParameterError):
        darboux(GaugeState(Morse(*MORSE_REF, 1.5), (0.0, 1.0)))
    factorization = factorize(qes_states(morse)[0], np.linspace(-2.0, 2.0, 21))
    with pytest.raises(DomainError):
        factorization.residual(states[1])  # different wells


def test_wronskian_route_matches_pointwise_operator():
    spec = SexticReduced(1.0)
    states = qes_states(spec)
    ground, excited = states[0], states[1]
    # the Wronskian polynomial p' P - p P' of seed p and state P
    w = npoly.polysub(
        npoly.polymul(npoly.polyder(ground.poly), excited.poly),
        npoly.polymul(ground.poly, npoly.polyder(excited.poly)),
    )
    assert len(w) == 1
    assert w[0] == pytest.approx(-SQRT3, rel=1e-10)
    # assemble pointwise: sqrt2 * x * Gamma(x) * w(x^2) / p(x^2)
    x = np.linspace(-2.5, 2.5, 41)
    phi_direct = factorize(ground, x).image(excited.derivatives(x, 1))[0]
    gauge = np.exp(-0.25 * x**4 - 0.5 * x * x)
    assembled = (
        SQRT2
        * x
        * gauge
        * np.polyval(np.asarray(w)[::-1], x * x)
        / np.polyval(np.asarray(ground.poly)[::-1], x * x)
    )
    assert np.max(np.abs(assembled - phi_direct)) < 1e-10


def test_exact_spectrum_values_and_exhaustion():
    spec = Morse(*MORSE_REF, 0.0)
    levels = morse_exact_spectrum(spec, 5)
    expected = [
        0.0,
        10.313708498984761,
        18.627416997969522,
        24.941125496954285,
        29.254833995939045,
        31.568542494923804,
    ]
    assert np.max(np.abs(np.asarray(levels) - expected)) < 1e-9
    with pytest.raises(SpectrumExhaustedError):
        morse_exact_spectrum(spec, 6)
    with pytest.raises(UnsupportedParameterError):
        morse_exact_spectrum(spec, -1)


def test_state_evaluation_guards():
    spec = Morse(*MORSE_REF, 1.0)
    state = qes_states(spec)[0]
    with pytest.raises(RangeOverflowError):
        state.derivatives(-1000.0, 0)
    with pytest.raises(DomainError):
        state.derivatives(0.5, order=4)
    with pytest.raises(DomainError):
        state.derivatives(math.inf)


def test_unknown_family_has_no_block():
    class Odd:
        pass

    with pytest.raises(DomainError):
        qes_states(Odd())


def test_general_sextic_states():
    # the algebraic block follows the full two-parameter family
    spec = SexticGeneral(nu=1.5, mu=0.5, N=1.0)
    states = qes_states(spec)
    grid = np.linspace(-2.5, 2.5, 51)
    for state in states:
        assert residual_check(state, grid) < 1e-9


def test_morse_states_are_bound_and_distinct():
    # At b <= 0 the lower powers of z give levels that do not decay, and
    # diagonal entries that coincide and leave the whole block defective.
    rng = np.random.default_rng(19)
    wells = [(1.0, -1.0, 1.0, 3.0), (1.0, -2.5, 0.7, 5.0), (1.0, 8.0, SQRT2, 3.0)]
    wells += [(rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0), rng.uniform(0.3, 2.0), float(n))
              for n in range(7) for _ in range(4)]
    for a, b, alpha, n_index in wells:
        spec = Morse(a, b, alpha, n_index)
        count = spec.bound_count
        if count == 0:
            with pytest.raises(SpectrumExhaustedError):
                qes_states(spec)
            continue
        states = qes_states(spec)
        assert len(states) == min(count, n_index + 1), (a, b, alpha, n_index)
        assert len({state.poly for state in states}) == len(states)
        for state in states:
            poly = np.abs(state.poly)
            lowest = int(np.argmax(poly > 1e-12 * poly.max()))
            assert b + alpha * lowest > 0
            assert state.energy < spec.v_inf
            assert residual_check(state, np.linspace(-2.0, 4.0, 61)) < 1e-8
    levels = qes_states(Morse(1.0, -1.0, 1.0, 3.0))
    assert [state.energy for state in levels] == [0.0, 1.5]


def test_exact_spectrum_stops_at_the_bound_count():
    # one rule for both: at b = 3 + 5e-13 the level n = 3 sits at the plateau
    wells = [(1.0, 3.0 + 5e-13, 1.0, 0.0), (1.0, 3.0, 1.0, 0.0), (0.5, 6.0, 0.7, 3.0),
             MORSE_REF + (2.0,), (1.0, -1.0, 1.0, 3.0), (1.0, -3.0, 1.0, 1.0)]
    for params in wells:
        spec = Morse(*params)
        count = spec.bound_count
        if count:
            levels = morse_exact_spectrum(spec, count - 1)
            assert len(levels) == count
            assert levels[-1] < spec.v_inf
        with pytest.raises(SpectrumExhaustedError):
            morse_exact_spectrum(spec, count)
    assert Morse(1.0, 3.0 + 5e-13, 1.0, 0.0).bound_count == 3


def test_block_size_is_capped():
    assert qes_block(SexticReduced(200.0)).shape == (201, 201)
    for spec in (SexticReduced(201.0), SexticReduced(1e300), Morse(1.0, 1.0, 1.0, 1e10)):
        with pytest.raises(UnsupportedParameterError):
            qes_block(spec)
