import math

import numpy as np
from numpy.polynomial import polynomial as npoly
import pytest

from qeswkb.eigensolver import lowest_eigen
from qeswkb.errors import (
    DomainError,
    RangeOverflowError,
    SeedError,
    SpectrumExhaustedError,
    UnsupportedParameterError,
)
from qeswkb.potentials import GaugeState, Morse, SexticGeneral, SexticReduced
from qeswkb.qes_algebra import (
    darboux,
    intertwining_residual,
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
    grid = np.linspace(-2.0, 6.0, 81)
    assert math.isnan(intertwining_residual(seed, seed, grid))
    assert intertwining_residual(seed, states[1], grid) < 1e-8


def test_darboux_intertwining_sextic():
    spec = SexticReduced(1.0)
    states = qes_states(spec)
    seed = states[0]
    grid = np.linspace(-3.0, 3.0, 61)
    assert math.isnan(intertwining_residual(seed, seed, grid))
    assert intertwining_residual(seed, states[1], grid) < 1e-8


def test_operator_annihilates_seed_pointwise():
    seed = qes_states(Morse(*MORSE_REF, 1.0))[0]
    _, operator = darboux(seed)
    x = np.linspace(-2.0, 6.0, 81)
    values = seed.derivatives(x, 1)
    (image,) = operator.apply_values(x, values)
    assert np.max(np.abs(image)) / np.max(np.abs(values[0])) < 1e-12


def test_darboux_seed_validation():
    states = qes_states(SexticReduced(1.0))
    with pytest.raises(SeedError):
        darboux(states[1])  # excited seed has a node at z ~ +0.366
    morse = Morse(*MORSE_REF, 1.0)
    with pytest.raises(SeedError):
        darboux(GaugeState(morse, (0.5, 1.0)))  # nodeless, but not the pure power z^N
    with pytest.raises(UnsupportedParameterError):
        darboux(GaugeState(Morse(*MORSE_REF, 1.5), (0.0, 1.0)))
    grid = np.linspace(-2.0, 2.0, 21)
    with pytest.raises(DomainError):
        intertwining_residual(qes_states(morse)[0], states[1], grid)  # different wells


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
    _, operator = darboux(ground)
    x = np.linspace(-2.5, 2.5, 41)
    phi_direct = operator.apply_state(excited, x, order=0)[0]
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
