import math

import numpy as np
import pytest

from qeswkb import potentials
from qeswkb.errors import (
    DomainError,
    SeedError,
    UnsupportedParameterError,
)
from qeswkb.potentials import (
    EvenPolynomial,
    GaugeState,
    Morse,
    SexticGeneral,
    SexticReduced,
    SusyPartner,
    evaluate,
    format_spec,
    parse_spec,
    seed_log_derivatives,
    susy_partner_closed_form,
)

SQRT2 = math.sqrt(2.0)


def test_sextic_reduced_values():
    spec = SexticReduced(0.0)
    assert evaluate(spec, 0.0) == 0.0
    # N=0 reduced well: x^6/2 + x^4 - x^2
    assert evaluate(spec, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert evaluate(spec, 2.0) == pytest.approx(32.0 + 16.0 - 4.0, abs=1e-12)


def test_sextic_coefficients_mapping():
    c0, c2, c4, c6 = SexticGeneral(nu=2.0, mu=3.0, N=1.0).coeffs
    assert c0 == 0.0
    assert c6 == pytest.approx(0.5 * 4.0)
    assert c4 == pytest.approx(6.0)
    assert c2 == pytest.approx(0.5 * (9.0 - 7.0 * 2.0))


def test_reduction_identity_exact():
    x = np.linspace(-4.0, 4.0, 321)
    for depth in (0.0, 0.25, 0.5, 0.7, 1.0, 2.0):
        general = evaluate(SexticGeneral(1.0, 1.0, depth), x)
        reduced = evaluate(SexticReduced(depth), x)
        assert np.array_equal(general, reduced)


def test_even_wells_share_one_evaluator():
    # the grid holds x = 0, where the sextic's zero constant term keeps -0
    x = np.concatenate([np.linspace(-3.0, 3.0, 121), [0.0, -0.0]])
    for depth in (0.0, 0.25, 0.7, 2.0):
        reduced = evaluate(SexticReduced(depth), x)
        for other in (SexticGeneral(1.0, 1.0, depth), EvenPolynomial(SexticReduced(depth).coeffs)):
            values = evaluate(other, x)
            assert np.array_equal(values, reduced)
            assert np.array_equal(np.signbit(values), np.signbit(reduced))


def test_evenness():
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, 5.0, size=64)
    for spec in (
        SexticReduced(0.5),
        SexticGeneral(1.3, -0.4, 2.0),
        EvenPolynomial((0.25, 0.5, 0.0, 1.0)),
    ):
        assert np.array_equal(evaluate(spec, x), evaluate(spec, -x))


def test_scalar_and_array_types():
    spec = SexticReduced(1.0)
    assert isinstance(evaluate(spec, 1.5), float)
    out = evaluate(spec, np.array([0.0, 1.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    with pytest.raises(DomainError):
        evaluate(spec, math.nan)


def test_morse_eval_and_asymptote():
    spec = Morse(1.0, 8.0, SQRT2, 0.0)
    assert spec.v_inf == pytest.approx(32.0)
    # well value at z = e^{-alpha x}: (z^2 - (2b+alpha) z + b^2)/2
    z = math.exp(-SQRT2 * 1.0)
    expected = 0.5 * (z * z - (16.0 + SQRT2) * z + 64.0)
    assert evaluate(spec, 1.0) == pytest.approx(expected, rel=1e-14)
    # monotone rise toward the plateau beyond the well minimum
    x = np.linspace(2.0, 10.0, 200)
    v = evaluate(spec, x)
    assert np.all(np.diff(v) > 0.0)
    assert v[-1] < 32.0
    assert 32.0 - v[-1] < 1e-3


def test_morse_constants():
    params = ((1.0, 8.0, SQRT2, 0.0), (1.0, 8.0, SQRT2, 3.0), (1.3, 5.0, 0.9, 2.0), (0.7, 3.3, 1.7, 0.5))
    for a, b, alpha, n_index in params:
        spec = Morse(a, b, alpha, n_index)
        c1 = 2.0 * b + alpha * (2.0 * n_index + 1.0)
        assert spec.v_inf == pytest.approx(0.5 * (n_index * alpha + b) ** 2, rel=1e-15)
        # V approaches the plateau from below, the gap falling like a c1 z / 2
        for z in (1e-6, 1e-8):
            gap = spec.v_inf - evaluate(spec, -math.log(z) / alpha)
            assert gap == pytest.approx(0.5 * a * c1 * z, rel=1e-5)
        # the well bottom sits at z* = c1 / (2a), where dV/dz vanishes
        x_star = -math.log(c1 / (2.0 * a)) / alpha
        assert abs(evaluate(spec, x_star) - spec.v_min) <= 1e-12 * max(1.0, abs(spec.v_min))
        assert np.all(evaluate(spec, x_star + np.array([-1e-3, 1e-3])) > spec.v_min)


def test_morse_partner_closed_form_shift():
    spec = Morse(1.0, 8.0, SQRT2, 1.0)
    lowered, shift = susy_partner_closed_form(spec)
    assert lowered == Morse(1.0, 8.0, SQRT2, 0.0)
    # the shift equals the first level spacing alpha (N alpha + b) - alpha^2/2
    assert shift == pytest.approx(SQRT2 * (SQRT2 + 8.0) - 1.0, rel=1e-14)
    x = np.linspace(-3.0, 6.0, 241)
    partner = SusyPartner(GaugeState(spec, (0.0, 1.0)))
    deviation = evaluate(partner, x) - evaluate(lowered, x) - shift
    assert np.max(np.abs(deviation)) < 1e-10


def test_morse_partner_n0_keeps_original_constant():
    # Lowering below the bottom index: the partner of the N=0 well is
    # (a^2 z^2 + a z (alpha - 2b) + b^2)/2 -- the constant term stays b^2.
    a, b, alpha = 1.0, 8.0, SQRT2
    spec = Morse(a, b, alpha, 0.0)
    x = np.linspace(-3.0, 6.0, 241)
    z = np.exp(-alpha * x)
    expected = 0.5 * (a * a * z * z + a * z * (alpha - 2.0 * b) + b * b)
    partner = SusyPartner(GaugeState(spec, (1.0,)))
    assert np.max(np.abs(evaluate(partner, x) - expected)) < 1e-10
    lowered, shift = susy_partner_closed_form(spec)
    assert np.max(np.abs(evaluate(lowered, x) + shift - expected)) < 1e-10


def test_susy_partner_closed_form_validation():
    with pytest.raises(UnsupportedParameterError):
        susy_partner_closed_form(Morse(1.0, 8.0, SQRT2, 0.5))
    with pytest.raises(UnsupportedParameterError):
        susy_partner_closed_form(SexticReduced(1.0))


def test_sextic_partner_matches_hand_derivation():
    # seed exp(-x^4/4 - x^2/2): (ln u)'' = -3x^2 - 1, so the partner of the
    # N=0 well is x^6/2 + x^4 + 2x^2 + 1.
    spec = SexticReduced(0.0)
    partner = SusyPartner(GaugeState(spec, (1.0,)))
    x = np.linspace(-3.0, 3.0, 241)
    expected = 0.5 * x**6 + x**4 + 2.0 * x * x + 1.0
    assert np.max(np.abs(evaluate(partner, x) - expected)) < 1e-10


def test_seed_log_derivatives_match_difference_quotients():
    # independent route: central differences of W at loose tolerance
    seed = GaugeState(SexticReduced(1.0), (1.3660254037844386, 1.0))
    x = np.linspace(-2.0, 2.0, 41)
    eps = 1e-5
    w, w1, w2 = seed_log_derivatives(seed, x)
    wp = seed_log_derivatives(seed, x + eps)[0]
    wm = seed_log_derivatives(seed, x - eps)[0]
    assert np.max(np.abs((wp - wm) / (2 * eps) - w1)) < 1e-5
    w1p = seed_log_derivatives(seed, x + eps)[1]
    w1m = seed_log_derivatives(seed, x - eps)[1]
    assert np.max(np.abs((w1p - w1m) / (2 * eps) - w2)) < 1e-4


def test_morse_seed_log_derivative_closed_form():
    seed = GaugeState(Morse(1.0, 8.0, SQRT2, 0.0), (1.0,))
    x = np.linspace(-2.0, 4.0, 61)
    w, w1, _ = seed_log_derivatives(seed, x)
    z = np.exp(-SQRT2 * x)
    assert np.max(np.abs(w - (z - 8.0))) < 1e-12
    assert np.max(np.abs(w1 + SQRT2 * z)) < 1e-12


def test_seed_with_node_raises():
    seed = GaugeState(SexticReduced(1.0), (-0.36602540378443865, 1.0))
    with pytest.raises(SeedError):
        seed_log_derivatives(seed, np.linspace(-2.0, 2.0, 21), check_positive=True)


def test_spec_io_round_trip():
    for spec in (
        SexticReduced(0.25),
        SexticGeneral(1.5, -0.75, 2.0),
        Morse(1.0, 8.0, 1.41421356, 0.25),
        EvenPolynomial((0.0, 0.5)),
    ):
        assert parse_spec(format_spec(spec)) == spec


def test_parse_spec_errors():
    with pytest.raises(DomainError, match="unknown potential family"):
        parse_spec("family=unknown")
    with pytest.raises(DomainError, match="requires alpha, N"):
        parse_spec("family=morse a=1 b=8")
    with pytest.raises(DomainError, match="unexpected extra fields"):
        parse_spec(format_spec(SexticReduced(0.5)) + " stray=1")
    with pytest.raises(DomainError, match="bad numeric value"):
        parse_spec("family=sextic_reduced N=abc")
    with pytest.raises(DomainError, match="malformed token"):
        parse_spec("family unknown_family")


def test_constructor_validation():
    with pytest.raises(DomainError):
        SexticGeneral(nu=-1.0, mu=1.0, N=0.0)
    with pytest.raises(DomainError):
        Morse(a=-1.0, b=8.0, alpha=SQRT2, N=0.0)
    with pytest.raises(DomainError):
        EvenPolynomial((1.0, -2.0))  # negative leading coefficient
    with pytest.raises(DomainError):
        GaugeState(EvenPolynomial((0.0, 0.5)), (1.0,))  # no gauge factor
    with pytest.raises(SeedError):
        GaugeState(SexticReduced(1.0), (1.0, 0.0))  # zero leading coefficient

def test_unknown_family_rejected():
    class Odd:
        pass

    with pytest.raises(UnsupportedParameterError):
        evaluate(Odd(), 1.0)
