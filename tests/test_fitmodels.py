import math

import numpy as np
import pytest

from qeswkb import fitmodels
from qeswkb.errors import DomainError, ModelDomainError, UnsupportedParameterError
from qeswkb.fitmodels import (
    PUBLISHED_GAMMA,
    EnergyFitParams,
    GammaFitParams,
    asymptotic_coefficient,
    energy_fit_eval,
    fit_energy,
    fit_gamma,
    format_fit_params,
    gamma_fit_eval,
    parse_fit_params,
    published_energy_params,
)

GROUND_ENERGIES = {
    0.0: 0.5,
    0.25: 0.34758760,
    0.5: 0.17767168,
    0.7: 0.02641685,
}

PUBLISHED_RATIOS = {
    0.0: 1.1342403850543454,
    0.25: 1.142239,
    0.5: 1.151684,
    0.7: 1.159600,
}


def test_asymptotic_coefficient_closed_form():
    expected = (
        0.5
        * math.pi**0.75
        * (math.gamma(5.0 / 3.0) / math.gamma(7.0 / 6.0)) ** 1.5
    )
    assert asymptotic_coefficient() == pytest.approx(expected, rel=1e-15)
    assert asymptotic_coefficient() == pytest.approx(1.1325446862011495, abs=1e-15)
    assert abs(asymptotic_coefficient() - 1.13254) < 5e-5


def test_published_depth_indices():
    assert sorted(PUBLISHED_GAMMA) == sorted(fitmodels._PUBLISHED_ENERGY_AB) == [0.0, 0.25, 0.5, 0.7]


def test_gamma_model_reference_values():
    value = gamma_fit_eval(PUBLISHED_GAMMA[0.0], 3)
    assert value == pytest.approx(0.013944505947196751, rel=1e-12)
    assert round(value, 6) == 0.013945
    mid = gamma_fit_eval(PUBLISHED_GAMMA[0.5], 10)
    assert 0.0 < mid < 0.05
    # large n: the correction keeps decaying
    tail = [gamma_fit_eval(PUBLISHED_GAMMA[0.0], n) for n in (10, 100, 1000)]
    assert tail[0] > tail[1] > tail[2] > 0.0


def test_gamma_model_domain():
    with pytest.raises(ModelDomainError):
        gamma_fit_eval(PUBLISHED_GAMMA[0.0], 2)


def test_energy_model_pins_ground_level():
    for label, e0 in GROUND_ENERGIES.items():
        params = published_energy_params(label, e0)
        assert energy_fit_eval(params, 0) == e0  # exact, not approximate
        assert params.N_label == label


def test_energy_model_domain():
    params = published_energy_params(0.0, 0.5)
    with pytest.raises(ModelDomainError):
        energy_fit_eval(params, -1)
    with pytest.raises(DomainError):
        published_energy_params(0.33, 0.5)


def test_tail_coefficient_ratios():
    # A6/B5^2 approaches the closed-form growth coefficient
    for label, expected in PUBLISHED_RATIOS.items():
        params = published_energy_params(label, GROUND_ENERGIES[label])
        ratio = params.A6 / params.B5**2
        assert ratio == pytest.approx(expected, abs=1e-4)
        limit = asymptotic_coefficient()
        bound = 0.015 if label <= 0.25 else 0.025
        assert abs(ratio / limit - 1.0) < bound


def test_energy_model_slope_near_asymptote():
    params = published_energy_params(0.0, 0.5)
    n0 = 10_000
    slope = (
        math.log(energy_fit_eval(params, n0 + 50))
        - math.log(energy_fit_eval(params, n0 - 50))
    ) / (math.log(n0 + 50) - math.log(n0 - 50))
    assert abs(slope - 1.5) < 0.01


def test_denominator_positive_on_model_range():
    for label in sorted(PUBLISHED_GAMMA):
        p = PUBLISHED_GAMMA[label]
        for n in range(3, 2000, 13):
            m = n - 2.0
            inner = 1.0 + p.b1**2 * m + p.b2**2 * m**2 + p.b3**2 * m**3 + p.b4**2 * m**4
            assert inner > 0.0
            assert gamma_fit_eval(p, n) > 0.0


def test_gamma_refit_round_trip():
    truth = PUBLISHED_GAMMA[0.0]
    samples = [(n, gamma_fit_eval(truth, n)) for n in range(3, 41)]
    report = fit_gamma(samples, n_label=0.0)
    assert report.converged
    assert report.max_rel_error < 1e-10
    for n in (5, 17, 33):
        refit = gamma_fit_eval(report.params, n)
        assert refit == pytest.approx(gamma_fit_eval(truth, n), rel=1e-8)


def test_energy_refit_round_trip():
    truth = published_energy_params(0.0, 0.5)
    samples = [(n, energy_fit_eval(truth, n)) for n in range(0, 51)]
    report = fit_energy(samples, ground_energy=0.5, n_label=0.0)
    assert report.converged
    assert report.max_rel_error < 1e-10
    assert report.params.E0 == 0.5
    for n in (1, 9, 42):
        assert energy_fit_eval(report.params, n) == pytest.approx(
            energy_fit_eval(truth, n), rel=1e-8
        )


def test_fit_preconditions():
    good = [(n, gamma_fit_eval(PUBLISHED_GAMMA[0.0], n)) for n in range(3, 9)]
    with pytest.raises(DomainError):
        fit_gamma(good[:5])
    with pytest.raises(ModelDomainError):
        fit_gamma([(2, 0.02)] + good[:5])
    with pytest.raises(DomainError):
        fit_gamma([(n, -g) for n, g in good])
    energy_samples = [(n, float(n) + 0.5) for n in range(10)]
    with pytest.raises(DomainError):
        fit_energy(energy_samples, ground_energy=0.5)


def test_params_io_round_trip():
    gamma_params = PUBLISHED_GAMMA[0.25]
    text = format_fit_params(gamma_params)
    back = parse_fit_params(text)
    assert back == gamma_params
    energy_params = published_energy_params(0.5, GROUND_ENERGIES[0.5])
    assert parse_fit_params(format_fit_params(energy_params)) == energy_params


def test_params_io_errors():
    with pytest.raises(DomainError):
        parse_fit_params("model mystery\na0 1\n")
    text = format_fit_params(PUBLISHED_GAMMA[0.0])
    with pytest.raises(DomainError):
        parse_fit_params(text + "surprise 3\n")
    with pytest.raises(DomainError):
        parse_fit_params("\n".join(text.splitlines()[:-1]))
    with pytest.raises(DomainError):
        parse_fit_params("model gamma\na0 abc\n")


def test_lm_follows_minpack_on_more_garbow_hillstrom_problems():
    # Four problems of Moré, Garbow & Hillstrom (ACM TOMS 7 (1981) 17)
    # from their standard starts: the minimum ||f||^2 they list, reached in
    # about as many evaluations as MINPACK's lmder needs at the same
    # tolerances (21, 25, 19 and 33 through scipy.optimize.least_squares).
    # Powell's badly scaled function needs the running-maximum scales D.
    def rosenbrock(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def rosenbrock_jac(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    def freudenstein_roth(x):
        return np.array([-13.0 + x[0] + ((5.0 - x[1]) * x[1] - 2.0) * x[1],
                         -29.0 + x[0] + ((x[1] + 1.0) * x[1] - 14.0) * x[1]])

    def freudenstein_roth_jac(x):
        return np.array([[1.0, 10.0 * x[1] - 3.0 * x[1] ** 2 - 2.0],
                         [1.0, 3.0 * x[1] ** 2 + 2.0 * x[1] - 14.0]])

    def powell_badly_scaled(x):
        return np.array([1e4 * x[0] * x[1] - 1.0, np.exp(-x[0]) + np.exp(-x[1]) - 1.0001])

    def powell_badly_scaled_jac(x):
        return np.array([[1e4 * x[1], 1e4 * x[0]], [-np.exp(-x[0]), -np.exp(-x[1])]])

    y = np.array([0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627,
                  0.0456, 0.0342, 0.0323, 0.0235, 0.0246])
    u = np.array([4.0, 2.0, 1.0, 0.5, 0.25, 0.167, 0.125, 0.1, 0.0833, 0.0714, 0.0625])

    def kowalik_osborne(x):
        return y - x[0] * (u * u + u * x[1]) / (u * u + u * x[2] + x[3])

    def kowalik_osborne_jac(x):
        num, den = u * u + u * x[1], u * u + u * x[2] + x[3]
        return np.column_stack([-num / den, -x[0] * u / den,
                                x[0] * num * u / den**2, x[0] * num / den**2])

    problems = (
        (rosenbrock, rosenbrock_jac, [-1.2, 1.0], 0.0, 21),
        (freudenstein_roth, freudenstein_roth_jac, [0.5, -2.0], 48.9842536, 25),
        (powell_badly_scaled, powell_badly_scaled_jac, [0.0, 1.0], 0.0, 19),
        (kowalik_osborne, kowalik_osborne_jac, [0.25, 0.39, 0.415, 0.39], 3.07505604e-4, 33),
    )
    for fun, jac, x0, minimum, minpack_nfev in problems:
        run = fitmodels.least_squares(lambda x: (fun(x), x), jac, x0)
        f = fun(run.x)
        assert run.status > 0, fun.__name__
        assert f @ f == pytest.approx(minimum, rel=1e-8, abs=1e-20), fun.__name__
        assert abs(run.nfev - minpack_nfev) <= 2, (fun.__name__, run.nfev)
        assert np.array_equal(run.jac, jac(run.x))


def test_lm_steps_within_the_range_of_a_rank_deficient_jacobian():
    # Parallel columns: the Gauss-Newton step leaves the null direction
    # alone, as MINPACK's does, and one step reaches the least-squares fit.
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    b = np.array([1.0, 2.0, 4.0])
    run = fitmodels.least_squares(lambda x: (a @ x - b, x), lambda x: a, [0.0, 0.0])
    assert (run.status, run.nfev) == (1, 2)
    assert run.x[0] + 2.0 * run.x[1] == pytest.approx(17.0 / 14.0, rel=1e-14)


def _refit(kind, data, depth):
    if kind == "gamma":
        return fit_gamma(data, n_label=depth)
    return fit_energy(data, ground_energy=data[0][1], n_label=depth)


@pytest.fixture(scope="module")
def refits(study):
    """Both refits at the four depths: data, report and every LM run's result."""
    original = fitmodels.least_squares
    runs = []

    def recording(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    found = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitmodels, "least_squares", recording)
        for depth, spectrum in study.spectra.items():
            records = study.gamma_tables[depth]
            for kind, data in (
                ("gamma", [(n, r.gamma) for n, r in enumerate(records) if n >= 3]),
                ("energy", [(n, float(e)) for n, e in enumerate(spectrum.energies)]),
            ):
                runs.clear()
                found[kind, depth] = (data, _refit(kind, data, depth), list(runs))
    return found


def test_refit_linear_coefficients_are_least_squares_optimum(refits):
    # The cost is linear least squares in (a0, a1) or (A0..A6) at a fixed
    # denominator, so its gradient along each basis column must vanish:
    # the column is orthogonal to the relative residuals.
    for (kind, depth), (data, report, _) in refits.items():
        p = report.params
        if kind == "gamma":
            n = np.array([k for k, _ in data], dtype=float)
            y = np.array([v for _, v in data])
            m = n - 2.0
            denom = np.sqrt(1.0 + p.b1**2 * m + p.b2**2 * m**2 + p.b3**2 * m**3 + p.b4**2 * m**4)
            columns = [m**i / denom for i in range(2)]
            model = np.array([gamma_fit_eval(p, k) for k in n])
        else:
            n = np.array([k for k, _ in data if k >= 1], dtype=float)
            y = np.array([v for k, v in data if k >= 1])
            m = n + 1.0
            denom = 1.0 + sum(getattr(p, "B%d" % j) ** 2 * m**j for j in range(1, 6))
            columns = [np.sqrt(m - 1.0) * m**i / denom for i in range(7)]
            model = np.array([energy_fit_eval(p, k) for k in n])
        rel = (model - y) / y
        assert np.max(np.abs(rel)) == pytest.approx(report.max_rel_error, rel=1e-6)
        for column in columns:
            weighted = column / y
            cosine = abs(weighted @ rel) / (np.linalg.norm(weighted) * np.linalg.norm(rel))
            assert cosine < 1e-8, (kind, depth, cosine)


def test_reported_errors_are_those_of_the_reported_params(refits):
    # the error written beside a parameter file is the error of those
    # parameters, evaluated with the public model functions
    for kind, model, first in (("gamma", gamma_fit_eval, 3), ("energy", energy_fit_eval, 1)):
        data, report, _ = refits[kind, 0.7]
        n = [k for k, _ in data if k >= first]
        y = np.array([v for k, v in data if k >= first])
        rel = np.abs(np.array([model(report.params, k) for k in n]) - y) / y
        assert report.max_rel_error == np.max(rel)
        assert report.rms_rel_error == pytest.approx(np.sqrt(np.mean(rel**2)), rel=1e-14)


def test_each_refit_is_one_converged_lm_run(refits):
    for (kind, depth), (_, report, runs) in refits.items():
        assert len(runs) == 1, (kind, depth)
        result = runs[0]
        assert result.status > 0, (kind, depth, result.status)
        assert result.nfev < fitmodels._MAX_NFEV, (kind, depth, result.nfev)
        assert report.converged
        assert report.iterations == result.nfev
        assert 1.0 < report.jacobian_cond < math.inf


def test_refit_out_of_evaluations_is_reported_unconverged(refits, monkeypatch):
    # A run cut off by the evaluation budget says so, and still reports the
    # errors of the parameters it returns.
    data, _, _ = refits["gamma", 0.0]
    monkeypatch.setattr(fitmodels, "_MAX_NFEV", 5)
    report = fit_gamma(data, n_label=0.0)
    assert report.converged is False
    assert report.iterations == 5
    y = np.array([g for _, g in data])
    rel = np.abs(np.array([gamma_fit_eval(report.params, n) for n, _ in data]) - y) / y
    assert report.max_rel_error == np.max(rel)


def test_gamma_params_do_not_depend_on_the_start(refits):
    # From the published parameters scaled by (1 + 0.05 z) the refit lands
    # on the same point: parameters spread by at most 7e-7 relative over
    # such starts.  The energy model has no such test: 51 levels do not
    # determine its parameters (its projected Jacobian's condition number is
    # about 1e10), so different starts end at different parameters with the
    # same errors.
    starts = (
        np.array([0.3, -1.2, 0.8, 1.5, -0.4, -0.9]),
        np.array([-1.1, 0.6, -0.2, -1.4, 1.0, 0.5]),
    )
    names = ("a0", "a1", "b1", "b2", "b3", "b4")
    for depth in sorted(PUBLISHED_GAMMA):
        data, report, _ = refits["gamma", depth]
        refit = np.array([getattr(report.params, name) for name in names])
        published = np.array([getattr(PUBLISHED_GAMMA[depth], name) for name in names])
        for z in starts:
            init = GammaFitParams(*(published * (1.0 + 0.05 * z)), N_label=depth)
            again = fit_gamma(data, init=init, n_label=depth)
            moved = np.array([getattr(again.params, name) for name in names])
            assert np.all(np.abs(moved - refit) <= 1e-5 * np.abs(refit)), (depth, z)


def test_refit_errors_stable_under_data_perturbation(refits):
    # A relative change of 1e-12 in the data, about the spread between BLAS
    # builds and thread counts, moved max_rel_error by at most 2.3e-7
    # relative over five random sign patterns; the bound leaves a margin of
    # forty.  Parameters are not compared: the energy model's are
    # ill-determined, and between BLAS thread counts its small denominator
    # coefficients differ by factors of up to seven.
    for (kind, depth), (data, report, _) in refits.items():
        moved = [(n, v * (1.0 + 1e-12 * (-1) ** n)) for n, v in data]
        again = _refit(kind, moved, depth)
        assert again.converged
        for name in ("max_rel_error", "rms_rel_error"):
            before, after = getattr(report, name), getattr(again, name)
            assert abs(after - before) <= 1e-5 * before, (kind, depth, name)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_level_index_is_a_typed_error(value):
    params = PUBLISHED_GAMMA[0.0]
    with pytest.raises(UnsupportedParameterError):
        gamma_fit_eval(params, value)
    with pytest.raises(UnsupportedParameterError):
        energy_fit_eval(published_energy_params(0.0, 0.5), value)
    data = [(n, gamma_fit_eval(params, n)) for n in range(3, 9)] + [(value, 0.1)]
    with pytest.raises(UnsupportedParameterError):
        fit_gamma(data)
