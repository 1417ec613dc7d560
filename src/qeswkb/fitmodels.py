"""Rational interpolation models for spectra and quantization corrections.

Two fixed model shapes are implemented:

* a correction model for the deviation gamma_n of exact levels from
  lowest-order quantization, valid for n >= 3,

      gamma(n) = (a0 + a1 m) / sqrt(1 + b1^2 m + b2^2 m^2 + b3^2 m^3 + b4^2 m^4),
      m = n - 2;

* an energy model pinned to the exact ground energy E0,

      E(n) = E0 m + sqrt(m - 1) (A0 + A1 m + ... + A6 m^6)
                               / (1 + B1^2 m + ... + B5^2 m^5),
      m = n + 1,

  whose large-n behaviour is (A6/B5^2) n^{3/2}.

Denominator coefficients enter squared, which keeps both denominators
positive for every m > 0.  Reference parameter sets for the reduced
sextic well at four depth indices are bundled.

Refits minimise the squared relative residuals.  Both models are linear
in their numerator coefficients once the denominator is fixed, so one
separable fitter serves both (variable projection; Golub & Pereyra,
SIAM J. Numer. Anal. 10 (1973) 413): at each trial denominator an SVD
of the weighted basis removes a0, a1 or A0..A6, and Levenberg-Marquardt
with the analytic projected Jacobian searches only the four or five
denominator coefficients, in one start from the published parameters.
The Levenberg-Marquardt loop is MINPACK's lmder (Moré, Lecture Notes in
Mathematics 630 (1978) 105) written in NumPy, with its steps taken from an
SVD of the scaled Jacobian; the module imports nothing from SciPy.
"""

from dataclasses import dataclass, fields
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ModelDomainError, UnsupportedParameterError
from .potentials import _as_int


def _level_index(n):
    """Coerce an integer level index, leaving range checks to the model."""
    v = float(n)
    if not math.isfinite(v) or abs(v - round(v)) > 1e-12:
        raise UnsupportedParameterError(f"level index must be an integer, got {n!r}")
    return int(round(v))

_MAX_NFEV = 20000
_TOL = 1e-14  # MINPACK's ftol, xtol and gtol
# Singular values at or below this fraction of the largest count as zero in
# the Gauss-Newton step, where MINPACK's pivoted QR counts exact zeros on
# the diagonal of R.
_RANK_TOL = 64 * sys.float_info.epsilon
_DWARF = sys.float_info.min  # MINPACK's dpmpar(2)


@dataclass(frozen=True)
class GammaFitParams:
    a0: float
    a1: float
    b1: float
    b2: float
    b3: float
    b4: float
    N_label: float = math.nan


@dataclass(frozen=True)
class EnergyFitParams:
    E0: float
    A0: float
    A1: float
    A2: float
    A3: float
    A4: float
    A5: float
    A6: float
    B1: float
    B2: float
    B3: float
    B4: float
    B5: float
    N_label: float = math.nan


@dataclass(frozen=True)
class FitReport:
    params: object
    max_rel_error: float
    rms_rel_error: float
    iterations: int
    converged: bool
    jacobian_cond: float


PUBLISHED_GAMMA = {
    0.0: GammaFitParams(0.019202, 0.0038722, 1.09402, 0.672026, 0.291328, 0.068666, 0.0),
    0.25: GammaFitParams(0.0332512, 0.0419986, 3.70908, 2.96296, 2.23779, 0.749137, 0.25),
    0.5: GammaFitParams(0.0469388, 0.0656, 5.57123, 4.45283, 3.46547, 1.17011, 0.5),
    0.7: GammaFitParams(0.041918, 0.0622568, 5.08444, 4.17168, 3.26907, 1.11086, 0.7),
}

# Numerator/denominator columns of the published energy interpolations.
# The exact ground energy is not part of the published tables; it must be
# supplied from the eigensolver when constructing usable parameters.
_PUBLISHED_ENERGY_AB = {
    0.0: (
        (-303.678, -13.8988, 185.841, 22.0053, 13.4821, 0.777246, 1.06539),
        (16.0303, 4.22639, 3.82635, 1.17858, 0.969174),
    ),
    0.25: (
        (-2961.78, 407.572, 687.568, 684.966, -1.90414, 0.755926, 1.06975),
        (40.1137, 22.2057, 3.02188, 0.936421, 0.967749),
    ),
    0.5: (
        (-4024.34, 1776.87, 553.412, 210.095, 13.202, 1.7131, 1.07253),
        (37.9358, 5.64541, 5.36947, 1.09358, 0.965024),
    ),
    0.7: (
        (-6563.79, 3617.77, 25.2448, 443.209, 20.7142, 2.55102, 1.07404),
        (40.0919, 11.9183, 6.51999, 1.18494, 0.962401),
    ),
}


def published_energy_params(n_label, ground_energy):
    """Published energy-model columns combined with a computed ground energy."""
    if n_label not in _PUBLISHED_ENERGY_AB:
        raise DomainError(
            "no published energy parameters for depth index %r" % (n_label,)
        )
    numer, denom = _PUBLISHED_ENERGY_AB[n_label]
    return EnergyFitParams(float(ground_energy), *numer, *denom, N_label=float(n_label))


def _nearest_published(n_label, table):
    """Key of ``table`` nearest to n_label; depth 0 when there is no label."""
    if n_label is None or not math.isfinite(n_label):
        return 0.0
    return min(table, key=lambda key: abs(key - n_label))


def gamma_fit_eval(params, n):
    """Correction model value at integer level n >= 3."""
    n = _level_index(n)
    if n < 3:
        raise ModelDomainError(
            "correction model is defined for n >= 3 (shifted index must be positive)"
        )
    m = float(n - 2)
    numer = params.a0 + params.a1 * m
    denom = 1.0 + (
        params.b1**2 * m
        + params.b2**2 * m**2
        + params.b3**2 * m**3
        + params.b4**2 * m**4
    )
    return numer / math.sqrt(denom)


def energy_fit_eval(params, n):
    """Energy model value at integer level n >= 0; exact E0 at n = 0."""
    n = _level_index(n)
    if n < 0:
        raise ModelDomainError("energy model is defined for n >= 0")
    m = float(n + 1)
    numer = (
        params.A0
        + params.A1 * m
        + params.A2 * m**2
        + params.A3 * m**3
        + params.A4 * m**4
        + params.A5 * m**5
        + params.A6 * m**6
    )
    denom = 1.0 + (
        params.B1**2 * m
        + params.B2**2 * m**2
        + params.B3**2 * m**3
        + params.B4**2 * m**4
        + params.B5**2 * m**5
    )
    return params.E0 * m + math.sqrt(m - 1.0) * numer / denom


def asymptotic_coefficient():
    """Leading large-n energy coefficient of the reduced sextic well.

    The pure sextic growth fixes E_n -> C n^{3/2} with
    C = (1/2) pi^{3/4} (Gamma(5/3)/Gamma(7/6))^{3/2}.
    """
    return 0.5 * math.pi**0.75 * (math.gamma(5.0 / 3.0) / math.gamma(7.0 / 6.0)) ** 1.5


class _LMResult(NamedTuple):
    """One ``least_squares`` run: the last accepted point, ``evaluate``'s
    state and the Jacobian there, the evaluation count and the status."""

    x: np.ndarray
    state: object
    jac: np.ndarray
    nfev: int
    status: int


def _lm_parameter(s, g, delta, par):
    """MINPACK's lmpar on the singular values s of the scaled Jacobian.

    With g = U^T f, the step of parameter par in scaled coordinates is
    V w, w_i = s_i g_i / (s_i^2 + par).  Returns par = 0 with the
    Gauss-Newton step when its length is at most 1.1 delta; otherwise par
    from safeguarded Newton steps on 1/||w|| - 1/delta (Hebden), within 10 %
    of ||w|| = delta or after ten steps.  Returns (par, w, ||w||).
    """
    cut = s[0] * _RANK_TOL
    w = [gi / si if si > cut else 0.0 for si, gi in zip(s, g)]
    norm = math.hypot(*w)
    fp = norm - delta
    if fp <= 0.1 * delta:
        return 0.0, w, norm
    sg = [si * gi for si, gi in zip(s, g)]
    s2 = [si * si for si in s]
    low = 0.0
    if s[-1] > cut:
        low = fp / delta * norm * norm / sum([(wi / si) ** 2 for wi, si in zip(w, s)])
    gnorm = math.hypot(*sg)
    high = gnorm / delta or _DWARF / min(delta, 0.1)
    par = min(max(par, low), high) or gnorm / norm
    for step in range(1, 11):
        if par == 0.0:
            par = max(_DWARF, 0.001 * high)
        w = [sgi / (si2 + par) for sgi, si2 in zip(sg, s2)]
        norm = math.hypot(*w)
        last, fp = fp, norm - delta
        if abs(fp) <= 0.1 * delta or (low == 0.0 and fp <= last < 0.0) or step == 10:
            return par, w, norm
        if fp > 0.0:
            low = max(low, par)
        else:
            high = min(high, par)
        slope = sum([wi * wi / (si2 + par) for wi, si2 in zip(w, s2)])
        par = max(low, par + fp / delta * norm * norm / slope)


def least_squares(evaluate, jacobian, x0):
    """Minimise ||f(x)|| by MINPACK's lmder (Moré, LNM 630 (1978) 105).

    ``evaluate(x)`` returns (f, state) and ``jacobian(state)`` the Jacobian
    of f there; it is formed only at accepted points.  The trust region is
    Moré's: scales D, the running maximum of the Jacobian's column norms, a
    first radius of 100 ||D x0||, and radius and damping updated by the
    0.25/0.75 rules on the ratio of actual to predicted reduction.  Each
    step comes from one SVD of the column-scaled Jacobian J D^-1 per
    accepted point (``_lm_parameter``); the loop itself works on Python
    floats.  ``status`` follows scipy's ``least_squares``: 1 gradient,
    2 reduction, 3 step, 4 reduction and step below ``_TOL``; 0 when
    ``_MAX_NFEV`` evaluations ran out.
    """
    x = np.array(x0, dtype=float)
    f, state = evaluate(x)
    fnorm = math.sqrt(f @ f)
    nfev, par, scale, first = 1, 0.0, None, True
    while True:
        jac = jacobian(state)
        jac_state = state
        colnorm = np.sqrt(np.einsum("ij,ij->j", jac, jac)).tolist()
        if scale is None:
            scale = [c or 1.0 for c in colnorm]
            xnorm = math.hypot(*[d * xj for d, xj in zip(scale, x.tolist())])
            delta = 100.0 * xnorm or 100.0
        grad = (f @ jac).tolist()
        gnorm = max([abs(gj) / cj for gj, cj in zip(grad, colnorm) if cj > 0.0],
                    default=0.0) / fnorm if fnorm > 0.0 else 0.0
        if gnorm <= _TOL:
            status = 1
            break
        scale = [c if c > d else d for d, c in zip(scale, colnorm)]
        d = np.array(scale)
        u, s, vt = np.linalg.svd(jac / d, full_matrices=False)
        s, g, steps = s.tolist(), (f @ u).tolist(), vt / d
        while True:
            par, w, pnorm = _lm_parameter(s, g, delta, par)
            if first:
                delta = min(delta, pnorm)
            trial = x - np.dot(w, steps)
            f1, state1 = evaluate(trial)
            fnorm1 = math.sqrt(f1 @ f1)
            nfev += 1
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            temp1 = math.hypot(*[si * wi for si, wi in zip(s, w)]) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1 * temp1 + 2.0 * temp2 * temp2
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio > 0.25:
                if par == 0.0 or ratio >= 0.75:
                    delta = pnorm / 0.5
                    par *= 0.5
            else:
                if actred >= 0.0:
                    temp = 0.5
                else:
                    dirder = -(temp1 * temp1 + temp2 * temp2)
                    temp = 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            if ratio >= 1e-4:
                x, f, state, fnorm, first = trial, f1, state1, fnorm1, False
                xnorm = math.hypot(*[dj * xj for dj, xj in zip(scale, x.tolist())])
            small_f = abs(actred) <= _TOL and prered <= _TOL and 0.5 * ratio <= 1.0
            small_x = delta <= _TOL * xnorm
            status = 4 if small_f and small_x else 2 if small_f else 3 if small_x else 0
            if status or nfev >= _MAX_NFEV or ratio >= 1e-4:
                break
        if status or nfev >= _MAX_NFEV:
            break
    if jac_state is not state:
        jac = jacobian(state)
    return _LMResult(x, state, jac, nfev, status)


def _fit_rational(y, m, basis, offset, degree, exponent, x0):
    """Separable least squares for the rational shape

        y ~ offset + (basis @ c) / (1 + b1^2 m + ... + bk^2 m^k)^exponent,

    k = degree, on the relative residuals (model - y) / y, with c projected
    out.  One Levenberg-Marquardt run (``least_squares``) from the b part of
    x0 = (c, b).  Returns (c, |b|) as one array and the run's result.
    """
    powers = m[:, None] ** np.arange(1.0, degree + 1.0)
    weighted = basis / y[:, None]
    target = 1.0 - offset / y

    def evaluate(b):
        # An SVD of the design gives an orthonormal basis u of its columns,
        # the fit u u^T target, and at the end c = v s^-1 u^T target.
        denom = 1.0 + powers @ (b * b)
        u, s, vt = np.linalg.svd(weighted * (denom**-exponent)[:, None], full_matrices=False)
        ut = u.T @ target
        fit = u @ ut
        return fit - target, (b, denom, u, s, vt, ut, fit)

    def jacobian(state):
        # The design scales by g_j = -2 exponent b_j m^j / D along b_j, so the
        # derivative of the projected residual fit - target is
        # P_perp (g_j fit) - U U^T (g_j (fit - target)).  Kaufman's variant
        # drops the second term; without it depth-0 energy starts hit _MAX_NFEV.
        b, denom, u, _, _, _, fit = state
        g = (-2.0 * exponent * b) * powers / denom[:, None]
        return g * fit[:, None] - u @ (u.T @ (g * (fit + fit - target)[:, None]))

    x0 = np.asarray(x0, dtype=float)
    result = least_squares(evaluate, jacobian, x0[basis.shape[1]:])
    _, _, _, s, vt, ut, _ = result.state
    return np.concatenate([vt.T @ (ut / s), np.abs(result.x)]), result


def _scaled_cond(jac):
    """2-norm condition number of ``jac`` with its columns scaled to unit norm."""
    norms = np.linalg.norm(jac, axis=0)
    return float(np.linalg.cond(jac / np.where(norms > 0.0, norms, 1.0)))


def _report(params, model, n_fit, y, result):
    """FitReport whose errors are those of ``params`` themselves: the model
    evaluated at them over the fitted levels ``n_fit``, against ``y``."""
    fitted = np.array([model(params, n) for n in n_fit])
    rel = np.abs(fitted - y) / np.abs(y)
    return FitReport(
        params=params,
        max_rel_error=float(np.max(rel)),
        rms_rel_error=float(np.sqrt(np.mean(rel**2))),
        iterations=result.nfev,
        converged=result.status > 0,
        jacobian_cond=_scaled_cond(result.jac),
    )


def fit_gamma(data, init=None, n_label=None):
    """Refit the correction model to (n, gamma) samples.

    Searches the four denominator coefficients with a0 and a1 projected
    out, in one start from the published parameters (or ``init``); see
    _fit_rational.
    """
    pairs = sorted((_as_int(n, "level index"), float(g)) for n, g in data)
    if len(pairs) < 6:
        raise DomainError("need at least six samples to determine six parameters")
    if pairs[0][0] < 3:
        raise ModelDomainError("correction samples must have n >= 3")
    if any(g <= 0.0 for _, g in pairs):
        raise DomainError("correction samples must be positive")
    n_arr = np.array([n for n, _ in pairs], dtype=float)
    g_arr = np.array([g for _, g in pairs])
    m = n_arr - 2.0
    if init is None:
        init = PUBLISHED_GAMMA[_nearest_published(n_label, PUBLISHED_GAMMA)]
    x0 = [getattr(init, name) for name in _GAMMA_FIELDS[:-1]]
    basis = np.stack([np.ones_like(m), m], axis=1)
    x, result = _fit_rational(g_arr, m, basis, 0.0, 4, 0.5, x0)
    label = float(n_label) if n_label is not None else init.N_label
    params = GammaFitParams(*x, N_label=label)
    return _report(params, gamma_fit_eval, n_arr, g_arr, result)


def fit_energy(data, ground_energy, init=None, n_label=None):
    """Refit the energy model to (n, E) samples with E0 held fixed.

    The ground energy is exact by construction (the model pins n = 0), so
    the fit runs over the five denominator coefficients with A0..A6
    projected out, in one start from the published parameters (or
    ``init``).  The 51 levels of a study do not determine these
    parameters, only their errors: the projected Jacobian's condition
    number is about 1e10.
    """
    pairs = sorted((_as_int(n, "level index"), float(e)) for n, e in data)
    if len(pairs) < 12:
        raise DomainError("need at least twelve samples to determine twelve parameters")
    e0 = float(ground_energy)
    n_arr = np.array([n for n, _ in pairs], dtype=float)
    e_arr = np.array([e for _, e in pairs])
    keep = n_arr >= 1.0
    m = n_arr[keep] + 1.0
    if init is None:
        init = published_energy_params(_nearest_published(n_label, _PUBLISHED_ENERGY_AB), e0)
    x0 = [getattr(init, name) for name in _ENERGY_FIELDS[1:-1]]
    basis = np.sqrt(m - 1.0)[:, None] * m[:, None] ** np.arange(7.0)
    x, result = _fit_rational(e_arr[keep], m, basis, e0 * m, 5, 1.0, x0)
    label = float(n_label) if n_label is not None else init.N_label
    params = EnergyFitParams(e0, *x, N_label=label)
    return _report(params, energy_fit_eval, n_arr[keep], e_arr[keep], result)


_GAMMA_FIELDS = tuple(f.name for f in fields(GammaFitParams))
_ENERGY_FIELDS = tuple(f.name for f in fields(EnergyFitParams))
# Model kind -> (parameter type, field names), as the `model` line names it.
_MODELS = {"gamma": (GammaFitParams, _GAMMA_FIELDS), "energy": (EnergyFitParams, _ENERGY_FIELDS)}


def format_fit_params(params):
    """Flat text rendering of a parameter set, one `name value` pair per line."""
    for kind, (cls, names) in _MODELS.items():
        if isinstance(params, cls):
            break
    else:
        raise DomainError("unknown parameter set type %r" % type(params).__name__)
    lines = ["model %s" % kind]
    lines.extend("%s %.17g" % (name, getattr(params, name)) for name in names)
    return "\n".join(lines) + "\n"


def parse_fit_params(text):
    """Inverse of format_fit_params."""
    entries = {}
    kind = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.partition(" ")
        if not value:
            raise DomainError("malformed parameter line %r" % raw)
        if name == "model":
            kind = value.strip()
            continue
        try:
            entries[name] = float(value)
        except ValueError:
            raise DomainError(
                "parameter %s has non-numeric value %r" % (name, value.strip())
            ) from None
    if kind not in _MODELS:
        raise DomainError("parameter text must declare `model gamma` or `model energy`")
    cls, names = _MODELS[kind]
    missing = [name for name in names if name not in entries]
    if missing:
        raise DomainError("missing parameter fields: %s" % ", ".join(missing))
    extra = [name for name in entries if name not in names]
    if extra:
        raise DomainError("unknown parameter fields: %s" % ", ".join(extra))
    return cls(**{name: entries[name] for name in names})
