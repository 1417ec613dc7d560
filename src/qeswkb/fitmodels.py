"""Rational interpolation models for spectra and quantization corrections.

Two model shapes, each declared once as a ``_Model`` record of ``MODELS``
that the evaluator, the refit, the parameter-file format, the sample rule
(levels n >= ``lowest``), the residual rows and the published sets read:

* a correction model for the deviation gamma_n of exact levels from
  lowest-order quantization, valid for n >= 3,

      gamma(n) = (a0 + a1 m) / sqrt(1 + b1^2 m + b2^2 m^2 + b3^2 m^3 + b4^2 m^4),
      m = n - 2;

* an energy model pinned to the exact ground energy E0,

      E(n) = E0 m + sqrt(m - 1) (A0 + A1 m + ... + A6 m^6)
                               / (1 + B1^2 m + ... + B5^2 m^5),
      m = n + 1,

  whose large-n behaviour is (A6/B5^2) n^{3/2}.  The 51 levels of a
  study do not determine its parameters, only their errors: the projected
  Jacobian's condition number is about 1e10.

Denominator coefficients enter squared, which keeps both denominators
positive for every m > 0.  The published sets for the reduced sextic well
at four depth indices are bundled; E0 is not published (NaN).

Refits minimise the squared relative residuals.  Both models are linear
in their numerator coefficients once the denominator is fixed, so one
separable fitter serves both (variable projection; Golub & Pereyra,
SIAM J. Numer. Anal. 10 (1973) 413): at each trial denominator an SVD
of the weighted basis removes a0, a1 or A0..A6, and Levenberg-Marquardt
with the analytic projected Jacobian searches only the four or five
denominator coefficients, in one start from the nearest published set.
The Levenberg-Marquardt loop is MINPACK's lmder (Moré, Lecture Notes in
Mathematics 630 (1978) 105) written in NumPy, with its steps taken from an
SVD of the scaled Jacobian; the module imports nothing from SciPy.
"""

from dataclasses import dataclass, field, fields, make_dataclass, replace
from functools import cached_property
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ModelDomainError
from .potentials import _as_int

_MAX_NFEV = 20000
_TOL = 1e-14  # MINPACK's ftol, xtol and gtol
# Singular values at or below this fraction of the largest count as zero in
# the Gauss-Newton step, where MINPACK's pivoted QR counts exact zeros on
# the diagonal of R.
_RANK_TOL = 64 * sys.float_info.epsilon
_DWARF = sys.float_info.min  # MINPACK's dpmpar(2)


@dataclass(frozen=True)
class FitReport:
    params: object
    max_rel_error: float
    rms_rel_error: float
    iterations: int
    converged: bool
    jacobian_cond: float


@dataclass(frozen=True)
class _Model:
    """One rational model: at levels n >= lowest, with m = n + shift,
    offset + w (c0 + c1 m + ...) / (1 + b1^2 m + b2^2 m^2 + ...)^power, c and
    b the ``numer`` and ``denom`` fields of ``params``; offset 0 and w = 1,
    or, with the ground energy E0 ``held``, E0 m and sqrt(m - 1).

    ``params`` is made from the record: a frozen dataclass named
    ``<Kind>FitParams`` with the float fields held + numer + denom and
    ``N_label`` (NaN by default).  ``published`` is given as plain numbers,
    the numer and denom values keyed by depth index, and is stored as
    ``params`` sets with N_label the depth and the ``held`` fields NaN."""

    kind: str  # the `model` line of a parameter file
    shift: int
    lowest: int
    held: tuple
    numer: tuple
    denom: tuple
    power: float  # 1/2 or 1
    positive: bool  # whether refit samples must be positive
    published: dict
    params: type = field(init=False, repr=False)

    def __post_init__(self):
        names = self.held + self.numer + self.denom
        params = make_dataclass(
            self.kind.capitalize() + "FitParams",
            [(name, float) for name in names] + [("N_label", float, field(default=math.nan))],
            frozen=True)
        params.__module__ = __name__
        nans = (math.nan,) * len(self.held)
        published = {depth: params(*nans, *values, N_label=depth)
                     for depth, values in self.published.items()}
        vars(self).update(params=params, published=published)

    @cached_property
    def formula(self):
        """The model in (params, m), compiled once with its terms written out
        and summed left to right: it rounds and costs as if hand-expanded."""
        def term(name, j):
            return name if j == 0 else "%s * m" % name if j == 1 else "%s * m**%d" % (name, j)

        numer = " + ".join(term("p." + c, j) for j, c in enumerate(self.numer))
        denom = " + ".join(term("p.%s**2" % b, j) for j, b in enumerate(self.denom, 1))
        root = "math.sqrt" if self.power == 0.5 else ""
        value = "(%s) / %s(1.0 + (%s))" % (numer, root, denom)
        if self.held:
            value = "p.%s * m + math.sqrt(m - 1.0) * %s" % (self.held[0], value)
        return eval("lambda p, m: " + value, {"math": math})

    def index(self, n):
        """Shifted index m, a float, of level n: a non-integer level is an
        UnsupportedParameterError, one below ``lowest`` a ModelDomainError."""
        v = float(n)
        k = _as_int(abs(v), "level index")
        if (k if v >= 0.0 else -k) < self.lowest:
            raise ModelDomainError("%s model is defined for n >= %d" % (self.kind, self.lowest))
        return float(k + self.shift)

    def value(self, params, n):
        return self.formula(params, self.index(n))

    def published_params(self, n_label, held):
        """Published parameters at depth index n_label, with the ``held``
        values filled in; an unpublished depth is a DomainError."""
        if n_label not in self.published:
            raise DomainError("no published %s parameters for depth index %r"
                              % (self.kind, n_label))
        return replace(self.published[n_label], **dict(zip(self.held, map(float, held))))

    def samples(self, value, count):
        """Samples (n, value(n)) at the levels lowest..count - 1 of a
        count-level spectrum: the levels a refit and its residuals read."""
        return [(n, value(n)) for n in range(self.lowest, count)]

    def residual_rows(self, params, data):
        """Rows (n, y, model value, relative error) for (n, y) samples; the
        relative error of a zero y reads 0."""
        rows = []
        for n, y in data:
            fit = self.value(params, n)
            rows.append((n, y, fit, abs(fit - y) / abs(y) if y else 0.0))
        return rows

    def refit(self, data, held, init, n_label):
        """Refit to (n, y) samples from ``init``, the ``held`` values fixed;
        one sample per free parameter at least, counted after a held model
        drops its lowest level.  Without ``init`` the start is the published
        set of the depth nearest n_label, depth 0 without a finite label."""
        pairs = sorted((self.index(n), float(y)) for n, y in data)
        if self.held:  # exact at the lowest level, which is left out
            pairs = [(m, y) for m, y in pairs if m > self.lowest + self.shift]
        count = len(self.numer) + len(self.denom)
        if len(pairs) < count:
            raise DomainError("need at least %d samples for %d parameters" % (count, count))
        if self.positive and any(y <= 0.0 for _, y in pairs):
            raise DomainError("%s samples must be positive" % self.kind)
        if init is None:
            depth = 0.0
            if n_label is not None and math.isfinite(n_label):
                depth = min(self.published, key=lambda key: abs(key - n_label))
            init = self.published_params(depth, held)
        m, y = np.array(pairs).T
        basis = m[:, None] ** np.arange(float(len(self.numer)))
        offset = 0.0
        if self.held:
            basis = np.sqrt(m - 1.0)[:, None] * basis
            offset = held[0] * m
        b0 = [getattr(init, name) for name in self.denom]
        x, result = _fit_rational(y, m, basis, offset, self.power, b0)
        label = float(n_label) if n_label is not None else init.N_label
        params = self.params(*held, *x, N_label=label)
        # the errors reported are those of params themselves, as evaluated
        rel = np.abs(np.array([self.formula(params, mi) for mi in m.tolist()]) - y) / np.abs(y)
        return FitReport(params, max_rel_error=float(np.max(rel)),
                         rms_rel_error=float(np.sqrt(np.mean(rel**2))), iterations=result.nfev,
                         converged=result.status > 0, jacobian_cond=_scaled_cond(result.jac))


_GAMMA = _Model("gamma", shift=-2, lowest=3, held=(), numer=("a0", "a1"),
                denom=("b1", "b2", "b3", "b4"), power=0.5, positive=True, published={
    0.0: (0.019202, 0.0038722, 1.09402, 0.672026, 0.291328, 0.068666),
    0.25: (0.0332512, 0.0419986, 3.70908, 2.96296, 2.23779, 0.749137),
    0.5: (0.0469388, 0.0656, 5.57123, 4.45283, 3.46547, 1.17011),
    0.7: (0.041918, 0.0622568, 5.08444, 4.17168, 3.26907, 1.11086),
})
_ENERGY = _Model("energy", shift=1, lowest=0, held=("E0",),
                 numer=("A0", "A1", "A2", "A3", "A4", "A5", "A6"),
                 denom=("B1", "B2", "B3", "B4", "B5"), power=1.0, positive=False, published={
    0.0: (-303.678, -13.8988, 185.841, 22.0053, 13.4821, 0.777246,
          1.06539, 16.0303, 4.22639, 3.82635, 1.17858, 0.969174),
    0.25: (-2961.78, 407.572, 687.568, 684.966, -1.90414, 0.755926,
           1.06975, 40.1137, 22.2057, 3.02188, 0.936421, 0.967749),
    0.5: (-4024.34, 1776.87, 553.412, 210.095, 13.202, 1.7131,
          1.07253, 37.9358, 5.64541, 5.36947, 1.09358, 0.965024),
    0.7: (-6563.79, 3617.77, 25.2448, 443.209, 20.7142, 2.55102,
          1.07404, 40.0919, 11.9183, 6.51999, 1.18494, 0.962401),
})
MODELS = {model.kind: model for model in (_GAMMA, _ENERGY)}
# The parameter types set their __module__ to this module, so pickle finds
# them here by name.
GammaFitParams = _GAMMA.params
EnergyFitParams = _ENERGY.params
# Read by the benchmark's quantize workload.
PUBLISHED_GAMMA = _GAMMA.published


def gamma_fit_eval(params, n):
    """Correction model value at integer level n >= 3; ``MODELS["gamma"].value``
    under the name the benchmark's quantize workload calls."""
    return _GAMMA.value(params, n)


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


def _fit_rational(y, m, basis, offset, exponent, b0):
    """Separable least squares for the rational shape

        y ~ offset + (basis @ c) / (1 + b1^2 m + ... + bk^2 m^k)^exponent

    on the relative residuals (model - y) / y, with c projected out.  One
    Levenberg-Marquardt run (``least_squares``) from b = b0.  Returns
    (c, |b|) as one array and the run's result.
    """
    powers = m[:, None] ** np.arange(1.0, len(b0) + 1.0)
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

    result = least_squares(evaluate, jacobian, b0)
    _, _, _, s, vt, ut, _ = result.state
    return np.concatenate([vt.T @ (ut / s), np.abs(result.x)]), result


def _scaled_cond(jac):
    """2-norm condition number of ``jac`` with its columns scaled to unit norm."""
    norms = np.linalg.norm(jac, axis=0)
    return float(np.linalg.cond(jac / np.where(norms > 0.0, norms, 1.0)))


def fit_gamma(data, init=None, n_label=None):
    """Refit the correction model to (n, gamma) samples; ``MODELS["gamma"].refit``
    under the name the benchmark's refit workload calls.

    Searches the four denominator coefficients with a0 and a1 projected
    out, in one start from the published parameters (or ``init``); see
    _fit_rational.
    """
    return _GAMMA.refit(data, (), init, n_label)


def format_fit_params(params):
    """Flat text rendering of a parameter set, one `name value` pair per line."""
    for kind, model in MODELS.items():
        if isinstance(params, model.params):
            break
    else:
        raise DomainError("unknown parameter set type %r" % type(params).__name__)
    lines = ["model %s" % kind]
    lines.extend("%s %.17g" % (f.name, getattr(params, f.name)) for f in fields(params))
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
    if kind not in MODELS:
        raise DomainError("parameter text must declare `model gamma` or `model energy`")
    names = [f.name for f in fields(MODELS[kind].params)]
    missing = [name for name in names if name not in entries]
    if missing:
        raise DomainError("missing parameter fields: %s" % ", ".join(missing))
    extra = [name for name in entries if name not in names]
    if extra:
        raise DomainError("unknown parameter fields: %s" % ", ".join(extra))
    return MODELS[kind].params(**{name: entries[name] for name in names})
