"""Potential families for the one-dimensional Schrodinger problem H = -1/2 d^2/dx^2 + V(x).

Provides immutable specifications of the supported potentials (the sextic
well, of which the reduced one is a special case, the exponential
Morse well, even polynomial oracles, and first-order factorization
partners), together with pointwise evaluation and ``build_spec``, the one spec parser: it builds a spec from a
family name and field values, as the CLI's flags and config files give them.

``GaugeState`` is an exact state u = Gamma(x) p(z) of a sextic or Morse
well: the exact levels of ``qes_algebra`` and the seeds of ``SusyPartner``
are both gauge states.  Its one derivative chain, the family's recurrence
(``sextic_chain`` or ``morse_chain``), gives both the state's derivatives
and a seed's log-derivatives.

Each spec derives and checks its constants once, in its constructor.
Every even well (``SexticGeneral``, which ``SexticReduced`` returns at
nu = mu = 1, and ``EvenPolynomial``) exposes its potential as ``coeffs``,
the ascending coefficients of V in x^2, and ``EVEN_WELLS`` names those
types once: one evaluator serves all of them, as does ``wkb``'s one
turning-point rule.  A ``Morse`` spec carries its constants and
``bound_count``, which no other module recomputes.

Units are atomic throughout (hbar = m = 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, RangeOverflowError, SeedError, UnsupportedParameterError

__all__ = [
    "SexticReduced",
    "SexticGeneral",
    "Morse",
    "EvenPolynomial",
    "GaugeState",
    "SusyPartner",
    "PotentialSpec",
    "evaluate",
    "EVEN_WELLS",
    "seed_log_derivatives",
    "susy_partner_closed_form",
    "build_spec",
]


def _as_int(value, what):
    """Coerce a value that must be a non-negative integer."""
    v = float(value)
    r = round(v) if math.isfinite(v) else None
    if r is None or abs(v - r) > 1e-12 or r < 0:
        raise UnsupportedParameterError(f"{what} must be a non-negative integer, got {value!r}")
    return int(r)


# ---------------------------------------------------------------------------
# potential specifications
# ---------------------------------------------------------------------------

def _even_coeffs(coeffs):
    """Ascending x^2-coefficients of an even well, checked: all finite, the leading one positive."""
    if not all(map(math.isfinite, coeffs)):
        raise DomainError(f"potential coefficients {coeffs} must be finite")
    if coeffs[-1] <= 0:
        raise DomainError("leading coefficient must be positive (confining potential)")
    return coeffs


@dataclass(frozen=True)
class SexticGeneral:
    """Two-parameter sextic well V(x) = (nu^2 x^6 + 2 nu mu x^4 + (mu^2 - (4N+3) nu) x^2) / 2.

    At non-negative integer N the lowest N+1 even states are polynomially
    solvable.  Its ``coeffs`` are checked as ``EvenPolynomial``'s are.
    """

    nu: float
    mu: float
    N: float

    def __post_init__(self):
        nu, mu = self.nu, self.mu
        if not 0 < nu < math.inf:
            raise DomainError(f"nu must be positive and finite, got {nu}")
        coeffs = (0.0, 0.5 * (mu * mu - (4.0 * self.N + 3.0) * nu), nu * mu, 0.5 * nu * nu)
        object.__setattr__(self, "coeffs", _even_coeffs(coeffs))


def SexticReduced(N):
    """Reduced sextic well V(x) = (x^6 + 2 x^4 - 2 (2N+1) x^2) / 2: ``SexticGeneral(1, 1, N)``.

    The continuous parameter N controls the depth of the two symmetric wells.
    """
    return SexticGeneral(1.0, 1.0, N)


@dataclass(frozen=True)
class Morse:
    """Exponential well V(x) = (a^2 z^2 - a c1 z + beta^2) / 2, z = exp(-alpha x).

    It has beta = N alpha + b and c1 = 2b + alpha (2N+1), tends to
    ``v_inf`` = beta^2 / 2 as x -> +inf, has its bottom ``v_min`` =
    (beta^2 - c1^2 / 4) / 2 at z = c1 / (2a), and holds ``bound_count``
    levels, those with n < beta / alpha.  These attributes are not fields,
    so repr and equality ignore them; DomainError is raised unless they,
    a^2, a c1 and beta / alpha are finite.
    """

    a: float
    b: float
    alpha: float
    N: float

    def __post_init__(self):
        a, b, alpha = self.a, self.b, self.alpha
        if not (0 < a < math.inf and 0 < alpha < math.inf):
            raise DomainError("a and alpha must be positive and finite")
        beta = self.N * alpha + b
        c1 = 2.0 * b + alpha * (2.0 * self.N + 1.0)
        v_inf = 0.5 * beta * beta
        v_min = 0.5 * (beta * beta - 0.25 * c1 * c1)
        ratio = beta / alpha
        if not all(map(math.isfinite, (beta, c1, v_inf, v_min, a * a, a * c1, ratio))):
            raise DomainError(f"{self} has a derived constant that is not finite")
        count = int(math.floor(ratio - 1e-12)) + 1 if ratio > 0 else 0
        vars(self).update(beta=beta, c1=c1, v_inf=v_inf, v_min=v_min, bound_count=count)


@dataclass(frozen=True)
class EvenPolynomial:
    """Even polynomial potential V(x) = sum_i coeffs[i] * x^(2i), confining
    (of degree 2 or more in x, with a positive leading coefficient)."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) < 2:
            raise DomainError(f"coeffs {coeffs} must hold at least two terms: a constant potential does not confine")
        object.__setattr__(self, "coeffs", _even_coeffs(coeffs))


# ---------------------------------------------------------------------------
# exact states and factorization partners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeState:
    """Exact state u(x) = Gamma(x) p(z) of a sextic or Morse well.

    ``poly`` holds the ascending coefficients of p in the algebraic variable
    z; the well fixes z and the gauge factor Gamma:
    z = x^2 and Gamma = exp(-nu x^4/4 - mu x^2/2) for a sextic well,
    z = exp(-alpha x) and Gamma = exp(-(a/alpha) z - b x) for a Morse well.
    """

    well: "PotentialSpec"
    poly: tuple

    def __post_init__(self):
        if not isinstance(self.well, (SexticGeneral, Morse)):
            raise DomainError(f"no gauge factor for potential family {type(self.well).__name__!r}")
        if not self.poly or self.poly[-1] == 0.0:
            raise SeedError("state polynomial must have a nonzero leading coefficient")

    @functools.cached_property
    def _polys(self):
        """Coefficients of S_0..S_3 in the chain variable (x or z)."""
        w = self.well
        if isinstance(w, Morse):
            return morse_chain(np.asarray(self.poly, dtype=float), w.a, w.b, w.alpha)
        return sextic_chain(self.poly, w.nu, w.mu)

    def _chain(self, x, order):
        """log Gamma and S_0..S_order at the points x, with d^k u/dx^k = Gamma S_k.

        For a Morse well, points left of where z^(deg p + 3) would overflow
        raise :class:`RangeOverflowError`.
        """
        x = _check_x(x)
        w = self.well
        if isinstance(w, Morse):
            safe = 600.0 / (len(self.poly) + 2)
            if np.any(-w.alpha * x > safe):
                raise RangeOverflowError(
                    "gauge factor overflows left of x = %.3f; restrict the grid" % (-safe / w.alpha)
                )
            arg = np.exp(-w.alpha * x)
            log_gauge = -(w.a / w.alpha) * arg - w.b * x
        else:
            arg = x
            log_gauge = -0.25 * w.nu * x**4 - 0.5 * w.mu * x * x
        return log_gauge, [npoly.polyval(arg, c) for c in self._polys[: order + 1]]

    def derivatives(self, x, order=2):
        """The state and its x-derivatives up to ``order`` (max 3) at the points x."""
        if order < 0 or order > 3:
            raise DomainError("derivative order must lie in 0..3")
        log_gauge, values = self._chain(x, order)
        gauge = np.exp(log_gauge)
        return tuple(gauge * s for s in values)


@dataclass(frozen=True)
class SusyPartner:
    """Partner potential V1(x) = V0(x) - (ln u)''(x) of a nodeless exact state u of V0."""

    seed: GaugeState

    @property
    def base(self):
        """The well V0 that the seed solves."""
        return self.seed.well


PotentialSpec = Union[SexticGeneral, Morse, EvenPolynomial, SusyPartner]

EVEN_WELLS = (SexticGeneral, EvenPolynomial)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_x(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("x must be finite")
    return x


def _eval_morse(spec, x):
    z = np.exp(-spec.alpha * x)
    beta = spec.beta
    return 0.5 * (spec.a * spec.a * z * z - spec.a * spec.c1 * z + beta * beta)


def _eval_even_poly(spec, x):
    # Horner in u = x^2 that skips zero coefficients: the sextic costs three
    # multiplies, and its zero constant term keeps the sign of V(0) = -0.
    u = x * x
    *lower, v = spec.coeffs
    for c in reversed(lower):
        v = v * u + c if c else v * u
    return v


def _partner_values(seed, x):
    """V0, the seed chain (W, W', W'') and the partner V1 = V0 - W' at the points x."""
    base_v = evaluate(seed.well, x)
    chain = seed_log_derivatives(seed, x)
    return base_v, chain, base_v - chain[1]


def _eval_partner(spec, x):
    return _partner_values(spec.seed, x)[2]


_EVALUATORS = {kind: _eval_even_poly for kind in EVEN_WELLS}
_EVALUATORS.update({Morse: _eval_morse, SusyPartner: _eval_partner})


def evaluate(spec, x):
    """Evaluate V(x) for any potential spec; accepts scalars or arrays."""
    try:
        fn = _EVALUATORS[type(spec)]
    except KeyError:
        raise UnsupportedParameterError(f"unknown potential spec {type(spec).__name__}") from None
    xa = _check_x(x)
    out = fn(spec, xa)
    if np.ndim(x) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# derivative chains and seed log-derivatives
# ---------------------------------------------------------------------------

def sextic_chain(poly_z, nu, mu, orders=3):
    """Ascending x-coefficients of S_0..S_orders, with d^k/dx^k [Gamma P(x^2)] = Gamma S_k.

    ``poly_z`` holds the ascending coefficients of P in z = x^2, and the
    gauge factor is Gamma = exp(g), g = -nu x^4/4 - mu x^2/2, so that
    S_0 = P(x^2) and S_{k+1} = g' S_k + S_k'.
    """
    cur = np.zeros(2 * len(poly_z) - 1)
    cur[::2] = poly_z
    gprime = np.array([0.0, -mu, 0.0, -nu])
    chain = [cur]
    for _ in range(orders):
        nxt = np.convolve(gprime, cur)
        nxt[: len(cur) - 1] += cur[1:] * np.arange(1, len(cur))
        cur = nxt
        chain.append(cur)
    return chain


def morse_chain(poly_z, a, b, alpha, orders=3):
    """Ascending z-coefficients of S_0..S_orders, with d^k/dx^k [Gamma P(z)] = Gamma S_k.

    Here z = exp(-alpha x) and Gamma = exp(-(a/alpha) z - b x), so
    d/dx (Gamma S) = Gamma ((a z - b) S - alpha z S'): each derivative
    stays a polynomial in z, one degree higher.
    """
    cur = np.asarray(poly_z, dtype=float)
    chain = [cur]
    for _ in range(orders):
        nxt = np.convolve([-b, a], cur)
        nxt[:-1] += -alpha * (np.arange(len(cur)) * cur)
        cur = nxt
        chain.append(cur)
    return chain


def seed_log_derivatives(seed, x):
    """Closed-form chain W = (ln u)', W' and W'' of a seed ``GaugeState`` at the points x.

    Computed from ratios of the derivative polynomials of u, which avoids
    evaluating the (rapidly decaying) gauge factor altogether:
    W = u'/u, W' = u''/u - W^2, W'' = u'''/u - 3 (u''/u) W + 2 W^3.
    """
    _, (s0, s1, s2, s3) = seed._chain(x, 3)
    if np.any(s0 <= 0.0):
        raise SeedError("seed function is not positive at the requested points")
    w = s1 / s0
    r2 = s2 / s0
    w1 = r2 - w * w
    w2 = s3 / s0 - 3.0 * r2 * w + 2.0 * w**3
    if np.ndim(x) == 0:
        return float(w), float(w1), float(w2)
    return w, w1, w2


# ---------------------------------------------------------------------------
# closed-form partner
# ---------------------------------------------------------------------------

def susy_partner_closed_form(spec):
    """Closed form of the Morse partner potential built from the ground-state seed.

    Factorizing out the ground state of the Morse spec with integer
    parameter N yields the same family one step down plus a constant:

        V0(x; N) - (ln u)''(x) = V0(x; N-1) + shift,
        shift = alpha (N alpha + b) - alpha^2 / 2,

    where the shift equals the first excitation energy of the original
    well, as required for the partner's ground level to sit there.
    Returns the pair (Morse spec with N-1, shift).
    """
    if not isinstance(spec, Morse):
        raise UnsupportedParameterError("susy_partner_closed_form requires a Morse spec")
    n_int = _as_int(spec.N, "Morse N")
    shift = spec.alpha * spec.beta - 0.5 * spec.alpha**2
    return Morse(spec.a, spec.b, spec.alpha, float(n_int - 1)), shift


# ---------------------------------------------------------------------------
# flat key-value specs (the CLI's flags and config files)
# ---------------------------------------------------------------------------

# Family name -> (spec type, field names in flag order).  Each type's
# constructor takes exactly these fields as keywords.
_FAMILY_FIELDS = {
    "sextic_reduced": (SexticReduced, ("N",)),
    "sextic_general": (SexticGeneral, ("nu", "mu", "N")),
    "morse": (Morse, ("a", "b", "alpha", "N")),
    "even_polynomial": (EvenPolynomial, ("coeffs",)),
}


def _field_value(key, value):
    if key == "coeffs":
        return tuple(float(part) for part in str(value).split(",") if part.strip())
    return float(value)


def build_spec(family, values):
    """Build a potential spec from its family name and a mapping of field values.

    Values may be numbers or strings; ``coeffs`` is a comma-separated list,
    constant term first.  Fields of other families are ignored, and a field
    that is absent or None counts as missing.
    """
    if family is None:
        raise DomainError("a potential family is required")
    if family not in _FAMILY_FIELDS:
        raise DomainError(f"unknown potential family {family!r}")
    kind, keys = _FAMILY_FIELDS[family]
    missing = [key for key in keys if values.get(key) is None]
    if missing:
        raise DomainError(f"family {family} requires {', '.join(missing)}")
    try:
        fields = {key: _field_value(key, values[key]) for key in keys}
    except ValueError as exc:
        raise DomainError(f"bad numeric value for family {family}: {exc}") from None
    return kind(**fields)
