"""Potential families for the one-dimensional Schrodinger problem H = -1/2 d^2/dx^2 + V(x).

Provides immutable specifications of the supported potentials (reduced and
general sextic oscillators, the exponential Morse well, even polynomial
oracles, and first-order factorization partners built from analytic seed
functions), together with pointwise evaluation, the one derivative-chain
recurrence per family that both the seeds' log-derivatives and the exact
algebraic states use, and the flat key-value spec format that the CLI and
its config files share.

Every even well (both sextic families and ``EvenPolynomial``) exposes its
potential as ``coeffs``, the ascending coefficients of V in x^2, and
``EVEN_WELLS`` names those types once: one evaluator serves all of them,
as does ``wkb``'s one turning-point rule.

Units are atomic throughout (hbar = m = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, SeedError, UnsupportedParameterError

__all__ = [
    "SexticReduced",
    "SexticGeneral",
    "Morse",
    "EvenPolynomial",
    "SusyPartner",
    "SexticGround",
    "MorseGround",
    "PotentialSpec",
    "SeedSpec",
    "evaluate",
    "SEXTICS",
    "EVEN_WELLS",
    "seed_log_derivatives",
    "susy_partner_closed_form",
    "build_spec",
    "format_spec",
    "parse_spec",
]


def _as_int(value, what):
    """Coerce a value that must be a non-negative integer."""
    r = round(float(value))
    if abs(float(value) - r) > 1e-12 or r < 0:
        raise UnsupportedParameterError(f"{what} must be a non-negative integer, got {value!r}")
    return int(r)


# ---------------------------------------------------------------------------
# potential specifications
# ---------------------------------------------------------------------------

def _sextic_coeffs(spec):
    """Ascending x^2-coefficients (0, c2, c4, c6) of a sextic well."""
    nu, mu = spec.nu, spec.mu
    return (0.0, 0.5 * (mu * mu - (4.0 * spec.N + 3.0) * nu), nu * mu, 0.5 * nu * nu)


@dataclass(frozen=True)
class SexticReduced:
    """Sextic oscillator V(x) = (x^6 + 2 x^4 - 2 (2N+1) x^2) / 2.

    The continuous parameter N controls the depth of the two symmetric
    wells; at non-negative integer N the lowest N+1 even states are
    polynomially solvable.
    """

    N: float

    # Class attributes, not fields: the reduced well is the general one at
    # nu = mu = 1, and its repr, equality and spec line stay N alone.
    nu = 1.0
    mu = 1.0

    def __post_init__(self):
        if not math.isfinite(self.N):
            raise DomainError("N must be finite")
        object.__setattr__(self, "coeffs", _sextic_coeffs(self))


@dataclass(frozen=True)
class SexticGeneral:
    """Two-parameter sextic oscillator V(x) = (nu^2 x^6 + 2 nu mu x^4 + (mu^2 - (4N+3) nu) x^2) / 2."""

    nu: float
    mu: float
    N: float

    def __post_init__(self):
        if not (self.nu > 0):
            raise DomainError(f"nu must be positive, got {self.nu}")
        if not (math.isfinite(self.mu) and math.isfinite(self.N)):
            raise DomainError("mu and N must be finite")
        object.__setattr__(self, "coeffs", _sextic_coeffs(self))


@dataclass(frozen=True)
class Morse:
    """Exponential well V(x) = (a^2 z^2 - a z (2b + alpha (2N+1)) + (N alpha + b)^2) / 2, z = exp(-alpha x).

    Tends to the finite asymptote (N alpha + b)^2 / 2 as x -> +inf and grows
    exponentially as x -> -inf, so only finitely many bound states exist.
    """

    a: float
    b: float
    alpha: float
    N: float

    def __post_init__(self):
        if not (self.a > 0 and self.alpha > 0):
            raise DomainError("a and alpha must be positive")
        if not (math.isfinite(self.b) and math.isfinite(self.N)):
            raise DomainError("b and N must be finite")

    @property
    def beta(self):
        """Plateau parameter beta = N alpha + b, so that V -> beta^2 / 2."""
        return self.N * self.alpha + self.b

    @property
    def c1(self):
        """Linear coefficient over a: V = (a^2 z^2 - a c1 z + beta^2) / 2."""
        return 2.0 * self.b + self.alpha * (2.0 * self.N + 1.0)

    @property
    def v_inf(self):
        """Dissociation plateau beta^2 / 2, the x -> +inf limit."""
        beta = self.beta
        return 0.5 * beta * beta

    @property
    def v_min(self):
        """Well bottom (beta^2 - c1^2 / 4) / 2, reached at z = c1 / (2a)."""
        beta, c1 = self.beta, self.c1
        return 0.5 * (beta * beta - 0.25 * c1 * c1)


@dataclass(frozen=True)
class EvenPolynomial:
    """Even polynomial potential V(x) = sum_i coeffs[i] * x^(2i), confining (positive leading coefficient)."""

    coeffs: tuple

    def __init__(self, coeffs):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs:
            raise DomainError("coeffs must be non-empty")
        if not all(math.isfinite(c) for c in coeffs):
            raise DomainError("coeffs must be finite")
        if coeffs[-1] <= 0:
            raise DomainError("leading coefficient must be positive (confining potential)")
        object.__setattr__(self, "coeffs", coeffs)


# ---------------------------------------------------------------------------
# factorization seeds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SexticGround:
    """Analytic sextic eigenstate used as a factorization seed.

    u(x) = exp(-nu x^4/4 - mu x^2/2) * p(x^2), with ``poly`` the ascending
    coefficients of the nodeless polynomial p.
    """

    N: int
    poly: tuple
    nu: float = 1.0
    mu: float = 1.0

    def __init__(self, N, poly=(1.0,), nu=1.0, mu=1.0):
        object.__setattr__(self, "N", _as_int(N, "seed N"))
        poly = tuple(float(c) for c in poly)
        if not poly or abs(poly[-1]) == 0.0:
            raise SeedError("seed polynomial must have a nonzero leading coefficient")
        object.__setattr__(self, "poly", poly)
        if not (nu > 0):
            raise DomainError("nu must be positive")
        object.__setattr__(self, "nu", float(nu))
        object.__setattr__(self, "mu", float(mu))


@dataclass(frozen=True)
class MorseGround:
    """Ground state of the Morse family, u(x) = exp(-(a/alpha) z) z^(N + b/alpha), z = exp(-alpha x)."""

    N: int
    a: float = 1.0
    b: float = 8.0
    alpha: float = math.sqrt(2.0)

    def __init__(self, N, a=1.0, b=8.0, alpha=math.sqrt(2.0)):
        object.__setattr__(self, "N", _as_int(N, "seed N"))
        if not (a > 0 and alpha > 0):
            raise DomainError("a and alpha must be positive")
        object.__setattr__(self, "a", float(a))
        object.__setattr__(self, "b", float(b))
        object.__setattr__(self, "alpha", float(alpha))


@dataclass(frozen=True)
class SusyPartner:
    """Partner potential V1(x) = V0(x) - (ln u)''(x) built from a nodeless seed u of V0."""

    base: "PotentialSpec"
    seed: "SeedSpec"


PotentialSpec = Union[SexticReduced, SexticGeneral, Morse, EvenPolynomial, SusyPartner]
SeedSpec = Union[SexticGround, MorseGround]

SEXTICS = (SexticReduced, SexticGeneral)
EVEN_WELLS = SEXTICS + (EvenPolynomial,)


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
    if not lower:
        return np.full_like(u, v)
    for c in reversed(lower):
        v = v * u + c if c else v * u
    return v


def _eval_partner(spec, x):
    base_v = evaluate(spec.base, x)
    _, w1, _ = seed_log_derivatives(spec.seed, x, check_positive=True)
    return base_v - w1


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


def seed_log_derivatives(seed, x, check_positive=False):
    """Closed-form chain W = (ln u)', W' and W'' of a seed at the points x.

    Computed from ratios of the derivative polynomials of u, which avoids
    evaluating the (rapidly decaying) gauge factor altogether:
    W = u'/u, W' = u''/u - W^2, W'' = u'''/u - 3 (u''/u) W + 2 W^3.
    """
    xa = _check_x(x)
    if isinstance(seed, SexticGround):
        polys = sextic_chain(seed.poly, seed.nu, seed.mu)
        arg = xa
    elif isinstance(seed, MorseGround):
        polys = morse_chain(np.append(np.zeros(seed.N), 1.0), seed.a, seed.b, seed.alpha)
        arg = np.exp(-seed.alpha * xa)
    else:
        raise UnsupportedParameterError(f"unknown seed spec {type(seed).__name__}")
    s0 = npoly.polyval(arg, polys[0])
    if check_positive and np.any(s0 <= 0.0):
        raise SeedError("seed function is not positive at the requested points")
    if np.any(s0 == 0.0):
        raise SeedError("seed function vanishes at a requested point")
    r1 = npoly.polyval(arg, polys[1]) / s0
    r2 = npoly.polyval(arg, polys[2]) / s0
    r3 = npoly.polyval(arg, polys[3]) / s0
    w = r1
    w1 = r2 - w * w
    w2 = r3 - 3.0 * r2 * w + 2.0 * w**3
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
    beta = Morse(spec.a, spec.b, spec.alpha, float(n_int)).beta
    shift = spec.alpha * beta - 0.5 * spec.alpha**2
    return Morse(spec.a, spec.b, spec.alpha, float(n_int - 1)), shift


# ---------------------------------------------------------------------------
# flat key-value specs (format_spec, and the CLI's flags and config files)
# ---------------------------------------------------------------------------

# Family name -> (spec type, field names in format order).  Each type's
# constructor takes exactly these fields as keywords.
_FAMILY_FIELDS = {
    "sextic_reduced": (SexticReduced, ("N",)),
    "sextic_general": (SexticGeneral, ("nu", "mu", "N")),
    "morse": (Morse, ("a", "b", "alpha", "N")),
    "even_polynomial": (EvenPolynomial, ("coeffs",)),
}


def format_spec(spec):
    """Render a spec as a single flat key-value line, e.g. ``family=sextic_reduced N=0.25``."""
    for family, (kind, keys) in _FAMILY_FIELDS.items():
        if isinstance(spec, kind):
            tokens = ["family=" + family]
            for key in keys:
                value = getattr(spec, key)
                text = ",".join(f"{c:.17g}" for c in value) if key == "coeffs" else f"{value:.17g}"
                tokens.append(f"{key}={text}")
            return " ".join(tokens)
    raise UnsupportedParameterError(f"cannot serialize {type(spec).__name__}")


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


def _parse_tokens(text):
    fields = {}
    for tok in text.split():
        if "=" not in tok:
            raise DomainError(f"malformed token {tok!r}: expected key=value")
        key, val = tok.split("=", 1)
        fields[key] = val
    return fields


def parse_spec(text):
    """Parse the flat key-value format produced by :func:`format_spec`."""
    fields = _parse_tokens(text)
    family = fields.pop("family", None)
    spec = build_spec(family, fields)
    extra = sorted(set(fields) - set(_FAMILY_FIELDS[family][1]))
    if extra:
        raise DomainError(f"unexpected extra fields {extra} for family {family!r}")
    return spec
