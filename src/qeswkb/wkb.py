"""Semiclassical phase-integral tools for one-dimensional wells.

The central quantity is the classical action across the allowed region,

    S(E) = integral of sqrt(2 (E - V(x))) between the turning points,

evaluated with an endpoint-adapted Gauss-Legendre rule.  Comparing S(E_n)
at a numerically exact eigenvalue with the leading quantization value
pi (n + 1/2) yields the correction exponent

    gamma_n = S(E_n) / pi - n - 1/2,

which measures how far the level deviates from the lowest-order
quantization rule.  The inverse problem (find E such that the action
matches a prescribed phase) is solved by bracketing and root finding.

Turning points come from one rule for every even well, read from the
well's ascending x^2-coefficients ``coeffs`` (both sextic families and
``EvenPolynomial``), and from a closed form for the Morse well.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy.optimize import brentq

from .errors import (
    AboveAsymptoteError,
    AccuracyError,
    DomainError,
    MultiWellError,
    NoClassicalRegionError,
    SearchError,
    SpectrumExhaustedError,
)
from .potentials import EVEN_WELLS, SEXTICS, Morse, _as_int, evaluate

_NODE_CAP = 8000
_GROWTH = 1.45


@dataclass(frozen=True)
class WkbRecord:
    """One semiclassical evaluation: level, energy, turning points, action.

    ``well_depth_index`` is the quasi-solvability index of the underlying
    potential (NaN when the potential family does not carry one).
    """

    well_depth_index: float
    n: int
    energy: float
    x_left: float
    x_right: float
    action: float
    gamma: float


@lru_cache(maxsize=32)
def _leggauss(m):
    nodes, weights = np.polynomial.legendre.leggauss(m)
    return nodes, weights


def _even_turning(spec, energy):
    coeffs = spec.coeffs
    roots = np.roots(coeffs[:0:-1] + (coeffs[0] - energy,)).tolist()
    positive = sorted(
        r.real for r in roots if r.real > 0.0 and abs(r.imag) <= 1e-9 * (1.0 + abs(r.real))
    )
    if not positive:
        raise NoClassicalRegionError(
            "no positive turning point found at energy %.6g" % energy
        )
    # By evenness, an allowed set that avoids the origin comes in mirror
    # pairs, and so does one with more than one turning radius.
    if energy <= coeffs[0]:
        raise MultiWellError(
            "energy %.6g lies below the central barrier top; the allowed "
            "region splits into two symmetric wells" % energy
        )
    if positive[-1] > positive[0] * (1.0 + 1e-9):
        raise MultiWellError(
            "found more than one turning radius at energy %.6g; the allowed "
            "region is not a single interval" % energy
        )
    x = math.sqrt(positive[-1])
    # Two Newton steps in x remove the squaring round-off.  V and V' are
    # multiplied out in x, left to right, highest power first.
    top = len(coeffs) - 1
    for _ in range(2):
        f = coeffs[top]
        df = 0.0
        for k in range(top, 0, -1):
            f = f * x * x + coeffs[k - 1]
            term = 2.0 * k * coeffs[k]
            for _power in range(2 * k - 2):
                term *= x
            df += term
        df *= x
        if df != 0.0:
            x -= (f - energy) / df
    return -x, x


def _morse_turning(spec, energy):
    beta, c1, v_inf, v_min = spec.beta, spec.c1, spec.v_inf, spec.v_min
    if energy >= v_inf:
        raise AboveAsymptoteError(
            "energy %.6g is not below the dissociation plateau %.6g"
            % (energy, v_inf)
        )
    if energy <= v_min:
        raise NoClassicalRegionError(
            "energy %.6g does not exceed the potential minimum %.6g" % (energy, v_min)
        )
    disc = c1 * c1 - 4.0 * (beta * beta - 2.0 * energy)
    sq = math.sqrt(disc)
    z_hi = (c1 + sq) / (2.0 * spec.a)
    z_lo = (beta * beta - 2.0 * energy) / (spec.a * spec.a * z_hi)
    return -math.log(z_hi) / spec.alpha, -math.log(z_lo) / spec.alpha


def turning_points(spec, energy):
    """Classical turning points (x_left, x_right) at the given energy.

    Raises NoClassicalRegionError when the energy does not open an allowed
    region, MultiWellError when it opens more than one, and
    AboveAsymptoteError when the energy reaches an asymptotic plateau.

    Every even well takes one rule, from the positive roots u of
    sum_k coeffs[k] u^k = E.  No root raises NoClassicalRegionError.  An
    energy at or below V(0), or more than one distinct root, raises
    MultiWellError: by evenness the allowed set then comes in mirror
    pairs.  Otherwise the turning points are -sqrt(u) and sqrt(u).
    """
    energy = float(energy)
    if not math.isfinite(energy):
        raise DomainError("energy must be finite")
    if isinstance(spec, EVEN_WELLS):
        return _even_turning(spec, energy)
    if isinstance(spec, Morse):
        return _morse_turning(spec, energy)
    raise DomainError(
        "no turning-point rule for potential family %r" % type(spec).__name__
    )


def action(spec, energy, tol=1e-10):
    """Classical action across the allowed region at the given energy.

    The integral picks up inverse-square-root behaviour at both turning
    points, so the interval is mapped through x = mid + half*sin(theta),
    which flattens both edges.  The Gauss-Legendre node count then grows
    geometrically until two consecutive refinements agree to ``tol``
    (relative for actions above one).  Failure to stabilise within the
    node budget raises AccuracyError carrying the best achieved delta.
    """
    x_left, x_right = turning_points(spec, energy)
    mid = 0.5 * (x_left + x_right)
    half = 0.5 * (x_right - x_left)
    previous = None
    delta = math.inf
    hits = 0
    m = 24
    while m <= _NODE_CAP:
        nodes, weights = _leggauss(m)
        phase = 0.5 * math.pi * nodes
        x = mid + half * np.sin(phase)
        local = 2.0 * (energy - evaluate(spec, x))
        integrand = np.sqrt(np.maximum(local, 0.0)) * np.cos(phase)
        value = 0.5 * math.pi * half * float(np.dot(weights, integrand))
        if previous is not None:
            delta = abs(value - previous)
            if delta < tol * max(1.0, abs(value)):
                hits += 1
                if hits >= 2:
                    return value
            else:
                hits = 0
        previous = value
        m = int(m * _GROWTH) + 1
    raise AccuracyError(
        "action quadrature did not stabilise to %g within %d nodes"
        % (tol, _NODE_CAP),
        achieved=delta,
    )


def morse_action_closed(a, b, alpha, energy):
    """Closed-form action of the well ``Morse(a, b, alpha, 0)``.

    That well is (a^2 z^2 - a (2b + alpha) z + b^2) / 2 with z = e^{-alpha x},
    and its action is S(E) = pi (2b + alpha - 2 sqrt(b^2 - 2E)) / (2 alpha),
    so S(E) / pi - 1/2 is the level index of the exact levels
    E_n = alpha n (2b - alpha n) / 2.  Valid for energies from the well
    bottom v_min = -(b alpha + alpha^2 / 4) / 2, where S = 0, up to (not
    including) the dissociation plateau b^2/2; below v_min it raises
    NoClassicalRegionError, as ``action`` does.  The parameter ``a`` shifts
    the allowed interval rigidly and drops out of the loop integral; it is
    validated but does not enter the value.
    """
    a = float(a)
    b = float(b)
    alpha = float(alpha)
    energy = float(energy)
    if a <= 0.0 or alpha <= 0.0 or b <= 0.0:
        raise DomainError("well parameters a, b, alpha must all be positive")
    if not math.isfinite(energy):
        raise DomainError("energy must be finite")
    v_min = Morse(a, b, alpha, 0.0).v_min
    if energy < v_min:
        raise NoClassicalRegionError(
            "energy %.6g is below the potential minimum %.6g" % (energy, v_min)
        )
    if energy >= 0.5 * b * b:
        raise AboveAsymptoteError(
            "energy %.6g is not below the dissociation plateau %.6g"
            % (energy, 0.5 * b * b)
        )
    return math.pi * (alpha - 2.0 * math.sqrt(b * b - 2.0 * energy) + 2.0 * b) / (
        2.0 * alpha
    )


def gamma(spec, n, energy, tol=1e-11):
    """Quantization correction for level ``n`` at a known energy.

    Returns a WkbRecord with the action S(E) and
    gamma = S / pi - n - 1/2.
    """
    n = _as_int(n, "level index")
    if n < 0:
        raise DomainError("level index must be non-negative")
    energy = float(energy)
    x_left, x_right = turning_points(spec, energy)
    s = action(spec, energy, tol=tol)
    value = s / math.pi - n - 0.5
    return WkbRecord(
        well_depth_index=float(getattr(spec, "N", math.nan)),
        n=n,
        energy=energy,
        x_left=x_left,
        x_right=x_right,
        action=s,
        gamma=value,
    )


def _invert_single_well(spec, target, tol):
    base = float(evaluate(spec, 0.0))
    guess = (target / math.pi) ** 1.5
    if isinstance(spec, SEXTICS):
        guess *= 1.2
    d_hi = max(2.0, 2.0 * guess)
    for _ in range(200):
        if action(spec, base + d_hi, tol=tol) >= target:
            break
        d_hi *= 2.0
    else:
        raise SearchError("could not bracket the action target from above")
    d_lo = d_hi
    floor = 1e-8 * max(1.0, abs(base))
    while d_lo > floor:
        d_lo *= 0.5
        if action(spec, base + d_lo, tol=tol) < target:
            break
    else:
        raise SearchError(
            "action exceeds the target %.6g arbitrarily close to the well "
            "bottom; no bracket exists" % target
        )
    return base + d_lo, base + d_hi


def _invert_morse(spec, target, tol):
    s_max = math.pi * (spec.alpha + 2.0 * spec.beta) / (2.0 * spec.alpha)
    if target >= s_max:
        raise SpectrumExhaustedError(
            "action target %.6g reaches the dissociation limit %.6g; no "
            "bound level carries that much phase" % (target, s_max)
        )
    v_inf, v_min = spec.v_inf, spec.v_min
    span = v_inf - v_min
    lo = v_min + 1e-12 * span
    hi = v_inf - 1e-12 * span
    if action(spec, hi, tol=tol) < target:
        raise SearchError("action target %.6g is not bracketed below the plateau" % target)
    return lo, hi


def bohr_sommerfeld_invert(spec, n, gamma0=0.0, tol=1e-12):
    """Energy whose action equals pi (n + 1/2 + gamma0).

    Setting ``gamma0`` to a modelled correction turns the lowest-order
    quantization rule into a corrected one; gamma0 = 0 recovers the plain
    rule.  The returned energy satisfies the phase condition to roughly
    the action tolerance.
    """
    n = _as_int(n, "level index")
    if n < 0:
        raise DomainError("level index must be non-negative")
    gamma0 = float(gamma0)
    target = math.pi * (n + 0.5 + gamma0)
    if target <= 0.0:
        raise DomainError(
            "requested phase %.6g is not positive; no classical orbit matches"
            % target
        )
    if isinstance(spec, Morse):
        lo, hi = _invert_morse(spec, target, tol)
    else:
        lo, hi = _invert_single_well(spec, target, tol)
    return float(
        brentq(
            lambda e: action(spec, e, tol=tol) - target,
            lo,
            hi,
            rtol=1e-13,
            maxiter=200,
        )
    )
