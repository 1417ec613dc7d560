"""Semiclassical phase-integral tools for one-dimensional wells.

The central quantity is the classical action across the allowed region,

    S(E) = integral of sqrt(2 (E - V(x))) between the turning points,

evaluated with an endpoint-adapted Gauss-Legendre rule.  Comparing S(E_n)
at a numerically exact eigenvalue with the leading quantization value
pi (n + 1/2) yields the correction exponent

    gamma_n = S(E_n) / pi - n - 1/2,

which measures how far the level deviates from the lowest-order
quantization rule.  The inverse problem (find E such that the action
matches a prescribed phase) is solved in closed form on the Morse well,
whose action is known exactly, and on the even wells by safeguarded
Newton steps on S(E), whose slope dS/dE is the classical period

    T(E) = integral of dx / sqrt(2 (E - V(x))),

summed on the same quadrature nodes as S.

Turning points come from one rule for every even well, read from the
well's ascending x^2-coefficients ``coeffs`` (both sextic families and
``EvenPolynomial``), and from a closed form for the Morse well.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import (
    AboveAsymptoteError,
    AccuracyError,
    DomainError,
    MultiWellError,
    NoClassicalRegionError,
    SearchError,
    SpectrumExhaustedError,
)
from .potentials import EVEN_WELLS, Morse, SexticGeneral, _as_int, evaluate

_NODE_CAP = 8000
_GROWTH = 1.45


@dataclass(frozen=True)
class WkbRecord:
    """One semiclassical evaluation: level, energy, turning points, action."""

    n: int
    energy: float
    x_left: float
    x_right: float
    action: float
    gamma: float


@lru_cache(maxsize=None)
def _legendre(m):
    """Nodes on (-1, 1) and weights of the m-point Gauss-Legendre rule, built once for every map."""
    return np.polynomial.legendre.leggauss(m)


@lru_cache(maxsize=64)
def _leggauss(rules, width, shift):
    """Weights, cos(phase) and sin(phase) of Gauss-Legendre rules laid end to end.

    ``rules`` is a tuple of node counts; each rule's nodes t on (-1, 1), from
    ``_legendre``, are mapped to the phase width (t + shift).  Built on first
    use of each group of rules and map; read-only, since every caller shares it.
    """
    nodes, weights = zip(*map(_legendre, rules))
    phase = width * (np.concatenate(nodes) + shift)
    tables = np.concatenate(weights), np.cos(phase), np.sin(phase)
    for table in tables:
        table.flags.writeable = False
    return tables


def _rule_groups():
    """Node counts of the ladder 24, 35, 51, 74, ... up to ``_NODE_CAP``.

    The cap is read when the ladder is walked.  The first three rules come
    as one group, since every quadrature needs them all; each later rule
    comes alone.
    """
    group = []
    size = 3
    m = 24
    while m <= _NODE_CAP:
        group.append(m)
        if len(group) == size:
            yield tuple(group)
            group, size = [], 1
        m = int(m * _GROWTH) + 1
    if group:
        yield tuple(group)


@lru_cache(maxsize=64)
def _pieces(coeffs):
    """Edges and values of the monotone pieces of q(u) = sum_k coeffs[k] u^k on u >= 0.

    The inner edges are the positive real parts of the roots of q'.  That
    set holds every positive critical radius, even one that rounding has
    split into a complex pair; an extra edge only splits a monotone piece
    in two.  The last edge is u = inf, where q tends to +inf: an even well
    has degree 1 or more in u and a positive leading coefficient.
    """
    top = len(coeffs) - 1
    slope = [k * coeffs[k] for k in range(top, 0, -1)]
    inner = sorted({r.real for r in np.roots(slope).tolist() if r.real > 0.0})
    edges = (0.0, *inner, math.inf)
    values = (coeffs[0], *(_poly_and_slope(coeffs, u)[0] for u in inner), math.inf)
    return edges, values


def _poly_and_slope(coeffs, u):
    """q(u) and q'(u) by one Horner pass, highest power first."""
    f = coeffs[-1]
    df = 0.0
    for c in coeffs[-2::-1]:
        df = df * u + f
        f = f * u + c
    return f, df


def _piece_root(coeffs, energy, lo, hi, rising):
    """The one root of q(u) = E on a monotone piece (lo, hi), hi possibly inf.

    Newton steps from the leading-term estimate ((E - c_0) / c_top)^(1/top),
    bisecting (or doubling, while hi is inf) whenever a step leaves the
    bracket; stops once a step is below 1e-10 relative (the caller refines in
    x) or is zero, even where u then sits on the bracket end it has just set.
    """
    top = len(coeffs) - 1
    u = ((energy - coeffs[0]) / coeffs[top]) ** (1.0 / top)
    if not lo < u < hi:
        u = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo + 1.0
    for _ in range(200):
        f, df = _poly_and_slope(coeffs, u)
        f -= energy
        if f == 0.0:
            break
        if (f < 0.0) == rising:
            lo = u
        else:
            hi = u
        new = u - f / df if df != 0.0 else math.nan
        if new != u and not lo < new < hi:
            new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * u
        if abs(new - u) <= 1e-10 * new:
            return new
        u = new
    return u


def _even_turning(spec, energy):
    coeffs = spec.coeffs
    edges, values = _pieces(coeffs)
    # A piece (a, b] holds a turning radius where q - E changes sign
    # across it, or where q(b) = E at a finite edge.
    crossings = [
        i for i in range(len(edges) - 1)
        if (values[i] - energy) * (values[i + 1] - energy) < 0.0
        or (values[i + 1] == energy and edges[i + 1] < math.inf)
    ]
    if not crossings:
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
    if len(crossings) > 1:
        raise MultiWellError(
            "found more than one turning radius at energy %.6g; the allowed "
            "region is not a single interval" % energy
        )
    i = crossings[0]
    if values[i + 1] == energy:
        u = edges[i + 1]
    else:
        u = _piece_root(coeffs, energy, edges[i], edges[i + 1], values[i] < energy)
    x = math.sqrt(u)
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

    Every even well takes one rule, from the positive roots u = x^2 of
    q(u) = sum_k coeffs[k] u^k = E.  The critical radii of q, found once
    per ``coeffs``, cut u > 0 into monotone pieces, each holding at most
    one root; a piece holds one where q - E changes sign across it or
    vanishes at its finite upper edge.  No root raises
    NoClassicalRegionError.  An energy at or below V(0), or more than one
    root, raises MultiWellError: by evenness the allowed set then comes in
    mirror pairs.  Otherwise Newton steps in u, safeguarded by the piece,
    and two in x give the turning points -x and x.
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


def _quadrature(spec, energy, tol):
    """Turning points, action S and period T = dS/dE at one energy.

    The integrand of S has inverse-square-root behaviour at both turning
    points, so the interval is mapped through x = mid + half sin(phi),
    which flattens both edges.  An even well is folded onto [0, x_right]
    first, x = x_right sin(theta) with theta in (0, pi/2), and doubled: a
    barrier top at the origin then sits at an endpoint, where the rule
    converges, not inside the interval.  The Gauss-Legendre node count
    grows geometrically until two consecutive refinements agree to ``tol``
    (relative for actions above one); failure to stabilise within the node
    budget raises AccuracyError carrying the best achieved delta.

    Each rule is built once for both maps (``_legendre``), and its weights
    and the cos and sin of its phases are cached per map (``_leggauss``).
    Two refinements need three rules, so the first three (24, 35 and 51
    nodes) share one potential evaluation, and each rule's S is summed over
    its own slice of it; later rules are evaluated one at a time.

    T = integral of dx / sqrt(2 (E - V)) is summed on the final nodes.  The
    map makes its integrand cos(phi) / sqrt(2 (E - V)) finite at the
    turning points; a node where rounding leaves E - V <= 0 adds nothing.
    """
    x_left, x_right = turning_points(spec, energy)
    if isinstance(spec, EVEN_WELLS):
        center, scale, width, shift = 0.0, x_right, 0.25 * math.pi, 1.0
    else:
        center, scale = 0.5 * (x_left + x_right), 0.5 * (x_right - x_left)
        width, shift = 0.5 * math.pi, 0.0
    prefactor = 0.5 * math.pi * scale
    previous = None
    delta = math.inf
    hits = 0
    for rules in _rule_groups():
        weights, cos, sin = _leggauss(rules, width, shift)
        local = 2.0 * (energy - evaluate(spec, center + scale * sin))
        root = np.sqrt(np.maximum(local, 0.0))
        end = 0
        for m in rules:
            rule = slice(end, end + m)
            end += m
            value = prefactor * float(np.dot(weights[rule], root[rule] * cos[rule]))
            if previous is not None:
                delta = abs(value - previous)
                if delta < tol * max(1.0, abs(value)):
                    hits += 1
                    if hits >= 2:
                        r = root[rule]
                        ratio = np.divide(cos[rule], r, out=np.zeros_like(r), where=r > 0.0)
                        return x_left, x_right, value, prefactor * float(np.dot(weights[rule], ratio))
                else:
                    hits = 0
            previous = value
    raise AccuracyError(
        "action quadrature did not stabilise to %g within %d nodes"
        % (tol, _NODE_CAP),
        achieved=delta,
    )


def action(spec, energy, tol=1e-10):
    """Classical action across the allowed region at the given energy.

    Computed by the endpoint-adapted Gauss-Legendre rule of ``_quadrature``
    to ``tol`` (relative for actions above one); failure to stabilise
    within the node budget raises AccuracyError carrying the best achieved
    delta.
    """
    return _quadrature(spec, energy, tol)[2]


def morse_action_closed(spec, energy):
    """Closed-form action of a Morse well at any index N.

    It is S(E) = pi (alpha (2N+1) - 2 sqrt(beta^2 - 2E) + 2b) / (2 alpha),
    so S(E) / pi - 1/2 is the level index of the exact levels
    E_n = alpha n (2 beta - alpha n) / 2.  Valid for energies from the well
    bottom ``v_min``, where S = 0, up to (not including) the dissociation
    plateau ``v_inf``; below v_min it raises NoClassicalRegionError, as
    ``action`` does.  A well with c1 <= 0, which has no minimum, raises
    DomainError; beta may take either sign.  The parameter ``a`` shifts the
    allowed interval rigidly and drops out.
    """
    if not (isinstance(spec, Morse) and spec.c1 > 0.0):
        raise DomainError("the closed-form action needs a Morse well with c1 > 0")
    energy = float(energy)
    if not math.isfinite(energy):
        raise DomainError("energy must be finite")
    if energy < spec.v_min:
        raise NoClassicalRegionError(
            "energy %.6g is below the potential minimum %.6g" % (energy, spec.v_min)
        )
    if energy >= spec.v_inf:
        raise AboveAsymptoteError(
            "energy %.6g is not below the dissociation plateau %.6g" % (energy, spec.v_inf)
        )
    root = math.sqrt(spec.beta * spec.beta - 2.0 * energy)
    return math.pi * (spec.alpha * (2.0 * spec.N + 1.0) - 2.0 * root + 2.0 * spec.b) / (2.0 * spec.alpha)


def gamma(spec, n, energy, tol=1e-11):
    """Quantization correction for level ``n`` at a known energy.

    Returns a WkbRecord with the action S(E) and
    gamma = S / pi - n - 1/2.
    """
    n = _as_int(n, "level index")
    energy = float(energy)
    x_left, x_right, s, _ = _quadrature(spec, energy, tol)
    value = s / math.pi - n - 0.5
    return WkbRecord(
        n=n,
        energy=energy,
        x_left=x_left,
        x_right=x_right,
        action=s,
        gamma=value,
    )


def bohr_sommerfeld_invert(spec, n, gamma0=0.0):
    """Energy whose action equals pi (n + 1/2 + gamma0).

    No command or study part calls it; the benchmark's quantize workload
    does.  Setting ``gamma0`` to a modelled correction turns the
    lowest-order quantization rule into a corrected one; gamma0 = 0
    recovers the plain rule.  On a Morse well the closed-form action
    (``morse_action_closed``) is solved for E, sqrt(beta^2 - 2E) =
    (c1 - 2 alpha S / pi) / 2, so the result is exact; a target at or
    beyond the dissociation limit pi c1 / (2 alpha) raises
    SpectrumExhaustedError.

    On an even well each action quadrature (to 1e-12) also gives its
    slope, the classical period T = dS/dE, for a Newton step
    E <- E - (S - target) / T.  The steps keep a bracket [lo, hi] of
    energies below and above the target, and bisect it (or double the
    distance to V(0) while there is no upper end) whenever a step leaves
    it.  The iteration stops once a step is at most 1e-13 max(1, |E|).
    S is concave in E on the sextic wells, so the iterates close in
    monotonically after at most one overshoot.  They start from
    base + (target / pi)^(3/2), 1.2 times that on the sextics, with
    base = V(0).  When a step falls to within 1e-15 max(1, |base|) of V(0),
    the action there is computed once: if it already reaches the target,
    SearchError says that no bracket exists, since a level that carries
    less phase lies below the barrier top.
    """
    n = _as_int(n, "level index")
    phase = n + 0.5 + float(gamma0)
    target = math.pi * phase
    if target <= 0.0:
        raise DomainError(
            "requested phase %.6g is not positive; no classical orbit matches"
            % target
        )
    if isinstance(spec, Morse):
        # morse_action_closed solved for E: sqrt(beta^2 - 2E) = (c1 - 2 alpha S / pi) / 2
        root = 0.5 * spec.c1 - spec.alpha * phase
        if root <= 0.0:
            raise SpectrumExhaustedError(
                "action target %.6g reaches the dissociation limit %.6g; no bound level "
                "carries that much phase" % (target, math.pi * spec.c1 / (2.0 * spec.alpha))
            )
        return 0.5 * (spec.beta - root) * (spec.beta + root)
    base = float(evaluate(spec, 0.0))
    guess = (target / math.pi) ** 1.5
    if isinstance(spec, SexticGeneral):
        guess *= 1.2
    lo, hi, energy = base, math.inf, base + guess
    # Just above a barrier top the kink of sqrt(2 (E - V)) at x = 0 is
    # rounded off over x ~ sqrt(E - V(0)).  This close, that changes S
    # by about 1e-15 ln(1e15), far below the tolerance, so the folded
    # rule converges on its first nodes; at 1e-9 it needs thousands.
    floor = base + 1e-15 * max(1.0, abs(base))
    tol = 1e-12
    for _ in range(200):
        s, period = _quadrature(spec, energy, tol)[2:]
        if s < target:
            lo = energy
        else:
            hi = energy
        step = (s - target) / period
        new = energy - step
        if abs(step) <= 1e-13 * max(1.0, abs(energy)):
            return new
        if lo < floor and new <= floor:
            if _quadrature(spec, floor, tol)[2] >= target:
                raise SearchError(
                    "action at the barrier top already exceeds the target "
                    "%.6g; no bracket exists" % target
                )
            lo = floor
        if not lo < new < hi:
            new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * energy - base
        energy = new
    raise SearchError("Newton iteration on the action target %.6g did not converge" % target)
