"""Finite algebraic blocks of quasi-exactly-solvable wells.

For the sextic and exponential (Morse-type) families, a gauge rotation
turns the Schrodinger operator into a differential operator that
preserves polynomials up to a finite degree N.  Restricting to the
monomial basis {1, z, ..., z^N} gives a small tridiagonal matrix
(``qes_block``) whose eigenpairs deliver N+1 exact levels.  Each level is
a ``QesState``: a ``potentials.GaugeState`` u = Gamma(x) p(z) of its well,
with p the eigen-polynomial, plus the eigenvalue as its energy.

The same states drive first-order Darboux factorization:
A1+ = (1/sqrt 2)(-d/dx + W) with W the seed's logarithmic derivative
maps eigenstates of the original well onto eigenstates of the partner
well V - W', and annihilates the seed itself.  Every x-derivative is
exact: ``GaugeState`` gives a state's derivatives and a seed's W, W' and
W'' from one derivative chain.  No finite differences appear anywhere.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    SeedError,
    SpectrumExhaustedError,
)
from .potentials import (
    SEXTICS,
    GaugeState,
    Morse,
    SusyPartner,
    _as_int,
    evaluate,
    seed_log_derivatives,
)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QesState(GaugeState):
    """One exactly known level: a gauge state of its well and its energy.

    ``poly`` is normalized so that its highest-degree coefficient is +1.
    """

    energy: float


def qes_block(spec):
    """Algebraic block of a sextic or Morse well on the monomials z^0..z^N.

    Column k is the gauge-rotated operator applied to z^k.  For the sextic
    well, -2 z d^2 + (2 nu z^2 + 2 mu z - 1) d - 2 N nu z + mu/2 maps z^k to
    (2 mu k + mu/2) z^k + 2 nu (k - N) z^{k+1} - k (2k - 1) z^{k-1}.  For
    the Morse well, -(alpha^2/2) z^2 d^2 - alpha (b + alpha/2) z d
    + a alpha z^2 d - a alpha N z + (beta^2 - b^2)/2, with beta = N alpha + b,
    maps z^k to (beta^2 - (alpha k + b)^2)/2 z^k + a alpha (k - N) z^{k+1}.
    The raising coefficient vanishes at k = N, so the block closes.
    """
    if not isinstance(spec, SEXTICS + (Morse,)):
        raise DomainError("no finite algebraic block for potential family %r" % type(spec).__name__)
    n_index = _as_int(spec.N, "N")
    k = np.arange(n_index + 1)
    if isinstance(spec, Morse):
        beta = n_index * spec.alpha + spec.b
        diagonal = 0.5 * (beta * beta - (spec.alpha * k + spec.b) ** 2)
        raising = spec.a * spec.alpha * (k[:-1] - n_index)
        lowering = np.zeros(n_index)
    else:
        diagonal = 2.0 * spec.mu * k + 0.5 * spec.mu
        raising = 2.0 * spec.nu * (k[:-1] - n_index)
        lowering = -(k[1:] * (2.0 * k[1:] - 1.0))
    return np.diag(diagonal) + np.diag(raising, -1) + np.diag(lowering, 1)


def sl2_generators(n_index, dim=None):
    """Raising, weight, and lowering matrices on monomials.

    The action is J+ z^k = (k - N) z^{k+1}, J0 z^k = (k - N/2) z^k,
    J- z^k = k z^{k-1}; on the first N+1 monomials J+ truncates exactly
    because its coefficient vanishes at k = N.
    """
    n_index = _as_int(n_index, "N")
    if dim is None:
        dim = n_index + 2
    dim = _as_int(dim, "dim")
    if dim < n_index + 1:
        raise DomainError("dim must be at least N+1 to hold the invariant block")
    k = np.arange(dim, dtype=float)
    raising = np.zeros((dim, dim))
    raising[np.arange(1, dim), np.arange(dim - 1)] = k[:-1] - n_index
    weight = np.diag(k - 0.5 * n_index)
    lowering = np.zeros((dim, dim))
    lowering[np.arange(dim - 1), np.arange(1, dim)] = k[1:]
    return raising, weight, lowering


def morse_lie_form_check(spec):
    """Max deviation between a Morse well's block and its bilinear form.

    The block equals -(alpha^2/2) J+ J- + a alpha J+
    - (alpha/2)(2b + alpha(N+1)) D + (2c - b^2)/2 with c = (N alpha + b)^2 / 2,
    where D is the plain degree operator (diag k), i.e. the weight generator
    with its -N/2 offset removed.  Returns the max absolute entry difference.
    """
    n_index = _as_int(spec.N, "N")
    a, b, alpha = spec.a, spec.b, spec.alpha
    dim = n_index + 1
    raising, weight, lowering = sl2_generators(n_index, dim)
    degree = weight + 0.5 * n_index * np.eye(dim)
    c = Morse(a, b, alpha, n_index).v_inf
    bilinear = (
        -0.5 * alpha * alpha * (raising @ lowering)
        + a * alpha * raising
        - 0.5 * alpha * (2.0 * b + alpha * (n_index + 1)) * degree
        + 0.5 * (2.0 * c - b * b) * np.eye(dim)
    )
    return float(np.max(np.abs(bilinear - qes_block(spec))))


def _monic(vector):
    v = np.asarray(vector, dtype=float)
    scale = np.max(np.abs(v))
    lead = len(v) - 1
    while lead > 0 and abs(v[lead]) <= 1e-10 * scale:
        lead -= 1
    return tuple(v[: lead + 1] / v[lead])


def qes_states(spec):
    """All exactly known levels of a sextic or Morse well, sorted by energy."""
    values, vectors = np.linalg.eig(qes_block(spec))
    worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if worst > 1e-9 * (1.0 + float(np.max(np.abs(values.real)))):
        raise AccuracyError("algebraic block produced a complex eigenvalue", achieved=worst)
    return [
        QesState(spec, _monic(vectors[:, idx].real), float(values.real[idx]))
        for idx in np.argsort(values.real)
    ]


def _scaled_residual(well, energy, grid, values, scale):
    """max |(-1/2) f'' + (V - E) f| / scale on the grid, for values (f, f', f'')."""
    f, _, d2f = values
    residual = -0.5 * d2f + (evaluate(well, grid) - energy) * f
    return float(np.max(np.abs(residual))) / scale


def residual_check(state, grid):
    """Scaled Schrodinger residual of an exactly known level on a grid.

    Returns max |(-1/2) psi'' + (V - E) psi| / max |psi| using the
    closed-form derivative evaluators.
    """
    values = state.derivatives(grid, 2)
    scale = float(np.max(np.abs(values[0])))
    if scale == 0.0:
        raise DomainError("state vanishes identically on the supplied grid")
    return _scaled_residual(state.well, state.energy, grid, values, scale)


def _nodeless_or_raise(poly):
    coeffs = np.asarray(poly, dtype=float)
    roots = np.roots(coeffs[::-1])
    for r in roots:
        if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real)) and r.real > 1e-12:
            raise SeedError(
                "seed polynomial has a node at z = %.6g inside the physical "
                "half-line; only nodeless seeds factorize the well" % r.real
            )


@dataclass(frozen=True)
class A1Plus:
    """First-order factorization operator (1/sqrt 2)(-d/dx + W).

    ``W`` is the logarithmic derivative of the nodeless seed.  The
    composition rules push analytic derivatives through the operator:

        phi   = (-f'   + W f) / sqrt 2
        phi'  = (-f''  + W' f + W f') / sqrt 2
        phi'' = (-f''' + W'' f + 2 W' f' + W f'') / sqrt 2
    """

    seed: GaugeState

    def apply_values(self, x, values):
        """Map (f, f', f'', [f''']) to (phi, [phi', [phi'']])."""
        if len(values) < 2:
            raise DomainError("need at least the value and first derivative")
        w, w1, w2 = seed_log_derivatives(self.seed, np.asarray(x, dtype=float))
        out = [(-values[1] + w * values[0]) / _SQRT2]
        if len(values) >= 3:
            out.append((-values[2] + w1 * values[0] + w * values[1]) / _SQRT2)
        if len(values) >= 4:
            out.append(
                (-values[3] + w2 * values[0] + 2.0 * w1 * values[1] + w * values[2])
                / _SQRT2
            )
        return tuple(out)

    def apply_state(self, state, x, order=2):
        x = np.asarray(x, dtype=float)
        return self.apply_values(x, state.derivatives(x, order + 1))


def darboux(seed):
    """Factorize the seed's well through the nodeless exactly known seed.

    Returns (partner_spec, A1Plus).  The partner potential is
    V - (ln u)'' for seed wavefunction u; for the exponential family it
    coincides with the same family at index N-1 shifted up by the first
    level spacing (see susy_partner_closed_form).  An exponential-family
    seed must be the ground state z^N at integer N: its polynomial is
    replaced by exactly z^N, since an eigenvector's lower coefficients
    are only rounding noise.
    """
    _nodeless_or_raise(seed.poly)
    poly = seed.poly
    if isinstance(seed.well, Morse):
        n_index = _as_int(seed.well.N, "seed N")
        coeffs = np.asarray(poly, dtype=float)
        if len(coeffs) != n_index + 1 or np.any(np.abs(coeffs[:-1]) > 1e-8):
            raise SeedError(
                "exponential-family factorization requires the pure power "
                "ground polynomial z^N"
            )
        poly = (0.0,) * n_index + (1.0,)
    seed = GaugeState(seed.well, poly)
    return SusyPartner(seed), A1Plus(seed)


def intertwining_residual(seed, state, grid):
    """Partner-well Schrodinger residual of a mapped state.

    Applies the factorization operator of ``seed`` to ``state``, an exact
    level of the same well, and checks that the image solves the partner
    well at the same energy: max |(-1/2) phi'' + (V1 - E) phi| / max |phi|.
    A seed image that is annihilated (max |phi| < 1e-12 max |psi|) returns
    NaN as the degenerate-image signal rather than raising.
    """
    if state.well != seed.well:
        raise DomainError("the state and the seed solve different wells")
    partner, operator = darboux(seed)
    psi = state.derivatives(grid, 0)[0]
    phi = operator.apply_state(state, grid, order=2)
    scale = float(np.max(np.abs(phi[0])))
    if scale < 1e-12 * float(np.max(np.abs(psi))):
        return math.nan
    return _scaled_residual(partner, state.energy, grid, phi, scale)


def morse_exact_spectrum(spec, n_max):
    """Bound energies E_n = alpha n (2 beta - alpha n) / 2 of a Morse well, n = 0..n_max."""
    n_max = _as_int(n_max, "n_max")
    alpha, beta = spec.alpha, spec.beta
    if n_max >= beta / alpha:
        raise SpectrumExhaustedError(
            "level %d lies beyond the bound band (need n < beta/alpha = %.6g)"
            % (n_max, beta / alpha)
        )
    n = np.arange(n_max + 1, dtype=float)
    return [float(v) for v in 0.5 * alpha * n * (2.0 * beta - alpha * n)]
