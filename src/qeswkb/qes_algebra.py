"""Finite algebraic blocks of quasi-exactly-solvable wells.

For the sextic and exponential (Morse-type) families, a gauge rotation
turns the Schrodinger operator into a differential operator that
preserves polynomials up to a finite degree N.  Restricting to the
monomial basis {1, z, ..., z^N} gives a small tridiagonal matrix
(``qes_block``) whose eigenpairs deliver N+1 exact levels.  Each level is
a ``QesState``: a ``potentials.GaugeState`` u = Gamma(x) p(z) of its well,
with p the eigen-polynomial, plus the eigenvalue as its energy.

The same states drive first-order Darboux factorization.  ``darboux``
validates a nodeless seed and returns its partner well V - W', W the
seed's logarithmic derivative.  ``factorize`` is the one way to apply
A1+ = (1/sqrt 2)(-d/dx + W): it samples the seed's W, W', W'' and both
wells on a grid once, and the image and residual of every state on that
grid read them.  A1+ maps eigenstates of the original well onto
eigenstates of the partner and annihilates the seed itself.  Every
x-derivative is exact: ``GaugeState`` gives a state's derivatives and a
seed's W, W' and W'' from one derivative chain.  No finite differences
appear anywhere.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    SeedError,
    SpectrumExhaustedError,
    UnsupportedParameterError,
)
from .potentials import (
    GaugeState,
    Morse,
    SexticGeneral,
    SusyPartner,
    _as_int,
    _partner_values,
    evaluate,
)

_SQRT2 = math.sqrt(2.0)
# Largest N whose block is built: the CLI's own cap on n_max.
_BLOCK_CAP = 200


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
    The raising coefficient vanishes at k = N, so the block closes.  An N
    above 200, the CLI's cap on n_max, raises UnsupportedParameterError.
    """
    if not isinstance(spec, (SexticGeneral, Morse)):
        raise DomainError("no finite algebraic block for potential family %r" % type(spec).__name__)
    n_index = _as_int(spec.N, "N")
    if n_index > _BLOCK_CAP:
        raise UnsupportedParameterError("N = %g exceeds the block cap %d" % (spec.N, _BLOCK_CAP))
    k = np.arange(n_index + 1)
    if isinstance(spec, Morse):
        beta = spec.beta
        diagonal = 0.5 * (beta * beta - (spec.alpha * k + spec.b) ** 2)
        raising = spec.a * spec.alpha * (k[:-1] - n_index)
        lowering = np.zeros(n_index)
    else:
        diagonal = 2.0 * spec.mu * k + 0.5 * spec.mu
        raising = 2.0 * spec.nu * (k[:-1] - n_index)
        lowering = -(k[1:] * (2.0 * k[1:] - 1.0))
    return np.diag(diagonal) + np.diag(raising, -1) + np.diag(lowering, 1)


def sl2_generators(n_index):
    """Raising, weight, and lowering matrices on the monomials z^0..z^(N+1).

    The action is J+ z^k = (k - N) z^{k+1}, J0 z^k = (k - N/2) z^k,
    J- z^k = k z^{k-1}.  The extra monomial z^(N+1) keeps the closure in
    view: J+ z^N = 0, so the first N+1 monomials span an invariant block.
    """
    n_index = _as_int(n_index, "N")
    dim = n_index + 2
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
    with its -N/2 offset removed, all on the invariant block z^0..z^N.
    Returns the max absolute entry difference.
    """
    block = qes_block(spec)
    a, b, alpha = spec.a, spec.b, spec.alpha
    dim = len(block)
    n_index = dim - 1
    raising, weight, lowering = (m[:dim, :dim] for m in sl2_generators(n_index))
    degree = weight + 0.5 * n_index * np.eye(dim)
    c = spec.v_inf
    bilinear = (
        -0.5 * alpha * alpha * (raising @ lowering)
        + a * alpha * raising
        - 0.5 * alpha * (2.0 * b + alpha * (n_index + 1)) * degree
        + 0.5 * (2.0 * c - b * b) * np.eye(dim)
    )
    return float(np.max(np.abs(bilinear - block)))


def _monic(vector):
    v = np.asarray(vector, dtype=float)
    scale = np.max(np.abs(v))
    lead = len(v) - 1
    while lead > 0 and abs(v[lead]) <= 1e-10 * scale:
        lead -= 1
    return tuple(v[: lead + 1] / v[lead])


def qes_states(spec):
    """All exactly known bound levels of a sextic or Morse well, sorted by energy.

    A Morse level Gamma p(z) decays as x -> +inf only when b + alpha j > 0,
    z^j the lowest power of z in p; that is level n = N - j of the well, so
    the bound ones are j > N - ``bound_count``.  The Morse block maps
    z^j..z^N into themselves, so only that part of it is solved.  Below it
    lie the levels that do not decay, and, at b < 0, diagonal entries that
    coincide and leave the whole block defective.
    """
    block = qes_block(spec)
    low = max(0, len(block) - spec.bound_count) if isinstance(spec, Morse) else 0
    if low == len(block):
        raise SpectrumExhaustedError("the well supports no bound states")
    values, vectors = np.linalg.eig(block[low:, low:])
    vectors = np.vstack((np.zeros((low, len(values))), vectors))
    worst = float(np.max(np.abs(values.imag)))
    if worst > 1e-9 * (1.0 + float(np.max(np.abs(values.real)))):
        raise AccuracyError("algebraic block produced a complex eigenvalue", achieved=worst)
    return [
        QesState(spec, _monic(vectors[:, idx].real), float(values.real[idx]))
        for idx in np.argsort(values.real)
    ]


def _scaled_residual(potential, energy, values, scale):
    """max |(-1/2) f'' + (V - E) f| / scale, for V and the values (f, f', f'') on one grid."""
    f, _, d2f = values
    residual = -0.5 * d2f + (potential - energy) * f
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
    return _scaled_residual(evaluate(state.well, grid), state.energy, values, scale)


def _nodeless_or_raise(poly):
    coeffs = np.asarray(poly, dtype=float)
    roots = np.roots(coeffs[::-1])
    for r in roots:
        if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real)) and r.real > 1e-12:
            raise SeedError(
                "seed polynomial has a node at z = %.6g inside the physical "
                "half-line; only nodeless seeds factorize the well" % r.real
            )


def _compose(chain, values):
    """Push (f, f', [f'', [f''']]) through A1+ with the seed chain (W, W', W'').

    The analytic derivatives pass through the operator as

        phi   = (-f'   + W f) / sqrt 2
        phi'  = (-f''  + W' f + W f') / sqrt 2
        phi'' = (-f''' + W'' f + 2 W' f' + W f'') / sqrt 2
    """
    if len(values) < 2:
        raise DomainError("need at least the value and first derivative")
    w, w1, w2 = chain
    out = [(-values[1] + w * values[0]) / _SQRT2]
    if len(values) >= 3:
        out.append((-values[2] + w1 * values[0] + w * values[1]) / _SQRT2)
    if len(values) >= 4:
        out.append(
            (-values[3] + w2 * values[0] + 2.0 * w1 * values[1] + w * values[2])
            / _SQRT2
        )
    return tuple(out)


def darboux(seed):
    """Validate a nodeless exactly known seed and return its ``SusyPartner``.

    The partner potential is V - (ln u)'' for seed wavefunction u; for the
    exponential family it coincides with the same family at index N-1
    shifted up by the first level spacing (see susy_partner_closed_form).
    An exponential-family seed must be the ground state z^N at integer N:
    its polynomial is replaced by exactly z^N, since an eigenvector's lower
    coefficients are only rounding noise.  ``factorize`` applies the
    seed's operator.
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
    return SusyPartner(GaugeState(seed.well, poly))


@dataclass(frozen=True, eq=False)
class Factorization:
    """A factorization sampled on one grid.

    ``v0`` and ``v1`` hold the well and its partner at the points ``grid``,
    and ``chain`` the seed's (W, W', W'') there, each evaluated once.
    """

    partner: SusyPartner
    grid: np.ndarray
    v0: np.ndarray
    chain: tuple
    v1: np.ndarray

    def image(self, values):
        """Map a state's (f, f', [f'', [f''']]) on the grid to (phi, [phi', [phi'']])."""
        return _compose(self.chain, values)

    def residual(self, state):
        """Partner-well Schrodinger residual of the image of ``state``.

        ``state`` is an exact level of the seed's well.  The check is that
        its image solves the partner well at the same energy:
        max |(-1/2) phi'' + (V1 - E) phi| / max |phi|.  A seed image that is
        annihilated (max |phi| < 1e-12 max |psi|) returns NaN as the
        degenerate-image signal rather than raising.
        """
        if state.well != self.partner.base:
            raise DomainError("the state and the seed solve different wells")
        values = state.derivatives(self.grid, 3)
        phi = self.image(values)
        scale = float(np.max(np.abs(phi[0])))
        if scale < 1e-12 * float(np.max(np.abs(values[0]))):
            return math.nan
        return _scaled_residual(self.v1, state.energy, phi, scale)


def factorize(seed, grid):
    """``darboux`` of the seed, sampled on the grid: a :class:`Factorization`."""
    partner = darboux(seed)
    grid = np.asarray(grid, dtype=float)
    return Factorization(partner, grid, *_partner_values(partner.seed, grid))


def morse_exact_spectrum(spec, n_max):
    """Bound energies E_n = alpha n (2 beta - alpha n) / 2 of a Morse well, n = 0..n_max < bound_count."""
    n_max = _as_int(n_max, "n_max")
    alpha, beta = spec.alpha, spec.beta
    if n_max >= spec.bound_count:
        raise SpectrumExhaustedError(
            "level %d lies beyond the bound band: the well has %d bound states"
            % (n_max, spec.bound_count)
        )
    n = np.arange(n_max + 1, dtype=float)
    return [float(v) for v in 0.5 * alpha * n * (2.0 * beta - alpha * n)]
