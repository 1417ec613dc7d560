"""Finite algebraic blocks of quasi-exactly-solvable wells.

For the sextic and exponential (Morse-type) families, a gauge rotation
turns the Schrodinger operator into a differential operator that
preserves polynomials up to a finite degree N.  Restricting to the
monomial basis {1, z, ..., z^N} gives a small matrix whose eigenpairs
deliver N+1 exact levels: energies from the eigenvalues, wavefunctions
from (gauge factor) x (eigen-polynomial).

The same ground-state data drives first-order Darboux factorization:
A1+ = (1/sqrt 2)(-d/dx + W) with W the seed's logarithmic derivative
maps eigenstates of the original well onto eigenstates of the partner
well V - W', and annihilates the seed itself.  Every x-derivative is
exact: a state's derivatives are its gauge factor times the polynomials
of the family's derivative chain (``potentials.sextic_chain`` or
``potentials.morse_chain``), the same recurrence that gives the seed's
log-derivatives W, W' and W''.  No finite differences appear anywhere.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (
    AccuracyError,
    DomainError,
    RangeOverflowError,
    SeedError,
    SpectrumExhaustedError,
)
from .potentials import (
    SEXTICS,
    Morse,
    MorseGround,
    SexticGround,
    SusyPartner,
    _as_int,
    evaluate,
    morse_chain,
    seed_log_derivatives,
    sextic_chain,
)

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class QesMatrix:
    """Algebraic block of a gauge-rotated well on the monomial basis."""

    dim: int
    entries: np.ndarray
    family: str
    gauge: tuple


@dataclass(frozen=True, eq=False)
class QesState:
    """One exactly known level: energy, polynomial factor, evaluators.

    ``poly`` holds ascending coefficients of the polynomial factor in the
    algebraic variable z (z = x^2 for the sextic family, z = e^{-alpha x}
    for the exponential family), normalized so the highest-degree
    coefficient is +1.  ``derivatives`` evaluates the full wavefunction
    and its first few x-derivatives in closed form.
    """

    energy: float
    poly: tuple
    family: str
    gauge: tuple
    chain: tuple = field(repr=False)

    def derivatives(self, x, order=2):
        """Wavefunction and x-derivatives up to ``order`` (max 3) on ``x``."""
        if order < 0 or order > 3:
            raise DomainError("derivative order must lie in 0..3")
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise DomainError("evaluation points must be finite")
        if self.family == "sextic":
            nu, mu, _ = self.gauge
            log_gauge = -0.25 * nu * x**4 - 0.5 * mu * x * x
            gauge = np.exp(log_gauge)
            return tuple(
                gauge * np.polyval(self.chain[k][::-1], x) for k in range(order + 1)
            )
        a, b, alpha, n_index = self.gauge
        top_degree = len(self.chain[-1]) - 1
        safe = 600.0 / max(top_degree, 1)
        if np.any(-alpha * x > safe):
            raise RangeOverflowError(
                "gauge factor overflows left of x = %.3f; restrict the grid"
                % (-safe / alpha)
            )
        z = np.exp(-alpha * x)
        gauge = np.exp(-(a / alpha) * z - b * x)
        return tuple(
            gauge * np.polyval(self.chain[k][::-1], z) for k in range(order + 1)
        )


def _apply_sextic_h0_poly(n_index, nu, mu, coeffs):
    """Apply the gauge-rotated sextic operator to a z-polynomial.

    The operator is -2 z d^2 + (2 nu z^2 + 2 mu z - 1) d - 2 N nu z + mu/2
    acting on ascending coefficient arrays.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    k = np.arange(len(coeffs))
    out = np.zeros(len(coeffs) + 1)
    out[: len(coeffs)] += (2.0 * mu * k + 0.5 * mu) * coeffs
    out[1:] += 2.0 * nu * (k - n_index) * coeffs
    if len(coeffs) > 1:
        out[: len(coeffs) - 1] -= (k[1:] * (2.0 * k[1:] - 1.0)) * coeffs[1:]
    return out


def _apply_morse_h0_poly(n_index, a, b, alpha, coeffs):
    """Apply the gauge-rotated exponential-well operator to a z-polynomial.

    The operator is -(alpha^2/2) z^2 d^2 - alpha (b + alpha/2) z d
    + a alpha z^2 d - a alpha N z + (beta^2 - b^2)/2 with beta = N alpha + b;
    on z^k the diagonal part collapses to (beta^2 - (alpha k + b)^2)/2.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    beta = Morse(a, b, alpha, n_index).beta
    k = np.arange(len(coeffs))
    out = np.zeros(len(coeffs) + 1)
    out[: len(coeffs)] += 0.5 * (beta * beta - (alpha * k + b) ** 2) * coeffs
    out[1:] += a * alpha * (k - n_index) * coeffs
    return out


def _h0_matrix(dim, apply_poly, family, gauge):
    """Block whose column k is ``apply_poly`` of z^k, truncated to the dim monomials."""
    entries = np.zeros((dim, dim))
    for k in range(dim):
        column = np.zeros(dim)
        column[k] = 1.0
        entries[:, k] = apply_poly(column)[:dim]
    return QesMatrix(dim=dim, entries=entries, family=family, gauge=gauge)


def sextic_h0_matrix(n_index, nu=1.0, mu=1.0):
    """Algebraic block of the sextic well on monomials of degree <= N."""
    n_index = _as_int(n_index, "N")
    nu = float(nu)
    mu = float(mu)
    if nu <= 0.0:
        raise DomainError("leading strength nu must be positive")
    return _h0_matrix(
        n_index + 1,
        lambda c: _apply_sextic_h0_poly(n_index, nu, mu, c),
        "sextic",
        (nu, mu, float(n_index)),
    )


def morse_h0_matrix(n_index, a, b, alpha):
    """Algebraic block of the exponential well on monomials of degree <= N."""
    n_index = _as_int(n_index, "N")
    a = float(a)
    b = float(b)
    alpha = float(alpha)
    if a <= 0.0 or alpha <= 0.0:
        raise DomainError("scale parameters a and alpha must be positive")
    return _h0_matrix(
        n_index + 1,
        lambda c: _apply_morse_h0_poly(n_index, a, b, alpha, c),
        "morse",
        (a, b, alpha, float(n_index)),
    )


def sl2_generators(n_index, dim=None):
    """Raising, weight, and lowering matrices on monomials.

    The action is J+ z^k = (k - N) z^{k+1}, J0 z^k = (k - N/2) z^k,
    J- z^k = k z^{k-1}; on the first N+1 monomials J+ truncates exactly
    because its coefficient vanishes at k = N.
    """
    n_index = _as_int(n_index, "N")
    if n_index < 0:
        raise DomainError("N must be non-negative")
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


def morse_lie_form_check(n_index, a, b, alpha):
    """Max deviation between the exponential-well block and its bilinear form.

    The block equals -(alpha^2/2) J+ J- + a alpha J+
    - (alpha/2)(2b + alpha(N+1)) D + (2c - b^2)/2 with c = (N alpha + b)^2 / 2,
    where D is the plain degree operator (diag k), i.e. the weight generator
    with its -N/2 offset removed.  Returns the max absolute entry difference.
    """
    n_index = _as_int(n_index, "N")
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
    return float(np.max(np.abs(bilinear - morse_h0_matrix(n_index, a, b, alpha).entries)))


def _monic(vector):
    v = np.asarray(vector, dtype=float)
    scale = np.max(np.abs(v))
    lead = len(v) - 1
    while lead > 0 and abs(v[lead]) <= 1e-10 * scale:
        lead -= 1
    return tuple(v[: lead + 1] / v[lead])


def qes_states(spec):
    """All exactly known levels of a quasi-solvable well, sorted by energy."""
    if isinstance(spec, SEXTICS):
        block = sextic_h0_matrix(spec.N, spec.nu, spec.mu)
    elif isinstance(spec, Morse):
        block = morse_h0_matrix(spec.N, spec.a, spec.b, spec.alpha)
    else:
        raise DomainError(
            "no finite algebraic block for potential family %r" % type(spec).__name__
        )
    values, vectors = np.linalg.eig(block.entries)
    worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if worst > 1e-9 * (1.0 + float(np.max(np.abs(values.real)))):
        raise AccuracyError(
            "algebraic block produced a complex eigenvalue", achieved=worst
        )
    order = np.argsort(values.real)
    states = []
    for idx in order:
        poly = _monic(vectors[:, idx].real)
        if block.family == "sextic":
            chain = sextic_chain(poly, block.gauge[0], block.gauge[1])
        else:
            chain = morse_chain(poly, block.gauge[0], block.gauge[1], block.gauge[2])
        states.append(
            QesState(
                energy=float(values.real[idx]),
                poly=poly,
                family=block.family,
                gauge=block.gauge,
                chain=tuple(tuple(c) for c in chain),
            )
        )
    return states


def residual_check(spec, state, grid):
    """Scaled Schrodinger residual of an exactly known level on a grid.

    Returns max |(-1/2) psi'' + (V - E) psi| / max |psi| using the
    closed-form derivative evaluators.
    """
    grid = np.asarray(grid, dtype=float)
    psi, _, d2psi = state.derivatives(grid, 2)
    scale = float(np.max(np.abs(psi)))
    if scale == 0.0:
        raise DomainError("state vanishes identically on the supplied grid")
    v = evaluate(spec, grid)
    residual = -0.5 * d2psi + (v - state.energy) * psi
    return float(np.max(np.abs(residual))) / scale


def _nodeless_or_raise(poly):
    coeffs = np.asarray(poly, dtype=float)
    if len(coeffs) <= 1:
        return
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

    seed: object

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


def darboux(spec, seed):
    """Factorize a well through a nodeless exactly known seed state.

    Returns (partner_spec, A1Plus).  The partner potential is
    V - (ln u)'' for seed wavefunction u; for the exponential family it
    coincides with the same family at index N-1 shifted up by the first
    level spacing (see susy_partner_closed_form).
    """
    _nodeless_or_raise(seed.poly)
    if isinstance(spec, SEXTICS) and seed.family == "sextic":
        seed_spec = SexticGround(N=int(spec.N), poly=seed.poly, nu=spec.nu, mu=spec.mu)
    elif isinstance(spec, Morse) and seed.family == "morse":
        coeffs = np.asarray(seed.poly, dtype=float)
        if len(coeffs) != int(spec.N) + 1 or (
            len(coeffs) > 1 and np.max(np.abs(coeffs[:-1])) > 1e-8
        ):
            raise SeedError(
                "exponential-family factorization requires the pure power "
                "ground polynomial z^N"
            )
        seed_spec = MorseGround(N=int(spec.N), a=spec.a, b=spec.b, alpha=spec.alpha)
    else:
        raise DomainError("seed family does not match the potential family")
    return SusyPartner(base=spec, seed=seed_spec), A1Plus(seed=seed_spec)


def intertwining_residual(spec, seed, state, grid):
    """Partner-well Schrodinger residual of a mapped state.

    Applies the factorization operator to ``state`` and checks that the
    image solves the partner well at the same energy:
    max |(-1/2) phi'' + (V1 - E) phi| / max |phi|.  A seed image that is
    annihilated (max |phi| < 1e-12 max |psi|) returns NaN as the
    degenerate-image signal rather than raising.
    """
    grid = np.asarray(grid, dtype=float)
    partner, operator = darboux(spec, seed)
    psi = state.derivatives(grid, 0)[0]
    phi, _, d2phi = operator.apply_state(state, grid, order=2)
    phi_scale = float(np.max(np.abs(phi)))
    if phi_scale < 1e-12 * float(np.max(np.abs(psi))):
        return math.nan
    v1 = evaluate(partner, grid)
    residual = -0.5 * d2phi + (v1 - state.energy) * phi
    return float(np.max(np.abs(residual))) / phi_scale


def apply_A1_plus_wronskian(seed_poly, state_poly):
    """Wronskian polynomial p' P - p P' of seed and state polynomials.

    Together with the original gauge factor this assembles the pointwise
    image of the factorization operator:
    (A1+ psi)(x) = sqrt 2 * x * Gamma(x) * w(x^2) / p(x^2).
    """
    p = np.asarray(seed_poly, dtype=float)
    big_p = np.asarray(state_poly, dtype=float)
    dp = p[1:] * np.arange(1, len(p)) if len(p) > 1 else np.zeros(1)
    d_big = big_p[1:] * np.arange(1, len(big_p)) if len(big_p) > 1 else np.zeros(1)
    first = np.convolve(dp, big_p) if dp.any() else np.zeros(1)
    second = np.convolve(p, d_big) if d_big.any() else np.zeros(1)
    n = max(len(first), len(second))
    out = np.zeros(n)
    out[: len(first)] += first
    out[: len(second)] -= second
    while len(out) > 1 and out[-1] == 0.0:
        out = out[:-1]
    return tuple(out)


def morse_exact_spectrum(a, b, alpha, n_max):
    """Bound energies E_n = alpha n (2b - alpha n) / 2 for n = 0..n_max."""
    a = float(a)
    b = float(b)
    alpha = float(alpha)
    n_max = _as_int(n_max, "n_max")
    if a <= 0.0 or alpha <= 0.0:
        raise DomainError("scale parameters a and alpha must be positive")
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    if n_max >= b / alpha:
        raise SpectrumExhaustedError(
            "level %d lies beyond the bound band (need n < b/alpha = %.6g)"
            % (n_max, b / alpha)
        )
    n = np.arange(n_max + 1, dtype=float)
    return [float(v) for v in 0.5 * alpha * n * (2.0 * b - alpha * n)]
