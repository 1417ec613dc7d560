"""Bound-state eigensolver for H = -1/2 d^2/dx^2 + V(x) on spectral meshes.

Two discretizations are provided, both yielding dense symmetric matrices:

* an oscillator mesh (scaled Gauss-Hermite points with the kinetic matrix
  projected from the harmonic-oscillator basis), suited to confining
  polynomial potentials whose eigenfunctions decay like a Gaussian.  Its
  points, weights and basis rows come from the three-term Hermite
  recurrence and its kinetic matrix from a closed form, in O(M^2);
* a uniform grid with a sine-basis (particle-in-a-box) kinetic matrix,
  suited to the Morse well whose eigenfunctions decay only exponentially
  toward the dissociation side.

The oscillator mesh is reflection-symmetric and serves only reflection-even
wells, so its Hamiltonian splits into an even and an odd block of half the
size, solved apart (Baye, Phys. Rep. 565 (2015) 1).  Both meshes end where
the WKB decay exponent of the top requested level reaches a target: 40 at
the edge of the starting oscillator mesh, whose scale is fixed once per
spectrum.  Each mesh starts at the size its states need: 64 oscillator
points plus two per requested state, or six uniform points per shortest
classical wavelength.  Every dense solve is a
full symmetric eigensolve through NumPy's LAPACK, of which the lowest
eigenpairs are kept.

Every solve certifies itself from the tail of its eigenvectors' spectral
expansion (Boyd, Chebyshev and Fourier Spectral Methods, 2001, sec. 2.12):
the Hermite-function coefficients on the oscillator mesh, the sine (DST-I)
coefficients on the uniform grid.  A resolved state has negligible weight
in the top eighth of the basis (at least 16 functions).  Its energy error
is bounded by _TAIL_SAFETY times the square of its largest coefficient
there, times max(1, |E|), a map tested on under-resolved solves.  On the
uniform grid the bound adds a wall term for each hard wall, the shift that
cutting the decaying tail off there puts on the level, read from the node
next to the wall.  No bound is taken below the rounding floor
eps ||H||_inf of the matrices solved.  The Morse box is sized from the
requested tolerance: the node next to each wall sits where the top level's
WKB decay exponent makes its wall term a few percent of that tolerance.  One
refinement loop serves both meshes: it grows the basis size by steps of
about 5/4 at that fixed scale (or box), never past the size cap, only
while some state's certificate is not below the requested tolerance, and
keeps the eigenvectors of its last solve.  A wall term at or above the
tolerance stops it at once, since a finer grid in the same box does not
lower it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    MeshError,
    NodePlacementError,
    SearchError,
    SpectrumExhaustedError,
    UnsupportedParameterError,
)
from .potentials import (
    EVEN_WELLS,
    Morse,
    SexticGeneral,
    SexticReduced,
    SusyPartner,
    evaluate,
)

__all__ = [
    "Mesh",
    "Spectrum",
    "oscillator_mesh",
    "uniform_mesh",
    "build_hamiltonian",
    "lowest_eigen",
    "critical_N",
    "count_sign_changes",
]

OSCILLATOR = "oscillator-mesh"
UNIFORM = "uniform-grid"

_M_CAP_DEFAULT = 2048
_MIN_SIZE = 8
# An oscillator mesh starts at _START_BASE points plus _START_PER_STATE per
# requested state.  The first solve at that size, at a scale fitted to it,
# certified to 1e-10 every spectrum tried, of 1 to 130 levels of the
# reduced sextic at N = 0 to 3, the harmonic well, a double well and a
# factorization partner; the smallest size that did so was 34 to 50 points
# for one level and 108 to 120 for 51 levels.
_START_BASE = 64
_START_PER_STATE = 2
# A Morse grid is never started smaller than for this many levels, nor at
# fewer than _MORSE_MIN_SIZE points.  Below that size the 16 tail modes are
# over a quarter of the basis, and the tail bound of a resolved state sits far
# above its error: 1.4e-5 against 2.5e-10 for the three lowest levels of the
# Morse (1, 8, sqrt 2, 0) well at the 47 points of their box at tol 1e-9.
_MORSE_MIN_LEVELS = 4
_MORSE_MIN_SIZE = 64

# WKB decay exponent of the top requested level at the edge of the starting
# oscillator mesh: exp(-40) ~ 4e-18 puts the truncated tail below rounding.
_EDGE_DECAY = 40.0

_SEARCH_STEPS = 60

# Halley steps allowed for the Gauss-Hermite points (two or three are taken), and
# the size past which the Hermite recurrence rescales its values.
_NODE_STEPS = 8
_RESCALE = 1e120

# The energy bound of a state is _TAIL_SAFETY tail^2 max(1, |E|), with tail
# the largest |coefficient| among the top _tail_count(M) functions of its
# basis expansion.  On the 55 under-resolved solves of
# test_certificate_bounds_the_error whose bound is under 1e-4, tail^2
# max(1, |E|) alone falls up to 8.5 times below the error; ten times it
# stays above the error by a factor of 1.18 or more, and three times does not.
_TAIL_SAFETY = 10.0
# A small mesh reads its tail from at least this many top functions, not
# from the two or three of its top eighth.
_TAIL_MIN_MODES = 16
# The wall term of a state on the uniform grid is _WALL_SAFETY psi^2 /
# (4 kappa h^2) at each wall, with psi its quadrature-normalized value at the
# node next to the wall, kappa = sqrt(2 (V - E)) there and h the spacing.
# On 118 solves of the ten Morse wells of the tests, at the spacing of their
# certified spectra, with one wall moved in until its error dominates some
# state's, that error is 0.99 to 1.0 times the estimate at the right wall.
# At the steep left wall the estimate is mostly 1.6 to 10 times the error,
# which is at most 1.001 times it.  Twice the estimate keeps the bound clear
# of the error, with room for the grid's own.
_WALL_SAFETY = 2.0
# Each wall of a Morse box sits where the top level's WKB decay exponent
# reaches (ln(1/tol) + _WALL_EXTRA) / 2, so that its wall term, which falls
# like exp(-2 exponent), lands near exp(-_WALL_EXTRA) tol.
_WALL_EXTRA = 3.0
_EPS = np.finfo(float).eps


def _tail_count(M):
    """Number of top basis functions that make up the tail of an M-point mesh."""
    return min(M, max(M // 8, _TAIL_MIN_MODES))


@dataclass(frozen=True, eq=False)
class Mesh:
    """Discretization points plus the data needed to rebuild the kinetic matrix.

    ``h`` is the oscillator length scale for the oscillator mesh and the
    grid spacing for the uniform grid.
    """

    kind: str
    size: int
    h: float
    nodes: np.ndarray

    def __post_init__(self):
        if self.kind not in (OSCILLATOR, UNIFORM):
            raise MeshError(f"unknown mesh kind {self.kind!r}")
        if self.size < _MIN_SIZE:
            raise MeshError(f"mesh size must be at least {_MIN_SIZE}, got {self.size}")
        if not (self.h > 0):
            raise MeshError(f"mesh scale must be positive, got {self.h}")
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.shape != (self.size,):
            raise MeshError("nodes must be a vector of length size")
        if np.any(np.diff(nodes) <= 0):
            raise MeshError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted bound-state energies with eigenfunction node values.

    ``eigenvectors[:, n]`` holds the values of state n at ``mesh.nodes``,
    normalized under the mesh quadrature rule, with the sign fixed so the
    first non-negligible node value is positive.  ``refinement_deltas``
    holds one certificate per solve, in order: the largest per-state energy
    error bound of that solve, from its eigenvector tails, its wall terms
    (uniform grid only) and its rounding floor.  ``converged_digits[n]`` is
    the number of significant digits of E_n that the last certificate
    vouches for, relative to max(1, |E_n|).
    """

    energies: np.ndarray
    eigenvectors: np.ndarray
    mesh: Mesh
    converged_digits: np.ndarray
    refinement_deltas: tuple = field(default=())


class _HermiteData(NamedTuple):
    """What the oscillator mesh of size M needs, built once per size."""

    t: np.ndarray  # Gauss-Hermite points, exactly symmetric
    kin: np.ndarray  # kinetic matrix on the mesh at unit scale
    logw: np.ndarray  # log mesh weights
    tail: np.ndarray  # the last _tail_count(M) rows of the basis V


@lru_cache(maxsize=6)
def _hermite_data(M):
    """Gauss-Hermite points, the kinetic matrix, log mesh weights, and the
    tail rows of the Hermite-function basis of the size-M oscillator mesh.

    The kinetic matrix is the second-derivative operator of the oscillator
    eigenbasis projected onto the mesh, T = -1/2 V^T D2 V, where D2 has
    -(n + 1/2) on the diagonal and sqrt(m (m-1))/2 two off.  On the zeros of
    H_M that projection has the closed form T_ii = (4M - 1 - 2 t_i^2) / 12,
    T_ij = (-1)^(i-j) (1 / (t_i - t_j)^2 - 1/4) (Baye, Phys. Rep. 565
    (2015) 1), so no M x M product is formed.  Its signs belong to the
    column signs of V that _hermite_mesh fixes.
    """
    t, tail, logw = _hermite_mesh(M, _tail_count(M))
    diff = np.subtract.outer(t, t)
    np.fill_diagonal(diff, 1.0)
    kin = 1.0 / (diff * diff) - 0.25
    alternating = (-1.0) ** np.arange(M)
    kin *= np.outer(alternating, alternating)
    np.fill_diagonal(kin, (4.0 * M - 1.0 - 2.0 * t * t) / 12.0)
    return _HermiteData(t, kin, logw, tail)


def _hermite_mesh(M, rows):
    """Gauss-Hermite points t, the last ``rows`` rows of the basis V, and log mesh weights.

    Column j of V holds sqrt(w_j) q_n(t_j), n = 0..M-1, with q_n the
    orthonormal Hermite polynomials and w_j the Gauss weights; V is
    orthogonal, so V c holds the Hermite-function coefficients of a unit
    node vector c.  The points are the zeros of q_M, taken by Halley steps
    from Tricomi's asymptotic zeros (Townsend, Trogdon & Olver, IMA J.
    Numer. Anal. 36 (2016) 337), which start within 1e-3 of their spacing
    at every M; each step walks the recurrence of _hermite_walk, and a
    step below 1e-6 of the spacing leaves the next one under rounding.
    Only the non-negative points are walked, and t_{M-1-j} = -t_j is
    exact, so the mesh reflects onto itself and the parity blocks are
    exact.

    One more walk at the converged points gives the rest.  With the
    Christoffel-Darboux identity, sum_{n<M} q_n(t_j)^2 = M q_{M-1}(t_j)^2 at
    a zero of q_M, so the mesh weight lambda_j = w_j exp(t_j^2) is
    1 / (M phi_{M-1}(t_j)^2) and V[n, j] = phi_n(t_j) / phi_{M-1}(t_j)
    times +-1/sqrt(M), phi_n the oscillator functions.  The column signs
    make V[M-1, j] = (-1)^(M-1-j) / sqrt(M), the sign of q_{M-1}(t_j) with
    q_0 > 0, since the zeros of q_{M-1} interlace with the points.
    """
    half = M // 2
    nu = 2.0 * M + 1.0
    # Tricomi: the k-th largest zero is near sqrt(nu c - ...), c = cos^2(theta/2),
    # with theta - sin(theta) = (4k - 1) pi / nu (Gatteschi, J. Comput. Appl.
    # Math. 144 (2002) 7).
    rhs = np.pi * (4.0 * np.arange(half, 0, -1) - 1.0) / nu
    theta = np.full(half, 0.5 * np.pi)
    for _ in range(10):
        theta -= (theta - np.sin(theta) - rhs) / (1.0 - np.cos(theta))
    c = np.cos(0.5 * theta) ** 2
    x = np.sqrt(nu * c - (1.25 / (1.0 - c) ** 2 - 1.0 / (1.0 - c) - 0.25) / (3.0 * nu))
    x = np.concatenate((np.zeros(M % 2), x))
    spacing = np.pi / math.sqrt(nu)
    for _ in range(_NODE_STEPS):
        below, phi_m, _ = _hermite_walk(x, M, 1)
        # r = q_M / q_M', and q_M'' = 2 t q_M' - 2 M q_M gives Halley's step
        r = phi_m / (math.sqrt(2.0 * M) * below[0])
        step = r / (1.0 - x * r + M * r * r)
        x = x - step
        if np.max(np.abs(step)) < 1e-6 * spacing:
            break
    else:
        raise MeshError(f"Gauss-Hermite points of size {M} did not converge")
    kept, _, log_scale = _hermite_walk(x, M, rows)
    last = kept[-1]
    logw = -math.log(M) - 2.0 * (np.log(np.abs(last)) + log_scale)
    ratio = kept / last
    # phi_n(-t) / phi_{M-1}(-t) = (-1)^(n-M+1) phi_n(t) / phi_{M-1}(t)
    mirror = (-1.0) ** np.arange(rows - 1, -1, -1)[:, None] * ratio[:, M % 2 :][:, ::-1]
    t = np.concatenate((-x[M % 2 :][::-1], x))
    basis = np.hstack((mirror, ratio)) * ((-1.0) ** np.arange(M - 1, -1, -1) / math.sqrt(M))
    return t, basis, np.concatenate((logw[M % 2 :][::-1], logw))


def _hermite_walk(x, M, rows):
    """The oscillator functions phi_n at the points x, for the last ``rows``
    n < M and for n = M, each point's values divided by exp(its log scale).

    phi_0 = pi^(-1/4) exp(-x^2/2) and phi_{n+1} = sqrt(2/(n+1)) x phi_n -
    sqrt(n/(n+1)) phi_{n-1}.  The Gaussian starts in the log scale, and
    every eighth step the values past _RESCALE are divided by it and the
    log scale raised, so that no value underflows or overflows at any M.
    Returns the kept rows, phi_M and the log scale.
    """
    n = np.arange(1.0, M + 1.0)
    up, down = np.sqrt(2.0 / n), np.sqrt((n - 1.0) / n)
    f_prev, f = np.zeros_like(x), np.full_like(x, np.pi**-0.25)
    log_scale = -0.5 * x * x
    kept = np.empty((rows, x.size))
    first = M - rows
    for i in range(M):
        if i >= first:
            kept[i - first] = f
        f_prev, f = f, up[i] * x * f - down[i] * f_prev
        if i % 8 == 7:
            big = np.abs(f) > _RESCALE
            if np.any(big):
                f[big] /= _RESCALE
                f_prev[big] /= _RESCALE
                kept[: max(i - first + 1, 0), big] /= _RESCALE
                log_scale[big] += math.log(_RESCALE)
    return kept, f, log_scale


def oscillator_mesh(M, h):
    """Scaled Gauss-Hermite mesh x_i = h t_i."""
    t = _hermite_data(int(M)).t
    return Mesh(kind=OSCILLATOR, size=int(M), h=float(h), nodes=float(h) * t)


def uniform_mesh(M, x_left, x_right):
    """Uniform interior grid of a hard-wall box [x_left, x_right]."""
    if not x_right > x_left:
        raise MeshError("x_right must exceed x_left")
    M = int(M)
    spacing = (x_right - x_left) / (M + 1)
    nodes = x_left + spacing * np.arange(1, M + 1)
    return Mesh(kind=UNIFORM, size=M, h=spacing, nodes=nodes)


def _sine_kinetic(M, spacing):
    """Kinetic matrix -1/2 d^2/dx^2 of the sine (hard-wall box) basis on M interior points.

    Entry (i, j) depends on i - j and i + j only, so 1/sin^2(pi d / 2n) is
    tabulated once, for d = 1 - M .. 2M, and gathered by those two indices:
    O(M) sine calls instead of 2 M^2.
    """
    L = spacing * (M + 1)
    n = M + 1
    i = np.arange(1, M + 1)
    pre = 0.25 * np.pi**2 / L**2
    d = np.arange(1 - M, 2 * M + 1)
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sin(np.pi * d / (2 * n)) ** 2
    signed = np.where(d % 2 == 0, pre, -pre)
    # table index M - 1 holds d = 0; with 0-based rows and columns the
    # difference part reads d = i - j and the sum part d = i + j + 2
    index = np.arange(M)
    diff = np.subtract.outer(index, index) + (M - 1)
    kin = signed[diff] * (inv[diff] - inv[np.add.outer(index, index) + (M + 1)])
    kin[np.arange(M), np.arange(M)] = pre * ((2.0 * n**2 + 1.0) / 3.0 - 1.0 / np.sin(np.pi * i / n) ** 2)
    return kin


def eigh(matrix, eigvals_only=False):
    """Ascending eigenvalues of a dense symmetric matrix and, unless
    ``eigvals_only``, its orthonormal eigenvectors as columns.

    Every dense solve of the module goes through this one function (LAPACK
    through NumPy), so that a caller can count or time them.
    """
    if eigvals_only:
        return np.linalg.eigvalsh(matrix)
    return np.linalg.eigh(matrix)


def _potential_at_nodes(spec, mesh):
    v = evaluate(spec, mesh.nodes)
    if not np.all(np.isfinite(v)):
        raise NodePlacementError("potential is not finite at every mesh node")
    return v


def build_hamiltonian(spec, mesh):
    """Dense symmetric Hamiltonian T + diag(V(x_i)) for the given mesh."""
    v = _potential_at_nodes(spec, mesh)
    if mesh.kind == OSCILLATOR:
        data = _hermite_data(mesh.size)
        if abs(mesh.nodes[0] / mesh.h - data.t[0]) > 1e-9 * max(1.0, abs(data.t[0])):
            raise MeshError("oscillator mesh nodes are not scaled Gauss-Hermite points")
        ham = data.kin / mesh.h**2 + np.diag(v)
    else:
        ham = _sine_kinetic(mesh.size, mesh.h) + np.diag(v)
    return 0.5 * (ham + ham.T)


def _is_even(spec):
    """Whether the spec's type guarantees V(-x) = V(x)."""
    if isinstance(spec, EVEN_WELLS):
        return True
    return isinstance(spec, SusyPartner) and isinstance(spec.base, SexticGeneral)


def _parity_block(spec, mesh, sign):
    """Even (sign = +1) or odd (sign = -1) block A + sign B J of an oscillator Hamiltonian.

    With m = M/2, A = H[:m, :m] and B J = H[:m, m:][:, ::-1]; a state of that
    parity is [u; sign u[::-1]] / sqrt(2), with u an eigenvector of the block.
    """
    kin = _hermite_data(mesh.size).kin
    m = mesh.size // 2
    block = kin[:m, :m] + sign * kin[:m, m:][:, ::-1]
    block /= mesh.h**2
    block[np.diag_indices(m)] += _potential_at_nodes(spec, mesh)[:m]
    return block


def _solve_parity(spec, mesh, k):
    """k lowest eigenpairs from the two parity blocks, merged by energy,
    and the larger infinity-norm of the blocks solved.

    State n has parity (-1)^n (oscillation theorem), so the even block
    supplies ceil(k/2) levels and the odd block floor(k/2).
    """
    energies, vectors, norm = [], [], 0.0
    for sign, count in ((1.0, (k + 1) // 2), (-1.0, k // 2)):
        if count == 0:
            continue
        block = _parity_block(spec, mesh, sign)
        norm = max(norm, np.linalg.norm(block, np.inf))
        e, u = eigh(block)
        energies.append(e[:count])
        vectors.append(np.vstack((u[:, :count], sign * u[::-1, :count])) / math.sqrt(2.0))
    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")
    return energies[order], np.hstack(vectors)[:, order], norm


def _tail_rows(mesh):
    """Rows of the top _tail_count(size) basis functions in the orthogonal
    map from unit node vectors to basis coefficients: Hermite functions on
    the oscillator mesh, the DST-I sine modes on the uniform grid."""
    if mesh.kind == OSCILLATOR:
        return _hermite_data(mesh.size).tail
    M = mesh.size
    modes = np.arange(M - _tail_count(M) + 1, M + 1)
    return math.sqrt(2.0 / (M + 1)) * np.sin(np.outer(modes, np.arange(1, M + 1)) * (np.pi / (M + 1)))


def _bounded_solve(spec, mesh, k):
    """k lowest energies on one mesh, quadrature-normalized node values, the
    per-state tail bounds _TAIL_SAFETY tail^2 max(1, |E|), the per-state
    wall terms (zero on the oscillator mesh), and the rounding floor
    eps ||H||_inf of the matrices solved."""
    if mesh.kind == OSCILLATOR:
        energies, coeffs, norm = _solve_parity(spec, mesh, k)
        scale = np.sqrt(mesh.h * np.exp(_hermite_data(mesh.size).logw))
        wall = np.zeros(k)
    else:
        ham = build_hamiltonian(spec, mesh)
        energies, coeffs = eigh(ham)
        energies, coeffs = energies[:k], coeffs[:, :k]
        norm = np.linalg.norm(ham, np.inf)
        scale = np.full(mesh.size, math.sqrt(mesh.h))
        wall = _wall_terms(spec, mesh, energies, coeffs)
    tail = np.max(np.abs(_tail_rows(mesh) @ coeffs), axis=0)
    bounds = _TAIL_SAFETY * tail**2 * np.maximum(1.0, np.abs(energies))
    return energies, _fix_signs(coeffs / scale[:, None]), bounds, wall, _EPS * float(norm)


def _wall_terms(spec, mesh, energies, coeffs):
    """Per-state energy shift from the two hard walls of a uniform grid.

    Moving a Dirichlet wall at L out by dL lowers a level by psi'(L)^2 dL / 2.
    Beyond its turning point a state decays like exp(-kappa x), and the wall
    doubles the slope of that free tail, so pushing the wall to infinity
    lowers the level by about kappa psi_free(L)^2 = psi(L - h)^2 / (4 kappa h^2),
    psi(L - h) the node value next to the wall.  A state that is not
    classically forbidden at a wall gets an infinite term.  Each state's term
    is _WALL_SAFETY times its sum over both walls; ``coeffs`` are unit node
    vectors, psi^2 = coeffs^2 / h.
    """
    edge = evaluate(spec, mesh.nodes[[0, -1]])
    kappa = np.sqrt(2.0 * np.maximum(edge[:, None] - energies, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = coeffs[[0, -1]] ** 2 / (4.0 * kappa * mesh.h**3)
    return _WALL_SAFETY * np.where(kappa > 0.0, terms, np.inf).sum(axis=0)


def _edge_extent(spec, energy, decay, origin, reach):
    """Where the WKB exponent of ``energy``, the integral of sqrt(2 (V -
    energy)) from the last allowed point of origin + [0, reach] (left for a
    negative ``reach``), reaches ``decay``; the span doubles until it does.
    A NaN potential counts as forbidden, with a zero rate."""
    for _ in range(64):
        if not math.isfinite(origin + reach):
            break
        x = np.linspace(origin, origin + reach, 2049)
        excess = evaluate(spec, x) - energy
        allowed = np.flatnonzero(excess <= 0.0)
        kappa = np.sqrt(2.0 * np.fmax(excess, 0.0))
        if allowed.size:
            kappa[: allowed[-1] + 1] = 0.0
        step = np.diff(x) if reach > 0 else -np.diff(x)
        exponent = np.concatenate(([0.0], np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * step)))
        if exponent[-1] >= decay:
            return float(np.interp(decay, exponent, x))
        reach *= 2.0
    raise MeshError(f"no decay exponent {decay:.3g} found for energy {energy:.6g} from x = {origin:.6g}")


def _oscillator_scale(spec, M, k):
    """Oscillator scale h for a k-level spectrum that starts at mesh size M.

    A provisional scale balances the potential at the mesh edge against the
    kinetic cutoff of the basis, V(h t_max) = t_max^2 / (2 h^2), which is
    h = 1 for the harmonic well.  One parity block solved at that scale
    gives the top requested level E_{k-1}; the returned scale stretches the
    mesh to where the decay exponent of E_{k-1} reaches _EDGE_DECAY.
    """
    t_max = _hermite_data(M).t[-1]
    trial = np.geomspace(1e-3, 1e3, 601)
    with np.errstate(over="ignore", invalid="ignore"):
        balance = evaluate(spec, trial * t_max) - 0.5 * (t_max / trial) ** 2
    if not np.any(balance > 0):
        raise MeshError("no oscillator scale balances the potential against the kinetic cutoff")
    mesh = oscillator_mesh(M, trial[np.argmax(balance > 0)])
    top = (k - 1) // 2
    block = _parity_block(spec, mesh, 1.0 if k % 2 else -1.0)
    e_top = float(eigh(block, eigvals_only=True)[top])
    return _edge_extent(spec, e_top, _EDGE_DECAY, 0.0, 1.0) / t_max


def _fix_signs(vectors):
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        big = np.abs(v) > 1e-8 * np.max(np.abs(v))
        first = int(np.argmax(big))
        if v[first] < 0:
            vectors[:, col] = -v
    return vectors


def _digits(bound, energies):
    rel = bound / np.maximum(1.0, np.abs(energies))
    return np.clip(-np.log10(np.maximum(rel, 1e-16)), 0.0, 16.0)


def _morse_box(spec, k, tol):
    """Box and starting grid size for the k lowest levels of a Morse well,
    for energies certified to ``tol``.

    _edge_extent walks from the well bottom, x = -ln(c1 / 2a) / alpha, to
    each side, from a span of D / kappa, to where the WKB decay exponent of
    the top requested level n, E_n = v_inf - kappa^2 / 2 with kappa = beta -
    alpha n, reaches D = (ln(1/tol) + _WALL_EXTRA) / 2.  There sits the node
    next to each wall, where the wall term is read, and the wall one starting
    spacing further out: that term lands near exp(-_WALL_EXTRA) tol.  Between
    those nodes the grid starts at six points per shortest classical
    wavelength of level n, a Nyquist momentum pi / dx three times its largest
    classical momentum sqrt(2 (E_n - V_min)) (Colbert & Miller, J. Chem.
    Phys. 96 (1992) 1982).  This sizes the first solve, not the last.

    Box and grid are sized for at least the four lowest levels (all of them
    in a shallower well): the lowest levels carry momentum well beyond
    their classical maximum, and a ground level certifies to 1e-9 only at
    about 2.5 times its own six-points-per-wavelength size.  The grid
    starts at no fewer than _MORSE_MIN_SIZE points between the D points.

    Raises MeshError when the walks or the starting size are not finite, or
    when the square of the width or of the starting spacing overflows or
    underflows.
    """
    n = max(k, min(_MORSE_MIN_LEVELS, spec.bound_count)) - 1
    decay = 0.5 * (math.log(1.0 / tol) + _WALL_EXTRA)
    # The potential overflows far out on the walks, and NumPy scalars turn
    # an overflow, a log of zero or a division by an underflowed product into
    # inf or nan, which the checks below reject, where Python floats would raise
    a, alpha, c1 = np.float64(spec.a), np.float64(spec.alpha), np.float64(spec.c1)
    with np.errstate(all="ignore"):
        kappa = spec.beta - alpha * n
        # sqrt(c1^2 - 4 kappa^2), with c1 - 2 kappa = alpha (2n + 1); it is
        # also twice the largest classical momentum of level n
        disc = np.sqrt(alpha * (2 * n + 1) * (c1 + 2.0 * kappa))
        bottom, reach = float(-np.log(c1 / (2.0 * a)) / alpha), float(decay / kappa)
        energy = spec.v_inf - 0.5 * kappa * kappa
        x_left, x_right = (_edge_extent(spec, energy, decay, bottom, side * reach) for side in (-1.0, 1.0))
        width = x_right - x_left
        size = 3.0 * width * disc / (2.0 * math.pi)
        spacing = width / (np.maximum(size, _MORSE_MIN_SIZE) + 1.0)
        walls = (x_left - spacing, x_right + spacing)
        finite = np.isfinite([*walls, size, width * width, 1.0 / (spacing * spacing)]).all()
    if not (finite and width > 0.0):
        raise MeshError(
            f"no usable Morse box for {k} levels at tol {tol:.1e}: walls {walls[0]:.6g}, {walls[1]:.6g}, "
            f"starting size {size:.6g}"
        )
    return float(walls[0]), float(walls[1]), max(math.ceil(size), _MORSE_MIN_SIZE) + 2


def lowest_eigen(spec, k, tol=1e-10, m_cap=_M_CAP_DEFAULT):
    """Converged k lowest eigenpairs of the potential.

    Morse wells are solved on a uniform grid in a box sized from ``tol``:
    the node next to each wall sits where the top requested level's WKB
    decay exponent reaches (ln(1/tol) + 3) / 2.  The grid starts at six
    points per shortest classical wavelength of that level.  Reflection-even
    wells (reduced and general sextic, even polynomials, and partners of
    those built from a sextic seed) are solved on an oscillator mesh in
    parity blocks, starting at 64 mesh points plus two per requested state
    (166 for a 51-level spectrum), at a scale chosen once, at the starting
    size, from the decay of the top requested level.  Any other spec raises
    :class:`UnsupportedParameterError`.  Both starting sizes are clamped to
    ``m_cap`` (the oscillator mesh to an even size, for its parity blocks),
    and a ``k`` above that even size raises :class:`MeshError`, as does a
    Morse box whose walls, width or starting size are not finite.
    Each solve is certified from its own eigenvectors: a state's
    certificate is ten times the square of its largest coefficient in the
    top eighth of the basis (at least 16 functions), times max(1, |E|),
    plus on the uniform grid twice its estimated wall term, but never less
    than the rounding floor eps ||H||_inf.  A first solve whose certificates
    are all below ``tol`` is returned as it is.  Otherwise the mesh size
    grows to the next even size at or above 5/4 of the last one, at that
    fixed scale or box and never past ``m_cap``, until every requested
    energy is certified to ``tol``.  If the cap, the rounding floor or a
    wall term stops the loop first, a :class:`ConvergenceError` carrying
    the best spectrum so far is raised; a wall term at or above ``tol``
    means the box is too short, and the error says so.
    """
    if k < 1:
        raise MeshError("k must be at least 1")
    if not tol > 0:
        raise MeshError("tol must be positive")
    if k > m_cap - m_cap % 2:
        # a solve returns at most as many levels as its mesh has points
        raise MeshError(f"m_cap={m_cap} leaves no room for {k} states")
    if isinstance(spec, Morse):
        if k > spec.bound_count:
            raise SpectrumExhaustedError(
                f"requested {k} states but the well supports only {spec.bound_count} bound states"
            )
        x_left, x_right, M = _morse_box(spec, k, tol)
        return _refine(spec, k, tol, m_cap, min(M, m_cap), lambda size: uniform_mesh(size, x_left, x_right))
    if not _is_even(spec):
        raise UnsupportedParameterError(
            f"the oscillator mesh needs a reflection-even well, got {type(spec).__name__}"
        )
    M = min(_START_BASE + _START_PER_STATE * k, m_cap - m_cap % 2)
    h = _oscillator_scale(spec, M, k)
    return _refine(spec, k, tol, m_cap, M, lambda size: oscillator_mesh(size, h))


def _refine(spec, k, tol, m_cap, M, mesh_at):
    """Solve at size M, and grow the size by steps of about 5/4 while some
    state's certificate is at or above ``tol``.

    A state's certificate is the larger of its tail bound, _TAIL_SAFETY
    tail^2 max(1, |E|), plus its wall term, and the rounding floor
    eps ||H||_inf of the solve.  Each step goes to the next even size at or
    above 5 M / 4, at a fixed scale or box, where the mesh energies converge
    exponentially in M (Baye, Phys. Rep. 565 (2015) 1).  The loop stops with
    a ConvergenceError when the next size would pass ``m_cap``, or as soon as
    the rounding floor or a state's wall term reaches ``tol``: the floor only
    rises with M, and the wall term of a fixed box does not fall.
    """
    certificates = []
    while True:
        mesh = mesh_at(M)
        energies, vectors, tail, wall, floor = _bounded_solve(spec, mesh, k)
        certificates.append(max(float((tail + wall).max()), floor))
        wall_term = float(wall.max())
        grown = 2 * math.ceil(5 * M / 8)
        if certificates[-1] < tol or floor >= tol or wall_term >= tol or grown > m_cap:
            break
        M = grown
    spectrum = Spectrum(
        energies=energies,
        eigenvectors=vectors,
        mesh=mesh,
        converged_digits=_digits(certificates[-1], energies),
        refinement_deltas=tuple(certificates),
    )
    if certificates[-1] < tol:
        return spectrum
    if wall_term >= tol:
        cause = (f"the box [{mesh.nodes[0] - mesh.h:.6g}, {mesh.nodes[-1] + mesh.h:.6g}] is too short: "
                 f"its wall term {wall_term:.3e} >= tol {tol:.1e}")
    else:
        cause = f"certificate {certificates[-1]:.3e} >= tol {tol:.1e}"
    raise ConvergenceError(
        f"refinement stalled at M={M} ({cause}; rounding floor {floor:.3e}, next size {grown}, m_cap={m_cap})",
        best=spectrum,
    )


def count_sign_changes(values):
    """Sign changes in a node-value vector, ignoring entries below 1e-8 of its largest."""
    v = np.asarray(values, dtype=float)
    keep = v[np.abs(v) > 1e-8 * np.max(np.abs(v))]
    return int(np.sum(np.sign(keep[1:]) != np.sign(keep[:-1])))


def _ground_and_slope(N):
    """E_0 of the reduced sextic at parameter N and dE_0/dN = -2 <x^2>_0.

    The slope is the Hellmann-Feynman derivative, dV/dN = -2 x^2, taken from
    the quadrature-normalized ground vector of the same solve.
    """
    spectrum = lowest_eigen(SexticReduced(N), 1)
    mesh = spectrum.mesh
    weights = mesh.h * np.exp(_hermite_data(mesh.size).logw)
    psi = spectrum.eigenvectors[:, 0]
    return float(spectrum.energies[0]), -2.0 * float(np.sum(weights * psi * psi * mesh.nodes**2))


def critical_N(tol=1e-3, lo=0.5, hi=1.0):
    """Parameter at which the sextic ground level crosses the barrier top.

    The barrier top sits at zero energy, so the root of E_0(N) on [lo, hi]
    is returned.  Newton steps with the Hellmann-Feynman slope are taken
    inside a bracket that every evaluation narrows; a step that leaves the
    bracket is replaced by its midpoint.  The search ends when the Newton
    correction is below half of ``tol`` (or the bracket narrower than
    ``tol``), and the corrected point, kept inside the bracket, is returned.
    """
    if not tol > 0:
        raise SearchError("tol must be positive")
    f_lo, slope_lo = _ground_and_slope(lo)
    f_hi, slope_hi = _ground_and_slope(hi)
    if not (f_lo > 0 > f_hi):
        raise SearchError(
            f"no sign change of the ground energy on [{lo}, {hi}]: E0({lo})={f_lo:.3e}, E0({hi})={f_hi:.3e}"
        )
    width = max(tol, 1e-8)
    x, f, slope = (lo, f_lo, slope_lo) if f_lo < -f_hi else (hi, f_hi, slope_hi)
    for _ in range(_SEARCH_STEPS):
        correction = -f / slope
        if abs(correction) < 0.5 * width or hi - lo < width:
            return min(max(x + correction, lo), hi)
        x = x + correction
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        f, slope = _ground_and_slope(x)
        if f > 0:
            lo = x
        else:
            hi = x
    raise SearchError(f"no root of the ground energy within {_SEARCH_STEPS} steps on [{lo}, {hi}]")
