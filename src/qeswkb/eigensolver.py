"""Bound-state eigensolver for H = -1/2 d^2/dx^2 + V(x) on spectral meshes.

Two discretizations are provided, both yielding dense symmetric matrices:

* an oscillator mesh (scaled Gauss-Hermite points with the kinetic matrix
  projected from the harmonic-oscillator basis), suited to confining
  polynomial potentials whose eigenfunctions decay like a Gaussian;
* a uniform grid with a sine-basis (particle-in-a-box) kinetic matrix,
  suited to the Morse well whose eigenfunctions decay only exponentially
  toward the dissociation side.

The oscillator mesh is reflection-symmetric and serves only reflection-even
wells, so its Hamiltonian splits into an even and an odd block of half the
size, solved apart (Baye, Phys. Rep. 565 (2015) 1).  Its scale is fixed once
per spectrum: the mesh at the starting size reaches the outer turning point
of the top requested level plus the margin over which the WKB decay
exponent of that level grows to 40.  Each mesh starts at the size its
states need: eight oscillator points per requested state, or six uniform
points per shortest classical wavelength.

Every solve certifies itself from the tail of its eigenvectors' spectral
expansion (Boyd, Chebyshev and Fourier Spectral Methods, 2001, sec. 2.12):
the Hermite-function coefficients on the oscillator mesh, the sine (DST-I)
coefficients on the uniform grid.  A resolved state has negligible weight
in the top eighth of the basis (at least 16 functions).  Its energy error
is bounded by _TAIL_SAFETY times the square of its largest coefficient
there, times max(1, |E|), a map tested on under-resolved solves, but the
bound is never taken below the rounding floor eps ||H||_inf of the
matrices solved.  One refinement loop serves both meshes: it grows the
basis size by steps of about 5/4 at that fixed scale (or box), never past
the size cap, only while some state's certificate is not below the
requested tolerance, and keeps the eigenvectors of its last solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, hankel, toeplitz

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
    SEXTICS,
    SexticReduced,
    SusyPartner,
    evaluate,
)
from .qes_algebra import morse_exact_spectrum

__all__ = [
    "Mesh",
    "Spectrum",
    "oscillator_mesh",
    "uniform_mesh",
    "build_hamiltonian",
    "lowest_eigen",
    "critical_N",
    "morse_bound_count",
    "count_sign_changes",
]

OSCILLATOR = "oscillator-mesh"
UNIFORM = "uniform-grid"

_M_CAP_DEFAULT = 2048
_MIN_SIZE = 8
# A Morse grid is never started smaller than for this many levels.
_MORSE_MIN_LEVELS = 4

# WKB decay exponent of the top requested level at the edge of the starting
# oscillator mesh: exp(-40) ~ 4e-18 puts the truncated tail below rounding.
_EDGE_DECAY = 40.0

_SEARCH_STEPS = 60

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
    error bound of that solve, from its eigenvector tails and rounding
    floor.  ``converged_digits[n]`` is the number of significant digits of
    E_n that the last certificate vouches for, relative to max(1, |E_n|).
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
    """Gauss-Hermite points, the projected kinetic matrix, log mesh weights,
    and the tail rows of the Hermite-function basis.

    The kinetic matrix is the second-derivative operator of the oscillator
    eigenbasis projected onto the mesh: T = -1/2 V^T D2 V, where D2 has
    -(n + 1/2) on the diagonal and sqrt(m (m-1))/2 two off.  D2 V is formed
    from three row-shifted products, so one GEMM remains.

    Column j of V holds sqrt(w_j) q_n(t_j), n = 0..M-1, with q_n the
    orthonormal Hermite polynomials (q_0 > 0) and w_j the Gauss weights
    (Golub & Welsch).  The solver returns each column up to a sign.  That
    sign is read from the last row rather than the first: row 0 scales like
    exp(-t_j^2/2) and at the outer nodes falls below rounding, even to 0.0,
    while row M-1 stays well scaled.  The zeros of q_{M-1} interlace with
    the nodes, so the true sign of q_{M-1}(t_j) is (-1)^(M-1-j).

    The points are made exactly symmetric, t_{M-1-j} = -t_j, so that the
    mesh reflects onto itself and the parity blocks are exact.  V is
    orthogonal, so V c holds the Hermite-function coefficients of a unit
    node vector c; only the rows of the top _tail_count(M) functions are
    kept, for the eigenvector tails, not the whole M x M matrix.
    """
    off = np.sqrt(np.arange(1, M) / 2.0)
    t, vecs = eigh_tridiagonal(np.zeros(M), off)
    t = 0.5 * (t - t[::-1])
    vecs = vecs * (np.sign(vecs[-1]) * (-1.0) ** (M - 1 - np.arange(M)))
    n = np.arange(M)
    coupling = 0.5 * np.sqrt(n[2:] * (n[2:] - 1.0))[:, None]
    d2v = -(n + 0.5)[:, None] * vecs
    d2v[:-2] += coupling * vecs[2:]
    d2v[2:] += coupling * vecs[:-2]
    kin = -0.5 * (vecs.T @ d2v)
    return _HermiteData(t, kin, _hermite_log_weights(t, M), vecs[M - _tail_count(M) :].copy())


def _hermite_log_weights(t, M):
    """log(lambda_i) with lambda_i = 1 / sum_{n<M} phi_n(t_i)^2.

    phi_n are the orthonormal oscillator functions; the sum is accumulated
    with an exponent-tracking rescaling so it never overflows, which keeps
    the weights usable to M in the thousands.
    """
    f_prev = np.zeros_like(t)
    f = np.full_like(t, np.pi**-0.25)
    sigma = -0.5 * t * t
    total = f * f
    for n in range(M - 1):
        f_next = t * np.sqrt(2.0 / (n + 1)) * f - np.sqrt(n / (n + 1.0)) * f_prev
        f_prev, f = f, f_next
        total += f * f
        big = np.abs(f) > 1e120
        if np.any(big):
            f[big] *= 1e-120
            f_prev[big] *= 1e-120
            total[big] *= 1e-240
            sigma[big] += 120.0 * np.log(10.0)
    return -(np.log(total) + 2.0 * sigma)


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
    tabulated once, for d = 1 - M .. 2M, and gathered as a Toeplitz and a
    Hankel matrix: O(M) sine calls instead of 2 M^2.
    """
    L = spacing * (M + 1)
    n = M + 1
    i = np.arange(1, M + 1)
    pre = 0.25 * np.pi**2 / L**2
    d = np.arange(1 - M, 2 * M + 1)
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sin(np.pi * d / (2 * n)) ** 2
    signed = np.where(d % 2 == 0, pre, -pre)
    # table index M - 1 holds d = 0; column 0 of the Toeplitz part is d = i - 1,
    # row 0 is d = 1 - j, and the Hankel part runs over d = i + j = 2 .. 2M
    kin = toeplitz(signed[M - 1 : 2 * M - 1], signed[M - 1 :: -1]) * (
        toeplitz(inv[M - 1 : 2 * M - 1], inv[M - 1 :: -1]) - hankel(inv[M + 1 : 2 * M + 1], inv[2 * M :])
    )
    kin[np.arange(M), np.arange(M)] = pre * ((2.0 * n**2 + 1.0) / 3.0 - 1.0 / np.sin(np.pi * i / n) ** 2)
    return kin


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
    return isinstance(spec, SusyPartner) and isinstance(spec.base, SEXTICS)


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
        e, u = eigh(block, subset_by_index=(0, count - 1))
        energies.append(e)
        vectors.append(np.vstack((u, sign * u[::-1])) / math.sqrt(2.0))
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


def _certified_solve(spec, mesh, k):
    """k lowest energies on one mesh, quadrature-normalized node values, the
    per-state tail bounds _TAIL_SAFETY tail^2 max(1, |E|), and the rounding
    floor eps ||H||_inf of the matrices solved."""
    if mesh.kind == OSCILLATOR:
        energies, coeffs, norm = _solve_parity(spec, mesh, k)
        scale = np.sqrt(mesh.h * np.exp(_hermite_data(mesh.size).logw))
    else:
        ham = build_hamiltonian(spec, mesh)
        energies, coeffs = eigh(ham, subset_by_index=(0, k - 1))
        norm = np.linalg.norm(ham, np.inf)
        scale = np.full(mesh.size, math.sqrt(mesh.h))
    tail = np.max(np.abs(_tail_rows(mesh) @ coeffs), axis=0)
    bounds = _TAIL_SAFETY * tail**2 * np.maximum(1.0, np.abs(energies))
    return energies, _fix_signs(coeffs / scale[:, None]), bounds, _EPS * float(norm)


def _solve(spec, mesh, k):
    """k lowest energies on one mesh, with quadrature-normalized node values."""
    return _certified_solve(spec, mesh, k)[:2]


def _edge_extent(spec, energy):
    """Outer turning point of ``energy`` plus the margin where the WKB
    exponent, the integral of sqrt(2 (V - energy)) outward, reaches _EDGE_DECAY."""
    reach = 1.0
    for _ in range(64):
        x = np.linspace(0.0, reach, 2049)
        excess = evaluate(spec, x) - energy
        allowed = np.flatnonzero(excess <= 0.0)
        kappa = np.sqrt(2.0 * np.maximum(excess, 0.0))
        if allowed.size:
            kappa[: allowed[-1] + 1] = 0.0
        exponent = np.concatenate(([0.0], np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * np.diff(x))))
        if exponent[-1] >= _EDGE_DECAY:
            return float(np.interp(_EDGE_DECAY, exponent, x))
        reach *= 2.0
    raise MeshError(f"no classically forbidden margin found for energy {energy:.6g}")


def _oscillator_scale(spec, M, k):
    """Oscillator scale h for a k-level spectrum that starts at mesh size M.

    A provisional scale balances the potential at the mesh edge against the
    kinetic cutoff of the basis, V(h t_max) = t_max^2 / (2 h^2), which is
    h = 1 for the harmonic well.  One parity block solved at that scale
    gives the top requested level E_{k-1}; the returned scale stretches the
    mesh to the outer turning point of E_{k-1} plus its decay margin.
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
    e_top = float(eigh(block, eigvals_only=True, subset_by_index=(top, top))[0])
    return _edge_extent(spec, e_top) / t_max


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


def morse_bound_count(spec):
    """Number of bound states of a Morse spec (levels below the asymptote)."""
    ratio = spec.beta / spec.alpha
    if ratio <= 0:
        return 0
    return int(math.floor(ratio - 1e-12)) + 1


def _morse_box(spec, k):
    """Box and starting grid size for the k lowest levels of a Morse well.

    The box is large enough that wall-truncation error is far below 1e-10.
    The left wall sits where the exponential barrier is several hundred
    times the dissociation energy; the right wall extends past the outer
    turning point of the highest requested level by many decay lengths
    1/kappa, kappa = sqrt(2 (V_inf - E_{k-1})).

    The grid starts where its Nyquist momentum pi / dx is three times the
    largest classical momentum of that level, p_top = sqrt(2 (E_{k-1} - V_min)):
    six points per shortest classical wavelength (Colbert & Miller,
    J. Chem. Phys. 96 (1992) 1982).  This sizes the first solve, not the
    last; the refinement loop grows it while its certificate is too large.

    Box and grid are sized for at least the four lowest levels (all of them
    in a shallower well): the lowest levels carry momentum well beyond
    their classical maximum, and a ground level certifies to 1e-9 only at
    about 2.5 times its own six-points-per-wavelength size.
    """
    k = max(k, min(_MORSE_MIN_LEVELS, morse_bound_count(spec)))
    beta, c1, v_inf = spec.beta, spec.c1, spec.v_inf
    z_left = max(math.sqrt(800.0 * max(v_inf, 1.0)), 3.0 * c1, 20.0) / spec.a
    x_left = -math.log(z_left) / spec.alpha
    e_top = morse_exact_spectrum(spec, k - 1)[-1]
    kappa = math.sqrt(max(2.0 * (v_inf - e_top), 1e-12))
    disc = math.sqrt(max(c1 * c1 - 4.0 * (beta * beta - 2.0 * e_top), 0.0))
    z_min = max((c1 - disc) / (2.0 * spec.a), 1e-300)
    x_turn = -math.log(z_min) / spec.alpha
    x_right = x_turn + min(max(20.7 / kappa, 5.0), 80.0)
    p_top = math.sqrt(2.0 * (e_top - spec.v_min))
    size = max(math.ceil(3.0 * (x_right - x_left) * p_top / math.pi), _MIN_SIZE)
    return x_left, x_right, size


def lowest_eigen(spec, k, tol=1e-10, m_cap=_M_CAP_DEFAULT):
    """Converged k lowest eigenpairs of the potential.

    Morse wells are solved on a uniform grid in a fixed box, starting at six
    grid points per shortest classical wavelength of the top requested
    level; reflection-even wells (reduced and general sextic, even
    polynomials, and partners of those built from a sextic seed) on an
    oscillator mesh in parity blocks, starting at eight mesh points per
    requested state and at least 256 (408 for a 51-level spectrum), at a
    scale chosen once, at the starting size, from the turning point of the
    top requested level; any other spec raises
    :class:`UnsupportedParameterError`.  Both starting sizes are clamped to
    ``m_cap`` (the oscillator mesh to an even size, for its parity blocks).
    Each solve is certified from its own eigenvectors: a state's
    certificate is the larger of ten times the square of its largest
    coefficient in the top eighth of the basis (at least 16 functions),
    times max(1, |E|), and the rounding floor eps ||H||_inf.  A first solve
    whose certificates are all below ``tol`` is returned as it is.
    Otherwise the mesh size grows to the next even size at or above 5/4 of
    the last one, at that fixed scale or box and never past ``m_cap``, until
    every requested energy is certified to ``tol``.  If the cap or the
    rounding floor stops the loop first, a :class:`ConvergenceError`
    carrying the best spectrum so far is raised.
    """
    if k < 1:
        raise MeshError("k must be at least 1")
    if not tol > 0:
        raise MeshError("tol must be positive")
    if isinstance(spec, Morse):
        count = morse_bound_count(spec)
        if k > count:
            raise SpectrumExhaustedError(
                f"requested {k} states but the well supports only {count} bound states"
            )
        x_left, x_right, M = _morse_box(spec, k)
        return _refine(spec, k, tol, m_cap, min(M, m_cap), lambda size: uniform_mesh(size, x_left, x_right))
    if not _is_even(spec):
        raise UnsupportedParameterError(
            f"the oscillator mesh needs a reflection-even well, got {type(spec).__name__}"
        )
    # Eight mesh points per requested state keep the top state resolved
    # at the starting size, where the scale is chosen.
    M = min(max(256, 8 * k), m_cap - m_cap % 2)
    h = _oscillator_scale(spec, M, k)
    return _refine(spec, k, tol, m_cap, M, lambda size: oscillator_mesh(size, h))


def _refine(spec, k, tol, m_cap, M, mesh_at):
    """Solve at size M, and grow the size by steps of about 5/4 while some
    state's certificate is at or above ``tol``.

    A state's certificate is the larger of its tail bound, _TAIL_SAFETY
    tail^2 max(1, |E|), and the rounding floor eps ||H||_inf of the solve.
    Each step goes to the next even size at or above 5 M / 4, at a fixed
    scale or box, where the mesh energies converge exponentially in M (Baye,
    Phys. Rep. 565 (2015) 1).  The loop stops with a ConvergenceError when
    the next size would pass ``m_cap``, or as soon as the rounding floor
    reaches ``tol``: the floor only rises with M.
    """
    certificates = []
    while True:
        mesh = mesh_at(M)
        energies, vectors, bounds, floor = _certified_solve(spec, mesh, k)
        certificates.append(max(float(bounds.max()), floor))
        grown = 2 * math.ceil(5 * M / 8)
        if certificates[-1] < tol or floor >= tol or grown > m_cap:
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
    raise ConvergenceError(
        f"refinement stalled at M={M} (certificate {certificates[-1]:.3e} >= tol {tol:.1e}; "
        f"rounding floor {floor:.3e}, next size {grown}, m_cap={m_cap})",
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
