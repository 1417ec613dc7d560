"""Bound-state eigensolver for H = -1/2 d^2/dx^2 + V(x) on a uniform sine grid.

Every well is solved on one Lagrange mesh: the interior points of a
hard-wall box with the sine-basis (particle-in-a-box) kinetic matrix, which
makes the Hamiltonian a dense symmetric matrix (Colbert & Miller, J. Chem.
Phys. 96 (1992) 1982; Baye, Phys. Rep. 565 (2015) 1).  A reflection-even
well sits in a box symmetric about x = 0, so its Hamiltonian splits into an
even and an odd block of half the size, solved apart.  Its first solve
sits in the kinetic-balance box, whose wall is where the potential meets
the kinetic cutoff of the grid, and is returned when it certifies itself.
Every other wall is placed by one rule: the node next to it sits where the
top requested level's WKB decay exponent reaches (ln(1/tol) + 3) / 2, and
the wall one spacing further out.  The grid starts at the size its states
need: 64 points plus two per requested state for an even well, six points
per shortest classical wavelength in a Morse box.  Every dense solve is a
full symmetric eigensolve through NumPy's LAPACK, of which the lowest
eigenpairs are kept.

Every solve certifies itself from the tail of its eigenvectors' sine
(DST-I) expansion (Boyd, Chebyshev and Fourier Spectral Methods, 2001,
sec. 2.12).  A resolved state has negligible weight in the top eighth of
the basis (at least 16 functions).  Its energy error is bounded by
_TAIL_SAFETY times the square of its largest coefficient there, times
max(1, |E|), a map tested on under-resolved solves, plus a wall term for
each hard wall: the shift that cutting the decaying tail off there puts on
the level, read from the node next to the wall.  The wall rule puts that
term near exp(-3) tol.  No bound is taken below the rounding floor
eps ||H||_inf of the matrices solved.  One refinement loop owns the box: an
even well's first solve that does not certify has its box walked by the
wall rule from that solve's top level, once.  The loop then grows the grid
by steps of about 5/4 in that fixed box, never past the size cap, only
while some state's certificate is not below the requested tolerance, and
keeps the eigenvectors of its last solve.  A wall term at or above the
tolerance stops it once every tail bound is below the tolerance, since a
finer grid in the same box does not lower the wall term of resolved
states; an under-resolved state is not yet forbidden at the wall nodes,
and its grid grows first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as _windows

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
    "uniform_mesh",
    "build_hamiltonian",
    "lowest_eigen",
    "critical_N",
    "count_sign_changes",
]

_M_CAP_DEFAULT = 2048
_MIN_SIZE = 8
# An even well's grid starts at _START_BASE points plus _START_PER_STATE per
# requested state.  The first solve at that size, in a box sized for it,
# certified to 1e-10 every spectrum tried, of 1, 10, 51 and 130 levels of
# the reduced sextic at N = 0 to 3, the harmonic well, a double well and a
# factorization partner; the smallest size that did so was 34 to 46 points
# for one level, 106 to 118 for 51 levels and 210 to 244 for 130.
_START_BASE = 64
_START_PER_STATE = 2
# A Morse grid is never started at fewer than this many points.  Below that
# size the 16 tail modes are over a quarter of the basis, and the tail bound
# of a resolved state sits far above its error: 1.4e-5 against 2.5e-10 for
# the three lowest levels of the Morse (1, 8, sqrt 2, 0) well at the 47
# points of their box at tol 1e-9.
_MORSE_MIN_SIZE = 64

_SEARCH_STEPS = 60

# The energy bound of a state is _TAIL_SAFETY tail^2 max(1, |E|), with tail
# the largest |coefficient| among the top _tail_count(M) functions of its
# basis expansion.  On the 38 under-resolved solves of
# test_certificate_bounds_the_error whose bound is under 1e-4, tail^2
# max(1, |E|) alone, with the wall term, falls up to 6.2 times below the
# error on Morse grids; ten times it stays above the error by a factor of
# 1.6 or more, and three times does not.  On the sextic the sine tail
# overstates the error by orders of magnitude.
_TAIL_SAFETY = 10.0
# A small mesh reads its tail from at least this many top functions, not
# from the two or three of its top eighth.
_TAIL_MIN_MODES = 16
# The wall term of a state is _WALL_SAFETY psi^2 / (4 kappa h^2) at each
# wall, with psi its quadrature-normalized value at the node next to the
# wall, kappa = sqrt(2 (V - E)) there and h the spacing.
# On 118 solves of the ten Morse wells of the tests, at the spacing of their
# certified spectra, with one wall moved in until its error dominates some
# state's, that error is 0.99 to 1.0 times the estimate at the right wall.
# At the steep left wall the estimate is mostly 1.6 to 10 times the error,
# which is at most 1.001 times it.  Twice the estimate keeps the bound clear
# of the error, with room for the grid's own.
_WALL_SAFETY = 2.0
# The node next to each wall sits where the top level's WKB decay exponent
# reaches (ln(1/tol) + _WALL_EXTRA) / 2, so that its wall term, which falls
# like exp(-2 exponent), lands near exp(-_WALL_EXTRA) tol.
_WALL_EXTRA = 3.0
_EPS = np.finfo(float).eps
_TRIAL_WIDTHS = np.geomspace(1e-3, 1e3, 601)  # half-widths tried for an even well's first box
_TRIAL_WIDTHS.flags.writeable = False


def _tail_count(M):
    """Number of top basis functions that make up the tail of an M-point mesh."""
    return min(M, max(M // 8, _TAIL_MIN_MODES))


def _wall_decay(tol):
    """WKB decay exponent of the top level at the node next to each wall."""
    return 0.5 * (math.log(1.0 / tol) + _WALL_EXTRA)


@dataclass(frozen=True, eq=False)
class Mesh:
    """The interior points of a hard-wall box: ``size`` nodes ``h`` apart,
    the first and last one spacing in from the walls."""

    size: int
    h: float
    nodes: np.ndarray

    def __post_init__(self):
        if self.size < _MIN_SIZE:
            raise MeshError(f"mesh size must be at least {_MIN_SIZE}, got {self.size}")
        if not (self.h > 0):
            raise MeshError(f"mesh spacing must be positive, got {self.h}")
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
    normalized with the grid's quadrature weight h, with the sign fixed so
    the first non-negligible node value is positive.  ``refinement_deltas``
    holds one certificate per solve, in order, an even well's first solve
    in its kinetic-balance box included: the largest per-state energy
    error bound of that solve, from its eigenvector tails, its wall terms
    and its rounding floor.  The last of them bounds the error of every
    returned energy.
    """

    energies: np.ndarray
    eigenvectors: np.ndarray
    mesh: Mesh
    refinement_deltas: tuple = field(default=())


def uniform_mesh(M, x_left, x_right):
    """Uniform interior grid of a hard-wall box [x_left, x_right]."""
    if not x_right > x_left:
        raise MeshError("x_right must exceed x_left")
    M = int(M)
    spacing = (x_right - x_left) / (M + 1)
    nodes = x_left + spacing * np.arange(1, M + 1)
    return Mesh(size=M, h=spacing, nodes=nodes)


@lru_cache(maxsize=2)
def _unit_sine_kinetic(M):
    """Kinetic matrix of the sine basis on M interior points, in units of
    pi^2 / (4 L^2), L the width of the box; built once per size, read-only.

    Off the diagonal, entry (i, j), counted from 0, is t[i - j] - t[i + j +
    2], with t[d] = (-1)^d / sin^2(pi d / 2n) tabulated once for d = 1 - M ..
    2M: one subtraction of a Toeplitz and a Hankel strided view of t builds
    it, from O(M) sine calls.
    """
    n = M + 1
    i = np.arange(1, M + 1)
    d = np.arange(1 - M, 2 * M + 1)
    with np.errstate(divide="ignore"):
        table = np.where(d % 2 == 0, 1.0, -1.0) / np.sin(np.pi * d / (2 * n)) ** 2
    # table index M - 1 holds d = 0
    kin = _windows(table[: 2 * M - 1], M)[:, ::-1] - _windows(table[M + 1 :], M)
    kin[np.diag_indices(M)] = (2.0 * n**2 + 1.0) / 3.0 - 1.0 / np.sin(np.pi * i / n) ** 2
    kin.flags.writeable = False
    return kin


def _sine_kinetic(M, spacing):
    """Kinetic matrix -1/2 d^2/dx^2 of the sine (hard-wall box) basis on M interior points."""
    L = spacing * (M + 1)
    return 0.25 * np.pi**2 / L**2 * _unit_sine_kinetic(M)


def eigh(matrix):
    """Ascending eigenvalues of a dense symmetric matrix and its orthonormal
    eigenvectors as columns.

    Every dense solve of the module goes through this one function (LAPACK
    through NumPy), so that a caller can count or time them.
    """
    return np.linalg.eigh(matrix)


def _potential_at_nodes(spec, mesh):
    v = evaluate(spec, mesh.nodes)
    if not np.all(np.isfinite(v)):
        raise NodePlacementError("potential is not finite at every mesh node")
    return v


def build_hamiltonian(spec, mesh):
    """Dense symmetric Hamiltonian T + diag(V(x_i)) for the given mesh."""
    return _hamiltonian(mesh, _potential_at_nodes(spec, mesh))


def _hamiltonian(mesh, v):
    """T + diag(v) on the mesh, v the potential at its nodes, added to a fresh T in place."""
    ham = _sine_kinetic(mesh.size, mesh.h)
    ham[np.diag_indices(mesh.size)] += v
    return ham


def _is_even(spec):
    """Whether the spec's type guarantees V(-x) = V(x)."""
    if isinstance(spec, EVEN_WELLS):
        return True
    return isinstance(spec, SusyPartner) and isinstance(spec.base, SexticGeneral)


def _parity_block(mesh, v, sign):
    """Even (sign = +1) or odd (sign = -1) block A + sign B J of the
    Hamiltonian of an even well on an even-sized grid in a symmetric box,
    with V = v at its nodes.

    The sine kinetic matrix is persymmetric and V is even, so H commutes
    with the reflection J.  With m = M/2, A = H[:m, :m] and B J =
    H[:m, m:][:, ::-1]; a state of that parity is [u; sign u[::-1]] /
    sqrt(2), with u an eigenvector of the block.
    """
    kin = _sine_kinetic(mesh.size, mesh.h)
    m = mesh.size // 2
    block = kin[:m, :m] + sign * kin[:m, m:][:, ::-1]
    block[np.diag_indices(m)] += v[:m]
    return block


def _solve_parity(mesh, v, k):
    """k lowest eigenpairs from the two parity blocks, merged by energy,
    and the larger infinity-norm of the blocks solved.

    State n has parity (-1)^n (oscillation theorem), so the even block
    supplies ceil(k/2) levels and the odd block floor(k/2).
    """
    energies, vectors, norm = [], [], 0.0
    for sign, count in ((1.0, (k + 1) // 2), (-1.0, k // 2)):
        if count == 0:
            continue
        block = _parity_block(mesh, v, sign)
        norm = max(norm, np.linalg.norm(block, np.inf))
        e, u = eigh(block)
        energies.append(e[:count])
        vectors.append(np.vstack((u[:, :count], sign * u[::-1, :count])) / math.sqrt(2.0))
    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")
    return energies[order], np.hstack(vectors)[:, order], norm


@lru_cache(maxsize=2)
def _tail_rows(M):
    """Rows of the top _tail_count(M) DST-I sine modes in the orthogonal map
    from unit node vectors to basis coefficients; built once per size, read-only."""
    modes = np.arange(M - _tail_count(M) + 1, M + 1)
    rows = math.sqrt(2.0 / (M + 1)) * np.sin(np.outer(modes, np.arange(1, M + 1)) * (np.pi / (M + 1)))
    rows.flags.writeable = False
    return rows


def _bounded_solve(spec, mesh, k):
    """k lowest energies on one grid, node values normalized with weight h,
    the per-state tail bounds _TAIL_SAFETY tail^2 max(1, |E|), the per-state
    wall terms, and the rounding floor eps ||H||_inf of the matrices solved.
    A reflection-even well is solved in its two parity blocks; V is read once."""
    v = _potential_at_nodes(spec, mesh)
    if _is_even(spec):
        energies, coeffs, norm = _solve_parity(mesh, v, k)
    else:
        ham = _hamiltonian(mesh, v)
        energies, coeffs = eigh(ham)
        energies, coeffs = energies[:k], coeffs[:, :k]
        norm = np.linalg.norm(ham, np.inf)
    wall = _wall_terms(v[[0, -1]], mesh.h, energies, coeffs)
    tail = np.max(np.abs(_tail_rows(mesh.size) @ coeffs), axis=0)
    bounds = _TAIL_SAFETY * tail**2 * np.maximum(1.0, np.abs(energies))
    return energies, _fix_signs(coeffs / math.sqrt(mesh.h)), bounds, wall, _EPS * float(norm)


def _wall_terms(edge, h, energies, coeffs):
    """Per-state energy shift from the two hard walls of the grid.

    Moving a Dirichlet wall at L out by dL lowers a level by psi'(L)^2 dL / 2.
    Beyond its turning point a state decays like exp(-kappa x), and the wall
    doubles the slope of that free tail, so pushing the wall to infinity
    lowers the level by about kappa psi_free(L)^2 = psi(L - h)^2 / (4 kappa h^2),
    psi(L - h) the node value next to the wall.  A state that is not
    classically forbidden at a wall gets an infinite term.  Each state's term
    is _WALL_SAFETY times its sum over both walls; ``edge`` is V at the two
    wall nodes, and ``coeffs`` are unit node vectors, psi^2 = coeffs^2 / h.
    """
    kappa = np.sqrt(2.0 * np.maximum(edge[:, None] - energies, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = coeffs[[0, -1]] ** 2 / (4.0 * kappa * h**3)
    return _WALL_SAFETY * np.where(kappa > 0.0, terms, np.inf).sum(axis=0)


def _edge_extent(spec, energy, decay, origin, reach):
    """Where the WKB exponent of ``energy``, the integral of sqrt(2 (V -
    energy)) from the last allowed point of origin + [0, reach] (left for a
    negative ``reach``), reaches ``decay``.  The span doubles until it holds
    an allowed point and the exponent past the last one reaches ``decay``:
    a walk that starts under a barrier does not stop inside it.  A NaN
    potential counts as forbidden, with a zero rate."""
    for _ in range(64):
        if not math.isfinite(origin + reach):
            break
        x = np.linspace(origin, origin + reach, 2049)
        excess = evaluate(spec, x) - energy
        allowed = np.flatnonzero(excess <= 0.0)
        if allowed.size:
            kappa = np.sqrt(2.0 * np.fmax(excess, 0.0))
            kappa[: allowed[-1] + 1] = 0.0
            step = np.diff(x) if reach > 0 else -np.diff(x)
            exponent = np.concatenate(([0.0], np.cumsum(0.5 * (kappa[1:] + kappa[:-1]) * step)))
            if exponent[-1] >= decay:
                return float(np.interp(decay, exponent, x))
        reach *= 2.0
    raise MeshError(f"no decay exponent {decay:.3g} found for energy {energy:.6g} from x = {origin:.6g}")


def _balance_width(spec, M):
    """Half-width L of the first box [-L, L] of a reflection-even well on an
    M-point grid: the smallest trial width where the potential at the wall
    meets the kinetic cutoff of the grid, V(L) = (pi (M + 1) / 2L)^2 / 2,
    the square of its Nyquist momentum pi / h over two."""
    with np.errstate(over="ignore", invalid="ignore"):
        balance = evaluate(spec, _TRIAL_WIDTHS) - 0.5 * (0.5 * np.pi * (M + 1) / _TRIAL_WIDTHS) ** 2
    if not np.any(balance > 0):
        raise MeshError("no box balances the potential against the kinetic cutoff")
    return float(_TRIAL_WIDTHS[np.argmax(balance > 0)])


def _even_box(spec, mesh, energy, tol):
    """Half-width w of the box [-w, w] for a reflection-even well whose top
    requested level is ``energy``, on a grid of ``mesh.size`` points, for
    energies certified to ``tol``.

    _edge_extent walks from x = 0 to where the WKB decay exponent of
    ``energy`` reaches D = (ln(1/tol) + _WALL_EXTRA) / 2: there sits the node
    next to the wall, and the wall one spacing further out, as in the Morse
    box.  The walk starts from the span of ``mesh``'s box, the kinetic-balance
    box of the first solve, which scales with the well, and doubles it only
    when it falls short.
    """
    x = _edge_extent(spec, energy, _wall_decay(tol), 0.0, mesh.nodes[-1] + mesh.h)
    return x + 2.0 * x / (mesh.size - 1)


def _fix_signs(vectors):
    """Flip each column whose first entry above 1e-8 of its largest is negative."""
    size = np.abs(vectors)
    first = np.argmax(size > 1e-8 * size.max(axis=0), axis=0)
    vectors[:, vectors[first, np.arange(vectors.shape[1])] < 0] *= -1.0
    return vectors


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
    Phys. 96 (1992) 1982).  This sizes the first solve, not the last.  The
    grid starts at no fewer than _MORSE_MIN_SIZE points between the D
    points.

    Raises MeshError when the walks or the starting size are not finite, or
    when the square of the width or of the starting spacing overflows or
    underflows.
    """
    n = k - 1
    decay = _wall_decay(tol)
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

    Every well is solved on a uniform sine grid in a box sized from ``tol``:
    the node next to each wall sits where the top requested level's WKB
    decay exponent reaches (ln(1/tol) + 3) / 2.  A Morse grid starts at six
    points per shortest classical wavelength of that level.  Reflection-even
    wells (reduced and general sextic, even polynomials, and partners of
    those built from a sextic seed) are solved in a box symmetric about
    x = 0, in parity blocks, starting at 64 grid points plus two per
    requested state (166 for a 51-level spectrum).  Their first solve sits
    in the kinetic-balance box, where the potential at the wall meets the
    grid's kinetic cutoff; when it does not certify, the box is walked by
    the wall rule from its top level and solved again at the same size.
    Any other spec raises
    :class:`UnsupportedParameterError`.  The starting size is clamped to
    the even size at or below ``m_cap``, and a ``k`` above that size raises
    :class:`MeshError`, as does a box whose walls, width or starting size
    are not finite.
    Each solve is certified from its own eigenvectors: a state's
    certificate is ten times the square of its largest coefficient in the
    top eighth of the sine basis (at least 16 functions), times max(1, |E|),
    plus twice its estimated wall term, but never less than the rounding
    floor eps ||H||_inf.  A first solve whose certificates are all below
    ``tol`` is returned as it is.  Otherwise, after the one walk of an even
    well's box, the grid grows to the next even size at or above 5/4 of
    the last one, in the same box and never past
    ``m_cap``, until every requested energy is certified to ``tol``.  If the
    cap, the rounding floor or a wall term of resolved states stops the
    loop first, a :class:`ConvergenceError` carrying the best spectrum so
    far is raised; it names a ``tol`` below the rounding floor, else a start
    clamped to ``m_cap``, else a wall term at or above ``tol`` with every
    tail bound below it: a box too short.
    """
    if k < 1:
        raise MeshError("k must be at least 1")
    if not tol > 0:
        raise MeshError("tol must be positive")
    cap = m_cap - m_cap % 2
    if k > cap:
        # a solve returns at most as many levels as its mesh has points
        raise MeshError(f"m_cap={m_cap} leaves no room for {k} states")
    if isinstance(spec, Morse):
        if k > spec.bound_count:
            raise SpectrumExhaustedError(
                f"requested {k} states but the well supports only {spec.bound_count} bound states"
            )
        x_left, x_right, start = _morse_box(spec, k, tol)
    elif _is_even(spec):
        start = _START_BASE + _START_PER_STATE * k
        x_right = _balance_width(spec, min(start, cap))
        x_left = -x_right
    else:
        raise UnsupportedParameterError(
            f"the eigensolver needs a Morse or a reflection-even well, got {type(spec).__name__}"
        )
    return _refine(spec, k, tol, m_cap, start, x_left, x_right)


def _refine(spec, k, tol, m_cap, start, x_left, x_right):
    """Solve at the starting size, clamped to m_cap, in the box [x_left,
    x_right], and grow the size by steps of about 5/4 while some state's
    certificate is at or above ``tol``.  When a reflection-even well's first
    solve, in its kinetic-balance box, does not certify, _even_box walks the
    box from that solve's top level, and the loop solves again at the same
    size in the walked box before it grows the grid.

    A state's certificate is the larger of its tail bound, _TAIL_SAFETY
    tail^2 max(1, |E|), plus its wall term, and the rounding floor
    eps ||H||_inf of the solve.  Each step goes to the next even size at or
    above 5 M / 4, in the fixed box, where the grid energies converge
    exponentially in M (Baye, Phys. Rep. 565 (2015) 1).  The loop stops with
    a ConvergenceError when the next size would pass ``m_cap``, as soon as
    the rounding floor reaches ``tol``, since it only rises with M, or when
    a state's wall term reaches ``tol`` while every tail bound is below it:
    the wall term of resolved states in a fixed box does not fall.  A wall
    term read from an under-resolved state, not yet forbidden at the node
    next to the wall, does not stop the loop.
    """
    M = min(start, m_cap - m_cap % 2)
    certificates = []
    while True:
        mesh = uniform_mesh(M, x_left, x_right)
        energies, vectors, tail, wall, floor = _bounded_solve(spec, mesh, k)
        certificates.append(max(float((tail + wall).max()), floor))
        if certificates[-1] >= tol and len(certificates) == 1 and _is_even(spec):
            x_right = _even_box(spec, mesh, float(energies[-1]), tol)
            x_left = -x_right
            continue
        wall_term = float(wall.max())
        short_box = wall_term >= tol and float(tail.max()) < tol
        grown = 2 * math.ceil(5 * M / 8)
        if certificates[-1] < tol or floor >= tol or short_box or grown > m_cap:
            break
        M = grown
    spectrum = Spectrum(
        energies=energies,
        eigenvectors=vectors,
        mesh=mesh,
        refinement_deltas=tuple(certificates),
    )
    if certificates[-1] < tol:
        return spectrum
    if floor >= tol:
        cause = f"tol {tol:.1e} is below what double precision resolves for this matrix"
    elif start > M:
        # a clamped start is the only size solved, and under-resolved states
        # read as a short box too: they are not yet forbidden at the wall nodes
        cause = f"its starting size {start} was clamped to m_cap: certificate {certificates[-1]:.3e} >= tol {tol:.1e}"
    elif short_box:
        cause = (f"the box [{x_left:.6g}, {x_right:.6g}] is too short: "
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
    the ground vector of the same solve, normalized with weight h.
    """
    spectrum = lowest_eigen(SexticReduced(N), 1)
    mesh = spectrum.mesh
    psi = spectrum.eigenvectors[:, 0]
    return float(spectrum.energies[0]), -2.0 * float(np.sum(mesh.h * psi * psi * mesh.nodes**2))


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
