import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh

from qeswkb import eigensolver, qes_algebra
from qeswkb.eigensolver import (
    Mesh,
    count_sign_changes,
    critical_N,
    lowest_eigen,
    uniform_mesh,
)
from qeswkb.errors import (
    ConvergenceError,
    DomainError,
    MeshError,
    NodePlacementError,
    SearchError,
    SpectrumExhaustedError,
    UnsupportedParameterError,
)
from qeswkb.potentials import (
    EvenPolynomial,
    GaugeState,
    Morse,
    SexticGeneral,
    SexticReduced,
    SusyPartner,
    evaluate,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

HARMONIC = EvenPolynomial((0.0, 0.5))


def test_harmonic_ladder():
    spectrum = lowest_eigen(HARMONIC, 12, tol=1e-12)
    expected = np.arange(12) + 0.5
    assert np.max(np.abs(spectrum.energies - expected)) < 1e-10


def test_harmonic_ground_state_values():
    spectrum = lowest_eigen(HARMONIC, 3, tol=1e-12)
    x = spectrum.mesh.nodes
    psi0 = np.pi**-0.25 * np.exp(-0.5 * x * x)
    column = spectrum.eigenvectors[:, 0]
    assert np.max(np.abs(column - psi0)) < 1e-10


def test_quadrature_normalization_and_parity():
    spectrum = lowest_eigen(HARMONIC, 6, tol=1e-12)
    h = spectrum.mesh.h
    for n in range(6):
        psi = spectrum.eigenvectors[:, n]
        norm = float(np.sum(h * psi * psi))
        assert norm == pytest.approx(1.0, abs=1e-10)
        flipped = psi[::-1] * (-1.0) ** n
        assert np.max(np.abs(flipped - psi)) < 1e-8
    sextic = lowest_eigen(SexticReduced(0.0), 11, tol=1e-10)
    for n in range(11):
        psi = sextic.eigenvectors[:, n]
        assert float(np.sum(sextic.mesh.h * psi * psi)) == pytest.approx(1.0, abs=1e-10)
        flipped = psi[::-1] * (-1.0) ** n
        assert np.max(np.abs(flipped - psi)) < 1e-8


def test_runtime_loads_no_scipy():
    # A fresh process: the command-line module, a 51-level sextic spectrum,
    # a Morse spectrum and the critical-depth search.
    src = os.path.dirname(os.path.dirname(eigensolver.__file__))
    probe = (
        "import sys, math, qeswkb.cli\n"
        "from qeswkb import eigensolver as es\n"
        "from qeswkb.potentials import Morse, SexticReduced\n"
        "es.lowest_eigen(SexticReduced(0.5), 51)\n"
        "es.lowest_eigen(Morse(1.0, 8.0, math.sqrt(2.0), 3.0), 9, tol=1e-9)\n"
        "es.critical_N(tol=1e-6)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _walls(mesh):
    """The hard walls of a uniform grid, one spacing outside its end nodes."""
    return mesh.nodes[0] - mesh.h, mesh.nodes[-1] + mesh.h


def _walked_half_width(spec, M, k, tol):
    """Half-width of an even well's box walked from the top of k levels
    solved on M points in its kinetic-balance box, as when that first solve
    does not certify."""
    width = eigensolver._balance_width(spec, M)
    mesh = uniform_mesh(M, -width, width)
    energy = eigensolver._bounded_solve(spec, mesh, k)[0][-1]
    return eigensolver._even_box(spec, mesh, energy, tol)


def test_parity_blocks_match_full_matrix():
    spec = SexticReduced(0.5)
    half = _walked_half_width(spec, 512, 51, 1e-10)
    mesh = uniform_mesh(512, -half, half)
    energies, vectors = eigensolver._bounded_solve(spec, mesh, 51)[:2]
    full, full_vectors = eigh(eigensolver.build_hamiltonian(spec, mesh), subset_by_index=(0, 50))
    # relative to max(1, |E|), as the tail bound scales: both solves round at
    # eps * ||H||, a few 1e-12 here, which is 2e-11 of E_0 = 0.18
    assert np.max(np.abs(energies - full) / np.maximum(1.0, np.abs(full))) < 1e-11
    # the grid mirrors onto itself only to rounding, so the full solve's
    # vectors carry each state's parity to about that rounding, and they
    # are the parity-block states up to normalization and sign
    assert np.max(np.abs(mesh.nodes[::-1] + mesh.nodes)) < 1e-14
    for n in range(51):
        psi, full_psi = vectors[:, n], full_vectors[:, n]
        assert np.max(np.abs(full_psi[::-1] - (-1.0) ** n * full_psi)) <= 1e-9 * np.max(np.abs(full_psi))
        assert abs(abs(full_psi @ psi) * math.sqrt(mesh.h) - 1.0) < 1e-10


def test_deep_spectra_converge_at_tight_tol():
    for depth in (0.0, 0.25, 0.5, 0.7):
        spectrum = lowest_eigen(SexticReduced(depth), 51, tol=1e-11)
        assert spectrum.refinement_deltas[-1] < 1e-11


def test_step_keeps_an_honest_certificate():
    # a 5/4 step certifies as much as a doubling: each returned spectrum
    # agrees with one solve at twice its size, in the same box
    for depth in (0.0, 0.25, 0.5, 0.7):
        spec = SexticReduced(depth)
        spectrum = lowest_eigen(spec, 51, tol=1e-10)
        mesh = uniform_mesh(2 * spectrum.mesh.size, *_walls(spectrum.mesh))
        reference = eigensolver._bounded_solve(spec, mesh, 51)[0]
        error = np.abs(spectrum.energies - reference) / np.maximum(1.0, np.abs(reference))
        assert np.max(error) < 1e-10, depth


def test_certified_spectra_agree_with_a_doubled_mesh():
    # each certified spectrum agrees with one solve at twice its final size,
    # in the same box, to the requested tol
    tol = 1e-10
    base = SexticReduced(1.0)
    partner = qes_algebra.darboux(qes_algebra.qes_states(base)[0])
    even = [SexticReduced(depth) for depth in (0.0, 0.25, 0.5, 0.7, 1.0, 2.0, 3.0)]
    even += [HARMONIC, EvenPolynomial((0.0, -1.0, 0.05, 0.02)), partner]
    for k in (1, 10, 51, 130):
        for spec in even:
            spectrum = lowest_eigen(spec, k, tol=tol)
            assert spectrum.refinement_deltas[-1] < tol
            mesh = uniform_mesh(2 * spectrum.mesh.size, *_walls(spectrum.mesh))
            reference = eigensolver._bounded_solve(spec, mesh, k)[0]
            assert np.max(np.abs(spectrum.energies - reference)) < tol, (spec, k)
    # the wells of test_morse_spectrum_matches_closed_form
    wells = [(1.0, 8.0, SQRT2, 0.0), (1.0, 4.0, 1.0, 0.0), (1.0, 4.0, 1.0, 3.0), (1.0, 12.0, 2.0, 0.0)]
    wells += [(1.0, 12.0, 2.0, 3.0), (0.5, 6.0, 0.7, 0.0), (0.5, 6.0, 0.7, 3.0)]
    for a, b, alpha, depth in wells:
        spec = Morse(a, b, alpha, depth)
        count = spec.bound_count
        for k in sorted({1, min(10, count), count}):
            x_left, x_right, _ = eigensolver._morse_box(spec, k, tol)
            spectrum = lowest_eigen(spec, k, tol=tol)
            reference = eigensolver._bounded_solve(spec, uniform_mesh(2 * spectrum.mesh.size, x_left, x_right), k)[0]
            assert np.max(np.abs(spectrum.energies - reference)) < tol, (spec, k)


def _morse_turning_points(spec, level):
    """Inner and outer turning points of a Morse level, and its decay rate
    kappa = sqrt(2 (V_inf - E)) past the outer one."""
    energy = qes_algebra.morse_exact_spectrum(spec, level)[-1]
    kappa = math.sqrt(2.0 * (spec.v_inf - energy))
    disc = math.sqrt(spec.c1**2 - 4.0 * kappa**2)
    z_in, z_out = (spec.c1 + disc) / (2.0 * spec.a), (spec.c1 - disc) / (2.0 * spec.a)
    return -math.log(z_in) / spec.alpha, -math.log(z_out) / spec.alpha, kappa


def test_certified_spectra_agree_with_a_longer_box():
    # each certified Morse spectrum agrees with one solve at the same spacing
    # in a box whose margins past the top level's turning points are doubled
    tol = 1e-10
    wells = [(1.0, 8.0, SQRT2, 0.0), (1.0, 4.0, 1.0, 0.0), (1.0, 4.0, 1.0, 3.0), (1.0, 12.0, 2.0, 0.0)]
    wells += [(1.0, 12.0, 2.0, 3.0), (0.5, 6.0, 0.7, 0.0), (0.5, 6.0, 0.7, 3.0)]
    for a, b, alpha, depth in wells:
        spec = Morse(a, b, alpha, depth)
        count = spec.bound_count
        for k in sorted({1, min(10, count), count}):
            spectrum = lowest_eigen(spec, k, tol=tol)
            mesh = spectrum.mesh
            x_in, x_out, _ = _morse_turning_points(spec, k - 1)
            x_left = x_in - 2.0 * (x_in - (mesh.nodes[0] - mesh.h))
            size = math.ceil((x_out + 2.0 * (mesh.nodes[-1] + mesh.h - x_out) - x_left) / mesh.h) - 1
            longer = uniform_mesh(size, x_left, x_left + (size + 1) * mesh.h)
            reference = eigensolver._bounded_solve(spec, longer, k)[0]
            assert np.max(np.abs(spectrum.energies - reference)) < tol, (spec, k)


def _decay_exponent(spec, energy, lo, hi):
    """WKB decay exponent of ``energy`` across the forbidden interval [lo, hi]."""
    return quad(lambda x: math.sqrt(max(2.0 * (evaluate(spec, x) - energy), 0.0)), lo, hi, limit=200)[0]


def test_wall_nodes_sit_at_the_decay_target():
    # the node next to each wall is where the top requested level's WKB decay
    # exponent, integrated from its turning point, reaches D = (ln(1/tol) +
    # _WALL_EXTRA) / 2: not short of it, and not far past it
    wells = [(1.0, 8.0, SQRT2, 0.0), (1.0, 4.0, 1.0, 0.0), (1.0, 4.0, 1.0, 3.0), (1.0, 12.0, 2.0, 0.0)]
    wells += [(1.0, 12.0, 2.0, 3.0), (0.5, 6.0, 0.7, 0.0), (0.5, 6.0, 0.7, 3.0)]
    for a, b, alpha, depth in wells:
        spec = Morse(a, b, alpha, depth)
        count = spec.bound_count
        for k, tol in itertools.product(sorted({1, min(10, count), count}), (1e-9, 1e-10)):
            decay = 0.5 * (math.log(1.0 / tol) + eigensolver._WALL_EXTRA)
            x_in, x_out, kappa = _morse_turning_points(spec, k - 1)
            energy = spec.v_inf - 0.5 * kappa * kappa
            x_left, x_right, size = eigensolver._morse_box(spec, k, tol)
            nodes = uniform_mesh(size, x_left, x_right).nodes
            for lo, hi in ((nodes[0], x_in), (x_out, nodes[-1])):
                exponent = _decay_exponent(spec, energy, lo, hi)
                assert 1.0 - 1e-3 <= exponent / decay <= 1.01, (spec, k, tol, lo, hi, exponent / decay)


def test_edge_walk_passes_a_central_barrier():
    # E_4 of this double well lies under the central barrier, allowed only on
    # [2.587, 4.116]: a walk from x = 0 integrates from the far side of that
    # interval, not from inside the barrier
    spec = SexticGeneral(0.30139202692972683, -2.558622568016208, 8)
    energy = lowest_eigen(spec, 5, tol=1e-9).energies[4]
    assert energy == pytest.approx(-34.315, abs=1e-3)
    assert evaluate(spec, 0.0) > energy and evaluate(spec, 2.6) < energy < evaluate(spec, 4.12)
    x = eigensolver._edge_extent(spec, energy, 8.4, 0.0, 1.0)
    assert x > 4.12
    assert _decay_exponent(spec, energy, 4.1167, x) == pytest.approx(8.4, rel=1e-3)


def test_even_box_scales_with_the_well():
    # the walk starts from the kinetic-balance half-width, so the box of
    # V = w^2 x^2 / 2 scales like 1 / sqrt(w) over ten decades of w
    scaled = [_walked_half_width(EvenPolynomial((0.0, 0.5 * w * w)), 66, 1, 1e-10) * math.sqrt(w)
              for w in (1e-2, 1.0, 1e2, 1e4, 1e6, 1e8)]
    assert scaled == pytest.approx([scaled[1]] * len(scaled), rel=1e-9)
    assert scaled[1] == pytest.approx(5.540938127321, rel=1e-9)


def test_steep_harmonic_wells_certify():
    # The wall term of a box walked to a fixed decay exponent scales with
    # the well's energy while tol is absolute: such a box is too short for
    # six of these eight requests.  The kinetic-balance box scales with
    # the well's own length and certifies all of them.
    for w, tol in itertools.product((100.0, 1000.0), (1e-4, 1e-6, 1e-8, 1e-10)):
        spectrum = lowest_eigen(EvenPolynomial((0.0, 0.5 * w * w)), 1, tol=tol)
        assert spectrum.refinement_deltas[-1] < tol, (w, tol)
        assert abs(spectrum.energies[0] - 0.5 * w) < tol, (w, tol)


def test_uncertified_first_box_is_walked(monkeypatch):
    # A wide, shallow triple well, whose first solve, in its
    # kinetic-balance box, does not certify: the box is walked from that
    # solve's top level, and the walked box certifies.  Every full solve,
    # the first one included, leaves one certificate.
    solves = []

    def counted(*args):
        solves.append(args[1].size)
        return bounded_solve(*args)

    bounded_solve = eigensolver._bounded_solve
    monkeypatch.setattr(eigensolver, "_bounded_solve", counted)
    for N, k, tol in itertools.product((0, 1), (1, 2, 5, 10), (1e-9, 1e-10)):
        spec = SexticGeneral(0.1, -3.0, N)
        solves.clear()
        spectrum = lowest_eigen(spec, k, tol=tol)
        deltas = spectrum.refinement_deltas
        assert len(deltas) == len(solves) >= 2, (N, k, tol)
        assert deltas[0] >= tol > deltas[-1], (N, k, tol)
        # the walked box is solved first at the starting size
        assert solves[0] == solves[1] == 64 + 2 * k, (N, k, tol)
        mesh = uniform_mesh(2 * spectrum.mesh.size, *_walls(spectrum.mesh))
        reference = bounded_solve(spec, mesh, k)[0]
        assert np.max(np.abs(spectrum.energies - reference)) < tol, (N, k, tol)


# Largest node-value error of a matched algebraic level, relative to the
# state's largest value, at each tol of the scan (seeds 0-2 of 300
# requests each read at most 4.7e-6, 1.2e-7 and 2.6e-9).
_SCAN_VECTOR_ERROR = {1e-6: 2e-5, 1e-9: 1e-6, 1e-11: 3e-8}


def test_even_well_exact_level_scan():
    # Seeded QES sextic wells: every request certifies, and every algebraic
    # level it covers matches within tol, with node values that match the
    # gauge state normalized with weight h.  Algebraic level j is the j-th
    # even state, index 2j; in deep double wells its odd partner can sort
    # first, so it is matched by its overlap with indices 2j and 2j + 1.
    rng = np.random.default_rng(0)
    levels = 0
    for _ in range(300):
        nu = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        mu, N, k = rng.uniform(-3.0, 3.0), int(rng.integers(0, 9)), int(rng.integers(1, 61))
        tol = (1e-6, 1e-9, 1e-11)[int(rng.integers(3))]
        spec = SexticGeneral(nu, mu, N)
        spectrum = lowest_eigen(spec, k, tol=tol)
        assert spectrum.refinement_deltas[-1] < tol
        x, h = spectrum.mesh.nodes, spectrum.mesh.h
        for j, state in enumerate(qes_algebra.qes_states(spec)):
            candidates = [i for i in (2 * j, 2 * j + 1) if i < k]
            if not candidates:
                break
            exact = state.derivatives(x, order=0)[0]
            exact /= math.sqrt(h * np.sum(exact * exact))
            overlaps = [h * exact @ spectrum.eigenvectors[:, i] for i in candidates]
            best = int(np.argmax(np.abs(overlaps)))
            i = candidates[best]
            assert abs(spectrum.energies[i] - state.energy) < tol, (spec, k, tol, j)
            error = np.abs(spectrum.eigenvectors[:, i] - math.copysign(1.0, overlaps[best]) * exact)
            assert np.max(error) < _SCAN_VECTOR_ERROR[tol] * np.max(np.abs(exact)), (spec, k, tol, j)
            levels += 1
    assert levels > 1000


def test_clamped_start_is_named():
    # the top level sits just below the plateau, so its box wants 8251
    # points; a solve clamped to m_cap (2048 by default) does not resolve it,
    # its top level is not yet forbidden at the wall nodes, and the error
    # names the clamped start, not the box
    with pytest.raises(ConvergenceError) as excinfo:
        lowest_eigen(Morse(1.0, 3.173, 1.583, 2.0), 5, tol=1e-6, m_cap=512)
    message = str(excinfo.value)
    assert "starting size 8251 was clamped" in message and "too short" not in message
    assert excinfo.value.best.mesh.size == 512


def test_wide_well_top_level_certifies():
    # a top level that decays slowly just past its outer turning point, where
    # D / kappa leaves the exponent short of D and the box too short
    spec = Morse(1.0, 10.0, 0.3, 0.0)
    spectrum = lowest_eigen(spec, 1, tol=1e-9)
    assert spectrum.refinement_deltas[-1] < 1e-9
    exact = qes_algebra.morse_exact_spectrum(spec, 0)
    assert np.max(np.abs(spectrum.energies - exact)) < 1e-9


@pytest.mark.parametrize("well, tol", [((1.0, 2.41, 1.59, 0.5), 1e-9), ((1.0, 2.87, 1.66, 0.5), 1e-6)])
def test_ground_level_box_is_sized_for_the_ground_level(well, tol):
    # the top levels of these shallow wells sit near the plateau, where a box
    # sized for them is hundreds of units long; the ground level alone
    # certifies in its own box, with an error below its certificate
    spec = Morse(*well)
    spectrum = lowest_eigen(spec, 1, tol=tol)
    error = abs(spectrum.energies[0] - qes_algebra.morse_exact_spectrum(spec, 0)[0])
    assert spectrum.refinement_deltas[-1] < tol
    assert error < spectrum.refinement_deltas[-1]


def test_under_resolved_wall_term_grows_the_grid():
    # at its first sizes the top level of this outer-ring well is not yet
    # forbidden at the wall nodes, and its wall term reads as a box too
    # short: the grid grows until it resolves the level
    spec = EvenPolynomial((2.613, -1.376, -2.258, 0.0196))
    spectrum = lowest_eigen(spec, 33, tol=2e-11)
    assert spectrum.refinement_deltas[-1] < 2e-11
    reference = eigensolver._bounded_solve(spec, uniform_mesh(2 * spectrum.mesh.size, *_walls(spectrum.mesh)), 33)[0]
    assert np.max(np.abs(spectrum.energies - reference)) < 2e-11
    # the same stop refused this Morse request at 80 points; its error is
    # not asserted, since its certificate falls below it
    assert lowest_eigen(Morse(1.0, 1.95, 1.41, 0.0), 2, tol=1e-11).refinement_deltas[-1] < 1e-11


def test_morse_box_is_finite_or_refused():
    # every well the constructor accepts gets a finite box or a MeshError,
    # with no floating-point warning: an overflowing potential far left, a
    # well bottom at -inf and walks that never leave the allowed region
    extremes = (1e-300, 1.0, 1e300)
    calls = 0
    for a, b, alpha, depth in itertools.product(extremes, extremes, extremes + (1e8,), (0.0, 3.0)):
        try:
            spec = Morse(a, b, alpha, depth)
        except DomainError:
            continue
        for tol in (1e-300, 1e-9, 10.0):
            calls += 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    x_left, x_right, size = eigensolver._morse_box(spec, 1, tol)
                except MeshError:
                    continue
            assert math.isfinite(x_left) and math.isfinite(x_right) and x_left < x_right, (spec, tol)
            assert size >= eigensolver._MORSE_MIN_SIZE
    assert calls == 72


def test_too_short_a_box_is_never_certified(monkeypatch):
    # The four wells of the spectra workload in a box whose right wall is
    # only 8 decay lengths past the top level's outer turning point, on a
    # grid that resolves them: cutting the tail off there costs the top
    # level about 4.7e-8, which the tail of the sine expansion does not see.
    tol = 1e-9
    for depth in (0.0, 1.0, 2.0, 3.0):
        spec = Morse(1.0, 8.0, SQRT2, depth)
        k = spec.bound_count
        exact = qes_algebra.morse_exact_spectrum(spec, k - 1)
        x_in, x_out, kappa = _morse_turning_points(spec, k - 1)
        x_left, x_right = x_in - 1.0, x_out + 8.0 / kappa
        size = 2 * math.ceil(3.0 * (x_right - x_left) * math.sqrt(2.0 * (exact[-1] - spec.v_min)) / math.pi)
        energies, _, tail, wall, floor = eigensolver._bounded_solve(spec, uniform_mesh(size, x_left, x_right), k)
        bounds = tail + wall
        error = np.max(np.abs(energies - exact))
        assert 4e-8 < error < 6e-8
        assert max(bounds.max(), floor) >= error
        monkeypatch.setattr(eigensolver, "_morse_box", lambda *args, box=(x_left, x_right, size): box)
        with pytest.raises(ConvergenceError) as excinfo:
            lowest_eigen(spec, k, tol=tol)
        assert "too short" in str(excinfo.value)
        assert excinfo.value.best.refinement_deltas[-1] >= error


def test_certificate_rejects_an_under_resolved_start():
    spec = Morse(1.0, 4.0, 1.0, 0.0)
    x_left, x_right, start = eigensolver._morse_box(spec, 4, 1e-10)
    assert start == 83
    exact = qes_algebra.morse_exact_spectrum(spec, 3)
    energies, _, tail, wall, floor = eigensolver._bounded_solve(spec, uniform_mesh(start, x_left, x_right), 4)
    bounds = tail + wall
    error = np.max(np.abs(energies - exact))
    assert error > 1e-9
    assert max(bounds.max(), floor) >= error
    spectrum = lowest_eigen(spec, 4, tol=1e-10)
    assert spectrum.mesh.size > start
    assert spectrum.refinement_deltas[0] >= 1e-10 > spectrum.refinement_deltas[-1]
    assert np.max(np.abs(spectrum.energies - exact)) < 1e-10


def test_certificate_bounds_the_error():
    # Solves below each grid's starting size, in its box, are
    # under-resolved.  Wherever the certificate is under 1e-4 it bounds the
    # error (less the rounding floor of the sextic reference solve), and the
    # safety factor is needed: tail^2 alone falls short of it on some Morse
    # solves.  On the sextic the sine tail overstates the error far more:
    # each of these solves is within that rounding floor once its
    # certificate is under 1e-4.
    cases = []
    for spec in (SexticReduced(0.0), SexticReduced(0.7)):
        half = _walked_half_width(spec, 66, 1, 1e-9)
        reference, _, _, _, ref_floor = eigensolver._bounded_solve(spec, uniform_mesh(512, -half, half), 1)
        for M in range(16, 65, 4):
            cases.append((spec, uniform_mesh(M, -half, half), 1, reference, ref_floor))
    for a, b, alpha, depth in ((1.0, 8.0, SQRT2, 0.0), (1.0, 8.0, SQRT2, 3.0), (1.0, 4.0, 1.0, 0.0)):
        spec = Morse(a, b, alpha, depth)
        k = spec.bound_count
        x_left, x_right, start = eigensolver._morse_box(spec, k, 1e-9)
        exact = qes_algebra.morse_exact_spectrum(spec, k - 1)
        for M in range(start // 2, start + 1, 8):
            cases.append((spec, uniform_mesh(M, x_left, x_right), k, exact, 0.0))
    checked = short = 0
    for spec, mesh, k, reference, ref_floor in cases:
        energies, _, tail, wall, floor = eigensolver._bounded_solve(spec, mesh, k)
        bounds = tail + wall
        certificate = max(bounds.max(), floor)
        if certificate >= 1e-4:
            continue
        error = np.max(np.abs(energies - reference)) - ref_floor
        assert certificate >= error, (spec, mesh.size, certificate, error)
        checked += 1
        short += bounds.max() / eigensolver._TAIL_SAFETY < error
    assert checked >= 20
    assert short >= 1


def test_large_request_fits_under_default_cap():
    # 130 levels start at 324 points, where the first solve certifies itself
    spectrum = lowest_eigen(SexticReduced(0.5), 130)
    assert spectrum.mesh.size == 324


def test_solve_counts(monkeypatch):
    sizes = []

    def counted(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "eigh", counted)
    spectrum = lowest_eigen(SexticReduced(0.25), 51, tol=1e-10)
    # 64 points plus two per state start the mesh at 166, where the first
    # solve, one even and one odd block in the kinetic-balance box,
    # certifies itself
    assert sizes == [83, 83]
    assert spectrum.mesh.size == 166
    sizes.clear()
    # six grid points per shortest classical wavelength of the top level
    spectrum = lowest_eigen(Morse(1.0, 8.0, SQRT2, 3.0), 9, tol=1e-9)
    assert sizes == [230]
    assert spectrum.mesh.size < 1024


def test_potential_evaluation_counts(monkeypatch):
    # an even solve that certifies in its kinetic-balance box reads V on the
    # trial widths and that grid; one that does not, also on its walk's
    # spans and on each grid of the walked box (this wide well's walk
    # doubles its span once); a Morse solve on its two walks (three spans)
    # and its grid: the wall terms reuse the grid's values
    sizes = []

    def counted(spec, x):
        sizes.append(np.size(x))
        return evaluate(spec, x)

    monkeypatch.setattr(eigensolver, "evaluate", counted)
    for k, size in ((1, 66), (51, 166)):
        sizes.clear()
        lowest_eigen(SexticReduced(0.5), k)
        assert sizes == [601, size], k
    sizes.clear()
    lowest_eigen(SexticGeneral(0.1, -3.0, 0), 1, tol=1e-9)
    assert sizes == [601, 66, 2049, 2049, 66, 84]
    sizes.clear()
    lowest_eigen(Morse(1.0, 8.0, SQRT2, 3.0), 9, tol=1e-9)
    assert sizes == [2049, 2049, 2049, 230]


def test_low_morse_requests_take_at_most_two_solves():
    for depth in (0.0, 1.0, 2.0, 3.0):
        spec = Morse(1.0, 8.0, SQRT2, depth)
        for k in (1, 2, 3):
            spectrum = lowest_eigen(spec, k, tol=1e-9)
            assert len(spectrum.refinement_deltas) <= 2, (depth, k, spectrum.refinement_deltas)


def test_oscillator_path_needs_even_well():
    base = SexticReduced(1.0)
    partner = qes_algebra.darboux(qes_algebra.qes_states(base)[0])
    # the partner of an even well built from its even ground state is even,
    # and its levels are the base levels above the seed level
    levels = lowest_eigen(partner, 3, tol=1e-11).energies
    assert np.max(np.abs(levels - lowest_eigen(base, 4, tol=1e-11).energies[1:])) < 1e-9
    uneven = SusyPartner(GaugeState(Morse(1.0, 8.0, SQRT2, 1.0), (0.0, 1.0)))
    with pytest.raises(UnsupportedParameterError):
        lowest_eigen(uneven, 3)


def test_node_counts_match_level_index():
    spectrum = lowest_eigen(SexticReduced(0.0), 11, tol=1e-10)
    for n in range(11):
        assert count_sign_changes(spectrum.eigenvectors[:, n]) == n


def test_energies_sorted_and_deltas_cauchy():
    spectrum = lowest_eigen(SexticReduced(0.5), 8, tol=1e-11)
    assert np.all(np.diff(spectrum.energies) > 0)
    deltas = spectrum.refinement_deltas
    if len(deltas) >= 2:
        assert deltas[-1] <= deltas[-2]
    assert deltas[-1] < 1e-11


def test_sextic_qes_levels_n1():
    spectrum = lowest_eigen(SexticReduced(1.0), 4, tol=1e-11)
    assert spectrum.energies[0] == pytest.approx(1.5 - SQRT3, abs=1e-8)
    # 1.5 + sqrt(3) is the second even level: state index 2
    assert spectrum.energies[2] == pytest.approx(1.5 + SQRT3, abs=1e-8)


def test_sextic_qes_levels_n2():
    # the three exactly solvable even levels sit at state indices 0, 2, 4
    spectrum = lowest_eigen(SexticReduced(2.0), 6, tol=1e-11)
    expected = sorted((-1.5, 4.5 - math.sqrt(8.0), 4.5 + math.sqrt(8.0)))
    assert spectrum.energies[0] == pytest.approx(expected[0], abs=1e-8)
    assert spectrum.energies[2] == pytest.approx(expected[1], abs=1e-8)
    assert spectrum.energies[4] == pytest.approx(expected[2], abs=1e-8)


def test_morse_spectrum_matches_closed_form():
    spec = Morse(1.0, 8.0, SQRT2, 0.0)
    assert spec.bound_count == 6
    spectrum = lowest_eigen(spec, 6, tol=1e-10)
    n = np.arange(6, dtype=float)
    exact = 0.5 * SQRT2 * n * (16.0 - SQRT2 * n)
    assert np.max(np.abs(spectrum.energies - exact)) < 1e-6
    for idx in range(6):
        assert count_sign_changes(spectrum.eigenvectors[:, idx]) == idx
    # wells the benchmark does not run: the grid's starting size comes from
    # the well, and where that start is not yet within tol the loop grows it
    for a, b, alpha in ((1.0, 4.0, 1.0), (1.0, 12.0, 2.0), (0.5, 6.0, 0.7)):
        for depth in (0.0, 3.0):
            spec = Morse(a, b, alpha, depth)
            count = spec.bound_count
            spectrum = lowest_eigen(spec, count, tol=1e-10)
            exact = qes_algebra.morse_exact_spectrum(spec, count - 1)
            assert np.max(np.abs(spectrum.energies - exact)) < 1e-9, (a, b, alpha, depth)
            if (a, b, alpha, depth) == (1.0, 4.0, 1.0, 0.0):
                assert len(spectrum.refinement_deltas) >= 2


def test_sine_kinetic_matches_direct_formula():
    for M in (8, 9, 16, 66, 151, 230, 255, 256, 1040):
        spacing = 7.3 / (M + 1)
        L = spacing * (M + 1)
        n = M + 1
        i = np.arange(1, M + 1)
        pre = 0.25 * np.pi**2 / L**2
        ii = i[:, None]
        jj = i[None, :]
        sign = np.where((ii - jj) % 2 == 0, 1.0, -1.0)
        with np.errstate(divide="ignore"):
            direct = pre * sign * (
                1.0 / np.sin(np.pi * (ii - jj) / (2 * n)) ** 2
                - 1.0 / np.sin(np.pi * (ii + jj) / (2 * n)) ** 2
            )
        direct[np.arange(M), np.arange(M)] = pre * ((2.0 * n**2 + 1.0) / 3.0 - 1.0 / np.sin(np.pi * i / n) ** 2)
        kin = eigensolver._sine_kinetic(M, spacing)
        assert np.array_equal(kin, direct)
        assert np.array_equal(kin, kin.T)


def test_hamiltonian_is_the_symmetrized_sum():
    # V goes onto the diagonal of an exactly symmetric kinetic matrix, so
    # the Hamiltonian equals the symmetrized T + diag(V) bit for bit
    morse = Morse(1.0, 8.0, SQRT2, 0.0)
    partner = SusyPartner(GaugeState(Morse(1.0, 8.0, SQRT2, 1.0), (0.0, 1.0)))
    for spec in (morse, partner):
        mesh = uniform_mesh(230, -4.5, 12.0)
        total = eigensolver._sine_kinetic(mesh.size, mesh.h) + np.diag(evaluate(spec, mesh.nodes))
        assert np.array_equal(eigensolver.build_hamiltonian(spec, mesh), 0.5 * (total + total.T))


def test_fix_signs_matches_a_column_loop():
    mesh = uniform_mesh(120, -4.5, 12.0)
    _, vectors = np.linalg.eigh(eigensolver.build_hamiltonian(Morse(1.0, 8.0, SQRT2, 0.0), mesh))
    # columns of both signs, and a zero column, which keeps its sign
    vectors = np.hstack((vectors[:, :51] * np.where(np.arange(51) % 3 == 0, -1.0, 1.0), np.zeros((120, 1))))
    assert np.sum(vectors[0] < 0) >= 10
    expected = vectors.copy()
    for col in range(expected.shape[1]):
        v = expected[:, col]
        first = int(np.argmax(np.abs(v) > 1e-8 * np.max(np.abs(v))))
        if v[first] < 0:
            expected[:, col] = -v
    assert np.array_equal(eigensolver._fix_signs(vectors.copy()), expected)


def test_morse_request_beyond_bound_count():
    spec = Morse(1.0, 8.0, SQRT2, 0.0)
    with pytest.raises(SpectrumExhaustedError):
        lowest_eigen(spec, 7)


def test_mesh_validation():
    with pytest.raises(MeshError):
        Mesh(4, 0.5, np.linspace(-1, 1, 4))
    with pytest.raises(MeshError):
        Mesh(16, -0.5, np.linspace(-1, 1, 16))
    with pytest.raises(MeshError):
        Mesh(16, 0.5, np.zeros(16))
    with pytest.raises(MeshError):
        Mesh(16, 0.5, np.linspace(-1, 1, 15))
    with pytest.raises(MeshError):
        lowest_eigen(HARMONIC, 0)
    with pytest.raises(MeshError):
        lowest_eigen(HARMONIC, 3, tol=-1.0)
    # the full solve returns at most M levels, so a cap below k is refused
    with pytest.raises(MeshError):
        lowest_eigen(HARMONIC, 80, m_cap=64)
    with pytest.raises(MeshError):
        lowest_eigen(Morse(0.5, 6.0, 0.7, 3.0), 12, m_cap=10)


def test_uniform_mesh_shape():
    # the sextic oscillator's grid is the Morse well's: a uniform grid, here
    # in a box symmetric about x = 0
    uni = uniform_mesh(32, -1.0, 1.0)
    assert uni.size == 32 and uni.h == pytest.approx(2.0 / 33.0)
    mesh = lowest_eigen(SexticReduced(0.5), 10).mesh
    assert mesh.size == 84 and np.all(np.diff(mesh.nodes) > 0)
    assert _walls(mesh)[0] == pytest.approx(-_walls(mesh)[1], rel=1e-14)


def test_node_placement_overflow():
    # a mesh node deep under the exponential wall overflows the potential
    spec = Morse(1.0, 8.0, SQRT2, 0.0)
    mesh = uniform_mesh(16, -600.0, 6.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NodePlacementError):
            eigensolver.build_hamiltonian(spec, mesh)


def test_convergence_error_carries_best_spectrum():
    with pytest.raises(ConvergenceError) as excinfo:
        lowest_eigen(SexticReduced(0.0), 40, tol=1e-14, m_cap=512)
    best = excinfo.value.best
    assert best is not None
    assert best.energies.shape == (40,)
    assert best.mesh.size <= 512
    assert "refinement stalled" in str(excinfo.value)
    assert "no room" not in str(excinfo.value)
    # the Morse grid starts at 230 here; its first step, to 288, would pass
    # the cap, but the first solve certifies itself
    spec = Morse(1.0, 8.0, SQRT2, 3.0)
    spectrum = lowest_eigen(spec, 9, tol=1e-9, m_cap=250)
    assert spectrum.mesh.size == 230
    exact = qes_algebra.morse_exact_spectrum(spec, 8)
    assert np.max(np.abs(spectrum.energies - exact)) < 1e-9
    # a tol below the rounding floor eps ||H||, about 6e-13 here, stops the
    # loop at once, in the box sized for that tol: a larger mesh only raises
    # the floor
    with pytest.raises(ConvergenceError) as excinfo:
        lowest_eigen(spec, 9, tol=1e-13)
    best = excinfo.value.best
    assert best.mesh.size == 292
    assert len(best.refinement_deltas) == 1 and best.refinement_deltas[0] >= 1e-13
    assert "refinement stalled" in str(excinfo.value)
    assert np.max(np.abs(best.energies - exact)) < 1e-9


def test_tolerance_below_the_rounding_floor_is_named():
    # eps ||H||_inf of this steep well's grid is about 2e-10 in its
    # kinetic-balance box and 4e-10 in its walked box, so no box and no
    # grid certifies 1e-10; the walked box's wall term is above tol as
    # well, but the error names the floor, not a short box
    with pytest.raises(ConvergenceError) as excinfo:
        lowest_eigen(EvenPolynomial((0.0, 0.5e8)), 1, tol=1e-10)
    message = str(excinfo.value)
    assert "below what double precision resolves" in message and "too short" not in message
    # one solve in each box, at the starting size
    assert len(excinfo.value.best.refinement_deltas) == 2


def test_critical_index_bracket():
    value = critical_N(tol=1e-3)
    assert abs(value - 0.73295) < 2e-3
    value = critical_N(tol=1e-6)
    ground = [lowest_eigen(SexticReduced(value + step), 1).energies[0] for step in (-1e-6, 1e-6)]
    assert ground[0] > 0.0 > ground[1]


def test_critical_index_bad_bracket():
    with pytest.raises(SearchError):
        critical_N(tol=1e-3, lo=0.8, hi=0.9)


def test_count_sign_changes_threshold():
    # tail noise below the relative threshold must not register as nodes
    values = np.array([1.0, 0.5, 1e-12, -1e-13, 1e-12, 0.3, 0.8])
    assert count_sign_changes(values) == 0
    values = np.array([1.0, -1.0, 1.0])
    assert count_sign_changes(values) == 2
