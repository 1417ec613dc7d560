import math

import numpy as np
import pytest
from scipy.linalg import eigh

from qeswkb import eigensolver, qes_algebra
from qeswkb.eigensolver import (
    Mesh,
    count_sign_changes,
    critical_N,
    lowest_eigen,
    morse_bound_count,
    oscillator_mesh,
    uniform_mesh,
)
from qeswkb.errors import (
    ConvergenceError,
    MeshError,
    NodePlacementError,
    SearchError,
    SpectrumExhaustedError,
    UnsupportedParameterError,
)
from qeswkb.potentials import EvenPolynomial, GaugeState, Morse, SexticReduced, SusyPartner

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
    lam = np.exp(
        eigensolver._hermite_log_weights(spectrum.mesh.nodes / h, spectrum.mesh.size)
    )
    for n in range(6):
        psi = spectrum.eigenvectors[:, n]
        norm = float(np.sum(h * lam * psi * psi))
        assert norm == pytest.approx(1.0, abs=1e-10)
        flipped = psi[::-1] * (-1.0) ** n
        assert np.max(np.abs(flipped - psi)) < 1e-8
    # On the sextic the scale h is small, so the outer Hermite nodes sit
    # where the states are large and a wrong kinetic-matrix sign shows.
    sextic = lowest_eigen(SexticReduced(0.0), 11, tol=1e-10)
    for n in range(11):
        psi = sextic.eigenvectors[:, n]
        flipped = psi[::-1] * (-1.0) ** n
        assert np.max(np.abs(flipped - psi)) < 1e-8


@pytest.mark.parametrize("M", [256, 512, 1024, 2048])
def test_hermite_kinetic_matrix_signs(M):
    # The leading basis row underflows to 0.0 at the outer nodes; a sign
    # taken from it zeroes or flips whole kinetic-matrix rows and columns.
    kin = eigensolver._hermite_data(M).kin
    assert not np.any(np.all(kin == 0.0, axis=1))
    scale = np.max(np.abs(kin))
    assert np.max(np.abs(kin[::-1, ::-1] - kin)) <= 1e-12 * scale


def test_parity_blocks_match_full_matrix():
    spec = SexticReduced(0.5)
    mesh = oscillator_mesh(512, eigensolver._oscillator_scale(spec, 512, 51))
    energies, vectors = eigensolver._solve(spec, mesh, 51)
    full = eigh(eigensolver.build_hamiltonian(spec, mesh), eigvals_only=True, subset_by_index=(0, 50))
    # relative to max(1, |E|), as in converged_digits: both solves round at
    # eps * ||H||, a few 1e-12 here, which is 2e-11 of E_0 = 0.18
    assert np.max(np.abs(energies - full) / np.maximum(1.0, np.abs(full))) < 1e-11
    assert np.array_equal(mesh.nodes[::-1], -mesh.nodes)
    for n in range(51):
        psi = vectors[:, n]
        assert np.max(np.abs(psi[::-1] - (-1.0) ** n * psi)) <= 1e-12 * np.max(np.abs(psi))


def test_deep_spectra_converge_at_tight_tol():
    for depth in (0.0, 0.25, 0.5, 0.7):
        spectrum = lowest_eigen(SexticReduced(depth), 51, tol=1e-11)
        assert spectrum.refinement_deltas[-1] < 1e-11


def test_step_keeps_an_honest_certificate():
    # a 5/4 step certifies as much as a doubling: each returned spectrum
    # agrees with one solve at twice its size, at the same scale
    for depth in (0.0, 0.25, 0.5, 0.7):
        spec = SexticReduced(depth)
        spectrum = lowest_eigen(spec, 51, tol=1e-10)
        mesh = oscillator_mesh(2 * spectrum.mesh.size, spectrum.mesh.h)
        reference, _ = eigensolver._solve(spec, mesh, 51)
        error = np.abs(spectrum.energies - reference) / np.maximum(1.0, np.abs(reference))
        assert np.max(error) < 1e-10, depth


def test_certified_spectra_agree_with_a_doubled_mesh():
    # each certified spectrum agrees with one solve at twice its final size,
    # at the same scale or in the same box, to the requested tol
    tol = 1e-10
    base = SexticReduced(1.0)
    partner, _ = qes_algebra.darboux(qes_algebra.qes_states(base)[0])
    even = [SexticReduced(depth) for depth in (0.0, 0.25, 0.5, 0.7, 1.0, 2.0, 3.0)]
    even += [HARMONIC, EvenPolynomial((0.0, -1.0, 0.05, 0.02)), partner]
    for k in (1, 10, 51, 130):
        for spec in even:
            spectrum = lowest_eigen(spec, k, tol=tol)
            assert spectrum.refinement_deltas[-1] < tol
            mesh = oscillator_mesh(2 * spectrum.mesh.size, spectrum.mesh.h)
            reference, _ = eigensolver._solve(spec, mesh, k)
            assert np.max(np.abs(spectrum.energies - reference)) < tol, (spec, k)
    # the wells of test_morse_spectrum_matches_closed_form
    wells = [(1.0, 8.0, SQRT2, 0.0), (1.0, 4.0, 1.0, 0.0), (1.0, 4.0, 1.0, 3.0), (1.0, 12.0, 2.0, 0.0)]
    wells += [(1.0, 12.0, 2.0, 3.0), (0.5, 6.0, 0.7, 0.0), (0.5, 6.0, 0.7, 3.0)]
    for a, b, alpha, depth in wells:
        spec = Morse(a, b, alpha, depth)
        count = morse_bound_count(spec)
        for k in sorted({1, min(10, count), count}):
            x_left, x_right, _ = eigensolver._morse_box(spec, k)
            spectrum = lowest_eigen(spec, k, tol=tol)
            reference, _ = eigensolver._solve(spec, uniform_mesh(2 * spectrum.mesh.size, x_left, x_right), k)
            assert np.max(np.abs(spectrum.energies - reference)) < tol, (spec, k)


def test_certificate_rejects_an_under_resolved_start():
    spec = Morse(1.0, 4.0, 1.0, 0.0)
    x_left, x_right, start = eigensolver._morse_box(spec, 4)
    assert start == 115
    exact = qes_algebra.morse_exact_spectrum(spec, 3)
    energies, _, bounds, floor = eigensolver._certified_solve(spec, uniform_mesh(start, x_left, x_right), 4)
    error = np.max(np.abs(energies - exact))
    assert error > 1e-9
    assert max(bounds.max(), floor) >= error
    spectrum = lowest_eigen(spec, 4, tol=1e-10)
    assert spectrum.mesh.size > start
    assert spectrum.refinement_deltas[0] >= 1e-10 > spectrum.refinement_deltas[-1]
    assert np.max(np.abs(spectrum.energies - exact)) < 1e-10


def test_certificate_bounds_the_error():
    # Solves below each mesh's starting size, at its scale or in its box,
    # are under-resolved.  Wherever the certificate is under 1e-4 it bounds
    # the error (less the rounding floor of the sextic reference solve), and
    # the safety factor is needed: tail^2 alone falls short of it.
    cases = []
    for spec in (SexticReduced(0.0), SexticReduced(0.7)):
        h = eigensolver._oscillator_scale(spec, 256, 1)
        reference, _, _, ref_floor = eigensolver._certified_solve(spec, oscillator_mesh(512, h), 1)
        for M in range(64, 257, 16):
            cases.append((spec, oscillator_mesh(M, h), 1, reference, ref_floor))
    for a, b, alpha, depth in ((1.0, 8.0, SQRT2, 0.0), (1.0, 8.0, SQRT2, 3.0), (1.0, 4.0, 1.0, 0.0)):
        spec = Morse(a, b, alpha, depth)
        k = morse_bound_count(spec)
        x_left, x_right, start = eigensolver._morse_box(spec, k)
        exact = qes_algebra.morse_exact_spectrum(spec, k - 1)
        for M in range(start // 2, start + 1, 8):
            cases.append((spec, uniform_mesh(M, x_left, x_right), k, exact, 0.0))
    checked = short = 0
    for spec, mesh, k, reference, ref_floor in cases:
        energies, _, bounds, floor = eigensolver._certified_solve(spec, mesh, k)
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
    # 130 levels start at 1040 points, where the first solve certifies itself
    spectrum = lowest_eigen(SexticReduced(0.5), 130)
    assert spectrum.mesh.size == 1040


def test_solve_counts(monkeypatch):
    sizes = []

    def counted(matrix, *args, **kwargs):
        sizes.append(matrix.shape[0])
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(eigensolver, "eigh", counted)
    spectrum = lowest_eigen(SexticReduced(0.25), 51, tol=1e-10)
    # eight points per state start the mesh at 408, where the first solve,
    # one even and one odd block, certifies itself
    assert len(sizes) <= 6
    assert all(2 * m <= spectrum.mesh.size for m in sizes)
    assert spectrum.mesh.size == 408
    sizes.clear()
    # six grid points per shortest classical wavelength of the top level
    spectrum = lowest_eigen(Morse(1.0, 8.0, SQRT2, 3.0), 9, tol=1e-9)
    assert sizes == [353]
    assert spectrum.mesh.size < 1024


def test_low_morse_requests_take_at_most_two_solves():
    for depth in (0.0, 1.0, 2.0, 3.0):
        spec = Morse(1.0, 8.0, SQRT2, depth)
        for k in (1, 2, 3):
            spectrum = lowest_eigen(spec, k, tol=1e-9)
            assert len(spectrum.refinement_deltas) <= 2, (depth, k, spectrum.refinement_deltas)


def test_oscillator_path_needs_even_well():
    base = SexticReduced(1.0)
    partner, _ = qes_algebra.darboux(qes_algebra.qes_states(base)[0])
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
    assert np.all(spectrum.converged_digits >= 9)


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
    assert morse_bound_count(spec) == 6
    spectrum = lowest_eigen(spec, 6, tol=1e-10)
    n = np.arange(6, dtype=float)
    exact = 0.5 * SQRT2 * n * (16.0 - SQRT2 * n)
    assert np.max(np.abs(spectrum.energies - exact)) < 1e-6
    assert spectrum.mesh.kind == eigensolver.UNIFORM
    for idx in range(6):
        assert count_sign_changes(spectrum.eigenvectors[:, idx]) == idx
    # wells the benchmark does not run: the grid's starting size comes from
    # the well, and where that start is not yet within tol the loop grows it
    for a, b, alpha in ((1.0, 4.0, 1.0), (1.0, 12.0, 2.0), (0.5, 6.0, 0.7)):
        for depth in (0.0, 3.0):
            spec = Morse(a, b, alpha, depth)
            count = morse_bound_count(spec)
            spectrum = lowest_eigen(spec, count, tol=1e-10)
            exact = qes_algebra.morse_exact_spectrum(spec, count - 1)
            assert np.max(np.abs(spectrum.energies - exact)) < 1e-9, (a, b, alpha, depth)
            if (a, b, alpha, depth) == (1.0, 4.0, 1.0, 0.0):
                assert len(spectrum.refinement_deltas) >= 2


def test_sine_kinetic_matches_direct_formula():
    for M in (16, 255, 256):
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
        assert np.array_equal(eigensolver._sine_kinetic(M, spacing), direct)


def test_morse_request_beyond_bound_count():
    spec = Morse(1.0, 8.0, SQRT2, 0.0)
    with pytest.raises(SpectrumExhaustedError):
        lowest_eigen(spec, 7)


def test_mesh_validation():
    with pytest.raises(MeshError):
        Mesh(eigensolver.OSCILLATOR, 4, 0.5, np.linspace(-1, 1, 4))
    with pytest.raises(MeshError):
        Mesh(eigensolver.OSCILLATOR, 16, -0.5, np.linspace(-1, 1, 16))
    with pytest.raises(MeshError):
        Mesh(eigensolver.OSCILLATOR, 16, 0.5, np.zeros(16))
    with pytest.raises(MeshError):
        Mesh("hexagonal", 16, 0.5, np.linspace(-1, 1, 16))
    with pytest.raises(MeshError):
        lowest_eigen(HARMONIC, 0)
    with pytest.raises(MeshError):
        lowest_eigen(HARMONIC, 3, tol=-1.0)


def test_oscillator_mesh_shape():
    mesh = oscillator_mesh(64, 0.3)
    assert mesh.size == 64 and mesh.kind == eigensolver.OSCILLATOR
    assert np.all(np.diff(mesh.nodes) > 0)
    uni = uniform_mesh(32, -1.0, 1.0)
    assert uni.size == 32 and uni.kind == eigensolver.UNIFORM


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
    # the Morse grid starts at 353 here; its first step, to 442, would pass
    # the cap, but the first solve certifies itself
    spec = Morse(1.0, 8.0, SQRT2, 3.0)
    spectrum = lowest_eigen(spec, 9, tol=1e-9, m_cap=400)
    assert spectrum.mesh.size == 353
    exact = qes_algebra.morse_exact_spectrum(spec, 8)
    assert np.max(np.abs(spectrum.energies - exact)) < 1e-9
    # a tol below the rounding floor eps ||H||, about 5e-12 here, stops the
    # loop at once: a larger mesh only raises the floor
    with pytest.raises(ConvergenceError) as excinfo:
        lowest_eigen(spec, 9, tol=1e-13)
    best = excinfo.value.best
    assert best.mesh.size == 353
    assert len(best.refinement_deltas) == 1 and best.refinement_deltas[0] >= 1e-13
    assert "refinement stalled" in str(excinfo.value)
    assert np.max(np.abs(best.energies - exact)) < 1e-9


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
