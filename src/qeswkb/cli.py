"""Command-line front end wiring the toolkit into reproducible pipelines.

Every command writes deterministic text tables (CSV or TSV, one header
line, 15-significant-digit numbers) into an output directory, so repeated
runs with the same configuration produce byte-identical files.  The
``reproduce`` command executes the full study pipeline: high-accuracy
spectra and quantization corrections for the reduced sextic well at four
depth indices, published-model residuals, refits, the exponential-well
suite, and a pass/fail summary against the acceptance thresholds.
"""

from dataclasses import dataclass
import argparse
import math
import os
import sys
import time

import numpy as np

from . import fitmodels, qes_algebra, wkb
from .eigensolver import critical_N, lowest_eigen, morse_bound_count
from .errors import DomainError, QeswkbError
from .potentials import (
    EvenPolynomial,
    Morse,
    SexticReduced,
    build_spec,
    evaluate,
    susy_partner_closed_form,
)

_COMMANDS = (
    "spectrum",
    "wkb",
    "fit-gamma",
    "fit-energy",
    "qes",
    "susy",
    "morse",
    "reproduce",
)
_DEPTHS = (0.0, 0.25, 0.5, 0.7)
_DEPTH_TAGS = {0.0: "0", 0.25: "1q", 0.5: "1h", 0.7: "7t"}
_MORSE_REF = (1.0, 8.0, math.sqrt(2.0))


@dataclass(frozen=True)
class RunConfig:
    command: str
    potential: object
    n_max: int
    tol: float
    output_dir: str
    fmt: str


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return "nan"
    return "%.15g" % v


def _write_table(path, header, rows, fmt):
    sep = "," if fmt == "csv" else "\t"
    with open(path, "w", newline="") as handle:
        handle.write(sep.join(header) + "\n")
        for row in rows:
            handle.write(sep.join(_fmt(v) for v in row) + "\n")


def _ext(fmt):
    return "csv" if fmt == "csv" else "tsv"


def _parse_config_file(path):
    values = {}
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise DomainError("cannot read config file %s: %s" % (path, exc))
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise DomainError(
                "config %s line %d: expected key=value, got %r" % (path, lineno, raw)
            )
        values[key.strip()] = value.strip()
    return values


def _merge(cli_value, file_values, key, cast, default):
    if cli_value is not None:
        return cli_value
    if key in file_values:
        raw = file_values[key]
        try:
            return cast(raw)
        except ValueError:
            raise DomainError("config key %s: cannot parse %r" % (key, raw))
    return default


def build_config(argv):
    parser = argparse.ArgumentParser(
        prog="qeswkb",
        description="Spectra, semiclassical corrections, and algebraic levels "
        "of quasi-solvable wells.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--family", choices=(
        "sextic_reduced", "sextic_general", "morse", "even_polynomial"))
    parser.add_argument("--N", type=float, default=None)
    parser.add_argument("--nu", type=float, default=None)
    parser.add_argument("--mu", type=float, default=None)
    parser.add_argument("--a", type=float, default=None)
    parser.add_argument("--b", type=float, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--coeffs", type=str, default=None,
                        help="comma-separated even-power coefficients, constant first")
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", dest="fmt", choices=("csv", "tsv"), default=None)
    parser.add_argument("--config", type=str, default=None,
                        help="flat key=value file; command-line flags win")
    args = parser.parse_args(argv)

    file_values = _parse_config_file(args.config) if args.config else {}
    family = args.family or file_values.get("family")
    opts = {
        "N": _merge(args.N, file_values, "N", float, None),
        "nu": _merge(args.nu, file_values, "nu", float, None),
        "mu": _merge(args.mu, file_values, "mu", float, None),
        "a": _merge(args.a, file_values, "a", float, None),
        "b": _merge(args.b, file_values, "b", float, None),
        "alpha": _merge(args.alpha, file_values, "alpha", float, None),
        "coeffs": _merge(args.coeffs, file_values, "coeffs", str, None),
    }
    n_max = _merge(args.n_max, file_values, "n_max", int, 50)
    tol = _merge(args.tol, file_values, "tol", float, 1e-10)
    out = _merge(args.out, file_values, "out", str, "./qeswkb_out")
    fmt = _merge(args.fmt, file_values, "format", str, "csv")
    if fmt not in ("csv", "tsv"):
        raise DomainError("format must be csv or tsv, got %r" % fmt)
    if n_max < 0 or n_max > 200:
        raise DomainError("n_max must lie in 0..200, got %d" % n_max)
    if not (1e-14 <= tol <= 1e-4):
        raise DomainError("tol must lie in [1e-14, 1e-4], got %g" % tol)

    if args.command == "morse" and family is None:
        family = "morse"
    potential = None
    if args.command not in ("reproduce",):
        potential = build_spec(family, opts)
        if args.command == "morse" and not isinstance(potential, Morse):
            raise DomainError("the morse command requires the morse family")
    return RunConfig(
        command=args.command,
        potential=potential,
        n_max=n_max,
        tol=tol,
        output_dir=out,
        fmt=fmt,
    )


def _prepare_output(config):
    os.makedirs(config.output_dir, exist_ok=True)
    if not os.access(config.output_dir, os.W_OK):
        raise DomainError("output directory %s is not writable" % config.output_dir)


def _cmd_spectrum(config):
    spectrum = lowest_eigen(config.potential, config.n_max + 1, tol=config.tol)
    rows = [(n, e) for n, e in enumerate(spectrum.energies)]
    _write_table(
        os.path.join(config.output_dir, "spectrum.%s" % _ext(config.fmt)),
        ("n", "energy"),
        rows,
        config.fmt,
    )
    return 0


def _cmd_wkb(config):
    spectrum = lowest_eigen(config.potential, config.n_max + 1, tol=config.tol)
    rows = []
    for n, energy in enumerate(spectrum.energies):
        try:
            record = wkb.gamma(config.potential, n, energy)
        except QeswkbError as exc:
            print("skipped\tn=%d\t%s\t%s" % (n, type(exc).__name__, exc), file=sys.stderr)
            continue
        rows.append(
            (n, energy, record.x_left, record.x_right, record.action, record.gamma)
        )
    _write_table(
        os.path.join(config.output_dir, "wkb.%s" % _ext(config.fmt)),
        ("n", "energy", "x_left", "x_right", "action", "gamma"),
        rows,
        config.fmt,
    )
    return 0


def _write_fit_report(path, report):
    """Fitted parameters followed by the error summary and convergence flag."""
    with open(path, "w") as handle:
        handle.write(fitmodels.format_fit_params(report.params))
        handle.write("max_rel_error %s\n" % _fmt(report.max_rel_error))
        handle.write("rms_rel_error %s\n" % _fmt(report.rms_rel_error))
        handle.write("converged %s\n" % report.converged)


def _gamma_series(potential, spectrum):
    pairs = []
    for n in range(3, len(spectrum.energies)):
        record = wkb.gamma(potential, n, float(spectrum.energies[n]))
        pairs.append((n, record.gamma))
    return pairs


def _cmd_fit_gamma(config):
    if config.n_max < 10:
        raise DomainError("fit-gamma needs n_max >= 10 to constrain six parameters")
    spectrum = lowest_eigen(config.potential, config.n_max + 1, tol=config.tol)
    data = _gamma_series(config.potential, spectrum)
    label = getattr(config.potential, "N", None)
    report = fitmodels.fit_gamma(data, n_label=label)
    _write_fit_report(os.path.join(config.output_dir, "gamma_fit_params.txt"), report)
    rows = [
        (n, g, fitmodels.gamma_fit_eval(report.params, n),
         abs(fitmodels.gamma_fit_eval(report.params, n) - g) / g)
        for n, g in data
    ]
    _write_table(
        os.path.join(config.output_dir, "gamma_fit_residuals.%s" % _ext(config.fmt)),
        ("n", "exact", "fit", "rel_error"),
        rows,
        config.fmt,
    )
    return 0


def _cmd_fit_energy(config):
    if config.n_max < 15:
        raise DomainError("fit-energy needs n_max >= 15 to constrain twelve parameters")
    spectrum = lowest_eigen(config.potential, config.n_max + 1, tol=config.tol)
    data = [(n, float(e)) for n, e in enumerate(spectrum.energies)]
    label = getattr(config.potential, "N", None)
    report = fitmodels.fit_energy(data, data[0][1], n_label=label)
    _write_fit_report(os.path.join(config.output_dir, "energy_fit_params.txt"), report)
    rows = [
        (n, e, fitmodels.energy_fit_eval(report.params, n),
         abs(fitmodels.energy_fit_eval(report.params, n) - e) / abs(e) if e else 0.0)
        for n, e in data
    ]
    _write_table(
        os.path.join(config.output_dir, "energy_fit_residuals.%s" % _ext(config.fmt)),
        ("n", "exact", "fit", "rel_error"),
        rows,
        config.fmt,
    )
    return 0


def _cmd_qes(config):
    states = qes_algebra.qes_states(config.potential)
    label = getattr(config.potential, "N", float("nan"))
    lines = ["N index energy poly_coefficients"]
    for idx, state in enumerate(states):
        coeffs = ";".join(_fmt(c) for c in state.poly)
        lines.append("%s %d %s %s" % (_fmt(label), idx, _fmt(state.energy), coeffs))
    with open(os.path.join(config.output_dir, "qes_report.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


def _susy_grid(potential):
    if isinstance(potential, Morse):
        return np.linspace(-3.0, 6.0, 241)
    return np.linspace(-3.0, 3.0, 241)


def _cmd_susy(config):
    states = qes_algebra.qes_states(config.potential)
    seed = states[0]
    partner, operator = qes_algebra.darboux(config.potential, seed)
    grid = _susy_grid(config.potential)
    v0 = evaluate(config.potential, grid)
    v1 = evaluate(partner, grid)
    rows = list(zip(grid, v0, v1))
    _write_table(
        os.path.join(config.output_dir, "susy_partner.%s" % _ext(config.fmt)),
        ("x", "V0", "V1"),
        rows,
        config.fmt,
    )
    psi_seed = seed.derivatives(grid, 0)[0]
    image = operator.apply_state(seed, grid, order=0)[0]
    annihilation = float(np.max(np.abs(image))) / float(np.max(np.abs(psi_seed)))
    lines = ["quantity value", "annihilation_ratio %s" % _fmt(annihilation)]
    for idx, state in enumerate(states[1:], start=1):
        residual = qes_algebra.intertwining_residual(
            config.potential, seed, state, grid
        )
        lines.append("intertwining_residual_state_%d %s" % (idx, _fmt(residual)))
    with open(os.path.join(config.output_dir, "susy_report.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


def _cmd_morse(config):
    potential = config.potential
    bound = morse_bound_count(potential)
    count = min(config.n_max + 1, bound)
    exact = qes_algebra.morse_exact_spectrum(
        potential.a, potential.beta, potential.alpha, count - 1
    )
    numeric = lowest_eigen(potential, count, tol=min(config.tol, 1e-9)).energies
    rows = [
        (n, exact[n], float(numeric[n]), abs(float(numeric[n]) - exact[n]))
        for n in range(count)
    ]
    _write_table(
        os.path.join(config.output_dir, "morse.%s" % _ext(config.fmt)),
        ("n", "exact", "numeric", "abs_delta"),
        rows,
        config.fmt,
    )
    return 0


class _Summary:
    def __init__(self):
        self.lines = []
        self.all_pass = True

    def add(self, name, measured, threshold, ok):
        self.all_pass = self.all_pass and ok
        self.lines.append(
            "%s\t%s\t%s\t%s" % (name, _fmt(measured), _fmt(threshold), "PASS" if ok else "FAIL")
        )

    def write(self, path):
        with open(path, "w") as handle:
            handle.write("check\tmeasured\tthreshold\tstatus\n")
            handle.write("\n".join(self.lines) + "\n")


def _reproduce_sextic(config, summary):
    solved = {}
    for depth in _DEPTHS:
        potential = SexticReduced(depth)
        solved[depth] = (potential, lowest_eigen(potential, 51, tol=1e-10))

    gamma_pub_worst = 0.0
    energy_pub_worst = {}
    refit_gamma_worst = 0.0
    refit_energy_worst = {}
    gamma_tables = {}
    energy_tables = {}
    for depth in _DEPTHS:
        potential, spectrum = solved[depth]
        tag = _DEPTH_TAGS[depth]
        energies = [float(e) for e in spectrum.energies]
        _write_table(
            os.path.join(config.output_dir, "energies_N%s.%s" % (tag, _ext(config.fmt))),
            ("n", "energy"),
            list(enumerate(energies)),
            config.fmt,
        )
        records = []
        for n, energy in enumerate(energies):
            record = wkb.gamma(potential, n, energy)
            records.append((n, energy, record.action, record.gamma))
        _write_table(
            os.path.join(config.output_dir, "gamma_N%s.%s" % (tag, _ext(config.fmt))),
            ("n", "energy", "action", "gamma"),
            records,
            config.fmt,
        )
        gamma_data = [(n, g) for n, _, _, g in records if n >= 3]
        energy_data = list(enumerate(energies))

        pub_gamma = fitmodels.PUBLISHED_GAMMA[depth]
        rows = []
        worst = 0.0
        for n, g in gamma_data:
            fit = fitmodels.gamma_fit_eval(pub_gamma, n)
            rel = abs(fit - g) / g
            worst = max(worst, rel)
            rows.append((n, g, fit, rel))
        gamma_pub_worst = max(gamma_pub_worst, worst)
        _write_table(
            os.path.join(
                config.output_dir,
                "gamma_published_residuals_N%s.%s" % (tag, _ext(config.fmt)),
            ),
            ("n", "exact", "fit", "rel_error"),
            rows,
            config.fmt,
        )

        pub_energy = fitmodels.published_energy_params(depth, energies[0])
        rows = []
        worst = 0.0
        for n, e in energy_data:
            fit = fitmodels.energy_fit_eval(pub_energy, n)
            rel = abs(fit - e) / abs(e)
            if n > 2:
                worst = max(worst, rel)
            rows.append((n, e, fit, rel))
        energy_pub_worst[depth] = worst
        _write_table(
            os.path.join(
                config.output_dir,
                "energy_published_residuals_N%s.%s" % (tag, _ext(config.fmt)),
            ),
            ("n", "exact", "fit", "rel_error"),
            rows,
            config.fmt,
        )

        gamma_report = fitmodels.fit_gamma(gamma_data, n_label=depth)
        energy_report = fitmodels.fit_energy(energy_data, energies[0], n_label=depth)
        gamma_tables[depth] = gamma_report
        energy_tables[depth] = energy_report
        refit_gamma_worst = max(refit_gamma_worst, gamma_report.max_rel_error)
        refit_e = max(
            abs(fitmodels.energy_fit_eval(energy_report.params, n) - e) / abs(e)
            for n, e in energy_data
            if 2 < n < 50
        )
        refit_energy_worst[depth] = refit_e
        for kind, report in (("gamma", gamma_report), ("energy", energy_report)):
            _write_fit_report(
                os.path.join(config.output_dir, "%s_refit_params_N%s.txt" % (kind, tag)),
                report,
            )

    for kind, tables, fields in (
        ("gamma", gamma_tables, ("a0", "a1", "b1", "b2", "b3", "b4")),
        (
            "energy",
            energy_tables,
            ("E0", "A0", "A1", "A2", "A3", "A4", "A5", "A6",
             "B1", "B2", "B3", "B4", "B5"),
        ),
    ):
        lines = ["parameter\t" + "\t".join("N=%s" % _fmt(d) for d in _DEPTHS)]
        for field_name in fields:
            row = [field_name]
            for depth in _DEPTHS:
                row.append(_fmt(getattr(tables[depth].params, field_name)))
            lines.append("\t".join(row))
        if kind == "energy":
            row = ["A6_over_B5_sq"]
            for depth in _DEPTHS:
                p = tables[depth].params
                row.append(_fmt(p.A6 / p.B5**2))
            lines.append("\t".join(row))
        with open(
            os.path.join(config.output_dir, "%s_refit_table.txt" % kind), "w"
        ) as handle:
            handle.write("\n".join(lines) + "\n")

    summary.add("published_gamma_envelope", gamma_pub_worst, 5e-3, gamma_pub_worst <= 5e-3)
    summary.add(
        "published_energy_envelope_N0",
        energy_pub_worst[0.0],
        5e-4,
        energy_pub_worst[0.0] <= 5e-4,
    )
    other = max(energy_pub_worst[d] for d in (0.25, 0.5, 0.7))
    summary.add("published_energy_envelope_rest", other, 5e-3, other <= 5e-3)
    summary.add("refit_gamma", refit_gamma_worst, 2e-3, refit_gamma_worst <= 2e-3)
    summary.add(
        "refit_energy_N0",
        refit_energy_worst[0.0],
        1e-4,
        refit_energy_worst[0.0] <= 1e-4,
    )
    other = max(refit_energy_worst[d] for d in (0.25, 0.5, 0.7))
    summary.add("refit_energy_rest", other, 1e-3, other <= 1e-3)

    ratio = fitmodels.asymptotic_coefficient()
    summary.add(
        "asymptotic_coefficient",
        abs(ratio - 1.13254),
        5e-5,
        abs(ratio - 1.13254) <= 5e-5,
    )
    pub0 = fitmodels.published_energy_params(0.0, solved[0.0][1].energies[0])
    dev = abs(pub0.A6 / pub0.B5**2 - 1.13424)
    summary.add("published_ratio_N0", dev, 1e-4, dev <= 1e-4)
    targets = {0.25: 1.14224, 0.5: 1.15169, 0.7: 1.1596}
    worst = 0.0
    for depth, target in targets.items():
        p = fitmodels.published_energy_params(depth, 0.0)
        worst = max(worst, abs(p.A6 / p.B5**2 - target))
    summary.add("published_ratio_rest", worst, 1e-4, worst <= 1e-4)

    ground0 = float(solved[0.0][1].energies[0])
    summary.add(
        "sextic_N0_ground", abs(ground0 - 0.5), 1e-10, abs(ground0 - 0.5) <= 1e-10
    )
    qes_pair = sorted(
        state.energy for state in qes_algebra.qes_states(SexticReduced(1.0))
    )
    mesh = lowest_eigen(SexticReduced(1.0), 3, tol=1e-10).energies
    dev = max(abs(qes_pair[0] - mesh[0]), abs(qes_pair[1] - mesh[2]))
    summary.add("sextic_N1_qes_match", dev, 1e-8, dev <= 1e-8)


def _reproduce_harmonic(summary):
    harmonic = EvenPolynomial((0.0, 0.5))
    spectrum = lowest_eigen(harmonic, 11, tol=1e-12)
    dev = float(np.max(np.abs(spectrum.energies - (np.arange(11) + 0.5))))
    summary.add("harmonic_energies", dev, 1e-10, dev <= 1e-10)
    worst = max(
        abs(wkb.gamma(harmonic, n, n + 0.5).gamma) for n in range(11)
    )
    summary.add("harmonic_gamma", worst, 1e-9, worst <= 1e-9)


def _reproduce_morse(config, summary):
    a, b, alpha = _MORSE_REF
    potential = Morse(a, b, alpha, 0.0)
    exact = qes_algebra.morse_exact_spectrum(a, b, alpha, 5)
    printed = [0.0, 10.313708498985, 18.62741699797, 24.94112549695,
               29.25483399594, 31.56854249492]
    closed_dev = max(abs(e - p) for e, p in zip(exact, printed))
    summary.add("morse_closed_spectrum", closed_dev, 1e-9, closed_dev <= 1e-9)
    numeric = lowest_eigen(potential, 6, tol=1e-9).energies
    numeric_dev = max(abs(float(n) - p) for n, p in zip(numeric, printed))
    summary.add("morse_numeric_spectrum", numeric_dev, 1e-6, numeric_dev <= 1e-6)
    _write_table(
        os.path.join(config.output_dir, "morse_energies.%s" % _ext(config.fmt)),
        ("n", "exact", "numeric", "abs_delta"),
        [
            (n, exact[n], float(numeric[n]), abs(float(numeric[n]) - exact[n]))
            for n in range(6)
        ],
        config.fmt,
    )

    rows = []
    closed_worst = 0.0
    quad_worst = 0.0
    for n, energy in enumerate(exact):
        s_closed = wkb.morse_action_closed(a, b, alpha, energy)
        g_closed = s_closed / math.pi - n - 0.5
        record = wkb.gamma(potential, n, energy)
        closed_worst = max(closed_worst, abs(g_closed))
        quad_worst = max(quad_worst, abs(record.gamma))
        rows.append((n, energy, g_closed, record.gamma))
    _write_table(
        os.path.join(config.output_dir, "morse_gamma.%s" % _ext(config.fmt)),
        ("n", "energy", "gamma_closed", "gamma_quadrature"),
        rows,
        config.fmt,
    )
    summary.add("morse_gamma_closed", closed_worst, 1e-8, closed_worst <= 1e-8)
    summary.add("morse_gamma_quadrature", quad_worst, 1e-6, quad_worst <= 1e-6)

    grid = np.linspace(-3.0, 6.0, 241)
    shape_worst = 0.0
    rows = []
    for n_index in (1, 2, 3):
        spec_n = Morse(a, b, alpha, n_index)
        states = qes_algebra.qes_states(spec_n)
        partner, _ = qes_algebra.darboux(spec_n, states[0])
        lowered, shift = susy_partner_closed_form(spec_n)
        deviation = float(
            np.max(np.abs(evaluate(partner, grid) - evaluate(lowered, grid) - shift))
        )
        shape_worst = max(shape_worst, deviation)
        rows.append((n_index, deviation, shift))
    _write_table(
        os.path.join(config.output_dir, "morse_shape_invariance.%s" % _ext(config.fmt)),
        ("N", "max_deviation", "level_shift"),
        rows,
        config.fmt,
    )
    summary.add("morse_shape_invariance", shape_worst, 1e-10, shape_worst <= 1e-10)

    spec1 = Morse(a, b, alpha, 1.0)
    states1 = qes_algebra.qes_states(spec1)
    partner1, _ = qes_algebra.darboux(spec1, states1[0])
    _write_table(
        os.path.join(config.output_dir, "partner_morse_N1.%s" % _ext(config.fmt)),
        ("x", "V0", "V1"),
        list(zip(grid, evaluate(spec1, grid), evaluate(partner1, grid))),
        config.fmt,
    )
    morse_residual = qes_algebra.intertwining_residual(
        spec1, states1[0], states1[1], grid
    )
    sex1 = SexticReduced(1.0)
    sex_states = qes_algebra.qes_states(sex1)
    sex_grid = np.linspace(-3.0, 3.0, 241)
    sextic_residual = qes_algebra.intertwining_residual(
        sex1, sex_states[0], sex_states[1], sex_grid
    )
    worst = max(morse_residual, sextic_residual)
    summary.add("intertwining_residual", worst, 1e-8, worst <= 1e-8)

    anni = 0.0
    for spec_x, states_x, grid_x in (
        (spec1, states1, grid),
        (sex1, sex_states, sex_grid),
    ):
        _, operator = qes_algebra.darboux(spec_x, states_x[0])
        psi = states_x[0].derivatives(grid_x, 0)[0]
        image = operator.apply_state(states_x[0], grid_x, order=0)[0]
        anni = max(anni, float(np.max(np.abs(image)) / np.max(np.abs(psi))))
    summary.add("seed_annihilation", anni, 1e-12, anni <= 1e-12)

    sex0 = SexticReduced(0.0)
    seed0 = qes_algebra.qes_states(sex0)[0]
    partner0, _ = qes_algebra.darboux(sex0, seed0)
    _write_table(
        os.path.join(config.output_dir, "partner_sextic_N0.%s" % _ext(config.fmt)),
        ("x", "V0", "V1"),
        list(zip(sex_grid, evaluate(sex0, sex_grid), evaluate(partner0, sex_grid))),
        config.fmt,
    )

    worst_comm = 0.0
    for n_index in range(6):
        raising, weight, lowering = qes_algebra.sl2_generators(n_index)
        block = slice(0, n_index + 1)
        comm = (raising @ lowering - lowering @ raising + 2.0 * weight)[block, block]
        worst_comm = max(worst_comm, float(np.max(np.abs(comm))))
        comm = (weight @ raising - raising @ weight - raising)[block, block]
        worst_comm = max(worst_comm, float(np.max(np.abs(comm))))
        comm = (weight @ lowering - lowering @ weight + lowering)[block, block]
        worst_comm = max(worst_comm, float(np.max(np.abs(comm))))
    summary.add("sl2_commutators", worst_comm, 1e-13, worst_comm <= 1e-13)

    worst_lie = 0.0
    for n_index in range(6):
        for params in ((a, b, alpha), (1.3, 5.0, 0.9), (0.7, 3.3, 1.7)):
            worst_lie = max(
                worst_lie, qes_algebra.morse_lie_form_check(n_index, *params)
            )
    summary.add("lie_form_equivalence", worst_lie, 1e-12, worst_lie <= 1e-12)


def _cmd_reproduce(config):
    summary = _Summary()
    started = time.perf_counter()
    _reproduce_morse(config, summary)
    _reproduce_harmonic(summary)
    _reproduce_sextic(config, summary)
    n_crit = critical_N(tol=1e-3)
    summary.add(
        "critical_depth_index",
        abs(n_crit - 0.73295),
        2e-3,
        abs(n_crit - 0.73295) <= 2e-3,
    )
    elapsed = time.perf_counter() - started
    summary.add("runtime_seconds", elapsed, 600.0, elapsed < 600.0)
    summary.write(os.path.join(config.output_dir, "summary.txt"))
    return 0 if summary.all_pass else 1


_RUNNERS = {
    "spectrum": _cmd_spectrum,
    "wkb": _cmd_wkb,
    "fit-gamma": _cmd_fit_gamma,
    "fit-energy": _cmd_fit_energy,
    "qes": _cmd_qes,
    "susy": _cmd_susy,
    "morse": _cmd_morse,
    "reproduce": _cmd_reproduce,
}


def run(config):
    """Execute one command; returns the process exit status."""
    try:
        _prepare_output(config)
        return _RUNNERS[config.command](config)
    except QeswkbError as exc:
        record = "error\t%s\t%s" % (type(exc).__name__, exc)
        try:
            with open(os.path.join(config.output_dir, "summary.txt"), "a") as handle:
                handle.write(record + "\n")
        except OSError:
            pass
        print(record, file=sys.stderr)
        return 2


def main(argv=None):
    try:
        config = build_config(argv)
    except QeswkbError as exc:
        print("error\t%s\t%s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
