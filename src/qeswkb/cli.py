"""Command-line front end wiring the toolkit into reproducible pipelines.

Every command writes text tables (CSV or TSV, one header line,
15-significant-digit numbers) into an output directory, and repeated runs
with the same configuration produce byte-identical files.  The
``reproduce`` command executes the full study pipeline: high-accuracy
spectra and quantization corrections for the reduced sextic well at four
depth indices, published-model residuals, refits, the exponential-well
suite, and a pass/fail summary with one row per check of
``qeswkb.acceptance.CHECKS``.
"""

from dataclasses import dataclass, fields
import argparse
import math
import os
import sys
import time

import numpy as np

from . import fitmodels, qes_algebra, wkb
from .acceptance import CHECKS, DEPTHS, Study
from .eigensolver import lowest_eigen, morse_bound_count
from .errors import DomainError, QeswkbError
from .potentials import _FAMILY_FIELDS, Morse, SexticReduced, build_spec, evaluate

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
_DEPTH_TAGS = {0.0: "0", 0.25: "1q", 0.5: "1h", 0.7: "7t"}


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
    parser.add_argument("--family", choices=tuple(_FAMILY_FIELDS))
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
    """Fitted parameters followed by the error summary, convergence flag and
    Jacobian conditioning as ``# name value`` comment lines, so that
    ``fitmodels.parse_fit_params`` reads the file back."""
    with open(path, "w") as handle:
        handle.write(fitmodels.format_fit_params(report.params))
        handle.write("# max_rel_error %s\n" % _fmt(report.max_rel_error))
        handle.write("# rms_rel_error %s\n" % _fmt(report.rms_rel_error))
        handle.write("# converged %s\n" % report.converged)
        handle.write("# jacobian_cond %.3g\n" % report.jacobian_cond)


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


def _write_sextic_files(config, study):
    tables = {}
    for depth in DEPTHS:
        tag = _DEPTH_TAGS[depth]
        energies = study.spectra[depth].energies
        _write_table(
            os.path.join(config.output_dir, "energies_N%s.%s" % (tag, _ext(config.fmt))),
            ("n", "energy"),
            list(enumerate(energies)),
            config.fmt,
        )
        _write_table(
            os.path.join(config.output_dir, "gamma_N%s.%s" % (tag, _ext(config.fmt))),
            ("n", "energy", "action", "gamma"),
            [
                (n, e, r.action, r.gamma)
                for (n, e), r in zip(enumerate(energies), study.gamma_tables[depth])
            ],
            config.fmt,
        )
        for kind, rows in (
            ("gamma", study.published_gamma[depth]),
            ("energy", study.published_energy[depth]),
        ):
            _write_table(
                os.path.join(
                    config.output_dir,
                    "%s_published_residuals_N%s.%s" % (kind, tag, _ext(config.fmt)),
                ),
                ("n", "exact", "fit", "rel_error"),
                rows,
                config.fmt,
            )
        for kind, report in zip(("gamma", "energy"), study.refits[depth]):
            _write_fit_report(
                os.path.join(config.output_dir, "%s_refit_params_N%s.txt" % (kind, tag)),
                report,
            )
            tables.setdefault(kind, []).append(report.params)

    for kind, params in tables.items():
        lines = ["parameter\t" + "\t".join("N=%s" % _fmt(d) for d in DEPTHS)]
        for name in (f.name for f in fields(params[0]) if f.name != "N_label"):
            values = [_fmt(getattr(p, name)) for p in params]
            lines.append("\t".join([name] + values))
        if kind == "energy":
            values = [_fmt(p.A6 / p.B5**2) for p in params]
            lines.append("\t".join(["A6_over_B5_sq"] + values))
        with open(
            os.path.join(config.output_dir, "%s_refit_table.txt" % kind), "w"
        ) as handle:
            handle.write("\n".join(lines) + "\n")


def _write_morse_files(config, study):
    exact, numeric = study.morse_levels
    _write_table(
        os.path.join(config.output_dir, "morse_energies.%s" % _ext(config.fmt)),
        ("n", "exact", "numeric", "abs_delta"),
        [(n, e, numeric[n], abs(numeric[n] - e)) for n, e in enumerate(exact)],
        config.fmt,
    )
    _write_table(
        os.path.join(config.output_dir, "morse_gamma.%s" % _ext(config.fmt)),
        ("n", "energy", "gamma_closed", "gamma_quadrature"),
        study.morse_gamma,
        config.fmt,
    )
    _write_table(
        os.path.join(config.output_dir, "morse_shape_invariance.%s" % _ext(config.fmt)),
        ("N", "max_deviation", "level_shift"),
        study.shape_invariance,
        config.fmt,
    )
    morse1, sextic1 = study.susy_pairs
    sextic0 = SexticReduced(0.0)
    partner0, _ = qes_algebra.darboux(sextic0, qes_algebra.qes_states(sextic0)[0])
    for name, spec, partner, grid in (
        ("partner_morse_N1", morse1.spec, morse1.partner, morse1.grid),
        ("partner_sextic_N0", sextic0, partner0, sextic1.grid),
    ):
        _write_table(
            os.path.join(config.output_dir, "%s.%s" % (name, _ext(config.fmt))),
            ("x", "V0", "V1"),
            list(zip(grid, evaluate(spec, grid), evaluate(partner, grid))),
            config.fmt,
        )


def _cmd_reproduce(config):
    started = time.perf_counter()
    study = Study()
    _write_morse_files(config, study)
    _write_sextic_files(config, study)
    rows = [(check.name, check.measure(study), check.threshold) for check in CHECKS]
    rows.append(("runtime_seconds", time.perf_counter() - started, 600.0))
    with open(os.path.join(config.output_dir, "summary.txt"), "w") as handle:
        handle.write("check\tmeasured\tthreshold\tstatus\n")
        for name, measured, threshold in rows:
            status = "PASS" if measured < threshold else "FAIL"
            handle.write(
                "%s\t%s\t%s\t%s\n" % (name, _fmt(measured), _fmt(threshold), status)
            )
    return 0 if all(measured < threshold for _, measured, threshold in rows) else 1


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
