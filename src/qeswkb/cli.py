"""Command-line front end wiring the toolkit into reproducible pipelines.

Every command writes text tables (CSV or TSV, one header line,
15-significant-digit numbers) into an output directory, and repeated runs
with the same configuration produce byte-identical files.  The
``reproduce`` command executes the full study pipeline: high-accuracy
spectra and quantization corrections for the reduced sextic well at four
depth indices, published-model residuals, refits, the exponential-well
suite, and a pass/fail summary with one row per check of
``qeswkb.acceptance.CHECKS``.

Each field of each potential family (``potentials._FAMILY_FIELDS``) is both
a flag (``--N``, ``--alpha``, ...) and a key of a ``--config`` file, as are
``n_max``, ``tol``, ``out`` and ``format``, beside the config key
``family``; flags win over the file.  An unknown or repeated config key, a
value that does not parse and an output path that cannot be written each
exit with status 2 and one ``error<TAB><Type><TAB>...`` line on stderr.

The single commands build their tables with the code ``reproduce`` uses,
so these runs write files byte-identical to ``reproduce`` files:
``morse`` on the reference well (a = 1, b = 8, alpha = sqrt 2, N = 0,
``--n-max 5 --tol 1e-9``) writes ``morse_energies``; ``spectrum`` on
``sextic_reduced`` at N = 0.5, ``--n-max 50``, writes ``energies_N1h``;
``susy`` on ``sextic_reduced`` at N = 0 writes ``partner_sextic_N0``, and on
the reference well at N = 1 ``partner_morse_N1``.
"""

from dataclasses import dataclass, fields
import argparse
import math
import os
import sys
import time

import numpy as np

from . import fitmodels, qes_algebra, wkb
from .acceptance import CHECKS, DEPTHS, Study, annihilation_ratio, residual_rows, susy_pair
from .eigensolver import lowest_eigen, morse_bound_count
from .errors import DomainError, QeswkbError, SpectrumExhaustedError
from .potentials import _FAMILY_FIELDS, Morse, SexticReduced, build_spec, evaluate

_DEPTH_TAGS = {0.0: "0", 0.25: "1q", 0.5: "1h", 0.7: "7t"}
# Every key but ``family`` of a config file, with its type: the family
# fields in flag order, then the run settings.  Each is also a flag.
_TYPES = {
    **{key: float for _, keys in _FAMILY_FIELDS.values() for key in keys},
    "coeffs": str,
    "n_max": int,
    "tol": float,
    "out": str,
    "format": str,
}
_DEFAULTS = {"n_max": 50, "tol": 1e-10, "out": "./qeswkb_out", "format": "csv"}
_FLAG_OPTIONS = {
    "coeffs": {"help": "comma-separated even-power coefficients, constant first"},
    "format": {"choices": ("csv", "tsv")},
}
_RESIDUAL_HEADER = ("n", "exact", "fit", "rel_error")


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


def _write_lines(config, name, lines):
    with open(os.path.join(config.output_dir, name), "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_table(config, name, header, rows):
    sep = "," if config.fmt == "csv" else "\t"
    lines = [sep.join(header)] + [sep.join(_fmt(v) for v in row) for row in rows]
    _write_lines(config, "%s.%s" % (name, config.fmt), lines)


def _parse_config_file(path):
    values, line_of = {}, {}
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
        key = key.strip()
        if key != "family" and key not in _TYPES:
            raise DomainError("config %s line %d: unknown key %r" % (path, lineno, key))
        if key in values:
            raise DomainError("config %s line %d: key %r repeats line %d"
                              % (path, lineno, key, line_of[key]))
        values[key], line_of[key] = value.strip(), lineno
    return values


def _cast(key, raw):
    try:
        return _TYPES[key](raw)
    except ValueError:
        raise DomainError("config key %s: cannot parse %r" % (key, raw)) from None


def build_config(argv):
    parser = argparse.ArgumentParser(
        prog="qeswkb",
        description="Spectra, semiclassical corrections, and algebraic levels "
        "of quasi-solvable wells.",
    )
    parser.add_argument("command", choices=tuple(_RUNNERS))
    parser.add_argument("--family", choices=tuple(_FAMILY_FIELDS))
    for key, kind in _TYPES.items():
        parser.add_argument("--" + key.replace("_", "-"), type=kind, **_FLAG_OPTIONS.get(key, {}))
    parser.add_argument("--config", help="flat key=value file; command-line flags win")
    args = vars(parser.parse_args(argv))
    command, path = args.pop("command"), args.pop("config")

    raw = _parse_config_file(path) if path else {}
    raw.update((key, value) for key, value in args.items() if value is not None)
    values = {key: _cast(key, raw[key]) for key in _TYPES if key in raw}
    n_max, tol, out, fmt = (values.get(key, default) for key, default in _DEFAULTS.items())
    if fmt not in ("csv", "tsv"):
        raise DomainError("format must be csv or tsv, got %r" % fmt)
    if n_max < 0 or n_max > 200:
        raise DomainError("n_max must lie in 0..200, got %d" % n_max)
    if not (1e-14 <= tol <= 1e-4):
        raise DomainError("tol must lie in [1e-14, 1e-4], got %g" % tol)

    family = raw.get("family")
    if command == "morse" and family is None:
        family = "morse"
    potential = None
    if command != "reproduce":
        potential = build_spec(family, values)
        if command == "morse" and not isinstance(potential, Morse):
            raise DomainError("the morse command requires the morse family")
    return RunConfig(command, potential, n_max, tol, out, fmt)


def _prepare_output(config):
    os.makedirs(config.output_dir, exist_ok=True)
    if not os.access(config.output_dir, os.W_OK):
        raise DomainError("output directory %s is not writable" % config.output_dir)


def _write_partner(config, name, pair):
    """The table x, V0, V1 of a factorization on its grid."""
    grid = pair.grid
    rows = zip(grid, evaluate(pair.spec, grid), evaluate(pair.partner, grid))
    _write_table(config, name, ("x", "V0", "V1"), rows)


def _write_levels(config, name, exact, numeric):
    """The table n, exact, numeric, abs_delta of closed-form against mesh levels."""
    rows = [(n, e, numeric[n], abs(numeric[n] - e)) for n, e in enumerate(exact)]
    _write_table(config, name, ("n", "exact", "numeric", "abs_delta"), rows)


def _write_fit_report(config, name, report):
    """Fitted parameters followed by the error summary, convergence flag and
    Jacobian conditioning as ``# name value`` comment lines, so that
    ``fitmodels.parse_fit_params`` reads the file back."""
    _write_lines(config, name, [
        fitmodels.format_fit_params(report.params).rstrip("\n"),
        "# max_rel_error %s" % _fmt(report.max_rel_error),
        "# rms_rel_error %s" % _fmt(report.rms_rel_error),
        "# converged %s" % report.converged,
        "# jacobian_cond %.3g" % report.jacobian_cond,
    ])


def _cmd_spectrum(config):
    spectrum = lowest_eigen(config.potential, config.n_max + 1, tol=config.tol)
    _write_table(config, "spectrum", ("n", "energy"), enumerate(spectrum.energies))
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
    header = ("n", "energy", "x_left", "x_right", "action", "gamma")
    _write_table(config, "wkb", header, rows)
    return 0


def _cmd_fit(config):
    """Refit the correction model (levels n >= 3) or the energy model (every
    level, the ground level held exact) to a fresh spectrum."""
    kind = config.command[len("fit-"):]
    least, count = {"gamma": (10, "six"), "energy": (15, "twelve")}[kind]
    if config.n_max < least:
        raise DomainError("%s needs n_max >= %d to constrain %s parameters"
                          % (config.command, least, count))
    spec, label = config.potential, getattr(config.potential, "N", None)
    spectrum = lowest_eigen(spec, config.n_max + 1, tol=config.tol)
    energies = [float(e) for e in spectrum.energies]
    if kind == "gamma":
        data = [(n, wkb.gamma(spec, n, e).gamma) for n, e in enumerate(energies) if n >= 3]
        report = fitmodels.fit_gamma(data, n_label=label)
        model = fitmodels.gamma_fit_eval
    else:
        data = list(enumerate(energies))
        report = fitmodels.fit_energy(data, energies[0], n_label=label)
        model = fitmodels.energy_fit_eval
    _write_fit_report(config, "%s_fit_params.txt" % kind, report)
    rows = residual_rows(data, lambda n: model(report.params, n))
    _write_table(config, "%s_fit_residuals" % kind, _RESIDUAL_HEADER, rows)
    return 0


def _cmd_qes(config):
    label = _fmt(getattr(config.potential, "N", float("nan")))
    lines = ["N index energy poly_coefficients"]
    for idx, state in enumerate(qes_algebra.qes_states(config.potential)):
        coeffs = ";".join(_fmt(c) for c in state.poly)
        lines.append("%s %d %s %s" % (label, idx, _fmt(state.energy), coeffs))
    _write_lines(config, "qes_report.txt", lines)
    return 0


def _cmd_susy(config):
    pair = susy_pair(config.potential)
    _write_partner(config, "susy_partner", pair)
    lines = ["quantity value", "annihilation_ratio %s" % _fmt(annihilation_ratio(pair))]
    for idx, state in enumerate(pair.states[1:], start=1):
        residual = qes_algebra.intertwining_residual(pair.states[0], state, pair.grid)
        lines.append("intertwining_residual_state_%d %s" % (idx, _fmt(residual)))
    _write_lines(config, "susy_report.txt", lines)
    return 0


def _cmd_morse(config):
    spec = config.potential
    count = min(config.n_max + 1, morse_bound_count(spec))
    if count == 0:
        raise SpectrumExhaustedError("the well supports no bound states")
    exact = qes_algebra.morse_exact_spectrum(spec, count - 1)
    numeric = lowest_eigen(spec, count, tol=min(config.tol, 1e-9)).energies
    _write_levels(config, "morse", exact, numeric)
    return 0


def _write_sextic_files(config, study):
    for depth in DEPTHS:
        tag = _DEPTH_TAGS[depth]
        energies = study.spectra[depth].energies
        _write_table(config, "energies_N" + tag, ("n", "energy"), enumerate(energies))
        rows = [(n, e, r.action, r.gamma)
                for (n, e), r in zip(enumerate(energies), study.gamma_tables[depth])]
        _write_table(config, "gamma_N" + tag, ("n", "energy", "action", "gamma"), rows)
        for kind, table in (("gamma", study.published_gamma), ("energy", study.published_energy)):
            name = "%s_published_residuals_N%s" % (kind, tag)
            _write_table(config, name, _RESIDUAL_HEADER, table[depth])
        for kind, report in zip(("gamma", "energy"), study.refits[depth]):
            _write_fit_report(config, "%s_refit_params_N%s.txt" % (kind, tag), report)

    for index, kind in enumerate(("gamma", "energy")):
        params = [study.refits[depth][index].params for depth in DEPTHS]
        lines = ["parameter\t" + "\t".join("N=%s" % _fmt(d) for d in DEPTHS)]
        for name in (f.name for f in fields(params[0]) if f.name != "N_label"):
            values = [_fmt(getattr(p, name)) for p in params]
            lines.append("\t".join([name] + values))
        if kind == "energy":
            values = [_fmt(p.A6 / p.B5**2) for p in params]
            lines.append("\t".join(["A6_over_B5_sq"] + values))
        _write_lines(config, "%s_refit_table.txt" % kind, lines)


def _write_morse_files(config, study):
    _write_levels(config, "morse_energies", *study.morse_levels)
    header = ("n", "energy", "gamma_closed", "gamma_quadrature")
    _write_table(config, "morse_gamma", header, study.morse_gamma)
    header = ("N", "max_deviation", "level_shift")
    _write_table(config, "morse_shape_invariance", header, study.shape_invariance)
    _write_partner(config, "partner_morse_N1", study.susy_pairs[0])
    _write_partner(config, "partner_sextic_N0", susy_pair(SexticReduced(0.0)))


def _cmd_reproduce(config):
    started = time.perf_counter()
    study = Study()
    _write_morse_files(config, study)
    _write_sextic_files(config, study)
    rows = [(check.name, check.measure(study), check.threshold) for check in CHECKS]
    rows.append(("runtime_seconds", time.perf_counter() - started, 600.0))
    lines = ["check\tmeasured\tthreshold\tstatus"]
    for name, measured, threshold in rows:
        status = "PASS" if measured < threshold else "FAIL"
        lines.append("%s\t%s\t%s\t%s" % (name, _fmt(measured), _fmt(threshold), status))
    _write_lines(config, "summary.txt", lines)
    return 0 if all(measured < threshold for _, measured, threshold in rows) else 1


_RUNNERS = {
    "spectrum": _cmd_spectrum,
    "wkb": _cmd_wkb,
    "fit-gamma": _cmd_fit,
    "fit-energy": _cmd_fit,
    "qes": _cmd_qes,
    "susy": _cmd_susy,
    "morse": _cmd_morse,
    "reproduce": _cmd_reproduce,
}


def run(config):
    """Execute one command; returns the process exit status.

    A typed error, or an output path that cannot be made or written, is
    reported on stderr, appended to ``summary.txt`` where that can be
    written, and returns 2.
    """
    try:
        _prepare_output(config)
        return _RUNNERS[config.command](config)
    except OSError as exc:
        path = exc.filename or config.output_dir
        error = DomainError("cannot write %s: %s" % (path, exc.strerror or exc))
    except QeswkbError as exc:
        error = exc
    record = "error\t%s\t%s" % (type(error).__name__, error)
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
