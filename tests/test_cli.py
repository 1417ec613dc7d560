import math
import os
import random
import warnings

import numpy as np
import pytest

from qeswkb import fitmodels, potentials, qes_algebra
from qeswkb.acceptance import CHECKS
from qeswkb.cli import _fmt, build_config, main
from qeswkb.potentials import _FAMILY_FIELDS, Morse

SQRT2 = math.sqrt(2.0)


def read_lines(path):
    with open(path) as handle:
        return handle.read().splitlines()


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_morse_command_matches_closed_form(tmp_path):
    out = tmp_path / "morse"
    code = main([
        "morse", "--a", "1", "--b", "8", "--alpha", "1.41421356",
        "--N", "0", "--n-max", "5", "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out / "morse.csv")
    assert lines[0] == "n,exact,numeric,abs_delta"
    assert len(lines) == 7  # six bound levels
    deltas = [float(line.split(",")[3]) for line in lines[1:]]
    assert max(deltas) < 1e-8


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-9, 1e-10, 1e-12])
def test_shallow_plateau_morse_spectrum_certifies(tmp_path, tol):
    # the top level of this well decays slowly just past its outer turning
    # point, so D / kappa past that point is too short a right margin at
    # every tol: the wall must sit where the exponent itself reaches D
    out = tmp_path / "spectrum"
    code = main([
        "spectrum", "--family", "morse", "--a", "0.5", "--b", "6", "--alpha", "0.7",
        "--N", "3", "--n-max", "5", "--tol", repr(tol), "--out", str(out),
    ])
    assert code == 0
    energies = [float(line.split(",")[1]) for line in read_lines(out / "spectrum.csv")[1:]]
    exact = qes_algebra.morse_exact_spectrum(Morse(0.5, 6.0, 0.7, 3.0), 5)
    assert len(energies) == 6
    assert np.max(np.abs(np.subtract(energies, exact))) < tol


def test_wkb_command_sextic_corrections(tmp_path):
    out = tmp_path / "wkb"
    code = main([
        "wkb", "--family", "sextic_reduced", "--N", "0", "--n-max", "50",
        "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out / "wkb.csv")
    assert lines[0] == "n,energy,x_left,x_right,action,gamma"
    assert len(lines) == 52  # every level of the single well is classical
    gammas = [float(line.split(",")[5]) for line in lines[1:]]
    assert all(0.0 < g < 0.2 for g in gammas)
    # first correction values stay near the frozen reference table
    reference = [0.166025, 0.022347, 0.018912, 0.013945]
    for got, expected in zip(gammas[:4], reference):
        assert got == pytest.approx(expected, abs=5e-6)


def test_wkb_command_reports_skipped_levels(tmp_path, capsys):
    # at N = 3 the two lowest levels lie below the central barrier top
    out = tmp_path / "double"
    code = main([
        "wkb", "--family", "sextic_reduced", "--N", "3", "--n-max", "5",
        "--out", str(out),
    ])
    assert code == 0
    rows = read_lines(out / "wkb.csv")[1:]
    assert [int(line.split(",")[0]) for line in rows] == [2, 3, 4, 5]
    err = capsys.readouterr().err.splitlines()
    assert [line.split("\t")[:3] for line in err] == [
        ["skipped", "n=0", "MultiWellError"],
        ["skipped", "n=1", "MultiWellError"],
    ]
    code = main([
        "wkb", "--family", "sextic_reduced", "--N", "0", "--n-max", "3",
        "--out", str(tmp_path / "single"),
    ])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_spectrum_command_harmonic(tmp_path):
    out = tmp_path / "spectrum"
    code = main([
        "spectrum", "--family", "even_polynomial", "--coeffs", "0,0.5",
        "--n-max", "5", "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out / "spectrum.csv")
    assert lines[0] == "n,energy"
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.max(np.abs(np.array(energies) - (np.arange(6) + 0.5))) < 1e-9


def test_reruns_are_byte_identical(tmp_path):
    args = ["morse", "--a", "1", "--b", "8", "--alpha", "1.41421356",
            "--N", "0", "--n-max", "5"]
    first, second = tmp_path / "one", tmp_path / "two"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert read_bytes(first / "morse.csv") == read_bytes(second / "morse.csv")

    args = ["wkb", "--family", "sextic_reduced", "--N", "0.25", "--n-max", "8"]
    third, fourth = tmp_path / "three", tmp_path / "four"
    assert main(args + ["--out", str(third)]) == 0
    assert main(args + ["--out", str(fourth)]) == 0
    assert read_bytes(third / "wkb.csv") == read_bytes(fourth / "wkb.csv")


def test_qes_command_report(tmp_path):
    out = tmp_path / "qes"
    code = main([
        "qes", "--family", "sextic_reduced", "--N", "2", "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out / "qes_report.txt")
    assert lines[0] == "N index energy poly_coefficients"
    assert len(lines) == 4
    energies = [float(line.split()[2]) for line in lines[1:]]
    expected = sorted((-1.5, 4.5 - math.sqrt(8.0), 4.5 + math.sqrt(8.0)))
    assert np.max(np.abs(np.array(energies) - expected)) < 1e-10


def test_susy_command_report(tmp_path):
    out = tmp_path / "susy"
    code = main([
        "susy", "--family", "morse", "--a", "1", "--b", "8",
        "--alpha", "1.41421356237309515", "--N", "1", "--out", str(out),
    ])
    assert code == 0
    assert (out / "susy_partner.csv").exists()
    report = dict(
        line.split() for line in read_lines(out / "susy_report.txt")[1:]
    )
    assert float(report["annihilation_ratio"]) < 1e-12
    assert float(report["intertwining_residual_state_1"]) < 1e-8


def test_susy_command_factorizes_once(tmp_path, monkeypatch):
    # the partner table, the annihilation ratio and the three intertwining
    # residuals all read one factorization and one seed chain on the grid
    calls = {"darboux": 0, "chain": 0}
    darboux, chain = qes_algebra.darboux, potentials.seed_log_derivatives

    def counted_darboux(seed):
        calls["darboux"] += 1
        return darboux(seed)

    def counted_chain(*args, **kwargs):
        calls["chain"] += 1
        return chain(*args, **kwargs)

    monkeypatch.setattr(qes_algebra, "darboux", counted_darboux)
    monkeypatch.setattr(potentials, "seed_log_derivatives", counted_chain)
    out = tmp_path / "susy"
    assert main(["susy", "--family", "sextic_reduced", "--N", "3", "--out", str(out)]) == 0
    assert calls == {"darboux": 1, "chain": 1}
    report = dict(line.split() for line in read_lines(out / "susy_report.txt")[1:])
    assert len(report) == 4
    assert max(float(report["intertwining_residual_state_%d" % n]) for n in (1, 2, 3)) < 1e-8


def test_parser_keeps_no_state_between_runs(tmp_path, capsys):
    # one parser serves every run of the process: a run that it refuses,
    # with other values on its command line, leaves the next run as the first
    args = ["susy", "--family", "sextic_reduced", "--N", "2"]
    first, last = tmp_path / "first", tmp_path / "last"
    assert main(args + ["--out", str(first)]) == 0
    with pytest.raises(SystemExit) as excinfo:
        main(["susy", "--family", "sextic_reduced", "--N", "3", "--format", "tsv",
              "--bogus", "1", "--out", str(tmp_path / "bad")])
    assert excinfo.value.code == 2
    assert "--bogus" in capsys.readouterr().err
    assert main(args + ["--out", str(last)]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(last)) == ["susy_partner.csv", "susy_report.txt"]
    for name in names:
        assert read_bytes(first / name) == read_bytes(last / name)
    assert not (tmp_path / "bad").exists()


def test_fmt_integers_and_special_floats():
    # integers print every digit; floats print 15 significant digits, and
    # "%.15g" spells NaN, whatever its sign, as nan
    cases = [
        (10**15, "1000000000000000"),
        (np.int64(2**53 + 1), "9007199254740993"),
        (np.uint64(2**64 - 1), "18446744073709551615"),
        (float("nan"), "nan"),
        (-np.float64("nan"), "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (-0.0, "-0"),
        (np.float64(1e15), "1e+15"),
        (1.0 / 3.0, "0.333333333333333"),
    ]
    assert [_fmt(value) for value, _ in cases] == [text for _, text in cases]


def test_fit_gamma_command(tmp_path, monkeypatch):
    reports = []
    original = fitmodels.fit_gamma

    def recording(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(fitmodels, "fit_gamma", recording)
    out = tmp_path / "fitg"
    code = main([
        "fit-gamma", "--family", "sextic_reduced", "--N", "0",
        "--n-max", "25", "--out", str(out),
    ])
    assert code == 0
    files = os.listdir(out)
    assert any(name.startswith("gamma_fit_residuals") for name in files)
    # the written report reads back to the fitted parameters, its summary
    # riding along as comment lines
    text = (out / "gamma_fit_params.txt").read_text()
    assert fitmodels.parse_fit_params(text) == reports[0].params
    trailer = dict(line[2:].split() for line in text.splitlines() if line.startswith("# "))
    assert list(trailer) == ["max_rel_error", "rms_rel_error", "converged", "jacobian_cond"]
    assert float(trailer["max_rel_error"]) == pytest.approx(reports[0].max_rel_error, rel=1e-14)
    assert trailer["converged"] == "True"
    assert float(trailer["jacobian_cond"]) > 1.0


def test_config_file_merge_and_override(tmp_path):
    config_path = tmp_path / "run.conf"
    config_path.write_text("family=even_polynomial\ncoeffs=0,0.5\nn_max=3\nformat=tsv\n")
    out = tmp_path / "merged"
    code = main([
        "spectrum", "--config", str(config_path), "--n-max", "5",
        "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out / "spectrum.tsv")
    assert "\t" in lines[0]
    assert len(lines) == 7  # CLI n-max=5 wins over the file's 3


def test_validation_errors_exit_2(tmp_path, capsys):
    assert main(["spectrum", "--family", "sextic_reduced", "--N", "0",
                 "--n-max", "300", "--out", str(tmp_path / "a")]) == 2
    assert main(["spectrum", "--family", "sextic_reduced", "--N", "0",
                 "--tol", "1e-3", "--out", str(tmp_path / "b")]) == 2
    assert main(["spectrum", "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert err.count("error\t") == 3


def test_missing_family_fields_exit_2(tmp_path, capsys):
    assert main(["spectrum", "--family", "sextic_general", "--N", "0",
                 "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error\tDomainError\t")
    assert "requires nu, mu" in err


def test_runtime_error_recorded_in_summary(tmp_path):
    out = tmp_path / "overflow"
    code = main([
        "spectrum", "--family", "morse", "--a", "1", "--b", "8",
        "--alpha", "1.41421356", "--N", "0", "--n-max", "10", "--out", str(out),
    ])
    assert code == 2
    lines = read_lines(out / "summary.txt")
    assert lines[-1].startswith("error\tSpectrumExhaustedError\t")


def test_build_config_defaults():
    config = build_config(["wkb", "--family", "sextic_reduced", "--N", "0.5"])
    assert config.n_max == 50
    assert config.tol == 1e-10
    assert config.fmt == "csv"
    assert config.command == "wkb"


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """Exit status and output directory of one ``reproduce`` run."""
    out = tmp_path_factory.mktemp("repro")
    return main(["reproduce", "--out", str(out)]), out


def test_reproduce_all_checks_pass(reproduced):
    code, out = reproduced
    assert code == 0
    lines = read_lines(out / "summary.txt")
    assert lines[0] == "check\tmeasured\tthreshold\tstatus"
    rows = [line.split("\t") for line in lines[1:]]
    assert [row[0] for row in rows] == [c.name for c in CHECKS] + ["runtime_seconds"]
    assert [float(row[2]) for row in rows] == [c.threshold for c in CHECKS] + [600.0]
    assert all(row[3] == "PASS" for row in rows)


def test_reproduce_fails_on_nan_measurement(tmp_path, monkeypatch):
    original = fitmodels.gamma_fit_eval
    monkeypatch.setattr(
        fitmodels,
        "gamma_fit_eval",
        lambda params, n: math.nan if n == 20 else original(params, n),
    )
    out = tmp_path / "nan"
    assert main(["reproduce", "--out", str(out)]) == 1
    rows = [line.split("\t") for line in read_lines(out / "summary.txt")]
    assert ["published_gamma_envelope", "nan", "0.005", "FAIL"] in rows


@pytest.mark.parametrize("argv, written, expected", [
    (["morse", "--a", "1", "--b", "8", "--alpha", repr(SQRT2), "--N", "0",
      "--n-max", "5", "--tol", "1e-9"], "morse.csv", "morse_energies.csv"),
    (["spectrum", "--family", "sextic_reduced", "--N", "0.5", "--n-max", "50"],
     "spectrum.csv", "energies_N1h.csv"),
    (["susy", "--family", "sextic_reduced", "--N", "0"],
     "susy_partner.csv", "partner_sextic_N0.csv"),
    (["susy", "--family", "morse", "--a", "1", "--b", "8", "--alpha", repr(SQRT2),
      "--N", "1"], "susy_partner.csv", "partner_morse_N1.csv"),
])
def test_single_commands_match_reproduce(tmp_path, reproduced, argv, written, expected):
    _, repro = reproduced
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert read_bytes(tmp_path / written) == read_bytes(repro / expected)


_FIELD_TEXT = {"N": "2", "nu": "1.5", "mu": "0.5", "a": "1.3", "b": "5",
               "alpha": "0.9", "coeffs": "0,0.5,0.25"}


@pytest.mark.parametrize("family", list(_FAMILY_FIELDS))
def test_family_fields_are_flags_and_config_keys(tmp_path, family):
    kind, keys = _FAMILY_FIELDS[family]
    flags = build_config(
        ["spectrum", "--family", family]
        + [arg for key in keys for arg in ("--" + key, _FIELD_TEXT[key])]
    )
    config_path = tmp_path / "run.conf"
    config_path.write_text(
        "family=%s\n" % family + "".join("%s=%s\n" % (key, _FIELD_TEXT[key]) for key in keys)
    )
    from_file = build_config(["spectrum", "--config", str(config_path)])
    assert flags.potential == kind(**{key: getattr(flags.potential, key) for key in keys})
    assert flags.potential == from_file.potential
    for key in keys:
        value = getattr(flags.potential, key)
        text = ",".join("%g" % c for c in value) if key == "coeffs" else "%g" % value
        assert text == _FIELD_TEXT[key]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config_path = tmp_path / "run.conf"
    config_path.write_text("family=sextic_reduced\nN=0\nnmax=3\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error\tDomainError\t")
    assert "line 3: unknown key 'nmax'" in err
    assert not out.exists()
    # a field of another family is a known key, and is ignored
    config_path.write_text("family=sextic_reduced\nN=0\nalpha=2\nn_max=3\n")
    assert main(["spectrum", "--config", str(config_path), "--out", str(out)]) == 0
    assert len(read_lines(out / "spectrum.csv")) == 5


def test_repeated_config_key_exits_2(tmp_path, capsys):
    config_path = tmp_path / "run.conf"
    config_path.write_text("family=sextic_reduced\nN=0\n# deeper\nN=3\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(config_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error\tDomainError\t")
    assert "line 4: key 'N' repeats line 2" in err
    assert not out.exists()


def test_morse_command_without_bound_states_exits_2(tmp_path, capsys):
    argv = ["--a", "1", "--b", "-8", "--alpha", repr(SQRT2), "--N", "0"]
    assert main(["morse", *argv, "--out", str(tmp_path / "morse")]) == 2
    assert main(["spectrum", "--family", "morse", *argv, "--out", str(tmp_path / "spectrum")]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert [line.split("\t")[1] for line in errors] == ["SpectrumExhaustedError"] * 2


def test_unusable_out_path_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    for out in (blocker, blocker / "sub"):
        assert main(["qes", "--family", "sextic_reduced", "--N", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error\tDomainError\tcannot write %s: " % out)
        assert len(err.splitlines()) == 1
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv", [
    ["fit-gamma", "--family", "morse", "--a", "1", "--b", "40", "--alpha", "1e-300", "--N", "0.7"],
], ids=["fit-gamma"])
def test_morse_box_out_of_range_exits_2(tmp_path, capsys, argv):
    # a box too wide for its spacing to be squared
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error\tMeshError\t")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["qes", "--family", "morse", "--a", "inf", "--b", "3", "--alpha", "1e-300", "--N", "1"],
    ["qes", "--family", "morse", "--a", "0.5", "--b", "40", "--alpha", "inf", "--N", "0"],
    ["susy", "--family", "morse", "--a", "7", "--b", "0", "--alpha", "1e-3", "--N", "1"],
    ["spectrum", "--family", "morse", "--a", "2.5", "--b", "1e300", "--alpha", "3", "--N", "2.5"],
], ids=["infinite-a", "infinite-alpha", "vanishing-seed", "overflowing-plateau"])
def test_degenerate_morse_wells_exit_2(tmp_path, capsys, argv):
    # infinite fields, a seed that underflows to zero on the pair's grid, and
    # a plateau beta^2 / 2 that overflows, which the constructor refuses
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error\tDomainError\t")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, kind", [
    (["qes", "--family", "sextic_reduced", "--N", "1e300"], "UnsupportedParameterError"),
    (["qes", "--family", "sextic_reduced", "--N", "201"], "UnsupportedParameterError"),
    (["qes", "--family", "morse", "--a", "1", "--b", "1", "--alpha", "1", "--N", "1000"],
     "UnsupportedParameterError"),
    (["qes", "--family", "morse", "--a", "40", "--b", "40", "--alpha", "40", "--N", "1e300"], "DomainError"),
    (["wkb", "--family", "sextic_general", "--nu", "1e-300", "--mu", "-1", "--N", "40"], "DomainError"),
    (["susy", "--family", "sextic_general", "--nu", "1e300", "--mu", "1e300", "--N", "-0.0"], "DomainError"),
    (["spectrum", "--family", "even_polynomial", "--coeffs", "0.7"], "DomainError"),
], ids=["block-cap", "block-cap-edge", "morse-block-cap", "morse-plateau", "nu-underflow", "nu-overflow",
        "constant-polynomial"])
def test_out_of_range_wells_exit_2(tmp_path, capsys, argv, kind):
    # an algebraic block above its cap of N = 200, derived constants that
    # overflow or underflow, and a constant potential, which does not
    # confine, each refused with one typed error
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error\t%s\t" % kind)
    assert len(err.splitlines()) == 1


_FUZZ_COMMANDS = ("spectrum", "wkb", "fit-gamma", "fit-energy", "qes", "susy", "morse")
_FUZZ_VALUES = ("0", "1", "-1", "0.5", "0.7", "2.5", "3", "7", "40", "1e-3",
                "1e300", "1e-300", "-0.0", "nan", "inf")


def _fuzz_argv(rng):
    """One random single command on a random family with random field values."""
    family = rng.choice(list(_FAMILY_FIELDS))
    argv = [rng.choice(_FUZZ_COMMANDS), "--family", family]
    for key in _FAMILY_FIELDS[family][1]:
        if key == "coeffs":
            value = ",".join(rng.choice(_FUZZ_VALUES) for _ in range(rng.randint(1, 4)))
        else:
            value = rng.choice(_FUZZ_VALUES)
        argv.append("--%s=%s" % (key, value))  # "=" keeps a leading "-" a value
    if rng.random() < 0.5:
        argv += ["--n-max", str(rng.choice((0, 1, 3, 10, 12, 15, 30, 200, 201)))]
    if rng.random() < 0.5:
        argv += ["--tol", rng.choice(("1e-15", "1e-12", "1e-9", "1e-6", "1e-4", "1e-3", "nan"))]
    return argv


def test_fuzzed_commands_exit_0_or_2(tmp_path, capsys):
    # Every run either succeeds or reports one typed error: no other exit
    # status, no traceback, no RuntimeWarning from a numerical kernel.
    rng = random.Random(2)
    escapes = []
    for run in range(250):
        argv = _fuzz_argv(rng)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv + ["--out", str(tmp_path / str(run))])
        except Exception as exc:
            escapes.append((" ".join(argv), type(exc).__name__))
            continue
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
        if code not in (0, 2) or len(errors) > 1:
            escapes.append((" ".join(argv), "exit %d, %d error lines" % (code, len(errors))))
    assert escapes == []
