import math
import os

import numpy as np
import pytest

from qeswkb import fitmodels
from qeswkb.acceptance import CHECKS
from qeswkb.cli import build_config, main
from qeswkb.potentials import _FAMILY_FIELDS

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
    assert type(flags.potential) is kind
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
