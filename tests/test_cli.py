import json
import subprocess
import sys
from dataclasses import replace
from itertools import zip_longest

import numpy as np
import pytest

from thermosim import EigenReport, circuit_probability, closed_form_probability
from thermosim.cli import load_config, main
from thermosim.qcore import ConfigurationError

from helpers import REF_CIRCUIT_P0, REF_PAPER_CONVENTION_P0, REF_PROB_PHI

REF_CONFIG_JSON = '{"beta_a":1.0,"beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0}'


@pytest.fixture
def ref_config_path(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(REF_CONFIG_JSON)
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- config parsing --------------------------------------------------------

def test_load_config_round_trip(ref_config_path):
    cfg = load_config(ref_config_path)
    assert cfg.spec_a.beta == 1.0
    assert cfg.spec_a.hamiltonian.energies == (5.0, 0.0)


_MALFORMED_CONFIGS = [
    "not json",
    "[1, 2]",
    '{"beta_a":1.0,"beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0]}',
    '{"beta_a":1.0,"beta_b":1.0,"energies_a":[5.0,0.0],"energies_B":[0.0,1.0],"phi":0.0}',
    '{"beta_a":1.0,"beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0,"extra":1}',
    '{"beta_a":1.0,"beta_b":1.0,"energies_a":[5.0],"energies_b":[0.0,1.0],"phi":0.0}',
    '{"beta_a":"one","beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0}',
    '{"beta_a":true,"beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0}',
    '{"beta_a":1e400,"beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0}',
    '{"beta_a":1.0,"beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0,"beta_a":2.0}',
    pytest.param(b"\xff\xfe", id="not-utf-8"),
    pytest.param("[" * 100000 + "]" * 100000, id="nested-100000-deep"),
]


def _write_config(path, payload):
    path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    return str(path)


@pytest.mark.parametrize("payload", _MALFORMED_CONFIGS)
def test_load_config_rejects_malformed_documents(tmp_path, payload):
    path = _write_config(tmp_path / "bad.json", payload)
    with pytest.raises(ConfigurationError):
        load_config(path)


@pytest.mark.parametrize("payload", _MALFORMED_CONFIGS)
@pytest.mark.parametrize("command", ["protocol", "interference"])
def test_malformed_config_exits_one(capsys, tmp_path, command, payload):
    # one error line and no report, never a traceback
    argv = [command, "--config", _write_config(tmp_path / "bad.json", payload)]
    if command == "interference":
        argv += ["--phi-steps", "5", "--out", str(tmp_path / "bad.csv")]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# --- protocol command --------------------------------------------------------

def test_protocol_report(capsys, ref_config_path):
    code, out, err = run_cli(capsys, ["protocol", "--config", ref_config_path])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["outcome_probabilities"]["phi_plus"] == pytest.approx(REF_PROB_PHI, abs=1e-8)
    assert report["success_probability"]["phi_branch"] == pytest.approx(2 * REF_PROB_PHI, abs=1e-8)
    amps = report["phi_plus_state"]["amplitudes_re"]
    assert len(amps) == 4 and amps[1] == amps[2] == 0.0
    assert "samples" not in report


def test_protocol_sampling_is_reproducible(capsys, ref_config_path):
    argv = ["protocol", "--config", ref_config_path, "--samples", "20000", "--seed", "5"]
    code, first, _ = run_cli(capsys, argv)
    assert code == 0
    code, second, _ = run_cli(capsys, argv)
    assert code == 0
    assert first == second
    counts = json.loads(first)["samples"]["counts"]
    assert sum(counts.values()) == 20000


def test_protocol_missing_config_exits_one(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["protocol", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert out == ""  # no partial report
    assert err.startswith("error:") and err.count("\n") == 1


def test_protocol_negative_seed_exits_one(capsys, ref_config_path):
    code, out, err = run_cli(capsys, ["protocol", "--config", ref_config_path, "--samples", "10", "--seed", "-1"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_protocol_seed_without_samples_exits_one(capsys, ref_config_path):
    # a seed draws nothing on its own, so it is refused rather than silently ignored
    code, out, err = run_cli(capsys, ["protocol", "--config", ref_config_path, "--seed", "7"])
    assert (code, out, err) == (1, "", "error: --seed needs --samples\n")


def test_protocol_symmetric_case(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text('{"beta_a":0.0,"beta_b":0.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0}')
    code, out, _ = run_cli(capsys, ["protocol", "--config", str(path)])
    assert code == 0
    probs = json.loads(out)["outcome_probabilities"]
    assert all(p == 0.25 for p in probs.values())


# --- interference command -----------------------------------------------------

def test_interference_reference_grid(capsys, ref_config_path, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, ["interference", "--config", ref_config_path, "--phi-steps", "5", "--out", str(out_path)]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "phi,probability"
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_allclose(
        probs,
        [REF_CIRCUIT_P0, 0.5, 1 - REF_CIRCUIT_P0, 0.5, REF_CIRCUIT_P0],
        atol=1e-8,
    )
    phis = [float(line.split(",")[0]) for line in lines[1:]]
    np.testing.assert_allclose(phis, np.linspace(0, 2 * np.pi, 5), atol=1e-8)


def test_interference_csv_is_byte_identical(capsys, ref_config_path, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(
            capsys,
            ["interference", "--config", ref_config_path, "--phi-steps", "101", "--out", str(path)],
        )
        assert code == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert not first.endswith(b"\n\n")  # no trailing blank line


def test_interference_two_point_grid_matches_periodicity(capsys, ref_config_path, tmp_path):
    out_path = tmp_path / "two.csv"
    code, _, _ = run_cli(
        capsys, ["interference", "--config", ref_config_path, "--phi-steps", "2", "--out", str(out_path)]
    )
    assert code == 0
    rows = out_path.read_text().splitlines()[1:]
    assert rows[0].split(",")[1] == rows[1].split(",")[1]


def test_interference_paper_convention(capsys, ref_config_path, tmp_path):
    out_path = tmp_path / "paper.csv"
    code, _, _ = run_cli(
        capsys,
        [
            "interference",
            "--config",
            ref_config_path,
            "--phi-steps",
            "3",
            "--out",
            str(out_path),
            "--convention",
            "paper",
        ],
    )
    assert code == 0
    first_row = out_path.read_text().splitlines()[1]
    assert float(first_row.split(",")[1]) == pytest.approx(REF_PAPER_CONVENTION_P0, abs=1e-8)

    code, _, _ = run_cli(
        capsys,
        [
            "interference",
            "--config",
            ref_config_path,
            "--phi-steps",
            "3",
            "--out",
            str(out_path),
            "--convention",
            "corrected",
        ],
    )
    assert code == 0
    first_row = out_path.read_text().splitlines()[1]
    assert float(first_row.split(",")[1]) == pytest.approx(REF_CIRCUIT_P0, abs=1e-8)


@pytest.mark.parametrize("convention", [None, "paper", "corrected"])
def test_interference_csv_matches_per_point_oracle(capsys, monkeypatch, ref_config_path, tmp_path, convention):
    # every route formats one kernel array, so the CLI builds no SweepSpec; the oracle builds none either
    def no_sweep_spec(self):
        raise AssertionError("the CLI built a SweepSpec")

    monkeypatch.setattr("thermosim.interference.SweepSpec.__post_init__", no_sweep_spec)
    out_path = tmp_path / "fine.csv"
    argv = ["interference", "--config", ref_config_path, "--phi-steps", "10001", "--out", str(out_path)]
    code, _, _ = run_cli(capsys, argv + ([] if convention is None else ["--convention", convention]))
    assert code == 0
    cfg = load_config(ref_config_path)
    lines = ["phi,probability"]
    for phi in np.linspace(0.0, 2.0 * np.pi, 10001):
        point = replace(cfg, phi=float(phi))
        prob = circuit_probability(point) if convention is None else closed_form_probability(point, convention)
        lines.append(f"{float(phi):.9g},{prob:.9g}")
    # the text is "\n".join(lines) + "\n" exactly when its "\n"-split is lines + [""]; naming the first
    # differing row keeps a failure fast, where a difflib diff of the two texts ran for minutes
    got, want = out_path.read_text().split("\n"), lines + [""]
    row = next((i for i, (g, w) in enumerate(zip_longest(got, want)) if g != w), None)
    assert row is None, f"row {row} differs: got {got[row:row + 1]}, want {want[row:row + 1]}"


def test_interference_rejects_small_grid(capsys, ref_config_path, tmp_path):
    code, out, err = run_cli(
        capsys,
        ["interference", "--config", ref_config_path, "--phi-steps", "1", "--out", str(tmp_path / "x.csv")],
    )
    assert code == 1
    assert not (tmp_path / "x.csv").exists()
    assert err.startswith("error:")


def test_interference_refusal_after_parsing_leaves_no_file(capsys, tmp_path):
    # the config parses, then the closed form refuses its levels; nothing may be written
    config, out_path = tmp_path / "unpinned.json", tmp_path / "paper.csv"
    config.write_text(REF_CONFIG_JSON.replace('"energies_a":[5.0,0.0]', '"energies_a":[5.0,0.5]'))
    argv = ["interference", "--config", str(config), "--phi-steps", "3", "--out", str(out_path)]
    code, out, err = run_cli(capsys, argv + ["--convention", "paper"])
    assert code == 1
    assert out == "" and not out_path.exists()
    assert err == "error: closed form requires the pinned levels E1 = 0 and E0' = 0\n"


def test_interference_unwritable_output(capsys, ref_config_path, tmp_path):
    code, _, err = run_cli(
        capsys,
        [
            "interference",
            "--config",
            ref_config_path,
            "--phi-steps",
            "3",
            "--out",
            str(tmp_path / "no_dir" / "x.csv"),
        ],
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["interference", "--phi-steps", "1000001", "--out", "x.csv"],
        ["interference", "--phi-steps", "100000000000", "--out", "x.csv"],
        ["eigencheck", "--dim", "1000001", "--beta", "1.0"],
        ["protocol", "--samples", "9223372036854775808"],
    ],
)
def test_sizes_beyond_the_limits_exit_one(capsys, ref_config_path, tmp_path, argv):
    if argv[0] != "eigencheck":
        argv = [argv[0], "--config", ref_config_path, *argv[1:]]
    argv = [str(tmp_path / a) if a == "x.csv" else a for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == "" and not (tmp_path / "x.csv").exists()
    assert err.startswith("error:") and err.count("\n") == 1 and "between" in err


def test_protocol_samples_up_to_the_limit(capsys, ref_config_path):
    argv = ["protocol", "--config", ref_config_path, "--samples", "9223372036854775807", "--seed", "3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert sum(json.loads(out)["samples"]["counts"].values()) == 2**63 - 1


# --- eigencheck command ----------------------------------------------------

def test_eigencheck_report(capsys):
    code, out, err = run_cli(capsys, ["eigencheck", "--dim", "2", "--beta", "2.0"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["analytic"]["expected"] == 0.25
    assert abs(report["analytic"]["rayleigh"] - 0.25) < 1e-9
    assert report["analytic"]["residual"] <= 1e-10


def test_eigencheck_zero_beta(capsys):
    code, out, _ = run_cli(capsys, ["eigencheck", "--dim", "4", "--beta", "0.0"])
    assert code == 0
    report = json.loads(out)
    assert report["analytic"]["expected"] == 0.0
    assert report["analytic"]["residual"] <= 1e-12


def test_eigencheck_with_fd_and_tolerance(capsys):
    code, out, _ = run_cli(
        capsys,
        ["eigencheck", "--dim", "3", "--beta", "0.7", "--fd-step", "1e-5", "--assert-tol", "1e-6"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["finite_difference"]["residual"] <= 1e-6
    assert report["analytic"]["expected"] == pytest.approx(0.030625)


def test_eigencheck_tight_tolerance_exits_two(capsys):
    code, out, err = run_cli(
        capsys, ["eigencheck", "--dim", "2", "--beta", "2.0", "--assert-tol", "1e-30"]
    )
    assert code == 2
    assert json.loads(out)["analytic"]["residual"] > 1e-30
    assert err.startswith("error:")


def test_eigencheck_zero_tolerance_is_allowed(capsys):
    # at beta = 0 every image is exactly zero, so a zero tolerance is met
    code, out, err = run_cli(capsys, ["eigencheck", "--dim", "3", "--beta", "0", "--assert-tol", "0"])
    assert (code, err) == (0, "")
    assert json.loads(out)["analytic"]["residual"] == 0.0


def test_eigencheck_invalid_dim_exits_one(capsys):
    code, _, err = run_cli(capsys, ["eigencheck", "--dim", "1", "--beta", "1.0"])
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("beta", ["-1", "-1e-3", "nan", "inf"])
def test_eigencheck_invalid_beta_exits_one(capsys, beta):
    code, out, err = run_cli(capsys, ["eigencheck", "--dim", "8", "--beta", beta])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "beta" in err


@pytest.mark.parametrize("option, value", [
    ("--beta", "-1e-3"), ("--beta", "-2.5E+1"), ("--beta", "-inf"),
    ("--fd-step", "-1e-5"), ("--assert-tol", "-1e-3"),
])
def test_negative_values_read_the_same_in_either_form(capsys, option, value):
    # argparse took "-1e-3" for an option; "--beta -1e-3" must reach the same diagnostic as "--beta=-1e-3"
    base = ["eigencheck", "--dim", "8"] + ([] if option == "--beta" else ["--beta", "0.7"])
    spaced = run_cli(capsys, base + [option, value])
    joined = run_cli(capsys, base + [f"{option}={value}"])
    assert spaced == joined
    code, out, err = spaced
    assert code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "usage" not in err and "expected one argument" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_eigencheck_nonfinite_tolerance_exits_one(capsys, tol):
    code, out, err = run_cli(capsys, ["eigencheck", "--dim", "8", "--beta", "0.7", "--assert-tol", tol])
    assert code == 1
    assert out == ""
    assert err == "error: --assert-tol must be finite and nonnegative\n"


def test_eigencheck_gate_compares_rayleigh_with_expected(capsys, monkeypatch):
    # the analytic report is right; a zero finite-difference image has
    # residual 0 but Rayleigh quotient 0, far from beta^2/16
    def report(spec, fd_step=None):
        return EigenReport(0.030625 if fd_step is None else 0.0, 0.0, 0.030625)

    monkeypatch.setattr("thermosim.cli.eigencheck_purified", report)
    code, out, err = run_cli(
        capsys,
        ["eigencheck", "--dim", "8", "--beta", "0.7", "--fd-step", "1e-5", "--assert-tol", "1e-6"],
    )
    assert code == 2
    fd = json.loads(out)["finite_difference"]
    assert fd["rayleigh"] == 0.0 and fd["expected"] == pytest.approx(0.030625)
    assert err.startswith("error: finite-difference") and "rayleigh" in err


def test_eigencheck_unresolvable_fd_step_exits_one(capsys):
    # E + h rounds back to E: the finite difference would read a zero image, eigenvalue 0
    code, out, err = run_cli(capsys, ["eigencheck", "--dim", "4", "--beta", "1", "--fd-step", "1e-300"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "finite-difference step" in err


@pytest.mark.parametrize("field", ["rayleigh", "residual"])
def test_eigencheck_gate_fails_on_nan(capsys, monkeypatch, field):
    values = {"rayleigh": 0.25, "residual": 0.0, "expected": 0.25, field: float("nan")}
    monkeypatch.setattr("thermosim.cli.eigencheck_purified", lambda spec, fd_step=None: EigenReport(**values))
    code, _, err = run_cli(capsys, ["eigencheck", "--dim", "2", "--beta", "2.0", "--assert-tol", "1e-6"])
    assert code == 2
    assert err.startswith("error:") and "nan" in err


def test_eigencheck_energies_are_deterministic(capsys):
    code, first, _ = run_cli(capsys, ["eigencheck", "--dim", "3", "--beta", "1.0"])
    assert code == 0
    code, second, _ = run_cli(capsys, ["eigencheck", "--dim", "3", "--beta", "1.0"])
    assert first == second


# --- argument handling -------------------------------------------------------

def test_bad_usage_exits_one(capsys):
    code, _, _ = run_cli(capsys, ["interference", "--config", "x", "--phi-steps", "abc", "--out", "y"])
    assert code == 1
    code, _, _ = run_cli(capsys, ["unknown-command"])
    assert code == 1


def _run_module(argv):
    # a stray numpy warning fails the child as it fails an in-process test
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "thermosim", *argv], capture_output=True, text=True
    )


@pytest.mark.parametrize("command", ["protocol", "interference"])
def test_overflowing_partition_function_is_silent(tmp_path, command):
    # beta_a * |E_min| = 1000 overflows Z_A to inf; the weights are still fine
    path = tmp_path / "cold.json"
    path.write_text('{"beta_a":200.0,"beta_b":1.0,"energies_a":[-5.0,-4.5],"energies_b":[0.0,1.0],"phi":0.3}')
    argv = [command, "--config", str(path)]
    if command == "interference":
        argv += ["--phi-steps", "5", "--out", str(tmp_path / "cold.csv")]
    proc = _run_module(argv)
    assert proc.returncode == 0
    assert proc.stderr == ""


@pytest.mark.parametrize("beta_a", ["0.0", "1.0"])
def test_overflowing_level_span_exits_one(tmp_path, beta_a):
    # 1e308 - (-1e308) overflows: one error line, no numpy warning, at any beta
    path = tmp_path / "span.json"
    path.write_text(f'{{"beta_a":{beta_a},"beta_b":1.0,"energies_a":[1e308,-1e308],"energies_b":[0.0,1.0],"phi":0.0}}')
    proc = _run_module(["protocol", "--config", str(path)])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: energy span overflows float64\n"


@pytest.mark.parametrize("command", ["protocol", "interference"])
def test_overflowing_beta_gap_exits_one(tmp_path, command):
    # beta_a * gap = 1e310 overflows: one error line, no numpy overflow warning first
    path = tmp_path / "hot.json"
    path.write_text('{"beta_a":1e300,"beta_b":1.0,"energies_a":[1e10,0.0],"energies_b":[0.0,1.0],"phi":0.0}')
    argv = [command, "--config", str(path)]
    if command == "interference":
        argv += ["--phi-steps", "5", "--out", str(tmp_path / "hot.csv")]
    proc = _run_module(argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: spec_a has a Gibbs weight that underflows to zero; reduce beta or the energy gap\n"


def test_config_integer_beyond_float64_exits_one(capsys, tmp_path):
    # JSON reads 1e400 written out in digits as a Python int, which float() cannot hold
    path = tmp_path / "huge.json"
    path.write_text('{"beta_a":1' + "0" * 400 + ',"beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0}')
    code, out, err = run_cli(capsys, ["protocol", "--config", str(path)])
    assert (code, out, err) == (1, "", "error: config field 'beta_a' must fit in float64\n")


def test_eigencheck_overflowing_normalization_exits_one():
    # -beta * E_min is about 984 here, so the purified state's Z overflows
    proc = _run_module(["eigencheck", "--dim", "4", "--beta", "300"])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_eigencheck_overflowing_finite_difference_exits_two():
    # e^(E + h) overflows at this step: one error line, no numpy warning first
    proc = _run_module(["eigencheck", "--dim", "4", "--beta", "1", "--fd-step", "1e300", "--assert-tol", "1e-6"])
    assert proc.returncode == 2
    assert np.isnan(json.loads(proc.stdout)["finite_difference"]["residual"])
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_module_entry_point(ref_config_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "thermosim", "protocol", "--config", ref_config_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome_probabilities"]["phi_plus"] > 0
