"""Golden-output gate: sha256 digests of report bytes recorded from a known-good build.

Any changed digit in the eigencheck JSON (up to the 10^6-level limit), in a
protocol report, in an interference CSV, in a residual report, in the large-d
reduced density matrices, in the dense amplitudes of a purification or in the
dense views of a factored state fails the gate.  A deliberate change of these
outputs updates the digests below and says so in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from thermosim import (
    BellOutcome,
    Constant,
    ExpLinear,
    ProtocolConfig,
    QuditHamiltonian,
    ThermalSpec,
    apply_inverse_temp_squared,
    partial_trace,
    product_state,
    purified_thermal_state,
    purify,
    residual_superposition,
    superposition_state,
    thermal_density,
)
from thermosim.cli import MAX_POINTS, main

from helpers import reference_config

EIGENCHECK_DIGESTS = {
    # (dim, beta): sha256 of ``thermosim eigencheck --dim D --beta B --fd-step 1e-5`` stdout
    (2, "0"): "b083b5d87df298584b74447f4135b6fd48d13a2fa9fb6aa26e3317dc80b737cb",
    (2, "0.7"): "e7479cb53109165c32e318613515f7e06d6595853927cd7c9d6840707f853258",
    (2, "2"): "843affd29d659ffea7124258c1a49fad8a9466f09593a29cc1d447a9a69d3856",
    (2, "13"): "aadc610e30329411af1e90bdaf6e64aaa306be6e1745f7d780a1c4f1221b357d",
    (3, "0"): "ab2d5a2673d278f386e9493c23018f6b1831e5ceb26a3d6380b6372beb07dc2a",
    (3, "0.7"): "413192a21c2502c00004f2351eff72fe820902a15651b848aa2fee8219d5edb6",
    (3, "2"): "c78dd47c77f2e70dd4a626337cfde505294e3a4d3f559aa21b18ed2eff827d70",
    (3, "13"): "4ff9e308dd5ebd52abbf7e5a86ec4268b7d08d7a5ebd6db71f1bd3a30eb1e617",
    (8, "0"): "ea695b31067fe8e60d0463308f7bb47f5d06c2ea4083b3b1320166d2af64a305",
    (8, "0.7"): "46b81785f852a63ae4353c27e15f06360892e07f269ca1fea23c0e3aed82b221",
    (8, "2"): "f90fe6d3715896057be2bc9233d345062769bad2229c4f725562d83c17f69af9",
    (8, "13"): "834ded19623ec41804c82d72c5ed8a6caa22985e4f9e82895c94f5bb4f075efc",
    (64, "0"): "10625cbf50f4c6c76b929c90f4166b5f0133bc39f04e491ff21c6227e7310286",
    (64, "0.7"): "c63854f0a009a0f4d41e38143be46cf77d784df8d193558908611f789ea7b5ea",
    (64, "2"): "01662fe7b8a5a0d9cdad9c04f7b06dcc5bcfcb482a7bc9ebeedfa51d6b21e6f0",
    (64, "13"): "efceb098b98ee00cf80f0f33615af1d44ffef475b966fa3a0b3d61a6b7cfacc4",
    (512, "0"): "f7430afbd558e38f02517a4b51eac46278cad1824ecea4a586f54434f975e998",
    (512, "0.7"): "ee507a9b6ef117e34b5ac465376dfb13615599db67b91ec1f40fa71dd7e1ad5e",
    (512, "2"): "e9e77237441eecd16d0753b39f5b59bdb78a4a642ff31ef2dcf5aa8456644d59",
    (512, "13"): "3f290faf1aa43277ad12611917348f492e36be96bdd1b03caee65eef404fc49f",
}

# sha256 of ``thermosim eigencheck --dim 1000000 --beta 0.7 --fd-step 1e-5`` stdout with one
# BLAS thread: at this size the BLAS dot products behind rayleigh and residual split their
# sums across threads, so the last printed digit of a residual follows the thread count
EIGENCHECK_AT_THE_LIMIT_DIGEST = "d90b9e76b46b67a87d5fb53a06947014a9177f7b2aa316b767f772e0000d9638"

RESIDUAL_DIGESTS = {
    # config name: sha256 of float.hex of the four residual_superposition reports
    "asymmetric": "06a9f3b3657d592999e35ccd4115238dd1c61ee08d7de0efd4ffad82066361a5",
    "reference_phi_0.4": "00592378787365c04536b747ed7fab691c8954f2c59ce15337873d7db3d41dd4",
}

DENSITY_DIGESTS = {
    # sha256 of the concatenated ``entries.tobytes()`` over eight 1024-level sets
    # (rng [7, 2]), so signed zeros count too; recorded from the Gram-matrix trace
    "thermal_density": "de689f47e1f347c4b1290b26d19a9960fd3cd6f1da6261011bccf9eb6d462d78",
    "purify round trip": "8b5a47094155ca8f219189fe26b57362990cb304b4dc3bdabdb86c098ff6fecf",
}

DENSE_VIEW_DIGESTS = {
    # sha256 of ``amplitude_vector().amps.tobytes()`` followed by the bytes of
    # ``apply_inverse_temp_squared(state, fd_step=h).amps`` for h = None, 1e-5
    "purified d=2": "5b9db0be1385e6a8a7be8cdb61ea661683bbc45238981b478217feaa0d3257e3",
    "purified d=64": "583499a44fe53520d58cd08c4d07e59c6599e6ac3e41e637422721467b571e24",
    "purified d=1024": "9aa5e51b6af216e47836f5d0307e89aad36854385ef35a67dd45b1bd39130cee",
    "product d=3": "0789c331b230220cb8909c103f71443f2151b163f3fd77dcfa993b632b5a713f",
    "product d=4": "145c873b821e00c65e674417e627b0eb86a9cd5266a2420cb83fc3eed8108756",
    "PHI_PLUS full_dependence": "340f571b42b2fc4df2c1dd6fd64e4860e81a80cff85c8844449a01f70ddde4bb",
    "PHI_PLUS chosen_zero_levels": "1be405c37b26100ca97f1162396e4be38cc0fda0c5cbe9c6bc14aa0fb3925ae8",
    "PSI_PLUS full_dependence": "d025d28bb01c3e163fde8a45abf574d7fff1983caee7fa988ca4ae9597bb83df",
    "PSI_PLUS chosen_zero_levels": "00a495f9c3b9951fb4610d21d932090e332ee3c23f70091d9fa8fb732eb6ce5f",
}

PURIFY_DIGESTS = {
    # sha256 of ``purify(spec, phase).amps.tobytes()`` over levels from rng [7, 4]
    (2, 0.7): "bd0302a7ef5f66087d293d3d3cdf38495fea34e09ec44938819a707f4637106f",
    (64, 0.0): "af53f68cf61ce00bf23443f5c617ce4b60ab156b5b8292953c1ef9c9d13cad68",
    (1024, 0.0): "61e88e2a458abe19cf296198c861b5127ee24483f9e548a59a5555e346e60219",
}


CSV_CONFIGS = {
    "reference": '{"beta_a":1.0,"beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0}',
    "asymmetric": '{"beta_a":2.3,"beta_b":0.6,"energies_a":[1.7,0.0],"energies_b":[0.0,-2.1],"phi":2.0}',
    # beta_a*gap = 700: p0 is about e^-700, so the fringe is flat at 1/2 to 9 digits
    "beta_a*gap=700": '{"beta_a":140.0,"beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0}',
    # both sides near the underflow edge: p0 f0 = e^-700 against p1 f1 = e^-699, visibility 0.887
    "beta*gap=700/699": '{"beta_a":140.0,"beta_b":699.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0}',
}

CSV_DIGESTS = {
    # (config, --phi-steps, --convention): sha256 of the ``thermosim interference`` CSV,
    # recorded from the stacked-matmul kernel
    ("reference", 10001, None): "9126fe8d72905f0e75e746c147c7d73c1d407dff912c9f00c2137744346d204a",
    ("reference", 10001, "paper"): "584f401c3fbd90ea3975e7784c3c9eb37f42892c1279d045924ee817edf50012",
    ("reference", 10001, "corrected"): "9126fe8d72905f0e75e746c147c7d73c1d407dff912c9f00c2137744346d204a",
    ("asymmetric", 10001, None): "7832e92bbd1e262cb5889c4f438aa49b92892358bfa50b103275bdb88a509bbd",
    ("asymmetric", 10001, "paper"): "0505b4ffb9134b89d6df6967a79c6f64f28725d939a3bd14ce4acba35ce738ce",
    ("asymmetric", 10001, "corrected"): "7832e92bbd1e262cb5889c4f438aa49b92892358bfa50b103275bdb88a509bbd",
    ("beta_a*gap=700", 10001, None): "93859f3bb1004ac44b64f7b519c6eb63fd527539937f5423529b3e37327691f9",
    ("beta_a*gap=700", 10001, "paper"): "93859f3bb1004ac44b64f7b519c6eb63fd527539937f5423529b3e37327691f9",
    ("beta_a*gap=700", 10001, "corrected"): "93859f3bb1004ac44b64f7b519c6eb63fd527539937f5423529b3e37327691f9",
    ("beta*gap=700/699", 10001, None): "e338f28df9c76c3a7d429e21ea1938e23e0c5ff7ffcac3fe978578c2c42c9fb0",
    ("beta*gap=700/699", 10001, "paper"): "f190d47ab12c50ea2169b57219a8142c36d35d4df6fff7c30b2749d04ddc94f1",
    ("beta*gap=700/699", 10001, "corrected"): "e338f28df9c76c3a7d429e21ea1938e23e0c5ff7ffcac3fe978578c2c42c9fb0",
    ("reference", 10**6, None): "6d50763cb026536199ecab14f1a082828c2d60b7f79fb5c7cb4b8686fb181cd6",
}

PROTOCOL_DIGESTS = {
    # config: sha256 of ``thermosim protocol --config FILE --samples 10000000 --seed 7`` stdout
    "reference": "5f49db0e3355ec76e6d38166c154dcfcce03c41ac542a448a5f220ccdf219c58",
    "asymmetric": "407be17f180530c254ccfe1564840e76cdff1b283c0289321a9dfd78e061577d",
    "beta_a*gap=700": "70339818e2228e33f9eabb61333c84b1043b0414142988a70485355d8f8b5752",
    "beta*gap=700/699": "c89d081e2da9afbc503101dcb7ce13144406c3a947441d2f020b0d60fd44b814",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("dim, beta", list(product((2, 3, 8, 64, 512), ("0", "0.7", "2", "13"))))
def test_eigencheck_stdout_is_unchanged(capsys, dim, beta):
    assert main(["eigencheck", "--dim", str(dim), "--beta", beta, "--fd-step", "1e-5"]) == 0
    assert _digest(capsys.readouterr().out) == EIGENCHECK_DIGESTS[dim, beta]


def test_eigencheck_stdout_at_the_size_limit_is_unchanged():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = ["eigencheck", "--dim", str(MAX_POINTS), "--beta", "0.7", "--fd-step", "1e-5"]
    proc = subprocess.run([sys.executable, "-m", "thermosim", *argv], capture_output=True, env=env)
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == EIGENCHECK_AT_THE_LIMIT_DIGEST


@pytest.mark.parametrize("name, steps, convention", list(CSV_DIGESTS))
def test_interference_csv_is_unchanged(tmp_path, name, steps, convention):
    config, out = tmp_path / "config.json", tmp_path / "fringe.csv"
    config.write_text(CSV_CONFIGS[name])
    argv = ["interference", "--config", str(config), "--phi-steps", str(steps), "--out", str(out)]
    assert main(argv + ([] if convention is None else ["--convention", convention])) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_DIGESTS[name, steps, convention]


@pytest.mark.parametrize("name", list(PROTOCOL_DIGESTS))
def test_protocol_stdout_is_unchanged(capsys, tmp_path, name):
    config = tmp_path / "config.json"
    config.write_text(CSV_CONFIGS[name])
    assert main(["protocol", "--config", str(config), "--samples", "10000000", "--seed", "7"]) == 0
    assert _digest(capsys.readouterr().out) == PROTOCOL_DIGESTS[name]


_CONFIGS = {
    "reference_phi_0.4": reference_config(phi=0.4),
    "asymmetric": ProtocolConfig(
        ThermalSpec(2.3, QuditHamiltonian((1.7, 0.0))),
        ThermalSpec(0.6, QuditHamiltonian((0.0, -2.1))),
        2.0,
    ),
}


def _hex(value):
    return "None" if value is None else float.hex(value)


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_residual_reports_are_unchanged(name):
    lines = []
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        for convention in ("full_dependence", "chosen_zero_levels"):
            report = residual_superposition(_CONFIGS[name], outcome, convention)
            lines.append(" ".join(map(_hex, (report.rayleigh, report.residual, report.expected))))
    assert _digest("\n".join(lines)) == RESIDUAL_DIGESTS[name]


def test_large_d_density_bytes_are_unchanged():
    rng = np.random.default_rng([7, 2])
    levels = [tuple(float(e) for e in rng.uniform(-5.0, 5.0, 1024)) for _ in range(8)]
    digests = {name: hashlib.sha256() for name in DENSITY_DIGESTS}
    for energies, beta in zip(levels, rng.uniform(0.2, 2.0, 8)):
        spec = ThermalSpec(float(beta), QuditHamiltonian(energies))
        digests["thermal_density"].update(thermal_density(spec).entries.tobytes())
        digests["purify round trip"].update(partial_trace(purify(spec), keep={1}).entries.tobytes())
    assert {name: h.hexdigest() for name, h in digests.items()} == DENSITY_DIGESTS


def test_purification_amplitudes_are_unchanged():
    rng = np.random.default_rng([7, 4])
    digests = {}
    for d, phase in PURIFY_DIGESTS:
        energies = tuple(float(e) for e in rng.uniform(-5.0, 5.0, d))
        spec = ThermalSpec(float(rng.uniform(0.2, 2.0)), QuditHamiltonian(energies))
        digests[d, phase] = hashlib.sha256(purify(spec, phase).amps.tobytes()).hexdigest()
    assert digests == PURIFY_DIGESTS


def _dense_view_states():
    """The states whose dense views the gate hashes, in a fixed order."""
    rng = np.random.default_rng([7, 3])
    states = {}
    for d in (2, 64, 1024):
        energies = tuple(float(e) for e in rng.uniform(-5.0, 5.0, d))
        spec = ThermalSpec(float(rng.uniform(0.2, 2.0)), QuditHamiltonian(energies))
        states[f"purified d={d}"] = purified_thermal_state(spec)
    states["product d=3"] = product_state(
        [ExpLinear(-0.4, 0.3), Constant(0.5 - 0.2j), ExpLinear(0.7, value=1j)],
        [Constant(1.1), ExpLinear(-1.2, -0.5), ExpLinear(0.25)],
        (0.9, -1.3, 0.4),
    )
    states["product d=4"] = product_state(
        [ExpLinear(0.6), Constant(-0.3j), Constant(0.8), ExpLinear(-0.9, 0.1, 0.5 + 0.5j)],
        [ExpLinear(-0.2, 0.4), ExpLinear(1.1), Constant(0.6 + 0.1j), Constant(-1.0)],
        (-0.7, 0.2, 1.5, -1.9),
    )
    cfg = _CONFIGS["asymmetric"]
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        for convention in ("full_dependence", "chosen_zero_levels"):
            states[f"{outcome.name} {convention}"] = superposition_state(cfg, outcome, convention)
    return states


def test_dense_views_are_unchanged():
    digests = {}
    for name, state in _dense_view_states().items():
        h = hashlib.sha256(state.amplitude_vector().amps.tobytes())
        for fd_step in (None, 1e-5):
            h.update(apply_inverse_temp_squared(state, fd_step=fd_step).amps.tobytes())
        digests[name] = h.hexdigest()
    assert digests == DENSE_VIEW_DIGESTS
