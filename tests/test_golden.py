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
    ProtocolConfig,
    QuditHamiltonian,
    ThermalSpec,
    apply_inverse_temp_squared,
    partial_trace,
    post_select,
    purified_thermal_state,
    purify,
    residual_superposition,
    superposition_state,
    thermal_density,
)
from thermosim.cli import MAX_POINTS, load_config, main
from thermosim.protocol import OUTCOME_ORDER

from helpers import assert_support_invariant, reference_config

EIGENCHECK_DIGESTS = {
    # (dim, beta): sha256 of ``thermosim eigencheck --dim D --beta B --fd-step 1e-5`` stdout
    (2, "0"): "b083b5d87df298584b74447f4135b6fd48d13a2fa9fb6aa26e3317dc80b737cb",
    (2, "0.7"): "8105f817051070396357fe38b7acfcbde997d02626be8106ae5747dc37e534e5",
    (2, "2"): "8bfa8479fde1bc00fb2d8aa3b82159f79d96e72982520645f040f962214a2223",
    (2, "13"): "5d7642c4fcae380bde34c63f957275eb418f0dfc835e6d690d0dcde84cd915b9",
    (3, "0"): "ab2d5a2673d278f386e9493c23018f6b1831e5ceb26a3d6380b6372beb07dc2a",
    (3, "0.7"): "180f9fc593e77cc2730a8d0234417d493dd4e90d7c207af98a9e0f60f4a6bbeb",
    (3, "2"): "4b31fe8382f3789f99b6c34c4b042a5252440b626f0686429395bd875cf38c7a",
    (3, "13"): "268123ee28fec7d2cad9a71a38522bc495aa44f45fd1c0bee02926a2b621b27a",
    (8, "0"): "ea695b31067fe8e60d0463308f7bb47f5d06c2ea4083b3b1320166d2af64a305",
    (8, "0.7"): "6e3dac217561733047b4d9709b282e0df4e727a3e8316200ac9f35086bf23d0f",
    (8, "2"): "38d6ba64304eddeb97afd57065b16f9fda989a76b452bf1a145f057b97418e68",
    (8, "13"): "6fdc660d39d343e112ce3a95272f2ef5ff7c931d5cc8d69cad7c1d30a84ca976",
    (64, "0"): "10625cbf50f4c6c76b929c90f4166b5f0133bc39f04e491ff21c6227e7310286",
    (64, "0.7"): "d4dc77a8e55ba81a3d315bb1bed75d7c56a4fa55ca9329e416031c20f7f8167a",
    (64, "2"): "c8d295de83ec1f7294af3b8d118dd92297610193e237d0b5194964ed89a412a1",
    (64, "13"): "7f1cac4732786c404b9e7d1e399c5eb0df2a2b4e4091385ed5e3e7ea307ac446",
    (512, "0"): "f7430afbd558e38f02517a4b51eac46278cad1824ecea4a586f54434f975e998",
    (512, "0.7"): "b6d5e55431f51224bd465ce78d986837da78c1a4e861ce2fb03718605aaba425",
    (512, "2"): "e9e77237441eecd16d0753b39f5b59bdb78a4a642ff31ef2dcf5aa8456644d59",
    (512, "13"): "bf8a40de58785f33018e49191cf69284182645d8eb8804a3f153452ed7289fcf",
}

# sha256 of ``thermosim eigencheck --dim 1000000 --beta 0.7 --fd-step 1e-5`` stdout with one
# BLAS thread; its sums are pairwise np.add.reduce, so two threads print the same bytes
EIGENCHECK_AT_THE_LIMIT_DIGEST = "2e170540a648af798a4cf92c8a65a98eb60598edca73d079e1975f75d8cb53e2"

RESIDUAL_DIGESTS = {
    # config name: sha256 of float.hex of the four residual_superposition reports
    "asymmetric": "535855c0562295be60f2be141f8518fd3331d5d4e4c3fe6305e040dd09c19b8c",
    "reference_phi_0.4": "e2b58f43dd254642bd0d78997ebdfd3613b89f02398ddf702e21a467457e9b02",
}

DENSITY_DIGESTS = {
    # sha256 of the concatenated ``entries.astype(np.complex128).tobytes()`` over eight 1024-level sets
    # (rng [7, 2]), so signed zeros count too; recorded from the Gram-matrix trace
    "thermal_density": "de689f47e1f347c4b1290b26d19a9960fd3cd6f1da6261011bccf9eb6d462d78",
    "purify round trip": "8b5a47094155ca8f219189fe26b57362990cb304b4dc3bdabdb86c098ff6fecf",
}

DENSE_VIEW_DIGESTS = {
    # sha256 of ``amplitude_vector().amps.tobytes()`` followed by the bytes of
    # ``apply_inverse_temp_squared(state, fd_step=h).amps`` for h = None, 1e-5
    "purified d=2": "d137c5d7833f6df04822745ccc83ffc8ff0258cb5b1007dadeb8d2b8ec3cfd9d",
    "purified d=64": "333b64e384ace850f970e63cb37e8fc2cf36b85e039ea1dc87f23a84ba3b99ac",
    "purified d=1024": "7a4de83c1b1aae652556956411c7771ea02c387a9588a14964d0449ddbf24dd1",
    "PHI_PLUS full_dependence": "82136d2702b1c162267cd4e5b62e5179935d6fbb31250764d74e0badd09cd156",
    "PHI_PLUS chosen_zero_levels": "c7f59e59dfaa8fd04ba718280eba9fcf8a684538bd38f2ae38e7303a6f397dab",
    "PSI_PLUS full_dependence": "5d8ce3d37955ef51403e912c0f188b29d041d00979a088565077fc0dc6e11f2e",
    "PSI_PLUS chosen_zero_levels": "858e4f819525009a5dc47da1e04187645570e3cf48c0bc1dbbe1ba76897a37c7",
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

POST_SELECT_DIGESTS = {
    # config: sha256 of float.hex of the real and imaginary part of every amplitude of
    # ``post_select(cfg, outcome).state.amps``, outcomes in OUTCOME_ORDER, so signed zeros count too
    "reference": "27fdf597d199817b0c0eaf282b8c6c8acd14af3a8bbda72f32cd30aff8195cdd",
    "asymmetric": "477ccbbbc0a0620f828da7fd2a2acf3f1c451c0e4a128733ca1f77d97bd26362",
    "beta_a*gap=700": "923e3af3154d31433a2ec0bdd6f6b3dbf3b820c3800df4b51af2ff2d14f5f9c0",
    "beta*gap=700/699": "b71a373c365c16186213e3034e02f08d1e28e937f312cdfce5e8049b8e804738",
    "reference_phi_0.4": "e0d4a013d3dceb5102e1a5405df631a9f46a30fc365a55d5958e266d05ff191d",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("dim, beta", list(product((2, 3, 8, 64, 512), ("0", "0.7", "2", "13"))))
def test_eigencheck_stdout_is_unchanged(capsys, dim, beta):
    assert main(["eigencheck", "--dim", str(dim), "--beta", beta, "--fd-step", "1e-5"]) == 0
    assert _digest(capsys.readouterr().out) == EIGENCHECK_DIGESTS[dim, beta]


def _eigencheck_at_the_limit(threads: str) -> bytes:
    """stdout of the size-limit eigencheck in a child process with ``threads`` BLAS threads."""
    env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    argv = ["eigencheck", "--dim", str(MAX_POINTS), "--beta", "0.7", "--fd-step", "1e-5"]
    proc = subprocess.run([sys.executable, "-m", "thermosim", *argv], capture_output=True, env=env)
    assert proc.returncode == 0 and proc.stderr == b""
    return proc.stdout


def test_eigencheck_stdout_at_the_size_limit_is_unchanged():
    assert hashlib.sha256(_eigencheck_at_the_limit("1")).hexdigest() == EIGENCHECK_AT_THE_LIMIT_DIGEST


def test_eigencheck_stdout_at_the_size_limit_does_not_follow_the_blas_threads():
    # the one-thread golden bytes at two threads: no sum of the report follows the BLAS thread count
    assert hashlib.sha256(_eigencheck_at_the_limit("2")).hexdigest() == EIGENCHECK_AT_THE_LIMIT_DIGEST


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


# a config whose qubit weights follow the float64 ``np.exp`` kernel numpy dispatches to: at
# beta*gap = 0.5*2.3 the AVX-512 and AVX2 exponentials differ by 1 ulp (found by a search over
# one-decimal qubits), so this gate sees a move of the qubit weights' exponential
_DISPATCH_CONFIG = ProtocolConfig(
    ThermalSpec(0.5, QuditHamiltonian((2.3, 0.0))),
    ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0))),
)

# sha256 of float.hex of the four qubit weights (p0, p1, f0, f1) of ``_DISPATCH_CONFIG``
QUBIT_WEIGHT_DIGEST = "e89f6446b6c8aafee7a0558097b691872d2570fe181321acb713f4cc6002f57d"


def _hex(value):
    return "None" if value is None else float.hex(value)


def _golden_configs(tmp_path):
    """Every golden config: the CLI configs as ``load_config`` reads them, then ``_CONFIGS``."""
    configs = {}
    for i, (name, text) in enumerate(CSV_CONFIGS.items()):
        path = tmp_path / f"config{i}.json"
        path.write_text(text)
        configs[name] = load_config(path)
    return {**configs, **_CONFIGS}


def test_qubit_weights_are_unchanged():
    weights = _DISPATCH_CONFIG.weights()
    assert _digest(" ".join(_hex(w) for pair in weights for w in pair)) == QUBIT_WEIGHT_DIGEST


def test_post_selected_states_are_unchanged(tmp_path):
    digests = {}
    for name, cfg in _golden_configs(tmp_path).items():
        amps = [post_select(cfg, outcome).state.amps for outcome in OUTCOME_ORDER]
        digests[name] = _digest(" ".join(_hex(x) for a in amps for z in a.tolist() for x in (z.real, z.imag)))
    assert digests == POST_SELECT_DIGESTS


def test_post_selected_states_are_in_support_form(tmp_path):
    for cfg in _golden_configs(tmp_path).values():
        for outcome in OUTCOME_ORDER:
            assert_support_invariant(post_select(cfg, outcome).state)


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
        for name, rho in (("thermal_density", thermal_density(spec)),
                          ("purify round trip", partial_trace(purify(spec), keep={1}))):
            assert rho.entries.dtype == np.float64, name  # real values, stored real
            # the digests were recorded on complex entries: the cast is exact, so the values are unchanged
            digests[name].update(rho.entries.astype(np.complex128).tobytes())
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
