"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a single PASS/FAIL line so the suite can be read as a
checklist (`pytest tests/test_acceptance.py -v -s`).
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from thermosim import (
    OUTCOME_ORDER,
    SIGMA_Z,
    BellOutcome,
    apply,
    apply_inverse_temp_squared,
    circuit_probability,
    closed_form_probability,
    eigencheck_purified,
    fidelity_pure,
    partial_trace,
    post_select,
    post_select_oracle,
    purified_thermal_state,
    purify,
    residual_superposition,
    sample_outcomes,
    success_probability,
    superposition_state,
    thermal_density,
)
from thermosim.cli import main as cli_main
from thermosim.thermal import QuditHamiltonian, ThermalSpec

from helpers import (
    reference_config,
    local_gibbs,
    random_in_regime_config,
    random_protocol_config,
    random_thermal_spec,
    symmetric_config,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description}")


def test_criterion_1_purification_round_trip():
    with criterion(1, "purification round trip, 200 randomized specs, 1e-12"):
        rng = np.random.default_rng(1001)
        for _ in range(200):
            spec = random_thermal_spec(rng, beta_max=50.0, dims=(2, 5), energy_range=(-10, 10))
            phase = float(rng.uniform(0, 2 * np.pi)) if spec.hamiltonian.dim == 2 else 0.0
            reduced = partial_trace(purify(spec, phase), keep={1})
            diff = np.max(np.abs(reduced.entries - thermal_density(spec).entries))
            assert diff <= 1e-12


def test_criterion_2_bell_decomposition_against_oracle():
    with criterion(2, "Bell decomposition vs Bell-contraction oracle, 200 randomized configs"):
        rng = np.random.default_rng(1002)
        for _ in range(200):
            cfg = random_protocol_config(rng, beta_max=50.0)
            total = 0.0
            for outcome in OUTCOME_ORDER:
                fast = post_select(cfg, outcome)
                slow = post_select_oracle(cfg, outcome)
                assert abs(fast.probability - slow.probability) <= 1e-12
                assert fidelity_pure(fast.state, slow.state) >= 1 - 1e-12
                total += fast.probability
            assert abs(total - 1.0) <= 1e-12


def test_criterion_3_success_probability():
    with criterion(3, "success probability identity and completeness, 1e-12"):
        rng = np.random.default_rng(1003)
        for _ in range(200):
            cfg = random_protocol_config(rng)
            # weights recomputed locally, independent of the package route
            p = local_gibbs(cfg.spec_a.beta, cfg.spec_a.hamiltonian.energies)
            f = local_gibbs(cfg.spec_b.beta, cfg.spec_b.hamiltonian.energies)
            phi_branch = success_probability(cfg, "phi")
            assert abs(phi_branch - (p[0] * f[0] + p[1] * f[1])) <= 1e-12
            assert abs(phi_branch - 2 * post_select(cfg, BellOutcome.PHI_PLUS).probability) <= 1e-12
            assert abs(phi_branch + success_probability(cfg, "psi") - 1.0) <= 1e-12


def test_criterion_4_local_unitary_equivalence():
    with criterion(4, "sigma_z on B maps phi- onto phi+, fidelity 1 - 1e-12"):
        rng = np.random.default_rng(1004)
        for _ in range(200):
            cfg = random_protocol_config(rng)
            minus = post_select(cfg, BellOutcome.PHI_MINUS).state
            plus = post_select(cfg, BellOutcome.PHI_PLUS).state
            assert fidelity_pure(apply(SIGMA_Z, minus, targets=(1,)), plus) >= 1 - 1e-12


def test_criterion_5_interference_reference_point():
    with criterion(5, "fringe values at the reference parameter set"):
        assert abs(circuit_probability(reference_config(np.pi / 2)) - 0.5) <= 1e-12

        circuit = circuit_probability(reference_config(0.0))
        assert abs(circuit - closed_form_probability(reference_config(0.0), "corrected")) <= 1e-9
        # six-digit reference value; exact is 0.632901114...
        assert abs(circuit - 0.632915) <= 5e-5

        paper = closed_form_probability(reference_config(0.0), "paper")
        # independent evaluation of the halved-cross-term expression
        p = local_gibbs(1.0, (5.0, 0.0))
        f = local_gibbs(1.0, (0.0, 1.0))
        n_sq = p[0] * f[0] + p[1] * f[1]
        reference = 0.5 * (1 + math.sqrt(p[0] * f[0] * p[1] * f[1]) / n_sq)
        assert abs(paper - reference) <= 1e-9
        assert abs(paper - 0.566454) <= 5e-5  # six-digit reference, exact 0.566450557...

        for phi in np.linspace(0.0, 2 * np.pi, 101):
            total = circuit_probability(reference_config(phi)) + circuit_probability(
                reference_config(phi + np.pi)
            )
            assert abs(total - 1.0) <= 1e-12


def test_criterion_6_eigen_relation():
    with criterion(6, "eigen relation, 100 randomized specs, analytic 1e-10 / fd 1e-6"):
        rng = np.random.default_rng(1006)
        for _ in range(100):
            spec = random_thermal_spec(rng, beta_max=20.0, dims=(2, 5), energy_range=(-10, 10))
            expected = spec.beta**2 / 16.0
            analytic = eigencheck_purified(spec)
            assert analytic.residual <= 1e-10
            assert abs(analytic.rayleigh - expected) <= 1e-10
            fd = eigencheck_purified(spec, fd_step=1e-5)
            assert fd.residual <= 1e-6
            assert abs(fd.rayleigh - expected) <= 1e-6

        # quadratic decay of the finite-difference error, measured against the
        # analytic eigenvalue (the image of an exact eigenvector is exactly
        # proportional to it, so the Rayleigh residual alone cannot see h)
        spec = ThermalSpec(1.3, QuditHamiltonian((1.0, -2.0, 0.5)))
        state = purified_thermal_state(spec)
        psi = state.amplitude_vector().amps
        lam = spec.beta**2 / 16.0
        resid = {
            h: float(np.linalg.norm(apply_inverse_temp_squared(state, fd_step=h).amps - lam * psi))
            for h in (1e-3, 1e-4, 1e-5)
        }
        assert resid[1e-3] > resid[1e-4] > resid[1e-5]
        assert 30 <= resid[1e-3] / resid[1e-4] <= 300
        assert resid[1e-4] / resid[1e-5] >= 5


def test_criterion_7_superposition_residuals():
    # convention outcomes only; no claim about which convention realizes the
    # non-eigenstate assertion for the post-selected states
    with criterion(7, "two-temperature residuals under both derivative conventions"):
        rng = np.random.default_rng(1007)
        for _ in range(100):
            cfg = random_in_regime_config(rng)
            for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
                report = residual_superposition(cfg, outcome, "full_dependence")
                expected = cfg.spec_a.beta * cfg.spec_b.beta / 4.0
                assert abs(report.rayleigh - expected) <= 1e-10
                assert report.residual <= 1e-10
            pinned = superposition_state(cfg, BellOutcome.PHI_PLUS, "chosen_zero_levels")
            assert apply_inverse_temp_squared(pinned).norm() == 0.0


def test_criterion_8_monte_carlo():
    with criterion(8, "sampled frequencies within 5 sigma; bit-identical reruns"):
        n = 100_000
        for cfg in (symmetric_config(), reference_config()):
            counts = sample_outcomes(cfg, n, seed=2024)
            again = sample_outcomes(cfg, n, seed=2024)
            assert counts == again
            for outcome in OUTCOME_ORDER:
                p = post_select(cfg, outcome).probability
                sigma = math.sqrt(n * p * (1 - p))
                assert abs(counts[outcome] - n * p) <= 5 * sigma


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, "CLI determinism and the 0/1/2 exit-code contract"):
        config = tmp_path / "reference.json"
        config.write_text(
            '{"beta_a":1.0,"beta_b":1.0,"energies_a":[5.0,0.0],"energies_b":[0.0,1.0],"phi":0.0}'
        )
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = cli_main(
                ["interference", "--config", str(config), "--phi-steps", "101", "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

        malformed = tmp_path / "bad.json"
        malformed.write_text('{"beta_a": "cold"}')
        assert cli_main(["protocol", "--config", str(malformed)]) == 1

        # the analytic report is exact, so the finite-difference residual trips the tight tolerance
        eigencheck = ["eigencheck", "--dim", "2", "--beta", "2.0", "--fd-step", "1e-5", "--assert-tol"]
        assert cli_main(eigencheck + ["1e-30"]) == 2
        assert cli_main(eigencheck + ["1e-6"]) == 0
        capsys.readouterr()  # drain captured CLI output
