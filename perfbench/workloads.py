"""The three benchmark workloads: seeded inputs, one op each, CLI runs, checks.

Inputs are plain numbers generated from the benchmark seed; thermosim only
ever sees the generated configs and level sets.  Each op and each CLI run
is checked against ``checks``, which does not use thermosim.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import thermosim as ts
from checks import (
    EIGEN_TOL,
    EQ_TOL,
    FD_TOL,
    PRINTED_RTOL,
    at_most,
    bell_reference,
    close,
    counts_within_5_sigma,
    fringe_closed_form,
    gibbs,
)
from speed import Reference

TWO_PI = 2.0 * math.pi
COMPLEX_BYTES = 16


def protocol_config(c: dict, beta_b: float | None = None) -> ts.ProtocolConfig:
    return ts.ProtocolConfig(
        ts.ThermalSpec(c["beta_a"], ts.QuditHamiltonian(c["energies_a"])),
        ts.ThermalSpec(c["beta_b"] if beta_b is None else beta_b, ts.QuditHamiltonian(c["energies_b"])),
        c["phi"],
    )


def write_config(c: dict, path: Path) -> None:
    path.write_text(json.dumps({k: c[k] for k in ("beta_a", "beta_b", "energies_a", "energies_b", "phi")}))


def oracle_agrees(cfg: ts.ProtocolConfig, outcomes) -> list[str]:
    """post_select against the brute-force projector route."""
    problems = []
    for o in outcomes:
        fast, slow = ts.post_select(cfg, o), ts.post_select_oracle(cfg, o)
        problems += close(f"oracle {o.value} probability", fast.probability, slow.probability, EQ_TOL)
        overlap = abs(np.vdot(fast.state.amps, slow.state.amps)) ** 2
        problems += close(f"oracle {o.value} fidelity", overlap, 1.0, EQ_TOL)
    return problems


class Fringe:
    """One op is one sweep row: every phi point of the grid at one beta_b."""

    name = "fringe"
    item = "grid point"
    ROUNDS = 6
    PER_ROUND = dict(setup=2, cli=3, op=40)  # 240 timed ops, so op_tail_s is p95.8
    # interpreter-bound; a run takes about 3 ms between ops, 50 ms between CLI runs
    REFERENCE = dict(op=Reference(interp=60), cli=Reference(interp=1000))
    OPS_PER_REFERENCE = 1
    SIZES = {"full": dict(grid=101, phi_steps=3001, trace_ops=20), "tiny": dict(grid=11, phi_steps=101, trace_ops=4)}
    CONFIGS = 4

    def __init__(self, seed: int, size: str) -> None:
        s = self.SIZES[size]
        rng = np.random.default_rng([seed, 1])
        self.configs = [
            {
                "beta_a": float(rng.uniform(0.2, 2.0)),
                "beta_b": 1.0,  # the op replaces it with a beta_b grid value
                "energies_a": [float(rng.uniform(0.5, 5.0)), 0.0],
                "energies_b": [0.0, float(rng.uniform(0.5, 5.0))],
                "phi": 0.0,
            }
            for _ in range(self.CONFIGS)
        ]
        self.phis = tuple(float(x) for x in np.linspace(0.0, TWO_PI, s["grid"]))
        self.beta_b = tuple(float(x) for x in np.linspace(rng.uniform(0.1, 0.5), rng.uniform(1.5, 3.0), s["grid"]))
        self.phi_steps = s["phi_steps"]
        self.trace_ops = s["trace_ops"]
        self.items_per_op = len(self.phis)
        self.cli_items = self.phi_steps
        # dominant arrays: one 4-amplitude state per point, read out for every point
        self.array_bytes = {"op": COMPLEX_BYTES * 4 * len(self.phis), "cli": COMPLEX_BYTES * 4 * self.phi_steps}

    def pool_index(self, k: int) -> int:
        return k // len(self.beta_b) % self.CONFIGS

    def op(self, k: int):
        c, beta_b = self.configs[self.pool_index(k)], self.beta_b[k % len(self.beta_b)]
        return ts.sweep(ts.SweepSpec(protocol_config(c, beta_b), self.phis, (beta_b,)))

    def check_op(self, k: int, rows) -> list[str]:
        c, beta_b = self.configs[self.pool_index(k)], self.beta_b[k % len(self.beta_b)]
        expected = fringe_closed_form(c["beta_a"], c["energies_a"], beta_b, c["energies_b"], self.phis)
        got = [r[2] for r in rows]
        return close("fringe row", got, expected, EIGEN_TOL) + close("fringe phis", [r[0] for r in rows], self.phis, 0.0)

    def oracle_problems(self, ops: int) -> dict[int, list[str]]:
        out = {}
        for i in sorted({self.pool_index(k) for k in range(ops)}):
            cfgs = [protocol_config({**self.configs[i], "phi": self.phis[len(self.phis) // 3]}, b)
                    for b in (self.beta_b[0], self.beta_b[-1])]
            out[i] = [p for cfg in cfgs for p in oracle_agrees(cfg, [ts.BellOutcome.PHI_PLUS])]
        return out

    def cli_argv(self, j: int, tmp: Path) -> list[str]:
        write_config(self.configs[j % self.CONFIGS], tmp / "fringe.json")
        return ["interference", "--config", str(tmp / "fringe.json"),
                "--phi-steps", str(self.phi_steps), "--out", str(tmp / "fringe.csv")]

    def check_cli(self, j: int, tmp: Path, stdout: str) -> list[str]:
        c = self.configs[j % self.CONFIGS]
        with open(tmp / "fringe.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["phi", "probability"]] or len(rows) != self.phi_steps + 1:
            return [f"fringe csv: bad header or {len(rows) - 1} rows"]
        phi, prob = np.array(rows[1:], dtype=float).T
        grid = np.linspace(0.0, TWO_PI, self.phi_steps)
        expected = fringe_closed_form(c["beta_a"], c["energies_a"], c["beta_b"], c["energies_b"], grid)
        return close("fringe csv phi", phi, grid, 0.0, PRINTED_RTOL) + close("fringe csv", prob, expected, EQ_TOL, PRINTED_RTOL)


class LargeD:
    """One op is one seeded level set: Gibbs state, purification round trip, eigenchecks."""

    name = "large_d"
    item = "energy level"
    ROUNDS = 3
    PER_ROUND = dict(setup=3, cli=2, op=7)  # 21 timed ops of about 1 s, so op_tail_s is the median
    # dense linear algebra; a run takes about 85 ms between ops, 65 ms between CLI runs
    REFERENCE = dict(op=Reference(dense=20), cli=Reference(dense=15))
    OPS_PER_REFERENCE = 1
    SIZES = {"full": dict(dim=1024, cli_dim=2048, trace_ops=3), "tiny": dict(dim=32, cli_dim=64, trace_ops=2)}
    LEVEL_SETS = 8
    FD_STEP = 1e-5

    def __init__(self, seed: int, size: str) -> None:
        s = self.SIZES[size]
        rng = np.random.default_rng([seed, 2])
        self.levels = [tuple(float(e) for e in rng.uniform(-5.0, 5.0, s["dim"])) for _ in range(self.LEVEL_SETS)]
        self.betas = [float(b) for b in rng.uniform(0.2, 2.0, self.LEVEL_SETS)]
        self.cli_dim = s["cli_dim"]
        self.trace_ops = s["trace_ops"]
        self.items_per_op = s["dim"]
        self.cli_items = self.cli_dim
        self.array_bytes = {"op": COMPLEX_BYTES * s["dim"] ** 2, "cli": COMPLEX_BYTES * self.cli_dim**2}

    def pool_index(self, k: int) -> int:
        return k % self.LEVEL_SETS

    def op(self, k: int):
        i = self.pool_index(k)
        spec = ts.ThermalSpec(self.betas[i], ts.QuditHamiltonian(self.levels[i]))
        rho = ts.thermal_density(spec)
        back = ts.partial_trace(ts.purify(spec), keep={1})
        return rho, back, ts.eigencheck_purified(spec), ts.eigencheck_purified(spec, fd_step=self.FD_STEP)

    def check_op(self, k: int, out) -> list[str]:
        rho, back, analytic, fd = out
        i = self.pool_index(k)
        beta, expected_rho = self.betas[i], np.diag(gibbs(self.betas[i], self.levels[i]))
        return (
            close("thermal_density", rho.entries, expected_rho, EQ_TOL)
            + close("purify round trip", back.entries, expected_rho, EQ_TOL)
            + self._eigen("analytic", analytic.rayleigh, analytic.residual, beta, EIGEN_TOL, 0.0)
            + self._eigen("finite difference", fd.rayleigh, fd.residual, beta, FD_TOL, 0.0)
        )

    @staticmethod
    def _eigen(name: str, rayleigh: float, residual: float, beta: float, tol: float, rtol: float) -> list[str]:
        return close(f"{name} rayleigh", rayleigh, beta**2 / 16.0, tol, rtol) + at_most(f"{name} residual", residual, tol)

    def oracle_problems(self, ops: int) -> dict[int, list[str]]:
        return {}

    def cli_argv(self, j: int, tmp: Path) -> list[str]:
        return ["eigencheck", "--dim", str(self.cli_dim), "--beta", repr(self.betas[j % self.LEVEL_SETS]),
                "--fd-step", repr(self.FD_STEP), "--assert-tol", "1e-6"]

    def check_cli(self, j: int, tmp: Path, stdout: str) -> list[str]:
        doc = json.loads(stdout)
        beta = self.betas[j % self.LEVEL_SETS]
        energies = doc["energies"]
        problems = [] if doc["dim"] == self.cli_dim and len(energies) == self.cli_dim else ["eigencheck: wrong dim"]
        # finite and inside the CLI's documented level range
        problems += close("eigencheck energies", energies, np.clip(energies, -5.0, 5.0), 0.0)
        for key, tol in (("analytic", EIGEN_TOL), ("finite_difference", FD_TOL)):
            r = doc[key]
            problems += self._eigen(f"eigencheck {key}", r["rayleigh"], r["residual"], beta, tol, PRINTED_RTOL)
        return problems


class Bell:
    """One op is one seeded qubit config through every protocol and tempop report."""

    name = "bell"
    item = "qubit config"
    ROUNDS = 6
    PER_ROUND = dict(setup=2, cli=6, op=160)  # 960 timed ops, so op_tail_s is p99.0
    # the sampler's large array and the interpreter-bound 2x2 reports; a run
    # takes about 5 ms after every 4 ops, 50 ms between CLI runs
    REFERENCE = dict(op=Reference(interp=16, dense=1), cli=Reference(interp=160, dense=10))
    OPS_PER_REFERENCE = 4
    SIZES = {"full": dict(samples=100_000, cli_samples=10_000_000, trace_ops=200),
             "tiny": dict(samples=1_000, cli_samples=10_000, trace_ops=10)}
    CONFIGS = 64
    MAX_BETA_GAP = 700.0  # below the ~745 edge where a Gibbs weight underflows to 0
    CONVENTIONS = ("full_dependence", "chosen_zero_levels")
    RESIDUAL_OUTCOMES = (ts.BellOutcome.PHI_PLUS, ts.BellOutcome.PSI_PLUS)

    def __init__(self, seed: int, size: str) -> None:
        s = self.SIZES[size]
        rng = np.random.default_rng([seed, 3])

        def beta_for(gap: float) -> float:
            return float(np.exp(rng.uniform(math.log(1e-2), math.log(self.MAX_BETA_GAP)))) / gap

        self.configs = []
        for _ in range(self.CONFIGS):
            gap_a, gap_b = rng.uniform(0.5, 5.0, 2)
            # E1 = 0 and E0' = 0 are pinned so both tempop conventions apply
            self.configs.append({
                "beta_a": beta_for(gap_a), "beta_b": beta_for(gap_b),
                "energies_a": [float(gap_a), 0.0], "energies_b": [0.0, float(gap_b)],
                "phi": float(rng.uniform(0.0, TWO_PI)), "seed": int(rng.integers(0, 2**31 - 1)),
            })
        self.samples, self.cli_samples = s["samples"], s["cli_samples"]
        self.trace_ops = s["trace_ops"]
        self.items_per_op = 1
        self.cli_items = 1
        # the sampler draws one float64 and one int64 per sample
        self.array_bytes = {"op": 16 * self.samples, "cli": 16 * self.cli_samples}

    def pool_index(self, k: int) -> int:
        return k % self.CONFIGS

    def op(self, k: int):
        c = self.configs[self.pool_index(k)]
        cfg = protocol_config(c)
        return (
            [ts.post_select(cfg, o) for o in ts.OUTCOME_ORDER],
            (ts.success_probability(cfg, "phi"), ts.success_probability(cfg, "psi")),
            [ts.residual_superposition(cfg, o, conv) for o in self.RESIDUAL_OUTCOMES for conv in self.CONVENTIONS],
            ts.sample_outcomes(cfg, self.samples, c["seed"]),
        )

    def check_op(self, k: int, out) -> list[str]:
        results, success, reports, counts = out
        c = self.configs[self.pool_index(k)]
        ref = bell_reference(c["beta_a"], c["energies_a"], c["beta_b"], c["energies_b"], c["phi"])
        problems = close("branch probabilities", [r.probability for r in results], ref["probabilities"], EQ_TOL)
        problems += close("success probabilities", success, ref["success"], EQ_TOL)
        for r, amps in zip(results, ref["states"]):
            problems += close(f"{r.outcome.value} state", r.state.amps, amps, EQ_TOL)
        problems += self._residuals(c, reports, ref)
        problems += counts_within_5_sigma("sampled counts", [counts[o] for o in ts.OUTCOME_ORDER],
                                          self.samples, ref["probabilities"])
        return problems

    def _residuals(self, c: dict, reports, ref) -> list[str]:
        """Expected (rayleigh, residual) per outcome and convention.

        Under full dependence both terms respond with s = beta_A beta_B / 4, an
        exact eigenvector.  With the pinned levels constant, no phi+ term
        responds, and only the |01> term of psi+ does, with amplitude c0.
        """
        s = c["beta_a"] * c["beta_b"] / 4.0
        c0, c1 = ref["psi_plus_terms"]
        expected = [(s, 0.0), (0.0, 0.0), (s, 0.0), (s * c0 * c0, s * c0 * c1)]
        tol = EIGEN_TOL * max(1.0, s)
        problems = []
        for report, (rayleigh, residual) in zip(reports, expected):
            problems += close("residual_superposition rayleigh", report.rayleigh, rayleigh, tol)
            problems += close("residual_superposition residual", report.residual, residual, tol)
        return problems

    def oracle_problems(self, ops: int) -> dict[int, list[str]]:
        return {i: oracle_agrees(protocol_config(self.configs[i]), ts.OUTCOME_ORDER)
                for i in sorted({self.pool_index(k) for k in range(ops)})}

    def cli_argv(self, j: int, tmp: Path) -> list[str]:
        c = self.configs[j % self.CONFIGS]
        write_config(c, tmp / "bell.json")
        return ["protocol", "--config", str(tmp / "bell.json"), "--samples", str(self.cli_samples), "--seed", str(c["seed"])]

    def check_cli(self, j: int, tmp: Path, stdout: str) -> list[str]:
        c = self.configs[j % self.CONFIGS]
        doc = json.loads(stdout)
        ref = bell_reference(c["beta_a"], c["energies_a"], c["beta_b"], c["energies_b"], c["phi"])
        names = [o.value for o in ts.OUTCOME_ORDER]
        problems = close("protocol probabilities", [doc["outcome_probabilities"][n] for n in names],
                         ref["probabilities"], EQ_TOL, PRINTED_RTOL)
        sp = doc["success_probability"]
        problems += close("protocol success", [sp["phi_branch"], sp["psi_branch"]], ref["success"], EQ_TOL, PRINTED_RTOL)
        state = doc["phi_plus_state"]
        amps = np.array(state["amplitudes_re"]) + 1j * np.array(state["amplitudes_im"])
        problems += close("protocol phi+ state", amps, ref["states"][0], PRINTED_RTOL)
        samples = doc["samples"]
        if samples["count"] != self.cli_samples or samples["seed"] != c["seed"]:
            problems.append("protocol samples: wrong count or seed echoed")
        problems += counts_within_5_sigma("protocol counts", [samples["counts"][n] for n in names],
                                          self.cli_samples, ref["probabilities"])
        return problems


WORKLOADS = {w.name: w for w in (Fringe, LargeD, Bell)}


def build(name: str, seed: int, size: str):
    return WORKLOADS[name](seed, size)
