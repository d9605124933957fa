"""Read-out circuit that turns the phi+ post-selected state into fringes.

The circuit applies CNOT (A control, B target) to the post-selected state,
discards B, applies a Hadamard to A, and reports the probability of finding
A in |0>.  For the state (a|00> + b e^(i*phi)|11>)/N this evaluates to

    P(phi) = 1/2 * (1 + 2ab/N^2 * cos(phi)),

so the fringe visibility is 2ab/N^2 with a = sqrt(p0 f0), b = sqrt(p1 f1).
:func:`circuit_probability` simulates the circuit for one configuration and
is the module's ground truth; :func:`sweep` runs the same simulation batched
over a whole grid; :func:`closed_form_probability` evaluates the closed form,
either with the operational factor 2 in the cross term ("corrected") or
without it ("paper", kept for comparison because the two differ by exactly
that factor).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import qcore
from .protocol import BellOutcome, ProtocolConfig, _underflow_error, post_select
from .qcore import ConfigurationError
from .thermal import _shifted_gibbs

# CNOT with A as control: flat index 2a + b of the (A, B) pair goes to 2a + (a XOR b)
_CNOT_ORDER = [0, 1, 3, 2]


@dataclass(frozen=True)
class SweepSpec:
    """Grid of phase values, optionally crossed with a beta_B axis."""

    cfg: ProtocolConfig
    phi_points: tuple[float, ...]
    beta_b_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        phis = tuple(float(x) for x in self.phi_points)
        if not phis:
            raise ConfigurationError("phi_points must be nonempty")
        if not all(isfinite(x) for x in phis):
            raise ConfigurationError("phi_points must be finite")
        object.__setattr__(self, "phi_points", phis)
        if self.beta_b_values is not None:
            betas = tuple(float(b) for b in self.beta_b_values)
            if not all(isfinite(b) and b > 0.0 for b in betas):
                raise ConfigurationError("beta_b sweep values must be positive and finite")
            weights, _ = _shifted_gibbs(np.array(betas)[:, None], self.cfg.spec_b.hamiltonian.energies)
            if (weights <= 0.0).any():
                raise _underflow_error("spec_b")
            object.__setattr__(self, "beta_b_values", betas)


def circuit_probability(cfg: ProtocolConfig) -> float:
    """Probability of measuring |0> on A after the read-out circuit.

    Full simulation: CNOT on the phi+ post-selected state, partial trace over
    B, Hadamard on A, probability of |0>.  After the CNOT the reduced state
    of A is pure, so the statistics are well defined.
    """
    state = post_select(cfg, BellOutcome.PHI_PLUS).state
    state = qcore.apply(qcore.CNOT, state, targets=(0, 1))
    rho_a = qcore.partial_trace(state, keep={0}).entries
    h = qcore.HADAMARD.entries
    prob = float((h @ rho_a @ h.conj().T)[0, 0].real)
    return min(max(prob, 0.0), 1.0)  # roundoff guard


def _cross_coefficient(cfg: ProtocolConfig) -> float:
    (p0, p1), (f0, f1) = cfg.weights()
    n_sq = p0 * f0 + p1 * f1
    return np.sqrt(p0 * f0) * np.sqrt(p1 * f1) / n_sq


def closed_form_probability(cfg: ProtocolConfig, convention: str = "corrected") -> float:
    """Closed-form fringe probability; valid only when E0' = 0 and E1 = 0.

    In that regime sqrt(p0 f0 p1 f1) equals e^(-(beta_A*E0 + beta_B*E1')/2)
    divided by Z_A Z_B, so the formula is evaluated from the Gibbs weights
    directly.  The "corrected" convention carries the factor 2 produced by
    the circuit; "paper" omits it.
    """
    if cfg.spec_a.hamiltonian.energies[1] != 0.0 or cfg.spec_b.hamiltonian.energies[0] != 0.0:
        raise ConfigurationError(
            "closed form requires the pinned levels E1 = 0 and E0' = 0"
        )
    coeff = _cross_coefficient(cfg)
    if convention == "corrected":
        return 0.5 * (1.0 + 2.0 * coeff * np.cos(cfg.phi))
    if convention == "paper":
        return 0.5 * (1.0 + coeff * np.cos(cfg.phi))
    raise ConfigurationError(f"convention must be 'paper' or 'corrected', got {convention!r}")


def _qubit_weights(beta, energies) -> tuple[np.ndarray, np.ndarray]:
    weights, _ = _shifted_gibbs(np.asarray(beta, dtype=float)[..., None], energies)
    return weights[..., 0], weights[..., 1]


def _readout_probability(beta_a, energies_a, beta_b, energies_b, phi) -> np.ndarray:
    """P(A = 0) after the read-out circuit, for every point of a broadcast grid.

    The same simulation as :func:`circuit_probability`, batched: ``beta_a``,
    ``beta_b`` and ``phi`` broadcast together, and ``energies_a`` and
    ``energies_b`` carry the two qubit levels on their last axis.  The phi+
    post-selected amplitudes are formed exactly as in
    :func:`~thermosim.protocol.post_select`, then CNOT permutes them, the
    partial trace over B is a batched matmul, and the Hadamard reads A out.
    Inputs are assumed valid: every Gibbs weight positive, phi finite.
    """
    p0, p1 = _qubit_weights(beta_a, energies_a)
    f0, f1 = _qubit_weights(beta_b, energies_b)
    phase = np.exp(1j * np.asarray(phi, dtype=float))
    # square roots are taken per weight so extreme weight products survive
    first, second = np.sqrt(p0) * np.sqrt(f0), np.sqrt(p1) * np.sqrt(f1)
    norm = np.hypot(first, second)
    shape = np.broadcast_shapes(norm.shape, phase.shape)
    amps = np.zeros(shape + (4,), dtype=np.complex128)
    amps[..., 0] = first / norm
    amps[..., 3] = phase * second / norm
    psi = amps[..., _CNOT_ORDER].reshape(shape + (2, 2))  # psi[..., a, b]
    rho_a = psi @ psi.conj().swapaxes(-1, -2)
    h = qcore.HADAMARD.entries
    prob = (h @ rho_a @ h.conj().T)[..., 0, 0].real
    return np.clip(prob, 0.0, 1.0)  # roundoff guard


def sweep(spec: SweepSpec) -> list[tuple]:
    """Fringe probabilities over the grid, computed by circuit simulation.

    Rows are (phi, probability), or (phi, beta_b, probability) when a beta_B
    axis is present; the outer loop runs over beta_B, the inner over phi, and
    rows are emitted in that deterministic order.  The whole grid is one call
    of the batched circuit simulation.
    """
    a, b = spec.cfg.spec_a, spec.cfg.spec_b
    betas = b.beta if spec.beta_b_values is None else np.array(spec.beta_b_values)[:, None]
    probs = _readout_probability(
        a.beta, a.hamiltonian.energies, betas, b.hamiltonian.energies, np.array(spec.phi_points)
    )
    if spec.beta_b_values is None:
        return list(zip(spec.phi_points, probs.tolist()))
    return [
        (phi, beta_b, prob)
        for beta_b, row in zip(spec.beta_b_values, probs.tolist())
        for phi, prob in zip(spec.phi_points, row)
    ]
