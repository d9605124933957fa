"""Read-out circuit that turns the phi+ post-selected state into fringes.

The circuit applies CNOT (A control, B target) to the post-selected state,
discards B, applies a Hadamard to A, and reports the probability of finding
A in |0>.  For the state (a|00> + b e^(i*phi)|11>)/N this evaluates to

    P(phi) = 1/2 * (1 + 2ab/N^2 * cos(phi)),

so the fringe visibility is 2ab/N^2 with a = sqrt(p0 f0), b = sqrt(p1 f1).
:func:`circuit_probability` simulates the circuit for one configuration and
is the module's ground truth: it reads the brute-force post-selected state, so
it shares neither the qubit weights nor the branch kernel with the batched
route.  :func:`sweep` runs the same circuit batched over a whole grid, reading
A's pure reduced state out with Hadamard row 0 (one complex array over the
grid, no per-point 4-amplitude or 2x2 density arrays);
:func:`closed_form_probability` evaluates the closed form, either with the
operational factor 2 in the cross term ("corrected") or without it ("paper",
kept for comparison because the two differ by exactly that factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qcore
from .protocol import BellOutcome, ProtocolConfig, _branch, _check_cfg, post_select_oracle, success_probability
from .qcore import ConfigurationError, _numbers
from .thermal import ThermalSpec, _qubit_weights


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Grid of phase values crossed with a beta_B axis.

    ``phi_points`` is stored as a read-only float64 copy of the caller's
    points.  ``beta_b_values`` defaults to the config's own beta_B, the
    one-value axis ``(cfg.spec_b.beta,)``; after construction it is always a
    nonempty tuple of floats.  Each beta_B value ``b`` is read as
    ``ThermalSpec(b, cfg.spec_b.hamiltonian)``, so the axis takes the betas
    every spec takes, 0 among them, and a value whose Gibbs weight underflows
    is refused by its own name (``beta_b sweep value 1000.0 has a Gibbs
    weight that underflows...``).  Specs compare by identity.
    """

    cfg: ProtocolConfig
    phi_points: np.ndarray
    beta_b_values: tuple[float, ...] | None = None
    _weights_b: np.ndarray = field(init=False, repr=False)  # (w0, w1), each of shape (len(beta_b_values), 1)

    def __post_init__(self) -> None:
        phis = np.array(_numbers("phi_points (a 1-D grid)", self.phi_points), dtype=float)
        if not (phis.size and np.isfinite(phis).all()):
            raise ConfigurationError("phi_points must be a nonempty 1-D sequence of finite numbers")
        phis.flags.writeable = False
        object.__setattr__(self, "phi_points", phis)
        _check_cfg(self.cfg)
        betas = self.beta_b_values
        betas = _numbers("beta_b sweep values", (self.cfg.spec_b.beta,) if betas is None else betas)
        if not betas:
            raise ConfigurationError("beta_b sweep values must be a nonempty sequence")
        hamiltonian = self.cfg.spec_b.hamiltonian
        weights = [_qubit_weights(f"beta_b sweep value {b!r}", ThermalSpec(b, hamiltonian)) for b in betas]
        object.__setattr__(self, "beta_b_values", betas)
        object.__setattr__(self, "_weights_b", np.array(weights).T[..., None])


def circuit_probability(cfg: ProtocolConfig) -> float:
    """Probability of measuring |0> on A after the read-out circuit.

    Full simulation: CNOT on the phi+ state of the brute-force route
    :func:`~thermosim.protocol.post_select_oracle`, partial trace over B,
    Hadamard on A, probability of |0>.  After the CNOT the reduced state of
    A is pure, so the statistics are well defined.  It shares neither the
    qubit weights nor the branch kernel with the batched kernel.
    """
    state = post_select_oracle(cfg, BellOutcome.PHI_PLUS).state
    state = qcore.apply(qcore.CNOT, state, targets=(0, 1))
    rho_a = qcore.partial_trace(state, keep={0}).entries
    h = qcore.HADAMARD.entries
    prob = float((h @ rho_a @ h.conj().T)[0, 0].real)
    return min(max(prob, 0.0), 1.0)  # roundoff guard


def closed_form_probability(cfg: ProtocolConfig, convention: str = "corrected") -> float:
    """Closed-form fringe probability; valid only when E0' = 0 and E1 = 0.

    In that regime sqrt(p0 f0 p1 f1) equals e^(-(beta_A*E0 + beta_B*E1')/2)
    divided by Z_A Z_B, so the formula is evaluated from the Gibbs weights
    directly.  The "corrected" convention carries the factor 2 produced by
    the circuit; "paper" omits it.
    """
    _check_cfg(cfg)  # before cfg.phi is read
    return _closed_form(cfg, convention, cfg.phi)


def _closed_form(cfg: ProtocolConfig, convention: str, phi):
    """The closed form of :func:`closed_form_probability` at each phase in ``phi``."""
    if cfg.spec_a.hamiltonian.energies[1] != 0.0 or cfg.spec_b.hamiltonian.energies[0] != 0.0:
        raise ConfigurationError(
            "closed form requires the pinned levels E1 = 0 and E0' = 0"
        )
    factors = {"corrected": 2.0, "paper": 1.0}
    if convention not in factors:
        raise ConfigurationError(f"convention must be 'paper' or 'corrected', got {convention!r}")
    (p0, p1), (f0, f1) = cfg.weights()
    cross = np.sqrt(p0 * f0) * np.sqrt(p1 * f1) / success_probability(cfg, "phi")
    return 0.5 * (1.0 + factors[convention] * cross * np.cos(phi))


def _readout_probability(p, f, phi) -> np.ndarray:
    """P(A = 0) after the read-out circuit, for every point of a broadcast grid.

    The same circuit as :func:`circuit_probability`, batched: the A and B
    weight pairs ``p`` = (p0, p1) and ``f`` = (f0, f1) and the phases ``phi``
    broadcast together.  The phi+ post-selected amplitudes come from the
    protocol's branch kernel.  The CNOT takes first|00> + second|11> to the
    product (first|0> + second|1>)|0>: B is left in |0>, so tracing B out
    leaves A in the pure state (first, second), and row 0 of the Hadamard
    reads A out.  No closed form enters: 2ab/N^2 cos(phi) is never formed.
    Inputs are assumed valid: every weight positive, phi finite.
    """
    first, second = _branch(p, f, np.exp(1j * np.asarray(phi, dtype=float)))
    h0 = qcore.HADAMARD.entries[0]
    a = h0[0] * first + h0[1] * second
    prob = a.real**2 + a.imag**2
    # roundoff guard, in place: the sum can exceed 1 by an ulp; a 0-d phase's numpy scalar gets a 0-d array
    return np.minimum(prob, 1.0, out=np.asarray(prob))


def sweep(spec: SweepSpec) -> list[tuple[float, float, float]]:
    """Fringe probabilities over the grid, computed by circuit simulation.

    Rows are (phi, beta_b, probability), each a Python float; the outer loop
    runs over beta_B, the inner over phi, and rows are emitted in that
    deterministic order.  The whole grid is one call of the batched circuit
    simulation.
    """
    probs = _readout_probability(spec.cfg.weights()[0], spec._weights_b, spec.phi_points)
    phis = spec.phi_points.tolist()
    return [
        (phi, beta_b, prob)
        for beta_b, row in zip(spec.beta_b_values, probs.tolist())
        for phi, prob in zip(phis, row)
    ]
