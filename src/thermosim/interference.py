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

from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from . import qcore
from .protocol import BellOutcome, ProtocolConfig, _branch, _positive_qubit_weights, post_select, success_probability
from .qcore import ConfigurationError

# CNOT with A as control: flat index 2a + b of the (A, B) pair goes to 2a + (a XOR b)
_CNOT_ORDER = [0, 1, 3, 2]


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Grid of phase values, optionally crossed with a beta_B axis.

    ``phi_points`` is stored as a read-only float64 copy of the caller's
    points.  Specs compare by identity.
    """

    cfg: ProtocolConfig
    phi_points: np.ndarray
    beta_b_values: tuple[float, ...] | None = None
    _weights_b: tuple = field(init=False, repr=False)  # B weights on the beta_B axis

    def __post_init__(self) -> None:
        phis = np.array(self.phi_points, dtype=float)
        if phis.ndim != 1 or not phis.size:
            raise ConfigurationError("phi_points must be a nonempty 1-D sequence of numbers")
        if not np.isfinite(phis).all():
            raise ConfigurationError("phi_points must be finite")
        phis.flags.writeable = False
        object.__setattr__(self, "phi_points", phis)
        weights_b = self.cfg.weights()[1]
        if self.beta_b_values is not None:
            betas = tuple(float(b) for b in self.beta_b_values)
            if not all(isfinite(b) and b > 0.0 for b in betas):
                raise ConfigurationError("beta_b sweep values must be positive and finite")
            weights_b = _positive_qubit_weights("spec_b", np.array(betas)[:, None], self.cfg.spec_b.hamiltonian.energies)
            object.__setattr__(self, "beta_b_values", betas)
        object.__setattr__(self, "_weights_b", weights_b)


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
    return np.sqrt(p0 * f0) * np.sqrt(p1 * f1) / success_probability(cfg, "phi")


def closed_form_probability(cfg: ProtocolConfig, convention: str = "corrected") -> float:
    """Closed-form fringe probability; valid only when E0' = 0 and E1 = 0.

    In that regime sqrt(p0 f0 p1 f1) equals e^(-(beta_A*E0 + beta_B*E1')/2)
    divided by Z_A Z_B, so the formula is evaluated from the Gibbs weights
    directly.  The "corrected" convention carries the factor 2 produced by
    the circuit; "paper" omits it.
    """
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
    return 0.5 * (1.0 + factors[convention] * _cross_coefficient(cfg) * np.cos(phi))


def _readout_probability(p, f, phi) -> np.ndarray:
    """P(A = 0) after the read-out circuit, for every point of a broadcast grid.

    The same simulation as :func:`circuit_probability`, batched: the A and B
    weight pairs ``p`` = (p0, p1) and ``f`` = (f0, f1) and the phases ``phi``
    broadcast together.  The phi+ post-selected amplitudes come from the
    protocol's branch kernel and are written straight into the slots the
    CNOT permutes them to.  The partial trace over B then contracts
    psi[a, b] conj(psi[c, b]) over b at every grid point, and row 0 of the
    Hadamard reads A out, also as one contraction.  Inputs are assumed
    valid: every weight positive, phi finite.
    """
    _, first, second = _branch(p, f, np.exp(1j * np.asarray(phi, dtype=float)))
    shape = np.shape(second)  # the phase broadcasts it over the whole grid
    # grid axes fastest in memory, so that both contractions run along the grid
    amps = np.zeros(shape + (4,), dtype=np.complex128, order="F")
    # the CNOT moves amplitude k to _CNOT_ORDER.index(k): |00> and |11> are written straight there
    amps[..., _CNOT_ORDER.index(0)] = first
    amps[..., _CNOT_ORDER.index(3)] = second
    psi = amps.reshape(shape + (2, 2))  # psi[..., a, b], a view of amps
    rho_a = np.einsum("...ab,...cb->...ac", psi, psi.conj())
    h0 = qcore.HADAMARD.entries[0]
    # roundoff guard: two ufuncs, the second in place, cost less than np.clip and allocate as little
    prob = np.maximum(np.einsum("a,...ac,c->...", h0, rho_a, h0.conj()).real, 0.0)
    return np.minimum(prob, 1.0, out=prob)


def sweep(spec: SweepSpec) -> list[tuple]:
    """Fringe probabilities over the grid, computed by circuit simulation.

    Rows are (phi, probability), or (phi, beta_b, probability) when a beta_B
    axis is present, each a Python float; the outer loop runs over beta_B,
    the inner over phi, and rows are emitted in that deterministic order.
    The whole grid is one call of the batched circuit simulation.
    """
    probs = _readout_probability(spec.cfg.weights()[0], spec._weights_b, spec.phi_points)
    phis = spec.phi_points.tolist()
    if spec.beta_b_values is None:
        return list(zip(phis, probs.tolist()))
    return [
        (phi, beta_b, prob)
        for beta_b, row in zip(spec.beta_b_values, probs.tolist())
        for phi, prob in zip(phis, row)
    ]
