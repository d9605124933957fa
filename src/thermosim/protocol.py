"""Bell-basis post-selection on a pair of purified thermal qubits.

Two thermal qubits A and B are purified onto ancillas A' and B'.  A Bell
measurement on (A', B') projects the AB pair onto one of four branches:

    phi+/- : ( sqrt(p0 f0)|00> +/- e^(i*phi) sqrt(p1 f1)|11> ) / N
    psi+/- : ( sqrt(p0 f1)|01> +/- e^(i*phi) sqrt(p1 f0)|10> ) / N'

with N^2 = p0 f0 + p1 f1 and N'^2 = p0 f1 + p1 f0, occurring with
probabilities N^2/2 and N'^2/2.  Post-selected states are unit norm; the
branch norm that the raw decomposition leaves behind is accounted for in
the outcome probability.

The joint four-qubit register is ordered (A', A, B', B).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import isfinite

import numpy as np

from . import qcore
from .qcore import ConfigurationError, StateVector
from .thermal import ThermalSpec, gibbs_weights, purify


class BellOutcome(enum.Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"


# draws per chunk of the sampler: its memory stays bounded for any sample count,
# and a chunk's uniforms and bin indices (1 MiB) stay in cache
SAMPLE_CHUNK = 1 << 16

# fixed ordering used by the inverse-CDF sampler, for cross-run determinism
OUTCOME_ORDER = (
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
)

_BELL_VECTORS = {
    BellOutcome.PHI_PLUS: qcore.PHI_PLUS,
    BellOutcome.PHI_MINUS: qcore.PHI_MINUS,
    BellOutcome.PSI_PLUS: qcore.PSI_PLUS,
    BellOutcome.PSI_MINUS: qcore.PSI_MINUS,
}


def bell_state(outcome: BellOutcome) -> StateVector:
    return _BELL_VECTORS[outcome]


def _underflow_error(name: str) -> ConfigurationError:
    """The rejection of a qubit spec whose smallest Gibbs weight is 0.0."""
    return ConfigurationError(
        f"{name} has a Gibbs weight that underflows to zero; reduce beta or the energy gap"
    )


@dataclass(frozen=True)
class ProtocolConfig:
    """Two qubit thermal specs plus the purification phase of the A side."""

    spec_a: ThermalSpec
    spec_b: ThermalSpec
    phi: float = 0.0

    def __post_init__(self) -> None:
        for name, spec in (("spec_a", self.spec_a), ("spec_b", self.spec_b)):
            if spec.hamiltonian.dim != 2:
                raise ConfigurationError(f"{name} must describe a qubit")
            if min(gibbs_weights(spec).weights) <= 0.0:
                raise _underflow_error(name)
        phi = float(self.phi)
        if not isfinite(phi):
            raise ConfigurationError("phi must be finite")
        object.__setattr__(self, "phi", phi)

    def weights(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Gibbs weights (p, f) of the A and B qubits."""
        return gibbs_weights(self.spec_a).weights, gibbs_weights(self.spec_b).weights


@dataclass(frozen=True, eq=False)
class PostSelectionResult:
    outcome: BellOutcome
    probability: float
    state: StateVector  # unit-norm two-qubit state on (A, B)


def joint_state(cfg: ProtocolConfig) -> StateVector:
    """Four-qubit state purify(A) x purify(B) on the register (A', A, B', B)."""
    return qcore.tensor_product(purify(cfg.spec_a, cfg.phi), purify(cfg.spec_b))


def post_select(cfg: ProtocolConfig, outcome: BellOutcome) -> PostSelectionResult:
    """Analytic outcome probability and normalized post-selected AB state."""
    (p0, p1), (f0, f1) = cfg.weights()
    phase = np.exp(1j * cfg.phi)
    sign = 1.0 if outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS) else -1.0
    # square roots are taken per weight so extreme weight products survive
    if outcome in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS):
        slots, branch_norm_sq = (0, 3), p0 * f0 + p1 * f1
        first, second = np.sqrt(p0) * np.sqrt(f0), np.sqrt(p1) * np.sqrt(f1)
    else:
        slots, branch_norm_sq = (1, 2), p0 * f1 + p1 * f0
        first, second = np.sqrt(p0) * np.sqrt(f1), np.sqrt(p1) * np.sqrt(f0)
    norm = np.hypot(first, second)
    amps = np.zeros(4, dtype=np.complex128)
    amps[slots[0]] = first / norm
    amps[slots[1]] = sign * phase * second / norm
    return PostSelectionResult(outcome, 0.5 * branch_norm_sq, StateVector((2, 2), amps))


def post_select_oracle(cfg: ProtocolConfig, outcome: BellOutcome) -> PostSelectionResult:
    """Brute-force route: project the joint state onto the Bell outcome.

    Builds the full four-qubit state, applies |bell><bell| on (A', B'), takes
    the squared norm of the projected vector as the outcome probability, and
    drops the post-measurement (A', B') product factor to leave the AB state.
    Must agree with :func:`post_select`.
    """
    joint = joint_state(cfg)
    bell = bell_state(outcome)
    projector = qcore.Operator((2, 2), np.outer(bell.amps, bell.amps.conj()))
    projected = qcore.apply(projector, joint, targets=(0, 2))
    probability = projected.norm() ** 2
    # contracting <bell| over (A', B') removes the measured product factor
    tensor = joint.amps.reshape(2, 2, 2, 2)
    chi = np.einsum("ij,iajb->ab", bell.amps.reshape(2, 2).conj(), tensor).reshape(-1)
    chi = chi / np.linalg.norm(chi)
    return PostSelectionResult(outcome, float(probability), StateVector((2, 2), chi))


def success_probability(cfg: ProtocolConfig, branch: str) -> float:
    """Total probability of landing in the phi or psi pair of outcomes.

    ``branch`` is "phi" (outcomes phi+/-, success probability p0 f0 + p1 f1)
    or "psi" (outcomes psi+/-, probability p0 f1 + p1 f0).
    """
    (p0, p1), (f0, f1) = cfg.weights()
    if branch == "phi":
        return p0 * f0 + p1 * f1
    if branch == "psi":
        return p0 * f1 + p1 * f0
    raise ConfigurationError(f"branch must be 'phi' or 'psi', got {branch!r}")


def sample_outcomes(cfg: ProtocolConfig, n: int, seed: int) -> dict[BellOutcome, int]:
    """Draw ``n`` Bell outcomes from the analytic distribution.

    Uses inverse-CDF sampling over the fixed outcome ordering with a seeded
    generator, so identical (cfg, n, seed) always produce identical counts.
    The uniforms are drawn ``SAMPLE_CHUNK`` at a time; consecutive draws of
    one generator continue a single stream, so the counts equal those of one
    draw of all ``n`` uniforms.
    """
    if n < 1:
        raise ConfigurationError("sample count must be at least 1")
    probs = np.array([post_select(cfg, o).probability for o in OUTCOME_ORDER])
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0  # guard the final bin against rounding in the cumsum
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(OUTCOME_ORDER), dtype=np.int64)
    for start in range(0, n, SAMPLE_CHUNK):
        draws = np.searchsorted(cdf, rng.random(min(SAMPLE_CHUNK, n - start)), side="right")
        counts += np.bincount(draws, minlength=len(OUTCOME_ORDER))
    return {o: int(c) for o, c in zip(OUTCOME_ORDER, counts)}
