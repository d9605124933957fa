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
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from . import qcore
from .qcore import ConfigurationError, StateVector, _built, _number
from .thermal import ThermalSpec, _qubit_weights, purify


class BellOutcome(enum.Enum):
    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"


# the largest sample count: the multinomial draw counts in 64-bit integers
MAX_SAMPLES = 2**63 - 1

# fixed ordering of the outcomes in reports and in the sampler's draw, for cross-run determinism
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


# the flat indices of a branch's two kets, shared read-only by every post-selected state and by
# tempop's superposition states and their views: phi on |00> and |11>, psi on |01> and |10>
_KETS = np.array([[0, 3], [1, 2]])
_KETS.setflags(write=False)


def _check_outcome(outcome) -> None:
    # the string "phi_plus" would otherwise pass post_select as psi- and fail the look-ups raw
    if not isinstance(outcome, BellOutcome):
        raise ConfigurationError(f"outcome must be a BellOutcome, got {outcome!r}")


def bell_state(outcome: BellOutcome) -> StateVector:
    _check_outcome(outcome)
    return _BELL_VECTORS[outcome]


@dataclass(frozen=True)
class ProtocolConfig:
    """Two qubit thermal specs plus the purification phase of the A side."""

    spec_a: ThermalSpec
    spec_b: ThermalSpec
    phi: float = 0.0
    _weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = _qubit_weights("spec_a", self.spec_a), _qubit_weights("spec_b", self.spec_b)
        phi = _number("phi", self.phi)
        if not isfinite(phi):
            raise ConfigurationError("phi must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "_weights", weights)

    def weights(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Gibbs weights (p, f) of the A and B qubits."""
        return self._weights


def _branch(p, f, phase):
    """Unit-norm amplitudes of the phi branch, over broadcast arrays.

    ``p`` = (p0, p1) and ``f`` = (f0, f1) are the A and B weights and
    ``phase`` is e^(i*phi).  Returns the amplitudes of |00> and of |11> in
    phi+ (phi- negates the second).  The psi branch is the phi branch of the
    reversed B weights, on |01> and |10>.  The branch probability is
    :func:`success_probability`'s.
    """
    (p0, p1), (f0, f1) = p, f
    # square roots are taken per weight so extreme weight products survive
    first, second = np.sqrt(p0) * np.sqrt(f0), np.sqrt(p1) * np.sqrt(f1)
    norm = np.hypot(first, second)
    return first / norm, phase * second / norm


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
    _check_outcome(outcome)
    phi_pair = outcome in (BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS)
    p, (f0, f1) = cfg.weights()
    first, second = _branch(p, (f0, f1) if phi_pair else (f1, f0), np.exp(1j * cfg.phi))
    sign = 1.0 if outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS) else -1.0
    values = np.array([first, sign * second], dtype=np.complex128)
    probability = 0.5 * success_probability(cfg, "phi" if phi_pair else "psi")
    return PostSelectionResult(outcome, probability, _built(StateVector, (2, 2), values, _KETS[0 if phi_pair else 1]))


def post_select_oracle(cfg: ProtocolConfig, outcome: BellOutcome) -> PostSelectionResult:
    """Brute-force route: contract <bell| over (A', B') of the joint state.

    Builds the full four-qubit state from the purifications and contracts
    the conjugate Bell vector over (A', B'), which removes the measured
    product factor and leaves the unnormalized AB vector.  Its squared norm
    is the outcome probability and the vector over its norm the state.  It
    shares none of :func:`post_select`'s arithmetic: no qubit weights, no
    branch kernel, no branch probability.  Must agree with it.
    """
    bell = bell_state(outcome).amps.reshape(2, 2).conj()
    chi = np.einsum("ij,iajb->ab", bell, joint_state(cfg).amps.reshape(2, 2, 2, 2)).reshape(-1)
    norm = np.linalg.norm(chi)
    return PostSelectionResult(outcome, float(norm**2), _built(StateVector, (2, 2), chi / norm))


def success_probability(cfg: ProtocolConfig, branch: str) -> float:
    """Total probability of landing in the phi or psi pair of outcomes.

    ``branch`` is "phi" (outcomes phi+/-, success probability p0 f0 + p1 f1)
    or "psi" (outcomes psi+/-, probability p0 f1 + p1 f0).  This is the one
    branch-probability formula, on the Python floats of ``cfg.weights()``.
    """
    (p0, p1), (f0, f1) = cfg.weights()
    if branch == "phi":
        return p0 * f0 + p1 * f1
    if branch == "psi":
        return p0 * f1 + p1 * f0
    raise ConfigurationError(f"branch must be 'phi' or 'psi', got {branch!r}")


def sample_outcomes(cfg: ProtocolConfig, n: int, seed: int) -> dict[BellOutcome, int]:
    """Draw ``n`` Bell outcomes from the analytic distribution.

    One multinomial draw over the fixed outcome ordering with a seeded
    generator, so identical (cfg, n, seed) always produce identical counts;
    its cost does not grow with ``n``, which may be up to ``MAX_SAMPLES``.
    """
    n, seed = _number("sample count", n, "integer"), _number("seed", seed, "integer")  # numpy would take 10.5 as 10
    if not 1 <= n <= MAX_SAMPLES:
        raise ConfigurationError(f"sample count must be between 1 and {MAX_SAMPLES}")
    if seed < 0:
        raise ConfigurationError("seed must be nonnegative")
    phi, psi = (0.5 * success_probability(cfg, branch) for branch in ("phi", "psi"))
    counts = np.random.default_rng(seed).multinomial(n, [phi, phi, psi, psi])
    return dict(zip(OUTCOME_ORDER, counts.tolist()))
