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

# fixed ordering of the outcomes in reports and in the sampler's draw, for cross-run determinism: the enum's own
OUTCOME_ORDER = tuple(BellOutcome)

# the flat indices of a branch's two kets, shared read-only by every post-selected state and by
# tempop's superposition states and their views: phi on |00> and |11>, psi on |01> and |10>
_KETS = np.array([[0, 3], [1, 2]])
_KETS.setflags(write=False)

# the one outcome decision: each outcome's row of _KETS (0 phi, 1 psi, whose B weights and levels
# are reversed), the sign of its second term and its Bell vector
_OUTCOMES = {
    BellOutcome.PHI_PLUS: (0, 1.0, qcore.PHI_PLUS),
    BellOutcome.PHI_MINUS: (0, -1.0, qcore.PHI_MINUS),
    BellOutcome.PSI_PLUS: (1, 1.0, qcore.PSI_PLUS),
    BellOutcome.PSI_MINUS: (1, -1.0, qcore.PSI_MINUS),
}


def _outcome_row(outcome) -> tuple[int, float, StateVector]:
    """``outcome``'s (pair, sign, Bell vector) in ``_OUTCOMES``; any other value is refused."""
    if not isinstance(outcome, BellOutcome):  # the string "phi_plus" would otherwise fail the look-up raw
        raise ConfigurationError(f"outcome must be a BellOutcome, got {outcome!r}")
    return _OUTCOMES[outcome]


def _check_cfg(cfg) -> None:
    if not isinstance(cfg, ProtocolConfig):  # a str would otherwise fail on its first attribute raw
        raise ConfigurationError(f"cfg must be a ProtocolConfig, got {type(cfg).__name__}")


def bell_state(outcome: BellOutcome) -> StateVector:
    return _outcome_row(outcome)[2]


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
    _check_cfg(cfg)
    return qcore.tensor_product(purify(cfg.spec_a, cfg.phi), purify(cfg.spec_b))


def post_select(cfg: ProtocolConfig, outcome: BellOutcome) -> PostSelectionResult:
    """Analytic outcome probability and normalized post-selected AB state."""
    pair, sign, _ = _outcome_row(outcome)
    probability = 0.5 * success_probability(cfg, ("phi", "psi")[pair])  # refuses a cfg that is not a ProtocolConfig
    p, f = cfg.weights()
    first, second = _branch(p, (f[pair], f[1 - pair]), np.exp(1j * cfg.phi))
    values = np.array([first, sign * second], dtype=np.complex128)
    return PostSelectionResult(outcome, probability, _built(StateVector, (2, 2), values, _KETS[pair]))


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
    _check_cfg(cfg)
    (p0, p1), (f0, f1) = cfg.weights()
    if branch == "phi":
        return p0 * f0 + p1 * f1
    if branch == "psi":
        return p0 * f1 + p1 * f0
    raise ConfigurationError(f"branch must be 'phi' or 'psi', got {branch!r}")


def sample_outcomes(cfg: ProtocolConfig, n: int, seed: int) -> dict[BellOutcome, int]:
    """Draw ``n`` Bell outcomes from the analytic distribution.

    One multinomial draw over the fixed outcome ordering, each outcome's
    probability its branch's in the outcome table, with a seeded
    generator, so identical (cfg, n, seed) always produce identical counts;
    its cost does not grow with ``n``, which may be up to ``MAX_SAMPLES``.
    """
    n, seed = _number("sample count", n, "integer"), _number("seed", seed, "integer")  # numpy would take 10.5 as 10
    if not 1 <= n <= MAX_SAMPLES:
        raise ConfigurationError(f"sample count must be between 1 and {MAX_SAMPLES}")
    if seed < 0:
        raise ConfigurationError("seed must be nonnegative")
    branch = [0.5 * success_probability(cfg, name) for name in ("phi", "psi")]
    counts = np.random.default_rng(seed).multinomial(n, [branch[_OUTCOMES[o][0]] for o in OUTCOME_ORDER])
    return dict(zip(OUTCOME_ORDER, counts.tolist()))
