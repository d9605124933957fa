"""Shared generators and frozen oracle values for the test suite.

The REF_* constants below were computed by an independent brute-force
script (explicit kron of the purifications, explicit Bell projectors, and
explicit circuit unitaries) and are frozen here as expected values.
"""

import math

import numpy as np

from thermosim import EigenReport, Operator, ProtocolConfig, QuditHamiltonian, ThermalSpec
from thermosim.qcore import EQ_TOL, PSD_TOL

# reference parameter set: beta_A = beta_B = 1, E = (5, 0), E' = (0, 1)
REF_WEIGHTS_A = (0.006692850924284856, 0.9933071490757153)
REF_WEIGHTS_B = (0.7310585786300049, 0.2689414213699951)
REF_PARTITION_A = 1.0067379469990854
REF_PARTITION_B = 1.3678794411714423
REF_PROB_PHI = 0.13601715130654535      # each of phi+ and phi-
REF_PROB_PSI = 0.3639828486934547       # each of psi+ and psi-
REF_BRANCH_NORM_SQ_PHI = 0.2720343026130907
REF_BRANCH_NORM_SQ_PSI = 0.7279656973869094
REF_CIRCUIT_P0 = 0.6329011144170397     # read-out probability at phi = 0
REF_PAPER_CONVENTION_P0 = 0.5664505572085199       # halved cross term, phi = 0


def reference_config(phi: float = 0.0) -> ProtocolConfig:
    return ProtocolConfig(
        ThermalSpec(1.0, QuditHamiltonian((5.0, 0.0))),
        ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0))),
        phi,
    )


def symmetric_config(phi: float = 0.0) -> ProtocolConfig:
    """Infinite-temperature configuration: every outcome has probability 1/4."""
    ham = QuditHamiltonian((0.0, 1.0))
    return ProtocolConfig(ThermalSpec(0.0, ham), ThermalSpec(0.0, ham), phi)


def random_thermal_spec(rng, beta_max=50.0, dims=(2, 5), energy_range=(-10.0, 10.0)):
    d = int(rng.integers(dims[0], dims[1] + 1))
    beta = float(rng.uniform(0.0, beta_max))
    energies = tuple(float(e) for e in rng.uniform(*energy_range, d))
    return ThermalSpec(beta, QuditHamiltonian(energies))


def random_protocol_config(rng, beta_max=50.0, energy_range=(-5.0, 5.0)):
    # beta * energy spread stays below ~500 so all Gibbs weights stay positive
    def qubit_spec():
        beta = float(rng.uniform(0.0, beta_max))
        energies = tuple(float(e) for e in rng.uniform(*energy_range, 2))
        return ThermalSpec(beta, QuditHamiltonian(energies))

    return ProtocolConfig(qubit_spec(), qubit_spec(), float(rng.uniform(0.0, 2 * np.pi)))


def random_in_regime_config(rng, beta_max=5.0):
    """Random configuration with the pinned levels E1 = 0 and E0' = 0."""
    spec_a = ThermalSpec(
        float(rng.uniform(0.0, beta_max)),
        QuditHamiltonian((float(rng.uniform(-3.0, 6.0)), 0.0)),
    )
    spec_b = ThermalSpec(
        float(rng.uniform(0.0, beta_max)),
        QuditHamiltonian((0.0, float(rng.uniform(-3.0, 6.0)))),
    )
    return ProtocolConfig(spec_a, spec_b, float(rng.uniform(0.0, 2 * np.pi)))


def local_gibbs(beta, energies):
    """Test-local Gibbs weights, independent of the package implementation."""
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def reference_log_partition(beta, energies):
    """log sum_n e^(-beta*E_n) in the standard library alone: a log-sum-exp over math.exp and math.fsum."""
    low = min(energies)
    return math.log(math.fsum(math.exp(-beta * (e - low)) for e in energies)) - beta * low


def random_state_amps(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def assert_valid_density(rho):
    """The Hermitian, positivity and unit-trace checks of the public DensityMatrix."""
    mat = rho.entries
    assert np.max(np.abs(mat - mat.conj().T)) <= EQ_TOL
    assert np.linalg.eigvalsh(mat).min() >= -PSD_TOL
    assert abs(np.trace(mat).real - 1.0) <= EQ_TOL


def adjoint(op):
    """The conjugate transpose of ``op``, through the public constructor."""
    return Operator(op.dims, op.entries.conj().T)


def eigen_report(state, fd_step, expected):
    """The report of a built state as its ``_evaluated`` reads it, non-finite values included.

    The report functions read their builder's state; wherever they accept,
    they must agree with this bit for bit.
    """
    return EigenReport(*state._evaluated(fd_step)[1:], expected)


# per-term oracle for tempop: each family and term evaluated one scalar at a time

def family_amplitude(family, energy):
    """value * e^(coeff*E + offset) of one ``ExpLinear`` family."""
    return complex(family.value * np.exp(family.coeff * energy + family.offset))


def family_derivative(family, energy):
    """d/dE of ``family_amplitude``: coeff times the amplitude."""
    return family.coeff * family_amplitude(family, energy)


def term_amplitude(term):
    """w * L(x) * R(y) of one ``FactoredTerm``."""
    return term.weight * family_amplitude(term.left, term.left_energy) * family_amplitude(term.right, term.right_energy)
