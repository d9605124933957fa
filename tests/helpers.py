"""Shared generators and frozen oracle values for the test suite.

The REF_* constants below were computed by an independent brute-force
script (explicit kron of the purifications, explicit Bell projectors, and
explicit circuit unitaries) and are frozen here as expected values.
"""

import math

import numpy as np
from hypothesis import strategies as st

from thermosim import (
    BellOutcome, EigenReport, FactoredBipartiteState, Operator, ProtocolConfig, QuditHamiltonian, ThermalSpec, qcore,
)
from thermosim.qcore import EQ_TOL

PSD_TOL = 1e-10  # most negative admissible density-matrix eigenvalue

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


# beta times the level gap, log-uniform up to 700, below the ~745 underflow edge
_BETA_GAP = st.floats(math.log(1e-3), math.log(700.0)).map(math.exp)
# a hypothesis draw of one qubit, (offset, gap, descending, beta * gap), whose spec qubit_spec builds
QUBIT = st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 6.0), st.booleans(), _BETA_GAP)


def qubit_spec(draw) -> ThermalSpec:
    offset, gap, descending, beta_gap = draw
    levels = (offset + gap, offset) if descending else (offset, offset + gap)
    return ThermalSpec(beta_gap / gap, QuditHamiltonian(levels))


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
    """The Hermitian, positivity and unit-trace properties every density matrix holds, checked in full."""
    mat = rho.entries
    assert np.max(np.abs(mat - mat.conj().T)) <= EQ_TOL
    assert np.linalg.eigvalsh(mat).min() >= -PSD_TOL
    assert abs(np.trace(mat).real - 1.0) <= EQ_TOL


def assert_support_invariant(state):
    """What ``StateVector._store`` takes on trust from a support's producer, checked on its output."""
    values, at = state._values, state._at
    assert at.dtype.kind == "i" and at.ndim == 1 and at.shape == values.shape
    assert at[0] >= 0 and at[-1] < math.prod(state.dims) and (at[1:] > at[:-1]).all()


def adjoint(op):
    """The conjugate transpose of ``op``, through the public constructor."""
    return Operator(op.dims, op.entries.conj().T)


def eigen_report(state, fd_step, expected):
    """The report of a built state as its ``_evaluated`` reads it, non-finite values included.

    The report functions read their builder's state; wherever they accept,
    they must agree with this bit for bit.
    """
    return EigenReport(*state._evaluated(fd_step), expected)


# per-term oracle for tempop: each term of a dict of term arrays evaluated alone

def family_amplitude(terms, side, t):
    """value * e^(coeff*E) of term ``t``'s family on ``side`` (0 left, 1 right), as a 1-element array.

    Each product is taken between 1-element arrays, so it rounds as numpy's array multiply of
    whole rows does; Python's and numpy's scalar product of two complex numbers may differ from
    it in the last bit.
    """
    value, coeff, energy = (terms[key][side][t] for key in ("values", "coeffs", "energies"))
    return np.array([value], dtype=complex) * np.exp(np.array([coeff * energy]))


def term_amplitude(terms, t):
    """L(x) * R(y) of term ``t`` of ``terms``."""
    return complex((family_amplitude(terms, 0, t) * family_amplitude(terms, 1, t))[0])


# formula terms: the terms each tempop builder stands for, written from the formulas of its docstring as the
# four (2, n) term arrays a state holds, nested lists with row 0 the left side and row 1 the right; term t
# carries derivative slot t on both sides

_TERM_KEYS = ("kets", "energies", "coeffs", "values")


def term_arrays(terms):
    """The term arrays of ``terms`` by name, each term a (left, right) pair per key, in key order."""
    return {key: [list(side) for side in zip(*pairs)] for key, pairs in zip(_TERM_KEYS, zip(*terms))}


def built_state(terms):
    """The state of the term arrays ``terms``, reached through ``qcore._built`` as the builders reach it.

    The (left, right) kets are raveled to their flat indices and the terms sorted by them, so the support is
    strictly increasing, as the builders emit it and the views take it on trust; the dims are one past each
    side's largest ket.
    """
    kets = np.asarray(terms["kets"], dtype=np.int64)
    dims = tuple(int(top) + 1 for top in kets.max(axis=1))
    at = np.ravel_multi_index(tuple(kets), dims)
    order = np.argsort(at, kind="stable")
    return qcore._built(FactoredBipartiteState, dims, at[order], *(
        np.asarray(terms[key], dtype=dtype)[:, order] for key, dtype in
        (("energies", float), ("values", complex), ("coeffs", float))
    ))  # the order of FactoredBipartiteState._store's fields


def purified_terms(spec):
    """Term n of the purified Gibbs state: e^(-beta*E_n/4) x e^(-beta*E_n/4) |n>|n> under slot n."""
    coeff = -spec.beta / 4.0
    return term_arrays(((n, n), (e, e), (coeff, coeff), (1.0, 1.0)) for n, e in enumerate(spec.hamiltonian.energies))


def superposition_terms(cfg, outcome, convention):
    """Term n of a post-selected phi+ or psi+ state: e^(-beta_A*E_n/2) x e^(-beta_B*E'_k/2) |n>|k> under slot n.

    k is n for phi+ and 1 - n for psi+; term 1's A family carries the value e^(i*phi).  Under
    "chosen_zero_levels" the pinned levels E1 and E0' are constants (coeff 0).
    """
    pin = convention == "chosen_zero_levels"
    a, b = -cfg.spec_a.beta / 2.0, -cfg.spec_b.beta / 2.0
    ea, eb = cfg.spec_a.hamiltonian.energies, cfg.spec_b.hamiltonian.energies
    phases = (1.0, np.exp(1j * cfg.phi))
    terms = []
    for n in (0, 1):
        k = n if outcome is BellOutcome.PHI_PLUS else 1 - n
        coeffs = (0.0 if pin and n == 1 else a, 0.0 if pin and k == 0 else b)
        terms.append(((n, k), (ea[n], eb[k]), coeffs, (phases[n], 1.0)))
    return term_arrays(terms)

