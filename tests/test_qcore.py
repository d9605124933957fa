import ast
import re
from itertools import combinations
from math import prod
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosim import (
    BellOutcome,
    CNOT,
    HADAMARD,
    SIGMA_Z,
    ConfigurationError,
    Constant,
    DensityMatrix,
    ExpLinear,
    FactoredBipartiteState,
    FactoredTerm,
    GibbsWeights,
    Operator,
    PHI_PLUS,
    PSI_PLUS,
    ProtocolConfig,
    StateVector,
    SweepSpec,
    apply,
    apply_inverse_temp_squared,
    basis_state,
    eigencheck_purified,
    fidelity_pure,
    QuditHamiltonian,
    ThermalSpec,
    circuit_probability,
    partial_trace,
    post_select,
    post_select_oracle,
    product_state,
    purified_thermal_state,
    purify,
    sample_outcomes,
    tensor_product,
    thermal_density,
)
from thermosim import qcore
from thermosim.qcore import EQ_TOL

from helpers import adjoint, assert_valid_density, random_state_amps, random_unitary, reference_config


# --- types and validation ------------------------------------------------

def test_state_vector_rejects_size_mismatch():
    with pytest.raises(ConfigurationError):
        StateVector((2, 2), [1.0, 0.0])


def test_state_vector_rejects_nonfinite():
    with pytest.raises(ConfigurationError):
        StateVector((2,), [np.inf, 0.0])


def test_state_vector_rejects_trivial_dims():
    with pytest.raises(ConfigurationError):
        StateVector((1, 4), [1, 0, 0, 0])


def _library_built_values():
    """One value from every library route that builds its array itself."""
    spec = ThermalSpec(0.8, QuditHamiltonian((0.0, 1.0, 2.5)))
    cfg = reference_config(0.3)
    state = tensor_product(basis_state((2,), 1), purify(ThermalSpec(1.0, QuditHamiltonian((5.0, 0.0)))))
    return {
        "purify": purify(spec),
        "thermal_density": thermal_density(spec),
        "partial_trace": partial_trace(purify(spec), keep={1}),
        "basis_state": basis_state((2, 3), 4),
        "tensor_product": state,
        "apply": apply(CNOT, state, targets=(0, 2)),
        "post_select": post_select(cfg, BellOutcome.PSI_MINUS).state,
        "post_select_oracle": post_select_oracle(cfg, BellOutcome.PHI_PLUS).state,
        "amplitude_vector": purified_thermal_state(spec).amplitude_vector(),
        "circuit_probability": circuit_probability(cfg),
    }


def test_library_routes_skip_the_public_constructors(monkeypatch):
    # the public constructors copy their input; the library takes over the
    # arrays it built through qcore._built instead
    def refuse(self):
        raise AssertionError(f"public {type(self).__name__} constructor called")

    for cls in (StateVector, DensityMatrix, Operator):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    values = _library_built_values()
    assert values["purify"].dims == (3, 3) and values["partial_trace"].dims == (3,)
    with pytest.raises(AssertionError, match="public StateVector"):
        StateVector((2,), [1.0, 0.0])


def test_state_vector_amplitudes_are_immutable():
    state = basis_state((2,), 0)
    with pytest.raises(ValueError):
        state.amps[0] = 0.5
    # public constructors copy: the caller's array stays theirs and writeable
    for cls, dims, array, field in (
        (StateVector, (2, 2), np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128), "amps"),
        (DensityMatrix, (2,), np.diag([0.25, 0.75]).astype(np.complex128), "entries"),
        (Operator, (2,), np.eye(2, dtype=np.complex128), "entries"),
    ):
        value = cls(dims, array)
        before = getattr(value, field).copy()
        array[0] = 7.0
        assert array.flags.writeable
        assert np.array_equal(getattr(value, field), before)
        assert not getattr(value, field).flags.writeable
    for name, value in _library_built_values().items():
        if name != "circuit_probability":
            array = value.entries if isinstance(value, (DensityMatrix, Operator)) else value.amps
            assert not array.flags.writeable, name


def test_density_matrix_validation():
    with pytest.raises(ConfigurationError):
        DensityMatrix((2,), [[0.5, 0.3], [0.1, 0.5]])  # not Hermitian
    with pytest.raises(ConfigurationError):
        DensityMatrix((2,), [[0.9, 0.0], [0.0, 0.9]])  # trace != 1
    with pytest.raises(ConfigurationError):
        DensityMatrix((2,), [[1.5, 0.0], [0.0, -0.5]])  # negative eigenvalue
    with pytest.raises(ConfigurationError):
        DensityMatrix((2,), [[np.nan, 0.0], [0.0, 1.0]])


def test_operator_shape_validation():
    with pytest.raises(ConfigurationError):
        Operator((2, 2), np.eye(2))


@pytest.mark.parametrize("index", [-1, 4, 7])
def test_basis_state_rejects_index_out_of_range(index):
    with pytest.raises(ConfigurationError, match="basis index"):
        basis_state((2, 2), index)


# --- tensor product ------------------------------------------------------

def test_tensor_basis_states():
    out = tensor_product(basis_state((2,), 0), basis_state((2,), 0))
    assert out.dims == (2, 2)
    np.testing.assert_allclose(out.amps, [1, 0, 0, 0])


def test_tensor_is_linear_in_first_factor():
    alpha, beta = 0.6, 0.8j
    left = StateVector((2,), [alpha, beta])
    out = tensor_product(left, basis_state((2,), 1))
    np.testing.assert_allclose(out.amps, [0, alpha, 0, beta])


def test_tensor_of_two_bell_pairs_is_uniform_on_matched_indices():
    # (|00>+|11>)/sqrt(2) on each register: amplitude 1/2 on 0000, 0011, 1100, 1111
    out = tensor_product(PHI_PLUS, PHI_PLUS)
    expected = np.zeros(16)
    expected[[0b0000, 0b0011, 0b1100, 0b1111]] = 0.5
    np.testing.assert_allclose(out.amps, expected, atol=EQ_TOL)


def test_tensor_norm_is_multiplicative():
    rng = np.random.default_rng(101)
    for _ in range(25):
        a = StateVector((2, 3), 2.5 * random_state_amps(rng, 6))
        b = StateVector((2,), 0.3 * random_state_amps(rng, 2))
        assert abs(tensor_product(a, b).norm() - a.norm() * b.norm()) < EQ_TOL


# --- partial trace -------------------------------------------------------

def test_partial_trace_product_state():
    rho = partial_trace(basis_state((2, 2), 0), keep={0})
    np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]], atol=EQ_TOL)


def test_partial_trace_bell_state_is_maximally_mixed():
    rho = partial_trace(PHI_PLUS, keep={0})
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=EQ_TOL)


def test_partial_trace_keeps_original_relative_order():
    rng = np.random.default_rng(7)
    state = StateVector((2, 3, 2), random_state_amps(rng, 12))
    rho = partial_trace(state, keep={2, 0})
    assert rho.dims == (2, 2)
    # cross-check against the density-matrix code path
    full = DensityMatrix((2, 3, 2), np.outer(state.amps, state.amps.conj()))
    np.testing.assert_allclose(rho.entries, partial_trace(full, keep={0, 2}).entries, atol=EQ_TOL)


def test_partial_trace_of_random_pure_state_is_valid_density():
    rng = np.random.default_rng(13)
    for _ in range(20):
        state = StateVector((2, 2, 3), random_state_amps(rng, 12))
        rho = partial_trace(state, keep={1})
        assert abs(np.trace(rho.entries).real - 1.0) < EQ_TOL
        assert np.linalg.eigvalsh(rho.entries).min() > -1e-10


@settings(max_examples=80, deadline=None)
@given(
    dims=st.lists(st.integers(2, 4), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_partial_trace_of_states_passes_the_skipped_checks(dims, seed, data):
    # the Gram matrix skips the Hermitian check and eigvalsh; both must still hold
    keep = data.draw(st.sets(st.integers(0, len(dims) - 1), min_size=1, max_size=len(dims) - 1))
    state = StateVector(tuple(dims), random_state_amps(np.random.default_rng(seed), prod(dims)))
    assert_valid_density(partial_trace(state, keep))


def test_partial_trace_refuses_non_unit_and_overflowing_states():
    with pytest.raises(ConfigurationError, match="unit trace"):
        partial_trace(StateVector((2, 2), [0.8, 0.0, 0.0, 0.8]), keep={0})
    huge = StateVector((2, 2), [1e200, 0.0, 0.0, 1e200j])  # its squared magnitudes overflow
    with pytest.raises(ConfigurationError, match="finite"):
        partial_trace(huge, keep={0})
    shared = StateVector((2, 2), [1e200, 1e200, 0.0, 0.0])  # so does its Gram matrix
    with pytest.raises(ConfigurationError, match="finite"):
        partial_trace(shared, keep={1})


@st.composite
def _sparse_column_states(draw):
    """(dims, keep, psi, collide, purification): psi is the (kept, traced) amplitude matrix.

    Each traced column holds at most one nonzero, except one column holding
    two when ``collide``; ``purification`` means real amplitudes and at most
    one nonzero per row too.  Magnitudes span 1e-150 to 1e150.
    """
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
    keep = sorted(draw(st.sets(st.integers(0, len(dims) - 1), min_size=1, max_size=len(dims) - 1)))
    k = prod(dims[i] for i in keep)
    t = prod(dims) // k
    real, unique, collide = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    if unique:
        rows = draw(st.permutations(range(max(k, t))))[:t]
        rows = [r if r < k else None for r in rows]
    else:
        rows = draw(st.lists(st.one_of(st.none(), st.integers(0, k - 1)), min_size=t, max_size=t))
    cells = [(r, j) for j, r in enumerate(rows) if r is not None]
    if collide:
        j = draw(st.integers(0, t - 1))
        first, second = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        cells = [c for c in cells if c[1] != j] + [(first, j), (second, j)]
    if not cells:
        cells = [(draw(st.integers(0, k - 1)), draw(st.integers(0, t - 1)))]
    psi = np.zeros((k, t), dtype=np.complex128)
    for r, j in cells:
        magnitude = 10.0 ** draw(st.floats(-150.0, 150.0))
        phase = draw(st.sampled_from([1.0, -1.0])) if real else np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        psi[r, j] = magnitude * phase
    return tuple(dims), keep, psi, collide, real and unique and not collide


def _assert_route_matches_gram(got, psi, exact):
    want = psi @ psi.conj().T
    if exact:
        assert got.tobytes() == want.tobytes()
    else:  # each entry within EQ_TOL of the scale |want_ii * want_jj|^(1/2) that bounds it
        scale = np.sqrt(np.abs(np.diagonal(want)))
        assert np.all(np.abs(got - want) <= EQ_TOL * np.outer(scale, scale))


@settings(max_examples=150, deadline=None)
@given(case=_sparse_column_states())
def test_diagonal_partial_trace_matches_the_gram_matrix(case):
    dims, keep, psi, collide, purification = case
    traced = [i for i in range(len(dims)) if i not in keep]

    def flat(matrix):  # the (kept, traced) matrix as contiguous amplitudes in subsystem order
        full = matrix.reshape(tuple(dims[i] for i in keep + traced)).transpose(np.argsort(keep + traced))
        return np.ascontiguousarray(full).reshape(-1)

    with mock.patch.object(qcore, "_gram", wraps=qcore._gram) as gram:
        # the array the route hands to _built, before the unit-trace check
        # that this unnormalized psi would fail; the fallback is the Gram
        # product itself, so it matches bit for bit
        with mock.patch.object(qcore, "_built", lambda cls, dims, array: array):
            got = qcore._reduced_density(StateVector(dims, flat(psi)), keep, traced)
        assert (got.ndim == 2) == collide  # the diagonal route hands over the (k,) diagonal
        _assert_route_matches_gram(got if collide else np.diag(got), psi, purification or collide)
        assert gram.called == collide
        # the same amplitudes, unit norm, traced through the public route
        unit = psi / np.linalg.norm(psi)
        rho = partial_trace(StateVector(dims, flat(unit)), keep)
        _assert_route_matches_gram(rho.entries, unit, purification)
        assert gram.call_count == 2 * collide


def test_public_density_matrix_refuses_a_diagonal():
    # only the library's own diagonals reach _store as d values
    with pytest.raises(ConfigurationError, match="expected a 2x2 matrix for dims"):
        DensityMatrix((2,), [0.5, 0.5])


@pytest.mark.parametrize("diagonal, match", [
    ([np.nan, 1.0], "finite"),
    ([0.45, 0.45], "unit trace"),
])
def test_library_built_diagonal_is_checked(diagonal, match):
    with pytest.raises(ConfigurationError, match=match):
        qcore._built(DensityMatrix, (2,), np.array(diagonal, dtype=np.complex128))


def test_library_built_diagonal_is_a_dense_read_only_matrix():
    rho = qcore._built(DensityMatrix, (3,), np.array([0.25, 0.5, 0.25], dtype=np.complex128))
    assert rho.entries.shape == (3, 3) and rho.entries.dtype == np.complex128
    assert np.array_equal(rho.entries, np.diag([0.25, 0.5, 0.25]))
    assert not rho.entries.flags.writeable


@pytest.mark.parametrize("values, at, match", [
    ([np.nan, 1.0], [0, 3], "finite"),
    ([0.6, 0.8], [0, 4], "support indices"),
    ([0.6, 0.8], [-1, 3], "support indices"),
    ([0.6, 0.8], [2, 2], "support indices"),
    ([0.6, 0.8], [3, 0], "support indices"),
    ([0.6, 0.8], [0, 1, 3], "support of"),
])
def test_library_built_support_is_checked(values, at, match):
    with pytest.raises(ConfigurationError, match=match):
        qcore._built(StateVector, (2, 2), np.array(values, dtype=np.complex128), np.array(at))


@st.composite
def _support_states(draw):
    """Unit-norm amplitudes with exact +0.0 zeros, over dims holding at least two qubits."""
    dims = draw(st.permutations([2, 2] + draw(st.lists(st.sampled_from([2, 3]), max_size=2))))
    d = prod(dims)
    parts = st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)  # no zero but those of the mask
    re, im = (np.array(draw(st.lists(parts, min_size=d, max_size=d))) for _ in range(2))
    real, mask = draw(st.booleans()), np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    amps = np.where(mask, re + (0.0 if real else 1j) * im, 0.0).astype(np.complex128)
    if not np.any(amps):
        amps[draw(st.integers(0, d - 1))] = 1.0
    return tuple(dims), amps / np.linalg.norm(amps)


def _support_form(dims, amps):
    at = np.flatnonzero(amps)
    return qcore._built(StateVector, dims, amps[at], at)


@settings(max_examples=120, deadline=None)
@given(case=_support_states())
def test_support_form_matches_the_dense_form(case):
    dims, amps = case
    n = len(dims)
    qubits = [i for i, d in enumerate(dims) if d == 2]
    other = StateVector((3,), [0.6, 0.0, 0.8j])
    dense, sparse = StateVector(dims, amps), _support_form(dims, amps)
    for r in range(1, n):
        for keep in combinations(range(n), r):
            # a fresh support-form state each time, so the trace runs before any densify
            got = partial_trace(_support_form(dims, amps), keep)
            assert got.entries.tobytes() == partial_trace(dense, keep).entries.tobytes(), keep
    assert sparse.dim == dense.dim and sparse.norm() == dense.norm()
    for a, b in ((sparse, other), (other, sparse)):
        pair = tensor_product(a, b).amps
        assert pair.tobytes() == tensor_product(*(dense if v is sparse else v for v in (a, b))).amps.tobytes()
    targets = qubits[:2][::-1]
    assert apply(CNOT, sparse, targets).amps.tobytes() == apply(CNOT, dense, targets).amps.tobytes()
    assert sparse.amps.tobytes() == dense.amps.tobytes()
    assert not sparse.amps.flags.writeable and sparse.amps is sparse.amps  # built once


def test_purification_trace_reads_only_the_support():
    d = 64
    energies = np.random.default_rng(11).uniform(-5.0, 5.0, d)
    spec = ThermalSpec(0.8, QuditHamiltonian(tuple(float(e) for e in energies)))
    state = purify(spec)
    rho = partial_trace(state, keep={1})
    assert "amps" not in vars(state)  # the d^2 purification was never built
    shifted = np.exp(-0.8 * (energies - energies.min()))
    np.testing.assert_allclose(np.diagonal(rho.entries), shifted / shifted.sum(), rtol=0.0, atol=EQ_TOL)
    assert np.count_nonzero(rho.entries) == np.count_nonzero(np.diagonal(rho.entries)) == d


@settings(max_examples=100, deadline=None)
@given(case=_support_states(), zero=st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]))
def test_signed_zeros_take_the_route_of_plus_zeros(case, zero):
    dims, amps = case
    plain, signed = StateVector(dims, amps), StateVector(dims, np.where(amps == 0, zero, amps))
    for r in range(1, len(dims)):
        for keep in combinations(range(len(dims)), r):
            with mock.patch.object(qcore, "_gram", wraps=qcore._gram) as gram:
                want, got = partial_trace(plain, keep).entries, partial_trace(signed, keep).entries
            assert gram.call_count in (0, 2), keep  # the Gram product for both or for neither
            assert np.array_equal(got, want), keep


def test_subnormal_amplitudes_count_as_nonzero():
    # |00> and a subnormal |10> share the column of the traced qubit 1
    amps = np.array([1.0, 0.0, 1e-310, 0.0])
    with mock.patch.object(qcore, "_gram", wraps=qcore._gram) as gram:
        partial_trace(StateVector((2, 2), amps), keep={0})
        assert gram.call_count == 1
        partial_trace(StateVector((2, 2), np.where(amps == 1e-310, 0.0, amps)), keep={0})
        assert gram.call_count == 1  # with a true zero there, the diagonal route


class _GramCalled(Exception):
    pass


def test_partial_trace_takes_the_gram_product_only_for_shared_columns(monkeypatch):
    def refuse(*args, **kwargs):
        raise _GramCalled

    monkeypatch.setattr(qcore, "_gram", refuse)
    spec = ThermalSpec(0.8, QuditHamiltonian(tuple(np.random.default_rng(5).uniform(-5.0, 5.0, 2048))))
    assert partial_trace(purify(spec), keep={1}).dims == (2048,)
    assert partial_trace(PHI_PLUS, keep={0}).dims == (2,)
    with pytest.raises(_GramCalled):  # after the CNOT a traced column holds two amplitudes
        circuit_probability(reference_config(phi=0.4))


@pytest.mark.parametrize("keep", [set(), {0, 1}, {5}, {-1}])
def test_partial_trace_rejects_bad_subsets(keep):
    with pytest.raises(ConfigurationError):
        partial_trace(PHI_PLUS, keep)


# --- fidelity ------------------------------------------------------------

def test_fidelity_basics():
    zero, one = basis_state((2,), 0), basis_state((2,), 1)
    assert fidelity_pure(zero, zero) == 1.0
    assert fidelity_pure(zero, one) == 0.0


def test_fidelity_ignores_global_phase():
    rng = np.random.default_rng(23)
    state = StateVector((2, 2), random_state_amps(rng, 4))
    for theta in (0.3, 1.7, np.pi):
        rotated = StateVector((2, 2), np.exp(1j * theta) * state.amps)
        assert fidelity_pure(state, rotated) > 1 - EQ_TOL


def test_fidelity_shape_mismatch():
    with pytest.raises(ConfigurationError):
        fidelity_pure(basis_state((2,), 0), basis_state((2, 2), 0))


# --- apply ---------------------------------------------------------------

def test_cnot_flips_target_when_control_set():
    out = apply(CNOT, basis_state((2, 2), 0b10), targets=(0, 1))
    np.testing.assert_allclose(out.amps, basis_state((2, 2), 0b11).amps)


def test_apply_respects_target_order():
    # control on subsystem 1: |01> has the control set, so subsystem 0 flips
    out = apply(CNOT, basis_state((2, 2), 0b01), targets=(1, 0))
    np.testing.assert_allclose(out.amps, basis_state((2, 2), 0b11).amps)


def test_hadamard_makes_plus_state():
    out = apply(HADAMARD, basis_state((2,), 0), targets=(0,))
    np.testing.assert_allclose(out.amps, [1, 1] / np.sqrt(2), atol=EQ_TOL)


def test_sigma_z_on_second_qubit_flips_relative_sign():
    a, b = 0.6, 0.8
    state = StateVector((2, 2), [a, 0, 0, -b])
    out = apply(SIGMA_Z, state, targets=(1,))
    np.testing.assert_allclose(out.amps, [a, 0, 0, b], atol=EQ_TOL)


def test_apply_acts_as_identity_elsewhere():
    rng = np.random.default_rng(31)
    state = StateVector((2, 2, 2), random_state_amps(rng, 8))
    u = random_unitary(rng, 2)
    out = apply(Operator((2,), u), state, targets=(1,))
    expected = np.kron(np.kron(np.eye(2), u), np.eye(2)) @ state.amps
    np.testing.assert_allclose(out.amps, expected, atol=EQ_TOL)


def test_unitaries_preserve_norm_and_invert():
    rng = np.random.default_rng(37)
    for _ in range(20):
        state = StateVector((2, 2, 2), random_state_amps(rng, 8))
        u = Operator((2, 2), random_unitary(rng, 4))
        moved = apply(u, state, targets=(2, 0))
        assert abs(moved.norm() - 1.0) < EQ_TOL
        back = apply(adjoint(u), moved, targets=(2, 0))
        assert fidelity_pure(back, state) > 1 - EQ_TOL


def test_apply_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        apply(CNOT, basis_state((2,), 0), targets=(0,))
    with pytest.raises(ConfigurationError):
        apply(CNOT, basis_state((2, 2), 0), targets=(0, 0))
    with pytest.raises(ConfigurationError):
        apply(CNOT, basis_state((2, 2), 0), targets=(0, 5))


# --- numeric input: one rule, one message shape -------------------------------

_HAM = QuditHamiltonian((5.0, 0.0))
_SPEC = ThermalSpec(1.0, _HAM)
_CFG = reference_config()
_ONE = Constant(1.0)
_TERMS = (FactoredTerm.diagonal(0, _ONE, _ONE, 0.0), FactoredTerm.diagonal(1, _ONE, _ONE, 0.0))


def _term_state(**fields):
    """A two-term state whose first term takes ``fields``."""
    first = dict(left_var=0, right_var=0, left_basis=0, right_basis=0, left=_ONE, right=_ONE,
                 left_energy=0.0, right_energy=0.0)
    return FactoredBipartiteState((FactoredTerm(**{**first, **fields}), _TERMS[1]))


def _product_state(family):
    """A two-level product state whose left family of level 0 is ``family``."""
    return product_state([family, _ONE], [_ONE, _ONE], (0.0, 1.0))


# every public numeric parameter: (its name in messages, kind, a call with the parameter set to x,
# a valid value, whether None means "absent"); a tuple valid value marks a sequence parameter
_BOUNDARIES = {
    "QuditHamiltonian.energies": ("energies", "real", QuditHamiltonian, (0.0, 1.0), False),
    "ThermalSpec.beta": ("beta", "real", lambda x: ThermalSpec(x, _HAM), 1.0, False),
    "GibbsWeights.weights": ("weights", "real", lambda x: GibbsWeights(x, 1.0), (1.0, 0.0), False),
    "GibbsWeights.log_partition": ("log_partition", "real", lambda x: GibbsWeights((1.0, 0.0), x), 0.0, False),
    "purify.phase": ("phase", "real", lambda x: purify(_SPEC, x), 1.0, False),
    "ProtocolConfig.phi": ("phi", "real", lambda x: ProtocolConfig(_SPEC, _SPEC, x), 1.0, False),
    "sample_outcomes.n": ("sample count", "integer", lambda x: sample_outcomes(_CFG, x, 0), 10, False),
    "sample_outcomes.seed": ("seed", "integer", lambda x: sample_outcomes(_CFG, 10, x), 3, False),
    "SweepSpec.phi_points": ("phi_points (a 1-D grid)", "real", lambda x: SweepSpec(_CFG, x), (0.0, 1.0), False),
    "SweepSpec.beta_b_values": ("beta_b sweep values", "real", lambda x: SweepSpec(_CFG, (0.0,), x), (1.0, 2.0), True),
    "FactoredTerm.left_var": ("term derivative slot", "integer", lambda x: _term_state(left_var=x), 0, False),
    "FactoredTerm.right_var": ("term derivative slot", "integer", lambda x: _term_state(right_var=x), 0, False),
    "FactoredTerm.left_basis": ("term basis ket", "integer", lambda x: _term_state(left_basis=x), 0, False),
    "FactoredTerm.right_basis": ("term basis ket", "integer", lambda x: _term_state(right_basis=x), 0, False),
    "FactoredTerm.left_energy": ("term energy", "real", lambda x: _term_state(left_energy=x), 0.0, False),
    "FactoredTerm.right_energy": ("term energy", "real", lambda x: _term_state(right_energy=x), 0.0, False),
    "ExpLinear.coeff": ("term coefficient", "real", lambda x: _term_state(left=ExpLinear(x)), 0.0, False),
    "ExpLinear.offset": ("term offset", "real", lambda x: _term_state(right=ExpLinear(0.0, x)), 0.0, False),
    "ExpLinear.value": ("term value", "complex", lambda x: _term_state(left=ExpLinear(0.0, value=x)), 1.0, False),
    "FactoredTerm.weight": ("term weight", "complex", lambda x: _term_state(weight=x), 1.0, False),
    "product_state.energies": ("energies", "real", lambda x: product_state([_ONE, _ONE], [_ONE, _ONE], x), (0.0, 1.0),
                               False),
    "product_state.coeff": ("family coeff", "real", lambda x: _product_state(ExpLinear(x)), 0.0, False),
    "product_state.offset": ("family offset", "real", lambda x: _product_state(ExpLinear(0.0, x)), 0.0, False),
    "product_state.value": ("family value", "complex", lambda x: _product_state(ExpLinear(0.0, value=x)), 1.0, False),
    "eigencheck_purified.fd_step": (
        "finite-difference step", "real", lambda x: eigencheck_purified(_SPEC, fd_step=x), 1.0, True),
    "apply_inverse_temp_squared.fd_step": (
        "finite-difference step", "real", lambda x: apply_inverse_temp_squared(_term_state(), fd_step=x), 1.0, True),
    "StateVector.amps": ("state amplitudes", "complex", lambda x: StateVector((2,), x), (1.0, 0.0), False),
    "StateVector.dims": ("subsystem dims", "integer", lambda x: StateVector(x, [1.0, 0.0, 0.0, 0.0]), (2, 2), False),
    "DensityMatrix.dims": ("subsystem dims", "integer", lambda x: DensityMatrix(x, np.eye(4) / 4), (2, 2), False),
    "Operator.dims": ("subsystem dims", "integer", lambda x: Operator(x, np.eye(4)), (2, 2), False),
    "basis_state.dims": ("subsystem dims", "integer", lambda x: basis_state(x, 0), (2, 2), False),
    "basis_state.index": ("basis index", "integer", lambda x: basis_state((2, 2), x), 1, False),
    "partial_trace.keep": ("keep", "integer", lambda x: partial_trace(PHI_PLUS, x), (0,), False),
    "apply.targets": ("targets", "integer", lambda x: apply(HADAMARD, PSI_PLUS, x), (1,), False),
}

_NOUNS = {"real": "real", "complex": "complex", "integer": "an integer"}
_KIND_SCALARS = {  # the numpy scalar types each kind accepts
    "integer": (np.int64, np.uint8),
    "real": (np.int64, np.uint8, np.float32),
    "complex": (np.int64, np.uint8, np.float32, np.complex64),
}


def _refusals():
    """One case per bad input of every boundary: the value passed and the value the message names."""
    for boundary, (_, kind, _, valid, optional) in _BOUNDARIES.items():
        bads = [True, np.True_, "0.5"] + ([] if optional else [None]) + ([1.5, 1.0] if kind == "integer" else [])
        cases = [(bad, bad, repr(bad)) for bad in bads]
        if isinstance(valid, tuple):  # a sequence also refuses a bare scalar, and each bad value as an entry
            cases += [(valid[0], valid[0], "bare scalar")] + [(valid[:-1] + (bad,), bad, f"[{bad!r}]") for bad in bads]
        for value, named, label in cases:
            yield pytest.param(boundary, value, named, id=f"{boundary}:{label}")


@pytest.mark.parametrize("boundary, value, named", _refusals())
def test_every_numeric_boundary_refuses_with_one_line_of_one_shape(boundary, value, named):
    name, kind, call, _, _ = _BOUNDARIES[boundary]
    with pytest.raises(ConfigurationError) as caught:
        call(value)
    assert re.fullmatch(f"{re.escape(name)} must be {_NOUNS[kind]}, got {re.escape(repr(named))}", str(caught.value))


@pytest.mark.parametrize("boundary", list(_BOUNDARIES))
def test_every_numeric_boundary_takes_numpy_scalars_of_its_kind(boundary):
    _, kind, call, valid, _ = _BOUNDARIES[boundary]
    for scalar in _KIND_SCALARS[kind]:
        call(tuple(map(scalar, valid)) if isinstance(valid, tuple) else scalar(valid))
    if isinstance(valid, tuple):
        call(np.array(valid))
        call(list(valid))


# the 2-D array inputs of the public constructors: (their name in messages, a call with the entries set to x)
_MATRIX_ENTRIES = {
    "DensityMatrix.entries": ("density matrix entries", lambda x: DensityMatrix((2,), x)),
    "Operator.entries": ("operator entries", lambda x: Operator((2,), x)),
}


def _matrix_refusals():
    """The census cases of a 2-D input: each bad value bare and as an entry, and arrays of a non-numeric dtype."""
    for boundary in _MATRIX_ENTRIES:
        for bad in (True, np.True_, "0.5", None):
            yield pytest.param(boundary, bad, bad, id=f"{boundary}:{bad!r}")
            yield pytest.param(boundary, [[0.5, 0.0], [0.0, bad]], bad, id=f"{boundary}:[[{bad!r}]]")
        yield pytest.param(boundary, [np.array([1.0, 0.0]), (0.0, True)], True, id=f"{boundary}:array row")
        yield pytest.param(boundary, np.array([[True, False], [False, True]]), True, id=f"{boundary}:bool array")
        yield pytest.param(boundary, np.array([["1", "0"], ["0", "0"]]), "1", id=f"{boundary}:str array")


@pytest.mark.parametrize("boundary, value, named", _matrix_refusals())
def test_matrix_entries_refuse_with_one_line_of_one_shape(boundary, value, named):
    name, call = _MATRIX_ENTRIES[boundary]
    with pytest.raises(ConfigurationError) as caught:
        call(value)
    assert re.fullmatch(f"{re.escape(name)} must be complex, got {re.escape(repr(named))}", str(caught.value))


def test_public_arrays_take_numpy_scalars_and_numeric_dtypes():
    half = [[np.float32(0.5), np.uint8(0)], [np.int64(0), np.complex64(0.5)]]
    for _, call in _MATRIX_ENTRIES.values():
        assert np.array_equal(call(half).entries, np.eye(2) / 2)
        assert np.array_equal(call(np.eye(2, dtype=np.float32) / 2).entries, np.eye(2) / 2)
    assert np.array_equal(Operator((2,), np.eye(2, dtype=np.int8)).entries, np.eye(2))
    assert StateVector((2,), np.array([1, 0], dtype=np.uint8)).amps.tolist() == [1.0, 0.0]


def test_basis_state_refuses_a_bool_index():
    # numpy reads True as a mask: basis_state((2,), True) had a 1 in every amplitude, norm sqrt(2)
    with pytest.raises(ConfigurationError, match=r"^basis index must be an integer, got True$"):
        basis_state((2,), True)
    assert basis_state((2,), 1).amps.tolist() == [0.0, 1.0]


def test_integers_beyond_float64_are_refused_in_one_line():
    for call, name in ((lambda: ThermalSpec(10**400, _HAM), "beta"), (lambda: QuditHamiltonian((10**400, 0)), "energies")):
        with pytest.raises(ConfigurationError, match=f"^{name} must fit in float64$"):
            call()


def test_numpy_arrays_are_read_without_a_check_per_number(monkeypatch):
    def refuse(*args):
        raise AssertionError("a number of an accepted array checked one by one")

    monkeypatch.setattr(qcore, "_number", refuse)
    assert SweepSpec(_CFG, np.linspace(0.0, 1.0, 1001, dtype=np.float32)).phi_points.size == 1001
    assert partial_trace(PHI_PLUS, np.array([1], dtype=np.uint8)).dims == (2,)
    with pytest.raises(AssertionError):
        SweepSpec(_CFG, tuple(np.linspace(0.0, 1.0, 3)))  # a tuple of numpy scalars is read number by number


def test_only_qcore_imports_the_number_abcs():
    # one numeric-input rule: no module but qcore decides for itself what a number is
    importers = set()
    for path in Path(qcore.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "numbers" and not node.level:
                importers.add(path.name)
            if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
                importers.add(path.name)
    assert importers == {"qcore.py"}


# private names that cross a module line to a sibling other than qcore: (importer, home module, name)
_PRIVATE_IMPORTS = {
    ("interference", "protocol", "_branch"),
    ("cli", "interference", "_closed_form"),
    ("cli", "interference", "_readout_probability"),
    ("protocol", "thermal", "_positive_qubit_weights"),
    ("interference", "thermal", "_positive_qubit_weights"),
}


def test_private_names_cross_module_lines_only_where_listed():
    # thermal alone forms Gibbs weights: its qubit form is imported from thermal, never through protocol
    imports = set()
    for path in Path(qcore.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module not in (None, "qcore"):
                imports |= {(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")}
    assert imports == _PRIVATE_IMPORTS
