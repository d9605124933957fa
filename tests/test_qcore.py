from math import prod
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
    DensityMatrix,
    Operator,
    PHI_PLUS,
    StateVector,
    apply,
    basis_state,
    fidelity_pure,
    QuditHamiltonian,
    ThermalSpec,
    circuit_probability,
    partial_trace,
    post_select,
    post_select_oracle,
    purified_thermal_state,
    purify,
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
            got = qcore._reduced_density(flat(psi), dims, keep, traced)
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
