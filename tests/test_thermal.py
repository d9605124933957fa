import tracemalloc
from math import fsum, isclose, isinf, isnan, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermosim import (
    ConfigurationError,
    QuditHamiltonian,
    ThermalSpec,
    gibbs_weights,
    partial_trace,
    purify,
    thermal_density,
)
from thermosim import qcore, thermal
from thermosim.qcore import EQ_TOL

from helpers import (
    REF_PARTITION_A,
    REF_PARTITION_B,
    REF_WEIGHTS_A,
    REF_WEIGHTS_B,
    assert_valid_density,
    random_thermal_spec,
    reference_log_partition,
)


def test_hamiltonian_validation():
    with pytest.raises(ConfigurationError):
        QuditHamiltonian((1.0,))
    with pytest.raises(ConfigurationError):
        QuditHamiltonian((0.0, np.nan))
    # float() would read these as 0.0 and 1.0
    for bad in ("0", True, np.True_):
        with pytest.raises(ConfigurationError, match=f"^energies must be real, got {bad!r}$"):
            QuditHamiltonian((1.0, bad))


@pytest.mark.parametrize("levels, kind", [
    ({3.0, 1.0, 2.0}, "set"),  # read in hash order, not the caller's
    (frozenset((0.0, 1.0)), "frozenset"),
    ({5.0: "x", 0.0: "y"}, "dict"),  # its keys were taken as the levels
])
def test_unordered_levels_are_refused(levels, kind):
    with pytest.raises(ConfigurationError, match=f"^energies must be an ordered sequence, got {kind}$"):
        QuditHamiltonian(levels)
    # a sequence of the same levels is accepted, in its own order
    assert QuditHamiltonian(tuple(levels)).energies == tuple(levels)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_overflowing_level_span_is_refused(beta):
    # E_max - E_min overflows to inf, which the min-shifted kernel would scale by beta (NaN at beta = 0)
    for levels in ((1e308, -1e308), (-1.7e308, 0.0, 1.7e308)):
        with pytest.raises(ConfigurationError, match="^energy span overflows float64$"):
            ThermalSpec(beta, QuditHamiltonian(levels))
    # the widest finite span is accepted, with uniform weights at infinite temperature
    weights = gibbs_weights(ThermalSpec(beta, QuditHamiltonian((8e307, -8e307)))).weights
    assert weights == ((0.5, 0.5) if beta == 0.0 else (0.0, 1.0))


def test_spec_rejects_bad_beta():
    ham = QuditHamiltonian((0.0, 1.0))
    with pytest.raises(ConfigurationError):
        ThermalSpec(-0.5, ham)
    with pytest.raises(ConfigurationError):
        ThermalSpec(np.inf, ham)
    for beta in (True, "1.0", None):
        with pytest.raises(ConfigurationError, match=f"^beta must be real, got {beta!r}$"):
            ThermalSpec(beta, ham)


def test_spec_refuses_a_hamiltonian_that_is_not_a_qudit_hamiltonian():
    # a list of levels used to build a spec whose first reader raised a raw AttributeError
    for ham, name in (([0.0, 1.0], "list"), ((0.0, 1.0), "tuple"), (None, "NoneType"), ("01", "str")):
        with pytest.raises(ConfigurationError, match=f"^hamiltonian must be a QuditHamiltonian, got {name}$"):
            ThermalSpec(1.0, ham)
    with pytest.raises(ConfigurationError, match="^beta must be finite"):  # beta is proven first
        ThermalSpec(-1.0, [0.0, 1.0])


def test_numpy_scalars_are_numbers():
    spec = ThermalSpec(np.float32(0.5), QuditHamiltonian((np.int64(2), np.float64(1.0), 0)))
    assert spec.beta == 0.5 and spec.hamiltonian.energies == (2.0, 1.0, 0.0)
    assert all(type(x) is float for x in (spec.beta, *spec.hamiltonian.energies))


def test_overflowing_beta_gap_has_weight_zero_without_a_warning():
    # beta * (E - E_min) = 1e310 overflows to inf: its weight is exactly 0.0, and numpy stays silent
    spec = ThermalSpec(1e300, QuditHamiltonian((1e10, 0.0)))
    assert gibbs_weights(spec).weights == (0.0, 1.0)
    assert np.array_equal(thermal_density(spec).entries, np.diag([0.0, 1.0]))
    assert np.array_equal(purify(spec).amps, [0.0, 0.0, 0.0, 1.0])


def test_infinite_temperature_weights():
    gw = gibbs_weights(ThermalSpec(0.0, QuditHamiltonian((7.0, -3.0))))
    np.testing.assert_allclose(gw.weights, [0.5, 0.5], atol=EQ_TOL)
    assert abs(gw.log_partition - log(2.0)) < EQ_TOL


def test_weights_match_reference_values():
    gw = gibbs_weights(ThermalSpec(1.0, QuditHamiltonian((5.0, 0.0))))
    np.testing.assert_allclose(gw.weights, REF_WEIGHTS_A, atol=EQ_TOL)
    assert abs(gw.log_partition - log(REF_PARTITION_A)) < EQ_TOL

    gw = gibbs_weights(ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0))))
    np.testing.assert_allclose(gw.weights, REF_WEIGHTS_B, atol=EQ_TOL)
    assert abs(gw.log_partition - log(REF_PARTITION_B)) < EQ_TOL


@pytest.mark.parametrize("levels", [(-5.0, -4.5), (5.0, 4.5)])
def test_log_partition_is_finite_where_the_partition_function_is_not(levels):
    # Z = e^1000 and e^-900 overflow and underflow float64; their logs are finite
    spec = ThermalSpec(200.0, QuditHamiltonian(levels))
    expected = reference_log_partition(spec.beta, levels)
    assert abs(expected) > 745.0
    assert isclose(gibbs_weights(spec).log_partition, expected, rel_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.0, 100.0), energies=st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=8))
@example(beta=100.0, energies=[-100.0, 7.5])  # -beta*E_min = 1e4: Z = e^(1e4) overflows past 709
@example(beta=100.0, energies=[100.0, 99.0])  # beta*E_min = 1e4: Z = e^(-1e4) underflows past 745
def test_log_partition_is_the_stdlib_log_sum_exp(beta, energies):
    got = gibbs_weights(ThermalSpec(beta, QuditHamiltonian(energies))).log_partition
    expected = reference_log_partition(beta, energies)
    assert isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(0.0, 1e308), energies=st.lists(st.floats(-8e307, 8e307), min_size=2, max_size=6))
@example(beta=1e300, energies=[-1e10, 0.0])
@example(beta=1e300, energies=[1e10, 2e10])
def test_log_partition_is_infinite_only_where_beta_times_the_lowest_level_is(beta, energies):
    got = gibbs_weights(ThermalSpec(beta, QuditHamiltonian(energies))).log_partition
    assert not isnan(got)
    assert isinf(got) == isinf(beta * min(energies))
    if isinf(got):
        assert got == -beta * min(energies)
    else:
        assert isclose(got, reference_log_partition(beta, energies), rel_tol=1e-12, abs_tol=1e-12)


def test_weights_survive_large_beta_energy_products():
    gw = gibbs_weights(ThermalSpec(70.0, QuditHamiltonian((10.0, 0.0))))
    assert gw.weights[1] == pytest.approx(1.0, abs=1e-12)
    assert gw.weights[0] > 0.0  # e^(-700), close to the underflow edge


def test_weight_shift_invariance():
    rng = np.random.default_rng(41)
    for _ in range(30):
        spec = random_thermal_spec(rng)
        shifted = ThermalSpec(
            spec.beta,
            QuditHamiltonian(tuple(e + 3.7 for e in spec.hamiltonian.energies)),
        )
        np.testing.assert_allclose(
            gibbs_weights(spec).weights, gibbs_weights(shifted).weights, atol=EQ_TOL
        )


def test_ground_weight_decreases_with_beta():
    # p_0 is the weight of the higher level here, so it must fall as beta grows
    ham = QuditHamiltonian((2.0, -1.0))
    values = [gibbs_weights(ThermalSpec(b, ham)).weights[0] for b in np.linspace(0, 5, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_thermal_density_examples():
    np.testing.assert_allclose(
        thermal_density(ThermalSpec(0.0, QuditHamiltonian((3.0, 1.0)))).entries,
        np.eye(2) / 2,
        atol=EQ_TOL,
    )
    np.testing.assert_allclose(
        thermal_density(ThermalSpec(1.0, QuditHamiltonian((5.0, 0.0)))).entries,
        np.diag(REF_WEIGHTS_A),
        atol=EQ_TOL,
    )
    np.testing.assert_allclose(
        thermal_density(ThermalSpec(1.0, QuditHamiltonian((0.0, 0.0, 0.0)))).entries,
        np.eye(3) / 3,
        atol=EQ_TOL,
    )


def test_weights_of_many_levels_pass_the_sum_check():
    # a left-to-right float sum of these 10^5 weights misses 1 by about 2e-12
    energies = tuple(np.random.default_rng(19).uniform(-5.0, 5.0, 100_000))
    gw = gibbs_weights(ThermalSpec(0.0, QuditHamiltonian(energies)))
    assert len(gw.weights) == 100_000
    assert abs(fsum(gw.weights) - 1.0) <= 1e-12
    assert gw.log_partition == pytest.approx(log(100_000.0))


@pytest.mark.parametrize(
    "beta, levels",
    [
        pytest.param(0.0, (7.0, -3.0), id="infinite temperature"),
        pytest.param(1.0, (0.0, 0.0, 0.0), id="degenerate levels"),
        pytest.param(np.float32(0.5), (np.int64(2), np.float64(1.0), 0), id="numpy scalar inputs"),
        pytest.param(70.0, (10.0, 0.0), id="weight near the underflow edge"),
        pytest.param(1e300, (1e10, 0.0), id="overflowing beta gap"),
        pytest.param(1.0, (8e307, -8e307), id="widest finite span"),
        pytest.param(200.0, (-5.0, -4.5), id="Z overflows"),
        pytest.param(200.0, (5.0, 4.5), id="Z underflows"),
        pytest.param(1e300, (-1e10, 0.0), id="log Z is +inf"),
        pytest.param(1e300, (1e10, 2e10), id="log Z is -inf"),
        pytest.param(3.0, tuple(np.random.default_rng(23).uniform(-5.0, 5.0, 1000)), id="1000 levels"),
    ],
)
def test_gibbs_weights_output_holds_what_the_record_no_longer_checks(beta, levels):
    # GibbsWeights is an unchecked record, so its producer alone must give plain floats,
    # nonnegative weights of unit sum and a log Z that is never NaN
    gw = gibbs_weights(ThermalSpec(beta, QuditHamiltonian(levels)))
    assert type(gw.weights) is tuple and len(gw.weights) == len(levels)
    assert all(type(x) is float and x >= 0.0 for x in gw.weights)
    assert abs(fsum(gw.weights) - 1.0) <= 1e-12
    assert type(gw.log_partition) is float and not isnan(gw.log_partition)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 64), beta_gap=st.floats(0.0, 745.0), seed=st.integers(0, 2**32 - 1))
def test_thermal_density_passes_the_skipped_checks(d, beta_gap, seed):
    # levels span [0, 1], so beta * gap reaches the underflow edge at about 745
    levels = np.concatenate(([0.0, 1.0], np.random.default_rng(seed).uniform(0.0, 1.0, d - 2)))
    assert_valid_density(thermal_density(ThermalSpec(beta_gap, QuditHamiltonian(tuple(levels)))))


class _EigvalshCalled(Exception):
    pass


def test_derived_density_matrices_skip_eigvalsh(monkeypatch):
    def refuse(*args, **kwargs):
        raise _EigvalshCalled

    monkeypatch.setattr(qcore.np.linalg, "eigvalsh", refuse)
    spec = ThermalSpec(0.8, QuditHamiltonian(tuple(np.random.default_rng(3).uniform(-5.0, 5.0, 512))))
    rho = thermal_density(spec)
    back = partial_trace(purify(spec), keep={1})
    assert rho.dims == back.dims == (512,)
    monkeypatch.undo()  # the test's own eigvalsh proves what the library skips
    assert_valid_density(rho)
    assert_valid_density(back)


def test_derived_density_entries_are_the_unvalidated_expressions():
    # the derived path changes only the checks: the entries are exactly the
    # diagonal of the weights and the Gram matrix of the transposed purification
    rng = np.random.default_rng([7, 2])
    levels = [tuple(float(e) for e in rng.uniform(-5.0, 5.0, 1024)) for _ in range(8)]
    for energies, beta in zip(levels, rng.uniform(0.2, 2.0, 8)):
        spec = ThermalSpec(float(beta), QuditHamiltonian(energies))
        assert np.array_equal(thermal_density(spec).entries, np.diag(gibbs_weights(spec).weights))
        state = purify(spec)
        psi = np.transpose(state.amps.reshape(1024, 1024), [1, 0]).reshape(1024, -1)
        assert np.array_equal(partial_trace(state, keep={1}).entries, psi @ psi.conj().T)


@pytest.mark.parametrize("build", [
    pytest.param(thermal_density, id="thermal_density"),
    pytest.param(lambda spec: partial_trace(purify(spec), keep={1}), id="purify round trip"),
])
def test_real_density_matrices_allocate_one_real_matrix(build):
    # a Gibbs state and its purification's trace are real: one dense float64 d x d matrix, 8 bytes an entry
    d = 1024
    spec = ThermalSpec(0.8, QuditHamiltonian(tuple(np.random.default_rng(5).uniform(-5.0, 5.0, d))))
    tracemalloc.start()
    try:
        rho = build(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * d**2 + 2**20
    assert rho.entries.shape == (d, d) and not rho.entries.flags.writeable


def test_builders_skip_the_weights_report(monkeypatch):
    # gibbs_weights is the public report; the builders take the same weights as an array
    def refuse(spec):
        raise AssertionError("gibbs_weights called")

    monkeypatch.setattr(thermal, "gibbs_weights", refuse)
    spec = ThermalSpec(0.8, QuditHamiltonian((0.0, 1.0, 2.5)))
    assert thermal_density(spec).dims == (3,) and purify(spec).dims == (3, 3)


def test_purify_infinite_temperature_is_bell_state():
    state = purify(ThermalSpec(0.0, QuditHamiltonian((4.0, 2.0))))
    np.testing.assert_allclose(state.amps, [1, 0, 0, 1] / np.sqrt(2), atol=EQ_TOL)


def test_purify_amplitudes_are_weight_roots():
    state = purify(ThermalSpec(1.0, QuditHamiltonian((5.0, 0.0))))
    np.testing.assert_allclose(
        state.amps, [np.sqrt(REF_WEIGHTS_A[0]), 0, 0, np.sqrt(REF_WEIGHTS_A[1])], atol=EQ_TOL
    )


def test_purify_phase_sits_on_upper_branch():
    phi = 0.9
    state = purify(ThermalSpec(0.0, QuditHamiltonian((0.0, 1.0))), phase=phi)
    assert state.amps[3] == pytest.approx(np.exp(1j * phi) / np.sqrt(2), abs=EQ_TOL)
    assert state.amps[0] == pytest.approx(1 / np.sqrt(2), abs=EQ_TOL)


def test_purify_phase_requires_qubit():
    spec = ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0, 2.0)))
    purify(spec)  # phase 0 is fine for qudits
    with pytest.raises(ConfigurationError):
        purify(spec, phase=0.1)


@pytest.mark.parametrize("phase", [np.inf, -np.inf, np.nan])
def test_purify_refuses_nonfinite_phase(phase):
    with pytest.raises(ConfigurationError, match="phase must be finite"):
        purify(ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0))), phase=phase)


def test_purification_round_trip_randomized():
    rng = np.random.default_rng(43)
    for _ in range(60):
        spec = random_thermal_spec(rng)
        phase = float(rng.uniform(0, 2 * np.pi)) if spec.hamiltonian.dim == 2 else 0.0
        state = purify(spec, phase)
        assert abs(state.norm() - 1.0) < EQ_TOL
        reduced = partial_trace(state, keep={1})
        np.testing.assert_allclose(reduced.entries, thermal_density(spec).entries, atol=EQ_TOL)
