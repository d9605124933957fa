import tracemalloc
from dataclasses import fields, replace
from math import fsum, isclose, isinf, isnan, log

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermosim import (
    ConfigurationError,
    QuditHamiltonian,
    ThermalSpec,
    eigencheck_purified,
    gibbs_weights,
    partial_trace,
    purified_thermal_state,
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


# the level checks run in Python floats on few levels and as numpy reductions on many: both routes
_BOTH_ROUTES = pytest.mark.parametrize("n", [2, thermal._ARRAY_CHECKS], ids=["python floats", "level array"])


def _padded(levels, n):
    """``levels`` followed by zeros up to ``n`` levels, so that the checks take the route of ``n`` levels."""
    return tuple(levels) + (0.0,) * (n - len(levels))


@_BOTH_ROUTES
def test_hamiltonian_validation(n):
    assert ("_levels" in vars(QuditHamiltonian(_padded((0.0, 1.0), n)))) == (n >= thermal._ARRAY_CHECKS)
    with pytest.raises(ConfigurationError, match="^a Hamiltonian needs at least two levels$"):
        QuditHamiltonian((1.0,))
    for bad in ((0.0, np.nan), (np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0), (np.inf, -np.inf), (np.nan, np.inf)):
        with pytest.raises(ConfigurationError, match="^energies must be finite$"):
            QuditHamiltonian(_padded(bad, n))
    # float() would read these as 0.0 and 1.0
    for bad in ("0", True, np.True_):
        with pytest.raises(ConfigurationError, match=f"^energies must be real, got {bad!r}$"):
            QuditHamiltonian(_padded((1.0, bad), n))
    # a sum past float64 proves no level infinite: these levels and their spans are finite
    for big in ((1.7e308, 1.7e308), (-1.7e308, -1.7e308)):
        assert QuditHamiltonian(_padded(big, n)).energies == _padded(big, n)


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


@_BOTH_ROUTES
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_overflowing_level_span_is_refused(beta, n):
    # E_max - E_min overflows to inf, which the min-shifted kernel would scale by beta (NaN at beta = 0)
    for levels in ((1e308, -1e308), (-1.7e308, 0.0, 1.7e308)):
        with pytest.raises(ConfigurationError, match="^energy span overflows float64$"):
            ThermalSpec(beta, QuditHamiltonian(_padded(levels, n)))
    # the widest finite span is accepted, with uniform weights at infinite temperature
    weights = gibbs_weights(ThermalSpec(beta, QuditHamiltonian(_padded((8e307, -8e307), n)))).weights
    assert weights == ((1.0 / n,) * n if beta == 0.0 else _padded((0.0, 1.0), n))


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


@pytest.mark.parametrize("reader", [
    thermal_density, purify, gibbs_weights, eigencheck_purified, purified_thermal_state,
])
def test_a_spec_that_is_not_a_thermal_spec_is_refused_in_one_line(reader):
    # each read a field of its argument first, and raised a raw AttributeError
    for spec, name in (("spec", "str"), (None, "NoneType"), (QuditHamiltonian((0.0, 1.0)), "QuditHamiltonian")):
        with pytest.raises(ConfigurationError, match=f"^spec must be a ThermalSpec, got {name}$"):
            reader(spec)


@pytest.mark.parametrize("n", [3, thermal._ARRAY_CHECKS])
def test_each_spec_evaluates_its_gibbs_weights_once(monkeypatch, n):
    calls = []
    kernel = thermal._shifted_gibbs

    def counted(beta, energies):
        calls.append(beta)
        return kernel(beta, energies)

    monkeypatch.setattr(thermal, "_shifted_gibbs", counted)
    hamiltonian = QuditHamiltonian(tuple(np.linspace(-2.0, 3.0, n).tolist()))
    specs = ThermalSpec(0.8, hamiltonian), ThermalSpec(0.8, hamiltonian), ThermalSpec(1.5, hamiltonian)
    for spec in specs:
        for _ in range(2):
            thermal_density(spec)
            purify(spec)
            gibbs_weights(spec)
    assert calls == [0.8, 0.8, 1.5]  # one per spec: equal specs evaluate their own


@pytest.mark.parametrize("n", [2, thermal._ARRAY_CHECKS - 1, thermal._ARRAY_CHECKS, 1024])
def test_the_shared_level_array_and_weights_are_read_only_and_bit_identical(n):
    energies = tuple(np.random.default_rng([11, n]).uniform(-5.0, 5.0, n).tolist())
    spec = ThermalSpec(0.8, QuditHamiltonian(energies))
    levels, (weights, total) = spec.hamiltonian._levels, spec._gibbs
    fresh, fresh_total = thermal._shifted_gibbs(spec.beta, energies)
    assert levels.dtype == weights.dtype == np.float64
    assert not (levels.flags.writeable or weights.flags.writeable)
    assert list(map(float.hex, levels.tolist())) == list(map(float.hex, np.array(energies).tolist()))
    assert list(map(float.hex, weights.tolist())) == list(map(float.hex, fresh.tolist()))
    assert float.hex(total) == float.hex(fresh_total)
    with pytest.raises(ValueError):
        weights[0] = 0.5
    # every reader shares the one array of each, and reads the same values
    assert spec.hamiltonian._levels is levels and spec._gibbs[0] is weights
    assert purified_thermal_state(spec)._energy is levels
    assert np.array_equal(thermal_density(spec).entries, np.diag(fresh))
    assert gibbs_weights(spec).weights == tuple(fresh.tolist())


@pytest.mark.parametrize("n", [2, 100])
def test_the_cached_arrays_leave_equality_hash_and_replace_as_they_were(n):
    energies = tuple(np.random.default_rng([13, n]).uniform(-5.0, 5.0, n).tolist())
    read, fresh = (ThermalSpec(0.8, QuditHamiltonian(energies)) for _ in range(2))
    thermal_density(read)  # fills read's caches, not fresh's
    assert "_gibbs" in vars(read) and "_gibbs" not in vars(fresh)
    assert read == fresh and hash(read) == hash(fresh) and len({read, fresh}) == 1
    assert read.hamiltonian == fresh.hamiltonian and hash(read.hamiltonian) == hash(fresh.hamiltonian)
    assert repr(read) == repr(fresh)
    assert [f.name for f in fields(read)] == ["beta", "hamiltonian"]
    assert [f.name for f in fields(read.hamiltonian)] == ["energies"]
    assert replace(read) == read and replace(read.hamiltonian) == read.hamiltonian
    hotter = replace(read, beta=0.4)  # a new spec evaluates its own weights
    assert hotter != read and "_gibbs" not in vars(hotter) and hotter.hamiltonian is read.hamiltonian
    assert gibbs_weights(hotter) == gibbs_weights(ThermalSpec(0.4, QuditHamiltonian(energies)))
    reversed_levels = replace(read.hamiltonian, energies=energies[::-1])
    assert reversed_levels != read.hamiltonian
    assert reversed_levels._levels.tolist() == list(energies[::-1])


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
