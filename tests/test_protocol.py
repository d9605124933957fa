import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermosim import (
    SIGMA_Z,
    BellOutcome,
    ConfigurationError,
    OUTCOME_ORDER,
    ProtocolConfig,
    QuditHamiltonian,
    ThermalSpec,
    apply,
    bell_state,
    fidelity_pure,
    joint_state,
    partial_trace,
    post_select,
    post_select_oracle,
    purify,
    residual_superposition,
    sample_outcomes,
    success_probability,
    thermal_density,
)
from thermosim import interference, protocol, thermal
from thermosim.qcore import EQ_TOL

from helpers import (
    QUBIT,
    REF_BRANCH_NORM_SQ_PHI,
    REF_PROB_PHI,
    REF_PROB_PSI,
    reference_config,
    random_in_regime_config,
    qubit_spec,
    random_protocol_config,
    symmetric_config,
)


def test_config_requires_qubits():
    qutrit = ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0, 2.0)))
    qubit = ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0)))
    with pytest.raises(ConfigurationError):
        ProtocolConfig(qutrit, qubit)


def test_config_refuses_a_spec_that_is_not_a_thermal_spec():
    # a number or a Hamiltonian in place of a spec raised a raw AttributeError from its first reader
    qubit = ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0)))
    cases = ((1.0, 2.0, "spec_a", "float"), (qubit, None, "spec_b", "NoneType"),
             (qubit.hamiltonian, qubit, "spec_a", "QuditHamiltonian"), (qubit, "x", "spec_b", "str"))
    for a, b, name, got in cases:
        with pytest.raises(ConfigurationError, match=f"^{name} must be a ThermalSpec, got {got}$"):
            ProtocolConfig(a, b)
    qutrit = ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0, 2.0)))
    with pytest.raises(ConfigurationError, match="^spec_a must describe a qubit$"):  # spec_a is proven first
        ProtocolConfig(qutrit, 2.0)


def test_config_rejects_underflowing_weights():
    frozen_out = ThermalSpec(200.0, QuditHamiltonian((5.0, 0.0)))  # beta*gap = 1000
    hot = ThermalSpec(1e300, QuditHamiltonian((1e10, 0.0)))  # beta*gap = 1e310 overflows, with no numpy warning
    qubit = ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0)))
    # the refusal names the spec, spec_a first when both underflow; spec_a is proven whole before spec_b is read
    cases = (
        (frozen_out, qubit, "spec_a"), (qubit, frozen_out, "spec_b"), (frozen_out, frozen_out, "spec_a"),
        (hot, qubit, "spec_a"), (qubit, hot, "spec_b"), (frozen_out, "x", "spec_a"),
    )
    for a, b, name in cases:
        with pytest.raises(ConfigurationError, match=f"^{name} has a Gibbs weight that underflows to zero"):
            ProtocolConfig(a, b)


def test_config_phi_is_a_real_number():
    spec = ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0)))
    for phi in (False, "0.3", np.bool_(True)):
        with pytest.raises(ConfigurationError, match=f"^phi must be real, got {phi!r}$"):
            ProtocolConfig(spec, spec, phi)
    assert ProtocolConfig(spec, spec, np.float32(0.5)).phi == 0.5


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_config_refuses_a_phase_that_is_not_finite(phi):
    spec = ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0)))
    with pytest.raises(ConfigurationError, match="^phi must be finite$"):
        ProtocolConfig(spec, spec, phi)


def test_config_weights_are_one_gibbs_call_with_the_per_spec_bytes(monkeypatch):
    qubits, exponents = [], []
    helper, numpy_exp = protocol._qubit_weights, np.exp

    def recorded(name, spec):
        qubits.append(name)
        exponents.append([])
        return helper(name, spec)

    def exp(x):
        exponents[-1].append(len(x))
        return numpy_exp(x)

    monkeypatch.setattr(protocol, "_qubit_weights", recorded)
    monkeypatch.setattr(protocol.np, "exp", exp)
    reference_config()
    # one call per qubit, spec_a first, and each qubit's two exponentials in one numpy call
    assert qubits == ["spec_a", "spec_b"]
    assert exponents == [[2], [2]]
    monkeypatch.undo()
    rng = np.random.default_rng(61)
    for k in range(200):
        cfg = random_protocol_config(rng, beta_max=0.0 if k % 10 == 0 else 50.0)
        for spec, pair in zip((cfg.spec_a, cfg.spec_b), cfg.weights()):
            alone, _ = thermal._shifted_gibbs(spec.beta, spec.hamiltonian.energies)
            assert all(type(w) is float for w in pair)
            assert [w.hex() for w in pair] == [float(w).hex() for w in alone]


def _random_qubit(rng, k):
    """(beta, levels) with beta*gap log-uniform up to 800, beta = 0, signed zeros and degenerate levels among them."""
    levels = [float(x) for x in rng.uniform(-5.0, 5.0, 2)]
    if k % 7 == 0:
        levels = [0.0, -0.0] if k % 2 else [-0.0, 0.0]
    elif k % 7 == 1:
        levels[1] = levels[0]
    elif k % 7 == 2:
        levels[rng.integers(2)] = -0.0 if k % 3 else 0.0
    gap = abs(levels[1] - levels[0]) or 1.0
    beta = 0.0 if k % 11 == 0 else float(np.exp(rng.uniform(np.log(1e-3), np.log(800.0)))) / gap
    return beta, tuple(levels)


def test_qubit_weights_are_the_kernel_bits():
    rng = np.random.default_rng(19)
    drawn = [_random_qubit(rng, k) for k in range(2000)]
    for k, (beta, levels) in enumerate(drawn):
        spec = ThermalSpec(beta, QuditHamiltonian(levels))
        kernel = thermal._shifted_gibbs(beta, levels)[0].tolist()
        if min(kernel) == 0.0:
            # a qubit with a zero weight is refused, by its name
            with pytest.raises(ConfigurationError, match=f"^q{k} has a Gibbs weight that underflows"):
                protocol._qubit_weights(f"q{k}", spec)
            continue
        got = protocol._qubit_weights(f"q{k}", spec)
        assert type(got) is tuple and all(type(w) is float for w in got)
        assert [w.hex() for w in got] == [w.hex() for w in kernel]
    assert 0 < sum(min(thermal._shifted_gibbs(beta, levels)[0]) == 0.0 for beta, levels in drawn)
    fine, frozen = ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0))), ThermalSpec(200.0, QuditHamiltonian((5.0, 0.0)))
    for name in ("a", "spec_b"):
        protocol._qubit_weights(name, fine)
        with pytest.raises(ConfigurationError, match=f"^{name} has a Gibbs weight that underflows"):
            protocol._qubit_weights(name, frozen)


def test_joint_state_symmetric_case_is_uniform():
    state = joint_state(symmetric_config())
    expected = np.zeros(16)
    expected[[0b0000, 0b0011, 0b1100, 0b1111]] = 0.5
    np.testing.assert_allclose(state.amps, expected, atol=EQ_TOL)


def test_joint_state_reduces_to_thermal_marginals():
    cfg = reference_config(phi=1.1)
    state = joint_state(cfg)
    np.testing.assert_allclose(
        partial_trace(state, keep={1}).entries,
        thermal_density(cfg.spec_a).entries,
        atol=EQ_TOL,
    )
    np.testing.assert_allclose(
        partial_trace(state, keep={3}).entries,
        thermal_density(cfg.spec_b).entries,
        atol=EQ_TOL,
    )


def test_joint_state_cross_amplitude_carries_phase():
    phi = 0.7
    cfg = reference_config(phi=phi)
    (p0, p1), (f0, f1) = cfg.weights()
    state = joint_state(cfg)
    expected = np.sqrt(p1) * np.sqrt(f0) * np.exp(1j * phi)
    assert state.amps[0b1100] == pytest.approx(expected, abs=EQ_TOL)


def test_post_select_symmetric_case():
    result = post_select(symmetric_config(), BellOutcome.PHI_PLUS)
    assert result.probability == pytest.approx(0.25, abs=EQ_TOL)
    assert fidelity_pure(result.state, bell_state(BellOutcome.PHI_PLUS)) > 1 - EQ_TOL


def test_post_select_reference_probabilities():
    cfg = reference_config()
    assert post_select(cfg, BellOutcome.PHI_PLUS).probability == pytest.approx(
        REF_PROB_PHI, abs=EQ_TOL
    )
    assert post_select(cfg, BellOutcome.PSI_PLUS).probability == pytest.approx(
        REF_PROB_PSI, abs=EQ_TOL
    )


def test_post_select_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(53)
    for _ in range(50):
        cfg = random_protocol_config(rng)
        total = sum(post_select(cfg, o).probability for o in OUTCOME_ORDER)
        assert abs(total - 1.0) < EQ_TOL


def test_post_select_matches_projector_oracle():
    rng = np.random.default_rng(59)
    for _ in range(100):
        cfg = random_protocol_config(rng)
        for outcome in OUTCOME_ORDER:
            fast = post_select(cfg, outcome)
            slow = post_select_oracle(cfg, outcome)
            assert abs(fast.probability - slow.probability) < EQ_TOL
            assert fidelity_pure(fast.state, slow.state) > 1 - EQ_TOL


def test_oracle_symmetric_case_is_uniform():
    for outcome in OUTCOME_ORDER:
        assert post_select_oracle(symmetric_config(), outcome).probability == pytest.approx(
            0.25, abs=EQ_TOL
        )


def test_phi_minus_is_locally_equivalent_to_phi_plus():
    rng = np.random.default_rng(61)
    for _ in range(30):
        cfg = random_protocol_config(rng)
        minus = post_select(cfg, BellOutcome.PHI_MINUS).state
        plus = post_select(cfg, BellOutcome.PHI_PLUS).state
        flipped = apply(SIGMA_Z, minus, targets=(1,))
        assert fidelity_pure(flipped, plus) > 1 - EQ_TOL


def test_two_temperature_amplitude_ratio():
    # with E1 = 0 and E0' = 0 the branch amplitudes carry one Boltzmann
    # factor per bath: amp(00)/amp(11) = e^(-(bA*E0 - bB*E1')/2) * e^(-i*phi)
    rng = np.random.default_rng(67)
    for _ in range(25):
        cfg = random_in_regime_config(rng)
        state = post_select(cfg, BellOutcome.PHI_PLUS).state
        ratio = state.amps[0] / state.amps[3]
        beta_a, beta_b = cfg.spec_a.beta, cfg.spec_b.beta
        e0 = cfg.spec_a.hamiltonian.energies[0]
        e1p = cfg.spec_b.hamiltonian.energies[1]
        expected = np.exp(-(beta_a * e0 - beta_b * e1p) / 2) * np.exp(-1j * cfg.phi)
        assert ratio == pytest.approx(expected, rel=1e-11)


def test_success_probability_values():
    assert success_probability(symmetric_config(), "phi") == pytest.approx(0.5, abs=EQ_TOL)
    cfg = reference_config()
    phi_branch = success_probability(cfg, "phi")
    assert phi_branch == pytest.approx(REF_BRANCH_NORM_SQ_PHI, abs=EQ_TOL)
    assert phi_branch == pytest.approx(2 * post_select(cfg, BellOutcome.PHI_PLUS).probability, abs=EQ_TOL)


def test_success_probability_branches_are_complete():
    rng = np.random.default_rng(71)
    for _ in range(30):
        cfg = random_protocol_config(rng)
        total = success_probability(cfg, "phi") + success_probability(cfg, "psi")
        assert abs(total - 1.0) < EQ_TOL


def test_success_probability_rejects_unknown_branch():
    with pytest.raises(ConfigurationError):
        success_probability(reference_config(), "theta")


def test_sampling_uniform_within_five_sigma():
    n = 100_000
    counts = sample_outcomes(symmetric_config(), n, seed=11)
    bound = 5 * np.sqrt(n * 0.25 * 0.75)
    for outcome in OUTCOME_ORDER:
        assert abs(counts[outcome] - n * 0.25) <= bound


def test_sampling_tracks_analytic_distribution():
    n = 100_000
    cfg = reference_config()
    counts = sample_outcomes(cfg, n, seed=12)
    for outcome in OUTCOME_ORDER:
        p = post_select(cfg, outcome).probability
        assert abs(counts[outcome] - n * p) <= 5 * np.sqrt(n * p * (1 - p))


def test_sampling_is_deterministic_per_seed():
    cfg = reference_config()
    first = sample_outcomes(cfg, 5000, seed=77)
    second = sample_outcomes(cfg, 5000, seed=77)
    assert first == second
    assert sample_outcomes(cfg, 5000, seed=78) != first


def test_sampling_is_one_multinomial_draw():
    cfg = reference_config(0.4)
    probs = [post_select(cfg, o).probability for o in OUTCOME_ORDER]
    for n in (1, 5000, 100_001):
        counts = [sample_outcomes(cfg, n, seed=29)[o] for o in OUTCOME_ORDER]
        assert counts == np.random.default_rng(29).multinomial(n, probs).tolist()
        assert sum(counts) == n
    start = time.perf_counter()
    assert sum(sample_outcomes(cfg, 10**12, seed=29).values()) == 10**12
    assert time.perf_counter() - start < 1.0  # the cost does not grow with n
    assert sum(sample_outcomes(cfg, protocol.MAX_SAMPLES, seed=29).values()) == protocol.MAX_SAMPLES
    with pytest.raises(ConfigurationError):
        sample_outcomes(cfg, protocol.MAX_SAMPLES + 1, seed=29)


def test_sampling_rejects_empty_draw():
    with pytest.raises(ConfigurationError):
        sample_outcomes(reference_config(), 0, seed=1)


def test_sampling_rejects_negative_seed():
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        sample_outcomes(reference_config(), 10, seed=-1)


@pytest.mark.parametrize("n, seed", [(10.5, 1), (10.0, 1), (10, 1.5), (10, "3"), ("10", 1), (True, 1), (10, False)])
def test_sampling_rejects_non_integral_count_and_seed(n, seed):
    # 10.5 used to pass the range check and numpy drew 10 samples; True drew one
    with pytest.raises(ConfigurationError, match="must be an integer"):
        sample_outcomes(reference_config(), n, seed=seed)


def test_sampling_accepts_numpy_integers():
    counts = sample_outcomes(reference_config(), np.int64(5), seed=np.uint32(3))
    assert counts == sample_outcomes(reference_config(), 5, seed=3)
    assert sum(counts.values()) == 5


@settings(max_examples=80, deadline=None)
@given(a=QUBIT, b=QUBIT, phi=st.floats(allow_nan=False, allow_infinity=False))
def test_post_select_reads_the_branch_kernel(a, b, phi):
    cfg = ProtocolConfig(qubit_spec(a), qubit_spec(b), phi)
    p, (f0, f1) = cfg.weights()
    phase = np.exp(1j * phi)
    branches = {"phi": protocol._branch(p, (f0, f1), phase), "psi": protocol._branch(p, (f1, f0), phase)}
    probabilities = {"phi": p[0] * f0 + p[1] * f1, "psi": p[0] * f1 + p[1] * f0}
    slots = {"phi": [0, 3], "psi": [1, 2]}
    for outcome in OUTCOME_ORDER:
        name, sign = outcome.value.split("_")
        first, second = branches[name]
        result = post_select(cfg, outcome)
        assert result.probability == 0.5 * success_probability(cfg, name) == 0.5 * probabilities[name]
        expected = np.zeros(4, dtype=complex)
        expected[slots[name]] = first, second if sign == "plus" else -second
        assert np.array_equal(result.state.amps, expected)
        slow = post_select_oracle(cfg, outcome)
        assert abs(result.probability - slow.probability) <= 1e-12
        assert np.abs(result.state.amps - slow.state.amps).max() <= 1e-12
    for name in ("phi", "psi"):
        pair = [post_select(cfg, o).probability for o in OUTCOME_ORDER if o.value.startswith(name)]
        assert success_probability(cfg, name) == probabilities[name] == sum(pair)


def test_config_computes_its_weights_once(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for module in (thermal, protocol, interference):
        for name in ("gibbs_weights", "_shifted_gibbs", "_qubit_weights"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(getattr(module, name)))
    cfg = reference_config(0.4)
    assert calls
    calls.clear()
    for outcome in OUTCOME_ORDER:
        post_select(cfg, outcome)
    success_probability(cfg, "phi")
    success_probability(cfg, "psi")
    sample_outcomes(cfg, 1000, seed=3)
    interference.closed_form_probability(cfg)
    assert calls == []


def test_qubit_paths_never_build_a_level_array_or_gibbs_weights():
    # the qubit weights are read from the energies tuple as Python floats; no array is built for two levels
    cfg = reference_config(0.4)
    for outcome in OUTCOME_ORDER:
        post_select(cfg, outcome)
    sample_outcomes(cfg, 1000, seed=3)
    interference.sweep(interference.SweepSpec(cfg, np.linspace(0.0, 2.0 * np.pi, 11), (0.5, 1.0)))
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        for convention in ("full_dependence", "chosen_zero_levels"):
            residual_superposition(cfg, outcome, convention)
    for spec in (cfg.spec_a, cfg.spec_b):
        assert "_levels" not in vars(spec.hamiltonian) and "_gibbs" not in vars(spec)


def test_probabilities_form_no_branch_amplitudes(monkeypatch):
    def refused(*args):
        raise AssertionError("the branch amplitudes were formed")

    cfg = reference_config(0.4)
    monkeypatch.setattr(protocol, "_branch", refused)
    monkeypatch.setattr(interference, "_branch", refused)
    assert success_probability(cfg, "phi") + success_probability(cfg, "psi") == pytest.approx(1.0, abs=EQ_TOL)
    assert sum(sample_outcomes(cfg, 1000, seed=3).values()) == 1000
    assert 0.0 <= interference.closed_form_probability(cfg) <= 1.0
    with pytest.raises(AssertionError, match="amplitudes were formed"):
        post_select(cfg, BellOutcome.PHI_PLUS)


# A at beta 1 on levels (5, 0), B at beta 1 on (0, 1): the phi and psi branches differ, so a string misread as
# some outcome shows; an unchecked post_select took "phi_plus" for psi- (probability 0.36398, not 0.13602)
_SKEWED = ProtocolConfig(
    ThermalSpec(1.0, QuditHamiltonian((5.0, 0.0))), ThermalSpec(1.0, QuditHamiltonian((0.0, 1.0))), 0.3
)


@pytest.mark.parametrize("outcome", ["phi_plus", "PSI_MINUS", 0, None])
@pytest.mark.parametrize("route", [post_select, post_select_oracle])
def test_post_selection_refuses_a_non_outcome(route, outcome):
    with pytest.raises(ConfigurationError, match="outcome must be a BellOutcome") as info:
        route(_SKEWED, outcome)
    assert "\n" not in str(info.value)
    with pytest.raises(ConfigurationError, match="outcome must be a BellOutcome"):
        bell_state(outcome)
    assert post_select(_SKEWED, BellOutcome.PHI_PLUS).probability == pytest.approx(0.136017, abs=1e-6)


@settings(max_examples=80, deadline=None)
@given(a=QUBIT, b=QUBIT, phi=st.floats(0.0, 2 * math.pi))
def test_every_route_is_finite_and_sums_to_one(a, b, phi):
    cfg = ProtocolConfig(qubit_spec(a), qubit_spec(b), phi)
    probabilities = [post_select(cfg, o).probability for o in OUTCOME_ORDER]
    assert all(math.isfinite(p) for p in probabilities)
    assert abs(sum(probabilities) - 1.0) <= EQ_TOL
    assert abs(success_probability(cfg, "phi") + success_probability(cfg, "psi") - 1.0) <= EQ_TOL
    for spec in (cfg.spec_a, cfg.spec_b):
        assert abs(purify(spec).norm() - 1.0) <= EQ_TOL
