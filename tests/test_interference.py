import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermosim import interference, protocol
from thermosim import (
    ConfigurationError,
    ProtocolConfig,
    QuditHamiltonian,
    SweepSpec,
    ThermalSpec,
    circuit_probability,
    closed_form_probability,
    sweep,
)
from thermosim.interference import _readout_probability
from thermosim.qcore import EQ_TOL

from helpers import (
    REF_CIRCUIT_P0,
    REF_PAPER_CONVENTION_P0,
    reference_config,
    random_in_regime_config,
    random_protocol_config,
    symmetric_config,
)


def test_quarter_period_phase_gives_half():
    for cfg in (reference_config(np.pi / 2), symmetric_config(np.pi / 2), reference_config(3 * np.pi / 2)):
        assert abs(circuit_probability(cfg) - 0.5) < EQ_TOL


def test_bell_state_gives_certain_outcome():
    assert circuit_probability(symmetric_config(0.0)) == pytest.approx(1.0, abs=EQ_TOL)
    # near p0 f0 = p1 f1 the read-out's unclipped sum of squares rounds to 1 + 2^-52
    near_one = ProtocolConfig(
        ThermalSpec(2.205301469581885, QuditHamiltonian((0.7515344621903853, 0.0))),
        ThermalSpec(2.20500834743658, QuditHamiltonian((0.0, 0.7516343672062027))),
        2.1929547198505437e-08,
    )
    assert sweep(SweepSpec(near_one, (near_one.phi,)))[0][2] <= 1.0


def test_circuit_reference_value():
    assert circuit_probability(reference_config(0.0)) == pytest.approx(REF_CIRCUIT_P0, abs=EQ_TOL)


def test_circuit_probability_stays_in_range():
    rng = np.random.default_rng(73)
    for _ in range(50):
        prob = circuit_probability(random_protocol_config(rng))
        assert 0.0 <= prob <= 1.0


def test_circuit_probability_is_periodic():
    from dataclasses import replace

    rng = np.random.default_rng(79)
    for _ in range(10):
        cfg = random_protocol_config(rng)
        shifted = replace(cfg, phi=cfg.phi + 2 * np.pi)
        assert abs(circuit_probability(cfg) - circuit_probability(shifted)) < EQ_TOL


def test_corrected_closed_form_matches_circuit():
    rng = np.random.default_rng(83)
    for _ in range(50):
        cfg = random_in_regime_config(rng)
        assert abs(closed_form_probability(cfg, "corrected") - circuit_probability(cfg)) < EQ_TOL


def test_closed_form_reference_values():
    cfg = reference_config(0.0)
    assert closed_form_probability(cfg, "corrected") == pytest.approx(REF_CIRCUIT_P0, abs=EQ_TOL)
    assert closed_form_probability(cfg, "paper") == pytest.approx(REF_PAPER_CONVENTION_P0, abs=EQ_TOL)
    # the conventions differ by exactly half the fringe amplitude
    half_fringe = closed_form_probability(cfg, "corrected") - closed_form_probability(cfg, "paper")
    assert closed_form_probability(cfg, "paper") == pytest.approx(0.5 + half_fringe, abs=EQ_TOL)


def test_closed_form_quarter_period_is_half_in_both_conventions():
    cfg = reference_config(np.pi / 2)
    assert abs(closed_form_probability(cfg, "corrected") - 0.5) < EQ_TOL
    assert abs(closed_form_probability(cfg, "paper") - 0.5) < EQ_TOL


def test_closed_form_out_of_regime_is_rejected():
    rng = np.random.default_rng(89)
    cfg = random_protocol_config(rng)  # E1 and E0' almost surely nonzero
    with pytest.raises(ConfigurationError):
        closed_form_probability(cfg, "corrected")


def test_closed_form_rejects_unknown_convention():
    with pytest.raises(ConfigurationError):
        closed_form_probability(reference_config(), "exact")


def test_visibility_bound():
    # fringe coefficient 2*sqrt(p0 f0 p1 f1)/N^2 <= 1, with equality iff
    # p0 f0 = p1 f1; the bound shows up as P(0) <= 1
    rng = np.random.default_rng(97)
    for _ in range(50):
        cfg = random_in_regime_config(rng)
        (p0, p1), (f0, f1) = cfg.weights()
        coeff = 2 * np.sqrt(p0 * f0 * p1 * f1) / (p0 * f0 + p1 * f1)
        assert coeff <= 1 + 1e-14
        if abs(p0 * f0 - p1 * f1) > 1e-6:
            assert coeff < 1.0
    assert circuit_probability(symmetric_config(0.0)) == pytest.approx(1.0, abs=EQ_TOL)


def test_sweep_reference_rows():
    spec = SweepSpec(reference_config(), (0.0, np.pi / 2, np.pi))
    rows = sweep(spec)
    assert [(phi, beta_b) for phi, beta_b, _ in rows] == [(0.0, 1.0), (np.pi / 2, 1.0), (np.pi, 1.0)]
    probs = [p for _, _, p in rows]
    np.testing.assert_allclose(probs, [REF_CIRCUIT_P0, 0.5, 1 - REF_CIRCUIT_P0], atol=1e-12)
    assert abs(probs[0] + probs[2] - 1.0) < EQ_TOL


def test_sweep_single_point():
    rows = sweep(SweepSpec(reference_config(), (np.pi / 2,)))
    assert len(rows) == 1
    assert rows[0][:2] == (np.pi / 2, 1.0)
    assert rows[0][2] == pytest.approx(0.5, abs=EQ_TOL)


def test_a_sweep_without_an_axis_sweeps_the_configs_own_beta_b():
    # the default axis is (cfg.spec_b.beta,), read through the same code as an explicit one
    phis = np.linspace(0.0, 2 * np.pi, 7)
    for cfg in (reference_config(0.4), random_protocol_config(np.random.default_rng(101))):
        spec = SweepSpec(cfg, phis)
        assert spec.beta_b_values == (cfg.spec_b.beta,) and spec._weights_b.shape == (2, 1, 1)
        rows = sweep(spec)
        assert np.array(rows).tobytes() == np.array(sweep(SweepSpec(cfg, phis, (cfg.spec_b.beta,)))).tobytes()
        assert [(phi, beta_b) for phi, beta_b, _ in rows] == [(phi, cfg.spec_b.beta) for phi in phis.tolist()]
        assert all(type(x) is float for row in rows for x in row)


def test_sweep_beta_axis_row_order_and_values():
    spec = SweepSpec(reference_config(), (0.0, np.pi), beta_b_values=(0.5, 1.0, 2.0))
    rows = sweep(spec)
    assert [(phi, b) for phi, b, _ in rows] == [
        (0.0, 0.5), (np.pi, 0.5), (0.0, 1.0), (np.pi, 1.0), (0.0, 2.0), (np.pi, 2.0)
    ]
    # frozen from the independent circuit oracle; for these parameters
    # p0 f0 << p1 f1, so shrinking f1 moves the products closer together and
    # the visibility (hence P(0)) grows with beta_B
    at_zero = [p for phi, _, p in rows if phi == 0.0]
    np.testing.assert_allclose(
        at_zero, [0.604241209328294, 0.6329011144170397, 0.71254801747114], atol=1e-12
    )
    assert at_zero[0] < at_zero[1] < at_zero[2]


def test_sweep_visibility_falls_once_products_cross():
    # beyond p0 f0 = p1 f1 (around beta_B = 5.1 here) the direction reverses
    spec = SweepSpec(reference_config(), (0.0,), beta_b_values=(6.0, 8.0, 10.0))
    at_zero = [p for _, _, p in sweep(spec)]
    assert at_zero[0] > at_zero[1] > at_zero[2]


def test_sweep_spec_validation():
    with pytest.raises(ConfigurationError):
        SweepSpec(reference_config(), ())
    for phis in ((0.0, float("nan")), (float("inf"),)):
        with pytest.raises(ConfigurationError, match="finite"):
            SweepSpec(reference_config(), phis)
    with pytest.raises(ConfigurationError, match="^beta_b sweep values must be a nonempty sequence$"):
        SweepSpec(reference_config(), (0.0,), beta_b_values=())
    # each axis value is read as a ThermalSpec, so it takes that spec's rule and its message
    for betas in ((1.0, float("nan")), (float("inf"),), (0.5, -1.0), (-0.0, -1e-300)):
        with pytest.raises(ConfigurationError, match=f"^beta must be finite and nonnegative, got {betas[-1]!r}$"):
            SweepSpec(reference_config(), (0.0,), beta_b_values=betas)
    for betas in ((True,), (1.0, "2.0")):
        with pytest.raises(ConfigurationError, match=f"^beta_b sweep values must be real, got {betas[-1]!r}$"):
            SweepSpec(reference_config(), (0.0,), beta_b_values=betas)
    assert SweepSpec(reference_config(), (0.0,), beta_b_values=(np.float32(0.5), 2)).beta_b_values == (0.5, 2.0)
    # the reference B gap is 1, so e^(-1000) underflows to 0.0
    with pytest.raises(ConfigurationError, match="^beta_b sweep value 1000.0 has a Gibbs weight that underflows"):
        SweepSpec(reference_config(), (0.0,), beta_b_values=(1.0, 1000.0))


def test_an_underflowing_axis_value_is_refused_by_its_own_name():
    # the config's spec_b is fine; the refusal names the first axis value whose B weight is 0.0
    cfg = reference_config()
    for betas, named in (((1.0, 1000.0), "1000.0"), ((800.0, 2.0, 1000.0), "800.0"), ((1e308,), "1e+308")):
        with pytest.raises(ConfigurationError) as refused:
            SweepSpec(cfg, (0.0, 1.0), betas)
        assert str(refused.value) == (
            f"beta_b sweep value {named} has a Gibbs weight that underflows to zero; reduce beta or the energy gap"
        )


def test_sweep_spec_keeps_a_read_only_copy_of_the_grid():
    phis = np.array([0.0, 1.0 / 3.0, np.pi])
    spec = SweepSpec(reference_config(), phis, beta_b_values=(0.5, 1.0))
    rows = sweep(spec)
    phis[:] = 7.0  # the caller's array is not the spec's
    assert spec.phi_points.tolist() == [0.0, 1.0 / 3.0, np.pi]
    assert spec.phi_points.dtype == np.float64
    with pytest.raises(ValueError):
        spec.phi_points[0] = 1.0
    assert sweep(spec) == rows
    assert [phi for phi, _, _ in rows] == [0.0, 1.0 / 3.0, np.pi] * 2
    assert all(type(x) is float for row in rows for x in row)
    default = sweep(SweepSpec(reference_config(), [0.1, 2.0]))
    assert [(phi, beta_b) for phi, beta_b, _ in default] == [(0.1, 1.0), (2.0, 1.0)]
    assert all(type(x) is float for row in default for x in row)


def test_sweep_specs_compare_by_identity():
    spec = SweepSpec(reference_config(), (0.0, 1.0))
    assert spec == spec and hash(spec) == hash(spec)
    assert spec != SweepSpec(reference_config(), (0.0, 1.0))


def test_sweep_spec_refuses_a_grid_that_is_not_one_dimensional():
    for phis in (0.5, [[0.0, 1.0]]):
        with pytest.raises(ConfigurationError, match="1-D"):
            SweepSpec(reference_config(), phis)


def test_sweep_spec_refuses_a_config_that_is_not_a_protocol_config():
    # a string or a spec in place of the config raised a raw AttributeError from its first reader
    cfg = reference_config()
    for bad, got in (("x", "str"), (cfg.spec_a, "ThermalSpec"), (None, "NoneType")):
        with pytest.raises(ConfigurationError, match=f"^cfg must be a ProtocolConfig, got {got}$"):
            SweepSpec(bad, [0.0])
    with pytest.raises(ConfigurationError, match="^phi_points"):  # the grid is proven first
        SweepSpec("x", [])


@pytest.mark.parametrize("betas_b", [None, (0.5, 2.0)])
def test_kernel_memory_is_bounded_per_grid_point(betas_b):
    # no per-point 4-amplitude or 2x2 density arrays: a few complex and float arrays over the grid
    spec = SweepSpec(reference_config(), np.linspace(0.0, 2 * np.pi, 10**5), betas_b)
    phis = spec.phi_points
    tracemalloc.start()
    try:
        probs = _readout_probability(spec.cfg.weights()[0], spec._weights_b, phis)  # as sweep calls it
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probs.shape == (len(spec.beta_b_values), phis.size)
    assert peak <= 64 * probs.size


# beta*gap log-uniform in [1e-3, 700], short of the ~745 underflow edge
_BETA_GAP = st.floats(math.log(1e-3), math.log(700.0)).map(math.exp)
# two levels a gap apart, at a random offset and in either order
_LEVELS = st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 6.0), st.booleans()).map(
    lambda t: (t[0] + t[1], t[0]) if t[2] else (t[0], t[0] + t[1])
)


def _gap(levels):
    return abs(levels[1] - levels[0])


# absolute, since near a dark fringe the two routes share no relative digits: a targeted hypothesis
# search over these strategies (80000 examples, half of them with every phi within 1e-3 of pi) against
# the scalar circuit on the Bell-contraction oracle's state found at most 4.5 eps, a 1.8x margin
_KERNEL_CIRCUIT_TOL = 8 * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(
    levels_a=_LEVELS,
    levels_b=_LEVELS,
    beta_gap_a=_BETA_GAP,
    beta_gaps_b=st.lists(_BETA_GAP, min_size=1, max_size=3),
    phis=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
)
# a dark-fringe draw whose two routes differ in the 9th significant digit (by -1.26e-17)
@example(levels_a=(0.0, 1.0), levels_b=(1.0, 0.0), beta_gap_a=1.0, beta_gaps_b=[1.0], phis=[3.141629031370778])
def test_kernel_matches_scalar_circuit(levels_a, levels_b, beta_gap_a, beta_gaps_b, phis):
    beta_a = beta_gap_a / _gap(levels_a)
    betas_b = [x / _gap(levels_b) for x in beta_gaps_b]
    spec_a = ThermalSpec(beta_a, QuditHamiltonian(levels_a))
    cfg = ProtocolConfig(spec_a, ThermalSpec(betas_b[0], QuditHamiltonian(levels_b)))
    spec = SweepSpec(cfg, phis, betas_b)
    grid = _readout_probability(cfg.weights()[0], spec._weights_b, spec.phi_points)  # as sweep calls it
    assert grid.shape == (len(betas_b), len(phis))
    # without an axis the sweep reads cfg's own beta_B, betas_b[0]: the first row, bit for bit
    default = [p for _, _, p in sweep(SweepSpec(cfg, phis))]
    assert np.array(default).tobytes() == grid[0].tobytes()
    for row, beta_b in zip(grid, betas_b):
        spec_b = ThermalSpec(beta_b, QuditHamiltonian(levels_b))
        for got, phi in zip(row, phis):
            want = circuit_probability(ProtocolConfig(spec_a, spec_b, phi))
            assert abs(got - want) <= _KERNEL_CIRCUIT_TOL


def test_kernel_takes_a_zero_dimensional_phase():
    # a 0-d phase makes every intermediate a numpy scalar, which the in-place guard cannot write to
    cfg = reference_config(0.4)
    p, f = cfg.weights()
    (want,) = _readout_probability(p, f, np.array([cfg.phi]))
    for phi in (cfg.phi, np.float64(cfg.phi), np.array(cfg.phi)):
        got = _readout_probability(p, f, phi)
        assert type(got) is np.ndarray and got.shape == () and got.tobytes() == want.tobytes()
    assert abs(float(got) - circuit_probability(cfg)) <= _KERNEL_CIRCUIT_TOL


def test_an_infinite_temperature_axis_row_is_the_circuit_at_beta_b_zero():
    # beta_B = 0, which every ThermalSpec takes, is a valid axis value: B's weights are (1/2, 1/2)
    cfg = reference_config(0.4)
    phis = np.linspace(0.0, 2 * np.pi, 9)
    spec = SweepSpec(cfg, phis, (0.0, 1.0))
    assert spec.beta_b_values == (0.0, 1.0)
    hot = ProtocolConfig(cfg.spec_a, ThermalSpec(0.0, cfg.spec_b.hamiltonian))
    assert hot.weights()[1] == (0.5, 0.5)
    rows = [(phi, p) for phi, beta_b, p in sweep(spec) if beta_b == 0.0]
    assert [phi for phi, _ in rows] == phis.tolist()
    for phi, got in rows:
        want = circuit_probability(ProtocolConfig(cfg.spec_a, hot.spec_b, phi))
        assert abs(got - want) <= _KERNEL_CIRCUIT_TOL


def test_scalar_circuit_shares_no_branch_kernel_with_the_batched_kernel(monkeypatch):
    # a slip in the branch kernel's phase keeps unit norm, so every state check passes; the
    # scalar circuit reads the brute-force post-selected state and must not move with it
    branch = protocol._branch

    def slipped(p, f, phase):
        first, second = branch(p, f, phase)
        return first, second * np.exp(1e-6j)

    monkeypatch.setattr(protocol, "_branch", slipped)
    monkeypatch.setattr(interference, "_branch", slipped)
    cfg = reference_config(0.4)
    spec = SweepSpec(cfg, (cfg.phi,))
    ((got,),) = _readout_probability(cfg.weights()[0], spec._weights_b, spec.phi_points)  # as sweep calls it
    assert abs(got - circuit_probability(cfg)) > 1e-9
