import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert [phi for phi, _ in rows] == [0.0, np.pi / 2, np.pi]
    probs = [p for _, p in rows]
    np.testing.assert_allclose(probs, [REF_CIRCUIT_P0, 0.5, 1 - REF_CIRCUIT_P0], atol=1e-12)
    assert abs(probs[0] + probs[2] - 1.0) < EQ_TOL


def test_sweep_single_point():
    rows = sweep(SweepSpec(reference_config(), (np.pi / 2,)))
    assert len(rows) == 1
    assert rows[0][1] == pytest.approx(0.5, abs=EQ_TOL)


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
    for betas in ((1.0, 0.0), (float("nan"),), (float("inf"),)):
        with pytest.raises(ConfigurationError):
            SweepSpec(reference_config(), (0.0,), beta_b_values=betas)
    # the reference B gap is 1, so e^(-1000) underflows to 0.0
    with pytest.raises(ConfigurationError, match="spec_b has a Gibbs weight that underflows"):
        SweepSpec(reference_config(), (0.0,), beta_b_values=(1.0, 1000.0))


def test_sweep_empty_beta_axis_has_no_rows():
    assert sweep(SweepSpec(reference_config(), (0.0, 1.0), beta_b_values=())) == []


# beta*gap log-uniform in [1e-3, 700], short of the ~745 underflow edge
_BETA_GAP = st.floats(math.log(1e-3), math.log(700.0)).map(math.exp)
# two levels a gap apart, at a random offset and in either order
_LEVELS = st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 6.0), st.booleans()).map(
    lambda t: (t[0] + t[1], t[0]) if t[2] else (t[0], t[0] + t[1])
)


def _gap(levels):
    return abs(levels[1] - levels[0])


@settings(max_examples=60, deadline=None)
@given(
    levels_a=_LEVELS,
    levels_b=_LEVELS,
    beta_gap_a=_BETA_GAP,
    beta_gaps_b=st.lists(_BETA_GAP, min_size=1, max_size=3),
    phis=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
)
def test_kernel_matches_scalar_circuit(levels_a, levels_b, beta_gap_a, beta_gaps_b, phis):
    beta_a = beta_gap_a / _gap(levels_a)
    betas_b = [x / _gap(levels_b) for x in beta_gaps_b]
    grid = _readout_probability(beta_a, levels_a, np.array(betas_b)[:, None], levels_b, np.array(phis))
    assert grid.shape == (len(betas_b), len(phis))
    spec_a = ThermalSpec(beta_a, QuditHamiltonian(levels_a))
    for row, beta_b in zip(grid, betas_b):
        spec_b = ThermalSpec(beta_b, QuditHamiltonian(levels_b))
        for got, phi in zip(row, phis):
            want = circuit_probability(ProtocolConfig(spec_a, spec_b, phi))
            assert abs(got - want) <= 1e-12
            assert f"{got:.9g}" == f"{want:.9g}"
