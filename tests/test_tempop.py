import ast
import math
import re
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermosim import (
    OUTCOME_ORDER,
    SIGMA_Z,
    BellOutcome,
    ConfigurationError,
    EigenReport,
    FactoredBipartiteState,
    ProtocolConfig,
    QuditHamiltonian,
    StateVector,
    ThermalSpec,
    apply,
    apply_inverse_temp_squared,
    eigencheck_purified,
    fidelity_pure,
    partial_trace,
    post_select,
    purified_thermal_state,
    purify,
    qcore,
    residual_superposition,
    superposition_state,
    tempop,
    thermal_density,
)
from thermosim.qcore import EQ_TOL, FD_TOL

from helpers import (
    assert_support_invariant,
    built_state,
    eigen_report,
    purified_terms,
    random_in_regime_config,
    random_thermal_spec,
    reference_config,
    superposition_terms,
    term_amplitude,
    term_value,
)


def _spec(beta, energies):
    return ThermalSpec(beta, QuditHamiltonian(energies))


def _arrays(kets=((0, 1), (0, 1)), **rows):
    """The term arrays for terms on ``kets``: energies and coeffs default to 0 and values to 1, and a scalar row
    is spread over the kets' (2, n) shape."""
    rows = {"energies": 0.0, "coeffs": 0.0, "values": 1.0, **rows}
    return {"kets": kets, **{key: np.full(np.shape(kets), x) if np.isscalar(x) else x for key, x in rows.items()}}


def _diagonal_terms(rng, d):
    """``d`` terms on |n>|n> with coefficients and complex values drawn on both sides, about a quarter of the
    coefficients 0 (constant families): a spread of eigenvalues and right-side values that neither builder
    makes, for the arithmetic the builders share."""
    energies, levels = rng.uniform(-1.5, 1.5, d), np.arange(d)
    coeffs = np.where(rng.random((2, d)) < 0.25, 0.0, rng.uniform(-1.0, 1.0, (2, d)))
    values = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
    return dict(kets=(levels, levels), energies=(energies, energies), coeffs=coeffs, values=values)


# --- state construction and validation -------------------------------------

def test_purified_thermal_state_matches_purification():
    from thermosim import purify

    spec = _spec(1.4, (2.0, -1.0, 0.5))
    vec = purified_thermal_state(spec).amplitude_vector()
    assert fidelity_pure(vec, purify(spec)) > 1 - EQ_TOL


def test_factored_state_divides_by_its_own_norm():
    # two unit terms sum to Z = 2, so each amplitude is 1/sqrt(2)
    amps = built_state(_arrays()).amplitude_vector().amps
    assert np.array_equal(amps, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def test_factored_state_refuses_an_overflowing_family():
    # e^1000 overflows; the normalization check refuses it, with no numpy RuntimeWarning
    terms = _arrays(energies=((1.0, 0.0), (1.0, 0.0)), coeffs=((1000.0, 1.0), (1.0, 1.0)))
    with pytest.raises(ConfigurationError, match="^normalization overflows or vanishes"):
        built_state(terms)
    # a NaN amplitude makes a NaN normalization
    with pytest.raises(ConfigurationError, match=f"^{re.escape(_NORMALIZATION)}$"):
        built_state(_arrays(values=((complex("nan"), 1.0), (1.0, 1.0))))


@pytest.mark.filterwarnings("error")
def test_factored_state_refuses_a_subnormal_normalization():
    # |2^-511|^2 = 2^-1022 is the smallest normal float; |2^-512|^2 = 2^-1024 is subnormal
    def state(value):
        return built_state(_arrays(values=((value, 0.0), (1.0, 1.0))))

    assert 2.0**-1022 == sys.float_info.min
    assert np.array_equal(state(2.0**-511).amplitude_vector().amps, [1.0, 0.0, 0.0, 0.0])
    for value in (2.0**-512, 2.0**-600, 0.0):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(_NORMALIZATION)}$"):
            state(value)


@pytest.mark.parametrize("args, kwargs", [
    pytest.param((), {}, id="no arguments"),
    pytest.param(((2, 2),), {}, id="dims"),
    pytest.param((), purified_terms(_spec(1.0, (0.0, 1.0))), id="term arrays"),
])
def test_factored_state_has_no_public_constructor(args, kwargs):
    # a factored state is only ever a result; object's own constructor would hand back a value with no terms
    with pytest.raises(TypeError, match="^FactoredBipartiteState has no public constructor: it is a result of "
                                        "purified_thermal_state or superposition_state$"):
        FactoredBipartiteState(*args, **kwargs)


# --- operator action --------------------------------------------------------

def test_purified_state_is_eigenvector():
    spec = _spec(2.0, (5.0, 0.0))
    state = purified_thermal_state(spec)
    psi = state.amplitude_vector().amps
    image = apply_inverse_temp_squared(state).amps
    np.testing.assert_allclose(image, 0.25 * psi, atol=1e-14)


def test_constant_bell_state_maps_to_zero():
    half = 1 / np.sqrt(2)
    state = built_state(_arrays(values=((half, half), (1.0, 1.0))))
    image = apply_inverse_temp_squared(state)
    assert image.norm() == 0.0


def test_finite_difference_matches_analytic_per_component():
    rng = np.random.default_rng(103)
    for _ in range(20):
        spec = random_thermal_spec(rng, beta_max=20.0)
        state = purified_thermal_state(spec)
        analytic = apply_inverse_temp_squared(state).amps
        fd = apply_inverse_temp_squared(state, fd_step=1e-5).amps
        assert np.max(np.abs(analytic - fd)) < FD_TOL


def test_fd_step_must_be_positive():
    state = purified_thermal_state(_spec(1.0, (0.0, 1.0)))
    for bad in (0.0, -1e-5, float("inf"), float("nan")):
        with pytest.raises(ConfigurationError):
            apply_inverse_temp_squared(state, fd_step=bad)
        with pytest.raises(ConfigurationError):
            eigencheck_purified(_spec(1.0, (0.0, 1.0)), fd_step=bad)


def test_fd_step_must_resolve_the_energies():
    # below 1e-8 * max(1, max|E|) the central difference cannot resolve the step
    state = purified_thermal_state(_spec(1.0, (0.0, -200.0)))
    for bad in (1e-300, 1e-9, 1.9e-6):
        with pytest.raises(ConfigurationError, match="cannot resolve the energies"):
            apply_inverse_temp_squared(state, fd_step=bad)
    apply_inverse_temp_squared(state, fd_step=2e-6)
    with pytest.raises(ConfigurationError, match="below 1e-08"):  # energies below 1 keep the floor at 1e-8
        eigencheck_purified(_spec(1.0, (0.0, 0.5)), fd_step=9e-9)
    assert eigencheck_purified(_spec(1.0, (0.0, 0.5)), fd_step=1e-8).expected == 1.0 / 16.0


def test_overflowing_finite_difference_reports_nan():
    # e^(E + h) overflows: the report carries NaN for the gate to refuse,
    # and no numpy RuntimeWarning escapes
    report = eigencheck_purified(_spec(1.0, (-2.0, -3.0, 0.5)), fd_step=1e300)
    assert np.isnan(report.rayleigh) and np.isnan(report.residual)


@pytest.mark.parametrize("fd_step", [None, 1e-5])
def test_eigencheck_refuses_an_overflowing_expected_value(fd_step):
    # the state is fine, but beta^2 overflows a float once beta passes about 1.3e154
    with pytest.raises(ConfigurationError, match=r"beta\^2/16 overflows; reduce beta"):
        eigencheck_purified(_spec(1e200, (0.0, 0.0)), fd_step=fd_step)


# --- eigencheck ---------------------------------------------------------------

def test_eigencheck_reference_cases():
    report = eigencheck_purified(_spec(2.0, (5.0, 0.0)))
    assert report.expected == pytest.approx(0.25)
    assert report.rayleigh == pytest.approx(0.25, abs=1e-10)
    assert report.residual <= 1e-10

    rng = np.random.default_rng(107)
    report = eigencheck_purified(_spec(0.7, tuple(rng.uniform(-5, 5, 3))))
    assert report.rayleigh == pytest.approx(0.030625, abs=1e-10)

    report = eigencheck_purified(_spec(0.0, (1.0, 2.0, 3.0, 4.0)))
    assert report.rayleigh == 0.0
    assert report.residual <= 1e-12


def test_eigencheck_randomized():
    rng = np.random.default_rng(109)
    for _ in range(40):
        spec = random_thermal_spec(rng, beta_max=20.0)
        analytic = eigencheck_purified(spec)
        expected = spec.beta**2 / 16.0
        assert abs(analytic.rayleigh - expected) <= 1e-10
        assert analytic.residual <= 1e-10
        fd = eigencheck_purified(spec, fd_step=1e-5)
        assert abs(fd.rayleigh - expected) <= FD_TOL
        assert fd.residual <= FD_TOL


def test_finite_difference_error_decays_quadratically():
    # measured against the analytic eigenvalue: for an exact eigenvector the
    # finite-difference image is exactly proportional to the state, so the
    # deviation from beta^2/16 is the only h-dependent error
    spec = _spec(1.3, (1.0, -2.0, 0.5))
    state = purified_thermal_state(spec)
    psi = state.amplitude_vector().amps
    lam = spec.beta**2 / 16.0
    resid = {
        h: np.linalg.norm(apply_inverse_temp_squared(state, fd_step=h).amps - lam * psi)
        for h in (1e-3, 1e-4, 1e-5)
    }
    assert resid[1e-3] > resid[1e-4] > resid[1e-5]
    assert 50 < resid[1e-3] / resid[1e-4] < 200
    assert resid[1e-4] / resid[1e-5] > 5


def test_operator_is_symmetric_on_shared_structures():
    # <phi|K psi> = conj(<psi|K phi>) when the two states share families and
    # energies and differ only in their left families' constant values
    rng = np.random.default_rng(113)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        energies = rng.uniform(-2, 2, d)
        coeffs = rng.uniform(-1, 1, (d, 2))

        def build(values):
            levels = np.arange(d)
            return built_state(dict(kets=(levels, levels), energies=(energies, energies), coeffs=coeffs.T,
                                    values=(values, np.ones(d))))

        first = build(rng.normal(size=d) + 1j * rng.normal(size=d))
        second = build(rng.normal(size=d) + 1j * rng.normal(size=d))
        lhs = np.vdot(first.amplitude_vector().amps, apply_inverse_temp_squared(second).amps)
        rhs = np.vdot(second.amplitude_vector().amps, apply_inverse_temp_squared(first).amps)
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-10)


# --- post-selected two-temperature states ----------------------------------

def test_full_dependence_reports_product_eigenvalue():
    rng = np.random.default_rng(131)
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        for _ in range(15):
            cfg = random_in_regime_config(rng)
            report = residual_superposition(cfg, outcome, "full_dependence")
            expected = cfg.spec_a.beta * cfg.spec_b.beta / 4.0
            assert report.expected == pytest.approx(expected)
            assert report.rayleigh == pytest.approx(expected, abs=1e-10)
            assert report.residual <= 1e-10


def test_chosen_zero_levels_annihilates_phi_plus():
    rng = np.random.default_rng(137)
    for _ in range(15):
        cfg = random_in_regime_config(rng)
        state = superposition_state(cfg, BellOutcome.PHI_PLUS, "chosen_zero_levels")
        assert apply_inverse_temp_squared(state).norm() == 0.0
        report = residual_superposition(cfg, BellOutcome.PHI_PLUS, "chosen_zero_levels")
        assert report.rayleigh == 0.0
        assert report.residual == 0.0
        assert report.expected is None


def test_chosen_zero_levels_leaves_one_psi_term():
    # for psi+ the pinned levels sit in the same term, so the other term
    # survives and the state is genuinely not an eigenvector
    cfg = reference_config(phi=0.4)
    state = superposition_state(cfg, BellOutcome.PSI_PLUS, "chosen_zero_levels")
    psi = state.amplitude_vector().amps
    image = apply_inverse_temp_squared(state).amps
    scale = cfg.spec_a.beta * cfg.spec_b.beta / 4.0
    np.testing.assert_allclose(image, [0, scale * psi[1], 0, 0], atol=1e-14)
    report = residual_superposition(cfg, BellOutcome.PSI_PLUS, "chosen_zero_levels")
    occupancy = abs(psi[1]) ** 2
    assert report.rayleigh == pytest.approx(scale * occupancy, rel=1e-10)
    assert report.residual == pytest.approx(
        scale * np.sqrt(occupancy * (1 - occupancy)), rel=1e-8
    )


def test_superposition_state_matches_post_selection():
    from thermosim import post_select

    rng = np.random.default_rng(139)
    for outcome in OUTCOME_ORDER:
        for _ in range(10):
            cfg = random_in_regime_config(rng)
            factored = superposition_state(cfg, outcome, "full_dependence")
            direct = post_select(cfg, outcome).state
            assert fidelity_pure(factored.amplitude_vector(), direct) > 1 - EQ_TOL


def test_purified_thermal_through_superposition_path():
    # a symmetric configuration with half the inverse temperature on each
    # side rebuilds the purified Gibbs state, eigenvalue included
    ham = QuditHamiltonian((2.0, -1.0))
    beta = 1.8
    spec = ThermalSpec(beta, ham)
    from thermosim import ProtocolConfig

    cfg = ProtocolConfig(ThermalSpec(beta / 2, ham), ThermalSpec(beta / 2, ham), 0.0)
    factored = superposition_state(cfg, BellOutcome.PHI_PLUS, "full_dependence")
    assert fidelity_pure(
        factored.amplitude_vector(), purified_thermal_state(spec).amplitude_vector()
    ) > 1 - EQ_TOL
    report = residual_superposition(cfg, BellOutcome.PHI_PLUS, "full_dependence")
    reference = eigencheck_purified(spec)
    assert report.rayleigh == pytest.approx(reference.rayleigh, abs=1e-12)
    assert report.rayleigh == pytest.approx(beta**2 / 16.0, abs=1e-12)
    assert report.residual <= 1e-12


def test_superposition_state_error_paths():
    cfg = reference_config()
    # phi- and psi- are built too, and each reports its plus outcome's values
    for minus, plus in _MINUS_PLUS:
        report = residual_superposition(cfg, minus, "full_dependence")
        assert report == residual_superposition(cfg, plus, "full_dependence")
    with pytest.raises(ConfigurationError):
        residual_superposition(cfg, BellOutcome.PHI_PLUS, "frozen")
    from dataclasses import replace

    out_of_regime = replace(cfg, spec_a=ThermalSpec(1.0, QuditHamiltonian((5.0, 0.3))))
    with pytest.raises(ConfigurationError):
        superposition_state(out_of_regime, BellOutcome.PHI_PLUS, "chosen_zero_levels")


# --- term-space reports against their dense counterparts --------------------

def _assert_report_matches_dense(report, state, fd_step=None):
    psi = state.amplitude_vector().amps
    image = apply_inverse_temp_squared(state, fd_step=fd_step).amps
    rayleigh = float(np.vdot(psi, image).real)
    residual = float(np.linalg.norm(image - rayleigh * psi))
    tol = 1e-12 * max(1.0, abs(rayleigh))
    assert abs(report.rayleigh - rayleigh) <= tol
    assert abs(report.residual - residual) <= tol


@pytest.mark.parametrize("fd_step", [None, 1e-5])
def test_purified_reports_match_dense(fd_step):
    rng = np.random.default_rng(151)
    for d in (2, 3, 8, 64):
        for _ in range(5):
            spec = random_thermal_spec(rng, beta_max=20.0, dims=(d, d))
            report = eigencheck_purified(spec, fd_step=fd_step)
            _assert_report_matches_dense(report, purified_thermal_state(spec), fd_step)


@pytest.mark.parametrize("outcome", OUTCOME_ORDER)
@pytest.mark.parametrize("convention", ["full_dependence", "chosen_zero_levels"])
def test_superposition_reports_match_dense(outcome, convention):
    rng = np.random.default_rng(163)
    for _ in range(10):
        cfg = random_in_regime_config(rng)
        report = residual_superposition(cfg, outcome, convention)
        _assert_report_matches_dense(report, superposition_state(cfg, outcome, convention))


def _scalar_views(terms, dims, fd_step=None):
    """Dense psi and operator image of the term arrays ``terms`` on ``dims`` from the per-term oracle, term by term.

    In closed form a term's image is lambda_t psi_t, with lambda_t = coeff_L * coeff_R; with
    ``fd_step`` it is the central-difference response over sqrt(Z), the term's value times each
    family's slope, the difference of its exponentials.  Every product is taken between
    1-element arrays, as the oracle takes it.
    """
    def slope(side, t):
        coeff, energy = (terms[key][side][t] for key in ("coeffs", "energies"))
        above, below = (np.exp(np.array([coeff * at])) for at in (energy + fd_step, energy - fd_step))
        return (above - below) / (2.0 * fd_step)

    kets, coeffs = terms["kets"], terms["coeffs"]
    n = len(kets[0])
    # Z summed as numpy sums the term amplitudes, in term order
    root = np.sqrt(np.add.reduce(np.abs(np.array([term_amplitude(terms, t) for t in range(n)])) ** 2))
    psi = np.zeros(dims, dtype=complex)
    image = np.zeros(dims, dtype=complex)
    for t in range(n):
        ket = kets[0][t], kets[1][t]
        psi[ket] = term_amplitude(terms, t)
        if fd_step is not None:
            image[ket] = (term_value(terms, t) * slope(0, t) * slope(1, t))[0]
    psi, image = psi / root, image / root
    if fd_step is None:
        for t in range(n):
            ket = kets[0][t], kets[1][t]
            image[ket] = coeffs[0][t] * coeffs[1][t] * psi[ket]
    return psi.reshape(-1), image.reshape(-1)


def test_array_evaluation_equals_the_scalar_families():
    # the families are evaluated over term arrays; the arithmetic is the per-term oracle's own,
    # on the formula terms of each builder, so the values must agree bit for bit
    rng = np.random.default_rng(173)
    states = []
    for _ in range(8):
        spec = random_thermal_spec(rng, beta_max=20.0, dims=(2, 64))
        states.append((purified_thermal_state(spec), purified_terms(spec)))
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        for convention in ("full_dependence", "chosen_zero_levels"):
            cfg = random_in_regime_config(rng)
            states.append((superposition_state(cfg, outcome, convention),
                           superposition_terms(cfg, outcome, convention)))
    # families whose values are not real on either side, built from their term arrays: numpy's scalar
    # product of two complex numbers may round differently from its array product, which the oracle takes
    for _ in range(16):
        terms = _diagonal_terms(rng, int(rng.integers(2, 6)))
        states.append((built_state(terms), terms))
    for state, terms in states:
        for fd_step in (None, 1e-5):
            psi, image = _scalar_views(terms, state.dims, fd_step)
            assert np.array_equal(state.amplitude_vector().amps, psi)
            assert np.array_equal(apply_inverse_temp_squared(state, fd_step=fd_step).amps, image)


def test_eigen_path_builds_no_dense_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense array built on the eigen path")

    monkeypatch.setattr(FactoredBipartiteState, "amplitude_vector", refuse)
    monkeypatch.setattr(tempop, "apply_inverse_temp_squared", refuse)
    spec = _spec(1.0, tuple(np.random.default_rng(167).uniform(-5.0, 5.0, 4096)))
    for fd_step in (None, 1e-5):
        report = eigencheck_purified(spec, fd_step=fd_step)
        assert abs(report.rayleigh - 1.0 / 16.0) <= FD_TOL
    cfg = reference_config(phi=0.4)
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        for convention in ("full_dependence", "chosen_zero_levels"):
            residual_superposition(cfg, outcome, convention)


def test_analytic_eigencheck_peak_is_five_and_a_half_level_arrays():
    # the purified state's one shared family is exponentiated once, n floats, and each term carries one
    # value, so the analytic eigencheck's own peak stays at or below 5.5 float64 arrays of the d levels; the
    # spec and its Hamiltonian, whose level array it builds at this d, are made before tracing starts
    d = 10**5
    spec = _spec(0.7, tuple(np.random.default_rng(181).uniform(-5.0, 5.0, d)))
    tracemalloc.start()
    try:
        report = eigencheck_purified(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (report.rayleigh, report.residual) == (0.7**2 / 16.0, 0.0)
    assert peak <= 5.5 * 8 * d


def test_purified_state_at_the_overflow_edge():
    # Z = e^(-beta*E_min) * (1 + ...) is finite at -beta*E_min = 700 and
    # overflows at 720
    state = purified_thermal_state(_spec(700.0, (-1.0, 0.5)))
    assert abs(state.amplitude_vector().norm() - 1.0) <= EQ_TOL
    with pytest.raises(ConfigurationError):
        purified_thermal_state(_spec(720.0, (-1.0, 0.5)))


# --- reports read the states their builders make -----------------------------

def _outcome(route):
    """The report of ``route()`` as the bits of its fields, or the message of its refusal."""
    try:
        report = route()
    except ConfigurationError as err:
        return str(err)
    return tuple(None if x is None else float(x).hex() for x in (report.rayleigh, report.residual, report.expected))


def _bell_config(rng):
    """A qubit config with the pinned zero levels, each beta*|gap| log-uniform up to 700, gaps of either sign."""
    gap_a, gap_b = rng.choice((-1.0, 1.0), 2) * rng.uniform(0.5, 5.0, 2)
    beta_a, beta_b = np.exp(rng.uniform(np.log(1e-2), np.log(700.0), 2)) / np.abs((gap_a, gap_b))
    return ProtocolConfig(_spec(float(beta_a), (float(gap_a), 0.0)), _spec(float(beta_b), (0.0, float(gap_b))),
                          float(rng.uniform(0.0, 2 * np.pi)))


@pytest.mark.parametrize("fd_step", [None, 1e-5])
def test_eigencheck_reads_the_purified_state_bit_for_bit(fd_step):
    # -beta*E_min reaches about 800, so some specs are refused by both routes
    rng = np.random.default_rng(181)
    outcomes = []
    for _ in range(200):
        spec = random_thermal_spec(rng, beta_max=80.0, dims=(2, 64))
        got = _outcome(lambda: eigencheck_purified(spec, fd_step=fd_step))
        want = _outcome(lambda: eigen_report(purified_thermal_state(spec), fd_step, spec.beta**2 / 16.0))
        assert got == want
        outcomes.append(got)
    assert 0 < sum(isinstance(x, str) for x in outcomes) < len(outcomes)


@pytest.mark.parametrize("outcome", [BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS])
@pytest.mark.parametrize("convention", ["full_dependence", "chosen_zero_levels"])
def test_residual_superposition_reads_the_superposition_state_bit_for_bit(outcome, convention):
    rng = np.random.default_rng(191)
    for _ in range(300):
        cfg = _bell_config(rng)
        expected = cfg.spec_a.beta * cfg.spec_b.beta / 4.0 if convention == "full_dependence" else None
        got = _outcome(lambda: residual_superposition(cfg, outcome, convention))
        want = _outcome(lambda: eigen_report(superposition_state(cfg, outcome, convention), None, expected))
        assert got == want


@pytest.mark.parametrize("outcome", [BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS])
def test_superposition_kets_are_shared_read_only(outcome):
    cfg = reference_config(phi=0.4)
    state = superposition_state(cfg, outcome, "full_dependence")
    before = state.amplitude_vector().amps.copy()
    kets = state._at
    assert not kets.flags.writeable
    with pytest.raises(ValueError):
        kets[0] = 3 - kets[0]
    again = superposition_state(cfg, outcome, "full_dependence")
    assert np.array_equal(again.amplitude_vector().amps, before)
    assert np.array_equal(again._at, [0, 3] if outcome is BellOutcome.PHI_PLUS else [1, 2])
    assert np.shares_memory(again._at, kets)


def test_each_report_builds_one_state_and_runs_the_exponential_once(monkeypatch):
    # a report reads the state its builder makes: the build evaluates the families with one
    # array exponential, which a closed-form report reuses; a central difference adds two
    stored, family_exps = [], []
    store, exp = FactoredBipartiteState._store, np.exp

    def counted_store(self, *fields):
        stored.append(type(self))
        store(self, *fields)

    def counted_exp(x, *args, **kwargs):
        if np.ndim(x) == 2:  # the (2, n) family arrays, not the A-side phase e^(i phi)
            family_exps.append(np.shape(x))
        return exp(x, *args, **kwargs)

    spec, cfg = _spec(1.3, (0.5, -1.0, 2.0)), reference_config(phi=0.4)
    monkeypatch.setattr(FactoredBipartiteState, "_store", counted_store)
    monkeypatch.setattr(np, "exp", counted_exp)
    reports = [(lambda: eigencheck_purified(spec), 1), (lambda: eigencheck_purified(spec, fd_step=1e-5), 3)]
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        for convention in ("full_dependence", "chosen_zero_levels"):
            reports.append((lambda o=outcome, c=convention: residual_superposition(cfg, o, c), 1))
    for report, exps in reports:
        stored.clear()
        family_exps.clear()
        report()
        assert stored == [FactoredBipartiteState]
        assert len(family_exps) == exps


_NOT_FINITE = "Rayleigh quotient or residual is not finite; reduce beta or energies"


@pytest.mark.filterwarnings("error")
def test_an_analytic_report_that_is_not_finite_is_refused():
    # at beta = 1e160 every e^0 family's coefficient is -5e159, so each responding term's
    # eigenvalue overflows to inf and the report reads NaN; the states themselves are fine
    flat = _spec(1e160, (0.0, 0.0))
    cfg = ProtocolConfig(flat, flat, 0.3)
    for outcome, convention in ((BellOutcome.PHI_PLUS, "full_dependence"), (BellOutcome.PSI_PLUS, "full_dependence"),
                                (BellOutcome.PSI_PLUS, "chosen_zero_levels")):
        assert _refusal(lambda: residual_superposition(cfg, outcome, convention)) == _NOT_FINITE
        assert superposition_state(cfg, outcome, convention).amplitude_vector().norm() == pytest.approx(1.0)
    # no phi+ term responds once the pinned levels are constants
    assert residual_superposition(cfg, BellOutcome.PHI_PLUS, "chosen_zero_levels") == EigenReport(0.0, 0.0, None)
    # beta^2/16 is finite at beta = 1e100: both terms share that eigenvalue, so the report is exact
    # (the vector form's squares overflowed to inf, and it was refused)
    spec = _spec(1e100, (0.0, 1e-100))
    assert eigencheck_purified(spec) == EigenReport(1e100**2 / 16.0, 0.0, 1e100**2 / 16.0)
    fd = eigencheck_purified(spec, fd_step=1e-5)  # a finite-difference report carries NaN to the CLI gate
    assert np.isnan(fd.rayleigh) and np.isnan(fd.residual)


_BETA_SQUARED = "beta^2/16 overflows; reduce beta"
_NORMALIZATION = "normalization overflows or vanishes; reduce beta or energies"
_STEP = "finite-difference step must be finite and positive"
_PIN = "chosen_zero_levels applies only when E1 = 0 and E0' = 0"


def _refusal(route):
    with pytest.raises(ConfigurationError) as err:
        route()
    return str(err.value)


@pytest.mark.filterwarnings("error")
def test_eigencheck_refusals_keep_their_messages_and_precedence():
    bad_steps = (0.0, -1e-5, float("inf"), float("nan"), 1e-300)
    # beta^2/16 first, before the normalization and any fd step
    for fd_step in (None,) + bad_steps:
        assert _refusal(lambda: eigencheck_purified(_spec(1e200, (-1.0, 0.5)), fd_step=fd_step)) == _BETA_SQUARED
    # the normalization overflows at -beta*E_min = 720, before any fd-step check; at 700 it is finite
    for fd_step in (None,) + bad_steps:
        spec = _spec(720.0, (-1.0, 0.5))
        assert _refusal(lambda: eigencheck_purified(spec, fd_step=fd_step)) == _NORMALIZATION
        assert _refusal(lambda: purified_thermal_state(spec)) == _NORMALIZATION
    spec = _spec(700.0, (-1.0, 0.5))
    for fd_step in bad_steps[:4]:
        assert _refusal(lambda: eigencheck_purified(spec, fd_step=fd_step)) == _STEP
        assert _refusal(lambda: apply_inverse_temp_squared(purified_thermal_state(spec), fd_step=fd_step)) == _STEP
    floor = "finite-difference step 1e-300 is below 1e-08 and cannot resolve the energies"
    assert _refusal(lambda: eigencheck_purified(spec, fd_step=1e-300)) == floor
    spec = _spec(1.0, (0.0, -200.0))
    assert _refusal(lambda: eigencheck_purified(spec, fd_step=1e-9)) == (
        "finite-difference step 1e-09 is below 2e-06 and cannot resolve the energies"
    )


@pytest.mark.filterwarnings("error")
def test_residual_refusals_keep_their_messages_and_precedence():
    cfg = reference_config(phi=0.4)
    unpinned = ProtocolConfig(_spec(1.0, (5.0, 0.3)), cfg.spec_b, 0.4)
    # the outcome first, then the convention, then the pinned levels; a value that is not a
    # BellOutcome, the string "phi_plus" among them, gets post_select's refusal
    for c in (cfg, unpinned):
        for convention in ("full_dependence", "chosen_zero_levels", "frozen"):
            for bad in ("phi_plus", None):
                refusal = _refusal(lambda: post_select(c, bad))
                assert refusal == f"outcome must be a BellOutcome, got {bad!r}"
                assert _refusal(lambda: residual_superposition(c, bad, convention)) == refusal
                assert _refusal(lambda: superposition_state(c, bad, convention)) == refusal
        # every outcome is built, so each one passes on to the convention's refusal
        for outcome in OUTCOME_ORDER:
            assert _refusal(lambda: residual_superposition(c, outcome, "frozen")) == (
                "convention must be 'full_dependence' or 'chosen_zero_levels', got 'frozen'"
            )
    for outcome in OUTCOME_ORDER:
        assert _refusal(lambda: residual_superposition(unpinned, outcome, "chosen_zero_levels")) == _PIN
        assert _refusal(lambda: superposition_state(unpinned, outcome, "chosen_zero_levels")) == _PIN
        residual_superposition(unpinned, outcome, "full_dependence")
    # psi+/- pair E0 = -5 with E1' = -5, so one term's |w L R|^2 is e^(1000) and Z overflows
    deep = ProtocolConfig(_spec(100.0, (-5.0, 0.0)), _spec(100.0, (0.0, -5.0)), 0.4)
    for outcome in (BellOutcome.PSI_PLUS, BellOutcome.PSI_MINUS):
        for convention in ("full_dependence", "chosen_zero_levels"):
            assert _refusal(lambda: residual_superposition(deep, outcome, convention)) == _NORMALIZATION
            assert _refusal(lambda: superposition_state(deep, outcome, convention)) == _NORMALIZATION


_MINUS_PLUS = ((BellOutcome.PHI_MINUS, BellOutcome.PHI_PLUS), (BellOutcome.PSI_MINUS, BellOutcome.PSI_PLUS))


@pytest.mark.parametrize("convention", ["full_dependence", "chosen_zero_levels"])
def test_minus_outcomes_are_the_plus_states_with_sigma_z_on_b(convention):
    # phi- is phi+ with sigma_z on B, and psi- is psi+ with sigma_z on B up to a global sign: the
    # sign sits on term 1's A value, so no term's weight or eigenvalue moves
    rng = np.random.default_rng(197)
    for _ in range(200):
        cfg = random_in_regime_config(rng)
        states = {o: superposition_state(cfg, o, convention).amplitude_vector() for o in OUTCOME_ORDER}
        for outcome in (BellOutcome.PHI_MINUS, BellOutcome.PSI_MINUS):
            assert np.max(np.abs(states[outcome].amps - post_select(cfg, outcome).state.amps)) <= EQ_TOL
        for (minus, plus), sign in zip(_MINUS_PLUS, (1.0, -1.0)):
            assert np.array_equal(states[minus].amps, sign * apply(SIGMA_Z, states[plus], targets=(1,)).amps)
    for _ in range(300):
        cfg = _bell_config(rng)  # beta*|gap| up to 700: some configs are refused, each pair alike
        for minus, plus in _MINUS_PLUS:
            assert _outcome(lambda: residual_superposition(cfg, minus, convention)) == _outcome(
                lambda: residual_superposition(cfg, plus, convention)
            )


@pytest.mark.filterwarnings("error")
def test_a_subnormal_normalization_is_refused_by_every_route():
    # Z = e^-740 + e^-741 and Z = 2 e^-742 are subnormal floats: they were accepted with a
    # Rayleigh quotient of 0.0624840 against 0.0625, and 0.26077 against 0.25
    spec = _spec(1.0, (740.0, 741.0))
    cfg = ProtocolConfig(_spec(1.0, (741.0, 740.0)), _spec(1.0, (1.0, 2.0)), 0.0)
    for route in (lambda: eigencheck_purified(spec), lambda: purified_thermal_state(spec),
                  lambda: residual_superposition(cfg, BellOutcome.PHI_PLUS, "full_dependence"),
                  lambda: superposition_state(cfg, BellOutcome.PHI_PLUS, "full_dependence")):
        assert _refusal(route) == _NORMALIZATION


def _edge_config(outcome, bound, gap, beta_a, beta_b, levels_b):
    """A qubit config whose two terms' |w L R|^2 are e^-bound and e^-(bound + gap)."""
    kets_b = (0, 1) if outcome is BellOutcome.PHI_PLUS else (1, 0)
    levels_a = [(exponent - beta_b * levels_b[k]) / beta_a for exponent, k in zip((bound, bound + gap), kets_b)]
    return ProtocolConfig(_spec(beta_a, tuple(levels_a)), _spec(beta_b, levels_b), 0.3)


@settings(max_examples=200, deadline=None)
@given(
    bound=st.floats(690.0, 760.0),
    beta=st.floats(0.25, 4.0),
    gaps=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=7),
    outcome=st.sampled_from((BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS)),
    betas_ab=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
    levels_b=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
)
@example(bound=700.0, beta=1.0, gaps=[1.0], outcome=BellOutcome.PHI_PLUS, betas_ab=(1.0, 1.0), levels_b=(0.0, 1.0))
@example(bound=740.0, beta=1.0, gaps=[1.0], outcome=BellOutcome.PHI_PLUS, betas_ab=(1.0, 1.0), levels_b=(1.0, 2.0))
def test_eigen_relation_is_exact_or_refused_at_the_underflow_edge(bound, beta, gaps, outcome, betas_ab, levels_b):
    # the smallest beta*E of the purified state, and the smallest exponent of the superposition's
    # terms, is drawn across the edge where Z leaves the normal floats (about 708) and reaches 0 (745)
    spec = _spec(beta, (bound / beta,) + tuple(bound / beta + g / beta for g in gaps))
    cfg = _edge_config(outcome, bound, gaps[0], *betas_ab, levels_b)
    cases = (
        (lambda: purified_thermal_state(spec), lambda: eigencheck_purified(spec), beta**2 / 16.0),
        (lambda: superposition_state(cfg, outcome, "full_dependence"),
         lambda: residual_superposition(cfg, outcome, "full_dependence"), betas_ab[0] * betas_ab[1] / 4.0),
    )
    for build, report_of, expected in cases:
        try:
            state, report = build(), report_of()
        except ConfigurationError as err:
            assert str(err) == _NORMALIZATION
            continue
        assert abs(state.amplitude_vector().norm() - 1.0) <= EQ_TOL
        assert abs(report.rayleigh - expected) <= 1e-12 * expected
        assert report.residual <= 1e-12 * expected


# --- built states equal their formula terms ----------------------------------

def _assert_formula_round_trip(state, terms):
    """``terms``, the formula terms of ``state``, built as they stand: every value equals the built state's
    bit for bit."""
    again = built_state(terms)
    assert again.dims == state.dims
    assert np.array_equal(again.amplitude_vector().amps, state.amplitude_vector().amps)
    for fd_step in (None, 1e-5):
        assert np.array_equal(
            apply_inverse_temp_squared(again, fd_step=fd_step).amps,
            apply_inverse_temp_squared(state, fd_step=fd_step).amps,
        )


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 64), beta_gap=st.floats(0.0, 700.0), seed=st.integers(0, 2**32 - 1))
def test_purified_state_round_trips(d, beta_gap, seed):
    # levels span [-1, 0], so -beta * E_min reaches the overflow edge of Z at about 700
    levels = np.concatenate(([-1.0, 0.0], np.random.default_rng(seed).uniform(-1.0, 0.0, d - 2)))
    spec = _spec(beta_gap, tuple(levels))
    state = purified_thermal_state(spec)
    _assert_formula_round_trip(state, purified_terms(spec))
    assert np.max(np.abs(state.amplitude_vector().amps - purify(spec).amps)) <= EQ_TOL


@settings(max_examples=40, deadline=None)
@given(
    outcome=st.sampled_from(OUTCOME_ORDER),
    convention=st.sampled_from(("full_dependence", "chosen_zero_levels")),
    seed=st.integers(0, 2**32 - 1),
)
def test_superposition_state_round_trips(outcome, convention, seed):
    cfg = random_in_regime_config(np.random.default_rng(seed))
    state = superposition_state(cfg, outcome, convention)
    _assert_formula_round_trip(state, superposition_terms(cfg, outcome, convention))



# --- support-form views: the bytes of the zero-filled dense view ---------------

def _scattered(state, values):
    """The view as the dense route built it: a zero-filled d*d array with each term value on its flat ket."""
    arr = np.zeros(math.prod(state.dims), dtype=np.complex128)
    arr[state._at] = values
    return arr


def _traced(state, keep, unit):
    """The bytes of ``partial_trace(state, keep)``; for an image, whose trace is not 1, of the array it checks."""
    if unit:
        return partial_trace(state, keep).entries.tobytes()
    with mock.patch.object(qcore, "_built", lambda cls, dims, mat: mat):
        return partial_trace(state, keep).tobytes()


def _assert_views_match_the_scatter(state):
    """Every view of ``state`` holds the support invariant, has the scatter's bytes and traces like its dense twin."""
    views = [(state.amplitude_vector, state._psi, True)] + [
        (lambda h=h: apply_inverse_temp_squared(state, fd_step=h), state._image(h), False) for h in (None, 1e-5)
    ]
    for view_of, values, unit in views:
        for keep in ({0}, {1}):
            view = view_of()  # a fresh view each time, so the trace runs before its amps is built
            assert_support_invariant(view)
            got = _traced(view, keep, unit)
            assert got == _traced(StateVector(view.dims, view.amps), keep, unit), keep
        assert view.amps.tobytes() == _scattered(state, values).tobytes()


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 64), beta=st.floats(0.0, 5.0), seed=st.integers(0, 2**32 - 1))
def test_purified_views_match_the_scatter(d, beta, seed):
    energies = tuple(np.random.default_rng(seed).uniform(-5.0, 5.0, d))
    _assert_views_match_the_scatter(purified_thermal_state(_spec(beta, energies)))


@settings(max_examples=40, deadline=None)
@given(
    outcome=st.sampled_from((BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS)),
    convention=st.sampled_from(("full_dependence", "chosen_zero_levels")),
    seed=st.integers(0, 2**32 - 1),
)
def test_superposition_views_match_the_scatter(outcome, convention, seed):
    cfg = random_in_regime_config(np.random.default_rng(seed))
    _assert_views_match_the_scatter(superposition_state(cfg, outcome, convention))


def test_superposition_views_keep_signed_zeros():
    # phi+ under chosen_zero_levels pairs each negative coefficient with a pinned 0.0: both eigenvalues are
    # -0.0, so the image holds -0.0
    state = superposition_state(reference_config(phi=0.4), BellOutcome.PHI_PLUS, "chosen_zero_levels")
    _assert_views_match_the_scatter(state)
    assert np.signbit(apply_inverse_temp_squared(state).amps.view(float)).any()


def _purified(d):
    return lambda: _purified_of(d, 0.9, 211 + d)


def _superposed(config, outcome, convention):
    def build():
        cfg = config()
        return superposition_state(cfg, outcome, convention), superposition_terms(cfg, outcome, convention)
    return build


def _asymmetric():
    """Unequal betas on the two sides, so each full_dependence term's coeff_L differs from its coeff_R."""
    return ProtocolConfig(_spec(2.3, (1.7, 0.0)), _spec(0.6, (0.0, -2.1)), 2.0)


_SUPERPOSED_CONFIGS = {"phi=0.0": lambda: reference_config(0.0), "phi=0.4": lambda: reference_config(0.4),
                       "asymmetric phi=2.0": _asymmetric}

# a state of every builder with its formula terms, by name: purified states at several d, and phi+ and psi+
# under both conventions at two phases of the reference config and on the asymmetric one
_BUILDER_STATES = {
    **{f"purified d={d}": _purified(d) for d in (2, 3, 64, 1024)},
    **{f"{outcome.name} {convention} {name}": _superposed(config, outcome, convention)
       for name, config in _SUPERPOSED_CONFIGS.items() for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS)
       for convention in ("full_dependence", "chosen_zero_levels")},
}

_VIEWS = {
    "amplitude_vector": lambda state: state.amplitude_vector(),
    "image": apply_inverse_temp_squared,
    "fd image": lambda state: apply_inverse_temp_squared(state, fd_step=1e-5),
}


@pytest.mark.parametrize("view", list(_VIEWS))
@pytest.mark.parametrize("builder", list(_BUILDER_STATES))
def test_every_builder_emits_its_kets_in_increasing_flat_order(builder, view):
    # the views hand the kets' flat indices to StateVector unsorted, so every builder must emit them strictly
    # increasing: each view of each builder's state holds the support invariant
    assert_support_invariant(_VIEWS[view](_BUILDER_STATES[builder]()[0]))


@pytest.mark.parametrize("builder", list(_BUILDER_STATES))
def test_every_builder_holds_the_term_structure_by_construction(builder):
    # no constructor proves a state's terms, so each builder must emit them well formed: an (n,) integer
    # support, n >= 1, strictly increasing (so distinct kets) and within the dims, one complex value per
    # term, and finite energies and family coefficients whose rows broadcast to (2, n), a purified state's
    # one shared family as a single row
    state, _ = _BUILDER_STATES[builder]()
    at = state._at
    n = at.size
    assert at.shape == (n,) and n >= 1
    assert at.dtype.kind == "i"
    assert at[0] >= 0 and at[-1] < math.prod(state.dims)
    assert (at[1:] > at[:-1]).all()
    assert state._value.ndim == 1 and np.broadcast_shapes(state._value.shape, (n,)) == (n,)
    assert state._value.dtype == complex
    assert np.broadcast_shapes(state._energy.shape, state._coeff.shape, (2, n)) == (2, n)
    assert np.isfinite(state._energy).all()
    if builder.startswith("purified"):
        assert state._coeff.shape == (1, 1) and state._energy.shape == (n,)


@pytest.mark.parametrize("builder", list(_BUILDER_STATES))
def test_every_builder_support_is_its_formula_kets_shared_by_its_views(builder):
    # the support is the formula terms' (left, right) kets raveled to flat indices, in term order, and every
    # view holds that very read-only array: none computes an index array of its own
    state, terms = _BUILDER_STATES[builder]()
    assert np.array_equal(state._at, np.ravel_multi_index(tuple(np.array(terms["kets"])), state.dims))
    assert not state._at.flags.writeable
    for view in _VIEWS.values():
        assert view(state)._at is state._at


@pytest.mark.parametrize("builder", list(_BUILDER_STATES))
def test_every_builder_equals_its_formula_terms(builder):
    # the terms of the builder's docstring, built as they stand, give its state bit for bit
    _assert_formula_round_trip(*_BUILDER_STATES[builder]())


@pytest.mark.parametrize("builder", list(_BUILDER_STATES))
def test_every_builder_evaluates_as_the_scalar_families(builder):
    # every term responds: the analytic image is coeff_L,t * coeff_R,t * psi_t on each ket, and the fd image
    # the product of the two sides' central differences, as the per-term oracle evaluates them
    state, terms = _BUILDER_STATES[builder]()
    for fd_step in (None, 1e-5):
        psi, image = _scalar_views(terms, state.dims, fd_step)
        assert np.array_equal(state.amplitude_vector().amps, psi)
        assert np.array_equal(apply_inverse_temp_squared(state, fd_step=fd_step).amps, image)


@pytest.mark.parametrize("builder", list(_BUILDER_STATES))
def test_every_builder_reports_as_its_dense_views(builder):
    state, _ = _BUILDER_STATES[builder]()
    for fd_step in (None, 1e-5):
        _assert_report_matches_dense(eigen_report(state, fd_step, None), state, fd_step)


@pytest.mark.parametrize("builder", list(_BUILDER_STATES))
def test_every_builder_views_match_the_scatter(builder):
    _assert_views_match_the_scatter(_BUILDER_STATES[builder]()[0])


@pytest.mark.parametrize("builder", list(_BUILDER_STATES))
def test_every_builder_fd_image_follows_the_analytic_image(builder):
    # a constant family's central difference is exactly 0, as its closed-form derivative is
    state, _ = _BUILDER_STATES[builder]()
    analytic = apply_inverse_temp_squared(state).amps
    fd = apply_inverse_temp_squared(state, fd_step=1e-5).amps
    assert np.max(np.abs(analytic - fd)) < FD_TOL


def test_purified_view_trace_reads_only_the_support():
    spec = _spec(0.8, tuple(np.random.default_rng(11).uniform(-5.0, 5.0, 1024)))
    state = purified_thermal_state(spec)
    view = state.amplitude_vector()
    rho = partial_trace(view, keep={1})
    assert "amps" not in vars(view)  # the d^2 view was never built
    want = np.diagonal(thermal_density(spec).entries)
    np.testing.assert_allclose(np.diagonal(rho.entries), want, rtol=0.0, atol=EQ_TOL)
    assert np.count_nonzero(rho.entries) == 1024


# --- spectral reports: exact where the terms share one eigenvalue -------------

@pytest.mark.parametrize("beta", [0.0, 0.7, 2.0, 13.0])
def test_purified_reports_are_exact(beta):
    rng = np.random.default_rng(197)
    for d in (2, 3, 8, 64, 512, 2048):
        report = eigencheck_purified(_spec(beta, tuple(rng.uniform(-5.0, 5.0, d))))
        assert (report.rayleigh, report.residual, report.expected) == (beta**2 / 16.0, 0.0, beta**2 / 16.0)


@pytest.mark.parametrize("outcome", [BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS])
def test_full_dependence_reports_are_exact(outcome):
    rng = np.random.default_rng(199)
    for cfg in [reference_config(phi=0.4)] + [_bell_config(rng) for _ in range(100)]:
        expected = cfg.spec_a.beta * cfg.spec_b.beta / 4.0
        report = residual_superposition(cfg, outcome, "full_dependence")
        assert (report.rayleigh, report.residual, report.expected) == (expected, 0.0, expected)


def _purified_of(d, beta, seed):
    spec = _spec(beta, tuple(np.random.default_rng(seed).uniform(-5.0, 5.0, d)))
    return purified_thermal_state(spec), purified_terms(spec)


def _superposition_of(outcome, convention, seed):
    cfg = random_in_regime_config(np.random.default_rng(seed))
    return superposition_state(cfg, outcome, convention), superposition_terms(cfg, outcome, convention)


def _diagonal_of(d, seed):
    terms = _diagonal_terms(np.random.default_rng(seed), d)
    return built_state(terms), terms


# (state, its formula terms) pairs
_STATES = st.one_of(
    st.builds(_purified_of, st.integers(2, 64), st.floats(0.0, 20.0), st.integers(0, 2**32 - 1)),
    st.builds(_superposition_of, st.sampled_from((BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS)),
              st.sampled_from(("full_dependence", "chosen_zero_levels")), st.integers(0, 2**32 - 1)),
    # terms built from their arrays, each with its own eigenvalue, constants among them
    st.builds(_diagonal_of, st.integers(2, 5), st.integers(0, 2**32 - 1)),
)


@settings(max_examples=200, deadline=None)
@given(case=_STATES)
def test_spectral_report_matches_the_vector_form(case):
    # the mean and spread of the term eigenvalues against <psi|image> and |image - rayleigh psi|,
    # read from the dense vectors with exactly rounded sums
    state, terms = case
    psi, image = state.amplitude_vector().amps, apply_inverse_temp_squared(state).amps
    rayleigh = math.fsum(np.concatenate((psi.real * image.real, psi.imag * image.imag)))
    r = image - rayleigh * psi
    residual = math.sqrt(math.fsum(np.concatenate((r.real**2, r.imag**2))))
    coeffs = np.asarray(terms["coeffs"])
    lam = np.abs(coeffs[0] * coeffs[1]).max()
    tol = 1e-15 * max(1.0, lam)
    report = eigen_report(state, None, None)
    assert abs(report.rayleigh - rayleigh) <= tol
    assert abs(report.residual - residual) <= tol


# BLAS-backed numpy routines: their summation order can follow the BLAS thread count
_BLAS_NAMES = {"vdot", "dot", "matmul", "inner", "einsum", "linalg", "tensordot"}


def test_tempop_calls_no_blas_routine():
    # every tempop sum is a pairwise np.add.reduce, so its bits do not follow OPENBLAS_NUM_THREADS
    found = set()
    for node in ast.walk(ast.parse(Path(tempop.__file__).read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add(("@", node.lineno))
        name = getattr(node, "attr", getattr(node, "id", None))
        if name in _BLAS_NAMES:
            found.add((name, node.lineno))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {(a.name, node.lineno) for a in node.names if a.name.split(".")[-1] in _BLAS_NAMES}
    assert found == set()
