import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermosim import (
    BellOutcome,
    Constant,
    ConfigurationError,
    EigenReport,
    ExpLinear,
    FactoredBipartiteState,
    FactoredTerm,
    ProtocolConfig,
    QuditHamiltonian,
    ThermalSpec,
    apply_inverse_temp_squared,
    eigencheck_purified,
    fidelity_pure,
    product_state,
    purified_thermal_state,
    purify,
    residual_superposition,
    superposition_state,
    tempop,
)
from thermosim.qcore import EQ_TOL, FD_TOL

from helpers import (
    eigen_report,
    family_amplitude,
    family_derivative,
    random_in_regime_config,
    random_thermal_spec,
    reference_config,
    term_amplitude,
)


def _spec(beta, energies):
    return ThermalSpec(beta, QuditHamiltonian(energies))


# --- amplitude families ---------------------------------------------------

def test_exp_linear_derivative_identity():
    # d/dE of value * e^(coeff*E + offset) is coeff times the amplitude, so on a
    # product state the image of a responding term (n, n) is coeff_L * coeff_R * psi
    left, right = ExpLinear(coeff=-0.35, offset=0.2), ExpLinear(coeff=0.6, offset=-0.1, value=0.5j)
    state = product_state([left] * 3, [right] * 3, (-2.0, 0.0, 1.7))
    psi = state.amplitude_vector().amps.reshape(3, 3)
    for fd_step, rel in ((None, 1e-14), (1e-5, 1e-8)):
        image = apply_inverse_temp_squared(state, fd_step=fd_step).amps.reshape(3, 3)
        assert np.diagonal(image) == pytest.approx(-0.35 * 0.6 * np.diagonal(psi), rel=rel)
        assert not image[~np.eye(3, dtype=bool)].any()


def test_constant_family():
    fam = Constant(0.5 - 0.25j)
    assert fam == ExpLinear(0.0, 0.0, 0.5 - 0.25j)
    # a term with a constant factor does not respond, in either mode
    state = product_state([fam] * 2, [ExpLinear(-0.4)] * 2, (0.3, 1.1))
    for fd_step in (None, 1e-5):
        assert not apply_inverse_temp_squared(state, fd_step=fd_step).amps.any()


# --- state construction and validation -------------------------------------

def test_purified_thermal_state_matches_purification():
    from thermosim import purify

    spec = _spec(1.4, (2.0, -1.0, 0.5))
    vec = purified_thermal_state(spec).amplitude_vector()
    assert fidelity_pure(vec, purify(spec)) > 1 - EQ_TOL


def test_factored_state_divides_by_its_own_norm():
    # two unit terms sum to Z = 2, so each amplitude is 1/sqrt(2)
    term = FactoredTerm.diagonal(0, Constant(1.0), Constant(1.0), 0.0)
    other = FactoredTerm.diagonal(1, Constant(1.0), Constant(1.0), 0.0)
    amps = FactoredBipartiteState((term, other)).amplitude_vector().amps
    assert np.array_equal(amps, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


def test_factored_state_rejects_duplicate_slots_and_kets():
    a = FactoredTerm(0, 0, 0, 0, Constant(1.0), Constant(1.0), 0.0, 0.0)
    b = FactoredTerm(0, 0, 1, 1, Constant(1.0), Constant(1.0), 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        FactoredBipartiteState((a, b))
    c = FactoredTerm(1, 1, 0, 0, Constant(1.0), Constant(1.0), 0.0, 0.0)
    with pytest.raises(ConfigurationError):
        FactoredBipartiteState((a, c))


def test_factored_state_rejects_inconsistent_shared_variable():
    # both terms key their left factor to slot 0 but at different energies
    a = FactoredTerm(0, 0, 0, 0, Constant(1.0), Constant(1.0), 1.0, 1.0)
    b = FactoredTerm(0, 1, 1, 1, Constant(1.0), Constant(1.0), 2.0, 1.0)
    with pytest.raises(ConfigurationError):
        FactoredBipartiteState((a, b))


def test_factored_state_refuses_an_overflowing_family():
    # e^1000 overflows; the normalization check refuses it, with no numpy RuntimeWarning
    terms = (
        FactoredTerm.diagonal(0, ExpLinear(1000.0), ExpLinear(1.0), 1.0),
        FactoredTerm.diagonal(1, ExpLinear(1.0), ExpLinear(1.0), 0.0),
    )
    with pytest.raises(ConfigurationError, match="^normalization overflows or vanishes"):
        FactoredBipartiteState(terms)


@pytest.mark.filterwarnings("error")
def test_factored_state_refuses_a_subnormal_normalization():
    # |2^-511|^2 = 2^-1022 is the smallest normal float; |2^-512|^2 = 2^-1024 is subnormal
    def state(weight):
        one = Constant(1.0)
        return FactoredBipartiteState((FactoredTerm.diagonal(0, one, one, 0.0, weight=weight),
                                       FactoredTerm.diagonal(1, one, one, 0.0, weight=0.0)))

    assert 2.0**-1022 == sys.float_info.min
    assert np.array_equal(state(2.0**-511).amplitude_vector().amps, [1.0, 0.0, 0.0, 0.0])
    for weight in (2.0**-512, 2.0**-600, 0.0):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(_NORMALIZATION)}$"):
            state(weight)


# --- operator action --------------------------------------------------------

def test_purified_state_is_eigenvector():
    spec = _spec(2.0, (5.0, 0.0))
    state = purified_thermal_state(spec)
    psi = state.amplitude_vector().amps
    image = apply_inverse_temp_squared(state).amps
    np.testing.assert_allclose(image, 0.25 * psi, atol=1e-14)


def test_constant_bell_state_maps_to_zero():
    half = 1 / np.sqrt(2)
    terms = (
        FactoredTerm.diagonal(0, Constant(half), Constant(1.0), 0.0),
        FactoredTerm.diagonal(1, Constant(half), Constant(1.0), 0.0),
    )
    state = FactoredBipartiteState(terms)
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
    # energies and differ only in their constant term weights
    rng = np.random.default_rng(113)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        energies = rng.uniform(-2, 2, d)
        families = [(ExpLinear(float(c)), ExpLinear(float(cc)))
                    for c, cc in rng.uniform(-1, 1, (d, 2))]

        def build(weights):
            terms = tuple(
                FactoredTerm.diagonal(n, families[n][0], families[n][1],
                                      float(energies[n]), weight=w)
                for n, w in enumerate(weights)
            )
            return FactoredBipartiteState(terms)

        first = build(rng.normal(size=d) + 1j * rng.normal(size=d))
        second = build(rng.normal(size=d) + 1j * rng.normal(size=d))
        lhs = np.vdot(first.amplitude_vector().amps, apply_inverse_temp_squared(second).amps)
        rhs = np.vdot(second.amplitude_vector().amps, apply_inverse_temp_squared(first).amps)
        assert lhs == pytest.approx(np.conj(rhs), abs=1e-10)


def test_operator_action_is_not_local():
    # on a product state only the diagonal kets respond, and no diagonal
    # operator acting on the left factor alone can reproduce that image
    rng = np.random.default_rng(127)
    for _ in range(10):
        d = 3
        energies = rng.uniform(-1.5, 1.5, d)
        left = [ExpLinear(float(c)) for c in rng.uniform(0.2, 1.0, d)]
        right = [ExpLinear(float(c)) for c in rng.uniform(0.2, 1.0, d)]
        state = product_state(left, right, energies)
        psi = state.amplitude_vector().amps.reshape(d, d)
        image = apply_inverse_temp_squared(state).amps.reshape(d, d)
        assert np.linalg.norm(image - np.diag(np.diag(image))) == 0.0
        assert np.linalg.norm(image) > 0.0
        # least-squares optimal diagonal L in (L x I)|psi>
        lam = np.array([np.vdot(psi[n], image[n]) / np.vdot(psi[n], psi[n]) for n in range(d)])
        gap = np.linalg.norm(image - lam[:, None] * psi)
        assert gap > 0.1 * np.linalg.norm(image)


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
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
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
    with pytest.raises(ConfigurationError):
        residual_superposition(cfg, BellOutcome.PHI_MINUS, "full_dependence")
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


def test_product_state_report_matches_dense():
    # the off-diagonal terms of a product state do not respond
    rng = np.random.default_rng(157)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        left = [ExpLinear(float(c)) for c in rng.uniform(-1.0, 1.0, d)]
        right = [ExpLinear(float(c)) for c in rng.uniform(-1.0, 1.0, d)]
        state = product_state(left, right, rng.uniform(-1.5, 1.5, d))
        _assert_report_matches_dense(eigen_report(state, None, None), state)


@pytest.mark.parametrize("outcome", [BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS])
@pytest.mark.parametrize("convention", ["full_dependence", "chosen_zero_levels"])
def test_superposition_reports_match_dense(outcome, convention):
    rng = np.random.default_rng(163)
    for _ in range(10):
        cfg = random_in_regime_config(rng)
        report = residual_superposition(cfg, outcome, convention)
        _assert_report_matches_dense(report, superposition_state(cfg, outcome, convention))


def _scalar_views(state, fd_step=None):
    """Dense psi and operator image from the per-term scalar oracle, term by term."""
    def slope(family, energy):
        if fd_step is None:
            return family_derivative(family, energy)
        above, below = family_amplitude(family, energy + fd_step), family_amplitude(family, energy - fd_step)
        return (above - below) / (2.0 * fd_step)

    psi = np.zeros(state.dims, dtype=complex)
    image = np.zeros(state.dims, dtype=complex)
    terms = state.terms
    for t in terms:
        psi[t.left_basis, t.right_basis] = term_amplitude(t)
        if t.left_var == t.right_var:
            image[t.left_basis, t.right_basis] = (
                t.weight * slope(t.left, t.left_energy) * slope(t.right, t.right_energy)
            )
    # Z summed as numpy sums the term amplitudes, in term order
    z = np.add.reduce(np.abs(np.array([term_amplitude(t) for t in terms])) ** 2)
    return psi.reshape(-1) / np.sqrt(z), image.reshape(-1) / np.sqrt(z)


def test_array_evaluation_equals_the_scalar_families():
    # the families are evaluated over term arrays; the arithmetic is the
    # scalar oracle's own, so the values must agree bit for bit
    rng = np.random.default_rng(173)
    states = [purified_thermal_state(random_thermal_spec(rng, beta_max=20.0, dims=(2, 64))) for _ in range(8)]
    for _ in range(8):
        d = int(rng.integers(2, 6))
        left = [ExpLinear(float(c), float(o)) for c, o in rng.uniform(-1.0, 1.0, (d, 2))]
        right = [Constant(complex(*rng.normal(size=2))) if n % 2 else ExpLinear(float(rng.uniform(-1, 1)))
                 for n in range(d)]
        states.append(product_state(left, right, rng.uniform(-1.5, 1.5, d)))
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        for convention in ("full_dependence", "chosen_zero_levels"):
            states.append(superposition_state(random_in_regime_config(rng), outcome, convention))
    for state in states:
        for fd_step in (None, 1e-5):
            psi, image = _scalar_views(state, fd_step)
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


def test_purified_state_at_the_overflow_edge():
    # Z = e^(-beta*E_min) * (1 + ...) is finite at -beta*E_min = 700 and
    # overflows at 720
    state = purified_thermal_state(_spec(700.0, (-1.0, 0.5)))
    assert abs(state.amplitude_vector().norm() - 1.0) <= EQ_TOL
    with pytest.raises(ConfigurationError):
        purified_thermal_state(_spec(720.0, (-1.0, 0.5)))


def test_factored_state_rejects_degenerate_kets_and_values():
    one = Constant(1.0)
    with pytest.raises(ConfigurationError):  # a 1 x 1 dense view is no bipartite state
        FactoredBipartiteState((FactoredTerm.diagonal(0, one, one, 0.0),))
    with pytest.raises(ConfigurationError):
        FactoredBipartiteState((FactoredTerm(0, 0, -1, 0, one, one, 0.0, 0.0),
                                FactoredTerm(1, 1, 1, 1, one, one, 0.0, 0.0)))
    with pytest.raises(ConfigurationError):  # a NaN amplitude makes a NaN normalization
        FactoredBipartiteState((FactoredTerm.diagonal(0, one, one, 0.0, weight=complex("nan")),
                                FactoredTerm.diagonal(1, one, one, 0.0)))


@pytest.mark.parametrize("bad", [1.5, 1.0])
def test_factored_state_refuses_non_integer_kets_and_slots(bad):
    # 1.5 used to build a (2, 2) state whose dense view raised a raw IndexError
    one = Constant(1.0)
    with pytest.raises(ConfigurationError, match=f"^term basis ket must be an integer, got {re.escape(repr(bad))}$"):
        FactoredBipartiteState((FactoredTerm.diagonal(0, one, one, 0.0),
                                FactoredTerm(1, 1, 1, bad, one, one, 0.0, 0.0)))
    with pytest.raises(ConfigurationError, match=f"^term derivative slot must be an integer, got {re.escape(repr(bad))}$"):
        FactoredBipartiteState((FactoredTerm.diagonal(0, one, one, 0.0),
                                FactoredTerm(bad, 1, 1, 1, one, one, 0.0, 0.0)))
    state = FactoredBipartiteState((FactoredTerm.diagonal(0, one, one, 0.0),
                                    FactoredTerm(np.int64(1), 1, np.uint64(1), 1, one, one, 0.0, 0.0)))
    assert state.dims == (2, 2)


@pytest.mark.parametrize("field, term", [
    ("energy", FactoredTerm(0, 0, 0, 0, ExpLinear(0.0), ExpLinear(0.0), "x", 0.0)),
    ("coefficient", FactoredTerm(0, 0, 0, 0, ExpLinear(0.0), ExpLinear("x"), 0.0, 0.0)),
    ("offset", FactoredTerm(0, 0, 0, 0, ExpLinear(0.0, "0.5"), ExpLinear(0.0), 0.0, 0.0)),
    ("value", FactoredTerm(0, 0, 0, 0, ExpLinear(0.0), ExpLinear(0.0, value=None), 0.0, 0.0)),
    ("weight", FactoredTerm(0, 0, 0, 0, ExpLinear(0.0), ExpLinear(0.0), 0.0, 0.0, "1")),
])
def test_factored_state_refuses_non_numeric_fields(field, term):
    # numpy would raise its raw ValueError on "x" and parse "0.5" as a number
    bad = {"energy": "x", "coefficient": "x", "offset": "0.5", "value": None, "weight": "1"}[field]
    noun = "complex" if field in ("value", "weight") else "real"
    with pytest.raises(ConfigurationError, match=f"^term {field} must be {noun}, got {re.escape(repr(bad))}$"):
        FactoredBipartiteState([term, FactoredTerm(1, 1, 1, 1, Constant(1.0), Constant(1.0), 0.0, 0.0)])


def test_factored_state_messages_for_missing_terms_and_nonfinite_energies():
    with pytest.raises(ConfigurationError, match="at least one term"):
        FactoredBipartiteState(())
    with pytest.raises(ConfigurationError, match="at least one term"):
        product_state([], [], [])
    one = Constant(1.0)
    # a NaN on a shared slot is a non-finite energy, not a second evaluation point
    terms = (FactoredTerm(0, 0, 0, 0, one, one, float("nan"), 0.0), FactoredTerm(0, 1, 1, 1, one, one, 0.0, 0.0))
    with pytest.raises(ConfigurationError, match="finite"):
        FactoredBipartiteState(terms)


def test_builders_create_no_term_objects(monkeypatch):
    # the builders evaluate their term arrays straight from the energies;
    # term objects exist only at the public constructor and in ``.terms``
    def refuse(*args, **kwargs):
        raise AssertionError("term object built on the eigen path")

    monkeypatch.setattr(tempop, "FactoredTerm", refuse)
    monkeypatch.setattr(tempop, "ExpLinear", refuse)
    spec = _spec(1.0, tuple(np.random.default_rng(167).uniform(-5.0, 5.0, 4096)))
    for fd_step in (None, 1e-5):
        assert abs(eigencheck_purified(spec, fd_step=fd_step).rayleigh - 1.0 / 16.0) <= FD_TOL
    cfg = reference_config(phi=0.4)
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        for convention in ("full_dependence", "chosen_zero_levels"):
            assert residual_superposition(cfg, outcome, convention).residual >= 0.0


def test_builders_skip_the_public_constructor(monkeypatch):
    # the builders hold the structure by construction and reach
    # the state through qcore._built, past the public constructor's proofs
    def refuse(self, *args, **kwargs):
        raise AssertionError("public FactoredBipartiteState constructor called")

    monkeypatch.setattr(FactoredBipartiteState, "__init__", refuse)
    spec = _spec(1.3, (0.5, -1.0, 2.0))
    for fd_step in (None, 1e-5):
        assert abs(eigencheck_purified(spec, fd_step=fd_step).rayleigh - 1.3**2 / 16.0) <= FD_TOL
    cfg = reference_config(phi=0.4)
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        for convention in ("full_dependence", "chosen_zero_levels"):
            assert residual_superposition(cfg, outcome, convention).residual >= 0.0
    state = product_state([ExpLinear(0.4), Constant(0.5j)], [Constant(1.0), ExpLinear(-0.7)], (0.3, -0.8))
    assert abs(state.amplitude_vector().norm() - 1.0) <= EQ_TOL
    assert apply_inverse_temp_squared(state).dims == (2, 2)
    with pytest.raises(AssertionError, match="public FactoredBipartiteState"):
        FactoredBipartiteState(state.terms)


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
def test_superposition_kets_and_slots_are_shared_read_only(outcome):
    cfg = reference_config(phi=0.4)
    state = superposition_state(cfg, outcome, "full_dependence")
    before = state.amplitude_vector().amps.copy()
    for name in ("_basis", "_var"):
        arr = getattr(state, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[1, 0] = 1 - arr[1, 0]
    again = superposition_state(cfg, outcome, "full_dependence")
    assert np.array_equal(again.amplitude_vector().amps, before)
    assert np.array_equal(again._var, [[0, 1], [0, 1]])


def test_each_report_builds_one_state_and_runs_the_exponential_once(monkeypatch):
    # a report reads the state its builder makes: the build evaluates the families with one
    # array exponential, which a closed-form report reuses; a central difference adds two
    stored, family_exps = [], []
    store, exp = FactoredBipartiteState._store, np.exp

    def counted_store(self, *fields):
        stored.append(type(self))
        store(self, *fields)

    def counted_exp(x, *args, **kwargs):
        if np.ndim(x) == 2:  # the (2, n) family arrays, not the weight's phase e^(i phi)
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
    # at beta = 1e160 every e^0 family's slope is -5e159, so each responding term's image
    # overflows and the report read NaN; the states themselves are fine
    flat = _spec(1e160, (0.0, 0.0))
    cfg = ProtocolConfig(flat, flat, 0.3)
    for outcome, convention in ((BellOutcome.PHI_PLUS, "full_dependence"), (BellOutcome.PSI_PLUS, "full_dependence"),
                                (BellOutcome.PSI_PLUS, "chosen_zero_levels")):
        assert _refusal(lambda: residual_superposition(cfg, outcome, convention)) == _NOT_FINITE
        assert superposition_state(cfg, outcome, convention).amplitude_vector().norm() == pytest.approx(1.0)
    # no phi+ term responds once the pinned levels are constants
    assert residual_superposition(cfg, BellOutcome.PHI_PLUS, "chosen_zero_levels") == EigenReport(0.0, 0.0, None)
    # beta^2/16 is finite at beta = 1e100, but the residual's squares overflow to inf
    spec = _spec(1e100, (0.0, 1e-100))
    assert _refusal(lambda: eigencheck_purified(spec)) == _NOT_FINITE
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
    # the outcome first, then the convention, then the pinned levels
    for c in (cfg, unpinned):
        for convention in ("full_dependence", "chosen_zero_levels", "frozen"):
            assert _refusal(lambda: residual_superposition(c, BellOutcome.PHI_MINUS, convention)) == (
                f"unsupported outcome {BellOutcome.PHI_MINUS} for residual analysis"
            )
        assert _refusal(lambda: residual_superposition(c, BellOutcome.PSI_PLUS, "frozen")) == (
            "convention must be 'full_dependence' or 'chosen_zero_levels', got 'frozen'"
        )
    for outcome in (BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS):
        assert _refusal(lambda: residual_superposition(unpinned, outcome, "chosen_zero_levels")) == _PIN
        assert _refusal(lambda: superposition_state(unpinned, outcome, "chosen_zero_levels")) == _PIN
        residual_superposition(unpinned, outcome, "full_dependence")
    # psi+ pairs E0 = -5 with E1' = -5, so one term's |w L R|^2 is e^(1000) and Z overflows
    deep = ProtocolConfig(_spec(100.0, (-5.0, 0.0)), _spec(100.0, (0.0, -5.0)), 0.4)
    for convention in ("full_dependence", "chosen_zero_levels"):
        assert _refusal(lambda: residual_superposition(deep, BellOutcome.PSI_PLUS, convention)) == _NORMALIZATION
        assert _refusal(lambda: superposition_state(deep, BellOutcome.PSI_PLUS, convention)) == _NORMALIZATION


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


# --- validate once: built states pass the public constructor's checks --------

def _assert_public_round_trip(state):
    """``state`` fed back through the public constructor: every check passes and every value is bit-equal."""
    terms = state.terms
    assert all(isinstance(t, FactoredTerm) for t in terms)
    again = FactoredBipartiteState(terms)
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
    _assert_public_round_trip(state)
    assert np.max(np.abs(state.amplitude_vector().amps - purify(spec).amps)) <= EQ_TOL


@settings(max_examples=40, deadline=None)
@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_product_state_round_trips(d, seed):
    rng = np.random.default_rng(seed)

    def family():
        if rng.random() < 0.5:
            return Constant(complex(*rng.normal(size=2)))
        return ExpLinear(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))

    left, right = [family() for _ in range(d)], [family() for _ in range(d)]
    _assert_public_round_trip(product_state(left, right, rng.uniform(-1.5, 1.5, d)))


@settings(max_examples=40, deadline=None)
@given(
    outcome=st.sampled_from((BellOutcome.PHI_PLUS, BellOutcome.PSI_PLUS)),
    convention=st.sampled_from(("full_dependence", "chosen_zero_levels")),
    seed=st.integers(0, 2**32 - 1),
)
def test_superposition_state_round_trips(outcome, convention, seed):
    cfg = random_in_regime_config(np.random.default_rng(seed))
    _assert_public_round_trip(superposition_state(cfg, outcome, convention))
