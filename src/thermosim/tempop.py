"""Squared-inverse-temperature operator on factored bipartite amplitudes.

States handled here are finite sums of two-sided product terms,

    |psi> = (1/sqrt(Z)) * sum_t  L_t(x_t) * R_t(y_t) |l_t> |r_t>,

where L_t and R_t are closed-form amplitude families value * e^(coeff*E)
(a constant has coeff = 0) evaluated at per-side energy arguments, and
Z = sum_t |L_t(x_t) R_t(y_t)|^2 is the terms' own sum, so every state is unit
norm by construction.  A term's constant complex coefficient lives in its
families' values, by convention the left one's.  Z is evaluated, never
differentiated, and must be a normal float: finite and at least
``sys.float_info.min``.  A state holds its terms as arrays and normalizes
them once, when it is made: one array exponential gives both sides' family
values, their products the per-term amplitudes, and those Z.  Of the values
it keeps only the amplitudes over sqrt(Z) and sqrt(Z), n complex values for
n terms (16 MB at n = 10^6).  Every value is read from a state: the dense
view, the operator image, and the reports of ``eigencheck_purified`` and
``residual_superposition``, which read the states that
``purified_thermal_state`` and ``superposition_state`` make.  A state is
only ever a result, so calling ``FactoredBipartiteState`` raises
``TypeError``.  The two builders, ``purified_thermal_state`` and
``superposition_state``, make its support, the terms' (n,) flat kets in the
form ``StateVector`` keeps, and the energies and family fields, row 0 the
left side and row 1 the right, and reach the state through ``qcore._built``.
They hold its structure by construction: a strictly increasing support, so
distinct kets.  The views hand that support on to ``StateVector`` as it is.
A purified state's energies are its Hamiltonian's read-only float64 level
array, built at most once and shared by every purified state of that
Hamiltonian (two threads reading it first at the same moment may each build
an equal copy).
An analytic report whose Rayleigh quotient or residual is not finite is
refused; a finite-difference one carries the NaN on to the caller.

The operator is sum_k (i d/dE_k) x (-i d/dE_k): derivative slot k
differentiates the left factor keyed to k and the right factor keyed to k.
Both builders key term t to slot t on both sides, so every term responds,
and the response replaces each factor by its derivative (the two factors of
i cancel):

    term  ->  L_t'(x_t) * R_t'(y_t) |l_t> |r_t>.

Each family's derivative is coeff times the family, so in closed form every
term is an eigenvector: its image is lambda_t psi_t, with lambda_t =
coeff_L,t * coeff_R,t.  Measuring the operator gives lambda_t with
probability |psi_t|^2, so the Rayleigh quotient is the mean of lambda under
those weights and the residual |(A - <A>) psi| its spread.  Neither the normalization constant Z
nor the families' values are ever differentiated, even though the
normalization of a thermal state does depend on the energies; this is what
makes purified thermal states exact eigenvectors with eigenvalue beta^2/16
(each side carries e^(-beta*E/4), an even split of the purification
amplitude e^(-beta*E/2)), and their reports exactly beta^2/16 and 0.

For post-selected two-temperature states the operator's slot-to-energy
mapping is a convention choice.  ``residual_superposition`` exposes two:
"full_dependence" keeps all four energy levels as formal variables and pairs
slot n with the A-side and B-side factors of term n; "chosen_zero_levels"
additionally treats the two levels that the protocol pins to zero (E1 and
E0') as constants with no functional dependence.  The reported Rayleigh
quotients and residuals are convention outcomes, nothing more.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .protocol import _KETS, BellOutcome, ProtocolConfig, _check_outcome
from .qcore import ConfigurationError, StateVector, _built, _number
from .thermal import ThermalSpec, _check_spec


@dataclass(frozen=True, eq=False, init=False)
class FactoredBipartiteState:
    """Term arrays whose evaluated vector is unit norm by construction.

    The terms' kets are held once, as ``_at``: their (n,) flat indices,
    strictly increasing, the support form of ``StateVector``, frozen by
    ``_store`` and shared as it is by every view.  The energies and the
    family form value * e^(coeff*E) are held with one row per side (left,
    right), broadcasting to (2, n).  Term t carries derivative slot t on
    both sides.  Kets are distinct, so each term is exactly one entry of
    the dense vector.  ``_store`` normalizes once and keeps the per-term
    amplitudes over sqrt(Z) and sqrt(Z), n complex values (16 MB at
    n = 10^6); ``_image`` and ``_evaluated`` read the operator from them
    and the term arrays.

    Only ever a result, so calling ``FactoredBipartiteState``, with or without
    arguments, raises ``TypeError``: ``purified_thermal_state`` and
    ``superposition_state`` build it through ``qcore._built``.
    """

    dims: tuple[int, int]

    def __init__(self, *args, **kwargs) -> None:  # object's own would make an empty, field-less value
        raise TypeError("FactoredBipartiteState has no public constructor: it is a result of "
                        "purified_thermal_state or superposition_state")

    def _store(self, dims, at, energy, value, coeff) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            exps = np.exp(coeff * energy)
            psi = (value[0] * exps[0]) * (value[1] * exps[1])  # side by side: no (2, n) complex array
            z = np.abs(psi)  # squared in place: one n-float temporary at 10^6 terms, not two
            z = float(np.add.reduce(np.multiply(z, z, out=z)))
            if not (isfinite(z) and z >= sys.float_info.min):  # a subnormal Z has lost the digits unit norm needs
                raise ConfigurationError("normalization overflows or vanishes; reduce beta or energies")
            root = sqrt(z)
            psi /= root
            at.setflags(write=False)
            vars(self).update(dims=dims, _at=at, _energy=energy, _value=value, _coeff=coeff, _psi=psi,
                              _root=root)

    def amplitude_vector(self) -> StateVector:
        return _built(StateVector, self.dims, self._psi.copy(), self._at)

    def _eigenvalues(self) -> np.ndarray:
        """Each term's eigenvalue lambda_t = coeff_L,t * coeff_R,t, broadcasting against the n terms."""
        return self._coeff[0] * self._coeff[1]

    def _image(self, h: float | None) -> np.ndarray:
        """Each term's response L'(x)*R'(y) over sqrt(Z).

        In closed form that is lambda_t psi_t.  With ``h`` each derivative is
        a central difference instead, whose image is numerical and not
        lambda_t psi_t; a constant family's derivative is 0 either way.  A
        step below 1e-8 * max(1, max|E|) is refused: E + h would resolve it
        to fewer than about eight digits, or not at all.  Overflows stay inf
        or NaN.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if h is None:
                return self._eigenvalues() * self._psi
            coeff, energy = self._coeff, self._energy
            h = _number("finite-difference step", h)
            if not (isfinite(h) and h > 0.0):
                raise ConfigurationError("finite-difference step must be finite and positive")
            floor = 1e-8 * max(1.0, float(np.abs(energy).max()))
            if h < floor:
                raise ConfigurationError(
                    f"finite-difference step {h:g} is below {floor:g} and cannot resolve the energies"
                )
            slopes = self._value * ((np.exp(coeff * (energy + h)) - np.exp(coeff * (energy - h))) / (2.0 * h))
            return slopes[0] * slopes[1] / self._root

    def _evaluated(self, h: float | None) -> tuple[float, float]:
        """The operator read from the stored terms: (rayleigh, residual).

        In closed form the Rayleigh quotient is the mean of lambda_t under
        the weights P_t = |psi_t|^2 and the residual their spread.  The mean
        is taken as lambda_0 plus the mean of lambda_t - lambda_0, and the
        spread from lambda_t - rayleigh, so a state whose terms share one
        eigenvalue reads exactly that eigenvalue and 0.0.  With ``h`` the
        central-difference image is read as a vector: the Rayleigh quotient
        <psi|image> and the residual |image - rayleigh psi|.  Every sum is a
        pairwise ``np.add.reduce``, whose order does not follow the BLAS
        thread count.  Overflows stay inf or NaN.
        """
        psi = self._psi
        with np.errstate(over="ignore", invalid="ignore"):
            if h is None:
                lam, p = self._eigenvalues(), np.abs(psi) ** 2
                rayleigh = float(lam[0] + np.add.reduce(p * (lam - lam[0])))
                return rayleigh, sqrt(np.add.reduce(p * (lam - rayleigh) ** 2))
            image = self._image(h)  # read as (re, im) pairs of floats
            rayleigh = float(np.add.reduce(psi.view(float) * image.view(float)))
            r = (image - rayleigh * psi).view(float)
            return rayleigh, sqrt(np.add.reduce(r * r))


@dataclass(frozen=True)
class EigenReport:
    """Rayleigh quotient, residual norm, and the analytic value when known."""

    rayleigh: float
    residual: float
    expected: float | None = None


def apply_inverse_temp_squared(state: FactoredBipartiteState, *, fd_step: float | None = None) -> StateVector:
    """Image of the state under the squared-inverse-temperature operator.

    Analytic mode uses the closed-form family derivatives; with ``fd_step``
    each factor is differentiated by a central difference instead.  The
    returned vector is an operator image and is generally not normalized (it
    is zero whenever every responding term contains a constant factor).
    """
    return _built(StateVector, state.dims, state._image(fd_step), state._at)


def _eigen_report(state: FactoredBipartiteState, fd_step: float | None, expected: float | None) -> EigenReport:
    """``state``'s report; an analytic one is refused unless finite, a finite-difference one carries NaN on."""
    rayleigh, residual = state._evaluated(fd_step)
    if fd_step is None and not (isfinite(rayleigh) and isfinite(residual)):
        raise ConfigurationError("Rayleigh quotient or residual is not finite; reduce beta or energies")
    return EigenReport(rayleigh, residual, expected)


def purified_thermal_state(spec: ThermalSpec) -> FactoredBipartiteState:
    """Purified Gibbs state with the amplitude split evenly across the sides.

    Term n is e^(-beta*E_n/4) x e^(-beta*E_n/4) |n>|n> with the constant 1/sqrt(Z)
    prefactor; only this even split makes the state an exact eigenvector.
    The state's energies are the Hamiltonian's own read-only level array,
    shared with every other state of it, not a copy.
    """
    _check_spec("spec", spec)
    d, coeff = spec.hamiltonian.dim, np.full((2, 1), -spec.beta / 4.0)
    return _built(FactoredBipartiteState, (d, d), np.arange(d) * (d + 1), spec.hamiltonian._levels, _UNIT, coeff)


def eigencheck_purified(spec: ThermalSpec, *, fd_step: float | None = None) -> EigenReport:
    """Verify that the purified Gibbs state has eigenvalue beta^2/16, reading ``purified_thermal_state``."""
    _check_spec("spec", spec)
    try:
        expected = spec.beta**2 / 16.0
    except OverflowError:  # once beta passes about 1.3e154
        raise ConfigurationError("beta^2/16 overflows; reduce beta") from None
    return _eigen_report(purified_thermal_state(spec), fd_step, expected)


# the family value 1 on both sides, shared read-only by every purified state
_UNIT = np.ones((2, 1), dtype=complex)
_UNIT.setflags(write=False)


def superposition_state(
    cfg: ProtocolConfig, outcome: BellOutcome, convention: str
) -> FactoredBipartiteState:
    """Post-selected AB state rebuilt as a factored bipartite state.

    Term n pairs the A-side Boltzmann factor e^(-beta_A*E/2) with the B-side
    factor e^(-beta_B*E'/2) under derivative slot n.  For the phi+ outcome
    the terms sit on |00> and |11>; for psi+ on |01> and |10>, where the
    A level n is paired with the B level 1 - n.  Term 1's A factor carries
    the purification phase e^(i*phi) as its value, as ``purify`` puts it.
    A value that is not a :class:`BellOutcome` gets ``post_select``'s refusal.
    """
    _check_outcome(outcome)
    if outcome is BellOutcome.PHI_PLUS:
        kets_b, at = (0, 1), _KETS[0]
    elif outcome is BellOutcome.PSI_PLUS:
        kets_b, at = (1, 0), _KETS[1]
    else:
        raise ConfigurationError(f"unsupported outcome {outcome} for residual analysis")
    if convention not in ("full_dependence", "chosen_zero_levels"):
        raise ConfigurationError(
            f"convention must be 'full_dependence' or 'chosen_zero_levels', got {convention!r}"
        )
    ea = cfg.spec_a.hamiltonian.energies
    eb = cfg.spec_b.hamiltonian.energies
    pin = convention == "chosen_zero_levels"
    if pin and (ea[1] != 0.0 or eb[0] != 0.0):
        raise ConfigurationError("chosen_zero_levels applies only when E1 = 0 and E0' = 0")
    a, b = -cfg.spec_a.beta / 2.0, -cfg.spec_b.beta / 2.0
    # term n sits on |n>|kets_b[n]> under slot n; a pinned level is the constant e^0 (coeff 0)
    return _built(
        FactoredBipartiteState, (2, 2), at, np.array((ea, [eb[k] for k in kets_b])),
        np.array(((1.0, np.exp(1j * cfg.phi)), (1.0, 1.0))),
        np.array(((a, 0.0 if pin else a), [0.0 if pin and k == 0 else b for k in kets_b])),
    )


def residual_superposition(
    cfg: ProtocolConfig, outcome: BellOutcome, convention: str
) -> EigenReport:
    """Rayleigh quotient and residual of a post-selected two-temperature state, reading ``superposition_state``.

    Under "full_dependence" every term responds with the same factor
    beta_A*beta_B/4, which is reported as the expected value; under
    "chosen_zero_levels" no analytic value is claimed.
    """
    state = superposition_state(cfg, outcome, convention)
    expected = cfg.spec_a.beta * cfg.spec_b.beta / 4.0 if convention == "full_dependence" else None
    return _eigen_report(state, None, expected)
