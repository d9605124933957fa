"""Squared-inverse-temperature operator on factored bipartite amplitudes.

States handled here are finite sums of two-sided product terms,

    |psi> = (1/sqrt(Z)) * sum_t  w_t * L_t(x_t) * R_t(y_t) |l_t> |r_t>,

where L_t and R_t are closed-form amplitude families value * e^(coeff*E + offset)
(a constant has coeff = 0) evaluated at per-side energy arguments, w_t is a
constant complex weight, and Z is an optional frozen normalization constant.
A state's terms are evaluated as arrays, both sides with one array
exponential.

The operator is sum_k (i d/dE_k) x (-i d/dE_k): derivative slot k
differentiates the left factor keyed to k and the right factor keyed to k.
A term therefore responds only when both of its sides carry the same slot
index, and the response replaces each factor by its derivative (the two
factors of i cancel):

    term  ->  w_t * L_t'(x_t) * R_t'(y_t) |l_t> |r_t>.

Neither the frozen normalization constant nor the constant weights are ever
differentiated, even though the normalization of a thermal state does depend
on the energies; this is what makes purified thermal states exact
eigenvectors with eigenvalue beta^2/16 (each side carries e^(-beta*E/4), an
even split of the purification amplitude e^(-beta*E/2)).

For post-selected two-temperature states the operator's slot-to-energy
mapping is a convention choice.  ``residual_superposition`` exposes two:
"full_dependence" keeps all four energy levels as formal variables and pairs
slot n with the A-side and B-side factors of term n; "chosen_zero_levels"
additionally treats the two levels that the protocol pins to zero (E1 and
E0') as constants with no functional dependence.  The reported Rayleigh
quotients and residuals are convention outcomes, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sqrt
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .protocol import BellOutcome, ProtocolConfig
from .qcore import EQ_TOL, ConfigurationError, StateVector, _check_dims
from .thermal import ThermalSpec


@dataclass(frozen=True)
class ExpLinear:
    """Amplitude family value * e^(coeff*E + offset); the derivative is coeff times the amplitude."""

    coeff: float
    offset: float = 0.0
    value: complex = 1.0

    def amplitude(self, energy: float) -> complex:
        return complex(self.value * np.exp(self.coeff * energy + self.offset))

    def derivative(self, energy: float) -> complex:
        return self.coeff * self.amplitude(energy)


def Constant(value: complex) -> ExpLinear:
    """Energy-independent amplitude ``value``: the family with coeff = 0, whose derivative vanishes."""
    return ExpLinear(0.0, value=value)


AmplitudeFamily = ExpLinear


@dataclass(frozen=True)
class FactoredTerm:
    """One product term w * L(x) * R(y) |left_basis>|right_basis>.

    ``left_var`` and ``right_var`` name the derivative slots the two factors
    are keyed to; ``left_energy`` and ``right_energy`` are the evaluation
    points of those variables.
    """

    left_var: int
    right_var: int
    left_basis: int
    right_basis: int
    left: AmplitudeFamily
    right: AmplitudeFamily
    left_energy: float
    right_energy: float
    weight: complex = 1.0 + 0j

    @classmethod
    def diagonal(
        cls,
        index: int,
        left: AmplitudeFamily,
        right: AmplitudeFamily,
        left_energy: float,
        right_energy: float | None = None,
        weight: complex = 1.0 + 0j,
    ) -> "FactoredTerm":
        """Term |n>|n> whose both sides are keyed to derivative slot n."""
        if right_energy is None:
            right_energy = left_energy
        return cls(index, index, index, index, left, right, left_energy, right_energy, weight)

    def amplitude(self) -> complex:
        return self.weight * self.left.amplitude(self.left_energy) * self.right.amplitude(self.right_energy)


_TERM_FIELDS = attrgetter(
    "left_var", "right_var", "left_basis", "right_basis",
    "weight", "left.value", "right.value",
    "left.coeff", "right.coeff", "left.offset", "right.offset", "left_energy", "right_energy",
)


class _Columns(NamedTuple):
    """A term list as arrays, the family arrays with one row per side (left, right).

    ``var`` and ``basis`` hold the left and right slot and ket tuples for the
    set-based validation.  Each family is taken apart into its form
    value * e^(coeff*E + offset); ``amplitude`` is that form at the term's
    energy and ``product`` the term's w*L(x)*R(y), both evaluated once.
    Values that overflow are left as inf or NaN, for the callers' finiteness
    and unit-norm checks to refuse.
    """

    var: tuple[tuple[int, ...], tuple[int, ...]]
    basis: tuple[tuple[int, ...], tuple[int, ...]]
    weight: np.ndarray
    value: np.ndarray
    coeff: np.ndarray
    offset: np.ndarray
    energy: np.ndarray
    amplitude: np.ndarray
    product: np.ndarray

    @classmethod
    def of(cls, terms: Sequence[FactoredTerm]) -> "_Columns":
        fields = tuple(zip(*map(_TERM_FIELDS, terms)))
        complex_rows = np.array(sum(fields[4:7], ()), dtype=np.complex128).reshape(3, -1)
        float_rows = np.array(sum(fields[7:], ()), dtype=float).reshape(3, 2, -1)
        weight, value = complex_rows[0], complex_rows[1:]
        coeff, offset, energy = float_rows[0], float_rows[1], float_rows[2]
        with np.errstate(over="ignore", invalid="ignore"):
            amplitude = value * np.exp(coeff * energy + offset)
            product = weight * amplitude[0] * amplitude[1]
        return cls(fields[0:2], fields[2:4], weight, value, coeff, offset, energy, amplitude, product)

    def image(self, h: float | None) -> np.ndarray:
        """Per-term operator images w*L'(x)*R'(y), 0 where the two sides carry different slots.

        Each derivative is the closed form coeff * amplitude or, with ``h``, a
        central difference; a constant family's derivative is 0 either way.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if h is None:
                slopes = self.coeff * self.amplitude
            else:
                exp = lambda energy: np.exp(self.coeff * energy + self.offset)
                slopes = self.value * ((exp(self.energy + h) - exp(self.energy - h)) / (2.0 * h))
            return np.where(np.equal(*self.var), self.weight * slopes[0] * slopes[1], 0j)


@dataclass(frozen=True, eq=False)
class FactoredBipartiteState:
    """Term list plus an optional frozen normalization divisor.

    The evaluated vector must be unit norm; ``frozen_norm`` (when present) is
    the constant Z such that amplitudes carry an overall factor 1/sqrt(Z).
    Kets are distinct, so each term is exactly one entry of the dense vector.
    """

    terms: tuple[FactoredTerm, ...]
    frozen_norm: float | None = None
    _columns: _Columns = field(init=False, repr=False)
    _amplitudes: np.ndarray = field(init=False, repr=False)  # per term, over sqrt(Z)

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ConfigurationError("a factored state needs at least one term")
        # _normalized hands over the columns it evaluated for Z
        columns = vars(self).get("_columns") or _Columns.of(terms)
        if len(set(zip(*columns.var))) != len(terms):
            raise ConfigurationError("terms must carry distinct derivative-slot pairs")
        if len(set(zip(*columns.basis))) != len(terms) or min(min(b) for b in columns.basis) < 0:
            raise ConfigurationError("terms must carry distinct, nonnegative basis kets")
        for side, variables, energies in zip(("left", "right"), columns.var, columns.energy.tolist()):
            points: dict[int, float] = {}
            for var, energy in zip(variables, energies):
                if not isfinite(energy):
                    raise ConfigurationError("term energies must be finite")
                if points.setdefault(var, energy) != energy:
                    raise ConfigurationError(
                        f"{side} variable {var} is evaluated at two different energies"
                    )
        if self.frozen_norm is not None:
            z = float(self.frozen_norm)
            if not isfinite(z) or z <= 0.0:
                raise ConfigurationError("frozen normalization must be finite and positive")
            object.__setattr__(self, "frozen_norm", z)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_columns", columns)
        _check_dims(self.dims)  # the dense view must be a valid state
        amplitudes = _over_sqrt_z(columns.product, self.frozen_norm)
        if not abs(sqrt(np.vdot(amplitudes, amplitudes).real) - 1.0) <= EQ_TOL:  # NaN fails too
            raise ConfigurationError("evaluated state must be unit norm")
        amplitudes.setflags(write=False)
        object.__setattr__(self, "_amplitudes", amplitudes)

    @property
    def dims(self) -> tuple[int, int]:
        left, right = self._columns.basis
        return max(left) + 1, max(right) + 1

    def amplitude_vector(self) -> StateVector:
        return _dense(self, self._amplitudes)


def _over_sqrt_z(values: np.ndarray, frozen_norm: float | None) -> np.ndarray:
    return values if frozen_norm is None else values / sqrt(frozen_norm)


def _image(state: FactoredBipartiteState, fd_step: float | None) -> np.ndarray:
    """Per-term operator images w*L'(x)*R'(y) over sqrt(Z), 0 where a term does not respond."""
    if fd_step is not None and not (isfinite(fd_step) and fd_step > 0.0):
        raise ConfigurationError("finite-difference step must be finite and positive")
    return _over_sqrt_z(state._columns.image(fd_step), state.frozen_norm)


def _dense(state: FactoredBipartiteState, values: np.ndarray) -> StateVector:
    """Per-term values scattered onto their kets of the dense ``dims`` array."""
    arr = np.zeros(state.dims, dtype=np.complex128)
    arr[state._columns.basis] = values
    return StateVector(state.dims, arr.reshape(-1))


def _normalized(terms: Iterable[FactoredTerm]) -> FactoredBipartiteState:
    """State over ``terms`` whose frozen normalization is Z = sum_t |w_t L_t(x_t) R_t(y_t)|^2."""
    terms = tuple(terms)
    if not terms:
        return FactoredBipartiteState(terms)  # refused there
    columns = _Columns.of(terms)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing Z is refused below
        z = float((np.abs(columns.product) ** 2).sum())
    if not (isfinite(z) and z > 0.0):
        raise ConfigurationError("normalization overflows or vanishes; reduce beta or energies")
    # the terms are read into columns once: __post_init__ takes these over
    # and still runs every check of the public constructor
    state = object.__new__(FactoredBipartiteState)
    object.__setattr__(state, "_columns", columns)
    state.__init__(terms, frozen_norm=z)
    return state


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
    return _dense(state, _image(state, fd_step))


def purified_thermal_state(spec: ThermalSpec) -> FactoredBipartiteState:
    """Purified Gibbs state with the amplitude split evenly across the sides.

    Term n is e^(-beta*E_n/4) x e^(-beta*E_n/4) |n>|n> with a frozen 1/sqrt(Z)
    prefactor; only this even split makes the state an exact eigenvector.
    """
    family = ExpLinear(-spec.beta / 4.0)
    return _normalized(
        FactoredTerm.diagonal(n, family, family, energy)
        for n, energy in enumerate(spec.hamiltonian.energies)
    )


def product_state(
    left: Sequence[AmplitudeFamily],
    right: Sequence[AmplitudeFamily],
    energies: Sequence[float],
) -> FactoredBipartiteState:
    """Product |a> x |b> with a_n = left[n](E_n) and b_m = right[m](E_m).

    Both sides share the energy variables, so the term (n, m) carries
    derivative slots (n, m) and only the diagonal n = m responds to the
    operator.  Used to exhibit its non-local action.
    """
    if len(left) != len(energies) or len(right) != len(energies):
        raise ConfigurationError("need one family per energy on each side")
    return _normalized(
        FactoredTerm(n, m, n, m, left[n], right[m], float(energies[n]), float(energies[m]))
        for n in range(len(energies))
        for m in range(len(energies))
    )


def _eigen_report(state: FactoredBipartiteState, fd_step: float | None, expected: float | None) -> EigenReport:
    psi = state._amplitudes
    image = _image(state, fd_step)
    rayleigh = float(np.vdot(psi, image).real)
    residual = float(np.linalg.norm(image - rayleigh * psi))
    return EigenReport(rayleigh, residual, expected)


def eigencheck_purified(spec: ThermalSpec, *, fd_step: float | None = None) -> EigenReport:
    """Verify that the purified Gibbs state has eigenvalue beta^2/16."""
    return _eigen_report(purified_thermal_state(spec), fd_step, expected=spec.beta**2 / 16.0)


def superposition_state(
    cfg: ProtocolConfig, outcome: BellOutcome, convention: str
) -> FactoredBipartiteState:
    """Post-selected AB state rebuilt as a factored bipartite state.

    Term n pairs the A-side Boltzmann factor e^(-beta_A*E/2) with the B-side
    factor e^(-beta_B*E'/2) under derivative slot n.  For the phi+ outcome
    the terms sit on |00> and |11>; for psi+ on |01> and |10>, where the
    A level n is paired with the B level 1 - n.
    """
    if outcome is BellOutcome.PHI_PLUS:
        pairing = ((0, 0), (1, 1))
    elif outcome is BellOutcome.PSI_PLUS:
        pairing = ((0, 1), (1, 0))
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
    one, exp_a, exp_b = Constant(1.0), ExpLinear(-cfg.spec_a.beta / 2.0), ExpLinear(-cfg.spec_b.beta / 2.0)
    terms = []
    for slot, (ia, ib) in enumerate(pairing):
        # a pinned level is the constant e^0
        left = one if pin and ia == 1 else exp_a
        right = one if pin and ib == 0 else exp_b
        weight = np.exp(1j * cfg.phi) if ia == 1 else 1.0 + 0j
        terms.append(FactoredTerm(slot, slot, ia, ib, left, right, ea[ia], eb[ib], weight))
    return _normalized(terms)


def residual_superposition(
    cfg: ProtocolConfig, outcome: BellOutcome, convention: str
) -> EigenReport:
    """Rayleigh quotient and residual of a post-selected two-temperature state.

    Under "full_dependence" every term responds with the same factor
    beta_A*beta_B/4, which is reported as the expected value; under
    "chosen_zero_levels" no analytic value is claimed.
    """
    state = superposition_state(cfg, outcome, convention)
    expected = cfg.spec_a.beta * cfg.spec_b.beta / 4.0 if convention == "full_dependence" else None
    return _eigen_report(state, None, expected)
