"""Squared-inverse-temperature operator on factored bipartite amplitudes.

States handled here are finite sums of two-sided product terms,

    |psi> = (1/sqrt(Z)) * sum_t  w_t * L_t(x_t) * R_t(y_t) |l_t> |r_t>,

where L_t and R_t are closed-form amplitude families value * e^(coeff*E + offset)
(a constant has coeff = 0) evaluated at per-side energy arguments, w_t is a
constant complex weight, and Z = sum_t |w_t L_t(x_t) R_t(y_t)|^2 is the terms'
own sum, so every state is unit norm by construction.  Z is evaluated, never
differentiated, and must be a normal float: finite and at least
``sys.float_info.min``.  A state holds its terms as arrays and normalizes
them once, when it is made: one array exponential gives both sides' family
values, their products the per-term amplitudes, and those Z.  It keeps the
family values, the amplitudes over sqrt(Z) and sqrt(Z), 3n complex values for
n terms (48 MB at n = 10^6).  Every value is read from a state: the dense
view, the operator image, and the reports of ``eigencheck_purified`` and
``residual_superposition``, which read the states that
``purified_thermal_state`` and ``superposition_state`` make.  The builders
reach the state through ``qcore._built``, which skips the public
constructor's proofs of structure: they hold it by construction.  An
analytic report whose Rayleigh quotient or residual is not finite is
refused; a finite-difference one carries the NaN on to the caller.

The operator is sum_k (i d/dE_k) x (-i d/dE_k): derivative slot k
differentiates the left factor keyed to k and the right factor keyed to k.
A term therefore responds only when both of its sides carry the same slot
index, and the response replaces each factor by its derivative (the two
factors of i cancel):

    term  ->  w_t * L_t'(x_t) * R_t'(y_t) |l_t> |r_t>.

Neither the normalization constant Z nor the constant weights are ever
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

import sys
from dataclasses import dataclass
from math import isfinite, sqrt
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .protocol import BellOutcome, ProtocolConfig
from .qcore import ConfigurationError, StateVector, _built, _check_dims, _number, _numbers
from .thermal import ThermalSpec


@dataclass(frozen=True)
class ExpLinear:
    """Amplitude family value * e^(coeff*E + offset); the derivative is coeff times the amplitude."""

    coeff: float
    offset: float = 0.0
    value: complex = 1.0


def Constant(value: complex) -> ExpLinear:
    """Energy-independent amplitude ``value``: the family with coeff = 0, whose derivative vanishes."""
    return ExpLinear(0.0, value=value)


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
    left: ExpLinear
    right: ExpLinear
    left_energy: float
    right_energy: float
    weight: complex = 1.0 + 0j

    @classmethod
    def diagonal(
        cls,
        index: int,
        left: ExpLinear,
        right: ExpLinear,
        left_energy: float,
        right_energy: float | None = None,
        weight: complex = 1.0 + 0j,
    ) -> "FactoredTerm":
        """Term |n>|n> whose both sides are keyed to derivative slot n."""
        if right_energy is None:
            right_energy = left_energy
        return cls(index, index, index, index, left, right, left_energy, right_energy, weight)


_TERM_FIELDS = attrgetter("left_var", "right_var", "left_basis", "right_basis", "left_energy", "right_energy",
                          "left.coeff", "right.coeff", "left.offset", "right.offset", "left.value", "right.value",
                          "weight")  # the term fields read into the state's arrays, one row each
_TERM_ROWS = (  # the (name, kind) of each of those rows
    2 * [("derivative slot", "integer")] + 2 * [("basis ket", "integer")] + 2 * [("energy", "real")]
    + 2 * [("coefficient", "real")] + 2 * [("offset", "real")] + 2 * [("value", "complex")] + [("weight", "complex")]
)


def _checked_dims(basis, energy) -> tuple[int, ...]:
    """The dense dims of term arrays from a caller: refuses no terms, a non-finite energy and a dim below 2."""
    if not energy.size:
        raise ConfigurationError("a factored state needs at least one term")
    if not np.isfinite(energy).all():
        raise ConfigurationError("term energies must be finite")
    return _check_dims(basis.max(axis=1) + 1)


@dataclass(frozen=True, eq=False, init=False)
class FactoredBipartiteState:
    """Term arrays whose evaluated vector is unit norm by construction.

    The terms are held as arrays with one row per side (left, right): (2, n)
    kets, slots and energies, a weight that broadcasts against (n,) and the
    family form value * e^(coeff*E + offset) against (2, n).  Kets are
    distinct, so each term is exactly one entry of the dense vector.
    ``_store`` normalizes once and keeps the (2, n) family values, the
    per-term amplitudes over sqrt(Z) and sqrt(Z), 3n complex values (48 MB at
    n = 10^6); ``_evaluated`` reads the operator from them.  The public
    constructor converts ``FactoredTerm``s once and proves what the builders
    hold by construction: integer, distinct slot pairs and kets, numeric
    family fields, one energy per slot, at least one term, finite energies
    and dims of at least 2.
    """

    dims: tuple[int, int]

    def __init__(self, terms: Iterable[FactoredTerm]) -> None:
        rows = zip(_TERM_ROWS, zip(*map(_TERM_FIELDS, terms)))  # a float, 1.0 too, is no ket; "1.5" is no energy
        fields = [_numbers(f"term {name}", row, kind) for (name, kind), row in rows]
        var, basis = np.array(fields[:4], dtype=np.int64).reshape(2, 2, -1)
        energy, coeff, offset = np.array(fields[4:10], dtype=float).reshape(3, 2, -1)
        complex_rows = np.array(fields[10:], dtype=np.complex128).reshape(3, -1)
        value, weight = complex_rows[:2], complex_rows[2]
        n = energy.shape[1]
        if len(set(zip(*var.tolist()))) != n:
            raise ConfigurationError("terms must carry distinct derivative-slot pairs")
        if len(set(zip(*basis.tolist()))) != n or (basis < 0).any():
            raise ConfigurationError("terms must carry distinct, nonnegative basis kets")
        for side, side_slots, energies in zip(("left", "right"), var.tolist(), energy.tolist()):
            points: dict[int, float] = {}
            for slot, point in zip(side_slots, energies):  # non-finite energies are refused next
                if isfinite(point) and points.setdefault(slot, point) != point:
                    raise ConfigurationError(f"{side} variable {slot} is evaluated at two different energies")
        self._store(_checked_dims(basis, energy), basis, var, energy, weight, value, coeff, offset)

    def _store(self, dims, basis, var, energy, weight, value, coeff, offset) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            amplitude = value * np.exp(coeff * energy + offset)
            psi = weight * amplitude[0] * amplitude[1]
            z = float(np.add.reduce(np.abs(psi) ** 2))
            if not (isfinite(z) and z >= sys.float_info.min):  # a subnormal Z has lost the digits unit norm needs
                raise ConfigurationError("normalization overflows or vanishes; reduce beta or energies")
            root = sqrt(z)
            vars(self).update(dims=dims, _basis=basis, _var=var, _energy=energy, _weight=weight, _value=value,
                              _coeff=coeff, _offset=offset, _amplitude=amplitude, _psi=psi / root, _root=root)

    @property
    def terms(self) -> tuple[FactoredTerm, ...]:
        """The state's terms, built from its arrays on each access."""
        shape = self._energy.shape
        weight = np.broadcast_to(self._weight, shape[1:]).tolist()
        value, coeff, offset = (np.broadcast_to(x, shape).tolist() for x in (self._value, self._coeff, self._offset))
        left, right = ([ExpLinear(*f) for f in zip(*side)] for side in zip(coeff, offset, value))
        return tuple(map(FactoredTerm, *self._var.tolist(), *self._basis.tolist(), left, right,
                         *self._energy.tolist(), weight))

    def amplitude_vector(self) -> StateVector:
        return _dense(self, self._psi)

    def _evaluated(self, h: float | None):
        """The operator read from the stored terms: (image, rayleigh, residual).

        The image holds each term's response w*L'(x)*R'(y) over sqrt(Z), 0
        where the two sides carry different slots.  Each derivative is the
        closed form coeff * amplitude or, with ``h``, a central difference; a
        constant family's derivative is 0 either way.  A step below
        1e-8 * max(1, max|E|) is refused: E + h would resolve it to fewer
        than about eight digits, or not at all.  The Rayleigh quotient is
        <psi|image> and the residual |image - rayleigh psi| in numpy's
        complex-vector norm arithmetic.  Overflows stay inf or NaN.
        """
        coeff, energy, psi = self._coeff, self._energy, self._psi
        with np.errstate(over="ignore", invalid="ignore"):
            if h is None:
                slopes = coeff * self._amplitude
            else:
                h = _number("finite-difference step", h)
                if not (isfinite(h) and h > 0.0):
                    raise ConfigurationError("finite-difference step must be finite and positive")
                floor = 1e-8 * max(1.0, float(np.abs(energy).max()))
                if h < floor:
                    raise ConfigurationError(
                        f"finite-difference step {h:g} is below {floor:g} and cannot resolve the energies"
                    )
                exp = lambda at: np.exp(coeff * at + self._offset)
                slopes = self._value * ((exp(energy + h) - exp(energy - h)) / (2.0 * h))
            image = np.where(self._var[0] == self._var[1], self._weight * slopes[0] * slopes[1], 0j) / self._root
            rayleigh = float(np.vdot(psi, image).real)
            r = image - rayleigh * psi
            residual = sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))
        return image, rayleigh, residual


def _dense(state: FactoredBipartiteState, values: np.ndarray) -> StateVector:
    """Per-term values scattered onto their kets of the dense ``dims`` array."""
    arr = np.zeros(state.dims, dtype=np.complex128)
    arr[tuple(state._basis)] = values
    return _built(StateVector, state.dims, arr.reshape(-1))


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
    return _dense(state, state._evaluated(fd_step)[0])


def _eigen_report(state: FactoredBipartiteState, fd_step: float | None, expected: float | None) -> EigenReport:
    """``state``'s report; an analytic one is refused unless finite, a finite-difference one carries NaN on."""
    rayleigh, residual = state._evaluated(fd_step)[1:]
    if fd_step is None and not (isfinite(rayleigh) and isfinite(residual)):
        raise ConfigurationError("Rayleigh quotient or residual is not finite; reduce beta or energies")
    return EigenReport(rayleigh, residual, expected)


def purified_thermal_state(spec: ThermalSpec) -> FactoredBipartiteState:
    """Purified Gibbs state with the amplitude split evenly across the sides.

    Term n is e^(-beta*E_n/4) x e^(-beta*E_n/4) |n>|n> with the constant 1/sqrt(Z)
    prefactor; only this even split makes the state an exact eigenvector.
    """
    energy = np.array(spec.hamiltonian.energies)
    slots = np.broadcast_to(np.arange(energy.size), (2, energy.size))
    return _built(FactoredBipartiteState, (energy.size,) * 2, slots, slots, np.broadcast_to(energy, slots.shape),
                  1.0 + 0j, 1.0 + 0j, -spec.beta / 4.0, 0.0)


def product_state(
    left: Sequence[ExpLinear],
    right: Sequence[ExpLinear],
    energies: Sequence[float],
) -> FactoredBipartiteState:
    """Product |a> x |b> with a_n = left[n](E_n) and b_m = right[m](E_m).

    Both sides share the energy variables, so the term (n, m) carries
    derivative slots (n, m) and only the diagonal n = m responds to the
    operator.  Used to exhibit its non-local action.
    """
    energies = _numbers("energies", energies)
    if len(left) != len(energies) or len(right) != len(energies):
        raise ConfigurationError("need one family per energy on each side")
    kets = np.indices((len(energies),) * 2).reshape(2, -1)  # term (n, m) in row-major order
    per_term = lambda name, kind: np.take_along_axis(  # the left family of level n, the right one of level m
        np.reshape(_numbers(f"family {name}", [getattr(f, name) for f in (*left, *right)], kind), (2, -1)), kets, 1)
    families = per_term("value", "complex"), per_term("coeff", "real"), per_term("offset", "real")
    energy = np.array(energies)[kets]
    return _built(FactoredBipartiteState, _checked_dims(kets, energy), kets, kets, energy, 1.0 + 0j, *families)


def eigencheck_purified(spec: ThermalSpec, *, fd_step: float | None = None) -> EigenReport:
    """Verify that the purified Gibbs state has eigenvalue beta^2/16, reading ``purified_thermal_state``."""
    try:
        expected = spec.beta**2 / 16.0
    except OverflowError:  # once beta passes about 1.3e154
        raise ConfigurationError("beta^2/16 overflows; reduce beta") from None
    return _eigen_report(purified_thermal_state(spec), fd_step, expected)


def _read_only(rows) -> np.ndarray:
    arr = np.array(rows)
    arr.flags.writeable = False
    return arr


# (left, right) rows of the two-term superpositions' kets and slots, shared read-only by every state:
# the slots and the phi+ kets |00>, |11> are _DIAGONAL, the psi+ kets |01>, |10> are _CROSSED
_DIAGONAL = _read_only(((0, 1), (0, 1)))
_CROSSED = _read_only(((0, 1), (1, 0)))


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
        kets_b, kets = (0, 1), _DIAGONAL
    elif outcome is BellOutcome.PSI_PLUS:
        kets_b, kets = (1, 0), _CROSSED
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
        FactoredBipartiteState, (2, 2), kets, _DIAGONAL, np.array((ea, [eb[k] for k in kets_b])),
        np.array((1.0, np.exp(1j * cfg.phi))), 1.0 + 0j,
        np.array(((a, 0.0 if pin else a), [0.0 if pin and k == 0 else b for k in kets_b])), 0.0,
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
