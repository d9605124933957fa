"""Gibbs states of finite-dimensional systems and their purifications.

Energies are dimensionless and the Boltzmann constant is fixed to 1, so the
inverse temperature ``beta`` carries units of inverse energy.  ``beta = 0``
is the infinite-temperature limit; ``beta = inf`` is rejected.

A Hamiltonian's levels are checked once and converted to one read-only
float64 array at most once: by the checks themselves from ``_ARRAY_CHECKS``
levels on, otherwise on the first read.  A spec's Gibbs
weights and Z are likewise evaluated at most once, on the first read, and
shared read-only by ``thermal_density``, ``purify`` and ``gibbs_weights``;
``tempop``'s purified states share the level array.  Two threads reading
either first at the same moment may each build an equal copy.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass
from functools import cached_property
from math import isfinite, log

import numpy as np

from .qcore import ConfigurationError, DensityMatrix, StateVector, _built, _number, _numbers


# from this many levels on, the level checks run as two numpy reductions on the level array; on
# fewer, Python floats are faster (2 levels: about 0.45 us, against 2.1 us for the reductions)
_ARRAY_CHECKS = 64


@dataclass(frozen=True)
class QuditHamiltonian:
    """Ordered energy levels of one subsystem; degeneracies are allowed.

    A set or a mapping has no level order of its own, so it is refused.
    ``energies`` is the levels as a tuple of Python floats; the private
    ``_levels`` is the same levels as a read-only float64 array, built at
    most once and never compared or hashed.
    """

    energies: tuple[float, ...]

    def __post_init__(self) -> None:
        if isinstance(self.energies, (Set, Mapping)):
            raise ConfigurationError(f"energies must be an ordered sequence, got {type(self.energies).__name__}")
        energies = _numbers("energies", self.energies)
        object.__setattr__(self, "energies", energies)
        if len(energies) < 2:
            raise ConfigurationError("a Hamiltonian needs at least two levels")
        if len(energies) < _ARRAY_CHECKS:
            # a finite sum proves every level finite; only an overflowing one needs the per-level pass
            finite = isfinite(sum(energies)) or all(map(isfinite, energies))
            low, high = min(energies), max(energies)
        else:
            low, high = float(self._levels.min()), float(self._levels.max())
            finite = isfinite(low) and isfinite(high)  # a NaN level is the min and the max
        if not finite:
            raise ConfigurationError("energies must be finite")
        if not isfinite(high - low):  # the Gibbs kernel shifts by the minimum
            raise ConfigurationError("energy span overflows float64")

    @property
    def dim(self) -> int:
        return len(self.energies)

    @cached_property
    def _levels(self) -> np.ndarray:
        """``energies`` as one read-only float64 array, built at most once."""
        levels = np.fromiter(self.energies, float, len(self.energies))
        levels.setflags(write=False)
        return levels


@dataclass(frozen=True)
class ThermalSpec:
    beta: float
    hamiltonian: QuditHamiltonian

    def __post_init__(self) -> None:
        beta = _number("beta", self.beta)
        if not isfinite(beta) or beta < 0.0:
            raise ConfigurationError(f"beta must be finite and nonnegative, got {beta}")
        if not isinstance(self.hamiltonian, QuditHamiltonian):
            raise ConfigurationError(f"hamiltonian must be a QuditHamiltonian, got {type(self.hamiltonian).__name__}")
        object.__setattr__(self, "beta", beta)

    @cached_property
    def _gibbs(self) -> tuple[np.ndarray, float]:
        """:func:`_shifted_gibbs` of this spec, its weights read-only: evaluated at most once, never compared."""
        weights, total = _shifted_gibbs(self.beta, self.hamiltonian._levels)
        weights.setflags(write=False)
        return weights, total


def _check_spec(name: str, spec) -> None:
    """Refuses a ``spec`` that is not a :class:`ThermalSpec`, naming it ``name``."""
    if not isinstance(spec, ThermalSpec):
        raise ConfigurationError(f"{name} must be a ThermalSpec, got {type(spec).__name__}")


@dataclass(frozen=True)
class GibbsWeights:
    """Thermal occupation probabilities and log Z: :func:`gibbs_weights`' result record, unchecked.

    Weights are mathematically strictly positive, but the smallest ones can
    round to 0.0 once beta times the energy spread exceeds about 745; callers
    that require strict positivity (the post-selection protocol) check it
    themselves.  ``log_partition`` is log Z: +-inf only if beta*E_min overflows.
    """

    weights: tuple[float, ...]
    log_partition: float


def _shifted_gibbs(beta: float, energies) -> tuple[np.ndarray, float]:
    """Weights e^(-beta*E_n)/Z of the levels ``energies``, and Z * e^(beta*E_min).

    Exponentials are shifted by the minimum energy before normalization so
    the weights stay well defined for beta*E up to several hundred; beyond
    about 745 the smallest weights round to 0.0, and so do those whose
    beta*(E - E_min) overflows to inf.
    """
    e = np.asarray(energies, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing exponent is -inf, whose weight is exactly 0.0
        shifted = np.exp(-beta * (e - e.min()))
    total = shifted.sum()
    return shifted / total, float(total)


def _qubit_weights(name: str, spec) -> tuple[float, float]:
    """Gibbs weights (w0, w1) of the qubit ``spec``, as Python floats; ``name`` names it in refusals.

    Refuses a ``spec`` that is not a :class:`ThermalSpec` of a qubit.  The
    weights are :func:`_shifted_gibbs`', bit for bit: each exponent
    -beta*(E - E_min), the sum and each division is one IEEE-754 operation
    that Python rounds as numpy does, so only the two exponentials, in one
    call, go through numpy.  An exponent that overflows is -inf in Python
    floats, with no warning, and its weight 0.0.  Refuses a weight that
    underflows to 0.0, since the post-selection and the read-out divide by
    every weight.
    """
    _check_spec(name, spec)
    if spec.hamiltonian.dim != 2:
        raise ConfigurationError(f"{name} must describe a qubit")
    beta, (e0, e1) = spec.beta, spec.hamiltonian.energies
    low = min(e0, e1)
    w0, w1 = np.exp([-beta * (e0 - low), -beta * (e1 - low)]).tolist()
    total = w0 + w1
    w0, w1 = w0 / total, w1 / total
    if not (w0 > 0.0 and w1 > 0.0):
        raise ConfigurationError(f"{name} has a Gibbs weight that underflows to zero; reduce beta or the energy gap")
    return w0, w1


def gibbs_weights(spec: ThermalSpec) -> GibbsWeights:
    """Occupation probabilities e^(-beta*E_n)/Z and log Z."""
    _check_spec("spec", spec)
    weights, total = spec._gibbs
    return GibbsWeights(tuple(weights.tolist()), log(total) - spec.beta * min(spec.hamiltonian.energies))


def thermal_density(spec: ThermalSpec) -> DensityMatrix:
    """Gibbs state, diagonal in the energy eigenbasis.

    A real diagonal of nonnegative weights is Hermitian and positive
    semidefinite by construction.  The d float64 weights themselves are
    handed over and checked, finite and of unit sum, in O(d); ``entries`` is
    still the dense d x d matrix, real float64 like the weights.
    """
    _check_spec("spec", spec)
    return _built(DensityMatrix, (spec.hamiltonian.dim,), spec._gibbs[0])


def purify(spec: ThermalSpec, phase: float = 0.0) -> StateVector:
    """Purification of the Gibbs state on an (ancilla, system) pair.

    Returns sum_n sqrt(p_n) |n>|n> with the ancilla as the first subsystem,
    so tracing out subsystem 0 recovers ``thermal_density(spec)``.  For
    qubits a relative phase e^(i*phase) may be attached to the n=1 branch;
    for higher dimensions the phase must be 0.

    The state is built in support form: its d amplitudes sqrt(p_n) at the
    flat indices n*(d+1), checked finite in O(d).  Its dense d^2 ``amps`` is built
    only when read; the partial trace does not read it.
    """
    _check_spec("spec", spec)
    d = spec.hamiltonian.dim
    phase = _number("phase", phase)
    if not isfinite(phase):
        raise ConfigurationError("phase must be finite")
    if phase != 0.0 and d != 2:
        raise ConfigurationError("a purification phase is only supported for qubits")
    roots = np.sqrt(spec._gibbs[0]).astype(np.complex128)
    if d == 2:
        roots[1] *= np.exp(1j * phase)
    return _built(StateVector, (d, d), roots, np.arange(d) * (d + 1))
