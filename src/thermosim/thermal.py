"""Gibbs states of finite-dimensional systems and their purifications.

Energies are dimensionless and the Boltzmann constant is fixed to 1, so the
inverse temperature ``beta`` carries units of inverse energy.  ``beta = 0``
is the infinite-temperature limit; ``beta = inf`` is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, fsum, inf, isfinite

import numpy as np

from .qcore import ConfigurationError, DensityMatrix, StateVector, _built


@dataclass(frozen=True)
class QuditHamiltonian:
    """Ordered energy levels of one subsystem; degeneracies are allowed."""

    energies: tuple[float, ...]

    def __post_init__(self) -> None:
        energies = tuple(float(e) for e in self.energies)
        if len(energies) < 2:
            raise ConfigurationError("a Hamiltonian needs at least two levels")
        if not all(isfinite(e) for e in energies):
            raise ConfigurationError("energies must be finite")
        if not isfinite(max(energies) - min(energies)):  # the Gibbs kernel shifts by the minimum
            raise ConfigurationError("energy span overflows float64")
        object.__setattr__(self, "energies", energies)

    @property
    def dim(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class ThermalSpec:
    beta: float
    hamiltonian: QuditHamiltonian

    def __post_init__(self) -> None:
        beta = float(self.beta)
        if not isfinite(beta) or beta < 0.0:
            raise ConfigurationError(f"beta must be finite and nonnegative, got {beta}")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class GibbsWeights:
    """Thermal occupation probabilities and the partition function.

    Weights are mathematically strictly positive, but the smallest ones can
    round to 0.0 once beta times the energy spread exceeds about 745; callers
    that require strict positivity (the post-selection protocol) check it
    themselves.  ``partition`` is inf once -beta*E_min passes about 709 (or
    0.0 once beta*E_min passes about 745) while the weights stay valid.
    """

    weights: tuple[float, ...]
    partition: float

    def __post_init__(self) -> None:
        w = tuple(float(x) for x in self.weights)
        if any(x < 0.0 for x in w) or not abs(fsum(w) - 1.0) <= 1e-12:  # NaN fails too
            raise ConfigurationError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)


def _shifted_gibbs(beta, energies) -> tuple[np.ndarray, np.ndarray]:
    """Weights e^(-beta*E_n)/Z over the last axis of ``energies``, and Z * e^(beta*E_min).

    ``beta`` broadcasts against ``energies``, so a batch of betas carries a
    trailing length-1 axis.  Exponentials are shifted by the minimum energy
    before normalization so the weights stay well defined for beta*E up to
    several hundred; beyond about 745 the smallest weights round to 0.0.
    """
    e = np.asarray(energies, dtype=float)
    shifted = np.exp(-beta * (e - np.minimum.reduce(e, axis=-1, keepdims=True)))
    total = np.add.reduce(shifted, axis=-1, keepdims=True)
    return shifted / total, total[..., 0]


def gibbs_weights(spec: ThermalSpec) -> GibbsWeights:
    """Occupation probabilities e^(-beta*E_n)/Z and the partition function Z."""
    weights, total = _shifted_gibbs(spec.beta, spec.hamiltonian.energies)
    try:
        z = exp(-spec.beta * min(spec.hamiltonian.energies)) * float(total)
    except OverflowError:  # Z alone overflows past -beta*E_min of about 709; the weights are fine
        z = inf
    return GibbsWeights(tuple(weights), z)


def thermal_density(spec: ThermalSpec) -> DensityMatrix:
    """Gibbs state, diagonal in the energy eigenbasis.

    A real diagonal of nonnegative weights is positive semidefinite by
    construction, so it skips the eigvalsh.  The d weights themselves are
    handed over and checked, finite and of unit sum, in O(d); ``entries`` is
    still the dense d x d matrix.
    """
    weights, _ = _shifted_gibbs(spec.beta, spec.hamiltonian.energies)
    return _built(DensityMatrix, (spec.hamiltonian.dim,), weights.astype(np.complex128))


def purify(spec: ThermalSpec, phase: float = 0.0) -> StateVector:
    """Purification of the Gibbs state on an (ancilla, system) pair.

    Returns sum_n sqrt(p_n) |n>|n> with the ancilla as the first subsystem,
    so tracing out subsystem 0 recovers ``thermal_density(spec)``.  For
    qubits a relative phase e^(i*phase) may be attached to the n=1 branch;
    for higher dimensions the phase must be 0.

    The state is built in support form: its d amplitudes sqrt(p_n) at the
    flat indices n*(d+1), checked in O(d).  Its dense d^2 ``amps`` is built
    only when read; the partial trace does not read it.
    """
    d = spec.hamiltonian.dim
    phase = float(phase)
    if not isfinite(phase):
        raise ConfigurationError("phase must be finite")
    if phase != 0.0 and d != 2:
        raise ConfigurationError("a purification phase is only supported for qubits")
    weights, _ = _shifted_gibbs(spec.beta, spec.hamiltonian.energies)
    roots = np.sqrt(weights).astype(np.complex128)
    if d == 2:
        roots[1] *= np.exp(1j * phase)
    return _built(StateVector, (d, d), roots, np.arange(d) * (d + 1))
