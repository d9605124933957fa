"""Dense complex linear algebra over tensor products of finite-dimensional subsystems.

Basis convention, used everywhere in this package: product-basis states are
ordered lexicographically with the FIRST subsystem as the most significant
digit.  For dims (2, 2) the amplitude order is |00>, |01>, |10>, |11>; for a
four-qubit register the flat index of |abcd> is 8a + 4b + 2c + d.

All operations are pure functions and every value is immutable after
construction, with one exception: a support-form ``StateVector`` (below)
builds its dense ``amps`` once, on the first read, and stores it.  Everything
here is safe for unsynchronized concurrent use, except that two threads
reading such a state's ``amps`` first at the same moment may each get an
equal but distinct array.

Each value class checks and freezes its array in one ``_store``: a public
constructor copies its input into it, and ``_built`` takes over, without a
copy, a fresh array that the library built itself.  Two of those arrays are
sparse forms checked in O(size): a diagonal ``DensityMatrix`` arrives as its
d values, and a ``StateVector`` with few nonzeros (a purification) as its
support, the (k,) amplitudes at strictly increasing flat indices.  The
diagonal partial trace reads the support directly; ``amps`` is built from it
only for a caller that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Sequence

import numpy as np

EQ_TOL = 1e-12   # tolerance for exact-algebra identities
FD_TOL = 1e-6    # tolerance for finite-difference comparisons
PSD_TOL = 1e-10  # most negative admissible density-matrix eigenvalue


class ConfigurationError(ValueError):
    """Raised when an input violates a documented structural precondition."""


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = tuple(map(int, dims))
    if not out or min(out) < 2:
        raise ConfigurationError(f"subsystem dims must all be >= 2, got {out}")
    return out


def _built(cls, *fields):
    """A ``cls`` value checked by its ``_store(*fields)`` alone, skipping the public constructor.

    ``fields`` are fresh arrays no caller holds, taken over without a copy,
    that hold the public constructor's further proofs by construction.
    """
    value = object.__new__(cls)
    value._store(*fields)
    return value


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over a tensor product of subsystems.

    States built by the public constructors of this package (purifications,
    post-selected states, Bell states) are unit norm.  Images under general
    operators (projectors, derivative operators) need not be and may even be
    zero; use :meth:`norm` or :func:`fidelity_pure` to compare.

    ``amps`` is always the dense, read-only complex vector.  A state the
    library builds with few nonzeros (a purification) reaches ``_built`` in
    support form instead: its (k,) amplitudes and their strictly increasing
    flat indices, every other amplitude being zero.  Those are checked in
    O(k) and kept as ``_support``; ``amps`` is built from them on its first
    read and then stored, so it is built at most once (two threads reading it
    first at the same moment may each build an equal copy).  A dense state's
    ``_support`` is None.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        self._store(self.dims, np.array(self.amps, dtype=np.complex128).reshape(-1))

    def _store(self, dims: Iterable[int], amps: np.ndarray, at: np.ndarray | None = None) -> None:
        """Checks and freezes d dense amplitudes, or the (k,) amplitudes ``amps`` at the flat indices ``at``."""
        dims = _check_dims(dims)
        d = prod(dims)
        if at is None and amps.size != d:
            raise ConfigurationError(f"amplitude count {amps.size} does not match dims {dims}")
        if not np.isfinite(amps).all():
            raise ConfigurationError("state amplitudes must be finite")
        if at is not None:
            if at.shape != amps.shape or at.ndim != 1:
                raise ConfigurationError(f"support of {at.shape} indices for {amps.shape} amplitudes")
            if at.size and (at[0] < 0 or at[-1] >= d or (at[1:] <= at[:-1]).any()):
                raise ConfigurationError(f"support indices must be strictly increasing in 0..{d - 1}")
            at.setflags(write=False)
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        if at is None:
            object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "_support", None if at is None else (amps, at))

    def __getattr__(self, name: str):
        # reached when normal lookup fails: a missing name, or the amps of a support-form state not yet read
        support = self.__dict__.get("_support")
        if name != "amps" or support is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values, at = support
        amps = np.zeros(prod(self.dims), dtype=np.complex128)
        amps[at] = values
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        return amps

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over subsystems.

    The public constructor proves all three, positivity through a full
    ``eigvalsh`` (O(d^3)).  The matrices the library builds through ``_built``
    are Hermitian and positive by construction and skip those two proofs: the
    diagonal of ``thermal_density``, and the partial trace of a ``StateVector``
    (a diagonal of squared magnitudes, or the Gram matrix psi psi^dagger).
    A diagonal reaches ``_built`` as its d values, checked finite and of unit
    sum in O(d) before they are spread into ``entries`` once.  ``entries`` is
    always a dense, read-only d x d array.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        # ndmin=2 keeps a 1-D input out of the diagonal form, which is only for _built
        self._store(self.dims, np.array(self.entries, dtype=np.complex128, ndmin=2))
        mat = self.entries
        if np.max(np.abs(mat - mat.conj().T)) > EQ_TOL:
            raise ConfigurationError("density matrix must be Hermitian")
        if np.linalg.eigvalsh(mat).min() < -PSD_TOL:
            raise ConfigurationError("density matrix must be positive semidefinite")

    def _store(self, dims: Iterable[int], mat: np.ndarray) -> None:
        """Checks and freezes a (d, d) matrix, or the (d,) diagonal of a diagonal one."""
        dims = _check_dims(dims)
        d = prod(dims)
        if mat.shape != (d, d) and mat.shape != (d,):
            raise ConfigurationError(f"expected a {d}x{d} matrix for dims {dims}")
        if not np.isfinite(mat).all():
            raise ConfigurationError("density matrix entries must be finite")
        diagonal = mat if mat.ndim == 1 else np.diagonal(mat)
        if not abs(diagonal.sum().real - 1.0) <= EQ_TOL:  # NaN fails too
            raise ConfigurationError("density matrix must have unit trace")
        if mat.ndim == 1:
            mat = np.diag(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", mat)


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense square matrix acting on the subsystems named by ``dims``."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        self._store(self.dims, np.array(self.entries, dtype=np.complex128))

    def _store(self, dims: Iterable[int], mat: np.ndarray) -> None:
        dims = _check_dims(dims)
        d = prod(dims)
        if mat.shape != (d, d):
            raise ConfigurationError(f"expected a {d}x{d} matrix for dims {dims}")
        if not np.isfinite(mat).all():
            raise ConfigurationError("operator entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def basis_state(dims: Iterable[int], index: int) -> StateVector:
    """Computational basis state with a single unit amplitude at ``index``."""
    dims = _check_dims(dims)
    d = prod(dims)
    if not 0 <= index < d:
        raise ConfigurationError(f"basis index must be in 0..{d - 1}, got {index}")
    amps = np.zeros(d, dtype=np.complex128)
    amps[index] = 1.0
    return _built(StateVector, dims, amps)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Composite state of two registers; output dims are a's followed by b's."""
    return _built(StateVector, a.dims + b.dims, np.kron(a.amps, b.amps))


def partial_trace(state: StateVector | DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the subsystems in ``keep``.

    ``keep`` must be a nonempty proper subset of subsystem indices; the kept
    subsystems appear in their original relative order.
    """
    dims = state.dims
    n = len(dims)
    kept = sorted({int(k) for k in keep})
    if not kept or len(kept) >= n or kept[0] < 0 or kept[-1] >= n:
        raise ConfigurationError(
            f"keep must be a nonempty proper subset of subsystem indices 0..{n - 1}, got {kept}"
        )
    traced = [i for i in range(n) if i not in kept]
    if isinstance(state, StateVector):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as not finite
            return _reduced_density(state, kept, traced)
    if isinstance(state, DensityMatrix):
        kept_dims = tuple(dims[i] for i in kept)
        # a partial sum of a matrix Hermitian only within EQ_TOL can drift
        # past it, so this result is checked in full
        arr = state.entries.reshape(dims + dims)
        row = list(range(n))
        col = [i if i in traced else i + n for i in range(n)]
        out = kept + [i + n for i in kept]
        rho = np.einsum(arr, row + col, out).reshape(prod(kept_dims), prod(kept_dims))
        return DensityMatrix(kept_dims, rho)
    raise ConfigurationError(f"cannot trace object of type {type(state).__name__}")


def _reduced_density(state: StateVector, kept: list[int], traced: list[int]) -> DensityMatrix:
    """psi psi^dagger of ``state``, built from its (k,) diagonal when it is diagonal.

    psi is the (kept, traced) amplitude matrix.  The nonzero amplitudes are
    the state's stored support, or, for a dense state, one contiguous scan.
    When every traced column holds at most one of them (purifications,
    product states, Bell branches) no two rows share a traced basis state,
    so the result is diagonal: each row's sum of re^2 + im^2, added in
    column order.  Any other state takes the dense Gram product.
    """
    dims = state.dims
    kept_dims = tuple(dims[i] for i in kept)
    k = prod(kept_dims)
    if state._support is None:
        amps = state.amps
        # held until the result is built: freed before, they leave a heap hole
        # that the large dense arrays that come next do not fit
        flags = amps.view(np.float64) != 0
        # the two part flags of an amplitude read as one uint16; np.nonzero is fastest on bool
        at = np.nonzero(flags.view(np.uint16) != 0)[0]
        vals = amps[at]
    else:
        vals, at = state._support
    digits = np.unravel_index(at, dims)
    rows, cols = (_ravel(digits, dims, axes) for axes in (kept, traced))
    if cols.size and np.bincount(cols).max() > 1:
        psi = np.transpose(state.amps.reshape(dims), kept + traced).reshape(k, -1)
        return _built(DensityMatrix, kept_dims, _gram(psi))
    # a kept row's amplitudes lie in column order in memory too, so each sum is the dense route's
    diagonal = np.bincount(rows, weights=vals.real**2 + vals.imag**2, minlength=k).astype(np.complex128)
    return _built(DensityMatrix, kept_dims, diagonal)


def _ravel(digits: tuple[np.ndarray, ...], dims: tuple[int, ...], axes: list[int]) -> np.ndarray:
    """Flat index over the subsystems ``axes``, in their order, from per-subsystem digits."""
    flat = digits[axes[0]]
    for i in axes[1:]:
        flat = flat * dims[i] + digits[i]
    return flat


def _gram(psi: np.ndarray) -> np.ndarray:
    """Dense psi psi^dagger: the general route, and the reference for the diagonal one."""
    return psi @ psi.conj().T


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2; equals 1 iff the states agree up to a global phase."""
    if a.dims != b.dims:
        raise ConfigurationError(f"shape mismatch: {a.dims} vs {b.dims}")
    val = float(abs(np.vdot(a.amps, b.amps)) ** 2)
    return min(val, 1.0)  # guard against roundoff just above 1


def apply(op: Operator, state: StateVector, targets: Sequence[int]) -> StateVector:
    """Apply ``op`` to the named subsystems, identity on the rest.

    ``targets`` is ordered: the operator's most significant factor acts on
    ``targets[0]``.  The operator dimension must match the product of the
    target dimensions.  Norm is preserved only when ``op`` is unitary.
    """
    targets = [int(t) for t in targets]
    n = len(state.dims)
    if len(set(targets)) != len(targets) or any(t < 0 or t >= n for t in targets):
        raise ConfigurationError(f"invalid target subsystems {targets} for dims {state.dims}")
    d = prod(state.dims[t] for t in targets)
    if op.dim != d:
        raise ConfigurationError(
            f"operator dimension {op.dim} does not match target dimension {d}"
        )
    psi = state.amps.reshape(state.dims)
    psi = np.moveaxis(psi, targets, range(len(targets)))
    moved_shape = psi.shape
    psi = op.entries @ psi.reshape(d, -1)
    psi = np.moveaxis(psi.reshape(moved_shape), range(len(targets)), targets)
    return _built(StateVector, state.dims, psi.reshape(-1))


_INV_SQRT2 = 1.0 / np.sqrt(2.0)

SIGMA_Z = Operator((2,), [[1.0, 0.0], [0.0, -1.0]])
HADAMARD = Operator((2,), np.array([[1.0, 1.0], [1.0, -1.0]]) * _INV_SQRT2)
# control is the first target subsystem
CNOT = Operator((2, 2), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])

PHI_PLUS = StateVector((2, 2), [_INV_SQRT2, 0.0, 0.0, _INV_SQRT2])
PHI_MINUS = StateVector((2, 2), [_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2])
PSI_PLUS = StateVector((2, 2), [0.0, _INV_SQRT2, _INV_SQRT2, 0.0])
PSI_MINUS = StateVector((2, 2), [0.0, _INV_SQRT2, -_INV_SQRT2, 0.0])
