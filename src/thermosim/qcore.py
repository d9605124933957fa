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

Each input from outside the library is proven once, where it enters, and
structure (dims, shapes, supports) only there: by a public constructor or by
``basis_state``.  A value the library derives reads its ``dims`` from a
proven value and enters through ``_built``, with arrays its producer shaped
itself.  A ``_store`` proves only what arithmetic can break, finiteness
and, for a ``DensityMatrix``, unit trace, and freezes a copy of a public
constructor's input or, without a copy, a fresh array the library built.  ``DensityMatrix`` is only ever a result, so it has no public
constructor, nor has ``tempop``'s ``FactoredBipartiteState``; ``Operator`` is
only ever an input, so it has no ``_store``.
Two of the stored arrays are sparse forms checked in O(size): a
diagonal ``DensityMatrix`` arrives as its d values, and a ``StateVector``
with few nonzeros (a purification, a basis state, a post-selected state, a
factored state's view) as its support, the (k,) amplitudes at strictly
increasing flat indices.  A ``StateVector`` has one stored form, its values
and their flat indices (None for every index), and its ``amps`` property is
the library's only densifier; the diagonal partial trace reads the stored
values, of either kind, through ``np.flatnonzero``.  A dense array numpy
cannot allocate (a state's ``amps``, a tensor product, a density matrix's
``entries``), or whose byte count numpy cannot even size, is refused in one
line, by ``_dense``.

Numeric input has one rule, ``_number`` for a value and ``_numbers`` for a
sequence, at every public boundary: Python and numpy int, float and complex
scalars pass as their kind (real, complex, integer) allows; a bool, str, None
or non-iterable is refused in one line, "<name> must be <kind>, got <repr>".
The public constructors, ``StateVector`` and ``Operator``, read their arrays
by the same rule, as complex numbers, through ``_array``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from numbers import Complex, Integral, Real
from operator import countOf
from typing import Iterable, Sequence

import numpy as np

EQ_TOL = 1e-12   # tolerance for exact-algebra identities
FD_TOL = 1e-6    # tolerance for finite-difference comparisons
_MAX_INDEX = int(np.iinfo(np.intp).max)  # the largest array size numpy can index


class ConfigurationError(ValueError):
    """Raised when an input violates a documented structural precondition."""


# kind: (Python type, ABC, noun, types that skip the ABC check)
_KINDS = {"real": (float, Real, "real", frozenset((float, int))),
          "complex": (complex, Complex, "complex", frozenset((complex, float, int))),
          "integer": (int, Integral, "an integer", frozenset((int,)))}


def _number(name: str, x, kind: str = "real"):
    """``x`` as a Python number of ``kind``, if it is one: numpy scalars are, bool, str and None are not."""
    cast, abc, noun, plain = _KINDS[kind]
    if type(x) not in plain and (type(x) is bool or not isinstance(x, abc)):
        raise ConfigurationError(f"{name} must be {noun}, got {x!r}")
    try:
        return cast(x)
    except OverflowError:  # an int beyond float64, whose repr may be too long to print
        raise ConfigurationError(f"{name} must fit in float64") from None


def _numbers(name: str, values, kind: str = "real") -> tuple:
    """``values`` as a tuple of numbers, each checked as :func:`_number` checks it; a string is refused whole."""
    cast, _, noun, _ = _KINDS[kind]
    values = values.tolist() if isinstance(values, np.ndarray) else values  # no ABC check per number of an array
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise ConfigurationError(f"{name} must be {noun}, got {values!r}")
    values = tuple(values)  # a generator is read once, for the check and the conversion
    return values if countOf(map(type, values), cast) == len(values) else tuple(_number(name, x, kind) for x in values)


def _array(name: str, values) -> np.ndarray:
    """``values`` as a fresh C-ordered complex array, each number checked as :func:`_number` checks it.

    A numpy array of a numeric dtype that casts safely to complex128 passes
    whole; any other input is checked entry by entry, nested sequences
    keeping their shape.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iufc" and np.can_cast(values.dtype, np.complex128):
        return np.array(values, dtype=np.complex128, order="C")
    entries = np.array(values, dtype=object)
    # 0-d: a scalar, which _numbers refuses, or an iterable numpy does not unpack (a generator), read as 1-D
    checked = _numbers(name, entries.reshape(-1) if entries.ndim else values, "complex")
    return np.array(checked, dtype=np.complex128).reshape(entries.shape or -1)


def _check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    out = _numbers("subsystem dims", dims, "integer")
    if not out or min(out) < 2:
        raise ConfigurationError(f"subsystem dims must all be >= 2, got {out}")
    if prod(out) > _MAX_INDEX:
        raise ConfigurationError(f"subsystem dims must have a product of at most {_MAX_INDEX}, got {out}")
    return out


def _dense(noun: str, build, *args) -> np.ndarray:
    """``build(*args)``, a dense array; one numpy cannot allocate is refused as "<noun> is too large to densify"."""
    try:
        return build(*args)
    except (MemoryError, ValueError) as err:
        # numpy refuses a byte count past the largest intp with this ValueError, before allocating anything
        if isinstance(err, ValueError) and not str(err).startswith("array is too big"):
            raise
        raise ConfigurationError(f"{noun} is too large to densify") from None


def _built(cls, *fields):
    """A ``cls`` value checked by its ``_store(*fields)`` alone, skipping the public constructor.

    ``fields`` are proven dims, a tuple of Python ints of at least 2, then
    arrays taken over without a copy, whose shapes and supports the caller
    holds by construction; ``_store`` proves only their values.  Each array
    is either fresh, held by no caller, or read-only and shared: ``protocol``'s
    branch kets are the supports of post-selected and superposition states,
    a factored state's support is also its views', ``tempop``'s unit family
    value is every purified state's, a ``QuditHamiltonian``'s level array
    is the energies of its purified states, and a ``ThermalSpec``'s Gibbs
    weights are the diagonal its Gibbs states are spread from.
    """
    value = object.__new__(cls)
    value._store(*fields)
    return value


@dataclass(frozen=True, eq=False, init=False)
class StateVector:
    """Complex amplitude vector over a tensor product of subsystems.

    States built by the public constructors of this package (purifications,
    post-selected states, Bell states) are unit norm.  Images under general
    operators (projectors, derivative operators) need not be and may even be
    zero; use :meth:`norm` or :func:`fidelity_pure` to compare.

    ``StateVector(dims, amps)`` copies and proves a dense vector.  Every
    state has one stored form, which only ``_store`` writes: its values,
    checked finite, and their strictly increasing flat indices, with None
    meaning every index.  A state the library builds with few nonzeros (a
    purification, a basis state, a post-selected state, a factored state's
    view) reaches ``_built`` in this support form, every other amplitude
    being zero; its producer holds the indices by construction.  ``amps``,
    the dense read-only vector, is the library's only densifier: a dense
    state's ``amps`` is its stored values, and a support-form state's is
    built from them on the first read and then kept (two threads reading it
    first at the same moment may each build an equal copy).  A vector numpy
    cannot allocate is refused in one line.  ``dims`` is the one field, so
    ``repr`` and ``dataclasses.fields`` never densify.
    """

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int], amps) -> None:
        amps = _array("state amplitudes", amps).reshape(-1)
        dims = _check_dims(dims)
        if amps.size != prod(dims):
            raise ConfigurationError(f"amplitude count {amps.size} does not match dims {dims}")
        self._store(dims, amps)

    def _store(self, dims: tuple[int, ...], values: np.ndarray, at: np.ndarray | None = None) -> None:
        """Proves finite and freezes d dense ``values``, or the (k,) ``values`` at the support's flat indices ``at``."""
        if not np.isfinite(values).all():
            raise ConfigurationError("state amplitudes must be finite")
        if at is not None:
            at.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_at", at)

    @cached_property
    def amps(self) -> np.ndarray:
        if self._at is None:
            return self._values
        amps = _dense(f"a state of {self.dim} amplitudes", np.zeros, self.dim, np.complex128)
        amps[self._at] = self._values
        amps.setflags(write=False)
        return amps

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over subsystems.

    Only ever a result, so calling ``DensityMatrix``, with or without
    arguments, raises ``TypeError``.  The library builds both kinds through ``_built``,
    Hermitian and positive by construction: the diagonal of
    ``thermal_density``, and the partial trace of a ``StateVector`` (a
    diagonal of squared magnitudes, or the Gram matrix psi psi^dagger),
    shaped by construction.  A diagonal arrives as its d values, checked
    finite and of unit sum in O(d) before they are spread into ``entries``
    once.  ``entries`` is always a dense, read-only d x d array of the
    values' dtype: real float64 for a diagonal, which is real (a Gibbs state
    or a diagonal partial trace), and complex128 for the Gram matrix.  One
    numpy cannot allocate is refused in one line.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __init__(self, *args, **kwargs) -> None:  # object's own would make an empty, field-less value
        raise TypeError("DensityMatrix has no public constructor: it is a result of thermal_density or partial_trace")

    def _store(self, dims: tuple[int, ...], mat: np.ndarray) -> None:
        """Proves finite and of unit trace and freezes a (d, d) matrix, or the (d,) diagonal of a diagonal one."""
        if not np.isfinite(mat).all():
            raise ConfigurationError("density matrix entries must be finite")
        diagonal = mat if mat.ndim == 1 else np.diagonal(mat)
        if not abs(diagonal.sum().real - 1.0) <= EQ_TOL:  # NaN fails too
            raise ConfigurationError("density matrix must have unit trace")
        if mat.ndim == 1:
            mat = _dense(f"a {mat.size}x{mat.size} density matrix", np.diag, mat)
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", mat)


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense square matrix acting on the subsystems named by ``dims``, built only by its public constructor."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        mat = _array("operator entries", self.entries)
        dims = _check_dims(self.dims)
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
    index = _number("basis index", index, "integer")
    if not 0 <= index < d:
        raise ConfigurationError(f"basis index must be in 0..{d - 1}, got {index}")
    return _built(StateVector, dims, np.ones(1, dtype=np.complex128), np.array([index]))


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Composite state of two registers; output dims are a's followed by b's."""
    product = _dense(f"a state of {a.dim * b.dim} amplitudes", np.kron, a.amps, b.amps)
    return _built(StateVector, a.dims + b.dims, product)


def partial_trace(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix of a ``StateVector`` on the subsystems in ``keep``.

    ``keep`` must be a nonempty proper subset of subsystem indices; the kept
    subsystems appear in their original relative order.  A ``DensityMatrix``
    is refused: trace its ``StateVector`` to the smaller ``keep`` instead.
    """
    if not isinstance(state, StateVector):
        raise ConfigurationError(f"cannot trace object of type {type(state).__name__}")
    n = len(state.dims)
    kept = sorted(set(_numbers("keep", keep, "integer")))
    if not kept or len(kept) >= n or kept[0] < 0 or kept[-1] >= n:
        raise ConfigurationError(
            f"keep must be a nonempty proper subset of subsystem indices 0..{n - 1}, got {kept}"
        )
    traced = [i for i in range(n) if i not in kept]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as not finite
        return _reduced_density(state, kept, traced)


def _reduced_density(state: StateVector, kept: list[int], traced: list[int]) -> DensityMatrix:
    """psi psi^dagger of ``state``, built from its (k,) diagonal when it is diagonal.

    psi is the (kept, traced) amplitude matrix.  Its nonzero amplitudes are
    those that ``np.flatnonzero`` finds in the state's stored values, at their
    stored flat indices (a signed zero is zero, a subnormal is not), so a
    support-form state traces byte for byte like its dense twin.
    When every traced column holds at most one of them (purifications,
    product states, Bell branches) no two rows share a traced basis state,
    so the result is diagonal: each row's sum of re^2 + im^2, added in
    column order, handed over as real float64 values.  Any other state takes
    the dense complex Gram product.  The route is read from the sorted
    columns of the support alone, so no array is sized by the largest traced
    index.
    """
    dims = state.dims
    kept_dims = tuple(dims[i] for i in kept)
    k = prod(kept_dims)
    vals, at = state._values, state._at
    nonzero = np.flatnonzero(vals != 0)  # on the complex array itself it takes about 3x as long
    vals, at = vals[nonzero], nonzero if at is None else at[nonzero]
    digits = np.unravel_index(at, dims)
    rows, cols = (
        np.ravel_multi_index([digits[i] for i in axes], [dims[i] for i in axes]) for axes in (kept, traced)
    )
    noun = f"a {k}x{k} density matrix"
    cols.sort()  # a fresh array: sorted in place, its neighbours name any repeated column
    if (cols[1:] == cols[:-1]).any():
        psi = np.transpose(state.amps.reshape(dims), kept + traced).reshape(k, -1)
        return _built(DensityMatrix, kept_dims, _dense(noun, _gram, psi))
    # a kept row's amplitudes lie in column order in memory too, so each sum is the dense route's
    return _built(DensityMatrix, kept_dims, _dense(noun, np.bincount, rows, vals.real**2 + vals.imag**2, k))


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
    targets = list(_numbers("targets", targets, "integer"))
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
