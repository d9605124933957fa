"""Sample times scaled to the speed of a fixed reference computation.

On a shared host the CPU's speed drifts, by up to a factor of two over a
few seconds, with its neighbours' load; the process is not descheduled, it
just runs slower (its CPU time equals its wall time).  A median taken within
one run cannot remove a drift that lasts longer than the run.  So every
sample is bracketed by runs of a reference computation that does not use
thermosim, on the same core, and its time is scaled by the reference's
nominal time over its measured time on either side of it:

    scaled = raw * nominal / mean(reference before, reference after)

A thermosim change cannot move the reference, so a change that makes an op
faster makes its scaled time smaller by the same share.  A reference only
tracks a slowdown that hits it the way it hits the sample, so there are two
in-process kinds, and each workload mixes them to match its own bottleneck:

- ``interp``: interpreter-bound calls of small numpy functions on 2-element
  arrays, through a frozen dataclass with a validating ``__post_init__``;
- ``dense``: single-threaded ``eigvalsh`` of a 256 x 256 matrix and a
  prefix sum with a binary search over a 2 MiB array.

Set-up is mostly starting an interpreter and importing numpy: process
creation, file reads and shared-library loading, which neither of those
tracks.  Its reference, ``ImportReference``, is a fresh interpreter that
imports numpy and exits.

The nominal seconds are the fastest times measured on a 2.0 GHz Xeon VM with
2 vCPUs, numpy 2 and single-threaded OpenBLAS 0.3.31.  They set only the
scale: a scaled time reads as what the sample would have taken on that
machine at that speed.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

NOMINAL_S = {"interp": 50e-6, "dense": 4.2e-3}


@dataclass(frozen=True)
class _Levels:
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if any(v != v for v in self.values):
            raise ValueError("nan level")


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
_MATRIX = np.cos(np.add.outer(np.arange(256.0), np.arange(256.0)) * 0.37)
_RAMP = np.linspace(0.0, 1.0, 1 << 18)


def _interp(units: int) -> float:
    acc = 0.0
    for i in range(units):
        e = np.asarray(_Levels((0.5 + 1e-3 * i, 1.5)).values, dtype=float)
        w = np.exp(-0.7 * (e - e.min()))
        w /= w.sum()
        amps = np.kron(np.sqrt(w).astype(complex), np.sqrt(w[::-1]).astype(complex))
        m = (amps / np.linalg.norm(amps)).reshape(2, 2)
        rho = m @ m.conj().T
        acc += float(np.linalg.eigvalsh(rho).min()) + float((_HADAMARD @ rho @ _HADAMARD.conj().T)[0, 0].real)
    return acc


def _dense(units: int) -> float:
    acc = 0.0
    for _ in range(units):
        acc += float(np.linalg.eigvalsh(_MATRIX)[0])
        prefix = np.cumsum(_RAMP)
        acc += float(np.searchsorted(prefix, prefix[-1] * 0.5))
    return acc


@dataclass(frozen=True)
class Reference:
    """``interp`` and ``dense`` units per run of the reference."""

    interp: int = 0
    dense: int = 0

    @property
    def nominal_s(self) -> float:
        return self.interp * NOMINAL_S["interp"] + self.dense * NOMINAL_S["dense"]

    def run(self) -> float:
        # whatever ran before has evicted the reference from the caches
        _interp(min(self.interp, 10))
        _dense(min(self.dense, 1))
        start = time.perf_counter()
        _interp(self.interp)
        _dense(self.dense)
        return time.perf_counter() - start


@dataclass(frozen=True)
class ImportReference:
    """A fresh interpreter that imports numpy, and nothing of thermosim."""

    nominal_s = 0.13

    def run(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - start


class Speed:
    """Scales raw sample times, running the reference between samples.

    Call ``start`` right before the first sample of a block and ``scale``
    right after each sample (or each batch of samples); the reference run
    after one sample is the one before the next.
    """

    def __init__(self, reference: Reference | ImportReference) -> None:
        self.reference = reference
        self.before = reference.run()  # also warms the reference up
        self.factors: list[float] = []

    def start(self) -> None:
        self.before = self.reference.run()

    def scale(self, raw: list[float]) -> list[float]:
        after = self.reference.run()
        factor = self.reference.nominal_s / (0.5 * (self.before + after))
        self.before = after
        self.factors.append(factor)
        return [t * factor for t in raw]
