"""Reference values computed with plain numpy, independent of thermosim.

Every check returns a list of problems; an empty list means the value
passed.  A non-finite value is always a problem, so a NaN can never slip
through a comparison.
"""

from __future__ import annotations

import math

import numpy as np

EQ_TOL = 1e-12        # exact-algebra identities (probabilities, states, round trips)
EIGEN_TOL = 1e-10     # analytic eigen residuals and Rayleigh quotients
FD_TOL = 1e-6         # finite-difference eigen residuals and Rayleigh quotients
PRINTED_RTOL = 1e-8   # CLI output carries 9 significant digits
MAX_DEVIANCE = 25.0   # 5 sigma, as a likelihood-ratio deviance (z^2)


def gibbs(beta: float, energies) -> np.ndarray:
    """Gibbs occupation probabilities e^(-beta*E)/Z, shifted by min(E)."""
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min()))
    return w / w.sum()


def close(name: str, actual, expected, atol: float, rtol: float = 0.0) -> list[str]:
    a = np.asarray(actual, dtype=complex)
    e = np.asarray(expected, dtype=complex)
    if a.shape != e.shape:
        return [f"{name}: shape {a.shape} != expected {e.shape}"]
    if not np.all(np.isfinite(a)):
        return [f"{name}: non-finite value"]
    err = np.abs(a - e)
    limit = atol + rtol * np.abs(e)
    if not np.all(err <= limit):
        i = int(np.argmax(err - limit))
        return [f"{name}: |{a.flat[i]} - {e.flat[i]}| = {err.flat[i]:.3e} exceeds {limit.flat[i]:.3e}"]
    return []


def at_most(name: str, value: float, limit: float) -> list[str]:
    if not math.isfinite(value) or not value <= limit:
        return [f"{name}: {value!r} exceeds {limit:.3e}"]
    return []


def fringe_closed_form(beta_a: float, energies_a, beta_b: float, energies_b, phi) -> np.ndarray:
    """Read-out probability 1/2 (1 + 2ab/N^2 cos phi), a = sqrt(p0 f0), b = sqrt(p1 f1)."""
    p0, p1 = gibbs(beta_a, energies_a)
    f0, f1 = gibbs(beta_b, energies_b)
    visibility = 2.0 * math.sqrt(p0) * math.sqrt(f0) * math.sqrt(p1) * math.sqrt(f1) / (p0 * f0 + p1 * f1)
    return 0.5 * (1.0 + visibility * np.cos(np.asarray(phi, dtype=float)))


def bell_reference(beta_a: float, energies_a, beta_b: float, energies_b, phi: float) -> dict:
    """Outcome probabilities and post-selected states of the Bell protocol.

    Probabilities are listed in the order phi+, phi-, psi+, psi-; states are
    amplitude vectors over |00>, |01>, |10>, |11>.
    """
    p0, p1 = gibbs(beta_a, energies_a)
    f0, f1 = gibbs(beta_b, energies_b)
    phase = complex(math.cos(phi), math.sin(phi))
    phi_branch, psi_branch = p0 * f0 + p1 * f1, p0 * f1 + p1 * f0
    states = []
    for slots, first, second in (
        ((0, 3), math.sqrt(p0) * math.sqrt(f0), math.sqrt(p1) * math.sqrt(f1)),
        ((1, 2), math.sqrt(p0) * math.sqrt(f1), math.sqrt(p1) * math.sqrt(f0)),
    ):
        norm = math.hypot(first, second)
        for sign in (1.0, -1.0):
            amps = np.zeros(4, dtype=complex)
            amps[slots[0]] = first / norm
            amps[slots[1]] = sign * phase * second / norm
            states.append(amps)
    return {
        "probabilities": np.array([phi_branch, phi_branch, psi_branch, psi_branch]) / 2.0,
        "success": (phi_branch, psi_branch),
        "states": states,
        # psi+ amplitudes of its two terms, used by the pinned-level convention
        "psi_plus_terms": (abs(states[2][1]), abs(states[2][2])),
    }


def count_deviance(count: int, n: int, p: float) -> float:
    """Binomial likelihood-ratio deviance of ``count`` successes in ``n`` draws.

    Equals z^2 for a Gaussian z-score in the large-count limit and stays
    valid when n*p is small, where a plain 5-sigma band is far too tight.
    """
    if not 0 <= count <= n or not 0.0 <= p <= 1.0:
        return math.inf

    def term(k: int, log_q: float) -> float:
        return 0.0 if k == 0 else k * (math.log(k / n) - log_q)

    log_p = math.log(p) if p > 0.0 else -math.inf
    log_not_p = math.log1p(-p) if p < 1.0 else -math.inf
    return 2.0 * (term(count, log_p) + term(n - count, log_not_p))


def counts_within_5_sigma(name: str, counts, n: int, probabilities) -> list[str]:
    counts = [int(c) for c in counts]
    if sum(counts) != n:
        return [f"{name}: counts sum to {sum(counts)}, expected {n}"]
    problems = []
    for i, (c, p) in enumerate(zip(counts, probabilities)):
        dev = count_deviance(c, n, float(p))
        if not dev <= MAX_DEVIANCE:
            problems.append(f"{name}[{i}]: count {c} of {n} at p={p:.3e} is off by deviance {dev:.1f}")
    return problems
