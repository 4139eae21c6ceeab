"""Outcome laws for entangling a register through unreliable CNOT gates.

A gate fails independently with probability p; a failure collapses its
control to the dark state before the gate would have acted, so every gate
downstream of the collapse sees a dark control and does nothing. The
quantity of interest is the number q of qubits left bright after the
entangling step, for a register whose root qubit started bright.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dist import DomainError

__all__ = [
    "Compilation",
    "GateNoise",
    "OutcomeDist",
    "cascade_dist",
    "cascade_wiring",
    "compiled_dist",
    "flat_dist",
    "flat_wiring",
    "general_t_pair",
    "outcome_moments",
    "point_outcome",
    "validate_wiring",
]

_SUM_TOL = 1e-12


class Compilation(enum.Enum):
    FLAT = "flat"
    CASCADE = "cascade"


@dataclass(frozen=True)
class GateNoise:
    """Per-gate failure probability and the entangling circuit layout."""

    p: float
    compilation: Compilation = Compilation.CASCADE

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"gate failure probability must lie in [0, 1], got {self.p}")
        if not isinstance(self.compilation, Compilation):
            raise DomainError(f"unknown compilation {self.compilation!r}")


@dataclass
class OutcomeDist:
    """Law of the bright-qubit count q in 0..n_qubits after entangling."""

    n_qubits: int
    probs: np.ndarray

    def __post_init__(self):
        if self.n_qubits != int(self.n_qubits) or self.n_qubits < 1:
            raise DomainError(f"n_qubits must be a positive integer, got {self.n_qubits}")
        self.n_qubits = int(self.n_qubits)
        arr = np.array(self.probs, dtype=np.float64)
        if arr.shape != (self.n_qubits + 1,):
            raise DomainError(
                f"probs must have length n_qubits + 1 = {self.n_qubits + 1}, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise DomainError("probs must be finite and non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise DomainError(f"probs must sum to one within {_SUM_TOL}, got {total}")
        arr.setflags(write=False)
        self.probs = arr


def point_outcome(n: int, q: int) -> OutcomeDist:
    """All mass on the single outcome q."""
    if not 0 <= q <= n:
        raise DomainError(f"outcome {q} outside 0..{n}")
    probs = np.zeros(n + 1)
    probs[q] = 1.0
    return OutcomeDist(n, probs)


def flat_dist(n: int, noise: GateNoise) -> OutcomeDist:
    """Outcome law of the linear chain compilation.

    The chain breaks at its first failing gate, leaving q bright qubits
    with probability (1-p)^q * p for q <= n-2 and surviving whole with
    probability (1-p)^(n-1). q = n-1 is unreachable: a failure kills both
    the gate and its control. A single qubit needs no gates at all.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"register size must be a positive integer, got {n}")
    n = int(n)
    if n == 1:
        return point_outcome(1, 1)
    p = noise.p
    probs = np.zeros(n + 1)
    probs[: n - 1] = (1.0 - p) ** np.arange(n - 1) * p
    probs[n] = (1.0 - p) ** (n - 1)
    return OutcomeDist(n, probs)


def cascade_dist(n: int, noise: GateNoise) -> OutcomeDist:
    """Outcome law of the split compilation.

    One gate splits the register into halves of ceil(n/2) and floor(n/2)
    qubits that then entangle as independent chains. If the split gate
    fails everything collapses to q = 0; otherwise the law is the
    convolution of the two chain laws, scaled by the split survival.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"register size must be a positive integer, got {n}")
    n = int(n)
    if n == 1:
        return point_outcome(1, 1)
    p = noise.p
    half_a = flat_dist((n + 1) // 2, noise).probs
    half_b = flat_dist(n // 2, noise).probs
    probs = (1.0 - p) * np.convolve(half_a, half_b)
    probs[0] += p
    return OutcomeDist(n, probs)


def compiled_dist(n: int, noise: GateNoise) -> OutcomeDist:
    if noise.compilation is Compilation.FLAT:
        return flat_dist(n, noise)
    return cascade_dist(n, noise)


def general_t_pair(n: int, t0, t1) -> tuple[OutcomeDist, OutcomeDist]:
    """Validate an externally supplied pair of outcome laws.

    t0 is the law of the dark-count q for a register prepared dark, t1 the
    bright-count law for a register prepared bright; both may come from
    tomography and need not obey the structural zeros of the built-in
    compilations. Plain probability sequences are accepted and wrapped.
    """
    pair = []
    for t in (t0, t1):
        if not isinstance(t, OutcomeDist):
            t = OutcomeDist(n, t)
        if t.n_qubits != n:
            raise DomainError(
                f"outcome law is for {t.n_qubits} qubits, expected {n}"
            )
        pair.append(t)
    return pair[0], pair[1]


def outcome_moments(t: OutcomeDist) -> tuple[float, float]:
    """Mean and variance of the bright-qubit count."""
    q = np.arange(t.n_qubits + 1, dtype=np.float64)
    mean = float(q @ t.probs)
    var = float(((q - mean) ** 2) @ t.probs)
    return mean, var


def flat_wiring(n: int) -> list[tuple[int, int]]:
    """Chain gates 0->1->...->n-1, in application order."""
    return [(i, i + 1) for i in range(n - 1)]


def cascade_wiring(n: int) -> list[tuple[int, int]]:
    """Split gate first, then the two chains, in application order.

    The root half covers qubits 0..ceil(n/2)-1 chained from the root; the
    split gate copies the root onto qubit ceil(n/2), which seeds the chain
    over the remaining qubits.
    """
    if n < 2:
        return []
    a = (n + 1) // 2
    gates = [(0, a)]
    gates += [(i, i + 1) for i in range(a - 1)]
    gates += [(i, i + 1) for i in range(a, n - 1)]
    return gates


def validate_wiring(n: int, wiring) -> None:
    """Reject wirings that are not a causally ordered entangling forest.

    Each gate must target a fresh qubit (cyclic wirings would re-target an
    active one, which the gate model is not defined on) and its control
    must already be in play, i.e. the root or an earlier target.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"register size must be a positive integer, got {n}")
    in_play = {0}
    for idx, gate in enumerate(wiring):
        c, t = gate
        if not (0 <= c < n and 0 <= t < n):
            raise DomainError(f"gate {idx} touches a qubit outside 0..{n - 1}")
        if c == t:
            raise DomainError(f"gate {idx} controls its own target")
        if t in in_play:
            raise DomainError(f"wiring is cyclic: gate {idx} re-targets qubit {t}")
        if c not in in_play:
            raise DomainError(f"gate {idx} is controlled by idle qubit {c}")
        in_play.add(t)
