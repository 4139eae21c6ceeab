"""Outcome laws for entangling a register through unreliable CNOT gates.

A gate fails independently with probability p; a failure collapses its
control to the dark state before the gate would have acted, so every gate
downstream of the collapse sees a dark control and does nothing. The
quantity of interest is the number q of qubits left bright after the
entangling step, for a register whose root qubit started bright.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

from .dist import DomainError, _instance, _integer, _real, _real_array

__all__ = [
    "Compilation",
    "GateNoise",
    "OutcomeDist",
    "cascade_dist",
    "cascade_wiring",
    "compiled_dist",
    "flat_dist",
    "flat_wiring",
    "outcome_moments",
    "point_outcome",
    "validate_wiring",
]

_SUM_TOL = 1e-12
_REGISTER_SIZE = "register size must be a positive integer, got {}"


class Compilation(enum.Enum):
    FLAT = "flat"
    CASCADE = "cascade"

    def wiring(self, n: int) -> list[tuple[int, int]]:
        """This layout's gates for an n-qubit register, in application order."""
        return _WIRINGS[self](_integer(n, _REGISTER_SIZE, 1))


@dataclass(frozen=True)
class GateNoise:
    """Per-gate failure probability and the entangling circuit layout."""

    p: float
    compilation: Compilation = Compilation.CASCADE

    def __post_init__(self):
        p = _real(self.p, "gate failure probability must lie in [0, 1], got {}", 0.0, 1.0)
        object.__setattr__(self, "p", p)
        if not isinstance(self.compilation, Compilation):
            raise DomainError(f"unknown compilation {self.compilation!r}")


@dataclass
class OutcomeDist:
    """Law of the bright-qubit count q in 0..n_qubits after entangling.

    ``probs[q]`` is the probability of q; ``n_qubits`` is len(probs) - 1.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(_real_array(self.probs, "probs must be real numbers"))  # frozen below
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError(f"probs must be a 1-d array of at least two outcomes, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise DomainError("probs must be finite and non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise DomainError(f"probs must sum to one within {_SUM_TOL}, got {total}")
        arr.setflags(write=False)
        self.probs = arr

    @property
    def n_qubits(self) -> int:
        return self.probs.size - 1


def point_outcome(n: int, q: int) -> OutcomeDist:
    """All mass on the single outcome q."""
    n = _integer(n, _REGISTER_SIZE, 1)
    q = _integer(q, f"outcome {{}} outside 0..{n}", 0, n)
    probs = np.zeros(n + 1)
    probs[q] = 1.0
    return OutcomeDist(probs)


def flat_dist(n: int, noise: GateNoise) -> OutcomeDist:
    """Outcome law of the linear chain compilation.

    The chain breaks at its first failing gate, leaving q bright qubits
    with probability (1-p)^q * p for q <= n-2 and surviving whole with
    probability (1-p)^(n-1). q = n-1 is unreachable: a failure kills both
    the gate and its control. A single qubit needs no gates at all.
    """
    return _wiring_dist(n, Compilation.FLAT.wiring(n), _instance(noise, GateNoise, "noise").p)


def cascade_dist(n: int, noise: GateNoise) -> OutcomeDist:
    """Outcome law of the split compilation.

    One gate splits the register into halves of ceil(n/2) and floor(n/2)
    qubits that then entangle as independent chains. If the split gate
    fails everything collapses to q = 0; otherwise the law is the
    convolution of the two chain laws, scaled by the split survival.
    """
    return _wiring_dist(n, Compilation.CASCADE.wiring(n), _instance(noise, GateNoise, "noise").p)


def compiled_dist(n: int, noise: GateNoise) -> OutcomeDist:
    """Outcome law of the wiring that noise.compilation names."""
    p = _instance(noise, GateNoise, "noise").p
    return _wiring_dist(n, noise.compilation.wiring(n), p)


def _wiring_dist(n: int, wiring, p: float) -> OutcomeDist:
    """Exact bright-count law of any valid wiring, built from the leaves up.

    A bright qubit with out-gates g_1..g_k stays bright with probability
    (1-p)^k, or goes dark at its first failing gate g_j after activating
    the targets of g_1..g_(j-1); activated subtrees evolve independently.
    In z its law is p + (1-p) L(t_1) (p + (1-p) L(t_2) (... (p + (1-p) L(t_k) z))),
    so walking the gates in reverse finishes each target's law before its
    control's step needs it. Each law is an array sized to its subtree.
    """
    gates = validate_wiring(n, wiring)
    laws = dict.fromkeys(range(int(n)), np.array([0.0, 1.0]))  # z: bright, no gates yet
    for c, t in reversed(gates):
        law = (1.0 - p) * np.convolve(laws[c], laws.pop(t))
        law[0] += p
        laws[c] = law
    root = laws[0]
    return OutcomeDist(np.pad(root, (0, int(n) + 1 - root.size)))


def outcome_moments(t: OutcomeDist) -> tuple[float, float]:
    """Mean and variance of the bright-qubit count."""
    _instance(t, OutcomeDist, "outcome law")
    q = np.arange(t.probs.size, dtype=np.float64)
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


_WIRINGS = {Compilation.FLAT: flat_wiring, Compilation.CASCADE: cascade_wiring}


def _gate_pairs(wiring) -> list[tuple[int, int]]:
    """The gates as plain-int (control, target) pairs."""
    try:
        numbered = enumerate(wiring)
    except TypeError:
        raise DomainError(f"wiring must be a sequence of gates, got {wiring!r}") from None
    gates = []
    for idx, gate in numbered:
        try:
            c, t = map(operator.index, gate)
        except (TypeError, ValueError):
            raise DomainError(f"gate {idx} must be a pair of qubit indices, got {gate!r}") from None
        gates.append((c, t))
    return gates


def validate_wiring(n: int, wiring) -> list[tuple[int, int]]:
    """Reject wirings that are not a causally ordered entangling forest.

    Each gate is a pair of integer qubit indices. It must target a fresh
    qubit (cyclic wirings would re-target an active one, which the gate
    model is not defined on) and its control must already be in play, i.e.
    the root or an earlier target. Returns the gates as plain-int pairs.
    """
    n = _integer(n, _REGISTER_SIZE, 1)
    gates = _gate_pairs(wiring)
    in_play = {0}
    for idx, (c, t) in enumerate(gates):
        if not (0 <= c < n and 0 <= t < n):
            raise DomainError(f"gate {idx} touches a qubit outside 0..{n - 1}")
        if c == t:
            raise DomainError(f"gate {idx} controls its own target")
        if t in in_play:
            raise DomainError(f"wiring is cyclic: gate {idx} re-targets qubit {t}")
        if c not in in_play:
            raise DomainError(f"gate {idx} is controlled by idle qubit {c}")
        in_play.add(t)
    return gates
