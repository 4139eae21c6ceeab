"""Machine-speed reference that the benchmark scales its timings by.

On a shared host the same work can run up to ~1.8x slower for tens of
seconds at a stretch, longer than a run, so raw times of two runs are not
comparable. The benchmark times a fixed reference beside the work it
measures and reports each time scaled to the speed at which the reference
takes NOMINAL_S. The reference touches no library code but has the
library's make-up: interpreted Python (calls, attribute and dict access,
small objects, sorting, formatting) around many numpy calls on arrays of
a few dozen elements, plus one direct and one FFT convolution of a few
thousand points. Raw times are recorded next to the scaled ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

REPEATS = 3
# The reference's typical time on a 2-core Intel Xeon virtual machine under
# Python 3.11 and numpy 2.4.
NOMINAL_S = 0.002

_WORDS = [f"w{i * 7919 % 1000}x" for i in range(400)]
_X = np.linspace(0.0, 1.0, 48)
_LONG = np.linspace(0.0, 1.0, 8192)


@dataclass
class _Point:
    a: float
    b: int

    def at(self, x: float) -> float:
        return self.a * x + self.b


def _body() -> float:
    acc = 0.0
    counts: dict[str, int] = {}
    for i, w in enumerate(_WORDS):
        acc += _Point(i * 0.5, i).at(1.5)
        counts[w] = counts.get(w, 0) + 1
        if w.startswith("w1"):
            acc += len(w)
    sorted(_WORDS, key=lambda s: (s[-2:], s))
    ",".join(f"{x:.3g}" for x in counts.values())
    for i in range(60):
        y = np.exp(-_X * (1 + i % 5))
        acc += float((np.stack((y, y * _X)) @ _X).sum())
    acc += float(np.convolve(_LONG[:2000], _LONG[:300]).sum())
    spec = np.fft.rfft(_LONG, 2 * _LONG.size)
    acc += float(np.fft.irfft(spec * spec, 2 * _LONG.size).sum())
    return acc


def reference() -> float:
    """Seconds the reference takes right now: the fastest of REPEATS
    back-to-back runs, so that one interrupted run or caches left cold by
    the work before it do not count."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _body()
        best = min(best, time.perf_counter() - t0)
    return best
