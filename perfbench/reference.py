"""A fixed pure-Python kernel that measures how fast the machine is now.

On a shared host the same pass can take anywhere between 1x and 2x its
best time, and the speed drifts over minutes, so wall times from runs a
few minutes apart are not comparable.  Every worker times this kernel
just before and just after its pass, in the same process.  ``run.py``
then scales that pass's times by ``NOMINAL_S / mean(the two kernel
times)``, which expresses them on a machine where the kernel takes
``NOMINAL_S``.  The kernel imports nothing from polyvote and runs with
the cyclic garbage collector paused, so neither the program's code nor
the size of its heap can move it.  Its mix is integer Bareiss
elimination, Fraction sums and tuple hashing, the same kinds of work
polyvote does.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

NOMINAL_S = 0.25
ROUNDS = 4500
SIZE = 7


def _determinant(m: list[list[int]]) -> int:
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - f * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def kernel() -> tuple[Fraction, int]:
    # keeps nothing per round, so the worker's peak RSS stays the program's
    total, digest = Fraction(0), 0
    for i in range(1, ROUNDS):
        m = [[(i * 7 + r * 13 + c * 29) % 97 - 48 for c in range(SIZE)] for r in range(SIZE)]
        digest ^= hash(tuple(map(tuple, m)))
        total += Fraction(_determinant(m), i)
    return total, digest


def seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
