"""A fixed pure-Python kernel that measures how fast the machine is right now.

The host this benchmark runs on is shared, and its speed drifts by tens of
percent over minutes.  The kernel does the same kind of work as qrook's hot
path (polynomial remainder sequences over Fraction, sparse dict-of-dict
products) but imports nothing from qrook, so no change to qrook alters it.
Dividing a job's wall time by the kernel's time taken in the same run
removes most of the drift.
"""

from fractions import Fraction
from time import perf_counter


def kernel(rounds: int = 60) -> int:
    acc = 0
    for seed in range(rounds):
        a = [Fraction((seed * 7 + i * 13) % 11 - 5, 1 + i % 3) for i in range(14)]
        b = [Fraction((seed * 5 + i * 3) % 7 - 3, 1 + i % 2) for i in range(9)]
        while b and any(b):
            while b[-1] == 0:
                b.pop()
            r = a[:]
            while len(r) >= len(b):
                c = r[-1] / b[-1]
                d = len(r) - len(b)
                for i, y in enumerate(b):
                    r[i + d] -= c * y
                r.pop()
                while r and r[-1] == 0:
                    r.pop()
            a, b = b, r
        m = {
            i: {j: (i * j + seed) % 5 for j in range(30) if (i + j + seed) % 3}
            for i in range(30)
        }
        for row in m.values():
            out = {}
            for k, v in row.items():
                for j, w in m.get(k, {}).items():
                    out[j] = out.get(j, 0) + v * w
            acc += len(out)
        acc += len(a)
    return acc


def timed() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
