"""Machine-speed calibration: fixed pure-Python work timed between solves.

The recorded machine (a 2-vCPU guest on a shared host) changes speed by
up to 1.7x in spells of seconds to minutes, so wall times of the same
code spread more between runs than any bound worth having. run.py times
this probe between solves, outside the timed region, and divides each
solve time by the speed factor of its pass.

The probe imports nothing from stochgame, so no change to the program
can move it. It mixes the two kinds of work the program does: big-integer
products and quotients (the ladder's entries of thousands of bits) and
elimination on small rationals (pencils, determinants, the simplex). In
a five-minute trial on the recorded machine, whose speed went from 0.77x
to 1.33x of its usual speed, a near-identical mix followed the speed of both
workloads to within about 5% (standard deviation over 20-second
windows) while their raw solve times moved by 14-19%; either piece
alone did worse on one of the workloads.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

# The two pieces' median times, measured once on the recorded machine; a
# factor of 1 means that speed.  Fixed, so normalised times from different
# runs and commits share one scale.
REFERENCE_S = (0.0050, 0.0014)

_X, _Y = 3**1300, 7**900
_N = 7
_MATRIX = [
    [Fraction(((i * 131 + j * 71) * 7919) % 2**21 - 2**20, (i * 17 + j * 29) % 2**10 + 1)
     for j in range(_N)]
    for i in range(_N)
]


def _bigint_work() -> int:
    acc = 0
    for i in range(200):
        acc ^= _X * _Y // (_Y + i)
    return acc


def _fraction_work() -> Fraction:
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(_N):
        p = next(i for i in range(c, _N) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        det *= a[c][c]
        for i in range(c + 1, _N):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def speed_factor() -> float:
    """Time the probe once: its time over REFERENCE_S, the geometric mean of both pieces.

    Above 1 the machine is running slower than its usual speed.
    """
    ratios = []
    for work, ref in zip((_bigint_work, _fraction_work), REFERENCE_S):
        start = time.perf_counter()
        work()
        ratios.append((time.perf_counter() - start) / ref)
    return math.sqrt(ratios[0] * ratios[1])
