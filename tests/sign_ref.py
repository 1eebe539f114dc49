"""The per-probe sign test the pencil route replaced, kept as a test-side reference.

`pencil.GamePencil.sign_at` shifts its pencil positive once and reads
every probe's sign from that shifted grid.  The test it replaced took the
integer grid at z (`GamePencil.scaled_at`) and shifted that matrix
positive on every call, by 1 - its least entry (`matrixgame._value_ratio`);
it stays here as the reference the pencil route must agree with.
"""

from __future__ import annotations

from stochgame.matrixgame import _value_ratio
from stochgame.ratlinalg import sign


def matrix_game_sign(rows: list[list]) -> int:
    """Sign of the value of a matrix game over an ordered ring.

    The entries are ints or `ratlinalg.IntPoly` germs; for germs the sign
    is that of the value for every small enough lam > 0.
    """
    return sign(_value_ratio(rows, [max(col) for col in zip(*rows)])[0])
