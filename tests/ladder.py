"""The anchored discount ladder, kept as a test-side cross-check.

The limit sign is decided exactly over Z[lam].  The ladder it replaced
read the sign off the profile matrix-game value at lam = 2**-t, starting
at a closed-form anchor exponent derived from the game's bit sizes and
requiring a window of consecutive rungs to agree; a depth-1 heuristic
ladder was recorded beside it.  Both stay here as independent references
on small games.
"""

from __future__ import annotations

from fractions import Fraction

from stochgame.matrixgame import solve_matrix_game
from stochgame.pencil import build_pencil
from stochgame.ratlinalg import sign
from stochgame.solver import _bisect, _normalized

WINDOW = 3


def lambda_r_exponent(game, r: int) -> int:
    """Anchor exponent e of the ladder's first rung 2**-e at grid level r.

    Uses the pure-stationary-strategy count of the larger side and the
    least common denominator of the game data; both enter through their
    bit lengths, so e grows quickly with game size.
    """
    n = game.n_states
    d = max(game.n_actions1, game.n_actions2) ** n
    big_n = game.denominator_lcm()
    bits = n.bit_length() + d.bit_length() + big_n.bit_length()
    return 4 * n * d * bits + r * n * d


def anchor_rungs(game, r: int) -> range:
    """Exponents t of the WINDOW rungs lam = 2**-t from the anchor on."""
    anchor = lambda_r_exponent(game, r)
    return range(anchor, anchor + WINDOW)


def anchor_pencils(game, k: int, r: int) -> list:
    return [build_pencil(game, k, Fraction(1, 2**t)) for t in anchor_rungs(game, r)]


def anchored_sign(pencils, z: Fraction) -> int:
    """The sign shared by every rung's matrix-game value at z."""
    signs = {sign(solve_matrix_game(p.matrix_at(z)).value) for p in pencils}
    assert len(signs) == 1, f"sign at z = {z} varies across the anchor rungs: {signs}"
    return signs.pop()


def anchored_limit_value(game, k: int, r: int):
    """`limit_value` with every sign taken from the anchored ladder."""
    ngame, scale, offset, r_eff = _normalized(game, r)
    pencils = anchor_pencils(ngame, k, r_eff)
    return _bisect(lambda z: anchored_sign(pencils, z), r_eff, scale, offset)


def shallow_ladder_sign(game, k: int, z, depth_cap: int = 64) -> tuple[int | None, int]:
    """Heuristic ladder from depth 1: (stabilized sign or None, rungs used).

    Stops once the sign agrees on WINDOW consecutive rungs.  It can
    stabilize on a transient sign, so it never decides anything.
    """
    run_sign: int | None = None
    run_length = 0
    for t in range(1, depth_cap + 1):
        s = sign(build_pencil(game, k, Fraction(1, 2**t)).value_at(z))
        if s == run_sign:
            run_length += 1
        else:
            run_sign = s
            run_length = 1
        if run_length >= WINDOW:
            return run_sign, t
    return None, depth_cap
