"""Independent reference computations used to cross-check the solvers.

The Shapley operator evaluates, per state, the exact value of the one-shot
game with discounted continuation payoffs; iterating it from zero
converges geometrically to the discounted value vector.  Each one-shot
game is built once, as an integer grid over one positive scale: with
lam = a/b, L the game's least common denominator and d that of the
continuation vector u, entry (i, j) of state l is

    a*d*(L g) + (b-a) * sum_t (L q_t) * (d u_t)   over   b*L*d,

where L g and L q_t are the game's integer form (`Game.int_rewards`,
`Game.int_transitions`), so `matrixgame.matrix_game_ratio` reads the
exact value from the one pivot loop as an integer pair, and the oracle
divides by the scale, with no Fraction matrix in between.  Value
iteration stays on integers too: each iterate is a vector of reduced
(num, den) pairs, snapped to a dyadic grid fine enough that the rounding
is absorbed by the stopping certificate (raw fixed-point iterates roughly
double their bit size per step), and its distances and stopping bound
are compared by cross-multiplication.  The polish that looks for an
exact fixed point takes the simplest rational of each certified interval
(`ratlinalg.simplest_between`, on integer pairs) and tests it with one
more integer step; the returned vector carries that verdict
(`OracleValues.polished`), so a caller need not test it again.  Fractions
are built only for the returned vector.
The exact one-player brute force that checks both bisections lives in
the test suite (`tests/mdp_refs.py`), and the Fraction loop that value
iteration replaced, with its Fraction `simplest_between`, in
`tests/oracle_refs.py`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import GameValidationError
from .gamecore import Game, check_discount
# `solve_matrix_game` stays bound here: the benchmark's trace layer wraps
# `oracle.solve_matrix_game` by name
from .matrixgame import matrix_game_ratio, solve_matrix_game  # noqa: F401
from .ratlinalg import IntPoly, RationalLike, ceil_log2, simplest_between, to_fraction


def _integer_vector(game: Game, u: Sequence[RationalLike]) -> tuple[list[int], int]:
    """A continuation vector as integers over their common denominator: (d*u, d)."""
    cont = [to_fraction(x) for x in u]
    if len(cont) != game.n_states:
        raise GameValidationError(
            f"continuation vector length {len(cont)} != state count {game.n_states}"
        )
    d = math.lcm(*(x.denominator for x in cont))
    return [x.numerator * (d // x.denominator) for x in cont], d


def _one_shot_grids(
    game: Game, lam: Fraction | IntPoly, du: Sequence[int], d: int, states: Sequence[int]
) -> tuple[list[list[list]], int]:
    """Integer grids of the one-shot games at u = du/d and the 0-based `states`; scale b*L*d."""
    ad, c = lam.numerator * d, lam.denominator - lam.numerator
    grids = [
        [
            [
                ad * lg + c * sum(map(mul, dist, du))
                for lg, dist in zip(g_row, q_row)
            ]
            for g_row, q_row in zip(game.int_rewards[l], game.int_transitions[l])
        ]
        for l in states
    ]
    return grids, lam.denominator * game.denominator_lcm() * d


def _shapley_step(game: Game, lam: Fraction, du: Sequence[int], d: int) -> list[tuple[int, int]]:
    """The Shapley operator at u = du/d, each state's value as a reduced (num, den > 0)."""
    grids, scale = _one_shot_grids(game, lam, du, d, range(game.n_states))
    image = []
    for grid in grids:
        num, den = matrix_game_ratio(grid)
        den *= scale
        g = math.gcd(num, den)
        image.append((num // g, den // g))
    return image


def shapley_operator(
    game: Game, lam: RationalLike, u: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Per-state value of the one-shot games; a (1-lam)-contraction in u."""
    lam = check_discount(lam)
    du, d = _integer_vector(game, u)
    return tuple(Fraction(num, den) for num, den in _shapley_step(game, lam, du, d))


def _grid_bits(tol: Fraction, lam: Fraction) -> int:
    """Grid exponent p with 2**-(p+1) <= tol * lam**2 / 8 (the least such p >= 1)."""
    return max(ceil_log2(8 / (tol * lam * lam)) - 1, 1)


def _max_distance(pairs) -> tuple[int, int]:
    """max |x - y| over pairs of (num, den > 0) rationals x, y, as a (num, den > 0) pair."""
    best_num, best_den = 0, 1
    for (xn, xd), (yn, yd) in pairs:
        num, den = abs(xn * yd - yn * xd), xd * yd
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


class OracleValues(tuple):
    """The vector `value_iteration` returns: a tuple of Fractions with the polish's verdict.

    `polished` is True when the polish has just found the vector to be the
    Shapley operator's exact fixed point.  When it is False the vector is
    the last iterate, and only applying the operator once more tells
    whether that is exact.
    """

    polished = False


def value_iteration(
    game: Game, lam: RationalLike, tol: RationalLike
) -> tuple[Fraction, ...]:
    """Vector within sup-norm tol of the discounted value vector.

    Starts from zero and applies the Shapley operator, snapping each
    iterate to the dyadic grid 2**-p (only when an entry's denominator
    would outgrow the grid; ties round to even).  The stopping rule
    certifies ((1-lam) * step + rounding) / lam <= tol, which bounds the
    distance to the unique fixed point.  Before returning, the simplest
    rational in each certified interval is tried as an exact fixed point;
    when the check passes the returned vector is exact, not just within
    tol.  The loop runs on integers: iterates are reduced (num, den)
    pairs, each step is one `_shapley_step`, and the distances and the
    bound are compared by cross-multiplication.  The polish does too: its
    candidates come from `ratlinalg.simplest_between` on integer pairs and
    are compared with one more `_shapley_step` as reduced pairs.  Fractions
    are built only for the returned vector, an `OracleValues` whose
    `polished` flag carries that comparison's verdict to the caller.
    """
    lam = check_discount(lam)
    tol = to_fraction(tol)
    if tol <= 0:
        raise GameValidationError(f"tolerance must be positive, got {tol}")
    a, b = lam.numerator, lam.denominator
    grid = 2 ** _grid_bits(tol, lam)

    def polish(u: list[tuple[int, int]], bn: int, bd: int) -> OracleValues | None:
        # the simplest rational within bn/bd of each entry, kept if it is
        # the operator's exact fixed point
        candidate = [
            simplest_between(n * bd - bn * d, d * bd, n * bd + bn * d, d * bd) for n, d in u
        ]
        cd = math.lcm(*(den for _, den in candidate))
        if _shapley_step(game, lam, [num * (cd // den) for num, den in candidate], cd) == candidate:
            exact = OracleValues(Fraction(num, den) for num, den in candidate)
            exact.polished = True
            return exact
        return None

    u = [(0, 1)] * game.n_states
    step = 0
    while True:
        step += 1
        d = math.lcm(*(den for _, den in u))
        image = _shapley_step(game, lam, [num * (d // den) for num, den in u], d)
        snapped = []
        for num, den in image:
            if den > grid:
                # round(num * grid / den), ties to even, over the grid
                q, r = divmod(num * grid, den)
                if 2 * r > den or (2 * r == den and q % 2):
                    q += 1
                g = math.gcd(q, grid)
                num, den = q // g, grid // g
            snapped.append((num, den))
        en, ed = _max_distance(zip(snapped, image))
        dn, dd = _max_distance(zip(snapped, u))
        u = snapped
        # bound = ((1-lam) * delta + round_err) / lam = bn / (a * dd * ed)
        bn = (b - a) * dn * ed + b * en * dd
        bd = a * dd * ed
        if bn * tol.denominator <= tol.numerator * bd:
            exact = polish(u, bn, bd)
            return exact if exact is not None else OracleValues(Fraction(*v) for v in u)
        if step % 8 == 0 and 256 * bn <= bd:
            exact = polish(u, bn, bd)
            if exact is not None:
                return exact
