"""Independent reference computations used to cross-check the solvers.

The Shapley operator evaluates, per state, the exact value of the one-shot
game with discounted continuation payoffs; iterating it from zero
converges geometrically to the discounted value vector.  Each one-shot
game is built once, as an integer grid over one positive scale: with
lam = a/b, L the game's least common denominator and d that of the
continuation vector u, entry (i, j) of state l is

    a*d*(L g) + (b-a) * sum_t (L q_t) * (d u_t)   over   b*L*d,

where L g and L q_t are the game's integer form (`Game.int_rewards`,
`Game.int_transitions`), so `matrixgame.matrix_game_value` reads the
exact value from the one pivot loop and the oracle divides by the
scale, with no Fraction matrix in between.  Iterates are snapped to a
dyadic grid fine enough that the rounding is absorbed by the stopping
certificate, because raw fixed-point iterates roughly double their bit
size per step.  One-player games additionally get a brute-force
reference over pure stationary strategies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import GameValidationError
from .gamecore import (
    Game,
    StationaryStrategy,
    check_discount,
    discounted_payoff,
)
# `solve_matrix_game` stays bound here: the benchmark's trace layer wraps
# `oracle.solve_matrix_game` by name
from .matrixgame import matrix_game_value, solve_matrix_game  # noqa: F401
from .pencil import _IntegerSystem, player1_profiles, player2_profiles
from .ratlinalg import (
    LAM, IntPoly, RatMatrix, RationalLike, ceil_log2, simplest_between, to_fraction
)


def _one_shot_grids(
    game: Game, lam: Fraction | IntPoly, u: Sequence[RationalLike], states: Sequence[int]
) -> tuple[list[list[list]], int]:
    """Integer grids of the one-shot games at the 0-based `states`, and their scale b*L*d."""
    cont = [to_fraction(x) for x in u]
    if len(cont) != game.n_states:
        raise GameValidationError(
            f"continuation vector length {len(cont)} != state count {game.n_states}"
        )
    d = math.lcm(*(x.denominator for x in cont))
    du = [x.numerator * (d // x.denominator) for x in cont]
    ad, c = lam.numerator * d, lam.denominator - lam.numerator
    grids = [
        [
            [
                ad * lg + c * sum(lq * v for lq, v in zip(dist, du))
                for lg, dist in zip(g_row, q_row)
            ]
            for g_row, q_row in zip(game.int_rewards[l], game.int_transitions[l])
        ]
        for l in states
    ]
    return grids, lam.denominator * game.denominator_lcm() * d


def shapley_auxiliary(
    game: Game, lam: RationalLike, u: Sequence[RationalLike], state: int
) -> RatMatrix:
    """One-shot payoff matrix at a state: lam*g + (1-lam) * q . u."""
    lam = check_discount(lam)
    game.check_state(state)
    (grid,), scale = _one_shot_grids(game, lam, u, (state - 1,))
    return RatMatrix([[Fraction(x, scale) for x in row] for row in grid])


def shapley_operator(
    game: Game, lam: RationalLike, u: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Per-state value of the one-shot games; a (1-lam)-contraction in u."""
    grids, scale = _one_shot_grids(game, check_discount(lam), u, range(game.n_states))
    return tuple(matrix_game_value(grid) / scale for grid in grids)


def _grid_bits(tol: Fraction, lam: Fraction) -> int:
    """Grid exponent p with 2**-(p+1) <= tol * lam**2 / 8 (the least such p >= 1)."""
    return max(ceil_log2(8 / (tol * lam * lam)) - 1, 1)


def value_iteration(
    game: Game, lam: RationalLike, tol: RationalLike
) -> tuple[Fraction, ...]:
    """Vector within sup-norm tol of the discounted value vector.

    Starts from zero and applies the Shapley operator, snapping each
    iterate to the dyadic grid 2**-p (only when an entry's denominator
    would outgrow the grid).  The stopping rule certifies
    ((1-lam) * step + rounding) / lam <= tol, which bounds the distance to
    the unique fixed point.  Before returning, the simplest rational in
    each certified interval is tried as an exact fixed point; when the
    check passes the returned vector is exact, not just within tol.
    """
    lam = check_discount(lam)
    tol = to_fraction(tol)
    if tol <= 0:
        raise GameValidationError(f"tolerance must be positive, got {tol}")
    p = _grid_bits(tol, lam)
    grid = 2**p
    beta = 1 - lam

    def polish(u: Sequence[Fraction], bound: Fraction) -> tuple[Fraction, ...] | None:
        candidate = tuple(simplest_between(x - bound, x + bound) for x in u)
        if shapley_operator(game, lam, candidate) == candidate:
            return candidate
        return None

    u = tuple(Fraction(0) for _ in range(game.n_states))
    step = 0
    while True:
        step += 1
        image = shapley_operator(game, lam, u)
        snapped = tuple(
            x if x.denominator <= grid else Fraction(round(x * grid), grid)
            for x in image
        )
        round_err = max(abs(a - b) for a, b in zip(snapped, image))
        delta = max(abs(a - b) for a, b in zip(snapped, u))
        bound = (beta * delta + round_err) / lam
        u = snapped
        if bound <= tol:
            exact = polish(u, bound)
            return exact if exact is not None else u
        if step % 8 == 0 and bound <= Fraction(1, 256):
            exact = polish(u, bound)
            if exact is not None:
                return exact


def _best_pure(game: Game, payoff) -> Fraction:
    """The free player's best payoff(i_vec, j_vec) over its pure profiles."""
    fixed = (0,) * game.n_states
    if game.n_actions2 == 1:
        return max(payoff(i_vec, fixed) for i_vec in player1_profiles(game))
    if game.n_actions1 == 1:
        return min(payoff(fixed, j_vec) for j_vec in player2_profiles(game))
    raise GameValidationError(
        "brute force needs a one-player game (some side with a single action)"
    )


def mdp_brute_force(game: Game, k: int, lam: RationalLike) -> Fraction:
    """Exact discounted value of a one-player game from state k.

    Optimizes over pure stationary strategies of the free player, which
    is exhaustive because one-player games admit pure optimal stationary
    strategies.
    """
    lam = check_discount(lam)
    game.check_state(k)

    def payoff(i_vec, j_vec) -> Fraction:
        x = StationaryStrategy.pure(i_vec, game.n_actions1)
        y = StationaryStrategy.pure(j_vec, game.n_actions2)
        return discounted_payoff(game, x, y, lam)[k - 1]

    return _best_pure(game, payoff)


def mdp_limit_brute_force(game: Game, k: int) -> Fraction:
    """Exact vanishing-discount value of a one-player game from state k.

    A pure profile's discounted payoff is N(lam) / D(lam), its Cramer
    numerator over its system determinant as integer polynomials in lam
    (the pencil's germs), so its limit as lam -> 0+ is N_s / D_s with s
    the lowest order of D.  The free player's best limit is the limit
    value: some pure stationary strategy is optimal at each discount rate
    and there are finitely many, so the limit of the best is the best limit.
    """
    game.check_state(k)
    ints = _IntegerSystem(game, LAM)

    def limit(i_vec, j_vec) -> Fraction:
        num, den = ints.dets(k, i_vec, j_vec)
        s = den.order()
        # a singular Cramer matrix gives a zero numerator (an int or IntPoly 0)
        return Fraction(num.coeff(s), den.coeff(s)) if num else Fraction(0)

    return _best_pure(game, limit)
