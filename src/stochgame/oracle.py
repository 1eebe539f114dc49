"""Independent reference computations used to cross-check the solvers.

The Shapley operator evaluates, per state, the exact value of the one-shot
game with discounted continuation payoffs; iterating it from zero
converges geometrically to the discounted value vector.  Iterates are
snapped to a dyadic grid fine enough that the rounding is absorbed by the
stopping certificate, because raw fixed-point iterates roughly double
their bit size per step.  One-player games additionally get a brute-force
reference over pure stationary strategies.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import GameValidationError
from .gamecore import (
    Game,
    StationaryStrategy,
    check_discount,
    discounted_payoff,
)
from .matrixgame import solve_matrix_game
from .pencil import _IntegerSystem, player1_profiles, player2_profiles
from .ratlinalg import LAM, RatMatrix, RationalLike, ceil_log2, simplest_between, to_fraction


def shapley_auxiliary(
    game: Game, lam: RationalLike, u: Sequence[RationalLike], state: int
) -> RatMatrix:
    """One-shot payoff matrix at a state: lam*g + (1-lam) * q . u."""
    lam = check_discount(lam)
    game.check_state(state)
    cont = [to_fraction(x) for x in u]
    if len(cont) != game.n_states:
        raise GameValidationError(
            f"continuation vector length {len(cont)} != state count {game.n_states}"
        )
    l = state - 1
    beta = 1 - lam
    return RatMatrix(
        [
            [
                lam * game.rewards[l][i][j]
                + beta * sum(p * v for p, v in zip(game.transitions[l][i][j], cont))
                for j in range(game.n_actions2)
            ]
            for i in range(game.n_actions1)
        ]
    )


def shapley_operator(
    game: Game, lam: RationalLike, u: Sequence[RationalLike]
) -> tuple[Fraction, ...]:
    """Per-state value of the one-shot games; a (1-lam)-contraction in u."""
    return tuple(
        solve_matrix_game(shapley_auxiliary(game, lam, u, l + 1)).value
        for l in range(game.n_states)
    )


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
        # int_det returns the int 0 for a singular Cramer matrix
        return Fraction(num.coeff(s), den.coeff(s)) if num else Fraction(0)

    return _best_pure(game, limit)
