"""Exact one-player brute force, kept as a test-side reference.

A one-player game (some side with a single action) admits pure optimal
stationary strategies, so its discounted and vanishing-discount values
are the free player's best over its pure stationary profiles.  Both
bisections are checked against these on one-player games.  `pure` builds
the point-mass strategy of a profile.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from stochgame.errors import GameValidationError
from stochgame.gamecore import Game, StationaryStrategy, check_discount
from stochgame.pencil import build_pencil, player1_profiles, profile_row_index
from stochgame.ratlinalg import LAM, RationalLike

from chain_refs import discounted_payoff
from pencil_refs import player2_profiles


def pure(actions: Sequence[int], n_actions: int) -> StationaryStrategy:
    """Point mass on a 0-based action per state."""
    rows = []
    for l, a in enumerate(actions):
        if not 0 <= a < n_actions:
            raise GameValidationError(
                f"action {a} at state {l + 1} out of range 0..{n_actions - 1}"
            )
        rows.append([Fraction(int(c == a)) for c in range(n_actions)])
    return StationaryStrategy(rows)


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
        x = pure(i_vec, game.n_actions1)
        y = pure(j_vec, game.n_actions2)
        return discounted_payoff(game, x, y, lam)[k - 1]

    return _best_pure(game, payoff)


def mdp_limit_brute_force(game: Game, k: int) -> Fraction:
    """Exact vanishing-discount value of a one-player game from state k.

    A pure profile's discounted payoff is N(lam) / D(lam), its Cramer
    numerator over its system determinant as integer polynomials in lam
    (the germ pencil's entries), so its limit as lam -> 0+ is N_s / D_s
    with s the lowest order of D.  The free player's best limit is the limit
    value: some pure stationary strategy is optimal at each discount rate
    and there are finitely many, so the limit of the best is the best limit.
    """
    pencil = build_pencil(game, k, LAM)

    def limit(i_vec, j_vec) -> Fraction:
        r = profile_row_index(i_vec, game.n_actions1)
        c = profile_row_index(j_vec, game.n_actions2)
        num, den = pencil.numerators[r][c], pencil.denominators[r][c]
        s = den.order()
        return Fraction(num.coeff(s), den.coeff(s))

    return _best_pure(game, limit)
