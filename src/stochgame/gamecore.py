"""Finite two-player zero-sum stochastic games over exact rationals.

A game has states 1..n (state parameters in the public API are 1-based,
matching the file format; tuples are indexed 0-based internally), global
action sets for both players, a reward tensor and an exactly stochastic
transition kernel, held once more as integers over the game's least
common denominator.  `Game(rewards, transitions)` validates its data
and ends in `_checked_game`, which stores it and computes the integer
form.  Data that is already checked where it enters (a parsed document,
a normalized or value-reduced copy of a game) goes straight to
`_checked_game`, so each game is validated once.  Stationary strategies,
the Markov chain a pair of them induces and its discounted payoffs live
in the test suite (`tests/chain_refs.py`); `checks._mixed_determinants`
mixes the chain rows it needs itself, from integer weights.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import GameValidationError
from .ratlinalg import RationalLike, int_text, rational_text, to_fraction


def check_discount(lam: RationalLike) -> Fraction:
    """Validate a discount rate: a rational in (0, 1]."""
    lam = to_fraction(lam)
    if not 0 < lam <= 1:
        raise GameValidationError(f"discount rate must be in (0, 1], got {rational_text(lam)}")
    return lam


class Game:
    """Immutable stochastic game (states, two action sets, rewards, kernel).

    rewards[l][i][j] is the maximizer's stage reward in state l+1 under
    actions (i, j); transitions[l][i][j][t] is the probability of moving
    to state t+1.  Every transition row must sum to exactly 1.
    int_rewards and int_transitions, the game's one integer form, hold the
    same data times `denominator_lcm()` as nested int tuples.
    """

    __slots__ = ("n_states", "n_actions1", "n_actions2", "rewards", "transitions",
                 "int_rewards", "int_transitions", "_lcm")

    def __init__(self, rewards, transitions):
        rew = tuple(
            tuple(tuple(to_fraction(x) for x in row) for row in state)
            for state in rewards
        )
        tra = tuple(
            tuple(tuple(tuple(to_fraction(p) for p in dist) for dist in row) for row in state)
            for state in transitions
        )
        n = len(rew)
        if n == 0:
            raise GameValidationError("a game needs at least one state")
        n_i = len(rew[0])
        if n_i == 0 or any(len(state) != n_i for state in rew):
            raise GameValidationError("inconsistent action count for player 1 in rewards")
        n_j = len(rew[0][0])
        if n_j == 0 or any(len(row) != n_j for state in rew for row in state):
            raise GameValidationError("inconsistent action count for player 2 in rewards")
        if len(tra) != n:
            raise GameValidationError("transition kernel has wrong state count")
        for l, state in enumerate(tra):
            if len(state) != n_i or any(len(row) != n_j for row in state):
                raise GameValidationError(
                    f"transition kernel shape mismatch at state {l + 1}"
                )
            for i, row in enumerate(state):
                for j, dist in enumerate(row):
                    if len(dist) != n:
                        raise GameValidationError(
                            f"transition row at (state {l + 1}, i {i + 1}, j {j + 1}) "
                            f"lists {len(dist)} targets, expected {n}"
                        )
                    if any(p < 0 for p in dist):
                        raise GameValidationError(
                            f"negative transition probability at "
                            f"(state {l + 1}, i {i + 1}, j {j + 1})"
                        )
                    total = sum(dist)
                    if total != 1:
                        raise GameValidationError(
                            f"transition row at (state {l + 1}, i {i + 1}, j {j + 1}) "
                            f"sums to {rational_text(total)}, expected 1"
                        )
        _checked_game(rew, tra, self)

    def __setattr__(self, name, value):
        raise AttributeError("Game is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Game)
            and self.rewards == other.rewards
            and self.transitions == other.transitions
        )

    def __hash__(self) -> int:
        return hash((self.rewards, self.transitions))

    def __repr__(self) -> str:
        return (
            f"Game(states={self.n_states}, actions={self.n_actions1}x{self.n_actions2})"
        )

    def min_reward(self) -> Fraction:
        return min(x for state in self.rewards for row in state for x in row)

    def max_reward(self) -> Fraction:
        return max(x for state in self.rewards for row in state for x in row)

    def denominator_lcm(self) -> int:
        """Least common denominator of all rewards and transition entries."""
        return self._lcm

    def check_state(self, k: int) -> int:
        if not 1 <= k <= self.n_states:
            raise GameValidationError(
                f"state {int_text(k)} out of range 1..{self.n_states}"
            )
        return k


def _checked_game(rewards: tuple, transitions: tuple, game: Game | None = None) -> Game:
    """Fill `game` (by default a new one) from data that is already checked.

    `rewards` and `transitions` are nested tuples of Fractions that satisfy
    every invariant `Game.__init__` checks; this stores them and computes
    the integer form.  `Game.__init__` ends here, and so do the callers
    whose data is checked where it enters: `gamefile.parse_game`,
    `affine_normalize` and `absorbing.value_reduced_game`.
    """
    if game is None:
        game = object.__new__(Game)
    put = object.__setattr__
    put(game, "n_states", len(rewards))
    put(game, "n_actions1", len(rewards[0]))
    put(game, "n_actions2", len(rewards[0][0]))
    put(game, "rewards", rewards)
    put(game, "transitions", transitions)
    denominators = {x.denominator for state in rewards for row in state for x in row}
    denominators.update(p.denominator for state in transitions for row in state
                        for d in row for p in d)
    big_l = math.lcm(*denominators)
    put(game, "_lcm", big_l)
    put(game, "int_rewards", tuple(
        tuple(tuple(big_l // x.denominator * x.numerator for x in row) for row in state)
        for state in rewards
    ))
    put(game, "int_transitions", tuple(
        tuple(tuple(tuple(big_l // p.denominator * p.numerator for p in d) for d in row)
              for row in state)
        for state in transitions
    ))
    return game


def reward_scale(game: Game) -> tuple[Fraction, Fraction]:
    """(c, d) of `affine_normalize` from `int_rewards`' least and greatest, building no game."""
    rewards = [x for state in game.int_rewards for row in state for x in row]
    lo, big_l = min(rewards), game.denominator_lcm()
    return Fraction(max(rewards) - lo or big_l, big_l), Fraction(lo, big_l)


def affine_normalize(game: Game) -> tuple[Game, Fraction, Fraction]:
    """Rescale rewards into [0, 1]; returns (game', c, d) with v = c*v' + d.

    Rewards map by r -> (r - m)/(M - m), read on the integer form: with
    (c, d) from `reward_scale`, an entry x of `int_rewards` maps to
    (x - d*L)/(c*L).  A constant-reward game (c = 1) maps to all zeros.
    Transitions are untouched, so discounted payoffs and values transform
    by the same (c, d).
    """
    scale, offset = reward_scale(game)
    big_l = game.denominator_lcm()
    lo, span = int(offset * big_l), int(scale * big_l)
    rewards = tuple(
        tuple(tuple(Fraction(x - lo, span) for x in row) for row in state)
        for state in game.int_rewards
    )
    return _checked_game(rewards, game.transitions), scale, offset
