"""Finite two-player zero-sum stochastic games over exact rationals.

A game has states 1..n (state parameters in the public API are 1-based,
matching the file format; tuples are indexed 0-based internally), global
action sets for both players, a reward tensor and an exactly stochastic
transition kernel, held once more as integers over the game's least
common denominator.  A `StationaryStrategy` is one probability row per
state; the Markov chain a pair of them induces, and its discounted
payoffs, are computed in the test suite (`tests/chain_refs.py`), and
`checks._mixed_determinants` mixes the chain rows it needs itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import GameValidationError
from .ratlinalg import RationalLike, to_fraction


def check_discount(lam: RationalLike) -> Fraction:
    """Validate a discount rate: a rational in (0, 1]."""
    lam = to_fraction(lam)
    if not 0 < lam <= 1:
        raise GameValidationError(f"discount rate must be in (0, 1], got {lam}")
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
                            f"sums to {total}, expected 1"
                        )
        object.__setattr__(self, "n_states", n)
        object.__setattr__(self, "n_actions1", n_i)
        object.__setattr__(self, "n_actions2", n_j)
        object.__setattr__(self, "rewards", rew)
        object.__setattr__(self, "transitions", tra)
        denominators = [x.denominator for state in rew for row in state for x in row]
        denominators += [p.denominator for state in tra for row in state for d in row for p in d]
        big_l = math.lcm(*denominators)
        object.__setattr__(self, "_lcm", big_l)
        object.__setattr__(self, "int_rewards", tuple(
            tuple(tuple(big_l // x.denominator * x.numerator for x in row) for row in state)
            for state in rew
        ))
        object.__setattr__(self, "int_transitions", tuple(
            tuple(tuple(tuple(big_l // p.denominator * p.numerator for p in d) for d in row)
                  for row in state)
            for state in tra
        ))

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
                f"state {k} out of range 1..{self.n_states}"
            )
        return k


class StationaryStrategy:
    """One player's stationary strategy: a probability row per state."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[RationalLike]]):
        data = tuple(tuple(to_fraction(x) for x in row) for row in rows)
        if not data:
            raise GameValidationError("a strategy needs at least one state row")
        for l, row in enumerate(data):
            if not row:
                raise GameValidationError(f"empty action row at state {l + 1}")
            if any(p < 0 for p in row):
                raise GameValidationError(f"negative probability at state {l + 1}")
            if sum(row) != 1:
                raise GameValidationError(
                    f"strategy row at state {l + 1} sums to {sum(row)}, expected 1"
                )
        object.__setattr__(self, "rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("StationaryStrategy is immutable")

    @property
    def n_states(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, StationaryStrategy) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"StationaryStrategy({[list(map(str, r)) for r in self.rows]})"


def affine_normalize(game: Game) -> tuple[Game, Fraction, Fraction]:
    """Rescale rewards into [0, 1]; returns (game', c, d) with v = c*v' + d.

    Rewards map by r -> (r - m)/(M - m).  A constant-reward game maps to
    all zeros with c = 1 and d the constant.  Transitions are untouched,
    so discounted payoffs and values transform by the same (c, d).
    """
    m = game.min_reward()
    big = game.max_reward()
    if big == m:
        zero = Fraction(0)
        rewards = tuple(
            tuple(tuple(zero for _ in row) for row in state) for state in game.rewards
        )
        return Game(rewards, game.transitions), Fraction(1), m
    span = big - m
    rewards = tuple(
        tuple(tuple((x - m) / span for x in row) for row in state)
        for state in game.rewards
    )
    return Game(rewards, game.transitions), span, m
