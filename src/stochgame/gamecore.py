"""Finite two-player zero-sum stochastic games over exact rationals.

A game has states 1..n (state parameters in the public API are 1-based,
matching the file format; tuples are indexed 0-based internally), global
action sets for both players, a reward tensor and an exactly stochastic
transition kernel.  Stationary strategies (`StationaryStrategy.pure` for
pure ones) induce a Markov chain whose transition matrix, expected
rewards, linear system and discounted payoffs are computed exactly here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import GameValidationError
from .ratlinalg import RatMatrix, RationalLike, solve_linear, to_fraction


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

    @classmethod
    def pure(cls, actions: Sequence[int], n_actions: int) -> "StationaryStrategy":
        """Point mass on a 0-based action per state."""
        rows = []
        for l, a in enumerate(actions):
            if not 0 <= a < n_actions:
                raise GameValidationError(
                    f"action {a} at state {l + 1} out of range 0..{n_actions - 1}"
                )
            rows.append([Fraction(int(c == a)) for c in range(n_actions)])
        return cls(rows)

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "StationaryStrategy":
        row = [Fraction(1, n_actions)] * n_actions
        return cls([row] * n_states)

    @property
    def n_states(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, StationaryStrategy) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"StationaryStrategy({[list(map(str, r)) for r in self.rows]})"


def _check_pair(game: Game, x: StationaryStrategy, y: StationaryStrategy) -> None:
    if x.n_states != game.n_states or y.n_states != game.n_states:
        raise GameValidationError("strategy state count does not match the game")
    if any(len(row) != game.n_actions1 for row in x.rows):
        raise GameValidationError("player 1 strategy has wrong action count")
    if any(len(row) != game.n_actions2 for row in y.rows):
        raise GameValidationError("player 2 strategy has wrong action count")


def transition_matrix(game: Game, x: StationaryStrategy, y: StationaryStrategy) -> RatMatrix:
    """n x n chain transition matrix induced by stationary strategies."""
    _check_pair(game, x, y)
    out = []
    for l in range(game.n_states):
        q_l = game.transitions[l]
        xr, yr = x.rows[l], y.rows[l]
        row = [Fraction(0)] * game.n_states
        for i, xi in enumerate(xr):
            if xi == 0:
                continue
            for j, yj in enumerate(yr):
                w = xi * yj
                if w == 0:
                    continue
                dist = q_l[i][j]
                for t in range(game.n_states):
                    row[t] += w * dist[t]
        out.append(row)
    return RatMatrix(out)


def expected_reward(game: Game, x: StationaryStrategy, y: StationaryStrategy) -> tuple[Fraction, ...]:
    """Per-state expected stage reward under stationary strategies."""
    _check_pair(game, x, y)
    out = []
    for l in range(game.n_states):
        g_l = game.rewards[l]
        total = Fraction(0)
        for i, xi in enumerate(x.rows[l]):
            if xi == 0:
                continue
            for j, yj in enumerate(y.rows[l]):
                total += xi * yj * g_l[i][j]
        out.append(total)
    return tuple(out)


def chain_system(
    game: Game, x: StationaryStrategy, y: StationaryStrategy, lam: RationalLike
) -> tuple[RatMatrix, tuple[Fraction, ...]]:
    """The chain's system (Id - (1-lam) Q, lam g); its solution is the payoff vector."""
    lam = check_discount(lam)
    q = transition_matrix(game, x, y)
    g = expected_reward(game, x, y)
    beta = 1 - lam
    n = game.n_states
    system = RatMatrix(
        [
            [Fraction(int(l == t)) - beta * q.rows[l][t] for t in range(n)]
            for l in range(n)
        ]
    )
    return system, tuple(lam * gv for gv in g)


def discounted_payoff(
    game: Game, x: StationaryStrategy, y: StationaryStrategy, lam: RationalLike
) -> tuple[Fraction, ...]:
    """Normalized discounted payoff vector: (Id - (1-lam) Q)^-1 lam g, exact.

    The system matrix is invertible for every discount rate in (0, 1]
    because Q is stochastic, so this never fails.
    """
    return solve_linear(*chain_system(game, x, y, lam))


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
