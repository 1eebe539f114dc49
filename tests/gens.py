"""Seeded random generators shared across the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from stochgame import Game
from stochgame.ratlinalg import RatMatrix

from chain_refs import StationaryStrategy


def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 4, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_matrix(rng: random.Random, n_rows: int, n_cols: int, **kw) -> RatMatrix:
    return RatMatrix([[rand_fraction(rng, **kw) for _ in range(n_cols)] for _ in range(n_rows)])


def rand_stochastic_row(rng: random.Random, n: int) -> list[Fraction]:
    weights = [rng.randint(0, 5) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def rand_stochastic_matrix(rng: random.Random, n: int) -> RatMatrix:
    return RatMatrix([rand_stochastic_row(rng, n) for _ in range(n)])


def rand_strategy(rng: random.Random, n_states: int, n_actions: int) -> StationaryStrategy:
    return StationaryStrategy([rand_stochastic_row(rng, n_actions) for _ in range(n_states)])


def rand_profile(rng: random.Random, n_states: int, n_actions: int) -> tuple[int, ...]:
    return tuple(rng.randrange(n_actions) for _ in range(n_states))


def rand_game(
    rng: random.Random,
    n_states: int,
    n_actions1: int,
    n_actions2: int,
    reward_lo: int = -3,
    reward_hi: int = 3,
    max_den: int = 5,
) -> Game:
    rewards = [
        [
            [rand_fraction(rng, reward_lo, reward_hi, max_den) for _ in range(n_actions2)]
            for _ in range(n_actions1)
        ]
        for _ in range(n_states)
    ]
    transitions = [
        [
            [rand_stochastic_row(rng, n_states) for _ in range(n_actions2)]
            for _ in range(n_actions1)
        ]
        for _ in range(n_states)
    ]
    return Game(rewards, transitions)


def rand_absorbing_game(
    rng: random.Random, n_states: int, n_actions1: int, n_actions2: int, **kw
) -> Game:
    """Random game where every state except state 1 is absorbing."""
    base = rand_game(rng, n_states, n_actions1, n_actions2, **kw)
    transitions = [base.transitions[0]]
    for l in range(1, n_states):
        stay = [Fraction(int(t == l)) for t in range(n_states)]
        transitions.append(
            [[list(stay) for _ in range(n_actions2)] for _ in range(n_actions1)]
        )
    return Game(base.rewards, transitions)


def rand_one_player_game(rng: random.Random, n_states: int, n_actions: int, maximizer: bool = True) -> Game:
    if maximizer:
        return rand_game(rng, n_states, n_actions, 1)
    return rand_game(rng, n_states, 1, n_actions)
