"""Seeded random stochastic games, written in the stochgame game-file format.

This module is self-contained: it imports nothing from the solver or its
tests, so the games a workload feeds the program depend only on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GenGame:
    """One generated game: rewards[l][i][j], transitions[l][i][j][t]."""

    label: str
    rewards: tuple
    transitions: tuple
    absorbing: bool

    @property
    def n_states(self) -> int:
        return len(self.rewards)

    @property
    def n_actions1(self) -> int:
        return len(self.rewards[0])

    @property
    def n_actions2(self) -> int:
        return len(self.rewards[0][0])

    @property
    def profile_entries(self) -> int:
        return self.n_actions1**self.n_states * self.n_actions2**self.n_states

    def to_text(self) -> str:
        lines = [
            f"label {self.label}",
            f"states {self.n_states}",
            f"actions1 {self.n_actions1}",
            f"actions2 {self.n_actions2}",
            "initial_state 1",
        ]
        for l, state in enumerate(self.rewards, start=1):
            for i, row in enumerate(state, start=1):
                for j, x in enumerate(row, start=1):
                    lines.append(f"reward {l} {i} {j} {x}")
        for l, state in enumerate(self.transitions, start=1):
            for i, row in enumerate(state, start=1):
                for j, dist in enumerate(row, start=1):
                    for t, p in enumerate(dist, start=1):
                        lines.append(f"transition {l} {i} {j} {t} {p}")
        return "\n".join(lines) + "\n"


def _reward(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 5))


def _stochastic_row(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    weights = [rng.randint(0, 5) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_game(
    rng: random.Random, n_states: int, n_actions1: int, n_actions2: int,
    absorbing: bool, label: str,
) -> GenGame:
    """Rewards p/q with |p| <= 3, q <= 5; transition rows with weights 0..5.

    With absorbing=True every state but state 1 keeps play forever once
    reached (state 1 stays live), so the Kohlberg identity applies.
    """
    rewards = tuple(
        tuple(tuple(_reward(rng) for _ in range(n_actions2)) for _ in range(n_actions1))
        for _ in range(n_states)
    )
    transitions = []
    for l in range(n_states):
        if absorbing and l > 0:
            stay = tuple(Fraction(int(t == l)) for t in range(n_states))
            transitions.append(tuple((stay,) * n_actions2 for _ in range(n_actions1)))
        else:
            transitions.append(tuple(
                tuple(_stochastic_row(rng, n_states) for _ in range(n_actions2))
                for _ in range(n_actions1)
            ))
    return GenGame(label, rewards, tuple(transitions), absorbing)
