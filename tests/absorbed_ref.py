"""Absorbing start states: the exact answer against the bisection it replaced.

A state that stays put with probability 1 at every action pair is worth
its reward matrix's value at every rate and in the limit (Shapley 1953).
The solvers answer such a start with that value, radius 0, no iteration
and an empty trace; every other start is bisected.  `assert_same_answer`
checks a solver's result against a reference route's bisection in both
cases: a start that can be left must give the reference's result exactly,
and one that cannot must give its reward matrix's value, read here by the
Shapley-Snow kernel of `tests/snow_ref.py`, inside the reference's
enclosure.
"""

from __future__ import annotations

from fractions import Fraction

from stochgame.ratlinalg import RatMatrix

from snow_ref import shapley_snow_certificate


def stays(game, k: int) -> bool:
    """True when state k (1-based) is left with probability 0 at every action pair."""
    return all(dist[k - 1] == 1 for row in game.transitions[k - 1] for dist in row)


def reward_value(game, k: int) -> Fraction:
    """Value of state k's reward matrix, by the Shapley-Snow kernel."""
    return shapley_snow_certificate(RatMatrix(game.rewards[k - 1])).value


def assert_same_answer(got, reference, game, k: int) -> None:
    """`got` is the reference bisection, or for an absorbing k its exact answer inside it."""
    if not stays(game, k):
        assert got == reference, (k, got, reference)
        return
    assert (got.radius, got.iterations, got.trace) == (0, 0, ()), (k, got)
    assert got.value_estimate == reward_value(game, k), (k, got)
    lo = reference.value_estimate
    assert lo <= got.value_estimate <= lo + reference.radius, (k, got, reference)
    assert (got.scale, got.offset) == (reference.scale, reference.offset), (k, got, reference)
