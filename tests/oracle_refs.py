"""The Fraction value-iteration loop, kept as a test-side reference.

`oracle.value_iteration` runs on integers: reduced (num, den) iterates,
one integer Shapley step per iteration, and its distances and stopping
bound compared by cross-multiplication.  The loop it replaced stays here,
on `Fraction` iterates through `oracle.shapley_operator`, with the same
dyadic snapping (`round`, ties to even), stopping rule and polish, so
the two must return equal vectors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from stochgame.errors import GameValidationError
from stochgame.gamecore import Game, check_discount
from stochgame.oracle import _grid_bits, shapley_operator
from stochgame.ratlinalg import RationalLike, simplest_between, to_fraction


def value_iteration(
    game: Game, lam: RationalLike, tol: RationalLike
) -> tuple[Fraction, ...]:
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
