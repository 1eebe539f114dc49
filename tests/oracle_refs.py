"""The Fraction value-iteration loop and a Fraction Shapley operator, kept as test-side references.

`oracle.value_iteration` runs on integers: reduced (num, den) iterates,
one integer Shapley step per iteration, and its distances and stopping
bound compared by cross-multiplication.  The loop it replaced stays here,
on `Fraction` iterates, with the same dyadic snapping (`round`, ties to
even), stopping rule and polish, so the two must return equal vectors
and the same polish verdict.  It steps with `oracle.shapley_operator`
unless it is handed another operator, such as `lp_shapley_operator`:
each state's one-shot game built entry by entry in Fractions
(`fraction_auxiliary`) and solved by `solve_matrix_game`'s pivot loop,
with no integer grid, no closed form for two-action games and no
shortcut for states that no action moves.  Its polish takes the simplest
rational of each certified interval from the Fraction Stern-Brocot
descent `simplest_between`, which is also the reference for the integer
`ratlinalg.simplest_between` that the library's polish runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from stochgame.errors import GameValidationError
from stochgame.gamecore import Game, check_discount
from stochgame.matrixgame import solve_matrix_game
from stochgame.oracle import _grid_bits, shapley_operator
from stochgame.ratlinalg import RatMatrix, RationalLike, to_fraction


def fraction_auxiliary(game: Game, lam, u, l: int) -> RatMatrix:
    """State l+1's one-shot game lam*g + (1-lam) * q . u, entry by entry in Fractions."""
    return RatMatrix(
        [
            [lam * g + (1 - lam) * sum(p * v for p, v in zip(dist, u)) for g, dist in zip(g_row, q_row)]
            for g_row, q_row in zip(game.rewards[l], game.transitions[l])
        ]
    )


def lp_shapley_operator(game: Game, lam, u) -> tuple[Fraction, ...]:
    """The Shapley operator from the LP on each Fraction one-shot matrix."""
    lam, u = Fraction(lam), [Fraction(x) for x in u]
    return tuple(
        solve_matrix_game(fraction_auxiliary(game, lam, u, l)).value for l in range(game.n_states)
    )


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Rational with the smallest denominator (then numerator) in [lo, hi].

    Standard Stern-Brocot descent; used to recover exact values from
    certified enclosing intervals.
    """
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_between(-hi, -lo)
    ceil_lo = -((-lo.numerator) // lo.denominator)
    if ceil_lo <= hi:
        # an integer lies in the interval; the smallest one is simplest
        return Fraction(ceil_lo)
    floor_lo = lo.numerator // lo.denominator
    frac = simplest_between(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / frac


def value_iteration(
    game: Game, lam: RationalLike, tol: RationalLike, operator: Callable = shapley_operator
) -> tuple[tuple[Fraction, ...], bool]:
    """(vector, polished): the returned vector and whether the polish found it exact."""
    lam = check_discount(lam)
    tol = to_fraction(tol)
    if tol <= 0:
        raise GameValidationError(f"tolerance must be positive, got {tol}")
    p = _grid_bits(tol, lam)
    grid = 2**p
    beta = 1 - lam

    def polish(u: Sequence[Fraction], bound: Fraction) -> tuple[Fraction, ...] | None:
        candidate = tuple(simplest_between(x - bound, x + bound) for x in u)
        if operator(game, lam, candidate) == candidate:
            return candidate
        return None

    u = tuple(Fraction(0) for _ in range(game.n_states))
    step = 0
    while True:
        step += 1
        image = operator(game, lam, u)
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
            return (exact, True) if exact is not None else (u, False)
        if step % 8 == 0 and bound <= Fraction(1, 256):
            exact = polish(u, bound)
            if exact is not None:
                return exact, True
