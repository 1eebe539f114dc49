"""The Fraction route of the absorbing-game identity, kept as a test-side reference.

`stochgame.absorbing` reads every exact value from an integer grid: the
absorbed values from `Game.int_rewards`, the Kohlberg quotient from the
Shapley operator and both pencil values from `GamePencil.value_at`.  The
route it replaced stays here: each value from `solve_matrix_game` on a
`RatMatrix` (the absorbed reward matrices, the one-shot matrix of
`fraction_auxiliary`, and both pencils as `pencil_matrix` builds them), with
block constancy checked entry by entry on the reduced pencil's Fractions.
The value-reduced game comes from `absorbing.value_reduced_game`, looked up
at call time, so a test that patches it patches both routes.

`full_grid_identity` is the integer route as it was before the library
read the reduced grid's value from its |I| x |J| block representatives:
it solves the whole reduced grid, and must report exactly what
`absorbing.verify_kohlberg_identity` reports on the same two pencils.
`built_identity` runs the library's check on freshly built pencils.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from stochgame import absorbing
from stochgame.absorbing import AbsorbingGame, IdentityReport
from stochgame.gamecore import check_discount
from stochgame.matrixgame import solve_matrix_game
from stochgame.pencil import DEFAULT_MAX_ENTRIES, GamePencil, build_pencil, pencil_matrix
from stochgame.ratlinalg import RatMatrix, to_fraction

from test_oracle import fraction_auxiliary


def absorbed_values(ab: AbsorbingGame) -> tuple[Fraction, ...]:
    return tuple(
        solve_matrix_game(RatMatrix(ab.game.rewards[l])).value
        for l in range(1, ab.game.n_states)
    )


def kohlberg_quotient(ab: AbsorbingGame, lam, z) -> Fraction:
    lam = check_discount(lam)
    z = to_fraction(z)
    aux = fraction_auxiliary(ab.game, lam, (z,) + absorbed_values(ab), 0)
    return (solve_matrix_game(aux).value - z) / lam


def verify_kohlberg_identity(
    ab: AbsorbingGame, lam, z, max_entries: int = DEFAULT_MAX_ENTRIES
) -> IdentityReport:
    lam = check_discount(lam)
    z = to_fraction(z)
    game = ab.game
    n = game.n_states
    payoff = pencil_matrix(game, 1, lam, z, max_entries)
    reduced_payoff = pencil_matrix(absorbing.value_reduced_game(ab), 1, lam, z, max_entries)
    row_block = game.n_actions1 ** (n - 1)
    col_block = game.n_actions2 ** (n - 1)

    dependence_ok = True
    detail = ""
    for r in range(reduced_payoff.n_rows):
        for c in range(reduced_payoff.n_cols):
            rep = reduced_payoff.entry(
                (r // row_block) * row_block, (c // col_block) * col_block
            )
            if reduced_payoff.entry(r, c) != rep:
                dependence_ok = False
                detail = (
                    f"reduced-game entry at profile pair ({r}, {c}) is "
                    f"{reduced_payoff.entry(r, c)}, expected {rep} from its "
                    f"live-state action block"
                )
                break
        if not dependence_ok:
            break

    value = solve_matrix_game(payoff).value
    reduced_value = solve_matrix_game(reduced_payoff).value
    reduction_exact = value == reduced_value
    lhs = value / lam**n
    rhs = kohlberg_quotient(ab, lam, z)
    values_equal = lhs == rhs
    if not values_equal and not detail:
        detail = f"scaled matrix value {lhs} != quotient {rhs} at lam={lam}, z={z}"
    elif not reduction_exact and not detail:
        detail = (
            f"value-reduced pencil value {reduced_value} != raw pencil value "
            f"{value} at lam={lam}, z={z}"
        )
    return IdentityReport(
        values_equal=values_equal,
        dependence_ok=dependence_ok,
        reduction_exact=reduction_exact,
        pencil_side=lhs,
        quotient_side=rhs,
        detail=detail,
    )


def built_identity(ab: AbsorbingGame, lam, z) -> IdentityReport:
    """The library's identity on the (state 1, lam) pencils of the game and its value-reduced copy."""
    reduced_game = absorbing.value_reduced_game(ab)
    return absorbing.verify_kohlberg_identity(
        ab, lam, z, build_pencil(ab.game, 1, lam), build_pencil(reduced_game, 1, lam)
    )


def full_grid_identity(
    ab: AbsorbingGame, lam, z, pencil: GamePencil, reduced: GamePencil
) -> IdentityReport:
    lam = check_discount(lam)
    z = to_fraction(z)
    game = ab.game
    n = game.n_states
    grid = reduced.scaled_at(z)
    row_block = game.n_actions1 ** (n - 1)
    col_block = game.n_actions2 ** (n - 1)
    detail = ""
    for r, c in itertools.product(range(len(grid)), range(len(grid[0]))):
        x, rep = grid[r][c], grid[r - r % row_block][c - c % col_block]
        if x != rep:
            area = z.denominator * reduced.scale
            detail = (
                f"reduced-game entry at profile pair ({r}, {c}) is "
                f"{Fraction(x, area)}, expected {Fraction(rep, area)} from its "
                f"live-state action block"
            )
            break
    dependence_ok = not detail

    value = pencil.value_at(z)
    reduced_value = reduced.value_at(z)
    reduction_exact = value == reduced_value
    lhs = value / lam**n
    rhs = absorbing.kohlberg_quotient(ab, lam, z)
    values_equal = lhs == rhs
    if not values_equal and not detail:
        detail = f"scaled matrix value {lhs} != quotient {rhs} at lam={lam}, z={z}"
    elif not reduction_exact and not detail:
        detail = (
            f"value-reduced pencil value {reduced_value} != raw pencil value "
            f"{value} at lam={lam}, z={z}"
        )
    return IdentityReport(
        values_equal=values_equal,
        dependence_ok=dependence_ok,
        reduction_exact=reduction_exact,
        pencil_side=lhs,
        quotient_side=rhs,
        detail=detail,
    )
