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
"""

from __future__ import annotations

from fractions import Fraction

from stochgame import absorbing
from stochgame.absorbing import AbsorbingGame, IdentityReport
from stochgame.gamecore import check_discount
from stochgame.matrixgame import solve_matrix_game
from stochgame.pencil import DEFAULT_MAX_ENTRIES, pencil_matrix
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
