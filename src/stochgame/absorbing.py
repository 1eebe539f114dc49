"""Absorbing games: every state but state 1 is never left once reached.

State 1 is the live state; a game whose live state is another one is
written with its states relabelled.  Every absorbed state's value is just
the value of its reward matrix, independent of the discount rate.  The
live state's vanishing-discount value is characterized by the sign of the
Kohlberg quotient (Phi(lam, u(z)) - z) / lam built from the Shapley
operator, and at every finite discount rate that quotient coincides
exactly with the profile matrix-game value divided by lam**n;
`verify_kohlberg_identity` checks the chain of equalities entry by entry,
on pencils its caller builds (this module builds no profile pencil).
The solver signs the quotient's numerator, which is affine in z: one
`live_pencil` per solve serves every probe.  Every exact value here is
read from an integer grid, as the solvers and the oracle read theirs
(`Game.int_rewards`, `GamePencil.value_at`); the value-reduced grid, once
it is checked constant on each live-state action block, is solved at
|I| x |J| from one representative row and column per block.  The
value-reduced game keeps the game's checked transitions and is built
without validating them again.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .errors import GameValidationError
from .gamecore import Game, _checked_game, check_discount
# `solve_matrix_game` and `pencil_matrix` stay bound here, unused: the
# benchmark's trace layer wraps `absorbing.<name>` by name
from .matrixgame import matrix_game_value, solve_matrix_game  # noqa: F401
from .oracle import _integer_vector, _one_shot_grids
from .pencil import GamePencil, pencil_matrix  # noqa: F401
from .ratlinalg import IntPoly, RationalLike, rational_text, to_fraction


def _exit(game: Game, l: int) -> tuple[int, int] | None:
    """First 0-based action pair (i, j) at which 0-based state l can be left, or None."""
    big_l = game.denominator_lcm()
    return next(((i, j) for i, row in enumerate(game.int_transitions[l])
                 for j, dist in enumerate(row) if dist[l] != big_l), None)


def absorbed_value(game: Game, l: int) -> Fraction | None:
    """Value of 0-based state l's reward matrix if l is never left, else None.

    Then v_l = val(lam g_l + (1 - lam) v_l) = val(g_l) at every rate and in
    the limit (Shapley 1953).
    """
    if _exit(game, l) is None:
        return matrix_game_value(game.int_rewards[l]) / game.denominator_lcm()
    return None


def _leak(game: Game) -> tuple[int, int, int] | None:
    """First 0-based (state, i, j) at which a state 2..n can be left, or None."""
    return next(((l, *pair) for l in range(1, game.n_states)
                 if (pair := _exit(game, l)) is not None), None)


def is_absorbing(game: Game) -> bool:
    """True when every state except the live state 1 is absorbing."""
    return _leak(game) is None


class AbsorbingGame:
    """A game whose states 2..n are absorbing; state 1 is the live state.

    Immutable; equal when the games are.  `absorbed_values` (states 2..n) are solved once, here.
    """

    __slots__ = ("game", "absorbed_values")

    def __init__(self, game: Game):
        object.__setattr__(self, "game", game)
        object.__setattr__(self, "absorbed_values", tuple(
            absorbed_value(game, l) for l in range(1, game.n_states)))

    def __setattr__(self, name, value):
        raise AttributeError("AbsorbingGame is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, AbsorbingGame) and self.game == other.game

    def __hash__(self) -> int:
        return hash(self.game)

    @classmethod
    def from_game(cls, game: Game) -> "AbsorbingGame":
        leak = _leak(game)
        if leak is not None:
            l, i, j = leak
            raise GameValidationError(
                f"state {l + 1} is not absorbing: stay probability "
                f"{rational_text(game.transitions[l][i][j][l])} at actions ({i + 1}, {j + 1})"
            )
        return cls(game)


def live_pencil(ab: AbsorbingGame, lam: Fraction | IntPoly) -> GamePencil:
    """State 1's one-shot game minus z as a pencil in z, at a rate or at `ratlinalg.LAM`.

    With w = (z, v_2, ..., v_n) the game lam g + (1-lam) sum_t q_t w_t - z
    is affine in z.  Over the positive scale b*L*d of the one-shot grid at
    (0, v_2, ..., v_n), with d the lcm of the absorbed values' denominators,
    N is that grid and D = scale - (b-a) d Lq_11, so `scaled_at(z)` is the
    game at z times a positive integer.  At `ratlinalg.LAM` the entries of
    both grids are germs in lam.
    """
    game = ab.game
    du, d = _integer_vector(game, (0,) + ab.absorbed_values)
    (grid,), scale = _one_shot_grids(game, lam, du, d, (0,))
    cd = (lam.denominator - lam.numerator) * d
    return GamePencil(
        numerators=tuple(map(tuple, grid)),
        denominators=tuple(tuple(scale - cd * dist[0] for dist in row)
                           for row in game.int_transitions[0]),
        scale=scale,
    )


def kohlberg_quotient(ab: AbsorbingGame, lam: RationalLike, z: RationalLike) -> Fraction:
    """Pre-limit quotient (Phi_1(lam, (z, v_2, ..., v_n)) - z) / lam from state 1's game alone."""
    lam = check_discount(lam)
    return live_pencil(ab, lam).value_at(z) / lam


class IdentityReport(NamedTuple):
    """Outcome of the finite-discount identity check at one (lam, z), as a named tuple."""

    values_equal: bool
    dependence_ok: bool
    reduction_exact: bool
    pencil_side: Fraction
    quotient_side: Fraction
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.values_equal and self.dependence_ok and self.reduction_exact


def value_reduced_game(ab: AbsorbingGame) -> Game:
    """Copy with every absorbed state's rewards replaced by its value.

    The substitution changes no state value: the absorbed matrix games
    become constant at their own value, and the live-state pencil value
    is preserved exactly because each player can commit to an optimal
    mixture of the absorbed reward matrix independently of the live
    action (the absorption weights are nonnegative).  The copy keeps the
    game's checked transitions, so it is built without a second validation.
    """
    game = ab.game
    values = ab.absorbed_values
    rewards = (game.rewards[0],) + tuple(
        tuple(tuple(values[l - 1] for _ in row) for row in game.rewards[l])
        for l in range(1, game.n_states)
    )
    return _checked_game(rewards, game.transitions)


def verify_kohlberg_identity(
    ab: AbsorbingGame,
    lam: RationalLike,
    z: RationalLike,
    pencil: GamePencil,
    reduced: GamePencil,
) -> IdentityReport:
    """Check val(profile matrix)/lam**n == Kohlberg quotient, exactly.

    `pencil` and `reduced` are the (state 1, lam) pencils of the game and
    of `value_reduced_game(ab)`, which the caller builds and holds.  Also
    verifies the structure behind the identity.  Raw profile-matrix
    entries depend on absorbed-state actions whenever absorbed rewards
    vary with actions (the Cramer numerator carries the absorbed stage
    reward, not the absorbed value), so the block-constancy of rows and
    columns is checked on the value-reduced game, together with the exact
    equality of the two pencils' values, both on the integer grids at z
    (one positive scale per grid, so equal integers are equal rationals).
    Once the blocks are constant, the reduced grid's value is read from
    its |I| x |J| block representatives, one row and one column per
    live-state action; otherwise from the whole grid.  The first violated
    equality is reported with the offending entry.
    """
    lam = check_discount(lam)
    z = to_fraction(z)
    game = ab.game
    n = game.n_states
    grid = reduced.scaled_at(z)
    row_block = game.n_actions1 ** (n - 1)
    col_block = game.n_actions2 ** (n - 1)
    area = z.denominator * reduced.scale
    detail = ""
    for r, c in itertools.product(range(len(grid)), range(len(grid[0]))):
        x, rep = grid[r][c], grid[r - r % row_block][c - c % col_block]
        if x != rep:
            detail = (
                f"reduced-game entry at profile pair ({r}, {c}) is "
                f"{rational_text(Fraction(x, area))}, expected "
                f"{rational_text(Fraction(rep, area))} from its "
                f"live-state action block"
            )
            break
    dependence_ok = not detail

    value = pencil.value_at(z)
    # constant blocks repeat their representatives, and duplicate rows and
    # columns leave a game's value unchanged: then solve at |I| x |J|
    solved = [row[::col_block] for row in grid[::row_block]] if dependence_ok else grid
    reduced_value = matrix_game_value(solved) / area
    reduction_exact = value == reduced_value
    lhs = value / lam**n
    rhs = kohlberg_quotient(ab, lam, z)
    values_equal = lhs == rhs
    if not values_equal and not detail:
        detail = (
            f"scaled matrix value {rational_text(lhs)} != quotient {rational_text(rhs)} "
            f"at lam={lam}, z={rational_text(z)}"
        )
    elif not reduction_exact and not detail:
        detail = (
            f"value-reduced pencil value {rational_text(reduced_value)} != raw pencil "
            f"value {rational_text(value)} at lam={lam}, z={rational_text(z)}"
        )
    return IdentityReport(
        values_equal=values_equal,
        dependence_ok=dependence_ok,
        reduction_exact=reduction_exact,
        pencil_side=lhs,
        quotient_side=rhs,
        detail=detail,
    )
