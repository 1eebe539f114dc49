"""Absorbing games: every state but state 1 is never left once reached.

State 1 is the live state; a game whose live state is another one is
written with its states relabelled.  Every absorbed state's value is just
the value of its reward matrix, independent of the discount rate.  The
live state's vanishing-discount value is characterized by the sign of the
Kohlberg quotient (Phi(lam, u(z)) - z) / lam built from the Shapley
operator, and at every finite discount rate that quotient coincides
exactly with the profile matrix-game value divided by lam**n;
`verify_kohlberg_identity` checks the chain of equalities entry by entry.
The solver signs the quotient's numerator, which is affine in z: one
`live_pencil` per solve serves every probe.  Every exact value here is
read from an integer grid, as the solvers and the oracle read theirs
(`Game.int_rewards`, `GamePencil.value_at`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import GameValidationError
from .gamecore import Game, check_discount
# `solve_matrix_game` and `pencil_matrix` stay bound here, unused: the
# benchmark's trace layer wraps `absorbing.<name>` by name
from .matrixgame import matrix_game_value, solve_matrix_game  # noqa: F401
from .oracle import _integer_vector, _one_shot_grids
from .pencil import DEFAULT_MAX_ENTRIES, GamePencil, build_pencil, pencil_matrix  # noqa: F401
from .ratlinalg import IntPoly, RationalLike, to_fraction


def _leak(game: Game) -> tuple[int, int, int] | None:
    """First 0-based (state, i, j) at which a state 2..n can be left, or None."""
    for l in range(1, game.n_states):
        for i, row in enumerate(game.transitions[l]):
            for j, dist in enumerate(row):
                if dist[l] != 1:
                    return l, i, j
    return None


def is_absorbing(game: Game) -> bool:
    """True when every state except the live state 1 is absorbing."""
    return _leak(game) is None


@dataclass(frozen=True)
class AbsorbingGame:
    """A game whose states 2..n are absorbing; state 1 is the live state."""

    game: Game

    @classmethod
    def from_game(cls, game: Game) -> "AbsorbingGame":
        leak = _leak(game)
        if leak is not None:
            l, i, j = leak
            raise GameValidationError(
                f"state {l + 1} is not absorbing: stay probability "
                f"{game.transitions[l][i][j][l]} at actions ({i + 1}, {j + 1})"
            )
        return cls(game)

    @cached_property
    def absorbed_values(self) -> tuple[Fraction, ...]:
        """Values of the absorbed states 2..n (their reward-matrix values).

        Computed on first use and kept: each identity check reads them twice.
        """
        big_l = self.game.denominator_lcm()
        return tuple(matrix_game_value(rows) / big_l for rows in self.game.int_rewards[1:])

    @cached_property
    def reduced_game(self) -> Game:
        """`value_reduced_game(self)`, built on first use and kept.

        Every identity check builds a pencil of it.
        """
        return value_reduced_game(self)


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


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of the finite-discount identity check at one (lam, z)."""

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
    action (the absorption weights are nonnegative).
    """
    game = ab.game
    values = ab.absorbed_values
    rewards = (game.rewards[0],) + tuple(
        tuple(tuple(values[l - 1] for _ in row) for row in game.rewards[l])
        for l in range(1, game.n_states)
    )
    return Game(rewards, game.transitions)


def verify_kohlberg_identity(
    ab: AbsorbingGame,
    lam: RationalLike,
    z: RationalLike,
    pencil: GamePencil,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> IdentityReport:
    """Check val(profile matrix)/lam**n == Kohlberg quotient, exactly.

    `pencil` is the game's own (state 1, lam) pencil, which the caller holds.
    Also verifies the structure behind the identity.  Raw profile-matrix
    entries depend on absorbed-state actions whenever absorbed rewards
    vary with actions (the Cramer numerator carries the absorbed stage
    reward, not the absorbed value), so the block-constancy of rows and
    columns is checked on the value-reduced game, together with the exact
    equality of the two pencils' values, both on the integer grids at z
    (one positive scale per grid, so equal integers are equal rationals).
    The first violated equality is reported with the offending entry.
    """
    lam = check_discount(lam)
    z = to_fraction(z)
    game = ab.game
    n = game.n_states
    reduced = build_pencil(ab.reduced_game, 1, lam, max_entries)
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
