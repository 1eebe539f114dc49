"""Parameterized matrix games over pure stationary profile pairs.

For a fixed initial state k and discount rate lam, each profile pair
(i_vec, j_vec) contributes two exact determinants: the system determinant
det(Id - (1-lam) Q) and the Cramer numerator obtained by replacing its
k-th column with lam * g.  Their ratio is the discounted payoff, and the
pencil numerator - z * denominator defines, entry by entry, the matrix
game whose value changes sign exactly at the discounted value.

Both determinants are computed over the integers.  With lam = a/b, c = b - a
and L the least common denominator of the game data, every system matrix
scaled by b*L is the integer matrix b*L*Id - c*L*Q, and its Cramer matrix
takes a*L*g as column k.  Their Bareiss determinants are the pair's
denominator and numerator times the one scale (b*L)**n_states shared by the
whole grid, so the grids are stored as integers over that scale and an
entry at z = p/q is the single fraction (q*N - p*D) / (q*scale).

`pencil_matrix_kronecker` rebuilds the same matrix from Kronecker products
of per-state blocks over the rationals, never forming a per-profile chain
matrix, so the two constructions check each other.

Every entry is a pure function of its own profile pair, so grids may be
filled independently (and in parallel) with no shared state; all results
here are immutable once built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import ResourceCapError
from .gamecore import Game, check_discount
# `det` stays bound here: the benchmark's trace layer wraps `pencil.det` by name
from .ratlinalg import (  # noqa: F401
    RatMatrix,
    RationalLike,
    det,
    int_det,
    kron,
    permutations_with_parity,
    to_fraction,
)

DEFAULT_MAX_ENTRIES = 10**6


def player1_profiles(game: Game) -> Iterator[tuple[int, ...]]:
    """All pure stationary strategies of player 1, state 1 most significant."""
    return itertools.product(range(game.n_actions1), repeat=game.n_states)


def player2_profiles(game: Game) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(game.n_actions2), repeat=game.n_states)


def profile_row_index(i_vec: Sequence[int], n_actions: int) -> int:
    """Mixed-radix rank of a profile, first state most significant."""
    idx = 0
    for a in i_vec:
        idx = idx * n_actions + a
    return idx


class _IntegerSystem:
    """The game's data at one discount rate lam = a/b, scaled to integers.

    rows[l][i][j] is row l of b*L*Id - c*L*Q for actions (i, j) in state
    l + 1, and rewards[l][i][j] is a*L*g there (c = b - a, L the game's
    least common denominator).  Determinants of matrices assembled from
    them equal the rational ones times scale = (b*L)**n_states.
    """

    __slots__ = ("rows", "rewards", "scale")

    def __init__(self, game: Game, lam: Fraction):
        big_l = game.denominator_lcm()
        a, b = lam.numerator, lam.denominator
        diag = b * big_l
        c_l = (b - a) * big_l
        a_l = a * big_l
        self.rows = [
            [
                [
                    [(diag if t == l else 0) - c_l // p.denominator * p.numerator
                     for t, p in enumerate(dist)]
                    for dist in row
                ]
                for row in state
            ]
            for l, state in enumerate(game.transitions)
        ]
        self.rewards = [
            [[a_l // x.denominator * x.numerator for x in row] for row in state]
            for state in game.rewards
        ]
        self.scale = diag**game.n_states

    def system(self, i_vec, j_vec) -> list[list[int]]:
        """Fresh scaled system matrix of one profile pair (int_det mutates it)."""
        return [list(self.rows[l][i][j]) for l, (i, j) in enumerate(zip(i_vec, j_vec))]

    def cramer(self, system: list[list[int]], k: int, i_vec, j_vec) -> list[list[int]]:
        """Copy of the scaled system with column k replaced by a*L*g."""
        return [
            row[: k - 1] + [self.rewards[l][i_vec[l]][j_vec[l]]] + row[k:]
            for l, row in enumerate(system)
        ]


def payoff_denominator(game: Game, i_vec, j_vec, lam: RationalLike) -> Fraction:
    """det(Id - (1-lam) Q) for a pure profile; at least lam**n_states."""
    ints = _IntegerSystem(game, check_discount(lam))
    return Fraction(int_det(ints.system(i_vec, j_vec)), ints.scale)


def payoff_numerator(game: Game, k: int, i_vec, j_vec, lam: RationalLike) -> Fraction:
    """Cramer numerator: column k of the system matrix replaced by lam * g."""
    lam = check_discount(lam)
    game.check_state(k)
    ints = _IntegerSystem(game, lam)
    return Fraction(int_det(ints.cramer(ints.system(i_vec, j_vec), k, i_vec, j_vec)), ints.scale)


def _check_cap(game: Game, max_entries: int) -> tuple[int, int]:
    n_rows = game.n_actions1**game.n_states
    n_cols = game.n_actions2**game.n_states
    if n_rows * n_cols > max_entries:
        raise ResourceCapError(
            f"profile matrix would have {n_rows} x {n_cols} = {n_rows * n_cols} "
            f"entries, above the cap of {max_entries}; raise the cap only if "
            f"you accept the exponential cost"
        )
    return n_rows, n_cols


@dataclass(frozen=True)
class GamePencil:
    """Integer numerator/denominator grids over one scale, for one (state, lam).

    Entry (r, c) of the pencil is numerators[r][c] / scale at z = 0 and
    falls by denominators[r][c] / scale per unit of z, where scale is
    (b*L)**n_states for lam = a/b and the game's least common denominator
    L.  The bisection over z reuses these: the matrix at z = p/q is
    assembled in one pass, one reduced fraction (q*N - p*D) / (q*scale)
    per entry.
    """

    state: int
    lam: Fraction
    numerators: tuple[tuple[int, ...], ...]
    denominators: tuple[tuple[int, ...], ...]
    scale: int

    @property
    def n_rows(self) -> int:
        return len(self.numerators)

    @property
    def n_cols(self) -> int:
        return len(self.numerators[0])

    def matrix_at(self, z: RationalLike) -> RatMatrix:
        z = to_fraction(z)
        p, q = z.numerator, z.denominator
        area = q * self.scale
        return RatMatrix(
            [
                [Fraction(q * num - p * den, area) for num, den in zip(num_row, den_row)]
                for num_row, den_row in zip(self.numerators, self.denominators)
            ]
        )


def build_pencil(
    game: Game, k: int, lam: RationalLike, max_entries: int = DEFAULT_MAX_ENTRIES
) -> GamePencil:
    lam = check_discount(lam)
    game.check_state(k)
    _check_cap(game, max_entries)
    ints = _IntegerSystem(game, lam)
    nums = []
    dens = []
    cols = list(player2_profiles(game))
    for i_vec in player1_profiles(game):
        num_row = []
        den_row = []
        for j_vec in cols:
            system = ints.system(i_vec, j_vec)
            num_row.append(int_det(ints.cramer(system, k, i_vec, j_vec)))
            den_row.append(int_det(system))
        nums.append(tuple(num_row))
        dens.append(tuple(den_row))
    return GamePencil(
        state=k, lam=lam, numerators=tuple(nums), denominators=tuple(dens), scale=ints.scale
    )


@dataclass(frozen=True)
class PencilMatrix:
    """The assembled profile matrix game at a target z.

    Row r corresponds to the player-1 profile with mixed-radix rank r
    (state 1 most significant); columns likewise for player 2.
    """

    payoff: RatMatrix
    state: int
    lam: Fraction
    z: Fraction


def pencil_matrix(
    game: Game,
    k: int,
    lam: RationalLike,
    z: RationalLike,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> PencilMatrix:
    """Profile matrix with entries numerator - z * denominator."""
    pencil = build_pencil(game, k, lam, max_entries)
    return PencilMatrix(
        payoff=pencil.matrix_at(z), state=k, lam=pencil.lam, z=to_fraction(z)
    )


def _reward_block(game: Game, l: int) -> RatMatrix:
    return RatMatrix(game.rewards[l])


def _kernel_block(game: Game, l: int, t: int) -> RatMatrix:
    return RatMatrix(
        [
            [game.transitions[l][i][j][t] for j in range(game.n_actions2)]
            for i in range(game.n_actions1)
        ]
    )


def _block_determinant(blocks: list[list[RatMatrix]]) -> RatMatrix:
    """Determinant of a square block array with Kronecker products.

    Expansion over column assignments; each term keeps its Kronecker
    factors ordered by block row, which is the orientation under which
    the result matches the per-profile determinants entry by entry.
    """
    n = len(blocks)
    total: RatMatrix | None = None
    for perm, parity in permutations_with_parity(n):
        term = blocks[0][perm[0]]
        for r in range(1, n):
            term = kron(term, blocks[r][perm[r]])
        term = term.scaled(parity)
        total = term if total is None else total + term
    return total


def pencil_matrix_kronecker(
    game: Game,
    k: int,
    lam: RationalLike,
    z: RationalLike,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> PencilMatrix:
    """Same contract as pencil_matrix, built from Kronecker block arrays.

    The n x (n+1) array [-lam*G | U*delta - (1-lam)*Q] is reduced by
    deleting one block column: deleting the first yields the denominator
    grid, deleting block column k (with a (-1)**k sign, which compensates
    for moving the reward column into first position and negating it)
    yields the numerator grid.
    """
    lam = check_discount(lam)
    game.check_state(k)
    z = to_fraction(z)
    _check_cap(game, max_entries)
    n = game.n_states
    beta = 1 - lam
    ones = RatMatrix.constant(game.n_actions1, game.n_actions2, 1)

    def chain_block(r: int, t: int) -> RatMatrix:
        block = _kernel_block(game, r, t).scaled(-beta)
        return block + ones if r == t else block

    den_blocks = [[chain_block(r, t) for t in range(n)] for r in range(n)]
    num_cols = [c for c in range(n) if c != k - 1]
    num_blocks = [
        [_reward_block(game, r).scaled(-lam)] + [chain_block(r, t) for t in num_cols]
        for r in range(n)
    ]
    den_grid = _block_determinant(den_blocks)
    num_grid = _block_determinant(num_blocks).scaled((-1) ** k)
    return PencilMatrix(
        payoff=num_grid + den_grid.scaled(-z), state=k, lam=lam, z=z
    )
