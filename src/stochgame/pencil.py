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
entry at z = p/q is the single fraction (q*N - p*D) / (q*scale).  The same
code runs over Z[lam]: for lam = `ratlinalg.LAM` the rows are
L*Id - (1-lam)*L*Q, the Cramer column is lam*L*g, and the grids hold
integer polynomials in lam whose signs as lam -> 0+ decide the limit value.

The bisections read signs straight from these integers
(`GamePencil.scaled_at`); `matrix_at` and `pencil_matrix` give the
rational matrix itself as a `RatMatrix`.  `pencil_matrix_kronecker`
rebuilds that matrix from Kronecker products of per-state blocks over the
rationals, never forming a per-profile chain matrix, so the two
constructions check each other.

Every entry is a pure function of its own profile pair, and all results
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
    IntPoly,
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

    Row l of a profile pair's system matrix is row l of b*L*Id - c*L*Q for
    its actions (i, j) in state l + 1, and its Cramer column holds a*L*g
    there (c = b - a, L the game's least common denominator).
    Determinants of matrices assembled from them equal the rational ones
    times scale = (b*L)**n_states.  Each row is scaled on first use and
    kept, so one profile pair scales only its own n rows.  lam may also
    be `ratlinalg.LAM` (a = lam, b = 1), which gives the rows
    L*Id - (1-lam)*L*Q and the column lam*L*g over Z[lam].
    """

    __slots__ = ("game", "diag", "c_l", "a_l", "scale", "_rows")

    def __init__(self, game: Game, lam):
        big_l = game.denominator_lcm()
        a, b = lam.numerator, lam.denominator
        self.game = game
        self.diag = b * big_l
        self.c_l = (b - a) * big_l
        self.a_l = a * big_l
        self.scale = self.diag**game.n_states
        self._rows: dict = {}

    def _row(self, l: int, i: int, j: int) -> list:
        row = self._rows.get((l, i, j))
        if row is None:
            row = self._rows[l, i, j] = [
                (self.diag if t == l else 0) - self.c_l // p.denominator * p.numerator
                for t, p in enumerate(self.game.transitions[l][i][j])
            ]
        return row

    def system(self, i_vec, j_vec) -> list[list]:
        """Fresh scaled system matrix of one profile pair (int_det mutates it)."""
        return [list(self._row(l, i, j)) for l, (i, j) in enumerate(zip(i_vec, j_vec))]

    def cramer(self, system: list[list], k: int, i_vec, j_vec) -> list[list]:
        """Copy of the scaled system with column k replaced by a*L*g."""
        out = []
        for l, row in enumerate(system):
            g = self.game.rewards[l][i_vec[l]][j_vec[l]]
            out.append(row[: k - 1] + [self.a_l // g.denominator * g.numerator] + row[k:])
        return out

    def dets(self, k: int, i_vec, j_vec) -> tuple:
        """Scaled (Cramer numerator, system determinant) of one profile pair."""
        system = self.system(i_vec, j_vec)
        return int_det(self.cramer(system, k, i_vec, j_vec)), int_det(system)


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

    Row r belongs to the player-1 profile with mixed-radix rank r (state 1
    most significant); columns likewise for player 2.

    Entry (r, c) of the pencil is numerators[r][c] / scale at z = 0 and
    falls by denominators[r][c] / scale per unit of z, where scale is
    (b*L)**n_states for lam = a/b and the game's least common denominator
    L.  The bisection over z reuses these: `scaled_at(p/q)` gives the
    integers q*N - p*D, the matrix at z times q*scale > 0, whose game
    value has the sign the bisection needs; `matrix_at` divides them into
    one reduced fraction per entry.  For lam = `ratlinalg.LAM` the grids
    hold `IntPoly` germs over scale L**n_states, and only `scaled_at`
    applies.
    """

    numerators: tuple[tuple[int | IntPoly, ...], ...]
    denominators: tuple[tuple[int | IntPoly, ...], ...]
    scale: int

    @property
    def n_rows(self) -> int:
        return len(self.numerators)

    @property
    def n_cols(self) -> int:
        return len(self.numerators[0])

    def scaled_at(self, z: RationalLike) -> list[list]:
        """Entries q*N - p*D at z = p/q: the matrix at z times q*scale > 0."""
        z = to_fraction(z)
        p, q = z.numerator, z.denominator
        return [
            [q * num - p * den for num, den in zip(num_row, den_row)]
            for num_row, den_row in zip(self.numerators, self.denominators)
        ]

    def matrix_at(self, z: RationalLike) -> RatMatrix:
        area = to_fraction(z).denominator * self.scale
        return RatMatrix([[Fraction(x, area) for x in row] for row in self.scaled_at(z)])


def build_pencil(
    game: Game, k: int, lam, max_entries: int = DEFAULT_MAX_ENTRIES
) -> GamePencil:
    """Numerator and denominator grids of every profile pair at lam.

    lam is a rate in (0, 1], or `ratlinalg.LAM` for grids of integer
    polynomials in lam: the germs of the pencil as lam -> 0+.
    """
    if not isinstance(lam, IntPoly):
        lam = check_discount(lam)
    game.check_state(k)
    _check_cap(game, max_entries)
    ints = _IntegerSystem(game, lam)
    cols = list(player2_profiles(game))
    grid = [
        [ints.dets(k, i_vec, j_vec) for j_vec in cols] for i_vec in player1_profiles(game)
    ]
    return GamePencil(
        numerators=tuple(tuple(num for num, _ in row) for row in grid),
        denominators=tuple(tuple(den for _, den in row) for row in grid),
        scale=ints.scale,
    )


def pencil_matrix(
    game: Game,
    k: int,
    lam: RationalLike,
    z: RationalLike,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> RatMatrix:
    """Profile matrix with entries numerator - z * denominator.

    Rows and columns are ordered by profile rank as in GamePencil.
    """
    return build_pencil(game, k, lam, max_entries).matrix_at(z)


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
) -> RatMatrix:
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
    return num_grid + den_grid.scaled(-z)
