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
takes a*L*g as column k (L*Q and L*g are `Game.int_transitions` and
`Game.int_rewards`).  Eliminating the system matrix bordered by that
column gives both determinants: the pair's denominator and numerator
times the one scale (b*L)**n_states shared by the whole grid, so the grids
are stored as integers over that scale and an entry at z = p/q is the
single fraction (q*N - p*D) / (q*scale).  `build_pencil` runs that
elimination once per prefix of action pairs, state by state, without
pivot search: every pivot is a positive leading principal minor.  The
same code runs over Z[lam]: for lam = `ratlinalg.LAM` the rows are
L*Id - (1-lam)*L*Q, the Cramer column is lam*L*g, and the grids hold
integer polynomials in lam whose signs as lam -> 0+ decide the limit
value.

The bisections read signs straight from these integers
(`GamePencil.scaled_at`) and exact values from the same grid
(`GamePencil.value_at`); `matrix_at` and `pencil_matrix` give the
rational matrix itself as a `RatMatrix`.  `pencil_matrix_kronecker`
rebuilds the same `GamePencil` from integer block minors over its own
common denominator: Kronecker products of per-state blocks, shared between
the numerator and the denominator grids.  It never forms a per-profile
chain matrix nor runs a Bareiss pass, and its scale equals the direct one,
so the two constructions check each other by comparing integer grids.

Every entry is a pure function of its own profile pair, and all results
here are immutable once built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import ResourceCapError
from .gamecore import Game, check_discount
from .matrixgame import matrix_game_value
# `det` stays bound here: the benchmark's trace layer wraps `pencil.det` by name
from .ratlinalg import (  # noqa: F401
    IntPoly,
    RatMatrix,
    RationalLike,
    bareiss_row,
    det,
    int_det,
    int_row,
    to_fraction,
)

DEFAULT_MAX_ENTRIES = 10**6


def player1_profiles(game: Game) -> Iterator[tuple[int, ...]]:
    """All pure stationary strategies of player 1, state 1 most significant."""
    return itertools.product(range(game.n_actions1), repeat=game.n_states)


def profile_row_index(i_vec: Sequence[int], n_actions: int) -> int:
    """Mixed-radix rank of a profile, first state most significant."""
    idx = 0
    for a in i_vec:
        idx = idx * n_actions + a
    return idx


def _integer_rows(game: Game, lam) -> tuple[int, list]:
    """b*L and the game's integer system rows at lam = a/b.

    rows[l][i][j] is row l of b*L*Id - c*L*Q at actions (i, j) in state
    l + 1, followed by its Cramer entry a*L*g (c = b - a, L the game's
    least common denominator, L*Q and L*g `Game.int_transitions` and
    `Game.int_rewards`).  At `ratlinalg.LAM` (a = lam, b = 1) the entries
    are germs: L*Id - (1-lam)*L*Q and lam*L*g.
    """
    a, b = lam.numerator, lam.denominator
    c = b - a
    diag = b * game.denominator_lcm()
    rows = [
        [
            [
                [(diag if t == l else 0) - c * lq for t, lq in enumerate(dist)] + [a * lg]
                for lg, dist in zip(g_row, q_row)
            ]
            for g_row, q_row in zip(game.int_rewards[l], game.int_transitions[l])
        ]
        for l in range(game.n_states)
    ]
    return diag, rows


def payoff_denominator(game: Game, i_vec, j_vec, lam: RationalLike) -> Fraction:
    """det(Id - (1-lam) Q) for a pure profile; at least lam**n_states."""
    diag, rows = _integer_rows(game, check_discount(lam))
    system = [rows[l][i][j][:-1] for l, (i, j) in enumerate(zip(i_vec, j_vec))]
    return Fraction(int_det(system), diag**game.n_states)


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
    value has the sign the bisection needs; `value_at` divides that game's
    exact value by q*scale, and `matrix_at` divides the entries into one
    reduced fraction each.  For lam = `ratlinalg.LAM` the grids
    hold `IntPoly` germs over scale L**n_states, and only `scaled_at`
    applies.  `absorbing.live_pencil` builds the same kind of pencil for
    state 1's |I| x |J| one-shot game, over its own scale.
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
        """Entries q*N - p*D at z = p/q: the matrix at z times q*scale > 0.

        On germ grids (read from the first numerator) this is the Bareiss
        row step with det = 1, so each row is one `ratlinalg.bareiss_row`
        call (one `IntPoly` per entry); integer grids take the plain
        integer expression.
        """
        z = to_fraction(z)
        p, q = z.numerator, z.denominator
        rows = zip(self.numerators, self.denominators)
        if isinstance(self.numerators[0][0], IntPoly):
            return [bareiss_row(num_row, den_row, q, p, 1) for num_row, den_row in rows]
        return [
            [q * num - p * den for num, den in zip(num_row, den_row)] for num_row, den_row in rows
        ]

    def value_at(self, z: RationalLike) -> Fraction:
        """Exact value of the matrix game at z, read from the integer grid."""
        z = to_fraction(z)
        return matrix_game_value(self.scaled_at(z)) / (z.denominator * self.scale)

    def matrix_at(self, z: RationalLike) -> RatMatrix:
        area = to_fraction(z).denominator * self.scale
        return RatMatrix([[Fraction(x, area) for x in row] for row in self.scaled_at(z)])


def build_pencil(
    game: Game, k: int, lam, max_entries: int = DEFAULT_MAX_ENTRIES
) -> GamePencil:
    """Numerator and denominator grids of every profile pair at lam.

    lam is a rate in (0, 1], or `ratlinalg.LAM` for grids of integer
    polynomials in lam: the germs of the pencil as lam -> 0+.

    Each pair's two determinants come from fraction-free (Bareiss)
    elimination of its bordered n x (n+1) system [A | a*L*g]
    (`_integer_rows`), with rows and columns in one state order that puts
    k last, and the Cramer column after them.  Reordering rows and
    columns alike keeps every determinant, so once the first n-1 columns
    are eliminated the last row holds det(A) and, in the Cramer column,
    det(A_k): A with column k replaced by a*L*g.

    No pivot search, row swap or sign fix is needed.  A = b*L*Id - c*L*Q
    is strictly diagonally dominant with a positive diagonal: each row's
    diagonal exceeds the sum of its off-diagonal magnitudes by a*L > 0.
    So is each of its principal submatrices, whose determinant is then
    positive, and every Bareiss pivot is a leading principal minor of the
    reordered A.  At a rate a pivot is a positive int.  At `LAM` it is a
    polynomial positive at every lam in (0, 1], so a positive germ.

    Row t of the elimination is state order[t]'s row at its action pair,
    and pivot t reduces the rows below it.  So the action pairs are walked
    depth first, state by state in that order: choosing a pair makes its
    reduced row the next pivot, which reduces the rows of every pair of
    every later state once (one `bareiss_row` per row on germs, one
    `int_row` otherwise), and every profile below that prefix shares
    them.  At the last state each pair's reduced row is its
    (det(A), det(A_k)), written at its profile ranks.
    """
    if not isinstance(lam, IntPoly):
        lam = check_discount(lam)
    game.check_state(k)
    n_rows, n_cols = _check_cap(game, max_entries)
    n, n1, n2 = game.n_states, game.n_actions1, game.n_actions2
    diag, rows = _integer_rows(game, lam)
    order = [s for s in range(n) if s != k - 1] + [k - 1]
    cols = order + [n]
    # per depth: (row offset, column offset, reordered bordered row) of each action pair
    levels = [
        [
            (i * n1 ** (n - 1 - s), j * n2 ** (n - 1 - s), [row[t] for t in cols])
            for i, pair_rows in enumerate(rows[s])
            for j, row in enumerate(pair_rows)
        ]
        for s in order
    ]
    step = bareiss_row if isinstance(lam, IntPoly) else int_row
    numerators = [[0] * n_cols for _ in range(n_rows)]
    denominators = [[0] * n_cols for _ in range(n_rows)]

    def walk(r: int, c: int, levels: list, prev) -> None:
        # levels[0] holds this depth's action pairs, levels[1:] the later depths',
        # each row reduced by the prefix's pivots, from the next pivot's column on
        if len(levels) == 1:
            for dr, dc, (den, num) in levels[0]:
                denominators[r + dr][c + dc], numerators[r + dr][c + dc] = den, num
            return
        for dr, dc, (piv, *tail) in levels[0]:
            later = [[(er, ec, step(row[1:], tail, piv, row[0], prev)) for er, ec, row in level]
                     for level in levels[1:]]
            walk(r + dr, c + dc, later, piv)

    walk(0, 0, levels, 1)
    return GamePencil(
        numerators=tuple(map(tuple, numerators)),
        denominators=tuple(map(tuple, denominators)),
        scale=diag**n,
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


def pencil_matrix_kronecker(
    game: Game,
    k: int,
    lam: RationalLike,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> GamePencil:
    """The pencil `build_pencil` returns at a rate, built from Kronecker block minors.

    Block row r of the n x (n+1) array B = [-lam*G | U*delta - (1-lam)*Q]
    holds state r's blocks.  Its block minor on rows m.. and a set S of
    block columns expands along block row m,

        minor(m.., S) = sum over c in S of (-1)**pos(c) B[m][c] (x) minor(m+1.., S - c),

    with pos(c) the rank of c in S, so every term keeps its Kronecker
    factors ordered by block row: the orientation under which the result
    matches the per-profile determinants entry by entry.  The denominator
    grid is the minor on block columns 1..n; the numerator grid is the
    minor on column 0 and the chain columns other than k, times (-1)**k
    (which compensates for moving the reward column first and negating
    it).  The minors are memoized on S, so the two share every lower one.

    Blocks are int grids: for lam = a/b and D = b*L (L the lcm of the game
    data's denominators, read from the rational data) a minor on m block
    rows is the rational one times D**m, so both grids are over the scale
    D**n.  That is `build_pencil`'s scale, so the two pencils are equal as
    integers exactly when they are equal as rationals.
    """
    lam = check_discount(lam)
    game.check_state(k)
    _check_cap(game, max_entries)
    n = game.n_states
    big_l = math.lcm(*(x.denominator for state in game.rewards for row in state for x in row),
                     *(x.denominator for state in game.transitions for row in state
                       for dist in row for x in dist))
    a, c, scale = lam.numerator, lam.denominator - lam.numerator, lam.denominator * big_l

    def times_l(x: Fraction) -> int:
        return big_l // x.denominator * x.numerator

    def block(r: int, t: int) -> list[list[int]]:
        """Block B[r][t] times D: t = 0 is the reward block, t >= 1 chain column t."""
        if t == 0:
            return [[-a * times_l(g) for g in row] for row in game.rewards[r]]
        diag, chain = (scale if r == t - 1 else 0), game.transitions[r]
        return [[diag - c * times_l(d[t - 1]) for d in row] for row in chain]

    # signed[r][t][pos % 2] carries the Laplace sign: it goes on the small per-state block
    blocks = [[block(r, t) for t in range(n + 1)] for r in range(n)]
    signed = [[(u, [[-x for x in v] for v in u]) for u in row] for row in blocks]
    minors: dict[tuple[int, ...], list[list[int]]] = {(): [[1]]}  # the empty minor is 1

    def minor(cols: tuple[int, ...]) -> list[list[int]]:
        found = minors.get(cols)
        if found is None:
            row = signed[n - len(cols)]
            subs = [minor(cols[:pos] + cols[pos + 1 :]) for pos in range(len(cols))]
            products = [
                [[x * y for x in u for y in v] for u in row[col][pos % 2] for v in sub]
                for pos, (col, sub) in enumerate(zip(cols, subs))
            ]
            found = minors[cols] = [[sum(xs) for xs in zip(*rows)] for rows in zip(*products)]
        return found

    den_grid = minor(tuple(range(1, n + 1)))
    num_grid = minor((0,) + tuple(t for t in range(1, n + 1) if t != k))
    sign = (-1) ** k
    numerators = tuple(tuple(sign * x for x in row) for row in num_grid)
    return GamePencil(numerators, tuple(map(tuple, den_grid)), scale**n)
