"""Earlier pencil routes, kept as test-side references.

`pencil.build_pencil` eliminates each bordered system once per prefix of
action pairs, with state k last and no pivot search, and
`pencil.pencil_matrix_kronecker` expands shared block minors over integer
blocks.  The routes they replaced stay here: two `int_det` eliminations
per profile pair (the system matrix and its Cramer copy, each with its
own pivot search) over rows built from the game's integer form, and the
full expansion over all n! block-column permutations on `Fraction`
blocks, recomputed for the numerator and the denominator, with its
`kron` and block helpers.  `player2_profiles` enumerates player 2's
pure stationary profiles in their rank order.
"""

from __future__ import annotations

import itertools

from stochgame.gamecore import Game, check_discount
from stochgame.pencil import player1_profiles
from stochgame.ratlinalg import IntPoly, RatMatrix, int_det, to_fraction


def player2_profiles(game: Game):
    """All pure stationary strategies of player 2, state 1 most significant."""
    return itertools.product(range(game.n_actions2), repeat=game.n_states)


def two_pass_dets(game: Game, lam) -> tuple[int, dict]:
    """(scale, grids) with grids[k] the (numerators, denominators) of `build_pencil(game, k, lam)`.

    lam is a rate or `ratlinalg.LAM`.  With lam = a/b, c = b - a and L the
    game's least common denominator, each pair's system rows are
    b*L*[t == l] - c*L*q_lt, and its Cramer copy for state k has a*L*g_l
    in column k; both determinants come from their own `int_det`.
    """
    if not isinstance(lam, IntPoly):
        lam = check_discount(lam)
    a, b = lam.numerator, lam.denominator
    big_l = game.denominator_lcm()
    n = game.n_states
    grids = {}
    for k in range(1, n + 1):
        num_rows, den_rows = [], []
        for i_vec in player1_profiles(game):
            num_row, den_row = [], []
            for j_vec in player2_profiles(game):
                pairs = list(enumerate(zip(i_vec, j_vec)))
                system = [
                    [(b * big_l if t == l else 0) - (b - a) * lq
                     for t, lq in enumerate(game.int_transitions[l][i][j])]
                    for l, (i, j) in pairs
                ]
                cramer = [
                    row[: k - 1] + [a * game.int_rewards[l][i][j]] + row[k:]
                    for row, (l, (i, j)) in zip(system, pairs)
                ]
                num_row.append(int_det(cramer))
                den_row.append(int_det(system))
            num_rows.append(tuple(num_row))
            den_rows.append(tuple(den_row))
        grids[k] = (tuple(num_rows), tuple(den_rows))
    return (b * big_l) ** n, grids


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product a (x) b."""
    out = []
    for row_a in a.rows:
        for row_b in b.rows:
            out.append([x * y for x in row_a for y in row_b])
    return RatMatrix(out)


def _reward_block(game: Game, l: int) -> RatMatrix:
    return RatMatrix(game.rewards[l])


def _kernel_block(game: Game, l: int, t: int) -> RatMatrix:
    return RatMatrix(
        [
            [game.transitions[l][i][j][t] for j in range(game.n_actions2)]
            for i in range(game.n_actions1)
        ]
    )


def permutations_with_parity(n: int):
    """Yield (permutation, parity) for all permutations of range(n)."""
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        yield perm, -1 if inversions % 2 else 1


def block_determinant(blocks: list[list[RatMatrix]]) -> RatMatrix:
    """Determinant of a square block array with Kronecker products.

    Expansion over column assignments; each term keeps its Kronecker
    factors ordered by block row.
    """
    n = len(blocks)
    total = None
    for perm, parity in permutations_with_parity(n):
        term = blocks[0][perm[0]]
        for r in range(1, n):
            term = kron(term, blocks[r][perm[r]])
        term = term.scaled(parity)
        total = term if total is None else total + term
    return total


def kronecker_by_permutations(game, k: int, lam, z) -> RatMatrix:
    """`pencil_matrix_kronecker(game, k, lam).matrix_at(z)` by two full permutation expansions."""
    lam = check_discount(lam)
    z = to_fraction(z)
    n = game.n_states
    ones = RatMatrix.constant(game.n_actions1, game.n_actions2, 1)

    def chain_block(r: int, t: int) -> RatMatrix:
        block = _kernel_block(game, r, t).scaled(-(1 - lam))
        return block + ones if r == t else block

    den_blocks = [[chain_block(r, t) for t in range(n)] for r in range(n)]
    num_cols = [c for c in range(n) if c != k - 1]
    num_blocks = [
        [_reward_block(game, r).scaled(-lam)] + [chain_block(r, t) for t in num_cols]
        for r in range(n)
    ]
    den_grid = block_determinant(den_blocks)
    num_grid = block_determinant(num_blocks).scaled((-1) ** k)
    return num_grid + den_grid.scaled(-z)
