"""Earlier pencil routes, kept as test-side references.

`pencil._IntegerSystem.dets` takes a profile pair's two determinants from
one Bareiss pass over the bordered system matrix, and
`pencil.pencil_matrix_kronecker` expands shared block minors over integer
blocks.  The routes they replaced stay here: two `int_det` eliminations
per pair (the system matrix and its Cramer copy), and the full expansion
over all n! block-column permutations on `Fraction` blocks, recomputed for
the numerator and the denominator, with its `kron` and block helpers.
"""

from __future__ import annotations

import itertools

from stochgame.gamecore import Game, check_discount
from stochgame.ratlinalg import RatMatrix, int_det, to_fraction


def cramer(ints, system: list[list], k: int, i_vec, j_vec) -> list[list]:
    """Copy of the scaled system with column k replaced by a*L*g."""
    big_l = ints.game.denominator_lcm()
    out = []
    for l, row in enumerate(system):
        g = ints.game.rewards[l][i_vec[l]][j_vec[l]]
        out.append(row[: k - 1] + [ints.a * (big_l // g.denominator * g.numerator)] + row[k:])
    return out


def two_pass_dets(ints, k: int, i_vec, j_vec) -> tuple:
    """Scaled (Cramer numerator, system determinant) by two eliminations."""
    system = [ints._system_row(l, i, j) for l, (i, j) in enumerate(zip(i_vec, j_vec))]
    return int_det(cramer(ints, system, k, i_vec, j_vec)), int_det(system)


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
