"""The chain a pair of stationary strategies induces, kept as a test-side reference.

The library never forms a strategy pair's chain: the pencils hold the
profile pairs' determinants as integer grids, and
`checks._mixed_determinants` mixes only the chain rows it needs, over
one integer scale per row.  The rational route stays here: the chain's
transition matrix and expected rewards, its linear system, and the
discounted payoff vector by an exact Gaussian solve (`solve_linear`, with
`SingularMatrixError`, which nothing else raises).  The pencil grids and
`_mixed_determinants` are checked against it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from stochgame.errors import GameValidationError
from stochgame.gamecore import Game, StationaryStrategy, check_discount
from stochgame.ratlinalg import RatMatrix, RationalLike, to_fraction


class SingularMatrixError(ArithmeticError):
    """Exact linear solve against a singular matrix."""


def _check_pair(game: Game, x: StationaryStrategy, y: StationaryStrategy) -> None:
    if x.n_states != game.n_states or y.n_states != game.n_states:
        raise GameValidationError("strategy state count does not match the game")
    if any(len(row) != game.n_actions1 for row in x.rows):
        raise GameValidationError("player 1 strategy has wrong action count")
    if any(len(row) != game.n_actions2 for row in y.rows):
        raise GameValidationError("player 2 strategy has wrong action count")


def transition_matrix(game: Game, x: StationaryStrategy, y: StationaryStrategy) -> RatMatrix:
    """n x n chain transition matrix induced by stationary strategies."""
    _check_pair(game, x, y)
    out = []
    for l in range(game.n_states):
        q_l = game.transitions[l]
        xr, yr = x.rows[l], y.rows[l]
        row = [Fraction(0)] * game.n_states
        for i, xi in enumerate(xr):
            if xi == 0:
                continue
            for j, yj in enumerate(yr):
                w = xi * yj
                if w == 0:
                    continue
                dist = q_l[i][j]
                for t in range(game.n_states):
                    row[t] += w * dist[t]
        out.append(row)
    return RatMatrix(out)


def expected_reward(game: Game, x: StationaryStrategy, y: StationaryStrategy) -> tuple[Fraction, ...]:
    """Per-state expected stage reward under stationary strategies."""
    _check_pair(game, x, y)
    out = []
    for l in range(game.n_states):
        g_l = game.rewards[l]
        total = Fraction(0)
        for i, xi in enumerate(x.rows[l]):
            if xi == 0:
                continue
            for j, yj in enumerate(y.rows[l]):
                total += xi * yj * g_l[i][j]
        out.append(total)
    return tuple(out)


def chain_system(
    game: Game, x: StationaryStrategy, y: StationaryStrategy, lam: RationalLike
) -> tuple[RatMatrix, tuple[Fraction, ...]]:
    """The chain's system (Id - (1-lam) Q, lam g); its solution is the payoff vector."""
    lam = check_discount(lam)
    q = transition_matrix(game, x, y)
    g = expected_reward(game, x, y)
    beta = 1 - lam
    n = game.n_states
    system = RatMatrix(
        [
            [Fraction(int(l == t)) - beta * q.rows[l][t] for t in range(n)]
            for l in range(n)
        ]
    )
    return system, tuple(lam * gv for gv in g)


def discounted_payoff(
    game: Game, x: StationaryStrategy, y: StationaryStrategy, lam: RationalLike
) -> tuple[Fraction, ...]:
    """Normalized discounted payoff vector: (Id - (1-lam) Q)^-1 lam g, exact.

    The system matrix is invertible for every discount rate in (0, 1]
    because Q is stochastic, so this never fails.
    """
    return solve_linear(*chain_system(game, x, y, lam))


def solve_linear(a: RatMatrix, b: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """Exact solution of A x = b via Gaussian elimination.

    Pivot rule: first nonzero entry in column order (exact arithmetic makes
    the choice irrelevant to the result).  Raises SingularMatrixError when
    no pivot exists.
    """
    if not a.is_square:
        raise ValueError(f"linear solve needs a square matrix, got {a.shape}")
    n = a.n_rows
    rhs = [to_fraction(x) for x in b]
    if len(rhs) != n:
        raise ValueError(f"right-hand side length {len(rhs)} != size {n}")
    rows = [list(row) for row in a.rows]
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"singular matrix: no pivot in column {k + 1}")
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            rhs[k], rhs[pivot_row] = rhs[pivot_row], rhs[k]
        pivot = rows[k][k]
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot
            if factor == 0:
                continue
            for j in range(k, n):
                rows[i][j] -= factor * rows[k][j]
            rhs[i] -= factor * rhs[k]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = rhs[k] - sum(rows[k][j] * x[j] for j in range(k + 1, n))
        x[k] = acc / rows[k][k]
    return tuple(x)
