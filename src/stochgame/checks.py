"""Self-contained invariant suite run against a single game.

Backs the `check` CLI command: every structural fact the solvers rely on
(denominator lower bound, multilinearity of the pencil, strict decrease
of the pencil value, root location at the oracle value, agreement of the
two pencil constructions, and the absorbing-game identity) is evaluated
on the given game with a seeded sample of strategies and parameters.
All comparisons are exact; the root check signs the pencil's integer grid
as the bisections do.  The entry cap is checked first and passed to every
pencil.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .absorbing import AbsorbingGame, is_absorbing, verify_kohlberg_identity
from .gamecore import Game, StationaryStrategy, chain_system
from .matrixgame import matrix_game_sign, solve_matrix_game
from .oracle import shapley_operator, value_iteration
from .pencil import (
    DEFAULT_MAX_ENTRIES,
    _check_cap,
    build_pencil,
    payoff_denominator,
    pencil_matrix,
    pencil_matrix_kronecker,
    player1_profiles,
    profile_row_index,
)
from .ratlinalg import det


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""


_PAIR_SAMPLE = 48  # profile pairs drawn per discount rate from a game with more
_Z_NUM = _Z_DEN = 8  # sampled targets are z = p/q, 0 <= p <= _Z_NUM, 1 <= q <= _Z_DEN


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, _Z_NUM), rng.randint(1, _Z_DEN))


def _random_strategy(rng: random.Random, n_states: int, n_actions: int) -> StationaryStrategy:
    rows = []
    for _ in range(n_states):
        weights = [rng.randint(0, 6) for _ in range(n_actions)]
        if sum(weights) == 0:
            weights[rng.randrange(n_actions)] = 1
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return StationaryStrategy(rows)


def _profile(rank: int, n_actions: int, n_states: int) -> tuple[int, ...]:
    """Inverse of `profile_row_index`: the profile with mixed-radix rank `rank`."""
    return tuple(rank // n_actions**e % n_actions for e in range(n_states - 1, -1, -1))


def _sampled_profile_pairs(game: Game, rng: random.Random) -> list:
    """Every profile pair in row-major order, or _PAIR_SAMPLE drawn as ranks."""
    n = game.n_states
    n_cols = game.n_actions2**n
    total = game.n_actions1**n * n_cols
    ranks = rng.sample(range(total), _PAIR_SAMPLE) if total > _PAIR_SAMPLE else range(total)
    return [
        (_profile(row, game.n_actions1, n), _profile(col, game.n_actions2, n))
        for row, col in (divmod(rank, n_cols) for rank in ranks)
    ]


def _check_denominator_bound(game: Game, rng: random.Random) -> CheckOutcome:
    n = game.n_states
    for lam in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
        floor = lam**n
        for i_vec, j_vec in _sampled_profile_pairs(game, rng):
            value = payoff_denominator(game, i_vec, j_vec, lam)
            if value < floor:
                return CheckOutcome(
                    "denominator-lower-bound",
                    False,
                    f"denominator {value} < {floor} at lam={lam}, profiles {i_vec}/{j_vec}",
                )
    return CheckOutcome("denominator-lower-bound", True)


def _mixed_determinants(game: Game, x: StationaryStrategy, j_vec, k: int, lam: Fraction):
    system, rhs = chain_system(game, x, StationaryStrategy.pure(j_vec, game.n_actions2), lam)
    return det(system.replace_column(k, rhs)), det(system)


def _check_multilinearity(
    game: Game, k: int, rng: random.Random, max_entries: int
) -> CheckOutcome:
    for _ in range(6):
        lam = Fraction(1, rng.randint(2, 8))
        z = _random_fraction(rng)
        x = _random_strategy(rng, game.n_states, game.n_actions1)
        j_vec = tuple(rng.randrange(game.n_actions2) for _ in range(game.n_states))
        pencil = build_pencil(game, k, lam, max_entries)
        matrix = pencil.matrix_at(z)
        col = profile_row_index(j_vec, game.n_actions2)
        mixed_entry = Fraction(0)
        for row, i_vec in enumerate(player1_profiles(game)):
            weight = Fraction(1)
            for l, a in enumerate(i_vec):
                weight *= x.rows[l][a]
            mixed_entry += weight * matrix.entry(row, col)
        numerator, denominator = _mixed_determinants(game, x, j_vec, k, lam)
        if mixed_entry != numerator - z * denominator:
            return CheckOutcome(
                "pencil-multilinearity",
                False,
                f"mismatch at lam={lam}, z={z}, column profile {j_vec}",
            )
    return CheckOutcome("pencil-multilinearity", True)


def _check_strict_decrease(
    game: Game, k: int, rng: random.Random, max_entries: int
) -> CheckOutcome:
    n = game.n_states
    for _ in range(4):
        lam = Fraction(1, rng.randint(2, 6))
        z1 = _random_fraction(rng)
        z2 = z1 + Fraction(rng.randint(1, 4), rng.randint(1, 6))
        pencil = build_pencil(game, k, lam, max_entries)
        v1 = solve_matrix_game(pencil.matrix_at(z1)).value
        v2 = solve_matrix_game(pencil.matrix_at(z2)).value
        if v1 - v2 < (z2 - z1) * lam**n:
            return CheckOutcome(
                "value-strict-decrease",
                False,
                f"val({z1}) - val({z2}) = {v1 - v2} < {(z2 - z1) * lam ** n} at lam={lam}",
            )
    return CheckOutcome("value-strict-decrease", True)


def _check_root_at_oracle(game: Game, k: int, max_entries: int) -> CheckOutcome:
    lam = Fraction(1, 4)
    tol = Fraction(1, 2**12)
    u = value_iteration(game, lam, tol)
    z = u[k - 1]
    pencil = build_pencil(game, k, lam, max_entries)
    if shapley_operator(game, lam, u) == u:
        at = matrix_game_sign(pencil.scaled_at(z))
        if at != 0:
            return CheckOutcome(
                "root-at-oracle-value",
                False,
                f"exact oracle value {z} but pencil value sign {at} != 0",
            )
        return CheckOutcome("root-at-oracle-value", True, "oracle value exact, root exact")
    below = matrix_game_sign(pencil.scaled_at(z - tol))
    above = matrix_game_sign(pencil.scaled_at(z + tol))
    if below < 0 or above > 0:
        return CheckOutcome(
            "root-at-oracle-value",
            False,
            f"no sign change around oracle value {z}: sign val({z - tol})={below}, "
            f"sign val({z + tol})={above}",
        )
    return CheckOutcome("root-at-oracle-value", True)


def _check_kronecker(game: Game, rng: random.Random, max_entries: int) -> CheckOutcome:
    for k in range(1, game.n_states + 1):
        lam = Fraction(1, rng.randint(2, 8))
        z = _random_fraction(rng)
        direct = pencil_matrix(game, k, lam, z, max_entries)
        blockwise = pencil_matrix_kronecker(game, k, lam, z, max_entries)
        if direct != blockwise:
            return CheckOutcome(
                "kronecker-equivalence",
                False,
                f"constructions disagree at state {k}, lam={lam}, z={z}",
            )
    return CheckOutcome("kronecker-equivalence", True)


def _check_absorbing(game: Game, rng: random.Random, max_entries: int) -> CheckOutcome:
    if not is_absorbing(game):
        return CheckOutcome("absorbing-identity", True, "not absorbing; skipped")
    ab = AbsorbingGame.from_game(game)
    for _ in range(4):
        lam = Fraction(1, rng.randint(2, 10))
        z = _random_fraction(rng)
        report = verify_kohlberg_identity(ab, lam, z, max_entries)
        if not report.ok:
            return CheckOutcome("absorbing-identity", False, report.detail)
    return CheckOutcome("absorbing-identity", True)


def run_invariant_checks(
    game: Game,
    k: int = 1,
    seed: int = 0,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> list[CheckOutcome]:
    """Run the full per-game invariant suite; exact, deterministic per seed.

    The entry cap is checked before any check runs (ResourceCapError).
    """
    game.check_state(k)
    _check_cap(game, max_entries)
    rng = random.Random(seed)
    outcomes = [
        _check_denominator_bound(game, rng),
        _check_multilinearity(game, k, rng, max_entries),
        _check_strict_decrease(game, k, rng, max_entries),
        _check_root_at_oracle(game, k, max_entries),
        _check_kronecker(game, rng, max_entries),
        _check_absorbing(game, rng, max_entries),
    ]
    return outcomes
