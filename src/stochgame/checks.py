"""Self-contained invariant suite run against a single game.

Backs the `check` CLI command: every structural fact the solvers rely on
is evaluated exactly on the given game, with a seeded sample of
strategies and parameters.  Each check but the absorbing identity reads
whole objects from the run's integer pencils (`GamePencil`):

- denominator bound: every denominator of the pencils at lam = 1/2, 1/4
  and 1/10 against lam**n times the scale, an int, so every profile pair;
- multilinearity: one column of each grid, weighted by a mixed strategy
  of player 1 (drawn as integer weights, each row over its sum, so a
  profile weighs a product of weights over the product of the sums),
  against the mixed chain's determinants (from the rational chain data,
  each row mixed over one integer scale), numerator and denominator
  separately, so no z is drawn;
- strict decrease and root: exact values (`GamePencil.value_at`) at seeded
  z, and signs at the oracle value taken as the bisections take them;
- Kronecker: the whole pencil against `pencil_matrix_kronecker`, grid for
  grid over one scale, which implies equality at every z.

The absorbing identity reads the run's state-1 pencils too, and solves
the value-reduced game at |I| x |J| once its grid is block-constant
(`absorbing.verify_kohlberg_identity`).  No check builds a Fraction
strategy: strategies are drawn as integer weight rows.

The entry cap is checked first and passed to every pencil, and each
(state, lam) pencil is built once per run, in a dict local to
`run_invariant_checks` that the absorbing identity reads from too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
# in annotations only: a module-level `Callable[..., GamePencil]` alias would sit
# in typing's cache and keep every re-imported copy of the package alive
from typing import Callable

from .absorbing import AbsorbingGame, is_absorbing, verify_kohlberg_identity
from .gamecore import Game
# `solve_matrix_game` stays bound here: the benchmark's trace layer wraps
# `checks.solve_matrix_game` by name
from .matrixgame import matrix_game_sign, solve_matrix_game  # noqa: F401
from .oracle import shapley_operator, value_iteration
# `pencil_matrix` and `payoff_denominator` stay bound here, unused, and every
# pencil is built through `checks.build_pencil`: the benchmark's trace layer
# wraps all three by name
from .pencil import (  # noqa: F401
    DEFAULT_MAX_ENTRIES,
    GamePencil,
    _check_cap,
    build_pencil,
    payoff_denominator,
    pencil_matrix,
    pencil_matrix_kronecker,
    player1_profiles,
    profile_row_index,
)
# `det` stays bound here, unused: the benchmark's trace layer wraps `checks.det` by name
from .ratlinalg import det, int_det  # noqa: F401


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""


_Z_NUM = _Z_DEN = 8  # sampled targets are z = p/q, 0 <= p <= _Z_NUM, 1 <= q <= _Z_DEN


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, _Z_NUM), rng.randint(1, _Z_DEN))


def _random_strategy(rng: random.Random, n_states: int, n_actions: int) -> list[list[int]]:
    """A stationary strategy as integer weights, one row per state: row l plays w / sum(w)."""
    rows = []
    for _ in range(n_states):
        weights = [rng.randint(0, 6) for _ in range(n_actions)]
        if sum(weights) == 0:
            weights[rng.randrange(n_actions)] = 1
        rows.append(weights)
    return rows


def _check_denominator_bound(
    game: Game, k: int, pencil_at: Callable[[int, Fraction], GamePencil]
) -> CheckOutcome:
    n = game.n_states
    for lam in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
        pencil = pencil_at(k, lam)
        # lam**n * scale as an int: scale is (b*L)**n for lam = a/b
        floor = lam.numerator**n * (pencil.scale // lam.denominator**n)
        for r, row in enumerate(pencil.denominators):
            for c, den in enumerate(row):
                if den < floor:
                    return CheckOutcome(
                        "denominator-lower-bound",
                        False,
                        f"denominator {Fraction(den, pencil.scale)} < {lam**n} at lam={lam}, "
                        f"profile pair ({r}, {c})",
                    )
    return CheckOutcome("denominator-lower-bound", True)


def _mixed_determinants(game: Game, x: list[list[int]], j_vec, k: int, lam: Fraction):
    """(Cramer numerator, system determinant) of the mixed chain (Id - (1-lam) Q, lam g).

    Row l of Q and g_l mix column j_vec[l] of state l + 1's rational
    transitions and rewards by the weights x[l] over their sum, read from
    the rational data rather than the pencils' integer form, over one
    integer scale: for lam = a/b, s the sum of x[l] and mp the lcm of the
    denominators of the column's transitions and rewards, row l times
    b*s*mp is the integer row b*s*mp*[t == l] - (b-a) * sum_i x_i (mp q_i),
    and its Cramer entry a * sum_i x_i (mp g_i).  `int_det` takes both
    determinants over those rows, and each is divided by the product of
    the row scales.
    """
    a, b = lam.numerator, lam.denominator
    system, cramer, area = [], [], 1
    for l, (x_l, j) in enumerate(zip(x, j_vec)):
        dists = [row[j] for row in game.transitions[l]]
        rewards = [row[j] for row in game.rewards[l]]
        mp = math.lcm(*(g.denominator for g in rewards), *(p.denominator for d in dists for p in d))
        # the nonzero weights, each with its action's scaled column
        mixed = [(w, d, g) for w, d, g in zip(x_l, dists, rewards) if w]
        m = b * sum(x_l) * mp
        row = [(m if t == l else 0)
               - (b - a) * sum(w * (mp // d[t].denominator * d[t].numerator) for w, d, _ in mixed)
               for t in range(game.n_states)]
        system.append(row)
        g_l = sum(w * (mp // g.denominator * g.numerator) for w, _, g in mixed)
        cramer.append(row[: k - 1] + [a * g_l] + row[k:])
        area *= m
    return Fraction(int_det(cramer), area), Fraction(int_det(system), area)


def _check_multilinearity(
    game: Game, k: int, rng: random.Random, pencil_at: Callable[[int, Fraction], GamePencil]
) -> CheckOutcome:
    for _ in range(6):
        lam = Fraction(1, rng.randint(2, 8))
        x = _random_strategy(rng, game.n_states, game.n_actions1)
        j_vec = tuple(rng.randrange(game.n_actions2) for _ in range(game.n_states))
        pencil = pencil_at(k, lam)
        col = profile_row_index(j_vec, game.n_actions2)
        # a profile weighs the product of its actions' weights, over the
        # product of the rows' sums
        weights = [
            math.prod(x[l][a] for l, a in enumerate(i_vec))
            for i_vec in player1_profiles(game)
        ]
        area = math.prod(map(sum, x)) * pencil.scale
        mixed = [
            Fraction(sum(w * row[col] for w, row in zip(weights, grid)), area)
            for grid in (pencil.numerators, pencil.denominators)
        ]
        expected = _mixed_determinants(game, x, j_vec, k, lam)
        for part, got, want in zip(("numerator", "denominator"), mixed, expected):
            if got != want:
                return CheckOutcome(
                    "pencil-multilinearity",
                    False,
                    f"{part} mismatch at lam={lam}, column profile {j_vec}",
                )
    return CheckOutcome("pencil-multilinearity", True)


def _check_strict_decrease(
    game: Game, k: int, rng: random.Random, pencil_at: Callable[[int, Fraction], GamePencil]
) -> CheckOutcome:
    n = game.n_states
    for _ in range(4):
        lam = Fraction(1, rng.randint(2, 6))
        z1 = _random_fraction(rng)
        z2 = z1 + Fraction(rng.randint(1, 4), rng.randint(1, 6))
        pencil = pencil_at(k, lam)
        v1, v2 = pencil.value_at(z1), pencil.value_at(z2)
        if v1 - v2 < (z2 - z1) * lam**n:
            return CheckOutcome(
                "value-strict-decrease",
                False,
                f"val({z1}) - val({z2}) = {v1 - v2} < {(z2 - z1) * lam ** n} at lam={lam}",
            )
    return CheckOutcome("value-strict-decrease", True)


def _check_root_at_oracle(
    game: Game, k: int, pencil_at: Callable[[int, Fraction], GamePencil]
) -> CheckOutcome:
    lam = Fraction(1, 4)
    tol = Fraction(1, 2**12)
    u = value_iteration(game, lam, tol)
    z = u[k - 1]
    pencil = pencil_at(k, lam)
    if u.polished or shapley_operator(game, lam, u) == u:
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


def _check_kronecker(
    game: Game,
    rng: random.Random,
    pencil_at: Callable[[int, Fraction], GamePencil],
    max_entries: int,
) -> CheckOutcome:
    for k in range(1, game.n_states + 1):
        lam = Fraction(1, rng.randint(2, 8))
        if pencil_at(k, lam) != pencil_matrix_kronecker(game, k, lam, max_entries):
            return CheckOutcome(
                "kronecker-equivalence",
                False,
                f"constructions disagree at state {k}, lam={lam}",
            )
    return CheckOutcome("kronecker-equivalence", True)


def _check_absorbing(
    game: Game,
    rng: random.Random,
    pencil_at: Callable[[int, Fraction], GamePencil],
    max_entries: int,
) -> CheckOutcome:
    if not is_absorbing(game):
        return CheckOutcome("absorbing-identity", True, "not absorbing; skipped")
    ab = AbsorbingGame.from_game(game)
    for _ in range(4):
        lam = Fraction(1, rng.randint(2, 10))
        z = _random_fraction(rng)
        report = verify_kohlberg_identity(ab, lam, z, pencil_at(1, lam), max_entries)
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
    Each (state, lam) pencil is built once per call and shared by the
    checks that read it; pencils are immutable.
    """
    game.check_state(k)
    _check_cap(game, max_entries)
    rng = random.Random(seed)
    pencils: dict[tuple[int, Fraction], GamePencil] = {}

    def pencil_at(state: int, lam: Fraction) -> GamePencil:
        pencil = pencils.get((state, lam))
        if pencil is None:
            pencil = pencils[state, lam] = build_pencil(game, state, lam, max_entries)
        return pencil

    outcomes = [
        _check_denominator_bound(game, k, pencil_at),
        _check_multilinearity(game, k, rng, pencil_at),
        _check_strict_decrease(game, k, rng, pencil_at),
        _check_root_at_oracle(game, k, pencil_at),
        _check_kronecker(game, rng, pencil_at, max_entries),
        _check_absorbing(game, rng, pencil_at, max_entries),
    ]
    return outcomes
