"""Bisection solvers for the discounted value and the limit value.

Both algorithms normalize rewards into [0, 1], bisect z over that interval
and decide each step from the exact sign of the profile matrix-game value
at z, read straight from the pencil's integer grid by the one sign route,
`GamePencil.sign_at(z)`: it runs the one fraction-free pivot loop (the
pure minimax column first, Dantzig's entering rule, Bland's after a
degenerate pivot) on the matrix at z times a positive integer, shifted
positive by a constant the pencil computes once per solve, so no entry
becomes a Fraction, no probe shifts its rows and no strategy is
computed.  For the discounted value the pencil is built at
the given discount rate.  For the limit value it is built at
`ratlinalg.LAM`, and the sign is that of val W(lam, z) as lam -> 0+,
decided exactly over Z[lam] (Jeroslow, "Asymptotic linear programming",
1973): the grids are integer polynomials in lam, and the simplex runs over
them ordered by the sign of the lowest-order nonzero coefficient, which is
the sign of a polynomial for every small enough lam > 0.  No discount rate
is ever chosen, so no depth, window or cap enters the decision.  An
exact zero moves both brackets, which
collapses the interval onto an exact root when one is hit.  A single sign
or value needs no wrapper: the limit sign at z is
`build_pencil(game, k, LAM).sign_at(z)`, and the exact value at a rate is
`build_pencil(game, k, lam).value_at(z)`.

A start state k that is never left, every one-state game's among them,
is worth val(g_k) at every rate and in the limit; after the same checks
the solvers return that value (`absorbing.absorbed_value`) with no probe.

From state 1 of an absorbing game the same sign is read from state 1's
|I| x |J| one-shot game minus z (Kohlberg's quotient, strictly decreasing
in z with root v_lam), built once per solve as a pencil in z
(`absorbing.live_pencil`); the profile matrix is not built, but its cap
holds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .absorbing import AbsorbingGame, absorbed_value, is_absorbing, live_pencil
from .errors import GameValidationError
from .gamecore import Game, affine_normalize, check_discount, reward_scale
# `solve_matrix_game` stays bound here: the benchmark's trace layer wraps
# `solver.solve_matrix_game` by name
from .matrixgame import solve_matrix_game  # noqa: F401
from .pencil import DEFAULT_MAX_ENTRIES, _check_cap, build_pencil
from .ratlinalg import LAM, IntPoly, RationalLike, ceil_log2


class BisectionResult(NamedTuple):
    """Outcome of a bisection run, reported in the original reward scale.

    trace holds the probed (z, sign) pairs in the normalized [0, 1]
    coordinates; original-scale quantities are scale * z + offset.  The
    bracketing invariant guarantees |true value - value_estimate| <= radius.
    A start state that is never left gets its exact value, radius 0,
    iterations 0 and an empty trace, with a bisection's scale and offset.
    A named tuple, so it also unpacks in field order.
    """

    value_estimate: Fraction
    radius: Fraction
    iterations: int
    trace: tuple[tuple[Fraction, int], ...]
    scale: Fraction
    offset: Fraction
    # always None; kept because the benchmark's trace layer reads it
    evidence: None = None


def _check_precision(r: int) -> int:
    if not isinstance(r, int) or r < 0:
        raise GameValidationError(f"precision must be a nonnegative integer, got {r!r}")
    return r


def _normalized(game: Game, r: int) -> tuple[Game, Fraction, Fraction, int]:
    """Reward-normalized game, its (scale, offset) and the bisection's grid level."""
    ngame, scale, offset = affine_normalize(game)
    return ngame, scale, offset, r + ceil_log2(scale)


def _bisect(sign_at, r_eff: int, scale: Fraction, offset: Fraction) -> BisectionResult:
    """Bisect z over [0, 1] down to width 2**-r_eff on exact signs sign_at(z).

    A positive sign raises the lower bracket, a negative one lowers the
    upper bracket, and an exact zero moves both onto the root.
    """
    tol = Fraction(1, 2**r_eff)
    w_lo, w_hi = Fraction(0), Fraction(1)
    trace: list[tuple[Fraction, int]] = []
    while w_hi - w_lo > tol:
        z = (w_lo + w_hi) / 2
        s = sign_at(z)
        trace.append((z, s))
        if s >= 0:
            w_lo = z
        if s <= 0:
            w_hi = z
    return BisectionResult(
        value_estimate=scale * w_lo + offset,
        radius=scale * (w_hi - w_lo),
        iterations=len(trace),
        trace=tuple(trace),
        scale=scale,
        offset=offset,
    )


def _solve(
    game: Game, k: int, lam: Fraction | IntPoly, r: int, max_entries: int
) -> BisectionResult:
    """Bisect the normalized game's sign at lam (a checked rate or LAM) to 2**-r.

    A reward span above 1 adds ceil(log2 span) iterations, so the radius
    still maps back below 2**-r in the original scale.
    """
    game.check_state(k)
    _check_precision(r)
    scale, offset = reward_scale(game)
    _check_cap(game, max_entries)
    value = absorbed_value(game, k - 1)
    if value is not None:
        return BisectionResult(value, Fraction(0), 0, (), scale, offset)
    ngame, _, _, r_eff = _normalized(game, r)
    if k == 1 and is_absorbing(ngame):
        pencil = live_pencil(AbsorbingGame(ngame), lam)
    else:
        pencil = build_pencil(ngame, k, lam, max_entries)
    return _bisect(pencil.sign_at, r_eff, scale, offset)


def discounted_value(
    game: Game,
    k: int,
    lam: RationalLike,
    r: int,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> BisectionResult:
    """Approximate the discounted value from state k within 2**-r."""
    return _solve(game, k, check_discount(lam), r, max_entries)


def limit_value(
    game: Game, k: int, r: int, max_entries: int = DEFAULT_MAX_ENTRIES
) -> BisectionResult:
    """Approximate the limit (vanishing-discount) value within 2**-r."""
    return _solve(game, k, LAM, r, max_entries)
