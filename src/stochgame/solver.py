"""Bisection solvers for the discounted value and the limit value.

Both algorithms normalize rewards into [0, 1], bisect z over that interval
and decide each step from the exact sign of the profile matrix-game value
at z.  For the discounted value the sign is evaluated at the given
discount rate.  For the limit value it is evaluated on a discount ladder
lam = 2**-t whose starting depth is the guaranteed exponent derived from
the game's bit sizes: below that rate the sign of the matrix-game value
matches the sign of the vanishing-discount criterion, and a window of
consecutive rungs must still agree as a consistency check.  (A shallow
ladder started at depth 1 can stabilize on a transient sign - for the
two-state cycle chain the value 1/(2 - lam) crosses z = 17/32 only below
lam = 1/8, fooling any fixed window of early rungs - so shallow rungs are
kept only as a recorded heuristic, never as the decision.)  An exact zero
moves both brackets, which collapses the interval onto an exact root when
one is hit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import GameValidationError, UndecidedSignError
from .gamecore import Game, affine_normalize, check_discount
from .matrixgame import solve_matrix_game
from .pencil import DEFAULT_MAX_ENTRIES, build_pencil
from .ratlinalg import RationalLike, sign, to_fraction

DEFAULT_LADDER_WINDOW = 3
DEFAULT_ANCHOR_EXPONENT_CAP = 65536
DEFAULT_SHALLOW_DEPTH_CAP = 64


@dataclass(frozen=True)
class SignEvidence:
    """How a limit-criterion sign at some z was decided.

    The sign always comes from exact matrix-game values at rungs starting
    from the guaranteed anchor exponent; the shallow heuristic ladder
    (from depth 1) is recorded alongside when requested, with a flag for
    whether it agrees.
    """

    sign: int
    lambda_used: Fraction
    stabilized: bool
    ladder_depth: int
    anchor_exponent: int
    shallow_sign: int | None = None
    shallow_depth: int | None = None
    shallow_agrees: bool | None = None


@dataclass(frozen=True)
class BisectionResult:
    """Outcome of a bisection run, reported in the original reward scale.

    trace holds the probed (z, sign) pairs in the normalized [0, 1]
    coordinates; original-scale quantities are scale * z + offset.  The
    bracketing invariant guarantees |true value - value_estimate| <= radius.
    """

    value_estimate: Fraction
    radius: Fraction
    iterations: int
    trace: tuple[tuple[Fraction, int], ...]
    scale: Fraction
    offset: Fraction
    evidence: tuple[SignEvidence, ...] | None = None


def _ceil_log2(x: Fraction) -> int:
    """Smallest integer e with 2**e >= x (x > 0)."""
    two = Fraction(2)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    while two**e < x:
        e += 1
    while e > 0 and two ** (e - 1) >= x:
        e -= 1
    return e


def _check_precision(r: int) -> int:
    if not isinstance(r, int) or r < 0:
        raise GameValidationError(f"precision must be a nonnegative integer, got {r!r}")
    return r


def _normalized(game: Game, r: int) -> tuple[Game, Fraction, Fraction, int]:
    """Reward-normalized game, its (scale, offset) and the bisection's grid level."""
    ngame, scale, offset = affine_normalize(game)
    return ngame, scale, offset, r + max(0, _ceil_log2(scale))


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


def pencil_value(
    game: Game,
    k: int,
    lam: RationalLike,
    z: RationalLike,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> Fraction:
    """Exact value of the profile matrix game at target z."""
    pencil = build_pencil(game, k, lam, max_entries)
    return solve_matrix_game(pencil.matrix_at(z)).value


def discounted_value(
    game: Game,
    k: int,
    lam: RationalLike,
    r: int,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> BisectionResult:
    """Approximate the discounted value from state k within 2**-r.

    Runs the bisection on the reward-normalized game; when the reward span
    exceeds 1 the loop runs ceil(log2 span) extra iterations so the radius
    still maps back below 2**-r in the original scale.
    """
    lam = check_discount(lam)
    game.check_state(k)
    _check_precision(r)
    ngame, scale, offset, r_eff = _normalized(game, r)
    pencil = build_pencil(ngame, k, lam, max_entries)
    return _bisect(
        lambda z: sign(solve_matrix_game(pencil.matrix_at(z)).value), r_eff, scale, offset
    )


def lambda_r_exponent(game: Game, r: int) -> int:
    """Exponent e of the closed-form discount rate 2**-e for grid level r.

    Uses the pure-stationary-strategy count of the larger side and the
    least common denominator of the game data; both enter through their
    bit lengths, so e grows quickly with game size.
    """
    _check_precision(r)
    n = game.n_states
    d = max(game.n_actions1, game.n_actions2) ** n
    big_n = game.denominator_lcm()
    bits = n.bit_length() + d.bit_length() + big_n.bit_length()
    return 4 * n * d * bits + r * n * d


def shallow_ladder_sign(
    game: Game,
    k: int,
    z: RationalLike,
    window: int = DEFAULT_LADDER_WINDOW,
    depth_cap: int = DEFAULT_SHALLOW_DEPTH_CAP,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> tuple[int | None, int]:
    """Heuristic ladder from depth 1: (stabilized sign or None, rungs used).

    Stops once the sign agrees on `window` consecutive rungs.  This is the
    cheap empirical probe kept for regression records; it can stabilize on
    a transient sign, so decisions use `limit_sign` instead.
    """
    game.check_state(k)
    z = to_fraction(z)
    run_sign: int | None = None
    run_length = 0
    for t in range(1, depth_cap + 1):
        s = sign(pencil_value(game, k, Fraction(1, 2**t), z, max_entries))
        if s == run_sign:
            run_length += 1
        else:
            run_sign = s
            run_length = 1
        if run_length >= window:
            return run_sign, t
    return None, depth_cap


def _checked_anchor(game: Game, r: int, cap: int) -> int:
    anchor = lambda_r_exponent(game, r)
    if anchor > cap:
        raise UndecidedSignError(
            f"guaranteed ladder anchor exponent {anchor} exceeds the cap "
            f"{cap}; raise the cap to accept the bit cost"
        )
    return anchor


def _anchor_pencils(game: Game, k: int, anchor: int, window: int, max_entries: int):
    return [
        build_pencil(game, k, Fraction(1, 2**t), max_entries)
        for t in range(anchor, anchor + window)
    ]


def _anchored_sign(pencils, anchor: int, z: Fraction) -> int:
    signs = [sign(solve_matrix_game(p.matrix_at(z)).value) for p in pencils]
    if any(s != signs[0] for s in signs):
        raise UndecidedSignError(
            f"sign at z = {z} varies across rungs {anchor}..{anchor + len(signs) - 1} "
            f"below the guaranteed anchor rate: {signs}"
        )
    return signs[0]


def _anchored_evidence(
    game: Game,
    k: int,
    z: Fraction,
    pencils,
    anchor: int,
    compare_shallow: bool,
    shallow_depth_cap: int,
    max_entries: int,
) -> SignEvidence:
    """Anchored sign at z with its evidence, plus the shallow record if asked."""
    result = _anchored_sign(pencils, anchor, z)
    window = len(pencils)
    shallow = None
    shallow_depth = None
    agrees = None
    if compare_shallow:
        shallow, shallow_depth = shallow_ladder_sign(
            game, k, z, window=window, depth_cap=shallow_depth_cap, max_entries=max_entries
        )
        agrees = (shallow == result) if shallow is not None else None
    return SignEvidence(
        sign=result,
        lambda_used=Fraction(1, 2 ** (anchor + window - 1)),
        stabilized=True,
        ladder_depth=anchor + window - 1,
        anchor_exponent=anchor,
        shallow_sign=shallow,
        shallow_depth=shallow_depth,
        shallow_agrees=agrees,
    )


def limit_sign(
    game: Game,
    k: int,
    z: RationalLike,
    r: int,
    window: int = DEFAULT_LADDER_WINDOW,
    anchor_exponent_cap: int = DEFAULT_ANCHOR_EXPONENT_CAP,
    compare_shallow: bool = False,
    shallow_depth_cap: int = DEFAULT_SHALLOW_DEPTH_CAP,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> SignEvidence:
    """Sign of the vanishing-discount criterion at target z.

    Evaluates the profile matrix-game value on ladder rungs lam = 2**-t
    starting at the guaranteed exponent t = e(game, r) - below that rate
    the sign can no longer change - and requires `window` consecutive
    rungs to agree.  A window disagreement would mean the guaranteed
    exponent is wrong for this game and raises UndecidedSignError rather
    than guessing.  With compare_shallow=True the depth-1 heuristic ladder
    is also run and recorded on the evidence.

    The game is used as given: callers working on an arbitrary reward
    scale should normalize first so z ranges over [0, 1].
    """
    game.check_state(k)
    z = to_fraction(z)
    if window < 1:
        raise GameValidationError("stabilization window must be at least 1")
    anchor = _checked_anchor(game, r, anchor_exponent_cap)
    pencils = _anchor_pencils(game, k, anchor, window, max_entries)
    return _anchored_evidence(
        game, k, z, pencils, anchor, compare_shallow, shallow_depth_cap, max_entries
    )


def limit_value(
    game: Game,
    k: int,
    r: int,
    window: int = DEFAULT_LADDER_WINDOW,
    anchor_exponent_cap: int = DEFAULT_ANCHOR_EXPONENT_CAP,
    compare_shallow: bool = False,
    shallow_depth_cap: int = DEFAULT_SHALLOW_DEPTH_CAP,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> BisectionResult:
    """Approximate the limit (vanishing-discount) value within 2**-r."""
    game.check_state(k)
    _check_precision(r)
    if window < 1:
        raise GameValidationError("stabilization window must be at least 1")
    ngame, scale, offset, r_eff = _normalized(game, r)
    # the anchor depends only on the game and grid level, so the rung
    # pencils are shared by every bisection probe
    anchor = _checked_anchor(ngame, r_eff, anchor_exponent_cap)
    pencils = _anchor_pencils(ngame, k, anchor, window, max_entries)
    evidence: list[SignEvidence] = []

    def sign_at(z: Fraction) -> int:
        ev = _anchored_evidence(
            ngame, k, z, pencils, anchor, compare_shallow, shallow_depth_cap, max_entries
        )
        evidence.append(ev)
        return ev.sign

    result = _bisect(sign_at, r_eff, scale, offset)
    return replace(result, evidence=tuple(evidence))
