"""Command-line interface.

Subcommands: `discounted` (discounted value by bisection), `value`
(vanishing-discount value by bisection over exact signs as lam -> 0+),
`oracle` (fixed-point value iteration), `check` (per-game invariant
suite) and `info` (document summary).  Exit codes: 0 success, 1 failed
checks, 2 validation error, 3 resource cap exceeded.

The FILE argument is a path; a bare name matching a bundled fixture
(see `stochgame info --list-fixtures`) is also accepted.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .absorbing import is_absorbing
from .checks import run_invariant_checks
from .errors import GameValidationError, ResourceCapError
from .gamefile import GameFile, fixture_path, list_fixtures, parse_game
from .oracle import shapley_operator, value_iteration
from .pencil import DEFAULT_MAX_ENTRIES
from .ratlinalg import format_decimal, int_of_digits, int_text, parse_rational, rational_text
from .solver import BisectionResult, discounted_value, limit_value

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE_CAP = 3

# the most decimal digits `--digits` takes: `format_decimal` works on 10**digits
# and renders every digit, about 0.1 s for 100,000 digits and 12 s for 1,000,000
MAX_DIGITS = 100_000


def _load(file_arg: str) -> GameFile:
    path = Path(file_arg)
    if not path.exists():
        candidate = fixture_path(file_arg)
        if candidate.exists():
            path = candidate
        else:
            raise GameValidationError(f"no such game file or fixture: {file_arg}")
    return parse_game(path)


def _resolve_state(doc: GameFile, requested: int | None) -> int:
    if requested is not None:
        return requested
    return doc.initial_state if doc.initial_state is not None else 1


def _result_dict(result: BisectionResult, digits: int) -> dict:
    return {
        "value": rational_text(result.value_estimate),
        "decimal": format_decimal(result.value_estimate, digits),
        "radius": rational_text(result.radius),
        "iterations": result.iterations,
        "trace": [[rational_text(z), s] for z, s in result.trace],
        "scale": rational_text(result.scale),
        "offset": rational_text(result.offset),
    }


def _print_result(
    title: str, result: BisectionResult, digits: int, elapsed: float, show_trace: bool
) -> None:
    print(title)
    value = result.value_estimate
    print(f"  value     {rational_text(value)}  (~ {format_decimal(value, digits)})")
    print(f"  radius    {rational_text(result.radius)}")
    print(f"  iterations {result.iterations}")
    print(f"  elapsed   {elapsed:.3f}s")
    if show_trace:
        print("  trace (normalized z, sign):")
        for z, s in result.trace:
            print(f"    {rational_text(z)}  {s:+d}")


def _cmd_bisection(args) -> int:
    doc = _load(args.file)
    k = _resolve_state(doc, args.state)
    discounted = hasattr(args, "lam")
    start = time.perf_counter()
    if discounted:
        result = discounted_value(
            doc.game, k, args.lam, args.precision, max_entries=args.max_entries
        )
    else:
        result = limit_value(doc.game, k, args.precision, max_entries=args.max_entries)
    elapsed = time.perf_counter() - start
    if args.json:
        payload = _result_dict(result, args.digits)
        payload.update({"command": args.command, "state": k})
        if discounted:
            payload["lambda"] = rational_text(args.lam)
        payload.update({"precision": args.precision, "elapsed_s": elapsed})
        print(_json_object(payload))
    else:
        at = f"at lambda = {rational_text(args.lam)} " if discounted else ""
        _print_result(
            f"{'discounted' if discounted else 'limit'} value from state {k} {at}"
            f"(precision 2^-{int_text(args.precision)})",
            result, args.digits, elapsed, args.trace,
        )
    return EXIT_OK


def _cmd_oracle(args) -> int:
    doc = _load(args.file)
    lam, tol = args.lam, args.tol
    start = time.perf_counter()
    values = value_iteration(doc.game, lam, tol)
    elapsed = time.perf_counter() - start
    exact = values.polished or shapley_operator(doc.game, lam, values) == values
    if args.json:
        print(_json_object({
            "command": "oracle",
            "lambda": rational_text(lam),
            "tol": rational_text(tol),
            "values": [rational_text(v) for v in values],
            "decimals": [format_decimal(v, args.digits) for v in values],
            "exact_fixed_point": exact,
            "elapsed_s": elapsed,
        }))
    else:
        print(f"value-iteration oracle at lambda = {rational_text(lam)} "
              f"(tolerance {rational_text(tol)})")
        for l, v in enumerate(values, start=1):
            print(f"  state {l}: {rational_text(v)}  (~ {format_decimal(v, args.digits)})")
        print(f"  exact fixed point: {'yes' if exact else 'no'}")
        print(f"  elapsed   {elapsed:.3f}s")
    return EXIT_OK


def _cmd_check(args) -> int:
    doc = _load(args.file)
    k = _resolve_state(doc, args.state)
    start = time.perf_counter()
    outcomes = run_invariant_checks(doc.game, k, seed=args.seed, max_entries=args.max_entries)
    elapsed = time.perf_counter() - start
    all_passed = all(o.passed for o in outcomes)
    if args.json:
        print(_json_object({
            "command": "check",
            "state": k,
            "seed": args.seed,
            "passed": all_passed,
            "outcomes": [
                {"name": o.name, "passed": o.passed, "detail": o.detail} for o in outcomes
            ],
            "elapsed_s": elapsed,
        }))
    else:
        for o in outcomes:
            status = "PASS" if o.passed else "FAIL"
            suffix = f"  ({o.detail})" if o.detail else ""
            print(f"{status}  {o.name}{suffix}")
        print(f"elapsed {elapsed:.3f}s")
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _cmd_info(args) -> int:
    if args.list_fixtures:
        for name in list_fixtures():
            print(name)
        return EXIT_OK
    if args.file is None:
        raise GameValidationError("info needs a FILE (or --list-fixtures)")
    doc = _load(args.file)
    game = doc.game
    profile_entries = game.n_actions1**game.n_states * game.n_actions2**game.n_states
    info = {
        "label": doc.label,
        "states": game.n_states,
        "actions1": game.n_actions1,
        "actions2": game.n_actions2,
        "initial_state": doc.initial_state,
        "reward_min": rational_text(game.min_reward()),
        "reward_max": rational_text(game.max_reward()),
        "denominator_lcm": game.denominator_lcm(),
        "profile_matrix_entries": profile_entries,
        "absorbing": is_absorbing(game),
    }
    if args.json:
        print(_json_object(info))
    else:
        for key, value in info.items():
            print(f"{key}: {int_text(value) if type(value) is int else value}")
    return EXIT_OK


def _json_object(fields: dict) -> str:
    """json.dumps(fields), with top-level ints of any length as JSON numbers.

    json.dumps and str() refuse ints above Python's int/str digit limit.
    """
    return "{" + ", ".join(
        f"{json.dumps(key)}: {int_text(value) if type(value) is int else json.dumps(value)}"
        for key, value in fields.items()
    ) + "}"


_INTEGER_RE = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """An integer in ASCII digits 0-9 with an optional leading '-' (no '+', '_' or spaces)."""
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer in digits 0-9, got {text!r}")
    return int_of_digits(text)


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {int_text(value)}")
        return value

    return parse


_nonnegative_int = _int_at_least(0, "nonnegative")
_positive_int = _int_at_least(1, "positive")


def _digit_count(text: str) -> int:
    value = _nonnegative_int(text)
    if value > MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"must be at most MAX_DIGITS = {MAX_DIGITS}, got {int_text(value)}"
        )
    return value


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(parser: argparse.ArgumentParser, profile_solver: bool = True) -> None:
    """FILE, --json and --digits; --state and --max-entries for profile-matrix solvers."""
    parser.add_argument("file", metavar="FILE", help="game document path or fixture name")
    if profile_solver:
        parser.add_argument(
            "--state", type=_positive_int, default=None,
            help="initial state (1-based; default: document's initial_state, else 1)",
        )
        parser.add_argument(
            "--max-entries", type=_positive_int, default=DEFAULT_MAX_ENTRIES,
            help="cap on profile-matrix entries before refusing to build",
        )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--digits", type=_digit_count, default=12,
        help=f"decimal digits shown (0 to {MAX_DIGITS})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochgame",
        description="Exact solver for zero-sum stochastic game values.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("discounted", help="discounted value by exact bisection")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=_rational, required=True, metavar="P/Q",
                   help="discount rate in (0, 1], e.g. 1/4")
    p.add_argument("--precision", type=_nonnegative_int, default=20, metavar="R",
                   help="approximation radius 2^-R (default 20)")
    p.add_argument("--trace", action="store_true", help="print the bisection trace")
    p.set_defaults(func=_cmd_bisection)

    p = sub.add_parser("value", help="vanishing-discount value by exact bisection")
    _add_common(p)
    p.add_argument("--precision", type=_nonnegative_int, default=20, metavar="R")
    p.add_argument("--trace", action="store_true", help="print the bisection trace")
    p.set_defaults(func=_cmd_bisection)

    p = sub.add_parser("oracle", help="value iteration to a certified tolerance")
    _add_common(p, profile_solver=False)
    p.add_argument("--lambda", dest="lam", type=_rational, required=True, metavar="P/Q")
    p.add_argument("--tol", type=_rational, default="1/1048576", metavar="P/Q",
                   help="sup-norm tolerance (default 1/2^20)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check", help="run the per-game invariant suite")
    _add_common(p)
    p.add_argument("--seed", type=_integer, default=0, help="sampling seed")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("info", help="summarize a game document")
    p.add_argument("file", metavar="FILE", nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--list-fixtures", action="store_true", help="list bundled fixtures")
    p.set_defaults(func=_cmd_info)

    return parser


# one parser per process: building its five subparsers costs about 1 ms, which
# every in-process call of `main` would pay again; parsing does not change it
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except GameValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: raise --max-entries or shrink the game", file=sys.stderr)
        return EXIT_RESOURCE_CAP


if __name__ == "__main__":
    sys.exit(main())
