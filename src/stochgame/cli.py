"""Command-line interface.

Subcommands: `discounted` (discounted value by bisection), `value`
(vanishing-discount value by bisection over ladder signs), `oracle`
(fixed-point value iteration), `check` (per-game invariant suite) and
`info` (document summary).  Exit codes: 0 success, 1 failed checks,
2 validation error, 3 resource cap exceeded, 4 undecided ladder sign.

The FILE argument is a path; a bare name matching a bundled fixture
(see `stochgame info --list-fixtures`) is also accepted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .absorbing import is_absorbing
from .checks import run_invariant_checks
from .errors import GameValidationError, ResourceCapError, UndecidedSignError
from .gamefile import GameFile, fixture_path, list_fixtures, parse_game
from .oracle import shapley_operator, value_iteration
from .pencil import DEFAULT_MAX_ENTRIES
from .ratlinalg import format_decimal, parse_rational
from .solver import (
    DEFAULT_ANCHOR_EXPONENT_CAP,
    BisectionResult,
    discounted_value,
    limit_value,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE_CAP = 3
EXIT_UNDECIDED = 4


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
        "value": str(result.value_estimate),
        "decimal": format_decimal(result.value_estimate, digits),
        "radius": str(result.radius),
        "iterations": result.iterations,
        "trace": [[str(z), s] for z, s in result.trace],
        "scale": str(result.scale),
        "offset": str(result.offset),
    }


def _print_result(
    title: str, result: BisectionResult, digits: int, elapsed: float, show_trace: bool
) -> None:
    print(title)
    print(f"  value     {result.value_estimate}  (~ {format_decimal(result.value_estimate, digits)})")
    print(f"  radius    {result.radius}")
    print(f"  iterations {result.iterations}")
    print(f"  elapsed   {elapsed:.3f}s")
    if show_trace:
        print("  trace (normalized z, sign):")
        for z, s in result.trace:
            print(f"    {z}  {s:+d}")


def _cmd_discounted(args) -> int:
    doc = _load(args.file)
    k = _resolve_state(doc, args.state)
    lam = parse_rational(args.lam)
    start = time.perf_counter()
    result = discounted_value(doc.game, k, lam, args.precision, max_entries=args.max_entries)
    elapsed = time.perf_counter() - start
    if args.json:
        payload = _result_dict(result, args.digits)
        payload.update({"command": "discounted", "state": k, "lambda": str(lam),
                        "precision": args.precision, "elapsed_s": elapsed})
        print(json.dumps(payload))
    else:
        _print_result(
            f"discounted value from state {k} at lambda = {lam} (precision 2^-{args.precision})",
            result, args.digits, elapsed, args.trace,
        )
    return EXIT_OK


def _cmd_value(args) -> int:
    doc = _load(args.file)
    k = _resolve_state(doc, args.state)
    start = time.perf_counter()
    result = limit_value(
        doc.game,
        k,
        args.precision,
        anchor_exponent_cap=args.anchor_cap,
        compare_shallow=args.compare_shallow,
        max_entries=args.max_entries,
    )
    elapsed = time.perf_counter() - start
    disagreements = [
        (str(z), ev.shallow_sign)
        for (z, _), ev in zip(result.trace, result.evidence or ())
        if ev.shallow_agrees is False
    ]
    if args.json:
        payload = _result_dict(result, args.digits)
        payload.update({
            "command": "value",
            "state": k,
            "precision": args.precision,
            "elapsed_s": elapsed,
            "anchor_exponents": [ev.anchor_exponent for ev in result.evidence or ()],
            "shallow_ladder_disagreements": disagreements,
        })
        print(json.dumps(payload))
    else:
        _print_result(
            f"limit value from state {k} (precision 2^-{args.precision})",
            result, args.digits, elapsed, args.trace,
        )
        if disagreements:
            print(f"  note: the depth-1 heuristic ladder disagreed at z in {disagreements}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    doc = _load(args.file)
    lam = parse_rational(args.lam)
    tol = parse_rational(args.tol)
    start = time.perf_counter()
    values = value_iteration(doc.game, lam, tol)
    elapsed = time.perf_counter() - start
    exact = shapley_operator(doc.game, lam, values) == values
    if args.json:
        print(json.dumps({
            "command": "oracle",
            "lambda": str(lam),
            "tol": str(tol),
            "values": [str(v) for v in values],
            "decimals": [format_decimal(v, args.digits) for v in values],
            "exact_fixed_point": exact,
            "elapsed_s": elapsed,
        }))
    else:
        print(f"value-iteration oracle at lambda = {lam} (tolerance {tol})")
        for l, v in enumerate(values, start=1):
            print(f"  state {l}: {v}  (~ {format_decimal(v, args.digits)})")
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
        print(json.dumps({
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
        "reward_min": str(game.min_reward()),
        "reward_max": str(game.max_reward()),
        "denominator_lcm": game.denominator_lcm(),
        "profile_matrix_entries": profile_entries,
        "absorbing": is_absorbing(game),
    }
    if args.json:
        print(json.dumps(info))
    else:
        for key, value in info.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, with_state: bool = True) -> None:
    parser.add_argument("file", metavar="FILE", help="game document path or fixture name")
    if with_state:
        parser.add_argument(
            "--state", type=int, default=None,
            help="initial state (1-based; default: document's initial_state, else 1)",
        )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--digits", type=_nonnegative_int, default=12, help="decimal digits shown (>= 0)"
    )
    parser.add_argument(
        "--max-entries", type=int, default=DEFAULT_MAX_ENTRIES,
        help="cap on profile-matrix entries before refusing to build",
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
    p.add_argument("--lambda", dest="lam", required=True, metavar="P/Q",
                   help="discount rate in (0, 1], e.g. 1/4")
    p.add_argument("--precision", type=int, default=20, metavar="R",
                   help="approximation radius 2^-R (default 20)")
    p.add_argument("--trace", action="store_true", help="print the bisection trace")
    p.set_defaults(func=_cmd_discounted)

    p = sub.add_parser("value", help="vanishing-discount value by exact bisection")
    _add_common(p)
    p.add_argument("--precision", type=int, default=20, metavar="R")
    p.add_argument("--anchor-cap", type=int, default=DEFAULT_ANCHOR_EXPONENT_CAP,
                   help="cap on the guaranteed ladder anchor exponent")
    p.add_argument("--compare-shallow", action="store_true",
                   help="also run the depth-1 heuristic ladder and report disagreements")
    p.add_argument("--trace", action="store_true", help="print the bisection trace")
    p.set_defaults(func=_cmd_value)

    p = sub.add_parser("oracle", help="value iteration to a certified tolerance")
    _add_common(p, with_state=False)
    p.add_argument("--lambda", dest="lam", required=True, metavar="P/Q")
    p.add_argument("--tol", default="1/1048576", metavar="P/Q",
                   help="sup-norm tolerance (default 1/2^20)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check", help="run the per-game invariant suite")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("info", help="summarize a game document")
    p.add_argument("file", metavar="FILE", nargs="?", default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--list-fixtures", action="store_true", help="list bundled fixtures")
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GameValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: raise --max-entries or shrink the game", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except UndecidedSignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: raise --anchor-cap", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
