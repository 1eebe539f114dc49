"""The workloads: what each solves, how its inputs are made, how it is checked.

A workload turns a seed into a pass of CLI calls ("solves").  Its
random games come from a pool per game class (states, actions, absorbing
or not), generated here from fixed seeds; per-game flags such as the
`--seed` of `check` are drawn from the game's own fixed seed too.  A pass
solves every fixture and every pool game once, in an order drawn from the
run's seed.  The closed loop in run.py repeats the pass and stops only at
the end of one, so every run, whatever the seed and whatever the
program's speed, solves the same games the same number of times.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from gamegen import GenGame, random_game

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Solve:
    """One CLI call: argv for stochgame.cli.main plus what the gate needs."""

    argv: tuple[str, ...]
    key: str  # fixture name, or the generated game's key
    shape: tuple[int, int, int]  # states, actions1, actions2
    absorbing: bool  # every state but state 1 is absorbing
    sha256: str = ""  # of the generated game file; "" for fixtures

    @property
    def profile_entries(self) -> int:
        n, a1, a2 = self.shape
        return a1**n * a2**n


@dataclass
class GateContext:
    """Lazily loaded, per-run references for the correctness gate."""

    reference: dict | None = None


def _write(workdir: Path, key: str, game: GenGame) -> tuple[str, str]:
    text = game.to_text()
    path = workdir / f"{key}.game"
    path.write_text(text, encoding="utf-8")
    return str(path), hashlib.sha256(text.encode()).hexdigest()


def _fixture_info(mods: dict, name: str) -> tuple[tuple[int, int, int], bool]:
    game = mods["gamefile"].load_fixture(name).game
    shape = (game.n_states, game.n_actions1, game.n_actions2)
    return shape, mods["absorbing"].is_absorbing(game)


def _enclosure(payload: dict) -> tuple[Fraction, Fraction]:
    value, radius = Fraction(payload["value"]), Fraction(payload["radius"])
    return value - radius, value + radius


class Workload:
    name = ""
    why = ""
    command = ""  # the CLI subcommand
    argv_tail: tuple[str, ...] = ()  # the flags after FILE
    fixtures: tuple[str, ...] = ()
    classes: tuple[tuple[int, int, int, bool], ...] = ()  # states, actions1, actions2, absorbing
    pool = 1  # games per class
    precision = 0

    def extra_argv(self, rng: random.Random) -> tuple[str, ...]:
        """Per-game flags drawn from the game's fixed seed; none unless a workload needs them."""
        return ()

    def pool_solve(self, cls, index: int, workdir: Path) -> Solve:
        """Write pool game `index` of class `cls`; the same game for every seed."""
        n, a1, a2, absorbing = cls
        key = f"{n}x{a1}x{a2}" + ("-abs" if absorbing else "") + f"-{index:02d}"
        rng = random.Random(f"{self.name}:pool:{key}")
        game = random_game(rng, n, a1, a2, absorbing, key)
        path, sha = _write(workdir, key, game)
        argv = (self.command, path, *self.argv_tail, *self.extra_argv(rng))
        return Solve(argv, key, (n, a1, a2), absorbing, sha)

    def fixture_solve(self, name: str, mods: dict) -> Solve:
        shape, absorbing = _fixture_info(mods, name)
        rng = random.Random(f"{self.name}:fixture:{name}")
        return Solve((self.command, name, *self.argv_tail, *self.extra_argv(rng)),
                     name, shape, absorbing)

    def build(self, seed: int, workdir: Path, mods: dict) -> list[Solve]:
        """One pass: every fixture and every pool game once, in a seeded order."""
        solves = [self.fixture_solve(name, mods) for name in self.fixtures]
        solves += [self.pool_solve(cls, i, workdir)
                   for cls in self.classes for i in range(self.pool)]
        random.Random(f"{self.name}:{seed}").shuffle(solves)
        return solves

    def gate(self, solve: Solve, payload: dict, ctx: GateContext) -> str | None:
        """None if the payload of a successful call is correct, else why not."""
        raise NotImplementedError

    def check(self, solve: Solve, code: int | None, stdout: str, ctx: GateContext) -> str | None:
        """None if the call succeeded and its output is correct, else why not."""
        if code != 0:
            return f"exit code {code}"
        try:
            return self.gate(solve, json.loads(stdout), ctx)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"malformed output: {exc!r}"

    def _radius_ok(self, payload: dict) -> str | None:
        radius = Fraction(payload["radius"])
        if not 0 <= radius <= Fraction(1, 2**self.precision):
            return f"radius {radius} above 2^-{self.precision}"
        return None


class LimitAnchored(Workload):
    name = "limit-anchored"
    why = ("limit value by anchored-ladder bisection: 3 rungs per probe at "
           "lam = 2^-t with t from 20 to about 1600, entries of up to about "
           "3000 bits, and many tiny solves that expose per-call overhead")
    command = "value"
    precision = 8
    argv_tail = ("--precision", str(precision), "--json")
    fixtures = ("two_state_2x2", "mdp_two_state", "big_match", "absorbing_mix")
    # 1-state games with 1..3 actions per player, and 2-state games whose
    # profile matrix has at most 16 entries, both general and absorbing
    classes = tuple(
        [(1, a1, a2, False) for a1 in (1, 2, 3) for a2 in (1, 2, 3)]
        + [(2, a1, a2, ab) for a1 in (1, 2, 3) for a2 in (1, 2, 3)
           if a1 * a2 <= 4 for ab in (False, True)]
    )
    pool = 8
    reference_path = HERE / "reference" / "limit-anchored.json"

    def gate(self, solve, payload, ctx):
        bad = self._radius_ok(payload)
        if bad:
            return bad
        if ctx.reference is None:
            ctx.reference = json.loads(self.reference_path.read_text(encoding="utf-8"))["games"]
        ref = ctx.reference.get(solve.key)
        if ref is None:
            return f"no reference enclosure for {solve.key}"
        if ref["sha256"] != solve.sha256:
            return f"{solve.key} differs from the game its reference was recorded for"
        lo, hi = _enclosure(payload)
        rlo, rhi = _enclosure(ref)
        if hi < rlo or rhi < lo:
            return f"enclosure [{lo}, {hi}] misses the reference [{rlo}, {rhi}]"
        return None


class Certify(Workload):
    name = "certify"
    why = ("the per-game invariant suite: pencil construction (direct and "
           "Kronecker), determinants, value iteration and the Kohlberg identity, "
           "with hundreds of small simplex calls")
    command = "check"
    argv_tail = ("--json",)
    fixtures = ("absorbing_mix", "big_match", "three_state_2x2", "two_state_3x3")
    # 17 of the 44 games take well under the median, the rest spread evenly
    # around it, so no gap in the solve times sits at the median; 44 games
    # put the tail at p75 with 11 games beyond it
    classes = ((2, 2, 2, True), (2, 2, 3, False), (2, 3, 3, False),
               (3, 2, 2, False), (3, 2, 2, True))
    pool = 8

    def extra_argv(self, rng):
        return ("--seed", str(rng.randrange(2**31)))

    def gate(self, solve, payload, ctx):
        failed = [o["name"] for o in payload.get("outcomes", ()) if not o["passed"]]
        if failed or payload.get("passed") is not True or not payload.get("outcomes"):
            return f"invariant checks failed: {failed}"
        return None


WORKLOADS = {w.name: w for w in (LimitAnchored(), Certify())}


def make_up(solves: list[Solve], payloads: list[dict | None]) -> dict:
    """What the attempted solves were made of, for reports that target a property."""
    shapes: dict[str, int] = {}
    for s in solves:
        label = "{}x{}x{}".format(*s.shape)
        shapes[label] = shapes.get(label, 0) + 1
    entries = [s.profile_entries for s in solves]
    anchors = [p["anchor_exponents"][0] for p in payloads
               if p and p.get("anchor_exponents")]
    out = {
        "solves": len(solves),
        "distinct_games": len({s.key for s in solves}),
        "fixture_share": sum(1 for s in solves if not s.sha256) / len(solves),
        "shapes_states_x_actions1_x_actions2": dict(sorted(shapes.items())),
        "profile_entries": {"min": min(entries), "median": statistics.median(entries),
                            "max": max(entries)},
        "absorbing_share": sum(1 for s in solves if s.absorbing) / len(solves),
    }
    if anchors:
        out["anchor_exponents"] = {"min": min(anchors), "median": statistics.median(anchors),
                                   "max": max(anchors)}
    return out
