"""Line-oriented text format for stochastic games.

Every line is `key value...`, split on any whitespace, with 1-based
indices and counts in ASCII digits and rationals written as "p/q" or "p"
(never binary floating point), e.g.:

    label my game
    states 2
    actions1 2
    actions2 2
    initial_state 1
    reward 1 1 1 1/2
    transition 1 1 1 2 1
    ...

Full-line comments start with '#'.  Every (state, i, j) reward and every
(state, i, j, target) transition entry must be present explicitly; there
are no defaults.  Parse errors carry the offending line number.

The parser is the one validation of a document: its checks cover every
invariant of `gamecore.Game`, and it builds the game and its integer form
once, without `Game.__init__` checking the data again.  Each distinct
index and rational token of a document is parsed once.  Numbers may be
longer than Python's int/str digit limit; transition rows are summed on
integers over the row's least common denominator.  The bundled example
games sit in `FIXTURES`, the `fixtures` directory beside these modules.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import IO, NamedTuple, Union

from .errors import GameFileError
from .gamecore import Game, _checked_game
from .ratlinalg import int_of_digits, int_text, parse_rational, rational_text

Source = Union[str, Path, IO[str]]
FIXTURES = Path(__file__).with_name("fixtures")


class GameFile(NamedTuple):
    """A parsed game document: the game plus optional metadata, as a named tuple."""

    game: Game
    initial_state: int | None = None
    label: str | None = None


def _read_text(source: Source) -> str:
    if hasattr(source, "read"):
        return source.read()
    try:
        return Path(source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        why = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text ({exc.reason})"
        raise GameFileError(f"cannot read game file {source}: {why}") from exc


def _parse_count(token: str, what: str, line_no: int) -> int:
    """A count or index written in ASCII digits only (no sign, no underscore)."""
    if not (token.isascii() and token.isdigit()):
        raise GameFileError(f"{what} must be digits 0-9, got {token!r}", line_no)
    return int_of_digits(token)


def _parse_index(token: str, upper: int, what: str, line_no: int) -> int:
    value = _parse_count(token, what, line_no)
    if not 1 <= value <= upper:
        raise GameFileError(
            f"{what} {int_text(value)} out of range 1..{int_text(upper)}", line_no
        )
    return value


def _index(memo: dict[str, int], token: str, upper: int, what: str, line_no: int) -> int:
    """`_parse_index` once per distinct token; `memo` holds one bound's tokens."""
    value = memo.get(token)
    if value is None:
        value = memo[token] = _parse_index(token, upper, what, line_no)
    return value


def _rational(memo: dict[str, Fraction], token: str, line_no: int) -> Fraction:
    """`parse_rational` once per distinct token of a document."""
    value = memo.get(token)
    if value is None:
        try:
            value = memo[token] = parse_rational(token)
        except ValueError as exc:
            raise GameFileError(str(exc), line_no)
    return value


def parse_game(source: Source) -> GameFile:
    """Parse and fully validate a game document from a path or stream.

    The checks here cover every invariant of `Game`, so the game is built
    without a second validation.
    """
    text = _read_text(source)
    header: dict[str, int] = {}
    label: str | None = None
    initial_state: int | None = None
    reward_entries: dict[tuple[int, int, int], Fraction] = {}
    transition_entries: dict[tuple[int, int, int, int], Fraction] = {}
    body: list[tuple[int, str, list[str]]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *tokens = line.split()
        if key == "label":
            if label is not None:
                raise GameFileError("duplicate label", line_no)
            if not tokens:
                raise GameFileError("label needs a value", line_no)
            label = line[len(key) :].strip()
            continue
        if key in ("states", "actions1", "actions2"):
            if key in header:
                raise GameFileError(f"duplicate {key}", line_no)
            if len(tokens) != 1:
                raise GameFileError(f"{key} takes exactly one value", line_no)
            count = _parse_count(tokens[0], key, line_no)
            if count < 1:
                raise GameFileError(f"{key} must be at least 1, got {count}", line_no)
            header[key] = count
        elif key in ("initial_state", "reward", "transition"):
            body.append((line_no, key, tokens))
        else:
            raise GameFileError(f"unknown key {key!r}", line_no)

    for field in ("states", "actions1", "actions2"):
        if field not in header:
            raise GameFileError(f"missing {field} declaration")
    n, n_i, n_j = header["states"], header["actions1"], header["actions2"]

    # each distinct token is parsed once: indices per upper bound, rationals
    states: dict[str, int] = {}
    actions1: dict[str, int] = {}
    actions2: dict[str, int] = {}
    rationals: dict[str, Fraction] = {}
    for line_no, key, tokens in body:
        if key == "initial_state":
            if initial_state is not None:
                raise GameFileError("duplicate initial_state", line_no)
            if len(tokens) != 1:
                raise GameFileError("initial_state takes exactly one value", line_no)
            initial_state = _index(states, tokens[0], n, "initial_state", line_no)
        elif key == "reward":
            if len(tokens) != 4:
                raise GameFileError(
                    "reward takes: state i j value", line_no
                )
            s = _index(states, tokens[0], n, "reward state", line_no)
            i = _index(actions1, tokens[1], n_i, "reward action i", line_no)
            j = _index(actions2, tokens[2], n_j, "reward action j", line_no)
            value = _rational(rationals, tokens[3], line_no)
            if (s, i, j) in reward_entries:
                raise GameFileError(f"duplicate reward for (state {s}, i {i}, j {j})", line_no)
            reward_entries[(s, i, j)] = value
        else:  # transition
            if len(tokens) != 5:
                raise GameFileError(
                    "transition takes: state i j target probability", line_no
                )
            s = _index(states, tokens[0], n, "transition state", line_no)
            i = _index(actions1, tokens[1], n_i, "transition action i", line_no)
            j = _index(actions2, tokens[2], n_j, "transition action j", line_no)
            t = _index(states, tokens[3], n, "transition target", line_no)
            prob = _rational(rationals, tokens[4], line_no)
            if prob.numerator < 0:
                raise GameFileError(
                    f"negative transition probability {rational_text(prob)}", line_no
                )
            if (s, i, j, t) in transition_entries:
                raise GameFileError(
                    f"duplicate transition for (state {s}, i {i}, j {j}, target {t})",
                    line_no,
                )
            transition_entries[(s, i, j, t)] = prob

    rewards = []
    transitions = []
    for s in range(1, n + 1):
        state_rewards = []
        state_transitions = []
        for i in range(1, n_i + 1):
            row_rewards = []
            row_transitions = []
            for j in range(1, n_j + 1):
                if (s, i, j) not in reward_entries:
                    raise GameFileError(f"missing reward for (state {s}, i {i}, j {j})")
                row_rewards.append(reward_entries[(s, i, j)])
                dist = []
                for t in range(1, n + 1):
                    if (s, i, j, t) not in transition_entries:
                        raise GameFileError(
                            f"missing transition for (state {s}, i {i}, j {j}, target {t})"
                        )
                    dist.append(transition_entries[(s, i, j, t)])
                # the sum on integers over the row's lcm; a Fraction only to report it
                den = math.lcm(*[p.denominator for p in dist])
                if sum(den // p.denominator * p.numerator for p in dist) != den:
                    raise GameFileError(
                        f"transition row at (state {s}, i {i}, j {j}) sums to "
                        f"{rational_text(sum(dist))}, expected exactly 1"
                    )
                row_transitions.append(tuple(dist))
            state_rewards.append(tuple(row_rewards))
            state_transitions.append(tuple(row_transitions))
        rewards.append(tuple(state_rewards))
        transitions.append(tuple(state_transitions))
    return GameFile(
        game=_checked_game(tuple(rewards), tuple(transitions)),
        initial_state=initial_state,
        label=label,
    )


def serialize_game(doc: GameFile) -> str:
    """Render a document that parses back to an identical game, numbers of any length."""
    game = doc.game
    lines: list[str] = []
    if doc.label is not None:
        lines.append(f"label {doc.label}")
    lines.append(f"states {game.n_states}")
    lines.append(f"actions1 {game.n_actions1}")
    lines.append(f"actions2 {game.n_actions2}")
    if doc.initial_state is not None:
        lines.append(f"initial_state {doc.initial_state}")
    for s in range(game.n_states):
        for i in range(game.n_actions1):
            for j in range(game.n_actions2):
                lines.append(f"reward {s + 1} {i + 1} {j + 1} {rational_text(game.rewards[s][i][j])}")
    for s in range(game.n_states):
        for i in range(game.n_actions1):
            for j in range(game.n_actions2):
                for t in range(game.n_states):
                    lines.append(
                        f"transition {s + 1} {i + 1} {j + 1} {t + 1} "
                        f"{rational_text(game.transitions[s][i][j][t])}"
                    )
    return "\n".join(lines) + "\n"


def fixture_path(name: str) -> Path:
    """Path of a bundled example game (with or without the .game suffix)."""
    if not name.endswith(".game"):
        name += ".game"
    return FIXTURES / name


def list_fixtures() -> list[str]:
    return sorted(p.stem for p in FIXTURES.glob("*.game"))


def load_fixture(name: str) -> GameFile:
    return parse_game(fixture_path(name))
