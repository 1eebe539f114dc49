import io
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from stochgame.cli import main
from stochgame.errors import GameFileError
from stochgame.gamecore import Game
from stochgame.gamefile import (
    GameFile,
    fixture_path,
    list_fixtures,
    load_fixture,
    parse_game,
    serialize_game,
)

from conftest import ALL_FIXTURES
from gens import rand_absorbing_game, rand_game

DATA = Path(__file__).parent / "data"

MINIMAL = """
states 1
actions1 1
actions2 1
reward 1 1 1 2/3
transition 1 1 1 1 1
"""


def parse_text(text: str) -> GameFile:
    return parse_game(io.StringIO(text))


class TestParsing:
    def test_minimal_document(self):
        doc = parse_text(MINIMAL)
        game = doc.game
        assert (game.n_states, game.n_actions1, game.n_actions2) == (1, 1, 1)
        assert game.rewards[0][0][0] == Fraction(2, 3)
        assert doc.initial_state is None and doc.label is None

    def test_big_match_fixture_parses(self):
        doc = load_fixture("big_match")
        assert doc.game.n_states == 3
        assert doc.initial_state == 1
        assert doc.label == "big match"

    def test_row_sum_violation_reports_row(self):
        text = MINIMAL.replace("transition 1 1 1 1 1", "transition 1 1 1 1 99/100")
        with pytest.raises(GameFileError, match=r"state 1, i 1, j 1.*99/100"):
            parse_text(text)

    def test_missing_reward(self):
        text = "\n".join(
            line for line in MINIMAL.splitlines() if not line.startswith("reward")
        )
        with pytest.raises(GameFileError, match="missing reward"):
            parse_text(text)

    def test_missing_transition(self):
        text = "\n".join(
            line for line in MINIMAL.splitlines() if not line.startswith("transition")
        )
        with pytest.raises(GameFileError, match="missing transition"):
            parse_text(text)

    def test_duplicate_entry(self):
        text = MINIMAL + "reward 1 1 1 1/2\n"
        with pytest.raises(GameFileError, match="duplicate reward"):
            parse_text(text)

    def test_malformed_rational_with_line_number(self):
        text = MINIMAL.replace("reward 1 1 1 2/3", "reward 1 1 1 0.5")
        with pytest.raises(GameFileError, match=r"line 5.*malformed rational"):
            parse_text(text)

    def test_unknown_key(self):
        with pytest.raises(GameFileError, match="unknown key"):
            parse_text(MINIMAL + "frobnicate 1\n")

    def test_index_out_of_range(self):
        with pytest.raises(GameFileError, match="out of range"):
            parse_text(MINIMAL + "transition 2 1 1 1 1\n")

    def test_missing_header(self):
        text = "\n".join(line for line in MINIMAL.splitlines() if "states" not in line)
        with pytest.raises(GameFileError, match="missing states"):
            parse_text(text)

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_text("# a comment\n\n" + MINIMAL + "\n# trailing\n")
        assert doc.game.n_states == 1

    def test_any_whitespace_separates_fields(self):
        text = MINIMAL.replace("reward 1 1 1", "reward\t1 1\t1").replace("states 1", "states\t 1")
        assert parse_text("label\tmy game\n" + text) == parse_text("label my game\n" + MINIMAL)

    def test_negative_probability_rejected(self):
        text = MINIMAL.replace(
            "transition 1 1 1 1 1", "transition 1 1 1 1 -1"
        )
        with pytest.raises(GameFileError, match="negative"):
            parse_text(text)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_serialize_parse_identity(self, name, fixture_docs):
        doc = fixture_docs[name]
        text = serialize_game(doc)
        again = parse_text(text)
        assert again.game == doc.game
        assert again.initial_state == doc.initial_state
        assert again.label == doc.label

    def test_long_numbers_round_trip(self):
        # past Python's int/str digit limit, where str(Fraction) raises
        game = Game([[[Fraction(1, 10**5000 + 1)]]], [[[[1]]]])
        again = parse_text(serialize_game(GameFile(game, label="long")))
        assert again.game == game and again.label == "long"

    def test_fixture_listing(self):
        names = list_fixtures()
        assert set(ALL_FIXTURES) <= set(names)
        assert fixture_path("big_match").exists()


RELOCATED_PROBE = """
import stochgame
print(stochgame.__file__)
print(",".join(stochgame.list_fixtures()))
print(stochgame.load_fixture("big_match").game)
"""


def test_fixtures_are_found_beside_a_relocated_package(tmp_path):
    # the package copied anywhere, as an installed one is, finds its fixtures beside itself
    src = Path(__file__).resolve().parent.parent / "src" / "stochgame"
    shutil.copytree(src, tmp_path / "stochgame", ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-S", "-c", RELOCATED_PROBE], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    origin, names, game = done.stdout.splitlines()
    assert Path(origin).resolve().parent == (tmp_path / "stochgame").resolve()
    assert names.split(",") == ALL_FIXTURES
    assert game == "Game(states=3, actions=2x2)"


def test_duplicate_initial_state_reports_second_line():
    text = MINIMAL + "initial_state 1\ninitial_state 1\n"
    with pytest.raises(GameFileError, match="duplicate initial_state"):
        parse_text(text)


def validated(game: Game) -> Game:
    """The same data through `Game.__init__` and every one of its checks."""
    return Game(
        [[list(row) for row in state] for state in game.rewards],
        [[[list(dist) for dist in row] for row in state] for state in game.transitions],
    )


def assert_parity(parsed: Game, reference: Game) -> None:
    assert parsed.rewards == reference.rewards
    assert parsed.transitions == reference.transitions
    assert parsed.int_rewards == reference.int_rewards
    assert parsed.int_transitions == reference.int_transitions
    assert parsed.denominator_lcm() == reference.denominator_lcm()
    assert (parsed.n_states, parsed.n_actions1, parsed.n_actions2) == (
        reference.n_states, reference.n_actions1, reference.n_actions2
    )


def seeded_documents() -> list[tuple[Game, str]]:
    """Games of `gens` and their documents, lines shuffled, indices written with leading zeros."""
    docs = []
    for seed in range(24):
        rng = random.Random(seed)
        n, a1, a2 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        max_den = rng.choice([5, 12, 2**31 - 1])
        make = rand_absorbing_game if seed % 3 == 0 else rand_game
        game = make(rng, n, a1, a2, max_den=max_den)
        lines = serialize_game(GameFile(game)).splitlines()
        if seed % 2:
            lines = [" ".join(f"0{t}" if t.isdigit() and k < 4 else t
                              for k, t in enumerate(line.split())) for line in lines]
        rng.shuffle(lines)
        docs.append((game, "\n".join(lines) + "\n"))
    return docs


class TestParseParity:
    """The parser builds the game without `Game.__init__`; nothing may differ."""

    @pytest.mark.parametrize("name", list_fixtures())
    def test_fixture(self, name):
        game = load_fixture(name).game
        assert_parity(game, validated(game))

    @pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.game")))
    def test_data_game(self, name):
        game = parse_game(DATA / name).game
        assert_parity(game, validated(game))

    @pytest.mark.parametrize("game, text", seeded_documents())
    def test_seeded_document(self, game, text):
        parsed = parse_text(text).game
        assert_parity(parsed, game)
        assert_parity(parsed, validated(parsed))


# A valid two-state document and single-line edits of it.  Each case's exit
# code and message from `info` were recorded before the parser built games
# without `Game.__init__` and read each distinct token once.
BASE = (
    "label t\nstates 2\nactions1 1\nactions2 2\n"
    "reward 1 1 1 1/2\nreward 1 1 2 -3\nreward 2 1 1 0\nreward 2 1 2 7/5\n"
    "transition 1 1 1 1 1/2\ntransition 1 1 1 2 1/2\ntransition 1 1 2 1 1\n"
    "transition 1 1 2 2 0\ntransition 2 1 1 2 1\ntransition 2 1 1 1 0\n"
    "transition 2 1 2 1 2/3\ntransition 2 1 2 2 1/3\n"
)

MALFORMED = [
    ('index 0', 'reward 1 1 2 -3', 'reward 0 1 2 -3', 2, 'error: line 6: reward state 0 out of range 1..2\n'),
    ('index 01', 'reward 1 1 2 -3', 'reward 01 1 2 -3', 0, ''),
    ('index +1', 'transition 1 1 2 2 0', 'transition 1 1 2 +1 0', 2, "error: line 12: transition target must be digits 0-9, got '+1'\n"),
    ('index 1_0', 'reward 2 1 1 0', 'reward 2 1_0 1 0', 2, "error: line 7: reward action i must be digits 0-9, got '1_0'\n"),
    ('index arabic three', 'reward 2 1 2 7/5', 'reward 2 1 ٣ 7/5', 2, "error: line 8: reward action j must be digits 0-9, got '٣'\n"),
    ('index out of range', 'transition 2 1 2 2 1/3', 'transition 2 1 2 3 1/3', 2, 'error: line 16: transition target 3 out of range 1..2\n'),
    ('action out of range', 'reward 2 1 2 7/5', 'reward 2 1 3 7/5', 2, 'error: line 8: reward action j 3 out of range 1..2\n'),
    ('rational 1/0', 'reward 1 1 1 1/2', 'reward 1 1 1 1/0', 2, "error: line 5: malformed rational '1/0': zero denominator\n"),
    ('rational 1/-2', 'reward 1 1 1 1/2', 'reward 1 1 1 1/-2', 2, "error: line 5: malformed rational '1/-2': expected 'p' or 'p/q'\n"),
    ('rational arabic three', 'transition 1 1 2 1 1', 'transition 1 1 2 1 ٣', 2, "error: line 11: malformed rational '٣': expected 'p' or 'p/q'\n"),
    ('negative probability', 'transition 1 1 2 2 0', 'transition 1 1 2 2 -1/2', 2, 'error: line 12: negative transition probability -1/2\n'),
    ('duplicate reward', 'reward 2 1 1 0', 'reward 2 1 1 0\nreward 2 1 1 1', 2, 'error: line 8: duplicate reward for (state 2, i 1, j 1)\n'),
    ('duplicate transition', 'transition 2 1 1 1 0', 'transition 2 1 1 1 0\ntransition 2 1 1 1 0', 2, 'error: line 15: duplicate transition for (state 2, i 1, j 1, target 1)\n'),
    ('missing reward', 'reward 2 1 1 0\n', '', 2, 'error: missing reward for (state 2, i 1, j 1)\n'),
    ('missing transition', 'transition 2 1 2 1 2/3\n', '', 2, 'error: missing transition for (state 2, i 1, j 2, target 1)\n'),
    ('row sums to 1 + 1/7', 'transition 1 1 1 2 1/2', 'transition 1 1 1 2 9/14', 2, 'error: transition row at (state 1, i 1, j 1) sums to 8/7, expected exactly 1\n'),
    ('unknown key', 'label t', 'label t\nweight 1 1', 2, "error: line 2: unknown key 'weight'\n"),
    ('action i token seen as a state', 'reward 2 1 1 0', 'reward 2 2 1 0', 2, 'error: line 7: reward action i 2 out of range 1..1\n'),
    ('negative probability token seen as a reward', 'transition 1 1 2 2 0', 'transition 1 1 2 2 -3', 2, 'error: line 12: negative transition probability -3\n'),
    ('huge state count', 'states 2', 'states 1000000000', 2, 'error: missing transition for (state 1, i 1, j 1, target 3)\n'),
]


@pytest.mark.parametrize(
    "old, new, code, err", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
)
def test_malformed_document_keeps_its_exit_code_and_message(
    old, new, code, err, tmp_path, capsys
):
    assert BASE.count(old) == 1
    path = tmp_path / "case.game"
    path.write_text(BASE.replace(old, new), encoding="utf-8")
    assert main(["info", str(path)]) == code
    assert capsys.readouterr().err == err
    if code == 0:
        assert parse_game(path) == parse_text(BASE)


def test_huge_state_count_fails_at_once():
    text = BASE.replace("states 2", "states 1000000000")
    start = time.perf_counter()
    with pytest.raises(GameFileError, match="missing transition"):
        parse_text(text)
    assert time.perf_counter() - start < 1


# longer than Python's int/str digit limit (4300 by default, never below 640)
LONG = "7" * 5000


class TestLongTokens:
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("reward 1 1 2 -3", f"reward {LONG} 1 2 -3", f"line 6: reward state {LONG} out of range 1..2"),
            ("actions1 1", f"actions1 {LONG}", "missing reward for (state 1, i 2, j 1)"),
            ("transition 1 1 2 2 0", f"transition 1 1 2 2 -{LONG}",
             f"line 12: negative transition probability -{LONG}"),
            ("transition 1 1 2 2 0", f"transition 1 1 2 2 1/{LONG}",
             f"transition row at (state 1, i 1, j 2) sums to {LONG[:-1]}8/{LONG}, expected exactly 1"),
            ("reward 1 1 1 1/2", "reward 1 1 1 1/0" + "0" * 5000,
             f"line 5: malformed rational '1/{'0' * 5001}': zero denominator"),
        ],
        ids=["index", "count", "negative probability", "row sum", "zero denominator"],
    )
    def test_errors_name_the_number(self, old, new, message):
        with pytest.raises(GameFileError) as exc:
            parse_text(BASE.replace(old, new))
        assert str(exc.value) == message
        assert "set_int_max_str_digits" not in message

    def test_long_rational_parses(self):
        doc = parse_text(BASE.replace("reward 1 1 1 1/2", f"reward 1 1 1 -{LONG}/3"))
        assert doc.game.rewards[0][0][0] == Fraction(-7 * (10**5000 - 1) // 9, 3)
