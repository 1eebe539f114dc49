import io
from fractions import Fraction

import pytest

from stochgame.errors import GameFileError
from stochgame.gamefile import (
    GameFile,
    fixture_path,
    list_fixtures,
    load_fixture,
    parse_game,
    serialize_game,
)

from conftest import ALL_FIXTURES

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

    def test_fixture_listing(self):
        names = list_fixtures()
        assert set(ALL_FIXTURES) <= set(names)
        assert fixture_path("big_match").exists()


def test_duplicate_initial_state_reports_second_line():
    text = MINIMAL + "initial_state 1\ninitial_state 1\n"
    with pytest.raises(GameFileError, match="duplicate initial_state"):
        parse_text(text)
