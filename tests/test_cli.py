import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from stochgame import checks, cli
from stochgame.cli import main
from stochgame.gamefile import fixture_path

BAD_GAME = """states 1
actions1 1
actions2 1
reward 1 1 1 1/2
transition 1 1 1 1 99/100
"""

# flags a subcommand does not take: argparse refuses the flag itself
NOT_TAKEN = {
    ("oracle", "--max-entries"),
    ("value", "--anchor-cap"),
    ("value", "--compare-shallow"),
}

# the subcommands taking each integer flag, and the rest of a valid argv
INTEGER_FLAGS = {
    "--precision": ("discounted", "value"),
    "--state": ("discounted", "value", "check"),
    "--seed": ("check",),
    "--digits": ("discounted", "value", "oracle", "check"),
    "--max-entries": ("discounted", "value", "check"),
}
LAMBDA_ARGV = {"discounted": ["--lambda", "1/4"], "oracle": ["--lambda", "1/4"]}


def integer_flag_argv(command: str, flag: str, text: str) -> list[str]:
    return [command, "single_2x2", *LAMBDA_ARGV.get(command, []), flag, text]


def integer_flag_cases(texts) -> list:
    return [
        (command, flag, text)
        for flag, commands in INTEGER_FLAGS.items()
        for command in commands
        for text in texts
    ]


class TestDiscounted:
    def test_big_match(self, capsys):
        code = main(["discounted", "big_match", "--lambda", "1/4", "--precision", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value     1/2" in out

    def test_json_output(self, capsys):
        code = main(
            ["discounted", "big_match", "--lambda", "1/4", "--precision", "10", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "1/2"
        assert payload["command"] == "discounted"
        assert Fraction(payload["radius"]) <= Fraction(1, 2**10)
        assert payload["state"] == 1

    def test_digits_flag(self, capsys):
        code = main(
            ["discounted", "single_1x1", "--lambda", "1/2", "--precision", "8", "--digits", "4"]
        )
        assert code == 0
        assert "0.3333" in capsys.readouterr().out

    def test_digits_beyond_the_int_str_limit(self, capsys):
        # 5000 digits pass Python's default 4300-digit int -> str limit, which stays as it is
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        argv = ["discounted", "single_2x2", "--lambda", "1/4", "--precision", "4"]
        assert main(argv + ["--digits", "5000"]) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--digits", "5000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        value = Fraction(payload["value"])
        rendered = payload["decimal"]
        assert f"(~ {rendered})" in text
        assert len(rendered.split(".")[1]) == 5000
        # Decimal parses the digits without an int conversion
        assert abs(Fraction(Decimal(rendered)) - value) <= Fraction(1, 2 * 10**5000)

    def test_explicit_file_path(self, capsys):
        code = main(
            ["discounted", str(fixture_path("single_mp")), "--lambda", "1/2", "--precision", "8"]
        )
        assert code == 0


class TestValue:
    def test_big_match(self, capsys):
        code = main(["value", "big_match", "--precision", "10", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "1/2"

    def test_one_state_game_reaches_matrix_value(self, capsys):
        code = main(["value", "single_mp", "--precision", "8", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(Fraction(payload["value"]) - Fraction(1, 2)) <= Fraction(1, 2**8)

    def test_trace_flag(self, capsys):
        code = main(["value", "single_mp", "--precision", "6", "--trace"])
        assert code == 0
        assert "trace" in capsys.readouterr().out


class TestOracle:
    def test_values_with_exactness_flag(self, capsys):
        code = main(["oracle", "big_match", "--lambda", "1/4", "--tol", "1/4096"])
        out = capsys.readouterr().out
        assert code == 0
        assert "state 1: 1/2" in out
        assert "exact fixed point: yes" in out

    def test_json(self, capsys):
        code = main(["oracle", "cycle_mdp", "--lambda", "1/2", "--tol", "1/1024", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == ["2/3", "1/3"]
        assert payload["exact_fixed_point"] is True

    def test_polished_vector_is_not_evaluated_again(self, capsys, monkeypatch):
        # the polish has just tested the fixed point, so its verdict stands;
        # an unpolished iterate is still evaluated
        def operator(game, lam, u):
            raise AssertionError("fixed point evaluated again")

        monkeypatch.setattr(cli, "shapley_operator", operator)
        assert main(["oracle", "cycle_mdp", "--lambda", "1/2", "--tol", "1/1024"]) == 0
        assert "exact fixed point: yes" in capsys.readouterr().out
        with pytest.raises(AssertionError, match="evaluated again"):
            main(["oracle", "two_state_2x2", "--lambda", "1/4", "--tol", "1/64"])


class TestCheck:
    def test_fixture_passes(self, capsys):
        code = main(["check", "two_state_2x2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert "kronecker-equivalence" in out

    def test_absorbing_fixture_runs_identity(self, capsys):
        code = main(["check", "absorbing_mix", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        outcome = {o["name"]: o for o in payload["outcomes"]}
        assert outcome["absorbing-identity"]["passed"]
        assert outcome["absorbing-identity"]["detail"] == ""


class TestInfo:
    def test_summary(self, capsys):
        code = main(["info", "big_match"])
        out = capsys.readouterr().out
        assert code == 0
        assert "states: 3" in out
        assert "absorbing: True" in out

    def test_list_fixtures(self, capsys):
        code = main(["info", "--list-fixtures"])
        assert code == 0
        assert "big_match" in capsys.readouterr().out


@pytest.fixture
def no_solving(monkeypatch):
    """Make every solver entry point of the CLI fail the test if it runs."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("solved despite an invalid flag value")

    for name in ("discounted_value", "limit_value", "value_iteration", "run_invariant_checks"):
        monkeypatch.setattr(cli, name, must_not_run)


class TestExitCodes:
    def test_validation_error_on_missing_file(self, capsys):
        code = main(["info", "no_such_game_anywhere"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_validation_error_on_bad_document(self, tmp_path, capsys):
        path = tmp_path / "bad.game"
        path.write_text(BAD_GAME)
        code = main(["discounted", str(path), "--lambda", "1/2"])
        assert code == 2
        assert "99/100" in capsys.readouterr().err

    def test_resource_cap_exit(self, capsys):
        code = main(
            ["discounted", "single_mp", "--lambda", "1/2", "--max-entries", "3"]
        )
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_check_cap_exits_before_any_invariant(self, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("an invariant ran despite the cap")

        for name in vars(checks).copy():
            if name.startswith("_check_") and name != "_check_cap":
                monkeypatch.setattr(checks, name, must_not_run)
        # two_state_2x2 has a 4 x 4 profile matrix
        code = main(["check", "two_state_2x2", "--max-entries", "15"])
        assert code == 3
        assert "above the cap of 15" in capsys.readouterr().err

    def test_directory_path_is_validation_error(self, tmp_path, capsys):
        code = main(["info", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read game file") and str(tmp_path) in err

    def test_non_utf8_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.game"
        path.write_bytes("label caf\xe9\nstates 1\n".encode("latin-1"))
        code = main(["value", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and str(path) in err

    @pytest.mark.parametrize(
        "old, new, line_no",
        [
            ("states 1", "states 1_0", 1),
            ("actions2 1", "actions2 １", 3),
            ("reward 1 1 1 1/2", "reward +1 1 1 1/2", 4),
            ("reward 1 1 1 1/2", "reward 1 1 1 ٣/4", 4),
            ("transition 1 1 1 1 99/100", "transition 1 1 1 1_0 1", 5),
        ],
    )
    def test_non_ascii_digit_game_line_is_validation_error(
        self, old, new, line_no, tmp_path, capsys
    ):
        path = tmp_path / "digits.game"
        path.write_text(BAD_GAME.replace(old, new), encoding="utf-8")
        code = main(["info", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: line {line_no}: ")

    def test_bad_lambda_is_validation_error(self, capsys):
        code = main(["discounted", "single_mp", "--lambda", "3/2"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["discounted", "two_state_2x2", "--lambda", "1/4", "--digits", "-1"],
            ["value", "single_2x2", "--digits", "-1"],
            ["oracle", "two_state_2x2", "--lambda", "1/4", "--digits", "-2"],
            ["check", "two_state_2x2", "--digits", "-1"],
        ],
    )
    def test_negative_digits_rejected_before_solving(self, argv, no_solving, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--digits: must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["discounted", "single_2x2", "--lambda", "1/4x"], "--lambda"),
            (["discounted", "single_2x2", "--lambda", "1/0"], "--lambda"),
            (["oracle", "single_2x2", "--lambda", "one"], "--lambda"),
            (["oracle", "single_2x2", "--lambda", "1/4", "--tol", "abc"], "--tol"),
            (["oracle", "single_2x2", "--lambda", "1/4", "--tol", "0.5"], "--tol"),
            (["discounted", "single_2x2", "--lambda", "1/4", "--max-entries", "-1"],
             "--max-entries"),
            (["value", "single_2x2", "--max-entries", "0"], "--max-entries"),
            (["oracle", "single_2x2", "--lambda", "1/4", "--max-entries", "x"],
             "--max-entries"),
            (["check", "single_2x2", "--max-entries", "-1"], "--max-entries"),
            (["value", "single_2x2", "--anchor-cap", "-5"], "--anchor-cap"),
            (["value", "single_2x2", "--anchor-cap", "0"], "--anchor-cap"),
            (["value", "single_2x2", "--anchor-cap", "2.5"], "--anchor-cap"),
            (["value", "single_2x2", "--compare-shallow"], "--compare-shallow"),
            (["discounted", "two_state_2x2", "--lambda", "١/٤"], "--lambda"),
            (["oracle", "single_2x2", "--lambda", "1_0/2_0"], "--lambda"),
            (["discounted", "single_2x2", "--lambda", "1/4", "--precision", "-1"], "--precision"),
            (["value", "single_2x2", "--precision", "-1"], "--precision"),
            (["discounted", "single_2x2", "--lambda", "1/4", "--state", "0"], "--state"),
            (["value", "single_2x2", "--state", "-2"], "--state"),
            (["check", "single_2x2", "--state", "0"], "--state"),
        ],
    )
    def test_bad_flag_value_rejected_before_solving(self, argv, flag, no_solving, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if (argv[0], flag) in NOT_TAKEN:
            assert f"unrecognized arguments: {flag}" in err
        else:
            assert f"argument {flag}:" in err

    # non-ASCII digits, digit separators, spaces and a '+' sign are all
    # accepted by int(), but not by the flags
    @pytest.mark.parametrize(
        "command, flag, text", integer_flag_cases(["\u0663", "1_0", " 3", "+3"])
    )
    def test_integer_flag_must_be_ascii_digits(self, command, flag, text, no_solving, capsys):
        with pytest.raises(SystemExit) as exc:
            main(integer_flag_argv(command, flag, text))
        assert exc.value.code == 2
        assert f"argument {flag}: expected an integer in digits 0-9" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, text",
        integer_flag_cases(["7", "0012"]) + [("check", "--seed", "-42")],
    )
    def test_integer_flag_takes_ascii_digits(self, command, flag, text):
        args = cli.build_parser().parse_args(integer_flag_argv(command, flag, text))
        assert getattr(args, flag[2:].replace("-", "_")) == int(text)


def test_oracle_on_inexact_game(capsys):
    code = main(["oracle", "two_state_3x3", "--lambda", "1/4", "--tol", "1/65536", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["values"]) == 2
    assert len(payload["decimals"]) == 2


# one process, in turn: a limit value, a check, a bad flag and a discounted value
PARSER_SEQUENCE = [
    ["value", "big_match", "--precision", "6", "--json"],
    ["check", "two_state_2x2", "--seed", "1", "--json"],
    ["discounted", "single_2x2", "--lambda", "1/4", "--state", "0", "--json"],
    ["discounted", "two_state_2x2", "--lambda", "2/3", "--precision", "10", "--json"],
]


def _run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    payload = json.loads(out) if out else None
    if payload:
        payload.pop("elapsed_s")
    return code, payload, err


def test_one_parser_serves_every_call(monkeypatch, capsys):
    shared = [_run_main(argv, capsys) for argv in PARSER_SEQUENCE]
    fresh = []
    for argv in PARSER_SEQUENCE:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(_run_main(argv, capsys))
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    assert "argument --state:" in shared[2][2]
    assert shared == fresh
