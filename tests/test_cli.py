import json
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


def test_oracle_on_inexact_game(capsys):
    code = main(["oracle", "two_state_3x3", "--lambda", "1/4", "--tol", "1/65536", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["values"]) == 2
    assert len(payload["decimals"]) == 2
