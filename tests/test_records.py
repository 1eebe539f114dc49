"""The library's records: immutable, read by attribute, equal by their fields.

The result records are named tuples; `GamePencil` and `AbsorbingGame`
carry more than their fields (the pencil's `sign_at` cache, the absorbed
values) and are slotted classes that compare by their defining data.
"""

from fractions import Fraction

import pytest

from stochgame import absorbing
from stochgame.absorbing import AbsorbingGame
from stochgame.checks import run_invariant_checks
from stochgame.matrixgame import solve_matrix_game
from stochgame.pencil import GamePencil, build_pencil
from stochgame.ratlinalg import LAM, RatMatrix
from stochgame.solver import limit_value


@pytest.fixture
def pencil(fixture_docs) -> GamePencil:
    return build_pencil(fixture_docs["two_state_2x2"].game, 1, Fraction(1, 4))


class TestGamePencil:
    @pytest.mark.parametrize("name", ["numerators", "denominators", "scale", "_lifts", "other"])
    def test_assignment_raises(self, pencil, name):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(pencil, name, 1)

    def test_keyword_construction(self, pencil):
        made = GamePencil(numerators=pencil.numerators, denominators=pencil.denominators,
                          scale=pencil.scale)
        assert made == pencil and made._lifts == {}

    @pytest.mark.parametrize("lam", [Fraction(1, 4), LAM])
    def test_filled_cache_stays_out_of_equality_and_hash(self, fixture_docs, lam):
        used = build_pencil(fixture_docs["two_state_2x2"].game, 1, lam)
        signs = [used.sign_at(z) for z in (Fraction(1, 3), Fraction(5, 2))]
        assert len(used._lifts) == 2  # bounds c = 1 and c = 3
        fresh = GamePencil(used.numerators, used.denominators, used.scale)
        assert fresh._lifts == {}
        assert used == fresh and fresh == used and hash(used) == hash(fresh)
        assert [fresh.sign_at(z) for z in (Fraction(1, 3), Fraction(5, 2))] == signs

    def test_scale_counts(self, pencil):
        assert pencil != GamePencil(pencil.numerators, pencil.denominators, 2 * pencil.scale)

    def test_one_denominator_counts(self, pencil):
        first = (pencil.denominators[0][0] + 1,) + pencil.denominators[0][1:]
        assert pencil != GamePencil(pencil.numerators, (first,) + pencil.denominators[1:],
                                    pencil.scale)

    def test_one_numerator_counts(self, pencil):
        first = (pencil.numerators[0][0] + 1,) + pencil.numerators[0][1:]
        assert pencil != GamePencil((first,) + pencil.numerators[1:], pencil.denominators,
                                    pencil.scale)

    def test_other_types_are_unequal(self, pencil):
        assert pencil != (pencil.numerators, pencil.denominators, pencil.scale)


class TestAbsorbingGame:
    def test_keeps_its_absorbed_values(self, fixture_docs):
        ab = AbsorbingGame.from_game(fixture_docs["big_match"].game)
        assert ab.absorbed_values == (1, 0)
        with pytest.raises(AttributeError, match="immutable"):
            ab.absorbed_values = ()
        with pytest.raises(AttributeError, match="immutable"):
            ab.game = None

    def test_equal_when_the_games_are(self, fixture_docs):
        game = fixture_docs["big_match"].game
        ab = AbsorbingGame(game)
        assert ab == AbsorbingGame(game=game) and hash(ab) == hash(AbsorbingGame(game))
        assert ab != AbsorbingGame(fixture_docs["absorbing_mix"].game)


def result_records(fixture_docs) -> dict:
    """One record of each result type, as the library returns it."""
    big_match = fixture_docs["big_match"]
    ab = AbsorbingGame.from_game(big_match.game)
    lam, z = Fraction(1, 3), Fraction(1, 5)
    report = absorbing.verify_kohlberg_identity(
        ab, lam, z, build_pencil(ab.game, 1, lam),
        build_pencil(absorbing.value_reduced_game(ab), 1, lam))
    return {
        "GameSolution": solve_matrix_game(RatMatrix([[1, 0], [0, 1]])),
        "CheckOutcome": run_invariant_checks(fixture_docs["single_2x2"].game)[0],
        "GameFile": big_match,
        "BisectionResult": limit_value(big_match.game, 1, 4),
        "IdentityReport": report,
    }


RECORD_FIELDS = {
    "GameSolution": ("value", "x_opt", "y_opt"),
    "CheckOutcome": ("name", "passed", "detail"),
    "GameFile": ("game", "initial_state", "label"),
    "BisectionResult": ("value_estimate", "radius", "iterations", "trace", "scale", "offset",
                        "evidence"),
    "IdentityReport": ("values_equal", "dependence_ok", "reduction_exact", "pencil_side",
                       "quotient_side", "detail"),
}


@pytest.mark.parametrize("kind", sorted(RECORD_FIELDS))
def test_result_records_read_by_attribute_and_reject_assignment(fixture_docs, kind):
    record = result_records(fixture_docs)[kind]
    assert type(record).__name__ == kind
    values = [getattr(record, name) for name in RECORD_FIELDS[kind]]
    assert type(record)(**dict(zip(RECORD_FIELDS[kind], values))) == record
    for name in RECORD_FIELDS[kind]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.other = None


def test_result_record_values(fixture_docs):
    records = result_records(fixture_docs)
    assert records["GameSolution"].value == Fraction(1, 2)
    assert records["GameFile"].label == "big match"
    assert records["BisectionResult"].value_estimate == Fraction(1, 2)
    assert records["BisectionResult"].evidence is None
    assert records["IdentityReport"].ok
