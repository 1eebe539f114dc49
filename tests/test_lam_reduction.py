"""The limit route against the raw germ reference, and the lam-content of profile germs.

Every entry of a profile germ pencil is divisible by lam: the system
determinant vanishes at lam = 0 (det(I - Q) = 0 for a stochastic Q) and the
Cramer column is lam*L*g.  The solver bisects a start state that can be
left on its germ pencil (or, from the live state 1 of an absorbing game,
on the live pencil), and answers one that is never left, every one-state
game among them, with its reward matrix's value and no probe.  The
reference is the bisection on the raw profile germ pencil,
`matrix_game_sign(build_pencil(game, k, LAM).scaled_at(z))`, the per-probe
sign test of `tests/sign_ref.py`: a start that can be left must give its
trace exactly, and an absorbing one an exact answer inside its enclosure
(`tests/absorbed_ref.py`).
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from stochgame import matrixgame
from stochgame.pencil import build_pencil
from stochgame.ratlinalg import LAM
from stochgame.solver import _bisect, _normalized, limit_value

from absorbed_ref import assert_same_answer
from conftest import ALL_FIXTURES
from gens import rand_absorbing_game, rand_game
from mdp_refs import germ_order
from sign_ref import matrix_game_sign


def entries(pencil):
    return [x for grid in (pencil.numerators, pencil.denominators) for row in grid for x in row]


def raw_germ_route(game, k: int, r: int):
    """The bisection on the undivided profile germ pencil: the reference route."""
    ngame, scale, offset, r_eff = _normalized(game, r)
    pencil = build_pencil(ngame, k, LAM)
    return _bisect(lambda z: matrix_game_sign(pencil.scaled_at(z)), r_eff, scale, offset)


@st.composite
def small_games(draw):
    """Seeded games of up to 3 states and 16 profile entries, general or absorbing."""
    n = draw(st.integers(1, 3))
    top = 3 if n < 3 else 2
    shape = (n, draw(st.integers(1, top)), draw(st.integers(1, top)))
    if n == 2 and shape[1] * shape[2] > 4:
        shape = (n, shape[1], 1)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    make = rand_absorbing_game if draw(st.booleans()) else rand_game
    return make(rng, *shape)


@settings(max_examples=60, deadline=None)
@given(small_games())
def test_every_profile_germ_is_divisible_by_lam(game):
    for k in range(1, game.n_states + 1):
        pencil = build_pencil(game, k, LAM)
        assert all(germ_order(x) >= 1 for x in entries(pencil) if x)


def test_one_state_limit_solves_never_pivot_on_germs(fixture_docs, monkeypatch):
    def raising_bareiss_row(*args):
        raise AssertionError("a germ tableau was pivoted")

    monkeypatch.setattr(matrixgame, "bareiss_row", raising_bareiss_row)
    for name in ("single_2x2", "single_mp", "single_const", "single_1x1"):
        limit_value(fixture_docs[name].game, 1, 12)
    with pytest.raises(AssertionError, match="germ tableau"):
        limit_value(fixture_docs["two_state_2x2"].game, 1, 4)


def seeded_games():
    """216 games: one-state 1-3 x 1-3, two-state general and absorbing up to 16 entries."""
    rng = random.Random(17)
    for a1 in (1, 2, 3):
        for a2 in (1, 2, 3):
            for _ in range(8):
                yield rand_game(rng, 1, a1, a2)
    two_state = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]
    for make in (rand_game, rand_absorbing_game):
        for a1, a2 in two_state:
            for _ in range(12):
                yield make(rng, 2, a1, a2)


@pytest.mark.parametrize("r", [8, 12])
def test_traces_match_the_raw_germ_route_on_seeded_games(r):
    count = 0
    for game in seeded_games():
        for k in range(1, game.n_states + 1):
            assert_same_answer(limit_value(game, k, r), raw_germ_route(game, k, r), game, k)
        count += 1
    assert count >= 200


@pytest.mark.parametrize("r", [8, 12])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_traces_match_the_raw_germ_route_on_fixtures(name, r, fixture_docs):
    game = fixture_docs[name].game
    for k in range(1, game.n_states + 1):
        assert_same_answer(limit_value(game, k, r), raw_germ_route(game, k, r), game, k)
