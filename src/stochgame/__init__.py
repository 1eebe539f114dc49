"""Exact solver for finite two-player zero-sum stochastic games.

Computes discounted values and the vanishing-discount (limit) value by
bisection on the exact signs of matrix-game values over pure stationary
profiles, with every number an arbitrary-precision rational.
"""

from .absorbing import AbsorbingGame, is_absorbing, kohlberg_quotient, verify_kohlberg_identity
from .errors import GameFileError, GameValidationError, ResourceCapError
from .gamecore import Game, affine_normalize, check_discount
from .gamefile import GameFile, fixture_path, list_fixtures, load_fixture, parse_game, serialize_game
from .matrixgame import GameSolution, solve_matrix_game
from .oracle import shapley_operator, value_iteration
from .pencil import (
    GamePencil,
    build_pencil,
    payoff_denominator,
    pencil_matrix,
    pencil_matrix_kronecker,
)
from .ratlinalg import RatMatrix, det, format_decimal, parse_rational
from .solver import BisectionResult, discounted_value, limit_value

__version__ = "0.1.0"

__all__ = [
    "AbsorbingGame",
    "BisectionResult",
    "Game",
    "GameFile",
    "GameFileError",
    "GamePencil",
    "GameSolution",
    "GameValidationError",
    "RatMatrix",
    "ResourceCapError",
    "affine_normalize",
    "build_pencil",
    "check_discount",
    "det",
    "discounted_value",
    "fixture_path",
    "format_decimal",
    "is_absorbing",
    "kohlberg_quotient",
    "limit_value",
    "list_fixtures",
    "load_fixture",
    "parse_game",
    "parse_rational",
    "payoff_denominator",
    "pencil_matrix",
    "pencil_matrix_kronecker",
    "serialize_game",
    "shapley_operator",
    "solve_matrix_game",
    "value_iteration",
    "verify_kohlberg_identity",
]
