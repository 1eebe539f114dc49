"""Exact solver for finite two-player zero-sum stochastic games.

Computes discounted values and the vanishing-discount (limit) value by
bisection on exact matrix-game values over pure stationary profiles, with
every number an arbitrary-precision rational.
"""

from .absorbing import (
    AbsorbingGame,
    absorbed_values,
    is_absorbing,
    kohlberg_quotient,
    verify_kohlberg_identity,
)
from .errors import (
    GameFileError,
    GameValidationError,
    ResourceCapError,
    SingularMatrixError,
)
from .gamecore import (
    Game,
    PureProfile,
    StationaryStrategy,
    affine_normalize,
    check_discount,
    discounted_payoff,
    expected_reward,
    transition_matrix,
)
from .gamefile import GameFile, fixture_path, list_fixtures, load_fixture, parse_game, serialize_game
from .matrixgame import (
    GameSolution,
    SnowCertificate,
    affine_transform,
    shapley_snow_certificate,
    shapley_snow_value,
    solve_matrix_game,
)
from .oracle import (
    mdp_brute_force,
    mdp_limit_brute_force,
    shapley_auxiliary,
    shapley_operator,
    value_iteration,
)
from .pencil import (
    GamePencil,
    PencilMatrix,
    build_pencil,
    payoff_denominator,
    payoff_numerator,
    pencil_matrix,
    pencil_matrix_kronecker,
)
from .ratlinalg import (
    RatMatrix,
    det,
    cofactor_sum,
    format_decimal,
    parse_rational,
    solve_linear,
)
from .solver import (
    BisectionResult,
    discounted_value,
    limit_sign,
    limit_value,
    pencil_value,
)

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
    "PencilMatrix",
    "PureProfile",
    "RatMatrix",
    "ResourceCapError",
    "SingularMatrixError",
    "SnowCertificate",
    "StationaryStrategy",
    "absorbed_values",
    "affine_normalize",
    "affine_transform",
    "build_pencil",
    "check_discount",
    "cofactor_sum",
    "det",
    "discounted_payoff",
    "discounted_value",
    "expected_reward",
    "fixture_path",
    "format_decimal",
    "is_absorbing",
    "kohlberg_quotient",
    "limit_sign",
    "limit_value",
    "list_fixtures",
    "load_fixture",
    "mdp_brute_force",
    "mdp_limit_brute_force",
    "parse_game",
    "parse_rational",
    "payoff_denominator",
    "payoff_numerator",
    "pencil_matrix",
    "pencil_matrix_kronecker",
    "pencil_value",
    "serialize_game",
    "shapley_auxiliary",
    "shapley_operator",
    "shapley_snow_certificate",
    "shapley_snow_value",
    "solve_linear",
    "solve_matrix_game",
    "transition_matrix",
    "value_iteration",
    "verify_kohlberg_identity",
]
