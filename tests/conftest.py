import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from stochgame import GameFile, load_fixture

# Where CI is set (GitHub Actions sets it), property tests that take their
# example count from the profile, the pivot-path tests among them, draw four
# times as many examples as a local run, with no deadline.
settings.register_profile(
    "ci", max_examples=4 * settings.get_profile("default").max_examples, deadline=None
)
if os.environ.get("CI"):
    settings.load_profile("ci")

ALL_FIXTURES = [
    "absorbing_mix",
    "big_match",
    "cycle_mdp",
    "mdp_two_state",
    "single_1x1",
    "single_2x2",
    "single_const",
    "single_mp",
    "switcher",
    "three_state_2x2",
    "two_state_2x2",
    "two_state_3x3",
]


@pytest.fixture(scope="session")
def fixture_docs() -> dict[str, GameFile]:
    return {name: load_fixture(name) for name in ALL_FIXTURES}
