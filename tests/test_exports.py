import stochgame


def test_every_exported_name_resolves():
    missing = [name for name in stochgame.__all__ if not hasattr(stochgame, name)]
    assert not missing, missing
    assert len(set(stochgame.__all__)) == len(stochgame.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from stochgame import *", namespace)
    assert set(stochgame.__all__) <= set(namespace)
