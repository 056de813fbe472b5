"""The package's public surface: ``lenequiv.__all__``."""

import pkgutil
import types

import lenequiv


def test_all_names_resolve_and_are_unique():
    assert len(set(lenequiv.__all__)) == len(lenequiv.__all__)
    for name in lenequiv.__all__:
        assert hasattr(lenequiv, name), name


def test_all_lists_no_submodule():
    # `bracket` is both a submodule and the function the package exports
    # under that name; every other submodule name must stay out of __all__
    submodules = {info.name for info in pkgutil.iter_modules(lenequiv.__path__)}
    assert "word_algebra" in submodules
    assert not (submodules - {"bracket"}) & set(lenequiv.__all__)
    for name in lenequiv.__all__:
        assert not isinstance(getattr(lenequiv, name), types.ModuleType), name


def test_star_import_matches_all():
    namespace = {}
    exec("from lenequiv import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lenequiv.__all__)
