"""The package's public surface: ``lenequiv.__all__``."""

import ast
import pathlib
import pkgutil
import sys
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


def test_library_imports_only_the_standard_library():
    modules = sorted(pathlib.Path(lenequiv.__file__).parent.rglob("*.py"))
    assert any(path.name == "word_algebra.py" for path in modules)
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one inside the package
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "lenequiv", (path.name, name)
