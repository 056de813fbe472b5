"""The package's public surface: ``lenequiv.__all__``."""

import ast
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import types

import pytest

import lenequiv

ENGINES = {
    "lenequiv.sl2", "lenequiv.trace_poly", "lenequiv.fuchsian", "lenequiv.pipeline", "lenequiv.intersections",
}


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


def loaded_after(probe: str) -> set:
    """The lenequiv modules a fresh interpreter holds after running probe."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lenequiv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = probe + "\nimport sys\nprint(' '.join(m for m in sys.modules if m.startswith('lenequiv')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env, check=True
    )
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_engine():
    loaded = loaded_after("import lenequiv.cli")
    assert "lenequiv.cli" in loaded
    assert not loaded & ENGINES, loaded & ENGINES


@pytest.mark.parametrize(
    "config, absent",
    [
        ({"surface": {"genus": 1, "boundary_components": 1}, "task": "trace-id", "n_range": [1, 5]},
         {"lenequiv.fuchsian", "lenequiv.intersections"}),
        ({"surface": {"genus": 0, "boundary_components": 3}, "task": "filling",
          "words": {"w": "aabb"}, "scc_word_bound": 2},
         {"lenequiv.trace_poly"}),
    ],
    ids=["trace-id", "filling"],
)
def test_a_task_loads_only_its_engines(config, absent, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    loaded = loaded_after(
        "from lenequiv import cli\nassert cli.main(['run', %r, '--out', %r]) == 0" % (str(path), str(out))
    )
    assert json.loads(out.read_text())["task"] == config["task"]
    assert not absent & loaded, absent & loaded


def test_bracket_names_the_function_whatever_is_imported_first():
    loaded = loaded_after(
        "import lenequiv.bracket\n"
        "import sys, types\n"
        "assert not isinstance(lenequiv.bracket, types.ModuleType)\n"
        "assert lenequiv.bracket is sys.modules['lenequiv.bracket'].bracket"
    )
    assert "lenequiv.bracket" in loaded
