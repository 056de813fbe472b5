"""The README's library quick start runs against the current API."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_quick_start_runs_and_prints_what_it_says():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_block(), str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["True", "(True, True)", "True"]
