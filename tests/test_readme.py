"""The README's library example runs as written against the public API and
prints what a reader of the README expects."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_library_example_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    [code] = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == "True\nTrue 10\n"
