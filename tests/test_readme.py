"""The README's library example runs as written against the public API and
prints what a reader of the README expects, and every name the package
exports resolves."""

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


def test_every_exported_name_resolves():
    import jspr

    namespace = {}
    exec("from jspr import *", namespace)       # raises on an exported name that is gone
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(jspr.__all__)
    assert len(jspr.__all__) == 45
