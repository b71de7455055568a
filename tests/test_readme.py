"""The README's library example runs against the public API and prints
the error it promises."""

import contextlib
import io
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_python_example_prints_its_error():
    with open(README, encoding="utf-8") as fh:
        (block,) = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, README, "exec"), {})
    error = float(out.getvalue())
    assert abs(error - 6.546369e-05) <= 1e-6 * 6.546369e-05
