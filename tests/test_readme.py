"""README's library quickstart runs as written against the package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, f"{README.name} quickstart", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == block.count("print(")
    # The wrapper and the held orbit give the same quadrature T.
    assert lines[-1] == lines[-2]
