"""The README's examples run against the package as it is."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    # the answer the example prints is the one its comment shows
    assert f"# {lines[0]}\n" in block
    # and its trace ends with that answer
    assert lines[-1] == "answer: {Y = 4450}"
