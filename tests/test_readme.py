"""The README's Python quick start runs as written against the package."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    # the per-mode max percent error of the fig3 soliton run
    errors = [float(v) for v in out.getvalue().strip().strip("[]").split()]
    assert len(errors) == 2 and all(0.0 < e < 1.0 for e in errors)
