"""The README's Python session runs as printed."""

import contextlib
import io
import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_typical_session_runs():
    text = README.read_text(encoding="utf-8")
    session = re.search(r"A typical session:\n\n```python\n(.*?)\n```", text, re.S)
    assert session, "README has no python block after 'A typical session:'"
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        exec(compile(session.group(1), str(README), "exec"), {})
    assert out.getvalue() == "3/7\n"
